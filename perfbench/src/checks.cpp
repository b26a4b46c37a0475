// Output checks: every campaign outcome must be complete, carry the
// paper's verdict, repeat bit for bit, and match the recorded goldens on
// the default seed.
#include <bit>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "core/circuits.hpp"
#include "leakage/tvla.hpp"

namespace perfbench {

using namespace glitchmask;

Goldens load_goldens(const std::string& path, const std::string& workload) {
    Goldens goldens;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        std::istringstream fields(line);
        std::string name, label, metric, value;
        if (!(fields >> name >> label >> metric >> value)) continue;
        if (name != workload) continue;
        goldens[label][metric] = std::strtod(value.c_str(), nullptr);
    }
    return goldens;
}

OutputCheck::OutputCheck(std::string workload, Goldens goldens,
                         bool print_goldens)
    : workload_(std::move(workload)),
      goldens_(std::move(goldens)),
      print_goldens_(print_goldens) {}

namespace {

bool fail(const Job& job, const std::string& why) {
    std::fprintf(stderr, "perfbench: %s: %s\n", job.label.c_str(), why.c_str());
    return false;
}

double metric(const CampaignOutcome& outcome, const std::string& name) {
    for (const auto& [key, value] : outcome.metrics)
        if (key == name) return value;
    return -1.0;
}

bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The paper's verdict for the job, or "" when the outcome agrees.
std::string verdict_error(const Job& job, const CampaignOutcome& outcome) {
    const CampaignRequest& r = job.request;
    switch (r.kind) {
        case CampaignKind::SequenceTvla: {
            const bool expected = core::sequence_expected_to_leak(r.sequence);
            if ((metric(outcome, "leaks_first_order") == 1.0) != expected)
                return expected ? "Table I sequence should leak at order 1"
                                : "Table I sequence should not leak at order 1";
            return {};
        }
        case CampaignKind::GadgetTvla: {
            const bool expected = r.gadget == eval::GadgetKind::Naive ||
                                  r.gadget == eval::GadgetKind::Trichina;
            if ((metric(outcome, "leaks_first_order") == 1.0) != expected)
                return expected ? "gadget should leak at order 1"
                                : "gadget should not leak at order 1";
            return {};
        }
        case CampaignKind::DesTvla:
            for (const auto& [key, value] : outcome.metrics)
                if (key.rfind("max_abs_t_order", 0) == 0 &&
                    !(value < leakage::kTvlaThreshold))
                    return "FF DES with the PRNG on crosses |t| = 4.5 (" +
                           key + ")";
            if (metric(outcome, "toggles") <= 0.0) return "no toggles";
            return {};
        case CampaignKind::MeanPower: {
            const double mean = metric(outcome, "mean_power");
            if (!(mean > 0.0) || metric(outcome, "peak_power") < mean)
                return "implausible mean/peak power";
            return {};
        }
    }
    return "unknown request kind";
}

}  // namespace

bool OutputCheck::check(const Job& job, const CampaignOutcome& outcome) {
    if (outcome.cancelled || outcome.completed_traces != job.request.traces)
        return fail(job, "campaign did not complete");
    if (const std::string error = verdict_error(job, outcome); !error.empty())
        return fail(job, error);

    const auto [seen, inserted] = first_.try_emplace(job.label, outcome.metrics);
    if (inserted) {
        if (print_goldens_)
            for (const auto& [key, value] : outcome.metrics)
                std::printf("golden %s %s %s %a\n", workload_.c_str(),
                            job.label.c_str(), key.c_str(), value);
    } else {
        const auto& first = seen->second;
        if (first.size() != outcome.metrics.size())
            return fail(job, "outcome differs from an earlier repetition");
        for (std::size_t i = 0; i < first.size(); ++i)
            if (first[i].first != outcome.metrics[i].first ||
                !same_bits(first[i].second, outcome.metrics[i].second))
                return fail(job, "outcome differs from an earlier "
                                 "repetition in " + first[i].first);
    }

    const auto golden = goldens_.find(job.label);
    if (goldens_.empty()) return true;
    if (golden == goldens_.end()) return fail(job, "no golden recorded");
    for (const auto& [key, value] : golden->second) {
        const double got = metric(outcome, key);
        if (!same_bits(got, value)) {
            char text[160];
            std::snprintf(text, sizeof text, "%s = %.17g, golden %.17g",
                          key.c_str(), got, value);
            return fail(job, text);
        }
    }
    return true;
}

}  // namespace perfbench
