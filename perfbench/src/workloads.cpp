// Workload definitions: the campaign jobs each workload runs, generated
// from the run's seed, plus the statistics and clock helpers.
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "core/circuits.hpp"
#include "eval/gadget_tvla.hpp"
#include "support/rng.hpp"

namespace perfbench {

using namespace glitchmask;

double percentile(std::vector<double> values, double p) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double now_s() noexcept {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

namespace {
int pinned_cpu = -1;
}  // namespace

int pin_to_one_cpu() {
    const int cpu = sched_getcpu();
    if (cpu < 0) return -1;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    if (sched_setaffinity(0, sizeof set, &set) != 0) return -1;
    pinned_cpu = cpu;
    return cpu;
}

double cpu_now_s() noexcept {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double stolen_s() {
    if (pinned_cpu < 0) return 0.0;
    std::ifstream stat("/proc/stat");
    const std::string prefix = "cpu" + std::to_string(pinned_cpu) + " ";
    std::string line;
    while (std::getline(stat, line)) {
        if (line.rfind(prefix, 0) != 0) continue;
        // user nice system idle iowait irq softirq steal, in clock ticks
        std::istringstream fields(line.substr(prefix.size()));
        double ticks[8] = {};
        for (double& t : ticks) fields >> t;
        return ticks[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
    }
    return 0.0;
}

double peak_rss_mib() {
    // VmHWM, not getrusage's ru_maxrss: the latter survives execve, so a
    // child of a large parent would report the parent's footprint.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    return 0.0;
}

bool known_workload(const std::string& name) {
    return name == "des_tvla" || name == "service_mix";
}

namespace {

std::string sequence_label(const core::InputSequence& sequence) {
    std::string text = "sequence_tvla:";
    for (const core::ShareId slot : sequence)
        text += static_cast<char>('0' + static_cast<int>(slot));
    return text;
}

Job des_job(std::uint64_t seed, std::size_t traces, const std::string& label) {
    Job job{label, service::default_request(CampaignKind::DesTvla), false};
    job.request.traces = traces;
    job.request.seed = seed;
    job.request.workers = 1;
    return job;
}

Job gadget_job(eval::GadgetKind kind, std::uint64_t seed, std::size_t traces,
               bool attribution, const std::string& suffix = {}) {
    Job job{std::string("gadget_tvla:") + eval::gadget_name(kind) + suffix,
            service::default_request(CampaignKind::GadgetTvla), attribution};
    job.request.gadget = kind;
    job.request.seed = seed;
    job.request.workers = 1;
    if (traces != 0) job.request.traces = traces;
    return job;
}

}  // namespace

std::vector<Job> direct_jobs(const std::string& workload, std::uint64_t seed) {
    std::vector<Job> jobs;
    if (workload == "des_tvla") {
        // Three one-block requests and one four-block request: p50 sits
        // inside the one-block band and p90 inside the four-block band, so
        // neither is the tail of identical jobs, which only shows how
        // long the host's slowest phase lasted.
        for (int i = 0; i < 3; ++i)
            jobs.push_back(des_job(seed, 64, "des_tvla"));
        jobs.push_back(des_job(seed, 256, "des_tvla@256"));
    }
    return jobs;
}

std::vector<Job> unique_jobs(const std::vector<Job>& jobs) {
    std::vector<Job> out;
    for (const Job& job : jobs)
        if (std::none_of(out.begin(), out.end(), [&](const Job& seen) {
                return seen.label == job.label;
            }))
            out.push_back(job);
    return out;
}

namespace {

/// Four times the request default, so a sequence job (~10 ms) outweighs the
/// thread hand-offs around it, whose latency swings with host load.
constexpr std::size_t kMixSequenceTraces = 16000;

/// Trace counts of the service_mix gadget jobs, all attributed: each
/// runs about as long as the others (~12 ms on an idle 4-vCPU Xeon VM),
/// so together they form one latency band.
std::size_t mix_gadget_traces(eval::GadgetKind kind) {
    switch (kind) {
        case eval::GadgetKind::Naive: return 34560;
        case eval::GadgetKind::Ff: return 29440;
        case eval::GadgetKind::Pd: return 5376;
        case eval::GadgetKind::DomIndep: return 12800;
        case eval::GadgetKind::DomDep: return 8320;
        case eval::GadgetKind::Trichina: break;
    }
    return 0;
}

/// Trichina's first-order leak is weak: below ~40k traces its max|t|
/// dips under 4.5 for some seeds, so its one mix job runs 64k traces
/// (minimum max|t| over 40 seeds: 8.7).  It is slower than the gadget
/// band, but one job a round stays above p90.
constexpr std::size_t kTrichinaTraces = 64000;

}  // namespace

MixScript mix_script(std::uint64_t seed) {
    MixScript script;
    // Two seeds' worth of the light kinds per short des_tvla and
    // mean_power job: the proportions keep p50 inside the sequence band
    // and p90 inside the gadget band.
    for (std::uint64_t s = seed; s < seed + 2; ++s) {
        for (const core::InputSequence& sequence :
             core::all_input_sequences()) {
            Job job{sequence_label(sequence) + "#" + std::to_string(s - seed),
                    service::default_request(CampaignKind::SequenceTvla),
                    false};
            job.request.sequence = sequence;
            job.request.traces = kMixSequenceTraces;
            job.request.seed = s;
            job.request.workers = 1;
            script.jobs.push_back(job);
        }
        for (const eval::GadgetKind kind : eval::kAllGadgets)
            if (kind != eval::GadgetKind::Trichina)
                script.jobs.push_back(
                    gadget_job(kind, s, mix_gadget_traces(kind), true,
                               "#" + std::to_string(s - seed)));
    }
    script.jobs.push_back(gadget_job(eval::GadgetKind::Trichina, seed,
                                     kTrichinaTraces, true, "#0"));
    script.jobs.push_back(des_job(seed, 64, "des_tvla"));
    {
        Job job{"mean_power", service::default_request(CampaignKind::MeanPower),
                false};
        job.request.traces = 64;
        job.request.seed = seed;
        job.request.workers = 1;
        script.jobs.push_back(job);
    }
    const std::size_t fresh = script.jobs.size();
    // Requests both clients submit at once: the second coalesces onto the
    // first while it runs.
    const std::size_t pair_a = script.jobs.size();
    script.jobs.push_back(gadget_job(eval::GadgetKind::Naive, seed + 2,
                                     mix_gadget_traces(eval::GadgetKind::Naive),
                                     true, "#pair"));
    const std::size_t pair_b = script.jobs.size();
    script.jobs.push_back(gadget_job(eval::GadgetKind::DomDep, seed + 2,
                                     mix_gadget_traces(eval::GadgetKind::DomDep),
                                     true, "#pair"));

    std::vector<std::size_t> order(fresh);
    for (std::size_t i = 0; i < fresh; ++i) order[i] = i;
    Xoshiro256 rng(seed);
    for (std::size_t i = fresh; i > 1; --i)
        std::swap(order[i - 1], order[rng() % i]);

    for (int c = 0; c < 2; ++c) {
        std::vector<MixStep>& steps = script.clients[c];
        std::vector<std::size_t> done;
        for (std::size_t i = static_cast<std::size_t>(c); i < fresh; i += 2) {
            steps.push_back({order[i], false});
            done.push_back(order[i]);
            // Every second fresh job, repeat one this client already
            // finished: a cache read.
            if (done.size() % 2 == 0)
                steps.push_back({done[rng() % done.size()], false});
        }
        const std::size_t n = steps.size();
        steps.insert(steps.begin() + static_cast<std::ptrdiff_t>(2 * n / 3),
                     MixStep{pair_b, true});
        steps.insert(steps.begin() + static_cast<std::ptrdiff_t>(n / 3),
                     MixStep{pair_a, true});
    }
    return script;
}

MixScript probe_script(const std::vector<Job>& jobs) {
    MixScript script;
    script.jobs = jobs;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        script.clients[0].push_back({i, false});
        script.clients[0].push_back({i, false});
    }
    Job pair = jobs.front();
    pair.label += "#pair";
    pair.request.seed += 1;
    script.jobs.push_back(pair);
    for (int c = 0; c < 2; ++c)
        script.clients[c].push_back({script.jobs.size() - 1, true});
    return script;
}

eval::CampaignRunOptions run_options(const Job& job) {
    eval::CampaignRunOptions run;
    run.attribution = job.attribution;
    return run;
}

}  // namespace perfbench
