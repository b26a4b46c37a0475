// Set-up timing and the direct workload (des_tvla): campaign requests
// run back to back through
// service::run_campaign_request on the calling thread.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <exception>
#include <memory>

#include "bench.hpp"
#include "core/circuits.hpp"
#include "des/masked_des.hpp"
#include "eval/gadget_tvla.hpp"
#include "sim/compiled_simulator.hpp"
#include "sim/delay_model.hpp"
#include "support/trace.hpp"

namespace perfbench {

using namespace glitchmask;

namespace {

double cpu_ms_since(double since) { return (cpu_now_s() - since) * 1e3; }

}  // namespace

SetupTimes setup_once(const std::string& workload) {
    SetupTimes times;
    const bool mix = workload == "service_mix";

    // deque: the delay models and programs keep references to netlists.
    std::unique_ptr<des::MaskedDesCore> core;
    std::deque<eval::GadgetCircuit> zoo;
    std::unique_ptr<core::RegisteredSecand2> secand2;
    std::vector<const netlist::Netlist*> netlists;
    double t = cpu_now_s();
    {
        const trace::ScopedSpan span("circuit.build");
        core = std::make_unique<des::MaskedDesCore>();
        netlists.push_back(&core->nl());
        if (mix) {
            for (const eval::GadgetKind kind : eval::kAllGadgets) {
                zoo.push_back(eval::build_gadget_circuit(kind, 16));
                netlists.push_back(&zoo.back().nl);
            }
            secand2 = std::make_unique<core::RegisteredSecand2>(
                core::build_registered_secand2(16));
            netlists.push_back(&secand2->nl);
        }
    }
    times.circuit_ms = cpu_ms_since(t);

    std::deque<sim::DelayModel> delays;
    t = cpu_now_s();
    {
        const trace::ScopedSpan span("sim.delay_annotate");
        for (const netlist::Netlist* nl : netlists)
            delays.emplace_back(*nl, sim::DelayConfig::spartan6());
    }
    times.delay_ms = cpu_ms_since(t);

    sim::clear_compiled_program_cache();
    t = cpu_now_s();
    {
        const trace::ScopedSpan span("sim.compile");
        for (std::size_t i = 0; i < netlists.size(); ++i)
            (void)sim::compile_netlist(*netlists[i], delays[i]);
    }
    times.compile_ms = cpu_ms_since(t);

    t = cpu_now_s();
    std::unique_ptr<service::CampaignService> svc;
    {
        const trace::ScopedSpan span("service.start");
        svc = std::make_unique<service::CampaignService>(
            service::ServiceConfig{});
    }
    times.service_ms = cpu_ms_since(t);
    svc->shutdown(false);
    return times;
}

void sample_setups(const std::string& workload, std::vector<double>& out) {
    for (int i = 0; i < kSetupsPerPass; ++i) {
        const SetupTimes times = setup_once(workload);
        out.push_back((times.circuit_ms + times.delay_ms + times.compile_ms +
                       times.service_ms) /
                      1e3);
    }
}

RunResult run_direct(const RunOptions& options, OutputCheck& check) {
    const std::vector<Job> jobs = direct_jobs(options.workload, options.seed);
    RunResult result;

    std::vector<double> setup_s, pass_tps, pass_cpu, pass_jps, job_ms;
    const auto run_pass = [&](bool timed) {
        std::size_t traces = 0;
        const double cpu0 = cpu_now_s();
        const double steal0 = stolen_s();
        const double t0 = now_s();
        for (const Job& job : jobs) {
            ++result.attempted;
            const double tj = cpu_now_s();
            try {
                const CampaignOutcome outcome =
                    service::run_campaign_request(job.request, run_options(job));
                if (timed) job_ms.push_back(cpu_ms_since(tj));
                traces += outcome.completed_traces;
                if (!check.check(job, outcome)) ++result.failed;
            } catch (const std::exception& e) {
                std::fprintf(stderr, "perfbench: %s: %s\n", job.label.c_str(),
                             e.what());
                ++result.failed;
            }
        }
        const double cpu = cpu_now_s() - cpu0;
        // Steal is counted in clock ticks; on one CPU the run time can
        // never be below the CPU time, which bounds the rounding.
        const double wall =
            std::max(now_s() - t0 - (stolen_s() - steal0), cpu);
        if (!timed || traces == 0) return;
        pass_tps.push_back(static_cast<double>(traces) / wall);
        pass_cpu.push_back(cpu * 1e3 / (static_cast<double>(traces) / 1e3));
        pass_jps.push_back(static_cast<double>(jobs.size()) / wall);
    };

    run_pass(false);  // warm-up: caches, page faults, lazy set-up
    const double start = now_s();
    while (now_s() - start < kMaxMeasureS &&
           (now_s() - start < options.seconds || job_ms.size() < kMinJobs)) {
        sample_setups(options.workload, setup_s);
        run_pass(true);
    }

    const std::size_t passes = pass_tps.size();
    result.metrics = {
        {"traces_per_s", median(pass_tps), "traces/s", passes},
        {"cpu_ms_per_ktrace", median(pass_cpu), "ms", passes},
        {"setup_s", median(setup_s), "s", setup_s.size()},
        {"peak_rss_mb", peak_rss_mib(), "MiB", 1},
        {"jobs_per_s", median(pass_jps), "jobs/s", passes},
        {"job_ms_p50", percentile(job_ms, 50.0), "ms", job_ms.size()},
        {"job_ms_p90", percentile(job_ms, 90.0), "ms", job_ms.size()},
    };
    return result;
}

}  // namespace perfbench
