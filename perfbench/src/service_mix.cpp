// The service_mix workload: a closed loop of two clients into one
// in-process CampaignService with one executor.  Requests enter as NDJSON
// lines through the service's protocol functions and leave as encoded
// result lines; no socket, so the transport is not what is measured.
#include <algorithm>
#include <barrier>
#include <cstdio>
#include <exception>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "service/protocol.hpp"
#include "support/telemetry.hpp"

namespace perfbench {

using namespace glitchmask;

namespace {

std::string submit_line(const CampaignRequest& request) {
    // encode_request renders {"kind":...}; the submit verb adds "op".
    return "{\"op\":\"submit\"," + service::encode_request(request).substr(1);
}

}  // namespace

RoundResult run_round(const MixScript& script, const std::string& trace_dir) {
    std::vector<std::string> lines;
    for (const Job& job : script.jobs) lines.push_back(submit_line(job.request));

    RoundResult round;
    service::ServiceConfig config;
    config.executors = 1;
    config.trace_dir = trace_dir;
    auto svc = std::make_unique<service::CampaignService>(config);

    std::barrier sync(2);
    std::vector<JobRecord> records[2];
    const auto client = [&](int c) {
        for (const MixStep& step : script.clients[c]) {
            if (step.together) sync.arrive_and_wait();
            JobRecord rec;
            rec.job = step.job;
            rec.begin_ns = telemetry::steady_now_ns();
            try {
                const double t0 = cpu_now_s();
                const service::ClientCommand command =
                    service::parse_client_command(lines[step.job]);
                const double t1 = cpu_now_s();
                const auto submitted = svc->submit(*command.request);
                const double t2 = cpu_now_s();
                rec.submit_us = (t2 - t1) * 1e6;
                if (submitted.kind ==
                    service::CampaignService::SubmitResult::Kind::Accepted) {
                    if (auto status = svc->wait(submitted.job_id)) {
                        const double t3 = cpu_now_s();
                        const std::string result =
                            service::encode_result(*status);
                        const double t4 = cpu_now_s();
                        rec.accepted = !result.empty();
                        rec.status = std::move(*status);
                        rec.latency_ms = (t4 - t0) * 1e3;
                        rec.protocol_us = ((t1 - t0) + (t4 - t3)) * 1e6;
                    }
                }
            } catch (const std::exception& e) {
                std::fprintf(stderr, "perfbench: %s: %s\n",
                             script.jobs[step.job].label.c_str(), e.what());
            }
            rec.end_ns = telemetry::steady_now_ns();
            records[c].push_back(std::move(rec));
        }
    };

    const double cpu0 = cpu_now_s();
    const double steal0 = stolen_s();
    const double t0 = now_s();
    std::thread other(client, 1);
    client(0);
    other.join();
    round.cpu_s = cpu_now_s() - cpu0;
    // Steal is counted in clock ticks; on one CPU the run time can never
    // be below the CPU time, which bounds the rounding.
    round.wall_s =
        std::max(now_s() - t0 - (stolen_s() - steal0), round.cpu_s);
    svc->shutdown(false);
    round.stats = svc->stats();

    for (auto& client_records : records)
        for (JobRecord& rec : client_records) {
            if (rec.accepted && !rec.status.cached && !rec.status.coalesced)
                round.executed_traces += rec.status.outcome.completed_traces;
            round.records.push_back(std::move(rec));
        }
    return round;
}

std::size_t check_round(const MixScript& script, const RoundResult& round,
                        OutputCheck& check) {
    std::size_t failed = 0;
    for (const JobRecord& rec : round.records) {
        const Job& job = script.jobs[rec.job];
        if (!rec.accepted) {
            std::fprintf(stderr, "perfbench: %s: refused or lost\n",
                         job.label.c_str());
            ++failed;
        } else if (rec.status.state != service::JobState::Completed) {
            std::fprintf(stderr, "perfbench: %s: job ended %s (%s)\n",
                         job.label.c_str(),
                         service::job_state_name(rec.status.state),
                         rec.status.error_message.c_str());
            ++failed;
        } else if (!check.check(job, rec.status.outcome)) {
            ++failed;
        }
    }
    return failed;
}

RunResult run_service_mix(const RunOptions& options, OutputCheck& check) {
    const MixScript script = mix_script(options.seed);
    RunResult result;

    std::vector<double> setup_s, round_tps, round_cpu, round_jps, job_ms;
    const auto play = [&](bool timed) {
        const RoundResult round = run_round(script);
        result.attempted += round.records.size();
        result.failed += check_round(script, round, check);
        if (!timed || round.executed_traces == 0) return;
        const double traces = static_cast<double>(round.executed_traces);
        round_tps.push_back(traces / round.wall_s);
        round_cpu.push_back(round.cpu_s * 1e3 / (traces / 1e3));
        round_jps.push_back(static_cast<double>(round.records.size()) /
                            round.wall_s);
        for (const JobRecord& rec : round.records)
            if (rec.accepted) job_ms.push_back(rec.latency_ms);
    };

    play(false);  // warm-up
    const double start = now_s();
    while (now_s() - start < kMaxMeasureS &&
           (now_s() - start < options.seconds || job_ms.size() < kMinJobs)) {
        sample_setups(options.workload, setup_s);
        play(true);
    }

    const std::size_t rounds = round_tps.size();
    result.metrics = {
        {"traces_per_s", median(round_tps), "traces/s", rounds},
        {"cpu_ms_per_ktrace", median(round_cpu), "ms", rounds},
        {"setup_s", median(setup_s), "s", setup_s.size()},
        {"peak_rss_mb", peak_rss_mib(), "MiB", 1},
        {"jobs_per_s", median(round_jps), "jobs/s", rounds},
        {"job_ms_p50", percentile(job_ms, 50.0), "ms", job_ms.size()},
        {"job_ms_p90", percentile(job_ms, 90.0), "ms", job_ms.size()},
    };
    return result;
}

}  // namespace perfbench
