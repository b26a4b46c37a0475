// Shared declarations of the perfbench program.
//
// A workload is a list of campaign jobs generated from the run's seed.
// End-to-end numbers come from untraced runs through the library's public
// entry points (service::run_campaign_request, service::CampaignService);
// per-layer numbers come from a separate traced run (layers.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "service/campaign_request.hpp"
#include "service/service.hpp"

namespace perfbench {

using glitchmask::service::CampaignKind;
using glitchmask::service::CampaignOutcome;
using glitchmask::service::CampaignRequest;

/// The seed whose outputs goldens.txt records.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// One campaign request plus what the benchmark needs to know about it.
struct Job {
    std::string label;          // stable name (goldens key, trace attrs)
    CampaignRequest request;
    bool attribution = false;   // CampaignRunOptions::attribution
};

/// One named result with its unit and the number of samples behind it.
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
};

struct RunOptions {
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 30.0;
    bool trace = false;
    std::string out_dir;        // Chrome traces of traced runs
    std::string goldens_path;   // empty = no golden comparison
    bool print_goldens = false; // emit "golden ..." lines for goldens.txt
};

/// What a run reports: metrics plus the operation tally.
struct RunResult {
    std::vector<Metric> metrics;
    std::size_t attempted = 0;
    std::size_t failed = 0;
};

// ----- statistics ---------------------------------------------------------

/// Linear-interpolation percentile (p in [0, 100]) of `values`.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] inline double median(std::vector<double> values) {
    return percentile(std::move(values), 50.0);
}

/// Monotonic wall clock in seconds.
[[nodiscard]] double now_s() noexcept;

// The benchmark runs pinned to one CPU, so that it can time itself on
// clocks that exclude hypervisor steal: on a shared host a vCPU loses
// whole slices to other guests, and measured steal of up to 60% swung
// wall-clock figures by 2x between runs of the same code.  With every
// thread on one CPU, the process CPU clock advances exactly while one of
// them runs -- wall time less steal and less idle waits -- and that CPU's
// steal counter in /proc/stat is the benchmark's own.

/// Pins the process (and the threads it creates later) to the CPU it is
/// running on; returns that CPU, or -1 when pinning failed.
int pin_to_one_cpu();
/// Process CPU time in seconds (all threads), nanosecond resolution.
[[nodiscard]] double cpu_now_s() noexcept;
/// Hypervisor steal of the pinned CPU in seconds (clock-tick resolution);
/// 0 when the process is not pinned or /proc/stat is unreadable.
[[nodiscard]] double stolen_s();

/// Peak resident set of this process in MiB.
[[nodiscard]] double peak_rss_mib();

// ----- workloads ----------------------------------------------------------

[[nodiscard]] bool known_workload(const std::string& name);

/// The jobs a direct workload (des_tvla) runs per pass.
[[nodiscard]] std::vector<Job> direct_jobs(const std::string& workload,
                                           std::uint64_t seed);
/// `jobs` with repeated labels dropped, in first-seen order.
[[nodiscard]] std::vector<Job> unique_jobs(const std::vector<Job>& jobs);

/// Closed-loop script of the service_mix workload: the unique requests
/// and, per client, the order it submits them in.
struct MixStep {
    std::size_t job = 0;        // index into MixScript::jobs
    bool together = false;      // both clients submit it at once
};
struct MixScript {
    std::vector<Job> jobs;
    std::vector<MixStep> clients[2];
};
[[nodiscard]] MixScript mix_script(std::uint64_t seed);
/// A small script over a direct workload's jobs (fresh, repeat and
/// coalesced submits) that measures the service layer on them.
[[nodiscard]] MixScript probe_script(const std::vector<Job>& jobs);

[[nodiscard]] glitchmask::eval::CampaignRunOptions run_options(const Job& job);

// ----- output checks ------------------------------------------------------

/// Goldens: label -> (metric name -> value) for one workload.
using Goldens = std::map<std::string, std::map<std::string, double>>;
[[nodiscard]] Goldens load_goldens(const std::string& path,
                                   const std::string& workload);

/// Checks every terminal outcome: complete, the paper's verdict,
/// bit-identical to the first outcome seen for the same label, and equal
/// to the goldens when the run uses the default seed.
class OutputCheck {
public:
    OutputCheck(std::string workload, Goldens goldens, bool print_goldens);

    /// Returns false (and says why on stderr) on any mismatch.
    bool check(const Job& job, const CampaignOutcome& outcome);

private:
    std::string workload_;
    Goldens goldens_;
    bool print_goldens_;
    std::map<std::string, std::vector<std::pair<std::string, double>>> first_;
};

// ----- runs ---------------------------------------------------------------

/// Below this many jobs p90 has fewer than ten samples beyond it, so a run
/// keeps going past --seconds until it has them, for at most kMaxMeasureS.
inline constexpr std::size_t kMinJobs = 100;
inline constexpr double kMaxMeasureS = 140.0;

/// Fresh set-ups of the traced run; set-up layer times are their medians.
inline constexpr int kSetupReps = 100;
/// Fresh set-ups an untraced run makes before each timed pass.  setup_s
/// is their median, so it samples the host over the whole run rather
/// than over the fraction of a second that 100 set-ups in a row take.
inline constexpr int kSetupsPerPass = 4;

/// One fresh set-up of a workload's campaign stack: build its circuits,
/// annotate their delays, compile their replay programs (program cache
/// cleared) and start a one-executor CampaignService.  Each step runs in
/// a span named after its layer (inert when tracing is off).
struct SetupTimes {
    double circuit_ms = 0.0;
    double delay_ms = 0.0;
    double compile_ms = 0.0;
    double service_ms = 0.0;
};
SetupTimes setup_once(const std::string& workload);

/// Appends the totals of kSetupsPerPass fresh set-ups, in seconds.
void sample_setups(const std::string& workload, std::vector<double>& out);

/// Untraced end-to-end runs.
[[nodiscard]] RunResult run_direct(const RunOptions& options,
                                   OutputCheck& check);
[[nodiscard]] RunResult run_service_mix(const RunOptions& options,
                                        OutputCheck& check);

/// One closed-loop round of a script through a fresh CampaignService.
/// Timings on the process CPU clock (see pin_to_one_cpu) unless noted.
struct JobRecord {
    std::size_t job = 0;
    glitchmask::service::JobStatus status;
    bool accepted = false;
    double latency_ms = 0.0;     // line received -> result line encoded
    double submit_us = 0.0;      // CampaignService::submit call
    double protocol_us = 0.0;    // parse_client_command + encode_result
    std::uint64_t begin_ns = 0;  // wall, telemetry::steady_now_ns() base
    std::uint64_t end_ns = 0;
};
struct RoundResult {
    double wall_s = 0.0;         // wall time less the pinned CPU's steal
    double cpu_s = 0.0;
    std::size_t executed_traces = 0;
    std::vector<JobRecord> records;
    glitchmask::service::CampaignService::Stats stats;
};
[[nodiscard]] RoundResult run_round(const MixScript& script,
                                    const std::string& trace_dir = {});
/// Checks a round's records; returns the number of failed jobs.
std::size_t check_round(const MixScript& script, const RoundResult& round,
                        OutputCheck& check);

/// The traced run: per-layer metrics plus the replay-consistency check.
[[nodiscard]] RunResult run_layers(const RunOptions& options,
                                   OutputCheck& check);

}  // namespace perfbench
