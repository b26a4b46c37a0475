// The campaign service: a long-running scheduler that turns
// CampaignRequests into campaign runs on a bounded executor pool, with
// result caching, request coalescing, watchdog supervision, and
// drain/restart semantics.
//
// Design centre -- everything the daemon promises lives here, transport-
// free, so tests drive it in-process:
//
//   * Bounded admission.  At most queue_capacity jobs wait; a submit
//     beyond that is rejected *explicitly* (SubmitResult::Overloaded) --
//     backpressure is the client's signal to slow down, never a silent
//     drop.  Queued jobs run highest-priority first, FIFO within a
//     priority.  Terminal jobs stay queryable through a bounded history
//     (history_capacity), so a long-running daemon's job table cannot
//     grow without bound.
//   * Dedupe by campaign identity.  The request fingerprint (the same
//     identity checkpoints are stamped with) keys an LRU result cache; a
//     resubmit of a completed campaign answers from the cache without
//     simulating, and a submit equal to a queued/running job coalesces
//     onto it instead of running twice.  Determinism makes this sound:
//     equal fingerprints imply bit-identical results.
//   * Crash-safe by spool.  Each job checkpoints (when spool_dir is set)
//     to <spool>/<fingerprint-hex>.gmsnap, so a killed daemon resumes any
//     identical resubmission from the frontier; the snapshot is unlinked
//     once the result is safely in the cache.  Checkpoint ENOSPC degrades
//     to in-memory progress (warned, flagged) instead of failing the job;
//     a corrupt spool snapshot is quarantined and the job restarts clean.
//   * Watchdog.  A job that stops making progress (no trace completed
//     for watchdog_timeout_sec) is cancelled cooperatively: in-flight
//     blocks finish, a final checkpoint is written, the job reports
//     TimedOut with its partial trace count and stays resumable.
//   * Drain.  shutdown(drain) stops admission, optionally cancels the
//     running jobs (which checkpoint), and persists every unfinished
//     request to state_path; a restarted service resubmits them
//     (load_state) and their spool snapshots make the replay cheap.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "service/campaign_request.hpp"
#include "support/cancel.hpp"
#include "support/telemetry_types.hpp"
#include "support/trace.hpp"

namespace glitchmask::service {

struct ServiceConfig {
    unsigned executors = 1;        // concurrent campaign runs
    std::size_t queue_capacity = 16;
    std::size_t cache_capacity = 64;    // LRU entries; 0 disables caching
    /// Terminal jobs kept queryable via status()/wait(); older ones are
    /// evicted (oldest-terminal first) so a long-running daemon's job
    /// table stays bounded.  0 = keep everything (tests, short runs).
    std::size_t history_capacity = 256;
    double watchdog_timeout_sec = 0.0;  // 0 = watchdog off
    std::string spool_dir;   // checkpoint spool; empty = no checkpoints
    std::string state_path;  // drain state file; empty = none
    /// Per-job Chrome-trace export directory: each terminal job writes
    /// <trace_dir>/job-<id>.trace.json when trace collection is on.
    /// Empty = no files (span summaries still ride the job status).
    std::string trace_dir;
    /// Cross-run results ledger (obs/ledger.hpp): every *executed*
    /// primary job reaching a terminal state appends one entry here,
    /// stamped with this host/revision/UTC.  Cache hits and coalesced
    /// followers are deliberately not appended -- they did not re-run
    /// the campaign, and their near-zero wall times would poison the
    /// perf history the regression radar judges.  Empty = no ledger.
    std::string ledger_path;
};

enum class JobState {
    Queued,
    Running,
    Completed,
    Failed,
    Cancelled,
    TimedOut,
};

[[nodiscard]] const char* job_state_name(JobState state) noexcept;
[[nodiscard]] constexpr bool job_state_terminal(JobState state) noexcept {
    return state != JobState::Queued && state != JobState::Running;
}

/// Point-in-time view of one job (value copy; safe to hold).
struct JobStatus {
    std::uint64_t id = 0;
    JobState state = JobState::Queued;
    CampaignRequest request;
    CampaignOutcome outcome;       // valid in terminal states except Failed
    /// Hex request fingerprint (the cache/spool identity) -- known from
    /// submit time, unlike outcome.fingerprint which only exists once a
    /// campaign has run.
    std::string fingerprint_key;
    bool cached = false;           // served from the result cache
    bool coalesced = false;        // rode on an identical in-flight job
    std::string error_kind;        // Failed: campaign_error_kind_name / "error"
    std::string error_message;
    /// Per-name span rollup of this job's trace (queue_wait, execute,
    /// block, sim, ...).  Populated in terminal states; always carries at
    /// least queue_wait + execute for executed jobs, the full tree when
    /// trace collection is on.
    std::vector<trace::SpanSummary> spans;
};

class CampaignService {
public:
    struct SubmitResult {
        enum class Kind { Accepted, Overloaded, Draining };
        Kind kind = Kind::Accepted;
        std::uint64_t job_id = 0;  // valid when accepted
    };

    /// Progress observer: (job id, update).  Called from executor threads
    /// at the meter's rate limit; must not block.
    using ProgressHook =
        std::function<void(std::uint64_t, const telemetry::ProgressUpdate&)>;
    /// Completion observer: called from executor threads once per job
    /// reaching a terminal state (including coalesced followers).
    using CompletionHook = std::function<void(const JobStatus&)>;

    explicit CampaignService(ServiceConfig config);
    ~CampaignService();

    CampaignService(const CampaignService&) = delete;
    CampaignService& operator=(const CampaignService&) = delete;

    /// Install before the first submit; not thread-safe against running
    /// jobs.
    void set_progress_hook(ProgressHook hook);
    void set_completion_hook(CompletionHook hook);

    [[nodiscard]] SubmitResult submit(const CampaignRequest& request);

    /// Requests cooperative cancellation of a queued or running job.
    /// Queued jobs terminate immediately; running jobs finish their
    /// in-flight blocks, checkpoint, and report Cancelled with a partial
    /// count.  False when the id is unknown or already terminal.
    bool cancel(std::uint64_t job_id);

    [[nodiscard]] std::optional<JobStatus> status(std::uint64_t job_id) const;

    /// Blocks until `job_id` reaches a terminal state (or returns nullopt
    /// for an unknown id).
    [[nodiscard]] std::optional<JobStatus> wait(std::uint64_t job_id);

    /// Blocks until no job is queued or running.
    void wait_idle();

    /// Stops admission, waits for the current jobs to finish (cancelling
    /// them first when `cancel_running`), writes every unfinished request
    /// to state_path, and joins the executors.  Idempotent.
    void shutdown(bool cancel_running);

    /// Resubmits the requests a previous shutdown persisted to
    /// state_path; returns how many were accepted.  Call before serving.
    std::size_t load_state();

    struct Stats {
        std::uint64_t submitted = 0;
        std::uint64_t executed = 0;       // ran a real campaign
        std::uint64_t completed = 0;      // reached Completed (any path:
                                          // executed, cached, coalesced)
        std::uint64_t cache_hits = 0;
        std::uint64_t cache_misses = 0;   // fingerprint lookups that missed
        std::uint64_t coalesced = 0;
        std::uint64_t rejected_overloaded = 0;
        std::uint64_t failed = 0;
        std::uint64_t cancelled = 0;
        std::uint64_t timed_out = 0;
        std::size_t queued_now = 0;
        std::size_t running_now = 0;
        std::size_t queue_peak = 0;       // high-water mark of queued_now
    };
    [[nodiscard]] Stats stats() const;

    /// Instantaneous service-health view for the metrics surface: the
    /// counters above plus derived cache/spool figures.  Also refreshes
    /// the service gauges (queue depth, running jobs, cache entries,
    /// spool bytes) so a snapshot taken right after is current.
    struct MetricsInfo {
        Stats stats;
        std::size_t cache_entries = 0;
        /// cache_hits / (cache_hits + cache_misses); 0 when no lookups.
        double cache_hit_rate = 0.0;
        /// Total bytes of spool checkpoints on disk (0 when no spool).
        std::uint64_t spool_bytes = 0;
    };
    [[nodiscard]] MetricsInfo metrics_info() const;

private:
    struct Job {
        std::uint64_t id = 0;
        CampaignRequest request;
        eval::CampaignFingerprint fingerprint{};
        std::string fingerprint_key;
        JobState state = JobState::Queued;
        CampaignOutcome outcome;
        bool cached = false;
        bool coalesced = false;
        std::string error_kind;
        std::string error_message;
        CancelToken cancel;
        std::atomic<bool> watchdog_fired{false};
        /// Cancelled by shutdown(), not by a client: persisted to the
        /// state file so the next incarnation resumes it.
        std::atomic<bool> shutdown_cancelled{false};
        std::atomic<std::uint64_t> last_activity_ns{0};
        /// Followers coalesced onto this job; completed with its result.
        std::vector<std::shared_ptr<Job>> followers;
        std::uint64_t submit_ns = 0;   // enqueue time (queue-wait origin)
        std::uint64_t start_ns = 0;    // executor pickup time
        /// Root span id of this job's trace tree (0 when tracing is off);
        /// allocated at submit so queue-wait is part of the tree.
        trace::SpanId trace_root = 0;
        /// Per-name rollup, set under mutex_ at terminal transition.
        std::vector<trace::SpanSummary> spans;
    };
    using JobPtr = std::shared_ptr<Job>;

    void executor_loop();
    void watchdog_loop();
    void run_job(const JobPtr& job);
    void finish_job(const JobPtr& job, JobState state,
                    std::vector<trace::SpanSummary> spans = {});
    /// Drains the global span buffer and extracts the spans whose parent
    /// chain reaches `root` (this job's tree); spans of other in-flight
    /// jobs stay pending for their own harvest.  Returns the job's spans.
    [[nodiscard]] std::vector<trace::Span> harvest_job_trace(
        trace::SpanId root);
    void retire_job_locked(const JobPtr& job);
    [[nodiscard]] JobPtr pop_next_locked();
    [[nodiscard]] JobStatus snapshot_locked(const Job& job) const;
    void write_state_locked();
    [[nodiscard]] std::string spool_path(const Job& job) const;
    [[nodiscard]] std::string trace_path(std::uint64_t job_id) const;

    ServiceConfig config_;
    ProgressHook progress_hook_;
    CompletionHook completion_hook_;

    mutable std::mutex mutex_;
    // The watchdog polls on its own variable: if it shared work_cv_, a
    // submit's notify_one could land on the watchdog instead of an
    // executor and the queued job would never be picked up (lost wakeup).
    std::condition_variable work_cv_;      // executors: queue / stop changes
    std::condition_variable watchdog_cv_;  // watchdog: stop only
    std::condition_variable done_cv_;      // waiters: job reached terminal
    bool draining_ = false;
    bool stop_ = false;
    std::uint64_t next_id_ = 1;
    std::deque<JobPtr> queue_;          // admission order; priority at pop
    /// Every job still queryable: the non-terminal ones plus a bounded
    /// history of terminal ones (config_.history_capacity).
    std::map<std::uint64_t, JobPtr> jobs_;
    /// Non-terminal subset of jobs_: the coalesce scan in submit() and
    /// the watchdog walk this instead of the whole history.
    std::map<std::uint64_t, JobPtr> active_;
    /// Terminal job ids in retirement order -- the eviction queue that
    /// keeps jobs_ bounded.
    std::deque<std::uint64_t> terminal_order_;
    std::size_t running_ = 0;
    /// Completion hooks still executing outside the lock.  wait_idle()
    /// counts these as live work: a caller must be able to destroy
    /// hook-captured state the moment wait_idle() returns.
    std::size_t notifying_ = 0;
    Stats stats_;

    /// LRU result cache: most-recently-used at the front.
    struct CacheEntry {
        std::string key;
        CampaignOutcome outcome;
    };
    std::deque<CacheEntry> cache_;

    /// Spans drained from the global buffer while harvesting one job's
    /// tree but belonging to a *different* in-flight job (executors share
    /// the buffer); kept until that job's harvest claims them.  Bounded:
    /// overflow drops the oldest.
    mutable std::mutex trace_mutex_;
    std::vector<trace::Span> trace_pending_;

    std::vector<std::thread> executors_;
    std::thread watchdog_;
};

}  // namespace glitchmask::service
