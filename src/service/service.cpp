#include "service/service.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <unordered_set>

#include "obs/ledger.hpp"
#include "support/atomic_file.hpp"
#include "support/campaign_error.hpp"
#include "support/fault.hpp"
#include "support/log.hpp"
#include "support/runenv.hpp"
#include "support/telemetry.hpp"

namespace glitchmask::service {

namespace {

std::uint64_t now_ns() noexcept { return telemetry::steady_now_ns(); }

void count(telemetry::Counter counter) {
    if (telemetry::enabled()) telemetry::shard().add(counter);
}

}  // namespace

const char* job_state_name(JobState state) noexcept {
    switch (state) {
        case JobState::Queued: return "queued";
        case JobState::Running: return "running";
        case JobState::Completed: return "completed";
        case JobState::Failed: return "failed";
        case JobState::Cancelled: return "cancelled";
        case JobState::TimedOut: return "timed_out";
    }
    return "unknown";
}

CampaignService::CampaignService(ServiceConfig config)
    : config_(std::move(config)) {
    const unsigned executors = std::max(1u, config_.executors);
    executors_.reserve(executors);
    for (unsigned i = 0; i < executors; ++i)
        executors_.emplace_back([this] { executor_loop(); });
    if (config_.watchdog_timeout_sec > 0.0)
        watchdog_ = std::thread([this] { watchdog_loop(); });
}

CampaignService::~CampaignService() { shutdown(/*cancel_running=*/true); }

void CampaignService::set_progress_hook(ProgressHook hook) {
    progress_hook_ = std::move(hook);
}

void CampaignService::set_completion_hook(CompletionHook hook) {
    completion_hook_ = std::move(hook);
}

CampaignService::SubmitResult CampaignService::submit(
    const CampaignRequest& request) {
    const eval::CampaignFingerprint fingerprint = request_fingerprint(request);
    std::string key = fingerprint_hex(fingerprint);
    const bool tracing = trace::enabled();

    JobStatus completed_now;
    bool notify_completion = false;
    std::vector<trace::Span> hit_trace;
    std::uint64_t hit_job_id = 0;
    SubmitResult result;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (draining_ || stop_) {
            result.kind = SubmitResult::Kind::Draining;
            return result;
        }
        stats_.submitted++;

        // Cache hit: the campaign already ran to completion under this
        // identity; answer without simulating.
        const bool timed = telemetry::enabled() || tracing;
        const std::uint64_t scan_begin = timed ? now_ns() : 0;
        const auto hit = std::find_if(
            cache_.begin(), cache_.end(),
            [&](const CacheEntry& entry) { return entry.key == key; });
        const std::uint64_t scan_end = timed ? now_ns() : 0;
        if (hit != cache_.end()) {
            CacheEntry entry = std::move(*hit);
            cache_.erase(hit);
            cache_.push_front(entry);
            auto job = std::make_shared<Job>();
            job->id = next_id_++;
            job->request = request;
            job->fingerprint = fingerprint;
            job->fingerprint_key = std::move(key);
            job->state = JobState::Completed;
            job->outcome = cache_.front().outcome;
            job->cached = true;
            jobs_[job->id] = job;
            retire_job_locked(job);
            stats_.cache_hits++;
            stats_.completed++;
            count(telemetry::Counter::kServiceCacheHits);
            // A cache hit still gets a (tiny) trace tree: one root with
            // the lookup as its only child.
            if (tracing) job->trace_root = trace::new_span_id();
            telemetry::record_interval(telemetry::Histogram::kCacheLookupNanos,
                                       scan_begin, scan_end, job->trace_root);
            if (tracing) {
                trace::record_span(
                    job->trace_root, "job", 0, scan_begin, scan_end,
                    {{"job", std::to_string(job->id)},
                     {"kind", campaign_kind_name(job->request.kind)},
                     {"fingerprint", job->fingerprint_key},
                     {"state", "completed"},
                     {"cached", "1"}});
                hit_trace = harvest_job_trace(job->trace_root);
                job->spans = trace::summarize_spans(hit_trace);
                hit_job_id = job->id;
            }
            result.job_id = job->id;
            completed_now = snapshot_locked(*job);
            notify_completion = true;
            done_cv_.notify_all();
        } else {
            stats_.cache_misses++;
            // A miss has no job tree yet to hang a span on.
            telemetry::observe(telemetry::Histogram::kCacheLookupNanos,
                               scan_end - scan_begin);
        }

        if (!notify_completion) {
            // Coalesce onto an identical queued/running job: one run
            // answers both (equal fingerprints => bit-identical results).
            JobPtr primary;
            for (const auto& [id, job] : active_) {
                if (job->fingerprint_key == key && !job->coalesced) {
                    primary = job;
                    break;
                }
            }
            if (primary) {
                auto job = std::make_shared<Job>();
                job->id = next_id_++;
                job->request = request;
                job->fingerprint = fingerprint;
                job->fingerprint_key = std::move(key);
                job->coalesced = true;
                jobs_[job->id] = job;
                active_[job->id] = job;
                primary->followers.push_back(job);
                result.job_id = job->id;
            } else if (queue_.size() >= config_.queue_capacity) {
                // Explicit backpressure: the client is told, nothing is
                // dropped on the floor.
                stats_.rejected_overloaded++;
                result.kind = SubmitResult::Kind::Overloaded;
                return result;
            } else {
                auto job = std::make_shared<Job>();
                job->id = next_id_++;
                job->request = request;
                job->fingerprint = fingerprint;
                job->fingerprint_key = std::move(key);
                job->submit_ns = now_ns();
                if (tracing) job->trace_root = trace::new_span_id();
                jobs_[job->id] = job;
                active_[job->id] = job;
                queue_.push_back(job);
                stats_.queue_peak = std::max(stats_.queue_peak, queue_.size());
                telemetry::set_gauge(telemetry::Gauge::kServiceQueueDepth,
                                     queue_.size());
                result.job_id = job->id;
                work_cv_.notify_one();
            }
        }
    }
    if (!hit_trace.empty() && !config_.trace_dir.empty()) {
        try {
            trace::write_chrome_trace(trace_path(hit_job_id), hit_trace);
        } catch (const CampaignError& error) {
            log::warn(std::string("service: cannot write job trace: ") +
                      error.what());
        }
    }
    if (notify_completion && completion_hook_) completion_hook_(completed_now);
    return result;
}

bool CampaignService::cancel(std::uint64_t job_id) {
    JobStatus terminal;
    bool notify = false;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        const auto it = jobs_.find(job_id);
        if (it == jobs_.end() || job_state_terminal(it->second->state))
            return false;
        const JobPtr job = it->second;
        if (job->state == JobState::Running) {
            job->cancel.request();
            return true;
        }
        // Queued: remove from the queue (or its primary's followers) and
        // terminate immediately.
        std::erase(queue_, job);
        for (auto& [id, other] : active_)
            std::erase(other->followers, job);
        // A queued primary may carry coalesced followers; they asked for
        // the campaign, not the cancellation, so promote the first to a
        // real queued job (it inherits the cancelled job's queue slot and
        // the remaining followers) instead of stranding them.
        if (!job->followers.empty()) {
            const JobPtr heir = job->followers.front();
            heir->coalesced = false;
            heir->followers.assign(job->followers.begin() + 1,
                                   job->followers.end());
            job->followers.clear();
            heir->submit_ns = now_ns();
            if (trace::enabled()) heir->trace_root = trace::new_span_id();
            queue_.push_back(heir);
            work_cv_.notify_one();
        }
        telemetry::set_gauge(telemetry::Gauge::kServiceQueueDepth,
                             queue_.size());
        job->state = JobState::Cancelled;
        retire_job_locked(job);
        stats_.cancelled++;
        terminal = snapshot_locked(*job);
        notify = true;
        done_cv_.notify_all();
    }
    if (notify && completion_hook_) completion_hook_(terminal);
    return true;
}

std::optional<JobStatus> CampaignService::status(std::uint64_t job_id) const {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto it = jobs_.find(job_id);
    if (it == jobs_.end()) return std::nullopt;
    return snapshot_locked(*it->second);
}

std::optional<JobStatus> CampaignService::wait(std::uint64_t job_id) {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto it = jobs_.find(job_id);
    if (it == jobs_.end()) return std::nullopt;
    const JobPtr job = it->second;
    done_cv_.wait(lock, [&] { return job_state_terminal(job->state); });
    return snapshot_locked(*job);
}

void CampaignService::wait_idle() {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] {
        return queue_.empty() && running_ == 0 && notifying_ == 0;
    });
}

void CampaignService::shutdown(bool cancel_running) {
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (stop_) return;
        draining_ = true;
        stop_ = true;
        if (cancel_running) {
            for (auto& [id, job] : jobs_) {
                if (job->state != JobState::Running) continue;
                job->shutdown_cancelled.store(true, std::memory_order_relaxed);
                job->cancel.request();
            }
        }
        work_cv_.notify_all();
        watchdog_cv_.notify_all();
    }
    for (std::thread& executor : executors_) executor.join();
    executors_.clear();
    if (watchdog_.joinable()) watchdog_.join();
    std::unique_lock<std::mutex> lock(mutex_);
    write_state_locked();
}

std::size_t CampaignService::load_state() {
    if (config_.state_path.empty()) return 0;
    std::optional<std::vector<std::uint8_t>> bytes;
    try {
        bytes = read_file_if_exists(config_.state_path);
    } catch (const CampaignError& error) {
        log::warn(std::string("service: cannot read state file: ") +
                  error.what());
        return 0;
    }
    if (!bytes) return 0;
    std::size_t accepted = 0;
    try {
        const eval::JsonValue state = eval::parse_json(std::string_view(
            reinterpret_cast<const char*>(bytes->data()), bytes->size()));
        const eval::JsonValue* requests = state.find("requests");
        if (requests == nullptr ||
            requests->kind != eval::JsonValue::Kind::kArray)
            throw std::runtime_error("state file: missing 'requests' array");
        for (const eval::JsonValue& entry : requests->array) {
            const CampaignRequest request = decode_request(entry);
            if (submit(request).kind == SubmitResult::Kind::Accepted)
                ++accepted;
            else
                log::warn("service: state-file request not re-admitted "
                          "(queue full or draining)");
        }
    } catch (const std::exception& error) {
        log::warn(std::string("service: discarding unreadable state file: ") +
                  error.what());
    }
    std::remove(config_.state_path.c_str());
    return accepted;
}

CampaignService::Stats CampaignService::stats() const {
    std::unique_lock<std::mutex> lock(mutex_);
    Stats stats = stats_;
    stats.queued_now = queue_.size();
    stats.running_now = running_;
    return stats;
}

CampaignService::MetricsInfo CampaignService::metrics_info() const {
    MetricsInfo info;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        info.stats = stats_;
        info.stats.queued_now = queue_.size();
        info.stats.running_now = running_;
        info.cache_entries = cache_.size();
        const std::uint64_t lookups =
            stats_.cache_hits + stats_.cache_misses;
        if (lookups > 0)
            info.cache_hit_rate =
                static_cast<double>(stats_.cache_hits) /
                static_cast<double>(lookups);
        telemetry::set_gauge(telemetry::Gauge::kServiceQueueDepth,
                             queue_.size());
        telemetry::set_gauge(telemetry::Gauge::kServiceRunningJobs, running_);
        telemetry::set_gauge(telemetry::Gauge::kServiceCacheEntries,
                             cache_.size());
    }
    if (!config_.spool_dir.empty()) {
        // Best-effort walk: the spool may be concurrently mutated or
        // missing; either just reads as fewer bytes.
        std::error_code ec;
        std::filesystem::directory_iterator it(config_.spool_dir, ec);
        if (!ec) {
            for (const auto& entry : it) {
                std::error_code size_ec;
                const auto size = entry.file_size(size_ec);
                if (!size_ec) info.spool_bytes += size;
            }
        }
    }
    telemetry::set_gauge(telemetry::Gauge::kServiceSpoolBytes,
                         info.spool_bytes);
    return info;
}

std::vector<trace::Span> CampaignService::harvest_job_trace(
    trace::SpanId root) {
    const std::lock_guard<std::mutex> lock(trace_mutex_);
    {
        std::vector<trace::Span> drained = trace::take_spans();
        trace_pending_.insert(trace_pending_.end(),
                              std::make_move_iterator(drained.begin()),
                              std::make_move_iterator(drained.end()));
    }
    // Transitive membership: grow the id set from the root until no span
    // joins -- buffered spans arrive in no particular order, so one pass
    // is not enough.
    std::unordered_set<trace::SpanId> tree{root};
    bool grew = true;
    while (grew) {
        grew = false;
        for (const trace::Span& span : trace_pending_) {
            if (span.id == 0 || tree.count(span.id) != 0) continue;
            if (tree.count(span.parent) != 0) {
                tree.insert(span.id);
                grew = true;
            }
        }
    }
    std::vector<trace::Span> mine;
    std::vector<trace::Span> rest;
    rest.reserve(trace_pending_.size());
    for (trace::Span& span : trace_pending_) {
        (tree.count(span.id) != 0 ? mine : rest).push_back(std::move(span));
    }
    trace_pending_ = std::move(rest);
    // Spans that never resolve to a harvested tree (a job that died before
    // recording its root) must not accumulate forever: drop the oldest.
    constexpr std::size_t kMaxPending = std::size_t{1} << 16;
    if (trace_pending_.size() > kMaxPending)
        trace_pending_.erase(
            trace_pending_.begin(),
            trace_pending_.end() -
                static_cast<std::ptrdiff_t>(kMaxPending));
    std::stable_sort(mine.begin(), mine.end(),
                     [](const trace::Span& a, const trace::Span& b) {
                         return a.begin_ns != b.begin_ns
                                    ? a.begin_ns < b.begin_ns
                                    : a.id < b.id;
                     });
    return mine;
}

CampaignService::JobPtr CampaignService::pop_next_locked() {
    // Highest priority first, FIFO within a priority; the queue is
    // capacity-bounded, so the linear scan is cheap.
    auto best = queue_.begin();
    for (auto it = std::next(queue_.begin()); it != queue_.end(); ++it)
        if ((*it)->request.priority > (*best)->request.priority) best = it;
    JobPtr job = *best;
    queue_.erase(best);
    return job;
}

void CampaignService::retire_job_locked(const JobPtr& job) {
    // The job just reached a terminal state: out of the active index, into
    // the bounded terminal history.  Waiters holding the JobPtr still see
    // the terminal snapshot even after eviction; only id lookups age out.
    active_.erase(job->id);
    terminal_order_.push_back(job->id);
    if (config_.history_capacity == 0) return;
    while (terminal_order_.size() > config_.history_capacity) {
        bool evicted = false;
        for (auto it = terminal_order_.begin(); it != terminal_order_.end();
             ++it) {
            const auto jt = jobs_.find(*it);
            // Jobs cancelled by shutdown() must survive until
            // write_state_locked() has persisted their requests.
            if (jt != jobs_.end() &&
                jt->second->shutdown_cancelled.load(std::memory_order_relaxed))
                continue;
            if (jt != jobs_.end()) jobs_.erase(jt);
            terminal_order_.erase(it);
            evicted = true;
            break;
        }
        if (!evicted) break;
    }
}

JobStatus CampaignService::snapshot_locked(const Job& job) const {
    JobStatus status;
    status.id = job.id;
    status.state = job.state;
    status.request = job.request;
    status.outcome = job.outcome;
    status.fingerprint_key = job.fingerprint_key;
    status.cached = job.cached;
    status.coalesced = job.coalesced;
    status.error_kind = job.error_kind;
    status.error_message = job.error_message;
    status.spans = job.spans;
    return status;
}

std::string CampaignService::spool_path(const Job& job) const {
    return config_.spool_dir + "/" + job.fingerprint_key + ".gmsnap";
}

std::string CampaignService::trace_path(std::uint64_t job_id) const {
    return config_.trace_dir + "/job-" + std::to_string(job_id) +
           ".trace.json";
}

void CampaignService::executor_loop() {
    for (;;) {
        JobPtr job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
            if (stop_) return;  // queued jobs are persisted, not run
            job = pop_next_locked();
            job->state = JobState::Running;
            job->start_ns = now_ns();
            running_++;
            telemetry::set_gauge(telemetry::Gauge::kServiceQueueDepth,
                                 queue_.size());
            telemetry::set_gauge(telemetry::Gauge::kServiceRunningJobs,
                                 running_);
        }
        run_job(job);
    }
}

void CampaignService::run_job(const JobPtr& job) {
    // Every log line this executor emits while the job runs carries its
    // identity, so interleaved multi-executor stderr stays attributable.
    const ScopedLogContext log_context(
        "job " + std::to_string(job->id) + " fp=" +
        job->fingerprint_key.substr(0, 8));
    const bool tracing = trace::enabled() && job->trace_root != 0;
    // Queue wait began on the submitter's thread and ended at pickup:
    // recorded retrospectively under the job's root.
    const bool queued = job->submit_ns != 0 && job->start_ns >= job->submit_ns;
    if (queued)
        telemetry::record_interval(telemetry::Histogram::kQueueWaitNanos,
                                   job->submit_ns, job->start_ns,
                                   job->trace_root);

    JobState state = JobState::Completed;
    bool started = true;
    // Control-flow fault site: a plan can kill, stall, or oom the
    // executor right at job start (the chaos tests' worker-death lever).
    try {
        fault::inject_point("service.worker");
    } catch (const std::bad_alloc&) {
        job->error_kind = "error";
        job->error_message = "allocation failure starting job";
        state = JobState::Failed;
        started = false;
    }

    std::uint64_t exec_begin = 0;
    std::uint64_t exec_end = 0;
    if (started) {
        eval::CampaignRunOptions run;
        if (!config_.spool_dir.empty()) run.checkpoint_path = spool_path(*job);
        run.cancel = &job->cancel;
        // A daemon must outlive full disks and stray corruption: keep the
        // campaign running on the in-memory frontier, quarantine bad
        // snapshots.  Both decisions are warned and flagged in the outcome.
        run.degrade_on_io_error = true;
        run.discard_corrupt_snapshot = true;
        run.on_degraded = [job](const char* what, const std::string& detail) {
            log::warn("service: job " + std::to_string(job->id) + " " + what +
                      ": " + detail);
        };
        job->last_activity_ns.store(now_ns(), std::memory_order_relaxed);
        run.on_progress = [this,
                           job](const telemetry::ProgressUpdate& update) {
            job->last_activity_ns.store(now_ns(), std::memory_order_relaxed);
            if (progress_hook_) progress_hook_(job->id, update);
        };

        // The execute span's id goes out before the run, so the
        // campaign's block and checkpoint spans nest under it.
        const trace::SpanId exec_span =
            trace::enabled() ? trace::new_span_id() : 0;
        run.trace_parent = exec_span;
        try {
            exec_begin = now_ns();
            job->outcome = run_campaign_request(job->request, std::move(run));
            exec_end = now_ns();
            if (job->outcome.cancelled)
                state = job->watchdog_fired.load(std::memory_order_relaxed)
                            ? JobState::TimedOut
                            : JobState::Cancelled;
        } catch (const CampaignError& error) {
            exec_end = now_ns();
            job->error_kind = campaign_error_kind_name(error.kind());
            job->error_message = error.what();
            state = JobState::Failed;
        } catch (const std::exception& error) {
            exec_end = now_ns();
            job->error_kind = "error";
            job->error_message = error.what();
            state = JobState::Failed;
        }
        telemetry::record_interval(telemetry::Histogram::kExecuteNanos,
                                   exec_begin, exec_end, job->trace_root,
                                   {{"job", std::to_string(job->id)}},
                                   exec_span);
        // Deterministic family: completed trace counts are a pure
        // function of the workload, so this histogram is bit-identical at
        // any executor count.
        if (state == JobState::Completed)
            telemetry::observe(
                telemetry::Histogram::kJobTraces,
                static_cast<std::uint64_t>(job->outcome.completed_traces));
    }

    std::vector<trace::SpanSummary> spans;
    if (tracing) {
        trace::record_span(
            job->trace_root, "job", 0,
            job->submit_ns != 0 ? job->submit_ns : job->start_ns, now_ns(),
            {{"job", std::to_string(job->id)},
             {"kind", campaign_kind_name(job->request.kind)},
             {"fingerprint", job->fingerprint_key},
             {"state", job_state_name(state)}});
        const std::vector<trace::Span> tree =
            harvest_job_trace(job->trace_root);
        spans = trace::summarize_spans(tree);
        if (!config_.trace_dir.empty()) {
            try {
                trace::write_chrome_trace(trace_path(job->id), tree);
            } catch (const CampaignError& error) {
                log::warn(std::string("service: cannot write job trace: ") +
                          error.what());
            }
        }
    } else {
        // Tracing off: a two-entry rollup from the timestamps the service
        // tracks anyway, so clients following a job always see *some*
        // latency breakdown.  Name-sorted like summarize_spans.
        if (exec_end >= exec_begin && exec_begin != 0)
            spans.push_back({"execute", 1, exec_end - exec_begin});
        if (queued)
            spans.push_back(
                {"queue_wait", 1, job->start_ns - job->submit_ns});
    }
    finish_job(job, state, std::move(spans));

    // Cross-run ledger: one entry per executed job (after finish_job so a
    // slow append never delays waiters).  Best-effort -- history must not
    // fail jobs.
    if (!config_.ledger_path.empty() && started) {
        obs::LedgerEntry entry;
        entry.source = "service";
        entry.campaign = campaign_kind_name(job->request.kind);
        entry.fingerprint = job->fingerprint;
        entry.revision = git_revision();
        entry.host = host_name();
        entry.utc = utc_timestamp();
        entry.status = job_state_name(state);
        entry.workers = job->request.workers;
        entry.lanes = job->request.lanes;
        entry.wall_seconds =
            static_cast<double>(exec_end - exec_begin) * 1e-9;
        for (const auto& [name, value] : job->outcome.metrics) {
            if (name == "max_abs_t_order1") entry.max_abs_t1 = value;
            if (name == "toggles" && value >= 0.0)
                entry.toggles = static_cast<std::uint64_t>(value);
            entry.metrics.emplace_back(name, value);
        }
        try {
            obs::append_ledger(config_.ledger_path, entry);
        } catch (const std::exception& error) {
            log::warn(std::string("service: cannot append ledger: ") +
                      error.what());
        }
    }
}

void CampaignService::finish_job(const JobPtr& job, JobState state,
                                 std::vector<trace::SpanSummary> spans) {
    std::vector<JobStatus> to_notify;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        job->state = state;
        job->spans = std::move(spans);
        running_--;
        telemetry::set_gauge(telemetry::Gauge::kServiceRunningJobs, running_);
        switch (state) {
            case JobState::Completed:
                stats_.executed++;
                stats_.completed++;
                count(telemetry::Counter::kServiceJobs);
                if (config_.cache_capacity > 0) {
                    cache_.push_front(
                        CacheEntry{job->fingerprint_key, job->outcome});
                    while (cache_.size() > config_.cache_capacity)
                        cache_.pop_back();
                    telemetry::set_gauge(
                        telemetry::Gauge::kServiceCacheEntries,
                        cache_.size());
                }
                // The result is in the cache; the spool snapshot has done
                // its job and would only grow the spool unboundedly.
                if (!config_.spool_dir.empty())
                    std::remove(spool_path(*job).c_str());
                break;
            case JobState::Failed: stats_.failed++; break;
            case JobState::Cancelled: stats_.cancelled++; break;
            case JobState::TimedOut: stats_.timed_out++; break;
            default: break;
        }
        retire_job_locked(job);
        to_notify.push_back(snapshot_locked(*job));
        // Followers ride the primary's terminal state, outcome, and span
        // rollup (their latency *is* the primary's).
        for (const JobPtr& follower : job->followers) {
            follower->state = state;
            follower->outcome = job->outcome;
            follower->error_kind = job->error_kind;
            follower->error_message = job->error_message;
            follower->spans = job->spans;
            retire_job_locked(follower);
            stats_.coalesced++;
            if (state == JobState::Completed) stats_.completed++;
            to_notify.push_back(snapshot_locked(*follower));
        }
        job->followers.clear();
        if (completion_hook_) notifying_++;
        done_cv_.notify_all();
    }
    if (completion_hook_) {
        for (const JobStatus& status : to_notify) completion_hook_(status);
        std::unique_lock<std::mutex> lock(mutex_);
        notifying_--;
        done_cv_.notify_all();
    }
}

void CampaignService::watchdog_loop() {
    const auto timeout_ns = static_cast<std::uint64_t>(
        config_.watchdog_timeout_sec * 1e9);
    const auto poll = std::chrono::duration<double>(
        std::max(0.05, config_.watchdog_timeout_sec / 4.0));
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            if (watchdog_cv_.wait_for(lock, poll, [&] { return stop_; }))
                return;
            const std::uint64_t now = now_ns();
            for (auto& [id, job] : active_) {
                if (job->state != JobState::Running) continue;
                const std::uint64_t last =
                    job->last_activity_ns.load(std::memory_order_relaxed);
                if (last != 0 && now > last && now - last > timeout_ns &&
                    !job->watchdog_fired.exchange(true,
                                                  std::memory_order_relaxed)) {
                    // How stale the job had gone before the watchdog
                    // caught it (>= the configured timeout by design).
                    if (telemetry::enabled())
                        telemetry::observe(
                            telemetry::Histogram::kWatchdogFireNanos,
                            now - last);
                    log::warn("service: watchdog cancelling wedged job " +
                              std::to_string(id));
                    job->cancel.request();
                }
            }
        }
    }
}

void CampaignService::write_state_locked() {
    if (config_.state_path.empty()) return;
    // Everything that did not finish -- still queued, or cancelled out of
    // a running state by this shutdown -- is persisted for the next
    // incarnation; their spool snapshots make the replay a resume.
    std::vector<const CampaignRequest*> unfinished;
    for (const JobPtr& job : queue_) unfinished.push_back(&job->request);
    for (const auto& [id, job] : jobs_)
        if (job->state == JobState::Cancelled &&
            job->shutdown_cancelled.load(std::memory_order_relaxed) &&
            !job->coalesced)
            unfinished.push_back(&job->request);
    if (unfinished.empty()) {
        std::remove(config_.state_path.c_str());
        return;
    }
    std::string text = "{\"version\":1,\"requests\":[";
    for (std::size_t i = 0; i < unfinished.size(); ++i) {
        if (i != 0) text += ',';
        text += encode_request(*unfinished[i]);
    }
    text += "]}\n";
    try {
        atomic_write_file(config_.state_path,
                          std::span<const std::uint8_t>(
                              reinterpret_cast<const std::uint8_t*>(
                                  text.data()),
                              text.size()));
    } catch (const CampaignError& error) {
        log::error(std::string("service: cannot write state file: ") +
                   error.what());
    }
}

}  // namespace glitchmask::service
