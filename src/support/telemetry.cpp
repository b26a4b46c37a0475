#include "support/telemetry.hpp"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <exception>
#include <mutex>
#include <vector>

#include "support/env.hpp"
#include "support/json.hpp"

namespace glitchmask::telemetry {

namespace {

std::int64_t steady_ns() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct CounterInfo {
    const char* name;
    MergeKind merge;
    bool deterministic;
};

constexpr CounterInfo kCounterInfo[kCounterCount] = {
    {"sim.events", MergeKind::kSum, true},
    {"sim.toggles", MergeKind::kSum, true},
    {"sim.glitches", MergeKind::kSum, true},
    {"sim.inertial_cancels", MergeKind::kSum, true},
    {"sim.queue_peak", MergeKind::kMax, true},
    {"pool.tasks_executed", MergeKind::kSum, false},
    {"pool.tasks_stolen", MergeKind::kSum, false},
    {"io.retries", MergeKind::kSum, false},
    {"service.jobs", MergeKind::kSum, false},
    {"service.cache_hits", MergeKind::kSum, false},
};

struct HistogramInfo {
    const char* name;
    bool deterministic;
    const char* span;  // record_interval's span name; nullptr = none
};

constexpr HistogramInfo kHistogramInfo[kHistogramCount] = {
    {"service.queue_wait_nanos", false, "queue_wait"},
    {"service.execute_nanos", false, "execute"},
    {"checkpoint.write_latency_nanos", false, "checkpoint"},
    {"service.cache_lookup_nanos", false, "cache_lookup"},
    {"io.retry_backoff_nanos", false, nullptr},
    {"service.watchdog_fire_nanos", false, nullptr},
    {"campaign.block_latency_nanos", false, "block"},
    {"campaign.block_traces", true, nullptr},
    {"service.job_traces", true, nullptr},
    {"phase.sim_nanos", false, "sim"},
    {"phase.noise_nanos", false, "noise"},
    {"phase.moments_nanos", false, "moments"},
    {"phase.attribution_nanos", false, "attribution"},
    {"pool.idle_nanos", false, nullptr},
};

constexpr const char* kGaugeNames[kGaugeCount] = {
    "service.queue_depth",
    "service.running_jobs",
    "service.cache_entries",
    "service.spool_bytes",
};

std::array<std::atomic<std::uint64_t>, kGaugeCount>& gauges() noexcept {
    static std::array<std::atomic<std::uint64_t>, kGaugeCount> instance{};
    return instance;
}

std::atomic<int> g_enabled{-1};  // -1 = resolve GLITCHMASK_TELEMETRY

/// Registry of live shards + totals of shards whose threads exited.
/// Shards are heap-owned by their thread-local handle; registration and
/// snapshotting share one mutex (shard *writes* never take it).
struct Registry {
    std::mutex mutex;
    std::vector<Shard*> live;
    std::array<std::uint64_t, kCounterCount> retired{};
    std::array<HistogramSnapshot, kHistogramCount> retired_histograms{};
};

Registry& registry() {
    static Registry instance;
    return instance;
}

void fold_into(std::array<std::uint64_t, kCounterCount>& into,
               const std::array<std::uint64_t, kCounterCount>& from) noexcept {
    for (std::size_t i = 0; i < kCounterCount; ++i) {
        if (kCounterInfo[i].merge == MergeKind::kMax) {
            if (from[i] > into[i]) into[i] = from[i];
        } else {
            into[i] += from[i];
        }
    }
}

void fold_histogram(HistogramSnapshot& into,
                    const HistogramSnapshot& from) noexcept {
    for (std::size_t b = 0; b < kHistogramBuckets; ++b)
        into.buckets[b] += from.buckets[b];
    into.count += from.count;
    into.sum += from.sum;
    if (from.max > into.max) into.max = from.max;
}

/// Thread-local shard owner: registers at first use, folds the totals
/// into the retired accumulator and deregisters when the thread exits.
struct ShardHandle {
    Shard shard;

    ShardHandle() {
        Registry& reg = registry();
        const std::lock_guard<std::mutex> lock(reg.mutex);
        reg.live.push_back(&shard);
    }

    ~ShardHandle() {
        Registry& reg = registry();
        const std::lock_guard<std::mutex> lock(reg.mutex);
        std::array<std::uint64_t, kCounterCount> totals{};
        for (std::size_t i = 0; i < kCounterCount; ++i)
            totals[i] = shard.load(i);
        fold_into(reg.retired, totals);
        for (std::size_t h = 0; h < kHistogramCount; ++h)
            fold_histogram(reg.retired_histograms[h], shard.load_histogram(h));
        std::erase(reg.live, &shard);
    }
};

std::atomic<double> g_heartbeat_override{0.0};

std::string format_duration(double seconds) {
    char buffer[64];
    if (seconds < 90.0) {
        std::snprintf(buffer, sizeof buffer, "%.0fs", seconds);
    } else if (seconds < 5400.0) {
        std::snprintf(buffer, sizeof buffer, "%dm%02ds",
                      static_cast<int>(seconds) / 60,
                      static_cast<int>(seconds) % 60);
    } else {
        const int hours = static_cast<int>(seconds / 3600.0);
        const int minutes = static_cast<int>((seconds - hours * 3600.0) / 60.0);
        std::snprintf(buffer, sizeof buffer, "%dh%02dm", hours, minutes);
    }
    return buffer;
}

}  // namespace

const char* counter_name(Counter counter) noexcept {
    return kCounterInfo[static_cast<std::size_t>(counter)].name;
}

MergeKind counter_merge(Counter counter) noexcept {
    return kCounterInfo[static_cast<std::size_t>(counter)].merge;
}

bool counter_deterministic(Counter counter) noexcept {
    return kCounterInfo[static_cast<std::size_t>(counter)].deterministic;
}

const char* histogram_name(Histogram histogram) noexcept {
    return kHistogramInfo[static_cast<std::size_t>(histogram)].name;
}

const char* histogram_span_name(Histogram histogram) noexcept {
    return kHistogramInfo[static_cast<std::size_t>(histogram)].span;
}

bool histogram_deterministic(Histogram histogram) noexcept {
    return kHistogramInfo[static_cast<std::size_t>(histogram)].deterministic;
}

const char* gauge_name(Gauge gauge) noexcept {
    return kGaugeNames[static_cast<std::size_t>(gauge)];
}

void set_gauge(Gauge gauge, std::uint64_t value) noexcept {
    gauges()[static_cast<std::size_t>(gauge)].store(
        value, std::memory_order_relaxed);
}

std::uint64_t gauge_value(Gauge gauge) noexcept {
    return gauges()[static_cast<std::size_t>(gauge)].load(
        std::memory_order_relaxed);
}

std::uint64_t steady_now_ns() noexcept {
    return static_cast<std::uint64_t>(steady_ns());
}

void record_interval(Histogram histogram, std::uint64_t begin_ns,
                     std::uint64_t end_ns, trace::SpanId parent,
                     trace::SpanAttrs attrs, trace::SpanId id) {
    if (enabled()) shard().observe(histogram, end_ns - begin_ns);
    const char* span = histogram_span_name(histogram);
    if (span != nullptr && trace::enabled())
        trace::record_span(id != 0 ? id : trace::new_span_id(), span, parent,
                           begin_ns, end_ns, std::move(attrs));
}

ScopedInterval::ScopedInterval(Histogram histogram, trace::SpanId parent)
    : histogram_(histogram), observe_(enabled()) {
    const bool traced =
        histogram_span_name(histogram) != nullptr && trace::enabled();
    timed_ = observe_ || traced;
    if (!timed_) return;
    exceptions_ = std::uncaught_exceptions();
    if (traced) {
        id_ = trace::new_span_id();
        parent_ = parent != 0 ? parent : trace::current_span();
        trace::push_ambient(id_);
    }
    begin_ns_ = steady_now_ns();
}

ScopedInterval::~ScopedInterval() {
    if (!timed_) return;
    const std::uint64_t end_ns = steady_now_ns();
    if (id_ != 0) trace::pop_ambient();
    if (observe_ && std::uncaught_exceptions() == exceptions_)
        shard().observe(histogram_, end_ns - begin_ns_);
    if (id_ != 0)
        trace::record_span(id_, histogram_span_name(histogram_), parent_,
                           begin_ns_, end_ns, std::move(attrs_));
}

void PhaseClock::flush() {
    if (!on_ || first_ == 0) return;
    const trace::SpanId parent = trace::current_span();
    std::uint64_t cursor = first_;
    for (std::size_t i = 0; i < kHistogramCount; ++i) {
        if (nanos_[i] == 0) continue;
        record_interval(static_cast<Histogram>(i), cursor, cursor + nanos_[i],
                        parent);
        cursor += nanos_[i];
    }
    nanos_.fill(0);
    first_ = 0;
}

bool enabled() noexcept {
    int state = g_enabled.load(std::memory_order_relaxed);
    if (state < 0) {
        state = env_int("GLITCHMASK_TELEMETRY", 0) != 0 ? 1 : 0;
        int expected = -1;
        g_enabled.compare_exchange_strong(expected, state,
                                          std::memory_order_relaxed);
        state = g_enabled.load(std::memory_order_relaxed);
    }
    return state != 0;
}

void set_enabled(bool on) noexcept {
    g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

Snapshot Snapshot::delta_since(const Snapshot& start) const noexcept {
    Snapshot delta;
    for (std::size_t i = 0; i < kCounterCount; ++i) {
        if (kCounterInfo[i].merge == MergeKind::kMax)
            delta.values[i] = values[i];  // high-water marks don't subtract
        else
            delta.values[i] =
                values[i] >= start.values[i] ? values[i] - start.values[i] : 0;
    }
    const auto sub = [](std::uint64_t end, std::uint64_t begin) {
        return end >= begin ? end - begin : 0;
    };
    for (std::size_t h = 0; h < kHistogramCount; ++h) {
        const HistogramSnapshot& end = histograms[h];
        const HistogramSnapshot& begin = start.histograms[h];
        HistogramSnapshot& out = delta.histograms[h];
        for (std::size_t b = 0; b < kHistogramBuckets; ++b)
            out.buckets[b] = sub(end.buckets[b], begin.buckets[b]);
        out.count = sub(end.count, begin.count);
        out.sum = sub(end.sum, begin.sum);
        out.max = end.max;  // maxima don't subtract either
    }
    delta.gauges = gauges;  // instantaneous values: keep the end reading
    return delta;
}

Shard& shard() {
    thread_local ShardHandle handle;
    return handle.shard;
}

Snapshot snapshot() {
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    Snapshot merged;
    merged.values = reg.retired;
    merged.histograms = reg.retired_histograms;
    for (const Shard* live : reg.live) {
        std::array<std::uint64_t, kCounterCount> totals{};
        for (std::size_t i = 0; i < kCounterCount; ++i)
            totals[i] = live->load(i);
        fold_into(merged.values, totals);
        for (std::size_t h = 0; h < kHistogramCount; ++h)
            fold_histogram(merged.histograms[h], live->load_histogram(h));
    }
    for (std::size_t g = 0; g < kGaugeCount; ++g)
        merged.gauges[g] = gauge_value(static_cast<Gauge>(g));
    return merged;
}

void reset() {
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    reg.retired.fill(0);
    reg.retired_histograms.fill(HistogramSnapshot{});
    for (Shard* live : reg.live) live->clear();
    for (auto& gauge : gauges()) gauge.store(0, std::memory_order_relaxed);
}

std::string render_prometheus_text(const Snapshot& snapshot) {
    std::string out;
    out.reserve(4096);
    const auto mangled = [](const char* name) {
        std::string full = "glitchmask_";
        for (const char* c = name; *c != '\0'; ++c)
            full += *c == '.' ? '_' : *c;
        return full;
    };
    for (std::size_t i = 0; i < kCounterCount; ++i) {
        const auto counter = static_cast<Counter>(i);
        const std::string name = mangled(counter_name(counter));
        // Max-merged counters are high-water marks, i.e. gauges.
        out += "# TYPE " + name +
               (counter_merge(counter) == MergeKind::kMax ? " gauge\n"
                                                          : " counter\n");
        out += name + ' ' + std::to_string(snapshot.values[i]) + '\n';
    }
    for (std::size_t h = 0; h < kHistogramCount; ++h) {
        const HistogramSnapshot& hist = snapshot.histograms[h];
        const std::string name =
            mangled(histogram_name(static_cast<Histogram>(h)));
        out += "# TYPE " + name + " histogram\n";
        std::size_t highest = 0;
        for (std::size_t b = 0; b < kHistogramBuckets; ++b)
            if (hist.buckets[b] != 0) highest = b;
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b <= highest; ++b) {
            cumulative += hist.buckets[b];
            // Bucket b spans [floor(b), floor(b + 1)), so its inclusive
            // upper bound is floor(b + 1) - 1; the last bucket tops out
            // at the u64 maximum.
            const std::uint64_t le =
                b == 0 ? 0
                : b + 1 >= kHistogramBuckets
                    ? ~std::uint64_t{0}
                    : histogram_bucket_floor(b + 1) - 1;
            out += name + "_bucket{le=\"" + std::to_string(le) + "\"} " +
                   std::to_string(cumulative) + '\n';
        }
        out += name + "_bucket{le=\"+Inf\"} " + std::to_string(hist.count) +
               '\n';
        out += name + "_sum " + std::to_string(hist.sum) + '\n';
        out += name + "_count " + std::to_string(hist.count) + '\n';
    }
    for (std::size_t g = 0; g < kGaugeCount; ++g) {
        const std::string name = mangled(gauge_name(static_cast<Gauge>(g)));
        out += "# TYPE " + name + " gauge\n";
        out += name + ' ' + std::to_string(snapshot.gauges[g]) + '\n';
    }
    return out;
}

void write_json(JsonWriter& w, const Snapshot& snapshot) {
    w.key("counters");
    w.begin_object();
    for (std::size_t i = 0; i < kCounterCount; ++i)
        if (snapshot.values[i] != 0)
            w.member(kCounterInfo[i].name, snapshot.values[i]);
    w.end_object();
    w.key("histograms");
    w.begin_object();
    for (std::size_t i = 0; i < kHistogramCount; ++i) {
        const HistogramSnapshot& h = snapshot.histograms[i];
        if (h.count == 0) continue;
        w.key(kHistogramInfo[i].name);
        w.begin_object();
        w.member("count", h.count);
        w.member("sum", h.sum);
        w.member("max", h.max);
        w.key("buckets");
        w.begin_array();
        for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
            if (h.buckets[b] == 0) continue;
            w.begin_array();
            w.value(histogram_bucket_floor(b));
            w.value(h.buckets[b]);
            w.end_array();
        }
        w.end_array();
        w.end_object();
    }
    w.end_object();
}

double process_cpu_seconds() noexcept {
    struct rusage usage = {};
    if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
    const auto seconds = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

void record_sim_block(const SimStats& now, SimStats& last) {
    Shard& s = shard();
    s.add(Counter::kSimEvents, now.events - last.events);
    s.add(Counter::kSimToggles, now.toggles - last.toggles);
    s.add(Counter::kSimGlitches, now.glitches - last.glitches);
    s.add(Counter::kSimInertialCancels,
          now.inertial_cancels - last.inertial_cancels);
    s.peak(Counter::kSimQueuePeak, now.queue_peak);
    last = now;
}

// ----- progress / ETA ----------------------------------------------------

void set_heartbeat_interval(double seconds) noexcept {
    g_heartbeat_override.store(seconds, std::memory_order_relaxed);
}

double heartbeat_interval() noexcept {
    const double override = g_heartbeat_override.load(std::memory_order_relaxed);
    if (override > 0.0) return override;
    return env_double("GLITCHMASK_PROGRESS", 0.0);
}

ProgressMeter::ProgressMeter(std::string campaign, std::size_t total_traces,
                             ProgressFn callback)
    : campaign_(std::move(campaign)),
      total_(total_traces),
      callback_(std::move(callback)),
      start_ns_(steady_ns()) {
    const double env_interval = heartbeat_interval();
    heartbeat_ = env_interval > 0.0;
    // Callback-only meters still rate-limit (default 0.5 s) so a cheap
    // campaign with thousands of blocks doesn't drown its observer.
    interval_sec_ = env_interval > 0.0 ? env_interval : 0.5;
}

bool ProgressMeter::active() const noexcept {
    return heartbeat_ || static_cast<bool>(callback_);
}

void ProgressMeter::note_resumed(std::size_t traces) {
    completed_.fetch_add(traces, std::memory_order_relaxed);
    resumed_.fetch_add(traces, std::memory_order_relaxed);
}

void ProgressMeter::advance(std::size_t traces) {
    completed_.fetch_add(traces, std::memory_order_relaxed);
    if (!active()) return;
    const std::int64_t now = steady_ns();
    std::int64_t deadline = next_emit_ns_.load(std::memory_order_relaxed);
    if (now < deadline) return;
    const auto interval_ns =
        static_cast<std::int64_t>(interval_sec_ * 1e9);
    // One thread wins the slot; the rest skip -- an update is never worth
    // blocking a worker for.
    if (next_emit_ns_.compare_exchange_strong(deadline, now + interval_ns,
                                              std::memory_order_relaxed))
        emit(/*final=*/false);
}

void ProgressMeter::finish() {
    if (!active()) return;
    emit(/*final=*/true);
}

void ProgressMeter::emit(bool final) {
    ProgressUpdate update;
    update.campaign = campaign_;
    update.completed_traces = completed_.load(std::memory_order_relaxed);
    update.total_traces = total_;
    update.final = final;
    // Robustness guards (resume-corrected math must survive degenerate
    // inputs): a stepped/suspended clock can make the raw delta negative
    // (clamped to 0), and note_resumed() racing this read can leave the
    // loaded `resumed` momentarily ahead of `completed` -- an unguarded
    // u64 subtraction would turn that into a ~1.8e19 "fresh" count and a
    // nonsense rate/ETA, so the subtraction saturates at 0 instead.
    const std::int64_t elapsed_raw = steady_ns() - start_ns_;
    update.elapsed_sec =
        elapsed_raw > 0 ? static_cast<double>(elapsed_raw) * 1e-9 : 0.0;
    const std::size_t resumed = resumed_.load(std::memory_order_relaxed);
    const std::size_t fresh = update.completed_traces > resumed
                                  ? update.completed_traces - resumed
                                  : 0;
    if (update.elapsed_sec > 0.0 && fresh > 0) {
        update.traces_per_sec =
            static_cast<double>(fresh) / update.elapsed_sec;
        if (update.total_traces > update.completed_traces)
            update.eta_sec = static_cast<double>(update.total_traces -
                                                 update.completed_traces) /
                             update.traces_per_sec;
    }
    if (callback_) callback_(update);
    if (heartbeat_) {
        const double pct =
            update.total_traces > 0
                ? 100.0 * static_cast<double>(update.completed_traces) /
                      static_cast<double>(update.total_traces)
                : 0.0;
        char line[256];
        std::snprintf(line, sizeof line,
                      "[glitchmask] %s: %zu/%zu traces (%.1f%%), %.0f "
                      "traces/s, %s %s\n",
                      campaign_.c_str(), update.completed_traces,
                      update.total_traces, pct, update.traces_per_sec,
                      final ? "done in" : "ETA",
                      format_duration(final ? update.elapsed_sec
                                            : update.eta_sec)
                          .c_str());
        std::fputs(line, stderr);
    }
}

}  // namespace glitchmask::telemetry
