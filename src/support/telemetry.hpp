// Campaign telemetry: a zero-cost-when-off registry of counters and
// histograms with per-thread shards, the one call that records a timed
// interval, and the progress/ETA meter built on the registry.
//
// Design centre (mirrors the determinism story of the campaign engine):
//
//   * The hot paths (event simulators) never touch the registry at all --
//     they keep plain member counters (the price of `++processed_`) and
//     the campaign runner folds the *per-block deltas* into the calling
//     worker's shard at block boundaries.  Enabling telemetry therefore
//     neither serializes workers nor perturbs a single result bit.
//   * A shard is thread-local and written lock-free (relaxed atomics, one
//     writer); snapshot() folds all live shards plus the totals retired
//     by exited threads.  Every entry merges by an associative,
//     commutative operation (u64 sum or max), so the merged totals are
//     independent of thread scheduling: for a fixed campaign the
//     deterministic counters (events, toggles, glitches, ...) are exact
//     at any worker count, which the test suite asserts.  Committed
//     toggles are also exact across the scalar/bitsliced engines; the
//     schedule-shape counters (events, queue peak, glitch/cancel split)
//     are engine-specific.
//   * Counters hold counts only; every duration is a histogram.  A timed
//     interval is recorded by one call (record_interval, or the scoped
//     ScopedInterval) from one pair of clock reads: it observes the
//     family's histogram when telemetry is on and, when span tracing is
//     on (support/trace.hpp), records the family's span.  So for every
//     family with a span name, the histogram's count and sum equal the
//     span rollup's count and total_ns.  histogram_deterministic()
//     separates the wall-clock families from the trace-count ones.
//
// The registry is process-global and accumulates across campaigns; a
// driver brackets its run with two snapshot() calls and reports the delta
// (Snapshot::delta_since).  GLITCHMASK_TELEMETRY=1 enables collection
// globally; drivers also enable it for the duration of a run that asked
// for a report (ScopedTelemetryEnable).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "support/trace.hpp"

namespace glitchmask {
class JsonWriter;  // support/json.hpp
}

namespace glitchmask::telemetry {

// ----- counter registry --------------------------------------------------

enum class Counter : unsigned {
    kSimEvents = 0,        // events popped from a simulator queue
    kSimToggles,           // committed net transitions (per lane)
    kSimGlitches,          // transient toggles: 2nd+ toggle of a net within
                           // one activity window (clock cycle)
    kSimInertialCancels,   // pulse pairs annihilated by inertial filtering
    kSimQueuePeak,         // event-queue high-water mark (merged by max)
    kPoolTasksExecuted,    // tasks a pool worker ran
    kPoolTasksStolen,      // tasks taken from another worker's deque
    kIoRetries,            // transient I/O failures absorbed by retry_io
    kServiceJobs,          // campaign-service jobs executed (not cached)
    kServiceCacheHits,     // submissions served from the result cache
    kCount
};

inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount);

enum class MergeKind { kSum, kMax };

/// Stable dotted name used in run reports and bench JSON.
[[nodiscard]] const char* counter_name(Counter counter) noexcept;

[[nodiscard]] MergeKind counter_merge(Counter counter) noexcept;

/// True for counters that are a pure function of the campaign (schedule-
/// independent); false for scheduling counts.
[[nodiscard]] bool counter_deterministic(Counter counter) noexcept;

// ----- latency histograms ------------------------------------------------

/// Fixed-bucket distributions, sharded and gated exactly like the
/// counters.  Bucket counts are exact u64s merged by element-wise sum --
/// associative and commutative, so the merged vector is independent of
/// which worker observed what in which order.  The *Nanos families are
/// the registry's only durations; the campaign's block count and trace
/// total are kBlockTraces' count and sum.
enum class Histogram : unsigned {
    kQueueWaitNanos = 0,     // service: submit -> executor pickup
    kExecuteNanos,           // service: campaign run wall time per job
    kCheckpointWriteNanos,   // one landed snapshot write (incl. retries)
    kCacheLookupNanos,       // service: submit-time result-cache scan
    kRetryBackoffNanos,      // retry_io backoff sleeps
    kWatchdogFireNanos,      // observed silence when the watchdog fired
    kBlockNanos,             // campaign block wall time
    kBlockTraces,            // traces per completed block (deterministic)
    kJobTraces,              // completed traces per completed service job
    kPhaseSimNanos,          // per block: stimulus build + simulation
    kPhaseNoiseNanos,        // per block: Gaussian noise row fills
    kPhaseMomentsNanos,      // per block: moment-bank trace folds
    kPhaseAttributionNanos,  // per block: per-net attribution folds
    kPoolIdleNanos,          // one parked wait of a pool worker
    kCount
};

inline constexpr std::size_t kHistogramCount =
    static_cast<std::size_t>(Histogram::kCount);

/// Power-of-two buckets covering the full u64 range: bucket 0 holds the
/// value 0, bucket i >= 1 spans [2^(i-1), 2^i).
inline constexpr std::size_t kHistogramBuckets = 65;

[[nodiscard]] constexpr std::size_t histogram_bucket(
    std::uint64_t value) noexcept {
    return value == 0 ? 0 : static_cast<std::size_t>(std::bit_width(value));
}

/// Lower edge of a bucket (sparse render paths key buckets by it).
[[nodiscard]] constexpr std::uint64_t histogram_bucket_floor(
    std::size_t bucket) noexcept {
    return bucket == 0 ? 0 : std::uint64_t{1} << (bucket - 1);
}

/// Stable dotted name used in the metrics verb, run reports and bench
/// JSON.
[[nodiscard]] const char* histogram_name(Histogram histogram) noexcept;

/// The span record_interval emits for this family when tracing is on
/// ("block", "sim", "execute", ...); nullptr for families without one.
[[nodiscard]] const char* histogram_span_name(Histogram histogram) noexcept;

/// True when the observed values are a pure function of the campaign
/// (trace counts), so the merged bucket counts are bit-identical at any
/// worker/executor count; false for wall-clock latencies.
[[nodiscard]] bool histogram_deterministic(Histogram histogram) noexcept;

/// Merged state of one histogram: exact bucket counts plus count/sum/max
/// rollups (max merges by max, the rest by sum).
struct HistogramSnapshot {
    std::array<std::uint64_t, kHistogramBuckets> buckets{};
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t max = 0;

    friend bool operator==(const HistogramSnapshot&,
                           const HistogramSnapshot&) = default;
};

// ----- gauges ------------------------------------------------------------

/// Instantaneous values: one relaxed global atomic each, set at service
/// state transitions (under the service lock, so not sharded) and read
/// into snapshots.  Cheap enough to stay ungated: a gauge without a
/// writer simply reads 0.
enum class Gauge : unsigned {
    kServiceQueueDepth = 0,
    kServiceRunningJobs,
    kServiceCacheEntries,
    kServiceSpoolBytes,
    kCount
};

inline constexpr std::size_t kGaugeCount =
    static_cast<std::size_t>(Gauge::kCount);

[[nodiscard]] const char* gauge_name(Gauge gauge) noexcept;
void set_gauge(Gauge gauge, std::uint64_t value) noexcept;
[[nodiscard]] std::uint64_t gauge_value(Gauge gauge) noexcept;

/// Global collection switch: GLITCHMASK_TELEMETRY (0/1, default off) on
/// first call, overridable via set_enabled.  When off, instrumented call
/// sites skip shard access entirely.
[[nodiscard]] bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// Enables collection for a scope (a driver run that writes a report) and
/// restores the previous state on destruction.
class ScopedTelemetryEnable {
public:
    explicit ScopedTelemetryEnable(bool on = true)
        : previous_(enabled()) {
        if (on) set_enabled(true);
    }
    ~ScopedTelemetryEnable() { set_enabled(previous_); }
    ScopedTelemetryEnable(const ScopedTelemetryEnable&) = delete;
    ScopedTelemetryEnable& operator=(const ScopedTelemetryEnable&) = delete;

private:
    bool previous_;
};

/// Merged registry state.  Values are u64; `value()` indexes by counter.
struct Snapshot {
    std::array<std::uint64_t, kCounterCount> values{};
    std::array<HistogramSnapshot, kHistogramCount> histograms{};
    std::array<std::uint64_t, kGaugeCount> gauges{};

    [[nodiscard]] std::uint64_t value(Counter counter) const noexcept {
        return values[static_cast<std::size_t>(counter)];
    }
    [[nodiscard]] const HistogramSnapshot& histogram(
        Histogram histogram) const noexcept {
        return histograms[static_cast<std::size_t>(histogram)];
    }
    [[nodiscard]] std::uint64_t gauge(Gauge gauge) const noexcept {
        return gauges[static_cast<std::size_t>(gauge)];
    }

    /// Per-run view: sum counters (and histogram buckets/count/sum) diff
    /// against `start`; max counters, histogram maxima and gauges keep
    /// the end value (a high-water mark has no meaningful difference).
    [[nodiscard]] Snapshot delta_since(const Snapshot& start) const noexcept;
};

/// One thread's counter shard.  Written only by its owner (lock-free,
/// relaxed); read concurrently by snapshot().
class Shard {
public:
    void add(Counter counter, std::uint64_t n = 1) noexcept {
        values_[static_cast<std::size_t>(counter)].fetch_add(
            n, std::memory_order_relaxed);
    }
    /// Merge-by-max update for high-water counters.
    void peak(Counter counter, std::uint64_t v) noexcept {
        std::atomic<std::uint64_t>& slot =
            values_[static_cast<std::size_t>(counter)];
        std::uint64_t current = slot.load(std::memory_order_relaxed);
        while (v > current &&
               !slot.compare_exchange_weak(current, v,
                                           std::memory_order_relaxed)) {
        }
    }

    /// One histogram observation: bucket count, count/sum, max.
    void observe(Histogram histogram, std::uint64_t value) noexcept {
        HistogramCell& cell =
            histograms_[static_cast<std::size_t>(histogram)];
        cell.buckets[histogram_bucket(value)].fetch_add(
            1, std::memory_order_relaxed);
        cell.count.fetch_add(1, std::memory_order_relaxed);
        cell.sum.fetch_add(value, std::memory_order_relaxed);
        std::uint64_t current = cell.max.load(std::memory_order_relaxed);
        while (value > current &&
               !cell.max.compare_exchange_weak(current, value,
                                               std::memory_order_relaxed)) {
        }
    }

    /// Concurrent read for snapshotting (relaxed; counters are
    /// independent, cross-counter consistency is not promised).
    [[nodiscard]] std::uint64_t load(std::size_t index) const noexcept {
        return values_[index].load(std::memory_order_relaxed);
    }
    [[nodiscard]] HistogramSnapshot load_histogram(
        std::size_t index) const noexcept {
        const HistogramCell& cell = histograms_[index];
        HistogramSnapshot out;
        for (std::size_t b = 0; b < kHistogramBuckets; ++b)
            out.buckets[b] = cell.buckets[b].load(std::memory_order_relaxed);
        out.count = cell.count.load(std::memory_order_relaxed);
        out.sum = cell.sum.load(std::memory_order_relaxed);
        out.max = cell.max.load(std::memory_order_relaxed);
        return out;
    }
    void clear() noexcept {
        for (auto& slot : values_) slot.store(0, std::memory_order_relaxed);
        for (auto& cell : histograms_) {
            for (auto& bucket : cell.buckets)
                bucket.store(0, std::memory_order_relaxed);
            cell.count.store(0, std::memory_order_relaxed);
            cell.sum.store(0, std::memory_order_relaxed);
            cell.max.store(0, std::memory_order_relaxed);
        }
    }

private:
    struct HistogramCell {
        std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
        std::atomic<std::uint64_t> count{0};
        std::atomic<std::uint64_t> sum{0};
        std::atomic<std::uint64_t> max{0};
    };

    std::array<std::atomic<std::uint64_t>, kCounterCount> values_{};
    std::array<HistogramCell, kHistogramCount> histograms_{};
};

/// The calling thread's shard; registers it on first use.  The shard
/// outlives the thread logically: its totals fold into a retired
/// accumulator when the thread exits.
[[nodiscard]] Shard& shard();

/// Gated convenience for values that are not timed intervals (trace
/// counts, watchdog staleness); intervals go through record_interval.
inline void observe(Histogram histogram, std::uint64_t value) {
    if (enabled()) shard().observe(histogram, value);
}

/// Folds every live shard and the retired totals into one snapshot.
[[nodiscard]] Snapshot snapshot();

/// Zeroes all shards, retired totals and gauges (test isolation).
void reset();

/// Prometheus text exposition of a snapshot: counters, histograms
/// (cumulative `le` buckets in the native unit -- nanoseconds for the
/// latency families) and gauges, names prefixed `glitchmask_` with dots
/// mangled to underscores.
[[nodiscard]] std::string render_prometheus_text(const Snapshot& snapshot);

/// Writes the snapshot's "counters" and "histograms" members in the
/// sparse form run reports and the metrics verb share: nonzero counters,
/// observed histogram families, each with count/sum/max and its nonzero
/// buckets as [floor, count] pairs (histogram_bucket() maps a floor back
/// to its bucket).  Readers take an absent name as 0.
void write_json(JsonWriter& w, const Snapshot& snapshot);

/// Process CPU time (user + system, all threads) in seconds.
[[nodiscard]] double process_cpu_seconds() noexcept;

// ----- simulator statistics ----------------------------------------------

/// Cumulative activity counters both event engines expose via stats().
/// Plain members in the engines; deltas are folded into the registry at
/// block boundaries by record_sim_block().
struct SimStats {
    std::uint64_t events = 0;
    std::uint64_t toggles = 0;
    std::uint64_t glitches = 0;
    std::uint64_t inertial_cancels = 0;
    std::uint64_t queue_peak = 0;  // high-water; merged by max
};

/// Adds (now - last) to the calling thread's shard and advances `last`.
/// Call once per completed block with the replica's cumulative stats.
void record_sim_block(const SimStats& now, SimStats& last);

// ----- timed intervals ---------------------------------------------------

/// Monotonic clock in nanoseconds (the registry's and the spans' time
/// base).
[[nodiscard]] std::uint64_t steady_now_ns() noexcept;

/// Records one timed interval [begin_ns, end_ns): observes `histogram`
/// when telemetry is on and, when tracing is on and the family has a span
/// name, records that span under `parent` (0 = root) with `attrs`.  `id`
/// is a span id allocated beforehand (0 = allocate one), for a span whose
/// children are recorded before it closes.
void record_interval(Histogram histogram, std::uint64_t begin_ns,
                     std::uint64_t end_ns, trace::SpanId parent = 0,
                     trace::SpanAttrs attrs = {}, trace::SpanId id = 0);

/// record_interval for an interval that begins and ends on one thread:
/// pins the clock on construction and records on destruction.  It reads
/// the clock only when telemetry is on, or tracing is on and the family
/// has a span; in the latter case it allocates the span id up front and
/// joins the ambient stack (parent 0 = the ambient span), so spans
/// recorded meanwhile on this thread -- a block's phase leaves -- nest
/// under it.  An interval left by an exception is traced but not
/// counted: the histogram holds only work that completed.
class ScopedInterval {
public:
    explicit ScopedInterval(Histogram histogram, trace::SpanId parent = 0);
    ~ScopedInterval();
    ScopedInterval(const ScopedInterval&) = delete;
    ScopedInterval& operator=(const ScopedInterval&) = delete;

    /// The span's id; 0 when no span is recorded.
    [[nodiscard]] trace::SpanId id() const noexcept { return id_; }
    /// Attributes of the span; build them only when id() != 0.
    void set_attrs(trace::SpanAttrs attrs) { attrs_ = std::move(attrs); }
    /// Keeps the span but leaves the histogram unobserved: a failed
    /// checkpoint write is traced, but only landed writes are counted.
    void skip_histogram() noexcept { observe_ = false; }

private:
    Histogram histogram_;
    bool timed_ = false;
    bool observe_ = false;
    int exceptions_ = 0;  // std::uncaught_exceptions() on entry
    trace::SpanId id_ = 0;
    trace::SpanId parent_ = 0;
    std::uint64_t begin_ns_ = 0;
    trace::SpanAttrs attrs_;
};

/// Splits one block body's wall time into phases.  mark() pins the clock;
/// each lap(phase) credits the time since the previous mark/lap locally
/// and re-pins, so consecutive laps chain through interleaved phases with
/// one clock read each.  flush() records every nonzero phase total once
/// per block through record_interval, laid out sequentially from the
/// first mark under the ambient (block) span -- the per-phase durations
/// are exact, the layout within the block is a rendering convention
/// (phases interleave in reality).  All methods are no-ops when both
/// telemetry and tracing are off, so the block bodies carry no clock
/// reads in the default configuration.
class PhaseClock {
public:
    PhaseClock() : on_(enabled() || trace::enabled()) {}

    void mark() noexcept {
        if (!on_) return;
        last_ = steady_now_ns();
        if (first_ == 0) first_ = last_;
    }
    void lap(Histogram phase) noexcept {
        if (!on_) return;
        const std::uint64_t now = steady_now_ns();
        nanos_[static_cast<std::size_t>(phase)] += now - last_;
        last_ = now;
    }
    void flush();

private:
    bool on_;
    std::uint64_t last_ = 0;
    std::uint64_t first_ = 0;
    std::array<std::uint64_t, kHistogramCount> nanos_{};
};

// ----- progress / ETA ----------------------------------------------------

struct ProgressUpdate {
    std::string campaign;            // driver id ("des_tvla", "seq_0123")
    std::size_t completed_traces = 0;
    std::size_t total_traces = 0;
    double elapsed_sec = 0.0;
    double traces_per_sec = 0.0;     // rate since start (resume-corrected)
    double eta_sec = 0.0;            // 0 when the rate is still unknown
    bool final = false;              // last update of the run
};

using ProgressFn = std::function<void(const ProgressUpdate&)>;

/// Heartbeat interval override for --progress flags: > 0 activates the
/// stderr heartbeat regardless of GLITCHMASK_PROGRESS; 0 defers to the
/// env var (its numeric value, seconds; unset/0 = off).
void set_heartbeat_interval(double seconds) noexcept;
[[nodiscard]] double heartbeat_interval() noexcept;

/// Thread-safe, rate-limited progress reporter.  Workers call advance()
/// after each completed block; at most one update per interval reaches
/// the callback and/or the stderr heartbeat line.  Inactive (and
/// near-free) when neither a callback nor a heartbeat is configured.
class ProgressMeter {
public:
    ProgressMeter(std::string campaign, std::size_t total_traces,
                  ProgressFn callback);

    /// Neither callback nor heartbeat configured -- callers may skip the
    /// meter entirely.
    [[nodiscard]] bool active() const noexcept;

    /// Credits traces completed by a *previous* process (checkpoint
    /// resume): counts toward completion but not toward the rate.
    void note_resumed(std::size_t traces);

    /// Credits `traces` freshly completed; emits when the rate limit
    /// allows.  Safe from any thread.
    void advance(std::size_t traces);

    /// Emits one final (non-rate-limited) update.
    void finish();

    [[nodiscard]] std::size_t completed() const noexcept {
        return completed_.load(std::memory_order_relaxed);
    }

private:
    void emit(bool final);

    std::string campaign_;
    std::size_t total_ = 0;
    ProgressFn callback_;
    double interval_sec_ = 0.0;      // resolved once at construction
    bool heartbeat_ = false;
    std::atomic<std::size_t> completed_{0};
    std::atomic<std::size_t> resumed_{0};
    std::atomic<std::int64_t> next_emit_ns_{0};  // steady-clock deadline
    std::int64_t start_ns_ = 0;
};

}  // namespace glitchmask::telemetry
