// End-to-end span tracing: a zero-cost-when-off recorder of timed spans
// with parent links, exported as Chrome-trace JSON.
//
// Where telemetry (support/telemetry.hpp) answers "how much, in total",
// tracing answers "where did *this* job's wall-clock go": every span is
// one timed interval (queue wait, execute, block 17, the sim phase of
// block 17, a checkpoint write, ...) with a parent link, so a run or a
// service job unfolds into a tree a human can read in chrome://tracing
// or Perfetto.  The instrumented intervals are recorded through
// telemetry::record_interval, which feeds a span and the family's
// latency histogram from the same clock reads; ScopedSpan serves
// intervals that have no histogram (the benchmark's own layers).
//
// Design centre (mirrors the telemetry shards):
//
//   * Zero-cost when off.  GLITCHMASK_TRACE=1 (or set_enabled) gates
//     every recording site behind one relaxed load; a disabled ScopedSpan
//     is two branches and no clock read, so tracing-off runs stay
//     bit-and-speed-identical to untraced builds.
//   * Buffered per-thread.  Completed spans append to the calling
//     thread's buffer (one short mutex hold, contended only by a
//     concurrent take_spans()); buffers of exited threads survive in the
//     registry until drained, so no span is lost to thread churn.  A
//     global cap bounds memory; overflow increments dropped_spans()
//     instead of growing without bound.
//   * Recording never perturbs results.  Spans carry measurements only
//     (monotonic clock reads + strings); campaign statistics are
//     bit-identical with tracing on or off, which the test suite asserts.
//
// Cross-thread parenting: an ambient thread-local span stack supplies the
// default parent (a block span opened on a pool thread parents the phase
// leaves flushed on that same thread), and spans that cross threads --
// a service job begins on the daemon thread and ends on an executor --
// carry explicit ids: allocate with new_span_id(), pass the id along, and
// record the completed span retrospectively with record_span().
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace glitchmask {
class JsonWriter;  // support/json.hpp
}

namespace glitchmask::trace {

/// Process-unique span identity; 0 = "no span" everywhere.
using SpanId = std::uint64_t;

/// Key/value annotations of one span (Chrome-trace "args").
using SpanAttrs = std::vector<std::pair<std::string, std::string>>;

/// One completed span.  Timestamps are telemetry::steady_now_ns() reads
/// (the registry's monotonic time base); `thread` is a small stable index
/// identifying the recording thread (the Chrome-trace tid).
struct Span {
    SpanId id = 0;
    SpanId parent = 0;        // 0 = root
    std::string name;
    std::uint64_t begin_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint32_t thread = 0;
    SpanAttrs attrs;
};

/// Global collection switch: GLITCHMASK_TRACE (0/1, default off) on first
/// call, overridable via set_enabled.  When off, every recording site is
/// a single relaxed load.
[[nodiscard]] bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// Enables collection for a scope and restores the previous state.
class ScopedTraceEnable {
public:
    explicit ScopedTraceEnable(bool on = true) : previous_(enabled()) {
        if (on) set_enabled(true);
    }
    ~ScopedTraceEnable() { set_enabled(previous_); }
    ScopedTraceEnable(const ScopedTraceEnable&) = delete;
    ScopedTraceEnable& operator=(const ScopedTraceEnable&) = delete;

private:
    bool previous_;
};

/// Allocates a fresh nonzero span id (for spans recorded retrospectively
/// across threads).  Cheap and valid whether or not tracing is on.
[[nodiscard]] SpanId new_span_id() noexcept;

/// The innermost ambient span on this thread (0 = none): the default
/// parent for spans opened without an explicit one.
[[nodiscard]] SpanId current_span() noexcept;

/// Pushes/pops an externally-managed span onto the ambient stack (the
/// block scopes use this so phase leaves flushed mid-block nest under the
/// block).  Calls must be balanced on the same thread.
void push_ambient(SpanId id);
void pop_ambient() noexcept;

/// Appends one completed span to the calling thread's buffer.  No-op when
/// collection is off; drops (and counts) when the global buffer cap is
/// reached.
void record_span(Span span);

/// Convenience: record a completed span under a pre-allocated id.
void record_span(SpanId id, std::string name, SpanId parent,
                 std::uint64_t begin_ns, std::uint64_t end_ns,
                 SpanAttrs attrs = {});

/// RAII span for intervals that begin and end on one thread: allocates an
/// id, pins the clock and joins the ambient stack on construction (parent
/// defaults to the ambient span); records on destruction.  Fully inert
/// when tracing is off -- id() is then 0.
class ScopedSpan {
public:
    explicit ScopedSpan(std::string name, SpanId parent = 0,
                        SpanAttrs attrs = {});
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    [[nodiscard]] SpanId id() const noexcept { return id_; }

private:
    SpanId id_ = 0;
    SpanId parent_ = 0;
    std::uint64_t begin_ns_ = 0;
    std::string name_;
    SpanAttrs attrs_;
};

/// Drains every buffer (live threads and exited ones) into one vector;
/// spans recorded after the call land in the next drain.
[[nodiscard]] std::vector<Span> take_spans();

/// Drops all buffered spans and zeroes the drop counter (test isolation).
void reset();

/// Spans discarded because the global buffer cap was reached.
[[nodiscard]] std::uint64_t dropped_spans() noexcept;

// ----- export ------------------------------------------------------------

/// Renders spans as Chrome Trace Event Format JSON (complete "X" events,
/// microsecond timestamps) loadable by chrome://tracing and Perfetto.
/// Span ids, parent links and attributes ride each event's "args".
[[nodiscard]] std::string render_chrome_trace(const std::vector<Span>& spans);

/// render_chrome_trace + atomic file replace; throws
/// CampaignError{IoFailure} on I/O errors.
void write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans);

/// Per-name rollup of a span set (the summary that rides the service's
/// result event and the run report's "spans" section).
struct SpanSummary {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;

    friend bool operator==(const SpanSummary&, const SpanSummary&) = default;
};

/// Aggregates spans by name, sorted by name (deterministic order).
[[nodiscard]] std::vector<SpanSummary> summarize_spans(
    const std::vector<Span>& spans);

/// Writes a rollup as a JSON array of {"name", "count", "total_ns"}
/// objects.
void write_json(JsonWriter& w, const std::vector<SpanSummary>& spans);

}  // namespace glitchmask::trace
