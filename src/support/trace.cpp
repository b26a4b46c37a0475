#include "support/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <span>

#include "support/atomic_file.hpp"
#include "support/env.hpp"
#include "support/json.hpp"
#include "support/telemetry.hpp"

namespace glitchmask::trace {

namespace {

std::atomic<int> g_enabled{-1};  // -1 = resolve GLITCHMASK_TRACE
std::atomic<std::uint64_t> g_next_id{1};

/// Global cap across all thread buffers: a runaway traced loop degrades
/// to counted drops instead of unbounded memory.
constexpr std::size_t kMaxBufferedSpans = std::size_t{1} << 20;
std::atomic<std::size_t> g_buffered{0};
std::atomic<std::uint64_t> g_dropped{0};

/// One thread's span buffer.  Appended only by its owner; the mutex
/// exists for the (rare) concurrent take_spans() drain.
struct Buffer {
    std::mutex mutex;
    std::vector<Span> spans;
    std::uint32_t thread = 0;
};

/// Buffers are shared between the owning thread (thread_local handle) and
/// the registry, so a thread may exit with undrained spans and lose
/// nothing; take_spans() prunes buffers that are both orphaned and empty.
struct TraceRegistry {
    std::mutex mutex;
    std::vector<std::shared_ptr<Buffer>> buffers;
    std::uint32_t next_thread = 1;
};

TraceRegistry& registry() {
    static TraceRegistry instance;
    return instance;
}

struct BufferHandle {
    std::shared_ptr<Buffer> buffer = std::make_shared<Buffer>();

    BufferHandle() {
        TraceRegistry& reg = registry();
        const std::lock_guard<std::mutex> lock(reg.mutex);
        buffer->thread = reg.next_thread++;
        reg.buffers.push_back(buffer);
    }
};

Buffer& local_buffer() {
    thread_local BufferHandle handle;
    return *handle.buffer;
}

thread_local std::vector<SpanId> g_ambient;

/// Microseconds with nanosecond residue -- Chrome-trace timestamps are
/// conventionally doubles in us; %.3f keeps the ns exact.
void append_us(std::string& out, std::uint64_t nanos) {
    char buffer[40];
    std::snprintf(buffer, sizeof buffer, "%llu.%03u",
                  static_cast<unsigned long long>(nanos / 1000),
                  static_cast<unsigned>(nanos % 1000));
    out += buffer;
}

}  // namespace

bool enabled() noexcept {
    int state = g_enabled.load(std::memory_order_relaxed);
    if (state < 0) {
        state = env_int("GLITCHMASK_TRACE", 0) != 0 ? 1 : 0;
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

SpanId new_span_id() noexcept {
    return g_next_id.fetch_add(1, std::memory_order_relaxed);
}

SpanId current_span() noexcept {
    return g_ambient.empty() ? 0 : g_ambient.back();
}

void push_ambient(SpanId id) { g_ambient.push_back(id); }

void pop_ambient() noexcept {
    if (!g_ambient.empty()) g_ambient.pop_back();
}

void record_span(Span span) {
    if (!enabled()) return;
    if (g_buffered.fetch_add(1, std::memory_order_relaxed) >=
        kMaxBufferedSpans) {
        g_buffered.fetch_sub(1, std::memory_order_relaxed);
        g_dropped.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    Buffer& buffer = local_buffer();
    span.thread = buffer.thread;
    const std::lock_guard<std::mutex> lock(buffer.mutex);
    buffer.spans.push_back(std::move(span));
}

void record_span(SpanId id, std::string name, SpanId parent,
                 std::uint64_t begin_ns, std::uint64_t end_ns,
                 SpanAttrs attrs) {
    Span span;
    span.id = id;
    span.parent = parent;
    span.name = std::move(name);
    span.begin_ns = begin_ns;
    span.end_ns = end_ns;
    span.attrs = std::move(attrs);
    record_span(std::move(span));
}

ScopedSpan::ScopedSpan(std::string name, SpanId parent, SpanAttrs attrs) {
    if (!enabled()) return;
    id_ = new_span_id();
    parent_ = parent != 0 ? parent : current_span();
    begin_ns_ = telemetry::steady_now_ns();
    name_ = std::move(name);
    attrs_ = std::move(attrs);
    push_ambient(id_);
}

ScopedSpan::~ScopedSpan() {
    if (id_ == 0) return;
    pop_ambient();
    record_span(id_, std::move(name_), parent_, begin_ns_,
                telemetry::steady_now_ns(), std::move(attrs_));
}

std::vector<Span> take_spans() {
    TraceRegistry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    std::vector<Span> out;
    for (const std::shared_ptr<Buffer>& buffer : reg.buffers) {
        const std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
        if (buffer->spans.empty()) continue;
        g_buffered.fetch_sub(buffer->spans.size(), std::memory_order_relaxed);
        std::move(buffer->spans.begin(), buffer->spans.end(),
                  std::back_inserter(out));
        buffer->spans.clear();
    }
    // Orphaned (thread exited) and drained: nothing left to hold onto.
    std::erase_if(reg.buffers, [](const std::shared_ptr<Buffer>& buffer) {
        return buffer.use_count() == 1 && buffer->spans.empty();
    });
    return out;
}

void reset() {
    (void)take_spans();
    g_dropped.store(0, std::memory_order_relaxed);
}

std::uint64_t dropped_spans() noexcept {
    return g_dropped.load(std::memory_order_relaxed);
}

std::string render_chrome_trace(const std::vector<Span>& spans) {
    std::string out;
    out.reserve(256 + spans.size() * 160);
    out += "{\"traceEvents\":[";
    bool first = true;
    for (const Span& span : spans) {
        if (!first) out += ",";
        first = false;
        out += "\n{\"name\":";
        append_json_string(out, span.name);
        out += ",\"cat\":\"glitchmask\",\"ph\":\"X\",\"ts\":";
        append_us(out, span.begin_ns);
        out += ",\"dur\":";
        append_us(out, span.end_ns >= span.begin_ns
                           ? span.end_ns - span.begin_ns
                           : 0);
        out += ",\"pid\":1,\"tid\":";
        out += std::to_string(span.thread);
        // Ids as strings: u64 span ids would lose bits in a JS double.
        out += ",\"args\":{\"id\":\"";
        out += std::to_string(span.id);
        out += "\",\"parent\":\"";
        out += std::to_string(span.parent);
        out += '"';
        for (const auto& [key, value] : span.attrs) {
            out += ',';
            append_json_string(out, key);
            out += ':';
            append_json_string(out, value);
        }
        out += "}}";
    }
    out += "\n],\"displayTimeUnit\":\"ms\"}\n";
    return out;
}

void write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans) {
    const std::string text = render_chrome_trace(spans);
    atomic_write_file(path,
                      std::span<const std::uint8_t>(
                          reinterpret_cast<const std::uint8_t*>(text.data()),
                          text.size()));
}

std::vector<SpanSummary> summarize_spans(const std::vector<Span>& spans) {
    std::vector<SpanSummary> out;
    for (const Span& span : spans) {
        const auto it =
            std::find_if(out.begin(), out.end(), [&](const SpanSummary& s) {
                return s.name == span.name;
            });
        SpanSummary& entry =
            it != out.end()
                ? *it
                : out.emplace_back(SpanSummary{span.name, 0, 0});
        entry.count++;
        entry.total_ns +=
            span.end_ns >= span.begin_ns ? span.end_ns - span.begin_ns : 0;
    }
    std::sort(out.begin(), out.end(),
              [](const SpanSummary& a, const SpanSummary& b) {
                  return a.name < b.name;
              });
    return out;
}

void write_json(JsonWriter& w, const std::vector<SpanSummary>& spans) {
    w.begin_array();
    for (const SpanSummary& span : spans) {
        w.begin_object();
        w.member("name", span.name);
        w.member("count", span.count);
        w.member("total_ns", span.total_ns);
        w.end_object();
    }
    w.end_array();
}

}  // namespace glitchmask::trace
