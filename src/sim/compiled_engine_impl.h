// Wide-lane engine implementation, textually included per ISA variant.
//
// The including TU defines GLITCHMASK_ENGINE_VARIANT (a namespace name)
// and gets one full copy of the engine template plus a factory
//
//     std::unique_ptr<CompiledEngineBase>
//     GLITCHMASK_ENGINE_VARIANT::make_engine(program, chunks);
//
// compiled_engine_portable.cpp compiles it with the project's baseline
// flags; compiled_engine_avx2.cpp adds -mavx2 (+ -ffp-contract=off) so
// the LW<W> lane-word loops and eval_cell_lw compile to 256-bit ops.
// The engine is pure integer code -- lane words, times, counters -- so
// the ISA variant cannot change a committed waveform bit; dispatch picks
// a variant in make_compiled_engine purely for speed
// (tests/compiled_sim_test + moment_bank_test assert == across
// GLITCHMASK_SIMD levels).
//
// Layout notes (this file is also where the per-event memory plan
// lives):
//   * CellState packs every mutable per-cell field the event loop
//     touches -- committed output, last scheduled value, activity-window
//     mask/stamp, gate delay, inertial window, pending commits, marks --
//     into one contiguous struct.  Pending commits and marks sit in
//     inline buffers of 2 and 1 records that spill to the heap only when
//     full (DES peaks at 8 and 2), so a steady-state event allocates
//     nothing and a commit's bookkeeping stays on the cell's own lines.
//     A per-cell mark_max (upper bound of the marks' times) lets a
//     schedule skip the marks walk when every mark is already stale.
//   * Events are 8 bytes plus the lane mask: pin and target kind pack into
//     the cell id's top byte (programs are capped at 2^24 cells; fanout
//     edges carry the target's kind, so a pin event never loads it), seq
//     is 32-bit with an explicit overflow guard (a settle pass never
//     reaches 4G events), and the time is implied by the ring slot the
//     event sits in.  Commit events never write or read their mask.
//   * The time-slot ring is flat: per slot an event count and the first
//     kInline event records inline (contiguous, slot-major; 4 records,
//     one cache line, at 64 lanes), the rest in one free-listed spill
//     pool chained per slot.  A push is a count read plus a record store,
//     a drain walks contiguous records, and memory is O(ring + queue
//     peak) -- no container per slot.
//   * A typical event makes no out-of-line call: push, append,
//     push_commit, push_pin_event, schedule_group and schedule_output's
//     fast path are forced inline into the drain.  Left to itself, GCC
//     at -O2 keeps push, append and schedule_group out of line, and a
//     64-trace DES group calls them 1.6M, 1.6M and 0.7M times.  Only the
//     rare paths leave the drain: spill-pool growth, the overflow heap,
//     a schedule that meets a live mark (schedule_marked, 0.04% of
//     schedules) and a full commit batch.
//   * Commits reach the sinks in batches: commit_output appends a
//     ToggleEntry to the chunk's fixed buffer (capturing the coupling
//     partner's lane word when the sink declared a partner table), and
//     one on_toggles() call hands the buffer over when it is full and at
//     the end of every run -- never a virtual call per commit.

// Everything here lives in internal linkage except the factory, so two
// variants in one binary cannot collide.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <queue>
#include <span>
#include <stdexcept>
#include <vector>

#include "sim/compiled_simulator.hpp"

namespace glitchmask::sim {
namespace GLITCHMASK_ENGINE_VARIANT {
namespace {

/// Top byte of an event's code: (target kind << 2) | pin for a pin
/// event, kCommitTag (pin field 3) for an output or source commit.
constexpr std::uint32_t kCommitTag = 0xFF;
static_assert(static_cast<unsigned>(netlist::CellKind::Dff) < 63,
              "cell kinds must fit the event code's 6-bit kind field");
constexpr TimePs kNoEvent = ~TimePs{0};
constexpr std::uint32_t kNil = ~std::uint32_t{0};

// ----- storage -----------------------------------------------------------

/// Order-preserving buffer of trivially copyable records: the first N
/// live inline, more move to one heap block that is kept (and reused)
/// until the owner dies.  Pinned in place (data_ may point at inline_).
template <class T, std::uint32_t N>
class InlineBuffer {
public:
    InlineBuffer() = default;
    InlineBuffer(const InlineBuffer&) = delete;
    InlineBuffer& operator=(const InlineBuffer&) = delete;
    ~InlineBuffer() {
        if (data_ != inline_) delete[] data_;
    }

    [[nodiscard]] T* begin() noexcept { return data_; }
    [[nodiscard]] T* end() noexcept { return data_ + size_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    void clear() noexcept { size_ = 0; }

    void push_back(const T& value) {
        if (size_ == capacity_) grow();
        data_[size_++] = value;
    }
    void erase(T* it) noexcept {
        std::copy(it + 1, end(), it);
        --size_;
    }
    template <class Pred>
    void erase_if(Pred pred) noexcept {
        size_ = static_cast<std::uint32_t>(std::remove_if(begin(), end(), pred) -
                                           begin());
    }

private:
    void grow() {
        T* bigger = new T[std::size_t{capacity_} * 2];
        std::copy(begin(), end(), bigger);
        if (data_ != inline_) delete[] data_;
        data_ = bigger;
        capacity_ *= 2;
    }

    T* data_ = inline_;
    std::uint32_t size_ = 0;
    std::uint32_t capacity_ = N;
    T inline_[N];
};

// ----- lane words --------------------------------------------------------

template <unsigned W>
struct LW {
    std::uint64_t w[W];
};

template <unsigned W>
[[nodiscard]] inline bool lw_none(const LW<W>& x) noexcept {
    std::uint64_t acc = 0;
    for (unsigned i = 0; i < W; ++i) acc |= x.w[i];
    return acc == 0;
}

template <unsigned W>
[[nodiscard]] inline std::uint64_t lw_popcount(const LW<W>& x) noexcept {
    std::uint64_t n = 0;
    for (unsigned i = 0; i < W; ++i)
        n += static_cast<std::uint64_t>(std::popcount(x.w[i]));
    return n;
}

template <unsigned W>
[[nodiscard]] inline LW<W> lw_and(const LW<W>& a, const LW<W>& b) noexcept {
    LW<W> r;
    for (unsigned i = 0; i < W; ++i) r.w[i] = a.w[i] & b.w[i];
    return r;
}

template <unsigned W>
[[nodiscard]] inline LW<W> lw_andnot(const LW<W>& a, const LW<W>& b) noexcept {
    LW<W> r;
    for (unsigned i = 0; i < W; ++i) r.w[i] = a.w[i] & ~b.w[i];
    return r;
}

template <unsigned W>
[[nodiscard]] inline LW<W> lw_xor(const LW<W>& a, const LW<W>& b) noexcept {
    LW<W> r;
    for (unsigned i = 0; i < W; ++i) r.w[i] = a.w[i] ^ b.w[i];
    return r;
}

template <unsigned W>
inline void lw_or_eq(LW<W>& a, const LW<W>& b) noexcept {
    for (unsigned i = 0; i < W; ++i) a.w[i] |= b.w[i];
}

template <unsigned W>
inline void lw_andnot_eq(LW<W>& a, const LW<W>& b) noexcept {
    for (unsigned i = 0; i < W; ++i) a.w[i] &= ~b.w[i];
}

/// dst = (dst & ~mask) | (val & mask)
template <unsigned W>
inline void lw_merge(LW<W>& dst, const LW<W>& val, const LW<W>& mask) noexcept {
    for (unsigned i = 0; i < W; ++i)
        dst.w[i] = (dst.w[i] & ~mask.w[i]) | (val.w[i] & mask.w[i]);
}

template <unsigned W>
[[nodiscard]] inline LW<W> lw_splat(std::uint64_t v) noexcept {
    LW<W> r;
    for (unsigned i = 0; i < W; ++i) r.w[i] = v;
    return r;
}

/// Wide evaluation with the kind switch hoisted out of the word loop
/// (netlist::eval_cell_word would re-dispatch per 64-lane word).  `p`
/// points at the cell's 3 pin words; bit-for-bit eval_cell_word per word.
template <unsigned W>
[[nodiscard]] inline LW<W> eval_cell_lw(netlist::CellKind kind,
                                        const LW<W>* p) noexcept {
    using netlist::CellKind;
    LW<W> r;
    switch (kind) {
        case CellKind::Input:
        case CellKind::Buf:
        case CellKind::DelayBuf:
        case CellKind::Dff:
            r = p[0];
            break;
        case CellKind::Const0:
            r = LW<W>{};
            break;
        case CellKind::Const1:
            r = lw_splat<W>(~std::uint64_t{0});
            break;
        case CellKind::Inv:
            for (unsigned i = 0; i < W; ++i) r.w[i] = ~p[0].w[i];
            break;
        case CellKind::And2:
            for (unsigned i = 0; i < W; ++i) r.w[i] = p[0].w[i] & p[1].w[i];
            break;
        case CellKind::Nand2:
            for (unsigned i = 0; i < W; ++i) r.w[i] = ~(p[0].w[i] & p[1].w[i]);
            break;
        case CellKind::Or2:
            for (unsigned i = 0; i < W; ++i) r.w[i] = p[0].w[i] | p[1].w[i];
            break;
        case CellKind::Nor2:
            for (unsigned i = 0; i < W; ++i) r.w[i] = ~(p[0].w[i] | p[1].w[i]);
            break;
        case CellKind::Xor2:
            for (unsigned i = 0; i < W; ++i) r.w[i] = p[0].w[i] ^ p[1].w[i];
            break;
        case CellKind::Xnor2:
            for (unsigned i = 0; i < W; ++i) r.w[i] = ~(p[0].w[i] ^ p[1].w[i]);
            break;
        case CellKind::Orn2:
            for (unsigned i = 0; i < W; ++i) r.w[i] = p[0].w[i] | ~p[1].w[i];
            break;
        case CellKind::SecAnd3:
            for (unsigned i = 0; i < W; ++i)
                r.w[i] = (p[0].w[i] & p[1].w[i]) ^ (p[0].w[i] | ~p[2].w[i]);
            break;
        case CellKind::Mux2:
            for (unsigned i = 0; i < W; ++i)
                r.w[i] = (p[2].w[i] & p[1].w[i]) | (~p[2].w[i] & p[0].w[i]);
            break;
        default:
            r = LW<W>{};
            break;
    }
    return r;
}

// ----- the wide-lane engine ----------------------------------------------

template <unsigned W>
class CompiledEngine final : public CompiledEngineBase {
public:
    explicit CompiledEngine(std::shared_ptr<const CompiledProgram> program)
        : program_(std::move(program)),
          p_(program_.get()),
          cells_(p_->n_cells) {
        const std::size_t n = p_->n_cells;
        if (n >= (std::size_t{1} << 24))
            throw std::invalid_argument(
                "CompiledEngine: more than 2^24 cells (event cell/pin "
                "packing)");
        for (CellId id = 0; id < n; ++id) {
            cells_[id].gate_ps = p_->gate_ps[id];
            cells_[id].inertial_window = p_->inertial_window[id];
        }
        pin_val_.resize(p_->pin_base[n]);
        ring_mask_ = p_->ring_size - 1;
        heads_.assign(p_->ring_size, SlotHead{0, kNil});
        inline_.resize(p_->ring_size * kInline);
        occ_.assign(p_->ring_size / 64, 0);
        for (unsigned c = 0; c < W; ++c) views_[c].bind(this, c);
        initialize();
    }

    [[nodiscard]] unsigned chunks() const noexcept override { return W; }

    void initialize() override {
        // O(pending): only occupied slots are released (none after a
        // run that drained its queue), never a sweep of the whole ring.
        if (wheel_count_ != 0) release_wheel();
        overflow_ = {};
        wheel_count_ = 0;
        live_ = 0;
        now_ = 0;
        seq_ = 0;
        window_epoch_ = 1;
        for (Batch& batch : batches_) batch.size = 0;
        const std::size_t n = p_->n_cells;
        for (auto& pv : pin_val_) pv = LW<W>{};
        for (CellId id = 0; id < n; ++id) {
            CellState& cs = cells_[id];
            const LW<W> v = lw_splat<W>(p_->settle_one[id] ? kAllLanes : 0);
            cs.out = v;
            cs.last_sched = v;
            cs.window_toggled = LW<W>{};
            cs.window_stamp = 0;
            cs.mark_max = 0;
            cs.pending.clear();
            cs.marks.clear();
        }
        for (CellId id = 0; id < n; ++id) {
            const unsigned pins = p_->pins[id];
            for (unsigned q = 0; q < pins; ++q)
                pin_val_[p_->pin_base[id] + q] = cells_[p_->in[id * 3 + q]].out;
        }
    }

    void set_sink(unsigned chunk, BatchToggleSink* sink) noexcept override {
        // Every run flushes before it returns, so entries are left only
        // by a run that threw; like initialize(), drop them.
        batches_[chunk].size = 0;
        sinks_[chunk] = sink;
        batches_[chunk].partners =
            sink != nullptr ? sink->coupling_partners() : nullptr;
    }

    [[nodiscard]] const BatchWordView* chunk_view(
        unsigned chunk) const noexcept override {
        return &views_[chunk];
    }

    void drive_chunk(NetId source, unsigned chunk, std::uint64_t values,
                     std::uint64_t lanes, TimePs time) override {
        if (lanes == 0) return;
        check_drive_time(time);
        Pending p{};
        p.time = time;
        p.seq = seq_;
        p.lanes.w[chunk] = lanes;
        p.value.w[chunk] = values;
        cells_[source].pending.push_back(p);
        push_commit(source, time);
    }

    void drive_all(NetId source, bool value, TimePs time) override {
        check_drive_time(time);
        Pending p{};
        p.time = time;
        p.seq = seq_;
        p.lanes = lw_splat<W>(kAllLanes);
        p.value = lw_splat<W>(value ? kAllLanes : 0);
        cells_[source].pending.push_back(p);
        push_commit(source, time);
    }

    void sample_flops(const std::uint8_t* enable, const std::uint8_t* reset,
                      TimePs launch) override {
        // Same per-edge discipline as ClockedSim: reset beats enable,
        // the D pin is the wire-delayed view, and only changed lanes are
        // launched (flop order == drive order == seq order).
        for (const CompiledProgram::FlopInfo& flop : p_->flops) {
            const LW<W>& cur = cells_[flop.cell].out;
            LW<W> q;
            if (flop.reset != netlist::kAlwaysEnabled && reset[flop.reset] != 0)
                q = LW<W>{};
            else if (enable[flop.enable] != 0)
                q = pin_val_[p_->pin_base[flop.cell]];
            else
                q = cur;
            const LW<W> changed = lw_xor(q, cur);
            if (lw_none(changed)) continue;
            cells_[flop.cell].pending.push_back(
                Pending{launch, seq_, changed, q});
            push_commit(flop.cell, launch);
        }
    }

    void run_until(TimePs t_end) override {
        while (step_one_time(t_end)) {
        }
        flush_all();
        now_ = t_end;
    }

    TimePs run_to_quiescence() override {
        while (step_one_time(kNoEvent)) {
        }
        flush_all();
        return now_;
    }

    [[nodiscard]] std::uint64_t word(NetId net,
                                     unsigned chunk) const noexcept override {
        return cells_[net].out.w[chunk];
    }

    [[nodiscard]] std::uint64_t pin_word(CellId cell, unsigned pin,
                                         unsigned chunk) const noexcept override {
        return pin_val_[p_->pin_base[cell] + pin].w[chunk];
    }

    [[nodiscard]] TimePs now() const noexcept override { return now_; }

    void begin_activity_window() noexcept override { ++window_epoch_; }

    [[nodiscard]] telemetry::SimStats stats() const noexcept override {
        return telemetry::SimStats{processed_, toggles_, glitches_,
                                   inertial_cancels_, queue_peak_};
    }

private:
    // Events are the unit of queue traffic, so they carry the minimum: a
    // pin event needs only the toggle mask (per-edge FIFO delivery means
    // flipping exactly those lanes reproduces the old merge), and commit
    // events (output or source) carry nothing -- their lanes and target
    // value wait in CellState::pending, keyed by seq.  The time is the
    // ring slot's (every event in a slot shares one time, see push()), so
    // an Event is 16 B at W=1 / 40 B at W=4.
    struct Event {
        std::uint32_t seq;
        std::uint32_t code;  // (tag << 24) | cell, see kCommitTag
        LW<W> mask;          // pin event: lanes to flip; commits: unused
    };
    /// A ring slot's events past the inline ones: a circular singly
    /// linked FIFO through the spill pool, named by its tail (tail->next
    /// is the head); drained records return to a LIFO free list.
    struct Spilled {
        Event ev;
        std::uint32_t next;
    };
    struct SlotHead {
        std::uint32_t count;  // events in the slot
        std::uint32_t spill;  // spill FIFO tail, or kNil
    };
    /// Event records stored inline per slot: one cache line's worth, at
    /// least 2 (4 at W=1, 2 at W>=2).  A DES group's slot drains hold
    /// 1/2/3/4/5+ events 56/24/10/5/5% of the time, so 4 records cut
    /// the pushes that reach the spill pool from 21% (2 records) to 5%.
    static constexpr std::uint32_t kInline = std::max<std::uint32_t>(
        2, static_cast<std::uint32_t>(64 / sizeof(Event)));

    /// An event past the ring horizon, waiting in the overflow heap.
    struct Deferred {
        TimePs time;
        Event ev;
    };
    struct Pending {
        TimePs time;
        std::uint32_t seq;
        LW<W> lanes;
        LW<W> value;
    };
    struct Mark {
        TimePs when;
        LW<W> lanes;
    };
    struct Later {
        bool operator()(const Deferred& a, const Deferred& b) const noexcept {
            return (a.time != b.time) ? a.time > b.time : a.ev.seq > b.ev.seq;
        }
    };

    /// Every mutable per-cell field the event loop touches, contiguous.
    struct CellState {
        LW<W> out;             // committed output value
        LW<W> last_sched;      // last scheduled output value
        LW<W> window_toggled;  // lanes toggled in this activity window
        std::uint32_t window_stamp = 0;
        std::uint32_t gate_ps = 0;
        TimePs inertial_window = 0;
        TimePs mark_max = 0;  // >= every mark's `when`
        InlineBuffer<Pending, 2> pending;
        InlineBuffer<Mark, 1> marks;
    };

    /// One chunk's commits awaiting hand-over to its sink.
    struct Batch {
        ToggleEntry entries[kToggleBatch];
        const NetId* partners = nullptr;  // the sink's coupling partners
        std::uint32_t size = 0;
    };

    class ChunkView final : public BatchWordView {
    public:
        void bind(const CompiledEngine* engine, unsigned chunk) noexcept {
            engine_ = engine;
            chunk_ = chunk;
        }
        [[nodiscard]] std::uint64_t word(NetId net) const noexcept override {
            return engine_->cells_[net].out.w[chunk_];
        }

    private:
        const CompiledEngine* engine_ = nullptr;
        unsigned chunk_ = 0;
    };

    void check_drive_time(TimePs time) const {
        if (time < now_)
            throw std::invalid_argument(
                "CompiledEngine: drive in the past (the time-slot ring "
                "replays forward only)");
    }

    [[nodiscard]] std::uint32_t next_seq() {
        if (seq_ == std::numeric_limits<std::uint32_t>::max())
            throw std::runtime_error(
                "CompiledEngine: event sequence counter overflow");
        return seq_++;
    }

    // ----- time-slot ring ------------------------------------------------
    //
    // A push at `time` lands in slot time & ring_mask_ when it is within
    // the horizon (time - now_ <= ring_mask_), else in the overflow heap.
    // Every ring event lies in [now_, now_ + ring_mask_], so one slot only
    // ever holds events of a single time, in push (== seq) order: record
    // i < kInline inline, the rest in the slot's spill FIFO.

    [[nodiscard]] std::uint32_t alloc_spill() {
        if (free_ != kNil) {
            const std::uint32_t idx = free_;
            free_ = spill_[idx].next;
            return idx;
        }
        if (spill_.size() >= kNil)
            throw std::runtime_error("CompiledEngine: event pool overflow");
        spill_.emplace_back();
        return static_cast<std::uint32_t>(spill_.size() - 1);
    }

    /// Returns a slot's spill FIFO to the free list in O(1).
    void release_spill(SlotHead& head) noexcept {
        if (head.spill == kNil) return;
        const std::uint32_t first = spill_[head.spill].next;
        spill_[head.spill].next = free_;
        free_ = first;
        head.spill = kNil;
    }

    /// The record for the slot's next event (callers fill it at once: a
    /// later spill may move the pool).
    [[nodiscard, gnu::always_inline]] Event& append(std::size_t slot) {
        SlotHead& head = heads_[slot];
        const std::uint32_t i = head.count;
        ++wheel_count_;
        occ_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
        if (i < kInline) {
            head.count = i + 1;
            return inline_[slot * kInline + i];
        }
        const std::uint32_t idx = alloc_spill();
        if (head.spill == kNil) {
            spill_[idx].next = idx;
        } else {
            spill_[idx].next = spill_[head.spill].next;
            spill_[head.spill].next = idx;
        }
        head.spill = idx;
        head.count = i + 1;
        return spill_[idx].ev;
    }

    /// The slot's events in order (rare path: overflow migration).
    void collect(std::size_t slot, std::vector<Event>& out) const {
        const SlotHead& head = heads_[slot];
        out.clear();
        std::uint32_t cursor = head.spill;  // tail; ->next is the head
        for (std::uint32_t i = 0; i < head.count; ++i) {
            if (i < kInline) {
                out.push_back(inline_[slot * kInline + i]);
            } else {
                cursor = spill_[cursor].next;
                out.push_back(spill_[cursor].ev);
            }
        }
    }

    /// Places an overflow event migrating into `slot` at its seq position:
    /// same-time pushes queued while it waited in the heap carry larger
    /// seqs and must stay behind it.
    void insert_sorted(std::size_t slot, const Event& ev) {
        SlotHead& head = heads_[slot];
        std::vector<Event> events;
        collect(slot, events);
        if (events.empty() || events.back().seq < ev.seq) {
            append(slot) = ev;
            return;
        }
        events.insert(std::upper_bound(events.begin(), events.end(), ev,
                                       [](const Event& a, const Event& b) {
                                           return a.seq < b.seq;
                                       }),
                      ev);
        wheel_count_ -= head.count;
        head.count = 0;
        release_spill(head);
        for (const Event& e : events) append(slot) = e;
    }

    [[gnu::always_inline]] void push(TimePs time, std::uint32_t code,
                                     const LW<W>* mask) {
        const std::uint32_t seq = next_seq();
        ++live_;
        if (live_ > queue_peak_) queue_peak_ = live_;
        if (time - now_ <= ring_mask_) {
            Event& ev = append(time & ring_mask_);
            ev.seq = seq;
            ev.code = code;
            if (mask != nullptr) ev.mask = *mask;
        } else {
            Deferred d{time, Event{seq, code, {}}};
            if (mask != nullptr) d.ev.mask = *mask;
            overflow_.push(d);
        }
    }

    /// Commit event: lanes/value live in CellState::pending under this
    /// seq, so the event's mask stays unwritten (and unread).
    [[gnu::always_inline]] void push_commit(CellId cell, TimePs time) {
        push(time, (kCommitTag << 24) | cell, nullptr);
    }

    [[gnu::always_inline]] void push_pin_event(
        const CompiledProgram::FanoutEdge& edge, TimePs time,
        const LW<W>& mask) {
        const std::uint32_t tag =
            (static_cast<std::uint32_t>(edge.kind) << 2) | edge.pin;
        push(time, (tag << 24) | edge.cell, &mask);
    }

    /// Empties every occupied slot (restart with events still queued):
    /// walks the occupancy bitmap, so the cost is the occupied slots, not
    /// the ring size.
    void release_wheel() noexcept {
        for (std::size_t w = 0; w < occ_.size(); ++w) {
            for (std::uint64_t bits = occ_[w]; bits != 0; bits &= bits - 1) {
                const std::size_t slot =
                    (w << 6) + static_cast<std::size_t>(std::countr_zero(bits));
                heads_[slot].count = 0;
                release_spill(heads_[slot]);
            }
            occ_[w] = 0;
        }
        wheel_count_ = 0;
    }

    /// Earliest occupied slot time >= now_ (valid only when the wheel is
    /// non-empty): word-wise circular scan of the occupancy bitmap.
    [[nodiscard]] TimePs next_wheel_time() const noexcept {
        const std::size_t i0 = now_ & ring_mask_;
        const std::size_t nwords = occ_.size();
        std::size_t word_idx = i0 >> 6;
        std::uint64_t w = occ_[word_idx] & (~std::uint64_t{0} << (i0 & 63));
        for (std::size_t k = 0; k <= nwords; ++k) {
            if (w != 0) {
                const std::size_t slot =
                    (word_idx << 6) +
                    static_cast<std::size_t>(std::countr_zero(w));
                return now_ + ((slot - i0) & ring_mask_);
            }
            word_idx = word_idx + 1 == nwords ? 0 : word_idx + 1;
            w = occ_[word_idx];
        }
        return kNoEvent;  // unreachable while wheel_count_ > 0
    }

    void migrate_overflow() {
        while (!overflow_.empty() && overflow_.top().time - now_ <= ring_mask_) {
            const Deferred d = overflow_.top();
            overflow_.pop();
            insert_sorted(d.time & ring_mask_, d.ev);
        }
    }

    /// Processes every event at the next event time if it is < t_end.
    bool step_one_time(TimePs t_end) {
        TimePs t = kNoEvent;
        if (wheel_count_ != 0) t = next_wheel_time();
        if (!overflow_.empty() && overflow_.top().time < t)
            t = overflow_.top().time;
        if (t >= t_end) return false;
        now_ = t;
        migrate_overflow();
        const std::size_t slot = t & ring_mask_;
        SlotHead& head = heads_[slot];
        const Event* const inline_events = &inline_[slot * kInline];
        // Walk the slot in order until its count is reached: same-time
        // pushes during the drain append behind and run in this pass
        // (push order == seq order, exactly the heap's (time, seq)
        // order).  Records stay put until the slot is emptied, but a push
        // may move the spill pool, so the fields a handler needs are
        // copied out before it runs.
        std::uint32_t cursor = kNil;  // the spill record being drained
        for (std::uint32_t i = 0; i < head.count; ++i) {
            const Event* ev = &inline_events[i];
            if (i >= kInline) {
                // The FIFO may have been started by this very drain, so
                // its head is read when the walk gets there.
                cursor = spill_[i == kInline ? head.spill : cursor].next;
                ev = &spill_[cursor].ev;
            }
            const std::uint32_t seq = ev->seq;
            const std::uint32_t code = ev->code;
            ++processed_;
            --live_;
            const CellId cell = code & 0xFFFFFFu;
            const std::uint32_t tag = code >> 24;
            if ((tag & 3u) == 3u) {
                commit_output(cell, t, seq);
            } else {
                const LW<W> mask = ev->mask;
                update_pin(cell, tag & 3u,
                           static_cast<netlist::CellKind>(tag >> 2), t, mask);
            }
        }
        wheel_count_ -= head.count;
        head.count = 0;
        release_spill(head);
        occ_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
        return true;
    }

    // ----- batched commit delivery --------------------------------------

    void flush(unsigned chunk) {
        Batch& batch = batches_[chunk];
        const std::uint32_t n = batch.size;
        if (n == 0) return;
        batch.size = 0;
        sinks_[chunk]->on_toggles(std::span<const ToggleEntry>(batch.entries, n));
    }

    void flush_all() {
        for (unsigned c = 0; c < W; ++c) flush(c);
    }

    // ----- per-lane commit discipline -----------------------------------

    [[gnu::always_inline]] void schedule_group(CellId cell, const LW<W>& value,
                                               const LW<W>& lanes,
                                               TimePs when) {
        CellState& cs = cells_[cell];
        LW<W> cancelled{};
        if (p_->inertial_filtering && !cs.pending.empty()) {
            LW<W> to_check = lanes;
            for (Pending* it = cs.pending.end();
                 it != cs.pending.begin() && !lw_none(to_check);) {
                --it;
                const LW<W> m = lw_and(to_check, it->lanes);
                if (lw_none(m)) continue;
                if (when >= it->time && when - it->time < cs.inertial_window) {
                    lw_andnot_eq(it->lanes, m);
                    lw_or_eq(cancelled, m);
                }
                lw_andnot_eq(to_check, m);
            }
            inertial_cancels_ += lw_popcount(cancelled);
        }

        lw_merge(cs.last_sched, value, lanes);
        bool merged = false;
        for (Mark& mark : cs.marks) {
            lw_andnot_eq(mark.lanes, lanes);
            if (mark.when == when) {
                lw_or_eq(mark.lanes, lanes);
                merged = true;
            }
        }
        if (!merged) {
            cs.marks.push_back(Mark{when, lanes});
            if (when > cs.mark_max) cs.mark_max = when;
        }

        const LW<W> survivors = lw_andnot(lanes, cancelled);
        if (lw_none(survivors)) return;
        cs.pending.push_back(Pending{when, seq_, survivors, value});
        push_commit(cell, when);
    }

    [[gnu::always_inline]] void schedule_output(CellId cell, const LW<W>& value,
                                                const LW<W>& changed,
                                                TimePs at) {
        CellState& cs = cells_[cell];
        if (cs.mark_max < at) {
            // Every mark is older than `at`, so the erase in
            // schedule_marked would drop them all: nothing is covered.
            cs.marks.clear();
            schedule_group(cell, value, changed, at == 0 ? 1 : at);
            return;
        }
        schedule_marked(cell, value, changed, at);
    }

    /// schedule_output's rare path (0.04% of a DES group's calls): some
    /// mark may still cover a changed lane.  Kept out of line so its
    /// four schedule_group copies stay out of the drain.
    [[gnu::noinline]] void schedule_marked(CellId cell, const LW<W>& value,
                                           const LW<W>& changed, TimePs at) {
        auto& marks = cells_[cell].marks;
        marks.erase_if([at](const Mark& mark) {
            return mark.when < at || lw_none(mark.lanes);
        });

        LW<W> covered{};
        for (const Mark& mark : marks) lw_or_eq(covered, mark.lanes);
        covered = lw_and(covered, changed);

        const LW<W> unmarked = lw_andnot(changed, covered);

        if (lw_none(covered)) {
            schedule_group(cell, value, unmarked, at == 0 ? 1 : at);
            return;
        }

        struct Group {
            TimePs when;
            LW<W> lanes;
        };
        Group groups[8];
        std::size_t n_groups = 0;
        std::vector<Group> spill;
        LW<W> left = covered;
        while (!lw_none(left)) {
            TimePs newest = 0;
            for (const Mark& mark : marks)
                if (!lw_none(lw_and(mark.lanes, left)) && mark.when >= newest)
                    newest = mark.when;
            LW<W> lanes_at_newest{};
            for (const Mark& mark : marks)
                if (mark.when == newest)
                    lw_or_eq(lanes_at_newest, lw_and(mark.lanes, left));
            if (n_groups < 8)
                groups[n_groups++] = Group{newest + 1, lanes_at_newest};
            else
                spill.push_back(Group{newest + 1, lanes_at_newest});
            lw_andnot_eq(left, lanes_at_newest);
        }
        for (std::size_t i = 0; i < n_groups; ++i)
            schedule_group(cell, value, groups[i].lanes, groups[i].when);
        for (const Group& group : spill)
            schedule_group(cell, value, group.lanes, group.when);
        if (!lw_none(unmarked))
            schedule_group(cell, value, unmarked, at == 0 ? 1 : at);
    }

    void commit_output(CellId cell, TimePs time, std::uint32_t seq) {
        CellState& cs = cells_[cell];
        LW<W> lanes{};
        LW<W> value{};
        for (Pending* it = cs.pending.begin(); it != cs.pending.end(); ++it) {
            if (it->seq == seq) {
                lanes = it->lanes;
                value = it->value;
                cs.pending.erase(it);
                break;
            }
        }
        const LW<W> toggled = lw_and(lanes, lw_xor(cs.out, value));
        if (lw_none(toggled)) return;
        toggles_ += lw_popcount(toggled);
        if (cs.window_stamp == window_epoch_) {
            glitches_ += lw_popcount(lw_and(toggled, cs.window_toggled));
            lw_or_eq(cs.window_toggled, toggled);
        } else {
            cs.window_stamp = window_epoch_;
            cs.window_toggled = toggled;
        }
        lw_merge(cs.out, value, toggled);
        for (unsigned c = 0; c < W; ++c) {
            if (toggled.w[c] == 0 || sinks_[c] == nullptr) continue;
            Batch& batch = batches_[c];
            ToggleEntry& e = batch.entries[batch.size];
            e.net = cell;
            e.time = time;
            e.values = cs.out.w[c];
            e.toggled = toggled.w[c];
            e.partner = 0;
            if (batch.partners != nullptr) {
                const NetId partner = batch.partners[cell];
                if (partner != netlist::kNoNet)
                    e.partner = cells_[partner].out.w[c];
            }
            if (++batch.size == kToggleBatch) flush(c);
        }
        const std::uint32_t fb = p_->fanout_begin[cell];
        const std::uint32_t fe = p_->fanout_begin[cell + 1];
        for (std::uint32_t f = fb; f < fe; ++f) {
            const CompiledProgram::FanoutEdge& edge = p_->fanout[f];
            push_pin_event(edge, time + edge.wire_ps, toggled);
        }
    }

    void update_pin(CellId cell, unsigned pin, netlist::CellKind kind,
                    TimePs time, const LW<W>& mask) {
        // Per-edge FIFO delivery (fixed wire delay + seq tiebreak) means
        // the slot's masked bits still hold the source's pre-commit
        // value, so flipping exactly the toggled lanes reproduces the
        // merge of the committed value.
        const std::uint32_t base = p_->pin_base[cell];
        LW<W>& slot = pin_val_[base + pin];
        for (unsigned i = 0; i < W; ++i) slot.w[i] ^= mask.w[i];
        if (kind == netlist::CellKind::Dff) return;

        const LW<W> value = eval_cell_lw<W>(kind, &pin_val_[base]);
        CellState& cs = cells_[cell];
        const LW<W> changed = lw_xor(value, cs.last_sched);
        if (lw_none(changed)) return;
        schedule_output(cell, value, changed, time + cs.gate_ps);
    }

    std::shared_ptr<const CompiledProgram> program_;
    const CompiledProgram* p_;

    std::vector<CellState> cells_;  // sized once: CellState is pinned
    std::vector<LW<W>> pin_val_;

    std::vector<SlotHead> heads_;  // per slot: count + spill FIFO tail
    std::vector<Event> inline_;    // per slot: kInline records
    std::vector<Spilled> spill_;   // spill pool
    std::uint32_t free_ = kNil;      // LIFO free list through Spilled::next
    std::vector<std::uint64_t> occ_;
    std::size_t ring_mask_ = 0;
    std::size_t wheel_count_ = 0;
    std::size_t live_ = 0;
    std::priority_queue<Deferred, std::vector<Deferred>, Later> overflow_;

    BatchToggleSink* sinks_[W] = {};
    ChunkView views_[W];
    Batch batches_[W];

    std::uint32_t seq_ = 0;
    TimePs now_ = 0;
    std::size_t processed_ = 0;

    std::uint64_t toggles_ = 0;
    std::uint64_t glitches_ = 0;
    std::uint64_t inertial_cancels_ = 0;
    std::uint64_t queue_peak_ = 0;
    std::uint32_t window_epoch_ = 1;
};

}  // namespace

std::unique_ptr<CompiledEngineBase> make_engine(
    std::shared_ptr<const CompiledProgram> program, unsigned chunks) {
    switch (chunks) {
        case 1:
            return std::make_unique<CompiledEngine<1>>(std::move(program));
        case 2:
            return std::make_unique<CompiledEngine<2>>(std::move(program));
        case 4:
            return std::make_unique<CompiledEngine<4>>(std::move(program));
        case 8:
            return std::make_unique<CompiledEngine<8>>(std::move(program));
        default:
            throw std::invalid_argument(
                "make_compiled_engine: chunks must be 1/2/4/8");
    }
}

}  // namespace GLITCHMASK_ENGINE_VARIANT
}  // namespace glitchmask::sim
