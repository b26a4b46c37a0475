// Compiled-netlist replay: the wide-lane simulation engine.
//
// All wire and gate delays in the DelayModel are static and data
// *independent* -- the very property the paper's gadgets are built on --
// so the set of potential event times, and therefore the whole
// scheduling structure, is identical across the traces of a campaign.
// This engine exploits that twice:
//
//   * bitslicing: every net and pin holds lane words (bit l = the value in
//     trace l), gates re-evaluate with word-parallel Boolean ops, and one
//     event is scheduled whenever *any* lane changes, so event traffic,
//     pin bookkeeping and cell evaluations are amortized over 64..512
//     traces per pass (LW<W> lane-word arrays, W = 1/2/4/8 chunks);
//   * compilation: the structure is compiled once per (netlist, delay
//     model, SimOptions) into a flat CompiledProgram -- levelized settle
//     order, per-cell gate delay / inertial window, a CSR fanout table
//     with the wire delay baked into each edge -- and events live in a
//     power-of-two ring of FIFO time slots instead of a priority queue.
//     Every push lands at most one wire hop, one gate delay plus bump
//     slack, or clk-to-Q past the current time, so each push/pop is O(1)
//     and FIFO order within a slot *is* (time, seq) order.  A tiny overflow heap catches
//     pushes beyond the ring horizon (never hit by the clocked drivers;
//     correctness never depends on the ring size).
//
// Equivalence contract: each lane's committed waveform is bit-identical
// to a scalar EventSimulator run of that lane's stimulus, at every width
// (tests/batch_sim_test.cpp at 64 lanes, tests/compiled_sim_test.cpp at
// 128..512 lanes and on DES).  The mechanisms that could diverge per lane
// are all carried as lane masks (sim/compiled_engine_impl.h owns them):
//   * a schedule only covers the lanes whose evaluation actually changed;
//   * the per-cell monotonic commit guard ("a later evaluation must not
//     commit before an earlier one") is per lane: recent schedule times
//     are kept as (time, lane-mask) marks and same-timestamp bursts split
//     into per-`when` groups exactly as the scalar +1 bump does per lane;
//   * inertial pulse filtering cancels pending commits per lane by
//     clearing lane bits; a commit applies only to the surviving lanes.
// Sinks attach per 64-lane chunk (BatchToggleSink + BatchWordView per
// chunk), so BatchPowerRecorder / BatchAttributionProbe see one 64-lane
// word at a time whatever the width; the engine hands each chunk's
// commits over in batches (ToggleEntry spans, see BatchToggleSink).
//
// Programs are shared through a process-wide registry keyed by a
// structural fingerprint of (cells, delays, SimOptions): the engines of a
// campaign's workers share one immutable program (shared_ptr) instead of
// recompiling, and a program dies with its last engine.
//
// Not supported: timing coupling (CouplingConfig::timing_enabled) makes
// DelayBuf delays depend on a *neighbour's data*, which breaks the
// shared-schedule premise -- the constructor rejects it and campaigns
// fall back to the scalar EventSimulator (eval/ owns that policy).
// Energy coupling is fine: it only reads committed lane values
// (power/batch_power.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/clocked.hpp"
#include "sim/delay_model.hpp"
#include "sim/simulator.hpp"
#include "support/telemetry_types.hpp"

namespace glitchmask::sim {

/// Lanes per chunk: one bit of a 64-bit lane word per trace.
inline constexpr unsigned kBatchLanes = 64;

/// All-lanes mask.
inline constexpr std::uint64_t kAllLanes = ~std::uint64_t{0};

/// One committed lane-word transition of a 64-lane chunk.  `values` is
/// the full lane word after the commit, `toggled` marks the lanes that
/// changed, and `partner` is the committed lane word of the net's
/// coupling partner at that instant (0 unless the receiving sink declares
/// a partner table and the net has a partner).
struct ToggleEntry {
    NetId net;
    TimePs time;
    std::uint64_t values;
    std::uint64_t toggled;
    std::uint64_t partner;
};

/// Commits the lane engine buffers per chunk before handing them over.
inline constexpr std::size_t kToggleBatch = 256;

/// Observer for committed lane-word transitions of one 64-lane chunk.
///
/// The lane engine delivers in batches: commits are buffered per chunk
/// and handed over through on_toggles() when the buffer is full and at
/// the end of every run_until / run_to_quiescence -- always in commit
/// order, so a sink sees exactly the stream it would see one
/// commit at a time, only later.  The default on_toggles() forwards entry
/// by entry to on_toggle(), so a sink that only needs the stream
/// overrides on_toggle() alone.  A sink whose reaction depends on engine
/// state at commit time must not read it back at delivery time: the one
/// such input, the coupling partner's lane word, is captured into each
/// entry for sinks that declare their partner table.
class BatchToggleSink {
public:
    virtual ~BatchToggleSink() = default;
    virtual void on_toggle(NetId net, TimePs time, std::uint64_t values,
                           std::uint64_t toggled) = 0;
    /// The engine's one delivery call: the chunk's commits since the last
    /// hand-over, in commit order (commit times never decrease).
    virtual void on_toggles(std::span<const ToggleEntry> batch) {
        for (const ToggleEntry& e : batch)
            on_toggle(e.net, e.time, e.values, e.toggled);
    }
    /// Net -> coupling-partner table (netlist::kNoNet = none) whose lane
    /// words the engine captures into ToggleEntry::partner, or nullptr
    /// for none.  Read once, when the sink is attached; must stay valid
    /// while it is.
    [[nodiscard]] virtual const NetId* coupling_partners() const noexcept {
        return nullptr;
    }
};

/// Read-only lane-word view of one chunk's committed net values -- the
/// seam the energy-coupling power model taps (power/batch_power.hpp).
class BatchWordView {
public:
    virtual ~BatchWordView() = default;
    [[nodiscard]] virtual std::uint64_t word(NetId net) const noexcept = 0;
};

/// Widest supported lane word: 8 x 64 = 512 traces per pass.
inline constexpr unsigned kMaxLaneChunks = 8;

/// Immutable replay program for one (netlist, delay model, SimOptions)
/// triple.  Everything the inner loop touches lives in flat arrays; the
/// program holds no reference to the Netlist or DelayModel it was
/// compiled from and is shared across engines via shared_ptr.
struct CompiledProgram {
    struct FanoutEdge {
        CellId cell;
        std::uint8_t pin;
        netlist::CellKind kind;  // the target's kind, so a pin event
                                 // needs no per-cell kind lookup
        std::uint32_t wire_ps;   // DelayModel::wire_delay baked in
    };
    struct FlopInfo {
        CellId cell;
        netlist::CtrlGroup enable;
        netlist::CtrlGroup reset;
    };

    std::uint64_t key = 0;  // structural fingerprint (cache key)
    std::size_t n_cells = 0;

    std::vector<netlist::CellKind> kind;
    std::vector<std::uint8_t> pins;        // pin_count(kind)
    std::vector<NetId> in;                 // 3 per cell (kNoNet padded)
    std::vector<std::uint32_t> pin_base;   // CSR into the packed pin state
                                           // (n_cells + 1; most cells have
                                           // 1-2 pins, so packing nearly
                                           // halves the engine's pin array)
    std::vector<std::uint32_t> gate_ps;
    std::vector<TimePs> inertial_window;   // same rounding as EventSimulator
    std::vector<std::uint8_t> settle_one;  // all-sources-low steady state

    std::vector<std::uint32_t> fanout_begin;  // CSR, n_cells + 1 entries
    std::vector<FanoutEdge> fanout;
    std::vector<FlopInfo> flops;

    std::uint32_t clk_to_q = 0;
    unsigned max_ctrl_group = 0;
    bool inertial_filtering = true;

    /// Time-slot ring size (power of two): covers the longest possible
    /// push offset (the largest of wire, gate + bump slack and clk-to-Q),
    /// so in practice every event lands in the ring.
    std::size_t ring_size = 0;
};

/// Compiles the replay program for the triple, or shares the one a live
/// engine already holds.  Programs are not kept past their last holder
/// (compiling costs well under a millisecond even for the DES core).
/// Throws std::invalid_argument on an unfrozen netlist.
[[nodiscard]] std::shared_ptr<const CompiledProgram> compile_netlist(
    const netlist::Netlist& nl, const DelayModel& dm, SimOptions options = {});

struct CompiledCacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::size_t entries = 0;  // programs alive right now
};
[[nodiscard]] CompiledCacheStats compiled_program_cache_stats();
void clear_compiled_program_cache();

/// Type-erased wide-lane engine (W is a template parameter of the
/// implementation; virtual dispatch sits only at coarse call sites --
/// drives, clock edges, run_until -- never inside the event loop).
class CompiledEngineBase {
public:
    virtual ~CompiledEngineBase() = default;

    [[nodiscard]] virtual unsigned chunks() const noexcept = 0;

    /// Consistent steady state for "all sources low" in every lane; no
    /// toggles emitted, time reset to 0.
    virtual void initialize() = 0;

    /// Per-chunk toggle sink: chunk c observes lanes [64c, 64c+64).
    virtual void set_sink(unsigned chunk, BatchToggleSink* sink) noexcept = 0;

    /// Lane-word view of one chunk (energy-coupling tap for
    /// BatchPowerRecorder).  Stable for the engine's lifetime.
    [[nodiscard]] virtual const BatchWordView* chunk_view(
        unsigned chunk) const noexcept = 0;

    /// Drives a source net in one 64-lane chunk.  Throws
    /// std::invalid_argument for a drive in the past.
    virtual void drive_chunk(NetId source, unsigned chunk, std::uint64_t values,
                             std::uint64_t lanes, TimePs time) = 0;
    /// Broadcast drive: every lane of every chunk to `value`.
    virtual void drive_all(NetId source, bool value, TimePs time) = 0;

    /// Samples all flops with the wire-delayed pin view (reset group
    /// beats enable group, exactly like ClockedSim) and launches the
    /// changed Q lanes at `launch`.  `enable`/`reset` index ctrl groups.
    virtual void sample_flops(const std::uint8_t* enable,
                              const std::uint8_t* reset, TimePs launch) = 0;

    virtual void run_until(TimePs t_end) = 0;
    virtual TimePs run_to_quiescence() = 0;

    [[nodiscard]] virtual std::uint64_t word(NetId net,
                                             unsigned chunk) const noexcept = 0;
    [[nodiscard]] virtual std::uint64_t pin_word(CellId cell, unsigned pin,
                                                 unsigned chunk) const noexcept = 0;

    [[nodiscard]] virtual TimePs now() const noexcept = 0;
    virtual void begin_activity_window() noexcept = 0;

    /// Per-lane accounting: toggle / glitch / cancel counts add up each
    /// lane individually, so their campaign sums equal the scalar
    /// engine's; events and queue peak measure the shared schedule.
    [[nodiscard]] virtual telemetry::SimStats stats() const noexcept = 0;
};

/// `chunks` in {1, 2, 4, 8}.
[[nodiscard]] std::unique_ptr<CompiledEngineBase> make_compiled_engine(
    std::shared_ptr<const CompiledProgram> program, unsigned chunks);

/// Cycle-level testbench driver around the compiled engine -- the
/// lane-word counterpart of ClockedSim with the identical control API
/// (enable/reset groups, pending primary inputs applied after the edge,
/// per-edge flop sampling through the wire-delayed pin view) plus a chunk
/// axis on the data path.  Control flow is shared across lanes; only data
/// is per lane.  Lanes = 64 * chunks.
class CompiledClockedSim {
public:
    /// `lanes` in {64, 128, 256, 512}.  Throws std::invalid_argument on
    /// other widths or when timing coupling is requested.
    CompiledClockedSim(const netlist::Netlist& nl, const DelayModel& dm,
                       unsigned lanes, ClockConfig clock = {},
                       CouplingConfig coupling = {}, SimOptions options = {});

    [[nodiscard]] unsigned chunks() const noexcept { return engine_->chunks(); }
    [[nodiscard]] unsigned lanes() const noexcept { return chunks() * 64u; }

    void set_enable(netlist::CtrlGroup group, bool enabled);
    void set_reset(netlist::CtrlGroup group, bool asserted);

    /// Per-chunk primary-input change for right after the next edge.
    void set_input_word(NetId input, unsigned chunk, std::uint64_t values);
    /// Broadcast form (same value in every lane of every chunk).
    void set_input(NetId input, bool value);

    void step(std::size_t cycles = 1);

    [[nodiscard]] std::uint64_t word(NetId net, unsigned chunk) const {
        return engine_->word(net, chunk);
    }
    [[nodiscard]] bool value(NetId net, unsigned lane) const {
        return ((engine_->word(net, lane / 64u) >> (lane % 64u)) & 1u) != 0;
    }
    [[nodiscard]] std::uint64_t pin_word(CellId cell, unsigned pin,
                                         unsigned chunk) const {
        return engine_->pin_word(cell, pin, chunk);
    }

    void set_sink(unsigned chunk, BatchToggleSink* sink) {
        engine_->set_sink(chunk, sink);
    }
    [[nodiscard]] const BatchWordView* chunk_view(unsigned chunk) const {
        return engine_->chunk_view(chunk);
    }

    [[nodiscard]] std::size_t cycle() const noexcept { return cycle_; }
    [[nodiscard]] TimePs period() const noexcept { return clock_.period_ps; }
    [[nodiscard]] CompiledEngineBase& engine() noexcept { return *engine_; }
    [[nodiscard]] const CompiledEngineBase& engine() const noexcept {
        return *engine_;
    }
    [[nodiscard]] telemetry::SimStats stats() const noexcept {
        return engine_->stats();
    }
    /// The shared replay program (cache-reuse checks in tests).
    [[nodiscard]] const std::shared_ptr<const CompiledProgram>& program()
        const noexcept {
        return program_;
    }

    void restart();

private:
    const netlist::Netlist& nl_;
    ClockConfig clock_;
    std::shared_ptr<const CompiledProgram> program_;
    std::unique_ptr<CompiledEngineBase> engine_;
    std::vector<std::uint8_t> enable_;
    std::vector<std::uint8_t> reset_;
    struct PendingInput {
        NetId net;
        std::uint8_t chunk;  // 0xFF = broadcast
        std::uint64_t values;
    };
    std::vector<PendingInput> pending_;
    std::size_t cycle_ = 0;
};

}  // namespace glitchmask::sim
