// Event-driven transport-delay logic simulation.
//
// The simulator propagates individual net transitions through the
// annotated netlist:
//   * a net commit at time t fans out as pin events at t + wire(cell,pin);
//   * a pin event re-evaluates its cell with the pin values *currently
//     visible at that cell* and schedules the output at t + gate(cell).
// Because different paths have different wire/gate delays, a gate whose
// inputs change "simultaneously" at a clock edge sees them arrive at
// different times and glitches exactly as real combinational logic does
// -- the physical effect the paper's gadgets are designed around.
//
// Two coupling effects (paper Sec. VII-C) can be enabled for nets that
// the netlist marked as physically adjacent (delay-chain stages):
//   * timing coupling: a DelayBuf transition scheduled while its neighbour
//     recently switched is pushed out (opposite direction, Miller) or
//     pulled in (same direction).  This occasionally re-orders the
//     carefully sequenced arrivals of secAND2-PD -- the paper's own
//     explanation for its residual first-order leakage;
//   * energy coupling is handled by the power model (power/power_model.hpp)
//     using the neighbour values this simulator exposes.
//
// Determinism: ties in the event queue break on insertion order, and all
// jitter comes from the seeded DelayModel, so a (netlist, seed, stimulus)
// triple always reproduces the same waveforms.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/delay_model.hpp"
#include "support/telemetry_types.hpp"

namespace glitchmask::sim {

/// Observer for committed net transitions (power models, waveform dumps,
/// leakage probes).
class ToggleSink {
public:
    virtual ~ToggleSink() = default;
    /// `net` committed `new_value` at `time`.
    virtual void on_toggle(NetId net, TimePs time, bool new_value) = 0;
};

struct CouplingConfig {
    bool timing_enabled = false;
    /// A neighbour transition within this window perturbs a DelayBuf.
    std::uint32_t window_ps = 400;
    /// Push-out when the neighbour switched in the opposite direction.
    std::uint32_t slowdown_ps = 250;
    /// Pull-in when the neighbour switched in the same direction.
    std::uint32_t speedup_ps = 120;
};

struct SimOptions {
    /// Inertial-delay pulse filtering: a gate swallows output pulses
    /// narrower than `inertial_factor` times its propagation delay, as
    /// real CMOS gates do.  Without it every reconvergence skew -- however
    /// tiny -- would produce a full-swing glitch, grossly overestimating
    /// switching activity.
    bool inertial_filtering = true;
    double inertial_factor = 1.0;
};

class EventSimulator {
public:
    EventSimulator(const Netlist& nl, const DelayModel& dm,
                   CouplingConfig coupling = {}, SimOptions options = {});

    /// Computes the consistent steady state for "all sources low"
    /// (inputs 0, flops 0, constants at their value) without emitting
    /// toggles; resets time to 0.  Mirrors the paper's "reset all
    /// registers to 0" starting condition.
    void initialize();

    void set_sink(ToggleSink* sink) noexcept { sink_ = sink; }

    /// Drives a source net (primary input or flop output) to `value` at
    /// `time`; the change propagates through the netlist as events.
    void drive(NetId source, bool value, TimePs time);

    /// Processes all events strictly before `t_end` and advances time.
    void run_until(TimePs t_end);

    /// Processes events until the queue drains; returns settle time.
    TimePs run_to_quiescence();

    [[nodiscard]] bool value(NetId net) const noexcept {
        return out_val_[net] != 0;
    }
    /// Input pin value as currently visible at `cell` (after wire delay);
    /// this is what a flop samples at a clock edge.
    [[nodiscard]] bool pin_value(CellId cell, unsigned pin) const noexcept {
        return pin_val_[cell * 3 + pin] != 0;
    }

    [[nodiscard]] TimePs now() const noexcept { return now_; }
    [[nodiscard]] std::size_t processed_events() const noexcept {
        return processed_;
    }
    [[nodiscard]] const Netlist& nl() const noexcept { return nl_; }

    /// Cumulative activity counters over the simulator's lifetime (like
    /// processed_events, they survive initialize()); the campaign runtime
    /// folds per-block deltas into the telemetry registry.  A *glitch* is
    /// a transient toggle: the 2nd+ commit of a net within the current
    /// activity window (one clock cycle under ClockedSim).
    [[nodiscard]] telemetry::SimStats stats() const noexcept {
        return telemetry::SimStats{processed_, toggles_, glitches_,
                                   inertial_cancels_, queue_peak_};
    }

    /// Starts a new glitch-accounting window (ClockedSim calls this at
    /// every clock edge).  Pure bookkeeping -- never affects simulation.
    void begin_activity_window() noexcept { window_start_ = now_; }

    /// Most recent committed transition on `net` (time, direction);
    /// exposed for the power model's coupling term.
    [[nodiscard]] TimePs last_toggle_time(NetId net) const noexcept {
        return last_toggle_[net];
    }

private:
    struct Event {
        TimePs time;
        std::uint64_t seq;
        CellId cell;
        std::uint8_t pin;     // 0xFF = gate output commit, 0xFE = source drive
        std::uint8_t value;
    };
    struct PendingCommit {
        TimePs time;
        std::uint64_t seq;
    };
    struct Later {
        bool operator()(const Event& a, const Event& b) const noexcept {
            return (a.time != b.time) ? a.time > b.time : a.seq > b.seq;
        }
    };

    void commit_output(const Event& ev);
    void update_pin(const Event& ev);
    void schedule_output(CellId cell, bool value, TimePs at);
    [[nodiscard]] std::uint32_t effective_gate_delay(CellId cell, bool new_value,
                                                     TimePs now) const;

    const Netlist& nl_;
    const DelayModel& dm_;
    CouplingConfig coupling_;
    SimOptions options_;
    ToggleSink* sink_ = nullptr;

    std::vector<std::uint8_t> out_val_;
    std::vector<std::uint8_t> pin_val_;        // 3 per cell
    std::vector<std::uint8_t> last_sched_out_; // last scheduled output value
    std::vector<TimePs> last_sched_time_;      // monotonic commit guard
    std::vector<std::vector<PendingCommit>> pending_;  // in-flight commits
    std::vector<TimePs> last_toggle_;
    std::vector<std::uint8_t> last_toggle_dir_;

    // First coupling partner per net (kNoNet when uncoupled).  Multiple
    // partners collapse to the first registered one -- adjacent chains in
    // this library are pairwise.
    std::vector<NetId> partner_;

    std::priority_queue<Event, std::vector<Event>, Later> queue_;
    std::uint64_t seq_ = 0;
    TimePs now_ = 0;
    std::size_t processed_ = 0;

    // Telemetry counters (see stats()); plain members, negligible cost.
    std::uint64_t toggles_ = 0;
    std::uint64_t glitches_ = 0;
    std::uint64_t inertial_cancels_ = 0;
    std::uint64_t queue_peak_ = 0;
    TimePs window_start_ = 0;  // glitch-accounting window (one clock cycle)
};

}  // namespace glitchmask::sim
