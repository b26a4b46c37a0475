// Sharded TVLA driver over the masked-AND gadget zoo -- the attribution
// engine's primary workload.
//
// bench/gadget_zoo runs the same experiment single-threaded for its
// ablation table; this driver puts the identical harness (16 replicated
// gadgets behind shared input registers, the zoo's 5-window drive
// schedule) on the deterministic sharded campaign engine, with the full
// crash-safe runtime and optional per-net leakage attribution.  That is
// what makes the paper's spatial argument checkable: attribute the
// Trichina campaign and the top-ranked net is the cross-domain product
// chain; attribute secAND2-FF/PD and no net crosses the threshold.
//
// The config is the shared CampaignSettings (eval/trace_campaign.hpp) at
// the zoo's campaign size and noise, plus the gadget and replica count;
// the result is the shared CampaignSummary plus the verdict.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/gadgets.hpp"
#include "eval/checkpoint.hpp"
#include "eval/trace_campaign.hpp"
#include "leakage/attribution.hpp"
#include "sim/clocked.hpp"
#include "support/thread_pool.hpp"

namespace glitchmask::eval {

/// The zoo's gadget selection (bench/gadget_zoo kZoo order).
enum class GadgetKind { Naive, Ff, Pd, Trichina, DomIndep, DomDep };

inline constexpr GadgetKind kAllGadgets[] = {
    GadgetKind::Naive, GadgetKind::Ff,       GadgetKind::Pd,
    GadgetKind::Trichina, GadgetKind::DomIndep, GadgetKind::DomDep,
};

/// Canonical CLI name ("naive", "ff", "pd", "trichina", "dom-indep",
/// "dom-dep").
[[nodiscard]] const char* gadget_name(GadgetKind kind) noexcept;

/// Parses a gadget selector; accepts the canonical names plus common
/// aliases ("secand2", "secand2-ff", "secand2_pd", ...).  nullopt on an
/// unknown name.
[[nodiscard]] std::optional<GadgetKind> parse_gadget(std::string_view name);

/// Fresh random input bits the gadget consumes per evaluation (at most
/// kMaxFreshBits).
[[nodiscard]] unsigned gadget_fresh_bits(GadgetKind kind) noexcept;

inline constexpr unsigned kMaxFreshBits = 3;

struct GadgetTvlaConfig : CampaignSettings {
    GadgetTvlaConfig()
        : CampaignSettings{.traces = 12000, .noise_sigma = 0.5} {}

    GadgetKind gadget = GadgetKind::Naive;
    unsigned replicas = 16;       // parallel instances (SNR, like the zoo)
    CampaignRunOptions run;       // checkpointing, reports, attribution
};

struct GadgetTvlaResult : CampaignSummary {
    GadgetKind gadget = GadgetKind::Naive;
    double max_abs_t1 = 0.0;
    std::size_t argmax_cycle = 0;
    double max_abs_t2 = 0.0;
    bool leaks_first_order = false;
};

/// Per-trace stimulus, a pure function of (seed, trace index): class
/// choice, the four input share values, and the gadget's fresh bits.
struct GadgetStimulus {
    bool fixed = false;
    std::array<bool, 4> shares{};  // x0, x1, y0, y1
    std::array<bool, kMaxFreshBits> fresh{};  // the first fresh_bits drawn
};

[[nodiscard]] GadgetStimulus gadget_stimulus(unsigned fresh_bits,
                                             std::uint64_t seed,
                                             std::size_t trace_index);

/// gadget_stimulus() of traces [first, first + count) packed into lane
/// words (count <= 512): lane l of words[i] is trace first + l's
/// shares[i] for i < 4 and fresh[i - 4] above (words holds 4 + fresh_bits
/// entries), lane l of `fixed` its class.  Lanes past count stay clear.
/// On AVX-512F+DQ hosts eight lanes draw at once
/// (pack_gadget_stimulus_avx512); elsewhere this loops over
/// gadget_stimulus().
void pack_gadget_stimulus(unsigned fresh_bits, std::uint64_t seed,
                          std::size_t first, unsigned count,
                          std::span<LaneWords> words, LaneWords& fixed);
#if defined(GLITCHMASK_HAVE_AVX512)
/// `stream` is mix64(seed, kStimulusStream).
void pack_gadget_stimulus_avx512(unsigned fresh_bits, std::uint64_t stream,
                                 std::size_t first, unsigned count,
                                 std::span<LaneWords> words, LaneWords& fixed);
#endif

/// Lane form of a gadget's input load: packs the group's stimulus
/// (pack_gadget_stimulus) onto `inputs` (x0, x1, y0, y1, then the fresh
/// bits), marks the fixed-class lanes and starts the group.  The caller
/// runs the drive schedule.
void load_gadget_lanes(LaneGroup& group,
                       std::span<const netlist::NetId> inputs,
                       std::uint64_t seed);

/// The zoo circuit: `replicas` gadget instances behind shared input
/// registers (enable group 1), frozen.
struct GadgetCircuit {
    GadgetKind kind = GadgetKind::Naive;
    unsigned replicas = 0;
    core::Netlist nl;
    core::SharedNet x_in{}, y_in{};
    std::vector<netlist::NetId> rand_in;
    /// Some gadgets use a second enable stage (secAND2-FF, DOM).
    bool has_stage2 = false;
};

[[nodiscard]] GadgetCircuit build_gadget_circuit(GadgetKind kind,
                                                 unsigned replicas);

/// The zoo harness as a reusable object; workers share the netlist and
/// delay model read-only.  inspect_gadget uses nl() for netlist exports
/// and single-trace VCD replays.
class GadgetHarness {
public:
    /// Power bins per trace: input load + enable(1) + enable(2) + settle,
    /// one spare (the zoo's schedule).
    static constexpr std::size_t kCycles = 5;

    GadgetHarness(GadgetKind kind, unsigned replicas,
                  std::uint64_t placement_seed);

    [[nodiscard]] const netlist::Netlist& nl() const noexcept {
        return circuit_.nl;
    }
    [[nodiscard]] const GadgetCircuit& circuit() const noexcept {
        return circuit_;
    }
    [[nodiscard]] GadgetKind kind() const noexcept { return circuit_.kind; }
    [[nodiscard]] unsigned fresh_bits() const noexcept {
        return static_cast<unsigned>(circuit_.rand_in.size());
    }
    [[nodiscard]] const sim::DelayModel& delay_model() const noexcept {
        return dm_;
    }
    [[nodiscard]] sim::ClockConfig clock() const noexcept { return clock_; }

    /// Applies one trace's stimulus and runs the 5-window drive schedule
    /// (the caller restarts the simulator and arms the recorder first).
    void drive(sim::ClockedSim& sim, const GadgetStimulus& stim) const;

    /// Runs one campaign on `pool` (scalar or lane engine per config.lanes).
    [[nodiscard]] GadgetTvlaResult run(const GadgetTvlaConfig& config,
                                       ThreadPool& pool) const;

private:
    GadgetCircuit circuit_;
    sim::DelayModel dm_;
    sim::ClockConfig clock_;
};

/// The campaign identity of one gadget TVLA run -- the fingerprint its
/// checkpoints carry.  Exposed so the service layer can key its result
/// cache without building the harness.
[[nodiscard]] CampaignFingerprint gadget_fingerprint(
    const GadgetTvlaConfig& config);

/// One-shot convenience: builds the harness and pool and runs the
/// campaign.
[[nodiscard]] GadgetTvlaResult run_gadget_tvla(const GadgetTvlaConfig& config);

}  // namespace glitchmask::eval
