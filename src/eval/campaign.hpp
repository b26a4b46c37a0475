// Table I (paper Sec. II-B): the safe input sequences of secAND2.
//
// Each experiment applies the four shares one per cycle, in one of the 24
// orders, to a registered secAND2 harness and runs a fixed-vs-random TVLA
// per cycle.  The campaign itself -- sharding, lanes, checkpoints,
// telemetry, attribution -- is the shared pipeline of
// eval/trace_campaign.hpp; this driver contributes the sequence
// workload: its circuit, stimulus and drive schedule.  Its config is the
// shared CampaignSettings plus the replica count, and its result the
// shared CampaignSummary plus the per-sequence verdict.  Every trace
// derives its randomness from (seed, trace index), so results are
// bit-identical at any worker count and lane width.
#pragma once

#include <vector>

#include "core/circuits.hpp"
#include "eval/checkpoint.hpp"
#include "eval/parallel_campaign.hpp"
#include "eval/trace_campaign.hpp"
#include "leakage/tvla.hpp"
#include "power/power_model.hpp"
#include "sim/clocked.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace glitchmask::eval {

// ----- Table I: safe input sequences of secAND2 -------------------------

struct SequenceExperimentConfig : CampaignSettings {
    SequenceExperimentConfig()
        : CampaignSettings{.traces = 4000, .noise_sigma = 1.0} {}

    unsigned replicas = 16;       // parallel secAND2 instances (SNR)
    /// Crash-safe runtime knobs (checkpoint path/cadence, cancel token);
    /// the default leaves the runtime off.  Each sequence checkpoints to
    /// its own file (the sequence is part of the campaign id and the
    /// snapshot fingerprint).
    CampaignRunOptions run;
};

struct SequenceLeakResult : CampaignSummary {
    core::InputSequence sequence{};
    double max_abs_t1 = 0.0;      // first-order, max over cycles
    std::size_t argmax_cycle = 0;
    double max_abs_t2 = 0.0;      // second-order, for reporting
    bool leaks_first_order = false;
    bool expected_to_leak = false;
};

/// Prebuilt secAND2 harness: the circuit and its delay annotation do not
/// depend on the input sequence, so one instance serves all 24 sequence
/// experiments (and all worker replicas -- simulators share them read-only).
class SequenceHarness {
public:
    explicit SequenceHarness(const SequenceExperimentConfig& config);

    /// Runs one sequence campaign on `pool`.
    [[nodiscard]] SequenceLeakResult run(const core::InputSequence& sequence,
                                         const SequenceExperimentConfig& config,
                                         ThreadPool& pool) const;

private:
    core::RegisteredSecand2 circuit_;
    sim::DelayModel dm_;
    sim::ClockConfig clock_;
};

/// Power bins per sequence trace: inputs + 4 sequence slots + settle.
inline constexpr std::size_t kSequenceCycles = 6;

/// The campaign identity of one sequence experiment -- the exact
/// fingerprint its checkpoints are stamped with.  Exposed so the service
/// layer can key its result cache without running the campaign.
[[nodiscard]] CampaignFingerprint sequence_fingerprint(
    const core::InputSequence& sequence,
    const SequenceExperimentConfig& config);

/// Runs the paper's Sec. II-B experiment for one input sequence: the four
/// shares are applied one per cycle in the given order to the registered
/// secAND2 harness, and a fixed-vs-random TVLA is evaluated per cycle.
[[nodiscard]] SequenceLeakResult run_sequence_experiment(
    const core::InputSequence& sequence, const SequenceExperimentConfig& config);

/// Convenience: runs all 24 sequences (one shared harness, one pool).
[[nodiscard]] std::vector<SequenceLeakResult> run_all_sequences(
    const SequenceExperimentConfig& config);

}  // namespace glitchmask::eval
