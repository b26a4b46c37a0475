#include "eval/campaign.hpp"

#include <bit>
#include <string>
#include <utility>

#include "eval/gadget_tvla.hpp"
#include "eval/trace_campaign.hpp"

namespace glitchmask::eval {

SequenceHarness::SequenceHarness(const SequenceExperimentConfig& config)
    : circuit_(core::build_registered_secand2(config.replicas)),
      dm_(circuit_.nl, placement_delay_config(config.placement_seed)) {}

namespace {

/// "seq_0123"-style tag: default checkpoint-file id for one sequence.
std::string sequence_tag(const core::InputSequence& sequence) {
    std::string tag = "seq_";
    for (const core::ShareId slot : sequence)
        tag += static_cast<char>('0' + static_cast<int>(slot));
    return tag;
}

}  // namespace

/// The sequence itself is part of the campaign identity: resuming one
/// sequence's snapshot into another's campaign must be rejected.
CampaignFingerprint sequence_fingerprint(const core::InputSequence& sequence,
                                         const SequenceExperimentConfig& config) {
    const std::size_t cycles = kSequenceCycles;
    std::uint64_t payload = kFnvOffset;
    for (const core::ShareId slot : sequence)
        payload = fnv1a64(payload, static_cast<std::uint64_t>(slot));
    payload = fnv1a64(payload, config.replicas);
    payload = fnv1a64(payload, std::bit_cast<std::uint64_t>(config.noise_sigma));
    payload = fnv1a64(payload, config.placement_seed);
    payload = fnv1a64(payload, static_cast<std::uint64_t>(config.max_test_order));
    payload = fnv1a64(payload, static_cast<std::uint64_t>(cycles));
    return CampaignFingerprint{fnv1a64_tag("sequence_tvla"), config.seed,
                               config.traces, config.block_size, payload};
}

SequenceLeakResult SequenceHarness::run(const core::InputSequence& sequence,
                                        const SequenceExperimentConfig& config,
                                        ThreadPool& pool) const {
    const std::uint64_t seed = config.seed;
    // The drive schedule after the inputs land: one enable per cycle in
    // sequence order, then a settle cycle.
    const auto apply_sequence = [&](auto& s) {
        s.step();
        for (const core::ShareId slot : sequence) {
            s.set_enable(circuit_.enable[static_cast<std::size_t>(slot)],
                         true);
            s.step();
        }
        s.step();
    };
    const Workload workload{
        .nl = circuit_.nl,
        .dm = dm_,
        .clock = clock_,
        .bins = kSequenceCycles,
        .tag = sequence_tag(sequence),
        .fingerprint = sequence_fingerprint(sequence, config),
        .fold = {.max_test_order = config.max_test_order,
                 .noise_sigma = config.noise_sigma},
        // Both drives apply the zoo's operand stimulus without fresh bits:
        // a class bit, then freshly masked x, y (x = y = 1 when fixed).
        .drive_lanes =
            [&](LaneGroup& group) {
                load_gadget_lanes(group, circuit_.in, seed);
                apply_sequence(group.sim);
            },
        .drive_trace =
            [&](sim::ClockedSim& s, std::size_t trace_index) {
                const GadgetStimulus stim =
                    gadget_stimulus(0, seed, trace_index);
                for (std::size_t i = 0; i < 4; ++i)
                    s.set_input(circuit_.in[i], stim.shares[i]);
                apply_sequence(s);
                return stim.fixed;
            },
    };
    TraceCampaignResult campaign = run_trace_campaign(
        workload, {config.traces, config.block_size, seed, config.lanes},
        config.run, pool);

    SequenceLeakResult result;
    result.sequence = sequence;
    result.max_abs_t1 = campaign.max_abs_t[1];
    result.argmax_cycle = campaign.argmax[1];
    result.max_abs_t2 = campaign.max_abs_t[2];
    result.leaks_first_order = result.max_abs_t1 > leakage::kTvlaThreshold;
    result.expected_to_leak = core::sequence_expected_to_leak(sequence);
    static_cast<CampaignSummary&>(result) = std::move(campaign);
    return result;
}

SequenceLeakResult run_sequence_experiment(
    const core::InputSequence& sequence,
    const SequenceExperimentConfig& config) {
    const SequenceHarness harness(config);
    ThreadPool pool(resolve_workers(config.workers));
    return harness.run(sequence, config, pool);
}

std::vector<SequenceLeakResult> run_all_sequences(
    const SequenceExperimentConfig& config) {
    // One netlist/delay-model and one worker pool serve all 24 sequences;
    // the circuit is sequence-independent, rebuilding it per sequence was
    // pure waste.
    const SequenceHarness harness(config);
    ThreadPool pool(resolve_workers(config.workers));
    std::vector<SequenceLeakResult> results;
    for (const core::InputSequence& sequence : core::all_input_sequences()) {
        results.push_back(harness.run(sequence, config, pool));
        // A fired cancel token stops the whole sweep: later sequences
        // would each spin up, notice the token and return empty results.
        if (results.back().progress.cancelled) break;
    }
    return results;
}

}  // namespace glitchmask::eval
