// The traced run: per-layer metrics of one workload, measured by timing
// calls into each layer's public functions with the workload's own
// inputs, and the replay-consistency check that ties them to the
// end-to-end campaigns.
//
// Every timed call runs inside a span (support/trace.hpp); a layer's
// number is its spans' self time -- duration minus what child spans
// cover -- taken as the median over repetitions.  The spans, together
// with the block/phase spans the campaign runner emits, are written as
// Chrome trace JSON when the run ends.
//
// Layers and the end-to-end metric each should move are listed in
// README.md.
#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <span>

#include "bench.hpp"
#include "core/sharing.hpp"
#include "des/masked_des.hpp"
#include "eval/gadget_tvla.hpp"
#include "eval/lane_backend.hpp"
#include "eval/parallel_campaign.hpp"
#include "leakage/attribution.hpp"
#include "leakage/moment_bank.hpp"
#include "power/batch_power.hpp"
#include "sim/compiled_simulator.hpp"
#include "support/telemetry.hpp"
#include "support/trace.hpp"

namespace perfbench {

using namespace glitchmask;

namespace {

/// Repetitions of the campaign and replay stages; layer times are medians.
constexpr int kReps = 5;

/// Toggle sink that does nothing: the replay baseline without deposit.
class NullSink final : public sim::BatchToggleSink {
public:
    void on_toggle(netlist::NetId, sim::TimePs, std::uint64_t,
                   std::uint64_t) override {}
};

/// A job replayable outside the campaign: its circuit, delay annotation,
/// clock and the lane engine its request resolves to.
struct Target {
    const Job* job = nullptr;
    std::unique_ptr<des::MaskedDesCore> core;        // des_tvla jobs
    std::unique_ptr<sim::DelayModel> des_delays;
    std::unique_ptr<eval::GadgetHarness> harness;    // gadget_tvla jobs
    sim::ClockConfig clock;
    std::size_t bins = 0;
    eval::BackendPlan plan;

    [[nodiscard]] const netlist::Netlist& nl() const {
        return core ? core->nl() : harness->nl();
    }
    [[nodiscard]] const sim::DelayModel& dm() const {
        return core ? *des_delays : harness->delay_model();
    }
};

Target make_target(const Job& job) {
    Target t;
    t.job = &job;
    const CampaignRequest& r = job.request;
    if (r.kind == CampaignKind::DesTvla) {
        t.core = std::make_unique<des::MaskedDesCore>(
            des::MaskedDesOptions{.flavor = r.flavor});
        sim::DelayConfig delays = sim::DelayConfig::spartan6();
        delays.seed = r.placement_seed;
        t.des_delays = std::make_unique<sim::DelayModel>(t.core->nl(), delays);
        t.clock.period_ps = t.core->recommended_period();
        t.bins = t.core->total_cycles();
    } else {
        t.harness = std::make_unique<eval::GadgetHarness>(
            r.gadget, r.replicas, r.placement_seed);
        t.clock = t.harness->clock();
        t.bins = eval::GadgetHarness::kCycles;
    }
    t.plan = eval::resolve_backend_plan(run_options(job), r.lanes,
                                        /*timing_coupling=*/false,
                                        t.nl().size());
    return t;
}

enum class Stage { Null, Recorder, Probe };

/// Exact counts of one replay pass.
struct StageCounts {
    telemetry::SimStats stats{};
    std::uint64_t live_toggles = 0;   // recorder stage: live lanes only
    std::uint64_t lanes_live = 0;
    std::uint64_t lanes_simulated = 0;
};

/// Replays the job's campaign stimulus -- the same block/group cut, lane
/// packing and drive schedule as its campaign -- on `sim` with the stage's
/// sink chain.  The recorder stage also draws each live lane's noisy row
/// and folds it into a MomentBank, in spans of their own.
template <class SimT>
StageCounts run_stage(const Target& t, SimT& sim, Stage stage) {
    const CampaignRequest& r = t.job->request;
    const unsigned chunks = sim.chunks();
    const unsigned group_lanes = chunks * 64u;
    power::PowerConfig power_config;
    power_config.bin_ps = t.clock.period_ps;

    std::array<NullSink, sim::kMaxLaneChunks> nulls;
    std::vector<power::BatchPowerRecorder> recorders;
    std::vector<leakage::BatchAttributionProbe> probes;
    const leakage::AttributionPlan plan =
        stage == Stage::Probe
            ? leakage::AttributionPlan(t.nl(), t.bins, t.clock.period_ps)
            : leakage::AttributionPlan();
    leakage::AttributionAccumulator acc(plan.points());
    recorders.reserve(chunks);
    probes.reserve(chunks);
    for (unsigned c = 0; c < chunks; ++c) {
        if (stage == Stage::Null) {
            sim.set_sink(c, &nulls[c]);
            continue;
        }
        recorders.emplace_back(t.nl(), power_config);
        recorders.back().attach(sim.chunk_view(c));
        if (stage == Stage::Probe) {
            probes.emplace_back(plan, &recorders.back());
            sim.set_sink(c, &probes.back());
        } else {
            sim.set_sink(c, &recorders.back());
        }
    }

    leakage::MomentBank bank(t.bins, r.max_test_order);
    std::vector<std::vector<double>> rows(group_lanes);
    std::vector<core::MaskedWord> pts, keys;
    std::vector<Xoshiro256> prngs;
    const unsigned fresh = t.harness ? t.harness->fresh_bits() : 0u;
    StageCounts counts;

    for (std::size_t begin = 0; begin < r.traces; begin += r.block_size) {
        const std::size_t end = std::min(begin + r.block_size, r.traces);
        for (std::size_t group = begin; group < end; group += group_lanes) {
            const unsigned count = static_cast<unsigned>(
                std::min<std::size_t>(group_lanes, end - group));
            counts.lanes_live += count;
            counts.lanes_simulated += group_lanes;
            std::array<std::uint64_t, sim::kMaxLaneChunks> fixed{};
            std::array<std::array<std::uint64_t, sim::kMaxLaneChunks>, 4>
                shares{};
            std::array<std::array<std::uint64_t, sim::kMaxLaneChunks>, 3>
                fresh_words{};
            pts.clear();
            keys.clear();
            prngs.clear();
            for (unsigned lane = 0; lane < count; ++lane) {
                const unsigned c = lane / 64u;
                const std::uint64_t bit = std::uint64_t{1} << (lane % 64u);
                if (t.core) {
                    Xoshiro256 rng = eval::trace_rng(
                        r.seed, eval::kStimulusStream, group + lane);
                    const bool is_fixed = rng.bit();
                    const std::uint64_t pt =
                        is_fixed ? r.fixed_plaintext : rng();
                    if (r.prng_on) {
                        pts.push_back(core::mask_word(pt, 64, rng));
                        keys.push_back(core::mask_word(r.key, 64, rng));
                    } else {
                        pts.push_back(core::MaskedWord{0, pt});
                        keys.push_back(core::MaskedWord{0, r.key});
                    }
                    prngs.push_back(rng);
                    if (is_fixed) fixed[c] |= bit;
                } else {
                    const eval::GadgetStimulus stim =
                        eval::gadget_stimulus(fresh, r.seed, group + lane);
                    if (stim.fixed) fixed[c] |= bit;
                    for (std::size_t i = 0; i < 4; ++i)
                        if (stim.shares[i]) shares[i][c] |= bit;
                    for (unsigned i = 0; i < fresh; ++i)
                        if (stim.fresh[i]) fresh_words[i][c] |= bit;
                }
            }

            sim.restart();
            for (auto& recorder : recorders) recorder.begin_trace(t.bins);
            for (unsigned c = 0; c < probes.size(); ++c)
                probes[c].begin_group(
                    fixed[c], count > c * 64u ? std::min(64u, count - c * 64u)
                                              : 0u,
                    acc);
            if (t.core) {
                (void)t.core->encrypt_batch_chunks(
                    sim, pts, keys,
                    r.prng_on ? std::span<Xoshiro256>(prngs)
                              : std::span<Xoshiro256>{});
            } else {
                const eval::GadgetCircuit& circuit = t.harness->circuit();
                for (unsigned c = 0; c < chunks; ++c) {
                    sim.set_input_word(circuit.x_in.s0, c, shares[0][c]);
                    sim.set_input_word(circuit.x_in.s1, c, shares[1][c]);
                    sim.set_input_word(circuit.y_in.s0, c, shares[2][c]);
                    sim.set_input_word(circuit.y_in.s1, c, shares[3][c]);
                    for (unsigned i = 0; i < fresh; ++i)
                        sim.set_input_word(circuit.rand_in[i], c,
                                           fresh_words[i][c]);
                }
                sim.step();
                sim.set_enable(1, true);
                sim.step();
                sim.set_enable(1, false);
                if (circuit.has_stage2) sim.set_enable(2, true);
                sim.step();
                if (circuit.has_stage2) sim.set_enable(2, false);
                sim.step();
            }
            const unsigned chunks_used = (count + 63u) / 64u;
            for (unsigned c = 0; c < chunks_used && c < probes.size(); ++c)
                probes[c].fold_group();

            if (stage != Stage::Recorder) continue;
            for (unsigned lane = 0; lane < count; ++lane)
                counts.live_toggles +=
                    recorders[lane / 64u].lane_toggles(lane % 64u);
            {
                const trace::ScopedSpan span("leakage.noise");
                for (unsigned lane = 0; lane < count; ++lane) {
                    Xoshiro256 noise_rng = eval::trace_rng(
                        r.seed, eval::kNoiseStream, group + lane);
                    recorders[lane / 64u].noisy_lane_trace_into(
                        lane % 64u, noise_rng, r.noise_sigma, rows[lane]);
                }
            }
            {
                const trace::ScopedSpan span("leakage.fold");
                for (unsigned lane = 0; lane < count; ++lane)
                    bank.add_trace(((fixed[lane / 64u] >> (lane % 64u)) & 1u) !=
                                       0,
                                   rows[lane].data());
            }
        }
        for (auto& probe : probes) probe.spill_block();
    }
    counts.stats = sim.stats();
    return counts;
}

StageCounts replay(const Target& t, Stage stage) {
    if (t.plan.backend == eval::SimBackend::Compiled) {
        sim::CompiledClockedSim sim(t.nl(), t.dm(), t.plan.lanes, t.clock);
        return run_stage(t, sim, stage);
    }
    eval::EventLaneSim sim(t.nl(), t.dm(), t.clock);
    return run_stage(t, sim, stage);
}

bool same_stats(const telemetry::SimStats& a, const telemetry::SimStats& b) {
    return a.events == b.events && a.toggles == b.toggles &&
           a.glitches == b.glitches;
}

// ----- span analysis ------------------------------------------------------

/// Self times of a span forest: duration minus the union of the child
/// spans' intervals (clipped to the parent).
class SpanTree {
public:
    explicit SpanTree(const std::vector<trace::Span>& spans) : spans_(spans) {
        for (std::size_t i = 0; i < spans_.size(); ++i)
            children_[spans_[i].parent].push_back(i);
    }

    [[nodiscard]] std::vector<std::size_t> roots(const std::string& name) const {
        std::vector<std::size_t> out;
        for (std::size_t i = 0; i < spans_.size(); ++i)
            if (spans_[i].name == name) out.push_back(i);
        return out;
    }

    [[nodiscard]] double self_ns(std::size_t i) const {
        const trace::Span& s = spans_[i];
        std::vector<std::pair<std::uint64_t, std::uint64_t>> cover;
        if (const auto it = children_.find(s.id); it != children_.end())
            for (const std::size_t c : it->second) {
                const std::uint64_t b = std::max(spans_[c].begin_ns, s.begin_ns);
                const std::uint64_t e = std::min(spans_[c].end_ns, s.end_ns);
                if (b < e) cover.emplace_back(b, e);
            }
        std::sort(cover.begin(), cover.end());
        std::uint64_t covered = 0, reach = s.begin_ns;
        for (const auto& [b, e] : cover) {
            if (e <= reach) continue;
            covered += e - std::max(b, reach);
            reach = e;
        }
        return static_cast<double>(s.end_ns - s.begin_ns - covered);
    }

    /// Sum of self times by span name over a span's descendants; spans
    /// with a "job" attribute also count under "<name>|<job>".
    [[nodiscard]] std::map<std::string, double> self_by_name(
        std::size_t root) const {
        std::map<std::string, double> out;
        std::vector<std::size_t> stack{root};
        while (!stack.empty()) {
            const std::size_t i = stack.back();
            stack.pop_back();
            if (i != root) {
                const double self = self_ns(i);
                out[spans_[i].name] += self;
                for (const auto& [key, value] : spans_[i].attrs)
                    if (key == "job") out[spans_[i].name + "|" + value] += self;
            }
            if (const auto it = children_.find(spans_[i].id);
                it != children_.end())
                stack.insert(stack.end(), it->second.begin(), it->second.end());
        }
        return out;
    }

    /// Per root span named `root_name`: the medians over those roots of
    /// each descendant name's summed self time.
    [[nodiscard]] std::map<std::string, double> median_self(
        const std::string& root_name) const {
        std::map<std::string, std::vector<double>> per_name;
        for (const std::size_t root : roots(root_name))
            for (const auto& [name, ns] : self_by_name(root))
                per_name[name].push_back(ns);
        std::map<std::string, double> out;
        for (auto& [name, values] : per_name) out[name] = median(values);
        return out;
    }

private:
    const std::vector<trace::Span>& spans_;
    std::map<trace::SpanId, std::vector<std::size_t>> children_;
};

/// One pass over every job's campaign; returns its wall seconds.
double campaign_pass(const std::vector<Job>& jobs, OutputCheck& check,
                     RunResult& result) {
    const trace::ScopedSpan root("bench.campaigns");
    const double t0 = now_s();
    for (const Job& job : jobs) {
        ++result.attempted;
        const trace::ScopedSpan span("eval.campaign", 0,
                                     {{"job", job.label}});
        eval::CampaignRunOptions run = run_options(job);
        run.trace_parent = span.id();
        const CampaignOutcome outcome =
            service::run_campaign_request(job.request, run);
        if (!check.check(job, outcome)) ++result.failed;
    }
    return now_s() - t0;
}

}  // namespace

RunResult run_layers(const RunOptions& options, OutputCheck& check) {
    RunResult result;
    const bool mix = options.workload == "service_mix";
    const MixScript script =
        mix ? mix_script(options.seed)
            : probe_script(
                  unique_jobs(direct_jobs(options.workload, options.seed)));

    // Jobs whose lane-engine work the replay stages reproduce: every
    // distinct des_tvla and gadget_tvla job (sequence_tvla and mean_power
    // jobs of the mix run only end to end).
    std::vector<Job> replayed;
    if (mix) {
        for (const Job& job : script.jobs)
            if (job.request.kind == CampaignKind::DesTvla ||
                job.request.kind == CampaignKind::GadgetTvla)
                replayed.push_back(job);
    } else {
        replayed = unique_jobs(direct_jobs(options.workload, options.seed));
    }
    std::vector<Target> targets;
    for (const Job& job : replayed) targets.push_back(make_target(job));
    std::size_t traces = 0;
    for (const Job& job : replayed) traces += job.request.traces;

    trace::reset();
    trace::set_enabled(false);

    // Replay consistency: the campaign's exact simulator counts (telemetry
    // registry delta) and its toggle total must equal the replay's.  This
    // campaign pass doubles as the warm-up.
    std::vector<StageCounts> reference;
    {
        const telemetry::ScopedTelemetryEnable telemetry_on;
        for (const Target& t : targets) {
            ++result.attempted;
            const telemetry::Snapshot before = telemetry::snapshot();
            const CampaignOutcome outcome =
                service::run_campaign_request(t.job->request, run_options(*t.job));
            const telemetry::Snapshot delta =
                telemetry::snapshot().delta_since(before);
            if (!check.check(*t.job, outcome)) ++result.failed;
            const StageCounts counts = replay(t, Stage::Recorder);
            const telemetry::SimStats campaign{
                delta.value(telemetry::Counter::kSimEvents),
                delta.value(telemetry::Counter::kSimToggles),
                delta.value(telemetry::Counter::kSimGlitches), 0, 0};
            bool consistent = same_stats(counts.stats, campaign);
            for (const auto& [key, value] : outcome.metrics)
                if (key == "toggles" &&
                    value != static_cast<double>(counts.live_toggles))
                    consistent = false;
            if (!consistent) {
                std::fprintf(stderr,
                             "perfbench: %s: replay diverges from the "
                             "campaign (toggles %llu vs %llu, events %llu vs "
                             "%llu)\n",
                             t.job->label.c_str(),
                             static_cast<unsigned long long>(counts.stats.toggles),
                             static_cast<unsigned long long>(campaign.toggles),
                             static_cast<unsigned long long>(counts.stats.events),
                             static_cast<unsigned long long>(campaign.events));
                ++result.failed;
            }
            reference.push_back(counts);
        }
    }

    trace::set_enabled(true);
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const trace::ScopedSpan root("bench.setup");
        (void)setup_once(options.workload);
    }

    // The machine's speed drifts over a run, so each repetition runs every
    // stage back to back: the untraced campaign (the base of eval.overhead
    // and of the tracing overhead), the three replay stages, and the same
    // campaign traced.
    std::vector<double> untraced_s, traced_s;
    for (int rep = 0; rep < kReps; ++rep) {
        trace::set_enabled(false);
        untraced_s.push_back(campaign_pass(replayed, check, result));
        trace::set_enabled(true);
        {
            const trace::ScopedSpan root("bench.replay");
            for (std::size_t i = 0; i < targets.size(); ++i) {
                const std::vector<std::pair<std::string, std::string>> attrs{
                    {"job", targets[i].job->label}};
                StageCounts counts[3];
                {
                    const trace::ScopedSpan span("sim.replay", 0, attrs);
                    counts[0] = replay(targets[i], Stage::Null);
                }
                {
                    const trace::ScopedSpan span("power.replay", 0, attrs);
                    counts[1] = replay(targets[i], Stage::Recorder);
                }
                {
                    const trace::ScopedSpan span("leakage.attribution_replay",
                                                 0, attrs);
                    counts[2] = replay(targets[i], Stage::Probe);
                }
                for (const StageCounts& c : counts)
                    if (!same_stats(c.stats, reference[i].stats)) {
                        std::fprintf(stderr,
                                     "perfbench: %s: replay counts differ "
                                     "between sink stages\n",
                                     targets[i].job->label.c_str());
                        ++result.failed;
                    }
            }
        }
        traced_s.push_back(campaign_pass(replayed, check, result));
    }
    std::vector<trace::Span> spans = trace::take_spans();

    // Service layer: the workload's script through a fresh service, once
    // traced (per-job Chrome traces land in the output directory) and once
    // untraced per round.  Tracing adds a span harvest and a trace file
    // write to every job, so the service figures come from the untraced
    // rounds; the traced ones give the spans and the tracing overhead.
    const std::string job_dir =
        options.out_dir.empty()
            ? std::string()
            : options.out_dir + "/" + options.workload + "-jobs";
    if (!job_dir.empty()) std::filesystem::create_directories(job_dir);
    const int rounds = mix ? 2 : 1;
    std::vector<RoundResult> traced_rounds, untraced_rounds;
    for (int i = 0; i < rounds; ++i) {
        trace::set_enabled(true);
        traced_rounds.push_back(run_round(script, job_dir));
        for (trace::Span& span : trace::take_spans())
            spans.push_back(std::move(span));
        trace::set_enabled(false);
        untraced_rounds.push_back(run_round(script));
        for (const RoundResult* round :
             {&traced_rounds.back(), &untraced_rounds.back()}) {
            result.attempted += round->records.size();
            result.failed += check_round(script, *round, check);
        }
    }
    for (const RoundResult& round : traced_rounds)
        for (const JobRecord& rec : round.records) {
            trace::Span span;
            span.id = trace::new_span_id();
            span.name = "service.job";
            span.begin_ns = rec.begin_ns;
            span.end_ns = rec.end_ns;
            span.attrs = {{"job", std::to_string(rec.status.id)},
                          {"label", script.jobs[rec.job].label},
                          {"cached", rec.status.cached ? "1" : "0"},
                          {"coalesced", rec.status.coalesced ? "1" : "0"}};
            spans.push_back(std::move(span));
        }
    if (!options.out_dir.empty()) {
        std::filesystem::create_directories(options.out_dir);
        trace::write_chrome_trace(options.out_dir + "/" + options.workload +
                                      "-seed" + std::to_string(options.seed) +
                                      ".trace.json",
                                  spans);
    }

    // ----- per-layer numbers from the spans --------------------------------
    const SpanTree tree(spans);
    const std::map<std::string, double> setup = tree.median_self("bench.setup");
    const std::map<std::string, double> stages =
        tree.median_self("bench.replay");
    const auto get = [](const std::map<std::string, double>& m,
                        const std::string& name) {
        const auto it = m.find(name);
        return it == m.end() ? 0.0 : it->second;
    };
    std::uint64_t events = 0, toggles = 0, glitches = 0, live = 0, simulated = 0;
    for (const StageCounts& c : reference) {
        events += c.stats.events;
        toggles += c.stats.toggles;
        glitches += c.stats.glitches;
        live += c.lanes_live;
        simulated += c.lanes_simulated;
    }
    const double n = static_cast<double>(traces);
    const double null_ns = get(stages, "sim.replay");
    const double rec_ns = get(stages, "power.replay");
    const double probe_ns = get(stages, "leakage.attribution_replay");
    const double noise_ns = get(stages, "leakage.noise");
    const double fold_ns = get(stages, "leakage.fold");
    // Only the jobs that attribute pay for the probe in their campaigns.
    double attribution_ns = 0.0;
    for (const Job& job : replayed)
        if (job.attribution)
            attribution_ns +=
                get(stages, "leakage.attribution_replay|" + job.label) -
                get(stages, "power.replay|" + job.label);
    const double campaign_ns = median(untraced_s) * 1e9;
    const double overhead_ns =
        campaign_ns - rec_ns - noise_ns - fold_ns - attribution_ns;

    // Service figures.
    std::vector<double> submit_us, hit_us, protocol_us, queue_ms, execute_ms;
    std::uint64_t submitted = 0, hits = 0, coalesced = 0;
    for (const RoundResult& round : untraced_rounds) {
        submitted += round.stats.submitted;
        hits += round.stats.cache_hits;
        coalesced += round.stats.coalesced;
        for (const JobRecord& rec : round.records) {
            submit_us.push_back(rec.submit_us);
            protocol_us.push_back(rec.protocol_us);
            if (rec.status.cached) hit_us.push_back(rec.latency_ms * 1e3);
            if (rec.status.cached || rec.status.coalesced) continue;
            for (const trace::SpanSummary& s : rec.status.spans) {
                if (s.name == "queue_wait")
                    queue_ms.push_back(static_cast<double>(s.total_ns) / 1e6);
                if (s.name == "execute")
                    execute_ms.push_back(static_cast<double>(s.total_ns) / 1e6);
            }
        }
    }
    double protocol_total = 0.0;
    for (const double v : protocol_us) protocol_total += v;

    double trace_overhead = median(traced_s) / median(untraced_s) - 1.0;
    if (mix) {
        std::vector<double> traced_tps, untraced_tps;
        for (const RoundResult& r : traced_rounds)
            traced_tps.push_back(static_cast<double>(r.executed_traces) /
                                 r.wall_s);
        for (const RoundResult& r : untraced_rounds)
            untraced_tps.push_back(static_cast<double>(r.executed_traces) /
                                   r.wall_s);
        trace_overhead = median(untraced_tps) / median(traced_tps) - 1.0;
    }

    const std::size_t reps = static_cast<std::size_t>(kReps);
    const std::size_t setups = static_cast<std::size_t>(kSetupReps);
    const double sub = static_cast<double>(std::max<std::uint64_t>(submitted, 1));
    result.metrics = {
        {"circuit.build_ms", get(setup, "circuit.build") / 1e6, "ms", setups},
        {"sim.delay_annotate_ms", get(setup, "sim.delay_annotate") / 1e6, "ms",
         setups},
        {"sim.compile_ms", get(setup, "sim.compile") / 1e6, "ms", setups},
        {"service.start_ms", get(setup, "service.start") / 1e6, "ms", setups},
        {"sim.replay_ns_per_trace", null_ns / n, "ns", reps},
        {"sim.events_per_trace", static_cast<double>(events) / n, "count", 1},
        {"sim.toggles_per_trace", static_cast<double>(toggles) / n, "count", 1},
        {"sim.glitches_per_trace", static_cast<double>(glitches) / n, "count",
         1},
        {"sim.lane_fill",
         static_cast<double>(live) / static_cast<double>(simulated), "ratio", 1},
        {"power.deposit_ns_per_toggle",
         (rec_ns - null_ns) / static_cast<double>(toggles), "ns", reps},
        {"leakage.attribution_ns_per_toggle",
         (probe_ns - rec_ns) / static_cast<double>(toggles), "ns", reps},
        {"leakage.noise_ns_per_trace", noise_ns / n, "ns", reps},
        {"leakage.fold_ns_per_trace", fold_ns / n, "ns", reps},
        {"eval.overhead_ns_per_trace", overhead_ns / n, "ns",
         reps},
        {"service.submit_us_p50", median(submit_us), "us", submit_us.size()},
        {"service.hit_us_p50", median(hit_us), "us", hit_us.size()},
        {"service.protocol_us_per_job",
         protocol_total / static_cast<double>(std::max<std::size_t>(
                              protocol_us.size(), 1)),
         "us", protocol_us.size()},
        {"service.queue_wait_ms_p50", percentile(queue_ms, 50.0), "ms",
         queue_ms.size()},
        {"service.queue_wait_ms_p90", percentile(queue_ms, 90.0), "ms",
         queue_ms.size()},
        {"service.execute_ms_p50", median(execute_ms), "ms", execute_ms.size()},
        {"service.cache_hit_ratio", static_cast<double>(hits) / sub, "ratio",
         submitted},
        {"service.coalesced_ratio", static_cast<double>(coalesced) / sub,
         "ratio", submitted},
        {"support.trace_overhead", trace_overhead, "ratio",
         static_cast<std::size_t>(mix ? rounds : kReps)},
    };
    return result;
}

}  // namespace perfbench
