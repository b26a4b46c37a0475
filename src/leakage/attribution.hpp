// Per-net leakage attribution: localize a failing t-test to the nets
// that cause it.
//
// The trace-level TVLA engine observes only the summed power trace, so a
// verdict says "the design leaks" but never *which gate*.  Attribution
// answers that question by tapping the committed toggle stream of both
// engines, scalar and lane (a probe chained in front of the power recorder, so
// the power path is untouched) and accumulating, per watched net and per
// clock window, the per-trace toggle count into per-class sums.  From
// those sums each (net, window) point yields a Welch t-statistic and an
// SNR over raw switching activity, and each net a glitch-density heatmap
// row -- exactly the spatial view the paper argues in prose: Trichina's
// leak lives on specific reconvergent product nets, and secAND2's
// DelayUnits neutralize those sites.
//
// Samples are *toggle counts*, not noisy power values: a net that toggles
// a class-dependent number of times is leaking through glitches no matter
// how the energy model weighs it, and the noise knob of the trace-level
// campaign intentionally does not apply (localization wants the cleanest
// possible signal; the trace-level test remains the methodology-faithful
// verdict).
//
// Determinism contract (the same one the trace campaign makes):
//  * per-trace updates touch only the points that toggled (epoch-stamped
//    sparse scratch, no O(nets x windows) clear per trace);
//  * the per-block accumulator merges by componentwise addition of sums
//    and integer counters, so the fixed merge tree of the sharded runner
//    makes results bit-identical at any worker count;
//  * the batch probe's subtotals are exact integers, so its fold order
//    (per window, net by net) lands on the same doubles as the scalar
//    probe's trace-by-trace fold: the 64-lane path is bit-identical to
//    the scalar one (asserted with == in tests);
//  * encode/decode round-trips every field exactly (f64 bit patterns),
//    so checkpoint resume is bit-identical too.
//
// Toggle counts saturate at 255 per (net, window, trace) in both engines
// -- identical saturation is part of the scalar/batch equivalence.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "netlist/export.hpp"
#include "netlist/netlist.hpp"
#include "sim/compiled_simulator.hpp"
#include "sim/simulator.hpp"
#include "support/snapshot.hpp"

namespace glitchmask::leakage {

/// Which nets are watched and how toggle times map to clock windows.
/// Built once per campaign from the frozen netlist; shared read-only by
/// every worker's probe.
class AttributionPlan {
public:
    static constexpr std::uint32_t kUnwatched = 0xFFFFFFFFu;

    AttributionPlan() = default;

    /// Watches every net whose hierarchical module path contains `scope`
    /// as a substring (empty scope = all nets).  `windows` at `window_ps`
    /// each mirror the power recorder's bins (one per clock cycle);
    /// toggles past the last window are dropped, like power samples.
    AttributionPlan(const netlist::Netlist& nl, std::size_t windows,
                    sim::TimePs window_ps, std::string_view scope = {});

    [[nodiscard]] bool enabled() const noexcept { return !nets_.empty(); }
    [[nodiscard]] std::size_t net_count() const noexcept { return nets_.size(); }
    [[nodiscard]] std::size_t windows() const noexcept { return windows_; }
    [[nodiscard]] sim::TimePs window_ps() const noexcept { return window_ps_; }
    [[nodiscard]] std::size_t points() const noexcept {
        return nets_.size() * windows_;
    }
    [[nodiscard]] const std::string& scope() const noexcept { return scope_; }

    /// Net id of watched-net index `probe`.
    [[nodiscard]] netlist::NetId net(std::size_t probe) const {
        return nets_[probe];
    }
    /// Watched-net index of `net`, or kUnwatched.
    [[nodiscard]] std::uint32_t probe_of(netlist::NetId net) const noexcept {
        return probe_of_[net];
    }
    /// Flat accumulator index of (probe, window).  Window-major on
    /// purpose: commits arrive in time order, so one window's counters
    /// form a contiguous net_count-sized slice -- the probes' working set
    /// stays cache-resident while a window is active, and fold walks the
    /// accumulator as a near-sequential stream instead of striding
    /// `windows` apart on every deposit (at DES scale the accumulator is
    /// ~14 MB, so the stride order was a cache miss per toggle).
    [[nodiscard]] std::size_t point_index(std::size_t probe,
                                          std::size_t window) const noexcept {
        return window * nets_.size() + probe;
    }

private:
    std::vector<netlist::NetId> nets_;       // probe index -> net
    std::vector<std::uint32_t> probe_of_;    // net -> probe index
    std::size_t windows_ = 0;
    sim::TimePs window_ps_ = 0;
    std::string scope_;
};

/// Per-(net, window) class statistics.  sum/sumsq representation instead
/// of Welford: traces in which the point never toggled contribute zeros,
/// which leave sums unchanged -- the sparse per-trace update only visits
/// points that toggled, yet the statistics cover every trace (the class
/// counts live once per accumulator).
struct PointStats {
    double sum_fixed = 0.0;
    double sumsq_fixed = 0.0;
    double sum_random = 0.0;
    double sumsq_random = 0.0;
    std::uint64_t toggles = 0;   // committed toggles, both classes
    std::uint64_t glitches = 0;  // 2nd+ toggle within one window per trace

    friend bool operator==(const PointStats&, const PointStats&) = default;
};

/// Per-block attribution state; rides the campaign's fixed merge tree.
class AttributionAccumulator {
public:
    AttributionAccumulator() = default;  // disabled: zero points
    explicit AttributionAccumulator(std::size_t points) : points_(points) {}

    [[nodiscard]] bool enabled() const noexcept { return !points_.empty(); }
    [[nodiscard]] std::size_t size() const noexcept { return points_.size(); }
    [[nodiscard]] const PointStats& point(std::size_t i) const {
        return points_[i];
    }
    [[nodiscard]] PointStats& point(std::size_t i) { return points_[i]; }

    std::uint64_t traces_fixed = 0;
    std::uint64_t traces_random = 0;

    /// Componentwise addition (associative and exact for the integer
    /// counters; FP sums follow the fixed merge-tree order).
    void merge(const AttributionAccumulator& other);

    /// Exact binary round-trip (doubles as bit patterns).
    void encode(SnapshotWriter& out) const;
    [[nodiscard]] static AttributionAccumulator decode(SnapshotReader& in);

    friend bool operator==(const AttributionAccumulator&,
                           const AttributionAccumulator&) = default;

private:
    std::vector<PointStats> points_;
};

// ----- probe taps ---------------------------------------------------------

/// Scalar probe: a ToggleSink chained in front of the power recorder
/// (every call is forwarded, so enabling attribution cannot perturb the
/// power trace).  Per trace it keeps a saturating 8-bit toggle count per
/// touched (net, window) point; fold_trace() flushes the touched list
/// into a block accumulator and re-arms via an epoch bump -- no per-trace
/// clearing of the point arrays.
class AttributionProbe final : public sim::ToggleSink {
public:
    AttributionProbe(const AttributionPlan& plan, sim::ToggleSink* next);

    /// Arms the probe for the next trace; call alongside the recorder's
    /// begin_trace() (after the simulator restart).
    void begin_trace();

    void on_toggle(netlist::NetId net, sim::TimePs time, bool value) override;

    /// Folds the finished trace's counts into `acc` under class `fixed`
    /// and re-arms.  `acc` must span plan.points().
    void fold_trace(bool fixed, AttributionAccumulator& acc);

private:
    const AttributionPlan& plan_;
    sim::ToggleSink* next_;
    std::vector<std::uint32_t> stamp_;   // per point: epoch of last touch
    std::vector<std::uint8_t> count_;    // valid when stamp matches epoch
    std::vector<std::uint32_t> touched_; // point indices, commit order
    std::uint32_t epoch_ = 1;
    // Monotonic window cursor (commit times never decrease in a trace):
    // window_end_ == (cur_window_ + 1) * window_ps.
    std::size_t cur_window_ = 0;
    sim::TimePs window_end_ = 0;
};

namespace plane_kernels {

/// Bit planes per lane-count row: counts saturate at 255.
inline constexpr unsigned kPlanes = 8;

/// Folds and clears one window of BatchAttributionProbe's bit-plane
/// counters: for every net whose bit is set in `touched` (`words`
/// words), adds its planes' (`planes + net * 8`) class sums, sums of
/// squares and toggling-lane count to `block + net * 5` (null: discard),
/// then zeroes its planes and every touched bit.  Lanes outside
/// `fixed_lanes | random_lanes` never count.  All levels are
/// bit-identical (integer arithmetic only).
using FoldPlanesFn = void (*)(std::uint64_t* planes, std::uint64_t* touched,
                              std::size_t words, std::uint64_t fixed_lanes,
                              std::uint64_t random_lanes,
                              std::uint32_t* block);

void fold_planes_scalar(std::uint64_t* planes, std::uint64_t* touched,
                        std::size_t words, std::uint64_t fixed_lanes,
                        std::uint64_t random_lanes, std::uint32_t* block);
#if defined(GLITCHMASK_HAVE_AVX2)
void fold_planes_avx2(std::uint64_t* planes, std::uint64_t* touched,
                      std::size_t words, std::uint64_t fixed_lanes,
                      std::uint64_t random_lanes, std::uint32_t* block);
#endif

/// Kernel for support::active_simd_level(); never null.
[[nodiscard]] FoldPlanesFn resolve_fold_planes() noexcept;

}  // namespace plane_kernels

/// Bitsliced probe: same contract for up to 64 traces per lane-engine
/// pass.  The active window's 64 lane counts per watched net live as
/// *bit planes* (plane k holds bit k of every lane's count, 64 bytes per
/// net): a deposit is a branch-free ripple-carry add of the toggled-lane
/// mask, and a window fold is a handful of popcounts over the planes in
/// use.  Each window's subtotals are folded the moment the window cursor
/// passes it -- the planes are still cache-hot then -- and its rows are
/// cleared for the next window, so the working set stays net_count x 64
/// bytes for the whole group instead of one row per (net, window)
/// point.  All accumulator sums are exact small integers held in doubles
/// (counts saturate at 255, totals stay far below 2^53), so this early,
/// chunk-interleaved addition order is bit-identical to 64 scalar
/// fold_trace() calls.  The lane engine hands the probe batches of
/// commits: it forwards each batch to the wrapped sink (the chunk's power
/// recorder) and then runs its counters over the same entries.
class BatchAttributionProbe final : public sim::BatchToggleSink {
public:
    BatchAttributionProbe(const AttributionPlan& plan,
                          sim::BatchToggleSink* next);

    /// Arms the probe for the next lane group and registers its fold
    /// target: bit l of `fixed_mask` labels lane l's class, lanes >=
    /// `count` (partial final group) are ignored, and `acc` -- which must
    /// outlive the group -- receives each window's subtotals as the
    /// cursor passes it.  Call alongside the batch recorder's
    /// begin_trace().
    void begin_group(std::uint64_t fixed_mask, unsigned count,
                     AttributionAccumulator& acc);

    /// Forwards the batch to the wrapped sink, then counts its entries.
    void on_toggles(std::span<const sim::ToggleEntry> batch) override;
    void on_toggle(netlist::NetId net, sim::TimePs time, std::uint64_t values,
                   std::uint64_t toggled) override;
    /// The wrapped sink's partner table (the probe itself reads none).
    [[nodiscard]] const netlist::NetId* coupling_partners()
        const noexcept override {
        return next_ != nullptr ? next_->coupling_partners() : nullptr;
    }

    /// Flushes the windows still pending into the block subtotals and
    /// adds the per-class trace counts to the accumulator registered by
    /// begin_group().
    void fold_group();

    /// Spills the block subtotals into the registered accumulator; call
    /// once per block, after the last fold_group().  (Group flushes land
    /// in a compact u32 staging array -- 20 bytes per point instead of
    /// the accumulator's 48 -- so the expensive full-accumulator pass
    /// runs once per block, not once per 64-trace group.)
    void spill_block();

private:
    /// Deposits the batch's watched entries into the active window's
    /// planes, folding each window the cursor passes.
    void count(std::span<const sim::ToggleEntry> batch);
    void flush_window();

    static constexpr unsigned kPlanes = plane_kernels::kPlanes;

    const AttributionPlan& plan_;
    sim::BatchToggleSink* next_;
    // Active window's counts: kPlanes lane-count planes per watched net.
    std::vector<std::uint64_t> planes_;
    // One bit per watched net with a nonzero count in the active window.
    std::vector<std::uint64_t> touched_;
    // Per-point block subtotals, 5 u32 each: sum/sumsq per class plus the
    // toggling-lane count (toggles = sum_f + sum_r, glitches = toggles -
    // lanes).  Exact small integers, spilled into the accumulator's
    // (equally exact) doubles by spill_block().
    std::vector<std::uint32_t> block_;
    // Monotonic window cursor (commit times never decrease in a group):
    // window_end_ == (cur_window_ + 1) * window_ps.
    std::size_t cur_window_ = 0;
    sim::TimePs window_end_ = 0;
    // Fold target for the in-flight block.
    std::uint64_t fixed_mask_ = 0;
    unsigned count_ = 0;
    unsigned groups_in_block_ = 0;
    AttributionAccumulator* acc_ = nullptr;
};

// ----- analysis and reports ----------------------------------------------

/// One ranked culprit: net -> driving gate instance -> gadget role.
struct NetAttribution {
    netlist::NetId net = netlist::kNoNet;
    std::string name;        // hierarchical instance name (n<id> fallback)
    std::string kind;        // driving gate kind ("and2", "dff", ...)
    std::string module;      // gadget role: module scope path ("" = top)
    double max_abs_t = 0.0;  // max over windows (order 1, toggle counts)
    std::size_t argmax_window = 0;
    double snr = 0.0;        // at the argmax window
    std::uint64_t toggles = 0;
    std::uint64_t glitches = 0;
    double glitch_density = 0.0;  // glitches per trace

    friend bool operator==(const NetAttribution&,
                           const NetAttribution&) = default;
};

/// Full attribution view of one campaign: every watched net ranked by
/// max |t| (descending; ties by glitch count, then net id), plus the
/// per-window |t| and glitch matrices behind the heatmap, stored in
/// ranked-row order (row i belongs to ranked[i]).
struct AttributionResult {
    bool enabled = false;
    std::uint64_t traces_fixed = 0;
    std::uint64_t traces_random = 0;
    std::size_t windows = 0;
    std::vector<NetAttribution> ranked;
    std::vector<double> abs_t;                   // ranked.size() x windows
    std::vector<std::uint64_t> window_glitches;  // ranked.size() x windows

    [[nodiscard]] double t_at(std::size_t rank, std::size_t window) const {
        return abs_t[rank * windows + window];
    }
    [[nodiscard]] std::uint64_t glitches_at(std::size_t rank,
                                            std::size_t window) const {
        return window_glitches[rank * windows + window];
    }

    friend bool operator==(const AttributionResult&,
                           const AttributionResult&) = default;
};

/// Computes per-point Welch t and SNR from the merged accumulator and
/// ranks every watched net.  Deterministic: a pure function of the
/// accumulator (which is itself bit-identical across workers/lanes).
[[nodiscard]] AttributionResult analyze_attribution(
    const netlist::Netlist& nl, const AttributionPlan& plan,
    const AttributionAccumulator& acc);

/// Prints the top-k culprit table (net, gate, role, |t|, SNR, glitch
/// density) to stdout.
void print_culprit_table(const AttributionResult& result, std::size_t top_k);

/// Per-net CSV: summary columns plus one |t| and one glitch-count column
/// per window (the heatmap, one row per net in ranked order).
[[nodiscard]] std::string attribution_csv(const AttributionResult& result);

/// attribution_csv() to a file; throws std::runtime_error on I/O error.
void write_attribution_csv(const std::string& path,
                           const AttributionResult& result);

/// Graphviz DOT of the netlist with the top-k culprit cells annotated:
/// |t| + glitch count in the label, heat-colored fill (red = rank 0).
[[nodiscard]] std::string attribution_dot(const netlist::Netlist& nl,
                                          const AttributionResult& result,
                                          std::size_t top_k,
                                          netlist::DotOptions options = {});

}  // namespace glitchmask::leakage
