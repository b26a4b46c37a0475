#include "leakage/attribution.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "leakage/plane_fold_impl.h"
#include "leakage/ttest.hpp"
#include "support/simd.hpp"
#include "support/table.hpp"

namespace glitchmask::leakage {

// ----- plan ---------------------------------------------------------------

AttributionPlan::AttributionPlan(const netlist::Netlist& nl,
                                 std::size_t windows, sim::TimePs window_ps,
                                 std::string_view scope)
    : windows_(windows), window_ps_(window_ps), scope_(scope) {
    if (windows == 0 || window_ps <= 0)
        throw std::invalid_argument(
            "AttributionPlan: windows and window_ps must be positive");
    probe_of_.assign(nl.size(), kUnwatched);
    for (netlist::NetId id = 0; id < nl.size(); ++id) {
        if (!scope_.empty()) {
            const std::string& module = nl.module_names()[nl.module_of(id)];
            if (module.find(scope_) == std::string::npos) continue;
        }
        probe_of_[id] = static_cast<std::uint32_t>(nets_.size());
        nets_.push_back(id);
    }
}

// ----- accumulator --------------------------------------------------------

void AttributionAccumulator::merge(const AttributionAccumulator& other) {
    if (points_.size() != other.points_.size())
        throw std::invalid_argument(
            "AttributionAccumulator::merge: point count mismatch");
    traces_fixed += other.traces_fixed;
    traces_random += other.traces_random;
    for (std::size_t i = 0; i < points_.size(); ++i) {
        PointStats& into = points_[i];
        const PointStats& from = other.points_[i];
        into.sum_fixed += from.sum_fixed;
        into.sumsq_fixed += from.sumsq_fixed;
        into.sum_random += from.sum_random;
        into.sumsq_random += from.sumsq_random;
        into.toggles += from.toggles;
        into.glitches += from.glitches;
    }
}

void AttributionAccumulator::encode(SnapshotWriter& out) const {
    out.u64(traces_fixed);
    out.u64(traces_random);
    out.u64(points_.size());
    for (const PointStats& p : points_) {
        out.f64(p.sum_fixed);
        out.f64(p.sumsq_fixed);
        out.f64(p.sum_random);
        out.f64(p.sumsq_random);
        out.u64(p.toggles);
        out.u64(p.glitches);
    }
}

AttributionAccumulator AttributionAccumulator::decode(SnapshotReader& in) {
    AttributionAccumulator acc;
    acc.traces_fixed = in.u64();
    acc.traces_random = in.u64();
    const std::uint64_t points = in.u64();
    acc.points_.resize(points);
    for (PointStats& p : acc.points_) {
        p.sum_fixed = in.f64();
        p.sumsq_fixed = in.f64();
        p.sum_random = in.f64();
        p.sumsq_random = in.f64();
        p.toggles = in.u64();
        p.glitches = in.u64();
    }
    return acc;
}

// ----- scalar probe -------------------------------------------------------

AttributionProbe::AttributionProbe(const AttributionPlan& plan,
                                   sim::ToggleSink* next)
    : plan_(plan), next_(next) {
    stamp_.assign(plan.points(), 0);
    count_.assign(plan.points(), 0);
}

void AttributionProbe::begin_trace() {
    touched_.clear();
    if (++epoch_ == 0) {  // u32 wrap: stale stamps could alias epoch 0
        std::fill(stamp_.begin(), stamp_.end(), 0u);
        epoch_ = 1;
    }
    cur_window_ = 0;
    window_end_ = plan_.window_ps();
}

void AttributionProbe::on_toggle(netlist::NetId net, sim::TimePs time,
                                 bool value) {
    if (next_ != nullptr) next_->on_toggle(net, time, value);
    const std::uint32_t probe = plan_.probe_of(net);
    if (probe == AttributionPlan::kUnwatched) return;
    if (cur_window_ >= plan_.windows()) return;
    while (time >= window_end_) {  // commit times never decrease in a trace
        window_end_ += plan_.window_ps();
        if (++cur_window_ >= plan_.windows()) return;
    }
    const std::size_t point = plan_.point_index(probe, cur_window_);
    if (stamp_[point] != epoch_) {
        stamp_[point] = epoch_;
        count_[point] = 1;
        touched_.push_back(static_cast<std::uint32_t>(point));
    } else if (count_[point] != 255) {
        ++count_[point];
    }
}

void AttributionProbe::fold_trace(bool fixed, AttributionAccumulator& acc) {
    if (fixed)
        ++acc.traces_fixed;
    else
        ++acc.traces_random;
    for (const std::uint32_t point : touched_) {
        const std::uint8_t count = count_[point];
        const double v = static_cast<double>(count);
        PointStats& p = acc.point(point);
        if (fixed) {
            p.sum_fixed += v;
            p.sumsq_fixed += v * v;
        } else {
            p.sum_random += v;
            p.sumsq_random += v * v;
        }
        p.toggles += count;
        p.glitches += count - 1u;
    }
    begin_trace();
}

// ----- batch probe --------------------------------------------------------

namespace plane_kernels {

void fold_planes_scalar(std::uint64_t* planes, std::uint64_t* touched,
                        std::size_t words, std::uint64_t fixed_lanes,
                        std::uint64_t random_lanes, std::uint32_t* block) {
    fold_planes_impl(planes, touched, words, fixed_lanes, random_lanes, block);
}

FoldPlanesFn resolve_fold_planes() noexcept {
#if defined(GLITCHMASK_HAVE_AVX2)
    if (support::active_simd_level() >= support::SimdLevel::kAvx2)
        return fold_planes_avx2;
#endif
    return fold_planes_scalar;
}

}  // namespace plane_kernels

BatchAttributionProbe::BatchAttributionProbe(const AttributionPlan& plan,
                                             sim::BatchToggleSink* next)
    : plan_(plan), next_(next) {
    planes_.assign(plan.net_count() * std::size_t{kPlanes}, 0u);
    touched_.assign((plan.net_count() + 63u) / 64u, 0u);
}

void BatchAttributionProbe::begin_group(std::uint64_t fixed_mask,
                                        unsigned count,
                                        AttributionAccumulator& acc) {
    // A new fold target (or a u32-headroom limit: sumsq grows by at most
    // 64 * 255^2 per group, so ~1000 groups fit) forces a spill of the
    // staged subtotals first.
    if (acc_ != nullptr && (acc_ != &acc || groups_in_block_ >= 1000))
        spill_block();
    if (block_.empty()) block_.assign(plan_.points() * 5, 0u);
    count_ = 0;  // no fold target: the flush below only clears
    flush_window();  // counts an unfolded pass left behind
    cur_window_ = 0;
    window_end_ = plan_.window_ps();
    fixed_mask_ = fixed_mask;
    count_ = count;
    acc_ = &acc;
}

void BatchAttributionProbe::on_toggles(
    std::span<const sim::ToggleEntry> batch) {
    // The recorder and the counters keep independent state, so the whole
    // batch can go to the recorder first.
    if (next_ != nullptr) next_->on_toggles(batch);
    count(batch);
}

void BatchAttributionProbe::on_toggle(netlist::NetId net, sim::TimePs time,
                                      std::uint64_t values,
                                      std::uint64_t toggled) {
    if (next_ != nullptr) next_->on_toggle(net, time, values, toggled);
    const sim::ToggleEntry entry{net, time, values, toggled, 0};
    count(std::span<const sim::ToggleEntry>(&entry, 1));
}

void BatchAttributionProbe::count(std::span<const sim::ToggleEntry> batch) {
    // One pass per batch, with the window cursor and the plan's bounds in
    // locals: the deposit runs once per watched commit (millions of times
    // per attributed DES campaign), so it makes no call per entry.
    const std::size_t windows = plan_.windows();
    const sim::TimePs window_ps = plan_.window_ps();
    std::size_t cur_window = cur_window_;
    sim::TimePs window_end = window_end_;
    for (const sim::ToggleEntry& e : batch) {
        const std::uint32_t probe = plan_.probe_of(e.net);
        if (probe == AttributionPlan::kUnwatched) continue;
        // Commit times never decrease in a group, so once the cursor is
        // past the last window every later entry is dropped too.
        if (cur_window >= windows) break;
        if (e.time >= window_end) {
            // The cursor leaves one or more windows behind: their
            // counters are final, so fold them while they are still
            // cache-hot and clear the plane rows for the windows ahead.
            cur_window_ = cur_window;
            flush_window();
            do {
                window_end += window_ps;
            } while (++cur_window < windows && e.time >= window_end);
            if (cur_window >= windows) break;
        }
        // Ripple-carry add of the toggled-lane mask through all the
        // planes: branch-free, since whether the carry dies in plane 0,
        // 1 or 2 is data-dependent and would mispredict.
        std::uint64_t* planes = planes_.data() + probe * std::size_t{kPlanes};
        std::uint64_t carry = e.toggled;
        for (unsigned k = 0; k < kPlanes; ++k) {
            const std::uint64_t plane = planes[k];
            planes[k] = plane ^ carry;
            carry &= plane;
        }
        if (carry != 0) {
            // Carry out of the top plane: exactly the lanes that sat at
            // 255 and wrapped to 0 -- pin them back (saturation).
            for (unsigned k = 0; k < kPlanes; ++k) planes[k] |= carry;
        }
        touched_[probe / 64u] |= std::uint64_t{1} << (probe % 64u);
    }
    cur_window_ = cur_window;
    window_end_ = window_end;
}

void BatchAttributionProbe::flush_window() {
    // Every addend is a small integer (counts saturate at 255) and every
    // partial sum stays far below 2^53, so the accumulator's doubles only
    // ever hold *exact* integers: no addition ever rounds, and any
    // association of the same addends lands on the same double.  That
    // frees the fold from replaying the scalar path's per-trace FP chain
    // -- subtotal in plain integers, in net order rather than commit
    // order, and add one exact subtotal per class, still `==` the scalar
    // fold_trace() sequence.
    static const plane_kernels::FoldPlanesFn kernel =
        plane_kernels::resolve_fold_planes();
    // Lanes >= count_ (partial final group) never enter the sums.
    const std::uint64_t live =
        count_ >= sim::kBatchLanes ? ~std::uint64_t{0}
                                   : (std::uint64_t{1} << count_) - 1u;
    std::uint32_t* block =
        count_ != 0 && acc_ != nullptr
            ? block_.data() + plan_.point_index(0, cur_window_) * std::size_t{5}
            : nullptr;
    kernel(planes_.data(), touched_.data(), touched_.size(),
           live & fixed_mask_, live & ~fixed_mask_, block);
}

void BatchAttributionProbe::fold_group() {
    flush_window();
    if (acc_ == nullptr) return;
    ++groups_in_block_;
    for (unsigned lane = 0; lane < count_; ++lane) {
        if ((fixed_mask_ >> lane) & 1u)
            ++acc_->traces_fixed;
        else
            ++acc_->traces_random;
    }
}

void BatchAttributionProbe::spill_block() {
    if (acc_ == nullptr || block_.empty()) {
        groups_in_block_ = 0;
        return;
    }
    const std::size_t points = plan_.points();
    for (std::size_t point = 0; point < points; ++point) {
        std::uint32_t* b = block_.data() + point * std::size_t{5};
        // Skip untouched points entirely, like the scalar fold (adding
        // an exact 0.0 would still be a wasted dirty cache line).
        if ((b[0] | b[1] | b[2] | b[3] | b[4]) == 0) continue;
        PointStats& p = acc_->point(point);
        p.sum_fixed += static_cast<double>(b[0]);
        p.sumsq_fixed += static_cast<double>(b[1]);
        p.sum_random += static_cast<double>(b[2]);
        p.sumsq_random += static_cast<double>(b[3]);
        const std::uint64_t toggles = std::uint64_t{b[0]} + b[2];
        p.toggles += toggles;
        p.glitches += toggles - b[4];
        b[0] = b[1] = b[2] = b[3] = b[4] = 0;
    }
    groups_in_block_ = 0;
    acc_ = nullptr;
}

// ----- analysis -----------------------------------------------------------

namespace {

struct ClassStats {
    double mean = 0.0;
    double variance = 0.0;
};

/// Mean and unbiased variance of one class over n traces (the sums cover
/// only toggling traces; the remaining n - k samples are exact zeros).
ClassStats class_stats(double sum, double sumsq, std::uint64_t n) {
    ClassStats s;
    if (n == 0) return s;
    const double dn = static_cast<double>(n);
    s.mean = sum / dn;
    if (n >= 2) s.variance = (sumsq - dn * s.mean * s.mean) / (dn - 1.0);
    if (s.variance < 0.0) s.variance = 0.0;  // FP cancellation guard
    return s;
}

/// First-order SNR: between-class variance of the means over the mean
/// within-class variance; 0.0 sentinel on degenerate inputs.
double snr_of(const ClassStats& f, std::uint64_t nf, const ClassStats& r,
              std::uint64_t nr) {
    if (nf < 2 || nr < 2) return 0.0;
    const double dnf = static_cast<double>(nf);
    const double dnr = static_cast<double>(nr);
    const double n = dnf + dnr;
    const double grand = (dnf * f.mean + dnr * r.mean) / n;
    const double between = (dnf * (f.mean - grand) * (f.mean - grand) +
                            dnr * (r.mean - grand) * (r.mean - grand)) /
                           n;
    const double within = (dnf * f.variance + dnr * r.variance) / n;
    if (!(within > 0.0)) return 0.0;
    return between / within;
}

}  // namespace

AttributionResult analyze_attribution(const netlist::Netlist& nl,
                                      const AttributionPlan& plan,
                                      const AttributionAccumulator& acc) {
    AttributionResult result;
    result.enabled = plan.enabled();
    result.traces_fixed = acc.traces_fixed;
    result.traces_random = acc.traces_random;
    result.windows = plan.windows();
    if (!plan.enabled()) return result;
    if (acc.size() != plan.points())
        throw std::invalid_argument(
            "analyze_attribution: accumulator does not match the plan");

    const std::uint64_t traces = acc.traces_fixed + acc.traces_random;
    const std::size_t windows = plan.windows();
    const std::size_t net_count = plan.net_count();
    std::vector<std::size_t> order(net_count);
    std::vector<NetAttribution> nets(net_count);
    // Net-major (net * windows + window), the layout of the result rows.
    std::vector<double> abs_t(plan.points(), 0.0);
    std::vector<std::uint64_t> glitches(plan.points(), 0);

    for (std::size_t i = 0; i < net_count; ++i) {
        order[i] = i;
        const netlist::NetId id = plan.net(i);
        NetAttribution& net = nets[i];
        net.net = id;
        net.name = nl.name(id).empty() ? "n" + std::to_string(id) : nl.name(id);
        net.kind = std::string(netlist::kind_name(nl.cell(id).kind));
        net.module = nl.module_names()[nl.module_of(id)];
    }
    // Window-major walk: the accumulator streams in storage order, and
    // each net still sees its windows in increasing order, so the strict
    // `>` keeps the first window of the maximum as argmax.
    for (std::size_t w = 0; w < windows; ++w) {
        for (std::size_t i = 0; i < net_count; ++i) {
            const PointStats& p = acc.point(plan.point_index(i, w));
            NetAttribution& net = nets[i];
            net.toggles += p.toggles;
            net.glitches += p.glitches;
            glitches[i * windows + w] = p.glitches;
            // A point that never toggled has zero means and variances,
            // so its t is the 0.0 sentinel abs_t already holds (about
            // half the points of a scoped DES run).
            if (p.sum_fixed == 0.0 && p.sum_random == 0.0 &&
                p.sumsq_fixed == 0.0 && p.sumsq_random == 0.0)
                continue;
            const ClassStats f =
                class_stats(p.sum_fixed, p.sumsq_fixed, acc.traces_fixed);
            const ClassStats r =
                class_stats(p.sum_random, p.sumsq_random, acc.traces_random);
            const double t = welch_t(
                f.mean, f.variance, static_cast<double>(acc.traces_fixed),
                r.mean, r.variance, static_cast<double>(acc.traces_random));
            const double at = t < 0.0 ? -t : t;
            abs_t[i * windows + w] = at;
            if (at > net.max_abs_t) {
                net.max_abs_t = at;
                net.argmax_window = w;
                net.snr = snr_of(f, acc.traces_fixed, r, acc.traces_random);
            }
        }
    }
    for (NetAttribution& net : nets)
        net.glitch_density =
            traces > 0
                ? static_cast<double>(net.glitches) / static_cast<double>(traces)
                : 0.0;

    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        if (nets[a].max_abs_t != nets[b].max_abs_t)
            return nets[a].max_abs_t > nets[b].max_abs_t;
        if (nets[a].glitches != nets[b].glitches)
            return nets[a].glitches > nets[b].glitches;
        return nets[a].net < nets[b].net;
    });

    result.ranked.reserve(nets.size());
    result.abs_t.resize(plan.points());
    result.window_glitches.resize(plan.points());
    for (std::size_t rank = 0; rank < order.size(); ++rank) {
        const std::size_t i = order[rank];
        result.ranked.push_back(std::move(nets[i]));
        for (std::size_t w = 0; w < windows; ++w) {
            result.abs_t[rank * windows + w] = abs_t[i * windows + w];
            result.window_glitches[rank * windows + w] =
                glitches[i * windows + w];
        }
    }
    return result;
}

// ----- reports ------------------------------------------------------------

void print_culprit_table(const AttributionResult& result, std::size_t top_k) {
    TablePrinter table({"rank", "net", "gate", "gadget role", "max|t|",
                        "window", "SNR", "glitch/trace"});
    const std::size_t rows = std::min(top_k, result.ranked.size());
    for (std::size_t rank = 0; rank < rows; ++rank) {
        const NetAttribution& net = result.ranked[rank];
        table.add_row({std::to_string(rank + 1), net.name, net.kind,
                       net.module.empty() ? "(top)" : net.module,
                       TablePrinter::num(net.max_abs_t),
                       std::to_string(net.argmax_window),
                       TablePrinter::num(net.snr, 4),
                       TablePrinter::num(net.glitch_density, 4)});
    }
    table.print();
}

std::string attribution_csv(const AttributionResult& result) {
    std::string out =
        "net,name,kind,module,max_abs_t,argmax_window,snr,toggles,glitches,"
        "glitch_density";
    for (std::size_t w = 0; w < result.windows; ++w)
        out += ",abs_t_w" + std::to_string(w);
    for (std::size_t w = 0; w < result.windows; ++w)
        out += ",glitches_w" + std::to_string(w);
    out += '\n';
    char buf[64];
    const auto num = [&buf](double v) {
        std::snprintf(buf, sizeof buf, "%.9g", v);
        return std::string(buf);
    };
    for (std::size_t rank = 0; rank < result.ranked.size(); ++rank) {
        const NetAttribution& net = result.ranked[rank];
        out += std::to_string(net.net) + ',' + net.name + ',' + net.kind + ',' +
               net.module + ',' + num(net.max_abs_t) + ',' +
               std::to_string(net.argmax_window) + ',' + num(net.snr) + ',' +
               std::to_string(net.toggles) + ',' + std::to_string(net.glitches) +
               ',' + num(net.glitch_density);
        for (std::size_t w = 0; w < result.windows; ++w)
            out += ',' + num(result.t_at(rank, w));
        for (std::size_t w = 0; w < result.windows; ++w)
            out += ',' + std::to_string(result.glitches_at(rank, w));
        out += '\n';
    }
    return out;
}

void write_attribution_csv(const std::string& path,
                           const AttributionResult& result) {
    std::ofstream file(path);
    if (!file)
        throw std::runtime_error("write_attribution_csv: cannot open " + path);
    file << attribution_csv(result);
    file.flush();
    if (!file)
        throw std::runtime_error("write_attribution_csv: write failed for " +
                                 path);
}

std::string attribution_dot(const netlist::Netlist& nl,
                            const AttributionResult& result, std::size_t top_k,
                            netlist::DotOptions options) {
    options.cell_annotations.assign(nl.size(), std::string());
    options.cell_colors.assign(nl.size(), std::string());
    const std::size_t rows = std::min(top_k, result.ranked.size());
    char buf[96];
    for (std::size_t rank = 0; rank < rows; ++rank) {
        const NetAttribution& net = result.ranked[rank];
        if (net.net >= nl.size()) continue;
        std::snprintf(buf, sizeof buf, "|t|=%.1f g=%llu", net.max_abs_t,
                      static_cast<unsigned long long>(net.glitches));
        options.cell_annotations[net.net] = buf;
        // Heat scale red (rank 0) -> yellow (last annotated rank).
        const double frac =
            rows > 1 ? static_cast<double>(rank) / static_cast<double>(rows - 1)
                     : 0.0;
        std::snprintf(buf, sizeof buf, "%.3f 0.85 1.0", 0.15 * frac);
        options.cell_colors[net.net] = buf;
    }
    return netlist::to_dot(nl, options);
}

}  // namespace glitchmask::leakage
