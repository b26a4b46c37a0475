#include "leakage/moment_bank.hpp"

#include <cmath>
#include <stdexcept>

#include "support/campaign_error.hpp"
#include "support/simd.hpp"

namespace glitchmask::leakage {

namespace bank_kernels {

namespace {

// Same definitions as leakage/moments.cpp -- the kernels must reproduce
// MomentAccumulator's coefficient values exactly, and both are pure
// functions evaluated in the same operation order.
[[nodiscard]] double binomial(int n, int k) {
    double result = 1.0;
    for (int i = 1; i <= k; ++i)
        result = result * static_cast<double>(n - k + i) / static_cast<double>(i);
    return result;
}

[[nodiscard]] double ipow(double base, int exponent) {
    double result = 1.0;
    for (int i = 0; i < exponent; ++i) result *= base;
    return result;
}

}  // namespace

FoldCoefficients fold_coefficients(int max_order, double n1) noexcept {
    struct Table {
        double binom[7][7];
    };
    static const Table table = [] {
        Table t{};
        for (int p = 2; p <= 6; ++p)
            for (int k = 1; k <= p - 2; ++k) t.binom[p][k] = binomial(p, k);
        return t;
    }();
    FoldCoefficients c{};
    c.binom = table.binom;
    const double neg_inv = -1.0 / n1;
    for (int p = 2; p <= max_order; ++p) c.tail[p] = 1.0 - ipow(neg_inv, p - 1);
    return c;
}

void fold_row_scalar(double* mean, double* sums, std::size_t points,
                     std::size_t stride, int max_order, double n1, double n,
                     const double* row) {
    if (n1 == 0.0) {
        // First trace of the class: central sums stay zero, only the
        // means move (MomentAccumulator::add's early return).
        for (std::size_t i = 0; i < points; ++i) {
            const double delta = row[i] - mean[i];
            const double delta_n = delta / n;
            mean[i] += delta_n;
        }
        return;
    }
    // The Pebay coefficients depend only on (p, k, n1, n) -- scalars the
    // whole row shares -- so hoist them out of the point loop.
    const FoldCoefficients c = fold_coefficients(max_order, n1);
    for (std::size_t i = 0; i < points; ++i) {
        const double x = row[i];
        const double delta = x - mean[i];
        const double delta_n = delta / n;
        mean[i] += delta_n;
        for (int p = max_order; p >= 2; --p) {
            double update = sums[static_cast<std::size_t>(p) * stride + i];
            for (int k = 1; k <= p - 2; ++k)
                update += c.binom[p][k] *
                          sums[static_cast<std::size_t>(p - k) * stride + i] *
                          ipow(-delta_n, k);
            const double term = n1 * delta / n;
            update += ipow(term, p) * c.tail[p];
            sums[static_cast<std::size_t>(p) * stride + i] = update;
        }
    }
}

FoldRowFn resolve_fold_row() noexcept {
#if defined(GLITCHMASK_HAVE_AVX512)
    if (support::active_simd_level() >= support::SimdLevel::kAvx512)
        return fold_row_avx512;
#endif
#if defined(GLITCHMASK_HAVE_AVX2)
    if (support::active_simd_level() >= support::SimdLevel::kAvx2)
        return fold_row_avx2;
#endif
    return fold_row_scalar;
}

}  // namespace bank_kernels

MomentBank::MomentBank(std::size_t points, int max_test_order)
    : points_(points),
      max_test_order_(max_test_order),
      max_order_(2 * max_test_order < 2 ? 2 : 2 * max_test_order) {
    if (max_test_order < 1 || max_test_order > 3)
        throw std::invalid_argument("MomentBank: order must be 1..3");
    for (ClassPlanes* planes : {&fixed_, &random_}) {
        planes->mean.assign(points_, 0.0);
        planes->sums.assign(static_cast<std::size_t>(max_order_ + 1) * points_,
                            0.0);
    }
}

void MomentBank::fold(ClassPlanes& planes, const double* row) {
    static const bank_kernels::FoldRowFn kernel =
        bank_kernels::resolve_fold_row();
    const double n1 = planes.n;
    planes.n += 1.0;
    kernel(planes.mean.data(), planes.sums.data(), points_, points_,
           max_order_, n1, planes.n, row);
}

void MomentBank::add_trace(bool fixed_class, const double* row) {
    fold(fixed_class ? fixed_ : random_, row);
}

void MomentBank::merge_class(ClassPlanes& into,
                             const ClassPlanes& from) const {
    using bank_kernels::binomial;
    using bank_kernels::ipow;
    if (from.n == 0.0) return;
    if (into.n == 0.0) {
        into = from;
        return;
    }
    const double na = into.n;
    const double nb = from.n;
    const double n = na + nb;
    double binom[7][7];
    double tail[7];
    for (int p = 2; p <= max_order_; ++p) {
        for (int k = 1; k <= p - 2; ++k) binom[p][k] = binomial(p, k);
        tail[p] = 1.0 / ipow(nb, p - 1) - ipow(-1.0 / na, p - 1);
    }
    // Merges are block-boundary events (points-per-block, not
    // traces-per-block, frequency), so the scalar per-point loop is fine;
    // the op sequence mirrors MomentAccumulator::merge exactly.  `merged`
    // buffers row p so the reads of lower rows see pre-merge values.
    for (std::size_t i = 0; i < points_; ++i) {
        const double delta = from.mean[i] - into.mean[i];
        double merged[7];
        for (int p = 2; p <= max_order_; ++p) {
            const std::size_t prow = static_cast<std::size_t>(p) * points_;
            double value = into.sums[prow + i] + from.sums[prow + i];
            for (int k = 1; k <= p - 2; ++k) {
                const std::size_t krow =
                    static_cast<std::size_t>(p - k) * points_;
                value += binom[p][k] *
                         (into.sums[krow + i] * ipow(-nb * delta / n, k) +
                          from.sums[krow + i] * ipow(na * delta / n, k));
            }
            value += ipow(na * nb * delta / n, p) * tail[p];
            merged[p] = value;
        }
        for (int p = 2; p <= max_order_; ++p)
            into.sums[static_cast<std::size_t>(p) * points_ + i] = merged[p];
        into.mean[i] += delta * nb / n;
    }
    into.n = n;
}

void MomentBank::merge(const MomentBank& other) {
    if (other.points_ != points_ ||
        other.max_test_order_ != max_test_order_)
        throw std::invalid_argument("MomentBank::merge: shape mismatch");
    merge_class(fixed_, other.fixed_);
    merge_class(random_, other.random_);
}

double MomentBank::mean(bool fixed_class, std::size_t point) const {
    const ClassPlanes& planes = fixed_class ? fixed_ : random_;
    return planes.mean.at(point);
}

double MomentBank::central_sum(bool fixed_class, std::size_t point,
                               int p) const {
    if (p < 2 || p > max_order_)
        throw std::out_of_range("MomentBank::central_sum");
    const ClassPlanes& planes = fixed_class ? fixed_ : random_;
    return planes.sums.at(static_cast<std::size_t>(p) * points_ + point);
}

double MomentBank::central_moment(const ClassPlanes& planes,
                                  std::size_t point, int p) const {
    if (planes.n == 0.0) return 0.0;
    return planes.sums[static_cast<std::size_t>(p) * points_ + point] /
           planes.n;
}

// The three finalization helpers repeat the formulas of leakage/ttest.cpp
// verbatim (same guards, same operation order) so t() == the equivalent
// UnivariateTTest::t bit for bit.

double MomentBank::preprocessed_mean(const ClassPlanes& planes,
                                     std::size_t point, int order) const {
    if (order == 1) return planes.mean[point];
    if (order == 2) return central_moment(planes, point, 2);
    const double m2 = central_moment(planes, point, 2);
    if (!(m2 > 0.0)) return 0.0;
    return central_moment(planes, point, order) / std::pow(m2, order / 2.0);
}

double MomentBank::preprocessed_variance(const ClassPlanes& planes,
                                         std::size_t point, int order) const {
    if (order == 1) return central_moment(planes, point, 2);
    const double md = central_moment(planes, point, order);
    const double m2d = central_moment(planes, point, 2 * order);
    if (order == 2) return m2d - md * md;
    const double m2 = central_moment(planes, point, 2);
    if (!(m2 > 0.0)) return 0.0;
    const double var =
        (m2d - md * md) / std::pow(m2, static_cast<double>(order));
    return std::isfinite(var) ? var : 0.0;
}

double MomentBank::t(std::size_t point, int order) const {
    if (order < 1 || order > max_test_order_)
        throw std::out_of_range("MomentBank::t: order out of range");
    if (point >= points_) throw std::out_of_range("MomentBank::t: point");
    if (fixed_.n <= 1.0 || random_.n <= 1.0) return 0.0;
    return welch_t(preprocessed_mean(fixed_, point, order),
                   preprocessed_variance(fixed_, point, order), fixed_.n,
                   preprocessed_mean(random_, point, order),
                   preprocessed_variance(random_, point, order), random_.n);
}

std::vector<double> MomentBank::t_curve(int order) const {
    std::vector<double> curve(points_);
    for (std::size_t i = 0; i < points_; ++i) curve[i] = t(i, order);
    return curve;
}

double MomentBank::max_abs_t(int order, std::size_t* argmax) const {
    double best = 0.0;
    std::size_t best_index = 0;
    for (std::size_t i = 0; i < points_; ++i) {
        const double value = std::fabs(t(i, order));
        if (value > best) {
            best = value;
            best_index = i;
        }
    }
    if (argmax != nullptr) *argmax = best_index;
    return best;
}

std::vector<std::size_t> MomentBank::exceedances(int order,
                                                 double threshold) const {
    std::vector<std::size_t> indices;
    for (std::size_t i = 0; i < points_; ++i)
        if (std::fabs(t(i, order)) > threshold) indices.push_back(i);
    return indices;
}

double MomentBank::snr(std::size_t point) const {
    if (point >= points_) throw std::out_of_range("MomentBank::snr");
    // SnrAccumulator::snr over the two classes, with the class variance
    // taken from the streaming central sum (sums[2] plays M2's role).
    double total_n = 0.0;
    double grand_mean = 0.0;
    std::size_t populated = 0;
    for (const ClassPlanes* planes : {&fixed_, &random_}) {
        if (planes->n == 0.0) continue;
        ++populated;
        total_n += planes->n;
        grand_mean += planes->n * planes->mean[point];
    }
    if (populated < 2 || total_n == 0.0) return 0.0;
    grand_mean /= total_n;
    double signal = 0.0;
    double noise = 0.0;
    for (const ClassPlanes* planes : {&fixed_, &random_}) {
        if (planes->n == 0.0) continue;
        const double dm = planes->mean[point] - grand_mean;
        signal += planes->n * dm * dm;
        noise += planes->sums[2 * points_ + point];
    }
    signal /= total_n;
    noise /= total_n;
    if (!(noise > 0.0)) return 0.0;
    const double snr = signal / noise;
    return std::isfinite(snr) ? snr : 0.0;
}

void MomentBank::encode(SnapshotWriter& out) const {
    out.u64(points_);
    for (std::size_t i = 0; i < points_; ++i) {
        out.u32(static_cast<std::uint32_t>(max_test_order_));
        for (const ClassPlanes* planes : {&fixed_, &random_}) {
            out.u32(static_cast<std::uint32_t>(max_order_));
            out.f64(planes->n);
            out.f64(planes->mean[i]);
            for (int p = 0; p <= max_order_; ++p)
                out.f64(
                    planes->sums[static_cast<std::size_t>(p) * points_ + i]);
        }
    }
}

MomentBank MomentBank::decode(SnapshotReader& in) {
    const std::uint64_t points = in.u64();
    if (points > (std::uint64_t{1} << 32))
        throw CampaignError(CampaignErrorKind::CorruptSnapshot,
                            "MomentBank: implausible sample count");
    if (points == 0) return MomentBank{};
    MomentBank bank;
    for (std::uint64_t i = 0; i < points; ++i) {
        const std::uint32_t order = in.u32();
        if (order < 1 || order > 3)
            throw CampaignError(CampaignErrorKind::CorruptSnapshot,
                                "MomentBank: implausible order in snapshot");
        if (i == 0) {
            bank = MomentBank(static_cast<std::size_t>(points),
                              static_cast<int>(order));
        } else if (static_cast<int>(order) != bank.max_test_order_) {
            throw CampaignError(CampaignErrorKind::CorruptSnapshot,
                                "MomentBank: nonuniform test order");
        }
        for (ClassPlanes* planes : {&bank.fixed_, &bank.random_}) {
            const std::uint32_t acc_order = in.u32();
            if (acc_order != static_cast<std::uint32_t>(bank.max_order_))
                throw CampaignError(
                    CampaignErrorKind::CorruptSnapshot,
                    "MomentBank: accumulator order != 2x test order");
            const double n = in.f64();
            if (i == 0)
                planes->n = n;
            else if (n != planes->n)
                throw CampaignError(CampaignErrorKind::CorruptSnapshot,
                                    "MomentBank: nonuniform class count");
            planes->mean[i] = in.f64();
            for (int p = 0; p <= bank.max_order_; ++p)
                planes->sums[static_cast<std::size_t>(p) * points + i] =
                    in.f64();
        }
    }
    return bank;
}

TvlaCampaign MomentBank::to_campaign() const {
    SnapshotWriter out;
    encode(out);
    const std::vector<std::uint8_t> sealed = std::move(out).finish();
    SnapshotReader in(sealed);
    return TvlaCampaign::decode(in);
}

MomentBank MomentBank::from_campaign(const TvlaCampaign& campaign) {
    SnapshotWriter out;
    campaign.encode(out);
    const std::vector<std::uint8_t> sealed = std::move(out).finish();
    SnapshotReader in(sealed);
    return decode(in);
}

}  // namespace glitchmask::leakage
