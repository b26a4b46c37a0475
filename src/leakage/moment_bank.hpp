// Structure-of-arrays TVLA statistics bank: the fused, bin-vectorized
// replacement for a vector of per-point UnivariateTTest accumulators.
//
// TvlaCampaign stores its state point-major (one UnivariateTTest -- two
// MomentAccumulators -- per sample point), so folding a trace touches
// 2 * points scattered objects and the per-point Pebay update is a
// scalar dependency chain.  MomentBank transposes the layout: per class
// (fixed/random) it keeps one scalar trace count plus *planes* of means
// and central sums (row p holds sums_[p] of every point contiguously).
// Folding a trace then updates all points' accumulators with identical
// scalar coefficients (n, n1, the Pebay binomial/correction terms depend
// only on the class count, which every point of a class shares), so the
// update vectorizes across points -- AVX2 processes four bins per
// instruction -- without touching any single accumulator's FP operation
// order.  Results are bit-identical to TvlaCampaign, asserted with ==
// in tests/moment_bank_test.cpp, and the serialized form is
// byte-identical to TvlaCampaign::encode, so campaign checkpoints are
// interchangeable between the two representations.
//
// The class-count sharing is a structural invariant, not an assumption:
// add_trace() feeds every point, exactly like TvlaCampaign::add_trace.
// decode()/from_campaign() verify it and reject nonuniform input.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "leakage/tvla.hpp"
#include "support/snapshot.hpp"

namespace glitchmask::leakage {

namespace bank_kernels {

/// Folds one trace row (`row[0..points)`) into a class's planes: the
/// Pebay single-point increment of every point, vectorized across
/// points.  `sums` row p starts at `sums + p * stride` (rows 0..max_order;
/// rows 0 and 1 are unused and stay zero); `stride` may exceed `points`
/// so a vector kernel can hand its remainder to the scalar form.
/// `n1`/`n` are the class count before/after this trace.  Scalar, AVX2
/// and AVX-512 forms are bit-identical (see support/simd.hpp).
using FoldRowFn = void (*)(double* mean, double* sums, std::size_t points,
                           std::size_t stride, int max_order, double n1,
                           double n, const double* row);

/// The Pebay coefficients a fold shares across all points of a row:
/// binom[p][k] = binomial(p, k) for 2 <= p <= 6, 1 <= k <= p - 2 (from a
/// table built once with leakage/moments.cpp's definition) and tail[p] =
/// 1 - (-1 / n1)^(p - 1) for 2 <= p <= max_order, with -1 / n1 computed
/// once.  Every kernel level reads the same values.
struct FoldCoefficients {
    const double (*binom)[7];
    double tail[7];
};
[[nodiscard]] FoldCoefficients fold_coefficients(int max_order,
                                                 double n1) noexcept;

void fold_row_scalar(double* mean, double* sums, std::size_t points,
                     std::size_t stride, int max_order, double n1, double n,
                     const double* row);
#if defined(GLITCHMASK_HAVE_AVX2)
void fold_row_avx2(double* mean, double* sums, std::size_t points,
                   std::size_t stride, int max_order, double n1, double n,
                   const double* row);
#endif
#if defined(GLITCHMASK_HAVE_AVX512)
/// Eight points per vector with masked loads and stores: no scalar tail.
void fold_row_avx512(double* mean, double* sums, std::size_t points,
                     std::size_t stride, int max_order, double n1, double n,
                     const double* row);
#endif

/// Kernel for support::active_simd_level(); never null.
[[nodiscard]] FoldRowFn resolve_fold_row() noexcept;

}  // namespace bank_kernels

class MomentBank {
public:
    /// Empty bank (0 points); assignable from decode()/from_campaign().
    MomentBank() = default;

    /// `max_test_order` in 1..3; central moments to 2*order are kept per
    /// point, exactly like TvlaCampaign(points, max_test_order).
    MomentBank(std::size_t points, int max_test_order = 3);

    /// Folds one complete trace (`row[0..points())`) into the given
    /// class.  Equivalent to TvlaCampaign::add_trace -- each per-point
    /// accumulator receives the same addend in the same position of its
    /// sequence -- but one vectorized pass instead of a point loop.
    void add_trace(bool fixed_class, const double* row);

    /// Pairwise Pebay merge, bit-identical to merging the per-point
    /// accumulators (TvlaCampaign::merge).
    void merge(const MomentBank& other);

    [[nodiscard]] std::size_t points() const noexcept { return points_; }
    [[nodiscard]] int max_test_order() const noexcept { return max_test_order_; }

    /// Traces folded into a class (shared by every point of the class).
    [[nodiscard]] double count(bool fixed_class) const noexcept {
        return (fixed_class ? fixed_ : random_).n;
    }
    [[nodiscard]] double mean(bool fixed_class, std::size_t point) const;
    /// Central power sum sum((x - mean)^p) of a class at one point.
    [[nodiscard]] double central_sum(bool fixed_class, std::size_t point,
                                     int p) const;

    /// Welch t at `order` (1..max_test_order) for one point; sentinel 0.0
    /// for degenerate classes, exactly as UnivariateTTest::t.
    [[nodiscard]] double t(std::size_t point, int order) const;

    /// Batched finalization over the whole bank (one value per point).
    [[nodiscard]] std::vector<double> t_curve(int order) const;
    [[nodiscard]] double max_abs_t(int order,
                                   std::size_t* argmax = nullptr) const;
    [[nodiscard]] std::vector<std::size_t> exceedances(
        int order, double threshold = kTvlaThreshold) const;

    /// Fixed-vs-random SNR at one point: variance of the two class means
    /// over the mean of the class variances, computed from the bank's own
    /// moments with the guard/sentinel sequence of SnrAccumulator::snr.
    [[nodiscard]] double snr(std::size_t point) const;

    /// Byte-identical to TvlaCampaign::encode of the equivalent campaign,
    /// so bank and campaign checkpoints are interchangeable.
    void encode(SnapshotWriter& out) const;
    [[nodiscard]] static MomentBank decode(SnapshotReader& in);

    /// Conversions through the shared serialized form (exact).
    [[nodiscard]] TvlaCampaign to_campaign() const;
    [[nodiscard]] static MomentBank from_campaign(const TvlaCampaign& campaign);

private:
    struct ClassPlanes {
        double n = 0.0;
        std::vector<double> mean;  // [points]
        std::vector<double> sums;  // rows 0..max_order, each [points]
    };

    void fold(ClassPlanes& planes, const double* row);
    void merge_class(ClassPlanes& into, const ClassPlanes& from) const;

    [[nodiscard]] double central_moment(const ClassPlanes& planes,
                                        std::size_t point, int p) const;
    [[nodiscard]] double preprocessed_mean(const ClassPlanes& planes,
                                           std::size_t point, int order) const;
    [[nodiscard]] double preprocessed_variance(const ClassPlanes& planes,
                                               std::size_t point,
                                               int order) const;

    std::size_t points_ = 0;
    int max_test_order_ = 0;
    int max_order_ = 0;  // 2 * max_test_order_
    ClassPlanes fixed_;
    ClassPlanes random_;
};

}  // namespace glitchmask::leakage
