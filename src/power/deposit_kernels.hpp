// Lane-mask deposit kernels behind runtime SIMD dispatch.
//
// BatchPowerRecorder::on_toggles is the single hottest non-simulator loop
// in a campaign: the lane engine hands it each chunk's committed toggle
// words in batches (~11M entries per 1024 DES traces), and for every
// entry the recorder bumps each toggled lane's Hamming counter and adds
// the net's energy weight to that lane's current-bin sample.  The
// recorder cuts a batch into runs of entries that land in the same bin
// (commit times never decrease) and makes one kernel call per run, so a
// kernel can keep the bin row and the lane counters in registers across
// the run.  Each lane is an independent accumulator, so the work
// vectorizes across lanes without touching any lane's FP operation
// order: every toggled lane gets exactly one add per entry, in entry
// order.  The AVX2 form rewrites untouched lanes with their original
// bits (load/add/blend/store) and the AVX-512 form uses masked adds, so
// every dispatch level produces bit-identical samples (asserted with ==
// in tests/batch_sim_test and tests/moment_bank_test).
//
// The vector TUs are compiled with their -m flag plus -ffp-contract=off;
// the kernels are pure adds, but the flag pins that down against future
// edits introducing a fusable multiply.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/compiled_simulator.hpp"

namespace glitchmask::power::kernels {

/// Deposits a run of same-bin entries into `row`: for every entry and
/// every lane set in its `toggled`, ++lane_toggles[lane] and
/// row[lane] += energy, where energy is weight[net], or -- when `partner`
/// is non-null and partner[net] != kNoNet -- weight[net] + eps on lanes
/// where (entry.partner ^ entry.values) is set and weight[net] - eps on
/// the others (the weight+eps intermediate is one double add, as in the
/// scalar PowerRecorder).  Returns the run's summed toggle count.
using DepositRunFn = std::uint64_t (*)(double* row,
                                       std::uint64_t* lane_toggles,
                                       const sim::ToggleEntry* entries,
                                       std::size_t n, const double* weight,
                                       const netlist::NetId* partner,
                                       double eps);

/// ++lane_toggles[lane] only (entries past the trace window); returns
/// the summed toggle count.
using CountRunFn = std::uint64_t (*)(std::uint64_t* lane_toggles,
                                     const sim::ToggleEntry* entries,
                                     std::size_t n);

struct DepositKernels {
    DepositRunFn deposit;
    CountRunFn count;
};

std::uint64_t deposit_run_scalar(double* row, std::uint64_t* lane_toggles,
                                 const sim::ToggleEntry* entries,
                                 std::size_t n, const double* weight,
                                 const netlist::NetId* partner, double eps);
std::uint64_t count_run_scalar(std::uint64_t* lane_toggles,
                               const sim::ToggleEntry* entries, std::size_t n);

#if defined(GLITCHMASK_HAVE_AVX2)
std::uint64_t deposit_run_avx2(double* row, std::uint64_t* lane_toggles,
                               const sim::ToggleEntry* entries, std::size_t n,
                               const double* weight,
                               const netlist::NetId* partner, double eps);
std::uint64_t count_run_avx2(std::uint64_t* lane_toggles,
                             const sim::ToggleEntry* entries, std::size_t n);
#endif
#if defined(GLITCHMASK_HAVE_AVX512)
std::uint64_t deposit_run_avx512(double* row, std::uint64_t* lane_toggles,
                                 const sim::ToggleEntry* entries,
                                 std::size_t n, const double* weight,
                                 const netlist::NetId* partner, double eps);
std::uint64_t count_run_avx512(std::uint64_t* lane_toggles,
                               const sim::ToggleEntry* entries, std::size_t n);
#endif

/// Kernel set for support::active_simd_level(); never null pointers.
[[nodiscard]] DepositKernels resolve_deposit_kernels() noexcept;

}  // namespace glitchmask::power::kernels
