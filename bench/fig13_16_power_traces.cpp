// Reproduces paper Figs. 13 and 16: the power traces covering one full
// protected DES operation for both cores.
//
// The paper shows raw oscilloscope captures; we produce the mean
// per-cycle power over a few hundred random encryptions, which exhibits
// the same structure: a burst per round (7-cycle pattern for the FF core,
// 2-cycle pattern for the PD core) over 113 / 34 cycles.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "des/masked_des.hpp"
#include "eval/des_experiments.hpp"
#include "support/csv.hpp"
#include "support/table.hpp"

using namespace glitchmask;

namespace {

void emit(const char* name, const char* figure, des::CoreFlavor flavor,
          CsvWriter& csv, std::size_t traces) {
    des::MaskedDesOptions options;
    options.flavor = flavor;
    const des::MaskedDesCore core(options);
    const std::vector<double> mean =
        eval::mean_power_trace(core, traces, /*seed=*/5).mean;

    double peak = 0.0;
    double total = 0.0;
    for (const double v : mean) {
        peak = std::max(peak, v);
        total += v;
    }
    std::printf("%s (%s): %u samples (1 per cycle), %u cycles/round\n", name,
                figure, core.total_cycles(), core.cycles_per_round());
    std::printf("  mean energy/cycle %.1f, peak %.1f, total %.1f\n",
                total / static_cast<double>(mean.size()), peak, total);

    // Compact round profile: per-cycle power averaged over rounds 2-14
    // (steady state), one value per cycle-within-round.
    const unsigned cpr = core.cycles_per_round();
    std::vector<double> profile(cpr, 0.0);
    int rounds_avg = 0;
    for (unsigned round = 2; round < 15; ++round) {
        ++rounds_avg;
        for (unsigned c = 0; c < cpr; ++c)
            profile[c] += mean[1 + round * cpr + c];
    }
    std::printf("  steady-state round profile:");
    for (unsigned c = 0; c < cpr; ++c)
        std::printf(" c%u=%.0f", c, profile[c] / rounds_avg);
    std::printf("\n\n");

    for (std::size_t i = 0; i < mean.size(); ++i)
        csv.raw_row({name, std::to_string(i), TablePrinter::num(mean[i], 3)});
}

}  // namespace

int main() {
    bench::banner("Figs. 13 / 16: power traces over one protected DES");
    const std::size_t traces = bench::scaled_traces(200);
    std::printf("averaging %zu random encryptions per core\n\n", traces);
    CsvWriter csv("fig13_16_power_traces.csv", {"core", "cycle", "mean_power"});
    emit("secAND2-FF core", "Fig. 13", des::CoreFlavor::FF, csv, traces);
    emit("secAND2-PD core", "Fig. 16", des::CoreFlavor::PD, csv, traces);
    std::printf("CSV: fig13_16_power_traces.csv\n");
    return 0;
}
