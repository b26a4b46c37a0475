// perfbench: the glitchmask benchmark.
//
//   perfbench --workload <des_tvla|service_mix>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--goldens <file>] [--print-goldens]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the separate traced run that reports the per-layer metrics and writes
// its spans as Chrome trace JSON into --out-dir.  Either prints a metric
// table, then as its last line one JSON object with the keys correct,
// attempted, failed and metrics.  Exit code 0 only when every output
// check passed.  README.md describes the workloads and the metrics.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "support/runenv.hpp"

namespace {

using namespace perfbench;

/// Knobs that change the measured path; a run under any of them would
/// not measure what the workload defines.
constexpr const char* kRefusedEnv[] = {
    "GLITCHMASK_BACKEND",        "GLITCHMASK_LANES",
    "GLITCHMASK_COMPILED_LANES", "GLITCHMASK_WORKERS",
    "GLITCHMASK_ATTRIBUTION",    "GLITCHMASK_TRACE",
    "GLITCHMASK_TRACE_DIR",      "GLITCHMASK_CHECKPOINT_DIR",
    "GLITCHMASK_REPORT_DIR",     "GLITCHMASK_PROGRESS",
    "GLITCHMASK_TELEMETRY",      "GLITCHMASK_FAULTS",
    "GLITCHMASK_SIMD",
};

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<des_tvla|service_mix> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>] "
                 "[--goldens <file>] [--print-goldens]\n",
                 why);
    std::exit(2);
}

RunOptions parse_args(int argc, char** argv) {
    RunOptions options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--print-goldens") {
            options.print_goldens = true;
            continue;
        }
        if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        char* end = nullptr;
        if (arg == "--workload") {
            options.workload = value;
        } else if (arg == "--seed") {
            options.seed = std::strtoull(value.c_str(), &end, 10);
            if (*end != '\0' || value.empty()) usage("bad --seed");
        } else if (arg == "--seconds") {
            options.seconds = std::strtod(value.c_str(), &end);
            if (*end != '\0' || !(options.seconds > 0.0))
                usage("bad --seconds");
        } else if (arg == "--trace") {
            if (value != "0" && value != "1") usage("--trace takes 0 or 1");
            options.trace = value == "1";
        } else if (arg == "--out-dir") {
            options.out_dir = value;
        } else if (arg == "--goldens") {
            options.goldens_path = value;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (!known_workload(options.workload)) usage("unknown --workload");
    return options;
}

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos && colon + 2 <= line.size())
                return line.substr(colon + 2);
        }
    return "unknown";
}

/// JSON string body (quotes and control characters escaped).
std::string json_escape(const std::string& text) {
    std::string out;
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

void print_stamp(const RunOptions& options, int pinned_cpu) {
    const std::string revision = glitchmask::git_revision();
    std::printf(
        "stamp {\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,"
        "\"revision\":\"%s\",\"host\":\"%s\",\"nproc\":%u,\"cpu\":\"%s\","
        "\"pinned_cpu\":%d,\"compiler\":\"%s\",\"build\":\"%s\","
        "\"utc\":\"%s\"}\n",
        options.workload.c_str(),
        static_cast<unsigned long long>(options.seed), options.trace ? 1 : 0,
        json_escape(revision.empty() ? "unknown" : revision).c_str(),
        json_escape(glitchmask::host_name()).c_str(),
        std::thread::hardware_concurrency(), json_escape(cpu_model()).c_str(),
        pinned_cpu,
        json_escape("g++ " __VERSION__).c_str(), PERFBENCH_BUILD_TYPE,
        glitchmask::utc_timestamp().c_str());
}

}  // namespace

int main(int argc, char** argv) {
    const RunOptions options = parse_args(argc, argv);
    if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
        std::fprintf(stderr, "perfbench: refusing to measure a %s build; "
                             "configure with -DCMAKE_BUILD_TYPE=Release\n",
                     PERFBENCH_BUILD_TYPE);
        return 2;
    }
    for (const char* name : kRefusedEnv)
        if (std::getenv(name) != nullptr) {
            std::fprintf(stderr,
                         "perfbench: refusing to run with %s set: it changes "
                         "the measured path\n",
                         name);
            return 2;
        }

    const int pinned_cpu = pin_to_one_cpu();
    if (pinned_cpu < 0) {
        std::fprintf(stderr, "perfbench: cannot pin the process to one CPU\n");
        return 2;
    }
    print_stamp(options, pinned_cpu);
    Goldens goldens;
    if (options.seed == kDefaultSeed && !options.print_goldens &&
        !options.goldens_path.empty()) {
        goldens = load_goldens(options.goldens_path, options.workload);
        if (goldens.empty()) {
            std::fprintf(stderr, "perfbench: no goldens for %s in %s\n",
                         options.workload.c_str(),
                         options.goldens_path.c_str());
            return 1;
        }
    }
    OutputCheck check(options.workload, std::move(goldens),
                      options.print_goldens);

    RunResult result;
    try {
        if (options.trace)
            result = run_layers(options, check);
        else if (options.workload == "service_mix")
            result = run_service_mix(options, check);
        else
            result = run_direct(options, check);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }

    std::printf("%-36s %16s  %-9s %s\n", "metric", "value", "unit", "samples");
    for (const Metric& m : result.metrics) {
        if (!std::isfinite(m.value)) ++result.failed;
        std::printf("%-36s %16.6g  %-9s %zu\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.samples);
    }
    const double failed_ratio =
        result.attempted == 0 ? 1.0
                              : static_cast<double>(result.failed) /
                                    static_cast<double>(result.attempted);
    std::printf("%-36s %16.6g  %-9s %zu\n", "failed_ratio", failed_ratio,
                "ratio", result.attempted);

    const bool correct = result.failed == 0 && result.attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", result.attempted, result.failed);
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
        const Metric& m = result.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", m.name.c_str(),
                    std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
    return correct ? 0 : 1;
}
