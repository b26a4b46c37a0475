// glitchmask_ledger: the cross-run results ledger CLI.
//
//   glitchmask_ledger ingest <ledger> <file...> [--revision R] [--host H]
//                     [--utc T]
//       Appends a run report's record as it is, or one entry per row of
//       a BENCH_batch_sim.json (obs/ledger.hpp has the line format).
//       The flags fill attribution fields the file itself lacks.
//
//   glitchmask_ledger list <ledger> [--fingerprint HEX] [--csv]
//       Tabulates entries (canonical history order).
//
//   glitchmask_ledger diff <ledger> [--fingerprint HEX] [--campaign C]
//       For every (fingerprint, campaign) group with >= 2 entries,
//       diffs the newest entry against its predecessor: leakage fields
//       bit-exactly, timings side by side.  Exits 3 when any leakage
//       field changed.
//
//   glitchmask_ledger trend <ledger> [--fingerprint HEX] [--campaign C]
//                     [--window N] [--mad-k X]
//       Judges each group's newest entry against its rolling history
//       with the noise-aware rule (obs/regression.hpp).  Exits 3 when
//       any metric regressed or leakage changed.
//
//   glitchmask_ledger report <ledger> [--csv]
//       Markdown report (entry table + per-group radar), or a CSV dump.
//
//   glitchmask_ledger gate <bench.json> [--max key=v ...] [--min key=v ...]
//       Bounds-checks top-level bench metrics (the ci.sh perf bars).
//       Exits 3 on a violated bar, 1 on a missing key.
//
// Exit codes: 0 ok | 1 runtime error | 2 usage | 3 regression (a leakage
// field changed, a metric regressed, or a gate bar was violated).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/diff.hpp"
#include "obs/ledger.hpp"
#include "obs/regression.hpp"
#include "support/atomic_file.hpp"
#include "support/runenv.hpp"
#include "support/table.hpp"

using namespace glitchmask;

namespace {

constexpr int kExitOk = 0;
constexpr int kExitError = 1;
constexpr int kExitUsage = 2;
constexpr int kExitRegressed = 3;

int usage() {
    std::fprintf(
        stderr,
        "usage: glitchmask_ledger <verb> ...\n"
        "  ingest <ledger> <file...> [--revision R] [--host H] [--utc T]\n"
        "  list   <ledger> [--fingerprint HEX] [--csv]\n"
        "  diff   <ledger> [--fingerprint HEX] [--campaign C]\n"
        "  trend  <ledger> [--fingerprint HEX] [--campaign C] [--window N]\n"
        "         [--mad-k X]\n"
        "  report <ledger> [--csv]\n"
        "  gate   <bench.json> [--max key=v ...] [--min key=v ...]\n");
    return kExitUsage;
}

std::string read_text_file(const std::string& path) {
    const auto bytes = read_file_if_exists(path);
    if (!bytes.has_value())
        throw std::runtime_error("no such file: " + path);
    return std::string(reinterpret_cast<const char*>(bytes->data()),
                       bytes->size());
}

using Groups = std::map<std::string, std::vector<obs::LedgerEntry>>;

/// Entries filtered by the optional --fingerprint / --campaign flags,
/// grouped by (fingerprint, campaign) in deterministic key order; each
/// group is canonically sorted (oldest first).
Groups load_groups(const std::string& path, const std::string& fingerprint,
                   const std::string& campaign,
                   std::size_t* corrupt_lines = nullptr) {
    obs::LedgerFile file = obs::read_ledger(path);
    if (corrupt_lines != nullptr) *corrupt_lines = file.corrupt_lines;
    Groups groups;
    for (obs::LedgerEntry& entry : file.entries) {
        const std::string key = obs::fingerprint_key(entry.fingerprint);
        if (!fingerprint.empty() && key != fingerprint) continue;
        if (!campaign.empty() && entry.campaign != campaign) continue;
        groups[key + "\n" + entry.campaign].push_back(std::move(entry));
    }
    for (auto& [key, entries] : groups) obs::sort_ledger(entries);
    return groups;
}

struct CommonFlags {
    std::string fingerprint;
    std::string campaign;
    bool csv = false;
    std::size_t window = obs::RegressionRule{}.window;
    double mad_k = obs::RegressionRule{}.mad_k;
};

/// Parses the trailing flags shared by list/diff/trend/report; returns
/// false on an unknown flag or a missing value.
bool parse_common_flags(int argc, char** argv, int first, CommonFlags* out) {
    for (int i = first; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> const char* {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (flag == "--fingerprint") {
            const char* v = value();
            if (v == nullptr) return false;
            out->fingerprint = v;
        } else if (flag == "--campaign") {
            const char* v = value();
            if (v == nullptr) return false;
            out->campaign = v;
        } else if (flag == "--window") {
            const char* v = value();
            if (v == nullptr) return false;
            out->window = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
        } else if (flag == "--mad-k") {
            const char* v = value();
            if (v == nullptr) return false;
            out->mad_k = std::strtod(v, nullptr);
        } else if (flag == "--csv") {
            out->csv = true;
        } else {
            return false;
        }
    }
    return true;
}

void print_entry_table(const Groups& groups, bool csv) {
    if (csv) {
        std::printf(
            "campaign,fingerprint,source,revision,host,utc,status,backend,"
            "workers,lanes,wall_seconds,cpu_seconds,max_abs_t1,toggles\n");
        for (const auto& [key, entries] : groups)
            for (const obs::LedgerEntry& e : entries)
                std::printf("%s,%s,%s,%s,%s,%s,%s,%s,%u,%u,%.17g,%.17g,%.17g,"
                            "%llu\n",
                            e.campaign.c_str(),
                            obs::fingerprint_key(e.fingerprint).c_str(),
                            e.source.c_str(), e.revision.c_str(),
                            e.host.c_str(), e.utc.c_str(), e.status.c_str(),
                            e.backend.c_str(), e.workers, e.lanes,
                            e.wall_seconds, e.cpu_seconds, e.max_abs_t1,
                            static_cast<unsigned long long>(e.toggles));
        return;
    }
    TablePrinter table({"campaign", "fingerprint", "revision", "utc", "status",
                        "wall s", "max|t1|", "toggles"});
    for (const auto& [key, entries] : groups)
        for (const obs::LedgerEntry& e : entries)
            table.add_row({e.campaign,
                           obs::fingerprint_key(e.fingerprint).substr(0, 12),
                           e.revision.empty()
                               ? std::string("?")
                               : e.revision.substr(0, 12),
                           e.utc.empty() ? "?" : e.utc, e.status,
                           TablePrinter::num(e.wall_seconds, 3),
                           TablePrinter::num(e.max_abs_t1, 6),
                           std::to_string(e.toggles)});
    table.print();
}

int run_ingest(int argc, char** argv) {
    if (argc < 4) return usage();
    const std::string ledger_path = argv[2];
    std::vector<std::string> files;
    obs::IngestOverrides overrides;
    for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char* {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--revision") {
            const char* v = value();
            if (v == nullptr) return usage();
            overrides.revision = v;
        } else if (arg == "--host") {
            const char* v = value();
            if (v == nullptr) return usage();
            overrides.host = v;
        } else if (arg == "--utc") {
            const char* v = value();
            if (v == nullptr) return usage();
            overrides.utc = v;
        } else if (!arg.empty() && arg[0] == '-') {
            return usage();
        } else {
            files.push_back(arg);
        }
    }
    if (files.empty()) return usage();
    // Unpinned attribution falls back to this process's environment --
    // better a best-effort stamp than an unkeyable entry.
    if (overrides.revision.empty()) overrides.revision = git_revision();
    if (overrides.host.empty()) overrides.host = host_name();
    if (overrides.utc.empty()) overrides.utc = utc_timestamp();

    std::size_t total = 0;
    for (const std::string& file : files) {
        const std::vector<obs::LedgerEntry> entries =
            obs::entries_from_file_text(read_text_file(file), overrides);
        for (const obs::LedgerEntry& entry : entries)
            obs::append_ledger(ledger_path, entry);
        std::printf("ingested %zu entr%s from %s\n", entries.size(),
                    entries.size() == 1 ? "y" : "ies", file.c_str());
        total += entries.size();
    }
    std::printf("ledger %s: +%zu entries\n", ledger_path.c_str(), total);
    return kExitOk;
}

int run_list(int argc, char** argv) {
    if (argc < 3) return usage();
    CommonFlags flags;
    if (!parse_common_flags(argc, argv, 3, &flags)) return usage();
    std::size_t corrupt = 0;
    const auto groups =
        load_groups(argv[2], flags.fingerprint, flags.campaign, &corrupt);
    print_entry_table(groups, flags.csv);
    if (corrupt > 0 && !flags.csv)
        std::printf("(%zu corrupt line%s skipped)\n", corrupt,
                    corrupt == 1 ? "" : "s");
    return kExitOk;
}

int run_diff(int argc, char** argv) {
    if (argc < 3) return usage();
    CommonFlags flags;
    if (!parse_common_flags(argc, argv, 3, &flags)) return usage();
    const auto groups = load_groups(argv[2], flags.fingerprint, flags.campaign);
    std::size_t compared = 0;
    bool changed = false;
    for (const auto& [key, entries] : groups) {
        if (entries.size() < 2) continue;
        ++compared;
        const obs::LedgerEntry& before = entries[entries.size() - 2];
        const obs::LedgerEntry& after = entries.back();
        const obs::EntryDiff diff = obs::diff_entries(before, after);
        std::fputs(obs::render_diff_markdown(before, after, diff).c_str(),
                   stdout);
        std::fputs("\n", stdout);
        changed |= !diff.leakage_identical;
    }
    if (compared == 0) {
        std::fprintf(stderr,
                     "glitchmask_ledger diff: no group has two entries to "
                     "compare\n");
        return kExitError;
    }
    std::printf("diffed %zu group%s: leakage %s\n", compared,
                compared == 1 ? "" : "s",
                changed ? "CHANGED" : "bit-identical");
    return changed ? kExitRegressed : kExitOk;
}

/// The regression radar over every group with history: judges each
/// group's newest entry against the rest and prints the markdown report.
/// Returns the number of groups judged; sets *regressed when any
/// regressed.
std::size_t print_radar(const Groups& groups, const CommonFlags& flags,
                        bool* regressed) {
    obs::RegressionRule rule;
    rule.window = flags.window;
    rule.mad_k = flags.mad_k;
    std::size_t judged = 0;
    for (const auto& [key, entries] : groups) {
        if (entries.size() < 2) continue;
        ++judged;
        std::vector<obs::LedgerEntry> history(entries.begin(),
                                              entries.end() - 1);
        const obs::RegressionReport report =
            obs::evaluate_candidate(entries.back(), std::move(history), rule);
        std::fputs(obs::render_regression_markdown(report).c_str(), stdout);
        std::fputs("\n", stdout);
        *regressed |= report.regressed;
    }
    return judged;
}

int run_trend(int argc, char** argv) {
    if (argc < 3) return usage();
    CommonFlags flags;
    if (!parse_common_flags(argc, argv, 3, &flags)) return usage();
    const auto groups = load_groups(argv[2], flags.fingerprint, flags.campaign);
    bool regressed = false;
    if (print_radar(groups, flags, &regressed) == 0) {
        std::fprintf(stderr,
                     "glitchmask_ledger trend: no group has history to judge "
                     "against\n");
        return kExitError;
    }
    return regressed ? kExitRegressed : kExitOk;
}

int run_report(int argc, char** argv) {
    if (argc < 3) return usage();
    CommonFlags flags;
    if (!parse_common_flags(argc, argv, 3, &flags)) return usage();
    std::size_t corrupt = 0;
    const auto groups =
        load_groups(argv[2], flags.fingerprint, flags.campaign, &corrupt);
    if (flags.csv) {
        print_entry_table(groups, /*csv=*/true);
        return kExitOk;
    }
    std::printf("# Ledger report: %s\n\n", argv[2]);
    std::size_t total = 0;
    for (const auto& [key, entries] : groups) total += entries.size();
    std::printf("%zu entries in %zu groups (%zu corrupt lines skipped)\n\n",
                total, groups.size(), corrupt);
    bool regressed = false;
    (void)print_radar(groups, flags, &regressed);
    return kExitOk;
}

int run_gate(int argc, char** argv) {
    if (argc < 3) return usage();
    const JsonValue root = parse_json(read_text_file(argv[2]));
    struct Bar {
        std::string key;
        double bound = 0.0;
        bool is_max = false;
    };
    std::vector<Bar> bars;
    for (int i = 3; i < argc; ++i) {
        const std::string flag = argv[i];
        if ((flag != "--max" && flag != "--min") || i + 1 >= argc)
            return usage();
        const std::string spec = argv[++i];
        const std::size_t eq = spec.find('=');
        if (eq == std::string::npos || eq == 0) return usage();
        bars.push_back(Bar{spec.substr(0, eq),
                           std::strtod(spec.c_str() + eq + 1, nullptr),
                           flag == "--max"});
    }
    if (bars.empty()) return usage();
    bool violated = false;
    for (const Bar& bar : bars) {
        // A missing or non-numeric key throws: exit 1 from main().
        const double x = require_number(root, bar.key, argv[2]);
        const bool ok = bar.is_max ? x <= bar.bound : x >= bar.bound;
        std::printf("%s: %s = %.6g (%s %.6g)\n", ok ? "ok" : "FAIL",
                    bar.key.c_str(), x, bar.is_max ? "<=" : ">=", bar.bound);
        violated |= !ok;
    }
    return violated ? kExitRegressed : kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) return usage();
    const std::string verb = argv[1];
    try {
        if (verb == "ingest") return run_ingest(argc, argv);
        if (verb == "list") return run_list(argc, argv);
        if (verb == "diff") return run_diff(argc, argv);
        if (verb == "trend") return run_trend(argc, argv);
        if (verb == "report") return run_report(argc, argv);
        if (verb == "gate") return run_gate(argc, argv);
    } catch (const std::exception& error) {
        std::fprintf(stderr, "glitchmask_ledger %s: %s\n", verb.c_str(),
                     error.what());
        return kExitError;
    }
    return usage();
}
