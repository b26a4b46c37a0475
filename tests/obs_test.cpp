// Tests for the cross-run observability subsystem (src/obs/): the
// CRC-guarded NDJSON ledger, the bit-exact leakage diff, and the
// noise-aware regression radar.
//
// The load-bearing properties:
//   * full-range u64 counters and arbitrary doubles round-trip the file
//     format bit-exactly (the "bit-identical" verdict is real),
//   * a truncated or corrupted tail never costs the intact prefix,
//   * the regression verdict is a pure function of the entry *set* --
//     any ingest order of concurrent writers yields a byte-identical
//     report.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "eval/run_report.hpp"
#include "obs/diff.hpp"
#include "obs/ledger.hpp"
#include "obs/regression.hpp"
#include "service/campaign_request.hpp"

namespace {

using namespace glitchmask;
using namespace glitchmask::obs;

std::string temp_path(const std::string& name) {
    const std::string path = ::testing::TempDir() + "glitchmask_obs_" + name;
    std::remove(path.c_str());
    return path;
}

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& text) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

eval::CampaignFingerprint test_fingerprint(std::uint64_t payload = 7) {
    eval::CampaignFingerprint fp;
    fp.kind = eval::fnv1a64_tag("gadget_tvla");
    fp.seed = 1;
    fp.traces = 2000;
    fp.block_size = 64;
    fp.payload = payload;
    return fp;
}

/// A fully-populated entry exercising every field, including values a
/// double round-trip would destroy.
LedgerEntry sample_entry(const std::string& utc, double wall) {
    LedgerEntry entry;
    entry.source = "run_report";
    entry.campaign = "gadget_trichina";
    entry.fingerprint = test_fingerprint();
    entry.revision = "0123456789abcdef0123456789abcdef01234567";
    entry.host = "rig-a";
    entry.utc = utc;
    entry.backend = "event";
    entry.workers = 4;
    entry.lanes = 64;
    entry.wall_seconds = wall;
    entry.cpu_seconds = wall * 3.7;
    entry.max_abs_t1 = 4.4408920985006262e-16;
    entry.toggles = 0xFFFFFFFFFFFFFFFFull;  // full-range u64
    entry.attribution.push_back(
        {0x8000000000000001ull, "sbox.g3", 3.25, 0x123456789ABCDEF0ull, 42});
    entry.attribution.push_back({17, "sbox.g7", 1.0, 100, 0});
    entry.phases.push_back({"sim", 0.125, 0.0625});
    entry.phases.push_back({"moments", 0.25, 0.0});
    entry.metrics.emplace_back("max_abs_t_order2", 1.9999999999999998);
    entry.metrics.emplace_back("traces_per_sec", 123456.789);
    return entry;
}

TEST(LedgerTest, FingerprintKeyIsServiceKey) {
    const eval::CampaignFingerprint fp = test_fingerprint();
    const std::string key = fingerprint_key(fp);
    EXPECT_EQ(key.size(), 80u);
    EXPECT_EQ(key, service::fingerprint_hex(fp));
    EXPECT_EQ(key.find_first_not_of("0123456789abcdef"), std::string::npos);
}

TEST(LedgerTest, RoundTripsFullRangeValuesBitExactly) {
    const std::string path = temp_path("roundtrip.ndjson");
    const LedgerEntry entry = sample_entry("2026-08-09T10:00:00Z", 1.5);
    append_ledger(path, entry);

    const LedgerFile back = read_ledger(path);
    ASSERT_EQ(back.entries.size(), 1u);
    EXPECT_EQ(back.corrupt_lines, 0u);
    // Defaulted operator== covers every field, but make the interesting
    // ones explicit: full-range u64s and bit-exact doubles.
    EXPECT_EQ(back.entries[0].toggles, 0xFFFFFFFFFFFFFFFFull);
    EXPECT_EQ(back.entries[0].attribution[0].net, 0x8000000000000001ull);
    EXPECT_EQ(back.entries[0].attribution[0].toggles, 0x123456789ABCDEF0ull);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back.entries[0].max_abs_t1),
              std::bit_cast<std::uint64_t>(entry.max_abs_t1));
    EXPECT_EQ(back.entries[0], entry);
    // One canonical form: re-rendering the decoded entry reproduces the
    // file line byte for byte.
    EXPECT_EQ(render_ledger_line(back.entries[0]), slurp(path));
}

TEST(LedgerTest, MissingFileReadsEmpty) {
    const LedgerFile file = read_ledger(temp_path("never_written.ndjson"));
    EXPECT_TRUE(file.entries.empty());
    EXPECT_EQ(file.corrupt_lines, 0u);
}

TEST(LedgerTest, TruncatedTailKeepsIntactPrefix) {
    const std::string path = temp_path("truncated.ndjson");
    append_ledger(path, sample_entry("2026-08-09T10:00:00Z", 1.0));
    append_ledger(path, sample_entry("2026-08-09T10:01:00Z", 1.1));
    append_ledger(path, sample_entry("2026-08-09T10:02:00Z", 1.2));

    std::string text = slurp(path);
    // Chop the last line mid-entry (simulating a torn concurrent append
    // or a crash mid-write).
    text.resize(text.size() - 37);
    spit(path, text);

    const LedgerFile file = read_ledger(path);
    EXPECT_EQ(file.entries.size(), 2u);
    EXPECT_EQ(file.corrupt_lines, 1u);
    EXPECT_EQ(file.entries[0].utc, "2026-08-09T10:00:00Z");
    EXPECT_EQ(file.entries[1].utc, "2026-08-09T10:01:00Z");
}

TEST(LedgerTest, CrcCorruptedLineIsSkippedNotFatal) {
    const std::string path = temp_path("bitrot.ndjson");
    append_ledger(path, sample_entry("2026-08-09T10:00:00Z", 1.0));
    append_ledger(path, sample_entry("2026-08-09T10:01:00Z", 1.1));
    append_ledger(path, sample_entry("2026-08-09T10:02:00Z", 1.2));

    std::string text = slurp(path);
    // Flip one digit inside the *middle* line's entry body -- the CRC
    // must catch it and the reader must keep both neighbours.
    const std::size_t second = text.find('\n') + 1;
    const std::size_t wall = text.find("10:01:00Z", second);
    ASSERT_NE(wall, std::string::npos);
    text[wall] = '9';
    spit(path, text);

    const LedgerFile file = read_ledger(path);
    EXPECT_EQ(file.entries.size(), 2u);
    EXPECT_EQ(file.corrupt_lines, 1u);
    EXPECT_EQ(file.entries[0].utc, "2026-08-09T10:00:00Z");
    EXPECT_EQ(file.entries[1].utc, "2026-08-09T10:02:00Z");
}

TEST(LedgerTest, SortIsTotalAndDeterministic) {
    std::vector<LedgerEntry> entries;
    entries.push_back(sample_entry("2026-08-09T10:02:00Z", 1.2));
    entries.push_back(sample_entry("2026-08-09T10:00:00Z", 1.0));
    // Equal timestamps: the canonical text breaks the tie.
    LedgerEntry a = sample_entry("2026-08-09T10:01:00Z", 1.1);
    LedgerEntry b = sample_entry("2026-08-09T10:01:00Z", 1.15);
    entries.push_back(b);
    entries.push_back(a);

    std::vector<LedgerEntry> once = entries;
    sort_ledger(once);
    std::vector<LedgerEntry> twice = entries;
    std::reverse(twice.begin(), twice.end());
    sort_ledger(twice);
    EXPECT_EQ(once, twice);
    EXPECT_EQ(once.front().utc, "2026-08-09T10:00:00Z");
    EXPECT_EQ(once.back().utc, "2026-08-09T10:02:00Z");
}

// ----- diff --------------------------------------------------------------

TEST(DiffTest, IdenticalEntriesAreBitIdentical) {
    const LedgerEntry entry = sample_entry("2026-08-09T10:00:00Z", 1.0);
    const EntryDiff diff = diff_entries(entry, entry);
    EXPECT_TRUE(diff.same_fingerprint);
    EXPECT_TRUE(diff.leakage_identical);
    EXPECT_TRUE(diff.net_changes.empty());
    for (const FieldDiff& field : diff.leakage)
        EXPECT_TRUE(field.bit_identical) << field.name;
}

TEST(DiffTest, OneUlpLeakageChangeIsDetected) {
    const LedgerEntry before = sample_entry("2026-08-09T10:00:00Z", 1.0);
    LedgerEntry after = before;
    // The smallest possible change: one ulp.  An epsilon comparison
    // would call this equal; the bit comparison must not.
    after.max_abs_t1 = std::bit_cast<double>(
        std::bit_cast<std::uint64_t>(after.max_abs_t1) + 1);
    const EntryDiff diff = diff_entries(before, after);
    EXPECT_FALSE(diff.leakage_identical);
    bool flagged = false;
    for (const FieldDiff& field : diff.leakage)
        if (field.name == "max_abs_t1") flagged = !field.bit_identical;
    EXPECT_TRUE(flagged);
}

TEST(DiffTest, AttributionMembershipChangesAreNamed) {
    const LedgerEntry before = sample_entry("2026-08-09T10:00:00Z", 1.0);
    LedgerEntry after = before;
    after.attribution.erase(after.attribution.begin() + 1);  // sbox.g7 left
    after.attribution.push_back({99, "sbox.g1", 2.5, 7, 1});  // entered
    const EntryDiff diff = diff_entries(before, after);
    EXPECT_FALSE(diff.leakage_identical);
    ASSERT_EQ(diff.net_changes.size(), 2u);
    bool left = false, entered = false;
    for (const NetChange& change : diff.net_changes) {
        if (change.name == "sbox.g7" && !change.entered) left = true;
        if (change.name == "sbox.g1" && change.entered) entered = true;
    }
    EXPECT_TRUE(left);
    EXPECT_TRUE(entered);
}

// ----- regression radar --------------------------------------------------

std::vector<LedgerEntry> stable_history(std::size_t n, double wall,
                                        double jitter) {
    std::vector<LedgerEntry> history;
    for (std::size_t i = 0; i < n; ++i) {
        char utc[32];
        std::snprintf(utc, sizeof utc, "2026-08-09T10:%02zu:00Z", i);
        // Deterministic small jitter around `wall`.
        const double sign = (i % 2 == 0) ? 1.0 : -1.0;
        history.push_back(sample_entry(utc, wall + sign * jitter));
    }
    return history;
}

const MetricJudgement* find_metric(const RegressionReport& report,
                                   const std::string& name) {
    for (const MetricJudgement& m : report.metrics)
        if (m.name == name) return &m;
    return nullptr;
}

TEST(RegressionTest, ThinHistoryNeverJudges) {
    const RegressionRule rule;
    const LedgerEntry candidate = sample_entry("2026-08-09T11:00:00Z", 9.0);
    const RegressionReport report =
        evaluate_candidate(candidate, stable_history(2, 1.0, 0.01), rule);
    const MetricJudgement* wall = find_metric(report, "wall_seconds");
    ASSERT_NE(wall, nullptr);
    EXPECT_EQ(wall->verdict, MetricVerdict::kNoHistory);
    EXPECT_FALSE(report.regressed);
}

TEST(RegressionTest, VerdictsFollowDirectionAndBand) {
    const RegressionRule rule;
    const std::vector<LedgerEntry> history = stable_history(6, 1.0, 0.01);

    // Far above the band: slower wall time is a regression.
    RegressionReport slow = evaluate_candidate(
        sample_entry("2026-08-09T11:00:00Z", 2.0), history, rule);
    EXPECT_EQ(find_metric(slow, "wall_seconds")->verdict,
              MetricVerdict::kRegressed);
    EXPECT_TRUE(slow.regressed);

    // Far below: improvement, not a regression.
    RegressionReport fast = evaluate_candidate(
        sample_entry("2026-08-09T11:00:00Z", 0.5), history, rule);
    EXPECT_EQ(find_metric(fast, "wall_seconds")->verdict,
              MetricVerdict::kImproved);
    EXPECT_FALSE(fast.regressed);

    // Inside the deadband: stable even though != median.
    RegressionReport same = evaluate_candidate(
        sample_entry("2026-08-09T11:00:00Z", 1.02), history, rule);
    EXPECT_EQ(find_metric(same, "wall_seconds")->verdict,
              MetricVerdict::kStable);

    // Throughput metrics flip the direction: higher is better.
    RegressionReport throughput = evaluate_candidate(
        sample_entry("2026-08-09T11:00:00Z", 1.0), history, rule);
    const MetricJudgement* tps = find_metric(throughput, "traces_per_sec");
    ASSERT_NE(tps, nullptr);
    EXPECT_EQ(tps->verdict, MetricVerdict::kStable);
    {
        LedgerEntry candidate = sample_entry("2026-08-09T11:00:00Z", 1.0);
        for (auto& [name, value] : candidate.metrics)
            if (name == "traces_per_sec") value = 1.0;  // collapsed
        RegressionReport collapsed =
            evaluate_candidate(candidate, history, rule);
        EXPECT_EQ(find_metric(collapsed, "traces_per_sec")->verdict,
                  MetricVerdict::kRegressed);
    }
}

TEST(RegressionTest, LeakageChangeTripsRadarRegardlessOfMagnitude) {
    const RegressionRule rule;
    const std::vector<LedgerEntry> history = stable_history(6, 1.0, 0.01);
    LedgerEntry candidate = sample_entry("2026-08-09T11:00:00Z", 1.0);
    candidate.toggles -= 1;  // one toggle: still a real change
    const RegressionReport report =
        evaluate_candidate(candidate, history, rule);
    EXPECT_TRUE(report.leakage_checked);
    EXPECT_TRUE(report.leakage_changed);
    EXPECT_TRUE(report.regressed);
    EXPECT_FALSE(report.leakage_changes.empty());
}

TEST(RegressionTest, ReportIsByteIdenticalUnderIngestPermutation) {
    const RegressionRule rule;
    const std::vector<LedgerEntry> history = stable_history(7, 1.0, 0.01);
    const LedgerEntry candidate = sample_entry("2026-08-09T11:00:00Z", 1.3);

    const RegressionReport reference =
        evaluate_candidate(candidate, history, rule);
    const std::string reference_text = render_regression_markdown(reference);

    // Every rotation + a few deterministic shuffles stand in for "any
    // interleaving of concurrent writers".
    for (std::size_t rot = 1; rot < history.size(); ++rot) {
        std::vector<LedgerEntry> permuted = history;
        std::rotate(permuted.begin(), permuted.begin() + rot,
                    permuted.end());
        if (rot % 2 == 0) std::swap(permuted.front(), permuted.back());
        const RegressionReport report =
            evaluate_candidate(candidate, permuted, rule);
        EXPECT_EQ(report, reference);
        EXPECT_EQ(render_regression_markdown(report), reference_text);
    }
}

TEST(RegressionTest, OtherFingerprintsAndIncompleteRunsAreInvisible) {
    const RegressionRule rule;
    std::vector<LedgerEntry> history = stable_history(6, 1.0, 0.01);
    // Noise the radar must ignore: another campaign's entries and a
    // cancelled run of this one.
    LedgerEntry other = sample_entry("2026-08-09T09:00:00Z", 50.0);
    other.fingerprint = test_fingerprint(99);
    history.push_back(other);
    LedgerEntry cancelled = sample_entry("2026-08-09T09:30:00Z", 0.01);
    cancelled.status = "cancelled";
    history.push_back(cancelled);

    const RegressionReport report = evaluate_candidate(
        sample_entry("2026-08-09T11:00:00Z", 1.0), history, rule);
    const MetricJudgement* wall = find_metric(report, "wall_seconds");
    ASSERT_NE(wall, nullptr);
    EXPECT_EQ(wall->verdict, MetricVerdict::kStable);
    EXPECT_EQ(wall->history, 6u);
}

// ----- ingestion ---------------------------------------------------------

TEST(IngestTest, RunReportBecomesOneEntry) {
    eval::RunReport report;
    report.campaign = "des_tvla";
    report.fingerprint = test_fingerprint();
    report.workers = 2;
    report.lanes = 64;
    report.revision = "cafe";
    report.hostname = "rig-b";
    report.utc = "2026-08-09T12:00:00Z";
    report.wall_seconds = 2.5;
    report.metrics.emplace_back("max_abs_t_order1", 3.75);

    const std::string text = eval::render_run_report(report);
    const std::vector<LedgerEntry> entries =
        entries_from_file_text(text, IngestOverrides{});
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].source, "run_report");
    EXPECT_EQ(entries[0].campaign, "des_tvla");
    EXPECT_EQ(entries[0].fingerprint, report.fingerprint);
    EXPECT_EQ(entries[0].revision, "cafe");
    EXPECT_EQ(entries[0].host, "rig-b");
    EXPECT_EQ(entries[0].max_abs_t1, 3.75);
}

TEST(IngestTest, OverridesFillOnlyEmptyFields) {
    eval::RunReport report;
    report.campaign = "des_tvla";
    report.fingerprint = test_fingerprint();
    report.revision = "";  // the producer could not resolve one
    const std::string text = eval::render_run_report(report);

    IngestOverrides overrides;
    overrides.revision = "deadbeef";
    overrides.host = "pinned-host";
    overrides.utc = "2026-08-09T13:00:00Z";
    const std::vector<LedgerEntry> entries =
        entries_from_file_text(text, overrides);
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].revision, "deadbeef");
    EXPECT_EQ(entries[0].host, "pinned-host");
    EXPECT_EQ(entries[0].utc, "2026-08-09T13:00:00Z");

    // A file that *does* carry attribution keeps it.
    report.revision = "cafe";
    const std::vector<LedgerEntry> kept = entries_from_file_text(
        eval::render_run_report(report), overrides);
    EXPECT_EQ(kept.at(0).revision, "cafe");
}

const char* kBenchJson = R"({
  "workload": "des_ff_tvla",
  "revision": "feed",
  "hostname": "bench-rig",
  "utc": "2026-08-09T14:00:00Z",
  "traces": 512,
  "block_size": 64,
  "noise_sigma": 0.500,
  "deterministic": true,
  "stats_speedup": 2.125,
  "series": [
    {"backend": "event", "lanes": 64, "workers": 1, "checkpoint_every": 0,
     "attribution": false, "oversubscribed": false, "seconds": 1.5,
     "traces_per_sec": 341.33, "toggle_mb_per_sec": 10.0,
     "toggles": 18446744073709551615, "sim_events": 7, "sim_glitches": 3,
     "sim_inertial_cancels": 1, "sim_queue_peak": 9, "speedup": 1.0,
     "max_abs_t1": 4.125,
     "phases_cpu": {"sim": 1.0, "noise": 0.125, "moments": 0.25,
                    "attribution": 0.0, "checkpoint": 0.0}},
    {"backend": "compiled", "lanes": 128, "workers": 2, "checkpoint_every": 16,
     "attribution": true, "oversubscribed": false, "seconds": 0.5,
     "traces_per_sec": 1024.0, "toggle_mb_per_sec": 30.0,
     "toggles": 123, "sim_events": 7, "sim_glitches": 3,
     "sim_inertial_cancels": 1, "sim_queue_peak": 9, "speedup": 3.0,
     "max_abs_t1": 4.125,
     "phases_cpu": {"sim": 0.5, "noise": 0.0625, "moments": 0.125,
                    "attribution": 0.25, "checkpoint": 0.03125}}
  ]
})";

TEST(IngestTest, BenchJsonBecomesRowsPlusHeadline) {
    const std::vector<LedgerEntry> entries =
        entries_from_file_text(kBenchJson, IngestOverrides{});
    ASSERT_EQ(entries.size(), 3u);

    const auto by_campaign = [&](const std::string& name) -> const LedgerEntry* {
        for (const LedgerEntry& entry : entries)
            if (entry.campaign == name) return &entry;
        return nullptr;
    };
    const LedgerEntry* event_row =
        by_campaign("des_ff_tvla/event-l64-w1");
    ASSERT_NE(event_row, nullptr);
    EXPECT_EQ(event_row->source, "bench");
    EXPECT_EQ(event_row->revision, "feed");
    EXPECT_EQ(event_row->toggles, 18446744073709551615ull);  // full range
    EXPECT_EQ(event_row->max_abs_t1, 4.125);
    ASSERT_FALSE(event_row->phases.empty());
    EXPECT_EQ(event_row->phases[0].name, "sim");
    EXPECT_EQ(event_row->phases[0].cpu_seconds, 1.0);
    const LedgerEntry* compiled_row =
        by_campaign("des_ff_tvla/compiled-l128-w2-c16-attr");
    ASSERT_NE(compiled_row, nullptr);

    const LedgerEntry* headline = by_campaign("des_ff_tvla/headline");
    ASSERT_NE(headline, nullptr);
    bool has_speedup = false;
    for (const auto& [name, value] : headline->metrics)
        if (name == "stats_speedup" && value == 2.125) has_speedup = true;
    EXPECT_TRUE(has_speedup);

    // Same row config -> same fingerprint (that is the history key);
    // different row config -> different fingerprint.
    const std::vector<LedgerEntry> again =
        entries_from_file_text(kBenchJson, IngestOverrides{});
    const LedgerEntry* again_event = nullptr;
    for (const LedgerEntry& entry : again)
        if (entry.campaign == event_row->campaign) again_event = &entry;
    ASSERT_NE(again_event, nullptr);
    EXPECT_EQ(fingerprint_key(event_row->fingerprint),
              fingerprint_key(again_event->fingerprint));
    EXPECT_NE(fingerprint_key(event_row->fingerprint),
              fingerprint_key(compiled_row->fingerprint));
}

TEST(IngestTest, UnrecognizedDocumentThrows) {
    EXPECT_THROW(entries_from_file_text("{\"what\": 1}", IngestOverrides{}),
                 std::runtime_error);
    EXPECT_THROW(entries_from_file_text("not json", IngestOverrides{}),
                 std::runtime_error);
}

}  // namespace
