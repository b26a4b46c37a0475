#include "eval/run_record.hpp"

#include <stdexcept>

#include "support/runenv.hpp"

namespace glitchmask::eval {

namespace {

using Kind = JsonValue::Kind;
constexpr std::string_view kEntry = "ledger entry";

}  // namespace

LedgerEntry make_run_record(
    std::string source, std::string campaign,
    const CampaignFingerprint& fingerprint, unsigned workers, unsigned lanes,
    std::vector<std::pair<std::string, double>> metrics) {
    LedgerEntry entry;
    entry.source = std::move(source);
    entry.campaign = std::move(campaign);
    entry.fingerprint = fingerprint;
    entry.revision = git_revision();
    entry.host = host_name();
    entry.utc = utc_timestamp();
    entry.workers = workers;
    entry.lanes = lanes;
    for (const auto& [name, value] : metrics) {
        if (name == "max_abs_t_order1") entry.max_abs_t1 = value;
        if (name == "toggles" && value >= 0.0 && value < 0x1p64)
            entry.toggles = static_cast<std::uint64_t>(value);
    }
    entry.metrics = std::move(metrics);
    return entry;
}

void write_json(JsonWriter& w, const LedgerEntry& entry) {
    w.begin_object();
    w.member("schema", kLedgerSchema);
    w.member("version", std::uint64_t{kLedgerVersion});
    w.member("source", entry.source);
    w.member("campaign", entry.campaign);
    w.key("fingerprint");
    w.begin_object();
    w.member("kind", entry.fingerprint.kind);
    w.member("seed", entry.fingerprint.seed);
    w.member("traces", entry.fingerprint.traces);
    w.member("block_size", entry.fingerprint.block_size);
    w.member("payload", entry.fingerprint.payload);
    w.end_object();
    w.member("revision", entry.revision);
    w.member("host", entry.host);
    w.member("utc", entry.utc);
    w.member("status", entry.status);
    w.member("backend", entry.backend);
    w.member("workers", std::uint64_t{entry.workers});
    w.member("lanes", std::uint64_t{entry.lanes});
    w.member("wall_seconds", entry.wall_seconds);
    w.member("cpu_seconds", entry.cpu_seconds);
    w.member("max_abs_t1", entry.max_abs_t1);
    w.member("toggles", entry.toggles);
    w.key("attribution");
    w.begin_array();
    for (const LedgerNet& net : entry.attribution) {
        w.begin_object();
        w.member("net", net.net);
        w.member("name", net.name);
        w.member("max_abs_t", net.max_abs_t);
        w.member("toggles", net.toggles);
        w.member("glitches", net.glitches);
        w.end_object();
    }
    w.end_array();
    w.key("phases");
    w.begin_array();
    for (const LedgerPhase& phase : entry.phases) {
        w.begin_object();
        w.member("name", phase.name);
        w.member("cpu_seconds", phase.cpu_seconds);
        w.member("wall_seconds", phase.wall_seconds);
        w.end_object();
    }
    w.end_array();
    w.key("metrics");
    w.begin_object();
    for (const auto& [name, value] : entry.metrics) w.member(name, value);
    w.end_object();
    w.end_object();
}

std::string render_ledger_entry(const LedgerEntry& entry) {
    JsonWriter w;
    write_json(w, entry);
    return w.take();
}

LedgerEntry decode_ledger_entry(const JsonValue& json) {
    expect_kind(json, Kind::kObject, kEntry, "(entry)");
    const std::string& schema = require_string(json, "schema", kEntry);
    if (schema != kLedgerSchema)
        throw std::runtime_error("ledger entry: unexpected schema '" + schema +
                                 "'");
    const std::uint64_t version = require_u64(json, "version", kEntry);
    if (version < 1 || version > kLedgerVersion)
        throw std::runtime_error("ledger entry: unsupported version " +
                                 std::to_string(version));

    LedgerEntry entry;
    entry.source = require_string(json, "source", kEntry);
    entry.campaign = require_string(json, "campaign", kEntry);
    const JsonValue& fp = require(json, "fingerprint", Kind::kObject, kEntry);
    entry.fingerprint.kind = require_u64(fp, "kind", kEntry);
    entry.fingerprint.seed = require_u64(fp, "seed", kEntry);
    entry.fingerprint.traces = require_u64(fp, "traces", kEntry);
    entry.fingerprint.block_size = require_u64(fp, "block_size", kEntry);
    entry.fingerprint.payload = require_u64(fp, "payload", kEntry);
    entry.revision = require_string(json, "revision", kEntry);
    entry.host = require_string(json, "host", kEntry);
    entry.utc = require_string(json, "utc", kEntry);
    entry.status = require_string(json, "status", kEntry);
    entry.backend = require_string(json, "backend", kEntry);
    entry.workers = static_cast<unsigned>(require_u64(json, "workers", kEntry));
    entry.lanes = static_cast<unsigned>(require_u64(json, "lanes", kEntry));
    entry.wall_seconds = require_number(json, "wall_seconds", kEntry);
    entry.cpu_seconds = require_number(json, "cpu_seconds", kEntry);
    entry.max_abs_t1 = require_number(json, "max_abs_t1", kEntry);
    entry.toggles = require_u64(json, "toggles", kEntry);
    for (const JsonValue& row :
         require(json, "attribution", Kind::kArray, kEntry).array) {
        LedgerNet net;
        net.net = require_u64(row, "net", kEntry);
        net.name = require_string(row, "name", kEntry);
        net.max_abs_t = require_number(row, "max_abs_t", kEntry);
        net.toggles = require_u64(row, "toggles", kEntry);
        net.glitches = require_u64(row, "glitches", kEntry);
        entry.attribution.push_back(std::move(net));
    }
    for (const JsonValue& row :
         require(json, "phases", Kind::kArray, kEntry).array) {
        LedgerPhase phase;
        phase.name = require_string(row, "name", kEntry);
        phase.cpu_seconds = require_number(row, "cpu_seconds", kEntry);
        phase.wall_seconds = require_number(row, "wall_seconds", kEntry);
        entry.phases.push_back(std::move(phase));
    }
    for (const auto& [name, value] :
         require(json, "metrics", Kind::kObject, kEntry).object)
        entry.metrics.emplace_back(
            name, expect_kind(value, Kind::kNumber, kEntry, name).as_number());
    return entry;
}

}  // namespace glitchmask::eval
