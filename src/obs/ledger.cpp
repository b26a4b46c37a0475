#include "obs/ledger.hpp"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <span>
#include <stdexcept>

#include <fcntl.h>
#include <unistd.h>

#include "support/atomic_file.hpp"
#include "support/campaign_error.hpp"
#include "support/json.hpp"
#include "support/snapshot.hpp"
#include "support/telemetry.hpp"

namespace glitchmask::obs {

namespace {

using eval::JsonValue;

std::span<const std::uint8_t> as_bytes(std::string_view text) {
    return {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()};
}

const JsonValue& require(const JsonValue& object, std::string_view key) {
    const JsonValue* member = object.find(key);
    if (member == nullptr)
        throw std::runtime_error("ledger entry: missing field '" +
                                 std::string(key) + "'");
    return *member;
}

std::uint64_t require_u64(const JsonValue& object, std::string_view key) {
    const JsonValue& member = require(object, key);
    if (member.kind != JsonValue::Kind::kUnsigned)
        throw std::runtime_error("ledger entry: field '" + std::string(key) +
                                 "' is not an unsigned integer");
    return member.unsigned_value;
}

/// One line minus its '\n': validates the CRC wrapper and the checksum,
/// then decodes the entry.  Throws on any deviation -- the caller counts
/// the line as corrupt.
LedgerEntry decode_line(std::string_view line) {
    constexpr std::string_view kPrefix = "{\"crc32\":";
    constexpr std::string_view kMiddle = ",\"entry\":";
    if (line.substr(0, kPrefix.size()) != kPrefix)
        throw std::runtime_error("ledger line: bad wrapper prefix");
    std::size_t i = kPrefix.size();
    std::uint64_t crc = 0;
    bool digits = false;
    while (i < line.size() && line[i] >= '0' && line[i] <= '9') {
        crc = crc * 10 + static_cast<std::uint64_t>(line[i] - '0');
        if (crc > 0xFFFFFFFFull)
            throw std::runtime_error("ledger line: CRC out of range");
        ++i;
        digits = true;
    }
    if (!digits) throw std::runtime_error("ledger line: missing CRC");
    if (line.substr(i, kMiddle.size()) != kMiddle)
        throw std::runtime_error("ledger line: bad wrapper middle");
    i += kMiddle.size();
    if (line.size() <= i || line.back() != '}')
        throw std::runtime_error("ledger line: truncated wrapper");
    const std::string_view body = line.substr(i, line.size() - 1 - i);
    if (crc32(as_bytes(body)) != static_cast<std::uint32_t>(crc))
        throw std::runtime_error("ledger line: CRC mismatch");
    return decode_ledger_entry(eval::parse_json(body));
}

}  // namespace

std::string fingerprint_key(const eval::CampaignFingerprint& fingerprint) {
    const std::uint64_t words[5] = {fingerprint.kind, fingerprint.seed,
                                    fingerprint.traces, fingerprint.block_size,
                                    fingerprint.payload};
    std::string hex;
    hex.reserve(80);
    for (const std::uint64_t word : words) {
        char buffer[17];
        std::snprintf(buffer, sizeof buffer, "%016llx",
                      static_cast<unsigned long long>(word));
        hex += buffer;
    }
    return hex;
}

std::string render_ledger_entry(const LedgerEntry& entry) {
    JsonWriter w;
    w.begin_object();
    w.member("schema", kLedgerSchema);
    w.member("version", static_cast<std::uint64_t>(kLedgerVersion));
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
    w.member("workers", static_cast<std::uint64_t>(entry.workers));
    w.member("lanes", static_cast<std::uint64_t>(entry.lanes));
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
    return w.take();
}

std::string render_ledger_line(const LedgerEntry& entry) {
    const std::string body = render_ledger_entry(entry);
    std::string line;
    line.reserve(body.size() + 32);
    line += "{\"crc32\":";
    line += std::to_string(crc32(as_bytes(body)));
    line += ",\"entry\":";
    line += body;
    line += "}\n";
    return line;
}

LedgerEntry decode_ledger_entry(const JsonValue& json) {
    if (json.kind != JsonValue::Kind::kObject)
        throw std::runtime_error("ledger entry: not a JSON object");
    const JsonValue& schema = require(json, "schema");
    if (schema.string != kLedgerSchema)
        throw std::runtime_error("ledger entry: unexpected schema '" +
                                 schema.string + "'");
    const std::uint64_t version = require_u64(json, "version");
    if (version < 1 || version > kLedgerVersion)
        throw std::runtime_error("ledger entry: unsupported version " +
                                 std::to_string(version));

    LedgerEntry entry;
    entry.source = require(json, "source").string;
    entry.campaign = require(json, "campaign").string;
    const JsonValue& fp = require(json, "fingerprint");
    entry.fingerprint.kind = require_u64(fp, "kind");
    entry.fingerprint.seed = require_u64(fp, "seed");
    entry.fingerprint.traces = require_u64(fp, "traces");
    entry.fingerprint.block_size = require_u64(fp, "block_size");
    entry.fingerprint.payload = require_u64(fp, "payload");
    entry.revision = require(json, "revision").string;
    entry.host = require(json, "host").string;
    entry.utc = require(json, "utc").string;
    entry.status = require(json, "status").string;
    entry.backend = require(json, "backend").string;
    entry.workers = static_cast<unsigned>(require_u64(json, "workers"));
    entry.lanes = static_cast<unsigned>(require_u64(json, "lanes"));
    entry.wall_seconds = require(json, "wall_seconds").as_number();
    entry.cpu_seconds = require(json, "cpu_seconds").as_number();
    entry.max_abs_t1 = require(json, "max_abs_t1").as_number();
    entry.toggles = require_u64(json, "toggles");
    for (const JsonValue& net_json : require(json, "attribution").array) {
        LedgerNet net;
        net.net = require_u64(net_json, "net");
        net.name = require(net_json, "name").string;
        net.max_abs_t = require(net_json, "max_abs_t").as_number();
        net.toggles = require_u64(net_json, "toggles");
        net.glitches = require_u64(net_json, "glitches");
        entry.attribution.push_back(std::move(net));
    }
    for (const JsonValue& phase_json : require(json, "phases").array) {
        LedgerPhase phase;
        phase.name = require(phase_json, "name").string;
        phase.cpu_seconds = require(phase_json, "cpu_seconds").as_number();
        phase.wall_seconds = require(phase_json, "wall_seconds").as_number();
        entry.phases.push_back(std::move(phase));
    }
    for (const auto& [name, value] : require(json, "metrics").object)
        entry.metrics.emplace_back(name, value.as_number());
    return entry;
}

LedgerFile read_ledger(const std::string& path) {
    LedgerFile file;
    const auto bytes = read_file_if_exists(path);
    if (!bytes.has_value()) return file;
    const std::string_view text(reinterpret_cast<const char*>(bytes->data()),
                                bytes->size());
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t newline = text.find('\n', pos);
        const std::size_t end =
            newline == std::string_view::npos ? text.size() : newline;
        const std::string_view line = text.substr(pos, end - pos);
        pos = end + 1;
        if (line.empty()) continue;
        try {
            // A final line without '\n' still counts when its CRC holds
            // (an append interrupted between the payload and nothing --
            // the newline is part of the same write -- cannot produce
            // one, but a manually-assembled ledger can).
            file.entries.push_back(decode_line(line));
        } catch (const std::exception&) {
            ++file.corrupt_lines;
        }
    }
    return file;
}

void append_ledger(const std::string& path, const LedgerEntry& entry) {
    const std::string line = render_ledger_line(entry);
    const int fd = ::open(path.c_str(),
                          O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (fd < 0)
        throw CampaignError(CampaignErrorKind::IoFailure,
                            "ledger append: cannot open '" + path +
                                "': " + std::strerror(errno),
                            errno);
    // One write per line keeps concurrent appenders line-atomic on any
    // POSIX filesystem (O_APPEND writes are not interleaved); retry only
    // the EINTR/short-write tail.
    std::size_t written = 0;
    int saved_errno = 0;
    while (written < line.size()) {
        const ssize_t n =
            ::write(fd, line.data() + written, line.size() - written);
        if (n < 0) {
            if (errno == EINTR) continue;
            saved_errno = errno;
            break;
        }
        written += static_cast<std::size_t>(n);
    }
    ::close(fd);
    if (written != line.size())
        throw CampaignError(CampaignErrorKind::IoFailure,
                            "ledger append: short write to '" + path +
                                "': " + std::strerror(saved_errno),
                            saved_errno);
}

void sort_ledger(std::vector<LedgerEntry>& entries) {
    // Decorate-sort-undecorate on (utc, revision, host, canonical text):
    // a total order over distinct entries, so any arrival interleaving of
    // the same set sorts identically.  '\0' separators keep field
    // boundaries from aliasing ("ab"+"c" vs "a"+"bc").
    std::vector<std::pair<std::string, std::size_t>> keys;
    keys.reserve(entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const LedgerEntry& e = entries[i];
        std::string key;
        key.reserve(e.utc.size() + e.revision.size() + e.host.size() + 64);
        key += e.utc;
        key += '\0';
        key += e.revision;
        key += '\0';
        key += e.host;
        key += '\0';
        key += render_ledger_entry(e);
        keys.emplace_back(std::move(key), i);
    }
    std::sort(keys.begin(), keys.end());
    std::vector<LedgerEntry> sorted;
    sorted.reserve(entries.size());
    for (auto& [key, index] : keys) sorted.push_back(std::move(entries[index]));
    entries = std::move(sorted);
}

// ----- ingestion ---------------------------------------------------------

LedgerEntry entry_from_run_report(const eval::RunReport& report) {
    LedgerEntry entry;
    entry.source = "run_report";
    entry.campaign = report.campaign;
    entry.fingerprint = report.fingerprint;
    entry.revision = report.revision;
    entry.host = report.hostname;
    entry.utc = report.utc;
    entry.status = report.progress.cancelled ? "cancelled" : "completed";
    entry.workers = report.workers;
    entry.lanes = report.lanes;
    entry.wall_seconds = report.wall_seconds;
    entry.cpu_seconds = report.cpu_seconds;
    entry.toggles = report.counters.value(telemetry::Counter::kSimToggles);
    for (const auto& [name, value] : report.metrics) {
        if (name == "max_abs_t_order1") entry.max_abs_t1 = value;
        entry.metrics.emplace_back(name, value);
    }
    for (const eval::AttributionNetReport& net : report.attribution.nets) {
        entry.attribution.push_back(LedgerNet{net.net, net.name, net.max_abs_t,
                                              net.toggles, net.glitches});
    }
    // Phase split: CPU seconds from the phase histograms' sums (summed
    // across workers), wall seconds from the same-named trace span rollup
    // when the run collected one.
    for (const telemetry::Histogram histogram :
         {telemetry::Histogram::kPhaseSimNanos,
          telemetry::Histogram::kPhaseNoiseNanos,
          telemetry::Histogram::kPhaseMomentsNanos,
          telemetry::Histogram::kPhaseAttributionNanos,
          telemetry::Histogram::kCheckpointWriteNanos}) {
        LedgerPhase phase;
        phase.name = telemetry::histogram_span_name(histogram);
        phase.cpu_seconds =
            static_cast<double>(report.counters.histogram(histogram).sum) *
            1e-9;
        for (const trace::SpanSummary& span : report.spans)
            if (span.name == phase.name)
                phase.wall_seconds = static_cast<double>(span.total_ns) * 1e-9;
        if (phase.cpu_seconds > 0.0 || phase.wall_seconds > 0.0)
            entry.phases.push_back(std::move(phase));
    }
    return entry;
}

std::vector<LedgerEntry> entries_from_bench_json(const JsonValue& json) {
    if (json.kind != JsonValue::Kind::kObject)
        throw std::runtime_error("bench ingest: not a JSON object");
    const std::string workload = require(json, "workload").string;
    const std::uint64_t traces = require_u64(json, "traces");
    const std::uint64_t block_size = require_u64(json, "block_size");
    std::string revision, host, utc;
    if (const JsonValue* v = json.find("revision")) revision = v->string;
    if (const JsonValue* v = json.find("hostname")) host = v->string;
    if (const JsonValue* v = json.find("utc")) utc = v->string;

    // All bench fingerprints share a synthetic kind word (they are not
    // resumable campaigns); the payload word separates rows by their
    // scaling-axis coordinates, so cross-run history groups rows of the
    // same shape together.
    const std::uint64_t bench_kind = eval::fnv1a64_tag("bench_batch_sim");
    const std::uint64_t workload_seed = eval::fnv1a64_tag(workload.c_str());
    double noise_sigma = 0.0;
    if (const JsonValue* v = json.find("noise_sigma"))
        noise_sigma = v->as_number();

    std::vector<LedgerEntry> entries;

    // The headline entry: the top-level overhead/speedup figures CI
    // gates.  Every numeric/bool top-level key becomes a metric, so new
    // bench headline keys flow into the ledger without a schema change.
    {
        LedgerEntry headline;
        headline.source = "bench";
        headline.campaign = workload + "/headline";
        headline.fingerprint.kind = bench_kind;
        headline.fingerprint.seed = workload_seed;
        headline.fingerprint.traces = traces;
        headline.fingerprint.block_size = block_size;
        headline.fingerprint.payload =
            eval::fnv1a64(eval::kFnvOffset, eval::fnv1a64_tag("headline"));
        headline.revision = revision;
        headline.host = host;
        headline.utc = utc;
        for (const auto& [name, value] : json.object) {
            if (name == "series" || name == "workload" || name == "revision" ||
                name == "hostname" || name == "utc")
                continue;
            if (value.kind == JsonValue::Kind::kUnsigned ||
                value.kind == JsonValue::Kind::kNumber)
                headline.metrics.emplace_back(name, value.as_number());
            else if (value.kind == JsonValue::Kind::kBool)
                headline.metrics.emplace_back(name, value.boolean ? 1.0 : 0.0);
        }
        entries.push_back(std::move(headline));
    }

    const JsonValue& series = require(json, "series");
    for (const JsonValue& row : series.array) {
        LedgerEntry entry;
        entry.source = "bench";
        entry.backend = require(row, "backend").string;
        entry.lanes = static_cast<unsigned>(require_u64(row, "lanes"));
        entry.workers = static_cast<unsigned>(require_u64(row, "workers"));
        const std::uint64_t checkpoint_every =
            require_u64(row, "checkpoint_every");
        bool attribution = false;
        if (const JsonValue* v = row.find("attribution"))
            attribution = v->boolean;

        entry.campaign = workload + "/" + entry.backend + "-l" +
                         std::to_string(entry.lanes) + "-w" +
                         std::to_string(entry.workers);
        if (checkpoint_every > 0)
            entry.campaign += "-c" + std::to_string(checkpoint_every);
        if (attribution) entry.campaign += "-attr";

        entry.fingerprint.kind = bench_kind;
        entry.fingerprint.seed = workload_seed;
        entry.fingerprint.traces = traces;
        entry.fingerprint.block_size = block_size;
        std::uint64_t payload = eval::kFnvOffset;
        payload =
            eval::fnv1a64(payload, eval::fnv1a64_tag(entry.backend.c_str()));
        payload = eval::fnv1a64(payload, entry.lanes);
        payload = eval::fnv1a64(payload, entry.workers);
        payload = eval::fnv1a64(payload, checkpoint_every);
        payload = eval::fnv1a64(payload, attribution ? 1 : 0);
        payload =
            eval::fnv1a64(payload, std::bit_cast<std::uint64_t>(noise_sigma));
        entry.fingerprint.payload = payload;

        entry.revision = revision;
        entry.host = host;
        entry.utc = utc;
        entry.wall_seconds = require(row, "seconds").as_number();
        entry.max_abs_t1 = require(row, "max_abs_t1").as_number();
        entry.toggles = require_u64(row, "toggles");
        for (const char* name :
             {"traces_per_sec", "toggle_mb_per_sec", "speedup", "sim_events",
              "sim_glitches", "sim_inertial_cancels", "sim_queue_peak"}) {
            if (const JsonValue* v = row.find(name))
                entry.metrics.emplace_back(name, v->as_number());
        }
        if (const JsonValue* v = row.find("oversubscribed"))
            entry.metrics.emplace_back("oversubscribed", v->boolean ? 1.0 : 0.0);
        // Per-phase CPU seconds, summed across workers.
        if (const JsonValue* phases = row.find("phases_cpu")) {
            for (const auto& [name, value] : phases->object) {
                LedgerPhase phase;
                phase.name = name;
                phase.cpu_seconds = value.as_number();
                entry.phases.push_back(std::move(phase));
            }
        }
        entries.push_back(std::move(entry));
    }
    return entries;
}

std::vector<LedgerEntry> entries_from_file_text(std::string_view text,
                                                const IngestOverrides& overrides) {
    const JsonValue root = eval::parse_json(text);
    if (root.kind != JsonValue::Kind::kObject)
        throw std::runtime_error("ledger ingest: not a JSON object");
    std::vector<LedgerEntry> entries;
    const JsonValue* schema = root.find("schema");
    if (schema != nullptr && schema->string == eval::kRunReportSchema) {
        entries.push_back(entry_from_run_report(eval::decode_run_report(root)));
    } else if (root.find("workload") != nullptr &&
               root.find("series") != nullptr) {
        entries = entries_from_bench_json(root);
    } else {
        throw std::runtime_error(
            "ledger ingest: neither a run report nor a bench JSON document");
    }
    for (LedgerEntry& entry : entries) {
        if (entry.revision.empty()) entry.revision = overrides.revision;
        if (entry.host.empty()) entry.host = overrides.host;
        if (entry.utc.empty()) entry.utc = overrides.utc;
    }
    return entries;
}

}  // namespace glitchmask::obs
