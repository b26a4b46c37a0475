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

#include "eval/run_report.hpp"
#include "support/atomic_file.hpp"
#include "support/campaign_error.hpp"
#include "support/json.hpp"
#include "support/snapshot.hpp"

namespace glitchmask::obs {

namespace {

using Kind = JsonValue::Kind;
constexpr std::string_view kBench = "bench ingest";

std::span<const std::uint8_t> as_bytes(std::string_view text) {
    return {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()};
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
    return eval::decode_ledger_entry(parse_json(body));
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

std::string render_ledger_line(const LedgerEntry& entry) {
    const std::string body = eval::render_ledger_entry(entry);
    std::string line;
    line.reserve(body.size() + 32);
    line += "{\"crc32\":";
    line += std::to_string(crc32(as_bytes(body)));
    line += ",\"entry\":";
    line += body;
    line += "}\n";
    return line;
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
        key += eval::render_ledger_entry(e);
        keys.emplace_back(std::move(key), i);
    }
    std::sort(keys.begin(), keys.end());
    std::vector<LedgerEntry> sorted;
    sorted.reserve(entries.size());
    for (auto& [key, index] : keys) sorted.push_back(std::move(entries[index]));
    entries = std::move(sorted);
}

// ----- ingestion ---------------------------------------------------------

std::vector<LedgerEntry> entries_from_bench_json(const JsonValue& json) {
    expect_kind(json, Kind::kObject, kBench, "(document)");
    const std::string workload = require_string(json, "workload", kBench);
    const std::uint64_t traces = require_u64(json, "traces", kBench);
    const std::uint64_t block_size = require_u64(json, "block_size", kBench);
    // Run attribution is optional: "" = unknown, filled at ingest.
    const auto optional_string = [&](std::string_view key) {
        return json.find(key) != nullptr ? require_string(json, key, kBench)
                                         : std::string{};
    };
    const std::string revision = optional_string("revision");
    const std::string host = optional_string("hostname");
    const std::string utc = optional_string("utc");

    // All bench fingerprints share a synthetic kind word (they are not
    // resumable campaigns); the payload word separates rows by their
    // scaling-axis coordinates, so cross-run history groups rows of the
    // same shape together.
    const std::uint64_t bench_kind = eval::fnv1a64_tag("bench_batch_sim");
    const std::uint64_t workload_seed = eval::fnv1a64_tag(workload.c_str());
    double noise_sigma = 0.0;
    if (json.find("noise_sigma") != nullptr)
        noise_sigma = require_number(json, "noise_sigma", kBench);

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
            if (value.kind == Kind::kUnsigned || value.kind == Kind::kNumber)
                headline.metrics.emplace_back(name, value.as_number());
            else if (value.kind == Kind::kBool)
                headline.metrics.emplace_back(name, value.boolean ? 1.0 : 0.0);
        }
        entries.push_back(std::move(headline));
    }

    for (const JsonValue& row :
         require(json, "series", Kind::kArray, kBench).array) {
        LedgerEntry entry;
        entry.source = "bench";
        entry.backend = require_string(row, "backend", kBench);
        entry.lanes = static_cast<unsigned>(require_u64(row, "lanes", kBench));
        entry.workers =
            static_cast<unsigned>(require_u64(row, "workers", kBench));
        const std::uint64_t checkpoint_every =
            require_u64(row, "checkpoint_every", kBench);
        const bool attribution = row.find("attribution") != nullptr &&
                                 require_bool(row, "attribution", kBench);

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
        entry.wall_seconds = require_number(row, "seconds", kBench);
        entry.max_abs_t1 = require_number(row, "max_abs_t1", kBench);
        entry.toggles = require_u64(row, "toggles", kBench);
        for (const char* name :
             {"traces_per_sec", "toggle_mb_per_sec", "speedup", "sim_events",
              "sim_glitches", "sim_inertial_cancels", "sim_queue_peak"}) {
            if (row.find(name) != nullptr)
                entry.metrics.emplace_back(name,
                                           require_number(row, name, kBench));
        }
        if (row.find("oversubscribed") != nullptr)
            entry.metrics.emplace_back(
                "oversubscribed",
                require_bool(row, "oversubscribed", kBench) ? 1.0 : 0.0);
        // Per-phase CPU seconds, summed across workers.
        if (row.find("phases_cpu") != nullptr) {
            for (const auto& [name, value] :
                 require(row, "phases_cpu", Kind::kObject, kBench).object) {
                LedgerPhase phase;
                phase.name = name;
                phase.cpu_seconds =
                    expect_kind(value, Kind::kNumber, kBench, name).as_number();
                entry.phases.push_back(std::move(phase));
            }
        }
        entries.push_back(std::move(entry));
    }
    return entries;
}

std::vector<LedgerEntry> entries_from_file_text(std::string_view text,
                                                const IngestOverrides& overrides) {
    const JsonValue root = parse_json(text);
    if (root.kind != Kind::kObject)
        throw std::runtime_error("ledger ingest: not a JSON object");
    std::vector<LedgerEntry> entries;
    const JsonValue* schema = root.find("schema");
    if (schema != nullptr && schema->string == eval::kRunReportSchema) {
        entries.push_back(eval::decode_run_report(root).entry);
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
