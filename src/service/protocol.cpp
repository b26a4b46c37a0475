#include "service/protocol.hpp"

#include <stdexcept>

#include "support/json.hpp"

namespace glitchmask::service {

namespace {

void encode_outcome_members(JsonWriter& w, const CampaignOutcome& outcome) {
    w.member("fingerprint", fingerprint_hex(outcome.fingerprint));
    w.member("total_traces", outcome.total_traces);
    w.member("completed_traces", outcome.completed_traces);
    w.member("cancelled", outcome.cancelled);
    w.member("resumed", outcome.resumed);
    w.member("checkpoint_degraded", outcome.checkpoint_degraded);
    w.member("snapshot_discarded", outcome.snapshot_discarded);
    w.key("metrics");
    w.begin_object();
    for (const auto& [name, value] : outcome.metrics) w.member(name, value);
    w.end_object();
}

void encode_job_members(JsonWriter& w, const JobStatus& status) {
    w.member("job", status.id);
    w.member("state", job_state_name(status.state));
    w.member("kind", campaign_kind_name(status.request.kind));
    w.member("cached", status.cached);
    w.member("coalesced", status.coalesced);
    if (status.state == JobState::Failed) {
        w.member("error_kind", status.error_kind);
        w.member("error_message", status.error_message);
    } else if (job_state_terminal(status.state)) {
        encode_outcome_members(w, status.outcome);
    }
    if (job_state_terminal(status.state) && !status.spans.empty()) {
        w.key("spans");
        trace::write_json(w, status.spans);
    }
}

std::string finish_line(JsonWriter& w) {
    std::string line = w.take();
    line += '\n';
    return line;
}

}  // namespace

ClientCommand parse_client_command(const std::string& line) {
    constexpr std::string_view kWhat = "request";
    const JsonValue json = [&] {
        try {
            return parse_json(line);
        } catch (const std::exception& error) {
            throw std::runtime_error(std::string("malformed JSON: ") +
                                     error.what());
        }
    }();
    expect_kind(json, JsonValue::Kind::kObject, kWhat, "(request)");
    const std::string& op = require_string(json, "op", kWhat);

    ClientCommand command;
    if (op == "submit") {
        command.op = ClientCommand::Op::Submit;
        command.request = decode_request(json);
        return command;
    }
    if (op == "status" || op == "cancel") {
        command.op = op == "status" ? ClientCommand::Op::Status
                                    : ClientCommand::Op::Cancel;
        command.job_id = require_u64(json, "job", kWhat);
        return command;
    }
    if (op == "stats") {
        command.op = ClientCommand::Op::Stats;
        return command;
    }
    if (op == "metrics") {
        command.op = ClientCommand::Op::Metrics;
        return command;
    }
    if (op == "history") {
        command.op = ClientCommand::Op::History;
        command.fingerprint = require_string(json, "fingerprint", kWhat);
        if (command.fingerprint.empty())
            throw std::runtime_error("request: 'history' needs a fingerprint");
        return command;
    }
    if (op == "shutdown") {
        command.op = ClientCommand::Op::Shutdown;
        if (json.find("drain") != nullptr)
            command.drain = require_bool(json, "drain", kWhat);
        return command;
    }
    throw std::runtime_error("unknown op '" + op + "'");
}

std::string encode_accepted(std::uint64_t job_id,
                            const std::string& fingerprint_hex) {
    JsonWriter w;
    w.begin_object();
    w.member("event", "accepted");
    w.member("job", job_id);
    w.member("fingerprint", fingerprint_hex);
    w.end_object();
    return finish_line(w);
}

std::string encode_overloaded() {
    JsonWriter w;
    w.begin_object();
    w.member("event", "overloaded");
    w.end_object();
    return finish_line(w);
}

std::string encode_rejected(const std::string& reason) {
    JsonWriter w;
    w.begin_object();
    w.member("event", "rejected");
    w.member("reason", reason);
    w.end_object();
    return finish_line(w);
}

std::string encode_progress(std::uint64_t job_id,
                            const telemetry::ProgressUpdate& update) {
    JsonWriter w;
    w.begin_object();
    w.member("event", "progress");
    w.member("job", job_id);
    w.member("completed", update.completed_traces);
    w.member("total", update.total_traces);
    w.member("traces_per_sec", update.traces_per_sec);
    w.member("eta_sec", update.eta_sec);
    w.end_object();
    return finish_line(w);
}

std::string encode_result(const JobStatus& status) {
    JsonWriter w;
    w.begin_object();
    w.member("event", "result");
    encode_job_members(w, status);
    w.end_object();
    return finish_line(w);
}

std::string encode_status(const JobStatus& status) {
    JsonWriter w;
    w.begin_object();
    w.member("event", "status");
    encode_job_members(w, status);
    w.end_object();
    return finish_line(w);
}

std::string encode_stats(const CampaignService::Stats& stats) {
    JsonWriter w;
    w.begin_object();
    w.member("event", "stats");
    w.member("submitted", stats.submitted);
    w.member("executed", stats.executed);
    w.member("completed", stats.completed);
    w.member("cache_hits", stats.cache_hits);
    w.member("cache_misses", stats.cache_misses);
    w.member("coalesced", stats.coalesced);
    w.member("rejected_overloaded", stats.rejected_overloaded);
    w.member("failed", stats.failed);
    w.member("cancelled", stats.cancelled);
    w.member("timed_out", stats.timed_out);
    w.member("queued_now", stats.queued_now);
    w.member("running_now", stats.running_now);
    w.member("queue_peak", stats.queue_peak);
    w.end_object();
    return finish_line(w);
}

std::string encode_metrics(const telemetry::Snapshot& snapshot,
                           const CampaignService::MetricsInfo& info) {
    JsonWriter w;
    w.begin_object();
    w.member("event", "metrics");

    telemetry::write_json(w, snapshot);

    w.key("gauges");
    w.begin_object();
    for (std::size_t i = 0; i < telemetry::kGaugeCount; ++i) {
        w.member(telemetry::gauge_name(static_cast<telemetry::Gauge>(i)),
                 snapshot.gauges[i]);
    }
    w.end_object();

    w.key("service");
    w.begin_object();
    w.member("queue_depth", info.stats.queued_now);
    w.member("running", info.stats.running_now);
    w.member("queue_peak", info.stats.queue_peak);
    w.member("cache_entries", info.cache_entries);
    w.member("cache_hit_rate", info.cache_hit_rate);
    w.member("spool_bytes", info.spool_bytes);
    w.end_object();

    w.end_object();
    return finish_line(w);
}

std::string encode_history(const std::string& fingerprint_hex,
                           const std::vector<obs::LedgerEntry>& entries) {
    JsonWriter w;
    w.begin_object();
    w.member("event", "history");
    w.member("fingerprint", fingerprint_hex);
    w.key("entries");
    w.begin_array();
    for (const obs::LedgerEntry& entry : entries) eval::write_json(w, entry);
    w.end_array();
    w.end_object();
    return finish_line(w);
}

std::string encode_shutting_down() {
    JsonWriter w;
    w.begin_object();
    w.member("event", "shutting_down");
    w.end_object();
    return finish_line(w);
}

}  // namespace glitchmask::service
