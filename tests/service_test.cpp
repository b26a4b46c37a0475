// The campaign service layer: request codec, wire protocol, the
// CampaignService scheduler (cache, coalescing, backpressure, priorities,
// cancellation, watchdog, drain/restart), and the checkpoint I/O failure
// taxonomy the service's graceful-degradation policy is built on.
//
// The load-bearing invariant throughout is determinism: equal request
// fingerprints imply bit-identical results, so every cached, coalesced,
// resumed, or degraded outcome is checked with EXPECT_EQ against a
// fault-free direct driver run -- not "approximately recovered", equal.
#include <gtest/gtest.h>

#include <cerrno>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include "eval/run_report.hpp"
#include "obs/ledger.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "service/socket_server.hpp"
#include "support/atomic_file.hpp"
#include "support/campaign_error.hpp"
#include "support/fault.hpp"
#include "support/telemetry.hpp"
#include "support/trace.hpp"

namespace glitchmask::service {
namespace {

// ----- shared helpers ----------------------------------------------------

/// A quick gadget campaign (~tens of ms).  Distinct seeds keep the tests'
/// fingerprints disjoint, so no test can accidentally hit another's cache
/// or spool file.
CampaignRequest small_gadget_request(std::uint64_t seed,
                                     std::size_t traces = 256) {
    CampaignRequest request = default_request(CampaignKind::GadgetTvla);
    request.gadget = eval::GadgetKind::Trichina;
    request.replicas = 4;
    request.traces = traces;
    request.noise_sigma = 0.5;
    request.seed = seed;
    request.block_size = 16;
    request.workers = 2;
    return request;
}

/// Fault-free direct driver run -- the bit-exactness reference.
CampaignOutcome reference_outcome(const CampaignRequest& request) {
    return run_campaign_request(request, eval::CampaignRunOptions{});
}

void expect_same_metrics(const CampaignOutcome& actual,
                         const CampaignOutcome& expected) {
    ASSERT_EQ(actual.metrics.size(), expected.metrics.size());
    for (std::size_t i = 0; i < expected.metrics.size(); ++i) {
        EXPECT_EQ(actual.metrics[i].first, expected.metrics[i].first);
        EXPECT_EQ(actual.metrics[i].second, expected.metrics[i].second)
            << "metric " << expected.metrics[i].first;
    }
}

std::string make_temp_dir(const std::string& name) {
    const std::string dir = ::testing::TempDir() + "glitchmask_" + name;
    ::mkdir(dir.c_str(), 0755);
    return dir;
}

bool spool_file_exists(const std::string& path) {
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0;
}

template <class Pred>
bool wait_until(Pred&& pred, unsigned timeout_ms = 20000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (!pred()) {
        if (std::chrono::steady_clock::now() >= deadline) return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
}

ServiceConfig service_config(unsigned executors,
                             std::string spool_dir = {},
                             std::string state_path = {}) {
    ServiceConfig config;
    config.executors = executors;
    config.spool_dir = std::move(spool_dir);
    config.state_path = std::move(state_path);
    return config;
}

class ServiceTest : public ::testing::Test {
protected:
    void TearDown() override { fault::clear(); }
};

// ----- request codec -----------------------------------------------------

TEST(CampaignRequestCodec, EncodeDecodeRoundTripsEveryKind) {
    std::vector<CampaignRequest> originals;

    CampaignRequest sequence = default_request(CampaignKind::SequenceTvla);
    sequence.priority = -3;
    sequence.traces = 777;
    sequence.seed = 42;
    sequence.sequence = {core::ShareId::Y1, core::ShareId::X0,
                         core::ShareId::Y0, core::ShareId::X1};
    sequence.replicas = 5;
    originals.push_back(sequence);

    CampaignRequest gadget = small_gadget_request(9001);
    gadget.gadget = eval::GadgetKind::DomIndep;
    gadget.lanes = 64;
    originals.push_back(gadget);

    CampaignRequest des = default_request(CampaignKind::DesTvla);
    des.flavor = des::CoreFlavor::PD;
    des.prng_on = false;
    des.fixed_plaintext = 0x0123456789ABCDEFull;
    des.key = 0xFEDCBA9876543210ull;
    des.max_test_order = 3;
    originals.push_back(des);

    CampaignRequest mean = default_request(CampaignKind::MeanPower);
    mean.flavor = des::CoreFlavor::DOM;
    mean.placement_seed = 17;
    originals.push_back(mean);

    for (const CampaignRequest& original : originals) {
        const std::string encoded = encode_request(original);
        const CampaignRequest decoded =
            decode_request(parse_json(encoded));
        // Field-complete comparison via the canonical encoding.
        EXPECT_EQ(encode_request(decoded), encoded);
        EXPECT_EQ(fingerprint_hex(request_fingerprint(decoded)),
                  fingerprint_hex(request_fingerprint(original)));
    }
}

TEST(CampaignRequestCodec, RejectsMalformedRequests) {
    const auto decode = [](const std::string& text) {
        return decode_request(parse_json(text));
    };
    EXPECT_THROW((void)decode("{\"traces\":10}"), std::runtime_error);
    EXPECT_THROW((void)decode("{\"kind\":\"no_such_kind\"}"),
                 std::runtime_error);
    EXPECT_THROW((void)decode("{\"kind\":\"gadget_tvla\",\"bogus\":1}"),
                 std::runtime_error);
    EXPECT_THROW(
        (void)decode("{\"kind\":\"gadget_tvla\",\"gadget\":\"nope\"}"),
        std::runtime_error);
    EXPECT_THROW(
        (void)decode("{\"kind\":\"sequence_tvla\",\"sequence\":\"0011\"}"),
        std::runtime_error);
    EXPECT_THROW((void)decode("{\"kind\":\"des_tvla\",\"flavor\":\"xx\"}"),
                 std::runtime_error);
    EXPECT_THROW((void)decode("{\"kind\":\"des_tvla\",\"traces\":-5}"),
                 std::runtime_error);
}

TEST(CampaignRequestCodec, FingerprintIsWorkerAndLaneInvariant) {
    CampaignRequest a = small_gadget_request(31337);
    CampaignRequest b = a;
    b.workers = 7;
    b.lanes = 64;
    b.priority = 9;  // scheduling only, not identity
    EXPECT_EQ(fingerprint_hex(request_fingerprint(a)),
              fingerprint_hex(request_fingerprint(b)));

    CampaignRequest c = a;
    c.seed = a.seed + 1;
    EXPECT_NE(fingerprint_hex(request_fingerprint(a)),
              fingerprint_hex(request_fingerprint(c)));

    const std::string hex = fingerprint_hex(request_fingerprint(a));
    EXPECT_EQ(hex.size(), 80u);
    for (const char digit : hex)
        EXPECT_TRUE((digit >= '0' && digit <= '9') ||
                    (digit >= 'a' && digit <= 'f'))
            << hex;
}

TEST(CampaignRequestCodec, DesFlavorsHaveDistinctIdentities) {
    CampaignRequest ff = default_request(CampaignKind::DesTvla);
    CampaignRequest pd = ff;
    pd.flavor = des::CoreFlavor::PD;
    // FF runs 113 clock windows per trace, PD 34; the sample count is in
    // the fingerprint payload, so the two never share cache entries.
    EXPECT_NE(fingerprint_hex(request_fingerprint(ff)),
              fingerprint_hex(request_fingerprint(pd)));
}

// ----- wire protocol -----------------------------------------------------

TEST(Protocol, ParsesEveryOp) {
    const ClientCommand submit = parse_client_command(
        "{\"op\":\"submit\",\"kind\":\"gadget_tvla\",\"gadget\":\"trichina\","
        "\"traces\":123}");
    EXPECT_EQ(submit.op, ClientCommand::Op::Submit);
    ASSERT_TRUE(submit.request.has_value());
    EXPECT_EQ(submit.request->kind, CampaignKind::GadgetTvla);
    EXPECT_EQ(submit.request->gadget, eval::GadgetKind::Trichina);
    EXPECT_EQ(submit.request->traces, 123u);

    const ClientCommand status =
        parse_client_command("{\"op\":\"status\",\"job\":42}");
    EXPECT_EQ(status.op, ClientCommand::Op::Status);
    EXPECT_EQ(status.job_id, 42u);

    const ClientCommand cancel =
        parse_client_command("{\"op\":\"cancel\",\"job\":7}");
    EXPECT_EQ(cancel.op, ClientCommand::Op::Cancel);
    EXPECT_EQ(cancel.job_id, 7u);

    EXPECT_EQ(parse_client_command("{\"op\":\"stats\"}").op,
              ClientCommand::Op::Stats);

    EXPECT_EQ(parse_client_command("{\"op\":\"metrics\"}").op,
              ClientCommand::Op::Metrics);

    const ClientCommand history = parse_client_command(
        "{\"op\":\"history\",\"fingerprint\":\"abc123\"}");
    EXPECT_EQ(history.op, ClientCommand::Op::History);
    EXPECT_EQ(history.fingerprint, "abc123");

    const ClientCommand shutdown =
        parse_client_command("{\"op\":\"shutdown\",\"drain\":false}");
    EXPECT_EQ(shutdown.op, ClientCommand::Op::Shutdown);
    EXPECT_FALSE(shutdown.drain);
    EXPECT_TRUE(parse_client_command("{\"op\":\"shutdown\"}").drain);
}

TEST(Protocol, RejectsMalformedLines) {
    EXPECT_THROW((void)parse_client_command("not json"), std::runtime_error);
    EXPECT_THROW((void)parse_client_command("[1,2]"), std::runtime_error);
    EXPECT_THROW((void)parse_client_command("{\"job\":1}"),
                 std::runtime_error);
    EXPECT_THROW((void)parse_client_command("{\"op\":\"frobnicate\"}"),
                 std::runtime_error);
    EXPECT_THROW((void)parse_client_command("{\"op\":\"status\"}"),
                 std::runtime_error);
    EXPECT_THROW(
        (void)parse_client_command("{\"op\":\"submit\",\"kind\":\"x\"}"),
        std::runtime_error);
    EXPECT_THROW((void)parse_client_command("{\"op\":\"history\"}"),
                 std::runtime_error);
    EXPECT_THROW((void)parse_client_command(
                     "{\"op\":\"history\",\"fingerprint\":\"\"}"),
                 std::runtime_error);
}

TEST(JsonReader, AcceptsOnlyTheJsonNumberGrammar) {
    const auto number = [](const char* text) {
        return parse_json(text).as_number();
    };
    EXPECT_EQ(number("0"), 0.0);
    EXPECT_EQ(number("-0"), 0.0);
    EXPECT_EQ(number("12"), 12.0);
    EXPECT_EQ(number("-1.5e-3"), -1.5e-3);
    EXPECT_EQ(number("1E+2"), 100.0);
    EXPECT_EQ(number("0.25"), 0.25);
    EXPECT_EQ(parse_json("18446744073709551615").unsigned_value,
              18446744073709551615ull);
    EXPECT_EQ(parse_json("[1,-2]").array.size(), 2u);

    for (const char* bad :
         {"1-2", "1e", "1.2.3", "01", "-", "1.", ".5", "+1", "1e+", "--1",
          "0x10", "[1-2]", "{\"a\":1e}", "18446744073709551616", "1e999"}) {
        SCOPED_TRACE(bad);
        EXPECT_THROW((void)parse_json(bad), std::runtime_error);
    }
}

TEST(JsonReader, CapsNestingDepth) {
    const auto nested = [](std::size_t depth, const char* open,
                           const char* close) {
        std::string text;
        for (std::size_t i = 0; i < depth; ++i) text += open;
        text += "1";
        for (std::size_t i = 0; i < depth; ++i) text += close;
        return text;
    };
    const std::size_t cap = kJsonMaxDepth;
    EXPECT_NO_THROW((void)parse_json(nested(cap, "[", "]")));
    EXPECT_NO_THROW((void)parse_json(nested(cap, "{\"a\":", "}")));
    EXPECT_THROW((void)parse_json(nested(cap + 1, "[", "]")),
                 std::runtime_error);
    EXPECT_THROW((void)parse_json(nested(cap + 1, "{\"a\":", "}")),
                 std::runtime_error);
    EXPECT_THROW((void)parse_json(std::string(200000, '[')),
                 std::runtime_error);
}

TEST(Protocol, RejectsHostileLines) {
    // 200 000 nested '[' once overflowed the stack; it is a typed error now.
    EXPECT_THROW((void)parse_client_command(std::string(200000, '[')),
                 std::runtime_error);
    const std::string submit =
        "{\"op\":\"submit\",\"kind\":\"gadget_tvla\",\"gadget\":\"trichina\","
        "\"noise_sigma\":";
    EXPECT_EQ(parse_client_command(submit + "0.5}").request->noise_sigma, 0.5);
    // A number prefix ("1" of "1-2") is not a number.
    for (const char* bad : {"1-2", "1e", "1.2.3"}) {
        SCOPED_TRACE(bad);
        EXPECT_THROW((void)parse_client_command(submit + bad + "}"),
                     std::runtime_error);
    }
}

TEST(Protocol, HistoryEncoderRoundTripsThroughTheJsonReader) {
    obs::LedgerEntry entry;
    entry.source = "service";
    entry.campaign = "gadget_tvla";
    entry.status = "completed";
    entry.revision = "cafe";
    entry.host = "rig";
    entry.utc = "2026-08-09T12:00:00Z";
    entry.wall_seconds = 1.25;
    entry.max_abs_t1 = 3.5;
    entry.toggles = 0xFFFFFFFFFFFFFFFFull;

    const JsonValue reply =
        parse_json(encode_history("ab12", {entry, entry}));
    EXPECT_EQ(reply.find("event")->string, "history");
    EXPECT_EQ(reply.find("fingerprint")->string, "ab12");
    const JsonValue* entries = reply.find("entries");
    ASSERT_NE(entries, nullptr);
    ASSERT_EQ(entries->array.size(), 2u);
    EXPECT_EQ(entries->array[0].find("status")->string, "completed");
    EXPECT_EQ(entries->array[0].find("revision")->string, "cafe");
    EXPECT_EQ(entries->array[0].find("wall_seconds")->as_number(), 1.25);
    EXPECT_EQ(entries->array[0].find("toggles")->unsigned_value,
              0xFFFFFFFFFFFFFFFFull);

    const JsonValue empty =
        parse_json(encode_history("ab12", {}));
    ASSERT_NE(empty.find("entries"), nullptr);
    EXPECT_TRUE(empty.find("entries")->array.empty());
}

TEST(Protocol, EventEncodersRoundTripThroughTheJsonReader) {
    const JsonValue accepted =
        parse_json(encode_accepted(5, "deadbeef"));
    EXPECT_EQ(accepted.find("event")->string, "accepted");
    EXPECT_EQ(accepted.find("job")->unsigned_value, 5u);
    EXPECT_EQ(accepted.find("fingerprint")->string, "deadbeef");

    EXPECT_EQ(parse_json(encode_overloaded()).find("event")->string,
              "overloaded");
    EXPECT_EQ(
        parse_json(encode_rejected("bad \"quoted\" reason"))
            .find("reason")
            ->string,
        "bad \"quoted\" reason");

    telemetry::ProgressUpdate update;
    update.completed_traces = 100;
    update.total_traces = 400;
    update.traces_per_sec = 123.5;
    update.eta_sec = 2.43;
    const JsonValue progress =
        parse_json(encode_progress(9, update));
    EXPECT_EQ(progress.find("event")->string, "progress");
    EXPECT_EQ(progress.find("completed")->unsigned_value, 100u);
    EXPECT_EQ(progress.find("total")->unsigned_value, 400u);
    EXPECT_EQ(progress.find("traces_per_sec")->as_number(), 123.5);

    JobStatus completed;
    completed.id = 3;
    completed.state = JobState::Completed;
    completed.request = small_gadget_request(1);
    completed.outcome.total_traces = 256;
    completed.outcome.completed_traces = 256;
    completed.outcome.metrics = {{"max_abs_t_order1", 12.25},
                                 {"leaks_first_order", 1.0}};
    const JsonValue result = parse_json(encode_result(completed));
    EXPECT_EQ(result.find("event")->string, "result");
    EXPECT_EQ(result.find("state")->string, "completed");
    EXPECT_EQ(result.find("completed_traces")->unsigned_value, 256u);
    const JsonValue* metrics = result.find("metrics");
    ASSERT_NE(metrics, nullptr);
    EXPECT_EQ(metrics->find("max_abs_t_order1")->as_number(), 12.25);

    JobStatus failed;
    failed.id = 4;
    failed.state = JobState::Failed;
    failed.error_kind = "io_failure";
    failed.error_message = "disk full";
    const JsonValue failure = parse_json(encode_status(failed));
    EXPECT_EQ(failure.find("event")->string, "status");
    EXPECT_EQ(failure.find("error_kind")->string, "io_failure");
    EXPECT_EQ(failure.find("error_message")->string, "disk full");

    CampaignService::Stats stats;
    stats.submitted = 11;
    stats.cache_hits = 4;
    stats.completed = 9;
    stats.cache_misses = 7;
    stats.queue_peak = 5;
    const JsonValue encoded = parse_json(encode_stats(stats));
    EXPECT_EQ(encoded.find("submitted")->unsigned_value, 11u);
    EXPECT_EQ(encoded.find("cache_hits")->unsigned_value, 4u);
    EXPECT_EQ(encoded.find("completed")->unsigned_value, 9u);
    EXPECT_EQ(encoded.find("cache_misses")->unsigned_value, 7u);
    EXPECT_EQ(encoded.find("queue_peak")->unsigned_value, 5u);

    // A terminal status with a span rollup carries it on the wire; a
    // non-terminal one never does.
    completed.spans = {{"execute", 1, 2500000}, {"queue_wait", 1, 1000}};
    const JsonValue traced = parse_json(encode_result(completed));
    const JsonValue* spans = traced.find("spans");
    ASSERT_NE(spans, nullptr);
    ASSERT_EQ(spans->array.size(), 2u);
    EXPECT_EQ(spans->array[0].find("name")->string, "execute");
    EXPECT_EQ(spans->array[0].find("count")->unsigned_value, 1u);
    EXPECT_EQ(spans->array[0].find("total_ns")->unsigned_value, 2500000u);
    JobStatus running = completed;
    running.state = JobState::Running;
    EXPECT_EQ(parse_json(encode_status(running)).find("spans"),
              nullptr);
}

TEST(Protocol, MetricsEncoderRoundTripsThroughTheJsonReader) {
    telemetry::Snapshot snapshot;
    snapshot.values[static_cast<std::size_t>(
        telemetry::Counter::kServiceJobs)] = 3;
    auto& wait = snapshot.histograms[static_cast<std::size_t>(
        telemetry::Histogram::kQueueWaitNanos)];
    wait.buckets[telemetry::histogram_bucket(1024)] = 2;
    wait.count = 2;
    wait.sum = 2048;
    wait.max = 1024;
    snapshot.gauges[static_cast<std::size_t>(
        telemetry::Gauge::kServiceQueueDepth)] = 4;

    CampaignService::MetricsInfo info;
    info.stats.queued_now = 4;
    info.stats.running_now = 1;
    info.stats.queue_peak = 6;
    info.cache_entries = 12;
    info.cache_hit_rate = 0.25;
    info.spool_bytes = 4096;

    const JsonValue doc =
        parse_json(encode_metrics(snapshot, info));
    EXPECT_EQ(doc.find("event")->string, "metrics");
    const JsonValue* counters = doc.find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_EQ(counters->find("service.jobs")->unsigned_value, 3u);
    const JsonValue* histograms = doc.find("histograms");
    ASSERT_NE(histograms, nullptr);
    const JsonValue* wait_out =
        histograms->find("service.queue_wait_nanos");
    ASSERT_NE(wait_out, nullptr);
    EXPECT_EQ(wait_out->find("count")->unsigned_value, 2u);
    EXPECT_EQ(wait_out->find("sum")->unsigned_value, 2048u);
    EXPECT_EQ(wait_out->find("max")->unsigned_value, 1024u);
    const JsonValue* buckets = wait_out->find("buckets");
    ASSERT_NE(buckets, nullptr);
    ASSERT_EQ(buckets->array.size(), 1u);  // sparse: only occupied buckets
    ASSERT_EQ(buckets->array[0].array.size(), 2u);
    EXPECT_EQ(buckets->array[0].array[0].unsigned_value, 1024u);  // floor
    EXPECT_EQ(buckets->array[0].array[1].unsigned_value, 2u);
    const JsonValue* gauges = doc.find("gauges");
    ASSERT_NE(gauges, nullptr);
    EXPECT_EQ(gauges->find("service.queue_depth")->unsigned_value, 4u);
    const JsonValue* svc = doc.find("service");
    ASSERT_NE(svc, nullptr);
    EXPECT_EQ(svc->find("queue_depth")->unsigned_value, 4u);
    EXPECT_EQ(svc->find("running")->unsigned_value, 1u);
    EXPECT_EQ(svc->find("queue_peak")->unsigned_value, 6u);
    EXPECT_EQ(svc->find("cache_entries")->unsigned_value, 12u);
    EXPECT_EQ(svc->find("cache_hit_rate")->as_number(), 0.25);
    EXPECT_EQ(svc->find("spool_bytes")->unsigned_value, 4096u);
}

// ----- socket transport ----------------------------------------------------

/// A blocking client of the server at `path` whose reads and writes give
/// up after 5 s, so a server that never answers fails the test instead of
/// hanging it; -1 when the connect fails.
int connect_client(const std::string& path) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    const timeval timeout{5, 0};
    (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
        0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

TEST(SocketServerTest, DropsAnOverlongLineAndServesOtherClients) {
    SocketServerConfig config;
    config.socket_path = ::testing::TempDir() + "glitchmask_framing_" +
                         std::to_string(::getpid()) + ".sock";
    config.poll_interval_ms = 20;
    SocketServer server(config);
    std::atomic<int> disconnects{0};
    server.set_line_handler(
        [&server](SocketServer::ClientId id, const std::string& line) {
            server.send(id, "echo " + line + "\n", /*droppable=*/false);
        });
    server.set_disconnect_handler(
        [&disconnects](SocketServer::ClientId) { ++disconnects; });
    server.listen();
    std::thread loop([&server] { server.run(); });

    const int served = connect_client(config.socket_path);
    const int flood = connect_client(config.socket_path);
    ASSERT_GE(served, 0);
    ASSERT_GE(flood, 0);

    // 2 MiB without a newline.  The server closes the connection once the
    // pending line passes kMaxLineBytes, so the writes fail before the end.
    const std::string chunk(64 * 1024, 'x');
    std::size_t sent = 0;
    while (sent < 2 * kMaxLineBytes) {
        const ssize_t n =
            ::send(flood, chunk.data(), chunk.size(), MSG_NOSIGNAL);
        if (n <= 0) break;
        sent += static_cast<std::size_t>(n);
    }
    EXPECT_LT(sent, 2 * kMaxLineBytes);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (disconnects.load() == 0 && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(disconnects.load(), 1);
    ::close(flood);

    const std::string ping = "ping\n";
    ASSERT_EQ(::send(served, ping.data(), ping.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(ping.size()));
    std::string reply;
    char buffer[64];
    while (reply.find('\n') == std::string::npos) {
        const ssize_t n = ::recv(served, buffer, sizeof buffer, 0);
        if (n <= 0) break;
        reply.append(buffer, static_cast<std::size_t>(n));
    }
    EXPECT_EQ(reply, "echo ping\n");
    ::close(served);

    server.stop();
    loop.join();
}

// ----- scheduler behaviour -----------------------------------------------

TEST_F(ServiceTest, CompletesCachesAndDedupesAcrossBackendKnobs) {
    const CampaignRequest request = small_gadget_request(100);
    const CampaignOutcome reference = reference_outcome(request);

    CampaignService svc(service_config(2));
    const auto submitted = svc.submit(request);
    ASSERT_EQ(submitted.kind, CampaignService::SubmitResult::Kind::Accepted);

    const std::optional<JobStatus> done = svc.wait(submitted.job_id);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->state, JobState::Completed);
    EXPECT_FALSE(done->cached);
    EXPECT_EQ(done->outcome.completed_traces, request.traces);
    EXPECT_FALSE(done->outcome.cancelled);
    expect_same_metrics(done->outcome, reference);

    // Identical resubmit: answered from the cache, no second simulation.
    const auto resubmitted = svc.submit(request);
    const std::optional<JobStatus> cached = svc.wait(resubmitted.job_id);
    ASSERT_TRUE(cached.has_value());
    EXPECT_EQ(cached->state, JobState::Completed);
    EXPECT_TRUE(cached->cached);
    expect_same_metrics(cached->outcome, reference);

    // workers/lanes change the execution plan, not the campaign identity:
    // the determinism proof makes the cached result answer this too.
    CampaignRequest other_backend = request;
    other_backend.workers = 1;
    other_backend.lanes = 1;
    const auto cross = svc.submit(other_backend);
    const std::optional<JobStatus> cross_hit = svc.wait(cross.job_id);
    ASSERT_TRUE(cross_hit.has_value());
    EXPECT_TRUE(cross_hit->cached);
    expect_same_metrics(cross_hit->outcome, reference);

    const CampaignService::Stats stats = svc.stats();
    EXPECT_EQ(stats.submitted, 3u);
    EXPECT_EQ(stats.executed, 1u);
    EXPECT_EQ(stats.cache_hits, 2u);
    svc.shutdown(/*cancel_running=*/false);
}

TEST_F(ServiceTest, CoalescesIdenticalInFlightSubmissions) {
    // One executor, held busy by a stalled filler job, so the identical
    // pair is provably in flight together.
    fault::install(
        fault::parse_fault_plan("service.worker=stall@ms=300,count=1"));
    CampaignService svc(service_config(1));

    const auto filler = svc.submit(small_gadget_request(110));
    ASSERT_EQ(filler.kind, CampaignService::SubmitResult::Kind::Accepted);

    const CampaignRequest request = small_gadget_request(111);
    const auto primary = svc.submit(request);
    const auto follower = svc.submit(request);
    ASSERT_EQ(primary.kind, CampaignService::SubmitResult::Kind::Accepted);
    ASSERT_EQ(follower.kind, CampaignService::SubmitResult::Kind::Accepted);

    const std::optional<JobStatus> first = svc.wait(primary.job_id);
    const std::optional<JobStatus> second = svc.wait(follower.job_id);
    ASSERT_TRUE(first.has_value() && second.has_value());
    EXPECT_EQ(first->state, JobState::Completed);
    EXPECT_EQ(second->state, JobState::Completed);
    EXPECT_FALSE(first->coalesced);
    EXPECT_TRUE(second->coalesced);
    expect_same_metrics(second->outcome, first->outcome);

    const CampaignService::Stats stats = svc.stats();
    EXPECT_EQ(stats.executed, 2u);  // filler + primary; follower rode along
    EXPECT_EQ(stats.coalesced, 1u);
    svc.shutdown(false);
}

TEST_F(ServiceTest, OverloadIsAnExplicitRejection) {
    fault::install(
        fault::parse_fault_plan("service.worker=stall@ms=800,count=1"));
    ServiceConfig config = service_config(1);
    config.queue_capacity = 1;
    CampaignService svc(config);

    const auto running = svc.submit(small_gadget_request(120));
    ASSERT_EQ(running.kind, CampaignService::SubmitResult::Kind::Accepted);
    ASSERT_TRUE(wait_until([&] { return svc.stats().running_now == 1; }));

    const auto queued = svc.submit(small_gadget_request(121));
    EXPECT_EQ(queued.kind, CampaignService::SubmitResult::Kind::Accepted);

    const auto rejected = svc.submit(small_gadget_request(122));
    EXPECT_EQ(rejected.kind, CampaignService::SubmitResult::Kind::Overloaded);
    EXPECT_EQ(svc.stats().rejected_overloaded, 1u);

    svc.wait_idle();
    EXPECT_EQ(svc.stats().executed, 2u);
    svc.shutdown(false);
}

TEST_F(ServiceTest, LedgerRecordsExecutedJobsButNotCacheHits) {
    const std::string ledger =
        ::testing::TempDir() + "glitchmask_service_ledger.ndjson";
    std::remove(ledger.c_str());
    ServiceConfig config = service_config(1);
    config.ledger_path = ledger;
    CampaignService svc(config);

    const CampaignRequest request = small_gadget_request(150);
    const auto first = svc.submit(request);
    ASSERT_EQ(first.kind, CampaignService::SubmitResult::Kind::Accepted);
    svc.wait_idle();
    const auto second = svc.submit(request);  // cache hit: no new entry
    ASSERT_EQ(second.kind, CampaignService::SubmitResult::Kind::Accepted);
    svc.wait_idle();
    svc.shutdown(false);

    const obs::LedgerFile file = obs::read_ledger(ledger);
    EXPECT_EQ(file.corrupt_lines, 0u);
    ASSERT_EQ(file.entries.size(), 1u);
    const obs::LedgerEntry& entry = file.entries[0];
    EXPECT_EQ(entry.source, "service");
    EXPECT_EQ(entry.campaign, "gadget_tvla");
    EXPECT_EQ(entry.status, "completed");
    EXPECT_EQ(obs::fingerprint_key(entry.fingerprint),
              fingerprint_hex(request_fingerprint(request)));
    EXPECT_GT(entry.wall_seconds, 0.0);
    // The driver's headline number must have landed in the leakage field
    // the diff layer compares bit-exactly.
    const CampaignOutcome reference = reference_outcome(request);
    double expected_t1 = 0.0;
    for (const auto& [name, value] : reference.metrics)
        if (name == "max_abs_t_order1") expected_t1 = value;
    EXPECT_EQ(entry.max_abs_t1, expected_t1);
}

// The daemon's ledger append and a direct run's report build the record
// by one rule: same fingerprint, same leakage facts, toggles included.
TEST_F(ServiceTest, DaemonRecordAgreesWithTheDirectRunsReport) {
    const std::string ledger =
        ::testing::TempDir() + "glitchmask_service_des_ledger.ndjson";
    const std::string report_path =
        ::testing::TempDir() + "glitchmask_service_des.report.json";
    std::remove(ledger.c_str());
    CampaignRequest request = default_request(CampaignKind::DesTvla);
    request.traces = 32;
    request.block_size = 16;
    request.workers = 1;

    ServiceConfig config = service_config(1);
    config.ledger_path = ledger;
    CampaignService svc(config);
    ASSERT_EQ(svc.submit(request).kind,
              CampaignService::SubmitResult::Kind::Accepted);
    svc.wait_idle();
    svc.shutdown(false);

    eval::CampaignRunOptions run;
    run.report_path = report_path;
    (void)run_campaign_request(request, std::move(run));
    const std::optional<eval::RunReport> report =
        eval::read_run_report(report_path);
    std::remove(report_path.c_str());
    ASSERT_TRUE(report.has_value());
    const obs::LedgerFile file = obs::read_ledger(ledger);
    std::remove(ledger.c_str());
    ASSERT_EQ(file.entries.size(), 1u);

    const obs::LedgerEntry& daemon = file.entries[0];
    const eval::LedgerEntry& direct = report->entry;
    EXPECT_EQ(daemon.source, "service");
    EXPECT_EQ(direct.source, "run_report");
    EXPECT_EQ(daemon.fingerprint, direct.fingerprint);
    EXPECT_EQ(daemon.max_abs_t1, direct.max_abs_t1);
    EXPECT_GT(direct.toggles, 0u);
    EXPECT_EQ(daemon.toggles, direct.toggles);
}

TEST_F(ServiceTest, HigherPriorityJumpsTheQueue) {
    fault::install(
        fault::parse_fault_plan("service.worker=stall@ms=400,count=1"));
    CampaignService svc(service_config(1));

    std::mutex order_mutex;
    std::vector<std::uint64_t> completion_order;
    svc.set_completion_hook([&](const JobStatus& status) {
        std::lock_guard<std::mutex> lock(order_mutex);
        completion_order.push_back(status.id);
    });

    const auto filler = svc.submit(small_gadget_request(130));
    ASSERT_TRUE(wait_until([&] { return svc.stats().running_now == 1; }));

    CampaignRequest low = small_gadget_request(131);
    low.priority = 0;
    CampaignRequest high = small_gadget_request(132);
    high.priority = 7;
    const auto low_id = svc.submit(low).job_id;
    const auto high_id = svc.submit(high).job_id;

    svc.wait_idle();
    std::lock_guard<std::mutex> lock(order_mutex);
    ASSERT_EQ(completion_order.size(), 3u);
    EXPECT_EQ(completion_order[0], filler.job_id);
    EXPECT_EQ(completion_order[1], high_id);
    EXPECT_EQ(completion_order[2], low_id);
    svc.shutdown(false);
}

TEST_F(ServiceTest, QueuedJobsCancelImmediately) {
    fault::install(
        fault::parse_fault_plan("service.worker=stall@ms=400,count=1"));
    CampaignService svc(service_config(1));

    (void)svc.submit(small_gadget_request(140));
    ASSERT_TRUE(wait_until([&] { return svc.stats().running_now == 1; }));
    const auto queued = svc.submit(small_gadget_request(141));

    EXPECT_TRUE(svc.cancel(queued.job_id));
    const std::optional<JobStatus> cancelled = svc.status(queued.job_id);
    ASSERT_TRUE(cancelled.has_value());
    EXPECT_EQ(cancelled->state, JobState::Cancelled);

    EXPECT_FALSE(svc.cancel(queued.job_id));  // already terminal
    EXPECT_FALSE(svc.cancel(99999));          // unknown id

    svc.wait_idle();
    EXPECT_EQ(svc.stats().cancelled, 1u);
    EXPECT_EQ(svc.stats().executed, 1u);
    svc.shutdown(false);
}

TEST_F(ServiceTest, CancellingAQueuedPrimaryPromotesItsFollowers) {
    // One executor held by a stalled filler, so three identical submits
    // stack up: one queued primary plus two coalesced followers.
    // Cancelling the primary must not strand the followers -- the first
    // is promoted to a real queued job and the rest ride on it.
    fault::install(
        fault::parse_fault_plan("service.worker=stall@ms=400,count=1"));
    CampaignService svc(service_config(1));

    (void)svc.submit(small_gadget_request(145));
    ASSERT_TRUE(wait_until([&] { return svc.stats().running_now == 1; }));

    const CampaignRequest request = small_gadget_request(146);
    const auto primary = svc.submit(request);
    const auto follower = svc.submit(request);
    const auto rider = svc.submit(request);
    ASSERT_EQ(primary.kind, CampaignService::SubmitResult::Kind::Accepted);
    ASSERT_EQ(follower.kind, CampaignService::SubmitResult::Kind::Accepted);
    ASSERT_EQ(rider.kind, CampaignService::SubmitResult::Kind::Accepted);

    EXPECT_TRUE(svc.cancel(primary.job_id));
    const std::optional<JobStatus> cancelled = svc.status(primary.job_id);
    ASSERT_TRUE(cancelled.has_value());
    EXPECT_EQ(cancelled->state, JobState::Cancelled);

    // The promoted heir runs for real; the remaining follower rides it.
    const std::optional<JobStatus> heir = svc.wait(follower.job_id);
    const std::optional<JobStatus> rode = svc.wait(rider.job_id);
    ASSERT_TRUE(heir.has_value() && rode.has_value());
    EXPECT_EQ(heir->state, JobState::Completed);
    EXPECT_FALSE(heir->coalesced);
    EXPECT_EQ(rode->state, JobState::Completed);
    EXPECT_TRUE(rode->coalesced);
    expect_same_metrics(rode->outcome, heir->outcome);

    EXPECT_EQ(svc.stats().executed, 2u);  // filler + promoted heir
    EXPECT_EQ(svc.stats().cancelled, 1u);
    EXPECT_EQ(svc.stats().coalesced, 1u);
    svc.shutdown(false);
}

TEST_F(ServiceTest, TerminalJobHistoryIsBounded) {
    ServiceConfig config = service_config(1);
    config.history_capacity = 2;
    CampaignService svc(config);

    std::vector<std::uint64_t> ids;
    for (std::uint64_t seed = 160; seed < 165; ++seed) {
        const auto submitted = svc.submit(small_gadget_request(seed));
        ASSERT_EQ(submitted.kind,
                  CampaignService::SubmitResult::Kind::Accepted);
        const std::optional<JobStatus> done = svc.wait(submitted.job_id);
        ASSERT_TRUE(done.has_value());
        EXPECT_EQ(done->state, JobState::Completed);
        EXPECT_EQ(done->fingerprint_key,
                  fingerprint_hex(request_fingerprint(
                      small_gadget_request(seed))));
        ids.push_back(submitted.job_id);
    }

    // Only the newest history_capacity terminal jobs stay queryable; the
    // older ones age out (their results persist in the result cache).
    EXPECT_FALSE(svc.status(ids[0]).has_value());
    EXPECT_FALSE(svc.status(ids[1]).has_value());
    EXPECT_FALSE(svc.status(ids[2]).has_value());
    EXPECT_TRUE(svc.status(ids[3]).has_value());
    EXPECT_TRUE(svc.status(ids[4]).has_value());

    // An evicted job's campaign still answers from the cache.
    const auto resubmitted = svc.submit(small_gadget_request(160));
    const std::optional<JobStatus> cached = svc.wait(resubmitted.job_id);
    ASSERT_TRUE(cached.has_value());
    EXPECT_TRUE(cached->cached);
    svc.shutdown(false);
}

TEST_F(ServiceTest, CancelledRunLeavesResumableSpoolAndResumesExactly) {
    const CampaignRequest request = small_gadget_request(150, 8192);
    const CampaignOutcome reference = reference_outcome(request);
    const std::string spool = make_temp_dir("svc_spool_cancel");
    const std::string snapshot =
        spool + "/" + fingerprint_hex(request_fingerprint(request)) +
        ".gmsnap";
    std::remove(snapshot.c_str());

    CampaignService svc(service_config(1, spool));
    const auto submitted = svc.submit(request);

    // Cancel once the first spool checkpoint lands, well before the 8192
    // traces are done.
    ASSERT_TRUE(wait_until([&] { return spool_file_exists(snapshot); }));
    ASSERT_TRUE(svc.cancel(submitted.job_id));

    const std::optional<JobStatus> cancelled = svc.wait(submitted.job_id);
    ASSERT_TRUE(cancelled.has_value());
    EXPECT_EQ(cancelled->state, JobState::Cancelled);
    EXPECT_TRUE(cancelled->outcome.cancelled);
    EXPECT_LT(cancelled->outcome.completed_traces, request.traces);
    EXPECT_TRUE(spool_file_exists(snapshot)) << "spool must stay resumable";

    // The resubmission resumes from the spool frontier and finishes
    // bit-identical to the never-interrupted run.
    const auto resumed = svc.submit(request);
    const std::optional<JobStatus> done = svc.wait(resumed.job_id);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->state, JobState::Completed);
    EXPECT_FALSE(done->cached);
    EXPECT_TRUE(done->outcome.resumed);
    EXPECT_EQ(done->outcome.completed_traces, request.traces);
    expect_same_metrics(done->outcome, reference);
    EXPECT_FALSE(spool_file_exists(snapshot))
        << "completed results retire their spool snapshot";
    svc.shutdown(false);
}

TEST_F(ServiceTest, WatchdogTimesOutAWedgedJobAndItStaysResumable) {
    const CampaignRequest request = small_gadget_request(160, 2048);
    const CampaignOutcome reference = reference_outcome(request);
    const std::string spool = make_temp_dir("svc_spool_watchdog");
    const std::string snapshot =
        spool + "/" + fingerprint_hex(request_fingerprint(request)) +
        ".gmsnap";
    std::remove(snapshot.c_str());

    // The first block wedges for 2.5 s; the watchdog (0.75 s, no progress
    // signal during the stall) must cancel cooperatively.
    fault::install(
        fault::parse_fault_plan("campaign.block=stall@ms=2500,count=1"));
    ServiceConfig config = service_config(1, spool);
    config.watchdog_timeout_sec = 0.75;
    CampaignService svc(config);
    const auto submitted = svc.submit(request);
    const std::optional<JobStatus> timed_out = svc.wait(submitted.job_id);
    ASSERT_TRUE(timed_out.has_value());
    EXPECT_EQ(timed_out->state, JobState::TimedOut);
    EXPECT_TRUE(timed_out->outcome.cancelled);
    EXPECT_LT(timed_out->outcome.completed_traces, request.traces);
    EXPECT_EQ(svc.stats().timed_out, 1u);

    // Unwedged resubmit completes exactly.
    fault::clear();
    const auto retry = svc.submit(request);
    const std::optional<JobStatus> done = svc.wait(retry.job_id);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->state, JobState::Completed);
    expect_same_metrics(done->outcome, reference);
    svc.shutdown(false);
}

TEST_F(ServiceTest, WorkerFaultFailsOneJobNotTheService) {
    fault::install(fault::parse_fault_plan("service.worker=oom@count=1"));
    CampaignService svc(service_config(1));

    const CampaignRequest request = small_gadget_request(180);
    const auto doomed = svc.submit(request);
    const std::optional<JobStatus> failed = svc.wait(doomed.job_id);
    ASSERT_TRUE(failed.has_value());
    EXPECT_EQ(failed->state, JobState::Failed);
    EXPECT_EQ(failed->error_kind, "error");
    EXPECT_EQ(svc.stats().failed, 1u);

    // The executor survived; the retry (fault budget spent) succeeds.
    const auto retry = svc.submit(request);
    const std::optional<JobStatus> done = svc.wait(retry.job_id);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->state, JobState::Completed);
    svc.shutdown(false);
}

TEST_F(ServiceTest, DrainPersistsUnfinishedWorkAndARestartFinishesIt) {
    const std::string spool = make_temp_dir("svc_spool_drain");
    const std::string state = ::testing::TempDir() + "glitchmask_svc_state";
    std::remove(state.c_str());
    const ServiceConfig config = service_config(1, spool, state);

    const CampaignRequest running_req = small_gadget_request(170, 4096);
    const CampaignRequest queued_req = small_gadget_request(171);

    fault::install(
        fault::parse_fault_plan("service.worker=stall@ms=600,count=1"));
    {
        CampaignService svc(config);
        (void)svc.submit(running_req);
        ASSERT_TRUE(wait_until([&] { return svc.stats().running_now == 1; }));
        (void)svc.submit(queued_req);
        // SIGTERM path: cancel the running job (it checkpoints), persist
        // both unfinished requests.
        svc.shutdown(/*cancel_running=*/true);
    }
    fault::clear();
    ASSERT_TRUE(spool_file_exists(state));

    CampaignService restarted(config);
    EXPECT_EQ(restarted.load_state(), 2u);
    EXPECT_FALSE(spool_file_exists(state))
        << "a consumed state file must not replay twice";
    restarted.wait_idle();

    const CampaignService::Stats stats = restarted.stats();
    EXPECT_EQ(stats.executed, 2u);
    EXPECT_EQ(stats.failed, 0u);

    // Both campaigns really finished: identical resubmits are cache hits.
    const auto check_a = restarted.submit(running_req);
    const auto check_b = restarted.submit(queued_req);
    EXPECT_TRUE(restarted.wait(check_a.job_id)->cached);
    EXPECT_TRUE(restarted.wait(check_b.job_id)->cached);
    restarted.shutdown(false);
}

// ----- checkpoint I/O failure taxonomy (driver level) --------------------

class CheckpointFailureTest : public ::testing::Test {
protected:
    void TearDown() override { fault::clear(); }

    static std::string snapshot_path(const std::string& name) {
        const std::string path =
            ::testing::TempDir() + "glitchmask_" + name + ".gmsnap";
        std::remove(path.c_str());
        std::remove((path + ".corrupt").c_str());
        return path;
    }

    /// Runs the campaign until >= 2 checkpoints landed, then cancels --
    /// the standard way to manufacture a valid mid-campaign snapshot.
    static CampaignOutcome run_until_checkpointed(
        const CampaignRequest& request, const std::string& path,
        CancelToken& cancel) {
        eval::CampaignRunOptions run;
        run.checkpoint_path = path;
        run.checkpoint_every = 1;
        run.cancel = &cancel;
        run.on_checkpoint = [&cancel](std::size_t blocks) {
            if (blocks >= 2) cancel.request();
        };
        return run_campaign_request(request, std::move(run));
    }
};

TEST_F(CheckpointFailureTest, UnwritableCheckpointDirIsTypedIoFailure) {
    CampaignRequest request = small_gadget_request(210, 64);
    eval::CampaignRunOptions run;
    run.checkpoint_path =
        ::testing::TempDir() + "glitchmask_no_such_dir/frontier.gmsnap";
    run.checkpoint_every = 1;
    try {
        (void)run_campaign_request(request, std::move(run));
        FAIL() << "expected CampaignError";
    } catch (const CampaignError& error) {
        EXPECT_EQ(error.kind(), CampaignErrorKind::IoFailure);
        EXPECT_EQ(error.error_number(), ENOENT);
        EXPECT_NE(std::string(error.what()).find("glitchmask_no_such_dir"),
                  std::string::npos)
            << error.what();
    }
}

TEST_F(CheckpointFailureTest, EnospcMidCampaignFailsTypedWithoutDegrade) {
    const CampaignRequest request = small_gadget_request(211, 128);
    const std::string path = snapshot_path("enospc_strict");
    // First checkpoint lands, the next fsync hits the full disk.
    fault::install(
        fault::parse_fault_plan("atomic_file.fsync=enospc@after=1"));
    eval::CampaignRunOptions run;
    run.checkpoint_path = path;
    run.checkpoint_every = 1;
    try {
        (void)run_campaign_request(request, std::move(run));
        FAIL() << "expected CampaignError";
    } catch (const CampaignError& error) {
        EXPECT_EQ(error.kind(), CampaignErrorKind::IoFailure);
        EXPECT_EQ(error.error_number(), ENOSPC);
    }
}

// The degradation flags reach the outcome from every kind's campaign
// summary, so both degradation paths are checked for all four kinds.
class CheckpointDegradationTest
    : public CheckpointFailureTest,
      public ::testing::WithParamInterface<CampaignKind> {
protected:
    /// A quick campaign of `blocks` blocks of the parameter's kind.
    static CampaignRequest small_request(std::uint64_t seed,
                                         std::size_t blocks) {
        if (GetParam() == CampaignKind::GadgetTvla)
            return small_gadget_request(seed, blocks * 16);
        CampaignRequest request = default_request(GetParam());
        request.replicas = 4;  // the sequence harness; DES kinds ignore it
        request.seed = seed;
        request.workers = 2;
        request.block_size = 16;
        // mean_power_trace always cuts blocks of 64.
        request.traces =
            blocks * (GetParam() == CampaignKind::MeanPower ? 64 : 16);
        return request;
    }

    static std::string kind_path(const std::string& name) {
        return snapshot_path(name + "_" + campaign_kind_name(GetParam()));
    }
};

TEST_P(CheckpointDegradationTest, EnospcMidCampaignDegradesToExactResult) {
    const CampaignRequest request = small_request(212, 8);
    const CampaignOutcome reference = reference_outcome(request);
    const std::string path = kind_path("enospc_degrade");

    fault::install(
        fault::parse_fault_plan("atomic_file.fsync=enospc@after=1"));
    eval::CampaignRunOptions run;
    run.checkpoint_path = path;
    run.checkpoint_every = 1;
    run.degrade_on_io_error = true;
    std::vector<std::string> degradations;
    run.on_degraded = [&](const char* what, const std::string&) {
        degradations.push_back(what);
    };
    const CampaignOutcome outcome =
        run_campaign_request(request, std::move(run));

    EXPECT_EQ(outcome.completed_traces, request.traces);
    EXPECT_FALSE(outcome.cancelled);
    EXPECT_TRUE(outcome.checkpoint_degraded);
    EXPECT_FALSE(outcome.snapshot_discarded);
    ASSERT_FALSE(degradations.empty());
    EXPECT_EQ(degradations.front(), "checkpoint_degraded");
    expect_same_metrics(outcome, reference);
}

TEST_P(CheckpointDegradationTest, TruncatedSnapshotIsTypedAndQuarantinable) {
    const CampaignRequest request = small_request(213, 16);
    const CampaignOutcome reference = reference_outcome(request);
    const std::string path = kind_path("truncated");

    CancelToken cancel;
    const CampaignOutcome partial =
        run_until_checkpointed(request, path, cancel);
    ASSERT_TRUE(partial.cancelled);
    ASSERT_TRUE(spool_file_exists(path));

    // Simulate a torn write the rename discipline should have prevented:
    // chop the snapshot mid-frame.
    const auto bytes = read_file_if_exists(path);
    ASSERT_TRUE(bytes.has_value());
    ASSERT_GT(bytes->size(), 8u);
    atomic_write_file(path, std::span<const std::uint8_t>(bytes->data(),
                                                          bytes->size() / 2));

    // Strict resume: the damage is a typed CorruptSnapshot, never a
    // partially-trusted frontier.
    {
        eval::CampaignRunOptions run;
        run.checkpoint_path = path;
        run.checkpoint_every = 1;
        try {
            (void)run_campaign_request(request, std::move(run));
            FAIL() << "expected CampaignError";
        } catch (const CampaignError& error) {
            EXPECT_EQ(error.kind(), CampaignErrorKind::CorruptSnapshot);
        }
    }

    // Degraded resume: quarantine + restart from zero, bit-identical.
    eval::CampaignRunOptions run;
    run.checkpoint_path = path;
    run.checkpoint_every = 1;
    run.discard_corrupt_snapshot = true;
    const CampaignOutcome outcome =
        run_campaign_request(request, std::move(run));
    EXPECT_TRUE(outcome.snapshot_discarded);
    EXPECT_FALSE(outcome.resumed);
    EXPECT_EQ(outcome.completed_traces, request.traces);
    EXPECT_TRUE(spool_file_exists(path + ".corrupt"))
        << "the damaged snapshot must be preserved for forensics";
    expect_same_metrics(outcome, reference);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, CheckpointDegradationTest,
    ::testing::Values(CampaignKind::SequenceTvla, CampaignKind::GadgetTvla,
                      CampaignKind::DesTvla, CampaignKind::MeanPower),
    [](const ::testing::TestParamInfo<CampaignKind>& info) {
        return std::string(campaign_kind_name(info.param));
    });

TEST_F(CheckpointFailureTest, FailedWritesNeverDamageThePreviousSnapshot) {
    const CampaignRequest request = small_gadget_request(214, 256);
    const CampaignOutcome reference = reference_outcome(request);
    const std::string path = snapshot_path("keep_previous");

    CancelToken cancel;
    (void)run_until_checkpointed(request, path, cancel);
    const auto before = read_file_if_exists(path);
    ASSERT_TRUE(before.has_value());

    // Every further checkpoint write fails; the resumed run must degrade,
    // finish exactly, and leave the old frontier byte-identical on disk.
    fault::install(fault::parse_fault_plan("atomic_file.fsync=enospc"));
    eval::CampaignRunOptions run;
    run.checkpoint_path = path;
    run.checkpoint_every = 1;
    run.degrade_on_io_error = true;
    const CampaignOutcome outcome =
        run_campaign_request(request, std::move(run));
    fault::clear();

    EXPECT_TRUE(outcome.resumed);
    EXPECT_TRUE(outcome.checkpoint_degraded);
    EXPECT_EQ(outcome.completed_traces, request.traces);
    expect_same_metrics(outcome, reference);

    const auto after = read_file_if_exists(path);
    ASSERT_TRUE(after.has_value());
    EXPECT_EQ(*after, *before);
}

// ----- chaos soak --------------------------------------------------------

// The acceptance bar for the whole robustness layer: under every seeded
// fault schedule, a campaign either completes bit-identical to the
// fault-free reference, or fails typed with a resumable path -- and the
// retry after clearing the faults always lands exactly on the reference.
TEST_F(ServiceTest, ChaosSoakEveryScheduleEndsBitIdentical) {
    const CampaignRequest request = small_gadget_request(200, 1024);
    const CampaignOutcome reference = reference_outcome(request);

    const char* schedules[] = {
        "seed=3;atomic_file.*=eintr@p=0.35",
        "seed=5;atomic_file.write=eio@every=3",
        "seed=7;atomic_file.fsync=enospc@after=2",
        "seed=11;atomic_file.payload=corrupt@every=2",
        "seed=13;service.worker=oom@count=1",
        "seed=17;atomic_file.write=eio@p=0.5;atomic_file.fsync=enospc@after=4",
    };

    int schedule_index = 0;
    for (const char* schedule : schedules) {
        SCOPED_TRACE(schedule);
        const std::string spool = make_temp_dir(
            "svc_soak_" + std::to_string(schedule_index++));
        fault::install(fault::parse_fault_plan(schedule));
        CampaignService svc(service_config(1, spool));
        const auto submitted = svc.submit(request);
        ASSERT_EQ(submitted.kind,
                  CampaignService::SubmitResult::Kind::Accepted);
        const std::optional<JobStatus> outcome = svc.wait(submitted.job_id);
        ASSERT_TRUE(outcome.has_value());

        if (outcome->state == JobState::Completed) {
            EXPECT_EQ(outcome->outcome.completed_traces, request.traces);
            expect_same_metrics(outcome->outcome, reference);
        } else {
            // Not absorbed: must be a *typed* failure, and the campaign
            // must stay recoverable.
            ASSERT_EQ(outcome->state, JobState::Failed);
            EXPECT_TRUE(outcome->error_kind == "io_failure" ||
                        outcome->error_kind == "corrupt_snapshot" ||
                        outcome->error_kind == "error")
                << outcome->error_kind;
            fault::clear();
            const auto retry = svc.submit(request);
            const std::optional<JobStatus> recovered =
                svc.wait(retry.job_id);
            ASSERT_TRUE(recovered.has_value());
            ASSERT_EQ(recovered->state, JobState::Completed);
            expect_same_metrics(recovered->outcome, reference);
        }
        fault::clear();
        svc.shutdown(false);
    }
}

// ----- observability ------------------------------------------------------

TEST_F(ServiceTest, ExtendedStatsAndMetricsInfoTrackOutcomes) {
    const telemetry::ScopedTelemetryEnable scoped;
    telemetry::reset();
    CampaignService svc(service_config(1));
    const CampaignRequest request = small_gadget_request(400);

    const auto first = svc.submit(request);
    ASSERT_EQ(first.kind, CampaignService::SubmitResult::Kind::Accepted);
    ASSERT_TRUE(svc.wait(first.job_id).has_value());
    const auto second = svc.submit(request);  // cache hit
    ASSERT_TRUE(svc.wait(second.job_id).has_value());

    const CampaignService::Stats stats = svc.stats();
    EXPECT_EQ(stats.submitted, 2u);
    EXPECT_EQ(stats.executed, 1u);
    EXPECT_EQ(stats.completed, 2u);  // executed + cached both count
    EXPECT_EQ(stats.cache_hits, 1u);
    EXPECT_EQ(stats.cache_misses, 1u);
    EXPECT_GE(stats.queue_peak, 1u);

    const CampaignService::MetricsInfo info = svc.metrics_info();
    EXPECT_EQ(info.stats.completed, 2u);
    EXPECT_EQ(info.cache_entries, 1u);
    EXPECT_EQ(info.cache_hit_rate, 0.5);
    EXPECT_EQ(info.spool_bytes, 0u);  // no spool configured

    // metrics_info refreshed the gauges, and the executed job fed the
    // service latency histograms.
    const telemetry::Snapshot snap = telemetry::snapshot();
    EXPECT_EQ(snap.gauge(telemetry::Gauge::kServiceCacheEntries), 1u);
    EXPECT_EQ(snap.gauge(telemetry::Gauge::kServiceRunningJobs), 0u);
    EXPECT_EQ(
        snap.histogram(telemetry::Histogram::kQueueWaitNanos).count, 1u);
    EXPECT_EQ(snap.histogram(telemetry::Histogram::kExecuteNanos).count, 1u);
    EXPECT_EQ(snap.histogram(telemetry::Histogram::kCacheLookupNanos).count,
              2u);
    const telemetry::HistogramSnapshot& jobs =
        snap.histogram(telemetry::Histogram::kJobTraces);
    EXPECT_EQ(jobs.count, 1u);  // cache hits do not re-observe
    EXPECT_EQ(jobs.sum, request.traces);
    svc.shutdown(false);
    telemetry::reset();
}

TEST_F(ServiceTest, TraceHistogramsAreExecutorCountInvariant) {
    // The deterministic histogram families observe trace counts -- pure
    // functions of the workload -- so the merged buckets must come out
    // bit-identical whether one executor runs the jobs back to back or
    // four run them concurrently.
    const auto run_fleet = [&](unsigned executors) {
        const telemetry::ScopedTelemetryEnable scoped;
        telemetry::reset();
        CampaignService svc(service_config(executors));
        std::vector<std::uint64_t> jobs;
        for (std::uint64_t seed = 500; seed < 503; ++seed) {
            const auto submitted =
                svc.submit(small_gadget_request(seed, 128 + 64 * seed % 256));
            EXPECT_EQ(submitted.kind,
                      CampaignService::SubmitResult::Kind::Accepted);
            jobs.push_back(submitted.job_id);
        }
        for (const std::uint64_t job : jobs)
            EXPECT_TRUE(svc.wait(job).has_value());
        const telemetry::Snapshot snap = telemetry::snapshot();
        svc.shutdown(false);
        telemetry::reset();
        return snap;
    };
    const telemetry::Snapshot one = run_fleet(1);
    const telemetry::Snapshot four = run_fleet(4);
    for (std::size_t i = 0; i < telemetry::kHistogramCount; ++i) {
        const auto histogram = static_cast<telemetry::Histogram>(i);
        if (!telemetry::histogram_deterministic(histogram)) continue;
        EXPECT_EQ(one.histogram(histogram), four.histogram(histogram))
            << telemetry::histogram_name(histogram);
    }
    // Sanity: the invariant families actually saw the three jobs.
    EXPECT_EQ(one.histogram(telemetry::Histogram::kJobTraces).count, 3u);
    EXPECT_GT(one.histogram(telemetry::Histogram::kBlockTraces).count, 0u);
}

TEST_F(ServiceTest, TerminalJobsCarrySpanRollups) {
    // Tracing off: terminal statuses still get the two-entry fallback
    // rollup (execute + queue_wait) measured from the job timestamps.
    trace::set_enabled(false);
    CampaignService svc(service_config(1));
    const auto submitted = svc.submit(small_gadget_request(600));
    const std::optional<JobStatus> done = svc.wait(submitted.job_id);
    svc.shutdown(false);
    ASSERT_TRUE(done.has_value());
    ASSERT_EQ(done->state, JobState::Completed);
    ASSERT_EQ(done->spans.size(), 2u);  // name-sorted
    EXPECT_EQ(done->spans[0].name, "execute");
    EXPECT_EQ(done->spans[0].count, 1u);
    EXPECT_GT(done->spans[0].total_ns, 0u);
    EXPECT_EQ(done->spans[1].name, "queue_wait");
    EXPECT_EQ(done->spans[1].count, 1u);
}

TEST_F(ServiceTest, TracedJobExportsAChromeTraceTree) {
    const trace::ScopedTraceEnable scoped;
    trace::reset();
    const std::string trace_dir = make_temp_dir("svc_trace");
    ServiceConfig config = service_config(1);
    config.trace_dir = trace_dir;
    CampaignService svc(config);
    const auto submitted = svc.submit(small_gadget_request(700));
    const std::optional<JobStatus> done = svc.wait(submitted.job_id);
    svc.shutdown(false);
    ASSERT_TRUE(done.has_value());
    ASSERT_EQ(done->state, JobState::Completed);

    // The in-status rollup now covers the full tree, not the fallback.
    const auto count_of = [&](const std::string& name) -> std::uint64_t {
        for (const trace::SpanSummary& span : done->spans)
            if (span.name == name) return span.count;
        return 0;
    };
    EXPECT_EQ(count_of("job"), 1u);
    EXPECT_EQ(count_of("execute"), 1u);
    EXPECT_EQ(count_of("queue_wait"), 1u);
    EXPECT_EQ(count_of("block"), 16u);  // 256 traces / block_size 16

    // And the exported file is a loadable Chrome trace whose parent links
    // form the queue_wait -> execute -> block chain under one root.
    const std::string path = trace_dir + "/job-" +
                             std::to_string(submitted.job_id) +
                             ".trace.json";
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const JsonValue doc = parse_json(buffer.str());
    const JsonValue* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    std::string root_id;
    std::string execute_id;
    for (const JsonValue& event : events->array) {
        if (event.find("name")->string == "job")
            root_id = event.find("args")->find("id")->string;
        else if (event.find("name")->string == "execute")
            execute_id = event.find("args")->find("id")->string;
    }
    ASSERT_FALSE(root_id.empty());
    ASSERT_FALSE(execute_id.empty());
    for (const JsonValue& event : events->array) {
        const std::string& name = event.find("name")->string;
        const std::string& parent =
            event.find("args")->find("parent")->string;
        if (name == "queue_wait" || name == "execute" ||
            name == "cache_lookup") {
            EXPECT_EQ(parent, root_id) << name;
        } else if (name == "block") {
            EXPECT_EQ(parent, execute_id);
        }
    }
    std::remove(path.c_str());
    trace::reset();
}

}  // namespace
}  // namespace glitchmask::service
