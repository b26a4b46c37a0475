// Minimal client for the glitchmaskd campaign daemon.
//
// Sends one NDJSON request line over the daemon's Unix socket and prints
// every response line until the terminal one for that request arrives:
//
//   campaign_client /tmp/gm.sock '{"op":"submit","kind":"gadget_tvla",
//                                  "gadget":"trichina","traces":2000}'
//   campaign_client /tmp/gm.sock '{"op":"status","job":3}'
//   campaign_client /tmp/gm.sock '{"op":"stats"}'
//   campaign_client /tmp/gm.sock '{"op":"metrics"}'
//   campaign_client /tmp/gm.sock '{"op":"shutdown","drain":false}'
//
// One convenience subcommand replaces the raw JSON:
//
//   campaign_client /tmp/gm.sock history <80-hex-fingerprint>
//
// sends {"op":"history","fingerprint":...} (the daemon must run with
// --ledger) and renders the reply as a table -- one row per ledger
// entry: verdict (status), wall time, revision, utc, campaign.
//
// For a submit, the client stays connected and relays progress events
// until the result line; every other op gets exactly one reply.  With a
// trailing --follow, a submit additionally renders the result's span
// rollup (queue_wait, execute, block, sim, ...) as a one-line-per-span
// latency summary on stderr.  Exit status: 0 on a completed/answered
// request, 1 on rejection or overload, 2 on usage/connection errors.

#include <cstdio>
#include <cstring>
#include <string>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "support/json.hpp"

namespace {

bool line_ends_conversation(const std::string& line, bool is_submit,
                            int& exit_code) {
    const auto has = [&](const char* token) {
        return line.find(token) != std::string::npos;
    };
    if (has("\"event\":\"rejected\"") || has("\"event\":\"overloaded\"")) {
        exit_code = 1;
        return true;
    }
    if (is_submit) {
        if (has("\"event\":\"result\"")) {
            exit_code = has("\"state\":\"completed\"") ? 0 : 1;
            return true;
        }
        return false;  // accepted / progress: keep streaming
    }
    exit_code = 0;
    return true;  // single-reply ops are done after any event line
}

/// --follow: one line per span name from the result event's "spans"
/// rollup, on stderr so piped-stdout consumers still see pure NDJSON.
void render_span_summary(const std::string& result_line) {
    try {
        const glitchmask::JsonValue json =
            glitchmask::parse_json(result_line);
        const glitchmask::JsonValue* spans = json.find("spans");
        if (spans == nullptr || spans->array.empty()) {
            std::fprintf(stderr, "[follow] no span rollup in result\n");
            return;
        }
        for (const glitchmask::JsonValue& entry : spans->array) {
            const glitchmask::JsonValue* name = entry.find("name");
            const glitchmask::JsonValue* count = entry.find("count");
            const glitchmask::JsonValue* total = entry.find("total_ns");
            if (name == nullptr || count == nullptr || total == nullptr)
                continue;
            std::fprintf(stderr, "[follow] %-16s count=%-8llu total=%.3fms\n",
                         name->string.c_str(),
                         static_cast<unsigned long long>(
                             count->unsigned_value),
                         static_cast<double>(total->unsigned_value) * 1e-6);
        }
    } catch (const std::exception& error) {
        std::fprintf(stderr, "[follow] unparsable result line: %s\n",
                     error.what());
    }
}

/// `history` subcommand: turn the daemon's {"event":"history",...} reply
/// into a human table.  Returns 0 when the reply parsed (even with zero
/// entries -- an empty history is an answer), 1 otherwise.
int render_history_table(const std::string& reply_line) {
    try {
        const glitchmask::JsonValue json =
            glitchmask::parse_json(reply_line);
        const glitchmask::JsonValue* entries = json.find("entries");
        if (entries == nullptr ||
            entries->kind != glitchmask::JsonValue::Kind::kArray) {
            std::fprintf(stderr, "history reply has no 'entries' array\n");
            return 1;
        }
        const auto str = [](const glitchmask::JsonValue& entry,
                            const char* key) -> std::string {
            const glitchmask::JsonValue* v = entry.find(key);
            return v != nullptr ? v->string : std::string("-");
        };
        const auto num = [](const glitchmask::JsonValue& entry,
                            const char* key) -> double {
            const glitchmask::JsonValue* v = entry.find(key);
            if (v == nullptr) return 0.0;
            if (v->kind == glitchmask::JsonValue::Kind::kUnsigned)
                return static_cast<double>(v->unsigned_value);
            return v->number;
        };
        std::printf("%-4s %-10s %10s %-12s %-20s %-14s %12s\n", "#",
                    "verdict", "wall_s", "revision", "utc", "campaign",
                    "max_abs_t1");
        std::size_t row = 0;
        for (const glitchmask::JsonValue& entry : entries->array) {
            std::string revision = str(entry, "revision");
            if (revision.size() > 12) revision.resize(12);
            std::printf("%-4zu %-10s %10.3f %-12s %-20s %-14s %12.4f\n",
                        row++, str(entry, "status").c_str(),
                        num(entry, "wall_seconds"), revision.c_str(),
                        str(entry, "utc").c_str(),
                        str(entry, "campaign").c_str(),
                        num(entry, "max_abs_t1"));
        }
        if (row == 0) std::printf("(no ledger entries for fingerprint)\n");
        return 0;
    } catch (const std::exception& error) {
        std::fprintf(stderr, "unparsable history reply: %s\n", error.what());
        return 1;
    }
}

}  // namespace

int main(int argc, char** argv) {
    bool follow = false;
    bool history_mode = false;
    if (argc == 4 && std::strcmp(argv[3], "--follow") == 0) {
        follow = true;
    } else if (argc == 4 && std::strcmp(argv[2], "history") == 0) {
        history_mode = true;
    } else if (argc != 3) {
        std::fprintf(stderr,
                     "usage: %s SOCKET_PATH REQUEST_JSON [--follow]\n"
                     "       %s SOCKET_PATH history FINGERPRINT\n",
                     argv[0], argv[0]);
        return 2;
    }
    const std::string socket_path = argv[1];
    std::string request =
        history_mode ? std::string("{\"op\":\"history\",\"fingerprint\":\"") +
                           argv[3] + "\"}"
                     : std::string(argv[2]);
    if (request.empty() || request.back() != '\n') request += '\n';
    const bool is_submit =
        request.find("\"op\":\"submit\"") != std::string::npos;

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        std::perror("socket");
        return 2;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
        std::perror(("connect " + socket_path).c_str());
        ::close(fd);
        return 2;
    }

    std::size_t sent = 0;
    while (sent < request.size()) {
        const ssize_t n =
            ::write(fd, request.data() + sent, request.size() - sent);
        if (n < 0) {
            if (errno == EINTR) continue;
            std::perror("write");
            ::close(fd);
            return 2;
        }
        sent += static_cast<std::size_t>(n);
    }

    int exit_code = 1;
    std::string pending;
    std::string last_line;
    char buffer[4096];
    for (;;) {
        const ssize_t n = ::read(fd, buffer, sizeof buffer);
        if (n < 0) {
            if (errno == EINTR) continue;
            std::perror("read");
            break;
        }
        if (n == 0) break;  // daemon closed (e.g. shutdown)
        pending.append(buffer, static_cast<std::size_t>(n));
        std::size_t start = 0;
        bool done = false;
        for (;;) {
            const std::size_t newline = pending.find('\n', start);
            if (newline == std::string::npos) break;
            const std::string line = pending.substr(start, newline - start);
            start = newline + 1;
            if (!history_mode) {
                std::printf("%s\n", line.c_str());
                std::fflush(stdout);
            }
            if (line_ends_conversation(line, is_submit, exit_code)) {
                last_line = line;
                done = true;
                break;
            }
        }
        pending.erase(0, start);
        if (done) break;
    }
    ::close(fd);
    if (history_mode) {
        if (!last_line.empty() &&
            last_line.find("\"event\":\"history\"") != std::string::npos)
            return render_history_table(last_line);
        if (!last_line.empty())
            std::printf("%s\n", last_line.c_str());  // rejection line
        return 1;
    }
    if (follow && is_submit && !last_line.empty() &&
        last_line.find("\"event\":\"result\"") != std::string::npos)
        render_span_summary(last_line);
    return exit_code;
}
