// The repo's one JSON writer (run reports, ledger lines, the service
// protocol and its state files) and the string escaper it shares with the
// Chrome-trace export, so every emitter writes the same bytes for the
// same text.  eval/run_report.hpp owns the matching reader (parse_json).
//
// Unsigned integers are written as bare digit runs so the reader's exact
// u64 path (JsonValue::kUnsigned) round-trips seeds and fingerprint words
// losslessly; doubles use %.17g for the same reason.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace glitchmask {

/// Appends `text` to `out` as a quoted JSON string: '"' and '\\' are
/// backslash-escaped, \n \r \t use their short escapes, and the other
/// control characters below 0x20 are written as \u00XX.  Bytes >= 0x20
/// (UTF-8 included) pass through unchanged.
inline void append_json_string(std::string& out, std::string_view text) {
    out += '"';
    for (const char c : text) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buffer[8];
                    std::snprintf(buffer, sizeof buffer, "\\u%04x",
                                  static_cast<unsigned>(c));
                    out += buffer;
                } else {
                    out += c;
                }
        }
    }
    out += '"';
}

/// Compact (single-line) writer for objects, arrays, strings, exact u64s,
/// doubles and booleans, with no allocation beyond the output string.
class JsonWriter {
public:
    void begin_object() { open('{'); }
    void end_object() { close('}'); }
    void begin_array() { open('['); }
    void end_array() { close(']'); }

    void key(std::string_view name) {
        comma();
        append_json_string(out_, name);
        out_ += ':';
        pending_value_ = true;
    }

    void value(std::string_view text) {
        comma();
        append_json_string(out_, text);
    }
    void value(const char* text) { value(std::string_view(text)); }
    void value(bool flag) {
        comma();
        out_ += flag ? "true" : "false";
    }
    void value(std::uint64_t n) {
        comma();
        char buffer[32];
        std::snprintf(buffer, sizeof buffer, "%llu",
                      static_cast<unsigned long long>(n));
        out_ += buffer;
    }
    void value(int n) {
        comma();
        char buffer[32];
        std::snprintf(buffer, sizeof buffer, "%d", n);
        out_ += buffer;
    }
    /// JSON has no NaN or Inf: non-finite values are written as 0.
    void value(double x) {
        comma();
        char buffer[40];
        std::snprintf(buffer, sizeof buffer, "%.17g",
                      std::isfinite(x) ? x : 0.0);
        out_ += buffer;
    }

    template <class T>
    void member(std::string_view name, const T& v) {
        key(name);
        value(v);
    }

    [[nodiscard]] const std::string& str() const noexcept { return out_; }
    [[nodiscard]] std::string take() { return std::move(out_); }

private:
    void open(char c) {
        comma();
        out_ += c;
        need_comma_.push_back(false);
    }
    void close(char c) {
        out_ += c;
        need_comma_.pop_back();
        if (!need_comma_.empty()) need_comma_.back() = true;
    }
    /// Inserts the separator before a sibling; a value right after key()
    /// never takes one.
    void comma() {
        if (pending_value_) {
            pending_value_ = false;
            return;
        }
        if (!need_comma_.empty()) {
            if (need_comma_.back()) out_ += ',';
            need_comma_.back() = true;
        }
    }
    std::string out_;
    std::vector<bool> need_comma_;
    bool pending_value_ = false;
};

}  // namespace glitchmask
