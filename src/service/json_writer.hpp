// Minimal JSON writer for the service protocol and state files.
//
// The daemon speaks newline-delimited JSON; eval/run_report.hpp already
// owns the matching reader (parse_json).  This writer covers exactly the
// subset the protocol emits -- objects, arrays, strings, exact u64s,
// doubles, booleans -- with no allocation beyond the output string.
// Unsigned integers are written as bare digit runs so the reader's exact
// u64 path (JsonValue::kUnsigned) round-trips seeds and fingerprint words
// losslessly; doubles use %.17g for the same reason.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "support/json.hpp"

namespace glitchmask::service {

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
    void value(double x) {
        comma();
        char buffer[40];
        std::snprintf(buffer, sizeof buffer, "%.17g", x);
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

}  // namespace glitchmask::service
