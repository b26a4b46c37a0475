// The repo's one JSON writer and one JSON reader.  Run reports, ledger
// lines, the service protocol and its state files are all written with
// JsonWriter (whose string escaper the Chrome-trace export shares, so
// every emitter writes the same bytes for the same text) and read back
// with parse_json plus the kind-checked field readers below, so every
// decoder rejects a field of the wrong JSON kind the same way.
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
#include <utility>
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

// ----- reader ------------------------------------------------------------

/// Parsed JSON value.  Non-negative integer literals stay exact u64s
/// (kind Unsigned); anything with a sign, fraction or exponent becomes a
/// double (kind Number).
struct JsonValue {
    enum class Kind { kNull, kBool, kUnsigned, kNumber, kString, kArray, kObject };

    Kind kind = Kind::kNull;
    bool boolean = false;
    std::uint64_t unsigned_value = 0;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    /// Object member lookup; nullptr when absent or not an object.
    [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;
    /// Numeric view: exact for Unsigned, lossy for large doubles.
    [[nodiscard]] double as_number() const noexcept {
        return kind == Kind::kUnsigned ? static_cast<double>(unsigned_value)
                                       : number;
    }
};

/// Deepest array/object nesting parse_json accepts (reports nest 4 deep).
inline constexpr std::size_t kJsonMaxDepth = 64;

/// Parses one JSON document (object/array/scalar); throws
/// std::runtime_error with a byte offset on malformed input, on numbers
/// outside the JSON grammar or the u64/double range, and on nesting
/// deeper than kJsonMaxDepth.
[[nodiscard]] JsonValue parse_json(std::string_view text);

// ----- kind-checked field readers ----------------------------------------
//
// Each throws std::runtime_error naming `context` (the document: "run
// report", "ledger entry", ...) and the field, so a negative, fractional
// or string counter or a numeric name fails instead of reading as 0 or "".

/// `value` itself when it is of `kind` (an unsigned integer also passes
/// as a number); throws otherwise.
const JsonValue& expect_kind(const JsonValue& value, JsonValue::Kind kind,
                             std::string_view context, std::string_view field);

/// Member `key` of `object`, which must be present and of `kind`.
const JsonValue& require(const JsonValue& object, std::string_view key,
                         JsonValue::Kind kind, std::string_view context);
[[nodiscard]] std::uint64_t require_u64(const JsonValue& object,
                                        std::string_view key,
                                        std::string_view context);
[[nodiscard]] double require_number(const JsonValue& object,
                                    std::string_view key,
                                    std::string_view context);
[[nodiscard]] bool require_bool(const JsonValue& object, std::string_view key,
                                std::string_view context);
[[nodiscard]] const std::string& require_string(const JsonValue& object,
                                                std::string_view key,
                                                std::string_view context);

}  // namespace glitchmask
