#include "support/json.hpp"

#include <charconv>
#include <stdexcept>

namespace glitchmask {

namespace {

class Parser {
public:
    explicit Parser(std::string_view text) : text_(text) {}

    JsonValue document() {
        JsonValue value = parse_value();
        skip_ws();
        if (pos_ != text_.size()) fail("trailing characters");
        return value;
    }

private:
    [[noreturn]] void fail(const std::string& what) const {
        throw std::runtime_error("parse_json: " + what + " at byte " +
                                 std::to_string(pos_));
    }

    void skip_ws() {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char peek() {
        if (pos_ >= text_.size()) fail("unexpected end of input");
        return text_[pos_];
    }

    void expect(char c) {
        if (peek() != c) fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool consume_literal(std::string_view literal) {
        if (text_.substr(pos_, literal.size()) != literal) return false;
        pos_ += literal.size();
        return true;
    }

    JsonValue parse_value() {
        skip_ws();
        switch (peek()) {
            case '{': return parse_object();
            case '[': return parse_array();
            case '"': {
                JsonValue value;
                value.kind = JsonValue::Kind::kString;
                value.string = parse_string();
                return value;
            }
            case 't': {
                if (!consume_literal("true")) fail("bad literal");
                JsonValue value;
                value.kind = JsonValue::Kind::kBool;
                value.boolean = true;
                return value;
            }
            case 'f': {
                if (!consume_literal("false")) fail("bad literal");
                JsonValue value;
                value.kind = JsonValue::Kind::kBool;
                value.boolean = false;
                return value;
            }
            case 'n':
                if (!consume_literal("null")) fail("bad literal");
                return JsonValue{};
            default: return parse_number();
        }
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= text_.size()) fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"') return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size()) fail("unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'u': {
                    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text_[pos_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9') code |= h - '0';
                        else if (h >= 'a' && h <= 'f') code |= h - 'a' + 10;
                        else if (h >= 'A' && h <= 'F') code |= h - 'A' + 10;
                        else fail("bad \\u escape");
                    }
                    // Reports only emit \u for control chars; keep other
                    // BMP points as UTF-8.
                    if (code < 0x80) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xC0 | (code >> 6));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    } else {
                        out += static_cast<char>(0xE0 | (code >> 12));
                        out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    }
                    break;
                }
                default: fail("bad escape");
            }
        }
    }

    /// JSON number grammar, -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?,
    /// converted with the whole token consumed.
    JsonValue parse_number() {
        const std::size_t start = pos_;
        const auto digits = [&] {
            const std::size_t from = pos_;
            while (pos_ < text_.size() && text_[pos_] >= '0' &&
                   text_[pos_] <= '9')
                ++pos_;
            return pos_ - from;
        };
        const bool negative = pos_ < text_.size() && text_[pos_] == '-';
        if (negative) ++pos_;
        const std::size_t int_start = pos_;
        const std::size_t int_digits = digits();
        if (int_digits == 0) fail("bad number");
        if (int_digits > 1 && text_[int_start] == '0')
            fail("bad number (leading zero)");
        bool integral = true;
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            if (digits() == 0) fail("bad number (no digits after '.')");
            integral = false;
        }
        if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (digits() == 0) fail("bad number (no exponent digits)");
            integral = false;
        }
        const char* first = text_.data() + start;
        const char* last = text_.data() + pos_;
        JsonValue value;
        std::from_chars_result parsed;
        if (integral && !negative) {
            // Exact u64 path: fingerprint words must round-trip.
            value.kind = JsonValue::Kind::kUnsigned;
            parsed = std::from_chars(first, last, value.unsigned_value);
        } else {
            value.kind = JsonValue::Kind::kNumber;
            parsed = std::from_chars(first, last, value.number);
        }
        if (parsed.ec == std::errc::result_out_of_range)
            fail("number out of range");
        if (parsed.ec != std::errc{} || parsed.ptr != last) fail("bad number");
        return value;
    }

    /// Arrays and objects may nest at most kJsonMaxDepth deep, so hostile
    /// input cannot exhaust the stack.
    void enter() {
        if (++depth_ > kJsonMaxDepth) fail("nesting deeper than " +
                                          std::to_string(kJsonMaxDepth));
    }

    JsonValue parse_array() {
        expect('[');
        enter();
        JsonValue value;
        value.kind = JsonValue::Kind::kArray;
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            --depth_;
            return value;
        }
        for (;;) {
            value.array.push_back(parse_value());
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            --depth_;
            return value;
        }
    }

    JsonValue parse_object() {
        expect('{');
        enter();
        JsonValue value;
        value.kind = JsonValue::Kind::kObject;
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            --depth_;
            return value;
        }
        for (;;) {
            skip_ws();
            std::string key = parse_string();
            skip_ws();
            expect(':');
            value.object.emplace_back(std::move(key), parse_value());
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            --depth_;
            return value;
        }
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    std::size_t depth_ = 0;
};

using Kind = JsonValue::Kind;

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
    if (kind != Kind::kObject) return nullptr;
    for (const auto& [name, value] : object)
        if (name == key) return &value;
    return nullptr;
}

JsonValue parse_json(std::string_view text) {
    return Parser(text).document();
}

const JsonValue& expect_kind(const JsonValue& value, Kind kind,
                             std::string_view context, std::string_view field) {
    if (value.kind == kind ||
        (kind == Kind::kNumber && value.kind == Kind::kUnsigned))
        return value;
    static constexpr const char* kNames[] = {
        "null",     "a boolean", "an unsigned integer", "a number",
        "a string", "an array",  "an object"};
    throw std::runtime_error(std::string(context) + ": field '" +
                             std::string(field) + "' is not " +
                             kNames[static_cast<std::size_t>(kind)]);
}

const JsonValue& require(const JsonValue& object, std::string_view key,
                         Kind kind, std::string_view context) {
    const JsonValue* member = object.find(key);
    if (member == nullptr)
        throw std::runtime_error(std::string(context) + ": missing field '" +
                                 std::string(key) + "'");
    return expect_kind(*member, kind, context, key);
}

std::uint64_t require_u64(const JsonValue& object, std::string_view key,
                          std::string_view context) {
    return require(object, key, Kind::kUnsigned, context).unsigned_value;
}

double require_number(const JsonValue& object, std::string_view key,
                      std::string_view context) {
    return require(object, key, Kind::kNumber, context).as_number();
}

bool require_bool(const JsonValue& object, std::string_view key,
                  std::string_view context) {
    return require(object, key, Kind::kBool, context).boolean;
}

const std::string& require_string(const JsonValue& object, std::string_view key,
                                  std::string_view context) {
    return require(object, key, Kind::kString, context).string;
}

}  // namespace glitchmask
