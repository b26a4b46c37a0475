// JSON string escaping shared by every JSON writer in the repo (run
// reports, Chrome traces, the service protocol), so they all emit the
// same bytes for the same text.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

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

}  // namespace glitchmask
