// The one JSON encoder and reader behind every src/obs document.
//
// Every JSON export (metrics, federated telemetry, SLO reports, critical
// paths, Chrome trace events, flight dumps, bench artifacts, psctl's
// --json forms) escapes strings with json_escape_into and formats numbers
// with fmt_double, so a name renders the same bytes wherever it appears.
// parse_json reads any of those documents back: bench artifacts from disk
// for `psctl bench diff`, and every export in the tests.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace ps::obs {

/// Appends `s` as the body of a JSON string: `"` and `\` are backslash-
/// escaped, newline and tab become \n and \t, every other byte below 0x20
/// becomes \u00xx, and all other bytes pass through unchanged.
void json_escape_into(std::string& out, std::string_view s);

/// `%.9g`: the shortest form of our value range that survives a JSON or
/// Prometheus round trip. Every exported floating-point number uses it.
std::string fmt_double(double v);

/// Appends `sep` before every element of an object or array but the first.
inline void json_comma(std::string& out, bool& first, const char* sep = ",") {
  if (!first) out += sep;
  first = false;
}

/// A parsed JSON value: a number, string, object or array. The literals
/// true, false and null appear in no document this module writes and are
/// rejected.
struct JsonValue {
  std::variant<std::nullptr_t, double, std::string,
               std::map<std::string, JsonValue>, std::vector<JsonValue>>
      v = nullptr;

  bool is_object() const {
    return std::holds_alternative<std::map<std::string, JsonValue>>(v);
  }
  bool is_array() const {
    return std::holds_alternative<std::vector<JsonValue>>(v);
  }
  bool is_number() const { return std::holds_alternative<double>(v); }
  bool is_string() const { return std::holds_alternative<std::string>(v); }
  const std::map<std::string, JsonValue>& obj() const {
    return std::get<std::map<std::string, JsonValue>>(v);
  }
  const std::vector<JsonValue>& arr() const {
    return std::get<std::vector<JsonValue>>(v);
  }
  double num() const { return std::get<double>(v); }
  const std::string& str() const { return std::get<std::string>(v); }
  /// Object member `key`; throws when absent or not an object.
  const JsonValue& at(const std::string& key) const { return obj().at(key); }
};

/// Parses one JSON document, decoding every string escape (including
/// \uXXXX and surrogate pairs, to UTF-8). On failure returns nullopt and,
/// when `error` is non-null, a one-line reason ending in the byte offset.
std::optional<JsonValue> parse_json(const std::string& text,
                                    std::string* error);

}  // namespace ps::obs
