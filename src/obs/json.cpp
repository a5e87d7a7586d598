#include "obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>

namespace ps::obs {

void json_escape_into(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (const char c : s) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else if (byte < 0x20) {
      out += "\\u00";
      out += kHex[byte >> 4];
      out += kHex[byte & 0xf];
    } else {
      out += c;
    }
  }
}

std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

namespace {

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  std::optional<JsonValue> parse(std::string* error) {
    std::optional<JsonValue> value = parse_value();
    skip_ws();
    if (!value || pos_ != text_.size()) {
      if (error != nullptr) {
        *error = error_.empty() ? "trailing content after JSON value"
                                : error_;
      }
      return std::nullopt;
    }
    return value;
  }

 private:
  void fail(const std::string& what) {
    if (error_.empty()) {
      error_ = what + " at offset " + std::to_string(pos_);
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  bool expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "'");
      return false;
    }
    ++pos_;
    return true;
  }

  std::optional<JsonValue> parse_value() {
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      auto s = parse_string();
      if (!s) return std::nullopt;
      return JsonValue{std::move(*s)};
    }
    return parse_number();
  }

  std::optional<std::string> parse_string() {
    if (!expect('"')) return std::nullopt;
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] != '\\') {
        out += text_[pos_++];
      } else if (!unescape(out)) {
        return std::nullopt;
      }
    }
    if (!expect('"')) return std::nullopt;
    return out;
  }

  /// Decodes the escape starting at the backslash at pos_ into `out`; a
  /// malformed escape fails at the backslash's offset.
  bool unescape(std::string& out) {
    const std::size_t at = pos_++;
    const char c = pos_ < text_.size() ? text_[pos_++] : '\0';
    static constexpr std::string_view kFrom = "\"\\/bfnrt";
    static constexpr std::string_view kTo = "\"\\/\b\f\n\r\t";
    if (const std::size_t i = kFrom.find(c); i != kFrom.npos) {
      out += kTo[i];
      return true;
    }
    unsigned cp = 0;
    bool ok = c == 'u' && hex4(cp);
    if (ok && cp >= 0xd800 && cp < 0xdc00) {
      // A high surrogate must be followed by an escaped low surrogate.
      unsigned low = 0;
      ok = text_.compare(pos_, 2, "\\u") == 0;
      if (ok) {
        pos_ += 2;
        ok = hex4(low) && low >= 0xdc00 && low <= 0xdfff;
      }
      cp = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
    } else if (cp >= 0xdc00 && cp <= 0xdfff) {
      ok = false;  // a low surrogate on its own
    }
    if (ok) {
      append_utf8(out, cp);
      return true;
    }
    pos_ = at;
    fail("malformed string escape");
    return false;
  }

  /// Reads exactly four hex digits at pos_ into `value`.
  bool hex4(unsigned& value) {
    if (pos_ + 4 > text_.size()) return false;
    const char* begin = text_.data() + pos_;
    pos_ += 4;
    const auto [end, ec] = std::from_chars(begin, begin + 4, value, 16);
    return ec == std::errc() && end == begin + 4;
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
      return;
    }
    // Lead byte 110xxxxx, 1110xxxx or 11110xxx, then 10xxxxxx per tail byte.
    static constexpr unsigned kLead[] = {0, 0xc0, 0xe0, 0xf0};
    const int tail = cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
    out += static_cast<char>(kLead[tail] | (cp >> (6 * tail)));
    for (int i = tail - 1; i >= 0; --i) {
      out += static_cast<char>(0x80 | ((cp >> (6 * i)) & 0x3f));
    }
  }

  std::optional<JsonValue> parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) {
      fail("expected a JSON number");
      return std::nullopt;
    }
    try {
      return JsonValue{std::stod(text_.substr(start, pos_ - start))};
    } catch (const std::exception&) {
      fail("unparsable number");
      return std::nullopt;
    }
  }

  std::optional<JsonValue> parse_object() {
    if (!expect('{')) return std::nullopt;
    std::map<std::string, JsonValue> out;
    if (peek() != '}') {
      while (true) {
        auto key = parse_string();
        if (!key || !expect(':')) return std::nullopt;
        auto value = parse_value();
        if (!value) return std::nullopt;
        out[std::move(*key)] = std::move(*value);
        if (peek() != ',') break;
        ++pos_;
      }
    }
    if (!expect('}')) return std::nullopt;
    return JsonValue{std::move(out)};
  }

  std::optional<JsonValue> parse_array() {
    if (!expect('[')) return std::nullopt;
    std::vector<JsonValue> out;
    if (peek() != ']') {
      while (true) {
        auto value = parse_value();
        if (!value) return std::nullopt;
        out.push_back(std::move(*value));
        if (peek() != ',') break;
        ++pos_;
      }
    }
    if (!expect(']')) return std::nullopt;
    return JsonValue{std::move(out)};
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::optional<JsonValue> parse_json(const std::string& text,
                                    std::string* error) {
  return JsonReader(text).parse(error);
}

}  // namespace ps::obs
