#include "durable/wire.hpp"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace pi2::durable {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

// Hand-rolled (no dependencies): objects, arrays, strings, numbers, bools,
// null.
class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  std::string parse(JsonValue& out) {
    skip_ws();
    std::string err = parse_value(out);
    if (!err.empty()) return err;
    skip_ws();
    if (pos_ != text_.size()) return error("trailing content");
    return "";
  }

 private:
  std::string error(const std::string& what) const {
    return what + " at offset " + std::to_string(pos_);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::string parse_value(JsonValue& out) {
    if (pos_ >= text_.size()) return error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return parse_object(out);
    if (c == '[') return parse_array(out);
    if (c == '"') {
      out.type = JsonValue::Type::kString;
      return parse_string(out.text);
    }
    if (c == 't' || c == 'f') return parse_keyword(out);
    if (c == 'n' && text_.compare(pos_, 4, "null") == 0) return parse_keyword(out);
    if (c == '-' || c == 'n' || c == 'i' || (c >= '0' && c <= '9')) {
      return parse_number(out);
    }
    return error(std::string("unexpected character '") + c + "'");
  }

  std::string parse_object(JsonValue& out) {
    out.type = JsonValue::Type::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (eat('}')) return "";
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return error("expected a quoted key");
      }
      std::string key;
      std::string err = parse_string(key);
      if (!err.empty()) return err;
      skip_ws();
      if (!eat(':')) return error("expected ':' after key");
      skip_ws();
      JsonValue value;
      err = parse_value(value);
      if (!err.empty()) return err;
      out.fields.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (eat(',')) continue;
      if (eat('}')) return "";
      return error("expected ',' or '}' in object");
    }
  }

  std::string parse_array(JsonValue& out) {
    out.type = JsonValue::Type::kArray;
    ++pos_;  // '['
    skip_ws();
    if (eat(']')) return "";
    while (true) {
      skip_ws();
      JsonValue value;
      std::string err = parse_value(value);
      if (!err.empty()) return err;
      out.items.push_back(std::move(value));
      skip_ws();
      if (eat(',')) continue;
      if (eat(']')) return "";
      return error("expected ',' or ']' in array");
    }
  }

  std::string parse_string(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return "";
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char next = text_[pos_++];
      switch (next) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return error("truncated \\u escape");
          unsigned value = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = text_[pos_++];
            value <<= 4;
            if (h >= '0' && h <= '9') value |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') value |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') value |= static_cast<unsigned>(h - 'A' + 10);
            else return error("bad \\u escape");
          }
          out += static_cast<char>(value);  // BMP-ASCII subset is enough here
          break;
        }
        default:
          return error("unknown escape");
      }
    }
    return error("unterminated string");
  }

  std::string parse_number(JsonValue& out) {
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    out.type = JsonValue::Type::kNumber;
    out.number = std::strtod(start, &end);
    const std::string_view token(start, static_cast<std::size_t>(end - start));
    // strtod also reads hex floats, "infinity" and "nan(...)": the grammar
    // is decimal digits plus the four spellings printf and to_chars print.
    const bool decimal =
        token.find_first_not_of("0123456789+-.eE") == std::string_view::npos;
    if (token.empty() || (!decimal && token != "nan" && token != "-nan" &&
                          token != "inf" && token != "-inf")) {
      return error("malformed number");
    }
    out.text.assign(token);
    pos_ += token.size();
    return "";
  }

  std::string parse_keyword(JsonValue& out) {
    if (text_.compare(pos_, 4, "true") == 0) {
      out.type = JsonValue::Type::kBool;
      out.boolean = true;
      pos_ += 4;
      return "";
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out.type = JsonValue::Type::kBool;
      out.boolean = false;
      pos_ += 5;
      return "";
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      out.type = JsonValue::Type::kNull;
      pos_ += 4;
      return "";
    }
    return error("unknown keyword");
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string parse_json(const std::string& text, JsonValue& out) {
  out = JsonValue{};
  return JsonReader{text}.parse(out);
}

void put_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, " %" PRIx64, v);
  out += buf;
}

void put_i64(std::string& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

void put_double(std::string& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  char buf[24];
  std::snprintf(buf, sizeof buf, " %016" PRIx64, bits);
  out += buf;
}

void put_string(std::string& out, const std::string& s) {
  put_u64(out, s.size());
  if (s.empty()) return;
  out += ' ';
  char buf[4];
  for (const char c : s) {
    std::snprintf(buf, sizeof buf, "%02x", static_cast<unsigned char>(c));
    out += buf;
  }
}

bool parse_hex_u64(std::string_view token, std::uint64_t& v) {
  if (token.empty() || token.size() > 16) return false;
  std::uint64_t value = 0;
  for (const char c : token) {
    value <<= 4;
    if (c >= '0' && c <= '9') value |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') value |= static_cast<std::uint64_t>(c - 'a' + 10);
    else return false;
  }
  v = value;
  return true;
}

std::string_view TokenReader::next() {
  const auto space = [this] {
    return std::isspace(static_cast<unsigned char>(in_[pos_])) != 0;
  };
  while (pos_ < in_.size() && space()) ++pos_;
  const std::size_t start = pos_;
  while (pos_ < in_.size() && !space()) ++pos_;
  return in_.substr(start, pos_ - start);
}

bool TokenReader::word(std::string& out) {
  const std::string_view tok = next();
  if (tok.empty()) return fail();
  out.assign(tok);
  return true;
}

bool TokenReader::u64(std::uint64_t& v) {
  return parse_hex_u64(next(), v) || fail();
}

bool TokenReader::i64(std::int64_t& v) {
  std::uint64_t raw = 0;
  if (!u64(raw)) return false;
  v = static_cast<std::int64_t>(raw);
  return true;
}

bool TokenReader::real(double& v) {
  std::uint64_t bits = 0;
  if (!u64(bits)) return false;
  std::memcpy(&v, &bits, sizeof v);
  return true;
}

bool TokenReader::str(std::string& out) {
  std::uint64_t size = 0;
  if (!u64(size)) return false;
  if (size > (1u << 20)) return fail();  // sanity bound on string fields
  out.clear();
  if (size == 0) return true;
  const std::string_view hex = next();
  if (hex.size() != size * 2) return fail();
  out.reserve(size);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    std::uint64_t byte = 0;
    if (!parse_hex_u64(hex.substr(i, 2), byte)) return fail();
    out += static_cast<char>(byte);
  }
  return true;
}

bool TokenReader::exhausted() { return next().empty(); }

}  // namespace pi2::durable
