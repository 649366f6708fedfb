// Wire formats: the one copy of every text format this repo writes and
// reads back.
//
//   * JSON. json_escape() is the string escaper of every JSON writer
//     (campaign specs, sweep --json records, run manifests, journal lines);
//     parse_json() is the one reader, behind campaign specs, golden
//     baselines, telemetry JSONL rows and journal records. The grammar is
//     JSON plus the non-finite spellings printf and to_chars print (nan,
//     -nan, inf, -inf), so a poisoned metric row still parses and its field
//     can be named; callers that need finite numbers (parse_spec) refuse
//     them by key.
//   * Hex tokens. put_u64()/put_string()/... and TokenReader are the exact
//     codec of journal payloads (the RunResult codec, check_fuzz's case
//     outcomes): integers as lowercase hex, doubles as their IEEE bit
//     patterns, strings as length + hex bytes, space-separated on one line.
//   * Fnv1a, the digest behind campaign/point keys, journal crcs, fault
//     schedule digests and oracle fingerprints.
//   * parse_decimal(), the strict whole-token reader of numeric CLI values.
#pragma once

#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

namespace pi2::durable {

// ---- JSON -------------------------------------------------------------------

/// Escapes `s` for a JSON string body: quote, backslash, \n, \t and the other
/// control bytes (as \u00XX); every other byte passes through.
[[nodiscard]] std::string json_escape(const std::string& s);

/// A parsed JSON document. Object fields keep their order (and duplicates),
/// so strict key checking can point at the offending key.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  /// String value; for numbers the raw token (64-bit seeds overflow the
  /// double's 53-bit mantissa, so callers may reread the digits).
  std::string text;
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> fields;
};

/// Parses `text` as one JSON document into `out`. Returns "" on success,
/// else "<what> at offset <N>".
[[nodiscard]] std::string parse_json(const std::string& text, JsonValue& out);

// ---- hex tokens ---------------------------------------------------------------

/// Appends " <hex>" (lowercase, no leading zeros).
void put_u64(std::string& out, std::uint64_t v);
/// Two's complement through put_u64.
void put_i64(std::string& out, std::int64_t v);
/// The IEEE bit pattern as 16 hex digits: exact, no decimal rounding.
void put_double(std::string& out, double v);
/// Length, then (if non-empty) the bytes as one hex token.
void put_string(std::string& out, const std::string& s);

/// Reads one token of 1..16 lowercase hex digits; anything else is refused.
[[nodiscard]] bool parse_hex_u64(std::string_view token, std::uint64_t& v);

/// Reads what the put_* functions wrote, in order. Any structural mismatch
/// latches failed().
class TokenReader {
 public:
  explicit TokenReader(std::string_view payload) : in_(payload) {}

  /// The next whitespace-separated token, verbatim (e.g. a magic word).
  bool word(std::string& out);
  bool u64(std::uint64_t& v);
  bool i64(std::int64_t& v);
  bool real(double& v);
  bool str(std::string& out);

  [[nodiscard]] bool failed() const { return failed_; }
  /// True once every token has been consumed. Trailing bytes mean the
  /// payload is not what the writer produced (e.g. two records glued).
  [[nodiscard]] bool exhausted();

 private:
  std::string_view next();
  bool fail() {
    failed_ = true;
    return false;
  }

  std::string_view in_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

// ---- FNV-1a -------------------------------------------------------------------

/// FNV-1a 64-bit streaming hasher. Integers and doubles are mixed as their
/// in-memory bytes, so digests assume a little-endian host.
struct Fnv1a {
  std::uint64_t state = 0xcbf29ce484222325ull;
  void mix_bytes(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      state ^= bytes[i];
      state *= 0x100000001b3ull;
    }
  }
  void mix_u64(std::uint64_t v) { mix_bytes(&v, sizeof v); }
  void mix_double(double v) { mix_bytes(&v, sizeof v); }
  void mix_string(const std::string& s) {
    mix_u64(s.size());
    mix_bytes(s.data(), s.size());
  }
};

// ---- decimal CLI values -------------------------------------------------------

/// Parses the whole of `token` as a decimal number of type T: no surrounding
/// text, no sign on unsigned types, no overflow, and a floating-point value
/// must be finite. `out` is only written on success.
template <typename T>
[[nodiscard]] bool parse_decimal(std::string_view token, T& out) {
  T value{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (token.empty() || ec != std::errc{} || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return false;
  }
  out = value;
  return true;
}

}  // namespace pi2::durable
