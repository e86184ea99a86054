#pragma once

// Minimal JSON: a value tree, a recursive-descent parser, and the one
// writer every artifact in this repository goes through (run reports,
// Chrome traces, profiles, serve reports, bench rows).  Scope is
// deliberately small — enough to build those documents as trees, to
// round-trip them, and to let tests assert their structure.
//
// Numbers keep their kind: integers (built from an integral type, or
// parsed from a token without '.', 'e' or 'E') are exact over the whole
// int64/uint64 range, so 64-bit ids and counters never round through
// double; every other number is a double, emitted with %.17g so it
// survives a dump/parse cycle exactly.

#include <concepts>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pdc::obs {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  using Member = std::pair<std::string, Json>;

  /// Implicit constructors let emitters list fields in braces:
  ///   Json::object({{"name", ev.name}, {"tid", rank}, {"ts", ts_us}})
  Json() = default;  ///< null
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(double v) : type_(Type::kNumber), number_(v) {}
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  Json(T v) : type_(Type::kNumber) {
    if constexpr (std::is_signed_v<T>) {
      if (v < 0) {
        num_ = Num::kInt;
        int_ = static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
        return;
      }
    }
    num_ = Num::kUint;
    int_ = static_cast<std::uint64_t>(v);
  }
  Json(const char* s) : type_(Type::kString), string_(s) {}
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  Json(std::string_view s) : type_(Type::kString), string_(s) {}

  static Json object(std::initializer_list<Member> members = {});
  static Json array(std::initializer_list<Json> items = {});

  static Json make_bool(bool b) { return Json(b); }
  static Json make_number(double v) { return Json(v); }
  static Json make_string(std::string s) { return Json(std::move(s)); }
  static Json make_array() { return array(); }
  static Json make_object() { return object(); }

  /// Parses a complete document; throws std::runtime_error (with offset)
  /// on malformed input or trailing garbage.
  static Json parse(std::string_view text);

  Type type() const { return type_; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }

  bool as_bool() const;
  /// Any number as a double (integers beyond 2^53 round).
  double as_number() const;
  /// Exact integer views; throw unless the number is an integer (see the
  /// header comment) in range.
  std::uint64_t as_uint() const;
  std::int64_t as_int() const;
  const std::string& as_string() const;

  /// Array access.
  const std::vector<Json>& items() const;
  std::size_t size() const;
  const Json& at(std::size_t i) const;

  /// Object access: find() returns nullptr when the key is absent; at()
  /// throws.  members() iterates the (key, value) pairs in document order.
  const Json* find(std::string_view key) const;
  const Json& at(std::string_view key) const;
  const std::vector<Member>& members() const;

  void push_back(Json v);
  /// Replaces the value of an existing key in place, else appends.
  void set(std::string key, Json v);

  /// Compact single-line text.
  std::string dump() const;
  /// Appends the compact text to `out` (streaming exporters reuse one
  /// buffer instead of concatenating per-value strings).
  void dump_to(std::string& out) const;

 private:
  enum class Num : std::uint8_t { kDouble, kInt, kUint };

  Type type_ = Type::kNull;
  Num num_ = Num::kDouble;
  bool bool_ = false;
  double number_ = 0.0;
  std::uint64_t int_ = 0;  ///< kInt: two's-complement int64; kUint: value
  std::string string_;
  std::vector<Json> array_;
  // Insertion-ordered object representation: (key, value) pairs.
  std::vector<Member> object_;
};

/// Formats a double the way every emitter in this repo does: %.17g, with
/// non-finite values mapped to null (JSON has no inf/nan).
std::string json_number(double v);

/// Writes `text` to `path`, replacing the file or, with `append`, adding
/// to its end (JSONL).  fopen, fwrite and fclose are all checked, so a
/// full disk is an error rather than a silently empty artifact; throws
/// std::runtime_error naming the path.
void write_file(const std::string& path, std::string_view text,
                bool append = false);

}  // namespace pdc::obs
