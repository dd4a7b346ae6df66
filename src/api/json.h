// Minimal JSON document model shared by the scenario files
// (api/serialize.cpp) and the service wire format (api/wire.cpp).
//
// No external dependency: the grammar these layers need (objects,
// arrays, numbers, strings, booleans) fits in a small recursive
// descent parser, and one document tree keeps every writer and parser
// symmetric. Numbers keep their literal spelling (`raw`), so 64-bit
// integers and shortest-round-trip doubles survive a decode/encode
// cycle exactly — the wire layer's bitwise-determinism contract rests
// on that.
//
// The field helpers (`get_num`, `check_keys`, ...) implement the
// strict-parsing policy both consumers share: unknown keys and
// type-mismatched values are errors, never silently dropped.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cbtc::api::json {

struct jv {
  enum class kind { null, boolean, number, string, array, object };

  kind k{kind::null};
  bool b{false};
  double num{0.0};
  std::string raw;  // number literal as written (exact u64 round-trip)
  std::string str;
  std::vector<jv> items;
  std::vector<std::pair<std::string, jv>> fields;

  [[nodiscard]] static jv of(bool v);
  /// Throws std::invalid_argument for non-finite values (JSON has no
  /// inf/nan; writing one would produce a file every parser rejects).
  [[nodiscard]] static jv of(double v);
  [[nodiscard]] static jv of_u64(std::uint64_t v);
  [[nodiscard]] static jv of(std::string v);
  // Without this, string literals would silently decay to the bool
  // overload.
  [[nodiscard]] static jv of(const char* v) { return of(std::string(v)); }
  [[nodiscard]] static jv array();
  [[nodiscard]] static jv object();

  jv& add(std::string key, jv value) {
    fields.emplace_back(std::move(key), std::move(value));
    return *this;
  }
};

/// Pretty-prints `v` (2-space indent, scalar arrays on one line).
void write_value(std::ostream& os, const jv& v, int indent);

/// Deepest container nesting parse_document accepts. Scenario files
/// and wire frames nest under ten levels; the cap bounds the parser's
/// recursion (and the document tree's) on hostile input.
inline constexpr std::size_t max_nesting_depth = 64;

/// Parses one JSON value; throws std::invalid_argument with an
/// offset-annotated message on malformed input, trailing content, or
/// containers nested deeper than max_nesting_depth.
[[nodiscard]] jv parse_document(std::string_view text);

// ---- object field access (strict: unknown keys are errors) ---------

[[nodiscard]] const jv* get(const jv& obj, std::string_view key);

void check_keys(const jv& obj, const char* where,
                std::initializer_list<std::string_view> allowed);

/// Throws std::invalid_argument("JSON: " + what) when !cond.
void require(bool cond, const std::string& what);

[[nodiscard]] double get_num(const jv& obj, std::string_view key, double fallback);
/// Exact for plain integer literals; accepts other spellings of an
/// exact non-negative integer (e.g. 1e3) but rejects fractions.
[[nodiscard]] std::uint64_t get_u64(const jv& obj, std::string_view key, std::uint64_t fallback);
/// get_u64 that also rejects values above 2^32 - 1 instead of letting a
/// narrowing cast wrap them (node ids, region counts).
[[nodiscard]] std::uint32_t get_u32(const jv& obj, std::string_view key, std::uint32_t fallback);
[[nodiscard]] std::size_t get_count(const jv& obj, std::string_view key, std::size_t fallback);
[[nodiscard]] bool get_bool(const jv& obj, std::string_view key, bool fallback);
[[nodiscard]] std::string get_str(const jv& obj, std::string_view key, std::string fallback);

}  // namespace cbtc::api::json
