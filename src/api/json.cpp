#include "api/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

namespace cbtc::api::json {

jv jv::of(bool v) {
  jv j;
  j.k = kind::boolean;
  j.b = v;
  return j;
}

jv jv::of(double v) {
  if (!std::isfinite(v)) {
    throw std::invalid_argument("JSON: cannot serialize non-finite number");
  }
  jv j;
  j.k = kind::number;
  j.num = v;
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  j.raw.assign(buf, end);
  return j;
}

jv jv::of_u64(std::uint64_t v) {
  jv j;
  j.k = kind::number;
  j.num = static_cast<double>(v);
  j.raw = std::to_string(v);
  return j;
}

jv jv::of(std::string v) {
  jv j;
  j.k = kind::string;
  j.str = std::move(v);
  return j;
}

jv jv::array() {
  jv j;
  j.k = kind::array;
  return j;
}

jv jv::object() {
  jv j;
  j.k = kind::object;
  return j;
}

// ---- writer --------------------------------------------------------

namespace {

void write_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace

void write_value(std::ostream& os, const jv& v, int indent) {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  const std::string inner(static_cast<std::size_t>(indent + 1) * 2, ' ');
  switch (v.k) {
    case jv::kind::null:
      os << "null";
      return;
    case jv::kind::boolean:
      os << (v.b ? "true" : "false");
      return;
    case jv::kind::number:
      os << v.raw;
      return;
    case jv::kind::string:
      write_string(os, v.str);
      return;
    case jv::kind::array: {
      if (v.items.empty()) {
        os << "[]";
        return;
      }
      // Arrays of scalars stay on one line (position pairs, windows).
      bool scalars = true;
      for (const jv& e : v.items) {
        if (e.k == jv::kind::object || e.k == jv::kind::array) scalars = false;
      }
      if (scalars) {
        os << '[';
        for (std::size_t i = 0; i < v.items.size(); ++i) {
          if (i != 0) os << ", ";
          write_value(os, v.items[i], indent);
        }
        os << ']';
        return;
      }
      os << "[\n";
      for (std::size_t i = 0; i < v.items.size(); ++i) {
        os << inner;
        write_value(os, v.items[i], indent + 1);
        if (i + 1 != v.items.size()) os << ',';
        os << '\n';
      }
      os << pad << ']';
      return;
    }
    case jv::kind::object: {
      if (v.fields.empty()) {
        os << "{}";
        return;
      }
      os << "{\n";
      for (std::size_t i = 0; i < v.fields.size(); ++i) {
        os << inner;
        write_string(os, v.fields[i].first);
        os << ": ";
        write_value(os, v.fields[i].second, indent + 1);
        if (i + 1 != v.fields.size()) os << ',';
        os << '\n';
      }
      os << pad << '}';
      return;
    }
  }
}

// ---- parser --------------------------------------------------------

namespace {

struct parser {
  std::string_view s;
  std::size_t pos{0};
  std::size_t depth{0};  // open containers around the current value

  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("JSON, offset " + std::to_string(pos) + ": " + what);
  }

  void skip_ws() {
    while (pos < s.size() &&
           (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\n' || s[pos] == '\r')) {
      ++pos;
    }
  }

  char peek() {
    skip_ws();
    if (pos >= s.size()) fail("unexpected end of input");
    return s[pos];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "', got '" + s[pos] + "'");
    ++pos;
  }

  bool consume(char c) {
    if (pos < s.size() && peek() == c) {
      ++pos;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (s.substr(pos, word.size()) == word) {
      pos += word.size();
      return true;
    }
    return false;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos < s.size() && s[pos] != '"') {
      char c = s[pos++];
      if (c == '\\') {
        if (pos >= s.size()) fail("unterminated escape");
        switch (s[pos++]) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          default: fail("unsupported escape sequence");
        }
      }
      out.push_back(c);
    }
    if (pos >= s.size()) fail("unterminated string");
    ++pos;  // closing quote
    return out;
  }

  jv parse_number() {
    const std::size_t start = pos;
    if (pos < s.size() && (s[pos] == '-' || s[pos] == '+')) ++pos;
    while (pos < s.size() && (std::isdigit(static_cast<unsigned char>(s[pos])) != 0 ||
                              s[pos] == '.' || s[pos] == 'e' || s[pos] == 'E' || s[pos] == '-' ||
                              s[pos] == '+')) {
      ++pos;
    }
    jv j;
    j.k = jv::kind::number;
    j.raw = std::string(s.substr(start, pos - start));
    const auto [end, ec] = std::from_chars(j.raw.data(), j.raw.data() + j.raw.size(), j.num);
    if (ec != std::errc{} || end != j.raw.data() + j.raw.size()) {
      pos = start;
      fail("malformed number '" + j.raw + "'");
    }
    return j;
  }

  jv parse_object() {
    jv obj = jv::object();
    ++pos;
    if (consume('}')) return obj;
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      expect(':');
      obj.fields.emplace_back(std::move(key), parse_value());
      if (consume(',')) continue;
      expect('}');
      return obj;
    }
  }

  jv parse_array() {
    jv arr = jv::array();
    ++pos;
    if (consume(']')) return arr;
    for (;;) {
      arr.items.push_back(parse_value());
      if (consume(',')) continue;
      expect(']');
      return arr;
    }
  }

  jv parse_value() {
    const char c = peek();
    if (c == '{' || c == '[') {
      // Containers recurse: cap the depth so hostile input ("[[[[...")
      // is a typed error, not a stack overflow.
      if (++depth > max_nesting_depth) {
        fail("nesting deeper than " + std::to_string(max_nesting_depth) + " levels");
      }
      jv v = c == '{' ? parse_object() : parse_array();
      --depth;
      return v;
    }
    if (c == '"') return jv::of(parse_string());
    if (c == 't') {
      if (!literal("true")) fail("expected 'true'");
      return jv::of(true);
    }
    if (c == 'f') {
      if (!literal("false")) fail("expected 'false'");
      return jv::of(false);
    }
    if (c == 'n') {
      if (!literal("null")) fail("expected 'null'");
      return jv{};
    }
    return parse_number();
  }
};

}  // namespace

jv parse_document(std::string_view text) {
  parser p{text};
  jv root = p.parse_value();
  p.skip_ws();
  if (p.pos != text.size()) p.fail("trailing content after the top-level value");
  return root;
}

// ---- object field access -------------------------------------------

const jv* get(const jv& obj, std::string_view key) {
  for (const auto& [k, v] : obj.fields) {
    if (k == key) return &v;
  }
  return nullptr;
}

void check_keys(const jv& obj, const char* where,
                std::initializer_list<std::string_view> allowed) {
  for (const auto& [k, v] : obj.fields) {
    bool known = false;
    for (const std::string_view a : allowed) {
      if (k == a) known = true;
    }
    if (!known) {
      throw std::invalid_argument(std::string("JSON: unknown key \"") + k + "\" in " + where);
    }
  }
}

void require(bool cond, const std::string& what) {
  if (!cond) throw std::invalid_argument("JSON: " + what);
}

double get_num(const jv& obj, std::string_view key, double fallback) {
  const jv* v = get(obj, key);
  if (v == nullptr) return fallback;
  require(v->k == jv::kind::number, std::string(key) + " must be a number");
  return v->num;
}

std::uint64_t get_u64(const jv& obj, std::string_view key, std::uint64_t fallback) {
  const jv* v = get(obj, key);
  if (v == nullptr) return fallback;
  require(v->k == jv::kind::number, std::string(key) + " must be a number");
  std::uint64_t out = 0;
  const auto [end, ec] = std::from_chars(v->raw.data(), v->raw.data() + v->raw.size(), out);
  if (ec != std::errc{} || end != v->raw.data() + v->raw.size()) {
    // Not a plain integer literal; accept other spellings of an exact
    // non-negative integer (e.g. 1e3) but reject fractions like 2.5
    // instead of silently truncating them.
    require(v->num >= 0.0 && v->num == std::floor(v->num),
            std::string(key) + " must be a non-negative integer");
    require(v->num < 0x1p64, std::string(key) + " does not fit in 64 bits");
    out = static_cast<std::uint64_t>(v->num);
  }
  return out;
}

std::uint32_t get_u32(const jv& obj, std::string_view key, std::uint32_t fallback) {
  const std::uint64_t out = get_u64(obj, key, fallback);
  require(out <= std::numeric_limits<std::uint32_t>::max(),
          std::string(key) + " does not fit in 32 bits");
  return static_cast<std::uint32_t>(out);
}

std::size_t get_count(const jv& obj, std::string_view key, std::size_t fallback) {
  return static_cast<std::size_t>(get_u64(obj, key, fallback));
}

bool get_bool(const jv& obj, std::string_view key, bool fallback) {
  const jv* v = get(obj, key);
  if (v == nullptr) return fallback;
  require(v->k == jv::kind::boolean, std::string(key) + " must be true or false");
  return v->b;
}

std::string get_str(const jv& obj, std::string_view key, std::string fallback) {
  const jv* v = get(obj, key);
  if (v == nullptr) return fallback;
  require(v->k == jv::kind::string, std::string(key) + " must be a string");
  return v->str;
}

}  // namespace cbtc::api::json
