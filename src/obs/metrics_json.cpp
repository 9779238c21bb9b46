#include "obs/metrics_json.hpp"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace ringstab::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace ringstab::obs

namespace ringstab::obs::json {
namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value run() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw ParseError(what, pos_);
  }

  char peek() const {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (take() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume_keyword(std::string_view kw) {
    if (text_.substr(pos_, kw.size()) != kw) return false;
    pos_ += kw.size();
    return true;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (++depth_ > kMaxNesting)
          fail("nesting deeper than " + std::to_string(kMaxNesting) +
               " levels");
        Value v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': {
        Value v;
        v.kind = Value::Kind::String;
        v.str = parse_string();
        return v;
      }
      case 't':
        if (!consume_keyword("true")) fail("bad keyword");
        return Value::boolean_v(true);
      case 'f':
        if (!consume_keyword("false")) fail("bad keyword");
        return Value::boolean_v(false);
      case 'n':
        if (!consume_keyword("null")) fail("bad keyword");
        return Value{};
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
        fail("unexpected character");
    }
  }

  Value parse_object() {
    expect('{');
    Value v = Value::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.members.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char c = take();
      if (c == '}') return v;
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
  }

  Value parse_array() {
    expect('[');
    Value v = Value::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items.push_back(parse_value());
      skip_ws();
      const char c = take();
      if (c == ']') return v;
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = take();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        fail("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = take();
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = take();
            code <<= 4;
            if (h >= '0' && h <= '9')
              code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              fail("bad \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // produced by our emitters; pass them through as-is).
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
        default: fail("bad escape character");
      }
    }
  }

  bool at_digit() const {
    return pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]));
  }

  /// One or more digits, else a ParseError naming the number part `what`.
  void digits(const char* what) {
    if (!at_digit()) fail(std::string("expected a digit in ") + what);
    while (at_digit()) ++pos_;
  }

  /// RFC 8259's number: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  Value parse_number() {
    const std::size_t begin = pos_;
    if (peek() == '-') ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '0')
      ++pos_;  // a leading zero stands alone: "01" leaves "1" trailing
    else
      digits("a number");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      digits("a fraction");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      digits("an exponent");
    }
    Value v;
    v.kind = Value::Kind::Number;
    v.number = std::string(text_.substr(begin, pos_ - begin));
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // open arrays and objects around pos_
};

void dump_into(const Value& v, std::string& out) {
  switch (v.kind) {
    case Value::Kind::Null: out += "null"; break;
    case Value::Kind::Bool: out += v.boolean ? "true" : "false"; break;
    case Value::Kind::Number: out += v.number; break;
    case Value::Kind::String:
      out += '"';
      out += json_escape(v.str);
      out += '"';
      break;
    case Value::Kind::Array:
      out += '[';
      for (std::size_t i = 0; i < v.items.size(); ++i) {
        if (i) out += ',';
        dump_into(v.items[i], out);
      }
      out += ']';
      break;
    case Value::Kind::Object:
      out += '{';
      for (std::size_t i = 0; i < v.members.size(); ++i) {
        if (i) out += ',';
        out += '"';
        out += json_escape(v.members[i].first);
        out += "\":";
        dump_into(v.members[i].second, out);
      }
      out += '}';
      break;
  }
}

}  // namespace

const Value* Value::find(std::string_view key) const {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [k, v] : members)
    if (k == key) return &v;
  return nullptr;
}

std::uint64_t Value::as_u64(std::uint64_t fallback) const {
  if (kind != Kind::Number || number.empty() || number[0] == '-')
    return fallback;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(number.c_str(), &end, 10);
  if (errno != 0 || end != number.c_str() + number.size()) return fallback;
  return static_cast<std::uint64_t>(v);
}

double Value::as_double(double fallback) const {
  if (kind != Kind::Number || number.empty()) return fallback;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(number.c_str(), &end);
  if (errno != 0 || end != number.c_str() + number.size()) return fallback;
  return v;
}

Value Value::object() {
  Value v;
  v.kind = Kind::Object;
  return v;
}

Value Value::array() {
  Value v;
  v.kind = Kind::Array;
  return v;
}

Value Value::string(std::string s) {
  Value v;
  v.kind = Kind::String;
  v.str = std::move(s);
  return v;
}

Value Value::number_u64(std::uint64_t n) {
  Value v;
  v.kind = Kind::Number;
  v.number = std::to_string(n);
  return v;
}

Value Value::number_raw(std::string digits) {
  Value v;
  v.kind = Kind::Number;
  v.number = std::move(digits);
  return v;
}

Value Value::boolean_v(bool b) {
  Value v;
  v.kind = Kind::Bool;
  v.boolean = b;
  return v;
}

Value& Value::add(std::string key, Value v) {
  members.emplace_back(std::move(key), std::move(v));
  return *this;
}

Value& Value::push(Value v) {
  items.push_back(std::move(v));
  return *this;
}

Value parse(std::string_view text) { return Parser(text).run(); }

std::string dump(const Value& v) {
  std::string out;
  dump_into(v, out);
  return out;
}

}  // namespace ringstab::obs::json
