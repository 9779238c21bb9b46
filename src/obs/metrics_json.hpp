// A small self-contained JSON document model with a recursive-descent
// parser, a compact serializer and the string escaper, shared by the
// run-manifest sink (manifest.hpp), the trace/JSONL sinks (sinks.hpp), the
// serve wire codec (serve/wire.hpp), lint's diagnostics JSON
// (analysis/diagnostic.hpp) and the `ringstab-perf` regression tool.
//
// Three properties matter more than generality here:
//  * Round-trip fidelity: numbers keep their source text verbatim and
//    object members keep insertion order, so parse → dump reproduces a
//    document emitted by dump() byte for byte. The manifest schema is
//    all-integer for exactly this reason (no float re-formatting drift),
//    and tests/test_obs.cpp locks the emit → parse → re-emit loop in.
//  * Diagnosable failure: parse errors throw with a byte offset, which
//    ringstab-perf turns into its exit-code-2 schema errors. Only JSON
//    parses: a number must match RFC 8259's grammar and a string may hold
//    no raw byte below 0x20, so whatever parses dumps back as JSON.
//  * Bounded recursion: arrays and objects may nest kMaxNesting deep, and
//    deeper input is a ParseError, so a hostile wire line cannot overflow
//    a connection thread's stack. The deepest document ringstab writes
//    nests 5 levels.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ringstab::obs {

/// Escapes a JSON string body (no surrounding quotes): '"', '\\', '\n',
/// '\t' and '\r' as two-character escapes, other control bytes as
/// lowercase \u00xx, every other byte verbatim.
std::string json_escape(std::string_view s);

}  // namespace ringstab::obs

namespace ringstab::obs::json {

/// The deepest nesting of arrays and objects parse() accepts.
inline constexpr std::size_t kMaxNesting = 64;

class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& what, std::size_t offset)
      : std::runtime_error(what + " at byte " + std::to_string(offset)),
        offset_(offset) {}
  std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

struct Value {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  std::string number;  // numeric source text, kept verbatim for round-trip
  std::string str;     // decoded string payload
  std::vector<Value> items;                              // Array
  std::vector<std::pair<std::string, Value>> members;    // Object, ordered

  bool is_null() const { return kind == Kind::Null; }
  bool is_object() const { return kind == Kind::Object; }
  bool is_array() const { return kind == Kind::Array; }
  bool is_number() const { return kind == Kind::Number; }
  bool is_string() const { return kind == Kind::String; }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(std::string_view key) const;

  /// Numeric accessors; return `fallback` when not a number (or overflow).
  std::uint64_t as_u64(std::uint64_t fallback = 0) const;
  double as_double(double fallback = 0.0) const;

  // ── construction helpers (builder style, insertion-ordered) ──
  static Value object();
  static Value array();
  static Value string(std::string s);
  static Value number_u64(std::uint64_t v);
  static Value number_raw(std::string digits);
  static Value boolean_v(bool b);
  /// Appends a member (no duplicate check) and returns the object itself.
  Value& add(std::string key, Value v);
  Value& push(Value v);
};

/// Parses one JSON document; trailing non-whitespace and nesting deeper
/// than kMaxNesting are errors.
Value parse(std::string_view text);

/// Compact one-line serialization (no added whitespace); members in
/// insertion order, numbers verbatim.
std::string dump(const Value& v);

}  // namespace ringstab::obs::json
