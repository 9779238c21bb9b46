#include "analysis/diagnostic.hpp"

#include <charconv>
#include <sstream>
#include <system_error>

#include "core/fmt.hpp"
#include "core/types.hpp"
#include "obs/metrics_json.hpp"

namespace ringstab {

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::kError: return "error";
    case Severity::kWarning: return "warning";
    case Severity::kNote: return "note";
  }
  return "?";
}

std::string render_text(const std::vector<Diagnostic>& diags) {
  std::ostringstream os;
  for (const auto& d : diags) {
    if (!d.file.empty()) {
      os << d.file;
      if (d.span.valid()) os << ':' << d.span.line << ':' << d.span.column;
      os << ": ";
    } else if (d.span.valid()) {
      os << d.span.line << ':' << d.span.column << ": ";
    }
    os << severity_name(d.severity) << ": " << d.message << " [" << d.code
       << "]\n";
    if (!d.hint.empty()) os << "    hint: " << d.hint << "\n";
  }
  return os.str();
}

std::string render_json(const std::vector<Diagnostic>& diags) {
  std::ostringstream os;
  os << "{\n  \"diagnostics\": [";
  bool first = true;
  for (const auto& d : diags) {
    os << (first ? "\n" : ",\n") << "    {\"code\": \""
       << obs::json_escape(d.code) << "\", \"severity\": \""
       << severity_name(d.severity) << "\", \"message\": \""
       << obs::json_escape(d.message) << "\", \"hint\": \""
       << obs::json_escape(d.hint) << "\", \"file\": \""
       << obs::json_escape(d.file) << "\", \"line\": " << d.span.line
       << ", \"column\": " << d.span.column << "}";
    first = false;
  }
  os << (first ? "]\n}\n" : "\n  ]\n}\n");
  return os.str();
}

namespace {

namespace json = obs::json;

[[noreturn]] void fail(std::string_view msg) {
  throw ParseError(cat("diagnostics JSON: ", msg));
}

/// One entry of render_json's array: its seven members in render order.
Diagnostic read_entry(const json::Value& entry, std::size_t index) {
  const std::string where = cat("entry ", index, ": ");
  if (!entry.is_object()) fail(cat(where, "expected an object"));
  std::size_t next = 0;
  // The next member, which must be named `key`.
  const auto member = [&](std::string_view key) -> const json::Value& {
    if (next == entry.members.size())
      fail(cat(where, "missing key \"", key, "\""));
    const auto& [name, value] = entry.members[next++];
    if (name != key)
      fail(cat(where, "expected key \"", key, "\", found \"", name, "\""));
    return value;
  };
  const auto text = [&](std::string_view key) -> const std::string& {
    const json::Value& v = member(key);
    if (!v.is_string()) fail(cat(where, "\"", key, "\" must be a string"));
    return v.str;
  };
  const auto integer = [&](std::string_view key) {
    constexpr long long kLimit = 1'000'000'000;
    const json::Value& v = member(key);
    const char* end = v.number.data() + v.number.size();
    long long n = 0;
    const auto [ptr, ec] = std::from_chars(v.number.data(), end, n);
    if (!v.is_number() || ec != std::errc() || ptr != end || n < -kLimit ||
        n > kLimit)
      fail(cat(where, "\"", key, "\" must be an integer in [", -kLimit, ", ",
               kLimit, "]"));
    return static_cast<int>(n);
  };

  Diagnostic d;
  d.code = text("code");
  const std::string& severity = text("severity");
  if (severity == "error") d.severity = Severity::kError;
  else if (severity == "warning") d.severity = Severity::kWarning;
  else if (severity == "note") d.severity = Severity::kNote;
  else fail(cat(where, "unknown severity \"", severity, "\""));
  d.message = text("message");
  d.hint = text("hint");
  d.file = text("file");
  d.span.line = integer("line");
  d.span.column = integer("column");
  if (next != entry.members.size())
    fail(cat(where, "unexpected key \"", entry.members[next].first, "\""));
  return d;
}

}  // namespace

std::vector<Diagnostic> parse_diagnostics_json(std::string_view text) {
  json::Value doc;
  try {
    doc = json::parse(text);
  } catch (const json::ParseError& e) {
    fail(e.what());
  }
  const json::Value* list = doc.find("diagnostics");
  if (doc.members.size() != 1 || list == nullptr || !list->is_array())
    fail("expected an object whose one key is \"diagnostics\", an array");
  std::vector<Diagnostic> out;
  out.reserve(list->items.size());
  for (std::size_t i = 0; i < list->items.size(); ++i)
    out.push_back(read_entry(list->items[i], i));
  return out;
}

}  // namespace ringstab
