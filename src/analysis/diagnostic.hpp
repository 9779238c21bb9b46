// Structured diagnostics with stable codes, used by the lint passes
// (src/analysis/lint.hpp) and the front-ends' error reporting.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/source.hpp"

namespace ringstab {

enum class Severity { kError, kWarning, kNote };

/// "error" / "warning" / "note".
const char* severity_name(Severity s);

/// One finding. `code` is a stable RS0xx identifier (see docs/lint.md for
/// the registry); `hint` is an optional fix-it suggestion; `file`/`span` are
/// empty/invalid when the finding has no source attribution (e.g. lint over
/// a programmatically built Protocol).
struct Diagnostic {
  std::string code;
  Severity severity = Severity::kWarning;
  std::string message;
  std::string hint;
  std::string file;
  SourceSpan span;

  bool operator==(const Diagnostic&) const = default;
};

/// Compiler-style text rendering, one finding per line:
///   file:line:column: severity: message [RS0xx]
///       hint: ...
/// Location segments are omitted when absent.
std::string render_text(const std::vector<Diagnostic>& diags);

/// JSON rendering: {"diagnostics": [{"code": ..., "severity": ...,
/// "message": ..., "hint": ..., "file": ..., "line": N, "column": N}]}.
/// All keys are always present (absent location renders as "" / 0).
std::string render_json(const std::vector<Diagnostic>& diags);

/// Strict parser for render_json's output (round-trip testing and external
/// tooling): the document is read by obs::json::parse, and its shape must be
/// render_json's, with the seven keys of each entry in order, string fields,
/// integer line/column within +-10^9 and a known severity. Throws
/// ParseError on malformed input.
std::vector<Diagnostic> parse_diagnostics_json(std::string_view text);

}  // namespace ringstab
