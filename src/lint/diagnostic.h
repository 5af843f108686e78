// Structured diagnostics for the model linter (see docs/lint.md for
// the catalogue of codes).
//
// A Diagnostic pinpoints one defect in a model: a stable code
// ("R010"), a severity, a human-readable message, the location of the
// offending construct (state, transition, parameter, and/or
// file:line:column for models loaded from .rasc files), and an
// optional fix hint.  A LintReport collects them; LintError is the
// diagnostics-carrying exception the fail-fast solve pipeline throws.
//
// This header is dependency-free on purpose: the ctmc solvers link it
// for fail-fast validation, so it must sit below every model layer.
#pragma once

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace rascal::lint {

// Stable diagnostic codes (catalogued in docs/lint.md).  They live
// here rather than in lint.h because the ctmc solvers emit a subset
// of them (R010, R011, R015, R032) during fail-fast validation.
// Retired codes (R001, R002, R004-R007, R009, R040-R044) are never
// reused.
namespace codes {
inline constexpr const char* kParseError = "R000";
inline constexpr const char* kSelfLoop = "R003";
inline constexpr const char* kNonFiniteReward = "R008";
inline constexpr const char* kNotIrreducible = "R010";
inline constexpr const char* kUnreachableState = "R011";
inline constexpr const char* kAbsorbingState = "R012";
inline constexpr const char* kAbsorbingClass = "R013";
inline constexpr const char* kDeadTransition = "R014";
inline constexpr const char* kTargetUnreachable = "R015";
inline constexpr const char* kUndefinedParameter = "R020";
inline constexpr const char* kUnusedParameter = "R021";
inline constexpr const char* kDivisionByZero = "R022";
inline constexpr const char* kBadRange = "R023";
inline constexpr const char* kZeroRate = "R024";
inline constexpr const char* kNegativeRateExpr = "R025";
inline constexpr const char* kStiffChain = "R030";
inline constexpr const char* kNearZeroRate = "R031";
inline constexpr const char* kHorizonInfeasible = "R032";
}  // namespace codes

enum class Severity {
  kNote,     // informational; never affects exit status
  kWarning,  // suspicious but solvable; fails under --werror
  kError,    // the model cannot be solved meaningfully
};

/// Stable lowercase name ("note", "warning", "error").
[[nodiscard]] const char* severity_name(Severity severity) noexcept;

/// Where a diagnostic points.  All fields are optional; empty string
/// / zero means "not applicable".  Lines and columns are 1-based.
struct Location {
  std::string state;      // state name
  std::string from;       // transition source state name
  std::string to;         // transition target state name
  std::string parameter;  // parameter / symbol name
  std::string file;       // model file path ("" when built in C++)
  std::size_t line = 0;
  std::size_t column = 0;

  /// Human-readable rendering, e.g. "model.rasc:12:8: transition
  /// 'Ok -> 2_Down'".  Empty when nothing is set.
  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] bool empty() const noexcept {
    return state.empty() && from.empty() && to.empty() &&
           parameter.empty() && file.empty() && line == 0;
  }
};

struct Diagnostic {
  std::string code;  // stable identifier, e.g. "R010"
  Severity severity = Severity::kWarning;
  std::string message;
  Location location;
  std::string fix_hint;  // actionable suggestion; may be empty
};

/// Ordered collection of diagnostics from one lint run.
class LintReport {
 public:
  void add(Diagnostic diagnostic);
  /// Appends every diagnostic of `other`.
  void merge(const LintReport& other);

  [[nodiscard]] const std::vector<Diagnostic>& diagnostics() const noexcept {
    return diagnostics_;
  }
  [[nodiscard]] bool empty() const noexcept { return diagnostics_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept {
    return diagnostics_.size();
  }
  [[nodiscard]] std::size_t count(Severity severity) const noexcept;
  [[nodiscard]] bool has_errors() const noexcept {
    return count(Severity::kError) > 0;
  }
  /// True when some diagnostic carries `code`.
  [[nodiscard]] bool has_code(const std::string& code) const noexcept;

  [[nodiscard]] auto begin() const noexcept { return diagnostics_.begin(); }
  [[nodiscard]] auto end() const noexcept { return diagnostics_.end(); }

 private:
  std::vector<Diagnostic> diagnostics_;
};

/// Thrown by the fail-fast solve pipeline (and lint-on-load) when a
/// model has error-severity diagnostics.  Derives from
/// std::domain_error: a structurally broken chain is an input-domain
/// violation, and callers that already handled domain_error keep
/// working.  The full report stays accessible via report().
class LintError : public std::domain_error {
 public:
  explicit LintError(LintReport report);

  [[nodiscard]] const LintReport& report() const noexcept {
    return *report_;
  }

 private:
  // shared_ptr keeps the exception nothrow-copyable.
  std::shared_ptr<const LintReport> report_;
};

}  // namespace rascal::lint
