// Text format for availability models, so the toolkit is usable from
// the command line (tools/rascal_cli) without writing C++.
//
// Line-based syntax ('#' starts a comment anywhere):
//
//   model  JSAS HADB node pair          # optional title
//   param  La_hadb  2/8760              # value may use earlier params
//   param  FIR      0.001
//   state  Ok           reward 1
//   state  2_Down       reward 0
//   rate   Ok 2_Down    2*La_hadb*FIR   # rest of line = expression
//
// Parameter values are expressions evaluated eagerly against the
// parameters defined above them; rate expressions stay symbolic so
// the CLI can override parameters and re-solve.
#pragma once

#include <iosfwd>
#include <set>
#include <stdexcept>
#include <string>

#include "ctmc/builder.h"
#include "expr/parameter_set.h"
#include "lint/lint.h"

namespace rascal::io {

/// Parse failure with 1-based line number and (when known) 1-based
/// column of the offending token; column 0 means "whole line".
/// Line 0 marks a file-level failure (e.g. the file cannot be
/// opened), where no position prefix makes sense.
class ModelFileError : public std::runtime_error {
 public:
  ModelFileError(const std::string& message, std::size_t line,
                 std::size_t column = 0)
      : std::runtime_error(
            line == 0
                ? message
                : "line " + std::to_string(line) +
                      (column > 0 ? ", column " + std::to_string(column) : "") +
                      ": " + message),
        line_(line),
        column_(column),
        message_(message) {}
  [[nodiscard]] std::size_t line() const noexcept { return line_; }
  [[nodiscard]] std::size_t column() const noexcept { return column_; }
  /// The bare message, without the "line L, column C: " prefix that
  /// what() carries (diagnostics render the position separately).
  [[nodiscard]] const std::string& message() const noexcept {
    return message_;
  }

 private:
  std::size_t line_;
  std::size_t column_;
  std::string message_;
};

/// An override names a parameter the model file does not declare with
/// a `param` line.  Nothing would read the value, so the solve would
/// quietly answer for the unperturbed model instead.
class UndeclaredParameterError : public std::invalid_argument {
 public:
  explicit UndeclaredParameterError(const std::string& name)
      : std::invalid_argument("the model declares no parameter '" + name +
                              "'") {}
};

struct ModelFile {
  std::string name;
  expr::ParameterSet parameters;  // defaults declared in the file
  ctmc::SymbolicCtmc model;
  // Where each param/state/rate was declared; lets the linter report
  // file:line:column locations.  `source.file` is filled by
  // load_model (streams have no path).
  lint::SourceMap source;
  // Parameters referenced by other param values or state rewards
  // ("param La La_as+La_os").  Those expressions are evaluated eagerly
  // at parse time, so the symbolic model never sees them; without this
  // record the unused-parameter check (R021) would false-positive.
  std::set<std::string> params_used_in_definitions;

  /// The file's defaults overridden by `overrides`.  Throws
  /// UndeclaredParameterError for an override the file does not
  /// declare.
  [[nodiscard]] expr::ParameterSet parameters_with(
      const expr::ParameterSet& overrides) const;

  /// Binds the symbolic model against parameters_with(overrides).
  [[nodiscard]] ctmc::Ctmc bind(
      const expr::ParameterSet& overrides = {}) const;
};

/// Parses a model from a stream.  Throws ModelFileError on syntax
/// problems (unknown directive, bad state reference, duplicate
/// parameter, missing reward, unparsable expression).  Parse only —
/// no lint; use lint_model_file or load_model for analysis.
[[nodiscard]] ModelFile parse_model(std::istream& in);

/// Parses a model from a string.
[[nodiscard]] ModelFile parse_model_text(const std::string& text);

/// Runs the full static analysis (lint::lint_model) over a parsed
/// file, with diagnostics located at file:line:column via the file's
/// SourceMap.  Unused-parameter warnings (R021) are on: file-local
/// params have no other consumer.  `overrides` participate so linting
/// matches what bind() would solve.
[[nodiscard]] lint::LintReport lint_model_file(
    const ModelFile& file, const expr::ParameterSet& overrides = {},
    const lint::LintOptions& options = {});

/// Opt-out switch for lint-on-load.
enum class LintOnLoad { kOn, kOff };

/// Loads a model from a file path.  Throws std::runtime_error when
/// the file cannot be opened, ModelFileError on parse problems, and —
/// with lint on (the default) — lint::LintError when the model has
/// error-severity diagnostics.  Warnings do not throw; use
/// lint_model_file directly to see them.
[[nodiscard]] ModelFile load_model(const std::string& path,
                                   LintOnLoad lint = LintOnLoad::kOn);

}  // namespace rascal::io
