// Static analysis over availability models, run *before* any solve.
//
// The checks cover the defect classes a solver either trips over
// deep inside a factorization or — worse — silently absorbs into a
// garbage availability number:
//
//   - Tarjan-SCC structural analysis (irreducibility, unreachable
//     states, unintended absorbing states/classes, dead transitions),
//   - expression/parameter checks (undefined symbols, unused
//     parameters, guaranteed division by zero, sign-flipped or zero
//     rates, self-loops),
//   - numerical-risk warnings (stiffness ratio, near-zero rates that
//     vanish in iterative solver updates).
//
// Every finding is a structured Diagnostic (diagnostic.h) with a
// stable code; docs/lint.md catalogues all codes with examples and
// fixes.  Entry points return a LintReport instead of throwing, so
// callers decide policy (the CLI renders, the solvers throw
// LintError on errors).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "ctmc/builder.h"
#include "ctmc/ctmc.h"
#include "expr/parameter_set.h"
#include "lint/diagnostic.h"
#include "stats/sampling.h"

namespace rascal::lint {

struct LintOptions {
  // max_rate / min_rate beyond which the chain is flagged stiff
  // (availability models legitimately span ~8 orders of magnitude;
  // the default only trips on pathological inputs).
  double stiffness_warn_ratio = 1e9;
  // Rates below near_zero_rel * max_rate are numerically dead in the
  // iterative solvers' updates.
  double near_zero_rel = 1e-13;
  // Report parameters bound but never referenced by any rate
  // expression.  Off by default: shared default sets (models/params)
  // legitimately bind more symbols than one model uses; model files
  // turn it on because their parameters are file-local.
  bool warn_unused_parameters = false;
  // Reachability reference (builder convention: the first declared
  // state is the initial / all-up state).
  ctmc::StateId initial_state = 0;
};

/// 1-based position of a construct in a model file (0 = unknown).
struct SourcePosition {
  std::size_t line = 0;
  std::size_t column = 0;
};

/// Maps model constructs back to their source file, so diagnostics on
/// loaded models carry file:line:column locations.  Filled in by
/// io::parse_model; lint_model threads it into every diagnostic.
struct SourceMap {
  std::string file;
  std::map<std::string, SourcePosition> parameters;
  std::map<std::string, SourcePosition> states;
  // Position of the k-th symbolic transition (declaration order).
  std::vector<SourcePosition> transitions;
};

/// Structural (Tarjan SCC: R010-R014) and numerical-risk (R030,
/// R031) analysis of a constructed chain.  No row-sum check: Ctmc
/// derives every exit rate from its own transitions, so its rows sum
/// to zero by construction (docs/lint.md).
[[nodiscard]] LintReport lint_ctmc(const ctmc::Ctmc& chain,
                                   const LintOptions& options = {});

/// Static checks of symbolic rate expressions against parameter
/// bindings: self-loops (R003), undefined symbols (R020), unused
/// parameters (R021, when enabled), division by zero / non-finite
/// values (R022), zero rates (R024), sign-flipped rates (R025),
/// non-finite rewards (R008).
[[nodiscard]] LintReport lint_symbolic(const ctmc::SymbolicCtmc& model,
                                       const expr::ParameterSet& params,
                                       const LintOptions& options = {});

/// Uncertainty-range checks: inverted or non-finite bounds are errors,
/// degenerate (lo == hi) ranges and ranges over unbound parameters
/// are warnings (R023, R020).
[[nodiscard]] LintReport lint_ranges(
    const std::vector<stats::ParameterRange>& ranges,
    const expr::ParameterSet& params);

/// Full pipeline over a symbolic model: lint_symbolic, then — when no
/// errors block binding — bind against `params` and run lint_ctmc on
/// the result.  When `source` is given, every diagnostic is annotated
/// with its file:line:column.
[[nodiscard]] LintReport lint_model(const ctmc::SymbolicCtmc& model,
                                    const expr::ParameterSet& params,
                                    const LintOptions& options = {},
                                    const SourceMap* source = nullptr);

}  // namespace rascal::lint
