// Static analysis over availability models, run *before* any solve.
//
// The checks cover the defect classes a solver either trips over
// deep inside a factorization or — worse — silently absorbs into a
// garbage availability number:
//
//   - generator-matrix invariants (row sums ~0, sign pattern,
//     zero/duplicate/self-loop transitions),
//   - Tarjan-SCC structural analysis (irreducibility, unreachable
//     states, unintended absorbing states/classes, dead transitions),
//   - expression/parameter checks (undefined symbols, unused
//     parameters, guaranteed division by zero, sign-flipped rates),
//   - numerical-risk warnings (stiffness ratio, near-zero rates that
//     destabilize Gauss-Seidel / power iteration),
//   - hierarchical-composition checks (degenerate rewards, product
//     state-space blowup).
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
#include "ctmc/compose.h"
#include "ctmc/ctmc.h"
#include "expr/parameter_set.h"
#include "linalg/matrix.h"
#include "lint/diagnostic.h"
#include "stats/sampling.h"

namespace rascal::lint {

struct LintOptions {
  // Row-sum tolerance, relative to the largest magnitude in the row.
  double row_sum_tolerance = 1e-9;
  // max_rate / min_rate beyond which the chain is flagged stiff
  // (availability models legitimately span ~8 orders of magnitude;
  // the default only trips on pathological inputs).
  double stiffness_warn_ratio = 1e9;
  // Rates below near_zero_rel * max_rate are numerically dead in the
  // iterative solvers' updates.
  double near_zero_rel = 1e-13;
  // Product state-space size beyond which a composition is flagged.
  std::size_t compose_warn_states = 100000;
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

/// Lints raw states/transitions *before* Ctmc construction — reports
/// every violation the Ctmc constructor would reject one-at-a-time
/// (R001-R005, R008, R009), and when the raw model is constructible,
/// merges the structural/numerical analysis of lint_ctmc.
[[nodiscard]] LintReport lint_raw_model(
    const std::vector<ctmc::State>& states,
    const std::vector<ctmc::Transition>& transitions,
    const LintOptions& options = {});

/// Generator-matrix invariants on an arbitrary dense matrix: square,
/// finite, non-negative off-diagonals (R007), row sums ~0 (R006).
[[nodiscard]] LintReport lint_generator(const linalg::Matrix& q,
                                        const LintOptions& options = {});

/// Structural (Tarjan SCC: R010-R014) and numerical-risk (R030,
/// R031) analysis of a constructed chain.  No row-sum check (R006):
/// Ctmc derives every exit rate from its own transitions, so its rows
/// sum to zero by construction (docs/lint.md).
[[nodiscard]] LintReport lint_ctmc(const ctmc::Ctmc& chain,
                                   const LintOptions& options = {});

/// Static checks of symbolic rate expressions against parameter
/// bindings: undefined symbols (R020), unused parameters (R021, when
/// enabled), division by zero / non-finite values (R022), zero rates
/// (R024), sign-flipped rates (R025), non-finite rewards (R008).
[[nodiscard]] LintReport lint_symbolic(const ctmc::SymbolicCtmc& model,
                                       const expr::ParameterSet& params,
                                       const LintOptions& options = {});

/// Uncertainty-range checks: inverted or non-finite bounds are errors,
/// degenerate (lo == hi) ranges and ranges over unbound parameters
/// are warnings (R023, R020).
[[nodiscard]] LintReport lint_ranges(
    const std::vector<stats::ParameterRange>& ranges,
    const expr::ParameterSet& params);

/// Hierarchical-composition checks for compose_independent: empty
/// part list (R040), reducible components (R041), product-space
/// blowup (R042), constant component rewards (R043), and a composite
/// reward range that can never distinguish up from down (R044).
[[nodiscard]] LintReport lint_composition(
    const std::vector<ctmc::Ctmc>& parts,
    const ctmc::RewardCombiner& combine = ctmc::min_reward_combiner(),
    const LintOptions& options = {});

/// Full pipeline over a symbolic model: lint_symbolic, then — when no
/// errors block binding — bind against `params` and run lint_ctmc on
/// the result.  When `source` is given, every diagnostic is annotated
/// with its file:line:column.
[[nodiscard]] LintReport lint_model(const ctmc::SymbolicCtmc& model,
                                    const expr::ParameterSet& params,
                                    const LintOptions& options = {},
                                    const SourceMap* source = nullptr);

}  // namespace rascal::lint
