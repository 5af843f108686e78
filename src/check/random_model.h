// Seeded random-model generation for property-based testing.
//
// Each generator produces a structured CTMC together with whatever
// ground truth its structure admits: birth-death chains carry their
// closed-form stationary vector, Erlang chains their exact mean
// absorption time, and general ergodic chains a guaranteed Hamiltonian
// cycle (irreducibility by construction).  The differential oracle
// (oracle.h) then cross-checks every solver path on the same chain —
// the tool-vs-tool validation style of the MAROS/GRIF comparison and
// the solver-vs-simulation drift studies for storage reliability
// models.
#pragma once

#include <optional>
#include <string>

#include "ctmc/builder.h"
#include "ctmc/ctmc.h"
#include "expr/parameter_set.h"
#include "linalg/matrix.h"
#include "stats/rng.h"

namespace rascal::check {

struct RandomModelOptions {
  std::size_t min_states = 3;
  std::size_t max_states = 12;
  // Rates are drawn log-uniformly from [min_rate, max_rate]; widening
  // the ratio stresses stiffness (availability models span repair
  // rates of ~60/h against failure rates of ~1e-4/h).
  double min_rate = 0.1;
  double max_rate = 10.0;
  // Probability of each extra directed edge beyond the guaranteed
  // structure (cycle / birth-death skeleton).
  double extra_edge_probability = 0.3;
  // Probability that a state is "down" (reward 0) rather than "up".
  double down_probability = 0.4;
};

/// A generated chain plus the ground truth its structure guarantees.
struct GeneratedModel {
  ctmc::Ctmc chain;
  std::string description;  // e.g. "ergodic(n=7, seed stream 12)"
  // Closed-form stationary distribution (birth-death only).
  std::optional<linalg::Vector> analytic_steady;
  // Exact mean time to absorption from state 0 (Erlang chains only).
  std::optional<double> analytic_mtta;
};

/// Random irreducible chain: a Hamiltonian cycle through all states
/// (irreducibility by construction) plus random extra edges.  Rewards
/// are 0/1 with at least one up and one down state.
[[nodiscard]] GeneratedModel random_ergodic_ctmc(
    stats::RandomEngine& rng, const RandomModelOptions& options = {});

/// Random birth-death chain with closed-form stationary distribution
/// pi_k proportional to prod_{i<k} birth_i / death_{i+1}, attached as
/// analytic_steady.
[[nodiscard]] GeneratedModel random_birth_death(
    stats::RandomEngine& rng, const RandomModelOptions& options = {});

/// Erlang-style absorbing chain Stage1 -> ... -> StageK -> Absorbed
/// with random per-stage rates; analytic_mtta = sum of stage means.
[[nodiscard]] GeneratedModel random_erlang_chain(
    stats::RandomEngine& rng, const RandomModelOptions& options = {});

/// A symbolic chain for the compiled-bind oracle (check_bind_consensus)
/// and a parameter point at which every rate is positive.
struct GeneratedSymbolicModel {
  ctmc::SymbolicCtmc model;
  expr::ParameterSet params;  // a, b, c, d log-uniform in [0.1, 10]; z = 1
  std::string description;
};

/// Random symbolic chain: a Hamiltonian cycle, random extra edges, and
/// one pair carrying 3 to 5 parallel transitions, with more than 16
/// transitions in all (std::sort switches from insertion sort above
/// 16 elements, and parallel rates are summed in sorted order).  Rates
/// are random expressions over the parameters a, b, c and d that use
/// + - * / ^, unary minus and every builtin, and are positive in exact
/// arithmetic while the parameters are (a nested exp may still
/// underflow to 0).  A few extra edges and parallels are scaled by a
/// factor z, so a draw with z = 0 drops them.
[[nodiscard]] GeneratedSymbolicModel random_symbolic_ctmc(
    stats::RandomEngine& rng, const RandomModelOptions& options = {});

/// Uniformly rescales every transition rate by `factor` (> 0), the
/// basis of the rate-rescaling metamorphic property: the stationary
/// distribution is invariant and all first-passage times scale by
/// 1/factor.
[[nodiscard]] ctmc::Ctmc rescale_rates(const ctmc::Ctmc& chain,
                                       double factor);

/// Relabels the states: new state perm[i] is old state i (perm must
/// be a permutation of 0..n-1).  The basis of the state-permutation
/// metamorphic property: pi_new[perm[i]] must equal pi_old[i] for
/// every solver, which a solver with an order-dependent bias (e.g.
/// the Krylov augmented system pinning the *last* balance row) would
/// violate.  Throws std::invalid_argument on a malformed permutation.
[[nodiscard]] ctmc::Ctmc permute_states(
    const ctmc::Ctmc& chain, const std::vector<std::size_t>& perm);

/// A seeded random permutation of 0..n-1 (Fisher-Yates on the split
/// stream), for driving permute_states.
[[nodiscard]] std::vector<std::size_t> random_permutation(
    std::size_t n, stats::RandomEngine& rng);

// ---------------------------------------------------------------------------
// Broken-model mutants for linter property testing.
//
// The linter's property contract: every generator above lints clean,
// and no single fault below passes unnoticed: either the Ctmc
// constructor rejects the mutant, or lint::lint_ctmc reports the
// fault's structural code.  Faults operate on the *raw*
// state/transition lists because the constructor rejects several of
// them outright.

/// Raw (pre-construction) model: what the Ctmc constructor consumes.
struct RawModel {
  std::vector<ctmc::State> states;
  std::vector<ctmc::Transition> transitions;
};

/// Snapshot of a constructed chain as a raw model, ready for mutation.
[[nodiscard]] RawModel raw_model(const ctmc::Ctmc& chain);

/// Single structural faults.  The first six make the Ctmc constructor
/// throw std::invalid_argument; the last three construct, and
/// lint::lint_ctmc reports each under a distinct code.
enum class ModelFault {
  kNegativeRate,       // sign-flip one rate
  kNonFiniteRate,      // NaN rate
  kSelfLoop,           // bend a transition back onto its source
  kDanglingEndpoint,   // point a transition past the state list
  kNonFiniteReward,    // infinite reward
  kBadStateName,       // duplicate state name
  kUnreachableState,   // R011 (+R010): orphan state, outgoing only
  kAbsorbingState,     // R012 (+R010): trap state, incoming only
  kDisconnectedClass,  // R013 (+R010): two-state island
};

/// Every fault, for table-driven tests.
[[nodiscard]] const std::vector<ModelFault>& all_model_faults();

/// The structural code lint::lint_ctmc is guaranteed to emit for a
/// fault the constructor accepts (secondary codes like R010 may
/// accompany it); nullptr for a fault the constructor rejects.
[[nodiscard]] const char* expected_code(ModelFault fault);

/// Returns a copy of `model` with exactly one instance of `fault`
/// injected at a seeded-random position.
[[nodiscard]] RawModel inject_fault(const RawModel& model, ModelFault fault,
                                    stats::RandomEngine& rng);

}  // namespace rascal::check
