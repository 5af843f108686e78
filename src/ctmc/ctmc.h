// Continuous-time Markov chain with per-state reward rates.
//
// This is the core object of the library: states carry a reward rate
// (1 = up, 0 = down for plain availability; fractional values model
// degraded service), and transitions carry exponential rates.  The
// paper's Figures 2-4 are instances of this class, built either
// directly (models/), from symbolic rate expressions (builder.h), or
// from a stochastic Petri net (spn/).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/sparse.h"

namespace rascal::ctmc {

using StateId = std::size_t;

struct State {
  std::string name;
  double reward = 1.0;
};

struct Transition {
  StateId from = 0;
  StateId to = 0;
  double rate = 0.0;
};

class Ctmc {
 public:
  /// Validates invariants: non-empty state set, unique state names,
  /// transition endpoints in range, no self-loops, strictly positive
  /// rates, finite rewards.  Parallel transitions between the same
  /// pair of states are merged.  Throws std::invalid_argument on
  /// violation.
  Ctmc(std::vector<State> states, std::vector<Transition> transitions);

  [[nodiscard]] std::size_t num_states() const noexcept {
    return states_.size();
  }
  [[nodiscard]] const std::vector<State>& states() const noexcept {
    return states_;
  }
  [[nodiscard]] const std::vector<Transition>& transitions() const noexcept {
    return transitions_;
  }
  [[nodiscard]] const std::string& state_name(StateId id) const;
  [[nodiscard]] double reward(StateId id) const;

  /// State id by name.
  [[nodiscard]] std::optional<StateId> find_state(
      const std::string& name) const noexcept;
  /// As find_state but throws std::invalid_argument when absent.
  [[nodiscard]] StateId state(const std::string& name) const;

  /// Total exit rate of a state.
  [[nodiscard]] double exit_rate(StateId id) const;
  /// Every state's exit rate, indexed by state id.
  [[nodiscard]] const std::vector<double>& exit_rates() const noexcept {
    return exit_rates_;
  }

  /// Rate from `from` to `to` (0 when no transition).
  [[nodiscard]] double rate(StateId from, StateId to) const;

  /// Dense infinitesimal generator Q (diagonal = negative exit rate).
  [[nodiscard]] linalg::Matrix generator() const;

  /// Writes the dense generator into caller-owned storage (reshaped to
  /// n x n), so repeated solves through a SolveWorkspace reuse one
  /// heap block instead of allocating per call.
  void write_generator(linalg::Matrix& q) const;

  /// Sparse generator, diagonal included.  Assembled straight into CSR
  /// arrays from the sorted transition index — no triplet round trip.
  [[nodiscard]] linalg::CsrMatrix sparse_generator() const;

  /// States with reward below threshold (default: "down" states).
  [[nodiscard]] std::vector<StateId> states_with_reward_below(
      double threshold = 1.0) const;

  /// Largest exit rate over all states (uniformization constant base).
  [[nodiscard]] double max_exit_rate() const noexcept;

  /// True when a compiled SymbolicCtmc bound this chain and its
  /// transition pattern passed validate_for_steady_state when the
  /// model was compiled.  The pattern alone decides that check, so
  /// solve_steady_state does not repeat it for such a chain.
  [[nodiscard]] bool steady_state_prevalidated() const noexcept {
    return steady_state_prevalidated_;
  }

  /// Names the chain's transition pattern, or 0 when unknown.  A
  /// compiled SymbolicCtmc draws an id from a process-wide counter
  /// when it compiles, never hands it to another compile, and stamps
  /// it on every chain its compiled bind builds.  Those chains have
  /// the same transitions in the same order with rates > 0, so the
  /// same states carry a diagonal: two chains with one nonzero id
  /// differ only in their rates.  The public constructor leaves 0.
  /// A Krylov solve keys its reusable plan on this id
  /// (linalg/krylov_plan.h).
  [[nodiscard]] std::uint64_t pattern_id() const noexcept {
    return pattern_id_;
  }

 private:
  friend class SymbolicCtmc;

  // SymbolicCtmc's compiled bind: `transitions` are already sorted and
  // merged, `row_offsets` and `exit_rates` are their adjacency index
  // and per-state sums (see build_index), and the state table was
  // validated when the model was compiled.
  struct Prevalidated {};
  Ctmc(Prevalidated, std::vector<State> states,
       std::vector<Transition> transitions,
       std::vector<std::size_t> row_offsets, std::vector<double> exit_rates,
       bool steady_state_prevalidated, std::uint64_t pattern_id);

  // The one sort every chain's transitions go through: std::sort by
  // (from, to).  It is not stable, so the order of parallel
  // transitions, and with it the bits of their merged rate, is
  // whatever this call leaves.
  static void sort_by_endpoints(std::vector<Transition>& transitions);

  // The adjacency index of sorted transitions: row i occupies
  // [offsets[i], offsets[i+1]).
  static std::vector<std::size_t> row_offsets_of(
      const std::vector<Transition>& sorted, std::size_t states);

  void build_index();

  std::vector<State> states_;
  std::vector<Transition> transitions_;
  // Adjacency index: transitions_ offsets sorted by (from, to); built
  // once in the constructor.
  std::vector<std::size_t> row_offsets_;
  // Each state's exit rate, summed in transition order.
  std::vector<double> exit_rates_;
  bool steady_state_prevalidated_ = false;
  std::uint64_t pattern_id_ = 0;
};

}  // namespace rascal::ctmc
