#include "ctmc/ctmc.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

namespace rascal::ctmc {

Ctmc::Ctmc(std::vector<State> states, std::vector<Transition> transitions)
    : states_(std::move(states)) {
  if (states_.empty()) {
    throw std::invalid_argument("Ctmc: must have at least one state");
  }
  std::set<std::string> names;
  for (const State& s : states_) {
    if (s.name.empty()) {
      throw std::invalid_argument("Ctmc: empty state name");
    }
    if (!names.insert(s.name).second) {
      throw std::invalid_argument("Ctmc: duplicate state name '" + s.name +
                                  "'");
    }
    if (!std::isfinite(s.reward)) {
      throw std::invalid_argument("Ctmc: non-finite reward for state '" +
                                  s.name + "'");
    }
  }
  for (const Transition& t : transitions) {
    if (t.from >= states_.size() || t.to >= states_.size()) {
      throw std::invalid_argument("Ctmc: transition endpoint out of range");
    }
    if (t.from == t.to) {
      throw std::invalid_argument("Ctmc: self-loop on state '" +
                                  states_[t.from].name + "'");
    }
    if (!(t.rate > 0.0) || !std::isfinite(t.rate)) {
      throw std::invalid_argument("Ctmc: non-positive rate on transition " +
                                  states_[t.from].name + " -> " +
                                  states_[t.to].name);
    }
  }

  // Sort and merge parallel transitions.
  sort_by_endpoints(transitions);
  for (const Transition& t : transitions) {
    if (!transitions_.empty() && transitions_.back().from == t.from &&
        transitions_.back().to == t.to) {
      transitions_.back().rate += t.rate;
    } else {
      transitions_.push_back(t);
    }
  }
  build_index();
}

Ctmc::Ctmc(Prevalidated, std::vector<State> states,
           std::vector<Transition> transitions,
           std::vector<std::size_t> row_offsets,
           std::vector<double> exit_rates, bool steady_state_prevalidated,
           std::uint64_t pattern_id)
    : states_(std::move(states)),
      transitions_(std::move(transitions)),
      row_offsets_(std::move(row_offsets)),
      exit_rates_(std::move(exit_rates)),
      steady_state_prevalidated_(steady_state_prevalidated),
      pattern_id_(pattern_id) {}

void Ctmc::sort_by_endpoints(std::vector<Transition>& transitions) {
  std::sort(transitions.begin(), transitions.end(),
            [](const Transition& a, const Transition& b) {
              return a.from != b.from ? a.from < b.from : a.to < b.to;
            });
}

std::vector<std::size_t> Ctmc::row_offsets_of(
    const std::vector<Transition>& sorted, std::size_t states) {
  std::vector<std::size_t> offsets(states + 1, 0);
  for (const Transition& t : sorted) ++offsets[t.from + 1];
  for (std::size_t i = 0; i < states; ++i) offsets[i + 1] += offsets[i];
  return offsets;
}

void Ctmc::build_index() {
  row_offsets_ = row_offsets_of(transitions_, states_.size());
  exit_rates_.assign(states_.size(), 0.0);
  for (const Transition& t : transitions_) exit_rates_[t.from] += t.rate;
}

const std::string& Ctmc::state_name(StateId id) const {
  if (id >= states_.size()) throw std::out_of_range("Ctmc::state_name");
  return states_[id].name;
}

double Ctmc::reward(StateId id) const {
  if (id >= states_.size()) throw std::out_of_range("Ctmc::reward");
  return states_[id].reward;
}

std::optional<StateId> Ctmc::find_state(
    const std::string& name) const noexcept {
  for (StateId i = 0; i < states_.size(); ++i) {
    if (states_[i].name == name) return i;
  }
  return std::nullopt;
}

StateId Ctmc::state(const std::string& name) const {
  const auto id = find_state(name);
  if (!id) {
    throw std::invalid_argument("Ctmc: no state named '" + name + "'");
  }
  return *id;
}

double Ctmc::exit_rate(StateId id) const {
  if (id >= states_.size()) throw std::out_of_range("Ctmc::exit_rate");
  return exit_rates_[id];
}

double Ctmc::rate(StateId from, StateId to) const {
  if (from >= states_.size() || to >= states_.size()) {
    throw std::out_of_range("Ctmc::rate");
  }
  for (std::size_t k = row_offsets_[from]; k < row_offsets_[from + 1]; ++k) {
    if (transitions_[k].to == to) return transitions_[k].rate;
  }
  return 0.0;
}

linalg::Matrix Ctmc::generator() const {
  linalg::Matrix q(states_.size(), states_.size());
  for (const Transition& t : transitions_) q(t.from, t.to) = t.rate;
  for (StateId i = 0; i < states_.size(); ++i) q(i, i) = -exit_rates_[i];
  return q;
}

void Ctmc::write_generator(linalg::Matrix& q) const {
  q.reshape(states_.size(), states_.size(), 0.0);
  for (const Transition& t : transitions_) q(t.from, t.to) = t.rate;
  for (StateId i = 0; i < states_.size(); ++i) q(i, i) = -exit_rates_[i];
}

linalg::CsrMatrix Ctmc::sparse_generator() const {
  // transitions_ is already sorted by (from, to) with merged duplicates
  // and no self-loops, so each CSR row is the row's transitions with
  // the diagonal spliced in at its sorted position.
  const std::size_t n = states_.size();
  std::vector<std::size_t> row_ptr(n + 1, 0);
  std::vector<std::size_t> col_idx;
  std::vector<double> values;
  col_idx.reserve(transitions_.size() + n);
  values.reserve(transitions_.size() + n);
  for (StateId i = 0; i < n; ++i) {
    // Zero-exit states store no diagonal, matching the triplet-based
    // assembly which dropped exact-zero sums.
    bool diag_pending = exit_rates_[i] != 0.0;
    for (std::size_t k = row_offsets_[i]; k < row_offsets_[i + 1]; ++k) {
      const Transition& t = transitions_[k];
      if (diag_pending && t.to > i) {
        col_idx.push_back(i);
        values.push_back(-exit_rates_[i]);
        diag_pending = false;
      }
      col_idx.push_back(t.to);
      values.push_back(t.rate);
    }
    if (diag_pending) {
      col_idx.push_back(i);
      values.push_back(-exit_rates_[i]);
    }
    row_ptr[i + 1] = col_idx.size();
  }
  return linalg::CsrMatrix::from_parts(n, n, std::move(row_ptr),
                                       std::move(col_idx),
                                       std::move(values));
}

std::vector<StateId> Ctmc::states_with_reward_below(double threshold) const {
  std::vector<StateId> out;
  for (StateId i = 0; i < states_.size(); ++i) {
    if (states_[i].reward < threshold) out.push_back(i);
  }
  return out;
}

double Ctmc::max_exit_rate() const noexcept {
  double m = 0.0;
  for (double r : exit_rates_) m = std::max(m, r);
  return m;
}

}  // namespace rascal::ctmc
