#include "ctmc/builder.h"

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <mutex>
#include <stdexcept>

#include "ctmc/validate.h"
#include "expr/program.h"
#include "obs/obs.h"

namespace rascal::ctmc {

StateId CtmcBuilder::state(std::string name, double reward) {
  states_.push_back({std::move(name), reward});
  return states_.size() - 1;
}

CtmcBuilder& CtmcBuilder::rate(StateId from, StateId to, double value) {
  if (value == 0.0) return *this;
  transitions_.push_back({from, to, value});
  return *this;
}

Ctmc CtmcBuilder::build() const { return Ctmc(states_, transitions_); }

struct SymbolicCtmc::Compiled {
  // False when every bind must take the reference path, because the
  // state table or a self-loop makes the Ctmc constructor throw (or,
  // for a self-loop of rate zero, drop it) whatever the parameters.
  bool usable = false;
  expr::ProgramSet programs;
  // The program of each symbolic transition, in the order
  // Ctmc::sort_by_endpoints leaves them.
  std::vector<std::uint32_t> sorted_programs;
  // The merged transitions (rates unset), and for each one where its
  // run of parallel transitions in sorted_programs ends.
  std::vector<Transition> pattern;
  std::vector<std::uint32_t> run_end;
  // The pattern's adjacency index, which every bound chain shares.
  std::vector<std::size_t> row_offsets;
  // validate_for_steady_state found no error on the pattern.
  bool steady_state_valid = false;
  // Ctmc::pattern_id of every chain this compile binds.
  std::uint64_t pattern_id = 0;

  [[nodiscard]] static Compiled make(
      const std::vector<State>& states,
      const std::vector<SymbolicTransition>& transitions,
      std::size_t distinct_names);

  // The chain at `params`, or nothing when a parameter is unbound, an
  // evaluation would throw, or a rate is not strictly positive and
  // finite: the reference path then drops the transition or throws.
  [[nodiscard]] std::optional<Ctmc> bind(const std::vector<State>& states,
                                         const expr::ParameterSet& params) const;
};

struct SymbolicCtmc::CompileOnce {
  std::once_flag once;
  bool built = false;
  Compiled compiled;
};

SymbolicCtmc::Compiled SymbolicCtmc::Compiled::make(
    const std::vector<State>& states,
    const std::vector<SymbolicTransition>& transitions,
    std::size_t distinct_names) {
  Compiled c;
  if (states.empty() || distinct_names != states.size() ||
      transitions.size() > std::numeric_limits<std::uint32_t>::max()) {
    return c;
  }
  for (const State& s : states) {
    if (s.name.empty() || !std::isfinite(s.reward)) return c;
  }

  // Sort (from, to, symbolic index) triples with the call the Ctmc
  // constructor sorts with.  std::sort's moves depend only on its
  // comparisons, so the indices land where that constructor puts the
  // rates, and parallel rates are summed in the same order.
  expr::ProgramSet::Builder builder;
  std::vector<std::uint32_t> program_of(transitions.size());
  std::vector<Transition> keyed(transitions.size());
  for (std::size_t i = 0; i < transitions.size(); ++i) {
    const SymbolicTransition& t = transitions[i];
    if (t.from == t.to) return c;
    program_of[i] = builder.add(t.rate);
    keyed[i] = {t.from, t.to, static_cast<double>(i)};
  }
  c.programs = std::move(builder).finish();
  Ctmc::sort_by_endpoints(keyed);
  c.sorted_programs.reserve(keyed.size());
  for (const Transition& t : keyed) {
    c.sorted_programs.push_back(program_of[static_cast<std::size_t>(t.rate)]);
    if (c.pattern.empty() || c.pattern.back().from != t.from ||
        c.pattern.back().to != t.to) {
      c.pattern.push_back({t.from, t.to, 0.0});
      c.run_end.push_back(0);
    }
    c.run_end.back() = static_cast<std::uint32_t>(c.sorted_programs.size());
  }

  c.row_offsets = Ctmc::row_offsets_of(c.pattern, states.size());

  std::vector<Transition> unit_rates = c.pattern;
  std::vector<double> unit_exits(states.size(), 0.0);
  for (Transition& t : unit_rates) {
    t.rate = 1.0;
    unit_exits[t.from] += 1.0;
  }
  c.steady_state_valid =
      !validate_for_steady_state(
           Ctmc(Ctmc::Prevalidated{}, states, std::move(unit_rates),
                c.row_offsets, std::move(unit_exits), false, 0))
           .has_errors();
  // Ids start at 1 and are never handed out twice, so no two compiles,
  // of one model or of two, ever share one.
  static std::atomic<std::uint64_t> next_pattern_id{1};
  c.pattern_id = next_pattern_id.fetch_add(1, std::memory_order_relaxed);
  c.usable = true;
  return c;
}

std::optional<Ctmc> SymbolicCtmc::Compiled::bind(
    const std::vector<State>& states, const expr::ParameterSet& params) const {
  if (!usable) return std::nullopt;
  const std::vector<std::string>& names = programs.slots();
  // Slot values, program values and the evaluation stack; small models
  // keep them on the stack frame.
  std::array<double, 64> small{};
  std::vector<double> large;
  const std::size_t need =
      names.size() + programs.size() + programs.max_stack();
  if (need > small.size()) large.resize(need);
  double* scratch = need > small.size() ? large.data() : small.data();
  const std::span<double> slots(scratch, names.size());
  const std::span<double> values(slots.data() + slots.size(),
                                 programs.size());
  const std::span<double> stack(values.data() + values.size(),
                                programs.max_stack());
  // The slots are in the ParameterSet's key order: one ordered pass.
  auto it = params.begin();
  for (std::size_t s = 0; s < names.size(); ++s) {
    while (it != params.end() && it->first < names[s]) ++it;
    if (it == params.end() || it->first != names[s]) return std::nullopt;
    slots[s] = it->second;
  }
  if (!programs.evaluate(slots, values, stack)) return std::nullopt;
  for (const double v : values) {
    if (!(v > 0.0) || !std::isfinite(v)) return std::nullopt;
  }

  // Each exit rate is summed in transition order, as
  // Ctmc::build_index sums it.
  std::vector<Transition> merged = pattern;
  std::vector<double> exit_rates(states.size(), 0.0);
  std::size_t k = 0;
  for (std::size_t m = 0; m < merged.size(); ++m) {
    double rate = values[sorted_programs[k++]];
    while (k < run_end[m]) rate += values[sorted_programs[k++]];
    merged[m].rate = rate;
    exit_rates[merged[m].from] += rate;
  }
  return Ctmc(Ctmc::Prevalidated{}, states, std::move(merged), row_offsets,
              std::move(exit_rates), steady_state_valid, pattern_id);
}

SymbolicCtmc::CompileOncePtr SymbolicCtmc::fresh_compiled() {
  return {new CompileOnce, [](CompileOnce* once) { delete once; }};
}

void SymbolicCtmc::changed() {
  // A compiled form that a bind already built describes the model
  // before this change.
  if (!compiled_ || compiled_->built) compiled_ = fresh_compiled();
}

StateId SymbolicCtmc::state(std::string name, double reward) {
  changed();
  const StateId id = states_.size();
  ids_.emplace(name, id);
  states_.push_back({std::move(name), reward});
  return id;
}

SymbolicCtmc& SymbolicCtmc::rate(const std::string& from,
                                 const std::string& to,
                                 const std::string& expression) {
  return rate(from, to, expr::Expression::parse(expression));
}

SymbolicCtmc& SymbolicCtmc::rate(const std::string& from,
                                 const std::string& to,
                                 expr::Expression expression) {
  const StateId from_id = id_of(from);
  const StateId to_id = id_of(to);
  changed();
  transitions_.push_back({from_id, to_id, std::move(expression)});
  return *this;
}

std::optional<StateId> SymbolicCtmc::find_state(const std::string& name) const {
  const auto it = ids_.find(name);
  if (it == ids_.end()) return std::nullopt;
  return it->second;
}

StateId SymbolicCtmc::id_of(const std::string& name) const {
  const std::optional<StateId> id = find_state(name);
  if (!id) {
    throw std::invalid_argument("SymbolicCtmc: no state named '" + name +
                                "'");
  }
  return *id;
}

std::set<std::string> SymbolicCtmc::parameters() const {
  std::set<std::string> out;
  for (const SymbolicTransition& t : transitions_) {
    const auto vars = t.rate.variables();
    out.insert(vars.begin(), vars.end());
  }
  return out;
}

const SymbolicCtmc::Compiled& SymbolicCtmc::compiled() const {
  CompileOnce& slot = *compiled_;
  std::call_once(slot.once, [&] {
    slot.compiled = Compiled::make(states_, transitions_, ids_.size());
    slot.built = true;
  });
  return slot.compiled;
}

Ctmc SymbolicCtmc::bind(const expr::ParameterSet& params) const {
  if (compiled_) {
    if (std::optional<Ctmc> chain = compiled().bind(states_, params)) {
      if (obs::enabled()) {
        static obs::Counter& hits = obs::counter("ctmc.bind.compiled");
        hits.add(1);
      }
      return std::move(*chain);
    }
  }
  if (obs::enabled()) {
    static obs::Counter& fallbacks = obs::counter("ctmc.bind.fallback");
    fallbacks.add(1);
  }
  return bind_reference(params);
}

Ctmc SymbolicCtmc::bind_reference(const expr::ParameterSet& params) const {
  std::vector<Transition> transitions;
  transitions.reserve(transitions_.size());
  for (const SymbolicTransition& t : transitions_) {
    const double value = t.rate.evaluate(params);
    if (value == 0.0) continue;
    if (!(value > 0.0) || !std::isfinite(value)) {
      throw std::invalid_argument(
          "SymbolicCtmc::bind: rate '" + t.rate.source() + "' on " +
          states_[t.from].name + " -> " + states_[t.to].name +
          " evaluated to a negative or non-finite value");
    }
    transitions.push_back({t.from, t.to, value});
  }
  return Ctmc(states_, transitions);
}

}  // namespace rascal::ctmc
