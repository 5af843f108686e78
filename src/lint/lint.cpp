#include "lint/lint.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <stdexcept>

#include "expr/expression.h"
#include "lint/scc.h"

namespace rascal::lint {

namespace {

using ctmc::StateId;

std::string fmt(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

Diagnostic make(const char* code, Severity severity, std::string message,
                Location location = {}, std::string fix_hint = {}) {
  Diagnostic d;
  d.code = code;
  d.severity = severity;
  d.message = std::move(message);
  d.location = std::move(location);
  d.fix_hint = std::move(fix_hint);
  return d;
}

Location state_loc(const std::string& name) {
  Location loc;
  loc.state = name;
  return loc;
}

Location transition_loc(const std::string& from, const std::string& to) {
  Location loc;
  loc.from = from;
  loc.to = to;
  return loc;
}

Location param_loc(const std::string& name) {
  Location loc;
  loc.parameter = name;
  return loc;
}

Adjacency adjacency_of(const ctmc::Ctmc& chain) {
  Adjacency edges(chain.num_states());
  for (const ctmc::Transition& t : chain.transitions()) {
    edges[t.from].push_back(t.to);
  }
  return edges;
}

// Structural analysis shared by lint_ctmc: Tarjan SCC over the chain.
void lint_structure(const ctmc::Ctmc& chain, const LintOptions& options,
                    LintReport& report) {
  const Adjacency edges = adjacency_of(chain);
  const SccResult scc = tarjan_scc(edges);
  const StateId initial =
      options.initial_state < chain.num_states() ? options.initial_state : 0;

  if (scc.num_components() > 1) {
    report.add(make(
        codes::kNotIrreducible, Severity::kError,
        "chain is not irreducible: " +
            std::to_string(scc.num_components()) +
            " strongly connected components (steady-state analysis "
            "requires every state to reach every other state)",
        {},
        "add the missing return transitions, or analyze the recurrent "
        "class alone"));
  }

  const std::vector<bool> reachable = reachable_from(edges, initial);
  for (StateId s = 0; s < chain.num_states(); ++s) {
    if (!reachable[s]) {
      report.add(make(codes::kUnreachableState, Severity::kError,
                      "state '" + chain.state_name(s) +
                          "' is unreachable from initial state '" +
                          chain.state_name(initial) + "'",
                      state_loc(chain.state_name(s)),
                      "add a transition into the state or delete it"));
    }
  }

  const std::vector<bool> closed = closed_components(edges, scc);
  for (std::size_t c = 0; c < scc.num_components(); ++c) {
    if (!closed[c] || scc.components[c].size() == chain.num_states()) {
      continue;
    }
    if (scc.components[c].size() == 1 &&
        chain.exit_rate(scc.components[c].front()) == 0.0) {
      report.add(make(codes::kAbsorbingState, Severity::kWarning,
                      "state '" +
                          chain.state_name(scc.components[c].front()) +
                          "' is absorbing (no outgoing transitions)",
                      state_loc(chain.state_name(scc.components[c].front())),
                      "intended for MTTF analysis? steady state will "
                      "concentrate all probability here"));
    } else {
      std::string members;
      for (const std::size_t s : scc.components[c]) {
        if (!members.empty()) members += ", ";
        members += chain.state_name(s);
      }
      report.add(make(codes::kAbsorbingClass, Severity::kWarning,
                      "states {" + members +
                          "} form a closed class the chain can never "
                          "leave",
                      state_loc(chain.state_name(scc.components[c].front())),
                      "add an escape transition or model the class as a "
                      "separate chain"));
    }
  }

  for (const ctmc::Transition& t : chain.transitions()) {
    if (!reachable[t.from]) {
      report.add(make(codes::kDeadTransition, Severity::kWarning,
                      "transition '" + chain.state_name(t.from) + " -> " +
                          chain.state_name(t.to) +
                          "' can never fire (source state is unreachable)",
                      transition_loc(chain.state_name(t.from),
                                     chain.state_name(t.to))));
    }
  }
}

// Numerical-risk warnings: stiffness ratio and near-zero rates.
void lint_numerics(const ctmc::Ctmc& chain, const LintOptions& options,
                   LintReport& report) {
  if (chain.transitions().empty()) return;
  const ctmc::Transition* min_t = nullptr;
  const ctmc::Transition* max_t = nullptr;
  for (const ctmc::Transition& t : chain.transitions()) {
    if (!min_t || t.rate < min_t->rate) min_t = &t;
    if (!max_t || t.rate > max_t->rate) max_t = &t;
  }
  const double ratio = max_t->rate / min_t->rate;
  if (ratio > options.stiffness_warn_ratio) {
    report.add(make(
        codes::kStiffChain, Severity::kWarning,
        "stiff chain: rate ratio " + fmt(ratio) + " (fastest '" +
            chain.state_name(max_t->from) + " -> " +
            chain.state_name(max_t->to) + "' = " + fmt(max_t->rate) +
            ", slowest '" + chain.state_name(min_t->from) + " -> " +
            chain.state_name(min_t->to) + "' = " + fmt(min_t->rate) + ")",
        transition_loc(chain.state_name(min_t->from),
                       chain.state_name(min_t->to)),
        "prefer the GTH solver; power iteration and uniformization "
        "converge at the slow scale"));
  }
  const double floor = options.near_zero_rel * max_t->rate;
  for (const ctmc::Transition& t : chain.transitions()) {
    if (t.rate < floor) {
      report.add(make(
          codes::kNearZeroRate, Severity::kWarning,
          "rate " + fmt(t.rate) + " on '" + chain.state_name(t.from) +
              " -> " + chain.state_name(t.to) +
              "' is vanishing relative to the fastest rate " +
              fmt(max_t->rate) +
              " and will be lost in iterative solver updates",
          transition_loc(chain.state_name(t.from), chain.state_name(t.to)),
          "drop the transition or rescale the model's time unit"));
    }
  }
}

}  // namespace

LintReport lint_ctmc(const ctmc::Ctmc& chain, const LintOptions& options) {
  LintReport report;
  lint_structure(chain, options, report);
  lint_numerics(chain, options, report);
  return report;
}

LintReport lint_raw_model(const std::vector<ctmc::State>& states,
                          const std::vector<ctmc::Transition>& transitions,
                          const LintOptions& options) {
  LintReport report;
  if (states.empty()) {
    report.add(make(codes::kBadStateName, Severity::kError,
                    "model declares no states"));
    return report;
  }
  std::set<std::string> names;
  for (const ctmc::State& s : states) {
    if (s.name.empty()) {
      report.add(
          make(codes::kBadStateName, Severity::kError, "empty state name"));
    } else if (!names.insert(s.name).second) {
      report.add(make(codes::kBadStateName, Severity::kError,
                      "duplicate state name '" + s.name + "'",
                      state_loc(s.name)));
    }
    if (!std::isfinite(s.reward)) {
      report.add(make(codes::kNonFiniteReward, Severity::kError,
                      "non-finite reward for state '" + s.name + "'",
                      state_loc(s.name)));
    }
  }

  const auto name_of = [&states](StateId id) {
    return id < states.size() ? states[id].name
                              : "#" + std::to_string(id);
  };
  for (const ctmc::Transition& t : transitions) {
    const Location loc = transition_loc(name_of(t.from), name_of(t.to));
    if (t.from >= states.size() || t.to >= states.size()) {
      report.add(make(codes::kEndpointOutOfRange, Severity::kError,
                      "transition endpoint out of range (" +
                          std::to_string(t.from) + " -> " +
                          std::to_string(t.to) + ", " +
                          std::to_string(states.size()) + " states)",
                      loc));
      continue;
    }
    if (t.from == t.to) {
      report.add(make(codes::kSelfLoop, Severity::kError,
                      "self-loop on state '" + states[t.from].name +
                          "' (self-loops are meaningless in a CTMC "
                          "generator)",
                      loc, "remove the transition"));
    }
    if (!std::isfinite(t.rate)) {
      report.add(make(codes::kNonFiniteRate, Severity::kError,
                      "non-finite rate on '" + states[t.from].name +
                          " -> " + states[t.to].name + "'",
                      loc));
    } else if (t.rate <= 0.0) {
      report.add(make(codes::kNonPositiveRate, Severity::kError,
                      (t.rate == 0.0 ? std::string("zero")
                                     : std::string("negative")) +
                          " rate " + fmt(t.rate) + " on '" +
                          states[t.from].name + " -> " +
                          states[t.to].name + "'",
                      loc,
                      "rates must be strictly positive; check for a "
                      "sign flip in the rate formula"));
    }
  }

  // Duplicate (parallel) transitions: merged by the constructor, but
  // almost always a copy-paste mistake in hand-written models.
  std::vector<std::pair<StateId, StateId>> pairs;
  pairs.reserve(transitions.size());
  for (const ctmc::Transition& t : transitions) {
    if (t.from < states.size() && t.to < states.size()) {
      pairs.emplace_back(t.from, t.to);
    }
  }
  std::sort(pairs.begin(), pairs.end());
  for (std::size_t i = 1; i < pairs.size(); ++i) {
    if (pairs[i] == pairs[i - 1] &&
        (i == 1 || pairs[i] != pairs[i - 2])) {
      report.add(make(codes::kDuplicateTransition, Severity::kWarning,
                      "duplicate transition '" + name_of(pairs[i].first) +
                          " -> " + name_of(pairs[i].second) +
                          "' (parallel rates are summed)",
                      transition_loc(name_of(pairs[i].first),
                                     name_of(pairs[i].second)),
                      "merge the rates into one transition"));
    }
  }

  if (!report.has_errors()) {
    report.merge(
        lint_ctmc(ctmc::Ctmc(states, transitions), options));
  }
  return report;
}

LintReport lint_generator(const linalg::Matrix& q,
                          const LintOptions& options) {
  LintReport report;
  if (q.rows() != q.cols()) {
    report.add(make(codes::kRowSumViolation, Severity::kError,
                    "generator matrix is not square (" +
                        std::to_string(q.rows()) + "x" +
                        std::to_string(q.cols()) + ")"));
    return report;
  }
  for (std::size_t r = 0; r < q.rows(); ++r) {
    double sum = 0.0;
    double magnitude = 0.0;
    bool finite = true;
    for (std::size_t c = 0; c < q.cols(); ++c) {
      const double v = q(r, c);
      if (!std::isfinite(v)) {
        report.add(make(codes::kNonFiniteRate, Severity::kError,
                        "non-finite generator entry at (" +
                            std::to_string(r) + ", " + std::to_string(c) +
                            ")"));
        finite = false;
        continue;
      }
      if (r != c && v < 0.0) {
        report.add(make(codes::kNegativeOffDiagonal, Severity::kError,
                        "negative off-diagonal generator entry " + fmt(v) +
                            " at (" + std::to_string(r) + ", " +
                            std::to_string(c) + ")",
                        {},
                        "off-diagonal entries are rates and must be >= 0; "
                        "check for a sign flip"));
      }
      sum += v;
      magnitude = std::max(magnitude, std::abs(v));
    }
    if (finite &&
        std::abs(sum) > options.row_sum_tolerance * std::max(1.0, magnitude)) {
      report.add(make(codes::kRowSumViolation, Severity::kError,
                      "generator row " + std::to_string(r) + " sums to " +
                          fmt(sum) + " instead of 0",
                      {},
                      "the diagonal must equal the negated sum of the "
                      "row's off-diagonal rates"));
    }
  }
  return report;
}

LintReport lint_symbolic(const ctmc::SymbolicCtmc& model,
                         const expr::ParameterSet& params,
                         const LintOptions& options) {
  LintReport report;
  for (const ctmc::State& s : model.states()) {
    if (!std::isfinite(s.reward)) {
      report.add(make(codes::kNonFiniteReward, Severity::kError,
                      "non-finite reward for state '" + s.name + "'",
                      state_loc(s.name)));
    }
  }

  std::set<std::string> referenced;
  for (const ctmc::SymbolicCtmc::SymbolicTransition& t :
       model.transitions()) {
    const std::string& from = model.states()[t.from].name;
    const std::string& to = model.states()[t.to].name;
    const Location loc = transition_loc(from, to);
    const std::set<std::string> variables = t.rate.variables();
    referenced.insert(variables.begin(), variables.end());

    bool bound = true;
    for (const std::string& v : variables) {
      if (!params.contains(v)) {
        bound = false;
        Location ploc = loc;
        ploc.parameter = v;
        report.add(make(codes::kUndefinedParameter, Severity::kError,
                        "rate of '" + from + " -> " + to +
                            "' references undefined parameter '" + v + "'",
                        ploc, "add 'param " + v + " VALUE' or fix the "
                        "spelling"));
      }
    }
    if (!bound) continue;

    double value = 0.0;
    try {
      value = t.rate.evaluate(params);
    } catch (const std::domain_error& e) {
      report.add(make(codes::kDivisionByZero, Severity::kError,
                      "rate of '" + from + " -> " + to +
                          "' cannot be evaluated: " + e.what(),
                      loc,
                      "a denominator is exactly zero under the supplied "
                      "parameters"));
      continue;
    }
    if (!std::isfinite(value)) {
      report.add(make(codes::kDivisionByZero, Severity::kError,
                      "rate of '" + from + " -> " + to +
                          "' evaluates to a non-finite value (" +
                          fmt(value) + ")",
                      loc,
                      "check for division by zero or overflow in the "
                      "rate formula"));
    } else if (value < 0.0) {
      report.add(make(codes::kNegativeRateExpr, Severity::kError,
                      "rate of '" + from + " -> " + to +
                          "' evaluates to " + fmt(value) +
                          " under the supplied parameters",
                      loc,
                      "rates must be >= 0; check for a sign flip in '" +
                          t.rate.source() + "'"));
    } else if (value == 0.0) {
      report.add(make(codes::kZeroRate, Severity::kWarning,
                      "rate of '" + from + " -> " + to +
                          "' evaluates to zero (the transition is "
                          "dropped at bind time)",
                      loc,
                      "intended? remove the transition or make the "
                      "parameter nonzero"));
    }
  }

  if (options.warn_unused_parameters) {
    for (const auto& [name, value] : params) {
      (void)value;
      if (!referenced.count(name)) {
        report.add(make(codes::kUnusedParameter, Severity::kWarning,
                        "parameter '" + name +
                            "' is never referenced by a rate expression",
                        param_loc(name), "delete it or use it"));
      }
    }
  }
  return report;
}

LintReport lint_ranges(const std::vector<stats::ParameterRange>& ranges,
                       const expr::ParameterSet& params) {
  LintReport report;
  for (const stats::ParameterRange& r : ranges) {
    const Location loc = param_loc(r.name);
    if (r.name.empty()) {
      report.add(make(codes::kBadRange, Severity::kError,
                      "uncertainty range with empty parameter name"));
      continue;
    }
    if (!params.contains(r.name)) {
      report.add(make(codes::kUndefinedParameter, Severity::kWarning,
                      "uncertainty range over parameter '" + r.name +
                          "' which has no base binding",
                      loc));
    }
    if (!std::isfinite(r.lo) || !std::isfinite(r.hi)) {
      report.add(make(codes::kBadRange, Severity::kError,
                      "non-finite bounds [" + fmt(r.lo) + ", " + fmt(r.hi) +
                          "] for parameter '" + r.name + "'",
                      loc));
    } else if (r.lo > r.hi) {
      report.add(make(codes::kBadRange, Severity::kError,
                      "inverted bounds [" + fmt(r.lo) + ", " + fmt(r.hi) +
                          "] for parameter '" + r.name + "'",
                      loc, "swap lo and hi"));
    } else if (r.lo == r.hi) {
      report.add(make(codes::kBadRange, Severity::kWarning,
                      "degenerate range [" + fmt(r.lo) + ", " + fmt(r.hi) +
                          "] for parameter '" + r.name +
                          "' (every sample draws the same value)",
                      loc, "use a --set override instead of a range"));
    }
  }
  return report;
}

LintReport lint_composition(const std::vector<ctmc::Ctmc>& parts,
                            const ctmc::RewardCombiner& combine,
                            const LintOptions& options) {
  LintReport report;
  if (parts.empty()) {
    report.add(make(codes::kEmptyComposition, Severity::kError,
                    "composition has no component chains"));
    return report;
  }
  std::vector<double> min_rewards;
  std::vector<double> max_rewards;
  std::size_t total = 1;
  bool overflowed = false;
  for (std::size_t k = 0; k < parts.size(); ++k) {
    const ctmc::Ctmc& part = parts[k];
    if (!part.is_irreducible()) {
      report.add(make(codes::kReducibleComponent, Severity::kWarning,
                      "component " + std::to_string(k) +
                          " is not irreducible; the composed chain "
                          "inherits its unreachable/absorbing structure",
                      {}, "lint the component on its own for details"));
    }
    double lo = part.reward(0);
    double hi = part.reward(0);
    for (ctmc::StateId s = 1; s < part.num_states(); ++s) {
      lo = std::min(lo, part.reward(s));
      hi = std::max(hi, part.reward(s));
    }
    if (lo == hi) {
      report.add(make(codes::kConstantComponentReward, Severity::kWarning,
                      "component " + std::to_string(k) +
                          " has the same reward (" + fmt(lo) +
                          ") in every state and cannot affect the "
                          "composite availability",
                      {},
                      "check the component's up/down reward assignment"));
    }
    min_rewards.push_back(lo);
    max_rewards.push_back(hi);
    if (!overflowed &&
        total > options.compose_warn_states / std::max<std::size_t>(
                    part.num_states(), 1)) {
      overflowed = true;
    } else if (!overflowed) {
      total *= part.num_states();
    }
  }
  if (overflowed) {
    report.add(make(codes::kProductSpaceLarge, Severity::kWarning,
                    "product state space exceeds " +
                        std::to_string(options.compose_warn_states) +
                        " states",
                    {},
                    "lump components first (ctmc/lumping.h) or use the "
                    "two-state-equivalent hierarchy (core/hierarchy.h)"));
  }
  if (combine) {
    const double combined_lo = combine(min_rewards);
    const double combined_hi = combine(max_rewards);
    if (combined_lo == combined_hi) {
      report.add(make(codes::kDegenerateCompositeReward, Severity::kWarning,
                      "every composite state gets reward " +
                          fmt(combined_lo) +
                          "; the composition cannot distinguish up from "
                          "down",
                      {},
                      "check the reward combiner against the component "
                      "reward ranges"));
    }
  }
  return report;
}

LintReport lint_model(const ctmc::SymbolicCtmc& model,
                      const expr::ParameterSet& params,
                      const LintOptions& options, const SourceMap* source) {
  LintReport report = lint_symbolic(model, params, options);
  if (!report.has_errors()) {
    // Zero-rate transitions are legitimately dropped at bind; the
    // symbolic pass already warned about them (R024).
    report.merge(lint_ctmc(model.bind(params), options));
  }

  if (source == nullptr) return report;

  // Thread file:line:column into every diagnostic.  Transition
  // diagnostics map back through the (from, to) name pair; parallel
  // symbolic transitions resolve to the first declaration.
  LintReport located;
  for (Diagnostic d : report) {
    d.location.file = source->file;
    SourcePosition pos;
    if (!d.location.from.empty()) {
      for (std::size_t k = 0; k < model.transitions().size(); ++k) {
        const auto& t = model.transitions()[k];
        if (model.states()[t.from].name == d.location.from &&
            model.states()[t.to].name == d.location.to &&
            k < source->transitions.size()) {
          pos = source->transitions[k];
          break;
        }
      }
    } else if (!d.location.parameter.empty()) {
      const auto it = source->parameters.find(d.location.parameter);
      if (it != source->parameters.end()) pos = it->second;
    } else if (!d.location.state.empty()) {
      const auto it = source->states.find(d.location.state);
      if (it != source->states.end()) pos = it->second;
    }
    if (pos.line > 0) {
      d.location.line = pos.line;
      d.location.column = pos.column;
    }
    located.add(std::move(d));
  }
  return located;
}

}  // namespace rascal::lint
