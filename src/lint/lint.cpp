#include "lint/lint.h"

#include <cmath>
#include <cstdio>
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

    if (t.from == t.to) {
      // The Ctmc constructor rejects a self-loop whatever its rate, so
      // it is reported here, before lint_model binds.
      report.add(make(codes::kSelfLoop, Severity::kError,
                      "self-loop on state '" + from +
                          "' (self-loops are meaningless in a CTMC "
                          "generator)",
                      loc, "remove the transition"));
      continue;
    }

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

LintReport lint_model(const ctmc::SymbolicCtmc& model,
                      const expr::ParameterSet& params,
                      const LintOptions& options, const SourceMap* source) {
  LintReport report = lint_symbolic(model, params, options);
  if (!report.has_errors()) {
    // Zero-rate transitions are legitimately dropped at bind; the
    // symbolic pass already warned about them (R024).  A lint binds
    // once, so it does not compile the model.
    report.merge(lint_ctmc(model.bind_reference(params), options));
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
