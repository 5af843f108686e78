#include "check/random_model.h"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

namespace rascal::check {

namespace {

// Log-uniform draw over [options.min_rate, options.max_rate].
double random_rate(stats::RandomEngine& rng,
                   const RandomModelOptions& options) {
  const double lo = std::log(options.min_rate);
  const double hi = std::log(options.max_rate);
  return std::exp(rng.uniform(lo, hi));
}

std::size_t random_size(stats::RandomEngine& rng,
                        const RandomModelOptions& options) {
  if (options.min_states < 2 || options.max_states < options.min_states) {
    throw std::invalid_argument(
        "random model: need 2 <= min_states <= max_states");
  }
  return options.min_states +
         static_cast<std::size_t>(rng.uniform_index(
             options.max_states - options.min_states + 1));
}

}  // namespace

GeneratedModel random_ergodic_ctmc(stats::RandomEngine& rng,
                                   const RandomModelOptions& options) {
  const std::size_t n = random_size(rng, options);
  std::vector<ctmc::State> states;
  states.reserve(n);
  bool has_down = false;
  for (std::size_t i = 0; i < n; ++i) {
    // State 0 is always up so availability metrics are meaningful and
    // simulations can regenerate from an up state.
    const bool down =
        i > 0 && rng.bernoulli(options.down_probability);
    has_down = has_down || down;
    states.push_back({"s" + std::to_string(i), down ? 0.0 : 1.0});
  }
  if (!has_down) states.back().reward = 0.0;

  std::vector<ctmc::Transition> transitions;
  // Hamiltonian cycle 0 -> 1 -> ... -> n-1 -> 0 guarantees a single
  // recurrent class containing every state.
  for (std::size_t i = 0; i < n; ++i) {
    transitions.push_back({i, (i + 1) % n, random_rate(rng, options)});
  }
  for (std::size_t from = 0; from < n; ++from) {
    for (std::size_t to = 0; to < n; ++to) {
      if (from == to || to == (from + 1) % n) continue;
      if (rng.bernoulli(options.extra_edge_probability)) {
        transitions.push_back({from, to, random_rate(rng, options)});
      }
    }
  }
  GeneratedModel out{ctmc::Ctmc(std::move(states), std::move(transitions)),
                     "ergodic(n=" + std::to_string(n) + ")",
                     std::nullopt,
                     std::nullopt};
  return out;
}

GeneratedModel random_birth_death(stats::RandomEngine& rng,
                                  const RandomModelOptions& options) {
  const std::size_t n = random_size(rng, options);
  std::vector<ctmc::State> states;
  states.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Level 0 = all-up; the deepest levels are down, mirroring an
    // occupancy/repair model.
    states.push_back({"level" + std::to_string(i),
                      i + 1 == n ? 0.0 : 1.0});
  }
  std::vector<double> births(n - 1);
  std::vector<double> deaths(n - 1);  // deaths[i]: rate of i+1 -> i
  std::vector<ctmc::Transition> transitions;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    births[i] = random_rate(rng, options);
    deaths[i] = random_rate(rng, options);
    transitions.push_back({i, i + 1, births[i]});
    transitions.push_back({i + 1, i, deaths[i]});
  }
  // Closed form: pi_k = pi_0 * prod_{i<k} births[i]/deaths[i].
  linalg::Vector pi(n, 0.0);
  pi[0] = 1.0;
  for (std::size_t k = 1; k < n; ++k) {
    pi[k] = pi[k - 1] * births[k - 1] / deaths[k - 1];
  }
  double total = 0.0;
  for (double p : pi) total += p;
  for (double& p : pi) p /= total;

  GeneratedModel out{ctmc::Ctmc(std::move(states), std::move(transitions)),
                     "birth-death(n=" + std::to_string(n) + ")",
                     std::move(pi),
                     std::nullopt};
  return out;
}

GeneratedModel random_erlang_chain(stats::RandomEngine& rng,
                                   const RandomModelOptions& options) {
  const std::size_t stages = random_size(rng, options);
  std::vector<ctmc::State> states;
  states.reserve(stages + 1);
  for (std::size_t i = 0; i < stages; ++i) {
    states.push_back({"stage" + std::to_string(i), 1.0});
  }
  states.push_back({"absorbed", 0.0});
  std::vector<ctmc::Transition> transitions;
  double mtta = 0.0;
  for (std::size_t i = 0; i < stages; ++i) {
    const double rate = random_rate(rng, options);
    mtta += 1.0 / rate;
    transitions.push_back({i, i + 1, rate});
  }
  // A slow return edge keeps the chain a valid Ctmc object for any
  // analysis that requires every state to have an exit; absorption
  // analyses treat "absorbed" as a target and ignore its exits.
  transitions.push_back({stages, 0, 1.0});
  GeneratedModel out{ctmc::Ctmc(std::move(states), std::move(transitions)),
                     "erlang(k=" + std::to_string(stages) + ")",
                     std::nullopt,
                     mtta};
  return out;
}

namespace {

// A random rate expression over a, b, c and d, positive in exact
// arithmetic when they are.
std::string random_rate_expression(stats::RandomEngine& rng, int depth) {
  static constexpr const char* kLeaves[] = {"a", "b", "c", "d",
                                            "0.5", "2", "1.25"};
  if (depth == 0 || rng.bernoulli(0.25)) {
    return kLeaves[rng.uniform_index(std::size(kLeaves))];
  }
  const std::string x = random_rate_expression(rng, depth - 1);
  const std::string y = random_rate_expression(rng, depth - 1);
  switch (rng.uniform_index(12)) {
    case 0: return "(" + x + "+" + y + ")";
    case 1: return x + "*" + y;
    case 2: return "(" + x + ")/(" + y + ")";
    case 3: return "(" + x + ")^2";
    case 4: return "(" + x + "-" + "-" + y + ")";
    case 5: return "(" + x + "+" + y + "-" + y + "/2)";
    case 6: return "exp(-(" + x + ")/10)";
    case 7: return "log(1+" + x + ")";
    case 8: return "sqrt(" + x + ")";
    case 9: return "abs(" + x + ")*min(" + x + "," + y + ")";
    case 10: return "max(" + x + "," + y + ")";
    default: return "pow(" + x + ",1.5)";
  }
}

}  // namespace

GeneratedSymbolicModel random_symbolic_ctmc(
    stats::RandomEngine& rng, const RandomModelOptions& options) {
  const std::size_t n = random_size(rng, options);
  GeneratedSymbolicModel out;
  for (const char* name : {"a", "b", "c", "d"}) {
    out.params.set(name, std::exp(rng.uniform(std::log(0.1), std::log(10.0))));
  }
  out.params.set("z", 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    (void)out.model.state("s" + std::to_string(i),
                          i == 0 || !rng.bernoulli(options.down_probability)
                              ? 1.0
                              : 0.0);
  }
  const auto name = [](std::size_t i) { return "s" + std::to_string(i); };
  const auto add = [&](std::size_t from, std::size_t to, bool scalable) {
    std::string rate = random_rate_expression(rng, 3);
    if (scalable && rng.bernoulli(0.3)) rate = "z*(" + rate + ")";
    out.model.rate(name(from), name(to), rate);
  };
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i, ++count) add(i, (i + 1) % n, false);
  // Parallel transitions on one pair.
  const std::size_t from = rng.uniform_index(n);
  const std::size_t to = (from + 1 + rng.uniform_index(n - 1)) % n;
  const std::size_t parallel = 3 + rng.uniform_index(3);
  for (std::size_t k = 0; k < parallel; ++k, ++count) add(from, to, true);
  while (count <= 16) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i != j && rng.bernoulli(options.extra_edge_probability)) {
          add(i, j, true);
          ++count;
        }
      }
    }
  }
  out.description = "symbolic(n=" + std::to_string(n) +
                     ", transitions=" + std::to_string(count) +
                     ", parallel=" + std::to_string(parallel) + ")";
  return out;
}

ctmc::Ctmc rescale_rates(const ctmc::Ctmc& chain, double factor) {
  if (!(factor > 0.0) || !std::isfinite(factor)) {
    throw std::invalid_argument("rescale_rates: factor must be positive");
  }
  std::vector<ctmc::Transition> transitions = chain.transitions();
  for (ctmc::Transition& t : transitions) t.rate *= factor;
  return ctmc::Ctmc(chain.states(), std::move(transitions));
}

ctmc::Ctmc permute_states(const ctmc::Ctmc& chain,
                          const std::vector<std::size_t>& perm) {
  const std::size_t n = chain.num_states();
  if (perm.size() != n) {
    throw std::invalid_argument("permute_states: permutation size mismatch");
  }
  std::vector<bool> seen(n, false);
  for (const std::size_t p : perm) {
    if (p >= n || seen[p]) {
      throw std::invalid_argument("permute_states: not a permutation");
    }
    seen[p] = true;
  }
  std::vector<ctmc::State> states(n);
  for (std::size_t i = 0; i < n; ++i) states[perm[i]] = chain.states()[i];
  std::vector<ctmc::Transition> transitions = chain.transitions();
  for (ctmc::Transition& t : transitions) {
    t.from = perm[t.from];
    t.to = perm[t.to];
  }
  return ctmc::Ctmc(std::move(states), std::move(transitions));
}

std::vector<std::size_t> random_permutation(std::size_t n,
                                            stats::RandomEngine& rng) {
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = rng.uniform_index(i);
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

RawModel raw_model(const ctmc::Ctmc& chain) {
  return {chain.states(), chain.transitions()};
}

const std::vector<ModelFault>& all_model_faults() {
  static const std::vector<ModelFault> faults = {
      ModelFault::kNegativeRate,      ModelFault::kNonFiniteRate,
      ModelFault::kSelfLoop,          ModelFault::kDanglingEndpoint,
      ModelFault::kNonFiniteReward,   ModelFault::kBadStateName,
      ModelFault::kUnreachableState,  ModelFault::kAbsorbingState,
      ModelFault::kDisconnectedClass,
  };
  return faults;
}

const char* expected_code(ModelFault fault) {
  switch (fault) {
    case ModelFault::kUnreachableState: return "R011";
    case ModelFault::kAbsorbingState: return "R012";
    case ModelFault::kDisconnectedClass: return "R013";
    case ModelFault::kNegativeRate:
    case ModelFault::kNonFiniteRate:
    case ModelFault::kSelfLoop:
    case ModelFault::kDanglingEndpoint:
    case ModelFault::kNonFiniteReward:
    case ModelFault::kBadStateName:
      break;
  }
  return nullptr;
}

RawModel inject_fault(const RawModel& model, ModelFault fault,
                      stats::RandomEngine& rng) {
  RawModel out = model;
  if (out.states.empty() || out.transitions.empty()) {
    throw std::invalid_argument("inject_fault: model must be non-trivial");
  }
  const std::size_t t = rng.uniform_index(out.transitions.size());
  const std::size_t s = rng.uniform_index(out.states.size());
  switch (fault) {
    case ModelFault::kNegativeRate:
      out.transitions[t].rate = -out.transitions[t].rate;
      break;
    case ModelFault::kNonFiniteRate:
      out.transitions[t].rate = std::numeric_limits<double>::quiet_NaN();
      break;
    case ModelFault::kSelfLoop:
      out.transitions[t].to = out.transitions[t].from;
      break;
    case ModelFault::kDanglingEndpoint:
      out.transitions[t].to = out.states.size();
      break;
    case ModelFault::kNonFiniteReward:
      out.states[s].reward = std::numeric_limits<double>::infinity();
      break;
    case ModelFault::kBadStateName:
      out.states[s].name =
          out.states[(s + 1) % out.states.size()].name;
      break;
    case ModelFault::kUnreachableState:
      // Orphan with an exit but no entrance: unreachable, and its
      // transition can never fire.
      out.transitions.push_back({out.states.size(), 0, 1.0});
      out.states.push_back({"mutant_orphan", 1.0});
      break;
    case ModelFault::kAbsorbingState:
      // Trap with an entrance but no exit.
      out.transitions.push_back(
          {out.transitions[t].from, out.states.size(), 1.0});
      out.states.push_back({"mutant_trap", 0.0});
      break;
    case ModelFault::kDisconnectedClass:
      // Two-state island, internally connected, cut off from the rest.
      out.transitions.push_back(
          {out.states.size(), out.states.size() + 1, 1.0});
      out.transitions.push_back(
          {out.states.size() + 1, out.states.size(), 1.0});
      out.states.push_back({"mutant_island_a", 1.0});
      out.states.push_back({"mutant_island_b", 0.0});
      break;
  }
  return out;
}

}  // namespace rascal::check
