#include "spn/reachability.h"

#include <deque>
#include <map>
#include <set>
#include <stdexcept>

namespace rascal::spn {

namespace {

// Transitions eligible to fire in `m` under the GSPN rule: immediates
// of maximal priority pre-empt timed transitions.
std::vector<TransitionId> eligible(const PetriNet& net, const Marking& m) {
  std::vector<TransitionId> timed;
  std::vector<TransitionId> immediate;
  int best_priority = 0;
  for (TransitionId t = 0; t < net.num_transitions(); ++t) {
    if (!net.is_enabled(t, m)) continue;
    if (net.is_immediate(t)) {
      if (immediate.empty() || net.priority(t) > best_priority) {
        immediate.clear();
        best_priority = net.priority(t);
      }
      if (net.priority(t) == best_priority) immediate.push_back(t);
    } else {
      timed.push_back(t);
    }
  }
  return immediate.empty() ? timed : immediate;
}

bool is_vanishing(const PetriNet& net, const Marking& m) {
  for (TransitionId t = 0; t < net.num_transitions(); ++t) {
    if (net.is_immediate(t) && net.is_enabled(t, m)) return true;
  }
  return false;
}

class Explorer {
 public:
  Explorer(const PetriNet& net, const RewardFunction& reward,
           const ReachabilityOptions& options)
      : net_(net), reward_(reward), options_(options) {}

  GeneratedCtmc run() {
    explore();
    GeneratedCtmc out{make_chain(), std::move(markings_)};
    return out;
  }

 private:
  void explore() {
    const Marking initial = net_.initial_marking();
    std::vector<std::pair<Marking, double>> roots;
    if (is_vanishing(net_, initial)) {
      std::set<Marking> on_path;
      resolve(initial, 1.0, roots, on_path, 0);
    } else {
      roots.emplace_back(initial, 1.0);
    }
    if (roots.empty()) {
      throw std::runtime_error(
          "generate_ctmc: no tangible marking reachable from the initial "
          "marking");
    }

    std::deque<std::size_t> frontier;
    for (const auto& [marking, probability] : roots) {
      frontier.push_back(intern(marking));
    }
    while (!frontier.empty()) {
      const std::size_t id = frontier.front();
      frontier.pop_front();
      // Copy: markings_ may reallocate during expansion.
      const Marking m = markings_[id];
      for (TransitionId t : eligible(net_, m)) {
        const double rate = net_.rate(t, m);
        const Marking next = net_.fire(t, m);
        std::vector<std::pair<Marking, double>> targets;
        if (is_vanishing(net_, next)) {
          std::set<Marking> on_path;
          resolve(next, 1.0, targets, on_path, 0);
        } else {
          targets.emplace_back(next, 1.0);
        }
        for (const auto& [target, probability] : targets) {
          const bool known = index_.count(target) != 0;
          const std::size_t target_id = intern(target);
          if (!known) frontier.push_back(target_id);
          if (target_id != id) {
            transitions_.push_back({id, target_id, rate * probability});
          }
        }
      }
    }
  }

  std::size_t intern(const Marking& m) {
    const auto [it, inserted] = index_.try_emplace(m, markings_.size());
    if (inserted) {
      if (markings_.size() >= options_.max_tangible_markings) {
        throw std::runtime_error(
            "generate_ctmc: tangible state space exceeds "
            "max_tangible_markings");
      }
      markings_.push_back(m);
    }
    return it->second;
  }

  // Distributes probability mass from a vanishing marking over the
  // tangible markings reachable by immediate firings.
  void resolve(const Marking& m, double probability,
               std::vector<std::pair<Marking, double>>& out,
               std::set<Marking>& on_path, std::size_t depth) {
    if (depth > options_.max_vanishing_depth) {
      throw std::runtime_error(
          "generate_ctmc: immediate-transition chain exceeds "
          "max_vanishing_depth");
    }
    if (!on_path.insert(m).second) {
      throw std::runtime_error(
          "generate_ctmc: vanishing loop (cycle of immediate transitions)");
    }
    const std::vector<TransitionId> immediates = eligible(net_, m);
    double total_weight = 0.0;
    for (TransitionId t : immediates) total_weight += net_.rate(t, m);
    for (TransitionId t : immediates) {
      const double p = probability * net_.rate(t, m) / total_weight;
      const Marking next = net_.fire(t, m);
      if (is_vanishing(net_, next)) {
        resolve(next, p, out, on_path, depth + 1);
      } else {
        out.emplace_back(next, p);
      }
    }
    on_path.erase(m);
  }

  ctmc::Ctmc make_chain() const {
    std::vector<ctmc::State> states;
    states.reserve(markings_.size());
    std::map<std::string, std::size_t> name_counts;
    for (const Marking& m : markings_) {
      std::string name = net_.format_marking(m);
      // format_marking is injective for distinct markings, but guard
      // against pathological place names colliding.
      const auto count = ++name_counts[name];
      if (count > 1) name += "#" + std::to_string(count);
      states.push_back({std::move(name), reward_(m)});
    }
    return ctmc::Ctmc(states, transitions_);
  }

  const PetriNet& net_;
  const RewardFunction& reward_;
  const ReachabilityOptions& options_;

  std::map<Marking, std::size_t> index_;
  std::vector<Marking> markings_;
  std::vector<ctmc::Transition> transitions_;
};

}  // namespace

GeneratedCtmc generate_ctmc(const PetriNet& net, const RewardFunction& reward,
                            const ReachabilityOptions& options) {
  if (net.num_places() == 0) {
    throw std::invalid_argument("generate_ctmc: net has no places");
  }
  if (!reward) {
    throw std::invalid_argument("generate_ctmc: null reward function");
  }
  Explorer explorer(net, reward, options);
  return explorer.run();
}

}  // namespace rascal::spn
