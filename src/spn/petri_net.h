// Generalized stochastic Petri nets (GSPN), in the SPNP / UltraSAN
// tradition the paper cites as the standard route to large Markov
// models: places hold tokens, timed transitions fire after an
// exponential delay (possibly marking-dependent), immediate
// transitions fire in zero time by priority and weight, and guards
// add enabling predicates on top of the input arcs.  reachability.h
// converts a bounded net into a ctmc::Ctmc.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace rascal::spn {

using PlaceId = std::size_t;
using TransitionId = std::size_t;
using Marking = std::vector<std::uint32_t>;

/// Marking-dependent rate (timed) or weight (immediate).
using RateFunction = std::function<double(const Marking&)>;
/// Extra enabling predicate on top of arc conditions.
using GuardFunction = std::function<bool(const Marking&)>;

class PetriNet {
 public:
  /// Adds a place with an initial token count; returns its id.
  PlaceId add_place(std::string name, std::uint32_t initial_tokens = 0);

  /// Adds an exponential transition with a fixed rate (> 0).
  TransitionId add_timed_transition(std::string name, double rate);
  /// Adds an exponential transition with a marking-dependent rate;
  /// the transition is disabled in markings where the rate is <= 0.
  TransitionId add_timed_transition(std::string name, RateFunction rate);

  /// Adds an immediate transition.  Among enabled immediates, only
  /// those of maximal priority may fire, with probability
  /// weight / (total weight of maximal-priority enabled immediates).
  TransitionId add_immediate_transition(std::string name, double weight = 1.0,
                                        int priority = 0);

  /// Firing `transition` consumes `multiplicity` tokens from `place`.
  PetriNet& input_arc(TransitionId transition, PlaceId place,
                      std::uint32_t multiplicity = 1);
  /// Firing `transition` deposits `multiplicity` tokens into `place`.
  PetriNet& output_arc(TransitionId transition, PlaceId place,
                       std::uint32_t multiplicity = 1);

  /// Attaches an additional guard predicate.
  PetriNet& set_guard(TransitionId transition, GuardFunction guard);

  [[nodiscard]] std::size_t num_places() const noexcept {
    return places_.size();
  }
  [[nodiscard]] std::size_t num_transitions() const noexcept {
    return transitions_.size();
  }
  [[nodiscard]] Marking initial_marking() const;

  [[nodiscard]] bool is_immediate(TransitionId id) const;
  [[nodiscard]] int priority(TransitionId id) const;

  /// Arc-and-guard enabling test (ignores the priority rule among
  /// immediates, which reachability applies globally).
  [[nodiscard]] bool is_enabled(TransitionId id, const Marking& m) const;

  /// Rate (timed) or weight (immediate) in marking `m`.
  [[nodiscard]] double rate(TransitionId id, const Marking& m) const;

  /// Fires an enabled transition; throws std::logic_error when not
  /// enabled.
  [[nodiscard]] Marking fire(TransitionId id, const Marking& m) const;

  /// Human-readable marking, e.g. "NodesOk=2" (zero places omitted;
  /// the empty marking renders as "empty").
  [[nodiscard]] std::string format_marking(const Marking& m) const;

 private:
  struct Arc {
    PlaceId place = 0;
    std::uint32_t multiplicity = 1;
  };
  struct Transition {
    std::string name;
    bool immediate = false;
    int priority = 0;
    RateFunction rate;  // weight for immediates
    std::vector<Arc> inputs;
    std::vector<Arc> outputs;
    GuardFunction guard;  // may be empty
  };
  struct Place {
    std::string name;
    std::uint32_t initial = 0;
  };

  void check_place(PlaceId id) const;
  void check_transition(TransitionId id) const;

  std::vector<Place> places_;
  std::vector<Transition> transitions_;
};

}  // namespace rascal::spn
