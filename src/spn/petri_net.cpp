#include "spn/petri_net.h"

#include <stdexcept>

namespace rascal::spn {

PlaceId PetriNet::add_place(std::string name, std::uint32_t initial_tokens) {
  places_.push_back({std::move(name), initial_tokens});
  return places_.size() - 1;
}

TransitionId PetriNet::add_timed_transition(std::string name, double rate) {
  if (!(rate > 0.0)) {
    throw std::invalid_argument("PetriNet: timed rate must be > 0");
  }
  return add_timed_transition(std::move(name),
                              [rate](const Marking&) { return rate; });
}

TransitionId PetriNet::add_timed_transition(std::string name,
                                            RateFunction rate) {
  if (!rate) {
    throw std::invalid_argument("PetriNet: null rate function");
  }
  Transition t;
  t.name = std::move(name);
  t.rate = std::move(rate);
  transitions_.push_back(std::move(t));
  return transitions_.size() - 1;
}

TransitionId PetriNet::add_immediate_transition(std::string name,
                                                double weight, int priority) {
  if (!(weight > 0.0)) {
    throw std::invalid_argument("PetriNet: immediate weight must be > 0");
  }
  Transition t;
  t.name = std::move(name);
  t.immediate = true;
  t.priority = priority;
  t.rate = [weight](const Marking&) { return weight; };
  transitions_.push_back(std::move(t));
  return transitions_.size() - 1;
}

void PetriNet::check_place(PlaceId id) const {
  if (id >= places_.size()) {
    throw std::out_of_range("PetriNet: place id out of range");
  }
}

void PetriNet::check_transition(TransitionId id) const {
  if (id >= transitions_.size()) {
    throw std::out_of_range("PetriNet: transition id out of range");
  }
}

PetriNet& PetriNet::input_arc(TransitionId transition, PlaceId place,
                              std::uint32_t multiplicity) {
  check_transition(transition);
  check_place(place);
  if (multiplicity == 0) {
    throw std::invalid_argument("PetriNet: zero-multiplicity arc");
  }
  transitions_[transition].inputs.push_back({place, multiplicity});
  return *this;
}

PetriNet& PetriNet::output_arc(TransitionId transition, PlaceId place,
                               std::uint32_t multiplicity) {
  check_transition(transition);
  check_place(place);
  if (multiplicity == 0) {
    throw std::invalid_argument("PetriNet: zero-multiplicity arc");
  }
  transitions_[transition].outputs.push_back({place, multiplicity});
  return *this;
}

PetriNet& PetriNet::set_guard(TransitionId transition, GuardFunction guard) {
  check_transition(transition);
  transitions_[transition].guard = std::move(guard);
  return *this;
}

Marking PetriNet::initial_marking() const {
  Marking m(places_.size());
  for (std::size_t i = 0; i < places_.size(); ++i) m[i] = places_[i].initial;
  return m;
}

bool PetriNet::is_immediate(TransitionId id) const {
  check_transition(id);
  return transitions_[id].immediate;
}

int PetriNet::priority(TransitionId id) const {
  check_transition(id);
  return transitions_[id].priority;
}

bool PetriNet::is_enabled(TransitionId id, const Marking& m) const {
  check_transition(id);
  const Transition& t = transitions_[id];
  if (m.size() != places_.size()) {
    throw std::invalid_argument("PetriNet: marking size mismatch");
  }
  for (const Arc& a : t.inputs) {
    if (m[a.place] < a.multiplicity) return false;
  }
  if (t.guard && !t.guard(m)) return false;
  if (!t.immediate && !(t.rate(m) > 0.0)) return false;
  return true;
}

double PetriNet::rate(TransitionId id, const Marking& m) const {
  check_transition(id);
  return transitions_[id].rate(m);
}

Marking PetriNet::fire(TransitionId id, const Marking& m) const {
  if (!is_enabled(id, m)) {
    throw std::logic_error("PetriNet::fire: transition '" +
                           transitions_[id].name + "' is not enabled");
  }
  Marking next = m;
  const Transition& t = transitions_[id];
  for (const Arc& a : t.inputs) next[a.place] -= a.multiplicity;
  for (const Arc& a : t.outputs) next[a.place] += a.multiplicity;
  return next;
}

std::string PetriNet::format_marking(const Marking& m) const {
  std::string out;
  for (std::size_t i = 0; i < m.size() && i < places_.size(); ++i) {
    if (m[i] == 0) continue;
    if (!out.empty()) out += ",";
    out += places_[i].name + "=" + std::to_string(m[i]);
  }
  return out.empty() ? "empty" : out;
}

}  // namespace rascal::spn
