#include "spn/petri_net.h"

#include <gtest/gtest.h>

#include <cmath>

#include "ctmc/steady_state.h"
#include "spn/reachability.h"

namespace rascal::spn {
namespace {

RewardFunction up_when_empty(PlaceId place) {
  return [place](const Marking& m) { return m[place] == 0 ? 1.0 : 0.0; };
}

TEST(PetriNet, TokenGameBasics) {
  PetriNet net;
  const PlaceId a = net.add_place("A", 2);
  const PlaceId b = net.add_place("B");
  const TransitionId t = net.add_timed_transition("move", 1.0);
  net.input_arc(t, a).output_arc(t, b);

  Marking m = net.initial_marking();
  EXPECT_EQ(m[a], 2u);
  EXPECT_TRUE(net.is_enabled(t, m));
  m = net.fire(t, m);
  EXPECT_EQ(m[a], 1u);
  EXPECT_EQ(m[b], 1u);
  m = net.fire(t, m);
  EXPECT_FALSE(net.is_enabled(t, m));
  EXPECT_THROW((void)net.fire(t, m), std::logic_error);
}

TEST(PetriNet, MultiplicityRespected) {
  PetriNet net;
  const PlaceId a = net.add_place("A", 3);
  const PlaceId b = net.add_place("B");
  const TransitionId t = net.add_timed_transition("pair", 1.0);
  net.input_arc(t, a, 2).output_arc(t, b, 5);
  Marking m = net.fire(t, net.initial_marking());
  EXPECT_EQ(m[a], 1u);
  EXPECT_EQ(m[b], 5u);
  EXPECT_FALSE(net.is_enabled(t, m));  // only 1 token left, needs 2
}

TEST(PetriNet, GuardsAndMarkingDependentRates) {
  PetriNet net;
  const PlaceId a = net.add_place("A", 3);
  const TransitionId t = net.add_timed_transition(
      "drain", [a](const Marking& m) { return 2.0 * m[a]; });
  net.input_arc(t, a);
  net.set_guard(t, [a](const Marking& m) { return m[a] >= 2; });

  Marking m = net.initial_marking();
  EXPECT_DOUBLE_EQ(net.rate(t, m), 6.0);
  EXPECT_TRUE(net.is_enabled(t, m));
  m[a] = 1;
  EXPECT_FALSE(net.is_enabled(t, m));  // guard blocks
}

TEST(PetriNet, Validation) {
  PetriNet net;
  const PlaceId a = net.add_place("A", 1);
  EXPECT_THROW((void)net.add_timed_transition("bad", 0.0),
               std::invalid_argument);
  EXPECT_THROW((void)net.add_immediate_transition("bad", 0.0),
               std::invalid_argument);
  const TransitionId t = net.add_timed_transition("ok", 1.0);
  EXPECT_THROW((void)net.input_arc(t, 99), std::out_of_range);
  EXPECT_THROW((void)net.input_arc(t, a, 0), std::invalid_argument);
  EXPECT_THROW((void)net.input_arc(99, a), std::out_of_range);
}

TEST(PetriNet, FormatMarking) {
  PetriNet net;
  net.add_place("P1", 2);
  net.add_place("P2");
  net.add_place("P3", 1);
  EXPECT_EQ(net.format_marking(net.initial_marking()), "P1=2,P3=1");
  EXPECT_EQ(net.format_marking({0, 0, 0}), "empty");
}

// M/M/1/K queue as an SPN: birth-death chain with known stationary
// distribution.
TEST(Reachability, Mm1kQueueMatchesBirthDeathFormula) {
  const double arrival = 0.8;
  const double service = 1.0;
  const std::uint32_t k = 5;

  PetriNet net;
  const PlaceId queue = net.add_place("Queue", 0);
  const PlaceId slots = net.add_place("Slots", k);
  const TransitionId arrive = net.add_timed_transition("arrive", arrival);
  net.input_arc(arrive, slots).output_arc(arrive, queue);
  const TransitionId serve = net.add_timed_transition("serve", service);
  net.input_arc(serve, queue).output_arc(serve, slots);

  const auto generated =
      generate_ctmc(net, [](const Marking&) { return 1.0; });
  EXPECT_EQ(generated.chain.num_states(), k + 1);

  const auto steady = ctmc::solve_steady_state(generated.chain);
  // pi_i proportional to rho^i.
  const double rho = arrival / service;
  for (std::size_t i = 0; i < generated.markings.size(); ++i) {
    const std::uint32_t customers = generated.markings[i][queue];
    const std::uint32_t customers0 = generated.markings[0][queue];
    const double expected_ratio =
        std::pow(rho, static_cast<double>(customers) -
                          static_cast<double>(customers0));
    EXPECT_NEAR(steady.probability(i) / steady.probability(0),
                expected_ratio, 1e-10);
  }
}

TEST(Reachability, ImmediateTransitionsAreEliminated) {
  // Timed A->B where B instantly branches 30/70 to C or D.
  PetriNet net;
  const PlaceId a = net.add_place("A", 1);
  const PlaceId b = net.add_place("B");
  const PlaceId c = net.add_place("C");
  const PlaceId d = net.add_place("D");
  const TransitionId go = net.add_timed_transition("go", 2.0);
  net.input_arc(go, a).output_arc(go, b);
  const TransitionId to_c = net.add_immediate_transition("to_c", 3.0);
  net.input_arc(to_c, b).output_arc(to_c, c);
  const TransitionId to_d = net.add_immediate_transition("to_d", 7.0);
  net.input_arc(to_d, b).output_arc(to_d, d);
  const TransitionId back_c = net.add_timed_transition("back_c", 1.0);
  net.input_arc(back_c, c).output_arc(back_c, a);
  const TransitionId back_d = net.add_timed_transition("back_d", 1.0);
  net.input_arc(back_d, d).output_arc(back_d, a);

  const auto generated =
      generate_ctmc(net, up_when_empty(d));
  // Tangible states: {A}, {C}, {D}; the vanishing {B} is eliminated.
  EXPECT_EQ(generated.chain.num_states(), 3u);
  const auto id_a = generated.chain.state("A=1");
  const auto id_c = generated.chain.state("C=1");
  const auto id_d = generated.chain.state("D=1");
  EXPECT_NEAR(generated.chain.rate(id_a, id_c), 2.0 * 0.3, 1e-12);
  EXPECT_NEAR(generated.chain.rate(id_a, id_d), 2.0 * 0.7, 1e-12);
}

TEST(Reachability, PrioritiesPreemptLowerImmediates) {
  PetriNet net;
  const PlaceId a = net.add_place("A", 1);
  const PlaceId b = net.add_place("B");
  const PlaceId hi = net.add_place("Hi");
  const PlaceId lo = net.add_place("Lo");
  const TransitionId go = net.add_timed_transition("go", 1.0);
  net.input_arc(go, a).output_arc(go, b);
  const TransitionId t_hi = net.add_immediate_transition("hi", 1.0, 2);
  net.input_arc(t_hi, b).output_arc(t_hi, hi);
  const TransitionId t_lo = net.add_immediate_transition("lo", 1.0, 1);
  net.input_arc(t_lo, b).output_arc(t_lo, lo);
  const TransitionId back = net.add_timed_transition("back", 1.0);
  net.input_arc(back, hi).output_arc(back, a);

  const auto generated = generate_ctmc(net, [](const Marking&) {
    return 1.0;
  });
  // Only the high-priority branch is ever taken: states {A}, {Hi}.
  EXPECT_EQ(generated.chain.num_states(), 2u);
  EXPECT_FALSE(generated.chain.find_state("Lo=1").has_value());
}

TEST(Reachability, ChainedImmediatesResolveTransitively) {
  PetriNet net;
  const PlaceId a = net.add_place("A", 1);
  const PlaceId b = net.add_place("B");
  const PlaceId c = net.add_place("C");
  const PlaceId d = net.add_place("D");
  const TransitionId go = net.add_timed_transition("go", 1.0);
  net.input_arc(go, a).output_arc(go, b);
  const TransitionId i1 = net.add_immediate_transition("i1");
  net.input_arc(i1, b).output_arc(i1, c);
  const TransitionId i2 = net.add_immediate_transition("i2");
  net.input_arc(i2, c).output_arc(i2, d);
  const TransitionId back = net.add_timed_transition("back", 1.0);
  net.input_arc(back, d).output_arc(back, a);

  const auto generated =
      generate_ctmc(net, [](const Marking&) { return 1.0; });
  EXPECT_EQ(generated.chain.num_states(), 2u);
  EXPECT_TRUE(generated.chain.find_state("D=1").has_value());
}

TEST(Reachability, VanishingLoopIsReported) {
  PetriNet net;
  const PlaceId a = net.add_place("A", 1);
  const PlaceId b = net.add_place("B");
  const TransitionId go = net.add_timed_transition("go", 1.0);
  net.input_arc(go, a).output_arc(go, b);
  // Two immediates that bounce the token forever.
  const TransitionId i1 = net.add_immediate_transition("i1");
  net.input_arc(i1, b).output_arc(i1, a);
  const TransitionId i2 = net.add_immediate_transition("i2");
  net.input_arc(i2, a).output_arc(i2, b);
  EXPECT_THROW(
      (void)generate_ctmc(net, [](const Marking&) { return 1.0; }),
      std::runtime_error);
}

TEST(Reachability, StateSpaceLimitEnforced) {
  // Unbounded net: a source transition with no inputs.
  PetriNet net;
  const PlaceId a = net.add_place("A", 0);
  const TransitionId grow = net.add_timed_transition("grow", 1.0);
  net.output_arc(grow, a);
  ReachabilityOptions options;
  options.max_tangible_markings = 50;
  EXPECT_THROW((void)generate_ctmc(
                   net, [](const Marking&) { return 1.0; }, options),
               std::runtime_error);
}

TEST(Reachability, RejectsBadInput) {
  PetriNet empty;
  EXPECT_THROW(
      (void)generate_ctmc(empty, [](const Marking&) { return 1.0; }),
      std::invalid_argument);
  PetriNet net;
  net.add_place("A", 1);
  EXPECT_THROW((void)generate_ctmc(net, RewardFunction{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace rascal::spn
