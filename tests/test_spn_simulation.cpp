#include "check/spn_simulation.h"

#include <gtest/gtest.h>

#include "check/spn_variants.h"
#include "core/metrics.h"
#include "ctmc/steady_state.h"
#include "models/params.h"
#include "spn/reachability.h"

namespace rascal::spn {
namespace {

using check::simulate_spn;
using check::SpnSimOptions;

// M/M/1/K queue: simulated utilization must match the generated-CTMC
// solution.
PetriNet mm1k(double arrival, double service, std::uint32_t k) {
  PetriNet net;
  const PlaceId queue = net.add_place("Queue", 0);
  const PlaceId slots = net.add_place("Slots", k);
  const TransitionId arrive = net.add_timed_transition("arrive", arrival);
  net.input_arc(arrive, slots).output_arc(arrive, queue);
  const TransitionId serve = net.add_timed_transition("serve", service);
  net.input_arc(serve, queue).output_arc(serve, slots);
  return net;
}

TEST(SpnSimulation, Mm1kUtilizationMatchesAnalytic) {
  const PetriNet net = mm1k(0.7, 1.0, 4);
  const PlaceId queue = 0;
  const RewardFunction busy = [queue](const Marking& m) {
    return m[queue] > 0 ? 1.0 : 0.0;
  };
  const auto generated = generate_ctmc(net, busy);
  const double analytic =
      core::solve_availability(generated.chain).expected_reward_rate;

  SpnSimOptions options;
  options.duration = 20000.0;
  options.replications = 6;
  const auto simulated = simulate_spn(net, busy, options);
  EXPECT_NEAR(simulated.mean_reward, analytic, 0.01);
  EXPECT_GT(simulated.timed_firings, 10000u);
  EXPECT_EQ(simulated.immediate_firings, 0u);
}

TEST(SpnSimulation, ImmediateTransitionsFireInstantly) {
  // Timed A->B, immediate B->C, timed C->A: reward only in C.  The
  // token never rests in B, so P(B) = 0 and the immediates fire once
  // per cycle.
  PetriNet net;
  const PlaceId a = net.add_place("A", 1);
  const PlaceId b = net.add_place("B");
  const PlaceId c = net.add_place("C");
  const TransitionId go = net.add_timed_transition("go", 2.0);
  net.input_arc(go, a).output_arc(go, b);
  const TransitionId flush = net.add_immediate_transition("flush");
  net.input_arc(flush, b).output_arc(flush, c);
  const TransitionId back = net.add_timed_transition("back", 2.0);
  net.input_arc(back, c).output_arc(back, a);

  SpnSimOptions options;
  options.duration = 5000.0;
  options.replications = 4;
  const auto result = simulate_spn(
      net, [c](const Marking& m) { return m[c] > 0 ? 1.0 : 0.0; },
      options);
  EXPECT_NEAR(result.mean_reward, 0.5, 0.02);
  EXPECT_GT(result.immediate_firings, 0u);
}

TEST(SpnSimulation, HadbPairSpnMatchesGeneratedChain) {
  const auto params = models::default_parameters();
  // Stress the rates so the simulation converges quickly.
  auto stressed = params;
  stressed.set("hadb_La_hadb", 200.0 / 8760.0)
      .set("hadb_La_os", 100.0 / 8760.0)
      .set("hadb_La_hw", 100.0 / 8760.0);
  const PetriNet net = check::hadb_pair_spn(stressed);
  const auto reward = check::hadb_pair_spn_reward();
  const auto generated = generate_ctmc(net, reward);
  const double analytic =
      core::solve_availability(generated.chain).availability;

  SpnSimOptions options;
  options.duration = 50000.0;
  options.replications = 6;
  const auto simulated = simulate_spn(net, reward, options);
  EXPECT_NEAR(simulated.mean_reward, analytic, 5e-4);
}

TEST(SpnSimulation, DeadMarkingHoldsRewardForever) {
  PetriNet net;
  const PlaceId a = net.add_place("A", 1);
  const PlaceId done = net.add_place("Done");
  const TransitionId finish = net.add_timed_transition("finish", 10.0);
  net.input_arc(finish, a).output_arc(finish, done);
  SpnSimOptions options;
  options.duration = 100.0;
  options.replications = 4;
  const auto result = simulate_spn(
      net, [done](const Marking& m) { return m[done] > 0 ? 1.0 : 0.0; },
      options);
  // Nearly the whole horizon is spent in the dead Done marking.
  EXPECT_GT(result.mean_reward, 0.99);
}

TEST(SpnSimulation, DetectsVanishingLoops) {
  PetriNet net;
  const PlaceId a = net.add_place("A", 1);
  const PlaceId b = net.add_place("B");
  const TransitionId i1 = net.add_immediate_transition("i1");
  net.input_arc(i1, a).output_arc(i1, b);
  const TransitionId i2 = net.add_immediate_transition("i2");
  net.input_arc(i2, b).output_arc(i2, a);
  SpnSimOptions options;
  options.replications = 1;
  EXPECT_THROW((void)simulate_spn(
                   net, [](const Marking&) { return 1.0; }, options),
               std::runtime_error);
}

TEST(SpnSimulation, Validation) {
  const PetriNet net = mm1k(1.0, 1.0, 2);
  SpnSimOptions options;
  options.replications = 0;
  EXPECT_THROW((void)simulate_spn(
                   net, [](const Marking&) { return 1.0; }, options),
               std::invalid_argument);
  options.replications = 1;
  EXPECT_THROW((void)simulate_spn(net, RewardFunction{}, options),
               std::invalid_argument);
}

}  // namespace
}  // namespace rascal::spn
