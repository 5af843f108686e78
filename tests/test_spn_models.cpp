// Cross-validation: the GSPN formulations of the paper's submodels
// must generate chains equivalent to the hand-built Figure 3/4 models.
#include <gtest/gtest.h>

#include "core/metrics.h"
#include "ctmc/steady_state.h"
#include "models/app_server.h"
#include "models/hadb_pair.h"
#include "models/params.h"
#include "check/spn_variants.h"
#include "spn/reachability.h"

namespace rascal::models {
namespace {

using check::app_server_spn;
using check::app_server_spn_reward;
using check::hadb_pair_spn;
using check::hadb_pair_spn_reward;

TEST(HadbPairSpn, GeneratesSixTangibleStates) {
  const auto params = default_parameters();
  const auto generated =
      spn::generate_ctmc(hadb_pair_spn(params), hadb_pair_spn_reward());
  EXPECT_EQ(generated.chain.num_states(), 6u);
}

TEST(HadbPairSpn, MatchesHandBuiltModelExactly) {
  const auto params = default_parameters();
  const auto direct = core::solve_availability(hadb_pair_model().bind(params));
  const auto generated =
      spn::generate_ctmc(hadb_pair_spn(params), hadb_pair_spn_reward());
  const auto from_spn = core::solve_availability(generated.chain);

  EXPECT_NEAR(from_spn.availability, direct.availability, 1e-14);
  EXPECT_NEAR(from_spn.failure_frequency, direct.failure_frequency, 1e-16);
  EXPECT_NEAR(from_spn.mtbf_hours, direct.mtbf_hours, direct.mtbf_hours * 1e-9);
}

TEST(HadbPairSpn, ZeroFirStillBuilds) {
  auto params = default_parameters();
  params.set("hadb_FIR", 0.0);
  const auto generated =
      spn::generate_ctmc(hadb_pair_spn(params), hadb_pair_spn_reward());
  const auto direct = core::solve_availability(hadb_pair_model().bind(params));
  const auto from_spn = core::solve_availability(generated.chain);
  EXPECT_NEAR(from_spn.availability, direct.availability, 1e-14);
}

class AppServerSpnSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AppServerSpnSizes, MatchesDirectNInstanceModel) {
  const std::size_t n = GetParam();
  const auto params = default_parameters();
  const auto generated = spn::generate_ctmc(app_server_spn(n, params),
                                            app_server_spn_reward());
  // Tangible states must match the direct model's count.
  const ctmc::Ctmc direct_chain = app_server_n_instance_model(n).bind(params);
  EXPECT_EQ(generated.chain.num_states(), direct_chain.num_states());

  const auto direct = core::solve_availability(direct_chain);
  const auto from_spn = core::solve_availability(generated.chain);
  EXPECT_NEAR(from_spn.availability, direct.availability,
              1e-11 * direct.availability + 1e-15);
  EXPECT_NEAR(from_spn.failure_frequency, direct.failure_frequency,
              1e-9 * direct.failure_frequency + 1e-20);
}

INSTANTIATE_TEST_SUITE_P(Ns, AppServerSpnSizes,
                         ::testing::Values(2, 3, 4, 5));

TEST(AppServerSpn, VanishingFlushAbandonsInFlightRestarts) {
  // The tangible chain must contain the pure ClusterDown marking and
  // no marking combining ClusterDown with leftover restart tokens.
  const auto params = default_parameters();
  const auto generated =
      spn::generate_ctmc(app_server_spn(3, params), app_server_spn_reward());
  bool found_pure_down = false;
  for (std::size_t i = 0; i < generated.chain.num_states(); ++i) {
    const std::string& name = generated.chain.state_name(i);
    if (name.find("ClusterDown") != std::string::npos) {
      EXPECT_EQ(name, "ClusterDown=1");
      found_pure_down = true;
    }
  }
  EXPECT_TRUE(found_pure_down);
}

TEST(AppServerSpn, RejectsSingleInstance) {
  EXPECT_THROW((void)app_server_spn(1, default_parameters()),
               std::invalid_argument);
}

}  // namespace
}  // namespace rascal::models
