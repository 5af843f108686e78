// SPN substrate microbenchmarks: reachability-graph generation and
// vanishing-marking elimination cost for the paper's models and for
// growing synthetic nets.  google-benchmark binary.
#include <benchmark/benchmark.h>

#include "check/spn_variants.h"
#include "models/params.h"
#include "spn/reachability.h"

namespace {

using namespace rascal;

void BM_HadbPairGeneration(benchmark::State& state) {
  const auto params = models::default_parameters();
  const auto net = check::hadb_pair_spn(params);
  const auto reward = check::hadb_pair_spn_reward();
  for (auto _ : state) {
    benchmark::DoNotOptimize(spn::generate_ctmc(net, reward));
  }
}
BENCHMARK(BM_HadbPairGeneration);

void BM_AppServerGeneration(benchmark::State& state) {
  const auto params = models::default_parameters();
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto net = check::app_server_spn(n, params);
  const auto reward = check::app_server_spn_reward();
  std::size_t states_generated = 0;
  for (auto _ : state) {
    const auto generated = spn::generate_ctmc(net, reward);
    states_generated = generated.chain.num_states();
    benchmark::DoNotOptimize(generated);
  }
  state.counters["tangible_states"] =
      static_cast<double>(states_generated);
}
BENCHMARK(BM_AppServerGeneration)->Arg(2)->Arg(4)->Arg(8)->Arg(12);

// Synthetic fork-join net whose tangible state space grows with the
// token count: k tokens circulating through a 4-stage pipeline.
spn::PetriNet pipeline_net(std::uint32_t tokens) {
  spn::PetriNet net;
  const auto p0 = net.add_place("stage0", tokens);
  const auto p1 = net.add_place("stage1");
  const auto p2 = net.add_place("stage2");
  const auto p3 = net.add_place("stage3");
  const spn::PlaceId places[] = {p0, p1, p2, p3};
  for (int k = 0; k < 4; ++k) {
    const auto t = net.add_timed_transition(
        "t" + std::to_string(k),
        [from = places[k]](const spn::Marking& m) {
          return static_cast<double>(m[from]);
        });
    net.input_arc(t, places[k]).output_arc(t, places[(k + 1) % 4]);
  }
  return net;
}

void BM_PipelineReachability(benchmark::State& state) {
  const auto net = pipeline_net(static_cast<std::uint32_t>(state.range(0)));
  std::size_t states_generated = 0;
  for (auto _ : state) {
    const auto generated =
        spn::generate_ctmc(net, [](const spn::Marking&) { return 1.0; });
    states_generated = generated.chain.num_states();
    benchmark::DoNotOptimize(generated);
  }
  state.counters["tangible_states"] =
      static_cast<double>(states_generated);
}
BENCHMARK(BM_PipelineReachability)->Arg(4)->Arg(8)->Arg(16)->Arg(24);

}  // namespace

BENCHMARK_MAIN();
