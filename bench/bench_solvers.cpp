// Ablation (DESIGN.md #1): steady-state solver microbenchmarks on the
// N-instance Application Server chains (5 to 221 states) and accuracy
// on the stiff JSAS models.  Production GTH against the reference
// solvers of src/check/ (LU, power iteration, Gauss-Seidel).
// google-benchmark binary.
#include <benchmark/benchmark.h>

#include "check/reference_solvers.h"
#include "ctmc/solve_cache.h"
#include "ctmc/steady_state.h"
#include "expr/parameter_set.h"
#include "linalg/gth.h"
#include "linalg/workspace.h"
#include "models/app_server.h"
#include "models/hadb_pair.h"
#include "models/jsas_system.h"
#include "models/params.h"

namespace {

using namespace rascal;

ctmc::Ctmc as_chain(std::size_t n) {
  return models::app_server_n_instance_model(n).bind(
      models::default_parameters());
}

void BM_GthSteadyState(benchmark::State& state) {
  const auto chain = as_chain(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::gth_stationary(chain.generator()));
  }
  state.counters["states"] = static_cast<double>(chain.num_states());
}
BENCHMARK(BM_GthSteadyState)->Arg(2)->Arg(4)->Arg(6)->Arg(8)->Arg(10);

void BM_LuSteadyState(benchmark::State& state) {
  const auto chain = as_chain(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        check::solve_reference(chain, check::ReferenceSolver::kLu));
  }
  state.counters["states"] = static_cast<double>(chain.num_states());
}
BENCHMARK(BM_LuSteadyState)->Arg(2)->Arg(4)->Arg(6)->Arg(8)->Arg(10);

// Workspace-reusing variant: the same solve through a per-caller
// SolveWorkspace, so the elimination and residual scratch is
// allocated once instead of per solve.  Results are bit-identical to
// the fresh path (gated by check_workspace_consensus).
void BM_GthSteadyStateWorkspace(benchmark::State& state) {
  const auto chain = as_chain(static_cast<std::size_t>(state.range(0)));
  linalg::SolveWorkspace workspace;
  ctmc::SolveControl control;
  control.workspace = &workspace;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctmc::solve_steady_state(
        chain, ctmc::SteadyStateMethod::kGth, ctmc::Validation::kOn,
        control));
  }
  state.counters["states"] = static_cast<double>(chain.num_states());
}
BENCHMARK(BM_GthSteadyStateWorkspace)->Arg(2)->Arg(4)->Arg(6)->Arg(8)->Arg(10);

// The fig7 per-sample path: one full JSAS solve per parameter draw
// through a SolveCache, perturbing a parameter every iteration as
// uncertainty analysis does.
void BM_JsasSolveCacheMiss(benchmark::State& state) {
  const auto config = models::JsasConfig::config1();
  ctmc::SolveCache cache;
  expr::ParameterSet params = models::default_parameters();
  double bump = 0.0;
  for (auto _ : state) {
    params.set("as_Tstart_long", 1.0 + bump);
    bump += 1e-9;
    benchmark::DoNotOptimize(models::solve_jsas(config, params, cache));
  }
}
BENCHMARK(BM_JsasSolveCacheMiss);

// The iterative references on a *mild* chain (they do not converge in
// reasonable time on the stiff AS chain — that observation is the
// ablation result; see the accuracy benchmark below).
ctmc::Ctmc mild_chain(std::size_t n) {
  ctmc::CtmcBuilder b;
  for (std::size_t i = 0; i < n; ++i) {
    b.state("s" + std::to_string(i), i == 0 ? 0.0 : 1.0);
  }
  for (std::size_t i = 0; i < n; ++i) {
    b.rate(i, (i + 1) % n, 1.0 + static_cast<double>(i % 3));
    b.rate((i + 1) % n, i, 0.5);
  }
  return b.build();
}

void BM_PowerIterationMild(benchmark::State& state) {
  const auto chain = mild_chain(static_cast<std::size_t>(state.range(0)));
  const auto q = chain.sparse_generator();
  for (auto _ : state) {
    benchmark::DoNotOptimize(check::power_stationary(q));
  }
}
BENCHMARK(BM_PowerIterationMild)->Arg(8)->Arg(64)->Arg(256);

void BM_GaussSeidelMild(benchmark::State& state) {
  const auto chain = mild_chain(static_cast<std::size_t>(state.range(0)));
  const auto q = chain.sparse_generator();
  for (auto _ : state) {
    benchmark::DoNotOptimize(check::gauss_seidel_stationary(q));
  }
}
BENCHMARK(BM_GaussSeidelMild)->Arg(8)->Arg(64)->Arg(256);

// Stiffness accuracy probe: relative error of the LU reference vs GTH
// on the HADB pair chain, whose rates span 8+ orders of magnitude.
void BM_StiffAccuracy(benchmark::State& state) {
  const auto chain =
      models::hadb_pair_model().bind(models::default_parameters());
  double max_rel_err = 0.0;
  for (auto _ : state) {
    const auto gth = ctmc::solve_steady_state(chain);
    const auto lu = check::solve_reference(chain, check::ReferenceSolver::kLu);
    for (std::size_t i = 0; i < chain.num_states(); ++i) {
      const double p = gth.probability(i);
      if (p > 0.0) {
        max_rel_err = std::max(max_rel_err, std::abs(lu.pi[i] - p) / p);
      }
    }
    benchmark::DoNotOptimize(max_rel_err);
  }
  state.counters["max_rel_err_LU_vs_GTH"] = max_rel_err;
}
BENCHMARK(BM_StiffAccuracy);

}  // namespace

BENCHMARK_MAIN();
