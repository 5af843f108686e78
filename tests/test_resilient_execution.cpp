// End-to-end guarantees of the resilient execution engine:
//
//   * a run interrupted mid-flight (cancel request, injected worker
//     fault, in-process SIGTERM) and resumed from its checkpoint
//     produces results bit-identical to an uninterrupted run, at any
//     thread count;
//   * a sample whose solve fails under chaos is recorded with its
//     parameter draw and skipped, never fatal;
//   * a Krylov solve forced not to converge throws, the fallback
//     ladder answers it without densifying above the sparse threshold,
//     and a cancelled solve is never masked as nonconvergence.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/uncertainty.h"
#include "ctmc/builder.h"
#include "ctmc/solve_cache.h"
#include "ctmc/steady_state.h"
#include "faultinj/injector.h"
#include "models/jsas_system.h"
#include "models/params.h"
#include "models/kofn_as.h"
#include "obs/obs.h"
#include "resil/chaos.h"
#include "resil/resil.h"
#include "serve/supervise.h"
#include "sim/jsas_simulator.h"

namespace rascal {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "rascal_resilexec_" + name;
}

// Clears the chaos spec even when a test fails mid-way, so later
// tests (and later suites in the same binary) start clean.
class ChaosGuard {
 public:
  ~ChaosGuard() { resil::chaos::configure(""); }
};

const analysis::ModelFunction kQuadratic =
    [](const expr::ParameterSet& p) {
      const double x = p.get("x");
      return p.get("a") * x * x + p.get("b");
    };

const expr::ParameterSet kBase{{"a", 2.0}, {"b", 1.0}, {"x", 3.0}};
const std::vector<stats::ParameterRange> kRanges = {{"x", 0.0, 2.0},
                                                    {"b", -1.0, 1.0}};

void expect_bit_identical(const analysis::UncertaintyResult& actual,
                          const analysis::UncertaintyResult& expected) {
  ASSERT_EQ(actual.metrics.size(), expected.metrics.size());
  for (std::size_t i = 0; i < expected.metrics.size(); ++i) {
    EXPECT_EQ(actual.metrics[i], expected.metrics[i]) << i;
  }
  EXPECT_EQ(actual.draws, expected.draws);
  EXPECT_EQ(actual.mean, expected.mean);
  EXPECT_EQ(actual.interval80.lower, expected.interval80.lower);
  EXPECT_EQ(actual.interval80.upper, expected.interval80.upper);
  EXPECT_EQ(actual.interval90.lower, expected.interval90.lower);
  EXPECT_EQ(actual.interval90.upper, expected.interval90.upper);
  EXPECT_EQ(actual.summary.variance(), expected.summary.variance());
}

TEST(ResilientUncertainty, CancelledRunResumesBitIdentically) {
  const std::string path = temp_path("uncertainty_resume.json");
  std::remove(path.c_str());

  analysis::UncertaintyOptions options;
  options.samples = 64;
  options.seed = 17;
  options.threads = 4;
  const std::uint64_t digest =
      analysis::uncertainty_checkpoint_digest(options, kRanges);

  const auto straight =
      analysis::uncertainty_analysis(kQuadratic, kBase, kRanges, options);

  // Pass 1: request cancellation from inside the model function after
  // ten solves.  Which indices finish depends on scheduling, but that
  // must not matter — every completed index carries exact bits and
  // every pending index is recomputed from its own substream.
  std::atomic<int> calls{0};
  resil::CancellationToken cancel;
  const analysis::ModelFunction cancelling_model =
      [&](const expr::ParameterSet& p) {
        if (calls.fetch_add(1) + 1 == 10) cancel.request_cancel();
        return kQuadratic(p);
      };
  resil::Checkpointer first(path, "uncertainty", digest, options.samples);
  first.set_flush_every(1);
  options.control.cancel = &cancel;
  options.control.checkpoint = &first;
  const auto partial = analysis::uncertainty_analysis(cancelling_model, kBase,
                                                      kRanges, options);
  ASSERT_TRUE(partial.interrupted);
  EXPECT_EQ(partial.interrupt_reason, "cancellation requested");
  EXPECT_LT(partial.completed, partial.requested);
  EXPECT_GE(partial.completed, 1u);

  // Pass 2: resume from disk with a fresh token, different thread
  // count, and the plain model.
  resil::Checkpointer second(path, "uncertainty", digest, options.samples);
  EXPECT_EQ(second.resume_from_disk(), partial.completed);
  options.control.cancel = nullptr;
  options.control.checkpoint = &second;
  options.threads = 1;
  const auto resumed =
      analysis::uncertainty_analysis(kQuadratic, kBase, kRanges, options);

  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.completed, resumed.requested);
  expect_bit_identical(resumed, straight);
  std::remove(path.c_str());
}

TEST(ResilientUncertainty, ChaosWorkerFaultIsRecordedAndSkipped) {
  ChaosGuard guard;
  resil::chaos::configure("worker-throw@3");

  analysis::UncertaintyOptions options;
  options.samples = 8;
  options.seed = 17;
  options.threads = 1;
  options.control.skip_failures = true;
  const auto result =
      analysis::uncertainty_analysis(kQuadratic, kBase, kRanges, options);

  EXPECT_FALSE(result.interrupted);
  EXPECT_EQ(result.completed, 7u);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].index, 3u);
  EXPECT_EQ(result.failures[0].parameters.size(), kRanges.size());
  EXPECT_NE(result.failures[0].error.find("chaos"), std::string::npos);
  // Surviving samples are the straight run's, minus the dropped draw.
  EXPECT_EQ(result.metrics.size(), 7u);
}

TEST(ResilientUncertainty, ChaosWorkerFaultIsFatalWithoutSkipFailures) {
  ChaosGuard guard;
  resil::chaos::configure("worker-throw@3");
  analysis::UncertaintyOptions options;
  options.samples = 8;
  options.seed = 17;
  options.threads = 1;
  options.control.skip_failures = false;
  EXPECT_THROW(
      analysis::uncertainty_analysis(kQuadratic, kBase, kRanges, options),
      resil::chaos::ChaosError);
}

TEST(ResilientUncertainty, NanMetricFailsItsSampleLikeAThrow) {
  // The same draws fail either way: by a NaN metric or by a throw.
  const auto failing_at_large_x = [](bool nan) -> analysis::ModelFunction {
    return [nan](const expr::ParameterSet& p) {
      if (p.get("x") > 1.7) {
        if (nan) return std::nan("");
        throw std::runtime_error("model failed");
      }
      return kQuadratic(p);
    };
  };
  const std::string path = temp_path("uncertainty_nan.json");
  std::remove(path.c_str());
  analysis::UncertaintyOptions options;
  options.samples = 64;
  options.seed = 17;
  options.control.skip_failures = true;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    options.threads = threads;
    const auto thrown = analysis::uncertainty_analysis(
        failing_at_large_x(false), kBase, kRanges, options);
    const auto nan = analysis::uncertainty_analysis(
        failing_at_large_x(true), kBase, kRanges, options);
    ASSERT_FALSE(thrown.failures.empty());
    EXPECT_EQ(nan.completed + nan.failures.size(), options.samples);
    expect_bit_identical(nan, thrown);
    ASSERT_EQ(nan.failures.size(), thrown.failures.size());
    for (std::size_t k = 0; k < nan.failures.size(); ++k) {
      EXPECT_EQ(nan.failures[k].index, thrown.failures[k].index);
      EXPECT_EQ(nan.failures[k].parameters, thrown.failures[k].parameters);
      EXPECT_NE(nan.failures[k].error.find("NaN"), std::string::npos);
    }
  }

  // A NaN sample is checkpointed as failed: a resume with a model that
  // would succeed keeps it failed, with its error.
  const std::uint64_t digest =
      analysis::uncertainty_checkpoint_digest(options, kRanges);
  resil::Checkpointer first(path, "uncertainty", digest, options.samples);
  options.control.checkpoint = &first;
  const auto recorded = analysis::uncertainty_analysis(
      failing_at_large_x(true), kBase, kRanges, options);
  resil::Checkpointer second(path, "uncertainty", digest, options.samples);
  EXPECT_EQ(second.resume_from_disk(), options.samples);
  options.control.checkpoint = &second;
  const auto resumed =
      analysis::uncertainty_analysis(kQuadratic, kBase, kRanges, options);
  expect_bit_identical(resumed, recorded);
  ASSERT_EQ(resumed.failures.size(), recorded.failures.size());
  for (std::size_t k = 0; k < resumed.failures.size(); ++k) {
    EXPECT_EQ(resumed.failures[k].index, recorded.failures[k].index);
    EXPECT_NE(resumed.failures[k].error.find("NaN"), std::string::npos);
  }
  std::remove(path.c_str());

  // Without skip_failures a NaN metric ends the run.
  options.control = {};
  EXPECT_THROW((void)analysis::uncertainty_analysis(
                   failing_at_large_x(true), kBase, kRanges, options),
               std::domain_error);
}

TEST(ResilientUncertainty, WrongTotalCheckpointIsRejected) {
  const std::string path = temp_path("uncertainty_mismatch.json");
  std::remove(path.c_str());
  analysis::UncertaintyOptions options;
  options.samples = 8;
  options.threads = 1;
  const std::uint64_t digest =
      analysis::uncertainty_checkpoint_digest(options, kRanges);
  resil::Checkpointer checkpoint(path, "uncertainty", digest,
                                 options.samples + 1);
  options.control.checkpoint = &checkpoint;
  EXPECT_THROW(
      analysis::uncertainty_analysis(kQuadratic, kBase, kRanges, options),
      resil::CheckpointError);
  std::remove(path.c_str());
}

TEST(ResilientCampaign, SigtermMidCampaignResumesBitIdentically) {
  ChaosGuard guard;
  const std::string path = temp_path("campaign_resume.json");
  std::remove(path.c_str());

  faultinj::CampaignOptions options;
  options.trials = 120;
  options.seed = 1973;
  options.threads = 1;
  const std::uint64_t digest = faultinj::campaign_checkpoint_digest(options);

  const auto straight = faultinj::run_campaign(options);

  // Pass 1: a chaos site raises a real SIGTERM when trial 40 starts;
  // the installed handler latches the token and the engine drains.
  resil::CancellationToken cancel;
  resil::install_signal_handlers(cancel);
  resil::chaos::configure("sigterm@40");
  resil::Checkpointer first(path, "campaign", digest, options.trials);
  first.set_flush_every(1);
  options.control.cancel = &cancel;
  options.control.checkpoint = &first;
  const auto partial = faultinj::run_campaign(options);
  resil::chaos::configure("");
  ASSERT_TRUE(partial.interrupted);
  EXPECT_EQ(partial.interrupt_reason, "signal SIGTERM");
  EXPECT_LT(partial.trials, options.trials);

  // Pass 2: resume at a different thread count.
  resil::Checkpointer second(path, "campaign", digest, options.trials);
  EXPECT_GE(second.resume_from_disk(), 1u);
  options.control.cancel = nullptr;
  options.control.checkpoint = &second;
  options.threads = 4;
  const auto resumed = faultinj::run_campaign(options);

  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.trials, straight.trials);
  EXPECT_EQ(resumed.successes, straight.successes);
  ASSERT_EQ(resumed.records.size(), straight.records.size());
  for (std::size_t i = 0; i < straight.records.size(); ++i) {
    EXPECT_EQ(resumed.records[i].fault, straight.records[i].fault) << i;
    EXPECT_EQ(resumed.records[i].workload, straight.records[i].workload)
        << i;
    EXPECT_EQ(resumed.records[i].recovery_time_hours,
              straight.records[i].recovery_time_hours)
        << i;
  }
  EXPECT_EQ(resumed.hadb_restart_times.mean(),
            straight.hadb_restart_times.mean());
  EXPECT_EQ(resumed.recovery_by_workload[1].variance(),
            straight.recovery_by_workload[1].variance());
  std::remove(path.c_str());
}

TEST(ResilientSimulation, FaultedReplicationResumesBitIdentically) {
  ChaosGuard guard;
  const std::string path = temp_path("sim_resume.json");
  std::remove(path.c_str());

  const models::JsasConfig config = models::JsasConfig::config1();
  const expr::ParameterSet params = models::default_parameters();
  sim::JsasSimOptions options;
  options.duration = 8760.0;
  options.replications = 6;
  options.seed = 33;
  options.threads = 4;
  const std::uint64_t digest =
      sim::jsas_sim_checkpoint_digest(config, params, options);

  const auto straight = sim::simulate_jsas(config, params, options);

  // Pass 1 (serial so exactly replications 0 and 1 are on disk): the
  // chaos fault aborts the run, but recorded entries survive.
  resil::chaos::configure("worker-throw@2");
  resil::Checkpointer first(path, "jsas-sim", digest, options.replications);
  first.set_flush_every(1);
  options.threads = 1;
  options.control.checkpoint = &first;
  EXPECT_THROW(sim::simulate_jsas(config, params, options),
               resil::chaos::ChaosError);
  resil::chaos::configure("");

  // Pass 2: resume in parallel.
  resil::Checkpointer second(path, "jsas-sim", digest, options.replications);
  EXPECT_EQ(second.resume_from_disk(), 2u);
  options.control.checkpoint = &second;
  options.threads = 4;
  const auto resumed = sim::simulate_jsas(config, params, options);

  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.completed_replications, options.replications);
  EXPECT_EQ(resumed.availability, straight.availability);
  EXPECT_EQ(resumed.availability_ci95.lower, straight.availability_ci95.lower);
  EXPECT_EQ(resumed.downtime_minutes_per_year,
            straight.downtime_minutes_per_year);
  EXPECT_EQ(resumed.system_failures, straight.system_failures);
  EXPECT_EQ(resumed.as_instance_failures, straight.as_instance_failures);
  EXPECT_EQ(resumed.hadb_node_failures, straight.hadb_node_failures);
  EXPECT_EQ(resumed.events_simulated, straight.events_simulated);
  std::remove(path.c_str());
}

TEST(ResilientSimulation, RecordedFailureIsReplayedNotRecomputed) {
  ChaosGuard guard;
  const std::string path = temp_path("sim_failure_replay.json");
  std::remove(path.c_str());

  const models::JsasConfig config = models::JsasConfig::config1();
  const expr::ParameterSet params = models::default_parameters();
  sim::JsasSimOptions options;
  options.duration = 8760.0;
  options.replications = 6;
  options.seed = 33;
  options.threads = 1;
  options.control.skip_failures = true;
  const std::uint64_t digest =
      sim::jsas_sim_checkpoint_digest(config, params, options);

  // Pass 1: replication 2 fails and is skipped; its failure is on disk
  // next to the five results.
  resil::chaos::configure("worker-throw@2");
  resil::Checkpointer first(path, "jsas-sim", digest, options.replications);
  first.set_flush_every(1);
  options.control.checkpoint = &first;
  const auto skipped = sim::simulate_jsas(config, params, options);
  resil::chaos::configure("");
  ASSERT_EQ(skipped.completed_replications, 5u);
  ASSERT_EQ(skipped.failures.size(), 1u);
  EXPECT_EQ(skipped.failures[0].replication, 2u);
  EXPECT_EQ(skipped.failures[0].error,
            "chaos: injected worker fault at index 2");

  // Pass 2: with chaos off, the resumed run replays the recorded
  // failure instead of running replication 2 again, so it reports
  // what the run that wrote the checkpoint reported.
  resil::Checkpointer second(path, "jsas-sim", digest, options.replications);
  EXPECT_EQ(second.resume_from_disk(), options.replications);
  options.control.checkpoint = &second;
  const auto resumed = sim::simulate_jsas(config, params, options);

  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.completed_replications, 5u);
  ASSERT_EQ(resumed.failures.size(), 1u);
  EXPECT_EQ(resumed.failures[0].replication, 2u);
  EXPECT_EQ(resumed.failures[0].error, skipped.failures[0].error);
  EXPECT_EQ(resumed.availability, skipped.availability);
  EXPECT_EQ(resumed.events_simulated, skipped.events_simulated);
  std::remove(path.c_str());
}

// --- Solver nonconvergence ----------------------------------------------

ctmc::Ctmc availability_chain() {
  ctmc::CtmcBuilder b;
  b.state("Ok", 1.0);
  b.state("Degraded", 1.0);
  b.state("Down", 0.0);
  b.rate(0, 1, 1e-4).rate(1, 0, 60.0).rate(1, 2, 2e-4).rate(2, 0, 1.0);
  return b.build();
}

TEST(SolverEscalation, NonConvergenceWithoutEscalationThrows) {
  const ctmc::Ctmc chain = availability_chain();
  ctmc::SolveControl control;
  control.max_iterations = 1;
  control.precond = linalg::PrecondKind::kNone;
  obs::set_enabled(true);
  obs::reset();
  try {
    (void)ctmc::solve_steady_state(chain, ctmc::SteadyStateMethod::kGmres,
                                   ctmc::Validation::kOn, control);
    ADD_FAILURE() << "expected NonConvergenceError";
  } catch (const ctmc::NonConvergenceError& e) {
    // Failed-request records and dropped-sample lines quote this text.
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("solve_steady_state: gmres did not converge within ",
                         0),
              0u)
        << what;
  }
  obs::set_enabled(false);
  EXPECT_EQ(obs::counter("ctmc.solver.nonconverged").value(), 1u);
}

// --- Sparse Krylov path ---------------------------------------------------

TEST(SparseSolverEscalation, RefusesToDensifyAboveTheSparseThreshold) {
  // The explicit dense/sparse boundary, held by the one fallback
  // ladder: with the threshold below the state count, a nonconverging
  // Krylov solve may NOT descend into a dense GTH (that would
  // materialize the n x n matrix the caller asked to avoid) — it
  // downgrades the preconditioner instead.  Each answer equals a
  // direct solve on the rung that produced it.
  ChaosGuard guard;
  const ctmc::Ctmc chain = availability_chain();
  const auto expect_rung_bits = [&chain](const serve::SupervisedSolve& s,
                                         std::size_t threshold) {
    ctmc::SolveControl control;
    control.sparse_threshold = threshold;
    control.precond = s.final_rung.precond;
    const ctmc::SteadyState direct = ctmc::solve_steady_state(
        chain, s.final_rung.method, ctmc::Validation::kOn, control);
    EXPECT_EQ(s.steady.probabilities, direct.probabilities);
  };
  serve::SolveSpec spec;
  spec.method = ctmc::SteadyStateMethod::kGmres;
  spec.sparse_threshold = 2;  // chain has 3 states
  ctmc::SolveCache cache;
  resil::chaos::configure("solver-nonconverge@0");
  const serve::SupervisedSolve sparse =
      serve::supervised_solve(chain, spec, cache, {});
  EXPECT_EQ(sparse.fallback, "precond:jacobi");
  EXPECT_EQ(sparse.steady.effective_method, ctmc::SteadyStateMethod::kGmres);
  resil::chaos::configure("");
  expect_rung_bits(sparse, spec.sparse_threshold);

  // Same forced failure with the threshold at/above the state count:
  // the ladder substitutes methods, and BiCGStab answers.
  spec.sparse_threshold = chain.num_states();
  resil::chaos::configure("solver-nonconverge@0");
  const serve::SupervisedSolve dense =
      serve::supervised_solve(chain, spec, cache, {});
  EXPECT_EQ(dense.fallback, "bicgstab");
  resil::chaos::configure("");
  expect_rung_bits(dense, spec.sparse_threshold);
}

TEST(SparseSolverEscalation, DenseMethodsRerouteToGmresAboveTheThreshold) {
  // A kGth request above the threshold silently runs the sparse
  // engine instead (recorded in effective_method and the obs counter)
  // and still produces the stationary distribution.
  models::KofnAsConfig config;
  config.nodes = 2;  // 9 states
  config.quorum = 1;
  config.repair_crews = 1;
  const ctmc::Ctmc chain = models::kofn_as_model(config);
  const ctmc::SteadyState reference =
      ctmc::solve_steady_state(chain, ctmc::SteadyStateMethod::kGth);

  obs::set_enabled(true);
  obs::reset();
  ctmc::SolveControl control;
  control.sparse_threshold = 4;
  const ctmc::SteadyState rerouted = ctmc::solve_steady_state(
      chain, ctmc::SteadyStateMethod::kGth, ctmc::Validation::kOn, control);
  obs::set_enabled(false);

  EXPECT_EQ(rerouted.method, ctmc::SteadyStateMethod::kGth);
  EXPECT_EQ(rerouted.effective_method, ctmc::SteadyStateMethod::kGmres);
  EXPECT_EQ(obs::counter("ctmc.solver.sparse_rerouted").value(), 1u);
  EXPECT_EQ(obs::counter("ctmc.solver.solves.gmres").value(), 1u);
  ASSERT_EQ(rerouted.probabilities.size(), reference.probabilities.size());
  for (std::size_t i = 0; i < reference.probabilities.size(); ++i) {
    EXPECT_NEAR(rerouted.probabilities[i], reference.probabilities[i], 1e-10)
        << i;
  }
}

TEST(SparseSolverEscalation, CancelledKrylovSolveThrowsCancelled) {
  resil::CancellationToken cancel;
  cancel.request_cancel();
  ctmc::SolveControl control;
  control.cancel = &cancel;
  EXPECT_THROW(
      (void)ctmc::solve_steady_state(availability_chain(),
                                     ctmc::SteadyStateMethod::kGmres,
                                     ctmc::Validation::kOn, control),
      resil::CancelledError);
}

// Availability of a small k-of-n tier solved strictly through the
// sparse Krylov path (the threshold below the state count guarantees
// no dense matrix is ever built).
const analysis::ModelFunction kSparseKofnModel =
    [](const expr::ParameterSet& p) {
      models::KofnAsConfig config;
      config.nodes = 3;  // 27 states
      config.quorum = 2;
      config.repair_crews = 1;
      config.failure_rate = p.get("fr");
      config.rebuild_rate = p.get("rb");
      const ctmc::Ctmc chain = models::kofn_as_model(config);
      ctmc::SolveControl control;
      control.sparse_threshold = 8;  // force the Krylov path
      const auto steady = ctmc::solve_steady_state(
          chain, ctmc::SteadyStateMethod::kGmres, ctmc::Validation::kOn,
          control);
      double availability = 0.0;
      for (std::size_t i = 0; i < chain.num_states(); ++i) {
        availability += steady.probabilities[i] * chain.states()[i].reward;
      }
      return availability;
    };

TEST(ResilientUncertainty, SparsePathResumesBitIdenticallyAcrossThreads) {
  // Checkpoint/resume bit-identity for an uncertainty run whose every
  // sample solves through the sparse Krylov path: interrupt a
  // 4-thread run, resume single-threaded, and demand the merged
  // output equal an uninterrupted run bit for bit.
  const std::string path = temp_path("uncertainty_sparse_resume.json");
  std::remove(path.c_str());

  const expr::ParameterSet base{{"fr", 0.02}, {"rb", 0.5}};
  const std::vector<stats::ParameterRange> ranges = {{"fr", 0.005, 0.1},
                                                     {"rb", 0.1, 1.0}};
  analysis::UncertaintyOptions options;
  options.samples = 32;
  options.seed = 23;
  options.threads = 4;
  const std::uint64_t digest =
      analysis::uncertainty_checkpoint_digest(options, ranges);

  const auto straight =
      analysis::uncertainty_analysis(kSparseKofnModel, base, ranges, options);

  std::atomic<int> calls{0};
  resil::CancellationToken cancel;
  const analysis::ModelFunction cancelling_model =
      [&](const expr::ParameterSet& p) {
        if (calls.fetch_add(1) + 1 == 6) cancel.request_cancel();
        return kSparseKofnModel(p);
      };
  resil::Checkpointer first(path, "uncertainty", digest, options.samples);
  first.set_flush_every(1);
  options.control.cancel = &cancel;
  options.control.checkpoint = &first;
  const auto partial = analysis::uncertainty_analysis(cancelling_model, base,
                                                      ranges, options);
  ASSERT_TRUE(partial.interrupted);
  EXPECT_LT(partial.completed, partial.requested);

  resil::Checkpointer second(path, "uncertainty", digest, options.samples);
  EXPECT_EQ(second.resume_from_disk(), partial.completed);
  options.control.cancel = nullptr;
  options.control.checkpoint = &second;
  options.threads = 1;
  const auto resumed =
      analysis::uncertainty_analysis(kSparseKofnModel, base, ranges, options);

  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.completed, resumed.requested);
  expect_bit_identical(resumed, straight);
  std::remove(path.c_str());
}

// --- Digests -------------------------------------------------------------

TEST(CheckpointDigests, ChangeWithAnyResultAffectingSetting) {
  analysis::UncertaintyOptions u;
  u.samples = 16;
  u.seed = 1;
  const std::uint64_t base =
      analysis::uncertainty_checkpoint_digest(u, kRanges);
  u.seed = 2;
  EXPECT_NE(analysis::uncertainty_checkpoint_digest(u, kRanges), base);
  u.seed = 1;
  u.samples = 17;
  EXPECT_NE(analysis::uncertainty_checkpoint_digest(u, kRanges), base);
  u.samples = 16;
  u.latin_hypercube = true;
  EXPECT_NE(analysis::uncertainty_checkpoint_digest(u, kRanges), base);
  u.latin_hypercube = false;
  auto shifted = kRanges;
  shifted[0].hi = 3.0;
  EXPECT_NE(analysis::uncertainty_checkpoint_digest(u, shifted), base);
  // Thread count and control settings are resume-legal: same digest.
  u.threads = 8;
  u.control.skip_failures = true;
  EXPECT_EQ(analysis::uncertainty_checkpoint_digest(u, kRanges), base);

  faultinj::CampaignOptions c;
  c.trials = 64;
  c.seed = 5;
  const std::uint64_t campaign_base = faultinj::campaign_checkpoint_digest(c);
  c.seed = 6;
  EXPECT_NE(faultinj::campaign_checkpoint_digest(c), campaign_base);
  c.seed = 5;
  c.recovery.true_imperfect_recovery = 0.25;
  EXPECT_NE(faultinj::campaign_checkpoint_digest(c), campaign_base);
  c.recovery.true_imperfect_recovery = 0.0;
  c.threads = 16;
  EXPECT_EQ(faultinj::campaign_checkpoint_digest(c), campaign_base);
}

}  // namespace
}  // namespace rascal
