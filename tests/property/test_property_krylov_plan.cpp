// Tolerance-zero property tests for the Krylov plan: every solve
// through a reused plan (ctmc::krylov_stationary, and SolveCache ->
// solve_steady_state) must reproduce gmres_stationary /
// bicgstab_stationary on a fresh plan laid out from
// chain.sparse_generator() bit for bit, on
// draws of one compiled model, on models alternating in one
// workspace, on a copy of a model, on public-constructor chains, on
// patterns ILU(0) and Jacobi reject, and on the generated 3^5 and 3^7
// k-of-n model files.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "check/oracle.h"
#include "check/random_model.h"
#include "core/parallel.h"
#include "ctmc/solve_cache.h"
#include "io/model_file.h"
#include "obs/obs.h"
#include "obs/trace.h"

namespace rascal::check {
namespace {

// Each of a..d scaled by a log-uniform factor in [1/4, 4]; z = 0 a
// quarter of the time, which drops the transitions it scales and so
// sends the draw down the reference bind (pattern id 0).
expr::ParameterSet random_draw(const expr::ParameterSet& base,
                               stats::RandomEngine& rng) {
  expr::ParameterSet draw = base;
  for (const char* name : {"a", "b", "c", "d"}) {
    draw.set(name, base.get(name) * std::exp(rng.uniform(-std::log(4.0),
                                                         std::log(4.0))));
  }
  draw.set("z", rng.bernoulli(0.25) ? 0.0 : rng.uniform(0.5, 2.0));
  return draw;
}

// The unlumped k-of-n AS tier as a model file: 3^nodes states S<digits>
// (digit i = node i: 0 Up, 1 Restarting, 2 Rebuilding), coverage split
// La*C / La*(1-C), head-of-line repair by `crews` crews (MuR, MuB), and
// reward 1 iff at least `quorum` nodes are Up.
std::string kofn_model_text(std::size_t nodes, std::size_t quorum,
                            std::size_t crews) {
  std::size_t n = 1;
  for (std::size_t i = 0; i < nodes; ++i) n *= 3;
  const auto name = [&](std::size_t s) {
    std::string out = "S";
    for (std::size_t i = 0; i < nodes; ++i, s /= 3) {
      out += static_cast<char>('0' + s % 3);
    }
    return out;
  };
  const auto digit = [](std::size_t s, std::size_t stride) {
    return s / stride % 3;
  };
  std::string text = "param La 0.02\nparam C 0.9\nparam MuR 12\n"
                     "param MuB 0.5\n";
  for (std::size_t s = 0; s < n; ++s) {
    std::size_t up = 0;
    for (std::size_t i = 0, stride = 1; i < nodes; ++i, stride *= 3) {
      up += digit(s, stride) == 0 ? 1 : 0;
    }
    text += "state " + name(s) + " reward " + (up >= quorum ? "1" : "0") +
            "\n";
  }
  for (std::size_t s = 0; s < n; ++s) {
    std::size_t crews_left = crews;
    for (std::size_t i = 0, stride = 1; i < nodes; ++i, stride *= 3) {
      const std::size_t d = digit(s, stride);
      const std::string from = "rate " + name(s) + " ";
      if (d == 0) {
        text += from + name(s + stride) + " La*C\n";
        text += from + name(s + 2 * stride) + " La*(1-C)\n";
      } else if (crews_left > 0) {
        --crews_left;
        text += from + name(s - d * stride) + (d == 1 ? " MuR\n" : " MuB\n");
      }
    }
  }
  return text;
}

expr::ParameterSet kofn_draw(const expr::ParameterSet& base,
                             stats::RandomEngine& rng) {
  return base.with({{"La", rng.uniform(0.01, 0.03)},
                    {"C", rng.uniform(0.85, 0.95)},
                    {"MuR", rng.uniform(6.0, 24.0)},
                    {"MuB", rng.uniform(0.25, 1.0)}});
}

// Two 4-state models of one shape (4 states, 5 transitions) and two
// patterns: the ring plus 0 -> 2, or the ring plus 1 -> 3.
ctmc::SymbolicCtmc ring_with_chord(const char* from, const char* to) {
  ctmc::SymbolicCtmc model;
  for (const char* s : {"s0", "s1", "s2", "s3"}) model.state(s, 1.0);
  model.rate("s0", "s1", "a").rate("s1", "s2", "b");
  model.rate("s2", "s3", "c").rate("s3", "s0", "d");
  model.rate(from, to, "a*b");
  return model;
}

const expr::ParameterSet kRingParams{
    {"a", 0.5}, {"b", 2.0}, {"c", 3.0}, {"d", 0.25}};

std::uint64_t plan_layouts() {
  return obs::counter("ctmc.solver.plan_layouts").value();
}

TEST(KrylovPlanConsensus, DrawsOfOneModelThroughOneWorkspace) {
  stats::RandomEngine root(0x9A7E11);
  std::size_t compiled = 0;
  std::size_t reference = 0;
  for (std::uint64_t i = 0; i < 30; ++i) {
    stats::RandomEngine rng = root.split(i);
    const GeneratedSymbolicModel g = random_symbolic_ctmc(rng);
    std::vector<ctmc::Ctmc> chains;
    for (int d = 0; d < 8; ++d) {
      chains.push_back(
          g.model.bind(d == 0 ? g.params : random_draw(g.params, rng)));
      (chains.back().pattern_id() != 0 ? compiled : reference) += 1;
    }
    const OracleReport report = check_krylov_plan_consensus(chains);
    ASSERT_TRUE(report.ok()) << g.description << " [stream " << i << "]\n"
                             << report.summary();
  }
  // Most draws reuse a plan, and some interleave a pattern of their
  // own (a zero rate dropped transitions).
  EXPECT_GT(compiled, 150u);
  EXPECT_GT(reference, 30u);
}

TEST(KrylovPlanConsensus, TwoModelsAlternateInOneWorkspace) {
  stats::RandomEngine root(0x9A7E12);
  for (std::uint64_t i = 0; i < 20; ++i) {
    stats::RandomEngine rng = root.split(i);
    const GeneratedSymbolicModel a = random_symbolic_ctmc(rng);
    const GeneratedSymbolicModel b = random_symbolic_ctmc(rng);
    std::vector<ctmc::Ctmc> chains;
    for (int d = 0; d < 3; ++d) {
      chains.push_back(a.model.bind(random_draw(a.params, rng).with({{"z", 1.0}})));
      chains.push_back(b.model.bind(random_draw(b.params, rng).with({{"z", 1.0}})));
    }
    ASSERT_NE(chains[0].pattern_id(), chains[1].pattern_id());
    const OracleReport report = check_krylov_plan_consensus(chains);
    ASSERT_TRUE(report.ok()) << a.description << " / " << b.description
                             << " [stream " << i << "]\n"
                             << report.summary();
  }
  // One shape, two patterns: a plan reused across them would scatter
  // in bounds and solve the wrong system.
  const ctmc::SymbolicCtmc left = ring_with_chord("s0", "s2");
  const ctmc::SymbolicCtmc right = ring_with_chord("s1", "s3");
  std::vector<ctmc::Ctmc> chains;
  for (const double scale : {1.0, 2.0, 0.5}) {
    const expr::ParameterSet params = kRingParams.with({{"a", scale}});
    chains.push_back(left.bind(params));
    chains.push_back(right.bind(params));
  }
  const OracleReport report = check_krylov_plan_consensus(chains);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(KrylovPlanConsensus, CopyOfAModelCompilesWithANewId) {
  const ctmc::SymbolicCtmc model = ring_with_chord("s0", "s2");
  const ctmc::SymbolicCtmc copy = model;  // compiles on its own
  const ctmc::Ctmc first = model.bind(kRingParams);
  const ctmc::Ctmc copied = copy.bind(kRingParams.with({{"b", 5.0}}));
  ASSERT_NE(first.pattern_id(), 0u);
  ASSERT_NE(copied.pattern_id(), 0u);
  EXPECT_NE(first.pattern_id(), copied.pattern_id());
  EXPECT_EQ(model.bind(kRingParams.with({{"c", 7.0}})).pattern_id(),
            first.pattern_id());
  const OracleReport report = check_krylov_plan_consensus(
      {first, copied, model.bind(kRingParams.with({{"d", 4.0}})), copied});
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(KrylovPlanConsensus, PublicConstructorChainsLayOutEverySolve) {
  // bind_reference goes through the public constructor: id 0, so the
  // plan must be laid out again even between chains of one shape.
  const ctmc::SymbolicCtmc left = ring_with_chord("s0", "s2");
  const ctmc::SymbolicCtmc right = ring_with_chord("s1", "s3");
  std::vector<ctmc::Ctmc> chains;
  for (const double scale : {1.0, 3.0}) {
    const expr::ParameterSet params = kRingParams.with({{"b", scale}});
    chains.push_back(left.bind_reference(params));
    chains.push_back(right.bind_reference(params));
    chains.push_back(left.bind(params));  // a compiled chain in between
  }
  ASSERT_EQ(chains[0].pattern_id(), 0u);
  const OracleReport report = check_krylov_plan_consensus(chains);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(KrylovPlanConsensus, RejectedPatternsFailAsTheFreshSolveDoes) {
  // An absorbing state has no diagonal (ILU(0) P004, Jacobi P002) and
  // an isolated one no entries at all (ILU(0) P003).  Both compile, so
  // the rejection is replayed from a reused plan too.
  ctmc::SymbolicCtmc absorbing = ring_with_chord("s0", "s2");
  absorbing.state("sink", 0.0);
  absorbing.state("last", 1.0);
  absorbing.rate("s1", "sink", "c*d");
  absorbing.rate("s2", "last", "a").rate("last", "s3", "b");
  ctmc::SymbolicCtmc isolated = ring_with_chord("s1", "s3");
  isolated.state("alone", 0.0);
  isolated.state("last", 1.0);
  isolated.rate("s0", "last", "d").rate("last", "s1", "c");
  std::vector<ctmc::Ctmc> chains;
  for (const double scale : {1.0, 2.0}) {
    const expr::ParameterSet params = kRingParams.with({{"d", scale}});
    chains.push_back(absorbing.bind(params));
    chains.push_back(absorbing.bind(params.with({{"a", 2.0 * scale}})));
    chains.push_back(isolated.bind(params));
  }
  ASSERT_NE(chains[0].pattern_id(), 0u);
  const OracleReport report = check_krylov_plan_consensus(chains);
  EXPECT_TRUE(report.ok()) << report.summary();

  // The rejection itself happened: ILU(0) refuses both patterns.
  linalg::KrylovOptions options;
  options.precond = linalg::PrecondKind::kIlu0;
  for (const auto& [index, code] :
       {std::pair<std::size_t, const char*>{0, "[P004]"}, {2, "[P003]"}}) {
    try {
      (void)ctmc::krylov_stationary(chains[index],
                                    ctmc::SteadyStateMethod::kGmres, options);
      ADD_FAILURE() << "chain " << index << " was factored";
    } catch (const linalg::PrecondError& e) {
      EXPECT_EQ(std::string(e.what()).rfind(code, 0), 0u) << e.what();
    }
  }
}

TEST(KrylovPlanConsensus, HoldsOnTheGeneratedKofnFiles) {
  const io::ModelFile small = io::parse_model_text(kofn_model_text(5, 3, 2));
  const io::ModelFile large = io::parse_model_text(kofn_model_text(7, 5, 2));
  ASSERT_EQ(large.model.num_states(), 2187u);
  stats::RandomEngine rng(0x9A7E13);
  std::vector<ctmc::Ctmc> chains;
  for (int d = 0; d < 3; ++d) {
    chains.push_back(small.bind(kofn_draw(small.parameters, rng)));
    chains.push_back(small.bind(kofn_draw(small.parameters, rng)));
    chains.push_back(large.bind(kofn_draw(large.parameters, rng)));
  }
  ASSERT_NE(chains[0].pattern_id(), 0u);
  ASSERT_NE(chains[0].pattern_id(), chains[2].pattern_id());
  const OracleReport report = check_krylov_plan_consensus(chains);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(KrylovPlanConsensus, PlanCostsLessThanTheBasisItNoLongerFills) {
  // On the 3^7 tier GMRES+ILU(0) uses 12 of the 61 basis vectors a
  // solve used to zero-fill; the plan it keeps must fit in the other 49.
  const io::ModelFile file = io::parse_model_text(kofn_model_text(7, 5, 2));
  linalg::SolveWorkspace workspace;
  linalg::KrylovOptions options;
  options.precond = linalg::PrecondKind::kIlu0;
  options.workspace = &workspace;
  const ctmc::Ctmc chain = file.bind();
  const linalg::KrylovResult result =
      ctmc::krylov_stationary(chain, ctmc::SteadyStateMethod::kGmres, options);
  ASSERT_TRUE(result.converged);
  ASSERT_LE(result.iterations, 12u);
  const std::size_t unused_basis =
      (options.restart + 1 - 12) * chain.num_states() * sizeof(double);
  EXPECT_LT(workspace.krylov_plan().memory_bytes(), unused_basis);
}

TEST(KrylovPlanConsensus, OneLayoutPerPatternAndWorker) {
  // A silently disabled reuse would pass bit-identity trivially: the
  // draws of one compiled model lay the plan out once, chains with
  // id 0 once per solve.
  const io::ModelFile file = io::parse_model_text(kofn_model_text(4, 2, 2));
  stats::RandomEngine rng(0x9A7E14);
  ctmc::SolveControl control;
  control.sparse_threshold = 1;
  const obs::TraceSession session;
  ctmc::SolveCache cache;
  const std::uint64_t before = plan_layouts();
  for (int d = 0; d < 5; ++d) {
    (void)cache.steady_state(file.bind(kofn_draw(file.parameters, rng)),
                             ctmc::SteadyStateMethod::kGth,
                             ctmc::Validation::kOn, control);
  }
  EXPECT_EQ(plan_layouts() - before, 1u);
  const expr::ParameterSet params = file.parameters;
  for (int d = 0; d < 3; ++d) {
    (void)cache.steady_state(file.model.bind_reference(params),
                             ctmc::SteadyStateMethod::kGth,
                             ctmc::Validation::kOn, control);
  }
  EXPECT_EQ(plan_layouts() - before, 4u);
}

TEST(KrylovPlanConsensus, ParallelWorkersKeepTheirPlansApart) {
  // Each chunk compiles its own copy of one model, drawing a pattern id
  // from the one process-wide counter, and solves its draws through a
  // plan of its own: every thread count must give the serial bits.
  const io::ModelFile file = io::parse_model_text(kofn_model_text(4, 2, 2));
  stats::RandomEngine rng(0x9A7E15);
  std::vector<expr::ParameterSet> draws;
  for (int d = 0; d < 48; ++d) draws.push_back(kofn_draw(file.parameters, rng));
  ctmc::SolveControl control;
  control.sparse_threshold = 1;
  const auto solve_all = [&](std::size_t threads) {
    std::vector<linalg::Vector> out(draws.size());
    core::parallel_for(
        draws.size(), threads, [&](std::size_t begin, std::size_t end) {
          const ctmc::SymbolicCtmc model = file.model;
          ctmc::SolveCache cache;
          for (std::size_t d = begin; d < end; ++d) {
            out[d] = cache
                         .steady_state(model.bind(draws[d]),
                                       ctmc::SteadyStateMethod::kGth,
                                       ctmc::Validation::kOn, control)
                         .probabilities;
          }
        });
    return out;
  };
  const std::vector<linalg::Vector> serial = solve_all(1);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    const std::vector<linalg::Vector> parallel = solve_all(threads);
    for (std::size_t d = 0; d < draws.size(); ++d) {
      ASSERT_EQ(parallel[d], serial[d]) << threads << " threads, draw " << d;
    }
  }
}

}  // namespace
}  // namespace rascal::check
