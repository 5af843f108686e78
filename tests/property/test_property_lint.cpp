// Property tests for the model linter, driven by the seeded random
// model generators in src/check:
//
//   1. Every generated model lints clean — the generators' structural
//      guarantees (Hamiltonian cycle, birth-death skeleton) satisfy
//      every linter invariant, so a diagnostic on generator output is
//      a linter false positive.
//   2. No single fault from all_model_faults() passes unnoticed: the
//      Ctmc constructor rejects the mutant, or lint_ctmc reports the
//      fault's expected structural code — no false negatives, and the
//      code-to-defect mapping is stable.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "check/random_model.h"
#include "lint/lint.h"
#include "report/diagnostics.h"
#include "stats/rng.h"

namespace rascal::check {
namespace {

constexpr int kTrials = 40;

lint::LintOptions lenient_numerics() {
  // Random rates span [0.1, 10]; keep default thresholds but make the
  // intent explicit: these options must never flag generator output.
  return lint::LintOptions{};
}

TEST(PropertyLint, ErgodicGeneratorAlwaysLintsClean) {
  stats::RandomEngine root(0x11A7C1EA);
  for (int i = 0; i < kTrials; ++i) {
    stats::RandomEngine rng = root.split(i);
    const GeneratedModel model = random_ergodic_ctmc(rng);
    const lint::LintReport report =
        lint::lint_ctmc(model.chain, lenient_numerics());
    EXPECT_TRUE(report.empty())
        << model.description << " (trial " << i << "):\n"
        << report::render_diagnostics_text(report);
  }
}

TEST(PropertyLint, BirthDeathGeneratorAlwaysLintsClean) {
  stats::RandomEngine root(0xB1D7C1EA);
  for (int i = 0; i < kTrials; ++i) {
    stats::RandomEngine rng = root.split(i);
    const GeneratedModel model = random_birth_death(rng);
    const lint::LintReport report =
        lint::lint_ctmc(model.chain, lenient_numerics());
    EXPECT_TRUE(report.empty())
        << model.description << " (trial " << i << "):\n"
        << report::render_diagnostics_text(report);
  }
}

TEST(PropertyLint, SingleFaultMutantsNeverLintClean) {
  stats::RandomEngine root(0x0BADC0DE);
  int trial = 0;
  for (int i = 0; i < kTrials; ++i) {
    stats::RandomEngine model_rng = root.split(trial++);
    const GeneratedModel model = random_ergodic_ctmc(model_rng);
    const RawModel healthy = raw_model(model.chain);
    // The healthy raw model is the control: it must construct and
    // lint clean, or the mutant assertions below would be vacuous.
    ASSERT_TRUE(
        lint::lint_ctmc(ctmc::Ctmc(healthy.states, healthy.transitions))
            .empty())
        << model.description;
    for (ModelFault fault : all_model_faults()) {
      stats::RandomEngine fault_rng = root.split(trial++);
      const RawModel mutant = inject_fault(healthy, fault, fault_rng);
      const char* code = expected_code(fault);
      if (code == nullptr) {
        EXPECT_THROW((void)ctmc::Ctmc(mutant.states, mutant.transitions),
                     std::invalid_argument)
            << model.description << ", fault "
            << static_cast<int>(fault);
        continue;
      }
      const lint::LintReport report =
          lint::lint_ctmc(ctmc::Ctmc(mutant.states, mutant.transitions));
      EXPECT_TRUE(report.has_code(code))
          << model.description << ", fault " << code << " missing from:\n"
          << report::render_diagnostics_text(report);
    }
  }
}

TEST(PropertyLint, MutantCodesAreDistinctPerFault) {
  std::vector<std::string> seen;
  for (ModelFault fault : all_model_faults()) {
    if (expected_code(fault) == nullptr) continue;
    const std::string code = expected_code(fault);
    for (const std::string& other : seen) {
      EXPECT_NE(code, other);
    }
    seen.push_back(code);
  }
  // R011, R012 and R013: one per fault the constructor accepts.
  EXPECT_EQ(seen.size(), 3u);
}

}  // namespace
}  // namespace rascal::check
