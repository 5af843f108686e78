#include "check/hadb_pair_explicit.h"

#include <string>

#include "ctmc/builder.h"

namespace rascal::check {

ctmc::Ctmc hadb_pair_explicit_model(const expr::ParameterSet& params) {
  const double la_hadb = params.get("hadb_La_hadb");
  const double la_os = params.get("hadb_La_os");
  const double la_hw = params.get("hadb_La_hw");
  const double la = la_hadb + la_os + la_hw;
  const double la_mnt = params.get("hadb_La_mnt");
  const double fir = params.get("hadb_FIR");
  const double acc = params.get("Acc");

  ctmc::CtmcBuilder b;
  const auto ok = b.state("Ok", 1.0);
  struct DegradedKind {
    const char* name;
    double enter_rate;   // per-node rate into this condition
    double exit_mean;    // condition duration
  };
  const DegradedKind kinds[] = {
      {"RestartShort", la_hadb * (1.0 - fir),
       params.get("hadb_Tstart_short")},
      {"RestartLong", la_os * (1.0 - fir), params.get("hadb_Tstart_long")},
      {"Repair", la_hw * (1.0 - fir), params.get("hadb_Trepair")},
      // Maintenance is a pair-level event; splitting it evenly keeps
      // the per-pair rate at La_mnt.
      {"Maintenance", la_mnt / 2.0, params.get("hadb_Tmnt")},
  };
  const auto down = b.state("2_Down", 0.0);

  for (const char* node : {"A", "B"}) {
    for (const DegradedKind& kind : kinds) {
      const auto degraded =
          b.state(std::string(node) + ":" + kind.name, 1.0);
      b.rate(ok, degraded, kind.enter_rate);
      b.rate(degraded, ok, 1.0 / kind.exit_mean);
      // Second failure of the surviving node, workload-accelerated.
      b.rate(degraded, down, acc * la);
    }
  }
  b.rate(ok, down, 2.0 * la * fir);
  b.rate(down, ok, 1.0 / params.get("hadb_Trestore"));
  return b.build();
}

}  // namespace rascal::check
