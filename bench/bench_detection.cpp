// Reproduces the reasoning behind the paper's AS short-restart
// parameter (Section 5, "AS Restart Time"): measured process restart
// is under 25 s, but the load balancer only notices the recovered
// instance at its next health check (60 s interval), so the model
// uses 90 s.  We sample the failure/restart/health-check timeline and
// report the distribution of the effective outage seen by the load
// balancer.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "stats/rng.h"
#include "stats/summary.h"

int main() {
  using namespace rascal;

  std::cout << "=== Section 5: effective AS restart time seen by the LBP "
               "===\n\n";

  constexpr double kHealthCheckInterval = 60.0;  // seconds
  constexpr std::size_t kTrials = 20000;

  stats::RandomEngine rng(8);
  stats::Summary effective_outage;
  std::size_t covered_by_90s = 0;

  for (std::size_t trial = 0; trial < kTrials; ++trial) {
    // Health checks tick on a fixed grid; the failure lands at a
    // uniformly random phase within the check interval.
    const double failure_time = rng.uniform(0.0, kHealthCheckInterval);
    // Measured restart time: ~25 s with some spread (lognormal, as in
    // the fault-injection campaign).
    const double restart_duration =
        25.0 * std::exp(0.2 * rng.normal01() - 0.5 * 0.2 * 0.2);
    const double restart_done = failure_time + restart_duration;

    // The load balancer sees the instance at the first health check
    // at or after the restart completes.
    double detected_at = 0.0;
    while (detected_at < restart_done) detected_at += kHealthCheckInterval;

    const double outage = detected_at - failure_time;
    effective_outage.add(outage);
    if (outage <= 90.0) ++covered_by_90s;
  }

  std::printf("trials                     : %zu\n", kTrials);
  std::printf("process restart (input)    : mean ~25 s\n");
  std::printf("effective outage seen by LB: mean %.1f s, min %.1f s, max "
              "%.1f s\n",
              effective_outage.mean(), effective_outage.min(),
              effective_outage.max());
  std::printf("covered by the 90 s model parameter: %.1f%% of failures\n\n",
              100.0 * static_cast<double>(covered_by_90s) /
                  static_cast<double>(kTrials));
  std::cout
      << "Reading: restart ~25 s plus a uniform 0-60 s wait for the next\n"
         "health check gives a mean effective outage near 55 s; the\n"
         "paper's conservative Tstart_short = 90 s covers the large\n"
         "majority of failures, as intended.\n";
  return 0;
}
