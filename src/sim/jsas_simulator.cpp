#include "sim/jsas_simulator.h"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/resumable.h"
#include "core/units.h"
#include "obs/obs.h"
#include "stats/rng.h"

namespace rascal::sim {

namespace {

constexpr double kNever = std::numeric_limits<double>::infinity();

enum class InstanceState { kUp, kRecovering, kShortRestart, kLongRestart };
enum class NodeState { kOk, kShortRestart, kLongRestart, kRepair,
                       kMaintenance };

struct Instance {
  InstanceState state = InstanceState::kUp;
  double deadline = kNever;  // completion time when not kUp
};

struct Node {
  NodeState state = NodeState::kOk;
  double deadline = kNever;
};

struct Pair {
  Node nodes[2];
  bool down = false;
  double restore_deadline = kNever;
};

// All Section-5 parameters, pre-fetched once per replication.
struct SimParams {
  double as_la_as, as_la_os, as_la_hw, as_la_total;
  double as_fss;
  double as_trecovery, as_tstart_short, as_tstart_long, as_tstart_all;
  double hadb_la_hadb, hadb_la_os, hadb_la_hw, hadb_la_total;
  double hadb_la_mnt;
  double hadb_tstart_short, hadb_tstart_long, hadb_trepair, hadb_tmnt,
      hadb_trestore;
  double fir;
  double acc;

  explicit SimParams(const expr::ParameterSet& p)
      : as_la_as(p.get("as_La_as")),
        as_la_os(p.get("as_La_os")),
        as_la_hw(p.get("as_La_hw")),
        as_la_total(as_la_as + as_la_os + as_la_hw),
        as_fss(as_la_as / as_la_total),
        as_trecovery(p.get("as_Trecovery")),
        as_tstart_short(p.get("as_Tstart_short")),
        as_tstart_long(p.get("as_Tstart_long")),
        as_tstart_all(p.get("as_Tstart_all")),
        hadb_la_hadb(p.get("hadb_La_hadb")),
        hadb_la_os(p.get("hadb_La_os")),
        hadb_la_hw(p.get("hadb_La_hw")),
        hadb_la_total(hadb_la_hadb + hadb_la_os + hadb_la_hw),
        hadb_la_mnt(p.get("hadb_La_mnt")),
        hadb_tstart_short(p.get("hadb_Tstart_short")),
        hadb_tstart_long(p.get("hadb_Tstart_long")),
        hadb_trepair(p.get("hadb_Trepair")),
        hadb_tmnt(p.get("hadb_Tmnt")),
        hadb_trestore(p.get("hadb_Trestore")),
        fir(p.get("hadb_FIR")),
        acc(p.get("Acc")) {}
};

// Everything one replication produces; merged into the JsasSimResult
// in replication order so parallel runs stay bit-identical.
struct ReplicationOutcome {
  double availability = 0.0;
  double as_down_time = 0.0;
  double hadb_down_time = 0.0;
  std::uint64_t system_failures = 0;
  std::uint64_t as_cluster_failures = 0;
  std::uint64_t hadb_pair_failures = 0;
  std::uint64_t imperfect_recoveries = 0;
  std::uint64_t as_instance_failures = 0;
  std::uint64_t hadb_node_failures = 0;
  std::uint64_t events = 0;  // dispatched events in this replication
};

class Replication {
 public:
  Replication(const models::JsasConfig& config, const SimParams& params,
              const JsasSimOptions& options, stats::RandomEngine rng)
      : params_(params),
        options_(options),
        rng_(std::move(rng)),
        instances_(config.as_instances),
        pairs_(config.hadb_pairs) {}

  /// Runs one replication; returns everything it observed.
  ReplicationOutcome run() {
    const resil::CancellationToken* cancel = options_.control.cancel;
    double now = 0.0;
    while (now < options_.duration) {
      // Replications simulate centuries of cluster time; a deadline or
      // signal must be able to interrupt the event loop itself.  The
      // abandoned replication stays unrecorded, so a resume recomputes
      // it from its substream with identical bits.
      if ((totals_.events & 0xFFFULL) == 0 && cancel != nullptr &&
          cancel->cancelled()) {
        throw resil::CancelledError(
            "simulate_jsas: replication cancelled mid-run");
      }
      const Event event = next_event(now);
      const double at = std::min(event.time, options_.duration);
      accrue(now, at);
      now = at;
      if (event.time > options_.duration) break;
      dispatch(event, now);
      ++totals_.events;
      note_system_transition();
    }
    totals_.availability = 1.0 - down_time_ / options_.duration;
    totals_.as_down_time = as_down_time_;
    totals_.hadb_down_time = hadb_down_time_;
    return totals_;
  }

 private:
  enum class EventKind {
    kInstanceFailure,
    kInstanceCompletion,
    kClusterRestore,
    kNodeFailure,
    kNodeCompletion,
    kMaintenanceStart,
    kPairRestore,
  };
  struct Event {
    double time = kNever;
    EventKind kind = EventKind::kInstanceFailure;
    std::size_t index = 0;      // instance index or pair index
    std::size_t subindex = 0;   // node index within the pair
  };

  double duration_sample(double mean) {
    return options_.exponential_recoveries ? rng_.exponential(1.0 / mean)
                                           : mean;
  }

  [[nodiscard]] std::size_t instances_up() const {
    std::size_t up = 0;
    for (const Instance& inst : instances_) {
      if (inst.state == InstanceState::kUp) ++up;
    }
    return up;
  }

  [[nodiscard]] bool as_tier_down() const { return cluster_down_; }

  [[nodiscard]] bool hadb_tier_down() const {
    for (const Pair& pair : pairs_) {
      if (pair.down) return true;
    }
    return false;
  }

  [[nodiscard]] bool system_down() const {
    return as_tier_down() || hadb_tier_down();
  }

  void accrue(double from, double to) {
    const double dt = to - from;
    if (dt <= 0.0) return;
    if (system_down()) down_time_ += dt;
    if (as_tier_down()) as_down_time_ += dt;
    if (hadb_tier_down()) hadb_down_time_ += dt;
  }

  void note_system_transition() {
    const bool down = system_down();
    if (down && !was_down_) ++totals_.system_failures;
    was_down_ = down;
  }

  // Samples the earliest pending event.  Failure clocks are
  // re-sampled at every step, which is statistically exact because
  // failure processes are exponential (memoryless); completion clocks
  // are fixed deadlines stored in the entity state.
  Event next_event(double now) {
    Event best;

    if (cluster_down_) {
      consider(best, cluster_restore_, EventKind::kClusterRestore, 0, 0);
    } else {
      const std::size_t down_count = instances_.size() - instances_up();
      const double accel = std::pow(params_.acc,
                                    static_cast<double>(down_count));
      for (std::size_t i = 0; i < instances_.size(); ++i) {
        const Instance& inst = instances_[i];
        if (inst.state == InstanceState::kUp) {
          const double t =
              now + rng_.exponential(params_.as_la_total * accel);
          consider(best, t, EventKind::kInstanceFailure, i, 0);
        } else {
          consider(best, inst.deadline, EventKind::kInstanceCompletion, i,
                   0);
        }
      }
    }

    for (std::size_t p = 0; p < pairs_.size(); ++p) {
      const Pair& pair = pairs_[p];
      if (pair.down) {
        consider(best, pair.restore_deadline, EventKind::kPairRestore, p, 0);
        continue;
      }
      const bool both_ok = pair.nodes[0].state == NodeState::kOk &&
                           pair.nodes[1].state == NodeState::kOk;
      for (std::size_t j = 0; j < 2; ++j) {
        const Node& node = pair.nodes[j];
        if (node.state == NodeState::kOk) {
          const double rate =
              both_ok ? params_.hadb_la_total
                      : params_.hadb_la_total * params_.acc;
          consider(best, now + rng_.exponential(rate),
                   EventKind::kNodeFailure, p, j);
        } else {
          consider(best, node.deadline, EventKind::kNodeCompletion, p, j);
        }
      }
      if (both_ok) {
        consider(best, now + rng_.exponential(params_.hadb_la_mnt),
                 EventKind::kMaintenanceStart, p, 0);
      }
    }
    return best;
  }

  static void consider(Event& best, double time, EventKind kind,
                       std::size_t index, std::size_t subindex) {
    if (time < best.time) best = {time, kind, index, subindex};
  }

  void dispatch(const Event& event, double now) {
    switch (event.kind) {
      case EventKind::kInstanceFailure: instance_failure(event.index, now);
        break;
      case EventKind::kInstanceCompletion:
        instance_completion(event.index, now);
        break;
      case EventKind::kClusterRestore: cluster_restore(); break;
      case EventKind::kNodeFailure:
        node_failure(event.index, event.subindex, now);
        break;
      case EventKind::kNodeCompletion:
        pairs_[event.index].nodes[event.subindex] = Node{};
        break;
      case EventKind::kMaintenanceStart:
        maintenance_start(event.index, now);
        break;
      case EventKind::kPairRestore: pair_restore(event.index); break;
    }
  }

  void instance_failure(std::size_t i, double now) {
    ++totals_.as_instance_failures;
    instances_[i].state = InstanceState::kRecovering;
    instances_[i].deadline = now + duration_sample(params_.as_trecovery);
    if (instances_up() == 0) {
      // Last serving instance lost: whole-cluster manual restart,
      // regardless of how far along the other restarts were.
      ++totals_.as_cluster_failures;
      cluster_down_ = true;
      cluster_restore_ = now + duration_sample(params_.as_tstart_all);
    }
  }

  void instance_completion(std::size_t i, double now) {
    Instance& inst = instances_[i];
    switch (inst.state) {
      case InstanceState::kRecovering:
        // Sessions re-homed; the failed instance restarts by the
        // short (AS process) or long (HW/OS) path.
        if (rng_.bernoulli(params_.as_fss)) {
          inst.state = InstanceState::kShortRestart;
          inst.deadline = now + duration_sample(params_.as_tstart_short);
        } else {
          inst.state = InstanceState::kLongRestart;
          inst.deadline = now + duration_sample(params_.as_tstart_long);
        }
        break;
      case InstanceState::kShortRestart:
      case InstanceState::kLongRestart:
        inst = Instance{};
        break;
      case InstanceState::kUp:
        throw std::logic_error("completion event for an up instance");
    }
  }

  void cluster_restore() {
    cluster_down_ = false;
    cluster_restore_ = kNever;
    for (Instance& inst : instances_) inst = Instance{};
  }

  void node_failure(std::size_t p, std::size_t j, double now) {
    ++totals_.hadb_node_failures;
    Pair& pair = pairs_[p];
    const Node& companion = pair.nodes[1 - j];
    if (companion.state != NodeState::kOk) {
      // Second failure while degraded: the pair's data is lost.
      pair_failure(pair, now);
      return;
    }
    if (rng_.bernoulli(params_.fir)) {
      // Imperfect recovery: the takeover/rebuild drags the companion
      // down with it.
      ++totals_.imperfect_recoveries;
      pair_failure(pair, now);
      return;
    }
    // Classify the failure to pick the recovery path.
    const double pick = rng_.uniform01() * params_.hadb_la_total;
    Node& node = pair.nodes[j];
    if (pick < params_.hadb_la_hadb) {
      node.state = NodeState::kShortRestart;
      node.deadline = now + duration_sample(params_.hadb_tstart_short);
    } else if (pick < params_.hadb_la_hadb + params_.hadb_la_os) {
      node.state = NodeState::kLongRestart;
      node.deadline = now + duration_sample(params_.hadb_tstart_long);
    } else {
      node.state = NodeState::kRepair;
      node.deadline = now + duration_sample(params_.hadb_trepair);
    }
  }

  void pair_failure(Pair& pair, double now) {
    ++totals_.hadb_pair_failures;
    pair.down = true;
    pair.restore_deadline = now + duration_sample(params_.hadb_trestore);
  }

  void maintenance_start(std::size_t p, double now) {
    // Take one node (arbitrarily chosen) out for the switchover.
    Pair& pair = pairs_[p];
    const std::size_t j = rng_.uniform_index(2);
    pair.nodes[j].state = NodeState::kMaintenance;
    pair.nodes[j].deadline = now + duration_sample(params_.hadb_tmnt);
  }

  void pair_restore(std::size_t p) {
    pairs_[p] = Pair{};
  }

  const SimParams& params_;
  const JsasSimOptions& options_;
  stats::RandomEngine rng_;
  ReplicationOutcome totals_;

  std::vector<Instance> instances_;
  std::vector<Pair> pairs_;
  bool cluster_down_ = false;
  double cluster_restore_ = kNever;
  bool was_down_ = false;

  double down_time_ = 0.0;
  double as_down_time_ = 0.0;
  double hadb_down_time_ = 0.0;
};

// Checkpoint payload for one replication: the full outcome, exactly
// (times as IEEE-754 bit patterns).
std::vector<std::uint64_t> encode_outcome(const ReplicationOutcome& o) {
  return {resil::f64_bits(o.availability),
          resil::f64_bits(o.as_down_time),
          resil::f64_bits(o.hadb_down_time),
          o.system_failures,
          o.as_cluster_failures,
          o.hadb_pair_failures,
          o.imperfect_recoveries,
          o.as_instance_failures,
          o.hadb_node_failures,
          o.events};
}

ReplicationOutcome decode_outcome(const std::vector<std::uint64_t>& words) {
  if (words.size() != 10) {
    throw resil::CheckpointError(
        "simulate_jsas: checkpoint entry does not decode to a replication "
        "outcome");
  }
  ReplicationOutcome o;
  o.availability = resil::bits_f64(words[0]);
  o.as_down_time = resil::bits_f64(words[1]);
  o.hadb_down_time = resil::bits_f64(words[2]);
  o.system_failures = words[3];
  o.as_cluster_failures = words[4];
  o.hadb_pair_failures = words[5];
  o.imperfect_recoveries = words[6];
  o.as_instance_failures = words[7];
  o.hadb_node_failures = words[8];
  o.events = words[9];
  return o;
}

}  // namespace

JsasSimResult simulate_jsas(const models::JsasConfig& config,
                            const expr::ParameterSet& params,
                            const JsasSimOptions& options) {
  if (config.as_instances < 2 || config.hadb_pairs < 1) {
    throw std::invalid_argument(
        "simulate_jsas: needs >= 2 instances and >= 1 pair");
  }
  if (!(options.duration > 0.0) || options.replications == 0) {
    throw std::invalid_argument("simulate_jsas: bad duration/replications");
  }
  const SimParams sim_params(params);

  // Each replication is seeded from its own root.split(rep) substream
  // and fills its own outcome slot; the merge below runs in replication
  // order, so every thread count and every resume is bit-identical.
  const stats::RandomEngine root(options.seed);
  std::vector<ReplicationOutcome> outcomes(options.replications);
  const core::ResumableRun run = core::resumable_for(
      options.replications, options.threads, options.control,
      {.engine = "simulate_jsas",
       .progress = "simulate",
       .index_span = "sim.jsas.replication",
       .failed_counter = "sim.jsas.replications_failed",
       .make_worker =
           [&] {
             return [&](std::size_t rep) {
               Replication replication(config, sim_params, options,
                                       root.split(rep));
               outcomes[rep] = replication.run();
             };
           },
       .restore =
           [&](std::size_t rep, const std::vector<std::uint64_t>& words) {
             outcomes[rep] = decode_outcome(words);
           },
       .encode =
           [&](std::size_t rep) { return encode_outcome(outcomes[rep]); }});

  JsasSimResult result;
  double as_down_total = 0.0;
  double hadb_down_total = 0.0;
  for (std::size_t rep = 0; rep < options.replications; ++rep) {
    if (run.status[rep] == core::IndexStatus::kFailed) {
      result.failures.push_back({rep, run.errors[rep]});
    }
    if (run.status[rep] != core::IndexStatus::kOk) continue;
    const ReplicationOutcome& outcome = outcomes[rep];
    ++result.completed_replications;
    result.per_replication_availability.add(outcome.availability);
    as_down_total += outcome.as_down_time;
    hadb_down_total += outcome.hadb_down_time;
    result.system_failures += outcome.system_failures;
    result.as_cluster_failures += outcome.as_cluster_failures;
    result.hadb_pair_failures += outcome.hadb_pair_failures;
    result.imperfect_recoveries += outcome.imperfect_recoveries;
    result.as_instance_failures += outcome.as_instance_failures;
    result.hadb_node_failures += outcome.hadb_node_failures;
    result.events_simulated += outcome.events;
  }
  result.interrupted = run.interrupted;
  result.interrupt_reason = run.interrupt_reason;
  // Counters are fed from the ordered merge, not from inside the
  // parallel region, so the tallies are identical for any thread count.
  if (obs::enabled()) {
    obs::counter("sim.jsas.replications").add(result.completed_replications);
    obs::counter("sim.jsas.events").add(result.events_simulated);
  }
  if (result.completed_replications == 0) return result;

  const double total_time =
      options.duration * static_cast<double>(result.completed_replications);
  result.availability = result.per_replication_availability.mean();
  result.availability_ci95 = stats::mean_confidence_interval(
      result.per_replication_availability, 0.95);
  result.downtime_minutes_per_year =
      core::downtime_minutes_per_year(1.0 - result.availability);
  result.downtime_as_minutes =
      core::downtime_minutes_per_year(as_down_total / total_time);
  result.downtime_hadb_minutes =
      core::downtime_minutes_per_year(hadb_down_total / total_time);
  result.mtbf_hours =
      result.system_failures > 0
          ? total_time / static_cast<double>(result.system_failures)
          : std::numeric_limits<double>::infinity();
  return result;
}

}  // namespace rascal::sim
