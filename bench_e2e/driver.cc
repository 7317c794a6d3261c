// Closed-loop end-to-end driver for the view-maintenance library.
//
// One process runs one workload. It generates a cycle of input sets from
// --seed, then replays them as a sequence of episodes until --seconds have
// passed. An episode is a fresh Simulation, the workload's k updates driven
// to quiescence in best-case order, and the correctness verdict. All
// of it goes through Simulation's public API; nothing under src/ is changed
// for measurement.
//
//   e2e_driver --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// --trace 0 reports the end-to-end metrics. --trace 1 spends half the time
// untraced and half traced, where every call into a layer is recorded as a
// span, and reports the per-layer metrics; the throughput gap between the
// halves is the tracing overhead. The last line of standard output is one
// JSON object with the keys "correct", "attempted", "failed", "metrics".
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "consistency/checker.h"
#include "consistency/staleness.h"
#include "core/eca.h"
#include "core/factory.h"
#include "core/self_maintain.h"
#include "sim/policies.h"
#include "sim/simulation.h"
#include "workload/generator.h"

namespace wvm::e2e {
namespace {

using Clock = std::chrono::steady_clock;

double Between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest-rank percentile of a sorted, non-empty sample.
double Percentile(const std::vector<double>& sorted, double pct) {
  size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * sorted.size()));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

// ---------------------------------------------------------------------------
// Host speed. The VM shares its cache and memory bandwidth with other
// tenants, and the same episode ran up to 1.8x slower while they were busy,
// in phases minutes long, so raw times of ten runs spread up to 53 %.
// Before every episode the driver times a fixed kernel that does not use
// the library: dependent random reads over 64 MB, then filling 16 MB of
// fresh memory. Timings are reported scaled by kProbeNominalS / probe time,
// as if the host ran at the probe's nominal speed, about its median on this
// VM; the raw figures are printed beside them.

constexpr size_t kProbeWords = size_t{1} << 23;       // 64 MB, reused
constexpr size_t kProbeFreshWords = size_t{1} << 21;  // 16 MB, fresh
constexpr int kProbeReads = 1 << 19;
constexpr double kProbeNominalS = 0.075;

double ProbeSeconds() {
  static std::vector<uint64_t> table = [] {
    std::vector<uint64_t> t(kProbeWords);
    Random rng(1);
    for (uint64_t& word : t) {
      word = rng.Next();
    }
    return t;
  }();
  const Clock::time_point start = Clock::now();
  uint64_t x = 0;
  for (int i = 0; i < kProbeReads; ++i) {
    x = table[(x ^ static_cast<uint64_t>(i)) & (kProbeWords - 1)];
  }
  std::vector<uint64_t> fresh(kProbeFreshWords, x);
  volatile uint64_t sink = fresh[x % kProbeFreshWords];
  (void)sink;
  return Between(start, Clock::now());
}

// ---------------------------------------------------------------------------
// Workloads. Each is sized so that one layer dominates its time; spec.json
// beside this file records the rationale, the dominant layer and which
// per-layer metric should move which end-to-end metric.

struct WorkloadSpec {
  const char* name;
  // fk-star (orders -> parts -> suppliers) maintained by SelfMaintainer;
  // otherwise the paper's Example 6 chain maintained by ECA.
  bool fk_star;
  int64_t cardinality;  // C; for fk-star, the number of orders
  int64_t k;            // updates per episode
  // The consistency oracle: record every state and check strong
  // consistency. Off, the verdict is convergence.
  bool record_states;
  // Reliable transport over lossy links, file-backed WAL, checkpoints and
  // crash/restart rounds driven from here.
  bool durable;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"oracle_best", false, 1000, 150, true, false},
    {"dataplane_best", false, 10000, 5000, false, false},
    {"durable_fkstar", true, 10000, 4000, false, true},
};

constexpr int64_t kJoinFactor = 4;
// Half deletes keep relation and view sizes near C, so per-update cost does
// not drift with k.
constexpr double kDeleteFraction = 0.5;
constexpr double kDropRate = 0.05;
constexpr int kMaxDelayTicks = 1;
// Parts no order references at the start. Self-maintenance cannot prove an
// order insert that reaches one of them local, so about 12 % of updates fall
// back to the source: M, B and source reads stay non-zero, and with this
// many the count varies only a few percent between seeds.
constexpr int64_t kColdPartsDivisor = 4;
constexpr int64_t kCheckpointEvery = 64;  // site events between checkpoints
// Updates between crash rounds: 16 rounds per episode, so restarts weigh in
// an episode about as 12 rounds of 1000 updates do in one of 12000 updates.
constexpr uint64_t kCrashEvery = 250;
// Set-ups timed on their own before the episodes, for at least this many
// and this share of the run, so the set-up median has enough samples even
// when few episodes fit in a run.
constexpr int kMinSetups = 8;
constexpr double kSetupShare = 0.1;
// A run cycles through this many input sets, all derived from the seed, so
// its medians do not rest on one data set. Counts are means over the first
// cycle and repeat exactly at a seed.
constexpr size_t kCycle = 8;
// Input set i draws its data from seed i and its fault schedule from seed i
// xor this, so the two streams are unrelated.
constexpr uint64_t kFaultSalt = 0x8CB92BA72F3D8DD7ULL;

struct Inputs {
  Workload workload;
  std::vector<Update> updates;
};

Result<Inputs> MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  Random rng(seed);
  Inputs in;
  if (spec.fk_star) {
    FkStarConfig star;
    star.orders = spec.cardinality;
    star.parts = spec.cardinality / 4;
    star.suppliers = spec.cardinality / 12;
    star.cold_parts = star.parts / kColdPartsDivisor;
    WVM_ASSIGN_OR_RETURN(in.workload, MakeFkStarWorkload(star, &rng));
    WVM_ASSIGN_OR_RETURN(in.updates,
                         MakeFkStarUpdates(in.workload, spec.k, &rng));
  } else {
    WVM_ASSIGN_OR_RETURN(
        in.workload,
        MakeExample6Workload({spec.cardinality, kJoinFactor}, &rng));
    WVM_ASSIGN_OR_RETURN(in.updates,
                         MakeMixedUpdates(in.workload, spec.k,
                                          kDeleteFraction, &rng));
  }
  return in;
}

// ---------------------------------------------------------------------------
// Spans, recorded by the traced pass around each public call into a layer.

enum SpanKind : uint8_t {
  kEpisode,
  kCreate,
  kScript,
  kSourceUpdate,
  kSourceAnswer,
  kWarehouseStep,
  kTransportTick,
  kCheckpoint,
  kCrash,
  kRestart,
  kVerdict,
  kStaleness,
  kNumSpanKinds,
};

constexpr const char* kSpanNames[kNumSpanKinds] = {
    "episode",          "setup.create",        "setup.script",
    "source.update",    "source.answer",       "core.step",
    "transport.tick",   "recovery.checkpoint", "recovery.crash",
    "recovery.restart", "consistency.verdict", "consistency.staleness",
};

struct Span {
  SpanKind kind;
  int32_t parent;   // index of the enclosing span, -1 for an episode
  uint64_t update;  // the update the call served, 0 when none or unknown
  Clock::time_point start;
  Clock::time_point end;
};

// Spans stay in memory and are written out once the run is over.
class Tracer {
 public:
  int32_t Add(SpanKind kind, int32_t parent, uint64_t update,
              Clock::time_point start, Clock::time_point end) {
    spans_.push_back({kind, parent, update, start, end});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void Close(int32_t span, Clock::time_point end) { spans_[span].end = end; }
  const std::vector<Span>& spans() const { return spans_; }

  // One tab-separated line per span; times in ns since `origin`.
  bool Write(const std::string& path, Clock::time_point origin) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fprintf(f, "span\tparent\tname\tstart_ns\tend_ns\tupdate\n");
    const auto ns = [origin](Clock::time_point t) {
      return static_cast<long long>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
              .count());
    };
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%d\t%s\t%lld\t%lld\t%llu\n", i, s.parent,
                   kSpanNames[s.kind], ns(s.start), ns(s.end),
                   static_cast<unsigned long long>(s.update));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Episodes.

// Counters read from the library's meters after an episode. Every episode
// of a run replays the same inputs, so every episode of a pass must produce
// the same counts; a mismatch fails the run.
struct Counts {
  int64_t messages = 0;  // M
  int64_t bytes = 0;     // B
  int64_t page_reads = 0;
  int64_t notifications = 0;
  int64_t answers = 0;
  int64_t terms_shipped = 0;
  int64_t local_updates = 0;
  int64_t remote_updates = 0;
  int64_t states = 0;
  int64_t wal_appends = 0;
  int64_t wal_bytes = 0;
  int64_t wal_flushes = 0;
  int64_t wal_fsyncs = 0;
  int64_t segments_dropped = 0;
  int64_t retransmitted = 0;
  int64_t acks = 0;
  int64_t frames_dropped = 0;
  // Traced pass only: read in the consumption tap / after warehouse steps.
  int64_t terms_substituted = 0;
  int64_t uqs_peak = 0;

  bool operator==(const Counts&) const = default;
};

struct Episode {
  double create_s = 0;
  double script_s = 0;
  double run_s = 0;     // first step to the end of the last step
  double verdict_s = 0;
  double total_s = 0;   // first step to the end of the verdict
  double policy_s = 0;  // traced pass: time spent choosing the next action
  double probe_s = 0;   // the host-speed probe run just before the episode
  std::vector<double> install_ms;
  int64_t updates = 0;
  Counts counts;
  double staleness_coverage = 0;
  double staleness_mean_lag = 0;
  int32_t span = -1;    // traced pass: the episode's span
  std::string failure;  // empty iff the verdict passed
};

// BestCasePolicy lets transport time pass only when no site event is
// enabled, so over a delaying wire it runs every update before the first
// answer arrives. Draining the wire first keeps the paper's best case, each
// update's round trip done before the next update; without transport work
// this is exactly BestCasePolicy.
class BestCaseOverWirePolicy : public Policy {
 public:
  SimAction Next(const Simulation& sim) override {
    if (!sim.CanWarehouseStep() && !sim.CanSourceAnswer() &&
        sim.CanTransportTick()) {
      return SimAction::kTransportTick;
    }
    return best_.Next(sim);
  }

 private:
  BestCasePolicy best_;
};

// Episode i replays input set i % kCycle.
struct Setting {
  const WorkloadSpec* spec;
  std::vector<uint64_t> seeds;  // one per input set, derived from --seed
  std::vector<Inputs> inputs;
};

// The two costs the library does not expose as calls of their own: state
// recording for the oracle and the journal's file writes. The traced pass
// switches each off to time it by difference.
struct Variant {
  bool record_states;
  bool file_wal;
};

Variant Full(const WorkloadSpec& spec) {
  return {spec.record_states, spec.durable};
}

SimulationOptions MakeOptions(const Setting& s, size_t index,
                              Variant variant) {
  SimulationOptions o;
  o.indexes = s.inputs[index].workload.scenario1_indexes;
  o.instrument.record_states = variant.record_states;
  if (s.spec->durable) {
    o.fault.enabled = true;
    o.fault.reliable = true;
    o.fault.drop_rate = kDropRate;
    o.fault.max_delay_ticks = kMaxDelayTicks;
    o.fault.seed = s.seeds[index] ^ kFaultSalt;
    o.recovery.enabled = true;
    // The driver checkpoints, so checkpoint time is measured from outside.
    o.recovery.checkpoint_every = 0;
    // Segments go to a fresh directory under $TMPDIR, removed with the
    // simulation. Every record is still written to a segment file; fsync is
    // off because the benchmark may only write inside its checkout, whose
    // disk is shared: there fsync halved throughput and spread it 44 %
    // between runs, against 6 % without.
    o.recovery.backend =
        variant.file_wal ? JournalBackend::kFile : JournalBackend::kMemory;
    o.recovery.wal.fsync = false;
  }
  return o;
}

// Simulation::Create (with its maintainer) plus SetUpdateScript: the set-up
// the setup_s metric times. Copying the inputs is not part of it.
Result<std::unique_ptr<Simulation>> SetUp(const Setting& s, size_t index,
                                          Variant variant, Episode* ep,
                                          Tracer* tracer) {
  const Inputs& in = s.inputs[index];
  std::vector<Update> script = in.updates;
  const Clock::time_point t0 = Clock::now();
  MaintainerSpec maintainer_spec;
  maintainer_spec.algorithm =
      s.spec->fk_star ? Algorithm::kSelfMaintain : Algorithm::kEca;
  WVM_ASSIGN_OR_RETURN(std::unique_ptr<ViewMaintainer> maintainer,
                       MakeMaintainer(maintainer_spec, in.workload.view));
  WVM_ASSIGN_OR_RETURN(
      std::unique_ptr<Simulation> sim,
      Simulation::Create(in.workload.initial, in.workload.view,
                         std::move(maintainer), MakeOptions(s, index, variant)));
  const Clock::time_point t1 = Clock::now();
  sim->SetUpdateScript(std::move(script));
  const Clock::time_point t2 = Clock::now();
  ep->create_s = Between(t0, t1);
  ep->script_s = Between(t1, t2);
  if (tracer != nullptr) {
    tracer->Add(kCreate, ep->span, 0, t0, t1);
    tracer->Add(kScript, ep->span, 0, t1, t2);
  }
  return sim;
}

// The correctness gate: empty when the episode passed.
std::string Verdict(const Simulation& sim, const WorkloadSpec& spec,
                    bool record_states, size_t installed) {
  if (!sim.Quiescent()) {
    return "the run stopped before the system was quiescent";
  }
  if (!sim.maintainer().IsQuiescent()) {
    return "the maintainer still has queries in flight";
  }
  const uint64_t k = static_cast<uint64_t>(spec.k);
  if (sim.updates_executed() != k || installed != k) {
    return "executed " + std::to_string(sim.updates_executed()) +
           " updates and detected " + std::to_string(installed) +
           " installs, of " + std::to_string(k);
  }
  if (record_states) {
    const ConsistencyReport report = CheckConsistency(sim.state_log());
    if (!report.strongly_consistent || !report.convergent) {
      return "not strongly consistent: " + report.violation;
    }
    return "";
  }
  Result<Relation> expected = sim.SourceViewNow();
  if (!expected.ok()) {
    return expected.status().ToString();
  }
  if (!(sim.warehouse_view() == *expected)) {
    return "the warehouse view differs from the view at the source";
  }
  return "";
}

Episode RunEpisode(const Setting& s, size_t index, Variant variant,
                   Tracer* tracer) {
  const WorkloadSpec& spec = *s.spec;
  const bool record_states = variant.record_states;
  Episode ep;
  ep.probe_s = ProbeSeconds();
  if (tracer != nullptr) {
    ep.span = tracer->Add(kEpisode, -1, 0, Clock::now(), Clock::now());
  }
  // Install tracking. Declared before the simulation, whose tap uses it.
  std::vector<Clock::time_point> issued(spec.k + 1);
  std::vector<uint64_t> consumed;     // notifications consumed, not installed
  uint64_t step_update = 0;           // update the warehouse step serves
  std::deque<uint64_t> query_owners;  // updates whose W_up sent a query

  Result<std::unique_ptr<Simulation>> created =
      SetUp(s, index, variant, &ep, tracer);
  if (!created.ok()) {
    ep.failure = created.status().ToString();
    return ep;
  }
  std::unique_ptr<Simulation> sim = std::move(created).value();
  const Eca* eca = dynamic_cast<const Eca*>(&sim->maintainer());
  Counts& c = ep.counts;
  sim->SetConsumedMessageTap([&](const SourceMessage& m) {
    if (const auto* n = std::get_if<UpdateNotification>(&m)) {
      consumed.push_back(n->update.id);
      step_update = n->update.id;
      if (tracer != nullptr && eca != nullptr) {
        for (const auto& [id, query] : eca->uqs()) {
          c.terms_substituted += static_cast<int64_t>(query.NumTerms());
        }
      }
    } else if (const auto* a = std::get_if<AnswerMessage>(&m)) {
      step_update = a->update_id;
    }
  });

  const auto timed = [&](SpanKind kind, uint64_t update, auto&& call) {
    const Clock::time_point t0 = Clock::now();
    Status status = call();
    if (tracer != nullptr) {
      tracer->Add(kind, ep.span, update, t0, Clock::now());
    }
    return status;
  };

  BestCaseOverWirePolicy policy;
  int64_t warehouse_events = 0;
  int64_t source_events = 0;
  Status status;
  const Clock::time_point first = Clock::now();
  while (status.ok()) {
    const Clock::time_point p0 = Clock::now();
    const SimAction action = policy.Next(*sim);
    if (tracer != nullptr) {
      ep.policy_s += Between(p0, Clock::now());
    }
    if (action == SimAction::kNone) {
      break;
    }
    SpanKind kind = kTransportTick;
    uint64_t update = 0;
    const Clock::time_point t0 = Clock::now();
    switch (action) {
      case SimAction::kSourceUpdate:
        kind = kSourceUpdate;
        update = sim->updates_executed() + 1;
        issued[update] = t0;
        status = sim->StepSourceUpdate();
        break;
      case SimAction::kSourceAnswer:
        kind = kSourceAnswer;
        if (!query_owners.empty()) {
          update = query_owners.front();
          query_owners.pop_front();
        }
        status = sim->StepSourceAnswer();
        break;
      case SimAction::kWarehouseStep: {
        kind = kWarehouseStep;
        const int64_t queries = sim->meter().query_messages();
        step_update = 0;
        status = sim->StepWarehouse();
        update = step_update;
        if (sim->meter().query_messages() > queries) {
          query_owners.push_back(update);
        }
        break;
      }
      case SimAction::kTransportTick:
        status = sim->StepTransportTick();
        break;
      default:
        status = Status::Internal("the policy chose a crash or restart");
        break;
    }
    const Clock::time_point t1 = Clock::now();
    if (tracer != nullptr) {
      tracer->Add(kind, ep.span, update, t0, t1);
    }
    if (!status.ok()) {
      break;
    }
    if (action == SimAction::kWarehouseStep) {
      if (sim->maintainer().IsQuiescent()) {
        for (uint64_t id : consumed) {
          ep.install_ms.push_back(Between(issued[id], t1) * 1e3);
        }
        consumed.clear();
      }
      if (tracer != nullptr && eca != nullptr) {
        c.uqs_peak =
            std::max(c.uqs_peak, static_cast<int64_t>(eca->uqs().size()));
      }
    }
    if (!spec.durable) {
      continue;
    }
    if (action == SimAction::kWarehouseStep &&
        ++warehouse_events % kCheckpointEvery == 0) {
      status = timed(kCheckpoint, 0, [&] { return sim->CheckpointWarehouse(); });
    }
    if ((action == SimAction::kSourceUpdate ||
         action == SimAction::kSourceAnswer) &&
        ++source_events % kCheckpointEvery == 0 && status.ok()) {
      status = timed(kCheckpoint, 0, [&] { return sim->CheckpointSource(); });
    }
    if (action == SimAction::kSourceUpdate && update % kCrashEvery == 0 &&
        status.ok()) {
      status = timed(kCrash, 0, [&] { return sim->CrashWarehouse(); });
      if (status.ok()) {
        status = timed(kRestart, 0, [&] { return sim->RestartWarehouse(); });
      }
      if (status.ok()) {
        status = timed(kCrash, 0, [&] { return sim->CrashSource(); });
      }
      if (status.ok()) {
        status = timed(kRestart, 0, [&] { return sim->RestartSource(); });
      }
    }
  }
  const Clock::time_point last = Clock::now();
  ep.failure = status.ok()
                   ? Verdict(*sim, spec, record_states, ep.install_ms.size())
                   : status.ToString();
  const Clock::time_point judged = Clock::now();
  ep.run_s = Between(first, last);
  ep.verdict_s = Between(last, judged);
  ep.total_s = Between(first, judged);
  ep.updates = static_cast<int64_t>(sim->updates_executed());
  if (tracer != nullptr) {
    tracer->Add(kVerdict, ep.span, 0, last, judged);
    if (record_states) {
      const Clock::time_point t0 = Clock::now();
      const StalenessReport staleness = MeasureStaleness(sim->state_log());
      tracer->Add(kStaleness, ep.span, 0, t0, Clock::now());
      ep.staleness_coverage = staleness.coverage;
      ep.staleness_mean_lag = staleness.mean_lag;
    }
  }

  const CostMeter& meter = sim->meter();
  c.messages = meter.messages();
  c.bytes = meter.bytes_transferred();
  c.page_reads = sim->io_stats().page_reads;
  c.notifications = meter.notifications();
  c.answers = meter.answer_messages();
  c.terms_shipped = meter.query_terms();
  if (const auto* sm = dynamic_cast<const SelfMaintainer*>(&sim->maintainer())) {
    c.local_updates = sm->local_updates();
    c.remote_updates = sm->remote_updates();
  }
  c.states = static_cast<int64_t>(sim->state_log().source_view_states.size() +
                                  sim->state_log().warehouse_view_states.size());
  const WalStats wal = sim->wal_stats();
  c.wal_appends = wal.appends;
  c.wal_bytes = wal.appended_bytes;
  c.wal_flushes = wal.flushes;
  c.wal_fsyncs = wal.fsyncs;
  c.segments_dropped = wal.segments_dropped;
  c.retransmitted = meter.retransmitted_messages();
  c.acks = meter.ack_messages();
  c.frames_dropped = sim->transport_stats().link.frames_dropped;
  sim.reset();  // close the WAL and remove its directory inside the episode
  if (tracer != nullptr) {
    tracer->Close(ep.span, Clock::now());
  }
  return ep;
}

// Runs episodes until `budget_s` has passed, and at least one cycle.
std::vector<Episode> RunEpisodes(const Setting& s, double budget_s,
                                 Tracer* tracer) {
  std::vector<Episode> episodes;
  const Clock::time_point start = Clock::now();
  while (episodes.size() < kCycle || Between(start, Clock::now()) < budget_s) {
    episodes.push_back(
        RunEpisode(s, episodes.size() % kCycle, Full(*s.spec), tracer));
  }
  return episodes;
}

// A count averaged over the first cycle of episodes: the value repeats
// exactly at a fixed seed.
double CycleMean(const std::vector<Episode>& episodes, int64_t Counts::*field) {
  double sum = 0;
  for (size_t i = 0; i < kCycle; ++i) {
    sum += static_cast<double>(episodes[i].counts.*field);
  }
  return sum / kCycle;
}

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;
};

// Tallies a pass: a failed verdict fails every update of its episode, and
// so do counts that differ from an earlier episode of the same schedule.
void Tally(const std::vector<Episode>& episodes, Outcome* out) {
  for (size_t i = 0; i < episodes.size(); ++i) {
    const Episode& ep = episodes[i];
    out->attempted += ep.updates;
    if (!ep.failure.empty()) {
      out->failed += ep.updates;
      out->failures.push_back(ep.failure);
    } else if (!(ep.counts == episodes[i % kCycle].counts)) {
      out->failed += ep.updates;
      out->failures.push_back("counts differ between episodes of one input");
    }
  }
}

// Converts an episode's raw times to times at the probe's nominal speed.
double Scale(const Episode& ep) { return kProbeNominalS / ep.probe_s; }

double UpdatesPerSecond(const WorkloadSpec& spec,
                        const std::vector<Episode>& episodes, bool scaled) {
  std::vector<double> rates;
  for (const Episode& ep : episodes) {
    rates.push_back(static_cast<double>(spec.k) /
                    (ep.total_s * (scaled ? Scale(ep) : 1.0)));
  }
  return Median(rates);
}

double MedianProbe(const std::vector<Episode>& episodes) {
  std::vector<double> probes;
  for (const Episode& ep : episodes) {
    probes.push_back(ep.probe_s);
  }
  return Median(probes);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<Metric> EndToEnd(const WorkloadSpec& spec,
                             const std::vector<double>& setups,
                             const std::vector<Episode>& episodes) {
  // Latency percentiles are taken per episode, over its k installs, and
  // the run reports their medians over episodes, so a burst of host noise
  // that slows a few episodes does not move them. The tail is p99, or the
  // highest percentile with at least 10 of the k samples beyond it.
  const double k = static_cast<double>(spec.k);
  const double tail_pct = k >= 1000 ? 99.0 : 100.0 * (1.0 - 10.0 / k);
  std::vector<double> p50s, tails, raw_p50s, raw_tails;
  for (const Episode& ep : episodes) {
    std::vector<double> sorted = ep.install_ms;
    std::sort(sorted.begin(), sorted.end());
    if (!sorted.empty()) {
      raw_p50s.push_back(Percentile(sorted, 50));
      raw_tails.push_back(Percentile(sorted, tail_pct));
      p50s.push_back(raw_p50s.back() * Scale(ep));
      tails.push_back(raw_tails.back() * Scale(ep));
    }
  }
  const double p50 = Median(p50s);
  const double tail = Median(tails);
  const double probe_s = MedianProbe(episodes);
  std::printf(
      "install latency: p50 %.4f ms, p%g %.4f ms; per episode of %lld "
      "installs, median of %zu episodes\n",
      p50, tail_pct, tail, static_cast<long long>(spec.k), tails.size());
  std::printf(
      "raw, unscaled: updates_per_s %.2f, install p50 %.4f ms, p%g %.4f ms, "
      "setup %.6f s; host probe %.2f ms (nominal %.2f)\n",
      UpdatesPerSecond(spec, episodes, false), Median(raw_p50s), tail_pct,
      Median(raw_tails), Median(setups), probe_s * 1e3, kProbeNominalS * 1e3);
  const auto per_update = [&](int64_t Counts::*field) {
    return CycleMean(episodes, field) / static_cast<double>(spec.k);
  };
  return {
      {"updates_per_s", UpdatesPerSecond(spec, episodes, true), "updates/s"},
      {"install_p50_ms", p50, "ms"},
      {"install_tail_ms", tail, "ms"},
      {"setup_s", Median(setups) * kProbeNominalS / probe_s, "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"msgs_per_update", per_update(&Counts::messages), "msgs"},
      {"bytes_per_update", per_update(&Counts::bytes), "bytes"},
      {"source_reads_per_update", per_update(&Counts::page_reads), "pages"},
  };
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::vector<Metric> PerLayer(const WorkloadSpec& spec,
                             const std::vector<double>& creates,
                             const std::vector<double>& scripts,
                             const std::vector<Episode>& untraced,
                             const std::vector<Episode>& traced,
                             const std::vector<Episode>& recording_off,
                             const std::vector<Episode>& memory_wal,
                             const Tracer& tracer) {
  // Per episode: calls and busy time of each span kind; pooled durations.
  std::map<int32_t, size_t> episode_of;
  for (size_t i = 0; i < traced.size(); ++i) {
    episode_of[traced[i].span] = i;
  }
  std::vector<std::vector<int64_t>> calls(
      kNumSpanKinds, std::vector<int64_t>(traced.size()));
  std::vector<std::vector<double>> busy(kNumSpanKinds,
                                        std::vector<double>(traced.size()));
  std::vector<std::vector<double>> durations(kNumSpanKinds);
  for (const Span& span : tracer.spans()) {
    const auto it = episode_of.find(span.parent);
    if (it == episode_of.end()) {
      continue;
    }
    const double d = Between(span.start, span.end);
    ++calls[span.kind][it->second];
    busy[span.kind][it->second] += d;
    durations[span.kind].push_back(d);
  }
  // Counts and call counts: means over the first cycle of traced episodes.
  const auto count = [&](int64_t Counts::*field) {
    return CycleMean(traced, field);
  };
  const auto n_calls = [&](SpanKind kind) {
    double sum = 0;
    for (size_t i = 0; i < kCycle; ++i) {
      sum += static_cast<double>(calls[kind][i]);
    }
    return sum / kCycle;
  };
  const auto busy_s = [&](SpanKind kind, SpanKind also = kNumSpanKinds) {
    std::vector<double> per_episode = busy[kind];
    if (also != kNumSpanKinds) {
      for (size_t i = 0; i < per_episode.size(); ++i) {
        per_episode[i] += busy[also][i];
      }
    }
    return Median(per_episode);
  };
  const auto p50_us = [&](SpanKind kind) {
    return Median(durations[kind]) * 1e6;
  };
  const auto median_of = [](const std::vector<Episode>& eps, auto field) {
    std::vector<double> v;
    for (const Episode& ep : eps) {
      v.push_back(field(ep));
    }
    return Median(v);
  };
  // Median over input sets of the traced episode's steps minus the same
  // schedule's with one cost switched off.
  const auto gap_s = [&](const std::vector<Episode>& off) {
    std::vector<double> gaps;
    for (size_t i = 0; i < off.size(); ++i) {
      gaps.push_back(traced[i].run_s - off[i].run_s);
    }
    return Median(gaps);
  };
  const double ups_untraced = UpdatesPerSecond(spec, untraced, true);
  const double ups_traced = UpdatesPerSecond(spec, traced, true);
  return {
      {"consistency.verdict_s",
       median_of(traced, [](const Episode& e) { return e.verdict_s; }), "s"},
      {"consistency.recording_s", gap_s(recording_off), "s"},
      {"consistency.states", count(&Counts::states), "count"},
      {"consistency.staleness_coverage",
       median_of(traced, [](const Episode& e) { return e.staleness_coverage; }),
       "ratio"},
      {"consistency.staleness_mean_lag",
       median_of(traced, [](const Episode& e) { return e.staleness_mean_lag; }),
       "events"},
      {"core.step.calls", n_calls(kWarehouseStep), "count"},
      {"core.step.busy_s", busy_s(kWarehouseStep), "s"},
      {"core.step.p50_us", p50_us(kWarehouseStep), "us"},
      {"core.uqs_peak", count(&Counts::uqs_peak), "queries"},
      {"core.terms_substituted", count(&Counts::terms_substituted), "terms"},
      {"core.terms_shipped", count(&Counts::terms_shipped), "terms"},
      {"core.shipped_per_substituted",
       Ratio(count(&Counts::terms_shipped), count(&Counts::terms_substituted)),
       "ratio"},
      {"core.local_rate",
       Ratio(count(&Counts::local_updates),
             count(&Counts::local_updates) + count(&Counts::remote_updates)),
       "ratio"},
      {"source.update.calls", n_calls(kSourceUpdate), "count"},
      {"source.update.busy_s", busy_s(kSourceUpdate), "s"},
      {"source.update.p50_us", p50_us(kSourceUpdate), "us"},
      {"source.answer.calls", n_calls(kSourceAnswer), "count"},
      {"source.answer.busy_s", busy_s(kSourceAnswer), "s"},
      {"source.answer.p50_us", p50_us(kSourceAnswer), "us"},
      {"source.page_reads_per_answer",
       Ratio(count(&Counts::page_reads), count(&Counts::answers)), "pages"},
      {"recovery.checkpoint.calls", n_calls(kCheckpoint), "count"},
      {"recovery.checkpoint.busy_s", busy_s(kCheckpoint), "s"},
      {"recovery.restart.calls", n_calls(kRestart), "count"},
      {"recovery.restart.busy_s", busy_s(kRestart, kCrash), "s"},
      {"recovery.wal_s", gap_s(memory_wal), "s"},
      {"recovery.wal_appends", count(&Counts::wal_appends), "count"},
      {"recovery.wal_bytes", count(&Counts::wal_bytes), "bytes"},
      {"recovery.wal_flushes", count(&Counts::wal_flushes), "count"},
      {"recovery.wal_fsyncs", count(&Counts::wal_fsyncs), "count"},
      {"recovery.appends_per_flush",
       Ratio(count(&Counts::wal_appends), count(&Counts::wal_flushes)),
       "ratio"},
      {"recovery.segments_dropped", count(&Counts::segments_dropped), "count"},
      {"transport.tick.calls", n_calls(kTransportTick), "count"},
      {"transport.tick.busy_s", busy_s(kTransportTick), "s"},
      {"transport.retransmitted_messages", count(&Counts::retransmitted),
       "count"},
      {"transport.ack_messages", count(&Counts::acks), "count"},
      {"transport.frames_dropped", count(&Counts::frames_dropped), "count"},
      {"transport.retransmit_ratio",
       Ratio(count(&Counts::retransmitted),
             count(&Counts::notifications) + count(&Counts::messages)),
       "ratio"},
      {"setup.create_s", Median(creates), "s"},
      {"setup.script_s", Median(scripts), "s"},
      {"sim.policy_s",
       median_of(traced, [](const Episode& e) { return e.policy_s; }), "s"},
      {"sim.episode_s",
       median_of(traced, [](const Episode& e) { return e.total_s; }), "s"},
      {"host.probe_ms", MedianProbe(traced) * 1e3, "ms"},
      {"trace.overhead_pct",
       Ratio(ups_untraced - ups_traced, ups_untraced) * 100, "%"},
  };
}

// Each layer's time as a share of one traced episode. The shares overlap:
// state recording and the WAL's file writes run inside step calls.
void PrintLayerShares(const std::vector<Metric>& metrics) {
  std::map<std::string, double> m;
  for (const Metric& metric : metrics) {
    m[metric.name] = metric.value;
  }
  const std::pair<const char*, double> layers[] = {
      {"consistency", m["consistency.recording_s"] + m["consistency.verdict_s"]},
      {"core", m["core.step.busy_s"]},
      {"source", m["source.update.busy_s"] + m["source.answer.busy_s"]},
      {"recovery", m["recovery.checkpoint.busy_s"] +
                       m["recovery.restart.busy_s"] + m["recovery.wal_s"]},
      {"transport", m["transport.tick.busy_s"]},
  };
  std::printf("layer shares of an episode:");
  for (const auto& [name, busy] : layers) {
    std::printf(" %s %.0f%%", name, 100 * Ratio(busy, m["sim.episode_s"]));
  }
  std::printf("\n");
}

std::string JsonLine(const Outcome& outcome,
                     const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += outcome.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(outcome.attempted);
  out += ", \"failed\": " + std::to_string(outcome.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.12g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

bool WriteText(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

int Usage() {
  std::fprintf(stderr,
               "usage: e2e_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out DIR]\nworkloads:");
  for (const WorkloadSpec& w : kWorkloads) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args = {
      {"--seed", "1"}, {"--seconds", "10"}, {"--trace", "0"}, {"--out", ""}};
  for (int i = 1; i + 1 < argc; i += 2) {
    args[argv[i]] = argv[i + 1];
  }
  if (argc % 2 == 0 || args.count("--workload") == 0) {
    return Usage();
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args["--workload"] == w.name) {
      spec = &w;
    }
  }
  if (spec == nullptr) {
    return Usage();
  }
  const uint64_t seed = std::strtoull(args["--seed"].c_str(), nullptr, 10);
  const double seconds = std::strtod(args["--seconds"].c_str(), nullptr);
  const bool trace = args["--trace"] == "1";
  const std::string& out_dir = args["--out"];

  const char* threads = std::getenv("WVM_THREADS");
  const char* tmpdir = std::getenv("TMPDIR");
  std::printf("environment: build=%s WVM_THREADS=%s wal=%s\n",
              WVM_E2E_BUILD_TYPE, threads != nullptr ? threads : "(unset)",
              spec->durable ? (std::string("fsync off, under ") +
                               (tmpdir != nullptr ? tmpdir : "/tmp"))
                                  .c_str()
                            : "off");
  std::printf("workload: %s seed=%llu C=%lld k=%lld oracle=%s\n",
              spec->name, static_cast<unsigned long long>(seed),
              static_cast<long long>(spec->cardinality),
              static_cast<long long>(spec->k),
              spec->record_states ? "on" : "off");

  Setting setting{spec, {}, {}};
  for (size_t i = 0; i < kCycle; ++i) {
    setting.seeds.push_back(Random(seed * kCycle + i).Next());
    Result<Inputs> inputs = MakeInputs(*spec, setting.seeds.back());
    if (!inputs.ok()) {
      std::fprintf(stderr, "input generation failed: %s\n",
                   inputs.status().ToString().c_str());
      return 1;
    }
    setting.inputs.push_back(std::move(inputs).value());
  }

  const Clock::time_point origin = Clock::now();
  std::vector<double> setups, creates, scripts;
  const auto note_setup = [&](const Episode& ep) {
    setups.push_back(ep.create_s + ep.script_s);
    creates.push_back(ep.create_s);
    scripts.push_back(ep.script_s);
  };
  Outcome outcome;
  const Clock::time_point setup_start = Clock::now();
  while (setups.size() < kMinSetups ||
         Between(setup_start, Clock::now()) < seconds * kSetupShare) {
    Episode ep;
    Result<std::unique_ptr<Simulation>> sim =
        SetUp(setting, setups.size() % kCycle, Full(*spec), &ep, nullptr);
    if (!sim.ok()) {
      outcome.failures.push_back(sim.status().ToString());
      break;
    }
    note_setup(ep);
  }
  const size_t setup_only = setups.size();
  const std::vector<Episode> untraced =
      RunEpisodes(setting, trace ? seconds / 2 : seconds, nullptr);
  Tally(untraced, &outcome);
  for (const Episode& ep : untraced) {
    note_setup(ep);
  }

  std::vector<Metric> metrics;
  if (!trace) {
    metrics = EndToEnd(*spec, setups, untraced);
  } else {
    Tracer tracer;
    const std::vector<Episode> traced =
        RunEpisodes(setting, seconds / 2, &tracer);
    std::vector<Episode> recording_off, memory_wal;
    // One cycle with the oracle off (oracle_best) or the journal in memory
    // (durable_fkstar), paired with the first traced cycle.
    for (size_t i = 0; i < kCycle; ++i) {
      if (spec->record_states) {
        recording_off.push_back(
            RunEpisode(setting, i, {false, spec->durable}, &tracer));
      }
      if (spec->durable) {
        memory_wal.push_back(
            RunEpisode(setting, i, {spec->record_states, false}, &tracer));
      }
    }
    Tally(traced, &outcome);
    Tally(recording_off, &outcome);
    Tally(memory_wal, &outcome);
    for (const Episode& ep : traced) {
      note_setup(ep);
    }
    metrics = PerLayer(*spec, creates, scripts, untraced, traced,
                       recording_off, memory_wal, tracer);
    PrintLayerShares(metrics);
    if (!out_dir.empty()) {
      const std::string path = out_dir + "/" + spec->name + ".spans.tsv";
      if (tracer.Write(path, origin)) {
        std::printf("spans: %zu written to %s\n", tracer.spans().size(),
                    path.c_str());
      } else {
        std::fprintf(stderr, "could not write %s\n", path.c_str());
      }
    }
  }
  if (outcome.failures.size() > 0 && outcome.failed == 0) {
    outcome.failed = std::max<int64_t>(outcome.attempted, 1);
  }
  outcome.attempted = std::max<int64_t>(outcome.attempted, outcome.failed);

  std::printf("episodes: %zu untraced; set-ups: %zu on their own, %zu in all\n",
              untraced.size(), setup_only, setups.size());
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& failure : outcome.failures) {
    std::printf("FAILED: %s\n", failure.c_str());
  }
  const std::string line = JsonLine(outcome, metrics);
  if (!out_dir.empty()) {
    WriteText(out_dir + "/" + spec->name + (trace ? ".trace1" : ".trace0") +
                  ".json",
              line + "\n");
  }
  std::printf("%s\n", line.c_str());
  return outcome.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace wvm::e2e

int main(int argc, char** argv) { return wvm::e2e::Main(argc, argv); }
