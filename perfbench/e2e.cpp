// End-to-end benchmark program: one simulation of one workload for one seed.
//
// Each process builds a world (trace generation, cluster, ERMS manager,
// namespace populate), runs the workload's open-loop sim-time schedule to its
// horizon, drains to a quiescent point, checks its outputs and prints one
// JSON record on stdout. perfbench/run.py runs this binary several times per
// benchmark run, takes medians and compares the digests across processes.
//
//   erms_e2e --workload swim_read|judge_replay|lifecycle --seed N
//            [--mode untraced|traced] [--scale full|tiny]
//
// Untraced mode (ErmsConfig::observe=false) reads the host clock only around
// the set-up and the timed run: it measures the end-to-end metrics. Traced
// mode (observe=true) adds host clocks around the public calls into each
// layer — audit ingest, judge sweeps, run_until, populate, generate, the
// invariant check and one snapshot save — and scrapes the program's own
// metrics registry. The digest is built from public accessors that work with
// observe off, so the two modes must produce byte-identical digests.
//
// Sim-state never sees a host time: every clock read here only accumulates
// into ledger fields that are printed at the end.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/erms.h"
#include "fault/fault_plan.h"
#include "fault/invariant_checker.h"
#include "hdfs/cluster.h"
#include "obs/observability.h"
#include "snapshot/world.h"
#include "util/thread_pool.h"
#include "workload/swim.h"

namespace erms::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Adds the host seconds of its lifetime to `acc` when `on`; reads no clock
/// otherwise.
class Span {
 public:
  Span(bool on, double& acc) : on_(on), acc_(acc) {
    if (on_) {
      t0_ = Clock::now();
    }
  }
  ~Span() {
    if (on_) {
      acc_ += since(t0_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_;
  double& acc_;
  Clock::time_point t0_{};
};

std::uint64_t peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Workload definitions

/// Fixed across the workloads. Times are simulated.
constexpr std::uint64_t kBlockSize = 64 * util::MiB;
/// judge_replay stamps one audit record per gap.
constexpr sim::SimDuration kReplayGap = sim::micros(100);
/// Bound on the post-horizon drain to a quiescent world.
constexpr sim::SimDuration kDrainLimit = sim::hours(6.0);
/// Most blocks a world with crashes may lose. Some lifecycle worlds lose
/// blocks although only one node is down at a time (cause not yet found):
/// of 600 full-size worlds surveyed, 28 lost one block and 2 lost two, none
/// more. Twice the worst case leaves room for the tail and still fails a
/// change that loses data wholesale.
constexpr std::uint64_t kMaxBlocksLostWithFaults = 4;

/// Everything one workload fixes. Times are simulated.
struct WorkloadSpec {
  std::string name;
  std::size_t racks{1};
  std::size_t nodes_per_rack{1};
  /// Tail nodes of every rack that start in the standby pool.
  std::size_t standby_per_rack{0};
  workload::SwimConfig swim;
  double rack_uplink_bw{hdfs::ClusterConfig{}.rack_uplink_bw};
  sim::SimDuration horizon{};
  sim::SimDuration eval_period{};
  core::ErmsConfig erms;
  /// Bursty arrivals: jobs survive only in the first `burst_on` of every
  /// `burst_on + burst_off` cycle.
  sim::SimDuration burst_on{};
  sim::SimDuration burst_off{};
  /// Seeded node crashes (fault::FaultPlan::randomized) during the run.
  bool faults{false};
  /// judge_replay: uniform audit records fed straight into the judge feed,
  /// one per kReplayGap of sim time, with bulk populate on a stride
  /// placement (the ERMS manager is not started for it).
  std::uint64_t replay_events{0};
};

/// O(replicas) placement for bulk ingest: stride-probe from a hash of the
/// block id. The stock and ERMS policies scan every node per replica, which
/// would make a million-file populate the whole benchmark.
class StridePlacement final : public hdfs::PlacementPolicy {
 public:
  [[nodiscard]] std::vector<hdfs::NodeId> choose_targets(
      const hdfs::Cluster& cluster, hdfs::BlockId block, std::size_t count,
      std::optional<hdfs::NodeId> /*writer*/, sim::Rng& /*rng*/) const override {
    const std::uint64_t n = cluster.node_count();
    std::vector<hdfs::NodeId> chosen;
    std::uint64_t h = (block.value() + 1) * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 29;
    const std::uint64_t stride = 1 + (h >> 33) % 97;
    std::uint64_t at = h % n;
    for (std::uint64_t probe = 0; probe < n && chosen.size() < count; ++probe) {
      const hdfs::NodeId cand{static_cast<std::uint32_t>(at)};
      at = (at + stride) % n;
      if (cluster.node(cand).state == hdfs::NodeState::kActive &&
          std::find(chosen.begin(), chosen.end(), cand) == chosen.end()) {
        chosen.push_back(cand);
      }
    }
    return chosen;
  }

  [[nodiscard]] std::optional<hdfs::NodeId> choose_replica_to_remove(
      const hdfs::Cluster& cluster, hdfs::BlockId block,
      sim::Rng& /*rng*/) const override {
    const auto& locs = cluster.locations_view(block);
    if (locs.empty()) {
      return std::nullopt;
    }
    return locs[locs.size() - 1];
  }

  [[nodiscard]] std::string name() const override { return "perfbench-stride"; }
};

WorkloadSpec make_spec(const std::string& name, bool tiny) {
  WorkloadSpec w;
  w.name = name;
  core::ErmsConfig& e = w.erms;
  // Only the byte-level codec would use this pool, and the loop never runs
  // it (the cluster simulates stripe bytes); keep it to one thread.
  e.codec_threads = 1;
  e.sweep_threads = 1;
  e.judge_shards = 1;
  if (name == "swim_read") {
    // ~1k nodes, Zipf SWIM reads at 100 jobs/s with the hot set rotating
    // every 15 s, ERMS live (a few hot promotions per world); 130-150 flows
    // stay in the air. Sizes and skew are mild so no hot file saturates its
    // replicas: every seed is the same steady state, not a backlog whose
    // depth depends on which file happens to be hot, and the cost is
    // sim/net/hdfs event handling.
    w.racks = tiny ? 4 : 25;
    w.nodes_per_rack = tiny ? 10 : 40;
    w.standby_per_rack = 2;
    w.rack_uplink_bw = 1.0e9;
    w.swim.file_count = tiny ? 300 : 2000;
    w.swim.zipf_exponent = 0.6;
    w.swim.size_mu = 18.42;  // median ≈ 96 MiB
    w.swim.size_sigma = 0.25;
    w.swim.min_file_bytes = 32 * util::MiB;
    w.swim.max_file_bytes = 256 * util::MiB;
    w.swim.mean_interarrival_s = tiny ? 0.1 : 0.01;
    w.horizon = sim::seconds(30.0);
    w.swim.epoch = sim::seconds(15.0);
    w.eval_period = sim::seconds(10.0);
    e.thresholds.window = sim::seconds(60.0);
  } else if (name == "lifecycle") {
    // A few hundred nodes, bursts separated by idle gaps longer than
    // cold_age: files heat, cool, go cold (cooling and frozen bands), and
    // re-warm when the next epoch's hot set picks them again, while crashes
    // force re-replication and EC repair.
    w.racks = tiny ? 4 : 16;
    w.nodes_per_rack = tiny ? 10 : 25;
    w.standby_per_rack = tiny ? 2 : 4;
    w.swim.file_count = tiny ? 120 : 1500;
    w.swim.mean_interarrival_s = tiny ? 1.0 : 0.2;
    w.swim.size_mu = 18.7;  // median ≈ 128 MiB
    w.swim.size_sigma = 0.5;
    w.swim.zipf_exponent = 1.0;
    w.burst_on = sim::minutes(10.0);
    w.burst_off = sim::minutes(15.0);
    w.swim.epoch = w.burst_on + w.burst_off;
    const int cycles = tiny ? 2 : 4;
    w.horizon = sim::SimDuration{(w.burst_on + w.burst_off).micros() * cycles};
    w.eval_period = sim::seconds(30.0);
    e.thresholds.window = sim::seconds(60.0);
    e.thresholds.tau_M = 4.0;
    e.thresholds.tau_d = 1.5;
    e.thresholds.cold_age = sim::minutes(8.0);
    // Half a sweep past cold_age: a file ruled cold at its first chance is
    // still cooling, one whose verdict lands a sweep later is frozen.
    e.frozen_age = e.thresholds.cold_age + sim::seconds(15.0);
    w.faults = true;
  } else if (name == "judge_replay") {
    // The macro-scale shape: a million files, a uniform audit stream fed
    // straight into the judge, eight sweeps, and a thin SWIM read trickle so
    // the client-facing metrics exist. Actions stay quiet.
    w.racks = tiny ? 5 : 50;
    w.nodes_per_rack = 40;
    w.swim.file_count = tiny ? 20'000 : 1'000'000;
    w.swim.size_mu = 16.6;  // median ≈ 16 MiB
    w.swim.size_sigma = 0.3;
    // Mild skew keeps the trickle contention-free, so its latency is set by
    // file sizes, not by which file a seed makes hottest.
    w.swim.zipf_exponent = 0.6;
    w.swim.min_file_bytes = 2 * util::MiB;
    w.swim.max_file_bytes = 128 * util::MiB;
    w.replay_events = tiny ? 200'000 : 2'000'000;
    w.horizon = sim::SimDuration{kReplayGap.micros() *
                                 static_cast<std::int64_t>(w.replay_events)};
    w.swim.epoch = w.horizon;
    w.swim.mean_interarrival_s = w.horizon.seconds() / (tiny ? 300.0 : 4000.0);
    w.eval_period = sim::SimDuration{w.horizon.micros() / 8};
    e.thresholds.window = sim::seconds(60.0);
    e.thresholds.tau_M = 1e12;
    e.thresholds.M_M = 1e12;
    e.thresholds.M_m = 1e11;
    e.thresholds.tau_DN = 1e15;
    e.manage_standby_power = false;
    e.heal_capacity = false;
  } else {
    w.name.clear();
    return w;
  }
  w.swim.duration = w.horizon;
  w.swim.diurnal_amplitude = 0.0;
  e.evaluation_period = w.horizon + sim::hours(24.0 * 365.0);
  return w;
}

// ---------------------------------------------------------------------------
// One run

struct Job {
  sim::SimTime at;
  hdfs::FileId file;
  hdfs::NodeId client;
};

/// Host seconds per layer (traced mode) plus the coarse phases (both modes).
struct Ledger {
  double setup_s{0};
  double run_s{0};
  double total_s{0};
  double generate_s{0};
  double build_s{0};
  double populate_s{0};
  double run_until_s{0};
  double ingest_in_sim_s{0};
  double ingest_direct_s{0};
  double stream_gen_s{0};  // judge_replay: records built during the run
  double sweep_s{0};
  double invariant_s{0};
  double snapshot_s{0};
};

struct Outcome {
  bool ok{true};
  std::vector<std::pair<std::string, std::string>> failures;
  void check(bool cond, const std::string& what, const std::string& detail) {
    if (!cond) {
      ok = false;
      failures.emplace_back(what, detail);
    }
  }
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Nearest-rank quantile of an ascending vector (0 when empty).
double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(sorted.size()));
  return sorted[std::min(rank, sorted.size() - 1)];
}

/// Quantile of a registry histogram, interpolated inside the bucket.
double hist_quantile(const metrics::Histogram& h, double q) {
  const auto total = static_cast<double>(h.total());
  if (total <= 0.0) {
    return 0.0;
  }
  double seen = static_cast<double>(h.underflow());
  const double want = q * total;
  for (std::size_t i = 0; i < h.bucket_count(); ++i) {
    const auto c = static_cast<double>(h.bucket(i));
    if (seen + c >= want && c > 0.0) {
      return h.bucket_lo(i) + (h.bucket_hi(i) - h.bucket_lo(i)) * (want - seen) / c;
    }
    seen += c;
  }
  return h.hi();
}

int run(const std::string& workload_name, std::uint64_t seed, bool traced, bool tiny) {
  const WorkloadSpec spec = make_spec(workload_name, tiny);
  if (spec.name.empty()) {
    std::fprintf(stderr, "error: unknown workload '%s'\n", workload_name.c_str());
    return 2;
  }
  const bool replay = spec.replay_events > 0;
  Ledger L;
  Outcome out;
  const auto total_t0 = Clock::now();

  // ---- set-up: trace, cluster, manager, populate ---------------------------
  const auto setup_t0 = Clock::now();
  workload::Trace trace;
  {
    Span s(traced, L.generate_s);
    trace = workload::SwimTraceGenerator{spec.swim}.generate(seed);
  }
  std::vector<std::uint32_t> stream;  // judge_replay: fid << 1 | is_open
  if (replay) {
    Span s(traced, L.generate_s);
    sim::Rng rng{seed ^ 0xA5A5A5A5DEADBEEFULL};
    stream.resize(spec.replay_events);
    const auto files = static_cast<std::int64_t>(spec.swim.file_count);
    for (std::uint32_t& ev : stream) {
      const auto fid = static_cast<std::uint32_t>(rng.uniform_int(1, files));
      ev = fid << 1 | (rng.chance(0.25) ? 1U : 0U);
    }
  }

  std::unique_ptr<sim::Simulation> simp;
  std::unique_ptr<hdfs::Cluster> clusterp;
  std::unique_ptr<core::ErmsManager> ermsp;
  std::vector<hdfs::NodeId> pool;
  std::vector<hdfs::NodeId> clients;
  core::ErmsConfig ecfg = spec.erms;
  ecfg.observe = traced;
  {
    Span s(traced, L.build_s);
    simp = std::make_unique<sim::Simulation>();
    const hdfs::Topology topo = hdfs::Topology::uniform(spec.racks, spec.nodes_per_rack);
    hdfs::ClusterConfig ccfg;
    ccfg.block_size = kBlockSize;
    ccfg.rack_uplink_bw = spec.rack_uplink_bw;
    ccfg.seed = seed;
    ccfg.namespace_shards = 1;
    clusterp = std::make_unique<hdfs::Cluster>(*simp, topo, ccfg);
    for (std::size_t r = 0; r < spec.racks; ++r) {
      for (std::size_t i = 0; i < spec.nodes_per_rack; ++i) {
        const hdfs::NodeId id{static_cast<std::uint32_t>(r * spec.nodes_per_rack + i)};
        if (i + spec.standby_per_rack >= spec.nodes_per_rack) {
          pool.push_back(id);
        } else {
          clients.push_back(id);
        }
      }
    }
    if (replay) {
      clusterp->set_placement_policy(std::make_shared<StridePlacement>());
    } else {
      // Constructed before populate: the standby pool powers down empty nodes.
      ermsp = std::make_unique<core::ErmsManager>(*clusterp, pool, ecfg);
      ermsp->start();
    }
  }
  sim::Simulation& sim = *simp;
  hdfs::Cluster& cluster = *clusterp;

  std::vector<hdfs::FileId> ids(trace.files.size());
  std::uint64_t logical_bytes = 0;
  {
    Span s(traced, L.populate_s);
    std::vector<hdfs::Namespace::FileSpec> specs;
    specs.reserve(trace.files.size());
    for (const workload::FileSpec& f : trace.files) {
      specs.push_back({f.path, f.bytes, kBlockSize, 3});
    }
    util::ThreadPool populate_pool{replay ? 3U : 1U};
    const auto made = cluster.populate_files(specs, &populate_pool);
    for (std::size_t i = 0; i < made.size(); ++i) {
      out.check(made[i].has_value(), "populate", trace.files[i].path);
      ids[i] = made[i].value_or(hdfs::FileId{0});
      logical_bytes += trace.files[i].bytes;
    }
  }
  if (replay) {
    Span s(traced, L.build_s);
    ermsp = std::make_unique<core::ErmsManager>(*clusterp, pool, ecfg);
  }
  core::ErmsManager& erms = *ermsp;
  judge::AccessStatsFeed& feed = erms.feed();

  std::vector<Job> jobs;
  {
    Span s(traced, L.generate_s);
    sim::Rng rng{seed ^ 0x5EEDC11E47ULL};
    const std::int64_t cycle = (spec.burst_on + spec.burst_off).micros();
    for (const workload::JobSpec& j : trace.jobs) {
      if (cycle > 0 && j.submit_time.micros() % cycle >= spec.burst_on.micros()) {
        continue;
      }
      const auto c = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(clients.size()) - 1));
      jobs.push_back({j.submit_time, cluster.metadata().find_path(j.input_path)->id, clients[c]});
    }
  }
  // judge_replay: per-fid path and first block, so building a replayed
  // record never touches the namespace.
  std::vector<std::string_view> paths;
  std::vector<std::int64_t> first_block;
  if (replay) {
    Span s(traced, L.generate_s);
    paths.resize(ids.size() + 1);
    first_block.assign(ids.size() + 1, -1);
    for (const hdfs::FileId id : ids) {
      const hdfs::FileInfo* info = cluster.metadata().find(id);
      paths[id.value()] = info->path;
      if (!info->blocks.empty()) {
        first_block[id.value()] = static_cast<std::int64_t>(info->blocks[0].value());
      }
    }
  }
  L.setup_s = since(setup_t0);

  // ---- wiring -------------------------------------------------------------
  std::uint64_t delivered_sink = 0;
  std::uint64_t delivered_direct = 0;
  const std::uint64_t ingested_before = feed.events_ingested();
  obs::MetricsRegistry* reg =
      erms.observability() != nullptr ? &erms.observability()->registry() : nullptr;
  const obs::CounterId emitted_id = reg != nullptr ? reg->counter("hdfs.audit.events")
                                                   : obs::CounterId{};
  const std::uint64_t emitted_before = reg != nullptr ? reg->counter_value(emitted_id) : 0;
  // The manager's own tick sits past the horizon; this program owns the sweep
  // schedule (both modes, so they simulate identically) and the audit sink.
  cluster.set_audit_batch_sink(
      [&](const audit::AuditEvent* ev, std::size_t n) {
        delivered_sink += n;
        Span s(traced, L.ingest_in_sim_s);
        feed.on_audit_batch(ev, n);
      },
      1024);

  std::uint64_t reads_attempted = 0;
  std::uint64_t reads_ok = 0;
  std::uint64_t reads_failed = 0;
  std::vector<double> latencies;
  latencies.reserve(jobs.size());
  std::size_t next_job = 0;
  std::function<void()> arrive = [&] {
    const Job& j = jobs[next_job++];
    ++reads_attempted;
    const sim::SimTime due = j.at;
    cluster.read_file(j.client, j.file, [&, due](const hdfs::ReadOutcome& o) {
      if (o.ok) {
        ++reads_ok;
        latencies.push_back((sim.now() - due).seconds());
      } else {
        ++reads_failed;
      }
    });
    if (next_job < jobs.size()) {
      sim.schedule_at(jobs[next_job].at, arrive);
    }
  };
  if (!jobs.empty()) {
    sim.schedule_at(jobs.front().at, arrive);
  }

  std::uint64_t sweeps = 0;
  std::uint64_t flows_sampled = 0;
  const auto sweeps_planned =
      static_cast<std::uint64_t>(spec.horizon.micros() / spec.eval_period.micros());
  std::function<void()> sweep = [&] {
    flows_sampled += cluster.network().active_flows();
    cluster.flush_audit();
    {
      Span s(traced, L.sweep_s);
      erms.evaluate();
    }
    if (++sweeps < sweeps_planned) {
      sim.schedule_after(spec.eval_period, sweep);
    }
  };
  sim.schedule_at(sim::SimTime{0} + spec.eval_period, sweep);

  fault::FaultPlan plan;
  std::unique_ptr<fault::FaultInjector> injector;
  if (spec.faults) {
    fault::ChaosOptions chaos;
    chaos.start = sim::SimTime{0} + sim::minutes(3.0);
    chaos.end = sim::SimTime{0} + spec.horizon - sim::minutes(10.0);
    for (const hdfs::NodeId n : clients) {
      chaos.victims.push_back(n.value());
    }
    chaos.max_concurrent_dead = 1;
    chaos.mean_gap = sim::minutes(2.0);
    chaos.min_downtime = sim::seconds(40.0);
    chaos.max_downtime = sim::minutes(3.0);
    plan = fault::FaultPlan::randomized(chaos, seed);
    injector = std::make_unique<fault::FaultInjector>(
        cluster, traced ? &erms.observability()->trace() : nullptr);
    injector->arm(plan);
  }

  // ---- timed run ----------------------------------------------------------
  const snapshot::WorldParts parts{&sim, &cluster, &erms, injector.get(), nullptr};
  const sim::SimTime horizon = sim::SimTime{0} + spec.horizon;
  const auto run_t0 = Clock::now();
  const std::uint64_t sim_events_before = sim.events_executed();
  if (replay) {
    // Feed the uniform stream in chunks, split at sweep boundaries so each
    // sweep sees exactly the records stamped at or before it; the sim (read
    // trickle + sweeps) is advanced to each chunk's first stamp before the
    // chunk is fed.
    constexpr std::size_t kChunk = 4096;
    std::vector<audit::AuditEvent> batch(kChunk);
    const auto per_sweep = static_cast<std::uint64_t>(spec.eval_period.micros() /
                                                      kReplayGap.micros());
    const std::int64_t nodes = static_cast<std::int64_t>(cluster.node_count());
    std::uint64_t i = 0;
    while (i < stream.size()) {
      const std::uint64_t to_boundary = per_sweep - (i % per_sweep);
      const std::uint64_t n = std::min<std::uint64_t>({kChunk, to_boundary, stream.size() - i});
      {
        Span s(traced, L.stream_gen_s);
        for (std::uint64_t k = 0; k < n; ++k) {
          audit::AuditEvent& e = batch[k];
          const std::uint32_t fid = stream[i + k] >> 1;
          e.time = sim::SimTime{kReplayGap.micros() * static_cast<std::int64_t>(i + k + 1)};
          e.fid = fid;
          e.src = paths[fid];
          if ((stream[i + k] & 1U) != 0) {
            e.cmd = "open";
            e.block.reset();
            e.datanode.reset();
          } else {
            e.cmd = "read";
            e.block = first_block[fid];
            e.datanode = static_cast<std::int64_t>(fid) % nodes;
          }
        }
      }
      {
        Span s(traced, L.run_until_s);
        sim.run_until(batch[0].time);
      }
      {
        Span s(traced, L.ingest_direct_s);
        feed.on_audit_batch(batch.data(), n);
      }
      delivered_direct += n;
      i += n;
    }
  }
  {
    Span s(traced, L.run_until_s);
    sim.run_until(horizon);
  }
  const double to_horizon_s = since(run_t0);
  const std::size_t in_flight_at_horizon = erms.actions_in_flight();
  // Drain: no new reads, sweeps or faults remain; let flows, background work
  // and Condor jobs finish so the end state is a quiescent world.
  {
    Span s(traced, L.run_until_s);
    const sim::SimTime limit = horizon + kDrainLimit;
    while (!snapshot::quiescent(parts) && sim.now() < limit) {
      sim.run_until(sim.now() + sim::seconds(10.0));
    }
  }
  cluster.flush_audit();
  L.run_s = since(run_t0);
  const double sim_seconds = sim.now().seconds();
  const std::uint64_t sim_events = sim.events_executed() - sim_events_before;

  // ---- checks -------------------------------------------------------------
  out.check(snapshot::quiescent(parts), "drain_quiescent",
            "world not quiescent " + num(kDrainLimit.seconds()) + "s past the horizon");
  out.check(reads_attempted == jobs.size(), "reads_scheduled",
            std::to_string(reads_attempted) + " of " + std::to_string(jobs.size()));
  out.check(reads_attempted == reads_ok + reads_failed, "reads_accounted",
            std::to_string(reads_attempted) + " != " + std::to_string(reads_ok) + " + " +
                std::to_string(reads_failed));
  out.check(reads_ok > 0, "reads_served", "no read succeeded");
  const std::uint64_t ingested = feed.events_ingested() - ingested_before;
  out.check(ingested == delivered_sink + delivered_direct, "judge_ingest",
            std::to_string(ingested) + " ingested, " +
                std::to_string(delivered_sink + delivered_direct) + " delivered");
  if (reg != nullptr) {
    const std::uint64_t emitted = reg->counter_value(emitted_id) - emitted_before;
    out.check(emitted == delivered_sink, "audit_emitted",
              std::to_string(emitted) + " emitted, " + std::to_string(delivered_sink) +
                  " delivered");
  }
  out.check(sweeps == sweeps_planned, "judge_sweeps",
            std::to_string(sweeps) + " of " + std::to_string(sweeps_planned));
  const core::ErmsStats& st = erms.stats();
  out.check(st.evaluations == sweeps, "evaluations",
            std::to_string(st.evaluations) + " evaluations, " + std::to_string(sweeps) +
                " sweeps");
  double invariant_t = 0.0;
  fault::InvariantReport report;
  {
    Span s(traced, invariant_t);
    report = fault::InvariantChecker{cluster, &erms.scheduler(), nullptr}.check(true);
  }
  L.invariant_s = invariant_t;
  for (const std::string& v : report.violations) {
    // With crashes in the schedule a few lost blocks are a known simulated
    // outcome, reported as hdfs.blocks_lost and in the digest and bounded
    // below. Any lost block without faults, and every other violation, is a
    // broken invariant.
    out.check(spec.faults && v.rfind("blocks_lost=", 0) == 0, "invariant", v);
  }
  if (spec.faults) {
    out.check(cluster.blocks_lost() <= kMaxBlocksLostWithFaults, "blocks_lost",
              std::to_string(cluster.blocks_lost()) + " lost, at most " +
                  std::to_string(kMaxBlocksLostWithFaults) + " expected");
  }
  const condor::Scheduler& sched = erms.scheduler();
  std::map<std::string, std::uint64_t> log_kinds;
  std::vector<double> queue_wait;
  std::vector<double> exec;
  for (const condor::JobLogRecord& rec : sched.log()) {
    switch (rec.kind) {
      case condor::JobLogRecord::Kind::kSubmit:
        ++log_kinds["submit"];
        break;
      case condor::JobLogRecord::Kind::kExecute:
        ++log_kinds["execute"];
        break;
      case condor::JobLogRecord::Kind::kTerminateOk:
        ++log_kinds["terminate_ok"];
        if (const condor::Job* job = sched.find(rec.job)) {
          queue_wait.push_back((job->started - job->submitted).seconds());
          exec.push_back((job->finished - job->started).seconds());
        }
        break;
      case condor::JobLogRecord::Kind::kTerminateFail:
        ++log_kinds["terminate_fail"];
        break;
      case condor::JobLogRecord::Kind::kRollback:
        ++log_kinds["rollback"];
        break;
      case condor::JobLogRecord::Kind::kCancel:
        ++log_kinds["cancel"];
        break;
      case condor::JobLogRecord::Kind::kRetry:
        ++log_kinds["retry"];
        break;
    }
  }
  std::sort(queue_wait.begin(), queue_wait.end());
  std::sort(exec.begin(), exec.end());
  std::size_t planned_crashes = 0;
  for (const fault::FaultEvent& f : plan.events()) {
    planned_crashes += f.kind == fault::FaultKind::kCrash ? 1 : 0;
  }
  if (spec.faults) {
    out.check(st.hot_promotions > 0, "action_hot_promotions", "none");
    out.check(st.cooldowns > 0, "action_cooldowns", "none");
    out.check(st.encodes_cooling > 0, "action_encodes_cooling", "none");
    out.check(st.encodes_frozen > 0, "action_encodes_frozen", "none");
    out.check(st.decodes > 0, "action_decodes", "none");
    out.check(erms.standby().commissions() > 0, "action_standby_commissions", "none");
    out.check(erms.standby().power_downs() > 0, "action_standby_power_downs", "none");
    out.check(cluster.rereplications_completed() > 0, "action_rereplications", "none");
    out.check(planned_crashes > 0, "fault_crashes", "plan has no crash");
  }
  const std::uint64_t used = cluster.used_bytes_total();
  out.check(used >= logical_bytes, "storage_floor",
            "used " + std::to_string(used) + " < logical " + std::to_string(logical_bytes));

  // ---- digest: every simulated statistic, public accessors only ------------
  std::vector<double> sorted = latencies;
  std::sort(sorted.begin(), sorted.end());
  std::ostringstream d;
  d << "workload=" << spec.name << " scale=" << (tiny ? "tiny" : "full") << " seed=" << seed
    << '\n';
  d << "sim_end_us=" << sim.now().micros() << " sim_events=" << sim_events << '\n';
  d << "reads attempted=" << reads_attempted << " ok=" << reads_ok << " failed=" << reads_failed
    << '\n';
  {
    // Latency histogram: power-of-two buckets of simulated microseconds.
    std::map<int, std::uint64_t> buckets;
    std::int64_t sum_us = 0;
    for (const double s : latencies) {
      const auto us = static_cast<std::int64_t>(s * 1e6 + 0.5);
      sum_us += us;
      int b = 0;
      while ((std::int64_t{1} << b) <= us && b < 62) {
        ++b;
      }
      ++buckets[b];
    }
    d << "latency_sum_us=" << sum_us << " hist_log2_us=";
    for (const auto& [b, c] : buckets) {
      d << b << ':' << c << ',';
    }
    d << '\n';
  }
  d << "erms evaluations=" << st.evaluations << " hot=" << st.hot_promotions
    << " overload=" << st.overload_promotions << " predictive=" << st.predictive_promotions
    << " cooldowns=" << st.cooldowns << " encodes=" << st.encodes
    << " cooling=" << st.encodes_cooling << " frozen=" << st.encodes_frozen
    << " decodes=" << st.decodes << " jobs_failed=" << st.jobs_failed
    << " in_flight_at_horizon=" << in_flight_at_horizon << '\n';
  d << "standby commissions=" << erms.standby().commissions()
    << " power_downs=" << erms.standby().power_downs() << '\n';
  d << "hdfs block_reads=" << cluster.reads_completed()
    << " rejected=" << cluster.reads_rejected() << " lost=" << cluster.blocks_lost()
    << " rereplications=" << cluster.rereplications_completed()
    << " recovery_retries=" << cluster.recovery_retries()
    << " abandoned=" << cluster.recoveries_abandoned()
    << " revived=" << cluster.nodes_revived()
    << " corruptions=" << cluster.corruptions_detected() << '\n';
  d << "net bytes=" << cluster.network().total_bytes_completed()
    << " inter_rack=" << cluster.network().inter_rack_bytes()
    << " aborted=" << cluster.network().flows_aborted()
    << " aborted_bytes=" << cluster.network().bytes_aborted()
    << " flows_sampled=" << flows_sampled << '\n';
  d << "storage used=" << used << " logical=" << logical_bytes << '\n';
  d << "condor";
  for (const auto& [k, v] : log_kinds) {
    d << ' ' << k << '=' << v;
  }
  d << '\n';
  d << "judge ingested=" << ingested << " sweeps=" << sweeps
    << " tracked=" << erms.tracked_file_count() << '\n';
  if (injector) {
    d << "fault planned=" << plan.size() << " crashes=" << planned_crashes
      << " injected=" << injector->injected() << " skipped=" << injector->skipped() << '\n';
  }
  d << "invariants ok=" << report.ok << '\n';
  const std::string digest = d.str();

  // ---- traced extras: snapshot save (restart cost) -------------------------
  std::size_t snapshot_bytes = 0;
  if (traced && snapshot::quiescent(parts)) {
    Span s(true, L.snapshot_s);
    snapshot_bytes = snapshot::save_world_bytes(parts).size();
  }
  L.total_s = since(total_t0);
  // The layer spans plus sim.loop_self_s (which run_until_s contains) must
  // account for the traced rep's host time; the rest is glue code here.
  const double accounted = L.generate_s + L.build_s + L.populate_s + L.run_until_s +
                           L.ingest_direct_s + L.stream_gen_s + L.invariant_s +
                           L.snapshot_s;
  if (traced) {
    out.check(accounted >= 0.9 * L.total_s, "ledger_accounts",
              num(accounted) + "s of " + num(L.total_s) + "s in spans");
  }

  // ---- record -------------------------------------------------------------
  const double run_s = std::max(L.run_s, 1e-9);
  const double storage_per_user_byte =
      static_cast<double>(used) / static_cast<double>(std::max<std::uint64_t>(1, logical_bytes));
  std::ostringstream j;
  j << "{\"workload\":\"" << spec.name << "\",\"seed\":" << seed << ",\"mode\":\""
    << (traced ? "traced" : "untraced") << "\",\"scale\":\"" << (tiny ? "tiny" : "full")
    << "\",";
  j << "\"e2e\":{"
    << "\"setup_s\":" << num(L.setup_s)
    << ",\"run_s\":" << num(L.run_s)
    << ",\"reads_per_s\":" << num(static_cast<double>(reads_ok + reads_failed) / run_s)
    << ",\"audit_events_per_s\":" << num(static_cast<double>(ingested) / run_s)
    << ",\"sim_over_wall\":" << num(spec.horizon.seconds() / std::max(to_horizon_s, 1e-9))
    << ",\"horizon_s\":" << num(to_horizon_s)
    << ",\"horizon_sim_s\":" << num(spec.horizon.seconds())
    << ",\"peak_rss_mib\":" << num(static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0))
    << ",\"read_p50_s\":" << num(quantile(sorted, 0.50))
    << ",\"read_p99_s\":" << num(quantile(sorted, 0.99))
    << ",\"read_samples\":" << sorted.size()
    << ",\"read_ok_frac\":"
    << num(static_cast<double>(reads_ok) /
           static_cast<double>(std::max<std::uint64_t>(1, reads_attempted)))
    << ",\"read_fail_frac\":"
    << num(static_cast<double>(reads_failed) /
           static_cast<double>(std::max<std::uint64_t>(1, reads_attempted)))
    << ",\"reads_attempted\":" << reads_attempted
    << ",\"reads_ok\":" << reads_ok
    << ",\"audit_events\":" << ingested
    << ",\"sim_seconds\":" << num(sim_seconds)
    << ",\"used_bytes\":" << used
    << ",\"logical_bytes\":" << logical_bytes
    << ",\"storage_per_user_byte\":" << num(storage_per_user_byte) << "},";
  if (traced) {
    const auto c = [reg](const char* name) {
      return static_cast<double>(reg->counter_value(reg->counter(name)));
    };
    const auto h = [reg](const char* name) {
      return reg->histogram_value(reg->histogram(name, 0, 1, 1));
    };
    const double ingest_s = L.ingest_in_sim_s + L.ingest_direct_s;
    const double loop_self = L.run_until_s - L.ingest_in_sim_s - L.sweep_s;
    const double net_bytes = static_cast<double>(cluster.network().total_bytes_completed());
    std::vector<std::pair<std::string, double>> layers = {
        {"workload.generate_s", L.generate_s + L.stream_gen_s},
        {"hdfs.build_s", L.build_s},
        {"hdfs.populate_s", L.populate_s},
        {"hdfs.populate_us_per_file",
         1e6 * L.populate_s / static_cast<double>(std::max<std::size_t>(1, ids.size()))},
        {"sim.loop_self_s", loop_self},
        {"sim.events", static_cast<double>(sim_events)},
        {"sim.us_per_event",
         1e6 * loop_self / static_cast<double>(std::max<std::uint64_t>(1, sim_events))},
        {"net.flows_started", c("net.flows.started")},
        {"net.flows_aborted", static_cast<double>(cluster.network().flows_aborted())},
        {"net.active_flows_mean",
         static_cast<double>(flows_sampled) / static_cast<double>(std::max<std::uint64_t>(1, sweeps))},
        {"net.inter_rack_frac",
         net_bytes > 0 ? static_cast<double>(cluster.network().inter_rack_bytes()) / net_bytes
                       : 0.0},
        {"net.flow_p99_s", hist_quantile(h("net.flow.seconds"), 0.99)},
        {"hdfs.block_reads", static_cast<double>(cluster.reads_completed())},
        {"hdfs.reads_failed", static_cast<double>(reads_failed)},
        {"hdfs.reads_degraded", c("hdfs.reads.degraded")},
        {"hdfs.rereplications", static_cast<double>(cluster.rereplications_completed())},
        {"hdfs.encodes_completed", c("hdfs.encodes.completed")},
        {"hdfs.decodes_completed", c("hdfs.decodes.completed")},
        {"hdfs.ec_repair_bytes", c("hdfs.ec.repair.bytes")},
        {"hdfs.ec_degraded_bytes", c("hdfs.ec.degraded.bytes")},
        {"hdfs.blocks_lost", static_cast<double>(cluster.blocks_lost())},
        {"audit.events", static_cast<double>(delivered_sink + delivered_direct)},
        {"judge.ingest_s", ingest_s},
        {"judge.ingest_ns_per_event",
         1e9 * ingest_s /
             static_cast<double>(std::max<std::uint64_t>(1, delivered_sink + delivered_direct))},
        {"cep.events_processed", static_cast<double>(erms.cep_engine().events_processed())},
        {"judge.sweeps", static_cast<double>(sweeps)},
        {"judge.sweep_s", L.sweep_s},
        {"judge.sweep_ms_mean",
         1e3 * L.sweep_s / static_cast<double>(std::max<std::uint64_t>(1, sweeps))},
        {"core.hot_promotions", static_cast<double>(st.hot_promotions)},
        {"core.cooldowns", static_cast<double>(st.cooldowns)},
        {"core.encodes_cooling", static_cast<double>(st.encodes_cooling)},
        {"core.encodes_frozen", static_cast<double>(st.encodes_frozen)},
        {"core.decodes", static_cast<double>(st.decodes)},
        {"core.classify_flips", c("erms.classify.flips")},
        {"core.in_flight_end", static_cast<double>(in_flight_at_horizon)},
        {"standby.commissions", static_cast<double>(erms.standby().commissions())},
        {"standby.power_downs", static_cast<double>(erms.standby().power_downs())},
        {"condor.jobs_submitted", static_cast<double>(log_kinds["submit"])},
        {"condor.jobs_completed", static_cast<double>(log_kinds["terminate_ok"])},
        {"condor.jobs_retried", static_cast<double>(log_kinds["retry"])},
        {"condor.jobs_failed", static_cast<double>(log_kinds["terminate_fail"])},
        {"condor.queue_wait_p50_s", quantile(queue_wait, 0.5)},
        {"condor.exec_p50_s", quantile(exec, 0.5)},
        {"fault.node_failures", static_cast<double>(planned_crashes)},
        {"fault.invariant_check_s", L.invariant_s},
        {"snapshot.save_s", L.snapshot_s},
        {"snapshot.bytes", static_cast<double>(snapshot_bytes)},
        {"obs.accounted_frac", accounted / std::max(L.total_s, 1e-9)},
    };
    j << "\"layers\":{";
    for (std::size_t k = 0; k < layers.size(); ++k) {
      j << (k ? "," : "") << '"' << layers[k].first << "\":" << num(layers[k].second);
    }
    j << "},";
  }
  j << "\"checks_ok\":" << (out.ok ? "true" : "false") << ",\"failures\":[";
  for (std::size_t k = 0; k < out.failures.size(); ++k) {
    j << (k ? "," : "") << "{\"check\":\"" << json_escape(out.failures[k].first)
      << "\",\"detail\":\"" << json_escape(out.failures[k].second) << "\"}";
  }
  j << "],\"digest\":\"" << json_escape(digest) << "\",\"latencies_us\":[";
  for (std::size_t k = 0; k < latencies.size(); ++k) {
    j << (k ? "," : "") << static_cast<std::int64_t>(latencies[k] * 1e6 + 0.5);
  }
  j << "]}";
  std::printf("%s\n", j.str().c_str());
  std::fflush(stdout);
  // Skip tearing the world down: at a million files the destructors alone
  // take seconds, and nothing after this point is measured.
  std::_Exit(out.ok ? 0 : 1);
}

}  // namespace
}  // namespace erms::perfbench

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  bool traced = false;
  bool tiny = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--mode" && (val == "traced" || val == "untraced")) {
      traced = val == "traced";
    } else if (key == "--scale" && (val == "full" || val == "tiny")) {
      tiny = val == "tiny";
    } else {
      std::fprintf(stderr, "error: bad argument %s %s\n", key.c_str(), val.c_str());
      return 2;
    }
  }
  if (argc % 2 == 0 || workload.empty()) {
    std::fprintf(stderr,
                 "usage: erms_e2e --workload NAME --seed N [--mode untraced|traced] "
                 "[--scale full|tiny]\n");
    return 2;
  }
  return erms::perfbench::run(workload, seed, traced, tiny);
}


