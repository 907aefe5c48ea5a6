// Differential suite for the interned/sharded metadata path: sharding the
// namespace (lock granularity), batching audit delivery or threading the
// judge's sweeps must never change observable behaviour. Every configuration
// has to tell the byte-identical story on the same chaos seed — same
// action-trace JSONL, same invariant report, same per-file replica
// footprint — and the feed's windowed counts must match a brute-force
// recount of the raw audit stream.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cep/engine.h"
#include "core/erms.h"
#include "fault/fault_plan.h"
#include "fault/invariant_checker.h"
#include "hdfs/cluster.h"
#include "judge/feed.h"

namespace erms {
namespace {

using hdfs::Cluster;
using hdfs::ClusterConfig;
using hdfs::NodeId;
using hdfs::Topology;
using util::MiB;

struct RunResult {
  bool ok{false};
  std::string trace;     // action-trace JSONL, byte for byte
  std::string report;    // InvariantChecker text
  std::string replicas;  // per-file replication + per-block location counts
};

/// One full chaos run at the given shard / batch / thread configuration.
/// Everything else — seed, workload, fault plan, thresholds — is held fixed.
RunResult run_scenario(std::uint64_t seed, std::size_t namespace_shards,
                       std::size_t batch_flush = 0, std::size_t sweep_threads = 1) {
  sim::Simulation sim;
  Topology topo = Topology::uniform(3, 6);
  ClusterConfig ccfg;
  ccfg.namespace_shards = namespace_shards;
  Cluster cluster{sim, topo, ccfg};
  std::vector<NodeId> pool;
  for (std::uint32_t n = 10; n < 18; ++n) {
    pool.push_back(NodeId{n});
  }

  core::ErmsConfig ecfg;
  ecfg.thresholds.window = sim::seconds(60.0);
  ecfg.thresholds.cold_age = sim::minutes(15.0);
  ecfg.evaluation_period = sim::seconds(20.0);
  ecfg.observe = true;
  ecfg.trace_capacity = 65536;
  ecfg.judge_batch_flush_events = batch_flush;
  ecfg.sweep_threads = sweep_threads;
  core::ErmsManager erms{cluster, pool, ecfg};

  std::vector<hdfs::FileId> files;
  for (int i = 0; i < 6; ++i) {
    files.push_back(
        *cluster.populate_file("/diff/f" + std::to_string(i), 128 * MiB, 3));
  }
  erms.start();

  // Skewed steady reads: file 0 takes half the traffic so the judge has hot
  // *and* quiet files to rule on while faults land.
  for (int i = 0; i < 240; ++i) {
    sim.schedule_at(sim::SimTime{static_cast<std::int64_t>(i * 2.5e6)},
                    [&cluster, &files, i] {
                      const std::size_t which =
                          (i % 2 == 0) ? 0 : 1 + (static_cast<std::size_t>(i) / 2) %
                                                     (files.size() - 1);
                      cluster.read_file(NodeId{static_cast<std::uint32_t>(i % 10)},
                                        files[which], [](const hdfs::ReadOutcome&) {});
                    });
  }

  fault::ChaosOptions opt;
  opt.start = sim::SimTime{sim::minutes(1.0).micros()};
  opt.end = sim::SimTime{sim::minutes(10.0).micros()};
  for (std::uint32_t n = 0; n < 10; ++n) {
    opt.victims.push_back(n);
  }
  opt.racks = {0, 1, 2};
  opt.max_concurrent_dead = 1;
  opt.mean_gap = sim::seconds(40.0);
  opt.min_downtime = sim::seconds(30.0);
  opt.max_downtime = sim::minutes(2.0);
  const fault::FaultPlan plan = fault::FaultPlan::randomized(opt, seed);
  fault::FaultInjector injector{cluster, &erms.observability()->trace()};
  injector.arm(plan);

  sim.run_until(sim::SimTime{sim::minutes(20.0).micros()});

  const fault::InvariantChecker checker{cluster, &erms.scheduler(),
                                        &erms.observability()->trace()};
  const fault::InvariantReport report = checker.check(/*converged=*/true);

  RunResult out;
  out.ok = report.ok;
  out.report = report.text;
  std::ostringstream trace;
  erms.observability()->trace().to_jsonl(trace);
  out.trace = trace.str();
  std::ostringstream reps;
  for (const hdfs::FileId f : cluster.metadata().file_ids()) {
    const hdfs::FileInfo* info = cluster.metadata().find(f);
    reps << info->path << " rep=" << info->replication
         << " coded=" << (info->erasure_coded ? 1 : 0) << " locs=";
    for (const hdfs::BlockId b : info->blocks) {
      reps << cluster.locations_view(b).size() << ',';
    }
    reps << '\n';
  }
  out.replicas = reps.str();
  erms.stop();
  return out;
}

TEST(ScaleDifferential, ShardConfigsAreByteIdentical) {
  const std::uint64_t seeds[] = {7, 11, 23};
  const std::size_t variants[] = {4, 8};
  for (const std::uint64_t seed : seeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const RunResult base = run_scenario(seed, 1);
    EXPECT_TRUE(base.ok) << base.report;
    EXPECT_FALSE(base.trace.empty());
    for (const std::size_t namespace_shards : variants) {
      SCOPED_TRACE("namespace_shards=" + std::to_string(namespace_shards));
      const RunResult got = run_scenario(seed, namespace_shards);
      EXPECT_EQ(got.trace, base.trace);
      EXPECT_EQ(got.report, base.report);
      EXPECT_EQ(got.replicas, base.replicas);
      EXPECT_EQ(got.ok, base.ok);
    }
  }
}

// Batched audit delivery and parallel judge sweeps are pure mechanics: any
// flush threshold and any thread count must replay the same chaos run to the
// same bytes as the per-event, single-threaded pipeline.
TEST(ScaleDifferential, BatchAndSweepConfigsAreByteIdentical) {
  const std::uint64_t seeds[] = {7, 11, 23};
  struct Config {
    std::size_t batch_flush;
    std::size_t sweep_threads;
  };
  const Config variants[] = {{1, 1}, {7, 4}, {4096, 8}, {256, 3}};
  for (const std::uint64_t seed : seeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const RunResult base = run_scenario(seed, 1);
    EXPECT_TRUE(base.ok) << base.report;
    EXPECT_FALSE(base.trace.empty());
    for (const Config& v : variants) {
      SCOPED_TRACE("batch_flush=" + std::to_string(v.batch_flush) +
                   " sweep_threads=" + std::to_string(v.sweep_threads));
      const RunResult got =
          run_scenario(seed, 1, v.batch_flush, v.sweep_threads);
      EXPECT_EQ(got.trace, base.trace);
      EXPECT_EQ(got.report, base.report);
      EXPECT_EQ(got.replicas, base.replicas);
      EXPECT_EQ(got.ok, base.ok);
    }
  }
}

// Batching, sweeping and namespace sharding compose: the full stack enabled
// at once still matches the plain baseline.
TEST(ScaleDifferential, CombinedShardBatchSweepIsByteIdentical) {
  for (const std::uint64_t seed : {7ull, 23ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const RunResult base = run_scenario(seed, 1);
    const RunResult got = run_scenario(seed, 4, 7, 4);
    EXPECT_EQ(got.trace, base.trace);
    EXPECT_EQ(got.report, base.report);
    EXPECT_EQ(got.replicas, base.replicas);
  }
}

// ---- feed vs. brute force ----------------------------------------------------

audit::AuditEvent scripted_event(double t_s, std::int64_t fid, bool open,
                                 std::int64_t blk, std::int64_t dn) {
  audit::AuditEvent e;
  e.time = sim::SimTime{static_cast<std::int64_t>(t_s * 1e6)};
  e.cmd = open ? "open" : "read";
  e.src = "/diff/f" + std::to_string(fid);
  e.fid = fid;
  if (!open) {
    e.block = blk;
    e.datanode = dn;
  }
  return e;
}

/// Deterministic pseudo-random audit script shared by the oracle tests.
std::vector<audit::AuditEvent> scripted_stream() {
  std::vector<audit::AuditEvent> events;
  std::uint64_t h = 0x243F6A8885A308D3ULL;  // pi digits, no RNG dependency
  for (int i = 0; i < 4000; ++i) {
    h ^= h << 13;
    h ^= h >> 7;
    h ^= h << 17;
    const auto fid = static_cast<std::int64_t>(1 + h % 37);
    const bool open = (h >> 8) % 4 == 0;
    const auto blk = static_cast<std::int64_t>(100 + (h >> 16) % 5);
    const auto dn = static_cast<std::int64_t>((h >> 24) % 9);
    events.push_back(scripted_event(i * 0.05, fid, open, blk, dn));
  }
  return events;
}

/// Replays the script into a feed over `engine`, then compares every windowed
/// count against a brute-force recount of the raw events.
void check_feed_against_oracle(cep::Engine& engine) {
  const sim::SimDuration window = sim::seconds(30.0);
  judge::AccessStatsFeed feed{engine, window};
  const std::vector<audit::AuditEvent> events = scripted_stream();
  for (const audit::AuditEvent& e : events) {
    feed.on_audit(e);
  }
  const sim::SimTime now = events.back().time;
  feed.advance_to(now);

  // Brute force: count open/read events with time in (now - window, now].
  std::map<std::int64_t, std::uint64_t> want_files;
  std::map<std::pair<std::int64_t, std::int64_t>, std::uint64_t> want_blocks;
  std::map<std::int64_t, std::uint64_t> want_nodes;
  std::map<std::pair<std::int64_t, std::int64_t>, std::uint64_t> want_file_node;
  for (const audit::AuditEvent& e : events) {
    if (e.time <= now - window) {
      continue;
    }
    if (e.cmd == "open") {
      ++want_files[e.fid];
    } else {
      ++want_blocks[{e.fid, *e.block}];
      ++want_nodes[*e.datanode];
      ++want_file_node[{e.fid, *e.datanode}];
    }
  }

  std::map<std::int64_t, std::uint64_t> got_files;
  feed.for_each_file_access([&](hdfs::FileId fid, std::uint64_t n) {
    got_files[static_cast<std::int64_t>(fid.value())] = n;
  });
  EXPECT_EQ(got_files, want_files);

  std::map<std::pair<std::int64_t, std::int64_t>, std::uint64_t> got_blocks;
  feed.for_each_block_access(
      [&](hdfs::FileId fid, std::int64_t blk, std::uint64_t n) {
        got_blocks[{static_cast<std::int64_t>(fid.value()), blk}] = n;
      });
  EXPECT_EQ(got_blocks, want_blocks);

  std::map<std::int64_t, std::uint64_t> got_nodes;
  feed.for_each_node_access(
      [&](std::int64_t dn, std::uint64_t n) { got_nodes[dn] = n; });
  EXPECT_EQ(got_nodes, want_nodes);

  for (const auto& [dn, unused] : want_nodes) {
    std::map<std::pair<std::int64_t, std::int64_t>, std::uint64_t> got_on;
    feed.for_each_file_access_on_node(dn, [&](hdfs::FileId fid, std::uint64_t n) {
      got_on[{static_cast<std::int64_t>(fid.value()), dn}] = n;
    });
    for (const auto& [key, n] : got_on) {
      EXPECT_EQ(n, want_file_node[key]) << "fid=" << key.first << " dn=" << key.second;
    }
    std::size_t want_on_count = 0;
    for (const auto& [key, n] : want_file_node) {
      want_on_count += key.second == dn ? 1 : 0;
    }
    EXPECT_EQ(got_on.size(), want_on_count) << "dn=" << dn;
  }

  // Per-file point probes agree with the bulk iteration.
  for (const auto& [fid, n] : want_files) {
    EXPECT_EQ(feed.file_accesses(hdfs::FileId{
                  static_cast<hdfs::FileId::rep_type>(fid)}),
              n);
  }
}

TEST(ScaleDifferential, ScalarFeedMatchesBruteForceRecount) {
  cep::Engine engine;
  check_feed_against_oracle(engine);
}

}  // namespace
}  // namespace erms
