// Coverage for the batched audit replay path: on_audit_batch must tell a
// byte-identical story to per-event on_audit for any batch size, the cluster's batched audit sink must deliver the same records the
// per-event sink does, and the steady-state batch loop must not allocate.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "audit/audit.h"
#include "cep/engine.h"
#include "hdfs/cluster.h"
#include "judge/feed.h"
#include "util/bytes.h"

// Allocation-counting hook: every non-aligned heap allocation in the test
// binary bumps the counter. The zero-allocation test brackets a steady-state
// replay loop with it. (Aligned overloads are left to the defaults — they
// pair with the matching aligned deletes, so mixing is safe.)
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) {
    return p;
  }
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) {
    return p;
  }
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace erms {
namespace {

audit::AuditEvent make_event(double t_s, std::int64_t fid, bool open,
                             std::int64_t blk, std::int64_t dn) {
  audit::AuditEvent e;
  e.time = sim::SimTime{static_cast<std::int64_t>(t_s * 1e6)};
  e.cmd = open ? "open" : "read";
  e.src = "/batch/f" + std::to_string(fid);
  e.fid = fid;
  if (!open) {
    e.block = blk;
    e.datanode = dn;
  }
  return e;
}

/// Deterministic pseudo-random audit stream (xorshift, no RNG dependency).
std::vector<audit::AuditEvent> scripted_stream(std::size_t count) {
  std::vector<audit::AuditEvent> events;
  events.reserve(count);
  std::uint64_t h = 0x9E3779B97F4A7C15ULL;
  for (std::size_t i = 0; i < count; ++i) {
    h ^= h << 13;
    h ^= h >> 7;
    h ^= h << 17;
    const auto fid = static_cast<std::int64_t>(1 + h % 53);
    const bool open = (h >> 8) % 4 == 0;
    const auto blk = static_cast<std::int64_t>(200 + (h >> 16) % 7);
    const auto dn = static_cast<std::int64_t>((h >> 24) % 11);
    events.push_back(make_event(static_cast<double>(i) * 0.05, fid, open, blk, dn));
  }
  return events;
}

/// Serialize everything the feed exposes — all four windowed relations plus
/// the ingestion counter — so two feeds can be compared byte for byte.
std::string feed_story(const judge::AccessStatsFeed& feed) {
  std::ostringstream out;
  feed.for_each_file_access([&](hdfs::FileId f, std::uint64_t n) {
    out << "file " << f.value() << ' ' << n << '\n';
  });
  feed.for_each_block_access([&](hdfs::FileId f, std::int64_t b, std::uint64_t n) {
    out << "block " << f.value() << ' ' << b << ' ' << n << '\n';
  });
  feed.for_each_node_access([&](std::int64_t d, std::uint64_t n) {
    out << "node " << d << ' ' << n << '\n';
  });
  feed.for_each_file_node_access(
      [&](hdfs::FileId f, std::int64_t d, std::uint64_t n) {
        out << "filenode " << f.value() << ' ' << d << ' ' << n << '\n';
      });
  out << "ingested " << feed.events_ingested() << '\n';
  return out.str();
}

/// Replay `events` per-event into one feed and in `batch_size` chunks into
/// another, comparing the full story at several mid-stream checkpoints (so
/// window eviction is exercised mid-churn, not just at the end).
void check_batch_matches_per_event(cep::Engine& event_engine, cep::Engine& batch_engine,
                                   std::size_t batch_size) {
  const sim::SimDuration window = sim::seconds(30.0);
  judge::AccessStatsFeed event_feed{event_engine, window};
  judge::AccessStatsFeed batch_feed{batch_engine, window};
  const std::vector<audit::AuditEvent> events = scripted_stream(4000);

  std::size_t done = 0;
  int checkpoints = 0;
  while (done < events.size()) {
    const std::size_t n = std::min(batch_size, events.size() - done);
    for (std::size_t i = 0; i < n; ++i) {
      event_feed.on_audit(events[done + i]);
    }
    batch_feed.on_audit_batch(events.data() + done, n);
    done += n;
    if (done % 1000 < batch_size || done == events.size()) {
      const sim::SimTime now = events[done - 1].time;
      event_feed.advance_to(now);
      batch_feed.advance_to(now);
      EXPECT_EQ(feed_story(batch_feed), feed_story(event_feed))
          << "diverged after " << done << " events (batch_size=" << batch_size
          << ")";
      ++checkpoints;
    }
  }
  // A batch larger than the stream gives a single end-of-stream checkpoint;
  // smaller batches must have compared mid-stream too.
  EXPECT_GE(checkpoints, batch_size >= events.size() ? 1 : 4);
  EXPECT_EQ(batch_engine.events_processed(), event_engine.events_processed());
}

TEST(PipelineBatch, BatchSizesMatchPerEventOnScalarEngine) {
  for (const std::size_t batch_size : {std::size_t{1}, std::size_t{7}, std::size_t{4096}}) {
    SCOPED_TRACE("batch_size " + std::to_string(batch_size));
    cep::Engine event_engine;
    cep::Engine batch_engine;
    check_batch_matches_per_event(event_engine, batch_engine, batch_size);
  }
}

// ---- cluster batched audit sink ---------------------------------------------

/// Drive identical read traffic against two clusters, one with the per-event
/// audit sink and one with the batched sink, and compare the rendered audit
/// lines. flush_audit() must deliver the tail on demand.
TEST(PipelineBatch, ClusterBatchSinkDeliversSameRecords) {
  for (const std::size_t flush_events : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
    SCOPED_TRACE("flush_events " + std::to_string(flush_events));
    std::vector<std::string> per_event_lines;
    std::vector<std::string> batch_lines;
    for (int mode = 0; mode < 2; ++mode) {
      sim::Simulation sim;
      hdfs::Cluster cluster{sim, hdfs::Topology::uniform(2, 4), hdfs::ClusterConfig{}};
      std::vector<hdfs::FileId> files;
      for (int i = 0; i < 5; ++i) {
        files.push_back(*cluster.populate_file("/sink/f" + std::to_string(i),
                                               64 * util::MiB, 2));
      }
      std::vector<std::string>& lines = mode == 0 ? per_event_lines : batch_lines;
      if (mode == 0) {
        cluster.set_audit_sink(
            [&lines](const audit::AuditEvent& e) { lines.push_back(e.to_line()); });
      } else {
        cluster.set_audit_batch_sink(
            [&lines](const audit::AuditEvent* events, std::size_t n) {
              for (std::size_t i = 0; i < n; ++i) {
                lines.push_back(events[i].to_line());
              }
            },
            flush_events);
      }
      for (int i = 0; i < 40; ++i) {
        sim.schedule_at(sim::SimTime{static_cast<std::int64_t>(i) * 250000},
                        [&cluster, &files, i] {
                          cluster.read_file(hdfs::NodeId{static_cast<std::uint32_t>(i % 8)},
                                            files[static_cast<std::size_t>(i) % files.size()],
                                            [](const hdfs::ReadOutcome&) {});
                        });
      }
      sim.run_until(sim::SimTime{sim::seconds(30.0).micros()});
      cluster.flush_audit();
    }
    EXPECT_FALSE(per_event_lines.empty());
    EXPECT_EQ(batch_lines, per_event_lines);
  }
}

// Swapping sinks flushes buffered records first, so no event is lost or
// reordered across a sink change.
TEST(PipelineBatch, SinkSwapFlushesBufferedRecords) {
  sim::Simulation sim;
  hdfs::Cluster cluster{sim, hdfs::Topology::uniform(2, 4), hdfs::ClusterConfig{}};
  const hdfs::FileId f = *cluster.populate_file("/sink/swap", 64 * util::MiB, 2);
  std::vector<std::string> lines;
  cluster.set_audit_batch_sink(
      [&lines](const audit::AuditEvent* events, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
          lines.push_back(events[i].to_line());
        }
      },
      1024);  // threshold far beyond the traffic: everything stays buffered
  for (int i = 0; i < 6; ++i) {
    sim.schedule_at(sim::SimTime{static_cast<std::int64_t>(i) * 100000},
                    [&cluster, f, i] {
                      cluster.read_file(hdfs::NodeId{static_cast<std::uint32_t>(i % 8)}, f,
                                        [](const hdfs::ReadOutcome&) {});
                    });
  }
  sim.run_until(sim::SimTime{sim::seconds(10.0).micros()});
  EXPECT_TRUE(lines.empty());  // still below the flush threshold
  // Installing a different sink must first hand the buffered tail to the old
  // batch sink.
  cluster.set_audit_sink(nullptr);
  EXPECT_FALSE(lines.empty());
  const std::size_t delivered = lines.size();
  cluster.flush_audit();
  EXPECT_EQ(lines.size(), delivered);  // nothing left to flush
}

// ---- zero-allocation steady state -------------------------------------------

// After warm-up, replaying batches over a stable working set must make zero
// heap allocations: slotted events, group slots, window rings, key scratch
// and the feed's batch all reuse their capacity.
TEST(PipelineBatch, SteadyStateBatchReplayDoesNotAllocate) {
  cep::Engine engine;
  judge::AccessStatsFeed feed{engine, sim::seconds(10.0)};

  constexpr std::size_t kBatch = 512;
  constexpr double kDt = 0.05;  // 200 events of window per group at 10 s
  std::vector<audit::AuditEvent> events;
  events.reserve(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    events.push_back(make_event(0.0, static_cast<std::int64_t>(1 + i % 97), i % 4 == 0,
                                static_cast<std::int64_t>(300 + i % 5),
                                static_cast<std::int64_t>(i % 9)));
  }
  double t_s = 0.0;
  const auto replay_round = [&] {
    for (audit::AuditEvent& e : events) {
      t_s += kDt;
      e.time = sim::SimTime{static_cast<std::int64_t>(t_s * 1e6)};
    }
    feed.on_audit_batch(events.data(), events.size());
  };

  // Warm up well past one full window so pools, rings and buckets reach
  // their steady-state sizes (including tombstone-driven rehashes, which
  // reuse the same capacity).
  for (int round = 0; round < 40; ++round) {
    replay_round();
  }

  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int round = 0; round < 20; ++round) {
    replay_round();
  }
  const std::uint64_t after = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " allocations across 20 steady-state batches";
}

}  // namespace
}  // namespace erms
