// Differential tests for the audit ingest pipeline: the compiled WHERE fast
// path and the slotted event representation must produce byte-identical
// snapshots to the ClassAd path, and a brute-force recount guards against
// both being identically wrong. Workloads are randomized (fixed seeds) over
// every aggregate kind, time and length windows, group churn and eviction.
// Numeric attribute values are integers so sums are exact in double
// arithmetic.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "audit/audit.h"
#include "cep/engine.h"
#include "cep/epl_parser.h"

namespace erms::cep {
namespace {

/// Render snapshot rows to one comparable string (ClassAd::unparse is
/// deterministic: attributes print lower-cased in sorted order).
std::string render(const std::vector<ResultRow>& rows) {
  std::string out;
  for (const ResultRow& row : rows) {
    out += row.values.unparse();
    out += '\n';
  }
  return out;
}

/// A randomized audit-like workload with monotone non-decreasing times.
/// `files` controls group churn: small pools revisit groups, large pools
/// keep creating (and evicting) fresh ones.
std::vector<Event> make_workload(std::uint32_t seed, int n, int files) {
  std::mt19937 rng{seed};
  std::vector<Event> events;
  events.reserve(static_cast<std::size_t>(n));
  std::int64_t t_us = 0;
  for (int i = 0; i < n; ++i) {
    t_us += static_cast<std::int64_t>(rng() % 2000);  // repeats timestamps too
    const char* cmds[] = {"open", "read", "write", "delete"};
    Event e{sim::SimTime{t_us}, rng() % 10 == 0 ? "other" : "audit"};
    e.with_string("cmd", cmds[rng() % 4]);
    e.with_string("src", "/data/f" + std::to_string(rng() % static_cast<std::uint32_t>(files)));
    e.with_int("blk", static_cast<std::int64_t>(rng() % 64));
    e.with_int("dn", static_cast<std::int64_t>(rng() % 12));
    if (rng() % 5 != 0) {  // sometimes absent: exercises null aggregate inputs
      e.with_int("bytes", static_cast<std::int64_t>(rng() % 100000));
    }
    if (rng() % 7 == 0) {
      e.attrs.insert_bool("allowed", rng() % 2 == 0);
    }
    events.push_back(std::move(e));
  }
  return events;
}

/// Queries covering every aggregate kind, WHERE shapes on and off the fast
/// path, multi-attribute group-bys and a global (no group-by) aggregate.
std::vector<std::string> time_window_queries() {
  return {
      "SELECT count(*) AS n FROM audit WHERE cmd == \"open\" GROUP BY src WINDOW TIME 20s",
      "SELECT count(*) AS n, sum(bytes) AS s, avg(bytes) AS a, min(bytes) AS mn, "
      "max(bytes) AS mx FROM audit WHERE cmd == \"read\" GROUP BY src WINDOW TIME 12s",
      "SELECT count(*) AS n FROM audit WHERE cmd == \"read\" GROUP BY src, blk WINDOW TIME 8s",
      "SELECT count(*) AS n, max(bytes) AS mx FROM audit GROUP BY dn WINDOW TIME 30s",
      "SELECT count(*) AS n, min(bytes) AS mn FROM audit WHERE allowed GROUP BY src "
      "WINDOW TIME 15s",
      "SELECT sum(bytes) AS s, avg(bytes) AS a FROM audit WHERE cmd != \"delete\" "
      "WINDOW TIME 10s",
      "SELECT count(*) AS n FROM audit WHERE cmd == \"read\" && dn >= 6 GROUP BY dn "
      "WINDOW TIME 25s",
  };
}

std::vector<QueryId> register_all(Engine& engine, const std::vector<std::string>& epl) {
  std::vector<QueryId> ids;
  ids.reserve(epl.size());
  for (const std::string& q : epl) {
    ids.push_back(engine.register_query(parse_epl(q)));
  }
  return ids;
}

/// Push the same events through both engines, comparing every query's
/// snapshot at periodic checkpoints and after a final advance past the
/// longest window.
void run_differential(Engine& reference, Engine& candidate,
                      const std::vector<Event>& events,
                      const std::vector<std::string>& epl, int checkpoint_every,
                      bool expect_drain = true) {
  const std::vector<QueryId> ref_ids = register_all(reference, epl);
  const std::vector<QueryId> cand_ids = register_all(candidate, epl);
  ASSERT_EQ(ref_ids.size(), cand_ids.size());
  int since_check = 0;
  for (const Event& e : events) {
    reference.push(e);
    candidate.push(e);
    if (++since_check >= checkpoint_every) {
      since_check = 0;
      // Align both engines' notion of "now" before reading.
      reference.advance_to(e.time);
      candidate.advance_to(e.time);
      for (std::size_t q = 0; q < ref_ids.size(); ++q) {
        ASSERT_EQ(render(reference.snapshot(ref_ids[q])),
                  render(candidate.snapshot(cand_ids[q])))
            << "query " << q << " diverged at t=" << e.time;
      }
    }
  }
  // Advance far past every window: both must drain to empty the same way.
  const sim::SimTime far{events.back().time + sim::seconds(120.0)};
  reference.advance_to(far);
  candidate.advance_to(far);
  for (std::size_t q = 0; q < ref_ids.size(); ++q) {
    const std::string ref_rows = render(reference.snapshot(ref_ids[q]));
    EXPECT_EQ(ref_rows, render(candidate.snapshot(cand_ids[q]))) << "query " << q;
    if (expect_drain) {  // time windows empty out; length windows keep N
      EXPECT_TRUE(ref_rows.empty()) << "window failed to drain for query " << q;
    }
  }
}

TEST(CepDifferential, CompiledFastPathMatchesClassAdPath) {
  for (const std::uint32_t seed : {1u, 2u, 3u}) {
    for (const int files : {4, 300}) {
      Engine fallback;
      fallback.set_use_fast_path(false);
      Engine fast;
      ASSERT_TRUE(fast.use_fast_path());
      run_differential(fallback, fast, make_workload(seed, 4000, files),
                       time_window_queries(), 257);
    }
  }
}

TEST(CepDifferential, LengthWindowsFastPathMatchesClassAdPath) {
  const std::vector<std::string> epl = {
      "SELECT count(*) AS n, sum(bytes) AS s, min(bytes) AS mn, max(bytes) AS mx "
      "FROM audit WHERE cmd == \"read\" GROUP BY src WINDOW LENGTH 64",
      "SELECT count(*) AS n FROM audit GROUP BY dn WINDOW LENGTH 7",
  };
  Engine fallback;
  fallback.set_use_fast_path(false);
  Engine fast;
  run_differential(fallback, fast, make_workload(11, 3000, 20), epl, 311,
                   /*expect_drain=*/false);
}

TEST(CepDifferential, GroupChurnAndEvictionUnderTinyWindow) {
  // 2s window + ~1ms..2s inter-arrival: groups constantly appear, empty out
  // and get re-created, so freelisted slots and tombstoned buckets are reused.
  const std::vector<std::string> epl = {
      "SELECT count(*) AS n, max(bytes) AS mx FROM audit WHERE cmd != \"delete\" "
      "GROUP BY src WINDOW TIME 2s",
      "SELECT count(*) AS n, min(bytes) AS mn FROM audit WHERE cmd == \"read\" "
      "GROUP BY src, dn WINDOW TIME 2s",
  };
  for (const std::uint32_t seed : {5u, 6u}) {
    Engine fallback;
    fallback.set_use_fast_path(false);
    Engine fast;
    run_differential(fallback, fast, make_workload(seed, 5000, 500), epl, 199);
  }
}

/// Brute-force oracle: recompute one query's windowed aggregates straight
/// from the event list and compare against the engine. Guards against the
/// fast path and the ClassAd path being identically wrong.
TEST(CepOracle, ScalarEngineMatchesBruteForce) {
  const sim::SimDuration window = sim::seconds(12.0);
  Engine engine;
  const QueryId id = engine.register_query(parse_epl(
      "SELECT count(*) AS n, sum(bytes) AS s, min(bytes) AS mn, max(bytes) AS mx "
      "FROM audit WHERE cmd == \"read\" GROUP BY src WINDOW TIME 12s"));
  const std::vector<Event> events = make_workload(21, 3000, 25);
  std::vector<const Event*> matched;  // in arrival order
  int i = 0;
  for (const Event& e : events) {
    engine.push(e);
    if (e.type == "audit" && e.attrs.get_string("cmd") == "read") {
      matched.push_back(&e);
    }
    if (++i % 500 != 0) {
      continue;
    }
    const sim::SimTime cutoff = e.time - window;
    struct Agg {
      std::int64_t n{0};
      std::int64_t sum{0};
      std::int64_t mn{0};
      std::int64_t mx{0};
      bool any_bytes{false};
    };
    std::map<std::string, Agg> expect;
    for (const Event* m : matched) {
      if (m->time <= cutoff) {
        continue;  // evicted
      }
      Agg& a = expect[*m->attrs.get_string("src")];
      ++a.n;
      if (const auto b = m->attrs.get_int("bytes")) {
        a.sum += *b;
        a.mn = a.any_bytes ? std::min(a.mn, *b) : *b;
        a.mx = a.any_bytes ? std::max(a.mx, *b) : *b;
        a.any_bytes = true;
      }
    }
    const std::vector<ResultRow> rows = engine.snapshot(id);
    ASSERT_EQ(rows.size(), expect.size()) << "at t=" << e.time;
    for (const ResultRow& row : rows) {
      const auto src = row.values.get_string("src");
      ASSERT_TRUE(src.has_value());
      const auto it = expect.find(*src);
      ASSERT_NE(it, expect.end()) << "unexpected group " << *src;
      EXPECT_EQ(row.values.get_int("n").value_or(-1), it->second.n) << *src;
      EXPECT_EQ(row.values.get_real("s").value_or(-1),
                static_cast<double>(it->second.sum))
          << *src;
      if (it->second.any_bytes) {
        EXPECT_EQ(row.values.get_real("mn").value_or(-1),
                  static_cast<double>(it->second.mn))
            << *src;
        EXPECT_EQ(row.values.get_real("mx").value_or(-1),
                  static_cast<double>(it->second.mx))
            << *src;
      } else {
        EXPECT_FALSE(row.values.get_real("mn").has_value()) << *src;
        EXPECT_FALSE(row.values.get_real("mx").has_value()) << *src;
      }
    }
  }
}

TEST(CepDifferential, SlottedAuditPathMatchesClassAdEvents) {
  // The feed's real ingest shape: AuditEvent::to_slotted into a reused
  // event, versus the same records as ClassAd events.
  Engine classad_engine;
  Engine slotted_engine;
  const std::vector<std::string> epl = {
      "SELECT count(*) AS n FROM audit WHERE cmd == \"open\" GROUP BY src WINDOW TIME 60s",
      "SELECT count(*) AS n FROM audit WHERE cmd == \"read\" GROUP BY src, blk WINDOW TIME 60s",
      "SELECT count(*) AS n FROM audit WHERE cmd == \"read\" GROUP BY dn WINDOW TIME 60s",
  };
  const std::vector<QueryId> cids = register_all(classad_engine, epl);
  const std::vector<QueryId> sids = register_all(slotted_engine, epl);
  const audit::AuditSlots slots = audit::AuditSlots::resolve(
      slotted_engine.attr_symbols(), slotted_engine.stream_symbols());
  SlottedEvent scratch;
  std::mt19937 rng{99};
  std::int64_t t_us = 0;
  for (int i = 0; i < 5000; ++i) {
    t_us += static_cast<std::int64_t>(rng() % 5000);
    audit::AuditEvent e;
    e.time = sim::SimTime{t_us};
    e.cmd = (rng() % 3 == 0) ? "open" : "read";
    e.src = "/data/part-" + std::to_string(rng() % 40);
    e.block = static_cast<std::int64_t>(rng() % 200);
    e.datanode = static_cast<std::int64_t>(rng() % 16);
    classad_engine.push(e.to_cep_event());
    e.to_slotted(slots, scratch);
    slotted_engine.push_slotted(scratch);
  }
  const sim::SimTime now{t_us};
  classad_engine.advance_to(now);
  slotted_engine.advance_to(now);
  for (std::size_t q = 0; q < epl.size(); ++q) {
    EXPECT_EQ(render(classad_engine.snapshot(cids[q])), render(slotted_engine.snapshot(sids[q])))
        << "query " << q;
  }
  EXPECT_EQ(classad_engine.events_processed(), slotted_engine.events_processed());
}

}  // namespace
}  // namespace erms::cep
