#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "cep/compiled_query.h"
#include "cep/query.h"
#include "cep/slotted_event.h"
#include "util/ids.h"
#include "util/ring_buffer.h"

namespace erms::snapshot {
class Reader;
class Writer;
}

namespace erms::cep {

struct QueryTag {};
using QueryId = util::StrongId<QueryTag>;

/// Iteration order for group visitation. kSorted visits groups in joined-key
/// order, for consumers whose behaviour depends on visit order. kUnordered
/// visits in slot-pool order (deterministic for a given event history),
/// skipping the per-visit sort — the right choice for consumers that scatter
/// counts into dense arrays.
enum class GroupOrder : std::uint8_t { kSorted, kUnordered };

/// The CEP engine: continuous queries over pushed event streams with sliding
/// windows, group-by aggregation and HAVING-triggered listeners. ERMS feeds
/// it parsed HDFS audit-log events and reads back per-file / per-block /
/// per-datanode access counts (paper §III.C).
///
/// Internally each query runs a compiled plan over slotted events. Group
/// state lives in a slot pool behind an open-addressing bucket table (4-byte
/// buckets, linear probing on the 64-bit key hash, tombstones on erase):
/// window entries carry their group's pool slot, so eviction touches the
/// group directly with no hash lookup, and erased slots go on a freelist
/// whose strings and vectors are reused by the next group — high-churn
/// workloads (a uniform stream over millions of files) stop allocating once
/// the pool reaches the window's working-set size. Windows hold only the
/// per-entry aggregate inputs in flat ring buffers (not event copies), and
/// min/max use monotonic deques instead of multisets.
class Engine {
 public:
  /// Called whenever a group's row satisfies HAVING after an update. Rows
  /// are also readable at any time via snapshot().
  using Listener = std::function<void(const ResultRow&)>;

  /// Register a continuous query; the listener may be null (poll-only).
  QueryId register_query(Query query, Listener listener = nullptr);

  /// Remove a query and its state. Returns false if unknown.
  bool remove_query(QueryId id);

  /// Push one event into every matching query (compatibility path: converts
  /// to slotted form first).
  void push(const Event& event);

  /// Push a slotted event. The event is consumed during the call; callers
  /// may reuse it immediately.
  void push_slotted(const SlottedEvent& event);

  /// Push a whole batch of slotted events, equivalent to push_slotted on
  /// each in order. The batch runs query-major, so every query's resulting
  /// state matches the per-event path; only listener firing order may differ
  /// within a batch.
  void push_batch(const EventBatch& batch);

  /// Advance time without an event: evict expired window entries (time
  /// windows only). Judges call this before reading snapshots.
  void advance_to(sim::SimTime now);

  /// Current result rows of a query (one per group), in group-key order.
  [[nodiscard]] std::vector<ResultRow> snapshot(QueryId id);

  /// A single group's row, if that group currently exists. `key` holds the
  /// group-by attribute values rendered as strings, in group-by order.
  [[nodiscard]] std::optional<ResultRow> group_row(QueryId id,
                                                   const std::vector<std::string>& key);

  /// Visit every group of `id` as (group-by values, window event count).
  /// Unlike snapshot(), this renders no rows and allocates no ClassAds.
  using GroupCountVisitor =
      std::function<void(const std::vector<std::string>& key_values, std::uint64_t count)>;
  void for_each_group_count(QueryId id, const GroupCountVisitor& fn,
                            GroupOrder order = GroupOrder::kSorted);

  [[nodiscard]] std::size_t query_count() const { return queries_.size(); }
  [[nodiscard]] std::uint64_t events_processed() const { return events_processed_; }

  /// The engine's attribute / stream interners. Producers resolve their
  /// attribute slots once (e.g. audit::AuditSlots) and then fill slotted
  /// events with no string handling at all.
  [[nodiscard]] SymbolTable& attr_symbols() { return attrs_; }
  [[nodiscard]] SymbolTable& stream_symbols() { return streams_; }

  /// Snapshot support (src/snapshot/): serialise / restore all window and
  /// group state. load_state expects an engine with the identical query set
  /// already registered (the feed re-registers its standing queries at
  /// construction) and fails the Reader with kStateMismatch otherwise.
  /// Aggregate running sums are stored as raw double bit patterns, so a
  /// restored engine renders byte-identical rows.
  void save_state(snapshot::Writer& w);
  void load_state(snapshot::Reader& r);

  /// Force WHERE evaluation through the ClassAd adapter even when a fast
  /// plan exists — the differential tests prove both paths byte-identical.
  void set_use_fast_path(bool on) { use_fast_path_ = on; }
  [[nodiscard]] bool use_fast_path() const { return use_fast_path_; }

 private:
  /// One min/max candidate in a group's monotonic deque.
  struct MonoEntry {
    double value;
    std::uint64_t seq;
  };
  /// A group's aggregate state, held in the query's slot pool. A slot is
  /// live iff count > 0 (groups are created together with their first window
  /// entry and erased when the last one evicts); freed slots keep their
  /// string/vector capacity for the next group that reuses them.
  struct GroupState {
    std::uint64_t hash{0};      // FNV of key, cached for rehash
    std::uint32_t bucket{0};    // index of the bucket pointing at this slot
    std::string key;
    std::vector<std::string> key_values;
    std::uint64_t count{0};
    std::uint64_t next_seq{0};
    // Indexed by the plan's numeric-aggregate index (count(*) excluded).
    std::vector<double> sums;
    std::vector<std::uint64_t> non_null;
    std::vector<std::deque<MonoEntry>> mono;  // used only by min/max aggregates
  };
  /// One window entry: everything eviction needs, instead of an event copy.
  struct WindowEntry {
    std::int64_t time_us;
    std::uint32_t slot;  // the entry's group in the query's slot pool
    std::uint64_t seq;   // the group-local sequence number of this entry
  };
  static constexpr std::uint32_t kEmptyBucket = 0xFFFFFFFFu;
  static constexpr std::uint32_t kTombBucket = 0xFFFFFFFEu;
  struct QueryState {
    QueryId id;
    Query query;
    CompiledQuery plan;
    Listener listener;
    util::RingBuffer<WindowEntry> ring;
    util::RingBuffer<double> ring_values;  // plan.numeric_aggs doubles per entry
    // Open-addressing group table: buckets hold pool-slot indices (or the
    // empty/tombstone sentinels); the pool owns the GroupStates.
    std::vector<std::uint32_t> buckets;  // capacity always a power of two
    std::vector<GroupState> slots;
    std::vector<std::uint32_t> free_slots;
    std::size_t live_groups{0};
    std::size_t bucket_used{0};  // live + tombstones
  };

  [[nodiscard]] QueryState* find_query(QueryId id);
  [[nodiscard]] const QueryState* find_query(QueryId id) const;

  [[nodiscard]] bool event_matches(QueryState& qs, const SlottedEvent& e);
  /// Render the joined group key into `out` (a reused scratch buffer).
  static void build_group_key(const CompiledQuery& plan, const SlottedEvent& e,
                              std::string& out);
  /// Pool slot of `key`, creating the group when `create`; kEmptyBucket on
  /// miss (create=false). Grows/rehashes the bucket table as needed.
  std::uint32_t resolve_group(QueryState& qs, const std::string& key, bool create);
  /// Same, with the key's FNV hash already computed by the caller.
  std::uint32_t resolve_group(QueryState& qs, const std::string& key,
                              std::uint64_t hash, bool create);
  /// Pool slot of `key` without mutating (kEmptyBucket on miss).
  [[nodiscard]] std::uint32_t find_slot(const QueryState& qs, const std::string& key) const;
  void rehash(QueryState& qs, std::size_t min_buckets);
  /// Tombstone `slot`'s bucket and return the GroupState to the freelist.
  void erase_group(QueryState& qs, std::uint32_t slot);
  void insert_event(QueryState& qs, const SlottedEvent& e, std::uint32_t slot);
  void evict_front(QueryState& qs);
  void evict_time(QueryState& qs, sim::SimTime now);
  void push_one(QueryState& qs, const SlottedEvent& event);
  /// Run a whole batch through one query with a bounded software pipeline:
  /// the pure per-event work (match test, key render, hash) runs ahead and
  /// prefetches the bucket and group-state cache lines, while every mutation
  /// is applied in event order — byte-identical state to push_one per event.
  void push_batch_query(QueryState& qs, const EventBatch& batch);
  void notify(QueryState& qs, std::uint32_t slot);
  /// Render one group as a result row: group-by values, then aggregates.
  [[nodiscard]] static ResultRow render_row(const QueryState& qs, const GroupState& g);
  /// Call fn(const GroupState&) for every live group, in joined-key order.
  template <typename Fn>
  void for_each_sorted_group(const QueryState& qs, Fn&& fn);

  SymbolTable attrs_{/*fold_case=*/true};
  SymbolTable streams_{/*fold_case=*/false};
  std::vector<QueryState> queries_;
  util::IdGenerator<QueryId> ids_{1};
  std::uint64_t events_processed_{0};
  bool use_fast_path_{true};
  /// In-flight pipeline state for push_batch_query: one slot per event still
  /// between the fetch stage and retirement. Strings keep their capacity
  /// across batches, so a warm pipeline renders keys with no allocation.
  static constexpr std::size_t kPipeDepth = 8;  // power of two
  struct PipeSlot {
    std::string key;
    std::uint64_t hash{0};
    bool matched{false};
  };

  std::string group_key_buf_;     // scratch for build_group_key / group_row
  SlottedEvent convert_scratch_;  // scratch for push(const Event&)
  std::vector<const GroupState*> visit_scratch_;  // sorted visitation scratch
  std::array<PipeSlot, kPipeDepth> pipe_;         // push_batch_query scratch
};

}  // namespace erms::cep
