#include "cep/engine.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "cep/event.h"
#include "snapshot/codec.h"

namespace erms::cep {

namespace {

/// 64-bit FNV-1a over the joined group key.
std::uint64_t hash_key(const std::string& key) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// Append a slot value rendered exactly as the ClassAd path rendered group
/// keys: strings unquoted, ints/reals/bools via Value::to_string, missing
/// attributes as the empty string.
void append_key_value(std::string& out, const SlotValue* v) {
  if (v == nullptr) {
    return;
  }
  switch (v->kind) {
    case SlotValue::Kind::kString:
      out.append(v->s);
      break;
    case SlotValue::Kind::kInt: {
      char buf[24];
      const auto res = std::to_chars(buf, buf + sizeof(buf), v->i);
      out.append(buf, res.ptr);
      break;
    }
    case SlotValue::Kind::kReal: {
      char buf[48];
      const int n = std::snprintf(buf, sizeof(buf), "%g", v->r);
      out.append(buf, static_cast<std::size_t>(n));
      break;
    }
    case SlotValue::Kind::kBool:
      out.append(v->b ? "true" : "false");
      break;
    case SlotValue::Kind::kNull:
      break;
  }
}

/// Recover the per-attribute key values from the joined key, assigning into
/// a reused vector so a recycled group slot keeps its string capacity.
void split_key_into(const std::string& key, std::size_t parts,
                    std::vector<std::string>& out) {
  out.resize(parts);
  if (parts == 0) {
    return;
  }
  std::size_t start = 0;
  std::size_t i = 0;
  for (; i + 1 < parts; ++i) {
    const std::size_t pos = key.find('\x1f', start);
    if (pos == std::string::npos) {
      out[i].assign(key, start, key.size() - start);
      for (++i; i + 1 < parts; ++i) {
        out[i].clear();
      }
      start = key.size() + 1;  // remaining parts empty
      break;
    }
    out[i].assign(key, start, pos - start);
    start = pos + 1;
  }
  if (start <= key.size()) {
    out[parts - 1].assign(key, start, key.size() - start);
  } else {
    out[parts - 1].clear();
  }
}

}  // namespace

QueryId Engine::register_query(Query query, Listener listener) {
  const QueryId id = ids_.next();
  QueryState qs;
  qs.id = id;
  qs.plan = CompiledQuery::compile(query, attrs_, streams_);
  qs.query = std::move(query);
  qs.listener = std::move(listener);
  queries_.push_back(std::move(qs));
  return id;
}

bool Engine::remove_query(QueryId id) {
  for (auto it = queries_.begin(); it != queries_.end(); ++it) {
    if (it->id == id) {
      queries_.erase(it);
      return true;
    }
  }
  return false;
}

Engine::QueryState* Engine::find_query(QueryId id) {
  for (QueryState& qs : queries_) {
    if (qs.id == id) {
      return &qs;
    }
  }
  return nullptr;
}

const Engine::QueryState* Engine::find_query(QueryId id) const {
  for (const QueryState& qs : queries_) {
    if (qs.id == id) {
      return &qs;
    }
  }
  return nullptr;
}

bool Engine::event_matches(QueryState& qs, const SlottedEvent& e) {
  const CompiledQuery& plan = qs.plan;
  if (plan.stream != kNoSlot && plan.stream != e.stream) {
    return false;
  }
  if (plan.where == CompiledQuery::WhereMode::kNone) {
    return true;
  }
  if (plan.where == CompiledQuery::WhereMode::kFast && use_fast_path_) {
    for (const FastPred& p : plan.preds) {
      if (!eval_fast_pred(p, e)) {
        return false;
      }
    }
    return true;
  }
  // Compatibility adapter: rebuild a ClassAd view and run the expression.
  classad::ClassAd ad;
  to_classad(e, attrs_, ad);
  const classad::Value v = ad.evaluate_expr(*qs.query.where);
  return v.is_bool() && v.as_bool();
}

void Engine::build_group_key(const CompiledQuery& plan, const SlottedEvent& e,
                             std::string& out) {
  out.clear();
  for (std::size_t i = 0; i < plan.group_slots.size(); ++i) {
    if (i != 0) {
      out += '\x1f';
    }
    append_key_value(out, e.get(plan.group_slots[i]));
  }
}

void Engine::rehash(QueryState& qs, std::size_t min_buckets) {
  std::size_t cap = 16;
  while (cap < min_buckets) {
    cap <<= 1;
  }
  qs.buckets.assign(cap, kEmptyBucket);
  const std::size_t mask = cap - 1;
  for (std::size_t s = 0; s < qs.slots.size(); ++s) {
    GroupState& g = qs.slots[s];
    if (g.count == 0) {
      continue;  // freelisted slot
    }
    std::size_t i = g.hash & mask;
    while (qs.buckets[i] != kEmptyBucket) {
      i = (i + 1) & mask;
    }
    qs.buckets[i] = static_cast<std::uint32_t>(s);
    g.bucket = static_cast<std::uint32_t>(i);
  }
  qs.bucket_used = qs.live_groups;
}

std::uint32_t Engine::find_slot(const QueryState& qs, const std::string& key) const {
  if (qs.buckets.empty()) {
    return kEmptyBucket;
  }
  const std::uint64_t h = hash_key(key);
  const std::size_t mask = qs.buckets.size() - 1;
  std::size_t i = h & mask;
  for (;;) {
    const std::uint32_t b = qs.buckets[i];
    if (b == kEmptyBucket) {
      return kEmptyBucket;
    }
    if (b != kTombBucket) {
      const GroupState& g = qs.slots[b];
      if (g.hash == h && g.key == key) {
        return b;
      }
    }
    i = (i + 1) & mask;
  }
}

std::uint32_t Engine::resolve_group(QueryState& qs, const std::string& key, bool create) {
  return resolve_group(qs, key, hash_key(key), create);
}

std::uint32_t Engine::resolve_group(QueryState& qs, const std::string& key,
                                    const std::uint64_t h, bool create) {
  if (qs.buckets.empty()) {
    if (!create) {
      return kEmptyBucket;
    }
    rehash(qs, 16);
  }
  std::size_t mask = qs.buckets.size() - 1;
  std::size_t i = h & mask;
  std::size_t insert_at = static_cast<std::size_t>(-1);  // first tombstone seen
  for (;;) {
    const std::uint32_t b = qs.buckets[i];
    if (b == kEmptyBucket) {
      break;
    }
    if (b == kTombBucket) {
      if (insert_at == static_cast<std::size_t>(-1)) {
        insert_at = i;
      }
    } else {
      const GroupState& g = qs.slots[b];
      if (g.hash == h && g.key == key) {
        return b;
      }
    }
    i = (i + 1) & mask;
  }
  if (!create) {
    return kEmptyBucket;
  }
  const bool fills_empty = insert_at == static_cast<std::size_t>(-1);
  if (fills_empty && (qs.bucket_used + 1) * 2 > qs.buckets.size()) {
    // Keep the table at most half full of live+tombstone buckets. Sizing off
    // the live count alone sheds accumulated tombstones, so a churn-heavy
    // steady state rehashes the same-sized table every ~live/2 erases —
    // amortized O(1) per operation.
    rehash(qs, (qs.live_groups + 1) * 4);
    mask = qs.buckets.size() - 1;
    i = h & mask;
    while (qs.buckets[i] != kEmptyBucket) {
      i = (i + 1) & mask;
    }
    insert_at = i;   // rehash reset bucket_used to the live count
    ++qs.bucket_used;
  } else if (fills_empty) {
    insert_at = i;
    ++qs.bucket_used;
  }
  // Take a recycled slot if one is free; its strings keep their capacity.
  std::uint32_t slot;
  if (!qs.free_slots.empty()) {
    slot = qs.free_slots.back();
    qs.free_slots.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(qs.slots.size());
    qs.slots.emplace_back();
  }
  GroupState& g = qs.slots[slot];
  g.hash = h;
  g.bucket = static_cast<std::uint32_t>(insert_at);
  g.key.assign(key);
  split_key_into(key, qs.query.group_by.size(), g.key_values);
  g.count = 0;
  g.next_seq = 0;
  g.sums.assign(qs.plan.numeric_aggs, 0.0);
  g.non_null.assign(qs.plan.numeric_aggs, 0);
  if (g.mono.size() != qs.plan.numeric_aggs) {
    g.mono.resize(qs.plan.numeric_aggs);
  } else {
    for (auto& dq : g.mono) {
      dq.clear();
    }
  }
  ++qs.live_groups;
  qs.buckets[insert_at] = slot;
  return slot;
}

void Engine::erase_group(QueryState& qs, std::uint32_t slot) {
  const GroupState& g = qs.slots[slot];
  assert(qs.buckets[g.bucket] == slot && "group's cached bucket index is stale");
  qs.buckets[g.bucket] = kTombBucket;
  --qs.live_groups;
  qs.free_slots.push_back(slot);
}

void Engine::insert_event(QueryState& qs, const SlottedEvent& e, std::uint32_t slot) {
  GroupState& g = qs.slots[slot];
  ++g.count;
  const std::uint64_t seq = g.next_seq++;
  const CompiledQuery& plan = qs.plan;
  if (plan.numeric_aggs > 0) {
    for (std::size_t i = 0; i < qs.query.select.size(); ++i) {
      const std::int32_t ni = plan.agg_numeric_index[i];
      if (ni < 0) {
        continue;
      }
      const SlotValue* v = e.get(plan.agg_slots[i]);
      double val = std::nan("");
      if (v != nullptr && v->is_number()) {
        const double n = v->as_number();
        if (!std::isnan(n)) {
          val = n;
          g.sums[ni] += n;
          ++g.non_null[ni];
          if (plan.agg_is_minmax[i]) {
            std::deque<MonoEntry>& dq = g.mono[ni];
            if (qs.query.select[i].kind == Aggregate::Kind::kMin) {
              while (!dq.empty() && dq.back().value > n) {
                dq.pop_back();
              }
            } else {
              while (!dq.empty() && dq.back().value < n) {
                dq.pop_back();
              }
            }
            dq.push_back(MonoEntry{n, seq});
          }
        }
      }
      qs.ring_values.push_back(val);
    }
  }
  qs.ring.push_back(WindowEntry{e.time.micros(), slot, seq});
}

void Engine::evict_front(QueryState& qs) {
  const WindowEntry ent = qs.ring.front();
  qs.ring.pop_front();
  GroupState& g = qs.slots[ent.slot];
  assert(g.count > 0 && "evicting from a missing group");
  --g.count;
  const CompiledQuery& plan = qs.plan;
  if (plan.numeric_aggs > 0) {
    for (std::size_t i = 0; i < qs.query.select.size(); ++i) {
      const std::int32_t ni = plan.agg_numeric_index[i];
      if (ni < 0) {
        continue;
      }
      const double val = qs.ring_values.front();
      qs.ring_values.pop_front();
      if (!std::isnan(val)) {
        g.sums[ni] -= val;
        --g.non_null[ni];
        if (plan.agg_is_minmax[i]) {
          std::deque<MonoEntry>& dq = g.mono[ni];
          if (!dq.empty() && dq.front().seq == ent.seq) {
            dq.pop_front();
          }
        }
      }
    }
  }
  if (g.count == 0) {
    erase_group(qs, ent.slot);
  }
}

void Engine::evict_time(QueryState& qs, sim::SimTime now) {
  if (qs.query.window.kind != WindowSpec::Kind::kTime) {
    return;
  }
  const std::int64_t cutoff = (now - qs.query.window.duration).micros();
  // Eviction's cache miss is the victim's GroupState line (the ring entries
  // themselves are contiguous). Keep the next few victims' lines in flight
  // so a burst of expiries doesn't stall once per entry.
  constexpr std::size_t kAhead = 4;
  std::size_t primed = 0;  // entries [0, primed) of the ring are prefetched
  while (!qs.ring.empty() && qs.ring.front().time_us <= cutoff) {
    while (primed < kAhead && primed < qs.ring.size() &&
           qs.ring[primed].time_us <= cutoff) {
      __builtin_prefetch(&qs.slots[qs.ring[primed].slot]);
      ++primed;
    }
    evict_front(qs);
    if (primed > 0) {
      --primed;
    }
  }
}

void Engine::notify(QueryState& qs, std::uint32_t slot) {
  if (!qs.listener) {
    return;
  }
  const GroupState& g = qs.slots[slot];
  if (g.count == 0) {
    return;  // the group was fully evicted by a LENGTH window before notify
  }
  const ResultRow row = render_row(qs, g);
  if (qs.query.having) {
    const classad::Value v = row.values.evaluate_expr(*qs.query.having);
    if (!v.is_bool() || !v.as_bool()) {
      return;
    }
  }
  qs.listener(row);
}

void Engine::push_one(QueryState& qs, const SlottedEvent& event) {
  // Time advances for every query's window, matching or not.
  evict_time(qs, event.time);
  if (!event_matches(qs, event)) {
    return;
  }
  build_group_key(qs.plan, event, group_key_buf_);
  const std::uint32_t slot = resolve_group(qs, group_key_buf_, /*create=*/true);
  insert_event(qs, event, slot);
  if (qs.query.window.kind == WindowSpec::Kind::kLength) {
    while (qs.ring.size() > qs.query.window.count) {
      evict_front(qs);
    }
  }
  notify(qs, slot);
}

void Engine::push_slotted(const SlottedEvent& event) {
  ++events_processed_;
  for (QueryState& qs : queries_) {
    push_one(qs, event);
  }
}

void Engine::push_batch(const EventBatch& batch) {
  events_processed_ += batch.size();
  // Query-major: queries share no state, so running the whole batch through
  // one query before the next gives byte-identical per-query results to the
  // per-event path while keeping each query's plan, buckets and ring hot in
  // cache. Only listener firing order differs within a batch.
  for (QueryState& qs : queries_) {
    push_batch_query(qs, batch);
  }
}

void Engine::push_batch_query(QueryState& qs, const EventBatch& batch) {
  const std::size_t n = batch.size();
  if (n < kPipeDepth * 2) {
    for (std::size_t i = 0; i < n; ++i) {
      push_one(qs, batch[i]);
    }
    return;
  }
  // A matched event costs two dependent cache misses in resolve_group: the
  // bucket line (h & mask into a multi-MB array), then the GroupState line
  // it points at. This pipeline hides both behind later events' pure work.
  //
  //   fetch(i):  match test, key render, FNV hash — all functions of the
  //              event and the immutable plan only — then prefetch the
  //              bucket line for the hash.
  //   probe(i):  peek the head bucket (its line is arriving by now) and
  //              prefetch the GroupState it names. The peek is only a hint:
  //              retire() may rehash or erase between probe and retirement,
  //              so retirement re-probes from scratch — a stale prefetch
  //              wastes a line, never correctness.
  //   retire(i): every mutation, in event order — evict_time, full
  //              resolve_group on the precomputed (key, hash), insert_event,
  //              LENGTH eviction, notify. Identical call sequence to
  //              push_one, so query state stays byte-identical.
  constexpr std::size_t kMask = kPipeDepth - 1;
  constexpr std::size_t kProbeLag = kPipeDepth / 2;
  const auto fetch = [&](std::size_t i) {
    const SlottedEvent& e = batch[i];
    PipeSlot& p = pipe_[i & kMask];
    p.matched = event_matches(qs, e);
    if (!p.matched) {
      return;
    }
    build_group_key(qs.plan, e, p.key);
    p.hash = hash_key(p.key);
    if (!qs.buckets.empty()) {
      __builtin_prefetch(&qs.buckets[p.hash & (qs.buckets.size() - 1)]);
    }
    // Warm the likely eviction victims too: by the time this event retires,
    // retirement will have consumed a few ring entries, so prefetch a little
    // way in. (Bursts are short — often one victim per event — so the
    // in-loop lookahead in evict_time alone starts every burst cold.)
    const std::size_t live = qs.ring.size();
    if (live > kPipeDepth) {
      __builtin_prefetch(&qs.slots[qs.ring[kPipeDepth - 2].slot]);
    }
  };
  const auto probe = [&](std::size_t i) {
    const PipeSlot& p = pipe_[i & kMask];
    if (!p.matched || qs.buckets.empty()) {
      return;
    }
    const std::uint32_t b = qs.buckets[p.hash & (qs.buckets.size() - 1)];
    if (b < qs.slots.size()) {  // excludes the empty/tombstone sentinels
      __builtin_prefetch(&qs.slots[b]);
    }
  };
  const auto retire = [&](std::size_t i) {
    const SlottedEvent& e = batch[i];
    evict_time(qs, e.time);
    const PipeSlot& p = pipe_[i & kMask];
    if (!p.matched) {
      return;
    }
    const std::uint32_t slot = resolve_group(qs, p.key, p.hash, /*create=*/true);
    insert_event(qs, e, slot);
    if (qs.query.window.kind == WindowSpec::Kind::kLength) {
      while (qs.ring.size() > qs.query.window.count) {
        evict_front(qs);
      }
    }
    notify(qs, slot);
  };
  // retire() runs first each step so slot (t & kMask) is free before
  // fetch(t) overwrites it.
  for (std::size_t t = 0; t < n + kPipeDepth; ++t) {
    if (t >= kPipeDepth) {
      retire(t - kPipeDepth);
    }
    if (t < n) {
      fetch(t);
    }
    if (t >= kProbeLag && t - kProbeLag < n) {
      probe(t - kProbeLag);
    }
  }
}

void Engine::push(const Event& event) {
  convert_scratch_.reset(event.time, streams_.intern(event.type));
  for (const std::string& name : event.attrs.attribute_names()) {
    const classad::Value v = event.attrs.evaluate(name);
    const Slot slot = attrs_.intern(name);
    switch (v.type()) {
      case classad::Value::Type::kBool:
        convert_scratch_.set_bool(slot, v.as_bool());
        break;
      case classad::Value::Type::kInt:
        convert_scratch_.set_int(slot, v.as_int());
        break;
      case classad::Value::Type::kReal:
        convert_scratch_.set_real(slot, v.as_real());
        break;
      case classad::Value::Type::kString:
        convert_scratch_.set_string(slot, v.as_string());
        break;
      default:
        break;  // UNDEFINED / ERROR attributes stay absent
    }
  }
  push_slotted(convert_scratch_);
}

void Engine::advance_to(sim::SimTime now) {
  for (QueryState& qs : queries_) {
    evict_time(qs, now);
  }
}

ResultRow Engine::render_row(const QueryState& qs, const GroupState& g) {
  const Query& q = qs.query;
  ResultRow row;
  for (std::size_t i = 0; i < q.group_by.size(); ++i) {
    row.values.insert_string(q.group_by[i], g.key_values[i]);
  }
  for (std::size_t i = 0; i < q.select.size(); ++i) {
    const Aggregate& agg = q.select[i];
    const std::int32_t ni = qs.plan.agg_numeric_index[i];
    switch (agg.kind) {
      case Aggregate::Kind::kCount:
        row.values.insert_int(agg.alias, static_cast<std::int64_t>(g.count));
        break;
      case Aggregate::Kind::kSum:
        row.values.insert_real(agg.alias, g.sums[ni]);
        break;
      case Aggregate::Kind::kAvg:
        if (g.non_null[ni] > 0) {
          row.values.insert_real(agg.alias,
                                 g.sums[ni] / static_cast<double>(g.non_null[ni]));
        }
        break;
      case Aggregate::Kind::kMin:
      case Aggregate::Kind::kMax:
        if (!g.mono[ni].empty()) {
          row.values.insert_real(agg.alias, g.mono[ni].front().value);
        }
        break;
    }
  }
  return row;
}

template <typename Fn>
void Engine::for_each_sorted_group(const QueryState& qs, Fn&& fn) {
  visit_scratch_.clear();
  visit_scratch_.reserve(qs.live_groups);
  for (const GroupState& g : qs.slots) {
    if (g.count > 0) {
      visit_scratch_.push_back(&g);
    }
  }
  std::sort(visit_scratch_.begin(), visit_scratch_.end(),
            [](const GroupState* a, const GroupState* b) { return a->key < b->key; });
  for (const GroupState* g : visit_scratch_) {
    fn(*g);
  }
}

std::vector<ResultRow> Engine::snapshot(QueryId id) {
  std::vector<ResultRow> out;
  const QueryState* qs = find_query(id);
  if (qs == nullptr) {
    return out;
  }
  out.reserve(qs->live_groups);
  for_each_sorted_group(*qs, [&](const GroupState& g) { out.push_back(render_row(*qs, g)); });
  return out;
}

void Engine::for_each_group_count(QueryId id, const GroupCountVisitor& fn,
                                  GroupOrder order) {
  const QueryState* qs = find_query(id);
  if (qs == nullptr) {
    return;
  }
  if (order == GroupOrder::kUnordered) {
    // Pool order: deterministic for a given event history, no sort, no
    // allocation — for consumers that scatter into dense arrays.
    for (const GroupState& g : qs->slots) {
      if (g.count > 0) {
        fn(g.key_values, g.count);
      }
    }
    return;
  }
  for_each_sorted_group(*qs, [&](const GroupState& g) { fn(g.key_values, g.count); });
}

std::optional<ResultRow> Engine::group_row(QueryId id, const std::vector<std::string>& key) {
  const QueryState* qs = find_query(id);
  if (qs == nullptr) {
    return std::nullopt;
  }
  group_key_buf_.clear();
  for (std::size_t i = 0; i < key.size(); ++i) {
    if (i != 0) {
      group_key_buf_ += '\x1f';
    }
    group_key_buf_ += key[i];
  }
  const std::uint32_t slot = find_slot(*qs, group_key_buf_);
  if (slot == kEmptyBucket) {
    return std::nullopt;
  }
  return render_row(*qs, qs->slots[slot]);
}

// ---------------------------------------------------------------------------
// Snapshot support. The layout is serialised verbatim — bucket table, slot
// pool, freelist, ring contents — rather than replayed, so probe sequences,
// slot reuse order and therefore every subsequent visit order are identical
// to the uninterrupted run. Doubles travel as raw bit patterns.
// ---------------------------------------------------------------------------

void Engine::save_state(snapshot::Writer& w) {
  w.u64(queries_.size());
  for (const QueryState& qs : queries_) {
    w.u64(qs.id.value());
    w.u32(static_cast<std::uint32_t>(qs.plan.numeric_aggs));

    w.u64(qs.ring.size());
    for (std::size_t i = 0; i < qs.ring.size(); ++i) {
      const WindowEntry& e = qs.ring[i];
      w.i64(e.time_us);
      w.u32(e.slot);
      w.u64(e.seq);
    }
    w.u64(qs.ring_values.size());
    for (std::size_t i = 0; i < qs.ring_values.size(); ++i) {
      w.f64(qs.ring_values[i]);
    }

    w.u64(qs.buckets.size());
    for (const std::uint32_t b : qs.buckets) w.u32(b);

    w.u64(qs.slots.size());
    for (const GroupState& g : qs.slots) {
      w.u64(g.hash);
      w.u32(g.bucket);
      w.str(g.key);
      w.u64(g.key_values.size());
      for (const std::string& v : g.key_values) w.str(v);
      w.u64(g.count);
      w.u64(g.next_seq);
      w.u64(g.sums.size());
      for (const double s : g.sums) w.f64(s);
      w.u64(g.non_null.size());
      for (const std::uint64_t n : g.non_null) w.u64(n);
      w.u64(g.mono.size());
      for (const auto& dq : g.mono) {
        w.u64(dq.size());
        for (const MonoEntry& m : dq) {
          w.f64(m.value);
          w.u64(m.seq);
        }
      }
    }

    w.u64(qs.free_slots.size());
    for (const std::uint32_t s : qs.free_slots) w.u32(s);
    w.u64(qs.live_groups);
    w.u64(qs.bucket_used);
  }
  w.u64(ids_.peek());
  w.u64(events_processed_);
}

void Engine::load_state(snapshot::Reader& r) {
  const std::uint64_t nq = r.u64();
  if (!r.require(nq == queries_.size(), "engine query count")) return;
  for (QueryState& qs : queries_) {
    const std::uint64_t id = r.u64();
    if (!r.require(id == qs.id.value(), "engine query id")) return;
    const std::uint32_t naggs = r.u32();
    if (!r.require(naggs == qs.plan.numeric_aggs, "query aggregate shape")) return;

    const std::uint64_t ring_n = r.u64();
    if (!r.require(ring_n <= r.remaining() / 20 + 1, "window ring size")) return;
    qs.ring.clear();
    for (std::uint64_t i = 0; i < ring_n && r.ok(); ++i) {
      WindowEntry e;
      e.time_us = r.i64();
      e.slot = r.u32();
      e.seq = r.u64();
      qs.ring.push_back(e);
    }
    const std::uint64_t rv_n = r.u64();
    if (!r.require(rv_n <= r.remaining() / 8 + 1, "window values size")) return;
    qs.ring_values.clear();
    for (std::uint64_t i = 0; i < rv_n && r.ok(); ++i) {
      qs.ring_values.push_back(r.f64());
    }

    const std::uint64_t nbuckets = r.u64();
    if (!r.require(nbuckets <= r.remaining() / 4 + 1, "bucket table size")) return;
    qs.buckets.clear();
    qs.buckets.reserve(nbuckets);
    for (std::uint64_t i = 0; i < nbuckets && r.ok(); ++i) {
      qs.buckets.push_back(r.u32());
    }

    const std::uint64_t nslots = r.u64();
    if (!r.require(nslots <= r.remaining(), "slot pool size")) return;
    qs.slots.clear();
    qs.slots.resize(nslots);
    for (std::uint64_t i = 0; i < nslots && r.ok(); ++i) {
      GroupState& g = qs.slots[i];
      g.hash = r.u64();
      g.bucket = r.u32();
      g.key = r.str();
      const std::uint64_t nkv = r.u64();
      if (!r.require(nkv <= r.remaining(), "key value count")) return;
      g.key_values.resize(nkv);
      for (auto& v : g.key_values) v = r.str();
      g.count = r.u64();
      g.next_seq = r.u64();
      const std::uint64_t nsums = r.u64();
      if (!r.require(nsums <= r.remaining() / 8 + 1, "sums size")) return;
      g.sums.resize(nsums);
      for (auto& s : g.sums) s = r.f64();
      const std::uint64_t nnn = r.u64();
      if (!r.require(nnn <= r.remaining() / 8 + 1, "non-null size")) return;
      g.non_null.resize(nnn);
      for (auto& n : g.non_null) n = r.u64();
      const std::uint64_t nmono = r.u64();
      if (!r.require(nmono <= r.remaining(), "mono deque count")) return;
      g.mono.clear();
      g.mono.resize(nmono);
      for (auto& dq : g.mono) {
        const std::uint64_t dn = r.u64();
        if (!r.require(dn <= r.remaining() / 16 + 1, "mono deque size")) return;
        for (std::uint64_t j = 0; j < dn && r.ok(); ++j) {
          MonoEntry m;
          m.value = r.f64();
          m.seq = r.u64();
          dq.push_back(m);
        }
      }
    }

    const std::uint64_t nfree = r.u64();
    if (!r.require(nfree <= r.remaining() / 4 + 1, "freelist size")) return;
    qs.free_slots.clear();
    qs.free_slots.reserve(nfree);
    for (std::uint64_t i = 0; i < nfree && r.ok(); ++i) {
      qs.free_slots.push_back(r.u32());
    }
    qs.live_groups = r.u64();
    qs.bucket_used = r.u64();
  }
  ids_.reset(r.u64());
  events_processed_ = r.u64();
}

}  // namespace erms::cep
