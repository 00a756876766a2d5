#include "engine/pli_cache.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "telemetry/telemetry.h"
#include "util/fault.h"

namespace flexrel {

namespace {

const Pli::Cluster kEmptyCluster;

// The value's current cluster in the index, or the shared empty cluster.
const Pli::Cluster& ClusterOf(const PliCache::ValueIndex& index,
                              const Value& value) {
  auto it = index.find(value);
  return it == index.end() ? kEmptyCluster : it->second;
}

// One scan of the instance into a fresh value index, for the flush paths
// (EnsureFlushIndexesLocked). No reserve: the map holds one entry per
// *distinct* value, and typical indexed attributes (the bench's jobtype
// shape) have few of those.
PliCache::ValueIndex BuildValueIndex(const std::vector<Tuple>& rows,
                                     AttrId attr) {
  PliCache::ValueIndex index;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (const Value* v = rows[i].Get(attr)) {
      index[*v].push_back(static_cast<Pli::RowId>(i));
    }
  }
  return index;
}

// Flat bookkeeping charges for the memory-budget accounting sweep: rough
// per-map-entry overhead (hash slot, future/control block, LRU node,
// snapshot-table mirror) and per-Value payload estimate. The budget is
// advisory — these keep the estimate honest without sizeof-walking every
// node type.
constexpr size_t kPerEntryOverhead = 160;
constexpr size_t kPerValueEstimate = 48;

// An already-fulfilled slot: what a COW clone (and nothing else) installs —
// the original future's builder protocol already ran to completion.
std::shared_future<std::shared_ptr<Pli>> ReadyFuture(std::shared_ptr<Pli> p) {
  std::promise<std::shared_ptr<Pli>> promise;
  promise.set_value(std::move(p));
  return promise.get_future().share();
}

}  // namespace

void ValueIndexApplyInsert(PliCache::ValueIndex* index, Pli::RowId row,
                           const Value* value) {
  if (value == nullptr) return;  // the row does not carry the attribute
  std::vector<Pli::RowId>& cluster = (*index)[*value];
  if (cluster.empty() || cluster.back() < row) {
    cluster.push_back(row);  // appends (the common case) stay O(1)
  } else {
    cluster.insert(std::lower_bound(cluster.begin(), cluster.end(), row),
                   row);
  }
}

void ValueIndexApplyUpdate(PliCache::ValueIndex* index, Pli::RowId row,
                           const Value* old_value, const Value* new_value) {
  if (old_value != nullptr) {
    auto it = index->find(*old_value);
    if (it != index->end()) {
      std::vector<Pli::RowId>& cluster = it->second;
      auto pos = std::lower_bound(cluster.begin(), cluster.end(), row);
      if (pos != cluster.end() && *pos == row) cluster.erase(pos);
      // Emptied values disappear, as in a from-scratch build.
      if (cluster.empty()) index->erase(it);
    }
  }
  ValueIndexApplyInsert(index, row, new_value);
}

namespace {

// The one splice body behind every batched value-index application. Groups
// the burst by value (the rows leaving and joining each one — sorting these
// small lists once is what lets every affected cluster be spliced in a
// single merge pass), rebuilds each affected cluster by one merge of
// (current \ erases) with the inserts, and reports every affected value to
// `capture(old_front, old_size, stored)` — `stored` pointing at the
// cluster now living in the index, or null when the value emptied out.
template <typename CaptureFn>
void SpliceValueIndex(PliCache::ValueIndex* index,
                      const std::vector<ValueIndexDelta>& deltas,
                      CaptureFn&& capture) {
  std::unordered_map<Value, std::pair<Pli::Cluster, Pli::Cluster>, ValueHash>
      moves;  // value -> (erased rows, inserted rows)
  for (const ValueIndexDelta& d : deltas) {
    if (d.old_value != nullptr && d.new_value != nullptr &&
        *d.old_value == *d.new_value) {
      continue;  // no movement on this attribute
    }
    if (d.old_value != nullptr) moves[*d.old_value].first.push_back(d.row);
    if (d.new_value != nullptr) moves[*d.new_value].second.push_back(d.row);
  }
  for (auto& [value, move] : moves) {
    auto& [erases, inserts] = move;
    std::sort(erases.begin(), erases.end());
    std::sort(inserts.begin(), inserts.end());
    auto it = index->find(value);
    const Pli::Cluster& current =
        it != index->end() ? it->second : kEmptyCluster;
    const Pli::RowId old_front = current.empty() ? 0 : current.front();
    const size_t old_size = current.size();
    Pli::Cluster next;
    next.reserve(current.size() + inserts.size());
    size_t e = 0, ins = 0;
    for (Pli::RowId r : current) {
      if (e < erases.size() && erases[e] == r) {
        ++e;
        continue;
      }
      while (ins < inserts.size() && inserts[ins] < r) {
        next.push_back(inserts[ins++]);
      }
      next.push_back(r);
    }
    while (ins < inserts.size()) next.push_back(inserts[ins++]);
    const Pli::Cluster* stored = nullptr;
    if (next.empty()) {
      if (it != index->end()) index->erase(it);
    } else if (it != index->end()) {
      it->second = std::move(next);
      stored = &it->second;
    } else {
      stored = &index->emplace(value, std::move(next)).first->second;
    }
    capture(old_front, old_size, stored);
  }
}

}  // namespace

std::vector<Pli::ClusterPatch> ValueIndexApplyUpdateBatch(
    PliCache::ValueIndex* index, const std::vector<ValueIndexDelta>& deltas,
    bool capture) {
  std::vector<Pli::ClusterPatch> patches;
  SpliceValueIndex(
      index, deltas,
      [&](Pli::RowId old_front, size_t old_size, const Pli::Cluster* stored) {
        // Values stripped before and after the splice never surface in the
        // partition; skip their no-op patches. The copy into the patch is
        // what the partition group-apply consumes; callers with no
        // partition to patch skip it.
        if (!capture) return;
        const size_t new_size = stored == nullptr ? 0 : stored->size();
        if (old_size < 2 && new_size < 2) return;
        Pli::ClusterPatch patch;
        patch.old_front = old_front;
        patch.old_size = old_size;
        if (stored != nullptr) patch.new_rows = *stored;
        patches.push_back(std::move(patch));
      });
  return patches;
}

std::vector<Pli::ClusterPatchView> ValueIndexApplyUpdateBatchViews(
    PliCache::ValueIndex* index, const std::vector<ValueIndexDelta>& deltas) {
  std::vector<Pli::ClusterPatchView> views;
  SpliceValueIndex(
      index, deltas,
      [&](Pli::RowId old_front, size_t old_size, const Pli::Cluster* stored) {
        const size_t new_size = stored == nullptr ? 0 : stored->size();
        if (old_size < 2 && new_size < 2) return;
        views.push_back({old_front, old_size,
                         stored == nullptr ? nullptr : stored->data(),
                         static_cast<uint32_t>(new_size)});
      });
  return views;
}

std::vector<Pli::ClusterPatch> ValueIndexApplyInsertBatch(
    PliCache::ValueIndex* index,
    const std::vector<std::pair<Pli::RowId, const Value*>>& inserts,
    bool capture) {
  std::vector<ValueIndexDelta> deltas;
  deltas.reserve(inserts.size());
  for (const auto& [row, value] : inserts) {
    if (value == nullptr) continue;  // the row does not carry the attribute
    deltas.push_back({row, nullptr, value});
  }
  return ValueIndexApplyUpdateBatch(index, deltas, capture);
}

PliCache::PliCache(const std::vector<Tuple>* rows)
    : PliCache(rows, Options()) {}

PliCache::PliCache(const std::vector<Tuple>* rows, Options options)
    : rows_(rows), options_(options) {}

std::shared_ptr<const Pli> PliCache::Get(const AttrSet& attrs) {
  // Nested lookups (BuildFor's prefix recursion, ProbeFor) each count —
  // every Get() bumps exactly one of hits/misses, so the telemetry
  // identity hits + misses == lookups holds at any quiescent point.
  FLEXREL_TELEMETRY_COUNT("engine.pli_cache.lookups", 1);
  FLEXREL_TELEMETRY_LATENCY(get_timer, "engine.pli_cache.get_ns");
  // The snapshot read path: one slot pin, no mutex, no flush (the hooks
  // flush and publish before they return, so the snapshot always reflects
  // the current rows). A miss falls through to the locked path below —
  // cache *population*, write-side work — which also serves entries built
  // since the last (coalesced) refresh.
  if (std::shared_ptr<const Pli> hit = FromSnapshot(&Snapshot::plis, attrs)) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    FLEXREL_TELEMETRY_COUNT("engine.pli_cache.hits", 1);
    return hit;
  }
  std::promise<PliPtr> promise;
  std::shared_future<PliPtr> future;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = entries_.find(attrs);
    if (it != entries_.end()) {
      ++hits_;
      FLEXREL_TELEMETRY_COUNT("engine.pli_cache.hits", 1);
      if (it->second.evictable) {
        lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      }
      // Copy the future and wait outside the lock: the thread fulfilling it
      // may itself need the lock for recursive sub-partition lookups.
      std::shared_future<PliPtr> pending = it->second.future;
      lock.unlock();
      return pending.get();
    }
    ++misses_;
    FLEXREL_TELEMETRY_COUNT("engine.pli_cache.misses", 1);
    if (options_.memory_budget_bytes != 0 && attrs.size() > 1) {
      EvictLocked();
      if (AccountedBytesLocked() > options_.memory_budget_bytes) {
        // Nothing evictable is left and the pinned bases alone exceed the
        // budget: degrade gracefully to the uncached oracle path — build
        // and serve this partition without caching it.
        ++uncached_serves_;
        FLEXREL_TELEMETRY_COUNT("engine.cache.uncached_serves", 1);
        lock.unlock();
        return BuildFor(attrs);
      }
    }
    Entry entry;
    entry.future = future = promise.get_future().share();
    entry.evictable = attrs.size() > 1;
    if (entry.evictable) {
      lru_.push_front(attrs);
      entry.lru_pos = lru_.begin();
    }
    entries_.emplace(attrs, std::move(entry));
    EvictLocked();
  }
  // Build outside the lock; concurrent requesters for the same key block on
  // the shared future instead of rebuilding.
  try {
    PliPtr pli = BuildFor(attrs);
    promise.set_value(std::move(pli));
    std::lock_guard<std::mutex> lock(mu_);
    if (options_.memory_budget_bytes != 0) {
      AccountMemoryLocked();
      EvictLocked();
    }
    // The fresh entry joins the published table at the next refresh;
    // until then the locked lookup above serves it.
    MaybeRefreshLocked(/*added=*/1);
  } catch (...) {
    // Un-poison the slot before publishing the failure: requesters already
    // waiting see this exception, but the next Get() rebuilds instead of
    // rethrowing a stale (possibly transient) error forever.
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = entries_.find(attrs);
      if (it != entries_.end()) DropEntryLocked(it);
    }
    promise.set_exception(std::current_exception());
  }
  return future.get();
}

PliCache::PliPtr PliCache::BuildFor(const AttrSet& attrs) {
  // Chaos harness hook: a build that throws (here: an injected allocation
  // failure) unwinds through Get's un-poisoning catch, so the next request
  // rebuilds instead of inheriting a stale error.
  FLEXREL_FAULT_INJECT("pli_cache.build");
  if (attrs.size() == 1) {
    // Counting sort over the attribute's dictionary code column when one
    // exists: the column hashes each value exactly once across its
    // lifetime (built on the first CodeColumnFor, then patched in lockstep
    // with the partitions), so partition (re)builds skip the per-row Value
    // hashing entirely. Probe-only on purpose — materializing a column
    // just to build one partition would cost more than the hash build it
    // replaces (the per-code buckets are the price), so a cold cache pays
    // a plain hash build.
    std::shared_ptr<const CodeColumn> column =
        ExistingCodeColumn(attrs.ids().front());
    if (column != nullptr) {
      return std::make_shared<Pli>(
          Pli::BuildFromCodes(column->codes(), column->code_bound()));
    }
  }
  if (attrs.size() <= 1) {
    Pli built = attrs.empty() ? Pli::Build(*rows_, attrs)
                              : Pli::Build(*rows_, attrs.ids().front());
    return std::make_shared<Pli>(std::move(built));
  }
  // X = prefix ∪ {last}: intersect the cached prefix partition (the more
  // refined operand, hence the outer one) with the last attribute's,
  // through that attribute's memoized (and incrementally maintained) probe.
  AttrId last = attrs.ids().back();
  AttrSet prefix = attrs.Minus(AttrSet::Of(last));
  std::shared_ptr<const Pli> left = Get(prefix);
  std::shared_ptr<const PliProbe> probe = ProbeFor(last);
  return std::make_shared<Pli>(left->IntersectWithProbe(*probe));
}

std::shared_ptr<const PliProbe> PliCache::ProbeFor(AttrId attr) {
  if (auto hit = FromSnapshot(&Snapshot::probes, attr)) return hit;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = probes_.find(attr);
    if (it != probes_.end()) return it->second;
  }
  std::shared_ptr<const Pli> pli = Get(AttrSet::Of(attr));
  auto probe = std::make_shared<PliProbe>(pli->BuildProbe());
  std::lock_guard<std::mutex> lock(mu_);
  // Racing builders compute identical tables; first insert wins.
  auto [it, fresh] = probes_.emplace(attr, std::move(probe));
  if (fresh) MaybeRefreshLocked(/*added=*/1);
  return it->second;
}

// ---------------------------------------------------------------------------
// Incremental probe maintenance: O(delta) label patches in lockstep with the
// cluster patches, instead of the old memo-drop + O(rows) rebuild per flush.
// ---------------------------------------------------------------------------

void PliCache::DropProbeLocked(AttrId attr) {
  if (probes_.erase(attr) > 0) ++probe_rebuilds_;
}

void PliCache::MaybeRetireBloatedProbeLocked(AttrId attr, const Pli& pli) {
  auto it = probes_.find(attr);
  if (it == probes_.end()) return;
  const PliProbe& probe = *it->second;
  // Density check: the label space sizes every IntersectWithProbe scratch
  // allocation, so once it dwarfs the live clusters the memo is worth an
  // O(rows) dense rebuild.
  if (static_cast<size_t>(probe.label_bound) <= 2 * pli.num_clusters() + 64) {
    return;
  }
  // Hysteresis: mass stripping dissolves clusters *under* the bound (labels
  // retire, the bound doesn't shrink), so even a freshly rebuilt probe can
  // sit past the density check the moment the cluster count moves — and
  // without a baseline, every flush would re-trip it and pay the rebuild
  // again. A rebuild resets the baseline (BuildProbe); re-drop only after
  // the bound has bloated again from that reset baseline.
  if (probe.label_bound <= 2 * probe.label_baseline + 64) return;
  DropProbeLocked(attr);
}

void PliCache::ProbePatchInsertLocked(AttrId attr, Pli::RowId row,
                                      const Pli::Cluster& partners) {
  auto it = probes_.find(attr);
  if (it == probes_.end()) return;
  PliProbe* probe = it->second.get();
  if (partners.empty()) {
    probe->labels[row] = Pli::kNoCluster;  // stays stripped
  } else if (partners.size() == 1) {
    // Un-strip: the fresh two-row cluster takes a fresh stable label. A
    // partner already carrying one contradicts the memo.
    if (probe->labels[partners.front()] != Pli::kNoCluster) {
      DropProbeLocked(attr);
      return;
    }
    const int32_t label = probe->label_bound++;
    probe->labels[partners.front()] = label;
    probe->labels[row] = label;
  } else {
    const int32_t label = probe->labels[partners.front()];
    if (label == Pli::kNoCluster) {  // contradicts the memo; rebuild lazily
      DropProbeLocked(attr);
      return;
    }
    probe->labels[row] = label;
  }
  ++probe_patches_;
}

void PliCache::ProbePatchEraseLocked(AttrId attr, Pli::RowId row,
                                     const Pli::Cluster& partners) {
  auto it = probes_.find(attr);
  if (it == probes_.end()) return;
  PliProbe* probe = it->second.get();
  probe->labels[row] = Pli::kNoCluster;
  if (partners.size() == 1) {
    // The cluster dissolves; its label is simply retired.
    probe->labels[partners.front()] = Pli::kNoCluster;
  }
  ++probe_patches_;
}

void PliCache::ProbePatchBatchLocked(
    AttrId attr, const std::vector<ValueIndexDelta>& deltas,
    const std::vector<Pli::ClusterPatchView>& patches) {
  auto it = probes_.find(attr);
  if (it == probes_.end()) return;
  PliProbe* probe = it->second.get();
  // Pre-read every replaced cluster's label off its pre-splice front: the
  // movers' labels are cleared next, and a front may itself be a mover.
  std::vector<int32_t> labels(patches.size(), Pli::kNoCluster);
  for (size_t p = 0; p < patches.size(); ++p) {
    if (patches[p].old_size >= 2) {
      labels[p] = probe->labels[patches[p].old_front];
      if (labels[p] == Pli::kNoCluster) {  // contradicts the memo
        DropProbeLocked(attr);
        return;
      }
    }
  }
  for (const ValueIndexDelta& d : deltas) {
    if (d.old_value != nullptr && d.new_value != nullptr &&
        *d.old_value == *d.new_value) {
      continue;  // no movement on this attribute
    }
    probe->labels[d.row] = Pli::kNoCluster;
  }
  for (size_t p = 0; p < patches.size(); ++p) {
    const Pli::ClusterPatchView& patch = patches[p];
    if (patch.new_size >= 2) {
      const int32_t label = labels[p] != Pli::kNoCluster
                                ? labels[p]
                                : probe->label_bound++;
      // O(cluster) writes — the same rows the splice itself just touched;
      // stayers get their own label rewritten, which is idempotent.
      for (uint32_t i = 0; i < patch.new_size; ++i) {
        probe->labels[patch.new_rows[i]] = label;
      }
    } else if (patch.new_size == 1) {
      probe->labels[patch.new_rows[0]] = Pli::kNoCluster;  // re-stripped
    }
  }
  ++probe_patches_;
}

std::shared_ptr<const CodeColumn> PliCache::ExistingCodeColumn(AttrId attr) {
  if (auto hit = FromSnapshot(&Snapshot::columns, attr)) return hit;
  // A column built since the last refresh is only in the live map.
  std::lock_guard<std::mutex> lock(mu_);
  auto it = code_columns_.find(attr);
  return it == code_columns_.end() ? nullptr : it->second;
}

std::shared_ptr<const CodeColumn> PliCache::CodeColumnFor(AttrId attr) {
  if (auto hit = FromSnapshot(&Snapshot::columns, attr)) return hit;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = code_columns_.find(attr);
    if (it != code_columns_.end()) return it->second;
  }
  // Build outside the lock — an O(rows) intern pass must not stall
  // concurrent Get()s; it is the only time this attribute's values are
  // ever hashed.
  auto column = std::make_shared<CodeColumn>(CodeColumn::Build(*rows_, attr));
  std::lock_guard<std::mutex> lock(mu_);
  // Racing builders compute identical columns; first insert wins.
  auto [it, fresh] = code_columns_.emplace(attr, std::move(column));
  if (fresh) MaybeRefreshLocked(/*added=*/1);
  return it->second;
}

PliCache::PartnerScan PliCache::AgreeingRowsLocked(const AttrSet& attrs,
                                                   const Tuple& proj,
                                                   Pli::RowId exclude_row,
                                                   Pli::Cluster* out,
                                                   size_t* scan_budget) {
  out->clear();
  // The partners are exactly the k-way intersection of the attributes'
  // value clusters: pure sorted-integer work against the indexes' current
  // state (mid-flush the row vector is already ahead of the structures,
  // so touching tuples here would observe not-yet-applied states).
  std::vector<const Pli::Cluster*> lists;
  lists.reserve(attrs.size());
  for (AttrId a : attrs) {
    auto idx_it = value_indexes_.find(a);
    if (idx_it == value_indexes_.end()) return PartnerScan::kNoIndex;
    auto it = idx_it->second.find(*proj.Get(a));
    if (it == idx_it->second.end()) {
      return PartnerScan::kOk;  // value unseen -> no partners
    }
    lists.push_back(&it->second);
  }
  std::sort(lists.begin(), lists.end(),
            [](const Pli::Cluster* a, const Pli::Cluster* b) {
              return a->size() < b->size();
            });
  const Pli::Cluster* seed = lists.front();
  // Patch vs rebuild: a seed cluster spanning most of the instance — or a
  // burst whose cumulative scans overdraw the budget — costs more than one
  // probe-table pass over the patched sub-partitions; tell the caller to
  // drop and re-intersect instead.
  if (seed->size() >
      std::max(options_.patch_scan_limit, rows_->size() / 2)) {
    return PartnerScan::kTooBig;
  }
  if (scan_budget != nullptr) {
    if (seed->size() > *scan_budget) return PartnerScan::kTooBig;
    *scan_budget -= seed->size();
  }
  out->reserve(seed->size());
  for (Pli::RowId r : *seed) {
    if (r != exclude_row) out->push_back(r);
  }
  // Refine by each larger list: stream it when the sizes are comparable,
  // binary-search per survivor when it dwarfs them (adaptive set
  // intersection — fat clusters cost log, not a full scan).
  for (size_t l = 1; l < lists.size() && !out->empty(); ++l) {
    const Pli::Cluster& other = *lists[l];
    size_t kept = 0;
    if (other.size() / out->size() >= 16) {
      for (Pli::RowId r : *out) {
        if (std::binary_search(other.begin(), other.end(), r)) {
          (*out)[kept++] = r;
        }
      }
    } else {
      size_t j = 0;
      for (Pli::RowId r : *out) {
        while (j < other.size() && other[j] < r) ++j;
        if (j < other.size() && other[j] == r) (*out)[kept++] = r;
      }
    }
    out->resize(kept);
  }
  return PartnerScan::kOk;
}

PliCache::EntryMap::iterator PliCache::DropEntryLocked(
    EntryMap::iterator it) {
  // A probe mirrors its single-attribute partition; dropping the partition
  // for a lazy rebuild leaves the memo describing nothing — retire it too.
  if (it->first.size() == 1) DropProbeLocked(it->first.ids().front());
  if (it->second.evictable) lru_.erase(it->second.lru_pos);
  return entries_.erase(it);
}

void PliCache::PatchEntriesLocked(
    const std::function<PatchResult(const AttrSet&, Pli*)>& patch,
    size_t* patched_counter) {
  using namespace std::chrono_literals;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.future.wait_for(0s) != std::future_status::ready) {
      ++patch_rebuilds_;
      it = DropEntryLocked(it);
      continue;
    }
    switch (patch(it->first, it->second.future.get().get())) {
      case PatchResult::kRebuild:
        ++patch_rebuilds_;
        it = DropEntryLocked(it);
        break;
      case PatchResult::kPatched:
        ++*patched_counter;
        ++it;
        break;
      case PatchResult::kUntouched:
        ++it;
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// Mutation hooks: collect the call's deltas, then flush and publish them
// under one lock hold, so the published snapshot is always current and
// readers never flush — the ordering contract is: mutate rows, hook
// patches successor copies + swaps the snapshot, release mu_, readers see
// the new epoch. Nothing is buffered across hook calls.
// ---------------------------------------------------------------------------

void PliCache::OnInsert(Pli::RowId row) {
  std::vector<Delta> deltas;
  deltas.push_back({row, /*is_insert=*/true, Tuple()});
  std::lock_guard<std::mutex> lock(mu_);
  FlushLocked(deltas);
}

void PliCache::OnUpdate(Pli::RowId row, Tuple old_row) {
  std::vector<Delta> deltas;
  deltas.push_back({row, /*is_insert=*/false, std::move(old_row)});
  std::lock_guard<std::mutex> lock(mu_);
  FlushLocked(deltas);
}

void PliCache::OnBatch(Pli::RowId first_inserted, size_t insert_count,
                       std::vector<std::pair<Pli::RowId, Tuple>> old_rows) {
  std::vector<Delta> deltas;
  deltas.reserve(insert_count + old_rows.size());
  for (size_t i = 0; i < insert_count; ++i) {
    deltas.push_back({static_cast<Pli::RowId>(first_inserted + i),
                      /*is_insert=*/true, Tuple()});
  }
  for (auto& [row, old_row] : old_rows) {
    deltas.push_back({row, /*is_insert=*/false, std::move(old_row)});
  }
  std::lock_guard<std::mutex> lock(mu_);
  FlushLocked(deltas);
}

// ---------------------------------------------------------------------------
// The flush: coalesce one hook's deltas to net per-row deltas, then patch
// per row, group-apply, or drop everything by the net burst size.
// ---------------------------------------------------------------------------

void PliCache::FlushLocked(const std::vector<Delta>& deltas) {
  if (deltas.empty()) return;
  telemetry::ScopedSpan flush_span("pli_cache.flush");
  FLEXREL_TELEMETRY_LATENCY(flush_timer, "engine.pli_cache.flush_ns");
  // Coalesce to one net delta per row: the first recorded old state wins,
  // the final state is read straight from the (fully mutated) rows. The
  // single-delta case — the per-mutation cadence the PR 3 path served —
  // skips the dedup machinery entirely.
  std::vector<NetDelta> net;
  net.reserve(deltas.size());
  if (deltas.size() == 1) {
    const Delta& d = deltas.front();
    net.push_back(
        {d.row, d.is_insert, d.is_insert ? nullptr : &d.old_row, AttrSet()});
  } else {
    std::unordered_set<Pli::RowId> seen;
    seen.reserve(deltas.size());
    for (const Delta& d : deltas) {
      if (seen.insert(d.row).second) {
        net.push_back({d.row, d.is_insert,
                       d.is_insert ? nullptr : &d.old_row, AttrSet()});
      }
    }
  }
  // Diff each net delta exactly once; every later stage reads the result.
  // Updates that net out (old state == final state) diff to ∅ and vanish —
  // e.g. a row moved away and back between two queries, or re-valued to
  // what it already held.
  size_t insert_count = 0;
  AttrSet changed;  // attributes whose partitions/indexes/probes may shift
  for (NetDelta& d : net) {
    const Tuple& now = (*rows_)[d.row];
    if (d.is_insert) {
      ++insert_count;
      d.changed_attrs = now.attrs();
    } else {
      for (const auto& [attr, value] : d.old_row->fields()) {
        const Value* nv = now.Get(attr);
        if (nv == nullptr || *nv != value) d.changed_attrs.Insert(attr);
      }
      for (const auto& [attr, value] : now.fields()) {
        (void)value;
        if (!d.old_row->Has(attr)) d.changed_attrs.Insert(attr);
      }
    }
    for (AttrId a : d.changed_attrs) changed.Insert(a);
  }
  std::erase_if(net, [](const NetDelta& d) {
    return !d.is_insert && d.changed_attrs.empty();
  });
  if (net.empty()) {
    if (flush_span.active()) flush_span.SetDetail("arm=noop b=0");
    return;
  }
  // One flush == one arm taken, so per_row + batched + dropped == flushes.
  // The span detail carries the net burst size and the estimate the arm
  // decision compared it against.
  const size_t b = net.size();
  // Flush-driven publication, timed as its own phase: the swap plus the
  // release of the superseded table, which is where the clones of earlier
  // epochs are freed.
  auto publish = [&] {
    FLEXREL_TELEMETRY_LATENCY(publish_timer,
                              "engine.pli_cache.flush.publish_ns");
    PublishLocked(/*flush_publish=*/true);
  };
  ++flushes_;
  FLEXREL_TELEMETRY_COUNT("engine.pli_cache.flushes", 1);
  FLEXREL_TELEMETRY_HIST("engine.pli_cache.flush.burst", b);
  const size_t drop_at = std::max(options_.drop_threshold, rows_->size() / 2);
  if (b >= drop_at) {
    FLEXREL_TELEMETRY_COUNT("engine.pli_cache.flush.dropped", 1);
    if (flush_span.active()) {
      flush_span.SetDetail("arm=drop b=" + std::to_string(b) +
                           " est=drop_at:" + std::to_string(drop_at));
    }
    DropAllLocked();
    if (options_.memory_budget_bytes != 0) AccountMemoryLocked();
    // Dropping mutates no structure, so nothing needs cloning — but the
    // published table must stop resolving the dropped keys.
    publish();
    return;
  }
  // Failure atomicity: everything from the clone to the last patch arm
  // allocates (successor copies, splices, lazily built indexes), and a
  // throw mid-patch would otherwise leave live structures half-patched.
  // The recovery is the strong guarantee at cache granularity: drop every
  // cached structure (the row vector is the source of truth; reads rebuild
  // lazily) and publish the dropped state, so no reader can ever observe a
  // partially applied flush. The fault sites sit *outside* PublishLocked on
  // purpose: the recovery path must traverse no injection point.
  try {
    FLEXREL_FAULT_INJECT("pli_cache.flush.clone");
    // COW: everything the patch arms below will touch is replaced by a
    // same-content successor first, so the live epoch's structures stay
    // frozen for their readers and the swap at the end is the only point
    // new state becomes visible.
    {
      FLEXREL_TELEMETRY_LATENCY(clone_timer, "engine.pli_cache.flush.clone_ns");
      CloneForCowLocked(changed, insert_count > 0);
    }
    FLEXREL_TELEMETRY_LATENCY(patch_timer, "engine.pli_cache.flush.patch_ns");
    // Probe memos are patched in place by both flush arms below (in
    // lockstep with the cluster patches, via the ProbePatch*Locked
    // helpers); inserts only need the label arrays grown — new rows start
    // clusterless.
    if (insert_count > 0) {
      for (auto& [attr, probe] : probes_) {
        (void)attr;
        probe->labels.resize(rows_->size(), Pli::kNoCluster);
      }
    }
    // Both patch paths consult value indexes for partner sets and splices;
    // any missing one is built once and rewound to the pre-batch state.
    EnsureFlushIndexesLocked(net, changed);
    // The code columns ride the same burst: O(1)-ish integer work per
    // delta per pinned column, on either arm below.
    PatchCodeColumnsLocked(net, changed, insert_count > 0);
    FLEXREL_FAULT_INJECT("pli_cache.flush.patch");
    if (b < options_.batch_threshold) {
      FLEXREL_TELEMETRY_COUNT("engine.pli_cache.flush.per_row", 1);
      if (flush_span.active()) {
        flush_span.SetDetail(
            "arm=per_row b=" + std::to_string(b) +
            " est=batch_at:" + std::to_string(options_.batch_threshold));
      }
      for (const NetDelta& d : net) {
        if (d.is_insert) {
          ReplayInsertLocked(d.row);
        } else {
          ReplayUpdateLocked(d.row, *d.old_row, d.changed_attrs);
        }
      }
    } else {
      FLEXREL_TELEMETRY_COUNT("engine.pli_cache.flush.batched", 1);
      if (flush_span.active()) {
        flush_span.SetDetail(
            "arm=batched b=" + std::to_string(b) +
            " est=batch_at:" + std::to_string(options_.batch_threshold) +
            " drop_at:" + std::to_string(drop_at));
      }
      BatchApplyLocked(net, changed, insert_count);
    }
    FLEXREL_FAULT_INJECT("pli_cache.flush.publish");
  } catch (...) {
    ++flush_aborts_;
    FLEXREL_TELEMETRY_COUNT("engine.pli_cache.flush_aborts", 1);
    if (flush_span.active()) {
      flush_span.SetDetail("arm=aborted b=" + std::to_string(b));
    }
    DropAllLocked();
    if (options_.memory_budget_bytes != 0) AccountMemoryLocked();
    publish();
    // Swallowed: the flush recovered to a consistent (empty) cache, and
    // the mutation itself already succeeded against the row vector.
    return;
  }
  if (options_.memory_budget_bytes != 0) {
    AccountMemoryLocked();
    EvictLocked();  // the flush may have grown structures past the budget
  }
  publish();
}

void PliCache::CloneForCowLocked(const AttrSet& changed, bool has_inserts) {
  using namespace std::chrono_literals;
  for (auto& [attrs, entry] : entries_) {
    // Updates leave entries outside `changed` untouched; inserts patch the
    // row-count bookkeeping of every entry. Unready slots are skipped —
    // the flush arms drop them anyway, never patch them.
    if (!has_inserts && !attrs.Intersects(changed)) continue;
    if (entry.future.wait_for(0s) != std::future_status::ready) continue;
    entry.future = ReadyFuture(std::make_shared<Pli>(*entry.future.get()));
  }
  for (auto& [attr, probe] : probes_) {
    if (!has_inserts && !changed.Contains(attr)) continue;
    probe = std::make_shared<PliProbe>(*probe);
  }
  for (auto& [attr, column] : code_columns_) {
    // Inserts grow every column's code vector, not just changed attrs.
    if (!has_inserts && !changed.Contains(attr)) continue;
    column = std::make_shared<CodeColumn>(*column);
  }
}

void PliCache::PublishLocked(bool flush_publish) {
  using namespace std::chrono_literals;
  auto snap = std::make_shared<Snapshot>();
  snap->plis.reserve(entries_.size());
  for (const auto& [attrs, entry] : entries_) {
    // In-flight builds join the table on their own post-build refresh.
    if (entry.future.wait_for(0s) != std::future_status::ready) continue;
    snap->plis.emplace(attrs, entry.future.get());
  }
  snap->probes.reserve(probes_.size());
  for (const auto& [attr, probe] : probes_) snap->probes.emplace(attr, probe);
  snap->columns.reserve(code_columns_.size());
  for (const auto& [attr, column] : code_columns_) {
    snap->columns.emplace(attr, column);
  }
  snap->epoch = ++epoch_;
  unpublished_changes_ = 0;
  if (flush_publish) {
    ++publishes_;
    FLEXREL_TELEMETRY_COUNT("engine.pli_cache.publishes", 1);
  } else {
    FLEXREL_TELEMETRY_COUNT("engine.pli_cache.snapshot_refreshes", 1);
  }
  FLEXREL_TELEMETRY_GAUGE_SET("engine.pli_cache.epoch", epoch_);
  // Writer side of the two-slot protocol (see snapshot_slots_ in the
  // header): rebuild the spare slot once its reader pins drain, then flip
  // the index, then release the superseded slot once its pins drain too.
  // mu_ serializes publishers, so the relaxed self-load of snapshot_cur_ is
  // exact.
  const uint32_t spare = snapshot_cur_.load(std::memory_order_relaxed) ^ 1u;
  SnapshotSlot& slot = snapshot_slots_[spare];
  while (!slot.Drained()) {
    // Pins cover a shared_ptr copy only — this drain is a few cycles.
    std::this_thread::yield();
  }
  slot.snap = std::move(snap);
  snapshot_cur_.store(spare);
  SnapshotSlot& superseded = snapshot_slots_[spare ^ 1u];
  while (!superseded.Drained()) std::this_thread::yield();
  superseded.snap.reset();
}

void PliCache::MaybeRefreshLocked(size_t added) {
  unpublished_changes_ += added;
  const size_t table =
      entries_.size() + probes_.size() + code_columns_.size();
  if (options_.memory_budget_bytes == 0 &&
      unpublished_changes_ * kRefreshLagDivisor < table) {
    return;
  }
  FLEXREL_TELEMETRY_LATENCY(refresh_timer, "engine.pli_cache.refresh_ns");
  PublishLocked(/*flush_publish=*/false);
}

void PliCache::EnsureFlushIndexesLocked(const std::vector<NetDelta>& net,
                                        const AttrSet& changed) {
  for (const auto& [attrs, entry] : entries_) {
    (void)entry;
    if (attrs.empty() || !attrs.Intersects(changed)) continue;
    for (AttrId a : attrs) {
      if (value_indexes_.count(a) > 0) continue;  // dedups repeat visits too
      ValueIndex* index =
          &value_indexes_.emplace(a, BuildValueIndex(*rows_, a))
               .first->second;
      // The fresh index reflects the final rows; rewind the burst — the
      // deltas reversed, final state -> first recorded old state, inserts
      // removed entirely — so it describes the instance the cached
      // partitions still represent. One splice, no capture.
      std::vector<ValueIndexDelta> rewind;
      rewind.reserve(net.size());
      for (const NetDelta& d : net) {
        const Value* final_v = (*rows_)[d.row].Get(a);
        const Value* old_v = d.is_insert ? nullptr : d.old_row->Get(a);
        if (final_v == nullptr && old_v == nullptr) continue;
        if (final_v != nullptr && old_v != nullptr && *final_v == *old_v) {
          continue;
        }
        rewind.push_back({d.row, final_v, old_v});
      }
      ValueIndexApplyUpdateBatch(index, rewind, /*capture=*/false);
    }
  }
}

void PliCache::DropAllLocked() {
  entries_.clear();
  lru_.clear();
  value_indexes_.clear();
  probes_.clear();
  // Columns drop with everything else: past the drop threshold, per-row
  // bucket surgery on every pinned column costs more than the one intern
  // scan a lazy rebuild pays (exactly the value indexes' tradeoff).
  code_columns_.clear();
  ++full_drops_;
}

void PliCache::PatchCodeColumnsLocked(const std::vector<NetDelta>& net,
                                      const AttrSet& changed,
                                      bool has_inserts) {
  if (code_columns_.empty()) return;
  for (auto& [attr, column] : code_columns_) {
    const bool affected = changed.Contains(attr);
    if (!has_inserts && !affected) continue;
    for (const NetDelta& d : net) {
      if (d.is_insert) {
        // Net preserves append order, so insert rows arrive ascending.
        column->ApplyInsert(d.row, (*rows_)[d.row].Get(attr));
      } else if (affected && d.changed_attrs.Contains(attr)) {
        column->ApplyUpdate(d.row, (*rows_)[d.row].Get(attr));
      }
    }
    column->MaybeReintern();
  }
}

void PliCache::ReplayInsertLocked(Pli::RowId row) {
  const Tuple& t = (*rows_)[row];
  PatchEntriesLocked(
      [&](const AttrSet& attrs, Pli* pli) -> PatchResult {
        pli->SetNumRows(rows_->size());  // probe tables must cover the row
        bool ok;
        if (attrs.empty()) {
          // The ∅-partition holds every row in one cluster; the fast path
          // skips materializing the all-previous-rows partner list.
          ok = pli->ApplyInsertAllRows(row);
        } else if (!t.DefinedOn(attrs)) {
          return PatchResult::kPatched;  // the row stays out of scope, but
                                         // the row count above was patched
        } else if (attrs.size() == 1) {
          AttrId a = attrs.ids().front();
          auto it = value_indexes_.find(a);
          if (it == value_indexes_.end()) return PatchResult::kRebuild;
          // The index still describes the pre-insert instance (it is
          // patched only further down), so the cluster is pure partners.
          const Pli::Cluster& partners = ClusterOf(it->second, *t.Get(a));
          ok = pli->ApplyInsert(row, partners, /*includes_row=*/false);
          if (ok) {
            ProbePatchInsertLocked(a, row, partners);
            MaybeRetireBloatedProbeLocked(a, *pli);
          }
        } else {
          // An oversized partner scan means re-intersecting the patched
          // sub-partitions is cheaper: fail the patch to drop the entry.
          Pli::Cluster partners;
          if (AgreeingRowsLocked(attrs, t, row, &partners, nullptr) !=
              PartnerScan::kOk) {
            return PatchResult::kRebuild;
          }
          ok = pli->ApplyInsert(row, partners, /*includes_row=*/false);
        }
        return ok ? PatchResult::kPatched : PatchResult::kRebuild;
      },
      &patches_);
  // Patch the value indexes last — they are the partner source above and
  // must describe the pre-insert instance while partitions are patched.
  for (auto& [attr, index] : value_indexes_) {
    if (const Value* v = t.Get(attr)) {
      ValueIndexApplyInsert(&index, row, v);
      ++patches_;
    }
  }
}

void PliCache::ReplayUpdateLocked(Pli::RowId row, const Tuple& old_row,
                                  const AttrSet& changed) {
  // `changed` — the attributes whose presence or value the net move flips,
  // diffed once by the flush; footnote-3 type changes surface as several
  // attributes at once.
  const Tuple& new_row = (*rows_)[row];
  if (changed.empty()) return;

  // Detach the row from the old-value clusters first, so the indexes list
  // exactly the row's potential partners.
  for (AttrId a : changed) {
    auto it = value_indexes_.find(a);
    if (it == value_indexes_.end()) continue;
    ValueIndexApplyUpdate(&it->second, row, old_row.Get(a), nullptr);
  }
  PatchEntriesLocked(
      [&](const AttrSet& attrs, Pli* pli) -> PatchResult {
        if (!attrs.Intersects(changed)) {
          return PatchResult::kUntouched;  // incl. the ∅-partition
        }
        bool ok = true;
        if (attrs.size() == 1) {
          AttrId a = attrs.ids().front();
          auto it = value_indexes_.find(a);
          if (it == value_indexes_.end()) return PatchResult::kRebuild;
          const ValueIndex& index = it->second;
          if (const Value* old_v = old_row.Get(a)) {
            // The index already excludes `row` from the old cluster here.
            const Pli::Cluster& partners = ClusterOf(index, *old_v);
            ok = pli->ApplyErase(row, partners, /*includes_row=*/false);
            if (ok) ProbePatchEraseLocked(a, row, partners);
          }
          if (ok) {
            if (const Value* new_v = new_row.Get(a)) {
              const Pli::Cluster& partners = ClusterOf(index, *new_v);
              ok = pli->ApplyInsert(row, partners, /*includes_row=*/false);
              if (ok) ProbePatchInsertLocked(a, row, partners);
            }
          }
          if (ok) MaybeRetireBloatedProbeLocked(a, *pli);
        } else {
          Pli::Cluster partners;
          if (old_row.DefinedOn(attrs)) {
            if (AgreeingRowsLocked(attrs, old_row, row, &partners,
                                   nullptr) != PartnerScan::kOk) {
              return PatchResult::kRebuild;
            }
            ok = pli->ApplyErase(row, partners, /*includes_row=*/false);
          }
          if (ok && new_row.DefinedOn(attrs)) {
            if (AgreeingRowsLocked(attrs, new_row, row, &partners,
                                   nullptr) != PartnerScan::kOk) {
              return PatchResult::kRebuild;
            }
            ok = pli->ApplyInsert(row, partners, /*includes_row=*/false);
          }
        }
        return ok ? PatchResult::kPatched : PatchResult::kRebuild;
      },
      &patches_);
  // Attach the row under its new values last.
  for (AttrId a : changed) {
    auto it = value_indexes_.find(a);
    if (it == value_indexes_.end()) continue;
    if (const Value* new_v = new_row.Get(a)) {
      ValueIndexApplyInsert(&it->second, row, new_v);
      ++patches_;
    }
  }
}

size_t PliCache::EstimateMultiPatchScanLocked(
    const AttrSet& attrs, const std::vector<NetDelta>& net) {
  // Σ of the seed-cluster sizes both phases would scan (post-state seeds
  // approximated by the pre-splice clusters — a burst barely moves them).
  // Comparing this against the instance size is the entry's patch-vs-drop
  // call: the re-intersection a drop defers costs one O(rows) pass.
  auto seed_size = [&](const Tuple& proj) -> size_t {
    size_t seed = SIZE_MAX;
    for (AttrId a : attrs) {
      auto idx_it = value_indexes_.find(a);
      if (idx_it == value_indexes_.end()) return 0;
      auto it = idx_it->second.find(*proj.Get(a));
      if (it == idx_it->second.end()) return 0;  // unseen -> empty scan
      seed = std::min(seed, it->second.size());
    }
    return seed;
  };
  size_t total = 0;
  for (const NetDelta& d : net) {
    if (!d.changed_attrs.Intersects(attrs)) continue;  // projection sits still
    const Tuple& now = (*rows_)[d.row];
    if (!d.is_insert && d.old_row->DefinedOn(attrs)) {
      total += seed_size(*d.old_row);
    }
    if (now.DefinedOn(attrs)) total += seed_size(now);
  }
  return total;
}

bool PliCache::MultiAttrGroupPatchLocked(const AttrSet& attrs, Pli* pli,
                                         const std::vector<NetDelta>& net,
                                         bool erase, size_t* scan_budget) {
  // The rows this phase moves: leaving rows were defined on `attrs` before
  // the burst, joining rows are after; rows whose projection did not
  // change sit still (they are partners, not movers).
  std::vector<std::pair<Pli::RowId, const Tuple*>> moving;
  std::unordered_set<Pli::RowId> moving_set;
  for (const NetDelta& d : net) {
    if (!d.changed_attrs.Intersects(attrs)) continue;  // projection sits still
    const Tuple& now = (*rows_)[d.row];
    const Tuple* proj;
    if (erase) {
      if (d.is_insert || !d.old_row->DefinedOn(attrs)) continue;
      proj = d.old_row;
    } else {
      if (!now.DefinedOn(attrs)) continue;
      proj = &now;
    }
    moving.push_back({d.row, proj});
    moving_set.insert(d.row);
  }
  if (moving.empty()) return true;
  // One ClusterPatch per affected cluster. All movers sharing a cluster
  // compute the same full membership (partner scans are consistent within
  // one phase), so the patch is keyed by the full cluster's front row.
  std::unordered_map<Pli::RowId, Pli::ClusterPatch> by_front;
  Pli::Cluster partners;
  for (const auto& [row, proj] : moving) {
    if (AgreeingRowsLocked(attrs, *proj, row, &partners, scan_budget) !=
        PartnerScan::kOk) {
      return false;
    }
    Pli::Cluster full = partners;  // ∪ {row}, ascending
    full.insert(std::lower_bound(full.begin(), full.end(), row), row);
    if (full.size() < 2) continue;  // stripped on this side: no cluster
    auto [it, first_visit] = by_front.try_emplace(full.front());
    Pli::ClusterPatch& patch = it->second;
    if (first_visit) {
      if (erase) {
        // The partition currently holds the full pre-burst cluster; the
        // replacement starts as that and sheds each mover below.
        patch.old_front = full.front();
        patch.old_size = full.size();
        patch.new_rows = std::move(full);
      } else {
        // The partition (post-erase-phase) holds only the stayers; the
        // replacement is the full post-burst cluster.
        Pli::Cluster stayers;
        for (Pli::RowId r : full) {
          if (moving_set.count(r) == 0) stayers.push_back(r);
        }
        patch.old_size = stayers.size();
        patch.old_front = stayers.empty() ? 0 : stayers.front();
        patch.new_rows = std::move(full);
      }
    } else if (erase ? patch.old_size != full.size()
                     : patch.new_rows.size() != full.size()) {
      return false;  // two movers disagree about their shared cluster
    }
    if (erase) {
      auto pos = std::lower_bound(patch.new_rows.begin(),
                                  patch.new_rows.end(), row);
      if (pos == patch.new_rows.end() || *pos != row) return false;
      patch.new_rows.erase(pos);
    }
  }
  std::vector<Pli::ClusterPatch> patches;
  patches.reserve(by_front.size());
  for (auto& [front, patch] : by_front) {
    (void)front;
    patches.push_back(std::move(patch));
  }
  // Cache-built multi-attribute partitions are intersection products, so
  // defined_rows tracks grouped_rows and the delta argument is moot.
  return pli->ApplyBatch(std::move(patches), /*defined_delta=*/0);
}

void PliCache::BatchApplyLocked(const std::vector<NetDelta>& net,
                                const AttrSet& changed, size_t insert_count) {
  using namespace std::chrono_literals;
  const size_t b = net.size();
  // Per-attribute movement lists. The Value pointers reach into rows_ and
  // into the hook's old tuples, both stable for the flush.
  std::unordered_map<AttrId, std::vector<ValueIndexDelta>> per_attr;
  std::vector<Pli::RowId> inserted_rows;
  inserted_rows.reserve(insert_count);
  for (const NetDelta& d : net) {
    const Tuple& now = (*rows_)[d.row];
    if (d.is_insert) {
      inserted_rows.push_back(d.row);
      for (const auto& [attr, value] : now.fields()) {
        per_attr[attr].push_back({d.row, nullptr, &value});
      }
    } else {
      for (AttrId a : d.changed_attrs) {
        per_attr[a].push_back({d.row, d.old_row->Get(a), now.Get(a)});
      }
    }
  }
  std::sort(inserted_rows.begin(), inserted_rows.end());

  // Classify the cached partitions. Multi-attribute entries whose cluster
  // count the burst saturates are dropped for lazy re-intersection from
  // the patched bases (one probe-table pass beats 2b seed scans then);
  // sparser bursts keep the entry and group-patch it in two phases around
  // the index splice. This is the burst-size-vs-cluster-count arm of the
  // adaptive policy.
  struct Work {
    AttrSet attrs;
    Pli* pli;
    bool alive = true;
    // Partner-scan allowance across both phases: one re-intersection's
    // worth of row touches. Overdrawing it means rebuilding is cheaper.
    size_t scan_budget = 0;
  };
  std::vector<Work> multi;
  std::vector<Work> single;
  Pli* empty_pli = nullptr;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.future.wait_for(0s) != std::future_status::ready) {
      ++patch_rebuilds_;
      it = DropEntryLocked(it);
      continue;
    }
    Pli* pli = it->second.future.get().get();
    if (insert_count > 0) pli->SetNumRows(rows_->size());
    const AttrSet& attrs = it->first;
    if (attrs.empty()) {
      empty_pli = pli;
    } else if (attrs.Intersects(changed)) {
      if (attrs.size() == 1) {
        single.push_back({attrs, pli});
      } else if (2 * b >= pli->NumDistinct() ||
                 EstimateMultiPatchScanLocked(attrs, net) >=
                     rows_->size() / 2) {
        // The burst saturates the entry's clusters, or the partner scans
        // alone would cost as much as the re-intersection a drop defers.
        ++patch_rebuilds_;
        it = DropEntryLocked(it);
        continue;
      } else {
        multi.push_back({attrs, pli, true, rows_->size()});
      }
    }
    ++it;
  }

  std::vector<AttrSet> failed;
  // Phase A: detach the leaving rows from the kept multi-attribute
  // entries, partner sets scanned off the still pre-batch indexes.
  for (Work& w : multi) {
    if (!MultiAttrGroupPatchLocked(w.attrs, w.pli, net, /*erase=*/true,
                                   &w.scan_budget)) {
      w.alive = false;
      failed.push_back(w.attrs);
    }
  }
  // Splice the value indexes — every affected cluster rebuilt in one
  // sorted merge — capturing the per-value replacements only for the
  // attributes whose cached single-attribute partition will group-apply
  // them (an index consulted only by multi-attribute partner scans pays
  // no capture at all). The splice hands out borrowed views into the
  // spliced clusters and ApplyBatch copies each replacement straight into
  // the arena; the same views drive the probe's label patch — one pass
  // over exactly the rows the splice moved.
  std::unordered_set<AttrId> single_attrs;
  single_attrs.reserve(single.size());
  for (const Work& w : single) single_attrs.insert(w.attrs.ids().front());
  std::unordered_map<AttrId, std::vector<Pli::ClusterPatchView>>
      cluster_patch_views;
  std::unordered_map<AttrId, ptrdiff_t> defined_deltas;
  for (auto& [attr, deltas] : per_attr) {
    auto it = value_indexes_.find(attr);
    if (it == value_indexes_.end()) continue;  // nothing cached consults it
    if (single_attrs.count(attr) == 0) {
      ValueIndexApplyUpdateBatch(&it->second, deltas, /*capture=*/false);
      ++batch_applies_;
      continue;
    }
    std::vector<Pli::ClusterPatchView> views =
        ValueIndexApplyUpdateBatchViews(&it->second, deltas);
    ++batch_applies_;
    ProbePatchBatchLocked(attr, deltas, views);
    cluster_patch_views[attr] = std::move(views);
    ptrdiff_t dd = 0;
    for (const ValueIndexDelta& d : deltas) {
      dd += (d.new_value != nullptr ? 1 : 0) -
            (d.old_value != nullptr ? 1 : 0);
    }
    defined_deltas[attr] = dd;
  }
  for (Work& w : single) {
    AttrId a = w.attrs.ids().front();
    auto cp = cluster_patch_views.find(a);
    const bool applied =
        cp != cluster_patch_views.end() &&
        w.pli->ApplyBatch(std::move(cp->second), defined_deltas[a]);
    if (!applied) {
      failed.push_back(w.attrs);
    } else {
      ++batch_applies_;
      MaybeRetireBloatedProbeLocked(a, *w.pli);
    }
  }
  // Phase B: attach the joining rows. The scans run after the splice, so
  // they see every row's final cluster position — the stayers anchor the
  // cluster lookups.
  for (Work& w : multi) {
    if (!w.alive) continue;
    if (!MultiAttrGroupPatchLocked(w.attrs, w.pli, net, /*erase=*/false,
                                   &w.scan_budget)) {
      failed.push_back(w.attrs);
    } else {
      ++batch_applies_;
    }
  }
  // The ∅-partition: appends only (an update never moves a row out of it).
  if (empty_pli != nullptr && !inserted_rows.empty()) {
    bool ok = true;
    for (Pli::RowId row : inserted_rows) {
      if (!empty_pli->ApplyInsertAllRows(row)) {
        ok = false;
        break;
      }
    }
    if (ok) {
      ++batch_applies_;
    } else {
      failed.push_back(AttrSet());
    }
  }
  for (const AttrSet& attrs : failed) {
    auto it = entries_.find(attrs);
    if (it != entries_.end()) {
      ++patch_rebuilds_;
      DropEntryLocked(it);
    }
  }
}

void PliCache::EvictLocked() {
  using namespace std::chrono_literals;
  while (lru_.size() > options_.max_entries) {
    bool erased = false;
    // Oldest-first; entries still being built (future not ready) survive.
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      auto entry = entries_.find(*it);
      if (entry == entries_.end()) continue;  // defensive; should not happen
      if (entry->second.future.wait_for(0s) != std::future_status::ready) {
        continue;
      }
      entries_.erase(entry);
      lru_.erase(std::next(it).base());
      ++evictions_;
      ++unpublished_changes_;
      FLEXREL_TELEMETRY_COUNT("engine.pli_cache.evictions", 1);
      erased = true;
      break;
    }
    if (!erased) break;  // everything over budget is still building
  }
  if (options_.memory_budget_bytes == 0) return;
  // Byte-budget pass: keep shedding the least recently used completed
  // entries until the accounted footprint fits. Cost-aware in the LRU
  // sense — the entries least likely to be re-asked-for pay first — and
  // bounded: once only pinned bases (or in-flight builds) remain, Get's
  // miss path degrades to uncached serves instead.
  while (AccountedBytesLocked() > options_.memory_budget_bytes &&
         !lru_.empty()) {
    bool erased = false;
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      auto entry = entries_.find(*it);
      if (entry == entries_.end()) continue;
      if (entry->second.future.wait_for(0s) != std::future_status::ready) {
        continue;
      }
      const size_t bytes =
          entry->second.future.get()->MemoryBytes() + kPerEntryOverhead;
      bytes_plis_ -= std::min(bytes_plis_, bytes);
      entries_.erase(entry);
      lru_.erase(std::next(it).base());
      ++evictions_;
      ++budget_evictions_;
      ++unpublished_changes_;
      FLEXREL_TELEMETRY_COUNT("engine.pli_cache.evictions", 1);
      FLEXREL_TELEMETRY_COUNT("engine.cache.budget_evictions", 1);
      erased = true;
      break;
    }
    if (!erased) break;  // only unready entries left
  }
}

void PliCache::AccountMemoryLocked() {
  using namespace std::chrono_literals;
  size_t plis = 0;
  for (const auto& [attrs, entry] : entries_) {
    (void)attrs;
    // In-flight builds are charged on their completion sweep.
    if (entry.future.wait_for(0s) != std::future_status::ready) continue;
    plis += entry.future.get()->MemoryBytes() + kPerEntryOverhead;
  }
  size_t probes = 0;
  for (const auto& [attr, probe] : probes_) {
    (void)attr;
    probes += probe->labels.capacity() * sizeof(int32_t) + kPerEntryOverhead;
  }
  size_t indexes = 0;
  for (const auto& [attr, index] : value_indexes_) {
    (void)attr;
    indexes += kPerEntryOverhead;
    for (const auto& [value, rows] : index) {
      (void)value;
      indexes += sizeof(Value) + kPerValueEstimate +
                 rows.capacity() * sizeof(Pli::RowId);
    }
  }
  size_t columns = 0;
  for (const auto& [attr, column] : code_columns_) {
    (void)attr;
    columns += column->MemoryBytes() + kPerEntryOverhead;
  }
  bytes_plis_ = plis;
  bytes_probes_ = probes;
  bytes_indexes_ = indexes;
  bytes_columns_ = columns;
  FLEXREL_TELEMETRY_GAUGE_SET("engine.cache.bytes_plis", plis);
  FLEXREL_TELEMETRY_GAUGE_SET("engine.cache.bytes_probes", probes);
  FLEXREL_TELEMETRY_GAUGE_SET("engine.cache.bytes_indexes", indexes);
  FLEXREL_TELEMETRY_GAUGE_SET("engine.cache.bytes_columns", columns);
}

PliCache::StatsSnapshot PliCache::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  StatsSnapshot s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_;
  s.evictions = evictions_;
  s.cached_entries = entries_.size();
  s.patches = patches_;
  s.patch_rebuilds = patch_rebuilds_;
  s.batch_applies = batch_applies_;
  s.full_drops = full_drops_;
  s.probe_patches = probe_patches_;
  s.probe_rebuilds = probe_rebuilds_;
  s.flushes = flushes_;
  s.publishes = publishes_;
  s.epoch = epoch_;
  s.bytes_plis = bytes_plis_;
  s.bytes_probes = bytes_probes_;
  s.bytes_indexes = bytes_indexes_;
  s.bytes_columns = bytes_columns_;
  s.budget_evictions = budget_evictions_;
  s.uncached_serves = uncached_serves_;
  s.flush_aborts = flush_aborts_;
  return s;
}

}  // namespace flexrel
