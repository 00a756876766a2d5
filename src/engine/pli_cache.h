// An LRU-bounded cache of stripped partitions keyed by attribute set.
//
// Level-wise discovery asks for the partition of every candidate
// determinant; naively each request re-hashes the instance. The cache
// instead builds the partition of X = {a1 < ... < ak} as
//     Get({a1..a(k-1)}) ∩ Get({ak}),
// recursing down to single-attribute partitions, which are built from the
// rows once and pinned. Because candidates of one lattice level share
// (k-1)-prefixes, almost every multi-attribute request reduces to a single
// integer-valued Intersect over already cached operands.
//
// Mutations: the cache is no longer bound to an immutable instance. When
// the underlying row vector changes, the owner reports the change through
// OnInsert/OnUpdate (or the batch hook OnBatch). Each hook collects the
// call's deltas, then flushes and publishes them before it returns (see
// Concurrency below), with a three-way policy decided by the net burst
// size b (PliCacheOptions::{batch_threshold, drop_threshold}):
//
//   - b < batch_threshold: per-row patching, the PR 3 path — only the
//     clusters the mutated row leaves or joins are touched, O(cluster)
//     integer work per cached structure per row.
//   - batch_threshold <= b < max(drop_threshold, rows/2): batched apply —
//     deltas are grouped by attribute and value, each affected value-index
//     cluster is spliced in one sorted pass
//     (ValueIndexApplyInsertBatch/ValueIndexApplyUpdateBatch), the
//     captured per-value cluster replacements group-apply to the
//     single-attribute partitions (Pli::ApplyBatch), and affected
//     multi-attribute partitions are dropped for lazy re-intersection from
//     the batch-patched bases. A 64-mutation burst costs one splice
//     instead of 64 cluster surgeries.
//   - b >= max(drop_threshold, rows/2): everything (value indexes
//     included) is dropped for lazy from-scratch rebuilds — the burst is
//     so large that one deferred rebuild beats any patching.
//
// Deltas to one row within a hook call coalesce (first old state, final
// new state), so a batch touching a row 64 times flushes one move.
// The unstripped value indexes are the base of the scheme: they know which
// lone row to un-strip when a value gains its second carrier, which the
// stripped partitions alone cannot. They are *flush-private*: built lazily
// by the first flush whose cached partitions consult them, patched only
// under mu_, never published to readers and so never cloned. Readers see
// one value plane — the dictionary code columns (CodeColumnFor), which
// answer every value -> rows lookup (selections, row estimates, distinct
// counts). Probe tables (row -> cluster label, ProbeFor) used to be
// memo-dropped by any flush touching their attribute and rebuilt O(rows);
// they are now first-class incrementally maintained structures, label
// arrays patched in O(delta) alongside the cluster patches on both flush
// arms, so multi-attribute lazy re-intersections stop paying a probe
// rebuild per flush. A multi-attribute entry whose per-row
// patch (seed-cluster scan + verification) would cost more than
// re-intersecting its patched sub-partitions is dropped instead and
// rebuilt lazily on the next Get. PliCacheOptions::incremental = false
// disables the hooks' use by FlexibleRelation, restoring the historical
// drop-everything behavior as the cross-validation oracle;
// batch_threshold = SIZE_MAX pins the per-row path, the reference the
// batched one is benchmarked and soak-tested against.
//
// Concurrency: Get/CodeColumnFor/ProbeFor are safe to call from many worker
// threads, and reads are *lock-free under write traffic* (copy-on-write
// publication): an immutable Snapshot table (partitions + probes + code
// columns, shared_ptr'd) is published with one atomic swap per flush,
// readers resolve cached structures with a single acquire-load and never
// touch mu_ or flush, and a flush patches successor copies off to the side
// before swapping — the structures a reader holds are frozen at the epoch
// it loaded them. Readers never flush on purpose: the flush reads final
// states from rows(), so a reader flushing while a writer appends or
// updates would race on the row vector. Cache population (a miss building
// a fresh structure, or evicting one) republishes lazily, once the
// structures added or evicted since the last publish reach
// 1/kRefreshLagDivisor of the table; until then a freshly built entry is
// served by the locked lookup and an evicted one lingers in the snapshot,
// still correct for the current rows. mu_ is a writers-only flush/publish
// (and cache-population) lock. Each cache slot holds a shared_future; the
// first requester of a key builds the partition outside the lock and
// fulfils the promise, later requesters block on the future instead of
// duplicating the work. Eviction is LRU over completed multi-attribute
// entries only — single-attribute partitions are the base of every
// product and stay resident (lock-free hits skip the LRU touch, so
// eviction order degrades toward build order). Concurrent mutation still
// requires the *row vector* itself to be externally synchronized against
// readers that project tuples (and against cold-miss builds, which read
// it); the cache's own structures need no reader-side synchronization.
// See src/engine/README.md, "Concurrency".

#ifndef FLEXREL_ENGINE_PLI_CACHE_H_
#define FLEXREL_ENGINE_PLI_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "engine/dictionary.h"
#include "engine/pli.h"
#include "engine/pli_cache_options.h"

namespace flexrel {

struct ValueIndexDelta;

/// Thread-safe partition cache over one instance. The referenced rows must
/// outlive the cache; every mutation of the rows must be reported through
/// OnInsert/OnUpdate/OnBatch (or the cache discarded) before the next read.
class PliCache {
 public:
  using Options = PliCacheOptions;

  /// Build-driven snapshot refreshes are coalesced: cache population
  /// republishes only once the structures added or evicted since the last
  /// publish reach 1/kRefreshLagDivisor of the live table (flush publishes
  /// are never deferred). Each refresh copies the whole table, so this
  /// bounds refresh work to O(kRefreshLagDivisor) table slots per
  /// structure built, instead of one full copy per miss; the price is
  /// that an evicted structure stays alive until at most that many more
  /// changes have landed. A constant, not an option: the bound is what the
  /// snapshot's memory lag is stated in.
  static constexpr size_t kRefreshLagDivisor = 8;

  explicit PliCache(const std::vector<Tuple>* rows);
  PliCache(const std::vector<Tuple>* rows, Options options);

  PliCache(const PliCache&) = delete;
  PliCache& operator=(const PliCache&) = delete;

  /// The stripped partition by `attrs`, building (and caching) it when
  /// absent. Never returns null.
  std::shared_ptr<const Pli> Get(const AttrSet& attrs);

  /// The memoized probe (row -> cluster label, see PliProbe) of the
  /// single-attribute partition of `attr` — shared by every intersection
  /// whose right operand is that partition, i.e. every multi-attribute
  /// build whose key ends in `attr`. Probes are *incrementally maintained*:
  /// the flush patches the label array alongside the cluster patches
  /// (labels stay stable rather than canonical), so a flush no longer costs
  /// an O(rows) probe rebuild per touched attribute. A probe is dropped for
  /// a lazy rebuild only when its partition is (entry dropped), when a
  /// patch contradicts it, or when churn has bloated the label bound past
  /// twice the cluster count (probe_rebuilds in Stats()). Never returns
  /// null. Like Get results, a held probe is frozen at the epoch it was
  /// resolved from (the flush patches a successor copy).
  std::shared_ptr<const PliProbe> ProbeFor(AttrId attr);

  /// The *unstripped* value-keyed view of a single-attribute partition:
  /// value -> ascending row ids carrying exactly that value (rows lacking
  /// the attribute appear nowhere, explicit nulls cluster under the Null
  /// key, singletons are kept). The flush's private partner-scan and splice
  /// structure — no accessor hands one out; readers use CodeColumnFor.
  using ValueIndex =
      std::unordered_map<Value, std::vector<Pli::RowId>, ValueHash>;

  /// The dictionary code column of `attr` (engine/dictionary.h): values
  /// interned into dense uint32_t codes, held columnar, with per-code row
  /// buckets — the reader-facing value plane behind partition builds,
  /// selections, row estimates, and hybrid sampling. Built once per
  /// attribute, pinned, and patched by the same flush that patches the
  /// partitions, so a fetched column is always exactly as fresh as a Get()
  /// from the same quiescent point. Never returns null; safe from many
  /// threads; a held column is frozen at its epoch, like Get results.
  std::shared_ptr<const CodeColumn> CodeColumnFor(AttrId attr);

  /// Probe-only twin of CodeColumnFor: the column when it already exists,
  /// null otherwise — never builds.
  /// The single-attribute partition path goes through this so a cold cache
  /// pays a plain hash build instead of materializing a column it was
  /// never asked for; CodeColumnFor (evaluator selections, the hybrid
  /// sampler) is the explicit materialization point, after which partition
  /// (re)builds counting-sort.
  std::shared_ptr<const CodeColumn> ExistingCodeColumn(AttrId attr);

  // ------------------------------------------------------------------
  // Incremental maintenance hooks. FlexibleRelation calls these *after*
  // mutating its row vector. Each hook collects the call's deltas (inserts
  // record nothing but the row id, updates take ownership of the
  // displaced old tuple), flushes them into successor copies of the
  // affected structures, and publishes the new snapshot before returning,
  // so the next read sees the mutation. Structures handed out by earlier
  // Get/CodeColumnFor calls stay frozen at their epoch: re-Get after
  // mutating to see the new instance.
  // ------------------------------------------------------------------

  /// The row at index `row` == rows().size() - 1 was just appended.
  void OnInsert(Pli::RowId row);

  /// The row at index `row` changed from `old_row` to its current state in
  /// rows(). Attribute additions and removals are handled, so footnote-3
  /// type changes (an Update whose TypeDelta adds/drops variant
  /// attributes) arrive as one multi-attribute delta.
  void OnUpdate(Pli::RowId row, Tuple old_row);

  /// One already-applied transactional batch, flushed and published once
  /// under a single lock: rows first_inserted ..
  /// first_inserted + insert_count - 1 were appended, and every (row,
  /// pre-mutation state) in `old_rows` was updated in place. One hook per
  /// batch, so the flush sees the whole net delta — split insert and
  /// update flushes would diff the inserts against rows the updates had
  /// already moved.
  void OnBatch(Pli::RowId first_inserted, size_t insert_count,
               std::vector<std::pair<Pli::RowId, Tuple>> old_rows);

  const std::vector<Tuple>& rows() const { return *rows_; }
  const Options& options() const { return options_; }

  /// One coherent snapshot of every cache statistic, taken under a single
  /// lock — the ad-hoc per-counter accessors this replaces could tear
  /// across a concurrent flush. Tests assert on it; bench_pli prints it.
  struct StatsSnapshot {
    size_t hits = 0;
    size_t misses = 0;
    size_t evictions = 0;
    size_t cached_entries = 0;
    /// Structures patched row-by-row by a flush taking the per-row path.
    size_t patches = 0;
    /// Cached partitions dropped by a flush because re-intersecting patched
    /// sub-partitions is cheaper than patching them (rebuilt lazily).
    size_t patch_rebuilds = 0;
    /// Structures group-applied by a flush taking the batched path.
    size_t batch_applies = 0;
    /// Flushes that dropped every cached structure because the burst
    /// crossed max(drop_threshold, rows/2).
    size_t full_drops = 0;
    /// Memoized probe tables patched in place by a flush (either path).
    size_t probe_patches = 0;
    /// Memoized probe tables dropped for a lazy O(rows) rebuild (partition
    /// dropped, patch contradicted, or label bound bloated).
    size_t probe_rebuilds = 0;
    /// Flushes that took any arm (per_row + batched + dropped).
    size_t flushes = 0;
    /// Snapshot swaps driven by a flush. Identity: publishes == flushes
    /// (build-driven snapshot refreshes are counted separately, in
    /// telemetry only — engine.pli_cache.snapshot_refreshes, timed as
    /// engine.pli_cache.refresh_ns).
    size_t publishes = 0;
    /// Monotone snapshot version: bumps on every swap (flush publishes and
    /// build refreshes alike). 0 while nothing was ever published.
    uint64_t epoch = 0;
    /// Estimated byte footprints per structure kind, refreshed by the
    /// accounting sweep (bytes_indexes: the flush-private value indexes).
    /// All 0 while memory_budget_bytes == 0 (governance off — nothing is
    /// ever accounted).
    size_t bytes_plis = 0;
    size_t bytes_probes = 0;
    size_t bytes_indexes = 0;
    size_t bytes_columns = 0;
    /// Entries evicted because the byte budget (not max_entries) was
    /// exceeded. Identity: 0 while governance is off.
    size_t budget_evictions = 0;
    /// Multi-attribute Gets served by building without caching because the
    /// cache could not get under budget by evicting.
    size_t uncached_serves = 0;
    /// Flushes that failed mid-patch (allocation failure or injected
    /// fault) and recovered by dropping every cached structure instead of
    /// publishing a half-patched table.
    size_t flush_aborts = 0;
  };
  StatsSnapshot Stats() const;

  /// True when no reader currently pins either snapshot slot — the leak
  /// check the cancellation and chaos suites assert after unwinding
  /// mid-flight work (a pin is held only for a shared_ptr copy, so at
  /// quiescence this must hold).
  bool SnapshotPinsDrained() const {
    return snapshot_slots_[0].Drained() && snapshot_slots_[1].Drained();
  }

  /// Epoch of the currently published snapshot — 0 before the first
  /// publish, monotone afterwards. Lock-free (one slot pin), so readers
  /// (and the concurrency soaks) can bracket a multi-structure read: equal
  /// epochs before and after guarantee every structure came from that one
  /// snapshot (a thread's observed epochs never go backwards).
  uint64_t SnapshotEpoch() const;

 private:
  using PliPtr = std::shared_ptr<Pli>;
  struct Entry {
    std::shared_future<PliPtr> future;
    /// Position in lru_; only meaningful when evictable.
    std::list<AttrSet>::iterator lru_pos;
    bool evictable = false;
  };

  /// One reported mutation: an append (old_row empty, the row's state is
  /// read from rows() at flush time) or an update (old_row = the displaced
  /// pre-mutation tuple).
  struct Delta {
    Pli::RowId row;
    bool is_insert;
    Tuple old_row;
  };

  /// One coalesced mutation at flush time: the row's first recorded old
  /// state (or "inserted"), its final state being rows()[row], and the
  /// attributes whose value or presence the net move changes — diffed once
  /// here, consumed by every flush stage (a no-op update diffs to ∅ and is
  /// dropped before any patching).
  struct NetDelta {
    Pli::RowId row;
    bool is_insert;
    const Tuple* old_row;  // into the hook's deltas; null for inserts
    AttrSet changed_attrs;
  };

  /// One published epoch: an immutable table of every completed cached
  /// structure at publish time. Readers resolve against these maps under
  /// a slot pin (see WithSnapshot) without taking mu_; the shared_ptrs
  /// they copy out keep a superseded epoch's structures alive for exactly
  /// as long as some reader still holds them. Never mutated after
  /// publication.
  struct Snapshot {
    std::unordered_map<AttrSet, std::shared_ptr<const Pli>, AttrSetHash> plis;
    std::unordered_map<AttrId, std::shared_ptr<const PliProbe>> probes;
    std::unordered_map<AttrId, std::shared_ptr<const CodeColumn>> columns;
    uint64_t epoch = 0;
  };

  /// Builds the partition for `attrs` from cached sub-partitions.
  PliPtr BuildFor(const AttrSet& attrs);

  /// Rebuilds the snapshot table from the live maps and swaps it in with
  /// one store, then releases the superseded table once its reader pins
  /// drain (structures no reader holds are freed by this publish, evicted
  /// ones included). O(table) per call. `flush_publish` distinguishes the
  /// flush-driven swaps (every flush publishes; the publishes == flushes
  /// identity, timed as engine.pli_cache.flush.publish_ns) from the
  /// coalesced build-driven refreshes MaybeRefreshLocked performs. Either
  /// kind resets the unpublished-change count. Never touches the value
  /// indexes. Requires mu_.
  void PublishLocked(bool flush_publish);

  /// The one refresh rule of the three population paths (Get miss,
  /// ProbeFor, CodeColumnFor): counts `added` fresh structures, then
  /// republishes once the structures added or evicted since the last
  /// publish reach 1/kRefreshLagDivisor of the live table. A budgeted
  /// cache (memory_budget_bytes != 0) refreshes on every change instead,
  /// so evicted bytes are released at once. Requires mu_.
  void MaybeRefreshLocked(size_t added);

  /// Replaces every cached structure the imminent flush will patch with a
  /// same-content successor copy, so the patch mutates only objects no
  /// published snapshot (and no earlier reader) can reference. `changed`
  /// scopes the copies to affected attributes; inserts touch every entry
  /// (row-count bookkeeping), every probe (label arrays grow), and every
  /// code column. The value indexes are flush-private — no reader can
  /// hold one — so they are patched in place, never cloned.
  /// Requires mu_.
  void CloneForCowLocked(const AttrSet& changed, bool has_inserts);

  /// Drops completed evictable entries beyond max_entries, then — when a
  /// memory budget is configured — keeps evicting least recently used
  /// evictable entries until the accounted footprint fits the budget.
  /// Requires mu_.
  void EvictLocked();

  /// Full accounting sweep over the live maps: per-kind estimated byte
  /// footprints into bytes_* (and the engine.cache.bytes_* gauges). Only
  /// called when options_.memory_budget_bytes != 0 — governance off means
  /// zero accounting work. Requires mu_.
  void AccountMemoryLocked();

  /// bytes_plis_ + bytes_probes_ + bytes_indexes_ + bytes_columns_.
  size_t AccountedBytesLocked() const {
    return bytes_plis_ + bytes_probes_ + bytes_indexes_ + bytes_columns_;
  }

  /// Applies one hook call's deltas to successor copies of every affected
  /// cached structure, choosing per-row replay, batched apply, or
  /// drop-everything by the net burst size (see file comment), then
  /// publishes. Requires mu_; every mutation hook calls it.
  void FlushLocked(const std::vector<Delta>& deltas);

  /// Per-row replay of one net insert/update — the PR 3 patch bodies.
  /// Requires mu_ and EnsureFlushIndexesLocked having run for this flush.
  void ReplayInsertLocked(Pli::RowId row);
  void ReplayUpdateLocked(Pli::RowId row, const Tuple& old_row,
                          const AttrSet& changed);

  /// Group-applies net deltas >= batch_threshold: two-phase cluster
  /// patches for kept multi-attribute entries around one splice of the
  /// value indexes and the single-attribute partitions. Requires mu_.
  void BatchApplyLocked(const std::vector<NetDelta>& net,
                        const AttrSet& changed, size_t insert_count);

  /// One phase of the multi-attribute group patch: groups the net-delta
  /// rows leaving (`erase`, old states against pre-batch indexes) or
  /// joining (final states against post-batch indexes) the partition by
  /// cluster and applies one ClusterPatch per affected cluster via
  /// Pli::ApplyBatch. `scan_budget` caps the cumulative partner-scan work
  /// across both phases at one re-intersection's worth. Returns false —
  /// the caller drops the entry — when the budget runs out, a single seed
  /// is oversized, or the scans contradict the clusters. Requires mu_.
  bool MultiAttrGroupPatchLocked(const AttrSet& attrs, Pli* pli,
                                 const std::vector<NetDelta>& net, bool erase,
                                 size_t* scan_budget);

  /// Upfront cost of group-patching a multi-attribute entry: the summed
  /// seed-cluster sizes of both phases' partner scans, computed from
  /// cheap index lookups before any scanning happens. Requires mu_.
  size_t EstimateMultiPatchScanLocked(const AttrSet& attrs,
                                      const std::vector<NetDelta>& net);

  /// Builds the value index of every attribute some affected cached entry
  /// consults but no index exists for, then *rewinds* the net deltas so
  /// the fresh index describes the pre-batch instance — the state every
  /// flush path patches forward from. One O(rows) scan per missing
  /// attribute, amortized: from then on that index is patched, never
  /// rebuilt. Requires mu_.
  void EnsureFlushIndexesLocked(const std::vector<NetDelta>& net,
                                const AttrSet& changed);

  /// Drops every cached structure for lazy rebuilds. Requires mu_.
  void DropAllLocked();

  /// Patches every pinned code column through one net burst: inserts
  /// append to every column (code vectors cover every row), updates
  /// re-code only the columns of attributes the delta changed; each
  /// patched column then gets its staleness check (CodeColumn::
  /// MaybeReintern). Runs on both patch arms — the drop arm drops the
  /// columns with everything else. Requires mu_.
  void PatchCodeColumnsLocked(const std::vector<NetDelta>& net,
                              const AttrSet& changed, bool has_inserts);

  enum class PartnerScan {
    kOk,       ///< `out` holds the partners
    kTooBig,   ///< scanning the seed cluster would cost more than a rebuild
    kNoIndex,  ///< a needed value index is absent (defensive; see Ensure...)
  };

  /// Ascending rows agreeing with `proj` on `attrs`, excluding
  /// `exclude_row`: the k-way intersection of the attributes' value
  /// clusters, smallest list seeding, larger ones refined by streaming
  /// merge or per-survivor binary search (adaptive set intersection).
  /// Pure index work, so the scan is coherent with whatever intermediate
  /// state the indexes are in mid-flush. A non-null `scan_budget` is
  /// decremented by the seed size and the scan refuses (kTooBig) when it
  /// would overdraw. Requires mu_; `proj` must be defined on all of
  /// `attrs`.
  PartnerScan AgreeingRowsLocked(const AttrSet& attrs, const Tuple& proj,
                                 Pli::RowId exclude_row, Pli::Cluster* out,
                                 size_t* scan_budget);

  using EntryMap = std::unordered_map<AttrSet, Entry, AttrSetHash>;

  /// Drops entry `it` (and its LRU slot — and, for single-attribute keys,
  /// the memoized probe mirroring the dropped partition), returning the
  /// next iterator. Requires mu_.
  EntryMap::iterator DropEntryLocked(EntryMap::iterator it);

  // ------------------------------------------------------------------
  // Incremental probe maintenance. Invariant: a memoized probe for `attr`
  // exists only while the (pinned) single-attribute entry for `attr` does,
  // and describes exactly the state that partition's clusters do at every
  // point of a flush. Labels are stable: a fresh two-row cluster takes
  // label_bound++, a dissolved cluster's label is simply retired, so a
  // patch costs O(delta) instead of the O(rows) rebuild the memo-drop
  // scheme paid per flush. All require mu_.
  // ------------------------------------------------------------------

  /// Patches `attr`'s probe (if memoized) for `row` joining the cluster
  /// currently holding `partners` (ascending, excluding `row`, pre-insert
  /// state — the same list handed to Pli::ApplyInsert). Drops the probe on
  /// contradiction.
  void ProbePatchInsertLocked(AttrId attr, Pli::RowId row,
                              const Pli::Cluster& partners);

  /// The reverse: `row` leaves the cluster that `partners` (excluding it)
  /// remain in — the post-detach list handed to Pli::ApplyErase.
  void ProbePatchEraseLocked(AttrId attr, Pli::RowId row,
                             const Pli::Cluster& partners);

  /// Group-patches `attr`'s probe from one batched splice: `deltas` are the
  /// attribute's movers (cleared first), `patches` the captured per-value
  /// cluster replacements as borrowed views (labels pre-read from the
  /// pre-splice fronts, so call this *after* the value-index splice but
  /// before anything consumes the views).
  void ProbePatchBatchLocked(AttrId attr,
                             const std::vector<ValueIndexDelta>& deltas,
                             const std::vector<Pli::ClusterPatchView>& patches);

  /// Drops `attr`'s probe memo for a lazy rebuild, counting it in
  /// probe_rebuilds_ (no-op when none is memoized).
  void DropProbeLocked(AttrId attr);

  /// Caps label-space churn: once stable labels outnumber live clusters
  /// 2:1 (plus slack), intersection scratch arrays pay for dead labels and
  /// the probe is cheaper to rebuild densely. Requires the probe to exist.
  void MaybeRetireBloatedProbeLocked(AttrId attr, const Pli& pli);

  enum class PatchResult {
    kPatched,    ///< the partition was modified in place
    kUntouched,  ///< the mutation does not affect this partition
    kRebuild,    ///< contradicted or cheaper to rebuild: drop the entry
  };

  /// The flush paths' shared walk over the cached partitions: unready
  /// entries (a build racing the mutation — a documented data race, shed
  /// defensively) and entries whose `patch` returns kRebuild are dropped
  /// for lazy rebuilding and counted in patch_rebuilds_; kPatched counts
  /// in `*patched_counter` (patches_ or batch_applies_). Callbacks must
  /// not create entries. Requires mu_.
  void PatchEntriesLocked(
      const std::function<PatchResult(const AttrSet&, Pli*)>& patch,
      size_t* patched_counter);

  const std::vector<Tuple>* rows_;
  Options options_;

  /// Double-buffered snapshot publication (left-right pattern). We roll
  /// this by hand instead of using std::atomic<std::shared_ptr<...>>
  /// because libstdc++ 12's _Sp_atomic releases its embedded spin lock in
  /// load() with a relaxed RMW, so the reader's plain _M_ptr read carries
  /// no release edge to the next store()'s plain write — a formal data
  /// race TSan rightly reports. Here every edge is an explicit
  /// acquire/release atomic the model (and TSan) fully orders.
  ///
  /// Protocol: readers pin a slot (readers++ on the slot the current index
  /// names, then re-check the index — a flip in between means the pin may
  /// have landed on the slot the writer is rebuilding, so unpin and
  /// retry), copy the shared_ptr, unpin. The single writer (under mu_)
  /// overwrites only the spare slot, and only after its pin count drains
  /// to zero; the store of snapshot_cur_ then publishes the new snapshot.
  /// The writer then drains the superseded slot's pins the same way and
  /// resets its snap, so the previous epoch's table is released at this
  /// publish rather than held until the next one overwrites the slot.
  /// Readers pin for a shared_ptr copy only, so the writer's drain waits
  /// are bounded and tiny.
  ///
  /// The index and pin-count operations are seq_cst on purpose: with only
  /// acquire/release, the reader's re-check load may legally re-read the
  /// STALE index value (plain coherence never forces a load forward), and
  /// a double flip (A: 0→1, B: rebuilding slot 0 after a drain that missed
  /// the pin) would let the re-check pass against a slot mid-rebuild. The
  /// single seq_cst total order forbids exactly that: a drain that missed
  /// the pin orders the earlier flip before the re-check, so the re-check
  /// reads either that flip (mismatch → retry) or a later flip of the same
  /// slot (whose release edge makes the rebuilt snap visible). The same
  /// argument covers the post-flip release of the superseded slot: a pin
  /// its drain missed re-checks against the flip just stored, mismatches,
  /// and retries, so no reader ever dereferences the reset slot. On x86 the
  /// upgrade is free — seq_cst loads are plain movs, RMWs lock-prefixed
  /// either way.
  /// The pin count is striped across cachelines (readers pick a stripe by
  /// thread) so concurrent pins don't ping-pong one counter line; the
  /// writer drains every stripe. The seq_cst argument holds per stripe.
  struct SnapshotSlot {
    static constexpr size_t kPinStripes = 8;
    struct alignas(64) PinStripe {
      std::atomic<uint64_t> pins{0};
    };
    std::shared_ptr<const Snapshot> snap;
    PinStripe stripes[kPinStripes];

    std::atomic<uint64_t>& PinsForThisThread() {
      static std::atomic<size_t> next_stripe{0};
      thread_local const size_t stripe =
          next_stripe.fetch_add(1, std::memory_order_relaxed) % kPinStripes;
      return stripes[stripe].pins;
    }
    bool Drained() const {
      for (const PinStripe& s : stripes) {
        if (s.pins.load() != 0) return false;
      }
      return true;
    }
  };
  mutable SnapshotSlot snapshot_slots_[2];
  alignas(64) std::atomic<uint32_t> snapshot_cur_{0};

  /// The lock-free reader side of the protocol above: runs `fn` against
  /// the current snapshot (null until the first publish — readers fall
  /// through to the locked population path on a snapshot miss) while the
  /// slot is pinned, and returns fn's result. The raw pointer is valid
  /// for exactly the pinned extent; fn copies out the shared_ptr of the
  /// one structure it resolves, never the whole snapshot — taking
  /// ownership of the snapshot itself would put every reader's
  /// fetch_add/fetch_sub on one control-block cacheline, which is the
  /// contention this protocol exists to avoid. Never touches mu_.
  template <typename Fn>
  auto WithSnapshot(Fn&& fn) const {
    for (;;) {
      const uint32_t idx = snapshot_cur_.load();
      std::atomic<uint64_t>& pins =
          snapshot_slots_[idx].PinsForThisThread();
      pins.fetch_add(1);
      if (snapshot_cur_.load() == idx) {
        auto out = fn(snapshot_slots_[idx].snap.get());
        pins.fetch_sub(1);
        return out;
      }
      // Raced with a flip: the writer may already be rebuilding this
      // slot. Drop the pin and re-resolve the current index.
      pins.fetch_sub(1);
    }
  }

  /// The structure `key` resolves to in the current snapshot's `table`,
  /// or null (nothing published yet, or the key is not in the table — the
  /// caller falls through to the locked population path). Lock-free.
  template <typename Table, typename Key>
  typename Table::mapped_type FromSnapshot(Table Snapshot::*table,
                                           const Key& key) const {
    return WithSnapshot(
        [&](const Snapshot* snap) -> typename Table::mapped_type {
          if (snap == nullptr) return nullptr;
          auto it = (snap->*table).find(key);
          return it == (snap->*table).end() ? nullptr : it->second;
        });
  }

  /// Writers only: flush/publish and cache population.
  mutable std::mutex mu_;
  EntryMap entries_;
  std::unordered_map<AttrId, std::shared_ptr<PliProbe>>
      probes_;  // memoized probes, patched in place alongside the clusters
  std::unordered_map<AttrId, ValueIndex>
      value_indexes_;  // flush-private partner-scan/splice base; never shared
  std::unordered_map<AttrId, std::shared_ptr<CodeColumn>>
      code_columns_;  // pinned and patched; the columnar value plane
  std::list<AttrSet> lru_;  // front = most recently used, evictable keys only
  std::atomic<size_t> hits_{0};  // atomic: bumped on the lock-free hit path
  size_t misses_ = 0;
  size_t evictions_ = 0;
  size_t patches_ = 0;
  size_t patch_rebuilds_ = 0;
  size_t batch_applies_ = 0;
  size_t full_drops_ = 0;
  size_t probe_patches_ = 0;
  size_t probe_rebuilds_ = 0;
  size_t flushes_ = 0;
  size_t publishes_ = 0;
  uint64_t epoch_ = 0;
  // Structures added to or evicted from the live maps since the last
  // publish (the build-driven refresh trigger, see MaybeRefreshLocked).
  size_t unpublished_changes_ = 0;
  // Memory-governance state, all meaningful only while
  // options_.memory_budget_bytes != 0 (zero otherwise).
  size_t bytes_plis_ = 0;
  size_t bytes_probes_ = 0;
  size_t bytes_indexes_ = 0;
  size_t bytes_columns_ = 0;
  size_t budget_evictions_ = 0;
  size_t uncached_serves_ = 0;
  size_t flush_aborts_ = 0;
};

// Out of line so WithSnapshot's deduced return type is settled first.
inline uint64_t PliCache::SnapshotEpoch() const {
  return WithSnapshot([](const Snapshot* snap) {
    return snap == nullptr ? uint64_t{0} : snap->epoch;
  });
}

/// Patch primitives for the unstripped value index, mirroring
/// Pli::ApplyInsert/ApplyErase: `ValueIndexApplyInsert` registers an
/// appended or re-valued row under `value` (no-op when null-pointer —
/// i.e. the row does not carry the attribute), `ValueIndexApplyUpdate`
/// moves `row` from `old_value` to `new_value` (either may be null for
/// attribute removal/addition). Row lists stay ascending; emptied values
/// are erased so the index equals a from-scratch build.
void ValueIndexApplyInsert(PliCache::ValueIndex* index, Pli::RowId row,
                           const Value* value);
void ValueIndexApplyUpdate(PliCache::ValueIndex* index, Pli::RowId row,
                           const Value* old_value, const Value* new_value);

/// One row's movement in a batched value-index splice. Null old_value:
/// the row gains the attribute (or was inserted); null new_value: it loses
/// the attribute. The pointed-to values must outlive the call.
struct ValueIndexDelta {
  Pli::RowId row;
  const Value* old_value;
  const Value* new_value;
};

/// Batched counterparts, mirroring Pli::ApplyBatch: deltas are grouped by
/// value and sorted once, then every affected value's row list is spliced
/// in a single merge pass (instead of one binary-search surgery per row).
/// With `capture` (the default) returns one Pli::ClusterPatch per affected
/// value — the pre-splice cluster anchor and its post-splice rows — which
/// Pli::ApplyBatch consumes to group-apply the same burst to the stripped
/// partition; capture = false skips those cluster copies (and returns
/// nothing) for callers with no partition to patch. The insert-only form
/// mirrors the single-row ValueIndexApplyInsert (null old side); the
/// cache's flush encodes inserts as update deltas directly, so it is a
/// convenience for append-shaped callers and the unit tests.
std::vector<Pli::ClusterPatch> ValueIndexApplyUpdateBatch(
    PliCache::ValueIndex* index, const std::vector<ValueIndexDelta>& deltas,
    bool capture = true);

/// Zero-copy capture: the same splice, but the returned patches *borrow*
/// their replacement rows as spans into the just-spliced index clusters
/// (Pli::ClusterPatchView) instead of copying them. Valid until the index
/// is next modified; the flush consumes them immediately, landing
/// each replacement in the partition with exactly one copy
/// (index -> arena) instead of two (index -> patch -> storage).
std::vector<Pli::ClusterPatchView> ValueIndexApplyUpdateBatchViews(
    PliCache::ValueIndex* index, const std::vector<ValueIndexDelta>& deltas);
std::vector<Pli::ClusterPatch> ValueIndexApplyInsertBatch(
    PliCache::ValueIndex* index,
    const std::vector<std::pair<Pli::RowId, const Value*>>& inserts,
    bool capture = true);

}  // namespace flexrel

#endif  // FLEXREL_ENGINE_PLI_CACHE_H_
