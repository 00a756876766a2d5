// HyFD-style hybrid dependency discovery: sample tuple pairs from within
// PLI clusters to falsify candidates cheaply, validate only the frontier
// the evidence could not kill.
//
// Level-wise discovery (parallel_discovery.cc) pays one exact partition
// scan per lattice candidate — |U| choose k scans per level — even when
// almost every candidate's maximal RHS is empty. But a single sampled
// tuple pair refutes attributes for *every* candidate it agrees on at
// once: if t1 and t2 agree on X (both defined, equal values), they share a
// cluster of partition(X), so
//
//   - any attribute outside their agree set cannot be in the maximal FD
//     RHS of X (the pair disagrees on value or presence), and
//   - any attribute exactly one of them carries cannot be in the maximal
//     AD RHS of X (the pair breaks the existence pattern).
//
// The loop alternates two phases. *Sampling* enumerates in-cluster pairs
// of the single-attribute partitions at progressively widening distances
// and dedupes the resulting (agree set, presence diff) evidence.
// *Validation* walks the lattice level by level: candidates whose
// evidence-derived RHS upper bound is already trivial are skipped outright
// — the bound is sound, so their exact RHS is provably empty — and the
// survivors go through the same exact `DependencyValidator` scans the
// level-wise walk uses, in the same enumeration order, with the same
// sequential minimality pruning. Results are therefore bit-identical to
// level-wise (and to core/discovery.cc's brute force); only the number of
// exact scans changes. The adaptive switch: while a level's surviving
// fraction stays high and sampling still produces fresh evidence at a
// good rate, another sampling round is cheaper than validating the
// un-falsified bulk, so the loop switches back before validating.
//
// Sampling rounds read partitions through the shared PliCache (lock-free
// COW snapshot reads) and fan out across the same worker pool as
// validation; evidence merging stays on the calling thread, so the store
// needs no synchronization and round results are deterministic.
//
// The building blocks (evidence store, candidate frontier, pair
// comparison) are exposed here for the unit tests in
// tests/engine_hybrid_discovery_test.cc; engine consumers go through
// EngineDiscover* with EngineDiscoveryOptions::strategy = kHybrid.

#ifndef FLEXREL_ENGINE_HYBRID_DISCOVERY_H_
#define FLEXREL_ENGINE_HYBRID_DISCOVERY_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/dependency_set.h"
#include "engine/dictionary.h"
#include "engine/parallel_discovery.h"
#include "engine/validator.h"

namespace flexrel {

/// What one sampled tuple pair proves. `agree` is the set of attributes
/// both tuples carry with equal values (null equals null); `presence_diff`
/// the attributes exactly one of them carries. For every determinant
/// X ⊆ agree the pair witnesses: maximal-FD-RHS(X) ⊆ agree and
/// maximal-AD-RHS(X) ∩ presence_diff = ∅.
struct PairEvidence {
  AttrSet agree;
  AttrSet presence_diff;

  bool operator==(const PairEvidence& other) const {
    return agree == other.agree && presence_diff == other.presence_diff;
  }
};

/// The evidence of one pair, straight from the definition: a single merge
/// over the two sorted field vectors. The reference the sampler's coded
/// compare is tested against.
PairEvidence ComparePair(const Tuple& a, const Tuple& b);

/// What the sampler compares pairs with: two array loads and an integer
/// compare per attribute instead of a sorted-field merge over Values.
/// `matrix` is a row-major rows × attrs.size() code matrix (attrs
/// ascending, one cell per (row, universe attribute),
/// CodeColumn::kMissingCode for absence) — row-major so one pair compare
/// touches two short contiguous slices
/// rather than one cache line per column. The evidence is *restricted to
/// the universe* — attributes outside it never appear in agree or
/// presence_diff — which is exactly what CandidateFrontier consumes
/// (bounds live inside the universe and Apply intersects the agree set
/// with it), so frontier tightening is identical to ComparePair's.
PairEvidence ComparePairCoded(const CodeColumn::Code* matrix,
                              const std::vector<AttrId>& attrs,
                              CodeColumn::RowId a, CodeColumn::RowId b);

/// Deduplicating store of sampled pair evidence. Distinct pairs usually
/// produce few distinct evidence values (instances have few presence
/// shapes and agreement patterns), so the store — not the pair count — is
/// what bound computation scales with, and its saturation rate is the
/// sampler's stop signal. Entries are immutable once added and held in
/// insertion order, so consumers can apply just the suffix added since
/// they last looked.
class EvidenceStore {
 public:
  /// Records `e`; returns true when the store didn't already hold it (the
  /// "fresh evidence" signal sampling efficiency is measured by).
  bool Add(const PairEvidence& e);

  const std::vector<PairEvidence>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }

 private:
  struct KeyHash {
    size_t operator()(const PairEvidence& e) const;
  };
  std::vector<PairEvidence> entries_;
  std::unordered_map<PairEvidence, bool, KeyHash> seen_;
};

/// Per-candidate maximal-RHS upper bounds for one lattice level, tightened
/// incrementally from the evidence store. Holding one level at a time —
/// never the full lattice — keeps hybrid discovery's working set
/// proportional to the widest level actually walked (the LHS-size bound),
/// matching the flat-memory shape of Desbordante's LHS-bounded storage
/// builders.
///
/// Bounds and LHSs are dense bitsets over universe *positions* (the i-th
/// smallest universe attribute is bit i; multi-word past 64 attributes),
/// with attribute ids — which may be sparse — mapped through a position
/// table. Each evidence entry is converted to a mask once per Apply, so
/// tightening a candidate is a few word-ANDs rather than an AttrSet
/// merge and allocation; AttrSets are materialized only by BoundMinusLhs.
class CandidateFrontier {
 public:
  enum class Semantics { kFd, kAd };

  /// `candidates` is one LatticeLevel(universe, k) in canonical order (every
  /// candidate a size-k subset of `universe`); all bounds start at
  /// `universe` (no evidence applied yet).
  CandidateFrontier(std::vector<AttrSet> candidates, AttrSet universe,
                    Semantics semantics);

  /// Applies every store entry added since the last Tighten. Per entry,
  /// either the candidates ⊆ agree-set are enumerated directly (sparse
  /// agree sets) or all candidates are subset-tested against it (dense
  /// ones), whichever touches fewer candidates. Evidence attributes
  /// outside the universe are ignored: no candidate or bound contains
  /// them.
  void Tighten(const EvidenceStore& store);

  const std::vector<AttrSet>& candidates() const { return candidates_; }

  /// The evidence-derived upper bound on candidate i's non-trivial maximal
  /// RHS. Sound: the exact validator result is always a subset.
  AttrSet BoundMinusLhs(size_t i) const;

  /// False iff the bound is already trivial — the exact scan is provably
  /// empty and the candidate can be skipped.
  bool Survives(size_t i) const;

  size_t survivor_count() const;

 private:
  using Word = uint64_t;
  struct WordsHash {
    size_t operator()(const std::vector<Word>& words) const;
  };

  void Apply(const PairEvidence& e);
  /// `a`'s universe position, or all-ones when `a` is outside the universe.
  uint32_t PositionOf(AttrId a) const;
  /// Candidate i's words in bounds_ / lhs_masks_.
  Word* BoundOf(size_t i) { return bounds_.data() + i * words_; }
  const Word* BoundOf(size_t i) const { return bounds_.data() + i * words_; }
  const Word* LhsOf(size_t i) const { return lhs_masks_.data() + i * words_; }

  std::vector<AttrSet> candidates_;
  Semantics semantics_;
  size_t level_ = 0;
  size_t words_ = 0;  // words per mask: ceil(|universe| / 64)
  std::vector<AttrId> attr_at_;         // position -> attribute id
  std::vector<uint32_t> position_of_;   // attribute id -> position
  std::vector<Word> bounds_;            // candidates × words_
  std::vector<Word> lhs_masks_;         // candidates × words_
  // Allocation-free enumeration arms: position -> candidate at k = 1, and a
  // dense |U| × |U| position-pair table at k = 2. Deeper levels look their
  // LHS mask up in `mask_index_`.
  std::vector<uint32_t> single_index_;
  std::vector<uint32_t> pair_index_;
  std::unordered_map<std::vector<Word>, uint32_t, WordsHash> mask_index_;
  // Per-Apply scratch: the evidence's universe positions (ascending), the
  // mask every affected bound is ANDed with, the agree mask the scan arm
  // subset-tests against, and the mask an enumerated LHS is looked up by.
  std::vector<uint32_t> agree_positions_;
  std::vector<Word> keep_mask_;
  std::vector<Word> agree_mask_;
  std::vector<Word> subset_scratch_;
  size_t applied_ = 0;  // store entries consumed so far
};

/// Enumerates tuple pairs from within the clusters of every
/// single-attribute partition at progressively widening distances: round r
/// of attribute a compares rows d_a apart in each cluster of partition
/// {a}, then widens d_a. Partitions come from the shared PliCache (COW
/// snapshot reads), pair comparison fans out across worker threads, and
/// evidence merges on the calling thread in attribute order, so rounds
/// are deterministic for a fixed instance.
class ClusterPairSampler {
 public:
  ClusterPairSampler(PliCache* cache, const AttrSet& universe);

  struct RoundStats {
    uint64_t pairs = 0;  ///< comparisons performed this round
    uint64_t fresh = 0;  ///< comparisons that taught the store something
    /// fresh / pairs — the telemetry-instrumented hit rate the adaptive
    /// loop steers by (0 when the round had no pairs left to compare).
    double efficiency = 0.0;
  };

  /// Runs one widening round into `store` using up to `num_threads`
  /// workers (0 = hardware concurrency). Rounds are budgeted: each
  /// attribute contributes at most a per-round pair quota (proportional to
  /// the instance size, never below a floor that keeps small instances
  /// exhaustive), with the cluster walk rotating round over round so
  /// truncated attributes spread their budget across clusters. A round
  /// therefore costs O(rows) comparisons however wide the universe is; the
  /// price is that on instances large relative to the budget some
  /// in-cluster pairs are never compared, which only loosens bounds
  /// (fewer skips), never correctness.
  RoundStats Round(EvidenceStore* store, size_t num_threads);

  /// True once every attribute's distance exceeds its largest cluster —
  /// every further round is empty.
  bool exhausted() const;

  size_t rounds_run() const { return rounds_run_; }

 private:
  PliCache* cache_;
  const std::vector<Tuple>& rows_;
  std::vector<std::shared_ptr<const Pli>> plis_;  // one per universe attr
  // Row-major rows × universe code matrix, projected once from the cache's
  // code columns.
  std::vector<CodeColumn::Code> code_matrix_;
  std::vector<AttrId> code_attrs_;  // matrix column order (ascending)
  std::vector<size_t> distance_;  // next window per attr
  size_t rounds_run_ = 0;
};

/// The hybrid counterparts of EngineDiscoverAttrDeps / EngineDiscoverFuncDeps
/// over a caller-provided validator. Same results, same order; exact scans
/// only on the evidence-surviving frontier. EngineDiscover* dispatches here
/// when options.strategy == DiscoveryStrategy::kHybrid.
std::vector<AttrDep> HybridDiscoverAttrDeps(
    DependencyValidator* validator, const AttrSet& universe,
    const EngineDiscoveryOptions& options, DiscoveryRunInfo* info = nullptr);

std::vector<FuncDep> HybridDiscoverFuncDeps(
    DependencyValidator* validator, const AttrSet& universe,
    const EngineDiscoveryOptions& options, DiscoveryRunInfo* info = nullptr);

}  // namespace flexrel

#endif  // FLEXREL_ENGINE_HYBRID_DISCOVERY_H_
