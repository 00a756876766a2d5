#include "engine/hybrid_discovery.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <functional>
#include <string>
#include <utility>

#include "core/closure.h"
#include "engine/discovery_internal.h"
#include "telemetry/telemetry.h"
#include "util/fault.h"

namespace flexrel {

namespace {

using discovery_internal::kMinWorkForAutoThreads;
using discovery_internal::ParallelFor;
using discovery_internal::ResolveThreads;

// min(C(m, k), cap) without overflow — only the comparison against `cap`
// matters, never the exact count.
size_t ChooseCapped(size_t m, size_t k, size_t cap) {
  if (k > m) return 0;
  size_t result = 1;
  for (size_t i = 1; i <= k; ++i) {
    if (result > cap) return cap;
    result = result * (m - k + i) / i;
  }
  return result < cap ? result : cap;
}

// Invokes fn(subset) for every size-k subset of `items` (ascending), as
// an ascending vector, in canonical combination order.
template <typename T, typename Fn>
void ForEachSubset(const std::vector<T>& items, size_t k, const Fn& fn) {
  if (k == 0 || k > items.size()) return;
  std::vector<size_t> idx(k);
  for (size_t i = 0; i < k; ++i) idx[i] = i;
  std::vector<T> current;
  while (true) {
    current.clear();
    for (size_t i : idx) current.push_back(items[i]);
    fn(current);
    size_t i = k;
    while (i > 0) {
      --i;
      if (idx[i] != i + items.size() - k) break;
    }
    if (idx[i] == i + items.size() - k) break;
    ++idx[i];
    for (size_t j = i + 1; j < k; ++j) idx[j] = idx[j - 1] + 1;
  }
}

}  // namespace

PairEvidence ComparePair(const Tuple& a, const Tuple& b) {
  // The merge emits ids in ascending order, so FromIds is a straight move
  // — no per-id sorted insertion.
  std::vector<AttrId> agree;
  std::vector<AttrId> diff;
  const auto& fa = a.fields();
  const auto& fb = b.fields();
  size_t i = 0;
  size_t j = 0;
  while (i < fa.size() && j < fb.size()) {
    if (fa[i].first < fb[j].first) {
      diff.push_back(fa[i].first);
      ++i;
    } else if (fb[j].first < fa[i].first) {
      diff.push_back(fb[j].first);
      ++j;
    } else {
      if (fa[i].second == fb[j].second) agree.push_back(fa[i].first);
      ++i;
      ++j;
    }
  }
  for (; i < fa.size(); ++i) diff.push_back(fa[i].first);
  for (; j < fb.size(); ++j) diff.push_back(fb[j].first);
  PairEvidence out;
  out.agree = AttrSet::FromIds(std::move(agree));
  out.presence_diff = AttrSet::FromIds(std::move(diff));
  return out;
}

PairEvidence ComparePairCoded(const CodeColumn::Code* matrix,
                              const std::vector<AttrId>& attrs,
                              CodeColumn::RowId a, CodeColumn::RowId b) {
  // `attrs` is ascending (the sampler projects the matrix over AttrSet
  // iteration), so the id vectors build sorted. The two row slices are
  // contiguous: one pair costs a linear walk over 2 × attrs.size() words.
  const size_t width = attrs.size();
  const CodeColumn::Code* ra = matrix + a * width;
  const CodeColumn::Code* rb = matrix + b * width;
  std::vector<AttrId> agree;
  std::vector<AttrId> diff;
  for (size_t k = 0; k < width; ++k) {
    const CodeColumn::Code ca = ra[k];
    const CodeColumn::Code cb = rb[k];
    const bool has_a = ca != CodeColumn::kMissingCode;
    const bool has_b = cb != CodeColumn::kMissingCode;
    if (has_a != has_b) {
      diff.push_back(attrs[k]);
    } else if (has_a && ca == cb) {
      // Code equality ⇔ Value equality within one column; the reserved
      // null code makes null-equals-null fall out for free.
      agree.push_back(attrs[k]);
    }
  }
  PairEvidence out;
  out.agree = AttrSet::FromIds(std::move(agree));
  out.presence_diff = AttrSet::FromIds(std::move(diff));
  return out;
}

size_t EvidenceStore::KeyHash::operator()(const PairEvidence& e) const {
  size_t h = AttrSetHash{}(e.agree);
  // splitmix-style combine so (agree, presence_diff) don't cancel.
  h ^= AttrSetHash{}(e.presence_diff) + 0x9e3779b97f4a7c15ull + (h << 6) +
       (h >> 2);
  return h;
}

bool EvidenceStore::Add(const PairEvidence& e) {
  auto [it, inserted] = seen_.try_emplace(e, true);
  (void)it;
  if (inserted) entries_.push_back(e);
  return inserted;
}

namespace {

constexpr uint32_t kNone = static_cast<uint32_t>(-1);
constexpr size_t kWordBits = 64;

void SetBit(uint64_t* mask, uint32_t position) {
  mask[position / kWordBits] |= uint64_t{1} << (position % kWordBits);
}

}  // namespace

size_t CandidateFrontier::WordsHash::operator()(
    const std::vector<Word>& words) const {
  size_t h = 0;
  for (Word w : words) {
    h ^= std::hash<Word>{}(w) + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
  return h;
}

uint32_t CandidateFrontier::PositionOf(AttrId a) const {
  return a < position_of_.size() ? position_of_[a] : kNone;
}

CandidateFrontier::CandidateFrontier(std::vector<AttrSet> candidates,
                                     AttrSet universe, Semantics semantics)
    : candidates_(std::move(candidates)), semantics_(semantics) {
  attr_at_ = universe.ids();
  const size_t n = attr_at_.size();
  words_ = (n + kWordBits - 1) / kWordBits;
  position_of_.assign(n == 0 ? 0 : static_cast<size_t>(attr_at_.back()) + 1,
                      kNone);
  for (size_t p = 0; p < n; ++p) {
    position_of_[attr_at_[p]] = static_cast<uint32_t>(p);
  }
  std::vector<Word> full(words_, 0);
  for (size_t p = 0; p < n; ++p) SetBit(full.data(), static_cast<uint32_t>(p));
  level_ = candidates_.empty() ? 0 : candidates_.front().size();
  const size_t m = candidates_.size();
  bounds_.resize(m * words_);
  lhs_masks_.assign(m * words_, 0);
  for (size_t i = 0; i < m; ++i) {
    std::copy(full.begin(), full.end(), BoundOf(i));
    Word* lhs = lhs_masks_.data() + i * words_;
    for (AttrId a : candidates_[i]) SetBit(lhs, position_of_[a]);
  }
  if (level_ == 1) {
    single_index_.assign(n, kNone);
    for (size_t i = 0; i < m; ++i) {
      single_index_[position_of_[candidates_[i].ids()[0]]] =
          static_cast<uint32_t>(i);
    }
  } else if (level_ == 2) {
    pair_index_.assign(n * n, kNone);
    for (size_t i = 0; i < m; ++i) {
      const std::vector<AttrId>& ids = candidates_[i].ids();
      pair_index_[position_of_[ids[0]] * n + position_of_[ids[1]]] =
          static_cast<uint32_t>(i);
    }
  } else if (level_ > 2) {
    mask_index_.reserve(m);
    for (size_t i = 0; i < m; ++i) {
      const Word* lhs = LhsOf(i);
      mask_index_.emplace(std::vector<Word>(lhs, lhs + words_),
                          static_cast<uint32_t>(i));
    }
  }
  keep_mask_.resize(words_);
  agree_mask_.resize(words_);
  subset_scratch_.resize(words_);
}

void CandidateFrontier::Apply(const PairEvidence& e) {
  if (candidates_.empty()) return;
  // Candidates live in the universe, so only the agree set's restriction
  // to it can contain determinants this evidence speaks about.
  agree_positions_.clear();
  std::fill(agree_mask_.begin(), agree_mask_.end(), 0);
  for (AttrId a : e.agree) {
    const uint32_t p = PositionOf(a);
    if (p == kNone) continue;
    agree_positions_.push_back(p);
    SetBit(agree_mask_.data(), p);
  }
  if (agree_positions_.size() < level_) return;
  // The one mask every affected bound is ANDed with: the agree set for
  // FDs, the complement of the presence diff for ADs. Bounds never hold
  // bits past the universe, so neither mask needs trimming.
  if (semantics_ == Semantics::kFd) {
    keep_mask_ = agree_mask_;
  } else {
    std::fill(keep_mask_.begin(), keep_mask_.end(), ~Word{0});
    for (AttrId a : e.presence_diff) {
      const uint32_t p = PositionOf(a);
      if (p == kNone) continue;
      keep_mask_[p / kWordBits] &= ~(Word{1} << (p % kWordBits));
    }
  }
  auto tighten = [&](size_t i) {
    Word* bound = BoundOf(i);
    for (size_t w = 0; w < words_; ++w) bound[w] &= keep_mask_[w];
  };
  auto scan = [&] {
    for (size_t i = 0; i < candidates_.size(); ++i) {
      const Word* lhs = LhsOf(i);
      bool subset = true;
      for (size_t w = 0; w < words_ && subset; ++w) {
        subset = (lhs[w] & ~agree_mask_[w]) == 0;
      }
      if (subset) tighten(i);
    }
  };
  const std::vector<uint32_t>& pos = agree_positions_;
  // Either enumerate the affected candidates out of the agree set or
  // subset-test every candidate against it — whichever touches fewer.
  if (level_ == 1) {
    for (uint32_t p : pos) {
      if (single_index_[p] != kNone) tighten(single_index_[p]);
    }
    return;
  }
  if (level_ == 2) {
    if (pos.size() * (pos.size() - 1) / 2 >= 2 * candidates_.size()) {
      scan();
      return;
    }
    const size_t n = attr_at_.size();
    for (size_t i = 0; i < pos.size(); ++i) {
      const uint32_t* row = pair_index_.data() + pos[i] * n;
      for (size_t j = i + 1; j < pos.size(); ++j) {
        if (row[pos[j]] != kNone) tighten(row[pos[j]]);
      }
    }
    return;
  }
  if (ChooseCapped(pos.size(), level_, candidates_.size()) >=
      candidates_.size()) {
    scan();
    return;
  }
  ForEachSubset(pos, level_, [&](const std::vector<uint32_t>& subset) {
    std::fill(subset_scratch_.begin(), subset_scratch_.end(), 0);
    for (uint32_t p : subset) SetBit(subset_scratch_.data(), p);
    auto it = mask_index_.find(subset_scratch_);
    if (it != mask_index_.end()) tighten(it->second);
  });
}

void CandidateFrontier::Tighten(const EvidenceStore& store) {
  const std::vector<PairEvidence>& entries = store.entries();
  for (; applied_ < entries.size(); ++applied_) Apply(entries[applied_]);
}

AttrSet CandidateFrontier::BoundMinusLhs(size_t i) const {
  const Word* bound = BoundOf(i);
  const Word* lhs = LhsOf(i);
  std::vector<AttrId> ids;
  for (size_t w = 0; w < words_; ++w) {
    for (Word bits = bound[w] & ~lhs[w]; bits != 0; bits &= bits - 1) {
      ids.push_back(attr_at_[w * kWordBits + std::countr_zero(bits)]);
    }
  }
  return AttrSet::FromIds(std::move(ids));  // positions ascend with ids
}

bool CandidateFrontier::Survives(size_t i) const {
  const Word* bound = BoundOf(i);
  const Word* lhs = LhsOf(i);
  for (size_t w = 0; w < words_; ++w) {
    if ((bound[w] & ~lhs[w]) != 0) return true;
  }
  return false;
}

size_t CandidateFrontier::survivor_count() const {
  size_t n = 0;
  for (size_t i = 0; i < candidates_.size(); ++i) {
    if (Survives(i)) ++n;
  }
  return n;
}

ClusterPairSampler::ClusterPairSampler(PliCache* cache,
                                       const AttrSet& universe)
    : cache_(cache), rows_(cache->rows()) {
  plis_.reserve(universe.size());
  distance_.assign(universe.size(), 1);
  // Code columns for the coded pair compare, fetched BEFORE the partition
  // warm-up below: a materialized column turns each single-attribute Get
  // into a counting sort over its codes, so the instance is hashed once per
  // attribute, not twice. The columns are projected into one row-major
  // matrix so each sampled pair reads two contiguous slices instead of one
  // scattered cache line per attribute — the access pattern is
  // pair-at-a-time, not columnar.
  code_attrs_ = universe.ids();
  const size_t width = code_attrs_.size();
  code_matrix_.resize(rows_.size() * width);
  for (size_t k = 0; k < width; ++k) {
    std::shared_ptr<const CodeColumn> column =
        cache_->CodeColumnFor(code_attrs_[k]);
    const std::vector<CodeColumn::Code>& codes = column->codes();
    for (size_t r = 0; r < rows_.size(); ++r) {
      code_matrix_[r * width + k] = codes[r];
    }
  }
  // Single-attribute partitions are exactly what level 1 of any walk needs
  // first; warming them here (after the columns, so each is a counting
  // sort, not a re-hash) costs nothing extra and pins them for the
  // widening rounds (COW snapshot reads thereafter).
  for (AttrId a : universe) plis_.push_back(cache_->Get(AttrSet::Of(a)));
}

bool ClusterPairSampler::exhausted() const {
  for (size_t i = 0; i < plis_.size(); ++i) {
    for (Pli::ClusterView cluster : plis_[i]->clusters()) {
      if (cluster.size() > distance_[i]) return false;
    }
  }
  return true;
}

ClusterPairSampler::RoundStats ClusterPairSampler::Round(EvidenceStore* store,
                                                         size_t num_threads) {
  telemetry::ScopedSpan span("discovery.sample");
  ++rounds_run_;
  struct AttrResult {
    std::vector<PairEvidence> evidence;
    uint64_t pairs = 0;
  };
  std::vector<AttrResult> results(plis_.size());
  size_t threads = ResolveThreads(num_threads, plis_.size());
  // Per-attribute pair budget: a round costs O(rows) comparisons total no
  // matter how wide the universe, and the floor keeps small instances
  // exhaustive (the widening soak's full-coverage contract).
  constexpr size_t kMinAttrPairQuota = 64;
  const size_t quota =
      std::max(kMinAttrPairQuota,
               2 * rows_.size() / std::max<size_t>(1, plis_.size()));
  ParallelFor(plis_.size(), threads, [&](size_t i) {
    AttrResult& r = results[i];
    const size_t d = distance_[i];
    Pli::ClusterRange clusters = plis_[i]->clusters();
    const size_t num_clusters = clusters.size();
    // Rotate the walk round over round so a truncated attribute spreads
    // its budget across clusters instead of resampling a prefix.
    const size_t start = num_clusters == 0 ? 0 : rounds_run_ % num_clusters;
    for (size_t c = 0; c < num_clusters && r.pairs < quota; ++c) {
      Pli::ClusterView cluster = clusters[(start + c) % num_clusters];
      if (cluster.size() <= d) continue;
      for (size_t j = 0; j + d < cluster.size() && r.pairs < quota; ++j) {
        r.evidence.push_back(ComparePairCoded(
            code_matrix_.data(), code_attrs_, cluster[j], cluster[j + d]));
        ++r.pairs;
      }
    }
  });
  RoundStats stats;
  // Merge on the calling thread, in attribute order: the store needs no
  // lock and a round's outcome is deterministic for a fixed instance.
  for (AttrResult& r : results) {
    stats.pairs += r.pairs;
    for (const PairEvidence& e : r.evidence) {
      if (store->Add(e)) ++stats.fresh;
    }
  }
  for (size_t& d : distance_) ++d;
  stats.efficiency =
      stats.pairs == 0
          ? 0.0
          : static_cast<double>(stats.fresh) / static_cast<double>(stats.pairs);
  FLEXREL_TELEMETRY_COUNT("engine.discovery.sample_rounds", 1);
  FLEXREL_TELEMETRY_COUNT("engine.discovery.sampled_pairs", stats.pairs);
  FLEXREL_TELEMETRY_COUNT("engine.discovery.sample_evidence", stats.fresh);
  if (telemetry::Enabled()) {
    FLEXREL_TELEMETRY_GAUGE_SET("engine.discovery.sample_hit_rate_pct",
                                static_cast<int64_t>(stats.efficiency * 100));
    span.SetDetail("round=" + std::to_string(rounds_run_) +
                   " pairs=" + std::to_string(stats.pairs) +
                   " fresh=" + std::to_string(stats.fresh) + " store=" +
                   std::to_string(store->size()));
  }
  return stats;
}

namespace {

// The sample-then-validate loop shared by the AD and FD runs. Mirrors
// parallel_discovery.cc's LevelWise stage for stage — same enumeration
// order, same sequential prune/emit — except that candidates whose
// evidence bound is already trivial never reach `maximal_rhs`.
template <typename Dep, typename RhsFn, typename PrunedFn, typename EmitFn>
std::vector<Dep> HybridRun(DependencyValidator* validator,
                           const AttrSet& universe,
                           const EngineDiscoveryOptions& options,
                           CandidateFrontier::Semantics semantics,
                           const RhsFn& maximal_rhs, const PrunedFn& pruned,
                           const EmitFn& emit, DiscoveryRunInfo* info) {
  discovery_internal::ResetDiscoveryRunGauges();
  std::vector<Dep> out;
  DependencySet found;
  const size_t num_rows = validator->row_attrs().size();
  const ExecContext* exec = options.exec;
  DiscoveryRunInfo run;

  EvidenceStore store;
  ClusterPairSampler sampler(validator->cache(), universe);
  const size_t sample_threads =
      ResolveThreads(options.num_threads, universe.size());
  auto may_sample = [&] {
    return sampler.rounds_run() < options.hybrid_max_rounds &&
           !sampler.exhausted() && CheckExec(exec).ok();
  };
  // A short seeding burst bootstraps the store; beyond it, the per-level
  // adaptive loops below buy further rounds only when the evidence leaves
  // a level mostly standing, so sampling effort tracks what validation
  // would otherwise cost.
  constexpr size_t kSeedRounds = 2;
  while (sampler.rounds_run() < kSeedRounds && may_sample()) {
    ClusterPairSampler::RoundStats stats =
        sampler.Round(&store, sample_threads);
    if (stats.pairs == 0 || stats.efficiency < options.hybrid_min_efficiency) {
      break;
    }
  }

  for (size_t k = 1; k <= options.max_lhs_size && k <= universe.size(); ++k) {
    if (Status st = CheckExec(exec); !st.ok()) {
      run.status = std::move(st);
      run.partial = true;
      break;
    }
    telemetry::ScopedSpan level_span("discovery.level");
    FLEXREL_FAULT_INJECT("discovery.level");
    const bool traced = telemetry::Enabled();
    const uint64_t level_start = traced ? telemetry::NowNs() : 0;
    CandidateFrontier frontier(LatticeLevel(universe, k), universe, semantics);
    frontier.Tighten(store);
    // The adaptive switch back: while the evidence leaves most of the
    // level standing and sampling still yields fresh evidence at a good
    // rate, a round costs less than validating the un-falsified bulk.
    while (static_cast<double>(frontier.survivor_count()) >
               options.hybrid_refine_fraction *
                   static_cast<double>(frontier.candidates().size()) &&
           may_sample()) {
      ClusterPairSampler::RoundStats stats =
          sampler.Round(&store, sample_threads);
      frontier.Tighten(store);
      if (stats.pairs == 0 ||
          stats.efficiency < options.hybrid_min_efficiency) {
        break;
      }
    }

    const std::vector<AttrSet>& candidates = frontier.candidates();
    std::vector<size_t> survivors;
    survivors.reserve(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (frontier.Survives(i)) survivors.push_back(i);
    }
    std::vector<AttrSet> rhss(candidates.size());
    size_t threads = ResolveThreads(options.num_threads, survivors.size());
    if (options.num_threads == 0 &&
        num_rows * survivors.size() < kMinWorkForAutoThreads) {
      threads = 1;
    }
    std::atomic<uint64_t> busy_ns{0};
    size_t wasted = 0;
    std::atomic<bool> stop{false};
    ParallelFor(survivors.size(), threads, [&](size_t j) {
      if (stop.load(std::memory_order_relaxed)) return;
      if (exec != nullptr && !exec->Check().ok()) {
        stop.store(true, std::memory_order_relaxed);
        return;
      }
      const size_t i = survivors[j];
      if (traced) {
        const uint64_t t0 = telemetry::NowNs();
        rhss[i] = maximal_rhs(candidates[i]);
        busy_ns.fetch_add(telemetry::NowNs() - t0, std::memory_order_relaxed);
      } else {
        rhss[i] = maximal_rhs(candidates[i]);
      }
    });
    // Sticky contexts never un-trip, so a re-check catches any trip the
    // workers saw (or one that raced past them): the in-flight level is
    // discarded whole, keeping the verified-prefix contract exact.
    if (Status st = CheckExec(exec); !st.ok()) {
      run.status = std::move(st);
      run.partial = true;
      discovery_internal::ResetDiscoveryRunGauges();
      break;
    }
    for (size_t i : survivors) {
      if (rhss[i].empty()) ++wasted;
    }
    size_t pruned_count = 0;
    size_t emitted_count = 0;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (rhss[i].empty()) continue;  // skipped or exactly refuted
      Dep candidate{candidates[i], std::move(rhss[i])};
      if (options.minimal_only && pruned(found, candidate)) {
        ++pruned_count;
        continue;
      }
      ++emitted_count;
      out.push_back(candidate);
      emit(&found, std::move(candidate));
    }
    FLEXREL_TELEMETRY_COUNT("engine.discovery.levels", 1);
    FLEXREL_TELEMETRY_COUNT("engine.discovery.candidates", candidates.size());
    FLEXREL_TELEMETRY_COUNT("engine.discovery.frontier_validations",
                            survivors.size());
    FLEXREL_TELEMETRY_COUNT("engine.discovery.evidence_skips",
                            candidates.size() - survivors.size());
    FLEXREL_TELEMETRY_COUNT("engine.discovery.wasted_validations", wasted);
    FLEXREL_TELEMETRY_COUNT("engine.discovery.pruned", pruned_count);
    FLEXREL_TELEMETRY_COUNT("engine.discovery.emitted", emitted_count);
    if (traced) {
      const uint64_t wall = telemetry::NowNs() - level_start;
      const uint64_t util_pct =
          wall == 0 ? 0
                    : busy_ns.load(std::memory_order_relaxed) * 100 /
                          (wall * threads);
      FLEXREL_TELEMETRY_GAUGE_SET("engine.discovery.worker_utilization_pct",
                                  util_pct);
      level_span.SetDetail(
          "k=" + std::to_string(k) + " strategy=hybrid candidates=" +
          std::to_string(candidates.size()) +
          " validated=" + std::to_string(survivors.size()) +
          " pruned=" + std::to_string(pruned_count) +
          " emitted=" + std::to_string(emitted_count) +
          " threads=" + std::to_string(threads));
    }
    run.completed_levels = k;
  }
  if (info != nullptr) *info = std::move(run);
  return out;
}

}  // namespace

std::vector<AttrDep> HybridDiscoverAttrDeps(
    DependencyValidator* validator, const AttrSet& universe,
    const EngineDiscoveryOptions& options, DiscoveryRunInfo* info) {
  return HybridRun<AttrDep>(
      validator, universe, options, CandidateFrontier::Semantics::kAd,
      [&](const AttrSet& lhs) {
        return validator->MaximalAdRhs(lhs, universe);
      },
      [](const DependencySet& found, const AttrDep& candidate) {
        return Implies(found, candidate, AxiomSystem::kAdOnly);
      },
      [](DependencySet* found, AttrDep dep) { found->AddAd(std::move(dep)); },
      info);
}

std::vector<FuncDep> HybridDiscoverFuncDeps(
    DependencyValidator* validator, const AttrSet& universe,
    const EngineDiscoveryOptions& options, DiscoveryRunInfo* info) {
  return HybridRun<FuncDep>(
      validator, universe, options, CandidateFrontier::Semantics::kFd,
      [&](const AttrSet& lhs) {
        return validator->MaximalFdRhs(lhs, universe);
      },
      [](const DependencySet& found, const FuncDep& candidate) {
        return Implies(found, candidate);
      },
      [](DependencySet* found, FuncDep dep) { found->AddFd(std::move(dep)); },
      info);
}

}  // namespace flexrel
