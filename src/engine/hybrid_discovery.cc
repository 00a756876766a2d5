#include "engine/hybrid_discovery.h"

#include <algorithm>
#include <atomic>
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

// Invokes fn(AttrSet) for every size-k subset of `ids` (sorted), in the
// canonical combination order LatticeLevel uses.
template <typename Fn>
void ForEachSubset(const std::vector<AttrId>& ids, size_t k, const Fn& fn) {
  if (k == 0 || k > ids.size()) return;
  std::vector<size_t> idx(k);
  for (size_t i = 0; i < k; ++i) idx[i] = i;
  std::vector<AttrId> current;
  while (true) {
    current.clear();
    for (size_t i : idx) current.push_back(ids[i]);
    fn(AttrSet::FromIds(current));
    size_t i = k;
    while (i > 0) {
      --i;
      if (idx[i] != i + ids.size() - k) break;
    }
    if (idx[i] == i + ids.size() - k) break;
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

constexpr size_t kNoCandidate = static_cast<size_t>(-1);
constexpr uint64_t PackPair(AttrId a, AttrId b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

CandidateFrontier::CandidateFrontier(std::vector<AttrSet> candidates,
                                     AttrSet universe, Semantics semantics)
    : candidates_(std::move(candidates)),
      universe_(std::move(universe)),
      semantics_(semantics) {
  bounds_.assign(candidates_.size(), universe_);
  level_ = candidates_.empty() ? 0 : candidates_.front().size();
  if (level_ == 1) {
    AttrId max_id = 0;
    for (const AttrSet& c : candidates_) max_id = std::max(max_id, c.ids()[0]);
    attr_index_.assign(static_cast<size_t>(max_id) + 1, kNoCandidate);
    for (size_t i = 0; i < candidates_.size(); ++i) {
      attr_index_[candidates_[i].ids()[0]] = i;
    }
  } else if (level_ == 2) {
    pair_index_.reserve(candidates_.size());
    for (size_t i = 0; i < candidates_.size(); ++i) {
      const std::vector<AttrId>& ids = candidates_[i].ids();
      pair_index_[PackPair(ids[0], ids[1])] = i;
    }
  } else {
    index_.reserve(candidates_.size());
    for (size_t i = 0; i < candidates_.size(); ++i) index_[candidates_[i]] = i;
  }
}

void CandidateFrontier::Apply(const PairEvidence& e) {
  // Candidates live in `universe_`, so only the agree set's restriction to
  // it can contain determinants this evidence speaks about.
  AttrSet agree = e.agree.Intersect(universe_);
  if (agree.size() < level_) return;
  auto tighten = [&](size_t i) {
    bounds_[i] = semantics_ == Semantics::kFd
                     ? bounds_[i].Intersect(e.agree)
                     : bounds_[i].Minus(e.presence_diff);
  };
  const std::vector<AttrId>& ids = agree.ids();
  // Either enumerate the affected candidates out of the agree set or
  // subset-test every candidate against it — whichever touches fewer.
  // Levels 1 and 2 enumerate through flat indexes, no AttrSet churn.
  if (level_ == 1) {
    for (AttrId a : ids) {
      if (a < attr_index_.size() && attr_index_[a] != kNoCandidate) {
        tighten(attr_index_[a]);
      }
    }
    return;
  }
  if (level_ == 2) {
    if (ids.size() * (ids.size() - 1) / 2 < 2 * candidates_.size()) {
      for (size_t i = 0; i < ids.size(); ++i) {
        for (size_t j = i + 1; j < ids.size(); ++j) {
          auto it = pair_index_.find(PackPair(ids[i], ids[j]));
          if (it != pair_index_.end()) tighten(it->second);
        }
      }
    } else {
      for (size_t i = 0; i < candidates_.size(); ++i) {
        if (candidates_[i].IsSubsetOf(agree)) tighten(i);
      }
    }
    return;
  }
  if (ChooseCapped(agree.size(), level_, candidates_.size()) <
      candidates_.size()) {
    ForEachSubset(ids, level_, [&](const AttrSet& lhs) {
      auto it = index_.find(lhs);
      if (it != index_.end()) tighten(it->second);
    });
  } else {
    for (size_t i = 0; i < candidates_.size(); ++i) {
      if (candidates_[i].IsSubsetOf(agree)) tighten(i);
    }
  }
}

void CandidateFrontier::Tighten(const EvidenceStore& store) {
  const std::vector<PairEvidence>& entries = store.entries();
  for (; applied_ < entries.size(); ++applied_) Apply(entries[applied_]);
}

AttrSet CandidateFrontier::BoundMinusLhs(size_t i) const {
  return bounds_[i].Minus(candidates_[i]);
}

bool CandidateFrontier::Survives(size_t i) const {
  return !bounds_[i].IsSubsetOf(candidates_[i]);
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
