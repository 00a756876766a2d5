// Hybrid (sample-then-validate) discovery: unit tests for the evidence
// building blocks, sampler agree-set correctness on hand-built partitions,
// the per-run telemetry-reset regression, and the differential soak pinning
// hybrid == level-wise == brute force across 30 seeds of planted-FD,
// Zipfian-skew, null-carrying, and footnote-3-mutated instances.
//
// Randomized tests take their seed from FLEXREL_TEST_SEED when set (CI's
// seed-diversity job passes the run id) and print it for replay.

#include "engine/hybrid_discovery.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/closure.h"
#include "core/discovery.h"
#include "core/flexible_relation.h"
#include "engine/parallel_discovery.h"
#include "engine/pli_cache.h"
#include "engine/validator.h"
#include "relational/attribute.h"
#include "engine_test_util.h"
#include "telemetry/telemetry.h"
#include "test_seed.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace flexrel {
namespace {

using testutil::FullUniverse;
using testutil::MakePlantedFdInstance;
using testutil::RandomInstance;
using testutil::RandomSoakTuple;

Tuple MakeTuple(std::vector<std::pair<AttrId, Value>> pairs) {
  return Tuple::FromPairs(std::move(pairs));
}

// ---------------------------------------------------------------------------
// Pair comparison: the agree / presence-diff split both bounds rest on.
// ---------------------------------------------------------------------------

TEST(PairEvidenceTest, SplitsAgreementValueConflictAndPresence) {
  // a: equal values; b: conflicting values; c: only left; d: only right;
  // e: equal nulls (null == null, Definition 4.2's explicit-null reading).
  Tuple l = MakeTuple({{0, Value::Int(1)},
                       {1, Value::Int(5)},
                       {2, Value::Str("x")},
                       {4, Value::Null()}});
  Tuple r = MakeTuple({{0, Value::Int(1)},
                       {1, Value::Int(6)},
                       {3, Value::Str("y")},
                       {4, Value::Null()}});
  PairEvidence e = ComparePair(l, r);
  EXPECT_EQ(e.agree, (AttrSet{0, 4}));
  EXPECT_EQ(e.presence_diff, (AttrSet{2, 3}));
  // Symmetric by construction.
  PairEvidence flipped = ComparePair(r, l);
  EXPECT_EQ(flipped.agree, e.agree);
  EXPECT_EQ(flipped.presence_diff, e.presence_diff);
}

TEST(PairEvidenceTest, EmptyTupleDisagreesOnEverythingPresent) {
  Tuple l = MakeTuple({{1, Value::Int(2)}, {3, Value::Int(4)}});
  PairEvidence e = ComparePair(l, Tuple());
  EXPECT_TRUE(e.agree.empty());
  EXPECT_EQ(e.presence_diff, (AttrSet{1, 3}));
}

// ---------------------------------------------------------------------------
// Evidence store: dedup is what sampling efficiency is measured by.
// ---------------------------------------------------------------------------

TEST(EvidenceStoreTest, DeduplicatesOnBothSets) {
  EvidenceStore store;
  PairEvidence a{AttrSet{0, 1}, AttrSet{2}};
  PairEvidence same_agree_other_diff{AttrSet{0, 1}, AttrSet{3}};
  EXPECT_TRUE(store.Add(a));
  EXPECT_FALSE(store.Add(a)) << "identical evidence must not be fresh";
  EXPECT_TRUE(store.Add(same_agree_other_diff))
      << "a different presence diff is new information for the AD bound";
  EXPECT_EQ(store.size(), 2u);
  // Insertion order is the incremental-Tighten contract.
  EXPECT_EQ(store.entries()[0], a);
  EXPECT_EQ(store.entries()[1], same_agree_other_diff);
}

// ---------------------------------------------------------------------------
// Candidate frontier: bound arithmetic and the survive/skip verdict.
// ---------------------------------------------------------------------------

TEST(CandidateFrontierTest, FdBoundIntersectsAgreeSetsOfSupersets) {
  AttrSet universe = FullUniverse(4);
  EvidenceStore store;
  // A pair agreeing on {0,1,2}: every candidate inside that set caps its
  // FD bound there; {3} is untouched (the pair never shared a cluster of
  // partition({3})).
  store.Add(PairEvidence{AttrSet{0, 1, 2}, AttrSet{}});
  CandidateFrontier frontier(LatticeLevel(universe, 1), universe,
                             CandidateFrontier::Semantics::kFd);
  frontier.Tighten(store);
  EXPECT_EQ(frontier.BoundMinusLhs(0), (AttrSet{1, 2}));  // lhs {0}
  EXPECT_EQ(frontier.BoundMinusLhs(3), (AttrSet{0, 1, 2}));  // lhs {3}
  EXPECT_TRUE(frontier.Survives(0));
  // A second pair agreeing on {0,3} only: candidate {0}'s bound drops to
  // {0,1,2} ∩ {0,3} = {0} — trivial, provably nothing to validate.
  store.Add(PairEvidence{AttrSet{0, 3}, AttrSet{}});
  frontier.Tighten(store);
  EXPECT_TRUE(frontier.BoundMinusLhs(0).empty());
  EXPECT_FALSE(frontier.Survives(0));
  EXPECT_EQ(frontier.survivor_count(), 3u);
}

TEST(CandidateFrontierTest, AdBoundSubtractsPresenceDiffs) {
  AttrSet universe = FullUniverse(4);
  EvidenceStore store;
  store.Add(PairEvidence{AttrSet{0, 1}, AttrSet{2}});
  CandidateFrontier frontier(LatticeLevel(universe, 2), universe,
                             CandidateFrontier::Semantics::kAd);
  frontier.Tighten(store);
  const std::vector<AttrSet>& candidates = frontier.candidates();
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i] == (AttrSet{0, 1})) {
      EXPECT_EQ(frontier.BoundMinusLhs(i), (AttrSet{3}))
          << "the witnessed pair breaks the existence pattern only for 2";
    } else {
      // No evidence speaks about other determinants at this level.
      EXPECT_EQ(frontier.BoundMinusLhs(i),
                universe.Minus(candidates[i]));
    }
  }
}

TEST(CandidateFrontierTest, DenseAgreeSetsTakeTheScanArmIdentically) {
  // A wide agree set makes subset enumeration (C(14,2) = 91 candidates)
  // costlier than scanning the level; both arms must tighten identically.
  AttrSet universe = FullUniverse(14);
  AttrSet wide_agree = universe.Minus(AttrSet::Of(13));
  EvidenceStore store;
  store.Add(PairEvidence{wide_agree, AttrSet{13}});
  store.Add(PairEvidence{AttrSet{0, 1}, AttrSet{}});  // sparse entry
  CandidateFrontier fd(LatticeLevel(universe, 2), universe,
                       CandidateFrontier::Semantics::kFd);
  fd.Tighten(store);
  for (size_t i = 0; i < fd.candidates().size(); ++i) {
    const AttrSet& lhs = fd.candidates()[i];
    AttrSet expected = universe;
    if (lhs.IsSubsetOf(wide_agree)) expected = expected.Intersect(wide_agree);
    if (lhs.IsSubsetOf(AttrSet{0, 1})) {
      expected = expected.Intersect(AttrSet{0, 1});
    }
    EXPECT_EQ(fd.BoundMinusLhs(i), expected.Minus(lhs))
        << "candidate " << lhs.ToString();
  }
}

// The frontier's bitsets against the definition, kept in plain AttrSets:
// every candidate whose LHS lies inside the evidence's agree set has its
// FD bound intersected with that agree set, or its AD bound stripped of the
// presence diff. The reference never consults a universe position table,
// so evidence attributes outside the universe exercise the frontier's
// filtering for real.
struct ReferenceFrontier {
  std::vector<AttrSet> lhs;
  std::vector<AttrSet> bounds;
  CandidateFrontier::Semantics semantics;

  void Apply(const PairEvidence& e) {
    for (size_t i = 0; i < lhs.size(); ++i) {
      if (!lhs[i].IsSubsetOf(e.agree)) continue;
      bounds[i] = semantics == CandidateFrontier::Semantics::kFd
                      ? bounds[i].Intersect(e.agree)
                      : bounds[i].Minus(e.presence_diff);
    }
  }
};

TEST(EngineHybridDiscoverySoak, BitsetFrontierMatchesAttrSetReference) {
  Rng rng(TestSeed(227, 1, "frontier-differential"));
  // 72 sparse, non-contiguous attribute ids (two words per mask), plus
  // ids outside the universe — below, between, and above its members —
  // that evidence carries but no candidate or bound may ever contain.
  AttrSet universe;
  while (universe.size() < 72) {
    universe.Insert(static_cast<AttrId>(rng.UniformInt(5, 900)));
  }
  std::vector<AttrId> outside = {0, 3, 950, 4000};
  for (AttrId a = 6; outside.size() < 12; a += 37) {
    if (!universe.Contains(a)) outside.push_back(a);
  }
  const std::vector<AttrId>& ids = universe.ids();
  auto random_evidence = [&] {
    PairEvidence e;
    // Agree-set density from a handful of attributes up to the whole
    // universe, so both the enumeration and the scan arm run at every
    // level (level 3 scans only once C(|agree|, 3) reaches C(72, 3)).
    double keep = rng.UniformInt(2, 30) / 100.0;
    if (rng.Bernoulli(0.25)) keep = rng.Bernoulli(0.5) ? 0.99 : 0.9;
    for (AttrId a : ids) {
      if (rng.Bernoulli(keep)) {
        e.agree.Insert(a);
      } else if (rng.Bernoulli(0.2)) {
        e.presence_diff.Insert(a);
      }
    }
    for (AttrId a : outside) {
      if (rng.Bernoulli(0.3)) {
        (rng.Bernoulli(0.5) ? e.agree : e.presence_diff).Insert(a);
      }
    }
    return e;
  };
  for (size_t k = 1; k <= 3; ++k) {
    for (auto semantics : {CandidateFrontier::Semantics::kFd,
                           CandidateFrontier::Semantics::kAd}) {
      SCOPED_TRACE(StrCat("k=", k, " semantics=",
                          semantics == CandidateFrontier::Semantics::kFd
                              ? "fd"
                              : "ad"));
      std::vector<AttrSet> level = LatticeLevel(universe, k);
      CandidateFrontier frontier(level, universe, semantics);
      ReferenceFrontier reference{level,
                                  std::vector<AttrSet>(level.size(), universe),
                                  semantics};
      EvidenceStore store;
      // Tighten in several increments: the frontier consumes only the
      // store suffix added since its last look.
      const size_t rounds = k == 3 ? 3 : 6;
      for (size_t round = 0; round < rounds; ++round) {
        for (int n = 0; n < 20; ++n) {
          PairEvidence e = random_evidence();
          if (store.Add(e)) reference.Apply(e);
        }
        frontier.Tighten(store);
        size_t survivors = 0;
        for (size_t i = 0; i < level.size(); ++i) {
          const AttrSet expected = reference.bounds[i].Minus(level[i]);
          ASSERT_EQ(frontier.BoundMinusLhs(i), expected)
              << "round " << round << " candidate " << level[i].ToString();
          ASSERT_EQ(frontier.Survives(i), !expected.empty())
              << "round " << round << " candidate " << level[i].ToString();
          if (!expected.empty()) ++survivors;
        }
        ASSERT_EQ(frontier.survivor_count(), survivors) << "round " << round;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Sampler: widening in-cluster enumeration over hand-built partitions.
// ---------------------------------------------------------------------------

std::vector<Tuple> HandBuiltRows() {
  // Attr 0 clusters rows {0,1,2} (value 1) and {3,4} (value 2); row 5 is a
  // partnerless singleton. Attr 1 clusters {0,3} (value 7); the rest are
  // distinct. Attr 2 varies freely and never clusters.
  return {
      MakeTuple({{0, Value::Int(1)}, {1, Value::Int(7)}, {2, Value::Int(10)}}),
      MakeTuple({{0, Value::Int(1)}, {1, Value::Int(8)}, {2, Value::Int(11)}}),
      MakeTuple({{0, Value::Int(1)}, {2, Value::Int(12)}}),
      MakeTuple({{0, Value::Int(2)}, {1, Value::Int(7)}, {2, Value::Int(13)}}),
      MakeTuple({{0, Value::Int(2)}, {1, Value::Int(9)}}),
      MakeTuple({{0, Value::Int(3)}, {1, Value::Int(5)}, {2, Value::Int(14)}}),
  };
}

std::string EvidenceKey(const PairEvidence& e) {
  return StrCat(e.agree.ToString(), "|", e.presence_diff.ToString());
}

TEST(ClusterPairSamplerTest, RoundOneComparesAdjacentClusterMembers) {
  std::vector<Tuple> rows = HandBuiltRows();
  PliCache cache(&rows);
  ClusterPairSampler sampler(&cache, FullUniverse(3));
  EvidenceStore store;
  ClusterPairSampler::RoundStats stats = sampler.Round(&store, 1);
  // Distance 1: attr 0 contributes (0,1), (1,2), (3,4); attr 1 contributes
  // (0,3); attr 2 has no clusters.
  EXPECT_EQ(stats.pairs, 4u);
  EXPECT_EQ(stats.fresh, store.size());
  EXPECT_GT(stats.efficiency, 0.0);
  // The (0,3) pair through attr 1: agrees exactly on attr 1, row 3's attr-0
  // value differs and both carry attrs 0 and 2 with different values.
  bool found = false;
  for (const PairEvidence& e : store.entries()) {
    if (e.agree == AttrSet::Of(1) && e.presence_diff.empty()) found = true;
  }
  EXPECT_TRUE(found) << "evidence of the {1}-cluster pair (0,3) missing";
}

TEST(ClusterPairSamplerTest, WideningReachesEveryInClusterPair) {
  std::vector<Tuple> rows = HandBuiltRows();
  PliCache cache(&rows);

  // Oracle: every unordered in-cluster pair of every single-attribute
  // partition, compared directly.
  std::set<std::string> expected;
  AttrSet universe = FullUniverse(3);
  for (AttrId a : universe) {
    std::shared_ptr<const Pli> pli = cache.Get(AttrSet::Of(a));
    for (Pli::ClusterView cluster : pli->clusters()) {
      for (size_t i = 0; i < cluster.size(); ++i) {
        for (size_t j = i + 1; j < cluster.size(); ++j) {
          expected.insert(
              EvidenceKey(ComparePair(rows[cluster[i]], rows[cluster[j]])));
        }
      }
    }
  }

  ClusterPairSampler sampler(&cache, universe);
  EvidenceStore store;
  int rounds = 0;
  while (!sampler.exhausted()) {
    ASSERT_LT(rounds++, 10) << "widening must terminate on finite clusters";
    sampler.Round(&store, 1);
  }
  EXPECT_EQ(sampler.Round(&store, 1).pairs, 0u)
      << "an exhausted sampler has no pairs left";

  std::set<std::string> sampled;
  for (const PairEvidence& e : store.entries()) {
    sampled.insert(EvidenceKey(e));
  }
  EXPECT_EQ(sampled, expected);
}

// ---------------------------------------------------------------------------
// Telemetry: per-run gauge reset (regression) and the counter identities
// perf_smoke turns into CI guarantees.
// ---------------------------------------------------------------------------

TEST(DiscoveryTelemetryTest, RunStartResetsStaleGauges) {
  telemetry::Enable();
  telemetry::Registry& registry = telemetry::Registry::Global();
  registry.Reset();
  Rng rng(11);
  std::vector<Tuple> rows = RandomInstance(&rng, 40, 4, 0.9, 2);

  // Plant a stale watermark as an earlier run in this process would have;
  // a following run that never reaches the write site (here: an empty
  // universe walks zero levels) must not leak it into its own dump.
  telemetry::Gauge* util =
      registry.GetGauge("engine.discovery.worker_utilization_pct");
  telemetry::Gauge* hit_rate =
      registry.GetGauge("engine.discovery.sample_hit_rate_pct");
  for (DiscoveryStrategy strategy :
       {DiscoveryStrategy::kLevelWise, DiscoveryStrategy::kHybrid}) {
    util->Set(77);
    hit_rate->Set(55);
    EngineDiscoveryOptions options;
    options.strategy = strategy;
    (void)EngineDiscoverFuncDeps(rows, AttrSet(), options);
    EXPECT_EQ(util->value(), 0)
        << "stale worker-utilization watermark leaked across runs";
    EXPECT_EQ(hit_rate->value(), 0)
        << "stale sampling hit-rate leaked across runs";
  }
  telemetry::Disable();
}

TEST(DiscoveryTelemetryTest, HybridCountersWitnessTheFrontier) {
  telemetry::Enable();
  telemetry::Registry& registry = telemetry::Registry::Global();
  registry.Reset();
  Rng rng(7);
  auto instance = MakePlantedFdInstance(&rng, 300, 12, 2, 6);

  EngineDiscoveryOptions options;
  options.strategy = DiscoveryStrategy::kHybrid;
  options.max_lhs_size = 2;
  (void)EngineDiscoverFuncDeps(instance.rows, instance.universe, options);

  const uint64_t candidates =
      registry.CounterValue("engine.discovery.candidates");
  const uint64_t validated =
      registry.CounterValue("engine.discovery.frontier_validations");
  const uint64_t skipped =
      registry.CounterValue("engine.discovery.evidence_skips");
  EXPECT_GT(registry.CounterValue("engine.discovery.sampled_pairs"), 0u);
  EXPECT_GT(candidates, 0u);
  EXPECT_LE(validated, candidates)
      << "hybrid must never validate more than the full lattice";
  EXPECT_EQ(validated + skipped, candidates)
      << "every candidate takes exactly one arm";
  EXPECT_GT(skipped, 0u)
      << "on a fat-cluster planted instance the evidence must falsify "
         "some candidates outright";
  telemetry::Disable();
}

// ---------------------------------------------------------------------------
// The differential soak: hybrid == level-wise == brute force, everywhere.
// ---------------------------------------------------------------------------

void ExpectAllStrategiesIdentical(const std::vector<Tuple>& rows,
                                  const AttrSet& universe, size_t max_lhs,
                                  bool minimal_only,
                                  const EngineDiscoveryOptions& hybrid_base,
                                  const std::string& label) {
  EngineDiscoveryOptions hybrid = hybrid_base;
  hybrid.strategy = DiscoveryStrategy::kHybrid;
  hybrid.max_lhs_size = max_lhs;
  hybrid.minimal_only = minimal_only;
  EngineDiscoveryOptions level_wise = hybrid;
  level_wise.strategy = DiscoveryStrategy::kLevelWise;
  DiscoveryOptions brute;
  brute.use_engine = false;
  brute.max_lhs_size = max_lhs;
  brute.minimal_only = minimal_only;

  std::vector<FuncDep> hybrid_fds =
      EngineDiscoverFuncDeps(rows, universe, hybrid);
  EXPECT_EQ(hybrid_fds, EngineDiscoverFuncDeps(rows, universe, level_wise))
      << label << " (FDs vs level-wise, max_lhs=" << max_lhs
      << " minimal=" << minimal_only << ")";
  EXPECT_EQ(hybrid_fds, DiscoverFuncDeps(rows, universe, brute))
      << label << " (FDs vs brute, max_lhs=" << max_lhs
      << " minimal=" << minimal_only << ")";

  std::vector<AttrDep> hybrid_ads =
      EngineDiscoverAttrDeps(rows, universe, hybrid);
  EXPECT_EQ(hybrid_ads, EngineDiscoverAttrDeps(rows, universe, level_wise))
      << label << " (ADs vs level-wise, max_lhs=" << max_lhs
      << " minimal=" << minimal_only << ")";
  EXPECT_EQ(hybrid_ads, DiscoverAttrDeps(rows, universe, brute))
      << label << " (ADs vs brute, max_lhs=" << max_lhs
      << " minimal=" << minimal_only << ")";
}

TEST(EngineHybridDiscoverySoak, MatchesOraclesAcrossInstanceShapes) {
  uint64_t base = TestSeedBase(211, "hybrid-soak");
  for (uint64_t i = 1; i <= 30; ++i) {
    uint64_t seed = base + i;
    Rng rng(seed * 7919);
    SCOPED_TRACE(StrCat("seed=", seed));

    // Knob diversity rides along with shape diversity: some seeds get no
    // sampling budget at all (pure exact fallback), some an eager one.
    EngineDiscoveryOptions knobs;
    switch (seed % 3) {
      case 0:
        knobs.hybrid_max_rounds = 0;  // evidence-free: every candidate exact
        break;
      case 1:
        knobs.hybrid_refine_fraction = 0.0;  // maximally sampling-eager
        knobs.hybrid_min_efficiency = 0.0;
        break;
      default:
        break;  // shipped defaults
    }

    // Sparse flexible rows (nulls, presence variation), a dense near-
    // classical slice, and a planted-FD instance with Zipf-skewed clusters
    // and absence on the non-planted attributes.
    std::vector<Tuple> sparse = RandomInstance(&rng, 60, 5, 0.55, 2);
    std::vector<Tuple> dense = RandomInstance(&rng, 50, 4, 0.95, 3);
    auto planted = MakePlantedFdInstance(&rng, 80, 7 + seed % 3, 2,
                                         4 + static_cast<int64_t>(seed % 4),
                                         0.3);

    ExpectAllStrategiesIdentical(sparse, FullUniverse(5), 2, true, knobs,
                                 "sparse");
    ExpectAllStrategiesIdentical(sparse, FullUniverse(5), 3, false, knobs,
                                 "sparse");
    ExpectAllStrategiesIdentical(dense, FullUniverse(4), 2, true, knobs,
                                 "dense");
    ExpectAllStrategiesIdentical(planted.rows, planted.universe, 2, true,
                                 knobs, "planted");

    // Completeness against the construction: whatever minimal generators
    // discovery settled on must imply every planted dependency.
    DependencySet discovered;
    EngineDiscoveryOptions hybrid = knobs;
    hybrid.strategy = DiscoveryStrategy::kHybrid;
    for (FuncDep& fd :
         EngineDiscoverFuncDeps(planted.rows, planted.universe, hybrid)) {
      discovered.AddFd(std::move(fd));
    }
    for (const FuncDep& fd : planted.planted) {
      EXPECT_TRUE(Implies(discovered, fd))
          << "planted " << fd.lhs.ToString() << " -> " << fd.rhs.ToString()
          << " not implied by the discovered set";
    }
  }
}

TEST(EngineHybridDiscoverySoak, SurvivesMutationsBetweenDiscoveries) {
  uint64_t base = TestSeedBase(223, "hybrid-mutation-soak");
  for (uint64_t i = 1; i <= 6; ++i) {
    uint64_t seed = base + i;
    Rng rng(seed * 6151);
    SCOPED_TRACE(StrCat("seed=", seed));

    AttrCatalog catalog;
    std::vector<AttrId> attrs;
    for (int a = 0; a < 5; ++a) attrs.push_back(catalog.Intern(StrCat("a", a)));
    AttrSet universe = FullUniverse(attrs.size());

    FlexibleRelation rel = FlexibleRelation::Derived("hybrid-soak",
                                                     DependencySet());
    for (int r = 0; r < 50; ++r) {
      rel.InsertUnchecked(RandomSoakTuple(attrs, &rng));
    }

    // Re-discover through the relation's long-lived cache after every
    // mutation burst: round r's sampler reads partitions patched r times
    // (and probes the COW snapshot path the cache defaults to).
    for (int round = 0; round < 4; ++round) {
      std::shared_ptr<PliCache> cache = rel.pli_cache();
      DependencyValidator validator(cache.get());
      EngineDiscoveryOptions hybrid;
      hybrid.strategy = DiscoveryStrategy::kHybrid;
      EngineDiscoveryOptions level_wise;

      std::vector<FuncDep> hybrid_fds =
          EngineDiscoverFuncDeps(&validator, universe, hybrid);
      std::vector<AttrDep> hybrid_ads =
          EngineDiscoverAttrDeps(&validator, universe, hybrid);
      EXPECT_EQ(hybrid_fds,
                EngineDiscoverFuncDeps(&validator, universe, level_wise))
          << "round " << round;
      EXPECT_EQ(hybrid_ads,
                EngineDiscoverAttrDeps(&validator, universe, level_wise))
          << "round " << round;
      DiscoveryOptions brute;
      brute.use_engine = false;
      EXPECT_EQ(hybrid_fds, DiscoverFuncDeps(rel.rows(), universe, brute))
          << "round " << round;
      EXPECT_EQ(hybrid_ads, DiscoverAttrDeps(rel.rows(), universe, brute))
          << "round " << round;

      for (int m = 0; m < 8; ++m) {
        if (rng.Bernoulli(0.6)) {
          rel.InsertUnchecked(RandomSoakTuple(attrs, &rng));
        } else {
          size_t row = rng.Index(rel.size());
          AttrId attr = attrs[rng.Index(attrs.size())];
          auto delta = rel.Update(row, attr, testutil::RandomSoakValue(&rng));
          ASSERT_TRUE(delta.ok()) << delta.status();
        }
      }
    }
  }
}

}  // namespace
}  // namespace flexrel
