// Mutation soak for incremental PLI maintenance (PliCache::OnInsert /
// OnUpdate, Pli::ApplyInsert / ApplyErase, the value-index patch
// primitives).
//
// The contract under test: after ANY interleaving of Insert /
// InsertUnchecked / Update with Get / CodeColumnFor queries, every cached
// partition and code column is structurally equal to a from-scratch rebuild
// over the mutated instance — clusters (canonical form, so Pli::operator==
// is exact), defined_rows, grouped_rows and NumDistinct all agree — and the
// incremental mode is observationally identical to the
// PliCacheOptions::incremental = false fallback, which drops the cache
// wholesale on every mutation and therefore *is* the from-scratch oracle.
//
// Randomized tests take their seed from the FLEXREL_TEST_SEED environment
// variable when set (CI's seed-diversity step passes the run id) and print
// it, so every failure is replayable from the log.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/pli_cache.h"
#include "engine_test_util.h"
#include "telemetry/telemetry.h"
#include "test_seed.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload/generator.h"

namespace flexrel {
namespace {

using testutil::ApplyRandomEmployeeMutation;
using testutil::ExpectAttrStatsMatchRows;
using testutil::RandomSoakTuple;
using testutil::RandomSoakValue;
using testutil::SoakEmployeeConfig;
using testutil::VerifyColumnMatchesFreshBuild;
using testutil::VerifyProbeEquivalent;

uint64_t SoakSeed(uint64_t salt) {
  return TestSeed(0xF1E37A11DEADBEEFull, salt, "soak");
}

// ---------------------------------------------------------------------------
// Pli patch primitives: the cluster transitions, pinned one by one.
// ---------------------------------------------------------------------------

std::vector<Tuple> RowsWithValues(AttrId attr,
                                  const std::vector<int64_t>& values) {
  std::vector<Tuple> rows;
  for (int64_t v : values) {
    Tuple t;
    t.Set(attr, Value::Int(v));
    rows.push_back(std::move(t));
  }
  return rows;
}

TEST(PliPatchTest, InsertSecondCarrierUnstripsTheSingleton) {
  const AttrId a = 3;
  std::vector<Tuple> rows = RowsWithValues(a, {7, 8, 7});
  Pli pli = Pli::Build(rows, a);  // clusters: {0,2}; row 1 stripped
  ASSERT_EQ(pli.num_clusters(), 1u);

  // Row 3 arrives with value 8: row 1 must be un-stripped into {1,3}.
  Tuple t;
  t.Set(a, Value::Int(8));
  rows.push_back(t);
  pli.SetNumRows(rows.size());
  Pli::Cluster partners = {1};
  ASSERT_TRUE(pli.ApplyInsert(3, partners, /*includes_row=*/false));
  EXPECT_EQ(pli, Pli::Build(rows, a));
  EXPECT_EQ(pli.defined_rows(), 4u);
  EXPECT_EQ(pli.NumDistinct(), 2u);
}

TEST(PliPatchTest, EraseDownToOneCarrierDissolvesTheCluster) {
  const AttrId a = 1;
  std::vector<Tuple> rows = RowsWithValues(a, {5, 5, 9, 9});
  Pli pli = Pli::Build(rows, a);
  ASSERT_EQ(pli.num_clusters(), 2u);

  // Row 0 leaves value 5 (update away): {0,1} dissolves, row 1 re-strips.
  Pli::Cluster partners = {1};
  ASSERT_TRUE(pli.ApplyErase(0, partners, /*includes_row=*/false));
  rows[0].Set(a, Value::Int(1234));  // value 5 now carried by row 1 alone
  Pli rebuilt = Pli::Build(rows, a);
  // The erase alone models only the departure; defined_rows drops by one.
  EXPECT_EQ(pli.num_clusters(), 1u);
  EXPECT_EQ(pli.clusters()[0], (Pli::Cluster{2, 3}));
  EXPECT_EQ(pli.defined_rows(), 3u);
  // Completing the move (insert under the new value) matches the rebuild.
  ASSERT_TRUE(pli.ApplyInsert(0, Pli::Cluster{}, /*includes_row=*/false));
  EXPECT_EQ(pli, rebuilt);
  EXPECT_EQ(pli.defined_rows(), rebuilt.defined_rows());
}

TEST(PliPatchTest, FrontRowChangesKeepCanonicalClusterOrder) {
  const AttrId a = 0;
  // Clusters {0,3} (v=1) and {1,2} (v=2): canonical order 0 < 1.
  std::vector<Tuple> rows = RowsWithValues(a, {1, 2, 2, 1});
  Pli pli = Pli::Build(rows, a);
  ASSERT_EQ(pli.clusters().size(), 2u);

  // Row 0 leaves cluster {0,3}: the remnant {3} dissolves; then row 0
  // rejoins value 2's cluster {1,2} as its NEW front — the cluster must
  // move to the first canonical slot.
  ASSERT_TRUE(pli.ApplyErase(0, Pli::Cluster{3}, false));
  ASSERT_TRUE(pli.ApplyInsert(0, Pli::Cluster{1, 2}, false));
  rows[0].Set(a, Value::Int(2));
  EXPECT_EQ(pli, Pli::Build(rows, a));
  EXPECT_EQ(pli.clusters()[0], (Pli::Cluster{0, 1, 2}));
}

TEST(PliPatchTest, InconsistentArgumentsAreRejectedNotApplied) {
  const AttrId a = 2;
  std::vector<Tuple> rows = RowsWithValues(a, {4, 4, 6});
  Pli pli = Pli::Build(rows, a);
  const Pli before = pli;
  // Claiming row 2 joins a two-row cluster fronted by row 1 is inconsistent
  // (row 1's cluster is fronted by row 0): the patch must refuse...
  EXPECT_FALSE(pli.ApplyInsert(2, Pli::Cluster{1, 0}, false));
  // ...and refusal must be a true no-op, counters included.
  EXPECT_EQ(pli, before);
  EXPECT_EQ(pli.defined_rows(), before.defined_rows());
  EXPECT_EQ(pli.grouped_rows(), before.grouped_rows());
  // Same for an erase naming a partner that is not in the row's cluster.
  EXPECT_FALSE(pli.ApplyErase(0, Pli::Cluster{2}, false));
  EXPECT_EQ(pli, before);
  EXPECT_EQ(pli.defined_rows(), before.defined_rows());
}

TEST(ValueIndexPatchTest, InsertAndUpdateKeepListsAscendingAndExact) {
  PliCache::ValueIndex index;
  ValueIndexApplyInsert(&index, 0, nullptr);  // row without the attribute
  EXPECT_TRUE(index.empty());

  Value v1 = Value::Str("x"), v2 = Value::Str("y");
  ValueIndexApplyInsert(&index, 2, &v1);
  ValueIndexApplyInsert(&index, 5, &v1);
  ValueIndexApplyUpdate(&index, 3, nullptr, &v1);  // attribute added mid-list
  EXPECT_EQ(index.at(v1), (std::vector<Pli::RowId>{2, 3, 5}));

  ValueIndexApplyUpdate(&index, 3, &v1, &v2);  // re-valued
  EXPECT_EQ(index.at(v1), (std::vector<Pli::RowId>{2, 5}));
  EXPECT_EQ(index.at(v2), (std::vector<Pli::RowId>{3}));

  ValueIndexApplyUpdate(&index, 3, &v2, nullptr);  // attribute removed
  EXPECT_EQ(index.count(v2), 0u) << "emptied values must disappear";
}

// ---------------------------------------------------------------------------
// Randomized mutation soak over an untyped (derived) relation.
// ---------------------------------------------------------------------------

struct SoakKeys {
  std::vector<AttrSet> partitions;
  std::vector<AttrId> columns;
};

// Asserts every tracked structure of `rel`'s attached cache equals a
// from-scratch rebuild over the current rows — clusters, counters, arena
// invariants, code columns, and the incrementally patched probes.
void VerifyAgainstRebuild(const FlexibleRelation& rel, const SoakKeys& keys,
                          const std::string& context) {
  std::shared_ptr<PliCache> cache = rel.pli_cache();
  PliCache rebuild(&rel.rows());
  for (const AttrSet& attrs : keys.partitions) {
    std::shared_ptr<const Pli> patched = cache->Get(attrs);
    std::shared_ptr<const Pli> fresh = rebuild.Get(attrs);
    ASSERT_EQ(*patched, *fresh)
        << context << " partition " << attrs.ToString() << " diverged";
    EXPECT_EQ(patched->defined_rows(), fresh->defined_rows())
        << context << " defined_rows of " << attrs.ToString();
    EXPECT_EQ(patched->grouped_rows(), fresh->grouped_rows())
        << context << " grouped_rows of " << attrs.ToString();
    EXPECT_EQ(patched->NumDistinct(), fresh->NumDistinct())
        << context << " NumDistinct of " << attrs.ToString();
    std::string err;
    ASSERT_TRUE(patched->CheckInvariants(&err))
        << context << " partition " << attrs.ToString() << ": " << err;
    // Single-attribute partitions carry an incrementally maintained probe;
    // ProbeFor both exercises the patch path (the memo persists across
    // flushes from the first call on) and must match a rebuild.
    if (attrs.size() == 1) {
      std::shared_ptr<const PliProbe> probe =
          cache->ProbeFor(attrs.ids().front());
      ASSERT_NO_FATAL_FAILURE(VerifyProbeEquivalent(
          *probe, *fresh,
          StrCat(context, " probe of ", attrs.ToString())));
    }
  }
  for (AttrId attr : keys.columns) {
    ASSERT_NO_FATAL_FAILURE(VerifyColumnMatchesFreshBuild(
        *cache->CodeColumnFor(attr), rel.rows(),
        StrCat(context, " code column of attr ", attr)));
  }
}

TEST(EngineIncrementalSoak, DerivedRelationPatchesMatchRebuilds) {
  Rng rng(SoakSeed(1));
  AttrCatalog catalog;
  std::vector<AttrId> attrs;
  for (int i = 0; i < 6; ++i) attrs.push_back(catalog.Intern(StrCat("a", i)));

  FlexibleRelation rel = FlexibleRelation::Derived("soak", DependencySet());
  for (int i = 0; i < 60; ++i) rel.InsertUnchecked(RandomSoakTuple(attrs, &rng));

  // Warm the cache: singles, pairs, a triple, the ∅-partition, and columns.
  SoakKeys keys;
  for (AttrId a : attrs) keys.partitions.push_back(AttrSet::Of(a));
  keys.partitions.push_back(AttrSet{attrs[0], attrs[1]});
  keys.partitions.push_back(AttrSet{attrs[1], attrs[2]});
  keys.partitions.push_back(AttrSet{attrs[0], attrs[2], attrs[3]});
  keys.partitions.push_back(AttrSet());
  keys.columns = {attrs[0], attrs[1], attrs[2], attrs[3]};
  std::shared_ptr<PliCache> cache = rel.pli_cache();
  for (const AttrSet& k : keys.partitions) (void)cache->Get(k);
  for (AttrId a : keys.columns) (void)cache->CodeColumnFor(a);

  const int kOps = 300;
  for (int op = 0; op < kOps; ++op) {
    double dice = rng.UniformDouble();
    std::string what;
    if (dice < 0.40) {
      rel.InsertUnchecked(RandomSoakTuple(attrs, &rng));
      what = "insert-unchecked";
    } else if (dice < 0.55) {
      // Checked insert: duplicates bounce off set semantics — both the
      // accepted and the rejected path must leave the cache coherent.
      Status s = rel.Insert(RandomSoakTuple(attrs, &rng));
      what = StrCat("insert(", s.ok() ? "ok" : "dup", ")");
    } else {
      size_t row = rng.Index(rel.size());
      AttrId attr = attrs[rng.Index(attrs.size())];
      auto delta = rel.Update(row, attr, RandomSoakValue(&rng));
      ASSERT_TRUE(delta.ok()) << delta.status();
      what = StrCat("update(row=", row, ",attr=", attr, ")");
    }
    // Grow the tracked key set mid-soak: new partitions assemble out of
    // *patched* bases and join the checked set from then on.
    if (op % 40 == 17) {
      AttrSet fresh_key{attrs[rng.Index(attrs.size())],
                        attrs[rng.Index(attrs.size())]};
      (void)cache->Get(fresh_key);
      keys.partitions.push_back(fresh_key);
    }
    ASSERT_NO_FATAL_FAILURE(VerifyAgainstRebuild(
        rel, keys, StrCat("op#", op, " [", what, "]")));
  }
  // The soak must have exercised the patch path, not silently rebuilt.
  EXPECT_GT(cache->Stats().patches, 0u);
  EXPECT_EQ(cache.get(), rel.pli_cache().get())
      << "incremental mode must keep the attached cache alive";
}

// ---------------------------------------------------------------------------
// The patch-vs-rebuild crossover: oversized seed clusters drop the entry.
// ---------------------------------------------------------------------------

TEST(EngineIncrementalSoak, OversizedSeedClustersFallBackToLazyRebuild) {
  AttrCatalog catalog;
  AttrId a = catalog.Intern("a");
  AttrId b = catalog.Intern("b");
  FlexibleRelation rel = FlexibleRelation::Derived("fat", DependencySet());
  // Constant values on both attributes: every seed cluster spans the whole
  // instance, so with patch_scan_limit = 0 any multi-attribute patch
  // exceeds max(limit, rows/2) and must take the drop-and-rebuild path.
  PliCacheOptions options;
  options.patch_scan_limit = 0;
  rel.SetPliCacheOptions(options);
  for (int i = 0; i < 12; ++i) {
    Tuple t;
    t.Set(a, Value::Int(1));
    t.Set(b, Value::Int(2));
    t.Set(catalog.Intern("uniq"), Value::Int(i));  // keeps tuples distinct
    rel.InsertUnchecked(t);
  }
  std::shared_ptr<PliCache> cache = rel.pli_cache();
  (void)cache->Get(AttrSet{a, b});
  ASSERT_EQ(cache->Stats().patch_rebuilds, 0u);

  Tuple t;
  t.Set(a, Value::Int(1));
  t.Set(b, Value::Int(2));
  t.Set(catalog.Intern("uniq"), Value::Int(99));
  rel.InsertUnchecked(t);

  // The lazily re-intersected entry (built from the *patched* bases) must
  // equal a from-scratch rebuild, and patching must keep working after it.
  PliCache fresh(&rel.rows());
  EXPECT_EQ(*cache->Get(AttrSet{a, b}), *fresh.Get(AttrSet{a, b}));
  EXPECT_GT(cache->Stats().patch_rebuilds, 0u)
      << "the oversized seed cluster must have dropped the pair entry";
  ASSERT_TRUE(rel.Update(0, b, Value::Int(7)).ok());
  PliCache fresh2(&rel.rows());
  EXPECT_EQ(*cache->Get(AttrSet{a, b}), *fresh2.Get(AttrSet{a, b}));
  EXPECT_EQ(*cache->Get(AttrSet::Of(b)), *fresh2.Get(AttrSet::Of(b)));
}

// ---------------------------------------------------------------------------
// Probe bloat hysteresis: sparse-but-fresh memos survive strip churn.
// ---------------------------------------------------------------------------

TEST(EngineIncrementalSoak, ProbeBloatCheckHasHysteresisAcrossStripChurn) {
  AttrCatalog catalog;
  const AttrId a = catalog.Intern("h");
  const AttrId uniq = catalog.Intern("uniq");
  FlexibleRelation rel = FlexibleRelation::Derived("hyst", DependencySet());
  constexpr int kClusters = 120;
  for (int i = 0; i < kClusters; ++i) {
    for (int j = 0; j < 2; ++j) {
      Tuple t;
      t.Set(a, Value::Int(i));
      t.Set(uniq, Value::Int(i * 2 + j));
      rel.InsertUnchecked(t);
    }
  }
  std::shared_ptr<PliCache> cache = rel.pli_cache();
  (void)cache->CodeColumnFor(a);
  ASSERT_EQ(cache->Get(AttrSet::Of(a))->num_clusters(),
            static_cast<size_t>(kClusters));
  (void)cache->ProbeFor(a);  // bound = baseline = 120
  const size_t rebuilds0 = cache->Stats().probe_rebuilds;

  constexpr int kChurn = 110;
  auto strip = [&] {  // move one carrier of each cluster to a unique value
    for (int i = 0; i < kChurn; ++i) {
      ASSERT_TRUE(rel.Update(2 * i, a, Value::Int(10000 + i)).ok());
    }
  };
  auto unstrip = [&] {  // move it back: re-forms the cluster, fresh label
    for (int i = 0; i < kChurn; ++i) {
      ASSERT_TRUE(rel.Update(2 * i, a, Value::Int(i)).ok());
    }
  };

  // Mass strip: clusters 120 -> 10 while the label bound stays 120. The
  // pre-hysteresis check (bound > 2*clusters + 64 alone) tripped here the
  // moment clusters fell below 28 — and again on every later churn cycle,
  // an O(rows) probe rebuild each — even though the bound never grew; the
  // probe is merely sparse, clusters having dissolved under it.
  ASSERT_NO_FATAL_FAILURE(strip());
  EXPECT_EQ(cache->Stats().probe_rebuilds, rebuilds0)
      << "a merely-sparse probe was dropped right after its dense build";
  ASSERT_NO_FATAL_FAILURE(unstrip());  // 110 fresh labels: bound = 230
  ASSERT_NO_FATAL_FAILURE(strip());    // sparse again; 230 <= 2*120 + 64
  EXPECT_EQ(cache->Stats().probe_rebuilds, rebuilds0)
      << "re-dropped before the bound bloated from the rebuild baseline";
  // Only genuine label growth re-trips the check: the second un-strip
  // pushes the bound past 2*baseline + 64 = 304 and the memo retires for
  // one dense rebuild.
  ASSERT_NO_FATAL_FAILURE(unstrip());
  EXPECT_EQ(cache->Stats().probe_rebuilds, rebuilds0 + 1)
      << "a genuinely bloated bound must still retire the memo";

  std::shared_ptr<const PliProbe> probe = cache->ProbeFor(a);
  Pli fresh = Pli::Build(rel.rows(), a);
  ASSERT_NO_FATAL_FAILURE(VerifyProbeEquivalent(*probe, fresh, "post-churn"));
  EXPECT_EQ(probe->label_bound, probe->label_baseline)
      << "a rebuild must reset the hysteresis baseline";
  EXPECT_EQ(probe->label_bound, static_cast<int32_t>(fresh.num_clusters()));
}

// ---------------------------------------------------------------------------
// The same soak, incremental vs the drop-everything oracle, side by side.
// ---------------------------------------------------------------------------

TEST(EngineIncrementalSoak, IncrementalModeMatchesDropEverythingOracle) {
  Rng rng(SoakSeed(2));
  AttrCatalog catalog;
  std::vector<AttrId> attrs;
  for (int i = 0; i < 5; ++i) attrs.push_back(catalog.Intern(StrCat("b", i)));

  FlexibleRelation incremental =
      FlexibleRelation::Derived("inc", DependencySet());
  FlexibleRelation oracle = FlexibleRelation::Derived("ora", DependencySet());
  PliCacheOptions drop_everything;
  drop_everything.incremental = false;
  oracle.SetPliCacheOptions(drop_everything);

  SoakKeys keys;
  for (AttrId a : attrs) keys.partitions.push_back(AttrSet::Of(a));
  keys.partitions.push_back(AttrSet{attrs[0], attrs[3]});
  keys.partitions.push_back(AttrSet{attrs[1], attrs[2], attrs[4]});
  keys.columns = {attrs[0], attrs[2], attrs[4]};

  auto touch = [&](FlexibleRelation* rel) {
    std::shared_ptr<PliCache> cache = rel->pli_cache();
    for (const AttrSet& k : keys.partitions) (void)cache->Get(k);
    for (AttrId a : keys.columns) (void)cache->CodeColumnFor(a);
  };

  for (int op = 0; op < 250; ++op) {
    // Identical mutation on both relations (one rng draw, applied twice).
    if (rng.Bernoulli(0.5) || incremental.empty()) {
      Tuple t = RandomSoakTuple(attrs, &rng);
      incremental.InsertUnchecked(t);
      oracle.InsertUnchecked(std::move(t));
    } else {
      size_t row = rng.Index(incremental.size());
      AttrId attr = attrs[rng.Index(attrs.size())];
      Value v = RandomSoakValue(&rng);
      ASSERT_TRUE(incremental.Update(row, attr, v).ok());
      ASSERT_TRUE(oracle.Update(row, attr, v).ok());
    }
    touch(&incremental);  // queries interleaved with mutations on both modes
    touch(&oracle);
    if (op % 10 == 9) {
      std::shared_ptr<PliCache> lhs = incremental.pli_cache();
      std::shared_ptr<PliCache> rhs = oracle.pli_cache();
      for (const AttrSet& k : keys.partitions) {
        ASSERT_EQ(*lhs->Get(k), *rhs->Get(k))
            << "op#" << op << " partition " << k.ToString();
        ASSERT_EQ(lhs->Get(k)->defined_rows(), rhs->Get(k)->defined_rows())
            << "op#" << op << " partition " << k.ToString();
      }
      for (AttrId a : keys.columns) {
        ASSERT_NO_FATAL_FAILURE(VerifyColumnMatchesFreshBuild(
            *lhs->CodeColumnFor(a), incremental.rows(),
            StrCat("op#", op, " incremental")));
        ASSERT_NO_FATAL_FAILURE(VerifyColumnMatchesFreshBuild(
            *rhs->CodeColumnFor(a), oracle.rows(),
            StrCat("op#", op, " oracle")));
      }
    }
  }
  // The two modes must have taken the two *different* maintenance paths.
  EXPECT_GT(incremental.pli_cache()->Stats().patches, 0u);
  EXPECT_EQ(oracle.pli_cache()->Stats().patches, 0u);
}

// ---------------------------------------------------------------------------
// Typed soak: footnote-3 type changes arrive as multi-attribute deltas.
// ---------------------------------------------------------------------------

TEST(EngineIncrementalSoak, TypedUpdatesWithTypeChangesPatchCorrectly) {
  uint64_t seed = SoakSeed(3);
  auto w = MakeEmployeeWorkload(SoakEmployeeConfig(seed, 80, 3));
  ASSERT_TRUE(w.ok()) << w.status();
  EmployeeWorkload& workload = *w.value();
  FlexibleRelation& rel = workload.relation;
  Rng rng(seed ^ 0xABCDEF);

  SoakKeys keys;
  keys.partitions.push_back(AttrSet::Of(workload.id_attr));
  keys.partitions.push_back(AttrSet::Of(workload.jobtype_attr));
  for (AttrId a : workload.common_attrs) {
    keys.partitions.push_back(AttrSet::Of(a));
  }
  AttrId first_variant_attr = 0;
  for (const auto& variant : workload.eads[0].variants()) {
    for (AttrId a : variant.then) {
      keys.partitions.push_back(AttrSet::Of(a));
      keys.partitions.push_back(AttrSet{workload.jobtype_attr, a});
      if (first_variant_attr == 0) first_variant_attr = a;
    }
  }
  keys.columns = {workload.id_attr, workload.jobtype_attr,
                  first_variant_attr};
  std::shared_ptr<PliCache> cache = rel.pli_cache();
  for (const AttrSet& k : keys.partitions) (void)cache->Get(k);
  for (AttrId a : keys.columns) (void)cache->CodeColumnFor(a);

  int type_changes = 0;
  for (int op = 0; op < 150; ++op) {
    // A checked insert or a jobtype flip (the footnote-3 type change whose
    // delta is a genuine multi-attribute presence change for OnUpdate).
    auto outcome = ApplyRandomEmployeeMutation(&workload, &rng);
    ASSERT_TRUE(outcome.status.ok()) << outcome.status;
    if (outcome.type_changed) ++type_changes;
    if (op % 5 == 4) {
      ASSERT_NO_FATAL_FAILURE(
          VerifyAgainstRebuild(rel, keys, StrCat("typed op#", op)));
    }
  }
  ASSERT_NO_FATAL_FAILURE(VerifyAgainstRebuild(rel, keys, "typed final"));
  EXPECT_GT(type_changes, 0) << "soak never exercised a footnote-3 change";
  EXPECT_GT(cache->Stats().patches, 0u);
}

// ---------------------------------------------------------------------------
// Group-apply primitives: the batched splice, pinned against rebuilds.
// ---------------------------------------------------------------------------

TEST(PliPatchTest, ApplyBatchSplicesLikeARebuild) {
  const AttrId a = 4;
  std::vector<Tuple> rows = RowsWithValues(a, {1, 1, 2, 2, 3});
  Pli pli = Pli::Build(rows, a);  // clusters {0,1}, {2,3}; row 4 stripped

  // One burst: row 0 re-valued 1 -> 3 (dissolves {0,1}, un-strips row 4
  // into {0,4}) and row 2 re-valued 2 -> 1 (dissolves {2,3}, forms {1,2}).
  PliCache::ValueIndex index;
  for (size_t i = 0; i < rows.size(); ++i) {
    ValueIndexApplyInsert(&index, static_cast<Pli::RowId>(i),
                          rows[i].Get(a));
  }
  Value one = Value::Int(1), two = Value::Int(2), three = Value::Int(3);
  std::vector<ValueIndexDelta> deltas = {{0, &one, &three}, {2, &two, &one}};
  std::vector<Pli::ClusterPatch> patches =
      ValueIndexApplyUpdateBatch(&index, deltas);
  ASSERT_FALSE(patches.empty());
  ASSERT_TRUE(pli.ApplyBatch(std::move(patches), /*defined_delta=*/0));

  rows[0].Set(a, Value::Int(3));
  rows[2].Set(a, Value::Int(1));
  EXPECT_EQ(pli, Pli::Build(rows, a));
  EXPECT_EQ(pli.defined_rows(), 5u);
  // The spliced index must equal a from-scratch build too.
  PliCache::ValueIndex fresh;
  for (size_t i = 0; i < rows.size(); ++i) {
    ValueIndexApplyInsert(&fresh, static_cast<Pli::RowId>(i), rows[i].Get(a));
  }
  EXPECT_EQ(index, fresh);
}

TEST(PliPatchTest, ApplyBatchHandlesInsertBursts) {
  const AttrId a = 7;
  std::vector<Tuple> rows = RowsWithValues(a, {5, 6, 5});
  Pli pli = Pli::Build(rows, a);
  PliCache::ValueIndex index;
  for (size_t i = 0; i < rows.size(); ++i) {
    ValueIndexApplyInsert(&index, static_cast<Pli::RowId>(i), rows[i].Get(a));
  }

  // Rows 3 and 4 appended: one joins value 6 (un-strips row 1), one a new
  // value 9 (stays stripped).
  for (int64_t v : {6, 9}) {
    Tuple t;
    t.Set(a, Value::Int(v));
    rows.push_back(std::move(t));
  }
  std::vector<std::pair<Pli::RowId, const Value*>> inserts = {
      {3, rows[3].Get(a)}, {4, rows[4].Get(a)}};
  std::vector<Pli::ClusterPatch> patches =
      ValueIndexApplyInsertBatch(&index, inserts);
  pli.SetNumRows(rows.size());
  ASSERT_TRUE(pli.ApplyBatch(std::move(patches), /*defined_delta=*/2));
  EXPECT_EQ(pli, Pli::Build(rows, a));
  EXPECT_EQ(pli.defined_rows(), 5u);
  EXPECT_EQ(pli.NumDistinct(), 3u);
}

TEST(PliPatchTest, ViewBasedBatchSpliceMatchesARebuild) {
  // The zero-copy capture (ValueIndexApplyUpdateBatchViews +
  // ApplyBatch(ClusterPatchView)) must leave index and partition in exactly
  // the state a from-scratch build of the mutated rows has.
  const AttrId a = 6;
  std::vector<Tuple> rows = RowsWithValues(a, {1, 1, 2, 2, 3, 2, 1});
  Pli pli = Pli::Build(rows, a);
  PliCache::ValueIndex index;
  for (size_t i = 0; i < rows.size(); ++i) {
    ValueIndexApplyInsert(&index, static_cast<Pli::RowId>(i),
                          rows[i].Get(a));
  }
  // Burst: row 0 1->3 (un-strips row 4), row 3 2->1, row 5 2->9 (fresh
  // stripped value), so clusters dissolve, shrink, grow, and appear.
  Value one = Value::Int(1), two = Value::Int(2), three = Value::Int(3),
        nine = Value::Int(9);
  std::vector<ValueIndexDelta> deltas = {
      {0, &one, &three}, {3, &two, &one}, {5, &two, &nine}};
  std::vector<Pli::ClusterPatchView> views =
      ValueIndexApplyUpdateBatchViews(&index, deltas);
  ASSERT_FALSE(views.empty());
  ASSERT_TRUE(pli.ApplyBatch(std::move(views), /*defined_delta=*/0));

  rows[0].Set(a, Value::Int(3));
  rows[3].Set(a, Value::Int(1));
  rows[5].Set(a, Value::Int(9));
  EXPECT_EQ(pli, Pli::Build(rows, a));
  std::string err;
  EXPECT_TRUE(pli.CheckInvariants(&err)) << err;
  PliCache::ValueIndex fresh;
  for (size_t i = 0; i < rows.size(); ++i) {
    ValueIndexApplyInsert(&fresh, static_cast<Pli::RowId>(i),
                          rows[i].Get(a));
  }
  EXPECT_EQ(index, fresh);
}

TEST(PliPatchTest, ViewBasedBatchRefusesContradictionsAsANoOp) {
  const AttrId a = 2;
  std::vector<Tuple> rows = RowsWithValues(a, {4, 4, 6, 6});
  Pli pli = Pli::Build(rows, a);
  const Pli before = pli;
  const Pli::RowId bogus[] = {0, 1, 2};
  std::vector<Pli::ClusterPatchView> views;
  views.push_back({0, 3, bogus, 3});  // cluster {0,1} is size 2, not 3
  EXPECT_FALSE(pli.ApplyBatch(std::move(views), 0));
  EXPECT_EQ(pli, before);
  EXPECT_EQ(pli.grouped_rows(), before.grouped_rows());
}

TEST(PliPatchTest, ApplyBatchRefusesContradictionsAsANoOp) {
  const AttrId a = 2;
  std::vector<Tuple> rows = RowsWithValues(a, {4, 4, 6, 6});
  Pli pli = Pli::Build(rows, a);
  const Pli before = pli;
  // A patch claiming a three-row cluster fronted by row 0 contradicts the
  // actual {0,1}: the whole batch must refuse without touching anything.
  std::vector<Pli::ClusterPatch> patches;
  patches.push_back(Pli::ClusterPatch{0, 3, {0, 1, 2}});
  EXPECT_FALSE(pli.ApplyBatch(std::move(patches), 0));
  EXPECT_EQ(pli, before);
  EXPECT_EQ(pli.defined_rows(), before.defined_rows());
  EXPECT_EQ(pli.grouped_rows(), before.grouped_rows());
}

// ---------------------------------------------------------------------------
// Transactional batch entry points: semantics and atomicity.
// ---------------------------------------------------------------------------

TEST(BatchMutationTest, UpdatesComposeAndMayTargetBatchInsertedRows) {
  AttrCatalog catalog;
  AttrId a = catalog.Intern("a");
  AttrId b = catalog.Intern("b");
  FlexibleRelation rel = FlexibleRelation::Derived("tx", DependencySet());
  Tuple seed;
  seed.Set(a, Value::Int(1));
  rel.InsertUnchecked(seed);

  // Op order matters: the inserted row is addressable at index size(),
  // and two updates to row 0 compose left to right.
  Tuple fresh;
  fresh.Set(a, Value::Int(2));
  std::vector<FlexibleRelation::Mutation> batch;
  batch.push_back(FlexibleRelation::Mutation::Insert(fresh));
  batch.push_back(FlexibleRelation::Mutation::Update(1, b, Value::Int(10)));
  batch.push_back(FlexibleRelation::Mutation::Update(0, a, Value::Int(3)));
  batch.push_back(FlexibleRelation::Mutation::Update(0, b, Value::Int(4)));
  ASSERT_TRUE(rel.ApplyBatch(std::move(batch)).ok());

  ASSERT_EQ(rel.size(), 2u);
  EXPECT_EQ(rel.row(0).Get(a)->as_int(), 3);
  EXPECT_EQ(rel.row(0).Get(b)->as_int(), 4);
  EXPECT_EQ(rel.row(1).Get(a)->as_int(), 2);
  EXPECT_EQ(rel.row(1).Get(b)->as_int(), 10);
}

TEST(BatchMutationTest, DuplicateCheckSurvivesValueEqualTwinsMidBatch) {
  // Mid-batch the staged instance legally holds value-equal twins —
  // updates never duplicate-check. When one twin then moves on to a new
  // value, the staged membership set must retire *that* row's entry, not
  // whichever value-equal entry find() lands on: erasing the wrong twin
  // left the set's survivor pointing at the slot about to be overwritten
  // in place (a live hash key mutating), after which a later duplicate
  // insert slipped through. Which twin find() prefers depends on the
  // stdlib's equal-group ordering, so both orders are exercised: one
  // scenario where the wrong twin is an older pre-existing row, one
  // where it is a newer staged entry.
  AttrCatalog catalog;
  AttrId a = catalog.Intern("a");
  auto seeded = [&](std::initializer_list<int> values) {
    FlexibleRelation rel =
        FlexibleRelation::Derived("twins", DependencySet());
    for (int v : values) {
      Tuple t;
      t.Set(a, Value::Int(v));
      rel.InsertUnchecked(t);
    }
    return rel;
  };
  Tuple nine, two;
  nine.Set(a, Value::Int(9));
  two.Set(a, Value::Int(2));

  // Twin is the pre-existing row 1: row 0 passes through (a:2) — a dup of
  // row 1 — then moves on, and the final insert must still see row 1.
  {
    FlexibleRelation rel = seeded({1, 2});
    std::vector<FlexibleRelation::Mutation> batch;
    batch.push_back(FlexibleRelation::Mutation::Insert(nine));
    batch.push_back(FlexibleRelation::Mutation::Update(0, a, Value::Int(2)));
    batch.push_back(FlexibleRelation::Mutation::Update(0, a, Value::Int(5)));
    batch.push_back(FlexibleRelation::Mutation::Insert(two));
    Status s = rel.ApplyBatch(std::move(batch));
    ASSERT_EQ(s.code(), StatusCode::kAlreadyExists) << s;
    ASSERT_EQ(rel.size(), 2u);
    EXPECT_EQ(rel.row(0).Get(a)->as_int(), 1);
  }
  // Twin is the newer staged overlay of row 0: the batch-inserted row 1
  // passes through (a:2), moves on, and the final insert must still see
  // row 0's staged (a:2).
  {
    FlexibleRelation rel = seeded({1});
    std::vector<FlexibleRelation::Mutation> batch;
    batch.push_back(FlexibleRelation::Mutation::Insert(two));
    batch.push_back(FlexibleRelation::Mutation::Update(0, a, Value::Int(2)));
    batch.push_back(FlexibleRelation::Mutation::Update(1, a, Value::Int(5)));
    batch.push_back(FlexibleRelation::Mutation::Insert(two));
    Status s = rel.ApplyBatch(std::move(batch));
    ASSERT_EQ(s.code(), StatusCode::kAlreadyExists) << s;
    ASSERT_EQ(rel.size(), 1u);
    EXPECT_EQ(rel.row(0).Get(a)->as_int(), 1);
  }
  // The same prefix without the duplicating insert commits cleanly — the
  // erase-by-identity must not spuriously reject valid inserts either.
  {
    FlexibleRelation rel = seeded({1, 2});
    std::vector<FlexibleRelation::Mutation> batch;
    batch.push_back(FlexibleRelation::Mutation::Insert(nine));
    batch.push_back(FlexibleRelation::Mutation::Update(0, a, Value::Int(2)));
    batch.push_back(FlexibleRelation::Mutation::Update(0, a, Value::Int(5)));
    ASSERT_TRUE(rel.ApplyBatch(std::move(batch)).ok());
    ASSERT_EQ(rel.size(), 3u);
    EXPECT_EQ(rel.row(0).Get(a)->as_int(), 5);
  }
}

TEST(BatchMutationTest, FailedBatchLeavesRelationAndCacheUntouched) {
  auto ex = MakeEmployeeWorkload(SoakEmployeeConfig(SoakSeed(7), 60, 3));
  ASSERT_TRUE(ex.ok()) << ex.status();
  EmployeeWorkload& workload = *ex.value();
  FlexibleRelation& rel = workload.relation;
  Rng rng(SoakSeed(7));

  // Warm the cache so a leaky batch would corrupt something observable.
  SoakKeys keys;
  keys.partitions.push_back(AttrSet::Of(workload.id_attr));
  keys.partitions.push_back(AttrSet::Of(workload.jobtype_attr));
  keys.partitions.push_back(
      AttrSet{workload.id_attr, workload.jobtype_attr});
  keys.columns = {workload.id_attr, workload.jobtype_attr};
  std::shared_ptr<PliCache> cache = rel.pli_cache();
  for (const AttrSet& k : keys.partitions) (void)cache->Get(k);
  for (AttrId a : keys.columns) (void)cache->CodeColumnFor(a);

  const std::vector<Tuple> rows_before = rel.rows();
  auto expect_untouched = [&](const char* what) {
    ASSERT_EQ(rel.rows(), rows_before) << what << " mutated the relation";
    ASSERT_NO_FATAL_FAILURE(VerifyAgainstRebuild(rel, keys, what));
  };

  // Valid ops followed by an ill-typed insert: all-or-nothing.
  {
    std::vector<FlexibleRelation::Mutation> batch;
    batch.push_back(
        FlexibleRelation::Mutation::Insert(RandomEmployee(workload, &rng)));
    batch.push_back(FlexibleRelation::Mutation::Update(
        0, workload.id_attr, Value::Int(123456)));
    Tuple mistyped = RandomEmployee(workload, &rng);
    mistyped.Erase(workload.jobtype_attr);  // shape violation
    batch.push_back(FlexibleRelation::Mutation::Insert(std::move(mistyped)));
    Status s = rel.ApplyBatch(std::move(batch));
    ASSERT_FALSE(s.ok());
    expect_untouched("ill-typed batch");
  }
  // A duplicate insert *within* the batch trips set semantics.
  {
    Tuple t = RandomEmployee(workload, &rng);
    std::vector<FlexibleRelation::Mutation> batch;
    batch.push_back(FlexibleRelation::Mutation::Insert(t));
    batch.push_back(FlexibleRelation::Mutation::Insert(t));
    Status s = rel.ApplyBatch(std::move(batch));
    ASSERT_EQ(s.code(), StatusCode::kAlreadyExists) << s;
    expect_untouched("duplicate batch");
  }
  // An out-of-range update (even pointing just past the staged inserts).
  {
    std::vector<FlexibleRelation::Mutation> batch;
    batch.push_back(
        FlexibleRelation::Mutation::Insert(RandomEmployee(workload, &rng)));
    batch.push_back(FlexibleRelation::Mutation::Update(
        rel.size() + 1, workload.id_attr, Value::Int(7)));
    Status s = rel.ApplyBatch(std::move(batch));
    ASSERT_EQ(s.code(), StatusCode::kOutOfRange) << s;
    expect_untouched("out-of-range batch");
  }
  // A jobtype flip without fill values for the new variant's attributes.
  {
    std::vector<FlexibleRelation::Mutation> batch;
    size_t row = rng.Index(rel.size());
    int variant = static_cast<int>(rng.Index(workload.jobtype_values.size()));
    batch.push_back(FlexibleRelation::Mutation::Update(
        row, workload.jobtype_attr, workload.jobtype_values[variant]));
    Status s = rel.ApplyBatch(std::move(batch));
    if (!s.ok()) {  // same variant drawn -> no type change -> ok is fine
      ASSERT_EQ(s.code(), StatusCode::kFailedPrecondition) << s;
      expect_untouched("fill-less type change");
    }
  }
  // And after all those refusals, a valid batch still lands.
  ASSERT_TRUE(
      rel.InsertRows({RandomEmployee(workload, &rng)}).ok());
  EXPECT_EQ(rel.size(), rows_before.size() + 1);
}

// One insert, an update of that inserted row, and an update of an existing
// row, applied as one batch under the default options. The cache must see
// the batch as one net delta: flushing the inserts on their own would diff
// them against rows the batch's updates had already moved (the flush builds
// its missing value indexes from the current rows), leaving the
// single-attribute partition of `a` unequal to a rebuild.
TEST(BatchMutationTest, MixedInsertAndUpdateBatchFlushesOnceAndMatchesRebuild) {
  AttrCatalog catalog;
  const AttrId a = catalog.Intern("a");
  const AttrId b = catalog.Intern("b");
  FlexibleRelation rel = FlexibleRelation::Derived("mixed", DependencySet());
  const int64_t seed_rows[][2] = {{2, 0}, {2, 1}, {0, 0}, {0, 1}};
  for (const auto& [va, vb] : seed_rows) {
    Tuple t;
    t.Set(a, Value::Int(va));
    t.Set(b, Value::Int(vb));
    rel.InsertUnchecked(t);
  }
  std::shared_ptr<PliCache> cache = rel.pli_cache();
  for (AttrId x : {a, b}) (void)cache->Get(AttrSet::Of(x));
  const PliCache::StatsSnapshot before = cache->Stats();

  Tuple fresh;
  fresh.Set(a, Value::Int(1));
  fresh.Set(b, Value::Int(1));
  std::vector<FlexibleRelation::Mutation> batch;
  batch.push_back(FlexibleRelation::Mutation::Insert(fresh));
  batch.push_back(FlexibleRelation::Mutation::Update(4, a, Value::Int(0)));
  batch.push_back(FlexibleRelation::Mutation::Update(0, a, Value::Int(1)));
  ASSERT_TRUE(rel.ApplyBatch(std::move(batch)).ok());

  const PliCache::StatsSnapshot after = cache->Stats();
  EXPECT_EQ(after.flushes, before.flushes + 1) << "one flush per batch";
  EXPECT_EQ(after.publishes, before.publishes + 1) << "one publish per batch";
  PliCache rebuild(&rel.rows());
  for (AttrId x : {a, b}) {
    EXPECT_EQ(*cache->Get(AttrSet::Of(x)), *rebuild.Get(AttrSet::Of(x)))
        << "single-attribute partition of attr " << x << " diverged";
  }
}

// ---------------------------------------------------------------------------
// Randomized batch soak: InsertRows/UpdateRows/ApplyBatch bursts of sizes
// 1/8/64/512 interleaved with single-row ops and reads, every cached
// structure checked against from-scratch rebuilds after each round. The
// low drop_threshold makes the 512-row bursts cross the drop-everything
// arm, so all three flush policies are exercised in one soak.
// ---------------------------------------------------------------------------

TEST(EngineIncrementalSoak, BatchBurstsMatchRebuildsAcrossAllPolicies) {
  // The soak doubles as the telemetry accounting check: with the plane on,
  // the engine.pli_cache.* counters must balance exactly at the end —
  // every Get takes exactly one hit-or-miss arm, and every counted flush
  // exactly one per_row/batched/dropped arm.
  telemetry::Enable();
  telemetry::Registry::Global().Reset();
  Rng rng(SoakSeed(5));
  AttrCatalog catalog;
  std::vector<AttrId> attrs;
  for (int i = 0; i < 6; ++i) attrs.push_back(catalog.Intern(StrCat("d", i)));

  FlexibleRelation rel = FlexibleRelation::Derived("burst", DependencySet());
  // Let the 512-bursts hit the drop arm even after coalescing shrinks them
  // (same-row re-draws and value no-ops net out of the flush).
  PliCacheOptions options;
  options.drop_threshold = 128;
  rel.SetPliCacheOptions(options);
  for (int i = 0; i < 300; ++i) {
    rel.InsertUnchecked(RandomSoakTuple(attrs, &rng));
  }

  SoakKeys keys;
  for (AttrId a : attrs) keys.partitions.push_back(AttrSet::Of(a));
  keys.partitions.push_back(AttrSet{attrs[0], attrs[1]});
  keys.partitions.push_back(AttrSet{attrs[1], attrs[2], attrs[3]});
  keys.partitions.push_back(AttrSet());
  keys.columns = {attrs[0], attrs[2], attrs[5]};
  std::shared_ptr<PliCache> cache = rel.pli_cache();
  auto warm = [&] {
    for (const AttrSet& k : keys.partitions) (void)cache->Get(k);
    for (AttrId a : keys.columns) (void)cache->CodeColumnFor(a);
  };
  warm();

  auto random_update_burst = [&](size_t burst) {
    std::vector<FlexibleRelation::UpdateSpec> updates;
    updates.reserve(burst);
    for (size_t i = 0; i < burst; ++i) {
      updates.push_back({rng.Index(rel.size()), attrs[rng.Index(attrs.size())],
                         RandomSoakValue(&rng), Tuple()});
    }
    return updates;
  };

  const size_t kBursts[] = {1, 8, 64, 512};
  for (int round = 0; round < 30; ++round) {
    size_t burst = kBursts[rng.Index(4)];
    double dice = rng.UniformDouble();
    std::string what;
    if (dice < 0.25) {
      // Checked bulk insert; random tuples may collide with set semantics,
      // in which case the whole batch must bounce atomically. Insert
      // bursts stay small so the instance keeps its size class.
      size_t n = std::min<size_t>(burst, 8);
      std::vector<Tuple> rows;
      const std::vector<Tuple> before = rel.rows();
      for (size_t i = 0; i < n; ++i) {
        rows.push_back(RandomSoakTuple(attrs, &rng));
      }
      Status s = rel.InsertRows(std::move(rows));
      if (!s.ok()) {
        ASSERT_EQ(s.code(), StatusCode::kAlreadyExists) << s;
        ASSERT_EQ(rel.rows(), before) << "failed InsertRows must be a no-op";
      }
      what = StrCat("insert-rows(", n, s.ok() ? ",ok)" : ",dup)");
    } else if (dice < 0.55) {
      auto deltas = rel.UpdateRows(random_update_burst(burst));
      ASSERT_TRUE(deltas.ok()) << deltas.status();
      what = StrCat("update-rows(", burst, ")");
    } else if (dice < 0.8) {
      // Mixed transactional batch: updates interleaved with a few inserts,
      // some updates aimed at rows the same batch inserts.
      std::vector<FlexibleRelation::Mutation> batch;
      size_t inserted = 0;
      for (size_t i = 0; i < burst; ++i) {
        if (inserted < 4 && rng.Bernoulli(0.1)) {
          batch.push_back(FlexibleRelation::Mutation::Insert(
              RandomSoakTuple(attrs, &rng)));
          ++inserted;
        } else if (inserted > 0 && rng.Bernoulli(0.2)) {
          batch.push_back(FlexibleRelation::Mutation::Update(
              rel.size() + rng.Index(inserted), attrs[rng.Index(attrs.size())],
              RandomSoakValue(&rng)));
        } else {
          batch.push_back(FlexibleRelation::Mutation::Update(
              rng.Index(rel.size()), attrs[rng.Index(attrs.size())],
              RandomSoakValue(&rng)));
        }
      }
      const std::vector<Tuple> before = rel.rows();
      Status s = rel.ApplyBatch(std::move(batch));
      if (!s.ok()) {
        ASSERT_EQ(s.code(), StatusCode::kAlreadyExists) << s;
        ASSERT_EQ(rel.rows(), before) << "failed ApplyBatch must be a no-op";
      }
      what = StrCat("apply-batch(", burst, s.ok() ? ",ok)" : ",dup)");
    } else {
      // Single-row ops between bursts keep the per-row path in the mix.
      size_t row = rng.Index(rel.size());
      auto delta = rel.Update(row, attrs[rng.Index(attrs.size())],
                              RandomSoakValue(&rng));
      ASSERT_TRUE(delta.ok()) << delta.status();
      what = StrCat("single-update(row=", row, ")");
    }
    warm();  // re-reads (and rebuilds) whatever the burst's flush dropped
    ASSERT_NO_FATAL_FAILURE(VerifyAgainstRebuild(
        rel, keys, StrCat("burst round#", round, " [", what, "]")));
    {
      SCOPED_TRACE(StrCat("attr stats, burst round#", round, " [", what, "]"));
      ExpectAttrStatsMatchRows(rel);
    }
  }
  // Deterministic closing bursts so all three flush arms are exercised
  // regardless of the draw sequence above: a single update (per-row), a
  // mid-size burst (batched window), and an oversized one (drop).
  ASSERT_TRUE(rel.UpdateRows(random_update_burst(1)).ok());
  warm();
  ASSERT_NO_FATAL_FAILURE(VerifyAgainstRebuild(rel, keys, "final 1 burst"));
  ExpectAttrStatsMatchRows(rel);
  ASSERT_TRUE(rel.UpdateRows(random_update_burst(48)).ok());
  warm();
  ASSERT_NO_FATAL_FAILURE(VerifyAgainstRebuild(rel, keys, "final 48 burst"));
  ExpectAttrStatsMatchRows(rel);
  ASSERT_TRUE(rel.UpdateRows(random_update_burst(512)).ok());
  warm();
  ASSERT_NO_FATAL_FAILURE(VerifyAgainstRebuild(rel, keys, "final 512 burst"));
  ExpectAttrStatsMatchRows(rel);
  EXPECT_GT(cache->Stats().patches, 0u) << "per-row path never ran";
  EXPECT_GT(cache->Stats().batch_applies, 0u) << "batched path never ran";
  EXPECT_GT(cache->Stats().full_drops, 0u) << "drop-everything path never ran";
  EXPECT_EQ(cache.get(), rel.pli_cache().get())
      << "batched maintenance must keep the attached cache alive";

  // Telemetry accounting invariants over the whole soak (every cache in
  // the test shares the process-global registry, so these hold across the
  // soak cache and the rebuild oracles alike).
  auto& registry = telemetry::Registry::Global();
  const uint64_t lookups =
      registry.CounterValue("engine.pli_cache.lookups");
  const uint64_t hits = registry.CounterValue("engine.pli_cache.hits");
  const uint64_t misses = registry.CounterValue("engine.pli_cache.misses");
  EXPECT_GT(lookups, 0u);
  EXPECT_EQ(hits + misses, lookups);
  const uint64_t flushes =
      registry.CounterValue("engine.pli_cache.flushes");
  const uint64_t per_row =
      registry.CounterValue("engine.pli_cache.flush.per_row");
  const uint64_t batched =
      registry.CounterValue("engine.pli_cache.flush.batched");
  const uint64_t dropped =
      registry.CounterValue("engine.pli_cache.flush.dropped");
  EXPECT_GT(flushes, 0u);
  EXPECT_GT(per_row, 0u);
  EXPECT_GT(batched, 0u);
  EXPECT_GT(dropped, 0u);
  EXPECT_EQ(per_row + batched + dropped, flushes);
  // Flush-phase histograms: each phase is timed at most once per counted
  // flush and nests inside the flush's own timer, so no phase can out-count
  // the flushes or out-sum flush_ns. Every patching flush runs all three.
  const telemetry::Histogram::Snapshot flush_ns =
      registry.GetHistogram("engine.pli_cache.flush_ns")->Snap();
  for (const char* phase :
       {"engine.pli_cache.flush.clone_ns", "engine.pli_cache.flush.patch_ns",
        "engine.pli_cache.flush.publish_ns"}) {
    const telemetry::Histogram::Snapshot snap =
        registry.GetHistogram(phase)->Snap();
    EXPECT_GT(snap.count, 0u) << phase;
    EXPECT_LE(snap.count, flushes) << phase;
    EXPECT_LE(snap.sum, flush_ns.sum) << phase;
  }
  telemetry::Disable();
  registry.Reset();
}

// ---------------------------------------------------------------------------
// The adaptive policy against its pinned references and a from-scratch
// rebuild: batch_threshold = SIZE_MAX forces the per-row path,
// incremental = false the drop-everything oracle, and a fresh PliCache over
// the adaptive relation's rows is the semantic oracle every flush arm is
// asserted structurally equal to. One identical mutation stream, three
// relations, every tracked structure equal after every burst.
// ---------------------------------------------------------------------------

TEST(EngineIncrementalSoak, AdaptivePolicyMatchesPerRowAndDropOracles) {
  Rng rng(SoakSeed(6));
  AttrCatalog catalog;
  std::vector<AttrId> attrs;
  for (int i = 0; i < 5; ++i) attrs.push_back(catalog.Intern(StrCat("e", i)));

  FlexibleRelation adaptive =
      FlexibleRelation::Derived("adaptive", DependencySet());
  FlexibleRelation per_row =
      FlexibleRelation::Derived("per-row", DependencySet());
  FlexibleRelation oracle = FlexibleRelation::Derived("ora", DependencySet());
  // A low drop threshold lets the closing 512-burst cross the drop arm on
  // a 150-row instance (rows/2 = 75 would otherwise dominate).
  PliCacheOptions adaptive_options;
  adaptive_options.drop_threshold = 128;
  adaptive.SetPliCacheOptions(adaptive_options);
  PliCacheOptions pinned;
  pinned.batch_threshold = SIZE_MAX;
  pinned.drop_threshold = SIZE_MAX;
  per_row.SetPliCacheOptions(pinned);
  PliCacheOptions drop_everything;
  drop_everything.incremental = false;
  oracle.SetPliCacheOptions(drop_everything);
  FlexibleRelation* rels[] = {&adaptive, &per_row, &oracle};

  SoakKeys keys;
  for (AttrId a : attrs) keys.partitions.push_back(AttrSet::Of(a));
  keys.partitions.push_back(AttrSet{attrs[0], attrs[2]});
  keys.columns = {attrs[1], attrs[3]};
  auto touch = [&](FlexibleRelation* rel) {
    std::shared_ptr<PliCache> cache = rel->pli_cache();
    for (const AttrSet& k : keys.partitions) (void)cache->Get(k);
    for (AttrId a : keys.columns) (void)cache->CodeColumnFor(a);
  };

  // Identical instances: one draw per row, applied to every relation.
  for (int i = 0; i < 150; ++i) {
    Tuple t = RandomSoakTuple(attrs, &rng);
    for (FlexibleRelation* rel : rels) rel->InsertUnchecked(t);
  }
  for (FlexibleRelation* rel : rels) touch(rel);

  auto assert_all_equal = [&](const std::string& context) {
    std::shared_ptr<PliCache> lhs = adaptive.pli_cache();
    std::shared_ptr<PliCache> mid = per_row.pli_cache();
    std::shared_ptr<PliCache> rhs = oracle.pli_cache();
    PliCache rebuild(&adaptive.rows());
    for (const AttrSet& k : keys.partitions) {
      ASSERT_EQ(*lhs->Get(k), *rebuild.Get(k))
          << context << " adaptive vs rebuild " << k.ToString();
      ASSERT_EQ(lhs->Get(k)->defined_rows(), rebuild.Get(k)->defined_rows())
          << context << " " << k.ToString();
      ASSERT_EQ(*lhs->Get(k), *mid->Get(k))
          << context << " adaptive vs per-row " << k.ToString();
      ASSERT_EQ(*lhs->Get(k), *rhs->Get(k))
          << context << " adaptive vs oracle " << k.ToString();
      ASSERT_EQ(lhs->Get(k)->defined_rows(), rhs->Get(k)->defined_rows())
          << context << " " << k.ToString();
      std::string err;
      ASSERT_TRUE(lhs->Get(k)->CheckInvariants(&err)) << context << err;
      ASSERT_TRUE(mid->Get(k)->CheckInvariants(&err)) << context << err;
    }
    for (AttrId a : keys.columns) {
      for (FlexibleRelation* rel : rels) {
        ASSERT_NO_FATAL_FAILURE(VerifyColumnMatchesFreshBuild(
            *rel->pli_cache()->CodeColumnFor(a), rel->rows(),
            StrCat(context, " ", rel->name(), " column of attr ", a)));
      }
    }
  };
  auto run_burst = [&](size_t burst, const std::string& context) {
    std::vector<FlexibleRelation::UpdateSpec> updates;
    for (size_t i = 0; i < burst; ++i) {
      updates.push_back({rng.Index(adaptive.size()),
                         attrs[rng.Index(attrs.size())],
                         RandomSoakValue(&rng), Tuple()});
    }
    for (FlexibleRelation* rel : rels) {
      auto copy = updates;
      ASSERT_TRUE(rel->UpdateRows(std::move(copy)).ok());
      touch(rel);
    }
    ASSERT_NO_FATAL_FAILURE(assert_all_equal(context));
  };

  const size_t kBursts[] = {1, 8, 64};
  for (int round = 0; round < 20; ++round) {
    // The last round always runs the largest random burst, so the batched
    // arm is exercised (and the batch_applies assertions below hold) for
    // every seed.
    size_t burst = round == 19 ? 64 : kBursts[rng.Index(3)];
    ASSERT_NO_FATAL_FAILURE(run_burst(burst, StrCat("round#", round)));
  }
  // Deterministic closing bursts pin the rebuild equality on each of the
  // three flush arms regardless of the draws above: a single update
  // (per-row), a mid-size burst (batched window), and one crossing the
  // lowered drop threshold (drop-everything).
  ASSERT_NO_FATAL_FAILURE(run_burst(1, "closing per-row burst"));
  ASSERT_NO_FATAL_FAILURE(run_burst(64, "closing batched burst"));
  ASSERT_NO_FATAL_FAILURE(run_burst(512, "closing drop burst"));
  // The maintenance modes must actually have diverged in mechanism, and
  // the adaptive cache must have walked every arm.
  EXPECT_GT(adaptive.pli_cache()->Stats().batch_applies, 0u);
  EXPECT_GT(adaptive.pli_cache()->Stats().full_drops, 0u);
  EXPECT_GT(adaptive.pli_cache()->Stats().patches, 0u);
  EXPECT_EQ(per_row.pli_cache()->Stats().batch_applies, 0u);
  EXPECT_GT(per_row.pli_cache()->Stats().patches, 0u);
  EXPECT_EQ(oracle.pli_cache()->Stats().patches, 0u);
}

}  // namespace
}  // namespace flexrel
