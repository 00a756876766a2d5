// Concurrency soak for the PliCache's copy-on-write snapshot plane: N
// reader threads resolve cached partitions, probes, and code columns
// through the published snapshot while M writer threads mutate the
// relation, and every structure a reader observes must be internally
// coherent — CheckInvariants holds, and the probe describes exactly the
// partition's clustering (a label bijection) whenever both were bracketed
// inside one epoch. At quiesce, everything must equal a from-scratch
// rebuild, and a 30-seed single-threaded soak checks the same equality
// every 12 mutations.
//
// The reader threads deliberately touch only pre-warmed keys: the row
// vector itself is NOT under the snapshot contract (mutators synchronize
// rows() access externally, see src/engine/README.md), so a cold miss —
// which rebuilds from rows() — belongs to the write side. Warmed singles,
// pairs, and columns are never dropped by sub-threshold per-row flushes,
// so every reader access resolves against immutable snapshot structures.
// This is the suite the CI TSan job runs; a writer publishing a structure
// it then patches is a data-race report, not just an assertion failure.
//
// Randomized parts take their seed from FLEXREL_TEST_SEED (CI seed
// diversity) via tests/test_seed.h and print it for replay.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/discovery.h"
#include "core/flexible_relation.h"
#include "engine/parallel_discovery.h"
#include "engine/pli_cache.h"
#include "engine/validator.h"
#include "engine_test_util.h"
#include "telemetry/telemetry.h"
#include "test_seed.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace flexrel {
namespace {

uint64_t ConcurrencySeed(uint64_t salt) {
  return TestSeed(0xC0C0D0DE5EED0001ull, salt, "concurrency");
}

Value RandomValue(Rng* rng) {
  switch (rng->UniformInt(0, 3)) {
    case 0:
      return Value::Int(rng->UniformInt(0, 4));  // few values -> fat clusters
    case 1:
      return Value::Str(StrCat("s", rng->UniformInt(0, 2)));
    case 2:
      return Value::Null();
    default:
      return Value::Int(rng->UniformInt(0, 1000));  // mostly-unique tail
  }
}

Tuple RandomTuple(const std::vector<AttrId>& attrs, Rng* rng) {
  Tuple t;
  for (AttrId a : attrs) {
    if (rng->Bernoulli(0.75)) t.Set(a, RandomValue(rng));
  }
  return t;
}

// The probe of a partition must be the partition's clustering in label
// form: every cluster carries exactly one label, every label names exactly
// one cluster, every row outside all clusters is kNoCluster, and labeled
// rows account for grouped_rows() exactly. Unlike the incremental suite's
// VerifyProbeEquivalent this needs no rebuild — it is safe to run against
// a live snapshot while writers advance the relation.
void VerifyProbeBijection(const Pli& pli, const PliProbe& probe,
                          const std::string& context) {
  ASSERT_EQ(probe.labels.size(), pli.num_rows()) << context;
  std::unordered_map<int32_t, size_t> label_to_cluster;
  size_t labeled_rows = 0;
  for (size_t c = 0; c < pli.num_clusters(); ++c) {
    Pli::ClusterView cluster = pli.cluster(c);
    ASSERT_FALSE(cluster.empty()) << context;
    const int32_t label = probe.labels[cluster.front()];
    ASSERT_NE(label, Pli::kNoCluster)
        << context << " cluster " << c << " front row unlabeled";
    ASSERT_GE(label, 0) << context;
    ASSERT_LT(label, probe.label_bound)
        << context << " cluster " << c << " label breaks the bound";
    auto [it, fresh] = label_to_cluster.try_emplace(label, c);
    ASSERT_TRUE(fresh) << context << " label " << label << " names clusters "
                       << it->second << " and " << c;
    for (Pli::RowId row : cluster) {
      ASSERT_EQ(probe.labels[row], label)
          << context << " row " << row << " strays from cluster " << c;
    }
    labeled_rows += cluster.size();
  }
  EXPECT_EQ(labeled_rows, pli.grouped_rows()) << context;
  size_t labeled_in_probe = 0;
  for (int32_t l : probe.labels) {
    if (l != Pli::kNoCluster) ++labeled_in_probe;
  }
  EXPECT_EQ(labeled_in_probe, labeled_rows)
      << context << " probe labels rows outside every cluster";
}

struct WarmKeys {
  std::vector<AttrSet> partitions;  // singles first, then composites
  std::vector<AttrId> columns;      // every attribute
};

WarmKeys WarmCache(PliCache* cache, const std::vector<AttrId>& attrs) {
  WarmKeys keys;
  for (AttrId a : attrs) keys.partitions.push_back(AttrSet::Of(a));
  keys.partitions.push_back(AttrSet{attrs[0], attrs[1]});
  keys.partitions.push_back(AttrSet{attrs[2], attrs[3]});
  keys.partitions.push_back(AttrSet{attrs[0], attrs[2], attrs[4]});
  keys.partitions.push_back(AttrSet());
  keys.columns = attrs;
  for (const AttrSet& k : keys.partitions) (void)cache->Get(k);
  for (AttrId a : keys.columns) (void)cache->CodeColumnFor(a);
  for (AttrId a : attrs) (void)cache->ProbeFor(a);
  return keys;
}

// Every warmed partition, probe and code column against a from-scratch
// cache over the same rows. Single-threaded callers only (or at quiesce).
void VerifyAgainstRebuild(const FlexibleRelation& rel, const WarmKeys& keys,
                          const std::string& context) {
  std::shared_ptr<PliCache> cache = rel.pli_cache();
  PliCache rebuild(&rel.rows());
  for (const AttrSet& k : keys.partitions) {
    std::shared_ptr<const Pli> cached = cache->Get(k);
    std::shared_ptr<const Pli> fresh = rebuild.Get(k);
    ASSERT_EQ(*cached, *fresh)
        << context << " partition " << k.ToString() << " diverged";
    std::string err;
    ASSERT_TRUE(cached->CheckInvariants(&err))
        << context << " partition " << k.ToString() << ": " << err;
    if (k.size() == 1) {
      ASSERT_NO_FATAL_FAILURE(VerifyProbeBijection(
          *cached, *cache->ProbeFor(k.ids().front()),
          StrCat(context, " probe of ", k.ToString())));
    }
  }
  for (AttrId a : keys.columns) {
    ASSERT_NO_FATAL_FAILURE(testutil::VerifyColumnMatchesFreshBuild(
        *cache->CodeColumnFor(a), rel.rows(),
        StrCat(context, " code column of attr ", a)));
  }
}

// ---------------------------------------------------------------------------
// The tentpole contract: N readers × M writers, readers lock-free.
// ---------------------------------------------------------------------------

TEST(EngineConcurrencySoak, ReadersObserveCoherentSnapshotsUnderWriters) {
  telemetry::Enable();
  const uint64_t seed = ConcurrencySeed(1);

  AttrCatalog catalog;
  std::vector<AttrId> attrs;
  for (int i = 0; i < 6; ++i) attrs.push_back(catalog.Intern(StrCat("c", i)));
  FlexibleRelation rel = FlexibleRelation::Derived("cc", DependencySet());
  {
    Rng seed_rng(seed);
    for (int i = 0; i < 200; ++i) {
      rel.InsertUnchecked(RandomTuple(attrs, &seed_rng));
    }
  }
  std::shared_ptr<PliCache> cache = rel.pli_cache();
  const WarmKeys keys = WarmCache(cache.get(), attrs);
  ASSERT_GT(cache->SnapshotEpoch(), 0u) << "warming must have published";

  constexpr int kReaders = 4;
  constexpr int kWriters = 2;
  constexpr int kOpsPerWriter = 300;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> bracketed_checks{0};

  // Writers synchronize the row vector among themselves — that is the
  // documented external contract; the snapshot plane only covers the
  // cached structures readers resolve.
  std::mutex write_mu;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(seed ^ (0x5151u + static_cast<uint64_t>(w) * 7919));
      for (int op = 0; op < kOpsPerWriter; ++op) {
        std::lock_guard<std::mutex> lock(write_mu);
        if (rng.Bernoulli(0.3)) {
          rel.InsertUnchecked(RandomTuple(attrs, &rng));
        } else {
          size_t row = rng.Index(rel.size());
          AttrId attr = attrs[rng.Index(attrs.size())];
          Value v = RandomValue(&rng);
          ASSERT_TRUE(rel.Update(row, attr, v).ok());
        }
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Rng rng(seed ^ (0xAAAAu + static_cast<uint64_t>(r) * 104729));
      // The iteration floor keeps the soak meaningful even when the writers
      // outrun reader startup: post-quiesce reads always bracket cleanly.
      for (uint64_t iter = 0;
           !done.load(std::memory_order_acquire) || iter < 50; ++iter) {
        const AttrSet& key =
            keys.partitions[rng.Index(keys.partitions.size())];
        // Epoch-bracketing: equal epochs before and after prove the pli
        // and the probe came from one snapshot — only then is the
        // probe↔cluster bijection a valid cross-structure assertion.
        const uint64_t epoch_before = cache->SnapshotEpoch();
        std::shared_ptr<const Pli> pli = cache->Get(key);
        std::string err;
        EXPECT_TRUE(pli->CheckInvariants(&err))
            << "reader " << r << " partition " << key.ToString() << ": "
            << err;
        if (key.size() == 1) {
          std::shared_ptr<const PliProbe> probe =
              cache->ProbeFor(key.ids().front());
          if (cache->SnapshotEpoch() == epoch_before) {
            ASSERT_NO_FATAL_FAILURE(VerifyProbeBijection(
                *pli, *probe,
                StrCat("reader ", r, " probe of ", key.ToString())));
            bracketed_checks.fetch_add(1, std::memory_order_relaxed);
          }
        }
        std::shared_ptr<const CodeColumn> column = cache->CodeColumnFor(
            keys.columns[rng.Index(keys.columns.size())]);
        std::string column_err;
        EXPECT_TRUE(column->CheckInvariants(&column_err))
            << "reader " << r << " code column: " << column_err;
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  done.store(true, std::memory_order_release);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  EXPECT_GT(bracketed_checks.load(), 0u)
      << "the soak never caught a quiet epoch; weaken the write storm";
  ASSERT_NO_FATAL_FAILURE(VerifyAgainstRebuild(rel, keys, "quiesce"));

  const PliCache::StatsSnapshot stats = cache->Stats();
  EXPECT_EQ(stats.publishes, stats.flushes)
      << "every flush must publish exactly once";
  EXPECT_GT(stats.publishes, 0u);
  EXPECT_GE(stats.epoch, stats.publishes);
  telemetry::Disable();
}

// ---------------------------------------------------------------------------
// Maintained cache vs the from-scratch rebuild oracle, 30 seeds.
// ---------------------------------------------------------------------------

TEST(EngineConcurrencySoak, MaintainedCacheMatchesRebuildAcrossSeeds) {
  const uint64_t base = ConcurrencySeed(2);
  for (uint64_t s = 0; s < 30; ++s) {
    Rng rng(base + s * 0x9E3779B97F4A7C15ull);
    AttrCatalog catalog;
    std::vector<AttrId> attrs;
    for (int i = 0; i < 5; ++i) {
      attrs.push_back(catalog.Intern(StrCat("d", i)));
    }
    FlexibleRelation rel = FlexibleRelation::Derived("soak", DependencySet());
    for (int i = 0; i < 40; ++i) rel.InsertUnchecked(RandomTuple(attrs, &rng));
    const WarmKeys keys = WarmCache(rel.pli_cache().get(), attrs);

    for (int op = 0; op < 60; ++op) {
      if (rng.Bernoulli(0.5)) {
        rel.InsertUnchecked(RandomTuple(attrs, &rng));
      } else {
        size_t row = rng.Index(rel.size());
        AttrId attr = attrs[rng.Index(attrs.size())];
        Value v = RandomValue(&rng);
        ASSERT_TRUE(rel.Update(row, attr, v).ok()) << "seed#" << s;
      }
      if (op % 12 == 11) {
        ASSERT_NO_FATAL_FAILURE(
            VerifyAgainstRebuild(rel, keys, StrCat("seed#", s, " op#", op)));
      }
    }
    ASSERT_NO_FATAL_FAILURE(
        VerifyAgainstRebuild(rel, keys, StrCat("seed#", s, " quiesce")));

    const PliCache::StatsSnapshot stats = rel.pli_cache()->Stats();
    ASSERT_EQ(stats.publishes, stats.flushes) << "seed#" << s;
    ASSERT_GT(stats.publishes, 0u) << "seed#" << s;
    ASSERT_EQ(rel.pli_cache()->SnapshotEpoch(), stats.epoch) << "seed#" << s;
  }
}

// ---------------------------------------------------------------------------
// Frozen-at-epoch semantics: a held snapshot structure never moves.
// ---------------------------------------------------------------------------

TEST(EngineConcurrencySoak, HeldSnapshotStructuresAreFrozenAcrossEpochs) {
  AttrCatalog catalog;
  AttrId a = catalog.Intern("a");
  FlexibleRelation rel = FlexibleRelation::Derived("frozen", DependencySet());
  for (int i = 0; i < 8; ++i) {
    Tuple t;
    t.Set(a, Value::Int(i % 2));
    rel.InsertUnchecked(t);
  }
  std::shared_ptr<PliCache> cache = rel.pli_cache();
  std::shared_ptr<const Pli> held = cache->Get(AttrSet::Of(a));
  const Pli before = *held;  // deep copy: the frozen-state oracle
  std::shared_ptr<const CodeColumn> held_column = cache->CodeColumnFor(a);
  const CodeColumn column_before = *held_column;
  const uint64_t epoch_before = cache->SnapshotEpoch();

  ASSERT_TRUE(rel.Update(0, a, Value::Int(41)).ok());
  ASSERT_TRUE(rel.Update(1, a, Value::Int(42)).ok());

  // The held pointer still describes the epoch it was read from...
  EXPECT_EQ(*held, before)
      << "a published partition was patched in place under a reader";
  EXPECT_EQ(held_column->codes(), column_before.codes())
      << "a published code column was patched in place under a reader";
  for (CodeColumn::Code c = 0; c < column_before.code_bound(); ++c) {
    EXPECT_EQ(held_column->Bucket(c), column_before.Bucket(c)) << "code " << c;
  }
  EXPECT_GT(cache->SnapshotEpoch(), epoch_before);
  // ...while a re-read resolves the successor epoch's structure.
  std::shared_ptr<const Pli> fresh = cache->Get(AttrSet::Of(a));
  EXPECT_NE(fresh.get(), held.get());
  PliCache rebuild(&rel.rows());
  EXPECT_EQ(*fresh, *rebuild.Get(AttrSet::Of(a)));
  std::shared_ptr<const CodeColumn> fresh_column = cache->CodeColumnFor(a);
  EXPECT_NE(fresh_column.get(), held_column.get());
  testutil::VerifyColumnMatchesFreshBuild(*fresh_column, rel.rows(),
                                          "re-read column");
}

// A publish releases the epoch it supersedes: once no reader holds them,
// the structures a flush replaced are freed by that flush's publish, not
// kept alive in the spare slot until the next one.
TEST(EngineConcurrencySoak, SupersededSnapshotIsReleasedAtPublish) {
  AttrCatalog catalog;
  AttrId a = catalog.Intern("a");
  FlexibleRelation rel = FlexibleRelation::Derived("release", DependencySet());
  for (int i = 0; i < 8; ++i) {
    Tuple t;
    t.Set(a, Value::Int(i % 2));
    rel.InsertUnchecked(t);
  }
  std::shared_ptr<PliCache> cache = rel.pli_cache();
  std::weak_ptr<const CodeColumn> old_column = cache->CodeColumnFor(a);
  std::weak_ptr<const Pli> old_partition = cache->Get(AttrSet::Of(a));
  ASSERT_FALSE(old_column.expired());  // the published snapshot holds it
  const uint64_t epoch_before = cache->SnapshotEpoch();

  ASSERT_TRUE(rel.Update(0, a, Value::Int(41)).ok());

  EXPECT_GT(cache->SnapshotEpoch(), epoch_before);
  EXPECT_TRUE(old_column.expired())
      << "the superseded code column outlived the publish that replaced it";
  EXPECT_TRUE(old_partition.expired())
      << "the superseded partition outlived the publish that replaced it";
  EXPECT_TRUE(cache->SnapshotPinsDrained());
  testutil::VerifyColumnMatchesFreshBuild(*cache->CodeColumnFor(a), rel.rows(),
                                          "successor column");
}

// ---------------------------------------------------------------------------
// Coalesced build-driven refreshes: cache population republishes once per
// 1/kRefreshLagDivisor of the table, not once per miss. Default cache
// options throughout — the configuration the library ships with — over a
// fixed wide planted-FD instance whose 2-attribute lattice level overflows
// the 1024-entry bound, so discovery both builds and evicts.
// ---------------------------------------------------------------------------

testutil::PlantedFdInstance WidePlantedInstance() {
  Rng rng(0x51DE5EEDull);  // fixed: the bounds below are exact counts
  return testutil::MakePlantedFdInstance(&rng, /*num_rows=*/384,
                                         /*num_attrs=*/64, /*num_planted=*/4,
                                         /*domain=*/6, /*absence=*/0.15);
}

TEST(CacheRefreshCoalescing, LevelWiseDiscoveryStaysUnderTheRefreshBound) {
  telemetry::Enable();
  const testutil::PlantedFdInstance inst = WidePlantedInstance();
  const uint64_t refreshes_before =
      telemetry::CounterValue("engine.pli_cache.snapshot_refreshes");
  PliCache cache(&inst.rows);
  DependencyValidator validator(&cache);
  EngineDiscoveryOptions options;
  const DependencySet found =
      EngineDiscoverDependencies(&validator, inst.universe, options);
  const uint64_t refreshes =
      telemetry::CounterValue("engine.pli_cache.snapshot_refreshes") -
      refreshes_before;
  const PliCache::StatsSnapshot stats = cache.Stats();
  EXPECT_GT(stats.evictions, 0u) << "the instance must overflow the cache";
  // A refresh per miss (or per eviction) breaks this by a wide margin.
  EXPECT_GT(stats.misses, 0u);
  EXPECT_LE(refreshes * 4, stats.misses)
      << refreshes << " build-driven refreshes for " << stats.misses
      << " misses";
  EXPECT_EQ(stats.publishes, 0u) << "discovery never flushes";
  // Coalescing changes when entries become lock-free, never the answer.
  DiscoveryOptions brute;
  brute.max_lhs_size = options.max_lhs_size;
  brute.minimal_only = options.minimal_only;
  brute.use_engine = false;
  const DependencySet oracle =
      DiscoverDependencies(inst.rows, inst.universe, brute);
  EXPECT_EQ(found.fds(), oracle.fds());
  EXPECT_EQ(found.ads(), oracle.ads());
  telemetry::Disable();
}

TEST(CacheRefreshCoalescing, EvictedPartitionIsReleasedWithinTheLagBound) {
  const testutil::PlantedFdInstance inst = WidePlantedInstance();
  PliCache cache(&inst.rows);
  const std::vector<AttrSet> pairs = LatticeLevel(inst.universe, 2);
  const size_t capacity = cache.options().max_entries;
  // Once evicted, a partition's only owner is the stale snapshot, which is
  // replaced once the changes since the last publish reach the table size
  // / kRefreshLagDivisor. The table holds the entries plus at most one
  // probe per attribute, and with the cache full every further miss is
  // two changes: one entry added, one evicted.
  const size_t table = capacity + 2 * inst.universe.size();
  const size_t lag_changes = table / PliCache::kRefreshLagDivisor + 1;
  const size_t lag_bound = (lag_changes + 1) / 2;
  ASSERT_GT(pairs.size(), capacity + 4 * lag_bound);
  // COW hits never touch the LRU and every pair is built once, so pairs
  // leave in build order: pairs[j] is the (j+1)-th eviction. Walking
  // several lag bounds past the first eviction covers every phase of the
  // refresh cycle.
  std::vector<std::weak_ptr<const Pli>> held;
  std::vector<size_t> evicted_at;  // build index of pairs[j]'s eviction
  for (size_t n = 0; n < capacity + 4 * lag_bound; ++n) {
    held.push_back(cache.Get(pairs[n]));
    while (evicted_at.size() < cache.Stats().evictions) {
      evicted_at.push_back(n);
    }
    for (size_t j = 0; j < evicted_at.size(); ++j) {
      if (n - evicted_at[j] < lag_bound) break;
      ASSERT_TRUE(held[j].expired())
          << pairs[j].ToString() << " outlived its eviction at build "
          << evicted_at[j] << " by " << n - evicted_at[j]
          << " builds (lag bound " << lag_bound << ")";
    }
  }
  EXPECT_GE(evicted_at.size(), 3 * lag_bound);
  EXPECT_TRUE(cache.SnapshotPinsDrained());
}

TEST(CacheRefreshCoalescing, UnpublishedEntryIsServedByTheLockedLookup) {
  const testutil::PlantedFdInstance inst = WidePlantedInstance();
  PliCache cache(&inst.rows);
  for (AttrId a : inst.universe) (void)cache.Get(AttrSet::Of(a));
  // Build pairs until one lands without a refresh: that entry is in the
  // live table but not in the published snapshot.
  const std::vector<AttrSet> pairs = LatticeLevel(inst.universe, 2);
  AttrSet key;
  std::shared_ptr<const Pli> built;
  uint64_t epoch = 0;
  for (const AttrSet& pair : pairs) {
    epoch = cache.SnapshotEpoch();
    std::shared_ptr<const Pli> p = cache.Get(pair);
    if (cache.SnapshotEpoch() == epoch) {
      key = pair;
      built = std::move(p);
      break;
    }
  }
  ASSERT_NE(built, nullptr) << "every build refreshed the snapshot";
  const PliCache::StatsSnapshot before = cache.Stats();

  std::shared_ptr<const Pli> seen;
  std::thread reader([&] { seen = cache.Get(key); });
  reader.join();

  ASSERT_NE(seen, nullptr);
  EXPECT_EQ(seen.get(), built.get()) << "the reader rebuilt the entry";
  PliCache fresh(&inst.rows);
  EXPECT_EQ(*seen, *fresh.Get(key));
  const PliCache::StatsSnapshot after = cache.Stats();
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(cache.SnapshotEpoch(), epoch) << "a hit must not republish";
}

}  // namespace
}  // namespace flexrel
