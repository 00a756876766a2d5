#include "engine/pli.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "engine/pli_cache.h"
#include "engine/validator.h"
#include "util/rng.h"

namespace flexrel {
namespace {

// Random heterogeneous instance: each row carries each of `num_attrs`
// attributes with probability `density`, values in [0, spread].
std::vector<Tuple> RandomRows(Rng* rng, size_t n, AttrId num_attrs,
                              double density, int64_t spread,
                              double null_fraction = 0.0) {
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Tuple t;
    for (AttrId a = 0; a < num_attrs; ++a) {
      if (!rng->Bernoulli(density)) continue;
      if (null_fraction > 0 && rng->Bernoulli(null_fraction)) {
        t.Set(a, Value::Null());
      } else {
        t.Set(a, Value::Int(rng->UniformInt(0, spread)));
      }
    }
    rows.push_back(std::move(t));
  }
  return rows;
}

TEST(PliTest, SingleAttributeClusters) {
  std::vector<Tuple> rows;
  for (int v : {1, 2, 1, 3, 2, 1}) {
    Tuple t;
    t.Set(0, Value::Int(v));
    rows.push_back(std::move(t));
  }
  Pli pli = Pli::Build(rows, AttrId{0});
  // Value 1 -> rows {0, 2, 5}, value 2 -> rows {1, 4}; value 3 is stripped.
  ASSERT_EQ(pli.num_clusters(), 2u);
  EXPECT_EQ(pli.clusters()[0], (Pli::Cluster{0, 2, 5}));
  EXPECT_EQ(pli.clusters()[1], (Pli::Cluster{1, 4}));
  EXPECT_EQ(pli.grouped_rows(), 5u);
  EXPECT_EQ(pli.num_rows(), rows.size());
}

TEST(PliTest, AbsentRowsStayOutOfThePartition) {
  std::vector<Tuple> rows(4);
  rows[0].Set(0, Value::Int(7));
  rows[1].Set(1, Value::Int(7));  // not defined on attr 0
  rows[2].Set(0, Value::Int(7));
  rows[3].Set(0, Value::Int(7));
  Pli pli = Pli::Build(rows, AttrId{0});
  ASSERT_EQ(pli.num_clusters(), 1u);
  EXPECT_EQ(pli.clusters()[0], (Pli::Cluster{0, 2, 3}));
}

TEST(PliTest, NullIsAValueAbsenceIsNot) {
  // Definition 4.1/4.2 quantify over tuples *defined on* X; an explicit
  // null is defined and equals null, an absent attribute is out of scope.
  std::vector<Tuple> rows(4);
  rows[0].Set(0, Value::Null());
  rows[1].Set(0, Value::Null());
  rows[2].Set(1, Value::Int(1));  // attr 0 absent
  rows[3].Set(0, Value::Int(5));  // singleton value
  Pli pli = Pli::Build(rows, AttrId{0});
  ASSERT_EQ(pli.num_clusters(), 1u);
  EXPECT_EQ(pli.clusters()[0], (Pli::Cluster{0, 1}));
}

TEST(PliTest, EmptyAttrSetGroupsAllRows) {
  std::vector<Tuple> rows(3);
  rows[0].Set(0, Value::Int(1));
  rows[1].Set(1, Value::Int(2));
  Pli pli = Pli::Build(rows, AttrSet{});
  ASSERT_EQ(pli.num_clusters(), 1u);
  EXPECT_EQ(pli.clusters()[0], (Pli::Cluster{0, 1, 2}));
}

TEST(PliTest, ProbeTableInvertsClusters) {
  Rng rng(3);
  std::vector<Tuple> rows = RandomRows(&rng, 50, 3, 0.7, 4);
  Pli pli = Pli::Build(rows, AttrId{1});
  PliProbe probe = pli.BuildProbe();
  ASSERT_EQ(probe.labels.size(), rows.size());
  EXPECT_EQ(probe.label_bound, static_cast<int32_t>(pli.num_clusters()));
  size_t in_clusters = 0;
  for (size_t i = 0; i < probe.labels.size(); ++i) {
    if (probe.labels[i] == Pli::kNoCluster) continue;
    ++in_clusters;
    Pli::ClusterView c = pli.clusters()[static_cast<size_t>(probe.labels[i])];
    EXPECT_NE(std::find(c.begin(), c.end(), static_cast<uint32_t>(i)),
              c.end());
  }
  EXPECT_EQ(in_clusters, pli.grouped_rows());
}

TEST(PliTest, IntersectionEqualsDirectBuild) {
  // The algebraic core: partition(X) ∩ partition(Y) == partition(X ∪ Y),
  // over many random heterogeneous (and null-bearing) instances.
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    std::vector<Tuple> rows = RandomRows(&rng, 80, 4, 0.75, 2, 0.1);
    for (AttrId a = 0; a < 4; ++a) {
      for (AttrId b = 0; b < 4; ++b) {
        if (a == b) continue;
        Pli pa = Pli::Build(rows, a);
        Pli pb = Pli::Build(rows, b);
        Pli direct = Pli::Build(rows, AttrSet{a, b});
        EXPECT_EQ(pa.Intersect(pb), direct)
            << "seed=" << seed << " a=" << a << " b=" << b;
        EXPECT_EQ(pb.Intersect(pa), direct) << "commutativity";
      }
    }
    // Three-way: ((0 ∩ 1) ∩ 2) == direct {0,1,2}.
    Pli p01 = Pli::Build(rows, AttrId{0}).Intersect(Pli::Build(rows, AttrId{1}));
    EXPECT_EQ(p01.Intersect(Pli::Build(rows, AttrId{2})),
              Pli::Build(rows, AttrSet{0, 1, 2}))
        << "seed=" << seed;
  }
}

TEST(PliStorageTest, ArenaProductsMatchDirectMultiAttributeBuilds) {
  // Every product of two arena partitions must be the partition a direct
  // multi-attribute build hashes out of the rows — clusters, counters and
  // arena invariants alike — and every base build must count its defined
  // rows exactly.
  for (uint64_t seed = 40; seed < 46; ++seed) {
    Rng rng(seed);
    std::vector<Tuple> rows = RandomRows(&rng, 90, 4, 0.7, 3, 0.1);
    for (AttrId a = 0; a < 4; ++a) {
      Pli base = Pli::Build(rows, a);
      size_t defined = 0;
      for (const Tuple& t : rows) defined += t.Has(a) ? 1 : 0;
      EXPECT_EQ(base.defined_rows(), defined) << "seed=" << seed;
      std::string err;
      EXPECT_TRUE(base.CheckInvariants(&err)) << err;
      for (AttrId b = 0; b < 4; ++b) {
        if (a == b) continue;
        Pli product = base.Intersect(Pli::Build(rows, b));
        Pli direct = Pli::Build(rows, AttrSet{a, b});
        EXPECT_EQ(product, direct)
            << "seed=" << seed << " a=" << a << " b=" << b;
        EXPECT_EQ(product.grouped_rows(), direct.grouped_rows());
        EXPECT_EQ(product.num_clusters(), direct.num_clusters());
        EXPECT_EQ(product.ArenaSlackRows(), 0u) << "products build tight";
        EXPECT_TRUE(product.CheckInvariants(&err)) << err;
      }
    }
  }
}

TEST(PliStorageTest, ScratchReuseDoesNotLeakStateAcrossIntersections) {
  // One scratch instance threaded through many differently-shaped products
  // must yield the same partitions as fresh per-call scratch.
  Rng rng(77);
  std::vector<Tuple> rows = RandomRows(&rng, 120, 5, 0.8, 3, 0.05);
  Pli::IntersectScratch scratch;
  for (AttrId a = 0; a < 5; ++a) {
    Pli pa = Pli::Build(rows, a);
    for (AttrId b = 0; b < 5; ++b) {
      if (a == b) continue;
      PliProbe probe = Pli::Build(rows, b).BuildProbe();
      Pli with_scratch = pa.IntersectWithProbe(probe, &scratch);
      Pli fresh = pa.IntersectWithProbe(probe);
      EXPECT_EQ(with_scratch, fresh) << "a=" << a << " b=" << b;
      EXPECT_EQ(with_scratch, Pli::Build(rows, AttrSet{a, b}));
    }
  }
}

TEST(PliCacheTest, CachedPartitionsMatchDirectBuilds) {
  Rng rng(17);
  std::vector<Tuple> rows = RandomRows(&rng, 120, 5, 0.8, 3);
  PliCache cache(&rows);
  for (AttrId a = 0; a < 5; ++a) {
    for (AttrId b = a + 1; b < 5; ++b) {
      for (AttrId c = b + 1; c < 5; ++c) {
        AttrSet x{a, b, c};
        EXPECT_EQ(*cache.Get(x), Pli::Build(rows, x)) << x.ToString();
      }
    }
  }
  EXPECT_GT(cache.Stats().hits, 0u);  // shared prefixes must be reused
}

TEST(PliCacheTest, RepeatLookupsHitTheCache) {
  Rng rng(5);
  std::vector<Tuple> rows = RandomRows(&rng, 40, 3, 0.9, 2);
  PliCache cache(&rows);
  AttrSet x{0, 2};
  std::shared_ptr<const Pli> first = cache.Get(x);
  size_t misses_after_first = cache.Stats().misses;
  std::shared_ptr<const Pli> second = cache.Get(x);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.Stats().misses, misses_after_first);
}

TEST(PliCacheTest, LruBoundEvictsMultiAttributeEntries) {
  Rng rng(11);
  std::vector<Tuple> rows = RandomRows(&rng, 60, 6, 0.8, 2);
  PliCache::Options options;
  options.max_entries = 2;
  PliCache cache(&rows, options);
  for (AttrId a = 0; a < 6; ++a) {
    for (AttrId b = a + 1; b < 6; ++b) cache.Get(AttrSet{a, b});
  }
  EXPECT_GT(cache.Stats().evictions, 0u);
  // 6 pinned singletons + at most max_entries evictable pairs.
  EXPECT_LE(cache.Stats().cached_entries, 6u + options.max_entries);
  // Evicted partitions rebuild correctly.
  EXPECT_EQ(*cache.Get(AttrSet{0, 1}), Pli::Build(rows, AttrSet{0, 1}));
}

TEST(PliCacheTest, ConcurrentGetsProduceConsistentPartitions) {
  Rng rng(23);
  std::vector<Tuple> rows = RandomRows(&rng, 200, 5, 0.8, 3);
  PliCache cache(&rows);
  std::vector<AttrSet> keys;
  for (AttrId a = 0; a < 5; ++a) {
    for (AttrId b = a + 1; b < 5; ++b) keys.push_back(AttrSet{a, b});
  }
  std::vector<std::thread> workers;
  std::atomic<bool> mismatch{false};
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = 0; i < keys.size(); ++i) {
        const AttrSet& key = keys[(i + static_cast<size_t>(t)) % keys.size()];
        if (*cache.Get(key) != Pli::Build(rows, key)) mismatch = true;
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_FALSE(mismatch);
}

TEST(ValidatorTest, AgreesWithBruteForceSatisfaction) {
  for (uint64_t seed = 30; seed < 36; ++seed) {
    Rng rng(seed);
    std::vector<Tuple> rows = RandomRows(&rng, 70, 4, 0.7, 2, 0.05);
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    PliCache cache(&rows);
    DependencyValidator validator(&cache);
    for (AttrId x = 0; x < 4; ++x) {
      for (AttrId y = 0; y < 4; ++y) {
        if (x == y) continue;
        AttrDep ad{AttrSet{x}, AttrSet{y}};
        FuncDep fd{AttrSet{x}, AttrSet{y}};
        EXPECT_EQ(validator.ValidatesAd(ad), SatisfiesAttrDep(rows, ad))
            << "seed=" << seed << " " << x << "->" << y;
        EXPECT_EQ(validator.ValidatesFd(fd), SatisfiesFuncDep(rows, fd))
            << "seed=" << seed << " " << x << "->" << y;
      }
    }
  }
}

TEST(ValidatorTest, TrivialDependenciesAlwaysValidate) {
  std::vector<Tuple> rows(2);
  rows[0].Set(0, Value::Int(1));
  rows[1].Set(0, Value::Int(1));
  PliCache cache(&rows);
  DependencyValidator validator(&cache);
  EXPECT_TRUE(validator.ValidatesAd(AttrDep{AttrSet{0, 1}, AttrSet{1}}));
  EXPECT_TRUE(validator.ValidatesFd(FuncDep{AttrSet{0, 1}, AttrSet{0}}));
}

}  // namespace
}  // namespace flexrel
