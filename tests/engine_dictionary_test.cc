// Edge cases and cross-validation soaks for the dictionary-encoded
// columnar value plane (engine/dictionary.h).
//
// The contract under test: a CodeColumn — built fresh or maintained through
// any interleaving of cache-flushed inserts and updates (footnote-3 type
// changes included) — always satisfies its structural invariants, codes
// Values injectively within a generation, and is observationally equal to
// the semantic oracles: counting-sort partitions equal hash-built ones, a
// maintained column describes the rows exactly as CodeColumn::Build over
// them does, coded selections return the rows per-tuple evaluation
// accepts, and everything downstream is identical to the naive evaluator
// (EvalOptions::use_engine = false) and brute-force discovery.
//
// Randomized suites take their seed from FLEXREL_TEST_SEED when set (the
// CI seed-diversity step passes the run id) and print it, so failures are
// replayable from the log.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "algebra/evaluate.h"
#include "core/discovery.h"
#include "engine/dictionary.h"
#include "engine/parallel_discovery.h"
#include "engine/pli_cache.h"
#include "engine_test_util.h"
#include "test_seed.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload/generator.h"

namespace flexrel {
namespace {

using testutil::ApplyRandomEmployeeMutation;
using testutil::RandomSoakTuple;
using testutil::SoakEmployeeConfig;
using testutil::VerifyColumnMatchesFreshBuild;

uint64_t SoakSeed(uint64_t salt) {
  return TestSeed(0xD1C7C0DEC0FFEEull, salt, "dictionary");
}

std::string InvariantError(const CodeColumn& column) {
  std::string error;
  return column.CheckInvariants(&error) ? std::string() : error;
}

// Every row of `rows` agrees with what the column says about it: the coded
// value round-trips, absence maps to kMissingCode, and the row sits in
// exactly its code's bucket. Generation-independent, so it holds across
// re-interns and cache rebuilds.
void VerifyColumnAgainstRows(const CodeColumn& column,
                             const std::vector<Tuple>& rows,
                             const std::string& context) {
  ASSERT_EQ(column.num_rows(), rows.size()) << context;
  EXPECT_EQ(InvariantError(column), "") << context;
  for (size_t i = 0; i < rows.size(); ++i) {
    const Value* v = rows[i].Get(column.attr());
    CodeColumn::Code code = column.codes()[i];
    if (v == nullptr) {
      EXPECT_EQ(code, CodeColumn::kMissingCode) << context << " row " << i;
      continue;
    }
    ASSERT_NE(code, CodeColumn::kMissingCode) << context << " row " << i;
    EXPECT_EQ(column.ValueOf(code), *v) << context << " row " << i;
    EXPECT_EQ(column.CodeOf(*v), code) << context << " row " << i;
    const std::vector<CodeColumn::RowId>& bucket = column.Bucket(code);
    EXPECT_TRUE(std::binary_search(bucket.begin(), bucket.end(),
                                   static_cast<CodeColumn::RowId>(i)))
        << context << " row " << i;
  }
}

// ---------------------------------------------------------------------------
// Null and missing codes: the two reserved points of the code space.
// ---------------------------------------------------------------------------

TEST(CodeColumnTest, NullCodeIsReservedAndNullsCluster) {
  const AttrId a = 2;
  std::vector<Tuple> rows(4);
  rows[0].Set(a, Value::Null());
  // rows[1] does not carry the attribute at all: absent, not null.
  rows[2].Set(a, Value::Int(7));
  rows[3].Set(a, Value::Null());

  CodeColumn column = CodeColumn::Build(rows, a);
  EXPECT_EQ(column.CodeOf(Value::Null()), CodeColumn::kNullCode);
  EXPECT_EQ(column.codes()[0], CodeColumn::kNullCode);
  EXPECT_EQ(column.codes()[1], CodeColumn::kMissingCode);
  EXPECT_EQ(column.codes()[3], CodeColumn::kNullCode);
  // Null equals null: both null rows share the reserved code's bucket —
  // absence does not (row 1 is in no bucket).
  EXPECT_EQ(column.Bucket(CodeColumn::kNullCode),
            (std::vector<CodeColumn::RowId>{0, 3}));
  EXPECT_EQ(column.defined(), 3u);
  EXPECT_EQ(column.live_codes(), 2u);  // null + the int
  VerifyColumnAgainstRows(column, rows, "null/missing build");
}

TEST(CodeColumnTest, NullIsInternedEvenWhenNoRowIsNull) {
  const AttrId a = 0;
  std::vector<Tuple> rows(1);
  rows[0].Set(a, Value::Int(1));
  CodeColumn column = CodeColumn::Build(rows, a);
  // The reservation is unconditional, so kNullCode never aliases a value.
  EXPECT_EQ(column.CodeOf(Value::Null()), CodeColumn::kNullCode);
  EXPECT_TRUE(column.Bucket(CodeColumn::kNullCode).empty());
  EXPECT_NE(column.CodeOf(Value::Int(1)), CodeColumn::kNullCode);
}

// ---------------------------------------------------------------------------
// Duplicate interning: one code per distinct value, append-only.
// ---------------------------------------------------------------------------

TEST(CodeColumnTest, DuplicateValuesShareOneCodeAcrossBuildAndMutation) {
  const AttrId a = 1;
  std::vector<Tuple> rows(3);
  rows[0].Set(a, Value::Str("x"));
  rows[1].Set(a, Value::Str("x"));
  rows[2].Set(a, Value::Int(5));
  CodeColumn column = CodeColumn::Build(rows, a);
  const CodeColumn::Code x = column.CodeOf(Value::Str("x"));
  EXPECT_EQ(column.codes()[0], x);
  EXPECT_EQ(column.codes()[1], x);
  const CodeColumn::Code bound = column.code_bound();

  // Inserting and updating to already-interned values must reuse the codes
  // and leave the code space untouched.
  Tuple t;
  t.Set(a, Value::Str("x"));
  rows.push_back(t);
  column.ApplyInsert(3, rows[3].Get(a));
  EXPECT_EQ(column.codes()[3], x);
  EXPECT_EQ(column.code_bound(), bound);

  rows[2].Set(a, Value::Str("x"));
  column.ApplyUpdate(2, rows[2].Get(a));
  EXPECT_EQ(column.codes()[2], x);
  EXPECT_EQ(column.code_bound(), bound);
  EXPECT_EQ(column.Bucket(x), (std::vector<CodeColumn::RowId>{0, 1, 2, 3}));
  VerifyColumnAgainstRows(column, rows, "duplicate interning");
}

TEST(CodeColumnTest, UpdateToTheSameValueIsANoOp) {
  const AttrId a = 4;
  std::vector<Tuple> rows(2);
  rows[0].Set(a, Value::Int(9));
  rows[1].Set(a, Value::Int(9));
  CodeColumn column = CodeColumn::Build(rows, a);
  const uint64_t gen = column.generation();
  column.ApplyUpdate(0, rows[0].Get(a));
  EXPECT_EQ(column.generation(), gen);
  EXPECT_EQ(column.Bucket(column.CodeOf(Value::Int(9))),
            (std::vector<CodeColumn::RowId>{0, 1}));
  VerifyColumnAgainstRows(column, rows, "same-value update");
}

// ---------------------------------------------------------------------------
// Footnote-3 type changes and the re-intern trigger.
// ---------------------------------------------------------------------------

TEST(CodeColumnTest, TypeChangingUpdatesReinternAfterChurn) {
  const AttrId a = 0;
  std::vector<Tuple> rows(4);
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i].Set(a, Value::Int(static_cast<int64_t>(i)));
  }
  CodeColumn column = CodeColumn::Build(rows, a);
  const uint64_t gen = column.generation();

  // Churn row 0 through a long run of fresh values — the footnote-3 shape
  // repeated: every update retires the previous value's code. Append-only
  // interning grows the dictionary until it outweighs the live codes 2:1
  // past the slack floor, at which point MaybeReintern must fire, recode
  // densely and bump the generation.
  bool reinterned = false;
  for (int64_t v = 100; v < 400 && !reinterned; ++v) {
    Value next = v % 2 == 0 ? Value::Int(v) : Value::Str(StrCat("t", v));
    rows[0].Set(a, next);
    column.ApplyUpdate(0, rows[0].Get(a));
    reinterned = column.MaybeReintern();
  }
  ASSERT_TRUE(reinterned) << "churn never triggered a re-intern";
  EXPECT_GT(column.generation(), gen);
  // The compacted space carries exactly the live values plus the reserved
  // null code.
  EXPECT_LE(column.code_bound(), column.live_codes() + 1);
  VerifyColumnAgainstRows(column, rows, "post-reintern");

  // A removal (footnote-3 delta dropping the attribute) maps the row to
  // kMissingCode and keeps the space coherent.
  rows[1] = Tuple();
  column.ApplyUpdate(1, nullptr);
  EXPECT_EQ(column.codes()[1], CodeColumn::kMissingCode);
  VerifyColumnAgainstRows(column, rows, "post-removal");
}

TEST(CodeColumnTest, HealthyDictionariesNeverReintern) {
  const AttrId a = 0;
  std::vector<Tuple> rows(8);
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i].Set(a, Value::Int(static_cast<int64_t>(i)));
  }
  CodeColumn column = CodeColumn::Build(rows, a);
  // All codes live: no churn, no trigger, stable generation — consumers
  // holding code-based structures rely on this.
  EXPECT_FALSE(column.MaybeReintern());
  EXPECT_EQ(column.generation(), 1u);
}

// ---------------------------------------------------------------------------
// Counting-sort partition construction over the code column.
// ---------------------------------------------------------------------------

TEST(CodeColumnTest, BuildFromCodesMatchesValueBuild) {
  Rng rng(SoakSeed(1));
  std::vector<AttrId> attrs = {0, 1, 2, 3};
  std::vector<Tuple> rows;
  for (int i = 0; i < 300; ++i) rows.push_back(RandomSoakTuple(attrs, &rng));
  for (AttrId a : attrs) {
    CodeColumn column = CodeColumn::Build(rows, a);
    VerifyColumnAgainstRows(column, rows, StrCat("attr ", a));
    // Canonical-form Pli equality is exact, so the counting sort must
    // reproduce the hash build bit for bit.
    Pli coded = Pli::BuildFromCodes(column.codes(), column.code_bound());
    EXPECT_EQ(coded, Pli::Build(rows, a));
    EXPECT_EQ(coded.defined_rows(), Pli::Build(rows, a).defined_rows());
  }
}

// ---------------------------------------------------------------------------
// The cache-maintained column across batch bursts of every flush arm.
// ---------------------------------------------------------------------------

TEST(CodeColumnTest, CodeSpaceGrowsCoherentlyAcrossBatchBursts) {
  Rng rng(SoakSeed(2));
  std::vector<AttrId> attrs = {0, 1, 2};
  FlexibleRelation rel = FlexibleRelation::Derived("burst", DependencySet());
  for (int i = 0; i < 32; ++i) rel.InsertUnchecked(RandomSoakTuple(attrs, &rng));
  std::shared_ptr<PliCache> cache = rel.pli_cache();

  for (AttrId a : attrs) ASSERT_NE(cache->CodeColumnFor(a), nullptr);
  uint64_t last_bound = 0;
  // Burst sizes straddling the flush arms: per-row (< batch_threshold=16),
  // batched, and — relative to the growing instance — large enough early
  // on to have crossed rows/2 bursts in cache configurations with a lower
  // drop threshold. Each burst widens the value domain so the code space
  // genuinely grows burst over burst.
  const size_t bursts[] = {3, 40, 7, 120, 25};
  int64_t domain = 0;
  for (size_t burst : bursts) {
    for (size_t i = 0; i < burst; ++i) {
      Tuple t;
      for (AttrId a : attrs) {
        if (rng.Bernoulli(0.8)) {
          t.Set(a, Value::Int(domain + rng.UniformInt(0, 50)));
        }
      }
      rel.InsertUnchecked(std::move(t));
    }
    domain += 40;  // overlap with the previous burst, then fresh values
    std::shared_ptr<const CodeColumn> column = cache->CodeColumnFor(attrs[0]);
    ASSERT_NE(column, nullptr);
    VerifyColumnAgainstRows(*column, rel.rows(),
                            StrCat("after burst of ", burst));
    ASSERT_NO_FATAL_FAILURE(VerifyColumnMatchesFreshBuild(
        *column, rel.rows(), StrCat("after burst of ", burst)));
    // Within a generation codes are append-only, so the bound is monotone
    // unless a re-intern or cache drop compacted the space — both of which
    // announce themselves through the generation tag.
    if (column->code_bound() < last_bound) {
      EXPECT_NE(column->generation(), 1u);
    }
    last_bound = column->code_bound();
    // The partitions built from the column agree with hash builds.
    EXPECT_EQ(*cache->Get(AttrSet::Of(attrs[0])),
              Pli::Build(rel.rows(), attrs[0]));
  }
}

// ---------------------------------------------------------------------------
// Coded selection: CodedMatches vs per-tuple evaluation, literal by literal.
// ---------------------------------------------------------------------------

TEST(CodeColumnTest, CodedMatchesEqualsPerTupleEvaluation) {
  Rng rng(SoakSeed(3));
  std::vector<AttrId> attrs = {0, 1};
  FlexibleRelation rel = FlexibleRelation::Derived("sel", DependencySet());
  for (int i = 0; i < 200; ++i) rel.InsertUnchecked(RandomSoakTuple(attrs, &rng));
  std::shared_ptr<PliCache> cache = rel.pli_cache();
  const AttrId a = attrs[0];
  std::shared_ptr<const CodeColumn> column = cache->CodeColumnFor(a);
  ASSERT_NE(column, nullptr);
  const CodeColumn fresh = CodeColumn::Build(rel.rows(), a);

  std::vector<ExprPtr> formulas;
  formulas.push_back(Expr::Eq(a, Value::Int(2)));
  formulas.push_back(Expr::Eq(a, Value::Int(424242)));   // never interned
  formulas.push_back(Expr::Eq(a, Value::Null()));        // Kleene: no rows
  formulas.push_back(Expr::In(a, {Value::Int(0), Value::Str("s1")}));
  formulas.push_back(Expr::In(a, {Value::Null(), Value::Int(3)}));
  for (size_t i = 0; i < formulas.size(); ++i) {
    // The oracle: the naive evaluator's selection body, row by row.
    std::vector<Pli::RowId> accepted;
    for (size_t r = 0; r < rel.size(); ++r) {
      if (formulas[i]->Accepts(rel.row(r))) {
        accepted.push_back(static_cast<Pli::RowId>(r));
      }
    }
    EXPECT_EQ(CodedMatches(*column, *formulas[i]), accepted)
        << "formula " << i;
    EXPECT_EQ(CodedMatches(fresh, *formulas[i]), accepted) << "formula " << i;
  }
  EXPECT_TRUE(CodedMatches(*column, *formulas[2]).empty());
}

// ---------------------------------------------------------------------------
// The 30-seed coded-plane-vs-semantic-oracles soak (seeded_suites.txt entry).
// ---------------------------------------------------------------------------

// One seed's worth: an employee workload driven by a random mutation
// stream, its cache touched between mutations, must end observationally
// equal to the semantic oracles at every layer: cached partitions and
// columns against from-scratch builds, evaluator output against the naive
// evaluator, and engine discovery (both strategies) against brute force.
void RunCodesVsSemanticOracleSoak(uint64_t seed) {
  const std::string context = StrCat("seed ", seed);
  auto coded_workload = MakeEmployeeWorkload(SoakEmployeeConfig(seed, 48));
  auto partner_workload = MakeEmployeeWorkload(SoakEmployeeConfig(seed, 48));
  ASSERT_TRUE(coded_workload.ok()) << context;
  ASSERT_TRUE(partner_workload.ok()) << context;
  EmployeeWorkload& coded = *coded_workload.value();
  EmployeeWorkload& partner = *partner_workload.value();

  const std::vector<AttrId>& touch_attrs = coded.common_attrs.ids();
  auto touch = [&](EmployeeWorkload& w) {
    std::shared_ptr<PliCache> cache = w.relation.pli_cache();
    for (AttrId a : touch_attrs) {
      (void)cache->Get(AttrSet::Of(a));
      (void)cache->CodeColumnFor(a);
    }
  };

  // Independent streams: the join partner diverges from the soaked
  // relation, so the join below pairs genuinely different instances.
  Rng coded_rng(seed * 31 + 7);
  Rng partner_rng(seed * 37 + 11);
  for (int op = 0; op < 60; ++op) {
    auto coded_out = ApplyRandomEmployeeMutation(&coded, &coded_rng);
    auto partner_out = ApplyRandomEmployeeMutation(&partner, &partner_rng);
    ASSERT_TRUE(coded_out.status.ok()) << context << " op " << op;
    ASSERT_TRUE(partner_out.status.ok()) << context << " op " << op;
    if (op % 9 == 0) {
      touch(coded);
      touch(partner);
    }
  }

  // Layer 1: cached structures. Counting-sort partitions equal hash-built
  // ones, and the maintained column still describes every row exactly as
  // a fresh build over the final rows does.
  std::shared_ptr<PliCache> coded_cache = coded.relation.pli_cache();
  for (AttrId a : touch_attrs) {
    EXPECT_EQ(*coded_cache->Get(AttrSet::Of(a)),
              Pli::Build(coded.relation.rows(), a))
        << context << " attr " << a;
    std::shared_ptr<const CodeColumn> column = coded_cache->CodeColumnFor(a);
    ASSERT_NE(column, nullptr) << context;
    VerifyColumnAgainstRows(*column, coded.relation.rows(),
                            StrCat(context, " attr ", a));
    ASSERT_NO_FATAL_FAILURE(VerifyColumnMatchesFreshBuild(
        *column, coded.relation.rows(), StrCat(context, " attr ", a)));
  }

  // Layer 2: the evaluator. Same rows out of an indexable selection and a
  // join of the two relations, engine vs naive.
  EvalOptions naive_eval;
  naive_eval.use_engine = false;
  PlanPtr select = Plan::Select(
      Plan::Scan(&coded.relation),
      Expr::Eq(coded.jobtype_attr, coded.jobtype_values.front()));
  auto coded_sel = Evaluate(select, EvalOptions());
  auto naive_sel = Evaluate(select, naive_eval);
  ASSERT_TRUE(coded_sel.ok() && naive_sel.ok()) << context;
  auto sorted = [](const FlexibleRelation& rel) {
    std::vector<Tuple> rows = rel.rows();
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  EXPECT_EQ(sorted(coded_sel.value()), sorted(naive_sel.value())) << context;

  PlanPtr join = Plan::NaturalJoin(Plan::Scan(&coded.relation),
                                   Plan::Scan(&partner.relation));
  auto coded_join = Evaluate(join, EvalOptions());
  auto naive_join = Evaluate(join, naive_eval);
  ASSERT_TRUE(coded_join.ok() && naive_join.ok()) << context;
  EXPECT_EQ(sorted(coded_join.value()), sorted(naive_join.value())) << context;

  // Layer 3: discovery — level-wise and hybrid over the coded plane, both
  // identical to brute force.
  AttrSet universe = coded.relation.ActiveAttrs();
  DiscoveryOptions brute_opts;
  brute_opts.use_engine = false;
  DependencySet brute =
      DiscoverDependencies(coded.relation.rows(), universe, brute_opts);
  for (DiscoveryStrategy strategy :
       {DiscoveryStrategy::kLevelWise, DiscoveryStrategy::kHybrid}) {
    EngineDiscoveryOptions coded_opts;
    coded_opts.strategy = strategy;
    DependencySet with_codes = EngineDiscoverDependencies(
        coded.relation.rows(), universe, coded_opts);
    EXPECT_EQ(with_codes.fds(), brute.fds())
        << context << " strategy " << static_cast<int>(strategy);
    EXPECT_EQ(with_codes.ads(), brute.ads())
        << context << " strategy " << static_cast<int>(strategy);
  }
}

TEST(EngineDictionarySoak, CodesMatchSemanticOraclesAcrossThirtySeeds) {
  const uint64_t base = SoakSeed(4);
  for (uint64_t s = 0; s < 30; ++s) {
    ASSERT_NO_FATAL_FAILURE(RunCodesVsSemanticOracleSoak(base + s))
        << "seed " << base + s;
  }
}

}  // namespace
}  // namespace flexrel
