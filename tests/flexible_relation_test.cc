#include "core/flexible_relation.h"

#include <gtest/gtest.h>

#include <utility>

#include "engine_test_util.h"
#include "workload/paper_examples.h"

namespace flexrel {
namespace {

class FlexibleRelationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ex = MakeJobtypeExample();
    ASSERT_TRUE(ex.ok()) << ex.status();
    ex_ = std::move(ex).value();
  }
  std::unique_ptr<JobtypeExample> ex_;
};

TEST_F(FlexibleRelationTest, BaseRelationPreloadsThreeTuples) {
  EXPECT_EQ(ex_->relation.size(), 3u);
  EXPECT_TRUE(ex_->relation.has_checker());
  EXPECT_TRUE(ex_->relation.SatisfiesDeclaredDeps());
}

TEST_F(FlexibleRelationTest, InsertTypeChecks) {
  EXPECT_TRUE(ex_->relation.Insert(ex_->MakeSecretary(100, 100)).ok());
  Status bad = ex_->relation.Insert(ex_->MakeMistypedSalesman());
  EXPECT_EQ(bad.code(), StatusCode::kConstraintViolation);
  EXPECT_NE(bad.message().find("insert into employee"), std::string::npos);
}

TEST_F(FlexibleRelationTest, SetSemanticsRejectDuplicates) {
  Tuple t = ex_->MakeSecretary(123, 456);
  EXPECT_TRUE(ex_->relation.Insert(t).ok());
  EXPECT_EQ(ex_->relation.Insert(t).code(), StatusCode::kAlreadyExists);
}

TEST_F(FlexibleRelationTest, HeterogeneousTuplesCoexist) {
  AttrSet shapes;
  for (const Tuple& t : ex_->relation.rows()) {
    shapes = shapes.Union(t.attrs());
  }
  // All seven attributes appear across the instance even though no single
  // tuple carries them all.
  EXPECT_EQ(shapes.size(), 7u);
  for (const Tuple& t : ex_->relation.rows()) {
    EXPECT_LT(t.size(), 7u);
  }
}

TEST_F(FlexibleRelationTest, UpdateValueNoTypeChange) {
  auto delta = ex_->relation.Update(0, ex_->salary, Value::Int(7777));
  ASSERT_TRUE(delta.ok()) << delta.status();
  EXPECT_TRUE(delta.value().IsNoop());
  EXPECT_EQ(*ex_->relation.row(0).Get(ex_->salary), Value::Int(7777));
}

TEST_F(FlexibleRelationTest, UpdateJobtypeTriggersTypeChange) {
  // Row 0 is the secretary. Flipping jobtype to 'salesman' demands the
  // salesman attributes; supply them via `fill`.
  Tuple fill;
  fill.Set(ex_->products, Value::Int(3));
  fill.Set(ex_->sales_commission, Value::Int(11));
  auto delta = ex_->relation.Update(0, ex_->jobtype, Value::Str("salesman"),
                                    fill);
  ASSERT_TRUE(delta.ok()) << delta.status();
  EXPECT_EQ(delta.value().to_add,
            (AttrSet{ex_->products, ex_->sales_commission}));
  EXPECT_EQ(delta.value().to_remove,
            (AttrSet{ex_->typing_speed, ex_->foreign_languages}));
  const Tuple& updated = ex_->relation.row(0);
  EXPECT_FALSE(updated.Has(ex_->typing_speed));
  EXPECT_EQ(*updated.Get(ex_->sales_commission), Value::Int(11));
  EXPECT_TRUE(ex_->relation.SatisfiesDeclaredDeps());
}

TEST_F(FlexibleRelationTest, UpdateWithoutFillFailsPrecondition) {
  auto delta = ex_->relation.Update(0, ex_->jobtype, Value::Str("salesman"));
  EXPECT_EQ(delta.status().code(), StatusCode::kFailedPrecondition);
  // The relation is unchanged.
  EXPECT_TRUE(ex_->relation.row(0).Has(ex_->typing_speed));
}

TEST_F(FlexibleRelationTest, UpdateOutOfRange) {
  EXPECT_EQ(ex_->relation.Update(99, ex_->salary, Value::Int(1))
                .status()
                .code(),
            StatusCode::kOutOfRange);
}

TEST_F(FlexibleRelationTest, DerivedRelationSkipsChecks) {
  DependencySet deps;
  deps.AddAd(AttrDep{AttrSet{ex_->jobtype}, AttrSet{ex_->typing_speed}});
  FlexibleRelation derived = FlexibleRelation::Derived("d", deps);
  EXPECT_FALSE(derived.has_checker());
  derived.InsertUnchecked(ex_->MakeMistypedSalesman());  // no complaint
  EXPECT_EQ(derived.size(), 1u);
  EXPECT_EQ(derived.deps().ads().size(), 1u);
}

TEST_F(FlexibleRelationTest, ActiveAttrs) {
  FlexibleRelation derived = FlexibleRelation::Derived("d", DependencySet());
  EXPECT_EQ(derived.ActiveAttrs(), AttrSet());
  derived.InsertUnchecked(ex_->MakeSalesman(1, 2));
  EXPECT_EQ(derived.ActiveAttrs(),
            (AttrSet{ex_->salary, ex_->jobtype, ex_->products,
                     ex_->sales_commission}));
}

// The maintained attribute-presence statistics against a row walk after
// every mutation entry point, failed ones included.
TEST_F(FlexibleRelationTest, AttrStatsFollowEveryMutationPath) {
  using testutil::ExpectAttrStatsMatchRows;
  const JobtypeExample& ex = *ex_;
  FlexibleRelation rel = FlexibleRelation::Base(
      "emp", &ex.catalog, ex.scheme, {ex.ead}, ex.domains);
  const AttrSet secretary{ex.salary, ex.jobtype, ex.typing_speed,
                          ex.foreign_languages};
  {
    SCOPED_TRACE("empty");
    ExpectAttrStatsMatchRows(rel);
    EXPECT_TRUE(rel.ActiveAttrs().empty());
    EXPECT_TRUE(rel.CommonAttrs().empty());
  }
  ASSERT_TRUE(rel.Insert(ex.MakeSecretary(1000, 200)).ok());
  ASSERT_TRUE(rel.Insert(ex.MakeSecretary(2000, 300)).ok());
  {
    SCOPED_TRACE("insert");
    ExpectAttrStatsMatchRows(rel);
    EXPECT_EQ(rel.CommonAttrs(), secretary);
  }

  // Footnote 3: the jobtype flip drops the secretary attributes from row 0
  // and adds the salesman ones from `fill`.
  Tuple salesman_fill;
  salesman_fill.Set(ex.products, Value::Int(3));
  salesman_fill.Set(ex.sales_commission, Value::Int(11));
  ASSERT_TRUE(
      rel.Update(0, ex.jobtype, Value::Str("salesman"), salesman_fill).ok());
  {
    SCOPED_TRACE("update with type change");
    ExpectAttrStatsMatchRows(rel);
    EXPECT_EQ(rel.CommonAttrs(), (AttrSet{ex.salary, ex.jobtype}));
    EXPECT_TRUE(rel.ActiveAttrs().Contains(ex.sales_commission));
  }
  const AttrSet active_before = rel.ActiveAttrs();
  const AttrSet common_before = rel.CommonAttrs();
  ASSERT_FALSE(rel.Update(0, ex.jobtype, Value::Str("secretary")).ok());
  {
    SCOPED_TRACE("failed update");
    ExpectAttrStatsMatchRows(rel);
    EXPECT_EQ(rel.ActiveAttrs(), active_before);
    EXPECT_EQ(rel.CommonAttrs(), common_before);
  }

  // An in-batch insert (row 2) retyped by a later op of the same batch:
  // only its final secretary shape is ever counted.
  Tuple secretary_fill;
  secretary_fill.Set(ex.typing_speed, Value::Int(150));
  secretary_fill.Set(ex.foreign_languages, Value::Str("dutch"));
  std::vector<FlexibleRelation::Mutation> batch;
  batch.push_back(FlexibleRelation::Mutation::Insert(ex.MakeEngineer(3000, 2)));
  batch.push_back(FlexibleRelation::Mutation::Update(
      2, ex.jobtype, Value::Str("secretary"), secretary_fill));
  batch.push_back(
      FlexibleRelation::Mutation::Update(1, ex.salary, Value::Int(2500)));
  ASSERT_TRUE(rel.ApplyBatch(std::move(batch)).ok());
  {
    SCOPED_TRACE("apply batch");
    ExpectAttrStatsMatchRows(rel);
    EXPECT_FALSE(rel.ActiveAttrs().Contains(ex.programming_languages));
  }

  // A batch bouncing off set semantics after a valid insert is a no-op.
  const AttrSet active_pre_batch = rel.ActiveAttrs();
  const AttrSet common_pre_batch = rel.CommonAttrs();
  std::vector<FlexibleRelation::Mutation> failing;
  failing.push_back(
      FlexibleRelation::Mutation::Insert(ex.MakeEngineer(4000, 1)));
  failing.push_back(FlexibleRelation::Mutation::Insert(rel.row(1)));
  ASSERT_EQ(rel.ApplyBatch(std::move(failing)).code(),
            StatusCode::kAlreadyExists);
  {
    SCOPED_TRACE("failed apply batch");
    ExpectAttrStatsMatchRows(rel);
    EXPECT_EQ(rel.ActiveAttrs(), active_pre_batch);
    EXPECT_EQ(rel.CommonAttrs(), common_pre_batch);
  }

  // Checker-less paths: bulk unchecked inserts, then updates that add
  // attributes, two of them to the same row.
  FlexibleRelation derived = FlexibleRelation::Derived("d", DependencySet());
  derived.InsertRowsUnchecked({ex.MakeSalesman(1, 2), ex.MakeEngineer(3, 4)});
  {
    SCOPED_TRACE("insert rows unchecked");
    ExpectAttrStatsMatchRows(derived);
    EXPECT_EQ(derived.CommonAttrs(), (AttrSet{ex.salary, ex.jobtype,
                                              ex.products}));
  }
  ASSERT_TRUE(derived
                  .UpdateRows({{0, ex.typing_speed, Value::Int(1), Tuple()},
                               {0, ex.foreign_languages, Value::Str("x"),
                                Tuple()},
                               {1, ex.products, Value::Int(9), Tuple()}})
                  .ok());
  {
    SCOPED_TRACE("checker-less update rows");
    ExpectAttrStatsMatchRows(derived);
    EXPECT_TRUE(derived.ActiveAttrs().Contains(ex.foreign_languages));
    EXPECT_FALSE(derived.CommonAttrs().Contains(ex.typing_speed));
  }
  ASSERT_TRUE(
      derived.UpdateRows({{1, ex.typing_speed, Value::Int(2), Tuple()}}).ok());
  {
    SCOPED_TRACE("checker-less update completes an attribute");
    ExpectAttrStatsMatchRows(derived);
    EXPECT_TRUE(derived.CommonAttrs().Contains(ex.typing_speed));
  }

  FlexibleRelation copy(rel);
  {
    SCOPED_TRACE("copy");
    ExpectAttrStatsMatchRows(copy);
    EXPECT_EQ(copy.ActiveAttrs(), rel.ActiveAttrs());
  }
  FlexibleRelation moved(std::move(copy));
  {
    SCOPED_TRACE("move");
    ExpectAttrStatsMatchRows(moved);
    EXPECT_EQ(moved.CommonAttrs(), rel.CommonAttrs());
    ExpectAttrStatsMatchRows(copy);  // moved-from: empty, and counts agree
    EXPECT_TRUE(copy.ActiveAttrs().empty());
  }
  FlexibleRelation assigned = FlexibleRelation::Derived("a", DependencySet());
  assigned = derived;
  {
    SCOPED_TRACE("copy assign");
    ExpectAttrStatsMatchRows(assigned);
    EXPECT_EQ(assigned.ActiveAttrs(), derived.ActiveAttrs());
  }
  assigned = std::move(moved);
  {
    SCOPED_TRACE("move assign");
    ExpectAttrStatsMatchRows(assigned);
    EXPECT_EQ(assigned.ActiveAttrs(), rel.ActiveAttrs());
    ExpectAttrStatsMatchRows(moved);
    EXPECT_TRUE(moved.ActiveAttrs().empty());
  }
  // A moved-from relation is usable again and counts from scratch.
  moved.InsertUnchecked(ex.MakeSalesman(5, 6));
  {
    SCOPED_TRACE("reuse after move");
    ExpectAttrStatsMatchRows(moved);
  }
}

TEST_F(FlexibleRelationTest, AbbreviatedDepsDerivedFromEads) {
  ASSERT_EQ(ex_->relation.deps().ads().size(), 1u);
  const AttrDep& ad = ex_->relation.deps().ads()[0];
  EXPECT_EQ(ad.lhs, AttrSet{ex_->jobtype});
  EXPECT_EQ(ad.rhs.size(), 5u);
}

}  // namespace
}  // namespace flexrel
