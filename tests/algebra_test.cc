#include "algebra/evaluate.h"

#include <gtest/gtest.h>

#include <set>

#include "workload/paper_examples.h"

namespace flexrel {
namespace {

class AlgebraTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ex = MakeJobtypeExample();
    ASSERT_TRUE(ex.ok()) << ex.status();
    ex_ = std::move(ex).value();
  }
  std::unique_ptr<JobtypeExample> ex_;
};

TEST_F(AlgebraTest, ScanMaterializesTheRelation) {
  auto out = Evaluate(Plan::Scan(&ex_->relation));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().size(), 3u);
  EXPECT_EQ(out.value().deps().ads().size(), 1u);
}

TEST_F(AlgebraTest, SelectFiltersWithKleeneSemantics) {
  // salary > 5000: keeps engineer (6200) and salesman (5400).
  PlanPtr plan = Plan::Select(
      Plan::Scan(&ex_->relation),
      Expr::Compare(ex_->salary, CmpOp::kGt, Value::Int(5000)));
  auto out = Evaluate(plan);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().size(), 2u);
  // Selection on a variant attribute: tuples lacking it evaluate Unknown
  // and are dropped, not errors.
  PlanPtr guard_free = Plan::Select(
      Plan::Scan(&ex_->relation),
      Expr::Compare(ex_->typing_speed, CmpOp::kGt, Value::Int(0)));
  auto out2 = Evaluate(guard_free);
  ASSERT_TRUE(out2.ok());
  EXPECT_EQ(out2.value().size(), 1u);  // only the secretary
}

TEST_F(AlgebraTest, ProjectDeduplicatesAndPropagatesPartially) {
  PlanPtr plan = Plan::Project(Plan::Scan(&ex_->relation),
                               AttrSet{ex_->jobtype});
  auto out = Evaluate(plan);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().size(), 3u);  // three distinct jobtypes
  // Rule (2): the jobtype AD survives with its RHS clipped to the kept
  // attributes, i.e. jobtype --attr--> {} (trivially true but retained).
  ASSERT_EQ(out.value().deps().ads().size(), 1u);
  EXPECT_EQ(out.value().deps().ads()[0].rhs, AttrSet());

  // Projecting away the determinant kills the AD (V ⊄ X).
  PlanPtr plan2 = Plan::Project(Plan::Scan(&ex_->relation),
                                AttrSet{ex_->typing_speed});
  auto out2 = Evaluate(plan2);
  ASSERT_TRUE(out2.ok());
  EXPECT_TRUE(out2.value().deps().ads().empty());
  // Heterogeneous projection: the secretary projects to {typing-speed},
  // the others to the empty tuple — which all collapse into one.
  EXPECT_EQ(out2.value().size(), 2u);
}

TEST_F(AlgebraTest, ProductRequiresDisjointAttrs) {
  auto self = Evaluate(
      Plan::Product(Plan::Scan(&ex_->relation), Plan::Scan(&ex_->relation)));
  EXPECT_EQ(self.status().code(), StatusCode::kInvalidArgument);

  // Against a disjoint relation it combines pairwise.
  FlexibleRelation other = FlexibleRelation::Derived("depts", DependencySet());
  AttrId dept = ex_->catalog.Intern("dept");
  Tuple d1;
  d1.Set(dept, Value::Str("hq"));
  Tuple d2;
  d2.Set(dept, Value::Str("lab"));
  other.InsertUnchecked(d1);
  other.InsertUnchecked(d2);
  auto out = Evaluate(
      Plan::Product(Plan::Scan(&ex_->relation), Plan::Scan(&other)));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().size(), 6u);
  // Rule (1): deps union.
  EXPECT_EQ(out.value().deps().ads().size(), 1u);
}

TEST_F(AlgebraTest, UnionDropsDependenciesAndDedups) {
  PlanPtr u = Plan::Union(Plan::Scan(&ex_->relation),
                          Plan::Scan(&ex_->relation));
  auto out = Evaluate(u);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().size(), 3u);       // set semantics
  EXPECT_TRUE(out.value().deps().ads().empty());  // rule (4)
  EXPECT_TRUE(out.value().deps().fds().empty());
}

TEST_F(AlgebraTest, DifferenceKeepsLeftDeps) {
  PlanPtr sel = Plan::Select(
      Plan::Scan(&ex_->relation),
      Expr::Eq(ex_->jobtype, Value::Str("secretary")));
  PlanPtr diff = Plan::Difference(Plan::Scan(&ex_->relation), sel);
  auto out = Evaluate(diff);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().size(), 2u);  // engineer + salesman remain
  EXPECT_EQ(out.value().deps().ads().size(), 1u);  // rule (5)
}

TEST_F(AlgebraTest, ExtendAddsTagAndConstantFd) {
  AttrId tag = ex_->catalog.Intern("source");
  PlanPtr e = Plan::Extend(Plan::Scan(&ex_->relation), tag, Value::Str("r1"));
  auto out = Evaluate(e);
  ASSERT_TRUE(out.ok());
  for (const Tuple& t : out.value().rows()) {
    ASSERT_TRUE(t.Has(tag));
    EXPECT_EQ(*t.Get(tag), Value::Str("r1"));
  }
  // ε adds the constant dependency ∅ --func--> {tag}.
  bool has_const_fd = false;
  for (const FuncDep& fd : out.value().deps().fds()) {
    if (fd.lhs.empty() && fd.rhs == AttrSet::Of(tag)) has_const_fd = true;
  }
  EXPECT_TRUE(has_const_fd);
  // Extending by an existing attribute fails.
  auto bad = Evaluate(
      Plan::Extend(Plan::Scan(&ex_->relation), ex_->salary, Value::Int(0)));
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(AlgebraTest, TaggedUnionKeepsAugmentedDeps) {
  // Rule (6): ads(ε_{A:a1}(FR1) ∪ ε_{A:a2}(FR2)) = {AX --attr--> Y | ...}.
  AttrId tag = ex_->catalog.Intern("source");
  PlanPtr u = Plan::Union(
      Plan::Extend(Plan::Scan(&ex_->relation), tag, Value::Int(1)),
      Plan::Extend(Plan::Scan(&ex_->relation), tag, Value::Int(2)));
  auto out = Evaluate(u);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().size(), 6u);
  bool found = false;
  for (const AttrDep& ad : out.value().deps().ads()) {
    if (ad.lhs == (AttrSet{tag, ex_->jobtype})) found = true;
  }
  EXPECT_TRUE(found) << "expected {source, jobtype} --attr--> Y";

  // With equal tag values the pattern is not discriminating: rule (4).
  PlanPtr same = Plan::Union(
      Plan::Extend(Plan::Scan(&ex_->relation), tag, Value::Int(1)),
      Plan::Extend(Plan::Scan(&ex_->relation), tag, Value::Int(1)));
  auto out2 = Evaluate(same);
  ASSERT_TRUE(out2.ok());
  EXPECT_TRUE(out2.value().deps().ads().empty());
}

TEST_F(AlgebraTest, NaturalJoinMergesOnSharedAttrs) {
  FlexibleRelation bonus = FlexibleRelation::Derived("bonus", DependencySet());
  AttrId amount = ex_->catalog.Intern("bonus-amount");
  {
    Tuple b;
    b.Set(ex_->jobtype, Value::Str("salesman"));
    b.Set(amount, Value::Int(500));
    bonus.InsertUnchecked(b);
  }
  auto out = Evaluate(
      Plan::NaturalJoin(Plan::Scan(&ex_->relation), Plan::Scan(&bonus)));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().size(), 1u);
  const Tuple& joined = out.value().row(0);
  EXPECT_EQ(*joined.Get(amount), Value::Int(500));
  EXPECT_EQ(*joined.Get(ex_->sales_commission), Value::Int(12));
}

TEST_F(AlgebraTest, MultiwayJoinFolds) {
  FlexibleRelation r1 = FlexibleRelation::Derived("r1", DependencySet());
  FlexibleRelation r2 = FlexibleRelation::Derived("r2", DependencySet());
  FlexibleRelation r3 = FlexibleRelation::Derived("r3", DependencySet());
  AttrId k = ex_->catalog.Intern("k");
  AttrId p = ex_->catalog.Intern("p");
  AttrId q = ex_->catalog.Intern("q");
  for (int i = 0; i < 3; ++i) {
    Tuple a;
    a.Set(k, Value::Int(i));
    r1.InsertUnchecked(a);
    Tuple b;
    b.Set(k, Value::Int(i));
    b.Set(p, Value::Int(i * 10));
    r2.InsertUnchecked(b);
  }
  Tuple c;
  c.Set(k, Value::Int(1));
  c.Set(q, Value::Int(99));
  r3.InsertUnchecked(c);
  auto out = Evaluate(Plan::MultiwayJoin(
      {Plan::Scan(&r1), Plan::Scan(&r2), Plan::Scan(&r3)}));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().size(), 1u);
  EXPECT_EQ(*out.value().row(0).Get(p), Value::Int(10));
  EXPECT_EQ(*out.value().row(0).Get(q), Value::Int(99));
  // Zero inputs is an error.
  EXPECT_FALSE(Evaluate(Plan::MultiwayJoin({})).ok());
}

TEST_F(AlgebraTest, EvalStatsCount) {
  EvalStats stats;
  PlanPtr plan = Plan::Select(
      Plan::Scan(&ex_->relation),
      Expr::Compare(ex_->salary, CmpOp::kGt, Value::Int(0)));
  ASSERT_TRUE(Evaluate(plan, &stats).ok());
  // The engine filters the scanned rows in place: every row is read and
  // tested once, and only the selection emits (all three pass).
  EXPECT_EQ(stats.tuples_scanned, 3u);
  EXPECT_EQ(stats.predicate_evals, 3u);
  EXPECT_EQ(stats.tuples_emitted, 3u);

  EvalOptions naive;
  naive.use_engine = false;
  EvalStats naive_stats;
  ASSERT_TRUE(Evaluate(plan, naive, &naive_stats).ok());
  EXPECT_EQ(naive_stats.tuples_scanned, 3u);
  EXPECT_EQ(naive_stats.predicate_evals, 3u);
  EXPECT_GE(naive_stats.tuples_emitted, 6u);  // scan + select emissions
}

TEST_F(AlgebraTest, PlanToStringRendersTree) {
  PlanPtr plan = Plan::Select(
      Plan::Scan(&ex_->relation),
      Expr::Eq(ex_->jobtype, Value::Str("secretary")));
  std::string text = plan->ToString(ex_->catalog);
  EXPECT_NE(text.find("Select"), std::string::npos);
  EXPECT_NE(text.find("Scan(employee)"), std::string::npos);
}

}  // namespace
}  // namespace flexrel
