// Experiment E5 — excluded-variant pruning (Section 3.1.2, qualified
// relations: "unnecessary joins with variants that are known to be
// excluded").
//
// Setup: an employee database vertically decomposed along the jobtype EAD
// (master + one relation per variant). Query: restore-and-select for a fixed
// jobtype. The unpruned plan joins every variant relation; the pruned plan
// consults the EAD's consistent-variant analysis and joins only those.
// Shape: pruned work ~ 1/#variants of the full restore.

#include <benchmark/benchmark.h>

#include "algebra/evaluate.h"
#include "decomposition/decomposition.h"
#include "optimizer/guard_analysis.h"
#include "optimizer/plan_rewrite.h"
#include "workload/generator.h"

namespace flexrel {
namespace {

struct PruneSetup {
  std::unique_ptr<EmployeeWorkload> w;
  VerticalDecomposition parts;
  FlexibleRelation master_fr;
  std::vector<FlexibleRelation> variant_frs;
  ExprPtr selection;
  std::vector<size_t> consistent;
};

PruneSetup MakeSetup(size_t variants, size_t rows) {
  PruneSetup s;
  EmployeeConfig config;
  config.num_variants = variants;
  config.attrs_per_variant = 2;
  config.rows = rows;
  config.seed = 4242;
  s.w = std::move(MakeEmployeeWorkload(config)).value();
  s.parts = std::move(TranslateVertical(s.w->relation, s.w->eads[0],
                                        AttrSet::Of(s.w->id_attr)))
                .value();
  s.master_fr = FlexibleRelation::Derived("master", DependencySet());
  for (const Tuple& t : s.parts.master.rows()) s.master_fr.InsertUnchecked(t);
  for (const Relation& r : s.parts.variant_relations) {
    FlexibleRelation fr = FlexibleRelation::Derived(r.name(), DependencySet());
    for (const Tuple& t : r.rows()) fr.InsertUnchecked(t);
    s.variant_frs.push_back(std::move(fr));
  }
  s.selection = Expr::Eq(s.w->jobtype_attr, s.w->jobtype_values[0]);
  VariantAnalysis analysis =
      AnalyzeVariants(ExtractConstraints(s.selection), s.w->eads[0]);
  s.consistent = analysis.consistent_variants;
  return s;
}

PlanPtr RestorePlan(const PruneSetup& s, const std::vector<size_t>& variants) {
  // σ(selection) over master, then outer-union of the per-variant joins.
  PlanPtr selected_master =
      Plan::Select(Plan::Scan(&s.master_fr), s.selection);
  std::vector<PlanPtr> branches;
  for (size_t v : variants) {
    branches.push_back(
        Plan::NaturalJoin(selected_master, Plan::Scan(&s.variant_frs[v])));
  }
  return Plan::OuterUnion(std::move(branches));
}

void RunRestore(benchmark::State& state, size_t variants, size_t rows,
                bool pruned) {
  PruneSetup s = MakeSetup(variants, rows);
  std::vector<size_t> all;
  for (size_t v = 0; v < s.variant_frs.size(); ++v) all.push_back(v);
  PlanPtr plan = RestorePlan(s, pruned ? s.consistent : all);
  EvalStats total;
  size_t result_rows = 0;
  for (auto _ : state) {
    EvalStats stats;
    auto out = Evaluate(plan, &stats);
    benchmark::DoNotOptimize(out);
    result_rows = out.ok() ? out.value().size() : 0;
    total += stats;
  }
  state.counters["variants_joined"] =
      static_cast<double>(pruned ? s.consistent.size() : all.size());
  state.counters["join_probes_per_iter"] =
      static_cast<double>(total.join_probes) /
      static_cast<double>(std::max<size_t>(state.iterations(), 1));
  state.counters["result_rows"] = static_cast<double>(result_rows);
}

void BM_RestoreAllVariants(benchmark::State& state) {
  RunRestore(state, static_cast<size_t>(state.range(0)),
             static_cast<size_t>(state.range(1)), /*pruned=*/false);
}
BENCHMARK(BM_RestoreAllVariants)
    ->Args({3, 1000})
    ->Args({8, 1000})
    ->Args({16, 1000})
    ->Args({32, 1000});

void BM_RestorePrunedVariants(benchmark::State& state) {
  RunRestore(state, static_cast<size_t>(state.range(0)),
             static_cast<size_t>(state.range(1)), /*pruned=*/true);
}
BENCHMARK(BM_RestorePrunedVariants)
    ->Args({3, 1000})
    ->Args({8, 1000})
    ->Args({16, 1000})
    ->Args({32, 1000});

void BM_RestoreAutoOptimized(benchmark::State& state) {
  // The generic rewriter (OptimizePlan) discovers the pruning on its own:
  // σ[jobtype=v](∪ᵢ master ⋈ variantᵢ) → the single consistent branch.
  PruneSetup s = MakeSetup(static_cast<size_t>(state.range(0)),
                           static_cast<size_t>(state.range(1)));
  std::vector<PlanPtr> branches;
  for (auto& fr : s.variant_frs) {
    branches.push_back(
        Plan::NaturalJoin(Plan::Scan(&s.master_fr), Plan::Scan(&fr)));
  }
  PlanPtr naive = Plan::Select(Plan::OuterUnion(std::move(branches)),
                               s.selection);
  RewriteReport report;
  PlanPtr optimized = OptimizePlan(naive, {s.w->eads[0]}, &report);
  EvalStats total;
  for (auto _ : state) {
    EvalStats stats;
    auto out = Evaluate(optimized, &stats);
    benchmark::DoNotOptimize(out);
    total += stats;
  }
  state.counters["branches_pruned"] =
      static_cast<double>(report.branches_pruned);
  state.counters["join_probes_per_iter"] =
      static_cast<double>(total.join_probes) /
      static_cast<double>(std::max<size_t>(state.iterations(), 1));
}
BENCHMARK(BM_RestoreAutoOptimized)
    ->Args({3, 1000})
    ->Args({8, 1000})
    ->Args({16, 1000})
    ->Args({32, 1000});

void BM_OptimizePlanCost(benchmark::State& state) {
  PruneSetup s = MakeSetup(static_cast<size_t>(state.range(0)), 64);
  std::vector<PlanPtr> branches;
  for (auto& fr : s.variant_frs) {
    branches.push_back(
        Plan::NaturalJoin(Plan::Scan(&s.master_fr), Plan::Scan(&fr)));
  }
  PlanPtr naive = Plan::Select(Plan::OuterUnion(std::move(branches)),
                               s.selection);
  for (auto _ : state) {
    PlanPtr optimized = OptimizePlan(naive, {s.w->eads[0]});
    benchmark::DoNotOptimize(optimized);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_OptimizePlanCost)->Arg(3)->Arg(16)->Arg(64);

// The same restore-shaped plan over 4 variants, swept over the row count.
// The rewrite reads each scan's guaranteed and possible attributes from the
// relation's maintained statistics, so its cost must not grow with the rows
// (the perf smoke gates the 20k/1k ratio).
void BM_OptimizePlanRows(benchmark::State& state) {
  PruneSetup s = MakeSetup(4, static_cast<size_t>(state.range(0)));
  std::vector<PlanPtr> branches;
  for (auto& fr : s.variant_frs) {
    branches.push_back(
        Plan::NaturalJoin(Plan::Scan(&s.master_fr), Plan::Scan(&fr)));
  }
  PlanPtr naive = Plan::Select(Plan::OuterUnion(std::move(branches)),
                               s.selection);
  for (auto _ : state) {
    PlanPtr optimized = OptimizePlan(naive, {s.w->eads[0]});
    benchmark::DoNotOptimize(optimized);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_OptimizePlanRows)->ArgName("rows")->Arg(1000)->Arg(20000);

// --- Naive vs PLI join (the evaluator's accelerated path) -----------------
//
// A flat people ⋈ bonus join sharing one attribute (id). The naive path
// probes every tuple pair (n·m); the engine path buckets by shared-attribute
// signature and probes only cluster-compatible pairs (~|result|). Recorded
// into BENCH_eval.json: join_probes_per_iter shrinks by orders of magnitude
// and wall-clock follows.

constexpr AttrId kBenchId = 9001;
constexpr AttrId kBenchJob = 9002;
constexpr AttrId kBenchSalary = 9003;
constexpr AttrId kBenchAmount = 9004;

std::pair<FlexibleRelation, FlexibleRelation> MakeJoinInputs(
    size_t left_rows, size_t right_rows) {
  Rng rng(20260730);
  FlexibleRelation left = FlexibleRelation::Derived("people", DependencySet());
  for (size_t i = 0; i < left_rows; ++i) {
    Tuple t;
    t.Set(kBenchId, Value::Int(static_cast<int64_t>(i)));
    t.Set(kBenchJob, Value::Int(static_cast<int64_t>(i % 3)));
    t.Set(kBenchSalary, Value::Int(rng.UniformInt(1000, 9000)));
    left.InsertUnchecked(std::move(t));
  }
  FlexibleRelation right = FlexibleRelation::Derived("bonus", DependencySet());
  for (size_t j = 0; j < right_rows; ++j) {
    Tuple t;
    t.Set(kBenchId,
          Value::Int(rng.UniformInt(0, static_cast<int64_t>(left_rows) - 1)));
    t.Set(kBenchAmount, Value::Int(static_cast<int64_t>(j)));
    right.InsertUnchecked(std::move(t));
  }
  return {std::move(left), std::move(right)};
}

void RunPairJoin(benchmark::State& state, bool use_engine) {
  auto [left, right] =
      MakeJoinInputs(static_cast<size_t>(state.range(0)), 1000);
  PlanPtr plan = Plan::NaturalJoin(Plan::Scan(&left), Plan::Scan(&right));
  EvalOptions options;
  options.use_engine = use_engine;
  EvalStats total;
  size_t result_rows = 0;
  for (auto _ : state) {
    EvalStats stats;
    auto out = Evaluate(plan, options, &stats);
    benchmark::DoNotOptimize(out);
    result_rows = out.ok() ? out.value().size() : 0;
    total += stats;
  }
  state.counters["join_probes_per_iter"] =
      static_cast<double>(total.join_probes) /
      static_cast<double>(std::max<size_t>(state.iterations(), 1));
  state.counters["result_rows"] = static_cast<double>(result_rows);
}

void BM_PairJoinNaive(benchmark::State& state) {
  RunPairJoin(state, /*use_engine=*/false);
}
BENCHMARK(BM_PairJoinNaive)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(50000)
    ->Unit(benchmark::kMillisecond);

void BM_PairJoinPli(benchmark::State& state) {
  RunPairJoin(state, /*use_engine=*/true);
}
BENCHMARK(BM_PairJoinPli)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(50000)
    ->Unit(benchmark::kMillisecond);

void BM_VariantAnalysisCost(benchmark::State& state) {
  // The pruning decision itself must be cheap (it runs per query).
  PruneSetup s = MakeSetup(static_cast<size_t>(state.range(0)), 16);
  ConstraintMap constraints = ExtractConstraints(s.selection);
  for (auto _ : state) {
    VariantAnalysis a = AnalyzeVariants(constraints, s.w->eads[0]);
    benchmark::DoNotOptimize(a);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_VariantAnalysisCost)->Arg(3)->Arg(32)->Arg(128);

}  // namespace
}  // namespace flexrel
