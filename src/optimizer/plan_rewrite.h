// Plan-level rewrites (Section 3.1.2's qualified-relation optimizations).
//
// The paper: "we can exploit each selection concerning the determining
// attributes of an AD to draw conclusions about redundant operations, e.g.
// unnecessary joins with variants that are known to be excluded". The
// rewriter combines three ingredients:
//
//   1. guard rewriting — every selection formula goes through
//      EliminateRedundantGuards (Example 4);
//   2. selection pushdown through (outer) unions;
//   3. excluded-branch pruning — for a selection over a branch whose output
//      *guarantees* some attribute A (every tuple carries it), if the EADs
//      prove A can never be present under the selection's determinant
//      constraints, the branch is provably empty and is replaced by Empty().
//
// Guaranteed attributes are derived structurally (joins accumulate them,
// unions intersect them, scans report the attributes common to all rows).
// A scan's guaranteed and possible attributes come from the statistic every
// FlexibleRelation maintains under mutation — a per-attribute count of the
// rows carrying it (FlexibleRelation::CommonAttrs / ActiveAttrs) — so they
// cost O(|attributes|) per scan, independent of the row count.

#ifndef FLEXREL_OPTIMIZER_PLAN_REWRITE_H_
#define FLEXREL_OPTIMIZER_PLAN_REWRITE_H_

#include "algebra/plan.h"
#include "optimizer/guard_analysis.h"

namespace flexrel {

/// Attributes present in every tuple the plan can emit (conservative:
/// a subset of the true guarantee).
AttrSet GuaranteedAttrs(const PlanPtr& plan);

/// Attributes that may appear in some emitted tuple (conservative: a
/// superset of the truth). Drives join pushdown: a selection reading only
/// attributes guaranteed by the left side and impossible on the right side
/// evaluates identically before and after the join.
AttrSet PossibleAttrs(const PlanPtr& plan);

/// Statistics of one OptimizePlan run.
struct RewriteReport {
  size_t guards_eliminated = 0;
  size_t guards_falsified = 0;
  size_t branches_pruned = 0;   ///< subtrees proven empty
  size_t selects_pushed = 0;    ///< selections pushed through unions
  size_t joins_reordered = 0;   ///< multiway joins whose leg order changed
};

/// Rough output-cardinality estimate of `plan`, the statistic behind
/// multiway-join leg ordering. Scans report their relation's size; equality
/// and IN selections directly over a scan consult the scanned relation's
/// partition cache (the matching value cluster's exact size); everything
/// else combines child estimates structurally. Estimates of derived
/// operators are heuristic — they order work, they never gate correctness.
size_t EstimateRows(const PlanPtr& plan);

/// Rewrites `plan` under the given EADs. Soundness contract: the rewrite is
/// result-preserving whenever the tuple streams reaching each selection are
/// EAD-valid — true for scans of type-checked flexible relations and for
/// restorations of their decompositions (each restored tuple is an original
/// tuple). A selection above an operator that *manufactures* EAD-invalid
/// tuples (say, a projection that drops a determinant and a formula that
/// still references it) falls outside the contract, exactly as in Example 4.
PlanPtr OptimizePlan(const PlanPtr& plan,
                     const std::vector<ExplicitAD>& eads,
                     RewriteReport* report = nullptr);

}  // namespace flexrel

#endif  // FLEXREL_OPTIMIZER_PLAN_REWRITE_H_
