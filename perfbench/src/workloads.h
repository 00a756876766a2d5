// The three benchmark workloads. Each runs set-up (several times, reporting
// the median), an untimed warm-up pass, then a closed loop with one client
// for the requested seconds, checking outputs as it goes.
//
// Every workload runs the library in its shipped configuration: no
// PliCacheOptions, EvalOptions or EngineDiscoveryOptions overrides, except
// the discovery strategy (a user choice) and the oracle checks, which are
// untimed.

#ifndef FLEXREL_PERFBENCH_WORKLOADS_H_
#define FLEXREL_PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

/// Employee registry (jobtype EAD, 4 variants × 2 attributes), queried
/// with no writes: point, Example-4 guard, range/OR scan, and
/// restore-and-select over the vertical decomposition.
RunResult RunRegistryRead(const Settings& settings);

/// The same registry under a write stream; every write is followed by the
/// point query that reads it back.
RunResult RunRegistryMutate(const Settings& settings);

/// 64-attribute planted-FD instance: level-wise and hybrid discovery of Σ
/// plus an audit of Σ on a fresh cache, per op.
RunResult RunMineWide(const Settings& settings);

}  // namespace perfbench

#endif  // FLEXREL_PERFBENCH_WORKLOADS_H_
