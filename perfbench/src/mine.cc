// mine-wide: discovery and audit of Σ over a wide planted-FD instance.

#include <limits>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "engine/parallel_discovery.h"
#include "engine/pli_cache.h"
#include "engine/validator.h"
#include "storage/serialization.h"
#include "telemetry/telemetry.h"
#include "workloads.h"

namespace perfbench {

using namespace flexrel;  // NOLINT(build/namespaces)

namespace {

constexpr AttrId kWideAttrs = 64;
constexpr size_t kWideRows = 2048;
constexpr int kSetupReps = 3;

// The planted-FD shape: every attribute is absent with probability 0.15,
// values skew toward 0 (a few huge clusters, a thin tail), and four FDs
// {3p, 3p+1} → 3p+2 hold over the rows carrying their determinant.
std::vector<Tuple> MakeWidePlanted(uint64_t seed, const AttrSet& universe) {
  constexpr int64_t kDomain = 6;
  constexpr size_t kPlanted = 4;
  std::mt19937_64 gen(seed);
  auto below = [&](uint64_t n) { return gen() % n; };
  const std::vector<AttrId>& ids = universe.ids();
  std::vector<Tuple> rows;
  std::unordered_set<Tuple, TupleHash> seen;
  while (rows.size() < kWideRows) {
    Tuple t;
    for (AttrId a : ids) {
      if (below(100) < 15) continue;
      const uint64_t hi = below(kDomain);
      t.Set(a, Value::Int(static_cast<int64_t>(below(hi + 1))));
    }
    for (size_t p = 0; p < kPlanted; ++p) {
      const Value* v0 = t.Get(ids[3 * p]);
      const Value* v1 = t.Get(ids[3 * p + 1]);
      if (v0 != nullptr && v1 != nullptr) {
        t.Set(ids[3 * p + 2],
              Value::Int((v0->as_int() * 7 + v1->as_int() * 13) % kDomain));
      }
    }
    if (seen.insert(t).second) rows.push_back(std::move(t));
  }
  return rows;
}

struct WideSetup {
  std::unique_ptr<FlexDb> db;
  AttrSet universe;
  double read_ms = 0;
};

// Generates the instance under a scheme admitting any attribute subset
// (<0, 64, {a0..a63}>), serializes it, and loads it back through ReadFlexDb.
WideSetup LoadWide(uint64_t seed, RunResult* r) {
  WideSetup out;
  AttrCatalog catalog;
  std::vector<FlexibleScheme> leaves;
  AttrSet universe;
  for (AttrId i = 0; i < kWideAttrs; ++i) {
    const AttrId a = catalog.Intern("a" + std::to_string(i));
    leaves.push_back(FlexibleScheme::Attr(a));
    universe.Insert(a);
  }
  Result<FlexibleScheme> scheme =
      FlexibleScheme::Group(0, kWideAttrs, std::move(leaves));
  if (!scheme.ok()) {
    r->Fail("scheme: " + scheme.status().ToString());
    return out;
  }
  FlexibleRelation rel =
      FlexibleRelation::Base("wide", &catalog, scheme.value(), {}, {});
  if (Status st = rel.InsertRows(MakeWidePlanted(seed, universe)); !st.ok()) {
    r->Fail("insert: " + st.ToString());
    return out;
  }
  const std::string text = WriteFlexDb(catalog, scheme.value(), {}, {}, rel);
  const uint64_t t = NowNs();
  Result<std::unique_ptr<FlexDb>> db = ReadFlexDb(text);
  out.read_ms = static_cast<double>(NowNs() - t) / 1e6;
  if (!db.ok()) {
    r->Fail("ReadFlexDb: " + db.status().ToString());
    return out;
  }
  out.db = std::move(db.value());
  for (AttrId i = 0; i < kWideAttrs; ++i) {
    Result<AttrId> a = out.db->catalog.Find("a" + std::to_string(i));
    if (!a.ok()) {
      r->Fail("attribute lost in load");
      out.db.reset();
      return out;
    }
    out.universe.Insert(a.value());
  }
  return out;
}

// Counter deltas of the hybrid pass (traced runs only).
struct HybridTally {
  uint64_t candidates = 0;
  uint64_t pruned = 0;
  uint64_t validations = 0;
  uint64_t wasted = 0;
  uint64_t evictions_levelwise = 0;
  uint64_t evictions_hybrid = 0;
};

struct MineTimes {
  double levelwise_s = 0;
  double hybrid_s = 0;
  double audit_ms = 0;
  double total_us = 0;
};

bool SameSigma(const DependencySet& a, const DependencySet& b) {
  return a.fds() == b.fds() && a.ads() == b.ads();
}

// One op: Σ level-wise, Σ hybrid, then the audit of Σ on a fresh cache.
// Returns false (with `why`) when a check fails.
bool MineOnce(const WideSetup& w, Tracer* tracer, HybridTally* tally,
              MineTimes* times, std::string* why) {
  const std::vector<Tuple>& rows = w.db->relation.rows();
  EngineDiscoveryOptions levelwise;
  EngineDiscoveryOptions hybrid;
  hybrid.strategy = DiscoveryStrategy::kHybrid;
  DiscoveryRunInfo lw_info;
  DiscoveryRunInfo hy_info;
  DependencySet lw_sigma;
  DependencySet hy_sigma;
  bool audit_ok = false;
  const bool traced = tally != nullptr;
  uint64_t ev0 = traced ? Counter("engine.pli_cache.evictions") : 0;
  const uint64_t t0 = NowNs();
  {
    Scope span(tracer, "engine.discovery.levelwise");
    lw_sigma = EngineDiscoverDependencies(rows, w.universe, levelwise, &lw_info);
  }
  const uint64_t t1 = NowNs();
  uint64_t c0 = 0, p0 = 0, v0 = 0, x0 = 0, ev1 = 0;
  if (traced) {
    ev1 = Counter("engine.pli_cache.evictions");
    c0 = Counter("engine.discovery.candidates");
    p0 = Counter("engine.discovery.pruned");
    v0 = Counter("engine.discovery.frontier_validations");
    x0 = Counter("engine.discovery.wasted_validations");
  }
  const uint64_t t2 = NowNs();
  {
    Scope span(tracer, "engine.discovery.hybrid");
    hy_sigma = EngineDiscoverDependencies(rows, w.universe, hybrid, &hy_info);
  }
  const uint64_t t3 = NowNs();
  if (traced) {
    tally->evictions_levelwise += ev1 - ev0;
    tally->evictions_hybrid += Counter("engine.pli_cache.evictions") - ev1;
    tally->candidates += Counter("engine.discovery.candidates") - c0;
    tally->pruned += Counter("engine.discovery.pruned") - p0;
    tally->validations += Counter("engine.discovery.frontier_validations") - v0;
    tally->wasted += Counter("engine.discovery.wasted_validations") - x0;
  }
  const uint64_t t4 = NowNs();
  {
    Scope span(tracer, "engine.validator.audit");
    PliCache cache(&rows);
    DependencyValidator validator(&cache);
    audit_ok = validator.ValidatesAll(lw_sigma);
  }
  const uint64_t t5 = NowNs();
  times->levelwise_s = static_cast<double>(t1 - t0) / 1e9;
  times->hybrid_s = static_cast<double>(t3 - t2) / 1e9;
  times->audit_ms = static_cast<double>(t5 - t4) / 1e6;
  times->total_us = static_cast<double>((t1 - t0) + (t3 - t2) + (t5 - t4)) / 1e3;

  if (!lw_info.status.ok() || lw_info.partial) {
    *why = "level-wise discovery: " + lw_info.status.ToString();
  } else if (!hy_info.status.ok() || hy_info.partial) {
    *why = "hybrid discovery: " + hy_info.status.ToString();
  } else if (lw_sigma.size() == 0) {
    *why = "discovery found no dependencies on a planted instance";
  } else if (!SameSigma(lw_sigma, hy_sigma)) {
    *why = "level-wise and hybrid Σ differ";
  } else if (!audit_ok) {
    *why = "the audit rejects the discovered Σ";
  } else {
    return true;
  }
  return false;
}

struct MinePhase {
  Samples ops;
  Samples levelwise_s;
  Samples hybrid_s;
  Samples audit_ms;
  double measured_s = 0;
};

void RunMinePhase(const WideSetup& w, Tracer* tracer, double seconds,
                  uint64_t* op_id, HybridTally* tally, MinePhase* phase,
                  RunResult* r) {
  const uint64_t budget = static_cast<uint64_t>(seconds * 1e9);
  uint64_t measured = 0;
  while (measured < budget) {
    r->Attempt();
    MineTimes times;
    std::string why;
    tracer->BeginOp(static_cast<uint32_t>(++*op_id));
    const uint64_t t0 = NowNs();
    bool ok = false;
    {
      Scope span(tracer, "op");
      ok = MineOnce(w, tracer, tally, &times, &why);
    }
    measured += NowNs() - t0;
    tracer->EndOp();
    phase->ops.Add(times.total_us);
    phase->levelwise_s.Add(times.levelwise_s);
    phase->hybrid_s.Add(times.hybrid_s);
    phase->audit_ms.Add(times.audit_ms);
    if (!ok) r->Fail(why);
  }
  phase->measured_s = static_cast<double>(measured) / 1e9;
}

}  // namespace

RunResult RunMineWide(const Settings& settings) {
  RunResult r;
  Tracer tracer;
  WideSetup w;
  std::vector<double> setups;
  std::vector<double> reads;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    w = WideSetup();  // one loaded instance alive at a time
    const uint64_t t0 = NowNs();
    w = LoadWide(settings.seed, &r);
    if (w.db == nullptr) return r;
    // Warm-up: one op of each discovery strategy plus the audit.
    r.Attempt();
    MineTimes times;
    std::string why;
    if (!MineOnce(w, &tracer, nullptr, &times, &why)) r.Fail("warm-up: " + why);
    setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    reads.push_back(w.read_ms);
  }
  uint64_t op_id = 0;
  MinePhase plain;
  // Traced: a quarter untraced, half traced, a quarter untraced.
  const double untraced_s = settings.trace ? settings.seconds / 4
                                           : settings.seconds;
  RunMinePhase(w, &tracer, untraced_s, &op_id, nullptr, &plain, &r);
  // Uncorrected: a round runs on discovery's worker pool, whose speed the
  // client-thread HostSpeed probe does not track; over two sets of five and
  // six runs, scaling by it did not narrow the spread of the timings.
  EmitEndToEnd(&r, MedianOf(setups), plain.ops, plain.measured_s, 1.0);
  r.Metric("discover_s", plain.levelwise_s.Quantile(0.5), "s");
  r.Metric("discover_hybrid_s", plain.hybrid_s.Quantile(0.5), "s");
  r.Metric("audit_ms", plain.audit_ms.Quantile(0.5), "ms");
  r.Info("rounds", std::to_string(plain.ops.count()));
  r.Info("rows", std::to_string(w.db->relation.size()));
  r.Info("discovery_workers",
         std::to_string(std::thread::hardware_concurrency()));

  if (settings.trace) {
    telemetry::Enable({1u << 16});
    telemetry::Registry::Global().Reset();
    tracer.set_enabled(true);
    HybridTally tally;
    MinePhase traced;
    RunMinePhase(w, &tracer, settings.seconds / 2, &op_id, &tally, &traced, &r);
    tracer.set_enabled(false);
    const double n = static_cast<double>(std::max<size_t>(traced.ops.count(), 1));
    EmitEngineLayers(&r, static_cast<double>(traced.ops.count()),
                     Summarize(tracer.spans()), settings, tracer);
    r.Layer("engine.pli_cache.evictions_levelwise",
            static_cast<double>(tally.evictions_levelwise) / n, "count/op");
    r.Layer("engine.pli_cache.evictions_hybrid",
            static_cast<double>(tally.evictions_hybrid) / n, "count/op");
    r.Layer("engine.discovery.candidates",
            static_cast<double>(tally.candidates) / n, "count/op");
    r.Layer("engine.discovery.pruned", static_cast<double>(tally.pruned) / n,
            "count/op");
    r.Layer("engine.discovery.validated_frac",
            tally.candidates == 0 ? 0
                                  : static_cast<double>(tally.validations) /
                                        static_cast<double>(tally.candidates),
            "ratio");
    r.Layer("engine.discovery.wasted_validations",
            static_cast<double>(tally.wasted) / n, "count/op");
    r.Layer("storage.read_flexdb_ms", MedianOf(reads), "ms");
    telemetry::Disable();
    MinePhase after;
    RunMinePhase(w, &tracer, settings.seconds / 4, &op_id, nullptr, &after, &r);
    r.Layer("trace.overhead_pct", OverheadPct(traced.ops, plain.ops, after.ops),
            "%");
    // Footprint of a level-wise run's cache, re-accounted by the library:
    // accounting only runs under a memory budget, so this untimed twin
    // carries one no structure can exceed.
    PliCacheOptions accounting;
    accounting.memory_budget_bytes = std::numeric_limits<size_t>::max();
    PliCache twin(&w.db->relation.rows(), accounting);
    DependencyValidator validator(&twin);
    EngineDiscoverDependencies(&validator, w.universe);
    const PliCache::StatsSnapshot st = twin.Stats();
    r.Layer("engine.pli_cache.bytes_plis", static_cast<double>(st.bytes_plis),
            "B");
    r.Layer("engine.pli_cache.bytes_probes",
            static_cast<double>(st.bytes_probes), "B");
    r.Layer("engine.pli_cache.bytes_indexes",
            static_cast<double>(st.bytes_indexes), "B");
    r.Layer("engine.pli_cache.bytes_columns",
            static_cast<double>(st.bytes_columns), "B");
  }
  return r;
}

}  // namespace perfbench
