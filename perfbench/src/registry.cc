// registry-read and registry-mutate: the paper's employee registry, whose
// jobtype EAD type-checks writes and lets the optimizer drop type guards and
// prune excluded variants (Example 4, Section 3.1.2).

#include <algorithm>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "algebra/evaluate.h"
#include "decomposition/decomposition.h"
#include "engine/pli_cache.h"
#include "optimizer/plan_rewrite.h"
#include "query/query_parser.h"
#include "storage/serialization.h"
#include "telemetry/telemetry.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace flexrel;  // NOLINT(build/namespaces)

constexpr size_t kRows = 20000;
constexpr size_t kVariants = 4;
constexpr size_t kAttrsPerVariant = 2;
constexpr size_t kCommonAttrs = 2;
constexpr double kInvalidFraction = 0.01;
constexpr int kSetupReps = 3;
// The read workload checks one query of each class in this many against
// the naive evaluator; the mutate workload compares its cache with a
// from-scratch rebuild every this many writes.
constexpr uint64_t kOracleEvery = 32;
constexpr uint64_t kCheckpointEvery = 256;

// Everything one registry run needs. Heap-held: plans keep pointers to the
// relations, and the loaded database owns the catalog its checker reads.
struct RegistryState {
  std::unique_ptr<EmployeeWorkload> gen;  // generator output, rows dropped
  std::unique_ptr<FlexDb> db;
  std::vector<AttrId> remap;  // generator attr id -> loaded attr id
  AttrId id = 0;
  AttrId jobtype = 0;
  std::vector<AttrId> commons;                    // common0, common1
  std::vector<std::vector<AttrId>> variant_attrs;  // per variant
  std::vector<Value> jobtypes;
  std::vector<Tuple> invalid;  // EAD-violating, in loaded ids
  // Vertical decomposition (registry-read only).
  FlexibleRelation master;
  std::vector<FlexibleRelation> parts;
  std::vector<PlanPtr> restore_plans;  // σ[jobtype=v](∪ master ⋈ part_i)
  int64_t next_id = 0;
};

// Where one set-up's time went, printed beside setup_s.
struct SetupTimes {
  double generate_ms = 0;
  double write_ms = 0;
  double read_ms = 0;
  double decompose_ms = 0;

  void Report(RunResult* r) const {
    r->Info("setup_generate_ms", std::to_string(generate_ms));
    r->Info("setup_write_flexdb_ms", std::to_string(write_ms));
    r->Info("setup_read_flexdb_ms", std::to_string(read_ms));
    r->Info("setup_decompose_ms", std::to_string(decompose_ms));
  }
};

double MsSince(uint64_t start) {
  return static_cast<double>(NowNs() - start) / 1e6;
}

std::string Name(const RegistryState& s, AttrId a) {
  return s.db->catalog.Name(a);
}

Tuple Remap(const RegistryState& s, const Tuple& t) {
  Tuple out;
  for (const auto& [attr, value] : t.fields()) out.Set(s.remap[attr], value);
  return out;
}

std::vector<Tuple> SortedRows(const FlexibleRelation& r) {
  std::vector<Tuple> rows = r.rows();
  std::sort(rows.begin(), rows.end());
  return rows;
}

// Work counters of the traced phase.
struct Tally {
  RewriteReport rewrite;
  EvalStats eval;
  uint64_t index_hits = 0;
  uint64_t queries = 0;
};

// Runs queries through the public pipeline: ParseQuery → BuildQueryPlan →
// OptimizePlan → Evaluate, each call inside its own span.
class QueryRunner {
 public:
  QueryRunner(RegistryState* s, Tracer* tracer) : s_(s), tracer_(tracer) {}

  void set_tally(Tally* tally) { tally_ = tally; }

  Result<FlexibleRelation> Text(const std::string& text) {
    PlanPtr plan;
    {
      Scope span(tracer_, "query.parse");
      Result<ParsedQuery> q = ParseQuery(&s_->db->catalog, text);
      if (!q.ok()) return q.status();
      plan = BuildQueryPlan(q.value(), &s_->db->relation);
    }
    return OptimizeAndEvaluate(plan);
  }

  Result<FlexibleRelation> Restore(size_t variant) {
    return OptimizeAndEvaluate(s_->restore_plans[variant]);
  }

 private:
  Result<FlexibleRelation> OptimizeAndEvaluate(const PlanPtr& plan) {
    PlanPtr optimized;
    RewriteReport report;
    {
      Scope span(tracer_, "optimizer.rewrite");
      optimized = OptimizePlan(plan, s_->db->eads,
                               tally_ != nullptr ? &report : nullptr);
    }
    EvalStats stats;
    Result<FlexibleRelation> out = Status::Internal("not evaluated");
    {
      Scope span(tracer_, "algebra.eval");
      out = Evaluate(optimized, tally_ != nullptr ? &stats : nullptr);
    }
    if (tally_ != nullptr) {
      tally_->rewrite.guards_eliminated += report.guards_eliminated;
      tally_->rewrite.branches_pruned += report.branches_pruned;
      tally_->eval += stats;
      ++tally_->queries;
    }
    return out;
  }

  RegistryState* s_;
  Tracer* tracer_;
  Tally* tally_ = nullptr;
};

// ---------------------------------------------------------------------------
// Set-up: generate, serialize, load through ReadFlexDb (type checks and the
// Σ audit), and for registry-read decompose vertically.
// ---------------------------------------------------------------------------

std::unique_ptr<RegistryState> Load(uint64_t seed, bool decompose,
                                    SetupTimes* times, RunResult* result) {
  auto s = std::make_unique<RegistryState>();
  uint64_t t = NowNs();
  EmployeeConfig config;
  config.num_variants = kVariants;
  config.attrs_per_variant = kAttrsPerVariant;
  config.num_common_attrs = kCommonAttrs;
  config.rows = kRows;
  config.invalid_fraction = kInvalidFraction;
  config.seed = seed;
  Result<std::unique_ptr<EmployeeWorkload>> gen = MakeEmployeeWorkload(config);
  if (!gen.ok()) {
    result->Fail("generate: " + gen.status().ToString());
    return nullptr;
  }
  s->gen = std::move(gen.value());
  times->generate_ms = MsSince(t);

  t = NowNs();
  EmployeeWorkload& w = *s->gen;
  const std::string text =
      WriteFlexDb(w.catalog, w.scheme, w.eads, w.domains, w.relation);
  times->write_ms = MsSince(t);
  w.relation = FlexibleRelation();  // the loaded copy is the one measured

  t = NowNs();
  Result<std::unique_ptr<FlexDb>> db = ReadFlexDb(text);
  times->read_ms = MsSince(t);
  if (!db.ok()) {
    result->Fail("ReadFlexDb: " + db.status().ToString());
    return nullptr;
  }
  s->db = std::move(db.value());

  s->remap.assign(w.catalog.size(), 0);
  for (AttrId a = 0; a < w.catalog.size(); ++a) {
    Result<AttrId> found = s->db->catalog.Find(w.catalog.Name(a));
    if (!found.ok()) {
      result->Fail("attribute lost in load: " + w.catalog.Name(a));
      return nullptr;
    }
    s->remap[a] = found.value();
  }
  s->id = s->remap[w.id_attr];
  s->jobtype = s->remap[w.jobtype_attr];
  for (AttrId a : w.common_attrs) {
    if (a != w.id_attr && a != w.jobtype_attr) s->commons.push_back(s->remap[a]);
  }
  for (const EadVariant& v : w.eads.front().variants()) {
    std::vector<AttrId> attrs;
    for (AttrId a : v.then) attrs.push_back(s->remap[a]);
    s->variant_attrs.push_back(std::move(attrs));
  }
  s->jobtypes = w.jobtype_values;
  for (const Tuple& bad : w.invalid_tuples) s->invalid.push_back(Remap(*s, bad));
  s->next_id = static_cast<int64_t>(s->db->relation.size());

  if (decompose) {
    t = NowNs();
    Result<VerticalDecomposition> parts = TranslateVertical(
        s->db->relation, s->db->eads.front(), AttrSet::Of(s->id));
    if (!parts.ok()) {
      result->Fail("TranslateVertical: " + parts.status().ToString());
      return nullptr;
    }
    s->master = FlexibleRelation::Derived("master", DependencySet());
    for (const Tuple& row : parts.value().master.rows()) {
      s->master.InsertUnchecked(row);
    }
    for (const Relation& r : parts.value().variant_relations) {
      FlexibleRelation fr = FlexibleRelation::Derived(r.name(), DependencySet());
      for (const Tuple& row : r.rows()) fr.InsertUnchecked(row);
      s->parts.push_back(std::move(fr));
    }
    for (size_t v = 0; v < s->jobtypes.size(); ++v) {
      std::vector<PlanPtr> branches;
      for (const FlexibleRelation& part : s->parts) {
        branches.push_back(
            Plan::NaturalJoin(Plan::Scan(&s->master), Plan::Scan(&part)));
      }
      s->restore_plans.push_back(
          Plan::Select(Plan::OuterUnion(std::move(branches)),
                       Expr::Eq(s->jobtype, s->jobtypes[v])));
    }
    times->decompose_ms = MsSince(t);
  }
  return s;
}

// ---------------------------------------------------------------------------
// registry-read
// ---------------------------------------------------------------------------

enum QueryClass : int { kPoint = 0, kGuard, kScan, kRestore, kNumClasses };
const char* const kClassNames[kNumClasses] = {"point", "guard", "scan",
                                              "restore"};

struct Query {
  QueryClass cls = kPoint;
  std::string text;  // empty for kRestore
  size_t variant = 0;
};

Query MakeQuery(const RegistryState& s, QueryClass cls, Rng* rng) {
  Query q;
  q.cls = cls;
  char buf[256];
  switch (cls) {
    case kPoint:
      std::snprintf(buf, sizeof(buf), "SELECT * WHERE %s = %lld",
                    Name(s, s.id).c_str(),
                    static_cast<long long>(rng->UniformInt(0, kRows - 1)));
      q.text = buf;
      break;
    case kGuard: {
      // Example 4: the EXISTS guard is implied by the jobtype selection.
      q.variant = rng->Index(s.jobtypes.size());
      const std::vector<AttrId>& attrs = s.variant_attrs[q.variant];
      std::snprintf(buf, sizeof(buf),
                    "SELECT * WHERE %s = '%s' AND EXISTS(%s) AND %s > %lld",
                    Name(s, s.jobtype).c_str(),
                    s.jobtypes[q.variant].as_string().c_str(),
                    Name(s, attrs[0]).c_str(), Name(s, attrs[1]).c_str(),
                    static_cast<long long>(rng->UniformInt(0, 1 << 16)));
      q.text = buf;
      break;
    }
    case kScan: {
      const long long lo = rng->UniformInt(0, (1 << 16) - 2048);
      std::snprintf(buf, sizeof(buf),
                    "SELECT %s, %s, %s WHERE (%s >= %lld AND %s < %lld) OR "
                    "%s < %lld",
                    Name(s, s.id).c_str(), Name(s, s.jobtype).c_str(),
                    Name(s, s.commons[0]).c_str(),
                    Name(s, s.commons[0]).c_str(), lo,
                    Name(s, s.commons[0]).c_str(), lo + 2048,
                    Name(s, s.commons[1]).c_str(),
                    static_cast<long long>(rng->UniformInt(0, 1024)));
      q.text = buf;
      break;
    }
    default:
      q.variant = rng->Index(s.jobtypes.size());
      break;
  }
  return q;
}

Result<FlexibleRelation> RunQuery(QueryRunner* runner, const Query& q) {
  return q.cls == kRestore ? runner->Restore(q.variant) : runner->Text(q.text);
}

// The naive evaluator (EvalOptions::use_engine = false) on the unoptimized
// plan; restore-and-select is checked against σ[jobtype=v] over the source
// relation, which the restoration must reproduce row for row.
bool MatchesNaive(RegistryState* s, const Query& q,
                  const FlexibleRelation& got, std::string* why) {
  EvalOptions naive;
  naive.use_engine = false;
  PlanPtr plan;
  if (q.cls == kRestore) {
    plan = Plan::Select(Plan::Scan(&s->db->relation),
                        Expr::Eq(s->jobtype, s->jobtypes[q.variant]));
  } else {
    Result<ParsedQuery> parsed = ParseQuery(&s->db->catalog, q.text);
    if (!parsed.ok()) {
      *why = parsed.status().ToString();
      return false;
    }
    plan = BuildQueryPlan(parsed.value(), &s->db->relation);
  }
  Result<FlexibleRelation> want = Evaluate(plan, naive);
  if (!want.ok()) {
    *why = "naive: " + want.status().ToString();
    return false;
  }
  if (SortedRows(got) != SortedRows(want.value())) {
    *why = "rows differ from the naive evaluator (" +
           std::to_string(got.size()) + " vs " +
           std::to_string(want.value().size()) + ")";
    return false;
  }
  return true;
}

size_t CountIndexHits(const ExplainNode& node) {
  size_t n = node.index_hit ? 1 : 0;
  for (const ExplainNode& child : node.children) n += CountIndexHits(child);
  return n;
}

// Index hits of one query, read off the evaluator's own EXPLAIN report.
size_t IndexHitsOf(RegistryState* s, const Query& q) {
  PlanPtr plan;
  if (q.cls == kRestore) {
    plan = s->restore_plans[q.variant];
  } else {
    Result<ParsedQuery> parsed = ParseQuery(&s->db->catalog, q.text);
    if (!parsed.ok()) return 0;
    plan = BuildQueryPlan(parsed.value(), &s->db->relation);
  }
  Result<ExplainReport> report = Explain(OptimizePlan(plan, s->db->eads));
  return report.ok() ? CountIndexHits(report.value().root) : 0;
}

// One closed-loop measurement phase of registry-read.
struct ReadPhase {
  Samples all;
  Samples per_class[kNumClasses];
  double measured_s = 0;
  HostSpeed host;
};

void RunReadPhase(RegistryState* s, QueryRunner* runner, Tracer* tracer,
                  Rng* rng, double seconds, uint64_t* op_id,
                  const size_t* class_hits, Tally* tally, ReadPhase* phase,
                  RunResult* result) {
  const uint64_t budget = static_cast<uint64_t>(seconds * 1e9);
  uint64_t measured = 0;
  uint64_t n = 0;
  while (measured < budget) {
    phase->host.Tick();
    // Classes rotate so each run holds the same mix; the rng draws only the
    // query parameters.
    const QueryClass cls = static_cast<QueryClass>(*op_id % kNumClasses);
    const Query q = MakeQuery(*s, cls, rng);
    const uint32_t op = static_cast<uint32_t>(++*op_id);
    result->Attempt();
    tracer->BeginOp(op);
    const uint64_t t0 = NowNs();
    Result<FlexibleRelation> out = Status::Internal("not run");
    {
      Scope span(tracer, "op");
      out = RunQuery(runner, q);
    }
    const uint64_t dt = NowNs() - t0;
    tracer->EndOp();
    if (tally != nullptr) tally->index_hits += class_hits[cls];
    measured += dt;
    phase->all.Add(static_cast<double>(dt) / 1e3);
    phase->per_class[cls].Add(static_cast<double>(dt) / 1e3);
    if (!out.ok()) {
      result->Fail(std::string(kClassNames[cls]) + ": " +
                   out.status().ToString());
      continue;
    }
    if (cls == kPoint && out.value().size() != 1) {
      result->Fail("point query returned " +
                   std::to_string(out.value().size()) + " rows");
      continue;
    }
    if (n++ % kOracleEvery < kNumClasses) {
      std::string why;
      if (!MatchesNaive(s, q, out.value(), &why)) {
        result->Fail(std::string(kClassNames[cls]) + ": " + why);
      }
    }
  }
  phase->measured_s = static_cast<double>(measured) / 1e9;
}

// Cache footprint, re-accounted by the library itself: accounting only
// runs under a memory budget, so the traced run reloads the relation's
// cache with a budget no structure can exceed and repopulates it.
void EmitCacheBytes(FlexibleRelation* relation,
                    const std::function<void()>& populate, RunResult* r) {
  PliCacheOptions accounting;
  accounting.memory_budget_bytes = std::numeric_limits<size_t>::max();
  relation->SetPliCacheOptions(accounting);
  populate();
  const PliCache::StatsSnapshot st = relation->pli_cache()->Stats();
  r->Layer("engine.pli_cache.bytes_plis", static_cast<double>(st.bytes_plis),
           "B");
  r->Layer("engine.pli_cache.bytes_probes",
           static_cast<double>(st.bytes_probes), "B");
  r->Layer("engine.pli_cache.bytes_indexes",
           static_cast<double>(st.bytes_indexes), "B");
  r->Layer("engine.pli_cache.bytes_columns",
           static_cast<double>(st.bytes_columns), "B");
}

}  // namespace

RunResult RunRegistryRead(const Settings& settings) {
  RunResult r;
  std::vector<double> setups;
  std::vector<double> reads;
  std::unique_ptr<RegistryState> s;
  Tracer tracer;
  Rng rng(settings.seed * 0x9E3779B97F4A7C15ull + 1);
  SetupTimes times;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s.reset();  // one loaded registry alive at a time
    const uint64_t t0 = NowNs();
    s = Load(settings.seed, /*decompose=*/true, &times, &r);
    if (s == nullptr) return r;
    // Warm-up: one untimed pass over every query class, so lazily built
    // cache structures exist before timing and their cost lands here.
    QueryRunner warm(s.get(), &tracer);
    Rng warm_rng(settings.seed);
    for (int c = 0; c < kNumClasses; ++c) {
      for (size_t v = 0; v < kVariants; ++v) {
        Query q = MakeQuery(*s, static_cast<QueryClass>(c), &warm_rng);
        if (c == kRestore) q.variant = v;  // one restore plan per variant
        r.Attempt();
        Result<FlexibleRelation> out = RunQuery(&warm, q);
        if (!out.ok()) r.Fail("warm-up: " + out.status().ToString());
      }
    }
    setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    reads.push_back(times.read_ms);
  }
  QueryRunner runner(s.get(), &tracer);
  uint64_t op_id = 0;
  size_t class_hits[kNumClasses] = {0, 0, 0, 0};

  ReadPhase plain;
  // A traced run measures a quarter untraced, half traced, and another
  // quarter untraced, which brackets the traced half for the overhead.
  const double untraced_s = settings.trace ? settings.seconds / 4
                                           : settings.seconds;
  RunReadPhase(s.get(), &runner, &tracer, &rng, untraced_s, &op_id, class_hits,
               nullptr, &plain, &r);
  EmitEndToEnd(&r, MedianOf(setups), plain.all, plain.measured_s,
               plain.host.Scale());
  r.Metric("query_p50_us", plain.all.Quantile(0.5), "us");
  r.Metric("query_p99_us", plain.all.Quantile(0.99), "us");
  r.Metric("queries_per_s", static_cast<double>(plain.all.count()) /
                                std::max(plain.measured_s, 1e-9),
           "1/s");
  for (int c = 0; c < kNumClasses; ++c) {
    r.Metric(std::string("query_") + kClassNames[c] + "_p50_us",
             plain.per_class[c].Quantile(0.5), "us");
  }
  times.Report(&r);
  r.Info("queries", std::to_string(plain.all.count()));
  r.Info("rows", std::to_string(s->db->relation.size()));

  if (settings.trace) {
    for (int c = 0; c < kNumClasses; ++c) {
      class_hits[c] =
          IndexHitsOf(s.get(), MakeQuery(*s, static_cast<QueryClass>(c), &rng));
    }
    flexrel::telemetry::Enable({1u << 16});
    flexrel::telemetry::Registry::Global().Reset();
    tracer.set_enabled(true);
    Tally tally;
    runner.set_tally(&tally);
    ReadPhase traced;
    RunReadPhase(s.get(), &runner, &tracer, &rng, settings.seconds / 2, &op_id,
                 class_hits, &tally, &traced, &r);
    tracer.set_enabled(false);
    runner.set_tally(nullptr);
    const SpanSummary spans = Summarize(tracer.spans());
    const double q = static_cast<double>(std::max<uint64_t>(tally.queries, 1));
    EmitEngineLayers(&r, static_cast<double>(traced.all.count()), spans,
                     settings, tracer);
    r.Layer("optimizer.guards_eliminated",
            static_cast<double>(tally.rewrite.guards_eliminated) / q, "count/op");
    r.Layer("optimizer.branches_pruned",
            static_cast<double>(tally.rewrite.branches_pruned) / q, "count/op");
    r.Layer("algebra.tuples_scanned",
            static_cast<double>(tally.eval.tuples_scanned) / q, "count/op");
    r.Layer("algebra.predicate_evals",
            static_cast<double>(tally.eval.predicate_evals) / q, "count/op");
    r.Layer("algebra.join_probes",
            static_cast<double>(tally.eval.join_probes) / q, "count/op");
    r.Layer("algebra.index_hits", static_cast<double>(tally.index_hits) / q,
            "count/op");
    r.Layer("algebra.emitted_per_scanned",
            tally.eval.tuples_scanned == 0
                ? 0
                : static_cast<double>(tally.eval.tuples_emitted) /
                      static_cast<double>(tally.eval.tuples_scanned),
            "ratio");
    r.Layer("storage.read_flexdb_ms", MedianOf(reads), "ms");
    flexrel::telemetry::Disable();
    ReadPhase after;
    RunReadPhase(s.get(), &runner, &tracer, &rng, settings.seconds / 4, &op_id,
                 class_hits, nullptr, &after, &r);
    r.Layer("trace.overhead_pct", OverheadPct(traced.all, plain.all, after.all),
            "%");
    EmitCacheBytes(&s->db->relation, [&] {
      Rng again(settings.seed);
      for (int c = 0; c < kNumClasses; ++c) {
        RunQuery(&runner, MakeQuery(*s, static_cast<QueryClass>(c), &again));
      }
      // The load's Σ audit is what builds partitions in the measured run.
      s->db->relation.AuditDeclaredDeps();
    }, &r);
  }
  return r;
}

// ---------------------------------------------------------------------------
// registry-mutate
// ---------------------------------------------------------------------------

namespace {

enum class WriteKind { kUpdate, kFlip, kBurst8, kBurst64, kInsertBatch, kInvalid };

// Share of each write kind, in per-mille of the stream.
struct KindShare {
  WriteKind kind;
  int per_mille;
  const char* name;
};
constexpr KindShare kMix[] = {
    {WriteKind::kUpdate, 800, "update"},   {WriteKind::kFlip, 40, "flip"},
    {WriteKind::kBurst8, 60, "burst8"},    {WriteKind::kBurst64, 20, "burst64"},
    {WriteKind::kInsertBatch, 50, "insert_batch"},
    {WriteKind::kInvalid, 30, "invalid"},
};

WriteKind DrawKind(Rng* rng) {
  int x = static_cast<int>(rng->UniformInt(0, 999));
  for (const KindShare& k : kMix) {
    if (x < k.per_mille) return k.kind;
    x -= k.per_mille;
  }
  return WriteKind::kUpdate;
}

size_t VariantOf(const RegistryState& s, const Tuple& row) {
  const Value* jt = row.Get(s.jobtype);
  for (size_t v = 0; v < s.jobtypes.size(); ++v) {
    if (jt != nullptr && *jt == s.jobtypes[v]) return v;
  }
  return 0;
}

int64_t IdOf(const RegistryState& s, const Tuple& row) {
  return row.Get(s.id)->as_int();
}

Value RandomValue(Rng* rng) { return Value::Int(rng->UniformInt(0, 1 << 16)); }

// A non-determinant update of a random existing row.
FlexibleRelation::UpdateSpec RandomUpdate(const RegistryState& s, Rng* rng) {
  FlexibleRelation::UpdateSpec spec;
  spec.index = rng->Index(s.db->relation.size());
  const size_t v = VariantOf(s, s.db->relation.row(spec.index));
  const size_t choices = s.commons.size() + s.variant_attrs[v].size();
  const size_t k = rng->Index(choices);
  spec.attr = k < s.commons.size() ? s.commons[k]
                                   : s.variant_attrs[v][k - s.commons.size()];
  spec.value = RandomValue(rng);
  return spec;
}

// What the read-back query after a write must show.
struct Expect {
  int64_t id = 0;
  AttrId attr = 0;
  Value value;
  bool absent = false;  // a refused insert: the id must not be found
};

struct WriteOp {
  WriteKind kind = WriteKind::kUpdate;
  FlexibleRelation::UpdateSpec update;                  // kUpdate, kFlip
  std::vector<FlexibleRelation::UpdateSpec> burst;      // kBurst*
  std::vector<FlexibleRelation::Mutation> batch;        // kInsertBatch
  Tuple insert;                                         // kInvalid
  Expect expect;
  std::string readback;
};

WriteOp MakeWrite(RegistryState* s, Rng* rng, uint64_t n) {
  WriteOp w;
  w.kind = DrawKind(rng);
  const FlexibleRelation& rel = s->db->relation;
  switch (w.kind) {
    case WriteKind::kUpdate:
      w.update = RandomUpdate(*s, rng);
      w.expect = {IdOf(*s, rel.row(w.update.index)), w.update.attr,
                  w.update.value};
      break;
    case WriteKind::kFlip: {
      // Footnote 3: a new jobtype changes the tuple's type; `fill` supplies
      // the new variant's attributes.
      w.update.index = rng->Index(rel.size());
      const size_t from = VariantOf(*s, rel.row(w.update.index));
      const size_t to = (from + 1 + rng->Index(kVariants - 1)) % kVariants;
      w.update.attr = s->jobtype;
      w.update.value = s->jobtypes[to];
      for (AttrId a : s->variant_attrs[to]) w.update.fill.Set(a, RandomValue(rng));
      w.expect = {IdOf(*s, rel.row(w.update.index)), s->jobtype,
                  s->jobtypes[to]};
      break;
    }
    case WriteKind::kBurst8:
    case WriteKind::kBurst64: {
      const size_t n_specs = w.kind == WriteKind::kBurst8 ? 8 : 64;
      for (size_t i = 0; i < n_specs; ++i) w.burst.push_back(RandomUpdate(*s, rng));
      const FlexibleRelation::UpdateSpec& last = w.burst.back();
      w.expect = {IdOf(*s, rel.row(last.index)), last.attr, last.value};
      break;
    }
    case WriteKind::kInsertBatch: {
      // Two inserts in one ApplyBatch; the read-back finds the first. A
      // batch that mixes inserts and updates makes the default-mode cache
      // diverge from a rebuild (ROADMAP open item 1), so it is left out of
      // the stream until that defect is fixed.
      Value v = RandomValue(rng);
      for (int i = 0; i < 2; ++i) {
        Tuple t = Remap(*s, RandomEmployee(*s->gen, rng));
        const int64_t id = s->next_id++;
        t.Set(s->id, Value::Int(id));
        if (i == 0) {
          t.Set(s->commons[0], v);
          w.expect = {id, s->commons[0], v};
        }
        w.batch.push_back(FlexibleRelation::Mutation::Insert(std::move(t)));
      }
      break;
    }
    case WriteKind::kInvalid:
      w.insert = s->invalid[n % s->invalid.size()];
      w.expect.id = IdOf(*s, w.insert);
      w.expect.absent = true;
      break;
  }
  w.readback = "SELECT * WHERE " + Name(*s, s->id) + " = " +
               std::to_string(w.expect.id);
  return w;
}

// Issues the write; returns whether the library accepted it.
Status IssueWrite(FlexibleRelation* rel, WriteOp* w, Tracer* tracer) {
  switch (w->kind) {
    case WriteKind::kUpdate:
    case WriteKind::kFlip: {
      Scope span(tracer, "core.update");
      return rel->Update(w->update.index, w->update.attr, w->update.value,
                         w->update.fill)
          .status();
    }
    case WriteKind::kBurst8:
    case WriteKind::kBurst64: {
      Scope span(tracer, "core.update_rows");
      return rel->UpdateRows(std::move(w->burst)).status();
    }
    case WriteKind::kInsertBatch: {
      Scope span(tracer, "core.apply_batch");
      return rel->ApplyBatch(std::move(w->batch));
    }
    case WriteKind::kInvalid: {
      Scope span(tracer, "core.insert");
      return rel->Insert(w->insert);
    }
  }
  return Status::Internal("unknown write kind");
}

bool ReadbackMatches(const RegistryState& s, const Expect& e,
                     const FlexibleRelation& got) {
  if (e.absent) return got.empty();
  if (got.size() != 1) return false;
  const Value* v = got.row(0).Get(e.attr);
  return v != nullptr && *v == e.value && IdOf(s, got.row(0)) == e.id;
}

// Every single-attribute partition of the relation's cache against a fresh
// cache over the same rows.
bool CacheMatchesRebuild(FlexibleRelation* rel, std::string* why) {
  std::shared_ptr<PliCache> cache = rel->pli_cache();
  PliCache fresh(&rel->rows());
  for (AttrId a : rel->ActiveAttrs()) {
    if (!(*cache->Get(AttrSet::Of(a)) == *fresh.Get(AttrSet::Of(a)))) {
      *why = "partition of attribute " + std::to_string(a) +
             " differs from a rebuild";
      return false;
    }
  }
  return true;
}

struct MutatePhase {
  Samples ops;           // write + read-back (write_visible)
  Samples updates;       // Update call
  Samples batches;       // UpdateRows / ApplyBatch call
  Samples update_self;   // Update call minus in-call flush
  Samples batch_self;    // batch call minus in-call flush
  Samples update_flush;  // flush time inside one Update call
  uint64_t write_ns = 0;
  uint64_t write_flush_ns = 0;
  uint64_t read_flush_ns = 0;
  uint64_t rejected = 0;
  double measured_s = 0;
  HostSpeed host;
};

void RunMutatePhase(RegistryState* s, QueryRunner* runner, Tracer* tracer,
                    Rng* rng, double seconds, uint64_t* op_id, uint64_t* writes,
                    MutatePhase* phase, RunResult* result) {
  FlexibleRelation* rel = &s->db->relation;
  const uint64_t budget = static_cast<uint64_t>(seconds * 1e9);
  uint64_t measured = 0;
  const char* const kFlush = "engine.pli_cache.flush_ns";
  while (measured < budget) {
    phase->host.Tick();
    WriteOp w = MakeWrite(s, rng, *writes);
    const WriteKind kind = w.kind;
    const uint32_t op = static_cast<uint32_t>(++*op_id);
    result->Attempt();
    const bool traced = tracer->enabled();
    tracer->BeginOp(op);
    const uint64_t t0 = NowNs();
    Status st;
    Result<FlexibleRelation> seen = Status::Internal("not run");
    uint64_t call_ns = 0;
    uint64_t flush0 = 0, flush1 = 0, flush2 = 0;
    {
      Scope span(tracer, "op");
      if (traced) flush0 = HistogramSumNs(kFlush);
      const uint64_t c0 = NowNs();
      st = IssueWrite(rel, &w, tracer);
      call_ns = NowNs() - c0;
      if (traced) flush1 = HistogramSumNs(kFlush);
      seen = runner->Text(w.readback);
      if (traced) flush2 = HistogramSumNs(kFlush);
    }
    const uint64_t dt = NowNs() - t0;
    tracer->EndOp();
    measured += dt;
    ++*writes;
    phase->ops.Add(static_cast<double>(dt) / 1e3);
    const double call_us = static_cast<double>(call_ns) / 1e3;
    const bool is_update = kind == WriteKind::kUpdate || kind == WriteKind::kFlip;
    const bool is_batch = kind == WriteKind::kBurst8 ||
                          kind == WriteKind::kBurst64 ||
                          kind == WriteKind::kInsertBatch;
    if (is_update) phase->updates.Add(call_us);
    if (is_batch) phase->batches.Add(call_us);
    if (traced) {
      const uint64_t in_call = flush1 - flush0;
      if (in_call > call_ns) {
        result->Fail("in-library flush time exceeds its enclosing write call");
      }
      const double self_us =
          static_cast<double>(call_ns - std::min(call_ns, in_call)) / 1e3;
      if (is_update) {
        phase->update_self.Add(self_us);
        phase->update_flush.Add(static_cast<double>(in_call) / 1e3);
      }
      if (is_batch) phase->batch_self.Add(self_us);
      phase->write_ns += call_ns;
      phase->write_flush_ns += in_call;
      phase->read_flush_ns += flush2 - flush1;
    }
    if (kind == WriteKind::kInvalid) {
      if (st.ok()) {
        result->Fail("an EAD-violating insert was accepted");
        continue;
      }
      ++phase->rejected;
    } else if (!st.ok()) {
      result->Fail("write refused: " + st.ToString());
      continue;
    }
    if (!seen.ok()) {
      result->Fail("read-back query: " + seen.status().ToString());
    } else if (!ReadbackMatches(*s, w.expect, seen.value())) {
      result->Fail("read-back query does not reflect the write");
    }
    // The traced half skips the checkpoints, whose cache reads would count
    // toward the telemetry it reports; the final comparison still runs.
    if (!traced && *writes % kCheckpointEvery == 0) {
      result->Attempt();
      std::string why;
      if (!CacheMatchesRebuild(rel, &why)) result->Fail("checkpoint: " + why);
    }
  }
  phase->measured_s = static_cast<double>(measured) / 1e9;
}

}  // namespace

RunResult RunRegistryMutate(const Settings& settings) {
  RunResult r;
  std::vector<double> setups;
  std::vector<double> reads;
  std::unique_ptr<RegistryState> s;
  Tracer tracer;
  Rng rng(settings.seed * 0x9E3779B97F4A7C15ull + 2);
  uint64_t op_id = 0;
  uint64_t writes = 0;
  SetupTimes times;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s.reset();
    const uint64_t t0 = NowNs();
    s = Load(settings.seed, /*decompose=*/false, &times, &r);
    if (s == nullptr) return r;
    // Warm-up: the read-back query class once, one write of every kind,
    // and a rebuild comparison (which also builds every single-attribute
    // partition, so later checkpoints leave the cached set unchanged).
    QueryRunner warm(s.get(), &tracer);
    Rng warm_rng(settings.seed);
    r.Attempt();
    if (!warm.Text("SELECT * WHERE " + Name(*s, s->id) + " = 0").ok()) {
      r.Fail("warm-up point query failed");
    }
    for (const KindShare& k : kMix) {
      WriteOp w;
      do {
        w = MakeWrite(s.get(), &warm_rng, 0);
      } while (w.kind != k.kind);
      r.Attempt();
      const Status st = IssueWrite(&s->db->relation, &w, &tracer);
      if (st.ok() == (k.kind == WriteKind::kInvalid)) {
        r.Fail(std::string("warm-up ") + k.name + ": " + st.ToString());
      }
    }
    r.Attempt();
    std::string why;
    if (!CacheMatchesRebuild(&s->db->relation, &why)) r.Fail("warm-up: " + why);
    setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    reads.push_back(times.read_ms);
  }
  QueryRunner runner(s.get(), &tracer);
  const size_t rows_start = s->db->relation.size();

  MutatePhase plain;
  const double untraced_s = settings.trace ? settings.seconds / 4
                                           : settings.seconds;
  RunMutatePhase(s.get(), &runner, &tracer, &rng, untraced_s, &op_id, &writes,
                 &plain, &r);
  EmitEndToEnd(&r, MedianOf(setups), plain.ops, plain.measured_s,
               plain.host.Scale());
  r.Metric("update_p50_us", plain.updates.Quantile(0.5), "us");
  r.Metric("update_p99_us", plain.updates.Quantile(0.99), "us");
  r.Metric("batch_p50_us", plain.batches.Quantile(0.5), "us");
  r.Metric("write_visible_p50_us", plain.ops.Quantile(0.5), "us");
  r.Metric("write_visible_p99_us", plain.ops.Quantile(0.99), "us");
  r.Metric("mutations_per_s", static_cast<double>(plain.ops.count()) /
                                  std::max(plain.measured_s, 1e-9),
           "1/s");
  times.Report(&r);
  r.Info("writes", std::to_string(plain.ops.count()));
  r.Info("updates", std::to_string(plain.updates.count()));
  r.Info("batches", std::to_string(plain.batches.count()));

  if (settings.trace) {
    flexrel::telemetry::Enable({1u << 16});
    flexrel::telemetry::Registry::Global().Reset();
    tracer.set_enabled(true);
    MutatePhase traced;
    RunMutatePhase(s.get(), &runner, &tracer, &rng, settings.seconds / 2,
                   &op_id, &writes, &traced, &r);
    tracer.set_enabled(false);
    const SpanSummary spans = Summarize(tracer.spans());
    const double n = static_cast<double>(std::max<size_t>(traced.ops.count(), 1));
    EmitEngineLayers(&r, static_cast<double>(traced.ops.count()), spans,
                     settings, tracer);
    r.Layer("core.update_self_us", traced.update_self.Quantile(0.5), "us");
    r.Layer("core.batch_self_us", traced.batch_self.Quantile(0.5), "us");
    r.Layer("core.rejected_writes",
            static_cast<double>(plain.rejected + traced.rejected), "count");
    r.Layer("engine.pli_cache.flush_us", traced.update_flush.Quantile(0.5),
            "us");
    r.Layer("engine.pli_cache.flush_share_pct",
            traced.write_ns == 0 ? 0
                                 : 100.0 *
                                       static_cast<double>(traced.write_flush_ns) /
                                       static_cast<double>(traced.write_ns),
            "%");
    r.Layer("engine.pli_cache.read_flush_us",
            static_cast<double>(traced.read_flush_ns) / 1e3 / n, "us/op");
    r.Layer("storage.read_flexdb_ms", MedianOf(reads), "ms");
    flexrel::telemetry::Disable();
    MutatePhase after;
    RunMutatePhase(s.get(), &runner, &tracer, &rng, settings.seconds / 4,
                   &op_id, &writes, &after, &r);
    r.Layer("trace.overhead_pct", OverheadPct(traced.ops, plain.ops, after.ops),
            "%");
  }

  // Final rebuild comparison, untimed.
  r.Attempt();
  std::string why;
  if (!CacheMatchesRebuild(&s->db->relation, &why)) r.Fail("final: " + why);
  r.Info("rows_start", std::to_string(rows_start));
  r.Info("rows_end", std::to_string(s->db->relation.size()));
  if (settings.trace) {
    EmitCacheBytes(&s->db->relation, [&] {
      runner.Text("SELECT * WHERE " + Name(*s, s->id) + " = 0");
      std::string unused;
      CacheMatchesRebuild(&s->db->relation, &unused);
    }, &r);
  }
  return r;
}

}  // namespace perfbench
