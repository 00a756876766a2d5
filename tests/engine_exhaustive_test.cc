// Bounded-exhaustive mutation test for incremental PliCache maintenance
// (the small-scope hypothesis: most maintenance bugs show on tiny
// instances, provided every tiny case is tried). The scope is a 2-row ×
// 2-attribute typed relation with values from {absent, null, a, b}, and an
// op alphabet that drives every mutation entry point — Insert, Update with
// a footnote-3 fill, InsertRows, UpdateRows and ApplyBatch, including a
// batch that updates the row it inserts. Two enumerations:
//
//   - every op from every 2-row instance the scope admits;
//   - every op sequence of length <= 3 from three representative 2-row
//     instances.
//
// After every op, every warmed partition, probe and code column must equal
// a fresh PliCache over the same rows. Each sequence runs under the
// default options and under batch_threshold = 1, so both patch arms
// (per-row and batched) see every sequence. The single ops also run on a
// checker-less (derived) relation, whose UpdateRows applies in place and
// hands the cache hook one delta per update — a row updated twice in one
// batch reaches the flush twice and must coalesce to its first old state. Failed ops (type errors,
// duplicates, out-of-range rows) are part of the scope: they must publish
// nothing and leave the rows as they were. Sized to run in about 10 s under
// ASan+UBSan.
//
// The relation: attributes A and B under the scheme <0,2,{A,B}> and one
// explicit AD on A (A = a or null: B present; A = b: B absent; A absent:
// B absent). Updating A across variants is a footnote-3 type change that
// adds B from the fill or drops it.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/explicit_ad.h"
#include "core/flexible_relation.h"
#include "core/flexible_scheme.h"
#include "engine/pli_cache.h"
#include "engine_test_util.h"
#include "util/string_util.h"

namespace flexrel {
namespace {

using Mutation = FlexibleRelation::Mutation;
using UpdateSpec = FlexibleRelation::UpdateSpec;

// Row index placeholder resolved when the op runs: the first row the op's
// batch inserts (indexes of a batch are into the post-batch row vector).
constexpr size_t kFirstNewRow = SIZE_MAX;

enum class Entry { kInsert, kUpdate, kInsertRows, kUpdateRows, kApplyBatch };

// One alphabet symbol: an entry point and its payload, as batch mutations.
struct Op {
  Entry entry;
  std::vector<Mutation> payload;
  std::string label;
};

class Scope {
 public:
  Scope() {
    a_ = catalog_.Intern("A");
    b_ = catalog_.Intern("B");
    values_ = {Value::Null(), Value::Str("a"), Value::Str("b")};
    scheme_ = FlexibleScheme::Parse(&catalog_, "<0,2,{A,B}>").value();
    std::vector<EadVariant> variants;
    variants.push_back({ConditionSet::Single(a_, Value::Str("a")),
                        AttrSet::Of(b_)});
    variants.push_back({ConditionSet::Single(a_, Value::Null()),
                        AttrSet::Of(b_)});
    variants.push_back({ConditionSet::Single(a_, Value::Str("b")), AttrSet()});
    ead_ = ExplicitAD::Make(AttrSet::Of(a_), AttrSet::Of(b_),
                            std::move(variants))
               .value();
    // Every tuple the EAD admits: {}, {A=b}, and {A=a|null, B=null|a|b}.
    tuples_.push_back(Tuple());
    tuples_.push_back(Make(&values_[2], nullptr));
    for (const Value* a : {&values_[1], &values_[0]}) {
      for (const Value& b : values_) tuples_.push_back(Make(a, &b));
    }
    BuildAlphabet();
  }

  const std::vector<Tuple>& tuples() const { return tuples_; }
  const std::vector<Op>& alphabet() const { return alphabet_; }
  std::string Show(const Tuple& t) const { return t.ToString(catalog_); }

  // The typed relation under the scheme and the EAD, or a checker-less one
  // (no type checks, no footnote-3 fills) over the same rows.
  FlexibleRelation Relation(const std::vector<Tuple>& rows,
                            const PliCacheOptions& options, bool typed) const {
    FlexibleRelation rel =
        typed ? FlexibleRelation::Base("scope", &catalog_, scheme_, {ead_}, {})
              : FlexibleRelation::Derived("scope", DependencySet());
    rel.SetPliCacheOptions(options);
    for (const Tuple& t : rows) EXPECT_TRUE(rel.Insert(t).ok());
    return rel;
  }

  // Reads every structure the check compares: the first call warms the
  // cache, later calls re-read whatever a flush dropped — exactly the reads
  // a check performs, so a sequence checked only at its end leaves the
  // cache in the state a check after every op would.
  void Touch(const FlexibleRelation& rel) const {
    std::shared_ptr<PliCache> cache = rel.pli_cache();
    for (const AttrSet& k : Partitions()) (void)cache->Get(k);
    for (AttrId attr : {a_, b_}) {
      (void)cache->ProbeFor(attr);
      (void)cache->CodeColumnFor(attr);
    }
  }

  // Every warmed partition, probe and code column against a fresh cache.
  void ExpectMatchesFreshCache(const FlexibleRelation& rel) const {
    std::shared_ptr<PliCache> cache = rel.pli_cache();
    PliCache fresh(&rel.rows());
    for (const AttrSet& k : Partitions()) {
      std::shared_ptr<const Pli> maintained = cache->Get(k);
      std::shared_ptr<const Pli> rebuilt = fresh.Get(k);
      ASSERT_EQ(*maintained, *rebuilt) << "partition " << k.ToString();
      std::string err;
      ASSERT_TRUE(maintained->CheckInvariants(&err))
          << "partition " << k.ToString() << ": " << err;
    }
    for (AttrId attr : {a_, b_}) {
      const std::string name = catalog_.Name(attr);
      ASSERT_NO_FATAL_FAILURE(testutil::VerifyProbeEquivalent(
          *cache->ProbeFor(attr), *fresh.Get(AttrSet::Of(attr)),
          "probe " + name));
      ASSERT_NO_FATAL_FAILURE(testutil::VerifyColumnMatchesFreshBuild(
          *cache->CodeColumnFor(attr), rel.rows(), "column " + name));
    }
  }

  static Status Apply(const Op& op, FlexibleRelation* rel) {
    std::vector<Mutation> batch = op.payload;
    for (Mutation& m : batch) {
      if (m.update.index == kFirstNewRow) m.update.index = rel->size();
    }
    switch (op.entry) {
      case Entry::kInsert:
        return rel->Insert(batch[0].row);
      case Entry::kUpdate: {
        const UpdateSpec& u = batch[0].update;
        return rel->Update(u.index, u.attr, u.value, u.fill).status();
      }
      case Entry::kInsertRows: {
        std::vector<Tuple> rows;
        for (Mutation& m : batch) rows.push_back(std::move(m.row));
        return rel->InsertRows(std::move(rows));
      }
      case Entry::kUpdateRows: {
        std::vector<UpdateSpec> specs;
        for (Mutation& m : batch) specs.push_back(std::move(m.update));
        return rel->UpdateRows(std::move(specs)).status();
      }
      case Entry::kApplyBatch:
        return rel->ApplyBatch(std::move(batch));
    }
    return Status::OK();
  }

 private:
  std::vector<AttrSet> Partitions() const {
    return {AttrSet(), AttrSet::Of(a_), AttrSet::Of(b_), AttrSet{a_, b_}};
  }

  Tuple Make(const Value* a, const Value* b) const {
    Tuple t;
    if (a != nullptr) t.Set(a_, *a);
    if (b != nullptr) t.Set(b_, *b);
    return t;
  }

  // An update of `attr` to `value`; an A update carries the footnote-3 fill
  // B = value, used when the new variant adds B.
  Mutation Update(size_t row, AttrId attr, const Value& value) const {
    Tuple fill;
    if (attr == a_) fill.Set(b_, value);
    return Mutation::Update(row, attr, value, fill);
  }

  std::string Describe(const Mutation& m) const {
    if (m.is_insert) return "ins" + m.row.ToString(catalog_);
    const std::string row = m.update.index == kFirstNewRow
                                ? std::string("new")
                                : std::to_string(m.update.index);
    return StrCat("upd(", row, ",", catalog_.Name(m.update.attr), "=",
                  m.update.value.ToString(), ")");
  }

  void Add(Entry entry, std::vector<Mutation> payload, const char* name) {
    std::string label = StrCat(name, "[");
    for (size_t i = 0; i < payload.size(); ++i) {
      label += (i == 0 ? "" : " ") + Describe(payload[i]);
    }
    alphabet_.push_back({entry, std::move(payload), label + "]"});
  }

  // The op alphabet: every single-row update, two inserts, and one op per
  // batch entry point. Tuples by index: 0 {}, 1 {A=b}, 2..4 {A=a,
  // B=null|a|b}, 5..7 {A=null, B=null|a|b}.
  void BuildAlphabet() {
    for (size_t i : {0, 5}) {
      Add(Entry::kInsert, {Mutation::Insert(tuples_[i])}, "Insert");
    }
    for (size_t row : {size_t{0}, size_t{1}}) {
      for (AttrId attr : {a_, b_}) {
        for (const Value& v : values_) {
          Add(Entry::kUpdate, {Update(row, attr, v)}, "Update");
        }
      }
    }
    Add(Entry::kInsertRows,
        {Mutation::Insert(tuples_[7]), Mutation::Insert(tuples_[2])},
        "InsertRows");
    // A type change on one row beside a row moved twice (the flush sees
    // only its net move).
    Add(Entry::kUpdateRows,
        {Update(0, a_, values_[2]), Update(1, b_, values_[1]),
         Update(1, b_, values_[2])},
        "UpdateRows");
    // An insert, a type-changing update of the very row it inserts, and an
    // update of an existing row: the one-hook-per-batch regression shape.
    Add(Entry::kApplyBatch,
        {Mutation::Insert(tuples_[1]), Update(kFirstNewRow, a_, values_[1]),
         Update(0, b_, values_[2])},
        "ApplyBatch");
  }

  AttrCatalog catalog_;
  AttrId a_ = 0;
  AttrId b_ = 0;
  std::vector<Value> values_;
  FlexibleScheme scheme_;
  ExplicitAD ead_;
  std::vector<Tuple> tuples_;
  std::vector<Op> alphabet_;
};

// Depth-first over op sequences from `initial`: each sequence replays from
// a fresh relation, touching the cache after every op, and is checked after
// its last op — every prefix is itself a visited sequence, so every op of
// every sequence is checked once. A sequence whose last op changed nothing
// (it failed, or re-set a value the row already held) is not extended: it
// published no snapshot and left the rows as they were, so its extensions
// reach exactly the states of the shorter sequence's extensions.
class Explorer {
 public:
  Explorer(const Scope& scope, std::vector<Tuple> initial, bool typed,
           PliCacheOptions options, std::string mode, size_t max_length)
      : scope_(scope),
        initial_(std::move(initial)),
        typed_(typed),
        options_(options),
        mode_(std::move(mode)),
        max_length_(max_length) {}

  // Returns the number of sequences checked; stops at the first failure.
  size_t Run() {
    Visit();
    return checked_;
  }

 private:
  void Visit() {
    FlexibleRelation rel = scope_.Relation(initial_, options_, typed_);
    scope_.Touch(rel);
    bool changed = true;
    for (size_t i = 0; i < seq_.size(); ++i) {
      if (i > 0) scope_.Touch(rel);
      const std::vector<Tuple> rows_before = rel.rows();
      const uint64_t epoch_before = rel.pli_cache()->SnapshotEpoch();
      const Status status = Scope::Apply(scope_.alphabet()[seq_[i]], &rel);
      changed = rel.pli_cache()->SnapshotEpoch() != epoch_before;
      if (!changed) {
        EXPECT_EQ(rel.rows(), rows_before) << "rows moved without a publish";
      }
      if (!status.ok()) {
        EXPECT_FALSE(changed) << "a failed op published: " << status;
      }
    }
    scope_.ExpectMatchesFreshCache(rel);
    ++checked_;
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "diverged after " << Trace();
      return;
    }
    if (!changed || seq_.size() == max_length_) return;
    for (size_t op = 0; op < scope_.alphabet().size(); ++op) {
      seq_.push_back(op);
      Visit();
      seq_.pop_back();
      if (::testing::Test::HasFailure()) return;
    }
  }

  std::string Trace() const {
    std::string trace =
        StrCat(typed_ ? "typed" : "checker-less", " ", mode_, " from {");
    for (const Tuple& t : initial_) trace += " " + scope_.Show(t);
    trace += " }:";
    for (size_t op : seq_) trace += " " + scope_.alphabet()[op].label;
    return trace;
  }

  const Scope& scope_;
  const std::vector<Tuple> initial_;
  const bool typed_;
  const PliCacheOptions options_;
  const std::string mode_;
  const size_t max_length_;
  std::vector<size_t> seq_;
  size_t checked_ = 0;
};

// Runs every sequence of length <= `max_length` from each of `initials`
// under both flush arms and reports how many sequences were checked.
void ExploreAll(const Scope& scope,
                const std::vector<std::vector<Tuple>>& initials,
                size_t max_length, bool typed) {
  PliCacheOptions batched;
  batched.batch_threshold = 1;
  const std::vector<std::pair<std::string, PliCacheOptions>> modes = {
      {"default", PliCacheOptions()}, {"batch_threshold=1", batched}};
  const auto start = std::chrono::steady_clock::now();
  size_t checked = 0;
  for (const auto& [mode, options] : modes) {
    for (const std::vector<Tuple>& initial : initials) {
      checked +=
          Explorer(scope, initial, typed, options, mode, max_length).Run();
      if (::testing::Test::HasFailure()) return;
    }
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  std::printf("checked %zu %s sequences of <= %zu ops in %.2f s\n", checked,
              typed ? "typed" : "checker-less", max_length, seconds);
}

// Breadth: every single op from every 2-row instance the scope admits
// (ordered pairs of distinct tuples), on the typed and the checker-less
// relation.
TEST(EngineExhaustive, EveryOpFromEveryTwoRowInstance) {
  const Scope scope;
  const std::vector<Tuple>& t = scope.tuples();
  std::vector<std::vector<Tuple>> initials;
  for (size_t i = 0; i < t.size(); ++i) {
    for (size_t j = 0; j < t.size(); ++j) {
      if (i != j) initials.push_back({t[i], t[j]});
    }
  }
  for (bool typed : {true, false}) {
    ExploreAll(scope, initials, /*max_length=*/1, typed);
    if (::testing::Test::HasFailure()) return;
  }
}

// Depth: every sequence of up to three ops from 2-row instances that start
// each attribute clustered, stripped, or absent.
TEST(EngineExhaustive, EveryThreeOpSequenceFromRepresentativeInstances) {
  const Scope scope;
  const std::vector<Tuple>& t = scope.tuples();
  ExploreAll(scope,
             {{t[3], t[4]},  // A=a clustered, B stripped
              {t[6], t[3]},  // A stripped (null, a), B=a clustered
              {t[1], t[0]}},  // A stripped, B absent everywhere
             /*max_length=*/3, /*typed=*/true);
}

}  // namespace
}  // namespace flexrel
