// The benchmark's own model of the instance: generator, write stream and
// certain-answer oracle.
//
// Schema: p(a,b) and q(a,b), each with FD a -> b, and the constraint-free
// r(a,b). Under a key FD a repair keeps exactly one tuple of every key
// block, so a tuple is certain iff it is alone in its block. The model keeps
// each relation as key -> sorted set of b-values and derives every query
// class's certain answers in closed form from it.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "exec/executor.h"

namespace perfbench {

enum Rel : int { kP = 0, kQ = 1, kR = 2 };
constexpr int kNumRels = 3;
const char* RelName(int rel);

/// One relation: key -> sorted, distinct b-values (empty blocks erased).
using Blocks = std::unordered_map<int64_t, std::vector<int64_t>>;

/// Set-semantics state of p, q and r, with the row counts and the FD
/// conflict-edge count (sum of C(k,2) over the key blocks of p and q) kept
/// incrementally.
class Model {
 public:
  void Insert(int rel, int64_t a, int64_t b);
  /// DELETE FROM rel WHERE a = key.
  void DeleteKey(int rel, int64_t a);
  /// UPDATE rel SET b = value WHERE a = key.
  void UpdateKey(int rel, int64_t a, int64_t b);

  const Blocks& blocks(int rel) const { return blocks_[rel]; }
  const std::vector<int64_t>* Block(int rel, int64_t a) const;
  size_t rows(int rel) const { return rows_[rel]; }
  uint64_t edges() const { return edges_; }

 private:
  void Resize(int rel, size_t before, size_t after);

  std::array<Blocks, kNumRels> blocks_;
  std::array<size_t, kNumRels> rows_{};
  uint64_t edges_ = 0;
};

/// The query classes of the read mix, in mix order.
enum QueryClass : int {
  kSelection = 0,
  kNarrowing,
  kJoin,
  kKwJoin,
  kUnion,
  kDifference,
  kConflictFree,
};
constexpr int kNumClasses = 7;
const char* ClassName(int cls);
const char* ClassSql(int cls);

/// An order-independent fingerprint of a set of integer rows: the wrapping
/// sum of a strong per-row hash, plus the row count.
struct Digest {
  uint64_t sum = 0;
  uint64_t count = 0;
  void Add(const int64_t* values, size_t n);
  bool operator==(const Digest& o) const {
    return sum == o.sum && count == o.count;
  }
  bool operator!=(const Digest& o) const { return !(*this == o); }
};

/// Calls `fn` once per certain answer of `cls` on `model`.
void ForEachCertain(
    int cls, const Model& model,
    const std::function<void(const int64_t*, size_t)>& fn);
Digest ExpectedDigest(int cls, const Model& model);
std::vector<std::vector<int64_t>> ExpectedRows(int cls, const Model& model);

/// Digest of an engine answer; false when a value is not a non-null int.
bool AnswerDigest(const hippo::ResultSet& rs, Digest* out);

// ---------------------------------------------------------------------------
// Instances and writes.

struct InstanceSpec {
  size_t keys = 16384;         ///< keys per relation
  double pair_conflict = 0.05; ///< share of p/q tuples in a 2-tuple block
  size_t dense_blocks = 8;     ///< extra p blocks of 4..7 tuples
  uint64_t seed = 1;
};

/// Key domain of relation `rel`: [KeyBase(rel), KeyBase(rel) + keys).
/// p, q and r are shifted by a quarter of the domain each, so every pair of
/// relations shares half or more of its keys.
int64_t KeyBase(int rel, size_t keys);

struct Instance {
  std::string load_sql;  ///< schema, constraints and rows as one script
  Model model;
};
Instance MakeInstance(const InstanceSpec& spec);

/// One committed script and its effect on the model.
struct Op {
  enum Kind { kInsert, kDelete, kUpdate, kBulk } kind = kInsert;
  int rel = kP;
  int64_t a = 0;
  int64_t b = 0;
  /// kBulk: inserted (rel, a, b) triples, one statement each.
  std::vector<std::array<int64_t, 3>> rows;
  std::string sql;

  void Apply(Model* model) const;
};

/// Deterministic generator of small single-statement commits (INSERTs that
/// create conflicts, key-equality DELETEs and UPDATEs over p, q and r) and
/// of bulk batches over fresh keys. It tracks its own copy of the model so
/// every INSERT adds a new value to its block; small commits touch only the
/// instance's key domains and bulk batches only keys above them, so the two
/// kinds commute.
class WriteStream {
 public:
  WriteStream(const Model& initial, size_t keys, uint64_t seed);
  Op NextSmall();
  /// A bulk batch of `statements` single-row INSERTs into fresh keys of p,
  /// q and r, with a pair conflict on every eighth p and q key.
  Op NextBulk(size_t statements);

 private:
  Model model_;
  size_t keys_;
  hippo::Rng rng_;
  int64_t next_fresh_key_;
};

}  // namespace perfbench
