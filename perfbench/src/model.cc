#include "model.h"

#include <algorithm>
#include <map>

#include "common/str_util.h"

namespace perfbench {

namespace {

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t Choose2(size_t k) { return k < 2 ? 0 : uint64_t(k) * (k - 1) / 2; }

bool Contains(const std::vector<int64_t>& sorted, int64_t v) {
  return std::binary_search(sorted.begin(), sorted.end(), v);
}

/// The single value of a block of size one, or nullptr.
const int64_t* Sole(const std::vector<int64_t>* block) {
  return block != nullptr && block->size() == 1 ? &(*block)[0] : nullptr;
}

}  // namespace

const char* RelName(int rel) {
  static const char* kNames[kNumRels] = {"p", "q", "r"};
  return kNames[rel];
}

// --- Model ------------------------------------------------------------------

void Model::Resize(int rel, size_t before, size_t after) {
  rows_[rel] = rows_[rel] - before + after;
  if (rel != kR) edges_ = edges_ - Choose2(before) + Choose2(after);
}

void Model::Insert(int rel, int64_t a, int64_t b) {
  std::vector<int64_t>& block = blocks_[rel][a];
  auto it = std::lower_bound(block.begin(), block.end(), b);
  if (it != block.end() && *it == b) return;  // set semantics
  block.insert(it, b);
  Resize(rel, block.size() - 1, block.size());
}

void Model::DeleteKey(int rel, int64_t a) {
  auto it = blocks_[rel].find(a);
  if (it == blocks_[rel].end()) return;
  Resize(rel, it->second.size(), 0);
  blocks_[rel].erase(it);
}

void Model::UpdateKey(int rel, int64_t a, int64_t b) {
  auto it = blocks_[rel].find(a);
  if (it == blocks_[rel].end()) return;
  Resize(rel, it->second.size(), 1);
  it->second.assign(1, b);
}

const std::vector<int64_t>* Model::Block(int rel, int64_t a) const {
  auto it = blocks_[rel].find(a);
  return it == blocks_[rel].end() ? nullptr : &it->second;
}

// --- query classes ------------------------------------------------------------

const char* ClassName(int cls) {
  static const char* kNames[kNumClasses] = {
      "selection", "narrowing", "join",         "kw_join",
      "union",     "difference", "conflict_free"};
  return kNames[cls];
}

const char* ClassSql(int cls) {
  static const char* kSql[kNumClasses] = {
      "SELECT * FROM p WHERE b < 500",
      "SELECT a FROM p",
      "SELECT * FROM p, q WHERE p.a = q.a",
      "SELECT p.a, q.b FROM p, q WHERE p.a = q.a",
      "SELECT * FROM p UNION SELECT * FROM q",
      "SELECT * FROM p EXCEPT SELECT * FROM q",
      "SELECT * FROM r WHERE b < 500"};
  return kSql[cls];
}

void Digest::Add(const int64_t* values, size_t n) {
  uint64_t h = SplitMix(n);
  for (size_t i = 0; i < n; ++i) h = SplitMix(h ^ uint64_t(values[i]));
  sum += h;
  ++count;
}

void ForEachCertain(int cls, const Model& m,
                    const std::function<void(const int64_t*, size_t)>& fn) {
  int64_t row[4];
  switch (cls) {
    case kSelection:
      for (const auto& [a, block] : m.blocks(kP)) {
        if (block.size() == 1 && block[0] < 500) {
          row[0] = a, row[1] = block[0];
          fn(row, 2);
        }
      }
      return;
    case kNarrowing:  // every key block keeps one tuple in every repair
      for (const auto& [a, block] : m.blocks(kP)) {
        row[0] = a;
        fn(row, 1);
      }
      return;
    case kJoin:
      for (const auto& [a, block] : m.blocks(kP)) {
        const int64_t* qb = Sole(m.Block(kQ, a));
        if (block.size() == 1 && qb != nullptr) {
          row[0] = a, row[1] = block[0], row[2] = a, row[3] = *qb;
          fn(row, 4);
        }
      }
      return;
    case kKwJoin:  // a key of p joined with a unique q tuple
      for (const auto& [a, block] : m.blocks(kP)) {
        const int64_t* qb = Sole(m.Block(kQ, a));
        if (qb != nullptr) {
          row[0] = a, row[1] = *qb;
          fn(row, 2);
        }
      }
      return;
    case kUnion:  // certain in p or certain in q
      for (const auto& [a, block] : m.blocks(kP)) {
        if (block.size() != 1) continue;
        row[0] = a, row[1] = block[0];
        fn(row, 2);
      }
      for (const auto& [a, block] : m.blocks(kQ)) {
        if (block.size() != 1) continue;
        const int64_t* pb = Sole(m.Block(kP, a));
        if (pb != nullptr && *pb == block[0]) continue;  // already emitted
        row[0] = a, row[1] = block[0];
        fn(row, 2);
      }
      return;
    case kDifference:  // certain in p and absent from q
      for (const auto& [a, block] : m.blocks(kP)) {
        if (block.size() != 1) continue;
        const std::vector<int64_t>* qblock = m.Block(kQ, a);
        if (qblock != nullptr && Contains(*qblock, block[0])) continue;
        row[0] = a, row[1] = block[0];
        fn(row, 2);
      }
      return;
    case kConflictFree:
      for (const auto& [a, block] : m.blocks(kR)) {
        for (int64_t b : block) {
          if (b >= 500) continue;
          row[0] = a, row[1] = b;
          fn(row, 2);
        }
      }
      return;
  }
}

Digest ExpectedDigest(int cls, const Model& model) {
  Digest d;
  ForEachCertain(cls, model,
                 [&d](const int64_t* v, size_t n) { d.Add(v, n); });
  return d;
}

std::vector<std::vector<int64_t>> ExpectedRows(int cls, const Model& model) {
  std::vector<std::vector<int64_t>> rows;
  ForEachCertain(cls, model, [&rows](const int64_t* v, size_t n) {
    rows.emplace_back(v, v + n);
  });
  return rows;
}

bool AnswerDigest(const hippo::ResultSet& rs, Digest* out) {
  Digest d;
  std::vector<int64_t> row;
  for (const hippo::Row& r : rs.rows) {
    row.clear();
    for (const hippo::Value& v : r) {
      if (v.type() != hippo::TypeId::kInt) return false;
      row.push_back(v.AsInt());
    }
    d.Add(row.data(), row.size());
  }
  *out = d;
  return true;
}

// --- instances ------------------------------------------------------------------

int64_t KeyBase(int rel, size_t keys) {
  return int64_t(rel) * int64_t(keys / 4);
}

namespace {

/// Adds `extra` new values drawn from [lo, lo + span) to p/q block `a`.
void AddValues(Model* m, hippo::Rng* rng, int rel, int64_t a, size_t extra,
               int64_t lo, int64_t span) {
  size_t target = m->Block(rel, a)->size() + extra;
  while (m->Block(rel, a)->size() < target) {
    m->Insert(rel, a, lo + int64_t(rng->Uniform(uint64_t(span))));
  }
}

}  // namespace

Instance MakeInstance(const InstanceSpec& spec) {
  Instance inst;
  Model& m = inst.model;
  hippo::Rng rng(spec.seed * 0x9e3779b97f4a7c15ULL + 17);
  const size_t n = spec.keys;
  const int64_t p0 = KeyBase(kP, n), q0 = KeyBase(kQ, n),
                r0 = KeyBase(kR, n);
  std::vector<int64_t> p_value(n);
  for (size_t i = 0; i < n; ++i) {
    p_value[i] = int64_t(rng.Uniform(1000));
    m.Insert(kP, p0 + int64_t(i), p_value[i]);
  }
  for (size_t i = 0; i < n; ++i) {
    int64_t a = q0 + int64_t(i);
    // Half of the keys q shares with p carry p's tuple verbatim, so union
    // and difference answers depend on both relations.
    bool shared = a < p0 + int64_t(n) && rng.Uniform(2) == 0;
    m.Insert(kQ, a, shared ? p_value[size_t(a - p0)]
                           : int64_t(rng.Uniform(1000)));
  }
  for (size_t i = 0; i < n; ++i) {
    int64_t a = r0 + int64_t(i);
    m.Insert(kR, a, int64_t(rng.Uniform(1000)));
    if (rng.Uniform(20) == 0) m.Insert(kR, a, int64_t(rng.Uniform(1000)));
  }
  // Pair conflicts: a second value for distinct keys of p and q.
  size_t pairs = std::max<size_t>(
      1, size_t(double(n) * spec.pair_conflict / 2.0));
  for (int rel : {kP, kQ}) {
    int64_t base = KeyBase(rel, n);
    for (size_t c = 0; c < pairs;) {
      int64_t a = base + int64_t(rng.Uniform(n));
      if (m.Block(rel, a)->size() != 1) continue;
      AddValues(&m, &rng, rel, a, 1, 1000, 1000);
      ++c;
    }
  }
  // Dense key blocks in p: 4 to 7 pairwise-conflicting tuples.
  for (size_t c = 0; c < spec.dense_blocks;) {
    int64_t a = p0 + int64_t(rng.Uniform(n));
    if (m.Block(kP, a)->size() != 1) continue;
    AddValues(&m, &rng, kP, a, 3 + rng.Uniform(4), 2000, 1000);
    ++c;
  }

  std::string& sql = inst.load_sql;
  sql =
      "CREATE TABLE p (a INTEGER, b INTEGER);"
      "CREATE TABLE q (a INTEGER, b INTEGER);"
      "CREATE TABLE r (a INTEGER, b INTEGER);"
      "CREATE CONSTRAINT fd_p FD ON p (a -> b);"
      "CREATE CONSTRAINT fd_q FD ON q (a -> b);";
  constexpr size_t kRowsPerStatement = 1024;
  for (int rel = 0; rel < kNumRels; ++rel) {
    std::map<int64_t, const std::vector<int64_t>*> ordered;
    for (const auto& [a, block] : m.blocks(rel)) ordered[a] = &block;
    size_t in_statement = 0;
    for (const auto& [a, block] : ordered) {
      for (int64_t b : *block) {
        sql += in_statement == 0
                   ? hippo::StrFormat("INSERT INTO %s VALUES ", RelName(rel))
                   : std::string(",");
        sql += hippo::StrFormat("(%lld,%lld)", (long long)a, (long long)b);
        if (++in_statement == kRowsPerStatement) {
          sql += ";";
          in_statement = 0;
        }
      }
    }
    if (in_statement != 0) sql += ";";
  }
  return inst;
}

// --- writes ---------------------------------------------------------------------

void Op::Apply(Model* model) const {
  switch (kind) {
    case kInsert:
      model->Insert(rel, a, b);
      return;
    case kDelete:
      model->DeleteKey(rel, a);
      return;
    case kUpdate:
      model->UpdateKey(rel, a, b);
      return;
    case kBulk:
      for (const auto& t : rows) model->Insert(int(t[0]), t[1], t[2]);
      return;
  }
}

WriteStream::WriteStream(const Model& initial, size_t keys, uint64_t seed)
    : model_(initial),
      keys_(keys),
      rng_(seed * 0xd1b54a32d192ed03ULL + 29),
      next_fresh_key_(KeyBase(kR, keys) + int64_t(keys)) {}

Op WriteStream::NextSmall() {
  Op op;
  uint64_t pick = rng_.Uniform(10);
  op.rel = pick < 4 ? kP : pick < 8 ? kQ : kR;
  op.a = KeyBase(op.rel, keys_) + int64_t(rng_.Uniform(keys_));
  const char* rel = RelName(op.rel);
  uint64_t kind = rng_.Uniform(4);
  if (kind < 2) {
    // A value the block does not hold yet: a new conflict on p and q.
    op.kind = Op::kInsert;
    const std::vector<int64_t>* block = model_.Block(op.rel, op.a);
    do {
      op.b = 3000 + int64_t(rng_.Uniform(100000));
    } while (block != nullptr &&
             std::binary_search(block->begin(), block->end(), op.b));
    op.sql = hippo::StrFormat("INSERT INTO %s VALUES (%lld, %lld)", rel,
                              (long long)op.a, (long long)op.b);
  } else if (kind == 2) {
    op.kind = Op::kDelete;
    op.sql = hippo::StrFormat("DELETE FROM %s WHERE a = %lld", rel,
                              (long long)op.a);
  } else {
    op.kind = Op::kUpdate;
    op.b = int64_t(rng_.Uniform(1000));
    op.sql = hippo::StrFormat("UPDATE %s SET b = %lld WHERE a = %lld", rel,
                              (long long)op.b, (long long)op.a);
  }
  op.Apply(&model_);
  return op;
}

Op WriteStream::NextBulk(size_t statements) {
  Op op;
  op.kind = Op::kBulk;
  while (op.rows.size() < statements) {
    int64_t a = next_fresh_key_++;
    int64_t v = int64_t(rng_.Uniform(1000));
    op.rows.push_back({kP, a, v});
    op.rows.push_back({kQ, a, rng_.Uniform(2) == 0 ? v
                                                   : int64_t(rng_.Uniform(1000))});
    op.rows.push_back({kR, a, int64_t(rng_.Uniform(1000))});
    if (a % 8 == 0) {
      op.rows.push_back({kP, a, 1000 + int64_t(rng_.Uniform(1000))});
      op.rows.push_back({kQ, a, 1000 + int64_t(rng_.Uniform(1000))});
    }
  }
  op.rows.resize(statements);
  for (const auto& t : op.rows) {
    op.sql += hippo::StrFormat("INSERT INTO %s VALUES (%lld, %lld);",
                               RelName(int(t[0])), (long long)t[1],
                               (long long)t[2]);
  }
  op.Apply(&model_);
  return op;
}

}  // namespace perfbench
