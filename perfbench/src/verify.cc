// The correctness side of a run: the model replay that checks receipts,
// snapshot counts and answers, and the oracle's self-test against the
// all-repairs ground truth.
#include <algorithm>
#include <cstdio>
#include <map>

#include "bench.h"
#include "common/str_util.h"
#include "db/database.h"

namespace perfbench {

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / double(v.size());
}

void Run::Error(std::string what) {
  constexpr size_t kMaxErrors = 20;
  if (errors.size() < kMaxErrors) errors.push_back(std::move(what));
}

void SnapshotCounts(const hippo::service::Snapshot& snap,
                    size_t rows[kNumRels], uint64_t* edges) {
  for (int rel = 0; rel < kNumRels; ++rel) {
    auto table = snap.catalog().GetTable(RelName(rel));
    rows[rel] = table.ok() ? table.value()->NumLiveRows() : 0;
  }
  *edges = snap.hypergraph().NumEdges();
}

namespace {

/// Compares recorded counts with the model; returns a description of the
/// first mismatch or "".
std::string CountMismatch(const size_t rows[kNumRels], uint64_t edges,
                          const Model& m) {
  for (int rel = 0; rel < kNumRels; ++rel) {
    if (rows[rel] != m.rows(rel)) {
      return hippo::StrFormat("%s has %zu rows, model %zu", RelName(rel),
                              rows[rel], m.rows(rel));
    }
  }
  if (edges != m.edges()) {
    return hippo::StrFormat("%llu hyperedges, model %llu",
                            (unsigned long long)edges,
                            (unsigned long long)m.edges());
  }
  return "";
}

}  // namespace

void VerifyRun(Run* run) {
  // The epoch-prefix rule: the snapshot at epoch E holds exactly the
  // commits whose receipt epoch is <= E. Small commits and bulk batches
  // touch disjoint keys and so commute; applying in (epoch, sequence)
  // order therefore reproduces every epoch's state.
  std::vector<const CommitRecord*> order;
  std::map<uint64_t, std::vector<const CommitRecord*>> receipts_at;
  std::map<uint64_t, std::vector<const ReadRecord*>> reads_at;
  for (const CommitRecord& c : run->commits) {
    if (!c.ok) {
      run->Error("commit receipt not OK: " + run->ops[c.op].sql.substr(0, 60));
      continue;
    }
    order.push_back(&c);
    receipts_at[c.epoch].push_back(&c);
  }
  for (const ReadRecord& r : run->reads) {
    if (r.ok) reads_at[r.epoch].push_back(&r);
  }
  std::sort(order.begin(), order.end(),
            [](const CommitRecord* a, const CommitRecord* b) {
              return a->epoch != b->epoch ? a->epoch < b->epoch
                                          : a->sequence < b->sequence;
            });
  std::vector<uint64_t> epochs;
  for (const auto& [e, v] : receipts_at) epochs.push_back(e);
  for (const auto& [e, v] : reads_at) epochs.push_back(e);
  std::sort(epochs.begin(), epochs.end());
  epochs.erase(std::unique(epochs.begin(), epochs.end()), epochs.end());

  Model model = run->instance.model;
  {
    size_t rows[kNumRels];
    uint64_t edges = 0;
    SnapshotCounts(*run->load_snapshot, rows, &edges);
    std::string bad = CountMismatch(rows, edges, model);
    if (!bad.empty()) run->Error("load epoch: " + bad);
  }
  size_t applied = 0;
  for (uint64_t epoch : epochs) {
    if (epoch < run->load_epoch) {
      run->Error(hippo::StrFormat("epoch %llu precedes the load",
                                  (unsigned long long)epoch));
      continue;
    }
    while (applied < order.size() && order[applied]->epoch <= epoch) {
      run->ops[order[applied]->op].Apply(&model);
      ++applied;
    }
    for (const CommitRecord* c : receipts_at[epoch]) {
      std::string bad = CountMismatch(c->rows, c->edges, model);
      if (!bad.empty()) {
        run->Error(hippo::StrFormat("epoch %llu receipt: ",
                                    (unsigned long long)epoch) + bad);
      }
    }
    Digest expected[kNumClasses];
    bool computed[kNumClasses] = {};
    for (const ReadRecord* r : reads_at[epoch]) {
      std::string bad = CountMismatch(r->rows, r->edges, model);
      if (!bad.empty()) {
        run->Error(hippo::StrFormat("epoch %llu read snapshot: ",
                                    (unsigned long long)epoch) + bad);
      }
      if (!computed[r->cls]) {
        expected[r->cls] = ExpectedDigest(r->cls, model);
        computed[r->cls] = true;
      }
      if (!r->digest_ok || r->got != expected[r->cls]) {
        run->Error(hippo::StrFormat(
            "epoch %llu %s: %llu answer rows, certain answers %llu%s",
            (unsigned long long)epoch, ClassName(r->cls),
            (unsigned long long)r->got.count,
            (unsigned long long)expected[r->cls].count,
            r->digest_ok ? " (digest differs)" : " (non-integer value)"));
      }
    }
  }
}

// --- self-test -----------------------------------------------------------------

namespace {

using IntRows = std::vector<std::vector<int64_t>>;

bool ToIntRows(const hippo::ResultSet& rs, IntRows* out) {
  out->clear();
  for (const hippo::Row& row : rs.rows) {
    std::vector<int64_t> r;
    for (const hippo::Value& v : row) {
      if (v.type() != hippo::TypeId::kInt) return false;
      r.push_back(v.AsInt());
    }
    out->push_back(std::move(r));
  }
  std::sort(out->begin(), out->end());
  return true;
}

Digest DigestOf(const IntRows& rows) {
  Digest d;
  for (const auto& r : rows) d.Add(r.data(), r.size());
  return d;
}

/// Number of repairs: the product of the p and q key-block sizes.
double RepairCount(const Model& m) {
  double n = 1;
  for (int rel : {kP, kQ}) {
    for (const auto& [a, block] : m.blocks(rel)) n *= double(block.size());
  }
  return n;
}

void SelfTestInstance(uint64_t seed, std::vector<std::string>* errors) {
  auto fail = [&](const std::string& what) {
    errors->push_back(hippo::StrFormat("instance seed %llu: ",
                                       (unsigned long long)seed) + what);
  };
  InstanceSpec spec;
  spec.keys = 12;
  spec.pair_conflict = 0.34;
  spec.dense_blocks = 1;
  spec.seed = seed;
  Instance inst = MakeInstance(spec);
  hippo::Database db;
  hippo::Status st = db.Execute(inst.load_sql);
  if (!st.ok()) return fail("load: " + st.ToString());
  Model model = inst.model;
  // Writes of every kind, as long as the repairs stay enumerable.
  WriteStream writes(model, spec.keys, seed);
  for (int i = 0; i < 12; ++i) {
    Op op = i == 6 ? writes.NextBulk(10) : writes.NextSmall();
    Model next = model;
    op.Apply(&next);
    if (RepairCount(next) > 2048) continue;
    st = db.Execute(op.sql);
    if (!st.ok()) return fail(op.sql + ": " + st.ToString());
    model = next;
  }

  auto graph = db.Hypergraph();
  if (!graph.ok()) return fail("hypergraph: " + graph.status().ToString());
  if (graph.value()->NumEdges() != model.edges()) {
    fail(hippo::StrFormat("%zu hyperedges, model %llu",
                          graph.value()->NumEdges(),
                          (unsigned long long)model.edges()));
  }
  for (int rel = 0; rel < kNumRels; ++rel) {
    auto table = db.catalog().GetTable(RelName(rel));
    if (!table.ok() || table.value()->NumLiveRows() != model.rows(rel)) {
      fail(std::string("row count of ") + RelName(rel));
    }
  }

  for (int cls = 0; cls < kNumClasses; ++cls) {
    IntRows expected = ExpectedRows(cls, model);
    std::sort(expected.begin(), expected.end());
    auto truth = db.ConsistentAnswersAllRepairs(ClassSql(cls));
    IntRows truth_rows;
    if (!truth.ok() || !ToIntRows(truth.value(), &truth_rows)) {
      fail(std::string(ClassName(cls)) + ": all-repairs evaluation failed");
      continue;
    }
    if (truth_rows != expected) {
      fail(hippo::StrFormat("%s: closed form has %zu rows, all repairs %zu",
                            ClassName(cls), expected.size(),
                            truth_rows.size()));
    }
    Digest want = ExpectedDigest(cls, model);
    if (DigestOf(truth_rows) != want) {
      fail(std::string(ClassName(cls)) + ": digest of the ground truth");
    }
    auto hippo_answer = db.ConsistentAnswers(ClassSql(cls));
    Digest got;
    if (!hippo_answer.ok() || !AnswerDigest(hippo_answer.value(), &got) ||
        got != want) {
      fail(std::string(ClassName(cls)) + ": engine answer differs");
    }
    // The checker must reject an answer with one row dropped or added.
    if (!expected.empty()) {
      IntRows dropped(expected.begin() + 1, expected.end());
      if (DigestOf(dropped) == want) {
        fail(std::string(ClassName(cls)) + ": dropped row accepted");
      }
    }
    IntRows added = expected;
    std::vector<int64_t> extra(cls == kNarrowing ? 1 : cls == kJoin ? 4 : 2,
                               -1);
    added.push_back(extra);
    if (DigestOf(added) == want) {
      fail(std::string(ClassName(cls)) + ": added row accepted");
    }
  }
}

}  // namespace

void OracleSelfTest(uint64_t seed, std::vector<std::string>* errors) {
  for (uint64_t i = 0; i < 3; ++i) SelfTestInstance(seed * 3 + i, errors);
}

}  // namespace perfbench
