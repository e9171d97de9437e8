// Shared state of one benchmark run: the workload configuration, the
// service, the operation logs the oracle replays, and small statistics
// helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "benchutil/report.h"
#include "model.h"
#include "obs/trace.h"
#include "service/query_service.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nearest-rank median; 0 when empty.
inline double Median(std::vector<double> v) {
  return hippo::bench::Percentile(std::move(v), 50);
}
double Mean(const std::vector<double>& v);

struct WorkloadConfig {
  std::string name;
  size_t keys = 16384;
  /// ServiceOptions::threads: read-pool width and detection threads.
  size_t service_threads = 2;
  /// Closed-loop reader threads.
  size_t readers = 2;
  /// Pipelined small commits: commits per round (one commit rate each)
  /// and per burst (receipts outstanding at once).
  size_t round_commits = 32;
  size_t window = 8;
  /// mixed_serve: open-loop small commits per second, the interval
  /// between bulk batches, and the statements of one bulk batch (above
  /// mixed_serve's bulk_redetect_statements).
  double write_rate = 60;
  double bulk_interval_s = 2.0;
  size_t bulk_statements = 320;
  /// ServiceOptions::bulk_redetect_statements.
  size_t bulk_redetect_statements = 1024;
  /// Small commits per second that size a pipelined stream, and the rounds
  /// it sends at least, so that a commit p99 has ten samples beyond it.
  double commit_rate_hint = 400;
  size_t min_commit_rounds = 32;
};

/// One commit as the client saw it, plus the published snapshot's row and
/// edge counts, read after the receipt arrived.
struct CommitRecord {
  size_t op = 0;  ///< index into Run::ops
  bool bulk = false;
  bool ok = false;
  uint64_t sequence = 0;
  uint64_t epoch = 0;
  size_t group_size = 0;
  double latency_s = 0;
  hippo::service::CommitPhases phases;
  size_t rows[kNumRels] = {0, 0, 0};
  uint64_t edges = 0;
};

/// One timed query: its class, the epoch it was answered at and the
/// fingerprint of the answer.
struct ReadRecord {
  int cls = 0;
  uint64_t epoch = 0;
  double latency_s = 0;
  bool ok = false;
  bool digest_ok = false;
  Digest got;
  size_t rows[kNumRels] = {0, 0, 0};
  uint64_t edges = 0;
};

/// Row and edge counts of a snapshot.
void SnapshotCounts(const hippo::service::Snapshot& snap, size_t rows[kNumRels],
                    uint64_t* edges);

struct Run {
  WorkloadConfig cfg;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;

  Instance instance;
  std::unique_ptr<hippo::service::QueryService> service;
  std::unique_ptr<WriteStream> writes;
  uint64_t load_epoch = 0;
  hippo::service::SnapshotPtr load_snapshot;
  double setup_s = 0;

  std::vector<Op> ops;
  std::vector<CommitRecord> commits;
  std::vector<ReadRecord> reads;
  /// Small commits per second: one rate per round of a burst stream, or
  /// the open-loop phase's overall rate.
  std::vector<double> commit_rates;
  /// Load-generator lag: from when a commit should have been sent (its due
  /// time, or the start of its burst) to when it was.
  std::vector<double> lag_s;

  /// Traced runs: one root span per timed query, kept until the run ends.
  std::vector<std::pair<int, std::unique_ptr<hippo::obs::TraceSpan>>> spans;

  size_t failed = 0;
  std::vector<std::string> errors;
  void Error(std::string what);
};

/// Checks every commit receipt, every snapshot's row and edge counts and
/// every timed answer against the model replayed in receipt order.
void VerifyRun(Run* run);

/// Closed forms against Database::ConsistentAnswersAllRepairs on small
/// instances from the same generator, and rejection of perturbed answers.
/// Appends failures to `errors`.
void OracleSelfTest(uint64_t seed, std::vector<std::string>* errors);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The per-layer metrics of a traced run (see README.md for the mapping to
/// end-to-end metrics).
std::vector<Metric> LayerMetrics(Run* run);

}  // namespace perfbench
