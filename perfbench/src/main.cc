// perfbench — the serving benchmark of the Hippo query service.
//
//   perfbench --workload cqa_read|commit_stream|mixed_serve --seed N
//             --seconds S --trace 0|1
//   perfbench --selftest [--seed N]
//
// Loads a generated instance into a service::QueryService through one
// commit, drives the workload's traffic for S seconds, checks every timed
// answer and every receipt against the benchmark's own model, and prints
// one JSON line: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the same
// operation stream runs with per-query trace spans and the metrics are the
// per-layer ones. README.md describes the workloads and metrics.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>
#include <string>
#include <thread>

#include "bench.h"

namespace perfbench {

using hippo::service::CommitReceipt;
using hippo::service::QueryService;
using hippo::service::ServiceOptions;
using hippo::service::SnapshotPtr;

namespace {

/// The earliest instant the process controls: set-up is timed from here.
const Clock::time_point g_process_start = Clock::now();

WorkloadConfig ConfigFor(const std::string& name) {
  WorkloadConfig c;
  c.name = name;
  if (name == "commit_stream") {
    c.keys = 65536;
    c.commit_rate_hint = 75;
  } else if (name == "mixed_serve") {
    // One reader thread and the writer on the main thread, with two pool
    // workers: four threads, and no reader waits behind another's query.
    c.readers = 1;
    c.bulk_redetect_statements = 256;
  }
  return c;
}

// --- reads ------------------------------------------------------------------

/// What one client thread produced; merged into the Run after it joins.
struct ClientLog {
  std::vector<ReadRecord> reads;
  std::vector<std::pair<int, std::unique_ptr<hippo::obs::TraceSpan>>> spans;
  size_t failed = 0;
};

void RunQuery(Run* run, int cls, const SnapshotPtr& snap, ClientLog* log) {
  std::unique_ptr<hippo::obs::TraceSpan> span;
  if (run->trace) span = std::make_unique<hippo::obs::TraceSpan>("query");
  hippo::cqa::HippoOptions options;
  options.num_threads = 1;
  options.trace = span.get();
  ReadRecord rec;
  rec.cls = cls;
  rec.epoch = snap->epoch();
  Clock::time_point t0 = Clock::now();
  hippo::Result<hippo::ResultSet> result =
      run->service
          ->Submit(QueryService::ReadMode::kConsistent, ClassSql(cls), snap,
                   options)
          .get();
  rec.latency_s = SecondsSince(t0);
  if (span != nullptr) span->End();
  rec.ok = result.ok();
  if (rec.ok) {
    rec.digest_ok = AnswerDigest(result.value(), &rec.got);
  } else {
    ++log->failed;
    std::fprintf(stderr, "perfbench: query %s failed: %s\n", ClassName(cls),
                 result.status().ToString().c_str());
  }
  SnapshotCounts(*snap, rec.rows, &rec.edges);
  log->reads.push_back(rec);
  if (span != nullptr) log->spans.emplace_back(cls, std::move(span));
}

void MergeLog(Run* run, ClientLog* log) {
  run->reads.insert(run->reads.end(), log->reads.begin(), log->reads.end());
  for (auto& s : log->spans) run->spans.push_back(std::move(s));
  run->failed += log->failed;
}

/// A closed-loop client: whole rounds of the class mix, each class once in
/// an order drawn from the seed, until `deadline`. Shuffling keeps two
/// clients from locking into one interleaving for a whole run. A null
/// `fixed` pins every query to the freshest snapshot.
void ClientLoop(Run* run, size_t client, SnapshotPtr fixed,
                Clock::time_point deadline, ClientLog* log) {
  hippo::Rng rng(run->seed * 1000003 + client);
  int order[kNumClasses];
  for (int i = 0; i < kNumClasses; ++i) order[i] = i;
  while (Clock::now() < deadline) {
    for (int i = kNumClasses - 1; i > 0; --i) {
      std::swap(order[i], order[rng.Uniform(uint64_t(i) + 1)]);
    }
    for (int cls : order) {
      RunQuery(run, cls, fixed != nullptr ? fixed : run->service->snapshot(),
               log);
    }
  }
}

/// cfg.readers closed-loop client threads running until a deadline.
class Clients {
 public:
  Clients(Run* run, SnapshotPtr fixed, Clock::time_point deadline)
      : run_(run), logs_(run->cfg.readers) {
    for (size_t c = 0; c < logs_.size(); ++c) {
      threads_.emplace_back(ClientLoop, run, c, fixed, deadline, &logs_[c]);
    }
  }
  ~Clients() { Join(); }
  Clients(const Clients&) = delete;
  Clients& operator=(const Clients&) = delete;

  /// Waits for the clients and merges their logs into the run.
  void Join() {
    if (threads_.empty()) return;
    for (std::thread& t : threads_) t.join();
    threads_.clear();
    for (ClientLog& log : logs_) MergeLog(run_, &log);
  }

 private:
  Run* run_;
  std::vector<ClientLog> logs_;
  std::vector<std::thread> threads_;
};

// --- writes -----------------------------------------------------------------

struct Pending {
  size_t op = 0;
  bool bulk = false;
  Clock::time_point start;
  std::future<CommitReceipt> receipt;
};

Pending SubmitOp(Run* run, Op op, Clock::time_point start) {
  Pending p;
  p.op = run->ops.size();
  p.bulk = op.kind == Op::kBulk;
  p.start = start;
  p.receipt = run->service->CommitAsync(op.sql);
  run->ops.push_back(std::move(op));
  return p;
}

/// Waits for the receipt (usually ready already) and records it.
void FinishOp(Run* run, Pending* p) {
  CommitReceipt receipt = p->receipt.get();
  CommitRecord rec;
  rec.latency_s = SecondsSince(p->start);
  rec.op = p->op;
  rec.bulk = p->bulk;
  rec.ok = receipt.status.ok();
  rec.sequence = receipt.sequence;
  rec.epoch = receipt.epoch;
  rec.group_size = receipt.group_size;
  rec.phases = receipt.phases;
  if (receipt.snapshot != nullptr) {
    SnapshotCounts(*receipt.snapshot, rec.rows, &rec.edges);
  }
  if (!rec.ok) {
    ++run->failed;
    std::fprintf(stderr, "perfbench: commit failed: %s (%s)\n",
                 receipt.status.ToString().c_str(),
                 run->ops[p->op].sql.substr(0, 80).c_str());
  }
  run->commits.push_back(rec);
}

/// One writer sending small commits in bursts of cfg.window: the burst's
/// scripts go back to back, and the next burst waits for every receipt of
/// this one. (Refilling one slot per receipt instead lets the group-commit
/// pipeline lock into small or large groups for a whole run, which moved
/// the commit rate of a seed by 2x between runs.) Sends `rounds` whole
/// rounds of cfg.round_commits, cut short after cfg.min_commit_rounds once
/// `cutoff` has passed, and records each round's commit rate.
void CommitRounds(Run* run, size_t rounds, Clock::time_point cutoff) {
  std::vector<Pending> burst;
  for (size_t round = 0;
       round < rounds &&
       (round < run->cfg.min_commit_rounds || Clock::now() < cutoff);
       ++round) {
    Clock::time_point start = Clock::now();
    for (size_t i = 0; i < run->cfg.round_commits; i += run->cfg.window) {
      std::vector<Op> ops;
      for (size_t j = i; j < std::min(i + run->cfg.window,
                                      run->cfg.round_commits);
           ++j) {
        ops.push_back(run->writes->NextSmall());
      }
      Clock::time_point ready = Clock::now();
      for (Op& op : ops) {
        Clock::time_point sent = Clock::now();
        run->lag_s.push_back(
            std::chrono::duration<double>(sent - ready).count());
        burst.push_back(SubmitOp(run, std::move(op), sent));
      }
      for (Pending& p : burst) FinishOp(run, &p);
      burst.clear();
    }
    run->commit_rates.push_back(double(run->cfg.round_commits) /
                                SecondsSince(start));
  }
}

// --- workloads ---------------------------------------------------------------

bool Setup(Run* run) {
  InstanceSpec spec;
  spec.keys = run->cfg.keys;
  spec.seed = run->seed;
  run->instance = MakeInstance(spec);
  ServiceOptions options;
  options.threads = run->cfg.service_threads;
  options.bulk_redetect_statements = run->cfg.bulk_redetect_statements;
  run->service = std::make_unique<QueryService>(options);
  CommitReceipt receipt =
      run->service->CommitAsync(run->instance.load_sql).get();
  run->setup_s = std::chrono::duration<double>(Clock::now() -
                                               g_process_start)
                     .count();
  if (!receipt.status.ok() || receipt.snapshot == nullptr) {
    std::fprintf(stderr, "perfbench: load failed: %s\n",
                 receipt.status.ToString().c_str());
    return false;
  }
  run->load_epoch = receipt.epoch;
  run->load_snapshot = receipt.snapshot;
  run->writes = std::make_unique<WriteStream>(run->instance.model,
                                              run->cfg.keys, run->seed);
  return true;
}

Clock::time_point After(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

/// A small-commit stream sized to last about `seconds` at
/// cfg.commit_rate_hint: a fixed count for given arguments, so every run of
/// a seed walks the same states. Runs far slower than the hint are cut
/// short at four times `seconds`.
void CommitPhase(Run* run, double seconds) {
  size_t rounds = std::max<size_t>(
      run->cfg.min_commit_rounds,
      size_t(std::ceil(seconds * run->cfg.commit_rate_hint /
                       double(run->cfg.round_commits))));
  CommitRounds(run, rounds, After(4 * seconds));
}

/// cqa_read: closed-loop clients on the fixed load snapshot for two thirds
/// of the run; then, as a probe of the write path it leaves idle, a commit
/// stream sized to a quarter of the run.
void CqaRead(Run* run) {
  Clients(run, run->load_snapshot, After(run->seconds * 2 / 3)).Join();
  CommitPhase(run, run->seconds / 4);
}

/// commit_stream: one writer sending small commits for a third of the run;
/// then closed-loop clients at the final epoch until the run's end (but for
/// at least a third of it), whose answers check the final state.
void CommitStream(Run* run) {
  Clock::time_point end = After(run->seconds);
  CommitPhase(run, run->seconds / 3);
  Clients(run, run->service->snapshot(),
          std::max(end, After(run->seconds / 3)))
      .Join();
}

/// mixed_serve: closed-loop readers on the freshest snapshot while the
/// main thread sends small commits open-loop at cfg.write_rate, timed from
/// when each was due, plus a bulk batch every cfg.bulk_interval_s.
void MixedServe(Run* run) {
  using std::chrono::duration;
  using std::chrono::duration_cast;
  Clock::time_point t0 = Clock::now();
  Clock::time_point deadline = After(run->seconds);
  Clients readers(run, nullptr, deadline);

  auto due_at = [&](double s) {
    return t0 + duration_cast<Clock::duration>(duration<double>(s));
  };
  std::deque<Pending> window;
  std::deque<Pending> bulks;
  size_t next_small = 0, next_bulk = 1, sent = 0;
  for (;;) {
    Clock::time_point small_due = due_at(double(next_small) /
                                         run->cfg.write_rate);
    Clock::time_point bulk_due =
        due_at(double(next_bulk) * run->cfg.bulk_interval_s);
    Clock::time_point next = std::min(small_due, bulk_due);
    if (next >= deadline) break;
    // Until the next send is due, collect receipts as they resolve: wait on
    // the oldest small commit, or on the oldest bulk when none is pending.
    while (Clock::now() < next) {
      while (!bulks.empty() && bulks.front().receipt.wait_for(
                                   std::chrono::seconds(0)) ==
                                   std::future_status::ready) {
        FinishOp(run, &bulks.front());
        bulks.pop_front();
      }
      std::future<CommitReceipt>* waiting =
          !window.empty() ? &window.front().receipt
          : !bulks.empty() ? &bulks.front().receipt
                           : nullptr;
      if (waiting == nullptr) {
        std::this_thread::sleep_until(next);
        break;
      }
      if (waiting->wait_until(next) != std::future_status::ready) break;
      std::deque<Pending>& q = !window.empty() ? window : bulks;
      FinishOp(run, &q.front());
      q.pop_front();
    }
    Clock::time_point now = Clock::now();
    if (bulk_due <= small_due) {
      run->lag_s.push_back(std::chrono::duration<double>(now - bulk_due)
                               .count());
      bulks.push_back(SubmitOp(
          run, run->writes->NextBulk(run->cfg.bulk_statements), bulk_due));
      ++next_bulk;
    } else {
      run->lag_s.push_back(std::chrono::duration<double>(now - small_due)
                               .count());
      window.push_back(SubmitOp(run, run->writes->NextSmall(), small_due));
      ++next_small;
      ++sent;
    }
  }
  for (Pending& p : window) FinishOp(run, &p);
  for (Pending& p : bulks) FinishOp(run, &p);
  run->commit_rates.push_back(double(sent) / SecondsSince(t0));
  readers.Join();
}

// --- output ------------------------------------------------------------------

double PeakRssMiB() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::vector<Metric> EndToEndMetrics(const Run& run) {
  std::vector<Metric> m;
  m.push_back({"setup_s", run.setup_s, "s"});
  m.push_back({"peak_rss_mib", PeakRssMiB(), "MiB"});
  // Latencies are reported as low percentiles and rates as the upper
  // quartile over short rounds (README.md, "End-to-end metrics"): on a
  // shared host the processors change speed every few seconds, and a
  // percentile on the fast side stays put where a median jumps with the
  // share of slow spells in the run.
  std::vector<std::vector<double>> per_class(kNumClasses);
  for (const ReadRecord& r : run.reads) {
    if (!r.ok) continue;
    per_class[r.cls].push_back(r.latency_s * 1e3);
  }
  for (int c = 0; c < kNumClasses; ++c) {
    m.push_back({std::string("query_") + ClassName(c) + "_p10_ms",
                 hippo::bench::Percentile(per_class[c], 10), "ms"});
  }
  std::vector<double> commit_ms;
  for (const CommitRecord& c : run.commits) {
    if (c.ok && !c.bulk) commit_ms.push_back(c.latency_s * 1e3);
  }
  m.push_back({"commit_throughput",
               hippo::bench::Percentile(run.commit_rates, 75), "1/s"});
  m.push_back({"commit_p25_ms", hippo::bench::Percentile(commit_ms, 25),
               "ms"});
  return m;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " + value +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void PrintTable(const std::string& title, const std::vector<Metric>& metrics,
                std::FILE* out) {
  std::fprintf(out, "%s\n", title.c_str());
  for (const Metric& m : metrics) {
    std::fprintf(out, "  %-34s %14.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
}

/// Writes the per-layer table and every kept span tree of a traced run to
/// .bench_out/ under the working directory.
void WriteTraceFile(const Run& run, const std::vector<Metric>& metrics) {
  std::error_code ec;
  std::filesystem::create_directories(".bench_out", ec);
  std::string path = ".bench_out/" + run.cfg.name + "-seed" +
                     std::to_string(run.seed) + "-trace.txt";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  PrintTable(run.cfg.name + " per-layer (seed " + std::to_string(run.seed) +
                 ")",
             metrics, out);
  for (const auto& [cls, root] : run.spans) {
    std::fprintf(out, "\n-- %s\n%s", ClassName(cls), root->Render().c_str());
  }
  std::fclose(out);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload cqa_read|commit_stream|"
               "mixed_serve --seed N --seconds S --trace 0|1\n"
               "       perfbench --selftest [--seed N]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--workload" && (v = value())) {
      workload = v;
    } else if (arg == "--seed" && (v = value())) {
      seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds" && (v = value())) {
      seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace" && (v = value())) {
      trace = std::atoi(v);
    } else {
      return Usage();
    }
  }
  if (selftest) {
    std::vector<std::string> errors;
    OracleSelfTest(seed, &errors);
    for (const std::string& e : errors) {
      std::fprintf(stderr, "perfbench: self-test: %s\n", e.c_str());
    }
    std::fprintf(stderr, "perfbench: oracle self-test %s\n",
                 errors.empty() ? "passed" : "FAILED");
    return errors.empty() ? 0 : 1;
  }
  if ((workload != "cqa_read" && workload != "commit_stream" &&
       workload != "mixed_serve") ||
      !(seconds > 0) || (trace != 0 && trace != 1)) {
    return Usage();
  }

  Run run;
  run.cfg = ConfigFor(workload);
  run.seed = seed;
  run.seconds = seconds;
  run.trace = trace == 1;
  if (!Setup(&run)) return 1;
  if (workload == "cqa_read") {
    CqaRead(&run);
  } else if (workload == "commit_stream") {
    CommitStream(&run);
  } else {
    MixedServe(&run);
  }
  std::vector<Metric> metrics = run.trace ? LayerMetrics(&run)
                                          : EndToEndMetrics(run);
  if (run.trace) WriteTraceFile(run, metrics);
  VerifyRun(&run);
  OracleSelfTest(seed, &run.errors);
  run.service->Shutdown();

  for (const std::string& e : run.errors) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  }
  PrintTable(workload + (run.trace ? " per-layer" : " end-to-end") +
                 " (seed " + std::to_string(seed) + ")",
             metrics, stderr);
  PrintResult(run.errors.empty(), run.reads.size() + run.commits.size(),
              run.failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
