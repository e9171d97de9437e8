// Per-layer metrics of a traced run. The benchmark times its own calls into
// public entry points (the parser, Snapshot::Plan, ClassifyRoute,
// ConflictDetector::DetectAll, Database::Execute on a private replay of the
// write stream, Snapshot::Capture and the marginal-bytes accounting), and
// reads what the program exposes for the layers it cannot call alone: the
// per-query trace spans, HippoStats, receipt phases and the service
// metrics JSON.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unordered_set>

#include "bench.h"
#include "db/database.h"
#include "detect/detector.h"
#include "plan/router.h"
#include "sql/parser.h"

namespace perfbench {

namespace {

using hippo::obs::TraceSpan;

bool StartsWith(const std::string& s, const char* prefix) {
  return s.compare(0, std::strlen(prefix), prefix) == 0;
}

/// Self time of executor operator spans, summed by operator family.
struct OperatorTimes {
  double scan = 0, join = 0, antijoin = 0, setop = 0;

  void Add(const TraceSpan& span) {
    double self = span.seconds();
    for (const TraceSpan* child : span.Children()) {
      self -= child->seconds();
      Add(*child);
    }
    const std::string& name = span.name();
    if (StartsWith(name, "Scan")) {
      scan += self;
    } else if (StartsWith(name, "AntiJoin")) {
      antijoin += self;
    } else if (StartsWith(name, "Join") || StartsWith(name, "Product")) {
      join += self;
    } else if (StartsWith(name, "Union") || StartsWith(name, "Difference") ||
               StartsWith(name, "Intersect")) {
      setop += self;
    }
  }
};

const TraceSpan* Child(const TraceSpan& root, const char* name) {
  for (const TraceSpan* child : root.Children()) {
    if (child->name() == name) return child;
  }
  return nullptr;
}

/// Mean of a histogram in the service metrics JSON, or 0 when absent.
double HistogramMean(const std::string& json, const std::string& name) {
  size_t at = json.find("\"" + name + "\":{");
  if (at == std::string::npos) return 0;
  size_t mean = json.find("\"mean\":", at);
  return mean == std::string::npos ? 0
                                   : std::strtod(json.c_str() + mean + 7,
                                                 nullptr);
}

template <typename Fn>
double TimeUs(const Fn& fn) {
  Clock::time_point t0 = Clock::now();
  fn();
  return SecondsSince(t0) * 1e6;
}

/// Execute times of one replay pass over the small commits, per statement.
struct ReplayPass {
  std::vector<double> kind_us[3];  // Op::kInsert, kDelete, kUpdate
  std::vector<double> marginal_kib;
  std::vector<double> rebuild_ms;
  std::vector<double> capture_us;
};

/// Replays `ops` on a copy-on-write fork of `base`. With `publish`, every
/// statement is followed by Snapshot::Capture, as the service publishes an
/// epoch per group, so the next write unshares what the snapshot holds.
ReplayPass Replay(hippo::Database* base, const std::vector<const Op*>& ops,
                  bool maintain, bool publish, Run* run) {
  ReplayPass pass;
  std::unique_ptr<hippo::Database> db = base->ForkShared();
  if (maintain) {
    hippo::Status st = db->EnableIncrementalMaintenance();
    if (!st.ok()) run->Error("replay maintenance: " + st.ToString());
  }
  hippo::service::SnapshotPtr prev;
  uint64_t epoch = 0;
  if (publish) prev = hippo::service::Snapshot::Capture(db.get(), ++epoch)
                          .value();
  for (const Op* op : ops) {
    hippo::Status st;
    double us = TimeUs([&] { st = db->Execute(op->sql); });
    if (!st.ok()) run->Error("replay: " + st.ToString());
    pass.kind_us[op->kind].push_back(us);
    if (!publish) continue;
    if (op->kind == Op::kInsert) {
      // A new row slot drops the table's columnar image; readers of the
      // next epoch rebuild it on first scan.
      const hippo::Table* table =
          db->catalog().GetTable(RelName(op->rel)).value();
      pass.rebuild_ms.push_back(TimeUs([&] { table->columnar(); }) / 1e3);
    }
    hippo::Result<hippo::service::SnapshotPtr> snap =
        hippo::Status::Internal("not captured");
    pass.capture_us.push_back(TimeUs(
        [&] { snap = hippo::service::Snapshot::Capture(db.get(), ++epoch); }));
    if (!snap.ok()) {
      run->Error("replay capture: " + snap.status().ToString());
      break;
    }
    std::unordered_set<const void*> seen;
    prev->CollectStorageIdentity(&seen);
    pass.marginal_kib.push_back(
        double(snap.value()->AccumulateApproxBytes(&seen)) / 1024.0);
    prev = snap.value();
  }
  return pass;
}

/// Per-statement cost of what pass `a` does beyond pass `b`: the per-kind
/// difference of median Execute times, weighted by the kinds' counts. (One
/// median over all statements would fall between the microsecond INSERTs
/// and the scanning DELETEs and UPDATEs.)
double ExtraUs(const ReplayPass& a, const ReplayPass& b) {
  double sum = 0, n = 0;
  for (int kind = 0; kind < 3; ++kind) {
    double count = double(a.kind_us[kind].size());
    if (count == 0) continue;
    sum += count * (Median(a.kind_us[kind]) - Median(b.kind_us[kind]));
    n += count;
  }
  return n > 0 ? sum / n : 0;
}

}  // namespace

std::vector<Metric> LayerMetrics(Run* run) {
  hippo::service::QueryService& service = *run->service;
  hippo::service::SnapshotPtr snap = service.snapshot();

  // --- spans of the timed queries --------------------------------------------
  std::vector<double> eval_ms, envelope_ms, prover_ms;
  double candidates = 0, answers = 0;
  OperatorTimes ops;
  for (const auto& [cls, root] : run->spans) {
    const std::string route = root->Attr("route");
    if (StartsWith(route, "rewrite")) {
      if (const TraceSpan* s = Child(*root, "evaluate")) {
        eval_ms.push_back(s->seconds() * 1e3);
      }
    }
    if (const TraceSpan* s = Child(*root, "envelope")) {
      envelope_ms.push_back(s->seconds() * 1e3);
    }
    if (const TraceSpan* s = Child(*root, "prover")) {
      prover_ms.push_back(s->seconds() * 1e3);
      candidates += std::atof(s->Attr("candidates").c_str());
      answers += std::atof(s->Attr("answers").c_str());
    }
    for (const TraceSpan* phase : root->Children()) {
      for (const TraceSpan* op : phase->Children()) ops.Add(*op);
    }
  }
  const double traced = double(std::max<size_t>(run->spans.size(), 1));
  hippo::service::ServiceStats stats = service.stats();
  const std::string metrics_json = service.DumpMetricsJson();

  // --- receipts ---------------------------------------------------------------
  std::vector<double> queue_ms, group, publish_us, redetect_ms, replay_ms;
  std::vector<double> commit_ms, bulk_ms;
  for (const CommitRecord& c : run->commits) {
    if (!c.ok) continue;
    if (c.bulk) {
      bulk_ms.push_back(c.latency_s * 1e3);
      redetect_ms.push_back(c.phases.detect_seconds * 1e3);
      replay_ms.push_back(c.phases.replay_seconds * 1e3);
    } else {
      commit_ms.push_back(c.latency_s * 1e3);
      queue_ms.push_back(c.phases.queue_seconds * 1e3);
      group.push_back(double(c.group_size));
      publish_us.push_back(c.phases.publish_seconds * 1e6);
    }
  }

  // --- parse, plan, route and full detection on the final snapshot ----------
  std::vector<const Op*> smalls;
  for (const Op& op : run->ops) {
    if (op.kind != Op::kBulk && smalls.size() < 256) smalls.push_back(&op);
  }
  std::vector<double> parse_us;
  for (const Op* op : smalls) {
    parse_us.push_back(TimeUs([&] { (void)hippo::sql::ParseScript(op->sql); }));
  }
  std::vector<double> plan_us, route_us;
  for (int rep = 0; rep < 5; ++rep) {
    for (int cls = 0; cls < kNumClasses; ++cls) {
      hippo::Result<hippo::PlanNodePtr> plan =
          hippo::Status::Internal("not planned");
      plan_us.push_back(TimeUs([&] { plan = snap->Plan(ClassSql(cls)); }));
      if (!plan.ok()) {
        run->Error("plan: " + plan.status().ToString());
        continue;
      }
      route_us.push_back(TimeUs([&] {
        (void)hippo::ClassifyRoute(*plan.value(), snap->catalog(),
                                   &snap->constraints(),
                                   &snap->foreign_keys(), &snap->hypergraph(),
                                   hippo::RouteMode::kAuto);
      }));
    }
  }
  hippo::DetectOptions detect;
  detect.num_threads = run->cfg.service_threads;
  std::vector<double> full_ms;
  for (int rep = 0; rep < 3; ++rep) {
    hippo::ConflictDetector detector(snap->catalog(), detect);
    full_ms.push_back(TimeUs([&] {
                        (void)detector.DetectAll(snap->constraints(),
                                                 snap->foreign_keys());
                      }) /
                      1e3);
  }

  // --- private replay of the write stream -------------------------------------
  hippo::Database base;
  base.SetDetectOptions(detect);
  hippo::Status loaded = base.Execute(run->instance.load_sql);
  if (!loaded.ok()) run->Error("replay load: " + loaded.ToString());
  ReplayPass published = Replay(&base, smalls, true, true, run);
  ReplayPass maintained = Replay(&base, smalls, true, false, run);
  ReplayPass plain = Replay(&base, smalls, false, false, run);

  // --- tracing overhead: the same queries untraced and traced ---------------
  double untraced_s = 0, traced_s = 0;
  for (int round = 0; round < 2; ++round) {
    for (int cls = 0; cls < kNumClasses; ++cls) {
      for (int t = 0; t < 2; ++t) {
        bool with_trace = (t + round) % 2 == 1;
        TraceSpan root("query");
        hippo::cqa::HippoOptions options;
        options.num_threads = 1;
        options.trace = with_trace ? &root : nullptr;
        Clock::time_point t0 = Clock::now();
        auto result = service
                          .Submit(hippo::service::QueryService::ReadMode::
                                      kConsistent,
                                  ClassSql(cls), snap, options)
                          .get();
        (with_trace ? traced_s : untraced_s) += SecondsSince(t0);
        if (!result.ok()) run->Error("overhead query failed");
      }
    }
  }

  std::vector<Metric> m;
  m.push_back({"sql.parse_us", Median(parse_us), "us"});
  m.push_back({"plan.plan_us", Median(plan_us), "us"});
  m.push_back({"plan.route_us", Median(route_us), "us"});
  m.push_back({"rewriting.eval_ms", Mean(eval_ms), "ms"});
  m.push_back({"cqa.envelope_ms", Mean(envelope_ms), "ms"});
  m.push_back({"cqa.prover_ms", Mean(prover_ms), "ms"});
  m.push_back({"cqa.candidates_per_answer",
               answers > 0 ? candidates / answers : 0, "ratio"});
  m.push_back({"cqa.prover_calls_per_query",
               stats.hippo.routed_prover > 0
                   ? double(stats.hippo.prover_invocations) /
                         double(stats.hippo.routed_prover)
                   : 0,
               "count"});
  m.push_back({"exec.scan_ms", ops.scan * 1e3 / traced, "ms"});
  m.push_back({"exec.join_ms", ops.join * 1e3 / traced, "ms"});
  m.push_back({"exec.antijoin_ms", ops.antijoin * 1e3 / traced, "ms"});
  m.push_back({"exec.setop_ms", ops.setop * 1e3 / traced, "ms"});
  m.push_back({"detect.full_ms", Median(full_ms), "ms"});
  m.push_back({"detect.maintain_us", ExtraUs(maintained, plain), "us"});
  m.push_back({"storage.unshare_us", ExtraUs(published, maintained), "us"});
  m.push_back({"storage.marginal_kib_per_epoch",
               Median(published.marginal_kib), "KiB"});
  m.push_back({"storage.columnar_rebuild_ms", Median(published.rebuild_ms),
               "ms"});
  m.push_back({"db.insert_us", Median(plain.kind_us[Op::kInsert]), "us"});
  m.push_back({"db.delete_us", Median(plain.kind_us[Op::kDelete]), "us"});
  m.push_back({"db.update_us", Median(plain.kind_us[Op::kUpdate]), "us"});
  m.push_back({"service.commit_queue_ms", Median(queue_ms), "ms"});
  m.push_back({"service.group_size", Mean(group), "count"});
  m.push_back({"service.publish_us", Median(publish_us), "us"});
  m.push_back({"service.commit_p99_ms",
               hippo::bench::Percentile(commit_ms, 99), "ms"});
  m.push_back({"service.capture_us", Median(published.capture_us), "us"});
  m.push_back({"service.read_queue_ms",
               HistogramMean(metrics_json, "hippo_queue_wait_seconds") * 1e3,
               "ms"});
  m.push_back({"service.bulk_commit_ms", Median(bulk_ms), "ms"});
  m.push_back({"service.redetect_ms", Median(redetect_ms), "ms"});
  m.push_back({"service.replay_ms", Median(replay_ms), "ms"});
  m.push_back({"loadgen.lag_p99_ms", hippo::bench::Percentile(run->lag_s, 99) * 1e3,
               "ms"});
  m.push_back({"obs.trace_overhead",
               untraced_s > 0 ? traced_s / untraced_s : 0, "ratio"});
  return m;
}

}  // namespace perfbench
