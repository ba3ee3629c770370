// End-to-end benchmark of the query-performance-prediction loop.
//
// One process runs one workload: it generates a TPC-H database, trains a
// prediction model on a frozen training log, starts an in-process TCP
// prediction server, and then, round after round until --seconds have
// passed, drives the paper's loop (bind a template and optimize it,
// predict its latency, execute it, featurize it and harvest its actuals)
// beside in-process and TCP prediction traffic. Every timed call goes
// into a layer's public function, so the benchmark needs nothing inside
// the engine. Correctness checks run after the measured window so they
// never perturb it. The last line of stdout is the result as one JSON
// object; see README.md for the metrics and workloads.
//
// Usage: qppbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                        [--data DIR] [--out DIR] [--selftest] [--verbose]
//        qppbench_driver --regen-logs DIR

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "card/feedback.h"
#include "card/learned_estimator.h"
#include "catalog/database.h"
#include "checks.h"
#include "common/rng.h"
#include "exec/driver.h"
#include "kde/estimator.h"
#include "kde/feedback.h"
#include "common/stats.h"
#include "net/client.h"
#include "net/server.h"
#include "optimizer/optimizer.h"
#include "qpp/predictor.h"
#include "serve/feedback.h"
#include "serve/registry.h"
#include "serve/service.h"
#include "tpch/dbgen.h"
#include "trace.h"
#include "workload/query_log.h"
#include "workload/runner.h"
#include "workload/templates.h"

namespace qppbench {
namespace {

// Set during static initialization, before main: set-up time is measured
// from here.
const Clock::time_point kProcessStart = Clock::now();

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "qppbench: %s\n", what.c_str());
  std::exit(2);
}

void Must(const qpp::Status& st, const char* what) {
  if (!st.ok()) Die(std::string(what) + ": " + st.ToString());
}

template <typename T>
T Must(qpp::Result<T> r, const char* what) {
  if (!r.ok()) Die(std::string(what) + ": " + r.status().ToString());
  return std::move(*r);
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Estimator { kCard, kKde };

struct WorkloadSpec {
  std::string name;
  double scale_factor = 0.01;
  /// Flush the buffer pool before every query (the paper's protocol).
  bool cold_pool = true;
  /// Learned estimator attached to the planner.
  Estimator estimator = Estimator::kCard;
  qpp::PredictionMethod method = qpp::PredictionMethod::kHybrid;
  /// Frozen training log, under the data directory.
  std::string training_log;
  /// Templates executed through the loop, each once per round.
  std::vector<int> exec_templates;
  /// Executed records go through serve::FeedbackLoop::Observe (with card
  /// and kde feedback attached) instead of being harvested directly.
  bool observe = false;
  /// The prediction traffic cycles over records planned up front:
  /// `pool_per_template` fresh instances of each of `pool_templates`.
  std::vector<int> pool_templates;
  int pool_per_template = 16;
  int predicts_per_round = 0;
  int v1_per_round = 0;
  int v2_windows_per_round = 0;
};

/// Records per v2 batch container, and containers per throughput window.
constexpr int kV2Batch = 32;
constexpr int kV2Window = 4;
/// Rounds whose executed operators the q-error statistic covers; every run
/// completes at least this many, so the statistic repeats exactly per seed.
constexpr int kQerrRounds = 2;
/// Train is timed again whenever the timings so far have taken less than this
/// share of the measured window, so train_s samples the whole window rather
/// than one moment of it. One timing repeats Train for at least
/// kMinTrainTimingSeconds. Set-up trains once, untimed by train_s.
constexpr double kTrainShare = 0.2;
constexpr double kMinTrainTimingSeconds = 0.2;
/// Tail latencies are taken per consecutive chunk of this many samples and
/// reported as the median over chunks, so one stall of the machine moves
/// one chunk instead of the run's tail.
constexpr size_t kPredictChunk = 1000;
constexpr size_t kTcpChunk = 200;

std::vector<WorkloadSpec> Workloads() {
  std::vector<WorkloadSpec> out;
  {
    WorkloadSpec w;
    w.name = "tpch_sf005_cold_card";
    w.scale_factor = 0.05;
    w.cold_pool = true;
    w.estimator = Estimator::kCard;
    w.method = qpp::PredictionMethod::kHybrid;
    w.training_log = "sf0.05_t14.log";
    w.exec_templates = qpp::tpch::OperatorLevelTemplates();
    w.pool_templates = w.exec_templates;
    w.predicts_per_round = 4000;
    w.v1_per_round = 1000;
    w.v2_windows_per_round = 40;
    out.push_back(std::move(w));
  }
  {
    WorkloadSpec w;
    w.name = "tpch_sf001_warm_kde";
    w.scale_factor = 0.01;
    w.cold_pool = false;
    w.estimator = Estimator::kKde;
    w.method = qpp::PredictionMethod::kOnline;
    w.training_log = "sf0.01_t14.log";
    // Every template except 21, which the KDE string-equality fault makes
    // run for minutes (see README.md).
    for (int t : qpp::tpch::AllTemplates()) {
      if (t != 21) w.exec_templates.push_back(t);
    }
    w.pool_templates = w.exec_templates;
    w.predicts_per_round = 4000;
    w.v1_per_round = 1000;
    w.v2_windows_per_round = 40;
    out.push_back(std::move(w));
  }
  {
    WorkloadSpec w;
    w.name = "serve_sf001_predict";
    w.scale_factor = 0.01;
    w.cold_pool = false;
    w.estimator = Estimator::kCard;
    w.method = qpp::PredictionMethod::kPlanLevel;
    w.training_log = "sf0.01_t18.log";
    w.exec_templates = {6, 12, 14};
    w.observe = true;
    w.pool_templates = qpp::tpch::AllTemplates();
    w.predicts_per_round = 8000;
    w.v1_per_round = 1200;
    w.v2_windows_per_round = 40;
    out.push_back(std::move(w));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0.0;  // required for a workload run
  bool trace = false;
  std::string data_dir = "qppbench/data";
  std::string out_dir = ".bench_out";
  std::string regen_dir;
  bool selftest = false;
  bool verbose = false;
};

Options ParseOptions(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::atof(value().c_str());
    } else if (a == "--trace") {
      o.trace = value() == "1";
    } else if (a == "--data") {
      o.data_dir = value();
    } else if (a == "--out") {
      o.out_dir = value();
    } else if (a == "--regen-logs") {
      o.regen_dir = value();
    } else if (a == "--selftest") {
      o.selftest = true;
    } else if (a == "--verbose") {
      o.verbose = true;
    } else {
      Die("unknown argument " + a);
    }
  }
  if (o.regen_dir.empty() && !(o.seconds > 0.0)) Die("--seconds must be given and positive");
  return o;
}

// ---------------------------------------------------------------------------
// Instrumentation adapters
// ---------------------------------------------------------------------------

/// Wraps the attached CardinalityEstimator to count the optimizer's calls
/// and the answers the learned backend gave (the rest fall back to the
/// histogram baseline). Used from the driver's single client thread only.
class CountingEstimator final : public qpp::CardinalityEstimator {
 public:
  CountingEstimator(const qpp::CardinalityEstimator* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  std::optional<double> EstimateRows(
      const qpp::CardinalityQuery& query) const override {
    Tracer::Scope span(*tracer_, "optimizer.estimator");
    ++calls_;
    std::optional<double> rows = inner_->EstimateRows(query);
    if (rows.has_value()) ++answered_;
    return rows;
  }
  const char* name() const override { return inner_->name(); }

  uint64_t calls() const { return calls_; }
  uint64_t answered() const { return answered_; }
  /// Forgets the set-up's calls, so the counts cover the measured loops.
  void ResetCounts() { calls_ = answered_ = 0; }

 private:
  const qpp::CardinalityEstimator* inner_;
  Tracer* tracer_;
  mutable uint64_t calls_ = 0;
  mutable uint64_t answered_ = 0;
};

/// Every model version a TCP reply may name, so replies are compared with
/// an in-process prediction by the very model that served them.
class VersionBook {
 public:
  explicit VersionBook(const qpp::serve::ModelRegistry* registry)
      : registry_(registry) {}

  const qpp::QueryPerformancePredictor* Find(uint64_t version) {
    auto it = versions_.find(version);
    if (it == versions_.end()) {
      auto cur = registry_->Current();
      if (cur != nullptr) versions_.emplace(cur->version, cur);
      it = versions_.find(version);
      if (it == versions_.end()) return nullptr;
    }
    return it->second->predictor.get();
  }

 private:
  const qpp::serve::ModelRegistry* registry_;
  std::map<uint64_t, std::shared_ptr<const qpp::serve::ModelVersion>> versions_;
};

// ---------------------------------------------------------------------------
// Per-run state
// ---------------------------------------------------------------------------

/// An executed query kept for the deferred checks.
struct ExecutedQuery {
  int template_id = 0;
  qpp::Rng rng_before;  // template RNG state before binding
  std::string shape;    // structural key of the plan that ran
  std::string param_desc;
  double latency_ms = 0.0;
  std::vector<qpp::Tuple> rows;
};

struct Samples {
  std::vector<double> loop_ms;
  std::map<int, std::vector<double>> loop_ms_by_template;
  std::vector<double> train_s;
  std::vector<double> predict_us;
  std::vector<double> tcp_us;
  std::vector<double> v2_window_qps;
  std::vector<double> qerr;
  double exec_rows = 0.0;
  double pool_hits = 0.0;
  double pool_misses = 0.0;
  uint64_t executed = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

double QError(double est, double actual) {
  const double e = std::max(est, 1.0);
  const double a = std::max(actual, 1.0);
  return std::max(e / a, a / e);
}

/// q-errors of the optimizer's row estimates over the executed operators
/// whose actual counts are trustworthy: the same Limit-taint rule the
/// feedback harvesters apply.
void CollectQErrors(const qpp::PlanNode& node, bool tainted,
                    std::vector<double>* out) {
  if (!tainted && node.actual.valid) {
    out->push_back(QError(node.est.rows, node.actual.rows));
  }
  const bool downstream = tainted || node.op == qpp::PlanOp::kLimit;
  for (size_t i = 0; i < node.children.size(); ++i) {
    CollectQErrors(*node.children[i],
                   downstream && !qpp::card::HarvestChildResetsTaint(node.op, i),
                   out);
  }
}

double SumActualRows(const qpp::PlanNode& node) {
  double rows = node.actual.valid ? node.actual.rows : 0.0;
  for (const auto& c : node.children) rows += SumActualRows(*c);
  return rows;
}

std::string DataPath(const Options& o, const std::string& file) {
  return o.data_dir + "/" + file;
}

// ---------------------------------------------------------------------------
// Frozen-log regeneration
// ---------------------------------------------------------------------------

int RegenerateLogs(const std::string& dir) {
  struct LogSpec {
    double sf;
    std::vector<int> templates;
    const char* file;
  };
  const std::vector<LogSpec> specs = {
      {0.05, qpp::tpch::OperatorLevelTemplates(), "sf0.05_t14.log"},
      {0.01, qpp::tpch::OperatorLevelTemplates(), "sf0.01_t14.log"},
      {0.01, qpp::tpch::PlanLevelTemplates(), "sf0.01_t18.log"},
  };
  for (const LogSpec& spec : specs) {
    qpp::tpch::DbgenConfig cfg;
    cfg.scale_factor = spec.sf;
    qpp::Database db;
    Must(db.AdoptTables(Must(qpp::tpch::Dbgen(cfg).Generate(), "dbgen")),
         "adopt tables");
    Must(db.AnalyzeAll(), "analyze");
    qpp::WorkloadConfig wc;  // defaults: 30 queries/template, seed 7, cold
    wc.templates = spec.templates;
    const qpp::QueryLog log = Must(qpp::RunWorkload(&db, wc), "run workload");
    const std::string path = dir + "/" + spec.file;
    Must(log.SaveToFile(path), "save log");
    std::fprintf(stderr, "wrote %s (%zu queries)\n", path.c_str(),
                 log.queries.size());
  }
  return 0;
}

// ---------------------------------------------------------------------------
// The benchmark run
// ---------------------------------------------------------------------------

class Run {
 public:
  Run(const Options& options, WorkloadSpec spec)
      : opt_(options), spec_(std::move(spec)), tracer_(options.trace) {}

  int Execute();

 private:
  void Setup();
  void TrainModel();
  std::shared_ptr<qpp::QueryPerformancePredictor> TrainOnce(
      qpp::PredictionMethod method);
  void TimeTrain();
  void PlanRecordPool();
  void LoopOne(int template_id, qpp::Rng* rng, int round);
  void ServeSlice(const std::vector<qpp::QueryRecord>& records, int slice,
                  int slices);
  void VerifyReply(const qpp::QueryRecord& record,
                   const qpp::net::ClientReply& reply, CheckLog* log);
  void CheckHybrid(CheckLog* log);
  void DeferredChecks();
  void SelfTest();
  void WriteCheckSummary() const;
  double LoopQps() const;
  double QueryMsGmean() const;
  double TcpQps() const { return Quantile(samples_.v2_window_qps, 0.5); }
  void PrintResult();

  const Options opt_;
  const WorkloadSpec spec_;
  Tracer tracer_;
  CheckLog checks_;
  Samples samples_;

  std::unique_ptr<qpp::Database> db_;
  qpp::card::CardFeedbackLoop card_loop_;
  qpp::kde::KdeFeedbackLoop kde_loop_;
  std::unique_ptr<qpp::CardinalityEstimator> learned_;
  std::unique_ptr<CountingEstimator> counting_;
  std::unique_ptr<qpp::Optimizer> planner_;

  qpp::QueryLog train_split_;
  double pred_mre_ = 0.0;
  size_t plan_models_ = 0;
  double setup_s_ = 0.0;
  double peak_rss_mb_ = 0.0;

  std::shared_ptr<const qpp::QueryPerformancePredictor> model_;
  qpp::serve::ModelRegistry registry_;
  std::unique_ptr<qpp::serve::PredictionService> service_;
  std::unique_ptr<qpp::serve::FeedbackLoop> feedback_;
  std::unique_ptr<qpp::net::PredictionServer> server_;
  qpp::net::PredictionClient v1_client_;
  qpp::net::PredictionClient v2_client_;
  std::unique_ptr<VersionBook> versions_;

  std::vector<qpp::QueryRecord> record_pool_;
  std::vector<ExecutedQuery> executed_;
  uint64_t planned_ = 0;
  /// One verified TCP reply and its record, kept for the self-test.
  std::optional<std::pair<size_t, qpp::net::ClientReply>> probe_reply_;
  /// Training-split errors of the hybrid model and of an operator-level
  /// model, kept for the self-test.
  double hybrid_mre_ = 0.0;
  double operator_level_mre_ = 0.0;
};

void Run::Setup() {
  Tracer::Scope span(tracer_, "setup");
  std::vector<std::unique_ptr<qpp::Table>> tables;
  {
    Tracer::Scope s(tracer_, "tpch.generate");
    qpp::tpch::DbgenConfig cfg;
    cfg.scale_factor = spec_.scale_factor;
    tables = Must(qpp::tpch::Dbgen(cfg).Generate(), "dbgen");
  }
  db_ = std::make_unique<qpp::Database>();
  Must(db_->AdoptTables(std::move(tables)), "adopt tables");
  {
    Tracer::Scope s(tracer_, "catalog.analyze");
    Must(db_->AnalyzeAll(), "analyze");
  }
  {
    Tracer::Scope s(tracer_, "kde.build");
    Must(kde_loop_.BuildFromDatabase(*db_), "kde build");
  }
  TrainModel();

  if (spec_.estimator == Estimator::kCard) {
    learned_ = std::make_unique<qpp::card::LearnedCardinalityEstimator>(&card_loop_);
  } else {
    learned_ = std::make_unique<qpp::kde::KdeCardinalityEstimator>(&kde_loop_);
  }
  counting_ = std::make_unique<CountingEstimator>(learned_.get(), &tracer_);
  planner_ = std::make_unique<qpp::Optimizer>(db_.get());
  planner_->set_cardinality_estimator(counting_.get());

  registry_.Publish(model_, "frozen-log");
  service_ = std::make_unique<qpp::serve::PredictionService>(&registry_);
  versions_ = std::make_unique<VersionBook>(&registry_);
  if (spec_.observe) {
    qpp::serve::FeedbackConfig fc;
    fc.retrain_config.method = spec_.method;
    fc.card_feedback = &card_loop_;
    fc.kde_feedback = &kde_loop_;
    feedback_ = std::make_unique<qpp::serve::FeedbackLoop>(&registry_, fc);
  }
  qpp::net::ServerConfig sc;
  sc.reactors = 1;
  server_ = std::make_unique<qpp::net::PredictionServer>(service_.get(), sc);
  Must(server_->Start(), "server start");
  Must(v1_client_.Connect("127.0.0.1", server_->port()), "v1 connect");
  Must(v2_client_.Connect("127.0.0.1", server_->port()), "v2 connect");
  PlanRecordPool();
}

void Run::TrainModel() {
  qpp::QueryLog log;
  {
    Tracer::Scope s(tracer_, "workload.log_load");
    log = Must(qpp::QueryLog::LoadFromFile(DataPath(opt_, spec_.training_log)),
               "load training log");
  }
  // Deterministic hold-out: every fifth query of each template.
  qpp::QueryLog train, test;
  std::map<int, int> seen;
  for (qpp::QueryRecord& q : log.queries) {
    (seen[q.template_id]++ % 5 == 4 ? test : train).queries.push_back(std::move(q));
  }
  train_split_ = std::move(train);
  std::shared_ptr<qpp::QueryPerformancePredictor> predictor;
  {
    Tracer::Scope s(tracer_, "qpp.train");
    predictor = TrainOnce(spec_.method);
  }

  std::vector<double> actual, predicted;
  for (const qpp::QueryRecord& q : test.queries) {
    actual.push_back(q.latency_ms);
    predicted.push_back(Must(predictor->PredictLatencyMs(q), "held-out predict"));
  }
  pred_mre_ = qpp::MeanRelativeError(actual, predicted);

  switch (spec_.method) {
    case qpp::PredictionMethod::kHybrid:
      plan_models_ = predictor->hybrid().plan_models().size();
      break;
    case qpp::PredictionMethod::kPlanLevel:
      plan_models_ = 1;
      break;
    default:
      // The online method builds its plan models lazily, per query.
      plan_models_ = predictor->hybrid().plan_models().size();
      break;
  }
  model_ = std::move(predictor);
}

/// Train on the frozen log's training split.
std::shared_ptr<qpp::QueryPerformancePredictor> Run::TrainOnce(
    qpp::PredictionMethod method) {
  qpp::PredictorConfig cfg;
  cfg.method = method;
  auto predictor = std::make_shared<qpp::QueryPerformancePredictor>(cfg);
  Must(predictor->Train(train_split_), "train");
  return predictor;
}

/// One timing of Train: the mean time of Train over as many repetitions as
/// fill kMinTrainTimingSeconds. Train is deterministic, so every repetition
/// trains the same model.
void Run::TimeTrain() {
  const Clock::time_point t0 = Clock::now();
  int trains = 0;
  double elapsed_us = 0.0;
  do {
    Tracer::Scope op(tracer_, "train");
    Tracer::Scope s(tracer_, "qpp.train");
    TrainOnce(spec_.method);
    ++trains;
  } while ((elapsed_us = ElapsedUs(t0, Clock::now())) < kMinTrainTimingSeconds * 1e6);
  samples_.train_s.push_back(elapsed_us / 1e6 / trains);
  if (opt_.verbose) {
    std::fprintf(stderr, "train at %.2f s: %d x %.4f s\n",
                 ElapsedUs(kProcessStart, t0) / 1e6, trains, samples_.train_s.back());
  }
}

void Run::PlanRecordPool() {
  qpp::Rng rng(opt_.seed ^ 0x5EB7E5EEDULL);
  for (int t : spec_.pool_templates) {
    qpp::Rng trng = rng.Fork();
    for (int i = 0; i < spec_.pool_per_template; ++i) {
      qpp::tpch::TemplateContext ctx{planner_.get(), db_.get(), &trng};
      qpp::QueryPlan plan;
      {
        Tracer::Scope s(tracer_, "optimizer.plan");
        plan = Must(qpp::tpch::GenerateTemplateQuery(t, &ctx), "plan pool record");
      }
      Tracer::Scope s(tracer_, "workload.featurize");
      record_pool_.push_back(qpp::RecordFromPlan(plan, 0.0));
    }
  }
}

void Run::LoopOne(int template_id, qpp::Rng* rng, int round) {
  ExecutedQuery kept;
  kept.template_id = template_id;
  kept.rng_before = *rng;
  ++samples_.attempted;

  const Clock::time_point t0 = Clock::now();
  Tracer::Scope op(tracer_, "loop");
  qpp::QueryPlan plan;
  {
    Tracer::Scope s(tracer_, "optimizer.plan");
    qpp::tpch::TemplateContext ctx{planner_.get(), db_.get(), rng};
    plan = Must(qpp::tpch::GenerateTemplateQuery(template_id, &ctx), "plan");
  }
  ++planned_;
  qpp::QueryRecord features;
  {
    Tracer::Scope s(tracer_, "workload.featurize");
    features = qpp::RecordFromPlan(plan, 0.0);
  }
  {
    Tracer::Scope s(tracer_, "serve.predict");
    Must(service_->Predict(features), "loop predict");
  }
  qpp::ExecutionResult result;
  {
    Tracer::Scope s(tracer_, "exec.execute");
    qpp::ExecutionOptions eo;
    eo.cold_start = spec_.cold_pool;
    eo.collect_rows = true;
    result = Must(qpp::ExecutePlan(plan.root.get(), db_.get(), eo), "execute");
  }
  qpp::QueryRecord executed;
  {
    Tracer::Scope s(tracer_, "workload.featurize");
    executed = qpp::RecordFromPlan(plan, result.latency_ms);
  }
  if (spec_.observe) {
    Tracer::Scope s(tracer_, "serve.observe");
    Must(feedback_->Observe(executed), "observe");
  } else if (spec_.estimator == Estimator::kCard) {
    Tracer::Scope s(tracer_, "card.harvest");
    Must(card_loop_.HarvestPlan(*plan.root), "card harvest");
  } else {
    Tracer::Scope s(tracer_, "kde.harvest");
    Must(kde_loop_.HarvestPlan(*plan.root), "kde harvest");
  }
  samples_.loop_ms.push_back(ElapsedUs(t0, Clock::now()) / 1e3);
  samples_.loop_ms_by_template[template_id].push_back(samples_.loop_ms.back());

  // Untimed bookkeeping, after the loop's clock stopped. (In traced runs it
  // falls inside the op span as "unattributed".)
  if (round < kQerrRounds) CollectQErrors(*plan.root, false, &samples_.qerr);
  samples_.exec_rows += SumActualRows(*plan.root);
  samples_.pool_hits += static_cast<double>(result.pool_hits);
  samples_.pool_misses += static_cast<double>(result.pool_misses);
  ++samples_.executed;
  if (opt_.verbose) {
    std::fprintf(stderr, "round %d template %2d: %9.2f ms (exec %9.2f ms) %s\n",
                 round, template_id, samples_.loop_ms.back(), result.latency_ms,
                 plan.parameter_desc.c_str());
  }
  kept.shape = plan.root->StructuralKey();
  kept.param_desc = plan.parameter_desc;
  kept.latency_ms = result.latency_ms;
  kept.rows = std::move(result.rows);
  executed_.push_back(std::move(kept));
}

void Run::VerifyReply(const qpp::QueryRecord& record,
                      const qpp::net::ClientReply& reply, CheckLog* log) {
  if (reply.error != qpp::net::ErrorCode::kNone) {
    // A typed server refusal is a failed operation, not a wrong answer.
    ++samples_.failed;
    return;
  }
  const qpp::QueryPerformancePredictor* model = versions_->Find(reply.model_version);
  if (model == nullptr) {
    log->Record("tcp_matches_in_process", false,
                "unknown model version " + std::to_string(reply.model_version));
    return;
  }
  const double local = Must(model->PredictLatencyMs(record), "reference predict");
  log->Record("tcp_matches_in_process",
              std::bit_cast<uint64_t>(local) ==
                  std::bit_cast<uint64_t>(reply.predicted_ms),
              "reply " + std::to_string(reply.predicted_ms) + " != local " +
                  std::to_string(local));
}

/// Runs slice `slice` of `slices` of one round's prediction traffic. The
/// round's traffic is cut into as many slices as the round executes
/// queries, and a slice follows each query, so every kind of traffic is
/// spread evenly over the measured window.
void Run::ServeSlice(const std::vector<qpp::QueryRecord>& records, int slice,
                     int slices) {
  const size_t n = records.size();
  auto range = [&](size_t total) {
    return std::make_pair(total * static_cast<size_t>(slice) / static_cast<size_t>(slices),
                          total * static_cast<size_t>(slice + 1) / static_cast<size_t>(slices));
  };
  // In-process predictions: through the service (the end-to-end metric)
  // and straight into the predictor (the qpp layer alone).
  const auto [p_begin, p_end] = range(static_cast<size_t>(spec_.predicts_per_round));
  for (size_t i = p_begin; i < p_end; ++i) {
    const qpp::QueryRecord& rec = records[i % n];
    ++samples_.attempted;
    const Clock::time_point t0 = Clock::now();
    {
      Tracer::Scope op(tracer_, "predict");
      Tracer::Scope s(tracer_, "serve.predict");
      Must(service_->Predict(rec), "predict");
    }
    samples_.predict_us.push_back(ElapsedUs(t0, Clock::now()));
    Tracer::Scope op(tracer_, "predict_direct");
    Tracer::Scope s(tracer_, "qpp.predict");
    Must(model_->PredictLatencyMs(rec), "direct predict");
  }
  // The record codecs on the bytes the clients send.
  const auto [c_begin, c_end] = range(n);
  for (size_t i = c_begin; i < c_end; ++i) {
    const qpp::QueryRecord& rec = records[i];
    Tracer::Scope op(tracer_, "codec");
    std::string text, binary;
    {
      Tracer::Scope s(tracer_, "workload.encode_text");
      text = qpp::SerializeQueryRecord(rec);
    }
    {
      Tracer::Scope s(tracer_, "workload.decode_text");
      Must(qpp::ParseQueryRecord(text, "<bench>"), "decode text");
    }
    {
      Tracer::Scope s(tracer_, "workload.encode_binary");
      binary = qpp::SerializeQueryRecordBinary(rec);
    }
    {
      Tracer::Scope s(tracer_, "workload.decode_binary");
      Must(qpp::ParseQueryRecordBinary(binary, "<bench>"), "decode binary");
    }
  }
  // v1: one request outstanding.
  const auto [v1_begin, v1_end] = range(static_cast<size_t>(spec_.v1_per_round));
  for (size_t i = v1_begin; i < v1_end; ++i) {
    const qpp::QueryRecord& rec = records[i % n];
    ++samples_.attempted;
    qpp::net::ClientReply reply;
    const Clock::time_point t0 = Clock::now();
    {
      Tracer::Scope op(tracer_, "tcp_v1");
      Tracer::Scope s(tracer_, "net.v1_roundtrip");
      reply = Must(v1_client_.Predict(rec), "v1 predict");
    }
    samples_.tcp_us.push_back(ElapsedUs(t0, Clock::now()));
    VerifyReply(rec, reply, &checks_);
    if (!probe_reply_ && reply.error == qpp::net::ErrorCode::kNone) {
      probe_reply_.emplace(i % n, reply);
    }
  }
  // v2: windows of kV2Window batch containers sent back to back, then
  // drained; each window is one throughput sample.
  const size_t window = static_cast<size_t>(kV2Batch) * kV2Window;
  const auto [w_begin, w_end] = range(static_cast<size_t>(spec_.v2_windows_per_round));
  for (size_t w = w_begin; w < w_end; ++w) {
    size_t next = w * window;
    std::unordered_map<uint64_t, size_t> pending;  // request id -> record index
    std::vector<std::pair<size_t, qpp::net::ClientReply>> replies;
    replies.reserve(window);
    const Clock::time_point t0 = Clock::now();
    {
      Tracer::Scope op(tracer_, "tcp_v2");
      Tracer::Scope s(tracer_, "net.v2_window");
      for (int b = 0; b < kV2Window; ++b) {
        std::vector<const qpp::QueryRecord*> batch;
        std::vector<size_t> index;
        for (int k = 0; k < kV2Batch; ++k, ++next) {
          index.push_back(next % n);
          batch.push_back(&records[next % n]);
        }
        const std::vector<uint64_t> ids = Must(v2_client_.SendBatch(batch), "v2 send");
        for (size_t k = 0; k < ids.size(); ++k) pending.emplace(ids[k], index[k]);
      }
      while (replies.size() < window) {
        qpp::net::ClientReply reply = Must(v2_client_.Receive(), "v2 receive");
        auto it = pending.find(reply.request_id);
        if (it == pending.end()) Die("v2 reply for an unknown request");
        replies.emplace_back(it->second, std::move(reply));
        pending.erase(it);
      }
    }
    samples_.v2_window_qps.push_back(static_cast<double>(window) * 1e6 /
                                     ElapsedUs(t0, Clock::now()));
    samples_.attempted += window;
    for (const auto& [index, reply] : replies) VerifyReply(records[index], reply, &checks_);
  }
}

void Run::DeferredChecks() {
  const qpp::Table* lineitem = db_->GetTable("lineitem");
  qpp::Optimizer histogram_planner(db_.get());
  for (const ExecutedQuery& q : executed_) {
    if (q.template_id == 1) CheckTemplate1(*lineitem, q.param_desc, q.rows, &checks_);
    if (q.template_id == 6) CheckTemplate6(*lineitem, q.param_desc, q.rows, &checks_);
    // Re-plan the same bound query without the learned estimator; where the
    // estimator changed the plan's shape, both plans must return the same
    // multiset of rows.
    qpp::Rng rng = q.rng_before;
    qpp::tpch::TemplateContext ctx{&histogram_planner, db_.get(), &rng};
    qpp::QueryPlan plan =
        Must(qpp::tpch::GenerateTemplateQuery(q.template_id, &ctx), "re-plan");
    if (plan.parameter_desc != q.param_desc) {
      checks_.Record("replan_same_rows", false,
                     "re-plan bound different parameters: " + plan.parameter_desc);
      continue;
    }
    if (plan.root->StructuralKey() == q.shape) continue;
    qpp::ExecutionOptions eo;
    eo.cold_start = false;
    const qpp::ExecutionResult res =
        Must(qpp::ExecutePlan(plan.root.get(), db_.get(), eo), "re-plan execute");
    if (opt_.verbose) {
      std::fprintf(stderr, "re-plan template %2d (%s): learned plan %.2f ms, "
                   "histogram plan %.2f ms (warm pool)\n", q.template_id,
                   q.param_desc.c_str(), q.latency_ms, res.latency_ms);
    }
    CheckSameRows(q.rows, res.rows,
                  "template " + std::to_string(q.template_id) + " (" + q.param_desc + ")",
                  &checks_);
  }
  if (spec_.method == qpp::PredictionMethod::kHybrid) CheckHybrid(&checks_);
}

/// Recomputes the hybrid model's training-split error from its predictions
/// and compares it with an operator-level model trained on the same split,
/// rather than trusting the errors the hybrid model keeps itself.
void Run::CheckHybrid(CheckLog* log) {
  const auto operator_level = TrainOnce(qpp::PredictionMethod::kOperatorLevel);
  std::vector<double> actual, hybrid, op_level;
  for (const qpp::QueryRecord& q : train_split_.queries) {
    if (q.latency_ms <= 0.0) continue;
    actual.push_back(q.latency_ms);
    hybrid.push_back(Must(model_->PredictLatencyMs(q), "hybrid predict"));
    op_level.push_back(Must(operator_level->PredictLatencyMs(q), "operator-level predict"));
  }
  hybrid_mre_ = qpp::MeanRelativeError(actual, hybrid);
  operator_level_mre_ = qpp::MeanRelativeError(actual, op_level);
  CheckHybridNotWorse(hybrid_mre_, operator_level_mre_, log);
}

/// Feeds each check a tampered input it must reject, so a check that can
/// no longer fail is caught.
void Run::SelfTest() {
  auto expect_failure = [&](const std::string& check, const auto& run_check) {
    CheckLog probe;
    run_check(&probe);
    checks_.Record("selftest_" + check, !probe.ok(), "a tampered input passed");
  };
  expect_failure("dbgen_cardinality", [&](CheckLog* log) {
    CheckDbgenCardinalities(*db_, spec_.scale_factor * 2, log);
  });
  // One cent more in template 1's sum_charge (column 5) or template 6's
  // revenue (column 0) of the first executed instance.
  const qpp::Table* lineitem = db_->GetTable("lineitem");
  for (int template_id : {1, 6}) {
    const size_t column = template_id == 1 ? 5 : 0;
    for (const ExecutedQuery& q : executed_) {
      if (q.template_id != template_id || q.rows.empty() ||
          q.rows[0].size() <= column ||
          q.rows[0][column].type() != qpp::TypeId::kDecimal) {
        continue;
      }
      std::vector<qpp::Tuple> rows = q.rows;
      qpp::Value& cell = rows[0][column];
      cell = qpp::Value::MakeDecimal(cell.decimal_value().Add(qpp::Decimal(1, 2)));
      expect_failure("template" + std::to_string(template_id) + "_recompute",
                     [&](CheckLog* log) {
                       if (template_id == 1) {
                         CheckTemplate1(*lineitem, q.param_desc, rows, log);
                       } else {
                         CheckTemplate6(*lineitem, q.param_desc, rows, log);
                       }
                     });
      break;
    }
  }
  // One row of an executed result changed in its first numeric or string
  // cell (an integer by one, a Decimal by 0.01, a double doubled plus one,
  // which CanonicalRows' rounding cannot hide), against the result as it ran.
  for (const ExecutedQuery& q : executed_) {
    if (q.rows.empty()) continue;
    std::vector<qpp::Tuple> rows = q.rows;
    bool changed = false;
    for (qpp::Value& cell : rows[0]) {
      switch (cell.type()) {
        case qpp::TypeId::kInt64:
          cell = qpp::Value::Int64(cell.int64_value() + 1);
          break;
        case qpp::TypeId::kDouble:
          cell = qpp::Value::MakeDouble(cell.double_value() * 2.0 + 1.0);
          break;
        case qpp::TypeId::kDecimal:
          cell = qpp::Value::MakeDecimal(cell.decimal_value().Add(qpp::Decimal(1, 2)));
          break;
        case qpp::TypeId::kString:
          cell = qpp::Value::String(cell.string_value() + "#");
          break;
        default:
          continue;
      }
      changed = true;
      break;
    }
    if (!changed) continue;
    expect_failure("replan_same_rows", [&](CheckLog* log) {
      CheckSameRows(q.rows, rows, "tampered result", log);
    });
    break;
  }
  // One TCP reply with the lowest bit of its prediction flipped.
  if (probe_reply_) {
    qpp::net::ClientReply reply = probe_reply_->second;
    reply.predicted_ms = std::bit_cast<double>(
        std::bit_cast<uint64_t>(reply.predicted_ms) ^ uint64_t{1});
    expect_failure("tcp_matches_in_process", [&](CheckLog* log) {
      VerifyReply(record_pool_[probe_reply_->first], reply, log);
    });
  }
  // A hybrid error one ULP above the operator-level one.
  if (spec_.method == qpp::PredictionMethod::kHybrid) {
    expect_failure("hybrid_error_not_worse", [&](CheckLog* log) {
      CheckHybridNotWorse(std::nextafter(operator_level_mre_, INFINITY),
                          operator_level_mre_, log);
    });
  }
}

double Run::LoopQps() const {
  double total_ms = 0.0;
  for (double ms : samples_.loop_ms) total_ms += ms;
  return static_cast<double>(samples_.loop_ms.size()) * 1e3 / total_ms;
}

/// The typical query of the template mix: the geometric mean over templates
/// of each template's median loop time. A median over the mix would land
/// in a cluster of templates whose times move with the seed's parameters;
/// the geometric mean weighs every template alike, and a template twice as
/// fast moves it as much whether the template is cheap or costly.
double Run::QueryMsGmean() const {
  double log_sum = 0.0;
  for (const auto& [t, ms] : samples_.loop_ms_by_template) {
    log_sum += std::log(Quantile(ms, 0.5));
  }
  return std::exp(log_sum / static_cast<double>(samples_.loop_ms_by_template.size()));
}

void Run::PrintResult() {
  auto fmt = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  if (!opt_.trace) {
    metrics = {
        {"setup_s", setup_s_, "s"},
        {"train_s", Quantile(samples_.train_s, 0.0), "s"},
        {"loop_qps", LoopQps(), "1/s"},
        {"query_ms_gmean", QueryMsGmean(), "ms"},
        {"predict_us_p50", Quantile(samples_.predict_us, 0.5), "us"},
        {"predict_us_p99", ChunkedQuantile(samples_.predict_us, 0.99, kPredictChunk), "us"},
        {"tcp_us_p50", Quantile(samples_.tcp_us, 0.5), "us"},
        {"tcp_us_p90", ChunkedQuantile(samples_.tcp_us, 0.90, kTcpChunk), "us"},
        {"tcp_qps", TcpQps(), "1/s"},
        {"pred_mre", pred_mre_, "ratio"},
        {"qerr_p95", Quantile(samples_.qerr, 0.95), "ratio"},
        {"peak_rss_mb", peak_rss_mb_, "MB"},
    };
  } else {
    auto single_ms = [&](const char* name) {
      const std::vector<double> d = tracer_.DurationsUs(name);
      return d.empty() ? 0.0 : d.front() / 1e3;
    };
    auto median_us = [&](const char* name) {
      return Quantile(tracer_.DurationsUs(name), 0.5);
    };
    const double executed = std::max<double>(1.0, static_cast<double>(samples_.executed));
    const double planned = std::max<double>(1.0, static_cast<double>(planned_));
    const qpp::net::ServerStats ss = server_->Stats();
    const std::vector<double> card_us = tracer_.DurationsUs("card.harvest");
    double unattributed = 0.0, wall = 0.0;
    for (const auto& [kind, row] : tracer_.SelfTimeTable()) {
      if (kind == "setup") continue;
      wall += row.wall_us;
      auto it = row.layer_us.find("unattributed");
      if (it != row.layer_us.end()) unattributed += it->second;
    }
    metrics = {
        {"tpch.generate_ms", single_ms("tpch.generate"), "ms"},
        {"catalog.analyze_ms", single_ms("catalog.analyze"), "ms"},
        {"kde.build_ms", single_ms("kde.build"), "ms"},
        {"workload.log_load_ms", single_ms("workload.log_load"), "ms"},
        {"qpp.train_ms", median_us("qpp.train") / 1e3, "ms"},
        {"qpp.plan_models", static_cast<double>(plan_models_), "count"},
        {"optimizer.plan_us",
         Quantile(tracer_.PerOpSumUs("loop", "optimizer.plan"), 0.5), "us"},
        {"optimizer.estimator_us",
         Quantile(tracer_.PerOpSumUs("loop", "optimizer.estimator"), 0.5), "us"},
        {"optimizer.estimator_calls", static_cast<double>(counting_->calls()) / planned, "count"},
        {"optimizer.estimator_answered", static_cast<double>(counting_->answered()) / planned, "count"},
        {"exec.execute_ms", median_us("exec.execute") / 1e3, "ms"},
        {"exec.rows", samples_.exec_rows / executed, "count"},
        {"storage.pool_hits", samples_.pool_hits / executed, "count"},
        {"storage.pool_misses", samples_.pool_misses / executed, "count"},
        {"workload.featurize_us", median_us("workload.featurize"), "us"},
        {"card.harvest_us_p50", Quantile(card_us, 0.5), "us"},
        {"card.harvest_us_p99", Quantile(card_us, 0.99), "us"},
        {"card.snapshots", static_cast<double>(card_loop_.snapshots_published()), "count"},
        {"card.cache_entries", static_cast<double>(card_loop_.cache()->size()), "count"},
        {"kde.harvest_us", median_us("kde.harvest"), "us"},
        {"kde.bandwidth_updates", static_cast<double>(kde_loop_.bandwidth_updates()), "count"},
        {"serve.observe_us", median_us("serve.observe"), "us"},
        {"serve.retrains",
         feedback_ ? static_cast<double>(feedback_->retrains_published()) : 0.0, "count"},
        {"qpp.predict_us", median_us("qpp.predict"), "us"},
        {"serve.predict_us", median_us("serve.predict"), "us"},
        {"workload.encode_text_us", median_us("workload.encode_text"), "us"},
        {"workload.encode_binary_us", median_us("workload.encode_binary"), "us"},
        {"workload.decode_text_us", median_us("workload.decode_text"), "us"},
        {"workload.decode_binary_us", median_us("workload.decode_binary"), "us"},
        {"net.server_p50_us", ss.p50_latency_us, "us"},
        {"net.batches", static_cast<double>(ss.batches_dispatched), "count"},
        {"net.requests_per_batch",
         ss.batches_dispatched == 0
             ? 0.0
             : static_cast<double>(ss.requests_received) /
                   static_cast<double>(ss.batches_dispatched),
         "count"},
        {"trace.unattributed_share", wall > 0.0 ? unattributed / wall : 0.0, "ratio"},
    };
  }
  std::string json = "{\"correct\": ";
  json += checks_.ok() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(samples_.attempted);
  json += ", \"failed\": " + std::to_string(samples_.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            fmt(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Per-check run and failure counts, read by compare.py's smoke mode.
void Run::WriteCheckSummary() const {
  const std::string path = opt_.out_dir + "/checks-" + spec_.name + "-" +
                           std::to_string(opt_.seed) + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Die("cannot write " + path);
  std::fprintf(f, "{");
  const char* sep = "";
  for (const auto& [name, counts] : checks_.counts()) {
    std::fprintf(f, "%s\"%s\": {\"runs\": %llu, \"failed\": %llu}", sep, name.c_str(),
                 static_cast<unsigned long long>(counts.first),
                 static_cast<unsigned long long>(counts.second));
    sep = ", ";
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
}

void PrintSelfTimeRow(const std::string& kind, const Tracer::SelfTimes& row) {
  std::fprintf(stderr, "self time, op %-15s %7llu ops, wall %12.1f us\n",
               kind.c_str(), static_cast<unsigned long long>(row.ops), row.wall_us);
  std::vector<std::pair<double, std::string>> layers;
  double sum = 0.0;
  for (const auto& [layer, us] : row.layer_us) {
    layers.emplace_back(us, layer);
    sum += us;
  }
  std::sort(layers.rbegin(), layers.rend());
  for (const auto& [us, layer] : layers) {
    std::fprintf(stderr, "    %-26s %14.1f us  %6.2f%%\n", layer.c_str(), us,
                 row.wall_us > 0.0 ? 100.0 * us / row.wall_us : 0.0);
  }
  std::fprintf(stderr, "    %-26s %14.1f us  (wall %.1f, max per-op residual %.3g us)\n",
               "sum of self times", sum, row.wall_us, row.max_residual_us);
}

/// One row per operation kind, then one over the workload's own operations
/// (every kind but the set-up and the train timings), which shows the
/// layers that dominate the workload.
void PrintSelfTimeTable(const Tracer& tracer) {
  Tracer::SelfTimes all;
  for (const auto& [kind, row] : tracer.SelfTimeTable()) {
    PrintSelfTimeRow(kind, row);
    if (kind == "setup" || kind == "train") continue;
    all.ops += row.ops;
    all.wall_us += row.wall_us;
    all.max_residual_us = std::max(all.max_residual_us, row.max_residual_us);
    for (const auto& [layer, us] : row.layer_us) all.layer_us[layer] += us;
  }
  PrintSelfTimeRow("(workload)", all);
}

int Run::Execute() {
  Setup();
  counting_->ResetCounts();
  const Clock::time_point measure_start = Clock::now();
  setup_s_ = ElapsedUs(kProcessStart, measure_start) / 1e6;

  qpp::Rng master(opt_.seed);
  std::map<int, qpp::Rng> template_rngs;
  for (int t : spec_.exec_templates) template_rngs.emplace(t, master.Fork());
  const int slices = static_cast<int>(spec_.exec_templates.size());
  double train_spent_s = 0.0;
  // Rounds are whole, so the window ends within half a round of --seconds:
  // the next round starts only if it is expected to end less than half a
  // round late.
  for (int round = 0;; ++round) {
    const Clock::time_point round_start = Clock::now();
    for (int i = 0; i < slices; ++i) {
      const int t = spec_.exec_templates[static_cast<size_t>(i)];
      LoopOne(t, &template_rngs.at(t), round);
      ServeSlice(record_pool_, i, slices);
      // At most one timing per step, so the timings spread over the window.
      if (train_spent_s < kTrainShare * ElapsedUs(measure_start, Clock::now()) / 1e6) {
        const Clock::time_point t = Clock::now();
        TimeTrain();
        train_spent_s += ElapsedUs(t, Clock::now()) / 1e6;
      }
    }
    const Clock::time_point now = Clock::now();
    if (round + 1 >= kQerrRounds &&
        ElapsedUs(measure_start, now) + ElapsedUs(round_start, now) / 2 >=
            opt_.seconds * 1e6) {
      break;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  peak_rss_mb_ = static_cast<double>(ru.ru_maxrss) / 1024.0;
  const double measured_s = ElapsedUs(measure_start, Clock::now()) / 1e6;

  v1_client_.Close();
  v2_client_.Close();
  server_->Shutdown();
  if (feedback_) feedback_->WaitForRetrain();

  CheckDbgenCardinalities(*db_, spec_.scale_factor, &checks_);
  DeferredChecks();
  if (opt_.selftest) SelfTest();

  for (const auto& [name, counts] : checks_.counts()) {
    std::fprintf(stderr, "check %-28s runs %6llu failed %llu\n", name.c_str(),
                 static_cast<unsigned long long>(counts.first),
                 static_cast<unsigned long long>(counts.second));
  }
  for (const std::string& m : checks_.messages()) {
    std::fprintf(stderr, "CHECK FAILED %s\n", m.c_str());
  }
  WriteCheckSummary();
  if (spec_.method == qpp::PredictionMethod::kHybrid) {
    std::fprintf(stderr, "training-split MRE: hybrid %.6g, operator-level %.6g\n",
                 hybrid_mre_, operator_level_mre_);
  }
  int64_t pages = 0;
  for (const qpp::Table* t : db_->tables()) pages += t->num_pages();
  std::fprintf(stderr, "tcp v1 round trip us: p50 %.0f p90 %.0f p95 %.0f p99 %.0f max %.0f (%zu)\n",
               Quantile(samples_.tcp_us, 0.5), Quantile(samples_.tcp_us, 0.9),
               Quantile(samples_.tcp_us, 0.95), Quantile(samples_.tcp_us, 0.99),
               Quantile(samples_.tcp_us, 1.0), samples_.tcp_us.size());
  std::fprintf(stderr, "train s: min %.4g p25 %.4g p50 %.4g (%zu timings)\n",
               Quantile(samples_.train_s, 0.0), Quantile(samples_.train_s, 0.25),
               Quantile(samples_.train_s, 0.5), samples_.train_s.size());
  std::fprintf(stderr, "v2 window qps: p10 %.0f p50 %.0f p90 %.0f (%zu windows)\n",
               Quantile(samples_.v2_window_qps, 0.1), Quantile(samples_.v2_window_qps, 0.5),
               Quantile(samples_.v2_window_qps, 0.9), samples_.v2_window_qps.size());
  std::fprintf(stderr,
               "%s seed %llu: %lld pages (pool holds %zu), setup %.2f s, "
               "measured %.2f s, %llu queries executed, retrains %llu, "
               "loop_qps %.4g, tcp_qps %.4g\n",
               spec_.name.c_str(), static_cast<unsigned long long>(opt_.seed),
               static_cast<long long>(pages),
               db_->buffer_pool()->config().capacity_pages, setup_s_, measured_s,
               static_cast<unsigned long long>(samples_.executed),
               static_cast<unsigned long long>(
                   feedback_ ? feedback_->retrains_published() : 0),
               LoopQps(), TcpQps());
  if (opt_.trace) {
    PrintSelfTimeTable(tracer_);
    const std::string path = opt_.out_dir + "/trace-" + spec_.name + "-" +
                             std::to_string(opt_.seed) + ".json";
    if (!tracer_.WriteJson(path)) Die("cannot write " + path);
    std::fprintf(stderr, "spans written to %s\n", path.c_str());
  }
  PrintResult();
  return checks_.ok() ? 0 : 1;
}

}  // namespace
}  // namespace qppbench

int main(int argc, char** argv) {
  using namespace qppbench;
  const Options opt = ParseOptions(argc, argv);
  if (!opt.regen_dir.empty()) return RegenerateLogs(opt.regen_dir);
  for (WorkloadSpec& spec : Workloads()) {
    if (spec.name == opt.workload) {
      // A global ThreadPool without workers (read when the pool is first
      // used, which is after this): Train runs on the client thread and the
      // server's batches run inline on its reactor, so the process runs two
      // threads. With one worker, a process ran all its Trains either at
      // about 0.33 s or at about 0.57 s, and tcp_qps at about 70k or 48k/s,
      // on serve_sf001_predict, which no median over one run can steady.
      // The pool's dispatch paths are therefore not measured.
      setenv("QPP_THREADS", "1", 1);
      Run run(opt, std::move(spec));
      return run.Execute();
    }
  }
  Die("unknown workload '" + opt.workload + "'");
}
