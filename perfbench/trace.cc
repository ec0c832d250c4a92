#include "trace.h"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "algebra/vectorized.h"
#include "authz/authorizer.h"
#include "authz/compiled_mask.h"
#include "calculus/conjunctive_query.h"
#include "common/logging.h"
#include "engine/table_printer.h"
#include "harness.h"
#include "parser/parser.h"
#include "server/frame.h"

namespace perfbench {
namespace {

using viewauth::Authorizer;
using viewauth::AuthzStats;
using viewauth::CompiledMask;
using viewauth::ConjunctiveQuery;
using viewauth::Engine;
using viewauth::EvalStats;
using viewauth::Relation;
using viewauth::RetrieveStmt;
using viewauth::Statement;

// Spans kept in memory and written when the run ends.
class Tracer {
 public:
  int Begin(long long request, const char* name, int parent) {
    spans_.push_back({request, name, parent, Clock::now(), {}});
    return static_cast<int>(spans_.size()) - 1;
  }
  // Closes `span` and returns its duration in microseconds.
  double End(int span) {
    Span& s = spans_[static_cast<size_t>(span)];
    s.end = Clock::now();
    return MicrosBetween(s.start, s.end);
  }
  // One JSON object per line: request id, name, parent (-1 for a root),
  // start and end in microseconds since the first span, and self time
  // (the span minus the time its children cover).
  void Write(const std::string& path) const {
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_us[static_cast<size_t>(s.parent)] += MicrosBetween(s.start, s.end);
      }
    }
    std::ofstream out(path);
    const Clock::time_point origin =
        spans_.empty() ? Clock::now() : spans_.front().start;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double start = MicrosBetween(origin, s.start);
      const double end = MicrosBetween(origin, s.end);
      out << "{\"request\": " << s.request << ", \"span\": " << i
          << ", \"name\": \"" << s.name << "\", \"parent\": " << s.parent
          << ", \"start_us\": " << start << ", \"end_us\": " << end
          << ", \"self_us\": " << (end - start - child_us[i]) << "}\n";
    }
  }

 private:
  struct Span {
    long long request;
    const char* name;
    int parent;
    Clock::time_point start;
    Clock::time_point end;
  };
  std::vector<Span> spans_;
};

// The cache outcome of one call, from authz_stats() deltas: did it
// derive a mask (miss) and did it compile one.
struct Outcome {
  bool mask_miss = false;
  bool compiled = false;
  bool operator==(const Outcome&) const = default;
};

Outcome OutcomeOf(const AuthzStats& before, const AuthzStats& after) {
  return {after.mask_misses > before.mask_misses,
          after.mask_compiles > before.mask_compiles};
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

Statement ParseOrDie(const std::string& text) {
  auto parsed = viewauth::ParseStatement(text);
  VIEWAUTH_CHECK(parsed.ok()) << text << ": " << parsed.status().ToString();
  return std::move(*parsed);
}

class TracedRun {
 public:
  TracedRun(const WorkloadSpec& spec, uint64_t seed, int seconds,
            std::string scratch)
      : spec_(spec),
        seed_(seed),
        seconds_(seconds),
        scratch_(std::move(scratch)),
        data_(spec.kind, seed) {}

  int Run();

 private:
  Engine& engine() { return served_->engine(); }
  // Phase C's handling of one request.
  void TraceRetrieve(long long request, const Op& op, const Outcome& real,
                     const std::string& reply, double round_trip_us);
  void TraceMutation(long long request, const Op& op);
  void Keep(const char* name, double value) { samples_[name].push_back(value); }
  double Median(const char* name) {
    auto it = samples_.find(name);
    return it == samples_.end() ? 0.0 : Quantile(it->second, 0.5);
  }
  size_t Count(const char* name) {
    auto it = samples_.find(name);
    return it == samples_.end() ? 0 : it->second.size();
  }
  void Check(const Outcome& expected, const Outcome& seen) {
    ++agreement_checks_;
    if (expected == seen) ++agreements_;
  }
  // mixed_write: applies acknowledged mutations to the in-memory twin.
  void MirrorToTwin(const std::vector<SessionLog>& logs);

  const WorkloadSpec& spec_;
  uint64_t seed_;
  int seconds_;
  std::string scratch_;
  Dataset data_;
  std::unique_ptr<Served> served_;
  // mixed_write: an in-memory Engine with the same data and grants, the
  // baseline durable.log_*_us subtracts.
  std::unique_ptr<Engine> twin_;
  std::vector<OpStream> streams_;
  Tracer tracer_;
  std::map<std::string, std::vector<double>> samples_;
  long long agreement_checks_ = 0;
  long long agreements_ = 0;
  // Stage-timer cross-check: the engine's own AuthzStats stage sums over
  // the decomposed Authorizer::Retrieve calls, beside the outside
  // timings of the same stages.
  long long engine_mask_us_ = 0;
  long long engine_data_us_ = 0;
  long long engine_apply_us_ = 0;
  long long staged_retrieves_ = 0;
  double outside_mask_us_ = 0;
  double outside_data_us_ = 0;
  double outside_apply_us_ = 0;
  // Layer counts (bases printed beside each ratio).
  long long raw_rows_ = 0;
  long long delivered_rows_ = 0;
  long long rows_scanned_ = 0;
  long long batches_ = 0;
  long long reply_bytes_ = 0;
  long long traced_retrieves_ = 0;
};

void TracedRun::MirrorToTwin(const std::vector<SessionLog>& logs) {
  if (twin_ == nullptr) return;
  for (const SessionLog& log : logs) {
    for (const Op& op : log.mutations) {
      auto mirrored = twin_->Execute(op.text);
      VIEWAUTH_CHECK(mirrored.ok()) << mirrored.status().ToString();
    }
  }
}

void TracedRun::TraceRetrieve(long long request, const Op& op,
                              const Outcome& real, const std::string& reply,
                              double round_trip_us) {
  // A request that derived its mask is replayed with fresh constants, so
  // that each replay derives too instead of hitting what the real request
  // just cached. A warm request is replayed as it is.
  auto replay = [&]() {
    return real.mask_miss ? streams_[0].FreshVariant(op) : op;
  };
  const std::string user = Dataset::UserName(op.user);

  // Engine::Execute: ParseStatement + Engine::ExecuteParsed, the path the
  // server runs for a request.
  const Op engine_op = replay();
  AuthzStats before = engine().authz_stats();
  int span = tracer_.Begin(request, "engine.execute", -1);
  auto executed = engine().Execute(engine_op.text);
  const double engine_us = tracer_.End(span);
  VIEWAUTH_CHECK(executed.ok()) << executed.status().ToString();
  Check(real, OutcomeOf(before, engine().authz_stats()));

  // The decomposed request: each layer's public entry point in turn.
  const Op layer_op = replay();
  const int root = tracer_.Begin(request, "decomposed", -1);
  span = tracer_.Begin(request, "parser.parse", root);
  const Statement stmt = ParseOrDie(layer_op.text);
  const double parse_us = tracer_.End(span);
  const auto& retrieve = std::get<RetrieveStmt>(stmt);
  span = tracer_.Begin(request, "calculus.query", root);
  auto query = ConjunctiveQuery::FromRetrieve(engine().db().schema(), retrieve);
  const double query_us = tracer_.End(span);
  VIEWAUTH_CHECK(query.ok()) << query.status().ToString();
  const Authorizer authorizer(&engine().db(), &engine().catalog(),
                              &engine().authz_cache());
  const viewauth::AuthorizationOptions& options = engine().options();
  before = engine().authz_stats();
  span = tracer_.Begin(request, "authz.retrieve", root);
  viewauth::ExecContext ctx(viewauth::ExecLimitsOf(options));
  auto result = authorizer.Retrieve(user, *query, options, &ctx);
  const double retrieve_us = tracer_.End(span);
  VIEWAUTH_CHECK(result.ok()) << result.status().ToString();
  const AuthzStats after = engine().authz_stats();
  Check(real, OutcomeOf(before, after));
  engine_mask_us_ += after.mask_derivation_micros - before.mask_derivation_micros;
  engine_data_us_ += after.data_eval_micros - before.data_eval_micros;
  engine_apply_us_ += after.mask_apply_micros - before.mask_apply_micros;
  ++staged_retrieves_;
  double render_us = 0;
  if (!result->denied) {
    viewauth::TablePrintOptions print;
    print.caption = "result for " + user + ":";
    span = tracer_.Begin(request, "engine.render", root);
    const std::string table = viewauth::PrintRelation(result->answer, print);
    render_us = tracer_.End(span);
    VIEWAUTH_CHECK(!table.empty());
  }
  span = tracer_.Begin(request, "server.codec", root);
  const std::string payload =
      viewauth::EncodeReply({static_cast<uint64_t>(request), 0, reply});
  const std::string frame =
      viewauth::EncodeFrame(viewauth::FrameType::kReply, payload);
  auto decoded = viewauth::DecodeReply(payload);
  const double codec_us = tracer_.End(span);
  VIEWAUTH_CHECK(decoded.ok() && decoded->text == reply);
  tracer_.End(root);

  // The authorizer's stages, called one by one on a third replay: S'
  // (with its per-atom meta preparation), S, compile, apply, describe.
  const Op stage_op = replay();
  const Statement stage_stmt = ParseOrDie(stage_op.text);
  auto stage_query = ConjunctiveQuery::FromRetrieve(
      engine().db().schema(), std::get<RetrieveStmt>(stage_stmt));
  VIEWAUTH_CHECK(stage_query.ok()) << stage_query.status().ToString();
  const int stages = tracer_.Begin(request, "authz.stages", -1);
  if (real.mask_miss) {
    span = tracer_.Begin(request, "meta.prepare", stages);
    for (int atom = 0; atom < static_cast<int>(stage_query->atoms().size());
         ++atom) {
      auto prepared =
          authorizer.PrunedMetaRelation(user, *stage_query, atom, options);
      VIEWAUTH_CHECK(prepared.ok()) << prepared.status().ToString();
    }
    Keep("meta.prepare_us", tracer_.End(span));
  }
  before = engine().authz_stats();
  span = tracer_.Begin(request, "authz.mask", stages);
  auto mask = authorizer.DeriveMask(user, *stage_query, options);
  const double mask_us = tracer_.End(span);
  VIEWAUTH_CHECK(mask.ok()) << mask.status().ToString();
  // DeriveMask never compiles; only its mask outcome can agree.
  Check({real.mask_miss, false},
        {OutcomeOf(before, engine().authz_stats()).mask_miss, false});
  EvalStats eval;
  span = tracer_.Begin(request, "algebra.data", stages);
  auto raw = viewauth::EvaluateVectorized(*stage_query, engine().db(), "ANSWER",
                                          &eval);
  const double data_us = tracer_.End(span);
  VIEWAUTH_CHECK(raw.ok()) << raw.status().ToString();
  double compile_us = 0;
  double apply_us = 0;
  double describe_us = 0;
  long long delivered = raw->size();
  // The engine skips compile, apply and describe for a denied or
  // fully granted request; so does the breakdown.
  if (!result->denied && !result->full_access) {
    span = tracer_.Begin(request, "authz.compile", stages);
    const CompiledMask compiled = CompiledMask::Compile(*mask);
    compile_us = tracer_.End(span);
    span = tracer_.Begin(request, "authz.apply", stages);
    const Relation answer = Authorizer::ApplyMaskVectorized(
        *raw, compiled, options.drop_fully_masked_rows, nullptr, &eval);
    apply_us = tracer_.End(span);
    delivered = answer.size();
    span = tracer_.Begin(request, "authz.describe", stages);
    const auto permits = authorizer.DescribeMask(*mask);
    describe_us = tracer_.End(span);
    Keep("authz.apply_us", apply_us);
    Keep("authz.describe_us", describe_us);
    if (real.compiled) Keep("authz.compile_us", compile_us);
  }
  tracer_.End(stages);

  // The compile is part of the real request only when it missed the
  // compiled-mask cache.
  const double parts_us =
      mask_us + data_us + (real.compiled ? compile_us : 0) + apply_us +
      describe_us;
  Keep("parser.parse_us", parse_us);
  Keep("calculus.query_us", query_us);
  Keep("authz.retrieve_us", retrieve_us);
  Keep("authz.unattributed_us", retrieve_us - parts_us);
  Keep("authz.mask_us", mask_us);
  Keep("algebra.data_us", data_us);
  Keep("engine.execute_us", engine_us);
  Keep("engine.unattributed_us",
       engine_us - (parse_us + query_us + retrieve_us + render_us));
  if (!result->denied) Keep("engine.render_us", render_us);
  Keep("server.overhead_us", round_trip_us - engine_us);
  Keep("server.codec_us", codec_us);
  outside_mask_us_ += mask_us;
  outside_data_us_ += data_us;
  outside_apply_us_ += (real.compiled ? compile_us : 0) + apply_us + describe_us;
  raw_rows_ += raw->size();
  delivered_rows_ += delivered;
  rows_scanned_ += eval.rows_scanned;
  batches_ += eval.batches_evaluated;
  reply_bytes_ += static_cast<long long>(frame.size());
  ++traced_retrieves_;
}

void TracedRun::TraceMutation(long long request, const Op& op) {
  viewauth::DurableEngine& durable = *served_->durable;
  auto mirrored = twin_->Execute(op.text);
  VIEWAUTH_CHECK(mirrored.ok()) << mirrored.status().ToString();
  if (op.kind == OpKind::kGrant) {
    // Undo and redo the toggle: the same mutation kind on the same state,
    // durable and in memory, leaving both where the real request left
    // them.
    const Op inverse = OpStream::Inverse(op);
    int span = tracer_.Begin(request, "durable.execute_grant", -1);
    auto durable_out = durable.Execute(inverse.text);
    const double durable_us = tracer_.End(span);
    span = tracer_.Begin(request, "twin.execute_grant", -1);
    auto twin_out = twin_->Execute(inverse.text);
    const double twin_us = tracer_.End(span);
    VIEWAUTH_CHECK(durable_out.ok() && twin_out.ok());
    VIEWAUTH_CHECK(durable.Execute(op.text).ok() && twin_->Execute(op.text).ok());
    Keep("durable.execute_grant_us", durable_us);
    Keep("durable.log_grant_us", durable_us - twin_us);
    return;
  }
  // Another new key, inserted durably and into the twin.
  const std::string insert = "insert into K values (" +
                             std::to_string(op.key + 500'000) + ", 1, 2)";
  int span = tracer_.Begin(request, "durable.execute_insert", -1);
  auto durable_out = durable.Execute(insert);
  const double durable_us = tracer_.End(span);
  span = tracer_.Begin(request, "twin.execute_insert", -1);
  auto twin_out = twin_->Execute(insert);
  const double twin_us = tracer_.End(span);
  VIEWAUTH_CHECK(durable_out.ok() && twin_out.ok());
  Keep("durable.execute_insert_us", durable_us);
  Keep("durable.log_insert_us", durable_us - twin_us);

  // The copy-on-write cost of the written relation and the keyed insert
  // into the copy.
  auto rel = std::as_const(engine().db()).GetRelation("K");
  VIEWAUTH_CHECK(rel.ok()) << rel.status().ToString();
  {
    span = tracer_.Begin(request, "storage.clone", -1);
    Relation copy(**rel);
    Keep("storage.clone_us", tracer_.End(span));
    span = tracer_.Begin(request, "storage.insert", -1);
    viewauth::Status inserted = copy.Insert(viewauth::Tuple(
        {viewauth::Value::Int64(op.key + 700'000), viewauth::Value::Int64(1),
         viewauth::Value::Int64(2)}));
    Keep("storage.insert_us", tracer_.End(span));
    VIEWAUTH_CHECK(inserted.ok()) << inserted.ToString();
  }
  // The first S after the write rebuilds the lazy key index.
  const auto& [user, key] = data_.hot_set().front();
  const Statement stmt = ParseOrDie(data_.PointRetrieve(user, key));
  auto query = ConjunctiveQuery::FromRetrieve(engine().db().schema(),
                                              std::get<RetrieveStmt>(stmt));
  VIEWAUTH_CHECK(query.ok()) << query.status().ToString();
  span = tracer_.Begin(request, "algebra.data_after_write", -1);
  auto answer = viewauth::EvaluateVectorized(*query, engine().db());
  Keep("algebra.data_after_write_us", tracer_.End(span));
  VIEWAUTH_CHECK(answer.ok()) << answer.status().ToString();
}

int TracedRun::Run() {
  const std::string log_path = scratch_ + "/" + spec_.name + ".log";
  served_ = SetUp(data_, log_path, spec_.sessions);
  if (spec_.kind == WorkloadKind::kMixedWrite) {
    twin_ = std::make_unique<Engine>();
    VIEWAUTH_CHECK(twin_->ExecuteScript(data_.CatalogScript()).ok());
    data_.LoadRows(*twin_);
    for (const std::string& statement : data_.WarmupStatements()) {
      VIEWAUTH_CHECK(twin_->Execute(statement).ok());
    }
  }
  streams_.reserve(static_cast<size_t>(spec_.sessions));
  std::vector<OpStream*> all;
  for (int s = 0; s < spec_.sessions; ++s) {
    streams_.emplace_back(data_, seed_, s);
    all.push_back(&streams_.back());
  }
  long long attempted = 0;
  long long failed = 0;
  auto tally = [&](const std::vector<SessionLog>& logs) {
    for (const SessionLog& log : logs) {
      attempted += log.ops;
      failed += log.failed;
      if (!log.first_error.empty()) {
        std::cerr << "failed request: " << log.first_error << "\n";
      }
    }
  };

  // Phase A: the workload as measured, untraced — counters and ratios.
  const AuthzStats a0 = engine().authz_stats();
  const long long audit0 = engine().audit_log().size();
  const double rss0 = ProcStatusMb("VmRSS");
  viewauth::DurableStats d0;
  if (served_->durable != nullptr) d0 = served_->durable->stats();
  double wall_s = 0;
  std::vector<SessionLog> phase_a =
      RunSessions(*served_, all, 0.4 * seconds_, 0, 0, &wall_s);
  // Quiesced: the audit log and the counters are safe to read.
  const AuthzStats a1 = engine().authz_stats();
  const long long audit1 = engine().audit_log().size();
  const double rss1 = ProcStatusMb("VmRSS");
  viewauth::DurableStats d1;
  if (served_->durable != nullptr) d1 = served_->durable->stats();
  tally(phase_a);
  MirrorToTwin(phase_a);
  std::vector<double> write_us;
  std::vector<double> retrieve_us;
  long long retrieves = 0;
  long long phase_a_requests = 0;
  long long mutations = 0;
  long long grants = 0;
  for (const SessionLog& log : phase_a) {
    write_us.insert(write_us.end(), log.write_us.begin(), log.write_us.end());
    retrieve_us.insert(retrieve_us.end(), log.retrieve_us.begin(),
                       log.retrieve_us.end());
    retrieves += static_cast<long long>(log.retrieve_us.size());
    phase_a_requests += log.ops - log.failed;
    mutations += static_cast<long long>(log.mutations.size());
    for (const Op& op : log.mutations) grants += op.kind == OpKind::kGrant;
  }

  // Phase B: one session, untraced — the tracing-overhead baseline.
  std::vector<SessionLog> phase_b =
      RunSessions(*served_, {&streams_[0]}, 0.2 * seconds_, 0, 0, &wall_s);
  tally(phase_b);
  MirrorToTwin(phase_b);
  const double untraced_rt_us = Quantile(phase_b[0].retrieve_us, 0.5);

  // Phase C: one session, every request traced and decomposed.
  viewauth::Client& client = *served_->clients[0];
  std::vector<double> traced_rt_us;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(0.4 * seconds_));
  for (long long request = 1; Clock::now() < deadline; ++request) {
    const Op op = streams_[0].Next();
    const AuthzStats before = engine().authz_stats();
    const int span = tracer_.Begin(request, "client.execute", -1);
    auto reply = client.Execute(op.text);
    const double round_trip_us = tracer_.End(span);
    ++attempted;
    if (!reply.ok()) {
      ++failed;
      std::cerr << "failed request: " << op.text << ": "
                << reply.status().ToString() << "\n";
      continue;
    }
    if (op.kind == OpKind::kRetrieve) {
      traced_rt_us.push_back(round_trip_us);
      TraceRetrieve(request, op, OutcomeOf(before, engine().authz_stats()),
                    *reply, round_trip_us);
    } else {
      TraceMutation(request, op);
    }
  }
  served_->StopServing();
  const viewauth::ServerStats server = served_->server->stats();
  const AuthzStats end = engine().authz_stats();
  const long long snapshots_live = engine().snapshots_live();
  tracer_.Write(scratch_ + "/spans.jsonl");

  Report report;
  auto timing = [&](const char* name) {
    report.Metric(name, Median(name), "us",
                  "median of " + std::to_string(Count(name)) + " traced calls");
  };
  // point_hot: the fixed per-request cost.
  for (const char* name :
       {"parser.parse_us", "calculus.query_us", "authz.retrieve_us",
        "authz.unattributed_us", "authz.describe_us", "engine.execute_us",
        "engine.unattributed_us", "server.overhead_us", "server.codec_us"}) {
    timing(name);
  }
  report.Metric("engine.audit_entries_per_request",
                Ratio(static_cast<double>(audit1 - audit0),
                      static_cast<double>(retrieves)),
                "count",
                "base: " + std::to_string(retrieves) + " retrieves in phase A");
  report.Metric("engine.rss_growth_kb_per_1k_requests",
                Ratio((rss1 - rss0) * 1024.0 * 1000.0,
                      static_cast<double>(phase_a_requests)),
                "KiB",
                "base: " + std::to_string(phase_a_requests) +
                    " requests in phase A");
  // join_cold: S'.
  for (const char* name : {"authz.mask_us", "meta.prepare_us", "authz.compile_us"}) {
    timing(name);
  }
  const long long mask_lookups =
      (a1.mask_hits - a0.mask_hits) + (a1.mask_misses - a0.mask_misses);
  const long long prepared_lookups = (a1.prepared_hits - a0.prepared_hits) +
                                     (a1.prepared_misses - a0.prepared_misses);
  const long long derivations = a1.mask_misses - a0.mask_misses;
  report.Metric("authz.mask_hit_ratio",
                Ratio(static_cast<double>(a1.mask_hits - a0.mask_hits),
                      static_cast<double>(mask_lookups)),
                "ratio", "base: " + std::to_string(mask_lookups) + " mask lookups");
  report.Metric("authz.prepared_hit_ratio",
                Ratio(static_cast<double>(a1.prepared_hits - a0.prepared_hits),
                      static_cast<double>(prepared_lookups)),
                "ratio",
                "base: " + std::to_string(prepared_lookups) + " prepared lookups");
  report.Metric("meta.tuples_pruned_per_derivation",
                Ratio(static_cast<double>(a1.meta_tuples_pruned -
                                          a0.meta_tuples_pruned),
                      static_cast<double>(derivations)),
                "count", "base: " + std::to_string(derivations) + " derivations");
  // scan_large: S, mask application, rendering, the reply.
  for (const char* name : {"algebra.data_us", "authz.apply_us", "engine.render_us"}) {
    timing(name);
  }
  const std::string per_traced =
      "base: " + std::to_string(traced_retrieves_) + " traced retrieves";
  report.Metric("server.reply_bytes_per_request",
                Ratio(static_cast<double>(reply_bytes_),
                      static_cast<double>(traced_retrieves_)),
                "bytes", per_traced);
  report.Metric("algebra.rows_scanned_per_row",
                Ratio(static_cast<double>(rows_scanned_),
                      static_cast<double>(raw_rows_)),
                "count", "base: " + std::to_string(raw_rows_) + " answer rows");
  report.Metric("algebra.batches_per_request",
                Ratio(static_cast<double>(batches_),
                      static_cast<double>(traced_retrieves_)),
                "count", per_traced);
  report.Metric("authz.delivered_row_ratio",
                Ratio(static_cast<double>(delivered_rows_),
                      static_cast<double>(raw_rows_)),
                "ratio", "base: " + std::to_string(raw_rows_) + " answer rows");
  // mixed_write: the write path.
  for (const char* name :
       {"durable.execute_insert_us", "durable.execute_grant_us",
        "durable.log_insert_us", "durable.log_grant_us", "storage.clone_us",
        "storage.insert_us", "algebra.data_after_write_us"}) {
    timing(name);
  }
  const std::string per_mutation =
      "base: " + std::to_string(mutations) + " mutations in phase A";
  report.Metric("durable.records_per_batch",
                Ratio(static_cast<double>(d1.batched_records - d0.batched_records),
                      static_cast<double>(d1.commit_batches - d0.commit_batches)),
                "count",
                "base: " + std::to_string(d1.commit_batches - d0.commit_batches) +
                    " batches");
  report.Metric("durable.fsyncs_per_mutation",
                Ratio(static_cast<double>(d1.commit_batches - d0.commit_batches),
                      static_cast<double>(mutations)),
                "count", per_mutation);
  report.Metric("durable.log_bytes_per_mutation",
                Ratio(static_cast<double>(d1.append_bytes - d0.append_bytes),
                      static_cast<double>(mutations)),
                "bytes", per_mutation);
  const std::string per_grant =
      "base: " + std::to_string(grants) + " grant toggles in phase A";
  report.Metric("authz.entries_invalidated_per_grant",
                Ratio(static_cast<double>(a1.entries_invalidated -
                                          a0.entries_invalidated),
                      static_cast<double>(grants)),
                "count", per_grant);
  report.Metric("authz.entries_retained_per_grant",
                Ratio(static_cast<double>(a1.entries_retained - a0.entries_retained),
                      static_cast<double>(grants)),
                "count", per_grant);
  report.Metric("retrieve_p99_us",
                Quantile(retrieve_us, TailLevel(retrieve_us.size())), "us",
                "n=" + std::to_string(retrieve_us.size()) +
                    " in phase A, quantile " +
                    std::to_string(TailLevel(retrieve_us.size())));
  report.Metric("write_p50_us", Quantile(write_us, 0.5), "us",
                "n=" + std::to_string(write_us.size()) + " in phase A");
  report.Metric("write_p99_us", Quantile(write_us, TailLevel(write_us.size())),
                "us",
                "n=" + std::to_string(write_us.size()) + ", quantile " +
                    std::to_string(TailLevel(write_us.size())));
  // Health: these stay at their seed values.
  report.Metric("server.protocol_errors", static_cast<double>(server.protocol_errors),
                "count");
  report.Metric("server.requests_error", static_cast<double>(server.requests_error),
                "count");
  report.Metric("engine.admission_shed", static_cast<double>(end.shed), "count");
  report.Metric("engine.admission_queued", static_cast<double>(end.queued),
                "count");
  report.Metric("engine.snapshots_live_end", static_cast<double>(snapshots_live),
                "count");
  report.Metric("failed_frac",
                Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
                "ratio",
                std::to_string(failed) + " of " + std::to_string(attempted));
  // Stage-timer cross-check: the engine's own stage sums per decomposed
  // retrieve, beside the outside timings of the same stages (printed).
  const double n = static_cast<double>(std::max<long long>(staged_retrieves_, 1));
  report.Metric("authz.engine_mask_us",
                static_cast<double>(engine_mask_us_) / n, "us",
                "outside: " + std::to_string(outside_mask_us_ / n) + " us");
  report.Metric("authz.engine_data_us",
                static_cast<double>(engine_data_us_) / n, "us",
                "outside: " + std::to_string(outside_data_us_ / n) + " us");
  report.Metric("authz.engine_apply_us",
                static_cast<double>(engine_apply_us_) / n, "us",
                "outside (compile when compiled + apply + describe): " +
                    std::to_string(outside_apply_us_ / n) + " us");
  for (const auto& [stage, engine_sum, outside] :
       {std::tuple{"mask", engine_mask_us_, outside_mask_us_},
        std::tuple{"data", engine_data_us_, outside_data_us_},
        std::tuple{"apply", engine_apply_us_, outside_apply_us_}}) {
    if (outside > 0 && static_cast<double>(engine_sum) < 0.5 * outside) {
      report.Note(std::string("stage-timer discrepancy: the engine's ") + stage +
                  " timer records under half of the outside timing of the "
                  "same calls");
    }
  }
  report.Metric("trace.overhead_us",
                Quantile(traced_rt_us, 0.5) - untraced_rt_us, "us",
                "traced median round trip minus untraced, n=" +
                    std::to_string(traced_rt_us.size()) + " / " +
                    std::to_string(phase_b[0].retrieve_us.size()));
  report.Metric("trace.cache_agreement",
                Ratio(static_cast<double>(agreements_),
                      static_cast<double>(agreement_checks_)),
                "ratio",
                "decomposed calls with the real request's cache outcome, of " +
                    std::to_string(agreement_checks_));
  report.Print(failed == 0, attempted, failed);
  return 0;
}

}  // namespace

int RunTraced(const WorkloadSpec& spec, uint64_t seed, int seconds,
              const std::string& scratch) {
  TracedRun run(spec, seed, seconds, scratch);
  return run.Run();
}

}  // namespace perfbench
