#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "serve/serve_metrics.h"
#include "twig/twig.h"
#include "util/json.h"
#include "util/timer.h"
#include "xpath/xpath.h"

namespace treelattice {
namespace serve {

namespace {

/// Labels a worker's dictionary may hold past its snapshot's before the
/// worker copies the snapshot's afresh (DESIGN.md §9).
constexpr size_t kMaxUnknownLabels = 4096;

std::string_view Trimmed(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' ||
                        s.front() == '\r' || s.front() == '\n')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r' || s.back() == '\n')) {
    s.remove_suffix(1);
  }
  return s;
}

/// Writes one response as a JSON object value.
void WriteResponse(const ServeResponse& response, JsonWriter* w) {
  w->BeginObject();
  // "id" stays first: line-oriented consumers (smoke tests, shell greps)
  // key on the '{"id":' prefix.
  w->Key("id").Uint(response.id);
  w->Key("req").Uint(response.req);
  w->Key("query").String(response.query);
  w->Key("ok").Bool(response.ok);
  if (response.ok) {
    w->Key("estimate").Double(response.estimate);
    w->Key("rung").String(response.rung);
    w->Key("degraded").Bool(response.degraded);
    w->Key("cached").Bool(response.cached);
  } else {
    w->Key("error").BeginObject();
    w->Key("code").String(response.error_code);
    w->Key("message").String(response.error_message);
    w->EndObject();
  }
  w->Key("wall_micros").Double(response.wall_micros);
  w->Key("snapshot_version").Int(response.snapshot_version);
  w->EndObject();
}

}  // namespace

std::string ServeResponse::ToJsonLine() const {
  JsonWriter w;
  WriteResponse(*this, &w);
  return w.TakeString();
}

namespace {

/// Reads a field holding a non-negative integer. A plain integer literal
/// reads exactly. A fraction or exponent form must be exactly an integer
/// (ParseJson checks its digits) of at most `max_in_form`, and reads
/// through its double. Anything else is refused with `error`.
Result<uint64_t> ReadUintField(const JsonValue& value, double max_in_form,
                               const char* error) {
  if (value.has_uint) return value.uint_value;
  if (!value.is_number() || !value.integral ||
      !(value.number_value <= max_in_form)) {
    return Status::InvalidArgument(error);
  }
  return static_cast<uint64_t>(value.number_value);
}

/// Decodes one query envelope: a scalar line's object or an array line's
/// object element.
Result<ServeRequest> ParseRequestEnvelope(const JsonValue& parsed) {
  // The largest double below 2^64: a double-to-uint64 cast of 2^64 or
  // more is undefined.
  constexpr double kBelowUint64Limit = 18446744073709549568.0;
  // Every integer up to 2^53 is exact in a double.
  constexpr double kExactDoubleLimit = 9007199254740992.0;
  if (!parsed.is_object()) {
    return Status::InvalidArgument("request JSON must be an object");
  }
  ServeRequest request;
  const JsonValue* query = parsed.Find("query");
  if (query == nullptr || !query->is_string() || query->string_value.empty()) {
    return Status::InvalidArgument(
        "request JSON needs a non-empty string \"query\" member");
  }
  request.query = query->string_value;
  if (const JsonValue* deadline = parsed.Find("deadline_ms")) {
    if (!deadline->is_number() || deadline->number_value < 0.0) {
      return Status::InvalidArgument(
          "\"deadline_ms\" must be a non-negative number");
    }
    request.deadline_millis = deadline->number_value;
  }
  if (const JsonValue* steps = parsed.Find("max_steps")) {
    TL_ASSIGN_OR_RETURN(
        request.max_work_steps,
        ReadUintField(*steps, kBelowUint64Limit,
                      "\"max_steps\" must be an integer from 0 to 2^64-1"));
  }
  if (const JsonValue* id = parsed.Find("id")) {
    // The response echoes the id as sent, so a fraction or exponent form
    // is taken only within the range its double holds exactly.
    TL_ASSIGN_OR_RETURN(
        request.id,
        ReadUintField(*id, kExactDoubleLimit,
                      "\"id\" must be an integer from 0 to 2^64-1, and at "
                      "most 2^53 in fraction or exponent form"));
  }
  return request;
}

}  // namespace

Status ParseRequestLine(std::string_view line, size_t max_items,
                        ServeBatch* batch) {
  std::string_view trimmed = Trimmed(line);
  batch->items.clear();
  batch->scalar = trimmed.empty() || trimmed.front() != '[';
  if (trimmed.empty()) {
    return Status::InvalidArgument("empty request line");
  }
  if (trimmed.front() != '{' && trimmed.front() != '[') {
    ServeRequest request;
    request.query = std::string(trimmed);
    batch->items.push_back(std::move(request));
    return Status::OK();
  }
  Result<JsonValue> parsed = ParseJson(trimmed);
  if (!parsed.ok()) {
    return Status::InvalidArgument((batch->scalar ? "malformed request JSON: "
                                                  : "malformed batch JSON: ") +
                                   parsed.status().message());
  }
  if (batch->scalar) {
    Result<ServeRequest> request = ParseRequestEnvelope(*parsed);
    if (!request.ok()) return request.status();
    batch->items.push_back(std::move(*request));
    return Status::OK();
  }
  if (parsed->array.empty()) {
    return Status::InvalidArgument("batch request array must not be empty");
  }
  if (max_items > 0 && parsed->array.size() > max_items) {
    return Status::InvalidArgument(
        "batch request carries " + std::to_string(parsed->array.size()) +
        " queries; the limit is " + std::to_string(max_items));
  }
  batch->items.reserve(parsed->array.size());
  for (const JsonValue& element : parsed->array) {
    if (element.is_string()) {
      if (element.string_value.empty()) {
        return Status::InvalidArgument(
            "batch element queries must be non-empty strings");
      }
      ServeRequest request;
      request.query = element.string_value;
      batch->items.push_back(std::move(request));
      continue;
    }
    Result<ServeRequest> request = ParseRequestEnvelope(element);
    if (!request.ok()) return request.status();
    batch->items.push_back(std::move(*request));
  }
  return Status::OK();
}

void ServeBatchResponse::AppendJsonLine(std::string* out) const {
  JsonWriter w(out);
  if (scalar) {
    WriteResponse(items.front(), &w);
    return;
  }
  w.BeginArray();
  for (const ServeResponse& item : items) WriteResponse(item, &w);
  w.EndArray();
}

std::string ServeBatchResponse::ToJsonLine() const {
  std::string line;
  AppendJsonLine(&line);
  return line;
}

RequestOutcome OutcomeOf(const ServeBatchResponse& response) {
  RequestOutcome outcome;
  outcome.ok = true;
  for (const ServeResponse& item : response.items) {
    if (!item.ok && outcome.error_code.empty()) {
      outcome.ok = false;
      outcome.error_code = item.error_code;
    }
    outcome.degraded = outcome.degraded || item.degraded;
    outcome.cached = outcome.cached || item.cached;
    outcome.snapshot_version = item.snapshot_version;
  }
  if (response.scalar) {
    outcome.query = response.items.front().query;
    outcome.rung = response.items.front().rung;
  } else {
    outcome.query = "[batch:" + std::to_string(response.items.size()) + "]";
  }
  return outcome;
}

Server::Server(SnapshotHolder* snapshots, ServerOptions options,
               ResponseSink sink)
    : snapshots_(snapshots),
      options_(std::move(options)),
      sink_(std::move(sink)) {
  if (options_.estimate_cache_capacity > 0) {
    cache_ = std::make_unique<EstimateCache>(options_.estimate_cache_capacity);
  }
  const int workers = options_.workers > 0 ? options_.workers : 1;
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Server::~Server() { Shutdown(); }

bool Server::Submit(ServeBatch batch) {
  ServeMetrics& metrics = ServeMetrics::Get();
  const size_t queries = batch.items.size();
  batch.trace.batch_size = batch.scalar ? 0 : static_cast<uint32_t>(queries);
  {
    std::lock_guard<std::mutex> lock(mu_);
    // All-or-nothing admission: a line needs one slot per query so a
    // burst of array lines cannot oversubscribe the queue N-fold.
    if (!stopping_ && queries > 0 &&
        queued_queries_ + queries <= options_.queue_capacity) {
      batch.trace.StampAdmitted();
      queue_.push_back(std::move(batch));
      queued_queries_ += queries;
      submitted_.fetch_add(queries, std::memory_order_relaxed);
      metrics.requests->Increment(queries);
      metrics.queue_depth_peak->SetMax(static_cast<int64_t>(queued_queries_));
      metrics.queue_depth->Set(static_cast<int64_t>(queued_queries_));
      work_available_.notify_one();
      return true;
    }
  }
  // Shed the whole line: one ResourceExhausted response per query,
  // answered immediately from the submitting thread — exactly-once per
  // query even under overload, never a partially answered line.
  shed_.fetch_add(queries, std::memory_order_relaxed);
  metrics.shed->Increment(queries);
  if (!batch.scalar) BatchMetrics::Get().shed_queries->Increment(queries);
  ServeBatchResponse response;
  response.scalar = batch.scalar;
  response.trace = batch.trace;
  response.items.reserve(queries);
  for (const ServeRequest& item : batch.items) {
    ServeResponse shed;
    shed.id = item.id;
    shed.req = batch.trace.req_id;
    shed.query = item.query;
    shed.ok = false;
    shed.error_code =
        std::string(StatusCodeToString(StatusCode::kResourceExhausted));
    shed.error_message = batch.scalar ? "admission queue full; request shed"
                                      : "admission queue full; batch shed";
    response.items.push_back(std::move(shed));
  }
  Emit(std::move(response));
  return false;
}

void Server::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && workers_.empty()) return;
    stopping_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

Server::Stats Server::GetStats() const {
  Stats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.shed = shed_.load(std::memory_order_relaxed);
  stats.ok = ok_.load(std::memory_order_relaxed);
  stats.errors = errors_.load(std::memory_order_relaxed);
  stats.degraded = degraded_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats.queue_depth = queued_queries_;
  }
  if (cache_ != nullptr) {
    EstimateCache::Stats cache_stats = cache_->GetStats();
    stats.cache_hits = cache_stats.hits;
    stats.cache_misses = cache_stats.misses;
  }
  return stats;
}

void Server::WorkerLoop() {
  // The estimator binds to the snapshot's summary and cache version and is
  // rebuilt whenever the serving snapshot changes; the dictionary is a
  // private copy because query compilation interns labels (a label the
  // snapshot has never seen gets a fresh id that misses every summary
  // lookup, yielding the natural estimate of zero). Once the copy holds
  // kMaxUnknownLabels such labels it starts over from the snapshot's, so
  // lines of ever-new labels cannot grow it without bound. The
  // estimator's scratch and the per-line buffers stay warm across every
  // line this thread answers on one snapshot.
  Worker worker;
  for (;;) {
    ServeBatch batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(lock,
                           [this]() TL_REQUIRES(mu_) {
                             return stopping_ || !queue_.empty();
                           });
      if (queue_.empty()) return;  // stopping_ && drained
      batch = std::move(queue_.front());
      queue_.pop_front();
      queued_queries_ -= batch.items.size();
      batch.trace.StampDequeued();
      ServeMetrics::Get().queue_depth->Set(
          static_cast<int64_t>(queued_queries_));
    }

    std::shared_ptr<const SummarySnapshot> current = snapshots_->Get();
    if (current != worker.snapshot) {
      worker.snapshot = std::move(current);
      if (worker.snapshot != nullptr) {
        worker.dict = std::make_unique<LabelDict>(worker.snapshot->dict);
        worker.estimator = std::make_unique<BatchEstimator>(
            &worker.snapshot->summary, options_.estimator.primary,
            cache_.get(), worker.snapshot->version);
      } else {
        worker.dict.reset();
        worker.estimator.reset();
      }
    } else if (worker.dict != nullptr &&
               worker.dict->size() >
                   worker.snapshot->dict.size() + kMaxUnknownLabels) {
      worker.dict = std::make_unique<LabelDict>(worker.snapshot->dict);
    }

    if (options_.worker_delay_millis > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          options_.worker_delay_millis));
    }

    Emit(Process(batch, &worker));
  }
}

ServeBatchResponse Server::Process(const ServeBatch& batch, Worker* worker) {
  // Worker time is split into laps: the parse here, then the cache probe
  // and estimation inside EstimateBatch, which adds them to the parse time
  // each result is seeded with.
  WallTimer timer;
  const size_t n = batch.items.size();
  const int64_t snapshot_version =
      worker->snapshot != nullptr ? worker->snapshot->version : 0;
  BatchMetrics& batch_metrics = BatchMetrics::Get();
  if (!batch.scalar) {
    batch_metrics.lines->Increment();
    batch_metrics.queries->Increment(n);
    batch_metrics.size->Record(n);
  }

  ServeBatchResponse out;
  out.scalar = batch.scalar;
  out.trace = batch.trace;
  out.items.resize(n);

  // Per-item parse and budget. Parse failures (and the no-snapshot case)
  // answer here and leave an empty twig, which EstimateBatch skips.
  std::vector<Twig>& twigs = worker->twigs;
  std::vector<EstimateOptions>& budgets = worker->budgets;
  std::vector<EstimateResult>& results = worker->results;
  twigs.clear();
  twigs.resize(n);
  budgets.assign(n, EstimateOptions{});
  results.assign(n, EstimateResult{});
  for (size_t i = 0; i < n; ++i) {
    const ServeRequest& item = batch.items[i];
    ServeResponse& response = out.items[i];
    response.id = item.id;
    response.req = batch.trace.req_id;
    response.query = item.query;
    response.snapshot_version = snapshot_version;
    Status error = Status::OK();
    if (worker->estimator == nullptr) {
      error = Status::NotFound("no summary snapshot loaded");
    } else if (Result<Twig> query = CompileQuery(item.query,
                                                 worker->dict.get());
               !query.ok()) {
      error = query.status();
    } else {
      twigs[i] = std::move(*query);
    }
    if (!error.ok()) {
      response.error_code = std::string(StatusCodeToString(error.code()));
      response.error_message = error.message();
    }
    EstimateOptions& budget = budgets[i];
    budget.deadline_millis = item.deadline_millis > 0.0
                                 ? item.deadline_millis
                                 : options_.default_deadline_millis;
    // A request's step cap may lower the server's, never raise it.
    const uint64_t cap = options_.default_max_work_steps;
    budget.max_work_steps =
        item.max_work_steps > 0 && (cap == 0 || item.max_work_steps < cap)
            ? item.max_work_steps
            : cap;
    budget.cancel = batch.cancel.get();
    results[i].wall_micros = timer.LapMicros();
  }

  if (worker->estimator != nullptr) {
    IgnoreStatus(worker->estimator->EstimateBatch(twigs, budgets, results),
                 "the spans are built to the line's length above");
  }

  uint64_t dup_queries = 0;
  uint64_t cache_hits = 0;
  for (size_t i = 0; i < n; ++i) {
    ServeResponse& response = out.items[i];
    const EstimateResult& result = results[i];
    response.wall_micros = result.wall_micros;
    if (twigs[i].empty()) continue;  // answered at parse
    dup_queries += result.duplicate ? 1 : 0;
    cache_hits += result.cached && !result.duplicate ? 1 : 0;
    // Each distinct estimated query's steps count once.
    if (out.trace.active && !result.duplicate) {
      out.trace.work_steps += result.work_steps;
    }
    if (!result.status.ok()) {
      response.error_code =
          std::string(StatusCodeToString(result.status.code()));
      response.error_message = result.status.message();
      continue;
    }
    response.ok = true;
    response.estimate = result.estimate;
    response.rung = std::string(DegradingEstimator::RungName(result.rung));
    response.degraded = result.degraded;
    response.cached = result.cached;
  }
  if (!batch.scalar) {
    batch_metrics.dup_queries->Increment(dup_queries);
    batch_metrics.cache_hits->Increment(cache_hits);
  }
  if (batch.scalar && out.trace.active && !twigs[0].empty()) {
    // Twig shape features: the slow-query log keys on them.
    const Twig& query = twigs[0];
    out.trace.twig_size = static_cast<uint32_t>(query.size());
    for (int i = 0; i < query.size(); ++i) {
      out.trace.twig_depth = std::max(out.trace.twig_depth,
                                      static_cast<uint32_t>(query.Depth(i)));
      out.trace.twig_fanout =
          std::max(out.trace.twig_fanout,
                   static_cast<uint32_t>(query.children(i).size()));
    }
  }

  out.trace.StampEstimated();
  return out;
}

void Server::Emit(ServeBatchResponse response) {
  ServeMetrics& metrics = ServeMetrics::Get();
  for (const ServeResponse& item : response.items) {
    if (item.ok) {
      ok_.fetch_add(1, std::memory_order_relaxed);
      metrics.responses_ok->Increment();
      if (item.degraded) degraded_.fetch_add(1, std::memory_order_relaxed);
    } else {
      errors_.fetch_add(1, std::memory_order_relaxed);
      metrics.responses_error->Increment();
    }
    metrics.latency_micros->Record(
        item.wall_micros > 0.0 ? static_cast<uint64_t>(item.wall_micros) : 0);
  }
  std::lock_guard<std::mutex> lock(sink_mu_);
  sink_(std::move(response));
}

}  // namespace serve
}  // namespace treelattice
