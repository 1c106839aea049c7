#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "core/estimate_scratch.h"
#include "serve/serve_metrics.h"
#include "twig/twig.h"
#include "util/hash.h"
#include "util/json.h"
#include "xpath/xpath.h"

namespace treelattice {
namespace serve {

namespace {

/// Mirrors the CLI's query heuristic: anything that looks like a path
/// expression goes through the XPath compiler, everything else is twig
/// syntax.
Result<Twig> ParseQueryText(const std::string& text, LabelDict* dict) {
  if (text.find('/') != std::string::npos ||
      text.find('[') != std::string::npos) {
    return CompileXPath(text, dict);
  }
  return Twig::Parse(text, dict);
}

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

/// Stable fingerprint of the estimator configuration a cache serves, so a
/// cache can never be (mis)shared across configs that would produce
/// different estimates for the same query.
uint64_t EstimatorConfigFingerprint(const DegradingEstimator::Options& o) {
  uint64_t fp = HashBytes("degrading-ladder-v1");
  fp = HashCombine(fp, o.primary.voting ? 1 : 0);
  fp = HashCombine(fp, static_cast<uint64_t>(o.primary.max_votes_per_level));
  fp = HashCombine(fp, static_cast<uint64_t>(o.primary.aggregation));
  return fp;
}

}  // namespace

std::string ServeResponse::ToJsonLine() const {
  JsonWriter w;
  w.BeginObject();
  // "id" stays first: line-oriented consumers (smoke tests, shell greps)
  // key on the '{"id":' prefix.
  w.Key("id").Uint(id);
  w.Key("req").Uint(req);
  w.Key("query").String(query);
  w.Key("ok").Bool(ok);
  if (ok) {
    w.Key("estimate").Double(estimate);
    w.Key("rung").String(rung);
    w.Key("degraded").Bool(degraded);
    w.Key("cached").Bool(cached);
  } else {
    w.Key("error").BeginObject();
    w.Key("code").String(error_code);
    w.Key("message").String(error_message);
    w.EndObject();
  }
  w.Key("wall_micros").Double(wall_micros);
  w.Key("snapshot_version").Int(snapshot_version);
  w.EndObject();
  return w.TakeString();
}

namespace {

/// Decodes one query envelope: a scalar line's object or an array line's
/// object element.
Result<ServeRequest> ParseRequestEnvelope(const JsonValue& parsed) {
  // Ids and step caps are uint64; 2^64 and above cannot be represented
  // (a double-to-uint64 cast of such a value is undefined).
  constexpr double kUint64Limit = 18446744073709551616.0;
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
    if (!steps->is_number() || steps->number_value < 0.0) {
      return Status::InvalidArgument(
          "\"max_steps\" must be a non-negative number");
    }
    if (steps->number_value >= kUint64Limit) {
      return Status::InvalidArgument("\"max_steps\" must be below 2^64");
    }
    request.max_work_steps = static_cast<uint64_t>(steps->number_value);
  }
  if (const JsonValue* id = parsed.Find("id")) {
    if (!id->is_number() || id->number_value < 0.0) {
      return Status::InvalidArgument("\"id\" must be a non-negative number");
    }
    if (id->number_value >= kUint64Limit) {
      return Status::InvalidArgument("\"id\" must be below 2^64");
    }
    request.id = static_cast<uint64_t>(id->number_value);
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

std::string ServeBatchResponse::ToJsonLine() const {
  if (scalar) return items.front().ToJsonLine();
  JsonWriter w;
  w.BeginArray();
  for (const ServeResponse& item : items) w.Raw(item.ToJsonLine());
  w.EndArray();
  return w.TakeString();
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
  if (options_.enable_estimate_cache && options_.estimate_cache_capacity > 0) {
    EstimateCache::Options cache_options;
    cache_options.capacity = options_.estimate_cache_capacity;
    cache_options.shards = options_.estimate_cache_shards;
    cache_options.config_fingerprint =
        EstimatorConfigFingerprint(options_.estimator);
    cache_ = std::make_unique<EstimateCache>(cache_options);
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
  // The estimator binds to the snapshot's summary and is rebuilt whenever
  // the serving snapshot changes; the dictionary is a private copy because
  // query compilation interns labels (a label the snapshot has never seen
  // gets a fresh id that misses every summary lookup, yielding the natural
  // estimate of zero). The scratch, dedup table and twig buffer stay warm
  // across every line this thread answers.
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
        worker.estimator = std::make_unique<DegradingEstimator>(
            &worker.snapshot->summary, options_.estimator);
      } else {
        worker.dict.reset();
        worker.estimator.reset();
      }
    }

    if (options_.worker_delay_millis > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          options_.worker_delay_millis));
    }

    Emit(Process(batch, &worker));
  }
}

ServeBatchResponse Server::Process(const ServeBatch& batch, Worker* worker) {
  // Worker time is split into laps, one clock read each, so every stretch
  // of the line's processing is charged to exactly one query.
  std::chrono::steady_clock::time_point lap_start =
      std::chrono::steady_clock::now();
  auto lap = [&lap_start] {
    const std::chrono::steady_clock::time_point now =
        std::chrono::steady_clock::now();
    const double micros =
        std::chrono::duration<double, std::micro>(now - lap_start).count();
    lap_start = now;
    return micros;
  };
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

  // Per-item parse. Parse failures (and the no-snapshot case) answer
  // here and leave an empty twig, which every later stage skips.
  std::vector<Twig>& twigs = worker->twigs;
  twigs.clear();
  twigs.resize(n);
  size_t parsed = 0;
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
    } else if (Result<Twig> query = ParseQueryText(item.query,
                                                   worker->dict.get());
               !query.ok()) {
      error = query.status();
    } else {
      twigs[i] = std::move(*query);
      ++parsed;
    }
    if (!error.ok()) {
      response.error_code = std::string(StatusCodeToString(error.code()));
      response.error_message = error.message();
    }
    response.wall_micros = lap();
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

  // Dedup on the canonical code: only the first item of each group reaches
  // the cache and the estimator (serve.batch.dup_queries counts the rest).
  worker->dedup.Group(twigs);
  const std::span<const uint32_t> distinct = worker->dedup.distinct();
  if (!batch.scalar) {
    batch_metrics.dup_queries->Increment(parsed - distinct.size());
  }

  // Cache read: any query may be answered from the cache, since entries
  // are exact full-effort primary answers (a governed query served from it
  // gets a strictly better result than its budget could buy).
  size_t misses = 0;
  size_t memo_budget = 0;  // sum of size^2 over the misses
  uint64_t cache_hits = 0;
  for (uint32_t first : distinct) {
    const Twig& twig = twigs[first];
    ServeResponse& response = out.items[first];
    if (cache_ != nullptr) {
      std::optional<double> hit = cache_->Get(
          snapshot_version, twig.CanonicalHash(),  // tl-lint: allow(canonical-in-loop)
          twig.CanonicalCode());  // tl-lint: allow(canonical-in-loop)
      response.wall_micros += lap();
      if (hit.has_value()) {
        response.ok = true;
        response.estimate = *hit;
        response.rung = std::string(
            DegradingEstimator::RungName(DegradingEstimator::Rung::kPrimary));
        response.cached = true;
        ++cache_hits;
        continue;
      }
    }
    ++misses;
    const size_t size = static_cast<size_t>(twig.size());
    memo_budget += size * size;
  }
  if (!batch.scalar) batch_metrics.cache_hits->Increment(cache_hits);

  if (misses > 0) {
    // Estimate the misses with one line-scoped memo: every sub-twig shared
    // across the line is probed and voted exactly once. Memo entries are
    // exact per-code values inserted only after full computation, so
    // sharing cannot change any result (DESIGN.md §14); fallback rungs
    // deliberately drop back to a fresh per-call memo.
    ScopedBatchScratch batch_guard(&worker->scratch, memo_budget);
    for (uint32_t first : distinct) {
      ServeResponse& response = out.items[first];
      if (response.cached) continue;
      const ServeRequest& item = batch.items[first];
      const Twig& twig = twigs[first];
      const double deadline_millis = item.deadline_millis > 0.0
                                         ? item.deadline_millis
                                         : options_.default_deadline_millis;
      EstimateOptions estimate_options;
      if (deadline_millis > 0.0) {
        estimate_options = EstimateOptions::WithDeadlineMillis(deadline_millis);
      }
      estimate_options.max_work_steps = item.max_work_steps > 0
                                            ? item.max_work_steps
                                            : options_.default_max_work_steps;
      estimate_options.scratch = &worker->scratch;
      if (out.trace.active) {
        estimate_options.work_steps = &out.trace.work_steps;
      }
      // Budget-governed means the *value* may depend on the budget (a
      // deadline or step cap can truncate work). A cancel token alone
      // does not: a run that completes despite being cancellable produced
      // the exact answer, so it stays cacheable.
      const bool governed = estimate_options.governed();
      estimate_options.cancel = batch.cancel.get();
      Result<DegradingEstimator::DegradedEstimate> estimate =
          worker->estimator->EstimateDegraded(twig, estimate_options);
      if (!estimate.ok()) {
        response.error_code =
            std::string(StatusCodeToString(estimate.status().code()));
        response.error_message = estimate.status().message();
      } else {
        response.ok = true;
        response.estimate = estimate->estimate;
        response.rung =
            std::string(DegradingEstimator::RungName(estimate->rung));
        response.degraded = estimate->degraded;
        // Insert policy: only exact answers. A governed run — even one
        // that finished on the primary rung — may have been lucky with
        // its budget; the cheap and airtight rule is to cache ungoverned
        // primary results only.
        if (cache_ != nullptr && !governed && !estimate->degraded &&
            estimate->rung == DegradingEstimator::Rung::kPrimary) {
          cache_->Put(snapshot_version, twig.CanonicalHash(),  // tl-lint: allow(canonical-in-loop)
                      twig.CanonicalCode(), estimate->estimate);  // tl-lint: allow(canonical-in-loop)
        }
      }
      response.wall_micros += lap();
    }
  }

  // Scatter each group's outcome to its duplicates (the per-item id and
  // query text stay the duplicate's own).
  for (size_t i = 0; i < n; ++i) {
    const uint32_t group = worker->dedup.group(i);
    if (group == QueryDedup::kNoGroup || distinct[group] == i) continue;
    const ServeResponse& from = out.items[distinct[group]];
    ServeResponse& to = out.items[i];
    to.ok = from.ok;
    to.estimate = from.estimate;
    to.rung = from.rung;
    to.degraded = from.degraded;
    to.cached = from.cached;
    to.error_code = from.error_code;
    to.error_message = from.error_message;
    to.wall_micros = from.wall_micros;
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
