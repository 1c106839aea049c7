#include "serve/introspect.h"

#include "serve/slow_log.h"
#include "util/json.h"

namespace treelattice {
namespace serve {
namespace introspect {

namespace {

/// The shared core of '#stats' and /statusz: server tallies, then the
/// "net" block when a transport exists, then the slow-query tallies.
void WriteStatusBody(const StatusSnapshot& status, JsonWriter* w) {
  w->Key("submitted").Uint(status.server.submitted);
  w->Key("shed").Uint(status.server.shed);
  w->Key("ok").Uint(status.server.ok);
  w->Key("errors").Uint(status.server.errors);
  w->Key("degraded").Uint(status.server.degraded);
  w->Key("cache_hits").Uint(status.server.cache_hits);
  w->Key("cache_misses").Uint(status.server.cache_misses);
  w->Key("queue_depth").Uint(status.server.queue_depth);
  w->Key("queue_capacity").Uint(status.queue_capacity);
  w->Key("snapshot_version").Int(status.snapshot_version);
  if (status.has_net) {
    const TransportStats& net = status.net;
    w->Key("net").BeginObject();
    w->Key("accepted").Uint(net.accepted);
    w->Key("rejected").Uint(net.rejected);
    w->Key("active").Uint(net.active);
    w->Key("frames").Uint(net.frames);
    w->Key("frames_oversized").Uint(net.frames_oversized);
    w->Key("requests_admitted").Uint(net.requests_admitted);
    w->Key("responses_delivered").Uint(net.responses_delivered);
    w->Key("responses_orphaned").Uint(net.responses_orphaned);
    w->Key("backpressure_stalls").Uint(net.backpressure_stalls);
    w->Key("resets").Uint(net.resets);
    w->Key("bytes_in").Uint(net.bytes_in);
    w->Key("bytes_out").Uint(net.bytes_out);
    w->Key("idle_timeouts").Uint(net.idle_timeouts);
    w->Key("request_timeouts").Uint(net.request_timeouts);
    w->Key("poller_errors").Uint(net.poller_errors);
    w->Key("writes").Uint(net.writes);
    w->Key("interest_changes").Uint(net.interest_changes);
    w->Key("injected_faults").Uint(net.injected_faults);
    w->EndObject();
  }
  w->Key("slow").BeginObject();
  w->Key("threshold_ms").Double(status.slow_threshold_millis);
  w->Key("recorded").Uint(status.slow_queries);
  w->EndObject();
}

void WriteSlowEntry(const SlowQueryLog::Entry& entry, JsonWriter* w) {
  w->BeginObject();
  w->Key("req").Uint(entry.req_id);
  w->Key("query").String(entry.query);
  w->Key("ok").Bool(entry.ok);
  if (entry.ok) {
    w->Key("rung").String(entry.rung);
    w->Key("cached").Bool(entry.cached);
    w->Key("degraded").Bool(entry.degraded);
  } else {
    w->Key("error_code").String(entry.error_code);
  }
  w->Key("snapshot_version").Int(entry.snapshot_version);
  w->Key("shape").BeginObject();
  w->Key("size").Uint(entry.twig_size);
  w->Key("depth").Uint(entry.twig_depth);
  w->Key("fanout").Uint(entry.twig_fanout);
  w->EndObject();
  w->Key("work_steps").Uint(entry.work_steps);
  if (entry.batch_size > 0) w->Key("batch_size").Uint(entry.batch_size);
  w->Key("stages_micros").BeginObject();
  w->Key("admit").Uint(entry.admit_micros);
  w->Key("queue_wait").Uint(entry.queue_wait_micros);
  w->Key("estimate").Uint(entry.estimate_micros);
  w->Key("serialize").Uint(entry.serialize_micros);
  w->Key("flush").Uint(entry.flush_micros);
  w->EndObject();
  w->Key("framed_micros").Uint(entry.framed_micros);
  w->Key("total_ms").Double(entry.total_millis);
  w->EndObject();
}

}  // namespace

std::string StatsJsonLine(const StatusSnapshot& status) {
  JsonWriter w;
  w.BeginObject();
  w.Key("stats").BeginObject();
  WriteStatusBody(status, &w);
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

std::string StatuszJson(const StatusSnapshot& status) {
  JsonWriter w;
  w.BeginObject();
  w.Key("snapshot_version").Int(status.snapshot_version);
  w.Key("snapshot_salvaged").Bool(status.snapshot_salvaged);
  w.Key("uptime_seconds").Double(status.uptime_seconds);
  w.Key("draining").Bool(status.draining);
  w.Key("workers").Int(status.workers);
  w.Key("drain_micros").Double(status.has_net ? status.net.drain_micros : 0.0);
  w.Key("stats").BeginObject();
  WriteStatusBody(status, &w);
  w.EndObject();
  w.Key("build").BeginObject();
#if defined(__VERSION__)
  w.Key("compiler").String(__VERSION__);
#else
  w.Key("compiler").String("unknown");
#endif
  w.Key("cxx_standard").Int(static_cast<int64_t>(__cplusplus));
#if defined(NDEBUG)
  w.Key("optimized").Bool(true);
#else
  w.Key("optimized").Bool(false);
#endif
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

HealthReport EvaluateHealth(const StatusSnapshot& status) {
  HealthReport report;
  if (status.snapshot_version <= 0) {
    report.reason = "no snapshot loaded";
    return report;
  }
  if (status.draining) {
    report.reason = "draining";
    return report;
  }
  if (status.queue_capacity > 0 &&
      status.server.queue_depth >= status.queue_capacity) {
    report.reason = "admission queue saturated";
    return report;
  }
  report.ready = true;
  report.reason = "ok";
  return report;
}

std::string HealthzJson(const HealthReport& report) {
  JsonWriter w;
  w.BeginObject();
  w.Key("ok").Bool(report.ready);
  w.Key("reason").String(report.reason);
  w.EndObject();
  return w.TakeString();
}

std::string SlowzJson(const SlowQueryLog* log) {
  JsonWriter w;
  w.BeginObject();
  w.Key("slowz").BeginObject();
  if (log == nullptr) {
    w.Key("enabled").Bool(false);
  } else {
    w.Key("enabled").Bool(log->options().threshold_millis > 0.0);
    w.Key("threshold_ms").Double(log->options().threshold_millis);
    w.Key("capacity").Uint(log->options().capacity);
    w.Key("total_recorded").Uint(log->total_recorded());
    w.Key("entries").BeginArray();
    for (const SlowQueryLog::Entry& entry : log->Snapshot()) {
      WriteSlowEntry(entry, &w);
    }
    w.EndArray();
  }
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

}  // namespace introspect
}  // namespace serve
}  // namespace treelattice
