// Extension benchmark: serving throughput and tail latency. The ROADMAP
// north-star is an estimation *service*; this drives the serve-layer
// worker pool with request bursts of increasing size over a mined PSD
// lattice and reports throughput plus p50/p95/p99 response latency, with
// and without per-request deadlines. The workload mixes cheap in-lattice
// lookups with wide star queries whose voting recursion is expensive —
// exactly the requests the degradation ladder exists for, so the governed
// runs also report how many answers were degraded to a cheaper rung.
//
// Shape to expect: ungoverned tails are dominated by the star queries;
// deadlines cap p99 near the deadline (plus one fallback grace) at the
// price of degraded answers. Throughput scales with workers until the
// queue, not the estimator, is the bottleneck.
//
// The TCP sweep (also standalone via --net-only, recorded as
// BENCH_serve_net.json by tools/run_benchmarks.sh) drives the epoll
// transport end to end over loopback sockets at 1/100/1k/10k concurrent
// connections — a windowed pipelined client per connection — and reports
// qps and p99 per concurrency level plus the 1k-vs-1 throughput ratio
// (the transport should cost little: the ratio stays near 1).
//
// Flags: --scale=<n> (PSD records, default 800), --level=<k> (default 3),
//        --workers=<n> (default 4), --deadline-ms=<d> (default 5),
//        --net-only (TCP sweep only), --net-requests=<n> (default 4000),
//        --net-max-conns=<n> (default 10000; legs above it are skipped).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "datagen/datasets.h"
#include "harness/bench_report.h"
#include "harness/flags.h"
#include "mining/lattice_builder.h"
#include "serve/server.h"
#include "serve/slow_log.h"
#include "serve/snapshot.h"
#include "serve/transport.h"
#include "summary/lattice_summary.h"
#include "util/timer.h"
#include "xml/label_dict.h"

namespace treelattice {
namespace {

double Percentile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  size_t index = static_cast<size_t>(q * static_cast<double>(sorted.size() - 1));
  return sorted[index];
}

struct BurstResult {
  double wall_seconds = 0.0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;  // micros
  uint64_t ok = 0, errors = 0, degraded = 0;
  uint64_t cache_hits = 0;
};

/// Submits `n` requests round-robin over `queries` and waits for every
/// response, measuring per-request submit-to-sink latency.
BurstResult RunBurst(serve::SnapshotHolder* snapshots,
                     const std::vector<std::string>& queries, int n,
                     int workers, double deadline_millis,
                     bool enable_cache = false) {
  using Clock = std::chrono::steady_clock;
  std::vector<Clock::time_point> submitted(static_cast<size_t>(n));
  // One slot per request id; distinct ids never collide, so the sink can
  // write lock-free (sink calls are serialized by the server anyway).
  std::vector<double> latencies(static_cast<size_t>(n), 0.0);
  std::vector<uint8_t> degraded_flags(static_cast<size_t>(n), 0);

  serve::ServerOptions options;
  options.workers = workers;
  options.queue_capacity = static_cast<size_t>(n);  // no shedding: pure latency
  options.default_deadline_millis = deadline_millis;
  if (!enable_cache) options.estimate_cache_capacity = 0;
  BurstResult result;
  {
    serve::Server server(
        snapshots, options, [&](serve::ServeBatchResponse response) {
          const serve::ServeResponse& item = response.items.front();
          size_t slot = static_cast<size_t>(item.id - 1);
          latencies[slot] = std::chrono::duration<double, std::micro>(
                                Clock::now() - submitted[slot])
                                .count();
          degraded_flags[slot] = item.degraded ? 1 : 0;
        });
    WallTimer timer;
    for (int i = 0; i < n; ++i) {
      serve::ServeBatch line;
      line.items.resize(1);
      line.items[0].id = static_cast<uint64_t>(i + 1);
      line.items[0].query = queries[static_cast<size_t>(i) % queries.size()];
      submitted[static_cast<size_t>(i)] = Clock::now();
      server.Submit(std::move(line));
    }
    server.Shutdown();  // drains: every latency slot is filled after this
    result.wall_seconds = timer.ElapsedSeconds();
    serve::Server::Stats stats = server.GetStats();
    result.ok = stats.ok;
    result.errors = stats.errors;
    result.degraded = stats.degraded;
    result.cache_hits = stats.cache_hits;
  }

  std::sort(latencies.begin(), latencies.end());
  result.p50 = Percentile(latencies, 0.50);
  result.p95 = Percentile(latencies, 0.95);
  result.p99 = Percentile(latencies, 0.99);
  return result;
}

// --- TCP transport sweep ---------------------------------------------------

struct NetLegResult {
  double wall_seconds = 0.0;
  double p50 = 0.0, p99 = 0.0;  // micros
  uint64_t completed = 0;
  bool ok = false;
};

/// Pulls the numeric `"id":` value out of a response line without paying
/// for a full JSON parse — at 10k connections the client must stay far
/// cheaper than the server or the bench measures the client.
uint64_t ParseResponseId(const char* begin, const char* end) {
  static constexpr char kKey[] = "\"id\":";
  const char* p = std::search(begin, end, kKey, kKey + 5);
  if (p == end) return 0;
  p += 5;
  uint64_t value = 0;
  while (p < end && *p >= '0' && *p <= '9') {
    value = value * 10 + static_cast<uint64_t>(*p++ - '0');
  }
  return value;
}

struct ClientConn {
  int fd = -1;
  uint64_t next_id = 0;
  int sent = 0;
  int done = 0;
  std::string inbuf;
  std::unordered_map<uint64_t, std::chrono::steady_clock::time_point> inflight;
};

/// One client thread: `conn_count` connections, each pipelining a window of
/// `window` requests and refilling on every response until `per_conn` are
/// answered. Blocking writes (tiny frames never fill a loopback buffer),
/// poll(2) for reads. Latency is send-to-response per request.
void DriveConnections(uint16_t port, int conn_count, int per_conn, int window,
                      const std::string& query, std::atomic<int>* ready,
                      const std::atomic<bool>* go,
                      std::vector<double>* latencies,
                      std::atomic<bool>* failed) {
  using Clock = std::chrono::steady_clock;
  std::vector<ClientConn> conns(static_cast<size_t>(conn_count));
  latencies->reserve(static_cast<size_t>(conn_count) *
                     static_cast<size_t>(per_conn));

  auto abort_all = [&conns, failed] {
    failed->store(true);
    for (ClientConn& c : conns) {
      if (c.fd >= 0) close(c.fd);
    }
  };

  for (ClientConn& c : conns) {
    c.fd = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (c.fd < 0 || connect(c.fd, reinterpret_cast<sockaddr*>(&addr),
                            sizeof(addr)) != 0) {
      abort_all();
      ready->fetch_add(1);  // never leave the barrier hanging
      return;
    }
    int one = 1;
    setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }

  // Barrier: all threads finish connecting before anyone sends, so the
  // timed window measures steady-state request flow, not connect storms.
  ready->fetch_add(1);
  while (!go->load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }

  auto send_one = [&query](ClientConn& c) -> bool {
    char line[192];
    int len = std::snprintf(line, sizeof(line), "{\"query\":\"%s\",\"id\":%llu}\n",
                            query.c_str(),
                            static_cast<unsigned long long>(++c.next_id));
    c.inflight.emplace(c.next_id, Clock::now());
    ++c.sent;
    const char* p = line;
    while (len > 0) {
      ssize_t n = send(c.fd, p, static_cast<size_t>(len), MSG_NOSIGNAL);
      if (n <= 0) return false;
      p += n;
      len -= static_cast<int>(n);
    }
    return true;
  };

  for (ClientConn& c : conns) {
    for (int i = 0; i < window && i < per_conn; ++i) {
      if (!send_one(c)) {
        abort_all();
        return;
      }
    }
  }

  const int total = conn_count * per_conn;
  int done_total = 0;
  std::vector<pollfd> pfds;
  std::vector<int> index;
  char buf[65536];
  while (done_total < total && !failed->load(std::memory_order_relaxed)) {
    pfds.clear();
    index.clear();
    for (int i = 0; i < conn_count; ++i) {
      if (conns[static_cast<size_t>(i)].done < per_conn) {
        pfds.push_back({conns[static_cast<size_t>(i)].fd, POLLIN, 0});
        index.push_back(i);
      }
    }
    int rc = poll(pfds.data(), pfds.size(), 30000);
    if (rc <= 0) {
      abort_all();
      return;
    }
    for (size_t k = 0; k < pfds.size(); ++k) {
      if ((pfds[k].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      ClientConn& c = conns[static_cast<size_t>(index[k])];
      ssize_t n = recv(c.fd, buf, sizeof(buf), 0);
      if (n <= 0) {
        abort_all();
        return;
      }
      c.inbuf.append(buf, static_cast<size_t>(n));
      size_t start = 0, nl;
      while ((nl = c.inbuf.find('\n', start)) != std::string::npos) {
        uint64_t id = ParseResponseId(c.inbuf.data() + start, c.inbuf.data() + nl);
        auto it = c.inflight.find(id);
        if (it != c.inflight.end()) {
          latencies->push_back(std::chrono::duration<double, std::micro>(
                                   Clock::now() - it->second)
                                   .count());
          c.inflight.erase(it);
          ++c.done;
          ++done_total;
          if (c.sent < per_conn && !send_one(c)) {
            abort_all();
            return;
          }
        }
        start = nl + 1;
      }
      c.inbuf.erase(0, start);
    }
  }
  for (ClientConn& c : conns) close(c.fd);
}

/// One concurrency level: a Transport on an ephemeral port, `conns`
/// connections spread over client threads, `per_conn` windowed pipelined
/// requests each.
NetLegResult RunNetLeg(serve::SnapshotHolder* snapshots,
                       const std::string& query, int conns, int total_requests,
                       int workers) {
  const int per_conn = std::max(1, total_requests / conns);
  const int window = std::min(4, per_conn);

  serve::ServerOptions server_options;
  server_options.workers = workers;
  // The windows bound in-flight work at conns*window; size the queue above
  // that so the sweep measures the transport, not admission shedding.
  server_options.queue_capacity =
      static_cast<size_t>(conns) * static_cast<size_t>(window) + 128;
  serve::Transport::Options net;
  net.max_connections = conns + 8;
  net.backlog = std::min(conns + 8, 4096);
  net.idle_timeout_millis = 0.0;
  net.request_timeout_millis = 0.0;
  // The whole introspection plane rides along (admin listener, per-request
  // stage tracing, slow-query ring) so the sweep measures serving as
  // deployed — tools/check_metrics_overhead.sh diffs this same leg with
  // TREELATTICE_OBS=off to enforce the overhead budget.
  serve::SlowQueryLog slow_log(
      {/*threshold_millis=*/250.0, /*capacity=*/128});
  net.admin_enabled = true;
  net.admin_port = 0;
  net.slow_log = &slow_log;
  serve::Transport transport(snapshots, std::move(server_options), net);
  Result<uint16_t> port = transport.Listen();
  NetLegResult result;
  if (!port.ok()) {
    std::fprintf(stderr, "listen: %s\n", port.status().ToString().c_str());
    return result;
  }
  Status loop_status = Status::OK();
  std::thread loop(
      [&transport, &loop_status] { loop_status = transport.Run(); });

  const int threads =
      std::min(conns, conns >= 64 ? 8 : 1);
  std::vector<std::vector<double>> latencies(static_cast<size_t>(threads));
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    // Spread the connections evenly; the first `conns % threads` threads
    // take one extra.
    const int share = conns / threads + (t < conns % threads ? 1 : 0);
    pool.emplace_back(DriveConnections, *port, share, per_conn, window,
                      std::cref(query), &ready, &go,
                      &latencies[static_cast<size_t>(t)], &failed);
  }
  while (ready.load() < threads) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  WallTimer timer;
  go.store(true, std::memory_order_release);
  for (std::thread& t : pool) t.join();
  result.wall_seconds = timer.ElapsedSeconds();
  transport.RequestShutdown();
  loop.join();
  if (!loop_status.ok()) {
    std::fprintf(stderr, "event loop: %s\n", loop_status.ToString().c_str());
    failed.store(true);
  }

  std::vector<double> merged;
  for (std::vector<double>& part : latencies) {
    merged.insert(merged.end(), part.begin(), part.end());
  }
  std::sort(merged.begin(), merged.end());
  result.completed = merged.size();
  result.p50 = Percentile(merged, 0.50);
  result.p99 = Percentile(merged, 0.99);
  result.ok = !failed.load() &&
              result.completed ==
                  static_cast<uint64_t>(conns) * static_cast<uint64_t>(per_conn);
  return result;
}

int RunNetSweep(const Flags& flags, BenchReport* report,
                serve::SnapshotHolder* snapshots, int workers) {
  // Below ~20k total the timed window is tens of milliseconds and the sweep
  // measures cache warm-up and scheduler ramp, not steady-state throughput.
  const int total_requests =
      static_cast<int>(flags.GetInt("net-requests", 20000));
  const int max_conns = static_cast<int>(flags.GetInt("net-max-conns", 10000));

  // The 10k leg needs ~2 fds per connection (client + server end live in
  // this one process). Try raising the hard limit too (works when
  // privileged — containers often are) before settling for soft-to-hard;
  // legs that still do not fit are skipped rather than failing mid-connect.
  rlimit rl{};
  getrlimit(RLIMIT_NOFILE, &rl);
  const rlim_t fd_want =
      static_cast<rlim_t>(std::min(max_conns, 10000)) * 2 + 64;
  if (rl.rlim_cur < fd_want) {
    rlimit bump = rl;
    bump.rlim_cur = std::max(fd_want, rl.rlim_cur);
    bump.rlim_max = std::max(fd_want, rl.rlim_max);
    if (setrlimit(RLIMIT_NOFILE, &bump) != 0) {
      bump.rlim_cur = rl.rlim_max;
      bump.rlim_max = rl.rlim_max;
      setrlimit(RLIMIT_NOFILE, &bump);
    }
    getrlimit(RLIMIT_NOFILE, &rl);
  }

  std::printf(
      "\n--- TCP transport: concurrent-connection sweep (cache on) ---\n");
  std::printf("%-26s %10s %12s %10s %10s\n", "config", "requests", "req/s",
              "p50 us", "p99 us");
  double qps_single = 0.0, qps_1k = 0.0;
  for (int conns : {1, 100, 1000, 10000}) {
    if (conns > max_conns) {
      std::printf("%-26s skipped (--net-max-conns=%d)\n",
                  ("net_c" + std::to_string(conns)).c_str(), max_conns);
      continue;
    }
    const rlim_t fd_need = static_cast<rlim_t>(conns) * 2 + 64;
    if (fd_need > rl.rlim_cur) {
      std::printf("%-26s skipped (needs %llu fds, limit %llu)\n",
                  ("net_c" + std::to_string(conns)).c_str(),
                  static_cast<unsigned long long>(fd_need),
                  static_cast<unsigned long long>(rl.rlim_cur));
      continue;
    }
    NetLegResult r =
        RunNetLeg(snapshots, "protein(name)", conns, total_requests, workers);
    if (!r.ok) {
      std::fprintf(stderr, "net leg with %d connections lost responses\n",
                   conns);
      return 1;
    }
    const double qps = static_cast<double>(r.completed) / r.wall_seconds;
    char name[32];
    std::snprintf(name, sizeof(name), "net_c%d", conns);
    std::printf("%-26s %10llu %12.0f %10.0f %10.0f\n", name,
                static_cast<unsigned long long>(r.completed), qps, r.p50,
                r.p99);
    report->AddResult(std::string(name) + "_qps", qps);
    report->AddResult(std::string(name) + "_p50_micros", r.p50);
    report->AddResult(std::string(name) + "_p99_micros", r.p99);
    if (conns == 1) qps_single = qps;
    if (conns == 1000) qps_1k = qps;
  }
  if (qps_single > 0.0 && qps_1k > 0.0) {
    // Acceptance tracker: per-worker throughput at 1k connections vs. a
    // single client — the event loop should cost little (target > 0.8).
    const double ratio = qps_1k / qps_single;
    std::printf("\n1k-connection throughput is %.2fx the single-connection "
                "leg (same %d workers)\n", ratio, workers);
    report->AddResult("net_ratio_1k_vs_1", ratio);
  }
  return 0;
}

int Run(const Flags& flags, BenchReport* report) {
  const int scale = static_cast<int>(flags.GetInt("scale", 800));
  const int level = static_cast<int>(flags.GetInt("level", 3));
  const int workers = static_cast<int>(flags.GetInt("workers", 4));
  const double deadline_millis = flags.GetDouble("deadline-ms", 5.0);
  const bool net_only = flags.GetBool("net-only", false);

  std::printf("=== Extension: Serving throughput & tail latency ===\n\n");

  DatasetOptions generate;
  generate.scale = scale;
  Document doc = GeneratePsd(generate);
  LatticeBuildOptions options;
  options.max_level = level;
  Result<LatticeSummary> summary = BuildLattice(doc, options, nullptr);
  if (!summary.ok()) {
    std::fprintf(stderr, "%s\n", summary.status().ToString().c_str());
    return 1;
  }

  serve::SnapshotHolder snapshots;
  snapshots.Swap(std::make_shared<serve::SummarySnapshot>(
      std::move(*summary), LabelDict(doc.dict())));

  if (net_only) {
    return RunNetSweep(flags, report, &snapshots, workers);
  }

  // Mixed workload: mostly cheap lookups, with wide stars (above the
  // lattice level, distinct children) that make the voting primary sweat.
  const std::vector<std::string> queries = {
      "protein(name)",
      "header(uid,accession)",
      "organism(source,common)",
      "refinfo(authors(author),citation,year)",
      "ProteinEntry(header(uid),protein(name),organism(source))",
      "ProteinEntry(header,protein,organism,reference,summary,sequence,"
      "keywords)",
  };

  std::printf("%-26s %10s %12s %10s %10s %10s %9s\n", "config", "requests",
              "req/s", "p50 us", "p95 us", "p99 us", "degraded");
  for (int burst : {64, 256, 1024}) {
    for (int governed = 0; governed <= 1; ++governed) {
      const double deadline = governed ? deadline_millis : 0.0;
      BurstResult r = RunBurst(&snapshots, queries, burst, workers, deadline);
      if (r.ok + r.errors != static_cast<uint64_t>(burst)) {
        std::fprintf(stderr, "lost responses: %llu of %d\n",
                     static_cast<unsigned long long>(r.ok + r.errors), burst);
        return 1;
      }
      char name[64];
      std::snprintf(name, sizeof(name), "burst%d%s", burst,
                    governed ? "_deadline" : "");
      std::printf("%-26s %10d %12.0f %10.0f %10.0f %10.0f %9llu\n", name,
                  burst, static_cast<double>(burst) / r.wall_seconds, r.p50,
                  r.p95, r.p99, static_cast<unsigned long long>(r.degraded));
      report->AddResult(std::string(name) + "_qps",
                        static_cast<double>(burst) / r.wall_seconds);
      report->AddResult(std::string(name) + "_p50_micros", r.p50);
      report->AddResult(std::string(name) + "_p95_micros", r.p95);
      report->AddResult(std::string(name) + "_p99_micros", r.p99);
      report->AddResult(std::string(name) + "_degraded",
                        static_cast<double>(r.degraded));
    }
  }
  std::printf(
      "\ndeadline runs use --deadline-ms=%.1f per request; degraded counts\n"
      "answers served from a fallback rung instead of the voting primary.\n",
      deadline_millis);

  // Repeated-query workload: the same six queries cycled 1024 times is the
  // snapshot-scoped estimate cache's home turf — after one cold pass per
  // query, every answer is a shard probe. Ungoverned on both sides so the
  // comparison isolates the cache (governed answers are never inserted).
  std::printf("\n--- estimate cache on a repeated-query burst (ungoverned) ---\n");
  std::printf("%-26s %10s %12s %10s %10s %10s %9s\n", "config", "requests",
              "req/s", "p50 us", "p95 us", "p99 us", "hits");
  const int repeat_burst = 1024;
  for (int cached = 0; cached <= 1; ++cached) {
    BurstResult r = RunBurst(&snapshots, queries, repeat_burst, workers,
                             /*deadline_millis=*/0.0, cached != 0);
    if (r.ok + r.errors != static_cast<uint64_t>(repeat_burst)) {
      std::fprintf(stderr, "lost responses: %llu of %d\n",
                   static_cast<unsigned long long>(r.ok + r.errors),
                   repeat_burst);
      return 1;
    }
    const char* name = cached ? "repeat1024_cache" : "repeat1024_nocache";
    std::printf("%-26s %10d %12.0f %10.0f %10.0f %10.0f %9llu\n", name,
                repeat_burst,
                static_cast<double>(repeat_burst) / r.wall_seconds, r.p50,
                r.p95, r.p99, static_cast<unsigned long long>(r.cache_hits));
    report->AddResult(std::string(name) + "_qps",
                      static_cast<double>(repeat_burst) / r.wall_seconds);
    report->AddResult(std::string(name) + "_p50_micros", r.p50);
    report->AddResult(std::string(name) + "_p99_micros", r.p99);
    report->AddResult(std::string(name) + "_cache_hits",
                      static_cast<double>(r.cache_hits));
  }

  return RunNetSweep(flags, report, &snapshots, workers);
}

}  // namespace
}  // namespace treelattice

int main(int argc, char** argv) {
  treelattice::Flags flags(argc, argv);
  treelattice::BenchReport report("bench_ext_serve", flags);
  return report.Finish(treelattice::Run(flags, &report));
}
