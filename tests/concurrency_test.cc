// Concurrency suite: hammers the components that DESIGN.md documents as
// thread-safe — the metrics registry, the tracer, the fault-injecting
// Env, and a shared estimator — from many threads at once. The point is
// less the assertions (though totals must add up) than the interleaving
// itself: `tools/run_sanitized_tests.sh thread` runs this binary under
// ThreadSanitizer, which turns any data race into a failure.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/recursive_estimator.h"
#include "io/env.h"
#include "io/fault_env.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/estimate_cache.h"
#include "serve/server.h"
#include "serve/slow_log.h"
#include "serve/snapshot.h"
#include "serve/transport.h"
#include "summary/lattice_summary.h"
#include "temp_path.h"
#include "twig/twig.h"
#include "util/hash.h"
#include "xml/label_dict.h"

namespace treelattice {
namespace {

constexpr int kThreads = 8;
constexpr int kOpsPerThread = 5000;

// Launches `n` threads running `fn(thread_index)` and joins them all.
template <typename Fn>
void RunThreads(int n, Fn fn) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(n));
  for (int t = 0; t < n; ++t) threads.emplace_back(fn, t);
  for (std::thread& th : threads) th.join();
}

TEST(ConcurrencyTest, MetricsRegistryHammer) {
  obs::SetEnabledForTest(true);
  obs::MetricsRegistry* registry = obs::MetricsRegistry::Default();
  registry->ResetAll();

  std::atomic<bool> stop{false};
  // A reader thread snapshots the registry while writers mutate it: the
  // maps grow concurrently with ToJson/ToPrometheusText walking them.
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)registry->ToJson();
      (void)registry->ToPrometheusText();
    }
  });

  RunThreads(kThreads, [&](int t) {
    // Same-name lookups from every thread must return the same object;
    // distinct names interleave registrations with the reader.
    obs::Counter* shared = registry->counter("test.concurrency_shared");
    obs::Counter* own = registry->counter("test.concurrency_thread_" +
                                          std::to_string(t));
    obs::Gauge* peak = registry->gauge("test.concurrency_peak");
    obs::Histogram* hist = registry->histogram("test.concurrency_hist");
    for (int i = 0; i < kOpsPerThread; ++i) {
      shared->Increment();
      own->Increment(2);
      peak->SetMax(t * kOpsPerThread + i);
      hist->Record(static_cast<uint64_t>(i));
    }
  });
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(registry->counter("test.concurrency_shared")->value(),
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(registry
                  ->counter("test.concurrency_thread_" + std::to_string(t))
                  ->value(),
              2u * kOpsPerThread);
  }
  EXPECT_EQ(registry->gauge("test.concurrency_peak")->value(),
            static_cast<int64_t>(kThreads) * kOpsPerThread - 1);
  obs::Histogram::Snapshot snap =
      registry->histogram("test.concurrency_hist")->GetSnapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(snap.max, static_cast<uint64_t>(kOpsPerThread) - 1);
  registry->ResetAll();
}

TEST(ConcurrencyTest, TracerHammer) {
  obs::Tracer::Start();

  std::atomic<bool> stop{false};
  // Concurrent dumps: ChromeTraceJson walks every thread's buffer while
  // those threads are still appending.
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)obs::Tracer::ChromeTraceJson();
      (void)obs::Tracer::CollectedEvents();
    }
  });

  constexpr int kSpansPerThread = 2000;
  RunThreads(kThreads, [&](int t) {
    for (int i = 0; i < kSpansPerThread; ++i) {
      obs::TraceSpan span("concurrency.span", "test");
      span.SetArg("thread", static_cast<uint64_t>(t));
    }
  });
  stop.store(true, std::memory_order_release);
  reader.join();
  obs::Tracer::Stop();

  EXPECT_GE(obs::Tracer::CollectedEvents(),
            static_cast<size_t>(kThreads) * kSpansPerThread);
  std::string json = obs::Tracer::ChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("concurrency.span"), std::string::npos);

  // Restart discards everything collected above (fresh epoch).
  obs::Tracer::Start();
  obs::Tracer::Stop();
  EXPECT_EQ(obs::Tracer::CollectedEvents(), 0u);
}

TEST(ConcurrencyTest, FaultEnvCountersAddUp) {
  FaultInjectingEnv env(Env::Default());

  constexpr int kAppendsPerThread = 50;
  const std::string chunk(128, 'x');
  std::atomic<bool> stop{false};
  // Counter reads race with the file operations below.
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)env.bytes_written();
      (void)env.appends();
      (void)env.syncs();
      (void)env.reads();
    }
  });

  RunThreads(kThreads, [&](int t) {
    const std::string path =
        UniqueTempPath("tl_concurrency_" + std::to_string(t) + ".dat");
    auto file = env.NewWritableFile(path);
    ASSERT_TRUE(file.ok()) << file.status().message();
    for (int i = 0; i < kAppendsPerThread; ++i) {
      ASSERT_TRUE((*file)->Append(chunk).ok());
    }
    ASSERT_TRUE((*file)->Sync().ok());
    ASSERT_TRUE((*file)->Close().ok());
    std::string back;
    ASSERT_TRUE(ReadFileToString(&env, path, &back).ok());
    ASSERT_EQ(back.size(), chunk.size() * kAppendsPerThread);
    ASSERT_TRUE(env.DeleteFile(path).ok());
  });
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(env.appends(), kThreads * kAppendsPerThread);
  EXPECT_EQ(env.bytes_written(),
            static_cast<int64_t>(chunk.size()) * kThreads * kAppendsPerThread);
  EXPECT_EQ(env.syncs(), kThreads);
  EXPECT_EQ(env.deletes(), kThreads);
}

TEST(ConcurrencyTest, FaultEnvWriteBudgetConsumedAtomically) {
  FaultInjectingEnv env(Env::Default());

  // A budget that runs out mid-test: with 1-byte appends racing from
  // every thread, exactly `kBudget` may succeed — any other total means
  // the check-and-consume was torn between threads.
  constexpr int64_t kBudget = kThreads * 100;
  env.config().fail_write_after_bytes = kBudget;

  std::atomic<int> successes{0};
  RunThreads(kThreads, [&](int t) {
    const std::string path =
        UniqueTempPath("tl_budget_" + std::to_string(t) + ".dat");
    auto file = env.NewWritableFile(path);
    ASSERT_TRUE(file.ok()) << file.status().message();
    for (int i = 0; i < 200; ++i) {
      if ((*file)->Append("x").ok()) {
        successes.fetch_add(1, std::memory_order_relaxed);
      }
    }
    ASSERT_TRUE((*file)->Close().ok());
    ASSERT_TRUE(env.DeleteFile(path).ok());
  });

  EXPECT_EQ(successes.load(), kBudget);
  EXPECT_EQ(env.bytes_written(), kBudget);
}

TEST(ConcurrencyTest, SharedEstimatorHammer) {
  // A summary complete through level 2: the level-3 query below is not
  // stored, so every Estimate call runs the decomposition recursion with
  // its per-call memo against the shared read-only summary.
  LatticeSummary summary(3);
  auto insert = [&summary](const char* code, uint64_t count) {
    Result<Twig> twig = Twig::FromCanonicalCode(code);
    ASSERT_TRUE(twig.ok());
    ASSERT_TRUE(summary.Insert(*twig, count).ok());
  };
  insert("0", 10);
  insert("1", 8);
  insert("2", 6);
  insert("0(1)", 5);
  insert("0(2)", 4);
  insert("1(2)", 3);
  summary.set_complete_through_level(2);

  RecursiveDecompositionEstimator plain(&summary);
  RecursiveDecompositionEstimator::Options voting_options;
  voting_options.voting = true;
  RecursiveDecompositionEstimator voting(&summary, voting_options);

  Result<Twig> stored = Twig::FromCanonicalCode("0(1)");
  Result<Twig> decomposed = Twig::FromCanonicalCode("0(1,2)");
  ASSERT_TRUE(stored.ok());
  ASSERT_TRUE(decomposed.ok());

  // Single-threaded reference answers; every thread must reproduce them.
  Result<double> stored_want = plain.Estimate(*stored);
  Result<double> decomposed_want = plain.Estimate(*decomposed);
  Result<double> voting_want = voting.Estimate(*decomposed);
  ASSERT_TRUE(stored_want.ok());
  ASSERT_TRUE(decomposed_want.ok());
  ASSERT_TRUE(voting_want.ok());
  EXPECT_DOUBLE_EQ(*stored_want, 5.0);
  EXPECT_DOUBLE_EQ(*decomposed_want, 5.0 * 4.0 / 10.0);

  RunThreads(kThreads, [&](int /*t*/) {
    for (int i = 0; i < 500; ++i) {
      Result<double> a = plain.Estimate(*stored);
      Result<double> b = plain.Estimate(*decomposed);
      Result<double> c = voting.Estimate(*decomposed);
      ASSERT_TRUE(a.ok() && b.ok() && c.ok());
      ASSERT_DOUBLE_EQ(*a, *stored_want);
      ASSERT_DOUBLE_EQ(*b, *decomposed_want);
      ASSERT_DOUBLE_EQ(*c, *voting_want);
    }
  });
}


TEST(ConcurrencyTest, EstimateCacheHammer) {
  // 8 threads Put/Get the serve-layer estimate cache across two racing
  // snapshot versions while a ninth thread fires full invalidations. The
  // per-shard version fence must hold under every interleaving: a Get at
  // version V either misses or returns exactly the value some thread Put
  // at version V for that code — a value from the other version is a
  // served-stale-estimate bug (and any locking slip is a TSan failure).
  serve::EstimateCache::Options options;
  options.capacity = 64;  // small: forces eviction churn alongside the race
  options.shards = 4;
  serve::EstimateCache cache(options);

  constexpr int kCodes = 16;
  std::vector<std::string> codes;
  std::vector<uint64_t> hashes;
  for (int i = 0; i < kCodes; ++i) {
    codes.push_back("0(" + std::to_string(i + 1) + ")");
    hashes.push_back(HashBytes(codes.back()));
  }
  auto value_for = [](int64_t version, int code) {
    return static_cast<double>(version) * 1000.0 + static_cast<double>(code);
  };

  std::atomic<bool> stop{false};
  std::thread invalidator([&] {
    while (!stop.load(std::memory_order_acquire)) {
      cache.Invalidate();
      std::this_thread::yield();
    }
  });

  RunThreads(kThreads, [&](int t) {
    for (int i = 0; i < 3000; ++i) {
      const int64_t version = 1 + ((t + i) % 2);
      const int code = (t * 7 + i) % kCodes;
      if (i % 3 == 0) {
        cache.Put(version, hashes[static_cast<size_t>(code)],
                  codes[static_cast<size_t>(code)], value_for(version, code));
      }
      std::optional<double> got =
          cache.Get(version, hashes[static_cast<size_t>(code)],
                    codes[static_cast<size_t>(code)]);
      if (got.has_value()) {
        ASSERT_DOUBLE_EQ(*got, value_for(version, code))
            << "version " << version << " served a value from another "
            << "snapshot generation";
      }
    }
  });
  stop.store(true, std::memory_order_release);
  invalidator.join();

  serve::EstimateCache::Stats stats = cache.GetStats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
}

TEST(ConcurrencyTest, SnapshotHotSwapHammer) {
  // The serve-layer reload race: 8 query threads Get() the serving
  // snapshot — copying its dictionary and binding an estimator to its
  // summary, exactly as server workers do — while a swapper installs
  // fresh snapshots as fast as it can. Every answer must match one of
  // the two snapshot generations; anything else means a query saw a
  // half-installed snapshot.
  LabelDict dict;
  Result<Twig> proto = Twig::Parse("a(b)", &dict);
  ASSERT_TRUE(proto.ok());

  auto make_snapshot = [&](uint64_t count_a, uint64_t count_ab) {
    LatticeSummary summary(2);
    LatticeSummary* s = &summary;
    Result<Twig> a = Twig::Parse("a", &dict);
    EXPECT_TRUE(a.ok());
    EXPECT_TRUE(s->Insert(*a, count_a).ok());
    EXPECT_TRUE(s->Insert(*proto, count_ab).ok());
    summary.set_complete_through_level(2);
    return std::make_shared<serve::SummarySnapshot>(std::move(summary),
                                                    LabelDict(dict));
  };

  constexpr double kWantV1 = 5.0;
  constexpr double kWantV2 = 90.0;
  serve::SnapshotHolder holder;
  holder.Swap(make_snapshot(10, 5));

  std::atomic<bool> stop{false};
  std::thread swapper([&] {
    bool odd = true;
    while (!stop.load(std::memory_order_acquire)) {
      holder.Swap(odd ? make_snapshot(100, 90) : make_snapshot(10, 5));
      odd = !odd;
    }
  });

  RunThreads(kThreads, [&](int /*t*/) {
    for (int i = 0; i < 2000; ++i) {
      std::shared_ptr<const serve::SummarySnapshot> snapshot = holder.Get();
      ASSERT_NE(snapshot, nullptr);
      LabelDict worker_dict(snapshot->dict);
      Result<Twig> query = Twig::Parse("a(b)", &worker_dict);
      ASSERT_TRUE(query.ok());
      RecursiveDecompositionEstimator estimator(&snapshot->summary);
      Result<double> estimate = estimator.Estimate(*query);
      ASSERT_TRUE(estimate.ok()) << estimate.status().ToString();
      ASSERT_TRUE(*estimate == kWantV1 || *estimate == kWantV2)
          << "estimate " << *estimate << " from snapshot v"
          << snapshot->version << " matches neither generation";
    }
  });
  stop.store(true, std::memory_order_release);
  swapper.join();
  EXPECT_GE(holder.version(), 1);
}

TEST(ConcurrencyTest, ServerBatchHammer) {
  // 8 threads fire batch lines at one shared Server — duplicates inside
  // every batch, a parse error mixed in, and the occasional single
  // request — against a deliberately small admission queue with slowed
  // workers, so batch admission, all-or-nothing shedding, the shared
  // estimate cache, and the per-batch arena reset all race. Conservation
  // must hold item-by-item: every offered query gets exactly one
  // response, every array line yields exactly one batch response, and
  // every ok answer carries the exact single-query bits (DESIGN.md §14).
  LabelDict dict;
  LatticeSummary summary(2);
  auto insert = [&](const char* text, uint64_t count) {
    Result<Twig> twig = Twig::Parse(text, &dict);
    ASSERT_TRUE(twig.ok());
    ASSERT_TRUE(summary.Insert(*twig, count).ok());
  };
  insert("a", 10);
  insert("b", 8);
  insert("c", 6);
  insert("a(b)", 5);
  insert("a(c)", 3);
  insert("b(c)", 4);
  summary.set_complete_through_level(2);
  serve::SnapshotHolder holder;
  holder.Swap(std::make_shared<serve::SummarySnapshot>(std::move(summary),
                                                       LabelDict(dict)));

  constexpr double kWantAB = 5.0;          // stored
  constexpr double kWantABC = 5.0 * 3.0 / 10.0;  // decomposed a(b,c)
  constexpr double kWantBC = 4.0;          // stored

  std::atomic<uint64_t> batch_responses{0};
  std::atomic<uint64_t> item_responses{0};
  std::atomic<uint64_t> single_responses{0};
  auto check_item = [&](const serve::ServeResponse& item) {
    if (!item.ok) {
      ASSERT_FALSE(item.error_code.empty()) << item.query;
      return;
    }
    // Exact bits: dedup, the shared batch memo, and the cache filter
    // must be invisible in the values under every interleaving.
    if (item.query == "a(b)") {
      ASSERT_EQ(item.estimate, kWantAB);
    } else if (item.query == "a(b,c)") {
      ASSERT_EQ(item.estimate, kWantABC);
    } else if (item.query == "b(c)") {
      ASSERT_EQ(item.estimate, kWantBC);
    }
  };

  serve::ServerOptions options;
  options.queue_capacity = 24;     // small: forces whole-batch shedding
  options.worker_delay_millis = 0.2;  // keeps the queue under pressure
  serve::Server server(
      &holder, options, [&](serve::ServeBatchResponse response) {
        if (response.scalar) {
          single_responses.fetch_add(1, std::memory_order_relaxed);
          check_item(response.items.front());
          return;
        }
        batch_responses.fetch_add(1, std::memory_order_relaxed);
        item_responses.fetch_add(response.items.size(),
                                 std::memory_order_relaxed);
        for (size_t i = 0; i < response.items.size(); ++i) {
          // Scatter must preserve the client's per-item ids in order.
          ASSERT_EQ(response.items[i].id, i + 1);
          check_item(response.items[i]);
        }
      });

  constexpr int kBatchesPerThread = 50;
  constexpr size_t kBatchItems = 4;
  std::atomic<uint64_t> offered_batches{0};
  std::atomic<uint64_t> offered_singles{0};
  RunThreads(kThreads, [&](int t) {
    for (int i = 0; i < kBatchesPerThread; ++i) {
      serve::ServeBatch batch;
      batch.scalar = false;
      const char* queries[kBatchItems] = {
          "a(b)", "a(b,c)", "a(b)", (i % 5 == 0) ? "((((" : "b(c)"};
      for (size_t j = 0; j < kBatchItems; ++j) {
        serve::ServeRequest item;
        item.id = j + 1;
        item.query = queries[j];
        batch.items.push_back(std::move(item));
      }
      offered_batches.fetch_add(1, std::memory_order_relaxed);
      (void)server.Submit(std::move(batch));  // shed is a response too
      if ((t + i) % 7 == 0) {
        serve::ServeBatch single;
        single.items.resize(1);
        single.items[0].id = 1;
        single.items[0].query = "a(b,c)";
        offered_singles.fetch_add(1, std::memory_order_relaxed);
        (void)server.Submit(std::move(single));
      }
    }
  });
  server.Shutdown();

  const uint64_t offered_queries =
      offered_batches.load() * kBatchItems + offered_singles.load();
  EXPECT_EQ(batch_responses.load(), offered_batches.load());
  EXPECT_EQ(item_responses.load(), offered_batches.load() * kBatchItems);
  EXPECT_EQ(single_responses.load(), offered_singles.load());

  serve::Server::Stats stats = server.GetStats();
  EXPECT_EQ(stats.submitted + stats.shed, offered_queries);
  EXPECT_EQ(stats.ok + stats.errors, offered_queries);
  EXPECT_EQ(stats.queue_depth, 0u);
}

// --- TCP transport churn -------------------------------------------------

namespace transport_hammer {

int ConnectTo(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, 0);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// Reads until `want` newline-terminated lines arrived or EOF/timeout;
/// returns how many lines it saw.
int ReadLines(int fd, int want, int timeout_millis) {
  int lines = 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_millis);
  while (lines < want) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) break;
    pollfd pfd{fd, POLLIN, 0};
    const int wait = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count());
    if (::poll(&pfd, 1, std::max(wait, 1)) <= 0) break;
    char buf[4096];
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    for (ssize_t i = 0; i < n; ++i) {
      if (buf[i] == '\n') ++lines;
    }
  }
  return lines;
}

/// Everything the peer sends until EOF or timeout (admin responses end
/// with the server closing the connection).
std::string ReadToEof(int fd, int timeout_millis) {
  std::string out;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_millis);
  for (;;) {
    if (std::chrono::steady_clock::now() >= deadline) break;
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 50) <= 0) continue;
    char buf[4096];
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  return out;
}

}  // namespace transport_hammer

TEST(ConcurrencyTest, TransportConnectionChurnHammer) {
  // 8 client threads churn real TCP connections against the transport —
  // connect, pipeline a few queries, read the answers, disconnect (every
  // third connection abandons its responses instead of reading; every
  // fifth slams the door mid-flight) — while one thread hot-swaps the
  // snapshot through the '#reload' control path. The transport's event
  // loop, the worker pool, and the completion queue all interleave; TSan
  // (tools/run_sanitized_tests.sh thread) turns any race into a failure.
  using transport_hammer::ConnectTo;
  using transport_hammer::ReadLines;
  using transport_hammer::SendAll;

  LabelDict dict;
  auto make_snapshot = [&] {
    LatticeSummary summary(2);
    for (const auto& [text, count] :
         std::vector<std::pair<std::string, uint64_t>>{
             {"a", 10}, {"b", 8}, {"a(b)", 5}}) {
      Result<Twig> twig = Twig::Parse(text, &dict);
      EXPECT_TRUE(twig.ok());
      EXPECT_TRUE(summary.Insert(*twig, count).ok());
    }
    summary.set_complete_through_level(2);
    return std::make_shared<serve::SummarySnapshot>(std::move(summary),
                                                    LabelDict(dict));
  };

  serve::SnapshotHolder holder;
  holder.Swap(make_snapshot());

  serve::ServerOptions server_options;
  server_options.workers = 4;
  auto control = [&](std::string_view line) -> std::string {
    if (line != "#reload") return std::string();
    holder.Swap(make_snapshot());
    return "{\"reload\":{\"ok\":true}}";
  };
  serve::Transport transport(&holder, server_options, {}, control);
  Result<uint16_t> port = transport.Listen();
  ASSERT_TRUE(port.ok()) << port.status().ToString();
  std::thread loop([&] { EXPECT_TRUE(transport.Run().ok()); });

  std::atomic<int> answered{0};
  RunThreads(kThreads, [&](int t) {
    for (int round = 0; round < 25; ++round) {
      int fd = ConnectTo(*port);
      ASSERT_GE(fd, 0);
      std::string burst;
      for (int q = 0; q < 5; ++q) {
        burst += "{\"query\": \"a(b)\", \"id\": " + std::to_string(q + 1) +
                 "}\n";
      }
      // One thread injects a #reload mid-flight each round.
      if (t == 0) burst += "#reload\n";
      if (!SendAll(fd, burst)) {
        ::close(fd);
        continue;
      }
      const int want = 5 + (t == 0 ? 1 : 0);
      if (round % 5 == 4) {
        // Slam the door: RST with requests possibly still in flight.
        linger lg{1, 0};
        setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
      } else if (round % 3 != 2) {
        // Most connections politely read everything they asked for.
        answered.fetch_add(ReadLines(fd, want, 10000),
                           std::memory_order_relaxed);
      }
      ::close(fd);
    }
  });

  transport.RequestShutdown();
  loop.join();

  serve::Transport::Stats stats = transport.GetStats();
  EXPECT_GT(answered.load(), 0);
  // Exactly-once accounting holds under churn: every admitted request was
  // either delivered to its connection's buffer or counted orphaned.
  EXPECT_EQ(stats.requests_admitted,
            stats.responses_delivered + stats.responses_orphaned);
  EXPECT_EQ(stats.active, 0u);
}

TEST(ConcurrencyTest, AdminScrapesRaceTheRegistryHammer) {
  // Two scraper threads GET /metrics and /statusz over real HTTP while 8
  // writer threads mutate the very registry those endpoints render. Every
  // scrape must come back 200 with a complete body; TSan turns any tear
  // in the registry walk into a failure.
  using transport_hammer::ConnectTo;
  using transport_hammer::ReadToEof;
  using transport_hammer::SendAll;

  obs::SetEnabledForTest(true);
  LabelDict dict;
  LatticeSummary summary(2);
  for (const auto& [text, count] :
       std::vector<std::pair<std::string, uint64_t>>{
           {"a", 10}, {"b", 8}, {"a(b)", 5}}) {
    Result<Twig> twig = Twig::Parse(text, &dict);
    ASSERT_TRUE(twig.ok());
    ASSERT_TRUE(summary.Insert(*twig, count).ok());
  }
  summary.set_complete_through_level(2);
  serve::SnapshotHolder holder;
  holder.Swap(std::make_shared<serve::SummarySnapshot>(std::move(summary),
                                                       std::move(dict)));

  serve::SlowQueryLog slow_log({/*threshold_millis=*/1.0, /*capacity=*/32});
  serve::Transport::Options net;
  net.admin_enabled = true;
  net.slow_log = &slow_log;
  serve::Transport transport(&holder, serve::ServerOptions(), net, nullptr);
  Result<uint16_t> port = transport.Listen();
  ASSERT_TRUE(port.ok()) << port.status().ToString();
  std::thread loop([&] { EXPECT_TRUE(transport.Run().ok()); });
  const uint16_t admin = transport.admin_port();
  ASSERT_NE(admin, 0);

  std::atomic<bool> stop{false};
  std::atomic<int> scrapes{0};
  std::vector<std::thread> scrapers;
  for (int s = 0; s < 2; ++s) {
    scrapers.emplace_back([&, s] {
      const std::string request =
          std::string("GET ") + (s == 0 ? "/metrics" : "/statusz") +
          " HTTP/1.1\r\nHost: test\r\n\r\n";
      while (!stop.load(std::memory_order_acquire)) {
        int fd = ConnectTo(admin);
        if (fd < 0) continue;
        if (SendAll(fd, request)) {
          std::string raw = ReadToEof(fd, 5000);
          if (raw.rfind("HTTP/1.1 200", 0) == 0 &&
              raw.find("\r\n\r\n") != std::string::npos) {
            scrapes.fetch_add(1, std::memory_order_relaxed);
          }
        }
        ::close(fd);
      }
    });
  }

  RunThreads(kThreads, [&](int t) {
    obs::MetricsRegistry* registry = obs::MetricsRegistry::Default();
    obs::Counter* counter = registry->counter("test.admin_hammer");
    obs::Histogram* hist = registry->histogram("test.admin_hammer_hist");
    obs::Counter* own =
        registry->counter("test.admin_hammer_" + std::to_string(t));
    for (int i = 0; i < kOpsPerThread; ++i) {
      counter->Increment();
      own->Increment();
      hist->Record(static_cast<uint64_t>(i));
    }
  });
  stop.store(true, std::memory_order_release);
  for (std::thread& s : scrapers) s.join();
  transport.RequestShutdown();
  loop.join();

  EXPECT_GT(scrapes.load(), 0);
  EXPECT_EQ(obs::MetricsRegistry::Default()->counter("test.admin_hammer")
                ->value(),
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  obs::MetricsRegistry::Default()->ResetAll();
}

}  // namespace
}  // namespace treelattice
