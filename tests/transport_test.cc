// TCP transport suite: the epoll/poll event loop end to end over real
// sockets — round trips, pipelining, many connections, the connection cap,
// frame limits, idle and slowloris timeouts, backpressure, half-close vs.
// abortive close, graceful drain, and lossless operation under injected
// socket faults. The companion framing unit tests live here too; the
// mutation fuzzer for the framer is tests/fuzz/fuzz_framing.cc.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "serve/conn.h"
#include "serve/slow_log.h"
#include "serve/transport.h"
#include "summary/lattice_summary.h"
#include "temp_path.h"
#include "twig/twig.h"
#include "util/json.h"
#include "xml/label_dict.h"

namespace treelattice {
namespace serve {
namespace {

std::shared_ptr<SummarySnapshot> BuildSnapshot() {
  LabelDict dict;
  LatticeSummary summary(2);
  auto insert = [&](const std::string& text, uint64_t count) {
    Result<Twig> twig = Twig::Parse(text, &dict);
    ASSERT_TRUE(twig.ok()) << twig.status().ToString();
    ASSERT_TRUE(summary.Insert(*twig, count).ok());
  };
  insert("a", 10);
  insert("b", 8);
  insert("c", 6);
  insert("a(b)", 5);
  insert("b(c)", 4);
  summary.set_complete_through_level(2);
  return std::make_shared<SummarySnapshot>(std::move(summary),
                                           std::move(dict));
}

/// A transport over an in-memory snapshot, its Run loop on a background
/// thread. Stop() requests the graceful drain and joins.
class TestTransport {
 public:
  explicit TestTransport(Transport::Options net_options = {},
                         ServerOptions server_options = {},
                         Transport::ControlHandler control = nullptr) {
    Init(std::move(net_options), std::move(server_options),
         std::move(control));
  }

  ~TestTransport() { Stop(); }

  void Stop() {
    if (!thread_.joinable()) return;
    transport_->RequestShutdown();
    thread_.join();
    EXPECT_TRUE(run_status_.ok()) << run_status_.ToString();
  }

  uint16_t port() const { return port_; }
  Transport& transport() { return *transport_; }
  SnapshotHolder& snapshots() { return snapshots_; }

 private:
  // gtest ASSERTs only work in void functions, hence not the constructor.
  void Init(Transport::Options net_options, ServerOptions server_options,
            Transport::ControlHandler control) {
    auto snapshot = BuildSnapshot();
    snapshots_.Swap(snapshot);
    server_options.workers = std::min(server_options.workers, 4);
    transport_ = std::make_unique<Transport>(&snapshots_, server_options,
                                             net_options, std::move(control));
    Result<uint16_t> port = transport_->Listen();
    ASSERT_TRUE(port.ok()) << port.status().ToString();
    port_ = *port;
    thread_ = std::thread([this] { run_status_ = transport_->Run(); });
  }

  SnapshotHolder snapshots_;
  std::unique_ptr<Transport> transport_;
  uint16_t port_ = 0;
  std::thread thread_;
  Status run_status_ = Status::OK();
};

/// Blocking client socket with a buffered line reader (blocking is fine
/// here — only the transport itself must stay non-blocking).
class Client {
 public:
  explicit Client(uint16_t port) { Connect(port); }

  ~Client() { Close(); }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  /// Closes abortively: SO_LINGER 0 makes close() emit an RST.
  void Reset() {
    linger lg{1, 0};
    setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    Close();
  }

  void ShutdownWrite() { ::shutdown(fd_, SHUT_WR); }

  void Send(std::string_view data) {
    size_t sent = 0;
    while (sent < data.size()) {
      ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent, 0);
      ASSERT_GT(n, 0) << strerror(errno);
      sent += static_cast<size_t>(n);
    }
  }

  /// Next complete line, or nullopt on EOF/timeout.
  std::optional<std::string> NextLine(int timeout_millis = 10000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_millis);
    for (;;) {
      size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) return std::nullopt;
      pollfd pfd{fd_, POLLIN, 0};
      const int wait = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                now)
              .count());
      if (::poll(&pfd, 1, std::max(wait, 1)) <= 0) return std::nullopt;
      char chunk[4096];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return std::nullopt;  // EOF or error
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  /// Everything received until EOF or timeout — the shape of an admin
  /// response, which always ends with the server closing.
  std::string ReadAll(int timeout_millis = 10000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_millis);
    for (;;) {
      if (std::chrono::steady_clock::now() >= deadline) break;
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 50) <= 0) continue;
      char chunk[4096];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
    std::string all = std::move(buffer_);
    buffer_.clear();
    return all;
  }

  /// True when the peer closed (recv returns 0) within the timeout.
  bool WaitForEof(int timeout_millis = 10000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_millis);
    for (;;) {
      if (std::chrono::steady_clock::now() >= deadline) return false;
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 50) <= 0) continue;
      char chunk[4096];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n == 0) return true;
      if (n < 0) return true;  // RST counts as closed
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  int fd() const { return fd_; }

 private:
  void Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
        << strerror(errno);
  }

  int fd_ = -1;
  std::string buffer_;
};

JsonValue MustParse(const std::string& line) {
  Result<JsonValue> value = ParseJson(line);
  EXPECT_TRUE(value.ok()) << value.status().ToString() << " in: " << line;
  return value.ok() ? *value : JsonValue();
}

std::string RequestLine(uint64_t id) {
  return "{\"query\": \"a(b)\", \"id\": " + std::to_string(id) + "}\n";
}

TEST(TransportTest, RoundTripAndPipelining) {
  TestTransport server;
  Client client(server.port());
  std::string burst;
  for (uint64_t id = 1; id <= 20; ++id) burst += RequestLine(id);
  client.Send(burst);

  std::vector<bool> seen(21, false);
  for (int i = 0; i < 20; ++i) {
    std::optional<std::string> line = client.NextLine();
    ASSERT_TRUE(line.has_value()) << "response " << i << " missing";
    JsonValue value = MustParse(*line);
    const JsonValue* ok = value.Find("ok");
    ASSERT_NE(ok, nullptr);
    EXPECT_TRUE(ok->bool_value) << *line;
    const JsonValue* id = value.Find("id");
    ASSERT_NE(id, nullptr);
    const auto n = static_cast<uint64_t>(id->number_value);
    ASSERT_GE(n, 1u);
    ASSERT_LE(n, 20u);
    EXPECT_FALSE(seen[n]) << "duplicate id " << n;
    seen[n] = true;
  }
  client.Close();
  server.Stop();
  Transport::Stats stats = server.transport().GetStats();
  EXPECT_EQ(stats.requests_admitted, 20u);
  EXPECT_EQ(stats.responses_delivered, 20u);
  EXPECT_EQ(stats.responses_orphaned, 0u);
  // Every EventPoller Add/Modify/Remove Status is now checked and tallied;
  // a clean soak (connect, pipeline, close, drain) must tally zero.
  EXPECT_EQ(stats.poller_errors, 0u);
}

TEST(TransportTest, ManyConnectionsEachGetTheirOwnAnswers) {
  TestTransport server;
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < 8; ++c) {
    clients.push_back(std::make_unique<Client>(server.port()));
  }
  for (int c = 0; c < 8; ++c) {
    std::string burst;
    // Ids are per-connection: overlapping ranges across connections prove
    // responses route by connection, not globally.
    for (uint64_t id = 1; id <= 5; ++id) burst += RequestLine(id);
    clients[static_cast<size_t>(c)]->Send(burst);
  }
  for (auto& client : clients) {
    std::vector<bool> seen(6, false);
    for (int i = 0; i < 5; ++i) {
      std::optional<std::string> line = client->NextLine();
      ASSERT_TRUE(line.has_value());
      JsonValue value = MustParse(*line);
      const auto id =
          static_cast<uint64_t>(value.Find("id")->number_value);
      ASSERT_GE(id, 1u);
      ASSERT_LE(id, 5u);
      EXPECT_FALSE(seen[id]);
      seen[id] = true;
    }
  }
}

TEST(TransportTest, ConnectionCapTurnsAwayWithResourceExhausted) {
  Transport::Options options;
  options.max_connections = 2;
  TestTransport server(options);
  Client first(server.port());
  Client second(server.port());
  // The first two must be established before the third tries, or accept
  // order could let the third in under the cap.
  first.Send(RequestLine(1));
  ASSERT_TRUE(first.NextLine().has_value());
  second.Send(RequestLine(1));
  ASSERT_TRUE(second.NextLine().has_value());

  Client third(server.port());
  std::optional<std::string> line = third.NextLine();
  ASSERT_TRUE(line.has_value());
  JsonValue value = MustParse(*line);
  const JsonValue* error = value.Find("error");
  ASSERT_NE(error, nullptr) << *line;
  EXPECT_EQ(error->Find("code")->string_value, "ResourceExhausted");
  EXPECT_TRUE(third.WaitForEof());

  server.Stop();
  EXPECT_EQ(server.transport().GetStats().rejected, 1u);
}

TEST(TransportTest, OversizedFrameFailsTheRequestNotTheConnection) {
  Transport::Options options;
  options.max_frame_bytes = 128;
  TestTransport server(options);
  Client client(server.port());
  client.Send(std::string(1000, 'x') + "\n" + RequestLine(7));

  std::optional<std::string> line = client.NextLine();
  ASSERT_TRUE(line.has_value());
  JsonValue value = MustParse(*line);
  const JsonValue* error = value.Find("error");
  ASSERT_NE(error, nullptr) << *line;
  EXPECT_EQ(error->Find("code")->string_value, "InvalidArgument");

  line = client.NextLine();
  ASSERT_TRUE(line.has_value()) << "connection should have survived";
  value = MustParse(*line);
  EXPECT_TRUE(value.Find("ok")->bool_value);
  EXPECT_EQ(static_cast<uint64_t>(value.Find("id")->number_value), 7u);

  server.Stop();
  EXPECT_EQ(server.transport().GetStats().frames_oversized, 1u);
}

TEST(TransportTest, MalformedRequestLineGetsAnErrorResponse) {
  TestTransport server;
  Client client(server.port());
  client.Send("{\"query\": 42}\n");
  std::optional<std::string> line = client.NextLine();
  ASSERT_TRUE(line.has_value());
  JsonValue value = MustParse(*line);
  EXPECT_FALSE(value.Find("ok")->bool_value);
  ASSERT_NE(value.Find("error"), nullptr);
}

TEST(TransportTest, IdleConnectionIsClosed) {
  Transport::Options options;
  options.idle_timeout_millis = 100.0;
  TestTransport server(options);
  Client client(server.port());
  EXPECT_TRUE(client.WaitForEof(5000));
  server.Stop();
  EXPECT_EQ(server.transport().GetStats().idle_timeouts, 1u);
}

TEST(TransportTest, SlowlorisMidFrameIsClosed) {
  Transport::Options options;
  options.request_timeout_millis = 100.0;
  options.idle_timeout_millis = 0.0;  // isolate the mid-frame defense
  TestTransport server(options);
  Client client(server.port());
  client.Send("{\"query\": \"a(b)\"");  // frame never completed
  EXPECT_TRUE(client.WaitForEof(5000));
  server.Stop();
  EXPECT_EQ(server.transport().GetStats().request_timeouts, 1u);
}

TEST(TransportTest, HalfCloseStillAnswersEverythingThenCloses) {
  TestTransport server;
  Client client(server.port());
  std::string burst;
  for (uint64_t id = 1; id <= 5; ++id) burst += RequestLine(id);
  client.Send(burst);
  client.ShutdownWrite();  // orderly EOF with requests still in flight
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.NextLine().has_value()) << "response " << i;
  }
  EXPECT_TRUE(client.WaitForEof());
  server.Stop();
  Transport::Stats stats = server.transport().GetStats();
  EXPECT_EQ(stats.responses_delivered, 5u);
  EXPECT_EQ(stats.responses_orphaned, 0u);
}

TEST(TransportTest, ResetCancelsInFlightWorkAndCountsOrphans) {
  ServerOptions server_options;
  server_options.worker_delay_millis = 50.0;  // keep requests in flight
  TestTransport server({}, server_options);
  {
    Client client(server.port());
    client.Send(RequestLine(1) + RequestLine(2));
    // An RST discards unread kernel data, so wait until both frames are
    // admitted before pulling the plug; the worker delay keeps them in
    // flight when the reset lands.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server.transport().GetStats().requests_admitted < 2 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    client.Reset();  // RST while both are queued or running
  }
  server.Stop();  // drains; the orphaned responses are accounted
  Transport::Stats stats = server.transport().GetStats();
  EXPECT_EQ(stats.requests_admitted, 2u);
  EXPECT_EQ(stats.responses_delivered + stats.responses_orphaned, 2u);
  EXPECT_GE(stats.responses_orphaned, 1u);
  EXPECT_GE(stats.resets, 1u);
}

TEST(TransportTest, GracefulDrainAnswersEverythingAdmitted) {
  ServerOptions server_options;
  server_options.worker_delay_millis = 10.0;
  server_options.workers = 2;
  TestTransport server({}, server_options);
  Client client(server.port());
  std::string burst;
  for (uint64_t id = 1; id <= 30; ++id) burst += RequestLine(id);
  client.Send(burst);
  // Shut down while most of the burst is still queued: the drain contract
  // says every admitted request is answered and flushed before close.
  server.transport().RequestShutdown();
  int answered = 0;
  while (client.NextLine(15000).has_value()) ++answered;
  server.Stop();
  Transport::Stats stats = server.transport().GetStats();
  EXPECT_EQ(static_cast<uint64_t>(answered), stats.requests_admitted);
  EXPECT_EQ(stats.responses_orphaned, 0u);
  EXPECT_GT(stats.drain_micros, 0.0);
}

TEST(TransportTest, FaultInjectionIsLosslessForShortIoAndEagain) {
  Transport::Options options;
  options.faults.seed = 1234;
  options.faults.short_io = 0.4;
  options.faults.eagain = 0.3;
  TestTransport server(options);
  Client client(server.port());
  std::string burst;
  for (uint64_t id = 1; id <= 100; ++id) burst += RequestLine(id);
  client.Send(burst);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(client.NextLine().has_value()) << "response " << i;
  }
  server.Stop();
  Transport::Stats stats = server.transport().GetStats();
  EXPECT_EQ(stats.responses_delivered, 100u);
  EXPECT_GT(stats.injected_faults, 0u);
}

TEST(TransportTest, BackpressurePausesAndResumesUnderEagainStorm) {
  Transport::Options options;
  // A storm of injected EAGAINs on writes makes the response backlog pile
  // up past a tiny high-water mark, pausing reads; the storm passes
  // (probabilistically) and everything still flushes.
  options.faults.seed = 99;
  options.faults.eagain = 0.9;
  options.write_high_water = 512;
  options.write_low_water = 128;
  TestTransport server(options);
  Client client(server.port());
  std::string burst;
  for (uint64_t id = 1; id <= 50; ++id) burst += RequestLine(id);
  client.Send(burst);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(client.NextLine(20000).has_value()) << "response " << i;
  }
  server.Stop();
  Transport::Stats stats = server.transport().GetStats();
  EXPECT_EQ(stats.responses_delivered, 50u);
  EXPECT_GE(stats.backpressure_stalls, 1u);
}

TEST(TransportTest, PollFallbackServesTheSameProtocol) {
  Transport::Options options;
  options.force_poll = true;
  TestTransport server(options);
  Client client(server.port());
  client.Send(RequestLine(1) + "#stats\n" + RequestLine(2));
  int ok_responses = 0;
  bool saw_stats = false;
  for (int i = 0; i < 3; ++i) {
    std::optional<std::string> line = client.NextLine();
    ASSERT_TRUE(line.has_value());
    JsonValue value = MustParse(*line);
    if (value.Find("stats") != nullptr) {
      saw_stats = true;
      ASSERT_NE(value.Find("stats")->Find("net"), nullptr) << *line;
    } else if (value.Find("ok")->bool_value) {
      ++ok_responses;
    }
  }
  EXPECT_EQ(ok_responses, 2);
  EXPECT_TRUE(saw_stats);
}

TEST(TransportTest, ControlHandlerAnswersAndUnknownControlErrors) {
  auto control = [](std::string_view line) -> std::string {
    if (line == "#ping") return "{\"pong\":true}";
    return std::string();
  };
  TestTransport server({}, {}, control);
  Client client(server.port());
  client.Send("#ping\n#bogus\n");
  std::optional<std::string> line = client.NextLine();
  ASSERT_TRUE(line.has_value());
  EXPECT_NE(MustParse(*line).Find("pong"), nullptr);
  line = client.NextLine();
  ASSERT_TRUE(line.has_value());
  JsonValue value = MustParse(*line);
  ASSERT_NE(value.Find("error"), nullptr);
  EXPECT_EQ(value.Find("error")->Find("code")->string_value,
            "InvalidArgument");
}

/// Polls `done` until it holds or 10 s pass; returns its last value.
template <typename Predicate>
bool WaitUntil(Predicate done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(TransportTest, SequentialExchangesWriteOnceEachAndNeverRearmThePoller) {
  TestTransport server;
  {
    Client client(server.port());
    for (uint64_t id = 1; id <= 100; ++id) {
      client.Send(RequestLine(id));
      ASSERT_TRUE(client.NextLine().has_value()) << "response " << id;
    }
  }
  // The client's close ends the connection on its own, so Stop's drain
  // finds no connection to re-arm.
  ASSERT_TRUE(
      WaitUntil([&] { return server.transport().GetStats().active == 0; }));
  server.Stop();
  Transport::Stats stats = server.transport().GetStats();
  EXPECT_EQ(stats.responses_delivered, 100u);
  // Every response left in the write that followed its completion, so the
  // connection never asked the poller for write readiness.
  EXPECT_EQ(stats.writes, 100u);
  EXPECT_EQ(stats.interest_changes, 0u);
}

TEST(TransportTest, LinesDueTogetherLeaveInOneWrite) {
  // One client write carries 32 queries and then a control line whose
  // handler holds the loop until all 32 are answered, so the loop finds 33
  // lines due on one connection at once.
  constexpr uint64_t kQueries = 32;
  std::atomic<Transport*> serving{nullptr};
  auto control = [&serving](std::string_view line) -> std::string {
    if (line != "#hold") return std::string();
    WaitUntil([&] { return serving.load()->GetServerStats().ok >= kQueries; });
    return "{\"held\":true}";
  };
  TestTransport server({}, {}, control);
  serving.store(&server.transport());
  {
    Client client(server.port());
    std::string burst;
    for (uint64_t id = 1; id <= kQueries; ++id) burst += RequestLine(id);
    client.Send(burst + "#hold\n");
    int ok = 0;
    int held = 0;
    for (uint64_t i = 0; i <= kQueries; ++i) {
      std::optional<std::string> line = client.NextLine();
      ASSERT_TRUE(line.has_value()) << "response " << i;
      JsonValue value = MustParse(*line);
      if (value.Find("held") != nullptr) {
        ++held;
      } else if (value.Find("ok")->bool_value) {
        ++ok;
      }
    }
    EXPECT_EQ(ok, static_cast<int>(kQueries));
    EXPECT_EQ(held, 1);
  }
  ASSERT_TRUE(
      WaitUntil([&] { return server.transport().GetStats().active == 0; }));
  server.Stop();
  // One write for the lines found together; a second at most for an answer
  // counted in "ok" just before its completion reached the loop.
  EXPECT_LE(server.transport().GetStats().writes, 2u);
}

// --- Admin plane ---------------------------------------------------------

struct HttpResponse {
  int status = 0;
  std::string headers;  // status line + header block
  std::string body;
};

/// One admin exchange: connect, send `request` verbatim, read to EOF
/// (the admin plane always answers Connection: close), split the result.
HttpResponse AdminFetch(uint16_t admin_port, const std::string& request) {
  Client client(admin_port);
  client.Send(request);
  std::string raw = client.ReadAll();
  HttpResponse response;
  size_t space = raw.find(' ');
  if (space != std::string::npos) {
    response.status = std::atoi(raw.c_str() + space + 1);
  }
  size_t split = raw.find("\r\n\r\n");
  if (split != std::string::npos) {
    response.headers = raw.substr(0, split);
    response.body = raw.substr(split + 4);
  }
  return response;
}

HttpResponse AdminGet(uint16_t admin_port, const std::string& target) {
  return AdminFetch(admin_port,
                    "GET " + target + " HTTP/1.1\r\nHost: test\r\n\r\n");
}

TEST(TransportTest, AdminPlaneServesEveryEndpoint) {
  SlowQueryLog slow_log({/*threshold_millis=*/250.0, /*capacity=*/16});
  Transport::Options options;
  options.admin_enabled = true;
  options.slow_log = &slow_log;
  TestTransport server(options);
  const uint16_t admin = server.transport().admin_port();
  ASSERT_NE(admin, 0);

  Client client(server.port());
  client.Send(RequestLine(1));
  ASSERT_TRUE(client.NextLine().has_value());

  HttpResponse health = AdminGet(admin, "/healthz");
  EXPECT_EQ(health.status, 200);
  JsonValue health_json = MustParse(health.body);
  EXPECT_TRUE(health_json.Find("ok")->bool_value) << health.body;

  HttpResponse statusz = AdminGet(admin, "/statusz");
  EXPECT_EQ(statusz.status, 200);
  JsonValue statusz_json = MustParse(statusz.body);
  EXPECT_GE(statusz_json.Find("snapshot_version")->number_value, 1.0);
  EXPECT_GE(statusz_json.Find("uptime_seconds")->number_value, 0.0);
  ASSERT_NE(statusz_json.Find("stats"), nullptr);
  EXPECT_NE(statusz_json.Find("stats")->Find("net"), nullptr);
  EXPECT_NE(statusz_json.Find("build"), nullptr);

  // '#stats' over the serving port renders the same snapshot: the version
  // the two surfaces report must agree (one BuildStatus path for both).
  client.Send("#stats\n");
  std::optional<std::string> stats_line = client.NextLine();
  ASSERT_TRUE(stats_line.has_value());
  JsonValue stats_json = MustParse(*stats_line);
  ASSERT_NE(stats_json.Find("stats"), nullptr);
  EXPECT_DOUBLE_EQ(
      stats_json.Find("stats")->Find("snapshot_version")->number_value,
      statusz_json.Find("snapshot_version")->number_value);

  HttpResponse metrics = AdminGet(admin, "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.headers.find("text/plain"), std::string::npos);
  EXPECT_NE(metrics.body.find("treelattice_"), std::string::npos);

  HttpResponse slowz = AdminGet(admin, "/slowz");
  EXPECT_EQ(slowz.status, 200);
  EXPECT_NE(MustParse(slowz.body).Find("slowz"), nullptr);

  // Query strings are ignored, unknown paths 404, non-GET methods 405,
  // HEAD gets headers only.
  EXPECT_EQ(AdminGet(admin, "/healthz?verbose=1").status, 200);
  EXPECT_EQ(AdminGet(admin, "/nope").status, 404);
  EXPECT_EQ(
      AdminFetch(admin, "POST /metrics HTTP/1.1\r\nHost: test\r\n\r\n").status,
      405);
  HttpResponse head =
      AdminFetch(admin, "HEAD /healthz HTTP/1.1\r\nHost: test\r\n\r\n");
  EXPECT_EQ(head.status, 200);
  EXPECT_TRUE(head.body.empty()) << head.body;
}

TEST(TransportTest, HealthzReportsNotReadyDuringDrain) {
  Transport::Options options;
  options.admin_enabled = true;
  ServerOptions server_options;
  server_options.workers = 1;
  server_options.worker_delay_millis = 50.0;  // ~1s of backlog below
  TestTransport server(options, server_options);
  const uint16_t admin = server.transport().admin_port();

  EXPECT_EQ(AdminGet(admin, "/healthz").status, 200);

  Client client(server.port());
  std::string burst;
  for (uint64_t id = 1; id <= 20; ++id) burst += RequestLine(id);
  client.Send(burst);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.transport().GetStats().requests_admitted < 5 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The admin listener stays open through the drain precisely so health
  // probes see the flip before the process goes away.
  server.transport().RequestShutdown();
  HttpResponse health = AdminGet(admin, "/healthz");
  EXPECT_EQ(health.status, 503);
  JsonValue health_json = MustParse(health.body);
  EXPECT_FALSE(health_json.Find("ok")->bool_value);
  EXPECT_EQ(health_json.Find("reason")->string_value, "draining");

  while (client.NextLine(15000).has_value()) {
  }
  server.Stop();
}

TEST(TransportTest, SlowQueryLandsInSlowzWithShapeAndStages) {
  obs::SetEnabledForTest(true);
  SlowQueryLog slow_log({/*threshold_millis=*/1.0, /*capacity=*/16});
  Transport::Options options;
  options.admin_enabled = true;
  options.slow_log = &slow_log;
  ServerOptions server_options;
  server_options.worker_delay_millis = 10.0;  // guarantees over-threshold
  TestTransport server(options, server_options);
  const uint16_t admin = server.transport().admin_port();

  Client client(server.port());
  client.Send(RequestLine(1));
  std::optional<std::string> line = client.NextLine();
  ASSERT_TRUE(line.has_value());
  const auto req =
      static_cast<uint64_t>(MustParse(*line).Find("req")->number_value);

  // Finalization runs on the loop thread just after the response bytes
  // reach the kernel; poll /slowz until the entry shows up.
  JsonValue entry;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    HttpResponse slowz = AdminGet(admin, "/slowz");
    ASSERT_EQ(slowz.status, 200);
    JsonValue slowz_json = MustParse(slowz.body);
    const JsonValue* entries = slowz_json.Find("slowz")->Find("entries");
    ASSERT_NE(entries, nullptr);
    if (!entries->array.empty()) {
      entry = entries->array[0];
      break;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "slow query never appeared in /slowz";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  EXPECT_EQ(static_cast<uint64_t>(entry.Find("req")->number_value), req);
  EXPECT_EQ(entry.Find("query")->string_value, "a(b)");
  EXPECT_TRUE(entry.Find("ok")->bool_value);
  // Shape features of a(b): two nodes, one edge deep, one child.
  const JsonValue* shape = entry.Find("shape");
  ASSERT_NE(shape, nullptr);
  EXPECT_EQ(shape->Find("size")->number_value, 2.0);
  EXPECT_EQ(shape->Find("depth")->number_value, 1.0);
  EXPECT_EQ(shape->Find("fanout")->number_value, 1.0);
  const JsonValue* stages = entry.Find("stages_micros");
  ASSERT_NE(stages, nullptr);
  // The worker delay lands in the estimate stage and dominates the total.
  EXPECT_GE(stages->Find("estimate")->number_value, 10000.0);
  EXPECT_GE(entry.Find("total_ms")->number_value, 10.0);
}

TEST(TransportTest, RequestIdsAreUniqueAndEchoedAcrossConnections) {
  obs::SetEnabledForTest(true);
  TestTransport server;
  std::set<uint64_t> reqs;
  for (int c = 0; c < 4; ++c) {
    Client client(server.port());
    std::string burst;
    // Client-chosen ids collide across connections; the transport's own
    // request ids must not. Malformed lines get traced ids too.
    for (uint64_t id = 1; id <= 5; ++id) burst += RequestLine(id);
    burst += "{\"query\": 42}\n";
    client.Send(burst);
    for (int i = 0; i < 6; ++i) {
      std::optional<std::string> line = client.NextLine();
      ASSERT_TRUE(line.has_value()) << "response " << i;
      JsonValue value = MustParse(*line);
      const JsonValue* req = value.Find("req");
      ASSERT_NE(req, nullptr) << *line;
      const auto r = static_cast<uint64_t>(req->number_value);
      EXPECT_GT(r, 0u) << *line;
      EXPECT_TRUE(reqs.insert(r).second) << "duplicate req id " << r;
    }
  }
  EXPECT_EQ(reqs.size(), 24u);
}

// --- Golden wire transcript ----------------------------------------------

/// Contents of tests/golden/`name`, or "" when it cannot be read.
std::string ReadGoldenFile(const std::string& name) {
  std::ifstream in(std::string(TL_GOLDEN_DIR) + "/" + name, std::ios::binary);
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

/// The comparable form of a response stream, built the same way
/// tests/serve_golden.sh builds it for the stdin leg: one line per
/// response, sorted by the line's first "req" id, with every
/// "wall_micros" value (the only timing-dependent field) masked to "*".
std::string WireTranscript(const std::vector<std::string>& lines) {
  constexpr std::string_view kWall = "\"wall_micros\":";
  constexpr std::string_view kNumber = "-+.0123456789eE";
  std::vector<std::pair<uint64_t, std::string>> keyed;
  for (std::string line : lines) {
    for (size_t at = line.find(kWall); at != std::string::npos;
         at = line.find(kWall, at)) {
      at += kWall.size();
      size_t end = at;
      while (end < line.size() && kNumber.find(line[end]) != kNumber.npos) {
        ++end;
      }
      line.replace(at, end - at, "\"*\"");
    }
    const size_t req = line.find("\"req\":");
    const uint64_t key =
        req == std::string::npos
            ? 0
            : std::strtoull(line.c_str() + req + 6, nullptr, 10);
    keyed.emplace_back(key, std::move(line));
  }
  std::stable_sort(
      keyed.begin(), keyed.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  std::string transcript;
  for (const auto& [key, line] : keyed) transcript += line + "\n";
  return transcript;
}

TEST(TransportTest, WireTranscriptMatchesGolden) {
  // One connection replays tests/golden/serve_script.ndjson to a
  // single-worker server; every response line must match the committed
  // golden byte for byte (wall_micros masked). The script covers bare
  // twigs and XPath, envelopes, unknown labels, malformed twig and JSON,
  // arrays with a duplicate, empty/malformed/over-cap arrays, and cache
  // hits. On a mismatch the actual transcript is left in TempDir.
  ServerOptions server_options;
  server_options.workers = 1;
  TestTransport server({}, server_options);
  const std::string script = ReadGoldenFile("serve_script.ndjson");
  ASSERT_FALSE(script.empty()) << "cannot read " << TL_GOLDEN_DIR;
  const size_t requests =
      static_cast<size_t>(std::count(script.begin(), script.end(), '\n'));

  Client client(server.port());
  client.Send(script);
  std::vector<std::string> lines;
  for (size_t i = 0; i < requests; ++i) {
    std::optional<std::string> line = client.NextLine();
    ASSERT_TRUE(line.has_value()) << "response " << i << " missing";
    lines.push_back(*line);
  }
  client.Close();
  server.Stop();

  const std::string actual = WireTranscript(lines);
  if (actual != ReadGoldenFile("serve_tcp.golden")) {
    const std::string path = UniqueTempPath("serve_tcp.actual");
    std::ofstream(path, std::ios::binary) << actual;
    FAIL() << "wire transcript differs from tests/golden/serve_tcp.golden; "
              "actual transcript written to "
           << path << ":\n"
           << actual;
  }
}

// --- NdjsonFramer unit tests ---------------------------------------------

std::vector<NdjsonFramer::Event> FeedAll(NdjsonFramer* framer,
                                         std::string_view data) {
  std::vector<NdjsonFramer::Event> events;
  framer->Feed(data, &events);
  return events;
}

TEST(NdjsonFramerTest, SplitsLinesAcrossArbitraryChunks) {
  NdjsonFramer framer(1024);
  std::vector<std::string> lines;
  const std::string input = "alpha\nbeta\r\ngam";
  for (char c : input) {
    for (NdjsonFramer::Event& event :
         FeedAll(&framer, std::string_view(&c, 1))) {
      ASSERT_EQ(event.kind, NdjsonFramer::EventKind::kLine);
      lines.push_back(event.line);
    }
  }
  EXPECT_EQ(lines, (std::vector<std::string>{"alpha", "beta"}));
  EXPECT_TRUE(framer.mid_frame());
  EXPECT_EQ(framer.pending(), 3u);
}

TEST(NdjsonFramerTest, OversizedFrameReportedOnceThenDiscardedToNewline) {
  NdjsonFramer framer(4);
  std::vector<NdjsonFramer::Event> events =
      FeedAll(&framer, "toolongline");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, NdjsonFramer::EventKind::kOversized);
  EXPECT_TRUE(FeedAll(&framer, "stilltoolong").empty());
  events = FeedAll(&framer, "rest\nok\n");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, NdjsonFramer::EventKind::kLine);
  EXPECT_EQ(events[0].line, "ok");
}

TEST(NdjsonFramerTest, ByteConservationAcrossMixedTraffic) {
  NdjsonFramer framer(8);
  const std::string input =
      "ab\n\n\r\nwaytoolongforlimit\ncd\r\npartial";
  size_t line_bytes = 0;
  for (NdjsonFramer::Event& event : FeedAll(&framer, input)) {
    if (event.kind == NdjsonFramer::EventKind::kLine) {
      line_bytes += event.line.size() + 1;
    }
  }
  EXPECT_EQ(framer.consumed(), input.size());
  EXPECT_EQ(framer.consumed(),
            line_bytes + framer.dropped() + framer.pending());
}

TEST(NdjsonFramerTest, EmbeddedNulBytesPassThrough) {
  NdjsonFramer framer(64);
  const std::string input{"a\0b\nc\n", 6};
  std::vector<NdjsonFramer::Event> events = FeedAll(&framer, input);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].line, (std::string{"a\0b", 3}));
  EXPECT_EQ(events[1].line, "c");
}

}  // namespace
}  // namespace serve
}  // namespace treelattice
