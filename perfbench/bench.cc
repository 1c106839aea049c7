// TreeLattice end-to-end benchmark driver.
//
// One process runs one workload over the XMark default-scale 4-lattice and
// prints its metrics, then one JSON result line. perfbench/run.py builds
// this binary and forwards its command line; perfbench/README.md describes
// the workloads, the metrics and the checks that fail a run.
//
//   optimizer   in-process, one thread, closed loop: each step parses a
//               distinct size-8 root twig plus its size 4-7 sub-twigs and
//               estimates them in one BatchEstimator::EstimateBatch call.
//   serve_cold  TCP closed loop into an in-process Transport (2 workers) over
//               a cycle of distinct queries that always misses the cache.
//   serve_hot   the same server, Zipf-skewed repeats answered from the
//               cache; one line in ten is a 16-query batch envelope.
//
// Every layer is measured from outside: the driver times its own calls into
// the library and reads the obs::MetricsRegistry the program keeps anyway.
// CPU times are reported at a reference host speed (see HostSpeed).

#include <arpa/inet.h>
#include <fcntl.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/batch_estimator.h"
#include "core/degrading_estimator.h"
#include "datagen/datasets.h"
#include "harness/metrics.h"
#include "io/env.h"
#include "match/matcher.h"
#include "mining/lattice_builder.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/snapshot.h"
#include "serve/transport.h"
#include "summary/summary_format.h"
#include "twig/twig.h"
#include "util/rng.h"
#include "util/status.h"
#include "workload/workload.h"

#ifndef TL_PERFBENCH_BUILD_TYPE
#define TL_PERFBENCH_BUILD_TYPE "unknown"
#endif

// ---------------------------------------------------------------------------
// Allocation counting. Counts only while the calling thread's flag is set,
// which the optimizer's traced half does around EstimateBatch; everywhere
// else the replacement is malloc/free behind one thread-local branch.
namespace {
thread_local bool t_count_allocs = false;
thread_local uint64_t t_allocs = 0;

void* CountedAlloc(std::size_t n) {
  if (t_count_allocs) ++t_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace treelattice {
namespace {

namespace names = obs::metric_names;
using Clock = std::chrono::steady_clock;

constexpr uint64_t kDocumentSeed = 42;
constexpr int kConnections = 4;
constexpr int kServeWorkers = 2;
constexpr double kRelativeTolerance = 1e-12;
constexpr double kColdMaxHitRatio = 0.01;
constexpr double kHotMinHitRatio = 0.90;
/// The serve client keeps this many queries outstanding (a batch line
/// counts all of its queries); far below the 128-slot admission queue, so
/// no request is ever shed.
constexpr uint64_t kInFlightQueries = 32;
constexpr int kHotBatchEvery = 10;
constexpr int kHotBatchSize = 16;
constexpr double kHotZipfExponent = 1.0;
constexpr uint64_t kAccuracySeed = 20060326;
/// The optimizer samples the host speed once per this many plans, the
/// serve client once per this many microseconds of sending.
constexpr size_t kPlansPerCalibration = 32;
constexpr double kCalibrateEveryUs = 20000.0;
/// Latency samples kept per phase (a uniform reservoir over all of them).
constexpr size_t kReservoirCapacity = 1 << 17;

double NowMicros() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch)
      .count();
}

/// CPU time of the calling thread and of the whole process. Time the
/// hypervisor gives to other guests (steal) is not counted.
double CpuMicros(clockid_t clock) {
  timespec ts;
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 + static_cast<double>(ts.tv_nsec) / 1e3;
}
double ThreadCpuMicros() { return CpuMicros(CLOCK_THREAD_CPUTIME_ID); }
double ProcessCpuMicros() { return CpuMicros(CLOCK_PROCESS_CPUTIME_ID); }

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

template <typename T>
T Must(Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(result).value();
}

void MustOk(const Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50.0); }

/// Sorts `v` in place; the percentile by linear interpolation between
/// closest ranks (harness Percentile's rule, without its copy).
double SortedPercentile(std::vector<double>* v, double pct) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  const double rank = pct / 100.0 * static_cast<double>(v->size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v->size() - 1);
  const double a = (*v)[lo], b = (*v)[hi];
  return a + (b - a) * (rank - static_cast<double>(lo));
}

/// Host-speed calibration. On a shared host the cores run a third slower
/// or faster for seconds at a time, as other tenants load the same physical
/// cores; thread CPU time moves with wall time, so neither hides it. A
/// fixed loop of dependent multiplies and random reads from a 4 MB table
/// (mostly in the shared last-level cache, where tenants contend), timed
/// between slices of the measured work, slows the same way. The table is
/// read through once before each timed pass, so what the measured work left
/// in the caches does not change the loop's time. A time
/// measured just after a sample is scaled by Factor(), kReferenceMicros over
/// the median of the last kRecent samples: the time the work would take on
/// a host where the loop takes kReferenceMicros. Raw values are kept in the
/// run record beside the scaled ones.
class HostSpeed {
 public:
  static constexpr double kReferenceMicros = 180.0;
  static constexpr size_t kRecent = 9;

  HostSpeed() : table_(1 << 19) {
    for (size_t i = 0; i < table_.size(); ++i) table_[i] = i * 0x9e3779b97f4a7c15ULL;
    samples_.reserve(1 << 16);
  }

  /// Runs the loop once and records its duration; returns it in microseconds.
  double Sample() {
    uint64_t acc = 0;
    for (uint64_t v : table_) acc += v;
    const double t0 = NowMicros();
    uint64_t x = 12345;
    for (int i = 0; i < 20000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      const uint64_t v = table_[(x >> 33) & (table_.size() - 1)];
      acc += (v & 1) ? v >> 3 : v * 3;
    }
    sink_ = sink_ + acc;
    const double us = NowMicros() - t0;
    if (samples_.size() < samples_.capacity()) samples_.push_back(us);
    recent_[count_++ % kRecent] = us;
    double sorted[kRecent];
    const size_t n = std::min(count_, kRecent);
    std::copy(recent_, recent_ + n, sorted);
    std::sort(sorted, sorted + n);
    factor_ = kReferenceMicros / (n % 2 ? sorted[n / 2] : (sorted[n / 2 - 1] + sorted[n / 2]) / 2);
    return us;
  }

  /// Multiplies a raw time measured now into reference-speed time.
  double Factor() const { return factor_; }
  /// The same over every sample of the run, for times not paired with
  /// samples of their own (the per-layer metrics).
  double RunFactor() const {
    return samples_.empty() ? 1.0 : kReferenceMicros / MedianMicros();
  }
  double MedianMicros() const { return Median(samples_); }
  size_t samples() const { return samples_.size(); }

 private:
  std::vector<uint64_t> table_;
  std::vector<double> samples_;
  double recent_[kRecent] = {};
  size_t count_ = 0;
  double factor_ = 1.0;
  volatile uint64_t sink_ = 0;
};

/// A uniform sample of at most kReservoirCapacity values (Algorithm R),
/// allocated up front so the measured phase allocates nothing for it.
class Reservoir {
 public:
  Reservoir()
      : values_(kReservoirCapacity, 0.0), scratch_(kReservoirCapacity, 0.0), rng_(0x5eed) {}

  void Clear() { seen_ = 0; }
  void Add(double v) {
    if (seen_ < values_.size()) {
      values_[seen_] = v;
    } else {
      const uint64_t slot = rng_.Uniform(seen_ + 1);
      if (slot < values_.size()) values_[slot] = v;
    }
    ++seen_;
  }
  uint64_t seen() const { return seen_; }
  /// Sorts the kept values; call once the phase is over.
  double Percentile(double pct) {
    scratch_.assign(values_.begin(),
                    values_.begin() + static_cast<long>(std::min<uint64_t>(seen_, values_.size())));
    return SortedPercentile(&scratch_, pct);
  }

 private:
  std::vector<double> values_, scratch_;
  Rng rng_;
  uint64_t seen_ = 0;
};

/// A kB field of /proc/self/status ("VmRSS", "VmHWM") in MB.
double ProcStatusMb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Returns freed heap pages to the kernel and lowers the peak-RSS mark
/// (VmHWM) to the current RSS, so a later VmHWM read is the peak of what the
/// process allocated since this call. Linux 4.0+; a no-op elsewhere.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

std::string LoadAverage() {
  std::ifstream in("/proc/loadavg");
  std::string one;
  in >> one;
  return one.empty() ? "unknown" : one;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool SameEstimate(double got, double want) {
  return std::fabs(got - want) <=
         kRelativeTolerance * std::max(std::fabs(want), 1e-300);
}

// ---------------------------------------------------------------------------
// Flags.

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".";
  std::string git_sha = "unknown";
  bool smoke = false;
  std::string corrupt;     // reference | conservation | hit_ratio
};

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key == "--smoke") {
      f.smoke = true;
      continue;
    }
    if (i + 1 >= argc) Die("missing value for " + key);
    std::string value = argv[++i];
    if (key == "--workload") f.workload = value;
    else if (key == "--seed") f.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") f.seconds = std::strtod(value.c_str(), nullptr);
    else if (key == "--trace") f.trace = value == "1";
    else if (key == "--workdir") f.workdir = value;
    else if (key == "--git-sha") f.git_sha = value;
    else if (key == "--corrupt") f.corrupt = value;
    else Die("unknown flag " + key);
  }
  if (f.workload != "optimizer" && f.workload != "serve_cold" &&
      f.workload != "serve_hot") {
    Die("--workload must be optimizer, serve_cold or serve_hot");
  }
  if (f.seconds <= 0.0) Die("--seconds must be positive");
  return f;
}

/// Sizes of everything the workloads generate; the smoke pass shrinks them.
struct Scale {
  int doc_scale;
  size_t roots;             // optimizer: distinct size-8 roots asked for
  size_t min_roots;         // ... and the fewest a run accepts
  size_t cache_capacity;    // server estimate cache entries
  size_t cold_small;        // serve_cold size-4 pool (the lattice's level 4)
  size_t cold_big;          // serve_cold pools of sizes 5-8; cold_small divides it
  size_t hot_per_size;      // serve_hot distinct queries per size 3..6
  int setup_reps;
  size_t error_sample;      // queries compared against exact counts
  size_t checked_families;  // optimizer families checked in full
};

Scale ScaleFor(const Flags& f) {
  if (f.smoke) return Scale{300, 60, 60, 128, 64, 128, 8, 1, 40, 60};
  return Scale{DefaultScale("xmark"), 1 << 20, 4000, 1024, 800, 1600, 75, 5, 200, 200};
}

// ---------------------------------------------------------------------------
// Metrics and the run record.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;  // behind a percentile; 0 for scalars
  bool crossed = true;  // false: the workload never reaches this layer
  double raw = 0.0;     // before scaling to the reference host speed
};

/// Every per-layer metric, in BENCHMARK.json order. A traced run prints all
/// of them; a layer the workload never reaches (the optimizer has no server)
/// reads 0.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"mining.build_s", "s"}, {"mining.patterns", "count"},
    {"summary.save_s", "s"}, {"summary.load_s", "s"},
    {"summary.file_bytes", "bytes"}, {"summary.bytes", "bytes"},
    {"summary.probe_ns", "ns"}, {"io.fsyncs", "count"},
    {"io.bytes_written", "bytes"}, {"twig.parse_us", "us"},
    {"twig.canon_us", "us"}, {"core.estimate_us.p50", "us"},
    {"core.estimate_us.p99", "us"}, {"core.decompositions_per_query", "count"},
    {"core.memo_hits_per_query", "count"}, {"core.memo_hit_ratio", "ratio"},
    {"core.summary_probes_per_query", "count"}, {"core.votes_per_query", "count"},
    {"core.allocs_per_query", "count"}, {"serve.admit_us.p50", "us"},
    {"serve.queue_wait_us.p50", "us"}, {"serve.queue_wait_us.p99", "us"},
    {"serve.estimate_us.p50", "us"}, {"serve.estimate_us.p99", "us"},
    {"serve.serialize_us.p50", "us"}, {"serve.queue_depth_peak", "count"},
    {"serve.shed", "count"}, {"cache.hit_ratio", "ratio"},
    {"cache.probe_us.p50", "us"}, {"cache.evictions_per_request", "count"},
    {"net.flush_us.p50", "us"}, {"net.loop_lag_us.p99", "us"},
    {"net.frames_per_wake", "count"}, {"net.bytes_per_request", "bytes"},
    {"client.latency_p50_us", "us"}, {"client.latency_p99_us", "us"},
    {"client.throughput_qps", "1/s"}, {"client.requests", "count"},
    {"obs.trace_overhead_pct", "%"},
};

/// `measured` put in kLayerMetrics order, with the layers it lacks as 0.
std::vector<Metric> AllLayerMetrics(const std::vector<Metric>& measured) {
  std::vector<Metric> out;
  for (const auto& [name, unit] : kLayerMetrics) {
    auto it = std::find_if(measured.begin(), measured.end(),
                           [&](const Metric& m) { return m.name == name; });
    if (it == measured.end()) {
      out.push_back(Metric{name, 0.0, unit, 0, false});
    } else {
      if (it->unit != unit) Die(std::string("unit mismatch for ") + name);
      out.push_back(*it);
    }
  }
  if (out.size() - static_cast<size_t>(std::count_if(
                        out.begin(), out.end(),
                        [](const Metric& m) { return !m.crossed; })) !=
      measured.size()) {
    Die("a measured layer metric is missing from kLayerMetrics");
  }
  return out;
}

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> check_failures;

  void Check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

// ---------------------------------------------------------------------------
// Workload inputs.

/// Connected sub-twigs reached from `twig` by removing degree-one nodes,
/// one size at a time down to `min_size`, at most `cap_per_size` per size.
std::vector<Twig> SubTwigs(const Twig& twig, int min_size, size_t cap_per_size) {
  std::vector<Twig> out;
  std::vector<Twig> level = {twig};
  for (int size = twig.size() - 1; size >= min_size && !level.empty(); --size) {
    std::vector<Twig> next;
    std::unordered_set<std::string> seen;
    for (const Twig& t : level) {
      for (int node : t.RemovableNodes()) {
        if (next.size() == cap_per_size) break;
        Result<Twig> sub = t.RemoveNode(node);
        if (sub.ok() && seen.insert(sub->CanonicalCode()).second) {
          next.push_back(std::move(*sub));
        }
      }
    }
    out.insert(out.end(), next.begin(), next.end());
    level = std::move(next);
  }
  return out;
}

std::vector<Twig> Positive(const Document& doc, uint64_t seed, int size,
                           size_t count) {
  WorkloadOptions options;
  options.seed = seed;
  options.query_size = size;
  options.num_queries = count;
  return Must(GeneratePositiveWorkload(doc, options), "workload generation");
}

struct Inputs {
  // optimizer: one text list per plan family, the root first.
  std::vector<std::vector<std::string>> families;
  // serve: the distinct query texts and the cyclic line schedule over them.
  std::vector<std::string> texts;
  std::vector<std::vector<uint32_t>> lines;
  // Accuracy sample: texts and exact match counts.
  std::vector<std::string> error_texts;
  std::vector<double> exact;
  // Size <= 4 sub-twigs of the workload's queries, for the probe timing.
  std::vector<Twig> probes;
};

void AddProbes(const Twig& q, std::vector<Twig>* probes) {
  if (probes->size() >= 4096) return;
  if (q.size() <= 4) {
    probes->push_back(q);
    return;
  }
  for (Twig& sub : SubTwigs(q, 4, 4)) {
    if (sub.size() == 4) probes->push_back(std::move(sub));
  }
}

Inputs BuildInputs(const Flags& flags, const Scale& scale, const Document& doc) {
  Inputs in;
  const LabelDict& dict = doc.dict();
  Rng rng(flags.seed * 0x9e3779b97f4a7c15ULL + 17);
  auto shuffle = [&rng](std::vector<Twig>* v) {
    for (size_t i = v->size(); i > 1; --i) std::swap((*v)[i - 1], (*v)[rng.Uniform(i)]);
  };
  int min_size = 4, max_size = 8;
  if (flags.workload == "optimizer") {
    // Every distinct size-8 root the sampler finds (a few thousand), each
    // with up to 6 leaf-removal sub-twigs per size 7..4.
    std::vector<Twig> roots = Positive(doc, flags.seed, 8, scale.roots);
    if (roots.size() < scale.min_roots) Die("too few distinct size-8 roots");
    shuffle(&roots);
    for (const Twig& root : roots) {
      std::vector<std::string> family = {root.ToString(dict)};
      for (const Twig& sub : SubTwigs(root, 4, 6)) {
        family.push_back(sub.ToString(dict));
        if (in.probes.size() < 4096 && sub.size() == 4) in.probes.push_back(sub);
      }
      in.families.push_back(std::move(family));
    }
    min_size = 8;
  } else if (flags.workload == "serve_cold") {
    // Sizes 4-8 in turn; each size cycles through its own pool. The size-4
    // pool divides the others, so no query recurs within 5 x cold_small
    // lines, well past the cache's reach.
    std::vector<std::vector<uint32_t>> by_size;
    for (int size = 4; size <= 8; ++size) {
      const size_t want = size == 4 ? scale.cold_small : scale.cold_big;
      std::vector<Twig> pool = Positive(doc, flags.seed * 31 + size, size, want);
      if (pool.size() < want) Die("too few distinct size-" + std::to_string(size) + " queries");
      shuffle(&pool);
      by_size.emplace_back();
      for (const Twig& q : pool) {
        by_size.back().push_back(static_cast<uint32_t>(in.texts.size()));
        in.texts.push_back(q.ToString(dict));
        AddProbes(q, &in.probes);
      }
    }
    if (in.texts.size() < 4 * scale.cache_capacity) {
      Die("serve_cold pool smaller than 4x the cache capacity");
    }
    for (size_t i = 0; i < 5 * scale.cold_big; ++i) {
      const std::vector<uint32_t>& pool = by_size[i % 5];
      in.lines.push_back({pool[(i / 5) % pool.size()]});
    }
  } else {
    // A few hundred distinct queries of sizes 3-6 (they fit in the cache),
    // drawn Zipf-skewed; one line in ten is a batch envelope.
    std::vector<Twig> distinct;
    for (int size = 3; size <= 6; ++size) {
      for (Twig& q :
           Positive(doc, flags.seed * 31 + size, size, scale.hot_per_size)) {
        distinct.push_back(std::move(q));
      }
    }
    shuffle(&distinct);
    std::vector<double> cdf;
    double total = 0.0;
    for (size_t r = 0; r < distinct.size(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kHotZipfExponent);
      cdf.push_back(total);
    }
    auto draw = [&]() {
      const double u = rng.NextDouble() * total;
      const size_t r = static_cast<size_t>(
          std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      return static_cast<uint32_t>(std::min(r, distinct.size() - 1));
    };
    for (const Twig& q : distinct) {
      in.texts.push_back(q.ToString(dict));
      AddProbes(q, &in.probes);
    }
    constexpr size_t kStreamLines = 1 << 14;
    for (size_t i = 0; i < kStreamLines; ++i) {
      std::vector<uint32_t> line;
      const int n = rng.Uniform(kHotBatchEvery) == 0 ? kHotBatchSize : 1;
      for (int k = 0; k < n; ++k) line.push_back(draw());
      in.lines.push_back(std::move(line));
    }
    min_size = 3;
    max_size = 6;
  }
  // The accuracy sample is drawn with a fixed seed from the workload's query
  // sizes, so error_pct repeats exactly on one build.
  MatchCounter counter(doc);
  const size_t per_size = scale.error_sample / static_cast<size_t>(max_size - min_size + 1);
  for (int size = min_size; size <= max_size; ++size) {
    for (const Twig& q : Positive(doc, kAccuracySeed + size, size, per_size)) {
      in.error_texts.push_back(q.ToString(dict));
      in.exact.push_back(static_cast<double>(counter.Count(q)));
    }
  }
  return in;
}

// ---------------------------------------------------------------------------
// Setup: mine, save, load, listen — repeated, the median reported.

struct Setup {
  std::vector<double> total_s, build_s, save_s, load_s;
  size_t patterns = 0;
  size_t summary_bytes = 0;
  uint64_t file_bytes = 0;
  uint64_t fsyncs = 0;
  uint64_t bytes_written = 0;
  // optimizer
  std::unique_ptr<LatticeSummary> summary;
  std::unique_ptr<LabelDict> dict;
  // serve (the holder outlives the transport that points at it)
  std::unique_ptr<serve::SnapshotHolder> holder;
  std::unique_ptr<serve::Transport> transport;
  uint16_t port = 0;
};

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Default()->counter(name)->value();
}

void RunSetup(const Flags& flags, const Scale& scale, const Document& doc,
              const std::string& path, Setup* setup) {
  Env* env = Env::Default();
  const bool serve = flags.workload != "optimizer";
  for (int rep = 0; rep < scale.setup_reps; ++rep) {
    setup->transport.reset();
    setup->holder.reset();
    const double t0 = NowMicros();
    LatticeBuildOptions options;
    options.max_level = 4;
    LatticeSummary summary = Must(BuildLattice(doc, options), "BuildLattice");
    const double t1 = NowMicros();
    const uint64_t fsyncs = CounterValue(names::kIoFsyncs);
    const uint64_t written = CounterValue(names::kIoBytesWritten);
    MustOk(SaveSummaryV2(summary, &doc.dict(), env, path), "SaveSummaryV2");
    const double t2 = NowMicros();
    setup->fsyncs = CounterValue(names::kIoFsyncs) - fsyncs;
    setup->bytes_written = CounterValue(names::kIoBytesWritten) - written;
    setup->patterns = summary.NumPatterns();
    setup->summary_bytes = summary.MemoryBytes();
    double t3 = 0.0;
    if (!serve) {
      LoadedSummary loaded = Must(LoadSummary(env, path), "LoadSummary");
      if (!loaded.dict.has_value()) Die("summary lost its dictionary");
      setup->summary = std::make_unique<LatticeSummary>(std::move(loaded.summary));
      setup->dict = std::make_unique<LabelDict>(std::move(*loaded.dict));
      t3 = NowMicros();
    } else {
      setup->holder = std::make_unique<serve::SnapshotHolder>();
      MustOk(serve::ReloadSummary(env, path, serve::ReloadOptions{},
                                  setup->holder.get()),
             "ReloadSummary");
      t3 = NowMicros();
      serve::ServerOptions server;
      server.workers = kServeWorkers;
      server.estimate_cache_capacity = scale.cache_capacity;
      setup->transport = std::make_unique<serve::Transport>(
          setup->holder.get(), server, serve::Transport::Options{});
      setup->port = Must(setup->transport->Listen(), "Listen");
    }
    const double t4 = NowMicros();
    setup->build_s.push_back((t1 - t0) / 1e6);
    setup->save_s.push_back((t2 - t1) / 1e6);
    setup->load_s.push_back((t3 - t2) / 1e6);
    setup->total_s.push_back((t4 - t0) / 1e6);
  }
  setup->file_bytes = Must(env->GetFileSize(path), "GetFileSize");
}

// ---------------------------------------------------------------------------
// Layer probes shared by every workload.

struct TwigTimes {
  double parse_us = 0.0, canon_us = 0.0;
  size_t samples = 0;
};

TwigTimes TimeTwigLayer(const std::vector<std::string>& texts, LabelDict dict) {
  std::vector<double> parse, canon;
  for (size_t i = 0; i < texts.size() && i < 4000; ++i) {
    const double t0 = NowMicros();
    Result<Twig> twig = Twig::Parse(texts[i], &dict);
    const double t1 = NowMicros();
    if (!twig.ok()) Die("query text does not parse: " + texts[i]);
    volatile uint64_t hash = twig->CanonicalHash();
    (void)hash;
    const double t2 = NowMicros();
    parse.push_back(t1 - t0);
    canon.push_back(t2 - t1);
  }
  return TwigTimes{Median(parse), Median(canon), parse.size()};
}

double ProbeNanos(const LatticeSummary& summary, const std::vector<Twig>& probes) {
  if (probes.empty()) return 0.0;
  std::vector<std::pair<uint64_t, std::string>> keys;
  for (const Twig& t : probes) keys.emplace_back(t.CanonicalHash(), t.CanonicalCode());
  const size_t reps = std::max<size_t>(1, 2000000 / keys.size());
  uint64_t sink = 0;
  const double t0 = NowMicros();
  for (size_t r = 0; r < reps; ++r) {
    for (const auto& [hash, code] : keys) {
      sink += summary.LookupHashed(hash, code).value_or(1);
    }
  }
  const double t1 = NowMicros();
  if (sink == 0) Die("probe loop found nothing");
  return (t1 - t0) * 1e3 / static_cast<double>(reps * keys.size());
}

/// The in-process reference: the serving ladder, ungoverned, one query at a
/// time. Every estimate must come from the primary rung.
struct Reference {
  std::vector<double> values;
  std::vector<double> micros;  // per-query EstimateDegraded time
};

Reference ReferenceEstimates(const LatticeSummary& summary, LabelDict dict,
                             const std::vector<std::string>& texts) {
  DegradingEstimator estimator(&summary);
  Reference ref;
  for (const std::string& text : texts) {
    Twig twig = Must(Twig::Parse(text, &dict), "reference parse");
    const double t0 = NowMicros();
    DegradingEstimator::DegradedEstimate e =
        Must(estimator.EstimateDegraded(twig, EstimateOptions{}), "reference");
    ref.micros.push_back(NowMicros() - t0);
    if (e.rung != DegradingEstimator::Rung::kPrimary) {
      Die("reference left the primary rung for " + text);
    }
    ref.values.push_back(e.estimate);
  }
  return ref;
}

double ErrorPct(const std::vector<double>& exact,
                const std::vector<double>& estimates) {
  const double sanity = SanityBound(exact);
  std::vector<double> errors;
  for (size_t i = 0; i < exact.size(); ++i) {
    errors.push_back(RelativeErrorPct(exact[i], estimates[i], sanity));
  }
  return Mean(errors);
}

/// Estimator work counters (monotonic), for deltas over a phase.
struct CoreCounters {
  double visits_memo = 0, summary_hits = 0, zeros = 0, misses = 0,
         decompositions = 0, votes = 0;

  static CoreCounters Read() {
    obs::MetricsRegistry* r = obs::MetricsRegistry::Default();
    CoreCounters c;
    c.visits_memo = static_cast<double>(r->counter(names::kEstimatorMemoHits)->value());
    c.summary_hits = static_cast<double>(r->counter(names::kEstimatorSummaryHits)->value());
    c.zeros = static_cast<double>(r->counter(names::kEstimatorExhaustiveZeros)->value());
    c.misses = static_cast<double>(r->counter(names::kEstimatorSummaryMisses)->value());
    c.decompositions = static_cast<double>(r->counter(names::kEstimatorDecompositions)->value());
    c.votes = static_cast<double>(
        r->histogram(names::kEstimatorVotingFanout)->GetSnapshot().sum);
    return c;
  }
};

void AddCoreCounters(const CoreCounters& a, const CoreCounters& b,
                     double queries, std::vector<Metric>* out) {
  const double q = std::max(queries, 1.0);
  const double probes = (b.summary_hits - a.summary_hits) + (b.zeros - a.zeros) +
                        (b.misses - a.misses);
  const double memo = b.visits_memo - a.visits_memo;
  out->push_back({"core.decompositions_per_query",
                  (b.decompositions - a.decompositions) / q, "count"});
  out->push_back({"core.memo_hits_per_query", memo / q, "count"});
  out->push_back({"core.memo_hit_ratio",
                  memo + probes > 0 ? memo / (memo + probes) : 0.0, "ratio"});
  out->push_back({"core.summary_probes_per_query", probes / q, "count"});
  out->push_back({"core.votes_per_query", (b.votes - a.votes) / q, "count"});
}

// ---------------------------------------------------------------------------
// optimizer

struct RunResult {
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  Outcome outcome;
  std::vector<std::string> notes;  // human report lines
  /// VmHWM at the end of the measured phase, before any overload step.
  double peak_rss_mb = 0.0;
};

void RunOptimizer(const Flags& flags, const Scale& scale, const Inputs& in,
                  const Setup& setup, HostSpeed* speed, Reservoir* samples,
                  RunResult* run) {
  const LatticeSummary& summary = *setup.summary;
  Outcome& outcome = run->outcome;

  // Reference values for the checked families: the first ones in full,
  // then every 25th.
  std::vector<size_t> checked;
  for (size_t f = 0; f < in.families.size(); ++f) {
    if (f < scale.checked_families || f % 25 == 0) checked.push_back(f);
  }
  std::vector<std::vector<double>> expected(in.families.size());
  for (size_t f : checked) {
    expected[f] = ReferenceEstimates(summary, *setup.dict, in.families[f]).values;
  }
  if (flags.corrupt == "reference") expected[0][0] *= 1.0 + 1e-9;

  BatchEstimator batch(&summary, DegradingEstimator::Options{}.primary);
  LabelDict dict = *setup.dict;
  std::vector<Twig> twigs;
  std::vector<EstimateResult> results;
  // Index 0: the untraced part of the run; 1: the traced half.
  Reservoir* plan_us = samples;
  Reservoir& estimate_us = samples[2];
  double plan_wall_us = 0, cpu_us = 0, scaled_cpu_us = 0;
  uint64_t queries[2] = {0, 0};
  uint64_t allocs = 0, mismatches = 0, tallied = 0;
  CoreCounters before = CoreCounters::Read(), after;
  // A closed loop over the families for --seconds. Roots do not repeat
  // within a pass; later passes repeat them, at the same cost, since the
  // estimator's memo lives for one EstimateBatch call.
  const size_t n = in.families.size();
  const double start = NowMicros();
  const double stop = start + flags.seconds * 1e6;
  const double traced_from = flags.trace ? start + flags.seconds * 1e6 / 2 : stop;
  int half = 0;
  size_t plans = 0;
  for (; NowMicros() < stop; ++plans) {
    if (plans % kPlansPerCalibration == 0) speed->Sample();
    if (half == 0 && NowMicros() >= traced_from) {
      half = 1;
      after = CoreCounters::Read();
      obs::Tracer::Start();
    }
    const size_t f = plans % n;
    const std::vector<std::string>& family = in.families[f];
    const double c0 = ThreadCpuMicros();
    const double t0 = NowMicros();
    double t1 = t0;
    {
      obs::TraceSpan plan_span("optimizer.plan", "perfbench");
      {
        obs::TraceSpan parse_span("twig.parse", "perfbench");
        twigs.clear();
        for (const std::string& text : family) {
          Result<Twig> twig = Twig::Parse(text, &dict);
          if (!twig.ok()) Die("plan text does not parse: " + text);
          twigs.push_back(std::move(*twig));
        }
      }
      results.assign(twigs.size(), EstimateResult{});
      t1 = NowMicros();
      obs::TraceSpan estimate_span("core.estimate_batch", "perfbench");
      t_allocs = 0;
      t_count_allocs = half == 1;
      Status s = batch.EstimateBatch(twigs, EstimateOptions{}, results);
      t_count_allocs = false;
      allocs += t_allocs;
      if (!s.ok()) Die("EstimateBatch: " + s.ToString());
    }
    const double t2 = NowMicros();
    const double cpu = ThreadCpuMicros() - c0;
    plan_us[half].Add(t2 - t0);
    if (half == 0) {
      plan_wall_us += t2 - t0;
      cpu_us += cpu;
      scaled_cpu_us += cpu * speed->Factor();
      estimate_us.Add(t2 - t1);
    }
    queries[half] += family.size();
    outcome.attempted += family.size();
    for (size_t i = 0; i < results.size(); ++i) {
      if (flags.corrupt == "conservation" && plans == 0 && i == 0) continue;
      ++tallied;
      if (!results[i].status.ok()) ++outcome.failed;
    }
    if (!expected[f].empty()) {
      for (size_t i = 0; i < results.size(); ++i) {
        if (results[i].status.ok() &&
            !SameEstimate(results[i].estimate, expected[f][i])) {
          ++mismatches;
        }
      }
    }
  }
  if (half == 0) after = CoreCounters::Read();
  run->peak_rss_mb = ProcStatusMb("VmHWM");
  obs::Tracer::Stop();

  outcome.failed += mismatches;
  outcome.Check(tallied == outcome.attempted,
                "conservation: " + std::to_string(tallied) + " results for " +
                    std::to_string(outcome.attempted) + " estimates");
  outcome.Check(mismatches == 0,
                "reference: " + std::to_string(mismatches) +
                    " estimates differ from the DegradingEstimator reference");
  outcome.Check(queries[0] > 0, "no plan family ran");

  // CPU time per query over the whole untraced part; the plan latencies
  // and rate are what the in-process caller sees.
  const size_t timed = static_cast<size_t>(plan_us[0].seen());
  const double q0 = std::max(1.0, static_cast<double>(queries[0]));
  run->e2e.push_back({"cpu_us_per_query", scaled_cpu_us / q0, "us", timed, true, cpu_us / q0});
  run->layer.push_back({"client.latency_p50_us", plan_us[0].Percentile(50.0), "us", timed});
  run->layer.push_back({"client.latency_p99_us", plan_us[0].Percentile(99.0), "us", timed});
  run->layer.push_back({"client.throughput_qps", q0 / std::max(plan_wall_us, 1.0) * 1e6,
                        "1/s", timed});
  run->layer.push_back({"client.requests", static_cast<double>(timed), "count"});
  run->notes.push_back("plans=" + std::to_string(plans) + " (" +
                       Num(static_cast<double>(plans) / static_cast<double>(n)) +
                       " passes over " + std::to_string(n) + " families) queries=" +
                       std::to_string(outcome.attempted));

  run->layer.push_back({"core.estimate_us.p50", estimate_us.Percentile(50.0), "us",
                        static_cast<size_t>(estimate_us.seen())});
  run->layer.push_back({"core.estimate_us.p99", estimate_us.Percentile(99.0), "us",
                        static_cast<size_t>(estimate_us.seen())});
  AddCoreCounters(before, after, static_cast<double>(queries[0]), &run->layer);
  if (flags.trace && queries[1] > 0) {
    run->layer.push_back({"core.allocs_per_query",
                          static_cast<double>(allocs) / static_cast<double>(queries[1]),
                          "count"});
    run->layer.push_back({"obs.trace_overhead_pct",
                          (plan_us[1].Percentile(50.0) / plan_us[0].Percentile(50.0) - 1.0) *
                              100.0,
                          "%", static_cast<size_t>(plan_us[1].seen())});
  }
}

// ---------------------------------------------------------------------------
// The closed-loop TCP client: one thread, kConnections connections, lines
// dealt round-robin; a new line goes out whenever the queries outstanding
// leave room for it under kInFlightQueries. Each line is timed from its
// send to the arrival of its last response.

struct PhaseStats {
  uint64_t lines = 0, queries = 0;
  uint64_t answered = 0, shed = 0, errors = 0, off_rung = 0, mismatches = 0,
           cached = 0, unknown = 0, dropped = 0;
  /// Wall time from the first send to the last response, less the time the
  /// client spent in host-speed samples.
  double busy_seconds = 0.0;
  /// CPU time of every thread but the client's (the event loop and the
  /// workers), raw and at the reference host speed.
  double server_cpu_us = 0.0, scaled_server_cpu_us = 0.0;

  uint64_t Missing() const {
    const uint64_t seen = answered + shed + errors + dropped;
    return queries > seen ? queries - seen : 0;
  }
  uint64_t Failed() const {
    return shed + errors + off_rung + mismatches + Missing();
  }
};

class ClosedLoopClient {
 public:
  ClosedLoopClient(uint16_t port, const Inputs& in, const std::vector<double>& ref,
                   bool drop_first)
      : in_(in), ref_(ref), drop_first_(drop_first) {
    const std::string shed_code =
        std::string(StatusCodeToString(StatusCode::kResourceExhausted));
    shed_needle_ = "\"code\":\"" + shed_code + "\"";
    for (int i = 0; i < kConnections; ++i) {
      const int fd = socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) Die("socket failed");
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        close(fd);
        Die("connect to the in-process transport failed");
      }
      const int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      fcntl(fd, F_SETFL, fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
      conns_.push_back(Conn{fd, {}, 0, {}});
      conns_.back().out.reserve(1 << 16);
      conns_.back().in.reserve(1 << 16);
    }
    ReleaseAll();
  }
  ~ClosedLoopClient() {
    for (Conn& c : conns_) close(c.fd);
  }
  ClosedLoopClient(const ClosedLoopClient&) = delete;
  ClosedLoopClient& operator=(const ClosedLoopClient&) = delete;

  /// Sends for `seconds` (or until `max_lines` lines are out), then waits
  /// for every response, or `drain_s` past the last send. `speed`, when
  /// given, is sampled every kCalibrateEveryUs while sending, and the
  /// server CPU time of each stretch between samples is scaled by its
  /// factor. `latency`, when given, receives each line's latency (a line
  /// with a failed query counts as the whole drain timeout). `spans`
  /// records one client.request trace event per line, keyed by the wire
  /// req id.
  PhaseStats Run(double seconds, uint64_t max_lines, double drain_s, HostSpeed* speed,
                 Reservoir* latency, bool spans) {
    PhaseStats st;
    latency_ = latency;
    drain_us_ = drain_s * 1e6;
    spans_ = spans;
    trace_offset_ = spans ? static_cast<double>(obs::Tracer::NowMicros()) - NowMicros() : 0;
    if (latency_ != nullptr) latency_->Clear();
    outstanding_ = 0;
    const double t0 = NowMicros();
    const double send_end = t0 + seconds * 1e6;
    double process_cpu = ProcessCpuMicros(), client_cpu = ThreadCpuMicros();
    auto end_segment = [&](double factor) {
      const double p = ProcessCpuMicros(), c = ThreadCpuMicros();
      const double server = (p - process_cpu) - (c - client_cpu);
      st.server_cpu_us += server;
      st.scaled_server_cpu_us += server * factor;
      process_cpu = p;
      client_cpu = c;
    };
    double next_sample = t0, sampled_us = 0.0, last = t0;
    for (;;) {
      double now = NowMicros();
      const bool sending = now < send_end && st.lines < max_lines;
      if (sending && speed != nullptr && now >= next_sample) {
        end_segment(speed->Factor());
        sampled_us += speed->Sample();
        now = NowMicros();
        next_sample = now + kCalibrateEveryUs;
      }
      while (sending && st.lines < max_lines && !free_lines_.empty() &&
             outstanding_ + NextLineSize() <= kInFlightQueries) {
        Render(now, &st);
      }
      Flush();
      if (!sending && outstanding_ == 0) break;
      if (!sending && now > send_end + drain_us_) break;
      double wait_us = 2000.0;
      if (sending && speed != nullptr) wait_us = std::clamp(next_sample - now, 0.0, wait_us);
      if (Poll(wait_us, &st)) last = NowMicros();
    }
    end_segment(speed != nullptr ? speed->Factor() : 1.0);
    st.busy_seconds = std::max(last - t0 - sampled_us, 1.0) / 1e6;
    // Lines still unanswered at the drain timeout count as taking all of it.
    for (const LineSlot& line : lines_) {
      if (line.remaining > 0) AddLatency(drain_us_);
    }
    ReleaseAll();
    return st;
  }

 private:
  struct Conn {
    int fd;
    std::string out;
    size_t out_off;
    std::string in;
  };
  /// Lines and queries in flight, each in one of kInFlightQueries slots
  /// taken from a free list. A wire id is seq * kInFlightQueries + slot, so
  /// a response names its slot, and the slot's stored id tells a current
  /// response from a stale one.
  struct LineSlot {
    double sent_us = 0.0;
    uint32_t remaining = 0;
    bool failed = false;
  };
  struct IdSlot {
    uint64_t id = 0;  // 0: free
    uint32_t line = 0;
    uint32_t text = 0;
  };

  void AddLatency(double us) {
    if (latency_ != nullptr) latency_->Add(us);
  }

  void ReleaseAll() {
    free_lines_.clear();
    free_ids_.clear();
    for (uint32_t i = 0; i < kInFlightQueries; ++i) {
      lines_[i] = LineSlot{};
      ids_[i] = IdSlot{};
      free_lines_.push_back(i);
      free_ids_.push_back(i);
    }
  }

  uint64_t NextLineSize() const { return in_.lines[cursor_ % in_.lines.size()].size(); }

  void Render(double now, PhaseStats* st) {
    const std::vector<uint32_t>& qs = in_.lines[cursor_++ % in_.lines.size()];
    std::string& out = conns_[next_line_++ % kConnections].out;
    const uint32_t line = free_lines_.back();
    free_lines_.pop_back();
    lines_[line] = LineSlot{now, static_cast<uint32_t>(qs.size()), false};
    if (qs.size() > 1) out.push_back('[');
    for (size_t k = 0; k < qs.size(); ++k) {
      if (k > 0) out.push_back(',');
      const uint32_t slot = free_ids_.back();
      free_ids_.pop_back();
      const uint64_t id = next_seq_++ * kInFlightQueries + slot;
      out.append("{\"query\":\"");
      out.append(in_.texts[qs[k]]);
      out.append("\",\"id\":");
      out.append(std::to_string(id));
      out.push_back('}');
      ids_[slot] = IdSlot{id, line, qs[k]};
    }
    if (qs.size() > 1) out.push_back(']');
    out.push_back('\n');
    st->lines += 1;
    st->queries += qs.size();
    outstanding_ += qs.size();
  }

  void Flush() {
    for (Conn& c : conns_) {
      while (c.out_off < c.out.size()) {
        const ssize_t w = write(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off);
        if (w <= 0) break;
        c.out_off += static_cast<size_t>(w);
      }
      if (c.out_off == c.out.size()) {
        c.out.clear();
        c.out_off = 0;
      }
    }
  }

  /// Waits up to `wait_us` for responses and handles them; true when any
  /// response line arrived.
  bool Poll(double wait_us, PhaseStats* st) {
    pollfd fds[kConnections];
    for (int i = 0; i < kConnections; ++i) {
      fds[i].fd = conns_[i].fd;
      fds[i].events = static_cast<short>(
          POLLIN | (conns_[i].out_off < conns_[i].out.size() ? POLLOUT : 0));
      fds[i].revents = 0;
    }
    timespec ts;
    ts.tv_sec = static_cast<time_t>(wait_us / 1e6);
    ts.tv_nsec = static_cast<long>(std::fmod(wait_us, 1e6) * 1e3);
    if (ppoll(fds, kConnections, &ts, nullptr) <= 0) return false;
    char buf[1 << 16];
    bool any = false;
    for (int i = 0; i < kConnections; ++i) {
      if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      Conn& c = conns_[i];
      for (;;) {
        const ssize_t r = read(c.fd, buf, sizeof(buf));
        if (r <= 0) break;
        c.in.append(buf, static_cast<size_t>(r));
      }
      const double now = NowMicros();
      size_t pos = 0;
      for (size_t nl; (nl = c.in.find('\n', pos)) != std::string::npos; pos = nl + 1) {
        HandleLine(std::string_view(c.in).substr(pos, nl - pos), now, st);
        any = true;
      }
      c.in.erase(0, pos);
    }
    return any;
  }

  static uint64_t FieldUint(std::string_view obj, std::string_view key) {
    const size_t at = obj.find(key);
    if (at == std::string_view::npos) return 0;
    return std::strtoull(obj.data() + at + key.size(), nullptr, 10);
  }

  void HandleLine(std::string_view line, double now, PhaseStats* st) {
    // One object per query: a bare object, or an array of them. Every
    // response object starts with its "id" member.
    constexpr std::string_view kStart = "{\"id\":";
    size_t at = line.find(kStart);
    while (at != std::string_view::npos) {
      const size_t next = line.find(kStart, at + 1);
      HandleObject(line.substr(at, next == std::string_view::npos ? line.size() - at
                                                                  : next - at),
                   now, st);
      at = next;
    }
  }

  void HandleObject(std::string_view obj, double now, PhaseStats* st) {
    const uint64_t id = FieldUint(obj, "{\"id\":");
    const uint32_t index = static_cast<uint32_t>(id % kInFlightQueries);
    const IdSlot slot = ids_[index];
    LineSlot& line = lines_[slot.line];
    if (id == 0 || slot.id != id || line.remaining == 0) {
      ++st->unknown;
      return;
    }
    ids_[index].id = 0;
    free_ids_.push_back(index);
    if (drop_first_) {
      drop_first_ = false;
      ++st->dropped;
      --outstanding_;
      return;
    }
    if (obj.find("\"ok\":true") != std::string_view::npos) {
      ++st->answered;
      const size_t e = obj.find("\"estimate\":");
      const double got = e == std::string_view::npos
                             ? std::nan("")
                             : std::strtod(obj.data() + e + 11, nullptr);
      if (obj.find("\"rung\":\"primary\"") == std::string_view::npos) {
        ++st->off_rung;
        line.failed = true;
      } else if (!SameEstimate(got, ref_[slot.text])) {
        ++st->mismatches;
        line.failed = true;
      }
      if (obj.find("\"cached\":true") != std::string_view::npos) ++st->cached;
    } else if (obj.find(shed_needle_) != std::string_view::npos) {
      ++st->shed;
      line.failed = true;
    } else {
      ++st->errors;
      line.failed = true;
    }
    --outstanding_;
    if (--line.remaining == 0) {
      free_lines_.push_back(slot.line);
      const double took = now - line.sent_us;
      AddLatency(line.failed ? drain_us_ : took);
      if (spans_) {
        obs::TraceEvent event;
        event.name = "client.request";
        event.category = "perfbench";
        event.ts_micros = static_cast<uint64_t>(std::max(0.0, line.sent_us + trace_offset_));
        event.dur_micros = static_cast<uint64_t>(took);
        event.arg_name = "req";
        event.arg_value = FieldUint(obj, "\"req\":");
        obs::Tracer::Record(event);
      }
    }
  }

  const Inputs& in_;
  const std::vector<double>& ref_;
  bool drop_first_;
  std::string shed_needle_;
  std::vector<Conn> conns_;
  LineSlot lines_[kInFlightQueries];
  IdSlot ids_[kInFlightQueries];
  std::vector<uint32_t> free_lines_, free_ids_;
  Reservoir* latency_ = nullptr;
  double drain_us_ = 0.0;
  uint64_t next_seq_ = 1;
  uint64_t next_line_ = 0;
  uint64_t cursor_ = 0;
  uint64_t outstanding_ = 0;  // queries sent and not yet answered
  bool spans_ = false;
  double trace_offset_ = 0.0;
};

// ---------------------------------------------------------------------------
// serve_cold / serve_hot

struct RegistryRead {
  obs::Histogram::Snapshot admit, queue_wait, estimate, serialize, flush,
      loop_lag, dispatch, cache_probe;
  double shed = 0, cache_hits = 0, cache_misses = 0, evictions = 0, frames = 0,
         bytes = 0, queue_peak = 0;

  static RegistryRead Take() {
    obs::MetricsRegistry* r = obs::MetricsRegistry::Default();
    RegistryRead x;
    x.admit = r->histogram(names::kServeStageAdmitMicros)->GetSnapshot();
    x.queue_wait = r->histogram(names::kServeStageQueueWaitMicros)->GetSnapshot();
    x.estimate = r->histogram(names::kServeStageEstimateMicros)->GetSnapshot();
    x.serialize = r->histogram(names::kServeStageSerializeMicros)->GetSnapshot();
    x.flush = r->histogram(names::kServeStageFlushMicros)->GetSnapshot();
    x.loop_lag = r->histogram(names::kNetLoopLagMicros)->GetSnapshot();
    x.dispatch = r->histogram(names::kNetDispatchBatch)->GetSnapshot();
    x.cache_probe = r->histogram(names::kCacheProbeMicros)->GetSnapshot();
    auto c = [r](const char* n) { return static_cast<double>(r->counter(n)->value()); };
    x.shed = c(names::kServeShed);
    x.cache_hits = c(names::kCacheHits);
    x.cache_misses = c(names::kCacheMisses);
    x.evictions = c(names::kCacheEvictions);
    x.frames = c(names::kNetFrames);
    x.bytes = c(names::kNetBytesIn) + c(names::kNetBytesOut);
    x.queue_peak = static_cast<double>(r->gauge(names::kServeQueueDepthPeak)->value());
    return x;
  }
};

void CheckPhase(const PhaseStats& st, const char* what, Outcome* outcome) {
  const uint64_t accounted = st.answered + st.shed + st.errors;
  outcome->Check(accounted == st.queries && st.unknown == 0,
                 std::string("conservation (") + what + "): " +
                     std::to_string(accounted) + " answered+shed+errored for " +
                     std::to_string(st.queries) + " queries sent, " +
                     std::to_string(st.unknown) + " unexpected responses");
  outcome->Check(st.mismatches == 0,
                 std::string("reference (") + what + "): " +
                     std::to_string(st.mismatches) +
                     " served estimates differ from the in-process reference");
}

void RunServe(const Flags& flags, const Inputs& in, Setup* setup, HostSpeed* speed,
              Reservoir* latency, RunResult* run) {
  Outcome& outcome = run->outcome;
  const bool hot = flags.workload == "serve_hot";
  const double warm_s = flags.smoke ? 0.1 : 0.5;
  const double drain_s = flags.smoke ? 1.0 : 5.0;
  std::shared_ptr<const serve::SummarySnapshot> snapshot = setup->holder->Get();

  // Reference first: its estimator work must not land in the phase deltas.
  Reference ref = ReferenceEstimates(snapshot->summary, snapshot->dict, in.texts);
  std::vector<double> expected = ref.values;
  if (flags.corrupt == "reference") {
    for (double& v : expected) v *= 1.0 + 1e-9;
  }

  Status loop_status;
  serve::Transport* transport = setup->transport.get();
  std::thread loop([transport, &loop_status] { loop_status = transport->Run(); });
  {
    ClosedLoopClient client(setup->port, in, expected, flags.corrupt == "conservation");
    if (hot) {
      // Warm the cache: every distinct query once, then wait for all.
      Inputs warm;
      warm.texts = in.texts;
      for (uint32_t i = 0; i < in.texts.size(); ++i) warm.lines.push_back({i});
      ClosedLoopClient warmer(setup->port, warm, ref.values, false);
      PhaseStats w =
          warmer.Run(60.0, warm.lines.size(), drain_s, nullptr, nullptr, false);
      CheckPhase(w, "cache warm-up", &outcome);
    }
    PhaseStats warm =
        client.Run(warm_s, UINT64_MAX, drain_s, nullptr, nullptr, false);
    CheckPhase(warm, "warm-up", &outcome);

    // The measured phase: all of --seconds, or its first half in a traced
    // run, whose second half runs with the tracer on.
    const double phase_s = flags.trace ? flags.seconds / 2 : flags.seconds;
    obs::MetricsRegistry::Default()->ResetAll();
    const CoreCounters core0 = CoreCounters::Read();
    PhaseStats measured =
        client.Run(phase_s, UINT64_MAX, drain_s, speed, &latency[0], false);
    const CoreCounters core1 = CoreCounters::Read();
    const RegistryRead reg = RegistryRead::Take();
    run->peak_rss_mb = ProcStatusMb("VmHWM");
    CheckPhase(measured, "measured", &outcome);
    outcome.attempted += measured.queries;
    outcome.failed += measured.Failed();

    PhaseStats traced;
    if (flags.trace) {
      obs::Tracer::Start();
      traced = client.Run(phase_s, UINT64_MAX, drain_s, speed, &latency[1], true);
      obs::Tracer::Stop();
      CheckPhase(traced, "traced", &outcome);
      outcome.attempted += traced.queries;
      outcome.failed += traced.Failed();
    }

    const double answered = static_cast<double>(measured.answered + traced.answered);
    const double hit_ratio =
        answered > 0 ? static_cast<double>(measured.cached + traced.cached) / answered : 0;
    bool want_hot = hot;
    if (flags.corrupt == "hit_ratio") want_hot = !want_hot;
    outcome.Check(want_hot ? hit_ratio > kHotMinHitRatio : hit_ratio < kColdMaxHitRatio,
                  "cache hit ratio " + Num(hit_ratio) + " is outside the " +
                      (want_hot ? std::string("> 0.90") : std::string("< 0.01")) +
                      " band this workload requires");
    outcome.Check(measured.answered > 0, "no query was answered");

    const size_t timed = static_cast<size_t>(latency[0].seen());
    const double p50 = latency[0].Percentile(50.0);
    const double answered0 = std::max(1.0, static_cast<double>(measured.answered));
    run->e2e.push_back({"cpu_us_per_query", measured.scaled_server_cpu_us / answered0, "us",
                        static_cast<size_t>(measured.answered), true,
                        measured.server_cpu_us / answered0});
    run->notes.push_back("measured: lines=" + std::to_string(measured.lines) +
                         " queries=" + std::to_string(measured.queries) +
                         " busy_seconds=" + Num(measured.busy_seconds) +
                         " request_p99_us=" + Num(latency[0].Percentile(99.0)) +
                         " cache_hit_ratio=" + Num(hit_ratio));
    if (flags.trace && traced.answered > 0) {
      run->layer.push_back({"obs.trace_overhead_pct",
                            (latency[1].Percentile(50.0) / p50 - 1.0) * 100.0, "%",
                            static_cast<size_t>(latency[1].seen())});
    }

    // Per-layer readings over the untraced measured phase.
    const double q = std::max(1.0, static_cast<double>(measured.answered));
    run->layer.push_back({"core.estimate_us.p50", Median(ref.micros), "us", ref.micros.size()});
    run->layer.push_back({"core.estimate_us.p99", Percentile(ref.micros, 99.0), "us",
                          ref.micros.size()});
    AddCoreCounters(core0, core1, q, &run->layer);
    run->layer.push_back({"serve.admit_us.p50", reg.admit.p50, "us", reg.admit.count});
    run->layer.push_back({"serve.queue_wait_us.p50", reg.queue_wait.p50, "us", reg.queue_wait.count});
    run->layer.push_back({"serve.queue_wait_us.p99", reg.queue_wait.p99, "us", reg.queue_wait.count});
    run->layer.push_back({"serve.estimate_us.p50", reg.estimate.p50, "us", reg.estimate.count});
    run->layer.push_back({"serve.estimate_us.p99", reg.estimate.p99, "us", reg.estimate.count});
    run->layer.push_back({"serve.serialize_us.p50", reg.serialize.p50, "us", reg.serialize.count});
    run->layer.push_back({"serve.queue_depth_peak", reg.queue_peak, "count"});
    run->layer.push_back({"serve.shed", reg.shed, "count"});
    const double probes = reg.cache_hits + reg.cache_misses;
    run->layer.push_back({"cache.hit_ratio", probes > 0 ? reg.cache_hits / probes : 0.0, "ratio"});
    run->layer.push_back({"cache.probe_us.p50", reg.cache_probe.p50, "us", reg.cache_probe.count});
    run->layer.push_back({"cache.evictions_per_request", reg.evictions / q, "count"});
    run->layer.push_back({"net.flush_us.p50", reg.flush.p50, "us", reg.flush.count});
    run->layer.push_back({"net.loop_lag_us.p99", reg.loop_lag.p99, "us", reg.loop_lag.count});
    run->layer.push_back({"net.frames_per_wake",
                          reg.dispatch.count > 0 ? reg.frames / static_cast<double>(reg.dispatch.count) : 0.0,
                          "count"});
    run->layer.push_back({"net.bytes_per_request", reg.bytes / q, "bytes"});
    run->layer.push_back({"client.latency_p50_us", p50, "us", timed});
    run->layer.push_back({"client.latency_p99_us", latency[0].Percentile(99.0), "us", timed});
    run->layer.push_back({"client.throughput_qps", answered0 / measured.busy_seconds, "1/s",
                          timed});
    run->layer.push_back({"client.requests", static_cast<double>(measured.lines), "count"});
  }
  transport->RequestShutdown();
  loop.join();
  MustOk(loop_status, "Transport::Run");
}

// ---------------------------------------------------------------------------
// Output.

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
  if (!out) Die("cannot write " + path);
}

/// Scales every time (s, us, ns) and rate (1/s) to the reference host
/// speed (see HostSpeed), keeping the measured value in `raw`.
void ScaleToReference(double factor, std::vector<Metric>* metrics) {
  for (Metric& m : *metrics) {
    m.raw = m.value;
    if (m.unit == "s" || m.unit == "us" || m.unit == "ns") m.value *= factor;
    if (m.unit == "1/s") m.value /= factor;
  }
}

/// The run record (`with_detail`) adds the sample count and raw value.
std::string MetricsJson(const std::vector<Metric>& metrics, bool with_detail) {
  std::string s = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) s += ", ";
    s += "\"" + m.name + "\": {\"value\": " + Num(m.value) + ", \"unit\": \"" +
         m.unit + "\"";
    if (with_detail) {
      s += ", \"raw\": " + Num(m.raw);
      if (m.samples > 0) s += ", \"samples\": " + std::to_string(m.samples);
    }
    s += "}";
  }
  return s + "}";
}

int Main(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);
  const Scale scale = ScaleFor(flags);
  const std::string load_at_start = LoadAverage();
  // Keeps the Chrome trace a few MB: the traced phase's most recent events.
  obs::Tracer::SetRingCapacity(8192);
  const unsigned nproc = std::thread::hardware_concurrency();

  DatasetOptions data;
  data.seed = kDocumentSeed;
  data.scale = scale.doc_scale;
  Document doc = GenerateXmark(data);
  const Inputs in = BuildInputs(flags, scale, doc);
  // Allocated before the memory baseline: mem_mb counts the program, not
  // the benchmark's own tables.
  HostSpeed speed;
  std::vector<Reservoir> samples(3);
  ResetPeakRss();
  const double rss_inputs_mb = ProcStatusMb("VmRSS");

  const std::string tag = flags.workload + "-seed" + std::to_string(flags.seed) +
                          "-trace" + (flags.trace ? "1" : "0");
  const std::string summary_path =
      flags.workdir + "/summary-" + std::to_string(getpid()) + ".tls";
  Setup setup;
  RunSetup(flags, scale, doc, summary_path, &setup);

  RunResult run;
  if (flags.workload == "optimizer") {
    RunOptimizer(flags, scale, in, setup, &speed, samples.data(), &run);
  } else {
    RunServe(flags, in, &setup, &speed, samples.data(), &run);
  }
  const double mem_mb = run.peak_rss_mb - rss_inputs_mb;

  // Layer probes that need no traffic: mining, summary, io, twig.
  const LatticeSummary& summary =
      setup.summary ? *setup.summary : setup.holder->Get()->summary;
  const LabelDict& dict = setup.dict ? *setup.dict : setup.holder->Get()->dict;
  std::vector<std::string> texts = in.texts;
  for (size_t f = 0; f < in.families.size() && texts.size() < 4000; ++f) {
    texts.insert(texts.end(), in.families[f].begin(), in.families[f].end());
  }
  const TwigTimes twig_times = TimeTwigLayer(texts, dict);
  const double probe_ns = ProbeNanos(summary, in.probes);

  const double error_pct =
      ErrorPct(in.exact, ReferenceEstimates(summary, dict, in.error_texts).values);
  // Set-up has no samples of its own (mining did not track samples taken
  // around it), so it takes the run-wide factor, as the per-layer times do.
  const double factor = speed.RunFactor();
  std::vector<Metric> e2e = {
      {"setup_s", Median(setup.total_s) * factor, "s", setup.total_s.size(), true,
       Median(setup.total_s)},
      {"mem_mb", mem_mb, "MB", 0, true, mem_mb},
      {"error_pct", error_pct, "%", in.exact.size(), true, error_pct}};
  e2e.insert(e2e.end(), run.e2e.begin(), run.e2e.end());
  std::vector<Metric> layer = {
      {"mining.build_s", Median(setup.build_s), "s", setup.build_s.size()},
      {"mining.patterns", static_cast<double>(setup.patterns), "count"},
      {"summary.save_s", Median(setup.save_s), "s", setup.save_s.size()},
      {"summary.load_s", Median(setup.load_s), "s", setup.load_s.size()},
      {"summary.file_bytes", static_cast<double>(setup.file_bytes), "bytes"},
      {"summary.bytes", static_cast<double>(setup.summary_bytes), "bytes"},
      {"summary.probe_ns", probe_ns, "ns", in.probes.size()},
      {"io.fsyncs", static_cast<double>(setup.fsyncs), "count"},
      {"io.bytes_written", static_cast<double>(setup.bytes_written), "bytes"},
      {"twig.parse_us", twig_times.parse_us, "us", twig_times.samples},
      {"twig.canon_us", twig_times.canon_us, "us", twig_times.samples}};
  layer.insert(layer.end(), run.layer.begin(), run.layer.end());
  layer = AllLayerMetrics(layer);
  ScaleToReference(factor, &layer);

  Outcome& outcome = run.outcome;
  const double failed_frac =
      outcome.attempted > 0
          ? static_cast<double>(outcome.failed) / static_cast<double>(outcome.attempted)
          : 1.0;
  const bool correct = outcome.check_failures.empty() && outcome.attempted > 0;

  std::printf("workload %s seed %llu trace %d: %s\n", flags.workload.c_str(),
              static_cast<unsigned long long>(flags.seed), flags.trace ? 1 : 0,
              correct ? "checks pass" : "CHECKS FAIL");
  for (const std::string& note : run.notes) std::printf("  %s\n", note.c_str());
  std::printf("  host speed: calibration loop median %s us over %zu samples; times below\n"
              "  are scaled to a %s us loop (raw values in parentheses): cpu_us_per_query\n"
              "  by the samples around each stretch of work, the others by %s\n",
              Num(speed.MedianMicros()).c_str(), speed.samples(),
              Num(HostSpeed::kReferenceMicros).c_str(), Num(factor).c_str());
  for (const std::string& f : outcome.check_failures) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
  }
  std::printf("  failed_frac = %s ratio (%llu of %llu)\n", Num(failed_frac).c_str(),
              static_cast<unsigned long long>(outcome.failed),
              static_cast<unsigned long long>(outcome.attempted));
  for (const std::vector<Metric>* set : {&e2e, &layer}) {
    for (const Metric& m : *set) {
      std::printf("  %-32s = %s %s", m.name.c_str(), Num(m.value).c_str(), m.unit.c_str());
      if (m.value != m.raw) std::printf(" (raw %s)", Num(m.raw).c_str());
      if (m.samples > 0) std::printf(" (n=%zu)", m.samples);
      if (!m.crossed) std::printf(" (not measured by this workload or run)");
      std::printf("\n");
    }
  }

  std::string trace_path;
  if (flags.trace) {
    trace_path = flags.workdir + "/" + tag + ".trace.json";
    WriteFile(trace_path, obs::Tracer::ChromeTraceJson());
    std::printf("  chrome trace: %s\n", trace_path.c_str());
  }
  std::ostringstream record;
  record << "{\"workload\": \"" << flags.workload << "\", \"seed\": " << flags.seed
         << ", \"trace\": " << (flags.trace ? 1 : 0) << ", \"seconds\": " << Num(flags.seconds)
         << ", \"git_sha\": \"" << flags.git_sha << "\", \"nproc\": " << nproc
         << ", \"loadavg_at_start\": \"" << load_at_start << "\", \"build_type\": \""
         << TL_PERFBENCH_BUILD_TYPE << "\", \"smoke\": " << (flags.smoke ? "true" : "false")
         << ", \"in_flight_queries\": " << kInFlightQueries
         << ", \"host_speed\": {\"reference_us\": " << Num(HostSpeed::kReferenceMicros)
         << ", \"median_us\": " << Num(speed.MedianMicros()) << ", \"samples\": "
         << speed.samples() << ", \"factor\": " << Num(factor) << "}"
         << ", \"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << outcome.attempted << ", \"failed\": " << outcome.failed
         << ", \"failed_frac\": " << Num(failed_frac)
         << ", \"end_to_end\": " << MetricsJson(e2e, true)
         << ", \"per_layer\": " << MetricsJson(layer, true) << "}\n";
  const std::string record_path = flags.workdir + "/" + tag + ".record.json";
  WriteFile(record_path, record.str());
  std::printf("  run record: %s\n", record_path.c_str());
  IgnoreStatus(Env::Default()->DeleteFile(summary_path),
               "the summary is a scratch file under the build directory");

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              MetricsJson(flags.trace ? layer : e2e, false).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace treelattice

int main(int argc, char** argv) { return treelattice::Main(argc, argv); }
