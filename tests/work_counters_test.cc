// Work-counter gate (ctest label `perf`). The estimator's cost is its work
// per query: sub-twig visits, summary probes, decompositions and votes in
// the Fig. 4 recursion, and the canonical codes and heap allocations
// behind them. This suite counts that work exactly on two fixed query sets
// and on one mining run, and compares every count against the committed
// bench/baselines/counters.json:
//
//   optimizer   plan families (a distinct size-8 root plus up to 6
//               leaf-removed sub-twigs of each size 7..4), one voting
//               BatchEstimator::EstimateBatch call per family, as
//               perfbench's optimizer workload does;
//   serve_cold  distinct size 4..8 queries, each a batch of one to
//               BatchEstimator::EstimateBatch on one warm estimator with
//               no cache, as a serve worker answers a cache miss;
//   mining      the canonical codes and allocations of the suite's one
//               single-threaded BuildLattice call.
//
// Any increase fails and names the counter, the baseline and the measured
// value; a decrease passes and prints the value to commit. Nothing here is
// timed, so the gate runs under `ctest -j` on any host.
//
// The same counting allocator bounds the work of pathological queries: a
// 100-leaf star and a 1000-node path must each allocate fewer bytes than a
// fixed bound.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <new>
#include <sstream>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "core/batch_estimator.h"
#include "core/degrading_estimator.h"
#include "core/estimate_scratch.h"
#include "core/estimator_metrics.h"
#include "core/recursive_estimator.h"
#include "datagen/datasets.h"
#include "mining/lattice_builder.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "summary/lattice_summary.h"
#include "twig/twig.h"
#include "util/json.h"
#include "workload/workload.h"

// ---------------------------------------------------------------------------
// Allocation counting: counts only while the calling thread's flag is set,
// which AllocationCounter does around the estimate calls; everywhere else
// the replacement is malloc/free behind one thread-local branch.
namespace {
thread_local bool t_counting = false;
thread_local uint64_t t_allocations = 0;
thread_local uint64_t t_bytes = 0;
thread_local uint64_t t_largest = 0;

void* CountedAlloc(std::size_t n) {
  if (t_counting) {
    ++t_allocations;
    t_bytes += n;
    if (n > t_largest) t_largest = n;
  }
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

/// Counts this thread's heap allocations between Start() and Stop();
/// the tallies accumulate across Start/Stop pairs.
class AllocationCounter {
 public:
  void Start() {
    t_allocations = 0;
    t_bytes = 0;
    t_largest = 0;
    t_counting = true;
  }
  void Stop() {
    t_counting = false;
    allocations_ += t_allocations;
    bytes_ += t_bytes;
    if (t_largest > largest_) largest_ = t_largest;
  }
  uint64_t allocations() const { return allocations_; }
  uint64_t bytes() const { return bytes_; }
  /// The largest single allocation.
  uint64_t largest() const { return largest_; }

 private:
  uint64_t allocations_ = 0;
  uint64_t bytes_ = 0;
  uint64_t largest_ = 0;
};

constexpr uint64_t kDocumentSeed = 11;
constexpr uint64_t kQuerySeed = 7;
constexpr int kDocumentScale = 100;  // ~1.4k XMark nodes
constexpr int kLatticeLevel = 4;
constexpr size_t kPlanRoots = 12;
constexpr size_t kColdPerSize = 16;

/// The work counts the gate compares, summed over one query set (or one
/// mining run).
struct WorkCounts {
  uint64_t inputs = 0;  ///< queries estimated, or patterns mined
  uint64_t sub_twig_visits = 0;  ///< memo hits plus summary probes
  uint64_t memo_hits = 0;
  uint64_t summary_probes = 0;  ///< hits + misses + exhaustive zeros
  uint64_t decompositions = 0;
  uint64_t votes = 0;  ///< sum of estimator.voting_fanout
  uint64_t canonical_codes = 0;  ///< twig.canonical_codes
  uint64_t allocations = 0;
};

/// The counters' names in the baseline file, in report order.
struct CounterField {
  const char* name;
  uint64_t WorkCounts::*field;
};
constexpr CounterField kEstimatorCounters[] = {
    {"sub_twig_visits", &WorkCounts::sub_twig_visits},
    {"memo_hits", &WorkCounts::memo_hits},
    {"summary_probes", &WorkCounts::summary_probes},
    {"decompositions", &WorkCounts::decompositions},
    {"votes", &WorkCounts::votes},
    {"canonical_codes", &WorkCounts::canonical_codes},
    {"allocations", &WorkCounts::allocations},
};
constexpr CounterField kMiningCounters[] = {
    {"canonical_codes", &WorkCounts::canonical_codes},
    {"allocations", &WorkCounts::allocations},
};

/// A point-in-time read of the telemetry; the difference of two reads is
/// the work done between them.
WorkCounts ReadTelemetry() {
  EstimatorMetrics& m = EstimatorMetrics::Get();
  WorkCounts c;
  c.memo_hits = m.memo_hits->value();
  c.summary_probes = m.summary_hits->value() + m.summary_misses->value() +
                     m.exhaustive_zeros->value();
  c.sub_twig_visits = c.memo_hits + c.summary_probes;
  c.decompositions = m.decompositions->value();
  c.votes = m.voting_fanout->GetSnapshot().sum;
  c.canonical_codes = obs::MetricsRegistry::Default()
                          ->counter(obs::metric_names::kTwigCanonicalCodes)
                          ->value();
  return c;
}

WorkCounts Since(const WorkCounts& before) {
  WorkCounts now = ReadTelemetry();
  for (const CounterField& counter : kEstimatorCounters) {
    now.*counter.field -= before.*counter.field;
  }
  return now;
}

/// Connected sub-twigs reached from `twig` by removing degree-one nodes,
/// one size at a time down to `min_size`, at most `cap_per_size` per size
/// (perfbench's plan-family shape).
std::vector<Twig> SubTwigs(const Twig& twig, int min_size,
                           size_t cap_per_size) {
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
  Result<std::vector<Twig>> queries = GeneratePositiveWorkload(doc, options);
  EXPECT_TRUE(queries.ok()) << queries.status().ToString();
  return queries.ok() ? std::move(*queries) : std::vector<Twig>();
}

std::vector<Twig> ParseAll(const std::vector<std::string>& texts,
                           LabelDict* dict) {
  std::vector<Twig> twigs;
  for (const std::string& text : texts) {
    Result<Twig> twig = Twig::Parse(text, dict);
    EXPECT_TRUE(twig.ok()) << text << ": " << twig.status().ToString();
    if (twig.ok()) twigs.push_back(std::move(*twig));
  }
  return twigs;
}

class WorkCountersTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // The gate counts through the telemetry; TREELATTICE_OBS=off must not
    // zero it.
    obs::SetEnabledForTest(true);
    DatasetOptions data;
    data.seed = kDocumentSeed;
    data.scale = kDocumentScale;
    doc_ = std::make_unique<Document>(GenerateXmark(data));
    LatticeBuildOptions build;
    build.max_level = kLatticeLevel;
    AllocationCounter allocations;
    const WorkCounts before = ReadTelemetry();
    allocations.Start();
    Result<LatticeSummary> summary = BuildLattice(*doc_, build, nullptr);
    allocations.Stop();
    ASSERT_TRUE(summary.ok()) << summary.status().ToString();
    mining_ = Since(before);
    mining_.inputs = summary->NumPatterns();
    mining_.allocations = allocations.allocations();
    summary_ = std::make_unique<LatticeSummary>(std::move(*summary));
  }

  static void TearDownTestSuite() {
    summary_.reset();
    doc_.reset();
  }

  /// Plan families as query texts, the root first; each pass re-parses
  /// them (outside the counted window), as the optimizer parses its plans.
  static std::vector<std::vector<std::string>> PlanFamilies() {
    std::vector<std::vector<std::string>> families;
    for (const Twig& root : Positive(*doc_, kQuerySeed, 8, kPlanRoots)) {
      std::vector<std::string> family = {root.ToString(doc_->dict())};
      for (const Twig& sub : SubTwigs(root, 4, 6)) {
        family.push_back(sub.ToString(doc_->dict()));
      }
      families.push_back(std::move(family));
    }
    return families;
  }

  /// Distinct size 4..8 query texts, the serve_cold mix.
  static std::vector<std::string> ColdStream() {
    std::vector<std::string> texts;
    for (int size = 4; size <= 8; ++size) {
      const uint64_t seed = kQuerySeed * 31 + static_cast<uint64_t>(size);
      for (const Twig& q : Positive(*doc_, seed, size, kColdPerSize)) {
        texts.push_back(q.ToString(doc_->dict()));
      }
    }
    return texts;
  }

  static WorkCounts CountOptimizer() {
    const std::vector<std::vector<std::string>> families = PlanFamilies();
    BatchEstimator batch(summary_.get(),
                         DegradingEstimator::Options{}.primary);
    WorkCounts counts;
    for (int pass = 0; pass < 2; ++pass) {  // pass 0 warms up
      AllocationCounter allocations;
      const WorkCounts before = ReadTelemetry();
      uint64_t queries = 0;
      for (const std::vector<std::string>& family : families) {
        std::vector<Twig> twigs = ParseAll(family, &doc_->mutable_dict());
        std::vector<EstimateResult> results(twigs.size());
        allocations.Start();
        Status status = batch.EstimateBatch(twigs, EstimateOptions{}, results);
        allocations.Stop();
        EXPECT_TRUE(status.ok()) << status.ToString();
        for (const EstimateResult& result : results) {
          EXPECT_TRUE(result.status.ok()) << result.status.ToString();
        }
        queries += twigs.size();
      }
      counts = Since(before);
      counts.inputs = queries;
      counts.allocations = allocations.allocations();
    }
    return counts;
  }

  static WorkCounts CountServeCold() {
    const std::vector<std::string> texts = ColdStream();
    BatchEstimator batch(summary_.get(),
                         DegradingEstimator::Options{}.primary);
    EstimateResult result;
    WorkCounts counts;
    for (int pass = 0; pass < 2; ++pass) {  // pass 0 warms up
      AllocationCounter allocations;
      const WorkCounts before = ReadTelemetry();
      for (const std::string& text : texts) {
        Result<Twig> twig = Twig::Parse(text, &doc_->mutable_dict());
        EXPECT_TRUE(twig.ok()) << twig.status().ToString();
        if (!twig.ok()) continue;
        // A serve worker canonicalizes at its cache probe, before
        // estimating.
        (void)twig->CanonicalHash();
        allocations.Start();
        Status status =
            batch.EstimateBatch(std::span<const Twig>(&*twig, 1),
                                EstimateOptions{},
                                std::span<EstimateResult>(&result, 1));
        allocations.Stop();
        EXPECT_TRUE(status.ok()) << status.ToString();
        EXPECT_TRUE(result.status.ok()) << result.status.ToString();
        EXPECT_EQ(result.rung, DegradingEstimator::Rung::kPrimary);
      }
      counts = Since(before);
      counts.inputs = texts.size();
      counts.allocations = allocations.allocations();
    }
    return counts;
  }

  /// Compares `counters` of `measured` against the baseline object `name`
  /// in bench/baselines/counters.json, whose `inputs_key` names the input
  /// size: an increase fails, a decrease prints the value to commit.
  static void CheckAgainstBaseline(const std::string& name,
                                   const char* inputs_key,
                                   const WorkCounts& measured,
                                   std::span<const CounterField> counters) {
    std::ifstream in(TL_COUNTER_BASELINE);
    ASSERT_TRUE(in.good()) << "cannot read " << TL_COUNTER_BASELINE;
    std::stringstream text;
    text << in.rdbuf();
    Result<JsonValue> baseline = ParseJson(text.str());
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    const JsonValue* set = baseline->Find(name);
    ASSERT_NE(set, nullptr) << "no \"" << name << "\" in "
                            << TL_COUNTER_BASELINE;

    // The measured set in the baseline file's own form, ready to commit.
    std::printf("\"%s\": {\"%s\": %llu", name.c_str(), inputs_key,
                static_cast<unsigned long long>(measured.inputs));
    for (const CounterField& counter : counters) {
      std::printf(", \"%s\": %llu", counter.name,
                  static_cast<unsigned long long>(measured.*counter.field));
    }
    std::printf("}\n");

    auto value_of = [&](const char* key) -> uint64_t {
      const JsonValue* v = set->Find(key);
      EXPECT_TRUE(v != nullptr && v->is_number())
          << name << "." << key << " missing from " << TL_COUNTER_BASELINE;
      return v != nullptr ? static_cast<uint64_t>(v->number_value) : 0;
    };
    // A different input size means a different input, not less work.
    ASSERT_EQ(measured.inputs, value_of(inputs_key))
        << name << ": the input changed; re-derive the baseline";
    for (const CounterField& counter : counters) {
      const uint64_t base = value_of(counter.name);
      const uint64_t got = measured.*counter.field;
      std::printf("%s.%s: baseline %llu, measured %llu (%.2f per input)\n",
                  name.c_str(), counter.name,
                  static_cast<unsigned long long>(base),
                  static_cast<unsigned long long>(got),
                  static_cast<double>(got) /
                      static_cast<double>(measured.inputs));
      EXPECT_LE(got, base) << name << "." << counter.name
                           << " rose above its baseline: baseline " << base
                           << ", measured " << got;
      if (got < base) {
        std::printf("  %s.%s fell: commit %llu to %s\n", name.c_str(),
                    counter.name, static_cast<unsigned long long>(got),
                    TL_COUNTER_BASELINE);
      }
    }
  }

  static inline std::unique_ptr<Document> doc_;
  static inline std::unique_ptr<LatticeSummary> summary_;
  static inline WorkCounts mining_;
};

TEST_F(WorkCountersTest, OptimizerPlanFamiliesStayAtOrBelowBaseline) {
  CheckAgainstBaseline("optimizer", "queries", CountOptimizer(),
                       kEstimatorCounters);
}

TEST_F(WorkCountersTest, ServeColdStreamStaysAtOrBelowBaseline) {
  CheckAgainstBaseline("serve_cold", "queries", CountServeCold(),
                       kEstimatorCounters);
}

TEST_F(WorkCountersTest, MiningStaysAtOrBelowBaseline) {
  CheckAgainstBaseline("mining", "patterns", mining_, kMiningCounters);
}

TEST_F(WorkCountersTest, CountsAreDeterministic) {
  // The gate's premise: the same input does the same work, run to run.
  const WorkCounts a = CountOptimizer();
  const WorkCounts b = CountOptimizer();
  for (const CounterField& counter : kEstimatorCounters) {
    EXPECT_EQ(a.*counter.field, b.*counter.field) << counter.name;
  }
  EXPECT_GT(a.decompositions, 0u);
  EXPECT_GT(a.votes, a.decompositions);  // voting: several votes per split
}

/// The heap allocations of one estimate of `query` on a fresh scratch.
AllocationCounter CountEstimate(RecursiveDecompositionEstimator& estimator,
                                const Twig& query,
                                const EstimateOptions& options) {
  (void)query.CanonicalHash();
  EstimateScratch scratch;
  CostGovernor governor = options.MakeGovernor();
  AllocationCounter allocations;
  allocations.Start();
  Result<double> result =
      estimator.Estimate(query, governor, &scratch, nullptr);
  allocations.Stop();
  (void)result;  // a budget trip is expected under a step cap
  return allocations;
}

TEST_F(WorkCountersTest, WideStarBuildsOnlyTheSplitsItVotes) {
  // A 100-leaf star has C(100,2) leaf pairs at its top level alone; the
  // recursion must build a split just before its vote, never every split
  // of every level up front (about 4 GB for this query, with no budget
  // check while they are built).
  std::string text = "item(";
  for (int i = 0; i < 100; ++i) text += i == 0 ? "name" : ",name";
  text += ")";
  Result<Twig> star = Twig::Parse(text, &doc_->mutable_dict());
  ASSERT_TRUE(star.ok()) << star.status().ToString();

  constexpr uint64_t kMaxBytes = 64ull << 20;
  RecursiveDecompositionEstimator plain(summary_.get());
  EXPECT_LT(CountEstimate(plain, *star, EstimateOptions{}).bytes(), kMaxBytes);

  RecursiveDecompositionEstimator::Options voting_options;
  voting_options.voting = true;
  RecursiveDecompositionEstimator voting(summary_.get(), voting_options);
  EstimateOptions capped;
  capped.max_work_steps = 5000;
  EXPECT_LT(CountEstimate(voting, *star, capped).bytes(), kMaxBytes);
}

TEST_F(WorkCountersTest, LongPathReservesAMemoForItsWorkNotItsSquare) {
  // A 1000-node path memoizes about a thousand distinct sub-twigs;
  // reserving size^2 = 10^6 memo entries up front (one 32 MB slot table)
  // would also make every later query on the thread clear that table.
  // Canonical codes of the long sub-paths dominate the total bytes, so
  // the bound is on the largest single allocation.
  std::string text;
  for (int i = 0; i < 1000; ++i) text += i == 0 ? "item" : "(item";
  text += std::string(999, ')');
  Result<Twig> path = Twig::Parse(text, &doc_->mutable_dict());
  ASSERT_TRUE(path.ok()) << path.status().ToString();

  RecursiveDecompositionEstimator plain(summary_.get());
  EXPECT_LT(CountEstimate(plain, *path, EstimateOptions{}).largest(),
            8ull << 20);
}

}  // namespace
}  // namespace treelattice
