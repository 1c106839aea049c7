// Governed-estimation suite: Deadline / CancelToken / CostGovernor units,
// budget enforcement inside the estimators, and the degradation ladder's
// acceptance property — a deadline-D request on a pathologically
// expensive query still answers, from the fixed-size floor, within D plus
// one floor pass.

#include <chrono>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/degrading_estimator.h"
#include "core/fixed_size_estimator.h"
#include "core/markov_path_estimator.h"
#include "core/recursive_estimator.h"
#include "summary/lattice_summary.h"
#include "twig/twig.h"
#include "util/deadline.h"
#include "xml/label_dict.h"

namespace treelattice {
namespace {

TEST(DeadlineTest, InfiniteNeverExpires) {
  Deadline d;
  EXPECT_TRUE(d.is_infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_millis(), 1e12);
  EXPECT_TRUE(Deadline::Infinite().is_infinite());
}

TEST(DeadlineTest, NonPositiveDurationExpiresImmediately) {
  EXPECT_TRUE(Deadline::After(0.0).expired());
  EXPECT_TRUE(Deadline::After(-5.0).expired());
  EXPECT_LE(Deadline::After(-5.0).remaining_millis(), 0.0);
}

TEST(DeadlineTest, FutureDeadlineIsPending) {
  Deadline d = Deadline::After(60000.0);
  EXPECT_FALSE(d.is_infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_millis(), 0.0);
  EXPECT_LE(d.remaining_millis(), 60000.0);
}

TEST(DeadlineTest, DurationsPastTheClockRangeSaturateToInfinite) {
  // 9e12 ms still fits the clock's int64 nanoseconds; 1e13 ms does not
  // and must saturate rather than wrap into an already-expired deadline.
  Deadline fits = Deadline::After(9e12);
  EXPECT_FALSE(fits.is_infinite());
  EXPECT_FALSE(fits.expired());
  for (double millis : {1e13, 1e19, 1e300,
                        std::numeric_limits<double>::infinity()}) {
    Deadline d = Deadline::After(millis);
    EXPECT_TRUE(d.is_infinite()) << millis;
    EXPECT_FALSE(d.expired()) << millis;
  }
  EXPECT_TRUE(Deadline::After(-1e300).expired());
}

TEST(CancelTokenTest, CancelIsSticky) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  token.Cancel();
  EXPECT_TRUE(token.cancelled());
  token.Cancel();
  EXPECT_TRUE(token.cancelled());
}

TEST(CostGovernorTest, UngovernedAlwaysSucceedsButCounts) {
  CostGovernor governor;
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(governor.Charge().ok());
  EXPECT_EQ(governor.steps(), 1000u);
  EXPECT_FALSE(governor.tripped());
}

TEST(CostGovernorTest, StepBudgetTripsDeterministically) {
  CostGovernor governor(Deadline::Infinite(), nullptr, /*max_steps=*/10);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(governor.Charge().ok());
  Status trip = governor.Charge();
  EXPECT_EQ(trip.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(governor.tripped());
  // Sticky: every later charge repeats the same error.
  EXPECT_EQ(governor.Charge().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(governor.Charge(100).code(), StatusCode::kResourceExhausted);
}

TEST(CostGovernorTest, ExpiredDeadlineTripsOnFirstCharge) {
  CostGovernor governor(Deadline::After(-1.0), nullptr, 0);
  EXPECT_EQ(governor.Charge().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(governor.tripped());
}

TEST(CostGovernorTest, DeadlineCheckedAtClockInterval) {
  // The clock is read every kClockCheckInterval charges, so an expiry
  // between checks is noticed at most one interval late — never missed.
  CostGovernor governor(Deadline::After(5.0), nullptr, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  Status status = Status::OK();
  for (uint64_t i = 0; i <= CostGovernor::kClockCheckInterval + 1; ++i) {
    status = governor.Charge();
    if (!status.ok()) break;
  }
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
}

TEST(CostGovernorTest, CancellationTripsAndIsPreferred) {
  CancelToken token;
  CostGovernor governor(Deadline::Infinite(), &token, /*max_steps=*/1000);
  EXPECT_TRUE(governor.Charge().ok());
  token.Cancel();
  EXPECT_EQ(governor.Charge().code(), StatusCode::kCancelled);
  EXPECT_TRUE(governor.tripped());
}

// --- estimator-level governance ------------------------------------------

/// A summary whose level-2 knowledge covers a wide star query: the voting
/// recursion on star(n) explores combinatorially many distinct sub-stars,
/// so an ungoverned run is effectively unbounded while every sub-twig
/// lookup stays answerable.
class GovernedEstimationTest : public ::testing::Test {
 protected:
  static constexpr int kStarWidth = 20;

  void SetUp() override {
    summary_ = std::make_unique<LatticeSummary>(2);
    Insert("r", 1000);
    std::string star = "r(";
    for (int i = 0; i < kStarWidth; ++i) {
      std::string child = "c" + std::to_string(i);
      Insert(child, 500 + i);
      Insert("r(" + child + ")", 100 + i);
      if (i > 0) star += ",";
      star += child;
    }
    star += ")";
    summary_->set_complete_through_level(2);
    Result<Twig> query = Twig::Parse(star, &dict_);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    star_query_ = std::make_unique<Twig>(std::move(*query));
  }

  void Insert(const std::string& text, uint64_t count) {
    Result<Twig> twig = Twig::Parse(text, &dict_);
    ASSERT_TRUE(twig.ok()) << twig.status().ToString();
    ASSERT_TRUE(summary_->Insert(*twig, count).ok());
  }

  LabelDict dict_;
  std::unique_ptr<LatticeSummary> summary_;
  std::unique_ptr<Twig> star_query_;
};

TEST_F(GovernedEstimationTest, UnrestrictedVotingExceedsLargeStepBudget) {
  // The star query dwarfs any budget a governed request would grant: a
  // million work steps (north of a second of recursion wall time, i.e.
  // >= 10x the 100 ms deadline the acceptance test below uses) are not
  // enough to finish, which is what makes the degradation ladder
  // necessary rather than nice.
  RecursiveDecompositionEstimator voting(
      summary_.get(),
      RecursiveDecompositionEstimator::Options{
          true, 0, RecursiveDecompositionEstimator::VoteAggregation::kMean});
  CostGovernor budget(Deadline::Infinite(), nullptr, 1'000'000);
  Result<double> estimate = voting.Estimate(*star_query_, budget);
  ASSERT_FALSE(estimate.ok());
  EXPECT_EQ(estimate.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(GovernedEstimationTest, DeadlineTripsRecursiveEstimator) {
  RecursiveDecompositionEstimator voting(
      summary_.get(),
      RecursiveDecompositionEstimator::Options{
          true, 0, RecursiveDecompositionEstimator::VoteAggregation::kMean});
  EstimateOptions options;
  options.deadline_millis = 20.0;
  CostGovernor budget = options.MakeGovernor();
  Result<double> estimate = voting.Estimate(*star_query_, budget);
  ASSERT_FALSE(estimate.ok());
  EXPECT_EQ(estimate.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(GovernedEstimationTest, DeadlineMillisAloneGovernsEveryEstimator) {
  // deadline_millis is the whole deadline: a direct caller that sets only
  // it is governed. The deadline trips first, since a million steps of
  // this star take about 100 ms on a 4-vCPU host, far past 5 ms.
  EstimateOptions options;
  options.deadline_millis = 5.0;
  options.max_work_steps = 1'000'000;
  RecursiveDecompositionEstimator voting(
      summary_.get(),
      RecursiveDecompositionEstimator::Options{
          true, 0, RecursiveDecompositionEstimator::VoteAggregation::kMean});
  CostGovernor budget = options.MakeGovernor();
  Result<double> estimate = voting.Estimate(*star_query_, budget);
  ASSERT_FALSE(estimate.ok());
  EXPECT_EQ(estimate.status().code(), StatusCode::kDeadlineExceeded);

  // The ladder's primary rung trips the same way, and the floor, which
  // runs without the deadline, answers on any host.
  DegradingEstimator ladder(summary_.get());
  Result<DegradingEstimator::DegradedEstimate> degraded =
      ladder.EstimateDegraded(*star_query_, options);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_EQ(degraded->rung, DegradingEstimator::Rung::kFixedSize);
  EXPECT_EQ(degraded->primary_status.code(), StatusCode::kDeadlineExceeded);
}

TEST_F(GovernedEstimationTest, UngovernedOptionsChangeNothing) {
  // Small query, default options: the governed overload must agree with
  // the plain one bit-for-bit.
  Result<Twig> small = Twig::Parse("r(c0,c1)", &dict_);
  ASSERT_TRUE(small.ok());
  RecursiveDecompositionEstimator plain(summary_.get());
  Result<double> a = plain.Estimate(*small);
  CostGovernor governor = EstimateOptions().MakeGovernor();
  Result<double> b = plain.Estimate(*small, governor);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(*a, *b);
}

TEST_F(GovernedEstimationTest, LadderDegradesToFixedSizeOnStepBudget) {
  // Step budgets are deterministic: 20k steps starves the voting
  // recursion, and the fixed-size floor, which the cap does not govern,
  // answers every single run.
  DegradingEstimator ladder(summary_.get());
  EstimateOptions options;
  options.max_work_steps = 20'000;
  Result<DegradingEstimator::DegradedEstimate> result =
      ladder.EstimateDegraded(*star_query_, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rung, DegradingEstimator::Rung::kFixedSize);
  EXPECT_TRUE(result->degraded);
  EXPECT_EQ(result->primary_status.code(), StatusCode::kResourceExhausted);
  EXPECT_GE(result->estimate, 0.0);
  // The rung name renders stably for serve responses.
  EXPECT_EQ(DegradingEstimator::RungName(result->rung), "fixed-size");
}

TEST_F(GovernedEstimationTest, LadderReportsTheStepsEveryRungCharged) {
  // The primary charges its whole cap plus the step that tripped it; the
  // fixed-size floor then charges its own sweep, uncapped.
  constexpr uint64_t kCap = 20'000;
  FixedSizeDecompositionEstimator fixed(summary_.get());
  CostGovernor fixed_budget;
  ASSERT_TRUE(fixed.Estimate(*star_query_, fixed_budget).ok());
  ASSERT_GT(fixed_budget.steps(), 0u);

  DegradingEstimator ladder(summary_.get());
  EstimateOptions options;
  options.max_work_steps = kCap;
  Result<DegradingEstimator::DegradedEstimate> result =
      ladder.EstimateDegraded(*star_query_, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rung, DegradingEstimator::Rung::kFixedSize);
  EXPECT_EQ(result->work_steps, kCap + 1 + fixed_budget.steps());
}

TEST_F(GovernedEstimationTest, DeadlineAnswersDegradedWithinTwiceDeadline) {
  // The acceptance property: deadline D on a query whose unrestricted
  // voting estimate is effectively unbounded (see
  // UnrestrictedVotingExceedsLargeStepBudget) must still produce an
  // answer, from the floor, within D plus one floor pass — the primary
  // gets D, overshoot is bounded by the governor's 64-step clock
  // interval, and the floor's pass over this star is a few dozen summary
  // lookups, far inside the second D allowed here.
  constexpr double kDeadlineMillis = 100.0;
  DegradingEstimator ladder(summary_.get());
  EstimateOptions options;
  options.deadline_millis = kDeadlineMillis;
  const auto start = std::chrono::steady_clock::now();
  Result<DegradingEstimator::DegradedEstimate> result =
      ladder.EstimateDegraded(*star_query_, options);
  const double elapsed_millis =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rung, DegradingEstimator::Rung::kFixedSize);
  EXPECT_TRUE(result->degraded);
  EXPECT_EQ(result->primary_status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_LE(elapsed_millis, 2.0 * kDeadlineMillis)
      << "ladder overran the deadline by more than D";
}

TEST_F(GovernedEstimationTest, CancelledRequestsDoNotDegrade) {
  // Cancellation means "stop", not "answer cheaper": the ladder must
  // propagate kCancelled without trying a fallback rung.
  CancelToken token;
  token.Cancel();
  DegradingEstimator ladder(summary_.get());
  EstimateOptions options;
  options.cancel = &token;
  Result<DegradingEstimator::DegradedEstimate> result =
      ladder.EstimateDegraded(*star_query_, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST_F(GovernedEstimationTest, StarvedQueriesAnswerOnTheFixedSizeFloor) {
  // max_work_steps=1 starves the primary, and the floor, which only the
  // cancel token governs, answers every shape: a path with the Markov
  // formula's exact value (Lemma 4), and a star.
  Insert("c0(c1)", 50);
  Result<Twig> path = Twig::Parse("r(c0(c1))", &dict_);
  ASSERT_TRUE(path.ok());
  ASSERT_TRUE(path->IsPath());
  Result<double> markov = MarkovPathEstimator(summary_.get()).Estimate(*path);
  ASSERT_TRUE(markov.ok()) << markov.status().ToString();
  ASSERT_GT(*markov, 0.0);

  DegradingEstimator ladder(summary_.get());
  EstimateOptions options;
  options.max_work_steps = 1;
  Result<DegradingEstimator::DegradedEstimate> result =
      ladder.EstimateDegraded(*path, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rung, DegradingEstimator::Rung::kFixedSize);
  EXPECT_TRUE(result->degraded);
  EXPECT_EQ(result->primary_status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(result->estimate, *markov);

  Result<DegradingEstimator::DegradedEstimate> starved =
      ladder.EstimateDegraded(*star_query_, options);
  ASSERT_TRUE(starved.ok()) << starved.status().ToString();
  EXPECT_EQ(starved->rung, DegradingEstimator::Rung::kFixedSize);
  EXPECT_GT(starved->estimate, 0.0);
}

}  // namespace
}  // namespace treelattice
