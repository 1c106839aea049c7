#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "util/event_poller.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"

namespace treelattice {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad twig");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad twig");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad twig");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kParseError, StatusCode::kOutOfRange, StatusCode::kIOError,
        StatusCode::kCorruption, StatusCode::kUnimplemented,
        StatusCode::kInternal, StatusCode::kDeadlineExceeded,
        StatusCode::kResourceExhausted, StatusCode::kCancelled}) {
    EXPECT_FALSE(StatusCodeToString(code).empty());
    EXPECT_NE(StatusCodeToString(code), "Unknown");
  }
}

TEST(StatusTest, BudgetCodesRoundTrip) {
  Status deadline = Status::DeadlineExceeded("out of time");
  EXPECT_EQ(deadline.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(deadline.ToString(), "DeadlineExceeded: out of time");

  Status exhausted = Status::ResourceExhausted("out of steps");
  EXPECT_EQ(exhausted.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(exhausted.ToString(), "ResourceExhausted: out of steps");

  Status cancelled = Status::Cancelled("caller gave up");
  EXPECT_EQ(cancelled.code(), StatusCode::kCancelled);
  EXPECT_EQ(cancelled.ToString(), "Cancelled: caller gave up");
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::OutOfRange("negative");
  return Status::OK();
}

Status UsesReturnIfError(int x) {
  TL_RETURN_IF_ERROR(FailIfNegative(x));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorMacro) {
  EXPECT_TRUE(UsesReturnIfError(1).ok());
  EXPECT_EQ(UsesReturnIfError(-1).code(), StatusCode::kOutOfRange);
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Result<int> Doubled(int x) {
  int v;
  TL_ASSIGN_OR_RETURN(v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = ParsePositive(21);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 21);
  EXPECT_EQ(r.value_or(-1), 21);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = ParsePositive(-3);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, AssignOrReturnMacro) {
  Result<int> ok = Doubled(4);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 8);
  EXPECT_FALSE(Doubled(0).ok());
}

TEST(ResultTest, MoveOnlyFriendly) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Uniform(10);
    EXPECT_LT(v, 10u);
  }
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ZipfSkewsTowardLowRanks) {
  Rng rng(13);
  int low = 0;
  const int trials = 5000;
  for (int i = 0; i < trials; ++i) {
    if (rng.Zipf(10, 1.2) == 0) ++low;
  }
  // Rank 0 should dominate a uniform share (10%).
  EXPECT_GT(low, trials / 5);
}

TEST(RngTest, ZipfZeroThetaIsUniformish) {
  Rng rng(17);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 4000; ++i) ++counts[rng.Zipf(4, 0.0)];
  for (int c : counts) EXPECT_GT(c, 700);
}

TEST(RngTest, WeightedIndexRespectsZeros) {
  Rng rng(19);
  std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.WeightedIndex(weights), 1u);
  }
}

TEST(HashTest, Mix64Avalanches) {
  EXPECT_NE(Mix64(1), Mix64(2));
  EXPECT_NE(Mix64(0), 0u);
}

TEST(HashTest, HashBytesDistinguishes) {
  EXPECT_NE(HashBytes("a(b,c)"), HashBytes("a(b(c))"));
  EXPECT_EQ(HashBytes("same"), HashBytes("same"));
}

TEST(StringUtilTest, SplitKeepsEmptyPieces) {
  auto pieces = SplitString("a,,b", ',');
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[1], "");
  EXPECT_EQ(pieces[2], "b");
}

TEST(StringUtilTest, TrimWhitespace) {
  EXPECT_EQ(TrimWhitespace("  x\t\n"), "x");
  EXPECT_EQ(TrimWhitespace(""), "");
  EXPECT_EQ(TrimWhitespace(" \t "), "");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("treelattice", "tree"));
  EXPECT_FALSE(StartsWith("tree", "treelattice"));
}

TEST(StringUtilTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(100), "100 B");
  EXPECT_EQ(HumanBytes(2048), "2.0 KB");
  EXPECT_EQ(HumanBytes(3 << 20), "3.0 MB");
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(1.0, 0), "1");
}

TEST(JsonWriterTest, ObjectsArraysAndCommas) {
  JsonWriter w;
  w.BeginObject();
  w.Key("a").Int(1);
  w.Key("b").BeginArray().Int(2).String("x").Bool(true).Null().EndArray();
  w.Key("c").BeginObject().EndObject();
  w.EndObject();
  EXPECT_EQ(w.str(), R"({"a":1,"b":[2,"x",true,null],"c":{}})");
}

TEST(JsonWriterTest, EscapesStringsAndControlChars) {
  JsonWriter w;
  w.BeginArray().String("quo\"te\\path\n\x01").EndArray();
  EXPECT_EQ(w.str(), "[\"quo\\\"te\\\\path\\n\\u0001\"]");
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.BeginArray()
      .Double(1.5)
      .Double(std::numeric_limits<double>::infinity())
      .Double(std::numeric_limits<double>::quiet_NaN())
      .EndArray();
  EXPECT_EQ(w.str(), "[1.5,null,null]");
}

// The reference renderings Double, Int and Uint must reproduce byte for
// byte: printf's "%.17g" and std::to_string.
std::string PrintfDouble(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string WrittenDouble(double value) {
  JsonWriter w;
  w.Double(value);
  return w.TakeString();
}

TEST(JsonWriterTest, DoubleHasPrintfBytesOnEdgeValues) {
  const double two53 = std::ldexp(1.0, 53);
  const double edges[] = {0.0,
                          -0.0,
                          std::numeric_limits<double>::denorm_min(),
                          -std::numeric_limits<double>::denorm_min(),
                          std::nextafter(DBL_MIN, 0.0),  // largest subnormal
                          1234.5 * std::numeric_limits<double>::denorm_min(),
                          DBL_MIN,
                          -DBL_MIN,
                          DBL_MAX,
                          -DBL_MAX,
                          two53 - 1,
                          two53,
                          two53 + 2,  // 2^53 + 1 rounds to 2^53
                          1e21,
                          1e20,
                          -1e21,
                          1e16,
                          1e17,
                          1e-4,
                          1e-5,
                          0.1,
                          0.5,
                          1.0,
                          2.0,
                          3.0,
                          7.0,
                          10.0,
                          42.0,
                          100.0,
                          -1.0,
                          123456789.0};
  for (double value : edges) {
    EXPECT_EQ(WrittenDouble(value), PrintfDouble(value)) << value;
  }
}

TEST(JsonWriterTest, DoubleHasPrintfBytesOnRandomBitPatterns) {
  std::mt19937_64 rng(20061);
  int non_finite = 0;
  for (int i = 0; i < (1 << 20); ++i) {
    const uint64_t bits = rng();
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    if (!std::isfinite(value)) {
      ++non_finite;
      ASSERT_EQ(WrittenDouble(value), "null") << bits;
      continue;
    }
    ASSERT_EQ(WrittenDouble(value), PrintfDouble(value)) << bits;
  }
  // About 1 pattern in 2048 has an all-ones exponent.
  EXPECT_GT(non_finite, 0);
}

TEST(JsonWriterTest, IntegersHaveToStringBytes) {
  for (int64_t value : {std::numeric_limits<int64_t>::min(),
                        std::numeric_limits<int64_t>::max(), int64_t{0},
                        int64_t{-1}}) {
    JsonWriter w;
    w.Int(value);
    EXPECT_EQ(w.str(), std::to_string(value));
  }
  for (uint64_t value : {std::numeric_limits<uint64_t>::max(), uint64_t{0}}) {
    JsonWriter w;
    w.Uint(value);
    EXPECT_EQ(w.str(), std::to_string(value));
  }
}

TEST(JsonWriterTest, AppendsToACallersBuffer) {
  std::string line = "prefix:";
  {
    JsonWriter w(&line);
    w.BeginArray().Uint(1).Double(0.5).EndArray();
  }
  EXPECT_EQ(line, "prefix:[1,0.5]");
}

TEST(JsonWriterTest, RawSplicesVerbatim) {
  JsonWriter w;
  w.BeginObject().Key("m").Raw(R"({"x":1})").Key("n").Int(2).EndObject();
  EXPECT_EQ(w.str(), R"({"m":{"x":1},"n":2})");
}

TEST(JsonParseTest, RoundTripsWriterOutput) {
  JsonWriter w;
  w.BeginObject();
  w.Key("name").String("bench");
  w.Key("values").BeginArray().Int(1).Double(2.5).EndArray();
  w.Key("ok").Bool(true);
  w.EndObject();
  Result<JsonValue> parsed = ParseJson(w.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("name")->string_value, "bench");
  ASSERT_EQ(parsed->Find("values")->array.size(), 2u);
  EXPECT_DOUBLE_EQ(parsed->Find("values")->array[1].number_value, 2.5);
  EXPECT_TRUE(parsed->Find("ok")->bool_value);
}

TEST(JsonParseTest, HandlesEscapesAndUnicode) {
  Result<JsonValue> parsed = ParseJson(R"("a\"b\\c\nA")");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->string_value, "a\"b\\c\nA");
}

TEST(JsonParseTest, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"unterminated",
        "{\"a\":1,}", "[1] trailing"}) {
    EXPECT_FALSE(ParseJson(bad).ok()) << bad;
  }
}

TEST(JsonParseTest, RejectsExcessiveNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(ParseJson(deep).ok());
}

TEST(JsonParseTest, FindOnNonObjectIsNull) {
  Result<JsonValue> parsed = ParseJson("[1,2]");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("x"), nullptr);
}

TEST(JsonParseTest, IntegerLiteralsAlsoReadExactly) {
  struct Case {
    const char* text;
    bool has_uint;
    uint64_t uint_value;
  };
  for (const Case& c : {Case{"0", true, 0},
                        Case{"9007199254740993", true, 9007199254740993u},
                        Case{"18446744073709551615", true, UINT64_MAX},
                        Case{"18446744073709551616", false, 0},
                        Case{"-1", false, 0}, Case{"1.0", false, 0},
                        Case{"1e3", false, 0}}) {
    Result<JsonValue> parsed = ParseJson(c.text);
    ASSERT_TRUE(parsed.ok()) << c.text;
    EXPECT_EQ(parsed->has_uint, c.has_uint) << c.text;
    if (c.has_uint) {
      EXPECT_EQ(parsed->uint_value, c.uint_value) << c.text;
    }
  }
  // The double stays as before: the nearest one to the literal.
  EXPECT_EQ(ParseJson("9007199254740993")->number_value, 9007199254740992.0);
}

TEST(JsonParseTest, NumbersKnowWhetherTheirLiteralIsAnInteger) {
  // Checked on the digits, not on the double they round to.
  for (const char* text : {"0", "4", "4.0", "4e0", "0.4e1", "40e-1",
                           "123.450e2", "1E+2", "-0.0", "0e-999", "1e400"}) {
    Result<JsonValue> parsed = ParseJson(text);
    ASSERT_TRUE(parsed.ok()) << text;
    EXPECT_TRUE(parsed->integral) << text;
  }
  for (const char* text : {"4.5", "1.00000000000000000001", "-4", "-4.0",
                           "1.2345e3", "4e-1", "1e-400", "0.1e0"}) {
    Result<JsonValue> parsed = ParseJson(text);
    ASSERT_TRUE(parsed.ok()) << text;
    EXPECT_FALSE(parsed->integral) << text;
  }
  EXPECT_FALSE(ParseJson("\"4\"")->integral);
}

// Regression coverage for the poller's edge Status values: the transport
// now routes every Add/Modify/Remove failure through CountPollerError
// instead of discarding it, so the contract below is load-bearing.
class EventPollerEdgeTest : public ::testing::TestWithParam<bool> {};

TEST_P(EventPollerEdgeTest, ModifyUnknownFdIsNotFound) {
  EventPoller poller(/*force_poll=*/GetParam());
  ASSERT_TRUE(poller.ok());
  Status s = poller.Modify(12345, /*want_read=*/true, /*want_write=*/false);
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST_P(EventPollerEdgeTest, RemoveUnknownFdIsTolerated) {
  EventPoller poller(/*force_poll=*/GetParam());
  ASSERT_TRUE(poller.ok());
  // Closing a fd auto-deregisters it from epoll, so a second Remove from
  // the transport's teardown bookkeeping must not count as an error.
  EXPECT_TRUE(poller.Remove(12345).ok());
  EXPECT_EQ(poller.watched(), 0u);
}

TEST_P(EventPollerEdgeTest, AddBadFdIsInvalidArgument) {
  EventPoller poller(/*force_poll=*/GetParam());
  ASSERT_TRUE(poller.ok());
  Status s = poller.Add(-1, /*want_read=*/true, /*want_write=*/false);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(poller.watched(), 0u);
}

TEST_P(EventPollerEdgeTest, UsableAfterEdgeFailures) {
  EventPoller poller(/*force_poll=*/GetParam());
  ASSERT_TRUE(poller.ok());
  IgnoreStatus(poller.Modify(12345, true, false), "test: edge-case probe");
  IgnoreStatus(poller.Remove(12345), "test: edge-case probe");

  int pipe_fds[2];
  ASSERT_EQ(pipe(pipe_fds), 0);
  ASSERT_TRUE(poller.Add(pipe_fds[0], /*want_read=*/true,
                         /*want_write=*/false)
                  .ok());
  ASSERT_EQ(write(pipe_fds[1], "x", 1), 1);
  std::vector<EventPoller::Event> events;
  ASSERT_TRUE(poller.Wait(/*timeout_millis=*/1000, &events).ok());
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].fd, pipe_fds[0]);
  EXPECT_TRUE(events[0].readable);

  EXPECT_TRUE(poller.Remove(pipe_fds[0]).ok());
  close(pipe_fds[0]);
  close(pipe_fds[1]);
}

INSTANTIATE_TEST_SUITE_P(Backends, EventPollerEdgeTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "PollFallback" : "Native";
                         });

}  // namespace
}  // namespace treelattice
