// Tests of the benchmark's own helpers: percentile choice and median, span
// self time, and the reference-answer comparison. (Run-to-run quartile spread
// is spread.py's; tests/test_spread.py covers it.)

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>

#include "harness/spans.hpp"
#include "harness/stats.hpp"
#include "harness/workload.hpp"

using namespace perfbench;

TEST(Percentile, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(supported_percentile(19), 0u);      // p50 is rank 10: only 9 beyond
  EXPECT_EQ(supported_percentile(20), 5000u);
  EXPECT_EQ(supported_percentile(99), 5000u);   // p90 is rank 90: 9 beyond
  EXPECT_EQ(supported_percentile(100), 9000u);
  EXPECT_EQ(supported_percentile(999), 9000u);  // p99 is rank 990: 9 beyond
  EXPECT_EQ(supported_percentile(1000), 9900u);
  EXPECT_EQ(supported_percentile(9999), 9900u);
  EXPECT_EQ(supported_percentile(10000), 9990u);
  EXPECT_EQ(supported_percentile(100000), 9999u);
}

TEST(Percentile, NearestRank) {
  std::vector<double> v(100);
  std::iota(v.begin(), v.end(), 1.0);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(percentile(v, 5000), 50.0);
  EXPECT_EQ(percentile(v, 9900), 99.0);
  EXPECT_EQ(percentile(v, 10000), 100.0);
  EXPECT_EQ(percentile({7.0}, 9900), 7.0);
  EXPECT_EQ(samples_beyond(1000, 9900), 10u);
  EXPECT_THROW(percentile({}, 5000), std::invalid_argument);
}

TEST(Median, OddAndEven) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(SelfTime, NoChildren) { EXPECT_EQ(self_time(10, 50, {}), 40); }

TEST(SelfTime, NestedChildrenAreSubtractedOnce) {
  // Disjoint children.
  EXPECT_EQ(self_time(0, 100, {{10, 20}, {30, 50}}), 70);
  // A child inside another child (a grandchild recorded at this level, or a
  // retry inside a hedge) covers nothing extra.
  EXPECT_EQ(self_time(0, 100, {{10, 60}, {20, 30}}), 50);
}

TEST(SelfTime, OverlappingChildrenCountTheirUnion) {
  EXPECT_EQ(self_time(0, 100, {{10, 40}, {30, 60}}), 50);
  EXPECT_EQ(self_time(0, 100, {{30, 60}, {10, 40}, {55, 70}}), 40);
  // Touching intervals merge without a gap.
  EXPECT_EQ(self_time(0, 100, {{10, 20}, {20, 30}}), 80);
}

TEST(SelfTime, ChildrenAreClippedToTheParent) {
  EXPECT_EQ(self_time(50, 100, {{0, 60}, {90, 200}}), 30);
  EXPECT_EQ(self_time(50, 100, {{0, 40}, {120, 200}}), 50);
  EXPECT_EQ(self_time(50, 100, {{0, 200}}), 0);
}

TEST(Tracer, ParentsAndSelfTimesAddUp) {
  Tracer tr;
  {
    ScopedSpan root(tr, "root", 7);
    {
      ScopedSpan a(tr, "child", 7);
      ScopedSpan b(tr, "grandchild", 7);
    }
    ScopedSpan c(tr, "child", 7);
  }
  const auto& spans = tr.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 1);
  EXPECT_EQ(spans[3].parent, 0);
  for (const Span& s : spans) EXPECT_EQ(s.op, 7u);

  const auto self = tr.self_times();
  std::int64_t sum = 0;
  for (std::int64_t t : self) {
    EXPECT_GE(t, 0);
    sum += t;
  }
  EXPECT_EQ(sum, spans[0].end_ns - spans[0].start_ns);
  const auto totals = tr.totals();
  EXPECT_EQ(totals.at("child").count, 2u);
  EXPECT_EQ(totals.at("child").self_ns, self[1] + self[3]);
}

TEST(Answers, CompareDocumentIdsAndScoreBits) {
  std::vector<planetp::core::SearchHit> hits(2);
  hits[0].doc = {3, 14};
  hits[0].score = 0.75;
  hits[1].doc = {1, 2};
  hits[1].score = 0.5;
  const Answer a = answer_of(hits);

  auto nudged = hits;
  nudged[1].score = std::nextafter(0.5, 1.0);  // one ulp: a different answer
  EXPECT_NE(answer_of(nudged), a);
  auto moved = hits;
  moved[0].doc.local = 15;
  EXPECT_NE(answer_of(moved), a);
  auto swapped = hits;
  std::swap(swapped[0], swapped[1]);
  EXPECT_NE(answer_of(swapped), a);
  auto shorter = hits;
  shorter.pop_back();
  EXPECT_NE(answer_of(shorter), a);
  EXPECT_EQ(answer_of(hits), a);

  // LiveCluster numbers its nodes from 1.
  std::vector<planetp::net::LiveHit> live(2);
  live[0] = {4, 14, 0.75, "x"};
  live[1] = {2, 2, 0.5, "y"};
  EXPECT_EQ(answer_of(live), a);
}

TEST(Answers, ReferenceFileRoundTrips) {
  char path[] = "perfbench_reference_XXXXXX";
  const int fd = mkstemp(path);
  ASSERT_GE(fd, 0);
  close(fd);
  std::unordered_map<std::size_t, Answer> answers;
  answers[0] = {};
  answers[5] = {AnswerHit{1, 2, 0x3fe8000000000000ULL},
                AnswerHit{99, 1023, 0x0000000000000001ULL}};
  write_reference(path, answers);
  EXPECT_EQ(read_reference(path), answers);
  std::remove(path);
}

TEST(Corpus, DeterministicInTheSeed) {
  const Corpus a = make_corpus(120, 6, 5);
  const Corpus b = make_corpus(120, 6, 5);
  const Corpus c = make_corpus(120, 6, 6);
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.owner, b.owner);
  EXPECT_NE(a.queries, c.queries);
  ASSERT_EQ(a.queries.size(), 2 * kTopicQueries);
  // Every other query carries one extra (broad) term.
  for (std::size_t q = 0; q + 1 < a.queries.size(); q += 2) {
    EXPECT_EQ(a.queries[q + 1].rfind(a.queries[q] + ' ', 0), 0u);
  }
}
