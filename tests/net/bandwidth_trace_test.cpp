#include "net/bandwidth_trace.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.h"
#include "trace/cellular_profiles.h"

namespace vodx::net {
namespace {

TEST(BandwidthTrace, ConstantEverywhere) {
  BandwidthTrace t = BandwidthTrace::constant(2e6, 10);
  EXPECT_DOUBLE_EQ(t.at(0), 2e6);
  EXPECT_DOUBLE_EQ(t.at(9.99), 2e6);
  EXPECT_DOUBLE_EQ(t.mean(), 2e6);
  EXPECT_DOUBLE_EQ(t.peak(), 2e6);
}

TEST(BandwidthTrace, StepChangesAtBoundary) {
  BandwidthTrace t = BandwidthTrace::step(4e6, 1e6, 5, 10);
  EXPECT_DOUBLE_EQ(t.at(4.99), 4e6);
  EXPECT_DOUBLE_EQ(t.at(5.0), 1e6);
  EXPECT_DOUBLE_EQ(t.at(9.0), 1e6);
  EXPECT_DOUBLE_EQ(t.mean(), 2.5e6);
}

TEST(BandwidthTrace, WrapsAroundPastEnd) {
  BandwidthTrace t = BandwidthTrace::step(4e6, 1e6, 5, 10);
  EXPECT_DOUBLE_EQ(t.at(10.0), 4e6);  // wraps to t=0
  EXPECT_DOUBLE_EQ(t.at(15.5), 1e6);
  EXPECT_DOUBLE_EQ(t.at(25.0), 1e6);
}

TEST(BandwidthTrace, PerSecondSamples) {
  BandwidthTrace t = BandwidthTrace::per_second({1e6, 2e6, 3e6});
  EXPECT_DOUBLE_EQ(t.duration(), 3.0);
  EXPECT_DOUBLE_EQ(t.at(0.5), 1e6);
  EXPECT_DOUBLE_EQ(t.at(1.0), 2e6);
  EXPECT_DOUBLE_EQ(t.at(2.9), 3e6);
  EXPECT_DOUBLE_EQ(t.mean(), 2e6);
}

TEST(BandwidthTrace, BitsBetweenWithinOneSegment) {
  BandwidthTrace t = BandwidthTrace::constant(8e6, 10);
  EXPECT_DOUBLE_EQ(t.bits_between(1, 3), 16e6);
}

TEST(BandwidthTrace, BitsBetweenAcrossBoundaries) {
  BandwidthTrace t = BandwidthTrace::step(4e6, 1e6, 5, 10);
  EXPECT_DOUBLE_EQ(t.bits_between(4, 6), 4e6 + 1e6);
}

TEST(BandwidthTrace, BitsBetweenAcrossWrap) {
  BandwidthTrace t = BandwidthTrace::step(4e6, 1e6, 5, 10);
  // [9, 11) = 1 s of 1 Mbps + 1 s of 4 Mbps (wrapped).
  EXPECT_DOUBLE_EQ(t.bits_between(9, 11), 1e6 + 4e6);
}

TEST(BandwidthTrace, SlicePreservesValues) {
  BandwidthTrace t = BandwidthTrace::step(4e6, 1e6, 5, 10);
  BandwidthTrace s = t.slice(3, 4);  // covers [3, 7): 2 s high, 2 s low
  EXPECT_DOUBLE_EQ(s.duration(), 4);
  EXPECT_DOUBLE_EQ(s.at(0), 4e6);
  EXPECT_DOUBLE_EQ(s.at(1.99), 4e6);
  EXPECT_DOUBLE_EQ(s.at(2.0), 1e6);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5e6);
}

TEST(BandwidthTrace, SliceAcrossWrap) {
  BandwidthTrace t = BandwidthTrace::step(4e6, 1e6, 5, 10);
  BandwidthTrace s = t.slice(8, 4);  // [8,10) low + [0,2) high
  EXPECT_DOUBLE_EQ(s.at(0), 1e6);
  EXPECT_DOUBLE_EQ(s.at(2.5), 4e6);
}

TEST(BandwidthTrace, SliceOfConstantIsConstant) {
  BandwidthTrace t = BandwidthTrace::constant(3e6, 10);
  BandwidthTrace s = t.slice(7, 6);  // wraps
  EXPECT_DOUBLE_EQ(s.mean(), 3e6);
  EXPECT_EQ(s.samples().size(), 1u);
}

TEST(BandwidthTrace, RejectsBadConfigs) {
  EXPECT_THROW(BandwidthTrace::from_samples({}, 10), ConfigError);
  EXPECT_THROW(BandwidthTrace::from_samples({{0, 1e6}}, 0), ConfigError);
  EXPECT_THROW(BandwidthTrace::from_samples({{1, 1e6}}, 10), ConfigError);
  EXPECT_THROW(BandwidthTrace::from_samples({{0, 1e6}, {0.5, -2}}, 10),
               ConfigError);
  EXPECT_THROW(BandwidthTrace::from_samples({{0, 1e6}, {0.5, 2e6}, {0.5, 3e6}},
                                            10),
               ConfigError);
}

TEST(BandwidthTrace, NamePropagatesThroughSlice) {
  BandwidthTrace t = BandwidthTrace::constant(1e6, 10);
  t.set_name("prof");
  EXPECT_EQ(t.slice(0, 5).name(), "prof");
}

class TraceConservation : public ::testing::TestWithParam<int> {};

// Property: mean * duration == bits_between(0, duration) for any profile.
TEST_P(TraceConservation, MeanMatchesIntegral) {
  BandwidthTrace t = BandwidthTrace::per_second(
      [&] {
        std::vector<Bps> xs;
        for (int i = 0; i < 60; ++i) {
          xs.push_back(1e5 + 1e5 * ((i * GetParam()) % 17));
        }
        return xs;
      }());
  EXPECT_NEAR(t.mean() * t.duration(), t.bits_between(0, t.duration()), 1.0);
  // And wrap-around integration of two full periods doubles it.
  EXPECT_NEAR(t.bits_between(0, 2 * t.duration()),
              2 * t.bits_between(0, t.duration()), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceConservation,
                         ::testing::Values(1, 2, 3, 5, 7, 11));

TEST(BandwidthTrace, PieceBoundsAgreeWithLookups) {
  const BandwidthTrace t =
      BandwidthTrace::from_samples({{0, 1e6}, {2.5, 3e6}, {7, 2e6}}, 10);
  const BandwidthTrace::Piece piece = t.piece_at(13.0);  // second replay
  EXPECT_DOUBLE_EQ(piece.start, 12.5);
  EXPECT_DOUBLE_EQ(piece.end, 17.0);
  EXPECT_DOUBLE_EQ(piece.bandwidth, 3e6);
  EXPECT_DOUBLE_EQ(t.next_change_after(18.0), 20.0);  // wrap boundary
  const BandwidthTrace::Piece flat =
      BandwidthTrace::constant(4e6, 5).piece_at(123.0);
  EXPECT_DOUBLE_EQ(flat.bandwidth, 4e6);
  EXPECT_TRUE(std::isinf(flat.end) && flat.end > 0);
}

// The link reads capacity through a TraceCursor on every executed tick; a
// cached read must equal the full lookup bit for bit at every 10 ms grid
// tick (the simulator's `now += tick` recurrence), across the wrap-around,
// for every catalog profile and for pieces that start off the grid.
TEST(TraceCursor, MatchesLookupAtEveryGridTick) {
  std::vector<BandwidthTrace> traces = trace::all_profiles();
  traces.push_back(BandwidthTrace::from_samples(
      {{0, 2e6}, {0.333, 0}, {1.7, 5e6}, {2.25, 5e6}, {4.005, 1e6}}, 5.5));
  for (const BandwidthTrace& trace : traces) {
    TraceCursor cursor(trace);
    int mismatches = 0;
    Seconds t = 0;
    const Seconds end = 2.5 * trace.duration();
    while (t < end) {
      t += 0.01;
      const BandwidthTrace::Piece& piece = cursor.piece(t);
      if (piece.bandwidth != trace.at(t) ||
          piece.end != trace.next_change_after(t)) {
        ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0) << trace.name();
  }
}

}  // namespace
}  // namespace vodx::net
