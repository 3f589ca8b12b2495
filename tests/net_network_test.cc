#include "net/network.h"

#include <gtest/gtest.h>

#include "common/stopwatch.h"

namespace lakefed::net {
namespace {

TEST(NetworkProfileTest, PaperProfilesMatchSection3) {
  auto profiles = NetworkProfile::PaperProfiles();
  ASSERT_EQ(profiles.size(), 4u);

  EXPECT_EQ(profiles[0].name, "NoDelay");
  EXPECT_FALSE(profiles[0].HasDelay());
  EXPECT_DOUBLE_EQ(profiles[0].MeanLatencyMs(), 0.0);

  EXPECT_EQ(profiles[1].name, "Gamma1");
  EXPECT_DOUBLE_EQ(profiles[1].alpha, 1.0);
  EXPECT_DOUBLE_EQ(profiles[1].beta, 0.3);
  EXPECT_NEAR(profiles[1].MeanLatencyMs(), 0.3, 1e-12);

  EXPECT_EQ(profiles[2].name, "Gamma2");
  EXPECT_NEAR(profiles[2].MeanLatencyMs(), 3.0, 1e-12);

  EXPECT_EQ(profiles[3].name, "Gamma3");
  EXPECT_NEAR(profiles[3].MeanLatencyMs(), 4.5, 1e-12);
}

TEST(NetworkProfileTest, SlowNetworkClassification) {
  // Heuristic 2's notion of "slow": Gamma2 and Gamma3 are slow, the others
  // are fast.
  EXPECT_LT(NetworkProfile::NoDelay().MeanLatencyMs(),
            kSlowNetworkThresholdMs);
  EXPECT_LT(NetworkProfile::Gamma1().MeanLatencyMs(),
            kSlowNetworkThresholdMs);
  EXPECT_GT(NetworkProfile::Gamma2().MeanLatencyMs(),
            kSlowNetworkThresholdMs);
  EXPECT_GT(NetworkProfile::Gamma3().MeanLatencyMs(),
            kSlowNetworkThresholdMs);
}

TEST(NetworkProfileTest, TimeScaleScalesMean) {
  NetworkProfile p = NetworkProfile::Gamma2();
  p.time_scale = 0.1;
  EXPECT_NEAR(p.MeanLatencyMs(), 0.3, 1e-12);
}

TEST(DelayChannelTest, NoDelayTransfersInstantly) {
  DelayChannel channel(NetworkProfile::NoDelay(), 1);
  Stopwatch sw;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(channel.Transfer(CancellationToken()).ok());
  }
  EXPECT_LT(sw.ElapsedMillis(), 50.0);
  EXPECT_EQ(channel.messages_transferred(), 1000u);
  EXPECT_DOUBLE_EQ(channel.total_delay_ms(), 0.0);
}

TEST(DelayChannelTest, SampleMeanMatchesProfile) {
  DelayChannel channel(NetworkProfile::Gamma3(), 2);
  double sum = 0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) sum += channel.SampleDelayMs();
  EXPECT_NEAR(sum / kSamples, 4.5, 0.25);
}

TEST(DelayChannelTest, TransferActuallySleeps) {
  // Scaled-down Gamma3 so the test stays fast: 100 messages at a mean of
  // 0.45 ms should take at least ~20 ms in total.
  NetworkProfile p = NetworkProfile::Gamma3();
  p.time_scale = 0.1;
  DelayChannel channel(p, 3);
  Stopwatch sw;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(channel.Transfer(CancellationToken()).ok());
  }
  double elapsed = sw.ElapsedMillis();
  EXPECT_GT(elapsed, 20.0);
  EXPECT_GT(channel.total_delay_ms(), 20.0);
  EXPECT_LE(channel.total_delay_ms(), elapsed * 1.5 + 50);
}

TEST(DelayChannelTest, DeterministicDelaysAcrossSeeds) {
  DelayChannel a(NetworkProfile::Gamma1(), 99);
  DelayChannel b(NetworkProfile::Gamma1(), 99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.SampleDelayMs(), b.SampleDelayMs());
  }
}

}  // namespace
}  // namespace lakefed::net
