// Tests for Slice, Random, Properties, Arena, ThreadPool, and the clocks.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <thread>

#include "common/arena.h"
#include "common/clock.h"
#include "common/properties.h"
#include "common/random.h"
#include "common/slice.h"
#include "common/thread_pool.h"

namespace iotdb {
namespace {

TEST(SliceTest, Basics) {
  Slice s("hello");
  EXPECT_EQ(s.size(), 5u);
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s[1], 'e');
  EXPECT_EQ(s.ToString(), "hello");
  s.remove_prefix(2);
  EXPECT_EQ(s.ToString(), "llo");
  s.clear();
  EXPECT_TRUE(s.empty());
}

TEST(SliceTest, CompareIsLexicographic) {
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abd").compare(Slice("abc")), 0);
  EXPECT_EQ(Slice("abc").compare(Slice("abc")), 0);
  EXPECT_LT(Slice("ab").compare(Slice("abc")), 0);  // prefix sorts first
  EXPECT_TRUE(Slice("abc") == Slice("abc"));
  EXPECT_TRUE(Slice("abc") != Slice("abd"));
  EXPECT_TRUE(Slice("ab") < Slice("abc"));
}

TEST(SliceTest, StartsWith) {
  EXPECT_TRUE(Slice("substation.sensor").starts_with("substation"));
  EXPECT_FALSE(Slice("sub").starts_with("substation"));
}

TEST(RandomTest, DeterministicGivenSeed) {
  Random a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RandomTest, UniformStaysInRange) {
  Random rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    uint64_t v = rng.UniformRange(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Random rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RandomTest, ExponentialHasRequestedMean) {
  Random rng(11);
  double sum = 0;
  const int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += rng.Exponential(3.0);
  EXPECT_NEAR(sum / kN, 3.0, 0.1);
}

TEST(RandomTest, GaussianMoments) {
  Random rng(13);
  double sum = 0, sq = 0;
  const int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    double v = rng.Gaussian(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  double mean = sum / kN;
  double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(RandomTest, PrintableStringIsPrintable) {
  Random rng(17);
  std::string s = rng.RandomPrintableString(500);
  ASSERT_EQ(s.size(), 500u);
  for (char c : s) {
    EXPECT_TRUE(isalnum(static_cast<unsigned char>(c)));
  }
}

TEST(PropertiesTest, ParseAndTypedAccess) {
  Properties props;
  ASSERT_TRUE(props
                  .ParseText("# comment\n"
                             "recordcount=1000\n"
                             "  padded.key  =  padded value  \n"
                             "ratio: 0.75\n"
                             "flag=true\n"
                             "! another comment\n")
                  .ok());
  EXPECT_EQ(props.Get("recordcount"), "1000");
  EXPECT_EQ(props.Get("padded.key"), "padded value");
  EXPECT_EQ(props.GetInt("recordcount", 0).ValueOrDie(), 1000);
  EXPECT_DOUBLE_EQ(props.GetDouble("ratio", 0).ValueOrDie(), 0.75);
  EXPECT_TRUE(props.GetBool("flag", false).ValueOrDie());
  EXPECT_EQ(props.GetInt("missing", 42).ValueOrDie(), 42);
}

TEST(PropertiesTest, BadValuesAreErrors) {
  Properties props;
  ASSERT_TRUE(props.ParseText("n=abc\nb=maybe\n").ok());
  EXPECT_FALSE(props.GetInt("n", 0).ok());
  EXPECT_FALSE(props.GetBool("b", false).ok());
}

TEST(PropertiesTest, MissingSeparatorIsError) {
  Properties props;
  EXPECT_FALSE(props.ParseText("justakeynovalue\n").ok());
}

TEST(PropertiesTest, RoundTripThroughText) {
  Properties props;
  props.Set("b", "2");
  props.Set("a", "1");
  Properties reparsed;
  ASSERT_TRUE(reparsed.ParseText(props.ToText()).ok());
  EXPECT_EQ(reparsed.map(), props.map());
}

TEST(ArenaTest, AllocationsAreUsableAndCounted) {
  Arena arena;
  char* p = arena.Allocate(100);
  memset(p, 0xab, 100);
  EXPECT_GE(arena.MemoryUsage(), 100u);

  // Large allocation gets its own block.
  char* big = arena.Allocate(100000);
  memset(big, 0xcd, 100000);
  EXPECT_GE(arena.MemoryUsage(), 100100u);
}

TEST(ArenaTest, AlignedAllocationsAreAligned) {
  Arena arena;
  arena.Allocate(1);  // misalign the bump pointer
  for (int i = 0; i < 100; ++i) {
    char* p = arena.AllocateAligned(24);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) %
                  alignof(std::max_align_t),
              0u);
    arena.Allocate(1 + i % 3);
  }
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.Submit([&counter] { counter++; }));
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, RejectsAfterShutdown) {
  ThreadPool pool(1);
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([] {}));
}

TEST(ThreadPoolTest, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  pool.Submit([] {});
  pool.Shutdown();
  pool.Shutdown();
}

TEST(ManualClockTest, AdvancesOnDemand) {
  ManualClock clock(1000);
  EXPECT_EQ(clock.NowMicros(), 1000u);
  clock.Advance(500);
  EXPECT_EQ(clock.NowMicros(), 1500u);
  clock.SleepMicros(250);
  EXPECT_EQ(clock.NowMicros(), 1750u);
  EXPECT_EQ(clock.PosixSeconds(), 0u);  // 1750 us
}

TEST(RealClockTest, IsMonotonic) {
  Clock* clock = Clock::Real();
  uint64_t a = clock->NowMicros();
  uint64_t b = clock->NowMicros();
  EXPECT_LE(a, b);
}

}  // namespace
}  // namespace iotdb
