// Tests for src/util: RNG, timers, strings, units, error handling.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <thread>

#include "src/util/error.hpp"
#include "src/util/parallel.hpp"
#include "src/util/random.hpp"
#include "src/util/string_util.hpp"
#include "src/util/timer.hpp"
#include "src/util/units.hpp"

namespace tbmd {
namespace {

TEST(Units, MassConversionRoundTrip) {
  // 1 amu * (A/fs)^2 should be 103.64 eV of kinetic energy scale.
  EXPECT_NEAR(units::kAmuToProgramMass, 103.6427, 1e-3);
  EXPECT_NEAR(units::amu_to_program_mass(12.011) / 12.011,
              units::kAmuToProgramMass, 1e-12);
}

TEST(Units, BoltzmannConstant) {
  EXPECT_NEAR(units::kBoltzmann * 300.0, 0.02585, 1e-4);  // kT at 300 K
}

TEST(Units, FrequencyConversions) {
  EXPECT_NEAR(units::per_fs_to_thz(0.001), 1.0, 1e-12);
  // 1/fs corresponds to 33356 cm^-1 (c = 2.9979e10 cm/s).
  EXPECT_NEAR(units::per_fs_to_inv_cm(1.0), 33356.4, 0.5);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.5, 3.5);
    EXPECT_GE(u, -2.5);
    EXPECT_LT(u, 3.5);
  }
}

TEST(Rng, UniformMeanAndVariance) {
  Rng rng(11);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    sum += u;
    sum2 += u * u;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.005);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.002);
}

TEST(Rng, GaussianMoments) {
  Rng rng(13);
  double sum = 0.0, sum2 = 0.0, sum3 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sum2 += g * g;
    sum3 += g * g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
  EXPECT_NEAR(sum3 / n, 0.0, 0.05);  // skewness ~ 0
}

TEST(Rng, GaussianShiftScale) {
  Rng rng(17);
  double sum = 0.0, sum2 = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian(5.0, 2.0);
    sum += g;
    sum2 += g * g;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(sum2 / n - mean * mean, 4.0, 0.1);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(19);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 3000; ++i) {
    const auto v = rng.below(17);
    EXPECT_LT(v, 17u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 17u);  // all residues hit
}

TEST(Rng, BelowZeroThrows) {
  Rng rng(21);
  EXPECT_THROW((void)rng.below(0), Error);
}

TEST(ErrorHandling, RequireThrowsWithContext) {
  try {
    TBMD_REQUIRE(1 == 2, "custom context");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("custom context"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
  }
}

TEST(Timer, MeasuresElapsedTime) {
  WallTimer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(t.seconds(), 0.015);
  EXPECT_LT(t.seconds(), 5.0);
}

TEST(PhaseTimers, AccumulatesNamedPhases) {
  PhaseTimers timers;
  timers.add("a", 1.0);
  timers.add("b", 2.0);
  timers.add("a", 0.5);
  EXPECT_DOUBLE_EQ(timers.seconds("a"), 1.5);
  EXPECT_DOUBLE_EQ(timers.seconds("b"), 2.0);
  EXPECT_DOUBLE_EQ(timers.total(), 3.5);
  EXPECT_DOUBLE_EQ(timers.seconds("missing"), 0.0);
  EXPECT_EQ(timers.phases().size(), 2u);
}

TEST(PhaseTimers, ScopeChargesOnDestruction) {
  PhaseTimers timers;
  {
    auto s = timers.scope("x");
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(timers.seconds("x"), 0.005);
}

TEST(PhaseTimers, ResetZeroesButKeepsPhases) {
  PhaseTimers timers;
  timers.add("a", 1.0);
  timers.reset();
  EXPECT_DOUBLE_EQ(timers.seconds("a"), 0.0);
  EXPECT_EQ(timers.phases().size(), 1u);
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  abc  "), "abc");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("\t x \n"), "x");
}

TEST(Strings, SplitWhitespace) {
  const auto t = split_whitespace("  a  bb\tccc \n d ");
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t[0], "a");
  EXPECT_EQ(t[1], "bb");
  EXPECT_EQ(t[2], "ccc");
  EXPECT_EQ(t[3], "d");
  EXPECT_TRUE(split_whitespace("").empty());
  EXPECT_TRUE(split_whitespace("   ").empty());
}

TEST(Strings, SplitDelimiterKeepsEmptyFields) {
  const auto t = split("a,,b,", ',');
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t[0], "a");
  EXPECT_EQ(t[1], "");
  EXPECT_EQ(t[2], "b");
  EXPECT_EQ(t[3], "");
}

TEST(Strings, CaseInsensitiveEquality) {
  EXPECT_TRUE(iequals("Si", "si"));
  EXPECT_TRUE(iequals("ABC", "abc"));
  EXPECT_FALSE(iequals("ab", "abc"));
  EXPECT_FALSE(iequals("ab", "ac"));
}

TEST(Strings, ParseDouble) {
  EXPECT_DOUBLE_EQ(parse_double("3.25", "t"), 3.25);
  EXPECT_DOUBLE_EQ(parse_double("-1e-3", "t"), -1e-3);
  EXPECT_THROW((void)parse_double("abc", "t"), Error);
  EXPECT_THROW((void)parse_double("1.5x", "t"), Error);
  EXPECT_THROW((void)parse_double("", "t"), Error);
}

TEST(Strings, ParseLong) {
  EXPECT_EQ(parse_long("42", "t"), 42);
  EXPECT_EQ(parse_long("-7", "t"), -7);
  EXPECT_THROW((void)parse_long("4.2", "t"), Error);
  EXPECT_THROW((void)parse_long("", "t"), Error);
}

TEST(Parallel, ThreadCountIsPositive) {
  EXPECT_GE(par::max_threads(), 1);
}

TEST(Parallel, SetNumThreadsRoundTrips) {
  const int before = par::max_threads();
  par::set_num_threads(1);
  EXPECT_EQ(par::max_threads(), 1);
  par::set_num_threads(before);
  EXPECT_EQ(par::max_threads(), before);
}

// The remaining Parallel tests pin down the contract that must hold
// identically with and without -fopenmp (CI compiles and runs both
// configurations via the TBMD_NO_OPENMP option).

TEST(Parallel, ThreadBudgetSplitsCoresAcrossWorkers) {
  EXPECT_EQ(par::thread_budget(4, 1, 0), 4);
  EXPECT_EQ(par::thread_budget(4, 2, 0), 2);
  EXPECT_EQ(par::thread_budget(4, 8, 0), 1);  // never below one thread
  EXPECT_EQ(par::thread_budget(4, 2, 3), 3);  // an explicit request wins
  EXPECT_EQ(par::thread_budget(4, 0, 0), 4);
}

TEST(Parallel, ThreadIdIsZeroOutsideParallelRegion) {
  EXPECT_EQ(par::thread_id(), 0);
}

TEST(Parallel, OpenmpFlagMatchesThreadCeiling) {
  if (!par::openmp_enabled()) {
    // Serial build: the wrappers must report exactly one thread, always.
    EXPECT_EQ(par::max_threads(), 1);
    par::set_num_threads(8);  // must be an accepted no-op
    EXPECT_EQ(par::max_threads(), 1);
  } else {
    EXPECT_GE(par::max_threads(), 1);
  }
}

TEST(Parallel, WorthParallelizingThreshold) {
  EXPECT_FALSE(par::worth_parallelizing(0, 1000));
  EXPECT_FALSE(par::worth_parallelizing(100, 500));    // 50'000: at threshold
  EXPECT_TRUE(par::worth_parallelizing(100, 501));     // just above
  EXPECT_TRUE(par::worth_parallelizing(1'000'000, 1));
}

}  // namespace
}  // namespace tbmd
