#include "workload/mmpp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "common/stats.hpp"

namespace src::workload {
namespace {

TEST(Mmpp2Test, StationaryMeanRate) {
  Mmpp2Params params;
  params.rate_quiet = 10'000;
  params.rate_burst = 100'000;
  params.sojourn_quiet_s = 4e-3;
  params.sojourn_burst_s = 1e-3;
  // pi_burst = 0.2 -> mean = 0.8*10k + 0.2*100k = 28k.
  EXPECT_NEAR(params.mean_rate(), 28'000.0, 1e-6);
  EXPECT_NEAR(params.burst_fraction(), 0.2, 1e-12);
}

TEST(Mmpp2Test, GeneratorMatchesAnalyticMean) {
  Mmpp2Params params;
  params.rate_quiet = 20'000;
  params.rate_burst = 200'000;
  params.sojourn_quiet_s = 2e-3;
  params.sojourn_burst_s = 0.5e-3;
  Mmpp2Generator gen(params, common::Rng(3));
  common::RunningStats stats;
  for (int i = 0; i < 300'000; ++i) stats.add(gen.next_iat_us());
  EXPECT_NEAR(stats.mean(), params.mean_iat_us(), params.mean_iat_us() * 0.03);
}

TEST(Mmpp2Test, BurstyProcessHasHighScv) {
  Mmpp2Params params;
  params.rate_quiet = 5'000;
  params.rate_burst = 500'000;
  params.sojourn_quiet_s = 10e-3;
  params.sojourn_burst_s = 2e-3;
  Mmpp2Generator gen(params, common::Rng(4));
  common::RunningStats stats;
  for (int i = 0; i < 200'000; ++i) stats.add(gen.next_iat_us());
  EXPECT_GT(stats.scv(), 2.0);
}

TEST(FitMmpp2Test, PoissonWhenScvIsOne) {
  const auto params = fit_mmpp2(10.0, 1.0);
  EXPECT_DOUBLE_EQ(params.rate_quiet, params.rate_burst);
  EXPECT_NEAR(params.mean_iat_us(), 10.0, 1e-9);
}

TEST(FitMmpp2Test, HitsTargetScv) {
  for (double target : {2.0, 4.0, 8.0}) {
    const auto params = fit_mmpp2(10.0, target);
    Mmpp2Generator gen(params, common::Rng(99));
    common::RunningStats stats;
    for (int i = 0; i < 200'000; ++i) stats.add(gen.next_iat_us());
    EXPECT_NEAR(stats.mean(), 10.0, 1.0) << "target scv " << target;
    EXPECT_NEAR(stats.scv(), target, target * 0.25) << "target scv " << target;
  }
}

TEST(SyntheticTest, DeterministicAndSorted) {
  const auto params = fujitsu_vdi_like(500);
  const Trace a = generate_synthetic(params, 5);
  const Trace b = generate_synthetic(params, 5);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    if (i > 0) {
      EXPECT_LE(a[i - 1].arrival, a[i].arrival);
    }
  }
}

TEST(SyntheticTest, VdiPresetMatchesPaperStatistics) {
  const Trace trace = generate_synthetic(fujitsu_vdi_like(20'000), 21);
  const auto stats = analyze(trace);
  // Paper SIV-D: read 44 KB / write 23 KB mean sizes, ~10 us IATs both.
  EXPECT_NEAR(stats.read.mean_size_bytes, 44.0 * 1024, 4000.0);
  EXPECT_NEAR(stats.write.mean_size_bytes, 23.0 * 1024, 2500.0);
  EXPECT_NEAR(stats.read.mean_iat_us, 10.0, 1.0);
  EXPECT_NEAR(stats.write.mean_iat_us, 10.0, 1.0);
  // Bursty arrivals: SCV well above Poisson.
  EXPECT_GT(stats.read.scv_iat, 1.5);
}

TEST(SyntheticTest, CbsPresetIsWriteHeavy) {
  const Trace trace = generate_synthetic(tencent_cbs_like(10'000), 23);
  const auto stats = analyze(trace);
  EXPECT_GT(stats.write.flow_speed_bytes_per_sec, stats.read.flow_speed_bytes_per_sec);
}

TEST(SyntheticTest, SizeScvControlled) {
  SyntheticParams params = fujitsu_vdi_like(20'000);
  params.read.size_scv = 0.1;
  const Trace low = generate_synthetic(params, 31);
  params.read.size_scv = 3.0;
  const Trace high = generate_synthetic(params, 31);
  EXPECT_LT(analyze(low).read.scv_size, analyze(high).read.scv_size);
}

// Reference: a generator-driven fit over a per-draw generator that
// recomputes each exponential mean and calls Rng::exponential at every
// draw. Every candidate runs a fresh generator over Rng(fit_seed);
// fit_mmpp2 draws that stream once and replays it, and must land on
// identical parameters.
namespace reference {

class Generator {
 public:
  Generator(const Mmpp2Params& params, common::Rng rng) : params_(params), rng_(rng) {
    in_burst_ = rng_.bernoulli(params_.burst_fraction());
    const double sojourn_s = in_burst_ ? params_.sojourn_burst_s : params_.sojourn_quiet_s;
    state_time_left_us_ = rng_.exponential(sojourn_s * 1e6);
  }

  double next_iat_us() {
    double elapsed_us = 0.0;
    for (;;) {
      const double rate_per_us =
          (in_burst_ ? params_.rate_burst : params_.rate_quiet) * 1e-6;
      const double candidate_us = rng_.exponential(1.0 / rate_per_us);
      if (candidate_us <= state_time_left_us_) {
        state_time_left_us_ -= candidate_us;
        return elapsed_us + candidate_us;
      }
      elapsed_us += state_time_left_us_;
      in_burst_ = !in_burst_;
      const double sojourn_s = in_burst_ ? params_.sojourn_burst_s : params_.sojourn_quiet_s;
      state_time_left_us_ = rng_.exponential(sojourn_s * 1e6);
    }
  }

 private:
  Mmpp2Params params_;
  common::Rng rng_;
  bool in_burst_ = false;
  double state_time_left_us_ = 0.0;
};

double empirical_scv(const Mmpp2Params& params, std::uint64_t seed) {
  Generator gen(params, common::Rng(seed));
  common::RunningStats stats;
  for (std::size_t i = 0; i < 100'000; ++i) stats.add(gen.next_iat_us());
  return stats.scv();
}

Mmpp2Params make_params(double mean_iat_us, double ratio, double fraction,
                        double scale_s) {
  const double quiet_rate = (1e6 / mean_iat_us) / (1.0 - fraction + ratio * fraction);
  Mmpp2Params params;
  params.rate_quiet = quiet_rate;
  params.rate_burst = ratio * quiet_rate;
  params.sojourn_quiet_s = scale_s * (1.0 - fraction);
  params.sojourn_burst_s = scale_s * fraction;
  return params;
}

/// How a reference fit ended, so the tests can show they reach each exit.
enum class Exit { kPoisson, kBisected, kFallback };

Mmpp2Params fit(double mean_iat_us, double target_scv, double ratio,
                std::uint64_t seed, Exit* exit, int* escalations) {
  *escalations = 0;
  if (target_scv <= 1.05) {
    *exit = Exit::kPoisson;
    Mmpp2Params params;
    params.rate_quiet = params.rate_burst = 1e6 / mean_iat_us;
    params.sojourn_quiet_s = params.sojourn_burst_s = 1e-3;
    return params;
  }
  const double lo_cap = mean_iat_us * 1e-6 * 2.0;
  const double hi_cap = mean_iat_us * 1e-6 * 1e3;
  for (int escalation = 0; escalation < 6; ++escalation, ratio *= 2.5) {
    double lo = lo_cap;
    double hi = hi_cap;
    if (empirical_scv(make_params(mean_iat_us, ratio, 0.2, hi), seed) <
        target_scv * 1.02) {
      ++*escalations;
      continue;
    }
    for (int iter = 0; iter < 30; ++iter) {
      const double mid = std::sqrt(lo * hi);
      const double scv = empirical_scv(make_params(mean_iat_us, ratio, 0.2, mid), seed);
      if (scv < target_scv) lo = mid; else hi = mid;
    }
    *exit = Exit::kBisected;
    return make_params(mean_iat_us, ratio, 0.2, std::sqrt(lo * hi));
  }
  *exit = Exit::kFallback;
  return make_params(mean_iat_us, ratio / 2.5, 0.2, hi_cap);
}

void generate_stream(const SyntheticStreamParams& stream, IoType type,
                     const SyntheticParams& params, common::Rng& rng, Trace& out) {
  Exit exit;
  int escalations;
  Generator arrivals(
      fit(stream.mean_iat_us, stream.iat_scv, 10.0, 42, &exit, &escalations),
      rng.fork());
  common::Rng size_rng = rng.fork();
  common::Rng lba_rng = rng.fork();
  const std::uint64_t lba_pages = params.lba_space_bytes / params.align_bytes;
  double clock_us = 0.0;
  for (std::size_t i = 0; i < stream.count; ++i) {
    clock_us += arrivals.next_iat_us();
    TraceRecord rec;
    rec.arrival = common::microseconds(clock_us);
    rec.type = type;
    auto bytes = static_cast<std::uint64_t>(std::max(
        size_rng.lognormal_mean_scv(stream.mean_size_bytes, stream.size_scv), 0.0));
    bytes = (bytes / params.align_bytes) * params.align_bytes;
    rec.bytes = static_cast<std::uint32_t>(std::clamp<std::uint64_t>(
        bytes, params.min_size_bytes, params.max_size_bytes));
    rec.lba = lba_rng.uniform_index(lba_pages) * params.align_bytes;
    out.push_back(rec);
  }
}

Trace generate_synthetic(const SyntheticParams& params, std::uint64_t seed) {
  common::Rng rng(seed);
  common::Rng read_rng = rng.fork();
  common::Rng write_rng = rng.fork();
  Trace trace;
  generate_stream(params.read, IoType::kRead, params, read_rng, trace);
  generate_stream(params.write, IoType::kWrite, params, write_rng, trace);
  sort_by_arrival(trace);
  return trace;
}

}  // namespace reference

/// Bit-for-bit equality (EXPECT_EQ compares doubles exactly), field by field.
void expect_same_params(const Mmpp2Params& got, const Mmpp2Params& want) {
  EXPECT_EQ(got.rate_quiet, want.rate_quiet);
  EXPECT_EQ(got.rate_burst, want.rate_burst);
  EXPECT_EQ(got.sojourn_quiet_s, want.sojourn_quiet_s);
  EXPECT_EQ(got.sojourn_burst_s, want.sojourn_burst_s);
}

struct FitCase {
  double mean_iat_us;
  double target_scv;
  double ratio;
  std::uint64_t seed;
  reference::Exit exit;
  bool escalates;
};

TEST(FitMmpp2Test, MatchesGeneratorDrivenBisectionBitForBit) {
  using reference::Exit;
  const FitCase cases[] = {
      {10.0, 1.0, 10.0, 42, Exit::kPoisson, false},
      {10.0, 1.05, 10.0, 42, Exit::kPoisson, false},
      {10.0, 2.5, 10.0, 42, Exit::kBisected, false},   // the VDI preset
      {48.0, 2.5, 10.0, 42, Exit::kBisected, false},   // perfbench VDI writes
      {20.0, 6.0, 10.0, 7, Exit::kBisected, true},     // the CBS preset
      {8.0, 6.0, 10.0, 1234567, Exit::kBisected, true},
      {10.0, 2.5, 2.0, 3, Exit::kBisected, true},      // ratio 2 cannot reach 2.5
      {10.0, 1e6, 10.0, 42, Exit::kFallback, true},    // nothing reaches it
  };
  for (const FitCase& c : cases) {
    SCOPED_TRACE("mean " + std::to_string(c.mean_iat_us) + " scv " +
                 std::to_string(c.target_scv) + " ratio " + std::to_string(c.ratio) +
                 " seed " + std::to_string(c.seed));
    Exit exit;
    int escalations;
    const Mmpp2Params want = reference::fit(c.mean_iat_us, c.target_scv, c.ratio,
                                            c.seed, &exit, &escalations);
    ASSERT_EQ(exit, c.exit);
    ASSERT_EQ(escalations > 0, c.escalates);
    expect_same_params(fit_mmpp2(c.mean_iat_us, c.target_scv, c.ratio, c.seed), want);
  }
}

TEST(Mmpp2Test, GeneratorMatchesReferenceBitForBit) {
  Mmpp2Params quiet_heavy;
  quiet_heavy.rate_quiet = 5'000;
  quiet_heavy.rate_burst = 500'000;
  quiet_heavy.sojourn_quiet_s = 10e-3;
  quiet_heavy.sojourn_burst_s = 2e-3;
  const Mmpp2Params fast_switching = fit_mmpp2(10.0, 1.2);
  for (const Mmpp2Params& params : {Mmpp2Params{}, quiet_heavy, fast_switching}) {
    for (const std::uint64_t seed : {1u, 3u, 42u}) {
      Mmpp2Generator gen(params, common::Rng(seed));
      reference::Generator want(params, common::Rng(seed));
      for (int i = 0; i < 20'000; ++i) {
        ASSERT_EQ(gen.next_iat_us(), want.next_iat_us()) << "seed " << seed << " draw " << i;
      }
    }
  }
}

TEST(SyntheticTest, MatchesSerialReferenceRecordForRecord) {
  SyntheticParams mixed = fujitsu_vdi_like(3000);
  mixed.write.mean_iat_us = 48.0;  // read and write fits differ
  mixed.write.count = 600;
  SyntheticParams poisson_reads = tencent_cbs_like(2000);
  poisson_reads.read.iat_scv = 1.0;
  for (const SyntheticParams& params : {mixed, poisson_reads}) {
    for (const std::uint64_t seed : {5u, 99u}) {
      const Trace got = generate_synthetic(params, seed);
      const Trace want = reference::generate_synthetic(params, seed);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].arrival, want[i].arrival) << "record " << i;
        ASSERT_EQ(got[i].type, want[i].type) << "record " << i;
        ASSERT_EQ(got[i].lba, want[i].lba) << "record " << i;
        ASSERT_EQ(got[i].bytes, want[i].bytes) << "record " << i;
      }
    }
  }
}

}  // namespace
}  // namespace src::workload
