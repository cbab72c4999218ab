// MMPP(2)-based synthetic trace generation (paper §IV-A): the paper fits a
// two-phase Markov-modulated Poisson process to the statistics of real
// SNIA traces (Fujitsu VDI, Tencent CBS) and replays synthetic traces with
// bursty inter-arrival times. We implement the MMPP(2) generator directly,
// a moment-matching fitter that targets a requested inter-arrival SCV, and
// a lognormal size model with controllable size SCV.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "workload/trace.hpp"

namespace src::workload {

/// Two-state MMPP: Poisson arrivals at `rate_quiet` / `rate_burst`
/// (arrivals per second) with exponentially distributed state sojourns.
struct Mmpp2Params {
  double rate_quiet = 50'000.0;    ///< arrivals/sec in the quiet state
  double rate_burst = 500'000.0;   ///< arrivals/sec in the burst state
  double sojourn_quiet_s = 2e-3;   ///< mean sojourn in the quiet state
  double sojourn_burst_s = 0.5e-3; ///< mean sojourn in the burst state

  /// Stationary probability of the burst state.
  double burst_fraction() const {
    return sojourn_burst_s / (sojourn_quiet_s + sojourn_burst_s);
  }
  /// Long-run mean arrival rate (arrivals per second).
  double mean_rate() const {
    return rate_quiet * (1.0 - burst_fraction()) + rate_burst * burst_fraction();
  }
  double mean_iat_us() const { return 1e6 / mean_rate(); }
};

/// Stateful arrival-process generator; deterministic for a given Rng state.
class Mmpp2Generator {
 public:
  explicit Mmpp2Generator(const Mmpp2Params& params, common::Rng rng);

  /// Next inter-arrival time in microseconds.
  double next_iat_us();

  bool in_burst() const { return chain_.burst != 0; }

  /// The two-state chain over a stream of draws: `first_uniform` picks the
  /// initial state from the stationary distribution and `log_u()` yields
  /// log(u) of the next exponential draw (Rng::log_uniform). fit_mmpp2
  /// replays it over a stream drawn once, so the generator and the fit
  /// share every step.
  struct Chain {
    template <typename LogU>
    Chain(const Mmpp2Params& params, double first_uniform, LogU&& log_u)
        : neg_arrival_us{-(1.0 / (params.rate_quiet * 1e-6)),
                         -(1.0 / (params.rate_burst * 1e-6))},
          neg_sojourn_us{-(params.sojourn_quiet_s * 1e6),
                         -(params.sojourn_burst_s * 1e6)},
          burst(first_uniform < params.burst_fraction() ? 1 : 0),
          left_us(neg_sojourn_us[burst] * log_u()) {}

    template <typename LogU>
    double next_iat_us(LogU&& log_u) {
      double elapsed_us = 0.0;
      for (;;) {
        const double candidate_us = neg_arrival_us[burst] * log_u();
        if (candidate_us <= left_us) {
          left_us -= candidate_us;
          return elapsed_us + candidate_us;
        }
        // No arrival before the state switches: advance to the switch point.
        elapsed_us += left_us;
        burst = 1 - burst;
        left_us = neg_sojourn_us[burst] * log_u();
      }
    }

    // An exponential draw of mean m is -m * log(u); these hold -m per
    // state, quiet at index 0 and burst at index 1.
    double neg_arrival_us[2];
    double neg_sojourn_us[2];
    int burst;
    double left_us;  ///< time left in the current state
  };

 private:
  common::Rng rng_;
  Chain chain_;
};

/// Fit an MMPP(2) whose inter-arrival times have the requested mean and
/// (approximately) the requested SCV. scv >= 1; scv == 1 degenerates to a
/// plain Poisson process. The fit bisects the sojourn time scale against
/// the empirical SCV of a deterministic sample stream: the uniforms of
/// Rng(fit_seed), drawn once per call and replayed for every candidate.
Mmpp2Params fit_mmpp2(double mean_iat_us, double target_scv,
                      double burst_rate_ratio = 10.0,
                      std::uint64_t fit_seed = 42);

/// Per-stream parameters for synthetic trace generation.
struct SyntheticStreamParams {
  double mean_iat_us = 10.0;
  double iat_scv = 1.0;            ///< >= 1; 1 = Poisson
  double mean_size_bytes = 32.0 * 1024;
  double size_scv = 0.25;          ///< lognormal size variability
  std::size_t count = 5000;

  friend bool operator==(const SyntheticStreamParams&,
                         const SyntheticStreamParams&) = default;
};

struct SyntheticParams {
  SyntheticStreamParams read;
  SyntheticStreamParams write;
  std::uint64_t lba_space_bytes = 4ull << 30;
  std::uint32_t align_bytes = 4096;
  std::uint32_t min_size_bytes = 4096;
  std::uint32_t max_size_bytes = 1u << 20;

  friend bool operator==(const SyntheticParams&, const SyntheticParams&) = default;
};

/// Generate a synthetic (MMPP-arrival, lognormal-size) trace, sorted by
/// arrival time; deterministic for a given seed. The read and write
/// arrival fits run on a two-worker runner::SweepRunner, so a call made
/// from inside another pool adds one thread to it.
Trace generate_synthetic(const SyntheticParams& params, std::uint64_t seed);

/// Preset modeled on the Fujitsu VDI trace statistics quoted in §IV-D:
/// read 44 KB / write 23 KB mean sizes, ~10 us mean inter-arrival for both
/// streams, read-intensive byte flow, moderately bursty arrivals.
SyntheticParams fujitsu_vdi_like(std::size_t requests_per_stream = 5000);

/// Preset modeled on Tencent CBS-style cloud block storage: write-heavy,
/// small requests, highly bursty arrivals.
SyntheticParams tencent_cbs_like(std::size_t requests_per_stream = 5000);

}  // namespace src::workload
