// Hot-path cost of the NVMe submission path: submit -> SSQ consistency
// tracking -> WRR fetch -> device admission gate -> dispatch, for FIFO vs
// SSQ and across weights, plus one overloaded TPM training point replayed
// the way core::collect_training_data replays it. Emits
// BENCH_micro_wrr_arbiter.json via the shared harness.
#include <cstdint>
#include <cstdio>
#include <string>

#include "bench/harness.hpp"
#include "core/presets.hpp"
#include "core/standalone.hpp"
#include "nvme/fifo_driver.hpp"
#include "nvme/ssq_driver.hpp"
#include "ssd/device.hpp"

namespace {

using namespace src;

constexpr std::size_t kMixedRequests = 5'000;

/// Submit a saturated 50/50 mix of 16 KiB requests at t=0 and drain it.
template <typename Driver>
std::uint64_t run_mixed(Driver& driver, sim::Simulator& sim) {
  for (std::size_t i = 0; i < kMixedRequests; ++i) {
    nvme::IoRequest request;
    request.id = i;
    request.type = i % 2 ? common::IoType::kWrite : common::IoType::kRead;
    request.lba = (i * 2654435761u) % (1u << 30);
    request.bytes = 16384;
    driver.submit(request);
  }
  sim.run();
  return sim.executed_events();
}

}  // namespace

int main() {
  src::bench::Harness harness("micro_wrr_arbiter");
  std::uint64_t sink = 0;

  harness.repeat("fifo_driver/n=5000", kMixedRequests, [&] {
    sim::Simulator sim;
    ssd::SsdDevice device(sim, ssd::ssd_a(), 1);
    nvme::FifoDriver driver(sim, device);
    const std::uint64_t events = run_mixed(driver, sim);
    sink += driver.stats().completed_reads;
    return events;
  });

  for (const std::uint32_t w : {1u, 4u, 8u}) {
    harness.repeat("ssq_driver/w=" + std::to_string(w) + "/n=5000", kMixedRequests, [&] {
      sim::Simulator sim;
      ssd::SsdDevice device(sim, ssd::ssd_a(), 1);
      nvme::SsqDriver driver(sim, device, 1, w);
      const std::uint64_t events = run_mixed(driver, sim);
      sink += driver.stats().completed_reads;
      return events;
    });
  }

  {
    sim::Simulator sim;
    ssd::SsdDevice device(sim, ssd::ssd_a(), 1);
    nvme::SsqDriver driver(sim, device);
    std::uint32_t w = 1;
    harness.repeat("weight_adjustment", /*items_per_iter=*/100'000, [&] {
      for (int i = 0; i < 100'000; ++i) {
        driver.set_weight_ratio(w);
        w = w % 8 + 1;
      }
      return 0;
    });
  }

  // The first (fastest-arrival, smallest-request) point of the default TPM
  // training grid: most of its requests are still queued at the horizon,
  // which is the regime TPM training spends its time in.
  const core::TrainingGrid grid = core::default_training_grid(6000, 11);
  const workload::Trace& trace = grid.traces.front();
  for (const std::uint32_t w : {1u, 8u}) {
    core::StandaloneOptions options;
    options.weight_ratio = w;
    options.seed = grid.seed;
    options.horizon = core::arrival_horizon(trace);
    harness.repeat("standalone_overloaded/w=" + std::to_string(w), trace.size(), [&] {
      const core::StandaloneResult result = core::run_standalone(ssd::ssd_a(), trace, options);
      sink += result.reads_completed;
      return result.events_executed;
    });
  }

  if (sink == 0) std::printf("no requests completed\n");
  return 0;
}
