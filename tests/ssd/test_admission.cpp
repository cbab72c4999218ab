// Differential test of the device admission gate: SsdDevice::admission_ok
// answers from a memo keyed on the command and the backend's chip version,
// and must agree at every step with a direct scan of every page's chip
// backlog against the admission window.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "ssd/device.hpp"

namespace src::ssd {
namespace {

using common::IoType;
using common::SimTime;

/// The gate as a per-page scan: closed when any page's chip has at least
/// a window of backlog.
bool scan_gate(const SsdDevice& device, SimTime now, std::uint64_t lba,
               std::uint32_t bytes) {
  const SsdConfig& cfg = device.config();
  const std::uint64_t first = lba / cfg.page_bytes;
  const std::uint64_t last = (lba + bytes - 1) / cfg.page_bytes;
  const auto pages = static_cast<std::uint32_t>(last - first + 1);
  const SimTime window = cfg.admission_window();
  for (std::uint32_t i = 0; i < pages; ++i) {
    const auto placement = device.backend().place(first + i);
    if (device.backend().chip_backlog(placement, now) >= window) return false;
  }
  return true;
}

struct Query {
  std::uint64_t lba = 0;
  std::uint32_t bytes = 0;
};

void run_differential(SsdConfig cfg, std::uint64_t seed, bool scale_latency) {
  SCOPED_TRACE(cfg.name + " window_ops=" + std::to_string(cfg.admission_window_ops) +
               " gc=" + std::to_string(cfg.enable_gc) +
               " scale=" + std::to_string(scale_latency) +
               " seed=" + std::to_string(seed));
  sim::Simulator sim;
  SsdDevice device(sim, cfg, seed);
  common::Rng rng(seed);
  const std::uint64_t pages = cfg.capacity_bytes / cfg.page_bytes;
  const auto random_query = [&] {
    Query q;
    q.lba = rng.uniform_index(pages) * cfg.page_bytes + rng.uniform_index(cfg.page_bytes);
    // Mostly 1-4 pages; sometimes more pages than chips; rarely zero
    // bytes, page-aligned half the time (the device counts 0 pages then).
    const double shape = rng.uniform();
    if (shape < 0.03) {
      q.bytes = 0;
      if (rng.bernoulli(0.5)) q.lba -= q.lba % cfg.page_bytes;
    } else if (shape < 0.1) {
      q.bytes = static_cast<std::uint32_t>((device.backend().chip_count() + 3) *
                                           cfg.page_bytes);
    } else {
      q.bytes = static_cast<std::uint32_t>(1 + rng.uniform_index(4 * cfg.page_bytes));
    }
    return q;
  };

  // Two "queue fronts" that persist across steps (the memo's main case),
  // refreshed now and then like a dispatched front.
  std::vector<Query> fronts = {random_query(), random_query()};
  std::uint64_t id = 0;
  std::uint64_t opened = 0;
  std::uint64_t closed = 0;
  for (int step = 0; step < 600; ++step) {
    const double op = rng.uniform();
    if (op < 0.45) {
      const Query q = rng.bernoulli(0.5) ? fronts[rng.uniform_index(2)] : random_query();
      NvmeCommand cmd;
      cmd.id = ++id;
      cmd.type = rng.bernoulli(0.5) ? IoType::kRead : IoType::kWrite;
      cmd.lba = q.lba;
      cmd.bytes = q.bytes == 0 ? static_cast<std::uint32_t>(cfg.page_bytes) : q.bytes;
      cmd.fetch_time = sim.now();
      device.execute(cmd, [](const NvmeCompletion&) {});
    } else if (op < 0.85) {
      sim.run_until(sim.now() + static_cast<SimTime>(rng.uniform_index(
                                    2 * static_cast<std::uint64_t>(cfg.write_latency))));
    } else if (op < 0.95) {
      fronts[rng.uniform_index(2)] = random_query();
    } else if (scale_latency) {
      device.inject_latency_scale(rng.bernoulli(0.5) ? 1.0 : rng.uniform(0.5, 4.0));
    }
    for (const Query& q : {fronts[0], fronts[1], random_query(), fronts[0]}) {
      const bool expected = scan_gate(device, sim.now(), q.lba, q.bytes);
      ASSERT_EQ(device.admission_ok(q.lba, q.bytes), expected)
          << "step " << step << " t=" << sim.now() << " lba " << q.lba << "+"
          << q.bytes;
      if (q.bytes != 0) ++(expected ? opened : closed);
    }
  }
  sim.run();
  for (const Query& q : fronts) {
    EXPECT_EQ(device.admission_ok(q.lba, q.bytes), scan_gate(device, sim.now(), q.lba, q.bytes));
  }
  // Both answers must have been exercised, except where the window makes
  // the gate constant (for commands that touch a page at all).
  if (cfg.admission_window() <= 0) {
    EXPECT_EQ(opened, 0u);
  } else if (cfg.admission_window_ops < 100) {
    EXPECT_GT(opened, 0u);
    EXPECT_GT(closed, 0u);
  }
}

SsdConfig small(SsdConfig cfg) {
  cfg.capacity_bytes = 4096 * cfg.page_bytes;
  cfg.write_cache_bytes = 4 * cfg.page_bytes;  // mix cached and sync writes
  cfg.cmt_bytes = 256 * cfg.mapping_entry_bytes;
  return cfg;
}

TEST(AdmissionGateTest, MemoMatchesPerPageScan) {
  for (const SsdConfig& base : {ssd_a(), ssd_b(), ssd_c()}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      run_differential(small(base), seed, /*scale_latency=*/false);
    }
  }
}

TEST(AdmissionGateTest, MemoMatchesPerPageScanWithGcAndLatencyScale) {
  for (const SsdConfig& base : {ssd_a(), ssd_b(), ssd_c()}) {
    SsdConfig cfg = small(base);
    cfg.enable_gc = true;
    cfg.gc_pages_per_block = 16;
    cfg.gc_overprovision = 0.10;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      run_differential(cfg, seed, /*scale_latency=*/true);
    }
  }
}

TEST(AdmissionGateTest, MemoMatchesPerPageScanAtExtremeWindows) {
  // 1e9 ops is the effectively-open gate the driver tests use; zero and
  // negative windows never open.
  for (const double ops : {1e9, 0.0, -1.0, 1e-9}) {
    SsdConfig cfg = small(ssd_a());
    cfg.admission_window_ops = ops;
    run_differential(cfg, 7, /*scale_latency=*/true);
  }
}

}  // namespace
}  // namespace src::ssd
