// Differential test of the device admission gate: SsdDevice::admission_ok
// answers from a memo keyed on the command and the backend's chip version,
// and must agree at every step with a direct scan of every page's chip
// backlog against the admission window.
#include <gtest/gtest.h>

#include <algorithm>
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
/// a window of backlog. A zero-byte command touches the page holding lba.
bool scan_gate(const SsdDevice& device, SimTime now, std::uint64_t lba,
               std::uint32_t bytes) {
  const SsdConfig& cfg = device.config();
  const std::uint64_t first = lba / cfg.page_bytes;
  const std::uint64_t last = (lba + std::max<std::uint32_t>(bytes, 1) - 1) / cfg.page_bytes;
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
    // bytes, page-aligned half the time.
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
      cmd.bytes = q.bytes;
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
      ++(expected ? opened : closed);
    }
  }
  sim.run();
  for (const Query& q : fronts) {
    EXPECT_EQ(device.admission_ok(q.lba, q.bytes), scan_gate(device, sim.now(), q.lba, q.bytes));
  }
  // Both answers must have been exercised, except where the window makes
  // the gate constant.
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

// A zero-byte command touches the page holding its lba, like a one-byte
// command there: the gate closes on that page's chip, and a read of it
// goes to flash. Page-aligned, unaligned, and lba 0.
TEST(AdmissionGateTest, ZeroByteCommandTouchesThePageHoldingLba) {
  const SsdConfig cfg = small(ssd_a());
  for (const std::uint64_t lba : {std::uint64_t{0}, 5 * cfg.page_bytes,
                                  5 * cfg.page_bytes + 100}) {
    SCOPED_TRACE("lba " + std::to_string(lba));
    sim::Simulator sim;
    SsdDevice device(sim, cfg, 1);
    ASSERT_TRUE(device.admission_ok(lba, 0));
    // Back up the chip of the page holding lba past the admission window.
    const std::uint64_t page_start = lba - lba % cfg.page_bytes;
    std::uint64_t id = 0;
    while (device.backend().chip_backlog(device.backend().place(page_start / cfg.page_bytes),
                                         sim.now()) < cfg.admission_window()) {
      NvmeCommand busy;
      busy.id = ++id;
      busy.lba = page_start;
      busy.bytes = static_cast<std::uint32_t>(cfg.page_bytes);
      device.execute(busy, [](const NvmeCompletion&) {});
    }
    EXPECT_FALSE(device.admission_ok(lba, 0));
    EXPECT_EQ(device.admission_ok(lba, 0), device.admission_ok(page_start, 1));
    EXPECT_EQ(device.admission_ok(lba, 0), scan_gate(device, sim.now(), lba, 0));
    // The next page's chip is idle.
    EXPECT_TRUE(device.admission_ok(page_start + cfg.page_bytes, 0));
    sim.run();

    // A zero-byte read is a one-page flash read, not an instant completion.
    SimTime done = -1;
    bool cached = true;
    NvmeCommand read;
    read.id = ++id;
    read.lba = lba;
    read.bytes = 0;
    const SimTime start = sim.now();
    device.execute(read, [&](const NvmeCompletion& c) {
      done = c.complete_time;
      cached = c.served_from_cache;
    });
    sim.run();
    EXPECT_FALSE(cached);
    EXPECT_GE(done, start + cfg.command_overhead + cfg.read_latency);
  }
}

}  // namespace
}  // namespace src::ssd
