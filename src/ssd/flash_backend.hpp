// Flash backend resource model: channels (shared ONFI buses) and chips
// (parallel execution units). Page operations are serialized per resource
// with non-preemptive FIFO semantics tracked as "free-at" timestamps — the
// standard analytic shortcut for multi-queue SSD models. The interleaving
// of read and write page operations on shared chips/channels is what
// produces the read/write interference the paper's Fig. 5 relies on.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "ssd/config.hpp"

namespace src::ssd {

using common::SimTime;

class FlashBackend {
 public:
  struct Placement {
    std::uint32_t channel = 0;
    std::uint32_t chip = 0;  ///< index within the channel
  };

  explicit FlashBackend(const SsdConfig& cfg)
      : cfg_(cfg),
        channel_free_(cfg.channels, 0),
        chip_free_(static_cast<std::size_t>(cfg.channels) * cfg.chips_per_channel, 0),
        chip_busy_(chip_free_.size(), 0) {}

  /// Failure injection: scale all subsequent page-operation latencies
  /// (1.0 = healthy; 3.0 = a device suffering internal congestion or a
  /// failing die retrying reads).
  void set_latency_scale(double scale) { latency_scale_ = scale < 0.0 ? 0.0 : scale; }
  double latency_scale() const { return latency_scale_; }

  /// Static page-level striping: consecutive logical pages rotate across
  /// channels first (maximizing bus parallelism), then chips.
  Placement place(std::uint64_t logical_page) const {
    Placement p;
    p.channel = static_cast<std::uint32_t>(logical_page % cfg_.channels);
    p.chip = static_cast<std::uint32_t>((logical_page / cfg_.channels) % cfg_.chips_per_channel);
    return p;
  }

  /// Page read: chip array sense (read_latency), then bus transfer to the
  /// controller (page_bytes / channel_bandwidth). Returns the finish time.
  SimTime schedule_read_page(Placement p, SimTime ready) {
    SimTime& chip = chip_at(p);
    const SimTime sense_start = std::max(ready, chip);
    const SimTime sense_end = sense_start + scaled(cfg_.read_latency);
    chip = sense_end;
    chip_busy_[chip_index(p)] += scaled(cfg_.read_latency);

    SimTime& chan = channel_free_[p.channel];
    const SimTime xfer_start = std::max(sense_end, chan);
    const SimTime xfer_end = xfer_start + cfg_.channel_transfer_time();
    chan = xfer_end;
    return xfer_end;
  }

  /// Page program: bus transfer to the chip, then array program
  /// (write_latency). Returns the finish time.
  SimTime schedule_program_page(Placement p, SimTime ready) {
    SimTime& chan = channel_free_[p.channel];
    const SimTime xfer_start = std::max(ready, chan);
    const SimTime xfer_end = xfer_start + cfg_.channel_transfer_time();
    chan = xfer_end;

    SimTime& chip = chip_at(p);
    const SimTime prog_start = std::max(xfer_end, chip);
    const SimTime prog_end = prog_start + scaled(cfg_.write_latency);
    chip = prog_end;
    chip_busy_[chip_index(p)] += scaled(cfg_.write_latency);
    return prog_end;
  }

  /// Mapping-page read on a CMT miss: a flash read whose payload stays in
  /// the controller (sense + bus transfer, same cost as a data read).
  SimTime schedule_mapping_read(Placement p, SimTime ready) {
    return schedule_read_page(p, ready);
  }

  /// Block erase: occupies the chip (no bus traffic).
  SimTime schedule_erase(Placement p, SimTime ready, SimTime erase_latency) {
    SimTime& chip = chip_at(p);
    const SimTime start = std::max(ready, chip);
    const SimTime end = start + erase_latency;
    chip = end;
    chip_busy_[chip_index(p)] += erase_latency;
    return end;
  }

  /// Placement of a flat parallel-unit index (the FTL's chip numbering).
  Placement unit_placement(std::uint32_t unit) const {
    Placement p;
    p.channel = unit / cfg_.chips_per_channel;
    p.chip = unit % cfg_.chips_per_channel;
    return p;
  }

  /// How far ahead of `now` this chip's queue extends.
  SimTime chip_backlog(Placement p, SimTime now) const {
    const SimTime free_at = chip_free_at(p);
    return free_at > now ? free_at - now : 0;
  }

  /// When this chip's queued operations end.
  SimTime chip_free_at(Placement p) const { return chip_free_[chip_index_const(p)]; }

  /// Changes whenever any chip's free-at time may have changed, so a value
  /// computed from chip free-at times stays exact while this is unchanged.
  std::uint64_t chip_version() const { return chip_version_; }

  /// Earliest time any unit becomes free (diagnostics only).
  SimTime earliest_free() const {
    SimTime t = common::kTimeInfinity;
    for (auto f : chip_free_) t = std::min(t, f);
    return t;
  }

  /// Mean chip utilization over [0, now].
  double mean_chip_utilization(SimTime now) const {
    if (now <= 0) return 0.0;
    double total = 0.0;
    // srclint:fp-ok(chip index order is the pinned order)
    for (auto b : chip_busy_) total += common::to_seconds(std::min(b, now));
    return total / (common::to_seconds(now) * static_cast<double>(chip_busy_.size()));
  }

  std::size_t chip_count() const { return chip_free_.size(); }

 private:
  SimTime scaled(SimTime latency) const {
    return static_cast<SimTime>(static_cast<double>(latency) * latency_scale_);
  }
  std::size_t chip_index(Placement p) const { return chip_index_const(p); }
  std::size_t chip_index_const(Placement p) const {
    return static_cast<std::size_t>(p.channel) * cfg_.chips_per_channel + p.chip;
  }
  SimTime& chip_at(Placement p) {
    ++chip_version_;
    return chip_free_[chip_index(p)];
  }

  SsdConfig cfg_;
  std::vector<SimTime> channel_free_;
  std::vector<SimTime> chip_free_;
  std::vector<SimTime> chip_busy_;  ///< accumulated busy time per chip
  double latency_scale_ = 1.0;
  std::uint64_t chip_version_ = 0;
};

}  // namespace src::ssd
