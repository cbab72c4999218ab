#include "sim/lane.hpp"

#include <algorithm>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "obs/obs.hpp"

namespace src::sim {

using common::SimTime;
using common::kTimeInfinity;

namespace {

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Reusable barrier whose last arriver runs a completion step before
/// releasing the others. Waiters spin for a bounded time — most windows
/// end within microseconds of each other — and then park on the
/// generation word, so lanes left waiting for a descheduled peer give
/// their CPUs back.
class SpinBarrier {
 public:
  explicit SpinBarrier(std::size_t count) : count_(count) {}

  template <typename Completion>
  void arrive_and_wait(Completion&& complete) {
    const std::uint32_t gen = generation_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == count_) {
      arrived_.store(0, std::memory_order_relaxed);
      complete();
      generation_.store(gen + 1, std::memory_order_release);
      generation_.notify_all();
      return;
    }
    for (int spin = 0; spin < kSpinLimit; ++spin) {
      if (generation_.load(std::memory_order_acquire) != gen) return;
      // Every 64th round offers the CPU to another runnable thread: on an
      // oversubscribed host (a parallel test run, a busy VM) that is often
      // the lane everyone is waiting for.
      if (spin % 64 == 63) {
        std::this_thread::yield();
      } else {
        cpu_relax();
      }
    }
    while (generation_.load(std::memory_order_acquire) == gen) {
      generation_.wait(gen, std::memory_order_acquire);
    }
  }

 private:
  /// About a millisecond on a current x86 core: well past a typical
  /// window's imbalance (tens of microseconds).
  static constexpr int kSpinLimit = 1 << 15;

  const std::size_t count_;
  std::atomic<std::size_t> arrived_{0};
  std::atomic<std::uint32_t> generation_{0};
};

}  // namespace

LaneGroup::LaneGroup(std::size_t shard_count, std::size_t lane_count)
    : shards_(shard_count > 0 ? shard_count
                              : throw std::invalid_argument(
                                    "LaneGroup: shard_count must be >= 1")) {
  for (Shard& shard : shards_) {
    shard.kernel = std::make_unique<Simulator>();
    shard.next_seq.resize(shard_count, 0);
  }
  lane_count_ = std::clamp<std::size_t>(lane_count, 1, shard_count);
  for (std::vector<Outbox>& boxes : outboxes_) {
    boxes.resize(shard_count * shard_count);
  }
  active_.reserve(shard_count);
}

void LaneGroup::set_lookahead(SimTime lookahead) {
  if (lookahead < 1) {
    throw std::invalid_argument(
        "LaneGroup: lookahead must be >= 1 ns (a zero-delay cross-shard link "
        "cannot be windowed conservatively)");
  }
  lookahead_ = lookahead;
}

std::uint64_t LaneGroup::admit_post(std::size_t src, std::size_t dst,
                                    SimTime when) {
  const SimTime earliest = kernel(src).now() +
                           (lookahead_ == kTimeInfinity ? 0 : lookahead_);
  if (when < earliest) {
    throw std::logic_error(
        "LaneGroup::post: cross-shard delivery at t=" + std::to_string(when) +
        " undercuts the lookahead window (src shard now=" +
        std::to_string(kernel(src).now()) +
        ", lookahead=" + std::to_string(lookahead_) +
        ") — a cross-shard link is faster than the declared lookahead");
  }
  Shard& source = shards_[src];
  if (outbox(parity_, src, dst).mail.empty()) {
    source.posted_to.push_back(static_cast<std::uint32_t>(dst));
  }
  source.earliest_post = std::min(source.earliest_post, when);
  return source.next_seq[dst]++;
}

void LaneGroup::drain(std::size_t dst) {
  Shard& shard = shards_[dst];
  if (shard.senders.empty()) return;
  const unsigned pending = parity_ ^ 1u;
  std::vector<MailRef>& merged = shard.merge;
  merged.clear();
  for (const std::uint32_t src : shard.senders) {
    for (Mail& m : outbox(pending, src, dst).mail) {
      merged.push_back(MailRef{m.when, src, m.seq, &m});
    }
  }
  // (when, src, seq) is a total order — per-(src, dst) sequences are unique
  // — so a plain sort is deterministic regardless of arrival layout.
  std::sort(merged.begin(), merged.end(),
            [](const MailRef& a, const MailRef& b) {
              if (a.when != b.when) return a.when < b.when;
              if (a.src != b.src) return a.src < b.src;
              return a.seq < b.seq;
            });
  Simulator& sink = *shard.kernel;
  for (const MailRef& ref : merged) {
    sink.schedule_at(ref.when, std::move(ref.mail->fn));
  }
  for (const std::uint32_t src : shard.senders) {
    outbox(pending, src, dst).mail.clear();
  }
  shard.senders.clear();
}

void LaneGroup::run_shard(std::size_t shard) {
  drain(shard);
  Simulator& sim = *shards_[shard].kernel;
  const std::uint64_t before = sim.executed_events();
  sim.run_until(horizon_);
  shards_[shard].load = sim.executed_events() - before;
}

void LaneGroup::run_claimed(std::size_t lane) {
  // A shard that stays on one lane keeps its calendar and model state in
  // that core's cache, so each lane first takes back what it ran before.
  for (const std::uint32_t s : active_) {
    if (shards_[s].lane.load(std::memory_order_relaxed) == lane && claim(s)) {
      run_shard(s);
    }
  }
  for (;;) {
    const std::size_t i = next_claim_.fetch_add(1, std::memory_order_relaxed);
    if (i >= active_.size()) return;
    const std::uint32_t s = active_[i];
    if (claim(s)) {
      shards_[s].lane.store(lane, std::memory_order_relaxed);
      run_shard(s);
    }
  }
}

bool LaneGroup::plan_window() {
  // Gather the window's mail: each source's earliest post bounds t_min, and
  // its first-post list tells each destination which columns to drain.
  const std::size_t shard_count = shards_.size();
  SimTime t_min = kTimeInfinity;
  for (std::size_t src = 0; src < shard_count; ++src) {
    Shard& source = shards_[src];
    t_min = std::min({t_min, source.earliest_post,
                      source.kernel->next_event_time()});
    source.earliest_post = kTimeInfinity;
    for (const std::uint32_t dst : source.posted_to) {
      shards_[dst].senders.push_back(static_cast<std::uint32_t>(src));
    }
    source.posted_to.clear();
  }
  parity_ ^= 1u;
  if (t_min == kTimeInfinity || t_min > deadline_) {
    stop_ = true;
    return false;
  }
  // Events strictly before t_min + lookahead are safe to run; the kernel
  // contract is inclusive, so the horizon is the last safe instant.
  const SimTime window_end = (lookahead_ == kTimeInfinity ||
                              t_min > kTimeInfinity - lookahead_)
                                 ? kTimeInfinity
                                 : t_min + lookahead_;
  horizon_ = std::min(window_end - 1, deadline_);
  // Every shard with mail must drain this window (its parity is reused by
  // the next one), so it runs even when its first event lies beyond the
  // horizon.
  active_.clear();
  for (std::size_t s = 0; s < shard_count; ++s) {
    if (!shards_[s].senders.empty() ||
        shards_[s].kernel->next_event_time() <= horizon_) {
      active_.push_back(static_cast<std::uint32_t>(s));
    }
  }
  std::sort(active_.begin(), active_.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              if (shards_[a].load != shards_[b].load) {
                return shards_[a].load > shards_[b].load;
              }
              return a < b;
            });
  next_claim_.store(0, std::memory_order_relaxed);
  ++windows_;
  stop_ = false;
  return true;
}

void LaneGroup::finish(SimTime deadline) {
  // Nothing at or before `deadline` remains, so after the last window's
  // mail lands this only advances drained kernels' clocks — the same clock
  // a lone Simulator::run_until leaves.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    drain(s);
    shards_[s].kernel->run_until(deadline);
  }
}

void LaneGroup::run_until(SimTime deadline) {
  deadline_ = deadline;
  if (plan_window()) {
    // One window loop for every lane count: with one lane the barrier's
    // sole arriver plans inline and no thread is started.
    SpinBarrier barrier(lane_count_);
    // The first exception any lane throws ends the run at that window's
    // barrier and is rethrown here once every lane has joined.
    std::exception_ptr failure;
    std::mutex failure_mutex;
    auto lane_body = [this, &barrier, &failure,
                      &failure_mutex](std::size_t lane) {
      // Window execution is obs-silent on every lane so counters cannot
      // depend on which thread ran a shard (see header comment).
      obs::ObsScope silent(nullptr);
      for (;;) {
        try {
          run_claimed(lane);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(failure_mutex);
          if (!failure) failure = std::current_exception();
        }
        barrier.arrive_and_wait([this, &failure] {
          if (failure) {
            stop_ = true;
          } else {
            plan_window();
          }
        });
        if (stop_) return;
      }
    };
    std::vector<std::thread> workers;
    workers.reserve(lane_count_ - 1);
    for (std::size_t lane = 1; lane < lane_count_; ++lane) {
      workers.emplace_back(lane_body, lane);
    }
    lane_body(0);
    for (std::thread& worker : workers) worker.join();
    if (failure) std::rethrow_exception(failure);
  }
  finish(deadline);
}

bool LaneGroup::drained() const {
  for (const Shard& shard : shards_) {
    if (!shard.kernel->empty()) return false;
  }
  return true;
}

SimTime LaneGroup::now() const {
  SimTime frontier = 0;
  for (const Shard& shard : shards_) {
    frontier = std::max(frontier, shard.kernel->now());
  }
  return frontier;
}

std::uint64_t LaneGroup::executed_events() const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.kernel->executed_events();
  }
  return total;
}

std::uint64_t LaneGroup::cross_shard_messages() const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) {
    for (const std::uint64_t posted : shard.next_seq) total += posted;
  }
  return total;
}

}  // namespace src::sim
