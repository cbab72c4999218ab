// Conservative parallel discrete-event engine (DESIGN.md §14). A LaneGroup
// owns one Simulator kernel per *shard* — a fixed partition of the modelled
// system — and executes the shards on up to `lane_count` worker threads in
// lockstep time windows:
//
//   window = [t_min, t_min + lookahead)
//
// where t_min is the earliest pending event over all kernels and mailboxes,
// and the lookahead is the minimum cross-shard propagation delay. Any event
// inside the window can only schedule cross-shard work at
// t >= t_min + lookahead, i.e. at-or-after the window's end, so every
// kernel may run its slice of the window with no peeking at its neighbours.
//
// One window costs one barrier. Cross-shard deliveries go through
// per-(src, dst) outboxes that are double-buffered by window parity:
// post() appends to the current parity's (src, dst) box (written only by
// the lane executing `src`), and in the next window the lane that runs
// `dst` first drains its column of the other parity — in
// (when, src_shard, post_seq) order — into dst's calendar, just before
// dst's first event of that window. The barrier's completion step plans
// the next window: it takes t_min over the kernels and the pending mail,
// builds the sparse list of shards that have an event at or before the
// horizon or inbound mail, orders it heaviest first by each shard's last
// run, and flips the parity. Lanes then claim shards from that list —
// each first re-claims the shards it ran before, then takes the rest
// through an atomic cursor — so the busy shards spread over all lanes.
//
// Every shard's calendar sees exactly the same insertions in the same
// order at every lane count — lanes are pure executors of a fixed shard
// decomposition, never a source of nondeterminism. The lane-determinism
// golden tests pin exactly this.
//
// Instrumentation: window execution runs under a null obs::ObsScope on
// every lane (including the calling thread), so the SRC_OBS macros — passive
// by construction — observe the same (empty) sink at every lane count.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "sim/simulator.hpp"

namespace src::sim {

class LaneGroup {
 public:
  using Callback = Simulator::Callback;

  /// `shard_count` fixes the decomposition (and therefore the results);
  /// `lane_count` only sets how many threads execute it, clamped to
  /// [1, shard_count]. lane_count 1 runs every window inline.
  LaneGroup(std::size_t shard_count, std::size_t lane_count);

  LaneGroup(const LaneGroup&) = delete;
  LaneGroup& operator=(const LaneGroup&) = delete;

  std::size_t shard_count() const { return shards_.size(); }
  std::size_t lane_count() const { return lane_count_; }

  Simulator& kernel(std::size_t shard) { return *shards_[shard].kernel; }
  const Simulator& kernel(std::size_t shard) const {
    return *shards_[shard].kernel;
  }

  /// Conservative window width: the minimum cross-shard propagation delay.
  /// Must be >= 1 ns (a zero-delay cross-shard link admits no conservative
  /// window). Defaults to kTimeInfinity — correct while there is no
  /// cross-shard coupling at all (every window then runs to the deadline).
  void set_lookahead(common::SimTime lookahead);
  common::SimTime lookahead() const { return lookahead_; }

  /// Schedule `fn` at absolute time `when` on shard `dst`, posted from code
  /// currently executing on shard `src`. Cross-shard posts must respect the
  /// lookahead (`when >= kernel(src).now() + lookahead()`); violations
  /// throw std::logic_error — they mean the partitioner mapped a link whose
  /// delay undercuts the window width. Same-shard posts schedule directly.
  /// A cross-shard closure is built in place in its mailbox slot and moved
  /// exactly once more, into dst's calendar.
  template <typename F>
  void post(std::size_t src, std::size_t dst, common::SimTime when, F&& fn) {
    if (src == dst) {
      kernel(src).schedule_at(when, std::forward<F>(fn));
      return;
    }
    const std::uint64_t seq = admit_post(src, dst, when);
    outbox(parity_, src, dst).mail.emplace_back(when, seq, std::forward<F>(fn));
  }

  /// Execute windows until every kernel's next event is past `deadline`
  /// (events exactly at `deadline` still run) or everything drains. Between
  /// calls all lanes are quiescent, so the caller may freely inspect or
  /// mutate shard state. An exception thrown by an event on any lane ends
  /// the run at that window's barrier and is rethrown here; the group's
  /// state is then unspecified.
  void run_until(common::SimTime deadline);

  /// All kernels drained (mailboxes are always empty between run_until
  /// calls: the last window's mail is delivered before run_until returns).
  bool drained() const;

  /// Frontier clock: the maximum kernel clock (kernel clocks advance
  /// per-shard exactly as a lone Simulator's would).
  common::SimTime now() const;

  std::uint64_t executed_events() const;
  /// Total cross-shard messages posted so far.
  std::uint64_t cross_shard_messages() const;
  /// Windows executed so far. The window sequence is planned from kernel
  /// and mailbox state only, so this is lane-count invariant.
  std::uint64_t windows() const { return windows_; }

 private:
  struct Mail {
    template <typename F>
    Mail(common::SimTime w, std::uint64_t s, F&& f)
        : when(w), seq(s), fn(std::forward<F>(f)) {}
    common::SimTime when;
    std::uint64_t seq;  ///< per-(src, dst) post sequence
    Callback fn;
  };
  /// One (src, dst) mailbox of one parity. Padded to its own cache line:
  /// boxes are adjacent in one vector but written by different lanes.
  struct alignas(64) Outbox {
    std::vector<Mail> mail;
  };
  /// Merge key for one pending delivery during a drain.
  struct MailRef {
    common::SimTime when;
    std::size_t src;
    std::uint64_t seq;
    Mail* mail;
  };
  /// Per-shard engine state. Padded so lanes running different shards
  /// never share a line.
  struct alignas(64) Shard {
    std::unique_ptr<Simulator> kernel;
    /// Written by the lane running this shard as a source:
    common::SimTime earliest_post = common::kTimeInfinity;
    std::vector<std::uint32_t> posted_to;  ///< dsts first mailed this window
    std::vector<std::uint64_t> next_seq;   ///< per-dst post sequence
    std::uint64_t load = 0;  ///< events executed in the shard's last run
    /// Written by the planner, read by the lane that drains this shard:
    std::vector<std::uint32_t> senders;  ///< srcs with pending mail, ascending
    /// Drain scratch, used only by the lane running this shard.
    std::vector<MailRef> merge;
    /// The window that claimed this shard, and the lane that last ran it
    /// (which tries it first next window).
    std::atomic<std::uint64_t> claimed_in{0};
    std::atomic<std::size_t> lane{0};
  };

  Outbox& outbox(unsigned parity, std::size_t src, std::size_t dst) {
    return outboxes_[parity][src * shards_.size() + dst];
  }

  /// Lookahead check and source bookkeeping for one cross-shard post;
  /// returns the post's (src, dst) sequence number.
  std::uint64_t admit_post(std::size_t src, std::size_t dst,
                           common::SimTime when);
  /// Deliver `dst`'s pending mail (the parity not being posted to) into
  /// its calendar in deterministic (when, src, seq) order.
  void drain(std::size_t dst);
  /// Drain, then run one shard's slice of the current window.
  void run_shard(std::size_t shard);
  /// Claim the shard for the current window; false when another lane
  /// already has.
  bool claim(std::size_t shard) {
    return shards_[shard].claimed_in.exchange(
               windows_, std::memory_order_relaxed) != windows_;
  }
  /// Claim and run shards from the active list until it is exhausted: the
  /// lane's own shards first, then the rest heaviest first.
  void run_claimed(std::size_t lane);
  /// Barrier completion step: gather the window's mail, plan the next
  /// window and flip the parity. False when nothing remains at or before
  /// `deadline_`.
  bool plan_window();
  /// Deliver the last window's mail and advance drained kernels' clocks to
  /// `deadline` (matching what a lone Simulator::run_until leaves behind).
  void finish(common::SimTime deadline);

  std::vector<Shard> shards_;
  std::size_t lane_count_ = 1;
  common::SimTime lookahead_ = common::kTimeInfinity;
  std::vector<Outbox> outboxes_[2];  ///< per parity, (src * shards + dst)

  // Window plan: written by the planner only, between barriers.
  common::SimTime deadline_ = 0;
  common::SimTime horizon_ = 0;
  unsigned parity_ = 0;  ///< mailbox parity posts go to this window
  bool stop_ = false;
  std::uint64_t windows_ = 0;
  std::vector<std::uint32_t> active_;  ///< shards to run, heaviest first
  /// Claim cursor into active_; lanes fetch_add it during a window.
  alignas(64) std::atomic<std::size_t> next_claim_{0};
};

}  // namespace src::sim
