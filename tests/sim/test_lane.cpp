// LaneGroup: the conservative sharded event engine (DESIGN.md §14). These
// run under `-L unit`, which the tsan CI job executes — the multi-lane
// cases double as the cross-lane mailbox data-race check.
#include "sim/lane.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace src::sim {
namespace {

using common::SimTime;

TEST(LaneGroupTest, LaneCountClampsToShardCount) {
  LaneGroup lanes(3, 16);
  EXPECT_EQ(lanes.shard_count(), 3u);
  EXPECT_EQ(lanes.lane_count(), 3u);
  LaneGroup serial(4, 0);
  EXPECT_EQ(serial.lane_count(), 1u);
}

TEST(LaneGroupTest, LookaheadMustBePositive) {
  LaneGroup lanes(2, 1);
  EXPECT_THROW(lanes.set_lookahead(0), std::invalid_argument);
  lanes.set_lookahead(5);
  EXPECT_EQ(lanes.lookahead(), 5);
}

TEST(LaneGroupTest, SameShardPostSchedulesDirectly) {
  LaneGroup lanes(2, 1);
  lanes.set_lookahead(10);
  std::vector<int> order;
  // Same-shard posts ignore the lookahead: they go straight into the
  // shard's own calendar.
  lanes.post(0, 0, 3, Simulator::Callback([&order] { order.push_back(3); }));
  lanes.post(0, 0, 1, Simulator::Callback([&order] { order.push_back(1); }));
  lanes.run_until(100);
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_EQ(lanes.cross_shard_messages(), 0u);
  EXPECT_TRUE(lanes.drained());
}

TEST(LaneGroupTest, CrossShardPostBelowLookaheadThrows) {
  LaneGroup lanes(2, 1);
  lanes.set_lookahead(10);
  // From shard 0 at t=0, the earliest legal cross-shard delivery is t=10.
  EXPECT_THROW(
      lanes.post(0, 1, 9, Simulator::Callback([] {})),
      std::logic_error);
  lanes.post(0, 1, 10, Simulator::Callback([] {}));
  lanes.run_until(100);
  EXPECT_EQ(lanes.cross_shard_messages(), 1u);
}

// The determinism contract: deliveries landing at the same destination
// time drain in (when, src_shard, post_seq) order, independent of which
// lane executed the sources.
TEST(LaneGroupTest, MailboxMergeOrderIsWhenSrcSeq) {
  for (const std::size_t lane_count : {1u, 2u, 3u}) {
    LaneGroup lanes(3, lane_count);
    lanes.set_lookahead(10);
    std::vector<std::pair<int, int>> order;  // (src, seq-within-src)
    // Shards 1 and 2 each post two deliveries to shard 0, all at t=10.
    for (const std::size_t src : {1u, 2u}) {
      lanes.kernel(src).schedule_at(0, [&lanes, &order, src] {
        for (int i = 0; i < 2; ++i) {
          lanes.post(src, 0, 10,
                     Simulator::Callback([&order, src, i] {
                       order.emplace_back(static_cast<int>(src), i);
                     }));
        }
      });
    }
    lanes.run_until(100);
    const std::vector<std::pair<int, int>> want = {
        {1, 0}, {1, 1}, {2, 0}, {2, 1}};
    EXPECT_EQ(order, want) << "lane_count=" << lane_count;
    EXPECT_EQ(lanes.cross_shard_messages(), 4u);
  }
}

// An event that throws on a lane, worker thread or not, surfaces from
// run_until on the calling thread.
TEST(LaneGroupTest, LaneExceptionReachesCaller) {
  for (const std::size_t lane_count : {1u, 2u}) {
    LaneGroup lanes(2, lane_count);
    lanes.set_lookahead(10);
    // A cross-shard post closer than the lookahead is a partitioner bug.
    lanes.kernel(1).schedule_at(5, [&lanes] {
      lanes.post(1, 0, 6, Simulator::Callback([] {}));
    });
    // Shard 0 has work in the same window, so either lane may run shard 1.
    lanes.kernel(0).schedule_at(5, [] {});
    EXPECT_THROW(lanes.run_until(100), std::logic_error)
        << "lane_count=" << lane_count;
  }
}

// Two shards ping-pong a token through the mailboxes; the hop count and
// final clock must match the analytic value at every lane count.
TEST(LaneGroupTest, CrossShardPingPong) {
  for (const std::size_t lane_count : {1u, 2u}) {
    LaneGroup lanes(2, lane_count);
    const SimTime hop = 7;
    lanes.set_lookahead(hop);
    int hops = 0;
    // Self-referential bounce: declared std::function so the lambda can
    // capture itself by reference.
    std::function<void(std::size_t)> bounce = [&](std::size_t at) {
      ++hops;
      if (hops >= 20) return;
      const std::size_t to = 1 - at;
      lanes.post(at, to, lanes.kernel(at).now() + hop,
                 Simulator::Callback([&bounce, to] { bounce(to); }));
    };
    lanes.kernel(0).schedule_at(0, [&bounce] { bounce(0); });
    // First hop fires at t=0 on shard 0; hop k fires at t=k*hop, so the
    // 20th and last lands at 19*hop. Run exactly that far: drained kernels
    // then advance to the deadline, like a lone Simulator's run_until.
    lanes.run_until(19 * hop);
    EXPECT_EQ(hops, 20) << "lane_count=" << lane_count;
    EXPECT_TRUE(lanes.drained());
    EXPECT_EQ(lanes.now(), 19 * hop);
    EXPECT_EQ(lanes.cross_shard_messages(), 19u);
  }
}

// run_until leaves all lanes quiescent: the caller may inspect and mutate
// shard state between calls, and events exactly at the deadline execute.
// Each shard records into its own vector: two shards running in the same
// window may run on different lanes at once.
TEST(LaneGroupTest, RunUntilIsInclusiveAndResumable) {
  LaneGroup lanes(2, 2);
  lanes.set_lookahead(10);
  std::vector<SimTime> fired[2];
  for (const SimTime t : {5, 50, 55}) {
    lanes.kernel(1).schedule_at(t, [&fired, t] { fired[1].push_back(t); });
  }
  lanes.run_until(50);
  EXPECT_TRUE(fired[0].empty());
  EXPECT_EQ(fired[1], (std::vector<SimTime>{5, 50}));
  EXPECT_FALSE(lanes.drained());
  // Quiescent gap: schedule more work, then resume.
  lanes.kernel(0).schedule_at(52, [&fired] { fired[0].push_back(52); });
  lanes.run_until(100);
  EXPECT_EQ(fired[0], (std::vector<SimTime>{52}));
  EXPECT_EQ(fired[1], (std::vector<SimTime>{5, 50, 55}));
  EXPECT_TRUE(lanes.drained());
  EXPECT_EQ(lanes.now(), 100);
}

// Heavier cross-lane traffic for tsan: eight tokens circulate over four
// shards with different strides, so every (src, dst) mailbox pair carries
// concurrent traffic for many windows. The checksum is lane-count
// invariant.
TEST(LaneGroupTest, CirculatingTokensAreLaneCountInvariant) {
  std::uint64_t want_sum = 0;
  std::uint64_t want_events = 0;
  for (const std::size_t lane_count : {1u, 4u}) {
    constexpr std::size_t kShards = 4;
    LaneGroup lanes(kShards, lane_count);
    lanes.set_lookahead(3);
    std::uint64_t sums[kShards] = {};
    std::function<void(std::size_t, std::size_t, int)> hop =
        [&](std::size_t at, std::size_t stride, int round) {
          sums[at] += static_cast<std::uint64_t>(round + 1) * (at + 1);
          if (round >= 200) return;
          const std::size_t dst = (at + stride) % kShards;
          lanes.post(at, dst, lanes.kernel(at).now() + 3,
                     Simulator::Callback([&hop, dst, stride, round] {
                       hop(dst, stride, round + 1);
                     }));
        };
    for (std::size_t s = 0; s < kShards; ++s) {
      for (const std::size_t stride : {1u, 3u}) {
        lanes.kernel(s).schedule_at(0, [&hop, s, stride] { hop(s, stride, 0); });
      }
    }
    lanes.run_until(common::kSecond);
    std::uint64_t sum = 0;
    for (const std::uint64_t s : sums) sum += s;
    if (lane_count == 1) {
      want_sum = sum;
      want_events = lanes.executed_events();
      EXPECT_GT(sum, 0u);
    } else {
      EXPECT_EQ(sum, want_sum);
      EXPECT_EQ(lanes.executed_events(), want_events);
    }
  }
}

// Stress for the claimed-shard window loop (run under tsan): three lanes
// over five shards with very uneven load. Shard 0 ticks every nanosecond,
// shard 1 every third; shards 2-4 sit idle for dozens of windows and wake
// only on mail. The run is cut into slices whose deadlines fall while mail
// is still in flight, and the caller schedules fresh work between slices.
// Per-shard order-sensitive hashes, executed_events(), windows() and the
// cross-shard count must match the one-lane run at every lane count.
TEST(LaneGroupTest, UnevenIdleShardsStressIsLaneCountInvariant) {
  constexpr std::size_t kShards = 5;
  constexpr SimTime kLookahead = 4;
  constexpr SimTime kSlice = 250;
  constexpr SimTime kEnd = 20000;
  struct Outcome {
    std::array<std::uint64_t, kShards> hash{};
    std::uint64_t events = 0;
    std::uint64_t windows = 0;
    std::uint64_t mail = 0;
  };
  auto run = [&](std::size_t lane_count) {
    LaneGroup lanes(kShards, lane_count);
    lanes.set_lookahead(kLookahead);
    Outcome out;
    // Each shard only ever mixes into its own slot.
    auto mix = [&out](std::size_t shard, std::uint64_t value) {
      out.hash[shard] = (out.hash[shard] ^ value) * 0x100000001b3ull;
    };
    std::function<void(std::size_t, std::uint64_t)> wake =
        [&](std::size_t at, std::uint64_t n) {
          const SimTime now = lanes.kernel(at).now();
          mix(at, n * 7 + static_cast<std::uint64_t>(now));
          if (n % 2 == 0) {
            lanes.post(at, 1, now + kLookahead + 7,
                       Simulator::Callback([&mix, at, n] { mix(1, n * at); }));
          }
        };
    std::function<void(std::size_t, std::uint64_t)> tick =
        [&](std::size_t at, std::uint64_t n) {
          const SimTime now = lanes.kernel(at).now();
          mix(at, n * 31 + static_cast<std::uint64_t>(now));
          if (at == 0 && n % 97 == 0) {
            const std::size_t dst = 2 + (n / 97) % 3;
            lanes.post(0, dst, now + kLookahead + static_cast<SimTime>(n % 5),
                       Simulator::Callback([&wake, dst, n] { wake(dst, n); }));
          }
          if (at == 1 && n % 11 == 0) {
            lanes.post(1, 0, now + kLookahead,
                       Simulator::Callback([&mix, n] { mix(0, n ^ 0xABCu); }));
          }
          const SimTime period = at == 0 ? 1 : 3;
          if (now + period <= kEnd) {
            lanes.kernel(at).schedule_at(now + period,
                                         [&tick, at, n] { tick(at, n + 1); });
          }
        };
    lanes.kernel(0).schedule_at(0, [&tick] { tick(0, 0); });
    lanes.kernel(1).schedule_at(0, [&tick] { tick(1, 0); });
    for (SimTime deadline = kSlice; deadline <= kEnd; deadline += kSlice) {
      // Lands exactly on the coming deadline and mails past it, so this
      // slice returns with mail still pending.
      lanes.kernel(2).schedule_at(deadline, [&, deadline] {
        mix(2, static_cast<std::uint64_t>(deadline));
        lanes.post(2, 4, deadline + kLookahead,
                   Simulator::Callback([&wake, deadline] {
                     wake(4, static_cast<std::uint64_t>(deadline));
                   }));
      });
      lanes.run_until(deadline);
      EXPECT_EQ(lanes.now(), deadline);
    }
    lanes.run_until(2 * kEnd);
    EXPECT_TRUE(lanes.drained()) << "lane_count=" << lane_count;
    out.events = lanes.executed_events();
    out.windows = lanes.windows();
    out.mail = lanes.cross_shard_messages();
    return out;
  };

  const Outcome want = run(1);
  for (const std::uint64_t h : want.hash) EXPECT_NE(h, 0u);
  EXPECT_GT(want.mail, 0u);
  EXPECT_GT(want.windows, kEnd / kLookahead / 2);
  for (const std::size_t lane_count : {2u, 3u, 4u}) {
    const Outcome got = run(lane_count);
    EXPECT_EQ(got.hash, want.hash) << "lane_count=" << lane_count;
    EXPECT_EQ(got.events, want.events) << "lane_count=" << lane_count;
    EXPECT_EQ(got.windows, want.windows) << "lane_count=" << lane_count;
    EXPECT_EQ(got.mail, want.mail) << "lane_count=" << lane_count;
  }
}

}  // namespace
}  // namespace src::sim
