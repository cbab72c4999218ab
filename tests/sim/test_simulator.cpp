#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace src::sim {
namespace {

TEST(SimulatorTest, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(SimulatorTest, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SimulatorTest, ScheduleInIsRelative) {
  Simulator sim;
  SimTime fired_at = -1;
  sim.schedule_at(100, [&] {
    sim.schedule_in(50, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, 150);
}

TEST(SimulatorTest, PastEventsClampToNow) {
  Simulator sim;
  SimTime fired_at = -1;
  sim.schedule_at(100, [&] {
    sim.schedule_at(10, [&] { fired_at = sim.now(); });  // in the past
  });
  sim.run();
  EXPECT_EQ(fired_at, 100);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_at(10, [&] { fired = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.executed_events(), 0u);
}

TEST(SimulatorTest, CancelInvalidIdIsSafe) {
  Simulator sim;
  sim.cancel(EventId{});
  sim.schedule_at(1, [] {});
  sim.run();
  EXPECT_EQ(sim.executed_events(), 1u);
}

TEST(SimulatorTest, CancelFromWithinEvent) {
  Simulator sim;
  bool second_fired = false;
  const EventId second = sim.schedule_at(20, [&] { second_fired = true; });
  sim.schedule_at(10, [&] { sim.cancel(second); });
  sim.run();
  EXPECT_FALSE(second_fired);
}

TEST(SimulatorTest, RunUntilStopsAtDeadlineInclusive) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(10, [&] { ++count; });
  sim.schedule_at(20, [&] { ++count; });
  sim.schedule_at(21, [&] { ++count; });
  sim.run_until(20);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(count, 3);
}

TEST(SimulatorTest, RunUntilAdvancesClockWhenEmpty) {
  Simulator sim;
  sim.run_until(500);
  EXPECT_EQ(sim.now(), 500);
}

TEST(SimulatorTest, StepReturnsFalseWhenDrained) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
  sim.schedule_at(1, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(SimulatorTest, EventsScheduledDuringRunExecute) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) sim.schedule_in(1, chain);
  };
  sim.schedule_at(0, chain);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.now(), 99);
}

// Regression: cancelling an id whose event already fired used to insert a
// tombstone that nothing ever reclaimed (the old unordered_set design grew
// without bound under handle-cancelling drivers). A stale cancel must be a
// pure no-op.
TEST(SimulatorTest, CancelAfterFireIsNoOpAndDoesNotLeak) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(sim.schedule_at(i, [] {}));
  }
  sim.run();
  EXPECT_EQ(sim.executed_events(), 1000u);
  const std::size_t slots_before = sim.slot_count();
  for (const EventId id : ids) sim.cancel(id);  // all already fired
  EXPECT_EQ(sim.cancelled_pending(), 0u);
  EXPECT_EQ(sim.slot_count(), slots_before);
  // The calendar still works and reuses the retired slots.
  int fired = 0;
  for (int i = 0; i < 1000; ++i) {
    sim.schedule_in(1, [&] { ++fired; });
  }
  sim.run();
  EXPECT_EQ(fired, 1000);
  EXPECT_EQ(sim.slot_count(), slots_before);
}

TEST(SimulatorTest, CancelTwiceCountsOnce) {
  Simulator sim;
  const EventId id = sim.schedule_at(10, [] {});
  sim.cancel(id);
  sim.cancel(id);
  EXPECT_EQ(sim.cancelled_pending(), 1u);
  sim.run();
  EXPECT_EQ(sim.cancelled_pending(), 0u);
  EXPECT_EQ(sim.executed_events(), 0u);
}

// A handle outliving its event must not be able to kill an unrelated event
// that happens to reuse the same arena slot (no ABA).
TEST(SimulatorTest, StaleHandleCannotCancelRecycledSlot) {
  Simulator sim;
  const EventId first = sim.schedule_at(1, [] {});
  sim.run();
  bool second_fired = false;
  sim.schedule_at(2, [&] { second_fired = true; });  // reuses first's slot
  EXPECT_EQ(sim.slot_count(), 1u);
  sim.cancel(first);  // stale: must not touch the new occupant
  sim.run();
  EXPECT_TRUE(second_fired);
}

// The slot arena is bounded by peak concurrency, not by total events.
TEST(SimulatorTest, SlotArenaBoundedByPeakPendingEvents) {
  Simulator sim;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 10; ++i) {
      sim.schedule_in(i, [] {});
    }
    sim.run();
  }
  EXPECT_EQ(sim.executed_events(), 1000u);
  EXPECT_LE(sim.slot_count(), 10u);
}

// Closures above the inline buffer take the boxed path; they must execute
// and destruct exactly like small ones.
TEST(SimulatorTest, OversizedClosuresExecute) {
  struct Big {
    std::uint64_t payload[16] = {};
  };
  static_assert(sizeof(Big) > kCallbackInlineBytes);
  Simulator sim;
  std::uint64_t sum = 0;
  for (std::uint64_t i = 0; i < 100; ++i) {
    Big big;
    big.payload[7] = i;
    sim.schedule_at(static_cast<SimTime>(i), [big, &sum] { sum += big.payload[7]; });
  }
  sim.run();
  EXPECT_EQ(sum, 99u * 100u / 2);
}

TEST(SimulatorTest, ManyEventsStressOrdering) {
  Simulator sim;
  SimTime last = -1;
  bool monotonic = true;
  std::uint64_t state = 99;
  for (int i = 0; i < 20'000; ++i) {
    const auto when = static_cast<SimTime>(common::splitmix64(state) % 1'000'000);
    sim.schedule_at(when, [&, when] {
      if (when < last) monotonic = false;
      last = when;
    });
  }
  sim.run();
  EXPECT_TRUE(monotonic);
  EXPECT_EQ(sim.executed_events(), 20'000u);
}

TEST(SimulatorTest, BatchFiresInTimeThenIndexOrder) {
  Simulator sim;
  std::vector<std::size_t> order;
  const std::vector<SimTime> when{30, 10, 20, 10, 0};
  sim.schedule_batch(when, [&](std::size_t k) { order.push_back(k); });
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(order, (std::vector<std::size_t>{4, 1, 3, 2, 0}));
  EXPECT_EQ(sim.executed_events(), 5u);
  EXPECT_EQ(sim.now(), 30);
}

// The kernel owns a batch's closure: it lives until the last event has run
// (or the simulator goes away with events still pending), never longer.
TEST(SimulatorTest, BatchReleasesItsCapturesAfterTheLastEvent) {
  auto token = std::make_shared<int>(0);
  {
    Simulator sim;
    sim.schedule_batch(std::vector<SimTime>{1, 2, 3},
                       [token](std::size_t) { ++*token; });
    EXPECT_EQ(token.use_count(), 2);
    sim.run_until(2);
    EXPECT_EQ(*token, 2);
    EXPECT_EQ(token.use_count(), 2);
    sim.run();
    EXPECT_EQ(*token, 3);
    EXPECT_EQ(token.use_count(), 1);
    sim.schedule_batch(std::vector<SimTime>{10, 20},
                       [token](std::size_t) { ++*token; });
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);  // freed with the simulator, unfired
  EXPECT_EQ(*token, 3);
}

// Differential check of schedule_batch against the N schedule_at calls it
// stands for. A Script drives one simulator; every decision it takes is a
// function of the firing event's label and the clock, so two scripts make
// identical calls for as long as their kernels pop identical events. The
// reference script expands each batch into schedule_at calls, the streamed
// one hands it to schedule_batch; both run in lockstep.
class Script {
 public:
  Script(Simulator& sim, bool streamed, std::uint64_t seed)
      : sim_(sim), streamed_(streamed), rng_(seed) {}

  /// Labels of executed events with their times, in execution order.
  std::vector<std::pair<std::uint64_t, SimTime>> log;

  void plain(SimTime when, bool victim) {
    const std::uint64_t label = next_label_++;
    const EventId id = sim_.schedule_at(when, [this, label] { on_event(label); });
    if (victim) victims_.push_back(id);
  }

  /// Random times in [lo, lo + span), with deliberate ties; unsorted.
  void batch(SimTime lo, SimTime span, std::size_t n) {
    std::vector<SimTime> when(n);
    for (SimTime& t : when) {
      t = lo + static_cast<SimTime>(rng_.next_u64() % static_cast<std::uint64_t>(span));
      if (rng_.next_u64() % 4 == 0) t = lo;  // ties with the batch's floor
    }
    const std::uint64_t batch_id = remaining_.size();
    remaining_.push_back(n);
    if (n > 0) ++unfinished_;
    if (streamed_) {
      sim_.schedule_batch(when, [this, batch_id](std::size_t k) {
        on_event(batch_label(batch_id, k));
      });
    } else {
      for (std::size_t k = 0; k < n; ++k) {
        const std::uint64_t label = batch_label(batch_id, k);
        sim_.schedule_at(when[k], [this, label] { on_event(label); });
      }
    }
  }

  /// Batch events scheduled but not yet executed, and batches with any.
  std::size_t batch_events_left() const {
    std::size_t left = 0;
    for (const std::size_t r : remaining_) left += r;
    return left;
  }
  std::size_t unfinished_batches() const { return unfinished_; }

 private:
  static constexpr std::uint64_t kBatchBit = 1ull << 63;
  static std::uint64_t batch_label(std::uint64_t batch_id, std::size_t k) {
    return kBatchBit | (batch_id << 32) | k;
  }

  void on_event(std::uint64_t label) {
    const SimTime now = sim_.now();
    log.emplace_back(label, now);
    if ((label & kBatchBit) != 0) {
      const std::size_t batch_id = (label & ~kBatchBit) >> 32;
      if (--remaining_[batch_id] == 0) --unfinished_;
    }
    std::uint64_t state = label;
    const std::uint64_t h = common::splitmix64(state);
    if (h % 4 == 0) plain(now, /*victim=*/false);  // same-time event
    if (h % 5 == 1) {
      plain(now + static_cast<SimTime>(h % 50), /*victim=*/true);
    }
    if (h % 7 == 2 && !victims_.empty()) {
      sim_.cancel(victims_[(h >> 8) % victims_.size()]);
    }
    if (h % 97 == 3 && remaining_.size() < 12) {
      // A batch started from a callback, reaching back into the past.
      batch(now - 20, 60, static_cast<std::size_t>(h % 40));
    }
  }

  Simulator& sim_;
  bool streamed_;
  common::Rng rng_;
  std::uint64_t next_label_ = 1;
  std::vector<EventId> victims_;
  std::vector<std::size_t> remaining_;  ///< unexecuted events per batch
  std::size_t unfinished_ = 0;
};

TEST(SimulatorTest, BatchMatchesScheduleAtReferenceUnderRandomInterleaving) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    Simulator ref_sim;
    Simulator str_sim;
    Script ref(ref_sim, /*streamed=*/false, seed);
    Script str(str_sim, /*streamed=*/true, seed);
    for (Script* s : {&ref, &str}) {
      for (int i = 0; i < 20; ++i) s->plain(static_cast<SimTime>(i * 7 % 90), i % 3 == 0);
      s->batch(0, 100, 200);
      s->batch(50, 10, 64);  // dense: many ties with the first batch
      s->batch(0, 1000, 1);
      s->batch(30, 500, 0);
      for (int i = 0; i < 20; ++i) s->plain(static_cast<SimTime>(i * 13 % 120), i % 2 == 0);
    }
    for (;;) {
      const bool ran = ref_sim.step();
      ASSERT_EQ(str_sim.step(), ran);
      if (!ran) break;
      ASSERT_EQ(str.log.back(), ref.log.back());
      ASSERT_EQ(str_sim.executed_events(), ref_sim.executed_events());
      // The reference calendar holds every unexecuted batch event, the
      // streamed one exactly one per unfinished batch; the rest (other
      // events and cancel tombstones) is common to both.
      ASSERT_EQ(str.batch_events_left(), ref.batch_events_left());
      const std::size_t others = ref_sim.pending_events() - ref.batch_events_left();
      ASSERT_EQ(str_sim.pending_events(), others + str.unfinished_batches());
    }
    EXPECT_EQ(str.log, ref.log);
    EXPECT_EQ(str_sim.executed_events(), ref_sim.executed_events());
    EXPECT_EQ(str_sim.now(), ref_sim.now());
    EXPECT_EQ(str.unfinished_batches(), 0u);
    EXPECT_GT(ref.log.size(), 285u);
  }
}

}  // namespace
}  // namespace src::sim
