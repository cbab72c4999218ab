#include "nvme/consistency.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace src::nvme {
namespace {

using common::IoType;

TEST(ConsistencyTest, NaturalQueueMapping) {
  EXPECT_EQ(natural_queue(IoType::kRead), QueueKind::kReadQueue);
  EXPECT_EQ(natural_queue(IoType::kWrite), QueueKind::kWriteQueue);
}

TEST(ConsistencyTest, NoOverlapInitially) {
  ConsistencyTracker tracker(4096);
  EXPECT_FALSE(tracker.overlapping_queue(0, 4096).has_value());
}

TEST(ConsistencyTest, ExactOverlapDetected) {
  ConsistencyTracker tracker(4096);
  tracker.note_queued(0, 4096, QueueKind::kReadQueue);
  const auto hit = tracker.overlapping_queue(0, 4096);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, QueueKind::kReadQueue);
}

TEST(ConsistencyTest, PartialOverlapDetected) {
  ConsistencyTracker tracker(4096);
  tracker.note_queued(0, 8192, QueueKind::kWriteQueue);  // pages 0,1
  const auto hit = tracker.overlapping_queue(4096, 4096);  // page 1
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, QueueKind::kWriteQueue);
}

TEST(ConsistencyTest, AdjacentPagesDoNotOverlap) {
  ConsistencyTracker tracker(4096);
  tracker.note_queued(0, 4096, QueueKind::kReadQueue);  // page 0 only
  EXPECT_FALSE(tracker.overlapping_queue(4096, 4096).has_value());
}

TEST(ConsistencyTest, FetchClearsTracking) {
  ConsistencyTracker tracker(4096);
  tracker.note_queued(0, 4096, QueueKind::kReadQueue);
  tracker.note_fetched(0, 4096);
  EXPECT_FALSE(tracker.overlapping_queue(0, 4096).has_value());
  EXPECT_EQ(tracker.tracked_pages(), 0u);
}

TEST(ConsistencyTest, RefCountSurvivesPartialFetch) {
  ConsistencyTracker tracker(4096);
  tracker.note_queued(0, 4096, QueueKind::kWriteQueue);
  tracker.note_queued(0, 4096, QueueKind::kWriteQueue);
  tracker.note_fetched(0, 4096);
  // One request still queued on page 0.
  ASSERT_TRUE(tracker.overlapping_queue(0, 4096).has_value());
  tracker.note_fetched(0, 4096);
  EXPECT_FALSE(tracker.overlapping_queue(0, 4096).has_value());
}

TEST(ConsistencyTest, FetchOfUntrackedRangeIsSafe) {
  ConsistencyTracker tracker(4096);
  tracker.note_fetched(1 << 20, 4096);  // no-op
  EXPECT_EQ(tracker.tracked_pages(), 0u);
}

TEST(ConsistencyTest, ZeroByteRequestTouchesOnePage) {
  ConsistencyTracker tracker(4096);
  tracker.note_queued(8192, 0, QueueKind::kReadQueue);
  EXPECT_TRUE(tracker.overlapping_queue(8192, 1).has_value());
}

// A zero-byte request touches exactly the page holding its lba, the span
// SsdDevice charges too (common::page_span): page-aligned, unaligned, and
// at lba 0, where lba + bytes - 1 would wrap.
TEST(ConsistencyTest, ZeroByteRequestSpansThePageHoldingLba) {
  for (const std::uint64_t page_bytes : {std::uint64_t{4096}, std::uint64_t{16384}}) {
    for (const std::uint64_t lba : {std::uint64_t{0}, 3 * page_bytes,
                                    3 * page_bytes + 100, 4 * page_bytes - 1}) {
      SCOPED_TRACE("page_bytes " + std::to_string(page_bytes) + " lba " +
                   std::to_string(lba));
      const common::PageSpan span = common::page_span(lba, 0, page_bytes);
      EXPECT_EQ(span.first, lba / page_bytes);
      EXPECT_EQ(span.count(), 1u);

      ConsistencyTracker tracker(page_bytes);
      tracker.note_queued(lba, 0, QueueKind::kWriteQueue);
      EXPECT_EQ(tracker.tracked_pages(), 1u);
      const std::uint64_t page_start = span.first * page_bytes;
      EXPECT_EQ(tracker.overlapping_queue(page_start, 1), QueueKind::kWriteQueue);
      EXPECT_EQ(tracker.overlapping_queue(page_start + page_bytes - 1, 0),
                QueueKind::kWriteQueue);
      EXPECT_FALSE(tracker.overlapping_queue(page_start + page_bytes, 0).has_value());
      if (page_start > 0) {
        EXPECT_FALSE(tracker.overlapping_queue(page_start - 1, 0).has_value());
      }
      tracker.note_fetched(lba, 0);
      EXPECT_EQ(tracker.tracked_pages(), 0u);
      EXPECT_FALSE(tracker.overlapping_queue(lba, 0).has_value());
    }
  }
}

// Reference model: the node-per-page map the tracker replaced, with the
// same semantics (first queued page in ascending order decides; queueing
// overwrites the kind; a page is dropped when its count reaches zero).
class ModelTracker {
 public:
  explicit ModelTracker(std::uint64_t page_bytes) : page_bytes_(page_bytes) {}

  std::optional<QueueKind> overlapping_queue(std::uint64_t lba,
                                             std::uint32_t bytes) const {
    const auto [first, last] = range(lba, bytes);
    const auto it = pages_.lower_bound(first);
    if (it == pages_.end() || it->first > last) return std::nullopt;
    return it->second.kind;
  }
  void note_queued(std::uint64_t lba, std::uint32_t bytes, QueueKind kind) {
    const auto [first, last] = range(lba, bytes);
    for (std::uint64_t page = first; page <= last; ++page) {
      Entry& e = pages_[page];
      e.kind = kind;
      ++e.count;
    }
  }
  void note_fetched(std::uint64_t lba, std::uint32_t bytes) {
    const auto [first, last] = range(lba, bytes);
    for (std::uint64_t page = first; page <= last; ++page) {
      auto it = pages_.find(page);
      if (it != pages_.end() && --it->second.count == 0) pages_.erase(it);
    }
  }
  std::size_t tracked_pages() const { return pages_.size(); }

 private:
  struct Entry {
    QueueKind kind = QueueKind::kReadQueue;
    std::uint32_t count = 0;
  };
  std::pair<std::uint64_t, std::uint64_t> range(std::uint64_t lba,
                                                std::uint32_t bytes) const {
    return {lba / page_bytes_, (lba + (bytes == 0 ? 0 : bytes - 1)) / page_bytes_};
  }
  std::uint64_t page_bytes_;
  std::map<std::uint64_t, Entry> pages_;
};

struct Range {
  std::uint64_t lba = 0;
  std::uint32_t bytes = 0;
};

// Seeded random streams of queue/fetch/query calls against the model,
// clustered around chunk boundaries (the tracker groups 4096 pages) at
// three address bases, the highest just below 2^63.
TEST(ConsistencyTest, MatchesReferenceModelOnRandomStreams) {
  constexpr std::uint64_t kChunkPages = 4096;
  for (const std::uint64_t page_bytes : {std::uint64_t{1}, std::uint64_t{4096},
                                         std::uint64_t{16384}}) {
    const std::uint64_t top_page = (std::uint64_t{1} << 63) / page_bytes;
    for (const std::uint64_t base_chunk :
         {std::uint64_t{1}, std::uint64_t{977}, top_page / kChunkPages - 2}) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE("page_bytes=" + std::to_string(page_bytes) + " base_chunk=" +
                     std::to_string(base_chunk) + " seed=" + std::to_string(seed));
        common::Rng rng(seed * 7919 + page_bytes + base_chunk);
        ConsistencyTracker tracker(page_bytes);
        ModelTracker model(page_bytes);
        std::vector<Range> queued;

        const auto random_range = [&] {
          // A page within a few pages of one of two adjacent chunk
          // boundaries, a random offset inside it, and a size from zero
          // to a few pages (sometimes a whole chunk's worth).
          const std::uint64_t boundary =
              (base_chunk + rng.uniform_index(2)) * kChunkPages;
          const std::uint64_t page = boundary - 6 + rng.uniform_index(12);
          Range r;
          r.lba = page * page_bytes + rng.uniform_index(page_bytes);
          const std::uint64_t span =
              rng.bernoulli(0.05) ? kChunkPages + 3 : 4;  // in pages
          const std::uint64_t max_bytes = std::min<std::uint64_t>(
              span * page_bytes, std::uint64_t{1} << 24);
          r.bytes = rng.bernoulli(0.1)
                        ? 0
                        : static_cast<std::uint32_t>(rng.uniform_index(max_bytes + 1));
          return r;
        };

        for (int step = 0; step < 400; ++step) {
          const double op = rng.uniform();
          if (op < 0.4 || queued.empty()) {
            const Range r = random_range();
            // Route the way SsqDriver does, so split pins occur naturally.
            const QueueKind natural =
                rng.bernoulli(0.5) ? QueueKind::kReadQueue : QueueKind::kWriteQueue;
            const auto pinned = model.overlapping_queue(r.lba, r.bytes);
            const QueueKind kind =
                pinned && rng.bernoulli(0.8) ? *pinned : natural;
            tracker.note_queued(r.lba, r.bytes, kind);
            model.note_queued(r.lba, r.bytes, kind);
            queued.push_back(r);
          } else if (op < 0.75) {
            const std::size_t k = rng.uniform_index(queued.size());
            const Range r = queued[k];
            queued.erase(queued.begin() + static_cast<std::ptrdiff_t>(k));
            tracker.note_fetched(r.lba, r.bytes);
            model.note_fetched(r.lba, r.bytes);
          } else if (op < 0.8) {
            const Range r = random_range();  // possibly never queued
            tracker.note_fetched(r.lba, r.bytes);
            model.note_fetched(r.lba, r.bytes);
          }
          const Range q = random_range();
          ASSERT_EQ(tracker.overlapping_queue(q.lba, q.bytes),
                    model.overlapping_queue(q.lba, q.bytes))
              << "step " << step << " query lba " << q.lba << "+" << q.bytes;
          ASSERT_EQ(tracker.tracked_pages(), model.tracked_pages()) << "step " << step;
        }
        // Drain everything: the tracker must end empty and reusable.
        for (const Range& r : queued) {
          tracker.note_fetched(r.lba, r.bytes);
          model.note_fetched(r.lba, r.bytes);
          ASSERT_EQ(tracker.tracked_pages(), model.tracked_pages());
        }
        EXPECT_EQ(tracker.tracked_pages(), 0u);
        const Range again = random_range();
        tracker.note_queued(again.lba, again.bytes, QueueKind::kWriteQueue);
        model.note_queued(again.lba, again.bytes, QueueKind::kWriteQueue);
        EXPECT_EQ(tracker.tracked_pages(), model.tracked_pages());
        EXPECT_EQ(tracker.overlapping_queue(again.lba, again.bytes),
                  QueueKind::kWriteQueue);
      }
    }
  }
}

}  // namespace
}  // namespace src::nvme
