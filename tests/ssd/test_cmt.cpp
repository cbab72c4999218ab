#include "ssd/cmt.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>

#include "common/rng.hpp"

namespace src::ssd {
namespace {

TEST(CmtTest, FirstAccessIsMiss) {
  CachedMappingTable cmt(4);
  EXPECT_FALSE(cmt.access(1));
  EXPECT_EQ(cmt.misses(), 1u);
  EXPECT_EQ(cmt.hits(), 0u);
}

TEST(CmtTest, RepeatAccessIsHit) {
  CachedMappingTable cmt(4);
  cmt.access(1);
  EXPECT_TRUE(cmt.access(1));
  EXPECT_EQ(cmt.hits(), 1u);
}

TEST(CmtTest, EvictsLeastRecentlyUsed) {
  CachedMappingTable cmt(2);
  cmt.access(1);
  cmt.access(2);
  cmt.access(1);      // 1 is now MRU
  cmt.access(3);      // evicts 2
  EXPECT_TRUE(cmt.access(1));
  EXPECT_TRUE(cmt.access(3));
  EXPECT_FALSE(cmt.access(2));  // was evicted
}

TEST(CmtTest, CapacityRespected) {
  CachedMappingTable cmt(8);
  for (std::uint64_t p = 0; p < 100; ++p) cmt.access(p);
  EXPECT_EQ(cmt.size(), 8u);
}

TEST(CmtTest, ZeroCapacityClampsToOne) {
  CachedMappingTable cmt(0);
  EXPECT_EQ(cmt.capacity(), 1u);
  cmt.access(1);
  EXPECT_TRUE(cmt.access(1));
  cmt.access(2);
  EXPECT_FALSE(cmt.access(1));
}

TEST(CmtTest, HitRatio) {
  CachedMappingTable cmt(16);
  for (int round = 0; round < 4; ++round) {
    for (std::uint64_t p = 0; p < 8; ++p) cmt.access(p);
  }
  // 8 misses, 24 hits.
  EXPECT_DOUBLE_EQ(cmt.hit_ratio(), 24.0 / 32.0);
}

TEST(CmtTest, SequentialScanLargerThanCapacityAlwaysMisses) {
  CachedMappingTable cmt(4);
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t p = 0; p < 16; ++p) EXPECT_FALSE(cmt.access(p));
  }
}

// Reference: the std::list + std::unordered_map LRU the flat table replaced.
class ReferenceLru {
 public:
  explicit ReferenceLru(std::uint64_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

  bool access(std::uint64_t page) {
    if (auto it = index_.find(page); it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++hits_;
      return true;
    }
    ++misses_;
    if (lru_.size() >= capacity_) {
      index_.erase(lru_.back());
      lru_.pop_back();
    }
    lru_.push_front(page);
    index_[page] = lru_.begin();
    return false;
  }
  std::size_t size() const { return lru_.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  std::uint64_t capacity_;
  std::list<std::uint64_t> lru_;
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

// Random streams at small capacities, so nearly every miss evicts: a hot
// set re-touched often (MRU and mid-list hits), sequential runs (scans that
// cycle the whole list) and far pages (one-off misses).
TEST(CmtTest, MatchesListLruOnRandomStreams) {
  for (const std::uint64_t capacity : {0u, 1u, 2u, 3u, 8u, 61u}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE("capacity " + std::to_string(capacity) + " seed " +
                   std::to_string(seed));
      CachedMappingTable cmt(capacity);
      ReferenceLru reference(capacity);
      common::Rng rng(seed);
      const std::uint64_t domain = 2 * capacity + 3;
      std::uint64_t sequential = 0;
      for (int step = 0; step < 20'000; ++step) {
        const double shape = rng.uniform();
        std::uint64_t page;
        if (shape < 0.6) {
          page = rng.uniform_index(domain);
        } else if (shape < 0.9) {
          page = sequential++ % (capacity + 2);
        } else {
          page = rng.next_u64();
        }
        ASSERT_EQ(cmt.access(page), reference.access(page))
            << "step " << step << " page " << page;
        ASSERT_EQ(cmt.size(), reference.size()) << "step " << step;
      }
      EXPECT_EQ(cmt.hits(), reference.hits());
      EXPECT_EQ(cmt.misses(), reference.misses());
      const double total = static_cast<double>(reference.hits() + reference.misses());
      EXPECT_EQ(cmt.hit_ratio(), static_cast<double>(reference.hits()) / total);
      EXPECT_GT(cmt.hits(), 0u);
      EXPECT_GT(cmt.misses(), cmt.capacity());  // the eviction path ran
    }
  }
}

}  // namespace
}  // namespace src::ssd
