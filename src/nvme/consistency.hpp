// LBA consistency tracker for the separate-submission-queue mechanism
// (paper §III-A): when a new request touches a logical page that an
// already-queued request also touches, the new request must be routed to
// the same submission queue so that dependent I/O executes in submission
// order. Tracking is page-granular.
//
// Storage (DESIGN §10.8): pages are grouped into aligned chunks of
// kChunkPages. A FlatMap64 maps a chunk number to a dense array holding one
// 32-bit word per page — the queue kind in the top bit, the number of
// queued requests touching the page below it (0 = not tracked). A request's
// consecutive pages share a chunk and usually a cache line, so every call
// costs one hash per chunk touched plus a linear walk; no call allocates
// once the chunk pool has reached the backlog's footprint, and nothing is
// hashed, allocated or freed per page. Chunks whose last page drains go
// back to a free list.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/flat_map.hpp"
#include "common/types.hpp"

namespace src::nvme {

enum class QueueKind : std::uint8_t { kReadQueue = 0, kWriteQueue = 1 };

constexpr QueueKind natural_queue(common::IoType type) {
  return type == common::IoType::kRead ? QueueKind::kReadQueue
                                       : QueueKind::kWriteQueue;
}

class ConsistencyTracker {
 public:
  explicit ConsistencyTracker(std::uint64_t page_bytes)
      : page_bytes_(page_bytes == 0 ? 1 : page_bytes) {}

  /// Returns the queue an overlapping queued request lives in, if any: the
  /// kind recorded on the lowest queued page of the range. Requests that
  /// straddle pages pinned to different queues are routed by that first
  /// hit (see DESIGN §4 for the ordering gap this leaves).
  std::optional<QueueKind> overlapping_queue(std::uint64_t lba,
                                             std::uint32_t bytes) const {
    std::optional<QueueKind> hit;
    for_each_chunk(lba, bytes, [&](std::uint64_t chunk, std::uint32_t from,
                                   std::uint32_t to) {
      Chunk* const* found = index_.find(chunk);
      if (found == nullptr) return true;
      const Chunk& c = **found;
      for (std::uint32_t i = from; i <= to; ++i) {
        if ((c.pages[i] & kCountMask) != 0) {
          hit = (c.pages[i] & kKindBit) != 0 ? QueueKind::kWriteQueue
                                             : QueueKind::kReadQueue;
          return false;
        }
      }
      return true;
    });
    return hit;
  }

  /// Record that a request has been enqueued into `kind`. The kind of
  /// every page it touches is overwritten with `kind`.
  void note_queued(std::uint64_t lba, std::uint32_t bytes, QueueKind kind) {
    const std::uint32_t kind_bit = kind == QueueKind::kWriteQueue ? kKindBit : 0;
    for_each_chunk(lba, bytes, [&](std::uint64_t chunk, std::uint32_t from,
                                   std::uint32_t to) {
      Chunk& c = chunk_for(chunk);
      for (std::uint32_t i = from; i <= to; ++i) {
        const std::uint32_t count = c.pages[i] & kCountMask;
        if (count == 0) {
          ++c.live;
          ++tracked_pages_;
        }
        c.pages[i] = (count + 1) | kind_bit;
      }
      return true;
    });
  }

  /// Record that a queued request has been fetched to the device.
  void note_fetched(std::uint64_t lba, std::uint32_t bytes) {
    for_each_chunk(lba, bytes, [&](std::uint64_t chunk, std::uint32_t from,
                                   std::uint32_t to) {
      Chunk* const* found = index_.find(chunk);
      if (found == nullptr) return true;
      Chunk& c = **found;
      for (std::uint32_t i = from; i <= to; ++i) {
        std::uint32_t& page = c.pages[i];
        if ((page & kCountMask) == 0) continue;
        if ((page & kCountMask) == 1) {
          page = 0;
          --c.live;
          --tracked_pages_;
        } else {
          --page;
        }
      }
      if (c.live == 0) {
        index_.erase(chunk);
        free_chunks_.push_back(&c);
      }
      return true;
    });
  }

  /// Number of pages at least one queued request touches.
  std::size_t tracked_pages() const { return tracked_pages_; }

 private:
  static constexpr unsigned kChunkShift = 12;
  static constexpr std::uint64_t kChunkPages = std::uint64_t{1} << kChunkShift;
  static constexpr std::uint32_t kKindBit = std::uint32_t{1} << 31;
  static constexpr std::uint32_t kCountMask = kKindBit - 1;

  struct Chunk {
    std::array<std::uint32_t, kChunkPages> pages{};  ///< kind bit | count
    std::uint32_t live = 0;  ///< pages with a non-zero count
  };

  /// Calls `fn(chunk, first_offset, last_offset)` for each chunk the
  /// request's page range touches, in ascending page order, until `fn`
  /// returns false. A zero-byte request touches the page holding `lba`
  /// (common::page_span).
  template <typename Fn>
  void for_each_chunk(std::uint64_t lba, std::uint32_t bytes, Fn&& fn) const {
    const auto [first, last] = common::page_span(lba, bytes, page_bytes_);
    for (std::uint64_t page = first;;) {
      const std::uint64_t chunk_last = std::min(last, page | (kChunkPages - 1));
      if (!fn(page >> kChunkShift, offset(page), offset(chunk_last))) return;
      if (chunk_last == last) return;
      page = chunk_last + 1;
    }
  }

  static std::uint32_t offset(std::uint64_t page) {
    return static_cast<std::uint32_t>(page & (kChunkPages - 1));
  }

  /// `chunk`'s page array, taken from the free list (or allocated) when the
  /// chunk is not tracked yet. Chunks are allocated one by one, never
  /// moved, so growing the pool copies nothing.
  Chunk& chunk_for(std::uint64_t chunk) {
    if (Chunk* const* found = index_.find(chunk)) return **found;
    Chunk* c;
    if (!free_chunks_.empty()) {
      c = free_chunks_.back();
      free_chunks_.pop_back();
    } else {
      pool_.push_back(std::make_unique<Chunk>());
      c = pool_.back().get();
    }
    index_.insert_or_assign(chunk, c);
    return *c;
  }

  std::uint64_t page_bytes_;
  common::FlatMap64<Chunk*> index_;           ///< chunk number -> page array
  std::vector<std::unique_ptr<Chunk>> pool_;  ///< owns every page array
  std::vector<Chunk*> free_chunks_;           ///< all-zero, untracked
  std::size_t tracked_pages_ = 0;
};

}  // namespace src::nvme
