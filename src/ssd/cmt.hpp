// Cached Mapping Table (CMT): an LRU cache over logical-page mapping
// entries. A miss costs one mapping-page flash read in the device model —
// the mechanism through which the paper's CMT-size parameter (Table II)
// affects throughput.
//
// Storage: the LRU list is index-linked through one node vector, and a
// FlatMap64 maps a logical page to its node. Nodes are never freed; once
// the table is full an eviction hands the tail node to the new entry, so
// an access allocates nothing beyond the table's growth to capacity.
#pragma once

#include <cstdint>
#include <vector>

#include "common/flat_map.hpp"

namespace src::ssd {

class CachedMappingTable {
 public:
  explicit CachedMappingTable(std::uint64_t capacity_entries)
      : capacity_(capacity_entries == 0 ? 1 : capacity_entries) {}

  /// Touch the mapping entry for a logical page. Returns true on hit;
  /// on a miss the entry is installed (evicting LRU if full).
  bool access(std::uint64_t logical_page) {
    // One probe finds the entry or makes its slot; the size tells which.
    const std::size_t cached = index_.size();
    std::uint32_t& slot = index_[logical_page];
    if (index_.size() == cached) {
      if (slot != head_) {
        unlink(slot);
        push_front(slot);
      }
      ++hits_;
      return true;
    }
    ++misses_;
    std::uint32_t node;
    if (nodes_.size() >= capacity_) {
      node = tail_;
      unlink(node);
      slot = node;  // before the erase, which may shift slots
      index_.erase(nodes_[node].page);
    } else {
      node = static_cast<std::uint32_t>(nodes_.size());
      nodes_.emplace_back();
      slot = node;
    }
    nodes_[node].page = logical_page;
    push_front(node);
    return false;
  }

  std::uint64_t capacity() const { return capacity_; }
  std::size_t size() const { return nodes_.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

  double hit_ratio() const {
    const auto total = hits_ + misses_;
    return total == 0 ? 0.0 : static_cast<double>(hits_) / static_cast<double>(total);
  }

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  struct Node {
    std::uint64_t page = 0;
    std::uint32_t prev = kNone;  ///< towards the MRU end
    std::uint32_t next = kNone;  ///< towards the LRU end
  };

  void unlink(std::uint32_t node) {
    const Node& n = nodes_[node];
    (n.prev == kNone ? head_ : nodes_[n.prev].next) = n.next;
    (n.next == kNone ? tail_ : nodes_[n.next].prev) = n.prev;
  }

  void push_front(std::uint32_t node) {
    nodes_[node].prev = kNone;
    nodes_[node].next = head_;
    (head_ == kNone ? tail_ : nodes_[head_].prev) = node;
    head_ = node;
  }

  std::uint64_t capacity_;
  std::vector<Node> nodes_;                   ///< one per cached entry
  common::FlatMap64<std::uint32_t> index_;    ///< logical page -> node
  std::uint32_t head_ = kNone;                ///< most recently used
  std::uint32_t tail_ = kNone;                ///< least recently used
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace src::ssd
