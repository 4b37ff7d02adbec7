// Calendar ring of per-tick FIFO queues.
//
// The engine keeps two queues keyed by check tick: the suspicion wheel
// (pair keys due for re-evaluation) and the delivery buckets (messages
// due at a barrier). Both see a tick's entries appended during the ticks
// before it and drained all at once when it comes up, and both span a
// bounded near future with rare far-future stragglers.
//
// A ring of std::vectors serves that pattern badly: every slot keeps the
// largest capacity it ever reached, so a one-off burst (construction arms
// all n^2 pairs at one grace-expiry tick) ends up copied into every slot
// the ring cycles through. Here a slot is a FIFO list of fixed-size
// chunks taken from, and returned to, the ring's own free list, so the
// memory held is proportional to the peak number of live entries - plus
// at most one partly filled chunk per occupied slot - whatever tick they
// were pushed to. Ticks a full revolution or more past the earliest
// undrained tick spill into an ordered far map.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace rfd::cluster {

template <typename T, std::int64_t kSlots>
class TickRing {
  static_assert(kSlots > 0 && (kSlots & (kSlots - 1)) == 0,
                "kSlots must be a power of two");

 public:
  /// Entries per chunk: with its header a chunk is about one 4 KiB page.
  static constexpr std::uint32_t kChunkCapacity =
      static_cast<std::uint32_t>(4080 / sizeof(T));
  static_assert(kChunkCapacity >= 8, "TickRing holds small values");

  TickRing() = default;
  TickRing(const TickRing&) = delete;
  TickRing& operator=(const TickRing&) = delete;

  ~TickRing() {
    for (const std::unique_ptr<Chunk>& chunk : chunks_) chunk->clear();
  }

  /// Appends `value` to tick `tick`'s queue. `base` is the earliest tick
  /// not yet drained (tick >= base): a tick less than one revolution
  /// ahead of it goes to its ring slot, anything later to the far map.
  void push(std::int64_t base, std::int64_t tick, T value) {
    RFD_REQUIRE(tick >= base);
    if (tick - base >= kSlots) {
      far_[tick].push_back(std::move(value));
      return;
    }
    Slot& slot = slots_[index(tick)];
    Chunk* tail = slot.tail;
    if (tail == nullptr || tail->size == kChunkCapacity) {
      Chunk* fresh = acquire();
      if (tail == nullptr) {
        slot.head = fresh;
      } else {
        tail->next = fresh;
      }
      slot.tail = tail = fresh;
    }
    ::new (static_cast<void*>(tail->at(tail->size))) T(std::move(value));
    ++tail->size;
  }

  /// Removes tick `tick`'s entries, calling visit(T&) on each: ring
  /// entries in push order, then far-map entries in push order. The slot
  /// is detached before the first call and each chunk is recycled once
  /// visited, so `visit` may push - including to tick + kSlots, which
  /// lands in the same (now fresh) slot.
  template <typename Visit>
  void drain(std::int64_t tick, Visit&& visit) {
    Slot& slot = slots_[index(tick)];
    Chunk* chunk = slot.head;
    slot = Slot{};
    while (chunk != nullptr) {
      for (std::uint32_t i = 0; i < chunk->size; ++i) visit(*chunk->at(i));
      Chunk* next = chunk->next;
      release(chunk);
      chunk = next;
    }
    const auto it = far_.find(tick);
    if (it == far_.end()) return;
    std::vector<T> spilled = std::move(it->second);
    far_.erase(it);
    for (T& value : spilled) visit(value);
  }

  /// Whether tick `tick` (not yet drained) holds no entries.
  bool empty_at(std::int64_t tick) const {
    return slots_[index(tick)].head == nullptr && far_.count(tick) == 0;
  }

  /// Earliest tick after `tick` holding entries, given every tick up to
  /// and including `tick` is drained (INT64_MAX if none).
  std::int64_t earliest_after(std::int64_t tick) const {
    std::int64_t best = std::numeric_limits<std::int64_t>::max();
    for (std::int64_t j = 1; j < kSlots; ++j) {
      if (slots_[index(tick + j)].head != nullptr) {
        best = tick + j;
        break;
      }
    }
    if (!far_.empty()) best = std::min(best, far_.begin()->first);
    return best;
  }

  /// Chunks ever allocated (in use or on the free list); none is
  /// returned to the allocator before the ring dies.
  std::size_t chunks_allocated() const { return chunks_.size(); }

 private:
  struct Chunk {
    Chunk* next = nullptr;
    std::uint32_t size = 0;
    alignas(T) unsigned char storage[kChunkCapacity * sizeof(T)];

    T* at(std::uint32_t i) { return reinterpret_cast<T*>(storage) + i; }
    void clear() {
      for (std::uint32_t i = 0; i < size; ++i) at(i)->~T();
      size = 0;
      next = nullptr;
    }
  };
  struct Slot {
    Chunk* head = nullptr;
    Chunk* tail = nullptr;
  };

  static std::size_t index(std::int64_t tick) {
    return static_cast<std::size_t>(tick & (kSlots - 1));
  }

  Chunk* acquire() {
    if (free_ == nullptr) {
      chunks_.push_back(std::unique_ptr<Chunk>(new Chunk));
      return chunks_.back().get();
    }
    Chunk* chunk = free_;
    free_ = chunk->next;
    chunk->next = nullptr;
    return chunk;
  }

  void release(Chunk* chunk) {
    chunk->clear();
    chunk->next = free_;
    free_ = chunk;
  }

  std::array<Slot, kSlots> slots_{};
  Chunk* free_ = nullptr;
  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::map<std::int64_t, std::vector<T>> far_;
};

}  // namespace rfd::cluster
