// TickRing: the chunked calendar ring behind the engine's suspicion wheel
// and delivery buckets. Pins push-order draining across chunk boundaries
// and through the far-map spill, pushes into the slot being drained, and
// that recycled chunks bound the ring's memory by what it holds.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/tick_ring.hpp"

namespace rfd::cluster {
namespace {

constexpr std::int64_t kSlots = 8;
using Ring = TickRing<std::uint64_t, kSlots>;

std::vector<std::uint64_t> drain_all(Ring& ring, std::int64_t tick) {
  std::vector<std::uint64_t> out;
  ring.drain(tick, [&out](std::uint64_t v) { out.push_back(v); });
  return out;
}

TEST(TickRing, SlotIsFifoAcrossChunkBoundaries) {
  Ring ring;
  const std::uint64_t count = 3 * Ring::kChunkCapacity + 7;
  for (std::uint64_t v = 0; v < count; ++v) {
    ring.push(0, 3, v);
    ring.push(0, 4, 1000000 + v);  // interleaved neighbour slot
  }
  EXPECT_EQ(ring.chunks_allocated(), 8u);  // 4 chunks per slot
  EXPECT_TRUE(ring.empty_at(2));
  EXPECT_FALSE(ring.empty_at(3));
  const std::vector<std::uint64_t> got = drain_all(ring, 3);
  ASSERT_EQ(got.size(), count);
  for (std::uint64_t v = 0; v < count; ++v) EXPECT_EQ(got[v], v);
  EXPECT_TRUE(ring.empty_at(3));
  EXPECT_EQ(ring.earliest_after(3), 4);
  EXPECT_EQ(drain_all(ring, 4).front(), 1000000u);
  EXPECT_EQ(ring.earliest_after(4),
            std::numeric_limits<std::int64_t>::max());
}

TEST(TickRing, FarTicksSpillAndDrainAfterRingEntries) {
  Ring ring;
  // From base 0, tick 8 is a full revolution ahead: it spills. Once the
  // base has advanced, later pushes to the same tick land in the ring;
  // the drain yields ring entries first, then the spill, each in push
  // order.
  ring.push(0, 8, 1);
  ring.push(0, 20, 9);
  ring.push(0, 8, 2);
  EXPECT_FALSE(ring.empty_at(8));
  EXPECT_TRUE(ring.empty_at(0));  // same slot as 8, but tick 0 is empty
  EXPECT_EQ(ring.earliest_after(0), 8);
  ring.push(1, 8, 3);
  ring.push(5, 8, 4);
  EXPECT_EQ(drain_all(ring, 8), (std::vector<std::uint64_t>{3, 4, 1, 2}));
  EXPECT_EQ(ring.earliest_after(8), 20);
  EXPECT_EQ(drain_all(ring, 20), (std::vector<std::uint64_t>{9}));
}

TEST(TickRing, PushIntoTheSlotBeingDrained) {
  Ring ring;
  for (std::uint64_t v = 0; v < Ring::kChunkCapacity + 1; ++v) {
    ring.push(2, 2, v);
  }
  // While tick 2 drains the earliest undrained tick is 3, so tick
  // 2 + kSlots is in range and maps onto the detached slot.
  std::vector<std::uint64_t> seen;
  ring.drain(2, [&](std::uint64_t v) {
    seen.push_back(v);
    ring.push(3, 2 + kSlots, v + 100);
  });
  EXPECT_EQ(seen.size(), Ring::kChunkCapacity + 1);
  EXPECT_FALSE(ring.empty_at(2 + kSlots));
  const std::vector<std::uint64_t> next = drain_all(ring, 2 + kSlots);
  ASSERT_EQ(next.size(), seen.size());
  for (std::size_t i = 0; i < next.size(); ++i) {
    EXPECT_EQ(next[i], seen[i] + 100);
  }
}

TEST(TickRing, FreeListBoundsChunksByLiveEntries) {
  Ring ring;
  // Steady workload over 12 revolutions: every tick pushes a varying
  // batch a few ticks ahead, then drains itself.
  const std::uint64_t cap = Ring::kChunkCapacity;
  std::size_t live = 0;
  std::size_t peak_live = 0;
  std::vector<std::size_t> pending(1024, 0);
  for (std::int64_t tick = 0; tick < 12 * kSlots; ++tick) {
    const std::size_t batch = (tick % 3 + 1) * cap / 2;
    const std::int64_t due = tick + 1 + tick % 5;
    for (std::size_t i = 0; i < batch; ++i) {
      ring.push(tick, due, static_cast<std::uint64_t>(i));
    }
    pending[static_cast<std::size_t>(due)] += batch;
    live += batch;
    peak_live = std::max(peak_live, live);
    std::size_t drained = 0;
    ring.drain(tick, [&drained](std::uint64_t) { ++drained; });
    EXPECT_EQ(drained, pending[static_cast<std::size_t>(tick)]);
    live -= drained;
  }
  // Beyond the live entries, at most one partly filled chunk per
  // occupied slot (the current tick and up to 5 ahead).
  EXPECT_LE(ring.chunks_allocated(), peak_live / cap + 6);
  EXPECT_GE(ring.chunks_allocated(), peak_live / cap);
}

TEST(TickRing, OwnsNonTrivialValues) {
  // Entries still queued when the ring dies are destroyed with it; the
  // sanitizer build turns a missed destructor into a leak report.
  TickRing<std::unique_ptr<int>, kSlots> ring;
  ring.push(0, 1, std::make_unique<int>(1));
  ring.push(0, 2, std::make_unique<int>(2));
  ring.push(0, 100, std::make_unique<int>(3));
  int sum = 0;
  ring.drain(1, [&sum](std::unique_ptr<int>& p) { sum += *p; });
  EXPECT_EQ(sum, 1);
}

}  // namespace
}  // namespace rfd::cluster
