// ClusterNode state-representation tests: the fixed hot-queue ring
// against a std::deque reference FIFO, gossip target sampling from the
// excluded-id cache against an explicit alive list, and node checkpoint
// round trips covering the shared known_since / last-heartbeat stamp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/node.hpp"
#include "cluster/topology.hpp"
#include "common/rng.hpp"

namespace rfd::cluster {
namespace {

NodeParams fixed_params() {
  NodeParams params;
  params.detector.kind = rt::DetectorKind::kFixed;
  params.detector.fixed.timeout_ms = 400.0;
  params.bootstrap_grace_ms = 1000.0;
  params.hot_transmissions = 3;
  return params;
}

/// Reference model of select_digest: the hot queue as a std::deque with
/// the same dedup-by-budget rule, plus the rotation cursor.
struct ReferenceDigest {
  ReferenceDigest(NodeId id, int max_nodes, int transmissions)
      : id(id), max_nodes(max_nodes), transmissions(transmissions),
        budget(static_cast<std::size_t>(max_nodes), 0),
        known(static_cast<std::size_t>(max_nodes), false),
        cursor(static_cast<int>(id) % max_nodes) {}

  void advance(NodeId p) {
    known[static_cast<std::size_t>(p)] = true;
    int& b = budget[static_cast<std::size_t>(p)];
    if (b <= 0) queue.push_back(p);
    b = transmissions;
  }

  template <typename Filter>
  void select(int limit, Filter&& keep, std::vector<NodeId>& out) {
    if (std::none_of(known.begin(), known.end(), [](bool k) { return k; })) {
      return;
    }
    int appended = 0;
    std::deque<NodeId> survivors;
    while (!queue.empty() && appended < limit) {
      const NodeId candidate = queue.front();
      queue.pop_front();
      int& b = budget[static_cast<std::size_t>(candidate)];
      if (keep(candidate)) {
        out.push_back(candidate);
        ++appended;
        if (--b <= 0) continue;
      }
      survivors.push_back(candidate);
    }
    queue.insert(queue.begin(), survivors.begin(), survivors.end());
    for (int scanned = 0; scanned < max_nodes && appended < limit;
         ++scanned) {
      if (++cursor >= max_nodes) cursor = 0;
      const NodeId candidate = static_cast<NodeId>(cursor);
      if (candidate == id || !known[static_cast<std::size_t>(candidate)]) {
        continue;
      }
      if (!keep(candidate)) continue;
      out.push_back(candidate);
      ++appended;
    }
  }

  NodeId id;
  int max_nodes;
  int transmissions;
  std::vector<int> budget;
  std::vector<bool> known;
  int cursor;
  std::deque<NodeId> queue;
};

TEST(HotQueueRing, MatchesDequeReferenceAcrossWraparound) {
  constexpr int kMaxNodes = 24;
  constexpr NodeId kSelf = 5;
  const NodeParams params = fixed_params();
  auto node = std::make_unique<ClusterNode>(kSelf, kMaxNodes, params);
  ReferenceDigest ref(kSelf, kMaxNodes, params.hot_transmissions);
  std::vector<std::int64_t> counter(kMaxNodes, 0);
  Rng rng(20261020);
  std::int64_t drained = 0;
  double now = 0.0;
  for (int step = 0; step < 20'000; ++step) {
    now += 1.0;
    if (rng.chance(0.55)) {
      // Advance a random peer: every fresh counter (first or later)
      // queues the id unless it is queued already.
      const NodeId p = static_cast<NodeId>(rng.below(kMaxNodes));
      if (p == kSelf) continue;
      node->observe(p, ++counter[static_cast<std::size_t>(p)], now);
      ref.advance(p);
    } else {
      // A filter that rejects a rotating subset, so filtered hot entries
      // stay queued while later ones drain past them.
      const std::int64_t salt = rng.below(5);
      auto keep = [salt](NodeId j) { return (j + salt) % 5 != 0; };
      const int limit = 1 + static_cast<int>(rng.below(6));
      std::vector<NodeId> got;
      std::vector<NodeId> want;
      const std::size_t before = ref.queue.size();
      node->select_digest(limit, keep, got);
      ref.select(limit, keep, want);
      drained += static_cast<std::int64_t>(before) -
                 static_cast<std::int64_t>(ref.queue.size());
      ASSERT_EQ(got, want) << "step " << step;
    }
    ASSERT_EQ(node->hot_queue_depth(), ref.queue.size()) << "step " << step;
    if (step % 997 == 0) {
      // The saved live region restores to the same FIFO, whatever ring
      // slot the head had reached.
      std::vector<std::uint8_t> bytes;
      node->save_state(bytes);
      auto restored = std::make_unique<ClusterNode>(kSelf, kMaxNodes, params);
      std::size_t consumed = 0;
      ASSERT_TRUE(restored->restore_state(bytes.data(), bytes.size(),
                                          consumed));
      ASSERT_EQ(consumed, bytes.size());
      node = std::move(restored);
    }
  }
  // Many more entries drained than the ring has slots: the head wrapped.
  EXPECT_GT(drained, 20 * kMaxNodes);
}

/// The gossip target rule over explicit lists, as the alive-list cache
/// computed it: sample `fanout` alive ids by partial Fisher-Yates on a
/// copy (doubtful ids when none is alive), then maybe one doubtful id.
std::vector<NodeId> reference_targets(const ClusterNode& node,
                                      const TopologyParams& params, Rng& rng) {
  std::vector<NodeId> alive;
  std::vector<NodeId> doubtful;
  for (NodeId j = 0; j < node.max_nodes(); ++j) {
    if (j == node.id() || !node.knows(j)) continue;
    (node.believes_alive(j) ? alive : doubtful).push_back(j);
  }
  const bool doubt_available = !alive.empty() && !doubtful.empty();
  std::vector<NodeId> pool = alive.empty() ? doubtful : alive;
  std::vector<NodeId> out;
  const std::int64_t count = static_cast<std::int64_t>(pool.size());
  if (count <= params.gossip_fanout) {
    out = pool;
  } else {
    for (int i = 0; i < params.gossip_fanout; ++i) {
      const std::int64_t j = i + rng.below(count - i);
      std::swap(pool[static_cast<std::size_t>(i)],
                pool[static_cast<std::size_t>(j)]);
      out.push_back(pool[static_cast<std::size_t>(i)]);
    }
  }
  if (doubt_available && rng.chance(params.gossip_resurrect_prob)) {
    out.push_back(doubtful[static_cast<std::size_t>(
        rng.below(static_cast<std::int64_t>(doubtful.size())))]);
  }
  return out;
}

TEST(GossipTargets, KthAliveSamplingMatchesExplicitAliveList) {
  // max_nodes > n: ids 30..39 start unknown and are learned along the
  // way, so the excluded list holds unknown ids as well as suspects.
  constexpr int kMaxNodes = 40;
  constexpr int kN = 30;
  TopologyParams params;
  params.kind = TopologyKind::kGossip;
  params.gossip_fanout = 3;
  params.gossip_resurrect_prob = 0.5;
  const std::unique_ptr<Topology> topology = make_topology(params, kMaxNodes);
  ClusterNode node(7, kMaxNodes, fixed_params());
  for (NodeId j = 0; j < kN; ++j) node.learn_peer(j, 0.0);
  Rng rng(99);
  Rng drive(1234);
  int all_suspected_rounds = 0;
  int few_alive_rounds = 0;
  for (int round = 0; round < 4000; ++round) {
    const std::int64_t op = drive.below(10);
    if (op < 4) {
      const NodeId j = static_cast<NodeId>(drive.below(kMaxNodes));
      if (j != node.id() && node.knows(j)) {
        node.set_suspected(j, !node.is_suspected(j));
      }
    } else if (op == 4) {
      node.learn_peer(static_cast<NodeId>(drive.below(kMaxNodes)), 1.0);
    } else if (op == 5 && drive.chance(0.2)) {
      // Swing to the extremes: everyone suspected, or nearly everyone.
      const bool all = drive.chance(0.5);
      for (NodeId j = 0; j < kMaxNodes; ++j) {
        if (j != node.id() && node.knows(j)) node.set_suspected(j, true);
      }
      if (!all) node.set_suspected(static_cast<NodeId>(drive.below(kN)),
                                   false);
    }
    std::int64_t alive = 0;
    for (NodeId j = 0; j < kMaxNodes; ++j) {
      if (j != node.id() && node.knows(j) && node.believes_alive(j)) ++alive;
    }
    if (alive == 0) ++all_suspected_rounds;
    if (alive > 0 && alive <= params.gossip_fanout) ++few_alive_rounds;

    Rng expected_rng = rng;
    const std::vector<NodeId> want =
        reference_targets(node, params, expected_rng);
    std::vector<NodeId> got;
    topology->targets(node, rng, got);
    ASSERT_EQ(got, want) << "round " << round;
    ASSERT_EQ(rng(), expected_rng()) << "round " << round;
  }
  EXPECT_GT(all_suspected_rounds, 0);
  EXPECT_GT(few_alive_rounds, 0);
}

/// Verdicts and deadlines of every peer at a few probe times.
std::vector<double> probe(const ClusterNode& node) {
  std::vector<double> out;
  for (NodeId j = 0; j < node.max_nodes(); ++j) {
    out.push_back(node.suspect_deadline(j));
    out.push_back(node.is_suspected(j) ? 1.0 : 0.0);
    out.push_back(node.knows(j) ? 1.0 : 0.0);
    out.push_back(static_cast<double>(node.counter(j)));
    for (const double t : {900.0, 1250.0, 1400.0, 2600.0, 5000.0}) {
      out.push_back(node.suspects(j, t) ? 1.0 : 0.0);
    }
  }
  return out;
}

void round_trip_mid_grace(const NodeParams& params) {
  ClusterNode node(0, 6, params);
  node.learn_peer(1, 0.0);
  node.learn_peer(2, 0.0);
  node.observe(2, 5, 100.0);  // first counter: membership, not heard
  node.observe(2, 6, 800.0);  // heard: the stamp now holds 800
  node.observe(2, 7, 900.0);
  node.observe(3, 0, 300.0);  // known but unheard: grace until 1300
  node.observe(4, 9, 350.0);  // known through a counter, still unheard
  node.set_suspected(1, true);  // grace expired at 1000
  node.set_eval_tick(3, 12);
  ASSERT_TRUE(node.suspects(1, 1100.0));
  ASSERT_FALSE(node.suspects(3, 1250.0));  // mid-grace
  ASSERT_TRUE(node.suspects(3, 1400.0));

  std::vector<std::uint8_t> bytes;
  node.save_state(bytes);
  ClusterNode restored(0, 6, params);
  std::size_t consumed = 0;
  ASSERT_TRUE(restored.restore_state(bytes.data(), bytes.size(), consumed));
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(probe(restored), probe(node));
  EXPECT_TRUE(restored.is_suspected(1));
  EXPECT_EQ(restored.eval_tick(3), 12);
  EXPECT_TRUE(restored.armed(3));
  EXPECT_EQ(restored.hot_queue_depth(), node.hot_queue_depth());
  std::vector<std::uint8_t> again;
  restored.save_state(again);
  EXPECT_EQ(again, bytes);

  // Both continue identically: the unheard peer's first advance starts
  // its detector in both, and digests agree.
  for (ClusterNode* n : {&node, &restored}) {
    EXPECT_FALSE(n->observe(3, 1, 1200.0).newly_known);
    EXPECT_TRUE(n->observe(3, 2, 1250.0).started_detector);
  }
  EXPECT_EQ(probe(restored), probe(node));
  std::vector<NodeId> a;
  std::vector<NodeId> b;
  auto keep = [](NodeId) { return true; };
  node.select_digest(4, keep, a);
  restored.select_digest(4, keep, b);
  EXPECT_EQ(a, b);

  // A hot queue that names one id twice would overflow the fixed ring;
  // restore refuses it (the queue's ids are the payload's last bytes).
  std::vector<std::uint8_t> dup;
  node.save_state(dup);
  ASSERT_GE(node.hot_queue_depth(), 2u);
  std::copy(dup.end() - 8, dup.end() - 4, dup.end() - 4);
  ClusterNode rejected(0, 6, params);
  EXPECT_FALSE(rejected.restore_state(dup.data(), dup.size(), consumed));
}

TEST(NodeCheckpoint, RoundTripsUnheardPeerMidGraceFixed) {
  round_trip_mid_grace(fixed_params());
}

TEST(NodeCheckpoint, RoundTripsUnheardPeerMidGraceAdaptive) {
  NodeParams params = fixed_params();
  params.detector.kind = rt::DetectorKind::kPhi;
  round_trip_mid_grace(params);
}

}  // namespace
}  // namespace rfd::cluster
