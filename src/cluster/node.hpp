// One node of the cluster monitoring engine.
//
// The cluster layer disseminates *freshness*, not raw heartbeats: every
// node keeps a monotonically increasing heartbeat counter, bumps it once
// per heartbeat interval, and ships (id, counter) entries to peers chosen
// by the dissemination topology. A receiver treats any counter advance for
// peer j - whether it arrived directly from j or piggybacked through
// intermediaries - as a heartbeat for its per-peer detector (van Renesse's
// gossip-style failure detection, composed with the FixedTimeout /
// ChenAdaptive / PhiAccrual detectors of src/runtime).
//
// This unifies all four topologies behind one mechanism:
//   - direct heartbeats (all-to-all) advance only the sender's entry;
//   - ring / gossip / hierarchical messages piggyback bounded digests of
//     other counters, so liveness information spreads transitively;
//   - false suspicions self-heal: a fresh counter is its own refutation,
//     so no SWIM-style incarnation machinery is needed - exactly what
//     makes partition/heal scenarios converge.
//
// Layout is dictated by the two hot loops - the engine's receive loop
// (one observe() per digest entry, tens of millions per run at n=1024)
// and the topologies' per-round scans (target selection, digest
// rotation). Per-peer state is struct-of-arrays, 18 bytes per
// (observer, peer) pair under kFixed:
//   - counters_ (4 bytes/peer): the freshest heartbeat counter. A seen
//     counter > 0 implies the peer is known, so a stale entry - the
//     majority - is decided by this one load in a 4KB-per-node array
//     that stays cache-resident, touching nothing else;
//   - meta_ (one 2-byte PeerMeta per peer): the known / suspected /
//     fresh / armed / heard flag bits and the remaining piggyback
//     budget. The scan loops, membership queries and digest
//     keep()-filters read only this array, so they stride 2 bytes;
//   - stamp_ (8 bytes/peer): one timestamp whose meaning the heard bit
//     selects. Until the first counter advance it is known_since, the
//     start of the bootstrap grace window; from then on it is the last
//     heartbeat, the inlined fixed-timeout detector's entire state.
//     Grace only covers unheard peers, so the two are never live at
//     once. The kFixed detector - the cluster default and the only
//     per-(observer, victim)-pair allocation at scale - thus needs no
//     heap object and no virtual dispatch;
//   - eval_tick_ (4 bytes/peer): the engine's suspicion-wheel tick (the
//     engine bounds its check grid to 32 bits);
//   - detectors_ (8 bytes/peer, kChen / kPhi only; empty under kFixed):
//     the adaptive heap detector instances.
// When a suspicion started is not node state: the engine keeps it for
// the pairs whose victim is really down, the only ones its report
// reads (see engine.cpp).
// The hot-path queries and observe() are defined inline here so the
// receive loop and the topology scans compile into flat array walks.
// Detector state is created lazily on the first counter advance (a node
// that has never been heard from is covered by the bootstrap grace
// window instead).
//
// Heartbeat counters are stored as 32 bits (advance_own_counter guards
// the bound): one counter per heartbeat interval means 2^31 intervals
// outlast any simulation by orders of magnitude, and the narrower word
// halves the hot array and the digest payload traffic.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/assert.hpp"
#include "runtime/detectors.hpp"
#include "runtime/network.hpp"

namespace rfd::cluster {

using rt::NodeId;

/// Dense per-peer flag and budget slot; see the file header.
struct PeerMeta {
  std::uint8_t flags = 0;         // kKnown / kSuspected / kFresh / kArmed /
                                  // kHeard
  std::int8_t hot_remaining = 0;  // piggyback budget (> 0 <=> queued)
};
static_assert(sizeof(PeerMeta) == 2, "PeerMeta must stay two bytes");

/// What one digest entry did to the receiver's state; lets the engine do
/// its wheel bookkeeping without re-querying the record.
struct ObserveResult {
  bool advanced = false;         // counter advanced: heartbeat evidence
  bool newly_known = false;      // first mention of this peer
  bool started_detector = false; // this advance began heartbeat tracking
};

struct NodeParams {
  rt::DetectorParams detector;
  /// Silence tolerated for a peer that is known (from the membership seed
  /// list or a digest mention) but has never produced a counter advance.
  double bootstrap_grace_ms = 1500.0;
  /// How many times a counter advance is piggybacked before the id falls
  /// out of the hot queue (SWIM's bounded rumor retransmission).
  int hot_transmissions = 4;
};

class ClusterNode {
 public:
  ClusterNode(NodeId id, int max_nodes, NodeParams params);

  NodeId id() const { return id_; }
  int max_nodes() const { return max_nodes_; }

  bool active() const { return active_; }
  void set_active(bool active) { active_ = active; }

  std::int64_t own_counter() const { return own_counter_; }
  void advance_own_counter() {
    // Counters are stored and shipped as 32 bits (see file header).
    RFD_REQUIRE_MSG(own_counter_ < std::numeric_limits<std::int32_t>::max(),
                    "heartbeat counter exceeds 32-bit digest range");
    ++own_counter_;
  }

  /// Marks `peer` as a known member; returns true if it was new
  /// (no-op and false for self / out-of-range / already known).
  bool learn_peer(NodeId peer, double now) {
    if (peer == id_ || peer < 0 || peer >= max_nodes_) return false;
    const std::size_t p = static_cast<std::size_t>(peer);
    if ((meta_[p].flags & kKnownFlag) != 0) return false;
    meta_[p].flags |= kKnownFlag;
    stamp_[p] = now;  // known_since: an unknown peer is never heard
    ++known_count_;
    ++membership_version_;
    return true;
  }

  /// Processes one digest entry (peer, counter) received at `now`; feeds
  /// the peer's detector if the counter advanced.
  ObserveResult observe(NodeId peer, std::int64_t counter, double now) {
    ObserveResult result;
    if (peer == id_ || peer < 0 || peer >= max_nodes_) return result;
    const std::size_t p = static_cast<std::size_t>(peer);
    const std::int32_t seen = counters_[p];
    if (seen > 0) {
      // A seen counter implies the peer is already known, so a stale
      // entry - the receive loop's majority - is decided right here by
      // the one counters_ load. (A zero or stale counter carries no
      // liveness evidence; see below for zero's membership role.)
      if (counter <= seen) return result;
      counters_[p] = static_cast<std::int32_t>(counter);
      PeerMeta& m = meta_[p];
      result.started_detector = (m.flags & kHeardFlag) == 0;
      m.flags |= kFreshFlag | kHeardFlag;
      stamp_[p] = now;  // last heartbeat from here on
      if (fixed_timeout_ms_ <= 0.0) {
        std::unique_ptr<rt::PeerDetector>& detector = detectors_[p];
        if (result.started_detector) {
          detector = rt::make_detector(params_.detector);
        }
        detector->on_heartbeat(now);
      }
      enqueue_hot(m, p);
      result.advanced = true;
      return result;
    }
    // Cold branch: no counter on file yet. A zero counter carries
    // membership information (handled by learn_peer) but no liveness
    // evidence.
    result.newly_known = learn_peer(peer, now);
    if (counter <= 0) return result;
    // First-ever counter for this peer: it proves membership, not
    // liveness - a gossiped value can be arbitrarily stale (e.g. the
    // final counter of a long-dead node still circulating in digests,
    // arriving at a freshly reset or joined observer). Record it as the
    // high-water mark and keep forwarding it (dissemination is how the
    // cluster bootstraps), but do not feed the detector: only an
    // advance beyond this mark is heartbeat evidence. A live peer
    // advances within one interval, so trust costs one round of
    // warm-up; a dead one never advances and falls to the bootstrap
    // grace window.
    counters_[p] = static_cast<std::int32_t>(counter);
    PeerMeta& m = meta_[p];
    m.flags |= kFreshFlag;
    enqueue_hot(m, p);
    return result;
  }

  /// Current suspicion verdict for `peer` (self is never suspected,
  /// unknown peers are never suspected).
  bool suspects(NodeId peer, double now) const {
    if (peer == id_ || peer < 0 || peer >= max_nodes_) return false;
    const std::size_t p = static_cast<std::size_t>(peer);
    const std::uint8_t flags = meta_[p].flags;
    if ((flags & kKnownFlag) == 0) return false;
    if ((flags & kHeardFlag) == 0) {
      // Known but never heard: allow the bootstrap grace window, measured
      // from when this node learned the peer exists.
      return now - stamp_[p] > params_.bootstrap_grace_ms;
    }
    if (fixed_timeout_ms_ > 0.0) return now - stamp_[p] > fixed_timeout_ms_;
    return detectors_[p]->suspects(now);
  }

  /// Expiry deadline for `peer`: absent further counter advances,
  /// suspects(peer, t) holds exactly for t > deadline. +infinity for
  /// self/unknown peers (never suspected). Grace-covered peers expire at
  /// known_since + bootstrap_grace; heard peers defer to their detector.
  double suspect_deadline(NodeId peer) const {
    if (peer == id_ || peer < 0 || peer >= max_nodes_) {
      return std::numeric_limits<double>::infinity();
    }
    const std::size_t p = static_cast<std::size_t>(peer);
    const std::uint8_t flags = meta_[p].flags;
    if ((flags & kKnownFlag) == 0) {
      return std::numeric_limits<double>::infinity();
    }
    if ((flags & kHeardFlag) == 0) {
      return stamp_[p] + params_.bootstrap_grace_ms;
    }
    if (fixed_timeout_ms_ > 0.0) return stamp_[p] + fixed_timeout_ms_;
    return detectors_[p]->suspect_deadline();
  }

  /// Whether the detector's expiry deadline can only move forward on a
  /// heartbeat. True for the inlined fixed-timeout detector; adaptive
  /// windows (kChen / kPhi) can tighten, so theirs can move backward.
  /// The engine uses this to skip re-arming already-armed pairs.
  bool deadline_monotone() const { return fixed_timeout_ms_ > 0.0; }

  /// Updates the cached suspicion verdict (set by the engine's and the
  /// soak runner's evaluation only).
  void set_suspected(NodeId peer, bool suspected) {
    PeerMeta& m = meta_[static_cast<std::size_t>(peer)];
    const std::uint8_t before = m.flags;
    if (suspected) {
      m.flags = before | kSuspectedFlag;
    } else {
      m.flags = before & static_cast<std::uint8_t>(~kSuspectedFlag);
    }
    if (m.flags != before) ++membership_version_;
  }

  /// Check-tick index at which the engine's suspicion wheel will next
  /// evaluate this pair (-1 = unarmed). Owned by the engine; lives here
  /// (dense, with the >= 0 state mirrored as the armed flag bit) so the
  /// wheel needs no side table of its own and the receive loop's skip
  /// test stays on the flags byte it already holds. See engine.cpp.
  std::int32_t eval_tick(NodeId peer) const {
    return eval_tick_[static_cast<std::size_t>(peer)];
  }
  void set_eval_tick(NodeId peer, std::int32_t tick) {
    const std::size_t p = static_cast<std::size_t>(peer);
    eval_tick_[p] = tick;
    if (tick >= 0) {
      meta_[p].flags |= kArmedFlag;
    } else {
      meta_[p].flags &= static_cast<std::uint8_t>(~kArmedFlag);
    }
  }

  bool knows(NodeId peer) const {
    if (peer < 0 || peer >= max_nodes_) return false;
    if (peer == id_) return true;
    return (meta_[static_cast<std::size_t>(peer)].flags & kKnownFlag) != 0;
  }

  /// Cached verdict from the engine's last evaluation of this pair.
  bool is_suspected(NodeId peer) const {
    return (meta_[static_cast<std::size_t>(peer)].flags & kSuspectedFlag) !=
           0;
  }

  bool armed(NodeId peer) const {
    return (meta_[static_cast<std::size_t>(peer)].flags & kArmedFlag) != 0;
  }

  /// known && !suspected-by-cached-state; self counts as alive. Used by
  /// topologies for target selection (don't waste fanout on the dead).
  bool believes_alive(NodeId peer) const {
    if (peer == id_) return true;
    if (peer < 0 || peer >= max_nodes_) return false;
    return (meta_[static_cast<std::size_t>(peer)].flags &
            (kKnownFlag | kSuspectedFlag)) == kKnownFlag;
  }

  /// Whether a non-zero counter has been seen for `peer` (worth
  /// forwarding in digests; zero counters carry no liveness evidence).
  bool has_freshness(NodeId peer) const {
    if (peer < 0 || peer >= max_nodes_) return false;
    return (meta_[static_cast<std::size_t>(peer)].flags & kFreshFlag) != 0;
  }

  /// Freshest heartbeat counter seen for `peer`.
  std::int32_t counter(NodeId peer) const {
    return counters_[static_cast<std::size_t>(peer)];
  }

  /// Bumped whenever the (known, suspected) membership view changes;
  /// topologies key their per-node target caches on it.
  std::int64_t membership_version() const { return membership_version_; }

  /// Hints the prefetcher at `peer`'s hot slots; the engine issues this a
  /// few digest entries ahead of observe() so the (random-index) slots
  /// are in cache when the entry is processed. Semantically a no-op.
  void prefetch_peer(NodeId peer) const {
    if (peer >= 0 && peer < max_nodes_) {
      const std::size_t p = static_cast<std::size_t>(peer);
      __builtin_prefetch(&counters_[p], 1, 1);
      __builtin_prefetch(&meta_[p], 1, 1);
      __builtin_prefetch(&stamp_[p], 1, 1);
    }
  }

  /// Appends up to `budget` known peer ids (never self) to `out`.
  /// Recently advanced peers go first - forwarding fresh counters is what
  /// makes dissemination epidemic (SWIM piggybacks rumors the same way);
  /// each advance rides along at most `hot_transmissions` times. Leftover
  /// budget is filled from a rotating cursor over the whole membership,
  /// which keeps even quiet or stale entries circulating. `keep` filters
  /// candidates; filtered-out hot entries stay queued undecremented.
  template <typename Filter>
  void select_digest(int budget, Filter&& keep, std::vector<NodeId>& out) {
    if (budget <= 0 || known_count_ == 0) return;
    int appended = 0;
    // Hot pass: drain queued advances front to back. Entries that must
    // stay queued (kept with leftover budget, or filtered out by `keep`)
    // are compacted toward the head as the scan goes, then slid up
    // against the unscanned tail, which they precede - so a send costs
    // O(entries scanned), not O(queue length), and the queue keeps its
    // FIFO order.
    std::size_t read = 0;
    std::size_t kept = 0;
    for (; read < hot_size_ && appended < budget; ++read) {
      const NodeId candidate = hot_ring_[ring_index(read)];
      PeerMeta& m = meta_[static_cast<std::size_t>(candidate)];
      if (keep(candidate)) {
        out.push_back(candidate);
        ++appended;
        --m.hot_remaining;
        if (m.hot_remaining <= 0) continue;  // drained: drop from queue
      }
      hot_ring_[ring_index(kept++)] = candidate;
    }
    if (kept < read) {
      // Copy from the last survivor down: the destination starts
      // `read - kept` slots higher, past every source not yet copied.
      for (std::size_t t = kept; t-- > 0;) {
        hot_ring_[ring_index(read - kept + t)] = hot_ring_[ring_index(t)];
      }
      hot_head_ = ring_index(read - kept);
      hot_size_ -= read - kept;
    }
    // Rotation pass over the dense meta array (an id just taken from
    // the hot queue may repeat; the receiver treats the duplicate as a
    // no-op).
    for (int scanned = 0; scanned < max_nodes_ && appended < budget;
         ++scanned) {
      if (++digest_cursor_ >= max_nodes_) digest_cursor_ = 0;
      const NodeId candidate = static_cast<NodeId>(digest_cursor_);
      if (candidate == id_) continue;
      if ((meta_[static_cast<std::size_t>(candidate)].flags & kKnownFlag) ==
          0) {
        continue;
      }
      if (!keep(candidate)) continue;
      out.push_back(candidate);
      ++appended;
    }
  }

  /// Forgets all peer state (process restart loses its memory); re-seeds
  /// membership from `contacts`. The own counter survives because it is
  /// engine-side simulation state standing in for a persisted epoch.
  void reset_peers(double now, const std::vector<NodeId>& contacts);

  /// Checkpoint hooks: append this node's complete mutable state (own
  /// counter, per-peer counters/flags/timestamps, detector instances,
  /// hot-queue content) to `out` / restore it from a byte span. restore
  /// assumes a freshly constructed node with the same (id, max_nodes,
  /// params) - the checkpoint wrapper pins that with a config
  /// fingerprint - and returns false on a truncated or inconsistent
  /// payload, leaving the node unfit for use. A restored node continues
  /// exactly where the saved one stopped: same digests, same suspicion
  /// verdicts, same detector windows.
  void save_state(std::vector<std::uint8_t>& out) const;
  bool restore_state(const std::uint8_t* data, std::size_t size,
                     std::size_t& consumed);

  int known_count() const { return known_count_; }
  /// Current hot-queue occupancy (ids with undrained piggyback budget);
  /// snapshotted by the observability layer as a dissemination-backlog
  /// gauge.
  std::size_t hot_queue_depth() const { return hot_size_; }

 private:
  static constexpr std::uint8_t kKnownFlag = 1;
  static constexpr std::uint8_t kSuspectedFlag = 2;
  static constexpr std::uint8_t kFreshFlag = 4;
  static constexpr std::uint8_t kArmedFlag = 8;
  /// A counter advance has been observed: stamp_ holds the last
  /// heartbeat (kFixed) and the adaptive detector exists (kChen / kPhi).
  static constexpr std::uint8_t kHeardFlag = 16;

  /// Ring slot of the hot-queue entry `offset` places past the head
  /// (offset <= max_nodes_).
  std::size_t ring_index(std::size_t offset) const {
    const std::size_t slot = hot_head_ + offset;
    return slot >= hot_ring_.size() ? slot - hot_ring_.size() : slot;
  }
  void enqueue_hot(PeerMeta& m, std::size_t p) {
    if (m.hot_remaining <= 0) {
      RFD_REQUIRE(hot_size_ < hot_ring_.size());
      hot_ring_[ring_index(hot_size_)] = static_cast<NodeId>(p);
      ++hot_size_;
    }
    m.hot_remaining = static_cast<std::int8_t>(params_.hot_transmissions);
  }

  NodeId id_;
  int max_nodes_;
  NodeParams params_;
  /// The fixed-timeout fast path: > 0 iff params_.detector.kind ==
  /// kFixed, in which case a heard peer's stamp_ is its whole detector.
  double fixed_timeout_ms_ = -1.0;
  /// Dense per-peer state (see file header).
  std::vector<std::int32_t> counters_;
  std::vector<PeerMeta> meta_;
  std::vector<double> stamp_;
  std::vector<std::int32_t> eval_tick_;
  /// Adaptive (kChen / kPhi) detector per peer, created on the first
  /// evidence-bearing advance. Empty for kFixed.
  std::vector<std::unique_ptr<rt::PeerDetector>> detectors_;
  std::int64_t membership_version_ = 0;
  bool active_ = true;
  std::int64_t own_counter_ = 0;
  int digest_cursor_ = 0;
  int known_count_ = 0;
  /// Ids with recent counter advances, FIFO, in a fixed ring of
  /// max_nodes_ slots holding hot_size_ entries from hot_head_ on.
  /// Deduplicated via PeerMeta::hot_remaining (> 0 <=> queued), so the
  /// ring never overflows.
  std::vector<NodeId> hot_ring_;
  std::size_t hot_head_ = 0;
  std::size_t hot_size_ = 0;
};

}  // namespace rfd::cluster
