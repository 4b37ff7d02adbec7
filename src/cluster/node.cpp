#include "cluster/node.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/bytes.hpp"

namespace rfd::cluster {

ClusterNode::ClusterNode(NodeId id, int max_nodes, NodeParams params)
    : id_(id), max_nodes_(max_nodes), params_(params),
      counters_(static_cast<std::size_t>(max_nodes), 0),
      meta_(static_cast<std::size_t>(max_nodes)),
      stamp_(static_cast<std::size_t>(max_nodes), -1.0),
      eval_tick_(static_cast<std::size_t>(max_nodes), -1),
      digest_cursor_(static_cast<int>(id) % max_nodes),
      hot_ring_(static_cast<std::size_t>(max_nodes)) {
  RFD_REQUIRE(id >= 0 && id < max_nodes);
  RFD_REQUIRE(params_.bootstrap_grace_ms > 0.0);
  // 0 would re-queue a peer on every observe() without any topology ever
  // draining it - unbounded hot-queue growth; the count is stored as one
  // dense byte per peer, hence the upper bound.
  RFD_REQUIRE(params_.hot_transmissions >= 1 &&
              params_.hot_transmissions <= 127);
  if (params_.detector.kind == rt::DetectorKind::kFixed) {
    fixed_timeout_ms_ = params_.detector.fixed.timeout_ms;
    RFD_REQUIRE(fixed_timeout_ms_ > 0.0);
  } else {
    detectors_.resize(static_cast<std::size_t>(max_nodes));
  }
}

void ClusterNode::reset_peers(double now,
                              const std::vector<NodeId>& contacts) {
  std::fill(counters_.begin(), counters_.end(), 0);
  std::fill(meta_.begin(), meta_.end(), PeerMeta{});
  std::fill(stamp_.begin(), stamp_.end(), -1.0);
  std::fill(eval_tick_.begin(), eval_tick_.end(), -1);
  for (std::unique_ptr<rt::PeerDetector>& detector : detectors_) {
    detector.reset();
  }
  hot_head_ = 0;
  hot_size_ = 0;
  known_count_ = 0;
  ++membership_version_;
  for (NodeId contact : contacts) {
    learn_peer(contact, now);
  }
}

void ClusterNode::save_state(std::vector<std::uint8_t>& out) const {
  ByteWriter w(out);
  w.i32(id_);
  w.i32(max_nodes_);
  w.i64(membership_version_);
  w.u8(active_ ? 1 : 0);
  w.i64(own_counter_);
  w.i32(digest_cursor_);
  w.i32(known_count_);
  for (std::int32_t c : counters_) w.i32(c);
  for (std::size_t p = 0; p < meta_.size(); ++p) {
    w.f64(stamp_[p]);
    w.u8(meta_[p].flags);
    w.u8(static_cast<std::uint8_t>(meta_[p].hot_remaining));
  }
  for (std::int32_t t : eval_tick_) w.i32(t);
  // Adaptive nodes: one detector state per heard peer, in id order (the
  // heard flag says which peers have one).
  std::vector<double> detector_state;
  for (std::size_t p = 0; p < detectors_.size(); ++p) {
    if ((meta_[p].flags & kHeardFlag) == 0) continue;
    detector_state.clear();
    detectors_[p]->save_state(detector_state);
    w.u32(static_cast<std::uint32_t>(detector_state.size()));
    for (double x : detector_state) w.f64(x);
  }
  // The hot queue's live entries, oldest first.
  w.u32(static_cast<std::uint32_t>(hot_size_));
  for (std::size_t i = 0; i < hot_size_; ++i) w.i32(hot_ring_[ring_index(i)]);
}

bool ClusterNode::restore_state(const std::uint8_t* data, std::size_t size,
                                std::size_t& consumed) {
  ByteReader r(data, size);
  const std::int32_t id = r.i32();
  const std::int32_t max_nodes = r.i32();
  if (!r.ok() || id != id_ || max_nodes != max_nodes_) return false;
  membership_version_ = r.i64();
  active_ = r.u8() != 0;
  own_counter_ = r.i64();
  digest_cursor_ = r.i32();
  known_count_ = r.i32();
  for (std::int32_t& c : counters_) c = r.i32();
  for (std::size_t p = 0; p < meta_.size(); ++p) {
    stamp_[p] = r.f64();
    meta_[p].flags = r.u8();
    meta_[p].hot_remaining = static_cast<std::int8_t>(r.u8());
  }
  for (std::int32_t& t : eval_tick_) {
    t = r.i32();
    if (t < -1) return false;
  }
  std::vector<double> detector_state;
  for (std::size_t p = 0; p < detectors_.size(); ++p) {
    if ((meta_[p].flags & kHeardFlag) == 0) {
      detectors_[p].reset();
      continue;
    }
    const std::uint32_t count = r.u32();
    if (!r.ok() || count > (1u << 20)) return false;
    detector_state.resize(count);
    for (double& x : detector_state) x = r.f64();
    if (!r.ok()) return false;
    std::unique_ptr<rt::PeerDetector>& detector = detectors_[p];
    detector = rt::make_detector(params_.detector);
    const double* cursor = detector_state.data();
    const double* end = cursor + detector_state.size();
    if (!detector->restore_state(cursor, end) || cursor != end) {
      return false;
    }
  }
  // The ring only stays within its max_nodes_ slots if the queue holds
  // exactly the peers with piggyback budget left, each once.
  const std::uint32_t queued = r.u32();
  if (!r.ok() || queued > static_cast<std::uint32_t>(max_nodes_)) {
    return false;
  }
  std::size_t budgeted = 0;
  for (const PeerMeta& m : meta_) budgeted += m.hot_remaining > 0 ? 1 : 0;
  if (queued != budgeted) return false;
  std::vector<bool> seen(meta_.size(), false);
  hot_head_ = 0;
  hot_size_ = queued;
  for (std::size_t i = 0; i < hot_size_; ++i) {
    const NodeId peer = r.i32();
    if (peer < 0 || peer >= max_nodes_) return false;
    const std::size_t p = static_cast<std::size_t>(peer);
    if (seen[p] || meta_[p].hot_remaining <= 0) return false;
    seen[p] = true;
    hot_ring_[i] = peer;
  }
  if (!r.ok()) return false;
  if (digest_cursor_ < 0 || digest_cursor_ >= max_nodes_ ||
      known_count_ < 0 || known_count_ > max_nodes_) {
    return false;
  }
  consumed = size - r.remaining();
  return true;
}

}  // namespace rfd::cluster
