#include "net/node.hpp"

#include "common/rng.hpp"
#include "obs/obs.hpp"
#include "sim/lane.hpp"

namespace src::net {

bool Port::enqueue(Packet packet) {
  if (drop_filter_ && drop_filter_(packet)) {
    ++dropped_packets_;
    dropped_bytes_ += packet.wire_bytes();
    SRC_OBS_COUNT("net.port.packets_dropped");
    return false;
  }

  // RED-like ECN marking against the instantaneous queue length (DCQCN's
  // marking model), applied to data packets only.
  if (ecn_.enabled && packet.kind == PacketKind::kData) {
    const std::uint64_t depth = queue_bytes_ + packet.wire_bytes();
    if (depth > ecn_.kmax_bytes) {
      packet.ecn_marked = true;
      ++ecn_marks_;
      SRC_OBS_COUNT("net.port.ecn_marks");
    } else if (depth > ecn_.kmin_bytes) {
      const double p = ecn_.pmax * static_cast<double>(depth - ecn_.kmin_bytes) /
                       static_cast<double>(ecn_.kmax_bytes - ecn_.kmin_bytes);
      const double draw = static_cast<double>(common::splitmix64(rng_state_) >> 11) * 0x1.0p-53;
      if (draw < p) {
        packet.ecn_marked = true;
        ++ecn_marks_;
        SRC_OBS_COUNT("net.port.ecn_marks");
      }
    }
  }

  queue_bytes_ += packet.wire_bytes();
  max_queue_bytes_ = std::max(max_queue_bytes_, queue_bytes_);
  queue_.push_back(packet);
  try_transmit();
  return true;
}

void Port::send_control(Packet packet) {
  deliver(packet);
}

void Port::pause() {
  paused_ = true;
}

void Port::resume() {
  if (!paused_) return;
  paused_ = false;
  try_transmit();
}

void Port::try_transmit() {
  if (busy_ || paused_ || queue_.empty()) return;

  in_flight_ = queue_.front();
  queue_.pop_front();
  queue_bytes_ -= in_flight_.wire_bytes();
  busy_ = true;
  if (on_dequeue) on_dequeue(in_flight_);

  // The packet under serialization is parked in `in_flight_` (stable while
  // busy_ is set), so the tx-done closure is 8 bytes instead of a second
  // by-value packet copy; only the delivery event carries the packet. The
  // tx-done event is scheduled here and the delivery event from inside it,
  // exactly as before, so every (when, seq) pair in the event stream is
  // unchanged and the golden metrics stay bit-identical.
  const SimTime tx_time = rate_.transmission_time(in_flight_.wire_bytes());
  // srclint:capture-ok(ports live as long as their network's simulator)
  sim_.schedule_in(tx_time, [this] {
    busy_ = false;
    deliver(in_flight_);  // copies the packet out before the next dequeue
    try_transmit();
    if (on_tx_done) on_tx_done();
  });
}

void Port::deliver(Packet packet) {
  if (peer_ == nullptr) return;
  // Capture order keeps the closure at 60 bytes (pointer + packet + port),
  // inside the scheduler's inline buffer.
  if (lanes_ != nullptr) {
    // Cross-shard link: the delivery lands on the peer's kernel through the
    // lane group's deterministic mailbox merge. delay_ >= lookahead holds by
    // Network::connect construction, so the post is conservative-safe.
    lanes_->post(self_shard_, peer_shard_, sim_.now() + delay_,
                 [peer = peer_, packet, peer_port = peer_port_] {
                   peer->receive(packet, peer_port);
                 });
    return;
  }
  sim_.schedule_in(delay_, [peer = peer_, packet, peer_port = peer_port_] {
    peer->receive(packet, peer_port);
  });
}

}  // namespace src::net
