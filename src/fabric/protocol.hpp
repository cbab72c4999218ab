// NVMe-oF wire protocol model: command capsules, data messages, and the
// shared fabric context used to correlate request metadata across hosts.
//
// Capsules occupy real bytes on the simulated wire; the request metadata
// (LBA, length) rides out-of-band through FabricContext, which is the usual
// simulator shortcut — the simulated bytes already account for the capsule.
//
// Loss semantics: message-id -> request-id bindings are consumed on
// delivery, explicitly cancelled when a request is retried, and expired in
// bulk when a request reaches a terminal state (completed or failed). A
// delivery whose binding is gone — a capsule that lost a race with its own
// retry, or a duplicated response — resolves to kNoBinding and is ignored
// by both ends, which is what makes the retransmit path double-completion
// safe.
//
// Bindings carry a role: retries expire only *command* bindings (the stale
// capsule must not be served twice), while an in-flight *response* stays
// honoured — it answers the same idempotent request, and completing from it
// expires every other binding. Expiring responses on retry instead creates
// a livelock under congestion: when response queueing delay exceeds the
// retry timeout, every served response arrives already-expired, so the
// initiator retries forever while the target serves dead letters. (Found by
// the chaos campaign's liveness checker; see DESIGN.md §12.)
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "common/flat_map.hpp"
#include "common/types.hpp"
#include "net/packet.hpp"

namespace src::fabric {

using common::IoType;
using common::SimTime;
using net::NodeId;

/// Message tags on the fabric (net::Packet::tag).
enum Opcode : std::uint32_t {
  kReadCmd = 1,    ///< initiator -> target: read command capsule
  kWriteCmd = 2,   ///< initiator -> target: write command capsule + data
  kReadData = 3,   ///< target -> initiator: read payload
  kWriteAck = 4,   ///< target -> initiator: write completion capsule
  kErrorComp = 5,  ///< target -> initiator: explicit error completion
};

/// NVMe-oF command capsule size (bytes on the wire).
inline constexpr std::uint32_t kCapsuleBytes = 64;

/// Sentinel returned by FabricContext::take_message_binding when the
/// message has no live binding (lost, cancelled, or already consumed).
inline constexpr std::uint64_t kNoBinding = 0;

/// Direction of a bound message: commands travel initiator -> target and
/// are invalidated by a retry; responses travel target -> initiator and
/// survive retries (see the loss-semantics note above).
enum class MessageRole : std::uint8_t { kCommand, kResponse };

struct RequestInfo {
  std::uint64_t id = 0;
  NodeId initiator = net::kInvalidNode;
  NodeId target = net::kInvalidNode;
  IoType type = IoType::kRead;
  std::uint64_t lba = 0;
  std::uint32_t bytes = 0;
  SimTime issue_time = 0;
};

/// Per-request timeout/retry behaviour of an initiator. Disabled by
/// default: no timers are armed and no simulator events are scheduled, so
/// fault-free runs are bit-identical with or without the retry machinery
/// (scheduling even a never-firing event would shift event sequence
/// numbers and perturb tie-breaking).
struct RetryPolicy {
  bool enabled = false;
  /// Timeout for the first attempt; attempt n waits
  /// min(base_timeout * backoff_factor^n, max_timeout).
  SimTime base_timeout = 5 * common::kMillisecond;
  double backoff_factor = 2.0;
  SimTime max_timeout = 40 * common::kMillisecond;
  /// Retransmissions after the initial attempt; past this the request
  /// fails with an explicit error.
  std::uint32_t max_retries = 4;

  SimTime timeout_for(std::uint32_t attempt) const {
    double t = static_cast<double>(base_timeout);
    for (std::uint32_t i = 0; i < attempt; ++i) t *= backoff_factor;
    const double capped = std::min(t, static_cast<double>(max_timeout));
    return static_cast<SimTime>(capped);
  }

  friend bool operator==(const RetryPolicy&, const RetryPolicy&) = default;
};

/// Shared bookkeeping for one simulated fabric: request-id allocation and
/// the message-id -> request-id correlation map.
class FabricContext {
 public:
  std::uint64_t new_request(RequestInfo info) {
    info.id = ++next_request_id_;
    requests_.emplace(info.id, info);
    return info.id;
  }

  const RequestInfo& request(std::uint64_t id) const { return requests_.at(id); }
  bool has_request(std::uint64_t id) const { return requests_.contains(id); }

  /// Remove a request that reached a terminal state, expiring any bindings
  /// still pointing at it (e.g. a duplicated response from a retried read)
  /// so late deliveries cannot double-complete it.
  void complete_request(std::uint64_t id) {
    requests_.erase(id);
    expire_request_messages(id);
  }

  void bind_message(std::uint64_t message_id, std::uint64_t request_id,
                    MessageRole role = MessageRole::kCommand) {
    if (bindings_.find(message_id) != nullptr) return;  // first binding wins
    std::uint64_t* head = request_messages_.find(request_id);
    bindings_[message_id] =
        Binding{request_id, head != nullptr ? *head : 0, head != nullptr, role};
    request_messages_[request_id] = message_id;
  }

  /// Resolve and consume the binding for a delivered message. Returns
  /// kNoBinding when the message was cancelled/expired (the delivery must
  /// then be ignored).
  std::uint64_t take_message_binding(std::uint64_t message_id) {
    const Binding* bound = bindings_.find(message_id);
    if (bound == nullptr) return kNoBinding;
    const std::uint64_t request_id = bound->request_id;
    unbind(message_id);
    return request_id;
  }

  /// Cancel one in-flight message's binding (retry path: the original
  /// capsule must not be honoured if it straggles in after the resend).
  void cancel_message(std::uint64_t message_id) {
    if (bindings_.find(message_id) != nullptr) unbind(message_id);
  }

  /// Drop every binding that points at `request_id`, regardless of role —
  /// used when a request reaches a terminal state. Without this, any
  /// message lost in the network would leak its map entry forever.
  void expire_request_messages(std::uint64_t request_id) {
    expire(request_id, /*commands_only=*/false);
  }

  /// Drop only the *command* bindings of `request_id` — the retry path.
  /// A straggling capsule from the superseded attempt must not be served
  /// again, but a response already under way still completes the request.
  void expire_request_commands(std::uint64_t request_id) {
    expire(request_id, /*commands_only=*/true);
  }

  std::size_t outstanding_requests() const { return requests_.size(); }
  std::size_t outstanding_bindings() const { return bindings_.size(); }

 private:
  /// One live binding, linked into its request's list of bound messages.
  struct Binding {
    std::uint64_t request_id = 0;
    std::uint64_t next = 0;  ///< next message bound to the same request
    bool has_next = false;   ///< message ids are opaque: no sentinel value
    MessageRole role = MessageRole::kCommand;
  };

  // FlatMap64 moves entries on insert (growth) and erase (backward shift),
  // so the helpers below re-find a binding after every erase instead of
  // holding pointers across one.

  /// Remove a live binding from both indexes. A request holds a handful of
  /// bindings at most (command, response, one per retry), so finding the
  /// predecessor in its list is a short walk.
  void unbind(std::uint64_t message_id) {
    const Binding gone = *bindings_.find(message_id);
    bindings_.erase(message_id);
    std::uint64_t* head = request_messages_.find(gone.request_id);
    if (*head == message_id) {
      if (gone.has_next) {
        *head = gone.next;
      } else {
        request_messages_.erase(gone.request_id);
      }
      return;
    }
    Binding* prev = bindings_.find(*head);
    while (prev->next != message_id) prev = bindings_.find(prev->next);
    prev->next = gone.next;
    prev->has_next = gone.has_next;
  }

  /// Walk only `request_id`'s own bindings, dropping them (or, for a
  /// retry, only its commands) and relinking the survivors in order.
  void expire(std::uint64_t request_id, bool commands_only) {
    const std::uint64_t* head = request_messages_.find(request_id);
    if (head == nullptr) return;
    std::uint64_t message_id = *head;
    bool kept_any = false;
    std::uint64_t kept_tail = 0;
    for (;;) {
      const Binding bound = *bindings_.find(message_id);
      if (commands_only && bound.role == MessageRole::kResponse) {
        if (kept_any) {
          Binding* tail = bindings_.find(kept_tail);
          tail->next = message_id;
          tail->has_next = true;
        } else {
          *request_messages_.find(request_id) = message_id;
        }
        kept_any = true;
        kept_tail = message_id;
      } else {
        bindings_.erase(message_id);
      }
      if (!bound.has_next) break;
      message_id = bound.next;
    }
    if (kept_any) {
      bindings_.find(kept_tail)->has_next = false;
    } else {
      request_messages_.erase(request_id);
    }
  }

  std::uint64_t next_request_id_ = 0;
  std::unordered_map<std::uint64_t, RequestInfo> requests_;
  /// message id -> binding. Lookups only: FlatMap64 offers no iteration, so
  /// hash layout can never decide anything (determinism rule R2).
  common::FlatMap64<Binding> bindings_;
  /// request id -> most recently bound message of that request, the head
  /// of its list. expire() visits one request's messages instead of
  /// scanning every live binding, which under an in-cast backlog made
  /// each completion cost O(outstanding bindings).
  common::FlatMap64<std::uint64_t> request_messages_;
};

}  // namespace src::fabric
