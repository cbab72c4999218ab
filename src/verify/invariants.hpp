// Runtime invariant checkers for the experiment stack. Each checker states
// a conservation or safety law the healthy stack must uphold at *every*
// instant (not just at the end of a run):
//
//   io-accounting        per-initiator request conservation: terminal
//                        completions never exceed issues, outstanding is
//                        exactly issued - terminal, and at drain every
//                        issued request reached a terminal state;
//   driver-conservation  per-driver flow conservation: submitted equals
//                        completed + in-flight per type, and accepted
//                        equals submitted + queued;
//   ssq-tokens           the SSQ WRR token ledger balances: every fetch
//                        either borrowed or charged exactly one token, and
//                        charges never exceed grants;
//   retry-bound          no request retransmits past the retry budget, and
//                        a disabled policy never retries at all;
//   overlap-order        overlapping same-driver requests (a write involved)
//                        are dispatched in submission order (the SSQ
//                        consistency-tracker contract);
//   monotone-time        simulated time never runs backwards;
//   liveness             once every fault window has closed, outstanding
//                        work keeps making forward progress (the
//                        no-progress watchdog).
//
// The snapshot structs below decouple the laws from the live components:
// checkers are pure functions over value snapshots, so tests can corrupt a
// snapshot field and prove each law actually fires. verify::RigVerifier
// (rig_verifier.hpp) samples real components into these snapshots.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace src::verify {

// Stable checker identifiers (used in reports, campaign JSON, and tests).
inline constexpr const char* kIoAccountingChecker = "io-accounting";
inline constexpr const char* kDriverConservationChecker = "driver-conservation";
inline constexpr const char* kSsqTokensChecker = "ssq-tokens";
inline constexpr const char* kRetryBoundChecker = "retry-bound";
inline constexpr const char* kOverlapOrderChecker = "overlap-order";
inline constexpr const char* kMonotoneTimeChecker = "monotone-time";
inline constexpr const char* kLivenessChecker = "liveness";

/// One invariant breach: which law, when (simulated time), and a
/// human-readable account of the numbers that disagreed.
struct Violation {
  std::string checker;
  common::SimTime when = 0;
  std::string detail;
};

/// Per-checker toggles and timing knobs for a RigVerifier.
struct VerifyConfig {
  bool io_accounting = true;
  bool driver_conservation = true;
  bool ssq_tokens = true;
  bool retry_bound = true;
  bool overlap_order = true;
  bool monotone_time = true;
  bool liveness = true;

  /// Polled checkers run every `poll_interval` until `poll_until` (usually
  /// the scenario's max_time). poll_until == 0 disables polling entirely;
  /// the destructor-time drain audit still runs.
  common::SimTime poll_interval = common::kMillisecond;
  common::SimTime poll_until = 0;

  /// Liveness watchdog: a stall is flagged only once every fault window has
  /// closed (`fault_horizon`, normally FaultPlan::horizon()) and no request
  /// reached a terminal state for `liveness_grace` while work is
  /// outstanding. A horizon past poll_until means windows never all close
  /// inside the run, so the watchdog stays silent.
  common::SimTime fault_horizon = 0;
  common::SimTime liveness_grace = 20 * common::kMillisecond;

  /// Recording stops (and `Report::truncated` is set) after this many
  /// violations; one broken law at 1 ms polls would otherwise flood.
  std::size_t max_violations = 64;
};

/// Everything a verification pass observed. Held by shared_ptr so it
/// outlives the rig (the verifier is torn down with the experiment).
struct Report {
  std::vector<Violation> violations;
  std::uint64_t polls = 0;      ///< polled passes that ran
  bool drain_checked = false;   ///< the destructor-time audit ran
  bool truncated = false;       ///< hit VerifyConfig::max_violations

  bool clean() const { return violations.empty(); }
};

// ---------------------------------------------------------------------------
// Value snapshots of the live components, filled by RigVerifier (or by a
// test poking in deliberately inconsistent numbers).

struct InitiatorSnapshot {
  std::uint64_t reads_issued = 0;
  std::uint64_t writes_issued = 0;
  std::uint64_t reads_completed = 0;
  std::uint64_t writes_completed = 0;
  std::uint64_t reads_failed = 0;
  std::uint64_t writes_failed = 0;
  std::uint64_t outstanding = 0;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint32_t max_attempts = 0;
  bool retry_enabled = false;
  std::uint32_t max_retries = 0;
};

struct DriverSnapshot {
  std::uint64_t accepted_reads = 0;
  std::uint64_t accepted_writes = 0;
  std::uint64_t submitted_reads = 0;
  std::uint64_t submitted_writes = 0;
  std::uint64_t completed_reads = 0;
  std::uint64_t completed_writes = 0;
  std::uint64_t io_errors = 0;
  std::uint64_t in_flight_reads = 0;
  std::uint64_t in_flight_writes = 0;
  std::uint64_t in_flight = 0;
  std::uint64_t queued = 0;
};

struct SsqSnapshot {
  std::uint64_t fetched_from_rsq = 0;
  std::uint64_t fetched_from_wsq = 0;
  std::uint64_t borrowed_fetches = 0;
  std::uint64_t tokens_granted = 0;
  std::uint64_t tokens_charged = 0;
  std::uint32_t read_tokens = 0;
  std::uint32_t write_tokens = 0;
};

/// One request as the overlap-order law sees it.
struct RequestSnapshot {
  std::uint64_t id = 0;
  std::uint64_t lba = 0;
  std::uint64_t bytes = 0;
  bool is_write = false;
};

// ---------------------------------------------------------------------------
// Pure checkers. Each appends any violations to `out`, labelling them with
// `when` and the component name in `label` (e.g. "initiator[0]").

/// Request conservation at an initiator. With `at_drain` set, additionally
/// requires every issued request to have reached a terminal state.
void check_io_accounting(const InitiatorSnapshot& s, bool at_drain,
                         common::SimTime when, const std::string& label,
                         std::vector<Violation>& out);

/// Flow conservation through an NVMe driver.
void check_driver_conservation(const DriverSnapshot& s, common::SimTime when,
                               const std::string& label,
                               std::vector<Violation>& out);

/// SSQ WRR token-ledger balance.
void check_ssq_tokens(const SsqSnapshot& s, common::SimTime when,
                      const std::string& label, std::vector<Violation>& out);

/// Retry-budget enforcement at an initiator.
void check_retry_bound(const InitiatorSnapshot& s, common::SimTime when,
                       const std::string& label, std::vector<Violation>& out);

/// Overlap-order law over one driver's submission stream. Feed it every
/// request the driver accepts (its submit probe) and every request it
/// fetches to the device (its dispatch handler); RigVerifier keeps one per
/// driver, and a test can attach one to a bare driver.
class OverlapOrderShadow {
 public:
  explicit OverlapOrderShadow(std::string label) : label_(std::move(label)) {}

  void submitted(const RequestSnapshot& request) { undispatched_.push_back(request); }

  /// Reports a dispatch of a request that was never submitted, and every
  /// earlier-submitted, still-pending request overlapping this one (a
  /// write on either side) — each of those has been overtaken.
  void dispatched(const RequestSnapshot& request, common::SimTime when,
                  std::vector<Violation>& out);

  /// Submitted requests not dispatched yet.
  std::size_t pending() const { return undispatched_.size(); }

 private:
  std::string label_;
  std::vector<RequestSnapshot> undispatched_;  ///< in submission order
};

}  // namespace src::verify
