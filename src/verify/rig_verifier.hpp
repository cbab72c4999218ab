// Attaches the invariant checkers (invariants.hpp) to a live experiment.
//
// A RigVerifier is created from a core::ExperimentRig — normally inside a
// rig_hook, so it exists for exactly the lifetime of the run — and watches
// the stack three ways:
//
//  * polled laws: every poll_interval it snapshots each initiator and NVMe
//    driver and runs the io-accounting, driver-conservation, ssq-tokens,
//    retry-bound, monotone-time, and liveness checkers;
//  * event-driven order law: it installs the drivers' passive submit probe
//    and dispatch handler and verifies that overlapping requests on the
//    same driver (with a write involved) dispatch in submission order —
//    the contract the SSQ consistency tracker must uphold;
//  * drain audit: its destructor runs while the rig is still alive (the
//    rig-hook state is torn down before the components in run_experiment),
//    so it performs a final pass that additionally demands terminal
//    accounting when every initiator reports all_complete().
//
// Observation is passive by construction: the verifier schedules its own
// poll events (bounded by poll_until, so a drained simulation still
// terminates) and never mutates any component, so a run's results are
// bit-identical with verification on or off — which is what lets chaos
// campaigns re-run failing trials to prove determinism.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "sim/simulator.hpp"
#include "verify/invariants.hpp"

namespace src::verify {

class RigVerifier {
 public:
  /// `report` collects everything observed and may outlive the verifier;
  /// pass nullptr to have one created internally (see report()).
  RigVerifier(const core::ExperimentRig& rig, const VerifyConfig& config,
              std::shared_ptr<Report> report);
  ~RigVerifier();

  RigVerifier(const RigVerifier&) = delete;
  RigVerifier& operator=(const RigVerifier&) = delete;

  const std::shared_ptr<Report>& report() const { return report_; }

 private:
  struct DriverShadow {
    nvme::NvmeDriver* driver = nullptr;
    OverlapOrderShadow order;
  };

  void install_overlap_probes();
  void on_dispatch(std::size_t shadow, const nvme::IoRequest& request);

  void schedule_poll();
  void poll();
  void run_checks(bool at_drain);
  void check_liveness();
  std::uint64_t progress() const;

  /// Record a verifier-internal violation, honouring max_violations.
  void record(const char* checker, std::string detail);
  void enforce_cap();

  sim::Simulator& sim_;
  std::vector<fabric::Initiator*> initiators_;
  std::vector<fabric::Target*> targets_;
  VerifyConfig config_;
  std::shared_ptr<Report> report_;

  std::vector<DriverShadow> shadows_;
  sim::EventId poll_event_;
  common::SimTime last_poll_time_ = 0;
  std::uint64_t last_progress_ = 0;
  common::SimTime last_progress_time_ = 0;
  bool liveness_flagged_ = false;
};

}  // namespace src::verify
