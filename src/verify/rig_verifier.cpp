#include "verify/rig_verifier.hpp"

#include <algorithm>
#include <utility>

#include "nvme/ssq_driver.hpp"
#include "obs/obs.hpp"

namespace src::verify {

namespace {

InitiatorSnapshot snapshot_of(const fabric::Initiator& initiator) {
  const fabric::InitiatorStats& st = initiator.stats();
  InitiatorSnapshot s;
  s.reads_issued = st.reads_issued;
  s.writes_issued = st.writes_issued;
  s.reads_completed = st.reads_completed;
  s.writes_completed = st.writes_completed;
  s.reads_failed = st.reads_failed;
  s.writes_failed = st.writes_failed;
  s.outstanding = initiator.outstanding();
  s.retries = st.retries;
  s.timeouts = st.timeouts;
  s.max_attempts = st.max_attempts;
  s.retry_enabled = initiator.retry_policy().enabled;
  s.max_retries = initiator.retry_policy().max_retries;
  return s;
}

DriverSnapshot snapshot_of(const nvme::NvmeDriver& driver) {
  const nvme::DriverStats& st = driver.stats();
  DriverSnapshot s;
  s.accepted_reads = st.accepted_reads;
  s.accepted_writes = st.accepted_writes;
  s.submitted_reads = st.submitted_reads;
  s.submitted_writes = st.submitted_writes;
  s.completed_reads = st.completed_reads;
  s.completed_writes = st.completed_writes;
  s.io_errors = st.io_errors;
  s.in_flight_reads = driver.in_flight_reads();
  s.in_flight_writes = driver.in_flight_writes();
  s.in_flight = driver.in_flight();
  s.queued = driver.queued();
  return s;
}

SsqSnapshot snapshot_of(const nvme::SsqDriver& driver) {
  const nvme::SsqStats& st = driver.ssq_stats();
  SsqSnapshot s;
  s.fetched_from_rsq = st.fetched_from_rsq;
  s.fetched_from_wsq = st.fetched_from_wsq;
  s.borrowed_fetches = st.borrowed_fetches;
  s.tokens_granted = st.tokens_granted;
  s.tokens_charged = st.tokens_charged;
  s.read_tokens = driver.read_tokens();
  s.write_tokens = driver.write_tokens();
  return s;
}

RequestSnapshot snapshot_of(const nvme::IoRequest& request) {
  return RequestSnapshot{request.id, request.lba, request.bytes,
                         request.type == common::IoType::kWrite};
}

}  // namespace

RigVerifier::RigVerifier(const core::ExperimentRig& rig,
                         const VerifyConfig& config,
                         std::shared_ptr<Report> report)
    : sim_(rig.sim),
      initiators_(rig.initiators),
      targets_(rig.targets),
      config_(config),
      report_(std::move(report)) {
  if (!report_) report_ = std::make_shared<Report>();
  last_poll_time_ = sim_.now();
  last_progress_time_ = sim_.now();
  if (config_.overlap_order) install_overlap_probes();
  if (config_.poll_interval > 0 && config_.poll_until > sim_.now()) {
    schedule_poll();
  }
}

RigVerifier::~RigVerifier() {
  sim_.cancel(poll_event_);
  // Drain audit: rig-hook state is destroyed before the rig's components,
  // so every pointer is still valid here. Terminal accounting is demanded
  // only when the initiators actually drained (a max_time cutoff with work
  // in flight is a cap, not a bug).
  bool drained = true;
  for (const fabric::Initiator* initiator : initiators_) {
    drained = drained && initiator->all_complete();
  }
  run_checks(/*at_drain=*/drained);
  report_->drain_checked = true;
  for (DriverShadow& shadow : shadows_) {
    shadow.driver->set_submit_probe(nullptr);
    shadow.driver->set_dispatch_handler(nullptr);
  }
}

void RigVerifier::install_overlap_probes() {
  for (std::size_t t = 0; t < targets_.size(); ++t) {
    fabric::Target* target = targets_[t];
    for (std::size_t d = 0; d < target->device_count(); ++d) {
      shadows_.push_back(DriverShadow{
          &target->driver(d),
          OverlapOrderShadow("target[" + std::to_string(t) + "].driver[" +
                             std::to_string(d) + "]")});
    }
  }
  for (std::size_t i = 0; i < shadows_.size(); ++i) {
    shadows_[i].driver->set_submit_probe([this, i](const nvme::IoRequest& request) {
      shadows_[i].order.submitted(snapshot_of(request));
    });
    shadows_[i].driver->set_dispatch_handler(
        [this, i](const nvme::IoRequest& request) { on_dispatch(i, request); });
  }
}

void RigVerifier::on_dispatch(std::size_t shadow,
                              const nvme::IoRequest& request) {
  std::vector<Violation> found;
  shadows_[shadow].order.dispatched(snapshot_of(request), sim_.now(), found);
  for (Violation& v : found) record(kOverlapOrderChecker, std::move(v.detail));
}

void RigVerifier::schedule_poll() {
  // srclint:capture-ok(verifier polls are cancelled in stop(); the verifier outlives the run)
  poll_event_ = sim_.schedule_in(config_.poll_interval, [this] { poll(); });
}

void RigVerifier::poll() {
  ++report_->polls;
  if (config_.monotone_time && sim_.now() < last_poll_time_) {
    record(kMonotoneTimeChecker,
           "simulated time ran backwards: now " + std::to_string(sim_.now()) +
               " < previous poll " + std::to_string(last_poll_time_));
  }
  last_poll_time_ = sim_.now();
  run_checks(/*at_drain=*/false);
  if (config_.liveness) check_liveness();
  if (!report_->truncated &&
      sim_.now() + config_.poll_interval <= config_.poll_until) {
    schedule_poll();
  }
}

void RigVerifier::run_checks(bool at_drain) {
  const common::SimTime now = sim_.now();
  std::vector<Violation>& out = report_->violations;
  for (std::size_t i = 0; i < initiators_.size(); ++i) {
    const InitiatorSnapshot s = snapshot_of(*initiators_[i]);
    const std::string label = "initiator[" + std::to_string(i) + "]";
    if (config_.io_accounting) {
      check_io_accounting(s, at_drain, now, label, out);
    }
    if (config_.retry_bound) check_retry_bound(s, now, label, out);
  }
  for (std::size_t t = 0; t < targets_.size(); ++t) {
    fabric::Target* target = targets_[t];
    for (std::size_t d = 0; d < target->device_count(); ++d) {
      const std::string label =
          "target[" + std::to_string(t) + "].driver[" + std::to_string(d) + "]";
      if (config_.driver_conservation) {
        check_driver_conservation(snapshot_of(target->driver(d)), now, label,
                                  out);
      }
      if (config_.ssq_tokens) {
        if (const nvme::SsqDriver* ssq = target->ssq_driver(d)) {
          check_ssq_tokens(snapshot_of(*ssq), now, label, out);
        }
      }
    }
  }
  enforce_cap();
}

std::uint64_t RigVerifier::progress() const {
  std::uint64_t terminal = 0;
  for (const fabric::Initiator* initiator : initiators_) {
    const fabric::InitiatorStats& st = initiator->stats();
    terminal += st.reads_completed + st.writes_completed + st.reads_failed +
                st.writes_failed;
  }
  return terminal;
}

void RigVerifier::check_liveness() {
  const std::uint64_t now_progress = progress();
  if (now_progress != last_progress_) {
    last_progress_ = now_progress;
    last_progress_time_ = sim_.now();
    return;
  }
  if (liveness_flagged_) return;
  bool work_left = false;
  for (const fabric::Initiator* initiator : initiators_) {
    work_left = work_left || !initiator->all_complete();
  }
  if (!work_left) return;
  // Only a stall *after* the last fault window closed is a bug: while a
  // fault is active, zero progress may simply be the fault doing its job.
  const common::SimTime quiet_since =
      std::max(last_progress_time_, config_.fault_horizon);
  if (sim_.now() > quiet_since &&
      sim_.now() - quiet_since >= config_.liveness_grace) {
    liveness_flagged_ = true;
    std::uint64_t outstanding = 0;
    for (const fabric::Initiator* initiator : initiators_) {
      outstanding += initiator->outstanding();
    }
    record(kLivenessChecker,
           "no forward progress since t=" + std::to_string(quiet_since) +
               " ns with " + std::to_string(outstanding) +
               " requests outstanding and every fault window closed (horizon " +
               std::to_string(config_.fault_horizon) + " ns)");
  }
}

void RigVerifier::record(const char* checker, std::string detail) {
  if (report_->violations.size() >= config_.max_violations) {
    report_->truncated = true;
    return;
  }
  SRC_OBS_COUNT("verify.violations");
  report_->violations.push_back(
      Violation{checker, sim_.now(), std::move(detail)});
}

void RigVerifier::enforce_cap() {
  if (report_->violations.size() > config_.max_violations) {
    report_->violations.resize(config_.max_violations);
    report_->truncated = true;
  }
}

}  // namespace src::verify
