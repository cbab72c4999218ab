#include "verify/invariants.hpp"

namespace src::verify {

namespace {

void report(std::vector<Violation>& out, const char* checker,
            common::SimTime when, const std::string& label,
            std::string detail) {
  out.push_back(Violation{checker, when, label + ": " + std::move(detail)});
}

std::string eq3(const char* lhs, std::uint64_t got, const char* rhs,
                std::uint64_t want) {
  return std::string(lhs) + " = " + std::to_string(got) + " but " + rhs +
         " = " + std::to_string(want);
}

bool ranges_overlap(std::uint64_t lba_a, std::uint64_t bytes_a,
                    std::uint64_t lba_b, std::uint64_t bytes_b) {
  return lba_a < lba_b + bytes_b && lba_b < lba_a + bytes_a;
}

}  // namespace

void check_io_accounting(const InitiatorSnapshot& s, bool at_drain,
                         common::SimTime when, const std::string& label,
                         std::vector<Violation>& out) {
  const std::uint64_t reads_terminal = s.reads_completed + s.reads_failed;
  const std::uint64_t writes_terminal = s.writes_completed + s.writes_failed;
  if (reads_terminal > s.reads_issued) {
    report(out, kIoAccountingChecker, when, label,
           eq3("reads completed+failed", reads_terminal, "reads_issued",
               s.reads_issued));
  }
  if (writes_terminal > s.writes_issued) {
    report(out, kIoAccountingChecker, when, label,
           eq3("writes completed+failed", writes_terminal, "writes_issued",
               s.writes_issued));
  }
  const std::uint64_t issued = s.reads_issued + s.writes_issued;
  const std::uint64_t terminal = reads_terminal + writes_terminal;
  if (terminal <= issued && s.outstanding != issued - terminal) {
    report(out, kIoAccountingChecker, when, label,
           eq3("outstanding", s.outstanding, "issued - terminal",
               issued - terminal));
  }
  if (at_drain) {
    if (reads_terminal != s.reads_issued) {
      report(out, kIoAccountingChecker, when, label,
             "drained with " + std::to_string(s.reads_issued - reads_terminal) +
                 " reads never reaching a terminal state");
    }
    if (writes_terminal != s.writes_issued) {
      report(out, kIoAccountingChecker, when, label,
             "drained with " +
                 std::to_string(s.writes_issued - writes_terminal) +
                 " writes never reaching a terminal state");
    }
  }
}

void check_driver_conservation(const DriverSnapshot& s, common::SimTime when,
                               const std::string& label,
                               std::vector<Violation>& out) {
  if (s.submitted_reads != s.completed_reads + s.in_flight_reads) {
    report(out, kDriverConservationChecker, when, label,
           eq3("submitted_reads", s.submitted_reads,
               "completed_reads + in_flight_reads",
               s.completed_reads + s.in_flight_reads));
  }
  if (s.submitted_writes != s.completed_writes + s.in_flight_writes) {
    report(out, kDriverConservationChecker, when, label,
           eq3("submitted_writes", s.submitted_writes,
               "completed_writes + in_flight_writes",
               s.completed_writes + s.in_flight_writes));
  }
  if (s.in_flight != s.in_flight_reads + s.in_flight_writes) {
    report(out, kDriverConservationChecker, when, label,
           eq3("in_flight", s.in_flight, "in_flight_reads + in_flight_writes",
               s.in_flight_reads + s.in_flight_writes));
  }
  const std::uint64_t accepted = s.accepted_reads + s.accepted_writes;
  const std::uint64_t submitted = s.submitted_reads + s.submitted_writes;
  if (accepted != submitted + s.queued) {
    report(out, kDriverConservationChecker, when, label,
           eq3("accepted", accepted, "submitted + queued",
               submitted + s.queued));
  }
  if (s.io_errors > s.completed_reads + s.completed_writes) {
    report(out, kDriverConservationChecker, when, label,
           eq3("io_errors", s.io_errors, "completions (errors included)",
               s.completed_reads + s.completed_writes));
  }
}

void check_ssq_tokens(const SsqSnapshot& s, common::SimTime when,
                      const std::string& label, std::vector<Violation>& out) {
  const std::uint64_t fetched = s.fetched_from_rsq + s.fetched_from_wsq;
  if (s.tokens_charged + s.borrowed_fetches != fetched) {
    report(out, kSsqTokensChecker, when, label,
           eq3("tokens_charged + borrowed_fetches",
               s.tokens_charged + s.borrowed_fetches, "total fetches",
               fetched));
  }
  if (s.tokens_charged > s.tokens_granted) {
    report(out, kSsqTokensChecker, when, label,
           eq3("tokens_charged", s.tokens_charged, "tokens_granted",
               s.tokens_granted));
    return;  // the slack bound below would underflow
  }
  const std::uint64_t slack = s.tokens_granted - s.tokens_charged;
  const std::uint64_t live =
      static_cast<std::uint64_t>(s.read_tokens) + s.write_tokens;
  if (live > slack) {
    report(out, kSsqTokensChecker, when, label,
           eq3("live token pools", live, "granted - charged", slack));
  }
}

void check_retry_bound(const InitiatorSnapshot& s, common::SimTime when,
                       const std::string& label, std::vector<Violation>& out) {
  if (s.retry_enabled) {
    if (s.max_attempts > s.max_retries) {
      report(out, kRetryBoundChecker, when, label,
             eq3("max_attempts", s.max_attempts, "retry budget",
                 s.max_retries));
    }
    return;
  }
  if (s.retries != 0 || s.timeouts != 0 || s.max_attempts != 0) {
    report(out, kRetryBoundChecker, when, label,
           "retry policy disabled but retries = " + std::to_string(s.retries) +
               ", timeouts = " + std::to_string(s.timeouts) +
               ", max_attempts = " + std::to_string(s.max_attempts));
  }
}

void OverlapOrderShadow::dispatched(const RequestSnapshot& request,
                                    common::SimTime when,
                                    std::vector<Violation>& out) {
  std::size_t found = undispatched_.size();
  for (std::size_t i = 0; i < undispatched_.size(); ++i) {
    const RequestSnapshot& p = undispatched_[i];
    if (p.id == request.id && p.lba == request.lba &&
        p.bytes == request.bytes && p.is_write == request.is_write) {
      found = i;
      break;
    }
  }
  if (found == undispatched_.size()) {
    report(out, kOverlapOrderChecker, when, label_,
           "dispatched request " + std::to_string(request.id) +
               " was never submitted");
    return;
  }
  for (std::size_t i = 0; i < found; ++i) {
    const RequestSnapshot& p = undispatched_[i];
    if (!(p.is_write || request.is_write)) continue;
    if (!ranges_overlap(p.lba, p.bytes, request.lba, request.bytes)) continue;
    report(out, kOverlapOrderChecker, when, label_,
           "request " + std::to_string(request.id) + " (lba " +
               std::to_string(request.lba) + "+" +
               std::to_string(request.bytes) + ") dispatched before " +
               "overlapping earlier request " + std::to_string(p.id) +
               " (lba " + std::to_string(p.lba) + "+" +
               std::to_string(p.bytes) + ")");
  }
  undispatched_.erase(undispatched_.begin() + static_cast<std::ptrdiff_t>(found));
}

}  // namespace src::verify
