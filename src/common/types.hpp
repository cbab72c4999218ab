// Fundamental value types shared by every module: simulation time, data
// rates, and byte sizes. All simulation time is integer nanoseconds so that
// runs are bit-reproducible; rates are doubles in bytes/second with named
// constructors to avoid unit mistakes.
#pragma once

#include <cstdint>
#include <compare>
#include <limits>

namespace src::common {

/// Simulation time in integer nanoseconds.
using SimTime = std::int64_t;

inline constexpr SimTime kNanosecond = 1;
inline constexpr SimTime kMicrosecond = 1'000;
inline constexpr SimTime kMillisecond = 1'000'000;
inline constexpr SimTime kSecond = 1'000'000'000;
inline constexpr SimTime kTimeInfinity = std::numeric_limits<SimTime>::max();

constexpr SimTime nanoseconds(double n) { return static_cast<SimTime>(n); }
constexpr SimTime microseconds(double us) { return static_cast<SimTime>(us * 1e3); }
constexpr SimTime milliseconds(double ms) { return static_cast<SimTime>(ms * 1e6); }
constexpr SimTime seconds(double s) { return static_cast<SimTime>(s * 1e9); }

constexpr double to_seconds(SimTime t) { return static_cast<double>(t) * 1e-9; }
constexpr double to_milliseconds(SimTime t) { return static_cast<double>(t) * 1e-6; }
constexpr double to_microseconds(SimTime t) { return static_cast<double>(t) * 1e-3; }

/// Data rate. Stored as bytes per second; constructed through named
/// factories so call sites read unambiguously.
class Rate {
 public:
  constexpr Rate() = default;

  static constexpr Rate bytes_per_second(double bps) { return Rate{bps}; }
  static constexpr Rate gbps(double gigabits) { return Rate{gigabits * 1e9 / 8.0}; }
  static constexpr Rate mbps(double megabits) { return Rate{megabits * 1e6 / 8.0}; }
  static constexpr Rate zero() { return Rate{0.0}; }

  constexpr double as_bytes_per_second() const { return bytes_per_sec_; }
  constexpr double as_gbps() const { return bytes_per_sec_ * 8.0 / 1e9; }
  constexpr double as_mbps() const { return bytes_per_sec_ * 8.0 / 1e6; }

  /// Time to serialize `bytes` at this rate; kTimeInfinity for a zero rate.
  constexpr SimTime transmission_time(std::uint64_t bytes) const {
    if (bytes_per_sec_ <= 0.0) return kTimeInfinity;
    return static_cast<SimTime>(static_cast<double>(bytes) / bytes_per_sec_ * 1e9);
  }

  constexpr bool is_zero() const { return bytes_per_sec_ <= 0.0; }

  friend constexpr Rate operator*(Rate r, double f) { return Rate{r.bytes_per_sec_ * f}; }
  friend constexpr Rate operator*(double f, Rate r) { return r * f; }
  friend constexpr Rate operator/(Rate r, double f) { return Rate{r.bytes_per_sec_ / f}; }
  friend constexpr Rate operator+(Rate a, Rate b) { return Rate{a.bytes_per_sec_ + b.bytes_per_sec_}; }
  friend constexpr Rate operator-(Rate a, Rate b) { return Rate{a.bytes_per_sec_ - b.bytes_per_sec_}; }
  friend constexpr auto operator<=>(Rate a, Rate b) = default;

 private:
  explicit constexpr Rate(double bps) : bytes_per_sec_(bps) {}
  double bytes_per_sec_ = 0.0;
};

inline constexpr std::uint64_t operator""_KiB(unsigned long long v) { return v * 1024ull; }
inline constexpr std::uint64_t operator""_MiB(unsigned long long v) { return v * 1024ull * 1024ull; }
inline constexpr std::uint64_t operator""_GiB(unsigned long long v) { return v * 1024ull * 1024ull * 1024ull; }

/// Kind of a block I/O request.
enum class IoType : std::uint8_t { kRead = 0, kWrite = 1 };

constexpr const char* to_string(IoType t) { return t == IoType::kRead ? "read" : "write"; }

/// Logical pages [first, last] that an I/O of `bytes` at `lba` touches. A
/// zero-byte command touches the page holding `lba`: an NVMe command's
/// block count (NLB) is at least 1.
struct PageSpan {
  std::uint64_t first = 0;
  std::uint64_t last = 0;

  constexpr std::uint64_t count() const { return last - first + 1; }
};

constexpr PageSpan page_span(std::uint64_t lba, std::uint32_t bytes,
                             std::uint64_t page_bytes) {
  return {lba / page_bytes, (lba + (bytes == 0 ? 0 : bytes - 1)) / page_bytes};
}

}  // namespace src::common
