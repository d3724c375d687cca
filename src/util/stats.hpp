#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace apv::util {

/// Ordered set of named monotonic counters — the surfacing format for
/// subsystem instrumentation (comm transport, payload pool). Cheap to
/// snapshot, mergeable across PEs, and serializable for benchmark output.
class Counters {
 public:
  void add(const std::string& name, std::uint64_t delta);
  void set(const std::string& name, std::uint64_t value);
  std::uint64_t get(const std::string& name) const;  ///< 0 if absent

  /// Sums `other` into this (per-PE -> total reductions).
  void merge(const Counters& other);

  /// {"name":123,...} with keys in sorted order.
  std::string to_json() const;

  const std::map<std::string, std::uint64_t>& all() const { return values_; }

 private:
  std::map<std::string, std::uint64_t> values_;
};

/// A monotonic counter with one writing thread and readers on any thread:
/// a relaxed atomic bumped with a plain load and store (no RMW), so the
/// writer pays what a plain increment costs and a snapshot taken while it
/// runs is race-free. Copying copies the current value.
class OwnedCounter {
 public:
  OwnedCounter() = default;
  OwnedCounter(const OwnedCounter& other) noexcept : v_(other.get()) {}
  OwnedCounter& operator=(const OwnedCounter& other) noexcept {
    v_.store(other.get(), std::memory_order_relaxed);
    return *this;
  }

  OwnedCounter& operator+=(std::uint64_t delta) noexcept {
    v_.store(v_.load(std::memory_order_relaxed) + delta,
             std::memory_order_relaxed);
    return *this;
  }
  OwnedCounter& operator++() noexcept { return *this += 1; }
  std::uint64_t get() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
/// Used by benchmark harnesses and the load-balancing database.
class RunningStats {
 public:
  void add(double x) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  double variance() const noexcept;  ///< sample variance (n-1 denominator)
  double stddev() const noexcept;
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }
  double sum() const noexcept { return sum_; }

  /// Merges another accumulator into this one (parallel reduction of stats).
  void merge(const RunningStats& other) noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Returns the q-quantile (0 <= q <= 1) of `samples` by linear interpolation.
/// The input vector is copied and sorted; intended for benchmark reporting,
/// not hot paths.
double quantile(std::vector<double> samples, double q);

/// Load-imbalance ratio max/mean of a load vector; 1.0 means perfectly
/// balanced. Returns 1.0 for empty or all-zero input.
double imbalance_ratio(const std::vector<double>& loads);

}  // namespace apv::util
