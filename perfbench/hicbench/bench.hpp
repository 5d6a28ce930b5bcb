// Shared pieces of the hicsim benchmark program: host timing, summaries,
// digests, the correctness ledger and the metric report.
//
// Every host time in the benchmark is taken from outside the simulator, with
// std::chrono::steady_clock around calls into a layer's public functions.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hicbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
[[nodiscard]] inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The q-quantile of the samples, interpolating linearly between order
/// statistics (q = 0.5: the median).
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
[[nodiscard]] double max_of(const std::vector<double>& v);

/// The host-speed reference: a fixed set-associative cache-lookup loop in
/// the benchmark's own code (none of the simulator's), about 25 ms. Returns
/// the median time of `threads` concurrent copies, in seconds.
[[nodiscard]] double reference_seconds(int threads);

/// The reference's time on the host the benchmark was tuned on. End-to-end
/// times are reported at this reference speed: measured seconds times
/// kReferenceNominalS over the run's median reference time.
inline constexpr double kReferenceNominalS = 0.025;

/// FNV-1a 64 of `s`, as 16 hex digits: the digest of one simulated output.
[[nodiscard]] std::string digest(std::string_view s);

/// Returns freed heap to the kernel, so the next allocations start cold,
/// as in a fresh process.
void trim_heap();

/// Peak resident memory. reset_peak_rss() trims the heap and restarts the
/// kernel's high-water mark, so peak_rss_mb() afterwards is the peak of
/// what ran since.
void reset_peak_rss();
[[nodiscard]] double peak_rss_mb();

/// The correctness ledger: every attempted point, and every point that
/// failed any check. Recorded digests come from the benchmark's own
/// digests file; a digest seen twice in one run must also repeat.
class Ledger {
 public:
  /// Loads recorded digests from `path` (empty = none recorded).
  void load(const std::string& path);
  /// Makes this run the recording: digests are collected, not compared
  /// with a recording (they still must repeat within the run).
  void start_recording() { recording_ = true; }

  /// Records one attempted point. `problems` are failures found while
  /// running it; `digests` are its simulated outputs (key -> digest), each
  /// compared with the recording (when `recorded` is true) and with any
  /// earlier digest of the same key in this run.
  void point(const std::string& name, std::vector<std::string> problems,
             const std::map<std::string, std::string>& digests,
             bool recorded);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  /// Adds every digest this run produced to the digests file at `path`
  /// (created when missing). A key already recorded with another digest
  /// throws: the same simulation must give the same output.
  void record(const std::string& path) const;

 private:
  std::map<std::string, std::string> recorded_;
  std::map<std::string, std::string> seen_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool recording_ = false;
};

/// One reported metric with its unit and the number of samples behind it.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 1;
  bool in_result = true;  ///< false: printed for people only
};

/// The metric report: a line per metric for people, and the final JSON
/// object (the last line of standard output) for machines.
class Report {
 public:
  void add(std::string name, double value, std::string unit,
           std::size_t samples = 1);
  /// A metric printed for people but kept out of the result object.
  void info(std::string name, double value, std::string unit,
            std::size_t samples = 1);
  /// A context line printed before the metrics (ratios with their base,
  /// provenance, per-workload notes).
  void note(std::string line);

  void print(bool correct, std::uint64_t attempted,
             std::uint64_t failed) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

}  // namespace hicbench
