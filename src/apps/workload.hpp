// Workload framework.
//
// Every application is a faithful miniature of its paper counterpart: the
// same algorithm class, the same synchronization/communication pattern
// (paper Table I), scaled so a full configuration sweep simulates in
// seconds. Each workload provides a serial reference and a verify() that
// reads results back *through the hierarchy* — so a missing or misplaced
// WB/INV annotation shows up as a real wrong answer, not just a statistic.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "runtime/thread.hpp"

namespace hic {

struct WorkloadResult {
  bool ok = false;
  std::string detail;
};

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  /// Table I classification.
  [[nodiscard]] virtual std::string main_patterns() const = 0;
  [[nodiscard]] virtual std::string other_patterns() const { return ""; }
  /// True for the programming-model-2 (OpenMP-style) applications.
  [[nodiscard]] virtual bool inter_block() const { return false; }

  /// Allocates data, initializes it, declares sync variables, and (for
  /// model-2 apps) runs the compiler analysis. Called once per Machine.
  virtual void setup(Machine& m, int nthreads) = 0;
  /// Per-thread body; thread i runs on core i.
  virtual void body(Thread& t) = 0;
  /// Post-run hook, called by run_workload after the machine finishes:
  /// workloads that keep host-side accounting publish it into m.stats()
  /// here. The serving family uses this for the req_* latency surface; the
  /// Table I kernels don't override it.
  virtual void finish(Machine& m) { (void)m; }
  /// Checks results against the serial reference via a VerifyReader.
  [[nodiscard]] virtual WorkloadResult verify(Machine& m) = 0;

  /// Workload-specific integer parameter (CLI --serve-set key=value). Must
  /// be called before setup(); returns false for an unknown key or
  /// out-of-range value. The defaults are what campaigns run.
  virtual bool set_knob(const std::string& key, std::int64_t value) {
    (void)key;
    (void)value;
    return false;
  }
};

/// The 11 intra-block runs of Figure 9/10 (SPLASH-2 miniatures).
[[nodiscard]] std::vector<std::string> intra_workload_names();
/// The 4 inter-block runs of Figure 11/12 (NAS EP/IS/CG + Jacobi).
[[nodiscard]] std::vector<std::string> inter_workload_names();
/// The request-serving family (src/apps/serve): intra-block workloads driven
/// by the deterministic load generator, reporting the req_* latency surface.
[[nodiscard]] std::vector<std::string> serving_workload_names();

/// Factory; throws CheckFailure for unknown names.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name);

/// setup + run on `nthreads` threads. Returns execution cycles.
Cycle run_workload(Workload& w, Machine& m, int nthreads);

/// Iteration-space helpers shared by the workloads.
struct ChunkRange {
  std::int64_t first = 0;
  std::int64_t last = 0;  ///< exclusive

  [[nodiscard]] std::int64_t size() const { return last - first; }
};
[[nodiscard]] ChunkRange chunk_range(std::int64_t n, int nthreads, int tid);

/// Relative FP comparison used by the verifiers.
[[nodiscard]] bool close_enough(double a, double b, double tol = 1e-6);

}  // namespace hic
