// The benchmark's four workloads and the run that measures one of them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"

namespace hicbench {

struct RunOptions {
  std::string workload;
  /// 0 reproduces the recorded digests; any other seed draws the serving
  /// workload's knobs (the paper kernels' inputs stay fixed).
  std::uint64_t seed = 0;
  /// Host seconds the run spends repeating whole passes of the workload.
  double seconds = 10;
  /// false: end-to-end metrics. true: the per-layer breakdown.
  bool traced = false;
  /// Checkout root: campaigns/ and tests/data/ are read from here.
  std::string root = ".";
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Measures one workload into `report`; every point lands in `ledger`.
void run_workload(const RunOptions& opts, Ledger& ledger, Report& report);

}  // namespace hicbench
