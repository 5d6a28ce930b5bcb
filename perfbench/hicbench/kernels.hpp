// Layer kernels: host nanoseconds per public call of one layer, on the
// preset and configuration a workload runs, with warm state.
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"
#include "common/machine_config.hpp"
#include "core/incoherent.hpp"

namespace hicbench {

/// Times each kernel and adds its metric to `report`. Construction,
/// allocation and warm-up stay outside the timed regions. A failed
/// self-check is appended to `problems`.
void run_kernels(const hic::MachineConfig& mc, hic::IncoherentOptions opts,
                 Report& report, std::vector<std::string>& problems);

}  // namespace hicbench
