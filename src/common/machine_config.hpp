// Machine configuration: the architecture of paper Table III.
//
// Two stock configurations are provided:
//   - intra_block(): one block of 16 cores (the paper's intra-block setup)
//   - inter_block(): 4 blocks of 8 cores each, with a 4-bank shared L3
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace hic {

/// Geometry and latency of one cache (or one bank of a banked cache).
struct CacheParams {
  std::uint32_t size_bytes = 0;
  std::uint32_t ways = 1;
  std::uint32_t line_bytes = 64;
  /// Round-trip latency of an access that hits in this cache, in cycles,
  /// excluding network hops (paper Table III quotes RT to the *local* bank;
  /// we charge mesh hops separately so remote banks cost more).
  Cycle rt_cycles = 1;

  [[nodiscard]] std::uint32_t num_lines() const {
    return size_bytes / line_bytes;
  }
  [[nodiscard]] std::uint32_t num_sets() const {
    return num_lines() / ways;
  }
  [[nodiscard]] std::uint32_t words_per_line() const {
    return line_bytes / kWordBytes;
  }
};

/// Cost model for the cache-controller operations introduced by the paper
/// (WB/INV flavors). These control how expensive WB ALL / INV ALL are
/// relative to the MEB/IEB paths — the heart of the Figure 9 experiment.
struct CacheOpCosts {
  /// Tags checked per cycle during a full-cache traversal (WB ALL / INV ALL
  /// walk the whole tag array; a 32KB/64B L1 has 512 lines -> 128 cycles).
  std::uint32_t tags_checked_per_cycle = 4;
  /// Fixed cost of issuing any WB/INV command to the cache controller.
  Cycle op_fixed_cycles = 3;
  /// Cycles to inject one written-back line into the network (occupancy of
  /// the L1 port; equals the flit count of a line payload on 128-bit links).
  Cycle per_line_writeback_cycles = 4;
  /// Cycles per MEB entry scanned at WB time.
  Cycle meb_scan_per_entry = 1;
};

struct MachineConfig {
  int blocks = 1;
  int cores_per_block = 16;

  CacheParams l1{32 * 1024, 4, 64, 2};
  /// L2 is banked one bank per core; each bank is 128KB.
  CacheParams l2_bank{128 * 1024, 8, 64, 11};
  /// L3 (multi-block runs only): 4 banks of 4MB.
  CacheParams l3_bank{4 * 1024 * 1024, 8, 64, 20};
  int l3_banks = 4;

  /// Modified Entry Buffer: 16 entries of {9-bit line ID, valid}.
  int meb_entries = 16;
  /// Invalidated Entry Buffer: 4 entries of {line address, valid}.
  int ieb_entries = 4;

  Cycle mesh_hop_cycles = 4;
  std::uint32_t link_bits = 128;
  Cycle memory_rt_cycles = 150;

  int write_buffer_entries = 16;
  /// Background write-buffer drain: one entry retires to L2 every this many
  /// cycles (pipelined stores; only full buffers or sync points stall).
  Cycle write_buffer_drain_cycles = 4;

  /// Engine scheduling slack: how far (in cycles) a dispatched core may run
  /// past the next core's clock before yielding. Larger values cost some
  /// event-interleaving fidelity but greatly reduce context switches;
  /// determinism is unaffected.
  Cycle sim_slack_cycles = 1024;

  /// Livelock watchdog: abort the run with a HangReport once any core's
  /// clock passes this limit. 0 disables the watchdog (the default).
  Cycle watchdog_max_cycles = 0;

  /// When true, caches carry functional line data, so reads through the
  /// incoherent hierarchy really can observe stale values (used by the
  /// staleness tests; timing is identical either way).
  bool functional_data = true;

  /// When true (the default), every load shadow-reads main memory and
  /// compares, counting stale words (stats only — cycles are identical).
  /// Timing-focused runs (bench_* loops) turn it off to skip the memcmp;
  /// fault-injection runs keep the detection path live regardless.
  bool staleness_monitor = true;

  /// Frozen at false: the one-thread-per-core scheduler was removed, and
  /// validate() rejects true. The field stays only because the canonical
  /// config JSON (and so every campaign/perfbench digest) still carries the
  /// key; dropping it is a config schema bump.
  bool legacy_scheduler = false;

  CacheOpCosts costs{};

  [[nodiscard]] int total_cores() const { return blocks * cores_per_block; }
  [[nodiscard]] BlockId block_of(CoreId c) const {
    return c / cores_per_block;
  }
  [[nodiscard]] bool same_block(CoreId a, CoreId b) const {
    return block_of(a) == block_of(b);
  }
  [[nodiscard]] bool multi_block() const { return blocks > 1; }

  /// Validates internal consistency (power-of-two geometry etc.).
  void validate() const;

  /// Paper Table III, upper part: 1 block x 16 cores, no L3.
  static MachineConfig intra_block();
  /// Paper Table III, lower part: 4 blocks x 8 cores, 16MB L3 in 4 banks.
  static MachineConfig inter_block();
};

}  // namespace hic
