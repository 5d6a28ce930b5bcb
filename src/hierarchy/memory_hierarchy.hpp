// The abstract memory-hierarchy interface shared by the hardware-incoherent
// hierarchy (the paper's contribution, src/core) and the directory-MESI
// baseline (HCC).
//
// The same workload binary runs against either: the coherence-management
// operations (WB/INV flavors, §III-B and §V) are no-ops with zero latency on
// the coherent hierarchy, exactly as a program annotated for the incoherent
// machine would behave if run on a coherent one.
#pragma once

#include <memory>

#include "common/machine_config.hpp"
#include "common/types.hpp"
#include "mem/global_memory.hpp"
#include "noc/topology.hpp"
#include "stats/sim_stats.hpp"

namespace hic {

class CoherenceOracle;
class FaultPlan;
class ResilienceManager;
class Tracer;

struct AccessOutcome {
  Cycle latency = 0;
  bool l1_hit = false;
  /// Functional mode only: the value returned differs from the instantly
  /// coherent shadow (i.e. the read observed a stale word).
  bool stale = false;
  /// Portion of `latency` attributable to self-invalidation work (the
  /// IEB's lazy first-read refresh of a resident line); charged as INV
  /// stall in the Figure 9 breakdown.
  Cycle inv_penalty = 0;
};

class MemoryHierarchy {
 public:
  virtual ~MemoryHierarchy() = default;

  /// Loads `bytes` (word-aligned, within one line) into `out`.
  virtual AccessOutcome read(CoreId core, Addr a, std::uint32_t bytes,
                             void* out) = 0;
  /// Stores `bytes` from `in`.
  virtual AccessOutcome write(CoreId core, Addr a, std::uint32_t bytes,
                              const void* in) = 0;

  // --- Coherence-management ISA (§III-B). No-ops on the coherent baseline.
  /// WB of an address range toward `to` (L2 or L3). Dirty words only.
  virtual Cycle wb_range(CoreId core, AddrRange r, Level to) = 0;
  /// WB ALL: writes back the whole L1 (and, when `to` is L3, the whole
  /// local block L2 as well).
  virtual Cycle wb_all(CoreId core, Level to) = 0;
  /// INV of an address range from `from` (L1, or L1+L2 when `from` is L2).
  virtual Cycle inv_range(CoreId core, AddrRange r, Level from) = 0;
  /// INV ALL from `from`.
  virtual Cycle inv_all(CoreId core, Level from) = 0;

  // --- Level-adaptive instructions (§V). ----------------------------------
  virtual Cycle wb_cons(CoreId core, AddrRange r, ThreadId consumer) = 0;
  virtual Cycle wb_cons_all(CoreId core, ThreadId consumer) = 0;
  virtual Cycle inv_prod(CoreId core, AddrRange r, ThreadId producer) = 0;
  virtual Cycle inv_prod_all(CoreId core, ThreadId producer) = 0;

  // --- Critical-section epochs (MEB/IEB, §IV-B). --------------------------
  /// Entry: performs the INV side (INV ALL, or activates the IEB and skips
  /// the upfront invalidation). Returns the stall charged as INV stall.
  virtual Cycle cs_enter(CoreId core) = 0;
  /// Exit: performs the WB side (WB ALL, or the MEB-directed writeback).
  /// Returns the stall charged as WB stall.
  virtual Cycle cs_exit(CoreId core) = 0;

  /// Fills the per-block ThreadMap table (done by the runtime at spawn).
  virtual void map_thread(ThreadId t, CoreId c) = 0;

  // --- DMA (Runnemede's inter-block mechanism, paper §VIII). --------------
  /// Bulk block-to-block copy as a DMA engine performs it: reads the source
  /// block's view of [src, src+bytes) through its shared L2 (the producer
  /// publishes with WB first) and deposits it into the destination block's
  /// L2 as dirty data. Word-aligned; consumers self-invalidate their L1
  /// before reading, as with any producer handoff. On the coherent baseline
  /// the DMA is coherent: cached copies of the destination are invalidated.
  /// Returns the transfer latency.
  virtual Cycle dma_copy(BlockId src_block, Addr src, BlockId dst_block,
                         Addr dst, std::uint64_t bytes) = 0;

  [[nodiscard]] virtual bool coherent() const = 0;
};

/// Shared plumbing for concrete hierarchies.
class HierarchyBase : public MemoryHierarchy {
 public:
  HierarchyBase(const MachineConfig& cfg, GlobalMemory& gmem, SimStats& stats);

  [[nodiscard]] const MachineConfig& config() const { return cfg_; }
  [[nodiscard]] const ChipTopology& topology() const { return topo_; }
  [[nodiscard]] SimStats& sim_stats() { return *stats_; }
  [[nodiscard]] GlobalMemory& global_memory() { return *gmem_; }
  void map_thread(ThreadId t, CoreId c) override;
  /// Core running thread t (set by map_thread); kInvalidCore if unmapped.
  [[nodiscard]] CoreId core_of_thread(ThreadId t) const;

  /// Attaches a fault-injection plan (not owned; may be null). The
  /// incoherent hierarchy consults it at its WB/INV/NoC/store injection
  /// points; the coherent baseline ignores it (hardware coherence retries
  /// transparently, so there is nothing to sabotage).
  void set_fault_plan(FaultPlan* plan) { fault_plan_ = plan; }
  [[nodiscard]] FaultPlan* fault_plan() const { return fault_plan_; }

  /// Attaches an event tracer (not owned; may be null). Hierarchies record
  /// line fills, dirty evictions, and MEB/IEB/directory events as cache
  /// instants, timestamped with the context the engine stamped before the
  /// call (Tracer::set_context).
  void set_tracer(Tracer* t) { tracer_ = t; }
  [[nodiscard]] Tracer* tracer() const { return tracer_; }

  /// Attaches the coherence oracle (not owned; may be null). The incoherent
  /// hierarchy reports every load/store/fill/WB/INV/DMA so the oracle can
  /// track per-word write stamps; the coherent baseline never calls the
  /// memory hooks (hardware keeps it coherent, so there is nothing to check).
  void set_oracle(CoherenceOracle* o) { oracle_ = o; }
  [[nodiscard]] CoherenceOracle* oracle() const { return oracle_; }

  /// Attaches the recovery subsystem (not owned; may be null). The
  /// incoherent hierarchy consults it to repair ECC-tracked corruption, to
  /// retransmit dropped WB/INV transfers, and to quarantine failing ways;
  /// the coherent baseline ignores it (its protocol already retries).
  void set_resil(ResilienceManager* r) { resil_ = r; }
  [[nodiscard]] ResilienceManager* resil() const { return resil_; }

 protected:
  [[nodiscard]] GlobalMemory& gmem() { return *gmem_; }
  [[nodiscard]] SimStats& stats() { return *stats_; }
  void add_traffic(TrafficKind k, std::uint64_t flits) {
    stats_->traffic().add(k, flits);
  }
  /// Flits of a full line payload.
  [[nodiscard]] std::uint64_t line_flits() const {
    return topo_.flits_for(cfg_.l1.line_bytes);
  }
  /// Flits of a partial payload of `bytes`.
  [[nodiscard]] std::uint64_t data_flits(std::uint32_t bytes) const {
    return topo_.flits_for(bytes);
  }
  /// Validates access alignment: within one line, nonzero size.
  void check_access(Addr a, std::uint32_t bytes) const;
  /// Records a cache instant on the current trace context (no-op untraced).
  void trace_cache(const char* name, Addr line) const;

  MachineConfig cfg_;
  ChipTopology topo_;
  GlobalMemory* gmem_;
  SimStats* stats_;
  FaultPlan* fault_plan_ = nullptr;
  Tracer* tracer_ = nullptr;
  CoherenceOracle* oracle_ = nullptr;
  ResilienceManager* resil_ = nullptr;
  std::vector<CoreId> thread_to_core_;
};

}  // namespace hic
