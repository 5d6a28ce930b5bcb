// Machine: one fully-assembled simulated system — global memory, the chosen
// hierarchy (incoherent with the configured buffers, or the MESI baseline),
// the synchronization controller, and the execution engine.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "fault/fault_plan.hpp"
#include "mem/global_memory.hpp"
#include "resil/resil.hpp"
#include "runtime/config.hpp"
#include "sim/engine.hpp"
#include "sync/sync_controller.hpp"

namespace hic {

class Thread;

class Machine {
 public:
  /// Handles to declared synchronization variables (sync-table entries).
  struct Barrier {
    SyncId id = -1;
  };
  struct Lock {
    SyncId id = -1;
    /// Outside-critical-section communication (paper §IV-A1, Figure 4d):
    /// the annotator adds a full WB before acquire and a full INV after
    /// release unless the programmer states there is no OCC.
    bool occ = false;
    /// Inter-block only: the shared data the critical section accesses.
    /// Model 2's compiler analysis names the variables inside a critical
    /// section, so the CS annotations can use address-ranged WB/INV instead
    /// of whole-cache operations; empty means unknown (fall back to ALL).
    AddrRange data{};
    /// Inter-block only: every thread that ever takes this lock runs in one
    /// block (e.g. the per-block phase of a hierarchical reduction), so the
    /// CS annotations can stay at the block level: INV of the private L1
    /// and WB to the shared L2, never touching the L3.
    bool block_local = false;
  };
  struct Flag {
    SyncId id = -1;
  };

  Machine(const MachineConfig& mc, Config cfg);

  [[nodiscard]] const MachineConfig& machine_config() const { return mc_; }
  [[nodiscard]] Config config() const { return cfg_; }
  [[nodiscard]] GlobalMemory& mem() { return gmem_; }
  [[nodiscard]] SimStats& stats() { return stats_; }
  [[nodiscard]] HierarchyBase& hierarchy() { return *hier_; }
  [[nodiscard]] SyncController& sync() { return sync_; }
  [[nodiscard]] Engine& engine() { return engine_; }

  /// The fault-injection plan this machine runs under. Add rules before
  /// run(); afterwards the plan holds the per-fault detection records and
  /// run() has already reconciled them into stats().
  [[nodiscard]] FaultPlan& fault_plan() { return fault_plan_; }
  void add_fault_rule(const FaultRule& rule) { fault_plan_.add_rule(rule); }

  /// The armed fail-stop halt cycle of `core` (0 = none). This is the
  /// serving layer's failure detector: deterministic static config that
  /// models lease expiry with zero hidden state (`fail_cycle_of(c) != 0 &&
  /// now >= fail_cycle_of(c)` means the peer is dead). Valid once run() has
  /// armed the engine; before that it returns 0.
  [[nodiscard]] Cycle fail_cycle_of(CoreId core) const {
    return engine_.fail_cycle_of(core);
  }

  /// Hook run after the engine finishes but before fault reconciliation.
  /// Chaos-aware workloads classify each victim's FailOutcome here (from
  /// host-side accounting); reconcile forces anything unclassified to
  /// Failed, never silent.
  void set_pre_reconcile(std::function<void()> hook) {
    pre_reconcile_ = std::move(hook);
  }

  /// The incoherent hierarchy, or nullptr under HCC.
  [[nodiscard]] IncoherentHierarchy* incoherent();

  /// Attaches an event tracer (nullptr = off; see obs/tracer.hpp) to the
  /// engine and the hierarchy, and — when the tracer samples counters —
  /// registers every stats report field with its counter registry. The
  /// tracer must outlive this machine's run() calls.
  void set_tracer(Tracer* t);

  /// Attaches the coherence oracle (nullptr = off; see verify/oracle.hpp)
  /// to the engine and the hierarchy, and binds it to this machine's
  /// configuration, stats and fault plan. Must be called before run() and
  /// the oracle must outlive it.
  void set_oracle(CoherenceOracle* o);

  /// Enables the recovery subsystem (src/resil): ECC correction + scrubbing
  /// for corrupt-line faults, reliable WB/INV delivery for drop faults, and
  /// graceful way/cluster degradation. Call before run(). Off by default —
  /// without this call every resil hook is a null-pointer test and golden
  /// stats are bit-identical. No-op on the coherent baseline (its hardware
  /// protocol already retries, and no fault hooks fire there).
  void enable_recovery(const ResilOptions& opts = {});
  /// The recovery manager, or nullptr when recovery is not enabled.
  [[nodiscard]] ResilienceManager* resil() { return resil_.get(); }

  Barrier make_barrier(int participants);
  Lock make_lock(bool outside_cs_communication = false,
                 AddrRange protected_data = {}, bool block_local = false);
  Flag make_flag(std::uint64_t initial = 0);

  /// Runs `nthreads` copies of `body`, thread i pinned to core i (the paper
  /// assumes a fixed 1:1 mapping with no migration). Fills the ThreadMap.
  void run(int nthreads, const std::function<void(Thread&)>& body);

  /// Execution time of the last run (slowest core's finishing cycle).
  [[nodiscard]] Cycle exec_cycles() const { return engine_.finish_time(); }

 private:
  [[nodiscard]] NodeId next_sync_home();
  /// Scans the fault plan for core-fail / cluster-fail rules and arms the
  /// engine's per-core halt cycles + kill callback. Called by run().
  void arm_fail_stop();
  /// Kill callback (runs on the victim's fiber): discards the victim's
  /// dirty lines and records the fault.
  void on_core_failed(CoreId core, Cycle cycle);

  MachineConfig mc_;
  Config cfg_;
  GlobalMemory gmem_;
  SimStats stats_;
  FaultPlan fault_plan_;
  std::unique_ptr<ResilienceManager> resil_;
  std::unique_ptr<HierarchyBase> hier_;
  SyncController sync_;
  Engine engine_;
  int sync_homes_issued_ = 0;
  std::function<void()> pre_reconcile_;
  /// Blocks whose L2 was already discarded by a cluster-fail kill. The
  /// discard is deferred to the block's LAST armed victim: the engine kills
  /// victims in wall order, so an eager discard at the first kill would drop
  /// state that cores still executing at sim cycles BEFORE the fail cycle
  /// write back afterwards — a logically-pre-failure put would then land in
  /// a post-failure L2 and read back as a state that never existed.
  std::vector<bool> l2_discarded_;
  std::vector<bool> l2_cluster_armed_;  ///< block has a cluster-fail rule
  std::vector<int> l2_pending_;  ///< armed victims of the block not yet killed
};

/// Reads results through the hierarchy after a run, the way a verification
/// pass on the real machine would: self-invalidate core 0's private cache
/// (and its block L2 on multi-block machines), then read — values must have
/// been written back by the application's final annotated barrier. On the
/// coherent baseline the invalidation is a no-op and reads are coherent.
class VerifyReader {
 public:
  explicit VerifyReader(Machine& m);

  template <typename T>
  [[nodiscard]] T read(Addr a) {
    T v{};
    m_->hierarchy().read(0, a, sizeof(T), &v);
    return v;
  }

 private:
  Machine* m_;
};

}  // namespace hic
