// Statistics collected during a simulation run.
//
// The categories mirror the paper's evaluation figures exactly:
//   - StallKind: the 5-way execution-time breakdown of Figure 9
//     (INV stall, WB stall, lock stall, barrier stall, rest)
//   - TrafficKind: the 4-way flit breakdown of Figure 10
//     (memory, linefill, writeback, invalidation)
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace hic {

enum class StallKind : std::uint8_t {
  Rest = 0,      ///< useful execution + ordinary miss time
  InvStall,      ///< executing INV flavors (incl. IEB-forced refreshes)
  WbStall,       ///< executing/draining WB flavors
  LockStall,     ///< waiting for a lock grant
  BarrierStall,  ///< waiting at a barrier
  kCount
};
inline constexpr std::size_t kStallKinds =
    static_cast<std::size_t>(StallKind::kCount);
const char* to_string(StallKind k);

enum class TrafficKind : std::uint8_t {
  Linefill = 0,  ///< data moving down into an L1/L2 on a miss
  Writeback,     ///< dirty data moving up toward shared levels
  Invalidation,  ///< coherence control messages (HCC only)
  Memory,        ///< on-chip <-> off-chip memory transfers
  Sync,          ///< synchronization request/response messages
  kCount
};
inline constexpr std::size_t kTrafficKinds =
    static_cast<std::size_t>(TrafficKind::kCount);
const char* to_string(TrafficKind k);

/// Per-core cycle attribution. `total()` equals the core's local clock at the
/// end of the run; the engine guarantees every elapsed cycle lands in exactly
/// one bucket.
class StallAccount {
 public:
  void add(StallKind k, Cycle cycles) {
    cycles_[static_cast<std::size_t>(k)] += cycles;
  }
  [[nodiscard]] Cycle get(StallKind k) const {
    return cycles_[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] Cycle total() const {
    Cycle t = 0;
    for (auto c : cycles_) t += c;
    return t;
  }
  void clear() { cycles_.fill(0); }

 private:
  std::array<Cycle, kStallKinds> cycles_{};
};

/// Global flit counters by category.
class TrafficAccount {
 public:
  void add(TrafficKind k, std::uint64_t flits) {
    flits_[static_cast<std::size_t>(k)] += flits;
  }
  [[nodiscard]] std::uint64_t get(TrafficKind k) const {
    return flits_[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] std::uint64_t total() const {
    std::uint64_t t = 0;
    for (auto f : flits_) t += f;
    return t;
  }
  void clear() { flits_.fill(0); }

 private:
  std::array<std::uint64_t, kTrafficKinds> flits_{};
};

/// Event counters relevant to the evaluation.
struct OpCounts {
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t l1_hits = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t l3_hits = 0;
  std::uint64_t l3_misses = 0;
  std::uint64_t wb_ops = 0;          ///< WB instructions executed
  std::uint64_t inv_ops = 0;         ///< INV instructions executed
  std::uint64_t lines_written_back = 0;
  std::uint64_t lines_invalidated = 0;
  std::uint64_t words_written_back = 0;
  /// Figure 11 counters: WBs that reached L3 / INVs that cleared L2.
  std::uint64_t global_wb_lines = 0;
  std::uint64_t global_inv_lines = 0;
  /// Level-adaptive ops resolved to local (same-block) scope by ThreadMap.
  std::uint64_t adaptive_local_wb = 0;
  std::uint64_t adaptive_global_wb = 0;
  std::uint64_t adaptive_local_inv = 0;
  std::uint64_t adaptive_global_inv = 0;
  /// MEB/IEB effectiveness.
  std::uint64_t meb_wbs = 0;        ///< WB ALLs satisfied from the MEB
  std::uint64_t meb_overflows = 0;
  std::uint64_t ieb_refreshes = 0;  ///< IEB-forced first-read refreshes
  std::uint64_t ieb_evictions = 0;
  /// HCC-only.
  std::uint64_t dir_invalidations_sent = 0;
  std::uint64_t stale_word_reads = 0;  ///< functional-mode staleness monitor
  /// Fault-injection accounting (filled by FaultPlan::reconcile): every
  /// injected fault is either detected (observed stale/corrupt) or tolerated
  /// (provably converged / timing-only) — the two always sum to injected.
  std::uint64_t injected_faults = 0;
  std::uint64_t detected_faults = 0;
  std::uint64_t tolerated_faults = 0;
  /// CoherenceOracle violations (0 unless `--verify` attaches the oracle).
  /// Unlike stale_word_reads these are value-independent: a stale read of an
  /// unchanged value and a lost update both count here.
  std::uint64_t oracle_stale_reads = 0;
  std::uint64_t oracle_write_races = 0;
  std::uint64_t oracle_lost_updates = 0;
  /// Programming-model annotation counters (Table I classification).
  std::uint64_t anno_barriers = 0;
  std::uint64_t anno_critical = 0;
  std::uint64_t anno_flag = 0;
  std::uint64_t anno_occ = 0;
  std::uint64_t anno_racy = 0;
  /// Recovery subsystem (src/resil) — all zero unless --recover attaches a
  /// ResilienceManager. The first four are per-record dispositions filled by
  /// FaultPlan::reconcile; the rest are event counters flushed by the
  /// manager at end of run.
  std::uint64_t resil_corrected = 0;      ///< single-bit ECC repairs
  std::uint64_t resil_retried = 0;        ///< WB/INVs delivered on retransmit
  std::uint64_t resil_quarantined = 0;    ///< uncorrectable, way quarantined
  std::uint64_t resil_unrecoverable = 0;  ///< gave up (exit code 7)
  std::uint64_t resil_retransmits = 0;    ///< retransmission attempts sent
  std::uint64_t resil_dup_suppressed = 0; ///< receiver-side duplicate drops
  std::uint64_t resil_scrub_passes = 0;   ///< completed scrubber sweeps
  std::uint64_t resil_scrub_corrections = 0;  ///< flips fixed by the scrubber
  std::uint64_t resil_quarantined_ways = 0;   ///< cache ways taken offline
  std::uint64_t resil_degraded_blocks = 0;    ///< blocks over error budget
  /// Request-serving surface (src/apps/serve) — all zero for the Table I
  /// kernels. Published post-run by RequestStats from per-request latency
  /// samples; latencies are nearest-rank percentiles in simulated cycles.
  std::uint64_t req_issued = 0;      ///< requests admitted by the generator
  std::uint64_t req_completed = 0;   ///< requests fully served
  std::uint64_t req_remote = 0;      ///< served across an ownership/stage hop
  std::uint64_t req_lat_p50 = 0;     ///< median request latency (cycles)
  std::uint64_t req_lat_p95 = 0;
  std::uint64_t req_lat_p99 = 0;
  std::uint64_t req_lat_max = 0;
  std::uint64_t req_qdepth_peak = 0; ///< peak arrived-but-unserved backlog
  /// Chaos-serving surface (schema v6) — request dispositions under
  /// fail-stop injection. Latency percentiles above cover *completed*
  /// requests only; timed-out/failed requests are counted here and never
  /// contribute sentinel latencies.
  std::uint64_t req_timeouts = 0;    ///< abandoned at their deadline
  std::uint64_t req_retries = 0;     ///< backoff re-attempts issued
  std::uint64_t req_hedged = 0;      ///< hedged (duplicate) attempts fired
  std::uint64_t req_hedge_wins = 0;  ///< hedge result used for the reply
  std::uint64_t req_failed = 0;      ///< gave up (victim-owned, no recovery)
  std::uint64_t slo_violations = 0;  ///< completed late or not at all
  /// Fail-stop failover accounting (filled by FaultPlan::reconcile and the
  /// serving workloads' finish() hooks). The invariant
  /// failover_injected == failover_recovered + failover_degraded +
  /// failover_failed holds on every run.
  std::uint64_t failover_injected = 0;   ///< fail-stopped cores
  std::uint64_t failover_recovered = 0;  ///< absorbed with no loss
  std::uint64_t failover_degraded = 0;   ///< completed with counted loss
  std::uint64_t failover_failed = 0;     ///< not compensated
  std::uint64_t failover_lost_dirty_lines = 0;  ///< dirty lines discarded
  std::uint64_t failover_lost_puts = 0;  ///< un-acked puts lost with victims
  std::uint64_t failover_reacquired = 0; ///< shard ranges re-acquired
};

/// One OpCounts field with its stable JSON key. op_fields() is the writable
/// twin of report.cpp's getter table: report_fields() renders counters out,
/// op_fields() lets the campaign aggregator parse per-point stats JSON back
/// in. A parity test asserts the two tables name identical "ops" keys, so a
/// counter cannot appear in one and silently vanish from the other.
struct OpField {
  const char* key;
  std::uint64_t OpCounts::* member;
};
[[nodiscard]] std::span<const OpField> op_fields();

/// Everything a run produces.
class SimStats {
 public:
  explicit SimStats(int num_cores) : stalls_(num_cores) {}

  [[nodiscard]] int num_cores() const {
    return static_cast<int>(stalls_.size());
  }
  StallAccount& stalls(CoreId c) {
    HIC_CHECK(c >= 0 && c < num_cores());
    return stalls_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] const StallAccount& stalls(CoreId c) const {
    HIC_CHECK(c >= 0 && c < num_cores());
    return stalls_[static_cast<std::size_t>(c)];
  }

  TrafficAccount& traffic() { return traffic_; }
  [[nodiscard]] const TrafficAccount& traffic() const { return traffic_; }

  OpCounts& ops() { return ops_; }
  [[nodiscard]] const OpCounts& ops() const { return ops_; }

  /// Cycles of the longest-running core — the run's execution time.
  [[nodiscard]] Cycle exec_cycles() const;

  /// Sum of a stall kind across cores.
  [[nodiscard]] Cycle total_stall(StallKind k) const;

  void clear();

 private:
  std::vector<StallAccount> stalls_;
  TrafficAccount traffic_;
  OpCounts ops_;
};

}  // namespace hic
