// CoherenceOracle: a value-independent race/staleness detector for the
// hardware-incoherent hierarchy (vector-clock detection in the FastTrack
// lineage, adapted to explicit software coherence management).
//
// The paper's correctness argument is entirely conventional: if every
// producer issues a WB before its release edge and every consumer issues an
// INV after its acquire edge, reads observe the latest happens-before-ordered
// write. The existing staleness monitor can only test that claim by VALUE
// (compare a read against the coherent shadow), which misses three failure
// classes: a stale read of a word whose value happens to be unchanged, a
// lost update (an older dirty copy overwriting a newer one on
// writeback/eviction), and a write-write race. The oracle closes all three:
//
//  - Per-core vector clocks, advanced by SyncController events. Lock
//    release/acquire, barrier arrive/leave, and flag set/wait/add establish
//    the happens-before order (release: L |= C_c, C_c[c]++; acquire:
//    C_c |= L; a barrier releases every arriver into the barrier clock and
//    every leaver acquires the join).
//  - Per-word write stamps (core, epoch, op-index, sync edge) kept in shadow
//    structures parallel to every data location: the global truth, each L1,
//    each block L2, the L3 and DRAM. Stamps move exactly when data moves:
//    fills copy a line's stamps down, writebacks/evictions merge dirty-word
//    stamps up, stores stamp the written words in the writer's L1 and the
//    global truth.
//  - Checks: a load whose HB-latest ordered write stamp differs from the
//    stamp of the cached copy is a STALE READ (no value comparison
//    involved); a store over a concurrent-epoch foreign stamp is a WRITE
//    RACE; a writeback/eviction pushing an older stamp over a newer one is a
//    LOST UPDATE.
//
// Violations are deduplicated, deterministic (the engine serializes cores),
// counted into SimStats (oracle_stale_reads / oracle_write_races /
// oracle_lost_updates), reconciled with FaultPlan accounting, and renderable
// as a human report or a byte-stable JSON log. Off (the default — a null
// pointer in the hierarchy and engine), the oracle costs one pointer test
// per hook, so golden stats and host perf are unchanged.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/machine_config.hpp"
#include "common/types.hpp"

namespace hic {

class FaultPlan;
class SimStats;

/// Identity of one write, attached to every word copy it reaches.
struct WriteStamp {
  CoreId core = kInvalidCore;  ///< writing core; -1 = pre-run initial value
  std::uint64_t epoch = 0;     ///< writer's own vector-clock entry at write
  std::uint64_t seq = 0;       ///< global monotone write index; 0 = initial
  std::uint32_t edge = kNoEdge;  ///< writer's last release edge (label index)
  bool racy = false;  ///< writer declared the access racy (Figure 6b)
  static constexpr std::uint32_t kNoEdge = ~std::uint32_t{0};
};

struct OracleViolation {
  enum class Kind : std::uint8_t { StaleRead, WriteRace, LostUpdate };
  Kind kind = Kind::StaleRead;
  Addr addr = 0;       ///< word-aligned address of the affected word
  Addr line = 0;       ///< containing line address
  int word = 0;        ///< word index within the line
  CoreId observer = kInvalidCore;  ///< reader / racing writer / pushing side
  WriteStamp seen;     ///< the stale / overwriting / racing-prior stamp
  WriteStamp truth;    ///< the HB-latest / overwritten / racing-new stamp
  std::string edge;    ///< sync edge that should have carried the fix
  std::string suggest; ///< suggested annotation
  std::uint64_t count = 1;  ///< occurrences of this exact (deduped) key
};
[[nodiscard]] const char* to_string(OracleViolation::Kind k);

class CoherenceOracle {
 public:
  CoherenceOracle() = default;

  /// Attaches the oracle to a machine (stats and fault plan may be null;
  /// `coherent` marks the HCC baseline, whose hierarchy never calls the
  /// memory hooks — sync hooks then merely maintain clocks).
  void bind(const MachineConfig& mc, SimStats* stats, FaultPlan* plan,
            bool coherent);

  /// Aborts with CheckFailure when any core's epoch reaches `limit`
  /// (wrap/overflow guard; default 2^62 — unreachable in practice, the
  /// guard exists so the failure mode is loud, not silent).
  void set_epoch_limit(std::uint64_t limit) { epoch_limit_ = limit; }

  // --- Happens-before edges (called by the engine's CoreServices) ----------
  void on_lock_acquire(CoreId c, SyncId id);
  void on_lock_release(CoreId c, SyncId id);
  void on_barrier_arrive(CoreId c, SyncId id);
  void on_barrier_complete(SyncId id, std::span<const CoreId> released);
  void on_flag_set(CoreId c, SyncId id);
  void on_flag_wait(CoreId c, SyncId id);
  void on_flag_add(CoreId c, SyncId id);

  /// The next load/store by `c` is a declared racy access (Thread::racy_*):
  /// exempt its stamp from write-race and lost-update checks.
  void mark_racy_next(CoreId c) { racy_next_[idx(c)] = true; }

  // --- Data movement (called by the incoherent hierarchy) ------------------
  void on_store(CoreId c, Addr a, std::uint32_t bytes);
  void on_load(CoreId c, Addr a, std::uint32_t bytes);
  void on_fill_l1(CoreId c, Addr line);
  void on_fill_l2(BlockId b, Addr line);
  void on_fill_l3(Addr line);
  /// Writeback/eviction merges (mask = dirty words moved).
  void on_wb_l1_to_l2(CoreId c, Addr line, std::uint64_t mask);
  void on_wb_l2_to_l3(BlockId b, Addr line, std::uint64_t mask);
  void on_wb_l3_to_mem(Addr line, std::uint64_t mask);
  void on_inv_l1(CoreId c, Addr line);
  void on_inv_l2(BlockId b, Addr line);
  void on_dma(CoreId initiator, BlockId src_block, Addr src,
              BlockId dst_block, Addr dst, std::uint64_t bytes);

  // --- Results -------------------------------------------------------------
  [[nodiscard]] const std::vector<OracleViolation>& violations() const {
    return violations_;
  }
  /// Total occurrences (deduped entries weighted by their repeat counts).
  [[nodiscard]] std::uint64_t total_violations() const { return total_; }
  /// Human-readable report: every deduped violation with both stamps, the
  /// sync edge, and the suggested annotation.
  [[nodiscard]] std::string report() const;
  /// Byte-stable JSON violation log (deterministic across identical runs).
  [[nodiscard]] std::string to_json() const;

 private:
  using StampLine = std::vector<WriteStamp>;
  using StampMap = std::unordered_map<Addr, StampLine>;

  [[nodiscard]] static std::size_t idx(int v) {
    return static_cast<std::size_t>(v);
  }
  [[nodiscard]] std::uint32_t words_per_line() const {
    return line_bytes_ / kWordBytes;
  }
  [[nodiscard]] Addr line_of(Addr a) const {
    return a & ~static_cast<Addr>(line_bytes_ - 1);
  }
  /// The line's stamps in `m`, default-initialized (initial stamps) if new.
  StampLine& stamps(StampMap& m, Addr line);
  /// Read-only: the line's stamp for word `w`, or the initial stamp.
  [[nodiscard]] WriteStamp peek(const StampMap& m, Addr line, int w) const;
  /// Copies the whole line's stamps from `src` into `dst`.
  void copy_line(StampMap& dst, const StampMap& src, Addr line);
  /// Merges masked words src -> dst with the lost-update check.
  void merge_up(StampMap& dst, const StampMap& src, Addr line,
                std::uint64_t mask, const char* level);
  /// L2's fill source / WB sink: the L3 on multi-block machines, DRAM else.
  StampMap& below_l2() { return multi_block_ ? l3_ : mem_; }

  /// True iff the write `g` happens-before core `c`'s current point.
  [[nodiscard]] bool ordered_before(const WriteStamp& g, CoreId c) const;
  /// Joins `src` into `dst` (element-wise max).
  static void join(std::vector<std::uint64_t>& dst,
                   const std::vector<std::uint64_t>& src);
  /// Advances c's own epoch (release bump), enforcing the wrap guard.
  void bump_epoch(CoreId c);
  /// Records a sync edge label; returns its index.
  std::uint32_t note_edge(const char* kind, const char* dir, SyncId id,
                          CoreId c);
  [[nodiscard]] std::string edge_label(std::uint32_t e) const;

  void record(OracleViolation v);
  void check_load_word(CoreId c, Addr line, int w, const StampMap& visible);
  [[nodiscard]] BlockId block_of(CoreId c) const {
    return cores_per_block_ > 0 ? c / cores_per_block_ : 0;
  }

  // Configuration.
  std::uint32_t line_bytes_ = 64;
  int cores_ = 0;
  int blocks_ = 0;
  int cores_per_block_ = 0;
  bool multi_block_ = false;
  bool coherent_ = false;
  std::uint64_t epoch_limit_ = std::uint64_t{1} << 62;
  SimStats* stats_ = nullptr;
  FaultPlan* plan_ = nullptr;

  // Happens-before state.
  std::vector<std::vector<std::uint64_t>> vc_;  ///< vc_[core][core']
  std::unordered_map<SyncId, std::vector<std::uint64_t>> sync_clock_;
  std::uint64_t seq_ = 0;  ///< global write counter (0 = initial values)
  /// Per-core "next access is declared racy" flags.
  std::vector<std::uint8_t> racy_next_;
  std::vector<std::uint32_t> last_acquire_;  ///< per-core edge index
  std::vector<std::uint32_t> last_release_;
  /// One entry per sync operation, rendered lazily by edge_label().
  struct Edge {
    const char* kind;
    const char* dir;
    SyncId id;
    CoreId core;
  };
  std::vector<Edge> edges_;

  // Stamp shadows, parallel to the data locations.
  StampMap global_;             ///< the truth: latest write per word
  std::vector<StampMap> l1_;    ///< per core
  std::vector<StampMap> l2_;    ///< per block
  StampMap l3_;
  StampMap mem_;

  // Results.
  std::vector<OracleViolation> violations_;
  std::unordered_map<std::string, std::size_t> dedup_;
  std::uint64_t total_ = 0;
  std::uint64_t n_stale_ = 0;  ///< occurrence counts, per kind
  std::uint64_t n_race_ = 0;
  std::uint64_t n_lost_ = 0;
};

}  // namespace hic
