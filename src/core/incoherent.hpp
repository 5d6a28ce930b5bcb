// The hardware-incoherent cache hierarchy — the paper's contribution.
//
// Caches never snoop and no directory exists. Data moves between private and
// shared levels only under explicit writeback (WB) and self-invalidation
// (INV) instructions (§III), at word/range/whole-cache granularity, with:
//   - per-word dirty bits so concurrent writers to the same line never
//     overwrite each other's results (the no-data-loss rule of §III-B);
//   - the MEB and IEB entry buffers that make short critical sections cheap
//     (§IV-B);
//   - the per-block ThreadMap table and level-adaptive WB_CONS / INV_PROD
//     instructions for inter-block sharing (§V).
//
// Functionally, each cache level carries real line data: a read genuinely
// returns whatever the L1 holds, which may be stale if the program skipped a
// required INV. The staleness monitor counts reads whose value differs from
// the instantly-coherent shadow.
#pragma once

#include <optional>
#include <vector>

#include "core/entry_buffers.hpp"
#include "core/thread_map.hpp"
#include "fault/fault_plan.hpp"
#include "hierarchy/memory_hierarchy.hpp"
#include "mem/cache.hpp"

namespace hic {

/// Which of the paper's hardware buffers the configuration enables
/// (Table II: Base, B+M, B+I, B+M+I).
struct IncoherentOptions {
  bool use_meb = false;
  bool use_ieb = false;
};

class IncoherentHierarchy final : public HierarchyBase {
 public:
  IncoherentHierarchy(const MachineConfig& cfg, GlobalMemory& gmem,
                      SimStats& stats, IncoherentOptions opts = {});

  AccessOutcome read(CoreId core, Addr a, std::uint32_t bytes,
                     void* out) override;
  AccessOutcome write(CoreId core, Addr a, std::uint32_t bytes,
                      const void* in) override;

  Cycle wb_range(CoreId core, AddrRange r, Level to) override;
  Cycle wb_all(CoreId core, Level to) override;
  Cycle inv_range(CoreId core, AddrRange r, Level from) override;
  Cycle inv_all(CoreId core, Level from) override;

  Cycle wb_cons(CoreId core, AddrRange r, ThreadId consumer) override;
  Cycle wb_cons_all(CoreId core, ThreadId consumer) override;
  Cycle inv_prod(CoreId core, AddrRange r, ThreadId producer) override;
  Cycle inv_prod_all(CoreId core, ThreadId producer) override;

  Cycle cs_enter(CoreId core) override;
  Cycle cs_exit(CoreId core) override;

  Cycle dma_copy(BlockId src_block, Addr src, BlockId dst_block, Addr dst,
                 std::uint64_t bytes) override;

  void map_thread(ThreadId t, CoreId c) override;
  [[nodiscard]] bool coherent() const override { return false; }

  [[nodiscard]] const IncoherentOptions& options() const { return opts_; }

  // --- Introspection (tests) ----------------------------------------------
  [[nodiscard]] const Cache& l1(CoreId core) const {
    return l1_[static_cast<std::size_t>(core)];
  }
  [[nodiscard]] const Cache& l2(BlockId block) const {
    return l2_[static_cast<std::size_t>(block)];
  }
  [[nodiscard]] const Cache* l3() const {
    return l3_.has_value() ? &*l3_ : nullptr;
  }
  [[nodiscard]] const ModifiedEntryBuffer& meb(CoreId core) const {
    return meb_[static_cast<std::size_t>(core)];
  }
  [[nodiscard]] const InvalidatedEntryBuffer& ieb(CoreId core) const {
    return ieb_[static_cast<std::size_t>(core)];
  }
  [[nodiscard]] const ThreadMap& thread_map(BlockId block) const {
    return tmap_[static_cast<std::size_t>(block)];
  }
  [[nodiscard]] bool in_critical_section(CoreId core) const {
    return cs_active_[static_cast<std::size_t>(core)];
  }
  /// Reads the current value of a word as stored at a given level (for
  /// tests that assert what each level sees). Returns false if not present.
  bool peek_level(Level lv, CoreId core_or_block, Addr a, void* out,
                  std::uint32_t bytes) const;

  // --- Recovery-manager callbacks (bound by the Machine) -------------------
  /// Scrubber target: repairs the cached copy of (core, line) in place, or
  /// drops the flip journal entry if the line is no longer resident.
  void scrub_line(CoreId core, Addr line);
  /// Quarantines the L1 frame currently holding (core, line); false if the
  /// frame must stay (last usable way of its set) or the line is absent.
  bool quarantine_l1_way(CoreId core, Addr line);
  /// Degrades every L1 of `block` to one usable way per set (graceful
  /// cluster degradation); returns the number of ways newly quarantined.
  std::uint32_t degrade_block(BlockId block);

  // --- Fail-stop (chaos) callbacks -----------------------------------------
  /// A core fail-stopped: its entire L1 is invalidated WITHOUT writeback
  /// (dirty words die with the core) and its MEB/IEB are reset. Returns the
  /// number of dirty lines lost.
  std::uint64_t discard_core_l1(CoreId core);
  /// A whole block fail-stopped (cluster-fail): its shared L2 is likewise
  /// dropped without writeback. Returns the dirty lines lost.
  std::uint64_t discard_block_l2(BlockId block);

  /// Fault reconciliation: true if the injected fault is still observable —
  /// the value a consumer (or, for dropped INVs / corrupted stores, the
  /// faulted core itself) would read for the line disagrees with the
  /// instantly-coherent shadow. Non-mutating: walks the cached copies with
  /// peek_level instead of issuing reads. Requires functional_data.
  [[nodiscard]] bool fault_visible(const FaultRecord& r) const;

 private:
  // --- Level plumbing -------------------------------------------------------
  [[nodiscard]] Cache& l1_of(CoreId c) {
    return l1_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] Cache& l2_of(BlockId b) {
    return l2_[static_cast<std::size_t>(b)];
  }

  /// Merges `mask`-selected words of `src` into the destination line bytes.
  static void merge_words(std::span<std::byte> dst,
                          std::span<const std::byte> src, std::uint64_t mask,
                          std::uint32_t line_bytes);

  /// Ensures the line is present in the block's L2 (fetching from L3/memory
  /// on miss); returns added latency. Out: the L2 line.
  Cycle ensure_l2_line(BlockId block, Addr line, CacheLine** out);
  /// Ensures the line is present in the L3.
  Cycle ensure_l3_line(Addr line, CacheLine** out);

  /// Fetches a line into the core's L1 from the levels below (the read/write
  /// miss path); returns the latency.
  Cycle fetch_to_l1(CoreId core, Addr line);

  /// Writes `mask` words of line data into the block's L2 (allocating on
  /// absence), marking them dirty there. `data` is the full source line.
  void push_words_to_l2(BlockId block, Addr line,
                        std::span<const std::byte> data, std::uint64_t mask);
  /// Same, into the L3 (or DRAM when the machine has no L3).
  void push_words_to_l3(BlockId block, Addr line,
                        std::span<const std::byte> data, std::uint64_t mask);
  void push_words_to_dram(Addr line, std::span<const std::byte> data,
                          std::uint64_t mask);

  /// Handles an L1 victim: dirty words flow to L2.
  void handle_l1_eviction(CoreId core, const EvictedLine& ev);
  /// Handles an L2 victim: dirty words flow to L3/DRAM.
  void handle_l2_eviction(BlockId block, const EvictedLine& ev);
  void handle_l3_eviction(const EvictedLine& ev);

  // --- WB/INV internals -----------------------------------------------------
  /// Writes back the core's dirty words of one L1 line to L2 (and, when `to`
  /// is L3, pushes the line's L2-dirty words onward to L3). Returns the
  /// per-line latency contribution (0 if nothing was dirty).
  Cycle wb_line(CoreId core, Addr line, Level to);
  /// Invalidates one line from L1 (and from L2 when `from` is L2), writing
  /// dirty words back first per §III-B. Returns per-line latency.
  Cycle inv_line(CoreId core, Addr line, Level from);
  /// Reliable-delivery loop for the drop-WB / drop-INV injection points:
  /// retransmits with timeout + exponential backoff until delivered or the
  /// attempt cap is hit. Adds latency to `lat`; returns delivered. Requires
  /// an attached ResilienceManager.
  bool reliable_send(CoreId core, Addr line, FaultKind kind,
                     std::uint64_t mask, Cycle& lat);

  [[nodiscard]] Cycle traversal_cycles(std::uint32_t lines) const {
    return (lines + cfg_.costs.tags_checked_per_cycle - 1) /
           cfg_.costs.tags_checked_per_cycle;
  }
  /// Fills the block's scratch buffer with the resident line addresses
  /// inside [first, last] (L1 of `core`, plus the block L2 when
  /// `include_l2`), ascending, deduped; returns it. Lets wb_range/inv_range
  /// walk O(min(range, cache)) lines instead of one probe per address — no
  /// allocation: the buffers are reserved once.
  std::vector<Addr>& collect_resident_lines(CoreId core, Addr first,
                                            Addr last, bool include_l2);

  /// DRAM round trip from a node.
  Cycle memory_fetch(NodeId at);

  IncoherentOptions opts_;
  std::vector<Cache> l1_;  ///< per core, with data
  std::vector<Cache> l2_;  ///< per block (logical banked), with data
  std::optional<Cache> l3_;
  std::vector<ModifiedEntryBuffer> meb_;   ///< per core
  std::vector<InvalidatedEntryBuffer> ieb_;  ///< per core
  std::vector<ThreadMap> tmap_;            ///< per block
  std::vector<bool> cs_active_;            ///< per core
  /// collect_resident_lines buffers (hot path), one per block.
  std::vector<std::vector<Addr>> scratch_;
};

}  // namespace hic
