#include "core/incoherent.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>  // the HIC_TRACE_STALE debug hook
#include <cstring>

#include "resil/resil.hpp"
#include "verify/oracle.hpp"

namespace hic {

IncoherentHierarchy::IncoherentHierarchy(const MachineConfig& cfg,
                                         GlobalMemory& gmem, SimStats& stats,
                                         IncoherentOptions opts)
    : HierarchyBase(cfg, gmem, stats), opts_(opts) {
  const bool data = cfg_.functional_data;
  for (int c = 0; c < cfg_.total_cores(); ++c) {
    l1_.emplace_back(cfg_.l1, data);
    meb_.emplace_back(cfg_.meb_entries);
    ieb_.emplace_back(cfg_.ieb_entries);
  }
  CacheParams l2 = cfg_.l2_bank;
  l2.size_bytes *= static_cast<std::uint32_t>(cfg_.cores_per_block);
  for (int b = 0; b < cfg_.blocks; ++b) l2_.emplace_back(l2, data);
  tmap_.resize(static_cast<std::size_t>(cfg_.blocks));
  if (cfg_.multi_block()) {
    CacheParams l3 = cfg_.l3_bank;
    l3.size_bytes *= static_cast<std::uint32_t>(cfg_.l3_banks);
    l3_.emplace(l3, data);
  }
  cs_active_.assign(static_cast<std::size_t>(cfg_.total_cores()), false);
  scratch_.resize(static_cast<std::size_t>(cfg_.blocks));
  for (auto& s : scratch_)
    s.reserve(l1_[0].params().num_lines() + l2_[0].params().num_lines());
}

void IncoherentHierarchy::map_thread(ThreadId t, CoreId c) {
  HierarchyBase::map_thread(t, c);
  tmap_[static_cast<std::size_t>(cfg_.block_of(c))].add(t);
}

void IncoherentHierarchy::merge_words(std::span<std::byte> dst,
                                      std::span<const std::byte> src,
                                      std::uint64_t mask,
                                      std::uint32_t line_bytes) {
  for (std::uint32_t w = 0; w * kWordBytes < line_bytes; ++w) {
    if ((mask & (1ULL << w)) == 0) continue;
    std::memcpy(dst.data() + w * kWordBytes, src.data() + w * kWordBytes,
                kWordBytes);
  }
}

// --- Read ---------------------------------------------------------------------

AccessOutcome IncoherentHierarchy::read(CoreId core, Addr a,
                                        std::uint32_t bytes, void* out) {
  check_access(a, bytes);
  const Addr line = align_down(a, cfg_.l1.line_bytes);
  ++stats_->ops().loads;

  Cache& l1 = l1_of(core);
  Cycle lat = cfg_.l1.rt_cycles;
  Cycle inv_pen = 0;
  CacheLine* l = l1.touch(line);
  bool refreshed_resident = false;

  // IEB epoch (§IV-B2): on-entry invalidation was skipped; the first read of
  // each line this epoch self-invalidates any resident copy and refetches.
  if (cs_active_[static_cast<std::size_t>(core)] && opts_.use_ieb) {
    lat += 1;  // IEB lookup
    auto& ieb = ieb_[static_cast<std::size_t>(core)];
    const std::uint64_t mask = l1.word_mask(a, bytes);
    const bool target_words_dirty =
        l != nullptr && (l->dirty_mask & mask) == mask;
    if (!ieb.contains(line) && !target_words_dirty) {
      if (ieb.insert(line)) {
        ++stats_->ops().ieb_evictions;
        trace_cache("ieb_evict", line);
      }
      if (l != nullptr) {
        if (l->dirty()) {
          // No-data-loss: dirty words reach the L2 before invalidation.
          const Cycle c = wb_line(core, line, Level::L2);
          lat += c;
          inv_pen += c;
        }
        l1.invalidate(*l);
        if (resil_ != nullptr && resil_->has_flips())
          resil_->forget(core, line);
        if (oracle_ != nullptr) oracle_->on_inv_l1(core, line);
        l = nullptr;
        refreshed_resident = true;
        ++stats_->ops().ieb_refreshes;
        trace_cache("ieb_refresh", line);
      }
    }
  }

  const bool hit = l != nullptr;
  if (hit) {
    ++stats_->ops().l1_hits;
  } else {
    ++stats_->ops().l1_misses;
    const Cycle f = fetch_to_l1(core, line);
    lat += f;
    if (refreshed_resident) inv_pen += f;  // miss caused by self-invalidation
    l = l1.find(line);
    HIC_DCHECK(l != nullptr);
  }
  // Oracle stale-read check: after the fill hooks, before the value-based
  // staleness monitor (the two are independent detectors).
  if (oracle_ != nullptr) oracle_->on_load(core, a, bytes);

  bool stale = false;
  if (l1.has_data()) {
    // ECC: repair outstanding injected flips before the value leaves the L1
    // (a corrected word charges the repair latency; an uncorrectable word is
    // restored and the frame takes a quarantine strike).
    if (resil_ != nullptr && resil_->has_flips())
      lat += resil_->repair(core, line, l1.data_of(*l), false);
    std::memcpy(out, l1.data_of(*l).data() + (a - line), bytes);
    // Staleness monitor: compare against the instantly-coherent shadow.
    // The knob only suppresses the stats-side shadow read + memcmp (cycles
    // are identical either way); an armed fault plan keeps detection live
    // so injected faults are never silently missed.
    if (cfg_.staleness_monitor ||
        (fault_plan_ != nullptr && !fault_plan_->empty())) {
      std::byte fresh[64];
      gmem_->shadow_read_raw(a, fresh, bytes);
        if (std::memcmp(out, fresh, bytes) != 0) {
        stale = true;
        ++stats_->ops().stale_word_reads;
        // An injected fault on this line is now *observed*, not silent.
        if (fault_plan_ != nullptr) fault_plan_->on_stale_read(line);
#ifdef HIC_TRACE_STALE
        // Debug hook: build with -DHIC_TRACE_STALE to log every stale read.
        std::fprintf(stderr, "STALE read core=%d addr=0x%llx bytes=%u\n", core,
                     static_cast<unsigned long long>(a), bytes);
#endif
      }
    }
  } else {
    gmem_->shadow_read_raw(a, out, bytes);
  }
  return {lat, hit, stale, inv_pen};
}

// --- Write --------------------------------------------------------------------

AccessOutcome IncoherentHierarchy::write(CoreId core, Addr a,
                                         std::uint32_t bytes, const void* in) {
  check_access(a, bytes);
  const Addr line = align_down(a, cfg_.l1.line_bytes);
  ++stats_->ops().stores;

  Cache& l1 = l1_of(core);
  Cycle lat = cfg_.l1.rt_cycles;
  CacheLine* l = l1.touch(line);
  const bool hit = l != nullptr;
  if (hit) {
    ++stats_->ops().l1_hits;
  } else {
    ++stats_->ops().l1_misses;
    lat += fetch_to_l1(core, line);  // write-allocate
    l = l1.find(line);
    HIC_DCHECK(l != nullptr);
  }

  const std::uint64_t mask = l1.word_mask(a, bytes);
  const std::uint64_t newly_dirty = mask & ~l->dirty_mask;
  // The MEB snoops L1 writes: a clean word turning dirty inserts the line's
  // physical slot ID (§IV-B1).
  if (newly_dirty != 0 && opts_.use_meb &&
      cs_active_[static_cast<std::size_t>(core)]) {
    meb_[static_cast<std::size_t>(core)].record(l1.slot_of(*l));
  }
  l1.mark_dirty(*l, mask);
  if (l1.has_data())
    std::memcpy(l1.data_of(*l).data() + (a - line), in, bytes);
  gmem_->shadow_write_raw(a, in, bytes);
  if (oracle_ != nullptr) oracle_->on_store(core, a, bytes);
  // Fault injection: flip bits of the cached copy only (the shadow keeps the
  // true value, so the corruption is observable as a stale read). With a
  // recovery manager attached each flip is journaled — the ECC model repairs
  // a single flipped bit per word, and restores-but-quarantines on multi-bit
  // damage — and the store first clears any journal entries it overwrites.
  if (fault_plan_ != nullptr && l1.has_data()) {
    if (resil_ != nullptr && resil_->has_flips())
      resil_->note_store(core, line, static_cast<std::uint32_t>(a - line),
                         bytes);
    std::uint32_t bits[8];
    const std::size_t rec = fault_plan_->record_count();
    const int n = fault_plan_->should_corrupt_store(core, line, bytes, mask,
                                                    bits, 8);
    if (n > 0) {
      auto data = l1.data_of(*l);
      for (int i = 0; i < n; ++i) {
        const auto off =
            static_cast<std::uint32_t>(a - line) + bits[i] / 8;
        const auto bit = static_cast<std::uint8_t>(1u << (bits[i] % 8));
        if (resil_ != nullptr)
          resil_->register_flip(core, line, off, bit,
                                static_cast<std::uint8_t>(data[off]), rec);
        data[off] ^= std::byte{bit};
      }
    }
  }
  return {lat, hit, false, 0};
}

// --- Miss path ------------------------------------------------------------------

Cycle IncoherentHierarchy::fetch_to_l1(CoreId core, Addr line) {
  trace_cache("l1_fill", line);
  const BlockId block = cfg_.block_of(core);
  const NodeId bank = topo_.l2_bank_node(block, topo_.l2_bank_of(line));
  Cycle lat = topo_.round_trip(topo_.core_node(core), bank) +
              cfg_.l2_bank.rt_cycles;
  add_traffic(TrafficKind::Linefill,
              topo_.control_flits() + line_flits());
  // Fault injection: the request loses `r` deliveries on the core->bank path
  // and repays the retry/backoff latency (timing-only, always tolerated).
  if (fault_plan_ != nullptr) {
    if (const int r = fault_plan_->noc_retries(core); r > 0) {
      const Cycle extra =
          topo_.retry_latency(topo_.core_node(core), bank, r);
      lat += extra;
      fault_plan_->note_noc_delay(extra);
    }
  }

  CacheLine* l2l = nullptr;
  lat += ensure_l2_line(block, line, &l2l);

  Cache& l1 = l1_of(core);
  std::optional<EvictedLine> ev;
  CacheLine& nl = l1.allocate(line, ev);
  if (ev.has_value()) handle_l1_eviction(core, *ev);
  if (l1.has_data()) {
    // The victim writeback may itself have displaced the L2 line we fetched
    // (writeback-allocate); re-find it before copying.
    Cache& l2 = l2_of(block);
    CacheLine* src = l2.find(line);
    if (src == nullptr) ensure_l2_line(block, line, &src);
    auto dst = l1.data_of(nl);
    std::memcpy(dst.data(), l2.data_of(*src).data(), dst.size());
  }
  if (oracle_ != nullptr) oracle_->on_fill_l1(core, line);
  return lat;
}

Cycle IncoherentHierarchy::ensure_l2_line(BlockId block, Addr line,
                                          CacheLine** out) {
  Cache& l2 = l2_of(block);
  if (CacheLine* l2l = l2.touch(line)) {
    ++stats_->ops().l2_hits;
    *out = l2l;
    return 0;
  }
  ++stats_->ops().l2_misses;
  trace_cache("l2_fill", line);
  const NodeId bank = topo_.l2_bank_node(block, topo_.l2_bank_of(line));
  Cycle lat = 0;

  if (cfg_.multi_block()) {
    const NodeId l3n = topo_.l3_bank_node(topo_.l3_bank_of(line));
    lat += topo_.round_trip(bank, l3n) + cfg_.l3_bank.rt_cycles;
    add_traffic(TrafficKind::Linefill,
                topo_.control_flits() + line_flits());
    CacheLine* l3l = nullptr;
    lat += ensure_l3_line(line, &l3l);
    std::optional<EvictedLine> ev;
    CacheLine& nl = l2.allocate(line, ev);
    if (ev.has_value()) handle_l2_eviction(block, *ev);
    if (l2.has_data()) {
      // The L2 victim writeback may have displaced the L3 source; re-find.
      CacheLine* src = l3_->find(line);
      if (src == nullptr) ensure_l3_line(line, &src);
      auto dst = l2.data_of(nl);
      std::memcpy(dst.data(), l3_->data_of(*src).data(), dst.size());
    }
    *out = &nl;
  } else {
    lat += memory_fetch(bank);
    std::optional<EvictedLine> ev;
    CacheLine& nl = l2.allocate(line, ev);
    if (ev.has_value()) handle_l2_eviction(block, *ev);
    if (l2.has_data()) gmem_->dram_read(line, l2.data_of(nl));
    *out = &nl;
  }
  if (oracle_ != nullptr) oracle_->on_fill_l2(block, line);
  return lat;
}

Cycle IncoherentHierarchy::ensure_l3_line(Addr line, CacheLine** out) {
  HIC_DCHECK(l3_.has_value());
  if (CacheLine* l3l = l3_->touch(line)) {
    ++stats_->ops().l3_hits;
    *out = l3l;
    return 0;
  }
  ++stats_->ops().l3_misses;
  trace_cache("l3_fill", line);
  const NodeId l3n = topo_.l3_bank_node(topo_.l3_bank_of(line));
  const Cycle lat = memory_fetch(l3n);
  std::optional<EvictedLine> ev;
  CacheLine& nl = l3_->allocate(line, ev);
  if (ev.has_value()) handle_l3_eviction(*ev);
  if (l3_->has_data()) gmem_->dram_read(line, l3_->data_of(nl));
  *out = &nl;
  if (oracle_ != nullptr) oracle_->on_fill_l3(line);
  return lat;
}

Cycle IncoherentHierarchy::memory_fetch(NodeId at) {
  const NodeId mem = topo_.memory_node_near(at);
  add_traffic(TrafficKind::Memory, topo_.control_flits() + line_flits());
  return topo_.round_trip(at, mem) + cfg_.memory_rt_cycles;
}

// --- Writeback plumbing -----------------------------------------------------------

void IncoherentHierarchy::push_words_to_l2(BlockId block, Addr line,
                                           std::span<const std::byte> data,
                                           std::uint64_t mask) {
  if (mask == 0) return;
  Cache& l2 = l2_of(block);
  CacheLine* l2l = l2.find(line);
  if (l2l == nullptr) {
    // Writeback-allocate: the L2 fetches the base line from below and merges
    // the incoming dirty words over it.
    ensure_l2_line(block, line, &l2l);
  }
  if (l2.has_data() && !data.empty())
    merge_words(l2.data_of(*l2l), data, mask, cfg_.l1.line_bytes);
  l2.mark_dirty(*l2l, mask);
  const auto words = static_cast<std::uint32_t>(std::popcount(mask));
  add_traffic(TrafficKind::Writeback, data_flits(words * kWordBytes));
}

void IncoherentHierarchy::push_words_to_l3(BlockId block, Addr line,
                                           std::span<const std::byte> data,
                                           std::uint64_t mask) {
  if (mask == 0) return;
  if (!cfg_.multi_block()) {
    push_words_to_dram(line, data, mask);
    return;
  }
  (void)block;
  CacheLine* l3l = l3_->find(line);
  if (l3l == nullptr) ensure_l3_line(line, &l3l);
  if (l3_->has_data() && !data.empty())
    merge_words(l3_->data_of(*l3l), data, mask, cfg_.l1.line_bytes);
  l3_->mark_dirty(*l3l, mask);
  const auto words = static_cast<std::uint32_t>(std::popcount(mask));
  add_traffic(TrafficKind::Writeback, data_flits(words * kWordBytes));
}

void IncoherentHierarchy::push_words_to_dram(Addr line,
                                             std::span<const std::byte> data,
                                             std::uint64_t mask) {
  if (mask == 0) return;
  if (!data.empty()) {
    for (std::uint32_t w = 0; w * kWordBytes < cfg_.l1.line_bytes; ++w) {
      if ((mask & (1ULL << w)) == 0) continue;
      gmem_->dram_write(line + w * kWordBytes,
                        data.subspan(w * kWordBytes, kWordBytes));
    }
  }
  const auto words = static_cast<std::uint32_t>(std::popcount(mask));
  add_traffic(TrafficKind::Memory, data_flits(words * kWordBytes));
}

void IncoherentHierarchy::handle_l1_eviction(CoreId core,
                                             const EvictedLine& ev) {
  if (ev.dirty_mask == 0) {
    // A clean line left L1; any journaled flips on it vanished with it.
    if (resil_ != nullptr && resil_->has_flips())
      resil_->forget(core, ev.line_addr);
    return;
  }
  trace_cache("l1_evict", ev.line_addr);
  if (resil_ != nullptr && resil_->has_flips() && !ev.data.empty()) {
    // ECC checks the outgoing copy in the victim buffer; the repair steals
    // buffer cycles rather than core time, so no latency is charged here.
    EvictedLine fixed = ev;
    resil_->repair(core, fixed.line_addr, {fixed.data.data(), fixed.data.size()},
                   /*scrubbing=*/false);
    push_words_to_l2(cfg_.block_of(core), fixed.line_addr,
                     {fixed.data.data(), fixed.data.size()}, fixed.dirty_mask);
  } else {
    if (resil_ != nullptr && resil_->has_flips())
      resil_->forget(core, ev.line_addr);
    push_words_to_l2(cfg_.block_of(core), ev.line_addr,
                     {ev.data.data(), ev.data.size()}, ev.dirty_mask);
  }
  if (oracle_ != nullptr)
    oracle_->on_wb_l1_to_l2(core, ev.line_addr, ev.dirty_mask);
}

void IncoherentHierarchy::handle_l2_eviction(BlockId block,
                                             const EvictedLine& ev) {
  if (ev.dirty_mask == 0) return;
  trace_cache("l2_evict", ev.line_addr);
  push_words_to_l3(block, ev.line_addr, {ev.data.data(), ev.data.size()},
                   ev.dirty_mask);
  if (oracle_ != nullptr)
    oracle_->on_wb_l2_to_l3(block, ev.line_addr, ev.dirty_mask);
}

void IncoherentHierarchy::handle_l3_eviction(const EvictedLine& ev) {
  if (ev.dirty_mask == 0) return;
  trace_cache("l3_evict", ev.line_addr);
  push_words_to_dram(ev.line_addr, {ev.data.data(), ev.data.size()},
                     ev.dirty_mask);
  if (oracle_ != nullptr) oracle_->on_wb_l3_to_mem(ev.line_addr, ev.dirty_mask);
}

// --- WB / INV instructions (§III-B) -----------------------------------------------

// Reliable-delivery wrapper around the drop-WB / drop-INV injection points.
// Each loop iteration draws the fault rule once more: a firing rule models
// the loss of that attempt's message (or of its ACK), and the sender
// retransmits after the timeout with exponential backoff until an attempt
// survives or the cap is exhausted. Every fault record the loop appends is
// classified Retried (delivered eventually) or Unrecoverable (gave up).
// Returns whether the transfer was delivered; adds the recovery latency to
// `lat`. Only called with a ResilienceManager attached.
bool IncoherentHierarchy::reliable_send(CoreId core, Addr line, FaultKind kind,
                                        std::uint64_t mask, Cycle& lat) {
  HIC_DCHECK(kind == FaultKind::DropWb || kind == FaultKind::DropInv);
  const bool is_wb = kind == FaultKind::DropWb;
  const std::size_t first = fault_plan_->record_count();
  const NodeId src = topo_.core_node(core);
  const NodeId dst =
      topo_.l2_bank_node(cfg_.block_of(core), topo_.l2_bank_of(line));
  const ResilOptions& o = resil_->opts();
  resil_->next_seq(core);  // every transfer carries a fresh sequence number
  bool delivered = true;
  int failures = 0;
  while (is_wb ? fault_plan_->should_drop_wb(core, line, mask)
               : fault_plan_->should_drop_inv(core, line)) {
    ++failures;
    if (resil_->ack_lost()) {
      // The payload arrived and only the ACK was lost: the timed-out sender
      // retransmits once more and the receiver suppresses the copy as a
      // duplicate of an already-applied sequence number.
      lat += topo_.retransmit_latency(src, dst, failures, o.retry_timeout,
                                      o.backoff_base, o.backoff_cap,
                                      resil_->jitter());
      resil_->note_retransmit();
      resil_->note_dup_suppressed();
      trace_cache("resil_dup_suppressed", line);
      break;
    }
    if (failures >= o.max_attempts) {
      // Retransmit cap exhausted: the transfer is abandoned and behaves like
      // a legacy (unrecovered) drop; the run will exit Unrecoverable.
      lat += o.retry_timeout;
      delivered = false;
      break;
    }
    lat += topo_.retransmit_latency(src, dst, failures, o.retry_timeout,
                                    o.backoff_base, o.backoff_cap,
                                    resil_->jitter());
    resil_->note_retransmit();
    trace_cache("resil_retransmit", line);
  }
  if (fault_plan_->record_count() > first) {
    fault_plan_->mark_recovery(
        first, delivered ? Recovery::Retried : Recovery::Unrecoverable);
    if (!delivered) {
      resil_->note_unrecoverable();
      trace_cache("resil_unrecoverable", line);
    }
  }
  return delivered;
}

// --- Recovery-manager callbacks (bound by the Machine) ------------------------

void IncoherentHierarchy::scrub_line(CoreId core, Addr line) {
  Cache& l1 = l1_of(core);
  CacheLine* l = l1.find(line);
  if (l == nullptr || !l1.has_data()) {
    // The journal outlived the cached copy (or we run timing-only);
    // nothing to scrub.
    if (resil_ != nullptr) resil_->forget(core, line);
    return;
  }
  trace_cache("resil_scrub", line);
  resil_->repair(core, line, l1.data_of(*l), /*scrubbing=*/true);
}

bool IncoherentHierarchy::quarantine_l1_way(CoreId core, Addr line) {
  const bool ok = l1_of(core).quarantine_frame_of(line);
  if (ok) trace_cache("resil_quarantine", line);
  return ok;
}

std::uint32_t IncoherentHierarchy::degrade_block(BlockId block) {
  std::uint32_t ways = 0;
  const CoreId lo = block * cfg_.cores_per_block;
  for (CoreId c = lo; c < lo + cfg_.cores_per_block; ++c)
    ways += l1_of(c).quarantine_all_but_one();
  trace_cache("resil_degrade_block", 0);
  return ways;
}

std::uint64_t IncoherentHierarchy::discard_core_l1(CoreId core) {
  Cache& l1 = l1_of(core);
  const std::uint64_t lost = l1.dirty_line_count();
  l1.invalidate_all();
  meb_[static_cast<std::size_t>(core)].reset();
  ieb_[static_cast<std::size_t>(core)].reset();
  trace_cache("chaos_discard_l1", 0);
  return lost;
}

std::uint64_t IncoherentHierarchy::discard_block_l2(BlockId block) {
  Cache& l2 = l2_of(block);
  const std::uint64_t lost = l2.dirty_line_count();
  l2.invalidate_all();
  trace_cache("chaos_discard_l2", 0);
  return lost;
}

Cycle IncoherentHierarchy::wb_line(CoreId core, Addr line, Level to) {
  Cycle lat = 1;  // tag check
  Cache& l1 = l1_of(core);
  const BlockId block = cfg_.block_of(core);
  if (CacheLine* l = l1.find(line); l != nullptr && l->dirty()) {
    // ECC: repair any journaled flips before the words leave the L1.
    if (resil_ != nullptr && resil_->has_flips() && l1.has_data())
      lat += resil_->repair(core, line, l1.data_of(*l), false);
    // Fault injection: the WB message is lost AFTER the cache marked the
    // line clean — the update silently never reaches the shared level (the
    // paper's Fig. 4 failure mode, §IV). Timing is unchanged. With recovery
    // attached the transfer is sequence-numbered and retransmitted on
    // timeout, so a drop costs only latency unless the cap is exhausted.
    bool delivered = true;
    if (fault_plan_ != nullptr) {
      delivered =
          resil_ == nullptr
              ? !fault_plan_->should_drop_wb(core, line, l->dirty_mask)
              : reliable_send(core, line, FaultKind::DropWb, l->dirty_mask,
                              lat);
    }
    if (!delivered) {
      l1.clear_dirty(*l);
      lat += cfg_.costs.per_line_writeback_cycles;
    } else {
      std::span<const std::byte> data;
      if (l1.has_data()) data = l1.data_of(*l);
      push_words_to_l2(block, line, data, l->dirty_mask);
      if (oracle_ != nullptr) oracle_->on_wb_l1_to_l2(core, line, l->dirty_mask);
      ++stats_->ops().lines_written_back;
      stats_->ops().words_written_back +=
          static_cast<std::uint64_t>(std::popcount(l->dirty_mask));
      l1.clear_dirty(*l);  // left clean valid (§III-B)
      lat += cfg_.costs.per_line_writeback_cycles;
    }
  }
  if (to == Level::L3) {
    // Figure 11 counter: one global WB per line the instruction targets
    // (the WB "goes to L3" whether or not the line is still dirty here).
    ++stats_->ops().global_wb_lines;
    Cache& l2 = l2_of(block);
    if (CacheLine* l2l = l2.find(line); l2l != nullptr && l2l->dirty()) {
      std::span<const std::byte> data;
      if (l2.has_data()) data = l2.data_of(*l2l);
      push_words_to_l3(block, line, data, l2l->dirty_mask);
      if (oracle_ != nullptr)
        oracle_->on_wb_l2_to_l3(block, line, l2l->dirty_mask);
      l2.clear_dirty(*l2l);
      lat += cfg_.costs.per_line_writeback_cycles;
    }
  }
  return lat;
}

Cycle IncoherentHierarchy::inv_line(CoreId core, Addr line, Level from) {
  Cycle lat = 1;  // tag check
  Cache& l1 = l1_of(core);
  const BlockId block = cfg_.block_of(core);
  const bool also_l2 = from == Level::L2 || from == Level::L3;
  // Fault injection: the INV message is lost and the (possibly stale) cached
  // copy survives. Only fires when a copy actually exists, so every injected
  // drop is a real sabotage opportunity rather than a no-op. With recovery
  // attached the INV is a reliable transfer and a drop only costs latency.
  if (l1.find(line) != nullptr && fault_plan_ != nullptr) {
    const bool delivered =
        resil_ == nullptr ? !fault_plan_->should_drop_inv(core, line)
                          : reliable_send(core, line, FaultKind::DropInv, 0,
                                          lat);
    if (!delivered) return lat;
  }
  if (CacheLine* l = l1.find(line)) {
    if (l->dirty()) {
      // §III-B: dirty data is written back before the line is invalidated,
      // so INV never loses co-located updates. ECC repairs the copy first.
      if (resil_ != nullptr && resil_->has_flips() && l1.has_data())
        lat += resil_->repair(core, line, l1.data_of(*l), false);
      std::span<const std::byte> data;
      if (l1.has_data()) data = l1.data_of(*l);
      push_words_to_l2(block, line, data, l->dirty_mask);
      if (oracle_ != nullptr) oracle_->on_wb_l1_to_l2(core, line, l->dirty_mask);
      ++stats_->ops().lines_written_back;
      lat += cfg_.costs.per_line_writeback_cycles;
    }
    l1.invalidate(*l);
    if (resil_ != nullptr && resil_->has_flips()) resil_->forget(core, line);
    if (oracle_ != nullptr) oracle_->on_inv_l1(core, line);
    ++stats_->ops().lines_invalidated;
  }
  if (also_l2) {
    // Figure 11 counter: one global INV per targeted line.
    ++stats_->ops().global_inv_lines;
    Cache& l2 = l2_of(block);
    if (CacheLine* l2l = l2.find(line)) {
      if (l2l->dirty()) {
        std::span<const std::byte> data;
        if (l2.has_data()) data = l2.data_of(*l2l);
        push_words_to_l3(block, line, data, l2l->dirty_mask);
        if (oracle_ != nullptr)
          oracle_->on_wb_l2_to_l3(block, line, l2l->dirty_mask);
        lat += cfg_.costs.per_line_writeback_cycles;
      }
      l2.invalidate(*l2l);
      if (oracle_ != nullptr) oracle_->on_inv_l2(block, line);
    }
  }
  return lat;
}

std::vector<Addr>& IncoherentHierarchy::collect_resident_lines(
    CoreId core, Addr first, Addr last, bool include_l2) {
  auto& scratch = scratch_[static_cast<std::size_t>(cfg_.block_of(core))];
  scratch.clear();
  const auto in_range = [&](Addr a) { return a >= first && a <= last; };
  l1_of(core).for_each_valid([&](const CacheLine& l) {
    if (in_range(l.line_addr)) scratch.push_back(l.line_addr);
  });
  if (include_l2) {
    l2_of(cfg_.block_of(core)).for_each_valid([&](const CacheLine& l) {
      if (in_range(l.line_addr)) scratch.push_back(l.line_addr);
    });
  }
  // Ascending address order — the same order the per-address loop visits
  // lines in, so per-line side effects (RNG draws, L2 allocations) land in
  // the identical sequence.
  std::sort(scratch.begin(), scratch.end());
  scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());
  return scratch;
}

Cycle IncoherentHierarchy::wb_range(CoreId core, AddrRange r, Level to) {
  ++stats_->ops().wb_ops;
  Cycle lat = cfg_.costs.op_fixed_cycles;
  if (fault_plan_ != nullptr) lat += fault_plan_->wb_delay(core);
  if (r.empty()) return lat;
  const Addr lb = cfg_.l1.line_bytes;
  const Addr first = align_down(r.base, lb);
  const Addr last = align_down(r.end() - 1, lb);
  const std::uint64_t n_lines = (last - first) / lb + 1;
  std::uint64_t resident_bound = l1_of(core).params().num_lines();
  if (to == Level::L3)
    resident_bound += l2_of(cfg_.block_of(core)).params().num_lines();
  if (n_lines > resident_bound) {
    // The range dwarfs the cache: walk the resident lines it covers and
    // charge the absent lines' tag checks arithmetically. Lines absent from
    // every level at collection time stay absent for the whole op (only the
    // written-back lines themselves allocate downstream), so this performs
    // the exact same per-line work as the per-address loop below.
    auto& resident = collect_resident_lines(core, first, last,
                                            /*include_l2=*/to == Level::L3);
    for (Addr line : resident) lat += wb_line(core, line, to);
    const std::uint64_t absent = n_lines - resident.size();
    lat += absent;  // one tag-check cycle per absent line
    if (to == Level::L3) stats_->ops().global_wb_lines += absent;
  } else {
    for (Addr a = first;; a += lb) {  // overflow-safe up to Addr max
      lat += wb_line(core, a, to);
      if (a == last) break;
    }
  }
  return lat;
}

Cycle IncoherentHierarchy::wb_all(CoreId core, Level to) {
  ++stats_->ops().wb_ops;
  Cache& l1 = l1_of(core);
  Cycle lat = cfg_.costs.op_fixed_cycles + traversal_cycles(l1.params().num_lines());
  if (fault_plan_ != nullptr) lat += fault_plan_->wb_delay(core);
  // Note: wb_line to L2 only here; the L2 pass below handles the L3 leg so
  // the whole block L2 (not just this core's lines) reaches the L3.
  // (wb_line only clears the visited line's dirty bits — it never moves or
  // invalidates L1 lines, so iterating in place is safe.)
  l1.for_each_valid([&](const CacheLine& l) {
    if (l.dirty()) lat += wb_line(core, l.line_addr, Level::L2);
  });

  if (to == Level::L3) {
    const BlockId block = cfg_.block_of(core);
    Cache& l2 = l2_of(block);
    lat += traversal_cycles(l2.params().num_lines());
    // push_words_to_l3 allocates in the L3/DRAM only, never in this L2.
    l2.for_each_valid([&](CacheLine& l2l) {
      if (!l2l.dirty()) return;
      std::span<const std::byte> data;
      if (l2.has_data()) data = l2.data_of(l2l);
      push_words_to_l3(block, l2l.line_addr, data, l2l.dirty_mask);
      if (oracle_ != nullptr)
        oracle_->on_wb_l2_to_l3(block, l2l.line_addr, l2l.dirty_mask);
      l2.clear_dirty(l2l);
      // Whole-cache WBs are not counted as "global WBs": Figure 11 counts
      // the compiler-inserted address-specific instructions.
      lat += cfg_.costs.per_line_writeback_cycles;
    });
  }
  return lat;
}

Cycle IncoherentHierarchy::inv_range(CoreId core, AddrRange r, Level from) {
  ++stats_->ops().inv_ops;
  Cycle lat = cfg_.costs.op_fixed_cycles;
  if (fault_plan_ != nullptr) lat += fault_plan_->inv_delay(core);
  if (r.empty()) return lat;
  const Addr lb = cfg_.l1.line_bytes;
  const Addr first = align_down(r.base, lb);
  const Addr last = align_down(r.end() - 1, lb);
  const std::uint64_t n_lines = (last - first) / lb + 1;
  const bool also_l2 = from == Level::L2 || from == Level::L3;
  std::uint64_t resident_bound = l1_of(core).params().num_lines();
  if (also_l2) resident_bound += l2_of(cfg_.block_of(core)).params().num_lines();
  if (n_lines > resident_bound) {
    auto& resident = collect_resident_lines(core, first, last, also_l2);
    for (Addr line : resident) lat += inv_line(core, line, from);
    const std::uint64_t absent = n_lines - resident.size();
    lat += absent;  // one tag-check cycle per absent line
    if (also_l2) stats_->ops().global_inv_lines += absent;
  } else {
    for (Addr a = first;; a += lb) {
      lat += inv_line(core, a, from);
      if (a == last) break;
    }
  }
  return lat;
}

Cycle IncoherentHierarchy::inv_all(CoreId core, Level from) {
  ++stats_->ops().inv_ops;
  Cache& l1 = l1_of(core);
  Cycle lat = cfg_.costs.op_fixed_cycles + traversal_cycles(l1.params().num_lines());
  if (fault_plan_ != nullptr) lat += fault_plan_->inv_delay(core);
  // inv_line only touches the visited line in this L1 (its downstream
  // writebacks allocate in L2/L3), so iterating in place is safe.
  l1.for_each_valid([&](const CacheLine& l) {
    lat += inv_line(core, l.line_addr, Level::L1) - 1;
  });

  if (from == Level::L2 || from == Level::L3) {
    const BlockId block = cfg_.block_of(core);
    Cache& l2 = l2_of(block);
    lat += traversal_cycles(l2.params().num_lines());
    l2.for_each_valid([&](CacheLine& l2l) {
      if (l2l.dirty()) {
        std::span<const std::byte> data;
        if (l2.has_data()) data = l2.data_of(l2l);
        push_words_to_l3(block, l2l.line_addr, data, l2l.dirty_mask);
        if (oracle_ != nullptr)
          oracle_->on_wb_l2_to_l3(block, l2l.line_addr, l2l.dirty_mask);
        lat += cfg_.costs.per_line_writeback_cycles;
      }
      l2.invalidate(l2l);
      if (oracle_ != nullptr) oracle_->on_inv_l2(block, l2l.line_addr);
      // Not counted as a "global INV" — see the note in wb_all.
    });
  }
  return lat;
}

// --- Level-adaptive instructions (§V) -----------------------------------------------

Cycle IncoherentHierarchy::wb_cons(CoreId core, AddrRange r,
                                   ThreadId consumer) {
  const bool local =
      tmap_[static_cast<std::size_t>(cfg_.block_of(core))].contains(consumer);
  if (local) {
    ++stats_->ops().adaptive_local_wb;
  } else {
    ++stats_->ops().adaptive_global_wb;
  }
  return wb_range(core, r, local ? Level::L2 : Level::L3);
}

Cycle IncoherentHierarchy::wb_cons_all(CoreId core, ThreadId consumer) {
  const bool local =
      tmap_[static_cast<std::size_t>(cfg_.block_of(core))].contains(consumer);
  if (local) {
    ++stats_->ops().adaptive_local_wb;
  } else {
    ++stats_->ops().adaptive_global_wb;
  }
  return wb_all(core, local ? Level::L2 : Level::L3);
}

Cycle IncoherentHierarchy::inv_prod(CoreId core, AddrRange r,
                                    ThreadId producer) {
  const bool local =
      tmap_[static_cast<std::size_t>(cfg_.block_of(core))].contains(producer);
  if (local) {
    ++stats_->ops().adaptive_local_inv;
  } else {
    ++stats_->ops().adaptive_global_inv;
  }
  return inv_range(core, r, local ? Level::L1 : Level::L2);
}

Cycle IncoherentHierarchy::inv_prod_all(CoreId core, ThreadId producer) {
  const bool local =
      tmap_[static_cast<std::size_t>(cfg_.block_of(core))].contains(producer);
  if (local) {
    ++stats_->ops().adaptive_local_inv;
  } else {
    ++stats_->ops().adaptive_global_inv;
  }
  return inv_all(core, local ? Level::L1 : Level::L2);
}

// --- Critical-section epochs (MEB/IEB) ------------------------------------------------

Cycle IncoherentHierarchy::cs_enter(CoreId core) {
  cs_active_[static_cast<std::size_t>(core)] = true;
  if (opts_.use_meb) meb_[static_cast<std::size_t>(core)].reset();
  if (opts_.use_ieb) {
    // The IEB replaces the upfront INV ALL with lazy per-read invalidation.
    ieb_[static_cast<std::size_t>(core)].reset();
    return cfg_.costs.op_fixed_cycles;
  }
  return inv_all(core, Level::L1);
}

Cycle IncoherentHierarchy::cs_exit(CoreId core) {
  cs_active_[static_cast<std::size_t>(core)] = false;
  auto& meb = meb_[static_cast<std::size_t>(core)];
  if (!opts_.use_meb || meb.overflowed()) {
    if (opts_.use_meb) {
      ++stats_->ops().meb_overflows;
      trace_cache("meb_overflow", 0);
    }
    return wb_all(core, Level::L2);
  }
  // MEB-directed writeback: scan the (few) recorded slots; stale entries —
  // slots re-used by lines that were never written — are simply not dirty
  // and are skipped.
  ++stats_->ops().meb_wbs;
  ++stats_->ops().wb_ops;
  trace_cache("meb_wb", 0);
  Cache& l1 = l1_of(core);
  Cycle lat = cfg_.costs.op_fixed_cycles +
              static_cast<Cycle>(meb.slots().size()) *
                  cfg_.costs.meb_scan_per_entry;
  for (std::uint32_t slot : meb.slots()) {
    CacheLine& l = l1.line_in_slot(slot);
    if (!l.valid || !l.dirty()) continue;
    lat += wb_line(core, l.line_addr, Level::L2) - 1;
  }
  return lat;
}

// --- DMA (paper §VIII) ---------------------------------------------------------------

Cycle IncoherentHierarchy::dma_copy(BlockId src_block, Addr src,
                                    BlockId dst_block, Addr dst,
                                    std::uint64_t bytes) {
  HIC_CHECK(src_block >= 0 && src_block < cfg_.blocks);
  HIC_CHECK(dst_block >= 0 && dst_block < cfg_.blocks);
  HIC_CHECK_MSG(src % kWordBytes == 0 && dst % kWordBytes == 0 &&
                    bytes % kWordBytes == 0 && bytes > 0,
                "DMA transfers are word-granular");

  // Latency: engine setup, the mesh path between the two block L2s, and the
  // payload serialization over 128-bit links.
  const NodeId src_node =
      topo_.l2_bank_node(src_block, topo_.l2_bank_of(align_down(src, 64)));
  const NodeId dst_node =
      topo_.l2_bank_node(dst_block, topo_.l2_bank_of(align_down(dst, 64)));
  const std::uint64_t flits =
      topo_.flits_for(static_cast<std::uint32_t>(bytes));
  const Cycle lat = cfg_.costs.op_fixed_cycles +
                    topo_.round_trip(src_node, dst_node) +
                    static_cast<Cycle>(flits);
  add_traffic(TrafficKind::Sync, flits);

  for (std::uint64_t off = 0; off < bytes; off += kWordBytes) {
    const Addr sa = src + off;
    const Addr da = dst + off;
    const Addr sline = align_down(sa, cfg_.l1.line_bytes);
    const Addr dline = align_down(da, cfg_.l1.line_bytes);
    // Read the source word through the source block's shared L2.
    CacheLine* sl = nullptr;
    ensure_l2_line(src_block, sline, &sl);
    std::byte word[kWordBytes] = {};
    if (l2_of(src_block).has_data()) {
      std::memcpy(word, l2_of(src_block).data_of(*sl).data() + (sa - sline),
                  kWordBytes);
    }
    // Deposit into the destination block's L2 as dirty data. Note the
    // destination allocation can evict lines — including, for same-block
    // transfers, the source line — so the source is re-ensured per word.
    CacheLine* dl = l2_of(dst_block).find(dline);
    if (dl == nullptr) ensure_l2_line(dst_block, dline, &dl);
    if (l2_of(dst_block).has_data()) {
      std::memcpy(l2_of(dst_block).data_of(*dl).data() + (da - dline), word,
                  kWordBytes);
    }
    l2_of(dst_block).mark_dirty(*dl, l2_of(dst_block).word_mask(da, kWordBytes));
    // The DMA write is the new globally-intended value: keep the coherent
    // shadow in sync (the engine's stores would have done the same).
    gmem_->shadow_write_raw(da, word, kWordBytes);
  }
  return lat;
}

// --- Introspection ------------------------------------------------------------------

bool IncoherentHierarchy::peek_level(Level lv, CoreId core_or_block, Addr a,
                                     void* out, std::uint32_t bytes) const {
  const Addr line = align_down(a, cfg_.l1.line_bytes);
  const Cache* cache = nullptr;
  switch (lv) {
    case Level::L1:
      cache = &l1_[static_cast<std::size_t>(core_or_block)];
      break;
    case Level::L2:
      cache = &l2_[static_cast<std::size_t>(core_or_block)];
      break;
    case Level::L3:
      if (!l3_.has_value()) return false;
      cache = &*l3_;
      break;
    case Level::Memory: {
      std::vector<std::byte> buf(bytes);
      gmem_->dram_read(a, {buf.data(), buf.size()});
      std::memcpy(out, buf.data(), bytes);
      return true;
    }
  }
  if (!cache->has_data()) return false;
  const CacheLine* l = cache->find(line);
  if (l == nullptr) return false;
  std::memcpy(out, cache->data_of(*l).data() + (a - line), bytes);
  return true;
}

bool IncoherentHierarchy::fault_visible(const FaultRecord& r) const {
  if (is_timing_only(r.kind)) return false;
  if (!cfg_.functional_data) return false;
  const BlockId block = cfg_.block_of(r.core);
  // A dropped WB hurts *other* cores: they read through the shared levels,
  // so the faulted core's (correct) L1 copy must not mask the damage. A
  // dropped INV or corrupted store hurts the faulted core itself: its L1
  // copy IS the damage.
  const bool include_l1 = r.kind != FaultKind::DropWb;
  for (std::uint32_t off = 0; off < cfg_.l1.line_bytes; off += kWordBytes) {
    const Addr a = r.line + off;
    if (!gmem_->in_bounds(a, kWordBytes)) continue;
    std::byte vis[kWordBytes];
    bool have = false;
    if (include_l1) have = peek_level(Level::L1, r.core, a, vis, kWordBytes);
    if (!have) have = peek_level(Level::L2, block, a, vis, kWordBytes);
    if (!have && l3_.has_value())
      have = peek_level(Level::L3, 0, a, vis, kWordBytes);
    if (!have) have = peek_level(Level::Memory, 0, a, vis, kWordBytes);
    std::byte shadow[kWordBytes];
    gmem_->shadow_read_raw(a, shadow, kWordBytes);
    if (std::memcmp(vis, shadow, kWordBytes) != 0) return true;
  }
  return false;
}

}  // namespace hic
