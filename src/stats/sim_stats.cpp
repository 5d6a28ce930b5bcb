#include "stats/sim_stats.hpp"

#include <algorithm>
#include <array>

namespace hic {

namespace {
// Must list every OpCounts field, in the order report.cpp's "ops" group
// renders them (the parity test in test_extensions.cpp enforces both).
constexpr std::array kOpFields = {
    OpField{"loads", &OpCounts::loads},
    OpField{"stores", &OpCounts::stores},
    OpField{"l1_hits", &OpCounts::l1_hits},
    OpField{"l1_misses", &OpCounts::l1_misses},
    OpField{"l2_hits", &OpCounts::l2_hits},
    OpField{"l2_misses", &OpCounts::l2_misses},
    OpField{"l3_hits", &OpCounts::l3_hits},
    OpField{"l3_misses", &OpCounts::l3_misses},
    OpField{"wb_ops", &OpCounts::wb_ops},
    OpField{"inv_ops", &OpCounts::inv_ops},
    OpField{"lines_written_back", &OpCounts::lines_written_back},
    OpField{"lines_invalidated", &OpCounts::lines_invalidated},
    OpField{"words_written_back", &OpCounts::words_written_back},
    OpField{"global_wb_lines", &OpCounts::global_wb_lines},
    OpField{"global_inv_lines", &OpCounts::global_inv_lines},
    OpField{"adaptive_local_wb", &OpCounts::adaptive_local_wb},
    OpField{"adaptive_global_wb", &OpCounts::adaptive_global_wb},
    OpField{"adaptive_local_inv", &OpCounts::adaptive_local_inv},
    OpField{"adaptive_global_inv", &OpCounts::adaptive_global_inv},
    OpField{"meb_wbs", &OpCounts::meb_wbs},
    OpField{"meb_overflows", &OpCounts::meb_overflows},
    OpField{"ieb_refreshes", &OpCounts::ieb_refreshes},
    OpField{"ieb_evictions", &OpCounts::ieb_evictions},
    OpField{"dir_invalidations_sent", &OpCounts::dir_invalidations_sent},
    OpField{"stale_word_reads", &OpCounts::stale_word_reads},
    OpField{"injected_faults", &OpCounts::injected_faults},
    OpField{"detected_faults", &OpCounts::detected_faults},
    OpField{"tolerated_faults", &OpCounts::tolerated_faults},
    OpField{"oracle_stale_reads", &OpCounts::oracle_stale_reads},
    OpField{"oracle_write_races", &OpCounts::oracle_write_races},
    OpField{"oracle_lost_updates", &OpCounts::oracle_lost_updates},
    OpField{"anno_barriers", &OpCounts::anno_barriers},
    OpField{"anno_critical", &OpCounts::anno_critical},
    OpField{"anno_flag", &OpCounts::anno_flag},
    OpField{"anno_occ", &OpCounts::anno_occ},
    OpField{"anno_racy", &OpCounts::anno_racy},
    OpField{"resil_corrected", &OpCounts::resil_corrected},
    OpField{"resil_retried", &OpCounts::resil_retried},
    OpField{"resil_quarantined", &OpCounts::resil_quarantined},
    OpField{"resil_unrecoverable", &OpCounts::resil_unrecoverable},
    OpField{"resil_retransmits", &OpCounts::resil_retransmits},
    OpField{"resil_dup_suppressed", &OpCounts::resil_dup_suppressed},
    OpField{"resil_scrub_passes", &OpCounts::resil_scrub_passes},
    OpField{"resil_scrub_corrections", &OpCounts::resil_scrub_corrections},
    OpField{"resil_quarantined_ways", &OpCounts::resil_quarantined_ways},
    OpField{"resil_degraded_blocks", &OpCounts::resil_degraded_blocks},
    OpField{"req_issued", &OpCounts::req_issued},
    OpField{"req_completed", &OpCounts::req_completed},
    OpField{"req_remote", &OpCounts::req_remote},
    OpField{"req_lat_p50", &OpCounts::req_lat_p50},
    OpField{"req_lat_p95", &OpCounts::req_lat_p95},
    OpField{"req_lat_p99", &OpCounts::req_lat_p99},
    OpField{"req_lat_max", &OpCounts::req_lat_max},
    OpField{"req_qdepth_peak", &OpCounts::req_qdepth_peak},
    OpField{"req_timeouts", &OpCounts::req_timeouts},
    OpField{"req_retries", &OpCounts::req_retries},
    OpField{"req_hedged", &OpCounts::req_hedged},
    OpField{"req_hedge_wins", &OpCounts::req_hedge_wins},
    OpField{"req_failed", &OpCounts::req_failed},
    OpField{"slo_violations", &OpCounts::slo_violations},
    OpField{"failover_injected", &OpCounts::failover_injected},
    OpField{"failover_recovered", &OpCounts::failover_recovered},
    OpField{"failover_degraded", &OpCounts::failover_degraded},
    OpField{"failover_failed", &OpCounts::failover_failed},
    OpField{"failover_lost_dirty_lines", &OpCounts::failover_lost_dirty_lines},
    OpField{"failover_lost_puts", &OpCounts::failover_lost_puts},
    OpField{"failover_reacquired", &OpCounts::failover_reacquired},
};
}  // namespace

std::span<const OpField> op_fields() { return kOpFields; }

const char* to_string(StallKind k) {
  switch (k) {
    case StallKind::Rest: return "rest";
    case StallKind::InvStall: return "INV stall";
    case StallKind::WbStall: return "WB stall";
    case StallKind::LockStall: return "lock stall";
    case StallKind::BarrierStall: return "barrier stall";
    case StallKind::kCount: break;
  }
  return "?";
}

const char* to_string(TrafficKind k) {
  switch (k) {
    case TrafficKind::Linefill: return "linefill";
    case TrafficKind::Writeback: return "writeback";
    case TrafficKind::Invalidation: return "invalidation";
    case TrafficKind::Memory: return "memory";
    case TrafficKind::Sync: return "sync";
    case TrafficKind::kCount: break;
  }
  return "?";
}

Cycle SimStats::exec_cycles() const {
  Cycle max_cycles = 0;
  for (const auto& s : stalls_) max_cycles = std::max(max_cycles, s.total());
  return max_cycles;
}

Cycle SimStats::total_stall(StallKind k) const {
  Cycle t = 0;
  for (const auto& s : stalls_) t += s.get(k);
  return t;
}

void SimStats::clear() {
  for (auto& s : stalls_) s.clear();
  traffic_.clear();
  ops_ = OpCounts{};
}

}  // namespace hic
