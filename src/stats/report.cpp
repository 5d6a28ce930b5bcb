#include "stats/report.hpp"

#include <array>
#include <cstdio>
#include <sstream>

namespace hic {

const char* stall_json_key(StallKind k) {
  switch (k) {
    case StallKind::Rest: return "rest";
    case StallKind::InvStall: return "inv_stall";
    case StallKind::WbStall: return "wb_stall";
    case StallKind::LockStall: return "lock_stall";
    case StallKind::BarrierStall: return "barrier_stall";
    case StallKind::kCount: break;
  }
  return "?";
}
const char* traffic_json_key(TrafficKind k) {
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

namespace {
template <StallKind K>
std::uint64_t stall_total(const SimStats& s) {
  return s.total_stall(K);
}
template <TrafficKind K>
std::uint64_t traffic_total(const SimStats& s) {
  return s.traffic().get(K);
}
template <std::uint64_t OpCounts::* M>
std::uint64_t op(const SimStats& s) {
  return s.ops().*M;
}

// The single source of truth for every counter the report exposes. Groups
// must stay contiguous: the JSON renderer opens/closes one object per group.
constexpr std::array kFields = {
    ReportField{"stalls", "rest", stall_total<StallKind::Rest>},
    ReportField{"stalls", "inv_stall", stall_total<StallKind::InvStall>},
    ReportField{"stalls", "wb_stall", stall_total<StallKind::WbStall>},
    ReportField{"stalls", "lock_stall", stall_total<StallKind::LockStall>},
    ReportField{"stalls", "barrier_stall",
                stall_total<StallKind::BarrierStall>},
    ReportField{"traffic_flits", "linefill",
                traffic_total<TrafficKind::Linefill>},
    ReportField{"traffic_flits", "writeback",
                traffic_total<TrafficKind::Writeback>},
    ReportField{"traffic_flits", "invalidation",
                traffic_total<TrafficKind::Invalidation>},
    ReportField{"traffic_flits", "memory", traffic_total<TrafficKind::Memory>},
    ReportField{"traffic_flits", "sync", traffic_total<TrafficKind::Sync>},
    ReportField{"ops", "loads", op<&OpCounts::loads>},
    ReportField{"ops", "stores", op<&OpCounts::stores>},
    ReportField{"ops", "l1_hits", op<&OpCounts::l1_hits>},
    ReportField{"ops", "l1_misses", op<&OpCounts::l1_misses>},
    ReportField{"ops", "l2_hits", op<&OpCounts::l2_hits>},
    ReportField{"ops", "l2_misses", op<&OpCounts::l2_misses>},
    ReportField{"ops", "l3_hits", op<&OpCounts::l3_hits>},
    ReportField{"ops", "l3_misses", op<&OpCounts::l3_misses>},
    ReportField{"ops", "wb_ops", op<&OpCounts::wb_ops>},
    ReportField{"ops", "inv_ops", op<&OpCounts::inv_ops>},
    ReportField{"ops", "lines_written_back", op<&OpCounts::lines_written_back>},
    ReportField{"ops", "lines_invalidated", op<&OpCounts::lines_invalidated>},
    ReportField{"ops", "words_written_back", op<&OpCounts::words_written_back>},
    ReportField{"ops", "global_wb_lines", op<&OpCounts::global_wb_lines>},
    ReportField{"ops", "global_inv_lines", op<&OpCounts::global_inv_lines>},
    ReportField{"ops", "adaptive_local_wb", op<&OpCounts::adaptive_local_wb>},
    ReportField{"ops", "adaptive_global_wb", op<&OpCounts::adaptive_global_wb>},
    ReportField{"ops", "adaptive_local_inv", op<&OpCounts::adaptive_local_inv>},
    ReportField{"ops", "adaptive_global_inv",
                op<&OpCounts::adaptive_global_inv>},
    ReportField{"ops", "meb_wbs", op<&OpCounts::meb_wbs>},
    ReportField{"ops", "meb_overflows", op<&OpCounts::meb_overflows>},
    ReportField{"ops", "ieb_refreshes", op<&OpCounts::ieb_refreshes>},
    ReportField{"ops", "ieb_evictions", op<&OpCounts::ieb_evictions>},
    ReportField{"ops", "dir_invalidations_sent",
                op<&OpCounts::dir_invalidations_sent>},
    ReportField{"ops", "stale_word_reads", op<&OpCounts::stale_word_reads>},
    ReportField{"ops", "injected_faults", op<&OpCounts::injected_faults>},
    ReportField{"ops", "detected_faults", op<&OpCounts::detected_faults>},
    ReportField{"ops", "tolerated_faults", op<&OpCounts::tolerated_faults>},
    ReportField{"ops", "oracle_stale_reads", op<&OpCounts::oracle_stale_reads>},
    ReportField{"ops", "oracle_write_races", op<&OpCounts::oracle_write_races>},
    ReportField{"ops", "oracle_lost_updates",
                op<&OpCounts::oracle_lost_updates>},
    ReportField{"ops", "anno_barriers", op<&OpCounts::anno_barriers>},
    ReportField{"ops", "anno_critical", op<&OpCounts::anno_critical>},
    ReportField{"ops", "anno_flag", op<&OpCounts::anno_flag>},
    ReportField{"ops", "anno_occ", op<&OpCounts::anno_occ>},
    ReportField{"ops", "anno_racy", op<&OpCounts::anno_racy>},
    ReportField{"ops", "resil_corrected", op<&OpCounts::resil_corrected>},
    ReportField{"ops", "resil_retried", op<&OpCounts::resil_retried>},
    ReportField{"ops", "resil_quarantined", op<&OpCounts::resil_quarantined>},
    ReportField{"ops", "resil_unrecoverable",
                op<&OpCounts::resil_unrecoverable>},
    ReportField{"ops", "resil_retransmits", op<&OpCounts::resil_retransmits>},
    ReportField{"ops", "resil_dup_suppressed",
                op<&OpCounts::resil_dup_suppressed>},
    ReportField{"ops", "resil_scrub_passes", op<&OpCounts::resil_scrub_passes>},
    ReportField{"ops", "resil_scrub_corrections",
                op<&OpCounts::resil_scrub_corrections>},
    ReportField{"ops", "resil_quarantined_ways",
                op<&OpCounts::resil_quarantined_ways>},
    ReportField{"ops", "resil_degraded_blocks",
                op<&OpCounts::resil_degraded_blocks>},
    ReportField{"ops", "req_issued", op<&OpCounts::req_issued>},
    ReportField{"ops", "req_completed", op<&OpCounts::req_completed>},
    ReportField{"ops", "req_remote", op<&OpCounts::req_remote>},
    ReportField{"ops", "req_lat_p50", op<&OpCounts::req_lat_p50>},
    ReportField{"ops", "req_lat_p95", op<&OpCounts::req_lat_p95>},
    ReportField{"ops", "req_lat_p99", op<&OpCounts::req_lat_p99>},
    ReportField{"ops", "req_lat_max", op<&OpCounts::req_lat_max>},
    ReportField{"ops", "req_qdepth_peak", op<&OpCounts::req_qdepth_peak>},
    ReportField{"ops", "req_timeouts", op<&OpCounts::req_timeouts>},
    ReportField{"ops", "req_retries", op<&OpCounts::req_retries>},
    ReportField{"ops", "req_hedged", op<&OpCounts::req_hedged>},
    ReportField{"ops", "req_hedge_wins", op<&OpCounts::req_hedge_wins>},
    ReportField{"ops", "req_failed", op<&OpCounts::req_failed>},
    ReportField{"ops", "slo_violations", op<&OpCounts::slo_violations>},
    ReportField{"ops", "failover_injected", op<&OpCounts::failover_injected>},
    ReportField{"ops", "failover_recovered",
                op<&OpCounts::failover_recovered>},
    ReportField{"ops", "failover_degraded", op<&OpCounts::failover_degraded>},
    ReportField{"ops", "failover_failed", op<&OpCounts::failover_failed>},
    ReportField{"ops", "failover_lost_dirty_lines",
                op<&OpCounts::failover_lost_dirty_lines>},
    ReportField{"ops", "failover_lost_puts",
                op<&OpCounts::failover_lost_puts>},
    ReportField{"ops", "failover_reacquired",
                op<&OpCounts::failover_reacquired>},
};
}  // namespace

std::span<const ReportField> report_fields() { return kFields; }

std::string summarize(const SimStats& stats) {
  std::ostringstream os;
  const int cores = stats.num_cores();
  os << "execution time: " << stats.exec_cycles() << " cycles (" << cores
     << " cores)\n";
  os << "schema_version: " << kStatsSchemaVersion << '\n';
  os << "exec_cycles: " << stats.exec_cycles() << '\n';
  os << "num_cores: " << cores << '\n';
  const char* group = "";
  for (const ReportField& f : kFields) {
    if (std::string_view(group) != f.group) {
      group = f.group;
      os << group << ":\n";
    }
    const std::uint64_t v = f.get(stats);
    os << "  " << f.key << ": " << v;
    // Stall totals additionally get a per-core average; one decimal keeps
    // small stall classes visible instead of truncating them to 0.
    if (std::string_view(f.group) == "stalls") {
      if (cores > 0) {
        char avg[32];
        std::snprintf(avg, sizeof avg, "%.1f",
                      static_cast<double>(v) / static_cast<double>(cores));
        os << " (avg " << avg << "/core)";
      } else {
        os << " (avg n/a: 0 cores)";
      }
    }
    os << '\n';
  }
  const OpCounts& o = stats.ops();
  if (o.req_completed > 0) {
    os << "requests: " << o.req_completed << " completed (" << o.req_remote
       << " remote), latency p50/p95/p99/max = " << o.req_lat_p50 << '/'
       << o.req_lat_p95 << '/' << o.req_lat_p99 << '/' << o.req_lat_max
       << " cycles, peak queue depth " << o.req_qdepth_peak << '\n';
  }
  if (o.req_timeouts + o.req_failed + o.req_retries + o.req_hedged +
          o.slo_violations >
      0) {
    os << "request dispositions: " << o.req_timeouts << " timed out, "
       << o.req_failed << " failed, " << o.req_retries << " retries, "
       << o.req_hedged << " hedged (" << o.req_hedge_wins << " hedge wins), "
       << o.slo_violations << " SLO violations\n";
  }
  if (o.failover_injected > 0) {
    os << "failover: " << o.failover_injected << " fail-stopped core"
       << (o.failover_injected == 1 ? "" : "s") << " -> "
       << o.failover_recovered << " recovered, " << o.failover_degraded
       << " degraded, " << o.failover_failed << " failed; lost "
       << o.failover_lost_dirty_lines << " dirty lines, "
       << o.failover_lost_puts << " un-acked puts; "
       << o.failover_reacquired << " shard ranges re-acquired\n";
  }
  if (o.injected_faults > 0) {
    os << "injected faults: " << o.injected_faults << " ("
       << o.detected_faults << " detected, " << o.tolerated_faults
       << " tolerated, "
       << o.injected_faults - o.detected_faults - o.tolerated_faults
       << " silent)\n";
    const std::uint64_t rec = o.resil_corrected + o.resil_retried +
                              o.resil_quarantined + o.resil_unrecoverable;
    if (rec > 0) {
      os << "recovery: " << o.resil_corrected << " corrected, "
         << o.resil_retried << " retried, " << o.resil_quarantined
         << " quarantined, " << o.resil_unrecoverable << " unrecoverable\n";
    }
  }
  return os.str();
}

std::string to_json(const SimStats& stats) {
  std::ostringstream os;
  os << "{\"schema_version\":" << kStatsSchemaVersion;
  os << ",\"exec_cycles\":" << stats.exec_cycles();
  os << ",\"num_cores\":" << stats.num_cores();
  // A fixed literal since the sharded engine was removed; dropping it is a
  // schema bump that must re-record perfbench/digests.json.
  os << ",\"shard\":{\"requested\":0,\"workers\":0,\"serialized\":false}";
  const char* group = "";
  bool first_in_group = true;
  for (const ReportField& f : kFields) {
    if (std::string_view(group) != f.group) {
      if (*group != '\0') os << '}';
      group = f.group;
      os << ",\"" << group << "\":{";
      first_in_group = true;
    }
    if (!first_in_group) os << ',';
    first_in_group = false;
    os << '"' << f.key << "\":" << f.get(stats);
  }
  if (*group != '\0') os << '}';
  os << '}';
  return os.str();
}

std::string per_core_stalls_json(const SimStats& stats) {
  std::ostringstream os;
  os << '[';
  for (CoreId c = 0; c < stats.num_cores(); ++c) {
    if (c > 0) os << ',';
    os << '{';
    for (std::size_t k = 0; k < kStallKinds; ++k) {
      if (k > 0) os << ',';
      const auto kind = static_cast<StallKind>(k);
      os << '"' << stall_json_key(kind) << "\":" << stats.stalls(c).get(kind);
    }
    os << '}';
  }
  os << ']';
  return os.str();
}

}  // namespace hic
