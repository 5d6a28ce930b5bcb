// Run-report formatting: human-readable summaries and machine-readable JSON
// for a SimStats snapshot (used by the hicsim_run CLI and the benches).
//
// Both renderers draw from the same table of fields (report_fields()), so the
// text and JSON reports cannot drift apart: every counter that appears in one
// appears in the other, and the observability layer's counter registry samples
// the identical list.
#pragma once

#include <span>
#include <string>

#include "stats/sim_stats.hpp"

namespace hic {

/// Version of the stats JSON schema emitted by to_json() (and embedded in
/// trace files). Bump whenever a field is added, removed, or renamed so that
/// downstream consumers (tools/bench_host.py, tools/trace_check.py) fail
/// loudly instead of silently misparsing.
///   v2: added the oracle_stale_reads / oracle_write_races /
///       oracle_lost_updates counters to the "ops" group.
///   v3: added the resil_* recovery counters (corrected / retried /
///       quarantined / unrecoverable dispositions plus retransmit, scrubber,
///       quarantine and degradation event counts) to the "ops" group.
///   v4: added the top-level "shard" execution-provenance object. The
///       sharded engine is gone; the object stays as a fixed all-zero
///       literal until a schema bump re-records perfbench/digests.json.
///   v5: added the request-serving surface (req_issued / req_completed /
///       req_remote, nearest-rank latency percentiles req_lat_p50/p95/p99/
///       max in cycles, and req_qdepth_peak) to the "ops" group — published
///       by the serving workload family (src/apps/serve), zero elsewhere.
///   v6: added the chaos-serving surface (req_timeouts / req_retries /
///       req_hedged / req_hedge_wins / req_failed / slo_violations) and the
///       fail-stop failover counters (failover_injected / recovered /
///       degraded / failed / lost_dirty_lines / lost_puts / reacquired) to
///       the "ops" group — published under core-fail / cluster-fail
///       injection, zero elsewhere.
// Stays 6 while "shard" is a fixed literal: dropping it is a v7 bump.
inline constexpr int kStatsSchemaVersion = 6;

/// One scalar counter of the report: its JSON group ("stalls",
/// "traffic_flits" or "ops"), its stable key, and how to read it.
struct ReportField {
  const char* group;
  const char* key;
  std::uint64_t (*get)(const SimStats&);
};

/// Every counter field of the report, grouped (fields of one group are
/// contiguous), in the order both renderers emit them.
[[nodiscard]] std::span<const ReportField> report_fields();

/// The stable JSON keys used for stall and traffic kinds ("wb_stall",
/// "linefill", ...). Shared with the tracer so trace span names reconcile
/// against the stats JSON by string equality.
[[nodiscard]] const char* stall_json_key(StallKind k);
[[nodiscard]] const char* traffic_json_key(TrafficKind k);

/// Multi-line human-readable summary: execution time, per-kind stall totals
/// with one-decimal per-core averages, and every counter field of
/// report_fields() grouped by section.
[[nodiscard]] std::string summarize(const SimStats& stats);

/// Single JSON object with every counter (stable key names; no trailing
/// newline). Suitable for jq-style post-processing of sweep outputs.
[[nodiscard]] std::string to_json(const SimStats& stats);

/// JSON array with one object per core: the 5-way stall-cycle breakdown.
/// Embedded in trace files so tools/trace_check.py can reconcile span totals
/// against the StallAccount to the cycle.
[[nodiscard]] std::string per_core_stalls_json(const SimStats& stats);

}  // namespace hic
