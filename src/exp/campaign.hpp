// Campaign specs: a declarative description of a set of simulation points
// (workload x Table II configuration x machine configuration x seed) plus
// the aggregates (paper figures/tables, sweep summaries) to reduce them
// into.
//
// Spec format (JSON; docs/campaigns.md has the full reference):
//
//   {
//     "name": "paper",
//     "groups": [
//       {"name": "intra-timing",
//        "workloads": "intra",                // "intra" | "inter" | [names]
//        "configs": ["HCC", "Base", "B+M+I"], // Table II labels
//        "machine": {"preset": "intra",       // "intra" | "inter"
//                    "staleness_monitor": false,
//                    "meb_entries": [4, 16]}, // array value = sweep axis
//        "threads": 0,                        // 0 = all cores (default)
//        "seed": 0, "repeat": 1}
//     ],
//     "aggregates": [
//       {"kind": "fig9", "group": "intra-timing"},
//       {"kind": "storage"}
//     ]
//   }
//
// Unknown keys anywhere in the spec are hard errors. Machine overrides use
// the canonical dotted keys of config_fields(); an array value turns the
// key into a sweep axis and the group expands to the cross product.
//
// Every expanded point carries a content digest over (schema versions,
// canonical machine-config JSON, workload, Table II label, threads, seed) —
// the key of the result cache and the resume journal. `repeat` re-runs the
// deterministic simulation as a bit-identity canary and is deliberately NOT
// part of the digest.
#pragma once

#include <string>
#include <vector>

#include "common/config_json.hpp"
#include "common/json.hpp"
#include "runtime/config.hpp"

namespace hic::exp {

/// Version of the campaign spec/result schema; participates in every point
/// digest (with kConfigSchemaVersion and kStatsSchemaVersion), so bumping
/// any of the three invalidates cached results.
inline constexpr int kCampaignSchemaVersion = 1;

/// One fully-expanded simulation point.
struct CampaignPoint {
  std::string group;         ///< owning group name
  std::string app;           ///< workload name
  std::string config_label;  ///< Table II label
  Config config = Config::Hcc;
  MachineConfig machine;
  /// Sweep-axis values that produced this point ("meb_entries=4"), empty
  /// when the group has no array axes. Shown in sweep summaries.
  std::string sweep_desc;
  int threads = 0;  ///< resolved: > 0
  std::uint64_t seed = 0;
  int repeat = 1;
  /// Fault-injection specs (fault_plan.hpp `--inject` syntax) applied to
  /// every run of this point. Folded into the digest only when non-empty,
  /// so fault-free campaigns keep their cached results.
  std::vector<std::string> inject;
  /// Recovery subsystem (src/resil): enabled per group via the "recover"
  /// key (true = defaults, or a parse_resil_options spec string). Folded
  /// into the digest only when enabled, mirroring `inject`.
  bool recover = false;
  std::string resil_spec;
  /// Serving-workload knobs ("serve_set": {"deadline": 60000, ...}) applied
  /// to every run of this point via Workload::set_knob before setup, in
  /// spec order. Folded into the digest only when non-empty, so knob-free
  /// campaigns keep their cached results.
  std::vector<std::pair<std::string, std::int64_t>> serve_set;
  std::string digest;  ///< content digest — the cache/journal key
};

struct AggregateSpec {
  /// fig9|...|table1|energy|storage|summary|survivability|serving|chaos
  std::string kind;
  /// Source group ("" for kinds that need no points). The "chaos" kind
  /// accepts a comma-separated group list so injected scenarios can sit in
  /// one table next to their fault-free baseline group.
  std::string group;
};

struct Campaign {
  std::string name;
  std::vector<CampaignPoint> points;  ///< expanded, in spec order
  std::vector<AggregateSpec> aggregates;

  /// Parses and expands a spec document. Validates workload names, Table II
  /// labels against each workload's family, machine-config keys, and
  /// aggregate kinds/groups; any problem throws CheckFailure.
  static Campaign parse(const Json& spec);

  /// Reads and parses a spec file.
  static Campaign load(const std::string& path);
};

/// Content digest of one point (16 hex digits; see file comment).
[[nodiscard]] std::string point_digest(const CampaignPoint& pt);

/// Splits an AggregateSpec::group list ("baseline,chaos-early") into names;
/// empty segments (leading/trailing/double commas) throw CheckFailure.
[[nodiscard]] std::vector<std::string> split_groups(const std::string& list);

}  // namespace hic::exp
