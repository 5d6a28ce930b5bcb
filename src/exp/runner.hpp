// CampaignRunner: executes every point of a campaign across host threads.
//
// Each point is an isolated in-process simulation: one Machine, built and
// run entirely on one host worker thread (machines on different workers
// never share mutable state). Scheduling is work-stealing — points are
// dealt round-robin to per-worker deques, and an idle worker steals from
// the back of the busiest victim — so a handful of long simulations can't
// strand the other workers.
//
// Before simulating, a point is resolved against (1) the resume journal and
// (2) the content-addressed result cache; either hit replays the stored
// result, making warm reruns and resumed campaigns near-instant. Simulated
// results are journaled and cached as they complete.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "exp/campaign.hpp"
#include "exp/journal.hpp"
#include "exp/result_cache.hpp"
#include "stats/agg.hpp"

namespace hic::exp {

struct RunnerOptions {
  /// Host worker threads (clamped to [1, #points]).
  int jobs = 1;
  /// Optional cross-campaign result cache.
  ResultCache* cache = nullptr;
  /// Optional per-campaign resume journal.
  Journal* journal = nullptr;
  /// Per-point progress lines on stderr.
  bool progress = false;
};

struct RunnerCounters {
  std::size_t points = 0;     ///< unique points (distinct digests)
  std::size_t simulated = 0;  ///< actually executed this run
  std::size_t journal_hits = 0;
  std::size_t cache_hits = 0;
  std::size_t failures = 0;
};

struct CampaignResults {
  /// One result per campaign point, in campaign.points order; nullopt when
  /// that point's simulation threw (its message is in `errors`).
  std::vector<std::optional<agg::PointStats>> by_point;
  std::vector<std::string> errors;
  RunnerCounters counters;

  [[nodiscard]] bool ok() const { return counters.failures == 0; }
  /// True when every point completed and verified.
  [[nodiscard]] bool all_verified() const;
};

/// Runs (or replays) every point. Duplicate digests across groups simulate
/// once and share the result.
CampaignResults run_campaign(const Campaign& c, const RunnerOptions& opts);

/// Executes a single point from scratch (no cache/journal): simulate,
/// verify, and capture counters. Exposed for tests and the serial oracle.
[[nodiscard]] agg::PointStats execute_point(const CampaignPoint& pt);

}  // namespace hic::exp
