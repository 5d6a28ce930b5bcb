// Serving subsystem suite: load-generator determinism and substream
// stability, RequestStats percentile semantics, workload knobs, and the
// three serving workloads' end-to-end guarantees — twice-run bit-identity
// and oracle cleanliness.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/serve/serve.hpp"
#include "apps/workload.hpp"
#include "stats/report.hpp"
#include "stats/sim_stats.hpp"
#include "verify/oracle.hpp"

namespace hic {
namespace {

// --- Load generator ----------------------------------------------------------

TEST(ServeLoadGen, StreamsAreDeterministic) {
  const serve::GenParams p;
  const auto a = serve::gen_stream(p, 3);
  const auto b = serve::gen_stream(p, 3);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].work, b[i].work);
    EXPECT_EQ(a[i].kind, b[i].kind);
  }
}

TEST(ServeLoadGen, SubstreamsAreIndependent) {
  // Per-stream Rng: stream k's draws depend on (seed, k) only, so adding
  // more streams or more requests never perturbs what came before.
  serve::GenParams p;
  const auto short_run = serve::gen_stream(p, 0);
  serve::GenParams longer = p;
  longer.requests = p.requests * 2;
  const auto long_run = serve::gen_stream(longer, 0);
  ASSERT_GE(long_run.size(), short_run.size());
  for (std::size_t i = 0; i < short_run.size(); ++i) {
    EXPECT_EQ(long_run[i].arrival, short_run[i].arrival) << i;
    EXPECT_EQ(long_run[i].key, short_run[i].key) << i;
  }
  // Distinct streams decorrelate (the odd-multiplier seed mix is a
  // bijection): identical key sequences would mean the mix collapsed.
  const auto other = serve::gen_stream(p, 1);
  bool any_differs = false;
  for (std::size_t i = 0; i < short_run.size(); ++i)
    any_differs = any_differs || other[i].key != short_run[i].key ||
                  other[i].arrival != short_run[i].arrival;
  EXPECT_TRUE(any_differs);
}

TEST(ServeLoadGen, DrawsRespectTheDeclaredRanges) {
  serve::GenParams p;
  p.key_space = 7;
  p.mean_gap = 12;
  p.mean_work = 5;
  Cycle prev = 0;
  for (const serve::ServeRequest& r : serve::gen_stream(p, 2)) {
    EXPECT_GT(r.arrival, prev);  // gaps are >= 1: strictly increasing
    EXPECT_LE(r.arrival - prev, 2 * p.mean_gap - 1);
    EXPECT_LT(r.key, p.key_space);
    EXPECT_GE(r.work, 1u);
    EXPECT_LE(r.work, 2 * p.mean_work - 1);
    EXPECT_LT(r.kind, 100u);
    prev = r.arrival;
  }
}

TEST(ServeLoadGen, BacklogCountsArrivedButUnserved) {
  std::vector<serve::ServeRequest> s(4);
  s[0].arrival = 10;
  s[1].arrival = 20;
  s[2].arrival = 20;
  s[3].arrival = 35;
  EXPECT_EQ(serve::backlog_at(s, 5, 0), 0u);    // nothing arrived yet
  EXPECT_EQ(serve::backlog_at(s, 10, 0), 1u);   // arrival is inclusive
  EXPECT_EQ(serve::backlog_at(s, 20, 0), 3u);   // ties both count
  EXPECT_EQ(serve::backlog_at(s, 20, 2), 1u);
  EXPECT_EQ(serve::backlog_at(s, 100, 4), 0u);  // fully drained
  EXPECT_EQ(serve::backlog_at(s, 100, 9), 0u);  // over-served clamps at 0
}

// --- RequestStats ------------------------------------------------------------

TEST(ServeRequestStats, PercentilesAreNearestRank) {
  serve::RequestStats rs;
  rs.reset(2);
  // 100 samples 1..100 split across two lanes, deliberately unsorted.
  for (Cycle v = 100; v >= 1; --v) rs.lane(v % 2).latencies.push_back(v);
  rs.lane(0).issued = 60;
  rs.lane(1).issued = 40;
  rs.lane(0).remote = 7;
  rs.lane(1).remote = 5;
  rs.lane(0).qdepth_peak = 3;
  rs.lane(1).qdepth_peak = 9;
  SimStats stats(1);
  rs.publish(stats);
  const OpCounts& o = stats.ops();
  EXPECT_EQ(o.req_issued, 100u);
  EXPECT_EQ(o.req_completed, 100u);
  EXPECT_EQ(o.req_remote, 12u);
  EXPECT_EQ(o.req_qdepth_peak, 9u);  // peak is a max, not a sum
  EXPECT_EQ(o.req_lat_p50, 50u);     // ceil(0.50 * 100) = rank 50
  EXPECT_EQ(o.req_lat_p95, 95u);
  EXPECT_EQ(o.req_lat_p99, 99u);
  EXPECT_EQ(o.req_lat_max, 100u);
}

TEST(ServeRequestStats, SingleSampleAndEmptyEdges) {
  {
    serve::RequestStats rs;
    rs.reset(1);
    rs.lane(0).latencies.push_back(42);
    SimStats stats(1);
    rs.publish(stats);
    EXPECT_EQ(stats.ops().req_completed, 1u);
    EXPECT_EQ(stats.ops().req_lat_p50, 42u);
    EXPECT_EQ(stats.ops().req_lat_p99, 42u);
    EXPECT_EQ(stats.ops().req_lat_max, 42u);
  }
  {
    serve::RequestStats rs;
    rs.reset(3);
    SimStats stats(1);
    rs.publish(stats);  // no samples: percentiles stay zero, no crash
    EXPECT_EQ(stats.ops().req_completed, 0u);
    EXPECT_EQ(stats.ops().req_lat_max, 0u);
  }
}

// --- Workload family ---------------------------------------------------------

struct ServeRun {
  Cycle cycles = 0;
  std::string stats_json;
  bool verified = false;
  std::uint64_t oracle_violations = 0;
  OpCounts ops;
};

ServeRun run_serving(const std::string& app, Config cfg,
                     std::int64_t requests_knob = 0) {
  auto w = make_workload(app);
  MachineConfig mc = MachineConfig::intra_block();
  mc.validate();
  Machine m(mc, cfg);
  CoherenceOracle oracle;
  m.set_oracle(&oracle);
  if (requests_knob > 0) {
    EXPECT_TRUE(w->set_knob("requests", requests_knob)) << app;
  }
  ServeRun r;
  r.cycles = run_workload(*w, m, mc.total_cores());
  r.stats_json = to_json(m.stats());
  r.verified = w->verify(m).ok;
  r.oracle_violations = oracle.total_violations();
  r.ops = m.stats().ops();
  EXPECT_EQ(r.oracle_violations, 0u) << app << "\n" << oracle.report();
  EXPECT_TRUE(r.verified) << app;
  return r;
}

class ServingWorkloadTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ServingWorkloadTest, TwiceRunIsBitIdentical) {
  for (const Config cfg : {Config::Hcc, Config::BaseMebIeb}) {
    const ServeRun a = run_serving(GetParam(), cfg);
    const ServeRun b = run_serving(GetParam(), cfg);
    EXPECT_EQ(a.cycles, b.cycles) << GetParam();
    EXPECT_EQ(a.stats_json, b.stats_json) << GetParam();
  }
}

TEST_P(ServingWorkloadTest, PublishesRequestCounters) {
  const ServeRun r = run_serving(GetParam(), Config::BaseMebIeb);
  EXPECT_GT(r.ops.req_issued, 0u) << GetParam();
  EXPECT_EQ(r.ops.req_completed, r.ops.req_issued) << GetParam();
  EXPECT_GT(r.ops.req_remote, 0u) << GetParam();
  EXPECT_GT(r.ops.req_lat_p50, 0u) << GetParam();
  EXPECT_GE(r.ops.req_lat_p95, r.ops.req_lat_p50) << GetParam();
  EXPECT_GE(r.ops.req_lat_p99, r.ops.req_lat_p95) << GetParam();
  EXPECT_GE(r.ops.req_lat_max, r.ops.req_lat_p99) << GetParam();
  EXPECT_GT(r.ops.req_qdepth_peak, 0u) << GetParam();
}

TEST_P(ServingWorkloadTest, RequestsKnobScalesTheRun) {
  const ServeRun small = run_serving(GetParam(), Config::BaseMebIeb, 8);
  const ServeRun full = run_serving(GetParam(), Config::BaseMebIeb);
  EXPECT_LT(small.ops.req_completed, full.ops.req_completed) << GetParam();
  EXPECT_LT(small.cycles, full.cycles) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(ServingFamily, ServingWorkloadTest,
                         ::testing::ValuesIn(serving_workload_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });


TEST(ServingKnobs, UnknownKeysAreRejected) {
  for (const std::string& app : serving_workload_names()) {
    auto w = make_workload(app);
    EXPECT_TRUE(w->set_knob("requests", 16)) << app;
    EXPECT_FALSE(w->set_knob("bogus", 1)) << app;
  }
  // Non-serving workloads take no knobs at all.
  EXPECT_FALSE(make_workload("fft")->set_knob("requests", 16));
}

TEST(ServingKnobs, FamilyListsExactlyTheThreeWorkloads) {
  const std::vector<std::string> names = serving_workload_names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "kv-store");
  EXPECT_EQ(names[1], "dispatch");
  EXPECT_EQ(names[2], "pipeline");
}

}  // namespace
}  // namespace hic
