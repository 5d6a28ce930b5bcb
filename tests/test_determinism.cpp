// Determinism suite: the engine promises identical inputs -> bit-identical
// simulated results. Every seed workload is run twice, asserting identical
// cycle counts, SimStats JSON, and per-core stall breakdowns: any
// host-dependent divergence in dispatch order or per-line op order shows up
// here as a cycle or stall-breakdown mismatch. Drift against the recorded
// baseline is test_golden.cpp's job.
//
// Retired engines: the legacy thread-per-core loop, the sharded engine and
// the oracle's overlapped (deferred-apply) mode each promised results
// bit-identical to the direct-handoff scheduler, and were deleted once it was
// the only scheduler left. Their outputs for every seed workload and the
// serving family were recorded before the deletion in
// tests/data/retired_engines.csv: cycles, verify() verdict and the FNV-1a 64
// of the stats JSON (host-side "shard" object stripped), of the per-core
// stall breakdown and of the armed oracle's JSON. The suites named after
// those engines hold the remaining scheduler to their recorded outputs.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "apps/workload.hpp"
#include "common/config_json.hpp"
#include "stats/report.hpp"
#include "verify/oracle.hpp"

namespace hic {
namespace {

struct RunResult {
  Cycle cycles = 0;
  std::string stats_json;    ///< to_json(SimStats): totals, traffic, ops
  std::string core_stalls;   ///< per-core 5-bucket breakdown
  std::string oracle_json;   ///< verdicts + violation log ("" when unarmed)
  bool verified = false;
};

std::string per_core_stalls(const SimStats& s) {
  std::ostringstream os;
  for (CoreId c = 0; c < s.num_cores(); ++c) {
    os << 'c' << c << ':';
    for (std::size_t k = 0; k < kStallKinds; ++k)
      os << s.stalls(c).get(static_cast<StallKind>(k)) << ',';
  }
  return os.str();
}

/// Runs `app` on its family's stock preset (B+M+I intra, Addr+L inter). The
/// stats are taken before verify(), whose reads add traffic.
RunResult run_once(const std::string& app, bool staleness_monitor = true,
                   bool with_oracle = false) {
  auto w = make_workload(app);
  const Config cfg =
      w->inter_block() ? Config::InterAddrL : Config::BaseMebIeb;
  MachineConfig mc = w->inter_block() ? MachineConfig::inter_block()
                                      : MachineConfig::intra_block();
  mc.staleness_monitor = staleness_monitor;
  mc.validate();
  Machine m(mc, cfg);
  CoherenceOracle oracle;
  if (with_oracle) m.set_oracle(&oracle);
  RunResult r;
  r.cycles = run_workload(*w, m, mc.total_cores());
  r.stats_json = to_json(m.stats());
  r.core_stalls = per_core_stalls(m.stats());
  r.verified = w->verify(m).ok;
  if (with_oracle) {
    r.oracle_json = oracle.to_json();
    EXPECT_EQ(oracle.total_violations(), 0u) << app << "\n"
                                             << oracle.report();
  }
  return r;
}

std::string retired_path() {
  return std::string(HIC_TEST_DATA_DIR) + "/retired_engines.csv";
}

struct RetiredRow {
  Cycle cycles = 0;
  std::string stats_fnv, stalls_fnv, oracle_fnv;  ///< 16 hex digits each
  bool verified = false;
};

/// tests/data/retired_engines.csv keyed "<app>|<engine>".
std::map<std::string, RetiredRow> load_retired() {
  std::map<std::string, RetiredRow> m;
  std::ifstream in(retired_path());
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string app, engine, cyc, st, sl, orc, ver;
    if (!std::getline(ls, app, ',') || !std::getline(ls, engine, ',') ||
        !std::getline(ls, cyc, ',') || !std::getline(ls, st, ',') ||
        !std::getline(ls, sl, ',') || !std::getline(ls, orc, ',') ||
        !std::getline(ls, ver, ','))
      continue;
    m[app + "|" + engine] = {static_cast<Cycle>(std::stoull(cyc)), st, sl,
                             orc, ver == "1"};
  }
  return m;
}

std::string hex16(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// The "shard" stats object was host-side provenance of the sharded engine
// (requested/effective workers) and legitimately differed between engines.
std::string strip_shard(std::string j) {
  const auto b = j.find(",\"shard\":{");
  if (b == std::string::npos) return j;
  const auto e = j.find('}', b);
  EXPECT_NE(e, std::string::npos);
  j.erase(b, e - b + 1);
  return j;
}

void expect_matches_retired(const RunResult& got, const std::string& app,
                            const std::string& engine) {
  const auto rows = load_retired();
  const auto it = rows.find(app + "|" + engine);
  ASSERT_NE(it, rows.end())
      << "no " << app << "," << engine << " row in " << retired_path();
  const RetiredRow& want = it->second;
  const std::string label = app + " vs retired " + engine;
  EXPECT_EQ(got.cycles, want.cycles) << label;
  EXPECT_EQ(hex16(fnv1a64(strip_shard(got.stats_json))), want.stats_fnv)
      << label << "\ncurrent to_json(stats):\n" << got.stats_json;
  EXPECT_EQ(hex16(fnv1a64(got.core_stalls)), want.stalls_fnv) << label;
  const std::string oracle_fnv =
      got.oracle_json.empty() ? hex16(0) : hex16(fnv1a64(got.oracle_json));
  EXPECT_EQ(oracle_fnv, want.oracle_fnv) << label;
  EXPECT_EQ(got.verified, want.verified) << label;
}

std::vector<std::string> all_seed_workloads() {
  auto v = intra_workload_names();
  const auto inter = inter_workload_names();
  v.insert(v.end(), inter.begin(), inter.end());
  return v;
}

class DeterminismTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DeterminismTest, RepeatedRunsAreBitIdentical) {
  const RunResult a = run_once(GetParam());
  const RunResult b = run_once(GetParam());
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.stats_json, b.stats_json);
  EXPECT_EQ(a.core_stalls, b.core_stalls);
}

TEST_P(DeterminismTest, DirectHandoffMatchesLegacyScheduler) {
  expect_matches_retired(run_once(GetParam()), GetParam(), "legacy");
}

std::string param_name(const ::testing::TestParamInfo<std::string>& info) {
  std::string n = info.param;
  for (char& ch : n)
    if (ch == '-') ch = '_';
  return n;
}

INSTANTIATE_TEST_SUITE_P(AllSeedWorkloads, DeterminismTest,
                         ::testing::ValuesIn(all_seed_workloads()),
                         param_name);

// The sharded engine ran with one worker (its full machinery, no overlap) and
// with four (the paper machine's block count).
class ShardedEquivalenceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ShardedEquivalenceTest, ShardedRunsAreBitIdenticalToDirect) {
  const RunResult direct = run_once(GetParam());
  expect_matches_retired(direct, GetParam(), "sharded-1");
  expect_matches_retired(direct, GetParam(), "sharded-4");
}

INSTANTIATE_TEST_SUITE_P(AllSeedWorkloads, ShardedEquivalenceTest,
                         ::testing::ValuesIn(all_seed_workloads()),
                         param_name);

// Overlapped verify advanced the oracle's shadow state through per-quantum
// deferred buffers; its verdicts, seq stamps and violation log are pinned
// through the oracle JSON digest.
class OracleOverlapTest : public ::testing::TestWithParam<std::string> {};

TEST_P(OracleOverlapTest, OverlappedVerifyIsBitIdenticalToDirect) {
  const RunResult direct =
      run_once(GetParam(), /*staleness_monitor=*/true, /*with_oracle=*/true);
  expect_matches_retired(direct, GetParam(), "overlap-1");
  expect_matches_retired(direct, GetParam(), "overlap-4");
}

INSTANTIATE_TEST_SUITE_P(AllSeedWorkloads, OracleOverlapTest,
                         ::testing::ValuesIn(all_seed_workloads()),
                         param_name);

// The serving family ran sharded with the oracle armed, on B+M+I.
class ServingShardedTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ServingShardedTest, ShardedRunsAreBitIdenticalToDirect) {
  const RunResult direct =
      run_once(GetParam(), /*staleness_monitor=*/true, /*with_oracle=*/true);
  expect_matches_retired(direct, GetParam(), "sharded-1");
  expect_matches_retired(direct, GetParam(), "sharded-4");
}

INSTANTIATE_TEST_SUITE_P(ServingFamily, ServingShardedTest,
                         ::testing::ValuesIn(serving_workload_names()),
                         param_name);

// The staleness monitor is stats-only: turning it off must not move a single
// cycle, flit, or stall — only the stale_word_reads counter may differ.
TEST(Determinism, StalenessMonitorOffIsTimingIdentical) {
  for (const char* app : {"ocean-cont", "jacobi"}) {
    const RunResult on = run_once(app, /*staleness_monitor=*/true);
    const RunResult off = run_once(app, /*staleness_monitor=*/false);
    EXPECT_EQ(on.cycles, off.cycles) << app;
    EXPECT_EQ(on.core_stalls, off.core_stalls) << app;
  }
}

}  // namespace
}  // namespace hic
