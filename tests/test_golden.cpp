// Golden-statistics regression: every workload on every Table II config it
// supports (the `hicsim_run --list` matrix: intra apps x 5 configs, inter
// apps x 4, the serving family at default knobs x the 5 intra configs) is
// pinned against tests/data/golden_stats.csv. Each row holds the cycle
// count, the flit total and `stats_fnv`, the FNV-1a 64 of the full
// to_json(SimStats) — the same digest perfbench records, so a row and the
// matching perfbench/digests.json `<app>/<config>/<geometry>/stats` entry
// agree.
// The simulator is bit-deterministic, so any diff means the simulated
// machine changed — intentionally or not. One test per point, so ctest -j
// spreads them.
//
// To regenerate after an intentional model change:
//   HIC_UPDATE_GOLDEN=1 ./hic_tests --gtest_filter='GoldenFile*'
//   cp <printed path> tests/data/golden_stats.csv
//
// NOTE: the numbers depend on the exact workload access streams; a few
// workloads derive values through libm (log/cos), whose last-ulp behavior
// can differ between toolchains and shift data-dependent access patterns.
// Goldens are therefore toolchain-specific; regenerate when switching.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "apps/workload.hpp"
#include "common/config_json.hpp"
#include "stats/report.hpp"

namespace hic {
namespace {

struct GoldenPoint {
  std::string app;
  Config cfg;
  [[nodiscard]] std::string key() const { return app + "|" + to_string(cfg); }
};

void PrintTo(const GoldenPoint& p, std::ostream* os) { *os << p.key(); }

struct GoldenRow {
  Cycle cycles = 0;
  std::uint64_t flits = 0;
  std::string stats_fnv;  ///< 16 hex digits of fnv1a64(to_json(stats))
};

std::vector<GoldenPoint> golden_points() {
  std::vector<GoldenPoint> v;
  constexpr Config kIntra[] = {Config::Hcc, Config::Base, Config::BaseMeb,
                               Config::BaseIeb, Config::BaseMebIeb};
  for (const auto& app : intra_workload_names())
    for (Config c : kIntra) v.push_back({app, c});
  for (const auto& app : inter_workload_names())
    for (Config c : {Config::InterHcc, Config::InterBase, Config::InterAddr,
                     Config::InterAddrL})
      v.push_back({app, c});
  for (const auto& app : serving_workload_names())
    for (Config c : kIntra) v.push_back({app, c});
  return v;
}

std::string golden_path() {
  return std::string(HIC_TEST_DATA_DIR) + "/golden_stats.csv";
}

std::map<std::string, GoldenRow> load_goldens() {
  std::map<std::string, GoldenRow> m;
  std::ifstream in(golden_path());
  if (!in) return m;
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string key, cyc, fl, fnv;
    if (!std::getline(ls, key, ',') || !std::getline(ls, cyc, ',') ||
        !std::getline(ls, fl, ',') || !std::getline(ls, fnv, ','))
      continue;
    m[key] = {static_cast<Cycle>(std::stoull(cyc)), std::stoull(fl), fnv};
  }
  return m;
}

std::string hex16(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// Runs one point on its family's stock preset. The stats JSON is taken
/// before verify(), whose reads through the hierarchy add traffic.
GoldenRow measure(const GoldenPoint& p, std::string* stats_json) {
  auto w = make_workload(p.app);
  const MachineConfig mc = w->inter_block() ? MachineConfig::inter_block()
                                            : MachineConfig::intra_block();
  Machine machine(mc, p.cfg);
  const Cycle cycles = run_workload(*w, machine, mc.total_cores());
  *stats_json = to_json(machine.stats());
  return {cycles, machine.stats().traffic().total(),
          hex16(fnv1a64(*stats_json))};
}

class Golden : public ::testing::TestWithParam<GoldenPoint> {};

TEST_P(Golden, StatsMatchRecordedBaseline) {
  const GoldenPoint& p = GetParam();
  const auto expected = load_goldens();
  const auto it = expected.find(p.key());
  ASSERT_NE(it, expected.end())
      << "no golden entry for " << p.key() << " in " << golden_path()
      << " — run with HIC_UPDATE_GOLDEN=1 to generate";
  std::string json;
  const GoldenRow got = measure(p, &json);
  const GoldenRow& want = it->second;
  std::string moved;
  if (got.cycles != want.cycles)
    moved += " cycles " + std::to_string(want.cycles) + " -> " +
             std::to_string(got.cycles) + ";";
  if (got.flits != want.flits)
    moved += " flits " + std::to_string(want.flits) + " -> " +
             std::to_string(got.flits) + ";";
  if (got.stats_fnv != want.stats_fnv)
    moved += " stats digest " + want.stats_fnv + " -> " + got.stats_fnv + ";";
  EXPECT_TRUE(moved.empty()) << p.key() << " drifted:" << moved
                             << "\ncurrent to_json(stats):\n"
                             << json;
}

INSTANTIATE_TEST_SUITE_P(
    AllPoints, Golden, ::testing::ValuesIn(golden_points()),
    [](const ::testing::TestParamInfo<GoldenPoint>& info) {
      std::string n = info.param.key();
      for (char& ch : n)
        if (std::isalnum(static_cast<unsigned char>(ch)) == 0) ch = '_';
      return n;
    });

// The file must hold exactly the point matrix: a row for a point that no
// longer exists is a stale expectation nobody checks. Also the regeneration
// entry point (HIC_UPDATE_GOLDEN=1).
TEST(GoldenFile, CoversEveryPointExactly) {
  const std::vector<GoldenPoint> points = golden_points();
  if (std::getenv("HIC_UPDATE_GOLDEN") != nullptr) {
    std::map<std::string, GoldenRow> rows;
    std::string json;
    for (const GoldenPoint& p : points) rows[p.key()] = measure(p, &json);
    const std::string out_path = "golden_stats.csv";
    std::ofstream out(out_path);
    out << "key,cycles,flits,stats_fnv\n";
    for (const auto& [k, g] : rows)
      out << k << ',' << g.cycles << ',' << g.flits << ',' << g.stats_fnv
          << '\n';
    std::printf("golden stats written to ./%s — copy to %s\n",
                out_path.c_str(), golden_path().c_str());
    GTEST_SKIP() << "golden update mode";
  }
  const auto expected = load_goldens();
  ASSERT_FALSE(expected.empty())
      << "missing " << golden_path()
      << " — run with HIC_UPDATE_GOLDEN=1 to generate";
  std::set<std::string> keys;
  for (const GoldenPoint& p : points) keys.insert(p.key());
  for (const auto& [k, g] : expected)
    EXPECT_TRUE(keys.count(k) != 0) << "stale golden row " << k;
  EXPECT_EQ(expected.size(), points.size());
}

}  // namespace
}  // namespace hic
