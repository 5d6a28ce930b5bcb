// bench_host_perf — the host-side performance regression harness.
//
// Measures simulated-cycles-per-host-second across three representative
// workloads (two Fig. 9 intra-block apps, one Fig. 12 inter-block app) and
// writes BENCH_host_perf.json so successive commits can be compared with
// tools/bench_host.py. The simulated cycle counts in the output double as a
// determinism canary: they must never move between runs.
//
// A fourth section times a 16-cluster machine (16 blocks x 4 cores), with
// and without the coherence oracle attached.
//
//   bench_host_perf                 # 5 repeats per workload (median)
//   bench_host_perf --smoke         # 1 repeat, for CI
//   bench_host_perf --repeats 9
//   bench_host_perf --out my.json
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "apps/workload.hpp"
#include "stats/host_perf.hpp"
#include "stats/report.hpp"
#include "verify/oracle.hpp"

using namespace hic;

namespace {

struct Item {
  const char* app;
  Config cfg;
  const char* config_name;
};

// Two Fig. 9 intra-block workloads plus one Fig. 12 inter-block workload:
// together they exercise the scheduler (16 cores), the WB/INV range ops
// (jacobi's per-iteration wb_range/inv_range), and the miss path.
constexpr Item kItems[] = {
    {"ocean-cont", Config::BaseMebIeb, "B+M+I"},
    {"fft", Config::BaseMebIeb, "B+M+I"},
    {"jacobi", Config::InterAddrL, "Addr+L"},
};

}  // namespace

int main(int argc, char** argv) {
  int repeats = 5;
  std::string out = "BENCH_host_perf.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      repeats = 1;
    } else if (arg == "--repeats" && i + 1 < argc) {
      repeats = std::atoi(argv[++i]);
    } else if (arg == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_host_perf [--smoke] [--repeats N] "
                   "[--out FILE]\n");
      return 1;
    }
  }
  if (repeats <= 0) repeats = 1;

  std::string json = "{\"schema_version\":" +
                     std::to_string(kStatsSchemaVersion) +
                     ",\"repeats\":" + std::to_string(repeats) +
                     ",\"workloads\":{";

  bool first = true;
  for (const Item& it : kItems) {
    MachineConfig mc = is_inter_block(it.cfg) ? MachineConfig::inter_block()
                                              : MachineConfig::intra_block();
    // Timing loop: skip the per-load shadow-read + memcmp of the staleness
    // monitor (stats-only; the simulated cycles are identical either way).
    mc.staleness_monitor = false;
    mc.validate();

    const HostPerfResult r = time_runs(repeats, [&]() -> Cycle {
      auto w = make_workload(it.app);
      Machine m(mc, it.cfg);
      return run_workload(*w, m, mc.total_cores());
    });

    std::printf("%-12s %-7s %12llu cycles  %8.3f s median  %10.0f cyc/s\n",
                it.app, it.config_name,
                static_cast<unsigned long long>(r.cycles), r.median_seconds,
                r.cycles_per_second);
    if (!first) json += ',';
    first = false;
    json += "\"";
    json += it.app;
    json += '/';
    json += it.config_name;
    json += "\":";
    json += to_json(r);
  }

  // 16-cluster section: 64 cores across 16 blocks, plain and with the
  // coherence oracle shadowing every access.
  MachineConfig mc16 = MachineConfig::inter_block();
  mc16.blocks = 16;
  mc16.cores_per_block = 4;
  mc16.staleness_monitor = false;
  mc16.validate();
  for (const bool verify : {false, true}) {
    const HostPerfResult r = time_runs(repeats, [&]() -> Cycle {
      auto w = make_workload("ep");
      Machine m(mc16, Config::InterAddrL);
      CoherenceOracle oracle;
      if (verify) m.set_oracle(&oracle);
      return run_workload(*w, m, mc16.total_cores());
    });
    const std::string name =
        verify ? "ep-16c/Addr+L/verify" : "ep-16c/Addr+L";
    std::printf("%-26s %12llu cycles  %8.3f s median  %10.0f cyc/s\n",
                name.c_str(), static_cast<unsigned long long>(r.cycles),
                r.median_seconds, r.cycles_per_second);
    json += ",\"" + name + "\":" + to_json(r);
  }
  json += "}}\n";

  std::ofstream f(out);
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  f << json;
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
