// hicbench: the hicsim benchmark program.
//
//   hicbench --workload NAME --seed N --seconds S --trace 0|1
//            [--root DIR] [--digests FILE] [--record]
//            [--git-commit SHA] [--git-dirty 0|1]
//
// Runs one workload in this process by calling the simulator's public
// functions, checks every simulated output, and prints one line per metric
// followed by the result object as the last line of standard output. The
// exit code is 0 only when every check passed.
//
// --record rewrites the digests file from this run's outputs (seed 0 only)
// instead of comparing against it.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/json.hpp"
#include "stats/report.hpp"
#include "workloads.hpp"

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon != std::string::npos) return line.substr(colon + 2);
  }
  return "unknown";
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "hicbench: %s\nusage: hicbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--root DIR] [--digests FILE] "
               "[--record] [--git-commit SHA] [--git-dirty 0|1]\n",
               why.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  hicbench::RunOptions opts;
  std::string digests = "perfbench/digests.json";
  std::string commit = "unknown";
  bool dirty = false;
  bool record = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--record") {
      record = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string v = argv[++i];
    try {
      if (arg == "--workload") {
        opts.workload = v;
        have_workload = true;
      } else if (arg == "--seed") {
        opts.seed = std::stoull(v);
      } else if (arg == "--seconds") {
        opts.seconds = std::stod(v);
      } else if (arg == "--trace") {
        opts.traced = std::stoi(v) != 0;
      } else if (arg == "--root") {
        opts.root = v;
      } else if (arg == "--digests") {
        digests = v;
      } else if (arg == "--git-commit") {
        commit = v;
      } else if (arg == "--git-dirty") {
        dirty = std::stoi(v) != 0;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + v);
    }
  }
  if (!have_workload) usage("--workload is required");
  bool known = false;
  for (const std::string& w : hicbench::workload_names()) known |= w == opts.workload;
  if (!known) usage("unknown workload " + opts.workload);
  if (record && opts.seed != 0) usage("--record needs --seed 0");

  const std::string build_type = HICBENCH_BUILD_TYPE;
  if (build_type.empty() || build_type == "Debug") {
    std::fprintf(stderr, "hicbench: refusing a '%s' build; timings need an "
                         "optimized build (Release or RelWithDebInfo)\n",
                 build_type.c_str());
    return 2;
  }

  hic::Json prov = hic::Json::object();
  prov.set("workload", hic::Json::string(opts.workload));
  prov.set("seed", hic::Json::integer(static_cast<std::int64_t>(opts.seed)));
  prov.set("seconds", hic::Json::number(opts.seconds));
  prov.set("trace", hic::Json::boolean(opts.traced));
  prov.set("nproc", hic::Json::integer(std::thread::hardware_concurrency()));
  prov.set("cpu", hic::Json::string(cpu_model()));
  prov.set("compiler", hic::Json::string(HICBENCH_COMPILER));
  prov.set("flags", hic::Json::string(HICBENCH_FLAGS));
  prov.set("build_type", hic::Json::string(build_type));
  prov.set("git_commit", hic::Json::string(commit));
  prov.set("git_dirty", hic::Json::boolean(dirty));
  prov.set("stats_schema", hic::Json::integer(hic::kStatsSchemaVersion));

  hicbench::Ledger ledger;
  hicbench::Report report;
  report.note("provenance " + prov.dump());
  try {
    if (record) {
      ledger.start_recording();
    } else {
      ledger.load(digests);
    }
    hicbench::run_workload(opts, ledger, report);
    if (record && ledger.failed() == 0) ledger.record(digests);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hicbench: %s\n", e.what());
    return 1;
  }
  const bool correct = ledger.failed() == 0;
  report.print(correct, ledger.attempted(), ledger.failed());
  return correct ? 0 : 1;
}
