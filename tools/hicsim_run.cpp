// hicsim_run — run any workload on any configuration and report statistics.
//
//   hicsim_run --app ocean-cont --config B+M+I
//   hicsim_run --app jacobi --config Addr+L --json
//   hicsim_run --app fft --config B+M+I --set meb_entries=4 --set l1.ways=2
//   hicsim_run --app fft --config myconfig.json
//   hicsim_run --app jacobi --config B+M+I --inject drop-wb:p=0.01:seed=7
//   hicsim_run --demo deadlock
//   hicsim_run --list
//
// --config takes either a Table II label or a .json file holding
// {"config": "<label>", "machine": {<dotted key>: value, ...}}; --set applies
// single dotted-key overrides on top. Unknown keys are hard errors.
//
// --verify attaches the coherence oracle (verify/oracle.hpp): a
// value-independent stale-read/race/lost-update detector driven by the
// program's sync operations. --verify-out FILE additionally writes the
// deterministic JSON violation log (and implies --verify).
//
// Exit status (common/exit_codes.hpp; the most severe condition wins):
//   0  clean run (verification passed or was skipped cleanly)
//   1  internal/runtime failure (unknown app, bad config file, I/O error)
//   2  bad command line (unknown flag, missing value, unknown config label)
//   3  workload verification failed (wrong results)
//   4  hang: deadlock or livelock watchdog (HangReport on stderr;
//      also the *expected* outcome of --demo deadlock|livelock)
//   5  the coherence oracle reported at least one violation
//   6  injected faults left unrecovered damage and --no-verify skipped the
//      value check that would have judged it
//   7  recovery was enabled (--recover) but gave up on some transfer: a
//      reliable WB/INV exhausted its retransmit cap (Recovery::Unrecoverable)
//   8  the SLO budget was exhausted: --slo-budget N was given and the run
//      recorded more than N slo_violations (chaos campaigns assert on this;
//      outranked by 3/5/6/7, which name more fundamental damage)
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <memory>

#include "apps/workload.hpp"
#include "common/config_json.hpp"
#include "common/exit_codes.hpp"
#include "obs/tracer.hpp"
#include "runtime/thread.hpp"
#include "stats/host_perf.hpp"
#include "stats/report.hpp"
#include "verify/oracle.hpp"

using namespace hic;

namespace {

bool is_json_path(const std::string& s) {
  return s.size() > 5 && s.compare(s.size() - 5, 5, ".json") == 0;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  HIC_CHECK_MSG(is.good(), "cannot read config file '" << path << "'");
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

void list_everything() {
  std::printf("intra-block apps (configs: HCC, Base, B+M, B+I, B+M+I):\n");
  for (const auto& n : intra_workload_names())
    std::printf("  %s\n", n.c_str());
  std::printf("inter-block apps (configs: HCC, Base, Addr, Addr+L):\n");
  for (const auto& n : inter_workload_names())
    std::printf("  %s\n", n.c_str());
  std::printf("serving apps (intra-block configs; --serve-set knobs):\n");
  for (const auto& n : serving_workload_names())
    std::printf("  %s\n", n.c_str());
}

/// One line per registered workload with its family and Table I pattern
/// classification (the strings render_table1 reports).
void list_workloads() {
  struct Family {
    const char* label;
    std::vector<std::string> names;
  };
  const Family families[] = {
      {"intra", intra_workload_names()},
      {"inter", inter_workload_names()},
      {"serving", serving_workload_names()},
      {"hidden", {"ep-hier"}},
  };
  for (const Family& f : families) {
    for (const std::string& n : f.names) {
      const auto w = make_workload(n);
      const std::string other = w->other_patterns();
      std::printf("%-14s %-8s main: %s%s%s\n", n.c_str(), f.label,
                  w->main_patterns().c_str(), other.empty() ? "" : "; other: ",
                  other.c_str());
    }
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: hicsim_run --app <name> --config <name|file.json> "
               "[--set key=value]...\n"
               "                  [--json] [--threads N] [--no-verify]\n"
               "                  [--verify] [--verify-out FILE]\n"
               "                  [--meb N] [--ieb N] [--slack N] "
               "[--no-functional]\n"
               "                  [--inject <kind:k=v:...>]... "
               "[--recover] [--resil <k=v:...>]\n"
               "                  [--max-cycles N] [--slo-budget N]\n"
               "                  [--time [--repeat N]] [--no-stale-monitor]\n"
               "                  [--trace-out FILE [--trace-filter "
               "stall,op,sync,cache,wbuf,counter]\n"
               "                   [--trace-sample-cycles N]]\n"
               "       hicsim_run --demo deadlock|livelock [--max-cycles N]\n"
               "       hicsim_run --list | --list-workloads\n"
               "config files: {\"config\": \"<Table II label>\", "
               "\"machine\": {\"meb_entries\": 4, ...}}\n"
               "--set keys:   canonical dotted machine-config keys "
               "(e.g. l1.size_bytes); unknown keys error\n"
               "--verify:     attach the coherence oracle (exit 5 on any "
               "violation)\n"
               "--serve-set:  serving-workload knob (key=value, repeatable; "
               "requests, gap,\n"
               "              work, and per-app keys — unknown keys error)\n"
               "--slo-budget: exit 8 when the run records more than N "
               "slo_violations\n"
               "              (serving workloads with a deadline knob; "
               "default: no budget)\n"
               "--list-workloads: one line per registered workload with its "
               "Table I patterns\n"

               "inject kinds: drop-wb drop-inv delay-wb delay-inv delay-noc "
               "corrupt-line elide-wb elide-inv\n"
               "inject keys:  p=<prob> seed=<u64> n=<max fires> "
               "cycles=<delay> retries=<n>\n"
               "              site=<annotation site> core=<core> "
               "(elide-wb/elide-inv only)\n"
               "              bits=<flips per store> (corrupt-line only)\n"
               "--recover:    attach the recovery subsystem (ECC + reliable "
               "WB/INV delivery\n"
               "              + graceful degradation); --resil tunes it "
               "(implies --recover)\n"
               "resil keys:   ecc=0|1 correct=<cyc> scrub=<cyc> timeout=<cyc> "
               "base=<cyc> cap=<cyc>\n"
               "              attempts=<n> strikes=<n> budget=<n> seed=<u64> "
               "ackloss=<p>\n"
               "exit codes:   0 ok, 1 error, 2 usage, 3 verify failed, "
               "4 hang, 5 oracle violation,\n"
               "              6 unrecovered fault, 7 recovery gave up "
               "(retransmit cap),\n"
               "              8 SLO budget exhausted (--slo-budget)\n");
  return kExitUsage;
}

// Deliberately hung workloads demonstrating the HangReport (docs/robustness.md
// walks through the output).
int run_demo(const std::string& which, Cycle max_cycles) {
  MachineConfig mc = MachineConfig::intra_block();
  // The livelock demo spins forever by construction; always arm the watchdog
  // so the run terminates with a diagnosis.
  mc.watchdog_max_cycles =
      max_cycles > 0 ? max_cycles
                     : (which == "livelock" ? Cycle{200000} : Cycle{0});
  mc.validate();
  Machine m(mc, Config::BaseMebIeb);
  auto la = m.make_lock();
  auto lb = m.make_lock();
  try {
    if (which == "deadlock") {
      // Classic ABBA: each thread holds one lock and wants the other. The
      // compute section is longer than the scheduling slack, so both
      // acquisitions interleave deterministically.
      m.run(2, [&](Thread& t) {
        const auto first = t.tid() == 0 ? la : lb;
        const auto second = t.tid() == 0 ? lb : la;
        t.lock(first);
        t.compute(5000);
        t.lock(second);
        t.unlock(second);
        t.unlock(first);
      });
    } else if (which == "livelock") {
      // Busy-polling with no one to make progress: only the watchdog stops it.
      m.run(2, [&](Thread& t) {
        for (;;) t.compute(1000);
      });
    } else {
      std::fprintf(stderr, "unknown demo '%s' (deadlock|livelock)\n",
                   which.c_str());
      return kExitUsage;
    }
  } catch (const CheckFailure& e) {
    // The demos exist to hang: the HangReport is the expected outcome, and
    // the exit code is the taxonomy's hang code so scripts can assert it.
    std::fprintf(stderr, "%s\n", e.what());
    return m.engine().hang_report().cores.empty() ? kExitFailure : kExitHang;
  }
  std::fprintf(stderr, "demo '%s' unexpectedly completed\n", which.c_str());
  return kExitFailure;
}

}  // namespace

int main(int argc, char** argv) {
  std::string app;
  std::string config_name;
  bool json = false;
  bool verify = true;
  bool no_functional = false;
  bool time_mode = false;
  bool no_stale_monitor = false;
  int repeat = 5;
  int threads = 0;  // 0 = all cores
  int meb = 0, ieb = 0;
  long slack = 0;
  long max_cycles = 0;
  long slo_budget = -1;  // -1 = no budget armed
  bool oracle_on = false;
  std::string verify_out;
  std::string demo;
  std::string trace_out;
  std::string trace_filter = "all";
  long trace_sample_cycles = 0;
  bool recover = false;
  std::string resil_spec;
  std::vector<std::string> inject_specs;
  std::vector<std::string> set_overrides;
  std::vector<std::pair<std::string, std::int64_t>> serve_knobs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (arg == "--list") {
      list_everything();
      return 0;
    }
    if (arg == "--list-workloads") {
      list_workloads();
      return 0;
    }
    if (arg == "--json") {
      json = true;
    } else if (arg == "--no-verify") {
      verify = false;
    } else if (arg == "--verify") {
      oracle_on = true;
    } else if (arg == "--verify-out") {
      const char* v = next();
      if (v == nullptr) return usage();
      verify_out = v;
      oracle_on = true;
    } else if (arg.rfind("--verify-out=", 0) == 0) {
      verify_out = arg.substr(std::strlen("--verify-out="));
      if (verify_out.empty()) return usage();
      oracle_on = true;
    } else if (arg == "--app") {
      const char* v = next();
      if (v == nullptr) return usage();
      app = v;
    } else if (arg == "--config") {
      const char* v = next();
      if (v == nullptr) return usage();
      config_name = v;
    } else if (arg == "--threads") {
      const char* v = next();
      if (v == nullptr) return usage();
      threads = std::atoi(v);
    } else if (arg == "--meb") {
      const char* v = next();
      if (v == nullptr) return usage();
      meb = std::atoi(v);
    } else if (arg == "--ieb") {
      const char* v = next();
      if (v == nullptr) return usage();
      ieb = std::atoi(v);
    } else if (arg == "--slack") {
      const char* v = next();
      if (v == nullptr) return usage();
      slack = std::atol(v);
    } else if (arg == "--set") {
      const char* v = next();
      if (v == nullptr) return usage();
      set_overrides.emplace_back(v);
    } else if (arg == "--serve-set") {
      const char* v = next();
      if (v == nullptr) return usage();
      const std::string kv = v;
      const auto eq = kv.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == kv.size()) {
        std::fprintf(stderr, "--serve-set expects key=value (got '%s')\n", v);
        return kExitUsage;
      }
      char* end = nullptr;
      const long long num = std::strtoll(kv.c_str() + eq + 1, &end, 10);
      if (end == nullptr || *end != '\0') {
        std::fprintf(stderr, "--serve-set value must be an integer "
                             "(got '%s')\n", v);
        return kExitUsage;
      }
      serve_knobs.emplace_back(kv.substr(0, eq),
                               static_cast<std::int64_t>(num));
    } else if (arg == "--no-functional") {
      no_functional = true;
    } else if (arg == "--time") {
      time_mode = true;
    } else if (arg == "--repeat") {
      const char* v = next();
      if (v == nullptr) return usage();
      repeat = std::atoi(v);
    } else if (arg == "--no-stale-monitor") {
      no_stale_monitor = true;
    } else if (arg == "--inject") {
      const char* v = next();
      if (v == nullptr) return usage();
      inject_specs.emplace_back(v);
    } else if (arg == "--recover") {
      recover = true;
    } else if (arg == "--resil") {
      const char* v = next();
      if (v == nullptr) return usage();
      resil_spec = v;
      recover = true;
    } else if (arg == "--trace-out") {
      const char* v = next();
      if (v == nullptr) return usage();
      trace_out = v;
    } else if (arg == "--trace-filter") {
      const char* v = next();
      if (v == nullptr) return usage();
      trace_filter = v;
    } else if (arg == "--trace-sample-cycles") {
      const char* v = next();
      if (v == nullptr) return usage();
      trace_sample_cycles = std::atol(v);
    } else if (arg == "--max-cycles") {
      const char* v = next();
      if (v == nullptr) return usage();
      max_cycles = std::atol(v);
    } else if (arg == "--slo-budget") {
      const char* v = next();
      if (v == nullptr) return usage();
      slo_budget = std::atol(v);
      if (slo_budget < 0) {
        std::fprintf(stderr, "--slo-budget must be >= 0 (got '%s')\n", v);
        return kExitUsage;
      }
    } else if (arg == "--demo") {
      const char* v = next();
      if (v == nullptr) return usage();
      demo = v;
    } else {
      return usage();
    }
  }
  if (!demo.empty()) {
    try {
      return run_demo(demo, max_cycles > 0 ? static_cast<Cycle>(max_cycles)
                                           : Cycle{0});
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  if (app.empty() || config_name.empty()) return usage();
  if (!trace_out.empty() && time_mode) {
    std::fprintf(stderr,
                 "--trace-out is incompatible with --time: recording events "
                 "perturbs the host-perf measurement\n");
    return kExitUsage;
  }
  if (oracle_on && time_mode) {
    std::fprintf(stderr,
                 "--verify is incompatible with --time: the oracle's stamp "
                 "tracking perturbs the host-perf measurement\n");
    return kExitUsage;
  }

  try {
    // Knob application is per-instance: --time remakes the workload every
    // repeat, so the knobs are re-applied to each copy.
    auto apply_knobs = [&serve_knobs, &app](Workload& wl) -> bool {
      for (const auto& [key, value] : serve_knobs) {
        if (!wl.set_knob(key, value)) {
          std::fprintf(stderr,
                       "--serve-set: workload '%s' rejected %s=%lld\n",
                       app.c_str(), key.c_str(),
                       static_cast<long long>(value));
          return false;
        }
      }
      return true;
    };
    auto w = make_workload(app);
    if (!apply_knobs(*w)) return kExitUsage;
    MachineConfig mc = w->inter_block() ? MachineConfig::inter_block()
                                        : MachineConfig::intra_block();

    // A .json --config argument carries the Table II label plus machine
    // overrides; otherwise the argument is the label itself. Precedence:
    // preset < config-file "machine" < legacy flags (--meb, ...) < --set.
    std::string config_label = config_name;
    if (is_json_path(config_name)) {
      const Json spec = Json::parse(slurp(config_name));
      HIC_CHECK_MSG(spec.is_object(),
                    "config file '" << config_name
                                    << "' must hold a JSON object");
      config_label.clear();
      for (const auto& [key, value] : spec.members()) {
        if (key == "config") {
          config_label = value.as_string();
        } else if (key == "machine") {
          apply_config_overrides(mc, value);
        } else {
          HIC_CHECK_MSG(false, "unknown key '" << key << "' in config file '"
                                               << config_name
                                               << "' (config|machine)");
        }
      }
      HIC_CHECK_MSG(!config_label.empty(),
                    "config file '" << config_name
                                    << "' is missing \"config\"");
    }
    const auto cfg = config_from_string(config_label, w->inter_block());
    if (!cfg.has_value()) {
      std::fprintf(stderr, "unknown config '%s' for %s-block app '%s'\n",
                   config_label.c_str(),
                   w->inter_block() ? "inter" : "intra", app.c_str());
      return kExitUsage;
    }
    if (meb > 0) mc.meb_entries = meb;
    if (ieb > 0) mc.ieb_entries = ieb;
    if (slack > 0) mc.sim_slack_cycles = static_cast<Cycle>(slack);
    if (max_cycles > 0) mc.watchdog_max_cycles = static_cast<Cycle>(max_cycles);
    if (no_functional) mc.functional_data = false;
    if (no_stale_monitor) mc.staleness_monitor = false;
    // A --set the machine rejects (unknown key, bad value, the removed
    // legacy_scheduler=true) is a usage error, not a run failure.
    try {
      for (const auto& kv : set_overrides) apply_config_set(mc, kv);
      mc.validate();
    } catch (const CheckFailure& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return kExitUsage;
    }
    const int n = threads > 0 ? threads : mc.total_cores();

    if (time_mode) {
      // Host-perf mode: repeat the (deterministic) run and report the
      // simulator's throughput. Each repeat builds a fresh machine; the
      // verification pass runs once, on the last repeat, outside the timer.
      if (repeat <= 0) repeat = 1;
      std::unique_ptr<Machine> last;
      const HostPerfResult hp = time_runs(repeat, [&]() -> Cycle {
        auto wr = make_workload(app);
        HIC_CHECK_MSG(apply_knobs(*wr), "serve knob re-application failed");
        last = std::make_unique<Machine>(mc, *cfg);
        for (const auto& spec : inject_specs)
          last->add_fault_rule(parse_fault_rule(spec));
        if (recover) last->enable_recovery(parse_resil_options(resil_spec));
        const Cycle cy = run_workload(*wr, *last, n);
        w = std::move(wr);  // keep the workload that matches `last`
        return cy;
      });
      if (json) {
        std::printf("{\"app\":\"%s\",\"config\":\"%s\",\"threads\":%d,"
                    "\"host_perf\":%s}\n",
                    app.c_str(), config_label.c_str(), n,
                    to_json(hp).c_str());
      } else {
        std::printf("%s on %s, %d threads, %d run%s:\n", app.c_str(),
                    config_label.c_str(), n, repeat, repeat == 1 ? "" : "s");
        std::printf("  simulated cycles : %llu\n",
                    static_cast<unsigned long long>(hp.cycles));
        std::printf("  host wall-clock  : %.4f s median (min %.4f s)\n",
                    hp.median_seconds, hp.min_seconds);
        std::printf("  sim throughput   : %.0f cycles/s\n",
                    hp.cycles_per_second);
      }
      int trc = kExitOk;
      if (slo_budget >= 0 && last->stats().ops().slo_violations >
                                 static_cast<std::uint64_t>(slo_budget))
        trc = kExitSloExhausted;
      if (verify) {
        const WorkloadResult r = w->verify(*last);
        if (!json)
          std::printf("verification: %s%s%s\n", r.ok ? "ok" : "FAILED",
                      r.detail.empty() ? "" : " — ", r.detail.c_str());
        if (!r.ok) trc = kExitVerifyFailed;
      }
      if (last->resil() != nullptr && last->resil()->unrecoverable())
        trc = kExitUnrecoverable;
      return trc;
    }

    Machine m(mc, *cfg);
    for (const auto& spec : inject_specs)
      m.add_fault_rule(parse_fault_rule(spec));
    if (recover) m.enable_recovery(parse_resil_options(resil_spec));
    std::unique_ptr<Tracer> tracer;
    if (!trace_out.empty()) {
      TraceOptions topts;
      topts.categories = parse_trace_filter(trace_filter);
      topts.sample_cycles = trace_sample_cycles > 0
                                ? static_cast<Cycle>(trace_sample_cycles)
                                : Cycle{0};
      tracer = std::make_unique<Tracer>(topts);
      m.set_tracer(tracer.get());
    }
    CoherenceOracle oracle;
    if (oracle_on) m.set_oracle(&oracle);
    Cycle cycles = 0;
    try {
      cycles = run_workload(*w, m, n);
    } catch (const CheckFailure& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return m.engine().hang_report().cores.empty() ? kExitFailure : kExitHang;
    }
    if (tracer != nullptr) {
      tracer->finish(m.exec_cycles());
      std::ofstream os(trace_out, std::ios::binary);
      if (!os) {
        std::fprintf(stderr, "cannot open trace output '%s'\n",
                     trace_out.c_str());
        return kExitFailure;
      }
      tracer->export_json(os, &m.stats());
      if (!json)
        std::printf("trace: %zu events, %zu counter samples -> %s\n",
                    tracer->events().size(), tracer->samples().size(),
                    trace_out.c_str());
    }

    if (json) {
      std::printf("{\"app\":\"%s\",\"config\":\"%s\",\"threads\":%d,"
                  "\"stats\":%s",
                  app.c_str(), config_label.c_str(), n,
                  to_json(m.stats()).c_str());
    } else {
      std::printf("%s on %s, %d threads: %llu cycles\n\n%s", app.c_str(),
                  config_label.c_str(), n,
                  static_cast<unsigned long long>(cycles),
                  summarize(m.stats()).c_str());
      if (!m.fault_plan().empty())
        std::printf("\n%s", m.fault_plan().summary().c_str());
    }
    int rc = kExitOk;
    // The SLO budget is judged first so the more fundamental conditions below
    // (wrong values, oracle violations, unrecovered damage) overwrite it when
    // both apply: a run that missed its SLO *and* corrupted data should exit
    // with the corruption code, not the latency code.
    if (slo_budget >= 0 && m.stats().ops().slo_violations >
                               static_cast<std::uint64_t>(slo_budget))
      rc = kExitSloExhausted;
    if (verify) {
      // Note the order: the workload's value verification reads results
      // through the hierarchy, so with the oracle attached it doubles as a
      // final stale-state audit of the published data.
      const WorkloadResult r = w->verify(m);
      if (json) {
        std::printf(",\"verified\":%s", r.ok ? "true" : "false");
      } else {
        std::printf("verification: %s%s%s\n", r.ok ? "ok" : "FAILED",
                    r.detail.empty() ? "" : " — ", r.detail.c_str());
      }
      if (!r.ok) rc = kExitVerifyFailed;
    } else if (m.stats().ops().detected_faults > 0) {
      // --no-verify used to exit 0 here even though injected faults left
      // visible unrepaired damage; make that state loud.
      rc = kExitFault;
    }
    if (oracle_on) {
      if (json) {
        std::printf(",\"oracle\":%s", oracle.to_json().c_str());
      } else {
        std::printf("%s", oracle.report().c_str());
      }
      if (!verify_out.empty()) {
        std::ofstream os(verify_out, std::ios::binary);
        if (!os) {
          std::fprintf(stderr, "cannot open violation log '%s'\n",
                       verify_out.c_str());
          if (json) std::printf("}\n");
          return kExitFailure;
        }
        os << oracle.to_json() << '\n';
      }
      // An oracle violation outranks a value-verification failure: it names
      // the root cause the value check can only observe downstream.
      if (oracle.total_violations() > 0) rc = kExitOracle;
    }
    // Recovery giving up outranks everything but a hang: it means the
    // resilience layer itself knows data was abandoned (retransmit cap).
    if (m.resil() != nullptr && m.resil()->unrecoverable())
      rc = kExitUnrecoverable;
    if (json) std::printf("}\n");
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitFailure;
  }
}
