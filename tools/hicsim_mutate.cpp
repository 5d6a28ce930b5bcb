// hicsim_mutate — annotation-mutation harness for the coherence oracle.
//
// For every WB/INV annotation site the runtime can elide (common/
// anno_sites.hpp), run the workload once with that single site mutated
// (elide-wb:site=K or elide-inv:site=K, p=1, all cores) and the oracle
// armed, then classify the site:
//
//   unused     the workload/config never reaches the site (rule never fired)
//   detected   the oracle reported >= 1 violation — the mutation is caught
//              value-independently
//   hang       the mutation deadlocks/livelocks the program; the watchdog's
//              diagnosis catches it before the oracle can
//   exempt     a racy_* site: declared-racy accesses are excluded from the
//              happens-before checks BY DESIGN (Figure 6b races are benign);
//              the value-based workload verification judges these instead
//   tolerated  the elision fired but natural traffic (evictions, later
//              unmutated annotations) republished the data: no violation
//              AND the workload still verifies — nothing was actually lost
//   recovered  (--recover only) the resilience layer actively repaired the
//              damage — fault records ended classified corrected / retried /
//              quarantined — and the workload verifies
//   MISSED     the elision broke the program (verification failed) and the
//              oracle saw nothing — a detector gap; exits nonzero
//
//   hicsim_mutate --app ocean-cont --config B+M+I
//   hicsim_mutate --app fft --config B+M+I --json
//   hicsim_mutate --app lu-cont --config Base --site barrier-refined-inv
//
// Exit status: 0 when no site classifies MISSED; 3 when at least one does;
// 2 on bad flags; 1 on internal errors.
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "apps/workload.hpp"
#include "common/anno_sites.hpp"
#include "common/exit_codes.hpp"
#include "stats/text_table.hpp"
#include "fault/fault_plan.hpp"
#include "runtime/thread.hpp"
#include "verify/oracle.hpp"

using namespace hic;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: hicsim_mutate --app <name> --config <label> [--threads N]\n"
      "                     [--site NAME] [--recover]\n"
      "                     [--json]\n"
      "  --app NAME      workload (hicsim_run --list)\n"
      "  --config LABEL  Table II configuration label\n"
      "  --threads N     worker threads (default: all cores)\n"

      "  --site NAME     mutate only this annotation site\n"
      "  --recover       attach the recovery subsystem (src/resil); sites\n"
      "                  whose damage it repairs classify as 'recovered'\n"
      "  --json          machine-readable report\n"
      "exit status: 0 all mutations accounted for; 3 at least one MISSED;\n"
      "             2 bad flags; 1 internal error\n");
  return kExitUsage;
}

struct SiteResult {
  AnnoSite site = AnnoSite::kNone;
  std::uint64_t fired = 0;
  std::uint64_t violations = 0;
  std::uint64_t recovered = 0;
  bool verified = false;
  bool hung = false;
  const char* klass = "?";
};

struct RunOutcome {
  std::uint64_t fired = 0;
  std::uint64_t violations = 0;
  std::uint64_t recovered = 0;
  bool verified = false;
  bool hung = false;
};

RunOutcome run_mutated(const std::string& app, Config cfg,
                       const MachineConfig& mc, int threads, AnnoSite site,
                       bool recover) {
  auto w = make_workload(app);
  Machine m(mc, cfg);
  if (site != AnnoSite::kNone) {
    std::string spec = anno_site_is_wb(site) ? "elide-wb" : "elide-inv";
    spec += ":site=";
    spec += anno_site_name(site);
    m.add_fault_rule(parse_fault_rule(spec));
  }
  CoherenceOracle oracle;
  m.set_oracle(&oracle);
  if (recover) m.enable_recovery();
  RunOutcome r;
  try {
    run_workload(*w, m, threads);
    r.verified = w->verify(m).ok;
  } catch (const CheckFailure&) {
    // Deadlock/livelock: the watchdog already printed its diagnosis.
    r.hung = true;
  }
  r.fired = m.fault_plan().injected();
  r.violations = oracle.total_violations();
  r.recovered = m.fault_plan().recovered(Recovery::Corrected) +
                m.fault_plan().recovered(Recovery::Retried) +
                m.fault_plan().recovered(Recovery::Quarantined);
  return r;
}

bool is_racy_site(AnnoSite s) {
  return s == AnnoSite::RacyStoreWb || s == AnnoSite::RacyLoadInv;
}

}  // namespace

int main(int argc, char** argv) {
  std::string app;
  std::string config_label;
  std::string only_site;
  int threads = 0;
  bool json = false;
  bool recover = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (arg == "--app") {
      const char* v = next();
      if (v == nullptr) return usage();
      app = v;
    } else if (arg == "--config") {
      const char* v = next();
      if (v == nullptr) return usage();
      config_label = v;
    } else if (arg == "--threads") {
      const char* v = next();
      if (v == nullptr) return usage();
      threads = std::atoi(v);
      if (threads < 1) return usage();
    } else if (arg == "--site") {
      const char* v = next();
      if (v == nullptr) return usage();
      only_site = v;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--recover") {
      recover = true;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return usage();
    }
  }
  if (app.empty() || config_label.empty()) return usage();

  try {
    auto probe = make_workload(app);
    const bool inter = probe->inter_block();
    const auto cfg = config_from_string(config_label, inter);
    if (!cfg.has_value()) {
      std::fprintf(stderr, "unknown config '%s' for %s-block app '%s'\n",
                   config_label.c_str(), inter ? "inter" : "intra",
                   app.c_str());
      return kExitUsage;
    }
    MachineConfig mc =
        inter ? MachineConfig::inter_block() : MachineConfig::intra_block();
    mc.validate();
    if (threads <= 0) threads = mc.total_cores();

    std::vector<AnnoSite> sites;
    if (!only_site.empty()) {
      const auto s = parse_anno_site(only_site);
      if (!s.has_value()) {
        std::fprintf(stderr, "unknown annotation site '%s'\n",
                     only_site.c_str());
        return kExitUsage;
      }
      sites.push_back(*s);
    } else {
      for (AnnoSite s : all_anno_sites()) sites.push_back(s);
    }

    // Baseline sanity: the unmutated program must be violation-free,
    // otherwise every classification below is meaningless.
    const RunOutcome base =
        run_mutated(app, *cfg, mc, threads, AnnoSite::kNone, recover);
    if (base.hung || !base.verified || base.violations != 0) {
      std::fprintf(stderr,
                   "baseline run is not clean (hung=%d verified=%d "
                   "violations=%llu); refusing to classify mutations\n",
                   base.hung ? 1 : 0, base.verified ? 1 : 0,
                   static_cast<unsigned long long>(base.violations));
      return kExitFailure;
    }

    std::vector<SiteResult> results;
    std::uint64_t missed = 0;
    for (AnnoSite s : sites) {
      const RunOutcome r = run_mutated(app, *cfg, mc, threads, s, recover);
      SiteResult sr;
      sr.site = s;
      sr.fired = r.fired;
      sr.violations = r.violations;
      sr.recovered = r.recovered;
      sr.verified = r.verified;
      sr.hung = r.hung;
      if (r.fired == 0) {
        sr.klass = "unused";
      } else if (r.violations > 0) {
        sr.klass = "detected";
      } else if (r.hung) {
        sr.klass = "hang";
      } else if (is_racy_site(s)) {
        // Declared-racy accesses are exempt from the HB checks by design;
        // the value verification is the assigned judge for these.
        sr.klass = r.verified ? "exempt" : "MISSED";
      } else if (r.verified && r.recovered > 0) {
        // The resilience layer repaired the damage itself (ECC correction,
        // retried delivery, or quarantine) — stronger than "tolerated",
        // where unrelated natural traffic happened to republish the data.
        sr.klass = "recovered";
      } else if (r.verified) {
        sr.klass = "tolerated";
      } else {
        sr.klass = "MISSED";
      }
      if (std::strcmp(sr.klass, "MISSED") == 0) ++missed;
      results.push_back(sr);
      if (!json)
        std::fprintf(stderr, "mutated %-24s -> %s\n",
                     std::string(anno_site_name(s)).c_str(), sr.klass);
    }

    if (json) {
      std::ostringstream os;
      os << "{\"app\":\"" << app << "\",\"config\":\"" << config_label
         << "\",\"threads\":" << threads << ",\"sites\":[";
      for (std::size_t i = 0; i < results.size(); ++i) {
        const SiteResult& sr = results[i];
        if (i > 0) os << ',';
        os << "{\"site\":\"" << anno_site_name(sr.site) << "\",\"kind\":\""
           << (anno_site_is_wb(sr.site) ? "wb" : "inv")
           << "\",\"fired\":" << sr.fired
           << ",\"violations\":" << sr.violations
           << ",\"recovered\":" << sr.recovered << ",\"verified\":"
           << (sr.verified ? "true" : "false") << ",\"hung\":"
           << (sr.hung ? "true" : "false") << ",\"class\":\"" << sr.klass
           << "\"}";
      }
      os << "],\"missed\":" << missed << "}\n";
      std::fputs(os.str().c_str(), stdout);
    } else {
      TextTable t({"site", "kind", "fired", "violations", "recovered",
                   "verified", "class"});
      for (const SiteResult& sr : results) {
        t.add_row({std::string(anno_site_name(sr.site)),
                   anno_site_is_wb(sr.site) ? "wb" : "inv",
                   std::to_string(sr.fired), std::to_string(sr.violations),
                   std::to_string(sr.recovered),
                   sr.hung ? "hang" : (sr.verified ? "yes" : "NO"),
                   sr.klass});
      }
      std::printf("annotation-mutation sweep: %s on %s, %d threads\n\n%s",
                  app.c_str(), config_label.c_str(), threads,
                  t.render().c_str());
      std::printf("\n%zu site(s), %llu MISSED\n", results.size(),
                  static_cast<unsigned long long>(missed));
    }
    return missed == 0 ? kExitOk : kExitVerifyFailed;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitFailure;
  }
}
