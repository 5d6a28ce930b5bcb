#include "workloads.hpp"

#include <algorithm>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "apps/workload.hpp"
#include "common/config_json.hpp"
#include "common/rng.hpp"
#include "exp/aggregator.hpp"
#include "exp/campaign.hpp"
#include "exp/runner.hpp"
#include "kernels.hpp"
#include "obs/tracer.hpp"
#include "runtime/machine.hpp"
#include "stats/agg.hpp"
#include "stats/report.hpp"
#include "verify/oracle.hpp"

namespace hicbench {
namespace {

using hic::agg::PointStats;
using Knobs = std::vector<std::pair<std::string, std::int64_t>>;

/// Requests per client stream of the serving workload.
constexpr std::int64_t kServingRequests = 1000;

// ---------------------------------------------------------------------------
// Spans: timed calls into a layer, kept in memory and summed at the end.

struct Span {
  const char* name;
  int point;  ///< the point whose call this was (-1: the pass itself)
  Clock::time_point start;
  Clock::time_point end;
};

class SpanLog {
 public:
  void add(const char* name, int point, Clock::time_point start,
           Clock::time_point end) {
    spans_.push_back({name, point, start, end});
  }
  [[nodiscard]] double sum(std::string_view name) const {
    double s = 0;
    for (const Span& sp : spans_)
      if (name == sp.name)
        s += std::chrono::duration<double>(sp.end - sp.start).count();
    return s;
  }

 private:
  std::vector<Span> spans_;
};

/// Times the consecutive calls of one point; each mark() closes a span.
class CallTimer {
 public:
  CallTimer(SpanLog* log, int point)
      : log_(log), point_(point), last_(Clock::now()) {}

  double mark(const char* name) {
    const Clock::time_point now = Clock::now();
    const double s = std::chrono::duration<double>(now - last_).count();
    if (log_ != nullptr) log_->add(name, point_, last_, now);
    total_ += s;
    last_ = now;
    return s;
  }
  /// Restarts the clock without charging: the benchmark's own checks.
  void skip() { last_ = Clock::now(); }
  [[nodiscard]] double total() const { return total_; }

 private:
  SpanLog* log_;
  int point_;
  Clock::time_point last_;
  double total_ = 0;
};

// ---------------------------------------------------------------------------
// Points.

struct PointSpec {
  std::string app;
  std::string label;  ///< Table II label
  hic::Config config = hic::Config::Hcc;
  hic::MachineConfig mc;
  Knobs knobs;
  bool oracle = false;
  bool tracer = false;
  /// Cross-check cycles and flits against tests/data/golden_stats.csv.
  bool golden = false;
  /// Digests must match the recording (false for seed-drawn inputs).
  bool recorded = true;

  [[nodiscard]] std::string key() const {
    std::string k = app + "/" + label + "/" + std::to_string(mc.blocks) +
                    "x" + std::to_string(mc.cores_per_block);
    if (mc.staleness_monitor) k += "/monitor";
    if (oracle) k += "/oracle";
    if (tracer) k += "/tracer";
    for (const auto& [name, value] : knobs)
      k += "/" + name + "=" + std::to_string(value);
    return k;
  }
};

PointSpec make_spec(const std::string& app, const std::string& label,
                    const hic::MachineConfig& mc) {
  const auto w = hic::make_workload(app);
  const auto cfg = hic::config_from_string(label, w->inter_block());
  if (!cfg.has_value())
    throw std::runtime_error("unknown config " + label + " for " + app);
  PointSpec s;
  s.app = app;
  s.label = label;
  s.config = *cfg;
  s.mc = mc;
  return s;
}

/// exec cycles and total flits per "app|label" at the stock presets.
using Golden = std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>;

Golden load_golden(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  Golden g;
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string key, cycles, flits;
    if (std::getline(ls, key, ',') && std::getline(ls, cycles, ',') &&
        std::getline(ls, flits, ','))
      g[key] = {std::stoull(cycles), std::stoull(flits)};
  }
  if (g.empty()) throw std::runtime_error("no rows in " + path);
  return g;
}

std::uint64_t total_flits(const PointStats& p) {
  std::uint64_t f = 0;
  for (const std::uint64_t t : p.traffic) f += t;
  return f;
}

void check_golden(const Golden& g, const PointStats& p,
                  std::vector<std::string>& problems) {
  const auto it = g.find(p.app + "|" + p.config);
  if (it == g.end()) {
    problems.push_back("no golden row for " + p.app + "|" + p.config);
    return;
  }
  if (p.exec_cycles != it->second.first || total_flits(p) != it->second.second)
    problems.push_back("golden mismatch: " + std::to_string(p.exec_cycles) +
                       " cycles / " + std::to_string(total_flits(p)) +
                       " flits, recorded " + std::to_string(it->second.first) +
                       " / " + std::to_string(it->second.second));
}

struct Context {
  const RunOptions& opts;
  Ledger& ledger;
  Golden golden;
};

struct PointRun {
  double wall_s = 0;
  double setup_s = 0;  ///< Machine construction + Workload::setup
  double run_s = 0;    ///< Machine::run
  double export_s = 0;
  double trace_mb = 0;
  PointStats stats;
};

/// Runs one point from scratch (fresh Machine, empty caches) and enters it
/// in the ledger. Host time covers the program's calls only; the
/// benchmark's own checks run between spans.
/// A point's program objects, built and wired as the point asks. The
/// machine holds the observers, so it is declared last and goes first.
struct Built {
  std::unique_ptr<hic::CoherenceOracle> oracle;
  std::unique_ptr<hic::Tracer> tracer;
  std::unique_ptr<hic::Workload> w;
  std::unique_ptr<hic::Machine> m;

  void clear() {
    m.reset();
    w.reset();
    tracer.reset();
    oracle.reset();
  }
};

Built build(const PointSpec& s) {
  Built b;
  b.w = hic::make_workload(s.app);
  for (const auto& [key, value] : s.knobs)
    if (!b.w->set_knob(key, value))
      throw std::runtime_error("knob rejected: " + key);
  b.m = std::make_unique<hic::Machine>(s.mc, s.config);
  if (s.oracle) {
    b.oracle = std::make_unique<hic::CoherenceOracle>();
    b.m->set_oracle(b.oracle.get());
  }
  if (s.tracer) {
    b.tracer = std::make_unique<hic::Tracer>();
    b.m->set_tracer(b.tracer.get());
  }
  return b;
}

PointRun run_point(Context& cx, const PointSpec& s, SpanLog* log, int index) {
  PointRun r;
  std::vector<std::string> problems;
  std::map<std::string, std::string> digests;
  try {
    CallTimer t(log, index);
    Built b = build(s);
    auto& w = b.w;
    auto& m = b.m;
    auto& oracle = b.oracle;
    auto& tracer = b.tracer;
    r.setup_s = t.mark("runtime.machine_new_s");
    const int n = s.mc.total_cores();
    w->setup(*m, n);
    r.setup_s += t.mark("apps.setup_s");
    m->run(n, [&w](hic::Thread& th) { w->body(th); });
    r.run_s = t.mark("run_s");
    w->finish(*m);
    t.mark("apps.finish_s");
    // The report and the trace come before verify(), whose reads through
    // the hierarchy add traffic of their own.
    const std::string stats_json = hic::to_json(m->stats());
    t.mark("stats.report_s");
    std::string trace_json;
    if (tracer) {
      tracer->finish(m->exec_cycles());
      trace_json = tracer->json(&m->stats());
      r.export_s = t.mark("obs.export_s");
    }
    r.stats = hic::agg::point_from_stats(s.app, s.label, n, m->stats());
    t.skip();
    const hic::WorkloadResult v = w->verify(*m);
    t.mark("apps.verify_s");

    if (!v.ok) problems.push_back("verify() failed: " + v.detail);
    if (oracle && oracle->total_violations() > 0)
      problems.push_back("oracle reported " +
                         std::to_string(oracle->total_violations()) +
                         " violations");
    if (s.golden) check_golden(cx.golden, r.stats, problems);
    digests[s.key() + "/stats"] = digest(stats_json);
    if (tracer) {
      digests[s.key() + "/trace"] = digest(trace_json);
      r.trace_mb = static_cast<double>(trace_json.size()) / (1024.0 * 1024.0);
    }
    t.skip();
    trace_json = std::string();
    b.clear();
    t.mark("runtime.teardown_s");
    r.wall_s = t.total();
  } catch (const std::exception& e) {
    problems.push_back(std::string("threw: ") + e.what());
  }
  cx.ledger.point(s.key(), std::move(problems), digests, s.recorded);
  return r;
}

// ---------------------------------------------------------------------------
// Workloads.

struct Suite {
  std::vector<PointSpec> points;  ///< empty for the campaign
  /// Points of the staleness-monitor and oracle/tracer on/off pairs.
  std::vector<PointSpec> stale_probe;
  std::vector<PointSpec> observer_probe;
  hic::MachineConfig kernel_mc;
  hic::IncoherentOptions kernel_opts;
  bool campaign = false;
  int jobs = 1;
  bool tracer_armed = false;  ///< the workload's own points export traces
};

hic::MachineConfig intra_preset(bool monitor) {
  hic::MachineConfig mc = hic::MachineConfig::intra_block();
  mc.staleness_monitor = monitor;
  return mc;
}

hic::MachineConfig inter_preset(int blocks, int cores_per_block) {
  hic::MachineConfig mc = hic::MachineConfig::inter_block();
  mc.blocks = blocks;
  mc.cores_per_block = cores_per_block;
  mc.staleness_monitor = false;
  return mc;
}

hic::IncoherentOptions bmi() { return hic::buffer_options(hic::Config::BaseMebIeb); }

/// The serving knobs: requests raised for every seed; seed 0 keeps the
/// workloads' defaults, any other seed draws the rest within fixed ranges.
Knobs serving_knobs(const std::string& app, std::uint64_t seed) {
  Knobs k{{"requests", kServingRequests}};
  if (seed == 0) return k;
  hic::Rng rng(seed);
  const auto draw = [&rng](std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    rng.next_below(static_cast<std::uint64_t>(hi - lo + 1)));
  };
  const std::int64_t keys = draw(92, 100);
  const std::int64_t puts = draw(48, 52);
  const std::int64_t gap = draw(94, 98);
  const std::int64_t work = draw(46, 50);
  k.emplace_back("gap", gap);
  k.emplace_back("work", work);
  if (app == "kv-store") {
    k.emplace_back("keys", keys);
    k.emplace_back("puts", puts);
  }
  return k;
}

Suite make_suite(const std::string& name, std::uint64_t seed) {
  Suite s;
  s.kernel_mc = intra_preset(true);
  s.kernel_opts = bmi();
  if (name == "intra-bmi") {
    for (const std::string& app : hic::intra_workload_names()) {
      PointSpec p = make_spec(app, "B+M+I", intra_preset(true));
      p.golden = true;
      s.points.push_back(p);
    }
    s.stale_probe = s.points;
    s.observer_probe = {make_spec("water-spatial", "B+M+I", intra_preset(true))};
  } else if (name == "inter-addrl-hcc") {
    for (const std::string& app : hic::inter_workload_names()) {
      PointSpec p = make_spec(app, "Addr+L", inter_preset(4, 8));
      p.golden = true;
      s.points.push_back(p);
      s.points.push_back(make_spec(app, "HCC", inter_preset(4, 8)));
    }
    s.points.push_back(make_spec("ep", "Addr+L", inter_preset(16, 4)));
    s.stale_probe = s.points;
    s.observer_probe = {make_spec("ep", "Addr+L", inter_preset(4, 8))};
    s.kernel_mc = inter_preset(4, 8);
    s.kernel_opts = hic::buffer_options(hic::Config::InterAddrL);
  } else if (name == "serving-observed") {
    for (const std::string& app : hic::serving_workload_names()) {
      PointSpec p = make_spec(app, "B+M+I", intra_preset(true));
      p.knobs = serving_knobs(app, seed);
      p.recorded = seed == 0;
      s.stale_probe.push_back(p);
      p.oracle = true;
      p.tracer = true;
      s.points.push_back(p);
    }
    s.observer_probe = s.stale_probe;
    s.tracer_armed = true;
  } else if (name == "paper-campaign") {
    s.campaign = true;
    s.jobs = static_cast<int>(
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
    s.stale_probe = {make_spec("fft", "B+M+I", intra_preset(true))};
    s.observer_probe = {make_spec("water-spatial", "B+M+I", intra_preset(false))};
  } else {
    throw std::runtime_error("unknown workload " + name);
  }
  return s;
}

// ---------------------------------------------------------------------------
// Passes: every point of a workload once, from scratch.

struct Pass {
  double wall_s = 0;
  double run_s = 0;
  double setup_s = 0;
  double peak_rss_mb = 0;
  double elapsed_s = 0;  ///< the pass including the benchmark's checks
  double trace_mb = 0;
  std::uint64_t maccess = 0;
  std::vector<double> point_s;  ///< host seconds per point
  std::vector<double> point_run_s;
  std::vector<double> point_setup_s;
  std::vector<PointStats> stats;
  SpanLog spans;
  /// Host-speed reference samples taken between points (Mode::Measure),
  /// with the workload's thread count and with one thread (the same
  /// samples when the workload runs one thread).
  std::vector<double> reference_s;
  std::vector<double> reference1_s;
};

/// Host-speed reference samples after `work_s` seconds of work: for a
/// tenth of that time and at least `min_samples`, so the samples spread
/// over the run as the work does.
constexpr double kReferenceShare = 0.1;

void sample_reference(std::vector<double>& out, double work_s, int threads,
                      int min_samples = 1) {
  double spent = 0;
  for (int k = 0; k < min_samples || spent < kReferenceShare * work_s; ++k) {
    out.push_back(reference_seconds(threads));
    spent += out.back();
  }
}

std::uint64_t accesses(const PointStats& p) {
  return p.ops.loads + p.ops.stores;
}

/// What a pass records besides its own times: reference samples between
/// points (end-to-end runs), nothing, or spans (the traced run).
enum class Mode { Measure, Plain, Spans };

Pass machine_pass(Context& cx, const Suite& s, Mode mode) {
  Pass p;
  const Clock::time_point t0 = Clock::now();
  reset_peak_rss();
  for (std::size_t i = 0; i < s.points.size(); ++i) {
    const PointRun r =
        run_point(cx, s.points[i], mode == Mode::Spans ? &p.spans : nullptr,
                  static_cast<int>(i));
    p.wall_s += r.wall_s;
    p.run_s += r.run_s;
    p.setup_s += r.setup_s;
    p.trace_mb += r.trace_mb;
    p.maccess += accesses(r.stats);
    p.point_s.push_back(r.wall_s);
    p.point_run_s.push_back(r.run_s);
    p.point_setup_s.push_back(r.setup_s);
    p.stats.push_back(r.stats);
    if (mode == Mode::Measure) sample_reference(p.reference_s, r.wall_s, s.jobs);
  }
  p.reference1_s = p.reference_s;
  p.peak_rss_mb = peak_rss_mb();
  p.elapsed_s = since(t0);
  return p;
}

const hic::MachineConfig& preset_of(const std::string& app) {
  static const hic::MachineConfig intra = hic::MachineConfig::intra_block();
  static const hic::MachineConfig inter = hic::MachineConfig::inter_block();
  return hic::make_workload(app)->inter_block() ? inter : intra;
}

/// True when the point runs on its family's stock preset (the staleness
/// monitor aside, which never changes simulated timing): golden_stats.csv
/// then covers it.
bool on_stock_preset(const hic::exp::CampaignPoint& pt) {
  hic::MachineConfig mc = pt.machine;
  const hic::MachineConfig& preset = preset_of(pt.app);
  mc.staleness_monitor = preset.staleness_monitor;
  return hic::config_digest(mc) == hic::config_digest(preset);
}

std::string campaign_path(const Context& cx) {
  return cx.opts.root + "/campaigns/paper.json";
}

void check_campaign_point(Context& cx, const hic::exp::CampaignPoint& pt,
                          const std::optional<PointStats>& ps,
                          const std::string& error) {
  std::vector<std::string> problems;
  std::map<std::string, std::string> digests;
  if (!ps.has_value()) {
    problems.push_back("point failed: " + error);
  } else {
    if (!ps->verified) problems.push_back("verify() failed");
    if (cx.golden.count(pt.app + "|" + pt.config_label) != 0 &&
        on_stock_preset(pt))
      check_golden(cx.golden, *ps, problems);
    digests["campaign/" + pt.digest] =
        digest(hic::agg::point_to_json(*ps).dump());
  }
  cx.ledger.point("campaign/" + pt.group + "/" + pt.app + "/" +
                      pt.config_label,
                  std::move(problems), digests, true);
}

Pass campaign_pass(Context& cx, const Suite& s, Mode mode) {
  Pass p;
  const Clock::time_point t0 = Clock::now();
  reset_peak_rss();
  try {
    CallTimer t(mode == Mode::Spans ? &p.spans : nullptr, -1);
    auto c = std::make_unique<hic::exp::Campaign>(
        hic::exp::Campaign::load(campaign_path(cx)));
    p.setup_s = t.mark("exp.load_s");
    hic::exp::RunnerOptions ro;
    ro.jobs = s.jobs;
    auto r = std::make_unique<hic::exp::CampaignResults>(
        hic::exp::run_campaign(*c, ro));
    p.run_s = t.mark("run_s");
    std::string figures;
    for (const auto& a : hic::exp::aggregate_campaign(*c, *r, false))
      figures += a.title + "\n" + a.text;
    t.mark("stats.report_s");

    std::string errors;
    for (const std::string& e : r->errors) errors += e + "; ";
    for (std::size_t i = 0; i < c->points.size(); ++i) {
      const auto& ps = r->by_point[i];
      check_campaign_point(cx, c->points[i], ps, errors);
      if (!ps.has_value()) continue;
      p.maccess += accesses(*ps);
      p.stats.push_back(*ps);
    }
    cx.ledger.point("campaign/figures", {},
                    {{"campaign/figures", digest(figures)}}, true);
    t.skip();
    figures = std::string();
    r.reset();
    c.reset();
    t.mark("runtime.teardown_s");
    p.wall_s = t.total();
  } catch (const std::exception& e) {
    cx.ledger.point("campaign", {std::string("threw: ") + e.what()}, {}, true);
  }
  p.peak_rss_mb = peak_rss_mb();
  p.elapsed_s = since(t0);
  p.point_s = {p.wall_s};
  p.point_run_s = {p.run_s};
  p.point_setup_s = {p.setup_s};
  if (mode == Mode::Measure) {
    sample_reference(p.reference_s, p.run_s, s.jobs);
    sample_reference(p.reference1_s, p.wall_s - p.run_s, 1, 8);
  }
  return p;
}

Pass run_pass(Context& cx, const Suite& s, Mode mode) {
  Pass p = s.campaign ? campaign_pass(cx, s, mode) : machine_pass(cx, s, mode);
  std::fprintf(stderr,
               "pass%s: wall %.4f s, run %.4f s, setup %.4f s, peak %.1f MB, "
               "trace %.1f MB\n",
               mode == Mode::Spans ? " (spans)" : "", p.wall_s, p.run_s, p.setup_s,
               p.peak_rss_mb, p.trace_mb);
  return p;
}

std::vector<double> collect(const std::vector<const Pass*>& passes,
                            const std::function<double(const Pass&)>& f) {
  std::vector<double> v;
  for (const Pass* p : passes) v.push_back(f(*p));
  return v;
}

// ---------------------------------------------------------------------------
// End-to-end run.

/// Set-up only: each point's Machine construction and Workload::setup (for
/// the campaign, Campaign::load), timed per point; nothing runs.
std::vector<double> setup_pass(Context& cx, const Suite& s) {
  std::vector<double> v;
  trim_heap();
  if (s.campaign) {
    const Clock::time_point t0 = Clock::now();
    const hic::exp::Campaign c = hic::exp::Campaign::load(campaign_path(cx));
    v.push_back(since(t0));
    return v;
  }
  for (const PointSpec& p : s.points) {
    const Clock::time_point t0 = Clock::now();
    Built b = build(p);
    b.w->setup(*b.m, p.mc.total_cores());
    v.push_back(since(t0));
    b.clear();
  }
  return v;
}

/// Sum over points of the median of each point's samples across passes.
double per_point(const std::vector<std::vector<double>>& samples) {
  double sum = 0;
  for (const std::vector<double>& v : samples) sum += median(v);
  return sum;
}

/// Adds a pass's per-point values as one more sample of each point.
void add_samples(std::vector<std::vector<double>>& samples,
                 const std::vector<double>& pass) {
  samples.resize(pass.size());
  for (std::size_t i = 0; i < pass.size(); ++i) samples[i].push_back(pass[i]);
}

/// Set-up-only passes after each full pass, for more set-up samples: at
/// least kMinSetupPasses, and more while they take under kSetupShare of
/// the full pass, up to kMaxSetupPasses.
constexpr int kMinSetupPasses = 2;
constexpr int kMaxSetupPasses = 50;
constexpr double kSetupShare = 0.1;

/// The simulator's host speed drifts by tens of percent over minutes on a
/// shared host (other tenants' load), and a pass's time with it. The
/// reference loop, sampled between the points, drifts alike, so end-to-end
/// times are reported at a fixed reference speed: each point's median
/// across passes, summed over points, times kReferenceNominalS over the
/// median reference sample. Set-up runs on one thread and is scaled by the
/// one-thread reference. The measured seconds are printed beside them.
void end_to_end(Context& cx, const Suite& s, Report& report) {
  std::vector<std::vector<double>> wall, run, setup;
  std::vector<double> rss;
  std::vector<double> reference;
  std::vector<double> reference1;
  std::vector<double> elapsed;
  std::uint64_t maccess = 0;
  const Clock::time_point t0 = Clock::now();
  do {
    const Clock::time_point tp = Clock::now();
    const Pass p = run_pass(cx, s, Mode::Measure);
    add_samples(wall, p.point_s);
    add_samples(run, p.point_run_s);
    add_samples(setup, p.point_setup_s);
    reference.insert(reference.end(), p.reference_s.begin(), p.reference_s.end());
    reference1.insert(reference1.end(), p.reference1_s.begin(), p.reference1_s.end());
    const Clock::time_point ts = Clock::now();
    for (int k = 0; k < kMaxSetupPasses &&
                    (k < kMinSetupPasses || since(ts) < kSetupShare * p.elapsed_s);
         ++k)
      add_samples(setup, setup_pass(cx, s));
    rss.push_back(p.peak_rss_mb);
    maccess = p.maccess;
    elapsed.push_back(since(tp));
  } while (since(t0) + median(elapsed) <= cx.opts.seconds);

  const std::size_t n = rss.size();
  const double ref = median(reference);
  const double scale = kReferenceNominalS / ref;
  const double scale1 = kReferenceNominalS / median(reference1);
  const double run_s = per_point(run) * scale;
  report.add("wall_s", per_point(wall) * scale, "s", n);
  report.add("run_s", run_s, "s", n);
  report.add("setup_s", per_point(setup) * scale1, "s", setup.front().size());
  report.add("sim_maccess_per_s", static_cast<double>(maccess) / run_s / 1e6,
             "Maccess/s", n);
  report.add("peak_rss_mb", max_of(rss), "MB", n);
  report.info("host.reference_s", ref, "s", reference.size());
  if (s.jobs > 1)
    report.info("host.reference1_s", median(reference1), "s", reference1.size());
  report.info("host.wall_measured_s", per_point(wall), "s", n);
  report.info("host.run_measured_s", per_point(run), "s", n);
  report.info("host.setup_measured_s", per_point(setup), "s", setup.front().size());
}

// ---------------------------------------------------------------------------
// Traced run: spans, observer pairs, kernels, exp, simulated counts.

struct PairTotals {
  double on_s = 0;
  double off_s = 0;
  double export_s = 0;
  double trace_mb = 0;
};

/// Runs each probe point with the observer on and off, alternating which
/// side runs first so host drift cancels, and sums Machine::run time.
PairTotals observer_pair(Context& cx, const std::vector<PointSpec>& probe,
                         const std::function<void(PointSpec&, bool)>& set,
                         SpanLog& log) {
  PairTotals t;
  for (std::size_t i = 0; i < probe.size(); ++i) {
    for (const bool on : {i % 2 == 1, i % 2 == 0}) {
      PointSpec p = probe[i];
      p.oracle = false;
      p.tracer = false;
      set(p, on);
      const PointRun r = run_point(cx, p, &log, static_cast<int>(i));
      (on ? t.on_s : t.off_s) += r.run_s;
      t.export_s += r.export_s;
      t.trace_mb += r.trace_mb;
    }
  }
  return t;
}

void report_pair(Report& report, const std::string& what,
                 const std::string& metric, const PairTotals& t,
                 std::size_t points) {
  report.add(metric + "_s", t.on_s - t.off_s, "s", points);
  report.add(metric + "_ratio", t.off_s > 0 ? t.on_s / t.off_s : 0.0, "ratio",
             points);
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s on / off = %.3fx over %.4f s (%zu points)",
                what.c_str(), t.off_s > 0 ? t.on_s / t.off_s : 0.0, t.off_s,
                points);
  report.note(buf);
}

struct CountField {
  const char* name;
  const char* unit;
  std::uint64_t (*get)(const PointStats&);
  bool max = false;  ///< max over points instead of the sum
};

std::uint64_t stall(const PointStats& p, hic::StallKind k) {
  return p.stall[static_cast<std::size_t>(k)];
}
std::uint64_t flits(const PointStats& p, hic::TrafficKind k) {
  return p.traffic[static_cast<std::size_t>(k)];
}

const std::vector<CountField>& count_fields() {
  using hic::StallKind;
  using hic::TrafficKind;
  static const std::vector<CountField> f = {
      {"sim.cycles", "cycles", [](const PointStats& p) { return p.exec_cycles; }},
      {"mem.l1_hits", "count", [](const PointStats& p) { return p.ops.l1_hits; }},
      {"mem.l1_misses", "count", [](const PointStats& p) { return p.ops.l1_misses; }},
      {"mem.l2_misses", "count", [](const PointStats& p) { return p.ops.l2_misses; }},
      {"mem.l3_misses", "count", [](const PointStats& p) { return p.ops.l3_misses; }},
      {"noc.flits_linefill", "count",
       [](const PointStats& p) { return flits(p, TrafficKind::Linefill); }},
      {"noc.flits_writeback", "count",
       [](const PointStats& p) { return flits(p, TrafficKind::Writeback); }},
      {"noc.flits_invalidation", "count",
       [](const PointStats& p) { return flits(p, TrafficKind::Invalidation); }},
      {"noc.flits_memory", "count",
       [](const PointStats& p) { return flits(p, TrafficKind::Memory); }},
      {"noc.flits_sync", "count",
       [](const PointStats& p) { return flits(p, TrafficKind::Sync); }},
      {"core.wb_ops", "count", [](const PointStats& p) { return p.ops.wb_ops; }},
      {"core.inv_ops", "count", [](const PointStats& p) { return p.ops.inv_ops; }},
      {"core.lines_written_back", "count",
       [](const PointStats& p) { return p.ops.lines_written_back; }},
      {"core.lines_invalidated", "count",
       [](const PointStats& p) { return p.ops.lines_invalidated; }},
      {"core.meb_wbs", "count", [](const PointStats& p) { return p.ops.meb_wbs; }},
      {"core.meb_overflows", "count",
       [](const PointStats& p) { return p.ops.meb_overflows; }},
      {"core.ieb_refreshes", "count",
       [](const PointStats& p) { return p.ops.ieb_refreshes; }},
      {"hierarchy.dir_invalidations", "count",
       [](const PointStats& p) { return p.ops.dir_invalidations_sent; }},
      {"sim.stall_inv", "cycles",
       [](const PointStats& p) { return stall(p, StallKind::InvStall); }},
      {"sim.stall_wb", "cycles",
       [](const PointStats& p) { return stall(p, StallKind::WbStall); }},
      {"sim.stall_lock", "cycles",
       [](const PointStats& p) { return stall(p, StallKind::LockStall); }},
      {"sim.stall_barrier", "cycles",
       [](const PointStats& p) { return stall(p, StallKind::BarrierStall); }},
      {"sim.stall_rest", "cycles",
       [](const PointStats& p) { return stall(p, StallKind::Rest); }},
      {"apps.req_lat_p50", "cycles",
       [](const PointStats& p) { return p.ops.req_lat_p50; }, true},
      {"apps.req_lat_p99", "cycles",
       [](const PointStats& p) { return p.ops.req_lat_p99; }, true},
  };
  return f;
}

void traced(Context& cx, const Suite& s, Report& report) {
  // 1. Whole passes, untraced and traced in turn: spans at the benchmark's
  //    calls, and the tracing overhead as the difference of the two.
  std::vector<Pass> passes;
  const Clock::time_point t0 = Clock::now();
  std::vector<double> elapsed;
  do {
    passes.push_back(
        run_pass(cx, s, passes.size() % 2 == 1 ? Mode::Spans : Mode::Plain));
    elapsed.push_back(passes.back().elapsed_s);
  } while (passes.size() < 2 ||
           since(t0) + median(elapsed) <= cx.opts.seconds / 2);
  std::vector<const Pass*> plain;
  std::vector<const Pass*> spanned;
  for (std::size_t i = 0; i < passes.size(); ++i)
    (i % 2 == 1 ? spanned : plain).push_back(&passes[i]);
  const std::size_t n = spanned.size();
  const auto span_median = [&](const char* name) {
    return median(collect(spanned, [name](const Pass& p) { return p.spans.sum(name); }));
  };

  // 2. Observer on/off pairs on the workload's probe points.
  SpanLog probe_log;
  const PairTotals stale = observer_pair(
      cx, s.stale_probe,
      [](PointSpec& p, bool on) { p.mc.staleness_monitor = on; }, probe_log);
  const PairTotals oracle = observer_pair(
      cx, s.observer_probe, [](PointSpec& p, bool on) { p.oracle = on; },
      probe_log);
  const PairTotals tracer = observer_pair(
      cx, s.observer_probe, [](PointSpec& p, bool on) { p.tracer = on; },
      probe_log);

  // Spans come from the workload's own passes; the campaign runs its
  // points inside run_campaign's workers, so there they come from the
  // probe points run through the same calls.
  const auto layer_span = [&](const char* name) {
    return s.campaign ? probe_log.sum(name) : span_median(name);
  };
  const std::size_t span_n = s.campaign ? 1 : n;
  report.add("runtime.machine_new_s", layer_span("runtime.machine_new_s"), "s", span_n);
  report.add("apps.setup_s", layer_span("apps.setup_s"), "s", span_n);
  report.add("apps.verify_s", layer_span("apps.verify_s"), "s", span_n);
  report.add("stats.report_s",
             s.campaign ? span_median("stats.report_s") + probe_log.sum("stats.report_s")
                        : span_median("stats.report_s"),
             "s", span_n);
  if (s.tracer_armed) {
    report.add("obs.export_s", span_median("obs.export_s"), "s", n);
    report.add("obs.trace_mb",
               median(collect(spanned, [](const Pass& p) { return p.trace_mb; })),
               "MB", n);
  } else {
    report.add("obs.export_s", tracer.export_s, "s", 1);
    report.add("obs.trace_mb", tracer.trace_mb, "MB", 1);
  }
  report_pair(report, "staleness monitor", "core.stale_monitor", stale,
              s.stale_probe.size());
  report_pair(report, "oracle", "verify.oracle", oracle, s.observer_probe.size());
  report_pair(report, "tracer", "obs.tracer_record", tracer,
              s.observer_probe.size());

  // 3. Layer kernels on the workload's preset and configuration.
  std::vector<std::string> problems;
  run_kernels(s.kernel_mc, s.kernel_opts, report, problems);
  cx.ledger.point("kernels", std::move(problems), {}, false);

  // 4. exp: per-point host time, serial, beside the (parallel) passes.
  const double run_s =
      median(collect(spanned, [](const Pass& p) { return p.run_s; }));
  std::vector<double> point_s;
  double eff_base = 0;
  if (s.campaign) {
    const hic::exp::Campaign c = hic::exp::Campaign::load(campaign_path(cx));
    std::map<std::string, bool> done;
    for (const hic::exp::CampaignPoint& pt : c.points) {
      if (!done.emplace(pt.digest, true).second) continue;
      const Clock::time_point tp = Clock::now();
      std::optional<PointStats> ps;
      std::string error;
      try {
        ps = hic::exp::execute_point(pt);
      } catch (const std::exception& e) {
        error = e.what();
      }
      point_s.push_back(since(tp));
      check_campaign_point(cx, pt, ps, error);
    }
    eff_base = s.jobs * run_s;
  } else {
    point_s = spanned.back()->point_s;
    eff_base = median(collect(spanned, [](const Pass& p) { return p.elapsed_s; }));
  }
  double serial = 0;
  for (const double v : point_s) serial += v;
  report.add("exp.points_serial_s", serial, "s", 1);
  report.add("exp.point_s_p50", median(point_s), "s", point_s.size());
  report.add("exp.point_s_max", max_of(point_s), "s", point_s.size());
  report.add("exp.parallel_eff", eff_base > 0 ? serial / eff_base : 0.0,
             "ratio", 1);
  {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "exp: %zu points, %.3f s serial over %d job(s) x %.3f s",
                  point_s.size(), serial, s.jobs,
                  s.campaign ? run_s : eff_base);
    report.note(buf);
  }

  // 5. Simulated work: exact counts, the denominators of the rows above.
  const std::vector<PointStats>& stats = spanned.back()->stats;
  std::uint64_t maccess = 0;
  for (const PointStats& p : stats) maccess += accesses(p);
  for (const CountField& f : count_fields()) {
    std::uint64_t v = 0;
    for (const PointStats& p : stats) v = f.max ? std::max(v, f.get(p)) : v + f.get(p);
    report.add(f.name, static_cast<double>(v), f.unit, stats.size());
  }
  report.add("sim.host_ns_per_access",
             maccess > 0 ? run_s / static_cast<double>(maccess) * 1e9 : 0.0,
             "ns", n);
  report.add("trace.overhead_s",
             median(collect(spanned, [](const Pass& p) { return p.wall_s; })) -
                 median(collect(plain, [](const Pass& p) { return p.wall_s; })),
             "s", passes.size());
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "intra-bmi", "inter-addrl-hcc", "serving-observed", "paper-campaign"};
  return names;
}

void run_workload(const RunOptions& opts, Ledger& ledger, Report& report) {
  Context cx{opts, ledger, load_golden(opts.root + "/tests/data/golden_stats.csv")};
  const Suite s = make_suite(opts.workload, opts.seed);
  for (const PointSpec& p : s.points)
    if (!p.knobs.empty()) report.note("point " + p.key());
  if (opts.traced) {
    traced(cx, s, report);
  } else {
    end_to_end(cx, s, report);
  }
  report.info("fail_frac",
             ledger.attempted() > 0
                 ? static_cast<double>(ledger.failed()) /
                       static_cast<double>(ledger.attempted())
                 : 1.0,
             "ratio", ledger.attempted());
}

}  // namespace hicbench
