#include "exp/runner.hpp"

#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "apps/workload.hpp"
#include "common/check.hpp"

namespace hic::exp {

bool CampaignResults::all_verified() const {
  for (const auto& r : by_point)
    if (!r.has_value() || !r->verified) return false;
  return true;
}

agg::PointStats execute_point(const CampaignPoint& pt) {
  std::unique_ptr<Workload> w;
  std::unique_ptr<Machine> m;
  Cycle first_cycles = 0;
  // repeat > 1 re-runs the deterministic simulation as a bit-identity
  // canary (same spirit as stats/host_perf.hpp's time_runs).
  for (int r = 0; r < pt.repeat; ++r) {
    w = make_workload(pt.app);
    for (const auto& [key, value] : pt.serve_set)
      HIC_CHECK_MSG(w->set_knob(key, value),
                    "workload '" << pt.app << "' rejected serve knob " << key
                                 << "=" << value);
    m = std::make_unique<Machine>(pt.machine, pt.config);
    for (const std::string& spec : pt.inject)
      m->add_fault_rule(parse_fault_rule(spec));
    if (pt.recover) m->enable_recovery(parse_resil_options(pt.resil_spec));
    const Cycle cy = run_workload(*w, *m, pt.threads);
    if (r == 0) {
      first_cycles = cy;
    } else {
      HIC_CHECK_MSG(cy == first_cycles,
                    "non-deterministic repeat for " << pt.app << "/"
                                                    << pt.config_label
                                                    << ": " << first_cycles
                                                    << " vs " << cy);
    }
  }
  agg::PointStats p =
      agg::point_from_stats(pt.app, pt.config_label, pt.threads, m->stats());
  p.declared_main = w->main_patterns();
  p.declared_other = w->other_patterns();
  p.machine = config_digest(pt.machine);
  p.verified = w->verify(*m).ok;
  return p;
}

namespace {

std::string result_line(const agg::PointStats& p, const std::string& digest) {
  Json j = agg::point_to_json(p);
  j.set("digest", Json::string(digest));
  return j.dump();
}

/// Parses a stored result line; nullopt when it doesn't match the current
/// schemas (stale cache/journal entries degrade to misses, never to errors).
std::optional<agg::PointStats> parse_result_line(const std::string& line) {
  try {
    return agg::point_from_json(Json::parse(line));
  } catch (const CheckFailure&) {
    return std::nullopt;
  }
}

}  // namespace

CampaignResults run_campaign(const Campaign& c, const RunnerOptions& opts) {
  CampaignResults out;
  out.by_point.resize(c.points.size());

  // Unique work items: the first point of each digest stands for all of
  // them (identical digest == identical simulation).
  struct Item {
    const CampaignPoint* pt;
    std::optional<agg::PointStats> result;
    std::string error;
    enum class Source { Pending, Journal, Cache, Simulated } source =
        Source::Pending;
  };
  std::vector<Item> items;
  std::map<std::string, std::size_t> by_digest;
  for (const CampaignPoint& pt : c.points) {
    if (by_digest.emplace(pt.digest, items.size()).second)
      items.push_back(Item{&pt, std::nullopt, "", Item::Source::Pending});
  }
  out.counters.points = items.size();

  // 1) Resume journal: replay completed points recorded by a previous
  // (possibly interrupted) run of this campaign.
  if (opts.journal != nullptr) {
    for (const Journal::Entry& e : opts.journal->recovered()) {
      const auto it = by_digest.find(e.digest);
      if (it == by_digest.end()) continue;
      Item& item = items[it->second];
      if (item.result.has_value()) continue;
      item.result = parse_result_line(e.json_line);
      if (item.result.has_value()) {
        item.source = Item::Source::Journal;
        ++out.counters.journal_hits;
      }
    }
  }

  // 2) Content-addressed cache: warm cross-campaign reruns. Hits are
  // re-journaled so a later resume needs only the journal.
  if (opts.cache != nullptr) {
    for (Item& item : items) {
      if (item.result.has_value()) continue;
      const auto stored = opts.cache->lookup(item.pt->digest);
      if (!stored.has_value()) continue;
      item.result = parse_result_line(*stored);
      if (item.result.has_value()) {
        item.source = Item::Source::Cache;
        ++out.counters.cache_hits;
        if (opts.journal != nullptr) opts.journal->append(*stored);
      }
    }
  }

  // 3) Simulate the rest with work-stealing workers: deal pending items
  // round-robin to per-worker deques; an idle worker pops its own front and
  // steals from others' backs. No task ever spawns new tasks, so "all
  // queues empty" is a sound termination condition.
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < items.size(); ++i)
    if (!items[i].result.has_value()) pending.push_back(i);

  const int jobs = std::max(
      1, std::min<int>(opts.jobs, static_cast<int>(pending.size())));
  std::vector<std::deque<std::size_t>> queues(
      static_cast<std::size_t>(jobs));
  std::vector<std::unique_ptr<std::mutex>> queue_mu;
  for (int i = 0; i < jobs; ++i)
    queue_mu.push_back(std::make_unique<std::mutex>());
  for (std::size_t i = 0; i < pending.size(); ++i)
    queues[i % static_cast<std::size_t>(jobs)].push_back(pending[i]);

  std::mutex sink_mu;  // journal appends, cache stores, progress, counters
  std::size_t done = 0;

  auto work = [&](int self) {
    for (;;) {
      std::size_t idx = SIZE_MAX;
      {
        std::lock_guard<std::mutex> lk(*queue_mu[self]);
        if (!queues[self].empty()) {
          idx = queues[self].front();
          queues[self].pop_front();
        }
      }
      if (idx == SIZE_MAX) {
        for (int v = 0; v < jobs && idx == SIZE_MAX; ++v) {
          if (v == self) continue;
          std::lock_guard<std::mutex> lk(*queue_mu[v]);
          if (!queues[v].empty()) {
            idx = queues[v].back();  // steal cold work from the victim's tail
            queues[v].pop_back();
          }
        }
      }
      if (idx == SIZE_MAX) return;  // every queue drained

      Item& item = items[idx];
      try {
        agg::PointStats p = execute_point(*item.pt);
        const std::string line = result_line(p, item.pt->digest);
        std::lock_guard<std::mutex> lk(sink_mu);
        if (opts.cache != nullptr) opts.cache->store(item.pt->digest, line);
        if (opts.journal != nullptr) opts.journal->append(line);
        item.result = std::move(p);
        item.source = Item::Source::Simulated;
        ++out.counters.simulated;
        ++done;
        if (opts.progress) {
          std::fprintf(stderr, "[%zu/%zu] %s %s%s\n", done, pending.size(),
                       item.pt->app.c_str(), item.pt->config_label.c_str(),
                       item.result->verified ? "" : " (VERIFY FAILED)");
        }
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lk(sink_mu);
        item.error = e.what();
        ++done;
        if (opts.progress) {
          std::fprintf(stderr, "[%zu/%zu] %s %s FAILED: %s\n", done,
                       pending.size(), item.pt->app.c_str(),
                       item.pt->config_label.c_str(), e.what());
        }
      }
    }
  };

  if (jobs == 1 || pending.empty()) {
    work(0);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(jobs));
    for (int i = 0; i < jobs; ++i) workers.emplace_back(work, i);
    for (std::thread& t : workers) t.join();
  }

  // Fan results back out to every (possibly duplicated) campaign point.
  for (std::size_t i = 0; i < c.points.size(); ++i) {
    const Item& item = items[by_digest.at(c.points[i].digest)];
    if (item.result.has_value()) {
      out.by_point[i] = item.result;
    } else {
      ++out.counters.failures;
      out.errors.push_back(c.points[i].app + "/" + c.points[i].config_label +
                           " (" + c.points[i].digest + "): " +
                           (item.error.empty() ? "no result" : item.error));
    }
  }
  return out;
}

}  // namespace hic::exp
