#include "exp/campaign.hpp"

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "apps/workload.hpp"
#include "common/check.hpp"
#include "fault/fault_plan.hpp"
#include "resil/resil.hpp"
#include "stats/report.hpp"

namespace hic::exp {

namespace {

void check_keys(const Json& obj, std::initializer_list<const char*> allowed,
                const char* where) {
  for (const auto& [key, value] : obj.members()) {
    (void)value;
    bool ok = false;
    for (const char* a : allowed)
      if (key == a) ok = true;
    HIC_CHECK_MSG(ok, "unknown key '" << key << "' in " << where);
  }
}

std::vector<std::string> parse_workloads(const Json& v) {
  if (v.is_string()) {
    if (v.as_string() == "intra") return intra_workload_names();
    if (v.as_string() == "inter") return inter_workload_names();
    if (v.as_string() == "serving") return serving_workload_names();
    HIC_CHECK_MSG(false, "\"workloads\" must be \"intra\", \"inter\", "
                         "\"serving\" or a list of workload names (got '"
                             << v.as_string() << "')");
  }
  std::vector<std::string> names;
  for (const Json& item : v.items()) names.push_back(item.as_string());
  HIC_CHECK_MSG(!names.empty(), "\"workloads\" list is empty");
  return names;
}

/// One sweep axis: a dotted machine-config key and its values.
struct SweepAxis {
  std::string key;
  std::vector<std::int64_t> num_values;
  std::vector<bool> bool_values;
  bool is_bool = false;

  [[nodiscard]] std::size_t size() const {
    return is_bool ? bool_values.size() : num_values.size();
  }
};

}  // namespace

std::string point_digest(const CampaignPoint& pt) {
  Json key = Json::object();
  key.set("campaign_schema", Json::integer(kCampaignSchemaVersion));
  key.set("config_schema", Json::integer(kConfigSchemaVersion));
  key.set("stats_schema", Json::integer(kStatsSchemaVersion));
  key.set("machine", config_to_json(pt.machine));
  key.set("workload", Json::string(pt.app));
  key.set("config", Json::string(pt.config_label));
  key.set("threads", Json::integer(pt.threads));
  key.set("seed", Json::integer(static_cast<std::int64_t>(pt.seed)));
  if (!pt.inject.empty()) {
    // Only present when armed: fault-free digests predate this key and must
    // not move.
    Json arr = Json::array();
    for (const std::string& spec : pt.inject) arr.push_back(Json::string(spec));
    key.set("inject", arr);
  }
  if (!pt.serve_set.empty()) {
    // Same rule: knob-free digests must not move. Spec order preserved —
    // knobs are applied in order, so order is part of the point's identity.
    Json arr = Json::array();
    for (const auto& [k, v] : pt.serve_set)
      arr.push_back(Json::string(k + "=" + std::to_string(v)));
    key.set("serve_set", arr);
  }
  if (pt.recover) {
    // Same rule: recovery-off digests must not move.
    key.set("recover", Json::string(pt.resil_spec));
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fnv1a64(key.dump())));
  return buf;
}

std::vector<std::string> split_groups(const std::string& list) {
  std::vector<std::string> names;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = list.find(',', start);
    const std::string one = list.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    HIC_CHECK_MSG(!one.empty(),
                  "empty group name in group list '" << list << "'");
    names.push_back(one);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return names;
}

Campaign Campaign::parse(const Json& spec) {
  check_keys(spec, {"name", "groups", "aggregates"}, "campaign spec");
  Campaign c;
  c.name = spec.at("name").as_string();

  std::set<std::string> group_names;
  for (const Json& g : spec.at("groups").items()) {
    check_keys(g,
               {"name", "workloads", "configs", "machine", "threads", "seed",
                "repeat", "inject", "recover", "serve_set"},
               "campaign group");
    const std::string gname = g.at("name").as_string();
    HIC_CHECK_MSG(group_names.insert(gname).second,
                  "duplicate campaign group '" << gname << "'");

    const std::vector<std::string> workloads =
        parse_workloads(g.at("workloads"));
    std::vector<std::string> config_labels;
    for (const Json& cl : g.at("configs").items())
      config_labels.push_back(cl.as_string());
    HIC_CHECK_MSG(!config_labels.empty(),
                  "group '" << gname << "' lists no configs");

    // Machine: preset plus overrides; array-valued overrides are sweep axes.
    std::string preset;
    Json fixed = Json::object();
    std::vector<SweepAxis> axes;
    if (const Json* machine = g.find("machine")) {
      for (const auto& [key, value] : machine->members()) {
        if (key == "preset") {
          preset = value.as_string();
        } else if (value.is_array()) {
          SweepAxis axis;
          axis.key = key;
          HIC_CHECK_MSG(!value.items().empty(),
                        "sweep axis '" << key << "' in group '" << gname
                                       << "' is empty");
          for (const Json& item : value.items()) {
            if (item.is_bool()) {
              axis.is_bool = true;
              axis.bool_values.push_back(item.as_bool());
            } else {
              axis.num_values.push_back(item.as_i64());
            }
          }
          HIC_CHECK_MSG(axis.bool_values.empty() || axis.num_values.empty(),
                        "sweep axis '" << key << "' mixes bools and numbers");
          axes.push_back(std::move(axis));
        } else {
          fixed.set(key, value);
        }
      }
    }

    const int threads_spec =
        g.find("threads") != nullptr
            ? static_cast<int>(g.at("threads").as_i64())
            : 0;
    const std::uint64_t seed =
        g.find("seed") != nullptr ? g.at("seed").as_u64() : 0;
    const int repeat = g.find("repeat") != nullptr
                           ? static_cast<int>(g.at("repeat").as_i64())
                           : 1;
    std::vector<std::string> inject;
    if (const Json* iv = g.find("inject")) {
      for (const Json& item : iv->items()) {
        const std::string spec = item.as_string();
        (void)parse_fault_rule(spec);  // validate now, not mid-campaign
        inject.push_back(spec);
      }
    }
    std::vector<std::pair<std::string, std::int64_t>> serve_set;
    if (const Json* sv = g.find("serve_set")) {
      for (const auto& [key, value] : sv->members())
        serve_set.emplace_back(key, value.as_i64());
      HIC_CHECK_MSG(!serve_set.empty(),
                    "group '" << gname << "': serve_set is empty");
    }
    bool recover = false;
    std::string resil_spec;
    if (const Json* rv = g.find("recover")) {
      if (rv->is_bool()) {
        recover = rv->as_bool();
      } else {
        resil_spec = rv->as_string();
        recover = true;
      }
      if (recover)
        (void)parse_resil_options(resil_spec);  // validate now, not mid-run
    }
    HIC_CHECK_MSG(repeat >= 1, "group '" << gname << "': repeat must be >= 1");
    HIC_CHECK_MSG(threads_spec >= 0,
                  "group '" << gname << "': threads must be >= 0");

    // Expand the sweep-axis cross product (first axis outermost), then
    // workloads, then configs — a deterministic order the sweep summary
    // preserves.
    std::vector<std::size_t> idx(axes.size(), 0);
    for (;;) {
      // The machine config this sweep combination describes. The preset
      // defaults per-workload (intra vs inter family) when unspecified.
      std::ostringstream desc;
      for (std::size_t a = 0; a < axes.size(); ++a) {
        if (a > 0) desc << ' ';
        desc << axes[a].key << '=';
        if (axes[a].is_bool)
          desc << (axes[a].bool_values[idx[a]] ? "true" : "false");
        else
          desc << axes[a].num_values[idx[a]];
      }

      for (const std::string& app : workloads) {
        auto w = make_workload(app);  // validates the name
        // Validate the serving knobs against this workload now, not
        // mid-campaign (the throwaway instance absorbs the applications).
        for (const auto& [key, value] : serve_set)
          HIC_CHECK_MSG(w->set_knob(key, value),
                        "group '" << gname << "': workload '" << app
                                  << "' rejected serve_set knob " << key
                                  << "=" << value);
        const bool inter = w->inter_block();
        MachineConfig mc =
            !preset.empty()
                ? config_preset(preset)
                : (inter ? MachineConfig::inter_block()
                         : MachineConfig::intra_block());
        apply_config_overrides(mc, fixed);
        for (std::size_t a = 0; a < axes.size(); ++a) {
          Json one = Json::object();
          one.set(axes[a].key,
                  axes[a].is_bool
                      ? Json::boolean(axes[a].bool_values[idx[a]])
                      : Json::integer(axes[a].num_values[idx[a]]));
          apply_config_overrides(mc, one);
        }
        mc.validate();

        for (const std::string& label : config_labels) {
          const auto cfg = config_from_string(label, inter);
          HIC_CHECK_MSG(cfg.has_value(),
                        "group '" << gname << "': unknown config '" << label
                                  << "' for " << (inter ? "inter" : "intra")
                                  << "-block workload '" << app << "'");
          CampaignPoint pt;
          pt.group = gname;
          pt.app = app;
          pt.config_label = label;
          pt.config = *cfg;
          pt.machine = mc;
          pt.sweep_desc = desc.str();
          pt.threads = threads_spec > 0 ? threads_spec : mc.total_cores();
          HIC_CHECK_MSG(pt.threads <= mc.total_cores(),
                        "group '" << gname << "': threads (" << pt.threads
                                  << ") exceeds the machine's "
                                  << mc.total_cores() << " cores");
          pt.seed = seed;
          pt.repeat = repeat;
          pt.inject = inject;
          pt.serve_set = serve_set;
          pt.recover = recover;
          pt.resil_spec = resil_spec;
          pt.digest = point_digest(pt);
          c.points.push_back(std::move(pt));
        }
      }

      // Next sweep combination (odometer; last axis spins fastest).
      if (axes.empty()) break;
      bool wrapped = false;
      std::size_t a = axes.size() - 1;
      for (;;) {
        if (++idx[a] < axes[a].size()) break;
        idx[a] = 0;
        if (a == 0) {
          wrapped = true;
          break;
        }
        --a;
      }
      if (wrapped) break;
    }
  }
  HIC_CHECK_MSG(!c.points.empty(), "campaign expands to zero points");

  static const std::set<std::string> kKinds = {
      "table1", "fig9",    "fig10",   "fig11",         "fig12",   "energy",
      "storage", "summary", "survivability", "serving", "chaos"};
  for (const Json& a : spec.at("aggregates").items()) {
    check_keys(a, {"kind", "group"}, "campaign aggregate");
    AggregateSpec as;
    as.kind = a.at("kind").as_string();
    HIC_CHECK_MSG(kKinds.count(as.kind) == 1,
                  "unknown aggregate kind '" << as.kind << "'");
    if (const Json* gv = a.find("group")) as.group = gv->as_string();
    if (as.kind == "chaos") {
      // Comma-separated list: a chaos table pairs injected scenarios with
      // their fault-free baseline, which necessarily live in other groups
      // (inject is a group-level key).
      for (const std::string& one : split_groups(as.group)) {
        HIC_CHECK_MSG(group_names.count(one) == 1,
                      "aggregate 'chaos' references unknown group '" << one
                                                                     << "'");
      }
    } else if (as.kind != "storage") {
      HIC_CHECK_MSG(group_names.count(as.group) == 1,
                    "aggregate '" << as.kind << "' references unknown group '"
                                  << as.group << "'");
    }
    c.aggregates.push_back(std::move(as));
  }
  return c;
}

Campaign Campaign::load(const std::string& path) {
  std::ifstream is(path);
  HIC_CHECK_MSG(is.good(), "cannot open campaign spec '" << path << "'");
  std::ostringstream ss;
  ss << is.rdbuf();
  return parse(Json::parse(ss.str()));
}

}  // namespace hic::exp
