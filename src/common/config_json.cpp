#include "common/config_json.hpp"

#include <array>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "common/check.hpp"

namespace hic {

namespace {

// Field accessor builders. Each macro instantiates a get/set pair over the
// member's native type with range checks on assignment.
template <auto Member>
std::int64_t get_num(const MachineConfig& mc) {
  return static_cast<std::int64_t>(mc.*Member);
}
template <auto Member, typename T>
void set_num(MachineConfig& mc, std::int64_t v) {
  HIC_CHECK_MSG(v >= 0, "config value must be non-negative (got " << v << ")");
  HIC_CHECK_MSG(
      static_cast<std::uint64_t>(v) <=
          static_cast<std::uint64_t>(std::numeric_limits<T>::max()),
      "config value " << v << " out of range");
  mc.*Member = static_cast<T>(v);
}
template <auto Sub, auto Member>
std::int64_t get_sub(const MachineConfig& mc) {
  return static_cast<std::int64_t>((mc.*Sub).*Member);
}
template <auto Sub, auto Member, typename T>
void set_sub(MachineConfig& mc, std::int64_t v) {
  HIC_CHECK_MSG(v >= 0, "config value must be non-negative (got " << v << ")");
  HIC_CHECK_MSG(
      static_cast<std::uint64_t>(v) <=
          static_cast<std::uint64_t>(std::numeric_limits<T>::max()),
      "config value " << v << " out of range");
  (mc.*Sub).*Member = static_cast<T>(v);
}
template <auto Member>
std::int64_t get_bool(const MachineConfig& mc) {
  return (mc.*Member) ? 1 : 0;
}
template <auto Member>
void set_bool(MachineConfig& mc, std::int64_t v) {
  HIC_CHECK_MSG(v == 0 || v == 1, "boolean config value must be 0/1");
  mc.*Member = v != 0;
}

#define HIC_NUM_FIELD(key, member, type) \
  ConfigField{key, false, get_num<&MachineConfig::member>, \
              set_num<&MachineConfig::member, type>}
#define HIC_CACHE_FIELD(prefix, sub, member, type)            \
  ConfigField{prefix "." #member, false,                      \
              get_sub<&MachineConfig::sub, &CacheParams::member>, \
              set_sub<&MachineConfig::sub, &CacheParams::member, type>}
#define HIC_COST_FIELD(member, type)                               \
  ConfigField{"costs." #member, false,                             \
              get_sub<&MachineConfig::costs, &CacheOpCosts::member>, \
              set_sub<&MachineConfig::costs, &CacheOpCosts::member, type>}
#define HIC_BOOL_FIELD(key, member) \
  ConfigField{key, true, get_bool<&MachineConfig::member>, \
              set_bool<&MachineConfig::member>}

constexpr std::array kFields = {
    HIC_NUM_FIELD("blocks", blocks, int),
    HIC_NUM_FIELD("cores_per_block", cores_per_block, int),
    HIC_CACHE_FIELD("l1", l1, size_bytes, std::uint32_t),
    HIC_CACHE_FIELD("l1", l1, ways, std::uint32_t),
    HIC_CACHE_FIELD("l1", l1, line_bytes, std::uint32_t),
    HIC_CACHE_FIELD("l1", l1, rt_cycles, Cycle),
    HIC_CACHE_FIELD("l2_bank", l2_bank, size_bytes, std::uint32_t),
    HIC_CACHE_FIELD("l2_bank", l2_bank, ways, std::uint32_t),
    HIC_CACHE_FIELD("l2_bank", l2_bank, line_bytes, std::uint32_t),
    HIC_CACHE_FIELD("l2_bank", l2_bank, rt_cycles, Cycle),
    HIC_CACHE_FIELD("l3_bank", l3_bank, size_bytes, std::uint32_t),
    HIC_CACHE_FIELD("l3_bank", l3_bank, ways, std::uint32_t),
    HIC_CACHE_FIELD("l3_bank", l3_bank, line_bytes, std::uint32_t),
    HIC_CACHE_FIELD("l3_bank", l3_bank, rt_cycles, Cycle),
    HIC_NUM_FIELD("l3_banks", l3_banks, int),
    HIC_NUM_FIELD("meb_entries", meb_entries, int),
    HIC_NUM_FIELD("ieb_entries", ieb_entries, int),
    HIC_NUM_FIELD("mesh_hop_cycles", mesh_hop_cycles, Cycle),
    HIC_NUM_FIELD("link_bits", link_bits, std::uint32_t),
    HIC_NUM_FIELD("memory_rt_cycles", memory_rt_cycles, Cycle),
    HIC_NUM_FIELD("write_buffer_entries", write_buffer_entries, int),
    HIC_NUM_FIELD("write_buffer_drain_cycles", write_buffer_drain_cycles,
                  Cycle),
    HIC_NUM_FIELD("sim_slack_cycles", sim_slack_cycles, Cycle),
    HIC_NUM_FIELD("watchdog_max_cycles", watchdog_max_cycles, Cycle),
    HIC_BOOL_FIELD("functional_data", functional_data),
    HIC_BOOL_FIELD("staleness_monitor", staleness_monitor),
    // Always false (validate() rejects true); kept until a config schema bump.
    HIC_BOOL_FIELD("legacy_scheduler", legacy_scheduler),
    HIC_COST_FIELD(tags_checked_per_cycle, std::uint32_t),
    HIC_COST_FIELD(op_fixed_cycles, Cycle),
    HIC_COST_FIELD(per_line_writeback_cycles, Cycle),
    HIC_COST_FIELD(meb_scan_per_entry, Cycle),
};

#undef HIC_NUM_FIELD
#undef HIC_CACHE_FIELD
#undef HIC_COST_FIELD
#undef HIC_BOOL_FIELD

// Guard: a MachineConfig field added without a matching kFields entry (and a
// kConfigSchemaVersion bump) would silently drop out of the canonical form,
// the cache digest, and --set. The struct is plain fixed-width scalars, so
// its size is ABI-stable on the LP64 targets CI runs; if this fires, add the
// field to kFields above, bump kConfigSchemaVersion, and update the size.
#if defined(__x86_64__) || defined(__aarch64__)
static_assert(sizeof(MachineConfig) == 192 && sizeof(CacheParams) == 24 &&
                  sizeof(CacheOpCosts) == 32,
              "MachineConfig layout changed: register every new field in "
              "config_json.cpp's kFields, bump kConfigSchemaVersion, then "
              "update these expected sizes");
#endif
static_assert(kFields.size() == 31,
              "keep the field count in sync with tests/test_config_json.cpp");

const ConfigField* find_field(const std::string& key) {
  for (const ConfigField& f : kFields)
    if (key == f.key) return &f;
  return nullptr;
}

}  // namespace

std::span<const ConfigField> config_fields() { return kFields; }

Json config_to_json(const MachineConfig& mc) {
  Json obj = Json::object();
  for (const ConfigField& f : kFields) {
    if (f.is_bool)
      obj.set(f.key, Json::boolean(f.get(mc) != 0));
    else
      obj.set(f.key, Json::integer(f.get(mc)));
  }
  return obj;
}

std::string canonical_config_json(const MachineConfig& mc) {
  return config_to_json(mc).dump();
}

void apply_config_overrides(MachineConfig& mc, const Json& overrides) {
  for (const auto& [key, value] : overrides.members()) {
    const ConfigField* f = find_field(key);
    HIC_CHECK_MSG(f != nullptr,
                  "unknown machine-config key '"
                      << key << "' (see config_fields() for valid keys)");
    if (f->is_bool) {
      HIC_CHECK_MSG(value.is_bool(), "machine-config key '"
                                         << key << "' expects true/false");
      f->set(mc, value.as_bool() ? 1 : 0);
    } else {
      HIC_CHECK_MSG(value.is_int(), "machine-config key '"
                                        << key << "' expects an integer");
      f->set(mc, value.as_i64());
    }
  }
}

void apply_config_set(MachineConfig& mc, const std::string& key_eq_value) {
  const std::size_t eq = key_eq_value.find('=');
  HIC_CHECK_MSG(eq != std::string::npos && eq > 0 && eq + 1 < key_eq_value.size(),
                "--set expects key=value (got '" << key_eq_value << "')");
  const std::string key = key_eq_value.substr(0, eq);
  const std::string val = key_eq_value.substr(eq + 1);
  const ConfigField* f = find_field(key);
  HIC_CHECK_MSG(f != nullptr, "unknown machine-config key '" << key << "'");
  if (f->is_bool) {
    if (val == "true" || val == "1") {
      f->set(mc, 1);
    } else if (val == "false" || val == "0") {
      f->set(mc, 0);
    } else {
      HIC_CHECK_MSG(false, "boolean key '" << key << "' expects "
                                           << "true/false/1/0 (got '" << val
                                           << "')");
    }
    return;
  }
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(val.c_str(), &end, 10);
  HIC_CHECK_MSG(errno == 0 && end != nullptr && *end == '\0' &&
                    end != val.c_str(),
                "key '" << key << "' expects an integer (got '" << val
                        << "')");
  f->set(mc, v);
}

MachineConfig config_preset(const std::string& name) {
  if (name == "intra") return MachineConfig::intra_block();
  if (name == "inter") return MachineConfig::inter_block();
  HIC_CHECK_MSG(false,
                "unknown machine preset '" << name << "' (intra|inter)");
  return {};
}

std::uint64_t fnv1a64(std::string_view data, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string config_digest(const MachineConfig& mc) {
  std::uint64_t h = fnv1a64("hicsim-config-v" +
                            std::to_string(kConfigSchemaVersion));
  h = fnv1a64(canonical_config_json(mc), h);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace hic
