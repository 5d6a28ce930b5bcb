#include "bench.hpp"

#include <malloc.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/json.hpp"

namespace hicbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= v.size()) return v.back();
  return v[lo] + (pos - static_cast<double>(lo)) * (v[lo + 1] - v[lo]);
}

double max_of(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}

namespace {

struct RefLine {
  std::uint64_t tag = 0;
  std::uint64_t lru = 0;
  bool valid = false;
};

/// 16 caches of 128 sets x 4 ways, LRU, probed with clustered addresses:
/// the shape of a cache simulator's inner loop, in a fixed form.
double reference_once() {
  constexpr std::uint32_t kSets = 128;
  constexpr std::uint32_t kWays = 4;
  constexpr int kCaches = 16;
  constexpr int kAccesses = 1500000;
  std::vector<RefLine> lines(kCaches * kSets * kWays);
  std::uint64_t base[kCaches] = {};
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::uint64_t clock = 0;
  std::uint64_t hits = 0;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kAccesses; ++i) {
    const int c = i % kCaches;
    if ((next() & 7) == 0) base[c] = next() % (1 << 20);
    const std::uint64_t line = (base[c] + (next() % 64) * 64) >> 6;
    RefLine* set = &lines[(c * kSets + (line % kSets)) * kWays];
    RefLine* victim = set;
    bool hit = false;
    for (std::uint32_t w = 0; w < kWays; ++w) {
      if (set[w].valid && set[w].tag == line) {
        set[w].lru = ++clock;
        hit = true;
        break;
      }
      if (!set[w].valid || set[w].lru < victim->lru) victim = &set[w];
    }
    if (hit) {
      ++hits;
    } else {
      *victim = {line, ++clock, true};
    }
  }
  const double s = since(t0);
  if (hits == 0) throw std::runtime_error("reference loop never hit");
  return s;
}

}  // namespace

double reference_seconds(int threads) {
  if (threads <= 1) return reference_once();
  std::vector<double> t(static_cast<std::size_t>(threads));
  std::vector<std::thread> th;
  for (std::size_t k = 0; k < t.size(); ++k)
    th.emplace_back([&t, k] { t[k] = reference_once(); });
  for (std::thread& x : th) x.join();
  return median(t);
}

std::string digest(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

void trim_heap() { malloc_trim(0); }

void reset_peak_rss() {
  trim_heap();
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

void Ledger::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read digests file " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  const hic::Json j = hic::Json::parse(ss.str());
  for (const auto& [key, value] : j.at("digests").members())
    recorded_[key] = value.as_string();
}

void Ledger::point(const std::string& name, std::vector<std::string> problems,
                   const std::map<std::string, std::string>& digests,
                   bool recorded) {
  ++attempted_;
  for (const auto& [key, value] : digests) {
    const auto [it, fresh] = seen_.emplace(key, value);
    if (!fresh && it->second != value)
      problems.push_back(key + ": digest " + value + " differs from " +
                         it->second + " earlier in this run");
    if (!recorded || recording_) continue;
    const auto rec = recorded_.find(key);
    if (rec == recorded_.end()) {
      problems.push_back(key + ": no recorded digest");
    } else if (rec->second != value) {
      problems.push_back(key + ": digest " + value + " differs from recorded " +
                         rec->second);
    }
  }
  if (problems.empty()) return;
  ++failed_;
  for (const std::string& p : problems)
    std::fprintf(stderr, "FAIL %s: %s\n", name.c_str(), p.c_str());
}

void Ledger::record(const std::string& path) const {
  Ledger all;
  if (std::ifstream(path)) all.load(path);
  for (const auto& [key, value] : seen_) {
    const auto [it, fresh] = all.recorded_.emplace(key, value);
    if (!fresh && it->second != value)
      throw std::runtime_error(key + ": digest " + value +
                               " differs from recorded " + it->second);
  }
  // One digest per line, so a re-recording diffs point by point.
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write digests file " + path);
  out << "{\"digests\": {";
  const char* sep = "\n";
  for (const auto& [key, value] : all.recorded_) {
    out << sep << "  " << hic::Json::string(key).dump() << ": "
        << hic::Json::string(value).dump();
    sep = ",\n";
  }
  out << "\n}}\n";
}

void Report::add(std::string name, double value, std::string unit,
                 std::size_t samples) {
  if (!std::isfinite(value))
    throw std::runtime_error("metric " + name + " is not finite");
  metrics_.push_back({std::move(name), value, std::move(unit), samples});
}

void Report::info(std::string name, double value, std::string unit,
                  std::size_t samples) {
  add(std::move(name), value, std::move(unit), samples);
  metrics_.back().in_result = false;
}

void Report::note(std::string line) { notes_.push_back(std::move(line)); }

namespace {

/// Shortest text that reads back as exactly `v`.
std::string number(double v) {
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

}  // namespace

void Report::print(bool correct, std::uint64_t attempted,
                   std::uint64_t failed) const {
  for (const std::string& n : notes_) std::printf("# %s\n", n.c_str());
  for (const Metric& m : metrics_)
    std::printf("%-36s %16s %-6s (n=%zu)\n", m.name.c_str(),
                number(m.value).c_str(), m.unit.c_str(), m.samples);
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics_) {
    if (!m.in_result) continue;
    if (!first) json += ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace hicbench
