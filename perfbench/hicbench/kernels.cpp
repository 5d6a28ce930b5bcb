#include "kernels.hpp"

#include <optional>

#include "hierarchy/mesi.hpp"
#include "mem/cache.hpp"
#include "mem/global_memory.hpp"
#include "sim/engine.hpp"
#include "sim/write_buffer.hpp"
#include "sync/sync_controller.hpp"

namespace hicbench {
namespace {

using hic::Addr;
using hic::Cycle;

constexpr int kReps = 7;
constexpr Addr kLine = 64;

/// Keeps results observable so no timed call is optimized away.
std::uint64_t g_sink = 0;

/// Median over `reps` of the host ns per call of `body`, which makes
/// `calls` calls; `prepare` runs untimed before each repetition.
template <typename Prepare, typename Body>
double ns_per_call(int reps, double calls, Prepare&& prepare, Body&& body) {
  std::vector<double> v;
  for (int r = 0; r < reps; ++r) {
    prepare();
    const Clock::time_point t0 = Clock::now();
    body();
    v.push_back(since(t0) * 1e9 / calls);
  }
  return median(v);
}

template <typename Body>
double ns_per_call(int reps, double calls, Body&& body) {
  return ns_per_call(reps, calls, [] {}, body);
}

/// A hierarchy of the workload's kind with its own memory and counters.
struct Incoherent {
  hic::GlobalMemory gmem;
  hic::SimStats stats;
  hic::IncoherentHierarchy h;
  Addr base;

  Incoherent(const hic::MachineConfig& mc, hic::IncoherentOptions opts,
             std::uint64_t bytes)
      : stats(mc.total_cores()),
        h(mc, gmem, stats, opts),
        base(gmem.alloc(bytes, "kernel")) {}

  std::uint64_t read(hic::CoreId core, Addr a) {
    std::uint64_t v = 0;
    h.read(core, a, 8, &v);
    return v;
  }
  void write(hic::CoreId core, Addr a, std::uint64_t v) {
    h.write(core, a, 8, &v);
  }
};

void cache_kernels(const hic::MachineConfig& mc, Report& report) {
  constexpr std::uint32_t kWarm = 256;
  {
    hic::Cache c(mc.l1, true);
    std::optional<hic::EvictedLine> ev;
    std::vector<Addr> lines;
    for (std::uint32_t i = 0; i < kWarm; ++i) {
      lines.push_back(0x10000 + i * kLine);
      c.allocate(lines.back(), ev);
    }
    constexpr std::uint64_t kCalls = 1 << 20;
    report.add("mem.touch_ns", ns_per_call(kReps, kCalls, [&] {
                 for (std::uint64_t k = 0; k < kCalls; ++k)
                   g_sink += c.touch(lines[k % kWarm]) != nullptr;
               }),
               "ns", kReps);
  }
  {
    hic::Cache c(mc.l1, true);
    std::optional<hic::EvictedLine> ev;
    Addr next = 0x10000;
    for (std::uint32_t i = 0; i < mc.l1.num_lines(); ++i, next += kLine)
      c.allocate(next, ev);
    constexpr std::uint64_t kCalls = 1 << 17;
    report.add("mem.allocate_ns", ns_per_call(kReps, kCalls, [&] {
                 for (std::uint64_t k = 0; k < kCalls; ++k, next += kLine)
                   g_sink += c.allocate(next, ev).line_addr;
               }),
               "ns", kReps);
  }
}

void access_kernels(const hic::MachineConfig& mc, hic::IncoherentOptions opts,
                    Report& report) {
  constexpr std::uint64_t kWarm = 256;
  constexpr std::uint64_t kCalls = 1 << 18;
  const auto hits = [&](bool monitor, bool write) {
    hic::MachineConfig m = mc;
    m.staleness_monitor = monitor;
    Incoherent x(m, opts, kWarm * kLine);
    for (std::uint64_t i = 0; i < kWarm; ++i) g_sink += x.read(0, x.base + i * kLine);
    return ns_per_call(kReps, kCalls, [&] {
      for (std::uint64_t k = 0; k < kCalls; ++k) {
        const Addr a = x.base + (k % kWarm) * kLine + ((k / kWarm) % 8) * 8;
        if (write) {
          x.write(0, a, k);
        } else {
          g_sink += x.read(0, a);
        }
      }
    });
  };
  report.add("core.read_hit_ns", hits(false, false), "ns", kReps);
  report.add("core.read_hit_stale_ns", hits(true, false), "ns", kReps);
  report.add("core.write_hit_ns", hits(mc.staleness_monitor, true), "ns", kReps);

  // L1 misses served by the block's L2: a region 16x the L1, warmed once.
  const std::uint64_t lines = 16ULL * mc.l1.num_lines();
  Incoherent x(mc, opts, lines * kLine);
  for (std::uint64_t i = 0; i < lines; ++i) g_sink += x.read(0, x.base + i * kLine);
  report.add("core.read_miss_ns", ns_per_call(kReps, static_cast<double>(lines), [&] {
               for (std::uint64_t i = 0; i < lines; ++i)
                 g_sink += x.read(0, x.base + i * kLine);
             }),
             "ns", kReps);
}

void wb_inv_kernels(const hic::MachineConfig& mc, hic::IncoherentOptions opts,
                    Report& report, std::vector<std::string>& problems) {
  constexpr int kOps = 201;
  const std::uint64_t l1_lines = mc.l1.num_lines();
  Incoherent x(mc, opts, l1_lines * kLine);
  const auto dirty = [&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) x.write(0, x.base + i * kLine, i);
  };
  const auto warm = [&] {
    for (std::uint64_t i = 0; i < l1_lines; ++i) g_sink += x.read(0, x.base + i * kLine);
  };

  constexpr std::uint64_t kRange = 256;
  const hic::AddrRange range{x.base, kRange * kLine};
  warm();
  report.add("core.wb_range_ns_per_line",
             ns_per_call(kOps, kRange, [&] { dirty(kRange); },
                         [&] { g_sink += x.h.wb_range(0, range, hic::Level::L2); }),
             "ns/line", kOps);
  report.add("core.inv_range_ns_per_line",
             ns_per_call(kOps, kRange, warm,
                         [&] { g_sink += x.h.inv_range(0, range, hic::Level::L1); }),
             "ns/line", kOps);

  // WB ALL over a full, warm L1 with `n` dirty lines: the traversal plus n
  // writebacks, so the total must grow with n.
  warm();
  std::vector<double> totals;
  for (const std::uint64_t n : {1, 16, 256}) {
    const double per_line =
        ns_per_call(kOps, static_cast<double>(n), [&] { dirty(n); },
                    [&] { g_sink += x.h.wb_all(0, hic::Level::L2); });
    report.add("core.wb_all_ns_per_dirty_line." + std::to_string(n), per_line,
               "ns/line", kOps);
    totals.push_back(per_line * static_cast<double>(n));
  }
  if (!(totals[0] < totals[1] && totals[1] < totals[2]))
    problems.push_back("WB ALL cost does not grow with dirty lines: " +
                       std::to_string(totals[0]) + " / " +
                       std::to_string(totals[1]) + " / " +
                       std::to_string(totals[2]) + " ns at 1 / 16 / 256");

  constexpr std::uint64_t kPairs = 1 << 12;
  report.add("core.cs_enter_exit_ns", ns_per_call(kReps, kPairs, [&] {
               for (std::uint64_t k = 0; k < kPairs; ++k) {
                 g_sink += x.h.cs_enter(0);
                 g_sink += x.h.cs_exit(0);
               }
             }),
             "ns", kReps);
}

void mesi_kernels(const hic::MachineConfig& mc, Report& report) {
  constexpr std::uint64_t kWarm = 256;
  hic::GlobalMemory gmem;
  hic::SimStats stats(mc.total_cores());
  hic::MesiHierarchy h(mc, gmem, stats);
  const Addr base = gmem.alloc(kWarm * kLine, "kernel");
  std::uint64_t v = 0;
  for (std::uint64_t i = 0; i < kWarm; ++i) h.read(0, base + i * kLine, 8, &v);
  constexpr std::uint64_t kCalls = 1 << 18;
  report.add("hierarchy.mesi_read_hit_ns", ns_per_call(kReps, kCalls, [&] {
               for (std::uint64_t k = 0; k < kCalls; ++k) {
                 h.read(0, base + (k % kWarm) * kLine, 8, &v);
                 g_sink += v;
               }
             }),
             "ns", kReps);
  // A write by core 0 to a line core 1 also holds: upgrade + invalidation.
  constexpr int kOps = 101;
  report.add("hierarchy.mesi_write_shared_ns",
             ns_per_call(kOps, kWarm,
                         [&] {
                           for (std::uint64_t i = 0; i < kWarm; ++i) {
                             h.read(0, base + i * kLine, 8, &v);
                             h.read(1, base + i * kLine, 8, &v);
                           }
                         },
                         [&] {
                           for (std::uint64_t i = 0; i < kWarm; ++i)
                             g_sink += h.write(0, base + i * kLine, 8, &i).latency;
                         }),
             "ns", kOps);
}

void engine_kernels(const hic::MachineConfig& mc, hic::IncoherentOptions opts,
                    Report& report) {
  {
    hic::WriteBufferModel wb(mc.write_buffer_entries, mc.write_buffer_drain_cycles);
    constexpr std::uint64_t kCalls = 1 << 20;
    Cycle now = 0;
    // One store every 3 cycles against a 4-cycle drain: the buffer fills
    // and stays full, so issue() retires, checks capacity and stalls.
    report.add("sim.wbuf_issue_ns", ns_per_call(kReps, kCalls, [&] {
                 for (std::uint64_t k = 0; k < kCalls; ++k)
                   now += 3 + wb.issue_store(now, (k % 64) * kLine);
               }),
               "ns", kReps);
  }
  {
    // Compute-only bodies, each step longer than the slack, so the engine
    // hands off between cores; handoffs are counted from the bodies.
    const int cores = mc.total_cores();
    const Cycle step = 2 * mc.sim_slack_cycles + 1;
    constexpr int kSteps = 4096;
    std::vector<double> v;
    for (int r = 0; r < kReps; ++r) {
      hic::GlobalMemory gmem;
      hic::SimStats stats(cores);
      hic::IncoherentHierarchy h(mc, gmem, stats, opts);
      hic::SyncController sync(cores);
      hic::Engine eng(h, sync, mc.sim_slack_cycles);
      int last = -1;
      std::uint64_t handoffs = 0;
      std::vector<hic::Engine::CoreBody> bodies;
      for (int c = 0; c < cores; ++c) {
        bodies.push_back([&, c](hic::CoreServices& s) {
          for (int i = 0; i < kSteps; ++i) {
            s.compute(step);
            if (last != c) ++handoffs;
            last = c;
          }
        });
      }
      const Clock::time_point t0 = Clock::now();
      eng.run(std::move(bodies));
      v.push_back(since(t0) * 1e9 / static_cast<double>(handoffs));
    }
    report.add("sim.switch_ns", median(v), "ns", kReps);
  }
}

void sync_kernels(const hic::MachineConfig& mc, Report& report) {
  const int cores = mc.total_cores();
  hic::SyncController sc(cores);
  const hic::SyncId lock = sc.declare_lock(0);
  const hic::SyncId barrier = sc.declare_barrier(cores, 0);
  const hic::SyncId flag = sc.declare_flag(0, 0);
  constexpr std::uint64_t kCalls = 1 << 20;
  report.add("sync.lock_ns", ns_per_call(kReps, kCalls, [&] {
               for (std::uint64_t k = 0; k < kCalls; ++k) {
                 g_sink += sc.lock_acquire(lock, 0);
                 g_sink += sc.lock_release(lock, 0).has_value();
               }
             }),
             "ns", kReps);
  const std::uint64_t rounds = kCalls / static_cast<std::uint64_t>(cores);
  report.add("sync.barrier_arrive_ns",
             ns_per_call(kReps, static_cast<double>(rounds * cores), [&] {
               for (std::uint64_t k = 0; k < rounds; ++k)
                 for (int c = 0; c < cores; ++c)
                   g_sink += sc.barrier_arrive(barrier, c).has_value();
             }),
             "ns", kReps);
  report.add("sync.flag_set_ns", ns_per_call(kReps, kCalls, [&] {
               for (std::uint64_t k = 0; k < kCalls; ++k)
                 g_sink += sc.flag_set(flag, k).size();
             }),
             "ns", kReps);
}

}  // namespace

void run_kernels(const hic::MachineConfig& mc, hic::IncoherentOptions opts,
                 Report& report, std::vector<std::string>& problems) {
  cache_kernels(mc, report);
  access_kernels(mc, opts, report);
  wb_inv_kernels(mc, opts, report, problems);
  mesi_kernels(mc, report);
  engine_kernels(mc, opts, report);
  sync_kernels(mc, report);
}

}  // namespace hicbench
