// Cycle-accurate event tracing for the simulator (the observability layer).
//
// The tracer records, per simulated core:
//   - stall spans: every StallAccount charge, keyed by StallKind, so the
//     Figure 9 breakdown can be seen over time (per-core span totals equal
//     the StallAccount to the cycle — tools/trace_check.py verifies this);
//   - op spans: WB/INV/CS/drain/DMA instruction execution windows;
//   - sync spans: barrier/lock/unlock/flag calls including blocked time;
//   - write-buffer drain spans: each entry's background [start, complete);
//   - cache instants: line fills, dirty evictions, MEB/IEB and directory
//     events, stamped with the issuing core's clock;
//   - counter samples: per-period deltas of every registered counter
//     (see counter_registry.hpp) every `sample_cycles` simulated cycles.
//
// Export is the Chrome trace-event JSON format: load the file in Perfetto
// (ui.perfetto.dev) or chrome://tracing. One track per (category, core),
// plus one counter track per registered counter. Timestamps are simulated
// cycles (displayed as microseconds by the viewers).
//
// Cost model: a null Tracer pointer is the off switch — every hook in the
// engine/hierarchy/write-buffer is a single pointer test when tracing is
// off, so golden stats and host performance are unaffected. Recording is
// deterministic: identical runs produce byte-identical exports.
//
// Thread-safety: the tracer is single-threaded by design — its vectors are
// appended in dispatch order with no locking, matching the engine, which
// runs every core of a machine on one host thread.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "obs/counter_registry.hpp"
#include "stats/sim_stats.hpp"

namespace hic {

/// Event categories, individually selectable via TraceOptions::categories
/// (CLI: --trace-filter stall,op,sync,cache,wbuf,counter).
enum class TraceCat : std::uint8_t {
  Stall = 0,  ///< StallKind-attributed cycle spans
  Op,         ///< WB/INV/CS/drain/DMA instruction spans
  Sync,       ///< barrier/lock/flag call spans
  Cache,      ///< fills, dirty evictions, MEB/IEB/directory instants
  Wbuf,       ///< write-buffer entry drain spans
  Counter,    ///< periodic counter samples
  kCount
};
inline constexpr std::size_t kTraceCats =
    static_cast<std::size_t>(TraceCat::kCount);
[[nodiscard]] const char* to_string(TraceCat c);

[[nodiscard]] constexpr std::uint32_t trace_cat_bit(TraceCat c) {
  return 1u << static_cast<std::uint32_t>(c);
}
inline constexpr std::uint32_t kAllTraceCats = (1u << kTraceCats) - 1;

/// Parses a comma-separated category list ("stall,wbuf") into a bitmask.
/// Throws CheckFailure on an unknown name; "all" selects every category.
[[nodiscard]] std::uint32_t parse_trace_filter(const std::string& spec);

struct TraceOptions {
  std::uint32_t categories = kAllTraceCats;
  /// Counter sampling period in simulated cycles; 0 disables sampling.
  Cycle sample_cycles = 0;
};

class Tracer {
 public:
  struct Event {
    Cycle ts = 0;
    Cycle dur = 0;  ///< 0 = instant event
    const char* name = nullptr;
    std::int64_t arg = 0;  ///< address / sync id; meaningful iff has_arg
    CoreId core = 0;
    TraceCat cat = TraceCat::Stall;
    bool has_arg = false;
  };
  struct Sample {
    Cycle ts = 0;
    std::uint32_t counter = 0;  ///< index into the registry
    std::uint64_t delta = 0;    ///< counter growth since the previous sample
  };

  explicit Tracer(TraceOptions opts = {});

  [[nodiscard]] const TraceOptions& options() const { return opts_; }
  [[nodiscard]] bool enabled(TraceCat c) const {
    return (opts_.categories & trace_cat_bit(c)) != 0;
  }

  // --- Recording (called from the engine / hierarchy / write buffer) ------
  void span(TraceCat cat, CoreId core, Cycle start, Cycle end,
            const char* name);
  void span(TraceCat cat, CoreId core, Cycle start, Cycle end,
            const char* name, std::int64_t arg);
  void instant(TraceCat cat, CoreId core, Cycle t, const char* name,
               std::int64_t arg);
  /// Stall span named with the same stable key the stats JSON uses.
  void stall(CoreId core, Cycle start, Cycle end, StallKind k);

  /// Issuing-core context for layers that model latency arithmetically and
  /// carry no clock of their own (the memory hierarchies): the engine sets
  /// it to the acting core's clock before every hierarchy call, and
  /// cache_event() stamps instants with it.
  void set_context(CoreId core, Cycle t) {
    ctx_core_ = core;
    ctx_time_ = t;
  }
  void cache_event(const char* name, Addr line);

  // --- Counter sampling ---------------------------------------------------
  [[nodiscard]] CounterRegistry& counters() { return registry_; }
  /// Emits samples for every whole period boundary at or before `t` that has
  /// not been sampled yet. Called from the engine's charge paths; the clock
  /// that first crosses a boundary triggers its sample (deterministic, since
  /// the dispatch order is).
  void maybe_sample(Cycle t);
  /// Emits one final sample at `end` covering the tail period, so the sum of
  /// every counter's deltas equals its final value.
  void finish(Cycle end);

  // --- Inspection / export ------------------------------------------------
  [[nodiscard]] const std::vector<Event>& events() const { return events_; }
  [[nodiscard]] const std::vector<Sample>& samples() const { return samples_; }

  /// Writes the Chrome trace-event JSON. When `stats` is non-null the file
  /// additionally embeds the stats JSON and the per-core stall breakdown
  /// under the "hicsim" key, making it self-contained for trace_check.py.
  void export_json(std::ostream& os, const SimStats* stats) const;
  [[nodiscard]] std::string json(const SimStats* stats) const;

  void clear();

 private:
  void sample_at(Cycle ts);

  TraceOptions opts_;
  CounterRegistry registry_;
  std::vector<Event> events_;
  std::vector<Sample> samples_;
  std::vector<std::uint64_t> last_values_;
  Cycle next_sample_ = 0;
  Cycle last_sample_ts_ = 0;
  CoreId ctx_core_ = 0;
  Cycle ctx_time_ = 0;
};

}  // namespace hic
