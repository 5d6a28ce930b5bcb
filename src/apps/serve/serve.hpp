// Request-serving workload family (paper framing: the incoherent hierarchy
// under latency-sensitive server software rather than batch kernels).
//
// Three workloads share this header's substrate:
//   kv-store  — sharded key-value store; remote gets/puts transfer ownership
//               of a record line between cores (ranged WB/INV at the handoff,
//               sites KvReleaseWb / KvAcquireInv);
//   dispatch  — work-stealing request dispatcher generalizing the raytrace
//               task-queue pattern (existing critical-section sites);
//   pipeline  — parse -> process -> respond stages over SPSC rings, with the
//               per-slot WB/INV directives produced by the compiler substrate
//               (analyze_stage_handoff; sites PipeProduceWb / PipeConsumeInv).
//
// All three are driven by the deterministic load generator below and report
// the per-request latency surface (req_* counters, stats schema v6).
//
// Chaos mode (docs/robustness.md): the shared ChaosKnobs turn the workloads
// fail-stop-tolerant — per-request deadlines, backoff retries, hedged kv
// gets, closed-loop issue — and every knob defaults off, so a run without
// them is bit-identical to the pre-chaos behavior.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "runtime/machine.hpp"

namespace hic {

class SimStats;
class Thread;

namespace serve {

/// Load-generator parameters. Every workload knob maps onto one of these
/// fields (Workload::set_knob), so a campaign point's request mix is fully
/// described by five integers.
struct GenParams {
  std::uint64_t seed = 0x5e12e;  ///< stream-family seed
  std::int64_t requests = 96;    ///< requests per client stream
  Cycle mean_gap = 96;           ///< mean open-loop interarrival (cycles)
  std::uint64_t key_space = 64;  ///< keys are uniform in [0, key_space)
  Cycle mean_work = 48;          ///< mean per-request service compute
};

/// One generated request. `kind` is a uniform percentile in [0, 100) the
/// workload interprets (e.g. kv-store: kind < put_percent means put).
struct ServeRequest {
  Cycle arrival = 0;
  std::uint64_t key = 0;
  Cycle work = 0;
  std::uint64_t kind = 0;
};

/// Generates client stream `stream` of the family described by `p`:
/// arrivals are a cumulative sum of integer gaps uniform in
/// [1, 2*mean_gap - 1] (mean = mean_gap; integer-only so the stream is
/// bit-identical across platforms), keys and kinds uniform, work uniform in
/// [1, 2*mean_work - 1]. Each stream draws from its own Rng seeded from
/// (seed, stream) only — adding a client stream never perturbs the draws of
/// existing streams.
[[nodiscard]] std::vector<ServeRequest> gen_stream(const GenParams& p,
                                                   int stream);

/// Arrived-but-unserved backlog of one stream at time `now`, given that
/// `served` of its requests are already done: the generator-side queue-depth
/// probe behind req_qdepth_peak. `stream` must be arrival-sorted (gen_stream
/// output is).
[[nodiscard]] std::uint64_t backlog_at(const std::vector<ServeRequest>& stream,
                                       Cycle now, std::int64_t served);

/// Chaos/recovery knobs shared by the serving workloads. Every field
/// defaults off; a workload whose knobs are all off takes exactly the
/// pre-chaos code path, so healthy golden stats stay bit-identical.
struct ChaosKnobs {
  Cycle deadline = 0;        ///< per-request deadline in cycles (0 = none)
  std::int64_t retries = 0;  ///< max lock-acquire retries before giving up
  Cycle backoff = 0;         ///< retry backoff base (0 = default 16 cycles)
  bool hedge = false;        ///< hedged kv gets (stale-read fallback)
  bool closed = false;       ///< closed-loop issue (next after previous done)

  [[nodiscard]] bool armed() const {
    return deadline != 0 || retries != 0 || backoff != 0 || hedge || closed;
  }
  /// set_knob dispatcher for the chaos keys (deadline / retries / backoff /
  /// hedge / closed); false = not a chaos key or out of range.
  bool set(const std::string& key, std::int64_t value);
  /// Deterministic retry delay for (tid, attempt): base << min(attempt, 6)
  /// plus a jitter in [0, base) drawn from a SplitMix64 mix of
  /// (seed, tid, attempt) — seed-derived, so two runs of the same point
  /// back off identically and distinct threads desynchronize.
  [[nodiscard]] Cycle backoff_delay(std::uint64_t seed, ThreadId tid,
                                    std::int64_t attempt) const;
};

/// Fail-stop-tolerant barrier: arrive on `f` (fetch-add), then poll until
/// every peer has either arrived or provably died (Thread::peer_failed, the
/// static-lease failure detector). Terminates because a core that never
/// arrives halted at a cycle the pollers' clocks eventually pass. When
/// `publish` is true the arrival is preceded by WB ALL and the exit by
/// INV ALL — the plain barrier's Figure 4 annotations, so data published
/// across a survivor barrier is as durable as across a real one.
void survivor_barrier(Thread& t, Machine::Flag f, int nthreads, bool publish);

/// Per-request latency accounting. Each simulated thread records into its
/// own lane, and publish() folds the lanes into the req_* counters of
/// SimStats in fixed tid order.
class RequestStats {
 public:
  struct Lane {
    std::uint64_t issued = 0;
    std::uint64_t remote = 0;
    std::uint64_t qdepth_peak = 0;
    std::uint64_t timeouts = 0;    ///< abandoned at the deadline
    std::uint64_t retries = 0;     ///< backoff retries taken
    std::uint64_t hedged = 0;      ///< hedge reads issued
    std::uint64_t hedge_wins = 0;  ///< requests the hedge rescued
    std::uint64_t failed = 0;      ///< requests that can never complete
    std::uint64_t slo_violations = 0;  ///< late, timed-out, or failed
    std::uint64_t lost_puts = 0;   ///< un-acked puts lost with a victim
    std::uint64_t reacquired = 0;  ///< records re-acquired on failover
    /// Completed requests only — timed-out and failed requests are counted
    /// above and never push a sample here, so the latency percentiles are
    /// never polluted by sentinel values.
    std::vector<Cycle> latencies;
  };

  void reset(int nthreads);
  [[nodiscard]] Lane& lane(ThreadId t);

  /// Records a completed request: a latency sample, plus an SLO violation
  /// when `latency` exceeds the knobs' deadline.
  static void complete(Lane& lane, Cycle latency, const ChaosKnobs& k) {
    lane.latencies.push_back(latency);
    if (k.deadline != 0 && latency > k.deadline) ++lane.slo_violations;
  }

  /// Merges the lanes (tid order), sorts the latency samples, and fills the
  /// req_* fields of `stats` with nearest-rank percentiles
  /// (sorted[ceil(p/100 * N) - 1]) over the completed requests.
  void publish(SimStats& stats) const;

 private:
  std::vector<Lane> lanes_;
};

}  // namespace serve
}  // namespace hic
