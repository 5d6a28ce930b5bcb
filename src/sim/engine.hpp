// The execution-driven simulation engine (the SESC substitute).
//
// Each simulated core's workload runs on its own ucontext fiber, all on the
// calling host thread, and the engine serializes them: exactly one
// simulated core executes at any moment, and the engine always dispatches
// the ready core with the smallest local clock (ties broken by core ID),
// letting it run ahead until it passes the next core's clock plus a small
// slack. Identical inputs therefore produce identical cycle counts, traffic
// and stall breakdowns on every run. A yielding core picks its successor
// from the ready heap and swaps straight to its fiber (direct handoff), a
// user-space context switch. Host parallelism lives one level up: the
// campaign runner (exp/runner.hpp) runs independent machines on separate
// host threads.
//
// Timing model per core: in-order issue with blocking loads and a write
// buffer (write_buffer.hpp) that drains stores/WB/INV in the background —
// an intentional simplification of the paper's 4-issue OoO core that keeps
// the first-order effects (miss latency, WB/INV stalls, sync waits) intact.
//
// Stall attribution follows Figure 9:
//   INV stall     — INV execution, IEB refreshes, loads waiting on pending INVs
//   WB stall      — WB execution and write-buffer drains at sync points
//   lock stall    — waiting for a lock grant
//   barrier stall — waiting at barriers and flag waits
//   rest          — everything else (compute, ordinary misses)
#pragma once

#include <ucontext.h>

#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "fault/event_ring.hpp"
#include "fault/hang_report.hpp"
#include "hierarchy/memory_hierarchy.hpp"
#include "sim/write_buffer.hpp"
#include "sync/sync_controller.hpp"

namespace hic {

class CoherenceOracle;
class Engine;
class ResilienceManager;
class Tracer;

/// Thrown inside workload bodies when the engine aborts the run (deadlock).
struct AbortRun {};

/// Thrown inside a workload body when its core reaches an injected fail-stop
/// cycle (core-fail / cluster-fail). Unwinds the victim's fiber to Finished;
/// unlike AbortRun it is NOT an error — the rest of the machine keeps
/// running.
struct CoreKilled {};

/// The per-core interface workload code runs against.
class CoreServices {
 public:
  [[nodiscard]] CoreId core() const { return id_; }
  [[nodiscard]] Cycle now() const;

  /// Advances the core's clock by `cycles` of useful work.
  void compute(Cycle cycles);

  /// Timed+functional memory access (word-aligned, within one line).
  AccessOutcome load(Addr a, std::uint32_t bytes, void* out);
  AccessOutcome store(Addr a, std::uint32_t bytes, const void* in);

  // --- Coherence-management instructions (issue like stores, §III-C) ------
  void wb_range(AddrRange r, Level to = Level::L2);
  void wb_all(Level to = Level::L2);
  void inv_range(AddrRange r, Level from = Level::L1);
  void inv_all(Level from = Level::L1);
  void wb_cons(AddrRange r, ThreadId consumer);
  void wb_cons_all(ThreadId consumer);
  void inv_prod(AddrRange r, ThreadId producer);
  void inv_prod_all(ThreadId producer);
  void cs_enter();
  void cs_exit();

  /// Waits for the write buffer to empty (release fence).
  void drain_write_buffer();

  /// Initiates a synchronous DMA transfer (Runnemede's inter-block
  /// mechanism); the initiating core waits for completion.
  void dma_copy(BlockId src_block, Addr src, BlockId dst_block, Addr dst,
                std::uint64_t bytes);

  // --- Synchronization (blocking; requests go to the sync controller) -----
  void barrier(SyncId id);
  void lock(SyncId id);
  void unlock(SyncId id);
  void flag_wait(SyncId id, std::uint64_t expect);
  void flag_set(SyncId id, std::uint64_t value);
  std::uint64_t flag_add(SyncId id, std::uint64_t delta);

  // --- Non-blocking synchronization (chaos/failover paths) ----------------
  /// True: the lock was free and is now held. False: held elsewhere; the
  /// core is NOT queued and pays only the round trip (retry with backoff).
  [[nodiscard]] bool try_lock(SyncId id);
  /// Reads a flag's value without blocking or registering a waiter. Charges
  /// the round trip; establishes no happens-before edge (polling only).
  [[nodiscard]] std::uint64_t flag_peek(SyncId id);
  /// Non-blocking flag_wait: true when `value >= expect` already holds (the
  /// acquire edge is established exactly as flag_wait's); false otherwise
  /// (no waiter registered, no edge).
  [[nodiscard]] bool flag_try_wait(SyncId id, std::uint64_t expect);

  /// Marks the next load/store of this core as a declared racy access
  /// (Thread::racy_load/racy_store), exempting it from the coherence
  /// oracle's race checks. No-op when no oracle is attached.
  void oracle_mark_racy();

  [[nodiscard]] HierarchyBase& hierarchy();
  [[nodiscard]] SimStats& stats();
  [[nodiscard]] Engine& engine() { return *eng_; }

 private:
  friend class Engine;
  Engine* eng_ = nullptr;
  CoreId id_ = kInvalidCore;
};

class Engine {
 public:
  /// `slack`: how many cycles a dispatched core may run past the next
  /// core's clock before yielding (larger = fewer context switches, looser
  /// event interleaving; determinism is preserved either way).
  Engine(HierarchyBase& hier, SyncController& sync, Cycle slack = 64);

  using CoreBody = std::function<void(CoreServices&)>;

  /// Runs one body per core (bodies.size() cores participate) to completion.
  void run(std::vector<CoreBody> bodies);

  [[nodiscard]] HierarchyBase& hierarchy() { return *hier_; }
  [[nodiscard]] SyncController& sync() { return *sync_; }
  [[nodiscard]] SimStats& stats() { return hier_->sim_stats(); }

  /// The finishing time of the slowest core in the last run.
  [[nodiscard]] Cycle finish_time() const { return finish_time_; }

  /// Livelock watchdog: if any core's clock passes `cycles`, the run aborts
  /// with a HangReport instead of spinning forever. 0 disables (default).
  void set_max_cycles(Cycle cycles) { max_cycles_ = cycles; }
  [[nodiscard]] Cycle max_cycles() const { return max_cycles_; }

  /// The diagnosis of the last deadlock/watchdog abort (empty cores vector
  /// if the last run finished cleanly). The same report's render() is the
  /// message of the CheckFailure run() throws.
  [[nodiscard]] const HangReport& hang_report() const { return hang_report_; }

  /// Attaches an event tracer (nullptr = off; see obs/tracer.hpp). When set,
  /// every stall charge, op/sync call window and write-buffer drain is
  /// recorded as a span; must outlive run(). Off costs one pointer test per
  /// hook, so timing and stats are unchanged either way.
  void set_tracer(Tracer* t) { tracer_ = t; }
  [[nodiscard]] Tracer* tracer() const { return tracer_; }

  /// Attaches the coherence oracle (nullptr = off; see verify/oracle.hpp).
  /// When set, every sync operation reports its happens-before edge and
  /// every DMA its transfer, so the oracle's vector clocks track the
  /// program's ordering. Off costs one pointer test per hook.
  void set_oracle(CoherenceOracle* o) { oracle_ = o; }
  [[nodiscard]] CoherenceOracle* oracle() const { return oracle_; }

  /// Attaches the recovery subsystem (nullptr = off; see resil/resil.hpp).
  /// When set, every dispatch advances the ECC scrubber's clock — a
  /// deterministic serialized point, so scrub sweeps land identically on
  /// every run. Off costs one pointer test per dispatch.
  void set_resil(ResilienceManager* r) { resil_ = r; }
  [[nodiscard]] ResilienceManager* resil() const { return resil_; }

  /// Arms fail-stop (chaos) injection: core i halts at the first operation
  /// boundary at or after cycles[i] (0 = never). The victim's fiber unwinds
  /// via CoreKilled, its sync-controller state is cleaned up (held locks
  /// pass to their FIFO successors, queue/waiter entries vanish), and the
  /// fail callback below runs first on the victim's own fiber.
  void set_fail_cycles(std::vector<Cycle> cycles);
  /// Invoked on the victim's fiber at kill time, before sync cleanup —
  /// the Machine records the fault and discards the victim's dirty lines.
  void set_fail_callback(std::function<void(CoreId, Cycle)> cb) {
    fail_cb_ = std::move(cb);
  }
  /// The armed halt cycle of one core (0 = none). Deterministic static
  /// config: serving layers use `fail_cycle_of(c) != 0 && now >= it` as
  /// their failure detector (models lease expiry with zero hidden state).
  [[nodiscard]] Cycle fail_cycle_of(CoreId core) const {
    const auto i = static_cast<std::size_t>(core);
    return i < fail_cycles_.size() ? fail_cycles_[i] : 0;
  }

 private:
  friend class CoreServices;

  struct CoreCtx {
    CoreId id = kInvalidCore;
    /// The core's program; runs on the fiber below.
    CoreBody body;
    ucontext_t uctx{};
    /// Deliberately uninitialized (new[] without ()): zeroing megabytes of
    /// stack per run() would dwarf the cost of the run itself.
    std::unique_ptr<unsigned char[]> stack;
    /// AddressSanitizer fake-stack handle for this fiber (unused otherwise).
    void* asan_fake = nullptr;
    enum class St : std::uint8_t { Ready, Blocked, Finished } state = St::Ready;
    Cycle time = 0;
    Cycle run_until = 0;
    Cycle block_start = 0;
    StallKind block_kind = StallKind::Rest;
    /// Sync variable the core is parked on while Blocked (-1 otherwise).
    /// Survives an abort teardown, so hang diagnosis can read it.
    SyncId blocked_on = -1;
    /// Injected fail-stop cycle (max() = none) and whether the kill fired.
    Cycle fail_at = std::numeric_limits<Cycle>::max();
    bool killed = false;
    /// ThreadSanitizer fiber handle (TSan builds only).
    void* tsan_fiber = nullptr;
    /// Last few operations the core performed (hang-report context).
    EventRing ring;
    WriteBufferModel wbuf;
    CoreServices svc;
    /// An exception the body threw; rethrown by run() after teardown.
    std::exception_ptr error;

    CoreCtx(CoreId i, int wb_entries, Cycle wb_drain)
        : id(i), wbuf(wb_entries, wb_drain) {}
  };

  CoreCtx& ctx(CoreId id) { return *ctxs_[static_cast<std::size_t>(id)]; }

  void charge(CoreCtx& c, StallKind k, Cycle cycles);
  /// Yields back to the scheduler if the core ran past its quantum.
  void maybe_yield(CoreCtx& c);
  /// Direct handoff: the yielding core picks its successor from the ready
  /// heap and swaps straight to its fiber (or back to run() when nothing is
  /// dispatchable). Re-picking itself costs zero context switches.
  void yield(CoreCtx& c);
  /// Fiber entry point: runs the core's body, then hands off. The pointer
  /// to the CoreCtx rides in two ints (the makecontext calling convention).
  static void fiber_trampoline(unsigned hi, unsigned lo);
  /// Tail of a finished (or aborted) fiber: switches to the next ready
  /// fiber, or back to run(). Never returns — the fiber is dead.
  [[noreturn]] void fiber_finish();
  /// Pops the earliest (time, id) ready core and arms its quantum; returns
  /// nullptr when no core is dispatchable (empty heap or watchdog trip).
  CoreCtx* pick_next();
  void push_ready(CoreCtx& c);
  /// Blocks the core until another core wakes it; charges the wait to `k`.
  /// `on` is the sync variable the core is waiting for (for hang diagnosis).
  void block(CoreCtx& c, StallKind k, SyncId on);
  /// Marks a blocked core runnable no earlier than `at`; called by the
  /// running core.
  void wake(CoreId target, Cycle at);

  /// Hot-path fail-stop check at every op boundary: one predictable branch
  /// when no fail rule is armed, so golden runs stay bit-identical.
  void fail_point(CoreCtx& c) {
    if (fail_armed_ && !c.killed && c.time >= c.fail_at) fail_check(c);
  }
  /// The kill itself: runs on the victim's fiber. Invokes the fail
  /// callback, cleans up the sync controller (waking lock successors), and
  /// throws CoreKilled to unwind the body. [[noreturn]] in effect.
  void fail_check(CoreCtx& c);
  /// At a global stall, revives blocked cores with a pending fail-stop so
  /// they can self-kill (their wake will never come); true if any revived.
  bool revive_fail_victims();

  /// Empties the write buffer, charging WB/INV stall appropriately.
  void drain(CoreCtx& c);

  // Tracing helpers (all no-ops when tracer_ is null). trace_ctx stamps the
  // acting core's clock into the tracer before a hierarchy call so cache
  // instants carry the right timestamp; the span helpers close an op/sync
  // span opened at `start` at the core's current time.
  void trace_ctx(const CoreCtx& c);
  void trace_op(const CoreCtx& c, Cycle start, const char* name);
  void trace_op(const CoreCtx& c, Cycle start, const char* name,
                std::int64_t arg);
  void trace_sync(const CoreCtx& c, Cycle start, const char* name, SyncId id);
  /// Round trip to a sync variable's home plus controller service time.
  [[nodiscard]] Cycle sync_latency(const CoreCtx& c, SyncId id) const;
  void count_sync_traffic();

  /// Snapshots every core plus the wait-for graph. Must run before parked
  /// fibers are unwound: teardown wipes the blocked states it reads.
  [[nodiscard]] HangReport build_hang_report(HangReport::Kind kind,
                                             Cycle at) const;

  HierarchyBase* hier_;
  SyncController* sync_;
  Cycle slack_;
  CoreCtx* running_ = nullptr;  ///< the currently dispatched core
  std::vector<std::unique_ptr<CoreCtx>> ctxs_;
  /// Ready cores not currently running, as a min-heap on (time, id).
  std::vector<std::pair<Cycle, CoreId>> heap_;
  /// run()'s own context while a fiber executes.
  ucontext_t main_ctx_{};
  // AddressSanitizer bookkeeping for the engine thread's own stack, so
  // fiber switches back to run() can be annotated (unused otherwise).
  void* main_asan_fake_ = nullptr;
  const void* main_stack_bottom_ = nullptr;
  std::size_t main_stack_size_ = 0;
  /// run()'s TSan fiber handle (TSan builds only).
  void* main_tsan_fiber_ = nullptr;
  Tracer* tracer_ = nullptr;
  CoherenceOracle* oracle_ = nullptr;
  ResilienceManager* resil_ = nullptr;
  /// Fail-stop config (set_fail_cycles): per-core halt cycles, 0 = never.
  std::vector<Cycle> fail_cycles_;
  bool fail_armed_ = false;
  std::function<void(CoreId, Cycle)> fail_cb_;
  bool abort_ = false;
  bool watchdog_tripped_ = false;
  Cycle finish_time_ = 0;
  Cycle max_cycles_ = 0;  ///< 0 = no watchdog
  HangReport hang_report_;
};

}  // namespace hic
