#include "sim/engine.hpp"

#include "obs/tracer.hpp"
#include "resil/resil.hpp"
#include "verify/oracle.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <sstream>

// AddressSanitizer tracks the current stack's bounds; unannotated ucontext
// switches confuse it (e.g. __asan_handle_no_return during a throw pokes at
// the wrong stack). Every fiber switch is therefore bracketed with the
// sanitizer fiber API when ASan is on; plain builds compile it all away.
#if defined(__SANITIZE_ADDRESS__)
#define HIC_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define HIC_ASAN_FIBERS 1
#endif
#endif
#ifdef HIC_ASAN_FIBERS
#include <pthread.h>
#include <sanitizer/common_interface_defs.h>
#endif

// ThreadSanitizer likewise needs every ucontext switch announced through its
// fiber API, or it reports phantom races between stack frames of different
// fibers. The annotations also give TSan the happens-before edge a fiber
// handoff implies. Plain builds compile it all away.
#if defined(__SANITIZE_THREAD__)
#define HIC_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HIC_TSAN_FIBERS 1
#endif
#endif
#ifdef HIC_TSAN_FIBERS
#include <pthread.h>
#include <sanitizer/tsan_interface.h>
#endif

namespace hic {

namespace {
constexpr Cycle kNever = std::numeric_limits<Cycle>::max();
/// Per-fiber stack. Core bodies keep bulk data in simulated memory (gmem)
/// or on the heap; 1 MB leaves ample headroom for call depth + exceptions.
constexpr std::size_t kFiberStackBytes = 1 << 20;

/// Call right before switching away; `fake` is the leaving context's slot
/// (nullptr when the leaving fiber is dead and its fake stack can go).
inline void fiber_switch_start(void** fake, const void* target_bottom,
                               std::size_t target_size) {
#ifdef HIC_ASAN_FIBERS
  __sanitizer_start_switch_fiber(fake, target_bottom, target_size);
#else
  (void)fake;
  (void)target_bottom;
  (void)target_size;
#endif
}

/// Call first thing after control (re)enters a context; `fake` is the value
/// fiber_switch_start stored for this context (nullptr on first entry).
inline void fiber_switch_finish(void* fake) {
#ifdef HIC_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(fake, nullptr, nullptr);
#else
  (void)fake;
#endif
}

// TSan fiber bookkeeping (no-ops / nullptr in plain builds).
inline void* tsan_current_fiber() {
#ifdef HIC_TSAN_FIBERS
  return __tsan_get_current_fiber();
#else
  return nullptr;
#endif
}

inline void* tsan_make_fiber() {
#ifdef HIC_TSAN_FIBERS
  return __tsan_create_fiber(0);
#else
  return nullptr;
#endif
}

inline void tsan_free_fiber(void* f) {
#ifdef HIC_TSAN_FIBERS
  if (f != nullptr) __tsan_destroy_fiber(f);
#else
  (void)f;
#endif
}

/// Call right before switching to the context owning `f`.
inline void tsan_switch(void* f) {
#ifdef HIC_TSAN_FIBERS
  if (f != nullptr) __tsan_switch_to_fiber(f, 0);
#else
  (void)f;
#endif
}
}  // namespace

// ============================ Engine =========================================

Engine::Engine(HierarchyBase& hier, SyncController& sync, Cycle slack)
    : hier_(&hier), sync_(&sync), slack_(slack) {}

void Engine::run(std::vector<CoreBody> bodies) {
  HIC_CHECK(!bodies.empty());
  HIC_CHECK_MSG(static_cast<int>(bodies.size()) <=
                    hier_->config().total_cores(),
                "more bodies than cores");
  const auto& cfg = hier_->config();
  ctxs_.clear();
  heap_.clear();
  abort_ = false;
  watchdog_tripped_ = false;
  hang_report_ = HangReport{};
  main_tsan_fiber_ = tsan_current_fiber();
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    ctxs_.push_back(std::make_unique<CoreCtx>(
        static_cast<CoreId>(i), cfg.write_buffer_entries,
        cfg.write_buffer_drain_cycles));
    CoreCtx& c = *ctxs_.back();
    c.svc.eng_ = this;
    c.svc.id_ = c.id;
    c.wbuf.set_tracer(tracer_, c.id);
    c.fail_at = fail_cycle_of(c.id) == 0 ? kNever : fail_cycle_of(c.id);
    c.killed = false;
    c.body = std::move(bodies[i]);
    c.stack.reset(new unsigned char[kFiberStackBytes]);
    c.tsan_fiber = tsan_make_fiber();
    HIC_CHECK(getcontext(&c.uctx) == 0);
    c.uctx.uc_stack.ss_sp = c.stack.get();
    c.uctx.uc_stack.ss_size = kFiberStackBytes;
    c.uctx.uc_link = nullptr;  // fibers exit via fiber_finish, never return
    const auto p = reinterpret_cast<std::uintptr_t>(&c);
    makecontext(&c.uctx,
                reinterpret_cast<void (*)()>(&Engine::fiber_trampoline), 2,
                static_cast<unsigned>(p >> 32),
                static_cast<unsigned>(p & 0xffffffffu));
  }

  bool deadlock = false;
  bool watchdog = false;
  // Direct handoff: seed the ready heap and swap into the earliest core's
  // fiber. Fibers hand the CPU to each other in user space; control
  // returns here only when nothing is dispatchable (finish, deadlock,
  // watchdog, abort).
  heap_.reserve(ctxs_.size());
  for (auto& up : ctxs_) push_ready(*up);
#ifdef HIC_ASAN_FIBERS
  {  // ASan needs this thread's stack bounds to annotate switches back.
    pthread_attr_t attr;
    pthread_getattr_np(pthread_self(), &attr);
    void* addr = nullptr;
    std::size_t size = 0;
    pthread_attr_getstack(&attr, &addr, &size);
    pthread_attr_destroy(&attr);
    main_stack_bottom_ = addr;
    main_stack_size_ = size;
  }
#endif
  for (;;) {
    CoreCtx* first = pick_next();
    if (first != nullptr) {
      running_ = first;
      tsan_switch(first->tsan_fiber);
      fiber_switch_start(&main_asan_fake_, first->stack.get(),
                         kFiberStackBytes);
      swapcontext(&main_ctx_, &first->uctx);
      fiber_switch_finish(main_asan_fake_);
      running_ = nullptr;
    }
    watchdog = watchdog_tripped_ && !abort_;
    if (!abort_ && !watchdog) {
      int unfinished = 0;
      for (auto& up : ctxs_)
        if (up->state != CoreCtx::St::Finished) ++unfinished;
      deadlock = unfinished > 0;
    }
    // A would-be deadlock with fail-stop victims still pending is not a
    // hang: their wake will never come. Make them Ready so the next
    // dispatch round lets each one self-kill at its fail cycle.
    if (deadlock && revive_fail_victims()) {
      deadlock = false;
      continue;
    }
    break;
  }

  if (deadlock || watchdog) {
    // Snapshot the diagnosis *before* teardown: unwinding parked fibers
    // runs them to Finished, destroying the blocked states below.
    Cycle at = 0;
    for (auto& up : ctxs_) at = std::max(at, up->time);
    hang_report_ = build_hang_report(
        deadlock ? HangReport::Kind::Deadlock : HangReport::Kind::Watchdog,
        at);
  }
  if (deadlock || watchdog || abort_) {
    abort_ = true;
    // Resume every parked fiber once so its body unwinds (the pending
    // yield throws AbortRun); never-started fibers skip the body and
    // finish immediately. Each comes straight back here via fiber_finish.
    for (auto& up : ctxs_) {
      if (up->state != CoreCtx::St::Finished) {
        tsan_switch(up->tsan_fiber);
        fiber_switch_start(&main_asan_fake_, up->stack.get(),
                           kFiberStackBytes);
        swapcontext(&main_ctx_, &up->uctx);
        fiber_switch_finish(main_asan_fake_);
      }
    }
  }
  for (auto& up : ctxs_) {
    tsan_free_fiber(up->tsan_fiber);
    up->tsan_fiber = nullptr;
  }
  finish_time_ = 0;
  for (auto& up : ctxs_) finish_time_ = std::max(finish_time_, up->time);
  // A workload failure outranks the hang report (it usually caused it).
  for (auto& up : ctxs_) {
    if (up->error) std::rethrow_exception(up->error);
  }
  if (deadlock || watchdog) throw CheckFailure(hang_report_.render());
}

HangReport Engine::build_hang_report(HangReport::Kind kind, Cycle at) const {
  HangReport r;
  r.kind = kind;
  r.at_cycle = at;
  r.max_cycles = max_cycles_;
  for (const auto& up : ctxs_) {
    const CoreCtx& c = *up;
    HangReport::CoreDump d;
    d.core = c.id;
    d.clock = c.time;
    switch (c.state) {
      case CoreCtx::St::Ready: d.state = "ready"; break;
      case CoreCtx::St::Blocked: d.state = "blocked"; break;
      case CoreCtx::St::Finished: d.state = "finished"; break;
    }
    if (c.killed) {
      d.state = "killed (injected fail-stop)";
      r.victims.push_back({c.id, c.fail_at});
    }
    if (c.state == CoreCtx::St::Blocked && c.blocked_on >= 0) {
      d.blocked_on = c.blocked_on;
      switch (sync_->kind_of(c.blocked_on)) {
        case SyncKind::Barrier: d.blocked_kind = "barrier"; break;
        case SyncKind::Lock: d.blocked_kind = "lock"; break;
        case SyncKind::Flag: d.blocked_kind = "flag"; break;
      }
    }
    d.wbuf_pending = c.wbuf.pending(c.time);
    d.recent = c.ring.events();
    r.cores.push_back(std::move(d));

    // Wait-for edges out of this core.
    if (c.state != CoreCtx::St::Blocked || c.blocked_on < 0) continue;
    const SyncId id = c.blocked_on;
    std::ostringstream why;
    switch (sync_->kind_of(id)) {
      case SyncKind::Lock: {
        const auto holder = sync_->lock_holder_of(id);
        if (holder.has_value()) {
          why << "lock #" << id << " held by core " << *holder;
          r.edges.push_back({c.id, *holder, id, why.str()});
        }
        break;
      }
      case SyncKind::Barrier: {
        // The core waits for every participant that has not yet arrived:
        // any unfinished core not parked at this barrier.
        why << "barrier #" << id << " ("
            << sync_->barrier_arrived(id) << '/'
            << sync_->barrier_participants(id) << " arrived)";
        for (const auto& other : ctxs_) {
          const CoreCtx& o = *other;
          if (o.id == c.id) continue;
          // A killed participant will never arrive: surface that edge with
          // the victim diagnosis instead of hiding it as "finished".
          if (o.state == CoreCtx::St::Finished && !o.killed) continue;
          if (o.state == CoreCtx::St::Blocked && o.blocked_on == id) continue;
          std::string w = why.str();
          if (o.killed)
            w += "; core " + std::to_string(o.id) +
                 " is a victim of injected failure";
          r.edges.push_back({c.id, o.id, id, std::move(w)});
        }
        break;
      }
      case SyncKind::Flag:
        // A flag set can come from any core (or never): no edge.
        break;
    }
  }
  r.detect_cycle();
  return r;
}

void Engine::charge(CoreCtx& c, StallKind k, Cycle cycles) {
  if (cycles == 0) return;
  const Cycle start = c.time;
  c.time += cycles;
  stats().stalls(c.id).add(k, cycles);
  if (tracer_ != nullptr) {
    tracer_->stall(c.id, start, c.time, k);
    tracer_->maybe_sample(c.time);
  }
}

void Engine::push_ready(CoreCtx& c) {
  heap_.emplace_back(c.time, c.id);
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
}

Engine::CoreCtx* Engine::pick_next() {
  if (heap_.empty()) return nullptr;
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
  CoreCtx* best = &ctx(heap_.back().second);
  heap_.pop_back();
  if (max_cycles_ != 0 && best->time > max_cycles_) {
    // Even the earliest runnable core is past the limit: livelock. Put it
    // back so the hang report sees it as ready, and hand back to run().
    push_ready(*best);
    watchdog_tripped_ = true;
    return nullptr;
  }
  // The dispatch of the globally earliest core is the engine's serialized
  // deterministic point: drive the ECC scrubber's clock from it.
  if (resil_ != nullptr) resil_->on_dispatch(best->time);
  const Cycle second = heap_.empty() ? kNever : heap_.front().first;
  best->run_until = second == kNever ? kNever : second + slack_;
  // With a watchdog armed, cap the quantum so a core spinning forever
  // still yields and lets the check above fire.
  if (max_cycles_ != 0)
    best->run_until = std::min(best->run_until, max_cycles_ + 1);
  return best;
}

void Engine::fiber_trampoline(unsigned hi, unsigned lo) {
  fiber_switch_finish(nullptr);  // first entry: nothing saved for this stack
  auto* c = reinterpret_cast<CoreCtx*>((static_cast<std::uintptr_t>(hi) << 32) |
                                       static_cast<std::uintptr_t>(lo));
  Engine* eng = c->svc.eng_;
  if (!eng->abort_) {
    try {
      c->body(c->svc);
    } catch (const AbortRun&) {
      // engine-initiated teardown
    } catch (const CoreKilled&) {
      // injected fail-stop: the victim halts, the run continues
    } catch (...) {
      // A failure inside a simulated core (e.g. a sync-misuse check) must
      // fail the run, not terminate the process. Abort the other cores and
      // hand the exception to run().
      c->error = std::current_exception();
      eng->abort_ = true;
    }
  }
  c->state = CoreCtx::St::Finished;
  eng->fiber_finish();
}

void Engine::fiber_finish() {
  // During an abort teardown run() owns dispatching; otherwise hand the CPU
  // to the next ready core. setcontext (not swap): this fiber is dead.
  CoreCtx* next = abort_ ? nullptr : pick_next();
  running_ = next;
  tsan_switch(next != nullptr ? next->tsan_fiber : main_tsan_fiber_);
  // nullptr slot: this fiber never resumes, so ASan frees its fake stack.
  if (next != nullptr)
    fiber_switch_start(nullptr, next->stack.get(), kFiberStackBytes);
  else
    fiber_switch_start(nullptr, main_stack_bottom_, main_stack_size_);
  setcontext(next != nullptr ? &next->uctx : &main_ctx_);
  std::abort();  // setcontext returns only on error
}

void Engine::yield(CoreCtx& c) {
  if (c.state == CoreCtx::St::Ready) push_ready(c);
  CoreCtx* next = pick_next();
  if (next != &c) {  // re-picking itself costs zero context switches
    running_ = next;
    // Park this fiber inside the swap; it resumes right here when another
    // fiber (or the teardown loop) dispatches it again.
    tsan_switch(next != nullptr ? next->tsan_fiber : main_tsan_fiber_);
    if (next != nullptr)
      fiber_switch_start(&c.asan_fake, next->stack.get(), kFiberStackBytes);
    else
      fiber_switch_start(&c.asan_fake, main_stack_bottom_, main_stack_size_);
    swapcontext(&c.uctx, next != nullptr ? &next->uctx : &main_ctx_);
    fiber_switch_finish(c.asan_fake);
  }
  if (abort_) throw AbortRun{};
  // A core woken past its fail cycle dies here, before the op that parked it
  // resumes (e.g. before a woken lock() runs its acquire hooks) — the sync
  // cleanup in fail_check then passes the just-granted lock on consistently.
  fail_point(c);
}

void Engine::maybe_yield(CoreCtx& c) {
  if (c.time >= c.run_until) yield(c);
}

void Engine::block(CoreCtx& c, StallKind k, SyncId on) {
  c.state = CoreCtx::St::Blocked;
  c.block_start = c.time;
  c.block_kind = k;
  c.blocked_on = on;
  yield(c);
  HIC_DCHECK(c.state == CoreCtx::St::Ready);
  c.blocked_on = -1;
  stats().stalls(c.id).add(k, c.time - c.block_start);
  if (tracer_ != nullptr) {
    tracer_->stall(c.id, c.block_start, c.time, k);
    tracer_->maybe_sample(c.time);
  }
}

void Engine::wake(CoreId target, Cycle at) {
  CoreCtx& t = ctx(target);
  HIC_CHECK_MSG(t.state == CoreCtx::St::Blocked,
                "woke core " << target << " that is not blocked");
  t.state = CoreCtx::St::Ready;
  t.time = std::max(t.time, at);
  push_ready(t);
  // The waker's quantum was computed while `target` was blocked; shrink it
  // so the newly runnable core gets scheduled at the right time instead of
  // the waker running arbitrarily far ahead.
  if (running_ != nullptr && t.time + slack_ < running_->run_until)
    running_->run_until = t.time + slack_;
}

void Engine::set_fail_cycles(std::vector<Cycle> cycles) {
  fail_cycles_ = std::move(cycles);
  fail_armed_ = std::any_of(fail_cycles_.begin(), fail_cycles_.end(),
                            [](Cycle c) { return c != 0; });
}

void Engine::fail_check(CoreCtx& c) {
  c.killed = true;
  // The callback runs on the victim's fiber, before sync cleanup: the
  // Machine records the fault and discards the victim's dirty lines while
  // its caches are still untouched by anyone else.
  if (fail_cb_) fail_cb_(c.id, c.fail_at);
  // Held locks pass to their FIFO successors at the victim's death time,
  // so the handoff is as deterministic as a normal unlock.
  const auto granted = sync_->on_core_failed(c.id);
  for (CoreId g : granted) wake(g, c.time);
  throw CoreKilled{};
}

bool Engine::revive_fail_victims() {
  bool any = false;
  for (auto& up : ctxs_) {
    CoreCtx& c = *up;
    if (c.state != CoreCtx::St::Blocked || c.killed || c.fail_at == kNever)
      continue;
    // The wake it blocks on will never come; advance it to its fail cycle
    // and let the next dispatch round run it straight into fail_check.
    c.state = CoreCtx::St::Ready;
    c.time = std::max(c.time, c.fail_at);
    push_ready(c);
    any = true;
  }
  return any;
}

void Engine::drain(CoreCtx& c) {
  const auto wait = c.wbuf.drain_wait(c.time);
  charge(c, StallKind::WbStall, wait.wb_wait);
  charge(c, StallKind::InvStall, wait.inv_wait);
  c.wbuf.retire_until(c.time);
}

Cycle Engine::sync_latency(const CoreCtx& c, SyncId id) const {
  const auto& topo = hier_->topology();
  return topo.round_trip(topo.core_node(c.id), sync_->home_of(id)) +
         SyncController::kServiceCycles;
}

void Engine::count_sync_traffic() {
  stats().traffic().add(TrafficKind::Sync,
                        2 * hier_->topology().control_flits());
}

void Engine::trace_ctx(const CoreCtx& c) {
  if (tracer_ != nullptr) tracer_->set_context(c.id, c.time);
}

void Engine::trace_op(const CoreCtx& c, Cycle start, const char* name) {
  if (tracer_ != nullptr)
    tracer_->span(TraceCat::Op, c.id, start, c.time, name);
}

void Engine::trace_op(const CoreCtx& c, Cycle start, const char* name,
                      std::int64_t arg) {
  if (tracer_ != nullptr)
    tracer_->span(TraceCat::Op, c.id, start, c.time, name, arg);
}

void Engine::trace_sync(const CoreCtx& c, Cycle start, const char* name,
                        SyncId id) {
  if (tracer_ != nullptr)
    tracer_->span(TraceCat::Sync, c.id, start, c.time, name, id);
}

// ======================== CoreServices ========================================

Cycle CoreServices::now() const { return eng_->ctx(id_).time; }

HierarchyBase& CoreServices::hierarchy() { return eng_->hierarchy(); }
SimStats& CoreServices::stats() { return eng_->stats(); }

void CoreServices::compute(Cycle cycles) {
  auto& c = eng_->ctx(id_);
  eng_->fail_point(c);
  c.ring.push(c.time, CoreEventKind::Compute);
  eng_->charge(c, StallKind::Rest, cycles);
  eng_->maybe_yield(c);
}

AccessOutcome CoreServices::load(Addr a, std::uint32_t bytes, void* out) {
  auto& c = eng_->ctx(id_);
  eng_->fail_point(c);
  const Addr line = align_down(a, eng_->hierarchy().config().l1.line_bytes);
  c.ring.push(c.time, CoreEventKind::Load, static_cast<std::int64_t>(a));
  c.wbuf.retire_until(c.time);
  // Loads never bypass a pending INV to the same line (§III-C).
  eng_->charge(c, StallKind::InvStall, c.wbuf.inv_wait(c.time, line));
  eng_->trace_ctx(c);
  const AccessOutcome r = eng_->hierarchy().read(id_, a, bytes, out);
  eng_->charge(c, StallKind::Rest, r.latency - r.inv_penalty);
  eng_->charge(c, StallKind::InvStall, r.inv_penalty);
  eng_->maybe_yield(c);
  return r;
}

AccessOutcome CoreServices::store(Addr a, std::uint32_t bytes,
                                  const void* in) {
  auto& c = eng_->ctx(id_);
  eng_->fail_point(c);
  const Addr line = align_down(a, eng_->hierarchy().config().l1.line_bytes);
  c.ring.push(c.time, CoreEventKind::Store, static_cast<std::int64_t>(a));
  eng_->trace_ctx(c);
  const AccessOutcome r = eng_->hierarchy().write(id_, a, bytes, in);
  // The store retires into the write buffer: the core pays one issue cycle
  // (plus a full-buffer stall); the service time drains in the background.
  const Cycle stall = c.wbuf.issue(
      c.time, WbEntryKind::Store, line,
      r.l1_hit ? eng_->hierarchy().config().write_buffer_drain_cycles
               : r.latency);
  eng_->charge(c, StallKind::Rest, 1 + stall);
  eng_->maybe_yield(c);
  return r;
}

void CoreServices::wb_range(AddrRange r, Level to) {
  auto& c = eng_->ctx(id_);
  eng_->fail_point(c);
  c.ring.push(c.time, CoreEventKind::Wb, static_cast<std::int64_t>(r.base));
  const Cycle start = c.time;
  eng_->trace_ctx(c);
  const Cycle service = eng_->hierarchy().wb_range(id_, r, to);
  const Cycle stall =
      c.wbuf.issue(c.time, WbEntryKind::Wb, WriteBufferModel::kAllLines,
                   service);
  eng_->charge(c, StallKind::WbStall, 1 + stall);
  eng_->trace_op(c, start, "wb_range", static_cast<std::int64_t>(r.base));
  eng_->maybe_yield(c);
}

void CoreServices::wb_all(Level to) {
  auto& c = eng_->ctx(id_);
  eng_->fail_point(c);
  c.ring.push(c.time, CoreEventKind::Wb);
  const Cycle start = c.time;
  eng_->trace_ctx(c);
  const Cycle service = eng_->hierarchy().wb_all(id_, to);
  const Cycle stall = c.wbuf.issue(
      c.time, WbEntryKind::Wb, WriteBufferModel::kAllLines, service);
  eng_->charge(c, StallKind::WbStall, 1 + stall);
  eng_->trace_op(c, start, "wb_all");
  eng_->maybe_yield(c);
}

void CoreServices::inv_range(AddrRange r, Level from) {
  auto& c = eng_->ctx(id_);
  eng_->fail_point(c);
  c.ring.push(c.time, CoreEventKind::Inv, static_cast<std::int64_t>(r.base));
  const Cycle start = c.time;
  eng_->trace_ctx(c);
  const Cycle service = eng_->hierarchy().inv_range(id_, r, from);
  const Cycle stall = c.wbuf.issue(
      c.time, WbEntryKind::Inv, WriteBufferModel::kAllLines, service);
  eng_->charge(c, StallKind::InvStall, 1 + stall);
  eng_->trace_op(c, start, "inv_range", static_cast<std::int64_t>(r.base));
  eng_->maybe_yield(c);
}

void CoreServices::inv_all(Level from) {
  auto& c = eng_->ctx(id_);
  eng_->fail_point(c);
  c.ring.push(c.time, CoreEventKind::Inv);
  const Cycle start = c.time;
  eng_->trace_ctx(c);
  const Cycle service = eng_->hierarchy().inv_all(id_, from);
  const Cycle stall = c.wbuf.issue(
      c.time, WbEntryKind::Inv, WriteBufferModel::kAllLines, service);
  eng_->charge(c, StallKind::InvStall, 1 + stall);
  eng_->trace_op(c, start, "inv_all");
  eng_->maybe_yield(c);
}

void CoreServices::wb_cons(AddrRange r, ThreadId consumer) {
  auto& c = eng_->ctx(id_);
  eng_->fail_point(c);
  c.ring.push(c.time, CoreEventKind::Wb, static_cast<std::int64_t>(r.base));
  const Cycle start = c.time;
  eng_->trace_ctx(c);
  const Cycle service = eng_->hierarchy().wb_cons(id_, r, consumer);
  const Cycle stall = c.wbuf.issue(
      c.time, WbEntryKind::Wb, WriteBufferModel::kAllLines, service);
  eng_->charge(c, StallKind::WbStall, 1 + stall);
  eng_->trace_op(c, start, "wb_cons", static_cast<std::int64_t>(r.base));
  eng_->maybe_yield(c);
}

void CoreServices::wb_cons_all(ThreadId consumer) {
  auto& c = eng_->ctx(id_);
  eng_->fail_point(c);
  c.ring.push(c.time, CoreEventKind::Wb);
  const Cycle start = c.time;
  eng_->trace_ctx(c);
  const Cycle service = eng_->hierarchy().wb_cons_all(id_, consumer);
  const Cycle stall = c.wbuf.issue(
      c.time, WbEntryKind::Wb, WriteBufferModel::kAllLines, service);
  eng_->charge(c, StallKind::WbStall, 1 + stall);
  eng_->trace_op(c, start, "wb_cons_all");
  eng_->maybe_yield(c);
}

void CoreServices::inv_prod(AddrRange r, ThreadId producer) {
  auto& c = eng_->ctx(id_);
  eng_->fail_point(c);
  c.ring.push(c.time, CoreEventKind::Inv, static_cast<std::int64_t>(r.base));
  const Cycle start = c.time;
  eng_->trace_ctx(c);
  const Cycle service = eng_->hierarchy().inv_prod(id_, r, producer);
  const Cycle stall = c.wbuf.issue(
      c.time, WbEntryKind::Inv, WriteBufferModel::kAllLines, service);
  eng_->charge(c, StallKind::InvStall, 1 + stall);
  eng_->trace_op(c, start, "inv_prod", static_cast<std::int64_t>(r.base));
  eng_->maybe_yield(c);
}

void CoreServices::inv_prod_all(ThreadId producer) {
  auto& c = eng_->ctx(id_);
  eng_->fail_point(c);
  c.ring.push(c.time, CoreEventKind::Inv);
  const Cycle start = c.time;
  eng_->trace_ctx(c);
  const Cycle service = eng_->hierarchy().inv_prod_all(id_, producer);
  const Cycle stall = c.wbuf.issue(
      c.time, WbEntryKind::Inv, WriteBufferModel::kAllLines, service);
  eng_->charge(c, StallKind::InvStall, 1 + stall);
  eng_->trace_op(c, start, "inv_prod_all");
  eng_->maybe_yield(c);
}

void CoreServices::cs_enter() {
  auto& c = eng_->ctx(id_);
  eng_->fail_point(c);
  c.ring.push(c.time, CoreEventKind::CsEnter);
  const Cycle start = c.time;
  eng_->trace_ctx(c);
  const Cycle service = eng_->hierarchy().cs_enter(id_);
  const Cycle stall = c.wbuf.issue(
      c.time, WbEntryKind::Inv, WriteBufferModel::kAllLines, service);
  eng_->charge(c, StallKind::InvStall, 1 + stall);
  eng_->trace_op(c, start, "cs_enter");
  eng_->maybe_yield(c);
}

void CoreServices::cs_exit() {
  auto& c = eng_->ctx(id_);
  eng_->fail_point(c);
  c.ring.push(c.time, CoreEventKind::CsExit);
  const Cycle start = c.time;
  eng_->trace_ctx(c);
  const Cycle service = eng_->hierarchy().cs_exit(id_);
  const Cycle stall = c.wbuf.issue(
      c.time, WbEntryKind::Wb, WriteBufferModel::kAllLines, service);
  eng_->charge(c, StallKind::WbStall, 1 + stall);
  eng_->trace_op(c, start, "cs_exit");
  eng_->maybe_yield(c);
}

void CoreServices::drain_write_buffer() {
  auto& c = eng_->ctx(id_);
  eng_->fail_point(c);
  c.ring.push(c.time, CoreEventKind::Drain);
  const Cycle start = c.time;
  eng_->drain(c);
  eng_->trace_op(c, start, "drain");
  eng_->maybe_yield(c);
}

void CoreServices::dma_copy(BlockId src_block, Addr src, BlockId dst_block,
                            Addr dst, std::uint64_t bytes) {
  auto& c = eng_->ctx(id_);
  eng_->fail_point(c);
  c.ring.push(c.time, CoreEventKind::Dma, static_cast<std::int64_t>(src));
  const Cycle start = c.time;
  // The initiator's prior writebacks must be out before the DMA reads the
  // source (the DMA engine reads the shared level).
  eng_->drain(c);
  const Cycle lat =
      eng_->hierarchy().dma_copy(src_block, src, dst_block, dst, bytes);
  // After the hierarchy moved the data (its fill hooks ran), stamp the
  // transfer: the source words are checked for staleness, the destination
  // words become writes by the initiating core.
  if (auto* o = eng_->oracle())
    o->on_dma(id_, src_block, src, dst_block, dst, bytes);
  eng_->charge(c, StallKind::Rest, lat);
  eng_->trace_op(c, start, "dma_copy", static_cast<std::int64_t>(src));
  eng_->maybe_yield(c);
}

// --- Synchronization -----------------------------------------------------------

void CoreServices::barrier(SyncId id) {
  auto& c = eng_->ctx(id_);
  eng_->fail_point(c);
  c.ring.push(c.time, CoreEventKind::Barrier, id);
  const Cycle start = c.time;
  eng_->drain(c);  // a barrier is a release point: posted data must be out
  eng_->charge(c, StallKind::BarrierStall, eng_->sync_latency(c, id));
  eng_->count_sync_traffic();
  auto released = eng_->sync().barrier_arrive(id, id_);
  // Arrival releases this core's history into the barrier's clock; when the
  // last arriver completes it, every released core acquires the join (the
  // barrier is a full happens-before fence between rounds).
  if (auto* o = eng_->oracle()) {
    o->on_barrier_arrive(id_, id);
    if (released.has_value()) o->on_barrier_complete(id, *released);
  }
  if (!released.has_value()) {
    eng_->block(c, StallKind::BarrierStall, id);
  } else {
    const auto& topo = eng_->hierarchy().topology();
    const NodeId home = eng_->sync().home_of(id);
    for (CoreId w : *released) {
      if (w == id_) continue;
      eng_->wake(w, c.time + topo.latency(home, topo.core_node(w)));
    }
  }
  eng_->trace_sync(c, start, "barrier", id);
  eng_->maybe_yield(c);
}

void CoreServices::lock(SyncId id) {
  auto& c = eng_->ctx(id_);
  eng_->fail_point(c);
  c.ring.push(c.time, CoreEventKind::Lock, id);
  const Cycle start = c.time;
  eng_->charge(c, StallKind::LockStall, eng_->sync_latency(c, id));
  eng_->count_sync_traffic();
  if (!eng_->sync().lock_acquire(id, id_))
    eng_->block(c, StallKind::LockStall, id);
  // After the grant (immediate or woken): the previous holder's release has
  // already merged its clock into the lock, so the acquire sees it.
  if (auto* o = eng_->oracle()) o->on_lock_acquire(id_, id);
  eng_->trace_sync(c, start, "lock", id);
  eng_->maybe_yield(c);
}

void CoreServices::unlock(SyncId id) {
  auto& c = eng_->ctx(id_);
  eng_->fail_point(c);
  c.ring.push(c.time, CoreEventKind::Unlock, id);
  const Cycle start = c.time;
  eng_->drain(c);  // release semantics: critical-section WBs must complete
  eng_->charge(c, StallKind::Rest, eng_->sync_latency(c, id));
  eng_->count_sync_traffic();
  if (auto* o = eng_->oracle()) o->on_lock_release(id_, id);
  const auto next = eng_->sync().lock_release(id, id_);
  if (next.has_value()) {
    const auto& topo = eng_->hierarchy().topology();
    const NodeId home = eng_->sync().home_of(id);
    eng_->wake(*next, c.time + topo.latency(home, topo.core_node(*next)));
  }
  eng_->trace_sync(c, start, "unlock", id);
  eng_->maybe_yield(c);
}

void CoreServices::flag_wait(SyncId id, std::uint64_t expect) {
  auto& c = eng_->ctx(id_);
  eng_->fail_point(c);
  c.ring.push(c.time, CoreEventKind::FlagWait, id);
  const Cycle start = c.time;
  eng_->charge(c, StallKind::BarrierStall, eng_->sync_latency(c, id));
  eng_->count_sync_traffic();
  if (!eng_->sync().flag_check(id, id_, expect))
    eng_->block(c, StallKind::BarrierStall, id);
  // After the unblock: the setter's release already reached the flag clock.
  if (auto* o = eng_->oracle()) o->on_flag_wait(id_, id);
  eng_->trace_sync(c, start, "flag_wait", id);
  eng_->maybe_yield(c);
}

void CoreServices::flag_set(SyncId id, std::uint64_t value) {
  auto& c = eng_->ctx(id_);
  eng_->fail_point(c);
  c.ring.push(c.time, CoreEventKind::FlagSet, id);
  const Cycle start = c.time;
  eng_->drain(c);  // the flag publishes data: WBs must be out first
  eng_->charge(c, StallKind::Rest, eng_->sync_latency(c, id));
  eng_->count_sync_traffic();
  if (auto* o = eng_->oracle()) o->on_flag_set(id_, id);
  const auto released = eng_->sync().flag_set(id, value);
  const auto& topo = eng_->hierarchy().topology();
  const NodeId home = eng_->sync().home_of(id);
  for (CoreId w : released)
    eng_->wake(w, c.time + topo.latency(home, topo.core_node(w)));
  eng_->trace_sync(c, start, "flag_set", id);
  eng_->maybe_yield(c);
}

void CoreServices::oracle_mark_racy() {
  eng_->fail_point(eng_->ctx(id_));
  if (auto* o = eng_->oracle()) o->mark_racy_next(id_);
}

std::uint64_t CoreServices::flag_add(SyncId id, std::uint64_t delta) {
  auto& c = eng_->ctx(id_);
  eng_->fail_point(c);
  c.ring.push(c.time, CoreEventKind::FlagAdd, id);
  const Cycle start = c.time;
  eng_->drain(c);
  eng_->charge(c, StallKind::Rest, eng_->sync_latency(c, id));
  eng_->count_sync_traffic();
  // A fetch-add is both an acquire (it observes prior adders/setters) and a
  // release (later waiters observe it).
  if (auto* o = eng_->oracle()) o->on_flag_add(id_, id);
  std::uint64_t v = 0;
  const auto released = eng_->sync().flag_add(id, delta, &v);
  const auto& topo = eng_->hierarchy().topology();
  const NodeId home = eng_->sync().home_of(id);
  for (CoreId w : released)
    eng_->wake(w, c.time + topo.latency(home, topo.core_node(w)));
  eng_->trace_sync(c, start, "flag_add", id);
  eng_->maybe_yield(c);
  return v;
}

bool CoreServices::try_lock(SyncId id) {
  auto& c = eng_->ctx(id_);
  eng_->fail_point(c);
  c.ring.push(c.time, CoreEventKind::Lock, id);
  const Cycle start = c.time;
  // Win or lose, the request is a full round trip to the controller.
  eng_->charge(c, StallKind::LockStall, eng_->sync_latency(c, id));
  eng_->count_sync_traffic();
  const bool got = eng_->sync().lock_try_acquire(id, id_);
  // Same acquire edge as a blocking lock(): the previous holder's release
  // already merged its clock into the lock.
  if (got) {
    if (auto* o = eng_->oracle()) o->on_lock_acquire(id_, id);
  }
  eng_->trace_sync(c, start, "try_lock", id);
  eng_->maybe_yield(c);
  return got;
}

std::uint64_t CoreServices::flag_peek(SyncId id) {
  auto& c = eng_->ctx(id_);
  eng_->fail_point(c);
  c.ring.push(c.time, CoreEventKind::FlagWait, id);
  const Cycle start = c.time;
  eng_->charge(c, StallKind::BarrierStall, eng_->sync_latency(c, id));
  eng_->count_sync_traffic();
  // Polling read: no waiter registered, no happens-before edge established.
  const std::uint64_t v = eng_->sync().flag_value(id);
  eng_->trace_sync(c, start, "flag_peek", id);
  eng_->maybe_yield(c);
  return v;
}

bool CoreServices::flag_try_wait(SyncId id, std::uint64_t expect) {
  auto& c = eng_->ctx(id_);
  eng_->fail_point(c);
  c.ring.push(c.time, CoreEventKind::FlagWait, id);
  const Cycle start = c.time;
  eng_->charge(c, StallKind::BarrierStall, eng_->sync_latency(c, id));
  eng_->count_sync_traffic();
  const bool ok = eng_->sync().flag_value(id) >= expect;
  // The satisfied wait acquires exactly as flag_wait's success path does.
  if (ok) {
    if (auto* o = eng_->oracle()) o->on_flag_wait(id_, id);
  }
  eng_->trace_sync(c, start, "flag_try_wait", id);
  eng_->maybe_yield(c);
  return ok;
}

}  // namespace hic
