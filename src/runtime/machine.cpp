#include "runtime/machine.hpp"

#include "hierarchy/mesi.hpp"
#include "obs/tracer.hpp"
#include "runtime/thread.hpp"
#include "verify/oracle.hpp"

namespace hic {

namespace {
std::unique_ptr<HierarchyBase> build_hierarchy(const MachineConfig& mc,
                                               Config cfg, GlobalMemory& gmem,
                                               SimStats& stats) {
  if (is_coherent(cfg))
    return std::make_unique<MesiHierarchy>(mc, gmem, stats);
  return std::make_unique<IncoherentHierarchy>(mc, gmem, stats,
                                               buffer_options(cfg));
}
}  // namespace

Machine::Machine(const MachineConfig& mc, Config cfg)
    : mc_(mc),
      cfg_(cfg),
      stats_(mc.total_cores()),
      hier_(build_hierarchy(mc, cfg, gmem_, stats_)),
      sync_(mc.total_cores()),
      engine_(*hier_, sync_, mc.sim_slack_cycles) {
  HIC_CHECK_MSG(is_inter_block(cfg) == mc.multi_block(),
                "config " << to_string(cfg)
                          << " does not match the machine's block count");
  hier_->set_fault_plan(&fault_plan_);
  engine_.set_max_cycles(mc.watchdog_max_cycles);
}

IncoherentHierarchy* Machine::incoherent() {
  return dynamic_cast<IncoherentHierarchy*>(hier_.get());
}

void Machine::set_tracer(Tracer* t) {
  engine_.set_tracer(t);
  hier_->set_tracer(t);
  if (t != nullptr && t->options().sample_cycles > 0 &&
      t->counters().size() == 0) {
    register_sim_stats(t->counters(), stats_);
  }
}

void Machine::set_oracle(CoherenceOracle* o) {
  engine_.set_oracle(o);
  hier_->set_oracle(o);
  if (o != nullptr) o->bind(mc_, &stats_, &fault_plan_, hier_->coherent());
}

void Machine::enable_recovery(const ResilOptions& opts) {
  IncoherentHierarchy* inc = incoherent();
  if (inc == nullptr) return;  // hardware coherence already retries
  resil_ = std::make_unique<ResilienceManager>(opts);
  resil_->attach(&fault_plan_, mc_.cores_per_block);
  resil_->set_quarantine_cb(
      [inc](CoreId c, Addr line) { return inc->quarantine_l1_way(c, line); });
  resil_->set_degrade_cb([inc](int block) { return inc->degrade_block(block); });
  resil_->set_scrub_cb([inc](CoreId c, Addr line) { inc->scrub_line(c, line); });
  hier_->set_resil(resil_.get());
  engine_.set_resil(resil_.get());
}

NodeId Machine::next_sync_home() {
  const auto& topo = hier_->topology();
  const int k = sync_homes_issued_++;
  // Sync variables live in shared-cache controllers: the L3 banks on a
  // multi-block machine, the L2 banks otherwise.
  if (mc_.multi_block()) return topo.l3_bank_node(k % mc_.l3_banks);
  return topo.l2_bank_node(0, k % mc_.cores_per_block);
}

Machine::Barrier Machine::make_barrier(int participants) {
  return Barrier{sync_.declare_barrier(participants, next_sync_home())};
}

Machine::Lock Machine::make_lock(bool outside_cs_communication,
                                 AddrRange protected_data, bool block_local) {
  return Lock{sync_.declare_lock(next_sync_home()), outside_cs_communication,
              protected_data, block_local};
}

Machine::Flag Machine::make_flag(std::uint64_t initial) {
  return Flag{sync_.declare_flag(next_sync_home(), initial)};
}

void Machine::arm_fail_stop() {
  std::vector<Cycle> cycles(static_cast<std::size_t>(mc_.total_cores()), 0);
  bool any = false;
  for (const FaultRule& r : fault_plan_.rule_configs()) {
    if (!is_fail_stop(r.kind)) continue;
    any = true;
    auto arm = [&](CoreId victim) {
      Cycle& at = cycles[static_cast<std::size_t>(victim)];
      at = at == 0 ? r.fail_cycle : std::min(at, r.fail_cycle);
    };
    if (r.kind == FaultKind::CoreFail) {
      HIC_CHECK_MSG(r.core < mc_.total_cores(),
                    "core-fail victim " << r.core
                                        << " out of range (machine has "
                                        << mc_.total_cores() << " cores)");
      arm(r.core);
    } else {
      HIC_CHECK_MSG(r.cluster < mc_.blocks,
                    "cluster-fail victim " << r.cluster
                                           << " out of range (machine has "
                                           << mc_.blocks << " blocks)");
      const CoreId lo = r.cluster * mc_.cores_per_block;
      for (CoreId c = lo; c < lo + mc_.cores_per_block; ++c) arm(c);
    }
  }
  if (!any) return;
  l2_discarded_.assign(static_cast<std::size_t>(mc_.blocks), false);
  l2_cluster_armed_.assign(static_cast<std::size_t>(mc_.blocks), false);
  l2_pending_.assign(static_cast<std::size_t>(mc_.blocks), 0);
  for (const FaultRule& r : fault_plan_.rule_configs())
    if (r.kind == FaultKind::ClusterFail)
      l2_cluster_armed_[static_cast<std::size_t>(r.cluster)] = true;
  for (CoreId c = 0; c < mc_.total_cores(); ++c)
    if (cycles[static_cast<std::size_t>(c)] != 0)
      ++l2_pending_[static_cast<std::size_t>(mc_.block_of(c))];
  engine_.set_fail_cycles(std::move(cycles));
  engine_.set_fail_callback(
      [this](CoreId core, Cycle cycle) { on_core_failed(core, cycle); });
}

void Machine::on_core_failed(CoreId core, Cycle cycle) {
  // Attribute the kill to the rule that armed this core's (earliest) halt
  // cycle; a tie between a core-fail and a cluster-fail rule goes to the
  // first in add order.
  FaultKind kind = FaultKind::CoreFail;
  Cycle best = 0;
  for (const FaultRule& r : fault_plan_.rule_configs()) {
    const bool covers =
        (r.kind == FaultKind::CoreFail && r.core == core) ||
        (r.kind == FaultKind::ClusterFail && r.cluster == mc_.block_of(core));
    if (!covers) continue;
    if (best == 0 || r.fail_cycle < best) {
      best = r.fail_cycle;
      kind = r.kind;
    }
  }
  std::uint64_t lost = 0;
  // HCC baseline: the hardware protocol owns the dirty lines, so a victim's
  // private state is not lost (lost_dirty stays 0); only the incoherent
  // hierarchy physically drops data with the core.
  if (IncoherentHierarchy* inc = incoherent()) {
    lost = inc->discard_core_l1(core);
    // The shared L2 is discarded only with the block's LAST armed victim:
    // until every victim is dead, cores logically before the fail cycle are
    // still writing back, and those writes belong to the pre-failure L2.
    const auto block = static_cast<std::size_t>(mc_.block_of(core));
    if (--l2_pending_[block] == 0 && l2_cluster_armed_[block] &&
        !l2_discarded_[block]) {
      l2_discarded_[block] = true;
      lost += inc->discard_block_l2(mc_.block_of(core));
    }
  }
  fault_plan_.record_core_fail(kind, core, cycle, lost);
}

void Machine::run(int nthreads, const std::function<void(Thread&)>& body) {
  HIC_CHECK(nthreads > 0 && nthreads <= mc_.total_cores());
  arm_fail_stop();
  for (ThreadId t = 0; t < nthreads; ++t)
    hier_->map_thread(t, static_cast<CoreId>(t));

  std::vector<Engine::CoreBody> bodies;
  bodies.reserve(static_cast<std::size_t>(nthreads));
  for (int i = 0; i < nthreads; ++i) {
    bodies.push_back([this, nthreads, &body](CoreServices& svc) {
      Thread t(*this, svc, nthreads);
      body(t);
    });
  }
  engine_.run(std::move(bodies));

  // A cluster-armed block can finish the run with its L2 discard still
  // deferred when some armed victim completed its body before the fail
  // cycle (it was never killed, so l2_pending_ never drained). Every core
  // has stopped by now, so this flush point is logically after the failure;
  // the loss is attributed to the block's newest victim record. A block
  // with no victim record at all never saw its rule fire — leave it alone.
  if (IncoherentHierarchy* inc = incoherent()) {
    for (std::size_t b = 0; b < l2_cluster_armed_.size(); ++b) {
      if (!l2_cluster_armed_[b] || l2_discarded_[b]) continue;
      const auto& recs = fault_plan_.records();
      std::size_t last = recs.size();
      for (std::size_t i = 0; i < recs.size(); ++i)
        if (is_fail_stop(recs[i].kind) &&
            static_cast<std::size_t>(mc_.block_of(recs[i].core)) == b)
          last = i;
      if (last == recs.size()) continue;
      l2_discarded_[b] = true;
      fault_plan_.add_lost_dirty(
          last, inc->discard_block_l2(static_cast<int>(b)));
    }
  }

  if (resil_ != nullptr) resil_->flush(stats_);
  // Chaos-aware workloads classify each fail-stop victim's outcome from
  // host-side accounting before reconcile rules on the records.
  if (pre_reconcile_) pre_reconcile_();
  if (!fault_plan_.empty()) {
    // Classify every injected fault that was not already caught as a stale
    // read: still visible somewhere in the hierarchy -> detected; repaired
    // by later traffic -> tolerated. Nothing stays silent.
    IncoherentHierarchy* inc = incoherent();
    fault_plan_.reconcile(stats_, [inc](const FaultRecord& r) {
      return inc != nullptr && inc->fault_visible(r);
    });
  }
}

VerifyReader::VerifyReader(Machine& m) : m_(&m) {
  m_->hierarchy().inv_all(
      0, m.machine_config().multi_block() ? Level::L2 : Level::L1);
}

}  // namespace hic
