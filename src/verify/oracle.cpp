#include "verify/oracle.hpp"

#include <algorithm>
#include <sstream>

#include "common/check.hpp"
#include "fault/fault_plan.hpp"
#include "stats/sim_stats.hpp"

namespace hic {

const char* to_string(OracleViolation::Kind k) {
  switch (k) {
    case OracleViolation::Kind::StaleRead: return "stale-read";
    case OracleViolation::Kind::WriteRace: return "write-race";
    case OracleViolation::Kind::LostUpdate: return "lost-update";
  }
  return "?";
}

void CoherenceOracle::bind(const MachineConfig& mc, SimStats* stats,
                           FaultPlan* plan, bool coherent) {
  line_bytes_ = mc.l1.line_bytes;
  cores_ = mc.total_cores();
  blocks_ = mc.blocks;
  cores_per_block_ = mc.cores_per_block;
  multi_block_ = mc.multi_block();
  coherent_ = coherent;
  stats_ = stats;
  plan_ = plan;
  vc_.assign(idx(cores_), std::vector<std::uint64_t>(idx(cores_), 0));
  // Each core's own epoch starts at 1: epoch 0 is reserved for the pre-run
  // initial values, which are ordered before everything.
  for (int c = 0; c < cores_; ++c) vc_[idx(c)][idx(c)] = 1;
  racy_next_.assign(idx(cores_), 0);
  last_acquire_.assign(idx(cores_), WriteStamp::kNoEdge);
  last_release_.assign(idx(cores_), WriteStamp::kNoEdge);
  l1_.assign(idx(cores_), StampMap{});
  l2_.assign(idx(blocks_), StampMap{});
}

// --- Happens-before maintenance ------------------------------------------------

void CoherenceOracle::join(std::vector<std::uint64_t>& dst,
                           const std::vector<std::uint64_t>& src) {
  if (src.empty()) return;
  for (std::size_t i = 0; i < dst.size(); ++i)
    dst[i] = std::max(dst[i], src[i]);
}

void CoherenceOracle::bump_epoch(CoreId c) {
  std::uint64_t& e = vc_[idx(c)][idx(c)];
  ++e;
  HIC_CHECK_MSG(e < epoch_limit_,
                "coherence oracle: core " << c << " epoch counter reached the "
                << "configured limit (" << epoch_limit_
                << ") — wrap guard tripped");
}

std::uint32_t CoherenceOracle::note_edge(const char* kind, const char* dir,
                                         SyncId id, CoreId c) {
  edges_.push_back({kind, dir, id, c});
  return static_cast<std::uint32_t>(edges_.size() - 1);
}

std::string CoherenceOracle::edge_label(std::uint32_t e) const {
  if (e == WriteStamp::kNoEdge || e >= edges_.size()) return "(no sync edge)";
  const Edge& ed = edges_[e];
  std::ostringstream os;
  os << ed.kind << ' ' << ed.id << ' ' << ed.dir << " by core " << ed.core
     << " [sync op #" << e << ']';
  return os.str();
}

void CoherenceOracle::on_lock_acquire(CoreId c, SyncId id) {
  join(vc_[idx(c)], sync_clock_[id]);
  last_acquire_[idx(c)] = note_edge("lock", "acquire", id, c);
}

void CoherenceOracle::on_lock_release(CoreId c, SyncId id) {
  auto& l = sync_clock_[id];
  l.resize(idx(cores_), 0);
  join(l, vc_[idx(c)]);
  last_release_[idx(c)] = note_edge("lock", "release", id, c);
  bump_epoch(c);
}

void CoherenceOracle::on_barrier_arrive(CoreId c, SyncId id) {
  auto& b = sync_clock_[id];
  b.resize(idx(cores_), 0);
  join(b, vc_[idx(c)]);
  last_release_[idx(c)] = note_edge("barrier", "arrive", id, c);
}

void CoherenceOracle::on_barrier_complete(SyncId id,
                                          std::span<const CoreId> released) {
  const auto& b = sync_clock_[id];
  for (CoreId w : released) {
    join(vc_[idx(w)], b);
    last_acquire_[idx(w)] = note_edge("barrier", "leave", id, w);
    bump_epoch(w);
  }
}

void CoherenceOracle::on_flag_set(CoreId c, SyncId id) {
  auto& l = sync_clock_[id];
  l.resize(idx(cores_), 0);
  join(l, vc_[idx(c)]);
  last_release_[idx(c)] = note_edge("flag", "set", id, c);
  bump_epoch(c);
}

void CoherenceOracle::on_flag_wait(CoreId c, SyncId id) {
  join(vc_[idx(c)], sync_clock_[id]);
  last_acquire_[idx(c)] = note_edge("flag", "wait", id, c);
}

void CoherenceOracle::on_flag_add(CoreId c, SyncId id) {
  auto& l = sync_clock_[id];
  l.resize(idx(cores_), 0);
  join(vc_[idx(c)], l);  // acquire: a fetch-add reads prior setters
  join(l, vc_[idx(c)]);  // release: and publishes this core's past
  last_acquire_[idx(c)] = note_edge("flag", "add-acquire", id, c);
  last_release_[idx(c)] = note_edge("flag", "add-release", id, c);
  bump_epoch(c);
}

bool CoherenceOracle::ordered_before(const WriteStamp& g, CoreId c) const {
  if (g.core == kInvalidCore || g.core == c) return true;
  return g.epoch <= vc_[idx(c)][idx(g.core)];
}

// --- Stamp plumbing ------------------------------------------------------------

CoherenceOracle::StampLine& CoherenceOracle::stamps(StampMap& m, Addr line) {
  auto [it, inserted] = m.try_emplace(line);
  if (inserted) it->second.assign(words_per_line(), WriteStamp{});
  return it->second;
}

WriteStamp CoherenceOracle::peek(const StampMap& m, Addr line, int w) const {
  const auto it = m.find(line);
  if (it == m.end()) return WriteStamp{};
  return it->second[idx(w)];
}

void CoherenceOracle::copy_line(StampMap& dst, const StampMap& src,
                                Addr line) {
  const auto it = src.find(line);
  if (it == src.end()) {
    dst.erase(line);  // absent = the initial stamps
  } else {
    dst[line] = it->second;
  }
}

void CoherenceOracle::merge_up(StampMap& dst, const StampMap& src, Addr line,
                               std::uint64_t mask, const char* level) {
  if (mask == 0) return;
  const auto sit = src.find(line);
  if (sit == src.end()) return;  // untracked source: nothing to move
  StampLine& d = stamps(dst, line);
  for (std::uint32_t w = 0; w < words_per_line(); ++w) {
    if ((mask & (1ULL << w)) == 0) continue;
    const WriteStamp& s = sit->second[w];
    if (s.seq == 0) continue;  // dirty word never stamped (defensive)
    WriteStamp& dd = d[w];
    if (dd.seq > s.seq && !dd.racy && !s.racy) {
      // An older dirty copy is overwriting a newer update at this level:
      // the classic dirty-residue lost update (a WB was missing before the
      // pushing core's release edge).
      OracleViolation v;
      v.kind = OracleViolation::Kind::LostUpdate;
      v.line = line;
      v.word = static_cast<int>(w);
      v.addr = line + w * kWordBytes;
      v.observer = s.core;
      v.seen = s;
      v.truth = dd;
      v.edge = s.core >= 0 ? edge_label(last_release_[idx(s.core)])
                           : std::string("(no sync edge)");
      std::ostringstream sg;
      sg << "core " << s.core << " pushed a stale dirty copy into the "
         << level << "; add a WB (wb_range/wb_all) on core " << s.core
         << " before its release edge so the dirty residue is published "
            "before core "
         << dd.core << "'s newer update";
      v.suggest = sg.str();
      record(std::move(v));
    }
    dd = s;  // the data moved regardless; mirror it
  }
}

void CoherenceOracle::on_fill_l1(CoreId c, Addr line) {
  copy_line(l1_[idx(c)], l2_[idx(block_of(c))], line);
}

void CoherenceOracle::on_fill_l2(BlockId b, Addr line) {
  copy_line(l2_[idx(b)], below_l2(), line);
}

void CoherenceOracle::on_fill_l3(Addr line) {
  copy_line(l3_, mem_, line);
}

void CoherenceOracle::on_wb_l1_to_l2(CoreId c, Addr line, std::uint64_t mask) {
  merge_up(l2_[idx(block_of(c))], l1_[idx(c)], line, mask, "block L2");
}

void CoherenceOracle::on_wb_l2_to_l3(BlockId b, Addr line,
                                     std::uint64_t mask) {
  merge_up(below_l2(), l2_[idx(b)], line, mask,
           multi_block_ ? "L3" : "memory");
}

void CoherenceOracle::on_wb_l3_to_mem(Addr line, std::uint64_t mask) {
  merge_up(mem_, l3_, line, mask, "memory");
}

void CoherenceOracle::on_inv_l1(CoreId c, Addr line) {
  l1_[idx(c)].erase(line);
}

void CoherenceOracle::on_inv_l2(BlockId b, Addr line) {
  l2_[idx(b)].erase(line);
}

// --- Access checks -------------------------------------------------------------

void CoherenceOracle::on_store(CoreId c, Addr a, std::uint32_t bytes) {
  const bool racy = racy_next_[idx(c)] != 0;
  racy_next_[idx(c)] = 0;
  const Addr line = line_of(a);
  StampLine& gl = stamps(global_, line);
  StampLine& own = stamps(l1_[idx(c)], line);
  const std::uint32_t first = static_cast<std::uint32_t>(a - line) / kWordBytes;
  const std::uint32_t last =
      static_cast<std::uint32_t>(a - line + bytes - 1) / kWordBytes;
  for (std::uint32_t w = first; w <= last; ++w) {
    const WriteStamp prev = gl[w];
    if (!racy && !prev.racy && prev.core != kInvalidCore && prev.core != c &&
        prev.epoch > vc_[idx(c)][idx(prev.core)]) {
      OracleViolation v;
      v.kind = OracleViolation::Kind::WriteRace;
      v.line = line;
      v.word = static_cast<int>(w);
      v.addr = line + w * kWordBytes;
      v.observer = c;
      v.seen = prev;
      v.truth = WriteStamp{c, vc_[idx(c)][idx(c)], seq_ + 1,
                           last_release_[idx(c)], false};
      v.edge = edge_label(last_acquire_[idx(c)]);
      std::ostringstream sg;
      sg << "cores " << prev.core << " and " << c << " write this word in "
         << "concurrent epochs; order them with a lock/barrier, or mark the "
            "accesses racy_store/racy_load (Figure 6b) if the race is "
            "intended";
      v.suggest = sg.str();
      record(std::move(v));
    }
    ++seq_;
    const WriteStamp s{c, vc_[idx(c)][idx(c)], seq_, last_release_[idx(c)],
                       racy};
    gl[w] = s;
    own[w] = s;
  }
}

void CoherenceOracle::check_load_word(CoreId c, Addr line, int w,
                                      const StampMap& visible) {
  const WriteStamp g = peek(global_, line, w);
  if (g.seq == 0) return;           // initial value everywhere: consistent
  if (!ordered_before(g, c)) return;  // concurrent write: not required visible
  const WriteStamp vis = peek(visible, line, w);
  if (vis.seq == g.seq) return;
  // The HB-latest write is not the copy this core observes: a stale read,
  // detected with no value comparison at all.
  OracleViolation v;
  v.kind = OracleViolation::Kind::StaleRead;
  v.line = line;
  v.word = w;
  v.addr = line + static_cast<Addr>(w) * kWordBytes;
  v.observer = c;
  v.seen = vis;
  v.truth = g;
  // Diagnose which half of the contract broke: if the fresh stamp already
  // reached this block's L2, the reader's INV side is missing; otherwise the
  // writer's WB side never published it.
  const WriteStamp at_l2 = peek(l2_[idx(block_of(c))], line, w);
  std::ostringstream sg;
  if (at_l2.seq == g.seq) {
    v.edge = edge_label(last_acquire_[idx(c)]);
    sg << "the fresh data reached core " << c << "'s block L2 but its L1 "
       << "still holds the stale copy; add an INV (inv_range/inv_all) on "
       << "core " << c << " after its acquire edge";
  } else if (g.core >= 0) {
    v.edge = edge_label(last_release_[idx(g.core)]);
    sg << "core " << g.core << "'s write never reached the shared level; "
       << "add a WB (wb_range/wb_all) on core " << g.core
       << " before its release edge";
  } else {
    v.edge = "(no sync edge)";
    sg << "the initial value was never published";
  }
  v.suggest = sg.str();
  record(std::move(v));
}

void CoherenceOracle::on_load(CoreId c, Addr a, std::uint32_t bytes) {
  if (racy_next_[idx(c)] != 0) {  // declared racy: unordered by construction
    racy_next_[idx(c)] = 0;      // no checks
    return;
  }
  const Addr line = line_of(a);
  const std::uint32_t first = static_cast<std::uint32_t>(a - line) / kWordBytes;
  const std::uint32_t last =
      static_cast<std::uint32_t>(a - line + bytes - 1) / kWordBytes;
  for (std::uint32_t w = first; w <= last; ++w)
    check_load_word(c, line, static_cast<int>(w), l1_[idx(c)]);
}

void CoherenceOracle::on_dma(CoreId initiator, BlockId src_block, Addr src,
                             BlockId dst_block, Addr dst,
                             std::uint64_t bytes) {
  for (std::uint64_t off = 0; off < bytes; off += kWordBytes) {
    // Source side: the DMA engine read through the source block's L2 — an
    // unpublished producer write upstream is a stale read by the DMA.
    const Addr sa = src + off;
    const Addr sline = line_of(sa);
    const int sw = static_cast<int>((sa - sline) / kWordBytes);
    check_load_word(initiator, sline, sw, l2_[idx(src_block)]);
    // Destination side: the deposit is a fresh write into the destination
    // block's L2 (and the global truth — the hierarchy updated the shadow).
    const Addr da = dst + off;
    const Addr dline = line_of(da);
    const std::uint32_t dw =
        static_cast<std::uint32_t>((da - dline) / kWordBytes);
    StampLine& gl = stamps(global_, dline);
    ++seq_;
    const WriteStamp s{initiator, vc_[idx(initiator)][idx(initiator)], seq_,
                       last_release_[idx(initiator)], false};
    gl[dw] = s;
    stamps(l2_[idx(dst_block)], dline)[dw] = s;
  }
}

// --- Results -------------------------------------------------------------------

void CoherenceOracle::record(OracleViolation v) {
  ++total_;
  switch (v.kind) {
    case OracleViolation::Kind::StaleRead:
      ++n_stale_;
      if (stats_ != nullptr) ++stats_->ops().oracle_stale_reads;
      break;
    case OracleViolation::Kind::WriteRace:
      ++n_race_;
      if (stats_ != nullptr) ++stats_->ops().oracle_write_races;
      break;
    case OracleViolation::Kind::LostUpdate:
      ++n_lost_;
      if (stats_ != nullptr) ++stats_->ops().oracle_lost_updates;
      break;
  }
  std::ostringstream key;
  key << to_string(v.kind) << '|' << v.addr << '|' << v.observer << '|'
      << v.seen.core << '|' << v.truth.core;
  const auto it = dedup_.find(key.str());
  if (it != dedup_.end()) {
    ++violations_[it->second].count;
    return;
  }
  dedup_.emplace(key.str(), violations_.size());
  // Attribute the violation to the fault plan once per distinct finding, so
  // injected drop/corrupt faults on this line — and any armed elide-wb /
  // elide-inv mutation — count as detected rather than silent.
  if (plan_ != nullptr) plan_->on_oracle_violation(v.line);
  violations_.push_back(std::move(v));
}

namespace {
void render_stamp(std::ostream& os, const WriteStamp& s) {
  if (s.core == kInvalidCore && s.seq == 0) {
    os << "(initial value)";
    return;
  }
  os << "(core " << s.core << ", epoch " << s.epoch << ", write #" << s.seq;
  if (s.racy) os << ", racy";
  os << ')';
}
}  // namespace

std::string CoherenceOracle::report() const {
  std::ostringstream os;
  os << "coherence oracle: " << total_ << " violation(s) — " << n_stale_
     << " stale read(s), " << n_race_ << " write race(s), " << n_lost_
     << " lost update(s)\n";
  constexpr std::size_t kMaxDetailed = 50;
  for (std::size_t i = 0; i < violations_.size() && i < kMaxDetailed; ++i) {
    const OracleViolation& v = violations_[i];
    os << "  [" << i + 1 << "] " << to_string(v.kind) << " at 0x" << std::hex
       << v.addr << std::dec << " (word " << v.word << " of line 0x"
       << std::hex << v.line << std::dec << ") core " << v.observer
       << ": saw ";
    render_stamp(os, v.seen);
    os << ", expected ";
    render_stamp(os, v.truth);
    if (v.count > 1) os << "  [x" << v.count << ']';
    os << "\n      edge: " << v.edge << "\n      fix:  " << v.suggest << '\n';
  }
  if (violations_.size() > kMaxDetailed) {
    os << "  ... " << violations_.size() - kMaxDetailed
       << " further distinct violation(s) suppressed (full list in the JSON "
          "log)\n";
  }
  return os.str();
}

namespace {
void stamp_json(std::ostream& os, const char* key, const WriteStamp& s) {
  os << '"' << key << "\":{\"core\":" << s.core << ",\"epoch\":" << s.epoch
     << ",\"seq\":" << s.seq << ",\"racy\":" << (s.racy ? "true" : "false")
     << '}';
}
void escape_json(std::ostream& os, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
}
}  // namespace

std::string CoherenceOracle::to_json() const {
  std::ostringstream os;
  os << "{\"oracle_schema\":1,\"total\":" << total_
     << ",\"stale_reads\":" << n_stale_ << ",\"write_races\":" << n_race_
     << ",\"lost_updates\":" << n_lost_ << ",\"violations\":[";
  for (std::size_t i = 0; i < violations_.size(); ++i) {
    const OracleViolation& v = violations_[i];
    if (i > 0) os << ',';
    os << "{\"kind\":\"" << to_string(v.kind) << "\",\"addr\":" << v.addr
       << ",\"line\":" << v.line << ",\"word\":" << v.word
       << ",\"core\":" << v.observer << ",\"count\":" << v.count << ',';
    stamp_json(os, "seen", v.seen);
    os << ',';
    stamp_json(os, "expected", v.truth);
    os << ",\"edge\":\"";
    escape_json(os, v.edge);
    os << "\",\"suggest\":\"";
    escape_json(os, v.suggest);
    os << "\"}";
  }
  os << "]}";
  return os.str();
}

}  // namespace hic
