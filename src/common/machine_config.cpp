#include "common/machine_config.hpp"

#include "common/check.hpp"

namespace hic {

namespace {
void validate_cache(const char* name, const CacheParams& p) {
  HIC_CHECK_MSG(p.size_bytes > 0, name << ".size_bytes must be positive");
  HIC_CHECK_MSG(p.ways > 0, name << ".ways must be positive");
  HIC_CHECK_MSG(p.line_bytes > 0 && is_pow2(p.line_bytes),
                name << ".line_bytes must be a positive power of two (got "
                     << p.line_bytes << ")");
  HIC_CHECK_MSG(p.line_bytes % kWordBytes == 0,
                name << ".line_bytes (" << p.line_bytes
                     << ") must be a multiple of the " << kWordBytes
                     << "-byte word");
  HIC_CHECK_MSG(p.size_bytes % p.line_bytes == 0,
                name << ".size_bytes (" << p.size_bytes
                     << ") is not a whole number of " << p.line_bytes
                     << "-byte lines");
  HIC_CHECK_MSG(p.ways <= p.num_lines(),
                name << ".ways (" << p.ways << ") exceeds the cache's "
                     << p.num_lines() << " lines — associativity cannot"
                     << " exceed the set count times one");
  HIC_CHECK_MSG(p.size_bytes % (p.line_bytes * p.ways) == 0,
                name << ".size_bytes is not a whole number of "
                     << p.ways << "-way sets");
  HIC_CHECK_MSG(is_pow2(p.num_sets()),
                name << " set count (" << p.num_sets()
                     << ") is not a power of two");
  HIC_CHECK_MSG(p.rt_cycles > 0, name << ".rt_cycles must be positive");
}
}  // namespace

void MachineConfig::validate() const {
  HIC_CHECK_MSG(blocks > 0, "blocks must be positive (got " << blocks << ")");
  HIC_CHECK_MSG(cores_per_block > 0, "cores_per_block must be positive (got "
                                         << cores_per_block << ")");
  validate_cache("l1", l1);
  validate_cache("l2_bank", l2_bank);
  if (multi_block()) {
    validate_cache("l3_bank", l3_bank);
    HIC_CHECK_MSG(l3_banks > 0,
                  "l3_banks must be positive (got " << l3_banks << ")");
  }
  HIC_CHECK_MSG(meb_entries > 0,
                "meb_entries must be positive (got " << meb_entries << ")");
  HIC_CHECK_MSG(ieb_entries > 0,
                "ieb_entries must be positive (got " << ieb_entries << ")");
  HIC_CHECK_MSG(mesh_hop_cycles > 0, "mesh_hop_cycles must be positive");
  HIC_CHECK_MSG(!legacy_scheduler,
                "legacy_scheduler was removed: the direct-handoff fiber "
                "scheduler is the only engine");
  HIC_CHECK_MSG(link_bits >= 8 && link_bits % 8 == 0,
                "link_bits (" << link_bits
                              << ") must be a positive multiple of 8");
  HIC_CHECK_MSG(memory_rt_cycles > 0, "memory_rt_cycles must be positive");
  HIC_CHECK_MSG(write_buffer_entries > 0,
                "write_buffer_entries must be positive (got "
                    << write_buffer_entries << ")");
  HIC_CHECK_MSG(write_buffer_drain_cycles > 0,
                "write_buffer_drain_cycles must be positive");
  // All levels must share a line size: WB/INV expand to line boundaries once.
  HIC_CHECK_MSG(l1.line_bytes == l2_bank.line_bytes,
                "line size mismatch: l1 (" << l1.line_bytes << ") vs l2_bank ("
                                           << l2_bank.line_bytes << ")");
  if (multi_block())
    HIC_CHECK_MSG(l1.line_bytes == l3_bank.line_bytes,
                  "line size mismatch: l1 (" << l1.line_bytes
                                             << ") vs l3_bank ("
                                             << l3_bank.line_bytes << ")");
  // Levels must nest: a private L1 larger than its backing L2 bank (or an
  // L2 bank larger than an L3 bank) cannot hold the inclusion the WB/INV
  // paths assume.
  HIC_CHECK_MSG(l1.size_bytes <= l2_bank.size_bytes,
                "l1.size_bytes (" << l1.size_bytes
                                  << ") exceeds l2_bank.size_bytes ("
                                  << l2_bank.size_bytes
                                  << "); cache levels must nest");
  if (multi_block())
    HIC_CHECK_MSG(l2_bank.size_bytes <= l3_bank.size_bytes,
                  "l2_bank.size_bytes (" << l2_bank.size_bytes
                                         << ") exceeds l3_bank.size_bytes ("
                                         << l3_bank.size_bytes
                                         << "); cache levels must nest");
}

MachineConfig MachineConfig::intra_block() {
  MachineConfig cfg;
  cfg.blocks = 1;
  cfg.cores_per_block = 16;
  cfg.validate();
  return cfg;
}

MachineConfig MachineConfig::inter_block() {
  MachineConfig cfg;
  cfg.blocks = 4;
  cfg.cores_per_block = 8;
  cfg.validate();
  return cfg;
}

}  // namespace hic
