#include "baselines/batch_scrub.h"

#include <algorithm>
#include <vector>

#include "codes/batch_codec.h"

namespace sudoku::baselines {

reliability::UnitScrubStats batch_scrub_bch(const Bch& bch, SttramArray& array,
                                            std::span<const std::uint64_t> units,
                                            std::size_t min_batch) {
  reliability::UnitScrubStats stats;
  const std::size_t nsyn = 2 * static_cast<std::size_t>(bch.t());
  const auto apply = [&](std::uint64_t unit, BitVec& cw,
                         Bch::DecodeResult res) {
    switch (res.status) {
      case Bch::DecodeStatus::kClean:
        break;
      case Bch::DecodeStatus::kCorrected:
        array.write_line(unit, cw);  // note: may be a miscorrection (SDC)
        ++stats.corrected;
        break;
      case Bch::DecodeStatus::kUncorrectable:
        ++stats.due_units;
        stats.due_unit_ids.push_back(unit);
        break;
    }
  };

  BitVec cw(bch.codeword_bits());
  std::vector<BitVec> batch;
  std::vector<std::uint32_t> syn;
  BitPlanes planes;
  for (std::size_t base = 0; base < units.size(); base += BitPlanes::kMaxLines) {
    const std::size_t count =
        std::min<std::size_t>(BitPlanes::kMaxLines, units.size() - base);
    if (count < min_batch) {
      for (std::size_t i = 0; i < count; ++i) {
        const std::uint64_t unit = units[base + i];
        array.read_line(unit, cw);
        apply(unit, cw, bch.decode(cw));
      }
      continue;
    }
    if (batch.size() < count) batch.resize(count);
    syn.resize(count * nsyn);
    planes.reset(bch.codeword_bits(), count);
    for (std::size_t i = 0; i < count; ++i) {
      array.read_line(units[base + i], batch[i]);
      planes.load_line(i, batch[i].words());
    }
    planes.finalize();
    bch.batch_syndromes(planes, syn.data());
    for (std::size_t i = 0; i < count; ++i) {
      apply(units[base + i], batch[i],
            bch.decode_with_syndromes(batch[i],
                                      {syn.data() + i * nsyn, nsyn}));
    }
  }
  return stats;
}

}  // namespace sudoku::baselines
