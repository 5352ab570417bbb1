// Outcome of a data-line read through a protected array's data path. One
// type for every layer: the SuDoku controller, the region-ECC baselines,
// the scheme interface (reliability/scheme.h) and the memory service.
// Header-only, so including it adds no link dependency.
#pragma once

#include "common/bitvec.h"

namespace sudoku {

enum class ReadStatus {
  kClean,      // consistent on arrival
  kCorrected,  // the inner code fixed it inline
  kRepaired,   // needed the group repair machinery (SuDoku's RAID-4/SDR/Hash-2)
  kDue,        // detectable uncorrectable error: data lost
};

struct ReadReply {
  BitVec data;  // 512 bits; zeroed when kDue
  ReadStatus status = ReadStatus::kClean;
};

}  // namespace sudoku
