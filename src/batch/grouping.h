// The one way sweep cells are grouped into rollups: an overall bucket plus
// one bucket per service, per profile ("profile <id>") and per fault
// scenario. The metrics report (batch/report.h) and the root-cause report
// (diag/rollup.h) both fold through it. Buckets are created on first use,
// so they come in grid first-appearance order, and callers fold in grid
// order on one thread, so the result is byte-identical at any --jobs.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "batch/sweep.h"
#include "common/strings.h"

namespace vodx::batch {

/// `R` is a bucket type with a `std::string key` member.
template <class R>
struct Grouped {
  R overall;                  ///< key "overall"
  std::vector<R> by_service;  ///< spec name, grid order
  std::vector<R> by_profile;  ///< "profile <id>", grid order
  std::vector<R> by_fault;    ///< scenario name, grid order

  Grouped() { overall.key = "overall"; }

  /// Applies `fold(bucket)` to overall and to the cell's three buckets.
  template <class Fold>
  void fold_cell(const CellResult& cell, Fold&& fold) {
    fold(overall);
    fold(bucket(by_service, cell.service));
    fold(bucket(by_profile, format("profile %d", cell.profile_id)));
    fold(bucket(by_fault, cell.fault));
  }

  struct Dimension {
    const char* name;  ///< "service" | "profile" | "fault"
    const std::vector<R>* buckets;
  };
  std::array<Dimension, 3> dimensions() const {
    return {{{"service", &by_service},
             {"profile", &by_profile},
             {"fault", &by_fault}}};
  }

 private:
  static R& bucket(std::vector<R>& buckets, const std::string& key) {
    for (R& b : buckets) {
      if (b.key == key) return b;
    }
    buckets.emplace_back();
    buckets.back().key = key;
    return buckets.back();
  }
};

}  // namespace vodx::batch
