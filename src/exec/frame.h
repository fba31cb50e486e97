#ifndef TAURUS_EXEC_FRAME_H_
#define TAURUS_EXEC_FRAME_H_

#include <vector>

#include "types/value.h"

namespace taurus {

/// A Frame is the unit of data flowing between frame-producing operators
/// (scans, joins, filters): one slot per table-reference leaf in the whole
/// statement, indexed by TableRef::ref_id. A slot points at the leaf's
/// current row (owned by a scan's table, an index, or a materialized
/// derived table) or is null when the leaf is not in scope / NULL-extended.
using Frame = std::vector<const Row*>;

/// A Frame kept by a buffering operator (sort rows, group-by representative
/// rows) after the producing iterator has moved on.
///
/// Slots are borrowed by default: the pointer is kept as it is, because the
/// row it points at lives for the whole query (a base-table or index row in
/// TableData, a cached derived-table row). Only the `copy_slots` a caller
/// names are deep-copied into storage this object owns: rows their
/// producer re-materializes or frees before the buffer is consumed. The
/// caller decides which slots those are once per plan, not per row
/// (UnstableSlots in exec_internal.h; DESIGN.md section 13).
///
/// Move-only: a move keeps the copies at their addresses, so View() stays
/// valid; a copy would not.
class OwnedFrame {
 public:
  OwnedFrame() = default;

  /// Captures `frame`, deep-copying its occupied `copy_slots`.
  explicit OwnedFrame(const Frame& frame,
                      const std::vector<int>& copy_slots = {})
      : view_(frame) {
    copies_.reserve(copy_slots.size());  // no reallocation after &back()
    for (int s : copy_slots) {
      const size_t i = static_cast<size_t>(s);
      if (i >= view_.size() || view_[i] == nullptr) continue;
      copies_.push_back(*view_[i]);
      view_[i] = &copies_.back();
    }
  }

  OwnedFrame(OwnedFrame&&) = default;
  OwnedFrame& operator=(OwnedFrame&&) = default;
  OwnedFrame(const OwnedFrame&) = delete;
  OwnedFrame& operator=(const OwnedFrame&) = delete;

  /// The captured frame: borrowed pointers and pointers into the copies.
  const Frame& View() const { return view_; }

 private:
  Frame view_;
  std::vector<Row> copies_;
};

}  // namespace taurus

#endif  // TAURUS_EXEC_FRAME_H_
