#ifndef TAURUS_EXEC_VECTOR_OPS_H_
#define TAURUS_EXEC_VECTOR_OPS_H_

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "common/result.h"
#include "exec/batch.h"
#include "exec/exec_context.h"
#include "parser/ast.h"

namespace taurus {

/// The values of one expression over a batch's selected rows, read where
/// they live: a column of an active slot is a gather of pointers into the
/// storage rows (a NULL-extended row points at a shared NULL), and a
/// literal or an outer-binding column is one pointer for the whole batch.
/// Only a computed expression owns its values. The views stay valid while
/// the batch's rows, its outer frame and the expression are unchanged and
/// this object is not refilled.
class BatchValues {
 public:
  /// The value of the i-th entry (parallel to the selection it was
  /// evaluated over).
  const Value& operator[](size_t i) const { return *ptrs_[i & mask_]; }

  /// The i-th value for a caller that keeps it: moved out when this object
  /// owns it (so take each entry at most once), copied otherwise.
  Value Take(size_t i) {
    return owned_.empty() ? (*this)[i] : std::move(owned_[i]);
  }

  /// Every entry reads `*v`.
  void SetConstant(const Value* v) {
    owned_.clear();
    ptrs_.assign(1, v);
    mask_ = 0;
  }
  /// Returns room for `n` pointers, one per entry, for the caller to fill.
  const Value** Gather(size_t n) {
    owned_.clear();
    ptrs_.resize(n);
    mask_ = ~size_t{0};
    return ptrs_.data();
  }
  /// Returns `n` owned NULL values, one per entry, for the caller to
  /// overwrite.
  Value* Materialize(size_t n) {
    const Value** p = Gather(n);
    owned_.resize(n);
    for (size_t i = 0; i < n; ++i) p[i] = &owned_[i];
    return owned_.data();
  }

 private:
  std::vector<const Value*> ptrs_;
  std::vector<Value> owned_;
  size_t mask_ = 0;  ///< 0 for a constant, all ones for one value per entry
};

/// A numeric expression's values over a batch's selected rows, one per
/// selection entry, typed by EvalTotalArithmetic's rule: int64_t when every
/// operand is an integer (int op int stays int), double otherwise. A NULL
/// entry is flagged in `nulls`; its value is a placeholder. The vectors
/// keep their capacity across batches.
struct NumericVector {
  bool is_int = true;
  std::vector<int64_t> ints;    ///< when is_int
  std::vector<double> doubles;  ///< otherwise
  std::vector<uint8_t> nulls;   ///< 1 = NULL
};

/// EvalNumeric's buffers, reused across batches: the columns gathered
/// from the current batch, so aggregates over the same column read it once
/// per batch, and the intermediate operands. Deques: growing one never
/// moves a vector a caller still holds.
struct NumericScratch {
  struct Column {
    int ref_id = -1;
    int column_idx = -1;
    bool ok = false;  ///< the gather succeeded
    NumericVector values;
  };
  /// Forgets the gathered columns; call once per batch.
  void NewBatch() { num_columns = 0; }

  std::deque<Column> columns;
  size_t num_columns = 0;  ///< entries of `columns` valid for this batch
  std::deque<NumericVector> operands;
  NumericVector result;
};

/// True for the shapes EvalNumeric takes: a column reference, a literal,
/// or +, -, * over such operands.
bool IsNumericKernelExpr(const Expr& expr);

/// Evaluates an IsNumericKernelExpr over the selected rows of `batch`, with
/// the values EvalExpr would give row by row. Returns the values, valid
/// until the next call, or null when an operand is not all integers or all
/// doubles over this batch (a string, or a column mixing both kinds); the
/// caller then takes the Value path for the batch.
const NumericVector* EvalNumeric(const Expr& expr, const Batch& batch,
                                 NumericScratch* scratch);

/// Evaluates `expr` over the selected rows of `batch`, one value per
/// selection entry, into `out`. Bit-identical to calling EvalExpr row by
/// row: AND/OR/CASE/IN evaluate sub-expressions only for the rows the
/// scalar interpreter would have reached (short-circuit via row-index
/// sublists), so error and subquery side-effect behavior is preserved.
/// Expressions the vector path cannot split (aggregates, EXISTS/IN/scalar
/// subqueries) fall back to the scalar interpreter per row through the
/// batch's base frame.
Status EvalBatchValues(const Expr& expr, const Batch& batch, ExecContext* ctx,
                       BatchValues* out);

/// Applies each conjunct over the batch, shrinking `batch->sel` in place to
/// the rows where the conjunct is non-NULL true before evaluating the next
/// one — the vectorized form of short-circuit AND. Column-vs-literal and
/// column-vs-column comparisons (and BETWEEN) compare in place and write
/// the selection directly, without a result vector.
Status FilterBatch(const std::vector<const Expr*>& conds, Batch* batch,
                   ExecContext* ctx);

}  // namespace taurus

#endif  // TAURUS_EXEC_VECTOR_OPS_H_
