#include "exec/vector_ops.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>

#include "common/strings.h"
#include "exec/expr_eval.h"
#include "parser/ast_util.h"

namespace taurus {

namespace {

/// Shared state of one vectorized evaluation: the batch plus a lazily
/// built scratch frame for per-row scalar fallbacks (subquery expressions).
struct BatchEval {
  BatchEval(const Batch* batch, ExecContext* context)
      : b(batch), ctx(context) {}

  const Batch* b;
  ExecContext* ctx;
  Frame scratch;
  bool scratch_ready = false;

  Frame* Scratch() {
    if (!scratch_ready) {
      scratch = *b->base;
      scratch_ready = true;
    }
    return &scratch;
  }
};

/// Evaluates `e` for the physical rows listed in `rows[0..n)`, writing
/// `out[0..n)`. The row list — not the batch's selection vector — is the
/// recursion unit, so AND/OR/CASE can restrict sub-expressions to exactly
/// the rows the scalar interpreter would evaluate them on.
Status EvalRows(const Expr& e, BatchEval* be, const uint32_t* rows, size_t n,
                Value* out);

/// The value every column of a NULL-extended row reads.
const Value& NullValue() {
  static const Value* const null_value = new Value();
  return *null_value;
}

/// `l op r` per row for the arithmetic ops that cannot fail.
template <typename Op>
void ArithmeticRows(const BatchValues& l, const BatchValues& r, size_t n,
                    Value* out, Op op) {
  for (size_t i = 0; i < n; ++i) out[i] = EvalTotalArithmetic(l[i], r[i], op);
}

/// Like EvalRows, but into views: literals and columns are read in place
/// (see BatchValues); only computed expressions go through EvalRows.
Status EvalOperand(const Expr& e, BatchEval* be, const uint32_t* rows,
                   size_t n, BatchValues* out) {
  const Batch& b = *be->b;
  if (e.kind == Expr::Kind::kLiteral) {
    out->SetConstant(&e.literal);
    return Status::OK();
  }
  if (e.kind != Expr::Kind::kColumnRef) {
    return EvalRows(e, be, rows, n, out->Materialize(n));
  }
  if (e.ref_id < 0 || static_cast<size_t>(e.ref_id) >= b.num_slots()) {
    return Status::Internal("unbound column ref: " + e.ToString());
  }
  const size_t slot = static_cast<size_t>(e.ref_id);
  const size_t col = static_cast<size_t>(e.column_idx);
  const Value* null_value = &NullValue();
  if (b.active[slot] == 0) {  // outer binding: one value for every row
    const Row* rw = b.base != nullptr ? (*b.base)[slot] : nullptr;
    out->SetConstant(rw != nullptr ? &(*rw)[col] : null_value);
    return Status::OK();
  }
  const std::vector<const Row*>& cp = b.cols[slot];
  const Value** p = out->Gather(n);
  for (size_t i = 0; i < n; ++i) {
    const Row* rw = cp[rows[i]];
    p[i] = rw != nullptr ? &(*rw)[col] : null_value;
  }
  return Status::OK();
}

/// Scalar-interpreter fallback: reconstitutes each row into the scratch
/// frame and calls EvalExpr. Used for subquery expressions (and any kind
/// without a vector implementation); aggregates correctly error exactly as
/// they would row-at-a-time.
Status EvalRowsViaFrame(const Expr& e, BatchEval* be, const uint32_t* rows,
                        size_t n, Value* out) {
  Frame* f = be->Scratch();
  for (size_t i = 0; i < n; ++i) {
    be->b->FillFrame(rows[i], f);
    TAURUS_ASSIGN_OR_RETURN(out[i], EvalExpr(e, *f, be->ctx));
  }
  return Status::OK();
}

Status EvalAndRows(const Expr& e, BatchEval* be, const uint32_t* rows,
                   size_t n, Value* out) {
  BatchValues l;
  TAURUS_RETURN_IF_ERROR(EvalOperand(*e.children[0], be, rows, n, &l));
  // The right side runs only where the left is not false — the rows the
  // scalar interpreter's short-circuit would reach.
  std::vector<uint32_t> sub;
  sub.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (l[i].is_null() || l[i].IsTrue()) sub.push_back(rows[i]);
  }
  BatchValues r;
  if (!sub.empty()) {
    TAURUS_RETURN_IF_ERROR(
        EvalOperand(*e.children[1], be, sub.data(), sub.size(), &r));
  }
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!l[i].is_null() && !l[i].IsTrue()) {
      out[i] = Value::Bool(false);
      continue;
    }
    const Value& rv = r[k++];
    if (!rv.is_null() && !rv.IsTrue()) {
      out[i] = Value::Bool(false);
    } else if (l[i].is_null() || rv.is_null()) {
      out[i] = Value::Null();
    } else {
      out[i] = Value::Bool(true);
    }
  }
  return Status::OK();
}

Status EvalOrRows(const Expr& e, BatchEval* be, const uint32_t* rows,
                  size_t n, Value* out) {
  BatchValues l;
  TAURUS_RETURN_IF_ERROR(EvalOperand(*e.children[0], be, rows, n, &l));
  std::vector<uint32_t> sub;
  sub.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (l[i].is_null() || !l[i].IsTrue()) sub.push_back(rows[i]);
  }
  BatchValues r;
  if (!sub.empty()) {
    TAURUS_RETURN_IF_ERROR(
        EvalOperand(*e.children[1], be, sub.data(), sub.size(), &r));
  }
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!l[i].is_null() && l[i].IsTrue()) {
      out[i] = Value::Bool(true);
      continue;
    }
    const Value& rv = r[k++];
    if (!rv.is_null() && rv.IsTrue()) {
      out[i] = Value::Bool(true);
    } else if (l[i].is_null() || rv.is_null()) {
      out[i] = Value::Null();
    } else {
      out[i] = Value::Bool(false);
    }
  }
  return Status::OK();
}

Status EvalCaseRows(const Expr& e, BatchEval* be, const uint32_t* rows,
                    size_t n, Value* out) {
  const size_t nch = e.children.size() - (e.case_has_else ? 1 : 0);
  // Positions (into rows/out) still looking for a matching WHEN.
  std::vector<uint32_t> pend(n);
  for (size_t i = 0; i < n; ++i) pend[i] = static_cast<uint32_t>(i);
  std::vector<uint32_t> sub, matched, still;
  BatchValues cond;
  std::vector<Value> branch;
  for (size_t p = 0; p + 1 < nch && !pend.empty(); p += 2) {
    sub.clear();
    for (uint32_t pos : pend) sub.push_back(rows[pos]);
    TAURUS_RETURN_IF_ERROR(
        EvalOperand(*e.children[p], be, sub.data(), sub.size(), &cond));
    matched.clear();
    still.clear();
    for (size_t k = 0; k < pend.size(); ++k) {
      if (!cond[k].is_null() && cond[k].IsTrue()) {
        matched.push_back(pend[k]);
      } else {
        still.push_back(pend[k]);
      }
    }
    if (!matched.empty()) {
      sub.clear();
      for (uint32_t pos : matched) sub.push_back(rows[pos]);
      branch.assign(matched.size(), Value());
      TAURUS_RETURN_IF_ERROR(EvalRows(*e.children[p + 1], be, sub.data(),
                                      sub.size(), branch.data()));
      for (size_t k = 0; k < matched.size(); ++k) {
        out[matched[k]] = std::move(branch[k]);
      }
    }
    pend.swap(still);
  }
  if (pend.empty()) return Status::OK();
  if (e.case_has_else) {
    sub.clear();
    for (uint32_t pos : pend) sub.push_back(rows[pos]);
    branch.assign(pend.size(), Value());
    TAURUS_RETURN_IF_ERROR(EvalRows(*e.children.back(), be, sub.data(),
                                    sub.size(), branch.data()));
    for (size_t k = 0; k < pend.size(); ++k) {
      out[pend[k]] = std::move(branch[k]);
    }
  } else {
    for (uint32_t pos : pend) out[pos] = Value::Null();
  }
  return Status::OK();
}

/// Column-major IN list: each item is evaluated once over the rows still
/// looking for a match — the rows the scalar interpreter would compare it
/// against. A literal item is read in place; another constant item is
/// evaluated once, on the first row that reaches it.
Status EvalInListRows(const Expr& e, BatchEval* be, const uint32_t* rows,
                      size_t n, Value* out) {
  BatchValues v;
  TAURUS_RETURN_IF_ERROR(EvalOperand(*e.children[0], be, rows, n, &v));
  std::vector<uint32_t> pend, still, sub;  // positions into rows/out
  for (size_t i = 0; i < n; ++i) {
    if (v[i].is_null()) {
      out[i] = Value::Null();
    } else {
      pend.push_back(static_cast<uint32_t>(i));
    }
  }
  std::vector<uint8_t> saw_null(n, 0);
  BatchValues item;
  Value folded;
  for (size_t j = 1; j < e.children.size() && !pend.empty(); ++j) {
    const Expr& ie = *e.children[j];
    sub.clear();
    for (uint32_t pos : pend) sub.push_back(rows[pos]);
    if (ie.kind != Expr::Kind::kLiteral && IsConstExpr(ie)) {
      TAURUS_RETURN_IF_ERROR(EvalRows(ie, be, sub.data(), 1, &folded));
      item.SetConstant(&folded);
    } else {
      TAURUS_RETURN_IF_ERROR(
          EvalOperand(ie, be, sub.data(), sub.size(), &item));
    }
    still.clear();
    for (size_t k = 0; k < pend.size(); ++k) {
      const uint32_t pos = pend[k];
      const Value& iv = item[k];
      if (iv.is_null()) {
        saw_null[pos] = 1;
        still.push_back(pos);
      } else if (v[pos] == iv) {
        out[pos] = Value::Bool(!e.negated);
      } else {
        still.push_back(pos);
      }
    }
    pend.swap(still);
  }
  for (uint32_t pos : pend) {
    out[pos] = saw_null[pos] != 0 ? Value::Null() : Value::Bool(e.negated);
  }
  return Status::OK();
}

Status EvalRows(const Expr& e, BatchEval* be, const uint32_t* rows, size_t n,
                Value* out) {
  const Batch& b = *be->b;
  switch (e.kind) {
    case Expr::Kind::kLiteral:
      for (size_t i = 0; i < n; ++i) out[i] = e.literal;
      return Status::OK();
    case Expr::Kind::kColumnRef: {
      if (e.ref_id < 0 || static_cast<size_t>(e.ref_id) >= b.num_slots()) {
        return Status::Internal("unbound column ref: " + e.ToString());
      }
      const size_t slot = static_cast<size_t>(e.ref_id);
      const size_t col = static_cast<size_t>(e.column_idx);
      if (b.active[slot] != 0) {
        const std::vector<const Row*>& cp = b.cols[slot];
        for (size_t i = 0; i < n; ++i) {
          const Row* rw = cp[rows[i]];
          out[i] = rw != nullptr ? (*rw)[col] : Value::Null();
        }
      } else {
        // Outer-binding slot: one gather, broadcast to every row.
        const Row* rw = b.base != nullptr ? (*b.base)[slot] : nullptr;
        Value v = rw != nullptr ? (*rw)[col] : Value::Null();
        for (size_t i = 0; i < n; ++i) out[i] = v;
      }
      return Status::OK();
    }
    case Expr::Kind::kBinary: {
      if (e.bop == BinaryOp::kAnd) return EvalAndRows(e, be, rows, n, out);
      if (e.bop == BinaryOp::kOr) return EvalOrRows(e, be, rows, n, out);
      BatchValues l, r;
      TAURUS_RETURN_IF_ERROR(EvalOperand(*e.children[0], be, rows, n, &l));
      TAURUS_RETURN_IF_ERROR(EvalOperand(*e.children[1], be, rows, n, &r));
      if (IsComparisonOp(e.bop)) {
        for (size_t i = 0; i < n; ++i) out[i] = EvalComparison(e.bop, l[i], r[i]);
        return Status::OK();
      }
      switch (e.bop) {
        case BinaryOp::kAdd:
          ArithmeticRows(l, r, n, out, std::plus<>());
          return Status::OK();
        case BinaryOp::kSub:
          ArithmeticRows(l, r, n, out, std::minus<>());
          return Status::OK();
        case BinaryOp::kMul:
          ArithmeticRows(l, r, n, out, std::multiplies<>());
          return Status::OK();
        default:
          break;
      }
      for (size_t i = 0; i < n; ++i) {
        TAURUS_ASSIGN_OR_RETURN(out[i], EvalArithmetic(e.bop, l[i], r[i]));
      }
      return Status::OK();
    }
    case Expr::Kind::kUnary: {
      BatchValues v;
      TAURUS_RETURN_IF_ERROR(EvalOperand(*e.children[0], be, rows, n, &v));
      for (size_t i = 0; i < n; ++i) {
        TAURUS_ASSIGN_OR_RETURN(out[i], EvalUnary(e.uop, v[i]));
      }
      return Status::OK();
    }
    case Expr::Kind::kFuncCall: {
      const size_t nc = e.children.size();
      std::vector<std::vector<Value>> ch(nc);
      for (size_t c = 0; c < nc; ++c) {
        ch[c].assign(n, Value());
        TAURUS_RETURN_IF_ERROR(
            EvalRows(*e.children[c], be, rows, n, ch[c].data()));
      }
      for (size_t i = 0; i < n; ++i) {
        std::vector<Value> args;
        args.reserve(nc);
        for (size_t c = 0; c < nc; ++c) args.push_back(std::move(ch[c][i]));
        TAURUS_ASSIGN_OR_RETURN(out[i], EvalFunction(e, std::move(args)));
      }
      return Status::OK();
    }
    case Expr::Kind::kCase:
      return EvalCaseRows(e, be, rows, n, out);
    case Expr::Kind::kInList:
      return EvalInListRows(e, be, rows, n, out);
    case Expr::Kind::kBetween: {
      BatchValues v, lo, hi;
      TAURUS_RETURN_IF_ERROR(EvalOperand(*e.children[0], be, rows, n, &v));
      TAURUS_RETURN_IF_ERROR(EvalOperand(*e.children[1], be, rows, n, &lo));
      TAURUS_RETURN_IF_ERROR(EvalOperand(*e.children[2], be, rows, n, &hi));
      for (size_t i = 0; i < n; ++i) {
        if (v[i].is_null() || lo[i].is_null() || hi[i].is_null()) {
          out[i] = Value::Null();
          continue;
        }
        bool in = Value::Compare(v[i], lo[i]) >= 0 &&
                  Value::Compare(v[i], hi[i]) <= 0;
        out[i] = Value::Bool(e.negated ? !in : in);
      }
      return Status::OK();
    }
    case Expr::Kind::kLike: {
      BatchValues v, p;
      TAURUS_RETURN_IF_ERROR(EvalOperand(*e.children[0], be, rows, n, &v));
      TAURUS_RETURN_IF_ERROR(EvalOperand(*e.children[1], be, rows, n, &p));
      for (size_t i = 0; i < n; ++i) out[i] = EvalLike(v[i], p[i], e.negated);
      return Status::OK();
    }
    case Expr::Kind::kCast: {
      BatchValues v;
      TAURUS_RETURN_IF_ERROR(EvalOperand(*e.children[0], be, rows, n, &v));
      for (size_t i = 0; i < n; ++i) {
        TAURUS_ASSIGN_OR_RETURN(out[i], EvalCast(v[i], e.cast_type));
      }
      return Status::OK();
    }
    case Expr::Kind::kIntervalAdd: {
      BatchValues v;
      TAURUS_RETURN_IF_ERROR(EvalOperand(*e.children[0], be, rows, n, &v));
      for (size_t i = 0; i < n; ++i) out[i] = EvalIntervalAdd(e, v[i]);
      return Status::OK();
    }
    case Expr::Kind::kAgg:
    case Expr::Kind::kExists:
    case Expr::Kind::kInSubquery:
    case Expr::Kind::kScalarSubquery:
      return EvalRowsViaFrame(e, be, rows, n, out);
  }
  return EvalRowsViaFrame(e, be, rows, n, out);
}

/// Whether a three-way comparison result `c` satisfies comparison `op`.
bool CmpPasses(BinaryOp op, int c) {
  switch (op) {
    case BinaryOp::kEq: return c == 0;
    case BinaryOp::kNe: return c != 0;
    case BinaryOp::kLt: return c < 0;
    case BinaryOp::kLe: return c <= 0;
    case BinaryOp::kGt: return c > 0;
    case BinaryOp::kGe: return c >= 0;
    default: return false;
  }
}

/// Copy-free kernel for `col <cmp> literal` (either operand order),
/// `col <cmp> col` over two active slots, `col [NOT] IN (literals)` and
/// `col BETWEEN lit AND lit`:
/// compares storage rows in place, keeping rows whose comparison is
/// non-NULL true (a NULL value or NULL-extended row never passes). Returns
/// false when the shape does not match (generic path handles it).
bool TryFastColCmpFilter(const Expr& e, Batch* b) {
  auto col_ok = [&](const Expr& c) {
    return c.kind == Expr::Kind::kColumnRef && c.ref_id >= 0 &&
           static_cast<size_t>(c.ref_id) < b->num_slots() &&
           b->active[static_cast<size_t>(c.ref_id)] != 0;
  };
  if (e.kind == Expr::Kind::kBinary && IsComparisonOp(e.bop)) {
    const Expr& c0 = *e.children[0];
    const Expr& c1 = *e.children[1];
    const BinaryOp op = e.bop;
    if (col_ok(c0) && col_ok(c1)) {
      const std::vector<const Row*>& lp =
          b->cols[static_cast<size_t>(c0.ref_id)];
      const std::vector<const Row*>& rp =
          b->cols[static_cast<size_t>(c1.ref_id)];
      const size_t lcol = static_cast<size_t>(c0.column_idx);
      const size_t rcol = static_cast<size_t>(c1.column_idx);
      size_t w = 0;
      for (uint32_t r : b->sel) {
        const Row* lrow = lp[r];
        const Row* rrow = rp[r];
        if (lrow == nullptr || rrow == nullptr) continue;
        const Value& lv = (*lrow)[lcol];
        const Value& rv = (*rrow)[rcol];
        if (lv.is_null() || rv.is_null()) continue;
        if (CmpPasses(op, Value::Compare(lv, rv))) b->sel[w++] = r;
      }
      b->sel.resize(w);
      return true;
    }
    const bool col_left = col_ok(c0) && c1.kind == Expr::Kind::kLiteral;
    const bool col_right =
        !col_left && c0.kind == Expr::Kind::kLiteral && col_ok(c1);
    if (!col_left && !col_right) return false;
    const Expr& cr = col_left ? c0 : c1;
    const Value& lit = col_left ? c1.literal : c0.literal;
    if (lit.is_null()) {  // NULL comparand never satisfies
      b->sel.clear();
      return true;
    }
    const std::vector<const Row*>& cp = b->cols[static_cast<size_t>(cr.ref_id)];
    const size_t col = static_cast<size_t>(cr.column_idx);
    size_t w = 0;
    for (uint32_t r : b->sel) {
      const Row* rw = cp[r];
      if (rw == nullptr) continue;
      const Value& v = (*rw)[col];
      if (v.is_null()) continue;
      const int c = col_left ? Value::Compare(v, lit) : Value::Compare(lit, v);
      if (CmpPasses(op, c)) b->sel[w++] = r;
    }
    b->sel.resize(w);
    return true;
  }
  if (e.kind == Expr::Kind::kInList && col_ok(*e.children[0]) &&
      std::all_of(e.children.begin() + 1, e.children.end(),
                  [](const std::unique_ptr<Expr>& c) {
                    return c->kind == Expr::Kind::kLiteral;
                  })) {
    // A row passes IN when its value equals an item, and NOT IN when it
    // equals none and no item is NULL (a NULL item makes a miss NULL).
    std::vector<const Value*> items;
    for (size_t j = 1; j < e.children.size(); ++j) {
      const Value& lit = e.children[j]->literal;
      if (!lit.is_null()) {
        items.push_back(&lit);
      } else if (e.negated) {
        b->sel.clear();
        return true;
      }
    }
    const Expr& cr = *e.children[0];
    const std::vector<const Row*>& cp = b->cols[static_cast<size_t>(cr.ref_id)];
    const size_t col = static_cast<size_t>(cr.column_idx);
    size_t w = 0;
    for (uint32_t r : b->sel) {
      const Row* rw = cp[r];
      if (rw == nullptr) continue;
      const Value& v = (*rw)[col];
      if (v.is_null()) continue;
      bool hit = false;
      for (const Value* item : items) {
        if (v == *item) {
          hit = true;
          break;
        }
      }
      if (hit != e.negated) b->sel[w++] = r;
    }
    b->sel.resize(w);
    return true;
  }
  if (e.kind == Expr::Kind::kBetween && !e.negated && col_ok(*e.children[0]) &&
      e.children[1]->kind == Expr::Kind::kLiteral &&
      e.children[2]->kind == Expr::Kind::kLiteral) {
    const Value& lo = e.children[1]->literal;
    const Value& hi = e.children[2]->literal;
    if (lo.is_null() || hi.is_null()) {
      b->sel.clear();
      return true;
    }
    const Expr& cr = *e.children[0];
    const std::vector<const Row*>& cp = b->cols[static_cast<size_t>(cr.ref_id)];
    const size_t col = static_cast<size_t>(cr.column_idx);
    size_t w = 0;
    for (uint32_t r : b->sel) {
      const Row* rw = cp[r];
      if (rw == nullptr) continue;
      const Value& v = (*rw)[col];
      if (v.is_null()) continue;
      if (Value::Compare(v, lo) >= 0 && Value::Compare(v, hi) <= 0) {
        b->sel[w++] = r;
      }
    }
    b->sel.resize(w);
    return true;
  }
  return false;
}

/// Fills `out` with `n` copies of `v`; false for a string.
bool FillNumericConstant(const Value& v, size_t n, NumericVector* out) {
  out->nulls.assign(n, v.is_null() ? 1 : 0);
  switch (v.kind()) {
    case Value::Kind::kNull:
    case Value::Kind::kInt:
      out->is_int = true;
      out->ints.assign(n, v.AsInt());
      return true;
    case Value::Kind::kDouble:
      out->is_int = false;
      out->doubles.assign(n, v.AsDouble());
      return true;
    case Value::Kind::kString:
      break;
  }
  return false;
}

/// Reads each non-NULL `at(i)` as a T, failing on a value of another kind
/// than `kind`. `at(i)` is null for a NULL-extended row.
template <typename T, typename At>
bool GatherNumeric(size_t n, const At& at, Value::Kind kind,
                   std::vector<T>* vals, std::vector<uint8_t>* nulls) {
  vals->resize(n);
  nulls->resize(n);
  for (size_t i = 0; i < n; ++i) {
    const Value* v = at(i);
    if (v == nullptr || v->is_null()) {
      (*nulls)[i] = 1;
      (*vals)[i] = 0;
      continue;
    }
    if (v->kind() != kind) return false;
    (*nulls)[i] = 0;
    if constexpr (std::is_same_v<T, int64_t>) {
      (*vals)[i] = v->AsInt();
    } else {
      (*vals)[i] = v->AsDouble();
    }
  }
  return true;
}

/// Entry i of `v` as a T (an integer widens to double, as AsDouble does).
template <typename T>
T NumericAt(const NumericVector& v, size_t i) {
  if constexpr (std::is_same_v<T, int64_t>) {
    return v.ints[i];
  } else {
    return v.is_int ? static_cast<double>(v.ints[i]) : v.doubles[i];
  }
}

/// `l op r` for +, - and *, with the results EvalTotalArithmetic gives.
/// Integers add and multiply as unsigned, so overflow wraps instead of
/// being undefined (a NULL entry's placeholder may take part).
template <typename T>
void CombineNumeric(BinaryOp op, const NumericVector& l,
                    const NumericVector& r, size_t n, std::vector<T>* out) {
  using U = std::conditional_t<std::is_same_v<T, int64_t>, uint64_t, double>;
  out->resize(n);
  T* o = out->data();
  // One loop per operator, so the switch stays out of the row loop.
  auto run = [&](auto fn) {
    for (size_t i = 0; i < n; ++i) {
      o[i] = static_cast<T>(fn(static_cast<U>(NumericAt<T>(l, i)),
                               static_cast<U>(NumericAt<T>(r, i))));
    }
  };
  switch (op) {
    case BinaryOp::kAdd:
      run([](U a, U b) { return a + b; });
      break;
    case BinaryOp::kSub:
      run([](U a, U b) { return a - b; });
      break;
    default:
      run([](U a, U b) { return a * b; });
      break;
  }
}

/// Gathers column `col` of active slot `slot` over the batch's selected
/// rows; the first non-NULL value decides the vector's kind.
bool GatherNumericColumn(const Batch& b, size_t slot, size_t col,
                         NumericVector* out) {
  const size_t n = b.sel.size();
  const std::vector<const Row*>& cp = b.cols[slot];
  auto at = [&](size_t i) -> const Value* {
    const Row* rw = cp[b.sel[i]];
    return rw != nullptr ? &(*rw)[col] : nullptr;
  };
  size_t first = 0;
  while (first < n && (at(first) == nullptr || at(first)->is_null())) ++first;
  const Value::Kind kind = first < n ? at(first)->kind() : Value::Kind::kInt;
  if (kind == Value::Kind::kString) return false;
  out->is_int = kind == Value::Kind::kInt;
  return out->is_int ? GatherNumeric(n, at, kind, &out->ints, &out->nulls)
                     : GatherNumeric(n, at, kind, &out->doubles, &out->nulls);
}

/// Evaluates `e` into `out`, or returns a column gathered earlier in this
/// batch; null when the batch's values do not fit a NumericVector.
const NumericVector* EvalNumericRows(const Expr& e, const Batch& b,
                                     NumericScratch* s, size_t depth,
                                     NumericVector* out) {
  const size_t n = b.sel.size();
  switch (e.kind) {
    case Expr::Kind::kLiteral:
      return FillNumericConstant(e.literal, n, out) ? out : nullptr;
    case Expr::Kind::kColumnRef: {
      if (e.ref_id < 0 || static_cast<size_t>(e.ref_id) >= b.num_slots()) {
        return nullptr;  // the Value path reports the error
      }
      const size_t slot = static_cast<size_t>(e.ref_id);
      const size_t col = static_cast<size_t>(e.column_idx);
      if (b.active[slot] == 0) {  // outer binding: one value for every row
        const Row* rw = b.base != nullptr ? (*b.base)[slot] : nullptr;
        return FillNumericConstant(rw != nullptr ? (*rw)[col] : NullValue(),
                                   n, out)
                   ? out
                   : nullptr;
      }
      for (size_t k = 0; k < s->num_columns; ++k) {
        const NumericScratch::Column& c = s->columns[k];
        if (c.ref_id == e.ref_id && c.column_idx == e.column_idx) {
          return c.ok ? &c.values : nullptr;
        }
      }
      if (s->columns.size() == s->num_columns) s->columns.emplace_back();
      NumericScratch::Column& c = s->columns[s->num_columns++];
      c.ref_id = e.ref_id;
      c.column_idx = e.column_idx;
      c.ok = GatherNumericColumn(b, slot, col, &c.values);
      return c.ok ? &c.values : nullptr;
    }
    case Expr::Kind::kBinary: {
      if (s->operands.size() < 2 * depth + 2) s->operands.resize(2 * depth + 2);
      const NumericVector* l = EvalNumericRows(*e.children[0], b, s, depth + 1,
                                               &s->operands[2 * depth]);
      if (l == nullptr) return nullptr;
      const NumericVector* r = EvalNumericRows(
          *e.children[1], b, s, depth + 1, &s->operands[2 * depth + 1]);
      if (r == nullptr) return nullptr;
      out->nulls.resize(n);
      for (size_t i = 0; i < n; ++i) {
        out->nulls[i] = l->nulls[i] | r->nulls[i];
      }
      out->is_int = l->is_int && r->is_int;
      if (out->is_int) {
        CombineNumeric(e.bop, *l, *r, n, &out->ints);
      } else {
        CombineNumeric(e.bop, *l, *r, n, &out->doubles);
      }
      return out;
    }
    default:
      return nullptr;
  }
}

}  // namespace

bool IsNumericKernelExpr(const Expr& expr) {
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
    case Expr::Kind::kColumnRef:
      return true;
    case Expr::Kind::kBinary:
      return (expr.bop == BinaryOp::kAdd || expr.bop == BinaryOp::kSub ||
              expr.bop == BinaryOp::kMul) &&
             IsNumericKernelExpr(*expr.children[0]) &&
             IsNumericKernelExpr(*expr.children[1]);
    default:
      return false;
  }
}

const NumericVector* EvalNumeric(const Expr& expr, const Batch& batch,
                                 NumericScratch* scratch) {
  return EvalNumericRows(expr, batch, scratch, 0, &scratch->result);
}

Status EvalBatchValues(const Expr& expr, const Batch& batch, ExecContext* ctx,
                       BatchValues* out) {
  BatchEval be(&batch, ctx);
  return EvalOperand(expr, &be, batch.sel.data(), batch.sel.size(), out);
}

Status FilterBatch(const std::vector<const Expr*>& conds, Batch* batch,
                   ExecContext* ctx) {
  BatchValues v;
  for (const Expr* cond : conds) {
    if (batch->sel.empty()) return Status::OK();
    if (TryFastColCmpFilter(*cond, batch)) continue;
    const size_t n = batch->sel.size();
    TAURUS_RETURN_IF_ERROR(EvalBatchValues(*cond, *batch, ctx, &v));
    size_t w = 0;
    for (size_t i = 0; i < n; ++i) {
      if (!v[i].is_null() && v[i].IsTrue()) batch->sel[w++] = batch->sel[i];
    }
    batch->sel.resize(w);
  }
  return Status::OK();
}

}  // namespace taurus
