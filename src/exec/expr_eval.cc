#include "exec/expr_eval.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>

#include "common/strings.h"
#include "exec/block_executor.h"
#include "types/datetime.h"

namespace taurus {

namespace {

bool IsDatetimeFamily(TypeId t) {
  return t == TypeId::kDatetime || t == TypeId::kDatetime2 ||
         t == TypeId::kTimestamp || t == TypeId::kTimestamp2;
}

/// Converts any temporal value to days-since-epoch.
int64_t TemporalToDays(const Value& v) {
  if (IsDatetimeFamily(v.type())) {
    int64_t secs = v.AsInt();
    return secs >= 0 ? secs / 86400 : (secs - 86399) / 86400;
  }
  return v.AsInt();
}

}  // namespace

Result<Value> EvalArithmetic(BinaryOp op, const Value& l, const Value& r) {
  switch (op) {
    case BinaryOp::kAdd:
      return EvalTotalArithmetic(l, r, std::plus<>());
    case BinaryOp::kSub:
      return EvalTotalArithmetic(l, r, std::minus<>());
    case BinaryOp::kMul:
      return EvalTotalArithmetic(l, r, std::multiplies<>());
    default:
      break;
  }
  if (l.is_null() || r.is_null()) return Value::Null();
  bool both_int =
      l.kind() == Value::Kind::kInt && r.kind() == Value::Kind::kInt;
  switch (op) {
    case BinaryOp::kDiv: {
      double d = r.AsDouble();
      if (d == 0.0) return Value::Null();  // MySQL: division by zero -> NULL
      return Value::Double(l.AsDouble() / d);
    }
    case BinaryOp::kMod: {
      if (both_int) {
        int64_t d = r.AsInt();
        if (d == 0) return Value::Null();
        return Value::Int(l.AsInt() % d);
      }
      double d = r.AsDouble();
      if (d == 0.0) return Value::Null();
      return Value::Double(std::fmod(l.AsDouble(), d));
    }
    default:
      return Status::Internal("not an arithmetic op");
  }
}

Value EvalComparison(BinaryOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  int c = Value::Compare(l, r);
  bool out = false;
  switch (op) {
    case BinaryOp::kEq:
      out = c == 0;
      break;
    case BinaryOp::kNe:
      out = c != 0;
      break;
    case BinaryOp::kLt:
      out = c < 0;
      break;
    case BinaryOp::kLe:
      out = c <= 0;
      break;
    case BinaryOp::kGt:
      out = c > 0;
      break;
    case BinaryOp::kGe:
      out = c >= 0;
      break;
    default:
      break;
  }
  return Value::Bool(out);
}

Value EvalLike(const Value& v, const Value& pattern, bool negated) {
  if (v.is_null() || pattern.is_null()) return Value::Null();
  std::string vbuf, pbuf;
  auto text = [](const Value& x, std::string* buf) -> std::string_view {
    if (x.kind() == Value::Kind::kString) return x.AsString();
    *buf = x.ToString();
    return *buf;
  };
  const bool m = SqlLikeMatch(text(v, &vbuf), text(pattern, &pbuf));
  return Value::Bool(negated ? !m : m);
}

Result<Value> EvalCast(const Value& v, TypeId target) {
  if (v.is_null()) return Value::Null();
  TypeCategory cat = CategoryOf(target);
  switch (cat) {
    case TypeCategory::kInt2:
    case TypeCategory::kInt4:
    case TypeCategory::kInt8:
      if (v.kind() == Value::Kind::kString) {
        return Value::Int(
            std::strtoll(std::string(v.AsString()).c_str(), nullptr, 10),
            target);
      }
      return Value::Int(static_cast<int64_t>(v.AsDouble()), target);
    case TypeCategory::kNum:
      if (v.kind() == Value::Kind::kString) {
        return Value::Double(
            std::strtod(std::string(v.AsString()).c_str(), nullptr), target);
      }
      return Value::Double(v.AsDouble(), target);
    case TypeCategory::kStr:
    case TypeCategory::kBlb:
      return Value::Str(v.ToString(), TypeId::kVarchar);
    case TypeCategory::kDte: {
      if (v.kind() == Value::Kind::kString) {
        TAURUS_ASSIGN_OR_RETURN(int64_t days, ParseDate(v.AsString()));
        return Value::Date(days);
      }
      return Value::Date(TemporalToDays(v));
    }
    case TypeCategory::kDtm: {
      if (v.kind() == Value::Kind::kString) {
        TAURUS_ASSIGN_OR_RETURN(int64_t secs, ParseDatetime(v.AsString()));
        return Value::Datetime(secs);
      }
      if (IsDatetimeFamily(v.type())) return v;
      return Value::Datetime(v.AsInt() * 86400);
    }
    default:
      return Status::NotSupported("unsupported CAST target");
  }
}

Result<Value> EvalFunction(const Expr& expr, std::vector<Value> args) {
  const std::string& f = expr.func_name;
  // NULL propagation for the simple scalar functions.
  auto null_in = [&args]() {
    for (const Value& a : args) {
      if (a.is_null()) return true;
    }
    return false;
  };
  if (f == "year" || f == "month" || f == "day") {
    if (args[0].is_null()) return Value::Null();
    int64_t days = TemporalToDays(args[0]);
    if (f == "year") return Value::Int(ExtractYear(days), TypeId::kLong);
    if (f == "month") return Value::Int(ExtractMonth(days), TypeId::kLong);
    return Value::Int(ExtractDay(days), TypeId::kLong);
  }
  if (f == "substring" || f == "substr") {
    if (null_in()) return Value::Null();
    std::string_view s = args[0].AsString();
    int64_t pos = args[1].AsInt();  // 1-based
    int64_t len = args.size() > 2 ? args[2].AsInt()
                                  : static_cast<int64_t>(s.size());
    if (pos < 1) pos = 1;
    if (static_cast<size_t>(pos - 1) >= s.size() || len <= 0) {
      return Value::Str("");
    }
    return Value::Str(s.substr(static_cast<size_t>(pos - 1),
                               static_cast<size_t>(len)));
  }
  if (f == "upper") {
    if (null_in()) return Value::Null();
    std::string s(args[0].AsString());
    for (char& c : s) c = static_cast<char>(std::toupper(
        static_cast<unsigned char>(c)));
    return Value::Str(s);
  }
  if (f == "lower") {
    if (null_in()) return Value::Null();
    return Value::Str(AsciiLower(args[0].AsString()));
  }
  if (f == "length") {
    if (null_in()) return Value::Null();
    return Value::Int(static_cast<int64_t>(args[0].AsString().size()),
                      TypeId::kLong);
  }
  if (f == "concat") {
    if (null_in()) return Value::Null();
    std::string out;
    for (const Value& a : args) out += a.ToString();
    return Value::Str(out);
  }
  if (f == "trim") {
    if (null_in()) return Value::Null();
    std::string_view s = args[0].AsString();
    size_t b = s.find_first_not_of(' ');
    size_t e = s.find_last_not_of(' ');
    if (b == std::string_view::npos) return Value::Str("");
    return Value::Str(s.substr(b, e - b + 1));
  }
  if (f == "abs") {
    if (null_in()) return Value::Null();
    if (args[0].kind() == Value::Kind::kInt) {
      return Value::Int(std::llabs(args[0].AsInt()));
    }
    return Value::Double(std::fabs(args[0].AsDouble()));
  }
  if (f == "round") {
    if (null_in()) return Value::Null();
    double scale = 1.0;
    if (args.size() > 1) scale = std::pow(10.0, args[1].AsDouble());
    if (args[0].kind() == Value::Kind::kInt && args.size() <= 1) {
      return args[0];
    }
    return Value::Double(std::round(args[0].AsDouble() * scale) / scale);
  }
  if (f == "mod") {
    return EvalArithmetic(BinaryOp::kMod, args[0], args[1]);
  }
  if (f == "coalesce") {
    for (Value& a : args) {
      if (!a.is_null()) return std::move(a);
    }
    return Value::Null();
  }
  if (f == "ifnull") {
    return args[0].is_null() ? std::move(args[1]) : std::move(args[0]);
  }
  if (f == "nullif") {
    if (args[0].is_null()) return Value::Null();
    if (!args[1].is_null() && Value::Compare(args[0], args[1]) == 0) {
      return Value::Null();
    }
    return std::move(args[0]);
  }
  if (f == "if") {
    bool cond = !args[0].is_null() && args[0].IsTrue();
    return cond ? std::move(args[1]) : std::move(args[2]);
  }
  return Status::NotSupported("unknown function at runtime: " + f);
}

Result<Value> EvalUnary(UnaryOp op, const Value& v) {
  switch (op) {
    case UnaryOp::kNot:
      if (v.is_null()) return Value::Null();
      return Value::Bool(!v.IsTrue());
    case UnaryOp::kNeg:
      if (v.is_null()) return Value::Null();
      if (v.kind() == Value::Kind::kInt) return Value::Int(-v.AsInt());
      return Value::Double(-v.AsDouble());
    case UnaryOp::kIsNull:
      return Value::Bool(v.is_null());
    case UnaryOp::kIsNotNull:
      return Value::Bool(!v.is_null());
  }
  return Status::Internal("bad unary op");
}

Value EvalIntervalAdd(const Expr& expr, const Value& v) {
  if (v.is_null()) return Value::Null();
  if (IsDatetimeFamily(v.type())) {
    if (expr.interval_unit == IntervalUnit::kDay) {
      return Value::Datetime(v.AsInt() + expr.interval_amount * 86400);
    }
    int64_t days = TemporalToDays(v);
    int64_t rem = v.AsInt() - days * 86400;
    int64_t new_days =
        AddIntervalToDate(days, expr.interval_amount, expr.interval_unit);
    return Value::Datetime(new_days * 86400 + rem);
  }
  return Value::Date(AddIntervalToDate(v.AsInt(), expr.interval_amount,
                                       expr.interval_unit));
}

namespace {

/// Runs an expression subquery and returns its result (cached when
/// non-correlated).
Result<SubplanResult*> RunSubplan(const Expr& expr, const Frame& frame,
                                  ExecContext* ctx) {
  if (expr.subplan_id < 0 || ctx == nullptr || ctx->query == nullptr) {
    return Status::Internal("subquery was not compiled");
  }
  Subplan* sp =
      ctx->query->subplans[static_cast<size_t>(expr.subplan_id)].get();
  if (!sp->correlated) {
    auto it = ctx->subplan_cache.find(expr.subplan_id);
    if (it != ctx->subplan_cache.end()) return &it->second;
  }
  TAURUS_ASSIGN_OR_RETURN(std::vector<Row> rows,
                          ExecuteBlock(*sp->plan, frame, ctx));
  SubplanResult& res = ctx->subplan_cache[expr.subplan_id];
  res = SubplanResult();
  res.rows = std::move(rows);
  return &res;
}

/// Sorts the non-NULL first-column values of a cached subquery result for
/// binary search, when they all share one kind and none is NaN.
void BuildInIndex(SubplanResult* res) {
  res->in_index_built = true;
  bool searchable = true;
  for (const Row& r : res->rows) {
    const Value& v = r[0];
    if (v.is_null()) {
      res->in_has_null = true;
      continue;
    }
    if ((v.kind() == Value::Kind::kDouble && std::isnan(v.AsDouble())) ||
        (!res->in_sorted.empty() &&
         v.kind() != res->in_sorted.front()->kind())) {
      searchable = false;
    }
    res->in_sorted.push_back(&v);
  }
  if (!searchable) {
    res->in_sorted.clear();
    return;
  }
  std::sort(res->in_sorted.begin(), res->in_sorted.end(),
            [](const Value* a, const Value* b) { return *a < *b; });
}

/// `v IN (subquery)` over its result: NULL when `v` is NULL and the result
/// is not empty, or when no value matched and some value was NULL.
Value ProbeInSubquery(const Value& v, SubplanResult* res, bool reusable,
                      bool negated) {
  const std::vector<Row>& rows = res->rows;
  if (v.is_null()) return rows.empty() ? Value::Bool(negated) : Value::Null();
  if (reusable && !res->in_index_built) BuildInIndex(res);
  if (!res->in_sorted.empty() && v.kind() == res->in_sorted.front()->kind()) {
    auto it = std::lower_bound(
        res->in_sorted.begin(), res->in_sorted.end(), &v,
        [](const Value* a, const Value* b) { return *a < *b; });
    if (it != res->in_sorted.end() && **it == v) return Value::Bool(!negated);
    return res->in_has_null ? Value::Null() : Value::Bool(negated);
  }
  bool saw_null = false;
  for (const Row& r : rows) {
    if (r[0].is_null()) {
      saw_null = true;
      continue;
    }
    if (v == r[0]) return Value::Bool(!negated);
  }
  if (saw_null) return Value::Null();
  return Value::Bool(negated);
}

}  // namespace

Result<Value> EvalExpr(const Expr& expr, const Frame& frame,
                       ExecContext* ctx) {
  if (expr.group_col >= 0) {  // bound post-aggregation reference
    const size_t slot = static_cast<size_t>(expr.group_slot);
    if (slot >= frame.size() || frame[slot] == nullptr) {
      return Status::Internal("group row not in scope: " + expr.ToString());
    }
    return (*frame[slot])[static_cast<size_t>(expr.group_col)];
  }
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return expr.literal;
    case Expr::Kind::kColumnRef: {
      if (expr.ref_id < 0 ||
          static_cast<size_t>(expr.ref_id) >= frame.size()) {
        return Status::Internal("unbound column ref: " + expr.ToString());
      }
      const Row* row = frame[static_cast<size_t>(expr.ref_id)];
      if (row == nullptr) return Value::Null();  // NULL-extended / no scope
      return (*row)[static_cast<size_t>(expr.column_idx)];
    }
    case Expr::Kind::kBinary: {
      if (expr.bop == BinaryOp::kAnd) {
        TAURUS_ASSIGN_OR_RETURN(Value l,
                                EvalExpr(*expr.children[0], frame, ctx));
        if (!l.is_null() && !l.IsTrue()) return Value::Bool(false);
        TAURUS_ASSIGN_OR_RETURN(Value r,
                                EvalExpr(*expr.children[1], frame, ctx));
        if (!r.is_null() && !r.IsTrue()) return Value::Bool(false);
        if (l.is_null() || r.is_null()) return Value::Null();
        return Value::Bool(true);
      }
      if (expr.bop == BinaryOp::kOr) {
        TAURUS_ASSIGN_OR_RETURN(Value l,
                                EvalExpr(*expr.children[0], frame, ctx));
        if (!l.is_null() && l.IsTrue()) return Value::Bool(true);
        TAURUS_ASSIGN_OR_RETURN(Value r,
                                EvalExpr(*expr.children[1], frame, ctx));
        if (!r.is_null() && r.IsTrue()) return Value::Bool(true);
        if (l.is_null() || r.is_null()) return Value::Null();
        return Value::Bool(false);
      }
      TAURUS_ASSIGN_OR_RETURN(Value l,
                              EvalExpr(*expr.children[0], frame, ctx));
      TAURUS_ASSIGN_OR_RETURN(Value r,
                              EvalExpr(*expr.children[1], frame, ctx));
      if (IsComparisonOp(expr.bop)) return EvalComparison(expr.bop, l, r);
      return EvalArithmetic(expr.bop, l, r);
    }
    case Expr::Kind::kUnary: {
      TAURUS_ASSIGN_OR_RETURN(Value v,
                              EvalExpr(*expr.children[0], frame, ctx));
      return EvalUnary(expr.uop, v);
    }
    case Expr::Kind::kFuncCall: {
      std::vector<Value> args;
      args.reserve(expr.children.size());
      for (const auto& c : expr.children) {
        TAURUS_ASSIGN_OR_RETURN(Value v, EvalExpr(*c, frame, ctx));
        args.push_back(std::move(v));
      }
      return EvalFunction(expr, std::move(args));
    }
    case Expr::Kind::kAgg:
      return Status::Internal(
          "aggregate evaluated outside aggregation context: " +
          expr.ToString());
    case Expr::Kind::kCase: {
      size_t n = expr.children.size() - (expr.case_has_else ? 1 : 0);
      for (size_t i = 0; i + 1 < n; i += 2) {
        TAURUS_ASSIGN_OR_RETURN(Value cond,
                                EvalExpr(*expr.children[i], frame, ctx));
        if (!cond.is_null() && cond.IsTrue()) {
          return EvalExpr(*expr.children[i + 1], frame, ctx);
        }
      }
      if (expr.case_has_else) {
        return EvalExpr(*expr.children.back(), frame, ctx);
      }
      return Value::Null();
    }
    case Expr::Kind::kInList: {
      TAURUS_ASSIGN_OR_RETURN(Value v,
                              EvalExpr(*expr.children[0], frame, ctx));
      if (v.is_null()) return Value::Null();
      bool saw_null = false;
      for (size_t i = 1; i < expr.children.size(); ++i) {
        TAURUS_ASSIGN_OR_RETURN(Value item,
                                EvalExpr(*expr.children[i], frame, ctx));
        if (item.is_null()) {
          saw_null = true;
          continue;
        }
        if (v == item) {
          return Value::Bool(!expr.negated);
        }
      }
      if (saw_null) return Value::Null();
      return Value::Bool(expr.negated);
    }
    case Expr::Kind::kBetween: {
      TAURUS_ASSIGN_OR_RETURN(Value v,
                              EvalExpr(*expr.children[0], frame, ctx));
      TAURUS_ASSIGN_OR_RETURN(Value lo,
                              EvalExpr(*expr.children[1], frame, ctx));
      TAURUS_ASSIGN_OR_RETURN(Value hi,
                              EvalExpr(*expr.children[2], frame, ctx));
      if (v.is_null() || lo.is_null() || hi.is_null()) return Value::Null();
      bool in = Value::Compare(v, lo) >= 0 && Value::Compare(v, hi) <= 0;
      return Value::Bool(expr.negated ? !in : in);
    }
    case Expr::Kind::kLike: {
      TAURUS_ASSIGN_OR_RETURN(Value v,
                              EvalExpr(*expr.children[0], frame, ctx));
      TAURUS_ASSIGN_OR_RETURN(Value p,
                              EvalExpr(*expr.children[1], frame, ctx));
      return EvalLike(v, p, expr.negated);
    }
    case Expr::Kind::kExists: {
      TAURUS_ASSIGN_OR_RETURN(SubplanResult * res,
                              RunSubplan(expr, frame, ctx));
      bool exists = !res->rows.empty();
      return Value::Bool(expr.negated ? !exists : exists);
    }
    case Expr::Kind::kInSubquery: {
      TAURUS_ASSIGN_OR_RETURN(Value v,
                              EvalExpr(*expr.children[0], frame, ctx));
      TAURUS_ASSIGN_OR_RETURN(SubplanResult * res,
                              RunSubplan(expr, frame, ctx));
      const bool reusable =
          !ctx->query->subplans[static_cast<size_t>(expr.subplan_id)]
               ->correlated;
      return ProbeInSubquery(v, res, reusable, expr.negated);
    }
    case Expr::Kind::kScalarSubquery: {
      TAURUS_ASSIGN_OR_RETURN(SubplanResult * res,
                              RunSubplan(expr, frame, ctx));
      const std::vector<Row>& rows = res->rows;
      if (rows.empty()) return Value::Null();
      if (rows.size() > 1) {
        return Status::ExecutionError("scalar subquery returned >1 row");
      }
      return rows[0][0];
    }
    case Expr::Kind::kCast: {
      TAURUS_ASSIGN_OR_RETURN(Value v,
                              EvalExpr(*expr.children[0], frame, ctx));
      return EvalCast(v, expr.cast_type);
    }
    case Expr::Kind::kIntervalAdd: {
      TAURUS_ASSIGN_OR_RETURN(Value v,
                              EvalExpr(*expr.children[0], frame, ctx));
      return EvalIntervalAdd(expr, v);
    }
  }
  return Status::Internal("unreachable expr kind in eval");
}

Result<bool> EvalPredicate(const Expr& expr, const Frame& frame,
                           ExecContext* ctx) {
  TAURUS_ASSIGN_OR_RETURN(Value v, EvalExpr(expr, frame, ctx));
  return !v.is_null() && v.IsTrue();
}

Result<bool> EvalConjuncts(const std::vector<const Expr*>& conds,
                           const Frame& frame, ExecContext* ctx) {
  for (const Expr* cond : conds) {
    TAURUS_ASSIGN_OR_RETURN(bool ok, EvalPredicate(*cond, frame, ctx));
    if (!ok) return false;
  }
  return true;
}

bool IsConstExpr(const Expr& expr) {
  switch (expr.kind) {
    case Expr::Kind::kColumnRef:
    case Expr::Kind::kAgg:
    case Expr::Kind::kExists:
    case Expr::Kind::kInSubquery:
    case Expr::Kind::kScalarSubquery:
      return false;
    default:
      break;
  }
  for (const auto& c : expr.children) {
    if (!IsConstExpr(*c)) return false;
  }
  return true;
}

Result<Value> EvalConstExpr(const Expr& expr) {
  if (!IsConstExpr(expr)) {
    return Status::NotSupported("not a constant expression");
  }
  Frame empty;
  return EvalExpr(expr, empty, nullptr);
}

}  // namespace taurus
