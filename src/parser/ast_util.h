#ifndef TAURUS_PARSER_AST_UTIL_H_
#define TAURUS_PARSER_AST_UTIL_H_

#include <vector>

#include "parser/ast.h"

namespace taurus {

/// Structural equality of two (bound) expressions; used to match GROUP BY
/// expressions and aggregates in post-aggregation contexts, and for plan
/// invariants. Subquery expressions never compare equal.
bool ExprEquals(const Expr& a, const Expr& b);

/// Non-owning view of a `bool(int ref_id)` callable. Copying it never
/// allocates, so hot loops can pass predicates through freely; the callable
/// must outlive the view.
class RefPredicate {
 public:
  template <typename Fn>
  RefPredicate(const Fn& fn)  // NOLINT(google-explicit-constructor)
      : fn_(&fn), call_([](const void* f, int ref_id) {
          return (*static_cast<const Fn*>(f))(ref_id);
        }) {}
  bool operator()(int ref_id) const { return call_(fn_, ref_id); }

 private:
  const void* fn_;
  bool (*call_)(const void*, int);
};

/// True when `pred` holds for every leaf referenced by `expr`, including
/// correlated references made from inside subqueries. Stops at the first
/// failure and never allocates.
bool AllReferencedRefs(const Expr& expr, RefPredicate pred);

/// Marks in `refs` (indexed by ref_id) every leaf referenced by `expr`,
/// including correlated references made from inside subqueries.
void CollectReferencedRefs(const Expr& expr, std::vector<bool>* refs);

/// True if `expr` contains an aggregate function call outside of subqueries.
bool ContainsAggregate(const Expr& expr);

/// True if `expr` contains a subquery (EXISTS/IN/scalar) anywhere.
bool ContainsSubquery(const Expr& expr);

/// Splits a predicate into its top-level AND conjuncts (borrowed pointers).
void SplitConjuncts(const Expr* pred, std::vector<const Expr*>* out);
void SplitConjunctsMutable(Expr* pred, std::vector<Expr*>* out);

}  // namespace taurus

#endif  // TAURUS_PARSER_AST_UTIL_H_
