#ifndef TAURUS_ORCA_PHYSICAL_H_
#define TAURUS_ORCA_PHYSICAL_H_

#include <memory>
#include <string>
#include <vector>

#include "parser/ast.h"

namespace taurus {

/// Orca physical operator tree, the optimizer's output (Section 4.2). The
/// table-descriptor back-pointers (TableRef* == the TABLE_LIST links) are
/// carried through from the logical Gets, which is what makes the plan
/// converter's query-block discovery cheap and reliable (Section 4.1).
struct OrcaPhysicalOp {
  enum class Kind {
    kTableScan,
    kIndexRangeScan,
    kIndexLookup,  ///< inner side of an index nested-loop join
    kNLJoin,
    kHashJoin,
  };

  Kind kind = Kind::kTableScan;

  // Scans.
  TableRef* leaf = nullptr;
  int index_id = -1;
  std::vector<Expr*> filters;  ///< pushed-down local conjuncts

  // Joins: children[0] = outer/probe, children[1] = inner/build (Orca's
  // convention: build side on the right).
  JoinType join_type = JoinType::kInner;
  std::vector<Expr*> conds;
  std::vector<std::unique_ptr<OrcaPhysicalOp>> children;

  double rows = 0.0;
  double cost = 0.0;
  /// Memo group this operator was extracted from (the numbers shown after
  /// operator names in the paper's Fig. 6).
  int memo_group = -1;

  std::string ToString(int indent = 0) const;
};

}  // namespace taurus

#endif  // TAURUS_ORCA_PHYSICAL_H_
