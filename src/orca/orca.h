#ifndef TAURUS_ORCA_ORCA_H_
#define TAURUS_ORCA_ORCA_H_

#include "myopt/cost_params.h"

namespace taurus {

/// Join-enumeration strategies, mirroring gporca's settings the paper
/// evaluates (Section 6.3): GREEDY orders joins like MySQL (but with
/// cost-based method choice); EXHAUSTIVE runs dynamic programming over
/// linear (one-new-unit-at-a-time) join trees; EXHAUSTIVE2 — "the most
/// thorough setting" — enumerates bushy partitions as well.
enum class JoinSearchStrategy { kGreedy, kExhaustive, kExhaustive2 };

const char* JoinSearchStrategyName(JoinSearchStrategy s);

/// Orca optimizer configuration. The defaults model the paper's setup:
/// EXHAUSTIVE2, OR-refactoring on, bushy plans on, eager aggregation
/// pushdown *off* (MySQL cannot execute GROUP BY below join — Section 7
/// Orca-change item 5), multi-table semi-join build sides off (item 6),
/// and single-node mode on (item 7).
struct OrcaConfig {
  JoinSearchStrategy strategy = JoinSearchStrategy::kExhaustive2;

  /// Factor common conjuncts out of OR ("(a AND x) OR (a AND y)" ->
  /// "a AND (x OR y)"), enabling hash joins and cheaper evaluation —
  /// the TPC-DS Q41 rewrite (Section 6.2).
  bool enable_or_factoring = true;

  /// Allow bushy join trees (EXHAUSTIVE2 only has an effect when on).
  bool enable_bushy = true;

  /// Consider index-nested-loop joins (index lookup on the inner side).
  bool enable_index_nlj = true;

  /// Flip Orca's inner-hash-join children for the MySQL executor's
  /// build-side convention (Section 7 item 2). Disabling this models the
  /// bug the paper found — build sides land on the wrong input.
  bool flip_inner_hash_build = true;

  /// Section 4.2.3: convert correlated scalar-aggregate subqueries to
  /// grouped derived tables ("Orca might produce a non-correlated
  /// execution plan for a correlated subquery, requiring the derived
  /// table approach") — the Q17 `derived_1_2` conversion.
  bool enable_decorrelation = true;

  /// Budget on (left, right) partition pairs evaluated during DP before
  /// the search degrades to greedy completion — Orca's own enumeration
  /// caps, which keep 18-way-join CTE queries (TPC-DS Q64) finite.
  int64_t exhaustive_pair_budget = 200000;
  int64_t exhaustive2_pair_budget = 2000000;

  /// Cost model. Orca's defaults carry the relatively high index-lookup
  /// and hash-join constants the paper calls out as needing tuning
  /// (Section 9); the ablation bench sweeps them.
  CostParams cost = OrcaDefaultCost();

  static CostParams OrcaDefaultCost() {
    CostParams p;
    p.index_descend = 10.0;
    p.index_row = 1.8;
    p.hash_build = 2.0;
    p.hash_probe = 1.2;
    return p;
  }
};

}  // namespace taurus

#endif  // TAURUS_ORCA_ORCA_H_
