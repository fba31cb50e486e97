#include "orca/optimizer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <unordered_map>

#include "common/fault_injector.h"
#include "myopt/access_path.h"
#include "parser/ast_util.h"

namespace taurus {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Collects base/derived leaves under a logical subtree.
void CollectGetLeaves(const OrcaLogicalOp* op, std::vector<TableRef*>* out) {
  if (op->kind == OrcaLogicalOp::Kind::kGet) {
    out->push_back(op->leaf);
    return;
  }
  for (const auto& c : op->children) CollectGetLeaves(c.get(), out);
}

/// A join conjunct with the units it references and whether it is a
/// column equality between two tables (a hash-join key). Both are fixed
/// before the search starts, so the search never re-walks an expression.
struct Conjunct {
  Expr* expr = nullptr;
  uint64_t units = 0;
  bool equality = false;
};

/// One reorderable element of the flattened join tree.
struct Unit {
  OrcaLogicalOp* op = nullptr;   ///< Get, or subtree root for composites
  TableRef* leaf = nullptr;      ///< set for simple (Get) units
  std::vector<Expr*> local_conds;
  JoinType join_type = JoinType::kInner;
  uint64_t dependency = 0;
  std::vector<Conjunct> join_conds;  ///< ON conjuncts of a dependent unit

  double rows = 1.0;             ///< after local conjuncts
  double base_rows = 1.0;        ///< before local conjuncts
  double access_cost = 0.0;      ///< best standalone access cost
  /// Where `rows` came from (harvested actual when feedback overrode it).
  CardSource card_source = CardSource::kHistogram;
  AccessMethod access = AccessMethod::kTableScan;
  int access_index = -1;
  /// IndexProbeCost of one lookup per index of a base leaf's table (0 for
  /// an index without key columns); empty when index NLJs are off.
  std::vector<double> probe_cost;
  std::unique_ptr<OrcaPhysicalOp> composite_plan;  ///< for composite units
};

/// Best physical alternative memoized per unit subset (a memo group).
struct GroupState {
  int id = -1;
  double rows = -1.0;
  double cost = kInf;
  bool done = false;
  bool is_leaf = false;
  int leaf_unit = -1;
  // Join spec.
  uint64_t left = 0;
  uint64_t right = 0;
  OrcaPhysicalOp::Kind impl = OrcaPhysicalOp::Kind::kHashJoin;
  JoinType join_type = JoinType::kInner;
  int inner_index = -1;  ///< index for index-NLJ lookups on the right leaf
  /// Total lookup work charged for the inner side of an index NLJ (what the
  /// extracted IndexLookup node reports as its cumulative cost — the unit's
  /// standalone access cost is not on the join's cost scale).
  double inner_lookup_cost = 0.0;
};

class JoinSearch {
 public:
  JoinSearch(const OrcaConfig& config, StatsProvider* stats, int num_refs,
             int64_t* partitions, int* groups,
             ResourceGovernor* governor = nullptr,
             const FeedbackSnapshot* feedback = nullptr,
             int64_t* actual_overrides = nullptr,
             int64_t* sketch_overrides = nullptr)
      : config_(config),
        stats_(stats),
        num_refs_(num_refs),
        unit_of_ref_(static_cast<size_t>(num_refs), -1),
        partitions_(partitions),
        groups_(groups),
        governor_(governor),
        feedback_(feedback),
        actual_overrides_(actual_overrides),
        sketch_overrides_(sketch_overrides) {}

  Status Flatten(OrcaLogicalOp* root);
  Result<std::unique_ptr<OrcaPhysicalOp>> Run();

 private:
  Status FlattenInto(OrcaLogicalOp* op, uint64_t* added,
                     std::vector<Expr*> pending_conds);
  Status AddUnit(OrcaLogicalOp* op, JoinType type, uint64_t dependency,
                 std::vector<Expr*> join_conds,
                 std::vector<Expr*> local_conds, uint64_t* added);
  Status SetupUnit(Unit* unit);

  uint64_t UnitMask(const Expr& e) const;
  /// The unit holding leaf `ref_id`, or -1 for refs outside this search.
  int UnitOfRef(int ref_id) const {
    return static_cast<size_t>(ref_id) < unit_of_ref_.size()
               ? unit_of_ref_[static_cast<size_t>(ref_id)]
               : -1;
  }
  /// Fixes the conjunct facts the search reads on every pair: equality
  /// flags, ON-conjunct unit masks, the mask of dependent units and the
  /// join graph.
  void PrepareConjuncts();
  /// The units of `within` reachable from `seed` (inside `within`) over
  /// the join graph, using only edges that lie wholly inside `within`.
  uint64_t Reach(uint64_t seed, uint64_t within) const;
  /// True when the join graph restricted to `set` is connected, so `set`
  /// can be planned without a cross product at its root.
  bool GraphConnected(uint64_t set) const {
    return Reach(set & (~set + 1), set) == set;
  }
  /// Sets `cuts` to every `a` holding the lowest unit of `set` such that
  /// `a` and the non-empty `set \ a` are both GraphConnected, in
  /// descending order. `set` must be GraphConnected. Stops and returns
  /// false once there are more than `max_cuts`.
  bool EnumerateCuts(uint64_t set, size_t max_cuts,
                     std::vector<uint64_t>* cuts) const;
  /// EnumerateCuts from a state: `a` holds the lowest unit and is
  /// connected in `neighbors_`; `excluded` stays outside every cut emitted.
  /// Nothing is emitted once `cuts` holds `limit` entries.
  void ExpandCut(uint64_t set, uint64_t a, uint64_t excluded, size_t limit,
                 std::vector<uint64_t>* cuts) const;
  /// Emits `a` (whose complement is connected), then grows it.
  void GrowCut(uint64_t set, uint64_t a, uint64_t excluded, size_t limit,
               std::vector<uint64_t>* cuts) const;
  /// True when every dependent (non-inner) unit in `set` has its whole
  /// dependency inside `set`.
  bool Resolved(uint64_t set) const;
  bool Admissible(uint64_t set) const;
  /// Calls `fn(conjunct)` on every conjunct joining A to B until `fn`
  /// returns false; returns false iff `fn` stopped the walk. The order is
  /// fixed (pool conjuncts, then the ON conjuncts of a dependent unit that
  /// is all of B), so products over it are reproducible.
  template <typename Fn>
  bool ForEachCrossCond(uint64_t a, uint64_t b, Fn&& fn) const;
  bool Connected(uint64_t a, uint64_t b) const;
  std::vector<Expr*> CrossConds(uint64_t a, uint64_t b) const;
  double CrossSelectivity(uint64_t a, uint64_t b) const;
  double Selectivity(const Conjunct& c) const;
  double Rows(uint64_t set);
  /// Harvested actual output rows of this exact unit subset, or nullptr.
  const double* ActualRows(uint64_t set) const;
  /// Canonical feedback key for a unit subset: the sorted ref_ids of every
  /// leaf it covers (composite units contribute all their Get leaves).
  std::string SetKey(uint64_t set) const;
  /// Fast-AGMS join-size estimate for a two-leaf inner-join set, or -1
  /// when the set has no single-column equi-join with sketches on both
  /// sides (DESIGN.md section 11).
  double SketchJoinRows(uint64_t set) const;
  CardSource SourceOf(uint64_t set) const;
  GroupState& GroupOf(uint64_t set);
  /// Plans `set` (once; later calls return the memoized group).
  Result<GroupState*> OptimizeSet(uint64_t set);
  Status TryPartition(uint64_t set, uint64_t a, uint64_t b, GroupState* g,
                      bool allow_cross);
  Status GreedyPlan(uint64_t set);
  std::unique_ptr<OrcaPhysicalOp> Extract(uint64_t set);
  std::unique_ptr<OrcaPhysicalOp> BuildLeafPlan(int unit_idx,
                                                bool as_lookup,
                                                int lookup_index);

  const OrcaConfig& config_;
  StatsProvider* stats_;
  int num_refs_;
  std::vector<int> unit_of_ref_;  ///< ref_id -> unit, -1 outside
  int64_t* partitions_;
  int* groups_;
  ResourceGovernor* governor_;
  const FeedbackSnapshot* feedback_;
  int64_t* actual_overrides_;
  int64_t* sketch_overrides_;

  /// Estimated output rows of a unit subset and where they came from.
  /// Kept apart from memo_: estimating a set creates no memo group.
  struct Card {
    double rows = 1.0;
    CardSource source = CardSource::kHistogram;
  };

  std::vector<Unit> units_;
  std::vector<Conjunct> pool_;
  uint64_t non_inner_ = 0;  ///< units with a non-inner join type
  /// The join graph. Every conjunct (a dependent unit's ON conjunct also
  /// counts that unit) is an edge over its units: a binary one is a link,
  /// a wider one a hyperedge, which joins its units only when all of them
  /// are present. `neighbors_` treats hyperedges as cliques, a superset of
  /// the graph that the cut enumeration grows along.
  std::vector<uint64_t> links_;
  std::vector<uint64_t> hyperedges_;
  std::vector<uint64_t> neighbors_;
  std::unordered_map<uint64_t, GroupState> memo_;
  std::unordered_map<uint64_t, Card> cards_;
  int64_t budget_ = 0;
  bool budget_exhausted_ = false;
};

Status JoinSearch::AddUnit(OrcaLogicalOp* op, JoinType type,
                           uint64_t dependency,
                           std::vector<Expr*> join_conds,
                           std::vector<Expr*> local_conds, uint64_t* added) {
  if (units_.size() >= 64) {
    return Status::NotSupported("more than 64 join units in one block");
  }
  int idx = static_cast<int>(units_.size());
  Unit u;
  u.op = op;
  if (op->kind == OrcaLogicalOp::Kind::kGet) u.leaf = op->leaf;
  u.join_type = type;
  u.dependency = dependency;
  for (Expr* c : join_conds) u.join_conds.push_back(Conjunct{c});
  u.local_conds = std::move(local_conds);
  std::vector<TableRef*> leaves;
  CollectGetLeaves(op, &leaves);
  for (TableRef* leaf : leaves) {
    unit_of_ref_[static_cast<size_t>(leaf->ref_id)] = idx;
  }
  units_.push_back(std::move(u));
  *added |= 1ULL << idx;
  return Status::OK();
}

Status JoinSearch::FlattenInto(OrcaLogicalOp* op, uint64_t* added,
                               std::vector<Expr*> pending_conds) {
  switch (op->kind) {
    case OrcaLogicalOp::Kind::kGet:
      return AddUnit(op, JoinType::kInner, 0, {}, std::move(pending_conds),
                     added);
    case OrcaLogicalOp::Kind::kSelect: {
      // Selection directly over a Get: local conjuncts. Over anything
      // else: hand the conjuncts to the pool via pending for the child.
      std::vector<Expr*> conds = pending_conds;
      conds.insert(conds.end(), op->conds.begin(), op->conds.end());
      OrcaLogicalOp* child = op->children[0].get();
      if (child->kind == OrcaLogicalOp::Kind::kGet) {
        return AddUnit(child, JoinType::kInner, 0, {}, std::move(conds),
                       added);
      }
      TAURUS_RETURN_IF_ERROR(FlattenInto(child, added, {}));
      for (Expr* c : conds) pool_.push_back(Conjunct{c});
      return Status::OK();
    }
    case OrcaLogicalOp::Kind::kJoin: {
      if (op->join_type == JoinType::kInner ||
          op->join_type == JoinType::kCross) {
        TAURUS_RETURN_IF_ERROR(FlattenInto(op->children[0].get(), added, {}));
        TAURUS_RETURN_IF_ERROR(FlattenInto(op->children[1].get(), added, {}));
        for (Expr* c : op->conds) pool_.push_back(Conjunct{c});
        for (Expr* c : pending_conds) pool_.push_back(Conjunct{c});
        return Status::OK();
      }
      uint64_t left_mask = 0;
      TAURUS_RETURN_IF_ERROR(
          FlattenInto(op->children[0].get(), &left_mask, {}));
      *added |= left_mask;
      OrcaLogicalOp* right = op->children[1].get();
      std::vector<Expr*> local;
      if (right->kind == OrcaLogicalOp::Kind::kSelect &&
          right->children[0]->kind == OrcaLogicalOp::Kind::kGet) {
        local = right->conds;
        right = right->children[0].get();
      }
      TAURUS_RETURN_IF_ERROR(AddUnit(right, op->join_type, left_mask,
                                     op->conds, std::move(local), added));
      for (Expr* c : pending_conds) pool_.push_back(Conjunct{c});
      return Status::OK();
    }
  }
  return Status::Internal("unreachable logical kind");
}

uint64_t JoinSearch::UnitMask(const Expr& e) const {
  uint64_t mask = 0;
  AllReferencedRefs(e, [&](int ref_id) {
    int unit = UnitOfRef(ref_id);
    if (unit >= 0) mask |= 1ULL << unit;
    return true;
  });
  return mask;
}

Status JoinSearch::SetupUnit(Unit* unit) {
  if (unit->op->kind == OrcaLogicalOp::Kind::kGet) {
    unit->base_rows = stats_->LeafBaseRows(*unit->leaf);
    double sel = 1.0;
    for (const Expr* c : unit->local_conds) {
      sel *= stats_->ConjunctSelectivity(*c);
    }
    unit->rows = std::max(unit->base_rows * std::clamp(sel, 0.0, 1.0), 1.0);
    // Harvested actual for this (filtered) leaf overrides the histogram
    // estimate — the strongest source in the feedback precedence order.
    if (feedback_ != nullptr) {
      auto fb = feedback_->node_actuals.find(RefSetKey({unit->leaf->ref_id}));
      if (fb != feedback_->node_actuals.end()) {
        unit->rows = std::max(fb->second, 1.0);
        unit->card_source = CardSource::kActual;
        if (actual_overrides_ != nullptr) ++*actual_overrides_;
      }
    }
    // Access choice, cost-based unlike stock MySQL's heuristics.
    LeafAccess access = ChooseLeafAccess(
        *unit->leaf, unit->local_conds, unit->base_rows, *stats_,
        config_.cost, [this](int ref_id) { return UnitOfRef(ref_id) < 0; });
    unit->access = access.method;
    unit->access_index = access.index_id;
    unit->access_cost = access.cost;
    if (config_.enable_index_nlj && unit->leaf->kind == TableRef::Kind::kBase &&
        unit->leaf->table != nullptr) {
      for (const IndexDef& idx : unit->leaf->table->indexes) {
        unit->probe_cost.push_back(
            idx.column_idx.empty()
                ? 0.0
                : IndexProbeCost(*stats_, config_.cost, unit->leaf->ref_id,
                                 idx.column_idx[0], unit->base_rows));
      }
    }
    return Status::OK();
  }
  // Composite unit: optimize its subtree recursively with a fresh search,
  // folding in join-cond pieces that reference only this unit.
  JoinSearch sub(config_, stats_, num_refs_, partitions_, groups_, governor_,
                 feedback_, actual_overrides_, sketch_overrides_);
  TAURUS_RETURN_IF_ERROR(sub.Flatten(unit->op));
  // Restrict join_conds to subtree-only pieces and push them in. Outer-block
  // refs (not any unit) are fine; refs to sibling units of the parent
  // search are not.
  auto subtree_or_outer = [&](int ref_id) {
    return UnitOfRef(ref_id) < 0 || sub.UnitOfRef(ref_id) >= 0;
  };
  for (const Conjunct& jc : unit->join_conds) {
    if (AllReferencedRefs(*jc.expr, subtree_or_outer)) {
      sub.pool_.push_back(Conjunct{jc.expr});
    }
  }
  for (Conjunct& c : sub.pool_) c.units = sub.UnitMask(*c.expr);
  // Fold freshly-added single-unit conjuncts into unit-local conditions.
  {
    std::vector<Conjunct> keep;
    for (Conjunct& c : sub.pool_) {
      if (c.units != 0 && std::popcount(c.units) == 1) {
        int uidx = std::countr_zero(c.units);
        Unit& su = sub.units_[static_cast<size_t>(uidx)];
        bool already = false;
        for (const Expr* lc : su.local_conds) {
          if (lc == c.expr) already = true;
        }
        if (!already) su.local_conds.push_back(c.expr);
      } else {
        keep.push_back(c);
      }
    }
    sub.pool_ = std::move(keep);
  }
  TAURUS_ASSIGN_OR_RETURN(unit->composite_plan, sub.Run());
  unit->rows = std::max(unit->composite_plan->rows, 1.0);
  unit->base_rows = unit->rows;
  unit->access_cost = unit->composite_plan->cost;
  unit->card_source = unit->composite_plan->card_source;
  return Status::OK();
}

Status JoinSearch::Flatten(OrcaLogicalOp* root) {
  uint64_t added = 0;
  TAURUS_RETURN_IF_ERROR(FlattenInto(root, &added, {}));
  for (Conjunct& c : pool_) c.units = UnitMask(*c.expr);
  // Single-unit pool conjuncts fold into that unit's local conditions.
  std::vector<Conjunct> keep;
  for (Conjunct& c : pool_) {
    if (c.units != 0 && std::popcount(c.units) == 1) {
      int u = std::countr_zero(c.units);
      units_[static_cast<size_t>(u)].local_conds.push_back(c.expr);
    } else {
      keep.push_back(c);
    }
  }
  pool_ = std::move(keep);
  return Status::OK();
}

void JoinSearch::PrepareConjuncts() {
  links_.assign(units_.size(), 0);
  neighbors_.assign(units_.size(), 0);
  auto add_edge = [&](uint64_t units) {
    if (std::popcount(units) < 2) return;
    const bool binary = std::popcount(units) == 2;
    for (uint64_t m = units; m != 0; m &= m - 1) {
      const uint64_t others = units & ~(m & (~m + 1));
      neighbors_[static_cast<size_t>(std::countr_zero(m))] |= others;
      if (binary) links_[static_cast<size_t>(std::countr_zero(m))] |= others;
    }
    if (!binary && std::find(hyperedges_.begin(), hyperedges_.end(),
                             units) == hyperedges_.end()) {
      hyperedges_.push_back(units);
    }
  };
  for (Conjunct& c : pool_) {
    c.equality = StatsProvider::IsColumnEquality(*c.expr);
    add_edge(c.units);
  }
  for (size_t u = 0; u < units_.size(); ++u) {
    if (units_[u].join_type == JoinType::kInner) continue;
    const uint64_t bit = 1ULL << u;
    non_inner_ |= bit;
    for (Conjunct& c : units_[u].join_conds) {
      c.units = UnitMask(*c.expr);
      c.equality = StatsProvider::IsColumnEquality(*c.expr);
      add_edge(c.units | bit);
    }
  }
}

uint64_t JoinSearch::Reach(uint64_t seed, uint64_t within) const {
  uint64_t reached = seed;
  for (uint64_t frontier = seed; frontier != 0;) {
    uint64_t next = 0;
    for (uint64_t m = frontier; m != 0; m &= m - 1) {
      next |= links_[static_cast<size_t>(std::countr_zero(m))];
    }
    for (uint64_t e : hyperedges_) {
      if ((e & ~within) == 0 && (e & frontier) != 0) next |= e;
    }
    frontier = next & within & ~reached;
    reached |= frontier;
  }
  return reached;
}

// Top-down generation of connected-subgraph/complement pairs, after
// MinCutConservative (Fender & Moerkotte, ICDE 2011). Every `a` holding
// the lowest unit and connected in `neighbors_` is reached once, by adding
// one neighbour at a time under an exclusion set, as in DPccp's
// EnumerateCsgRec (Moerkotte & Neumann, VLDB 2006). When `set \ a` falls
// apart, a cut with a connected complement must swallow all of its
// components but one, so the search jumps there instead of walking the
// supersets in between. Without hyperedges every visited state emits a
// cut and has at most |set| children, each checked in O(|set|) steps.
bool JoinSearch::EnumerateCuts(uint64_t set, size_t max_cuts,
                               std::vector<uint64_t>* cuts) const {
  cuts->clear();
  ExpandCut(set, set & (~set + 1), 0, max_cuts + 1, cuts);
  if (cuts->size() > max_cuts) return false;
  std::sort(cuts->begin(), cuts->end(), std::greater<>());
  return true;
}

void JoinSearch::ExpandCut(uint64_t set, uint64_t a, uint64_t excluded,
                           size_t limit, std::vector<uint64_t>* cuts) const {
  const uint64_t rest = set & ~a;
  uint64_t component = Reach(rest & (~rest + 1), rest);
  if (component == rest) {
    GrowCut(set, a, excluded, limit, cuts);
    return;
  }
  // Keep one component as the complement. The excluded units have to end
  // up in it, so it is the one holding them when there are any.
  for (uint64_t left = rest;;) {
    if ((excluded & ~component) == 0) {
      GrowCut(set, set & ~component, excluded, limit, cuts);
    }
    left &= ~component;
    if (left == 0) return;
    component = Reach(left & (~left + 1), rest);
  }
}

void JoinSearch::GrowCut(uint64_t set, uint64_t a, uint64_t excluded,
                         size_t limit, std::vector<uint64_t>* cuts) const {
  if (cuts->size() >= limit) return;
  // `neighbors_` also links the units of a hyperedge only partly in `a`.
  if (hyperedges_.empty() || GraphConnected(a)) cuts->push_back(a);
  uint64_t frontier = 0;
  for (uint64_t m = a; m != 0; m &= m - 1) {
    frontier |= neighbors_[static_cast<size_t>(std::countr_zero(m))];
  }
  frontier &= set & ~a & ~excluded;
  for (uint64_t m = frontier; m != 0; m &= m - 1) {
    const uint64_t v = m & (~m + 1);
    if ((a | v) != set) ExpandCut(set, a | v, excluded, limit, cuts);
    excluded |= v;
  }
}

bool JoinSearch::Resolved(uint64_t set) const {
  for (uint64_t m = set & non_inner_; m != 0; m &= m - 1) {
    if ((units_[static_cast<size_t>(std::countr_zero(m))].dependency &
         ~set) != 0) {
      return false;
    }
  }
  return true;
}

bool JoinSearch::Admissible(uint64_t set) const {
  return std::has_single_bit(set) || Resolved(set);
}

template <typename Fn>
bool JoinSearch::ForEachCrossCond(uint64_t a, uint64_t b, Fn&& fn) const {
  const uint64_t both = a | b;
  for (const Conjunct& c : pool_) {
    if ((c.units & ~both) != 0) continue;
    if ((c.units & a) == 0 || (c.units & b) == 0) continue;
    if (!fn(c)) return false;
  }
  // Dependent unit joined as the whole right side contributes its ON.
  if (std::has_single_bit(b) && (b & non_inner_) != 0) {
    for (const Conjunct& c :
         units_[static_cast<size_t>(std::countr_zero(b))].join_conds) {
      if (c.units == b) continue;  // folded into the unit already
      if (!fn(c)) return false;
    }
  }
  return true;
}

bool JoinSearch::Connected(uint64_t a, uint64_t b) const {
  return !ForEachCrossCond(a, b, [](const Conjunct&) { return false; });
}

std::vector<Expr*> JoinSearch::CrossConds(uint64_t a, uint64_t b) const {
  std::vector<Expr*> out;
  ForEachCrossCond(a, b, [&](const Conjunct& c) {
    out.push_back(c.expr);
    return true;
  });
  return out;
}

double JoinSearch::Selectivity(const Conjunct& c) const {
  return c.equality ? stats_->EqJoinSelectivity(*c.expr)
                    : stats_->ConjunctSelectivity(*c.expr);
}

double JoinSearch::CrossSelectivity(uint64_t a, uint64_t b) const {
  double sel = 1.0;
  ForEachCrossCond(a, b, [&](const Conjunct& c) {
    sel *= Selectivity(c);
    return true;
  });
  return std::clamp(sel, 0.0, 1.0);
}

std::string JoinSearch::SetKey(uint64_t set) const {
  std::vector<int> refs;
  for (size_t u = 0; u < units_.size(); ++u) {
    if ((set & (1ULL << u)) == 0) continue;
    if (units_[u].leaf != nullptr) {
      refs.push_back(units_[u].leaf->ref_id);
    } else {
      std::vector<TableRef*> leaves;
      CollectGetLeaves(units_[u].op, &leaves);
      for (const TableRef* leaf : leaves) refs.push_back(leaf->ref_id);
    }
  }
  return RefSetKey(std::move(refs));
}

double JoinSearch::SketchJoinRows(uint64_t set) const {
  if (feedback_ == nullptr || feedback_->sketches.empty()) return -1.0;
  if (std::popcount(set) != 2) return -1.0;
  int ua = std::countr_zero(set);
  int ub = std::countr_zero(set & (set - 1));
  const Unit& a = units_[static_cast<size_t>(ua)];
  const Unit& b = units_[static_cast<size_t>(ub)];
  if (a.leaf == nullptr || b.leaf == nullptr) return -1.0;
  if (a.join_type != JoinType::kInner || b.join_type != JoinType::kInner) {
    return -1.0;
  }
  // The sketches describe single join-key columns, so the set must be
  // joined by exactly one single-column equality (other non-equality
  // conjuncts are applied by the caller as selectivities).
  const Expr* eq = nullptr;
  double other_sel = 1.0;
  for (const Conjunct& c : pool_) {
    if (c.units == 0 || (c.units & ~set) != 0) continue;
    if (std::popcount(c.units) < 2) continue;
    if (c.equality) {
      if (eq != nullptr) return -1.0;  // multi-column join key
      eq = c.expr;
    } else {
      other_sel *= stats_->ConjunctSelectivity(*c.expr);
    }
  }
  if (eq == nullptr) return -1.0;
  const Expr& l = *eq->children[0];
  const Expr& r = *eq->children[1];
  if (l.kind != Expr::Kind::kColumnRef || r.kind != Expr::Kind::kColumnRef) {
    return -1.0;
  }
  auto find_sketch = [&](const Expr& col) -> const AgmsSketch* {
    if (col.ref_id != a.leaf->ref_id && col.ref_id != b.leaf->ref_id) {
      return nullptr;
    }
    auto it = feedback_->sketches.find(
        SketchSet::StreamKey(col.ref_id, col.column_idx));
    return it != feedback_->sketches.end() ? it->second.get() : nullptr;
  };
  const AgmsSketch* sl = find_sketch(l);
  const AgmsSketch* sr = find_sketch(r);
  if (sl == nullptr || sr == nullptr || sl == sr) return -1.0;
  return std::max(sl->JoinSizeEstimate(*sr), 1.0) *
         std::clamp(other_sel, 0.0, 1.0);
}

CardSource JoinSearch::SourceOf(uint64_t set) const {
  auto it = cards_.find(set);
  return it != cards_.end() ? it->second.source : CardSource::kHistogram;
}

const double* JoinSearch::ActualRows(uint64_t set) const {
  if (feedback_ == nullptr) return nullptr;
  auto it = feedback_->node_actuals.find(SetKey(set));
  return it != feedback_->node_actuals.end() ? &it->second : nullptr;
}

double JoinSearch::Rows(uint64_t set) {
  auto it = cards_.find(set);
  if (it != cards_.end()) return it->second.rows;
  double rows;
  CardSource source = CardSource::kHistogram;
  if (std::has_single_bit(set)) {
    const Unit& u = units_[static_cast<size_t>(std::countr_zero(set))];
    rows = u.rows;
    source = u.card_source;
  } else if (const double* actual = ActualRows(set)) {
    // A prior execution measured this exact sub-join: its actual output
    // cardinality beats any estimate.
    rows = std::max(*actual, 1.0);
    source = CardSource::kActual;
    if (actual_overrides_ != nullptr) ++*actual_overrides_;
  } else {
    // Canonical decomposition: peel the highest dependent unit whose
    // dependency is satisfied; otherwise all-inner product formula.
    int dependent = -1;
    for (uint64_t m = set & non_inner_; m != 0;) {
      int u = 63 - std::countl_zero(m);
      uint64_t bit = 1ULL << u;
      if ((units_[static_cast<size_t>(u)].dependency & ~(set & ~bit)) == 0) {
        dependent = u;
        break;
      }
      m &= ~bit;
    }
    if (dependent >= 0) {
      uint64_t bit = 1ULL << dependent;
      const Unit& u = units_[static_cast<size_t>(dependent)];
      double base = Rows(set & ~bit);
      double sel = CrossSelectivity(set & ~bit, bit);
      double inner_est = base * u.rows * sel;
      switch (u.join_type) {
        case JoinType::kSemi:
          rows = std::min(base, std::max(inner_est, 1.0));
          break;
        case JoinType::kAntiSemi:
          rows = std::max(base - std::min(base, inner_est), 1.0);
          break;
        case JoinType::kLeft:
          rows = std::max(inner_est, base);
          break;
        default:
          rows = inner_est;
          break;
      }
    } else {
      // Second preference: a Fast-AGMS join-size estimate for a two-leaf
      // equi-join whose key streams were sketched during a prior
      // execution; histogram product formula otherwise.
      double sketch_rows = SketchJoinRows(set);
      if (sketch_rows >= 0.0) {
        rows = sketch_rows;
        source = CardSource::kSketch;
        if (sketch_overrides_ != nullptr) ++*sketch_overrides_;
      } else {
        rows = 1.0;
        for (uint64_t m = set; m != 0; m &= m - 1) {
          rows *= units_[static_cast<size_t>(std::countr_zero(m))].rows;
        }
        for (const Conjunct& c : pool_) {
          if (c.units == 0 || (c.units & ~set) != 0) continue;
          if (std::popcount(c.units) < 2) continue;
          rows *= Selectivity(c);
        }
      }
    }
  }
  rows = std::max(rows, 1.0);
  cards_.emplace(set, Card{rows, source});
  return rows;
}

GroupState& JoinSearch::GroupOf(uint64_t set) {
  auto [it, inserted] = memo_.try_emplace(set);
  if (inserted) {
    it->second.id = (*groups_)++;
  }
  return it->second;
}

Status JoinSearch::TryPartition(uint64_t set, uint64_t a, uint64_t b,
                                GroupState* g, bool allow_cross) {
  // Dependent units in A must be resolved inside A.
  if (!Resolved(a)) return Status::OK();
  JoinType jt = JoinType::kInner;
  if (std::has_single_bit(b)) {
    // A dependent unit as the whole right side needs its dependency in A;
    // the join takes its type.
    if ((b & non_inner_) != 0) {
      const Unit& u = units_[static_cast<size_t>(std::countr_zero(b))];
      if ((u.dependency & ~a) != 0) return Status::OK();
      jt = u.join_type;
    }
  } else if (!Resolved(b)) {
    // A non-singleton right side must resolve its dependents internally.
    return Status::OK();
  }

  ++(*partitions_);
  ++budget_;
  if (governor_ != nullptr) {
    TAURUS_RETURN_IF_ERROR(governor_->ChargePartitionPair());
  }

  TAURUS_ASSIGN_OR_RETURN(const GroupState* group_a, OptimizeSet(a));
  TAURUS_ASSIGN_OR_RETURN(const GroupState* group_b, OptimizeSet(b));
  const GroupState& ga = *group_a;
  const GroupState& gb = *group_b;
  if (ga.cost == kInf || gb.cost == kInf) return Status::OK();

  bool connected = false;
  bool has_equality = false;
  ForEachCrossCond(a, b, [&](const Conjunct& c) {
    connected = true;
    has_equality = c.equality;
    return !has_equality;
  });
  // Require connectivity for inner joins unless the caller has determined
  // that only cross products remain.
  if (!allow_cross && jt == JoinType::kInner && !connected) {
    return Status::OK();
  }

  double out_rows = Rows(set);
  double rows_a = ga.rows;
  double rows_b = gb.rows;
  const CostParams& cp = config_.cost;

  // Hash join: build on the right (Orca's convention).
  if (has_equality) {
    double cost = ga.cost + gb.cost + rows_b * cp.hash_build +
                  rows_a * cp.hash_probe + out_rows * cp.row_out;
    if (cost < g->cost) {
      g->cost = cost;
      g->is_leaf = false;
      g->left = a;
      g->right = b;
      g->impl = OrcaPhysicalOp::Kind::kHashJoin;
      g->join_type = jt;
      g->inner_index = -1;
    }
  }

  // Index nested-loop join: right side is a single base leaf with an index
  // whose first key column is bound by one of the equalities.
  if (config_.enable_index_nlj && std::popcount(b) == 1) {
    const Unit& u = units_[static_cast<size_t>(std::countr_zero(b))];
    if (u.leaf != nullptr && u.leaf->kind == TableRef::Kind::kBase &&
        u.leaf->table != nullptr) {
      // The key may read units of A and refs outside this search.
      auto available = [&](int ref_id) {
        int unit = UnitOfRef(ref_id);
        return unit < 0 || (a & (1ULL << unit)) != 0;
      };
      for (size_t i = 0; i < u.leaf->table->indexes.size(); ++i) {
        const IndexDef& idx = u.leaf->table->indexes[i];
        if (idx.column_idx.empty()) continue;
        const bool bound = !ForEachCrossCond(a, b, [&](const Conjunct& c) {
          return KeyBinding(*c.expr, *u.leaf, idx.column_idx[0], available) ==
                 nullptr;
        });
        if (!bound) continue;
        double lookups = rows_a * u.probe_cost[i];
        double cost = ga.cost + lookups + out_rows * cp.row_out;
        if (cost < g->cost) {
          g->cost = cost;
          g->is_leaf = false;
          g->left = a;
          g->right = b;
          g->impl = OrcaPhysicalOp::Kind::kNLJoin;
          g->join_type = jt;
          g->inner_index = static_cast<int>(i);
          g->inner_lookup_cost = lookups;
        }
      }
    }
  }

  // Plain nested-loop join (inner side re-executed per outer row).
  {
    double inner_cost = std::max(gb.cost, 1.0);
    double cost =
        ga.cost + rows_a * inner_cost + out_rows * cp.row_out;
    if (cost < g->cost) {
      g->cost = cost;
      g->is_leaf = false;
      g->left = a;
      g->right = b;
      g->impl = OrcaPhysicalOp::Kind::kNLJoin;
      g->join_type = jt;
      g->inner_index = -1;
    }
  }
  return Status::OK();
}

Result<GroupState*> JoinSearch::OptimizeSet(uint64_t set) {
  TAURUS_FAULT_POINT("orca.memo_explore");
  GroupState& g = GroupOf(set);
  if (governor_ != nullptr) {
    TAURUS_RETURN_IF_ERROR(governor_->ChargeMemoGroups(*groups_));
  }
  if (g.done) return &g;
  g.done = true;  // set first; recursion on subsets only (strictly smaller)
  g.rows = Rows(set);

  if (std::popcount(set) == 1) {
    int u = std::countr_zero(set);
    g.is_leaf = true;
    g.leaf_unit = u;
    g.cost = units_[static_cast<size_t>(u)].access_cost;
    return &g;
  }

  int64_t budget_cap =
      config_.strategy == JoinSearchStrategy::kExhaustive2
          ? config_.exhaustive2_pair_budget
          : config_.exhaustive_pair_budget;
  if (config_.strategy == JoinSearchStrategy::kGreedy ||
      budget_exhausted_ || budget_ > budget_cap) {
    budget_exhausted_ = budget_ > budget_cap || budget_exhausted_;
    TAURUS_RETURN_IF_ERROR(GreedyPlan(set));
    return &g;
  }

  bool bushy = config_.strategy == JoinSearchStrategy::kExhaustive2 &&
               config_.enable_bushy;

  for (int pass = 0; pass < 2 && g.cost == kInf; ++pass) {
    // pass 0: connected partitions only; pass 1: allow cross products.
    // Both visit the cuts `a` holding the lowest unit in descending order
    // and try (a, b) before (b, a), so strict-< ties resolve alike.
    if (bushy && pass == 0) {
      // Only cuts whose two halves are each connected: a disconnected half
      // is a cross product, left to pass 1.
      if (!GraphConnected(set)) continue;
      std::vector<uint64_t> cuts;
      if (!EnumerateCuts(set, static_cast<size_t>(budget_cap - budget_),
                         &cuts)) {
        // More cuts than pairs left in the budget (a dense graph): the set
        // completes greedily, as after the budget runs out, rather than
        // holding every cut.
        budget_exhausted_ = true;
        break;
      }
      for (uint64_t a : cuts) {
        const uint64_t b = set & ~a;
        if (!Connected(a, b)) continue;
        TAURUS_RETURN_IF_ERROR(TryPartition(set, a, b, &g, false));
        TAURUS_RETURN_IF_ERROR(TryPartition(set, b, a, &g, false));
        if (budget_ > budget_cap) break;
      }
    } else if (bushy) {
      uint64_t low = set & (~set + 1);
      for (uint64_t a = (set - 1) & set; a != 0; a = (a - 1) & set) {
        if ((a & low) == 0) continue;
        uint64_t b = set & ~a;
        TAURUS_RETURN_IF_ERROR(TryPartition(set, a, b, &g, true));
        TAURUS_RETURN_IF_ERROR(TryPartition(set, b, a, &g, true));
        if (budget_ > budget_cap) break;
      }
    } else {
      // Linear: the right side is always a single unit.
      for (size_t u = 0; u < units_.size(); ++u) {
        uint64_t bit = 1ULL << u;
        if ((set & bit) == 0) continue;
        uint64_t rest = set & ~bit;
        if (pass == 0 && !Connected(rest, bit)) continue;
        TAURUS_RETURN_IF_ERROR(TryPartition(set, rest, bit, &g, pass == 1));
        // Commuted orientation for inner units (hash-join side choice).
        if (units_[u].join_type == JoinType::kInner) {
          TAURUS_RETURN_IF_ERROR(TryPartition(set, bit, rest, &g, pass == 1));
        }
        if (budget_ > budget_cap) break;
      }
    }
  }
  if (g.cost == kInf) {
    // Dependency structure defeated the enumerator; fall back to greedy.
    g.done = false;
    TAURUS_RETURN_IF_ERROR(GreedyPlan(set));
  }
  return &g;
}

Status JoinSearch::GreedyPlan(uint64_t set) {
  GroupState& g = GroupOf(set);
  if (governor_ != nullptr) {
    TAURUS_RETURN_IF_ERROR(governor_->ChargeMemoGroups(*groups_));
  }
  if (g.done && g.cost < kInf) return Status::OK();
  g.done = true;
  g.rows = Rows(set);
  if (std::popcount(set) == 1) {
    int u = std::countr_zero(set);
    g.is_leaf = true;
    g.leaf_unit = u;
    g.cost = units_[static_cast<size_t>(u)].access_cost;
    return Status::OK();
  }
  // Greedy left-deep: repeatedly find the cheapest last join (b singleton)
  // by recursing greedily on set \ b.
  double best_cost = kInf;
  uint64_t best_b = 0;
  GroupState trial;
  for (size_t u = 0; u < units_.size(); ++u) {
    uint64_t bit = 1ULL << u;
    if ((set & bit) == 0) continue;
    uint64_t rest = set & ~bit;
    if (units_[u].join_type != JoinType::kInner &&
        (units_[u].dependency & ~rest) != 0) {
      continue;
    }
    // Dependents inside rest must stay resolvable.
    if (!Resolved(rest)) continue;
    if (units_[u].join_type == JoinType::kInner && !Connected(rest, bit)) {
      continue;  // avoid cross products while alternatives exist
    }
    GroupState cand;
    cand.cost = kInf;
    TAURUS_RETURN_IF_ERROR(GreedyPlan(rest));
    TAURUS_RETURN_IF_ERROR(OptimizeSet(bit).status());
    TAURUS_RETURN_IF_ERROR(TryPartition(set, rest, bit, &cand, false));
    if (cand.cost < best_cost) {
      best_cost = cand.cost;
      best_b = bit;
      trial = cand;
    }
  }
  if (best_b == 0) {
    // All extensions were cross products; allow them.
    for (size_t u = 0; u < units_.size(); ++u) {
      uint64_t bit = 1ULL << u;
      if ((set & bit) == 0) continue;
      uint64_t rest = set & ~bit;
      if (!Admissible(rest)) continue;
      if (units_[u].join_type != JoinType::kInner &&
          (units_[u].dependency & ~rest) != 0) {
        continue;
      }
      GroupState cand;
      cand.cost = kInf;
      TAURUS_RETURN_IF_ERROR(GreedyPlan(rest));
      TAURUS_RETURN_IF_ERROR(OptimizeSet(bit).status());
      TAURUS_RETURN_IF_ERROR(TryPartition(set, rest, bit, &cand, true));
      if (cand.cost < best_cost) {
        best_cost = cand.cost;
        best_b = bit;
        trial = cand;
      }
    }
  }
  if (best_b == 0) {
    return Status::Internal("greedy join ordering found no extension");
  }
  trial.id = g.id;
  trial.rows = g.rows;
  trial.done = true;
  g = trial;
  return Status::OK();
}

std::unique_ptr<OrcaPhysicalOp> JoinSearch::BuildLeafPlan(int unit_idx,
                                                          bool as_lookup,
                                                          int lookup_index) {
  Unit& u = units_[static_cast<size_t>(unit_idx)];
  if (u.composite_plan != nullptr) {
    return std::move(u.composite_plan);
  }
  auto op = std::make_unique<OrcaPhysicalOp>();
  op->leaf = u.leaf;
  op->filters = u.local_conds;
  op->rows = u.rows;
  op->cost = u.access_cost;
  op->card_source = u.card_source;
  if (as_lookup) {
    op->kind = OrcaPhysicalOp::Kind::kIndexLookup;
    op->index_id = lookup_index;
  } else {
    op->kind = u.access == AccessMethod::kIndexRange
                   ? OrcaPhysicalOp::Kind::kIndexRangeScan
               : u.access == AccessMethod::kIndexLookup
                   ? OrcaPhysicalOp::Kind::kIndexLookup
                   : OrcaPhysicalOp::Kind::kTableScan;
    op->index_id = u.access_index;
  }
  return op;
}

std::unique_ptr<OrcaPhysicalOp> JoinSearch::Extract(uint64_t set) {
  GroupState& g = GroupOf(set);
  if (g.is_leaf) {
    auto op = BuildLeafPlan(g.leaf_unit, false, -1);
    op->memo_group = g.id;
    return op;
  }
  auto op = std::make_unique<OrcaPhysicalOp>();
  op->kind = g.impl;
  op->join_type = g.join_type;
  op->rows = g.rows;
  op->cost = g.cost;
  op->card_source = SourceOf(set);
  op->memo_group = g.id;
  op->conds = CrossConds(g.left, g.right);
  op->children.push_back(Extract(g.left));
  if (g.inner_index >= 0) {
    GroupState& gr = GroupOf(g.right);
    auto right = BuildLeafPlan(gr.leaf_unit, true, g.inner_index);
    right->memo_group = gr.id;
    right->cost = g.inner_lookup_cost;
    op->children.push_back(std::move(right));
  } else {
    op->children.push_back(Extract(g.right));
  }
  return op;
}

Result<std::unique_ptr<OrcaPhysicalOp>> JoinSearch::Run() {
  if (units_.empty()) {
    return Status::Internal("no units to optimize");
  }
  for (Unit& u : units_) {
    TAURUS_RETURN_IF_ERROR(SetupUnit(&u));
  }
  PrepareConjuncts();
  uint64_t full = units_.size() == 64
                      ? ~0ULL
                      : ((1ULL << units_.size()) - 1);
  TAURUS_ASSIGN_OR_RETURN(const GroupState* g, OptimizeSet(full));
  if (g->cost == kInf) {
    return Status::Internal("optimizer produced no plan");
  }
  return Extract(full);
}

}  // namespace

Result<std::unique_ptr<OrcaPhysicalOp>> OrcaOptimizer::Optimize(
    OrcaLogicalOp* root) {
  JoinSearch search(config_, stats_, num_refs_, &partitions_evaluated_,
                    &num_groups_, governor_, feedback_, &actual_overrides_,
                    &sketch_overrides_);
  {
    ScopedSpan build_span(tracer_, "memo.build");
    TAURUS_RETURN_IF_ERROR(search.Flatten(root));
  }
  ScopedSpan search_span(tracer_, "memo.join_search");
  auto physical = search.Run();
  search_span.End();
  search_span.Attr("memo_groups", std::to_string(num_groups_));
  search_span.Attr("partitions", std::to_string(partitions_evaluated_));
  return physical;
}

}  // namespace taurus
