#include "myopt/join_graph.h"

#include "parser/ast_util.h"

namespace taurus {

void CollectLeavesOf(TableRef* ref, std::vector<TableRef*>* out) {
  if (ref->kind == TableRef::Kind::kJoin) {
    CollectLeavesOf(ref->left.get(), out);
    CollectLeavesOf(ref->right.get(), out);
  } else {
    out->push_back(ref);
  }
}

uint64_t JoinGraph::UnitMaskOf(const Expr& e, int num_refs) const {
  uint64_t mask = 0;
  AllReferencedRefs(e, [&](int ref_id) {
    auto it = unit_of_ref.find(ref_id);
    if (ref_id < num_refs && it != unit_of_ref.end()) {
      mask |= 1ULL << it->second;
    }
    return true;
  });
  return mask;
}

namespace {

struct Builder {
  JoinGraph* graph;
  int num_refs;

  Status AddUnit(TableRef* ref, JoinType type, uint64_t dependency,
                 std::vector<Expr*> join_conds) {
    if (graph->units.size() >= 64) {
      return Status::NotSupported("more than 64 join units in one block");
    }
    int idx = static_cast<int>(graph->units.size());
    graph->units.push_back(
        JoinUnit{ref, type, dependency, std::move(join_conds)});
    std::vector<TableRef*> leaves;
    CollectLeavesOf(ref, &leaves);
    for (TableRef* leaf : leaves) graph->unit_of_ref[leaf->ref_id] = idx;
    return Status::OK();
  }

  /// Flattens a FROM subtree into units. Returns the mask of units added.
  Status Flatten(TableRef* ref, uint64_t* added_mask) {
    if (ref->kind != TableRef::Kind::kJoin) {
      size_t before = graph->units.size();
      TAURUS_RETURN_IF_ERROR(AddUnit(ref, JoinType::kInner, 0, {}));
      *added_mask |= 1ULL << before;
      return Status::OK();
    }
    switch (ref->join_type) {
      case JoinType::kInner:
      case JoinType::kCross: {
        TAURUS_RETURN_IF_ERROR(Flatten(ref->left.get(), added_mask));
        TAURUS_RETURN_IF_ERROR(Flatten(ref->right.get(), added_mask));
        if (ref->on) {
          std::vector<Expr*> conds;
          SplitConjunctsMutable(ref->on.get(), &conds);
          for (Expr* c : conds) {
            graph->conjuncts.push_back(JoinConjunct{c, 0});
          }
        }
        return Status::OK();
      }
      case JoinType::kLeft:
      case JoinType::kSemi:
      case JoinType::kAntiSemi: {
        uint64_t left_mask = 0;
        TAURUS_RETURN_IF_ERROR(Flatten(ref->left.get(), &left_mask));
        std::vector<Expr*> conds;
        if (ref->on) SplitConjunctsMutable(ref->on.get(), &conds);
        size_t unit_idx = graph->units.size();
        TAURUS_RETURN_IF_ERROR(
            AddUnit(ref->right.get(), ref->join_type, left_mask,
                    std::move(conds)));
        *added_mask |= left_mask | (1ULL << unit_idx);
        return Status::OK();
      }
    }
    return Status::Internal("unreachable join type");
  }
};

}  // namespace

Result<JoinGraph> BuildJoinGraphForTree(TableRef* tree,
                                        const std::vector<Expr*>& extra_conds,
                                        int num_refs) {
  JoinGraph graph;
  Builder builder{&graph, num_refs};
  uint64_t mask = 0;
  TAURUS_RETURN_IF_ERROR(builder.Flatten(tree, &mask));
  for (Expr* c : extra_conds) graph.conjuncts.push_back(JoinConjunct{c, 0});
  for (JoinConjunct& c : graph.conjuncts) {
    c.units = graph.UnitMaskOf(*c.expr, num_refs);
  }
  return graph;
}

Result<JoinGraph> BuildJoinGraph(QueryBlock* block, int num_refs) {
  JoinGraph graph;
  graph.block = block;
  Builder builder{&graph, num_refs};
  for (auto& tree : block->from) {
    uint64_t mask = 0;
    TAURUS_RETURN_IF_ERROR(builder.Flatten(tree.get(), &mask));
  }
  if (block->where != nullptr) {
    std::vector<Expr*> conds;
    SplitConjunctsMutable(block->where.get(), &conds);
    for (Expr* c : conds) graph.conjuncts.push_back(JoinConjunct{c, 0});
  }
  for (JoinConjunct& c : graph.conjuncts) {
    c.units = graph.UnitMaskOf(*c.expr, num_refs);
  }
  return graph;
}

}  // namespace taurus
