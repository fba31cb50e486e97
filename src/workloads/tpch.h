#ifndef TAURUS_WORKLOADS_TPCH_H_
#define TAURUS_WORKLOADS_TPCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/database.h"

namespace taurus {

/// TPC-H-style workload: the 8-table schema (standard column sets, primary
/// keys and foreign-key indexes), a deterministic dbgen-flavored data
/// generator, and the 22 queries expressed in this engine's SQL dialect
/// (Q15's revenue view becomes a CTE; everything else is structurally the
/// official query).
///
/// The paper ran scale factor 20 on a Taurus cluster; this reproduction
/// defaults to a scale the in-memory engine executes in seconds while
/// preserving the row-count *ratios* between tables, which is what drives
/// plan selection.

/// Creates tables and indexes.
Status CreateTpchSchema(Database* db);

/// Generates and loads data for `scale_factor` (1.0 = the official 1 GB
/// row counts), then runs ANALYZE on every table.
Status LoadTpch(Database* db, double scale_factor, uint64_t seed = 20220329);

/// The 22 TPC-H queries (index 0 = Q1 ... index 21 = Q22).
const std::vector<std::string>& TpchQueries();

/// Join graphs over aliases of `nation`, whose join-search effort has
/// closed forms.
enum class NationJoinShape { kChain, kStar, kCycle };

/// A count(*) over `n` aliases of `nation` joined on n_nationkey: a chain
/// t0-t1-...-t(n-1), a star around t0, or the chain closed into a cycle.
std::string NationJoinGraphQuery(NationJoinShape shape, int n);

/// Convenience: schema + load.
inline Status SetupTpch(Database* db, double scale_factor,
                        uint64_t seed = 20220329) {
  TAURUS_RETURN_IF_ERROR(CreateTpchSchema(db));
  return LoadTpch(db, scale_factor, seed);
}

}  // namespace taurus

#endif  // TAURUS_WORKLOADS_TPCH_H_
