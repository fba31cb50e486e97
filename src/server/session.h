#ifndef TAURUS_SERVER_SESSION_H_
#define TAURUS_SERVER_SESSION_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "engine/database.h"
#include "server/admission.h"

namespace taurus {

class Server;

/// Per-session knobs. Mutable between queries; like every other config
/// struct, not while a query of this session is in flight.
struct SessionOptions {
  /// Optimizer path for Query(sql) (the one-argument form).
  OptimizerPath default_path = OptimizerPath::kAuto;
  /// Per-session tracing: traces this session's queries even when the
  /// engine-wide knob is off; each trace comes back on QueryResult::trace.
  bool trace = false;
  /// Desired degree of parallelism (worker-token request); 0 = the engine's
  /// executor knob (or hardware workers when that is 0 too).
  int parallel_workers = 0;
  /// Admission-queue deadline override; 0 = ServerConfig default.
  double deadline_ms = 0.0;
  /// Per-query memory estimate override; 0 = ServerConfig default.
  int64_t memory_estimate_bytes = 0;
};

/// One client session of a Server (DESIGN.md section 12): holds the
/// per-session knobs and outcome counters.
/// Every Query goes through the server's admission controller — it may
/// run immediately, wait in the FIFO queue, be shed onto the cheap MySQL
/// path, or be rejected with kResourceExhausted ("server.admission").
///
/// A Session is single-threaded: one thread drives it at a time (exactly
/// a MySQL connection). Different sessions are fully concurrent.
class Session {
 public:
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Per-session knobs (trace, default path, parallelism, deadline).
  SessionOptions& options() { return options_; }
  const SessionOptions& options() const { return options_; }

  /// Admission-controlled query on the session's default path.
  Result<QueryResult> Query(const std::string& sql);
  /// Admission-controlled query on an explicit path. Forced paths
  /// (kMySql/kOrca) are never shed; only kAuto is sheddable.
  Result<QueryResult> Query(const std::string& sql, OptimizerPath path);

  uint64_t id() const { return id_; }
  /// Queries that ran (including shed ones); excludes rejections.
  int64_t queries() const { return queries_; }
  /// Queries shed onto the MySQL path under overload.
  int64_t shed() const { return shed_; }
  /// Queries rejected by admission (queue_full / queue_deadline).
  int64_t rejected() const { return rejected_; }

 private:
  friend class Server;
  Session(Server* server, uint64_t id);

  Server* server_;
  const uint64_t id_;
  SessionOptions options_;
  // Single-threaded by contract, so plain counters suffice.
  int64_t queries_ = 0;
  int64_t shed_ = 0;
  int64_t rejected_ = 0;
};

}  // namespace taurus

#endif  // TAURUS_SERVER_SESSION_H_
