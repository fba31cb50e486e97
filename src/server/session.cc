#include "server/session.h"

#include <utility>

#include "common/thread_pool.h"
#include "server/server.h"

namespace taurus {

Session::Session(Server* server, uint64_t id) : server_(server), id_(id) {}

Session::~Session() { server_->OnSessionClosed(); }

Result<QueryResult> Session::Query(const std::string& sql) {
  return Query(sql, options_.default_path);
}

Result<QueryResult> Session::Query(const std::string& sql,
                                   OptimizerPath path) {
  Database& db = server_->db();

  AdmissionRequest request;
  request.deadline_ms = options_.deadline_ms;
  request.memory_estimate_bytes = options_.memory_estimate_bytes;
  request.requested_workers = options_.parallel_workers > 0
                                  ? options_.parallel_workers
                                  : db.exec_config().parallel_workers;
  if (request.requested_workers <= 0) {
    request.requested_workers = ThreadPool::HardwareWorkers();
  }
  // A forced path is an explicit instruction; only auto-routed queries
  // may be shed onto the MySQL path.
  request.sheddable = path == OptimizerPath::kAuto;

  auto admitted = server_->admission().Admit(request);
  if (!admitted.ok()) {
    ++rejected_;
    // Rejected queries never reach the engine pipeline, so record the
    // refusal here — a post-mortem reading SHOW FLIGHT RECORDER sees the
    // rejection next to the queries that caused the overload.
    if (db.flight_recorder_config().enable) {
      FlightRecord rec;
      rec.status = admitted.status().ToString();
      rec.event.session_id = id_;
      rec.event.rejected = true;
      db.flight_recorder().Record(std::move(rec));
    }
    return admitted.status();
  }
  const AdmissionTicket ticket = admitted.value();
  struct ReleaseGuard {
    AdmissionController* controller;
    const AdmissionTicket* ticket;
    ~ReleaseGuard() { controller->Release(*ticket); }
  } guard{&server_->admission(), &ticket};

  QueryOptions query_options;
  // A lease of 0 tokens means "run serial" — the cap is 1, not uncapped.
  query_options.worker_cap = ticket.worker_tokens > 0 ? ticket.worker_tokens : 1;
  query_options.trace = options_.trace;
  // The query's event starts from the admission outcome, so the client,
  // the digest store and the flight recorder all see one story.
  QueryEvent& seed = query_options.seed;
  seed.session_id = id_;
  seed.shed = ticket.shed;
  seed.admission_queued = ticket.queued;
  seed.admission_wait_ms = ticket.wait_ms;
  if (ticket.shed) {
    seed.fell_back = true;
    seed.fallback_reason =
        Status::ResourceExhausted(
            std::string("admission overload: shed to MySQL path (") +
            ticket.shed_cause + ")")
            .SetOrigin("server.admission", "shed")
            .ToString();
  }

  const OptimizerPath effective =
      ticket.shed ? OptimizerPath::kMySql : path;
  auto result = db.Query(sql, effective, query_options);
  ++queries_;
  if (ticket.shed) ++shed_;
  return result;
}

}  // namespace taurus
