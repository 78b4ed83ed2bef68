//===- serve/Server.h - Production query-serving front end ------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving front end over the compile/execute stack: sessions,
/// admission control, and multi-tenant quotas (DESIGN.md "Serving
/// layer"). One Server owns the shared substrate every session rides —
/// a PlanCache (each query is lowered once), a bounded CompileService, a
/// CachingBackend (in-memory LRU plus the $QCF_CODE_CACHE persistent
/// tier, so a fleet of serve processes shares warm code), an
/// AdmissionGate bounding concurrent execution, and the MetricsRegistry
/// all "serve.*" instruments land in. A query that misses both cache
/// tiers starts on Stencil code while the configured back-end compiles it
/// in the background (CachingBackend's fast tier), and swaps to the
/// compiled module at a morsel boundary once it lands.
///
/// Quota enforcement points, in request order:
///   1. openSession     -> TenantQuota::MaxSessions   (SessionQuota)
///   2. execute (pre)   -> MaxQueuedCompiles against the tenant's
///      in-flight jobs, background compiles included (CompileQueueQuota)
///   3. execute (pre)   -> MaxCompileBytes: a fixed per-query reservation
///      held until the query ends                  (CompileBytesQuota)
///   4. AdmissionGate   -> slots + bounded wait queue  (QueueFull / Shed)
///   5. CompileService  -> per-tenant fairness key      (refused submit,
///      inside the cache path; the cache compiles inline)
/// Every rejection a client sees (1-4) is typed and carries a retry-after
/// hint; nothing in the serving path blocks on an unbounded queue.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_SERVE_SERVER_H
#define QCF_SERVE_SERVER_H

#include "backend/Cache.h"
#include "backend/CompileService.h"
#include "backend/DiskCache.h"
#include "db/Executor.h"
#include "serve/Admission.h"
#include "serve/PlanCache.h"
#include "serve/Session.h"
#include "serve/Tenant.h"
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>

namespace qcf::serve {

/// Server construction knobs; fromEnv() maps the QCF_SERVE_* environment
/// (documented in README.md) onto this, or returns nullopt with \p Err
/// naming the variable whose value does not parse or is out of range.
struct ServerConfig {
  /// Inner back-end compiled code comes from ("Craneline" default: the
  /// serving sweet spot of compile time vs. code quality).
  std::string BackendName = "Craneline";

  unsigned CompileWorkers = 2;
  /// Bound on the compile-service queue (0 = unbounded). A full-queue
  /// submit sheds Background work or is refused, and the cache then
  /// compiles inline.
  size_t CompileQueueCapacity = 64;
  /// In-memory compiled-code cache entries (0 = unbounded).
  size_t CacheCapacity = 0;

  AdmissionGate::Config Admission;

  uint64_t IdleTimeoutNs = 60'000'000'000ull; ///< Session idle eviction.
  uint64_t SweepIntervalNs = 1'000'000'000ull;
  /// Deadline applied to queries that do not carry their own (0 = none).
  uint64_t DefaultDeadlineNs = 0;
  unsigned ExecThreads = 1; ///< Worker threads per admitted query.
  bool StartSweeper = true; ///< Tests drive evictIdleSessions() manually.
  obs::MetricsRegistry *Reg = nullptr; ///< null = process-wide registry.

  static std::optional<ServerConfig> fromEnv(std::string &Err);
};

/// The tenants in QCF_SERVE_TENANTS, "name:max_sessions:max_compile_mb:
/// max_queued[:bg],..." (unset: one unlimited tenant named "default"), or
/// nullopt with \p Err for an entry that does not parse.
using TenantList = std::vector<std::pair<std::string, TenantQuota>>;
std::optional<TenantList> tenantsFromEnv(std::string &Err);

struct OpenOutcome {
  Admit Outcome = Admit::Ok;
  uint64_t SessionId = 0;
  uint64_t RetryAfterNs = 0;
};

/// What one Server::execute call did. Exactly one of {Ok, Trapped,
/// Cancelled, Outcome != Admit::Ok} describes the disposition.
struct QueryOutcome {
  Admit Outcome = Admit::Ok; ///< Admission disposition; Ok = it ran.
  bool Ok = false;           ///< Ran to completion; Rows/Digest valid.
  bool Trapped = false;
  bool Cancelled = false; ///< Token fired mid-query; results discarded.
  uint64_t Rows = 0;
  uint64_t Digest = 0; ///< OutputBuffer::unorderedDigest() of the rows.
  uint64_t RetryAfterNs = 0; ///< Backpressure hint on rejection.
  uint64_t AdmitWaitNs = 0;
  uint64_t TotalNs = 0;
};

/// The serving front end; see file comment. Thread-safe: any number of
/// driver threads may open/execute/close sessions concurrently.
class Server {
public:
  Server(const ServerConfig &Cfg, const db::Catalog &Cat);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Declares \p Name with \p Quota (replacing any previous quota) and
  /// installs its compile-queue share on the CompileService. Sessions
  /// can only be opened for registered tenants.
  void registerTenant(const std::string &Name, const TenantQuota &Quota);

  OpenOutcome openSession(const std::string &Tenant);

  /// Closes \p Sid. Idle sessions close immediately; an Active session
  /// gets CloseRequested + its token fired, and the executing thread
  /// completes the close in its epilogue (the in-flight query returns
  /// Cancelled). Either way the id is invalid once this returns.
  Admit closeSession(uint64_t Sid);

  /// Closes sessions Idle for longer than IdleTimeoutNs. \p NowNs
  /// overrides the clock for tests (0 = nowNs()). \returns sessions
  /// evicted. Runs periodically on the sweeper thread.
  size_t evictIdleSessions(uint64_t NowNs = 0);

  /// Runs \p Q on session \p Sid: claims the session, reserves tenant
  /// compile bytes, passes admission, takes the lowered plan from the
  /// plan cache, then compiles (through the shared code cache,
  /// fairness-keyed by tenant) and executes with the session's token
  /// armed. Results append to \p Out when given; Rows/Digest always
  /// cover this query's rows only. \p DeadlineNs is relative to now
  /// (0 = config default).
  QueryOutcome execute(uint64_t Sid, const db::Query &Q,
                       rt::OutputBuffer *Out = nullptr,
                       uint64_t DeadlineNs = 0);

  /// Cancels every session, drains running queries and the background
  /// compiles of cold misses, and shuts the compile service down.
  /// Idempotent; also run by the destructor.
  void shutdown();

  size_t numSessions() const;
  obs::MetricsRegistry &registry() const { return Reg; }
  backend::CompileService &compileService() { return *Svc; }
  /// The shared caching back-end (restart-storm tests compile through
  /// it directly to prove cross-process disk-cache safety).
  backend::CachingBackend &cacheBackend() { return *Cache; }
  backend::DiskCodeCache *diskCache() { return Disk.get(); }
  const PlanCache &planCache() const { return Plans; }
  /// The admission gate queries pass. A caller that holds one of its
  /// slots (enter() .. leave()) makes queries queue and overflow
  /// deterministically; `qcf_stress --serve` does so to force overload.
  AdmissionGate &admission() { return Gate; }

  /// renderText() of the registry — the `qcf_stats --serve` payload.
  std::string statsText() const { return Reg.snapshot().renderText(); }

private:
  struct TenantState {
    TenantState(const std::string &Name, const TenantQuota &Q,
                obs::MetricsRegistry &Reg);

    TenantQuota Quota;
    std::mutex Mutex;
    uint64_t Sessions = 0;
    uint64_t CompileBytes = 0; ///< Currently reserved bytes.

    obs::Gauge &SessionsG;
    obs::Gauge &BytesG;
    obs::Counter &RejSessions;
    obs::Counter &RejBytes;
    obs::Counter &RejCompileQueue;

    bool tryReserveBytes(uint64_t N);
    void releaseBytes(uint64_t N);
  };

  std::shared_ptr<Session> findSession(uint64_t Sid) const;
  TenantState *findTenant(const std::string &Name) const;
  /// Final Closed bookkeeping (tenant slot, gauges). \p Evicted selects
  /// the evicted counter over the closed one.
  void retireSession(Session &S, bool Evicted);
  void sweeperLoop();

  const ServerConfig Cfg;
  const db::Catalog &Cat;
  obs::MetricsRegistry &Reg;

  std::unique_ptr<backend::DiskCodeCache> Disk; ///< $QCF_CODE_CACHE tier.
  std::unique_ptr<backend::CompileService> Svc;
  std::unique_ptr<backend::CachingBackend> Cache; ///< Shared by sessions.
  PlanCache Plans;
  AdmissionGate Gate;

  mutable std::mutex TenantsMutex;
  std::unordered_map<std::string, std::unique_ptr<TenantState>> Tenants;

  mutable std::mutex SessionsMutex;
  std::unordered_map<uint64_t, std::shared_ptr<Session>> Sessions;
  std::atomic<uint64_t> NextSid{1};

  std::atomic<bool> Stopping{false};
  std::mutex SweepMutex;
  std::condition_variable SweepCv;
  std::thread Sweeper;

  obs::Gauge &SessionsOpenG;
  obs::Counter &SessionsOpened;
  obs::Counter &SessionsClosed;
  obs::Counter &SessionsEvicted;
  obs::Counter &QueriesOk;
  obs::Counter &QueriesCancelled;
  obs::Counter &QueriesTrapped;
  obs::Counter &QueriesRejected;
  obs::Histogram &QueryNs;
};

} // namespace qcf::serve

#endif // QCF_SERVE_SERVER_H
