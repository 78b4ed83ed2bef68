//===- serve/Server.cpp - Production query-serving front end --------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"
#include "backend/Registry.h"
#include "serve/Protocol.h"
#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <limits>

namespace qcf::serve {

namespace {

/// The compile bytes each query reserves against its tenant's
/// MaxCompileBytes (quota point 3) for as long as it runs.
constexpr uint64_t CompileBytesPerQuery = 1ull << 20;

obs::MetricsRegistry &resolveRegistry(obs::MetricsRegistry *Reg) {
  return Reg ? *Reg : obs::MetricsRegistry::global();
}

/// Overrides \p V with the decimal in $\p Name times \p Scale (ms -> ns);
/// unset or empty keeps \p V. \returns false, with \p Err naming the
/// variable, for anything but a number in [Min, max of T / Scale].
template <class T>
bool readEnv(const char *Name, T &V, std::string &Err, uint64_t Min = 0,
             uint64_t Scale = 1) {
  const char *S = std::getenv(Name);
  if (!S || !*S)
    return true;
  uint64_t Max = uint64_t(std::numeric_limits<T>::max()) / Scale, N;
  if (parseU64(S, N) && N >= Min && N <= Max) {
    V = T(N * Scale);
    return true;
  }
  Err = std::string(Name) + "=\"" + S + "\": expected an integer in [" +
        std::to_string(Min) + ", " + std::to_string(Max) + "]";
  return false;
}

std::unique_ptr<backend::Backend> createInner(const std::string &Name) {
  std::unique_ptr<backend::Backend> BE = backend::createBackend(Name);
  assert(BE && "ServerConfig::BackendName names no back-end");
  return BE;
}

} // namespace

std::optional<ServerConfig> ServerConfig::fromEnv(std::string &Err) {
  ServerConfig C;
  if (const char *BE = std::getenv("QCF_SERVE_BACKEND"); BE && *BE)
    C.BackendName = BE;
  std::vector<std::string> Names = backend::allBackendNames();
  if (std::find(Names.begin(), Names.end(), C.BackendName) == Names.end()) {
    Err = "QCF_SERVE_BACKEND=\"" + C.BackendName + "\": not a back-end name";
    return std::nullopt;
  }
  constexpr uint64_t Ms = 1'000'000;
  if (readEnv("QCF_SERVE_COMPILE_WORKERS", C.CompileWorkers, Err) &&
      readEnv("QCF_SERVE_QUEUE_CAP", C.CompileQueueCapacity, Err) &&
      readEnv("QCF_SERVE_CACHE_CAP", C.CacheCapacity, Err) &&
      readEnv("QCF_SERVE_SLOTS", C.Admission.Slots, Err, 1) &&
      readEnv("QCF_SERVE_MAX_WAITERS", C.Admission.MaxWaiters, Err) &&
      readEnv("QCF_SERVE_IDLE_TIMEOUT_MS", C.IdleTimeoutNs, Err, 0, Ms) &&
      readEnv("QCF_SERVE_SWEEP_MS", C.SweepIntervalNs, Err, 1, Ms) &&
      readEnv("QCF_SERVE_DEADLINE_MS", C.DefaultDeadlineNs, Err, 0, Ms))
    return C;
  return std::nullopt;
}

std::optional<TenantList> tenantsFromEnv(std::string &Err) {
  const char *Spec = std::getenv("QCF_SERVE_TENANTS");
  if (!Spec || !*Spec)
    return TenantList{{"default", TenantQuota{}}};
  TenantList Out;
  auto Split = [](std::string_view S, char Sep) {
    std::vector<std::string_view> Parts;
    size_t P = 0;
    for (size_t E; (E = S.find(Sep, P)) != std::string_view::npos; P = E + 1)
      Parts.push_back(S.substr(P, E - P));
    Parts.push_back(S.substr(P));
    return Parts;
  };
  for (std::string_view Item : Split(Spec, ',')) {
    std::vector<std::string_view> F = Split(Item, ':');
    TenantQuota Q;
    uint64_t *Num[] = {&Q.MaxSessions, &Q.MaxCompileBytes,
                       &Q.MaxQueuedCompiles};
    bool Ok = !F[0].empty() && F.size() <= 5 && (F.size() < 5 || F[4] == "bg");
    for (size_t I = 1; Ok && I < F.size() && I <= 3; ++I)
      Ok = parseU64(F[I], *Num[I - 1]);
    if (!Ok || Q.MaxCompileBytes > (UINT64_MAX >> 20)) {
      Err = "QCF_SERVE_TENANTS: bad entry \"" + std::string(Item) +
            "\" (want name:max_sessions:max_compile_mb:max_queued[:bg])";
      return std::nullopt;
    }
    Q.MaxCompileBytes <<= 20;
    Q.Background = F.size() == 5;
    Out.emplace_back(F[0], Q);
  }
  return Out;
}

TenantState::TenantState(const std::string &Name, const TenantQuota &Q,
                         obs::MetricsRegistry &Reg)
    : Quota(Q), SessionsG(Reg.gauge("serve.tenant." + Name + ".sessions")),
      BytesG(Reg.gauge("serve.tenant." + Name + ".compile_bytes")),
      RejSessions(Reg.counter("serve.tenant." + Name + ".rejected.sessions")),
      RejBytes(Reg.counter("serve.tenant." + Name + ".rejected.compile_bytes")),
      RejCompileQueue(
          Reg.counter("serve.tenant." + Name + ".rejected.compile_queue")) {}

bool TenantState::tryReserveBytes(uint64_t N) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Quota.MaxCompileBytes && CompileBytes + N > Quota.MaxCompileBytes) {
    RejBytes.inc();
    return false;
  }
  CompileBytes += N;
  BytesG.set(int64_t(CompileBytes));
  return true;
}

void TenantState::releaseBytes(uint64_t N) {
  std::lock_guard<std::mutex> Lock(Mutex);
  CompileBytes = CompileBytes >= N ? CompileBytes - N : 0;
  BytesG.set(int64_t(CompileBytes));
}

Server::Server(const ServerConfig &Cfg, const db::Catalog &Cat)
    : Cfg(Cfg), Cat(Cat), Reg(resolveRegistry(Cfg.Reg)),
      Disk(backend::DiskCodeCache::fromEnv(&Reg)),
      Svc(std::make_unique<backend::CompileService>(
          Cfg.CompileWorkers, Cfg.CompileQueueCapacity, &Reg)),
      Cache(std::make_unique<backend::CachingBackend>(
          createInner(Cfg.BackendName), Cfg.CacheCapacity, Svc.get(), &Reg,
          Disk.get(), backend::createFastTier(Cfg.BackendName))),
      Plans(PlanCache::ServerMaxBytes, Reg), Gate(Cfg.Admission, &Reg),
      SessionsOpenG(Reg.gauge("serve.sessions.open")),
      SessionsOpened(Reg.counter("serve.sessions.opened")),
      SessionsClosed(Reg.counter("serve.sessions.closed")),
      SessionsEvicted(Reg.counter("serve.sessions.evicted")),
      QueriesOk(Reg.counter("serve.queries.ok")),
      QueriesCancelled(Reg.counter("serve.queries.cancelled")),
      QueriesTrapped(Reg.counter("serve.queries.trapped")),
      QueriesRejected(Reg.counter("serve.queries.rejected")),
      QueryNs(Reg.histogram("serve.query_ns")) {
  assert(Cfg.ExecThreads == 1 && "one thread runs every served query");
  if (Cfg.StartSweeper)
    Sweeper = std::thread([this] { sweeperLoop(); });
}

Server::~Server() { shutdown(); }

void Server::sweeperLoop() {
  std::unique_lock<std::mutex> Lock(SweepMutex);
  while (!Stopping.load(std::memory_order_acquire)) {
    SweepCv.wait_for(Lock, std::chrono::nanoseconds(Cfg.SweepIntervalNs));
    if (Stopping.load(std::memory_order_acquire))
      break;
    Lock.unlock();
    evictIdleSessions();
    Lock.lock();
  }
}

void Server::registerTenant(const std::string &Name, const TenantQuota &Quota) {
  {
    std::lock_guard<std::mutex> Lock(TenantsMutex);
    auto It = Tenants.find(Name);
    if (It == Tenants.end())
      Tenants.emplace(Name,
                      std::make_unique<TenantState>(Name, Quota, Reg));
    else
      It->second->Quota = Quota;
  }
  Svc->setKeyQueueShare(Name, Quota.MaxQueuedCompiles);
}

std::shared_ptr<Session> Server::findSession(uint64_t Sid) const {
  std::lock_guard<std::mutex> Lock(SessionsMutex);
  auto It = Sessions.find(Sid);
  return It == Sessions.end() ? nullptr : It->second;
}

OpenOutcome Server::openSession(const std::string &Tenant) {
  if (Stopping.load(std::memory_order_acquire))
    return {Admit::ServerStopped, 0, 0};
  TenantState *T = nullptr;
  {
    std::lock_guard<std::mutex> Lock(TenantsMutex);
    auto It = Tenants.find(Tenant);
    if (It == Tenants.end())
      return {Admit::UnknownTenant, 0, 0};
    T = It->second.get();
  }
  {
    std::lock_guard<std::mutex> Lock(T->Mutex);
    if (T->Quota.MaxSessions && T->Sessions >= T->Quota.MaxSessions) {
      T->RejSessions.inc();
      // A slot frees when some session closes or idles out; the timeout
      // is the only bound the server itself guarantees.
      return {Admit::SessionQuota, 0,
              std::max<uint64_t>(Cfg.IdleTimeoutNs / 8, 1'000'000)};
    }
    ++T->Sessions;
    T->SessionsG.set(int64_t(T->Sessions));
  }
  uint64_t Sid = NextSid.fetch_add(1, std::memory_order_relaxed);
  auto S = std::make_shared<Session>(Sid, Tenant, *T, nowNs());
  {
    std::lock_guard<std::mutex> Lock(SessionsMutex);
    Sessions.emplace(Sid, std::move(S));
  }
  SessionsOpenG.add(1);
  SessionsOpened.inc();
  return {Admit::Ok, Sid, 0};
}

void Server::retireSession(Session &S, bool Evicted) {
  TenantState &T = S.Account;
  {
    std::lock_guard<std::mutex> Lock(T.Mutex);
    if (T.Sessions)
      --T.Sessions;
    T.SessionsG.set(int64_t(T.Sessions));
  }
  SessionsOpenG.add(-1);
  (Evicted ? SessionsEvicted : SessionsClosed).inc();
}

Admit Server::closeSession(uint64_t Sid) {
  std::shared_ptr<Session> S;
  {
    std::lock_guard<std::mutex> Lock(SessionsMutex);
    auto It = Sessions.find(Sid);
    if (It == Sessions.end())
      return Admit::UnknownSession;
    S = std::move(It->second);
    Sessions.erase(It);
  }
  // Order matters for the epilogue handshake: CloseRequested must be
  // visible before the state CAS, so whichever side transitions
  // Idle -> Closed does so exactly once (see execute()'s epilogue).
  S->CloseRequested.store(true, std::memory_order_release);
  Session::State E = Session::State::Idle;
  if (S->St.compare_exchange_strong(E, Session::State::Closed)) {
    retireSession(*S, /*Evicted=*/false);
  } else if (E == Session::State::Active) {
    // The in-flight query unwinds at its next morsel boundary or wait
    // tick and the executing thread completes the close.
    S->Ctl.cancel();
  }
  return Admit::Ok;
}

size_t Server::evictIdleSessions(uint64_t NowNs) {
  uint64_t Now = NowNs ? NowNs : nowNs();
  std::vector<std::shared_ptr<Session>> Victims;
  {
    std::lock_guard<std::mutex> Lock(SessionsMutex);
    for (auto It = Sessions.begin(); It != Sessions.end();) {
      Session &S = *It->second;
      uint64_t Last = S.LastActiveNs.load(std::memory_order_acquire);
      Session::State E = Session::State::Idle;
      if (Now >= Last && Now - Last > Cfg.IdleTimeoutNs &&
          S.St.compare_exchange_strong(E, Session::State::Closed)) {
        Victims.push_back(std::move(It->second));
        It = Sessions.erase(It);
      } else {
        ++It;
      }
    }
  }
  for (const std::shared_ptr<Session> &S : Victims)
    retireSession(*S, /*Evicted=*/true);
  return Victims.size();
}

QueryOutcome Server::execute(uint64_t Sid, const db::Query &Q,
                             rt::OutputBuffer *Out, uint64_t DeadlineNs) {
  QueryOutcome R;
  uint64_t T0 = nowNs();
  auto reject = [&](Admit A, uint64_t RetryNs) {
    R.Outcome = A;
    R.RetryAfterNs = RetryNs;
    QueriesRejected.inc();
    return R;
  };

  if (Stopping.load(std::memory_order_acquire))
    return reject(Admit::ServerStopped, 0);
  std::shared_ptr<Session> S = findSession(Sid);
  if (!S)
    return reject(Admit::UnknownSession, 0);

  // Claim the session: one query in flight per session, enforced by the
  // Idle -> Active CAS (loses against a concurrent close/evict too).
  Session::State E = Session::State::Idle;
  if (!S->St.compare_exchange_strong(E, Session::State::Active))
    return reject(E == Session::State::Active ? Admit::SessionBusy
                                              : Admit::UnknownSession,
                  0);

  TenantState &T = S->Account;
  // Epilogue for every path below once the session is Active; \p Now is
  // a clock read taken after the query's last step.
  auto finish = [&](uint64_t Now) {
    S->LastActiveNs.store(Now, std::memory_order_release);
    S->Queries.fetch_add(1, std::memory_order_relaxed);
    S->St.store(Session::State::Idle, std::memory_order_release);
    // closeSession() may have set CloseRequested between our load and
    // the Idle store; whichever side wins this CAS retires the session.
    if (S->CloseRequested.load(std::memory_order_acquire)) {
      Session::State E2 = Session::State::Idle;
      if (S->St.compare_exchange_strong(E2, Session::State::Closed))
        retireSession(*S, /*Evicted=*/false);
    }
    R.TotalNs = Now - T0;
    QueryNs.observe(R.TotalNs);
  };

  // Quota point 2: compile-queue share, checked before any work.
  if (T.Quota.MaxQueuedCompiles &&
      Svc->keyInFlight(S->Tenant) >= T.Quota.MaxQueuedCompiles) {
    T.RejCompileQueue.inc();
    reject(Admit::CompileQueueQuota, 2'000'000);
    finish(nowNs());
    return R;
  }

  // Quota point 3: reserve the fixed per-query compile-byte charge,
  // released when the query ends.
  if (!T.tryReserveBytes(CompileBytesPerQuery)) {
    reject(Admit::CompileBytesQuota, 2'000'000);
    finish(nowNs());
    return R;
  }

  // Arm the token for this query before entering the gate, so deadlines
  // cover admission wait too — a query that cannot start in time should
  // not start at all.
  S->Ctl.reset();
  uint64_t Deadline = DeadlineNs ? DeadlineNs : Cfg.DefaultDeadlineNs;
  if (Deadline)
    S->Ctl.setDeadlineNs(nowNs() + Deadline);

  // Quota point 4: bounded admission.
  bool LowPriority = T.Quota.Background;
  AdmissionGate::Decision D = Gate.enter(LowPriority, &S->Ctl);
  uint64_t RunStartNs = nowNs(); // Admitted: the wait ends, the run starts.
  R.AdmitWaitNs = RunStartNs - T0;
  if (D.Outcome != Admit::Ok) {
    T.releaseBytes(CompileBytesPerQuery);
    if (D.Outcome == Admit::Cancelled) {
      R.Cancelled = true;
      QueriesCancelled.inc();
      R.Outcome = Admit::Cancelled;
    } else {
      reject(D.Outcome, D.RetryAfterNs);
    }
    finish(nowNs());
    return R;
  }

  {
    std::shared_ptr<const db::CompiledPlan> Plan = Plans.get(Q, Cat);

    db::ExecOptions EO;
    EO.Control = &S->Ctl;
    EO.CompileFairnessKey = S->Tenant;
    EO.Obs = obs::ObsContext(nullptr, &Reg, nullptr);
    // A cold miss's background compile holds the plan, not a module copy.
    EO.PlanOwner = Plan;

    // Without a caller's buffer the rows go to one this thread reuses,
    // cleared after every query; its memory is recycled blocks.
    thread_local rt::OutputBuffer LocalOut;
    rt::OutputBuffer *O = Out ? Out : &LocalOut;
    uint64_t RowsBefore = O->numRows();
    db::ExecResult ER = db::executeQuery(*Plan, *Cache, Cat, O, EO);

    R.Trapped = ER.Trapped;
    R.Cancelled = ER.Cancelled;
    if (ER.Cancelled) {
      QueriesCancelled.inc();
    } else if (ER.Trapped) {
      QueriesTrapped.inc();
    } else {
      R.Ok = true;
      R.Rows = O->numRows() - RowsBefore;
      R.Digest = O->unorderedDigest();
      QueriesOk.inc();
    }
    if (!Out)
      LocalOut.clear();

    T.releaseBytes(CompileBytesPerQuery);
  }
  uint64_t EndNs = nowNs();
  Gate.leave(EndNs - RunStartNs);
  finish(EndNs);
  return R;
}

void Server::shutdown() {
  bool Expected = false;
  if (!Stopping.compare_exchange_strong(Expected, true))
    return;
  SweepCv.notify_all();
  if (Sweeper.joinable())
    Sweeper.join();
  Gate.close();

  // Fire every session's token; running queries unwind within a morsel
  // or a wait tick and retire their sessions via the epilogue.
  std::vector<std::shared_ptr<Session>> Snapshot;
  {
    std::lock_guard<std::mutex> Lock(SessionsMutex);
    Snapshot.reserve(Sessions.size());
    for (auto &[Sid, S] : Sessions)
      Snapshot.push_back(S);
  }
  for (const std::shared_ptr<Session> &S : Snapshot)
    S->Ctl.cancel();
  while (Gate.running() > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  // A query releases its gate slot before its session epilogue runs;
  // wait for the epilogues too, so the Idle-closing sweep below cannot
  // miss a session that is still mid-transition.
  for (const std::shared_ptr<Session> &S : Snapshot)
    while (S->St.load(std::memory_order_acquire) == Session::State::Active)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // Close whatever is left (idle sessions; Active ones have drained).
  std::unordered_map<uint64_t, std::shared_ptr<Session>> Remaining;
  {
    std::lock_guard<std::mutex> Lock(SessionsMutex);
    Remaining.swap(Sessions);
  }
  for (auto &[Sid, S] : Remaining) {
    Session::State E = Session::State::Idle;
    if (S->St.compare_exchange_strong(E, Session::State::Closed))
      retireSession(*S, /*Evicted=*/false);
  }

  // Stop the compile service last, after the background compiles of cold
  // misses have landed, so each ends in a disk store. In-flight jobs
  // reference the cache and its inner back-end, both still alive here.
  Svc->drain();
  Svc->shutdown();
}

size_t Server::numSessions() const {
  std::lock_guard<std::mutex> Lock(SessionsMutex);
  return Sessions.size();
}

} // namespace qcf::serve
