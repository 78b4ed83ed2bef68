//===- tools/qcf_serve.cpp - Query-serving daemon --------------------------===//
//
// Part of the QCF project.
//
// A standalone serving daemon over serve::Server: a unix-domain socket
// speaking a line protocol, thread-per-connection, fronting the built-in
// TPC-H-like corpus. Run a fleet of these over one $QCF_CODE_CACHE and
// every process after the first serves warm code (DESIGN.md "Persistent
// code cache"; the restart-storm test drives exactly that shape).
//
//   ./qcf_serve [--sock PATH]      # default $QCF_SERVE_SOCK or ./qcf.sock
//
// Protocol (one request line, one response; STATS is multi-line and ends
// with a lone "."):
//
//   OPEN <tenant>                       -> OK <sid> | ERR <reason> [retry_ms]
//   EXEC <sid> <query> [deadline_ms]    -> OK rows=N digest=X ms=T
//                                        | ERR <reason> [retry_ms]
//   CLOSE <sid>                         -> OK | ERR <reason>
//   STATS                               -> serve.*/svc.*/cache.* text, "."
//   PING                                -> PONG
//   SHUTDOWN                            -> OK (daemon exits)
//
// A malformed request gets "ERR <reason>" (serve/Protocol.h): bad-request,
// bad-session, bad-deadline, or line-too-long, which also closes the
// connection.
//
// Tuning comes from the QCF_SERVE_* environment (ServerConfig::fromEnv;
// knobs documented in README.md). Tenants come from QCF_SERVE_TENANTS:
// "name:max_sessions:max_compile_mb:max_queued[:bg],..." — unset
// registers one unlimited tenant named "default". A value that does not
// parse makes the daemon exit with status 2, naming the variable, before
// it binds the socket.
//
//===----------------------------------------------------------------------===//

#include "db/Codegen.h"
#include "db/Datagen.h"
#include "db/Queries.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace qcf;

namespace {

std::atomic<bool> ShutdownFlag{false};
int ListenFdForSignal = -1;

void onSignal(int) {
  ShutdownFlag.store(true);
  // Unblock accept(); close is async-signal-safe.
  if (ListenFdForSignal >= 0)
    ::close(ListenFdForSignal);
}

void sendAll(int Fd, const std::string &S) {
  size_t Off = 0;
  while (Off < S.size()) {
    ssize_t N = ::send(Fd, S.data() + Off, S.size() - Off, MSG_NOSIGNAL);
    if (N <= 0)
      return;
    Off += size_t(N);
  }
}

/// One connection: read request lines, dispatch, write responses. A line
/// longer than serve::MaxRequestLine is refused and ends the connection.
void serveConnection(int Fd, serve::Server &Srv,
                     const std::map<std::string, const db::Query *> &Queries) {
  std::string Buf;
  char Chunk[4096];
  for (;;) {
    size_t NL;
    while ((NL = Buf.find('\n')) == std::string::npos &&
           Buf.size() <= serve::MaxRequestLine) {
      ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
      if (N <= 0) {
        ::close(Fd);
        return;
      }
      Buf.append(Chunk, size_t(N));
    }
    serve::Request Req =
        serve::parseRequest(std::string_view(Buf).substr(0, NL));
    if (NL > serve::MaxRequestLine) { // Over-long, or no newline in reach.
      sendAll(Fd, std::string("ERR ") + Req.Err + "\n");
      ::close(Fd);
      return;
    }
    Buf.erase(0, NL + 1);

    char Resp[256];
    switch (Req.K) {
    case serve::Request::Empty:
      break;
    case serve::Request::Invalid:
      sendAll(Fd, std::string("ERR ") + Req.Err + "\n");
      break;
    case serve::Request::Ping:
      sendAll(Fd, "PONG\n");
      break;
    case serve::Request::Stats:
      sendAll(Fd, Srv.statsText());
      sendAll(Fd, ".\n");
      break;
    case serve::Request::Shutdown:
      sendAll(Fd, "OK\n");
      ShutdownFlag.store(true);
      if (ListenFdForSignal >= 0)
        ::shutdown(ListenFdForSignal, SHUT_RDWR);
      ::close(Fd);
      return;
    case serve::Request::Open: {
      serve::OpenOutcome O = Srv.openSession(Req.Name);
      if (O.Outcome == serve::Admit::Ok)
        std::snprintf(Resp, sizeof(Resp), "OK %llu\n",
                      static_cast<unsigned long long>(O.SessionId));
      else
        std::snprintf(Resp, sizeof(Resp), "ERR %s %llu\n",
                      serve::admitName(O.Outcome),
                      static_cast<unsigned long long>(O.RetryAfterNs /
                                                      1'000'000));
      sendAll(Fd, Resp);
      break;
    }
    case serve::Request::Close: {
      serve::Admit A = Srv.closeSession(Req.Session);
      if (A == serve::Admit::Ok)
        sendAll(Fd, "OK\n");
      else {
        std::snprintf(Resp, sizeof(Resp), "ERR %s\n", serve::admitName(A));
        sendAll(Fd, Resp);
      }
      break;
    }
    case serve::Request::Exec: {
      auto QIt = Queries.find(Req.Name);
      if (QIt == Queries.end()) {
        sendAll(Fd, "ERR unknown-query\n");
        break;
      }
      rt::OutputBuffer Out;
      serve::QueryOutcome R =
          Srv.execute(Req.Session, *QIt->second, &Out, Req.DeadlineNs);
      if (R.Ok)
        std::snprintf(Resp, sizeof(Resp),
                      "OK rows=%llu digest=%llx ms=%.3f\n",
                      static_cast<unsigned long long>(R.Rows),
                      static_cast<unsigned long long>(R.Digest),
                      double(R.TotalNs) / 1e6);
      else if (R.Trapped)
        std::snprintf(Resp, sizeof(Resp), "ERR trapped\n");
      else if (R.Cancelled)
        std::snprintf(Resp, sizeof(Resp), "ERR cancelled\n");
      else
        std::snprintf(Resp, sizeof(Resp), "ERR %s %llu\n",
                      serve::admitName(R.Outcome),
                      static_cast<unsigned long long>(R.RetryAfterNs /
                                                      1'000'000));
      sendAll(Fd, Resp);
      break;
    }
    }
  }
}

} // namespace

int main(int argc, char **argv) {
  const char *Sock = std::getenv("QCF_SERVE_SOCK");
  for (int I = 1; I < argc; ++I)
    if (!std::strcmp(argv[I], "--sock") && I + 1 < argc)
      Sock = argv[++I];
  std::string SockPath = Sock && *Sock ? Sock : "./qcf.sock";

  // A malformed environment stops the daemon before it builds or binds
  // anything.
  std::string Err;
  std::optional<serve::ServerConfig> Cfg = serve::ServerConfig::fromEnv(Err);
  auto Tenants = Cfg ? serve::tenantsFromEnv(Err) : std::nullopt;
  double Sf = 0.1;
  if (const char *E = std::getenv("QCF_SERVE_SF"); E && *E) {
    char *End = nullptr;
    Sf = std::strtod(E, &End);
    if (Err.empty() && (*End || !(Sf > 0)))
      Err = std::string("QCF_SERVE_SF=\"") + E + "\": expected a number > 0";
  }
  if (!Err.empty()) {
    std::fprintf(stderr, "qcf_serve: %s\n", Err.c_str());
    return 2;
  }

  // The corpus the daemon serves: TPC-H-like schema and queries. Column
  // addresses are baked into generated code, so the catalog is built
  // once and outlives everything.
  static db::Catalog Cat;
  db::generateTpchLike(Cat, Sf);
  static std::vector<db::Query> QueryStore = db::tpchQueries();
  std::map<std::string, const db::Query *> Queries;
  for (const db::Query &Q : QueryStore)
    Queries.emplace(Q.Name, &Q);

  serve::Server Srv(*Cfg, Cat);
  for (const auto &[Name, Quota] : *Tenants)
    Srv.registerTenant(Name, Quota);

  ::unlink(SockPath.c_str());
  int ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    std::perror("socket");
    return 1;
  }
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (SockPath.size() >= sizeof(Addr.sun_path)) {
    std::fprintf(stderr, "socket path too long: %s\n", SockPath.c_str());
    return 1;
  }
  std::strncpy(Addr.sun_path, SockPath.c_str(), sizeof(Addr.sun_path) - 1);
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
          0 ||
      ::listen(ListenFd, 64) < 0) {
    std::perror("bind/listen");
    return 1;
  }
  ListenFdForSignal = ListenFd;
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  std::printf("qcf_serve: %s backend, %u compile workers, %u slots, "
              "listening on %s\n",
              Cfg->BackendName.c_str(), Cfg->CompileWorkers,
              Cfg->Admission.Slots, SockPath.c_str());
  std::fflush(stdout);

  std::vector<std::thread> Connections;
  while (!ShutdownFlag.load(std::memory_order_acquire)) {
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      break;
    Connections.emplace_back(
        [Fd, &Srv, &Queries] { serveConnection(Fd, Srv, Queries); });
  }
  for (std::thread &T : Connections)
    T.join();
  Srv.shutdown();
  ::unlink(SockPath.c_str());
  std::printf("qcf_serve: shut down cleanly\n");
  return 0;
}
