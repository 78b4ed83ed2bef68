//===- tools/qcf_stats.cpp - Observability dump tool -----------------------===//
//
// Part of the QCF project.
//
// Runs the benchmark query suite through a chosen back-end with the full
// observability context attached and dumps what the obs layer collected:
// the metrics registry (text or JSON) and, on request, a Perfetto-loadable
// Chrome trace of the whole run.
//
//   qcf_stats [--backend NAME] [--suite tpch|ds] [--sf N] [--json]
//             [--trace FILE]
//   qcf_stats --code-cache [DIR]
//   qcf_stats --serve [SOCK]
//
// Load the trace file at https://ui.perfetto.dev (or chrome://tracing) to
// see per-compile phase slices, cache/service events, and per-pipeline
// execution spans on their actual threads.
//
// The --code-cache mode instead inspects a persistent code-cache
// directory (DIR, or $QCF_CODE_CACHE when omitted): one line per blob
// with its validation status, key, config, and size, plus totals against
// the $QCF_CODE_CACHE_BYTES budget. Read-only — never unlinks anything.
//
// The --serve mode connects to a running qcf_serve daemon (SOCK, or
// $QCF_SERVE_SOCK when omitted), issues STATS, and prints the live
// serve.*/svc.*/cache.* registry text it returns.
//
//===----------------------------------------------------------------------===//

#include "backend/DiskCache.h"
#include "backend/Registry.h"
#include "db/Datagen.h"
#include "db/Executor.h"
#include "db/Queries.h"
#include "obs/Obs.h"
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace qcf;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--backend NAME] [--suite tpch|ds] [--sf N] "
               "[--json] [--trace FILE]\n"
               "       %s --code-cache [DIR]\n"
               "       %s --serve [SOCK]\n"
               "backends:",
               Argv0, Argv0, Argv0);
  for (const std::string &N : backend::allBackendNames())
    std::fprintf(stderr, " %s", N.c_str());
  std::fputc('\n', stderr);
  return 1;
}

/// `--code-cache`: read-only inspection of a persistent cache directory.
int inspectCodeCache(const std::string &Dir) {
  std::vector<backend::DiskCodeCache::BlobInfo> Blobs =
      backend::DiskCodeCache::scan(Dir);
  std::printf("code cache %s: %zu blob(s)\n", Dir.c_str(), Blobs.size());
  uint64_t TotalBytes = 0, ValidCount = 0;
  for (const backend::DiskCodeCache::BlobInfo &B : Blobs) {
    TotalBytes += B.SizeBytes;
    char When[32] = "?";
    time_t T = static_cast<time_t>(B.MtimeSec);
    struct tm Tm;
    if (gmtime_r(&T, &Tm))
      std::strftime(When, sizeof(When), "%Y-%m-%d %H:%M:%S", &Tm);
    if (B.Valid) {
      ++ValidCount;
      std::printf("  %-44s %9llu B  v%u  key %016llx%016llx  payload %llu B  "
                  "%s  [%s]\n",
                  B.File.c_str(), static_cast<unsigned long long>(B.SizeBytes),
                  B.Version, static_cast<unsigned long long>(B.Key.Lo),
                  static_cast<unsigned long long>(B.Key.Hi),
                  static_cast<unsigned long long>(B.PayloadBytes), When,
                  B.Config.c_str());
    } else {
      std::printf("  %-44s %9llu B  INVALID (%s)  %s\n", B.File.c_str(),
                  static_cast<unsigned long long>(B.SizeBytes),
                  B.Error.c_str(), When);
    }
  }
  std::printf("total: %llu bytes in %llu valid / %zu blobs",
              static_cast<unsigned long long>(TotalBytes),
              static_cast<unsigned long long>(ValidCount), Blobs.size());
  if (const char *Budget = std::getenv("QCF_CODE_CACHE_BYTES"))
    std::printf(" (budget QCF_CODE_CACHE_BYTES=%s)", Budget);
  std::printf("\n");
  return 0;
}

/// `--serve`: ask a live qcf_serve daemon for its metrics registry. The
/// STATS reply is the registry text terminated by a lone "." line.
int queryServeDaemon(const std::string &SockPath) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    std::perror("socket");
    return 1;
  }
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (SockPath.size() >= sizeof(Addr.sun_path)) {
    std::fprintf(stderr, "socket path too long: %s\n", SockPath.c_str());
    ::close(Fd);
    return 1;
  }
  std::strncpy(Addr.sun_path, SockPath.c_str(), sizeof(Addr.sun_path) - 1);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    std::fprintf(stderr, "cannot connect to %s: %s\n", SockPath.c_str(),
                 std::strerror(errno));
    ::close(Fd);
    return 1;
  }
  const char *Req = "STATS\n";
  if (::send(Fd, Req, std::strlen(Req), 0) < 0) {
    std::perror("send");
    ::close(Fd);
    return 1;
  }
  std::string Buf;
  char Chunk[4096];
  for (;;) {
    size_t NL;
    while ((NL = Buf.find('\n')) == std::string::npos) {
      ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
      if (N <= 0) {
        ::close(Fd);
        return 0;
      }
      Buf.append(Chunk, size_t(N));
    }
    std::string Line = Buf.substr(0, NL);
    Buf.erase(0, NL + 1);
    if (Line == ".") {
      ::close(Fd);
      return 0;
    }
    std::printf("%s\n", Line.c_str());
  }
}

} // namespace

int main(int argc, char **argv) {
  std::string BackendName = "MLVM-opt";
  std::string SuiteName = "tpch";
  std::string TracePath;
  double Sf = 1.0;
  bool Json = false;

  for (int I = 1; I < argc; ++I) {
    auto next = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    if (!std::strcmp(argv[I], "--backend")) {
      const char *V = next();
      if (!V)
        return usage(argv[0]);
      BackendName = V;
    } else if (!std::strcmp(argv[I], "--suite")) {
      const char *V = next();
      if (!V)
        return usage(argv[0]);
      SuiteName = V;
    } else if (!std::strcmp(argv[I], "--sf")) {
      const char *V = next();
      if (!V)
        return usage(argv[0]);
      Sf = std::atof(V);
    } else if (!std::strcmp(argv[I], "--trace")) {
      const char *V = next();
      if (!V)
        return usage(argv[0]);
      TracePath = V;
    } else if (!std::strcmp(argv[I], "--code-cache")) {
      std::string Dir;
      if (I + 1 < argc && argv[I + 1][0] != '-')
        Dir = argv[++I];
      else if (const char *Env = std::getenv("QCF_CODE_CACHE"))
        Dir = Env;
      if (Dir.empty()) {
        std::fprintf(stderr,
                     "--code-cache needs DIR or $QCF_CODE_CACHE set\n");
        return 1;
      }
      return inspectCodeCache(Dir);
    } else if (!std::strcmp(argv[I], "--serve")) {
      std::string SockPath;
      if (I + 1 < argc && argv[I + 1][0] != '-')
        SockPath = argv[++I];
      else if (const char *Env = std::getenv("QCF_SERVE_SOCK"))
        SockPath = Env;
      if (SockPath.empty()) {
        std::fprintf(stderr, "--serve needs SOCK or $QCF_SERVE_SOCK set\n");
        return 1;
      }
      return queryServeDaemon(SockPath);
    } else if (!std::strcmp(argv[I], "--json")) {
      Json = true;
    } else {
      return usage(argv[0]);
    }
  }

  std::unique_ptr<backend::Backend> BE = backend::createBackend(BackendName);
  if (!BE) {
    std::fprintf(stderr, "unknown backend '%s'\n", BackendName.c_str());
    return usage(argv[0]);
  }

  db::Catalog Cat;
  std::vector<db::Query> Queries;
  if (SuiteName == "tpch") {
    db::generateTpchLike(Cat, Sf);
    Queries = db::tpchQueries();
  } else if (SuiteName == "ds") {
    db::generateTpcdsLike(Cat, Sf);
    Queries = db::tpcdsQueries();
  } else {
    return usage(argv[0]);
  }

  // One registry + one sink for the whole run; every compile phase and
  // every pipeline records into them through the ObsContext.
  obs::MetricsRegistry Reg;
  obs::TraceSink Sink;

  db::ExecOptions Opts;
  Opts.Obs = obs::ObsContext(nullptr, &Reg, TracePath.empty() ? nullptr : &Sink);

  for (db::Query &Q : Queries) {
    db::CompiledPlan Plan = db::compileQuery(Q, Cat);
    rt::OutputBuffer Out;
    db::ExecResult R = db::executeQuery(Plan, *BE, Cat, &Out, Opts);
    if (R.Trapped) {
      std::fprintf(stderr, "query %s trapped\n", Q.Name.c_str());
      return 1;
    }
  }

  obs::MetricsSnapshot Snap = Reg.snapshot();
  if (Json)
    std::fputs(Snap.renderJson().c_str(), stdout);
  else
    std::fputs(Snap.renderText().c_str(), stdout);

  if (!TracePath.empty()) {
    if (!Sink.writeJsonFile(TracePath)) {
      std::fprintf(stderr, "cannot write %s\n", TracePath.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %zu trace events to %s (open in Perfetto)\n",
                 Sink.numEvents(), TracePath.c_str());
  }
  return 0;
}
