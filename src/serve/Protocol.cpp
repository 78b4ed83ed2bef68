//===- serve/Protocol.cpp - qcf_serve request lines -----------------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"
#include <algorithm>
#include <charconv>
#include <vector>

using namespace qcf;
using namespace qcf::serve;

namespace {

Request invalid(const char *Why) {
  Request R;
  R.K = Request::Invalid;
  R.Err = Why;
  return R;
}

} // namespace

bool serve::parseU64(std::string_view S, uint64_t &V) {
  auto [End, Ec] = std::from_chars(S.data(), S.data() + S.size(), V);
  return Ec == std::errc() && End == S.data() + S.size();
}

Request serve::parseRequest(std::string_view Line) {
  if (Line.size() > MaxRequestLine)
    return invalid("line-too-long");
  if (!Line.empty() && Line.back() == '\r')
    Line.remove_suffix(1);
  std::vector<std::string_view> Tok;
  for (size_t P = 0; P < Line.size();) {
    size_t E = std::min(Line.find(' ', P), Line.size());
    if (E > P)
      Tok.push_back(Line.substr(P, E - P));
    P = E + 1;
  }
  Request R;
  if (Tok.empty())
    return R;
  std::string_view Verb = Tok[0];
  size_t Args = Tok.size() - 1;
  if (Verb == "PING" || Verb == "STATS" || Verb == "SHUTDOWN") {
    R.K = Verb == "PING"    ? Request::Ping
          : Verb == "STATS" ? Request::Stats
                            : Request::Shutdown;
    return R;
  }
  if (Verb == "OPEN" && Args >= 1) {
    R.K = Request::Open;
    R.Name = Tok[1];
    return R;
  }
  if ((Verb == "CLOSE" && Args >= 1) || (Verb == "EXEC" && Args >= 2)) {
    if (!parseU64(Tok[1], R.Session))
      return invalid("bad-session");
    if (Verb == "CLOSE") {
      R.K = Request::Close;
      return R;
    }
    uint64_t Ms = 0;
    if (Args >= 3 && (!parseU64(Tok[3], Ms) || Ms > UINT64_MAX / 1'000'000))
      return invalid("bad-deadline");
    R.K = Request::Exec;
    R.Name = Tok[2];
    R.DeadlineNs = Ms * 1'000'000;
    return R;
  }
  return invalid("bad-request");
}
