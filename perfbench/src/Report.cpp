//===- perfbench/src/Report.cpp - Samples, spans and the result line ------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "Report.h"
#include "support/TimeTrace.h"
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <unordered_map>

namespace qcf::perfbench {

double nearestRank(std::vector<double> Samples, double P) {
  if (Samples.empty())
    return 0;
  std::sort(Samples.begin(), Samples.end());
  size_t Rank = static_cast<size_t>(std::ceil(P * double(Samples.size())));
  Rank = std::clamp<size_t>(Rank, 1, Samples.size());
  return Samples[Rank - 1];
}

uint64_t samplesAbove(uint64_t N, double P) {
  uint64_t Rank = static_cast<uint64_t>(std::ceil(P * double(N)));
  return N > Rank ? N - Rank : 0;
}

bool validMetricName(const std::string &Name) {
  if (Name.empty() || Name.size() > 64 || !std::isalnum((unsigned char)Name[0]))
    return false;
  for (char C : Name)
    if (!std::isalnum((unsigned char)C) && C != '_' && C != '.' && C != '-')
      return false;
  return true;
}

std::map<std::string, SpanStats> spanStats(const std::vector<Span> &Spans) {
  std::unordered_map<uint32_t, std::vector<const Span *>> Children;
  for (const Span &S : Spans)
    if (S.Parent)
      Children[S.Parent].push_back(&S);

  std::map<std::string, SpanStats> Out;
  std::vector<std::pair<uint64_t, uint64_t>> Iv;
  for (const Span &S : Spans) {
    uint64_t Dur = S.EndNs - S.StartNs;
    // Union of the children's intervals, clipped to this span.
    uint64_t Covered = 0;
    auto It = Children.find(S.Id);
    if (It != Children.end()) {
      Iv.clear();
      for (const Span *C : It->second) {
        uint64_t B = std::max(C->StartNs, S.StartNs);
        uint64_t E = std::min(C->EndNs, S.EndNs);
        if (B < E)
          Iv.emplace_back(B, E);
      }
      std::sort(Iv.begin(), Iv.end());
      uint64_t CurB = 0, CurE = 0;
      for (auto [B, E] : Iv) {
        if (B > CurE) {
          Covered += CurE - CurB;
          CurB = B;
          CurE = E;
        } else {
          CurE = std::max(CurE, E);
        }
      }
      Covered += CurE - CurB;
    }
    SpanStats &St = Out[S.Name];
    ++St.Count;
    St.TotalNs += Dur;
    St.SelfNs += Dur - std::min(Dur, Covered);
    St.DurNs.push_back(double(Dur));
  }
  return Out;
}

SpanRecorder &SpanRecorder::global() {
  static SpanRecorder R;
  return R;
}

void SpanRecorder::add(const Span &S) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans.push_back(S);
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Spans;
}

bool SpanRecorder::writeChromeTrace(const std::string &Path,
                                    size_t MaxEvents) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::lock_guard<std::mutex> Lock(Mutex);
  uint64_t Base = Spans.empty() ? 0 : Spans.front().StartNs;
  for (const Span &S : Spans)
    Base = std::min(Base, S.StartNs);
  std::fprintf(F, "{\"traceEvents\":[");
  size_t N = std::min(MaxEvents, Spans.size());
  for (size_t I = 0; I != N; ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u,"
                 "\"query\":%llu}}",
                 I ? "," : "", S.Name, S.Thread, double(S.StartNs - Base) / 1e3,
                 double(S.EndNs - S.StartNs) / 1e3, S.Id, S.Parent,
                 static_cast<unsigned long long>(S.QueryId));
  }
  std::fprintf(F, "\n],\"otherData\":{\"spans\":%zu,\"written\":%zu}}\n",
               Spans.size(), N);
  return std::fclose(F) == 0;
}

namespace {
thread_local uint32_t CurrentSpan = 0;
std::atomic<uint32_t> NextThread{1};
thread_local uint32_t ThreadIndex = 0;
} // namespace

SpanScope::SpanScope(const char *Name, uint64_t QueryId, uint32_t Parent)
    : Active(SpanRecorder::global().enabled()) {
  if (!Active)
    return;
  if (!ThreadIndex)
    ThreadIndex = NextThread.fetch_add(1, std::memory_order_relaxed);
  S.Name = Name;
  S.Id = SpanRecorder::global().nextId();
  S.Parent = Parent ? Parent : CurrentSpan;
  S.Thread = ThreadIndex;
  S.QueryId = QueryId;
  PrevParent = CurrentSpan;
  CurrentSpan = S.Id;
  S.StartNs = nowNs();
}

SpanScope::~SpanScope() {
  if (!Active)
    return;
  S.EndNs = nowNs();
  CurrentSpan = PrevParent;
  SpanRecorder::global().add(S);
}

void Result::metric(const std::string &Name, double Value,
                    const std::string &Unit) {
  Entries.push_back({Name, Value, Unit});
}

std::string Result::table() const {
  std::string Out;
  char Buf[160];
  for (const Entry &E : Entries) {
    std::snprintf(Buf, sizeof(Buf), "  %-40s %16.6f %s\n", E.Name.c_str(),
                  E.Value, E.Unit.c_str());
    Out += Buf;
  }
  return Out;
}

std::string Result::jsonLine() const {
  char Buf[96];
  std::string Out = "{\"correct\": ";
  Out += Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted);
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"metrics\": {";
  for (size_t I = 0; I != Entries.size(); ++I) {
    const Entry &E = Entries[I];
    double V = std::isfinite(E.Value) ? E.Value : 0.0;
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    Out += (I ? ", \"" : "\"") + E.Name + "\": {\"value\": " + Buf +
           ", \"unit\": \"" + E.Unit + "\"}";
  }
  return Out + "}}";
}

} // namespace qcf::perfbench
