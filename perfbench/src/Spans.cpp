//===- perfbench/src/Spans.cpp -------------------------------*- C++ -*-===//
//
// Part of the SpecSync project (CGO 2004 reproduction).
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include "obs/Json.h"

#include <chrono>
#include <fstream>

using namespace perfbench;

uint64_t perfbench::nowNs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point Zero = Clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           Zero)
          .count());
}

int SpanLog::begin(std::string Name, uint64_t StartNs, bool NewCell,
                   std::string Label) {
  if (!Enabled)
    return -1;
  Span S;
  S.Name = std::move(Name);
  S.StartNs = StartNs;
  S.Label = std::move(Label);
  S.Parent = Open.empty() ? -1 : Open.back();
  if (NewCell)
    S.Cell = ++NextCell;
  else if (S.Parent >= 0)
    S.Cell = Spans[S.Parent].Cell;
  Spans.push_back(std::move(S));
  Open.push_back(static_cast<int>(Spans.size() - 1));
  return Open.back();
}

void SpanLog::end(int Index, uint64_t EndNs) {
  if (Index < 0)
    return;
  Spans[Index].EndNs = EndNs;
  // Scopes close in LIFO order; tolerate a log toggled mid-scope.
  while (!Open.empty() && Open.back() >= Index)
    Open.pop_back();
}

std::map<std::string, uint64_t> SpanLog::selfTimeNs() const {
  std::vector<uint64_t> ChildNs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildNs[S.Parent] += S.EndNs - S.StartNs;
  std::map<std::string, uint64_t> Self;
  for (size_t I = 0; I < Spans.size(); ++I) {
    uint64_t Dur = Spans[I].EndNs - Spans[I].StartNs;
    Self[Spans[I].Name] += Dur > ChildNs[I] ? Dur - ChildNs[I] : 0;
  }
  return Self;
}

bool SpanLog::writeChromeTrace(const std::string &Path,
                               const std::string &Meta) const {
  std::ofstream OS(Path);
  if (!OS)
    return false;
  OS << "{\"otherData\": " << Meta << ",\n\"traceEvents\": [\n";
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  "\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                  "\"dur\": %.3f, ",
                  static_cast<double>(S.StartNs) / 1e3,
                  static_cast<double>(S.EndNs - S.StartNs) / 1e3);
    OS << (I ? ",\n" : "") << "{\"name\": "
       << specsync::obs::JsonWriter::escape(S.Name) << ", " << Buf
       << "\"args\": {\"span\": " << I << ", \"parent\": " << S.Parent
       << ", \"cell\": " << S.Cell;
    if (!S.Label.empty())
      OS << ", \"label\": " << specsync::obs::JsonWriter::escape(S.Label);
    OS << "}}";
  }
  OS << "\n]}\n";
  return static_cast<bool>(OS);
}

ScopedSpan::ScopedSpan(SpanLog &Log, std::string Name, bool NewCell,
                       std::string Label)
    : Log(Log), StartNs(nowNs()) {
  Index = Log.begin(std::move(Name), StartNs, NewCell, std::move(Label));
}

uint64_t ScopedSpan::stop() {
  if (Stopped)
    return DurNs;
  uint64_t End = nowNs();
  DurNs = End - StartNs;
  Log.end(Index, End);
  Stopped = true;
  return DurNs;
}
