//===- perfbench/src/Spans.h - In-memory span recorder -------*- C++ -*-===//
//
// Part of the SpecSync project (CGO 2004 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans the benchmark records around its calls into the SpecSync
/// layers. A span has a name, a start and end time, the span that
/// enclosed it, and the id of the cell (one kernel's work) it belongs to.
/// Spans stay in memory and are written out as a Chrome trace when the run
/// ends. Timing is always on (the benchmark times passes and cells with the
/// same scopes); recording is on only in a traced run.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock since the benchmark started.
uint64_t nowNs();

struct Span {
  std::string Name;
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  int32_t Parent = -1; ///< Index of the enclosing span, -1 at top level.
  uint32_t Cell = 0;   ///< Shared by every span of one cell; 0 = none.
  std::string Label;   ///< Free-form detail, e.g. the cell's kernel.
};

class SpanLog {
public:
  void setEnabled(bool On) { Enabled = On; }
  bool enabled() const { return Enabled; }

  /// Opens a span; returns its index, or -1 when recording is off. A span
  /// opened with \p NewCell starts a cell; other spans inherit the cell of
  /// the span enclosing them.
  int begin(std::string Name, uint64_t StartNs, bool NewCell,
            std::string Label);
  void end(int Index, uint64_t EndNs);

  const std::vector<Span> &spans() const { return Spans; }

  /// Self time per span name: each span's duration minus the time its
  /// direct children cover (spans nest strictly on the main thread).
  std::map<std::string, uint64_t> selfTimeNs() const;

  /// Writes the spans as Chrome trace "X" events plus \p Meta (a JSON
  /// object literal) under "otherData". Returns false on I/O failure.
  bool writeChromeTrace(const std::string &Path,
                        const std::string &Meta) const;

private:
  bool Enabled = false;
  uint32_t NextCell = 0;
  std::vector<Span> Spans;
  std::vector<int> Open;
};

/// Times a scope and, when the log is recording, records it as a span.
class ScopedSpan {
public:
  ScopedSpan(SpanLog &Log, std::string Name, bool NewCell = false,
             std::string Label = {});
  ~ScopedSpan() { stop(); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  /// Ends the span now (idempotent) and returns its duration in ns.
  uint64_t stop();
  double ms() { return static_cast<double>(stop()) / 1e6; }

private:
  SpanLog &Log;
  int Index;
  uint64_t StartNs;
  uint64_t DurNs = 0;
  bool Stopped = false;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
