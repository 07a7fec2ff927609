//===- perfbench/src/Bench.h - Benchmark shared types ------*- C++ -*-===//
//
// Part of the SpecSync project (CGO 2004 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Types shared by the benchmark's workloads, its per-layer probe and its
/// main loop. The benchmark reaches SpecSync only through public
/// entry points (BenchmarkPipeline, Workload::Build, Interpreter, the
/// profilers, the compiler passes, simulateSequential and ThreadPool).
///
/// A *cell* is one kernel's work in a pass; a *round* is one sweep over
/// every kernel. End-to-end metrics come from untraced passes. Per-layer
/// metrics come from traced rounds: the traced passes of the workload plus
/// one probe round that sends every kernel through every layer once.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "Spans.h"

#include "harness/Pipeline.h"
#include "rt/RtOptions.h"
#include "sim/MachineConfig.h"
#include "workloads/Workload.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using specsync::BenchmarkPipeline;
using specsync::ExecMode;
using specsync::ModeRunResult;
using specsync::Workload;

/// Worker threads for every rt run. With the coordinator this is four
/// threads: the benchmark pins it instead of reading the host or
/// environment.
constexpr unsigned RtWorkers = 3;

/// The nine execution modes in the paper's order, and the perfect-load
/// thresholds the limit study sweeps.
extern const ExecMode AllModes[9];
extern const double PerfectPercents[3];

/// The fields of one simulated run that must equal the reference engine's.
struct SimDigest {
  uint64_t Cycles = 0;
  uint64_t Busy = 0, Fail = 0, SyncScalar = 0, SyncMem = 0, Total = 0;
  uint64_t EpochsCommitted = 0, Violations = 0, SabViolations = 0;
  uint64_t PredictRestarts = 0;
  uint64_t ProgramSpeedupBits = 0;
  double ProgramSpeedup = 0.0;

  static SimDigest of(const ModeRunResult &R);
  bool operator==(const SimDigest &O) const {
    return Cycles == O.Cycles && Busy == O.Busy && Fail == O.Fail &&
           SyncScalar == O.SyncScalar && SyncMem == O.SyncMem &&
           Total == O.Total && EpochsCommitted == O.EpochsCommitted &&
           Violations == O.Violations && SabViolations == O.SabViolations &&
           PredictRestarts == O.PredictRestarts &&
           ProgramSpeedupBits == O.ProgramSpeedupBits;
  }
};

/// One rt run as the correctness gate and the digest see it.
struct RtCellResult {
  char Mode = 'U';
  bool Completed = false;
  bool CountsMatch = false;
  uint64_t RtChecksum = 0;
  specsync::rt::ProtocolCounts Counts;
};

/// One cell's outputs, kept until verification after the measurement.
struct CellRecord {
  size_t Kernel = 0;
  std::vector<SimDigest> Sims;   ///< BenchWorkload::simulate's runs.
  std::vector<RtCellResult> Rts; ///< rt: runThreads(U), runThreads(C).
};

/// Per-layer accumulator over traced rounds. Each name sums its time and
/// work items; its round count grows by one for every round that touched
/// it, so name totals / rounds give per-round figures.
class LayerTally {
public:
  void add(const std::string &Name, double Ms, uint64_t Items = 0);
  void endRound();
  double perRoundMs(const std::string &Name) const;
  double totalMs(const std::string &Name) const;
  uint64_t totalItems(const std::string &Name) const;
  unsigned rounds(const std::string &Name) const;

private:
  struct Entry {
    double Ms = 0.0;
    uint64_t Items = 0;
    unsigned Rounds = 0;
    bool Touched = false;
  };
  std::map<std::string, Entry> Entries;
};

/// rt results summed over traced rounds.
struct RtTally {
  double SeqMs = 0.0, RtMs = 0.0, SpanMs = 0.0;
  uint64_t Committed = 0, Squashed = 0, WastedSteps = 0;
  void add(const specsync::rt::RtRunResult &R, double SpanMs);
};

/// Everything the benchmark's parts share during one invocation.
struct BenchContext {
  specsync::MachineConfig Config;
  specsync::rt::RtOptions Rt;
  /// Seed-wrapped kernels. Pipelines keep references into this vector, so
  /// it is filled once and never resized afterwards.
  std::vector<Workload> Kernels;
  SpanLog Spans;
  LayerTally Layers;
  RtTally RtLayer;
  /// Cell outputs awaiting verification.
  std::vector<CellRecord> Cells;

  /// True while a traced pass or the probe runs (spans and stats on).
  bool tracing() const { return Spans.enabled(); }
};

/// Returns the Table 2 kernels with \p Seed mixed into their ref and train
/// PRNG seeds (seed 0 returns them unchanged).
std::vector<Workload> seededKernels(uint64_t Seed);

/// Reads a counter of the process stat registry (0 when absent).
uint64_t statCounter(const std::string &Name);

/// Runs and records one simulated mode / perfect-load run on \p P, with a
/// span and, in traced rounds, a layer tally entry.
ModeRunResult runMode(BenchContext &Ctx, BenchmarkPipeline &P, ExecMode M);
ModeRunResult runPerfect(BenchContext &Ctx, BenchmarkPipeline &P,
                         double Percent);
/// prepare() with a span; in traced rounds also tallies the
/// harness.prepare.* phase counters it moved.
void runPrepare(BenchContext &Ctx, BenchmarkPipeline &P);
/// runThreads() with a span; returns the gate's view of the result.
RtCellResult runThreads(BenchContext &Ctx, BenchmarkPipeline &P,
                        ExecMode M);

/// One benchmark workload: set-up rounds, then passes of cells, then
/// verification of every recorded cell against an independent reference.
class BenchWorkload {
public:
  virtual ~BenchWorkload() = default;
  /// One set-up round. release() is called before each round, outside
  /// its timer, so a round never pays for dropping the previous one.
  virtual void setup(BenchContext &Ctx) = 0;
  /// One pass over every kernel. Appends the latency of each cell (ms)
  /// to \p CellMs and the cell's outputs to Ctx.Cells.
  virtual void pass(BenchContext &Ctx, std::vector<double> &CellMs) = 0;
  /// The simulated runs of one cell on prepared pipeline \p P, in order
  /// (none for rt). The correctness gate repeats them on a pipeline
  /// prepared under the reference engine.
  virtual std::vector<SimDigest> simulate(BenchContext &, BenchmarkPipeline &) {
    return {};
  }
  /// Drops set-up state.
  virtual void release() {}
};

std::unique_ptr<BenchWorkload> makeWorkload(const std::string &Name);

/// Computes the reference outputs and returns the number of recorded
/// cells that disagree with them. \p CorruptKernel >= 0 flips one
/// expected value of that kernel (test hook for the gate itself).
size_t verifyCells(BenchContext &Ctx, BenchWorkload &Work,
                   long CorruptKernel);

/// FNV-1a digest of the first pass's cell outputs (simulated results and
/// rt protocol counts), for run-to-run determinism checks.
uint64_t outputDigest(const BenchContext &Ctx);

/// Per-layer figures the probe measures directly (one round).
struct ProbeResult {
  double BuildMs = 0, LowerMs = 0;
  double PlainNs = 0, TraceNs = 0, LoopNs = 0, DepNs = 0, DepPlainNs = 0;
  uint64_t PlainInsts = 0, TraceInsts = 0, LoopInsts = 0, DepAccesses = 0;
  double TraceBytes = 0;
  double TakeMs = 0, BaseMs = 0, MemSyncMs = 0, AuditMs = 0;
  double SeqSimNs = 0;
  uint64_t SeqSimInsts = 0;
  uint64_t PrepareDynInsts = 0, PrepareNativeInsts = 0;
  uint64_t RegionInsts = 0, Squashes = 0, Commits = 0;
  double PoolTaskUs = 0;
};

/// Sends every kernel through every layer once, as one traced round.
ProbeResult runProbe(BenchContext &Ctx);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
