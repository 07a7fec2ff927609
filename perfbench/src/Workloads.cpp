//===- perfbench/src/Workloads.cpp - table2 and rt ----------*- C++ -*-===//
//
// Part of the SpecSync project (CGO 2004 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's workloads, the seeded kernel set they share, and the
/// correctness gate that checks every recorded cell afterwards:
///  - table2: per kernel, a fresh pipeline runs prepare(), run(C), run(B);
///  - modes:  prepared pipelines run all nine modes and the perfect-load
///            study;
///  - rt:     prepared pipelines run runThreads(U) and runThreads(C).
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "interp/Interpreter.h"
#include "obs/StatRegistry.h"

#include <algorithm>
#include <cstring>

using namespace perfbench;
using namespace specsync;

const ExecMode perfbench::AllModes[9] = {
    ExecMode::U, ExecMode::O, ExecMode::T, ExecMode::C, ExecMode::E,
    ExecMode::L, ExecMode::P, ExecMode::H, ExecMode::B};
const double perfbench::PerfectPercents[3] = {25.0, 15.0, 5.0};

SimDigest SimDigest::of(const ModeRunResult &R) {
  SimDigest D;
  D.Cycles = R.Sim.Cycles;
  D.Busy = R.Sim.Slots.Busy;
  D.Fail = R.Sim.Slots.Fail;
  D.SyncScalar = R.Sim.Slots.SyncScalar;
  D.SyncMem = R.Sim.Slots.SyncMem;
  D.Total = R.Sim.Slots.Total;
  D.EpochsCommitted = R.Sim.EpochsCommitted;
  D.Violations = R.Sim.Violations;
  D.SabViolations = R.Sim.SabViolations;
  D.PredictRestarts = R.Sim.PredictRestarts;
  D.ProgramSpeedup = R.ProgramSpeedup;
  std::memcpy(&D.ProgramSpeedupBits, &R.ProgramSpeedup, sizeof(double));
  return D;
}

void LayerTally::add(const std::string &Name, double Ms, uint64_t Items) {
  Entry &E = Entries[Name];
  E.Ms += Ms;
  E.Items += Items;
  E.Touched = true;
}

void LayerTally::endRound() {
  for (auto &[Name, E] : Entries)
    if (E.Touched) {
      ++E.Rounds;
      E.Touched = false;
    }
}

double LayerTally::totalMs(const std::string &Name) const {
  auto It = Entries.find(Name);
  return It == Entries.end() ? 0.0 : It->second.Ms;
}

uint64_t LayerTally::totalItems(const std::string &Name) const {
  auto It = Entries.find(Name);
  return It == Entries.end() ? 0 : It->second.Items;
}

unsigned LayerTally::rounds(const std::string &Name) const {
  auto It = Entries.find(Name);
  return It == Entries.end() ? 0 : It->second.Rounds;
}

double LayerTally::perRoundMs(const std::string &Name) const {
  unsigned R = rounds(Name);
  return R ? totalMs(Name) / R : 0.0;
}

void RtTally::add(const rt::RtRunResult &R, double Span) {
  SeqMs += R.SeqWallMs;
  RtMs += R.RtWallMs;
  SpanMs += Span;
  Committed += R.Counts.EpochsCommitted;
  Squashed += R.Counts.EpochsSquashed;
  WastedSteps += R.WastedSteps;
}

/// SplitMix64 finalizer: spreads a benchmark seed over all 64 bits.
static uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

std::vector<Workload> perfbench::seededKernels(uint64_t Seed) {
  std::vector<Workload> Out;
  for (const Workload &W : allWorkloads()) {
    Workload S = W;
    // The kernels' ref/train PRNG seeds are their inputs. A nonzero
    // benchmark seed replaces each with a mix of it and the benchmark
    // seed; the program sees only the generated stream.
    if (Seed != 0)
      S.Build = [Orig = W.Build, Salt = mix64(Seed)](InputKind K) {
        std::unique_ptr<Program> P = Orig(K);
        P->setRandSeed(mix64(P->getRandSeed() ^ Salt) | 1);
        return P;
      };
    Out.push_back(std::move(S));
  }
  return Out;
}

uint64_t perfbench::statCounter(const std::string &Name) {
  return obs::StatRegistry::process().counter(Name)->Value;
}

ModeRunResult perfbench::runMode(BenchContext &Ctx, BenchmarkPipeline &P,
                                 ExecMode M) {
  std::string Name = std::string("harness.run.") + modeName(M);
  uint64_t Items = Ctx.tracing() ? statCounter(Name + ".items") : 0;
  ScopedSpan S(Ctx.Spans, Name);
  ModeRunResult R = P.run(M);
  double Ms = S.ms();
  if (Ctx.tracing())
    Ctx.Layers.add(Name, Ms, statCounter(Name + ".items") - Items);
  return R;
}

ModeRunResult perfbench::runPerfect(BenchContext &Ctx, BenchmarkPipeline &P,
                                    double Percent) {
  // The limit study simulates the U trace, under U's phase timer.
  const std::string Counter = "harness.run.U.items";
  uint64_t Items = Ctx.tracing() ? statCounter(Counter) : 0;
  ScopedSpan S(Ctx.Spans, "harness.perfect");
  ModeRunResult R = P.runWithPerfectLoads(Percent);
  double Ms = S.ms();
  if (Ctx.tracing())
    Ctx.Layers.add("harness.perfect", Ms, statCounter(Counter) - Items);
  return R;
}

/// The phases prepare() times with its own harness.prepare.* counters.
static const char *const PreparePhases[] = {
    "loop_profile", "train_profile", "ref_profile",
    "seq_baseline", "build_c",       "build_t"};

void perfbench::runPrepare(BenchContext &Ctx, BenchmarkPipeline &P) {
  uint64_t Before[std::size(PreparePhases)] = {};
  if (Ctx.tracing())
    for (size_t I = 0; I < std::size(PreparePhases); ++I)
      Before[I] = statCounter(std::string("harness.prepare.") +
                              PreparePhases[I] + ".ns");
  ScopedSpan S(Ctx.Spans, "harness.prepare");
  P.prepare();
  double Ms = S.ms();
  if (!Ctx.tracing())
    return;
  Ctx.Layers.add("harness.prepare", Ms);
  for (size_t I = 0; I < std::size(PreparePhases); ++I) {
    std::string Name = std::string("harness.prepare.") + PreparePhases[I];
    Ctx.Layers.add(Name, (statCounter(Name + ".ns") - Before[I]) / 1e6);
  }
}

RtCellResult perfbench::runThreads(BenchContext &Ctx, BenchmarkPipeline &P,
                                   ExecMode M) {
  ScopedSpan S(Ctx.Spans, "harness.run_threads");
  rt::RtRunResult R = P.runThreads(M, Ctx.Rt);
  double Ms = S.ms();
  if (Ctx.tracing()) {
    Ctx.Layers.add("harness.run_threads", Ms);
    Ctx.RtLayer.add(R, Ms);
  }
  RtCellResult C;
  C.Mode = modeName(M)[0];
  C.Completed = R.Completed;
  C.CountsMatch = R.CountsMatch;
  C.RtChecksum = R.RtChecksum;
  C.Counts = R.Counts;
  return C;
}

namespace {

/// Fresh pipelines per cell: the headline reproduction sweep.
class Table2Workload : public BenchWorkload {
public:
  /// Warm-up: prepares every kernel once on a pipeline that is dropped
  /// right away, so lazily built process state exists before timing.
  void setup(BenchContext &Ctx) override {
    for (const Workload &K : Ctx.Kernels) {
      BenchmarkPipeline P(K, Ctx.Config);
      P.prepare();
    }
  }

  void pass(BenchContext &Ctx, std::vector<double> &CellMs) override {
    for (size_t I = 0; I < Ctx.Kernels.size(); ++I) {
      ScopedSpan Cell(Ctx.Spans, "cell", /*NewCell=*/true,
                      Ctx.Kernels[I].Name);
      CellRecord Rec;
      Rec.Kernel = I;
      {
        BenchmarkPipeline P(Ctx.Kernels[I], Ctx.Config);
        runPrepare(Ctx, P);
        Rec.Sims = simulate(Ctx, P);
      }
      CellMs.push_back(Cell.ms());
      Ctx.Cells.push_back(std::move(Rec));
    }
  }

  std::vector<SimDigest> simulate(BenchContext &Ctx,
                                  BenchmarkPipeline &P) override {
    return {SimDigest::of(runMode(Ctx, P, ExecMode::C)),
            SimDigest::of(runMode(Ctx, P, ExecMode::B))};
  }
};

/// Pipelines prepared during set-up and held for the whole run. The 15
/// prepare() calls are the set-up time.
class PreparedWorkload : public BenchWorkload {
public:
  void setup(BenchContext &Ctx) override {
    for (const Workload &K : Ctx.Kernels) {
      Pipes.push_back(std::make_unique<BenchmarkPipeline>(K, Ctx.Config));
      Pipes.back()->prepare();
    }
  }

  void release() override { Pipes.clear(); }

protected:
  std::vector<std::unique_ptr<BenchmarkPipeline>> Pipes;
};

/// Every simulated mode and the perfect-load study on each prepared
/// kernel: the TLS timing simulator, with no interpretation.
class ModesWorkload : public PreparedWorkload {
public:
  void pass(BenchContext &Ctx, std::vector<double> &CellMs) override {
    for (size_t I = 0; I < Pipes.size(); ++I) {
      ScopedSpan Cell(Ctx.Spans, "cell", /*NewCell=*/true,
                      Ctx.Kernels[I].Name);
      CellRecord Rec;
      Rec.Kernel = I;
      Rec.Sims = simulate(Ctx, *Pipes[I]);
      CellMs.push_back(Cell.ms());
      Ctx.Cells.push_back(std::move(Rec));
    }
  }

  std::vector<SimDigest> simulate(BenchContext &Ctx,
                                  BenchmarkPipeline &P) override {
    std::vector<SimDigest> Out;
    for (ExecMode M : AllModes)
      Out.push_back(SimDigest::of(runMode(Ctx, P, M)));
    for (double Pct : PerfectPercents)
      Out.push_back(SimDigest::of(runPerfect(Ctx, P, Pct)));
    return Out;
  }
};

/// The real-threads backend on each kernel's U and C binaries.
class RtWorkload : public PreparedWorkload {
public:
  void pass(BenchContext &Ctx, std::vector<double> &CellMs) override {
    for (size_t I = 0; I < Pipes.size(); ++I) {
      ScopedSpan Cell(Ctx.Spans, "cell", /*NewCell=*/true,
                      Ctx.Kernels[I].Name);
      CellRecord Rec;
      Rec.Kernel = I;
      for (ExecMode M : {ExecMode::U, ExecMode::C})
        Rec.Rts.push_back(runThreads(Ctx, *Pipes[I], M));
      CellMs.push_back(Cell.ms());
      Ctx.Cells.push_back(std::move(Rec));
    }
  }
};

/// Installs a process-wide default engine for a scope and restores the
/// previous one.
class ScopedEngine {
public:
  explicit ScopedEngine(InterpEngine E) : Prev(defaultInterpEngine()) {
    setDefaultInterpEngine(E);
  }
  ~ScopedEngine() { setDefaultInterpEngine(Prev); }
  ScopedEngine(const ScopedEngine &) = delete;
  ScopedEngine &operator=(const ScopedEngine &) = delete;

private:
  InterpEngine Prev;
};

} // namespace

std::unique_ptr<BenchWorkload> perfbench::makeWorkload(const std::string &N) {
  if (N == "table2")
    return std::make_unique<Table2Workload>();
  if (N == "modes")
    return std::make_unique<ModesWorkload>();
  if (N == "rt")
    return std::make_unique<RtWorkload>();
  return nullptr;
}

size_t perfbench::verifyCells(BenchContext &Ctx, BenchWorkload &Work,
                              long CorruptKernel) {
  size_t NumKernels = Ctx.Kernels.size();
  std::vector<bool> NeedSims(NumKernels, false), NeedSum(NumKernels, false);
  for (const CellRecord &C : Ctx.Cells) {
    NeedSims[C.Kernel] = NeedSims[C.Kernel] || !C.Sims.empty();
    NeedSum[C.Kernel] = NeedSum[C.Kernel] || !C.Rts.empty();
  }

  // Simulated results: the same runs on a pipeline whose every
  // interpretation uses the reference engine.
  std::vector<std::vector<SimDigest>> Sims(NumKernels);
  {
    ScopedEngine Ref(InterpEngine::Reference);
    for (size_t K = 0; K < NumKernels; ++K) {
      if (!NeedSims[K])
        continue;
      BenchmarkPipeline P(Ctx.Kernels[K], Ctx.Config);
      Sims[K] = Work.simulate(Ctx, P);
    }
  }

  // rt runs: the final-memory checksum of the untransformed ref program
  // under the reference engine, which no transform or backend touched.
  std::vector<uint64_t> Sums(NumKernels, 0);
  for (size_t K = 0; K < NumKernels; ++K) {
    if (!NeedSum[K])
      continue;
    std::unique_ptr<Program> P = Ctx.Kernels[K].Build(InputKind::Ref);
    ContextTable Contexts;
    Interpreter I(*P, Contexts);
    InterpOptions Opts;
    Opts.CollectTrace = false;
    Opts.Engine = InterpEngine::Reference;
    Sums[K] = I.run(Opts).MemoryChecksum;
  }

  if (CorruptKernel >= 0 && static_cast<size_t>(CorruptKernel) < NumKernels) {
    size_t K = static_cast<size_t>(CorruptKernel);
    Sums[K] ^= 1;
    if (!Sims[K].empty())
      Sims[K][0].Cycles ^= 1;
  }

  size_t Failed = 0;
  for (const CellRecord &C : Ctx.Cells) {
    bool Ok = true;
    if (!C.Sims.empty())
      Ok = C.Sims.size() == Sims[C.Kernel].size() &&
           std::equal(C.Sims.begin(), C.Sims.end(), Sims[C.Kernel].begin());
    for (const RtCellResult &R : C.Rts)
      Ok = Ok && R.Completed && R.CountsMatch &&
           R.RtChecksum == Sums[C.Kernel];
    Failed += Ok ? 0 : 1;
  }
  return Failed;
}

uint64_t perfbench::outputDigest(const BenchContext &Ctx) {
  uint64_t H = 0xcbf29ce484222325ull;
  auto mixIn = [&H](uint64_t V) {
    for (int B = 0; B < 8; ++B) {
      H ^= (V >> (8 * B)) & 0xff;
      H *= 0x100000001b3ull;
    }
  };
  for (const CellRecord &C : Ctx.Cells) {
    mixIn(C.Kernel);
    for (const SimDigest &D : C.Sims)
      for (uint64_t V : {D.Cycles, D.Busy, D.Fail, D.SyncScalar, D.SyncMem,
                         D.Total, D.EpochsCommitted, D.Violations,
                         D.SabViolations, D.PredictRestarts,
                         D.ProgramSpeedupBits})
        mixIn(V);
    for (const RtCellResult &R : C.Rts) {
      const rt::ProtocolCounts &N = R.Counts;
      for (uint64_t V : {uint64_t(R.Mode), R.RtChecksum, N.Regions,
                         N.EpochsCommitted, N.EpochsSquashed, N.Violations,
                         N.SabViolations, N.SyncStallsScalar,
                         N.SyncStallsMem})
        mixIn(V);
    }
  }
  return H;
}
