//===- perfbench/src/Probe.cpp - Per-layer probe round ------*- C++ -*-===//
//
// Part of the SpecSync project (CGO 2004 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's probe: one round in which every kernel goes through
/// each layer once, called directly where a layer has a public entry point
/// of its own (workload builds, lowering, interpretation with and without
/// traces, both profilers, the compiler passes, the sequential simulator)
/// and through the pipeline otherwise (prepare, every mode, the
/// perfect-load study, the rt backend). It repeats prepare()'s steps by
/// hand so each layer is timed on its own, and so it materializes the same
/// four traces per kernel that a table2 pass does.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "compiler/PassManager.h"
#include "compiler/SignalAudit.h"
#include "interp/Interpreter.h"
#include "interp/Native.h"
#include "profile/DepProfiler.h"
#include "profile/LoopProfiler.h"
#include "sim/SeqSimulator.h"
#include "support/ThreadPool.h"

#include <algorithm>

using namespace perfbench;
using namespace specsync;

namespace {

/// Bytes held by a trace's records and containers.
double traceBytes(const ProgramTrace &T) {
  double B = static_cast<double>(T.SeqInsts.size()) * sizeof(DynInst);
  for (const RegionTrace &R : T.Regions) {
    B += sizeof(RegionTrace);
    for (const EpochTrace &E : R.Epochs)
      B += sizeof(EpochTrace) + E.Insts.size() * sizeof(DynInst);
  }
  return B;
}

/// Lowers \p P for the plain and observed native tiers ahead of a timed
/// run, so interpretation timings exclude lowering.
void lower(const Program &P) {
  P.getDecoded();
  if (nativeBackendAvailable()) {
    P.getNative().module(NativeMode::Plain);
    P.getNative().module(NativeMode::Observed);
  }
}

struct Timed {
  InterpResult R;
  double Ns = 0;
};

/// One interpretation of \p P under a span.
Timed interpret(BenchContext &Ctx, const char *Span, const Program &P,
                ContextTable &Contexts, bool CollectTrace,
                ExecutionObserver *Observer = nullptr) {
  Interpreter I(P, Contexts);
  InterpOptions Opts;
  Opts.CollectTrace = CollectTrace;
  ScopedSpan S(Ctx.Spans, Span);
  Timed T;
  T.R = I.run(Opts, Observer);
  T.Ns = static_cast<double>(S.stop());
  return T;
}

std::unique_ptr<Program> build(BenchContext &Ctx, ProbeResult &Out,
                               const Workload &K, InputKind In) {
  ScopedSpan S(Ctx.Spans, "workloads.build");
  std::unique_ptr<Program> P = K.Build(In);
  Out.BuildMs += S.ms();
  return P;
}

void baseTransforms(BenchContext &Ctx, ProbeResult &Out, Program &P,
                    unsigned Factor) {
  ScopedSpan S(Ctx.Spans, "compiler.base");
  applyBaseTransforms(P, Factor);
  Out.BaseMs += S.ms();
}

/// Applies memory sync from \p Profile and audits the signal placement.
void memSync(BenchContext &Ctx, ProbeResult &Out, Program &P,
             ContextTable &Contexts, const DepProfile &Profile) {
  MemSyncOptions Opts;
  Opts.FreqThresholdPercent = 5.0; // BenchmarkPipeline's default.
  MemSyncResult MS;
  {
    ScopedSpan S(Ctx.Spans, "compiler.memsync");
    MS = applyMemSync(P, Contexts, Profile, Opts);
    Out.MemSyncMs += S.ms();
  }
  ScopedSpan S(Ctx.Spans, "compiler.audit");
  auditSignalPlacement(P, MS.NumGroups);
  Out.AuditMs += S.ms();
}

/// Runs the binary with a trace, as prepare() does for it, and counts the
/// trace's size and interpretation cost.
void traceRun(BenchContext &Ctx, ProbeResult &Out, const Program &P,
              ContextTable &Contexts) {
  Timed T = interpret(Ctx, "interp.trace", P, Contexts, true);
  Out.TraceNs += T.Ns;
  Out.TraceInsts += T.R.DynInstCount;
  Out.TraceBytes += traceBytes(T.R.Trace);
}

/// Profiles a base-transformed binary and returns its dependence profile;
/// a plain run of the same binary is the baseline the profiler's cost is
/// measured against.
DepProfile depProfile(BenchContext &Ctx, ProbeResult &Out, const Program &P,
                      ContextTable &Contexts) {
  lower(P);
  Timed Plain = interpret(Ctx, "interp.plain", P, Contexts, false);
  Out.PlainNs += Plain.Ns;
  Out.PlainInsts += Plain.R.DynInstCount;
  Out.DepPlainNs += Plain.Ns;
  DepProfiler DP;
  Timed Dep = interpret(Ctx, "profile.dep", P, Contexts, false, &DP);
  Out.DepNs += Dep.Ns;
  Out.DepAccesses += Dep.R.MemAccessCount;
  ScopedSpan S(Ctx.Spans, "profile.take");
  DepProfile Profile = DP.takeProfile();
  Out.TakeMs += S.ms();
  return Profile;
}

/// The layers below the pipeline, called directly for one kernel.
void probeLayers(BenchContext &Ctx, ProbeResult &Out, const Workload &K) {
  ContextTable Contexts;

  // The original ref program: lowering, plain and traced interpretation,
  // loop profiling, and the sequential simulator on its trace.
  std::unique_ptr<Program> Orig = build(Ctx, Out, K, InputKind::Ref);
  {
    ScopedSpan S(Ctx.Spans, "interp.lower");
    Orig->getDecoded();
    if (nativeBackendAvailable())
      Orig->getNative().module(NativeMode::Plain);
    Out.LowerMs += S.ms();
  }
  Timed Plain = interpret(Ctx, "interp.plain", *Orig, Contexts, false);
  Out.PlainNs += Plain.Ns;
  Out.PlainInsts += Plain.R.DynInstCount;

  LoopProfiler LP;
  Timed Loop = interpret(Ctx, "profile.loop", *Orig, Contexts, false, &LP);
  Out.LoopNs += Loop.Ns;
  Out.LoopInsts += Loop.R.DynInstCount;
  LoopSelectionResult Sel = selectLoop(LP.profile());
  unsigned Factor = Sel.Selected ? Sel.UnrollFactor : 1;

  {
    Timed Seq = interpret(Ctx, "interp.trace", *Orig, Contexts, true);
    Out.TraceNs += Seq.Ns;
    Out.TraceInsts += Seq.R.DynInstCount;
    Out.TraceBytes += traceBytes(Seq.R.Trace);
    ScopedSpan S(Ctx.Spans, "sim.seq");
    simulateSequential(Ctx.Config, Seq.R.Trace);
    Out.SeqSimNs += static_cast<double>(S.stop());
    Out.SeqSimInsts += Seq.R.Trace.numDynInsts();
  }
  Orig.reset();

  // Dependence profiles on the base-transformed train and ref binaries,
  // sharing one context table as the pipeline does.
  std::unique_ptr<Program> Train = build(Ctx, Out, K, InputKind::Train);
  baseTransforms(Ctx, Out, *Train, Factor);
  DepProfile TrainProfile = depProfile(Ctx, Out, *Train, Contexts);
  Train.reset();

  std::unique_ptr<Program> U = build(Ctx, Out, K, InputKind::Ref);
  baseTransforms(Ctx, Out, *U, Factor);
  DepProfile RefProfile = depProfile(Ctx, Out, *U, Contexts);
  traceRun(Ctx, Out, *U, Contexts);
  U.reset();

  // The compiler-synchronized C and T binaries and their traces.
  for (const DepProfile *Profile : {&RefProfile, &TrainProfile}) {
    std::unique_ptr<Program> P = build(Ctx, Out, K, InputKind::Ref);
    baseTransforms(Ctx, Out, *P, Factor);
    memSync(Ctx, Out, *P, Contexts, *Profile);
    traceRun(Ctx, Out, *P, Contexts);
  }
}

/// The pipeline entry points for one kernel on a fresh pipeline.
void probePipeline(BenchContext &Ctx, ProbeResult &Out, size_t KernelIdx) {
  BenchmarkPipeline P(Ctx.Kernels[KernelIdx], Ctx.Config);
  uint64_t Dyn = statCounter("interp.dyn_insts");
  uint64_t Native = statCounter("interp.native_dyn_insts");
  runPrepare(Ctx, P);
  Out.PrepareDynInsts += statCounter("interp.dyn_insts") - Dyn;
  Out.PrepareNativeInsts += statCounter("interp.native_dyn_insts") - Native;

  auto count = [&Out](const ModeRunResult &R) {
    Out.Squashes += R.Sim.Violations + R.Sim.SabViolations;
    Out.Commits += R.Sim.EpochsCommitted;
  };
  auto simulatedInsts = [] {
    uint64_t N = 0;
    for (ExecMode M : AllModes)
      N += statCounter(std::string("harness.run.") + modeName(M) + ".items");
    return N;
  };
  uint64_t Items = simulatedInsts();
  for (ExecMode M : AllModes)
    count(runMode(Ctx, P, M));
  for (double Pct : PerfectPercents)
    count(runPerfect(Ctx, P, Pct));
  Out.RegionInsts += simulatedInsts() - Items;

  CellRecord Rec;
  Rec.Kernel = KernelIdx;
  for (ExecMode M : {ExecMode::U, ExecMode::C})
    Rec.Rts.push_back(runThreads(Ctx, P, M));
  Ctx.Cells.push_back(std::move(Rec));
}

/// Submit-to-complete time of an empty task on an idle pool of the rt
/// worker count: the per-epoch dispatch cost of the rt backend.
double poolTaskUs(BenchContext &Ctx) {
  ScopedSpan S(Ctx.Spans, "support.pool");
  ThreadPool Pool(RtWorkers);
  std::vector<double> Us;
  for (int I = 0; I < 2200; ++I) {
    uint64_t T0 = nowNs();
    Pool.submit([] {});
    Pool.waitIdle();
    if (I >= 200) // The first tasks warm the workers up.
      Us.push_back(static_cast<double>(nowNs() - T0) / 1e3);
  }
  std::nth_element(Us.begin(), Us.begin() + Us.size() / 2, Us.end());
  return Us[Us.size() / 2];
}

} // namespace

ProbeResult perfbench::runProbe(BenchContext &Ctx) {
  ProbeResult Out;
  ScopedSpan Round(Ctx.Spans, "probe");
  for (size_t I = 0; I < Ctx.Kernels.size(); ++I) {
    ScopedSpan Cell(Ctx.Spans, "probe.cell", /*NewCell=*/true,
                    Ctx.Kernels[I].Name);
    probeLayers(Ctx, Out, Ctx.Kernels[I]);
    probePipeline(Ctx, Out, I);
  }
  Out.PoolTaskUs = poolTaskUs(Ctx);
  return Out;
}
