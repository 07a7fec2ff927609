//===- perfbench/src/main.cpp - SpecSync benchmark -----------*- C++ -*-===//
//
// Part of the SpecSync project (CGO 2004 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Single-process benchmark program. Usage:
///
///   perfbench --workload table2|modes|rt --seed N --seconds S
///             --trace 0|1 [--out-dir DIR] [--source-id ID]
///             [--corrupt-expected K]
///
/// It pins its configuration (native engine, no experiment runner or
/// result cache, rt at three workers) and refuses to run when any
/// SPECSYNC_* variable is set, so nothing in the environment can change
/// what is measured. It runs the workload's five set-up rounds, then
/// passes for S seconds, then checks every cell against an independent
/// reference.
/// The last stdout line is one JSON object: correct, attempted, failed and
/// metrics (end-to-end metrics untraced, per-layer metrics traced). A
/// report file and, when traced, a Chrome-trace span file go to --out-dir.
///
/// --corrupt-expected exists for the benchmark's own tests of the
/// correctness gate.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "interp/Interpreter.h"
#include "interp/Native.h"
#include "obs/Json.h"
#include "obs/StatRegistry.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <sys/resource.h>
#include <thread>

extern char **environ;

using namespace perfbench;
using namespace specsync;

namespace {

/// Set-up rounds per run; setup_s is their median.
constexpr unsigned SetupRounds = 5;

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
  std::string OutDir = ".";
  std::string SourceId = "unknown";
  long CorruptExpected = -1;
};

[[noreturn]] void usage(const std::string &Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "table2|modes|rt --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR] [--source-id ID] [--corrupt-expected K]\n",
               Why.c_str());
  std::exit(2);
}

bool parseUnsigned(const std::string &S, uint64_t &Out) {
  if (S.empty() || S.find_first_not_of("0123456789") != std::string::npos)
    return false;
  errno = 0;
  Out = std::strtoull(S.c_str(), nullptr, 10);
  return errno == 0;
}

Args parseArgs(int argc, char **argv) {
  Args A;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < argc; ++I) {
    std::string Flag = argv[I];
    if (I + 1 >= argc)
      usage("missing value for " + Flag);
    std::string V = argv[++I];
    uint64_t N = 0;
    if (Flag == "--workload") {
      A.Workload = V;
    } else if (Flag == "--seed") {
      HaveSeed = parseUnsigned(V, A.Seed);
      if (!HaveSeed)
        usage("bad --seed '" + V + "'");
    } else if (Flag == "--seconds") {
      char *End = nullptr;
      A.Seconds = std::strtod(V.c_str(), &End);
      HaveSeconds = End && *End == '\0' && A.Seconds > 0 &&
                    std::isfinite(A.Seconds);
      if (!HaveSeconds)
        usage("bad --seconds '" + V + "'");
    } else if (Flag == "--trace") {
      HaveTrace = V == "0" || V == "1";
      if (!HaveTrace)
        usage("bad --trace '" + V + "'");
      A.Trace = V == "1";
    } else if (Flag == "--out-dir") {
      A.OutDir = V;
    } else if (Flag == "--source-id") {
      A.SourceId = V;
    } else if (Flag == "--corrupt-expected") {
      if (!parseUnsigned(V, N) || N > 1000)
        usage("bad --corrupt-expected '" + V + "'");
      A.CorruptExpected = static_cast<long>(N);
    } else {
      usage("unknown flag " + Flag);
    }
  }
  if (A.Workload.empty() || !HaveSeed || !HaveSeconds || !HaveTrace)
    usage("--workload, --seed, --seconds and --trace are required");
  return A;
}

/// SpecSync reads SPECSYNC_* variables for its engine, job count, result
/// cache and observability sinks; any of them would change what is
/// measured, so the benchmark refuses to run under one.
void rejectAmbientConfig() {
  std::string Found;
  for (char **E = environ; *E; ++E)
    if (std::strncmp(*E, "SPECSYNC_", 9) == 0)
      Found += std::string(Found.empty() ? "" : ", ") +
               std::string(*E).substr(0, std::string(*E).find('='));
  if (!Found.empty()) {
    std::fprintf(stderr,
                 "perfbench: refusing to run with %s set; the benchmark "
                 "pins its own configuration\n",
                 Found.c_str());
    std::exit(2);
  }
}

void setTracing(BenchContext &Ctx, bool On) {
  Ctx.Spans.setEnabled(On);
  obs::StatRegistry::setEnabled(On);
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Linear-interpolation quantile, \p Q in [0, 1].
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

/// CPU seconds (user, system) and minor page faults of this process.
struct Usage {
  double User = 0, Sys = 0, MinFlt = 0;
  static Usage now() {
    struct rusage RU;
    getrusage(RUSAGE_SELF, &RU);
    Usage U;
    U.User = RU.ru_utime.tv_sec + RU.ru_utime.tv_usec / 1e6;
    U.Sys = RU.ru_stime.tv_sec + RU.ru_stime.tv_usec / 1e6;
    U.MinFlt = static_cast<double>(RU.ru_minflt);
    return U;
  }
};

double peakRssMb() {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

double ratio(double Num, double Den) { return Den != 0 ? Num / Den : 0.0; }

/// Per-layer metrics from the traced rounds and the probe.
std::vector<Metric> layerMetrics(const BenchContext &Ctx, const ProbeResult &P,
                                 double OverheadPct) {
  const LayerTally &L = Ctx.Layers;
  std::vector<Metric> M;
  M.push_back({"harness.prepare_ms", L.perRoundMs("harness.prepare"), "ms"});
  double Phases = 0;
  for (const char *Ph : {"loop_profile", "train_profile", "ref_profile",
                         "seq_baseline", "build_c", "build_t"}) {
    std::string Name = std::string("harness.prepare.") + Ph;
    M.push_back({Name + "_ms", L.perRoundMs(Name), "ms"});
    Phases += L.perRoundMs(Name);
  }
  M.push_back({"harness.prepare.accounted_pct",
               100.0 * ratio(Phases, L.perRoundMs("harness.prepare")), "%"});
  double SimMs = 0;
  uint64_t SimItems = 0;
  for (ExecMode Mode : AllModes) {
    std::string Name = std::string("harness.run.") + modeName(Mode);
    M.push_back({Name + "_ms", L.perRoundMs(Name), "ms"});
    SimMs += L.totalMs(Name);
    SimItems += L.totalItems(Name);
  }
  M.push_back({"harness.perfect_ms", L.perRoundMs("harness.perfect"), "ms"});
  SimMs += L.totalMs("harness.perfect");
  SimItems += L.totalItems("harness.perfect");
  M.push_back(
      {"harness.run_threads_ms", L.perRoundMs("harness.run_threads"), "ms"});

  M.push_back({"workloads.build_ms", P.BuildMs, "ms"});
  M.push_back({"interp.lower_ms", P.LowerMs, "ms"});
  M.push_back({"interp.plain_ns_per_inst",
               ratio(P.PlainNs, static_cast<double>(P.PlainInsts)),
               "ns/inst"});
  M.push_back({"interp.trace_ns_per_inst",
               ratio(P.TraceNs, static_cast<double>(P.TraceInsts)),
               "ns/inst"});
  M.push_back({"interp.trace_mb", P.TraceBytes / (1024.0 * 1024.0), "MB"});
  M.push_back({"interp.dyn_insts", static_cast<double>(P.PrepareDynInsts),
               "count"});
  M.push_back({"interp.native_share",
               ratio(static_cast<double>(P.PrepareNativeInsts),
                     static_cast<double>(P.PrepareDynInsts)),
               "ratio"});

  M.push_back({"profile.dep_ns_per_access",
               ratio(P.DepNs - P.DepPlainNs,
                     static_cast<double>(P.DepAccesses)),
               "ns/access"});
  M.push_back({"profile.loop_ns_per_inst",
               ratio(P.LoopNs, static_cast<double>(P.LoopInsts)), "ns/inst"});
  M.push_back({"profile.take_ms", P.TakeMs, "ms"});

  M.push_back({"compiler.base_ms", P.BaseMs, "ms"});
  M.push_back({"compiler.memsync_ms", P.MemSyncMs, "ms"});
  M.push_back({"compiler.audit_ms", P.AuditMs, "ms"});

  M.push_back({"sim.seq_ns_per_inst",
               ratio(P.SeqSimNs, static_cast<double>(P.SeqSimInsts)),
               "ns/inst"});
  M.push_back({"sim.ns_per_inst",
               ratio(SimMs * 1e6, static_cast<double>(SimItems)), "ns/inst"});
  M.push_back({"sim.region_insts", static_cast<double>(P.RegionInsts),
               "count"});
  M.push_back({"sim.squashes_per_commit",
               ratio(static_cast<double>(P.Squashes),
                     static_cast<double>(P.Commits)),
               "ratio"});

  const RtTally &R = Ctx.RtLayer;
  double Rounds = L.rounds("harness.run_threads");
  double Attempts = static_cast<double>(R.Committed + R.Squashed);
  M.push_back({"rt.attempt_us", ratio(R.RtMs * 1e3, Attempts), "us"});
  M.push_back({"rt.commit_ratio",
               ratio(static_cast<double>(R.Committed), Attempts), "ratio"});
  M.push_back({"rt.wasted_steps",
               ratio(static_cast<double>(R.WastedSteps), Rounds), "count"});
  M.push_back({"rt.seq_ms", ratio(R.SeqMs, Rounds), "ms"});
  M.push_back({"rt.wall_ms", ratio(R.RtMs, Rounds), "ms"});
  M.push_back({"rt.speedup", ratio(R.SeqMs, R.RtMs), "x"});
  M.push_back({"rt.overhead_ms",
               ratio(R.SpanMs - R.SeqMs - R.RtMs, Rounds), "ms"});

  M.push_back({"support.pool_task_us", P.PoolTaskUs, "us"});
  M.push_back({"trace.overhead_pct", OverheadPct, "%"});
  return M;
}

void writeMetricsJson(obs::JsonWriter &W, const std::vector<Metric> &Ms) {
  W.beginObject();
  for (const Metric &M : Ms) {
    W.key(M.Name);
    W.beginObject();
    W.keyValue("value", M.Value);
    W.keyValue("unit", M.Unit);
    W.endObject();
  }
  W.endObject();
}

void writeSamples(obs::JsonWriter &W, const char *Key,
                  const std::vector<double> &V) {
  W.key(Key);
  W.beginArray();
  for (double D : V)
    W.value(D);
  W.endArray();
}

/// What one invocation measured, in run order.
struct RunSamples {
  std::vector<double> SetupS, PassS, TracedPassS, CellMs;
  /// Per untraced pass: the median and 90th-percentile cell latency.
  std::vector<double> PassCellP50, PassCellP90;
  std::vector<double> PassUser, PassSys, PassFaults; ///< Every pass.
  uint64_t Digest = 0;
};

/// Set-up rounds, then passes for \p A.Seconds. A traced run alternates
/// untraced and traced passes; the ratio of their medians is the tracing
/// overhead. Untraced passes alone supply the latency samples. Cell
/// percentiles are taken per pass and then the median over passes, so a
/// burst of host contention that slows a few passes cannot move them.
RunSamples measure(const Args &A, BenchWorkload &Work, BenchContext &Ctx) {
  RunSamples S;
  for (unsigned I = 0; I < SetupRounds; ++I) {
    Work.release(); // Untimed: a round times only its own set-up.
    uint64_t T0 = nowNs();
    Work.setup(Ctx); // The workload keeps the last round's state.
    S.SetupS.push_back(static_cast<double>(nowNs() - T0) / 1e9);
  }
  uint64_t Start = nowNs();
  for (unsigned N = 0;; ++N) {
    bool Traced = A.Trace && N % 2 == 1;
    setTracing(Ctx, Traced);
    std::vector<double> PassCells;
    Usage U0 = Usage::now();
    double Secs = 0;
    {
      ScopedSpan Pass(Ctx.Spans, "pass");
      Work.pass(Ctx, PassCells);
      Secs = static_cast<double>(Pass.stop()) / 1e9;
    }
    Usage U1 = Usage::now();
    S.PassUser.push_back(U1.User - U0.User);
    S.PassSys.push_back(U1.Sys - U0.Sys);
    S.PassFaults.push_back(U1.MinFlt - U0.MinFlt);
    if (Traced) {
      S.TracedPassS.push_back(Secs);
      Ctx.Layers.endRound();
    } else {
      S.PassS.push_back(Secs);
      S.PassCellP50.push_back(quantile(PassCells, 0.5));
      S.PassCellP90.push_back(quantile(PassCells, 0.9));
      S.CellMs.insert(S.CellMs.end(), PassCells.begin(), PassCells.end());
    }
    if (N == 0)
      S.Digest = outputDigest(Ctx);
    double Elapsed = static_cast<double>(nowNs() - Start) / 1e9;
    if (Elapsed >= A.Seconds && (!A.Trace || !S.TracedPassS.empty()))
      break;
  }
  setTracing(Ctx, false);
  return S;
}

/// The first untraced pass's outputs, one entry per cell.
void writeFirstPass(obs::JsonWriter &W, const BenchContext &Ctx,
                    const RunSamples &S) {
  W.beginArray();
  size_t PerPass = S.CellMs.size() / S.PassS.size();
  for (size_t I = 0; I < PerPass && I < Ctx.Cells.size(); ++I) {
    const CellRecord &C = Ctx.Cells[I];
    W.beginObject();
    W.keyValue("kernel", Ctx.Kernels[C.Kernel].Name);
    W.key("program_speedups");
    W.beginArray();
    for (const SimDigest &D : C.Sims)
      W.value(D.ProgramSpeedup);
    W.endArray();
    W.key("rt");
    W.beginArray();
    for (const RtCellResult &R : C.Rts) {
      W.beginObject();
      W.keyValue("mode", std::string(1, R.Mode));
      W.keyValue("committed", R.Counts.EpochsCommitted);
      W.keyValue("squashed", R.Counts.EpochsSquashed);
      W.keyValue("checksum", R.RtChecksum);
      W.endObject();
    }
    W.endArray();
    W.endObject();
  }
  W.endArray();
}

} // namespace

int main(int argc, char **argv) {
  Args A = parseArgs(argc, argv);
  rejectAmbientConfig();
  std::unique_ptr<BenchWorkload> Work = makeWorkload(A.Workload);
  if (!Work)
    usage("unknown workload '" + A.Workload + "'");

  // Pinned configuration: the native engine for every interpretation,
  // pipelines without the experiment runner or result cache, rt with a
  // fixed worker count.
  setDefaultInterpEngine(InterpEngine::Native);
  BenchContext Ctx;
  Ctx.Rt.Threads = RtWorkers;
  Ctx.Kernels = seededKernels(A.Seed);

  const char *Backend =
      nativeBackendAvailable() ? nativeBackendName() : "none";
  unsigned NProc = std::thread::hardware_concurrency();
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "kernels=%zu\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              A.Seconds, A.Trace ? 1 : 0, Ctx.Kernels.size());
  std::printf("config engine=%s native_backend=%s rt_workers=%u "
              "rt_threads_total=%u nproc=%u jobs=1 result_cache=off "
              "source=%s\n",
              interpEngineName(defaultInterpEngine()), Backend, RtWorkers,
              RtWorkers + 1, NProc, A.SourceId.c_str());
  std::fflush(stdout);

  RunSamples S = measure(A, *Work, Ctx);
  ProbeResult Probe;
  if (A.Trace) {
    setTracing(Ctx, true);
    Probe = runProbe(Ctx);
    Ctx.Layers.endRound();
    setTracing(Ctx, false);
  }
  double PeakMb = peakRssMb();

  // The correctness gate runs after every measurement.
  Work->release();
  size_t Failed = verifyCells(Ctx, *Work, A.CorruptExpected);
  size_t Attempted = Ctx.Cells.size();

  double OverheadPct =
      A.Trace ? 100.0 * (ratio(median(S.TracedPassS), median(S.PassS)) - 1.0)
              : 0.0;
  std::vector<Metric> Metrics;
  if (A.Trace)
    Metrics = layerMetrics(Ctx, Probe, OverheadPct);
  else
    Metrics = {{"setup_s", median(S.SetupS), "s"},
               {"pass_s", median(S.PassS), "s"},
               {"cell_ms_p50", median(S.PassCellP50), "ms"},
               {"cell_ms_p90", median(S.PassCellP90), "ms"},
               {"peak_rss_mb", PeakMb, "MB"}};

  auto writeConfig = [&](obs::JsonWriter &W) {
    W.beginObject();
    W.keyValue("workload", A.Workload);
    W.keyValue("seed", A.Seed);
    W.keyValue("seconds", A.Seconds);
    W.keyValue("trace", A.Trace);
    W.keyValue("engine", interpEngineName(defaultInterpEngine()));
    W.keyValue("native_backend", Backend);
    W.keyValue("rt_workers", RtWorkers);
    W.keyValue("nproc", NProc);
    W.keyValue("jobs", 1);
    W.keyValue("result_cache", false);
    W.keyValue("source", A.SourceId);
    W.endObject();
  };
  std::string Stem = A.OutDir + "/" + A.Workload + "-seed" +
                     std::to_string(A.Seed) + "-trace" +
                     (A.Trace ? "1" : "0");
  std::map<std::string, uint64_t> SelfNs = Ctx.Spans.selfTimeNs();
  if (A.Trace) {
    std::ostringstream Meta;
    obs::JsonWriter W(Meta, /*Pretty=*/false);
    writeConfig(W);
    if (!Ctx.Spans.writeChromeTrace(Stem + ".spans.json", Meta.str()))
      std::fprintf(stderr, "perfbench: cannot write %s.spans.json\n",
                   Stem.c_str());
  }
  {
    std::ofstream OS(Stem + ".report.json");
    obs::JsonWriter W(OS);
    W.beginObject();
    W.key("config");
    writeConfig(W);
    W.keyValue("digest", S.Digest);
    W.keyValue("attempted", static_cast<uint64_t>(Attempted));
    W.keyValue("failed", static_cast<uint64_t>(Failed));
    W.key("metrics");
    writeMetricsJson(W, Metrics);
    writeSamples(W, "setup_s", S.SetupS);
    writeSamples(W, "pass_s", S.PassS);
    writeSamples(W, "traced_pass_s", S.TracedPassS);
    writeSamples(W, "cell_ms", S.CellMs);
    writeSamples(W, "pass_user_s", S.PassUser);
    writeSamples(W, "pass_sys_s", S.PassSys);
    writeSamples(W, "pass_minor_faults", S.PassFaults);
    W.key("self_ms");
    W.beginObject();
    for (const auto &[Name, Ns] : SelfNs)
      W.keyValue(Name, static_cast<double>(Ns) / 1e6);
    W.endObject();
    W.key("first_pass");
    writeFirstPass(W, Ctx, S);
    W.endObject();
    OS << "\n";
    if (!OS)
      std::fprintf(stderr, "perfbench: cannot write %s.report.json\n",
                   Stem.c_str());
  }

  std::printf("digest %016llx\n", static_cast<unsigned long long>(S.Digest));
  std::printf("passes untraced=%zu traced=%zu latency_samples=%zu\n",
              S.PassS.size(), S.TracedPassS.size(), S.CellMs.size());
  std::printf("cells attempted=%zu failed=%zu fail_frac=%g\n", Attempted,
              Failed, ratio(static_cast<double>(Failed),
                            static_cast<double>(Attempted)));
  if (A.Trace) {
    std::vector<std::pair<uint64_t, std::string>> BySelf;
    for (const auto &[Name, Ns] : SelfNs)
      BySelf.push_back({Ns, Name});
    std::sort(BySelf.rbegin(), BySelf.rend());
    for (size_t I = 0; I < BySelf.size() && I < 12; ++I)
      std::printf("self_ms %-28s %.3f\n", BySelf[I].second.c_str(),
                  static_cast<double>(BySelf[I].first) / 1e6);
    std::printf("trace_overhead traced_pass_s=%.6f untraced_pass_s=%.6f "
                "overhead_pct=%.3f\n",
                median(S.TracedPassS), median(S.PassS), OverheadPct);
  }
  for (const Metric &M : Metrics)
    std::printf("metric %-34s %.6g %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  std::printf("report %s.report.json\n", Stem.c_str());

  std::ostringstream Line;
  {
    obs::JsonWriter W(Line, /*Pretty=*/false);
    W.beginObject();
    W.keyValue("correct", Failed == 0);
    W.keyValue("attempted", static_cast<uint64_t>(Attempted));
    W.keyValue("failed", static_cast<uint64_t>(Failed));
    W.key("metrics");
    writeMetricsJson(W, Metrics);
    W.endObject();
  }
  std::printf("%s\n", Line.str().c_str());
  return 0;
}
