//===- gcabench/harness.cpp - gcomm benchmark measurement harness ---------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
//
// Runs one benchmark workload against the library (and, for serve-mix, a
// fresh `gca-compile --serve` process) and prints one JSON document of raw
// samples, counts and trace spans on stdout. run.py turns that document into
// the named metrics; all statistics (medians, percentiles, slopes, self
// times) are computed there, from these raw samples.
//
//   gcabench --workload synth-scale|paper-fig10|serve-mix --seed N
//            --seconds S --trace 0|1 [--server PATH] [--workdir DIR]
//
// Every layer is measured from outside: spans are recorded here, around
// calls into each module's public functions. With --trace 0 the workload
// runs untraced for the measured window. With --trace 1 it runs a fixed
// amount of untraced work, then the same work traced, and reports both so
// the tracing overhead and the exact repeat of every count can be checked.
//
//===----------------------------------------------------------------------===//

#include "analysis/AvailDataflow.h"
#include "analysis/CommLint.h"
#include "analysis/PlanAudit.h"
#include "core/Detect.h"
#include "core/EarliestLatest.h"
#include "driver/Compile.h"
#include "driver/Pipeline.h"
#include "driver/Serve.h"
#include "lower/Schedule.h"
#include "runtime/Simulate.h"
#include "runtime/Verify.h"
#include "support/Frame.h"
#include "support/Json.h"
#include "support/ResultCache.h"
#include "support/Stats.h"
#include "workloads/Synth.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace gca;

namespace {

//===----------------------------------------------------------------------===//
// Clock, raw document, spans
//===----------------------------------------------------------------------===//

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double secSince(uint64_t T0) { return (nowNs() - T0) * 1e-9; }

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Server = ".bench_build/gca-compile";
  std::string Workdir = ".bench_build/run";
};

/// Counts keyed by their per-layer metric name.
using Counts = std::map<std::string, double>;

/// Everything one run reports: raw samples, counts, op tallies, spans.
struct Raw {
  std::map<std::string, std::vector<double>> Series;
  std::map<std::string, double> Scalars;
  int64_t Attempted = 0;
  int64_t Failed = 0;
  std::vector<std::string> Errors;
  bool OpBad = false;

  void push(const std::string &Name, double V) { Series[Name].push_back(V); }

  /// Records a failed check; the op in progress counts as failed.
  void error(const std::string &Msg) {
    OpBad = true;
    if (Errors.size() < 20)
      Errors.push_back(Msg);
  }
  void beginOp() { OpBad = false; }
  void endOp() {
    ++Attempted;
    Failed += OpBad;
    OpBad = false;
  }
  /// A check outside any timed op: counted as one op of its own.
  void checkOp(bool Ok, const std::string &Msg) {
    beginOp();
    if (!Ok)
      error(Msg);
    endOp();
  }
};

/// One recorded span. Names and layers are string literals.
struct SpanRec {
  const char *Name;
  const char *Layer;
  uint64_t Begin;
  uint64_t End;
  int Parent;
  int64_t Op;
  int Pass;
};

/// In-memory span recorder; a no-op unless On.
struct Tracer {
  bool On = false;
  int Pass = 0;
  int Cur = -1;
  std::vector<SpanRec> Spans;

  int open(const char *Name, const char *Layer, int64_t Op) {
    if (!On)
      return -1;
    Spans.push_back({Name, Layer, nowNs(), 0, Cur, Op, Pass});
    Cur = static_cast<int>(Spans.size()) - 1;
    return Cur;
  }
  void close(int I) {
    if (I < 0)
      return;
    Spans[I].End = nowNs();
    Cur = Spans[I].Parent;
  }
  /// A completed child of span \p Parent with explicit times.
  void add(const char *Name, const char *Layer, uint64_t B, uint64_t E,
           int Parent, int64_t Op) {
    if (On)
      Spans.push_back({Name, Layer, B, E, Parent, Op, Pass});
  }
};

class Span {
public:
  Span(Tracer &T, const char *Name, const char *Layer, int64_t Op)
      : T(T), I(T.open(Name, Layer, Op)) {}
  ~Span() { T.close(I); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  Tracer &T;
  int I;
};

std::string num(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%.17g", std::isfinite(V) ? V : 0.0);
  return Buf;
}

std::string renderRaw(const Args &A, const Raw &R, const Tracer &T) {
  JsonWriter W;
  W.beginObject();
  W.key("workload").value(A.Workload);
  W.key("seed").value(static_cast<int64_t>(A.Seed));
  W.key("trace").value(A.Trace);
  W.key("attempted").value(R.Attempted);
  W.key("failed").value(R.Failed);
  W.key("errors").beginArray();
  for (const std::string &E : R.Errors)
    W.value(E);
  W.endArray();
  W.key("series").beginObject();
  for (const auto &[Name, Vals] : R.Series) {
    W.key(Name).beginArray();
    for (double V : Vals)
      W.raw(num(V));
    W.endArray();
  }
  W.endObject();
  W.key("scalars").beginObject();
  for (const auto &[Name, V] : R.Scalars)
    W.key(Name).raw(num(V));
  W.endObject();
  W.key("spans").beginArray();
  for (const SpanRec &S : T.Spans) {
    W.beginArray();
    W.value(S.Name).value(S.Layer);
    W.value(static_cast<int64_t>(S.Begin)).value(static_cast<int64_t>(S.End));
    W.value(static_cast<int64_t>(S.Parent)).value(S.Op);
    W.value(static_cast<int64_t>(S.Pass));
    W.endArray();
  }
  W.endArray();
  W.endObject();
  return W.str();
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0;
}

//===----------------------------------------------------------------------===//
// Compilation paths
//===----------------------------------------------------------------------===//

/// compileSource with the session kept long enough to read its counters.
struct Compiled {
  CompileResult R;
  std::string PlanText;
  StatsRegistry::Snapshot Stats;
  double Wall = 0;
};

/// One compilation of \p Src through pipeline \p P (the standard pipeline
/// unless the traced one).
Compiled compile(const std::string &Src, const CompileOptions &Opts,
                 const Pipeline &P = Pipeline::standard()) {
  Compiled C;
  uint64_t T0 = nowNs();
  auto S = std::make_unique<Session>(Src, Opts);
  S->run(P);
  C.R = S->take();
  C.Wall = secSince(T0);
  C.Stats = S->Stats.snapshot();
  C.PlanText = C.R.planText();
  return C;
}

/// Span name and layer of each pass of the standard pipeline.
struct PassLayer {
  const char *Pass;
  const char *Span;
  const char *Layer;
};

constexpr PassLayer kPassLayers[] = {
    {"parse", "frontend.parse", "frontend"},
    {"scalarize", "xform.scalarize", "xform"},
    {"fuse", "xform.fuse", "xform"},
    {"build-context", "context.build", "context"},
    {"placement", "core.placement", "core"},
    {"lower", "lower.lower", "lower"},
    {"audit", "analysis.audit_pass", "analysis"},
    {"verify", "analysis.verify_pass", "analysis"},
    {"lint", "analysis.lint_pass", "analysis"},
};

/// The standard pipeline with every pass wrapped in a span of its layer, so
/// traced and untraced compiles run the same code apart from the spans.
/// The spans carry the value \p Op holds when the pass runs. A pass the
/// table does not name gets a span under its own name in layer "driver",
/// the module that owns the pipeline.
Pipeline tracedPipeline(Tracer &T, const int64_t &Op) {
  Pipeline Traced;
  for (const Pass &P : Pipeline::standard().passes()) {
    const char *Name = P.Name.c_str(), *Layer = "driver";
    for (const PassLayer &L : kPassLayers)
      if (P.Name == L.Pass) {
        Name = L.Span;
        Layer = L.Layer;
      }
    Traced.add(P.Name, [&T, &Op, Fn = P.Fn, Name, Layer](Session &S) {
      Span Sp(T, Name, Layer, Op);
      return Fn(S);
    });
  }
  return Traced;
}

/// Input and IR sizes of one compilation: source bytes, statements after
/// the transforms, CFG nodes and SSA definitions.
void addShapeCounts(const std::string &Src, const CompileResult &R,
                    Counts &C) {
  C["frontend.source_bytes"] += static_cast<double>(Src.size());
  for (const RoutineResult &RR : R.Routines) {
    int64_t N = 0;
    RR.R->forEachStmt([&](Stmt *) { ++N; });
    C["xform.stmts_out"] += static_cast<double>(N);
    C["cfg.nodes"] += RR.Ctx->G.numNodes();
    C["ssa.defs"] += RR.Ctx->S.numDefs();
  }
}

/// The counts that must repeat exactly: placement and lowering counters of
/// one compilation, under their per-layer metric names.
void addCompileCounts(const StatsRegistry::Snapshot &S,
                      const std::vector<RoutineResult> &Routines, Counts &C) {
  auto Get = [&](const char *K) {
    auto It = S.find(K);
    return It == S.end() ? 0.0 : static_cast<double>(It->second);
  };
  C["core.entries"] += Get("placement.entries-detected");
  C["core.groups"] += Get("placement.groups");
  C["core.subset_eliminated"] += Get("placement.subset-eliminated");
  C["core.redundancy_eliminated"] += Get("placement.redundancy-eliminated");
  C["core.combined_groups"] += Get("placement.combined-groups");
  C["core.dom_queries"] += Get("dom.queries");
  C["core.pair_compares"] += Get("placement.pair-compares");
  C["core.slotset_merges"] += Get("placement.slotset-merges");
  C["lower.groups"] += Get("lower.collective.groups");
  C["lower.fused_phases"] += Get("lower.collective.fused-phases");
  for (const RoutineResult &RR : Routines)
    for (const GroupLowering &G : RR.Lowering.Groups)
      C[std::string("lower.algo.") + collAlgoName(G.Algo)] += 1;
}

/// Derived ratios with their base (entries).
void addDerived(Counts &C) {
  double E = C["core.entries"];
  C["core.groups_per_entry"] = E > 0 ? C["core.groups"] / E : 0;
  C["core.dom_queries_per_entry"] = E > 0 ? C["core.dom_queries"] / E : 0;
}

/// Keys whose values must be identical across repetitions and between the
/// traced and untraced runs.
bool exactKey(const std::string &K) {
  return K.rfind("core.", 0) == 0 || K.rfind("lower.", 0) == 0 ||
         K.rfind("runtime.comm", 0) == 0 || K == "runtime.verify_checks" ||
         K == "runtime.remote_reads" || K == "analysis.verify_facts";
}

void compareCounts(const Counts &A, const Counts &B, const char *What,
                   Raw &Out) {
  bool Ok = true;
  std::string First;
  std::map<std::string, double> All;
  for (const auto &[K, V] : A)
    if (exactKey(K))
      All[K] = V;
  for (const auto &[K, V] : B)
    if (exactKey(K))
      All[K] = V;
  for (const auto &[K, V] : All) {
    auto IA = A.find(K), IB = B.find(K);
    double VA = IA == A.end() ? 0 : IA->second;
    double VB = IB == B.end() ? 0 : IB->second;
    if (VA != VB) {
      Ok = false;
      if (First.empty())
        First = K + " " + num(VA) + " vs " + num(VB);
    }
  }
  Out.checkOp(Ok, std::string("count mismatch (") + What + "): " + First);
}

/// Splits core time from outside: detection and the per-entry
/// Earliest/Latest analysis, called again on their own.
void probeCore(const std::vector<RoutineResult> &Routines,
               const PlacementOptions &Opts, Tracer &T, int64_t Op) {
  Span Root(T, "probe", "bench", Op);
  PlacementOptions P = Opts;
  P.Stats = nullptr;
  for (const RoutineResult &RR : Routines) {
    DecisionLog Log;
    std::vector<CommEntry> Entries;
    {
      Span S(T, "core.detect", "core.probe", Op);
      Entries = detectCommunication(*RR.Ctx, P, &Log);
    }
    Span S(T, "core.earliest_latest", "core.probe", Op);
    std::vector<Slot> Tmp;
    for (CommEntry &E : Entries)
      analyzeEntryPlacement(*RR.Ctx, E, P, Tmp);
  }
}

/// auditPlan + verifyPlan + lintRoutine (with its Orig baseline) over every
/// routine; violations are failures.
void checkPlans(const std::vector<RoutineResult> &Routines,
                const PlacementOptions &Opts, Tracer &T, int64_t Op,
                Counts &C, Raw &Out) {
  PlacementOptions P = Opts;
  P.Stats = nullptr;
  for (const RoutineResult &RR : Routines) {
    AuditReport AR;
    {
      Span S(T, "analysis.audit", "analysis", Op);
      AR = auditPlan(*RR.Ctx, RR.Plan, P);
    }
    VerifyReport VR;
    {
      Span S(T, "analysis.verify", "analysis", Op);
      VR = verifyPlan(*RR.Ctx, RR.Plan, P);
    }
    {
      Span S(T, "analysis.lint", "analysis", Op);
      CommPlan Base;
      {
        Span B(T, "analysis.lint_baseline", "analysis", Op);
        PlacementOptions BaseOpts = P;
        BaseOpts.Strat = Strategy::Orig;
        Base = planCommunication(*RR.Ctx, BaseOpts);
      }
      DiagEngine Diags;
      lintRoutine(*RR.Ctx, RR.Plan, &Base, Diags);
    }
    C["analysis.verify_facts"] += VR.Facts;
    C["analysis.verify_checks"] += VR.Checks;
    C["analysis.violations"] += static_cast<double>(AR.Violations.size() +
                                                    VR.Violations.size());
    if (!AR.ok())
      Out.error("audit violation in " + RR.R->name() + ": " + AR.str());
    if (!VR.ok())
      Out.error("verify violation in " + RR.R->name() + ": " + VR.str());
  }
}

/// Simulated comm time (seconds) of the lowered plans, with the runtime
/// counts; also the monolithic cost of the same plans as a ratio base.
struct SimOut {
  double Comm = 0;
  double Mono = 0;
};

SimOut simulatePlans(const std::vector<RoutineResult> &Routines,
                     const MachineProfile &M, int P, Tracer &T, int64_t Op,
                     Counts *C) {
  SimOut O;
  for (const RoutineResult &RR : Routines) {
    std::optional<ExecProgram> Prog;
    {
      Span S(T, "runtime.exec_build", "runtime", Op);
      Prog.emplace(ExecProgram::build(*RR.Ctx, RR.Plan));
    }
    SimResult Sim;
    {
      Span S(T, "runtime.simulate", "runtime", Op);
      Sim = simulate(*RR.Ctx, RR.Plan, *Prog, M, P, &RR.Lowering);
    }
    O.Comm += Sim.CommTime;
    if (C) {
      (*C)["runtime.comm_ops"] += Sim.CommOps;
      (*C)["runtime.comm_bytes"] += Sim.CommBytes;
      Span S(T, "runtime.simulate_mono", "runtime", Op);
      O.Mono += simulate(*RR.Ctx, RR.Plan, *Prog, M, P, nullptr).CommTime;
    }
  }
  return O;
}

double geomean(const std::vector<double> &V) {
  double L = 0;
  for (double X : V)
    L += std::log(X);
  return V.empty() ? 0 : std::exp(L / V.size());
}

void emitCounts(const Counts &C, Raw &Out) {
  for (const auto &[K, V] : C)
    Out.Scalars[K] = V;
}

//===----------------------------------------------------------------------===//
// Figure 10 panel points
//===----------------------------------------------------------------------===//

struct PanelPoint {
  const Workload *W;
  const char *Machine;
  int Procs;
  int64_t N;
  int64_t Steps;
};

/// The Figure 10 panel points of bench_fig10_panels, each problem size
/// moved by a seeded offset of at most 2% so that runs on different seeds
/// see different inputs.
std::vector<PanelPoint> fig10Points(uint64_t Seed) {
  struct Panel {
    const Workload *W;
    const char *Machine;
    int Procs;
    std::vector<int64_t> Sizes;
    int64_t Steps;
  };
  const Panel Panels[] = {
      {&shallowWorkload(), "sp2", 25, {100, 125, 150, 175, 200, 225, 250, 275},
       50},
      {&gravityWorkload(), "sp2", 25,
       {100, 125, 150, 175, 200, 225, 250, 275, 300, 325}, 50},
      {&shallowWorkload(), "now", 8, {400, 450, 500}, 20},
      {&gravityWorkload(), "now", 8, {100, 124, 150, 174, 200, 224, 250, 274},
       5},
      {&hydfloWorkload(), "sp2", 25, {28, 32, 40, 48, 56, 64}, 5},
      {&trimeshWorkload(), "now", 8, {192, 256, 320}, 5},
  };
  uint64_t State = Seed * 0x9e3779b97f4a7c15ull + 0x632be59bd9b4e019ull;
  auto Next = [&] {
    State ^= State << 13;
    State ^= State >> 7;
    State ^= State << 17;
    return State;
  };
  std::vector<PanelPoint> Out;
  for (const Panel &P : Panels)
    for (int64_t N : P.Sizes) {
      int64_t Span = std::max<int64_t>(1, (N * 2 + 50) / 100);
      int64_t Off = static_cast<int64_t>(Next() % (2 * Span + 1)) - Span;
      Out.push_back({P.W, P.Machine, P.Procs, N + Off, P.Steps});
    }
  return Out;
}

CompileOptions pointOptions(const PanelPoint &Pt, Strategy S) {
  CompileOptions O;
  O.Placement.Strat = S;
  O.Placement.NumProcs = Pt.Procs;
  O.Machine = Pt.Machine;
  O.Params["n"] = Pt.N;
  O.Params["nsteps"] = Pt.Steps;
  return O;
}

/// Lowered simulated comm time (ms) of the comb plan at every point.
std::vector<double> fig10CommMs(const std::vector<PanelPoint> &Points,
                                Raw &Out) {
  Tracer Off;
  std::vector<double> Ms;
  for (const PanelPoint &Pt : Points) {
    Compiled C = compile(Pt.W->Source, pointOptions(Pt, Strategy::Global));
    SimOut S = simulatePlans(C.R.Routines, *MachineProfile::byName(Pt.Machine),
                             Pt.Procs, Off, 0, nullptr);
    Out.checkOp(C.R.Ok && S.Comm > 0, "no simulated comm time");
    Ms.push_back(S.Comm * 1e3);
  }
  return Ms;
}

//===----------------------------------------------------------------------===//
// synth-scale
//===----------------------------------------------------------------------===//

constexpr int kSynthSizes[] = {500, 1000, 2000, 4000};

std::vector<std::string> synthSweep(uint64_t Seed) {
  std::vector<std::string> Out;
  for (int N : kSynthSizes) {
    SynthSpec S;
    S.Nests = N;
    S.Seed = Seed;
    Out.push_back(synthSource(S));
  }
  return Out;
}

void runSynth(const Args &A, Raw &Out, Tracer &T) {
  const CompileOptions Opts; // Release defaults: no audit, verify or lint.
  const MachineProfile M = *MachineProfile::byName(Opts.Machine);
  const int P = Opts.Placement.NumProcs;

  // One set-up: generate the sweep and compile its two smallest programs.
  double SetupTime = 0;
  auto Setup = [&] {
    uint64_t T0 = nowNs();
    std::vector<std::string> Srcs = synthSweep(A.Seed);
    for (int W = 0; W != 2; ++W) {
      Compiled Warm = compile(Srcs[W], Opts);
      Out.checkOp(Warm.R.Ok, "warm-up compile failed: " + Warm.R.Errors);
    }
    double Wall = secSince(T0);
    Out.push("setup_s", Wall);
    SetupTime += Wall;
    return Srcs;
  };
  const std::vector<std::string> Srcs = Setup();

  // Sweeps alternate with checks of the last sweep's plans, and set-ups
  // repeat in between, so every metric samples the host over the whole
  // window.
  const uint64_t Start = nowNs();
  auto CatchUpSetup = [&] {
    while (SetupTime < secSince(Start) / 12)
      Setup();
  };
  std::vector<std::string> FirstPlans(Srcs.size());
  std::vector<Compiled> Last(Srcs.size());
  Counts FirstCounts, FirstCheckCounts;
  int Sweeps = 0, Checks = 0;
  double SweepTime = 0, CheckTime = 0;
  for (;;) {
    double SweepWall = 0;
    Counts RepCounts;
    for (size_t I = 0; I != Srcs.size(); ++I) {
      Out.beginOp();
      Last[I] = Compiled();
      Last[I] = compile(Srcs[I], Opts);
      Compiled &C = Last[I];
      SweepWall += C.Wall;
      Out.push("point_s." + std::to_string(I), C.Wall);
      if (!C.R.Ok)
        Out.error("compile failed: " + C.R.Errors);
      if (Sweeps == 0)
        FirstPlans[I] = C.PlanText;
      else if (C.PlanText != FirstPlans[I])
        Out.error("plan text changed between repetitions at point " +
                  std::to_string(I));
      addCompileCounts(C.Stats, C.R.Routines, RepCounts);
      Out.endOp();
    }
    Out.push("sweep_s", SweepWall);
    Out.push("op_ms", SweepWall * 1e3);
    SweepTime += SweepWall;
    if (Sweeps == 0)
      FirstCounts = RepCounts;
    else
      compareCounts(FirstCounts, RepCounts, "synth sweep repetitions", Out);
    ++Sweeps;
    if (!A.Trace)
      CatchUpSetup();
    if (A.Trace ? Sweeps >= 2 && Checks >= 1
                : Sweeps >= 3 && Checks >= 1 &&
                      secSince(Start) + SweepWall > A.Seconds)
      break;
    if (CheckTime >= 0.6 * SweepTime)
      continue;
    Out.beginOp();
    Counts CheckCounts;
    uint64_t T0 = nowNs();
    for (const Compiled &C : Last)
      checkPlans(C.R.Routines, Opts.Placement, T, 0, CheckCounts, Out);
    double CheckWall = secSince(T0);
    Out.push("check_s", CheckWall);
    CheckTime += CheckWall;
    Out.endOp();
    if (Checks++ == 0)
      FirstCheckCounts = CheckCounts;
    else
      compareCounts(FirstCheckCounts, CheckCounts, "synth check repetitions",
                    Out);
    if (!A.Trace)
      CatchUpSetup();
  }
  Out.Series["overhead.untraced_s"] = Out.Series["sweep_s"];
  for (size_t I = 0; I != Srcs.size(); ++I)
    Out.Scalars["entries." + std::to_string(I)] =
        static_cast<double>(Last[I].Stats["placement.entries-detected"]);
  Counts Untraced = FirstCounts;
  for (const auto &[K, V] : FirstCheckCounts)
    Untraced[K] = V;
  Out.Scalars["peak_rss_mb"] = peakRssMb();

  double LogRatio = 0;
  for (const Compiled &C : Last) {
    SimOut S = simulatePlans(C.R.Routines, M, P, T, 0, &Untraced);
    LogRatio += std::log(S.Comm / S.Mono);
  }
  Out.Series["sim_comm_ms"] = fig10CommMs(fig10Points(A.Seed), Out);
  Untraced["runtime.comm_lowered_vs_mono"] = std::exp(LogRatio / Last.size());
  addDerived(Untraced);
  if (!A.Trace) {
    emitCounts(Untraced, Out);
    return;
  }

  // Traced pass: the same sweep through the traced pipeline.
  Last.clear();
  Counts Traced;
  int64_t TraceOp = 0;
  const Pipeline TracedP = tracedPipeline(T, TraceOp);
  T.On = true;
  double TracedCompile = 0, TLogRatio = 0;
  for (size_t I = 0; I != Srcs.size(); ++I) {
    Out.beginOp();
    TraceOp = static_cast<int64_t>(I);
    Compiled C;
    {
      Span Root(T, "compile", "bench", TraceOp);
      C = compile(Srcs[I], Opts, TracedP);
    }
    TracedCompile += C.Wall;
    if (!C.R.Ok) {
      Out.error("traced compile failed: " + C.R.Errors);
      Out.endOp();
      continue;
    }
    if (C.PlanText != FirstPlans[I])
      Out.error("traced plan differs from untraced at point " +
                std::to_string(I));
    addShapeCounts(Srcs[I], C.R, Traced);
    addCompileCounts(C.Stats, C.R.Routines, Traced);
    probeCore(C.R.Routines, Opts.Placement, T, TraceOp);
    {
      Span Root(T, "check", "bench", TraceOp);
      checkPlans(C.R.Routines, Opts.Placement, T, TraceOp, Traced, Out);
    }
    {
      Span Root(T, "sim", "bench", TraceOp);
      SimOut S = simulatePlans(C.R.Routines, M, P, T, TraceOp, &Traced);
      TLogRatio += std::log(S.Comm / S.Mono);
    }
    Out.endOp();
  }
  T.On = false;
  Traced["runtime.comm_lowered_vs_mono"] = std::exp(TLogRatio / Srcs.size());
  addDerived(Traced);
  compareCounts(Untraced, Traced, "synth traced vs untraced", Out);
  Out.push("overhead.traced_s", TracedCompile);
  emitCounts(Traced, Out);
}

//===----------------------------------------------------------------------===//
// paper-fig10
//===----------------------------------------------------------------------===//

/// Static message counts of the compiled routines against the paper's
/// table for one strategy column.
void checkExpected(const Workload &W, const CompileResult &R, int Column,
                   Raw &Out) {
  for (const ExpectedCounts &E : W.Expected) {
    CommKind K = E.Kind == "SUM" ? CommKind::Reduce : CommKind::Shift;
    const RoutineResult *RR = R.find(E.Routine);
    int Want = Column == 0 ? E.Orig : Column == 1 ? E.Nored : E.Comb;
    int Got = RR ? RR->Plan.Stats.groups(K) : -1;
    if (Got != Want)
      Out.error(W.Name + "/" + E.Routine + " " + E.Kind + ": " +
                std::to_string(Got) + " groups, paper " + std::to_string(Want));
  }
}

/// Provenance points: every program at reduced sizes on 4 processors.
struct ProvPoint {
  Compiled C;
  std::vector<ExecProgram> Progs;
};

void runFig10(const Args &A, Raw &Out, Tracer &T) {
  // One set-up: generate the points and compile each once (comb).
  double SetupTime = 0;
  auto Setup = [&] {
    uint64_t T0 = nowNs();
    std::vector<PanelPoint> Points = fig10Points(A.Seed);
    for (const PanelPoint &Pt : Points) {
      Compiled C = compile(Pt.W->Source, pointOptions(Pt, Strategy::Global));
      Out.checkOp(C.R.Ok, "warm-up compile failed: " + C.R.Errors);
    }
    double Wall = secSince(T0);
    Out.push("setup_s", Wall);
    SetupTime += Wall;
    return Points;
  };
  const std::vector<PanelPoint> Points = Setup();

  // The paper's nored column, once per program and untimed; the orig and
  // comb columns, audit and verify are checked on the first repetition of
  // every point below.
  for (const Workload *W : evaluationWorkloads()) {
    const PanelPoint *Pt = nullptr;
    for (const PanelPoint &P : Points)
      if (P.W == W)
        Pt = &P;
    Out.beginOp();
    Compiled Nored = compile(W->Source, pointOptions(*Pt, Strategy::Earliest));
    checkExpected(*W, Nored.R, 1, Out);
    Out.endOp();
  }

  // Dynamic provenance check at reduced sizes.
  std::vector<ProvPoint> Prov;
  for (const Workload *W : evaluationWorkloads())
    for (int64_t N : {8, 12, 16}) {
      PanelPoint Pt{W, "sp2", 4, N, 2};
      ProvPoint PP;
      PP.C = compile(W->Source, pointOptions(Pt, Strategy::Global));
      Out.checkOp(PP.C.R.Ok, "provenance compile failed: " + PP.C.R.Errors);
      for (const RoutineResult &RR : PP.C.R.Routines)
        PP.Progs.push_back(ExecProgram::build(*RR.Ctx, RR.Plan));
      Prov.push_back(std::move(PP));
    }
  Counts VerifyCounts;
  auto VerifyAll = [&](Tracer &Tr, Counts &C, int64_t Op) {
    for (const ProvPoint &PP : Prov)
      for (size_t R = 0; R != PP.C.R.Routines.size(); ++R) {
        const RoutineResult &RR = PP.C.R.Routines[R];
        VerifyResult V;
        {
          Span S(Tr, "runtime.verify_schedule", "runtime", Op);
          V = verifySchedule(*RR.Ctx, RR.Plan, PP.Progs[R], 4);
        }
        C["runtime.verify_checks"] += static_cast<double>(V.ChecksPerformed);
        C["runtime.remote_reads"] += static_cast<double>(V.RemoteReads);
        C["runtime.verify_failures"] += V.Ok ? 0 : 1;
        if (!V.Ok)
          Out.error("verifySchedule failed: " + V.str());
      }
  };
  // The points repeat until the window ends. Between repetitions the
  // provenance check runs whenever it has used less than a third of the
  // points' time, and a set-up whenever set-ups have used less than a
  // twentieth, so every metric samples the host over the whole window.
  const uint64_t Start = nowNs();
  std::vector<std::string> FirstPlans(Points.size());
  std::vector<double> CommMs(Points.size()), CommRatio(Points.size());
  Counts FirstCounts, SimCounts;
  int Reps = 0, Checks = 0;
  double OpsTime = 0, CheckTime = 0;
  Tracer Off;
  for (;;) {
    double SweepCompile = 0, SweepOps = 0;
    Counts RepCounts;
    for (size_t I = 0; I != Points.size(); ++I) {
      const PanelPoint &Pt = Points[I];
      const MachineProfile M = *MachineProfile::byName(Pt.Machine);
      Out.beginOp();
      uint64_t T0 = nowNs();
      Compiled Comb =
          compile(Pt.W->Source, pointOptions(Pt, Strategy::Global));
      SimOut SC = simulatePlans(Comb.R.Routines, M, Pt.Procs, Off, 0, nullptr);
      Compiled Orig = compile(Pt.W->Source, pointOptions(Pt, Strategy::Orig));
      SimOut SO = simulatePlans(Orig.R.Routines, M, Pt.Procs, Off, 0, nullptr);
      double Op = secSince(T0);
      SweepOps += Op;
      SweepCompile += Comb.Wall;
      Out.push("op_ms", Op * 1e3);
      Out.push("op_ms." + std::to_string(I), Op * 1e3);
      Out.push("point_s." + std::to_string(I), Comb.Wall);
      if (!Comb.R.Ok || !Orig.R.Ok)
        Out.error("compile failed: " + Comb.R.Errors + Orig.R.Errors);
      std::string Plans = Comb.PlanText + Orig.PlanText;
      addCompileCounts(Comb.Stats, Comb.R.Routines, RepCounts);
      if (Reps == 0) {
        FirstPlans[I] = Plans;
        CommMs[I] = SC.Comm * 1e3;
        CommRatio[I] = SO.Comm > 0 ? SC.Comm / SO.Comm : 0;
        Out.Scalars["entries." + std::to_string(I)] =
            Comb.Stats["placement.entries-detected"];
        checkExpected(*Pt.W, Comb.R, 2, Out);
        checkExpected(*Pt.W, Orig.R, 0, Out);
        Counts Scratch;
        checkPlans(Comb.R.Routines,
                   pointOptions(Pt, Strategy::Global).Placement, Off, 0,
                   Scratch, Out);
        checkPlans(Orig.R.Routines, pointOptions(Pt, Strategy::Orig).Placement,
                   Off, 0, Scratch, Out);
        if (SC.Comm <= 0)
          Out.error("zero simulated comm time");
        SimOut Full =
            simulatePlans(Comb.R.Routines, M, Pt.Procs, Off, 0, &SimCounts);
        SimCounts["runtime.comm_lowered_vs_mono.sum"] +=
            std::log(Full.Comm / Full.Mono);
      } else if (Plans != FirstPlans[I]) {
        Out.error("plan text changed between repetitions at point " +
                  std::to_string(I));
      }
      Out.endOp();
    }
    Out.push("sweep_s", SweepCompile);
    Out.push("overhead.untraced_s", SweepOps);
    OpsTime += SweepOps;
    if (Reps == 0)
      FirstCounts = RepCounts;
    else
      compareCounts(FirstCounts, RepCounts, "fig10 repetitions", Out);
    ++Reps;
    if (CheckTime < OpsTime / 3) {
      Out.beginOp();
      Counts C;
      uint64_t T0 = nowNs();
      VerifyAll(Off, C, 0);
      double Check = secSince(T0);
      Out.push("check_s", Check);
      CheckTime += Check;
      Out.endOp();
      if (Checks++ == 0)
        VerifyCounts = C;
      else
        compareCounts(VerifyCounts, C, "provenance check repetitions", Out);
    }
    if (!A.Trace && SetupTime < OpsTime / 20)
      Setup();
    if (Reps >= 3 &&
        (A.Trace || (Checks >= 3 && secSince(Start) >= A.Seconds)))
      break;
  }
  Out.Series["sim_comm_ms"] = CommMs;
  Out.Scalars["window_s"] = secSince(Start);
  Out.Scalars["peak_rss_mb"] = peakRssMb();

  Counts Untraced = FirstCounts;
  Untraced.merge(SimCounts);
  Untraced.merge(VerifyCounts);
  auto Finish = [&](Counts &C, const std::vector<double> &Ratio) {
    C["runtime.comm_vs_orig"] = geomean(Ratio);
    C["runtime.comm_lowered_vs_mono"] =
        std::exp(C["runtime.comm_lowered_vs_mono.sum"] / Points.size());
    C.erase("runtime.comm_lowered_vs_mono.sum");
    addDerived(C);
  };
  Finish(Untraced, CommRatio);
  if (!A.Trace) {
    emitCounts(Untraced, Out);
    return;
  }

  // Traced passes: every point through the traced pipeline, then the
  // provenance check.
  Counts Traced;
  int64_t TraceOp = 0;
  const Pipeline TracedP = tracedPipeline(T, TraceOp);
  T.On = true;
  for (int Pass = 0; Pass != 3; ++Pass) {
    T.Pass = Pass;
    Counts PassCounts;
    std::vector<double> Ratio(Points.size());
    for (size_t I = 0; I != Points.size(); ++I) {
      const PanelPoint &Pt = Points[I];
      const MachineProfile M = *MachineProfile::byName(Pt.Machine);
      TraceOp = static_cast<int64_t>(I);
      Out.beginOp();
      Compiled Comb, Orig;
      SimOut SC, SO;
      {
        Span Root(T, "point", "bench", TraceOp);
        Comb = compile(Pt.W->Source, pointOptions(Pt, Strategy::Global),
                       TracedP);
        if (Comb.R.Ok)
          SC = simulatePlans(Comb.R.Routines, M, Pt.Procs, T, TraceOp,
                             nullptr);
        Orig = compile(Pt.W->Source, pointOptions(Pt, Strategy::Orig),
                       TracedP);
        if (Orig.R.Ok)
          SO = simulatePlans(Orig.R.Routines, M, Pt.Procs, T, TraceOp,
                             nullptr);
      }
      if (!Comb.R.Ok || !Orig.R.Ok) {
        Out.error("traced compile failed: " + Comb.R.Errors + Orig.R.Errors);
        Out.endOp();
        continue;
      }
      if (Comb.PlanText + Orig.PlanText != FirstPlans[I])
        Out.error("traced plan differs from untraced at point " +
                  std::to_string(I));
      if (SC.Comm * 1e3 != CommMs[I])
        Out.error("traced simulated comm time differs at point " +
                  std::to_string(I));
      Ratio[I] = SO.Comm > 0 ? SC.Comm / SO.Comm : 0;
      addShapeCounts(Pt.W->Source, Comb.R, PassCounts);
      addShapeCounts(Pt.W->Source, Orig.R, PassCounts);
      addCompileCounts(Comb.Stats, Comb.R.Routines, PassCounts);
      probeCore(Comb.R.Routines, pointOptions(Pt, Strategy::Global).Placement,
                T, TraceOp);
      probeCore(Orig.R.Routines, pointOptions(Pt, Strategy::Orig).Placement,
                T, TraceOp);
      {
        Span Root(T, "sim", "bench", TraceOp);
        SimOut Full = simulatePlans(Comb.R.Routines, M, Pt.Procs, T, TraceOp,
                                    &PassCounts);
        PassCounts["runtime.comm_lowered_vs_mono.sum"] +=
            std::log(Full.Comm / Full.Mono);
      }
      Out.endOp();
    }
    {
      Span Root(T, "check", "bench", 0);
      VerifyAll(T, PassCounts, 0);
    }
    Finish(PassCounts, Ratio);
    if (Pass == 0)
      Traced = PassCounts;
    else
      compareCounts(Traced, PassCounts, "fig10 traced passes", Out);
  }
  T.On = false;
  compareCounts(Untraced, Traced, "fig10 traced vs untraced", Out);
  std::map<int, double> PerPass;
  for (const SpanRec &S : T.Spans)
    if (S.Parent < 0 && std::strcmp(S.Name, "point") == 0)
      PerPass[S.Pass] += (S.End - S.Begin) * 1e-9;
  for (const auto &[P, V] : PerPass)
    Out.push("overhead.traced_s", V);
  emitCounts(Traced, Out);
}

//===----------------------------------------------------------------------===//
// serve-mix
//===----------------------------------------------------------------------===//

/// A `gca-compile --serve` child process; killed and reaped on destruction.
class ServerProc {
public:
  ServerProc(const Args &A, const std::string &Tag, const std::string &Log) {
    Sock = A.Workdir + "/s-" + std::to_string(getpid()) + "-" + Tag + ".sock";
    std::string Err = A.Workdir + "/server-" + Tag + ".err";
    ::unlink(Sock.c_str());
    std::vector<std::string> Argv = {A.Server, "--serve=" + Sock,
                                     "--cache=mem", "--serve-jobs=2"};
    if (!Log.empty())
      Argv.push_back("--log=" + Log);
    Pid = fork();
    if (Pid == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      int Fd = ::open(Err.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (Fd >= 0) {
        dup2(Fd, 1);
        dup2(Fd, 2);
      }
      std::vector<char *> V;
      for (std::string &S : Argv)
        V.push_back(S.data());
      V.push_back(nullptr);
      execv(V[0], V.data());
      _exit(127);
    }
  }
  ~ServerProc() { stop(); }
  ServerProc(const ServerProc &) = delete;
  ServerProc &operator=(const ServerProc &) = delete;

  /// Connects, retrying while the server starts up. -1 on failure.
  int connect(double TimeoutSec) const {
    uint64_t T0 = nowNs();
    while (secSince(T0) < TimeoutSec) {
      std::string Err;
      int Fd = connectUnixSocket(Sock, Err);
      if (Fd >= 0)
        return Fd;
      int Status = 0;
      if (Pid <= 0 || waitpid(Pid, &Status, WNOHANG) == Pid)
        return -1;
      usleep(50);
    }
    return -1;
  }

  /// Peak resident set of the server (VmHWM), MB.
  double peakRssMb() const {
    FILE *F = std::fopen(("/proc/" + std::to_string(Pid) + "/status").c_str(),
                         "r");
    double Mb = 0;
    char Line[256];
    while (F && std::fgets(Line, sizeof Line, F))
      if (std::strncmp(Line, "VmHWM:", 6) == 0)
        Mb = std::atof(Line + 6) / 1024.0;
    if (F)
      std::fclose(F);
    return Mb;
  }

  /// SIGTERM (graceful drain), then SIGKILL if it does not exit in 10 s.
  void stop() {
    if (Pid <= 0)
      return;
    ::kill(Pid, SIGTERM);
    int Status = 0;
    uint64_t T0 = nowNs();
    while (waitpid(Pid, &Status, WNOHANG) == 0) {
      if (secSince(T0) > 10) {
        ::kill(Pid, SIGKILL);
        waitpid(Pid, &Status, 0);
        break;
      }
      usleep(200);
    }
    Pid = -1;
    ::unlink(Sock.c_str());
  }

  pid_t Pid = -1;
  std::string Sock;
};

/// One request round trip on \p Fd. \returns false on a transport error.
bool roundTrip(int Fd, const std::string &Req, std::string &Resp) {
  return writeFrame(Fd, Req) == FrameStatus::Ok &&
         readFrame(Fd, Resp) == FrameStatus::Ok;
}

bool ping(int Fd) {
  std::string Resp;
  JsonValue Doc;
  std::string Err;
  return roundTrip(Fd, "{\"cmd\":\"ping\"}", Resp) &&
         JsonValue::parse(Resp, Doc, Err) && Doc.get("pong") &&
         Doc.get("pong")->boolValue();
}

/// The routine text of a synth source: its declarations and body, without
/// the program header.
std::string synthRoutine(const std::string &Name, int Nests, uint64_t Seed) {
  SynthSpec S;
  S.Nests = Nests;
  S.Seed = Seed;
  std::string Src = synthSource(S);
  size_t Decls = Src.find("real ");
  return "routine " + Name + "\n" + Src.substr(Decls);
}

std::string multiProgram(const std::string &Name,
                         const std::vector<std::string> &Routines) {
  std::string Src = "program " + Name + "\nparam n = 64\n";
  for (const std::string &R : Routines)
    Src += R;
  return Src;
}

/// One request the client sends. Requests with the same name carry the
/// same source, so one local reference compile covers them all.
struct ReqSpec {
  std::string Name;
  std::string Source;
};

enum ReqKind { Hot, Fresh, Edit };

/// The seeded request stream of one client.
class RequestGen {
public:
  RequestGen(uint64_t Seed, int Client, const std::vector<ReqSpec> &HotSet,
             const std::vector<std::vector<std::string>> &Multi)
      : State(Seed * 0x9e3779b97f4a7c15ull + Client * 0xbf58476d1ce4e5b9ull +
              1),
        Seed(Seed), Client(Client), HotSet(HotSet), Multi(Multi) {}

  /// Requests generated so far.
  int64_t sent() const { return static_cast<int64_t>(K); }

  ReqSpec next(ReqKind &Kind) {
    uint64_t R = rnd() % 100;
    ++K;
    if (R < 45) {
      Kind = Hot;
      return HotSet[rnd() % HotSet.size()];
    }
    uint64_t FreshSeed = (Seed << 32) + Client * 100000000ull + K;
    if (R < 85) {
      Kind = Fresh;
      SynthSpec S;
      S.Nests = 60 + static_cast<int>(rnd() % 141);
      S.Seed = FreshSeed;
      return {"fresh-" + std::to_string(Client) + "-" + std::to_string(K),
              synthSource(S)};
    }
    Kind = Edit;
    size_t M = rnd() % Multi.size();
    std::vector<std::string> Rs = Multi[M];
    size_t Which = rnd() % Rs.size();
    Rs[Which] = synthRoutine("r" + std::to_string(Which),
                             40 + static_cast<int>(rnd() % 41), FreshSeed);
    return {"edit-" + std::to_string(Client) + "-" + std::to_string(K),
            multiProgram("multi" + std::to_string(M), Rs)};
  }

private:
  uint64_t rnd() {
    State += 0x9e3779b97f4a7c15ull;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  uint64_t State;
  uint64_t Seed;
  int Client;
  uint64_t K = 0;
  const std::vector<ReqSpec> &HotSet;
  const std::vector<std::vector<std::string>> &Multi;
};

struct ReqRecord {
  int64_t Id = 0;
  ReqKind Kind = Hot;
  std::string Name;
  uint64_t Begin = 0, End = 0;
  bool Ok = false;
  /// Why the request failed at the server or on the wire; empty when Ok.
  std::string Error;
  bool Hit = false;
  CacheKey Digest;
  int64_t BytesIn = 0, BytesOut = 0;
};

std::string requestJson(int64_t Id, const ReqSpec &R) {
  JsonWriter W;
  W.beginObject();
  W.key("id").value(Id);
  W.key("name").value(R.Name);
  W.key("source").value(R.Source);
  W.endObject();
  return W.str();
}

/// Parses one compile response into \p Rec.
void parseResponse(const std::string &Resp, ReqRecord &Rec) {
  JsonValue Doc;
  std::string Err;
  if (!JsonValue::parse(Resp, Doc, Err)) {
    Rec.Error = "unparsable response: " + Err;
    return;
  }
  const JsonValue *St = Doc.get("status");
  Rec.Ok = St && St->isString() && St->stringValue() == "ok";
  if (!Rec.Ok) {
    const JsonValue *E = Doc.get("error");
    Rec.Error = "answered '" + (St ? St->stringValue() : std::string("?")) +
                "': " + (E ? E->stringValue() : std::string());
    return;
  }
  const JsonValue *O = Doc.get("output");
  const JsonValue *H = Doc.get("cache_hit");
  Rec.Hit = H && H->boolValue();
  Rec.Digest = CacheKey::of(O ? O->stringValue() : std::string());
}

struct ServeState {
  std::vector<ReqSpec> HotSet;
  std::vector<std::vector<std::string>> Multi;
  std::mutex Mu;
  std::map<std::string, std::string> Sources; ///< name -> source sent.
};

/// The request generators of \p Clients clients, each continuing its
/// stream across calls of drive().
std::vector<RequestGen> makeClients(uint64_t Seed, int Clients,
                                    const ServeState &St) {
  std::vector<RequestGen> Gens;
  Gens.reserve(Clients);
  for (int C = 0; C != Clients; ++C)
    Gens.emplace_back(Seed, C, St.HotSet, St.Multi);
  return Gens;
}

/// Runs one closed-loop client per generator in \p Gens against \p Srv
/// until \p Deadline (steady ns) or until each has sent \p PerClient
/// requests. A request that could not complete is recorded with its error.
std::vector<ReqRecord> drive(const ServerProc &Srv, ServeState &St,
                             std::vector<RequestGen> &Gens, uint64_t Deadline,
                             int64_t PerClient) {
  std::vector<std::vector<ReqRecord>> Recs(Gens.size());
  std::vector<std::thread> Threads;
  for (size_t C = 0; C != Gens.size(); ++C)
    Threads.emplace_back([&, C] {
      int Fd = Srv.connect(10);
      RequestGen &Gen = Gens[C];
      std::map<std::string, std::string> Local;
      for (int64_t K = 0;; ++K) {
        if (PerClient > 0 ? K >= PerClient : nowNs() >= Deadline)
          break;
        ReqRecord R;
        ReqSpec Spec = Gen.next(R.Kind);
        R.Id = static_cast<int64_t>(C) * 1000000000 + Gen.sent();
        R.Name = Spec.Name;
        std::string Req = requestJson(R.Id, Spec);
        std::string Resp;
        R.Begin = nowNs();
        bool Io = Fd >= 0 && roundTrip(Fd, Req, Resp);
        R.End = nowNs();
        if (!Io) {
          R.Error = Fd < 0 ? "client cannot connect" : "transport error";
          Recs[C].push_back(std::move(R));
          break;
        }
        R.BytesIn = static_cast<int64_t>(Req.size() + kFrameHeaderBytes);
        R.BytesOut = static_cast<int64_t>(Resp.size() + kFrameHeaderBytes);
        parseResponse(Resp, R);
        if (R.Kind != Hot)
          Local.emplace(Spec.Name, std::move(Spec.Source));
        Recs[C].push_back(std::move(R));
      }
      if (Fd >= 0)
        ::close(Fd);
      std::lock_guard<std::mutex> L(St.Mu);
      St.Sources.merge(Local);
    });
  for (std::thread &T : Threads)
    T.join();
  std::vector<ReqRecord> All;
  for (std::vector<ReqRecord> &CR : Recs)
    for (ReqRecord &R : CR)
      All.push_back(std::move(R));
  return All;
}

/// Server counters from the `metrics` command.
std::map<std::string, double> serverCounters(const ServerProc &Srv,
                                             Raw &Out) {
  std::map<std::string, double> M;
  int Fd = Srv.connect(5);
  std::string Resp, Err;
  JsonValue Doc;
  if (Fd < 0 || !roundTrip(Fd, "{\"cmd\":\"metrics\"}", Resp) ||
      !JsonValue::parse(Resp, Doc, Err)) {
    Out.checkOp(false, "metrics command failed");
  } else if (const JsonValue *Mt = Doc.get("metrics")) {
    if (const JsonValue *C = Mt->get("counters"))
      for (const auto &[K, V] : C->members())
        M[K] = V.numberValue();
  }
  if (Fd >= 0)
    ::close(Fd);
  return M;
}

/// The seeded hot set: 12 single-routine synth programs and four
/// three-routine programs, whose routines the edit requests vary.
void makeHotSet(uint64_t Seed, ServeState &St) {
  St.HotSet.clear();
  St.Multi.clear();
  for (int I = 0; I != 12; ++I) {
    SynthSpec S;
    S.Nests = 60 + (I * 140) / 11;
    S.Seed = Seed * 1000 + I;
    St.HotSet.push_back({"hot-" + std::to_string(I), synthSource(S)});
  }
  for (int M = 0; M != 4; ++M) {
    std::vector<std::string> Rs;
    for (int R = 0; R != 3; ++R)
      Rs.push_back(synthRoutine("r" + std::to_string(R), 40 + 20 * R,
                                Seed * 1000 + 100 + M * 10 + R));
    St.HotSet.push_back({"multi-" + std::to_string(M),
                         multiProgram("multi" + std::to_string(M), Rs)});
    St.Multi.push_back(std::move(Rs));
  }
}

void runServe(const Args &A, Raw &Out, Tracer &T) {
  ServeState St;
  std::vector<ReqRecord> Checked;
  // Sends every source of \p HotSet once; the responses are checked like
  // all others.
  auto Warm = [&](const ServerProc &S, const std::vector<ReqSpec> &HotSet) {
    int Fd = S.connect(5);
    for (size_t I = 0; I != HotSet.size(); ++I) {
      ReqRecord R;
      R.Id = 900000000 + static_cast<int64_t>(I);
      R.Name = HotSet[I].Name;
      std::string Resp;
      if (Fd < 0 || !roundTrip(Fd, requestJson(R.Id, HotSet[I]), Resp))
        R.Error = "transport error";
      else
        parseResponse(Resp, R);
      Checked.push_back(R);
    }
    if (Fd >= 0)
      ::close(Fd);
  };
  // One set-up: generate the hot set into \p S, spawn a fresh server, wait
  // for its first ping and warm the hot set.
  auto Setup = [&](ServeState &S, const std::string &Tag,
                   const std::string &Log) {
    uint64_t T0 = nowNs();
    makeHotSet(A.Seed, S);
    auto Srv = std::make_unique<ServerProc>(A, Tag, Log);
    int Fd = Srv->connect(30);
    bool Ok = Fd >= 0 && ping(Fd);
    if (Fd >= 0)
      ::close(Fd);
    Out.checkOp(Ok, "server " + Tag + " did not answer ping");
    Warm(*Srv, S.HotSet);
    Out.push("setup_s", secSince(T0));
    return Srv;
  };

  // Local single-thread compiles of 32 request-sized programs (compile time
  // and its scaling with entries), and recompiles of the hot set (the time
  // to a verdict on the hot responses).
  const CompileOptions Opts;
  std::vector<std::string> Corpus;
  for (int I = 0; I != 32; ++I) {
    SynthSpec S;
    S.Nests = 60 + (I * 140) / 31;
    S.Seed = A.Seed * 100000 + I;
    Corpus.push_back(synthSource(S));
  }
  std::vector<Compiled> Local(Corpus.size());
  std::map<std::string, CacheKey> Ref;
  auto LocalRep = [&] {
    double Sum = 0;
    for (size_t I = 0; I != Corpus.size(); ++I) {
      Local[I] = Compiled();
      Local[I] = compile(Corpus[I], Opts);
      Sum += Local[I].Wall;
      Out.push("point_s." + std::to_string(I), Local[I].Wall);
    }
    Out.push("sweep_s", Sum);
    Out.beginOp();
    uint64_t T0 = nowNs();
    for (const ReqSpec &H : St.HotSet) {
      CompileRequest Req;
      Req.Name = H.Name;
      Req.Source = H.Source;
      CacheKey D = CacheKey::of(runCompileRequest(Req, nullptr).Output);
      if (!Ref.emplace(H.Name, D).second && !(Ref[H.Name] == D))
        Out.error("local compile of " + H.Name + " changed between "
                  "repetitions");
    }
    Out.push("check_s", secSince(T0));
    Out.endOp();
  };

  // The untraced measurement: the request window in six segments. Between
  // segments, while the server idles, two local repetitions and two more
  // set-ups (their servers stopped again) run, so every metric samples the
  // host over the whole run. With --trace 1, one segment of a fixed number
  // of requests per client.
  const int Clients = 2;
  const int64_t PerClient = 1500;
  const int Segments = A.Trace ? 1 : 6;
  std::unique_ptr<ServerProc> Srv = Setup(St, "u", "");
  std::map<std::string, double> WarmCounters = serverCounters(*Srv, Out);
  std::vector<RequestGen> Gens = makeClients(A.Seed, Clients, St);
  std::vector<ReqRecord> Recs;
  double Window = 0;
  for (int Seg = 0; Seg != Segments; ++Seg) {
    uint64_t T0 = nowNs();
    std::vector<ReqRecord> R =
        drive(*Srv, St, Gens,
              T0 + static_cast<uint64_t>(A.Seconds / Segments * 1e9),
              A.Trace ? PerClient : 0);
    Window += secSince(T0);
    Recs.insert(Recs.end(), R.begin(), R.end());
    for (int I = 0; I != 2; ++I) {
      LocalRep();
      ServeState Extra;
      Setup(Extra, "u" + std::to_string(Seg * 2 + I), "");
    }
  }
  std::map<std::string, double> Counters = serverCounters(*Srv, Out);
  Out.Scalars["peak_rss_mb"] = Srv->peakRssMb();
  Srv->stop();
  for (size_t I = 0; I != Local.size(); ++I)
    Out.Scalars["entries." + std::to_string(I)] =
        Local[I].Stats["placement.entries-detected"];

  int64_t Ok = 0;
  for (const ReqRecord &R : Recs) {
    Out.push("op_ms", (R.End - R.Begin) * 1e-6);
    Ok += R.Ok;
  }
  Out.Scalars["window_s"] = Window;
  Out.Scalars["requests_ok"] = static_cast<double>(Ok);
  Out.Scalars["server_misses"] =
      Counters["cache.misses"] - WarmCounters["cache.misses"];
  for (const ReqRecord &R : Recs)
    Out.push("overhead.untraced_s", (R.End - R.Begin) * 1e-9);
  Checked.insert(Checked.end(), Recs.begin(), Recs.end());

  std::vector<ReqRecord> TracedRecs;
  std::map<std::string, double> TracedCounters;
  std::string LogPath;
  if (A.Trace) {
    LogPath = A.Workdir + "/serve-" + std::to_string(getpid()) + ".log";
    Srv = Setup(St, "t", LogPath);
    WarmCounters = serverCounters(*Srv, Out);
    Gens = makeClients(A.Seed, Clients, St);
    TracedRecs = drive(*Srv, St, Gens, 0, PerClient);
    TracedCounters = serverCounters(*Srv, Out);
    for (const auto &[K, V] : WarmCounters)
      TracedCounters[K] -= V;
    Srv->stop();
    Checked.insert(Checked.end(), TracedRecs.begin(), TracedRecs.end());
  }

  // Every ok response must equal a local compile of the same request: the
  // hot set's from LocalRep, the others compiled here on all cores once
  // the server is gone.
  std::vector<const std::pair<const std::string, std::string> *> Work;
  for (const auto &KV : St.Sources)
    Work.push_back(&KV);
  std::vector<CacheKey> Digests(Work.size());
  {
    std::atomic<size_t> NextI{0};
    std::vector<std::thread> Pool;
    unsigned NThreads =
        std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
    for (unsigned W = 0; W != NThreads; ++W)
      Pool.emplace_back([&] {
        for (size_t I = NextI.fetch_add(1); I < Work.size();
             I = NextI.fetch_add(1)) {
          CompileRequest Req;
          Req.Name = Work[I]->first;
          Req.Source = Work[I]->second;
          Digests[I] = CacheKey::of(runCompileRequest(Req, nullptr).Output);
        }
      });
    for (std::thread &Th : Pool)
      Th.join();
  }
  for (size_t I = 0; I != Work.size(); ++I)
    Ref[Work[I]->first] = Digests[I];
  // One op per request: answered ok, and equal to the local compile.
  for (const ReqRecord &R : Checked) {
    Out.beginOp();
    auto It = Ref.find(R.Name);
    if (!R.Ok)
      Out.error("request " + R.Name + ": " + R.Error);
    else if (It == Ref.end() || !(It->second == R.Digest))
      Out.error("response for " + R.Name + (R.Hit ? " (cache hit)" : "") +
                " differs from a local compile");
    Out.endOp();
  }

  Out.Series["sim_comm_ms"] = fig10CommMs(fig10Points(A.Seed), Out);
  if (!A.Trace)
    return;

  // Traced: client spans per request, with the server's compile interval
  // (from its request log) as a child: cache replay on a hit (support);
  // on a miss the whole pipeline runs inside the server, which the client
  // cannot split by layer, so it keeps a lane of its own ("server").
  std::map<int64_t, JsonValue> LogLines;
  std::ifstream Log(LogPath);
  for (std::string Line; std::getline(Log, Line);) {
    JsonValue Doc;
    std::string Err;
    if (JsonValue::parse(Line, Doc, Err) && Doc.get("id") &&
        Doc.get("queue_wait_ms") && Doc.get("compile_ms"))
      LogLines[Doc.get("id")->intValue()] = Doc;
  }
  T.On = true;
  double BytesIn = 0, BytesOut = 0;
  for (const ReqRecord &R : TracedRecs) {
    Out.push("overhead.traced_s", (R.End - R.Begin) * 1e-9);
    BytesIn += R.BytesIn;
    BytesOut += R.BytesOut;
    T.add("driver.request", "driver", R.Begin, R.End, -1, R.Id);
    int Parent = static_cast<int>(T.Spans.size()) - 1;
    auto It = LogLines.find(R.Id);
    if (It == LogLines.end()) {
      Out.checkOp(false, "no server log line for request " + R.Name);
      continue;
    }
    const JsonValue &L = It->second;
    double QueueMs = L.get("queue_wait_ms")->numberValue();
    double CompileMs = L.get("compile_ms")->numberValue();
    Out.push("serve.queue_wait_ms", QueueMs);
    Out.push("serve.compile_ms", CompileMs);
    uint64_t Dur = std::min<uint64_t>(R.End - R.Begin,
                                      static_cast<uint64_t>(CompileMs * 1e6));
    T.add(R.Hit ? "support.cache_replay" : "serve.compile",
          R.Hit ? "support" : "server", R.End - Dur, R.End, Parent, R.Id);
  }
  T.On = false;
  Out.Scalars["frame.bytes_in"] = BytesIn;
  Out.Scalars["frame.bytes_out"] = BytesOut;
  auto C = [&](const char *K) { return TracedCounters[K]; };
  Out.Scalars["serve.ok"] = C("server.ok");
  Out.Scalars["serve.overloaded"] = C("server.overloaded");
  Out.Scalars["serve.timeouts"] = C("server.timeouts");
  Out.Scalars["serve.errors"] = C("server.compile-errors") +
                                C("server.bad-requests") +
                                C("server.bad-frames") +
                                C("server.write-errors");
  Out.Scalars["cache.hits"] = C("cache.hits");
  Out.Scalars["cache.misses"] = C("cache.misses");
  Out.Scalars["cache.routine_hits"] = C("cache.routine-hits");
  Out.Scalars["cache.routine_misses"] = C("cache.routine-misses");
  Out.Scalars["cache.evictions"] = C("cache.evictions");
}

} // namespace

int main(int argc, char **argv) {
  Args A;
  for (int I = 1; I + 1 < argc; I += 2) {
    std::string K = argv[I], V = argv[I + 1];
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      A.Seconds = std::atof(V.c_str());
    else if (K == "--trace")
      A.Trace = V == "1";
    else if (K == "--server")
      A.Server = V;
    else if (K == "--workdir")
      A.Workdir = V;
    else {
      std::fprintf(stderr, "gcabench: unknown argument '%s'\n", K.c_str());
      return 2;
    }
  }
  Raw Out;
  Tracer T;
  if (A.Workload == "synth-scale")
    runSynth(A, Out, T);
  else if (A.Workload == "paper-fig10")
    runFig10(A, Out, T);
  else if (A.Workload == "serve-mix")
    runServe(A, Out, T);
  else {
    std::fprintf(stderr, "gcabench: unknown workload '%s'\n",
                 A.Workload.c_str());
    return 2;
  }
  std::string Doc = renderRaw(A, Out, T);
  if (std::fwrite(Doc.data(), 1, Doc.size(), stdout) != Doc.size() ||
      std::fputc('\n', stdout) == EOF || std::fflush(stdout) != 0)
    return 1;
  return 0;
}
