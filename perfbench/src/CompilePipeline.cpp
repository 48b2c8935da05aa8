//===- perfbench/src/CompilePipeline.cpp - Workload compile-pipeline ------===//
//
// The paper's pipeline on seeded strict-SSA functions of 32-256 blocks
// (the knob set the SSA and allocator benches share: up to 8 instructions
// per block, 4 phis per join, 30% copies), allocated with
// regalloc::allocateTwoPhase at K = 8 and K = 16. This is the only workload
// where ir (out-of-SSA, liveness and interference), spilling, brute-force
// conservative coalescing and register rewriting do the work.
//
// One op compiles one (function, K) pair: allocateTwoPhase, verifyCfg on
// the result, and an interpreter run of the allocated code. The original
// SSA function is interpreted once during set-up; every op must return
// the same values. Set-up keeps only those results: the loop regenerates
// a group's functions from the seed just before compiling them, outside
// the timed part, so that peak_rss_mb is not set by 528 resident inputs.
//
// The traced run cannot put spans inside allocateTwoPhase, so it composes
// the same steps from their public functions and checks that the
// composition reproduces allocateTwoPhase's spills, moves and interpreted
// results exactly.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Harness.h"

#include "coalescing/BiasedColoring.h"
#include "coalescing/Conservative.h"
#include "coalescing/Spilling.h"
#include "coalescing/WorkGraph.h"
#include "ir/InterferenceBuilder.h"
#include "ir/OutOfSsa.h"
#include "ir/ProgramGenerator.h"
#include "ir/Verifier.h"
#include "regalloc/Allocators.h"
#include "regalloc/RegisterRewriter.h"
#include "regalloc/SpillRewriter.h"

using namespace perfbench;
using namespace rc;

namespace {

/// Function sizes of one group, in blocks. Four small, three medium, two
/// large and two largest functions per group put the median op in the
/// middle of the 64-block class and the 90th percentile in the middle of
/// the 256-block class, away from the boundaries between size classes
/// where a percentile would jump.
const unsigned GroupBlocks[] = {32, 32, 32, 32, 64, 64, 64, 128, 128, 256, 256};
constexpr unsigned GroupSize = sizeof(GroupBlocks) / sizeof(unsigned);
const unsigned Registers[] = {8, 16};
constexpr unsigned OpsPerGroup = GroupSize * 2;
/// Distinct groups per seed; an untraced run streams through them (and
/// wraps around on a fast host).
constexpr unsigned NumGroups = 48;
/// The quality metrics and the traced run cover exactly these groups.
constexpr unsigned QualityGroups = 20;
constexpr unsigned MaxIterations = 64;


/// Everything an op produced that the traced composition must reproduce.
struct OpSummary {
  bool Success = false;
  unsigned Iterations = 0, Spilled = 0, Loads = 0, Stores = 0;
  unsigned MovesRemoved = 0, MovesRemaining = 0;
  unsigned InterferenceBuilds = 0;
  /// Vertices of the coalescing problem (traced composition only).
  unsigned CoalescingVertices = 0;
  uint64_t Steps = 0;
  std::vector<int64_t> Returned;

  bool operator==(const OpSummary &O) const {
    return Success == O.Success && Iterations == O.Iterations &&
           Spilled == O.Spilled && Loads == O.Loads && Stores == O.Stores &&
           MovesRemoved == O.MovesRemoved &&
           MovesRemaining == O.MovesRemaining && Steps == O.Steps &&
           Returned == O.Returned;
  }
};

/// Function \p I of the seed; the same seed gives the same function.
ir::Function generate(const Options &O, unsigned I) {
  Rng Rand(deriveSeed(O.Seed, 4, I));
  ir::GeneratorOptions GO;
  GO.NumBlocks = GroupBlocks[I % GroupSize];
  GO.MaxInstructionsPerBlock = 8;
  GO.MaxPhisPerJoin = 4;
  GO.CopyProbability = 0.3;
  return ir::generateRandomSsaFunction(GO, Rand);
}

/// Generates, verifies and interprets every function; keeps what each
/// original returns, by function index.
void setUp(const Options &O, Tracer &T,
           std::vector<ir::ExecutionResult> &Originals, Report &R) {
  Originals.clear();
  for (unsigned I = 0; I < NumGroups * GroupSize; ++I) {
    ir::Function F;
    {
      Scope S(T, "ir.generate");
      F = generate(O, I);
    }
    std::string Error;
    {
      Scope S(T, "ir.verify");
      if (!ir::verifyStrictSsa(F, &Error))
        R.fail("generated function is not strict SSA: " + Error);
    }
    {
      Scope S(T, "ir.interpret");
      Originals.push_back(ir::interpret(F));
    }
    if (!Originals.back().Ok)
      R.fail("original function did not return: " + Originals.back().Error);
  }
}

/// One op through the library's own allocateTwoPhase.
OpSummary compile(const ir::Function &F, unsigned K) {
  OpSummary S;
  regalloc::AllocationResult A =
      regalloc::allocateTwoPhase(F, K, MaxIterations);
  S.Success = A.Success && ir::verifyCfg(A.Allocated);
  S.Iterations = A.Iterations;
  S.Spilled = A.SpilledValues;
  S.Loads = A.LoadsInserted;
  S.Stores = A.StoresInserted;
  S.MovesRemoved = A.MovesRemoved;
  S.MovesRemaining = A.MovesRemaining;
  if (S.Success) {
    ir::ExecutionResult E = ir::interpret(A.Allocated);
    S.Success = E.Ok;
    S.Steps = E.Steps;
    S.Returned = std::move(E.ReturnValues);
  }
  return S;
}

/// The same op composed from allocateTwoPhase's public steps, one span
/// per layer call.
OpSummary compileTraced(const ir::Function &Input, unsigned K, Tracer &T,
                        CoalescingTelemetry &Tel) {
  OpSummary S;
  ir::Function F = Input;
  bool HasPhis = false;
  for (ir::BlockId B = 0; B < F.numBlocks(); ++B)
    HasPhis |= !F.block(B).Phis.empty();
  if (HasPhis) {
    Scope Span(T, "ir.out_of_ssa");
    ir::lowerOutOfSsa(F);
  }

  int64_t NextSlot = 0;
  std::vector<double> Costs(F.numValues(), 1.0);
  constexpr double TempCost = 1e12;
  for (;;) {
    if (++S.Iterations > MaxIterations)
      return S;
    ir::InterferenceGraph IG;
    {
      Scope Span(T, "ir.interference");
      IG = ir::buildInterferenceGraph(F, ir::InterferenceMode::Chaitin);
    }
    ++S.InterferenceBuilds;
    SpillResult Spill;
    {
      Scope Span(T, "coalescing.spill_to_greedy");
      Spill = spillToGreedyK(IG.G, K, Costs);
    }
    if (Spill.Spilled.empty())
      break;
    regalloc::SpillRewriteStats Stats;
    {
      Scope Span(T, "regalloc.spill_rewrite");
      Stats = regalloc::spillEverywhere(F, Spill.Spilled, NextSlot);
    }
    NextSlot += Stats.SlotsUsed;
    S.Spilled += Stats.SlotsUsed;
    S.Loads += Stats.LoadsInserted;
    S.Stores += Stats.StoresInserted;
    Costs.resize(F.numValues(), TempCost);
  }

  CoalescingProblem P;
  {
    Scope Span(T, "ir.interference");
    ir::InterferenceGraph IG =
        ir::buildInterferenceGraph(F, ir::InterferenceMode::Chaitin);
    P.G = std::move(IG.G);
    P.Affinities = std::move(IG.Affinities);
  }
  ++S.InterferenceBuilds;
  P.K = K;
  S.CoalescingVertices = P.G.numVertices();
  ConservativeResult Cons;
  {
    Scope Span(T, "coalescing.conservative");
    Cons = conservativeCoalesce(P, ConservativeRule::BruteForce, &Tel);
  }
  CoalescingProblem Quotient;
  {
    Scope Span(T, "graph.quotient_build");
    Quotient.G = buildCoalescedGraph(P.G, Cons.Solution);
  }
  Quotient.K = K;
  for (const Affinity &A : P.Affinities) {
    unsigned CU = Cons.Solution.ClassIds[A.U];
    unsigned CV = Cons.Solution.ClassIds[A.V];
    if (CU != CV && !Quotient.G.hasEdge(CU, CV))
      Quotient.Affinities.push_back({CU, CV, A.Weight});
  }
  BiasedColoringResult Biased;
  {
    Scope Span(T, "coalescing.biased_coloring");
    Biased = biasedColoring(Quotient);
  }
  Coloring Colors(F.numValues());
  for (unsigned V = 0; V < F.numValues(); ++V)
    Colors[V] = Biased.Colors[Cons.Solution.ClassIds[V]];
  regalloc::RegisterRewriteResult RR;
  {
    Scope Span(T, "regalloc.rewrite");
    RR = regalloc::rewriteToRegisters(F, Colors, K);
  }
  S.MovesRemoved = RR.MovesRemoved;
  S.MovesRemaining = RR.MovesRemaining;
  {
    Scope Span(T, "ir.verify");
    S.Success = ir::verifyCfg(RR.Rewritten);
  }
  if (S.Success) {
    Scope Span(T, "ir.interpret");
    ir::ExecutionResult E = ir::interpret(RR.Rewritten);
    S.Success = E.Ok;
    S.Steps = E.Steps;
    S.Returned = std::move(E.ReturnValues);
  }
  return S;
}

struct Loop {
  std::vector<double> LatencyMs;
  /// First result of every op, by op index (function * 2 + register set).
  std::map<size_t, OpSummary> Ops;
  CoalescingTelemetry Telemetry;
  uint64_t Count = 0;
  /// Time spent compiling, without the regeneration of the inputs.
  double WallS = 0;
  unsigned Groups = 0;
};

/// Compiles every function of group \p G (modulo the corpus) at both K.
void runGroup(const Options &O,
              const std::vector<ir::ExecutionResult> &Originals, unsigned G,
              bool Traced, Tracer &T, Loop &L, Report &R) {
  unsigned First = (G % NumGroups) * GroupSize;
  std::vector<ir::Function> Fns;
  for (unsigned I = First; I < First + GroupSize; ++I)
    Fns.push_back(generate(O, I));
  int64_t GroupStart = nowNs();
  for (unsigned I = First; I < First + GroupSize; ++I)
    for (unsigned J = 0; J < 2; ++J) {
      size_t Op = I * 2 + J;
      const ir::Function &F = Fns[I - First];
      T.setItem(static_cast<uint32_t>(Op));
      CoalescingTelemetry Tel;
      int64_t Start = nowNs();
      OpSummary S = Traced ? compileTraced(F, Registers[J], T, Tel)
                           : compile(F, Registers[J]);
      L.LatencyMs.push_back(secondsSince(Start) * 1e3);
      ++L.Count;
      std::string Error;
      ir::ExecutionResult Got;
      Got.Ok = S.Success;
      Got.ReturnValues = S.Returned;
      if (!checkSameReturn(Originals[I], Got, &Error))
        R.fail("function " + std::to_string(I) + " K=" +
               std::to_string(Registers[J]) + ": " + Error);
      auto [It, New] = L.Ops.try_emplace(Op, std::move(S));
      if (New)
        L.Telemetry.add(Tel);
      else if (!(It->second == S))
        R.fail("op " + std::to_string(Op) + " compiled differently twice");
    }
  L.WallS += secondsSince(GroupStart);
}

/// Runs groups From, From + 1, ...: exactly \p Count of them, or when
/// \p Count is 0 until \p Budget seconds have passed (at least one).
unsigned runGroups(const Options &O,
                   const std::vector<ir::ExecutionResult> &Originals,
                   unsigned From, double Budget, unsigned Count, bool Traced,
                   Tracer &T, Loop &L, Report &R) {
  int64_t Start = nowNs();
  unsigned N = 0;
  do
    runGroup(O, Originals, From + N++, Traced, T, L, R);
  while (Count ? N < Count : secondsSince(Start) < Budget);
  L.Groups += N;
  return N;
}

/// Mean per op of \p Field over the ops of the quality groups.
template <typename F> double perOp(const Loop &L, F &&Field) {
  double Sum = 0;
  for (size_t Op = 0; Op < QualityGroups * OpsPerGroup; ++Op)
    Sum += static_cast<double>(Field(L.Ops.at(Op)));
  return Sum / (QualityGroups * OpsPerGroup);
}

} // namespace

void perfbench::runCompilePipeline(const Options &O, Report &R,
                                   std::vector<Tracer> &Tracers) {
  Tracer &T = Tracers[0];
  std::vector<ir::ExecutionResult> Originals;
  double SetupS = medianSetupSeconds(
      SetupRepeats, [&](unsigned) { setUp(O, T, Originals, R); });
  R.detail("functions", static_cast<double>(Originals.size()));

  if (!O.Trace) {
    Loop L;
    startPeakRss(R);
    runGroups(O, Originals, 0, O.Seconds, 0, false, T, L, R);
    double PeakMb = peakRssMb();
    R.Attempted = L.Count;
    // Pooled over the run: every window of it holds different functions,
    // so per-window percentiles would add input variation.
    R.metric("setup_s", SetupS, "s");
    R.metric("ops_per_s", static_cast<double>(L.Count) / L.WallS, "1/s");
    R.metric("latency_ms.p50", percentile(L.LatencyMs, 0.5), "ms");
    R.metric("latency_ms.p90", percentile(L.LatencyMs, 0.9), "ms");
    // Quality covers the same groups on every host: finish them untimed
    // if the timed loop stopped short.
    if (L.Groups < QualityGroups) {
      Loop Rest;
      runGroups(O, Originals, L.Groups, 0, QualityGroups - L.Groups, false, T,
                Rest, R);
      R.Attempted += Rest.Count;
      L.Ops.merge(Rest.Ops);
    }
    double Removed = perOp(L, [](const OpSummary &S) { return S.MovesRemoved; });
    double Left = perOp(L, [](const OpSummary &S) { return S.MovesRemaining; });
    R.metric("coalesced_weight_share",
             Removed + Left > 0 ? Removed / (Removed + Left) : 0, "share");
    R.metric("moves_left", Left, "count");
    R.metric("peak_rss_mb", PeakMb, "MB");
    R.detail("spill_ops", perOp(L, [](const OpSummary &S) {
               return S.Loads + S.Stores;
             }));
    R.detail("exec_steps", perOp(L, [](const OpSummary &S) {
               return S.Steps;
             }));
    R.detail("latency_samples", static_cast<double>(L.LatencyMs.size()));
    R.detail("groups", L.Groups);
    return;
  }

  // Traced run: the quality groups, each half compiled untraced through
  // allocateTwoPhase and then traced through the composition.
  size_t LoopMark = T.mark();
  Loop Plain, Traced;
  for (unsigned Half = 0; Half < 2; ++Half) {
    unsigned From = Half * QualityGroups / 2;
    T.setEnabled(false);
    runGroups(O, Originals, From, 0, QualityGroups / 2, false, T, Plain, R);
    T.setEnabled(true);
    runGroups(O, Originals, From, 0, QualityGroups / 2, true, T, Traced, R);
  }
  R.Attempted = Plain.Count + Traced.Count;
  for (const auto &[Op, S] : Plain.Ops)
    if (!(Traced.Ops.at(Op) == S))
      R.fail("op " + std::to_string(Op) +
             ": traced composition differs from allocateTwoPhase");

  double Ops = static_cast<double>(Traced.Count);
  addLayerRows(R, T.selfTimes(LoopMark), Ops, Traced.WallS);
  R.metric("trace.overhead_share", Traced.WallS / Plain.WallS - 1, "share");
  addTelemetryRows(Traced.Telemetry, Ops, R);
  // The conservative-coalescing problems the composition built: the share
  // above WorkGraph::DefaultDenseThreshold runs the sparse engine path.
  double Sparse = perOp(Traced, [](const OpSummary &S) {
    return S.CoalescingVertices > WorkGraph::DefaultDenseThreshold;
  });
  R.metric("coalescing.sparse_instance_share", Sparse, "share");
  R.detail("dense_instance_share", 1.0 - Sparse);
  R.detail("sparse_instance_share", Sparse);
  R.metric("ir.interference_builds", perOp(Traced, [](const OpSummary &S) {
             return S.InterferenceBuilds;
           }), "count");
  R.metric("regalloc.spill_rounds", perOp(Traced, [](const OpSummary &S) {
             return S.Iterations;
           }), "count");
  R.metric("regalloc.spill_ops", perOp(Traced, [](const OpSummary &S) {
             return S.Loads + S.Stores;
           }), "count");
  R.metric("ir.exec_steps", perOp(Traced, [](const OpSummary &S) {
             return S.Steps;
           }), "count");
}
