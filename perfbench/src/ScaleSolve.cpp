//===- perfbench/src/ScaleSolve.cpp - Workload scale-solve ----------------===//
//
// Seeded 16k-65k-vertex subtree-mode challenge instances, written as .rcb
// files during set-up, then loaded with readChallengeFile (mmap) and
// coalesced sequentially with the Briggs, George and Briggs-or-George
// rules. Every instance is above WorkGraph::DefaultDenseThreshold, so all
// of the time goes to the sparse WorkGraph path; dense mode, ir and
// service are never touched.
//
// One op is one (instance, rule) pair: load + conservativeCoalesce. A
// round is every op once, in a fixed order.
//
// The register count k = omega + 2 of a subtree instance swings by a
// third between seeds (omega is an extreme value), and with it the cost
// and the coalesced share. Three 65536-vertex instances per seed, rather
// than one, keep the slowest ops (the median and 90th percentile) and the
// totals from resting on a single draw of omega.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Harness.h"

#include "challenge/ChallengeBinary.h"
#include "challenge/ChallengeInstance.h"
#include "coalescing/Conservative.h"

#include <fstream>
#include <sys/stat.h>

using namespace perfbench;
using namespace rc;

namespace {

// Two 16k instances put the median op inside the cluster of the three
// 65k George runs rather than on the edge between two op kinds.
const unsigned Sizes[] = {16384, 16384, 32768, 65536, 65536, 65536};

struct Rule {
  const char *Spec;
  ConservativeRule Value;
};
const Rule Rules[] = {{"briggs", ConservativeRule::Briggs},
                      {"george", ConservativeRule::George},
                      {"briggs+george", ConservativeRule::BriggsOrGeorge}};
constexpr unsigned NumRules = sizeof(Rules) / sizeof(Rules[0]);

/// An instance as the measured loop sees it: a file. The in-memory
/// instance it was written from is not kept (it would sit in peak_rss_mb);
/// the checks regenerate it from the seed.
struct Instance {
  std::string Path;
  uint64_t Bytes = 0;
  unsigned Vertices = 0;
};

/// What one op produced; round 0 keeps the solutions for the checks.
struct OpResult {
  CoalescingSolution Solution;
  CoalescingStats Stats;
};

struct Loop {
  std::vector<double> LatencyMs;
  std::vector<OpResult> First; // Round 0, op order.
  CoalescingTelemetry Telemetry; // Round 0.
  uint64_t Ops = 0;
  uint64_t BytesLoaded = 0;
  double WallS = 0;
  unsigned Rounds = 0;
};

/// Instance \p I of the seed; the same seed gives the same instance.
CoalescingProblem generate(const Options &O, unsigned I) {
  Rng Rand(deriveSeed(O.Seed, 1, I));
  ChallengeOptions CO;
  CO.NumValues = Sizes[I];
  CO.TreeSize = Sizes[I] / 2;
  CO.PressureSlack = 2;
  return generateChallengeInstance(CO, Rand);
}

void setUp(const Options &O, Tracer &T, std::vector<Instance> &Out,
           Report &R) {
  Out.clear();
  for (unsigned I = 0; I < sizeof(Sizes) / sizeof(Sizes[0]); ++I) {
    Instance Inst;
    CoalescingProblem P;
    {
      Scope S(T, "challenge.generate");
      P = generate(O, I);
    }
    Inst.Vertices = P.G.numVertices();
    Inst.Path = O.WorkDir + "/scale" + std::to_string(I) + ".rcb";
    {
      Scope S(T, "challenge.write_binary");
      std::ofstream OS(Inst.Path, std::ios::binary | std::ios::trunc);
      writeChallengeBinary(OS, P);
      if (!OS)
        R.fail("could not write " + Inst.Path);
    }
    struct stat St;
    if (::stat(Inst.Path.c_str(), &St) == 0)
      Inst.Bytes = static_cast<uint64_t>(St.st_size);
    Out.push_back(std::move(Inst));
  }
}

void runLoop(const std::vector<Instance> &Instances, double Budget,
             Tracer &T, Loop &L, Report &R) {
  runRounds(Budget, L.Rounds, L.WallS, [&] {
    bool FirstRound = L.First.empty();
    for (size_t I = 0; I < Instances.size(); ++I)
      for (unsigned J = 0; J < NumRules; ++J) {
        size_t Op = I * NumRules + J;
        T.setItem(static_cast<uint32_t>(Op));
        CoalescingTelemetry Tel;
        int64_t Start = nowNs();
        CoalescingProblem P;
        std::string Error;
        bool Loaded;
        {
          Scope S(T, "challenge.load");
          Loaded = readChallengeFile(Instances[I].Path, P, &Error);
        }
        ConservativeResult Res;
        if (Loaded) {
          Scope S(T, "coalescing.conservative");
          Res = conservativeCoalesce(P, Rules[J].Value, &Tel);
        }
        L.LatencyMs.push_back(secondsSince(Start) * 1e3);
        ++L.Ops;
        L.BytesLoaded += Instances[I].Bytes;
        if (!Loaded) {
          R.fail("readChallengeFile: " + Error);
          if (FirstRound)
            L.First.push_back({});
          continue;
        }
        if (FirstRound) {
          L.First.push_back({std::move(Res.Solution), Res.Stats});
          L.Telemetry.add(Tel);
        } else if (!checkSameSolution(Res.Solution, L.First[Op].Solution,
                                      &Error)) {
          R.fail("round " + std::to_string(L.Rounds) + ": " + Error);
        }
      }
  });
}

/// Round 0's solutions are sound and greedy-k-colorable; the loaded
/// instance's solution equals the in-memory instance's (checked with the
/// cheapest rule, George: the input is what the check is about).
void checkFirstRound(const Options &O, const std::vector<Instance> &Instances,
                     const Loop &L, Tracer &T, Report &R) {
  constexpr unsigned George = 1;
  for (unsigned I = 0; I < Instances.size(); ++I) {
    CoalescingProblem InMemory = generate(O, I);
    for (unsigned J = 0; J < NumRules; ++J) {
      const OpResult &Op = L.First[I * NumRules + J];
      std::string Error;
      std::string Where = std::string(Rules[J].Spec) + " instance " +
                          std::to_string(I) + ": ";
      if (!checkSoundGreedy(InMemory, Op.Solution, T, &Error)) {
        R.fail(Where + Error);
        continue;
      }
      if (J != George)
        continue;
      ConservativeResult Mem = conservativeCoalesce(InMemory, Rules[J].Value);
      if (!checkSameSolution(Op.Solution, Mem.Solution, &Error))
        R.fail(Where + Error);
    }
  }
}

void addQuality(const Loop &L, Report &R) {
  double Coalesced = 0, Total = 0, Left = 0;
  for (const OpResult &Op : L.First) {
    Coalesced += Op.Stats.CoalescedWeight;
    Total += Op.Stats.CoalescedWeight + Op.Stats.UncoalescedWeight;
    Left += Op.Stats.UncoalescedAffinities;
  }
  R.metric("coalesced_weight_share", Total > 0 ? Coalesced / Total : 0,
           "share");
  R.metric("moves_left", Left / static_cast<double>(L.First.size()),
           "count");
}

} // namespace

namespace perfbench {

void runScaleSolve(const Options &O, Report &R, std::vector<Tracer> &Tracers) {
  Tracer &T = Tracers[0];
  std::vector<Instance> Instances;
  size_t SetupMark = T.mark();
  double SetupS = medianSetupSeconds(ScaleSetupRepeats, [&](unsigned) {
    setUp(O, T, Instances, R);
  });
  double Sparse = 0;
  for (const Instance &Inst : Instances)
    Sparse += Inst.Vertices > WorkGraph::DefaultDenseThreshold;
  Sparse /= static_cast<double>(Instances.size());
  R.detail("instances", static_cast<double>(Instances.size()));
  R.detail("dense_instance_share", 1.0 - Sparse);
  R.detail("sparse_instance_share", Sparse);

  if (!O.Trace) {
    Loop L;
    startPeakRss(R);
    runLoop(Instances, O.Seconds, T, L, R);
    double PeakMb = peakRssMb();
    R.Attempted = L.Ops;
    checkFirstRound(O, Instances, L, T, R);
    R.metric("setup_s", SetupS, "s");
    R.metric("ops_per_s", static_cast<double>(L.Ops) / L.WallS, "1/s");
    R.metric("latency_ms.p50", percentile(L.LatencyMs, 0.5), "ms");
    R.metric("latency_ms.p90", percentile(L.LatencyMs, 0.9), "ms");
    addQuality(L, R);
    R.metric("peak_rss_mb", PeakMb, "MB");
    R.detail("latency_samples", static_cast<double>(L.LatencyMs.size()));
    R.detail("rounds", L.Rounds);
    return;
  }

  std::map<std::string, int64_t> Setup = T.selfTimes(SetupMark);
  R.metric("challenge.generate_ms",
           static_cast<double>(Setup["challenge.generate"]) * 1e-6 /
               (ScaleSetupRepeats * static_cast<double>(Instances.size())),
           "ms");
  size_t LoopMark = T.mark();
  // Traced run: two rounds untraced and two traced, alternating.
  Loop Plain, Traced;
  for (unsigned I = 0; I < 4; ++I) {
    T.setEnabled(I % 2 == 1);
    runLoop(Instances, 0, T, I % 2 ? Traced : Plain, R);
  }
  T.setEnabled(true);
  std::map<std::string, int64_t> Self = T.selfTimes(LoopMark);
  R.Attempted = Plain.Ops + Traced.Ops;
  double Ops = static_cast<double>(Traced.Ops);
  addLayerRows(R, Self, Ops, Traced.WallS);
  R.metric("challenge.load_mb_per_s",
           static_cast<double>(Traced.BytesLoaded) / 1048576.0 /
               (static_cast<double>(Self["challenge.load"]) * 1e-9),
           "MB/s");
  R.metric("trace.overhead_share",
           (Traced.WallS / Traced.Rounds) / (Plain.WallS / Plain.Rounds) - 1,
           "share");
  addTelemetryRows(Traced.Telemetry, Ops / Traced.Rounds, R);
  R.metric("coalescing.sparse_instance_share", Sparse, "share");

  // Probes (outside the timed rounds): the engine set-up that
  // conservativeCoalesce does first, timed on its own.
  size_t ProbeMark = T.mark();
  for (unsigned I = 0; I < Instances.size(); ++I) {
    CoalescingProblem P = generate(O, I);
    int32_t Build = T.begin("coalescing.workgraph_build");
    WorkGraph WG(P.G);
    T.end(Build);
    Scope S(T, "coalescing.degree_cache");
    WG.enableDegreeCache(P.K);
  }
  std::map<std::string, int64_t> Probe = T.selfTimes(ProbeMark);
  for (const char *Name :
       {"coalescing.workgraph_build", "coalescing.degree_cache"})
    R.metric(std::string(Name) + "_ms",
             static_cast<double>(Probe[Name]) * 1e-6 /
                 static_cast<double>(Instances.size()),
             "ms");

  size_t CheckMark = T.mark();
  checkFirstRound(O, Instances, Traced, T, R);
  std::map<std::string, int64_t> Check = T.selfTimes(CheckMark);
  for (const char *Name : {"graph.quotient_build", "graph.greedy_eliminate"})
    R.metric(std::string(Name) + "_ms",
             static_cast<double>(Check[Name]) * 1e-6 /
                 static_cast<double>(Traced.First.size()),
             "ms");
}

} // namespace perfbench
