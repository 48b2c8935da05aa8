//===- perfbench/src/ChallengeSweep.cpp - Workload challenge-sweep --------===//
//
// A seeded corpus of 256-4096-vertex subtree- and program-mode instances,
// run through runBatch at a fixed worker count (min(4, cores)). Six
// strategies run on every instance; the two Theorem 5 strategies
// (chordal-thm5, exact-chordal-dp), whose cost grows steeply with size, run
// only on the 256-vertex instances (at 512 vertices one such job costs
// about 0.7 s, more than a worker's share of the rest of a group). Every
// instance is at or below WorkGraph::DefaultDenseThreshold, so this is the
// dense-mode and Theorem 5 workload: a change to the sparse path should not
// move it.
//
// One op is one job (instance, strategy); one round is one runBatch call
// on every job of the corpus. runBatch gives no hook around a job, so the
// latency samples come from the sequential reference pass the output check
// runs anyway: the harness's clock around each runStrategy call, which
// covers the strategy, the solution's evaluation and the quotient's
// greedy-k test, one sample per job.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Harness.h"

#include "challenge/ChallengeInstance.h"
#include "coalescing/WorkGraph.h"

#include <algorithm>

using namespace perfbench;
using namespace rc;

namespace {

const unsigned SubtreeSizes[] = {4096, 2048, 1024, 512, 256};
// About 2100, 1050 and 620 vertices: all above SmallLimit, because the
// Theorem 5 strategies' cost on a program instance swings several-fold
// with the seed.
const unsigned ProgramBlocks[] = {400, 200, 120};
/// Instances of one kind and size differ by up to a third in cost between
/// seeds; four of each keep the sweep's totals and percentiles from resting
/// on one draw.
constexpr unsigned NumGroups = 4;

struct SpecInfo {
  const char *Spec;
  /// Span of the sequential reference call (traced runs).
  const char *SpanName;
  /// Runs only on instances of at most SmallLimit vertices.
  bool SmallOnly;
};
// Jobs are ordered strategy by strategy in this order, each over the
// instances from largest to smallest: longest jobs first, so the batch
// wall is close to a quarter of the total work instead of resting on
// where one long job falls. Optimistic leads because its cost has a heavy
// tail (one instance in several takes ten times the median); started
// first, a slow one overlaps the rest of the batch.
const SpecInfo Specs[] = {
    {"optimistic", "challenge.run_strategy.optimistic", false},
    {"irc", "challenge.run_strategy.irc", false},
    {"brute-conservative", "challenge.run_strategy.brute-conservative", false},
    {"chordal-thm5", "challenge.run_strategy.chordal-thm5", true},
    {"exact-chordal-dp", "challenge.run_strategy.exact-chordal-dp", true},
    {"briggs+george", "challenge.run_strategy.briggs_george", false},
    {"briggs", "challenge.run_strategy.briggs", false},
    {"george", "challenge.run_strategy.george", false},
};
constexpr unsigned SmallLimit = 256;

const SpecInfo &specInfo(const std::string &Spec) {
  for (const SpecInfo &S : Specs)
    if (Spec == S.Spec)
      return S;
  return Specs[0]; // Unreachable: jobs only use the table's specs.
}

struct Corpus {
  std::vector<LabeledProblem> Instances;
  std::vector<BatchJob> Jobs;
};

void setUp(const Options &O, Tracer &T, Corpus &C) {
  Scope S(T, "challenge.generate");
  C.Instances.clear();
  for (unsigned G = 0; G < NumGroups; ++G) {
    for (unsigned I = 0; I < sizeof(SubtreeSizes) / sizeof(unsigned); ++I) {
      Rng Rand(deriveSeed(O.Seed, 2, G * 100 + I));
      ChallengeOptions CO;
      CO.NumValues = SubtreeSizes[I];
      CO.TreeSize = SubtreeSizes[I] / 2;
      C.Instances.push_back({"g" + std::to_string(G) + " subtree n=" +
                                 std::to_string(SubtreeSizes[I]),
                             generateChallengeInstance(CO, Rand)});
    }
    for (unsigned I = 0; I < sizeof(ProgramBlocks) / sizeof(unsigned); ++I) {
      Rng Rand(deriveSeed(O.Seed, 3, G * 100 + I));
      ProgramChallengeOptions PO;
      PO.NumBlocks = ProgramBlocks[I];
      C.Instances.push_back({"g" + std::to_string(G) + " program blocks=" +
                                 std::to_string(ProgramBlocks[I]),
                             generateProgramChallengeInstance(PO, Rand)});
    }
  }
  std::vector<const LabeledProblem *> BySize;
  for (const LabeledProblem &L : C.Instances)
    BySize.push_back(&L);
  std::stable_sort(BySize.begin(), BySize.end(),
                   [](const LabeledProblem *A, const LabeledProblem *B) {
                     return A->Problem.G.numVertices() >
                            B->Problem.G.numVertices();
                   });
  C.Jobs.clear();
  for (const SpecInfo &Spec : Specs)
    for (const LabeledProblem *L : BySize)
      if (!Spec.SmallOnly || L->Problem.G.numVertices() <= SmallLimit)
        C.Jobs.push_back({&L->Problem, L->Label, Spec.Spec});
}

struct Loop {
  /// Per batch: jobs per second of its wall. The reported figure is the
  /// median over batches, so one batch slowed by the shared host does not
  /// move it.
  std::vector<double> OpsPerS;
  /// Timing-suppressed job lines of every batch.
  std::vector<std::vector<std::string>> Lines;
  BatchReport First;
  uint64_t Jobs = 0;
  double WallS = 0;
  unsigned Rounds = 0;
};

void runOneBatch(const Corpus &C, const Options &O, Tracer &T, Loop &L,
                 Report &R) {
  BatchOptions BO;
  BO.Workers = O.Threads;
  T.setItem(L.Rounds);
  int64_t Start = nowNs();
  BatchReport Batch;
  {
    Scope S(T, "runner.run_batch");
    Batch = runBatch(C.Jobs, BO);
  }
  L.OpsPerS.push_back(static_cast<double>(Batch.Jobs.size()) /
                      secondsSince(Start));
  for (const BatchJobResult &J : Batch.Jobs) {
    ++L.Jobs;
    if (!J.Result.ok())
      R.fail(J.Instance + " " + J.Spec + ": status " +
             runStatusName(J.Result.Status));
  }
  L.Lines.push_back(jobLines(Batch));
  if (L.First.Jobs.empty())
    L.First = std::move(Batch);
}

/// The sequential reference: every job through runStrategy on this thread,
/// assembled into a report so the same JSONL writer renders it. Appends
/// each call's wall time to \p JobMs.
BatchReport runSequential(const Corpus &C, Tracer &T,
                          std::map<std::string, double> &JobsPerSpan,
                          std::vector<double> &JobMs) {
  BatchReport Seq;
  for (size_t I = 0; I < C.Jobs.size(); ++I) {
    const BatchJob &J = C.Jobs[I];
    RunRequest Request;
    Request.Problem = J.Problem;
    Request.Spec = J.Spec;
    T.setItem(static_cast<uint32_t>(I));
    BatchJobResult Result;
    Result.Index = I;
    Result.Instance = J.Instance;
    Result.Spec = J.Spec;
    const char *Span = specInfo(J.Spec).SpanName;
    int64_t Start = nowNs();
    {
      Scope S(T, Span);
      Result.Result = runStrategy(Request);
    }
    JobMs.push_back(secondsSince(Start) * 1e3);
    JobsPerSpan[Span] += 1;
    Seq.Jobs.push_back(std::move(Result));
  }
  return Seq;
}

/// Every batch's JSONL against the sequential reference.
void checkBatches(const Corpus &C, const std::vector<const Loop *> &Loops,
                  Tracer &T, std::map<std::string, double> &JobsPerSpan,
                  std::vector<double> &JobMs, Report &R) {
  std::vector<std::string> Reference =
      jobLines(runSequential(C, T, JobsPerSpan, JobMs));
  for (const Loop *L : Loops)
    for (size_t B = 0; B < L->Lines.size(); ++B) {
      std::string Error;
      unsigned Bad = countLineMismatches(L->Lines[B], Reference, &Error);
      for (unsigned I = 0; I < Bad; ++I)
        R.fail("batch " + std::to_string(B) + ": " + Error);
    }
}

} // namespace

void perfbench::runChallengeSweep(const Options &O, Report &R,
                                  std::vector<Tracer> &Tracers) {
  Tracer &T = Tracers[0];
  Corpus C;
  size_t SetupMark = T.mark();
  double SetupS =
      medianSetupSeconds(SetupRepeats, [&](unsigned) { setUp(O, T, C); });
  unsigned Dense = 0;
  for (const LabeledProblem &L : C.Instances)
    Dense += L.Problem.G.numVertices() <= WorkGraph::DefaultDenseThreshold;
  double SparseShare =
      1.0 - static_cast<double>(Dense) / static_cast<double>(C.Instances.size());
  R.detail("instances", static_cast<double>(C.Instances.size()));
  R.detail("jobs_per_batch", static_cast<double>(C.Jobs.size()));
  R.detail("workers", O.Threads);
  R.detail("dense_instance_share", 1.0 - SparseShare);
  R.detail("sparse_instance_share", SparseShare);

  if (!O.Trace) {
    Loop L;
    startPeakRss(R);
    runRounds(O.Seconds, L.Rounds, L.WallS,
              [&] { runOneBatch(C, O, T, L, R); });
    double PeakMb = peakRssMb();
    R.Attempted = L.Jobs;
    std::map<std::string, double> PerSpan;
    std::vector<double> JobMs;
    checkBatches(C, {&L}, T, PerSpan, JobMs, R);
    R.metric("setup_s", SetupS, "s");
    R.metric("ops_per_s", median(L.OpsPerS), "1/s");
    R.metric("latency_ms.p50", percentile(JobMs, 0.5), "ms");
    R.metric("latency_ms.p90", percentile(JobMs, 0.9), "ms");
    double Coalesced = 0, Total = 0, Left = 0;
    for (const BatchJobResult &J : L.First.Jobs) {
      const CoalescingStats &S = J.Result.Outcome.Stats;
      Coalesced += S.CoalescedWeight;
      Total += S.CoalescedWeight + S.UncoalescedWeight;
      Left += S.UncoalescedAffinities;
    }
    R.metric("coalesced_weight_share", Total > 0 ? Coalesced / Total : 0,
             "share");
    R.metric("moves_left", Left / static_cast<double>(L.First.Jobs.size()),
             "count");
    R.metric("peak_rss_mb", PeakMb, "MB");
    R.detail("latency_samples", static_cast<double>(JobMs.size()));
    R.detail("batches", L.Rounds);
    return;
  }

  std::map<std::string, int64_t> Setup = T.selfTimes(SetupMark);
  R.metric("challenge.generate_ms",
           static_cast<double>(Setup["challenge.generate"]) * 1e-6 /
               SetupRepeats / static_cast<double>(C.Instances.size()),
           "ms");
  // Traced run: one untraced warm-up batch (the first batch of a process
  // pays for growing the heap), then untraced, traced, traced, untraced,
  // so that a steady drift of the host's speed cancels.
  Loop Warm, Plain, Traced;
  T.setEnabled(false);
  runRounds(0, Warm.Rounds, Warm.WallS,
            [&] { runOneBatch(C, O, T, Warm, R); });
  size_t LoopMark = T.mark();
  for (unsigned I = 0; I < 4; ++I) {
    bool On = I == 1 || I == 2;
    T.setEnabled(On);
    Loop &L = On ? Traced : Plain;
    runRounds(0, L.Rounds, L.WallS, [&] { runOneBatch(C, O, T, L, R); });
  }
  T.setEnabled(true);
  std::map<std::string, int64_t> Self = T.selfTimes(LoopMark);
  R.Attempted = Warm.Jobs + Plain.Jobs + Traced.Jobs;
  addLayerRows(R, Self, static_cast<double>(Traced.Jobs), Traced.WallS);
  R.metric("trace.overhead_share", Traced.WallS / Plain.WallS - 1, "share");
  CoalescingTelemetry Tel;
  for (const StrategyRollup &Rollup : Traced.First.Rollups)
    Tel.add(Rollup.Telemetry);
  addTelemetryRows(Tel, static_cast<double>(Traced.First.Jobs.size()), R);
  R.metric("coalescing.sparse_instance_share", SparseShare, "share");

  // The sequential reference pass, traced per strategy.
  size_t SeqMark = T.mark();
  std::map<std::string, double> PerSpan;
  std::vector<double> JobMs;
  checkBatches(C, {&Warm, &Plain, &Traced}, T, PerSpan, JobMs, R);
  std::map<std::string, int64_t> SeqSelf = T.selfTimes(SeqMark);
  int64_t SeqNs = 0;
  for (const SpecInfo &Spec : Specs) {
    SeqNs += SeqSelf[Spec.SpanName];
    std::string Name = Spec.SpanName;
    Name.insert(Name.rfind('.'), "_ms"); // challenge.run_strategy_ms.<spec>
    R.metric(Name,
             static_cast<double>(SeqSelf[Spec.SpanName]) * 1e-6 /
                 PerSpan[Spec.SpanName],
             "ms");
  }
  // Sequential work over the parallel wall it took, per worker.
  R.metric("runner.parallel_efficiency",
           static_cast<double>(SeqNs) * 1e-9 /
               (Traced.WallS / Traced.Rounds * O.Threads),
           "share");
}
