//===- perfbench/src/SelfTest.cpp - Benchmark self-test -------------------===//
//
// Feeds every output check of the benchmark a correct and a deliberately
// corrupted result (a flipped class id, a changed JSONL byte, a wrong
// return value, a changed reply byte) and requires it to pass the first
// and fire on the second. Also checks the span bookkeeping's self-time
// arithmetic on nested spans of known length.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Harness.h"

#include "challenge/ChallengeInstance.h"
#include "coalescing/Conservative.h"
#include "ir/ProgramGenerator.h"
#include "regalloc/Allocators.h"

#include <cmath>
#include <iostream>
#include <thread>

using namespace perfbench;
using namespace rc;

namespace {

int Failures = 0;

void expect(const char *Name, bool Ok) {
  std::cout << "selftest " << Name << ": " << (Ok ? "ok" : "FAIL") << "\n";
  Failures += !Ok;
}

void scaleChecks() {
  Rng Rand(11);
  ChallengeOptions CO;
  CO.NumValues = 600;
  CO.TreeSize = 300;
  CO.PressureSlack = 2;
  CoalescingProblem P = generateChallengeInstance(CO, Rand);
  CoalescingSolution S =
      conservativeCoalesce(P, ConservativeRule::Briggs).Solution;
  Tracer T;
  std::string Error;
  expect("scale.sound-accepts", checkSoundGreedy(P, S, T, &Error));

  // Flip one endpoint of an interference edge into the other's class.
  CoalescingSolution Merged = S;
  unsigned U = 0;
  while (P.G.neighbors(U).empty())
    ++U;
  Merged.ClassIds[U] = Merged.ClassIds[*P.G.neighbors(U).begin()];
  expect("scale.sound-fires-on-merged-interference",
         !checkSoundGreedy(P, Merged, T, &Error));

  CoalescingSolution OutOfRange = S;
  OutOfRange.ClassIds[0] = OutOfRange.NumClasses;
  expect("scale.sound-fires-on-class-id-out-of-range",
         !checkSoundGreedy(P, OutOfRange, T, &Error));

  // A triangle stays a triangle: not greedy-2-colorable.
  CoalescingProblem Triangle;
  Triangle.G = Graph(3);
  Triangle.G.addEdge(0, 1);
  Triangle.G.addEdge(1, 2);
  Triangle.G.addEdge(0, 2);
  Triangle.K = 2;
  expect("scale.greedy-fires-on-uncolorable-quotient",
         !checkSoundGreedy(Triangle, identitySolution(Triangle.G), T,
                           &Error));

  expect("scale.same-solution-accepts", checkSameSolution(S, S, &Error));
  CoalescingSolution Flipped = S;
  unsigned V = 0;
  while (Flipped.ClassIds[V] == Flipped.ClassIds[0])
    ++V;
  std::swap(Flipped.ClassIds[0], Flipped.ClassIds[V]);
  expect("scale.same-solution-fires-on-flipped-class-id",
         !checkSameSolution(Flipped, S, &Error));
}

void sweepChecks() {
  Rng Rand(12);
  ChallengeOptions CO;
  CO.NumValues = 128;
  CO.TreeSize = 64;
  CoalescingProblem P = generateChallengeInstance(CO, Rand);
  std::vector<BatchJob> Jobs = {{&P, "p", "briggs"}, {&P, "p", "irc"}};
  BatchOptions BO;
  BO.Workers = 2;
  BatchReport Batch = runBatch(Jobs, BO);
  BatchReport Seq;
  for (size_t I = 0; I < Jobs.size(); ++I) {
    RunRequest Request;
    Request.Problem = &P;
    Request.Spec = Jobs[I].Spec;
    Seq.Jobs.push_back({I, Jobs[I].Instance, Jobs[I].Spec,
                        runStrategy(Request)});
  }
  std::vector<std::string> Reference = jobLines(Seq);
  std::vector<std::string> Lines = jobLines(Batch);
  std::string Error;
  expect("sweep.jsonl-accepts",
         countLineMismatches(Lines, Reference, &Error) == 0);
  Lines[1][Lines[1].find("\"coalesced_affinities\":") + 23] ^= 1;
  expect("sweep.jsonl-fires-on-changed-byte",
         countLineMismatches(Lines, Reference, &Error) == 1);
  Lines.pop_back();
  expect("sweep.jsonl-fires-on-missing-job",
         countLineMismatches(Lines, Reference, &Error) == 1);
}

void pipelineChecks() {
  Rng Rand(13);
  ir::GeneratorOptions GO;
  GO.NumBlocks = 24;
  ir::Function F = ir::generateRandomSsaFunction(GO, Rand);
  ir::ExecutionResult Original = ir::interpret(F);
  regalloc::AllocationResult A = regalloc::allocateTwoPhase(F, 8);
  ir::ExecutionResult Allocated = ir::interpret(A.Allocated);
  std::string Error;
  expect("pipeline.return-accepts",
         A.Success && checkSameReturn(Original, Allocated, &Error));
  ir::ExecutionResult Wrong = Allocated;
  if (Wrong.ReturnValues.empty())
    Wrong.ReturnValues.push_back(0);
  else
    Wrong.ReturnValues[0] += 1;
  expect("pipeline.return-fires-on-wrong-value",
         !checkSameReturn(Original, Wrong, &Error));
  ir::ExecutionResult Stuck = Allocated;
  Stuck.Ok = false;
  expect("pipeline.return-fires-on-no-return",
         !checkSameReturn(Original, Stuck, &Error));
}

void serviceChecks() {
  Rng Rand(14);
  ChallengeOptions CO;
  CO.NumValues = 64;
  CO.TreeSize = 32;
  CoalescingProblem P = generateChallengeInstance(CO, Rand);
  std::string Reference = referencePayload(P, "briggs");
  std::string Error;
  expect("service.reply-accepts",
         checkSameReply(referencePayload(P, "briggs"), Reference, &Error));
  std::string Changed = Reference;
  Changed[Changed.find("\"coalesced_affinities\":") + 23] ^= 1;
  expect("service.reply-fires-on-changed-byte",
         !checkSameReply(Changed, Reference, &Error));
}

void traceArithmetic() {
  Tracer T(true);
  int32_t Outer = T.begin("outer");
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  {
    Scope Inner(T, "inner");
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  T.end(Outer);
  std::map<std::string, int64_t> Self = T.selfTimes();
  const Span &O = T.spans()[0];
  int64_t Total = O.EndNs - O.StartNs;
  expect("trace.self-times-add-up",
         Self["outer"] + Self["inner"] == Total && Self["inner"] >= 30000000 &&
             Self["outer"] >= 20000000 && Self["outer"] < Total - 30000000 + 1);
}

} // namespace

int perfbench::runSelfTest() {
  scaleChecks();
  sweepChecks();
  pipelineChecks();
  serviceChecks();
  traceArithmetic();
  std::cout << "selftest: " << Failures << " failure(s)" << std::endl;
  return Failures;
}
