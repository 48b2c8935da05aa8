//===- perfbench/src/Checks.cpp - Output checks of the workloads ----------===//

#include "Checks.h"

#include "graph/GreedyColorability.h"
#include "service/WireProtocol.h"
#include "testing/Oracles.h"

#include <sstream>

using namespace perfbench;
using namespace rc;

static bool fail(std::string *Error, const std::string &Message) {
  if (Error)
    *Error = Message;
  return false;
}

bool perfbench::checkSoundGreedy(const CoalescingProblem &P,
                                 const CoalescingSolution &S, Tracer &T,
                                 std::string *Error) {
  if (!testing::checkSolutionSound(P, S, /*RequireGreedy=*/false, Error))
    return false;
  Graph Quotient;
  {
    Scope Span(T, "graph.quotient_build");
    Quotient = buildCoalescedGraph(P.G, S);
  }
  bool Greedy;
  {
    Scope Span(T, "graph.greedy_eliminate");
    Greedy = greedyEliminate(Quotient, P.K).Success;
  }
  if (!Greedy)
    return fail(Error, "coalesced graph lost greedy-" + std::to_string(P.K) +
                           "-colorability");
  return true;
}

bool perfbench::checkSameSolution(const CoalescingSolution &Loaded,
                                  const CoalescingSolution &InMemory,
                                  std::string *Error) {
  if (Loaded.NumClasses != InMemory.NumClasses ||
      Loaded.ClassIds != InMemory.ClassIds)
    return fail(Error, "solution of the loaded instance differs from the "
                       "in-memory instance's");
  return true;
}

std::vector<std::string> perfbench::jobLines(const BatchReport &Report) {
  std::ostringstream OS;
  writeBatchJobsJsonl(OS, Report, /*IncludeTiming=*/false);
  std::vector<std::string> Lines;
  std::istringstream IS(OS.str());
  for (std::string Line; std::getline(IS, Line);)
    Lines.push_back(Line);
  return Lines;
}

unsigned perfbench::countLineMismatches(
    const std::vector<std::string> &Lines,
    const std::vector<std::string> &Sequential, std::string *Error) {
  unsigned Bad = 0;
  for (size_t I = 0; I < std::max(Lines.size(), Sequential.size()); ++I)
    if (I >= Lines.size() || I >= Sequential.size() ||
        Lines[I] != Sequential[I]) {
      if (!Bad && Error)
        *Error = "runBatch job " + std::to_string(I) +
                 " differs from sequential runStrategy";
      ++Bad;
    }
  return Bad;
}

bool perfbench::checkSameReturn(const ir::ExecutionResult &Original,
                                const ir::ExecutionResult &Allocated,
                                std::string *Error) {
  if (!Allocated.Ok)
    return fail(Error, "allocated program did not return: " +
                           Allocated.Error);
  if (Allocated.ReturnValues != Original.ReturnValues)
    return fail(Error, "allocated program returned other values than the "
                       "original SSA program");
  return true;
}

std::string perfbench::referencePayload(const CoalescingProblem &P,
                                        const std::string &Spec,
                                        StrategyOutcome *Outcome) {
  // Solve the instance as the daemon sees it: after the request payload's
  // round trip, which canonicalizes the edge order (and adjacency order
  // decides some strategies' tie-breaks).
  WireRequest Request;
  std::string Error;
  if (!parseRequestPayload(buildRequestPayload(P, Spec), Request, &Error))
    return "unparseable request: " + Error;
  RunRequest Run;
  Run.Problem = &Request.Problem;
  Run.Spec = Request.Spec;
  RunResult Result = runStrategy(Run);
  WireResponse Response;
  Response.Status = replyStatusFromRun(Result.Status);
  Response.Message = Result.Message;
  if (Result.hasOutcome())
    Response.Outcome = &Result.Outcome;
  if (Outcome)
    *Outcome = Result.Outcome;
  return buildResponsePayload(Response, /*IncludeTiming=*/false);
}

bool perfbench::checkSameReply(const std::string &Reply,
                               const std::string &Reference,
                               std::string *Error) {
  if (Reply != Reference)
    return fail(Error, "daemon reply differs from in-process runStrategy");
  return true;
}
