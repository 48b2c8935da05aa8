//===- perfbench/src/Checks.h - Output checks of the workloads --*- C++ -*-===//
//
// Part of the register-coalescing-complexity project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The correctness checks every benchmark run applies to the program's
/// outputs. Each returns false with a diagnostic in \p Error when the output
/// is wrong; the self-test feeds each one a deliberately corrupted result
/// to show that it fires.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include "Harness.h"

#include "challenge/StrategyRunner.h"
#include "ir/Interpreter.h"
#include "runner/BatchRunner.h"

#include <string>
#include <vector>

namespace perfbench {

/// scale-solve: \p S is a valid coalescing of \p P (testing::
/// checkSolutionSound) whose quotient is still greedy-k-colorable. The
/// greedy part is checkSolutionSound's own test, spelled out with the
/// public graph calls so a traced run can time them
/// (graph.quotient_build, graph.greedy_eliminate).
bool checkSoundGreedy(const rc::CoalescingProblem &P,
                      const rc::CoalescingSolution &S, Tracer &T,
                      std::string *Error);

/// scale-solve: the solution computed on the instance loaded from disk
/// equals the one computed on the in-memory instance it was written from.
bool checkSameSolution(const rc::CoalescingSolution &Loaded,
                       const rc::CoalescingSolution &InMemory,
                       std::string *Error);

/// The timing-suppressed JSONL job lines of \p Report, one per job.
std::vector<std::string> jobLines(const rc::BatchReport &Report);

/// challenge-sweep: the timing-suppressed JSONL line of every job of a
/// runBatch report, \p Batch, is byte-identical to the line for the same
/// job in \p Sequential, the jobLines of a report assembled from
/// sequential runStrategy calls. Returns the number of jobs that differ.
unsigned countLineMismatches(const std::vector<std::string> &Batch,
                             const std::vector<std::string> &Sequential,
                             std::string *Error);

/// compile-pipeline: the allocated program ran to completion and returned
/// exactly what the original SSA program returned.
bool checkSameReturn(const rc::ir::ExecutionResult &Original,
                     const rc::ir::ExecutionResult &Allocated,
                     std::string *Error);

/// service-socket: the response payload the daemon sent for (P, Spec)
/// equals the timing-suppressed payload of an in-process runStrategy on
/// the same request, i.e. on the instance parsed back from the request
/// payload the client sends.
std::string referencePayload(const rc::CoalescingProblem &P,
                             const std::string &Spec,
                             rc::StrategyOutcome *Outcome = nullptr);
bool checkSameReply(const std::string &Reply, const std::string &Reference,
                    std::string *Error);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_H
