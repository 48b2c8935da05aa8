//===- perfbench/src/Main.cpp - Benchmark harness entry point -------------===//
//
// rc_perfbench --workload W --seed S --seconds T --trace 0|1
//              --work-dir DIR [--trace-out FILE] [--serve-bin PATH]
// rc_perfbench --selftest
//
// Runs one workload and prints two JSON lines: a "detail" object (sample
// counts, instance shares, failed checks) and, last, the result object
// {"correct", "attempted", "failed", "metrics"}. Exits 1 when an output
// check failed, 2 on a usage error. perfbench/run.py builds and calls this
// binary; see perfbench/README.md.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>

using namespace perfbench;

namespace {

std::string jsonString(const std::string &S) {
  std::ostringstream OS;
  OS << '"';
  for (char C : S) {
    if (C == '"' || C == '\\')
      OS << '\\' << C;
    else if (static_cast<unsigned char>(C) < 0x20)
      OS << ' ';
    else
      OS << C;
  }
  OS << '"';
  return OS.str();
}

std::string number(double V) {
  if (!std::isfinite(V))
    return "0";
  std::ostringstream OS;
  OS << std::setprecision(17) << V;
  return OS.str();
}

int usage(const char *Message) {
  std::cerr << "rc_perfbench: " << Message << "\n"
            << "usage: rc_perfbench --workload W --seed S --seconds T "
               "--trace 0|1 --work-dir DIR [--trace-out FILE] "
               "[--serve-bin PATH] | --selftest\n";
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  bool SelfTest = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (Flag == "--selftest") {
      SelfTest = true;
      continue;
    }
    if (I + 1 >= Argc)
      return usage(("missing value for " + Flag).c_str());
    std::string Value = Argv[++I];
    if (Flag == "--workload")
      O.Workload = Value;
    else if (Flag == "--seed")
      O.Seed = std::strtoull(Value.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      O.Seconds = std::atof(Value.c_str());
    else if (Flag == "--trace")
      O.Trace = Value == "1";
    else if (Flag == "--work-dir")
      O.WorkDir = Value;
    else if (Flag == "--trace-out")
      O.TraceOut = Value;
    else if (Flag == "--serve-bin")
      O.ServeBin = Value;
    else
      return usage(("unknown flag " + Flag).c_str());
  }
  if (SelfTest)
    return runSelfTest() == 0 ? 0 : 1;
  if (O.WorkDir.empty())
    return usage("--work-dir is required");
  unsigned Cores = std::thread::hardware_concurrency();
  O.Threads = Cores == 0 ? 1 : std::min(4u, Cores);
  if (!(O.Seconds > 0))
    return usage("--seconds must be positive");

  void (*Run)(const Options &, Report &, std::vector<Tracer> &) = nullptr;
  if (O.Workload == "scale-solve")
    Run = runScaleSolve;
  else if (O.Workload == "challenge-sweep")
    Run = runChallengeSweep;
  else if (O.Workload == "compile-pipeline")
    Run = runCompilePipeline;
  else if (O.Workload == "service-socket")
    Run = runServiceSocket;
  else
    return usage(("unknown workload '" + O.Workload + "'").c_str());

  // One tracer per span set: the service workload keeps its socket loop
  // (the second) apart from its in-process replay (the first).
  std::vector<Tracer> Tracers;
  for (uint32_t I = 0; I < 2; ++I)
    Tracers.emplace_back(O.Trace, I);
  Report R;
  Run(O, R, Tracers);

  if (O.Trace && !O.TraceOut.empty()) {
    std::vector<const Tracer *> All;
    for (const Tracer &T : Tracers)
      All.push_back(&T);
    if (!writeTraceFile(O.TraceOut, O.Workload, O.Seed, All))
      std::cerr << "rc_perfbench: could not write " << O.TraceOut << "\n";
  }

  std::cout << "{\"detail\":{\"workload\":" << jsonString(O.Workload)
            << ",\"seed\":" << O.Seed << ",\"trace\":" << (O.Trace ? 1 : 0)
            << ",\"threads\":" << O.Threads << ",\"build_type\":"
            << jsonString(RC_PERFBENCH_BUILD_TYPE)
            << ",\"compiler\":" << jsonString(RC_PERFBENCH_COMPILER);
  for (const auto &[Name, Value] : R.Details)
    std::cout << "," << jsonString(Name) << ":" << number(Value);
  std::cout << ",\"failed_share\":"
            << number(R.Attempted ? static_cast<double>(R.Failed) /
                                        static_cast<double>(R.Attempted)
                                  : 1.0)
            << ",\"failures\":[";
  for (size_t I = 0; I < R.Failures.size(); ++I)
    std::cout << (I ? "," : "") << jsonString(R.Failures[I]);
  std::cout << "]}}\n";

  bool Correct = R.Failed == 0 && R.Attempted > 0;
  std::cout << "{\"correct\":" << (Correct ? "true" : "false")
            << ",\"attempted\":" << R.Attempted << ",\"failed\":" << R.Failed
            << ",\"metrics\":{";
  for (size_t I = 0; I < R.Metrics.size(); ++I)
    std::cout << (I ? "," : "") << jsonString(R.Metrics[I].Name)
              << ":{\"value\":" << number(R.Metrics[I].Value)
              << ",\"unit\":" << jsonString(R.Metrics[I].Unit) << "}";
  std::cout << "}}" << std::endl;
  return Correct ? 0 : 1;
}
