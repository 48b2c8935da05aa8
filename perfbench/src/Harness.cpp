//===- perfbench/src/Harness.cpp - Shared benchmark machinery -------------===//

#include "Harness.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include <malloc.h>

using namespace perfbench;

std::map<std::string, int64_t> Tracer::selfTimes(size_t From) const {
  std::vector<int64_t> ChildNs(Spans.size(), 0);
  for (size_t I = From; I < Spans.size(); ++I) {
    int32_t P = Spans[I].Parent;
    if (P >= static_cast<int32_t>(From))
      ChildNs[P] += Spans[I].EndNs - Spans[I].StartNs;
  }
  std::map<std::string, int64_t> Self;
  for (size_t I = From; I < Spans.size(); ++I)
    Self[Spans[I].Name] += Spans[I].EndNs - Spans[I].StartNs - ChildNs[I];
  return Self;
}

void Tracer::writeJson(std::ostream &OS, bool &First) const {
  for (const Span &S : Spans) {
    OS << (First ? "\n" : ",\n") << "{\"name\":\"" << S.Name
       << "\",\"start_ns\":" << S.StartNs << ",\"end_ns\":" << S.EndNs
       << ",\"parent\":" << S.Parent << ",\"thread\":" << S.Thread
       << ",\"item\":" << S.Item << "}";
    First = false;
  }
}

double perfbench::median(std::vector<double> Values) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  size_t N = Values.size();
  return N % 2 ? Values[N / 2] : 0.5 * (Values[N / 2 - 1] + Values[N / 2]);
}

double perfbench::percentile(std::vector<double> Values, double P) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  size_t Rank = static_cast<size_t>(std::ceil(P * Values.size()));
  return Values[std::clamp<size_t>(Rank, 1, Values.size()) - 1];
}

WindowedStats perfbench::windowedStats(const std::vector<OpSample> &Ops,
                                       double WallS) {
  double Width = WallS / StatWindows;
  std::vector<std::vector<double>> Latency(StatWindows);
  for (const OpSample &S : Ops) {
    size_t W = static_cast<size_t>(S.EndS / Width);
    Latency[std::min<size_t>(W, StatWindows - 1)].push_back(S.LatencyMs);
  }
  std::vector<double> Rate, P50, P90;
  for (const std::vector<double> &L : Latency) {
    Rate.push_back(static_cast<double>(L.size()) / Width);
    P50.push_back(percentile(L, 0.5));
    P90.push_back(percentile(L, 0.9));
  }
  return {median(Rate), median(P50), median(P90)};
}

/// A "<Key>:   <n> kB" line of /proc/self/status, in MiB (0 if missing).
static double statusMb(const char *Key) {
  std::ifstream IS("/proc/self/status");
  std::string Line;
  size_t Len = std::strlen(Key);
  while (std::getline(IS, Line))
    if (Line.compare(0, Len, Key) == 0 && Line.size() > Len &&
        Line[Len] == ':')
      return std::strtod(Line.c_str() + Len + 1, nullptr) / 1024.0;
  return 0;
}

bool perfbench::resetPeakRss() {
  ::malloc_trim(0);
  // "5" resets the peak RSS (VmHWM) to the current RSS (proc(5)).
  std::ofstream OS("/proc/self/clear_refs");
  OS << "5";
  OS.close();
  return static_cast<bool>(OS);
}

double perfbench::peakRssMb() { return statusMb("VmHWM"); }

double perfbench::currentRssMb() { return statusMb("VmRSS"); }

void perfbench::startPeakRss(Report &R) {
  if (!resetPeakRss())
    R.fail("cannot reset the peak resident set (/proc/self/clear_refs)");
  R.detail("rss_loop_start_mb", currentRssMb());
}

uint64_t perfbench::deriveSeed(uint64_t Seed, uint64_t Stream,
                               uint64_t Index) {
  // splitmix64 over the packed triple: nearby seeds give unrelated inputs.
  uint64_t Z = Seed * 0x9e3779b97f4a7c15ULL + Stream * 0xd1b54a32d192ed03ULL +
               Index + 1;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

void perfbench::addLayerRows(Report &R,
                             const std::map<std::string, int64_t> &Self,
                             double Items, double WallS, unsigned Threads) {
  int64_t Sum = 0;
  for (const auto &[Name, Ns] : Self) {
    Sum += Ns;
    R.metric(Name + "_ms", static_cast<double>(Ns) * 1e-6 / Items, "ms");
  }
  R.metric("trace.unaccounted_share",
           1.0 - static_cast<double>(Sum) * 1e-9 / (WallS * Threads),
           "share");
}

void perfbench::addTelemetryRows(const rc::CoalescingTelemetry &T, double Ops,
                      Report &R) {
  auto Ratio = [](uint64_t Num, uint64_t Den) {
    return Den ? static_cast<double>(Num) / static_cast<double>(Den) : 0.0;
  };
  R.metric("coalescing.briggs_tests", static_cast<double>(T.BriggsTests),
           "count");
  R.metric("coalescing.george_tests", static_cast<double>(T.GeorgeTests),
           "count");
  R.metric("coalescing.brute_force_tests",
           static_cast<double>(T.BruteForceTests), "count");
  R.metric("coalescing.briggs_pass_ratio",
           Ratio(T.BriggsPassed, T.BriggsTests), "ratio");
  R.metric("coalescing.george_pass_ratio",
           Ratio(T.GeorgePassed, T.GeorgeTests), "ratio");
  R.metric("coalescing.brute_force_pass_ratio",
           Ratio(T.BruteForcePassed, T.BruteForceTests), "ratio");
  R.metric("coalescing.worklist_reactivations",
           static_cast<double>(T.WorklistReactivations), "count");
  R.metric("coalescing.cached_test_skips",
           static_cast<double>(T.CachedTestSkips), "count");
  R.metric("coalescing.rollbacks", static_cast<double>(T.Rollbacks),
           "count");
  R.metric("coalescing.colorability_checks",
           static_cast<double>(T.ColorabilityChecks), "count");
  R.metric("coalescing.colorability_ms",
           static_cast<double>(T.ColorabilityMicros) * 1e-3 / Ops, "ms");
}

bool perfbench::writeTraceFile(const std::string &Path,
                               const std::string &Workload, uint64_t Seed,
                               const std::vector<const Tracer *> &Tracers) {
  std::ofstream OS(Path);
  if (!OS)
    return false;
  OS << "{\"workload\":\"" << Workload << "\",\"seed\":" << Seed
     << ",\"spans\":[";
  bool First = true;
  for (const Tracer *T : Tracers)
    T->writeJson(OS, First);
  OS << "\n]}\n";
  return static_cast<bool>(OS);
}
