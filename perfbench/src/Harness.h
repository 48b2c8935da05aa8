//===- perfbench/src/Harness.h - Shared benchmark machinery -----*- C++ -*-===//
//
// Part of the register-coalescing-complexity project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the benchmark shares: the run options, the span
/// recorder used by traced runs, the round loop, order statistics, and the
/// report that main() prints as the final JSON line.
///
/// Spans are recorded only by the benchmark's own code, around its calls
/// into the library's public functions; the library itself is unchanged.
/// A span has a name, a start, an end, the span that encloses it, the
/// thread that recorded it and a work-item id. A layer's self time is its
/// span's duration minus the time its child spans cover.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include "coalescing/Telemetry.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double secondsSince(int64_t StartNs) {
  return static_cast<double>(nowNs() - StartNs) * 1e-9;
}

/// Command-line options of one benchmark run.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Scratch directory inside the checkout for instance files and sockets.
  std::string WorkDir;
  /// Where a traced run writes its spans.
  std::string TraceOut;
  /// The rc_serve binary the service workload starts.
  std::string ServeBin;
  /// Worker threads a workload may use (never more than the host has).
  unsigned Threads = 4;
};

/// One recorded span.
struct Span {
  const char *Name = "";
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  int32_t Parent = -1;
  uint32_t Thread = 0;
  uint32_t Item = 0;
};

/// In-memory span recorder for one thread. Disabled recorders cost one
/// branch per scope.
class Tracer {
public:
  explicit Tracer(bool On = false, uint32_t Thread = 0)
      : On(On), Thread(Thread) {}

  void setEnabled(bool Value) { On = Value; }
  /// Work-item id stamped on the spans opened from now on.
  void setItem(uint32_t Value) { Item = Value; }

  int32_t begin(const char *Name) {
    if (!On)
      return -1;
    Span S;
    S.Name = Name;
    S.Parent = Current;
    S.Thread = Thread;
    S.Item = Item;
    S.StartNs = nowNs();
    Spans.push_back(S);
    Current = static_cast<int32_t>(Spans.size() - 1);
    return Current;
  }

  void end(int32_t Index) {
    if (Index < 0)
      return;
    Spans[Index].EndNs = nowNs();
    Current = Spans[Index].Parent;
  }

  const std::vector<Span> &spans() const { return Spans; }

  /// Index the next span will get; spans from this mark on belong to a
  /// later phase.
  size_t mark() const { return Spans.size(); }

  /// Self time in nanoseconds per span name, over spans [From, end).
  std::map<std::string, int64_t> selfTimes(size_t From = 0) const;

  /// Appends the spans to \p OS as JSON objects, comma-separated.
  void writeJson(std::ostream &OS, bool &First) const;

private:
  bool On;
  uint32_t Thread;
  uint32_t Item = 0;
  int32_t Current = -1;
  std::vector<Span> Spans;
};

/// RAII span.
class Scope {
public:
  Scope(Tracer &T, const char *Name) : T(T), Index(T.begin(Name)) {}
  ~Scope() { T.end(Index); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Tracer &T;
  int32_t Index;
};

/// One metric as printed: name, value, unit.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// Everything a run reports. main() prints Metrics in the final JSON line
/// and Details (sample counts, shares, failure messages) on the line
/// before it.
struct Report {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  std::vector<std::pair<std::string, double>> Details;
  std::vector<std::string> Failures;

  void metric(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
  void detail(const std::string &Name, double Value) {
    Details.push_back({Name, Value});
  }
  /// Records one failed check (kept to the first few messages).
  void fail(const std::string &Message) {
    ++Failed;
    if (Failures.size() < 8)
      Failures.push_back(Message);
  }
};

/// Median of \p Values (0 when empty).
double median(std::vector<double> Values);

/// Nearest-rank percentile \p P in (0, 1] of \p Values (0 when empty).
double percentile(std::vector<double> Values, double P);

/// Throughput and latency percentiles as the median over windows of a
/// run, so that a stall of the shared host in one window does not move
/// the figure.
struct WindowedStats {
  double OpsPerS = 0;
  double P50Ms = 0;
  double P90Ms = 0;
};

/// One finished op: when it ended (seconds after the measured interval
/// began) and how long it took.
struct OpSample {
  double EndS = 0;
  double LatencyMs = 0;
};

/// Number of equal time windows a run's ops are split into.
constexpr unsigned StatWindows = 5;

/// Splits the ops of a measured interval of \p WallS seconds into
/// StatWindows equal windows by end time and returns the median over the
/// windows of each window's ops/s, p50 and p90.
WindowedStats windowedStats(const std::vector<OpSample> &Ops, double WallS);

/// Returns freed heap memory to the system and restarts this process's
/// peak resident set count at its current resident set, so that
/// peakRssMb() covers only what runs afterwards (set-up transients and
/// freed set-up data drop out). False where the kernel refuses.
bool resetPeakRss();

/// Peak resident set (VmHWM) of this process in MiB since the last
/// resetPeakRss().
double peakRssMb();

/// Current resident set (VmRSS) of this process in MiB.
double currentRssMb();

/// Restarts the peak-RSS count before a measured loop (failing the run
/// where it cannot) and records the resident set the loop starts from in
/// the detail "rss_loop_start_mb".
void startPeakRss(Report &R);

/// Runs \p Round whole, again and again, until \p Budget seconds have
/// passed; always at least once. Adds the rounds run to \p Rounds and the
/// time they took to \p WallS.
template <typename F>
void runRounds(double Budget, unsigned &Rounds, double &WallS, F &&Round) {
  int64_t Start = nowNs();
  do {
    Round();
    ++Rounds;
  } while (secondsSince(Start) < Budget);
  WallS += secondsSince(Start);
}

/// How often a run sets up; setup_s is the median. scale-solve, whose
/// set-up writes 200 MB of .rcb files, sets up ScaleSetupRepeats times.
constexpr unsigned SetupRepeats = 5;
constexpr unsigned ScaleSetupRepeats = 3;

/// Median of \p Repeats timed calls of \p Setup (each a full set-up; the
/// last one's state is kept by the caller).
template <typename F> double medianSetupSeconds(unsigned Repeats, F &&Setup) {
  std::vector<double> Times;
  for (unsigned I = 0; I < Repeats; ++I) {
    int64_t Start = nowNs();
    Setup(I);
    Times.push_back(secondsSince(Start));
  }
  return median(Times);
}

/// Derives the seed of item \p Index of stream \p Stream from the run seed,
/// so each generated input depends only on (seed, stream, index).
uint64_t deriveSeed(uint64_t Seed, uint64_t Stream, uint64_t Index);

/// Adds the per-layer rows of a traced phase to \p R: for every span name
/// in \p Self, "<name>_ms" as self time per work item (\p Items items);
/// plus trace.unaccounted_share = 1 - sum(self) / (WallS * Threads).
void addLayerRows(Report &R, const std::map<std::string, int64_t> &Self,
                  double Items, double WallS, unsigned Threads = 1);

/// Adds the engine-counter rows (coalescing.*_tests, pass ratios,
/// worklist and rollback counts, colorability checks) of the
/// CoalescingTelemetry \p T gathered over one round of \p Ops ops.
void addTelemetryRows(const rc::CoalescingTelemetry &T, double Ops,
                      Report &R);

/// Writes every tracer's spans to \p Path as one JSON document.
bool writeTraceFile(const std::string &Path, const std::string &Workload,
                    uint64_t Seed, const std::vector<const Tracer *> &Tracers);

// The workloads. Each fills \p R; a failed output check is a failed
// attempt, never an abort.
void runScaleSolve(const Options &O, Report &R,
                   std::vector<Tracer> &Tracers);
void runChallengeSweep(const Options &O, Report &R,
                       std::vector<Tracer> &Tracers);
void runCompilePipeline(const Options &O, Report &R,
                        std::vector<Tracer> &Tracers);
void runServiceSocket(const Options &O, Report &R,
                      std::vector<Tracer> &Tracers);

/// Shows that each output check fires on a corrupted result, and that
/// the span bookkeeping computes self time correctly. Returns the number
/// of self-test failures (0 = pass), printing one line per case.
int runSelfTest();

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
