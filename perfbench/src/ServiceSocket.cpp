//===- perfbench/src/ServiceSocket.cpp - Workload service-socket ----------===//
//
// A closed loop of one synchronous rc::Client connection to a real
// `rc_serve --listen unix:... --jobs 1` daemon, client and daemon pinned
// to one CPU: only one of them has work at any time, and cross-CPU
// wake-ups on a shared host made client-observed latency swing by a third
// between runs of the same requests. Requests use the fast strategy specs on 32-512-vertex subtree-
// and program-mode instances. 70% of requests repeat one of the last 256
// distinct requests, so the median reply is a result-cache hit and the
// 90th percentile a miss. Deadlines are generous (60 s): a timed-out reply
// is a failure here, not a designed outcome. This is the only workload
// that exercises the frame, validate, digest, cache, queue and transport
// layers.
//
// The daemon runs with --no-timing, so every ok reply must be
// byte-identical to the timing-suppressed payload of an in-process
// runStrategy on the same request.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Harness.h"

#include "challenge/ChallengeInstance.h"
#include "coalescing/WorkGraph.h"
#include "service/Client.h"
#include "service/ResultCache.h"
#include "service/Service.h"
#include "service/WireProtocol.h"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <sstream>
#include <thread>
#include <unordered_map>

#include <fcntl.h>
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace perfbench;
using namespace rc;

namespace {

const char *const Specs[] = {"briggs",     "george", "briggs+george",
                             "optimistic", "irc",    "biased-select"};
constexpr unsigned NumSpecs = sizeof(Specs) / sizeof(Specs[0]);
constexpr unsigned PoolInstances = 600;
constexpr unsigned StreamLength = 100000;
constexpr unsigned RepeatPercent = 70;
constexpr unsigned RepeatWindow = 256;
/// Quality metrics cover this fixed prefix of the request stream.
constexpr unsigned QualityPrefix = 4000;
constexpr int64_t DeadlineMillis = 60000;
constexpr unsigned CacheEntries = 1024;
/// Requests the in-process layer replay of a traced run walks through.
constexpr unsigned ReplayRequests = 1000;

struct Request {
  uint32_t Pair = 0; // Instance * NumSpecs + spec index.
  bool Repeat = false;
};

struct Workload {
  std::vector<CoalescingProblem> Instances;
  std::vector<Request> Stream;

  const CoalescingProblem &problem(uint32_t Pair) const {
    return Instances[Pair / NumSpecs];
  }
  static const char *spec(uint32_t Pair) { return Specs[Pair % NumSpecs]; }
};

void generate(uint64_t Seed, Workload &W) {
  W.Instances.clear();
  for (unsigned I = 0; I < PoolInstances; ++I) {
    Rng Rand(deriveSeed(Seed, 5, I));
    if (I % 2 == 0) {
      ChallengeOptions CO;
      CO.NumValues = 32 + static_cast<unsigned>(Rand.nextBelow(481));
      CO.TreeSize = CO.NumValues / 2;
      W.Instances.push_back(generateChallengeInstance(CO, Rand));
    } else {
      ProgramChallengeOptions PO;
      PO.NumBlocks = 12 + static_cast<unsigned>(Rand.nextBelow(53));
      W.Instances.push_back(generateProgramChallengeInstance(PO, Rand));
    }
  }
  // Fresh requests walk a seeded permutation of every (instance, spec)
  // pair; repeats redraw one of the last RepeatWindow fresh pairs.
  Rng Rand(deriveSeed(Seed, 6, 0));
  std::vector<uint32_t> Fresh(PoolInstances * NumSpecs);
  for (uint32_t I = 0; I < Fresh.size(); ++I)
    Fresh[I] = I;
  for (size_t I = Fresh.size(); I > 1; --I)
    std::swap(Fresh[I - 1], Fresh[Rand.nextBelow(I)]);
  W.Stream.clear();
  W.Stream.reserve(StreamLength);
  size_t Issued = 0;
  for (unsigned I = 0; I < StreamLength; ++I) {
    if (Issued > 0 && Rand.nextBelow(100) < RepeatPercent) {
      size_t Window = std::min<size_t>(Issued, RepeatWindow);
      size_t Back = 1 + Rand.nextBelow(Window);
      W.Stream.push_back({Fresh[(Issued - Back) % Fresh.size()], true});
    } else {
      W.Stream.push_back({Fresh[Issued % Fresh.size()], false});
      ++Issued;
    }
  }
}

/// Pins the calling thread, and every thread and process it starts
/// afterwards, to one CPU: the highest-numbered one it may run on. Returns
/// that CPU, or -1 where the affinity mask cannot be read or set.
int pinToOneCpu() {
  cpu_set_t Allowed;
  if (::sched_getaffinity(0, sizeof(Allowed), &Allowed) != 0)
    return -1;
  for (int Cpu = CPU_SETSIZE - 1; Cpu >= 0; --Cpu) {
    if (!CPU_ISSET(Cpu, &Allowed))
      continue;
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Cpu, &One);
    return ::sched_setaffinity(0, sizeof(One), &One) == 0 ? Cpu : -1;
  }
  return -1;
}

/// The rc_serve child process.
class Daemon {
public:
  Daemon() = default;
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;
  ~Daemon() {
    if (Pid > 0) {
      ::kill(Pid, SIGTERM);
      reap();
    }
  }

  bool start(const Options &O, unsigned Index, std::string *Error) {
    Ep.Kind = EndpointKind::Unix;
    Ep.Path = O.WorkDir + "/svc" + std::to_string(Index) + ".sock";
    ::unlink(Ep.Path.c_str());
    std::string Listen = "unix:" + Ep.Path;
    std::string Log = O.WorkDir + "/rc_serve.log";
    std::vector<std::string> Args = {O.ServeBin,      "--listen",
                                     Listen,          "--jobs",
                                     "1",             "--cache",
                                     std::to_string(CacheEntries),
                                     "--queue-limit", "16",
                                     "--no-timing"};
    std::vector<char *> Argv;
    for (std::string &A : Args)
      Argv.push_back(A.data());
    Argv.push_back(nullptr);
    posix_spawn_file_actions_t Actions;
    posix_spawn_file_actions_init(&Actions);
    posix_spawn_file_actions_addopen(&Actions, 1, Log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&Actions, 1, 2);
    int Rc = posix_spawn(&Pid, O.ServeBin.c_str(), &Actions, nullptr,
                         Argv.data(), environ);
    posix_spawn_file_actions_destroy(&Actions);
    if (Rc != 0) {
      Pid = -1;
      *Error = "cannot start " + O.ServeBin + ": " + std::strerror(Rc);
      return false;
    }
    return true;
  }

  /// Connects once the daemon accepts (it binds after start-up).
  Expected<Client> connect(double TimeoutS) {
    int64_t Start = nowNs();
    for (;;) {
      Expected<Client> C = Client::connect(Ep);
      if (C || secondsSince(Start) > TimeoutS)
        return C;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  /// Asks for a draining shutdown and waits for the process. \p Ack gets
  /// the stats-carrying acknowledgement.
  bool stop(std::string &Ack, std::string *Error) {
    Expected<Client> C = connect(5);
    bool Ok = false;
    if (C) {
      Expected<ClientReply> Reply = C->shutdownServer(ShutdownMode::Drain);
      if (Reply) {
        Ack = Reply->Payload;
        Ok = true;
      } else {
        *Error = "shutdown: " + Reply.error().Message;
      }
    } else {
      *Error = "shutdown connect: " + C.error().Message;
      ::kill(Pid, SIGTERM);
    }
    int Status = reap();
    if (Ok && !(WIFEXITED(Status) && WEXITSTATUS(Status) == 0)) {
      *Error = "rc_serve exited abnormally";
      Ok = false;
    }
    ::unlink(Ep.Path.c_str());
    return Ok;
  }

  /// Peak resident set of the daemon, valid after stop().
  double peakRssMb() const { return PeakRssMb; }

private:
  int reap() {
    int Status = 0;
    struct rusage Usage;
    while (::wait4(Pid, &Status, 0, &Usage) < 0 && errno == EINTR) {
    }
    PeakRssMb = static_cast<double>(Usage.ru_maxrss) / 1024.0;
    Pid = -1;
    return Status;
  }

  pid_t Pid = -1;
  Endpoint Ep;
  double PeakRssMb = 0;
};

/// What the connection saw in one phase of the closed loop.
struct Phase {
  std::vector<OpSample> Samples;
  std::vector<double> RepeatLatencyMs;
  /// First ok payload of every pair, with how many ok replies it had.
  std::unordered_map<uint32_t, std::pair<std::string, uint64_t>> Payloads;
  uint64_t Failed = 0;
  /// A connection that never came up counts as one failed attempt.
  uint64_t FailedConnects = 0;
  std::vector<std::string> Errors;
  double WallS = 0;
  uint32_t NextIndex = 0;
};

/// Runs the closed loop on one connection from stream index \p From for
/// \p Budget seconds.
Phase runPhase(Daemon &D, const Workload &W, uint32_t From, double Budget,
               Tracer &T) {
  Phase P;
  P.NextIndex = From;
  int64_t Start = nowNs();
  Expected<Client> Conn = D.connect(5);
  if (!Conn) {
    ++P.Failed;
    ++P.FailedConnects;
    P.Errors.push_back("connect: " + Conn.error().Message);
    return P;
  }
  for (uint32_t K = From; K < W.Stream.size(); ++K) {
    if (secondsSince(Start) >= Budget)
      break;
    const Request &Q = W.Stream[K];
    T.setItem(K);
    int64_t T0 = nowNs();
    int32_t Span = T.begin("service.client_submit");
    Expected<ClientReply> Reply = Conn->submit(
        W.problem(Q.Pair), Workload::spec(Q.Pair), DeadlineMillis);
    T.end(Span);
    double Ms = secondsSince(T0) * 1e3;
    P.Samples.push_back({secondsSince(Start), Ms});
    if (Q.Repeat)
      P.RepeatLatencyMs.push_back(Ms);
    P.NextIndex = K + 1;
    if (!Reply) {
      ++P.Failed;
      if (P.Errors.size() < 4)
        P.Errors.push_back(std::string(clientErrorKindName(
                               Reply.error().Kind)) +
                           ": " + Reply.error().Message);
      if (!Conn->connected())
        break;
      continue;
    }
    auto [It, New] = P.Payloads.try_emplace(Q.Pair, Reply->Payload, 0);
    ++It->second.second;
    std::string Error;
    if (!New && !checkSameReply(Reply->Payload, It->second.first, &Error)) {
      ++P.Failed;
      if (P.Errors.size() < 4)
        P.Errors.push_back(Error + " (repeat)");
    }
  }
  P.WallS = secondsSince(Start);
  return P;
}

/// In-process reference payloads and outcomes per pair.
struct References {
  std::unordered_map<uint32_t, std::string> Payload;
  std::unordered_map<uint32_t, StrategyOutcome> Outcome;

  const std::string &get(const Workload &W, uint32_t Pair) {
    auto It = Payload.find(Pair);
    if (It != Payload.end())
      return It->second;
    StrategyOutcome O;
    std::string Bytes =
        referencePayload(W.problem(Pair), Workload::spec(Pair), &O);
    Outcome[Pair] = std::move(O);
    return Payload[Pair] = std::move(Bytes);
  }
};

/// Every ok reply of \p P equals the in-process reference; counts
/// connection-level failures too.
void checkPhase(const Phase &P, const Workload &W, References &Refs,
                Report &R) {
  R.Attempted += P.Samples.size() + P.FailedConnects;
  for (uint64_t I = 0; I < P.Failed; ++I)
    R.fail(I < P.Errors.size() ? P.Errors[I] : "request failed");
  for (const auto &[Pair, Seen] : P.Payloads) {
    std::string Error;
    if (!checkSameReply(Seen.first, Refs.get(W, Pair), &Error))
      for (uint64_t I = 0; I < Seen.second; ++I)
        R.fail(std::string(Workload::spec(Pair)) + ": " + Error);
  }
  if (R.Attempted == 0)
    R.fail("no request was answered");
}

/// Quality of the answers to the stream's first QualityPrefix requests,
/// from the in-process references (every served answer was checked equal
/// to its reference), so the figure does not depend on how far a run got.
void addQuality(const Workload &W, References &Refs, Report &R) {
  double Coalesced = 0, Total = 0, Left = 0;
  for (uint32_t K = 0; K < QualityPrefix; ++K) {
    uint32_t Pair = W.Stream[K].Pair;
    Refs.get(W, Pair);
    const CoalescingStats &S = Refs.Outcome[Pair].Stats;
    Coalesced += S.CoalescedWeight;
    Total += S.CoalescedWeight + S.UncoalescedWeight;
    Left += S.UncoalescedAffinities;
  }
  R.metric("coalesced_weight_share", Total > 0 ? Coalesced / Total : 0,
           "share");
  R.metric("moves_left", Left / QualityPrefix, "count");
}

/// Reads one unsigned counter from the shutdown acknowledgement.
double ackCounter(const std::string &Ack, const std::string &Key) {
  size_t At = Ack.find("\"" + Key + "\":");
  if (At == std::string::npos)
    return 0;
  return std::strtod(Ack.c_str() + At + Key.size() + 3, nullptr);
}

/// Starts a daemon, generates the workload and connects once.
bool setUp(const Options &O, unsigned Index, Daemon &D, Workload &W,
           Report &R) {
  std::string Error;
  if (!D.start(O, Index, &Error)) {
    R.fail(Error);
    return false;
  }
  generate(O.Seed, W);
  Expected<Client> C = D.connect(10);
  if (!C) {
    R.fail("rc_serve did not accept: " + C.error().Message);
    return false;
  }
  return true;
}

/// The hit and miss paths of one request, replayed in process with one
/// span per layer call, medians in microseconds.
void replayLayers(const Workload &W, uint32_t From, Tracer &T,
                  References &Refs, Report &R) {
  ResultCache Cache(CacheEntries);
  ServiceConfig Config;
  Config.Workers = 2;
  Config.CacheCapacity = CacheEntries;
  Config.IncludeTiming = false;
  CoalescingService Service(Config);

  std::map<std::string, std::vector<double>> HitUs, MissUs;
  std::vector<double> RttHitUs;
  uint32_t End = std::min<uint32_t>(From + ReplayRequests,
                                    static_cast<uint32_t>(W.Stream.size()));
  for (uint32_t K = From; K < End; ++K) {
    uint32_t Pair = W.Stream[K].Pair;
    T.setItem(K);
    size_t Mark = T.mark();
    std::string RequestBytes;
    {
      Scope S(T, "service.encode_request");
      RequestBytes =
          buildRequestPayload(W.problem(Pair), Workload::spec(Pair),
                              DeadlineMillis);
    }
    Frame In;
    {
      Scope S(T, "service.frame");
      std::stringstream Wire;
      writeFrame(Wire, FrameType::Request, RequestBytes);
      readFrame(Wire, In);
    }
    WireRequest Parsed;
    {
      Scope S(T, "service.parse_request");
      parseRequestPayload(In.Payload, Parsed);
    }
    {
      Scope S(T, "service.validate");
      checkStrategySpec(Parsed.Spec);
    }
    std::string Key;
    {
      Scope S(T, "service.digest");
      Key = canonicalRequestKey(Parsed.Problem, Parsed.Spec);
    }
    std::string Payload;
    bool Hit;
    {
      Scope S(T, "service.cache_lookup");
      Hit = Cache.lookup(Key, Payload);
    }
    if (!Hit) {
      RunResult Result;
      {
        Scope S(T, "service.solve");
        RunRequest Run;
        Run.Problem = &Parsed.Problem;
        Run.Spec = Parsed.Spec;
        Result = runStrategy(Run);
      }
      {
        Scope S(T, "service.encode_response");
        WireResponse Response;
        Response.Status = replyStatusFromRun(Result.Status);
        Response.Outcome = &Result.Outcome;
        Payload = buildResponsePayload(Response, false);
      }
      Cache.insert(Key, Payload);
    }
    Frame Out;
    {
      Scope S(T, "service.frame");
      std::stringstream Wire;
      writeFrame(Wire, FrameType::Response, Payload);
      readFrame(Wire, Out);
    }
    {
      Scope S(T, "service.decode_response");
      ReplyStatus Status;
      extractResponseStatus(Out.Payload, Status);
    }
    std::string Error;
    if (!checkSameReply(Out.Payload, Refs.get(W, Pair), &Error))
      R.fail("in-process replay: " + Error);
    std::map<std::string, int64_t> Self = T.selfTimes(Mark);
    for (const auto &[Name, Ns] : Self)
      (Hit ? HitUs : MissUs)[Name].push_back(static_cast<double>(Ns) * 1e-3);

    // The service's own submit -> reply round trip on the same request.
    WireRequest Copy;
    parseRequestPayload(RequestBytes, Copy);
    int64_t T0 = nowNs();
    ServiceReply Reply = Service.submit(std::move(Copy)).get();
    double Us = secondsSince(T0) * 1e6;
    if (Reply.CacheHit)
      RttHitUs.push_back(Us);
    if (Reply.Status != ReplyStatus::Ok ||
        !checkSameReply(Reply.Payload, Refs.get(W, Pair), &Error))
      R.fail("in-process service: reply differs from runStrategy");
  }
  for (const char *Name :
       {"service.encode_request", "service.frame", "service.parse_request",
        "service.validate", "service.digest", "service.cache_lookup",
        "service.decode_response"})
    R.metric(std::string(Name) + "_us", median(HitUs[Name]), "us");
  R.metric("service.encode_response_us",
           median(MissUs["service.encode_response"]), "us");
  R.metric("service.solve_us", median(MissUs["service.solve"]), "us");
  R.metric("service.inprocess_rtt_us", median(RttHitUs), "us");
  R.detail("replay_hits", static_cast<double>(RttHitUs.size()));
}

} // namespace

void perfbench::runServiceSocket(const Options &O, Report &R,
                                 std::vector<Tracer> &Tracers) {
  if (O.ServeBin.empty()) {
    R.fail("--serve-bin is required for service-socket");
    return;
  }
  // Before any daemon starts: each inherits the mask.
  R.detail("pinned_cpu", pinToOneCpu());
  Workload W;
  Daemon Daemons[SetupRepeats];
  bool Ready = true;
  double SetupS = medianSetupSeconds(SetupRepeats, [&](unsigned I) {
    Ready = setUp(O, I, Daemons[I], W, R);
    if (I + 1 < SetupRepeats && Ready) {
      std::string Ack, Error;
      if (!Daemons[I].stop(Ack, &Error))
        R.fail(Error);
    }
  });
  if (!Ready || R.Failed)
    return;
  Daemon &D = Daemons[SetupRepeats - 1];
  References Refs;
  double Sparse = 0;
  for (const CoalescingProblem &P : W.Instances)
    Sparse += P.G.numVertices() > WorkGraph::DefaultDenseThreshold;
  Sparse /= PoolInstances;
  R.detail("instances", PoolInstances);
  R.detail("connections", 1);
  R.detail("dense_instance_share", 1.0 - Sparse);
  R.detail("sparse_instance_share", Sparse);

  if (!O.Trace) {
    Phase P = runPhase(D, W, 0, O.Seconds, Tracers[1]);
    std::string Ack, Error;
    if (!D.stop(Ack, &Error))
      R.fail(Error);
    checkPhase(P, W, Refs, R);
    WindowedStats S = windowedStats(P.Samples, P.WallS);
    R.metric("setup_s", SetupS, "s");
    R.metric("ops_per_s", S.OpsPerS, "1/s");
    R.metric("latency_ms.p50", S.P50Ms, "ms");
    R.metric("latency_ms.p90", S.P90Ms, "ms");
    addQuality(W, Refs, R);
    R.metric("peak_rss_mb", D.peakRssMb(), "MB");
    R.detail("latency_samples", static_cast<double>(P.Samples.size()));
    double Hits = ackCounter(Ack, "cache_hits");
    R.detail("cache_hit_ratio",
             Hits / std::max(1.0, Hits + ackCounter(Ack, "cache_misses")));
    R.detail("timed_out", ackCounter(Ack, "timed_out"));
    return;
  }

  // Traced run: alternating untraced and traced slices of the stream (the
  // cache state rules out replaying a slice), then an in-process replay of
  // the stream's first requests, layer by layer.
  constexpr unsigned Slices = 4;
  std::vector<Phase> Phases;
  double Wall[2] = {0, 0}, Requests[2] = {0, 0};
  std::vector<double> UntracedHitMs;
  uint32_t Next = 0;
  for (unsigned I = 0; I < Slices; ++I) {
    bool On = I % 2 == 1;
    Tracers[1].setEnabled(On);
    Phases.push_back(runPhase(D, W, Next, O.Seconds / Slices, Tracers[1]));
    const Phase &P = Phases.back();
    Next = P.NextIndex;
    Wall[On] += P.WallS;
    Requests[On] += static_cast<double>(P.Samples.size());
    if (!On)
      UntracedHitMs.insert(UntracedHitMs.end(), P.RepeatLatencyMs.begin(),
                           P.RepeatLatencyMs.end());
  }
  Tracers[1].setEnabled(false);
  std::string Ack, Error;
  if (!D.stop(Ack, &Error))
    R.fail(Error);
  for (const Phase &P : Phases)
    checkPhase(P, W, Refs, R);

  addLayerRows(R, Tracers[1].selfTimes(), Requests[1], Wall[1]);
  R.metric("trace.overhead_share",
           (Wall[1] / Requests[1]) / (Wall[0] / Requests[0]) - 1, "share");
  double Hits = ackCounter(Ack, "cache_hits");
  R.metric("service.cache_hit_ratio",
           Hits / std::max(1.0, Hits + ackCounter(Ack, "cache_misses")),
           "ratio");
  double OneConnHitUs = median(UntracedHitMs) * 1e3;
  R.metric("service.socket_hit_1conn_us", OneConnHitUs, "us");

  Tracers[0].setEnabled(true);
  replayLayers(W, 0, Tracers[0], Refs, R);
  double InProcess = 0;
  for (const Metric &M : R.Metrics)
    if (M.Name == "service.inprocess_rtt_us")
      InProcess = M.Value;
  R.metric("service.transport_us", OneConnHitUs - InProcess, "us");

  // The in-process replay solved the misses of this stream; their engine
  // counters go into the coalescing rows.
  CoalescingTelemetry Tel;
  double Misses = 0;
  for (uint32_t K = 0; K < ReplayRequests; ++K)
    if (!W.Stream[K].Repeat) {
      Refs.get(W, W.Stream[K].Pair);
      Tel.add(Refs.Outcome[W.Stream[K].Pair].Telemetry);
      Misses += 1;
    }
  addTelemetryRows(Tel, std::max(1.0, Misses), R);
  R.metric("coalescing.sparse_instance_share", Sparse, "share");
}
