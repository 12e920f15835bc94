//===- Serve.cpp - the serve-small workload and the serve layer ------------===//
//
// Drives a child barracuda-serve over its unix socket. Most load is open
// loop: seeded Poisson arrivals split evenly over four connections, one
// tenant each, every request a blocking launch. A request queued behind
// the previous one on its connection is timed from when it was due, so
// a stall also charges the requests queued behind it.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "serve/Client.h"
#include "support/Format.h"
#include "support/Rng.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <csignal>
#include <fcntl.h>
#include <map>
#include <numeric>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace bench;
using support::formatString;
using support::json::Value;

namespace {

constexpr unsigned Connections = 4;
/// The fixed arrival rates: light load, and about half the capacity a
/// 4-core host reaches with ~1.5 ms round trips. Nearer capacity the
/// tail swings by 2-10x from run to run.
constexpr double LightRps = 250, LoadedRps = 500;

/// A child barracuda-serve. Started and stopped from the main thread:
/// the child dies with that thread (PR_SET_PDEATHSIG) if the benchmark
/// is killed first.
class Daemon {
public:
  Daemon(const Options &O, double SampleRate) : SampleRate(SampleRate) {
    static unsigned Counter = 0;
    Socket = formatString("%s/bb-%d-%u.sock", O.WorkDir.c_str(),
                          static_cast<int>(getpid()), Counter++);
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Spawns the daemon and waits until it answers hello.
  support::Status start();
  /// Asks for shutdown and reaps the child (SIGKILL after 10 s).
  void stop();

  pid_t pid() const { return Pid; }
  const std::string &socket() const { return Socket; }

private:
  double SampleRate;
  std::string Socket;
  pid_t Pid = -1;
};

support::Status Daemon::start() {
  std::vector<std::string> Args = {BARRACUDA_SERVE_PATH,
                                   "--socket",
                                   Socket,
                                   "--queues",
                                   std::to_string(NumQueues),
                                   "--trace-sample-rate",
                                   formatString("%g", SampleRate)};
  std::vector<char *> Argv;
  for (std::string &Arg : Args)
    Argv.push_back(Arg.data());
  Argv.push_back(nullptr);

  pid_t Child = ::fork();
  if (Child < 0)
    return support::Status(support::ErrorCode::TraceIo, "fork failed");
  if (Child == 0) {
    // Only async-signal-safe calls between fork and exec. The daemon's
    // "listening"/"stopped" lines would break the benchmark's own
    // stdout, whose last line is the result.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    int Null = ::open("/dev/null", O_RDWR);
    if (Null >= 0) {
      ::dup2(Null, 0);
      ::dup2(Null, 1);
    }
    ::execv(Argv[0], Argv.data());
    ::_exit(127);
  }
  Pid = Child;
  for (Clock::time_point Start = Clock::now(); secondsSince(Start) < 10;) {
    serve::Client Probe;
    if (Probe.connect(Socket).ok() && Probe.hello().ok())
      return support::Status();
    int Status = 0;
    if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
      Pid = -1;
      return support::Status(support::ErrorCode::TraceIo,
                             "barracuda-serve exited during start-up");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop();
  return support::Status(support::ErrorCode::TraceIo,
                         "barracuda-serve did not answer hello");
}

void Daemon::stop() {
  if (Pid < 0)
    return;
  {
    serve::Client Control;
    if (Control.connect(Socket).ok())
      (void)Control.shutdown();
  }
  for (Clock::time_point Start = Clock::now(); secondsSince(Start) < 10;) {
    if (::waitpid(Pid, nullptr, WNOHANG) == Pid) {
      Pid = -1;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (Pid >= 0) {
    ::kill(Pid, SIGKILL);
    ::waitpid(Pid, nullptr, 0);
    Pid = -1;
  }
  ::unlink(Socket.c_str());
}

/// One connection with its own tenant holding one program.
struct Conn {
  serve::Client Client;
  std::string Tenant;
  const Program *P = nullptr;
  std::vector<uint64_t> Params;
  /// Session-cumulative races the daemon reported after the last launch.
  uint64_t RacesTotal = 0;
};

support::Status openTenant(Conn &C, const Daemon &D, std::string Tenant,
                           const Program &P) {
  C.Tenant = std::move(Tenant);
  C.P = &P;
  support::Status Connected = C.Client.connect(D.socket());
  if (!Connected.ok())
    return Connected;
  support::Result<std::vector<std::string>> Loaded =
      C.Client.loadModule(C.Tenant, P.Ptx);
  if (!Loaded.ok())
    return Loaded.status();
  for (const Program::Buffer &Buffer : P.Buffers) {
    Value Req = Value::object();
    Req.set("op", Value::string("alloc"));
    Req.set("tenant", Value::string(C.Tenant));
    Req.set("bytes", Value::number(Buffer.Bytes));
    Req.set("align", Value::number(Buffer.Align));
    support::Result<Value> Addr = C.Client.call(Req);
    if (!Addr.ok())
      return Addr.status();
    C.Params.push_back(Addr.value().getU64("addr"));
  }
  return support::Status();
}

/// Zeroes the tenant's buffers for kernels that must relaunch from the
/// same memory state (untimed).
support::Status resetTenant(Conn &C) {
  if (!C.P->ResetBuffers)
    return support::Status();
  for (size_t I = 0; I != C.Params.size(); ++I) {
    Value Req = Value::object();
    Req.set("op", Value::string("fill"));
    Req.set("tenant", Value::string(C.Tenant));
    Req.set("addr", Value::number(C.Params[I]));
    Req.set("bytes", Value::number(C.P->Buffers[I].Bytes));
    Req.set("value", Value::number(uint64_t(0)));
    support::Status Filled = C.Client.call(Req).status();
    if (!Filled.ok())
      return Filled;
  }
  return support::Status();
}

/// One blocking launch. Returns the request id, or 0 with \p Error set
/// when the launch failed or its verdict is wrong.
uint64_t launchOnce(Conn &C, std::string &Error) {
  support::Result<Value> Launch = C.Client.launch(
      C.Tenant, C.P->Kernel, C.P->Grid, C.P->Block, C.Params);
  if (!Launch.ok()) {
    Error = C.P->Kernel + ": serve launch failed: " +
            Launch.status().describe();
    return 0;
  }
  const Value &Payload = Launch.value();
  uint64_t Races = Payload.getU64("racesTotal");
  if (!Payload.getBool("ok"))
    Error = C.P->Kernel + ": serve launch not ok";
  else if (Payload.getBool("degraded"))
    Error = C.P->Kernel + ": serve launch degraded";
  else if (Races - C.RacesTotal != C.P->ExpectedRaces)
    Error = formatString("%s: serve launch found %llu races, expected %u",
                         C.P->Kernel.c_str(),
                         static_cast<unsigned long long>(Races -
                                                         C.RacesTotal),
                         C.P->ExpectedRaces);
  C.RacesTotal = Races;
  return Error.empty() ? Payload.getU64("requestId") : 0;
}

/// The ledger of the tenant's last launch must balance.
void checkTenantLedger(Outcome &O, Conn &C) {
  support::Result<Value> Report = C.Client.report(C.Tenant);
  const Value *Doc = Report.ok() ? Report.value().get("report") : nullptr;
  if (!O.gate(Doc != nullptr, C.Tenant + ": report op failed"))
    return;
  const Value *Launch = Doc->get("launch");
  const Value *Records = Doc->get("records");
  const Value *Resilience = Doc->get("resilience");
  O.gate(Launch && Records && Resilience &&
             Records->getU64("processed") +
                     Resilience->getU64("recordsDropped") +
                     Resilience->getU64("recordsRejected") ==
                 Launch->getU64("recordsLogged"),
         C.Tenant + ": record ledger does not balance");
}

/// One open-loop phase at a fixed arrival rate.
struct Phase {
  double Rate = 0;
  /// Latency per request: from when it was due if it had to wait for
  /// the previous request on its connection, else from when it was sent.
  std::vector<double> LatencyMs;
  std::vector<double> RoundTripMs; ///< from when it was sent
  std::vector<double> LatenessMs;  ///< sent minus due
  std::vector<uint64_t> RequestIds;
  std::vector<std::string> Errors;
  uint64_t Attempted = 0;
  uint64_t Unsent = 0;
  bool Backlogged = false;

  void append(const Phase &Other) {
    auto extend = [](auto &Into, const auto &From) {
      Into.insert(Into.end(), From.begin(), From.end());
    };
    extend(LatencyMs, Other.LatencyMs);
    extend(RoundTripMs, Other.RoundTripMs);
    extend(LatenessMs, Other.LatenessMs);
    extend(RequestIds, Other.RequestIds);
    extend(Errors, Other.Errors);
    Attempted += Other.Attempted;
    Unsent += Other.Unsent;
    Backlogged |= Other.Backlogged;
  }
};

/// Runs Poisson arrivals at \p Rate for \p Seconds over \p Conns (one
/// thread each, rate split evenly). A connection that falls more than
/// five seconds behind its schedule stops sending; its remaining
/// arrivals count as unsent.
Phase runOpenLoop(std::vector<Conn> &Conns, double Rate, double Seconds,
                  uint64_t Seed) {
  constexpr double GiveUpLateS = 5.0;
  std::vector<Phase> PerConn(Conns.size());
  Clock::time_point Start = Clock::now() + std::chrono::milliseconds(5);
  std::vector<std::thread> Threads;
  for (size_t I = 0; I != Conns.size(); ++I)
    Threads.emplace_back([&, I] {
      Phase &R = PerConn[I];
      support::Rng Rng(Seed * 0x9E3779B97F4A7C15ULL + I);
      double PerConnRate = Rate / static_cast<double>(Conns.size());
      double Due = 0;
      Clock::time_point PrevDone = Start;
      while (true) {
        Due += -std::log(1.0 - Rng.nextDouble()) / PerConnRate;
        if (Due >= Seconds)
          break;
        if (R.Backlogged) {
          ++R.Unsent;
          continue;
        }
        Clock::time_point DueAt =
            Start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(Due));
        std::this_thread::sleep_until(DueAt);
        Clock::time_point Sent = Clock::now();
        double LateS = std::chrono::duration<double>(Sent - DueAt).count();
        if (LateS > GiveUpLateS) {
          R.Backlogged = true;
          ++R.Unsent;
          continue;
        }
        ++R.Attempted;
        std::string Error;
        uint64_t Id = launchOnce(Conns[I], Error);
        Clock::time_point Done = Clock::now();
        // Waiting behind the previous request is the daemon's doing;
        // oversleeping the due time is the generator's.
        Clock::time_point From = PrevDone > DueAt ? DueAt : Sent;
        PrevDone = Done;
        if (!Error.empty()) {
          R.Errors.push_back(Error);
          continue;
        }
        auto ms = [](Clock::duration D) {
          return std::chrono::duration<double, std::milli>(D).count();
        };
        R.LatencyMs.push_back(ms(Done - From));
        R.RoundTripMs.push_back(ms(Done - Sent));
        R.LatenessMs.push_back(LateS * 1e3);
        R.RequestIds.push_back(Id);
      }
    });
  for (std::thread &T : Threads)
    T.join();

  Phase P;
  P.Rate = Rate;
  for (const Phase &R : PerConn)
    P.append(R);
  return P;
}

/// One blocking client launching back to back on \p C for \p Seconds;
/// appends each round trip to \p RoundTripMs and returns the launches
/// completed per second.
double runClosedLoop(Outcome &O, Conn &C, double Seconds,
                     std::vector<double> &RoundTripMs) {
  uint64_t Done = 0;
  Clock::time_point Start = Clock::now();
  while (secondsSince(Start) < Seconds) {
    std::string Error;
    Clock::time_point Sent = Clock::now();
    launchOnce(C, Error);
    RoundTripMs.push_back(secondsSince(Sent) * 1e3);
    ++O.Attempted;
    if (O.gate(Error.empty(), Error))
      ++Done;
    else
      ++O.Failed;
  }
  return static_cast<double>(Done) / secondsSince(Start);
}

/// Opens \p Count connections, one tenant each, with \p Warm warm-up
/// launches per connection.
bool openConnections(Outcome &O, const Daemon &D, const Program &P,
                     unsigned Count, unsigned Warm, std::vector<Conn> &Out) {
  Out = std::vector<Conn>(Count);
  for (unsigned I = 0; I != Count; ++I) {
    support::Status Opened =
        openTenant(Out[I], D, formatString("gen-%u", I), P);
    if (!O.gate(Opened.ok(), "tenant set-up: " + Opened.describe()))
      return false;
    for (unsigned W = 0; W != Warm; ++W) {
      std::string Error;
      launchOnce(Out[I], Error);
      if (!O.gate(Error.empty(), "warm-up: " + Error))
        return false;
    }
  }
  return true;
}

std::string phaseNote(const char *Label, const Phase &P) {
  return formatString(
      "%s: %.0f rps, %zu samples, p50 %.3f ms, p90 %.3f ms, p99 %.3f ms, "
      "round trip p50 %.3f ms, p90 %.3f ms, lateness p99 %.3f ms%s",
      Label, P.Rate, P.LatencyMs.size(), median(P.LatencyMs),
      quantile(P.LatencyMs, 0.90), quantile(P.LatencyMs, 0.99),
      median(P.RoundTripMs), quantile(P.RoundTripMs, 0.90),
      quantile(P.LatenessMs, 0.99), P.Backlogged ? ", backlogged" : "");
}

void gatePhase(Outcome &O, const Phase &P) {
  for (const std::string &Error : P.Errors)
    O.gate(false, Error);
  O.Attempted += P.Attempted + P.Unsent;
  O.Failed += P.Errors.size() + P.Unsent;
}

/// Maps a daemon span name onto its layer: the kernel and tenant names,
/// epochs, shard numbers and message counts are dropped
/// ("shard 2 apply e7 (40 msgs)" -> "shard_apply").
std::string spanKey(const std::string &Name, const std::string &Kernel) {
  std::string Head = Name.substr(0, Name.find(" ("));
  std::string Key;
  size_t Pos = 0;
  while (Pos <= Head.size()) {
    size_t End = Head.find(' ', Pos);
    if (End == std::string::npos)
      End = Head.size();
    std::string Token = Head.substr(Pos, End - Pos);
    Pos = End + 1;
    if (Token.empty() || Token == Kernel ||
        std::any_of(Token.begin(), Token.end(),
                    [](char C) { return C >= '0' && C <= '9'; }))
      continue;
    if (!Key.empty())
      Key += '_';
    for (char C : Token)
      Key += std::isalnum(static_cast<unsigned char>(C)) || C == '.' ||
                     C == '-'
                 ? C
                 : '_';
  }
  return Key;
}

/// Adds each span's self time — its duration minus the union of its
/// children's intervals — to \p Totals by layer.
void addSelfTimes(const Value &Trace, const std::string &Kernel,
                  std::map<std::string, double> &Totals) {
  const Value *Spans = Trace.get("spans");
  if (!Spans)
    return;
  for (const Value &Span : Spans->items()) {
    if (Span.getBool("instant"))
      continue;
    uint64_t Id = Span.getU64("spanId");
    double Begin = static_cast<double>(Span.getU64("ts"));
    double End = Begin + static_cast<double>(Span.getU64("dur"));
    std::vector<std::pair<double, double>> Children;
    for (const Value &Child : Spans->items())
      if (Id && Child.getU64("parentId") == Id) {
        double ChildBegin = static_cast<double>(Child.getU64("ts"));
        double ChildEnd =
            ChildBegin + static_cast<double>(Child.getU64("dur"));
        Children.emplace_back(std::max(ChildBegin, Begin),
                              std::min(ChildEnd, End));
      }
    std::sort(Children.begin(), Children.end());
    double Covered = 0, Reach = Begin;
    for (const auto &[ChildBegin, ChildEnd] : Children) {
      double From = std::max(ChildBegin, Reach);
      if (ChildEnd > From) {
        Covered += ChildEnd - From;
        Reach = ChildEnd;
      }
    }
    Totals[spanKey(Span.getString("name"), Kernel)] +=
        (End - Begin) - Covered;
  }
}

/// The span names serve.span.<name>_self_us reports. The lease span is
/// left out: the shard spans cover all of it, so its self time is
/// always zero.
const std::vector<std::string> &servedSpanNames() {
  static const std::vector<std::string> Names = {
      "frame_launch", "launch", "drain", "watermark_wait", "shard_apply"};
  return Names;
}

} // namespace

// serve-small: the serve bench's hist_safe kernel (2x64, ten records)
// as blocking launches. The detector does almost nothing per launch,
// so this measures the fixed cost of a launch through the daemon:
// frame, tenant, session, engine lease, watermark.
Outcome bench::runServeSmall(const Options &O) {
  Outcome Out;
  Out.Workload = "serve-small";
  HostSpeed Host;
  Program Safe = histogramProgram("hist_safe");
  Program Racy = histogramProgram("hist_racy");

  struct State {
    std::unique_ptr<Daemon> D;
    std::vector<Conn> Conns;
  };
  std::unique_ptr<State> St;
  std::vector<double> SetupTimes;
  // A set-up takes about 0.2 s, so it repeats seven times.
  for (unsigned Rep = 0, Reps = O.Smoke ? 1 : 7; Rep != Reps; ++Rep) {
    St.reset();
    Clock::time_point Start = Clock::now();
    St = std::make_unique<State>();
    St->D = std::make_unique<Daemon>(O, 0.05);
    support::Status Started = St->D->start();
    if (!Out.gate(Started.ok(), Started.describe()))
      return Out;
    // The racy control: the full stack still finds races.
    {
      Conn Control;
      support::Status Opened = openTenant(Control, *St->D, "control", Racy);
      support::Result<Value> Launch =
          Opened.ok() ? Control.Client.launch("control", Racy.Kernel,
                                              Racy.Grid, Racy.Block,
                                              Control.Params)
                      : support::Result<Value>(Opened);
      Out.gate(Launch.ok() && Launch.value().getBool("ok") &&
                   Launch.value().getU64("racesTotal") > 0,
               "hist_racy control launch found no races through the daemon");
    }
    if (!openConnections(Out, *St->D, Safe, Connections, O.Smoke ? 5 : 50,
                         St->Conns))
      return Out;
    SetupTimes.push_back(secondsSince(Start));
    Host.tick();
  }
  double SetupS = median(SetupTimes);

  resetPeakRss(St->D->pid());

  // The slowdown baseline: the same kernel run natively in-process, in
  // short chunks, each pinned to the next CPU. A chunk runs either fast
  // or slow throughout, depending on its CPU's state at the time (about
  // 10 against 18 us on the sizing host), so the baseline is the mean of
  // many chunks' medians.
  Session Native(sessionOptions(false));
  support::Result<std::vector<uint64_t>> NativeParams =
      loadProgram(Native, Safe);
  if (!Out.gate(NativeParams.ok(), "native hist_safe load failed"))
    return Out;
  std::vector<double> NativeChunkMs;
  auto nativeChunks = [&] {
    for (unsigned Chunk = 0; Chunk != 4; ++Chunk) {
      CpuTurn Pin(static_cast<unsigned>(NativeChunkMs.size()));
      std::vector<double> Ms;
      for (unsigned I = 0; I != 25; ++I) {
        Clock::time_point Start = Clock::now();
        bool Ok = Native
                      .launchKernel(Safe.Kernel, Safe.Grid, Safe.Block,
                                    NativeParams.value())
                      .ok();
        Ms.push_back(secondsSince(Start) * 1e3);
        if (!Out.gate(Ok, "native hist_safe launch failed"))
          break;
      }
      NativeChunkMs.push_back(median(Ms));
    }
  };

  // The measured window is a series of cycles: 250 rps, native chunks,
  // 500 rps, one blocking client back to back, native chunks again. The
  // calibration kernel runs between the segments, while the daemon idles.
  Phase Light, Loaded;
  Light.Rate = LightRps;
  Loaded.Rate = LoadedRps;
  std::vector<double> ClosedMs, ClosedRates;
  unsigned Cycles = std::max(1u, static_cast<unsigned>(O.Seconds / 2.5));
  double OpenS = O.Seconds * 0.45 / Cycles;
  double ClosedS = O.Seconds * 0.1 / Cycles;
  for (unsigned I = 0; I != Cycles; ++I) {
    Light.append(
        runOpenLoop(St->Conns, LightRps, OpenS, O.Seed * 64 + 2 * I));
    nativeChunks();
    Host.tick();
    Loaded.append(
        runOpenLoop(St->Conns, LoadedRps, OpenS, O.Seed * 64 + 2 * I + 1));
    Host.tick();
    ClosedRates.push_back(
        runClosedLoop(Out, St->Conns[I % Connections], ClosedS, ClosedMs));
    nativeChunks();
    Host.tick();
  }
  Host.sample();
  gatePhase(Out, Light);
  gatePhase(Out, Loaded);

  for (Conn &C : St->Conns)
    checkTenantLedger(Out, C);
  double DaemonRss = peakRssMb(St->D->pid());
  double NativeMs =
      std::accumulate(NativeChunkMs.begin(), NativeChunkMs.end(), 0.0) /
      static_cast<double>(NativeChunkMs.size());

  double P50 = median(Light.LatencyMs);
  double P90 = quantile(Loaded.LatencyMs, 0.90);
  double Throughput = median(ClosedRates);
  double Scale = Host.scale();
  Out.add("setup_s", SetupS * Scale, "s");
  Out.add("verdict_p50_ms", P50 * Scale, "ms");
  Out.add("verdict_p90_ms", P90 * Scale, "ms");
  Out.add("throughput", Throughput / Scale, "1/s");
  Out.add("slowdown_x", P50 / NativeMs, "x");
  Out.add("peak_rss_mb", DaemonRss, "MB");
  Out.note(Host.note());
  Out.note(formatString("unscaled: setup %.4f s, p50 %.3f ms, p90 %.3f ms, "
                        "throughput %.1f /s",
                        SetupS, P50, P90, Throughput));
  Out.note(formatString("setup_s: median of %zu set-ups", SetupTimes.size()));
  Out.note(phaseNote("verdict_p50_ms, unscaled, from", Light));
  Out.note(phaseNote("verdict_p90_ms, unscaled, from", Loaded));
  Out.note(formatString("throughput: one blocking client, back to back, "
                        "median over %u segments of %.2f s; %zu launches, "
                        "round trip p50 %.3f ms unscaled",
                        Cycles, ClosedS, ClosedMs.size(), median(ClosedMs)));
  Out.note(formatString("slowdown_x: p50 over a native in-process launch, "
                        "%.4f ms (mean of %zu chunk medians)",
                        NativeMs, NativeChunkMs.size()));
  Out.note("peak_rss_mb: the daemon's VmHWM over the measured window");
  return Out;
}

ServeLayerSample bench::measureServeLayer(const Options &O, Outcome &Out,
                                          const std::vector<Program> &Programs,
                                          bool OpenLoop, unsigned Launches) {
  ServeLayerSample Sample;
  double RoundTrip[2] = {0, 0};
  std::map<std::string, double> SelfUs;
  for (unsigned Traced = 0; Traced != 2; ++Traced) {
    Daemon D(O, Traced ? 1.0 : 0.05);
    support::Status Started = D.start();
    if (!Out.gate(Started.ok(), Started.describe()))
      return Sample;
    std::vector<Conn> Conns;
    // (program index, request ids) of every measured launch.
    std::vector<std::pair<size_t, std::vector<uint64_t>>> Requests;
    if (OpenLoop) {
      if (!openConnections(Out, D, Programs[0], Connections,
                           O.Smoke ? 5 : 50, Conns))
        return Sample;
      Phase Light =
          runOpenLoop(Conns, LightRps, O.Seconds / 4, O.Seed);
      gatePhase(Out, Light);
      RoundTrip[Traced] = median(Light.RoundTripMs) * 1e3;
      Requests.emplace_back(0, Light.RequestIds);
    } else {
      Conns = std::vector<Conn>(Programs.size());
      for (size_t I = 0; I != Programs.size(); ++I) {
        Conn &C = Conns[I];
        support::Status Opened =
            openTenant(C, D, formatString("p%zu", I), Programs[I]);
        if (!Out.gate(Opened.ok(), "tenant set-up: " + Opened.describe()))
          return Sample;
        std::vector<double> Ms;
        std::vector<uint64_t> Ids;
        for (unsigned L = 0; L != Launches + 1; ++L) {
          std::string Error;
          Out.gate(resetTenant(C).ok(), C.P->Kernel + ": fill failed");
          Clock::time_point Start = Clock::now();
          uint64_t Id = launchOnce(C, Error);
          double Elapsed = secondsSince(Start) * 1e3;
          ++Out.Attempted;
          if (!Out.gate(Error.empty(), Error)) {
            ++Out.Failed;
            continue;
          }
          if (L == 0)
            continue; // the first launch lowers the kernel
          Ms.push_back(Elapsed);
          Ids.push_back(Id);
        }
        RoundTrip[Traced] += median(Ms) * 1e3;
        Requests.emplace_back(I, std::move(Ids));
      }
    }
    for (Conn &C : Conns)
      checkTenantLedger(Out, C);
    if (!Traced)
      continue;
    // Self time per layer: mean per request, summed over programs.
    serve::Client Query;
    if (!Out.gate(Query.connect(D.socket()).ok(), "trace query connect"))
      return Sample;
    for (const auto &[Index, Ids] : Requests) {
      std::map<std::string, double> Totals;
      size_t Step = std::max<size_t>(1, Ids.size() / 200), Queried = 0;
      for (size_t I = 0; I < Ids.size(); I += Step, ++Queried) {
        support::Result<Value> Trace = Query.trace(Ids[I]);
        const Value *Tree = Trace.ok() ? Trace.value().get("trace") : nullptr;
        if (Out.gate(Tree != nullptr, "trace op failed"))
          addSelfTimes(*Tree, Programs[Index].Kernel, Totals);
      }
      for (const auto &[Key, Us] : Totals)
        SelfUs[Key] += Us / static_cast<double>(std::max<size_t>(1, Queried));
    }
  }
  Sample.RoundTripUs = RoundTrip[0];
  Sample.TraceOverheadPct = (RoundTrip[1] / RoundTrip[0] - 1) * 100;
  for (const std::string &Name : servedSpanNames())
    Sample.SpanSelfUs.emplace_back(Name, SelfUs[Name]);
  return Sample;
}
