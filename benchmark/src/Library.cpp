//===- Library.cpp - the in-process (library) workloads --------------------===//
//
// table1, detect-dense and detect-contended drive barracuda::Session
// directly, closed loop on one thread: each launch's verdict is awaited
// before the next one starts.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Format.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <set>

using namespace bench;
using support::formatString;

SessionOptions bench::sessionOptions(bool Instrument) {
  SessionOptions Options;
  Options.Instrument = Instrument;
  Options.NumQueues = NumQueues;
  return Options;
}

support::Result<std::vector<uint64_t>> bench::loadProgram(Session &S,
                                                          const Program &P) {
  support::Result<ModuleInfo> Info = S.loadModule(P.Ptx);
  if (!Info.ok())
    return Info.status();
  std::vector<uint64_t> Params;
  for (const Program::Buffer &Buffer : P.Buffers)
    Params.push_back(S.alloc(Buffer.Bytes, Buffer.Align));
  return Params;
}

void bench::resetBuffers(Session &S, const Program &P,
                         const std::vector<uint64_t> &Params) {
  if (!P.ResetBuffers)
    return;
  for (size_t I = 0; I != P.Buffers.size(); ++I)
    S.fillDevice(Params[I], P.Buffers[I].Bytes, 0);
}

bool bench::checkLaunch(Outcome &O, const Program &P, const Session &S,
                        const support::Result<sim::LaunchResult> &Launch,
                        const RunReport &Report, size_t RacesBefore) {
  if (!O.gate(Launch.ok(), P.Kernel + ": launch failed: " +
                               Launch.status().describe()))
    return false;
  bool Ok = O.gate(!Report.Resilience.Degraded, P.Kernel + ": degraded");
  Ok &= O.gate(Report.Records.Processed + Report.Resilience.RecordsDropped +
                       Report.Resilience.RecordsRejected ==
                   Report.Launch.RecordsLogged,
               P.Kernel + ": record ledger does not balance");
  // races() keeps growing on a reused session, so the launch's own
  // findings are the ones appended past RacesBefore.
  const std::vector<detector::RaceReport> &Races = S.races();
  size_t Added = Races.size() - std::min(Races.size(), RacesBefore);
  Ok &= O.gate(Added == P.ExpectedRaces,
               formatString("%s: %zu races, expected %u", P.Kernel.c_str(),
                            Added, P.ExpectedRaces));
  if (!P.RacyLines.empty()) {
    std::set<uint32_t> Found, Planted(P.RacyLines.begin(),
                                      P.RacyLines.end());
    for (size_t I = RacesBefore; I < Races.size(); ++I)
      Found.insert(Races[I].Line);
    Ok &= O.gate(Found == Planted,
                 P.Kernel + ": races are not on the planted lines");
  }
  return Ok;
}

namespace {

/// Repeats \p Setup (the last result is kept) and stores the median
/// set-up time in \p SetupS. Set-up is what precedes the first timed
/// operation: input generation, module loads, one warm-up round. Cheap
/// set-ups repeat more often, since they vary more.
template <typename StateT, typename SetupFn>
std::unique_ptr<StateT> repeatSetup(const Options &O, Outcome &Out,
                                    HostSpeed &Host, double &SetupS,
                                    SetupFn Setup) {
  std::unique_ptr<StateT> State;
  std::vector<double> Times;
  unsigned Reps = O.Smoke ? 1 : 3;
  for (unsigned Rep = 0; Rep != Reps; ++Rep) {
    State.reset();
    Clock::time_point Start = Clock::now();
    State = Setup();
    Times.push_back(secondsSince(Start));
    if (Rep == 0 && !O.Smoke && Times[0] < 0.5)
      Reps = 7;
    Host.tick();
  }
  SetupS = median(Times);
  Out.note(formatString("setup_s: median of %zu set-ups", Times.size()));
  return State;
}

/// Per-program samples of the measured loop.
struct Samples {
  std::vector<double> VerdictMs;
  std::vector<double> LaunchS;
  std::vector<double> NativeS;
  uint64_t Processed = 0;
  /// The first launch's exact counts; every relaunch must repeat them.
  bool Seen = false;
  uint64_t WarpInsns = 0;
  uint64_t Records = 0;
};

/// One instrumented launch plus its report: the verdict the caller is
/// waiting for.
struct Verdict {
  support::Result<sim::LaunchResult> Launch =
      support::Status(support::ErrorCode::Internal, "not launched");
  RunReport Report;
  size_t RacesBefore = 0;
  double LaunchS = 0;
};

Verdict launchVerdict(Session &S, const Program &P,
                      const std::vector<uint64_t> &Params) {
  Verdict V;
  V.RacesBefore = S.races().size();
  Clock::time_point Start = Clock::now();
  V.Launch = S.launchKernel(P.Kernel, P.Grid, P.Block, Params);
  V.LaunchS = secondsSince(Start);
  V.Report = S.report();
  return V;
}

void record(Outcome &O, const Program &P, const Session &S,
            const Verdict &V, double VerdictS, Samples *Into) {
  ++O.Attempted;
  bool Ok = checkLaunch(O, P, S, V.Launch, V.Report, V.RacesBefore);
  if (Into) {
    if (!Into->Seen) {
      Into->Seen = true;
      Into->WarpInsns = V.Report.Launch.WarpInstructions;
      Into->Records = V.Report.Launch.RecordsLogged;
    }
    Ok &= O.gate(Into->WarpInsns == V.Report.Launch.WarpInstructions &&
                     Into->Records == V.Report.Launch.RecordsLogged,
                 P.Kernel + ": exact counts changed between identical "
                          "launches");
    Into->VerdictMs.push_back(VerdictS * 1e3);
    Into->LaunchS.push_back(V.LaunchS);
    Into->Processed += V.Report.Records.Processed;
  }
  O.Failed += Ok ? 0 : 1;
}

/// Native launches per program per round: the slowdown baseline. One
/// native launch runs fast or slow depending on the state of the CPU it
/// lands on, so several per round, each on the next CPU, keep the mean
/// steady.
constexpr unsigned NativesPerRound = 2;

/// \p Count native launches of \p P on \p S, appended to \p Into when
/// given. A program's N-th native launch runs on CPU N mod the CPU count.
void nativeLaunches(Outcome &O, const Program &P, Session &S,
                    const std::vector<uint64_t> &Params, unsigned Count,
                    Samples *Into) {
  for (unsigned N = 0; N != Count; ++N) {
    resetBuffers(S, P, Params);
    CpuTurn Pin(Into ? static_cast<unsigned>(Into->NativeS.size()) : 0);
    ++O.Attempted;
    Clock::time_point Start = Clock::now();
    support::Result<sim::LaunchResult> Launch =
        S.launchKernel(P.Kernel, P.Grid, P.Block, Params);
    double Seconds = secondsSince(Start);
    if (!O.gate(Launch.ok(), P.Kernel + ": native launch failed: " +
                                 Launch.status().describe()))
      ++O.Failed;
    if (Into)
      Into->NativeS.push_back(Seconds);
  }
}

/// The end-to-end metrics every library workload reports; times and
/// rates are scaled by \p Host.
void summarize(Outcome &O, const std::vector<Program> &Programs,
               const std::vector<Samples> &PerProgram, unsigned Rounds,
               double SetupS, const HostSpeed &Host) {
  std::vector<double> Medians, Slowdowns, AllVerdicts;
  double LaunchS = 0;
  uint64_t Processed = 0;
  for (const Samples &S : PerProgram) {
    Medians.push_back(median(S.VerdictMs));
    // Mean over mean: a program's native launches are bimodal (fast or
    // slow CPU), and a median would jump between the modes.
    double Launch = std::accumulate(S.LaunchS.begin(), S.LaunchS.end(), 0.0);
    double Native = std::accumulate(S.NativeS.begin(), S.NativeS.end(), 0.0);
    Slowdowns.push_back((Launch / static_cast<double>(S.LaunchS.size())) /
                        std::max(Native / static_cast<double>(S.NativeS.size()),
                                 1e-9));
    AllVerdicts.insert(AllVerdicts.end(), S.VerdictMs.begin(),
                       S.VerdictMs.end());
    LaunchS += Launch;
    Processed += S.Processed;
  }
  double P50 = geomean(Medians), P90 = quantile(AllVerdicts, 0.90);
  double Throughput = static_cast<double>(Processed) / LaunchS;
  double Scale = Host.scale();
  O.add("setup_s", SetupS * Scale, "s");
  O.add("verdict_p50_ms", P50 * Scale, "ms");
  O.add("verdict_p90_ms", P90 * Scale, "ms");
  O.add("throughput", Throughput / Scale, "1/s");
  O.add("slowdown_x", geomean(Slowdowns), "x");
  O.add("peak_rss_mb", peakRssMb(), "MB");
  O.note(Host.note());
  O.note(formatString("unscaled: setup %.4f s, p50 %.3f ms, p90 %.3f ms, "
                      "throughput %.0f /s",
                      SetupS, P50, P90, Throughput));
  O.note(formatString("verdict_p50_ms: geomean over %zu programs of the "
                      "median of %u launches each",
                      Programs.size(), Rounds));
  O.note(formatString("verdict_p90_ms: %zu verdicts, p99 %.3f ms unscaled",
                      AllVerdicts.size(), quantile(AllVerdicts, 0.99)));
  O.note(formatString("throughput: %llu records processed over %.3f s of "
                      "launches",
                      static_cast<unsigned long long>(Processed), LaunchS));
  O.note(formatString("slowdown_x: %u native launches per program per "
                      "round, on each CPU in turn",
                      NativesPerRound));
  for (size_t I = 0; I != Programs.size(); ++I)
    O.note(formatString(
        "  %-34s verdict %9.3f ms  slowdown %6.2fx  %llu winsn %llu rec",
        Programs[I].Kernel.c_str(), Medians[I], Slowdowns[I],
        static_cast<unsigned long long>(PerProgram[I].WarpInsns),
        static_cast<unsigned long long>(PerProgram[I].Records)));
}

/// Starts the measured window: warm-up launches stay gated but are not
/// counted as operations, and the memory peak restarts from here.
void startWindow(Outcome &O) {
  O.Attempted = O.Failed = 0;
  resetPeakRss();
}

bool timeLeft(const Options &O, Clock::time_point Start, unsigned Rounds) {
  return Rounds == 0 || secondsSince(Start) < O.Seconds;
}

/// A program loaded into a long-lived instrumented session and a native
/// one, both launched once (gated, untimed) so lowering and engine
/// threads are warm.
struct WarmProgram {
  std::unique_ptr<Session> Instrumented, Native;
  std::vector<uint64_t> Params, NativeParams;
};

WarmProgram warmUp(Outcome &O, const Program &P, const SessionOptions &Opts) {
  WarmProgram W;
  W.Instrumented = std::make_unique<Session>(Opts);
  W.Native = std::make_unique<Session>(sessionOptions(false));
  support::Result<std::vector<uint64_t>> Params =
      loadProgram(*W.Instrumented, P);
  support::Result<std::vector<uint64_t>> NativeParams =
      loadProgram(*W.Native, P);
  O.gate(Params.ok() && NativeParams.ok(), P.Kernel + ": load failed");
  W.Params = Params.valueOr({});
  W.NativeParams = NativeParams.valueOr({});
  resetBuffers(*W.Instrumented, P, W.Params);
  record(O, P, *W.Instrumented, launchVerdict(*W.Instrumented, P, W.Params),
         0, nullptr);
  nativeLaunches(O, P, *W.Native, W.NativeParams, 1, nullptr);
  return W;
}

/// One measured round on a warm program: a timed verdict, then the
/// native launches.
void measureRound(Outcome &O, const Program &P, WarmProgram &W, Samples &S) {
  resetBuffers(*W.Instrumented, P, W.Params);
  Clock::time_point Start = Clock::now();
  Verdict V = launchVerdict(*W.Instrumented, P, W.Params);
  record(O, P, *W.Instrumented, V, secondsSince(Start), &S);
  nativeLaunches(O, P, *W.Native, W.NativeParams, NativesPerRound, &S);
}

} // namespace

// table1: every program runs the way barracuda-run does it — a fresh
// Session with its own engine, load, allocate, launch, report — plus
// native launches, round after round. The geomean weighs each program
// equally, so the two heavy programs (dwt2d, dxtc) do not swamp it.
Outcome bench::runTable1(const Options &O) {
  Outcome Out;
  Out.Workload = "table1";
  HostSpeed Host;
  auto verdict = [&](const Program &P, Samples *Into) {
    Clock::time_point Start = Clock::now();
    Session S(sessionOptions(true));
    support::Result<std::vector<uint64_t>> Params = loadProgram(S, P);
    if (!Out.gate(Params.ok(), P.Kernel + ": load failed")) {
      ++Out.Attempted;
      ++Out.Failed;
      return;
    }
    Verdict V = launchVerdict(S, P, Params.value());
    record(Out, P, S, V, secondsSince(Start), Into);
  };
  auto native = [&](const Program &P, Samples *Into) {
    Session S(sessionOptions(false));
    support::Result<std::vector<uint64_t>> Params = loadProgram(S, P);
    if (Out.gate(Params.ok(), P.Kernel + ": native load failed"))
      nativeLaunches(Out, P, S, Params.value(),
                     Into ? NativesPerRound : 1, Into);
  };

  double SetupS = 0;
  std::unique_ptr<std::vector<Program>> Programs =
      repeatSetup<std::vector<Program>>(O, Out, Host, SetupS, [&] {
        auto Fresh = std::make_unique<std::vector<Program>>(
            table1Programs(O.Seed, O.Smoke ? 1024 : 16384, {}));
        for (const Program &P : *Fresh) {
          verdict(P, nullptr);
          native(P, nullptr);
        }
        return Fresh;
      });
  startWindow(Out);

  std::vector<Samples> PerProgram(Programs->size());
  unsigned Rounds = 0;
  for (Clock::time_point Start = Clock::now(); timeLeft(O, Start, Rounds);
       ++Rounds)
    for (size_t I = 0; I != Programs->size(); ++I) {
      verdict((*Programs)[I], &PerProgram[I]);
      native((*Programs)[I], &PerProgram[I]);
      Host.tick();
    }
  Host.sample();
  summarize(Out, *Programs, PerProgram, Rounds, SetupS, Host);
  return Out;
}

// detect-dense: dwt2d and dxtc relaunched on long-lived sessions over one
// shared engine, so module, lowering and detector threads stay warm and
// the detector and queue transport dominate.
Outcome bench::runDetectDense(const Options &O) {
  Outcome Out;
  Out.Workload = "detect-dense";
  HostSpeed Host;
  struct State {
    std::vector<Program> Programs;
    /// Declared before the sessions, which borrow it.
    std::unique_ptr<runtime::Engine> Engine;
    std::vector<WarmProgram> Warm;
  };
  double SetupS = 0;
  std::unique_ptr<State> St = repeatSetup<State>(O, Out, Host, SetupS, [&] {
    auto Fresh = std::make_unique<State>();
    Fresh->Programs = table1Programs(O.Seed, O.Smoke ? 4096 : 65536,
                                     {"dwt2d", "dxtc"});
    runtime::EngineOptions EngineOpts;
    EngineOpts.NumQueues = NumQueues;
    Fresh->Engine = std::make_unique<runtime::Engine>(EngineOpts);
    SessionOptions Opts = sessionOptions(true);
    Opts.SharedEngine = Fresh->Engine.get();
    for (const Program &P : Fresh->Programs)
      Fresh->Warm.push_back(warmUp(Out, P, Opts));
    return Fresh;
  });
  startWindow(Out);

  std::vector<Samples> PerProgram(St->Programs.size());
  unsigned Rounds = 0;
  for (Clock::time_point Start = Clock::now(); timeLeft(O, Start, Rounds);
       ++Rounds)
    for (size_t I = 0; I != St->Programs.size(); ++I) {
      measureRound(Out, St->Programs[I], St->Warm[I], PerProgram[I]);
      Host.tick();
    }
  Host.sample();
  summarize(Out, St->Programs, PerProgram, Rounds, SetupS, Host);
  return Out;
}

// detect-contended: the seeded contended kernel relaunched on a
// long-lived session. Its verdict must be exactly the planted races at
// one queue (checked once per set-up) and at three (every launch).
Outcome bench::runDetectContended(const Options &O) {
  Outcome Out;
  Out.Workload = "detect-contended";
  HostSpeed Host;
  struct State {
    Program P;
    WarmProgram Warm;
  };
  double SetupS = 0;
  std::unique_ptr<State> St = repeatSetup<State>(O, Out, Host, SetupS, [&] {
    auto Fresh = std::make_unique<State>();
    Fresh->P = contendedProgram(O.Seed, O.Smoke);
    const Program &P = Fresh->P;
    {
      SessionOptions Opts = sessionOptions(true);
      Opts.NumQueues = 1;
      Session Single(Opts);
      support::Result<std::vector<uint64_t>> Params = loadProgram(Single, P);
      if (Out.gate(Params.ok(), P.Kernel + ": load failed")) {
        resetBuffers(Single, P, Params.value());
        record(Out, P, Single, launchVerdict(Single, P, Params.value()), 0,
               nullptr);
      }
    }
    Fresh->Warm = warmUp(Out, P, sessionOptions(true));
    return Fresh;
  });
  startWindow(Out);

  std::vector<Samples> PerProgram(1);
  unsigned Rounds = 0;
  for (Clock::time_point Start = Clock::now(); timeLeft(O, Start, Rounds);
       ++Rounds) {
    measureRound(Out, St->P, St->Warm, PerProgram[0]);
    Host.tick();
  }
  Host.sample();
  summarize(Out, {St->P}, PerProgram, Rounds, SetupS, Host);
  return Out;
}
