//===- Layers.cpp - the traced per-layer pass ------------------------------===//
//
// For one workload's inputs, calls each layer's public function in turn
// — parse, instrument, lower, simulate natively and with logging, queue
// transport, the inline and the pipelined detector, a Session load and
// launch — timing each call and wrapping it in an obs::Span. The spans
// are written as one Chrome trace at the end; the per-layer numbers are
// medians over rounds of each round's totals over the workload's
// programs. Serve-layer numbers come from the daemon's own request
// traces (Serve.cpp).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "detector/Host.h"
#include "ptx/Inliner.h"
#include "ptx/Parser.h"
#include "sim/Lower.h"
#include "support/Format.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <map>
#include <set>
#include <thread>

using namespace bench;
using support::formatString;

namespace {

constexpr double MiB = 1024.0 * 1024.0;

/// One round's totals, by metric name.
using Round = std::map<std::string, double>;

/// A parsed module ready to launch on its own device memory.
struct Device {
  std::unique_ptr<ptx::Module> M;
  ptx::Kernel *K = nullptr;
  sim::GlobalMemory Memory;
  std::vector<uint8_t> Params;
};

/// Inlines, lays out globals and allocates \p P's buffers on \p D.
bool prepare(Outcome &O, const Program &P, Device &D) {
  if (!O.gate(D.M != nullptr, P.Kernel + ": parse failed"))
    return false;
  std::string Error = ptx::inlineFunctions(*D.M);
  D.K = D.M->findKernel(P.Kernel);
  if (!O.gate(Error.empty() && D.K, P.Kernel + ": module not launchable"))
    return false;
  sim::Machine::layoutModuleGlobals(*D.M, D.Memory);
  sim::ParamBuilder Builder(*D.K);
  for (size_t I = 0; I != P.Buffers.size(); ++I)
    Builder.set(I, D.Memory.allocate(P.Buffers[I].Bytes, P.Buffers[I].Align));
  D.Params = Builder.bytes();
  return true;
}

/// The race verdict of a detector run must match the program's planted
/// races, mapped to source lines through the instrumented kernel.
void checkRaces(Outcome &O, const Program &P, const ptx::Kernel &K,
                const detector::RaceReporter &Reporter, const char *Where) {
  std::vector<detector::RaceReport> Races = Reporter.races();
  O.gate(Races.size() == P.ExpectedRaces,
         formatString("%s: %s found %zu races, expected %u", P.Kernel.c_str(),
                      Where, Races.size(), P.ExpectedRaces));
  if (P.RacyLines.empty())
    return;
  std::set<uint32_t> Found,
      Planted(P.RacyLines.begin(), P.RacyLines.end());
  for (const detector::RaceReport &Race : Races)
    Found.insert(Race.Pc < K.Body.size() ? K.Body[Race.Pc].Line : 0);
  O.gate(Found == Planted,
         P.Kernel + ": " + Where + " races are not on the planted lines");
}

/// Byte cells the memory records touch: the denominator of the
/// detector's fast-path fraction.
uint64_t byteCells(const std::vector<trace::LogRecord> &Records) {
  uint64_t Cells = 0;
  for (const trace::LogRecord &R : Records)
    switch (R.op()) {
    case trace::RecordOp::Read:
    case trace::RecordOp::Write:
    case trace::RecordOp::Atom:
    case trace::RecordOp::Acq:
    case trace::RecordOp::Rel:
    case trace::RecordOp::AcqRel:
      Cells += static_cast<uint64_t>(std::popcount(R.ActiveMask)) *
               R.AccessSize;
      break;
    default:
      break;
    }
  return Cells;
}

/// Pushes the collected stream through \p Queues from this thread,
/// routed by block like the device does, then closes them.
void produce(trace::QueueSet &Queues, const sim::CollectingLogger &Log) {
  for (size_t I = 0; I != Log.Records.size(); ++I)
    Queues.queueForBlock(Log.Blocks[I]).push(Log.Records[I]);
  Queues.closeAll();
}

class LayerPass {
public:
  LayerPass(const Options &O, Outcome &Out, const std::string &Workload)
      : O(O), Out(Out), Track(Rec.track("bench " + Workload)) {}

  /// Measures every layer once for \p P, adding into \p R. \p S is the
  /// program's long-lived session, so its engine is as warm as a serve
  /// tenant's; \p LaunchUs receives its launch time.
  void measure(const Program &P, Session &S, Round &R, double &LaunchUs);
  void writeTrace() const;

private:
  template <typename Fn>
  double timed(const char *Layer, const Program &P, Fn &&Body) {
    obs::Span S(&Rec, Track, std::string(Layer) + " " + P.Kernel, "bench");
    Clock::time_point Start = Clock::now();
    Body();
    return secondsSince(Start);
  }

  const Options &O;
  Outcome &Out;
  obs::TraceRecorder Rec;
  uint32_t Track;
};

void LayerPass::measure(const Program &P, Session &S, Round &R,
                        double &LaunchUs) {
  sim::LaunchConfig Config;
  Config.Grid = P.Grid;
  Config.Block = P.Block;

  // ptx: parse.
  Device Instr;
  double ParseS = timed("ptx.parse", P, [&] {
    ptx::Parser Parser(P.Ptx);
    Instr.M = Parser.parseModule();
  });
  if (!prepare(Out, P, Instr))
    return;
  R["ptx.parse_ms"] += ParseS * 1e3;
  R["ptx.bytes"] += static_cast<double>(P.Ptx.size());

  // instrument.
  instrument::ModuleInstrumentation MI;
  double InstrumentS = timed("instrument", P, [&] {
    MI = instrument::instrumentModule(*Instr.M,
                                      instrument::InstrumenterOptions());
  });
  const instrument::KernelInstrumentation &KI =
      MI.Kernels[static_cast<size_t>(Instr.K - Instr.M->Kernels.data())];
  instrument::InstrumentationStats Static = MI.totalStats();
  R["instrument.ms"] += InstrumentS * 1e3;
  R["instrument.static_insns"] += static_cast<double>(Static.StaticInsns);
  R["instrument.static_logged"] +=
      static_cast<double>(Static.InstrumentedOptimized);

  // sim: lower, then run with a collecting logger.
  std::unique_ptr<sim::LoweredKernel> Low;
  R["sim.lower_ms"] += timed("sim.lower", P, [&] {
                         Low = sim::lowerKernel(*Instr.M, *Instr.K, &KI);
                       }) *
                       1e3;
  sim::Machine Machine(Instr.Memory);
  sim::CollectingLogger Log;
  sim::LaunchResult Logged;
  double LoggingS = timed("sim.logging", P, [&] {
    Logged = Machine.launch(*Instr.M, *Instr.K, &KI, Config, Instr.Params,
                            &Log, Low.get());
  });
  if (!Out.gate(Logged.Ok && Log.Records.size() == Logged.RecordsLogged,
                P.Kernel + ": logging simulation failed: " + Logged.Error))
    return;
  R["sim.logging_s"] += LoggingS;
  R["sim.warp_insns"] += static_cast<double>(Logged.WarpInstructions);
  R["sim.records_logged"] += static_cast<double>(Logged.RecordsLogged);
  R["sim.records_pruned"] += static_cast<double>(Logged.RecordsPruned);

  // sim: the native baseline on a module of its own.
  {
    Device Native;
    ptx::Parser Parser(P.Ptx);
    Native.M = Parser.parseModule();
    if (!prepare(Out, P, Native))
      return;
    std::unique_ptr<sim::LoweredKernel> NativeLow =
        sim::lowerKernel(*Native.M, *Native.K, nullptr);
    sim::Machine NativeMachine(Native.Memory);
    sim::LaunchResult Result;
    R["sim.native_s"] += timed("sim.native", P, [&] {
      Result = NativeMachine.launch(*Native.M, *Native.K, nullptr, Config,
                                    Native.Params, nullptr, NativeLow.get());
    });
    R["sim.native_winsn"] += static_cast<double>(Result.WarpInstructions);
    Out.gate(Result.Ok, P.Kernel + ": native simulation failed");
  }

  // trace: push -> pop through the queues against no-op consumers.
  {
    trace::QueueSet Queues(NumQueues, 1 << 14);
    std::atomic<uint64_t> Popped{0};
    std::vector<std::thread> Consumers;
    R["trace.transport_s"] += timed("trace.transport", P, [&] {
      for (unsigned Q = 0; Q != NumQueues; ++Q)
        Consumers.emplace_back([&, Q] {
          trace::LogRecord Batch[64];
          trace::EventQueue &Queue = Queues.queue(Q);
          uint64_t Count = 0;
          for (;;) {
            size_t N = Queue.drain(Batch, 64);
            Count += N;
            if (N == 0) {
              if (Queue.exhausted())
                break;
              std::this_thread::yield();
            }
          }
          Popped += Count;
        });
      produce(Queues, Log);
      for (std::thread &T : Consumers)
        T.join();
    });
    Out.gate(Popped == Log.Records.size(),
             P.Kernel + ": transport lost records");
  }

  // detector: the inline oracle (one queue, one shard) ...
  {
    detector::DetectorOptions Opts;
    Opts.Hier = sim::ThreadHierarchy(Config);
    detector::SharedDetectorState State(Opts);
    R["detector.inline_s"] += timed("detector.inline", P, [&] {
      detector::processCollected(State, 1, Log.Blocks, Log.Records);
    });
    checkRaces(Out, P, *Instr.K, State.Reporter, "the inline detector");
  }
  // ... and the pipelined detector: three queues, three shards, one
  // producer.
  double PipelinedS = 0;
  {
    detector::DetectorOptions Opts;
    Opts.Hier = sim::ThreadHierarchy(Config);
    Opts.NumQueues = NumQueues;
    Opts.ShadowShards = NumQueues;
    detector::SharedDetectorState State(Opts);
    trace::QueueSet Queues(NumQueues, 1 << 14);
    detector::HostDetector Detector(Queues, State);
    PipelinedS = timed("detector.pipelined", P, [&] {
      Detector.start();
      produce(Queues, Log);
      Detector.join();
    });
    checkRaces(Out, P, *Instr.K, State.Reporter, "the pipelined detector");
    detector::HotPathStats Hot = State.hotPathStats();
    R["detector.pipelined_s"] += PipelinedS;
    R["detector.byte_cells"] += static_cast<double>(byteCells(Log.Records));
    R["detector.fast_path_hits"] += static_cast<double>(Hot.FastPathHits);
    R["detector.runs_coalesced"] += static_cast<double>(Hot.RunsCoalesced);
    R["detector.page_hits"] += static_cast<double>(Hot.PageCacheHits);
    R["detector.page_lookups"] +=
        static_cast<double>(Hot.PageCacheHits + Hot.PageCacheMisses);
    uint64_t ShadowBytes =
        State.GlobalMem.shadowBytes() + State.sharedShadowBytes();
    if (const auto &Shards = State.shards()) {
      ShadowBytes += Shards->shadowBytes();
      std::vector<detector::ShardSet::Sample> Samples = Shards->sample();
      for (size_t I = 0; I != Samples.size(); ++I) {
        R["detector.shard_posts"] += static_cast<double>(Samples[I].Posted);
        R["detector.shard_run_pieces"] +=
            static_cast<double>(Samples[I].RunPieces);
        R["detector.shard_markers"] += static_cast<double>(Samples[I].Markers);
        R["detector.shard_producer_stalls"] +=
            static_cast<double>(Samples[I].ProducerStalls);
        R["detector.shard_ticket_stalls"] +=
            static_cast<double>(Samples[I].TicketStalls);
        R[formatString("detector.applied.%zu", I)] +=
            static_cast<double>(Samples[I].Applied);
      }
    }
    R["detector.peak_ptvc_mb"] =
        std::max(R["detector.peak_ptvc_mb"],
                 static_cast<double>(State.peakPtvcBytes()) / MiB);
    R["detector.shadow_mb"] = std::max(
        R["detector.shadow_mb"], static_cast<double>(ShadowBytes) / MiB);
    R["detector.races"] +=
        static_cast<double>(State.Reporter.races().size());
  }

  // barracuda: a Session load, then a relaunch with the lowering cached.
  support::Result<std::vector<uint64_t>> Params =
      support::Status(support::ErrorCode::Internal, "not loaded");
  double LoadS =
      timed("barracuda.load", P, [&] { Params = loadProgram(S, P); });
  if (!Out.gate(Params.ok(), P.Kernel + ": session load failed"))
    return;
  resetBuffers(S, P, Params.value());
  (void)S.launchKernel(P.Kernel, P.Grid, P.Block, Params.value());
  resetBuffers(S, P, Params.value());
  size_t RacesBefore = S.races().size();
  support::Result<sim::LaunchResult> Launch =
      support::Status(support::ErrorCode::Internal, "not launched");
  double LaunchS = timed("barracuda.launch", P, [&] {
    Launch = S.launchKernel(P.Kernel, P.Grid, P.Block, Params.value());
  });
  RunReport Report = S.report();
  checkLaunch(Out, P, S, Launch, Report, RacesBefore);
  R["barracuda.load_ms"] += LoadS * 1e3;
  R["barracuda.load_residual_ms"] += (LoadS - ParseS - InstrumentS) * 1e3;
  R["barracuda.launch_ms"] += LaunchS * 1e3;
  R["barracuda.overlap_ms"] += (LoggingS + PipelinedS - LaunchS) * 1e3;
  R["trace.queue_full_spins"] +=
      static_cast<double>(Report.Engine.QueueFullSpins);
  R["trace.commit_stalls"] += static_cast<double>(Report.Engine.CommitStalls);
  R["runtime.drain_ms"] += static_cast<double>(Report.Profile.DrainNanos) / 1e6;
  R["runtime.watermark_wait_ms"] +=
      static_cast<double>(Report.Engine.WatermarkWaitNanos) / 1e6;
  R["runtime.parked_ms"] +=
      static_cast<double>(Report.Engine.ParkedNanos) / 1e6;
  R["runtime.empty_spins"] +=
      static_cast<double>(Report.Engine.DetectorEmptySpins);
  LaunchUs = LaunchS * 1e6;
}

void LayerPass::writeTrace() const {
  if (!O.TraceOut.empty())
    Out.gate(Rec.write(O.TraceOut), "cannot write " + O.TraceOut);
}

/// The reported per-layer metrics, derived from one round's totals.
Round derive(const Round &T) {
  auto at = [&](const char *Key) {
    auto It = T.find(Key);
    return It == T.end() ? 0.0 : It->second;
  };
  auto ratio = [](double Num, double Den) { return Den > 0 ? Num / Den : 0; };
  Round M;
  M["ptx.parse_ms"] = at("ptx.parse_ms");
  M["ptx.parse_mb_per_s"] =
      ratio(at("ptx.bytes") / MiB, at("ptx.parse_ms") / 1e3);
  M["instrument.ms"] = at("instrument.ms");
  M["instrument.static_frac"] =
      ratio(at("instrument.static_logged"), at("instrument.static_insns"));
  M["instrument.pruned_frac"] =
      ratio(at("sim.records_pruned"),
            at("sim.records_logged") + at("sim.records_pruned"));
  M["sim.lower_ms"] = at("sim.lower_ms");
  M["sim.native_winsn_per_s"] =
      ratio(at("sim.native_winsn"), at("sim.native_s"));
  M["sim.logging_winsn_per_s"] =
      ratio(at("sim.warp_insns"), at("sim.logging_s"));
  M["sim.warp_insns"] = at("sim.warp_insns");
  M["sim.records_logged"] = at("sim.records_logged");
  M["trace.transport_rec_per_s"] =
      ratio(at("sim.records_logged"), at("trace.transport_s"));
  M["trace.queue_full_spins"] = at("trace.queue_full_spins");
  M["trace.commit_stalls"] = at("trace.commit_stalls");
  M["detector.inline_rec_per_s"] =
      ratio(at("sim.records_logged"), at("detector.inline_s"));
  M["detector.pipelined_rec_per_s"] =
      ratio(at("sim.records_logged"), at("detector.pipelined_s"));
  M["detector.fast_path_frac"] =
      ratio(at("detector.fast_path_hits"), at("detector.byte_cells"));
  M["detector.runs_coalesced"] = at("detector.runs_coalesced");
  M["detector.page_cache_hit_frac"] =
      ratio(at("detector.page_hits"), at("detector.page_lookups"));
  for (const char *Key :
       {"detector.shard_posts", "detector.shard_run_pieces",
        "detector.shard_markers", "detector.shard_producer_stalls",
        "detector.shard_ticket_stalls", "detector.peak_ptvc_mb",
        "detector.shadow_mb", "detector.races", "runtime.drain_ms",
        "runtime.watermark_wait_ms", "runtime.parked_ms",
        "runtime.empty_spins", "barracuda.load_ms",
        "barracuda.load_residual_ms", "barracuda.launch_ms",
        "barracuda.overlap_ms"})
    M[Key] = at(Key);
  // Busiest shard over the mean shard, by messages applied.
  double Max = 0, Sum = 0;
  for (unsigned I = 0; I != NumQueues; ++I) {
    double Applied = at(formatString("detector.applied.%u", I).c_str());
    Max = std::max(Max, Applied);
    Sum += Applied;
  }
  M["detector.shard_imbalance"] = ratio(Max, Sum / NumQueues);
  // What a Session launch costs beyond simulating and detecting.
  M["runtime.fixed_cost_us"] =
      (at("barracuda.launch_ms") / 1e3 - at("sim.logging_s") -
       at("detector.inline_s")) *
      1e6;
  return M;
}

} // namespace

Outcome bench::runLayers(const Options &O, const std::string &Workload,
                         const std::vector<Program> &Programs) {
  Outcome Out;
  Out.Workload = Workload;
  LayerPass Pass(O, Out, Workload);

  std::vector<Round> Rounds;
  std::vector<std::unique_ptr<Session>> Sessions;
  for (size_t I = 0; I != Programs.size(); ++I)
    Sessions.push_back(std::make_unique<Session>(sessionOptions(true)));
  std::vector<std::vector<double>> LaunchSamples(Programs.size());
  unsigned MaxRounds = O.Smoke ? 1 : 200;
  for (Clock::time_point Start = Clock::now();
       Rounds.size() < MaxRounds &&
       (Rounds.size() < 2 || secondsSince(Start) < O.Seconds / 2);) {
    Round Totals;
    for (size_t I = 0; I != Programs.size(); ++I) {
      double LaunchUs = 0;
      Pass.measure(Programs[I], *Sessions[I], Totals, LaunchUs);
      LaunchSamples[I].push_back(LaunchUs);
    }
    Rounds.push_back(derive(Totals));
    // The simulator is deterministic: every round repeats its counts.
    Out.gate(Rounds.back()["sim.warp_insns"] == Rounds[0]["sim.warp_insns"] &&
                 Rounds.back()["sim.records_logged"] ==
                     Rounds[0]["sim.records_logged"],
             "sim.warp_insns or sim.records_logged changed between rounds");
  }

  // serve-small drives its open-loop phase; the library workloads send a
  // few closed-loop launches per program.
  ServeLayerSample Serve = measureServeLayer(
      O, Out, Programs, Workload == "serve-small", O.Smoke ? 1 : 3);
  double InProcessUs = 0;
  for (const std::vector<double> &Samples : LaunchSamples)
    InProcessUs += median(Samples);

  static const std::vector<std::pair<const char *, const char *>> Layered = {
      {"ptx.parse_ms", "ms"},
      {"ptx.parse_mb_per_s", "MB/s"},
      {"instrument.ms", "ms"},
      {"instrument.static_frac", "ratio"},
      {"instrument.pruned_frac", "ratio"},
      {"sim.lower_ms", "ms"},
      {"sim.native_winsn_per_s", "1/s"},
      {"sim.logging_winsn_per_s", "1/s"},
      {"sim.warp_insns", "count"},
      {"sim.records_logged", "count"},
      {"trace.transport_rec_per_s", "1/s"},
      {"trace.queue_full_spins", "count"},
      {"trace.commit_stalls", "count"},
      {"detector.inline_rec_per_s", "1/s"},
      {"detector.pipelined_rec_per_s", "1/s"},
      {"detector.fast_path_frac", "ratio"},
      {"detector.runs_coalesced", "count"},
      {"detector.page_cache_hit_frac", "ratio"},
      {"detector.shard_posts", "count"},
      {"detector.shard_run_pieces", "count"},
      {"detector.shard_markers", "count"},
      {"detector.shard_producer_stalls", "count"},
      {"detector.shard_ticket_stalls", "count"},
      {"detector.shard_imbalance", "ratio"},
      {"detector.peak_ptvc_mb", "MB"},
      {"detector.shadow_mb", "MB"},
      {"detector.races", "count"},
      {"runtime.drain_ms", "ms"},
      {"runtime.watermark_wait_ms", "ms"},
      {"runtime.parked_ms", "ms"},
      {"runtime.empty_spins", "count"},
      {"runtime.fixed_cost_us", "us"},
      {"barracuda.load_ms", "ms"},
      {"barracuda.load_residual_ms", "ms"},
      {"barracuda.launch_ms", "ms"},
      {"barracuda.overlap_ms", "ms"},
  };
  for (const auto &[Name, Unit] : Layered) {
    std::vector<double> Values;
    for (Round &R : Rounds)
      Values.push_back(R[Name]);
    Out.add(Name, median(Values), Unit);
  }
  Out.add("serve.roundtrip_us", Serve.RoundTripUs, "us");
  Out.add("serve.overhead_us", Serve.RoundTripUs - InProcessUs, "us");
  for (const auto &[Name, Us] : Serve.SpanSelfUs)
    Out.add("serve.span." + Name + "_self_us", Us, "us");
  Out.add("obs.trace_overhead_pct", Serve.TraceOverheadPct, "%");
  Out.note(formatString("per-layer: medians over %zu rounds of totals over "
                        "%zu programs",
                        Rounds.size(), Programs.size()));
  Pass.writeTrace();
  return Out;
}
