//===- Bench.h - barracuda-bench shared declarations ------------*- C++ -*-===//
//
// Part of the BARRACUDA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Types shared by the benchmark's workloads: the generated inputs
/// (Program), what one workload run reports (Outcome), the command-line
/// options, and the statistics helpers. Every layer is measured from
/// outside, through the public functions of src/.
///
//===----------------------------------------------------------------------===//

#ifndef BARRACUDA_BENCH_BENCH_H
#define BARRACUDA_BENCH_BENCH_H

#include "barracuda/Session.h"

#include <chrono>
#include <cstdint>
#include <sched.h>
#include <string>
#include <sys/types.h>
#include <vector>

namespace bench {

using namespace barracuda;
using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// Detector workers in every configuration: one simulated device thread
/// plus three workers fills the four cores the benchmark is sized for.
constexpr unsigned NumQueues = 3;

/// Command-line options.
struct Options {
  std::string Workload; ///< empty = all four
  uint64_t Seed = 1;
  double Seconds = 20;
  bool Traced = false;
  bool Smoke = false;
  /// Directory for the daemon's sockets and the Chrome trace.
  std::string WorkDir = ".";
  std::string TraceOut;
  std::string Out;
};

/// One kernel the benchmark runs: its PTX, geometry and device buffers.
struct Program {
  std::string Ptx;
  std::string Kernel;
  sim::Dim3 Grid;
  sim::Dim3 Block;
  /// One buffer per kernel parameter, in parameter order.
  struct Buffer {
    uint64_t Bytes = 0;
    uint64_t Align = 8;
  };
  std::vector<Buffer> Buffers;
  /// Distinct races one launch must add to its session.
  uint32_t ExpectedRaces = 0;
  /// When non-empty, the PTX source lines those races must sit on.
  std::vector<uint32_t> RacyLines;
  /// Zero every buffer before each launch: the kernel's control flow
  /// reads memory it writes, so a relaunch must start from the same
  /// state to repeat exactly.
  bool ResetBuffers = false;
};

/// What one workload run reports.
struct Outcome {
  struct Metric {
    std::string Name;
    double Value = 0;
    std::string Unit;
  };
  std::string Workload;
  std::vector<Metric> Metrics;
  /// Context printed beside the metrics (sample counts, phases).
  std::vector<std::string> Notes;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> GateFailures;

  void add(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
  void note(std::string Line) { Notes.push_back(std::move(Line)); }
  /// Records a failed correctness gate; returns \p Ok.
  bool gate(bool Ok, const std::string &What);
  bool correct() const { return GateFailures.empty(); }
};

// --- inputs (Inputs.cpp) ------------------------------------------------
/// The serve workload's histogram kernel: "hist_safe" (atomic, race-free)
/// or "hist_racy" (the control), 2 blocks of 64 threads.
Program histogramProgram(const char *Kernel);
/// Table 1 programs from the synthetic generator, threads capped at
/// \p MaxThreads; \p Only selects by name (empty = all 26).
std::vector<Program> table1Programs(uint64_t Seed, uint64_t MaxThreads,
                                    const std::vector<std::string> &Only);
/// The contended multi-block kernel, laid out from \p Seed.
Program contendedProgram(uint64_t Seed, bool Smoke);

// --- device helpers (Library.cpp) ---------------------------------------
SessionOptions sessionOptions(bool Instrument);
/// Loads \p P into \p S and allocates its buffers; the kernel parameters.
support::Result<std::vector<uint64_t>> loadProgram(Session &S,
                                                   const Program &P);
void resetBuffers(Session &S, const Program &P,
                  const std::vector<uint64_t> &Params);
/// Gates one instrumented launch: it ran, its record ledger balances,
/// nothing degraded, and the races it added to the session are exactly
/// the program's planted ones. \p RacesBefore is races().size() before
/// the launch.
bool checkLaunch(Outcome &O, const Program &P, const Session &S,
                 const support::Result<sim::LaunchResult> &Launch,
                 const RunReport &Report, size_t RacesBefore);

// --- workloads ----------------------------------------------------------
Outcome runTable1(const Options &O);
Outcome runDetectDense(const Options &O);
Outcome runDetectContended(const Options &O);
Outcome runServeSmall(const Options &O);
/// The traced per-layer pass over \p Programs (Layers.cpp).
Outcome runLayers(const Options &O, const std::string &Workload,
                  const std::vector<Program> &Programs);

/// Serve-layer numbers for the traced pass (Serve.cpp).
struct ServeLayerSample {
  double RoundTripUs = 0;
  /// Round trip with every request traced over the default sampling.
  double TraceOverheadPct = 0;
  /// Mean self time per request, by normalised span name.
  std::vector<std::pair<std::string, double>> SpanSelfUs;
};
/// Drives \p Programs through two daemons (default head sampling, then
/// every request traced). serve-small uses its 250 rps open-loop phase;
/// the library workloads send \p Launches closed-loop launches per
/// program. Quantities are summed over the programs.
ServeLayerSample measureServeLayer(const Options &O, Outcome &Out,
                                   const std::vector<Program> &Programs,
                                   bool OpenLoop, unsigned Launches);

// --- statistics (Stats.cpp) ---------------------------------------------
double median(std::vector<double> Values);
/// Nearest-rank quantile, \p Q in [0, 1].
double quantile(std::vector<double> Values, double Q);
double geomean(const std::vector<double> &Values);
/// VmHWM of \p Pid (0 = this process) in MiB; 0 when unreadable.
double peakRssMb(pid_t Pid = 0);
/// Resets \p Pid's VmHWM to its current RSS (after trimming this
/// process's free heap), so the peak covers only the measured window.
void resetPeakRss(pid_t Pid = 0);
/// Pins the calling thread to one of its allowed CPUs, picked round-robin
/// by \p Turn, until destroyed. Single-threaded baselines rotate over
/// the CPUs this way: on a shared host the CPUs run at different speeds
/// (about 20% apart on the host this was sized on), and an unpinned
/// thread tends to stay on whichever one it started on.
class CpuTurn {
public:
  explicit CpuTurn(unsigned Turn);
  ~CpuTurn();
  CpuTurn(const CpuTurn &) = delete;
  CpuTurn &operator=(const CpuTurn &) = delete;

private:
  cpu_set_t Saved;
  bool Pinned = false;
};

/// The host's speed, timed with a fixed calibration kernel that belongs
/// to the benchmark, not to the program under test. On a shared host the
/// CPUs slow down and speed up with their neighbours' load, by 30% or
/// more within minutes. A workload samples the kernel before set-up,
/// every quarter second while it measures (when the program is idle
/// between launches), and at the end; its times are multiplied by
/// scale() and its rates divided by it, so they read as on a host where
/// one calibration sample takes NominalMs.
class HostSpeed {
public:
  /// About what one sample took on the 4-core host this was sized on.
  static constexpr double NominalMs = 0.2;

  /// Allocates the kernel's table and takes the first sample.
  HostSpeed();
  /// Times one short chunk of the kernel on each CPU in turn.
  void sample();
  /// Samples when a quarter second has passed since the last sample.
  void tick();
  /// Mean over the chunks of each chunk's median sample, in ms.
  double ms() const;
  double scale() const { return NominalMs / ms(); }
  /// One line for the notes: the calibration and the factor applied.
  std::string note() const;

private:
  double sampleOnce();
  std::vector<uint32_t> Table;
  std::vector<double> ChunkMs;
  Clock::time_point Last;
};

/// Shortest decimal form that reads back as \p Value.
std::string jsonNumber(double Value);

} // namespace bench

#endif // BARRACUDA_BENCH_BENCH_H
