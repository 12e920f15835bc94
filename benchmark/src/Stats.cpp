//===- Stats.cpp - barracuda-bench statistics helpers ----------------------===//

#include "Bench.h"

#include "support/Format.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <malloc.h>
#include <sys/mman.h>
#include <thread>

using namespace bench;
using support::formatString;

bool Outcome::gate(bool Ok, const std::string &What) {
  if (!Ok) {
    // One line per distinct failure keeps a systematic fault readable.
    if (std::find(GateFailures.begin(), GateFailures.end(), What) ==
        GateFailures.end())
      std::fprintf(stderr, "FAIL [%s]: %s\n", Workload.c_str(),
                   What.c_str());
    GateFailures.push_back(What);
  }
  return Ok;
}

double bench::median(std::vector<double> Values) {
  if (Values.empty())
    return 0;
  size_t Mid = Values.size() / 2;
  std::nth_element(Values.begin(), Values.begin() + Mid, Values.end());
  double Upper = Values[Mid];
  if (Values.size() % 2)
    return Upper;
  double Lower = *std::max_element(Values.begin(), Values.begin() + Mid);
  return (Lower + Upper) / 2;
}

double bench::quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  double Rank = std::ceil(Q * static_cast<double>(Values.size()));
  size_t Index = Rank < 1 ? 0 : static_cast<size_t>(Rank) - 1;
  return Values[std::min(Index, Values.size() - 1)];
}

double bench::geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0;
  double LogSum = 0;
  for (double Value : Values)
    LogSum += std::log(std::max(Value, 1e-12));
  return std::exp(LogSum / static_cast<double>(Values.size()));
}

double bench::peakRssMb(pid_t Pid) {
  char Path[64];
  if (Pid)
    std::snprintf(Path, sizeof(Path), "/proc/%d/status",
                  static_cast<int>(Pid));
  else
    std::snprintf(Path, sizeof(Path), "/proc/self/status");
  std::FILE *File = std::fopen(Path, "r");
  if (!File)
    return 0;
  char Line[256];
  double Kb = 0;
  while (std::fgets(Line, sizeof(Line), File))
    if (std::strncmp(Line, "VmHWM:", 6) == 0) {
      Kb = std::strtod(Line + 6, nullptr);
      break;
    }
  std::fclose(File);
  return Kb / 1024.0;
}

void bench::resetPeakRss(pid_t Pid) {
  // Return what earlier set-ups (or workloads) freed first, so the peak
  // starts from the memory still in use.
  if (!Pid)
    ::malloc_trim(0);
  char Path[64];
  if (Pid)
    std::snprintf(Path, sizeof(Path), "/proc/%d/clear_refs",
                  static_cast<int>(Pid));
  else
    std::snprintf(Path, sizeof(Path), "/proc/self/clear_refs");
  // "5" resets the high-water mark (Linux 4.0+); older kernels keep it.
  if (std::FILE *File = std::fopen(Path, "w")) {
    std::fputs("5", File);
    std::fclose(File);
  }
}

CpuTurn::CpuTurn(unsigned Turn) {
  CPU_ZERO(&Saved);
  if (::sched_getaffinity(0, sizeof(Saved), &Saved) != 0)
    return;
  int Count = CPU_COUNT(&Saved);
  if (Count <= 1)
    return;
  int Want = static_cast<int>(Turn % static_cast<unsigned>(Count));
  for (int Cpu = 0; Cpu != CPU_SETSIZE; ++Cpu)
    if (CPU_ISSET(Cpu, &Saved) && Want-- == 0) {
      cpu_set_t One;
      CPU_ZERO(&One);
      CPU_SET(Cpu, &One);
      Pinned = ::sched_setaffinity(0, sizeof(One), &One) == 0;
      return;
    }
}

CpuTurn::~CpuTurn() {
  if (Pinned)
    ::sched_setaffinity(0, sizeof(Saved), &Saved);
}

namespace {
constexpr size_t TableWords = size_t(1) << 20; // 4 MiB
constexpr size_t MapBytes = size_t(256) << 10;
volatile uint64_t CalibrationSink;
} // namespace

HostSpeed::HostSpeed() : Table(TableWords, 1) { sample(); }

// Work of the three kinds the program under test does most: random
// read-modify-writes over a table larger than the private caches (the
// shadow memory), data-dependent integer mixing (the simulator), and
// first touches of a fresh mapping (the allocator's page faults).
double HostSpeed::sampleOnce() {
  Clock::time_point Start = Clock::now();
  uint64_t X = 0x9E3779B97F4A7C15ULL + Table[0];
  for (unsigned I = 0; I != 4096; ++I) {
    X = X * 6364136223846793005ULL + 1442695040888963407ULL;
    Table[(X >> 33) & (TableWords - 1)] += static_cast<uint32_t>(X);
  }
  for (unsigned I = 0; I != 20000; ++I) {
    X ^= X >> 29;
    X *= 0xFF51AFD7ED558CCDULL;
    if (X & 1)
      X += I;
  }
  void *Map = ::mmap(nullptr, MapBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (Map != MAP_FAILED) {
    for (size_t Off = 0; Off < MapBytes; Off += 4096)
      static_cast<volatile char *>(Map)[Off] = static_cast<char>(X);
    ::munmap(Map, MapBytes);
  }
  CalibrationSink = CalibrationSink + X;
  return secondsSince(Start) * 1e3;
}

void HostSpeed::sample() {
  unsigned Cpus = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned Cpu = 0; Cpu != Cpus; ++Cpu) {
    CpuTurn Pin(Cpu);
    std::vector<double> Ms;
    for (unsigned I = 0; I != 8; ++I)
      Ms.push_back(sampleOnce());
    ChunkMs.push_back(median(Ms));
  }
  Last = Clock::now();
}

void HostSpeed::tick() {
  if (secondsSince(Last) >= 0.25)
    sample();
}

double HostSpeed::ms() const {
  double Sum = 0;
  for (double Ms : ChunkMs)
    Sum += Ms;
  return Sum / static_cast<double>(ChunkMs.size());
}

std::string HostSpeed::note() const {
  return formatString("host: calibration kernel %.4f ms (mean of %zu chunk "
                      "medians), so times are scaled by %.4f to a %.1f ms "
                      "calibration",
                      ms(), ChunkMs.size(), scale(), NominalMs);
}

std::string bench::jsonNumber(double Value) {
  if (!std::isfinite(Value))
    return "0";
  char Buffer[64];
  std::to_chars_result Result =
      std::to_chars(Buffer, Buffer + sizeof(Buffer), Value);
  return std::string(Buffer, Result.ptr);
}
