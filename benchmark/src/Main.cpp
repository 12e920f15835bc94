//===- Main.cpp - barracuda-bench command line ---------------------------===//
//
// Usage:
//   barracuda-bench [--workload NAME] [--seed N] [--seconds S] [--traced]
//                   [--smoke] [--work-dir DIR] [--out FILE]
//
// Runs one workload (or all four) and prints every metric by name and
// unit, then, as the last line of stdout, one JSON object:
//   {"correct": true, "attempted": N, "failed": N,
//    "metrics": {"name": {"value": V, "unit": "U"}, ...}}
// Untraced runs report the end-to-end metrics; --traced runs the
// per-layer pass instead and writes its spans as a Chrome trace to
// DIR/barracuda-bench-trace-<workload>.json. --smoke runs every workload
// at a tiny size. Exit code 1 when any correctness gate failed.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Cli.h"
#include "support/Json.h"

#include <cstdio>
#include <cstdlib>
#include <thread>

using namespace bench;

namespace {

const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = {
      "serve-small", "table1", "detect-dense", "detect-contended"};
  return Names;
}

std::vector<Program> programsFor(const Options &O, const std::string &W) {
  if (W == "serve-small")
    return {histogramProgram("hist_safe")};
  if (W == "table1")
    return table1Programs(O.Seed, O.Smoke ? 1024 : 16384, {});
  if (W == "detect-dense")
    return table1Programs(O.Seed, O.Smoke ? 4096 : 65536,
                          {"dwt2d", "dxtc"});
  return {contendedProgram(O.Seed, O.Smoke)};
}

Outcome runWorkload(const Options &O, const std::string &W) {
  if (O.Traced) {
    Options Traced = O;
    Traced.TraceOut = O.WorkDir + "/barracuda-bench-trace-" + W + ".json";
    return runLayers(Traced, W, programsFor(O, W));
  }
  if (W == "serve-small")
    return runServeSmall(O);
  if (W == "table1")
    return runTable1(O);
  if (W == "detect-dense")
    return runDetectDense(O);
  return runDetectContended(O);
}

void print(const Options &O, const Outcome &Out) {
  std::printf("== %s (seed %llu, %g s, %s) ==\n", Out.Workload.c_str(),
              static_cast<unsigned long long>(O.Seed), O.Seconds,
              O.Traced ? "traced: per-layer" : "end to end");
  for (const Outcome::Metric &M : Out.Metrics)
    std::printf("  %-38s %16.6g %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  std::printf("  attempted %llu, failed %llu, correct %s\n",
              static_cast<unsigned long long>(Out.Attempted),
              static_cast<unsigned long long>(Out.Failed),
              Out.correct() ? "yes" : "NO");
  for (const std::string &Note : Out.Notes)
    std::printf("  # %s\n", Note.c_str());
  std::fflush(stdout);
}

/// The metrics object; \p Prefix names each metric after its workload
/// when several workloads share one result.
void writeMetrics(std::string &Json, const std::vector<Outcome> &Outs,
                  bool Prefix) {
  Json += "{";
  bool First = true;
  for (const Outcome &Out : Outs)
    for (const Outcome::Metric &M : Out.Metrics) {
      Json += First ? "\"" : ", \"";
      First = false;
      Json += support::json::escape(Prefix ? Out.Workload + ":" + M.Name
                                           : M.Name);
      Json += "\": {\"value\": ";
      Json += jsonNumber(M.Value);
      Json += ", \"unit\": \"";
      Json += support::json::escape(M.Unit);
      Json += "\"}";
    }
  Json += "}";
}

std::string resultLine(const std::vector<Outcome> &Outs) {
  bool Correct = true;
  uint64_t Attempted = 0, Failed = 0;
  for (const Outcome &Out : Outs) {
    Correct &= Out.correct();
    Attempted += Out.Attempted;
    Failed += Out.Failed;
  }
  std::string Json = std::string("{\"correct\": ") +
                     (Correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(Attempted) +
                     ", \"failed\": " + std::to_string(Failed) +
                     ", \"metrics\": ";
  writeMetrics(Json, Outs, Outs.size() > 1);
  return Json + "}";
}

/// The full result document for compare.py: host, settings, and every
/// workload's metrics and notes.
bool writeDocument(const Options &O, const std::vector<Outcome> &Outs) {
  std::string Json = "{\"bench\": \"barracuda-bench\", \"seed\": " +
                     std::to_string(O.Seed) +
                     ", \"seconds\": " + jsonNumber(O.Seconds) +
                     ", \"traced\": " + (O.Traced ? "true" : "false") +
                     ", \"smoke\": " + (O.Smoke ? "true" : "false") +
                     ", \"host\": {\"nproc\": " +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ", \"compiler\": \"" + support::json::escape(__VERSION__) +
                     "\", \"buildType\": \"" BARRACUDA_BENCH_BUILD_TYPE
                     "\"}, \"workloads\": {";
  for (size_t I = 0; I != Outs.size(); ++I) {
    const Outcome &Out = Outs[I];
    Json += (I ? ", \"" : "\"") + Out.Workload + "\": {\"correct\": " +
            (Out.correct() ? "true" : "false") +
            ", \"attempted\": " + std::to_string(Out.Attempted) +
            ", \"failed\": " + std::to_string(Out.Failed) + ", \"metrics\": ";
    writeMetrics(Json, {Out}, false);
    Json += ", \"notes\": [";
    for (size_t N = 0; N != Out.Notes.size(); ++N)
      Json += (N ? ", \"" : "\"") + support::json::escape(Out.Notes[N]) +
              "\"";
    Json += "]}";
  }
  Json += "}}\n";
  std::FILE *File = std::fopen(O.Out.c_str(), "w");
  if (!File)
    return false;
  bool Ok = std::fwrite(Json.data(), 1, Json.size(), File) == Json.size();
  return std::fclose(File) == 0 && Ok;
}

} // namespace

int main(int ArgCount, char **Args) {
  Options O;
  support::cli::Parser Cli("barracuda-bench", "");
  Cli.stringOption("--workload", "NAME", O.Workload,
                   "serve-small, table1, detect-dense or detect-contended "
                   "(default: all four)");
  Cli.u64Option("--seed", "N", O.Seed, "input seed");
  Cli.option(
      "--seconds", "S",
      [&](const char *V) {
        char *End = nullptr;
        O.Seconds = std::strtod(V, &End);
        return End != V && !*End && O.Seconds > 0 && O.Seconds <= 600;
      },
      "measurement time per workload (default: 20)");
  Cli.flag("--traced", O.Traced, "run the per-layer pass");
  Cli.flag("--smoke", O.Smoke, "every workload at a tiny size");
  Cli.stringOption("--work-dir", "DIR", O.WorkDir,
                   "directory for daemon sockets and the Chrome trace");
  Cli.stringOption("--out", "FILE", O.Out, "write the result document");
  if (!Cli.parse(ArgCount, Args))
    return 2;

  std::vector<std::string> Selected;
  for (const std::string &Name : workloadNames())
    if (O.Workload.empty() || O.Workload == Name)
      Selected.push_back(Name);
  if (Selected.empty()) {
    std::fprintf(stderr, "error: unknown workload '%s'\n",
                 O.Workload.c_str());
    return 2;
  }
  if (O.Smoke)
    O.Seconds = 1;

  std::vector<Outcome> Outs;
  for (const std::string &Name : Selected) {
    Outs.push_back(runWorkload(O, Name));
    print(O, Outs.back());
  }
  bool Correct = true;
  for (const Outcome &Out : Outs)
    Correct &= Out.correct();
  if (!O.Out.empty() && !writeDocument(O, Outs)) {
    std::fprintf(stderr, "error: cannot write %s\n", O.Out.c_str());
    Correct = false;
  }
  std::printf("%s\n", resultLine(Outs).c_str());
  return Correct ? 0 : 1;
}
