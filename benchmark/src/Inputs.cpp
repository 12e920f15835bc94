//===- Inputs.cpp - barracuda-bench input generation -----------------------===//
//
// Every input the benchmark runs is generated here from the seed: the
// serve histogram kernel, the Table 1 programs, and the contended
// kernel. The program under test only ever sees the generated PTX and
// launch geometry.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Format.h"
#include "support/Rng.h"
#include "workloads/Generator.h"

#include <algorithm>

using namespace bench;
using support::formatString;

namespace {

// The serve throughput bench's histogram pair: hist_safe bumps eight
// bins with atomics (race-free), hist_racy with a plain load/add/store.
const char *HistogramModule = R"(.version 4.3
.target sm_35
.address_size 64

.visible .entry hist_racy(
    .param .u64 bins
)
{
    .reg .u64 %rd<4>;
    .reg .u32 %r<8>;
    ld.param.u64 %rd1, [bins];
    mov.u32 %r1, %tid.x;
    mov.u32 %r2, %ctaid.x;
    mov.u32 %r3, %ntid.x;
    mad.lo.u32 %r4, %r2, %r3, %r1;
    and.b32 %r5, %r4, 7;
    cvt.u64.u32 %rd2, %r5;
    shl.b64 %rd2, %rd2, 2;
    add.u64 %rd3, %rd1, %rd2;
    ld.global.u32 %r6, [%rd3];
    add.u32 %r6, %r6, 1;
    st.global.u32 [%rd3], %r6;
    ret;
}

.visible .entry hist_safe(
    .param .u64 bins
)
{
    .reg .u64 %rd<4>;
    .reg .u32 %r<8>;
    ld.param.u64 %rd1, [bins];
    mov.u32 %r1, %tid.x;
    mov.u32 %r2, %ctaid.x;
    mov.u32 %r3, %ntid.x;
    mad.lo.u32 %r4, %r2, %r3, %r1;
    and.b32 %r5, %r4, 7;
    cvt.u64.u32 %rd2, %r5;
    shl.b64 %rd2, %rd2, 2;
    add.u64 %rd3, %rd1, %rd2;
    atom.global.add.u32 %r6, [%rd3], 1;
    ret;
}
)";

/// Builds PTX text while tracking 1-based source lines, so the planted
/// stores' lines are known without re-parsing.
class PtxText {
public:
  /// Appends \p Text (one or more lines); returns its last line number.
  uint32_t line(const std::string &Text) {
    Out += Text;
    Out += '\n';
    Lines += 1 + static_cast<uint32_t>(
                     std::count(Text.begin(), Text.end(), '\n'));
    return Lines;
  }
  const std::string &str() const { return Out; }

private:
  std::string Out;
  uint32_t Lines = 0;
};

} // namespace

Program bench::histogramProgram(const char *Kernel) {
  Program P;
  P.Ptx = HistogramModule;
  P.Kernel = Kernel;
  P.Grid = sim::Dim3(2);
  P.Block = sim::Dim3(64);
  P.Buffers = {{64, 8}};
  return P;
}

std::vector<Program>
bench::table1Programs(uint64_t Seed, uint64_t MaxThreads,
                      const std::vector<std::string> &Only) {
  workloads::GeneratorOptions Gen;
  Gen.MaxMeasureThreads = MaxThreads;
  Gen.Seed = Seed;
  std::vector<Program> Programs;
  for (const workloads::BenchmarkSpec &Spec : workloads::table1Specs()) {
    if (!Only.empty() &&
        std::find(Only.begin(), Only.end(), Spec.Name) == Only.end())
      continue;
    workloads::GeneratedBenchmark Bench =
        workloads::generateBenchmark(Spec, Gen);
    Program P;
    P.Ptx = std::move(Bench.Ptx);
    P.Kernel = Bench.KernelName;
    P.Grid = Bench.MeasureGrid;
    P.Block = Bench.Block;
    P.Buffers = {{Bench.DataBytes, 8}};
    P.ExpectedRaces = Bench.ExpectedRaces;
    Programs.push_back(std::move(P));
  }
  return Programs;
}

// The contended kernel exercises the detector paths the Table 1
// programs barely touch. Every thread, each iteration:
//   * bumps one of four hot global counters with an atomic;
//   * stores and reloads its word of a coalesced warp run. Warp 0 of
//     every block places its run across a 64 KB shadow-page boundary,
//     so the run splits into two pieces for two different shards; the
//     other warps use block-private slots on the block's own page;
//   * thread 0 publishes a mailbox word with membar.gl + flag store and
//     waits for its partner block's flag (the SuiteSync message-passing
//     idiom), so sync tickets fan markers out to every shard.
// Before the loop thread 0 of every block stores to a few shared racy
// words: inter-block write-write races at known PCs, whichever queue
// drains first. The seed moves the straddle offsets, the racy words and
// the planted stores' positions; the dynamic work is the same for
// every seed.
Program bench::contendedProgram(uint64_t Seed, bool Smoke) {
  const uint32_t Blocks = Smoke ? 4 : 8;
  const uint32_t Threads = Smoke ? 128 : 256;
  const uint32_t Iters = Smoke ? 4 : 64;
  const unsigned Planted = 4;

  support::Rng Rng(Seed ^ 0xC0417E57EDULL);
  uint32_t OffsetMul = 1 + static_cast<uint32_t>(Rng.nextBelow(30));
  uint32_t OffsetAdd = static_cast<uint32_t>(Rng.nextBelow(31));
  uint32_t HotStride = Rng.chance(1, 2) ? 1 : 3;
  std::vector<uint32_t> Slots;
  while (Slots.size() != Planted) {
    uint32_t Slot = static_cast<uint32_t>(Rng.nextBelow(64));
    if (std::find(Slots.begin(), Slots.end(), Slot) == Slots.end())
      Slots.push_back(Slot);
  }

  Program P;
  P.Kernel = "contended";
  P.Grid = sim::Dim3(Blocks);
  P.Block = sim::Dim3(Threads);
  // data: the block pages 1..Blocks plus the page the last straddling
  // run spills into; sync: counters, flags, racy words, mailboxes.
  P.Buffers = {{(Blocks + 2) * 65536ULL, 65536},
               {1024 + 4ULL * Blocks * Iters, 64}};
  P.ExpectedRaces = Planted;
  P.ResetBuffers = true;

  PtxText T;
  T.line(".version 4.3\n.target sm_35\n.address_size 64\n");
  T.line(".visible .entry contended(\n    .param .u64 data,\n"
         "    .param .u64 sync\n)\n{");
  T.line("    .reg .u64 %rd<16>;\n    .reg .u32 %r<24>;\n"
         "    .reg .pred %p<8>;");
  T.line("    ld.param.u64 %rd1, [data];\n    ld.param.u64 %rd2, [sync];");
  T.line("    mov.u32 %r1, %tid.x;\n    mov.u32 %r2, %ctaid.x;");
  T.line("    shr.u32 %r3, %r1, 5;\n    and.b32 %r4, %r1, 31;");
  T.line("    setp.ne.u32 %p1, %r1, 0;\n    @%p1 bra PLANTED;");
  for (uint32_t Slot : Slots) {
    for (uint64_t Filler = Rng.nextBelow(3); Filler; --Filler)
      T.line(formatString("    add.u32 %%r21, %%r2, %u;",
                          static_cast<unsigned>(Filler)));
    P.RacyLines.push_back(T.line(
        formatString("    st.global.u32 [%%rd2+%u], %%r2;", 512 + 4 * Slot)));
  }
  T.line("PLANTED:");
  // %rd5 = this lane's word: warp 0 straddles the end of the block's
  // page (4..124 bytes before the boundary), other warps use slots
  // 4 KB into it, clear of the previous block's spill-over.
  T.line("    add.u32 %r5, %r2, 1;\n    cvt.u64.u32 %rd3, %r5;\n"
         "    shl.b64 %rd3, %rd3, 16;\n    add.u64 %rd4, %rd1, %rd3;");
  T.line("    cvt.u64.u32 %rd6, %r4;\n    shl.b64 %rd6, %rd6, 2;");
  T.line("    setp.ne.u32 %p2, %r3, 0;\n    @%p2 bra LOCAL;");
  T.line(formatString("    mul.lo.u32 %%r6, %%r2, %u;\n"
                      "    add.u32 %%r6, %%r6, %u;",
                      OffsetMul, OffsetAdd));
  T.line("    rem.u32 %r6, %r6, 31;\n    add.u32 %r6, %r6, 1;\n"
         "    shl.b32 %r6, %r6, 2;\n    cvt.u64.u32 %rd7, %r6;");
  T.line("    add.u64 %rd5, %rd4, 65536;\n    sub.u64 %rd5, %rd5, %rd7;\n"
         "    bra.uni READY;");
  T.line("LOCAL:\n    sub.u32 %r6, %r3, 1;\n    shl.b32 %r6, %r6, 7;\n"
         "    cvt.u64.u32 %rd7, %r6;\n    add.u64 %rd5, %rd4, 4096;\n"
         "    add.u64 %rd5, %rd5, %rd7;");
  T.line("READY:\n    add.u64 %rd5, %rd5, %rd6;");
  // Flags at sync+64, mailboxes at sync+1024, partner = block ^ 1.
  T.line("    xor.b32 %r7, %r2, 1;");
  T.line("    shl.b32 %r8, %r2, 2;\n    cvt.u64.u32 %rd8, %r8;\n"
         "    add.u64 %rd8, %rd8, %rd2;\n    add.u64 %rd8, %rd8, 64;");
  T.line("    shl.b32 %r9, %r7, 2;\n    cvt.u64.u32 %rd9, %r9;\n"
         "    add.u64 %rd9, %rd9, %rd2;\n    add.u64 %rd9, %rd9, 64;");
  T.line(formatString("    mul.lo.u32 %%r10, %%r2, %u;\n"
                      "    cvt.u64.u32 %%rd10, %%r10;\n"
                      "    add.u64 %%rd10, %%rd10, %%rd2;\n"
                      "    add.u64 %%rd10, %%rd10, 1024;",
                      4 * Iters));
  T.line(formatString("    mul.lo.u32 %%r11, %%r7, %u;\n"
                      "    cvt.u64.u32 %%rd11, %%r11;\n"
                      "    add.u64 %%rd11, %%rd11, %%rd2;\n"
                      "    add.u64 %%rd11, %%rd11, 1024;",
                      4 * Iters));
  T.line("    mov.u32 %r12, 0;\nLOOP:");
  T.line(formatString("    mul.lo.u32 %%r13, %%r12, %u;\n"
                      "    add.u32 %%r13, %%r13, %%r2;\n"
                      "    and.b32 %%r13, %%r13, 3;\n"
                      "    shl.b32 %%r13, %%r13, 2;",
                      HotStride));
  T.line("    cvt.u64.u32 %rd12, %r13;\n    add.u64 %rd12, %rd12, %rd2;\n"
         "    atom.global.add.u32 %r14, [%rd12], 1;");
  T.line("    add.u32 %r15, %r12, %r1;\n    st.global.u32 [%rd5], %r15;\n"
         "    ld.global.u32 %r16, [%rd5];");
  T.line("    @%p1 bra NEXT;");
  T.line("    shl.b32 %r17, %r12, 2;\n    cvt.u64.u32 %rd13, %r17;\n"
         "    add.u64 %rd14, %rd10, %rd13;\n    st.global.u32 [%rd14], %r15;");
  T.line("    membar.gl;\n    add.u32 %r18, %r12, 1;\n"
         "    st.global.u32 [%rd8], %r18;");
  T.line("WAIT:\n    ld.volatile.global.u32 %r19, [%rd9];\n"
         "    setp.lt.u32 %p3, %r19, %r18;\n    @%p3 bra WAIT;");
  T.line("    membar.gl;\n    add.u64 %rd15, %rd11, %rd13;\n"
         "    ld.global.u32 %r20, [%rd15];");
  T.line(formatString("NEXT:\n    add.u32 %%r12, %%r12, 1;\n"
                      "    setp.lt.u32 %%p4, %%r12, %u;\n"
                      "    @%%p4 bra LOOP;\n    ret;\n}",
                      Iters));
  P.Ptx = T.str();
  return P;
}
