/**
 * @file
 * Trace subsystem tests: container codec round-trip, exhaustive
 * hostile-input rejection (every single-bit flip and every
 * truncation length must raise TraceError, never crash or decode
 * garbage), semantic validation of structurally valid but impossible
 * payloads, recorder determinism, fingerprint distinctness, and the
 * headline replay guarantee — a workload lowered from a recorded
 * trace reruns to an identical end state, and re-recording the
 * replayed run reproduces the original trace byte for byte.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "isa/instr.hh"
#include "snapshot/system_state.hh"
#include "system/system.hh"
#include "trace/trace_format.hh"
#include "trace/trace_recorder.hh"
#include "trace/trace_workload.hh"
#include "workload/benchmarks.hh"
#include "workload/litmus.hh"
#include "workload/synthetic.hh"

using namespace wb;

namespace
{

/** A small but fully featured trace: two threads, memory image,
 *  every record shape (mem and non-mem, loop re-execution). */
TraceFile
sampleTrace()
{
    return recordFunctional(makeLitmus(LitmusKind::StoreBuffer, 3),
                            "litmus", 1);
}

SystemConfig
smallConfig(int cores)
{
    SystemConfig cfg;
    cfg.numCores = cores;
    cfg.setMode(CommitMode::OooWB);
    return cfg;
}

/** Detailed-model run of @p wl with a commit recorder attached:
 *  returns the recorded trace and the run's results + end state. */
struct RecordedRun
{
    TraceFile trace;
    SimResults results;
    std::vector<std::uint64_t> regs; //!< core-major architectural
};

RecordedRun
runRecorded(const SystemConfig &cfg, const Workload &wl,
            const std::string &source, std::uint64_t seed)
{
    RecordedRun out;
    System sys(cfg, wl);
    TraceRecorder rec(wl, source, seed);
    rec.attach(sys);
    out.results = sys.run();
    EXPECT_TRUE(out.results.completed) << wl.name;
    out.trace = rec.finalize();
    for (int c = 0; c < cfg.numCores; ++c)
        for (Reg r = 0; r < numRegs; ++r)
            out.regs.push_back(sys.core(c).regValue(r));
    return out;
}

} // namespace

// ---------------------------------------------------------------
// Disassembler
// ---------------------------------------------------------------

TEST(Disasm, FormatsEveryInstructionClass)
{
    EXPECT_EQ(disasm({Opcode::Nop, 0, 0, 0, 0, 0}), "nop");
    EXPECT_EQ(disasm({Opcode::Fence, 0, 0, 0, 0, 0}), "fence");
    EXPECT_EQ(disasm({Opcode::Halt, 0, 0, 0, 0, 0}), "halt");
    EXPECT_EQ(disasm({Opcode::Li, 3, 0, 0, -7, 0}), "li r3, -7");
    EXPECT_EQ(disasm({Opcode::Addi, 2, 1, 0, 64, 0}),
              "addi r2, r1, 64");
    EXPECT_EQ(disasm({Opcode::Add, 4, 2, 3, 0, 0}),
              "add r4, r2, r3");
    EXPECT_EQ(disasm({Opcode::Ld, 7, 4, 0, 8, 0}),
              "ld r7, [r4+8]");
    EXPECT_EQ(disasm({Opcode::St, 0, 3, 10, -8, 0}),
              "st [r3-8], r10");
    EXPECT_EQ(disasm({Opcode::AmoAdd, 5, 6, 7, 0, 0}),
              "amoadd r5, [r6+0], r7");
    EXPECT_EQ(disasm({Opcode::Bne, 0, 13, 0, 0, 25}),
              "bne r13, r0, ->25");
    EXPECT_EQ(disasm({Opcode::Jmp, 0, 0, 0, 0, 4}), "jmp ->4");
}

// ---------------------------------------------------------------
// Container codec
// ---------------------------------------------------------------

TEST(TraceFormat, RoundTripsThroughBytes)
{
    const TraceFile t = sampleTrace();
    ASSERT_EQ(t.threads.size(), 2u);
    ASSERT_GT(t.recordCount(), 0u);

    const auto bytes = t.encode();
    const TraceFile back =
        TraceFile::decode(bytes.data(), bytes.size());

    EXPECT_EQ(back.name, t.name);
    EXPECT_EQ(back.source, "litmus");
    EXPECT_EQ(back.seed, t.seed);
    EXPECT_EQ(back.workloadFp, t.workloadFp);
    EXPECT_EQ(diffTraces(t, back), "");
    // Re-encoding the decoded trace is byte-identical (canonical
    // encoding).
    EXPECT_EQ(back.encode(), bytes);
}

TEST(TraceFormat, EncodingIsDeterministic)
{
    const TraceFile a = sampleTrace();
    const TraceFile b = sampleTrace();
    EXPECT_EQ(a.encode(), b.encode());
    EXPECT_EQ(a.contentFingerprint(), b.contentFingerprint());
}

TEST(TraceFormat, SaveLoadRoundTripsThroughAFile)
{
    const TraceFile t = sampleTrace();
    const std::string path = "test_trace_roundtrip.wbt";
    t.save(path);
    const TraceFile back = TraceFile::load(path);
    EXPECT_EQ(diffTraces(t, back), "");
    std::remove(path.c_str());
}

TEST(TraceFormat, LoadOfMissingFileThrows)
{
    EXPECT_THROW(TraceFile::load("no/such/file.wbt"), TraceError);
}

// ---------------------------------------------------------------
// Hostile input: every corruption must be rejected
// ---------------------------------------------------------------

TEST(TraceFormat, EverySingleBitFlipIsRejected)
{
    // Small litmus so the exhaustive sweep stays fast.
    const TraceFile t = recordFunctional(
        makeLitmus(LitmusKind::StoreBuffer, 1), "litmus", 1);
    const auto bytes = t.encode();
    ASSERT_LT(bytes.size(), 8192u);

    std::vector<unsigned char> mut = bytes;
    for (std::size_t byte = 0; byte < mut.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            mut[byte] ^= static_cast<unsigned char>(1u << bit);
            EXPECT_THROW(
                TraceFile::decode(mut.data(), mut.size()),
                TraceError)
                << "byte " << byte << " bit " << bit
                << " flipped but the trace decoded";
            mut[byte] ^= static_cast<unsigned char>(1u << bit);
        }
    }
    // The unmutated buffer still decodes — the loop restored it.
    EXPECT_NO_THROW(TraceFile::decode(mut.data(), mut.size()));
}

TEST(TraceFormat, EveryTruncationLengthIsRejected)
{
    const TraceFile t = recordFunctional(
        makeLitmus(LitmusKind::StoreBuffer, 1), "litmus", 1);
    const auto bytes = t.encode();
    for (std::size_t len = 0; len < bytes.size(); ++len)
        EXPECT_THROW(TraceFile::decode(bytes.data(), len),
                     TraceError)
            << "decoded from only " << len << " of "
            << bytes.size() << " bytes";
}

TEST(TraceFormat, TrailingGarbageIsRejected)
{
    auto bytes = sampleTrace().encode();
    bytes.push_back(0x00);
    EXPECT_THROW(TraceFile::decode(bytes.data(), bytes.size()),
                 TraceError);
}

// ---------------------------------------------------------------
// Semantic validation: structurally valid, semantically impossible
// ---------------------------------------------------------------

TEST(TraceFormat, UnknownOpcodeIsRejected)
{
    TraceFile t = sampleTrace();
    t.threads[0].code[0].op = static_cast<Opcode>(99);
    const auto bytes = t.encode();
    try {
        TraceFile::decode(bytes.data(), bytes.size());
        FAIL() << "unknown opcode decoded";
    } catch (const TraceError &e) {
        EXPECT_NE(std::string(e.what()).find("unknown opcode"),
                  std::string::npos)
            << e.what();
    }
}

TEST(TraceFormat, RegisterOutOfRangeIsRejected)
{
    TraceFile t = sampleTrace();
    t.threads[0].code[0].dst = numRegs;
    const auto bytes = t.encode();
    EXPECT_THROW(TraceFile::decode(bytes.data(), bytes.size()),
                 TraceError);
}

TEST(TraceFormat, BranchTargetOutsideProgramIsRejected)
{
    TraceFile t = sampleTrace();
    t.threads[0].code[0] =
        Instr{Opcode::Jmp, 0, 0, 0, 0,
              int(t.threads[0].code.size()) + 1};
    const auto bytes = t.encode();
    EXPECT_THROW(TraceFile::decode(bytes.data(), bytes.size()),
                 TraceError);
}

TEST(TraceFormat, DynamicPcOutsideProgramIsRejected)
{
    TraceFile t = sampleTrace();
    t.threads[0].exec[0].pc =
        std::uint32_t(t.threads[0].code.size()) + 1;
    const auto bytes = t.encode();
    EXPECT_THROW(TraceFile::decode(bytes.data(), bytes.size()),
                 TraceError);
}

// ---------------------------------------------------------------
// Diff
// ---------------------------------------------------------------

TEST(TraceDiff, ReportsFirstDivergence)
{
    const TraceFile a = sampleTrace();

    TraceFile b = a;
    EXPECT_EQ(diffTraces(a, b), "");

    b.seed = 2;
    EXPECT_NE(diffTraces(a, b).find("seed"), std::string::npos);

    b = a;
    b.threads[1].code[0].imm ^= 1;
    EXPECT_NE(diffTraces(a, b).find("thread 1 code"),
              std::string::npos);

    b = a;
    b.threads[0].exec[2].pc ^= 1;
    EXPECT_NE(diffTraces(a, b).find("thread 0 record 2"),
              std::string::npos);

    b = a;
    b.threads[0].exec.pop_back();
    EXPECT_NE(diffTraces(a, b).find("dynamic length"),
              std::string::npos);
}

// ---------------------------------------------------------------
// Recorder determinism + fingerprints
// ---------------------------------------------------------------

TEST(TraceRecorder, FunctionalRecordingIsDeterministic)
{
    const Workload wl = makeLitmus(LitmusKind::Iriw, 5);
    const TraceFile a = recordFunctional(wl, "litmus", 7);
    const TraceFile b = recordFunctional(wl, "litmus", 7);
    EXPECT_EQ(a.encode(), b.encode());
}

TEST(TraceRecorder, NonHaltingWorkloadThrows)
{
    // An infinite loop: recording must fail cleanly, not hang.
    ProgramBuilder pb;
    auto top = pb.newLabel();
    pb.bind(top);
    pb.jmp(top);
    Workload wl;
    wl.name = "spin";
    wl.threads.push_back(pb.take());
    EXPECT_THROW(recordFunctional(wl, "synthetic", 1, 10'000),
                 TraceError);
}

TEST(TraceFingerprint, TraceNeverCollidesWithOriginOrOtherTraces)
{
    const Workload origin = makeLitmus(LitmusKind::StoreBuffer, 3);
    const TraceFile t1 = recordFunctional(origin, "litmus", 1);
    const Workload replay1 = traceWorkload(t1);

    // Lowered workload: same programs, same memory, same name...
    ASSERT_EQ(replay1.name, origin.name);
    ASSERT_EQ(replay1.threads, origin.threads);
    ASSERT_EQ(replay1.initMem, origin.initMem);
    // ...but a distinct fingerprint, because it carries the trace's
    // content fingerprint.
    EXPECT_NE(replay1.traceFingerprint, 0u);
    EXPECT_NE(workloadFingerprint(replay1),
              workloadFingerprint(origin));

    // A different trace of related content maps to a different
    // fingerprint again.
    const TraceFile t2 = recordFunctional(
        makeLitmus(LitmusKind::StoreBuffer, 4), "litmus", 1);
    const Workload replay2 = traceWorkload(t2);
    EXPECT_NE(replay2.traceFingerprint, replay1.traceFingerprint);
    EXPECT_NE(workloadFingerprint(replay2),
              workloadFingerprint(replay1));
}

// ---------------------------------------------------------------
// The headline guarantee: record -> replay -> re-record is lossless
// ---------------------------------------------------------------

namespace
{

/** Record @p wl on the detailed model, replay the trace through an
 *  identical machine, and require an identical end state and a
 *  byte-identical re-recording. */
void
checkRoundTrip(const Workload &wl, const std::string &source,
               std::uint64_t seed, int cores)
{
    const SystemConfig cfg = smallConfig(cores);

    const RecordedRun orig = runRecorded(cfg, wl, source, seed);

    // Replay must drive the identical deterministic simulation:
    // same verdicts, same work counts, same architectural end
    // state...
    const Workload replay = traceWorkload(orig.trace);
    const RecordedRun re =
        runRecorded(cfg, replay, orig.trace.source,
                    orig.trace.seed);
    EXPECT_EQ(traceSafeStatFingerprint(re.results),
              traceSafeStatFingerprint(orig.results))
        << wl.name;
    EXPECT_EQ(re.regs, orig.regs) << wl.name;

    // ...and re-recording the replayed run must reproduce the
    // original trace byte for byte.
    EXPECT_EQ(diffTraces(orig.trace, re.trace), "") << wl.name;
    EXPECT_EQ(re.trace.encode(), orig.trace.encode()) << wl.name;
}

} // namespace

TEST(TraceReplay, LitmusStoreBufferRoundTrips)
{
    checkRoundTrip(makeLitmus(LitmusKind::StoreBuffer, 60),
                   "litmus", 0, 2);
}

TEST(TraceReplay, LitmusTable1RoundTrips)
{
    checkRoundTrip(makeLitmus(LitmusKind::Table1, 60), "litmus", 0,
                   2);
}

TEST(TraceReplay, LitmusIriwRoundTrips)
{
    checkRoundTrip(makeLitmus(LitmusKind::Iriw, 40), "litmus", 0,
                   4);
}

TEST(TraceReplay, SyntheticFftRoundTrips)
{
    SyntheticParams p = benchmarkProfile("fft", 0.05);
    checkRoundTrip(makeSynthetic(p, 4), "builtin", p.seed, 4);
}

TEST(TraceReplay, SyntheticLuCbRoundTrips)
{
    SyntheticParams p = benchmarkProfile("lu_cb", 0.05);
    checkRoundTrip(makeSynthetic(p, 4), "builtin", p.seed, 4);
}

TEST(TraceReplay, SyntheticCannealRoundTrips)
{
    SyntheticParams p = benchmarkProfile("canneal", 0.05);
    p.seed = 99; // exercise a non-default generation seed
    checkRoundTrip(makeSynthetic(p, 4), "builtin", p.seed, 4);
}

TEST(TraceReplay, FunctionalTraceReplaysOnTheDetailedModel)
{
    // A trace recorded on the sequentially-consistent reference
    // model is a complete workload description: the detailed OoO
    // machine runs it clean.
    const TraceFile t = recordFunctional(
        makeLitmus(LitmusKind::StoreBufferFenced, 40), "litmus", 1);
    const Workload replay = traceWorkload(t);
    System sys(smallConfig(2), replay);
    const SimResults r = sys.run();
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.tsoViolations, 0u);
}

// ---------------------------------------------------------------
// Campaign integration
// ---------------------------------------------------------------

#include "campaign/campaign_spec.hh"

TEST(TraceCampaign, TraceAxisValidatesAndLoads)
{
    const std::string path = "test_trace_campaign.wbt";
    recordFunctional(makeLitmus(LitmusKind::StoreBuffer, 2),
                     "litmus", 1)
        .save(path);

    CampaignSpec spec;
    spec.workloads = {"trace=" + path};
    spec.cores = 2;
    EXPECT_EQ(spec.validate(), "");

    const auto jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 1u);
    const Workload wl = spec.workloadFor(jobs[0]);
    EXPECT_EQ(wl.name, "store-buffer");
    EXPECT_NE(wl.traceFingerprint, 0u);

    spec.workloads = {"trace=does_not_exist.wbt"};
    EXPECT_NE(spec.validate().find("does not exist"),
              std::string::npos);

    std::remove(path.c_str());
}
