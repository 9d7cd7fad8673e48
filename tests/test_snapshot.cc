/**
 * @file
 * Snapshot subsystem tests: container codec round-trip, exhaustive
 * hostile-input rejection (every single-bit flip and every
 * truncation length must raise SnapshotError, never crash or decode
 * garbage), config/workload fingerprint sensitivity, witness
 * determinism, and the headline restore guarantee — a system rebuilt
 * cold and replayed to the snapshot tick byte-matches the witness at
 * every section and then finishes with results identical to an
 * uninterrupted run, including mid-transaction ticks with MSHRs busy
 * and fault injection armed.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "network/mesh.hh"
#include "snapshot/snapshot.hh"
#include "snapshot/system_state.hh"
#include "system/report.hh"
#include "system/system.hh"
#include "workload/benchmarks.hh"
#include "workload/litmus.hh"

using namespace wb;

namespace
{

SnapshotFile
sampleSnapshot()
{
    SnapshotFile snap;
    snap.tick = 12345;
    snap.configFingerprint = 0xdeadbeefcafe1234ULL;
    snap.workloadFingerprint = 0x0123456789abcdefULL;
    snap.add("alpha", {1, 2, 3, 4, 5});
    snap.add("beta", {});
    snap.add("gamma", std::vector<unsigned char>(300, 0xa5));
    return snap;
}

SystemConfig
litmusConfig()
{
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.setMode(CommitMode::OooWB);
    return cfg;
}

/** The JSON report and the full stats dump of a finished run. */
std::string
reportOf(const SystemConfig &cfg, const Workload &wl, System &sys,
         const SimResults &r)
{
    std::ostringstream os;
    writeJsonReport(os, wl.name, cfg, r, &sys.stats());
    sys.stats().dump(os);
    return os.str();
}

/** Cold-run @p wl under @p cfg to completion and report it. */
std::string
coldReport(const SystemConfig &cfg, const Workload &wl)
{
    System sys(cfg, wl);
    const SimResults r = sys.run();
    return reportOf(cfg, wl, sys, r);
}

/** Odd ticks at one and two thirds of the run, so restore tests
 *  always land mid-run (and mid-transaction for busy workloads)
 *  regardless of how long the workload happens to take, and off the
 *  6-cycle commit grid, with sends still in the rings. */
std::vector<Tick>
midTicks(const SystemConfig &cfg, const Workload &wl)
{
    System probe(cfg, wl);
    const SimResults r = probe.run();
    EXPECT_TRUE(r.completed);
    return {Tick(r.cycles / 3) | 1, Tick(2 * r.cycles / 3) | 1};
}

/**
 * The full checkpoint/restore cycle at @p tick: witness one run
 * there, rebuild cold, replay, byte-verify, continue, and return
 * the restored run's report (plus the live run's report for
 * comparison).
 */
void
checkRestoreAt(const SystemConfig &cfg, const Workload &wl,
               Tick tick)
{
    const std::uint64_t wl_fp = workloadFingerprint(wl);

    System live(cfg, wl);
    const bool live_paused = live.runToCycle(tick);
    ASSERT_TRUE(live_paused) << "tick " << tick
                             << " must be mid-run for this test";
    ASSERT_EQ(live.cycle(), tick);
    const SnapshotFile snap = buildSnapshot(live, wl_fp);
    EXPECT_EQ(snap.tick, tick);
    const SimResults live_results = [&] {
        live.runToCycle(cfg.maxCycles);
        return live.finishRun();
    }();
    ASSERT_TRUE(live_results.completed);

    // Round-trip through the container bytes, as wbsim --restore
    // does through a file.
    const auto bytes = snap.encode();
    const SnapshotFile loaded =
        SnapshotFile::decode(bytes.data(), bytes.size());

    System restored(cfg, wl);
    ASSERT_TRUE(restored.runToCycle(loaded.tick));
    ASSERT_EQ(restored.cycle(), loaded.tick);
    const std::vector<std::string> diverged =
        verifySnapshot(restored, wl_fp, loaded);
    EXPECT_TRUE(diverged.empty())
        << "first diverged section at tick " << tick << ": "
        << (diverged.empty() ? "" : diverged.front());

    restored.runToCycle(cfg.maxCycles);
    const SimResults rr = restored.finishRun();

    // The paused and the restored run must both report exactly
    // what the uninterrupted run does.
    const std::string cold = coldReport(cfg, wl);
    EXPECT_EQ(reportOf(cfg, wl, live, live_results), cold)
        << "pausing at tick " << tick << " changed the run";
    EXPECT_EQ(reportOf(cfg, wl, restored, rr), cold);
}

} // namespace

// ---------------------------------------------------------------
// Container codec
// ---------------------------------------------------------------

TEST(SnapshotContainer, EncodeDecodeRoundTrip)
{
    const SnapshotFile snap = sampleSnapshot();
    const auto bytes = snap.encode();
    const SnapshotFile back =
        SnapshotFile::decode(bytes.data(), bytes.size());

    EXPECT_EQ(back.tick, snap.tick);
    EXPECT_EQ(back.configFingerprint, snap.configFingerprint);
    EXPECT_EQ(back.workloadFingerprint, snap.workloadFingerprint);
    ASSERT_EQ(back.sections.size(), snap.sections.size());
    for (std::size_t i = 0; i < snap.sections.size(); ++i) {
        EXPECT_EQ(back.sections[i].name, snap.sections[i].name);
        EXPECT_EQ(back.sections[i].payload,
                  snap.sections[i].payload);
    }
    ASSERT_NE(back.find("beta"), nullptr);
    EXPECT_EQ(back.find("nope"), nullptr);
}

TEST(SnapshotContainer, SaveLoadRoundTrip)
{
    const std::string path =
        testing::TempDir() + "/roundtrip.wbsnap";
    const SnapshotFile snap = sampleSnapshot();
    snap.save(path);
    const SnapshotFile back = SnapshotFile::load(path);
    EXPECT_EQ(back.encode(), snap.encode());
    std::remove(path.c_str());
}

TEST(SnapshotContainer, LoadMissingFileThrows)
{
    EXPECT_THROW(SnapshotFile::load(testing::TempDir() +
                                    "/does-not-exist.wbsnap"),
                 SnapshotError);
}

// Hostile input: every single-bit flip anywhere in the container
// must be rejected. The trailing whole-file checksum makes this a
// hard guarantee, not a probabilistic one.
TEST(SnapshotContainer, EverySingleBitFlipIsRejected)
{
    const auto bytes = sampleSnapshot().encode();
    for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            auto mutated = bytes;
            mutated[byte] ^= static_cast<unsigned char>(1u << bit);
            EXPECT_THROW(SnapshotFile::decode(mutated.data(),
                                              mutated.size()),
                         SnapshotError)
                << "undetected flip at byte " << byte << " bit "
                << bit;
        }
    }
}

// Hostile input: every proper prefix must be rejected as truncated.
TEST(SnapshotContainer, EveryTruncationLengthIsRejected)
{
    const auto bytes = sampleSnapshot().encode();
    for (std::size_t len = 0; len < bytes.size(); ++len)
        EXPECT_THROW(SnapshotFile::decode(bytes.data(), len),
                     SnapshotError)
            << "undetected truncation to " << len << " bytes";
}

// Hostile input: appended trailing garbage must also be rejected —
// the container knows its own length.
TEST(SnapshotContainer, TrailingGarbageIsRejected)
{
    auto bytes = sampleSnapshot().encode();
    bytes.push_back(0);
    EXPECT_THROW(SnapshotFile::decode(bytes.data(), bytes.size()),
                 SnapshotError);
}

// A snapshot from an older encoding — well-formed, checksums intact —
// is refused as unsupported before any section is interpreted, so a
// stale checkpoint cannot reach the witness comparison.
TEST(SnapshotContainer, OlderVersionIsRejectedAsUnsupported)
{
    auto bytes = sampleSnapshot().encode();
    auto put_le = [&](std::size_t off, std::uint64_t v, int n) {
        for (int i = 0; i < n; ++i)
            bytes[off + std::size_t(i)] =
                static_cast<unsigned char>(v >> (8 * i));
    };
    // Header: magic(8) version(4) sections(4) tick, config and
    // workload fingerprints (3 x 8), then its checksum.
    constexpr std::size_t header_len = 8 + 4 + 4 + 8 + 8 + 8;
    put_le(8, SnapshotFile::version - 1, 4);
    put_le(header_len, fnv1a64(bytes.data(), header_len), 8);
    put_le(bytes.size() - 8, fnv1a64(bytes.data(), bytes.size() - 8),
           8);
    try {
        SnapshotFile::decode(bytes.data(), bytes.size());
        FAIL() << "older snapshot version was accepted";
    } catch (const SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "unsupported snapshot version " +
                      std::to_string(SnapshotFile::version - 1)),
                  std::string::npos)
            << e.what();
    }
}

// ---------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------

TEST(SnapshotFingerprint, ConfigFieldsChangeTheFingerprint)
{
    const SystemConfig base = litmusConfig();
    const std::uint64_t fp = configFingerprint(base);
    EXPECT_EQ(fp, configFingerprint(base)) << "must be stable";

    SystemConfig c1 = base;
    c1.core.robSize += 1;
    EXPECT_NE(configFingerprint(c1), fp);

    SystemConfig c2 = base;
    c2.mem.numMshrs += 1;
    EXPECT_NE(configFingerprint(c2), fp);

    SystemConfig c3 = base;
    c3.faults.dropProb = 0.25;
    EXPECT_NE(configFingerprint(c3), fp);

    SystemConfig c4 = base;
    c4.setMode(CommitMode::InOrder);
    EXPECT_NE(configFingerprint(c4), fp);
}

TEST(SnapshotFingerprint, WorkloadChangesTheFingerprint)
{
    const Workload a = makeLitmus(LitmusKind::Table1, 100);
    const Workload b = makeLitmus(LitmusKind::Table1, 101);
    const Workload c = makeBenchmark("fft", 4, 0.05);
    EXPECT_EQ(workloadFingerprint(a),
              workloadFingerprint(makeLitmus(LitmusKind::Table1,
                                             100)));
    EXPECT_NE(workloadFingerprint(a), workloadFingerprint(b));
    EXPECT_NE(workloadFingerprint(a), workloadFingerprint(c));
}

// ---------------------------------------------------------------
// Witness determinism and restore
// ---------------------------------------------------------------

// Two cold builds replayed to the same tick must serialise to the
// same bytes — the witness doubles as a nondeterminism oracle.
TEST(SnapshotWitness, TwoColdRunsProduceIdenticalWitnesses)
{
    const SystemConfig cfg = litmusConfig();
    const Workload wl = makeLitmus(LitmusKind::Table1, 400);
    const std::uint64_t wl_fp = workloadFingerprint(wl);

    System a(cfg, wl);
    System b(cfg, wl);
    ASSERT_TRUE(a.runToCycle(5000));
    ASSERT_TRUE(b.runToCycle(5000));
    EXPECT_EQ(buildSnapshot(a, wl_fp).encode(),
              buildSnapshot(b, wl_fp).encode());
}

TEST(SnapshotWitness, VerifyReportsDivergence)
{
    const SystemConfig cfg = litmusConfig();
    const Workload wl = makeLitmus(LitmusKind::Table1, 400);
    const std::uint64_t wl_fp = workloadFingerprint(wl);

    System sys(cfg, wl);
    ASSERT_TRUE(sys.runToCycle(3000));
    SnapshotFile snap = buildSnapshot(sys, wl_fp);

    EXPECT_TRUE(verifySnapshot(sys, wl_fp, snap).empty());

    SnapshotFile wrong_tick = snap;
    wrong_tick.tick += 1;
    auto d = verifySnapshot(sys, wl_fp, wrong_tick);
    ASSERT_FALSE(d.empty());
    EXPECT_EQ(d.front(), "tick");

    SnapshotFile wrong_payload = snap;
    ASSERT_FALSE(wrong_payload.sections.empty());
    wrong_payload.sections[0].payload.push_back(7);
    d = verifySnapshot(sys, wl_fp, wrong_payload);
    ASSERT_FALSE(d.empty());
    EXPECT_EQ(d.front(), wrong_payload.sections[0].name);
}

TEST(SnapshotRestore, LitmusAtSeveralTicks)
{
    const SystemConfig cfg = litmusConfig();
    const Workload wl = makeLitmus(LitmusKind::Table1, 400);
    for (Tick tick : {Tick(1000), Tick(3777), Tick(9000)})
        checkRestoreAt(cfg, wl, tick);
}

// A memory-heavy benchmark on a mesh keeps MSHRs, the LLC eviction
// buffer and the network busy; an odd mid-run tick lands inside
// in-flight coherence transactions.
TEST(SnapshotRestore, MidTransactionOnMesh)
{
    const SystemConfig cfg = litmusConfig();
    const Workload wl = makeBenchmark("ocean_ncp", 4, 0.05);
    for (Tick tick : midTicks(cfg, wl))
        checkRestoreAt(cfg, wl, tick);
}

// Fault injection armed (delay + dup) with the recovery layer on:
// the witness must also pin the injector's RNG streams and the
// dedup windows.
TEST(SnapshotRestore, MidRunWithFaultsArmed)
{
    SystemConfig cfg = litmusConfig();
    cfg.faults.seed = 99;
    cfg.faults.delayProb = 0.05;
    cfg.faults.dupProb = 0.02;
    cfg.recovery.enabled = true;
    const Workload wl = makeBenchmark("fft", 4, 0.05);
    for (Tick tick : midTicks(cfg, wl))
        checkRestoreAt(cfg, wl, tick);
}

// runToCycle is a pause, not a teardown: chaining pauses must not
// perturb the final results relative to one uninterrupted run.
TEST(SnapshotRestore, ChainedPausesMatchColdRun)
{
    const SystemConfig cfg = litmusConfig();
    const Workload wl = makeLitmus(LitmusKind::Table1, 200);

    System chained(cfg, wl);
    for (Tick t = 1000; chained.runToCycle(t); t += 1000) {
    }
    const SimResults r = chained.finishRun();
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(reportOf(cfg, wl, chained, r), coldReport(cfg, wl));
}

// A pause only parks the shards; messages commit on the epoch/poll
// grid alone. Node-local sends draw from the fault injector when they
// happen and cross-node sends when they commit, so were a pause a
// commit point, a run paused every cycle would diverge from the
// uninterrupted run.
TEST(SnapshotRestore, PausingEveryCycleLeavesAFaultRunUnchanged)
{
    SystemConfig cfg = litmusConfig();
    cfg.faults.seed = 7;
    cfg.faults.delayProb = 0.05;
    cfg.faults.delayMax = 50;
    const Workload wl = makeBenchmark("canneal", 4, 0.05);

    System stepped(cfg, wl);
    while (stepped.runToCycle(stepped.cycle() + 1)) {
    }
    const SimResults r = stepped.finishRun();
    ASSERT_TRUE(r.completed);
    EXPECT_GT(r.faultsDelayed, 0u);
    EXPECT_EQ(reportOf(cfg, wl, stepped, r), coldReport(cfg, wl));
}

namespace
{

/** A lone mesh network for witness tests. */
struct NetRig
{
    EventQueue eq;
    StatRegistry stats;
    MeshNetwork net{"net", &eq, &stats, MeshConfig{}};

    std::vector<unsigned char>
    witness() const
    {
        ByteWriter w;
        net.serializeState(w);
        return w.take();
    }

    void
    send(int src, int dst, unsigned flits, Tick when)
    {
        auto m = std::make_shared<NetMsg>();
        m->src = src;
        m->dst = dst;
        m->flits = flits;
        net.send(std::move(m), when);
    }
};

} // namespace

TEST(SnapshotWitness, NetworkCoversUncommittedState)
{
    // Same sequence stamps, empty ledgers: only the send still in
    // the ring differs.
    NetRig control, data;
    control.send(0, 1, 1, 5);
    data.send(0, 1, 5, 5);
    EXPECT_NE(control.witness(), data.witness());

    // A delivered node-local message counts into its node's delta
    // until a commit folds it into net.messages.
    NetRig folded, unfolded;
    for (NetRig *r : {&folded, &unfolded}) {
        r->net.registerNode(3, [](MsgPtr) {});
        r->send(3, 3, 1, 0);
        r->net.scheduleDeliveries(3, 1, r->eq);
        r->eq.runUntil(1);
    }
    folded.net.commitSends();
    EXPECT_NE(folded.witness(), unfolded.witness());
}
