#include "snapshot/system_state.hh"

#include <sstream>

#include "system/system.hh"

namespace wb
{

// ---------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------

std::uint64_t
configFingerprint(const SystemConfig &cfg)
{
    ByteWriter w;
    w.i64(cfg.numCores);

    const CoreConfig &c = cfg.core;
    w.i64(c.fetchWidth);
    w.i64(c.commitWidth);
    w.i64(c.iqSize);
    w.i64(c.robSize);
    w.i64(c.lqSize);
    w.i64(c.sqSize);
    w.i64(c.sbSize);
    w.i64(c.ldtSize);
    w.i64(c.cachePorts);
    w.u64(c.mispredictPenalty);
    w.u8(std::uint8_t(c.commitMode));
    w.b(c.inOrderIssue);
    w.b(c.lockdown);
    w.u64(c.maxInstructions);

    const MemSystemConfig &m = cfg.mem;
    w.u64(m.l1Size);
    w.u32(m.l1Assoc);
    w.u64(m.l1HitLatency);
    w.u64(m.l2Size);
    w.u32(m.l2Assoc);
    w.u64(m.l2HitLatency);
    w.u32(m.numMshrs);
    w.b(m.prefetchNextLine);
    w.u32(m.wbBufferSize);
    w.u64(m.llcBankSize);
    w.u32(m.llcAssoc);
    w.u32(m.numBanks);
    w.u64(m.llcHitLatency);
    w.u32(m.llcEvictionBuffer);
    w.u64(m.memLatency);
    w.b(m.silentSharedEvictions);
    w.b(m.writersBlock);

    // Hash the mesh shape the run will use: System fits it to
    // numCores whatever the config holds.
    MeshConfig mesh = cfg.mesh;
    if (cfg.network == NetworkKind::Mesh)
        mesh.fit(cfg.numCores);
    w.u8(std::uint8_t(cfg.network));
    w.i64(mesh.width);
    w.i64(mesh.height);
    w.u64(mesh.hopLatency);
    w.u64(mesh.localLatency);
    w.b(mesh.modelContention);
    w.i64(cfg.ideal.numNodes);
    w.u64(cfg.ideal.baseLatency);
    w.u64(cfg.ideal.jitter);
    w.u64(cfg.ideal.localLatency);
    w.u64(cfg.ideal.seed);

    w.b(cfg.checker);
    w.u64(cfg.maxCycles);
    w.u64(cfg.watchdogCycles);
    w.u64(cfg.maxInstructionsPerCore);

    const FaultConfig &f = cfg.faults;
    w.u64(f.seed);
    w.f64(f.delayProb);
    w.u64(f.delayMax);
    w.f64(f.dupProb);
    w.u64(f.dupOffsetMax);
    w.f64(f.reorderProb);
    w.u32(f.reorderBurst);
    w.u64(f.reorderMax);
    w.f64(f.dropProb);
    w.u32(f.dropMax);

    const RecoveryConfig &r = cfg.recovery;
    w.b(r.enabled);
    w.u64(r.retryTimeoutCycles);
    w.u32(r.retryBudget);
    w.u64(r.pollCycles);
    w.u64(r.retransmitBaseCycles);
    w.u32(r.retransmitBudget);

    w.u64(cfg.obs.flightRecorder);
    // Was the timeline period; kept as 0 so existing fingerprints
    // hold (observability never changes results).
    w.u64(0);

    w.u64(cfg.txnWarnCycles);
    w.u64(cfg.txnDeadlockCycles);
    w.u64(cfg.watchdogPollCycles);
    w.u64(cfg.teardownDrainCycles);

    return w.checksum();
}

std::uint64_t
workloadFingerprint(const Workload &workload)
{
    ByteWriter w;
    w.str(workload.name);
    w.u64(workload.threads.size());
    for (const Program &p : workload.threads) {
        w.u64(p.size());
        for (const Instr &in : p) {
            w.u8(std::uint8_t(in.op));
            w.u8(in.dst);
            w.u8(in.src1);
            w.u8(in.src2);
            w.i64(in.imm);
            w.i64(in.target);
        }
    }
    w.u64(workload.initMem.size());
    for (const auto &[addr, value] : workload.initMem) {
        w.u64(addr);
        w.u64(value);
    }
    // Trace-derived workloads fold in the trace's content
    // fingerprint (0 for generator-built workloads), so a replayed
    // trace never shares a fingerprint with its synthetic origin or
    // with any other trace (src/trace/trace_workload.hh).
    w.u64(workload.traceFingerprint);
    return w.checksum();
}

// ---------------------------------------------------------------
// Section collection
// ---------------------------------------------------------------

namespace
{

std::vector<SnapshotSection>
collectSections(System &sys)
{
    std::vector<SnapshotSection> out;

    auto section = [&out](std::string name, auto &&emit) {
        ByteWriter w;
        emit(w);
        out.push_back({std::move(name), w.take()});
    };

    section("event-queue", [&](ByteWriter &w) {
        sys.eventQueue().serializeState(w);
    });
    section("memory",
            [&](ByteWriter &w) { sys.memory().serializeState(w); });
    section("network",
            [&](ByteWriter &w) { sys.network().serializeState(w); });
    if (const FaultInjector *fi = sys.faultInjector())
        section("fault",
                [&](ByteWriter &w) { fi->serializeState(w); });

    for (int i = 0; i < sys.numCores(); ++i) {
        section("core" + std::to_string(i), [&](ByteWriter &w) {
            sys.core(i).serializeState(w);
        });
        section("l1-" + std::to_string(i), [&](ByteWriter &w) {
            sys.l1(i).serializeState(w);
        });
    }
    for (unsigned b = 0; b < sys.config().mem.numBanks; ++b) {
        section("llc-" + std::to_string(b), [&](ByteWriter &w) {
            sys.llc(int(b)).serializeState(w);
        });
    }

    section("stats", [&](ByteWriter &w) {
        std::ostringstream os;
        sys.stats().dump(os);
        w.str(os.str());
    });

    return out;
}

} // namespace

SnapshotFile
buildSnapshot(System &sys, std::uint64_t workload_fp)
{
    SnapshotFile snap;
    snap.tick = sys.cycle();
    snap.configFingerprint = configFingerprint(sys.config());
    snap.workloadFingerprint = workload_fp;
    snap.sections = collectSections(sys);
    return snap;
}

std::vector<std::string>
verifySnapshot(System &sys, std::uint64_t workload_fp,
               const SnapshotFile &snap)
{
    std::vector<std::string> bad;

    if (sys.cycle() != snap.tick)
        bad.push_back("tick");
    if (configFingerprint(sys.config()) != snap.configFingerprint)
        bad.push_back("config-fingerprint");
    if (workload_fp != snap.workloadFingerprint)
        bad.push_back("workload-fingerprint");

    std::vector<SnapshotSection> live = collectSections(sys);
    for (const SnapshotSection &s : live) {
        const SnapshotSection *ref = snap.find(s.name);
        if (!ref || ref->payload != s.payload)
            bad.push_back(s.name);
    }
    // Witness sections the live system does not produce (e.g. a
    // fault section against a fault-free rebuild).
    for (const SnapshotSection &s : snap.sections) {
        bool found = false;
        for (const SnapshotSection &l : live)
            if (l.name == s.name) {
                found = true;
                break;
            }
        if (!found)
            bad.push_back(s.name + " (extra)");
    }
    return bad;
}

} // namespace wb
