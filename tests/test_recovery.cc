/**
 * @file
 * Tests for the message-loss recovery layer (docs/RESILIENCE.md):
 * duplicate filtering, ARQ healing of dropped messages, graceful
 * escalation once the retry budget is exhausted, bit-identical
 * replay with recovery armed, and end-state equivalence between
 * faulty-but-recovered runs and their fault-free twins.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "campaign/campaign_aggregator.hh"
#include "campaign/campaign_runner.hh"
#include "campaign/campaign_spec.hh"
#include "campaign/fault_invariants.hh"
#include "recovery/equivalence.hh"
#include "recovery/recovery.hh"
#include "system/crash_report.hh"
#include "system/system.hh"
#include "workload/synthetic.hh"

namespace wb
{

namespace
{

Workload
recoveryWorkload(std::uint64_t seed, bool single_writer = false)
{
    SyntheticParams p;
    p.name = "recovery";
    p.iterations = 12;
    p.bodyOps = 20;
    p.privateWords = 512;
    p.sharedWords = 128;
    p.memRatio = 0.45;
    p.storeRatio = 0.35;
    p.sharedRatio = 0.35;
    p.lockRatio = 0.02;
    p.numLocks = 2;
    // Equivalence comparisons need an interleaving-independent
    // final image; plain recovery tests keep the racy default.
    p.singleWriter = single_writer;
    p.seed = seed;
    return makeSynthetic(p, 4);
}

/** One cell of the fault campaign's machine, recovery armed. */
SystemConfig
recoveryConfig(CommitMode mode, const std::string &fault_spec,
               std::uint64_t fault_seed)
{
    JobSpec job;
    job.mode = mode;
    job.faultSpec = fault_spec;
    job.faultSeed = fault_seed;
    SystemConfig cfg = faultCampaignSpec().configFor(job);
    cfg.recovery.enabled = true;
    return cfg;
}

} // namespace

TEST(RecoveryConfigTest, BackoffIsBoundedExponential)
{
    EXPECT_EQ(RecoveryConfig::backoff(64, 0), 64u);
    EXPECT_EQ(RecoveryConfig::backoff(64, 1), 128u);
    EXPECT_EQ(RecoveryConfig::backoff(64, 3), 512u);
    // Cap at base << 6 keeps retry spacing bounded.
    EXPECT_EQ(RecoveryConfig::backoff(64, 6), 4096u);
    EXPECT_EQ(RecoveryConfig::backoff(64, 7), 4096u);
    EXPECT_EQ(RecoveryConfig::backoff(64, 100), 4096u);
}

TEST(DedupFilterTest, AcceptsOncePerSourceSequence)
{
    DedupFilter f;
    EXPECT_TRUE(f.accept(1, 5));
    EXPECT_FALSE(f.accept(1, 5)); // duplicate delivery
    EXPECT_TRUE(f.accept(2, 5));  // other source, same seq
    EXPECT_TRUE(f.accept(1, 6));
    EXPECT_FALSE(f.accept(2, 5));
    // seq 0 = never stamped (bypassed the network): always passes.
    EXPECT_TRUE(f.accept(1, 0));
    EXPECT_TRUE(f.accept(1, 0));
}

TEST(Recovery, DropsHealWithinBudget)
{
    // The acceptance bar of the recovery layer: drop campaigns that
    // stay within the retry budget complete cleanly (outcome Ok, no
    // leaks) with at least one retransmission doing the healing.
    std::uint64_t total_dropped = 0;
    std::uint64_t total_retx = 0;
    for (const CommitMode mode :
         {CommitMode::InOrder, CommitMode::OooWB}) {
        for (const std::uint64_t seed : {101ull, 202ull, 303ull,
                                         404ull}) {
            SCOPED_TRACE(std::string(commitModeName(mode)) + "/s" +
                         std::to_string(seed));
            System sys(recoveryConfig(mode, "drop=0.01:2", seed),
                       recoveryWorkload(seed));
            const ClassifiedRun cr = runClassified(sys);
            EXPECT_EQ(cr.outcome, RunOutcome::Ok)
                << cr.verdict << ": " << cr.detail;
            EXPECT_TRUE(cr.results.completed);
            EXPECT_EQ(cr.results.leakedMessages, 0u);
            EXPECT_EQ(cr.results.tsoViolations, 0u);
            EXPECT_TRUE(cr.results.recoveryEnabled);
            // Every drop must be retired as recovered, either by the
            // transport ARQ or by an L1 re-issue.
            EXPECT_EQ(cr.results.recoveredMessages,
                      cr.results.faultsDropped);
            total_dropped += cr.results.faultsDropped;
            total_retx += cr.results.retransmits +
                          cr.results.arqReissues;
        }
    }
    EXPECT_GE(total_dropped, 1u) << "drop mix never dropped";
    EXPECT_GE(total_retx, 1u) << "drops healed without retries?";
}

TEST(Recovery, DuplicatedDeliveriesAreFilteredIdempotently)
{
    // With recovery armed the endpoint dedup filter absorbs injected
    // duplicates before the protocol sees them.
    System sys(recoveryConfig(CommitMode::OooWB, "dup=0.05", 909),
               recoveryWorkload(909));
    const ClassifiedRun cr = runClassified(sys);
    EXPECT_EQ(cr.outcome, RunOutcome::Ok)
        << cr.verdict << ": " << cr.detail;
    EXPECT_GE(cr.results.faultsDuplicated, 1u);
    EXPECT_GE(cr.results.dedupHits, 1u)
        << "no duplicate was filtered";
    EXPECT_EQ(cr.results.tsoViolations, 0u);
}

TEST(Recovery, BudgetExhaustionEscalatesToClassifiedDeadlock)
{
    // Unsurvivable loss (every message dropped, so every re-issue
    // and retransmission is dropped too) must degrade gracefully to
    // the PR-1 classified verdict with a crash report naming the
    // stuck transaction — never a silent hang or a panic.
    SystemConfig cfg =
        recoveryConfig(CommitMode::OooWB, "drop=1.0:64", 5);
    cfg.recovery.retryTimeoutCycles = 500;
    cfg.recovery.retryBudget = 2;
    cfg.recovery.retransmitBaseCycles = 32;
    cfg.recovery.retransmitBudget = 2;
    cfg.txnDeadlockCycles = 15'000;
    Workload wl = recoveryWorkload(5);
    System sys(cfg, wl);
    const std::string dump_path =
        ::testing::TempDir() + "recovery-exhaustion-crash.json";
    const ClassifiedRun cr = runClassified(sys, dump_path);
    EXPECT_EQ(cr.outcome, RunOutcome::Deadlock)
        << cr.verdict << ": " << cr.detail;
    EXPECT_FALSE(cr.detail.empty());
    EXPECT_GE(cr.results.faultsDropped, 1u);

    std::ifstream f(dump_path);
    ASSERT_TRUE(f.good()) << "no crash report at " << dump_path;
    std::stringstream ss;
    ss << f.rdbuf();
    const std::string json = ss.str();
    EXPECT_NE(json.find("\"schema\":\"wbsim-crash-1\""),
              std::string::npos);
    EXPECT_TRUE(json.find("\"mshrs\":[{") != std::string::npos ||
                json.find("\"dropped\":true") != std::string::npos)
        << "crash dump names no stuck txn";
    std::remove(dump_path.c_str());
}

TEST(Recovery, IdenticalSeedAndSpecReplaysBitIdentically)
{
    // Recovery must not break the determinism contract: timeouts are
    // cycle counts and backoff is a pure function, so an armed run
    // replays bit-identically, retransmission timing included.
    const std::string spec = "delay=0.03:90,drop=0.02:2";
    auto once = [&](std::string &crash_json) {
        System sys(recoveryConfig(CommitMode::OooWB, spec, 777),
                   recoveryWorkload(777));
        const ClassifiedRun cr = runClassified(sys);
        std::ostringstream os;
        writeCrashReport(os, sys, cr.verdict, cr.detail);
        crash_json = os.str();
        return cr;
    };
    std::string json_a, json_b;
    const ClassifiedRun a = once(json_a);
    const ClassifiedRun b = once(json_b);
    EXPECT_EQ(a.verdict, b.verdict);
    EXPECT_EQ(a.results.cycles, b.results.cycles);
    EXPECT_EQ(a.results.instructions, b.results.instructions);
    EXPECT_EQ(a.results.messages, b.results.messages);
    EXPECT_EQ(a.results.faultsDropped, b.results.faultsDropped);
    EXPECT_EQ(a.results.retransmits, b.results.retransmits);
    EXPECT_EQ(a.results.arqReissues, b.results.arqReissues);
    EXPECT_EQ(a.results.dedupHits, b.results.dedupHits);
    EXPECT_EQ(a.results.recoveredMessages,
              b.results.recoveredMessages);
    EXPECT_EQ(json_a, json_b);
}

TEST(Equivalence, RecoveredRunMatchesFaultFreeTwin)
{
    // Observational equivalence: a drop campaign healed by the
    // recovery layer ends in the same architecturally visible state
    // as the fault-free run of the same (workload, seed).
    const SystemConfig cfg =
        recoveryConfig(CommitMode::OooWB, "drop=0.01:2", 404);
    Workload wl = recoveryWorkload(404, /*single_writer=*/true);
    System sys(cfg, wl);
    const ClassifiedRun cr = runClassified(sys);
    ASSERT_EQ(cr.outcome, RunOutcome::Ok)
        << cr.verdict << ": " << cr.detail;
    const EndState recovered = captureEndState(sys);
    EXPECT_FALSE(recovered.words.empty());
    const EndState reference = runReference(cfg, wl);
    const EquivalenceReport eq =
        compareEndStates(recovered, reference);
    EXPECT_TRUE(eq.match) << eq.divergence;
    EXPECT_TRUE(eq.divergence.empty());
}

TEST(Equivalence, DivergenceIsNamed)
{
    EndState a, b;
    a.completed = b.completed = true;
    a.words = {{0x100, 7}, {0x108, 9}};
    b.words = {{0x100, 7}, {0x108, 10}};
    const EquivalenceReport eq = compareEndStates(a, b);
    EXPECT_FALSE(eq.match);
    EXPECT_NE(eq.divergence.find("0x108"), std::string::npos)
        << eq.divergence;

    // Completion-status divergence trumps word comparison.
    EndState c = a;
    c.completed = false;
    EXPECT_FALSE(compareEndStates(c, a).match);
    // Identity matches.
    EXPECT_TRUE(compareEndStates(a, a).match);
}

TEST(RecoveryCampaign, VerifyEquivalenceIsWorkerCountInvariant)
{
    // A small recovery campaign in --verify-equivalence mode: every
    // job must pass the equivalence check, and the aggregate JSON
    // and CSV must be byte-identical between -j1 and -j8.
    CampaignSpec spec = faultCampaignSpec(2); // its machine
    spec.name = "recovery-equivalence";
    spec.workloads = {"recovery"};
    spec.modes = {CommitMode::OooWB};
    spec.mixes = {
        {"clean", ""},
        {"drop", "drop=0.01:2"},
    };
    spec.recovery.enabled = true;
    spec.workloadFactory = [](const JobSpec &job,
                              const CampaignSpec &) {
        return recoveryWorkload(job.seed, /*single_writer=*/true);
    };

    auto run_with = [&](int jobs) {
        CampaignRunner::Options opts;
        opts.jobs = jobs;
        opts.progress = false;
        opts.verifyEquivalence = true;
        CampaignRunner runner(spec, opts);
        return runner.run();
    };
    const CampaignResult r1 = run_with(1);
    const CampaignResult r8 = run_with(8);

    EXPECT_EQ(r1.summary.ok, r1.summary.done);
    for (const JobResult &r : r1.jobs) {
        if (r.equivalenceChecked) {
            EXPECT_TRUE(r.equivalenceMatch)
                << r.spec.mixName << "/s" << r.spec.seed << ": "
                << r.equivalenceDetail;
        }
    }
    EXPECT_EQ(r1.summary.equivalenceMismatches, 0u);
    EXPECT_EQ(r8.summary.equivalenceMismatches, 0u);
    // Every faulted job that completed was equivalence-checked.
    EXPECT_GE(r1.summary.equivalenceChecked, 1u);
    EXPECT_EQ(r1.summary.equivalenceChecked,
              r8.summary.equivalenceChecked);

    std::ostringstream j1, j8, c1, c8;
    writeCampaignJson(j1, spec, r1);
    writeCampaignJson(j8, spec, r8);
    writeCampaignCsv(c1, r1);
    writeCampaignCsv(c8, r8);
    EXPECT_EQ(j1.str(), j8.str());
    EXPECT_EQ(c1.str(), c8.str());
    EXPECT_NE(j1.str().find("\"equivalence\":\"match\""),
              std::string::npos);
}

} // namespace wb
