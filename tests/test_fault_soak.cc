/**
 * @file
 * Fault-injection soak: a grid of (commit mode x fault mix x seed)
 * runs, asserting the harness's core guarantee — every run either
 * finishes TSO-checker-clean with no leaks, or terminates with a
 * classified diagnosis (deadlock verdict or panic), never a silent
 * hang, an uncaught exception, or a TSO violation.
 *
 * This is the fast in-tree slice of the sweep; bench/fault_campaign
 * runs the full >= 500-run campaign with the same invariants.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/fault_invariants.hh"
#include "system/crash_report.hh"
#include "system/system.hh"
#include "workload/synthetic.hh"

namespace wb
{

namespace
{

Workload
soakWorkload(std::uint64_t seed)
{
    SyntheticParams p;
    p.name = "fault-soak";
    p.iterations = 15;
    p.bodyOps = 20;
    p.privateWords = 512;
    p.sharedWords = 128;
    p.memRatio = 0.45;
    p.storeRatio = 0.35;
    p.sharedRatio = 0.35;
    p.lockRatio = 0.02;
    p.numLocks = 2;
    p.seed = seed;
    return makeSynthetic(p, 4);
}

/** One cell of the fault campaign's machine (faultCampaignSpec). */
SystemConfig
soakConfig(CommitMode mode, const std::string &fault_spec,
           std::uint64_t fault_seed)
{
    JobSpec job;
    job.mode = mode;
    job.faultSpec = fault_spec;
    job.faultSeed = fault_seed;
    return faultCampaignSpec().configFor(job);
}

struct Mix
{
    const char *name;
    const char *spec; //!< "" = fault-free control
    bool hasDrops;
    /** With duplication also armed, a heavily delayed duplicate can
     *  hit a retired MSHR and panic before the drop wedge is
     *  diagnosed, so a drop no longer guarantees the Deadlock
     *  verdict — only *a* classified abnormal outcome. */
    bool dropMustDeadlock;
};

constexpr Mix kMixes[] = {
    {"clean", "", false, true},
    {"delay", "delay=0.02:120", false, true},
    {"reorder", "reorder=0.05:8:48", false, true},
    {"dup", "dup=0.02", false, true},
    {"drop", "drop=0.01:2", true, true},
    // All four fault classes armed together: the soak's hardest
    // column, pinning down cross-class interactions (a duplicated
    // *and* delayed message, a drop inside a reorder burst, ...).
    // Drops aren't guaranteed at this probability/budget, and when
    // they do land the verdict may be a dup-induced panic instead
    // of the drop deadlock.
    {"storm-all", "delay=0.02:100,reorder=0.03:6:48,dup=0.015,"
                  "drop=0.008:2",
     false, false},
};

} // namespace

TEST(FaultSoak, EveryRunEndsClassified)
{
    const CommitMode modes[] = {CommitMode::InOrder,
                                CommitMode::OooSafe,
                                CommitMode::OooWB};
    const std::uint64_t seeds[] = {101, 202, 303, 404};

    int ok = 0, deadlock = 0, panic = 0;
    for (const CommitMode mode : modes) {
        for (const Mix &mix : kMixes) {
            for (const std::uint64_t seed : seeds) {
                SCOPED_TRACE(std::string(commitModeName(mode)) +
                             "/" + mix.name + "/s" +
                             std::to_string(seed));
                System sys(soakConfig(mode, mix.spec, seed),
                           soakWorkload(seed));
                const std::string dump_path =
                    ::testing::TempDir() + "soak-crash.json";
                const ClassifiedRun cr =
                    runClassified(sys, dump_path);

                // Never a TSO violation, never unclassified.
                ASSERT_NE(cr.outcome, RunOutcome::TsoViolation)
                    << cr.detail;
                switch (cr.outcome) {
                  case RunOutcome::Ok:
                    ++ok;
                    EXPECT_TRUE(cr.results.completed);
                    EXPECT_EQ(cr.results.leakedMessages, 0u);
                    EXPECT_EQ(cr.results.faultsDropped, 0u);
                    break;
                  case RunOutcome::Deadlock:
                    ++deadlock;
                    EXPECT_FALSE(cr.detail.empty());
                    break;
                  case RunOutcome::Panic:
                    ++panic;
                    EXPECT_FALSE(cr.detail.empty());
                    break;
                  default:
                    FAIL() << "unclassified outcome";
                }

                // Drops are unsurvivable by design: a run that lost
                // a message must end as a diagnosed deadlock naming
                // a stuck MSHR or the undelivered message, and the
                // crash dump must exist and carry the provenance.
                if (cr.results.faultsDropped > 0) {
                    if (mix.dropMustDeadlock) {
                        EXPECT_EQ(cr.outcome, RunOutcome::Deadlock)
                            << cr.verdict << ": " << cr.detail;
                    } else {
                        EXPECT_NE(cr.outcome, RunOutcome::Ok)
                            << cr.verdict << ": " << cr.detail;
                    }
                    std::ifstream f(dump_path);
                    ASSERT_TRUE(f.good());
                    std::stringstream ss;
                    ss << f.rdbuf();
                    const std::string json = ss.str();
                    EXPECT_NE(
                        json.find("\"schema\":\"wbsim-crash-1\""),
                        std::string::npos);
                    if (cr.outcome == RunOutcome::Deadlock) {
                        const bool names_mshr =
                            json.find("\"mshrs\":[{") !=
                            std::string::npos;
                        const bool names_msg =
                            json.find("\"dropped\":true") !=
                            std::string::npos;
                        EXPECT_TRUE(names_mshr || names_msg);
                    }
                }
                if (mix.hasDrops) {
                    EXPECT_GT(cr.results.faultsDropped, 0u)
                        << "drop mix never dropped";
                }
                std::remove(dump_path.c_str());
            }
        }
    }
    // The control column must be entirely clean, and the campaign
    // must have exercised both abnormal classes.
    EXPECT_GE(ok, int(std::size(seeds)) * 3) << "controls failed";
    EXPECT_GT(deadlock, 0);
    RecordProperty("ok", ok);
    RecordProperty("deadlock", deadlock);
    RecordProperty("panic", panic);
}

TEST(FaultSoak, IdenticalSeedAndSpecReplaysBitIdentically)
{
    const std::string spec = "delay=0.03:90,drop=0.02:2";
    auto once = [&](std::string &crash_json) {
        System sys(soakConfig(CommitMode::OooWB, spec, 777),
                   soakWorkload(777));
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
    EXPECT_EQ(a.detail, b.detail);
    EXPECT_EQ(a.results.cycles, b.results.cycles);
    EXPECT_EQ(a.results.instructions, b.results.instructions);
    EXPECT_EQ(a.results.messages, b.results.messages);
    EXPECT_EQ(a.results.faultsDropped, b.results.faultsDropped);
    EXPECT_EQ(a.results.faultsDelayed, b.results.faultsDelayed);
    EXPECT_EQ(json_a, json_b);
}

TEST(FaultSoak, DelayOnlyCampaignsSurviveEveryMode)
{
    // The paper's core claim made adversarial: arbitrary per-message
    // delay spikes (an unordered network, amplified) must never
    // break TSO or wedge any commit mode.
    for (const CommitMode mode :
         {CommitMode::InOrder, CommitMode::OooSafe,
          CommitMode::OooWB}) {
        for (const std::uint64_t seed : {11ull, 12ull}) {
            SCOPED_TRACE(std::string(commitModeName(mode)) + "/s" +
                         std::to_string(seed));
            System sys(
                soakConfig(mode, "delay=0.05:250", seed),
                soakWorkload(seed));
            const ClassifiedRun cr = runClassified(sys);
            EXPECT_EQ(cr.outcome, RunOutcome::Ok)
                << cr.verdict << ": " << cr.detail;
            EXPECT_EQ(cr.results.tsoViolations, 0u);
        }
    }
}

} // namespace wb
