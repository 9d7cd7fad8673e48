/**
 * @file
 * Campaign subsystem tests: spec expansion and manifest parsing,
 * seed derivation from the spec (not from scheduling), aggregator
 * reduction, crash isolation (a faulted job exiting with the
 * deadlock taxonomy does not abort the campaign), bounded retry of
 * infrastructure failures, and the headline determinism guarantee —
 * -j1 and -j8 campaigns emit byte-identical aggregate JSON and CSV.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "campaign/campaign_aggregator.hh"
#include "campaign/campaign_runner.hh"
#include "campaign/campaign_spec.hh"
#include "campaign/fault_invariants.hh"
#include "campaign_fixtures.hh"

using namespace wb;

namespace
{

CampaignResult
runSpec(const CampaignSpec &spec, int jobs)
{
    CampaignRunner::Options opts;
    opts.jobs = jobs;
    opts.progress = false;
    CampaignRunner runner(spec, opts);
    return runner.run();
}

} // namespace

TEST(CampaignSpec, ExpansionIsTheOrderedCrossProduct)
{
    CampaignSpec spec = tinySpec();
    const auto jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 2u * 2u * 2u); // modes x mixes x seeds
    ASSERT_EQ(jobs.size(), spec.jobCount());

    // Indexes are consecutive and the nesting order is
    // workload > mode > class > variant > mix > seed.
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(jobs[i].index, i);
    EXPECT_EQ(jobs[0].mode, CommitMode::InOrder);
    EXPECT_EQ(jobs[0].mixName, "clean");
    EXPECT_EQ(jobs[0].seedIndex, 0);
    EXPECT_EQ(jobs[1].seedIndex, 1);
    EXPECT_EQ(jobs[2].mixName, "delay");
    EXPECT_EQ(jobs[4].mode, CommitMode::OooWB);

    // Expansion is a pure function of the spec.
    const auto again = spec.expand();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(jobs[i].seed, again[i].seed);
        EXPECT_EQ(jobs[i].faultSeed, again[i].faultSeed);
    }
}

TEST(CampaignSpec, SeedsDeriveFromAxisValuesNotPosition)
{
    CampaignSpec spec = tinySpec();
    const auto jobs = spec.expand();

    // The same workload seed is used across modes and mixes (so
    // timing comparisons study the same program) ...
    for (const JobSpec &j : jobs)
        EXPECT_EQ(j.seed,
                  deriveSeed(spec.baseSeed, {j.workload},
                             std::uint64_t(j.seedIndex)));

    // ... while fault seeds decorrelate across cells.
    EXPECT_NE(jobs[2].faultSeed, jobs[6].faultSeed)
        << "same mix, different mode should reseed the injector";

    // Dropping one axis value must not disturb surviving seeds.
    CampaignSpec fewer = tinySpec();
    fewer.modes = {CommitMode::OooWB};
    const auto sub = fewer.expand();
    const JobSpec *match = nullptr;
    for (const JobSpec &j : jobs)
        if (j.mode == CommitMode::OooWB &&
            j.mixName == "delay" && j.seedIndex == 1)
            match = &j;
    ASSERT_NE(match, nullptr);
    bool found = false;
    for (const JobSpec &j : sub)
        if (j.mixName == "delay" && j.seedIndex == 1) {
            found = true;
            EXPECT_EQ(j.seed, match->seed);
            EXPECT_EQ(j.faultSeed, match->faultSeed);
        }
    EXPECT_TRUE(found);

    // Different base seed, different streams.
    CampaignSpec other = tinySpec();
    other.baseSeed = 43;
    EXPECT_NE(other.expand()[0].seed, jobs[0].seed);
}

TEST(CampaignSpec, ManifestParsesAndValidates)
{
    std::istringstream in(
        "# demo manifest\n"
        "name = demo\n"
        "workloads = fft, radix\n"
        "modes = in-order ooo-wb\n"
        "classes = SLM NHM\n"
        "cores = 4\n"
        "network = ideal\n"
        "jitter = 6\n"
        "seeds = 3\n"
        "base-seed = 7\n"
        "scale = 0.25\n"
        "checker = off\n"
        "max-cycles = 1000000\n"
        "retries = 2\n"
        "mix clean\n"
        "mix stormy delay=0.01:50,dup=0.005\n");
    CampaignSpec spec;
    std::string err;
    ASSERT_TRUE(parseCampaignSpec(in, spec, err)) << err;
    EXPECT_EQ(spec.name, "demo");
    EXPECT_EQ(spec.workloads,
              (std::vector<std::string>{"fft", "radix"}));
    EXPECT_EQ(spec.modes.size(), 2u);
    EXPECT_EQ(spec.classes.size(), 2u);
    EXPECT_EQ(spec.cores, 4);
    EXPECT_EQ(spec.network, NetworkKind::Ideal);
    EXPECT_EQ(spec.seeds, 3);
    EXPECT_EQ(spec.baseSeed, 7u);
    EXPECT_FALSE(spec.checker);
    EXPECT_EQ(spec.maxRetries, 2);
    ASSERT_EQ(spec.mixes.size(), 2u);
    EXPECT_EQ(spec.mixes[1].name, "stormy");
    EXPECT_EQ(spec.mixes[1].spec, "delay=0.01:50,dup=0.005");
    EXPECT_EQ(spec.jobCount(), 2u * 2u * 2u * 2u * 3u);

    std::istringstream bad1("modes = warp-speed\nworkloads = fft\n");
    CampaignSpec s1;
    EXPECT_FALSE(parseCampaignSpec(bad1, s1, err));
    EXPECT_NE(err.find("unknown mode"), std::string::npos);

    std::istringstream bad2("workloads = not-a-benchmark\n");
    CampaignSpec s2;
    EXPECT_FALSE(parseCampaignSpec(bad2, s2, err));
    EXPECT_NE(err.find("unknown workload"), std::string::npos);

    std::istringstream bad3(
        "workloads = fft\nmix broken drop=oops\n");
    CampaignSpec s3;
    EXPECT_FALSE(parseCampaignSpec(bad3, s3, err));

    // Numbers are strict (the complaint names the key), and the
    // machine must pass SystemConfig::validate().
    const struct
    {
        const char *line;
        const char *complaint;
    } strict[] = {
        {"cores = 4x", "cores: trailing garbage"},
        {"seeds = -1", "seeds: '-1' is not an unsigned number"},
        {"max-cycles = 1e6", "max-cycles: trailing garbage"},
        {"scale = 0.5.", "scale: trailing garbage"},
        {"cores = 33", "cores must be in [1, "},
        {"cores = 0", "cores must be in [1, "},
        {"recovery = on\nrecovery-poll = 0",
         "recovery cycle parameters"},
    };
    for (const auto &bad : strict) {
        std::istringstream in_bad("workloads = fft\n" +
                                  std::string(bad.line) + "\n");
        CampaignSpec sb;
        EXPECT_FALSE(parseCampaignSpec(in_bad, sb, err)) << bad.line;
        EXPECT_NE(err.find(bad.complaint), std::string::npos)
            << bad.line << ": got '" << err << "'";
    }
}

TEST(CampaignAggregator, ReductionAndLiveCounts)
{
    CampaignSpec spec = tinySpec();
    const auto jobs = spec.expand();

    CampaignAggregator agg(jobs.size());
    std::vector<JobResult> results(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        JobResult &r = results[i];
        r.spec = jobs[i];
        r.results.completed = true;
        r.results.cycles = 1000 * (i + 1);
        r.results.instructions = 10 * (i + 1);
        if (i == 3) { // one deadlock, incomplete
            r.outcome = RunOutcome::Deadlock;
            r.verdict = "deadlock";
            r.results.completed = false;
        }
        if (i == 5) // one retried job
            r.attempts = 2;
        agg.record(r);
    }

    const CampaignSummary s = agg.summary();
    EXPECT_EQ(s.done, jobs.size());
    EXPECT_EQ(s.ok, jobs.size() - 1);
    EXPECT_EQ(s.deadlocks, 1u);
    EXPECT_EQ(s.incomplete, 1u);
    EXPECT_EQ(s.retried, 1u);
    EXPECT_EQ(s.hardFailures(), 0u);

    const auto cells = reduceCells(spec, results);
    ASSERT_EQ(cells.size(), 4u); // 2 modes x 2 mixes
    EXPECT_EQ(cells[0].key, "in-order/clean");
    EXPECT_EQ(cells[0].count, 2u);
    EXPECT_EQ(cells[0].cycles.min, 1000u);
    EXPECT_EQ(cells[0].cycles.max, 2000u);
    EXPECT_EQ(cells[0].cycles.sum, 3000u);
    EXPECT_DOUBLE_EQ(cells[0].cycles.mean(), 1500.0);
    EXPECT_EQ(cells[1].key, "in-order/delay");
    EXPECT_EQ(cells[1].deadlocks, 1u);
    EXPECT_EQ(cells[1].incomplete, 1u);
}

TEST(CampaignRunner, RunsRealJobsToClassifiedResults)
{
    const CampaignResult result = runSpec(tinySpec(), 2);
    ASSERT_EQ(result.jobs.size(), 8u);
    EXPECT_EQ(result.summary.done, 8u);
    EXPECT_EQ(result.summary.hardFailures(), 0u);
    for (const JobResult &r : result.jobs) {
        EXPECT_FALSE(r.verdict.empty());
        EXPECT_EQ(r.attempts, 1);
        if (r.outcome == RunOutcome::Ok) {
            EXPECT_TRUE(r.results.completed);
            EXPECT_EQ(r.results.leakedMessages, 0u);
        }
    }
    // find() addresses cells by axis values.
    const JobResult *r = result.find(
        "tiny", CommitMode::OooWB, CoreClass::SLM, "", "delay", 1);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->spec.mixName, "delay");
    EXPECT_EQ(r->spec.seedIndex, 1);
}

TEST(CampaignRunner, CrashIsolationRecordsFaultedJobs)
{
    // A drop mix guarantees some jobs end with the deadlock
    // taxonomy (exit 3). The campaign must record them — crash
    // report captured — and keep going.
    CampaignSpec spec = tinySpec();
    spec.mixes = {{"clean", ""}, {"drop", "drop=0.05:2"}};
    spec.seeds = 3;
    spec.watchdogCycles = 40'000;
    spec.txnWarnCycles = 6'000;
    spec.txnDeadlockCycles = 20'000;
    spec.watchdogPollCycles = 256;
    spec.teardownDrainCycles = 25'000;

    const CampaignResult result = runSpec(spec, 4);
    EXPECT_EQ(result.summary.done, result.jobs.size());

    std::size_t dropped_jobs = 0;
    for (const JobResult &r : result.jobs)
        if (r.results.faultsDropped > 0) {
            ++dropped_jobs;
            EXPECT_EQ(r.outcome, RunOutcome::Deadlock)
                << "job " << r.spec.index;
            EXPECT_FALSE(r.crashJson.empty());
            EXPECT_NE(r.crashJson.find("wbsim-crash-1"),
                      std::string::npos);
        }
    ASSERT_GT(dropped_jobs, 0u)
        << "drop mix never dropped — spec too small";

    // Clean-mix jobs were untouched by their neighbours' crashes.
    for (const JobResult &r : result.jobs) {
        if (r.spec.mixName == "clean") {
            EXPECT_EQ(r.outcome, RunOutcome::Ok);
        }
    }

    EXPECT_TRUE(checkFaultInvariants(result).empty());
}

TEST(CampaignRunner, InfraFailuresRetryBoundedThenRecord)
{
    CampaignSpec spec = tinySpec();
    spec.modes = {CommitMode::InOrder};
    spec.mixes = {{"clean", ""}};
    spec.seeds = 3;
    spec.maxRetries = 2;

    // Seed index 1's workload factory always throws: an
    // infrastructure failure, not a simulation outcome.
    std::atomic<int> builds{0};
    auto base = spec.workloadFactory;
    spec.workloadFactory = [&builds, base](const JobSpec &job,
                                           const CampaignSpec &s) {
        builds.fetch_add(1);
        if (job.seedIndex == 1)
            throw std::runtime_error("flaky workload generator");
        return base(job, s);
    };

    const CampaignResult result = runSpec(spec, 2);
    ASSERT_EQ(result.jobs.size(), 3u);
    EXPECT_EQ(result.summary.infraFailures, 1u);
    EXPECT_EQ(result.summary.ok, 2u);

    const JobResult &bad = result.jobs[1];
    EXPECT_TRUE(bad.infraFailure);
    EXPECT_EQ(bad.verdict, "infra-failure");
    EXPECT_EQ(bad.attempts, spec.maxRetries + 1);
    EXPECT_NE(bad.detail.find("flaky workload generator"),
              std::string::npos);
    // 2 good jobs build once, the bad one 1 + maxRetries times.
    EXPECT_EQ(builds.load(), 2 + spec.maxRetries + 1);
    // The neighbours were unaffected.
    EXPECT_EQ(result.jobs[0].outcome, RunOutcome::Ok);
    EXPECT_EQ(result.jobs[2].outcome, RunOutcome::Ok);
}

TEST(CampaignDeterminism, WorkerCountCannotChangeTheReport)
{
    CampaignSpec spec = tinySpec();
    spec.mixes.push_back({"drop", "drop=0.05:2"});
    spec.watchdogCycles = 40'000;
    spec.txnWarnCycles = 6'000;
    spec.txnDeadlockCycles = 20'000;
    spec.watchdogPollCycles = 256;
    spec.teardownDrainCycles = 25'000;

    const CampaignResult serial = runSpec(spec, 1);
    const CampaignResult wide = runSpec(spec, 8);

    std::ostringstream j1, j8, c1, c8;
    writeCampaignJson(j1, spec, serial);
    writeCampaignJson(j8, spec, wide);
    EXPECT_EQ(j1.str(), j8.str())
        << "-j1 and -j8 aggregate JSON must be byte-identical";
    writeCampaignCsv(c1, serial);
    writeCampaignCsv(c8, wide);
    EXPECT_EQ(c1.str(), c8.str());

    // Spot-check the JSON carries the contract fields.
    EXPECT_NE(j1.str().find("\"schema\":\"wbsim-campaign-1\""),
              std::string::npos);
    EXPECT_NE(j1.str().find("\"incomplete\":"), std::string::npos);
    EXPECT_NE(j1.str().find("\"cells\":["), std::string::npos);
}

TEST(CampaignDeterminism, CrashReportsAreBitIdenticalAcrossRuns)
{
    CampaignSpec spec = tinySpec();
    spec.modes = {CommitMode::OooWB};
    spec.mixes = {{"drop", "drop=0.05:2"}};
    spec.seeds = 2;
    spec.watchdogCycles = 40'000;
    spec.txnWarnCycles = 6'000;
    spec.txnDeadlockCycles = 20'000;
    spec.watchdogPollCycles = 256;
    spec.teardownDrainCycles = 25'000;

    const CampaignResult a = runSpec(spec, 2);
    const CampaignResult b = runSpec(spec, 1);
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    for (std::size_t i = 0; i < a.jobs.size(); ++i) {
        EXPECT_EQ(a.jobs[i].verdict, b.jobs[i].verdict);
        EXPECT_EQ(a.jobs[i].crashJson, b.jobs[i].crashJson);
    }
}

namespace
{

std::string
freshTeleDir(const std::string &name)
{
    const std::string d = testing::TempDir() + "wbtele-" + name;
    std::filesystem::remove_all(d);
    std::filesystem::create_directories(d);
    return d;
}

CampaignResult
runSpecWithTelemetry(const CampaignSpec &spec, int jobs,
                     const std::string &dir, Tick period)
{
    CampaignRunner::Options opts;
    opts.jobs = jobs;
    opts.progress = false;
    opts.telemetryDir = dir;
    opts.telemetryPeriod = period;
    CampaignRunner runner(spec, opts);
    return runner.run();
}

} // namespace

TEST(CampaignSpec, MetricsPeriodManifestKeyReachesJobConfigs)
{
    std::istringstream in("name = demo\n"
                          "workloads = fft\n"
                          "metrics-period = 12345\n");
    CampaignSpec spec;
    std::string err;
    ASSERT_TRUE(parseCampaignSpec(in, spec, err)) << err;
    EXPECT_EQ(spec.obs.metricsPeriod, Tick(12345));

    const auto jobs = spec.expand();
    ASSERT_FALSE(jobs.empty());
    const SystemConfig cfg = spec.configFor(jobs[0]);
    EXPECT_EQ(cfg.obs.metricsPeriod, Tick(12345));
    EXPECT_TRUE(cfg.obs.metricsEnabled());
}

TEST(CampaignSpec, TimelineAndMetricsPeriodsAreOneSamplePeriod)
{
    auto parse = [](const char *keys, CampaignSpec &spec,
                    std::string &err) {
        std::istringstream in(std::string("name = demo\n"
                                          "workloads = fft\n") +
                              keys);
        return parseCampaignSpec(in, spec, err);
    };
    std::string err;
    CampaignSpec timeline;
    ASSERT_TRUE(parse("timeline-period = 500\n", timeline, err))
        << err;
    EXPECT_EQ(timeline.obs.metricsPeriod, Tick(500));

    CampaignSpec agree;
    EXPECT_TRUE(parse("timeline-period = 500\nmetrics-period = 500\n",
                      agree, err))
        << err;

    CampaignSpec clash;
    EXPECT_FALSE(parse("timeline-period = 500\nmetrics-period = 700\n",
                       clash, err));
    EXPECT_NE(err.find("one sample period"), std::string::npos) << err;
}

TEST(CampaignTelemetry, SidecarsAreByteIdenticalAcrossWorkerCounts)
{
    const CampaignSpec spec = tinySpec();
    const std::string d1 = freshTeleDir("j1");
    const std::string d4 = freshTeleDir("j4");
    const CampaignResult serial =
        runSpecWithTelemetry(spec, 1, d1, 5'000);
    const CampaignResult wide =
        runSpecWithTelemetry(spec, 4, d4, 5'000);
    EXPECT_EQ(serial.summary.done, spec.jobCount());
    EXPECT_EQ(wide.summary.done, spec.jobCount());

    // Telemetry must never leak into the aggregate report: a run
    // with sidecars enabled reports byte-identically to one without.
    const CampaignResult plain = runSpec(spec, 2);
    std::ostringstream jt, jp;
    writeCampaignJson(jt, spec, serial);
    writeCampaignJson(jp, spec, plain);
    EXPECT_EQ(jt.str(), jp.str())
        << "telemetry perturbed the aggregate JSON";

    // Per-job streams land in sidecars that do not depend on the
    // worker count, modulo the wall-clock header key.
    for (std::size_t i = 0; i < spec.jobCount(); ++i) {
        const std::string name =
            "/metrics-job" + std::to_string(i) + ".ndjson";
        ASSERT_TRUE(std::filesystem::exists(d1 + name)) << name;
        ASSERT_TRUE(std::filesystem::exists(d4 + name)) << name;
        const std::string a = sidecarNoWall(d1 + name);
        EXPECT_EQ(a, sidecarNoWall(d4 + name)) << name;
        EXPECT_NE(a.find("\"schema\":\"wb-metrics-1\""),
                  std::string::npos);
        EXPECT_NE(a.find("\"tick\":"), std::string::npos);
    }

    // The Prometheus exposition sidecar rides along per job.
    const std::string prom = d1 + "/metrics-job0.prom";
    ASSERT_TRUE(std::filesystem::exists(prom));
    EXPECT_NE(sidecarNoWall(prom).find("# TYPE wb_commits counter"),
              std::string::npos);
}
