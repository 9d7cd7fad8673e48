/**
 * @file
 * Crash-resumable campaign tests: the JobResult codec is bit-exact,
 * the run directory's spec descriptor round-trips and refuses every
 * truncation or corruption, a resume from the run's job records
 * emits aggregates byte-identical to an uninterrupted run at any
 * worker count (and replays nothing from another spec's records),
 * the cooperative stop flag drains cleanly, and the
 * content-addressed result cache hits/misses/degrades exactly as
 * specified.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign_aggregator.hh"
#include "campaign/campaign_runner.hh"
#include "campaign/campaign_spec.hh"
#include "campaign/job_codec.hh"
#include "campaign/result_cache.hh"
#include "campaign_fixtures.hh"

using namespace wb;

namespace
{

JobResult
sampleResult()
{
    JobResult r;
    r.spec.index = 17;
    r.spec.workload = "tiny";
    r.spec.mode = CommitMode::OooWB;
    r.spec.variant = "v1";
    r.spec.mixName = "delay";
    r.spec.faultSpec = "delay=0.05:60";
    r.spec.seedIndex = 3;
    r.spec.seed = 0x1122334455667788ULL;
    r.spec.faultSeed = 0x8877665544332211ULL;
    r.outcome = RunOutcome::Deadlock;
    r.verdict = "deadlock";
    r.detail = "watchdog: no commits";
    r.results.completed = false;
    r.results.deadlocked = true;
    r.results.deadlockReason = "no commit in 60000 cycles";
    r.results.cycles = 123456;
    r.results.instructions = 789;
    r.results.loads = 11;
    r.results.stores = 22;
    r.results.messages = 3333;
    r.results.retransmits = 5;
    r.results.dedupHits = 6;
    r.results.dupDelivered[1] = 44;
    r.results.oooDelivered[2] = 55;
    r.results.tsoViolations = 2;
    r.attempts = 2;
    r.infraFailure = false;
    r.crashJson = "{\"verdict\":\"deadlock\"}";
    r.crashReportPath = "/tmp/crash-job17.json";
    r.equivalenceChecked = true;
    r.equivalenceMatch = false;
    r.equivalenceDetail = "mem[0x40] 1 != 2";
    return r;
}

void
expectEqual(const JobResult &a, const JobResult &b)
{
    ByteWriter wa, wb_;
    encodeJobResult(wa, a);
    encodeJobResult(wb_, b);
    EXPECT_EQ(wa.buffer(), wb_.buffer());
}

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + "/" + name;
}

std::string
freshDir(const std::string &name)
{
    const std::string d = tempPath(name);
    std::filesystem::remove_all(d);
    std::filesystem::create_directories(d);
    return d;
}

/** The run records under DIR/jobs, sorted by file name. */
std::vector<std::string>
recordFiles(const std::string &dir)
{
    std::vector<std::string> files;
    for (const auto &e :
         std::filesystem::directory_iterator(dir + "/jobs"))
        files.push_back(e.path().string());
    std::sort(files.begin(), files.end());
    return files;
}

std::vector<unsigned char>
readFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(f),
            std::istreambuf_iterator<char>()};
}

void
writeFile(const std::string &path,
          const std::vector<unsigned char> &data)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char *>(data.data()),
            std::streamsize(data.size()));
}

struct Aggregates
{
    std::string json, csv;
};

Aggregates
aggregatesOf(const CampaignSpec &spec, const CampaignResult &r)
{
    std::ostringstream js, cs;
    writeCampaignJson(js, spec, r);
    writeCampaignCsv(cs, r);
    return {js.str(), cs.str()};
}

} // namespace

// ---------------------------------------------------------------
// JobResult codec
// ---------------------------------------------------------------

TEST(JobCodec, JobResultRoundTripsBitExactly)
{
    const JobResult r = sampleResult();
    ByteWriter w;
    encodeJobResult(w, r);
    ByteReader rd(w.buffer().data(), w.buffer().size());
    const JobResult back = decodeJobResult(rd);
    EXPECT_TRUE(rd.atEnd());
    expectEqual(r, back);

    EXPECT_EQ(back.spec.index, r.spec.index);
    EXPECT_EQ(back.spec.seed, r.spec.seed);
    EXPECT_EQ(back.outcome, r.outcome);
    EXPECT_EQ(back.verdict, r.verdict);
    EXPECT_EQ(back.results.deadlockReason,
              r.results.deadlockReason);
    EXPECT_EQ(back.results.dupDelivered[1], 44u);
    EXPECT_EQ(back.results.oooDelivered[2], 55u);
    EXPECT_EQ(back.results.tsoViolations, 2u);
    EXPECT_EQ(back.equivalenceDetail, r.equivalenceDetail);
}

TEST(JobCodec, JobListFingerprintTracksTheJobList)
{
    CampaignSpec spec = tinySpec();
    const std::uint64_t fp = jobListFingerprint(spec.expand());
    EXPECT_EQ(fp, jobListFingerprint(spec.expand()))
        << "must be stable";

    CampaignSpec more = tinySpec();
    more.seeds = 3;
    EXPECT_NE(jobListFingerprint(more.expand()), fp);
}

// ---------------------------------------------------------------
// The run directory's spec descriptor
// ---------------------------------------------------------------

TEST(SpecDescriptorFile, RoundTripsThroughTheRunDirectory)
{
    const std::string dir = freshDir("desc-rt");
    SpecDescriptor d;
    d.specKind = "manifest";
    d.specText = "name = tiny\nseeds = 2\n";
    d.seedsOverride = 4;
    d.recovery = true;
    d.checkFaults = true;
    std::string err;
    ASSERT_TRUE(writeSpecDescriptor(dir, d, err)) << err;
    EXPECT_FALSE(std::filesystem::exists(dir + "/campaign.wbc.tmp"));

    SpecDescriptor back;
    ASSERT_TRUE(loadSpecDescriptor(dir, back, err)) << err;
    EXPECT_EQ(back.specKind, d.specKind);
    EXPECT_EQ(back.specText, d.specText);
    EXPECT_EQ(back.seedsOverride, d.seedsOverride);
    EXPECT_EQ(back.recovery, d.recovery);
    EXPECT_EQ(back.verifyEquivalence, d.verifyEquivalence);
    EXPECT_EQ(back.checkFaults, d.checkFaults);
    EXPECT_EQ(back.strict, d.strict);
    std::filesystem::remove_all(dir);
}

// The descriptor is written once, before any job runs, so there is
// no torn state to tolerate: a missing, foreign, truncated or
// bit-flipped campaign.wbc must be refused, never half-trusted.
TEST(SpecDescriptorFile, RefusesMissingForeignTruncatedAndCorrupt)
{
    const std::string dir = freshDir("desc-bad");
    const std::string path = dir + "/campaign.wbc";
    SpecDescriptor d;
    std::string err;
    EXPECT_FALSE(loadSpecDescriptor(dir, d, err));

    writeFile(path, {'n', 'o', 't', ' ', 'a', ' ', 'w', 'b', 'c'});
    EXPECT_FALSE(loadSpecDescriptor(dir, d, err));

    d.specKind = "builtin";
    d.specText = "fault";
    ASSERT_TRUE(writeSpecDescriptor(dir, d, err)) << err;
    const auto full = readFile(path);
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
        writeFile(path, {full.begin(), full.begin() + long(cut)});
        EXPECT_FALSE(loadSpecDescriptor(dir, d, err))
            << "cut at " << cut;
    }
    for (std::size_t at = 0; at < full.size(); ++at) {
        auto bytes = full;
        bytes[at] ^= 0x40;
        writeFile(path, bytes);
        EXPECT_FALSE(loadSpecDescriptor(dir, d, err))
            << "flip at " << at;
    }
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------
// Resume from the run's job records
// ---------------------------------------------------------------

TEST(CampaignResume, ResumeFromRunRecordsMatchesColdRunByteForByte)
{
    const CampaignSpec spec = tinySpec();
    const std::string dir = freshDir("resume-run");

    // Cold reference run: one record per job.
    CampaignRunner::Options opts;
    opts.jobs = 2;
    opts.progress = false;
    opts.outDir = dir;
    const CampaignResult cold = CampaignRunner(spec, opts).run();
    ASSERT_EQ(cold.summary.done, spec.jobCount());
    EXPECT_EQ(cold.replayed, 0u);
    EXPECT_FALSE(cold.interrupted);
    ASSERT_EQ(recordFiles(dir).size(), spec.jobCount());
    const Aggregates ref = aggregatesOf(spec, cold);

    // Pretend the run died before three jobs were recorded: resume
    // at two worker counts. Each resume re-records the jobs it ran.
    for (int workers : {1, 8}) {
        const auto files = recordFiles(dir);
        for (std::size_t k = 0; k < 3; ++k)
            std::filesystem::remove(files[k]);
        opts.jobs = workers;
        const CampaignResult resumed =
            CampaignRunner(spec, opts).run();
        ASSERT_EQ(resumed.summary.done, spec.jobCount());
        EXPECT_EQ(resumed.replayed, spec.jobCount() - 3)
            << "-j" << workers;
        const Aggregates out = aggregatesOf(spec, resumed);
        EXPECT_EQ(out.json, ref.json) << "-j" << workers;
        EXPECT_EQ(out.csv, ref.csv) << "-j" << workers;
        EXPECT_EQ(recordFiles(dir).size(), spec.jobCount());
    }
    std::filesystem::remove_all(dir);
}

// Records are keyed by job index *and* the job's config/workload
// fingerprints, so a directory holding another spec's records
// replays none of them.
TEST(CampaignResume, RecordsOfAnotherSpecAreNeverReplayed)
{
    const std::string dir = freshDir("resume-stale");
    CampaignRunner::Options opts;
    opts.jobs = 2;
    opts.progress = false;
    opts.outDir = dir;
    CampaignRunner(tinySpec(), opts).run();

    CampaignSpec other = tinySpec();
    other.baseSeed = 43;
    const CampaignResult r = CampaignRunner(other, opts).run();
    EXPECT_EQ(r.summary.done, other.jobCount());
    EXPECT_EQ(r.replayed, 0u);
    std::filesystem::remove_all(dir);
}

TEST(CampaignResume, StopFlagDrainsAndMarksInterrupted)
{
    const CampaignSpec spec = tinySpec();
    std::atomic<bool> stop{true}; // pre-set: stop before any claim

    CampaignRunner::Options opts;
    opts.jobs = 2;
    opts.progress = false;
    opts.stopFlag = &stop;
    const CampaignResult r = CampaignRunner(spec, opts).run();
    EXPECT_TRUE(r.interrupted);
    EXPECT_EQ(r.summary.done, 0u);
}

// ---------------------------------------------------------------
// Content-addressed result cache
// ---------------------------------------------------------------

TEST(ResultCache, SchemaFingerprintIsStable)
{
    EXPECT_NE(resultSchemaFingerprint(), 0u);
    EXPECT_EQ(resultSchemaFingerprint(),
              resultSchemaFingerprint());
}

TEST(ResultCache, KeySeparatesJobsAndModes)
{
    const CampaignSpec spec = tinySpec();
    const auto jobs = spec.expand();
    const std::string k0 =
        ResultCache::keyString(spec, jobs[0], false);
    EXPECT_EQ(k0, ResultCache::keyString(spec, jobs[0], false));
    EXPECT_NE(k0, ResultCache::keyString(spec, jobs[0], true))
        << "equivalence mode changes what a result means";

    // Jobs in different cells never share a key.
    for (std::size_t i = 1; i < jobs.size(); ++i)
        EXPECT_NE(ResultCache::keyString(spec, jobs[i], false),
                  k0)
            << "job " << i;
}

TEST(ResultCache, StoreLookupRoundTripAndCorruptionDegradesToMiss)
{
    const std::string dir = tempPath("cache-rt");
    const ResultCache cache(dir);
    const CampaignSpec spec = tinySpec();
    const auto jobs = spec.expand();
    const std::string key =
        ResultCache::keyString(spec, jobs[0], false);

    JobResult out;
    EXPECT_FALSE(cache.lookup(key, out)) << "cold cache";

    const JobResult r = sampleResult();
    cache.store(key, r);
    ASSERT_TRUE(cache.lookup(key, out));
    expectEqual(out, r);

    // A key that hashes to another file misses.
    EXPECT_FALSE(cache.lookup(key + "x", out));

    // Corrupt the stored entry: lookup degrades to a miss, never
    // an error or a wrong result.
    std::string file;
    {
        namespace fs = std::filesystem;
        for (const auto &de : fs::directory_iterator(dir))
            file = de.path().string();
    }
    ASSERT_FALSE(file.empty());
    auto bytes = readFile(file);
    bytes[bytes.size() / 2] ^= 0x01;
    writeFile(file, bytes);
    EXPECT_FALSE(cache.lookup(key, out));
    std::filesystem::remove_all(dir);
}

// An entry whose key echo does not match (simulated fnv collision)
// must be treated as a miss, not served as someone else's result.
TEST(ResultCache, KeyEchoMismatchIsAMiss)
{
    const std::string dir = tempPath("cache-collide");
    const ResultCache cache(dir);
    const CampaignSpec spec = tinySpec();
    const auto jobs = spec.expand();
    const std::string key =
        ResultCache::keyString(spec, jobs[0], false);
    cache.store(key, sampleResult());

    // Rename the entry onto another key's hash slot.
    namespace fs = std::filesystem;
    std::string file;
    for (const auto &de : fs::directory_iterator(dir))
        file = de.path().string();
    ASSERT_FALSE(file.empty());
    const std::string other =
        ResultCache::keyString(spec, jobs[1], false);
    char slot[32];
    std::snprintf(slot, sizeof(slot), "%016llx.wbjob",
                  static_cast<unsigned long long>(
                      fnv1a64(other)));
    fs::rename(file, dir + "/" + slot);

    JobResult out;
    EXPECT_FALSE(cache.lookup(other, out));
    fs::remove_all(dir);
}

TEST(ResultCache, WarmCacheSkipsExecutionAndKeepsAggregates)
{
    const CampaignSpec spec = tinySpec();
    const std::string dir = tempPath("cache-warm");
    std::filesystem::remove_all(dir);

    CampaignRunner::Options opts;
    opts.jobs = 2;
    opts.progress = false;
    opts.cacheDir = dir;
    const CampaignResult cold =
        CampaignRunner(spec, opts).run();
    EXPECT_EQ(cold.cacheHits, 0u);
    EXPECT_EQ(cold.cacheMisses, spec.jobCount());

    const CampaignResult warm =
        CampaignRunner(spec, opts).run();
    EXPECT_EQ(warm.cacheHits, spec.jobCount());
    EXPECT_EQ(warm.cacheMisses, 0u);

    const Aggregates a = aggregatesOf(spec, cold);
    const Aggregates b = aggregatesOf(spec, warm);
    EXPECT_EQ(a.json, b.json);
    EXPECT_EQ(a.csv, b.csv);
    std::filesystem::remove_all(dir);
}
