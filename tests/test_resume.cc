/**
 * @file
 * Crash-resumable campaign tests: the JobResult journal codec is
 * bit-exact, the write-ahead journal round-trips and drops (only)
 * torn tail records, a preloaded resume emits aggregates
 * byte-identical to an uninterrupted run at any worker count, the
 * cooperative stop flag drains cleanly, and the content-addressed
 * result cache hits/misses/degrades exactly as specified.
 */

#include <gtest/gtest.h>

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
#include "campaign/job_journal.hh"
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

JournalHeader
sampleHeader()
{
    JournalHeader h;
    h.specKind = "manifest";
    h.specText = "name tiny\nseeds 2\n";
    h.seedsOverride = 4;
    h.recovery = true;
    h.verifyEquivalence = false;
    h.checkFaults = true;
    h.strict = false;
    h.specFingerprint = 0xfeedfacecafebeefULL;
    h.jobCount = 8;
    return h;
}

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + "/" + name;
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

TEST(JobJournalCodec, JobResultRoundTripsBitExactly)
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

TEST(JobJournalCodec, JobListFingerprintTracksTheJobList)
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
// Write-ahead journal
// ---------------------------------------------------------------

TEST(JobJournalFile, HeaderAndRecordsRoundTrip)
{
    const std::string path = tempPath("journal-rt.wbj");
    const JournalHeader hdr = sampleHeader();

    JobJournal j;
    std::string err;
    ASSERT_TRUE(j.open(path, hdr, err)) << err;
    JobResult r = sampleResult();
    j.append(r);
    r.spec.index = 18;
    r.verdict = "ok";
    j.append(r);
    j.close();

    JobJournal::LoadResult loaded;
    ASSERT_TRUE(JobJournal::load(path, loaded, err)) << err;
    EXPECT_EQ(loaded.header.specKind, hdr.specKind);
    EXPECT_EQ(loaded.header.specText, hdr.specText);
    EXPECT_EQ(loaded.header.seedsOverride, hdr.seedsOverride);
    EXPECT_EQ(loaded.header.recovery, hdr.recovery);
    EXPECT_EQ(loaded.header.checkFaults, hdr.checkFaults);
    EXPECT_EQ(loaded.header.specFingerprint, hdr.specFingerprint);
    EXPECT_EQ(loaded.header.jobCount, hdr.jobCount);
    ASSERT_EQ(loaded.jobs.size(), 2u);
    EXPECT_EQ(loaded.tornDropped, 0u);
    EXPECT_EQ(loaded.jobs[0].spec.index, 17u);
    EXPECT_EQ(loaded.jobs[1].spec.index, 18u);
    EXPECT_EQ(loaded.jobs[1].verdict, "ok");
    std::remove(path.c_str());
}

// A SIGKILL mid-append tears at most the last record: every proper
// truncation of the file must load the intact prefix and count one
// dropped tail.
TEST(JobJournalFile, EveryTornTailIsDroppedNotFatal)
{
    const std::string path = tempPath("journal-torn.wbj");
    JobJournal j;
    std::string err;
    ASSERT_TRUE(j.open(path, sampleHeader(), err)) << err;
    JobResult r = sampleResult();
    j.append(r);
    r.spec.index = 18;
    j.append(r);
    j.close();

    const auto full = readFile(path);
    JobJournal::LoadResult base;
    ASSERT_TRUE(JobJournal::load(path, base, err)) << err;
    ASSERT_EQ(base.jobs.size(), 2u);

    // Find where record 2 starts by re-encoding record 1.
    ByteWriter w;
    encodeJobResult(w, base.jobs[0]);
    const std::size_t rec1_end =
        full.size() - (16 + w.buffer().size());

    for (std::size_t cut = rec1_end + 1; cut < full.size();
         ++cut) {
        writeFile(path, {full.begin(), full.begin() + long(cut)});
        JobJournal::LoadResult part;
        ASSERT_TRUE(JobJournal::load(path, part, err))
            << "cut at " << cut << ": " << err;
        EXPECT_EQ(part.jobs.size(), 1u) << "cut at " << cut;
        EXPECT_EQ(part.tornDropped, 1u) << "cut at " << cut;
    }
    std::remove(path.c_str());
}

TEST(JobJournalFile, CorruptedTailRecordIsDropped)
{
    const std::string path = tempPath("journal-flip.wbj");
    JobJournal j;
    std::string err;
    ASSERT_TRUE(j.open(path, sampleHeader(), err)) << err;
    j.append(sampleResult());
    j.close();

    auto bytes = readFile(path);
    bytes.back() ^= 0x40; // inside the only record's payload
    writeFile(path, bytes);

    JobJournal::LoadResult loaded;
    ASSERT_TRUE(JobJournal::load(path, loaded, err)) << err;
    EXPECT_EQ(loaded.jobs.size(), 0u);
    EXPECT_EQ(loaded.tornDropped, 1u);
    std::remove(path.c_str());
}

TEST(JobJournalFile, RejectsForeignAndTruncatedHeaders)
{
    const std::string path = tempPath("journal-bad.wbj");
    std::string err;
    JobJournal::LoadResult loaded;

    EXPECT_FALSE(JobJournal::load(tempPath("nope.wbj"), loaded,
                                  err));

    writeFile(path, {'n', 'o', 't', ' ', 'a', ' ', 'j', 'r', 'n',
                     'l'});
    EXPECT_FALSE(JobJournal::load(path, loaded, err));

    // Valid magic, torn header: must fail loudly (the header is
    // written once, before any job runs — a torn header means the
    // journal never recorded anything usable).
    JobJournal j;
    ASSERT_TRUE(j.open(path, sampleHeader(), err)) << err;
    j.close();
    auto bytes = readFile(path);
    bytes.resize(bytes.size() / 2);
    writeFile(path, bytes);
    EXPECT_FALSE(JobJournal::load(path, loaded, err));
    std::remove(path.c_str());
}

// ---------------------------------------------------------------
// Resume via preloaded results
// ---------------------------------------------------------------

TEST(CampaignResume, PreloadedResumeMatchesColdRunByteForByte)
{
    const CampaignSpec spec = tinySpec();
    const std::string path = tempPath("resume.wbj");

    // Cold reference run, journaled.
    CampaignRunner::Options opts;
    opts.jobs = 2;
    opts.progress = false;
    opts.journalPath = path;
    opts.journalHeader = sampleHeader();
    const CampaignResult cold =
        CampaignRunner(spec, opts).run();
    ASSERT_EQ(cold.summary.done, spec.jobCount());
    EXPECT_EQ(cold.journaled, spec.jobCount());
    EXPECT_FALSE(cold.interrupted);
    const Aggregates ref = aggregatesOf(spec, cold);

    // Pretend the run died after the first three jobs: resume with
    // those journaled results preloaded, at two worker counts.
    std::string err;
    JobJournal::LoadResult loaded;
    ASSERT_TRUE(JobJournal::load(path, loaded, err)) << err;
    ASSERT_EQ(loaded.jobs.size(), spec.jobCount());
    loaded.jobs.resize(3);

    for (int workers : {1, 8}) {
        CampaignRunner::Options ropts;
        ropts.jobs = workers;
        ropts.progress = false;
        ropts.preloaded = &loaded.jobs;
        const CampaignResult resumed =
            CampaignRunner(spec, ropts).run();
        ASSERT_EQ(resumed.summary.done, spec.jobCount());
        const Aggregates out = aggregatesOf(spec, resumed);
        EXPECT_EQ(out.json, ref.json) << "-j" << workers;
        EXPECT_EQ(out.csv, ref.csv) << "-j" << workers;
    }
    std::remove(path.c_str());
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
