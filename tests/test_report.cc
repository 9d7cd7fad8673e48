/** @file Tests for the JSON result reporter. */

#include <gtest/gtest.h>

#include <sstream>

#include "system/report.hh"
#include "workload/litmus.hh"
#include "workload/synthetic.hh"

namespace wb
{

TEST(Report, JsonEscaping)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
    EXPECT_EQ(jsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(Report, JsonEscapingNonAsciiAndControlBytes)
{
    // Control chars use exactly four hex digits; the escape must go
    // through unsigned char, because a signed-char promotion would
    // sign-extend a negative byte into "\uffffffXX" garbage.
    EXPECT_EQ(jsonEscape(std::string(1, '\x1f')), "\\u001f");
    EXPECT_EQ(jsonEscape(std::string(1, '\0')), "\\u0000");

    // Non-ASCII payload (UTF-8 bytes are all >= 0x80) passes
    // through byte-identical, never escaped, never sign-extended.
    const std::string utf8 = "caf\xc3\xa9 \xe2\x86\x92 d\xc3\xa9j\xc3\xa0";
    EXPECT_EQ(jsonEscape(utf8), utf8);

    const std::string mixed =
        std::string("\x01") + "\xc3\xa9" + "\x1f";
    EXPECT_EQ(jsonEscape(mixed), "\\u0001\xc3\xa9\\u001f");
    EXPECT_EQ(jsonEscape(mixed).find("ffff"), std::string::npos);
}

TEST(Report, RunReportContainsKeyFields)
{
    Workload wl = makeLitmus(LitmusKind::Table1, 100);
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.setMode(CommitMode::OooWB);
    System sys(cfg, wl);
    SimResults r = sys.run();
    ASSERT_TRUE(r.completed);

    std::ostringstream os;
    writeJsonReport(os, wl.name, cfg, r, &sys.stats());
    const std::string j = os.str();

    EXPECT_NE(j.find("\"workload\":\"table1-mp\""),
              std::string::npos);
    EXPECT_NE(j.find("\"commitMode\":\"ooo-writersblock\""),
              std::string::npos);
    EXPECT_NE(j.find("\"completed\":true"), std::string::npos);
    EXPECT_NE(j.find("\"tsoViolations\":0"), std::string::npos);
    EXPECT_NE(j.find("\"stats\":{"), std::string::npos);
    EXPECT_NE(j.find("core.0.commits"), std::string::npos);
    // Histograms are typed objects with percentile fields, not
    // stringified print() lines.
    EXPECT_NE(j.find("\"p95\":"), std::string::npos);
    EXPECT_EQ(j.find("samples="), std::string::npos);
    // Balanced braces (cheap structural sanity).
    EXPECT_EQ(std::count(j.begin(), j.end(), '{'),
              std::count(j.begin(), j.end(), '}'));
}

TEST(Report, OmitsStatsWhenNotRequested)
{
    Workload wl = makeLitmus(LitmusKind::Table1, 20);
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.setMode(CommitMode::InOrder);
    System sys(cfg, wl);
    SimResults r = sys.run();
    std::ostringstream os;
    writeJsonReport(os, wl.name, cfg, r, nullptr);
    EXPECT_EQ(os.str().find("\"stats\""), std::string::npos);
}

TEST(Report, SameSeedRunsAreByteIdentical)
{
    // Determinism pin: two fresh systems over the same (workload,
    // seed, config) must produce byte-identical JSON reports, stats
    // included. This is what makes wbbench's fingerprint pins
    // (wbbench/pins.json) meaningful.
    SyntheticParams p;
    p.iterations = 40;
    p.bodyOps = 24;
    p.sharedRatio = 0.4;
    p.seed = 7;
    const Workload wl = makeSynthetic(p, 4);

    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.setMode(CommitMode::OooWB);

    auto once = [&] {
        System sys(cfg, wl);
        const SimResults r = sys.run();
        EXPECT_TRUE(r.completed);
        std::ostringstream os;
        writeJsonReport(os, wl.name, cfg, r, &sys.stats());
        return os.str();
    };
    EXPECT_EQ(once(), once());
}

} // namespace wb
