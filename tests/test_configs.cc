/**
 * @file
 * Configuration conformance: the presets must match Table 6 of the
 * paper exactly, SystemConfig::setMode must keep the core and
 * protocol flavours consistent, SystemConfig::validate() must refuse
 * every broken config, and the front-end parsers must be strict.
 */

#include <gtest/gtest.h>

#include <functional>

#include "sim/parse.hh"
#include "system/system.hh"

namespace wb
{

TEST(Config, Table6CoreClasses)
{
    const CoreConfig slm = makeCoreConfig(CoreClass::SLM);
    EXPECT_EQ(slm.fetchWidth, 4);
    EXPECT_EQ(slm.commitWidth, 4);
    EXPECT_EQ(slm.iqSize, 16);
    EXPECT_EQ(slm.robSize, 32);
    EXPECT_EQ(slm.lqSize, 10);
    EXPECT_EQ(slm.sqSize, 16);
    EXPECT_EQ(slm.sbSize, 16);
    EXPECT_EQ(slm.ldtSize, 32);

    const CoreConfig nhm = makeCoreConfig(CoreClass::NHM);
    EXPECT_EQ(nhm.iqSize, 32);
    EXPECT_EQ(nhm.robSize, 128);
    EXPECT_EQ(nhm.lqSize, 48);
    EXPECT_EQ(nhm.sqSize, 36);
    EXPECT_EQ(nhm.sbSize, 36);

    const CoreConfig hsw = makeCoreConfig(CoreClass::HSW);
    EXPECT_EQ(hsw.iqSize, 60);
    EXPECT_EQ(hsw.robSize, 192);
    EXPECT_EQ(hsw.lqSize, 72);
    EXPECT_EQ(hsw.sqSize, 42);
    EXPECT_EQ(hsw.sbSize, 42);
}

TEST(Config, Table6MemorySystem)
{
    const MemSystemConfig mem;
    EXPECT_EQ(mem.l1Size, 32u * 1024);
    EXPECT_EQ(mem.l1Assoc, 8u);
    EXPECT_EQ(mem.l1HitLatency, 4u);
    EXPECT_EQ(mem.l2Size, 128u * 1024);
    EXPECT_EQ(mem.l2Assoc, 8u);
    EXPECT_EQ(mem.l2HitLatency, 12u);
    EXPECT_EQ(mem.llcBankSize, 1024u * 1024);
    EXPECT_EQ(mem.llcAssoc, 8u);
    EXPECT_EQ(mem.llcHitLatency, 35u);
    EXPECT_EQ(mem.memLatency, 160u);
    EXPECT_TRUE(mem.silentSharedEvictions);
    EXPECT_FALSE(mem.writersBlock);
}

TEST(Config, Table6Mesh)
{
    const MeshConfig mesh;
    EXPECT_EQ(mesh.width * mesh.height, 16);
    EXPECT_EQ(mesh.hopLatency, 6u);
    EXPECT_EQ(unsigned(ctrlFlits), 1u);
    EXPECT_EQ(unsigned(dataFlits), 5u);
}

TEST(Config, SetModeCouplesCoreAndProtocol)
{
    SystemConfig cfg;
    cfg.setMode(CommitMode::OooWB);
    EXPECT_TRUE(cfg.core.lockdown);
    EXPECT_TRUE(cfg.mem.writersBlock);
    cfg.setMode(CommitMode::OooSafe);
    EXPECT_FALSE(cfg.core.lockdown);
    EXPECT_FALSE(cfg.mem.writersBlock);
    cfg.setMode(CommitMode::InOrder);
    EXPECT_FALSE(cfg.core.lockdown);
    EXPECT_FALSE(cfg.mem.writersBlock);
    cfg.setMode(CommitMode::OooWB);
    cfg.setMode(CommitMode::OooUnsafe); // the negative control
    EXPECT_FALSE(cfg.core.lockdown);
    EXPECT_FALSE(cfg.mem.writersBlock);
}

TEST(Config, ValidateAcceptsRunnableConfigs)
{
    for (CommitMode m : {CommitMode::InOrder, CommitMode::OooSafe,
                         CommitMode::OooWB, CommitMode::OooUnsafe}) {
        SystemConfig cfg;
        cfg.setMode(m);
        EXPECT_EQ(cfg.validate(), "") << commitModeName(m);
    }
    SystemConfig widest;
    widest.numCores = LLCBank::maxCores;
    widest.shards = LLCBank::maxCores;
    EXPECT_EQ(widest.validate(), "");
    // The sampler runs on the barrier thread, so it shards.
    SystemConfig sampled;
    sampled.shards = 2;
    sampled.obs.metricsPeriod = 100;
    EXPECT_EQ(sampled.validate(), "");
}

TEST(Config, ValidateRejectsOneCasePerRule)
{
    // Break one rule of a default config; validate() must name it.
    auto rejects = [](const char *complaint,
                      const std::function<void(SystemConfig &)> &f) {
        SystemConfig c;
        f(c);
        EXPECT_NE(c.validate().find(complaint), std::string::npos)
            << complaint << ": got '" << c.validate() << "'";
    };
    rejects("cores must be", [](auto &c) { c.numCores = 0; });
    rejects("sharer bit per core",
            [](auto &c) { c.numCores = LLCBank::maxCores + 1; });
    rejects("shards must be", [](auto &c) { c.shards = 0; });
    rejects("shards must be", [](auto &c) { c.shards = 17; });
    auto sharded = [&](const char *complaint, auto f) {
        rejects(complaint, [f](SystemConfig &c) {
            c.shards = 2;
            f(c);
        });
    };
    sharded("fault injection is incompatible",
            [](auto &c) { c.faults.delayProb = 0.1; });
    sharded("recovery is incompatible",
            [](auto &c) { c.recovery.enabled = true; });
    sharded("flight recorder is incompatible",
            [](auto &c) { c.obs.flightRecorder = 64; });
    rejects("fault config: drop", [](auto &c) { c.faults.dropProb = 2; });
    rejects("recovery cycle parameters", [](auto &c) {
        c.recovery.enabled = true;
        c.recovery.pollCycles = 0;
    });
    rejects("local latency", [](auto &c) { c.mesh.localLatency = 0; });
    rejects("local latency", [](auto &c) {
        c.network = NetworkKind::Ideal;
        c.ideal.localLatency = 0;
    });
    rejects("lookahead", [](auto &c) { c.mesh.hopLatency = 0; });
    rejects("lookahead", [](auto &c) {
        c.network = NetworkKind::Ideal;
        c.ideal.baseLatency = 0;
    });
    rejects("requires a lockdown core", [](auto &c) {
        c.setMode(CommitMode::OooWB);
        c.core.lockdown = false;
    });
}

TEST(Config, MeshShapeDerivedFromCoreCount)
{
    const struct
    {
        int nodes, width, height;
    } shapes[] = {{1, 1, 1}, {2, 2, 1},  {3, 2, 2},  {4, 2, 2},
                  {8, 3, 3}, {16, 4, 4}, {17, 5, 4}, {32, 6, 6}};
    for (const auto &sh : shapes) {
        MeshConfig mesh;
        mesh.fit(sh.nodes);
        EXPECT_EQ(mesh.width, sh.width) << sh.nodes;
        EXPECT_EQ(mesh.height, sh.height) << sh.nodes;
    }
    // System fits the mesh to numCores, whatever the config holds.
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.mesh.width = 1;
    cfg.mesh.height = 1;
    Workload wl;
    wl.threads.push_back(Program{Instr{Opcode::Halt, 0, 0, 0, 0,
                                       0}});
    const System sys(cfg, wl);
    EXPECT_EQ(sys.config().mesh.width, 2);
    EXPECT_EQ(sys.config().mesh.height, 2);
}

TEST(Config, ModeAndClassNames)
{
    EXPECT_STREQ(commitModeName(CommitMode::InOrder), "in-order");
    EXPECT_STREQ(commitModeName(CommitMode::OooSafe), "ooo-safe");
    EXPECT_STREQ(commitModeName(CommitMode::OooWB),
                 "ooo-writersblock");
    EXPECT_STREQ(commitModeName(CommitMode::OooUnsafe),
                 "ooo-unsafe");
    EXPECT_STREQ(coreClassName(CoreClass::SLM), "SLM");
    EXPECT_STREQ(coreClassName(CoreClass::NHM), "NHM");
    EXPECT_STREQ(coreClassName(CoreClass::HSW), "HSW");

    // Every printed name parses back; aliases and typos behave.
    CommitMode mode{};
    for (CommitMode m : {CommitMode::InOrder, CommitMode::OooSafe,
                         CommitMode::OooWB, CommitMode::OooUnsafe}) {
        EXPECT_TRUE(parseCommitMode(commitModeName(m), mode));
        EXPECT_EQ(mode, m);
    }
    EXPECT_TRUE(parseCommitMode("ooo-wb", mode));
    EXPECT_FALSE(parseCommitMode("ooo", mode));
    CoreClass cls{};
    EXPECT_TRUE(parseCoreClass("nhm", cls));
    EXPECT_EQ(cls, CoreClass::NHM);
    NetworkKind net{};
    EXPECT_TRUE(parseNetworkKind("ideal", net));
    EXPECT_FALSE(parseNetworkKind("mseh", net));
}

TEST(Config, StrictNumberParsers)
{
    int cores = 7;
    EXPECT_EQ(parseCount("cores", "0x10", cores), "");
    EXPECT_EQ(cores, 16);
    for (const char *bad : {"", "4x", "-1", "+4", " 4", "1e6", "x",
                            "99999999999"})
        EXPECT_NE(parseCount("cores", bad, cores).find("cores: "),
                  std::string::npos)
            << "'" << bad << "'";
    EXPECT_EQ(cores, 16); // untouched by a failed parse
    double scale = 0;
    EXPECT_EQ(parseReal("scale", "1e-2", 0, 1, scale), "");
    EXPECT_DOUBLE_EQ(scale, 0.01);
    for (const char *bad : {"", "0.5x", "nan", "inf", "2", "-0.1"})
        EXPECT_NE(parseReal("scale", bad, 0, 1, scale), "") << bad;
}

} // namespace wb
