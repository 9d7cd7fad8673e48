/**
 * @file
 * Extended litmus coverage: the Table 1 race under non-default
 * machine variants — non-silent evictions, bigger core classes,
 * tiny caches (eviction pressure inside the racing window), and a
 * mesh (rather than jittered-ideal) interconnect.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "system/system.hh"
#include "workload/litmus.hh"

namespace wb
{

namespace
{

constexpr int kIters = 800;

struct Variant
{
    const char *name;
    void (*apply)(SystemConfig &);
};

void
applyNonSilent(SystemConfig &cfg)
{
    cfg.mem.silentSharedEvictions = false;
}

void
applyHsw(SystemConfig &cfg)
{
    cfg.core = makeCoreConfig(CoreClass::HSW);
    // setMode() is re-applied by the test after core swap.
}

void
applyTinyCaches(SystemConfig &cfg)
{
    cfg.mem.l1Size = 1024;
    cfg.mem.l2Size = 2048;
    cfg.mem.llcBankSize = 8 * 1024;
    cfg.mem.llcEvictionBuffer = 2;
    cfg.mem.numMshrs = 3;
}

void
applyMesh(SystemConfig &cfg)
{
    cfg.network = NetworkKind::Mesh;
}

const Variant kVariants[] = {
    {"NonSilentEvictions", applyNonSilent},
    {"HswCore", applyHsw},
    {"TinyCaches", applyTinyCaches},
    {"Mesh", applyMesh},
};

} // namespace

class LitmusVariants
    : public ::testing::TestWithParam<std::tuple<int, CommitMode>>
{};

TEST_P(LitmusVariants, Table1StaysLegal)
{
    const auto [vi, mode] = GetParam();
    const Variant &v = kVariants[vi];

    Workload wl = makeLitmus(LitmusKind::Table1, kIters);
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.network = NetworkKind::Ideal;
    cfg.ideal.baseLatency = 8;
    cfg.ideal.jitter = 12;
    cfg.maxCycles = 60'000'000;
    v.apply(cfg);
    cfg.setMode(mode);

    System sys(cfg, wl);
    SimResults r = sys.run();
    ASSERT_TRUE(r.completed)
        << v.name << "/" << commitModeName(mode)
        << " deadlocked=" << r.deadlocked;
    EXPECT_EQ(r.tsoViolations, 0u) << v.name;
    OutcomeCounts oc = countOutcomes(
        [&sys](Addr a) { return sys.peekCoherent(a); }, kIters);
    EXPECT_EQ(illegalOutcomes(oc), 0) << v.name;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LitmusVariants,
    ::testing::Combine(::testing::Range(0, 4),
                       ::testing::Values(CommitMode::OooSafe,
                                         CommitMode::OooWB)),
    [](const ::testing::TestParamInfo<std::tuple<int, CommitMode>>
           &info) {
        std::string n = kVariants[std::get<0>(info.param)].name;
        n += std::get<1>(info.param) == CommitMode::OooWB
                 ? "_OooWB"
                 : "_OooSafe";
        return n;
    });

TEST(LitmusExtended, UnsafeViolatesEvenOnMesh)
{
    // The negative control must remain detectable under the default
    // (mesh) interconnect too, not just jittered networks.
    int illegal = 0;
    std::size_t violations = 0;
    for (int i = 0; i < 3 && illegal + int(violations) == 0; ++i) {
        Workload wl = makeLitmus(LitmusKind::Table1, kIters);
        SystemConfig cfg;
        cfg.numCores = 4;
        cfg.maxCycles = 60'000'000;
        cfg.setMode(CommitMode::OooUnsafe);
        cfg.core.lockdown = false;
        cfg.mem.writersBlock = false;
        System sys(cfg, wl);
        SimResults r = sys.run();
        ASSERT_TRUE(r.completed);
        illegal += illegalOutcomes(countOutcomes(
            [&sys](Addr a) { return sys.peekCoherent(a); },
            kIters));
        violations += r.tsoViolations;
    }
    EXPECT_GT(illegal + int(violations), 0);
}

} // namespace wb
