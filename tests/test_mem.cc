/** @file Unit tests for address math, data blocks, cache arrays. */

#include <gtest/gtest.h>

#include <vector>

#include "coherence/main_memory.hh"
#include "mem/addr.hh"
#include "mem/cache_array.hh"
#include "mem/data_block.hh"

namespace wb
{

TEST(Addr, Geometry)
{
    EXPECT_EQ(lineOf(0x12345), 0x12340u);
    EXPECT_EQ(wordOf(0x12345), 0x12340u);
    EXPECT_EQ(wordOf(0x1234F), 0x12348u);
    EXPECT_EQ(wordIndex(0x12340), 0u);
    EXPECT_EQ(wordIndex(0x12378), 7u);
    EXPECT_EQ(homeBank(0x40, 16), BankId(1));
    EXPECT_EQ(homeBank(0x400, 16), BankId(0));
}

TEST(DataBlock, ReadWriteVersioned)
{
    DataBlock b;
    EXPECT_EQ(b.readWord(0x1008), 0u);
    EXPECT_EQ(b.readVersion(0x1008), 0u);
    b.writeWord(0x1008, 77, 3);
    EXPECT_EQ(b.readWord(0x1008), 77u);
    EXPECT_EQ(b.readVersion(0x1008), 3u);
    EXPECT_EQ(b.readWord(0x1000), 0u); // other word untouched
}

TEST(CacheArray, HitMissAllocate)
{
    CacheArray<int> c(1024, 2); // 8 sets x 2 ways
    EXPECT_EQ(c.numSets(), 8u);
    EXPECT_EQ(c.find(0x000), nullptr);
    c.allocate(0x000) = 42;
    ASSERT_NE(c.find(0x000), nullptr);
    EXPECT_EQ(*c.find(0x000), 42);
    EXPECT_EQ(c.validLines(), 1u);
    c.erase(0x000);
    EXPECT_EQ(c.find(0x000), nullptr);
}

namespace
{

/** Find @p n distinct line addresses in the same set as @p base. */
template <typename Payload>
std::vector<Addr>
conflictingLines(const CacheArray<Payload> &c, Addr base, int n)
{
    std::vector<Addr> out{lineOf(base)};
    const unsigned set = c.setIndex(base);
    for (Addr a = lineOf(base) + lineBytes; int(out.size()) < n;
         a += lineBytes)
        if (c.setIndex(a) == set)
            out.push_back(a);
    return out;
}

} // namespace

TEST(CacheArray, LruVictimSelection)
{
    CacheArray<int> c(1024, 2);
    auto lines = conflictingLines(c, 0x000, 3);
    c.allocate(lines[0]) = 1;
    c.allocate(lines[1]) = 2;
    EXPECT_TRUE(c.needVictim(lines[2]));
    // Touch lines[0] so lines[1] becomes LRU.
    c.findAndTouch(lines[0]);
    Addr v = c.pickVictim(lines[2], [](Addr, const int &) {
        return true;
    });
    EXPECT_EQ(v, lines[1]);
    // Exclude lines[1]: the other way is picked.
    v = c.pickVictim(lines[2], [&](Addr a, const int &) {
        return a != lines[1];
    });
    EXPECT_EQ(v, lines[0]);
    // Exclude everything: no victim.
    v = c.pickVictim(lines[2], [](Addr, const int &) {
        return false;
    });
    EXPECT_EQ(v, invalidAddr);
}

TEST(CacheArray, SetIsolation)
{
    CacheArray<int> c(1024, 2);
    // Find two lines in different sets.
    Addr a = 0x000;
    Addr b = lineBytes;
    while (c.setIndex(b) == c.setIndex(a))
        b += lineBytes;
    c.allocate(a) = 1;
    c.allocate(b) = 2;
    // A third line in b's set with one free way needs no victim.
    EXPECT_FALSE(c.needVictim(b));
    EXPECT_EQ(c.validLines(), 2u);
}

TEST(CacheArray, ForEachVisitsAll)
{
    CacheArray<int> c(1024, 2);
    c.allocate(0x000) = 1;
    c.allocate(0x040) = 2;
    int sum = 0;
    c.forEach([&](Addr, int &v) { sum += v; });
    EXPECT_EQ(sum, 3);
}

TEST(CacheArray, AllocateStartsFromTheDefaultPayload)
{
    // Ways start as zero bytes, and a dropped way keeps its old
    // payload bytes; allocate() must hand out Payload{} either way.
    struct Line
    {
        int owner = -1;
        std::uint64_t data = 7;
    };
    CacheArray<Line> c(1024, 2);
    Line &fresh = c.allocate(0x000);
    EXPECT_EQ(fresh.owner, -1);
    EXPECT_EQ(fresh.data, 7u);
    fresh.owner = 3;
    fresh.data = 9;
    c.erase(0x000);
    Line &reused = c.allocate(0x000);
    EXPECT_EQ(reused.owner, -1);
    EXPECT_EQ(reused.data, 7u);
}

TEST(MainMemory, SparseDefaultZero)
{
    MainMemory m;
    EXPECT_EQ(m.peek(0x5000), 0u);
    m.poke(0x5008, 9);
    EXPECT_EQ(m.peek(0x5008), 9u);
    DataBlock b = m.read(0x5000);
    EXPECT_EQ(b.readWord(0x5008), 9u);
    EXPECT_EQ(b.readVersion(0x5008), 0u);
    b.writeWord(0x5010, 4, 1);
    m.write(0x5000, b);
    EXPECT_EQ(m.peek(0x5010), 4u);
}

} // namespace wb
