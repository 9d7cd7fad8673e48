/**
 * @file
 * Generic set-associative cache array with true-LRU replacement.
 *
 * The array stores tags plus a caller-supplied per-line payload; the
 * coherence controllers keep MESI/directory state and the DataBlock in
 * the payload. Lookup and allocation never perform replacement side
 * effects themselves: the caller asks for a victim and handles the
 * eviction protocol.
 */

#ifndef WB_MEM_CACHE_ARRAY_HH
#define WB_MEM_CACHE_ARRAY_HH

#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <span>
#include <type_traits>

#include "mem/addr.hh"
#include "sim/bytes.hh"
#include "sim/log.hh"
#include "sim/types.hh"

namespace wb
{

/**
 * Set-associative array of cache lines.
 *
 * @tparam Payload per-line state (coherence state, data, sharers...).
 *         Must be default constructible and trivially copyable.
 */
template <typename Payload>
class CacheArray
{
  public:
    struct Way
    {
        bool valid = false;
        Addr tag = 0; // full line address for simplicity
        std::uint64_t lru = 0;
        Payload line{};
    };
    // An all-zero byte pattern is an invalid way, and no path reads
    // an invalid way's payload (allocate() resets it), so the ways
    // can start as calloc()'d pages.
    static_assert(std::is_trivially_copyable_v<Way>,
                  "cache payloads must be plain values");

    /**
     * @param size_bytes total capacity
     * @param assoc ways per set
     * @param index_divisor divide the line number before indexing.
     *        A bank of an N-bank address-interleaved cache only ever
     *        sees line numbers congruent mod N; without dividing
     *        them out, only 1/N of the sets would be used.
     */
    CacheArray(std::uint64_t size_bytes, unsigned assoc,
               unsigned index_divisor = 1)
        : _assoc(assoc),
          _numSets(unsigned(size_bytes / (lineBytes * assoc))),
          _indexDivisor(index_divisor ? index_divisor : 1),
          _numWays(std::size_t(_numSets) * assoc)
    {
        if (_numSets == 0 || (_numSets & (_numSets - 1)) != 0)
            fatal("cache: number of sets (%u) must be a power of two",
                  _numSets);
        _store.reset(
            static_cast<Way *>(std::calloc(_numWays, sizeof(Way))));
        if (!_store)
            fatal("cache: cannot allocate %zu ways", _numWays);
        while ((1u << _setBits) < _numSets)
            ++_setBits;
    }

    unsigned assoc() const { return _assoc; }
    unsigned numSets() const { return _numSets; }

    unsigned
    setIndex(Addr line_addr) const
    {
        // XOR-fold the upper line-number bits into the index. This
        // stands in for the physical-page randomisation a real OS
        // provides: workload regions at power-of-two-strided bases
        // would otherwise alias onto a handful of sets.
        const Addr n = (line_addr >> lineShift) / _indexDivisor;
        const Addr folded = n ^ (n >> _setBits) ^ (n >> (2 * _setBits));
        return unsigned(folded & (_numSets - 1));
    }

    /** Find a line; returns nullptr on miss. Does not touch LRU. */
    Payload *
    find(Addr line_addr)
    {
        Way *w = findWay(line_addr);
        return w ? &w->line : nullptr;
    }

    const Payload *
    find(Addr line_addr) const
    {
        return const_cast<CacheArray *>(this)->find(line_addr);
    }

    /** Find a line and mark it most-recently used. */
    Payload *
    findAndTouch(Addr line_addr)
    {
        Way *w = findWay(line_addr);
        if (!w)
            return nullptr;
        w->lru = ++_lruClock;
        return &w->line;
    }

    /**
     * Allocate a line that is known to be absent. Requires a free way
     * in the set (check with needVictim()/pickVictim() first).
     */
    Payload &
    allocate(Addr line_addr)
    {
        assert(!find(line_addr));
        Way *free_way = nullptr;
        unsigned set = setIndex(line_addr);
        for (unsigned i = 0; i < _assoc; ++i) {
            Way &w = ways()[std::size_t(set) * _assoc + i];
            if (!w.valid) {
                free_way = &w;
                break;
            }
        }
        assert(free_way && "allocate() without a free way");
        free_way->valid = true;
        free_way->tag = line_addr;
        free_way->lru = ++_lruClock;
        free_way->line = Payload{};
        return free_way->line;
    }

    /** True if allocating @p line_addr requires evicting first. */
    bool
    needVictim(Addr line_addr) const
    {
        unsigned set =
            const_cast<CacheArray *>(this)->setIndex(line_addr);
        for (unsigned i = 0; i < _assoc; ++i) {
            const Way &w = ways()[std::size_t(set) * _assoc + i];
            if (!w.valid)
                return false;
        }
        return true;
    }

    /**
     * Pick the LRU victim among the set's lines for which
     * @p evictable returns true. Returns the victim's line address,
     * or invalidAddr if nothing is evictable.
     */
    template <typename Pred>
    Addr
    pickVictim(Addr line_addr, Pred evictable) const
    {
        unsigned set =
            const_cast<CacheArray *>(this)->setIndex(line_addr);
        const Way *best = nullptr;
        for (unsigned i = 0; i < _assoc; ++i) {
            const Way &w = ways()[std::size_t(set) * _assoc + i];
            if (!w.valid || !evictable(w.tag, w.line))
                continue;
            if (!best || w.lru < best->lru)
                best = &w;
        }
        return best ? best->tag : invalidAddr;
    }

    /** Remove a line that must be present. */
    void
    erase(Addr line_addr)
    {
        Way *w = findWay(line_addr);
        assert(w && "erase() of absent line");
        w->valid = false;
    }

    /** Visit every valid line: fn(lineAddr, payload&). */
    template <typename Fn>
    void
    forEach(Fn fn)
    {
        for (auto &w : ways())
            if (w.valid)
                fn(w.tag, w.line);
    }

    /** Visit every valid line: fn(lineAddr, const payload&). */
    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        for (const auto &w : ways())
            if (w.valid)
                fn(w.tag, w.line);
    }

    std::size_t
    validLines() const
    {
        std::size_t n = 0;
        for (const auto &w : ways())
            n += w.valid;
        return n;
    }

    /** Snapshot witness: LRU clock plus every valid way in slot
     *  order (slot index, tag, lru stamp), payload encoded by
     *  @p fn(writer, lineAddr, payload). Slot order is
     *  deterministic — the way layout is itself simulated state. */
    template <typename Fn>
    void
    serializeState(ByteWriter &w, Fn fn) const
    {
        w.u64(_lruClock);
        w.u64(validLines());
        const auto all = ways();
        for (std::size_t i = 0; i < all.size(); ++i) {
            const Way &way = all[i];
            if (!way.valid)
                continue;
            w.u64(i);
            w.u64(way.tag);
            w.u64(way.lru);
            fn(w, way.tag, way.line);
        }
    }

  private:
    struct FreeWays
    {
        void operator()(Way *p) const { std::free(p); }
    };

    std::span<Way> ways() { return {_store.get(), _numWays}; }

    std::span<const Way>
    ways() const
    {
        return {_store.get(), _numWays};
    }

    Way *
    findWay(Addr line_addr)
    {
        unsigned set = setIndex(line_addr);
        for (unsigned i = 0; i < _assoc; ++i) {
            Way &w = ways()[std::size_t(set) * _assoc + i];
            if (w.valid && w.tag == line_addr)
                return &w;
        }
        return nullptr;
    }

    unsigned _assoc;
    unsigned _numSets;
    unsigned _indexDivisor;
    unsigned _setBits = 0;
    std::size_t _numWays;
    std::unique_ptr<Way[], FreeWays> _store;
    std::uint64_t _lruClock = 0;
};

} // namespace wb

#endif // WB_MEM_CACHE_ARRAY_HH
