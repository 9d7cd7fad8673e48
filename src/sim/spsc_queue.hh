// Single-producer / single-consumer unbounded segmented queue.
//
// Used by the sharded run loop to carry cross-shard messages from the
// owning shard thread (producer) to the barrier thread (consumer).
// The queue is wait-free on both sides for the common case: the
// producer appends into the tail block and publishes the slot with a
// release store; the consumer observes it with an acquire load.  When
// a block fills, the producer links a fresh block; the consumer frees
// exhausted blocks as it walks past them.
//
// Contract:
//   - exactly one producer thread and one consumer thread at any time;
//   - the roles may be taken over by other threads only across a
//     synchronisation point (the epoch barrier provides one);
//   - drain() must only ever run on the consumer side.
//
// Elements are stored in raw slots and constructed/destroyed
// explicitly, so T needs to be movable but not default-constructible.
#pragma once

#include <atomic>
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace wb
{

template <typename T, std::size_t BlockCap = 256>
class SpscQueue
{
    static_assert(BlockCap >= 2, "block capacity too small to amortise");

  public:
    SpscQueue()
    {
        Block *b = new Block();
        _tailBlock = b;
        _headBlock = b;
    }

    ~SpscQueue()
    {
        // Destruction is single-threaded by contract: drain leftovers
        // (normally none — the barrier empties the queue every epoch).
        Block *b = _headBlock;
        while (b) {
            const std::size_t tail = b->tail.load(std::memory_order_acquire);
            for (std::size_t i = b->head; i < tail; ++i)
                b->slot(i)->~T();
            Block *next = b->next.load(std::memory_order_acquire);
            delete b;
            b = next;
        }
    }

    SpscQueue(const SpscQueue &) = delete;
    SpscQueue &operator=(const SpscQueue &) = delete;

    // Producer side.
    void
    push(T value)
    {
        Block *b = _tailBlock;
        std::size_t idx = b->tail.load(std::memory_order_relaxed);
        if (idx == BlockCap) {
            Block *fresh = new Block();
            ::new (fresh->slot(0)) T(std::move(value));
            fresh->tail.store(1, std::memory_order_relaxed);
            // Publish the block: the consumer only follows `next`
            // after seeing tail == BlockCap, so the release here
            // makes the first element visible with it.
            b->next.store(fresh, std::memory_order_release);
            _tailBlock = fresh;
            return;
        }
        ::new (b->slot(idx)) T(std::move(value));
        b->tail.store(idx + 1, std::memory_order_release);
    }

    // Consumer side: pop one element into `out`; false when the queue
    // is (currently) empty.
    bool
    pop(T &out)
    {
        Block *b = _headBlock;
        for (;;) {
            const std::size_t tail =
                b->tail.load(std::memory_order_acquire);
            if (b->head < tail) {
                T *slot = b->slot(b->head);
                out = std::move(*slot);
                slot->~T();
                ++b->head;
                return true;
            }
            if (tail < BlockCap)
                return false; // producer still filling this block
            Block *next = b->next.load(std::memory_order_acquire);
            if (!next)
                return false; // block full but successor not linked yet
            delete b;
            _headBlock = next;
            b = next;
        }
    }

    // Consumer side convenience for callers that want a callback.
    template <typename Fn>
    void
    drain(Fn &&fn)
    {
        Block *b = _headBlock;
        for (;;) {
            const std::size_t tail =
                b->tail.load(std::memory_order_acquire);
            while (b->head < tail) {
                T *slot = b->slot(b->head);
                fn(std::move(*slot));
                slot->~T();
                ++b->head;
            }
            if (tail < BlockCap)
                break;
            Block *next = b->next.load(std::memory_order_acquire);
            if (!next)
                break;
            delete b;
            _headBlock = next;
            b = next;
        }
        _headBlock = b;
    }

    // Consumer side: visit the queued elements in order without
    // consuming them (snapshot witnesses of a paused run).
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Block *b = _headBlock; b;
             b = b->next.load(std::memory_order_acquire))
            for (std::size_t i = b->head,
                             tail = b->tail.load(std::memory_order_acquire);
                 i < tail; ++i)
                fn(*b->slot(i));
    }

    // Consumer side.
    bool
    empty() const
    {
        const Block *b = _headBlock;
        const std::size_t tail = b->tail.load(std::memory_order_acquire);
        if (b->head < tail)
            return false;
        if (tail < BlockCap)
            return true;
        const Block *next = b->next.load(std::memory_order_acquire);
        return !next ||
               next->head >= next->tail.load(std::memory_order_acquire);
    }

  private:
    struct Block {
        alignas(64) std::atomic<std::size_t> tail{0};
        std::atomic<Block *> next{nullptr};
        std::size_t head = 0; // consumer-only cursor
        alignas(alignof(T)) unsigned char storage[sizeof(T) * BlockCap];

        T *
        slot(std::size_t i)
        {
            return std::launder(
                reinterpret_cast<T *>(storage + i * sizeof(T)));
        }
        const T *
        slot(std::size_t i) const
        {
            return std::launder(
                reinterpret_cast<const T *>(storage + i * sizeof(T)));
        }
    };

    // Producer-owned and consumer-owned block cursors live on separate
    // cache lines from each other via the Block layout above.
    alignas(64) Block *_tailBlock;
    alignas(64) Block *_headBlock;
};

} // namespace wb
