/**
 * @file
 * Shared LLC bank with an embedded full-map directory — the home
 * side of the WritersBlock MESI protocol.
 *
 * Directory states:
 *   I         line cached at the LLC only (or being fetched)
 *   S         LLC data valid, >= 1 private sharers (list may be a
 *             superset because shared lines evict silently)
 *   EM        one private owner (E or M); LLC data possibly stale
 *   BusyMem   memory fetch in flight
 *   BusyRd    read transaction awaiting Unblock (and CopyData on a
 *             3-hop owner forward)
 *   BusyWr    write transaction: invalidations out, awaiting Unblock
 *   WB        *WritersBlock* (Section 3.3): an invalidation was
 *             Nacked by a locked-down core. Writes are deferred,
 *             reads are served uncacheable tear-off copies, released
 *             acks are redirected to the pending writer.
 *   Recalling directory/LLC eviction: recalls out
 *   WBEvict   recall hit a lockdown: entry parks in the eviction
 *             buffer, behaving like WB, until the AckRelease
 *             (Section 3.5.1)
 *
 * Entries under eviction move to a bounded eviction buffer so that a
 * miss can claim the directory slot immediately; when the buffer is
 * full, reads fall back to uncacheable service straight from memory
 * — the deadlock-avoidance strategy of Section 3.5.1.
 *
 * Requests deferred behind a transient or WritersBlock entry live in
 * a per-bank side table keyed by line, not in the directory entry:
 * a table entry exists only while its line has deferred requests, so
 * directory entries stay plain values and a bank costs only what its
 * run defers. A line's queue follows the line between the array and
 * the eviction buffer.
 */

#ifndef WB_COHERENCE_LLC_BANK_HH
#define WB_COHERENCE_LLC_BANK_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <ostream>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "coherence/config.hh"
#include "coherence/main_memory.hh"
#include "coherence/messages.hh"
#include "mem/cache_array.hh"
#include "network/network.hh"
#include "recovery/recovery.hh"
#include "sim/sim_object.hh"

namespace wb
{

/** One LLC bank + directory slice. */
class LLCBank : public SimObject
{
  public:
    /** Directory sharer set: one bit per core. */
    using SharerMask = std::uint32_t;
    /** Largest core count the sharer set can track
     *  (SystemConfig::validate() rejects more). */
    static constexpr int maxCores =
        std::numeric_limits<SharerMask>::digits;

    LLCBank(std::string name, EventQueue *eq, StatRegistry *stats,
            BankId id, const MemSystemConfig &cfg, Network *net,
            MainMemory *memory);

    /** Incoming coherence message. */
    void handleMessage(MsgPtr msg);

    /** Drain the allocation retry queue. */
    void tick() override;

    // introspection for tests
    /** Dump transient directory state (watchdog diagnostics). */
    void dumpState(std::ostream &os) const;

    bool hasEntry(Addr line) const;
    bool inWritersBlock(Addr line) const;
    std::size_t evictionBufferUse() const { return _evbuf.size(); }
    std::size_t retryQueueUse() const { return _retryQueue.size(); }

    /** Eviction-buffer / retry-queue occupancy gauges. */
    void registerMetrics(MetricsRegistry &metrics) override;

    /** Lines that have deferred requests queued. Every such line
     *  has a directory entry; a line without one would hold
     *  requests that nothing will ever replay. */
    std::size_t deferredLines() const { return _deferred.size(); }

    /** Lowest line in the deferred-request table (invalidAddr when
     *  empty) — names an orphaned queue in teardown reports. */
    Addr firstDeferredLine() const;

    /** Structured view of one in-flight directory transaction
     *  (crash report / transaction age watchdog). */
    struct TxnInfo
    {
        Addr line = 0;
        const char *state = "I";
        int owner = -1;
        int reqor = -1;
        int recallPending = 0;
        std::size_t deferred = 0;
        bool evbuf = false;
        Tick age = 0;
    };

    /** Every entry in a transient state (incl. WritersBlock and the
     *  eviction buffer) or with deferred requests, sorted by line
     *  for deterministic reports. O(active lines): built from the
     *  busy-line set, the eviction buffer and the deferred table. */
    std::vector<TxnInfo> transientInfos(Tick now_tick) const;

    /** Age of the oldest transient directory entry; 0 when all
     *  entries are stable and no requests are parked for retry. */
    Tick oldestTransactionAge(Tick now_tick) const;

    /** Functional debug read of the LLC copy (may be stale for EM
     *  lines). @return false if the line has no entry with data. */
    bool peekWord(Addr addr, std::uint64_t &value) const;

    /** Arm duplicate-safe message handling: re-seen requests are
     *  answered idempotently instead of tripping protocol panics. */
    void setRecovery(const RecoveryConfig &rc) { _recovery = rc; }

    /** Every line this bank holds data for (array + eviction
     *  buffer), sorted — the end-state equivalence checker walks
     *  this to compare final cache-line values across runs. */
    std::vector<Addr> cachedLines() const;

    /** Snapshot witness: directory array, eviction buffer, busy-line
     *  set, retry queue (deferred/parked messages encoded by their
     *  logical coherence fields), transaction counter and dedup
     *  windows. Unordered containers are emitted in sorted key order
     *  (docs/CHECKPOINT.md). */
    void serializeState(ByteWriter &w) const;

  private:
    enum class DirState : std::uint8_t
    {
        I, S, EM, BusyMem, BusyRd, BusyWr, WB, Recalling, WBEvict
    };

    struct DirEntry
    {
        DirState state = DirState::I;
        bool haveData = false;
        bool dirty = false;
        DataBlock data{};
        SharerMask sharers = 0;
        int owner = -1;

        // transaction bookkeeping
        int reqor = -1;
        std::uint64_t txnId = 0;
        bool grantExclusive = false;
        bool copyDataPending = false;
        bool unblockSeen = false;
        bool oldOwnerRetained = false;
        int oldOwner = -1;
        int recallPending = 0;
        bool hintSent = false;
        bool evicting = false; //!< entry lives in the eviction buffer
        Tick busySince = 0;    //!< last transition into a transient
                               //!< state (transaction age watchdog)
    };

    /** FIFO of parked requests: a vector with a read cursor, so a
     *  queue that fills and drains reuses its storage and an empty
     *  one owns no heap. */
    class MsgFifo
    {
      public:
        bool empty() const { return _head == _msgs.size(); }
        std::size_t size() const { return _msgs.size() - _head; }
        void push(MsgPtr m) { _msgs.push_back(std::move(m)); }

        MsgPtr
        pop()
        {
            MsgPtr m = std::move(_msgs[_head++]);
            if (empty())
                clear();
            return m;
        }

        void
        swap(MsgFifo &o) noexcept
        {
            _msgs.swap(o._msgs);
            std::swap(_head, o._head);
        }

        /** Visit every queued message in FIFO order; keep those
         *  for which @p keep returns true, in order. */
        template <typename Fn>
        void
        retain(Fn keep)
        {
            std::size_t out = _head;
            for (std::size_t i = _head; i < _msgs.size(); ++i) {
                if (!keep(_msgs[i]))
                    continue;
                if (out != i)
                    _msgs[out] = std::move(_msgs[i]);
                ++out;
            }
            _msgs.resize(out);
            if (empty())
                clear();
        }

        auto begin() const { return _msgs.begin() + std::ptrdiff_t(_head); }
        auto end() const { return _msgs.end(); }

      private:
        void
        clear()
        {
            _msgs.clear();
            _head = 0;
        }

        std::vector<MsgPtr> _msgs;
        std::size_t _head = 0;
    };

    // request handlers
    void handleRequest(MsgPtr msg);
    void handleGetS(DirEntry &e, CohMsg &m);
    void handleWrite(DirEntry &e, CohMsg &m);
    void handleGetU(DirEntry &e, CohMsg &m);
    void handlePut(DirEntry &e, CohMsg &m);
    // response handlers
    void handleInvNack(DirEntry &e, CohMsg &m);
    void handleRecallAck(DirEntry &e, CohMsg &m);
    void handleAckRelease(DirEntry &e, CohMsg &m);
    void handleCopyData(DirEntry &e, CohMsg &m);
    void handleUnblock(DirEntry &e, CohMsg &m);

    DirEntry *lookup(Addr line);
    const DirEntry *lookup(Addr line) const;

    /**
     * Allocate a directory entry, evicting if necessary.
     * @return nullptr if no way can be freed right now.
     */
    DirEntry *allocate(Addr line);

    /** Begin recalling every private copy of an entry under
     *  eviction; the entry must already sit in the eviction buffer. */
    void startRecall(DirEntry &e, Addr line);

    /** Eviction done: flush to memory, drop, re-dispatch deferred. */
    void finishEviction(Addr line);

    /** Enter WritersBlock: serve deferred reads, hint writers. */
    void enterWritersBlock(DirEntry &e, Addr line, DirState st);

    void maybeFinishRead(DirEntry &e, Addr line);
    void finishTransaction(DirEntry &e, Addr line);
    void replayDeferred(Addr line);

    /** Queue a copy of @p m behind its line's transaction. */
    void defer(const CohMsg &m);
    /** Requests deferred on @p line (0 when it has none). */
    std::size_t deferredCount(Addr line) const;

    void grantRead(DirEntry &e, CohMsg &m, bool exclusive);
    void sendUData(const DataBlock &data, Addr line, int dst,
                   bool from_getu, Tick extra_lat = 0);
    void sendBlockedHint(Addr line, int dst);
    void fetchFromMemory(DirEntry &e, Addr line);
    void serveUncacheableFromMemory(CohMsg &m);

    MsgPtr make(CohType t, Addr line, int dst);
    void send(MsgPtr msg, Tick lat = 1);
    std::uint64_t newTxn() { return ++_txnCounter; }

    BankId _id;
    MemSystemConfig _cfg;
    Network *_net;
    MainMemory *_memory;

    CacheArray<DirEntry> _array;
    std::unordered_map<Addr, DirEntry> _evbuf;
    /** Deferred requests per line, in arrival order; a key exists
     *  only while its queue is non-empty. */
    std::unordered_map<Addr, MsgFifo> _deferred;

    /** Transaction-age candidates: every line that entered a
     *  transient state since the watchdog last saw it stable.
     *  Lazily swept by oldestTransactionAge(), which keeps the
     *  per-poll cost O(active transactions) instead of a full
     *  directory scan. Mutable: the sweep is logically const. */
    mutable std::unordered_set<Addr> _busyLines;

    /** Record a transition into a transient directory state. */
    void noteBusy(Addr line) { _busyLines.insert(line); }
    MsgFifo _retryQueue;
    MsgFifo _retryDraining; //!< tick()'s swap partner (keeps capacity)
    std::uint64_t _txnCounter = 0;
    RecoveryConfig _recovery{};
    DedupFilter _dedup; //!< per-source duplicate-delivery filter

    // stats
    Counter &_reads;
    Counter &_writes;
    Counter &_wbEntries;        //!< BusyWr/Recalling -> WB/WBEvict
    Counter &_wbEncounters;     //!< writes deferred at a WritersBlock
    Counter &_uncacheableReads; //!< UData responses served
    Counter &_redirAcks;
    Counter &_recalls;
    Counter &_memFetches;
    Counter &_memWritebacks;
    Counter &_deferrals;
    Counter &_staleDrops;
    Counter &_evbufFallbacks;   //!< uncacheable due to full buffer
    Counter &_dedupHits;        //!< duplicated deliveries discarded
    Counter &_dupRequestsIgnored; //!< re-seen requests dropped
                                  //!< idempotently under recovery
};

} // namespace wb

#endif // WB_COHERENCE_LLC_BANK_HH
