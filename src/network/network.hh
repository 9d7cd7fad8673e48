/**
 * @file
 * On-chip interconnect interface.
 *
 * The interconnect carries coherence messages between nodes. Each
 * node hosts a core with its private caches and one LLC bank slice.
 * Three virtual networks (request / forward / response) prevent
 * protocol deadlock; messages within and across virtual networks are
 * *not* ordered end-to-end — the property the paper assumes
 * ("general unordered interconnection network").
 *
 * Delivery model (deterministic under sharding): send() runs on the
 * thread that owns the source node and only *buffers* cross-node
 * messages into a per-source SPSC ring. commitSends() — the serial
 * epoch-barrier phase — drains every ring, orders the batch by the
 * canonical (send-tick, source, sequence) key, applies fault
 * decisions and route/contention modelling in that order, and places
 * arrivals into per-destination inboxes keyed by arrival tick. Each
 * shard then drains its own nodes' inbox buckets tick by tick via
 * scheduleDeliveries(). Because the canonical order is a pure
 * function of per-source program order, delivery outcomes are
 * independent of both the host-thread schedule and the shard count.
 * Node-internal transfers never cross a shard and bypass the rings.
 *
 * Every injected message is tracked in an in-flight ledger until its
 * delivery callback runs, so a leaked (never-delivered) message is
 * detectable at end of run and nameable in a crash report. An
 * optional FaultInjector is consulted per message to apply seeded
 * delay spikes, duplication, reordering bursts, and drops (fault
 * injection and transport recovery require a single-shard run).
 */

#ifndef WB_NETWORK_NETWORK_HH
#define WB_NETWORK_NETWORK_HH

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "recovery/recovery.hh"
#include "sim/arena.hh"
#include "sim/bytes.hh"
#include "sim/fault.hh"
#include "sim/sim_object.hh"
#include "sim/spsc_queue.hh"
#include "sim/types.hh"

namespace wb
{

/** Virtual networks, lowest priority number first. */
enum class VNet : int
{
    Request = 0,  //!< GetS/GetX/Upgrade/GetU/Put*
    Forward = 1,  //!< Inv/Fwd*/Recall (directory -> cores)
    Response = 2, //!< Data/Ack/Nack/Unblock/UData/Hints
};

constexpr int numVNets = 3;

/** Base class of every message carried by the interconnect. */
struct NetMsg
{
    int src = -1;       //!< source node
    int dst = -1;       //!< destination node
    VNet vnet = VNet::Request;
    unsigned flits = 1; //!< 1 for control, 5 for data (Table 6)

    /** Per-source sequence number, stamped at injection (0 = never
     *  injected). Fault-duplicated copies and transport
     *  retransmissions share the original's seq, which is what lets
     *  endpoint sinks discard duplicated deliveries exactly. */
    std::uint64_t seq = 0;

    virtual ~NetMsg() = default;

    /** Human-readable message kind, for traces. */
    virtual const char *kind() const { return "msg"; }

    /** Address the message concerns (0 if not address-bearing);
     *  used by the leak ledger and crash reports. */
    virtual std::uint64_t debugAddr() const { return 0; }
};

/**
 * Shared ownership: a fault-duplicated message is referenced by two
 * delivery events at once, and endpoint queues hold messages while
 * the ledger still names them. Messages are logically owned by
 * exactly one component at a time. Allocated from the arena
 * (allocate_shared in makeCohMsg), so the control block shares the
 * message's pooled node.
 */
using MsgPtr = std::shared_ptr<NetMsg>;

/**
 * Abstract interconnect. Concrete implementations compute delivery
 * latency (possibly with contention) during the serial commit phase;
 * arrivals are dispatched to the destination node's handler from its
 * owning shard's event queue.
 */
class Network : public SimObject
{
  public:
    using Handler = std::function<void(MsgPtr)>;

    /** Ledger record of a message that has not (yet) been
     *  delivered. `dropped` entries are permanent — the injector ate
     *  the message — unless the recovery layer is armed:
     *  `retxPending` then marks a dropped forward/response the
     *  transport is still retransmitting. Ids are composite:
     *  (destination << 48) | per-destination count, so each shard
     *  allocates ids for its own nodes without coordination. */
    struct InFlightMsg
    {
        std::uint64_t id = 0;
        const char *kind = "msg";
        int src = -1;
        int dst = -1;
        int vnet = 0;
        std::uint64_t addr = 0;
        Tick injectedAt = 0;
        bool dropped = false;
        bool retxPending = false;
    };

    Network(std::string name, EventQueue *eq, StatRegistry *stats,
            int num_nodes);
    ~Network() override;

    int numNodes() const { return _numNodes; }

    /** Bind the delivery callback of node @p node. */
    void registerNode(int node, Handler handler);

    /**
     * Inject a message sent at tick @p snow; src/dst/vnet/flits must
     * be set. Runs on the thread that owns the source node.
     * Node-internal messages are placed directly into the
     * destination inbox; cross-node messages are buffered until the
     * next commitSends().
     */
    void send(MsgPtr msg, Tick snow);

    /**
     * Serial commit phase (epoch barrier / single-threaded pump):
     * drain the per-source rings, process the batch in canonical
     * (send-tick, source, sequence) order — fault decision, route
     * and contention modelling, ledger recording — and insert each
     * arrival into the destination inbox. Also folds the per-node
     * delivery-statistic deltas into the registry counters. Must not
     * run concurrently with any shard phase.
     */
    void commitSends();

    /**
     * Shard phase: move node @p node's inbox bucket for tick @p t —
     * if any — into @p eq as Delivery-lane events, in canonical
     * order. Call once per owned node per tick, before draining the
     * queue at @p t. Only the thread owning @p node may call this.
     */
    void scheduleDeliveries(int node, Tick t, EventQueue &eq);

    /** Single-threaded per-tick drive for harnesses without a shard
     *  loop: commitSends() + scheduleDeliveries for every node. */
    void deliverTick(Tick t, EventQueue &eq);

    /**
     * Single-threaded convenience for tests/tools: alternate commit
     * and delivery phases against @p eq until the network and queue
     * are idle (or @p limit is reached). Returns the tick reached.
     */
    Tick drain(EventQueue &eq, Tick limit = maxTick);

    /** Earliest pending inbox arrival tick, maxTick if none. */
    Tick nextArrivalTick() const;

    /** Minimum cross-node delivery latency — the sharded run loop's
     *  conservative lookahead (epoch length bound). */
    virtual Tick lookahead() const = 0;

    /** Node-internal delivery latency. Must be >= 1: a zero-latency
     *  self-send would arrive in the past of its own tick. */
    virtual Tick localLatency() const = 0;

    /** Attach a fault oracle (nullptr = fault-free). */
    void setFaultInjector(FaultInjector *fi) { _faults = fi; }
    const FaultInjector *faultInjector() const { return _faults; }

    /** Arm the transport recovery layer (retransmission of dropped
     *  forward/response messages). */
    void setRecovery(const RecoveryConfig &rc);

    /**
     * Recovery accounting hook for the teardown reclassifier: a
     * dropped request-vnet entry whose transaction provably
     * completed through an endpoint re-issue is counted `recovered`
     * and retired from the ledger, keeping the drain invariant
     * (injected == delivered + recovered + leaked) exact.
     */
    void markRecovered(std::uint64_t id);

    /** Messages injected but not yet delivered. Excludes drops —
     *  except dropped messages a retransmission is still chasing,
     *  which the drain loop must keep waiting for. Serial phase
     *  only. */
    std::size_t inFlight() const;

    /** In-flight message-ledger gauge for live telemetry. */
    void registerMetrics(MetricsRegistry &metrics) override;

    /** Every undelivered ledger entry, dropped ones included,
     *  ordered by composite id (deterministic). */
    std::vector<InFlightMsg> undelivered() const;

    /** Total flit-hops injected so far (traffic metric). */
    std::uint64_t flitHops() const { return _flitHops.value(); }

    /** Total messages injected so far. */
    std::uint64_t messages() const { return _messages.value(); }

    /** Duplicated deliveries observed on one virtual network. */
    std::uint64_t
    dupDelivered(int vnet) const
    {
        return _dupDelivered[std::size_t(vnet)]->value();
    }

    /** Out-of-order deliveries (per-source sequence inversions on
     *  one (src, dst, vnet) channel). */
    std::uint64_t
    oooDelivered(int vnet) const
    {
        return _oooDelivered[std::size_t(vnet)]->value();
    }

    /** Snapshot witness: the in-flight ledgers (ordered by id),
     *  per-source sequence stamps, per-channel delivery horizons,
     *  the duplicate-delivery windows, pending inbox arrivals, the
     *  sends and delivery-statistic deltas a pause left uncommitted,
     *  and any implementation state (serializeExtra). Serial phase
     *  only. */
    void serializeState(ByteWriter &w) const;

  protected:
    /**
     * Commit-phase route modelling: absolute arrival tick of a
     * cross-node message sent at @p snow. May advance mutable model
     * state (link occupancy horizons, the jitter RNG); calls are
     * made in canonical batch order, which keeps that state
     * schedule-independent.
     */
    virtual Tick routeArrival(Tick snow, const NetMsg &msg) = 0;

    /** Route length in hops for traffic accounting. */
    virtual unsigned hopsOf(const NetMsg &msg) const = 0;

    /** Implementation-specific witness state appended by concrete
     *  networks (RNG stream, link occupancy horizons, ...). */
    virtual void serializeExtra(ByteWriter &) const {}

    int _numNodes;

  private:
    /** A buffered cross-node send awaiting the commit phase. */
    struct PendingSend
    {
        Tick snow = 0;
        MsgPtr msg;
    };

    /** One pending arrival in a destination inbox. The canonical
     *  delivery order within an arrival tick is (snow, src, seq,
     *  copy); `copy` disambiguates fault duplicates (1) and
     *  retransmission attempts (2 + attempt) from originals (0). */
    struct InboxEntry
    {
        Tick snow = 0;
        std::uint64_t seq = 0;
        int src = -1;
        std::uint8_t copy = 0;
        std::uint64_t id = 0;
        MsgPtr msg;
    };

    /** Arrival-tick buckets for one destination node. Owned by the
     *  node's shard during an epoch; written by the commit phase
     *  between epochs. */
    using Inbox = std::map<Tick, std::vector<InboxEntry>>;

    /** Per-destination ledger slice: entries keyed by composite id,
     *  counter for the low id bits. */
    struct DstLedger
    {
        std::map<std::uint64_t, InFlightMsg, std::less<std::uint64_t>,
                 ArenaAllocator<std::pair<const std::uint64_t,
                                          InFlightMsg>>>
            entries;
        std::uint64_t nextId = 0;
    };

    /** Delivery statistics accumulated on the destination shard's
     *  thread, folded into the shared counters by the commit phase
     *  in node order. */
    struct NodeDelta
    {
        std::uint64_t localMessages = 0;
        std::array<std::uint64_t, numVNets> dup{};
        std::array<std::uint64_t, numVNets> ooo{};
    };

    std::uint64_t recordLedger(const NetMsg &msg, Tick snow,
                               bool dropped);

    /** Insert an arrival into @p dst's inbox at tick @p at. */
    void inboxInsert(int dst, Tick at, InboxEntry entry);

    /** Retire the ledger entry and update the duplicate /
     *  out-of-order delivery statistics as the entry arrives at
     *  tick @p at (destination shard's thread). */
    void accountDelivery(const InboxEntry &e, Tick at);

    /** Account traffic for a cross-node message travelling @p hops
     *  hops (commit phase — touches shared counters). */
    void
    accountTraffic(const NetMsg &msg, unsigned hops)
    {
        ++_messages;
        std::uint64_t fh = std::uint64_t(msg.flits) * hops;
        _flitHops += fh;
        *_vnetFlitHops[std::size_t(msg.vnet)] += fh;
    }

    /** Process one canonically-ordered batch element: fault draw,
     *  route, ledger, inbox. Serial phase. */
    void commitOne(Tick snow, MsgPtr msg);

    /** Schedule retransmission attempt @p attempt of a dropped
     *  message after its (bounded exponential) backoff. The ledger
     *  entry @p id stays `dropped` until a retransmission lands.
     *  Single-shard only (rides the primary event queue). */
    void scheduleRetransmit(std::uint64_t id, MsgPtr msg,
                            Tick latency, unsigned attempt);

    std::vector<Handler> _handlers;
    FaultInjector *_faults = nullptr;
    RecoveryConfig _recovery{};
    /** Per-source SPSC rings: producer = owning shard thread,
     *  consumer = the serial commit phase. unique_ptr because the
     *  ring is address-stable/non-movable. */
    std::vector<std::unique_ptr<SpscQueue<PendingSend>>> _rings;
    std::vector<Inbox> _inbox;            //!< per destination node
    std::vector<DstLedger> _ledgers;      //!< per destination node
    std::vector<NodeDelta> _deltas;       //!< per destination node
    std::vector<std::uint64_t> _srcSeq;   //!< per-source stamps
    std::vector<DedupFilter> _dedup;      //!< per-dst dup tracking
    std::vector<std::uint64_t> _maxDelivered; //!< per-channel max seq
    Counter &_messages;
    Counter &_flitHops;
    Counter &_faultDropped;
    Counter &_faultDuplicated;
    Counter &_faultDelayed;
    Counter &_retransmits;
    Counter &_recovered;
    std::array<Counter *, numVNets> _dupDelivered;
    std::array<Counter *, numVNets> _oooDelivered;
    std::array<Counter *, numVNets> _vnetFlitHops;
    Histogram &_retxBackoff;
};

} // namespace wb

#endif // WB_NETWORK_NETWORK_HH
