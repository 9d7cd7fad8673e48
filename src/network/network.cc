#include "network/network.hh"

#include <algorithm>
#include <cassert>
#include <utility>

#include "obs/flight_recorder.hh"
#include "obs/metrics.hh"

namespace wb
{

namespace
{

/** Pack (src, dst) into the 64-bit event argument. */
std::uint64_t
routeArg(const NetMsg &msg)
{
    return (std::uint64_t(std::uint32_t(msg.src)) << 32) |
           std::uint64_t(std::uint32_t(msg.dst));
}

} // namespace

Network::Network(std::string name, EventQueue *eq,
                 StatRegistry *stats, int num_nodes)
    : SimObject(std::move(name), eq, stats), _numNodes(num_nodes),
      _handlers(std::size_t(num_nodes)),
      _inbox(std::size_t(num_nodes)),
      _ledgers(std::size_t(num_nodes)),
      _deltas(std::size_t(num_nodes)),
      _srcSeq(std::size_t(num_nodes), 0),
      _dedup(std::size_t(num_nodes)),
      _maxDelivered(std::size_t(num_nodes) * std::size_t(num_nodes) *
                        numVNets,
                    0),
      _messages(statGroup().counter("messages", "messages")),
      _flitHops(statGroup().counter("flitHops", "flit-hops")),
      _faultDropped(statGroup().counter("faultDropped")),
      _faultDuplicated(statGroup().counter("faultDuplicated")),
      _faultDelayed(statGroup().counter("faultDelayed")),
      _retransmits(statGroup().counter("retransmits")),
      _recovered(statGroup().counter("recovered")),
      _dupDelivered{&statGroup().counter("dupDeliveredReq"),
                    &statGroup().counter("dupDeliveredFwd"),
                    &statGroup().counter("dupDeliveredResp")},
      _oooDelivered{&statGroup().counter("oooDeliveredReq"),
                    &statGroup().counter("oooDeliveredFwd"),
                    &statGroup().counter("oooDeliveredResp")},
      _vnetFlitHops{&statGroup().counter("flitHopsReq", "flit-hops"),
                    &statGroup().counter("flitHopsFwd", "flit-hops"),
                    &statGroup().counter("flitHopsResp", "flit-hops")},
      _retxBackoff(statGroup().histogram("retxBackoff", "cycles"))
{
    _rings.reserve(std::size_t(num_nodes));
    for (int i = 0; i < num_nodes; ++i)
        _rings.push_back(std::make_unique<SpscQueue<PendingSend>>());
}

Network::~Network() = default;

void
Network::registerMetrics(MetricsRegistry &metrics)
{
    metrics.addGauge(name() + ".inFlight", "messages", [this] {
        return std::uint64_t(inFlight());
    });
}

void
Network::registerNode(int node, Handler handler)
{
    assert(node >= 0 && node < _numNodes);
    _handlers[std::size_t(node)] = std::move(handler);
}

void
Network::setRecovery(const RecoveryConfig &rc)
{
    _recovery = rc;
}

void
Network::markRecovered(std::uint64_t id)
{
    DstLedger &led = _ledgers[std::size_t(id >> 48)];
    auto it = led.entries.find(id);
    if (it == led.entries.end())
        return;
    ++_recovered;
    led.entries.erase(it);
}

std::size_t
Network::inFlight() const
{
    std::size_t n = 0;
    for (const DstLedger &led : _ledgers)
        for (const auto &[id, e] : led.entries)
            if (!e.dropped || e.retxPending)
                ++n;
    return n;
}

std::vector<Network::InFlightMsg>
Network::undelivered() const
{
    std::vector<InFlightMsg> out;
    for (const DstLedger &led : _ledgers)
        for (const auto &[id, e] : led.entries)
            out.push_back(e);
    std::sort(out.begin(), out.end(),
              [](const InFlightMsg &a, const InFlightMsg &b) {
                  return a.id < b.id;
              });
    return out;
}

std::uint64_t
Network::recordLedger(const NetMsg &msg, Tick snow, bool dropped)
{
    DstLedger &led = _ledgers[std::size_t(msg.dst)];
    const std::uint64_t id =
        (std::uint64_t(std::uint16_t(msg.dst)) << 48) | ++led.nextId;
    InFlightMsg &e = led.entries[id];
    e.id = id;
    e.kind = msg.kind();
    e.src = msg.src;
    e.dst = msg.dst;
    e.vnet = int(msg.vnet);
    e.addr = msg.debugAddr();
    e.injectedAt = snow;
    e.dropped = dropped;
    return id;
}

void
Network::inboxInsert(int dst, Tick at, InboxEntry entry)
{
    _inbox[std::size_t(dst)][at].push_back(std::move(entry));
}

void
Network::send(MsgPtr msg, Tick snow)
{
    assert(msg->src >= 0 && msg->src < _numNodes);
    assert(msg->dst >= 0 && msg->dst < _numNodes);
    // Per-source sequence stamp, issued on the owning shard's
    // thread: per-source send order is tile-local, so the stamps are
    // independent of the host-thread schedule. Retransmissions and
    // fault duplicates reuse the original stamp; every fresh
    // injection (including an ARQ re-issue, which is a new request)
    // gets a new one.
    msg->seq = ++_srcSeq[std::size_t(msg->src)];

    WB_EVENT(recorder(), snow, EvKind::NetEnqueue, EvUnit::VNet,
             int(msg->vnet), Addr(msg->debugAddr()), routeArg(*msg));

    if (msg->src != msg->dst) {
        // Cross-node: buffer for the serial commit phase.
        _rings[std::size_t(msg->src)]->push(
            PendingSend{snow, std::move(msg)});
        return;
    }

    // Node-internal transfer (core <-> its co-located LLC bank):
    // never crosses a shard, so it is modelled inline on the calling
    // thread. Fault injection implies a single-shard run, so the
    // fault-path counters below may touch shared state directly.
    const int dst = msg->dst;
    ++_deltas[std::size_t(dst)].localMessages;

    FaultDecision d;
    if (_faults)
        d = _faults->next();

    const Tick arrive = snow + localLatency();
    if (d.drop) {
        ++_faultDropped;
        const std::uint64_t id = recordLedger(*msg, snow, true);
        // Transport recovery covers forwards and responses: they
        // carry multi-party transient state no endpoint can rebuild.
        // A dropped *request* created no directory state, so its
        // owner's ARQ re-issue is the recovery path instead; the
        // teardown reclassifier retires this entry once the
        // transaction provably completed.
        if (_recovery.enabled && msg->vnet != VNet::Request)
            scheduleRetransmit(id, std::move(msg), localLatency(), 0);
        return;
    }
    if (d.extraDelay > 0)
        ++_faultDelayed;
    if (d.duplicate) {
        ++_faultDuplicated;
        const std::uint64_t dup_id = recordLedger(*msg, snow, false);
        inboxInsert(dst, arrive + d.extraDelay + d.dupOffset,
                    InboxEntry{snow, msg->seq, msg->src, 1, dup_id,
                               msg});
    }
    const std::uint64_t id = recordLedger(*msg, snow, false);
    inboxInsert(dst, arrive + d.extraDelay,
                InboxEntry{snow, msg->seq, msg->src, 0, id,
                           std::move(msg)});
}

void
Network::commitOne(Tick snow, MsgPtr msg)
{
    NetMsg &m = *msg;
    accountTraffic(m, hopsOf(m));

    // Route first, fault decision second — a dropped packet still
    // occupied the links it crossed before being eaten (and the
    // legacy single-threaded model ordered it the same way).
    const Tick arrival = routeArrival(snow, m);
    assert(arrival > snow && "route must cost at least one tick");
    const Tick latency = arrival - snow;

    FaultDecision d;
    if (_faults)
        d = _faults->next();

    if (d.drop) {
        ++_faultDropped;
        const std::uint64_t id = recordLedger(m, snow, true);
        if (_recovery.enabled && m.vnet != VNet::Request)
            scheduleRetransmit(id, std::move(msg), latency, 0);
        return;
    }
    if (d.extraDelay > 0)
        ++_faultDelayed;
    if (d.duplicate) {
        ++_faultDuplicated;
        const std::uint64_t dup_id = recordLedger(m, snow, false);
        inboxInsert(m.dst, arrival + d.extraDelay + d.dupOffset,
                    InboxEntry{snow, m.seq, m.src, 1, dup_id, msg});
    }
    const std::uint64_t id = recordLedger(m, snow, false);
    inboxInsert(m.dst, arrival + d.extraDelay,
                InboxEntry{snow, m.seq, m.src, 0, id,
                           std::move(msg)});
}

void
Network::commitSends()
{
    // Drain every source ring, then order the whole batch by the
    // canonical (send-tick, source, sequence) key. The key is unique
    // (seq is per-source monotone) and a pure function of per-source
    // program order, so the processing order — and with it every
    // fault draw, link claim, jitter draw, and ledger id — is
    // independent of how sources were interleaved across threads.
    std::vector<PendingSend> batch;
    for (auto &ring : _rings)
        ring->drain([&](PendingSend &&p) {
            batch.push_back(std::move(p));
        });
    std::sort(batch.begin(), batch.end(),
              [](const PendingSend &a, const PendingSend &b) {
                  if (a.snow != b.snow)
                      return a.snow < b.snow;
                  if (a.msg->src != b.msg->src)
                      return a.msg->src < b.msg->src;
                  return a.msg->seq < b.msg->seq;
              });
    for (PendingSend &p : batch)
        commitOne(p.snow, std::move(p.msg));

    // Fold the per-node delivery-statistic deltas into the shared
    // counters in node order (partition-independent).
    for (NodeDelta &nd : _deltas) {
        _messages += nd.localMessages;
        for (std::size_t v = 0; v < numVNets; ++v) {
            *_dupDelivered[v] += nd.dup[v];
            *_oooDelivered[v] += nd.ooo[v];
        }
        nd = NodeDelta{};
    }
}

void
Network::scheduleRetransmit(std::uint64_t id, MsgPtr msg,
                            Tick latency, unsigned attempt)
{
    DstLedger &led = _ledgers[std::size_t(id >> 48)];
    auto it = led.entries.find(id);
    assert(it != led.entries.end());
    it->second.retxPending = true;
    const Tick backoff = RecoveryConfig::backoff(
        _recovery.retransmitBaseCycles, attempt);
    _retxBackoff.sample(backoff);
    eventQueue().schedule(
        now() + backoff,
        [this, id, latency, attempt, m = std::move(msg)]() mutable {
            DstLedger &dl = _ledgers[std::size_t(id >> 48)];
            auto lit = dl.entries.find(id);
            if (lit == dl.entries.end())
                return; // entry already resolved
            ++_retransmits;
            WB_EVENT(recorder(), now(), EvKind::NetRetransmit,
                     EvUnit::VNet, int(m->vnet),
                     Addr(m->debugAddr()), routeArg(*m));
            // The retry shares the lossy fabric: consult the (one,
            // seeded) injector stream again, so replays stay
            // bit-identical. Only the drop/delay outcomes apply —
            // duplicating a retransmission is equivalent to
            // duplicating the original, which endpoint dedup
            // absorbs anyway.
            FaultDecision d;
            if (_faults)
                d = _faults->next();
            if (d.drop) {
                ++_faultDropped;
                if (attempt + 1 < _recovery.retransmitBudget) {
                    scheduleRetransmit(id, std::move(m), latency,
                                       attempt + 1);
                } else {
                    // Budget exhausted: surrender the entry to the
                    // leak check (classified verdict, never a
                    // silent hang).
                    lit->second.retxPending = false;
                }
                return;
            }
            if (d.extraDelay > 0)
                ++_faultDelayed;
            const Tick fired = now();
            const std::uint8_t copy = std::uint8_t(
                2 + (attempt < 253u ? attempt : 253u));
            const int dst = m->dst;
            const Tick at = fired + latency + d.extraDelay;
            inboxInsert(dst, at,
                        InboxEntry{fired, m->seq, m->src, copy, id,
                                   std::move(m)});
        },
        EventPriority::Delivery);
}

void
Network::accountDelivery(const InboxEntry &e, Tick at)
{
    const NetMsg &msg = *e.msg;
    WB_EVENT(recorder(), at, EvKind::NetDeliver, EvUnit::VNet,
             int(msg.vnet), Addr(msg.debugAddr()), routeArg(msg));

    DstLedger &led = _ledgers[std::size_t(msg.dst)];
    auto it = led.entries.find(e.id);
    if (it != led.entries.end()) {
        if (it->second.dropped)
            ++_recovered; // a retransmission landed (single-shard)
        led.entries.erase(it);
    }

    // Delivery-order statistics (always on): duplicated deliveries
    // and per-channel sequence inversions, split by virtual network.
    // Accumulated into the destination node's delta — this runs on
    // the destination shard's thread.
    NodeDelta &nd = _deltas[std::size_t(msg.dst)];
    const auto v = std::size_t(msg.vnet);
    if (!_dedup[std::size_t(msg.dst)].accept(msg.src, msg.seq)) {
        ++nd.dup[v];
    } else if (msg.seq != 0) {
        const std::size_t slot =
            (std::size_t(msg.src) * std::size_t(_numNodes) +
             std::size_t(msg.dst)) *
                numVNets +
            v;
        std::uint64_t &max_seen = _maxDelivered[slot];
        if (msg.seq < max_seen)
            ++nd.ooo[v];
        else
            max_seen = msg.seq;
    }
}

void
Network::scheduleDeliveries(int node, Tick t, EventQueue &eq)
{
    Inbox &box = _inbox[std::size_t(node)];
    if (box.empty())
        return;
    assert(box.begin()->first >= t && "missed a delivery tick");
    auto it = box.begin();
    if (it->first != t)
        return;
    std::vector<InboxEntry> entries = std::move(it->second);
    box.erase(it);

    // Canonical within-tick delivery order.
    std::sort(entries.begin(), entries.end(),
              [](const InboxEntry &a, const InboxEntry &b) {
                  if (a.snow != b.snow)
                      return a.snow < b.snow;
                  if (a.src != b.src)
                      return a.src < b.src;
                  if (a.seq != b.seq)
                      return a.seq < b.seq;
                  return a.copy < b.copy;
              });

    assert(_handlers[std::size_t(node)] &&
           "destination node has no handler");
    Handler *handler = &_handlers[std::size_t(node)];
    for (InboxEntry &e : entries) {
        eq.schedule(
            t,
            [this, handler, t, ent = std::move(e)]() mutable {
                accountDelivery(ent, t);
                (*handler)(std::move(ent.msg));
            },
            EventPriority::Delivery);
    }
}

void
Network::deliverTick(Tick t, EventQueue &eq)
{
    commitSends();
    for (int node = 0; node < _numNodes; ++node)
        scheduleDeliveries(node, t, eq);
}

Tick
Network::nextArrivalTick() const
{
    Tick t = maxTick;
    for (const Inbox &box : _inbox)
        if (!box.empty() && box.begin()->first < t)
            t = box.begin()->first;
    return t;
}

Tick
Network::drain(EventQueue &eq, Tick limit)
{
    for (;;) {
        commitSends();
        const Tick t =
            std::min(eq.nextTick(), nextArrivalTick());
        if (t == maxTick || t > limit)
            break;
        for (int node = 0; node < _numNodes; ++node)
            scheduleDeliveries(node, t, eq);
        eq.runUntil(t);
    }
    return eq.now();
}

void
Network::serializeState(ByteWriter &w) const
{
    // Per-destination ledger slices, each already in ascending
    // composite-id order (std::map).
    std::size_t total = 0;
    for (const DstLedger &led : _ledgers) {
        w.u64(led.nextId);
        total += led.entries.size();
    }
    w.u64(total);
    for (const DstLedger &led : _ledgers) {
        for (const auto &[id, e] : led.entries) {
            w.u64(id);
            w.str(e.kind);
            w.i64(e.src);
            w.i64(e.dst);
            w.i64(e.vnet);
            w.u64(e.addr);
            w.u64(e.injectedAt);
            w.b(e.dropped);
            w.b(e.retxPending);
        }
    }
    w.u64(_srcSeq.size());
    for (std::uint64_t s : _srcSeq)
        w.u64(s);
    w.u64(_maxDelivered.size());
    for (std::uint64_t s : _maxDelivered)
        w.u64(s);
    for (const DedupFilter &f : _dedup)
        f.serializeState(w);
    // Pending inbox arrivals (canonical order within each bucket).
    for (const Inbox &box : _inbox) {
        w.u64(box.size());
        for (const auto &[at, vec] : box) {
            w.u64(at);
            w.u64(vec.size());
            std::vector<InboxEntry> sorted = vec;
            std::sort(sorted.begin(), sorted.end(),
                      [](const InboxEntry &a, const InboxEntry &b) {
                          if (a.snow != b.snow)
                              return a.snow < b.snow;
                          if (a.src != b.src)
                              return a.src < b.src;
                          if (a.seq != b.seq)
                              return a.seq < b.seq;
                          return a.copy < b.copy;
                      });
            for (const InboxEntry &e : sorted) {
                w.u64(e.snow);
                w.u64(e.seq);
                w.i64(e.src);
                w.u8(e.copy);
                w.u64(e.id);
            }
        }
    }
    // A pause off the commit grid leaves sends in the rings and
    // delivery statistics unfolded (System::runEpoch).
    for (const auto &ring : _rings) {
        ring->forEach([&w](const PendingSend &p) {
            const NetMsg &m = *p.msg;
            w.b(true);
            w.u64(p.snow);
            w.u64(m.seq);
            w.str(m.kind());
            w.i64(m.dst);
            w.i64(int(m.vnet));
            w.u32(m.flits);
            w.u64(m.debugAddr());
        });
        w.b(false);
    }
    for (const NodeDelta &nd : _deltas) {
        w.u64(nd.localMessages);
        for (std::size_t v = 0; v < numVNets; ++v) {
            w.u64(nd.dup[v]);
            w.u64(nd.ooo[v]);
        }
    }
    serializeExtra(w);
}

} // namespace wb
