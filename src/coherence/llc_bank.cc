#include "coherence/llc_bank.hh"

#include <algorithm>
#include <bit>
#include <cassert>

#include "obs/flight_recorder.hh"
#include "obs/metrics.hh"
#include "sim/log.hh"

namespace wb
{

LLCBank::LLCBank(std::string name, EventQueue *eq,
                 StatRegistry *stats, BankId id,
                 const MemSystemConfig &cfg, Network *net,
                 MainMemory *memory)
    : SimObject(std::move(name), eq, stats), _id(id), _cfg(cfg),
      _net(net), _memory(memory),
      _array(cfg.llcBankSize, cfg.llcAssoc, cfg.numBanks),
      _reads(statGroup().counter("reads")),
      _writes(statGroup().counter("writes")),
      _wbEntries(statGroup().counter("writersBlockEntries")),
      _wbEncounters(statGroup().counter("writersBlockEncounters")),
      _uncacheableReads(statGroup().counter("uncacheableReads")),
      _redirAcks(statGroup().counter("redirAcks")),
      _recalls(statGroup().counter("recalls")),
      _memFetches(statGroup().counter("memFetches")),
      _memWritebacks(statGroup().counter("memWritebacks")),
      _deferrals(statGroup().counter("deferrals")),
      _staleDrops(statGroup().counter("staleDrops")),
      _evbufFallbacks(statGroup().counter("evbufFallbacks")),
      _dedupHits(statGroup().counter("dedupHits")),
      _dupRequestsIgnored(statGroup().counter("dupRequestsIgnored"))
{}

void
LLCBank::registerMetrics(MetricsRegistry &metrics)
{
    metrics.addGauge(name() + ".evictionBuffer", "entries", [this] {
        return std::uint64_t(evictionBufferUse());
    });
    metrics.addGauge(name() + ".retryQueue", "entries", [this] {
        return std::uint64_t(retryQueueUse());
    });
}

MsgPtr
LLCBank::make(CohType t, Addr line, int dst)
{
    return makeCohMsg(t, line, _id, dst);
}

void
LLCBank::send(MsgPtr msg, Tick lat)
{
    if (lat == 0) {
        _net->send(std::move(msg), now());
        return;
    }
    eventQueue().scheduleIn(lat, [this, m = std::move(msg)]() mutable {
        _net->send(std::move(m), now());
    });
}

LLCBank::DirEntry *
LLCBank::lookup(Addr line)
{
    auto it = _evbuf.find(line);
    if (it != _evbuf.end())
        return &it->second;
    return _array.find(line);
}

const LLCBank::DirEntry *
LLCBank::lookup(Addr line) const
{
    return const_cast<LLCBank *>(this)->lookup(line);
}

bool
LLCBank::hasEntry(Addr line) const
{
    return lookup(line) != nullptr;
}

bool
LLCBank::peekWord(Addr addr, std::uint64_t &value) const
{
    const DirEntry *e = lookup(lineOf(addr));
    if (!e || !e->haveData)
        return false;
    value = e->data.readWord(addr);
    return true;
}

std::vector<Addr>
LLCBank::cachedLines() const
{
    std::vector<Addr> out;
    _array.forEach([&](Addr line, const DirEntry &e) {
        if (e.haveData)
            out.push_back(line);
    });
    for (const auto &[line, e] : _evbuf)
        if (e.haveData)
            out.push_back(line);
    std::sort(out.begin(), out.end());
    return out;
}

bool
LLCBank::inWritersBlock(Addr line) const
{
    const DirEntry *e = lookup(line);
    return e && (e->state == DirState::WB ||
                 e->state == DirState::WBEvict);
}

namespace
{
const char *
dirStateName(int st)
{
    static const char *names[] = {"I", "S", "EM", "BusyMem",
                                  "BusyRd", "BusyWr", "WB",
                                  "Recalling", "WBEvict"};
    return names[st];
}
} // namespace

void
LLCBank::dumpState(std::ostream &os) const
{
    bool header = false;
    auto dump_entry = [&](Addr line, const DirEntry &e, bool evb) {
        const std::size_t deferred = deferredCount(line);
        if (e.state == DirState::I || e.state == DirState::S ||
            e.state == DirState::EM) {
            if (deferred == 0 && !evb)
                return;
        }
        if (!header) {
            os << name() << ":\n";
            header = true;
        }
        os << "  " << (evb ? "evbuf " : "") << "line=" << std::hex
           << line << std::dec << " st="
           << dirStateName(int(e.state)) << " owner=" << e.owner
           << " sharers=" << std::hex << e.sharers << std::dec
           << " reqor=" << e.reqor
           << " recallPend=" << e.recallPending
           << " deferred=" << deferred
           << " evicting=" << e.evicting << "\n";
    };
    const_cast<CacheArray<DirEntry> &>(_array).forEach(
        [&](Addr line, DirEntry &e) { dump_entry(line, e, false); });
    for (const auto &[line, e] : _evbuf)
        dump_entry(line, e, true);
    if (!_retryQueue.empty()) {
        if (!header)
            os << name() << ":\n";
        os << "  retryQueue=" << _retryQueue.size() << "\n";
    }
}

std::vector<LLCBank::TxnInfo>
LLCBank::transientInfos(Tick now_tick) const
{
    // Every transient entry's line is in _busyLines (noteBusy() runs
    // on each transition into a transient state), so the candidates
    // are that set, the eviction buffer and the deferred table — no
    // walk of the directory array.
    std::vector<Addr> lines(_busyLines.begin(), _busyLines.end());
    for (const auto &kv : _evbuf)
        lines.push_back(kv.first);
    for (const auto &kv : _deferred)
        lines.push_back(kv.first);
    std::sort(lines.begin(), lines.end());
    lines.erase(std::unique(lines.begin(), lines.end()), lines.end());

    std::vector<TxnInfo> out;
    for (Addr line : lines) {
        const DirEntry *e = lookup(line);
        if (!e)
            continue;
        const bool evb = _evbuf.count(line) != 0;
        const std::size_t deferred = deferredCount(line);
        const bool stable = e->state == DirState::I ||
                            e->state == DirState::S ||
                            e->state == DirState::EM;
        if (stable && deferred == 0 && !evb)
            continue;
        TxnInfo i;
        i.line = line;
        i.state = dirStateName(int(e->state));
        i.owner = e->owner;
        i.reqor = e->reqor;
        i.recallPending = e->recallPending;
        i.deferred = deferred;
        i.evbuf = evb;
        i.age = stable ? 0
                       : (now_tick > e->busySince
                              ? now_tick - e->busySince
                              : 0);
        out.push_back(i);
    }
    return out;
}

Addr
LLCBank::firstDeferredLine() const
{
    Addr first = invalidAddr;
    for (const auto &kv : _deferred)
        first = std::min(first, kv.first);
    return first;
}

std::size_t
LLCBank::deferredCount(Addr line) const
{
    if (_deferred.empty())
        return 0;
    auto it = _deferred.find(line);
    return it == _deferred.end() ? 0 : it->second.size();
}

void
LLCBank::defer(const CohMsg &m)
{
    ++_deferrals;
    _deferred[m.line].push(cloneCohMsg(m));
}

Tick
LLCBank::oldestTransactionAge(Tick now_tick) const
{
    // Sweep the candidate set instead of the whole directory: every
    // transition into a transient state calls noteBusy(), so the
    // candidates are a superset of the transient entries and stable
    // lines can be dropped as they are encountered. This poll runs
    // every watchdogPollCycles; a full-array scan here was one of
    // the hottest paths in the simulator.
    Tick oldest = 0;
    for (auto it = _busyLines.begin(); it != _busyLines.end();) {
        const DirEntry *e = lookup(*it);
        const bool stable = !e || e->state == DirState::I ||
                            e->state == DirState::S ||
                            e->state == DirState::EM;
        if (stable) {
            // Re-inserted by the next transition if it goes busy
            // again (a stable entry contributes age 0 regardless).
            it = _busyLines.erase(it);
            continue;
        }
        if (now_tick > e->busySince)
            oldest = std::max(oldest, now_tick - e->busySince);
        ++it;
    }
    return oldest;
}

void
LLCBank::tick()
{
    if (_retryQueue.empty())
        return;
    // Requests that fail again re-queue behind this batch; swapping
    // with a member keeps both buffers' storage across ticks.
    _retryDraining.swap(_retryQueue);
    while (!_retryDraining.empty())
        handleRequest(_retryDraining.pop());
}

// ---------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------

void
LLCBank::handleMessage(MsgPtr msg)
{
    auto &m = static_cast<CohMsg &>(*msg);
    WB_TRACE(LogFlag::Directory, now(), name().c_str(),
             "rx %s line %llx from %d", cohTypeName(m.type),
             static_cast<unsigned long long>(m.line), m.src);
    // Duplicate-delivery sink: a fault-duplicated copy carries the
    // original's per-source sequence stamp, so re-seeing a stamp
    // means this exact delivery already happened. Discarding here
    // makes every duplicated delivery provably idempotent.
    if (_recovery.enabled && !_dedup.accept(m.src, m.seq)) {
        ++_dedupHits;
        WB_EVENT(recorder(), now(), EvKind::DedupDrop, EvUnit::LLC,
                 _id, m.line);
        return;
    }
    switch (m.type) {
      case CohType::GetS:
      case CohType::GetX:
      case CohType::Upgrade:
      case CohType::GetU:
      case CohType::PutE:
      case CohType::PutM:
      case CohType::PutS:
        handleRequest(std::move(msg));
        return;
      default:
        break;
    }
    DirEntry *e = lookup(m.line);
    if (!e) {
        ++_staleDrops;
        return;
    }
    switch (m.type) {
      case CohType::InvNack: handleInvNack(*e, m); break;
      case CohType::RecallAck: handleRecallAck(*e, m); break;
      case CohType::AckRelease: handleAckRelease(*e, m); break;
      case CohType::CopyData: handleCopyData(*e, m); break;
      case CohType::Unblock: handleUnblock(*e, m); break;
      default:
        panic("LLC %d: unexpected message %s", _id,
              cohTypeName(m.type));
    }
}

void
LLCBank::handleRequest(MsgPtr msg)
{
    auto &m = static_cast<CohMsg &>(*msg);
    if (auto *fr = recorder()) {
        // Serialisation-point stamp for the latency breakdown;
        // first-seen wins, so deferred/retried requests re-entering
        // here don't move it.
        if (m.type == CohType::GetS || m.type == CohType::GetX ||
            m.type == CohType::Upgrade || m.type == CohType::GetU) {
            const int reqc = m.requestor >= 0 ? m.requestor : m.src;
            fr->txnDirSeen(now(), _id, reqc, m.line,
                           m.type == CohType::GetU);
        }
    }
    DirEntry *e = lookup(m.line);

    if (!e) {
        if (m.type == CohType::PutE || m.type == CohType::PutM ||
            m.type == CohType::PutS) {
            // The writeback raced with a recall that already secured
            // the data; tell the evictor to discard its buffer.
            send(make(CohType::WBStale, m.line, m.src),
                 _cfg.llcHitLatency);
            return;
        }
        e = allocate(m.line);
        if (!e) {
            // No directory slot and no eviction-buffer room: reads
            // become uncacheable (Section 3.5.1); writes wait.
            if (m.type == CohType::GetS || m.type == CohType::GetU) {
                ++_evbufFallbacks;
                serveUncacheableFromMemory(m);
            } else {
                _retryQueue.push(std::move(msg));
            }
            return;
        }
        fetchFromMemory(*e, m.line);
        _deferred[m.line].push(std::move(msg));
        return;
    }

    switch (m.type) {
      case CohType::GetS: handleGetS(*e, m); break;
      case CohType::GetX:
      case CohType::Upgrade: handleWrite(*e, m); break;
      case CohType::GetU: handleGetU(*e, m); break;
      case CohType::PutE:
      case CohType::PutM:
      case CohType::PutS: handlePut(*e, m); break;
      default:
        panic("LLC %d: bad request %s", _id, cohTypeName(m.type));
    }
}

// ---------------------------------------------------------------
// Reads
// ---------------------------------------------------------------

void
LLCBank::grantRead(DirEntry &e, CohMsg &m, bool exclusive)
{
    assert(e.haveData);
    auto rsp = make(CohType::Data, m.line, m.src);
    auto *cr = static_cast<CohMsg *>(rsp.get());
    cr->hasData = true;
    cr->data = e.data;
    cr->exclusive = exclusive;
    cr->flits = dataFlits;
    send(std::move(rsp), _cfg.llcHitLatency);

    e.state = DirState::BusyRd;
    e.busySince = now();
    noteBusy(m.line);
    e.reqor = m.src;
    e.grantExclusive = exclusive;
    e.copyDataPending = false;
    e.unblockSeen = false;
}

void
LLCBank::handleGetS(DirEntry &e, CohMsg &m)
{
    ++_reads;
    // An ARQ re-issue may race with its own original grant. If this
    // requestor already owns the line its first GetS completed
    // (exclusive grant + Unblock), and if the directory is mid-read
    // for this same requestor the grant is still in flight (the
    // transport retransmits dropped responses). Either way the retry
    // is stale — ignore it rather than forwarding the owner a
    // request from itself or starting a second transaction.
    if (_recovery.enabled && m.retry > 0 &&
        ((e.state == DirState::EM && e.owner == m.src) ||
         (e.state == DirState::BusyRd && e.reqor == m.src))) {
        ++_dupRequestsIgnored;
        return;
    }
    switch (e.state) {
      case DirState::I:
        grantRead(e, m, true);
        return;
      case DirState::S:
        grantRead(e, m, false);
        return;
      case DirState::EM: {
        e.txnId = newTxn();
        e.state = DirState::BusyRd;
        e.busySince = now();
        noteBusy(m.line);
        e.reqor = m.src;
        e.grantExclusive = false;
        e.copyDataPending = true;
        e.unblockSeen = false;
        e.oldOwner = e.owner;
        e.oldOwnerRetained = true;
        auto fwd = make(CohType::FwdGetS, m.line, e.owner);
        auto *cf = static_cast<CohMsg *>(fwd.get());
        cf->requestor = m.src;
        cf->txnId = e.txnId;
        send(std::move(fwd), _cfg.llcHitLatency);
        return;
      }
      case DirState::WB:
      case DirState::WBEvict:
        ++_uncacheableReads;
        sendUData(e.data, m.line, m.src, false, _cfg.llcHitLatency);
        return;
      default:
        defer(m);
        return;
    }
}

void
LLCBank::handleGetU(DirEntry &e, CohMsg &m)
{
    ++_reads;
    // A GetU may be bounced back by an ex-owner whose writeback
    // raced with the forward; the original requestor rides along.
    if (m.requestor < 0)
        m.requestor = m.src;
    switch (e.state) {
      case DirState::I:
      case DirState::S:
      case DirState::WB:
      case DirState::WBEvict:
        ++_uncacheableReads;
        sendUData(e.data, m.line, m.requestor, true,
                  _cfg.llcHitLatency);
        return;
      case DirState::EM: {
        auto fwd = make(CohType::FwdGetU, m.line, e.owner);
        auto *cf = static_cast<CohMsg *>(fwd.get());
        cf->requestor = m.requestor;
        send(std::move(fwd), _cfg.llcHitLatency);
        return;
      }
      default:
        defer(m);
        return;
    }
}

void
LLCBank::sendUData(const DataBlock &data, Addr line, int dst,
                   bool from_getu, Tick extra_lat)
{
    auto rsp = make(CohType::UData, line, dst);
    auto *cr = static_cast<CohMsg *>(rsp.get());
    cr->hasData = true;
    cr->data = data;
    cr->fromGetU = from_getu;
    cr->flits = dataFlits;
    send(std::move(rsp), extra_lat ? extra_lat : 1);
}

void
LLCBank::serveUncacheableFromMemory(CohMsg &m)
{
    // Read memory at *service* time, not request time: the value a
    // tear-off copy delivers must be current when it leaves the bank
    // (see DESIGN.md, SoS staleness argument).
    const Addr line = m.line;
    const int dst = m.type == CohType::GetU && m.requestor >= 0
                        ? m.requestor
                        : m.src;
    const bool from_getu = m.type == CohType::GetU;
    ++_memFetches;
    eventQueue().scheduleIn(
        _cfg.memLatency, [this, line, dst, from_getu]() {
            ++_uncacheableReads;
            sendUData(_memory->read(line), line, dst, from_getu);
        });
}

// ---------------------------------------------------------------
// Writes
// ---------------------------------------------------------------

void
LLCBank::handleWrite(DirEntry &e, CohMsg &m)
{
    ++_writes;
    const int writer = m.src;
    // Idempotent handling of re-seen write requests under recovery:
    // a write the directory is already processing for this writer
    // (BusyWr/WB, grant or hint in flight — the transport recovers
    // dropped responses) or has already completed (EM with this
    // writer as owner) must not start a second transaction.
    if (_recovery.enabled && m.retry > 0 &&
        ((e.state == DirState::EM && e.owner == writer) ||
         ((e.state == DirState::BusyWr || e.state == DirState::WB) &&
          e.reqor == writer))) {
        ++_dupRequestsIgnored;
        return;
    }
    switch (e.state) {
      case DirState::I: {
        assert(e.haveData);
        auto rsp = make(CohType::DataX, m.line, writer);
        auto *cr = static_cast<CohMsg *>(rsp.get());
        cr->hasData = true;
        cr->data = e.data;
        cr->ackCount = 0;
        cr->flits = dataFlits;
        send(std::move(rsp), _cfg.llcHitLatency);
        e.state = DirState::BusyWr;
        e.busySince = now();
        noteBusy(m.line);
        e.reqor = writer;
        e.hintSent = false;
        return;
      }
      case DirState::S: {
        const SharerMask targets =
            e.sharers & ~(SharerMask(1) << writer);
        const int n = std::popcount(targets);
        e.txnId = newTxn();
        const bool is_sharer =
            (e.sharers >> writer) & 1;
        if (m.type == CohType::Upgrade && is_sharer) {
            auto rsp = make(CohType::UpgradeAck, m.line, writer);
            static_cast<CohMsg *>(rsp.get())->ackCount = n;
            send(std::move(rsp), _cfg.llcHitLatency);
        } else {
            auto rsp = make(CohType::DataX, m.line, writer);
            auto *cr = static_cast<CohMsg *>(rsp.get());
            cr->hasData = true;
            cr->data = e.data;
            cr->ackCount = n;
            cr->flits = dataFlits;
            send(std::move(rsp), _cfg.llcHitLatency);
        }
        for (int c = 0; c < 32; ++c) {
            if ((targets >> c) & 1) {
                auto inv = make(CohType::Inv, m.line, c);
                auto *ci = static_cast<CohMsg *>(inv.get());
                ci->requestor = writer;
                ci->txnId = e.txnId;
                send(std::move(inv), _cfg.llcHitLatency);
            }
        }
        e.state = DirState::BusyWr;
        e.busySince = now();
        noteBusy(m.line);
        e.reqor = writer;
        e.hintSent = false;
        return;
      }
      case DirState::EM: {
        if (e.owner == writer) {
            if (_recovery.enabled) {
                // Defense in depth: a stale re-seen write that
                // slipped past the retry gate above. The writer
                // already holds the line; ignore.
                ++_dupRequestsIgnored;
                return;
            }
            panic("LLC %d: owner %d re-requesting write permission "
                  "for line %llx (duplicate request?)",
                  _id, writer,
                  static_cast<unsigned long long>(m.line));
        }
        e.txnId = newTxn();
        auto fwd = make(CohType::FwdGetX, m.line, e.owner);
        auto *cf = static_cast<CohMsg *>(fwd.get());
        cf->requestor = writer;
        cf->txnId = e.txnId;
        send(std::move(fwd), _cfg.llcHitLatency);
        e.state = DirState::BusyWr;
        e.busySince = now();
        noteBusy(m.line);
        e.reqor = writer;
        e.hintSent = false;
        return;
      }
      case DirState::WB:
      case DirState::WBEvict:
        // A write that *encounters* a WritersBlock: defer and hint.
        ++_wbEncounters;
        sendBlockedHint(m.line, writer);
        [[fallthrough]];
      default:
        defer(m);
        return;
    }
}

void
LLCBank::sendBlockedHint(Addr line, int dst)
{
    send(make(CohType::BlockedHint, line, dst), 1);
}

// ---------------------------------------------------------------
// Writebacks
// ---------------------------------------------------------------

void
LLCBank::handlePut(DirEntry &e, CohMsg &m)
{
    if (m.type == CohType::PutS) {
        switch (e.state) {
          case DirState::I:
          case DirState::S:
          case DirState::EM: {
            const SharerMask bit = SharerMask(1) << m.src;
            if (e.state == DirState::S && (e.sharers & bit)) {
                e.sharers &= ~bit;
                if (e.sharers == 0)
                    e.state = DirState::I;
                send(make(CohType::WBAck, m.line, m.src),
                     _cfg.llcHitLatency);
            } else {
                // Raced with a transaction that already removed us.
                send(make(CohType::WBStale, m.line, m.src),
                     _cfg.llcHitLatency);
            }
            return;
          }
          default:
            // In-flight transaction involves this sharer: resolve
            // the Put afterwards (the sharer still answers the
            // invalidation from its LQ state).
            defer(m);
            return;
        }
    }
    switch (e.state) {
      case DirState::EM:
        if (e.owner == m.src) {
            if (m.type == CohType::PutM) {
                assert(m.hasData);
                e.data = m.data;
                e.dirty = true;
                e.haveData = true;
            }
            e.owner = -1;
            e.state = DirState::I;
            send(make(CohType::WBAck, m.line, m.src),
                 _cfg.llcHitLatency);
            if (e.evicting)
                finishEviction(m.line);
            return;
        }
        [[fallthrough]];
      case DirState::I:
      case DirState::S:
        // Stale writeback: ownership already moved on.
        send(make(CohType::WBStale, m.line, m.src),
             _cfg.llcHitLatency);
        return;
      default:
        // A transaction involving the old owner is in flight; the
        // owner answers forwards from its writeback buffer and this
        // Put resolves (usually to WBStale) afterwards.
        defer(m);
        return;
    }
}

// ---------------------------------------------------------------
// WritersBlock machinery
// ---------------------------------------------------------------

void
LLCBank::enterWritersBlock(DirEntry &e, Addr line, DirState st)
{
    assert(st == DirState::WB || st == DirState::WBEvict);
    e.state = st;
    e.busySince = now();
    noteBusy(line);
    ++_wbEntries;
    WB_EVENT(recorder(), now(), EvKind::WbEnter, EvUnit::LLC, _id,
             line);

    // Serve every deferred read immediately with tear-off data and
    // hint every deferred writer: from now on reads must not wait
    // behind the blocked write (deadlock avoidance, Section 3.4).
    if (auto it = _deferred.find(line); it != _deferred.end()) {
        it->second.retain([&](const MsgPtr &d) {
            const auto &dm = static_cast<const CohMsg &>(*d);
            if (dm.type == CohType::GetS ||
                dm.type == CohType::GetU) {
                ++_uncacheableReads;
                const int dst = dm.type == CohType::GetU &&
                                        dm.requestor >= 0
                                    ? dm.requestor
                                    : dm.src;
                sendUData(e.data, line, dst,
                          dm.type == CohType::GetU);
                return false;
            }
            if (dm.type == CohType::GetX ||
                dm.type == CohType::Upgrade) {
                ++_wbEncounters;
                sendBlockedHint(line, dm.src);
            }
            return true;
        });
        if (it->second.empty())
            _deferred.erase(it);
    }

    if (st == DirState::WB && !e.hintSent) {
        e.hintSent = true;
        sendBlockedHint(line, e.reqor);
    }
}

void
LLCBank::handleInvNack(DirEntry &e, CohMsg &m)
{
    switch (e.state) {
      case DirState::BusyWr:
      case DirState::Recalling:
      case DirState::WB:
      case DirState::WBEvict:
        // Nack+Data: the invalidated exclusive copy lands at the LLC
        // so tear-off reads observe the latest pre-write value
        // (Figure 3.B, step 3).
        if (m.hasData) {
            e.data = m.data;
            e.dirty = true;
            e.haveData = true;
        }
        break;
      default:
        // The release overtook this Nack and the transaction already
        // completed (entry now stable); drop, data would be stale.
        ++_staleDrops;
        return;
    }
    if (e.state == DirState::BusyWr) {
        enterWritersBlock(e, m.line, DirState::WB);
    } else if (e.state == DirState::Recalling) {
        enterWritersBlock(e, m.line, DirState::WBEvict);
        if (e.recallPending == 0)
            finishEviction(m.line);
    }
    // WB / WBEvict: an additional nacker; nothing more to do.
}

void
LLCBank::handleAckRelease(DirEntry &e, CohMsg &m)
{
    switch (e.state) {
      case DirState::WB:
      case DirState::BusyWr: {
        // Redirect to the pending writer (Figure 3.B, step 5).
        ++_redirAcks;
        auto ack = make(CohType::RedirAck, m.line, e.reqor);
        send(std::move(ack), 1);
        return;
      }
      case DirState::WBEvict:
        if (e.recallPending <= 0) {
            if (_recovery.enabled) {
                ++_staleDrops; // re-seen release; already counted
                return;
            }
            panic("LLC %d: AckRelease for line %llx with no recall "
                  "pending (duplicate release?)",
                  _id, static_cast<unsigned long long>(m.line));
        }
        if (--e.recallPending == 0)
            finishEviction(m.line);
        return;
      case DirState::Recalling:
        // Release overtook its Nack: account it, but do not finish
        // before the Nack (it may carry the owner's data).
        if (e.recallPending <= 0) {
            if (_recovery.enabled) {
                ++_staleDrops; // re-seen release; already counted
                return;
            }
            panic("LLC %d: AckRelease for line %llx with no recall "
                  "pending (duplicate release?)",
                  _id, static_cast<unsigned long long>(m.line));
        }
        --e.recallPending;
        return;
      default:
        ++_staleDrops;
        return;
    }
}

void
LLCBank::handleRecallAck(DirEntry &e, CohMsg &m)
{
    if ((e.state != DirState::Recalling &&
         e.state != DirState::WBEvict) ||
        m.txnId != e.txnId) {
        ++_staleDrops;
        return;
    }
    if (m.hasData) {
        e.data = m.data;
        e.dirty = e.dirty || m.dirty;
        e.haveData = true;
    }
    if (e.recallPending <= 0) {
        if (_recovery.enabled) {
            ++_staleDrops; // re-seen recall ack; already counted
            return;
        }
        panic("LLC %d: RecallAck for line %llx with no recall "
              "pending (duplicate ack?)",
              _id, static_cast<unsigned long long>(m.line));
    }
    if (--e.recallPending == 0)
        finishEviction(m.line);
}

// ---------------------------------------------------------------
// Transaction completion
// ---------------------------------------------------------------

void
LLCBank::handleCopyData(DirEntry &e, CohMsg &m)
{
    if (e.state != DirState::BusyRd || m.txnId != e.txnId) {
        ++_staleDrops;
        return;
    }
    e.data = m.data;
    e.dirty = true;
    e.haveData = true;
    e.copyDataPending = false;
    e.oldOwnerRetained = m.ownerRetained;
    maybeFinishRead(e, m.line);
}

void
LLCBank::handleUnblock(DirEntry &e, CohMsg &m)
{
    switch (e.state) {
      case DirState::BusyRd:
        e.unblockSeen = true;
        maybeFinishRead(e, m.line);
        return;
      case DirState::BusyWr:
      case DirState::WB:
        if (e.state == DirState::WB) {
            if (auto *fr = recorder())
                fr->wbExit(now(), _id, m.line, now() - e.busySince);
        }
        e.owner = e.reqor;
        e.sharers = 0;
        e.state = DirState::EM;
        finishTransaction(e, m.line);
        return;
      default:
        ++_staleDrops;
        return;
    }
}

void
LLCBank::maybeFinishRead(DirEntry &e, Addr line)
{
    if (!e.unblockSeen || e.copyDataPending)
        return;
    if (e.grantExclusive) {
        e.state = DirState::EM;
        e.owner = e.reqor;
        e.sharers = 0;
    } else {
        e.state = DirState::S;
        e.sharers |= SharerMask(1) << e.reqor;
        if (e.oldOwner >= 0 && e.oldOwnerRetained)
            e.sharers |= SharerMask(1) << e.oldOwner;
        e.owner = -1;
    }
    e.oldOwner = -1;
    finishTransaction(e, line);
}

void
LLCBank::finishTransaction(DirEntry &e, Addr line)
{
    e.reqor = -1;
    e.grantExclusive = false;
    e.copyDataPending = false;
    e.unblockSeen = false;
    e.hintSent = false;
    if (e.evicting) {
        startRecall(e, line);
        return;
    }
    replayDeferred(line);
}

void
LLCBank::replayDeferred(Addr line)
{
    // Re-find the queue every round: a replayed request may finish
    // an eviction, which drains this line's queue itself.
    while (true) {
        auto it = _deferred.find(line);
        if (it == _deferred.end())
            return;
        const DirEntry *e = lookup(line);
        assert(e && "deferred requests on a line with no entry");
        const DirState st = e->state;
        if (st != DirState::I && st != DirState::S &&
            st != DirState::EM)
            return;
        MsgPtr m = it->second.pop();
        if (it->second.empty())
            _deferred.erase(it);
        handleRequest(std::move(m));
    }
}

// ---------------------------------------------------------------
// Allocation / eviction
// ---------------------------------------------------------------

LLCBank::DirEntry *
LLCBank::allocate(Addr line)
{
    if (!_array.needVictim(line)) {
        DirEntry &e = _array.allocate(line);
        return &e;
    }

    // Pass 1: an LLC-only line can be dropped on the spot.
    Addr victim = _array.pickVictim(
        line, [](Addr, const DirEntry &d) {
            return d.state == DirState::I;
        });
    if (victim != invalidAddr) {
        // Dropped without finishEviction(): nothing may be queued on
        // it, or the requests would reattach to a later allocation.
        assert(!_deferred.count(victim) &&
               "silent drop of a line with deferred requests");
        DirEntry *v = _array.find(victim);
        if (v->dirty) {
            _memory->write(victim, v->data);
            ++_memWritebacks;
        }
        _array.erase(victim);
        return &_array.allocate(line);
    }

    if (_evbuf.size() >= _cfg.llcEvictionBuffer)
        return nullptr;

    // Pass 2: recall a stable shared/owned line through the eviction
    // buffer so the new miss can claim the slot immediately.
    victim = _array.pickVictim(line, [](Addr, const DirEntry &d) {
        return d.state == DirState::S || d.state == DirState::EM;
    });
    if (victim == invalidAddr) {
        // Pass 3: park a WritersBlock entry in the buffer as-is.
        victim = _array.pickVictim(
            line, [](Addr, const DirEntry &d) {
                return d.state == DirState::WB ||
                       d.state == DirState::WBEvict;
            });
        if (victim == invalidAddr)
            return nullptr; // everything transient; caller retries
        DirEntry *v = _array.find(victim);
        DirEntry moved = std::move(*v);
        _array.erase(victim);
        moved.evicting = true;
        _evbuf.emplace(victim, std::move(moved));
        return &_array.allocate(line);
    }

    DirEntry *v = _array.find(victim);
    DirEntry moved = std::move(*v);
    _array.erase(victim);
    auto [it, ok] = _evbuf.emplace(victim, std::move(moved));
    assert(ok);
    it->second.evicting = true;
    startRecall(it->second, victim);
    return &_array.allocate(line);
}

void
LLCBank::startRecall(DirEntry &e, Addr line)
{
    assert(e.state == DirState::S || e.state == DirState::EM ||
           e.state == DirState::I);
    if (e.state == DirState::I) {
        finishEviction(line);
        return;
    }
    e.evicting = true;
    e.txnId = newTxn();
    SharerMask targets = e.state == DirState::EM
                             ? (SharerMask(1) << e.owner)
                             : e.sharers;
    e.recallPending = std::popcount(targets);
    assert(e.recallPending > 0);
    e.state = DirState::Recalling;
    e.busySince = now();
    noteBusy(line);
    for (int c = 0; c < 32; ++c) {
        if ((targets >> c) & 1) {
            auto rc = make(CohType::Recall, line, c);
            static_cast<CohMsg *>(rc.get())->txnId = e.txnId;
            ++_recalls;
            send(std::move(rc), 1);
        }
    }
}

void
LLCBank::finishEviction(Addr line)
{
    DirEntry *e = lookup(line);
    assert(e);
    if (e->dirty && e->haveData) {
        _memory->write(line, e->data);
        ++_memWritebacks;
    }
    MsgFifo deferred;
    if (auto d = _deferred.find(line); d != _deferred.end()) {
        deferred.swap(d->second);
        _deferred.erase(d);
    }
    auto it = _evbuf.find(line);
    if (it != _evbuf.end())
        _evbuf.erase(it);
    else
        _array.erase(line);
    while (!deferred.empty())
        handleRequest(deferred.pop());
}

// ---------------------------------------------------------------
// Memory
// ---------------------------------------------------------------

void
LLCBank::fetchFromMemory(DirEntry &e, Addr line)
{
    e.state = DirState::BusyMem;
    e.busySince = now();
    noteBusy(line);
    ++_memFetches;
    eventQueue().scheduleIn(
        _cfg.memLatency + _cfg.llcHitLatency, [this, line]() {
            DirEntry *entry = lookup(line);
            assert(entry && entry->state == DirState::BusyMem);
            entry->data = _memory->read(line);
            entry->haveData = true;
            entry->dirty = false;
            entry->state = DirState::I;
            replayDeferred(line);
        });
}

// ---------------------------------------------------------------
// Snapshot witness
// ---------------------------------------------------------------

namespace
{

void
putDirBlock(ByteWriter &w, const DataBlock &b)
{
    for (std::uint64_t v : b.value)
        w.u64(v);
    for (Version v : b.version)
        w.u64(v);
}

void
putCohMsg(ByteWriter &w, const NetMsg &base)
{
    const auto &m = static_cast<const CohMsg &>(base);
    w.i64(m.src);
    w.i64(m.dst);
    w.u8(std::uint8_t(m.vnet));
    w.u32(m.flits);
    w.u64(m.seq);
    w.u8(std::uint8_t(m.type));
    w.u64(m.line);
    w.i64(m.requestor);
    w.i64(m.ackCount);
    w.b(m.exclusive);
    w.u64(m.txnId);
    w.b(m.ownerRetained);
    w.b(m.fromGetU);
    w.i64(m.retry);
    w.b(m.hasData);
    w.b(m.dirty);
    putDirBlock(w, m.data);
}

} // namespace

void
LLCBank::serializeState(ByteWriter &w) const
{
    auto putEntry = [this](ByteWriter &bw, Addr line,
                           const DirEntry &e) {
        bw.u8(std::uint8_t(e.state));
        bw.b(e.haveData);
        bw.b(e.dirty);
        putDirBlock(bw, e.data);
        bw.u32(e.sharers);
        bw.i64(e.owner);
        bw.i64(e.reqor);
        bw.u64(e.txnId);
        bw.b(e.grantExclusive);
        bw.b(e.copyDataPending);
        bw.b(e.unblockSeen);
        bw.b(e.oldOwnerRetained);
        bw.i64(e.oldOwner);
        bw.i64(e.recallPending);
        bw.b(e.hintSent);
        bw.b(e.evicting);
        bw.u64(e.busySince);
        // The entry's deferred list, from the side table: part of
        // the entry's encoding in the llc-<b> section.
        auto d = _deferred.find(line);
        bw.u64(d == _deferred.end() ? 0 : d->second.size());
        if (d != _deferred.end())
            for (const MsgPtr &m : d->second)
                putCohMsg(bw, *m);
    };

    _array.serializeState(w, putEntry);

    std::vector<Addr> lines;
    lines.reserve(_evbuf.size());
    for (const auto &kv : _evbuf)
        lines.push_back(kv.first);
    std::sort(lines.begin(), lines.end());
    w.u64(lines.size());
    for (Addr line : lines) {
        w.u64(line);
        putEntry(w, line, _evbuf.at(line));
    }

    lines.assign(_busyLines.begin(), _busyLines.end());
    std::sort(lines.begin(), lines.end());
    w.u64(lines.size());
    for (Addr line : lines)
        w.u64(line);

    w.u64(_retryQueue.size());
    for (const MsgPtr &m : _retryQueue)
        putCohMsg(w, *m);

    w.u64(_txnCounter);
    _dedup.serializeState(w);
}

} // namespace wb
