#include "coherence/l1_controller.hh"

#include <algorithm>
#include <cassert>

#include "obs/flight_recorder.hh"
#include "obs/metrics.hh"
#include "sim/log.hh"

namespace wb
{

L1Controller::L1Controller(std::string name, EventQueue *eq,
                           StatRegistry *stats, CoreId id,
                           const MemSystemConfig &cfg, Network *net,
                           int num_banks)
    : SimObject(std::move(name), eq, stats), _id(id), _cfg(cfg),
      _net(net), _numBanks(num_banks),
      _array(cfg.l2Size, cfg.l2Assoc),
      _l1Tags(cfg.l1Size, cfg.l1Assoc),
      _hitsL1(statGroup().counter("hitsL1")),
      _hitsL2(statGroup().counter("hitsL2")),
      _misses(statGroup().counter("misses")),
      _getS(statGroup().counter("getS")),
      _getX(statGroup().counter("getX")),
      _upgrades(statGroup().counter("upgrades")),
      _getU(statGroup().counter("getU")),
      _invsReceived(statGroup().counter("invsReceived")),
      _nacksSent(statGroup().counter("nacksSent")),
      _tearoffUsed(statGroup().counter("tearoffUsed")),
      _tearoffRetry(statGroup().counter("tearoffRetry")),
      _blockedHints(statGroup().counter("blockedHints")),
      _puts(statGroup().counter("puts")),
      _putsShared(statGroup().counter("putsShared")),
      _silentEvictions(statGroup().counter("silentEvictions")),
      _stores(statGroup().counter("stores")),
      _ackReleases(statGroup().counter("ackReleases")),
      _prefetches(statGroup().counter("prefetches")),
      _dedupHits(statGroup().counter("dedupHits")),
      _arqReissues(statGroup().counter("arqReissues")),
      _arqRecovered(statGroup().counter("arqRecovered")),
      _orphansAbsorbed(statGroup().counter("orphansAbsorbed")),
      _missLatency(statGroup().histogram("missLatency", "cycles")),
      _arqBackoff(statGroup().histogram("arqBackoff", "cycles"))
{}

void
L1Controller::registerMetrics(MetricsRegistry &metrics)
{
    metrics.addGauge(name() + ".mshrs", "entries", [this] {
        return std::uint64_t(pendingMshrs());
    });
    metrics.addGauge(name() + ".writebacks", "entries", [this] {
        return std::uint64_t(writebackBufferUse());
    });
}

int
L1Controller::home(Addr line) const
{
    return homeBank(line, _numBanks);
}

MsgPtr
L1Controller::make(CohType t, Addr line, int dst)
{
    return makeCohMsg(t, line, _id, dst);
}

void
L1Controller::send(MsgPtr msg)
{
    _net->send(std::move(msg), now());
}

void
L1Controller::touchL1(Addr line)
{
    if (_l1Tags.findAndTouch(line))
        return;
    // Promote into the L1 filter, silently displacing the LRU tag.
    if (_l1Tags.needVictim(line)) {
        Addr victim = _l1Tags.pickVictim(
            line, [](Addr, const char &) { return true; });
        if (victim != invalidAddr)
            _l1Tags.erase(victim);
    }
    _l1Tags.allocate(line);
}

// ---------------------------------------------------------------
// Load path
// ---------------------------------------------------------------

void
L1Controller::scheduleHit(InstSeqNum seq, Addr addr, Tick lat,
                          LoadSource src)
{
    eventQueue().scheduleIn(lat, [this, seq, addr, src]() {
        // Re-validate: the line may have been invalidated while the
        // access was in flight; restart the access in that case so
        // the load can never bind a value that bypassed an
        // invalidation without lockdown protection.
        PrivLine *pl = _array.find(lineOf(addr));
        if (pl) {
            bindLoad(WaitingLoad{seq, addr}, pl->data, src);
        } else if (!issueLoad(seq, addr)) {
            // Resources exhausted right now: retry until accepted
            // (the core no longer tracks this access).
            scheduleHit(seq, addr, 1, src);
        }
    });
}

void
L1Controller::bindLoad(const WaitingLoad &wl, const DataBlock &data,
                       LoadSource src)
{
    assert(_core);
    _ledger.erase(wl.seq);
    _core->loadResponse(wl.seq, wl.addr, data.readWord(wl.addr),
                        data.readVersion(wl.addr), src);
}

bool
L1Controller::issueLoad(InstSeqNum seq, Addr addr)
{
    const Addr line = lineOf(addr);
    _ledger[seq] = "issue";

    // A private writeback is in flight for this line: wait for the
    // WBAck (one outstanding transaction per line). A SoS load is
    // re-driven through the uncacheable bypass by loadBecameSoS().
    if (_wbBuf.count(line)) {
        if (_core->isLoadOrdered(seq))
            return issueGetU(seq, addr);
        _ledger[seq] = "wb-wait";
        _wbWaiters[line].push_back(WaitingLoad{seq, addr});
        return true;
    }

    if (PrivLine *pl = _array.findAndTouch(line)) {
        (void)pl;
        const bool in_l1 = _l1Tags.find(line) != nullptr;
        if (in_l1)
            ++_hitsL1;
        else
            ++_hitsL2;
        touchL1(line);
        _ledger[seq] = "hit-scheduled";
        scheduleHit(seq, addr, in_l1 ? _cfg.l1HitLatency
                                     : _cfg.l2HitLatency,
                    in_l1 ? LoadSource::CacheHitL1
                          : LoadSource::CacheHitL2);
        return true;
    }

    ++_misses;

    auto it = _mshrs.find(line);
    if (it != _mshrs.end()) {
        Mshr &m = it->second;
        if (m.dataArrived) {
            // Early consumption: the directory has registered us for
            // this line, so invalidations will reach the load queue
            // and the lockdown discipline is preserved. The bind
            // must re-validate at fire time: an invalidation in the
            // 1-cycle window cancels the pending fill, and binding
            // the stale copy then would escape the LQ query.
            _ledger[seq] = "early-data";
            eventQueue().scheduleIn(1, [this, seq, addr]() {
                const Addr l = lineOf(addr);
                auto mit = _mshrs.find(l);
                if (mit != _mshrs.end() &&
                    mit->second.dataArrived) {
                    bindLoad(WaitingLoad{seq, addr},
                             mit->second.data,
                             LoadSource::EarlyData);
                } else if (const PrivLine *pl = _array.find(l)) {
                    bindLoad(WaitingLoad{seq, addr}, pl->data,
                             LoadSource::EarlyData);
                } else if (!issueLoad(seq, addr)) {
                    _ledger[seq] = "retryQ";
                    _loadRetryQ.push_back(WaitingLoad{seq, addr});
                }
            });
            return true;
        }
        if (m.kind == Mshr::Kind::Write && m.blocked &&
            _core->isLoadOrdered(seq)) {
            // SoS bypass of a blocked write (Section 3.5.2).
            return issueGetU(seq, addr);
        }
        _ledger[seq] = "piggyback";
        m.loads.push_back(WaitingLoad{seq, addr});
        return true;
    }

    if (_mshrs.size() >= _cfg.numMshrs) {
        // MSHRs exhausted. SoS loads use the reserved entry.
        if (_core->isLoadOrdered(seq))
            return issueGetU(seq, addr);
        _ledger.erase(seq);
        return false;
    }

    Mshr &m = _mshrs[line];
    m.kind = Mshr::Kind::Read;
    m.line = line;
    m.born = now();
    if (auto *fr = recorder())
        fr->txnBegin(now(), _id, line, 'R');
    _ledger[seq] = "mshr-new";
    m.loads.push_back(WaitingLoad{seq, addr, now()});
    ++_getS;
    // Charge the private tag lookups before the request leaves.
    eventQueue().scheduleIn(_cfg.l2HitLatency, [this, line]() {
        send(make(CohType::GetS, line, home(line)));
    });
    if (_cfg.prefetchNextLine)
        maybePrefetch(line + lineBytes);
    return true;
}

void
L1Controller::maybePrefetch(Addr next_line)
{
    // Keep headroom: never consume the last two demand MSHRs, never
    // conflict with an outstanding transaction or writeback, skip
    // lines already cached.
    if (_mshrs.size() + 2 > _cfg.numMshrs)
        return;
    if (_array.find(next_line) || _mshrs.count(next_line) ||
        _wbBuf.count(next_line))
        return;
    Mshr &m = _mshrs[next_line];
    m.kind = Mshr::Kind::Read;
    m.line = next_line;
    m.born = now();
    if (auto *fr = recorder())
        fr->txnBegin(now(), _id, next_line, 'P');
    // No waiting loads: the fill (or a dropped tear-off) is the
    // whole effect.
    ++_prefetches;
    eventQueue().scheduleIn(_cfg.l2HitLatency,
                            [this, next_line]() {
                                send(make(CohType::GetS, next_line,
                                          home(next_line)));
                            });
}

bool
L1Controller::issueGetU(InstSeqNum seq, Addr addr)
{
    if (_sosMshr) {
        _ledger.erase(seq);
        return false; // previous bypass still in flight; retry
    }
    _ledger[seq] = "getU";
    _sosMshr.emplace();
    _sosMshr->kind = Mshr::Kind::Unc;
    _sosMshr->line = lineOf(addr);
    _sosMshr->born = now();
    _sosMshr->loads.push_back(WaitingLoad{seq, addr});
    ++_getU;
    if (auto *fr = recorder())
        fr->txnBegin(now(), _id, lineOf(addr), 'U', true);
    send(make(CohType::GetU, lineOf(addr), home(lineOf(addr))));
    return true;
}

void
L1Controller::loadBecameSoS(InstSeqNum seq, Addr addr)
{
    const Addr line = lineOf(addr);

    // Called (possibly repeatedly) by the core while its SoS load is
    // parked; idempotent. Only unpark when a bypass actually issues.
    if (_sosMshr && !_sosMshr->loads.empty() &&
        _sosMshr->loads.front().seq == seq)
        return; // bypass already in flight

    // Parked behind a private writeback?
    auto wit = _wbWaiters.find(line);
    if (wit != _wbWaiters.end()) {
        auto &v = wit->second;
        auto pos = std::find_if(v.begin(), v.end(),
                                [&](const WaitingLoad &wl) {
                                    return wl.seq == seq;
                                });
        if (pos != v.end()) {
            if (!issueGetU(seq, addr))
                return; // reserved MSHR busy; retried next cycle
            v.erase(pos);
            if (v.empty())
                _wbWaiters.erase(wit);
            return;
        }
    }

    // Waiting on a blocked write MSHR?
    auto it = _mshrs.find(line);
    if (it != _mshrs.end()) {
        Mshr &m = it->second;
        if (m.kind == Mshr::Kind::Write && m.blocked &&
            !m.dataArrived) {
            auto pos = std::find_if(m.loads.begin(), m.loads.end(),
                                    [&](const WaitingLoad &wl) {
                                        return wl.seq == seq;
                                    });
            if (pos != m.loads.end()) {
                if (issueGetU(seq, addr))
                    m.loads.erase(pos);
            }
        }
    }
    // Loads in tear-off retry are re-driven by the core calling
    // issueLoad() again; nothing to do here.
}

// ---------------------------------------------------------------
// Store path
// ---------------------------------------------------------------

bool
L1Controller::hasWritePermission(Addr line) const
{
    const PrivLine *pl = _array.find(line);
    return pl && (pl->st == PState::E || pl->st == PState::M);
}

bool
L1Controller::isWriteBlocked(Addr line) const
{
    auto it = _mshrs.find(line);
    return it != _mshrs.end() &&
           it->second.kind == Mshr::Kind::Write &&
           it->second.blocked;
}

void
L1Controller::requestWritePermission(Addr line)
{
    assert(lineOf(line) == line);
    if (hasWritePermission(line))
        return;
    if (_wbBuf.count(line))
        return; // wait for the writeback to settle; caller polls
    if (_mshrs.count(line))
        return; // an outstanding transaction will resolve first
    if (_mshrs.size() >= _cfg.numMshrs)
        return; // caller polls

    Mshr &m = _mshrs[line];
    m.kind = Mshr::Kind::Write;
    m.line = line;
    m.born = now();
    if (auto *fr = recorder())
        fr->txnBegin(now(), _id, line, 'W');
    const bool have_s = _array.find(line) != nullptr;
    m.upgrade = have_s;
    if (have_s) {
        ++_upgrades;
        send(make(CohType::Upgrade, line, home(line)));
    } else {
        ++_getX;
        send(make(CohType::GetX, line, home(line)));
    }
}

Version
L1Controller::performStore(Addr addr, std::uint64_t value)
{
    const Addr line = lineOf(addr);
    PrivLine *pl = _array.findAndTouch(line);
    assert(pl && (pl->st == PState::E || pl->st == PState::M) &&
           "performStore without write permission");
    pl->st = PState::M;
    touchL1(line);
    const Version ver = pl->data.readVersion(addr) + 1;
    pl->data.writeWord(addr, value, ver);
    ++_stores;
    if (_observer)
        _observer->storePerformed(_id, wordOf(addr), value, ver);
    return ver;
}

std::pair<std::uint64_t, Version>
L1Controller::performAtomic(
    Addr addr, const std::function<std::uint64_t(std::uint64_t)> &op)
{
    const Addr line = lineOf(addr);
    PrivLine *pl = _array.findAndTouch(line);
    assert(pl && (pl->st == PState::E || pl->st == PState::M) &&
           "performAtomic without write permission");
    pl->st = PState::M;
    touchL1(line);
    const std::uint64_t old = pl->data.readWord(addr);
    const Version old_ver = pl->data.readVersion(addr);
    const std::uint64_t next = op(old);
    pl->data.writeWord(addr, next, old_ver + 1);
    ++_stores;
    if (_observer)
        _observer->storePerformed(_id, wordOf(addr), next,
                                  old_ver + 1);
    return {old, old_ver};
}

// ---------------------------------------------------------------
// Fills and evictions
// ---------------------------------------------------------------

bool
L1Controller::makeRoom(Addr line)
{
    if (!_array.needVictim(line))
        return true;
    Addr victim = _array.pickVictim(
        line, [this](Addr tag, const PrivLine &pl) {
            if (_mshrs.count(tag))
                return false; // transaction in flight
            if (_wbBuf.count(tag))
                return false;
            if (pl.st != PState::S && _core &&
                _core->coherenceLockdownQuery(tag)) {
                // Never evict an E/M line under lockdown; the
                // directory must still be able to reach the load
                // queue through us (Section 3.8).
                return false;
            }
            return true;
        });
    if (victim == invalidAddr)
        return false;

    PrivLine *vp = _array.find(victim);
    assert(vp);
    if (vp->st == PState::S) {
        // Section 3.8. Silent (the paper's baseline): stay on the
        // sharer list so later invalidations still query the LQ.
        // Non-silent (PutS): only when no lockdown guards the line
        // — an eviction under lockdown must stay reachable — and a
        // squash-and-re-execute core must squash M-speculative
        // loads because it will not be notified of future writes.
        if (_cfg.silentSharedEvictions ||
            (_core && _core->coherenceLockdownQuery(victim))) {
            ++_silentEvictions;
        } else {
            if (_wbBuf.size() >= _cfg.wbBufferSize)
                return false;
            if (_core)
                _core->coherenceInvalidation(victim);
            WbEntry &wb = _wbBuf[victim];
            wb.data = vp->data;
            wb.dirty = false;
            wb.putType = CohType::PutS;
            wb.born = now();
            ++_putsShared;
            send(make(CohType::PutS, victim, home(victim)));
        }
    } else {
        if (_wbBuf.size() >= _cfg.wbBufferSize)
            return false;
        WbEntry &wb = _wbBuf[victim];
        wb.data = vp->data;
        wb.dirty = vp->st == PState::M;
        wb.putType = wb.dirty ? CohType::PutM : CohType::PutE;
        wb.born = now();
        auto msg = make(wb.putType, victim, home(victim));
        auto *cm = static_cast<CohMsg *>(msg.get());
        if (wb.dirty) {
            cm->hasData = true;
            cm->dirty = true;
            cm->data = wb.data;
            cm->flits = dataFlits;
        }
        ++_puts;
        send(std::move(msg));
    }
    if (_l1Tags.find(victim))
        _l1Tags.erase(victim);
    _array.erase(victim);
    return true;
}

bool
L1Controller::tryFill(Mshr &m)
{
    if (_array.find(m.line)) {
        // Upgrade path: line already present; just promote state.
        PrivLine *pl = _array.findAndTouch(m.line);
        if (m.kind == Mshr::Kind::Write)
            pl->st = PState::M;
        touchL1(m.line);
        return true;
    }
    if (!makeRoom(m.line))
        return false;
    PrivLine &pl = _array.allocate(m.line);
    pl.data = m.data;
    if (m.kind == Mshr::Kind::Write)
        pl.st = PState::M;
    else
        pl.st = m.exclusive ? PState::E : PState::S;
    touchL1(m.line);
    return true;
}

void
L1Controller::tick()
{
    if (_recovery.enabled && now() % _recovery.pollCycles == 0)
        recoveryScan();
    if (!_loadRetryQ.empty()) {
        std::vector<WaitingLoad> again;
        for (const WaitingLoad &wl : _loadRetryQ) {
            if (!issueLoad(wl.seq, wl.addr)) {
                _ledger[wl.seq] = "retryQ";
                again.push_back(wl);
            }
        }
        _loadRetryQ = std::move(again);
    }
    if (_retryFills.empty())
        return;
    std::vector<Addr> again;
    for (Addr line : _retryFills) {
        auto it = _mshrs.find(line);
        if (it == _mshrs.end())
            continue; // cancelled by an invalidation
        Mshr &m = it->second;
        if (!m.fillPending)
            continue;
        if (tryFill(m)) {
            if (m.kind == Mshr::Kind::Write)
                send(make(CohType::Unblock, line, home(line)));
            noteRecovered(m.retries);
            if (auto *fr = recorder())
                fr->txnEnd(now(), _id, line);
            _mshrs.erase(it);
        } else {
            again.push_back(line);
        }
    }
    _retryFills = std::move(again);
}

// ---------------------------------------------------------------
// Recovery (ARQ re-issue of lost requests)
// ---------------------------------------------------------------

bool
L1Controller::retryDue(Tick &last_attempt, Tick born,
                       unsigned &retries, bool &exhausted)
{
    if (exhausted)
        return false;
    const Tick base = last_attempt ? last_attempt : born;
    const Tick timeout = RecoveryConfig::backoff(
        _recovery.retryTimeoutCycles, retries);
    if (now() < base + timeout)
        return false;
    if (retries >= _recovery.retryBudget) {
        // Budget spent: freeze the attempt clock so the per-MSHR
        // age watchdog escalates to the classified verdict.
        exhausted = true;
        return false;
    }
    ++retries;
    last_attempt = now();
    _arqBackoff.sample(timeout);
    ++_arqReissues;
    return true;
}

void
L1Controller::recoveryScan()
{
    // Deterministic iteration: sorted line addresses. Only requests
    // with *no* sign of progress are re-issued — once any grant,
    // data, or hint arrived, the transaction is live at the
    // directory and a re-issue would duplicate protocol state
    // rather than recover lost state.
    std::vector<Addr> lines;
    lines.reserve(_mshrs.size());
    for (const auto &[line, m] : _mshrs)
        lines.push_back(line);
    std::sort(lines.begin(), lines.end());
    for (Addr line : lines) {
        auto it = _mshrs.find(line);
        if (it == _mshrs.end())
            continue;
        Mshr &m = it->second;
        if (m.fillPending || m.dataArrived)
            continue;
        if (m.kind == Mshr::Kind::Write &&
            (m.grantSeen || m.blocked))
            continue;
        if (retryDue(m.lastAttempt, m.born, m.retries, m.exhausted))
            reissueMshr(m);
    }
    if (_sosMshr && !_sosMshr->dataArrived) {
        Mshr &m = *_sosMshr;
        if (retryDue(m.lastAttempt, m.born, m.retries, m.exhausted))
            reissueMshr(m);
    }
    lines.clear();
    for (const auto &[line, wb] : _wbBuf)
        lines.push_back(line);
    std::sort(lines.begin(), lines.end());
    for (Addr line : lines) {
        auto it = _wbBuf.find(line);
        if (it == _wbBuf.end())
            continue;
        WbEntry &wb = it->second;
        if (retryDue(wb.lastAttempt, wb.born, wb.retries,
                     wb.exhausted))
            reissueWb(line, wb);
    }
}

void
L1Controller::reissueMshr(Mshr &m)
{
    CohType t = CohType::GetS;
    switch (m.kind) {
      case Mshr::Kind::Read: t = CohType::GetS; break;
      case Mshr::Kind::Write:
        t = m.upgrade ? CohType::Upgrade : CohType::GetX;
        break;
      case Mshr::Kind::Unc: t = CohType::GetU; break;
    }
    auto msg = make(t, m.line, home(m.line));
    static_cast<CohMsg *>(msg.get())->retry = int(m.retries);
    WB_EVENT(recorder(), now(), EvKind::ArqReissue, EvUnit::L1, _id,
             m.line, m.retries);
    send(std::move(msg));
}

void
L1Controller::reissueWb(Addr line, WbEntry &wb)
{
    auto msg = make(wb.putType, line, home(line));
    auto *cm = static_cast<CohMsg *>(msg.get());
    cm->retry = int(wb.retries);
    if (wb.putType == CohType::PutM) {
        cm->hasData = true;
        cm->dirty = true;
        cm->data = wb.data;
        cm->flits = dataFlits;
    }
    WB_EVENT(recorder(), now(), EvKind::ArqReissue, EvUnit::L1, _id,
             line, wb.retries);
    send(std::move(msg));
}

// ---------------------------------------------------------------
// Message handling
// ---------------------------------------------------------------

void
L1Controller::handleMessage(MsgPtr msg)
{
    auto &m = static_cast<CohMsg &>(*msg);
    if (_recovery.enabled && !_dedup.accept(m.src, m.seq)) {
        // A duplicated delivery (fault-injected copy, or a transport
        // retransmission racing its original): provably idempotent —
        // the first delivery already ran, this one is dropped whole.
        ++_dedupHits;
        WB_EVENT(recorder(), now(), EvKind::DedupDrop, EvUnit::L1,
                 _id, m.line);
        return;
    }
    WB_TRACE(LogFlag::Cache, now(), name().c_str(),
             "rx %s line %llx from %d", cohTypeName(m.type),
             static_cast<unsigned long long>(m.line), m.src);
    switch (m.type) {
      case CohType::Inv: handleInv(m); break;
      case CohType::Recall: handleRecall(m); break;
      case CohType::FwdGetS: handleFwdGetS(m); break;
      case CohType::FwdGetX: handleFwdGetX(m); break;
      case CohType::FwdGetU: handleFwdGetU(m); break;
      case CohType::Data: handleData(m); break;
      case CohType::DataX: handleDataX(m); break;
      case CohType::UpgradeAck: handleUpgradeAck(m); break;
      case CohType::InvAck:
      case CohType::RedirAck: handleAck(m); break;
      case CohType::UData: handleUData(m); break;
      case CohType::BlockedHint: handleBlockedHint(m); break;
      case CohType::WBAck:
      case CohType::WBStale: handleWbDone(m); break;
      default:
        panic("L1 %d: unexpected message %s", _id,
              cohTypeName(m.type));
    }
}

void
L1Controller::invalidateLine(Addr line)
{
    if (_array.find(line))
        _array.erase(line);
    if (_l1Tags.find(line))
        _l1Tags.erase(line);
    // Cancel a pending allocation of stale data for this line.
    auto it = _mshrs.find(line);
    if (it != _mshrs.end() && it->second.fillPending) {
        // The waiting loads already bound (early consumption) under
        // lockdown protection; drop the stale fill entirely.
        if (auto *fr = recorder())
            fr->txnAbort(now(), _id, line);
        _mshrs.erase(it);
    }
}

bool
L1Controller::answerInvalidation(CohMsg &m, bool was_owner,
                                 const DataBlock *data, bool dirty)
{
    ++_invsReceived;
    assert(_core);
    const InvResponse r = _core->coherenceInvalidation(m.line);
    const bool to_dir = m.type == CohType::Recall;
    if (r == InvResponse::Nack) {
        ++_nacksSent;
        auto nack = make(CohType::InvNack, m.line, home(m.line));
        auto *cm = static_cast<CohMsg *>(nack.get());
        cm->txnId = m.txnId;
        if (was_owner) {
            cm->hasData = true;
            cm->dirty = dirty;
            cm->data = *data;
            cm->flits = dataFlits;
        }
        send(std::move(nack));
        return true;
    }
    auto ack = make(to_dir ? CohType::RecallAck : CohType::InvAck,
                    m.line, to_dir ? home(m.line) : m.requestor);
    auto *cm = static_cast<CohMsg *>(ack.get());
    cm->txnId = m.txnId;
    if (to_dir && was_owner) {
        cm->hasData = true;
        cm->dirty = dirty;
        cm->data = *data;
        cm->flits = dataFlits;
    }
    send(std::move(ack));
    return false;
}

void
L1Controller::handleInv(CohMsg &m)
{
    // Plain Inv targets shared copies (or stale sharers after a
    // silent eviction). We are never the owner here.
    invalidateLine(m.line);
    answerInvalidation(m, false, nullptr, false);
}

void
L1Controller::handleRecall(CohMsg &m)
{
    const PrivLine *pl = _array.find(m.line);
    bool was_owner = false;
    DataBlock data{};
    bool dirty = false;
    if (pl) {
        was_owner = pl->st != PState::S;
        data = pl->data;
        dirty = pl->st == PState::M;
    } else if (auto it = _wbBuf.find(m.line); it != _wbBuf.end()) {
        // Our PutM/PutE raced with the recall: answer from the
        // writeback buffer; the deferred Put will be WBStale'd.
        was_owner = true;
        data = it->second.data;
        dirty = it->second.dirty;
    }
    invalidateLine(m.line);
    answerInvalidation(m, was_owner, &data, dirty);
}

void
L1Controller::handleFwdGetS(CohMsg &m)
{
    // We are (or were, if a writeback is racing) the owner: supply
    // the reader and send a copy home; downgrade to S. A lockdown
    // never interferes with reads.
    DataBlock data{};
    bool have = false;
    bool retained = true;
    if (PrivLine *pl = _array.find(m.line)) {
        data = pl->data;
        have = true;
        pl->st = PState::S;
    } else if (auto it = _wbBuf.find(m.line); it != _wbBuf.end()) {
        data = it->second.data;
        have = true;
        retained = false;
    }
    if (!have) {
        if (_recovery.enabled) {
            // Stale forward in a recovered run (e.g. the directory
            // acted on a re-issued request whose original also got
            // through, and the first transaction already moved the
            // line on). Dropping it may wedge the directory's
            // transient — the watchdog then classifies the hang.
            ++_orphansAbsorbed;
            return;
        }
        panic("L1 %d: FwdGetS without data, line %llx", _id,
              static_cast<unsigned long long>(m.line));
    }

    auto rsp = make(CohType::Data, m.line, m.requestor);
    auto *cr = static_cast<CohMsg *>(rsp.get());
    cr->hasData = true;
    cr->data = data;
    cr->flits = dataFlits;
    send(std::move(rsp));

    auto copy = make(CohType::CopyData, m.line, home(m.line));
    auto *cc = static_cast<CohMsg *>(copy.get());
    cc->hasData = true;
    cc->dirty = true;
    cc->data = data;
    cc->ownerRetained = retained;
    cc->txnId = m.txnId;
    cc->flits = dataFlits;
    send(std::move(copy));
}

void
L1Controller::handleFwdGetX(CohMsg &m)
{
    // We are the owner; a writer wants the line. Data goes to the
    // writer either way; the ack is withheld (Nack to the directory,
    // with data for the LLC) if a load is in lockdown (Figure 3.B).
    DataBlock data{};
    bool dirty = false;
    if (const PrivLine *pl = _array.find(m.line)) {
        data = pl->data;
        dirty = pl->st == PState::M;
    } else if (auto it = _wbBuf.find(m.line); it != _wbBuf.end()) {
        data = it->second.data;
        dirty = it->second.dirty;
    } else {
        if (_recovery.enabled) {
            ++_orphansAbsorbed;
            return;
        }
        panic("L1 %d: FwdGetX without data, line %llx", _id,
              static_cast<unsigned long long>(m.line));
    }
    invalidateLine(m.line);

    ++_invsReceived;
    const InvResponse r = _core->coherenceInvalidation(m.line);

    auto rsp = make(CohType::DataX, m.line, m.requestor);
    auto *cr = static_cast<CohMsg *>(rsp.get());
    cr->hasData = true;
    cr->dirty = dirty;
    cr->data = data;
    cr->flits = dataFlits;
    cr->ackCount = r == InvResponse::Nack ? 1 : 0;
    send(std::move(rsp));

    if (r == InvResponse::Nack) {
        ++_nacksSent;
        auto nack = make(CohType::InvNack, m.line, home(m.line));
        auto *cn = static_cast<CohMsg *>(nack.get());
        cn->txnId = m.txnId;
        cn->hasData = true;
        cn->dirty = true;
        cn->data = data;
        cn->flits = dataFlits;
        send(std::move(nack));
    }
}

void
L1Controller::handleFwdGetU(CohMsg &m)
{
    DataBlock data{};
    if (const PrivLine *pl = _array.find(m.line)) {
        data = pl->data;
    } else if (auto it = _wbBuf.find(m.line); it != _wbBuf.end()) {
        data = it->second.data;
    } else {
        // Our writeback raced with this forward (GetU leaves no
        // transient at the directory): bounce the request back to
        // the home, which by now owns current data, preserving the
        // original requestor.
        auto bounce = make(CohType::GetU, m.line, home(m.line));
        static_cast<CohMsg *>(bounce.get())->requestor =
            m.requestor;
        send(std::move(bounce));
        return;
    }
    auto rsp = make(CohType::UData, m.line, m.requestor);
    auto *cr = static_cast<CohMsg *>(rsp.get());
    cr->hasData = true;
    cr->data = data;
    // FwdGetU only ever forwards a GetU (SoS bypass) request.
    cr->fromGetU = true;
    cr->flits = dataFlits;
    send(std::move(rsp));
}

void
L1Controller::handleData(CohMsg &m)
{
    auto it = _mshrs.find(m.line);
    if (it == _mshrs.end() || it->second.kind != Mshr::Kind::Read) {
        if (!_recovery.enabled)
            panic("L1 %d: Data for line %llx without a read MSHR "
                  "(duplicate or misrouted response)",
                  _id, static_cast<unsigned long long>(m.line));
        // Replayed grant for a transaction we already completed (a
        // timed-out request was re-issued and both got through).
        // The directory serialised a fresh transaction on this
        // grant and expects its Unblock.
        ++_orphansAbsorbed;
        if (it != _mshrs.end()) {
            // A write is now in flight for the line; just release
            // the directory's read transient.
            send(make(CohType::Unblock, m.line, home(m.line)));
            return;
        }
        // Synthesize a loadless read MSHR and run the normal
        // completion path so the sharer registration stays exact.
        Mshr &fresh = _mshrs[m.line];
        fresh.kind = Mshr::Kind::Read;
        fresh.line = m.line;
        fresh.born = now();
        it = _mshrs.find(m.line);
    }
    Mshr &mshr = it->second;
    mshr.dataArrived = true;
    mshr.exclusive = m.exclusive;
    mshr.data = m.data;
    if (auto *fr = recorder())
        fr->txnData(now(), _id, m.line);
    for (const auto &wl : mshr.loads) {
        if (wl.issued)
            _missLatency.sample(now() - wl.issued);
        bindLoad(wl, mshr.data, LoadSource::CacheFill);
    }
    mshr.loads.clear();
    send(make(CohType::Unblock, m.line, home(m.line)));
    if (tryFill(mshr)) {
        noteRecovered(mshr.retries);
        if (auto *fr = recorder())
            fr->txnEnd(now(), _id, m.line);
        _mshrs.erase(it);
    } else {
        mshr.fillPending = true;
        _retryFills.push_back(m.line);
    }
}

void
L1Controller::handleDataX(CohMsg &m)
{
    auto it = _mshrs.find(m.line);
    if (it == _mshrs.end() || it->second.kind != Mshr::Kind::Write) {
        if (!_recovery.enabled)
            panic("L1 %d: DataX for line %llx without a write MSHR "
                  "(duplicate or misrouted response)",
                  _id, static_cast<unsigned long long>(m.line));
        // Replayed write grant after our re-issued request also got
        // through: take the grant on a synthesized MSHR so the
        // directory's transaction (and its pending acks) resolve.
        ++_orphansAbsorbed;
        if (it != _mshrs.end()) {
            send(make(CohType::Unblock, m.line, home(m.line)));
            return;
        }
        Mshr &fresh = _mshrs[m.line];
        fresh.kind = Mshr::Kind::Write;
        fresh.line = m.line;
        fresh.born = now();
        it = _mshrs.find(m.line);
    }
    Mshr &mshr = it->second;
    mshr.dataArrived = true;
    mshr.grantSeen = true;
    mshr.acksExpected = m.ackCount;
    mshr.data = m.data;
    if (auto *fr = recorder())
        fr->txnData(now(), _id, m.line);
    for (const auto &wl : mshr.loads)
        bindLoad(wl, mshr.data, LoadSource::EarlyData);
    mshr.loads.clear();
    maybeCompleteWrite(mshr);
}

void
L1Controller::handleUpgradeAck(CohMsg &m)
{
    auto it = _mshrs.find(m.line);
    if (it == _mshrs.end() || it->second.kind != Mshr::Kind::Write) {
        if (!_recovery.enabled)
            panic("L1 %d: UpgradeAck for line %llx without a write "
                  "MSHR (duplicate or misrouted response)",
                  _id, static_cast<unsigned long long>(m.line));
        ++_orphansAbsorbed;
        if (it != _mshrs.end() || !_array.find(m.line)) {
            // Either a read transaction owns the line's MSHR or the
            // local copy is gone: the replayed grant cannot be
            // honoured. Dropping it leaves the directory transient
            // to the watchdog (classified, never silent).
            return;
        }
        // We still hold an S copy: complete the replayed upgrade on
        // a synthesized MSHR.
        Mshr &fresh = _mshrs[m.line];
        fresh.kind = Mshr::Kind::Write;
        fresh.line = m.line;
        fresh.upgrade = true;
        fresh.born = now();
        it = _mshrs.find(m.line);
    }
    Mshr &mshr = it->second;
    mshr.grantSeen = true;
    mshr.acksExpected = m.ackCount;
    // Data stays in the (still valid) local S copy.
    if (!_array.find(m.line)) {
        if (_recovery.enabled) {
            // The copy was invalidated while the (re-issued) grant
            // was in flight; the stale grant cannot complete. Leave
            // the MSHR to the age watchdog.
            ++_orphansAbsorbed;
            return;
        }
        panic("L1 %d: UpgradeAck for line %llx we no longer hold",
              _id, static_cast<unsigned long long>(m.line));
    }
    maybeCompleteWrite(mshr);
}

void
L1Controller::handleAck(CohMsg &m)
{
    auto it = _mshrs.find(m.line);
    if (it == _mshrs.end() || it->second.kind != Mshr::Kind::Write) {
        if (_recovery.enabled) {
            // Ack for a write that already completed (its grant was
            // replayed, or the ack itself was retransmitted late).
            ++_orphansAbsorbed;
            return;
        }
        panic("L1 %d: stray invalidation ack for line %llx",
              _id, static_cast<unsigned long long>(m.line));
    }
    Mshr &mshr = it->second;
    ++mshr.acksReceived;
    maybeCompleteWrite(mshr);
}

void
L1Controller::maybeCompleteWrite(Mshr &m)
{
    if (!m.grantSeen)
        return;
    const bool data_ok = m.upgrade ? true : m.dataArrived;
    if (!data_ok || m.acksReceived < m.acksExpected)
        return;
    if (m.acksReceived != m.acksExpected) {
        if (!_recovery.enabled)
            panic("L1 %d: line %llx collected %d acks, expected %d "
                  "(duplicated ack?)",
                  _id, static_cast<unsigned long long>(m.line),
                  m.acksReceived, m.acksExpected);
        // Surplus acks can reach a recovered run's writer when a
        // replayed grant re-invalidated sharers; the write is still
        // complete once every expected ack arrived.
        ++_orphansAbsorbed;
        m.acksReceived = m.acksExpected;
    }
    const Addr line = m.line;
    if (m.upgrade && _array.find(line)) {
        PrivLine *pl = _array.findAndTouch(line);
        pl->st = PState::M;
        touchL1(line);
        send(make(CohType::Unblock, line, home(line)));
        noteRecovered(m.retries);
        if (auto *fr = recorder())
            fr->txnEnd(now(), _id, line);
        _mshrs.erase(line);
    } else if (tryFill(m)) {
        send(make(CohType::Unblock, line, home(line)));
        noteRecovered(m.retries);
        if (auto *fr = recorder())
            fr->txnEnd(now(), _id, line);
        _mshrs.erase(line);
    } else {
        m.fillPending = true;
        _retryFills.push_back(line);
    }
}

void
L1Controller::handleUData(CohMsg &m)
{
    if (m.fromGetU) {
        if (!_sosMshr || _sosMshr->line != m.line)
            return; // stale bypass response; drop
        Mshr mshr = std::move(*_sosMshr);
        _sosMshr.reset();
        noteRecovered(mshr.retries);
        if (auto *fr = recorder())
            fr->txnEnd(now(), _id, m.line, true);
        for (const auto &wl : mshr.loads) {
            if (_core->isLoadOrdered(wl.seq)) {
                ++_tearoffUsed;
                bindLoad(wl, m.data, LoadSource::TearOff);
            } else {
                ++_tearoffRetry;
                _ledger.erase(wl.seq);
                _core->loadMustRetry(wl.seq, wl.addr);
            }
        }
        return;
    }
    // A cacheable GetS answered with a tear-off copy: the directory
    // is in WritersBlock. Only an ordered load may consume it
    // (Section 3.4); the rest retry when they become the SoS load.
    auto it = _mshrs.find(m.line);
    if (it == _mshrs.end())
        return; // stale (e.g. MSHR cancelled); drop
    Mshr &mshr = it->second;
    assert(mshr.kind == Mshr::Kind::Read);
    for (const auto &wl : mshr.loads) {
        if (_core->isLoadOrdered(wl.seq)) {
            ++_tearoffUsed;
            bindLoad(wl, m.data, LoadSource::TearOff);
        } else {
            ++_tearoffRetry;
            _ledger.erase(wl.seq);
            _core->loadMustRetry(wl.seq, wl.addr);
        }
    }
    noteRecovered(mshr.retries);
    if (auto *fr = recorder())
        fr->txnEnd(now(), _id, m.line);
    _mshrs.erase(it);
}

void
L1Controller::handleBlockedHint(CohMsg &m)
{
    auto it = _mshrs.find(m.line);
    if (it == _mshrs.end() || it->second.kind != Mshr::Kind::Write)
        return; // write already completed; drop
    Mshr &mshr = it->second;
    if (mshr.blocked)
        return;
    mshr.blocked = true;
    ++_blockedHints;
    // Let any ordered waiter bypass immediately (Section 3.5.2);
    // if the reserved MSHR is busy, leave the waiter in place — the
    // core's SoS drive retries through loadBecameSoS().
    for (auto wit = mshr.loads.begin(); wit != mshr.loads.end();
         ++wit) {
        if (_core->isLoadOrdered(wit->seq)) {
            WaitingLoad wl = *wit;
            if (issueGetU(wl.seq, wl.addr))
                mshr.loads.erase(wit);
            break;
        }
    }
}

void
L1Controller::handleWbDone(CohMsg &m)
{
    if (auto wit = _wbBuf.find(m.line); wit != _wbBuf.end())
        noteRecovered(wit->second.retries);
    _wbBuf.erase(m.line);
    auto it = _wbWaiters.find(m.line);
    if (it == _wbWaiters.end())
        return;
    std::vector<WaitingLoad> waiters = std::move(it->second);
    _wbWaiters.erase(it);
    for (const auto &wl : waiters) {
        if (!issueLoad(wl.seq, wl.addr)) {
            _ledger[wl.seq] = "retryQ";
            _loadRetryQ.push_back(wl);
        }
    }
}

// ---------------------------------------------------------------
// Lockdown plumbing
// ---------------------------------------------------------------

void
L1Controller::dumpState(std::ostream &os) const
{
    if (_mshrs.empty() && !_sosMshr && _wbBuf.empty() &&
        _wbWaiters.empty() && _ledger.empty())
        return;
    os << name() << ":\n";
    for (const auto &[line, m] : _mshrs) {
        os << "  mshr line=" << std::hex << line << std::dec
           << " kind=" << int(m.kind) << " blocked=" << m.blocked
           << " grant=" << m.grantSeen << " data=" << m.dataArrived
           << " acks=" << m.acksReceived << "/" << m.acksExpected
           << " fillPend=" << m.fillPending
           << " waiters=" << m.loads.size()
           << " age=" << (now() > m.born ? now() - m.born : 0)
           << "\n";
    }
    if (_sosMshr)
        os << "  sosMshr line=" << std::hex << _sosMshr->line
           << std::dec << "\n";
    for (const auto &[line, wb] : _wbBuf)
        os << "  wbBuf line=" << std::hex << line << std::dec
           << "\n";
    for (const auto &[line, v] : _wbWaiters)
        os << "  wbWaiters line=" << std::hex << line << std::dec
           << " n=" << v.size() << "\n";
    for (const auto &[seq, tag] : _ledger)
        os << "  ledger seq=" << seq << " state=" << tag << "\n";
}

std::vector<L1Controller::MshrInfo>
L1Controller::mshrInfos(Tick now_tick) const
{
    std::vector<MshrInfo> out;
    out.reserve(_mshrs.size() + 1);
    auto push = [&](const Mshr &m) {
        MshrInfo i;
        i.line = m.line;
        i.kind = m.kind == Mshr::Kind::Read    ? "read"
                 : m.kind == Mshr::Kind::Write ? "write"
                                               : "unc";
        i.blocked = m.blocked;
        i.grantSeen = m.grantSeen;
        i.dataArrived = m.dataArrived;
        i.fillPending = m.fillPending;
        i.acksReceived = m.acksReceived;
        i.acksExpected = m.acksExpected;
        i.waiters = m.loads.size();
        i.age = now_tick > m.born ? now_tick - m.born : 0;
        i.retries = m.retries;
        out.push_back(i);
    };
    for (const auto &[line, m] : _mshrs)
        push(m);
    if (_sosMshr)
        push(*_sosMshr);
    std::sort(out.begin(), out.end(),
              [](const MshrInfo &a, const MshrInfo &b) {
                  return a.line < b.line;
              });
    return out;
}

Tick
L1Controller::oldestTransactionAge(Tick now_tick) const
{
    Tick oldest = 0;
    auto consider = [&](const Mshr &m) {
        // With recovery armed, a transaction being actively retried
        // ages from its last attempt, not its birth — the watchdog
        // must not escalate a hang the ARQ is still allowed to fix.
        // Once the budget is exhausted, lastAttempt freezes and the
        // age grows to the classified verdict as before.
        const Tick base = _recovery.enabled && m.lastAttempt
                              ? m.lastAttempt
                              : m.born;
        const Tick age = now_tick > base ? now_tick - base : 0;
        oldest = std::max(oldest, age);
    };
    for (const auto &[line, m] : _mshrs)
        consider(m);
    if (_sosMshr)
        consider(*_sosMshr);
    return oldest;
}

std::vector<Addr>
L1Controller::cachedLines() const
{
    std::vector<Addr> out;
    _array.forEach(
        [&](Addr line, const PrivLine &) { out.push_back(line); });
    std::sort(out.begin(), out.end());
    return out;
}

void
L1Controller::lockdownLifted(Addr line)
{
    ++_ackReleases;
    send(make(CohType::AckRelease, line, home(line)));
}

namespace
{

void
putBlock(ByteWriter &w, const DataBlock &d)
{
    for (std::uint64_t v : d.value)
        w.u64(v);
    for (Version v : d.version)
        w.u64(v);
}

template <typename Map>
std::vector<typename Map::key_type>
sortedKeys(const Map &m)
{
    std::vector<typename Map::key_type> keys;
    keys.reserve(m.size());
    for (const auto &kv : m)
        keys.push_back(kv.first);
    std::sort(keys.begin(), keys.end());
    return keys;
}

} // namespace

void
L1Controller::serializeState(ByteWriter &w) const
{
    _array.serializeState(
        w, [](ByteWriter &bw, Addr, const PrivLine &pl) {
            bw.u8(std::uint8_t(pl.st));
            putBlock(bw, pl.data);
        });
    _l1Tags.serializeState(w,
                           [](ByteWriter &, Addr, const char &) {});

    auto putLoads = [&](const std::vector<WaitingLoad> &loads) {
        w.u64(loads.size());
        for (const WaitingLoad &l : loads) {
            w.u64(l.seq);
            w.u64(l.addr);
            w.u64(l.issued);
        }
    };
    auto putMshr = [&](const Mshr &m) {
        w.u8(std::uint8_t(m.kind));
        w.u64(m.line);
        w.b(m.blocked);
        w.b(m.grantSeen);
        w.b(m.dataArrived);
        w.b(m.upgrade);
        w.b(m.exclusive);
        w.i64(m.acksExpected);
        w.i64(m.acksReceived);
        w.b(m.fillPending);
        w.u64(m.born);
        w.u32(m.retries);
        w.u64(m.lastAttempt);
        w.b(m.exhausted);
        putBlock(w, m.data);
        putLoads(m.loads);
    };

    w.u64(_mshrs.size());
    for (Addr line : sortedKeys(_mshrs))
        putMshr(_mshrs.at(line));
    w.b(_sosMshr.has_value());
    if (_sosMshr)
        putMshr(*_sosMshr);

    w.u64(_wbBuf.size());
    for (Addr line : sortedKeys(_wbBuf)) {
        const WbEntry &e = _wbBuf.at(line);
        w.u64(line);
        putBlock(w, e.data);
        w.b(e.dirty);
        w.u8(std::uint8_t(e.putType));
        w.u64(e.born);
        w.u32(e.retries);
        w.u64(e.lastAttempt);
        w.b(e.exhausted);
    }

    w.u64(_wbWaiters.size());
    for (Addr line : sortedKeys(_wbWaiters)) {
        w.u64(line);
        putLoads(_wbWaiters.at(line));
    }

    // Retry vectors: their own order is deterministic pipeline state.
    w.u64(_retryFills.size());
    for (Addr line : _retryFills)
        w.u64(line);
    putLoads(_loadRetryQ);

    w.u64(_ledger.size());
    for (InstSeqNum seq : sortedKeys(_ledger)) {
        w.u64(seq);
        w.str(_ledger.at(seq));
    }

    _dedup.serializeState(w);
}

} // namespace wb
