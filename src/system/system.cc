#include "system/system.hh"

#include <algorithm>
#include <cassert>
#include <cstdarg>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <utility>

#include "coherence/messages.hh"
#include "sim/log.hh"

namespace wb
{

namespace
{

/** Watchdog diagnostics go through the single guarded stderr
 *  writer, so they cannot tear against a campaign progress line or
 *  another worker's dump. */
void
watchdogLine(const char *fmt, ...)
#ifdef __GNUC__
    __attribute__((format(printf, 1, 2)))
#endif
    ;

void
watchdogLine(const char *fmt, ...)
{
    char buf[256];
    std::va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    StderrGate::writeBlock(stderr, buf);
}

} // namespace

bool
parseNetworkKind(const std::string &s, NetworkKind &out)
{
    if (s == "mesh")
        out = NetworkKind::Mesh;
    else if (s == "ideal")
        out = NetworkKind::Ideal;
    else
        return false;
    return true;
}

std::string
SystemConfig::validate() const
{
    const auto range = [](const char *what, int v, int hi) {
        return std::string(what) + " must be in [1, " +
               std::to_string(hi) + "], got " + std::to_string(v);
    };
    if (numCores < 1 || numCores > LLCBank::maxCores)
        return range("cores", numCores, LLCBank::maxCores) +
               " (one directory sharer bit per core)";
    if (shards < 1 || shards > numCores)
        return range("shards", shards, numCores);
    // Layers that log or inject mid-run would need their own
    // cross-shard ordering story (docs/PARALLEL.md).
    const char *serial_only =
        faults.enabled()         ? "fault injection"
        : recovery.enabled       ? "recovery"
        : obs.flightRecorder > 0 ? "the flight recorder"
                                 : nullptr;
    if (shards > 1 && serial_only)
        return std::string(serial_only) +
               " is incompatible with shards > 1 (docs/PARALLEL.md)";
    const std::string fault_err = faults.validate();
    if (!fault_err.empty())
        return "fault config: " + fault_err;
    if (recovery.enabled &&
        (recovery.pollCycles == 0 || recovery.retryTimeoutCycles == 0 ||
         recovery.retransmitBaseCycles == 0))
        return "recovery cycle parameters must be >= 1";
    // Network::localLatency() and Network::lookahead() of each kind.
    const bool mesh_net = network == NetworkKind::Mesh;
    if ((mesh_net ? mesh.localLatency : ideal.localLatency) < 1)
        return "network local latency must be >= 1 (a zero-latency "
               "self-send would arrive inside its own tick)";
    if ((mesh_net ? mesh.hopLatency : ideal.baseLatency) < 1)
        return "network lookahead (mesh hop / ideal base latency) "
               "must be >= 1";
    if (core.commitMode == CommitMode::OooWB && !core.lockdown)
        return "OooWB commit requires a lockdown core";
    return "";
}

System::System(const SystemConfig &cfg, const Workload &workload)
    : _cfg(cfg)
{
    const std::string bad = cfg.validate();
    if (!bad.empty())
        fatal("%s", bad.c_str());
    if (int(workload.threads.size()) > cfg.numCores)
        fatal("workload has %d threads but only %d cores",
              int(workload.threads.size()), cfg.numCores);

    // Pad programs so that every core has one (idle cores halt).
    _programs = workload.threads;
    while (int(_programs.size()) < cfg.numCores)
        _programs.push_back(Program{Instr{Opcode::Halt, 0, 0, 0, 0,
                                          0}});

    // Stripe memory by home bank before any contents exist, so each
    // LLC bank (and with it each shard) owns its stripe exclusively.
    _cfg.mem.numBanks = unsigned(cfg.numCores);
    _memory.setBanks(cfg.numCores);
    for (const auto &[addr, value] : workload.initMem)
        _memory.poke(addr, value);

    // Tile partition: contiguous, near-equal ranges.
    _shards.reserve(std::size_t(cfg.shards));
    _tileShard.assign(std::size_t(cfg.numCores), 0);
    for (int s = 0; s < cfg.shards; ++s) {
        auto sh = std::make_unique<Shard>();
        sh->firstTile = s * cfg.numCores / cfg.shards;
        sh->endTile = (s + 1) * cfg.numCores / cfg.shards;
        for (int i = sh->firstTile; i < sh->endTile; ++i)
            _tileShard[std::size_t(i)] = s;
        _shards.push_back(std::move(sh));
    }
    _doneOnset.assign(std::size_t(cfg.numCores), 0);

    if (cfg.faults.enabled())
        _faults = std::make_unique<FaultInjector>(cfg.faults);

    if (cfg.obs.flightRecorder > 0)
        _recorder = std::make_unique<FlightRecorder>(
            &_stats, cfg.obs.flightRecorder);

    // The network rides shard 0's queue (only the single-shard
    // retransmission path schedules events on it).
    EventQueue *eq0 = &_shards[0]->eq;
    if (cfg.network == NetworkKind::Mesh) {
        _cfg.mesh.fit(cfg.numCores);
        _net = std::make_unique<MeshNetwork>("net", eq0, &_stats,
                                             _cfg.mesh);
    } else {
        IdealNetworkConfig ic = cfg.ideal;
        ic.numNodes = cfg.numCores;
        _net = std::make_unique<IdealNetwork>("net", eq0, &_stats,
                                              ic);
    }
    _epochLen = _net->lookahead();
    if (_faults)
        _net->setFaultInjector(_faults.get());
    if (cfg.recovery.enabled)
        _net->setRecovery(cfg.recovery);
    if (_recorder)
        _net->setFlightRecorder(_recorder.get());

    if (cfg.checker)
        _checker = std::make_unique<TsoChecker>(cfg.numCores);

    CoreConfig core_cfg = cfg.core;
    if (cfg.maxInstructionsPerCore)
        core_cfg.maxInstructions = cfg.maxInstructionsPerCore;

    for (int i = 0; i < cfg.numCores; ++i) {
        EventQueue *eq =
            &_shards[std::size_t(_tileShard[std::size_t(i)])]->eq;
        _l1s.push_back(std::make_unique<L1Controller>(
            "l1." + std::to_string(i), eq, &_stats, i, _cfg.mem,
            _net.get(), cfg.numCores));
        _llcs.push_back(std::make_unique<LLCBank>(
            "llc." + std::to_string(i), eq, &_stats, i, _cfg.mem,
            _net.get(), &_memory));
        _cores.push_back(std::make_unique<Core>(
            "core." + std::to_string(i), eq, &_stats, i, core_cfg,
            _l1s.back().get(), &_programs[std::size_t(i)]));
        _l1s.back()->setCore(_cores.back().get());
        if (cfg.recovery.enabled) {
            _l1s.back()->setRecovery(cfg.recovery);
            _llcs.back()->setRecovery(cfg.recovery);
        }
        if (_checker) {
            // Per-tile tap: events are buffered on the owning
            // shard's thread and replayed into the checker in
            // canonical order at each epoch barrier.
            _taps.push_back(std::make_unique<CheckerTap>());
            _taps.back()->bind(eq);
            _l1s.back()->setObserver(_taps.back().get());
            _cores.back()->setChecker(_taps.back().get());
        }
        if (_recorder) {
            _l1s.back()->setFlightRecorder(_recorder.get());
            _llcs.back()->setFlightRecorder(_recorder.get());
            _cores.back()->setFlightRecorder(_recorder.get());
        }
    }

    for (int i = 0; i < cfg.numCores; ++i) {
        L1Controller *l1 = _l1s[std::size_t(i)].get();
        LLCBank *llc = _llcs[std::size_t(i)].get();
        _net->registerNode(i, [l1, llc](MsgPtr msg) {
            auto *cm = static_cast<CohMsg *>(msg.get());
            if (cohToDirectory(cm->type))
                llc->handleMessage(std::move(msg));
            else
                l1->handleMessage(std::move(msg));
        });
    }

    // Metrics registry last, so every component's counters are
    // already in the StatRegistry and each SimObject can add its
    // gauges. Gauges never enter the StatRegistry: run reports stay
    // byte-identical whether or not metrics are enabled.
    if (cfg.obs.metricsEnabled()) {
        _metrics = std::make_unique<MetricsRegistry>(&_stats);
        _net->registerMetrics(*_metrics);
        for (auto &l1 : _l1s)
            l1->registerMetrics(*_metrics);
        for (auto &llc : _llcs)
            llc->registerMetrics(*_metrics);
        for (auto &core : _cores)
            core->registerMetrics(*_metrics);
        if (cfg.obs.metricsPeriod > 0)
            _mstream = std::make_unique<MetricsStreamer>(
                _metrics.get(), cfg.obs.metricsPeriod);
    }

    // Persistent workers for shards 1..S-1; shard 0 runs on the
    // driving thread. Workers park on the epoch-release pulse.
    for (std::size_t s = 1; s < _shards.size(); ++s)
        _threads.emplace_back([this, s] { workerLoop(s); });
}

System::~System() { stopWorkers(); }

void
System::stopWorkers()
{
    if (_threads.empty())
        return;
    _shutdown.store(true, std::memory_order_release);
    for (std::thread &t : _threads)
        t.join();
    _threads.clear();
}

void
System::workerLoop(std::size_t shard_index)
{
    std::uint64_t seen = 0;
    for (;;) {
        while (_epochSeq.load(std::memory_order_acquire) == seen) {
            if (_shutdown.load(std::memory_order_acquire))
                return;
            std::this_thread::yield();
        }
        ++seen;
        runShardTo(*_shards[shard_index], _epochTarget);
        _arrived.fetch_add(1, std::memory_order_release);
    }
}

void
System::runShardTo(Shard &sh, Tick target)
{
    for (Tick c = sh.cycle + 1; c <= target; ++c) {
        // Arrivals first (they were placed by the previous barrier
        // commit or by same-shard local sends), then the queue, then
        // the component tick phases in the legacy order.
        for (int i = sh.firstTile; i < sh.endTile; ++i)
            _net->scheduleDeliveries(i, c, sh.eq);
        sh.eq.runUntil(c);
        for (int i = sh.firstTile; i < sh.endTile; ++i)
            _l1s[std::size_t(i)]->tick();
        for (int i = sh.firstTile; i < sh.endTile; ++i)
            _llcs[std::size_t(i)]->tick();
        for (int i = sh.firstTile; i < sh.endTile; ++i) {
            Core &core = *_cores[std::size_t(i)];
            core.tick();
            if (!_doneOnset[std::size_t(i)] && core.done())
                _doneOnset[std::size_t(i)] = c;
        }
    }
    sh.cycle = target;
}

void
System::barrierCommit()
{
    _net->commitSends();

    if (!_checker || _taps.empty())
        return;
    // Replay the per-tile taps in canonical (tick, tile, local)
    // order. Cross-tile store->load observation always crosses the
    // network (>= 1 tick), so the tile-major same-tick tie-break
    // cannot reorder any pair the checker is sensitive to.
    struct Item
    {
        CheckerTap::Rec rec;
        int tile;
    };
    std::vector<Item> all;
    for (int i = 0; i < _cfg.numCores; ++i) {
        for (CheckerTap::Rec &r : _taps[std::size_t(i)]->take())
            all.push_back(Item{r, i});
    }
    if (all.empty())
        return;
    std::sort(all.begin(), all.end(),
              [](const Item &a, const Item &b) {
                  if (a.rec.when != b.rec.when)
                      return a.rec.when < b.rec.when;
                  if (a.tile != b.tile)
                      return a.tile < b.tile;
                  return a.rec.localSeq < b.rec.localSeq;
              });
    for (const Item &it : all) {
        _checker->setTime(it.rec.when);
        if (it.rec.isStore)
            _checker->storePerformed(it.rec.core, it.rec.addr,
                                     it.rec.value, it.rec.ver);
        else
            _checker->loadCompleted(it.rec.core, it.rec.addr,
                                    it.rec.ver, it.rec.forwarded);
    }
}

void
System::runEpoch(Tick target, bool stops)
{
    assert(target > _cycle);
    if (!threaded()) {
        for (auto &sh : _shards)
            runShardTo(*sh, target);
    } else {
        _epochTarget = target;
        _arrived.store(0, std::memory_order_relaxed);
        // Release pulse: publishes _epochTarget to the workers.
        _epochSeq.fetch_add(1, std::memory_order_release);
        runShardTo(*_shards[0], target);
        const auto want = std::uint32_t(_threads.size());
        while (_arrived.load(std::memory_order_acquire) != want)
            std::this_thread::yield();
    }
    _cycle = target;
    // Sample the state a per-tick sampler would see: every shard at
    // the end of cycle `target`, its sends not yet committed.
    if (_mstream && _mstream->due(target))
        _mstream->emit(target);
    _committed = stops || onGrid(target);
    if (_committed)
        barrierCommit();
}

bool
System::onGrid(Tick c) const
{
    return c % _epochLen == 0 ||
           (_cfg.watchdogPollCycles && c % _cfg.watchdogPollCycles == 0);
}

Tick
System::nextBoundary(Tick c) const
{
    const auto next = [c](Tick period) {
        return (c / period + 1) * period;
    };
    Tick nb = next(_epochLen);
    if (_cfg.watchdogPollCycles)
        nb = std::min(nb, next(_cfg.watchdogPollCycles));
    if (_mstream)
        nb = std::min(nb, next(_mstream->period()));
    return nb;
}

std::uint64_t
System::eventsExecuted() const
{
    std::uint64_t n = 0;
    for (const auto &sh : _shards)
        n += sh->eq.executed();
    return n;
}

bool
System::queuesEmpty() const
{
    for (const auto &sh : _shards)
        if (!sh->eq.empty())
            return false;
    return true;
}

bool
System::allDone() const
{
    for (const auto &c : _cores)
        if (!c->done())
            return false;
    return true;
}

void
System::step(Tick n)
{
    // Epoch-quantised advance; a target off the grid only parks the
    // shards (runEpoch), so stepping cannot move fault draws.
    const Tick target = _cycle + n;
    while (_cycle < target)
        runEpoch(std::min(target, nextBoundary(_cycle)));
}

SimResults
System::run()
{
    runToCycle(_cfg.maxCycles);
    return finishRun();
}

bool
System::runToCycle(Tick target)
{
    // Watchdog baselines are initialised exactly once so a
    // pause/resume sequence steps through the same states as an
    // uninterrupted run (checkpoint witnesses depend on this).
    if (!_runStarted) {
        _runStarted = true;
        _lastProgress = _cycle;
        _lastCommits = 0;
    }
    const Tick stop = std::min(target, _cfg.maxCycles);
    while (_cycle < stop) {
        const Tick b = std::min(stop, nextBoundary(_cycle));
        runEpoch(b, b == _cfg.maxCycles);

        // Completion and watchdog checks run only on the grid: a
        // pause target or a sample tick must not introduce extra
        // check points, or a paused-and-resumed run could classify
        // differently from an uninterrupted one.
        if (!onGrid(b))
            continue;

        if (allDone())
            return false;

        // Deadlock watchdog: global commit progress must continue.
        std::uint64_t commits = 0;
        for (const auto &c : _cores)
            commits += c->instructionsCommitted();
        if (commits != _lastCommits) {
            _lastCommits = commits;
            _lastProgress = _cycle;
        } else if (_cycle - _lastProgress > _cfg.watchdogCycles) {
            _deadlocked = true;
            _deadlockReason = "commit-watchdog";
            watchdogLine("WATCHDOG: no commit for %llu cycles at "
                         "cycle %llu\n",
                         static_cast<unsigned long long>(
                             _cfg.watchdogCycles),
                         static_cast<unsigned long long>(_cycle));
            dumpStateToStderr();
            return false;
        }

        // Per-transaction watchdog: a single wedged MSHR or
        // directory entry must be diagnosed even while other cores
        // keep committing (the global watchdog never fires then).
        if (_cfg.watchdogPollCycles &&
            _cycle % _cfg.watchdogPollCycles == 0 &&
            pollTransactionAges())
            return false;
    }

    // Reached the pause target with the simulation still live —
    // unless the target was the cycle cap itself, which ends the
    // run (finishRun() classifies it).
    return _cycle < _cfg.maxCycles;
}

SimResults
System::finishRun()
{
    // Record the cycle the workload finished (or wedged) at before
    // the teardown drain, so reported performance is comparable
    // whether or not a drain was needed. For a completed run the
    // finish cycle is the latest per-core done onset — the cycle a
    // per-tick completion scan would have stopped at — which makes
    // the reported number independent of the epoch quantisation
    // (and therefore of the shard count).
    Tick done_cycle = _cycle;
    // The run stops here: commit what a pause left in the rings.
    if (!std::exchange(_committed, true))
        barrierCommit();
    if (!_deadlocked && allDone()) {
        Tick latest = 0;
        for (Tick t : _doneOnset)
            latest = std::max(latest, t);
        if (latest)
            done_cycle = latest;
        drainTeardown();
    }

    // Close out the snapshot stream: capture any drift since the
    // last due period (and the header, for runs shorter than one
    // period).
    if (_mstream)
        _mstream->emit(_cycle);

    SimResults r = snapshot();
    r.cycles = done_cycle;
    r.completed = allDone();
    r.deadlocked = _deadlocked;
    r.deadlockReason = _deadlockReason;
    return r;
}

bool
System::pollTransactionAges()
{
    std::string who;
    const Tick age = oldestTxnAge(&who);
    if (age >= _cfg.txnDeadlockCycles) {
        _deadlocked = true;
        _deadlockReason = "transaction-timeout: " + who;
        watchdogLine("WATCHDOG: transaction at %s stuck for %llu "
                     "cycles at cycle %llu\n",
                     who.c_str(),
                     static_cast<unsigned long long>(age),
                     static_cast<unsigned long long>(_cycle));
        dumpStateToStderr();
        return true;
    }
    if (age >= _cfg.txnWarnCycles) {
        if (!_txnWarned) {
            _txnWarned = true;
            watchdogLine(
                "WATCHDOG: slow transaction at %s (age %llu) at "
                "cycle %llu\n",
                who.c_str(), static_cast<unsigned long long>(age),
                static_cast<unsigned long long>(_cycle));
        }
        // Second escalation step: dump full state once, halfway to
        // the deadlock verdict.
        if (!_txnDumped &&
            age >= (_cfg.txnWarnCycles + _cfg.txnDeadlockCycles) /
                       2) {
            _txnDumped = true;
            dumpStateToStderr();
        }
    }
    return false;
}

Tick
System::oldestTxnAge(std::string *who) const
{
    Tick worst = 0;
    for (const auto &l1 : _l1s) {
        const Tick a = l1->oldestTransactionAge(_cycle);
        if (a > worst) {
            worst = a;
            if (who)
                *who = l1->name();
        }
    }
    for (const auto &llc : _llcs) {
        const Tick a = llc->oldestTransactionAge(_cycle);
        if (a > worst) {
            worst = a;
            if (who)
                *who = llc->name();
        }
    }
    return worst;
}

bool
System::quiescent() const
{
    if (_net->inFlight() != 0)
        return false;
    for (const auto &l1 : _l1s)
        if (l1->pendingMshrs() || l1->writebackBufferUse())
            return false;
    for (const auto &llc : _llcs)
        if (llc->evictionBufferUse() || llc->retryQueueUse())
            return false;
    return true;
}

bool
System::cleanTeardown(std::string *why) const
{
    const auto leaked = _net->undelivered();
    if (!leaked.empty()) {
        if (why) {
            char buf[128];
            const auto &m = leaked.front();
            std::snprintf(buf, sizeof(buf),
                          "net: %zu undelivered message(s), first "
                          "%s%s %d->%d line 0x%llx",
                          leaked.size(), m.kind,
                          m.dropped ? " (dropped)" : "", m.src,
                          m.dst,
                          static_cast<unsigned long long>(m.addr));
            *why = buf;
        }
        return false;
    }
    for (const auto &l1 : _l1s) {
        if (l1->pendingMshrs()) {
            if (why) {
                const auto infos = l1->mshrInfos(_cycle);
                char buf[96];
                std::snprintf(
                    buf, sizeof(buf),
                    "%s: %zu outstanding mshr(s), first line "
                    "0x%llx",
                    l1->name().c_str(), infos.size(),
                    infos.empty()
                        ? 0ull
                        : static_cast<unsigned long long>(
                              infos.front().line));
                *why = buf;
            }
            return false;
        }
        if (l1->writebackBufferUse()) {
            if (why)
                *why = l1->name() + ": writeback(s) never acked";
            return false;
        }
    }
    for (const auto &llc : _llcs) {
        const auto infos = llc->transientInfos(_cycle);
        if (!infos.empty()) {
            if (why) {
                char buf[96];
                std::snprintf(
                    buf, sizeof(buf),
                    "%s: line 0x%llx stuck in %s",
                    llc->name().c_str(),
                    static_cast<unsigned long long>(
                        infos.front().line),
                    infos.front().state);
                *why = buf;
            }
            return false;
        }
        // Every deferred queue belongs to a listed entry, so a
        // non-empty table here is an orphaned queue.
        if (llc->deferredLines()) {
            if (why) {
                char buf[112];
                std::snprintf(
                    buf, sizeof(buf),
                    "%s: deferred requests orphaned on %zu line(s), "
                    "first 0x%llx",
                    llc->name().c_str(), llc->deferredLines(),
                    static_cast<unsigned long long>(
                        llc->firstDeferredLine()));
                *why = buf;
            }
            return false;
        }
    }
    return true;
}

void
System::drainTeardown()
{
    // Everything still moving now is protocol housekeeping
    // (writebacks, prefetch fills, eviction recalls): give it a
    // bounded window to settle before judging leaks. Epoch-
    // quantised like the main loop; the idle probe runs at barriers
    // that committed (pending inbox arrivals keep the ledger
    // non-empty, so quiescent() covers them; ring sends do not).
    Tick spent = 0;
    while (spent < _cfg.teardownDrainCycles) {
        if (_committed && quiescent() && queuesEmpty())
            break;
        const Tick b =
            std::min(_cycle + (_cfg.teardownDrainCycles - spent),
                     nextBoundary(_cycle));
        spent += b - _cycle;
        runEpoch(b, spent == _cfg.teardownDrainCycles);
        // A dropped message can wedge a prefetch or writeback even
        // though every core halted; classify it instead of spinning
        // through the whole drain budget.
        if (_cfg.watchdogPollCycles &&
            _cycle % _cfg.watchdogPollCycles == 0 &&
            pollTransactionAges())
            return;
    }
    if (_cfg.recovery.enabled)
        reclassifyRecoveredRequests();
    std::string why;
    if (!cleanTeardown(&why)) {
        _deadlocked = true;
        _deadlockReason = "message-leak: " + why;
        watchdogLine("WATCHDOG: unclean teardown at cycle %llu: "
                     "%s\n",
                     static_cast<unsigned long long>(_cycle),
                     why.c_str());
        dumpStateToStderr();
    }
}

void
System::reclassifyRecoveredRequests()
{
    // A dropped request created no directory state, so no
    // retransmission chases it; its owner's ARQ re-issue recovers
    // the transaction instead. Once the issuing L1 has nothing
    // outstanding for the line, the transaction provably completed
    // through a re-issue: retire the ledger entry as `recovered` so
    // the drain invariant (injected == delivered + recovered +
    // leaked) stays exact and the leak check only reports real
    // losses.
    for (const auto &e : _net->undelivered()) {
        if (!e.dropped || e.vnet != int(VNet::Request))
            continue;
        if (e.src < 0 || e.src >= _cfg.numCores)
            continue;
        const L1Controller &l1 = *_l1s[std::size_t(e.src)];
        if (!l1.lineOutstanding(lineOf(e.addr)))
            _net->markRecovered(e.id);
    }
}

SimResults
System::snapshot() const
{
    SimResults r;
    r.cycles = _cycle;
    r.instructions = _stats.sumCounters(".commits");
    r.loads = _stats.sumCounters(".loads");
    // Core-side stores = committed stores; atomics counted apart.
    r.stores = 0;
    r.atomics = 0;
    for (const auto &c : _cores) {
        r.stores += _stats.counterValue(c->name() + ".stores");
        r.atomics += _stats.counterValue(c->name() + ".atomics");
    }
    r.flitHops = _stats.counterValue("net.flitHops");
    r.messages = _stats.counterValue("net.messages");
    r.leakedMessages = _net->undelivered().size();
    r.faultsDropped = _stats.counterValue("net.faultDropped");
    r.faultsDuplicated = _stats.counterValue("net.faultDuplicated");
    r.faultsDelayed = _stats.counterValue("net.faultDelayed");
    r.recoveryEnabled = _cfg.recovery.enabled;
    r.retransmits = _stats.counterValue("net.retransmits");
    r.recoveredMessages = _stats.counterValue("net.recovered");
    r.arqReissues = _stats.sumCounters(".arqReissues");
    r.arqRecovered = _stats.sumCounters(".arqRecovered");
    r.dedupHits = _stats.sumCounters(".dedupHits");
    r.orphansAbsorbed = _stats.sumCounters(".orphansAbsorbed");
    for (int v = 0; v < numVNets; ++v) {
        r.dupDelivered[std::size_t(v)] = _net->dupDelivered(v);
        r.oooDelivered[std::size_t(v)] = _net->oooDelivered(v);
    }
    r.wbEntries = _stats.sumCounters(".writersBlockEntries");
    r.wbEncounters = _stats.sumCounters(".writersBlockEncounters");
    r.uncacheableReads = _stats.sumCounters(".uncacheableReads");
    r.nacksSent = _stats.sumCounters(".nacksSent");
    r.ackReleases = _stats.sumCounters(".ackReleases");
    r.lockdownsSet = _stats.sumCounters(".lockdownsSet");
    r.lockdownsSeen = _stats.sumCounters(".lockdownsSeen");
    r.ldtExports = _stats.sumCounters(".ldtExports");
    r.oooCommits = _stats.sumCounters(".oooCommits");
    r.squashBranch = _stats.sumCounters(".squashBranch");
    r.squashDspec = _stats.sumCounters(".squashDspec");
    r.squashInv = _stats.sumCounters(".squashInv");
    r.stallRob = _stats.sumCounters(".stallRobFull");
    r.stallLq = _stats.sumCounters(".stallLqFull");
    r.stallSq = _stats.sumCounters(".stallSqFull");
    r.stallOther = _stats.sumCounters(".stallOther");
    r.coreCycles = _stats.sumCounters(".cycles");
    r.tsoViolations =
        _checker ? _checker->violations().size() : 0;
    return r;
}

void
System::dumpState(std::ostream &os) const
{
    for (const auto &c : _cores)
        if (!c->done())
            c->dumpState(os);
    for (const auto &l1 : _l1s)
        l1->dumpState(os);
    for (const auto &llc : _llcs)
        llc->dumpState(os);
}

void
System::dumpStateToStderr() const
{
    std::ostringstream os;
    dumpState(os);
    // One gated write for the whole dump: it lands as one block
    // even while other workers and the progress reporter share
    // stderr.
    StderrGate::writeBlock(stderr, os.str().c_str());
}

std::uint64_t
System::peekCoherent(Addr addr) const
{
    std::uint64_t v = 0;
    bool writable = false;
    // An E/M private copy is the authoritative value.
    for (const auto &l1 : _l1s)
        if (l1->peekWord(addr, v, writable) && writable)
            return v;
    const BankId home = homeBank(lineOf(addr), _cfg.numCores);
    if (_llcs[std::size_t(home)]->peekWord(addr, v))
        return v;
    // A shared private copy matches the LLC/memory image anyway.
    return _memory.peek(addr);
}

std::string
describeConfig(const SystemConfig &cfg)
{
    std::ostringstream os;
    os << cfg.numCores << " cores, "
       << commitModeName(cfg.core.commitMode)
       << (cfg.mem.writersBlock ? " + WritersBlock protocol"
                                : " + base directory protocol")
       << " | IQ " << cfg.core.iqSize << " ROB " << cfg.core.robSize
       << " LQ " << cfg.core.lqSize << " SQ " << cfg.core.sqSize
       << " SB " << cfg.core.sbSize << " LDT " << cfg.core.ldtSize
       << " | L1 " << cfg.mem.l1Size / 1024 << "KB/"
       << cfg.mem.l1HitLatency << "cy L2 "
       << cfg.mem.l2Size / 1024 << "KB/" << cfg.mem.l2HitLatency
       << "cy LLC " << cfg.mem.llcBankSize / 1024 << "KB/bank/"
       << cfg.mem.llcHitLatency << "cy mem " << cfg.mem.memLatency
       << "cy";
    return os.str();
}

} // namespace wb
