#include "core/core.hh"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "obs/flight_recorder.hh"
#include "obs/metrics.hh"
#include "sim/log.hh"

namespace wb
{

Core::Core(std::string name, EventQueue *eq, StatRegistry *stats,
           CoreId id, const CoreConfig &cfg, L1Controller *l1,
           const Program *program)
    : SimObject(std::move(name), eq, stats), _id(id), _cfg(cfg),
      _l1(l1), _prog(program),
      _cycles(statGroup().counter("cycles", "cycles")),
      _committed(statGroup().counter("commits", "instructions")),
      _loadsExecuted(statGroup().counter("loads", "instructions")),
      _storesCommitted(statGroup().counter("stores", "instructions")),
      _atomicsCommitted(statGroup().counter("atomics", "instructions")),
      _stallRobFull(statGroup().counter("stallRobFull", "cycles")),
      _stallLqFull(statGroup().counter("stallLqFull", "cycles")),
      _stallSqFull(statGroup().counter("stallSqFull", "cycles")),
      _stallOther(statGroup().counter("stallOther", "cycles")),
      _squashBranch(statGroup().counter("squashBranch")),
      _squashDspec(statGroup().counter("squashDspec")),
      _squashInv(statGroup().counter("squashInv")),
      _squashedInstrs(statGroup().counter("squashedInstrs")),
      _forwardedLoads(statGroup().counter("forwardedLoads")),
      _lockdownsSet(statGroup().counter("lockdownsSet")),
      _lockdownsSeen(statGroup().counter("lockdownsSeen")),
      _ldtExports(statGroup().counter("ldtExports")),
      _oooCommits(statGroup().counter("oooCommits")),
      _tearoffBinds(statGroup().counter("tearoffBinds")),
      _branchMispredicts(statGroup().counter("branchMispredicts")),
      _branches(statGroup().counter("branches")),
      _lockdownCycles(statGroup().histogram("lockdownCycles",
                                            "cycles"))
{
    _regMap.fill(invalidSeqNum);
    _archWriter.fill(0);
}

void
Core::registerMetrics(MetricsRegistry &metrics)
{
    // Live occupancy gauges: the same structures pipelineSnapshot()
    // reports, polled at each snapshot-stream period.
    auto gauge = [&](const char *n,
                     std::function<std::uint64_t()> poll) {
        metrics.addGauge(name() + "." + n, "entries",
                         std::move(poll));
    };
    gauge("rob", [this] {
        return std::uint64_t(pipelineSnapshot().rob);
    });
    gauge("iq", [this] {
        return std::uint64_t(pipelineSnapshot().iq);
    });
    gauge("lq", [this] {
        return std::uint64_t(pipelineSnapshot().lq);
    });
    gauge("sq", [this] {
        return std::uint64_t(pipelineSnapshot().sq);
    });
    gauge("sb", [this] {
        return std::uint64_t(pipelineSnapshot().sb);
    });
    gauge("locksHeld", [this] {
        return std::uint64_t(pipelineSnapshot().locksHeld);
    });
}

bool
Core::done() const
{
    return _halted && _sb.empty();
}

Core::RobEntry *
Core::robFind(InstSeqNum seq)
{
    return _rob.find(seq);
}

bool
Core::orderedAtOrBefore(InstSeqNum seq) const
{
    return _frontier == invalidSeqNum || seq <= _frontier;
}

bool
Core::isLoadOrdered(InstSeqNum seq) const
{
    return orderedAtOrBefore(seq);
}

bool
Core::coherenceLockdownQuery(Addr line) const
{
    auto it = _locks.find(line);
    return it != _locks.end() && it->second.count > 0;
}

InstSeqNum
Core::oldestPendingAtomic() const
{
    for (auto [seq, lq] : _lq)
        if (lq.isAtomic && !lq.performed)
            return seq;
    return invalidSeqNum;
}

// ---------------------------------------------------------------
// Tick
// ---------------------------------------------------------------

void
Core::tick()
{
    ++_cycles;
    if (_halted) {
        drainStoreBuffer();
        return;
    }
    const std::uint64_t commits_before = _commits;
    commit();
    driveFence();
    driveAtomic();
    drainStoreBuffer();
    issueFromIq();
    memIssue();
    driveSoS();
    fetchAndDispatch();

    if (_commits == commits_before && !_halted) {
        if (int(_rob.size()) >= _cfg.robSize)
            ++_stallRobFull;
        else if (int(_lq.size()) >= _cfg.lqSize)
            ++_stallLqFull;
        else if (int(_sq.size()) >= _cfg.sqSize ||
                 int(_sb.size()) >= _cfg.sbSize)
            ++_stallSqFull;
        else
            ++_stallOther;
    }
}

// ---------------------------------------------------------------
// Fetch / dispatch
// ---------------------------------------------------------------

void
Core::fetchAndDispatch()
{
    if (_halted || _fetchBlocked || now() < _fetchStallUntil)
        return;
    for (int i = 0; i < _cfg.fetchWidth; ++i) {
        Instr in;
        if (_pc >= 0 && std::size_t(_pc) < _prog->size())
            in = (*_prog)[std::size_t(_pc)];
        else
            in = Instr{Opcode::Halt, 0, 0, 0, 0, 0};

        // structural hazards
        if (int(_rob.size()) >= _cfg.robSize)
            return;
        const bool needs_iq =
            in.op != Opcode::Nop && in.op != Opcode::Halt &&
            in.op != Opcode::Jmp && in.op != Opcode::Fence;
        if (needs_iq && int(_iq.size()) >= _cfg.iqSize)
            return;
        if ((isLoad(in.op) || isAtomic(in.op)) &&
            int(_lq.size()) >= _cfg.lqSize)
            return;
        if ((isStore(in.op) || isAtomic(in.op)) &&
            int(_sq.size()) >= _cfg.sqSize)
            return;

        const InstSeqNum seq = _nextSeq++;
        RobEntry e{};
        e.seq = seq;
        e.pc = _pc;
        e.in = in;
        captureSources(e);
        if (writesReg(in.op)) {
            e.prevWriter = _regMap[in.dst];
            _regMap[in.dst] = seq;
        }

        if (isLoad(in.op) || isAtomic(in.op)) {
            LqEntry lq{};
            lq.pc = _pc;
            lq.isAtomic = isAtomic(in.op);
            _lq.emplace(seq, lq);
            if (_frontier == invalidSeqNum)
                _frontier = seq;
        }
        if (isStore(in.op) || isAtomic(in.op))
            _sq.emplace(seq,
                        SqEntry{invalidAddr, false, isAtomic(in.op)});

        // next fetch pc
        int next_pc = _pc + 1;
        if (in.op == Opcode::Halt) {
            e.executed = true;
            _fetchBlocked = true;
        } else if (in.op == Opcode::Jmp) {
            e.executed = true;
            e.predictedTaken = true;
            next_pc = in.target;
        } else if (isConditionalBranch(in.op)) {
            ++_branches;
            e.predictedTaken = _bp.predict(_pc);
            if (e.predictedTaken)
                next_pc = in.target;
        } else if (in.op == Opcode::Nop) {
            e.executed = true;
        } else if (in.op == Opcode::Fence) {
            // Executes at the ROB head once the SB drains
            // (driveFence); blocks younger loads from issuing.
            _fences.insert(seq);
        }

        if (needs_iq) {
            e.inIq = true;
            _iq.push_back(seq);
            if (ready(e))
                ++_iqReady;
        }
        _rob.emplace(seq, std::move(e));
        _commitDirty = true;
        _pc = next_pc;
        if (_fetchBlocked)
            return;
    }
}

void
Core::captureSources(RobEntry &e)
{
    const int n = numSources(e.in.op);
    const Reg srcs[2] = {e.in.src1, e.in.src2};
    for (int i = 0; i < n; ++i) {
        const Reg r = srcs[i];
        e.srcReady[i] = false;
        const InstSeqNum prod = _regMap[r];
        if (prod == invalidSeqNum) {
            e.srcVal[i] = _archRegs[r];
            e.srcReady[i] = true;
            continue;
        }
        RobEntry *p = robFind(prod);
        if (!p) {
            // Producer already committed; the guarded architectural
            // write left its value in the register file.
            e.srcVal[i] = _archRegs[r];
            e.srcReady[i] = true;
        } else if (p->executed) {
            e.srcVal[i] = p->result;
            e.srcReady[i] = true;
        } else {
            p->consumers.emplace_back(e.seq, i);
        }
    }
}

void
Core::wakeConsumers(RobEntry &e)
{
    for (const auto &[cseq, op] : e.consumers) {
        RobEntry *c = robFind(cseq);
        if (c && !c->srcReady[op]) {
            const bool was_ready = ready(*c);
            c->srcVal[std::size_t(op)] = e.result;
            c->srcReady[std::size_t(op)] = true;
            if (c->inIq && !was_ready && ready(*c))
                ++_iqReady;
            _commitDirty = true; // a store's data may now be ready
        }
    }
    e.consumers.clear();
}

// ---------------------------------------------------------------
// Issue / execute
// ---------------------------------------------------------------

bool
Core::ready(const RobEntry &e) const
{
    const Opcode op = e.in.op;
    if (isMem(op))
        return e.srcReady[0]; // address generation needs the base
    const int n = numSources(op);
    for (int i = 0; i < n; ++i)
        if (!e.srcReady[i])
            return false;
    return true;
}

void
Core::issueFromIq()
{
    // Oldest-first selection of up to fetchWidth ready entries. The
    // walk ends once the budget or the ready entries run out; the
    // unvisited tail stays as it is.
    int budget = _cfg.fetchWidth;
    std::size_t keep = 0;
    std::size_t i = 0;
    for (; i < _iq.size() && budget > 0 && _iqReady > 0; ++i) {
        const InstSeqNum seq = _iq[i];
        RobEntry *e = robFind(seq);
        assert(e);
        if (!ready(*e)) {
            // Stall-on-use cores issue strictly in order: the first
            // not-ready instruction blocks everything younger.
            // (Loads that already issued keep performing out of
            // order — exactly the EV5/ECL reordering window.)
            if (_cfg.inOrderIssue)
                break;
            _iq[keep++] = seq;
            continue;
        }
        --budget;
        --_iqReady;
        e->inIq = false;
        e->issued = true;
        eventQueue().scheduleIn(execLatency(e->in.op),
                                [this, seq]() { execute(seq); });
    }
    if (keep != i)
        _iq.erase(_iq.begin() + std::ptrdiff_t(keep),
                  _iq.begin() + std::ptrdiff_t(i));
}

void
Core::execute(InstSeqNum seq)
{
    RobEntry *e = robFind(seq);
    if (!e || e->executed)
        return; // squashed (or atomic already performed at head)
    const Opcode op = e->in.op;
    _commitDirty = true;

    if (isMem(op)) {
        // Address generation.
        e->addr = wordOf(e->srcVal[0] + std::uint64_t(e->in.imm));
        e->addrReady = true;
        if (isLoad(op) || isAtomic(op)) {
            LqEntry *lq = _lq.find(seq);
            assert(lq);
            lq->addr = e->addr;
            lq->pc = e->pc;
            if (isLoad(op))
                _memReady.insert(std::upper_bound(_memReady.begin(),
                                                  _memReady.end(),
                                                  seq),
                                 seq);
        }
        if (isStore(op) || isAtomic(op)) {
            SqEntry *sq = _sq.find(seq);
            assert(sq);
            sq->addr = e->addr;
            sq->addrReady = true;
            if (op == Opcode::St)
                e->executed = true;
            // Memory-dependence violation: a younger load already
            // performed on this word without seeing this store.
            const Addr w = e->addr;
            for (auto lit = _lq.upperBound(seq); lit != _lq.end();
                 ++lit) {
                if (lit->second.performed &&
                    lit->second.addr == w) {
                    squashFrom(lit->first, lit->second.pc,
                               _squashDspec);
                    break;
                }
            }
        }
        return;
    }

    if (isConditionalBranch(op)) {
        const bool taken =
            branchTaken(e->in, e->srcVal[0], e->srcVal[1]);
        _bp.update(e->pc, taken);
        e->executed = true;
        if (taken != e->predictedTaken) {
            ++_branchMispredicts;
            const int target = taken ? e->in.target : e->pc + 1;
            squashFrom(seq + 1, target, _squashBranch);
        }
        return;
    }

    // Plain ALU.
    e->result = aluResult(e->in, e->srcVal[0], e->srcVal[1]);
    e->executed = true;
    wakeConsumers(*e);
}

// ---------------------------------------------------------------
// Load path
// ---------------------------------------------------------------

void
Core::memIssue()
{
    // Visit the candidates oldest first, exactly as a walk of the
    // whole LQ would; a candidate that was forwarded or accepted by
    // the L1 leaves the list. Ones that could not go this cycle
    // (fence, store match, owed lockdown, MSHRs full) stay and are
    // retried next cycle: the L1 counts each refused attempt.
    int ports = _cfg.cachePorts;
    std::size_t keep = 0;
    std::size_t i = 0;
    for (; i < _memReady.size() && ports > 0; ++i) {
        const InstSeqNum seq = _memReady[i];
        LqEntry *lq = _lq.find(seq);
        assert(lq);
        if (tryIssueLoad(seq, *lq))
            --ports;
        else
            _memReady[keep++] = seq;
    }
    if (keep != i)
        _memReady.erase(_memReady.begin() + std::ptrdiff_t(keep),
                        _memReady.begin() + std::ptrdiff_t(i));
}

bool
Core::tryIssueLoad(InstSeqNum seq, LqEntry &lq)
{
    // A pending fence orders every younger load after it.
    if (!_fences.empty() && *_fences.begin() < seq)
        return false;

    // Store-to-load forwarding / memory-dependence stall: find
    // the youngest older store to the same word (descending
    // walk from the first SQ entry at or past this load).
    bool stalled = false;
    bool forwarded = false;
    for (auto sit = _sq.lowerBound(seq); sit != _sq.begin();) {
        --sit;
        const SqEntry &sq = sit->second;
        if (!sq.addrReady || sq.addr != lq.addr)
            continue;
        if (sq.isAtomic) {
            // The atomic has not performed (it would have left
            // the SQ); its value is unknown: stall.
            stalled = true;
            break;
        }
        RobEntry *prod = robFind(sit->first);
        assert(prod);
        if (prod->srcReady[1]) {
            bindLoad(seq, lq, prod->srcVal[1], 0, true);
            ++_forwardedLoads;
            forwarded = true;
        } else {
            stalled = true; // match without data yet
        }
        break;
    }
    if (forwarded)
        return true;
    if (stalled)
        return false;

    // Committed stores awaiting the cache: forward from the SB.
    const SbEntry *sb_hit = nullptr;
    for (auto it = _sb.rbegin(); it != _sb.rend(); ++it) {
        if (it->addr == lq.addr) {
            sb_hit = &*it;
            break;
        }
    }
    if (sb_hit) {
        bindLoad(seq, lq, sb_hit->data, 0, true);
        ++_forwardedLoads;
        return true;
    }

    // WritersBlock optimisation (Section 3.4): do not issue new
    // unordered loads for a line whose lockdown has already been
    // seen — they would only receive unusable tear-off copies.
    if (!orderedAtOrBefore(seq)) {
        auto lk = _locks.find(lineOf(lq.addr));
        if (lk != _locks.end() && lk->second.owed)
            return false;
    }

    if (!_l1->issueLoad(seq, lq.addr))
        return false; // MSHRs full: retry next cycle
    lq.issued = true;
    return true;
}

void
Core::bindLoad(InstSeqNum seq, LqEntry &lq, std::uint64_t value,
               Version ver, bool forwarded)
{
    if (lq.performed)
        return;
    lq.performed = true;
    lq.value = value;
    lq.version = ver;
    lq.forwarded = forwarded;
    ++_loadsExecuted;
    WB_TRACE(LogFlag::Core, now(), name().c_str(),
             "bind seq=%llu addr=%llx val=%llu ver=%llu fwd=%d",
             static_cast<unsigned long long>(seq),
             static_cast<unsigned long long>(lq.addr),
             static_cast<unsigned long long>(value),
             static_cast<unsigned long long>(ver), int(forwarded));

    RobEntry *e = robFind(seq);
    assert(e);
    e->result = value;
    e->executed = true;
    _commitDirty = true;
    wakeConsumers(*e);

    // M-speculative? (an older load is still non-performed; the
    // frontier is the oldest one and has not moved yet)
    const bool mspec = _frontier < seq;
    Addr lockdown_line = invalidAddr;
    if (mspec && !forwarded && _cfg.lockdown) {
        lockdown_line = lineOf(lq.addr);
        lq.lockdown = true;
        ++_lockdownsSet;
        LockInfo &li = _locks[lockdown_line];
        if (li.count == 0) {
            li.firstSet = now();
            WB_EVENT(recorder(), now(), EvKind::LockAcquire,
                     EvUnit::Core, _id, lockdown_line);
        }
        ++li.count;
        WB_TRACE(LogFlag::Lockdown, now(), name().c_str(),
                 "lockdown set seq %llu line %llx",
                 static_cast<unsigned long long>(seq),
                 static_cast<unsigned long long>(lockdown_line));
    }
    _pendingChecks.emplace(
        seq, PendingCheck{lq.addr, ver, forwarded, lockdown_line});
    advanceFrontier();
}

void
Core::loadResponse(InstSeqNum seq, Addr addr, std::uint64_t value,
                   Version ver, LoadSource src)
{
    LqEntry *lq = _lq.find(seq);
    if (!lq || lq->performed)
        return; // squashed or duplicate
    if (lq->addr != wordOf(addr))
        return; // stale response from a squashed incarnation
    if (src == LoadSource::TearOff)
        ++_tearoffBinds;
    bindLoad(seq, *lq, value, ver, false);
}

void
Core::loadMustRetry(InstSeqNum seq, Addr addr)
{
    LqEntry *lq = _lq.find(seq);
    if (!lq || lq->performed)
        return;
    if (lq->addr != wordOf(addr))
        return;
    lq->mustRetry = true;
    lq->issued = false;
}

void
Core::advanceFrontier()
{
    // The frontier only moves forward: loads older than it are all
    // performed, and a squash only removes the young end. Resume the
    // walk at the old frontier (O(1) when it has not moved).
    if (_frontier != invalidSeqNum) {
        auto it = _lq.lowerBound(_frontier);
        while (it != _lq.end() && it->second.performed)
            ++it;
        _frontier = it == _lq.end() ? invalidSeqNum : it->first;
    }
    const InstSeqNum f = _frontier;

    // Completion walk: loads older than the frontier are now ordered
    // and performed, i.e. completed. Process them in program order:
    // feed the checker, release lockdowns (sending withheld Acks),
    // and retire LDT entries — the collapsed equivalent of the
    // paper's guardian-index hand-off (Figure 7).
    while (!_pendingChecks.empty()) {
        auto it = _pendingChecks.begin();
        if (it->first >= f)
            break;
        const PendingCheck &pc = it->second;
        if (_checker)
            _checker->loadCompleted(_id, pc.addr, pc.version,
                                    pc.forwarded);
        if (pc.lockdownLine != invalidAddr)
            releaseLockdown(pc.lockdownLine);
        if (LqEntry *lq = _lq.find(it->first))
            lq->lockdown = false;
        for (auto lit = _ldt.begin(); lit != _ldt.end(); ++lit) {
            if (lit->first == it->first) {
                _ldt.erase(lit);
                _commitDirty = true;
                break;
            }
        }
        _pendingChecks.erase(it);
    }
}

void
Core::releaseLockdown(Addr line)
{
    auto it = _locks.find(line);
    assert(it != _locks.end() && it->second.count > 0);
    if (--it->second.count == 0) {
        const bool owed = it->second.owed;
        const Tick held = now() - it->second.firstSet;
        _lockdownCycles.sample(held);
        if (auto *fr = recorder())
            fr->lockHeld(now(), _id, line, held);
        _locks.erase(it);
        if (owed) {
            WB_TRACE(LogFlag::Lockdown, now(), name().c_str(),
                     "lockdown lifted line %llx, acking",
                     static_cast<unsigned long long>(line));
            _l1->lockdownLifted(line);
        }
    }
}

void
Core::driveSoS()
{
    if (_frontier == invalidSeqNum)
        return;
    LqEntry *lqp = _lq.find(_frontier);
    if (!lqp)
        return;
    LqEntry &lq = *lqp;
    if (lq.isAtomic || lq.performed || lq.addr == invalidAddr)
        return;
    if (lq.mustRetry) {
        // Tear-off retry: reissue now that the load is the SoS load.
        if (_l1->issueLoad(_frontier, lq.addr)) {
            lq.mustRetry = false;
            lq.issued = true;
        }
        return;
    }
    if (lq.issued)
        _l1->loadBecameSoS(_frontier, lq.addr);
}

// ---------------------------------------------------------------
// Stores and atomics
// ---------------------------------------------------------------

void
Core::drainStoreBuffer()
{
    if (_sb.empty())
        return;
    SbEntry &head = _sb.front();
    const Addr line = lineOf(head.addr);
    if (_l1->hasWritePermission(line)) {
        assert(head.seq > _lastDrainedStore &&
               "store buffer drained out of program order");
        _lastDrainedStore = head.seq;
        _l1->performStore(head.addr, head.data);
        _sb.pop_front();
        _commitDirty = true;
    } else {
        _l1->requestWritePermission(line);
    }
    // Prefetch write permission for the next few buffered stores.
    int quota = 3;
    for (const SbEntry &e : _sb) {
        if (quota-- <= 0)
            break;
        const Addr l = lineOf(e.addr);
        if (!_l1->hasWritePermission(l))
            _l1->requestWritePermission(l);
    }
}

void
Core::driveFence()
{
    if (_fences.empty() || _rob.empty())
        return;
    const InstSeqNum seq = _rob.frontSeq();
    RobEntry &e = _rob.front();
    if (e.in.op != Opcode::Fence || e.executed)
        return;
    // mfence semantics: all earlier stores globally visible before
    // anything later proceeds.
    if (!_sb.empty())
        return;
    e.executed = true;
    _fences.erase(seq);
    _commitDirty = true;
}

void
Core::driveAtomic()
{
    if (_rob.empty())
        return;
    const InstSeqNum seq = _rob.frontSeq();
    RobEntry &e = _rob.front();
    if (!isAtomic(e.in.op) || e.executed)
        return;
    if (!e.addrReady || !e.srcReady[1] || !_sb.empty())
        return;
    const Addr line = lineOf(e.addr);
    if (!_l1->hasWritePermission(line)) {
        _l1->requestWritePermission(line);
        return;
    }
    const Opcode op = e.in.op;
    const std::uint64_t operand = e.srcVal[1];
    auto [old, old_ver] = _l1->performAtomic(
        e.addr,
        [op, operand](std::uint64_t o) {
            return amoResult(op, o, operand);
        });
    e.result = old;
    e.executed = true;
    _commitDirty = true;
    wakeConsumers(e);
    LqEntry *lq = _lq.find(seq);
    assert(lq);
    bindLoad(seq, *lq, old, old_ver, false);
}

// ---------------------------------------------------------------
// Commit
// ---------------------------------------------------------------

void
Core::commit()
{
    // A scan that retired nothing is a pure function of state that
    // only the marked events change (docs/PERFORMANCE.md), so until
    // one of them happens the next scan would retire nothing too.
    if (!_commitDirty)
        return;
    _commitDirty = false;

    int budget = _cfg.commitWidth;
    CommitScan scan;
    for (auto it = _rob.begin(); it != _rob.end() && budget > 0;) {
        RobEntry &e = it->second;
        const bool at_head = it == _rob.begin();
        const CommitStep step = commitStep(it->first, e, at_head, scan);
        if (step == CommitStep::Stop)
            break;
        if (step == CommitStep::Skip) {
            ++it;
            continue;
        }

        if (e.in.op == Opcode::Halt) {
            _halted = true;
            ++_commits;
            ++_committed;
            WB_EVENT(recorder(), now(), EvKind::Commit, EvUnit::Core,
                     _id);
            if (_commitHook)
                _commitHook(it->first, e.pc, e.in, invalidAddr);
            _rob.erase(it);
            return;
        }
        if (!at_head)
            ++_oooCommits;
        if (step == CommitStep::RetireToLdt) {
            _ldt.push_back(
                {it->first, LdtEntry{lineOf(e.addr), false}});
            ++_ldtExports;
        }
        retireEntry(e);
        --budget;
        it = _rob.erase(it);
    }
    if (budget < _cfg.commitWidth)
        _commitDirty = true; // retiring changed what the scan reads
}

Core::CommitStep
Core::commitStep(InstSeqNum seq, const RobEntry &e, bool at_head,
                 CommitScan &scan) const
{
    const Opcode op = e.in.op;

    if (_cfg.commitMode == CommitMode::InOrder && !at_head)
        return CommitStep::Stop;

    // Bell-Lipasti condition 3: unresolved control flow.
    if (isConditionalBranch(op) && !e.executed)
        return CommitStep::Stop;
    // Condition 4: unresolved store (or atomic) address.
    if ((isStore(op) || isAtomic(op)) && !e.addrReady)
        return CommitStep::Stop;

    if (op == Opcode::Halt)
        return at_head ? CommitStep::Retire : CommitStep::Stop;

    bool can = false;
    bool export_ldt = false;
    if (isLoad(op)) {
        const bool completed = e.executed && orderedAtOrBefore(seq);
        if (completed) {
            // Performed + ordered: condition 6 holds.
            can = true;
        } else if (_cfg.commitMode == CommitMode::OooSafe) {
            // Squash-and-re-execute core. The *oldest*
            // outstanding load (the SoS load) performs ordered
            // and can never be invalidation-squashed, so
            // completed younger non-memory instructions may
            // retire past it. Any further outstanding load
            // could later perform M-speculatively and be
            // squashed — rolling back past committed state —
            // so the scan stops there (condition 6). This is
            // exactly the serialisation WritersBlock lifts.
            if (e.executed || scan.unperformedLoad)
                return CommitStep::Stop; // M-spec or 2nd outstanding
            scan.unperformedLoad = true;
        } else if (!e.executed) {
            scan.unperformedLoad = true;
        } else {
            // Performed but M-speculative, lockdown-capable (or
            // deliberately unsafe) core.
            const LqEntry *lq = _lq.find(seq);
            const bool has_lockdown = lq && lq->lockdown;
            switch (_cfg.commitMode) {
              case CommitMode::OooWB:
                if (!has_lockdown) {
                    can = true; // forwarded load: local value
                } else if (int(_ldt.size()) < _cfg.ldtSize) {
                    can = true;
                    export_ldt = true;
                }
                break;
              case CommitMode::OooUnsafe:
                can = true;
                break;
              default:
                break; // InOrder: wait (head only anyway)
            }
        }
    } else if (isFence(op)) {
        if (!e.executed) {
            // Nothing may retire past a pending full fence.
            if (_cfg.commitMode != CommitMode::InOrder)
                return CommitStep::Stop;
            scan.unperformedLoad = true;
            scan.unperformedAtomic = true;
        } else {
            can = true;
        }
    } else if (isAtomic(op)) {
        if (!e.executed) {
            // Loads younger than a non-performed atomic remain
            // squashable even in a lockdown core (Section 3.7):
            // stop the scan so no committed instruction can fall
            // inside a future invalidation squash.
            if (_cfg.commitMode != CommitMode::InOrder)
                return CommitStep::Stop;
            scan.unperformedAtomic = true;
            scan.unperformedLoad = true;
        } else {
            can = true;
        }
    } else if (isStore(op)) {
        // Stores commit in program order (store->store through
        // the FIFO SB) and never relax load->store
        // (Section 3.1.2).
        can = e.addrReady && e.srcReady[1] &&
              !scan.unperformedLoad && !scan.unperformedAtomic &&
              !scan.uncommittedStore &&
              int(_sb.size()) < _cfg.sbSize;
        if (!can)
            scan.uncommittedStore = true;
    } else {
        can = e.executed;
    }

    if (!can)
        return _cfg.commitMode == CommitMode::InOrder
                   ? CommitStep::Stop
                   : CommitStep::Skip;
    return export_ldt ? CommitStep::RetireToLdt : CommitStep::Retire;
}

void
Core::retireEntry(RobEntry &e)
{
    const Opcode op = e.in.op;
    if (writesReg(op) && e.seq > _archWriter[e.in.dst]) {
        _archRegs[e.in.dst] = e.result;
        _archWriter[e.in.dst] = e.seq;
    }
    if (isLoad(op) || isAtomic(op))
        _lq.erase(e.seq);
    if (isStore(op)) {
        _sb.push_back(SbEntry{e.seq, e.addr, e.srcVal[1]});
        ++_storesCommitted;
    }
    if (isAtomic(op)) {
        _sq.erase(e.seq);
        ++_atomicsCommitted;
    }
    if (isStore(op))
        _sq.erase(e.seq);
    ++_commits;
    ++_committed;
    WB_EVENT(recorder(), now(), EvKind::Commit, EvUnit::Core, _id,
             e.addr);
    if (_commitHook)
        _commitHook(e.seq, e.pc, e.in,
                    isMem(op) ? e.addr : invalidAddr);
}

// ---------------------------------------------------------------
// Squash
// ---------------------------------------------------------------

void
Core::squashFrom(InstSeqNum first_bad, int new_pc, Counter &reason)
{
    ++reason;
    WB_TRACE(LogFlag::Core, now(), name().c_str(),
             "squash from=%llu newpc=%d",
             static_cast<unsigned long long>(first_bad), new_pc);
    std::vector<InstSeqNum> gone;
    for (auto it = _rob.lowerBound(first_bad); it != _rob.end();
         ++it)
        gone.push_back(it->first);

    for (auto rit = gone.rbegin(); rit != gone.rend(); ++rit) {
        const InstSeqNum seq = *rit;
        RobEntry *ep = _rob.find(seq);
        assert(ep);
        RobEntry &e = *ep;
        if (writesReg(e.in.op))
            _regMap[e.in.dst] = e.prevWriter;
        if (e.inIq && ready(e))
            --_iqReady;
        if (const LqEntry *lq = _lq.find(seq)) {
            if (lq->lockdown)
                releaseLockdown(lineOf(lq->addr));
            _lq.erase(seq);
        }
        _pendingChecks.erase(seq);
        _sq.erase(seq);
        _fences.erase(seq);
        _rob.erase(seq);
        ++_squashedInstrs;
    }
    // Both lists are ascending: the squashed entries are their tails.
    _iq.erase(std::lower_bound(_iq.begin(), _iq.end(), first_bad),
              _iq.end());
    _memReady.erase(std::lower_bound(_memReady.begin(),
                                     _memReady.end(), first_bad),
                    _memReady.end());
    _commitDirty = true;
    _pc = new_pc;
    _fetchBlocked = false;
    _fetchStallUntil = now() + _cfg.mispredictPenalty;
    WB_EVENT(recorder(), now(), EvKind::Squash, EvUnit::Core, _id,
             0, gone.size());
    advanceFrontier();
}

// ---------------------------------------------------------------
// Coherence interface
// ---------------------------------------------------------------

void
Core::dumpState(std::ostream &os) const
{
    os << name() << ": pc=" << _pc << " halted=" << _halted
       << " fetchBlocked=" << _fetchBlocked
       << " commits=" << _commits << " rob=" << _rob.size()
       << " iq=" << _iq.size() << " lq=" << _lq.size()
       << " sq=" << _sq.size() << " sb=" << _sb.size()
       << " ldt=" << _ldt.size() << " frontier=" << _frontier
       << "\n";
    int n = 0;
    for (auto [seq, e] : _rob) {
        if (++n > 6)
            break;
        os << "  rob seq=" << seq << " pc=" << e.pc << " "
           << disasm(e.in) << " iss=" << e.issued
           << " exec=" << e.executed << " addrRdy=" << e.addrReady
           << " src=" << e.srcReady[0] << e.srcReady[1] << "\n";
    }
    for (auto [seq, lq] : _lq) {
        os << "  lq seq=" << seq << " addr=" << std::hex << lq.addr
           << std::dec << " iss=" << lq.issued
           << " perf=" << lq.performed << " retry=" << lq.mustRetry
           << " lkdn=" << lq.lockdown << " seen=" << lq.seen
           << " atomic=" << lq.isAtomic << "\n";
    }
    if (!_sb.empty())
        os << "  sb head addr=" << std::hex << _sb.front().addr
           << std::dec << "\n";
    for (const auto &[line, li] : _locks)
        os << "  lock line=" << std::hex << line << std::dec
           << " count=" << li.count << " owed=" << li.owed << "\n";
}

std::string
Core::checkBookkeeping() const
{
    std::ostringstream err;
    int ready_count = 0;
    for (std::size_t i = 0; i < _iq.size(); ++i) {
        const RobEntry *e = _rob.find(_iq[i]);
        if (!e || !e->inIq)
            err << "IQ seq " << _iq[i] << " not a waiting ROB entry; ";
        else if (ready(*e))
            ++ready_count;
        if (i > 0 && _iq[i - 1] >= _iq[i])
            err << "IQ not ascending at seq " << _iq[i] << "; ";
    }
    if (ready_count != _iqReady)
        err << "ready IQ entries " << ready_count << " but count "
            << _iqReady << "; ";

    std::vector<InstSeqNum> cands;
    InstSeqNum frontier = invalidSeqNum;
    for (auto [seq, lq] : _lq) {
        if (!lq.isAtomic && !lq.performed && !lq.issued &&
            !lq.mustRetry && lq.addr != invalidAddr)
            cands.push_back(seq);
        if (!lq.performed && frontier == invalidSeqNum)
            frontier = seq;
    }
    if (cands != _memReady)
        err << "memIssue candidates: " << cands.size()
            << " in the LQ, " << _memReady.size() << " tracked; ";
    if (frontier != _frontier)
        err << "frontier " << _frontier << " but oldest unperformed "
            << "load " << frontier << "; ";

    if (!_commitDirty && !_halted) {
        CommitScan scan;
        for (auto it = _rob.begin(); it != _rob.end(); ++it) {
            const CommitStep step =
                commitStep(it->first, it->second, it == _rob.begin(),
                           scan);
            if (step == CommitStep::Stop)
                break;
            if (step != CommitStep::Skip) {
                err << "commit idle but seq " << it->first
                    << " can retire; ";
                break;
            }
        }
    }
    return err.str();
}

Core::PipelineSnapshot
Core::pipelineSnapshot() const
{
    PipelineSnapshot s;
    s.pc = _pc;
    s.halted = _halted;
    s.commits = _commits;
    s.rob = _rob.size();
    s.iq = _iq.size();
    s.lq = _lq.size();
    s.sq = _sq.size();
    s.sb = _sb.size();
    s.ldt = _ldt.size();
    s.robHead = _rob.frontSeq();
    s.frontier = _frontier;
    for (const auto &[line, li] : _locks) {
        if (li.count > 0)
            ++s.locksHeld;
        if (li.owed)
            ++s.locksOwed;
    }
    return s;
}

InvResponse
Core::coherenceInvalidation(Addr line)
{
    WB_TRACE(LogFlag::Core, now(), name().c_str(),
             "coherence inv line=%llx frontier=%llu",
             static_cast<unsigned long long>(line),
             static_cast<unsigned long long>(_frontier));
    if (!_cfg.lockdown) {
        if (_cfg.commitMode == CommitMode::OooUnsafe) {
            // Negative control: neither lockdowns nor squashes —
            // reordered loads keep their stale values and the
            // reordering becomes architecturally visible. (A squash
            // here could roll back past already-committed younger
            // instructions, which no real core can do.)
            return InvResponse::Ack;
        }
        // Baseline squash-and-re-execute (Figure 2.A): squash the
        // oldest matching M-speculative load and everything younger.
        for (auto [seq, lq] : _lq) {
            if (lq.performed && !lq.forwarded &&
                lq.addr != invalidAddr &&
                lineOf(lq.addr) == line && seq > _frontier) {
                squashFrom(seq, lq.pc, _squashInv);
                break;
            }
        }
        return InvResponse::Ack;
    }

    // Lockdown core. Loads younger than a non-performed atomic may
    // not lock down (Section 3.7): squash them instead.
    const InstSeqNum atomic_seq = oldestPendingAtomic();
    if (atomic_seq != invalidSeqNum) {
        for (auto [seq, lq] : _lq) {
            if (seq > atomic_seq && lq.lockdown &&
                lineOf(lq.addr) == line) {
                squashFrom(seq, lq.pc, _squashInv);
                break;
            }
        }
    }

    auto it = _locks.find(line);
    if (it != _locks.end() && it->second.count > 0) {
        it->second.owed = true;
        ++_lockdownsSeen;
        // Set the S bits (stats/introspection; the owed flag is the
        // authoritative state).
        for (auto [seq, lq] : _lq)
            if (lq.lockdown && lineOf(lq.addr) == line)
                lq.seen = true;
        for (auto &[seq, ldt] : _ldt)
            if (ldt.line == line)
                ldt.seen = true;
        return InvResponse::Nack;
    }
    return InvResponse::Ack;
}

void
Core::serializeState(ByteWriter &w) const
{
    // Architectural state.
    for (std::uint64_t r : _archRegs)
        w.u64(r);
    for (InstSeqNum s : _archWriter)
        w.u64(s);
    w.i64(_pc);
    w.b(_halted);
    w.b(_fetchBlocked);
    w.u64(_fetchStallUntil);

    // ROB, in ascending sequence order (SeqTable iteration order).
    w.u64(_rob.size());
    for (auto [seq, e] : _rob) {
        w.u64(seq);
        w.i64(e.pc);
        w.u8(static_cast<std::uint8_t>(e.in.op));
        w.u8(e.in.dst);
        w.u8(e.in.src1);
        w.u8(e.in.src2);
        w.i64(e.in.imm);
        w.i64(e.in.target);
        w.u64(e.srcVal[0]);
        w.u64(e.srcVal[1]);
        w.b(e.srcReady[0]);
        w.b(e.srcReady[1]);
        w.u64(e.prevWriter);
        w.u64(e.consumers.size());
        for (const auto &[cseq, slot] : e.consumers) {
            w.u64(cseq);
            w.i64(slot);
        }
        w.u64(e.result);
        w.b(e.inIq);
        w.b(e.issued);
        w.b(e.executed);
        w.b(e.predictedTaken);
        w.u64(e.addr);
        w.b(e.addrReady);
    }

    // IQ: the vector's own order is deterministic pipeline state.
    w.u64(_iq.size());
    for (InstSeqNum s : _iq)
        w.u64(s);

    w.u64(_lq.size());
    for (auto [seq, e] : _lq) {
        w.u64(seq);
        w.i64(e.pc);
        w.u64(e.addr);
        w.b(e.isAtomic);
        w.b(e.issued);
        w.b(e.performed);
        w.b(e.forwarded);
        w.b(e.mustRetry);
        w.b(e.lockdown);
        w.b(e.seen);
        w.u64(e.value);
        w.u64(e.version);
    }

    w.u64(_sq.size());
    for (auto [seq, e] : _sq) {
        w.u64(seq);
        w.u64(e.addr);
        w.b(e.addrReady);
        w.b(e.isAtomic);
    }

    w.u64(_sb.size());
    for (const SbEntry &e : _sb) {
        w.u64(e.seq);
        w.u64(e.addr);
        w.u64(e.data);
    }

    w.u64(_ldt.size());
    for (const auto &[seq, e] : _ldt) {
        w.u64(seq);
        w.u64(e.line);
        w.b(e.seen);
    }

    for (InstSeqNum s : _regMap)
        w.u64(s);
    _bp.serializeState(w);

    // Lockdown map: unordered, emit in ascending line order.
    {
        std::vector<Addr> lines;
        lines.reserve(_locks.size());
        for (const auto &[line, info] : _locks)
            lines.push_back(line);
        std::sort(lines.begin(), lines.end());
        w.u64(lines.size());
        for (Addr line : lines) {
            const LockInfo &info = _locks.at(line);
            w.u64(line);
            w.i64(info.count);
            w.b(info.owed);
            w.u64(info.firstSet);
        }
    }

    w.u64(_pendingChecks.size());
    for (const auto &[seq, pc] : _pendingChecks) {
        w.u64(seq);
        w.u64(pc.addr);
        w.u64(pc.version);
        w.b(pc.forwarded);
        w.u64(pc.lockdownLine);
    }

    w.u64(_frontier);

    w.u64(_fences.size());
    for (InstSeqNum s : _fences)
        w.u64(s);

    w.u64(_nextSeq);
    w.u64(_lastDrainedStore);
    w.u64(_commits);
}

} // namespace wb
