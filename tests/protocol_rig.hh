/**
 * @file
 * Scripted protocol rig shared by the protocol-level tests: L1
 * controllers + LLC banks on an ideal network, driven by fake cores
 * instead of pipelines.
 */

#ifndef WB_TESTS_PROTOCOL_RIG_HH
#define WB_TESTS_PROTOCOL_RIG_HH

#include <memory>
#include <vector>

#include "coherence/l1_controller.hh"
#include "coherence/llc_bank.hh"
#include "coherence/main_memory.hh"
#include "network/ideal.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace wb
{

/** Scriptable core-side endpoint. */
class FakeCore : public CoreMemIf
{
  public:
    struct Response
    {
        InstSeqNum seq;
        Addr addr;
        std::uint64_t value;
        Version ver;
        LoadSource src;
    };

    InvResponse invAnswer = InvResponse::Ack;
    bool ordered = true;   //!< isLoadOrdered() answer
    /** Loads isLoadOrdered() calls unordered even when ordered. */
    std::vector<InstSeqNum> unorderedSeqs;
    bool lockHeld = false; //!< coherenceLockdownQuery() answer

    std::vector<Addr> invalidations;
    std::vector<Response> responses;
    std::vector<InstSeqNum> retries;

    InvResponse
    coherenceInvalidation(Addr line) override
    {
        invalidations.push_back(line);
        return invAnswer;
    }

    void
    loadResponse(InstSeqNum seq, Addr addr, std::uint64_t value,
                 Version ver, LoadSource src) override
    {
        responses.push_back({seq, addr, value, ver, src});
    }

    void
    loadMustRetry(InstSeqNum seq, Addr) override
    {
        retries.push_back(seq);
    }

    bool coherenceLockdownQuery(Addr) const override
    {
        return lockHeld;
    }

    bool
    isLoadOrdered(InstSeqNum seq) const override
    {
        for (InstSeqNum s : unorderedSeqs)
            if (s == seq)
                return false;
        return ordered;
    }
};

/** A tiny n-node memory system with fake cores. */
class ProtocolRig
{
  public:
    explicit ProtocolRig(int nodes, MemSystemConfig cfg = {})
    {
        cfg.writersBlock = true;
        cfg.numBanks = unsigned(nodes);
        IdealNetworkConfig nc;
        nc.numNodes = nodes;
        nc.baseLatency = 4;
        nc.jitter = 0;
        net = std::make_unique<IdealNetwork>("net", &eq, &stats,
                                             nc);
        for (int i = 0; i < nodes; ++i) {
            cores.push_back(std::make_unique<FakeCore>());
            l1s.push_back(std::make_unique<L1Controller>(
                "l1." + std::to_string(i), &eq, &stats, i, cfg,
                net.get(), nodes));
            llcs.push_back(std::make_unique<LLCBank>(
                "llc." + std::to_string(i), &eq, &stats, i, cfg,
                net.get(), &memory));
            l1s.back()->setCore(cores.back().get());
        }
        for (int i = 0; i < nodes; ++i) {
            L1Controller *l1 = l1s[std::size_t(i)].get();
            LLCBank *llc = llcs[std::size_t(i)].get();
            net->registerNode(i, [l1, llc](MsgPtr msg) {
                auto *cm = static_cast<CohMsg *>(msg.get());
                if (cohToDirectory(cm->type))
                    llc->handleMessage(std::move(msg));
                else
                    l1->handleMessage(std::move(msg));
            });
        }
    }

    /** Advance @p n cycles. */
    void
    run(Tick n = 600)
    {
        for (Tick i = 0; i < n; ++i) {
            ++cycle;
            net->deliverTick(cycle, eq);
            eq.runUntil(cycle);
            for (auto &l1 : l1s)
                l1->tick();
            for (auto &llc : llcs)
                llc->tick();
        }
    }

    FakeCore &core(int i) { return *cores[std::size_t(i)]; }
    L1Controller &l1(int i) { return *l1s[std::size_t(i)]; }
    LLCBank &llc(int i) { return *llcs[std::size_t(i)]; }

    EventQueue eq;
    StatRegistry stats;
    MainMemory memory;
    std::unique_ptr<IdealNetwork> net;
    std::vector<std::unique_ptr<FakeCore>> cores;
    std::vector<std::unique_ptr<L1Controller>> l1s;
    std::vector<std::unique_ptr<LLCBank>> llcs;
    Tick cycle = 0;
};

} // namespace wb

#endif // WB_TESTS_PROTOCOL_RIG_HH
