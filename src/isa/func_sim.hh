/**
 * @file
 * Functional reference simulator: executes a Workload under
 * sequential consistency with a deterministic (seeded) thread
 * interleaving. Used to validate workload programs and, for
 * data-race-free programs, to compute expected final memory.
 */

#ifndef WB_ISA_FUNC_SIM_HH
#define WB_ISA_FUNC_SIM_HH

#include <array>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "isa/program.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace wb
{

/** Sequentially-consistent reference interpreter. */
class FuncSim
{
  public:
    explicit FuncSim(const Workload &wl, std::uint64_t seed = 1);

    /**
     * Run until every thread halts or @p max_steps instructions
     * retire in total. @return true if all threads halted.
     */
    bool run(std::uint64_t max_steps = 100'000'000);

    /** Execute one instruction of one (randomly chosen) live
     *  thread. @return false if all threads have halted. */
    bool step();

    std::uint64_t readMem(Addr addr) const;
    std::uint64_t readReg(int thread, Reg r) const;
    bool halted(int thread) const;

    /**
     * Observer of every retired instruction, in per-thread program
     * order: (thread, pc, instruction, effective address). @p ea is
     * invalidAddr for non-memory instructions. The trace recorder's
     * functional path hooks here (src/trace/trace_recorder.hh).
     */
    using RetireHook = std::function<void(int thread, int pc,
                                          const Instr &in, Addr ea)>;
    void setRetireHook(RetireHook hook) { _retireHook = std::move(hook); }

  private:
    struct ThreadState
    {
        const Program *prog;
        std::array<std::uint64_t, numRegs> regs{};
        int pc = 0;
        bool halted = false;
    };

    void execOne(int thread, ThreadState &t);

    std::vector<ThreadState> _threads;
    std::unordered_map<Addr, std::uint64_t> _mem;
    Rng _rng;
    RetireHook _retireHook;
};

} // namespace wb

#endif // WB_ISA_FUNC_SIM_HH
