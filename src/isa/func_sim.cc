#include "isa/func_sim.hh"

#include <cassert>

#include "mem/addr.hh"
#include "sim/log.hh"

namespace wb
{

FuncSim::FuncSim(const Workload &wl, std::uint64_t seed)
    : _rng(seed)
{
    for (const auto &p : wl.threads)
        _threads.push_back(ThreadState{&p, {}, 0, p.empty()});
    for (const auto &[addr, value] : wl.initMem)
        _mem[wordOf(addr)] = value;
}

bool
FuncSim::halted(int thread) const
{
    return _threads[std::size_t(thread)].halted;
}

std::uint64_t
FuncSim::readMem(Addr addr) const
{
    auto it = _mem.find(wordOf(addr));
    return it == _mem.end() ? 0 : it->second;
}

std::uint64_t
FuncSim::readReg(int thread, Reg r) const
{
    return _threads[std::size_t(thread)].regs[r];
}

bool
FuncSim::step()
{
    // Pick a random live thread, deterministic under the seed.
    std::vector<int> live;
    for (std::size_t i = 0; i < _threads.size(); ++i)
        if (!_threads[i].halted)
            live.push_back(int(i));
    if (live.empty())
        return false;
    int t = live[_rng.below(live.size())];
    execOne(t, _threads[std::size_t(t)]);
    return true;
}

bool
FuncSim::run(std::uint64_t max_steps)
{
    for (std::uint64_t i = 0; i < max_steps; ++i) {
        if (!step())
            return true;
    }
    // Check if we happened to finish exactly at the limit.
    for (const auto &t : _threads)
        if (!t.halted)
            return false;
    return true;
}

void
FuncSim::execOne(int thread, ThreadState &t)
{
    assert(!t.halted);
    if (t.pc < 0 || std::size_t(t.pc) >= t.prog->size()) {
        t.halted = true;
        return;
    }
    const Instr &in = (*t.prog)[std::size_t(t.pc)];
    const std::uint64_t a = t.regs[in.src1];
    const std::uint64_t b = t.regs[in.src2];
    const int pc = t.pc;
    Addr ea = invalidAddr;
    int next_pc = t.pc + 1;

    switch (in.op) {
      case Opcode::Nop:
      case Opcode::Fence: // no-op under sequential consistency
        break;
      case Opcode::Halt:
        t.halted = true;
        if (_retireHook)
            _retireHook(thread, pc, in, invalidAddr);
        return;
      case Opcode::Ld:
        ea = wordOf(a + std::uint64_t(in.imm));
        t.regs[in.dst] = readMem(ea);
        break;
      case Opcode::St:
        ea = wordOf(a + std::uint64_t(in.imm));
        _mem[ea] = b;
        break;
      case Opcode::AmoSwap:
      case Opcode::AmoAdd: {
        ea = wordOf(a + std::uint64_t(in.imm));
        const std::uint64_t old = readMem(ea);
        _mem[ea] = amoResult(in.op, old, b);
        t.regs[in.dst] = old;
        break;
      }
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Bge:
      case Opcode::Jmp:
        if (branchTaken(in, a, b))
            next_pc = in.target;
        break;
      default:
        t.regs[in.dst] = aluResult(in, a, b);
        break;
    }
    t.pc = next_pc;
    if (_retireHook)
        _retireHook(thread, pc, in, ea);
}

} // namespace wb
