#include "workload/litmus.hh"

#include "workload/common.hh"

namespace wb
{

namespace
{

// Register conventions (r0 is never written and reads as 0).
constexpr Reg rI = 1;     // iteration counter
constexpr Reg rLim = 2;   // iteration limit
constexpr Reg rX = 3;     // &x[i]
constexpr Reg rY = 4;     // &y[i]
constexpr Reg rResA = 5;  // &resA[i]
constexpr Reg rResB = 6;  // &resB[i]
constexpr Reg rA = 7;     // ra
constexpr Reg rB = 8;     // rb
constexpr Reg rC = 9;     // rc / scratch
constexpr Reg rOne = 10;
constexpr Reg rBar = 11;  // &barrier
constexpr Reg rN = 12;    // thread count (power of two)
constexpr Reg rT1 = 13;
constexpr Reg rT2 = 14;
constexpr Reg rT3 = 15;

constexpr Addr xBase = layout::litmusBase;
constexpr Addr yBase = layout::litmusBase + 0x10'0000;
constexpr Addr resABase = layout::resultBase;
constexpr Addr resBBase = layout::resultBase + 0x10'0000;
constexpr int barrierEvery = 64;
constexpr int warmAhead = 4; // prefetch distance for old copies

/**
 * Emit a data-dependent delay of 0..31 iterations so the two racing
 * threads interleave differently across iterations (otherwise one
 * side wins the race every time and only one outcome is observed).
 */
void
emitJitterDelay(ProgramBuilder &b, int salt)
{
    b.addi(rT1, rI, salt);
    b.li(rT3, 2654435761);
    b.mul(rT1, rT1, rT3);
    b.andi(rT1, rT1, 127);
    auto spin = b.newLabel();
    auto done = b.newLabel();
    b.bind(spin);
    b.beq(rT1, 0, done);
    // Serialised 3-cycle step so the skew spans several cache-miss
    // latencies across iterations.
    b.mul(rT2, rT2, rT3);
    b.addi(rT1, rT1, -1);
    b.jmp(spin);
    b.bind(done);
}

void
emitPreamble(ProgramBuilder &b, int iterations, int num_threads)
{
    b.li(rI, 0);
    b.li(rLim, iterations);
    b.li(rX, std::int64_t(xBase));
    b.li(rY, std::int64_t(yBase));
    b.li(rResA, std::int64_t(resABase));
    b.li(rResB, std::int64_t(resBBase));
    b.li(rOne, 1);
    b.li(rBar, std::int64_t(layout::barrierBase));
    b.li(rN, num_threads);
}

/** Advance per-iteration pointers and loop (with periodic barrier
 *  when @p with_barrier). */
void
emitLoopTail(ProgramBuilder &b, ProgramBuilder::Label loop,
             bool with_barrier)
{
    b.addi(rX, rX, lineBytes);
    b.addi(rY, rY, lineBytes);
    b.addi(rResA, rResA, wordBytes);
    b.addi(rResB, rResB, wordBytes);
    b.addi(rI, rI, 1);
    if (with_barrier) {
        auto skip = b.newLabel();
        b.andi(rT1, rI, barrierEvery - 1);
        b.bne(rT1, 0, skip);
        emitBarrier(b, rBar, rOne, rN, rT1, rT2, rT3);
        b.bind(skip);
    }
    b.blt(rI, rLim, loop);
    b.halt();
}

Program
mpReader(int iterations, int num_threads, bool with_barrier)
{
    ProgramBuilder b;
    emitPreamble(b, iterations, num_threads);
    auto loop = b.newLabel();
    b.bind(loop);
    emitJitterDelay(b, 17);
    b.ld(rA, rY);                        // ld ra, y[i]  (older)
    b.ld(rB, rX);                        // ld rb, x[i]  (younger)
    b.st(rResA, rA);
    b.st(rResB, rB);
    b.ld(rC, rX, warmAhead *lineBytes); // warm x[i+4] (old copy)
    emitLoopTail(b, loop, with_barrier);
    return b.take();
}

Program
mpWriter(int iterations, int num_threads, bool with_barrier)
{
    ProgramBuilder b;
    emitPreamble(b, iterations, num_threads);
    auto loop = b.newLabel();
    b.bind(loop);
    emitJitterDelay(b, 5);
    b.st(rX, rOne); // st x[i], 1
    b.st(rY, rOne); // st y[i], 1
    emitLoopTail(b, loop, with_barrier);
    return b.take();
}

Program
xOnlyWriter(int iterations, int num_threads, bool with_barrier)
{
    ProgramBuilder b;
    emitPreamble(b, iterations, num_threads);
    auto loop = b.newLabel();
    b.bind(loop);
    b.st(rX, rOne);
    emitLoopTail(b, loop, with_barrier);
    return b.take();
}

Program
spinThenWriteY(int iterations)
{
    ProgramBuilder b;
    emitPreamble(b, iterations, 1);
    auto loop = b.newLabel();
    b.bind(loop);
    auto spin = b.newLabel();
    b.bind(spin);
    b.ld(rC, rX);       // while (rc == 0) ld rc, x[i]
    b.beq(rC, 0, spin);
    b.st(rY, rOne);     // st y[i], 1
    emitLoopTail(b, loop, false);
    return b.take();
}

Program
sbThread(int iterations, bool first, bool fenced)
{
    // first:  st x[i],1 ; ld ra, y[i] ; resA[i] = ra
    // second: st y[i],1 ; ld rb, x[i] ; resB[i] = rb
    ProgramBuilder b;
    emitPreamble(b, iterations, 2);
    auto loop = b.newLabel();
    b.bind(loop);
    if (first) {
        b.st(rX, rOne);
        if (fenced)
            b.fence();
        b.ld(rA, rY);
        b.st(rResA, rA);
    } else {
        b.st(rY, rOne);
        if (fenced)
            b.fence();
        b.ld(rB, rX);
        b.st(rResB, rB);
    }
    emitLoopTail(b, loop, true);
    return b.take();
}

/**
 * Load buffering: ld ra,x[i]; st y[i],1 (thread 0) vs
 * ld rb,y[i]; st x[i],1 (thread 1). TSO keeps load->store order, so
 * {1,1} (both loads observing the other thread's later store) is
 * illegal.
 */
Program
lbThread(int iterations, bool first)
{
    ProgramBuilder b;
    emitPreamble(b, iterations, 2);
    auto loop = b.newLabel();
    b.bind(loop);
    emitJitterDelay(b, first ? 3 : 11);
    if (first) {
        b.ld(rA, rX);
        b.st(rY, rOne);
        b.st(rResA, rA);
    } else {
        b.ld(rB, rY);
        b.st(rX, rOne);
        b.st(rResB, rB);
    }
    emitLoopTail(b, loop, true);
    return b.take();
}

/**
 * IRIW writer (thread writes one variable) and reader (records
 * first*2+second). Readers disagreeing on the writes' order —
 * reader A sees {x=1,y=0} while reader B sees {y=1,x=0} — is
 * forbidden (encoded outcome {2,2}).
 */
Program
iriwWriter(int iterations, bool writes_x)
{
    ProgramBuilder b;
    emitPreamble(b, iterations, 4);
    auto loop = b.newLabel();
    b.bind(loop);
    emitJitterDelay(b, writes_x ? 7 : 23);
    b.st(writes_x ? rX : rY, rOne);
    emitLoopTail(b, loop, true);
    return b.take();
}

Program
iriwReader(int iterations, bool x_first)
{
    ProgramBuilder b;
    emitPreamble(b, iterations, 4);
    auto loop = b.newLabel();
    b.bind(loop);
    emitJitterDelay(b, x_first ? 13 : 29);
    if (x_first) {
        b.ld(rA, rX);
        b.ld(rB, rY);
    } else {
        b.ld(rA, rY);
        b.ld(rB, rX);
    }
    // encode first*2 + second
    b.add(rC, rA, rA);
    b.add(rC, rC, rB);
    b.st(x_first ? rResA : rResB, rC);
    emitLoopTail(b, loop, true);
    return b.take();
}

Program
corrReader(int iterations)
{
    ProgramBuilder b;
    emitPreamble(b, iterations, 2);
    auto loop = b.newLabel();
    b.bind(loop);
    b.ld(rA, rX); // older read of x[i]
    b.ld(rB, rX); // younger read of x[i]: must not be older value
    b.st(rResA, rA);
    b.st(rResB, rB);
    b.ld(rC, rX, warmAhead *lineBytes);
    emitLoopTail(b, loop, true);
    return b.take();
}

} // namespace

const char *
litmusName(LitmusKind k)
{
    switch (k) {
      case LitmusKind::Table1: return "table1-mp";
      case LitmusKind::Table3: return "table3-transitive";
      case LitmusKind::StoreBuffer: return "store-buffer";
      case LitmusKind::StoreBufferFenced:
        return "store-buffer-fenced";
      case LitmusKind::CoRR: return "corr";
      case LitmusKind::LoadBuffer: return "load-buffer";
      case LitmusKind::Iriw: return "iriw";
    }
    return "?";
}

const std::vector<LitmusEntry> &
litmusCatalog()
{
    static const std::vector<LitmusEntry> catalog{
        {"table1", LitmusKind::Table1,
         "paper Table 1: ld-ld reordering witness"},
        {"table3", LitmusKind::Table3,
         "paper Table 3: fine-grain sharing"},
        {"sb", LitmusKind::StoreBuffer, "store buffering (Dekker)"},
        {"sb-fence", LitmusKind::StoreBufferFenced,
         "store buffering with fences"},
        {"lb", LitmusKind::LoadBuffer, "load buffering"},
        {"corr", LitmusKind::CoRR, "coherent read-read"},
        {"iriw", LitmusKind::Iriw,
         "independent reads, independent writes"},
    };
    return catalog;
}

bool
parseLitmusKind(const std::string &s, LitmusKind &out)
{
    for (const LitmusEntry &e : litmusCatalog())
        if (s == e.cliName) {
            out = e.kind;
            return true;
        }
    return false;
}

Workload
makeLitmus(LitmusKind kind, int iterations)
{
    Workload wl;
    wl.name = litmusName(kind);
    switch (kind) {
      case LitmusKind::Table1:
        wl.threads.push_back(mpReader(iterations, 2, true));
        wl.threads.push_back(mpWriter(iterations, 2, true));
        break;
      case LitmusKind::Table3:
        wl.threads.push_back(mpReader(iterations, 1, false));
        wl.threads.push_back(xOnlyWriter(iterations, 1, false));
        wl.threads.push_back(spinThenWriteY(iterations));
        break;
      case LitmusKind::StoreBuffer:
        wl.threads.push_back(sbThread(iterations, true, false));
        wl.threads.push_back(sbThread(iterations, false, false));
        break;
      case LitmusKind::StoreBufferFenced:
        wl.threads.push_back(sbThread(iterations, true, true));
        wl.threads.push_back(sbThread(iterations, false, true));
        break;
      case LitmusKind::CoRR:
        wl.threads.push_back(corrReader(iterations));
        wl.threads.push_back(xOnlyWriter(iterations, 2, true));
        break;
      case LitmusKind::LoadBuffer:
        wl.threads.push_back(lbThread(iterations, true));
        wl.threads.push_back(lbThread(iterations, false));
        break;
      case LitmusKind::Iriw:
        wl.threads.push_back(iriwReader(iterations, true));
        wl.threads.push_back(iriwReader(iterations, false));
        wl.threads.push_back(iriwWriter(iterations, true));
        wl.threads.push_back(iriwWriter(iterations, false));
        break;
    }
    return wl;
}

OutcomeCounts
countOutcomes(const PeekFn &peek, int iterations)
{
    OutcomeCounts oc;
    for (int i = 0; i < iterations; ++i) {
        const std::uint64_t a = peek(resABase + Addr(i) * wordBytes);
        const std::uint64_t b = peek(resBBase + Addr(i) * wordBytes);
        ++oc[{a, b}];
    }
    return oc;
}

int
illegalOutcomes(const OutcomeCounts &oc)
{
    auto it = oc.find({1, 0});
    return it == oc.end() ? 0 : it->second;
}

int
illegalOutcomes(LitmusKind kind, const OutcomeCounts &oc)
{
    auto count = [&oc](std::uint64_t a, std::uint64_t b) {
        auto it = oc.find({a, b});
        return it == oc.end() ? 0 : it->second;
    };
    switch (kind) {
      case LitmusKind::Table1:
      case LitmusKind::Table3:
      case LitmusKind::CoRR:
        return count(1, 0);
      case LitmusKind::LoadBuffer:
        // Both loads observing the other thread's program-later
        // store requires load->store reordering on both sides.
        return count(1, 1);
      case LitmusKind::Iriw:
        // Readers observed the two independent writes in opposite
        // orders: {x=1,y=0} on one, {y=1,x=0} on the other.
        return count(2, 2);
      case LitmusKind::StoreBuffer:
        return 0; // every outcome is legal in TSO
      case LitmusKind::StoreBufferFenced:
        // The fences forbid both loads bypassing both stores.
        return count(0, 0);
    }
    return 0;
}

} // namespace wb
