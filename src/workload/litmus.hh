/**
 * @file
 * Litmus-test workloads for the paper's running examples.
 *
 * Each litmus runs many iterations over fresh cache lines so the
 * racing window is exercised repeatedly; per-iteration results are
 * stored to a private result array and classified from final memory
 * by countOutcomes().
 *
 *  - Table 1 (mp-style): writer st x,1; st y,1 — reader ld y; ld x.
 *    Outcome {y=new, x=old} is illegal in TSO.
 *  - Table 3: three cores; the happens-before between st x and st y
 *    is transitive through core 2's spin on x.
 *  - SB (store buffering): st x; ld y || st y; ld x. Outcome {0,0}
 *    is LEGAL in TSO (store->load relaxation) and should occur.
 *  - CoRR: same-address load pairs must never read new-then-old.
 */

#ifndef WB_WORKLOAD_LITMUS_HH
#define WB_WORKLOAD_LITMUS_HH

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "isa/program.hh"

namespace wb
{

/** Which litmus shape to build. */
enum class LitmusKind
{
    Table1,  //!< 2-core mp: illegal = {new, old}
    Table3,  //!< 3-core transitive hb: illegal = {new, old}
    StoreBuffer, //!< 2-core SB: {old, old} legal & expected
    CoRR,    //!< same-address pair: illegal = {new, old}
    LoadBuffer,  //!< ld x; st y || ld y; st x — {new,new} illegal
                 //!< (TSO never relaxes load->store)
    StoreBufferFenced, //!< SB with an mfence between the store and
                       //!< the load: {old,old} becomes ILLEGAL
    Iriw,    //!< 4-core IRIW: readers must agree on the order of
             //!< independent writes (multi-copy atomicity; also
             //!< forbidden in TSO). Encoded outcomes: each reader
             //!< records first*2+second; illegal = {2, 2}.
};

const char *litmusName(LitmusKind k);

/** A litmus test under the name the CLI tools accept. */
struct LitmusEntry
{
    const char *cliName; //!< wbsim/wbtrace --workload value
    LitmusKind kind;
    const char *note;    //!< one-line description for --list
};

/** Every litmus test, in `wbsim --list` order. */
const std::vector<LitmusEntry> &litmusCatalog();

/** Look up a CLI litmus name. @return false if @p s names none. */
bool parseLitmusKind(const std::string &s, LitmusKind &out);

/** Build a litmus workload with @p iterations racing iterations. */
Workload makeLitmus(LitmusKind kind, int iterations);

/** Outcome counts keyed by {first value, second value}. */
using OutcomeCounts =
    std::map<std::pair<std::uint64_t, std::uint64_t>, int>;

/** Functional word reader (use System::peekCoherent: the result
 *  arrays are usually still dirty in the reader's cache). */
using PeekFn = std::function<std::uint64_t(Addr)>;

/**
 * Classify per-iteration results.
 * For Table1/Table3/CoRR the pair is {ra, rb} of the reader; the
 * illegal TSO outcome is {1, 0}.
 */
OutcomeCounts countOutcomes(const PeekFn &peek, int iterations);

/** @return the number of illegal {1,0} outcomes (mp-style). */
int illegalOutcomes(const OutcomeCounts &oc);

/** @return the number of TSO-illegal outcomes for @p kind. */
int illegalOutcomes(LitmusKind kind, const OutcomeCounts &oc);

} // namespace wb

#endif // WB_WORKLOAD_LITMUS_HH
