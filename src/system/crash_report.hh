/**
 * @file
 * Structured crash reports and run classification.
 *
 * When a run ends abnormally — a hang detector fires, the TSO
 * checker records a violation, or a panic() surfaces a protocol
 * invariant break — the state that matters for triage is scattered
 * across cores, MSHRs, directory entries, and the network ledger.
 * writeCrashReport() serialises one deterministic JSON snapshot of
 * all of it; runClassified() wraps System::run() to map every
 * outcome (including thrown panics) onto a small exit-code taxonomy
 * so scripted campaigns can sort results without parsing logs:
 *
 *   0  run completed, TSO-clean, no leaks
 *   2  TSO violation detected by the checker
 *   3  deadlock / hang / message leak / cycle cap
 *   4  internal panic (simulator invariant broke)
 */

#ifndef WB_SYSTEM_CRASH_REPORT_HH
#define WB_SYSTEM_CRASH_REPORT_HH

#include <functional>
#include <ostream>
#include <string>

#include "system/system.hh"

namespace wb
{

/** Exit-code taxonomy for classified runs. */
enum class RunOutcome : int
{
    Ok = 0,
    TsoViolation = 2,
    Deadlock = 3,
    Panic = 4,
};

/** Everything runClassified() learned about one run. */
struct ClassifiedRun
{
    RunOutcome outcome = RunOutcome::Ok;
    /** Short machine-readable tag: "ok", "tso-violation",
     *  "deadlock", "cycle-cap", "panic". */
    std::string verdict = "ok";
    /** Human-readable specifics (deadlock reason, panic text). */
    std::string detail;
    /** Results snapshot; valid even when the run ended early. */
    SimResults results;
    /** True iff a crash dump was requested and successfully opened. */
    bool crashDumpWritten = false;

    int exitCode() const { return static_cast<int>(outcome); }
};

/**
 * Serialise a crash snapshot of @p sys as one JSON object:
 * cycle, verdict/detail, fault campaign spec + injector counters,
 * per-core pipeline state (ROB/LQ/SQ heads, lockdown + LDT sizes),
 * every live L1 MSHR with its age, every transient directory entry,
 * and every undelivered (incl. dropped) network message. Output is
 * byte-deterministic for a given seed + fault spec.
 */
void writeCrashReport(std::ostream &os, System &sys,
                      const std::string &verdict,
                      const std::string &detail);

/**
 * Minimal classified report for failures that happen *before* a
 * System exists — a snapshot or trace file that fails validation on
 * load. Emits the same "wbsim-crash-1" schema (verdict + detail)
 * with no machine state, so triage scripts parse both shapes alike.
 * Used by wbsim for the `snapshot-corrupt` / `trace-corrupt` /
 * `trace-mismatch` verdicts, and by the wbcampaign supervisor for
 * the verdicts it synthesizes on behalf of a job whose worker
 * process died (`worker-crash`, `job-timeout`, `job-oom`): there is
 * no System left to dump, but the classified record still lands in
 * the run's job records and the crash-report sidecar.
 */
void writeLoadFailureReport(std::ostream &os,
                            const std::string &verdict,
                            const std::string &detail);

/**
 * Run @p sys to completion, classify the outcome, and — for any
 * outcome other than Ok — write a crash report to
 * @p crash_dump_path (skipped when empty). panic()/fatal() throws
 * are caught and classified as Panic; the crash report is still
 * written from whatever state the system wedged in.
 */
ClassifiedRun runClassified(System &sys,
                            const std::string &crash_dump_path = "");

/**
 * As above, but @p run_fn drives the simulation instead of a plain
 * sys.run() — checkpoint/restore wraps the replay + verify + resume
 * sequence in it so snapshot divergences are classified (and crash-
 * dumped) exactly like any other panic. @p run_fn must return the
 * final SimResults; throws are classified as Panic.
 */
ClassifiedRun runClassified(System &sys,
                            const std::function<SimResults()> &run_fn,
                            const std::string &crash_dump_path);

} // namespace wb

#endif // WB_SYSTEM_CRASH_REPORT_HH
