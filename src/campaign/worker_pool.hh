/**
 * @file
 * Process-isolated campaign execution: supervisor + worker pool.
 *
 * The thread backend (campaign_runner.cc) gives per-job *crash
 * classification*, but a real segfault, OOM kill, or runaway loop in
 * any worker still takes the whole campaign with it — only the run
 * directory's job records save the finished work. This backend moves
 * job execution into separate processes so the campaign survives
 * anything a job can do:
 *
 *   - The supervisor fork/execs N workers (`wbcampaign --worker`,
 *     command pipe on fd 3, result pipe on fd 4) and drives them
 *     from a single poll() loop. Jobs and JobResults travel as
 *     checksummed frames over the pipes (job_codec.hh) using the
 *     same bit-exact codec as the result cache and the run records.
 *   - A worker that dies is reaped and classified from its wait
 *     status: killed by the per-job deadline or heartbeat loss ->
 *     "job-timeout" (exit taxonomy 3, like a deadlock); killed by a
 *     signal or a dirty exit -> "worker-crash" (taxonomy 4, like a
 *     panic). An allocation refused by RLIMIT_AS surfaces as
 *     bad_alloc inside the worker and is recorded gracefully as
 *     "job-oom" (taxonomy 4) without killing anything.
 *   - The in-flight job of a dead worker is retried on another
 *     worker. A job that kills poisonThreshold consecutive workers
 *     is quarantined: recorded as a classified failure with a
 *     synthesized crash report, never retried (not even by
 *     --resume: the quarantine is recorded in the run directory
 *     like any other result).
 *   - Dead workers are respawned with exponential backoff, bounded
 *     per slot and per campaign. When the budget runs out the pool
 *     degrades instead of failing: remaining jobs drain on the
 *     surviving workers, or — with no workers left — in-process as
 *     a last resort. Degradations are counted, not fatal.
 *
 * Record and cache lookups/stores and aggregation all stay on the
 * supervisor side, so resume semantics and the byte-identical
 * aggregate guarantee carry over from the thread backend unchanged.
 */

#ifndef WB_CAMPAIGN_WORKER_POOL_HH
#define WB_CAMPAIGN_WORKER_POOL_HH

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "campaign/campaign_runner.hh"

namespace wb
{

/** What supervision did during one campaign (sidecar-only;
 *  mirrored into CampaignResult by the runner). */
struct WorkerPoolStats
{
    std::size_t workerRestarts = 0;
    std::size_t workerCrashes = 0;
    std::size_t jobTimeouts = 0;
    std::size_t jobOoms = 0;
    std::size_t quarantined = 0;
    std::size_t degradedTransitions = 0;
    std::size_t inProcessJobs = 0;
};

/** Rebuild a campaign spec from its descriptor ("builtin" name or
 *  embedded manifest text, plus the CLI overrides). Shared by
 *  wbcampaign (fresh and --resume) and the worker processes so all
 *  reconstruct exactly the supervisor's job list.
 *  @return false with @p err set on an unknown builtin or a
 *  manifest parse/validation error. */
bool buildCampaignSpec(const SpecDescriptor &desc, CampaignSpec &out,
                       std::string &err);

/** Validate/parse a --chaos-worker spec: "[once:]MODE@JOBINDEX",
 *  MODE in segv|abort|exit|hang|mute|oom. The hook fires only
 *  inside --worker processes (ProcessPoolOptions::chaos or the
 *  WB_CHAOS_WORKER environment variable). */
bool parseChaosSpec(const std::string &spec, std::string &mode,
                    std::size_t &index, bool &once);

/** Callbacks the runner lends the pool. reuse is asked first for
 *  every job: it commits a run record or cache hit itself and
 *  returns true, or returns false and the job is executed. commit
 *  takes ownership of an executed (or quarantined) result: record
 *  and cache stores, aggregate. Both are called only from the
 *  supervisor thread. */
using PoolReuseFn = std::function<bool(std::size_t)>;
using PoolCommitFn = std::function<void(std::size_t, JobResult &&)>;

/** Execute every job on a supervised pool of worker processes.
 *  Blocks until all jobs are committed or the stop flag drained the
 *  pool.
 *
 *  With @p telemetry enabled, workers stream Telemetry frames
 *  (job_codec.hh) that the supervisor routes into the hooks' emit —
 *  the same sink the thread backend uses, so per-job sidecars stay
 *  byte-identical across backends. The frames also sharpen hang
 *  detection: a busy worker whose simulation stops producing
 *  snapshots for heartbeatGraceSeconds is killed and its job
 *  recorded as "job-timeout", even while the wall-clock heartbeat
 *  thread still beats. */
WorkerPoolStats runWorkerPool(const CampaignSpec &spec,
                              const std::vector<JobSpec> &jobs,
                              const CampaignRunner::Options &opts,
                              int nworkers, std::atomic<int> &busy,
                              const PoolReuseFn &reuse,
                              const PoolCommitFn &commit,
                              const TelemetryHooks *telemetry =
                                  nullptr);

/** Worker-process entry point (`wbcampaign --worker`): speak the
 *  frame protocol on fds 3/4 until EOF/Shutdown. Returns the
 *  process exit code (0 done, 5 cooperative drain, 3 protocol or
 *  spec-rebuild failure). */
int campaignWorkerMain();

} // namespace wb

#endif // WB_CAMPAIGN_WORKER_POOL_HH
