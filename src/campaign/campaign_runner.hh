/**
 * @file
 * Multi-threaded campaign execution with per-job crash isolation.
 *
 * CampaignRunner expands a CampaignSpec into its deterministic job
 * list and executes the jobs on a pool of worker threads (one per
 * hardware thread by default, Options::jobs to override). Each job
 * builds a self-contained wb::System — the simulator holds no
 * mutable global state (see sim/log.hh for the contract) — so jobs
 * are data-race free and results are bit-identical for any worker
 * count or completion order.
 *
 * Crash isolation reuses the PR-1 exit taxonomy: a job ending in a
 * TSO violation, deadlock, or panic is *recorded* (with a captured
 * crash report, and a crash-report file when an output directory is
 * configured) and the campaign keeps going. Only failures of the
 * runner's own infrastructure — exceptions thrown outside the
 * classified System::run(), e.g. while building the workload —
 * are retried, up to CampaignSpec::maxRetries times, then recorded
 * as "infra-failure".
 */

#ifndef WB_CAMPAIGN_CAMPAIGN_RUNNER_HH
#define WB_CAMPAIGN_CAMPAIGN_RUNNER_HH

#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "campaign/campaign_spec.hh"
#include "obs/metrics.hh"
#include "system/crash_report.hh"

namespace wb
{

/**
 * Live-telemetry plumbing handed to job executors (thread backend
 * and worker processes). When present and period != 0, each
 * job's System gets a metrics snapshot stream whose lines are
 * delivered through @c emit — tagged with the job index so per-job
 * NDJSON sidecars are deterministic for any worker count. Telemetry never touches the aggregate JSON/CSV: it lives
 * beside them, like the durability counters (docs/CAMPAIGN.md).
 */
struct TelemetryHooks
{
    /** Snapshot period in cycles; 0 disables telemetry. */
    Tick period = 0;
    /** Directory for end-of-job exposition sidecars
     *  (metrics-job<N>.prom); "" = none. */
    std::string dir;
    /** Per-line sink. Called from whichever thread runs the job
     *  (or, process backend, from the supervisor's frame loop);
     *  implementations synchronise internally. */
    std::function<void(std::size_t job, const MetricsSummary &sum,
                       const std::string &line)>
        emit;

    bool enabled() const { return period != 0; }
};

/** Everything one finished job left behind. */
struct JobResult
{
    JobSpec spec;
    RunOutcome outcome = RunOutcome::Ok;
    /** "ok" | "tso-violation" | "deadlock" | "cycle-cap" | "panic"
     *  | "infra-failure", plus the process-backend supervision
     *  verdicts "worker-crash" | "job-timeout" | "job-oom"
     *  (worker_pool.hh; same exit taxonomy). */
    std::string verdict = "ok";
    std::string detail;
    SimResults results;
    int attempts = 1;          //!< 1 + infrastructure retries
    bool infraFailure = false; //!< retries exhausted
    /** Captured crash-report JSON (abnormal outcomes only). */
    std::string crashJson;
    /** Where the crash report was written ("" if not). */
    std::string crashReportPath;

    /** End-state equivalence against the fault-free twin of the
     *  same (workload, seed). Checked only in verify-equivalence
     *  mode, for faulty jobs that completed cleanly. */
    bool equivalenceChecked = false;
    bool equivalenceMatch = false;
    std::string equivalenceDetail; //!< first divergence ("" = match)
};

/** Everything needed to rebuild a campaign spec from text: what a
 *  process-backend worker receives in its Init frame, and what
 *  `wbcampaign --out DIR` writes to DIR/campaign.wbc so that
 *  `--resume DIR` needs nothing but the directory (job_codec.hh). */
struct SpecDescriptor
{
    /** "manifest" (specText = manifest contents) or "builtin"
     *  (specText = builtin name). */
    std::string specKind;
    std::string specText;

    // CLI overrides that shape the job list / results.
    std::int64_t seedsOverride = 0;
    bool recovery = false;
    bool verifyEquivalence = false;
    bool checkFaults = false;
    bool strict = false;
};

/** Order-independent campaign tallies (live and final). */
struct CampaignSummary
{
    std::size_t total = 0;
    std::size_t done = 0;
    std::size_t ok = 0;
    std::size_t tsoViolations = 0;
    std::size_t deadlocks = 0; //!< includes cycle-cap verdicts
    std::size_t panics = 0;
    std::size_t infraFailures = 0;
    std::size_t incomplete = 0; //!< jobs with !results.completed
    std::size_t retried = 0;    //!< jobs that needed >1 attempt
    std::size_t equivalenceChecked = 0;
    std::size_t equivalenceMismatches = 0;

    /** Abnormal outcomes a campaign should alarm on by default. */
    std::size_t
    hardFailures() const
    {
        return tsoViolations + panics + infraFailures +
               equivalenceMismatches;
    }
};

/** What process-backend supervision did during one campaign.
 *  Sidecar-only, like the cache counters: it describes the host
 *  run, not the experiment. */
struct WorkerPoolStats
{
    std::size_t workerRestarts = 0; //!< respawns, one per charged death
    std::size_t workerCrashes = 0;  //!< abnormal worker deaths
    std::size_t jobTimeouts = 0;    //!< deadline/stall kills
    std::size_t jobOoms = 0;        //!< jobs ending "job-oom"
    std::size_t quarantined = 0;    //!< poison jobs recorded
    /** Why every worker slot retired with jobs left unrun ("" = the
     *  pool did not stop early). The campaign then ends
     *  interrupted and resumable. */
    std::string abandoned;
};

/** The whole campaign's outcome, ordered by job index. */
struct CampaignResult
{
    std::vector<JobResult> jobs;
    CampaignSummary summary;
    double wallSeconds = 0; //!< never serialised (non-deterministic)

    // Durability bookkeeping. None of these enter the aggregate
    // JSON/CSV — a resumed or cache-assisted campaign must stay
    // byte-identical to an uninterrupted cold one — they go to the
    // durability.json sidecar and stderr instead.
    bool interrupted = false; //!< stop flag fired or the pool was
                              //!< abandoned; job list is partial
                              //!< (jobs[] has empty slots)
    std::size_t replayed = 0; //!< jobs taken from OUT/jobs records
    std::size_t cacheHits = 0;
    std::size_t cacheMisses = 0;

    WorkerPoolStats pool; //!< all zero under the thread backend

    /** Linear lookup by axis values; nullptr when absent. */
    const JobResult *find(const std::string &workload,
                          CommitMode mode, CoreClass cls,
                          const std::string &variant = "",
                          const std::string &mix = "clean",
                          int seed_index = 0) const;
};

/** Supervision policy for the process-isolated backend
 *  (worker_pool.hh); the wbcampaign flags --job-timeout/
 *  --job-mem-limit/--poison-threshold/--heartbeat-grace map onto
 *  the matching fields. */
struct ProcessPoolOptions
{
    /** Run jobs in forked worker processes instead of threads. The
     *  workers re-exec the running binary (/proc/self/exe) as
     *  `EXE --worker`, command pipe on fd 3, result pipe on fd 4. */
    bool enabled = false;
    /** Per-job wall-clock deadline; the supervisor SIGKILLs a
     *  worker past it. 0 = no deadline. */
    double jobTimeoutSeconds = 0;
    /** Per-worker RLIMIT_AS in MiB; an allocation beyond it fails
     *  with bad_alloc and the job is recorded as "job-oom".
     *  0 = unlimited. */
    std::uint64_t jobMemLimitMb = 0;
    /** With telemetry on, a busy worker that sends no Telemetry
     *  frame for this long is SIGKILLed as stalled. 0 = off. */
    double heartbeatGraceSeconds = 30.0;
    /** A job whose execution kills this many consecutive workers
     *  is quarantined: recorded as a classified failure with a
     *  crash report and never retried. */
    int poisonThreshold = 2;
    /** Deterministic fault-injection hook for the supervision
     *  tests: "[once:]MODE@JOBINDEX" with MODE one of
     *  segv|abort|exit|hang|oom (worker_pool.cc). Only active
     *  inside --worker processes. */
    std::string chaos;
    /** Signal-handler self-pipe read end; wakes the supervisor's
     *  poll immediately on SIGINT/SIGTERM. -1 = rely on the poll
     *  timeout to notice the stop flag. */
    int wakeFd = -1;
};

/** Thread-pool executor for one campaign. */
class CampaignRunner
{
  public:
    struct Options
    {
        /** Worker threads; 0 = one per hardware thread. */
        int jobs = 0;
        /** Run directory; "" = keep crash reports only in memory
         *  (JobResult::crashJson). Holds the crash-report files and
         *  jobs/, a result record per finished job (every verdict,
         *  quarantines included). A job whose record is already
         *  there is replayed, not re-run: that is how a killed or
         *  interrupted campaign resumes. Start a fresh run in a
         *  fresh directory (wbcampaign --out empties jobs/). */
        std::string outDir;
        /** Live progress line (jobs done/total, ETA, worker
         *  occupancy) on @c progressStream. Auto-degrades to
         *  occasional plain lines when the stream is not a tty. */
        bool progress = true;
        std::FILE *progressStream = nullptr; //!< null = stderr
        /** After every faulty job that completes cleanly, re-run
         *  its fault-free twin (faults cleared, recovery off) and
         *  compare end states; a divergence is a hard failure. */
        bool verifyEquivalence = false;

        /** Cooperative stop (signal handler sets it): workers stop
         *  claiming new jobs, in-flight jobs drain and are
         *  recorded, run() returns with interrupted = true. */
        const std::atomic<bool> *stopFlag = nullptr;
        /** Content-addressed result cache directory; "" = off. */
        std::string cacheDir;
        /** Process-isolated execution backend; its workers rebuild
         *  the spec from @c descriptor, so specKind/specText must be
         *  set when it is enabled. */
        ProcessPoolOptions process;
        SpecDescriptor descriptor;

        /** Live telemetry: per-job NDJSON snapshot streams (and
         *  exposition sidecars) under this directory, plus an
         *  aggregated progress readout; "" = off. Never changes the
         *  aggregate JSON/CSV. */
        std::string telemetryDir;
        /** Telemetry snapshot period in cycles; 0 = the spec's
         *  obs.metricsPeriod, falling back to 50'000. */
        Tick telemetryPeriod = 0;
    };

    explicit CampaignRunner(const CampaignSpec &spec)
        : CampaignRunner(spec, Options())
    {}
    CampaignRunner(const CampaignSpec &spec, Options opts);

    /** Execute every job; blocks until the campaign finishes. */
    CampaignResult run();

    /** Resolved worker count. */
    int workers() const { return _workers; }

  private:
    const CampaignSpec &_spec;
    Options _opts;
    int _workers;
};

/** Run one job with bounded infrastructure retry — the unit of
 *  execution shared by the thread backend and the worker
 *  processes. Never throws: simulation outcomes are classified,
 *  infra failures (including bad_alloc under RLIMIT_AS, recorded
 *  as "job-oom") exhaust CampaignSpec::maxRetries and are
 *  recorded. */
JobResult runCampaignJob(const CampaignSpec &spec, const JobSpec &job,
                         const std::string &outDir,
                         bool verifyEquivalence,
                         const TelemetryHooks *telemetry = nullptr);

} // namespace wb

#endif // WB_CAMPAIGN_CAMPAIGN_RUNNER_HH
