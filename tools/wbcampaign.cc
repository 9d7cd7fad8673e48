/**
 * @file
 * wbcampaign — manifest-driven, multi-threaded experiment sweeps.
 *
 * Loads a campaign manifest (docs/CAMPAIGN.md) or a built-in
 * campaign, expands it into a deterministic job list, and executes
 * the jobs on a worker pool with per-job crash isolation. Aggregate
 * JSON/CSV output is byte-identical for any -j, so reports can be
 * diffed across machines and worker counts.
 *
 *   wbcampaign --spec sweep.campaign -j8 --json results.json
 *   wbcampaign --builtin fault --quick -j$(nproc)
 *   wbcampaign --spec sweep.campaign --dry-run
 *
 * Exit codes: 0 campaign ran and holds, 1 failures, 64 usage error.
 * A TSO violation or infrastructure failure always fails. With
 * --check-faults the invariant checker judges classified
 * panics/deadlocks (expected under dup/drop mixes); without it a
 * panic fails, and --strict additionally fails on
 * deadlock/incomplete.
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>

#include <fcntl.h>
#include <unistd.h>

#include "campaign/campaign_aggregator.hh"
#include "campaign/campaign_runner.hh"
#include "campaign/campaign_spec.hh"
#include "campaign/fault_invariants.hh"
#include "campaign/job_codec.hh"
#include "campaign/result_cache.hh"
#include "campaign/worker_pool.hh"
#include "sim/parse.hh"

namespace
{

using namespace wb;

/** SIGINT/SIGTERM request a graceful stop: workers finish (and
 *  record) their in-flight jobs, then the campaign exits with the
 *  resumable code 5. The handler is async-signal-safe by
 *  construction: a lock-free atomic store plus one write() to the
 *  self-pipe that wakes the process-backend supervisor's poll().
 *  The drain is forwarded to worker processes (SIGTERM), so both
 *  layers leave through the cooperative exit-5 path. */
std::atomic<bool> g_stop{false};
int g_wakeFd = -1;

void
onStopSignal(int)
{
    g_stop.store(true, std::memory_order_relaxed);
    if (g_wakeFd >= 0) {
        const unsigned char c = 1;
        [[maybe_unused]] const ssize_t n = ::write(g_wakeFd, &c, 1);
    }
}

void
usage()
{
    std::printf(
        "usage: wbcampaign [options]\n"
        "  --spec FILE       campaign manifest "
        "(docs/CAMPAIGN.md)\n"
        "  --builtin NAME    built-in campaign: fault\n"
        "  -j, --jobs N      worker threads "
        "(default: one per hardware thread)\n"
        "  --seeds N         override the spec's seed count\n"
        "  --quick           shorthand for --seeds 4\n"
        "  --out DIR         run directory: the spec descriptor\n"
        "                    (campaign.wbc), a result record per\n"
        "                    finished job (jobs/), per-job crash\n"
        "                    reports (and, with the manifest's\n"
        "                    flight-recorder / timeline-period keys,\n"
        "                    per-job traces and timelines)\n"
        "  --json FILE       aggregate JSON report (- for stdout)\n"
        "  --csv FILE        per-job CSV (- for stdout)\n"
        "  --check-faults    assert the fault-campaign invariants\n"
        "                    (default for --builtin fault; the\n"
        "                    invariants then judge classified\n"
        "                    panics/deadlocks)\n"
        "  --recovery        arm the loss-recovery layer (ARQ +\n"
        "                    dedup) for every job, overriding the\n"
        "                    manifest\n"
        "  --verify-equivalence\n"
        "                    implies --recovery; additionally replay\n"
        "                    each faulted run fault-free and fail\n"
        "                    unless the end states match\n"
        "                    (docs/RESILIENCE.md)\n"
        "  --strict          without --check-faults, deadlocks and\n"
        "                    incomplete runs also fail\n"
        "  --resume DIR      resume an interrupted/killed campaign\n"
        "                    in its --out DIR: replay the recorded\n"
        "                    jobs, run only the rest. The spec and\n"
        "                    its overrides come from DIR (so\n"
        "                    --spec/--builtin/--seeds/--quick/--out/\n"
        "                    --recovery/--verify-equivalence/\n"
        "                    --check-faults/--strict are refused);\n"
        "                    aggregate output is byte-identical to\n"
        "                    an uninterrupted run\n"
        "  --cache-dir DIR   content-addressed result cache\n"
        "                    (default: OUT/cache when --out is set)\n"
        "  --no-cache        disable the result cache\n"
        "  --process         process-isolated workers: fork/exec a\n"
        "                    supervised worker pool instead of\n"
        "                    threads, so a worker segfault/OOM/hang\n"
        "                    is classified (worker-crash,\n"
        "                    job-timeout, job-oom) without killing\n"
        "                    the campaign (docs/CAMPAIGN.md).\n"
        "                    A worker that dies mid-job is\n"
        "                    respawned at once and its job retried;\n"
        "                    if no worker can start, the campaign\n"
        "                    exits 5 with the rest left for --resume\n"
        "  --job-timeout S   process backend: kill a job's worker\n"
        "                    after S wall-clock seconds (0 = none)\n"
        "  --job-mem-limit M process backend: per-worker RLIMIT_AS\n"
        "                    in MiB; an over-budget job is recorded\n"
        "                    as job-oom\n"
        "  --poison-threshold N\n"
        "                    process backend: quarantine a job after\n"
        "                    it kills N >= 1 consecutive workers\n"
        "                    (default 2)\n"
        "  --chaos-worker SPEC\n"
        "                    test hook: make a worker fail on a\n"
        "                    chosen job; SPEC = [once:]MODE@INDEX,\n"
        "                    MODE segv|abort|exit|hang|oom\n"
        "                    (implies --process)\n"
        "  --telemetry DIR   live telemetry: per-job metric\n"
        "                    snapshot streams (metrics-jobN.ndjson)\n"
        "                    and end-of-job exposition sidecars\n"
        "                    (metrics-jobN.prom) under DIR, plus an\n"
        "                    aggregated progress readout; with\n"
        "                    --process, snapshots double as sim-\n"
        "                    progress heartbeats that expose a\n"
        "                    stalled job (docs/OBSERVABILITY.md).\n"
        "                    Aggregate JSON/CSV stay byte-identical\n"
        "  --telemetry-period N\n"
        "                    snapshot period in cycles (default:\n"
        "                    the manifest's metrics-period key, or\n"
        "                    50000); must equal a period the\n"
        "                    manifest sets\n"
        "  --heartbeat-grace S\n"
        "                    with --process and --telemetry: kill a\n"
        "                    busy worker that sends no snapshot for\n"
        "                    S seconds (default 30, 0 = never)\n"
        "  --dry-run         print the expanded job list and exit\n"
        "  --no-progress     disable the live progress line\n"
        "SIGINT/SIGTERM finish in-flight jobs, record them, and\n"
        "exit 5 (resumable with --resume).\n"
        "exit codes: 0 campaign holds, 1 failures, 5 interrupted\n"
        "            (resumable), 64 usage\n");
}

void
printMatrix(const CampaignSpec &spec, const CampaignResult &result)
{
    std::printf("%-40s %6s %9s %6s %5s %6s %5s\n", "cell", "ok",
                "deadlock", "panic", "tso", "infra", "inc");
    for (const CellSummary &c : reduceCells(spec, result.jobs))
        std::printf("%-40s %6zu %9zu %6zu %5zu %6zu %5zu\n",
                    c.key.c_str(), c.ok, c.deadlocks, c.panics,
                    c.tsoViolations, c.infraFailures,
                    c.incomplete);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace wb;

    // Worker role: speak the pipe protocol on fds 3/4 and nothing
    // else. Checked before option parsing so a supervisor from a
    // newer build cannot be confused by flags it never sends.
    if (argc > 1 && std::strcmp(argv[1], "--worker") == 0)
        return campaignWorkerMain();

    std::string spec_path;
    std::string builtin;
    int jobs = 0;
    std::string out_dir;
    std::string json_path;
    std::string csv_path;
    bool dry_run = false;
    bool progress = true;
    std::string resume_dir;
    // The spec-shaping flags land in the descriptor that --out
    // writes to DIR/campaign.wbc; spec_flag names the last one
    // given, since --resume takes them all from DIR instead.
    SpecDescriptor desc;
    std::string spec_flag;
    std::string cache_dir;
    bool no_cache = false;
    // Process-backend supervision; pool_flag names the last
    // supervision flag given, since only that backend reads them.
    ProcessPoolOptions pool;
    std::string pool_flag;
    bool grace_given = false;
    std::string telemetry_dir;
    Tick telemetry_period = 0;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage();
                std::exit(64);
            }
            return argv[++i];
        };
        // Strict flag values: a malformed one is a usage error.
        auto check = [](const std::string &bad) {
            if (!bad.empty()) {
                std::fprintf(stderr, "%s\n", bad.c_str());
                std::exit(64);
            }
        };
        auto count = [&](const std::string &v, auto &field) {
            check(parseCount(a, v, field));
        };
        auto seconds = [&](double &field) {
            check(parseReal(a, next(), 0,
                            std::numeric_limits<double>::max(),
                            field));
        };
        if (a == "--spec" || a == "--builtin" || a == "--seeds" ||
            a == "--quick" || a == "--out" || a == "--check-faults" ||
            a == "--recovery" || a == "--verify-equivalence" ||
            a == "--strict")
            spec_flag = a;
        if (a == "--job-timeout" || a == "--job-mem-limit" ||
            a == "--poison-threshold" || a == "--heartbeat-grace")
            pool_flag = a;
        if (a == "--spec")
            spec_path = next();
        else if (a == "--builtin")
            builtin = next();
        else if (a == "-j" || a == "--jobs")
            count(next(), jobs);
        else if (a.rfind("-j", 0) == 0 && a.size() > 2 &&
                 std::isdigit(static_cast<unsigned char>(a[2])))
            count(a.substr(2), jobs);
        else if (a == "--seeds")
            check(parseCount(a, next(), desc.seedsOverride, 0,
                             std::numeric_limits<int>::max()));
        else if (a == "--quick")
            desc.seedsOverride = 4;
        else if (a == "--out")
            out_dir = next();
        else if (a == "--json")
            json_path = next();
        else if (a == "--csv")
            csv_path = next();
        else if (a == "--check-faults")
            desc.checkFaults = true;
        else if (a == "--recovery")
            desc.recovery = true;
        else if (a == "--verify-equivalence")
            desc.verifyEquivalence = true;
        else if (a == "--strict")
            desc.strict = true;
        else if (a == "--resume")
            resume_dir = next();
        else if (a == "--cache-dir")
            cache_dir = next();
        else if (a == "--no-cache")
            no_cache = true;
        else if (a == "--process")
            pool.enabled = true;
        else if (a == "--job-timeout")
            seconds(pool.jobTimeoutSeconds);
        else if (a == "--job-mem-limit")
            count(next(), pool.jobMemLimitMb);
        else if (a == "--poison-threshold")
            check(parseCount(a, next(), pool.poisonThreshold, 1));
        else if (a == "--chaos-worker") {
            pool.chaos = next();
            pool.enabled = true;
        } else if (a == "--telemetry")
            telemetry_dir = next();
        else if (a == "--telemetry-period")
            count(next(), telemetry_period);
        else if (a == "--heartbeat-grace") {
            seconds(pool.heartbeatGraceSeconds);
            grace_given = true;
        } else if (a == "--dry-run")
            dry_run = true;
        else if (a == "--no-progress")
            progress = false;
        else {
            usage();
            return a == "--help" || a == "-h" ? 0 : 64;
        }
    }

    if (telemetry_period != 0 && telemetry_dir.empty()) {
        std::fprintf(stderr,
                     "--telemetry-period needs --telemetry DIR\n");
        return 64;
    }
    if (!pool_flag.empty() && !pool.enabled) {
        std::fprintf(stderr,
                     "%s needs --process (threads are not "
                     "supervised)\n",
                     pool_flag.c_str());
        return 64;
    }
    if (grace_given && telemetry_dir.empty()) {
        std::fprintf(stderr, "--heartbeat-grace needs --telemetry "
                             "DIR (it times the snapshots)\n");
        return 64;
    }

    if (!pool.chaos.empty()) {
        std::string cmode;
        std::size_t cidx = 0;
        bool conce = false;
        if (!parseChaosSpec(pool.chaos, cmode, cidx, conce)) {
            std::fprintf(stderr,
                         "--chaos-worker: bad spec '%s' (want "
                         "[once:]segv|abort|exit|hang|oom"
                         "@JOBINDEX)\n",
                         pool.chaos.c_str());
            return 64;
        }
    }

    // --resume: the spec and its CLI overrides come from the run
    // directory's descriptor, so the rebuilt job list is identical
    // to the interrupted campaign's.
    std::string spec_name = spec_path.empty() ? builtin : spec_path;
    if (!resume_dir.empty()) {
        if (!spec_flag.empty()) {
            std::fprintf(stderr,
                         "--resume takes the spec and its overrides "
                         "from %s/campaign.wbc; drop %s\n",
                         resume_dir.c_str(), spec_flag.c_str());
            return 64;
        }
        std::string err;
        if (!loadSpecDescriptor(resume_dir, desc, err)) {
            std::fprintf(stderr, "%s\n", err.c_str());
            return 64;
        }
        spec_name = resume_dir + "/campaign.wbc";
        out_dir = resume_dir;
    } else if (spec_path.empty() == builtin.empty()) {
        std::fprintf(stderr, "need exactly one of --spec / "
                             "--builtin\n\n");
        usage();
        return 64;
    } else if (!builtin.empty()) {
        if (builtin == "fault")
            desc.checkFaults = true;
        desc.specKind = "builtin";
        desc.specText = builtin;
    } else {
        // Keep the manifest text: campaign.wbc embeds it so --resume
        // needs nothing but the output directory — and the process
        // backend's workers rebuild the identical spec from the very
        // same description.
        std::ifstream mf(spec_path);
        if (!mf) {
            std::fprintf(stderr, "cannot open %s\n",
                         spec_path.c_str());
            return 64;
        }
        std::ostringstream ss;
        ss << mf.rdbuf();
        desc.specKind = "manifest";
        desc.specText = ss.str();
    }
    CampaignSpec spec;
    {
        std::string err;
        if (!buildCampaignSpec(desc, spec, err)) {
            std::fprintf(stderr, "%s: %s\n", spec_name.c_str(),
                         err.c_str());
            return 64;
        }
    }
    if (telemetry_period && spec.obs.metricsPeriod &&
        telemetry_period != spec.obs.metricsPeriod) {
        std::fprintf(stderr, "--telemetry-period differs from the "
                             "manifest's sample period\n");
        return 64;
    }

    if (dry_run) {
        std::printf("campaign %s: %zu jobs\n", spec.name.c_str(),
                    spec.jobCount());
        for (const JobSpec &j : spec.expand())
            std::printf(
                "%5zu  %-16s %-16s %-4s %-10s seed[%d]=%llu\n",
                j.index, j.workload.c_str(),
                commitModeName(j.mode), coreClassName(j.cls),
                j.mixName.c_str(), j.seedIndex,
                static_cast<unsigned long long>(j.seed));
        return 0;
    }

    // A fresh run directory: its old records would be replayed, so
    // they go before the descriptor of this campaign is written.
    if (resume_dir.empty() && !out_dir.empty()) {
        std::string err;
        std::error_code ec;
        std::filesystem::create_directories(out_dir, ec);
        ResultCache(out_dir + "/jobs").clear();
        if (!writeSpecDescriptor(out_dir, desc, err)) {
            std::fprintf(stderr, "%s\n", err.c_str());
            return 64;
        }
    }

    CampaignRunner::Options opts;
    opts.jobs = jobs;
    opts.outDir = out_dir;
    opts.progress = progress;
    opts.verifyEquivalence = desc.verifyEquivalence;
    opts.stopFlag = &g_stop;
    opts.descriptor = desc;
    if (!no_cache)
        opts.cacheDir = !cache_dir.empty()
                            ? cache_dir
                            : (out_dir.empty()
                                   ? std::string()
                                   : out_dir + "/cache");
    opts.process = pool;
    opts.telemetryDir = telemetry_dir;
    opts.telemetryPeriod = telemetry_period;

    // Self-pipe: the signal handler may only touch the stop flag and
    // this fd, and the supervisor's poll() must wake immediately so a
    // SIGTERM drains the worker pool instead of waiting out the poll
    // timeout.
    int wakepipe[2] = {-1, -1};
    if (::pipe(wakepipe) == 0) {
        for (int fd : wakepipe) {
            ::fcntl(fd, F_SETFL,
                    ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
            ::fcntl(fd, F_SETFD, FD_CLOEXEC);
        }
        g_wakeFd = wakepipe[1];
        opts.process.wakeFd = wakepipe[0];
    }

    CampaignRunner runner(spec, opts);

    // A worker that died mid-write leaves the supervisor writing into
    // a broken pipe; that must surface as EPIPE, not kill the
    // process.
    ::signal(SIGPIPE, SIG_IGN);
    struct sigaction sa = {};
    sa.sa_handler = onStopSignal;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);

    std::printf("campaign %s: %zu jobs on %d worker%s\n",
                spec.name.c_str(), spec.jobCount(),
                runner.workers(), runner.workers() == 1 ? "" : "s");
    const CampaignResult result = runner.run();
    if (!resume_dir.empty())
        std::printf("resume: %zu of %zu jobs replayed from %s/jobs\n",
                    result.replayed, spec.jobCount(),
                    resume_dir.c_str());

    // Durability/cache health goes to stderr and a sidecar file,
    // never into the aggregate reports — those must stay
    // byte-identical across cold, cached, and resumed runs.
    if (!opts.cacheDir.empty() || !out_dir.empty())
        std::fprintf(stderr,
                     "durability: %zu replayed, %zu cache hit%s, "
                     "%zu miss%s\n",
                     result.replayed, result.cacheHits,
                     result.cacheHits == 1 ? "" : "s",
                     result.cacheMisses,
                     result.cacheMisses == 1 ? "" : "es");
    if (!telemetry_dir.empty())
        std::fprintf(stderr,
                     "telemetry: per-job streams under %s "
                     "(metrics-jobN.ndjson / .prom)\n",
                     telemetry_dir.c_str());
    const WorkerPoolStats &st = result.pool;
    if (pool.enabled)
        std::fprintf(stderr,
                     "supervision: %zu restart%s, %zu crash%s, "
                     "%zu timeout%s, %zu oom, %zu quarantined\n",
                     st.workerRestarts,
                     st.workerRestarts == 1 ? "" : "s",
                     st.workerCrashes,
                     st.workerCrashes == 1 ? "" : "es",
                     st.jobTimeouts, st.jobTimeouts == 1 ? "" : "s",
                     st.jobOoms, st.quarantined);
    if (!st.abandoned.empty())
        std::fprintf(stderr,
                     "supervision: no worker could start (%s); "
                     "%zu of %zu jobs left unrun\n",
                     st.abandoned.c_str(),
                     result.summary.total - result.summary.done,
                     result.summary.total);
    if (!out_dir.empty()) {
        std::ofstream d(out_dir + "/durability.json");
        if (d)
            d << "{\n"
              << "  \"interrupted\": "
              << (result.interrupted ? "true" : "false") << ",\n"
              << "  \"jobsDone\": " << result.summary.done << ",\n"
              << "  \"jobsTotal\": " << result.summary.total
              << ",\n"
              << "  \"replayed\": " << result.replayed << ",\n"
              << "  \"cacheHits\": " << result.cacheHits << ",\n"
              << "  \"cacheMisses\": " << result.cacheMisses
              << ",\n"
              << "  \"workerRestarts\": " << st.workerRestarts
              << ",\n"
              << "  \"workerCrashes\": " << st.workerCrashes
              << ",\n"
              << "  \"jobTimeouts\": " << st.jobTimeouts << ",\n"
              << "  \"jobOoms\": " << st.jobOoms << ",\n"
              << "  \"quarantined\": " << st.quarantined
              << "\n}\n";
    }

    if (result.interrupted) {
        std::printf("\ninterrupted: %zu/%zu jobs done",
                    result.summary.done, result.summary.total);
        if (!out_dir.empty())
            std::printf("; resume with: wbcampaign --resume %s",
                        out_dir.c_str());
        else
            std::printf(" (no --out directory, so nothing "
                        "was recorded; not resumable)");
        std::printf("\n");
        return 5;
    }

    printMatrix(spec, result);
    const CampaignSummary &s = result.summary;
    std::printf("\n%zu jobs: %zu ok, %zu deadlock, %zu panic, "
                "%zu tso, %zu infra, %zu incomplete, %zu retried "
                "(%.1fs wall)\n",
                s.done, s.ok, s.deadlocks, s.panics,
                s.tsoViolations, s.infraFailures, s.incomplete,
                s.retried, result.wallSeconds);
    if (desc.verifyEquivalence)
        std::printf("equivalence: %zu checked, %zu mismatch%s\n",
                    s.equivalenceChecked, s.equivalenceMismatches,
                    s.equivalenceMismatches == 1 ? "" : "es");

    // TSO violations and infrastructure failures always fail the
    // campaign. Classified panics/deadlocks fail it too — unless
    // the fault invariants are the authority: under dup/drop mixes
    // those are the *expected* outcomes, and the invariant checker
    // decides whether each one is legitimate.
    int failures =
        int(s.tsoViolations + s.infraFailures +
            s.equivalenceMismatches);
    if (desc.checkFaults) {
        const auto broken = checkFaultInvariants(result);
        for (const std::string &b : broken)
            std::fprintf(stderr, "FAIL %s\n", b.c_str());
        failures += int(broken.size());
        std::printf("fault invariants: %s (%zu violation%s)\n",
                    broken.empty() ? "hold" : "VIOLATED",
                    broken.size(),
                    broken.size() == 1 ? "" : "s");
    } else {
        failures += int(s.panics);
        if (desc.strict)
            failures += int(s.deadlocks + s.incomplete);
    }

    auto emit = [&](const std::string &path, auto writer) {
        if (path.empty())
            return;
        if (path == "-") {
            writer(std::cout);
        } else {
            std::ofstream f(path);
            if (!f) {
                std::fprintf(stderr, "cannot open %s\n",
                             path.c_str());
                ++failures;
                return;
            }
            writer(f);
        }
    };
    emit(json_path, [&](std::ostream &os) {
        writeCampaignJson(os, spec, result);
    });
    emit(csv_path, [&](std::ostream &os) {
        writeCampaignCsv(os, result);
    });

    return failures ? 1 : 0;
}
