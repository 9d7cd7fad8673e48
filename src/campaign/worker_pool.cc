#include "campaign/worker_pool.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "campaign/fault_invariants.hh"
#include "campaign/job_codec.hh"
#include "sim/log.hh"
#include "sim/parse.hh"

namespace wb
{

// ---------------------------------------------------------------
// Spec rebuild (shared by --resume and the worker processes)
// ---------------------------------------------------------------

bool
buildCampaignSpec(const SpecDescriptor &desc, CampaignSpec &out,
                  std::string &err)
{
    if (desc.specKind == "builtin") {
        if (desc.specText == "fault") {
            out = faultCampaignSpec();
        } else {
            err = "unknown builtin campaign '" + desc.specText +
                  "' (available: fault)";
            return false;
        }
    } else if (desc.specKind == "manifest") {
        std::istringstream in(desc.specText);
        if (!parseCampaignSpec(in, out, err))
            return false;
    } else {
        err = "unknown spec kind '" + desc.specKind + "'";
        return false;
    }
    if (desc.seedsOverride > 0)
        out.seeds = int(desc.seedsOverride);
    if (desc.recovery || desc.verifyEquivalence)
        out.recovery.enabled = true;
    err = out.validate();
    if (!err.empty()) {
        err = "campaign spec: " + err;
        return false;
    }
    return true;
}

// ---------------------------------------------------------------
// Chaos hook (test-only worker fault injection)
// ---------------------------------------------------------------

bool
parseChaosSpec(const std::string &spec, std::string &mode,
               std::size_t &index, bool &once)
{
    std::string s = spec;
    once = false;
    if (s.rfind("once:", 0) == 0) {
        once = true;
        s = s.substr(5);
    }
    const std::size_t at = s.find('@');
    if (at == std::string::npos || at == 0 || at + 1 >= s.size())
        return false;
    mode = s.substr(0, at);
    if (mode != "segv" && mode != "abort" && mode != "exit" &&
        mode != "hang" && mode != "oom")
        return false;
    return parseCount("", s.substr(at + 1), index).empty();
}


namespace
{

using SteadyClock = std::chrono::steady_clock;

double
secondsSince(SteadyClock::time_point t)
{
    return std::chrono::duration<double>(SteadyClock::now() - t)
        .count();
}

/** Deterministic worker-fault hook: "[once:]MODE@JOBINDEX". The
 *  "once:" prefix fires only the first time any worker of this
 *  campaign reaches the job (an O_EXCL marker file arbitrates), so
 *  tests can exercise the respawn-then-succeed path. */
void
maybeChaos(const std::string &spec, std::size_t job,
           const std::string &out_dir)
{
    if (spec.empty())
        return;
    std::string mode;
    std::size_t target = 0;
    bool once = false;
    if (!parseChaosSpec(spec, mode, target, once) || target != job)
        return;
    if (once) {
        const std::string marker =
            (out_dir.empty() ? std::string(".") : out_dir) +
            "/chaos-fired-" + std::to_string(job);
        const int fd = ::open(marker.c_str(),
                              O_CREAT | O_EXCL | O_WRONLY, 0644);
        if (fd < 0)
            return; // already fired: run the job normally
        ::close(fd);
    }
    if (mode == "segv") {
        ::raise(SIGSEGV);
        std::_Exit(139); // sanitizer runtimes may survive raise()
    }
    if (mode == "abort")
        std::abort();
    if (mode == "exit")
        std::_Exit(9);
    if (mode == "hang")
        for (;;)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
    if (mode == "oom") {
        // Allocate until RLIMIT_AS refuses (bad_alloc propagates to
        // the job loop, which records "job-oom"). Bounded so a
        // mis-configured run without a memory limit gives up and
        // runs the job instead of exhausting the host.
        std::vector<std::unique_ptr<char[]>> hog;
        for (int k = 0; k < 64; ++k) {
            hog.emplace_back(new char[64u << 20]);
            std::memset(hog.back().get(), 0x5a, 64u << 20);
        }
    }
}

// ---------------------------------------------------------------
// Worker process
// ---------------------------------------------------------------

std::atomic<bool> g_workerStop{false};

void
onWorkerStopSignal(int)
{
    g_workerStop.store(true, std::memory_order_relaxed);
}

JobResult
oomResult(const JobSpec &job, std::uint64_t mem_limit_mb)
{
    JobResult r;
    r.spec = job;
    r.outcome = RunOutcome::Panic;
    r.verdict = "job-oom";
    r.detail = "allocation failed under RLIMIT_AS (" +
               std::to_string(mem_limit_mb) + " MiB)";
    r.infraFailure = true;
    std::ostringstream os;
    writeLoadFailureReport(os, r.verdict, r.detail);
    r.crashJson = os.str();
    return r;
}

} // namespace

int
campaignWorkerMain()
{
    // Cooperative drain: SIGINT/SIGTERM set a flag; no SA_RESTART so
    // the blocking frame read wakes with EINTR and checks it. The
    // supervisor forwards its own drain signal, so both layers exit
    // through the same resumable path (exit 5).
    struct sigaction sa = {};
    sa.sa_handler = onWorkerStopSignal;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
    struct sigaction ign = {};
    ign.sa_handler = SIG_IGN;
    sigaction(SIGPIPE, &ign, nullptr);

    const int in_fd = 3;
    const int out_fd = 4;
    FrameReader reader;
    auto readFrame = [&](WireFrame &f) -> bool {
        for (;;) {
            try {
                if (reader.next(f))
                    return true;
            } catch (const ByteCodecError &) {
                return false; // corrupt command stream: give up
            }
            unsigned char buf[65536];
            const ssize_t n = ::read(in_fd, buf, sizeof(buf));
            if (n > 0) {
                reader.append(buf, std::size_t(n));
                continue;
            }
            if (n < 0 && errno == EINTR) {
                if (g_workerStop.load(std::memory_order_relaxed))
                    return false;
                continue;
            }
            return false; // EOF: supervisor shut us down or died
        }
    };

    WireFrame f;
    if (!readFrame(f) || f.type != WireType::Init)
        return 3;
    WorkerInit init;
    try {
        ByteReader r(f.payload);
        init = decodeWorkerInit(r);
    } catch (const ByteCodecError &) {
        return 3;
    }

    CampaignSpec spec;
    std::string err;
    if (!buildCampaignSpec(init.spec, spec, err)) {
        std::fprintf(stderr, "wbcampaign worker: %s\n",
                     err.c_str());
        return 3;
    }
    const std::vector<JobSpec> jobs = spec.expand();
    if (jobs.size() != init.jobCount ||
        jobListFingerprint(jobs) != init.jobFingerprint) {
        std::fprintf(stderr,
                     "wbcampaign worker: rebuilt job list does not "
                     "match the supervisor's\n");
        return 3;
    }

    if (init.memLimitMb > 0) {
        struct rlimit rl;
        if (getrlimit(RLIMIT_AS, &rl) == 0) {
            rlim_t want = rlim_t(init.memLimitMb) << 20;
            if (rl.rlim_max != RLIM_INFINITY && want > rl.rlim_max)
                want = rl.rlim_max;
            rl.rlim_cur = want;
            setrlimit(RLIMIT_AS, &rl);
        }
    }

    // Telemetry: snapshot lines leave as Telemetry frames; the
    // supervisor owns the sidecar files.
    TelemetryHooks tele;
    const TelemetryHooks *telep = nullptr;
    if (init.metricsPeriod > 0) {
        tele.period = Tick(init.metricsPeriod);
        tele.dir = init.telemetryDir;
        tele.emit = [out_fd](std::size_t job,
                             const MetricsSummary &sum,
                             const std::string &line) {
            ByteWriter bw;
            encodeTelemetryFrame(bw, TelemetryFrame{job, sum, line});
            writeFrame(out_fd, WireType::Telemetry, bw);
        };
        telep = &tele;
    }

    {
        ByteWriter hello;
        hello.u32(wireProtocolVersion);
        hello.u64(std::uint64_t(::getpid()));
        if (!writeFrame(out_fd, WireType::Hello, hello))
            return 3;
    }

    for (;;) {
        if (!readFrame(f))
            break;
        if (f.type == WireType::Shutdown)
            break;
        if (f.type != WireType::RunJob)
            continue;
        std::size_t i = 0;
        try {
            ByteReader r(f.payload);
            i = std::size_t(r.u64());
        } catch (const ByteCodecError &) {
            return 3;
        }
        if (i >= jobs.size())
            return 3;

        JobResult res;
        try {
            maybeChaos(init.chaos, i, init.outDir);
            res = runCampaignJob(spec, jobs[i], init.outDir,
                                 init.spec.verifyEquivalence,
                                 telep);
        } catch (const std::bad_alloc &) {
            res = oomResult(jobs[i], init.memLimitMb);
        }

        ByteWriter bw;
        encodeJobResult(bw, res);
        if (!writeFrame(out_fd, WireType::JobDone, bw))
            return 3;
        if (g_workerStop.load(std::memory_order_relaxed))
            return 5;
    }
    return g_workerStop.load(std::memory_order_relaxed) ? 5 : 0;
}

// ---------------------------------------------------------------
// Supervisor
// ---------------------------------------------------------------

namespace
{

struct Worker
{
    pid_t pid = -1;
    int cmdFd = -1;
    int resFd = -1;
    FrameReader reader;
    bool alive = false; //!< false = slot retired (handleDeath
                        //!< respawns a charged death at once)
    bool helloSeen = false;
    bool busy = false;
    std::size_t job = 0;
    SteadyClock::time_point jobStart;
    /** Last Telemetry frame of the job in flight (telemetry mode
     *  only): the stall rule's clock. */
    SteadyClock::time_point lastTelemetry;

    enum class Kill
    {
        None,
        Deadline, //!< per-job wall-clock deadline exceeded
        Stalled,  //!< busy but no telemetry within the grace window
    };
    Kill kill = Kill::None;
};

/** "killed by signal 11" / "exited with status 3". */
std::string
describeExit(int wst)
{
    if (WIFSIGNALED(wst))
        return "killed by signal " + std::to_string(WTERMSIG(wst));
    return "exited with status " +
           std::to_string(WIFEXITED(wst) ? WEXITSTATUS(wst) : -1);
}

} // namespace

WorkerPoolStats
runWorkerPool(const std::vector<JobSpec> &jobs,
              const CampaignRunner::Options &opts, int nworkers,
              std::atomic<int> &busy, const PoolReuseFn &reuse,
              const PoolCommitFn &commit,
              const TelemetryHooks *telemetry)
{
    WorkerPoolStats st;
    const ProcessPoolOptions &P = opts.process;

    if (opts.descriptor.specKind != "builtin" &&
        opts.descriptor.specKind != "manifest")
        fatal("process backend needs a builtin or manifest spec "
              "description (Options::descriptor)");

    std::deque<std::size_t> pending;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        pending.push_back(i);
    if (pending.empty())
        return st;

    auto stopRequested = [&opts] {
        return opts.stopFlag &&
               opts.stopFlag->load(std::memory_order_relaxed);
    };
    if (stopRequested())
        return st;

    // The Init frame: the same spec description a run directory's
    // campaign.wbc holds, so workers rebuild the supervisor's exact
    // job list (and refuse to run if they cannot).
    WorkerInit init;
    init.spec = opts.descriptor;
    init.jobFingerprint = jobListFingerprint(jobs);
    init.jobCount = jobs.size();
    init.spec.verifyEquivalence = opts.verifyEquivalence;
    init.outDir = opts.outDir;
    init.chaos = P.chaos;
    init.memLimitMb = P.jobMemLimitMb;
    if (telemetry && telemetry->enabled()) {
        init.metricsPeriod = std::uint64_t(telemetry->period);
        init.telemetryDir = telemetry->dir;
    }
    ByteWriter initw;
    encodeWorkerInit(initw, init);
    const std::vector<unsigned char> init_bytes = initw.take();

    const int poison = std::max(1, P.poisonThreshold);
    const bool stall_rule = telemetry && telemetry->enabled() &&
                            P.heartbeatGraceSeconds > 0;

    // The supervisor must see EPIPE, not die, when it writes to a
    // worker that just crashed.
    struct sigaction ign = {};
    ign.sa_handler = SIG_IGN;
    sigaction(SIGPIPE, &ign, nullptr);

    const int nslots = int(std::min<std::size_t>(
        std::size_t(nworkers), pending.size()));
    std::vector<Worker> w(static_cast<std::size_t>(nslots));
    std::map<std::size_t, int> consec_kills;
    bool draining = false;
    std::string retired_why; //!< why the last slot retired

    auto anyAlive = [&w] {
        for (const Worker &wk : w)
            if (wk.alive)
                return true;
        return false;
    };
    auto anyBusy = [&w] {
        for (const Worker &wk : w)
            if (wk.alive && wk.busy)
                return true;
        return false;
    };

    auto spawn = [&](Worker &wk) -> bool {
        int cmd[2] = {-1, -1};
        int res[2] = {-1, -1};
        if (::pipe(cmd) != 0) {
            retired_why = std::string("pipe: ") + std::strerror(errno);
            return false;
        }
        if (::pipe(res) != 0) {
            retired_why = std::string("pipe: ") + std::strerror(errno);
            ::close(cmd[0]);
            ::close(cmd[1]);
            return false;
        }
        for (int fd : {cmd[0], cmd[1], res[0], res[1]})
            fcntl(fd, F_SETFD, FD_CLOEXEC);
        const pid_t pid = ::fork();
        if (pid < 0) {
            retired_why = std::string("fork: ") + std::strerror(errno);
            for (int fd : {cmd[0], cmd[1], res[0], res[1]})
                ::close(fd);
            return false;
        }
        if (pid == 0) {
            // Child: command pipe on fd 3, result pipe on fd 4.
            // F_DUPFD clears CLOEXEC and dodges collisions with the
            // target fds; stray stdout is rerouted to stderr so it
            // cannot pollute the supervisor's report stream.
            const int in = fcntl(cmd[0], F_DUPFD, 10);
            const int out = fcntl(res[1], F_DUPFD, 10);
            ::dup2(in, 3);
            ::dup2(out, 4);
            ::dup2(2, 1);
            signal(SIGINT, SIG_DFL);
            signal(SIGTERM, SIG_DFL);
            ::execl("/proc/self/exe", "/proc/self/exe", "--worker",
                    static_cast<char *>(nullptr));
            _exit(127);
        }
        ::close(cmd[0]);
        ::close(res[1]);
        fcntl(res[0], F_SETFL, O_NONBLOCK);
        wk.pid = pid;
        wk.cmdFd = cmd[1];
        wk.resFd = res[0];
        wk.reader.reset();
        wk.alive = true;
        wk.helloSeen = false;
        wk.busy = false;
        wk.kill = Worker::Kill::None;
        writeFrame(wk.cmdFd, WireType::Init, init_bytes.data(),
                   init_bytes.size());
        return true;
    };

    auto quarantine = [&](std::size_t i, RunOutcome outcome,
                          const std::string &verdict,
                          const std::string &detail, int kills) {
        JobResult r;
        r.spec = jobs[i];
        r.outcome = outcome;
        r.verdict = verdict;
        r.detail = detail;
        r.infraFailure = true; // host-specific: never cached
        r.attempts = kills;
        std::ostringstream os;
        writeLoadFailureReport(os, verdict, detail);
        r.crashJson = os.str();
        if (!opts.outDir.empty()) {
            const std::string path =
                opts.outDir + "/crash-job" +
                std::to_string(jobs[i].index) + ".json";
            std::ofstream cf(path);
            if (cf) {
                cf << r.crashJson;
                if (cf.good())
                    r.crashReportPath = path;
            }
        }
        commit(i, std::move(r));
        ++st.quarantined;
    };

    // One rule per death. A busy worker's death is charged to its
    // job: the job is requeued or, at the poison threshold,
    // quarantined, and the slot is respawned at once, so every
    // respawn spends one unit of some job's poison credit. Any
    // other death (before Hello, or idle) says nothing about a job
    // and retires the slot for good.
    auto handleDeath = [&](Worker &wk) {
        if (!wk.alive)
            return;
        ::close(wk.cmdFd);
        ::close(wk.resFd);
        wk.cmdFd = wk.resFd = -1;
        wk.alive = false;
        int wst = 0;
        while (::waitpid(wk.pid, &wst, 0) < 0 && errno == EINTR) {
        }

        if (!wk.busy) {
            const bool clean = WIFEXITED(wst) &&
                               (WEXITSTATUS(wst) == 0 ||
                                WEXITSTATUS(wst) == 5);
            if (!clean && !draining)
                ++st.workerCrashes;
            retired_why = "worker " + describeExit(wst) +
                          (wk.helloSeen ? " while idle"
                                        : " before its Hello");
            return;
        }

        const std::size_t i = wk.job;
        wk.busy = false;
        busy.fetch_sub(1, std::memory_order_relaxed);

        RunOutcome outcome = RunOutcome::Deadlock;
        std::string verdict = "job-timeout";
        char buf[112];
        if (wk.kill == Worker::Kill::Deadline) {
            std::snprintf(buf, sizeof(buf),
                          "supervisor killed the worker: per-job "
                          "deadline (%gs) exceeded",
                          P.jobTimeoutSeconds);
            ++st.jobTimeouts;
        } else if (wk.kill == Worker::Kill::Stalled) {
            std::snprintf(buf, sizeof(buf),
                          "supervisor killed the worker: no "
                          "telemetry snapshot for %gs (simulation "
                          "stalled)",
                          P.heartbeatGraceSeconds);
            ++st.jobTimeouts;
        } else {
            outcome = RunOutcome::Panic;
            verdict = "worker-crash";
            std::snprintf(buf, sizeof(buf), "worker %s%s",
                          describeExit(wst).c_str(),
                          WIFSIGNALED(wst)
                              ? ""
                              : " while a job was in flight");
            ++st.workerCrashes;
        }
        const std::string detail = buf;

        const int kills = ++consec_kills[i];
        if (kills >= poison)
            quarantine(i, outcome, verdict,
                       detail + " (" + std::to_string(kills) +
                           " consecutive worker deaths on this "
                           "job)",
                       kills);
        else
            pending.push_front(i);

        if (!draining && spawn(wk))
            ++st.workerRestarts;
    };

    auto processFrames = [&](Worker &wk) {
        WireFrame fr;
        try {
            while (wk.alive && wk.reader.next(fr)) {
                switch (fr.type) {
                case WireType::Hello: {
                    ByteReader r(fr.payload);
                    if (r.u32() != wireProtocolVersion) {
                        // A stale binary answered the exec; its
                        // death retires the slot like any other
                        // death before Hello.
                        ::kill(wk.pid, SIGKILL);
                        return;
                    }
                    wk.helloSeen = true;
                    break;
                }
                case WireType::Telemetry: {
                    ByteReader r(fr.payload);
                    const TelemetryFrame t = decodeTelemetryFrame(r);
                    wk.lastTelemetry = SteadyClock::now();
                    if (telemetry && telemetry->emit)
                        telemetry->emit(std::size_t(t.job), t.sum,
                                        t.line);
                    break;
                }
                case WireType::JobDone: {
                    ByteReader r(fr.payload);
                    JobResult res = decodeJobResult(r);
                    if (!wk.busy || res.spec.index != wk.job) {
                        ::kill(wk.pid, SIGKILL); // protocol desync
                        return;
                    }
                    const std::size_t i = wk.job;
                    wk.busy = false;
                    busy.fetch_sub(1, std::memory_order_relaxed);
                    consec_kills.erase(i);
                    if (res.verdict == "job-oom")
                        ++st.jobOoms;
                    commit(i, std::move(res));
                    break;
                }
                default:
                    break;
                }
            }
        } catch (const ByteCodecError &) {
            // Corrupt result stream (worker died mid-frame, or
            // something else wrote to the pipe): crash the worker.
            wk.reader.reset();
            ::kill(wk.pid, SIGKILL);
        }
    };

    auto drainWorkerFd = [&](Worker &wk) {
        unsigned char buf[65536];
        for (;;) {
            const ssize_t n = ::read(wk.resFd, buf, sizeof(buf));
            if (n > 0) {
                wk.reader.append(buf, std::size_t(n));
                continue;
            }
            if (n < 0 && errno == EINTR)
                continue;
            if (n < 0 &&
                (errno == EAGAIN || errno == EWOULDBLOCK)) {
                processFrames(wk);
                return;
            }
            // EOF or a hard error: parse what arrived (a JobDone
            // sent just before exiting must not be lost), then reap.
            processFrames(wk);
            handleDeath(wk);
            return;
        }
    };

    auto assignJobs = [&] {
        if (draining)
            return;
        for (Worker &wk : w) {
            if (!wk.alive || !wk.helloSeen || wk.busy ||
                wk.kill != Worker::Kill::None)
                continue;
            while (!pending.empty()) {
                const std::size_t i = pending.front();
                pending.pop_front();
                if (reuse(i))
                    continue;
                ByteWriter bw;
                bw.u64(i);
                if (!writeFrame(wk.cmdFd, WireType::RunJob, bw)) {
                    // Died idle: the job never reached it.
                    pending.push_front(i);
                    handleDeath(wk);
                    break;
                }
                wk.busy = true;
                wk.job = i;
                wk.jobStart = SteadyClock::now();
                wk.lastTelemetry = wk.jobStart;
                busy.fetch_add(1, std::memory_order_relaxed);
                break;
            }
        }
    };

    for (Worker &wk : w)
        spawn(wk);

    for (;;) {
        if (stopRequested() && !draining) {
            // Forward the drain: workers finish their in-flight
            // job, report it, and exit through the cooperative
            // exit-5 path; nothing new is assigned.
            draining = true;
            for (Worker &wk : w)
                if (wk.alive)
                    ::kill(wk.pid, SIGTERM);
        }

        assignJobs();

        if (pending.empty() && !anyBusy())
            break;
        if (draining && !anyBusy())
            break;
        if (!anyAlive()) {
            // Every slot retired with jobs left. They stay
            // unrecorded, so --resume runs them later; none runs in
            // this process.
            st.abandoned = retired_why;
            break;
        }

        std::vector<pollfd> fds;
        std::vector<Worker *> owners;
        for (Worker &wk : w)
            if (wk.alive) {
                fds.push_back({wk.resFd, POLLIN, 0});
                owners.push_back(&wk);
            }
        if (P.wakeFd >= 0)
            fds.push_back({P.wakeFd, POLLIN, 0});
        // Sleep until the nearest supervision deadline instead of a
        // fixed 200 ms: a sub-second job deadline is enforced on
        // time, and a quiet pool with lazy deadlines dozes a full
        // second per wake (worker results and wakeFd writes always
        // interrupt the poll regardless of the timeout).
        double nearest = 1.0;
        for (Worker &wk : w) {
            if (!wk.alive || !wk.busy ||
                wk.kill != Worker::Kill::None)
                continue;
            if (P.jobTimeoutSeconds > 0)
                nearest = std::min(nearest,
                                   P.jobTimeoutSeconds -
                                       secondsSince(wk.jobStart));
            if (stall_rule)
                nearest = std::min(nearest,
                                   P.heartbeatGraceSeconds -
                                       secondsSince(wk.lastTelemetry));
        }
        const int timeoutMs = std::clamp(
            int(nearest * 1000.0) + 1, 1, 1000);
        const int pr =
            ::poll(fds.data(), nfds_t(fds.size()), timeoutMs);
        if (pr < 0 && errno != EINTR)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
        if (pr > 0) {
            if (P.wakeFd >= 0 &&
                (fds.back().revents & POLLIN) != 0) {
                unsigned char sink[64];
                while (::read(P.wakeFd, sink, sizeof(sink)) > 0) {
                }
            }
            for (std::size_t k = 0; k < owners.size(); ++k)
                if ((fds[k].revents &
                     (POLLIN | POLLHUP | POLLERR)) != 0)
                    drainWorkerFd(*owners[k]);
        }

        // The two liveness rules. SIGKILL, not SIGTERM: a wedged
        // job will not cooperate, and the kill reason is already
        // recorded for classification. The stall rule catches a
        // job whose simulation stopped producing snapshots. (Pick
        // the snapshot period well below grace x sim-speed, or slow
        // jobs will be killed.)
        for (Worker &wk : w) {
            if (!wk.alive || !wk.busy ||
                wk.kill != Worker::Kill::None)
                continue;
            if (P.jobTimeoutSeconds > 0 &&
                secondsSince(wk.jobStart) > P.jobTimeoutSeconds)
                wk.kill = Worker::Kill::Deadline;
            else if (stall_rule && secondsSince(wk.lastTelemetry) >
                                       P.heartbeatGraceSeconds)
                wk.kill = Worker::Kill::Stalled;
            if (wk.kill != Worker::Kill::None)
                ::kill(wk.pid, SIGKILL);
        }
    }

    // Shutdown: EOF on the command pipe tells an idle worker to
    // exit cleanly; give stragglers a bounded grace, then kill.
    for (Worker &wk : w)
        if (wk.alive && wk.cmdFd >= 0) {
            ::close(wk.cmdFd);
            wk.cmdFd = -1;
        }
    const auto kill_at =
        SteadyClock::now() + std::chrono::seconds(5);
    for (Worker &wk : w) {
        if (!wk.alive)
            continue;
        int wst = 0;
        for (;;) {
            const pid_t r = ::waitpid(wk.pid, &wst, WNOHANG);
            if (r == wk.pid || (r < 0 && errno != EINTR))
                break;
            if (r < 0)
                continue;
            if (SteadyClock::now() >= kill_at) {
                ::kill(wk.pid, SIGKILL);
                while (::waitpid(wk.pid, &wst, 0) < 0 &&
                       errno == EINTR) {
                }
                break;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
        }
        if (wk.resFd >= 0) {
            ::close(wk.resFd);
            wk.resFd = -1;
        }
        wk.alive = false;
    }

    return st;
}

} // namespace wb
