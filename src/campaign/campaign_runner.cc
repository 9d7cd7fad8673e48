#include "campaign/campaign_runner.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "campaign/campaign_aggregator.hh"
#include "campaign/result_cache.hh"
#include "campaign/worker_pool.hh"
#include "obs/perfetto.hh"
#include "recovery/equivalence.hh"
#include "sim/log.hh"

namespace wb
{

namespace
{

/** Run one job to a classified result; throws only on
 *  runner-infrastructure failure (workload/config construction). */
JobResult
executeOnce(const CampaignSpec &spec, const JobSpec &job,
            const std::string &out_dir, bool verify_equivalence,
            const TelemetryHooks *telemetry)
{
    JobResult res;
    res.spec = job;

    // Anything that throws out here (bad profile name, allocation
    // failure while emitting the program, ...) is an infrastructure
    // failure: the simulation never started, so the caller may
    // retry it.
    Workload wl = spec.workloadFor(job);
    SystemConfig cfg = spec.configFor(job);
    if (telemetry && telemetry->enabled())
        cfg.obs.metricsPeriod = telemetry->period;
    System sys(cfg, wl);

    // Telemetry: route every snapshot line through the hook, tagged
    // with the job index. The wall stamp lives in a separate header
    // key so the tick-keyed body stays seed-deterministic. With
    // --out, the same callback keeps the job's timeline.
    std::vector<MetricsSummary> timeline;
    if (MetricsStreamer *ms = sys.metricsStream()) {
        const bool tele = telemetry && telemetry->enabled();
        if (tele)
            ms->stampWall(std::uint64_t(
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::system_clock::now()
                        .time_since_epoch())
                    .count()));
        const auto *fn = tele && telemetry->emit ? &telemetry->emit
                                                 : nullptr;
        const auto keep = out_dir.empty()
                              ? MetricsStreamer::FrameFn()
                              : ms->timelineSink(timeline);
        ms->setCallback([=, index = job.index](
                            const MetricsSummary &sum,
                            const std::string &line) {
            if (fn)
                (*fn)(index, sum, line);
            if (keep)
                keep(sum, line);
        });
    }

    // From here on runClassified() owns fault handling: panics and
    // fatals inside the simulation become classified outcomes, not
    // exceptions, so one wedged job cannot take down the campaign.
    const ClassifiedRun cr = runClassified(sys);
    res.outcome = cr.outcome;
    res.verdict = cr.verdict;
    res.detail = cr.detail;
    res.results = cr.results;

    // Equivalence mode: a faulty job that completed cleanly must be
    // observationally identical to the fault-free run of the same
    // (workload, seed). The twin runs inside this worker, so -j1
    // and -j8 campaigns still produce byte-identical output.
    if (verify_equivalence && !job.faultSpec.empty() &&
        cr.outcome == RunOutcome::Ok && cr.results.completed) {
        const EndState recovered = captureEndState(sys);
        const EndState reference = runReference(cfg, wl);
        const EquivalenceReport eq =
            compareEndStates(recovered, reference);
        res.equivalenceChecked = true;
        res.equivalenceMatch = eq.match;
        res.equivalenceDetail = eq.divergence;
        if (!eq.match) {
            res.verdict = "equivalence-mismatch";
            res.detail = eq.divergence;
        }
    }

    // Per-job observability exports, keyed by job index so output
    // names (and contents — both are seed-deterministic) match
    // across worker counts.
    if (!out_dir.empty()) {
        if (const FlightRecorder *fr = sys.flightRecorder()) {
            std::ofstream tf(out_dir + "/trace-job" +
                             std::to_string(job.index) + ".json");
            if (tf)
                writePerfettoTrace(tf, *fr, cfg.numCores,
                                   cfg.numCores, timeline);
        }
        if (sys.metricsStream()) {
            std::ofstream cf(out_dir + "/timeline-job" +
                             std::to_string(job.index) + ".csv");
            if (cf)
                writeTimelineCsv(cf, timeline);
        }
    }

    // End-of-job exposition sidecar: the final metric values in
    // Prometheus text format, one file per job.
    if (telemetry && !telemetry->dir.empty() && sys.metrics()) {
        std::ofstream ef(telemetry->dir + "/metrics-job" +
                         std::to_string(job.index) + ".prom");
        if (ef)
            sys.metrics()->writeExposition(ef);
    }

    if (cr.outcome != RunOutcome::Ok) {
        std::ostringstream dump;
        writeCrashReport(dump, sys, cr.verdict, cr.detail);
        res.crashJson = dump.str();
        if (!out_dir.empty()) {
            const std::string path =
                out_dir + "/crash-job" +
                std::to_string(job.index) + ".json";
            std::ofstream f(path);
            if (f) {
                f << res.crashJson;
                if (f.good())
                    res.crashReportPath = path;
            }
        }
    }
    return res;
}

std::string
progressLine(const CampaignSummary &s, int busy, int workers,
             double elapsed, std::size_t cache_hits,
             const std::string &tele = "")
{
    char buf[224];
    const double rate = elapsed > 0 ? double(s.done) / elapsed : 0;
    const long eta =
        rate > 0 ? long(double(s.total - s.done) / rate + 0.5) : -1;
    char cache[32] = "";
    if (cache_hits)
        std::snprintf(cache, sizeof(cache), " cached %zu",
                      cache_hits);
    std::snprintf(buf, sizeof(buf),
                  "[%zu/%zu] ok %zu dl %zu pn %zu tso %zu inf %zu%s "
                  "| busy %d/%d | %.1f job/s eta %lds%s",
                  s.done, s.total, s.ok, s.deadlocks, s.panics,
                  s.tsoViolations, s.infraFailures, cache, busy,
                  workers, rate, eta >= 0 ? eta : 0, tele.c_str());
    return buf;
}

/** Aggregated live-telemetry tallies behind the progress line:
 *  latest snapshot per in-flight job, folded into campaign-wide
 *  instruction / WritersBlock-entry totals. */
struct TelemetryBoard
{
    std::mutex mu;
    /** Jobs whose sidecar stream was already opened (truncated)
     *  this run; later lines append. */
    std::vector<char> opened;
    /** Latest summary per job index (header frames, all-zero, are
     *  skipped). */
    std::map<std::size_t, MetricsSummary> latest;

    std::string
    progressSuffix()
    {
        std::lock_guard<std::mutex> lk(mu);
        if (latest.empty())
            return "";
        std::uint64_t inst = 0, stores = 0, wb = 0;
        for (const auto &kv : latest) {
            inst += kv.second.instructions;
            stores += kv.second.stores;
            wb += kv.second.wbEntries;
        }
        char buf[96];
        const double wbks =
            stores ? double(wb) * 1000.0 / double(stores) : 0.0;
        std::snprintf(buf, sizeof(buf),
                      " | tele %.2fMinst wb/ks %.1f",
                      double(inst) / 1e6, wbks);
        return buf;
    }
};

} // namespace

JobResult
runCampaignJob(const CampaignSpec &spec, const JobSpec &job,
               const std::string &out_dir, bool verify_equivalence,
               const TelemetryHooks *telemetry)
{
    std::string last_err = "unknown infrastructure failure";
    bool oom = false;
    for (int attempt = 0; attempt <= spec.maxRetries; ++attempt) {
        try {
            JobResult res = executeOnce(spec, job, out_dir,
                                        verify_equivalence,
                                        telemetry);
            res.attempts = attempt + 1;
            return res;
        } catch (const std::bad_alloc &) {
            // Under the process backend's RLIMIT_AS this is the
            // expected face of a job that outgrew its memory
            // budget; classify it apart from generic infra trouble.
            last_err = "allocation failed (std::bad_alloc)";
            oom = true;
        } catch (const std::exception &e) {
            last_err = e.what();
            oom = false;
        } catch (...) {
            last_err = "non-standard exception";
            oom = false;
        }
    }
    JobResult res;
    res.spec = job;
    res.outcome = RunOutcome::Panic;
    res.verdict = oom ? "job-oom" : "infra-failure";
    res.detail = last_err;
    res.infraFailure = true;
    res.attempts = spec.maxRetries + 1;
    return res;
}

const JobResult *
CampaignResult::find(const std::string &workload, CommitMode mode,
                     CoreClass cls, const std::string &variant,
                     const std::string &mix, int seed_index) const
{
    for (const JobResult &r : jobs)
        if (r.spec.workload == workload && r.spec.mode == mode &&
            r.spec.cls == cls && r.spec.variant == variant &&
            r.spec.mixName == mix && r.spec.seedIndex == seed_index)
            return &r;
    return nullptr;
}

CampaignRunner::CampaignRunner(const CampaignSpec &spec, Options opts)
    : _spec(spec), _opts(opts)
{
    int hw = int(std::thread::hardware_concurrency());
    if (hw < 1)
        hw = 1;
    _workers = _opts.jobs > 0 ? _opts.jobs : hw;
}

CampaignResult
CampaignRunner::run()
{
    const std::string bad = _spec.validate();
    if (!bad.empty())
        fatal("campaign spec: %s", bad.c_str());
    if (!_opts.outDir.empty())
        std::filesystem::create_directories(_opts.outDir);

    CampaignResult out;
    const std::vector<JobSpec> jobs = _spec.expand();
    out.jobs.resize(jobs.size());

    CampaignAggregator agg(jobs.size());
    std::atomic<std::size_t> next{0};
    std::atomic<int> busy{0};
    std::atomic<bool> finished{false};
    std::atomic<std::size_t> cache_hits{0};
    std::atomic<std::size_t> cache_misses{0};
    std::atomic<std::size_t> replayed{0};

    auto stopRequested = [this] {
        return _opts.stopFlag &&
               _opts.stopFlag->load(std::memory_order_relaxed);
    };

    // The shared cache skips the fsyncs: a lost or torn entry is a
    // miss and costs a re-run. Run records are what a resume
    // replays, so they are stored durably.
    const ResultCache cache(_opts.cacheDir);
    const bool use_cache = !_opts.cacheDir.empty();
    // Run records: every finished job, any verdict, under
    // OUT/jobs/. A job whose record is there is replayed.
    const ResultCache records(_opts.outDir + "/jobs",
                              /*durable=*/true);
    const bool use_records = !_opts.outDir.empty();

    // Live telemetry: one emit closure shared by every executor
    // (worker threads and the supervisor's frame loop), so per-job
    // sidecar streams are byte-identical for any backend and worker
    // count. Period resolution: explicit --telemetry-period, else
    // the spec's obs.metrics-period, else 50k cycles.
    TelemetryBoard board;
    TelemetryHooks tele;
    const TelemetryHooks *telep = nullptr;
    if (!_opts.telemetryDir.empty()) {
        std::filesystem::create_directories(_opts.telemetryDir);
        tele.period = _opts.telemetryPeriod
                          ? _opts.telemetryPeriod
                          : (_spec.obs.metricsPeriod
                                 ? _spec.obs.metricsPeriod
                                 : Tick(50000));
        tele.dir = _opts.telemetryDir;
        board.opened.assign(jobs.size(), 0);
        const std::string dir = _opts.telemetryDir;
        tele.emit = [&board, dir](std::size_t job,
                                  const MetricsSummary &sum,
                                  const std::string &line) {
            std::lock_guard<std::mutex> lk(board.mu);
            const bool fresh = job < board.opened.size() &&
                               !board.opened[job];
            if (fresh)
                board.opened[job] = 1;
            std::ofstream f(dir + "/metrics-job" +
                                std::to_string(job) + ".ndjson",
                            fresh ? std::ios::trunc
                                  : std::ios::app);
            if (f)
                f << line << '\n';
            // Header frames carry no progress; keep the last real
            // snapshot for the aggregated progress readout.
            if (sum.tick || sum.instructions)
                board.latest[job] = sum;
        };
        telep = &tele;
    }

    const auto t0 = std::chrono::steady_clock::now();
    auto elapsed = [&t0] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };

    const int nworkers =
        int(std::min<std::size_t>(std::size_t(_workers),
                                  std::max<std::size_t>(
                                      jobs.size(), 1)));

    // Commit one finished result: result slot, run record, cache
    // store, aggregate — the single bookkeeping path both backends
    // share, so their aggregates cannot drift. Each slot is
    // committed exactly once; concurrent callers (thread backend)
    // are safe because agg locks internally, every store writes its
    // own file, and a slot and its key belong to the one thread
    // that claimed the job.
    enum class From { Run, Cache, Record };
    std::vector<std::string> keys(jobs.size());
    auto recordKey = [&keys](std::size_t i) {
        return "job=" + std::to_string(i) + " " + keys[i];
    };
    auto commitFn = [&](std::size_t i, JobResult &&res, From from) {
        out.jobs[i] = std::move(res);
        const std::string &key = keys[i];
        if (from == From::Record)
            replayed.fetch_add(1, std::memory_order_relaxed);
        else if (use_records && !key.empty())
            records.store(recordKey(i), out.jobs[i]);
        if (from == From::Cache) {
            cache_hits.fetch_add(1, std::memory_order_relaxed);
        } else if (from == From::Run && use_cache) {
            cache_misses.fetch_add(1, std::memory_order_relaxed);
            // Never cache infra failures: they describe the host
            // (OOM, fs trouble, a poisoned worker), not the job.
            if (!key.empty() && !out.jobs[i].infraFailure)
                cache.store(key, out.jobs[i]);
        }
        agg.record(out.jobs[i]);
    };

    // Reuse probe, called before a job is executed: key the job by
    // the fingerprints of the config + workload it would run
    // (result_cache.hh), then look for its run record, then for a
    // shared cache entry. Key construction failures fall through to
    // normal execution, which classifies them (such a job is not
    // recorded; a resume re-runs it to the same verdict). A hit is
    // re-homed on this job (index/paths are positional, not part of
    // the result) and committed. The thread backend calls this from
    // worker threads; the process backend from the supervisor only.
    auto reuseFn = [&](std::size_t i) -> bool {
        if (!use_cache && !use_records)
            return false;
        try {
            keys[i] = ResultCache::keyString(_spec, jobs[i],
                                             _opts.verifyEquivalence);
        } catch (...) {
            return false;
        }
        JobResult hit;
        From from = From::Record;
        if (!use_records || !records.lookup(recordKey(i), hit)) {
            from = From::Cache;
            if (!use_cache || !cache.lookup(keys[i], hit))
                return false;
        }
        hit.spec = jobs[i];
        hit.crashReportPath.clear();
        if (!hit.crashJson.empty() && !_opts.outDir.empty()) {
            const std::string path =
                _opts.outDir + "/crash-job" +
                std::to_string(jobs[i].index) + ".json";
            std::ofstream f(path);
            if (f) {
                f << hit.crashJson;
                if (f.good())
                    hit.crashReportPath = path;
            }
        }
        commitFn(i, std::move(hit), from);
        return true;
    };

    auto worker = [&] {
        for (;;) {
            if (stopRequested())
                return;
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= jobs.size())
                return;
            busy.fetch_add(1, std::memory_order_relaxed);
            if (!reuseFn(i))
                commitFn(i,
                         runCampaignJob(_spec, jobs[i],
                                        _opts.outDir,
                                        _opts.verifyEquivalence,
                                        telep),
                         From::Run);
            busy.fetch_sub(1, std::memory_order_relaxed);
        }
    };

    // Progress reporter: live \r line on a tty, sparse plain lines
    // otherwise (CI logs). Runs beside the workers and never touches
    // job results, so it cannot perturb the deterministic output.
    // All writes go through StderrGate, the process-wide guarded
    // writer, so a worker's watchdog dump cannot splice into the
    // middle of the status line (and vice versa).
    std::FILE *pstream =
        _opts.progressStream ? _opts.progressStream : stderr;
    std::thread reporter;
    std::mutex pmu;
    std::condition_variable pcv;
    if (_opts.progress && !jobs.empty()) {
        const bool tty = isatty(fileno(pstream)) != 0;
        reporter = std::thread([&, tty] {
            std::size_t last_done = 0;
            const std::size_t step =
                std::max<std::size_t>(1, jobs.size() / 10);
            std::unique_lock<std::mutex> lk(pmu);
            while (!finished.load(std::memory_order_acquire)) {
                pcv.wait_for(lk,
                             std::chrono::milliseconds(tty ? 250
                                                           : 2000));
                const CampaignSummary s = agg.summary();
                const std::string tele_sfx =
                    telep ? board.progressSuffix() : "";
                if (tty) {
                    StderrGate::writeStatus(
                        pstream,
                        progressLine(s, busy.load(), nworkers,
                                     elapsed(), cache_hits.load(),
                                     tele_sfx)
                            .c_str());
                } else if (s.done >= last_done + step ||
                           s.done == s.total) {
                    last_done = s.done;
                    StderrGate::writeBlock(
                        pstream,
                        (progressLine(s, busy.load(), nworkers,
                                      elapsed(),
                                      cache_hits.load(),
                                      tele_sfx) +
                         "\n")
                            .c_str());
                }
            }
            if (tty)
                StderrGate::clearStatus(pstream);
        });
    }

    if (_opts.process.enabled) {
        // Process-isolated backend (worker_pool.hh): execution
        // moves into forked workers, but record/cache/aggregate
        // bookkeeping stays right here via the same callbacks the
        // thread backend uses — aggregates remain byte-identical.
        out.pool = runWorkerPool(
            jobs, _opts, nworkers, busy, reuseFn,
            [&](std::size_t i, JobResult &&res) {
                commitFn(i, std::move(res), From::Run);
            },
            telep);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(std::size_t(nworkers));
        for (int w = 0; w < nworkers; ++w)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }

    {
        std::lock_guard<std::mutex> lk(pmu);
        finished.store(true, std::memory_order_release);
    }
    if (reporter.joinable()) {
        pcv.notify_all();
        reporter.join();
    }

    out.summary = agg.summary();
    out.wallSeconds = elapsed();
    out.cacheHits = cache_hits.load();
    out.cacheMisses = cache_misses.load();
    out.replayed = replayed.load();
    out.interrupted =
        (stopRequested() || !out.pool.abandoned.empty()) &&
        out.summary.done < out.summary.total;
    return out;
}

} // namespace wb
