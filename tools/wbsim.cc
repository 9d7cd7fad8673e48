/**
 * @file
 * wbsim — command-line driver for the simulator.
 *
 * Run any benchmark profile or litmus on any machine configuration
 * and inspect results, without writing C++:
 *
 *   wbsim --workload ocean_ncp --mode ooo-wb --class NHM
 *   wbsim --workload table1 --mode ooo-unsafe --iters 3000
 *   wbsim --list
 *   wbsim --workload fft --mode in-order --dump-stats
 *   wbsim --workload radix --faults "seed=7,drop=0.001:2" \
 *         --crash-dump crash.json
 *
 * Exit codes (docs/RESILIENCE.md):
 *   0  completed, TSO-clean, no message leaks
 *   2  TSO violation detected
 *   3  deadlock / hang / message leak / cycle cap
 *   4  internal panic
 *   64 usage error
 */

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "obs/perfetto.hh"
#include "sim/log.hh"
#include "sim/parse.hh"
#include "snapshot/system_state.hh"
#include "system/crash_report.hh"
#include "system/report.hh"
#include "system/system.hh"
#include "trace/trace_recorder.hh"
#include "trace/trace_workload.hh"
#include "workload/benchmarks.hh"
#include "workload/litmus.hh"

namespace
{

using namespace wb;

void
usage()
{
    std::printf(
        "usage: wbsim [options]\n"
        "  --workload NAME   benchmark profile (see --list), a\n"
        "                    litmus (table1, table3, sb, sb-fence,\n"
        "                    lb, iriw, corr), or trace=FILE to\n"
        "                    replay a recorded .wbt trace\n"
        "                    (docs/TRACES.md)\n"
        "  --mode M          in-order | ooo-safe | ooo-wb |\n"
        "                    ooo-unsafe          (default ooo-wb)\n"
        "  --class C         SLM | NHM | HSW     (default SLM)\n"
        "  --cores N         number of cores     (default 16)\n"
        "  --shards N        run the mesh as N barrier-synced\n"
        "                    shards on N host threads; reports are\n"
        "                    byte-identical for every N (docs/\n"
        "                    PARALLEL.md). Incompatible with the\n"
        "                    fault/flight-recorder/checkpoint/\n"
        "                    trace layers  (default 1)\n"
        "  --scale F         workload scale      (default 0.5)\n"
        "  --iters N         litmus iterations   (default 2000)\n"
        "  --network K       mesh | ideal        (default mesh)\n"
        "  --jitter N        ideal-net jitter    (default 10)\n"
        "  --seed N          workload seed override\n"
        "  --no-checker      disable the TSO checker (faster)\n"
        "  --non-silent      non-silent shared evictions\n"
        "  --in-order-issue  stall-on-use (EV5/ECL-style) issue\n"
        "  --ldt N           lockdown table size (default 32)\n"
        "  --trace FLAGS     comma list: core,cache,dir,net,\n"
        "                    lockdown,checker,commit\n"
        "  --faults SPEC     fault campaign, e.g.\n"
        "                    \"seed=7,delay=0.01:200,drop=0.001:2\"\n"
        "  --crash-dump FILE write a JSON crash report on any\n"
        "                    abnormal outcome (includes the flight-\n"
        "                    recorder tail when enabled)\n"
        "  --flight-recorder[=N]\n"
        "                    record the last N structured events\n"
        "                    (default 65536); adds obs.* latency\n"
        "                    histograms to stats\n"
        "  --trace-out FILE  write a Chrome/Perfetto trace-event\n"
        "                    JSON after the run (implies\n"
        "                    --flight-recorder)\n"
        "  --timeline FILE,PERIOD\n"
        "                    sample occupancy gauges every PERIOD\n"
        "                    cycles into FILE (.json => JSON,\n"
        "                    else CSV)\n"
        "  --metrics-stream FILE,PERIOD\n"
        "                    stream NDJSON metric snapshots every\n"
        "                    PERIOD cycles to FILE (or fd:N for an\n"
        "                    inherited descriptor); byte-\n"
        "                    deterministic for a given seed\n"
        "                    (docs/OBSERVABILITY.md). One sampler\n"
        "                    feeds both: given together, the two\n"
        "                    PERIODs must be equal\n"
        "  --metrics-expo FILE\n"
        "                    write a Prometheus-style text\n"
        "                    exposition of all metrics after the\n"
        "                    run\n"
        "  --checkpoint-at TICK\n"
        "                    pause at cycle TICK, write a state\n"
        "                    snapshot, then continue to completion\n"
        "  --checkpoint FILE snapshot output path (default\n"
        "                    checkpoint.wbsnap)\n"
        "  --restore FILE    restore from a snapshot: rebuild the\n"
        "                    same config+workload, replay to the\n"
        "                    snapshot tick, byte-verify every state\n"
        "                    section, then continue (docs/\n"
        "                    CHECKPOINT.md). Corrupt or mismatched\n"
        "                    snapshots exit 2; replay divergence\n"
        "                    is a panic (exit 4)\n"
        "  --record-trace FILE\n"
        "                    record the run's committed instruction\n"
        "                    streams into a .wbt trace; replayable\n"
        "                    with --workload trace=FILE and\n"
        "                    inspectable with wbtrace\n"
        "  --dump-stats      print every counter after the run\n"
        "  --json FILE       write a JSON report (- for stdout)\n"
        "  --list, --list-workloads\n"
        "                    list available workloads and exit\n"
        "exit codes: 0 ok, 2 TSO violation / corrupt snapshot or\n"
        "            trace, 3 deadlock/hang, 4 internal panic,\n"
        "            64 usage error\n");
}

/**
 * Split and validate a "FILE,PERIOD" sink spec (--timeline,
 * --metrics-stream). Rejects a missing comma, an empty path, and a
 * zero/non-numeric/trailing-garbage period. @return "" on success,
 * else the complaint for a usage error (exit 64).
 */
std::string
parseSinkSpec(const std::string &flag, const std::string &v,
              std::string &path, Tick &period)
{
    const auto comma = v.rfind(',');
    if (comma == std::string::npos || comma == 0)
        return flag + " needs FILE,PERIOD";
    path = v.substr(0, comma);
    return parseCount(flag + " PERIOD", v.substr(comma + 1), period,
                      1);
}

/**
 * Probe an output sink for writability before the run so a bad path
 * is a clean usage error instead of a warning after minutes of
 * simulation. Paths are opened in append mode (created if missing,
 * existing bytes untouched); "fd:N" specs are checked with a dup
 * probe.
 */
bool
probeSinkWritable(const std::string &spec, std::string &err)
{
    if (spec.rfind("fd:", 0) == 0) {
        int fd = 0;
        err = parseCount(spec, spec.substr(3), fd);
        if (!err.empty())
            return false;
        const int d = ::dup(fd);
        if (d < 0) {
            err = spec + ": " + std::strerror(errno);
            return false;
        }
        ::close(d);
        return true;
    }
    std::FILE *f = std::fopen(spec.c_str(), "a");
    if (!f) {
        err = spec + ": " + std::strerror(errno);
        return false;
    }
    std::fclose(f);
    return true;
}

/** Enable a comma list of trace flags. @return "" or the complaint
 *  for an unknown flag (a usage error). */
std::string
enableTrace(const std::string &flags)
{
    static const std::map<std::string, LogFlag> names{
        {"core", LogFlag::Core},         {"cache", LogFlag::Cache},
        {"dir", LogFlag::Directory},     {"net", LogFlag::Network},
        {"lockdown", LogFlag::Lockdown}, {"checker", LogFlag::Checker},
        {"commit", LogFlag::Commit},
    };
    std::istringstream in(flags);
    for (std::string f; std::getline(in, f, ',');) {
        const auto it = names.find(f);
        if (it == names.end())
            return "--trace: unknown trace flag '" + f + "'";
        Trace::enable(it->second);
    }
    return "";
}

void
listWorkloads()
{
    std::printf("%-14s %-9s %s\n", "name", "source", "notes");
    for (const auto &n : splashNames())
        std::printf("%-14s %-9s %s\n", n.c_str(), "builtin",
                    "SPLASH-3 profile");
    for (const auto &n : parsecNames())
        std::printf("%-14s %-9s %s\n", n.c_str(), "builtin",
                    "PARSEC 3.0 profile");
    for (const LitmusEntry &l : litmusCatalog())
        std::printf("%-14s %-9s %s\n", l.cliName, "litmus", l.note);
    std::printf("%-14s %-9s %s\n", "trace=FILE", "trace",
                "replay a recorded .wbt trace (docs/TRACES.md)");
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace wb;

    std::string workload = "ocean_ncp";
    CommitMode mode = CommitMode::OooWB;
    CoreClass cls = CoreClass::SLM;
    // Machine flags land in cfg directly; the core preset (--class,
    // --mode, --ldt, --in-order-issue) is applied once all are read.
    SystemConfig cfg;
    cfg.ideal.jitter = 10;
    bool cores_set = false;
    double scale = 0.5;
    int iters = 2000;
    std::uint64_t seed = 0;
    bool in_order_issue = false;
    int ldt = 32;
    bool dump_stats = false;
    std::string json_path;
    std::string faults_spec;
    std::string crash_dump;
    std::string trace_out;
    std::string timeline_path;
    std::string metrics_stream;
    std::string metrics_expo;
    Tick checkpoint_at = 0;
    std::string checkpoint_path = "checkpoint.wbsnap";
    std::string restore_path;
    std::string record_trace;

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
        const std::string flag = a.substr(0, a.find('='));
        auto value = [&] { return a.substr(flag.size() + 1); };
        auto check = [](const std::string &bad) {
            if (!bad.empty()) {
                std::fprintf(stderr, "%s\n", bad.c_str());
                std::exit(64);
            }
        };
        auto count = [&](const std::string &v, auto &field,
                         std::uint64_t lo = 0) {
            check(parseCount(flag, v, field, lo));
        };
        auto known = [&](bool ok) {
            check(ok ? "" : a + ": unknown value '" + argv[i] + "'");
        };
        if (a == "--workload")
            workload = next();
        else if (a == "--mode")
            known(parseCommitMode(next(), mode));
        else if (a == "--class")
            known(parseCoreClass(next(), cls));
        else if (a == "--cores") {
            count(next(), cfg.numCores);
            cores_set = true;
        } else if (a == "--scale")
            check(parseReal(flag, next(), 0,
                            std::numeric_limits<double>::max(),
                            scale));
        else if (a == "--iters")
            check(parseCount(flag, next(), iters, 1, 100'000'000));
        else if (a == "--shards")
            count(next(), cfg.shards);
        else if (a == "--network")
            known(parseNetworkKind(next(), cfg.network));
        else if (a == "--jitter")
            count(next(), cfg.ideal.jitter);
        else if (a == "--seed")
            count(next(), seed);
        else if (a == "--no-checker")
            cfg.checker = false;
        else if (a == "--non-silent")
            cfg.mem.silentSharedEvictions = false;
        else if (a == "--in-order-issue")
            in_order_issue = true;
        else if (a == "--ldt")
            check(parseCount(flag, next(), ldt, 1, 1 << 20));
        else if (a == "--trace")
            check(enableTrace(next()));
        else if (a == "--faults")
            faults_spec = next();
        else if (a == "--crash-dump")
            crash_dump = next();
        else if (a == "--dump-stats")
            dump_stats = true;
        else if (a == "--flight-recorder")
            cfg.obs.flightRecorder = 65536;
        else if (flag == "--flight-recorder")
            count(value(), cfg.obs.flightRecorder, 1);
        else if (a == "--trace-out")
            trace_out = next();
        else if (flag == "--timeline" || flag == "--metrics-stream") {
            // One sampler feeds both, so they share its period.
            Tick period = 0;
            check(parseSinkSpec(flag, a == flag ? next() : value(),
                                flag == "--timeline" ? timeline_path
                                                     : metrics_stream,
                                period));
            check(cfg.obs.metricsPeriod && period != cfg.obs.metricsPeriod
                      ? "--timeline and --metrics-stream need the "
                        "same PERIOD (one sampler per run)"
                      : "");
            cfg.obs.metricsPeriod = period;
        }
        else if (a == "--metrics-expo")
            metrics_expo = next();
        else if (flag == "--checkpoint-at")
            count(a == flag ? next() : value(), checkpoint_at, 1);
        else if (a == "--checkpoint")
            checkpoint_path = next();
        else if (a == "--restore")
            restore_path = next();
        else if (a == "--record-trace")
            record_trace = next();
        else if (a == "--json")
            json_path = next();
        else if (a == "--list" || a == "--list-workloads") {
            listWorkloads();
            return 0;
        } else {
            usage();
            return a == "--help" || a == "-h" ? 0 : 64;
        }
    }

    // Corrupt or mismatched input files (trace, snapshot) exit 2,
    // with a crash report when --crash-dump asks for one.
    auto badInput = [&](const char *what, const char *kind,
                        const std::string &detail,
                        System *sys = nullptr) {
        std::fprintf(stderr, "%s failed: %s\n", what, detail.c_str());
        if (!crash_dump.empty()) {
            std::ofstream dump(crash_dump);
            if (dump && sys)
                writeCrashReport(dump, *sys, kind, detail);
            else if (dump)
                writeLoadFailureReport(dump, kind, detail);
        }
        return 2;
    };

    // Build the workload. Trace provenance (source tag + generation
    // seed) rides along so --record-trace writes faithful metadata —
    // and a replayed trace re-records byte-identically.
    Workload wl;
    LitmusKind lk{};
    TraceFile replay_trace;
    const bool is_trace = workload.rfind("trace=", 0) == 0;
    const bool is_litmus =
        !is_trace && parseLitmusKind(workload, lk);
    std::string wl_source;
    std::uint64_t wl_seed = 0;
    if (is_trace) {
        // Load + validate before anything else: hostile or damaged
        // input is rejected up front (exit 2), and no partially
        // decoded workload ever reaches the System.
        const std::string path = workload.substr(6);
        try {
            replay_trace = TraceFile::load(path);
        } catch (const TraceError &e) {
            return badInput("trace load", "trace-corrupt", e.what());
        }
        wl = traceWorkload(replay_trace);
        wl_source = replay_trace.source;
        wl_seed = replay_trace.seed;
        // Cross-check the recorded origin fingerprint against the
        // embedded static sections: catches a trace recorded by an
        // incompatible build whose fingerprint encoding differs.
        Workload origin = wl;
        origin.traceFingerprint = 0;
        if (workloadFingerprint(origin) != replay_trace.workloadFp)
            return badInput("trace load", "trace-mismatch",
                            "trace header fingerprint does not match "
                            "the embedded programs — recorded by an "
                            "incompatible build");
        if (!cores_set)
            cfg.numCores = int(replay_trace.threads.size());
    } else if (is_litmus) {
        wl = makeLitmus(lk, iters);
        wl_source = "litmus";
        if (!cores_set)
            cfg.numCores = 4;
    } else if (std::count(benchmarkNames().begin(),
                          benchmarkNames().end(), workload) == 0) {
        std::fprintf(stderr, "unknown workload '%s' (see --list)\n",
                     workload.c_str());
        return 64;
    }

    cfg.core = makeCoreConfig(cls);
    cfg.core.ldtSize = ldt;
    cfg.core.inOrderIssue = in_order_issue;
    cfg.setMode(mode);
    if (!faults_spec.empty()) {
        std::string err;
        if (!parseFaultSpec(faults_spec, cfg.faults, err)) {
            std::fprintf(stderr, "bad --faults spec: %s\n",
                         err.c_str());
            return 64;
        }
    }
    if (!trace_out.empty() && cfg.obs.flightRecorder == 0)
        cfg.obs.flightRecorder = 65536;
    if (!metrics_expo.empty())
        cfg.obs.metrics = true; // registry without a stream

    const std::string bad = cfg.validate();
    if (!bad.empty()) {
        std::fprintf(stderr, "invalid config: %s\n", bad.c_str());
        return 64;
    }
    // Sharded runs also rule out the driver features that snapshot,
    // record or trace mid-run (docs/PARALLEL.md); the SystemConfig
    // layers are checked by validate() above.
    if (cfg.shards > 1) {
        const struct
        {
            bool set;
            const char *flag;
        } incompatible[] = {
            {checkpoint_at != 0, "--checkpoint-at"},
            {!restore_path.empty(), "--restore"},
            {!record_trace.empty(), "--record-trace"},
            {Trace::anyEnabled(), "--trace"},
        };
        for (const auto &inc : incompatible) {
            if (inc.set) {
                std::fprintf(stderr,
                             "%s is incompatible with --shards > 1 "
                             "(docs/PARALLEL.md)\n",
                             inc.flag);
                return 64;
            }
        }
    }

    if (!is_trace && !is_litmus) {
        SyntheticParams p = benchmarkProfile(workload, scale);
        if (seed)
            p.seed = seed;
        wl = makeSynthetic(p, cfg.numCores);
        wl_source = "builtin";
        wl_seed = p.seed;
    }
    if (int(wl.threads.size()) > cfg.numCores) {
        std::fprintf(stderr,
                     "workload %s has %zu threads but --cores is %d\n",
                     workload.c_str(), wl.threads.size(),
                     cfg.numCores);
        return 64;
    }

    // Reject unwritable sinks before burning simulation time.
    for (const std::string &sink :
         {timeline_path, metrics_stream, metrics_expo}) {
        std::string err;
        if (!sink.empty() && !probeSinkWritable(sink, err)) {
            std::fprintf(stderr, "cannot write %s\n", err.c_str());
            return 64;
        }
    }

    std::printf("workload: %s\nconfig:   %s\n", wl.name.c_str(),
                describeConfig(cfg).c_str());
    if (cfg.faults.enabled())
        std::printf("faults:   %s\n", cfg.faults.spec().c_str());

    System sys(cfg, wl);

    if (!metrics_stream.empty()) {
        std::string err;
        if (!sys.metricsStream()->openFile(metrics_stream, err)) {
            std::fprintf(stderr, "cannot write %s\n", err.c_str());
            return 64;
        }
    }

    std::vector<MetricsSummary> timeline;
    if (!timeline_path.empty())
        sys.metricsStream()->setCallback(
            sys.metricsStream()->timelineSink(timeline));

    const std::uint64_t wl_fp = workloadFingerprint(wl);

    // Hook every core's commit stage before the first cycle so the
    // recorded streams are complete.
    std::unique_ptr<TraceRecorder> trace_rec;
    if (!record_trace.empty()) {
        trace_rec = std::make_unique<TraceRecorder>(wl, wl_source,
                                                    wl_seed);
        trace_rec->attach(sys);
    }

    // Load and sanity-check the restore witness before the run so
    // hostile or mismatched input is rejected up front (exit 2).
    SnapshotFile restore_snap;
    if (!restore_path.empty()) {
        try {
            restore_snap = SnapshotFile::load(restore_path);
        } catch (const SnapshotError &e) {
            return badInput("restore", "snapshot-corrupt", e.what(),
                            &sys);
        }
        // Compare against the System's own config copy: the
        // constructor normalises derived fields (bank count, mesh
        // shape), and the snapshot records the normalised form.
        if (restore_snap.configFingerprint !=
                configFingerprint(sys.config()) ||
            restore_snap.workloadFingerprint != wl_fp)
            return badInput("restore", "snapshot-mismatch",
                            "snapshot was taken under a different "
                            "config or workload (fingerprint "
                            "mismatch) — pass the same command-line "
                            "options as the checkpointing run",
                            &sys);
        if (checkpoint_at && checkpoint_at <= restore_snap.tick) {
            std::fprintf(stderr, "--checkpoint-at must be later "
                                 "than the restored tick\n");
            return 64;
        }
    }

    // Drive the run: optional verified replay to the restore tick,
    // optional pause to write a checkpoint, then to completion.
    // Runs inside runClassified() so replay divergence is
    // classified (and crash-dumped) like any other panic.
    auto drive = [&]() -> SimResults {
        bool live = true;
        if (!restore_path.empty()) {
            live = sys.runToCycle(restore_snap.tick);
            if (sys.cycle() != restore_snap.tick)
                panic("restore: replay ended at cycle %llu before "
                      "the snapshot tick %llu — the snapshot does "
                      "not describe this build/config",
                      static_cast<unsigned long long>(sys.cycle()),
                      static_cast<unsigned long long>(
                          restore_snap.tick));
            const auto bad =
                verifySnapshot(sys, wl_fp, restore_snap);
            if (!bad.empty()) {
                std::string list;
                for (const auto &s : bad) {
                    if (!list.empty())
                        list += ", ";
                    list += s;
                }
                panic("restore: replayed state diverges from the "
                      "snapshot witness at tick %llu in: %s",
                      static_cast<unsigned long long>(
                          restore_snap.tick),
                      list.c_str());
            }
            std::fprintf(stderr,
                         "restore: state verified at cycle %llu "
                         "(%zu sections), continuing\n",
                         static_cast<unsigned long long>(
                             sys.cycle()),
                         restore_snap.sections.size());
        }
        if (live && checkpoint_at > sys.cycle()) {
            live = sys.runToCycle(checkpoint_at);
            if (live) {
                SnapshotFile snap = buildSnapshot(sys, wl_fp);
                snap.save(checkpoint_path);
                std::fprintf(
                    stderr,
                    "checkpoint written to %s at cycle %llu "
                    "(%zu sections)\n",
                    checkpoint_path.c_str(),
                    static_cast<unsigned long long>(sys.cycle()),
                    snap.sections.size());
            } else {
                std::fprintf(
                    stderr,
                    "warning: run ended at cycle %llu before "
                    "--checkpoint-at %llu; no snapshot written\n",
                    static_cast<unsigned long long>(sys.cycle()),
                    static_cast<unsigned long long>(
                        checkpoint_at));
            }
        }
        if (live)
            sys.runToCycle(cfg.maxCycles);
        return sys.finishRun();
    };

    const ClassifiedRun cr = runClassified(sys, drive, crash_dump);
    const SimResults &r = cr.results;

    std::printf("\n%-24s %llu\n", "cycles",
                static_cast<unsigned long long>(r.cycles));
    std::printf("%-24s %llu\n", "instructions",
                static_cast<unsigned long long>(r.instructions));
    std::printf("%-24s %.3f\n", "ipc (whole machine)",
                r.cycles ? double(r.instructions) /
                               double(r.cycles)
                         : 0.0);
    std::printf("%-24s %llu / %llu / %llu\n",
                "loads/stores/atomics",
                static_cast<unsigned long long>(r.loads),
                static_cast<unsigned long long>(r.stores),
                static_cast<unsigned long long>(r.atomics));
    std::printf("%-24s %llu (%.3f per kilo-store)\n",
                "writersblock delays",
                static_cast<unsigned long long>(r.wbEntries),
                r.wbPerKiloStore());
    std::printf("%-24s %llu (%.3f per kilo-load)\n",
                "uncacheable reads",
                static_cast<unsigned long long>(
                    r.uncacheableReads),
                r.uncReadsPerKiloLoad());
    std::printf("%-24s %llu set / %llu seen / %llu exported\n",
                "lockdowns",
                static_cast<unsigned long long>(r.lockdownsSet),
                static_cast<unsigned long long>(r.lockdownsSeen),
                static_cast<unsigned long long>(r.ldtExports));
    std::printf("%-24s %llu branch / %llu dspec / %llu inv\n",
                "squashes",
                static_cast<unsigned long long>(r.squashBranch),
                static_cast<unsigned long long>(r.squashDspec),
                static_cast<unsigned long long>(r.squashInv));
    std::printf("%-24s rob %llu / lq %llu / sq %llu / other %llu\n",
                "stall cycles",
                static_cast<unsigned long long>(r.stallRob),
                static_cast<unsigned long long>(r.stallLq),
                static_cast<unsigned long long>(r.stallSq),
                static_cast<unsigned long long>(r.stallOther));
    std::printf("%-24s %llu msgs, %llu flit-hops\n", "network",
                static_cast<unsigned long long>(r.messages),
                static_cast<unsigned long long>(r.flitHops));
    if (cfg.faults.enabled())
        std::printf("%-24s %llu dropped / %llu duplicated / "
                    "%llu delayed\n",
                    "faults injected",
                    static_cast<unsigned long long>(
                        r.faultsDropped),
                    static_cast<unsigned long long>(
                        r.faultsDuplicated),
                    static_cast<unsigned long long>(
                        r.faultsDelayed));
    std::printf("%-24s %s%s%s\n", "status", cr.verdict.c_str(),
                cr.detail.empty() ? "" : ": ",
                cr.detail.c_str());
    if (cfg.checker)
        std::printf("%-24s %s (%zu violations)\n", "tso checker",
                    r.tsoViolations == 0 ? "clean" : "VIOLATED",
                    r.tsoViolations);

    if (is_litmus) {
        std::printf("\nlitmus outcomes {first,second}:\n");
        for (const auto &[pair, count] : countOutcomes(
                 [&sys](Addr a) { return sys.peekCoherent(a); },
                 iters))
            std::printf("  {%llu,%llu} x %d%s\n",
                        static_cast<unsigned long long>(pair.first),
                        static_cast<unsigned long long>(
                            pair.second),
                        count,
                        pair.first == 1 && pair.second == 0
                            ? "  <-- ILLEGAL"
                            : "");
    }

    if (dump_stats) {
        std::printf("\n-- all counters --\n");
        sys.stats().dump(std::cout);
    }
    // File sinks written after the run: a path that cannot be opened
    // is reported and skipped.
    auto writeTo = [](const std::string &path, const auto &write) {
        if (path.empty())
            return;
        std::ofstream f(path);
        if (!f)
            std::fprintf(stderr, "cannot open %s\n", path.c_str());
        else
            write(f);
    };
    if (json_path == "-")
        writeJsonReport(std::cout, wl.name, cfg, r, &sys.stats());
    else
        writeTo(json_path, [&](std::ostream &os) {
            writeJsonReport(os, wl.name, cfg, r, &sys.stats());
        });
    if (trace_rec) {
        const TraceFile t = trace_rec->finalize();
        try {
            t.save(record_trace);
            std::printf("trace written to %s (%llu records, "
                        "%zu threads)\n",
                        record_trace.c_str(),
                        static_cast<unsigned long long>(
                            t.recordCount()),
                        t.threads.size());
        } catch (const TraceError &e) {
            std::fprintf(stderr, "could not write trace: %s\n",
                         e.what());
        }
    }
    writeTo(trace_out, [&](std::ostream &os) {
        writePerfettoTrace(os, *sys.flightRecorder(), cfg.numCores,
                           cfg.numCores, timeline);
        std::printf("trace written to %s (open in ui.perfetto.dev or "
                    "chrome://tracing)\n",
                    trace_out.c_str());
    });
    writeTo(timeline_path, [&](std::ostream &os) {
        if (timeline_path.ends_with(".json"))
            writeTimelineJson(os, cfg.obs.metricsPeriod, timeline);
        else
            writeTimelineCsv(os, timeline);
        std::printf("timeline written to %s (%zu samples)\n",
                    timeline_path.c_str(), timeline.size());
    });
    if (!metrics_stream.empty())
        std::printf("metrics stream written to %s (%llu lines)\n",
                    metrics_stream.c_str(),
                    static_cast<unsigned long long>(
                        sys.metricsStream()->linesEmitted()));
    writeTo(metrics_expo, [&](std::ostream &os) {
        sys.metrics()->writeExposition(os);
        std::printf("metrics exposition written to %s\n",
                    metrics_expo.c_str());
    });
    if (!crash_dump.empty() && cr.outcome != RunOutcome::Ok) {
        if (cr.crashDumpWritten)
            std::fprintf(stderr, "crash report written to %s\n",
                         crash_dump.c_str());
        else
            std::fprintf(stderr, "warning: could not write crash "
                         "report to %s\n", crash_dump.c_str());
    }
    return cr.exitCode();
}
