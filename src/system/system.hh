/**
 * @file
 * Whole-system model: N nodes, each hosting a core + private caches
 * + one LLC bank slice, connected by a 2D mesh (or an ideal jittered
 * network for stress testing). This is the library's main entry
 * point: build a SystemConfig and a Workload, construct a System,
 * call run().
 */

#ifndef WB_SYSTEM_SYSTEM_HH
#define WB_SYSTEM_SYSTEM_HH

#include <array>
#include <atomic>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "checker/checker_tap.hh"
#include "checker/tso_checker.hh"
#include "coherence/config.hh"
#include "coherence/l1_controller.hh"
#include "coherence/llc_bank.hh"
#include "coherence/main_memory.hh"
#include "core/core.hh"
#include "isa/program.hh"
#include "network/ideal.hh"
#include "network/mesh.hh"
#include "obs/flight_recorder.hh"
#include "obs/metrics.hh"
#include "recovery/recovery.hh"
#include "sim/event_queue.hh"
#include "sim/fault.hh"
#include "sim/stats.hh"

namespace wb
{

/** Interconnect selection. */
enum class NetworkKind
{
    Mesh,  //!< 2D mesh sized to the core count, Table 6 parameters
    Ideal, //!< fixed latency + random jitter (adversarial tests)
};

/** Parse "mesh" | "ideal". @return false on any other name. */
bool parseNetworkKind(const std::string &s, NetworkKind &out);

struct SystemConfig
{
    int numCores = 16; //!< 1..LLCBank::maxCores
    CoreConfig core;
    MemSystemConfig mem;
    NetworkKind network = NetworkKind::Mesh;
    /** Mesh latencies and contention model. Its width and height
     *  are derived: System fits them to numCores (MeshConfig::fit),
     *  whatever they are set to here. */
    MeshConfig mesh;
    IdealNetworkConfig ideal;
    bool checker = true;         //!< attach the dynamic TSO checker
    /**
     * Host threads to shard the simulation across (conservative
     * PDES; docs/PARALLEL.md). The system is partitioned by tile
     * (core + L1 + LLC bank); shards advance in barrier-synced
     * epochs bounded by the network's minimum cross-node latency.
     * Results are byte-identical for every value. Values > 1
     * require the fault/recovery layers and the flight recorder to
     * be off (validate()).
     */
    int shards = 1;
    Tick maxCycles = 100'000'000;
    Tick watchdogCycles = 200'000; //!< no commit anywhere => deadlock
    std::uint64_t maxInstructionsPerCore = 0; //!< 0 = run to Halt

    /** Network fault campaign; inactive unless faults.enabled(). */
    FaultConfig faults{};

    /** Message-loss recovery layer (endpoint ARQ + transport
     *  retransmission + duplicate-safe sinks); off by default so
     *  fault runs keep their fail-fast classification. */
    RecoveryConfig recovery{};

    /** Observability layer (flight recorder + metrics sampler);
     *  off by default — disabled runs take one extra null test per
     *  hook. */
    ObsConfig obs{};

    // Per-transaction watchdog (escalates warn -> dump -> verdict).
    Tick txnWarnCycles = 120'000;     //!< stderr warning + dump
    Tick txnDeadlockCycles = 400'000; //!< deadlock verdict
    Tick watchdogPollCycles = 2'048;  //!< age-scan interval
    /** Post-completion budget for in-flight traffic / writebacks to
     *  settle before the message-leak and MSHR-empty checks. */
    Tick teardownDrainCycles = 100'000;

    /** Convenience: make the core/protocol flavours consistent. */
    void
    setMode(CommitMode mode)
    {
        core.commitMode = mode;
        core.lockdown = mode == CommitMode::OooWB;
        mem.writersBlock = core.lockdown;
    }

    /**
     * Every rule a runnable config must satisfy; System, wbsim and
     * the campaign manifest all check configs here and nowhere
     * else. @return "" when valid, otherwise a message naming the
     * offending setting.
     */
    std::string validate() const;
};

/** Aggregated results of one simulation. */
struct SimResults
{
    bool completed = false;  //!< every thread halted
    bool deadlocked = false; //!< a hang detector fired
    /** Which detector fired: "" | "commit-watchdog" |
     *  "transaction-timeout" | "message-leak" | "teardown-leak". */
    std::string deadlockReason;
    Tick cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t atomics = 0;

    // network
    std::uint64_t flitHops = 0;
    std::uint64_t messages = 0;
    std::uint64_t leakedMessages = 0; //!< undelivered at end of run

    // fault campaign
    std::uint64_t faultsDropped = 0;
    std::uint64_t faultsDuplicated = 0;
    std::uint64_t faultsDelayed = 0;

    // recovery layer (all zero when recovery is disabled, except the
    // delivery-order statistics, which are always collected)
    bool recoveryEnabled = false;
    std::uint64_t retransmits = 0;    //!< transport re-sends of drops
    std::uint64_t recoveredMessages = 0; //!< drops delivered/retired
    std::uint64_t arqReissues = 0;    //!< L1 request re-issues
    std::uint64_t arqRecovered = 0;   //!< transactions completed
                                      //!< after >= 1 re-issue
    std::uint64_t dedupHits = 0;      //!< duplicate deliveries eaten
    std::uint64_t orphansAbsorbed = 0; //!< replayed grants absorbed
    std::array<std::uint64_t, 3> dupDelivered{}; //!< per vnet
    std::array<std::uint64_t, 3> oooDelivered{}; //!< per vnet

    // WritersBlock / protocol events
    std::uint64_t wbEntries = 0;      //!< directory WritersBlocks
    std::uint64_t wbEncounters = 0;   //!< writes deferred at a WB
    std::uint64_t uncacheableReads = 0;
    std::uint64_t nacksSent = 0;
    std::uint64_t ackReleases = 0;
    std::uint64_t lockdownsSet = 0;
    std::uint64_t lockdownsSeen = 0;
    std::uint64_t ldtExports = 0;
    std::uint64_t oooCommits = 0;

    // squashes
    std::uint64_t squashBranch = 0;
    std::uint64_t squashDspec = 0;
    std::uint64_t squashInv = 0;

    // stall breakdown (summed over cores, in core-cycles)
    std::uint64_t stallRob = 0;
    std::uint64_t stallLq = 0;
    std::uint64_t stallSq = 0;
    std::uint64_t stallOther = 0;
    std::uint64_t coreCycles = 0;

    std::size_t tsoViolations = 0;

    double
    wbPerKiloStore() const
    {
        return stores ? 1000.0 * double(wbEntries) / double(stores)
                      : 0.0;
    }
    double
    uncReadsPerKiloLoad() const
    {
        return loads ? 1000.0 * double(uncacheableReads) /
                           double(loads)
                     : 0.0;
    }
};

/**
 * The full simulated machine.
 *
 * Thread-safety: a System is entirely self-contained — event queue,
 * stat registry, RNGs, fault injector and checker are all owned by
 * the instance, and the only process-global mutable state in the
 * simulator is the atomic trace mask (sim/log.hh). Concurrent
 * System instances on different threads are therefore data-race
 * free (the campaign runner relies on this); a single instance is
 * NOT internally synchronised and must be driven from one thread.
 */
class System
{
  public:
    System(const SystemConfig &cfg, const Workload &workload);
    ~System();

    /** Run to completion (or watchdog / cycle cap) and summarise.
     *  Equivalent to runToCycle(maxCycles) + finishRun(). */
    SimResults run();

    /**
     * Run until cycle @p target, pausing there if the simulation is
     * still live. Callable repeatedly; a pause only parks the
     * shards (runEpoch) and watchdog state carries over, so a
     * paused-and-resumed run steps through exactly the same states
     * as an uninterrupted one (docs/CHECKPOINT.md).
     *
     * @return true when paused at @p target with more to run;
     *         false when the run ended (all threads halted, a
     *         watchdog fired, or the cycle cap was reached) —
     *         call finishRun() then.
     */
    bool runToCycle(Tick target);

    /** Teardown drain + final classification and summary for a run
     *  driven by runToCycle(). run() == runToCycle(cap) + this. */
    SimResults finishRun();

    /** Advance exactly @p n cycles (for tests). */
    void step(Tick n = 1);

    /** @return true once every thread halted and drained. */
    bool allDone() const;

    // component access for tests and tools

    /** The primary (shard 0) event queue. With shards == 1 this is
     *  the queue driving the whole simulation. */
    EventQueue &eventQueue() { return _shards[0]->eq; }

    /** Events executed across every shard queue (invariant across
     *  shard counts for a given workload). */
    std::uint64_t eventsExecuted() const;

    /** Barrier-synced epoch length (the network lookahead). */
    Tick epochLength() const { return _epochLen; }
    StatRegistry &stats() { return _stats; }
    MainMemory &memory() { return _memory; }
    TsoChecker *checker() { return _checker.get(); }
    Core &core(int i) { return *_cores[std::size_t(i)]; }
    L1Controller &l1(int i) { return *_l1s[std::size_t(i)]; }
    LLCBank &llc(int i) { return *_llcs[std::size_t(i)]; }
    Network &network() { return *_net; }
    const Network &network() const { return *_net; }
    int numCores() const { return _cfg.numCores; }
    Tick cycle() const { return _cycle; }
    const SystemConfig &config() const { return _cfg; }

    /** The fault oracle, nullptr when the campaign is disabled. */
    FaultInjector *faultInjector() { return _faults.get(); }
    const FaultInjector *faultInjector() const
    {
        return _faults.get();
    }

    /** The flight recorder, nullptr unless obs.flightRecorder > 0. */
    FlightRecorder *flightRecorder() { return _recorder.get(); }
    const FlightRecorder *flightRecorder() const
    {
        return _recorder.get();
    }

    /** The metrics registry, nullptr unless obs.metricsEnabled(). */
    MetricsRegistry *metrics() { return _metrics.get(); }
    const MetricsRegistry *metrics() const { return _metrics.get(); }

    /** The run's one periodic sampler, nullptr unless
     *  obs.metricsPeriod > 0. Callers attach sinks (file / callback;
     *  the timeline is a callback) before run(). */
    MetricsStreamer *metricsStream() { return _mstream.get(); }
    const MetricsStreamer *metricsStream() const
    {
        return _mstream.get();
    }

    /** Which hang detector fired ("" while none has). */
    const std::string &deadlockReason() const
    {
        return _deadlockReason;
    }

    /**
     * Cheap teardown probe: no message in flight, no L1 MSHR or
     * writeback pending, no LLC eviction/retry work queued. Used by
     * the post-completion drain loop.
     */
    bool quiescent() const;

    /**
     * Full end-of-run hygiene check: quiescent() plus no undelivered
     * (incl. dropped) ledger entries and no transient directory
     * entries. On failure @p why (if non-null) names the first
     * offender.
     */
    bool cleanTeardown(std::string *why = nullptr) const;

    /** Gather current statistics into a SimResults. */
    SimResults snapshot() const;

    /** Dump all stuck-component state (watchdog diagnostics). */
    void dumpState(std::ostream &os) const;

    /**
     * dumpState formatted into a private buffer and emitted as one
     * stdio call. Watchdog diagnostics use this instead of writing
     * std::cerr directly: iostream manipulators mutate the shared
     * stream's format flags, which is a data race when concurrent
     * System instances (e.g. a campaign) escalate at once.
     */
    void dumpStateToStderr() const;

    /**
     * Functional read of the current globally-visible value of a
     * word: prefers an exclusive/modified private copy, then the
     * LLC image, then memory. Intended for test assertions after a
     * run (values may still be cached dirty).
     */
    std::uint64_t peekCoherent(Addr addr) const;

  private:
    /** Scan per-component transaction ages and escalate
     *  (warn -> dump -> deadlock verdict). @return true on verdict. */
    bool pollTransactionAges();

    /** Oldest in-flight transaction age across all L1s and LLC
     *  banks; @p who (if non-null) names the worst component. */
    Tick oldestTxnAge(std::string *who) const;

    /** Let post-completion traffic settle, then run the leak check;
     *  sets the deadlock verdict if the machine never goes quiet. */
    void drainTeardown();

    /** Retire dropped request-vnet ledger entries whose transaction
     *  provably completed through an endpoint ARQ re-issue. */
    void reclassifyRecoveredRequests();

    /**
     * One shard: a contiguous tile range [firstTile, endTile) with
     * its own event queue, advanced by exactly one thread at a time
     * (worker thread during an epoch, barrier thread between).
     */
    struct Shard
    {
        EventQueue eq;
        int firstTile = 0;
        int endTile = 0; //!< exclusive
        Tick cycle = 0;  //!< local time, == System cycle at barriers
    };

    /** Advance one shard tick by tick to @p target (shard phase:
     *  deliveries, events, component ticks, done-onset tracking). */
    void runShardTo(Shard &sh, Tick target);

    /** Advance every shard to @p target and park them; then sample
     *  if due, and commit only on the grid or where the run @p stops,
     *  so a pause cannot move commits (and with them fault draws). */
    void runEpoch(Tick target, bool stops = false);

    /** True when @p c is a multiple of the epoch length or of the
     *  watchdog poll period: the only cycles where messages commit
     *  and completion/watchdog checks run. */
    bool onGrid(Tick c) const;

    /** Next barrier after cycle @p c: the earliest grid point or
     *  sample-period multiple. */
    Tick nextBoundary(Tick c) const;

    /** True when shard workers exist and are parked (shards > 1). */
    bool threaded() const { return !_threads.empty(); }

    /** Serial barrier phase: canonical message commit + checker-tap
     *  replay. */
    void barrierCommit();

    /** All shard queues drained (teardown idle check). */
    bool queuesEmpty() const;

    void workerLoop(std::size_t shard_index);
    void stopWorkers();

    SystemConfig _cfg;
    StatRegistry _stats;
    MainMemory _memory;
    std::unique_ptr<FlightRecorder> _recorder;
    std::unique_ptr<MetricsRegistry> _metrics;
    std::unique_ptr<MetricsStreamer> _mstream;
    std::unique_ptr<FaultInjector> _faults;
    std::unique_ptr<Network> _net;
    std::unique_ptr<TsoChecker> _checker;
    std::vector<std::unique_ptr<CheckerTap>> _taps; //!< per tile
    std::vector<std::unique_ptr<L1Controller>> _l1s;
    std::vector<std::unique_ptr<LLCBank>> _llcs;
    std::vector<std::unique_ptr<Core>> _cores;
    std::vector<Program> _programs; //!< padded to numCores

    // sharded execution engine
    std::vector<std::unique_ptr<Shard>> _shards;
    std::vector<int> _tileShard;     //!< tile -> owning shard
    Tick _epochLen = 1;              //!< network lookahead
    std::vector<std::thread> _threads; //!< workers for shards 1..S-1
    std::atomic<std::uint64_t> _epochSeq{0}; //!< release pulse
    std::atomic<std::uint32_t> _arrived{0};  //!< epoch completions
    std::atomic<bool> _shutdown{false};
    Tick _epochTarget = 0; //!< published before the release pulse
    bool _committed = true; //!< false while a pause left ring sends

    /** First cycle each core was observed done (0 = not yet); the
     *  reported completion cycle is the max onset, which equals the
     *  cycle a per-tick completion scan would have stopped at. */
    std::vector<Tick> _doneOnset;

    Tick _cycle = 0;
    bool _deadlocked = false;
    std::string _deadlockReason;
    bool _txnWarned = false;
    bool _txnDumped = false;
    std::uint64_t _lastCommits = 0;
    Tick _lastProgress = 0;
    bool _runStarted = false; //!< watchdog baselines initialised
};

/** One-line human description of a config (Table 6 style). */
std::string describeConfig(const SystemConfig &cfg);

} // namespace wb

#endif // WB_SYSTEM_SYSTEM_HH
