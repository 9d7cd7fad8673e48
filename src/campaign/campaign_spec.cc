#include "campaign/campaign_spec.hh"

#include <algorithm>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

#include "sim/log.hh"
#include "sim/parse.hh"
#include "trace/trace_workload.hh"
#include "workload/benchmarks.hh"
#include "workload/synthetic.hh"

namespace wb
{

namespace
{

/** splitmix64 step — the same generator rng.hh seeds through. */
std::uint64_t
splitmix(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
mixString(std::uint64_t h, const std::string &s)
{
    // FNV-1a over the bytes, then one splitmix pass to spread.
    for (unsigned char c : s)
        h = (h ^ c) * 0x100000001b3ULL;
    return splitmix(h);
}

} // namespace

std::uint64_t
deriveSeed(std::uint64_t base, const std::vector<std::string> &axes,
           std::uint64_t n)
{
    std::uint64_t h = base;
    h = splitmix(h);
    for (const std::string &a : axes)
        h = mixString(h, a);
    h ^= n;
    h = splitmix(h);
    // Seed 0 is legal for Rng but reserved by some callers as "use
    // the profile default"; steer clear of it.
    return h ? h : 0x9e3779b97f4a7c15ULL;
}

std::size_t
CampaignSpec::jobCount() const
{
    return workloads.size() * modes.size() * classes.size() *
           variants.size() * mixes.size() *
           std::size_t(seeds > 0 ? seeds : 0);
}

std::vector<JobSpec>
CampaignSpec::expand() const
{
    std::vector<JobSpec> jobs;
    jobs.reserve(jobCount());
    for (const std::string &wl : workloads)
        for (const CommitMode mode : modes)
            for (const CoreClass cls : classes)
                for (const std::string &variant : variants)
                    for (const CampaignMix &mix : mixes)
                        for (int s = 0; s < seeds; ++s) {
                            JobSpec j;
                            j.index = jobs.size();
                            j.workload = wl;
                            j.mode = mode;
                            j.cls = cls;
                            j.variant = variant;
                            j.mixName = mix.name;
                            j.faultSpec = mix.spec;
                            j.seedIndex = s;
                            j.seed = deriveSeed(
                                baseSeed, {wl}, std::uint64_t(s));
                            j.faultSeed = deriveSeed(
                                baseSeed,
                                {wl, commitModeName(mode),
                                 mix.name},
                                std::uint64_t(s));
                            jobs.push_back(std::move(j));
                        }
    return jobs;
}

SystemConfig
CampaignSpec::configFor(const JobSpec &job) const
{
    SystemConfig cfg;
    cfg.numCores = cores;
    cfg.core = makeCoreConfig(job.cls);
    cfg.checker = checker;
    cfg.maxCycles = maxCycles;
    cfg.network = network;
    cfg.ideal.jitter = jitter;
    if (watchdogCycles)
        cfg.watchdogCycles = watchdogCycles;
    if (txnWarnCycles)
        cfg.txnWarnCycles = txnWarnCycles;
    if (txnDeadlockCycles)
        cfg.txnDeadlockCycles = txnDeadlockCycles;
    if (watchdogPollCycles)
        cfg.watchdogPollCycles = watchdogPollCycles;
    if (teardownDrainCycles)
        cfg.teardownDrainCycles = teardownDrainCycles;
    cfg.setMode(job.mode);
    if (!job.faultSpec.empty()) {
        std::string err;
        if (!parseFaultSpec(job.faultSpec, cfg.faults, err))
            fatal("campaign mix '%s': bad fault spec: %s",
                  job.mixName.c_str(), err.c_str());
        cfg.faults.seed = job.faultSeed;
    }
    cfg.recovery = recovery;
    cfg.obs = obs;
    if (configHook)
        configHook(job, cfg);
    return cfg;
}

Workload
CampaignSpec::workloadFor(const JobSpec &job) const
{
    if (workloadFactory)
        return workloadFactory(job, *this);
    // `trace=FILE`: replay a recorded trace. A TraceError here (file
    // vanished or corrupted since validate()) propagates out of the
    // job and is classified as an infrastructure failure.
    if (job.workload.rfind("trace=", 0) == 0)
        return loadTraceWorkload(job.workload.substr(6));
    SyntheticParams p = benchmarkProfile(job.workload, scale);
    if (!useProfileSeed)
        p.seed = job.seed;
    return makeSynthetic(p, cores);
}

std::string
CampaignSpec::cellKey(const JobSpec &job) const
{
    std::string key;
    auto append = [&key](const std::string &part) {
        if (!key.empty())
            key += '/';
        key += part;
    };
    if (workloads.size() > 1)
        append(job.workload);
    append(commitModeName(job.mode));
    if (classes.size() > 1)
        append(coreClassName(job.cls));
    if (variants.size() > 1 && !job.variant.empty())
        append(job.variant);
    append(job.mixName);
    return key;
}

std::string
CampaignSpec::validate() const
{
    if (workloads.empty())
        return "no workloads";
    if (modes.empty() || classes.empty() || variants.empty() ||
        mixes.empty())
        return "an axis is empty";
    if (seeds < 1)
        return "seeds must be >= 1";
    if (maxRetries < 0)
        return "retries must be >= 0";
    if (!workloadFactory)
        for (const std::string &wl : workloads) {
            if (wl.rfind("trace=", 0) == 0) {
                // Existence check only; full validation (checksums,
                // semantic limits) happens when the job loads it.
                const std::string path = wl.substr(6);
                std::ifstream f(path, std::ios::binary);
                if (!f)
                    return "trace file '" + path +
                           "' does not exist";
                continue;
            }
            if (std::count(benchmarkNames().begin(),
                           benchmarkNames().end(), wl) == 0)
                return "unknown workload '" + wl + "'";
        }
    for (const CampaignMix &mix : mixes)
        if (!mix.spec.empty()) {
            FaultConfig fc;
            std::string err;
            if (!parseFaultSpec(mix.spec, fc, err))
                return "mix '" + mix.name + "': " + err;
        }
    // Machine rules: every (mode, class, variant, mix) cell of the
    // first workload yields the configs all workloads will run.
    for (const JobSpec &job : expand()) {
        if (job.seedIndex != 0 || job.workload != workloads.front())
            continue;
        const std::string bad = configFor(job).validate();
        if (!bad.empty())
            return bad;
    }
    return "";
}

namespace
{

std::string
trim(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

/** Split on spaces and/or commas. */
std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : s) {
        if (c == ' ' || c == '\t' || c == ',') {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

} // namespace

bool
parseCampaignSpec(std::istream &in, CampaignSpec &out,
                  std::string &err)
{
    // Directives reset the axis they set, so a manifest fully
    // describes its sweep; unset axes keep the defaults.
    bool sawMix = false;
    std::string line;
    int lineno = 0;
    auto fail = [&](const std::string &what) {
        err = "line " + std::to_string(lineno) + ": " + what;
        return false;
    };
    // Scalar keys, each parsed strictly into its field (a complaint
    // or ""); range rules live in validate() and
    // SystemConfig::validate().
    using Setter = std::function<std::string(const std::string &)>;
    std::map<std::string, Setter> scalar;
    const auto count = [&scalar](const char *key, auto &field) {
        scalar[key] = [key, &field](const std::string &v) {
            return parseCount(key, v, field);
        };
    };
    count("seeds", out.seeds);
    count("base-seed", out.baseSeed);
    count("cores", out.cores);
    count("jitter", out.jitter);
    count("max-cycles", out.maxCycles);
    count("watchdog", out.watchdogCycles);
    count("txn-warn", out.txnWarnCycles);
    count("txn-deadlock", out.txnDeadlockCycles);
    count("poll", out.watchdogPollCycles);
    count("drain", out.teardownDrainCycles);
    count("retries", out.maxRetries);
    count("retry-timeout", out.recovery.retryTimeoutCycles);
    count("retry-budget", out.recovery.retryBudget);
    count("recovery-poll", out.recovery.pollCycles);
    count("retransmit-base", out.recovery.retransmitBaseCycles);
    count("retransmit-budget", out.recovery.retransmitBudget);
    count("flight-recorder", out.obs.flightRecorder);
    Tick timeline_period = 0; // folded into obs.metricsPeriod below
    count("timeline-period", timeline_period);
    count("metrics-period", out.obs.metricsPeriod);
    const auto flag = [&scalar](const char *key, bool &field) {
        scalar[key] = [&field](const std::string &v) -> std::string {
            if (v == "on" || v == "true" || v == "1" || v == "yes")
                field = true;
            else if (v == "off" || v == "false" || v == "0" || v == "no")
                field = false;
            else
                return "bad boolean '" + v + "'";
            return "";
        };
    };
    flag("profile-seed", out.useProfileSeed);
    flag("checker", out.checker);
    flag("recovery", out.recovery.enabled);
    scalar["scale"] = [&out](const std::string &v) {
        return parseReal("scale", v, 0,
                         std::numeric_limits<double>::max(), out.scale);
    };
    while (std::getline(in, line)) {
        ++lineno;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        line = trim(line);
        if (line.empty())
            continue;

        // "mix NAME [SPEC]" directive (fault specs contain '=').
        if (line.rfind("mix ", 0) == 0 || line == "mix") {
            std::istringstream ls(line);
            std::string kw, name, spec;
            ls >> kw >> name;
            if (name.empty())
                return fail("mix needs a name");
            ls >> spec; // optional; fault specs have no spaces
            if (!sawMix) {
                out.mixes.clear();
                sawMix = true;
            }
            out.mixes.push_back({name, spec});
            continue;
        }

        const std::size_t eq = line.find('=');
        if (eq == std::string::npos)
            return fail("expected 'key = value' or 'mix NAME SPEC'");
        const std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));
        if (value.empty())
            return fail("empty value for '" + key + "'");

        if (key == "name") {
            out.name = value;
        } else if (key == "workloads") {
            out.workloads = splitList(value);
        } else if (key == "modes") {
            out.modes.clear();
            for (const std::string &m : splitList(value)) {
                CommitMode mode;
                if (!parseCommitMode(m, mode))
                    return fail("unknown mode '" + m + "'");
                out.modes.push_back(mode);
            }
        } else if (key == "classes") {
            out.classes.clear();
            for (const std::string &c : splitList(value)) {
                CoreClass cls;
                if (!parseCoreClass(c, cls))
                    return fail("unknown class '" + c + "'");
                out.classes.push_back(cls);
            }
        } else if (key == "network") {
            if (!parseNetworkKind(value, out.network))
                return fail("unknown network '" + value + "'");
        } else if (const auto it = scalar.find(key);
                   it != scalar.end()) {
            const std::string bad = it->second(value);
            if (!bad.empty())
                return fail(bad);
        } else {
            return fail("unknown key '" + key + "'");
        }
    }
    // The timeline is a projection of the one metrics sampler.
    if (timeline_period && out.obs.metricsPeriod &&
        timeline_period != out.obs.metricsPeriod) {
        err = "timeline-period and metrics-period differ (one sample "
              "period per run)";
        return false;
    }
    out.obs.metricsPeriod =
        std::max(out.obs.metricsPeriod, timeline_period);
    const std::string bad = out.validate();
    if (!bad.empty()) {
        err = bad;
        return false;
    }
    return true;
}

} // namespace wb
