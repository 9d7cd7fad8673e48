/**
 * @file
 * Campaign fixtures shared by the campaign, resume and worker-pool
 * tests.
 */

#ifndef WB_TESTS_CAMPAIGN_FIXTURES_HH
#define WB_TESTS_CAMPAIGN_FIXTURES_HH

#include <fstream>
#include <sstream>
#include <string>

#include "campaign/campaign_spec.hh"
#include "workload/synthetic.hh"

namespace wb
{

/** A small, fast campaign spec over real synthetic workloads. */
inline CampaignSpec
tinySpec()
{
    CampaignSpec spec;
    spec.name = "tiny";
    spec.workloads = {"tiny"};
    spec.modes = {CommitMode::InOrder, CommitMode::OooWB};
    spec.mixes = {{"clean", ""}, {"delay", "delay=0.05:60"}};
    spec.seeds = 2;
    spec.baseSeed = 42;
    spec.cores = 2;
    spec.network = NetworkKind::Ideal;
    spec.jitter = 4;
    spec.maxCycles = 2'000'000;
    spec.workloadFactory = [](const JobSpec &job,
                              const CampaignSpec &s) {
        SyntheticParams p;
        p.name = "tiny";
        p.iterations = 6;
        p.bodyOps = 12;
        p.privateWords = 64;
        p.sharedWords = 64;
        p.memRatio = 0.4;
        p.storeRatio = 0.3;
        p.sharedRatio = 0.3;
        p.seed = job.seed;
        return makeSynthetic(p, s.cores);
    };
    return spec;
}

/** Read a telemetry sidecar, dropping the wall-clock header key —
 *  the one field deliberately outside the determinism contract. */
inline std::string
sidecarNoWall(const std::string &path)
{
    std::ifstream f(path);
    std::stringstream ss;
    ss << f.rdbuf();
    std::string s = ss.str();
    const auto b = s.find("\"wall\":{");
    if (b != std::string::npos) {
        const auto e = s.find("},", b);
        if (e != std::string::npos)
            s.erase(b, e - b + 2);
    }
    return s;
}

} // namespace wb

#endif // WB_TESTS_CAMPAIGN_FIXTURES_HH
