/**
 * @file
 * Content-addressed campaign result cache.
 *
 * A job's result is fully determined by the SystemConfig and
 * Workload it runs (the simulator is deterministic), so the cache
 * key is the pair of those fingerprints — which transparently covers
 * every spec axis, machine parameter, fault mix, seed, and even the
 * programmatic configHook/workloadFactory escape hatches (the
 * fingerprints hash their *output*, not the spec fields) — plus the
 * result-schema fingerprint (hash of the CSV header text), so a
 * schema change invalidates every stale entry at once.
 *
 * Entries are one file per key under the cache directory, written
 * atomically (private tmp file + rename), so concurrent campaigns
 * can share a cache and a kill never leaves a torn entry. Each entry
 * echoes its full key string and checksums its body; a hash
 * collision, or an entry torn by power loss, fails those checks and
 * is treated as a miss, never as a wrong result. So the shared cache
 * skips fsync.
 *
 * A run directory's jobs/ is a run-private instance of the same
 * store, keyed "job=<index> " + keyString(): it holds every finished
 * job, which is what `wbcampaign --resume` replays
 * (campaign_runner.hh). It is durable: each store also fsyncs the
 * file before the rename and the directory after it.
 */

#ifndef WB_CAMPAIGN_RESULT_CACHE_HH
#define WB_CAMPAIGN_RESULT_CACHE_HH

#include <string>

#include "campaign/campaign_runner.hh"

namespace wb
{

/** Fingerprint of the aggregate result schema (CSV header text);
 *  part of every cache key. */
std::uint64_t resultSchemaFingerprint();

class ResultCache
{
  public:
    static constexpr std::uint64_t magic = 0x0048434257ULL;
    //!< "WBCH\0..." little-endian
    static constexpr std::uint32_t version = 1;

    /** @param dir cache directory (created on first store).
     *  @param durable fsync every store (run records). */
    explicit ResultCache(std::string dir, bool durable = false);

    /**
     * Canonical key string for one job. Builds the job's config and
     * workload to fingerprint them — throws whatever configFor/
     * workloadFor throw (callers treat that as a miss and let the
     * normal execution path classify the failure).
     */
    static std::string keyString(const CampaignSpec &spec,
                                 const JobSpec &job,
                                 bool verify_equivalence);

    /** @return true and fill @p out on a verified hit. */
    bool lookup(const std::string &key, JobResult &out) const;

    /** Store @p res under @p key (atomic, and durable if the cache
     *  is; errors are ignored — a missing entry only means the job
     *  runs again). */
    void store(const std::string &key, const JobResult &res) const;

    /** Remove every entry (and stray tmp file); other files in the
     *  directory are left alone. */
    void clear() const;

    const std::string &dir() const { return _dir; }

  private:
    std::string entryPath(const std::string &key) const;
    std::string _dir;
    bool _durable;
};

} // namespace wb

#endif // WB_CAMPAIGN_RESULT_CACHE_HH
