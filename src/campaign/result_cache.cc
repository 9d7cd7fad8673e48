#include "campaign/result_cache.hh"

#include <cstdio>
#include <filesystem>
#include <functional>
#include <thread>
#include <vector>

#include <unistd.h>

#include "campaign/job_codec.hh"
#include "snapshot/system_state.hh"

namespace wb
{

std::uint64_t
resultSchemaFingerprint()
{
    // Keep in sync with writeCampaignCsv(): any schema change must
    // invalidate cached entries, and hashing the header text does
    // that without a hand-maintained version number.
    static const char header[] =
        "index,workload,mode,class,variant,mix,seedIndex,seed,"
        "faultSeed,verdict,exitCode,attempts,completed,cycles,"
        "instructions,loads,stores,atomics,wbEntries,"
        "uncacheableReads,messages,leakedMessages,faultsDropped,"
        "faultsDuplicated,faultsDelayed,tsoViolations,"
        "retransmits,recoveredMessages,arqReissues,dedupHits,"
        "equivalence";
    return fnv1a64(header, sizeof(header) - 1);
}

ResultCache::ResultCache(std::string dir, bool durable)
    : _dir(std::move(dir)), _durable(durable)
{}

std::string
ResultCache::keyString(const CampaignSpec &spec, const JobSpec &job,
                       bool verify_equivalence)
{
    const SystemConfig cfg = spec.configFor(job);
    const Workload wl = spec.workloadFor(job);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "cfg=%016llx wl=%016llx eq=%d schema=%016llx",
                  static_cast<unsigned long long>(
                      configFingerprint(cfg)),
                  static_cast<unsigned long long>(
                      workloadFingerprint(wl)),
                  verify_equivalence ? 1 : 0,
                  static_cast<unsigned long long>(
                      resultSchemaFingerprint()));
    return buf;
}

std::string
ResultCache::entryPath(const std::string &key) const
{
    char name[32];
    std::snprintf(name, sizeof(name), "%016llx.wbjob",
                  static_cast<unsigned long long>(fnv1a64(key)));
    return _dir + "/" + name;
}

bool
ResultCache::lookup(const std::string &key, JobResult &out) const
{
    std::FILE *f = std::fopen(entryPath(key).c_str(), "rb");
    if (!f)
        return false;
    std::vector<unsigned char> data;
    unsigned char chunk[65536];
    std::size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
        data.insert(data.end(), chunk, chunk + n);
    std::fclose(f);

    try {
        ByteReader r(data.data(), data.size());
        if (r.u64() != magic || r.u32() != version)
            return false;
        if (r.str() != key) // hash collision or stale layout
            return false;
        const std::uint64_t len = r.u64();
        const std::uint64_t sum = r.u64();
        if (len != r.remaining())
            return false;
        std::vector<unsigned char> body(static_cast<std::size_t>(len));
        r.bytes(body.data(), body.size());
        if (fnv1a64(body.data(), body.size()) != sum)
            return false;
        ByteReader br(body.data(), body.size());
        out = decodeJobResult(br);
        return true;
    } catch (const ByteCodecError &) {
        return false; // corrupt entry = miss
    }
}

void
ResultCache::store(const std::string &key,
                   const JobResult &res) const
{
    std::error_code ec;
    std::filesystem::create_directories(_dir, ec);
    if (ec)
        return;

    ByteWriter payload;
    encodeJobResult(payload, res);
    const auto &body = payload.buffer();

    ByteWriter w;
    w.u64(magic);
    w.u32(version);
    w.str(key);
    w.u64(body.size());
    w.u64(fnv1a64(body.data(), body.size()));
    w.bytes(body.data(), body.size());
    const auto buf = w.take();

    const std::string path = entryPath(key);
    // The tmp name must be unique per *process* too, not just per
    // thread: campaign worker processes share the cache directory,
    // and the main threads of forked siblings can hash identically.
    // Racing writers then each build a private tmp file and the
    // rename stays atomic — the entry is always one writer's
    // complete bytes.
    const std::string tmp =
        path + ".tmp." + std::to_string(std::uint64_t(::getpid())) +
        "." +
        std::to_string(std::uint64_t(
            std::hash<std::thread::id>{}(
                std::this_thread::get_id())));
    replaceFile(path, tmp, buf, _durable);
}

void
ResultCache::clear() const
{
    std::error_code ec;
    for (const auto &e : std::filesystem::directory_iterator(_dir, ec))
        if (e.path().filename().string().find(".wbjob") !=
            std::string::npos)
            std::filesystem::remove(e.path(), ec);
}

} // namespace wb
