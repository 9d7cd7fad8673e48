#include "campaign/job_codec.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include <fcntl.h>
#include <unistd.h>

namespace wb
{

// ---------------------------------------------------------------
// JobResult codec
// ---------------------------------------------------------------

namespace
{

void
encodeSimResults(ByteWriter &w, const SimResults &r)
{
    w.b(r.completed);
    w.b(r.deadlocked);
    w.str(r.deadlockReason);
    w.u64(r.cycles);
    w.u64(r.instructions);
    w.u64(r.loads);
    w.u64(r.stores);
    w.u64(r.atomics);
    w.u64(r.flitHops);
    w.u64(r.messages);
    w.u64(r.leakedMessages);
    w.u64(r.faultsDropped);
    w.u64(r.faultsDuplicated);
    w.u64(r.faultsDelayed);
    w.b(r.recoveryEnabled);
    w.u64(r.retransmits);
    w.u64(r.recoveredMessages);
    w.u64(r.arqReissues);
    w.u64(r.arqRecovered);
    w.u64(r.dedupHits);
    w.u64(r.orphansAbsorbed);
    for (std::uint64_t v : r.dupDelivered)
        w.u64(v);
    for (std::uint64_t v : r.oooDelivered)
        w.u64(v);
    w.u64(r.wbEntries);
    w.u64(r.wbEncounters);
    w.u64(r.uncacheableReads);
    w.u64(r.nacksSent);
    w.u64(r.ackReleases);
    w.u64(r.lockdownsSet);
    w.u64(r.lockdownsSeen);
    w.u64(r.ldtExports);
    w.u64(r.oooCommits);
    w.u64(r.squashBranch);
    w.u64(r.squashDspec);
    w.u64(r.squashInv);
    w.u64(r.stallRob);
    w.u64(r.stallLq);
    w.u64(r.stallSq);
    w.u64(r.stallOther);
    w.u64(r.coreCycles);
    w.u64(r.tsoViolations);
}

SimResults
decodeSimResults(ByteReader &r)
{
    SimResults s;
    s.completed = r.b();
    s.deadlocked = r.b();
    s.deadlockReason = r.str();
    s.cycles = r.u64();
    s.instructions = r.u64();
    s.loads = r.u64();
    s.stores = r.u64();
    s.atomics = r.u64();
    s.flitHops = r.u64();
    s.messages = r.u64();
    s.leakedMessages = r.u64();
    s.faultsDropped = r.u64();
    s.faultsDuplicated = r.u64();
    s.faultsDelayed = r.u64();
    s.recoveryEnabled = r.b();
    s.retransmits = r.u64();
    s.recoveredMessages = r.u64();
    s.arqReissues = r.u64();
    s.arqRecovered = r.u64();
    s.dedupHits = r.u64();
    s.orphansAbsorbed = r.u64();
    for (std::uint64_t &v : s.dupDelivered)
        v = r.u64();
    for (std::uint64_t &v : s.oooDelivered)
        v = r.u64();
    s.wbEntries = r.u64();
    s.wbEncounters = r.u64();
    s.uncacheableReads = r.u64();
    s.nacksSent = r.u64();
    s.ackReleases = r.u64();
    s.lockdownsSet = r.u64();
    s.lockdownsSeen = r.u64();
    s.ldtExports = r.u64();
    s.oooCommits = r.u64();
    s.squashBranch = r.u64();
    s.squashDspec = r.u64();
    s.squashInv = r.u64();
    s.stallRob = r.u64();
    s.stallLq = r.u64();
    s.stallSq = r.u64();
    s.stallOther = r.u64();
    s.coreCycles = r.u64();
    s.tsoViolations = std::size_t(r.u64());
    return s;
}

void
encodeJobSpec(ByteWriter &w, const JobSpec &j)
{
    w.u64(j.index);
    w.str(j.workload);
    w.u8(std::uint8_t(j.mode));
    w.u8(std::uint8_t(j.cls));
    w.str(j.variant);
    w.str(j.mixName);
    w.str(j.faultSpec);
    w.i64(j.seedIndex);
    w.u64(j.seed);
    w.u64(j.faultSeed);
}

JobSpec
decodeJobSpec(ByteReader &r)
{
    JobSpec j;
    j.index = std::size_t(r.u64());
    j.workload = r.str();
    j.mode = CommitMode(r.u8());
    j.cls = CoreClass(r.u8());
    j.variant = r.str();
    j.mixName = r.str();
    j.faultSpec = r.str();
    j.seedIndex = int(r.i64());
    j.seed = r.u64();
    j.faultSeed = r.u64();
    return j;
}

} // namespace

void
encodeJobResult(ByteWriter &w, const JobResult &res)
{
    encodeJobSpec(w, res.spec);
    w.u8(std::uint8_t(int(res.outcome)));
    w.str(res.verdict);
    w.str(res.detail);
    encodeSimResults(w, res.results);
    w.i64(res.attempts);
    w.b(res.infraFailure);
    w.str(res.crashJson);
    w.str(res.crashReportPath);
    w.b(res.equivalenceChecked);
    w.b(res.equivalenceMatch);
    w.str(res.equivalenceDetail);
}

JobResult
decodeJobResult(ByteReader &r)
{
    JobResult res;
    res.spec = decodeJobSpec(r);
    res.outcome = RunOutcome(int(r.u8()));
    res.verdict = r.str();
    res.detail = r.str();
    res.results = decodeSimResults(r);
    res.attempts = int(r.i64());
    res.infraFailure = r.b();
    res.crashJson = r.str();
    res.crashReportPath = r.str();
    res.equivalenceChecked = r.b();
    res.equivalenceMatch = r.b();
    res.equivalenceDetail = r.str();
    return res;
}

std::uint64_t
jobListFingerprint(const std::vector<JobSpec> &jobs)
{
    ByteWriter w;
    w.u64(jobs.size());
    for (const JobSpec &j : jobs)
        encodeJobSpec(w, j);
    return w.checksum();
}

// ---------------------------------------------------------------
// Spec descriptor and worker Init
// ---------------------------------------------------------------

void
encodeSpecDescriptor(ByteWriter &w, const SpecDescriptor &d)
{
    w.str(d.specKind);
    w.str(d.specText);
    w.i64(d.seedsOverride);
    w.b(d.recovery);
    w.b(d.verifyEquivalence);
    w.b(d.checkFaults);
    w.b(d.strict);
}

SpecDescriptor
decodeSpecDescriptor(ByteReader &r)
{
    SpecDescriptor d;
    d.specKind = r.str();
    d.specText = r.str();
    d.seedsOverride = r.i64();
    d.recovery = r.b();
    d.verifyEquivalence = r.b();
    d.checkFaults = r.b();
    d.strict = r.b();
    return d;
}

void
encodeWorkerInit(ByteWriter &w, const WorkerInit &init)
{
    encodeSpecDescriptor(w, init.spec);
    w.u64(init.jobCount);
    w.u64(init.jobFingerprint);
    w.str(init.outDir);
    w.str(init.chaos);
    w.u64(init.memLimitMb);
    w.f64(init.jobTimeoutSeconds);
    w.f64(init.heartbeatSeconds);
    w.u64(init.metricsPeriod);
    w.str(init.telemetryDir);
}

WorkerInit
decodeWorkerInit(ByteReader &r)
{
    WorkerInit init;
    init.spec = decodeSpecDescriptor(r);
    init.jobCount = r.u64();
    init.jobFingerprint = r.u64();
    init.outDir = r.str();
    init.chaos = r.str();
    init.memLimitMb = r.u64();
    init.jobTimeoutSeconds = r.f64();
    init.heartbeatSeconds = r.f64();
    init.metricsPeriod = r.u64();
    init.telemetryDir = r.str();
    return init;
}

void
encodeTelemetryFrame(ByteWriter &w, const TelemetryFrame &t)
{
    w.u64(t.job);
    w.u64(t.sum.tick);
    w.u64(t.sum.instructions);
    w.u64(t.sum.stores);
    w.u64(t.sum.wbEntries);
    w.str(t.line);
}

TelemetryFrame
decodeTelemetryFrame(ByteReader &r)
{
    TelemetryFrame t;
    t.job = r.u64();
    t.sum.tick = r.u64();
    t.sum.instructions = r.u64();
    t.sum.stores = r.u64();
    t.sum.wbEntries = r.u64();
    t.line = r.str();
    return t;
}

// ---------------------------------------------------------------
// Frame and file writing
// ---------------------------------------------------------------

namespace
{

bool
writeAll(int fd, const std::vector<unsigned char> &buf)
{
    std::size_t off = 0;
    while (off < buf.size()) {
        const ssize_t n =
            ::write(fd, buf.data() + off, buf.size() - off);
        if (n > 0) {
            off += std::size_t(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        return false; // EPIPE and friends: peer is gone
    }
    return true;
}

} // namespace

std::vector<unsigned char>
frameBytes(WireType type, const unsigned char *payload,
           std::size_t len)
{
    ByteWriter w;
    w.u32(std::uint32_t(type));
    w.u64(len);
    w.u64(fnv1a64(payload, len));
    w.bytes(payload, len);
    return w.take();
}

bool
writeFrame(int fd, WireType type, const unsigned char *payload,
           std::size_t len)
{
    return writeAll(fd, frameBytes(type, payload, len));
}

bool
writeFrame(int fd, WireType type, const ByteWriter &payload)
{
    const auto &b = payload.buffer();
    return writeFrame(fd, type, b.data(), b.size());
}

bool
writeFileDurably(const std::string &path, const std::string &tmp,
                 const std::vector<unsigned char> &data)
{
    const int fd =
        ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
               0644);
    if (fd < 0)
        return false;
    const bool ok = writeAll(fd, data) && ::fsync(fd) == 0;
    ::close(fd);
    if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    // The rename is durable only once the directory entry is.
    const std::string dir =
        std::filesystem::path(path).parent_path().string();
    const int dfd = ::open(dir.empty() ? "." : dir.c_str(),
                           O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (dfd < 0)
        return false;
    const bool synced = ::fsync(dfd) == 0;
    ::close(dfd);
    return synced;
}

// ---------------------------------------------------------------
// The run directory's campaign.wbc
// ---------------------------------------------------------------

bool
writeSpecDescriptor(const std::string &dir, const SpecDescriptor &desc,
                    std::string &err)
{
    ByteWriter w;
    encodeSpecDescriptor(w, desc);
    const auto &body = w.buffer();
    const std::string path = dir + "/campaign.wbc";
    if (!writeFileDurably(path, path + ".tmp",
                          frameBytes(WireType::Descriptor, body.data(),
                                     body.size()))) {
        err = "cannot write " + path + ": " + std::strerror(errno);
        return false;
    }
    return true;
}

bool
loadSpecDescriptor(const std::string &dir, SpecDescriptor &desc,
                   std::string &err)
{
    const std::string path = dir + "/campaign.wbc";
    std::ifstream f(path, std::ios::binary);
    if (!f) {
        err = "cannot open " + path + ": " + std::strerror(errno);
        return false;
    }
    const std::vector<unsigned char> data(
        (std::istreambuf_iterator<char>(f)),
        std::istreambuf_iterator<char>());
    FrameReader reader;
    reader.append(data.data(), data.size());
    WireFrame frame;
    try {
        if (!reader.next(frame)) {
            err = path + ": truncated campaign descriptor";
            return false;
        }
        if (frame.type != WireType::Descriptor) {
            err = path + ": not a campaign descriptor";
            return false;
        }
        ByteReader r(frame.payload);
        desc = decodeSpecDescriptor(r);
    } catch (const ByteCodecError &e) {
        err = path + ": corrupt campaign descriptor (" + e.what() +
              ")";
        return false;
    }
    return true;
}

// ---------------------------------------------------------------
// Frame parsing
// ---------------------------------------------------------------

void
FrameReader::append(const unsigned char *data, std::size_t len)
{
    _buf.insert(_buf.end(), data, data + len);
}

void
FrameReader::reset()
{
    _buf.clear();
    _pos = 0;
}

bool
FrameReader::next(WireFrame &out)
{
    const std::size_t avail = _buf.size() - _pos;
    if (avail < 20)
        return false;
    ByteReader r(_buf.data() + _pos, avail);
    const std::uint32_t type = r.u32();
    const std::uint64_t len = r.u64();
    const std::uint64_t sum = r.u64();
    if (type < std::uint32_t(WireType::Hello) ||
        type > std::uint32_t(WireType::Descriptor) ||
        len > maxFrameLen)
        throw ByteCodecError("corrupt frame header");
    if (r.remaining() < len)
        return false;
    out.type = WireType(type);
    out.payload.resize(std::size_t(len));
    r.bytes(out.payload.data(), out.payload.size());
    if (fnv1a64(out.payload.data(), out.payload.size()) != sum)
        throw ByteCodecError("frame checksum mismatch");
    _pos += 20 + std::size_t(len);
    // Compact once the consumed prefix dominates the buffer.
    if (_pos > 65536 && _pos * 2 > _buf.size()) {
        _buf.erase(_buf.begin(),
                   _buf.begin() + std::ptrdiff_t(_pos));
        _pos = 0;
    }
    return true;
}

} // namespace wb
