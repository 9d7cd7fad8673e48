#include "campaign/job_codec.hh"

#include <cerrno>
#include <cstring>

#include <unistd.h>

namespace wb
{

void
encodeJournalHeader(ByteWriter &w, const JournalHeader &h)
{
    w.str(h.specKind);
    w.str(h.specText);
    w.i64(h.seedsOverride);
    w.b(h.recovery);
    w.b(h.verifyEquivalence);
    w.b(h.checkFaults);
    w.b(h.strict);
    w.u64(h.specFingerprint);
    w.u64(h.jobCount);
}

JournalHeader
decodeJournalHeader(ByteReader &r)
{
    JournalHeader h;
    h.specKind = r.str();
    h.specText = r.str();
    h.seedsOverride = r.i64();
    h.recovery = r.b();
    h.verifyEquivalence = r.b();
    h.checkFaults = r.b();
    h.strict = r.b();
    h.specFingerprint = r.u64();
    h.jobCount = r.u64();
    return h;
}

void
encodeWorkerInit(ByteWriter &w, const WorkerInit &init)
{
    encodeJournalHeader(w, init.spec);
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
    init.spec = decodeJournalHeader(r);
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

bool
writeFrame(int fd, WireType type, const unsigned char *payload,
           std::size_t len)
{
    ByteWriter hdr;
    hdr.u32(std::uint32_t(type));
    hdr.u64(len);
    hdr.u64(fnv1a64(payload, len));
    hdr.bytes(payload, len);
    const auto buf = hdr.take();

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

bool
writeFrame(int fd, WireType type, const ByteWriter &payload)
{
    const auto &b = payload.buffer();
    return writeFrame(fd, type, b.data(), b.size());
}

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
        type > std::uint32_t(WireType::Telemetry) ||
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
