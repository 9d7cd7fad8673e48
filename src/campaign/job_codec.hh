/**
 * @file
 * The campaign layer's byte formats: job records, the pipe framing
 * of the process-isolated backend, and the run directory's spec
 * descriptor.
 *
 * The supervisor (wbcampaign) and its worker processes
 * (`wbcampaign --worker`) exchange messages over two pipes per
 * worker. Every message is one checksummed frame:
 *
 *   [u32 type] [u64 len] [u64 fnv] [payload]
 *
 * Payloads reuse the bit-exact codecs: the worker initialisation
 * frame carries a SpecDescriptor (enough to rebuild the campaign
 * spec from text), and finished jobs travel as encodeJobResult()
 * bytes, the exact encoding of a result-cache entry. The same
 * descriptor, framed the same way, is the run directory's
 * campaign.wbc, so `wbcampaign --resume DIR` rebuilds the spec the
 * way a worker does. A frame that fails its length or checksum means
 * the stream is garbage (a worker died mid-write, or wrote to the
 * wrong fd); the reader throws ByteCodecError and the supervisor
 * treats the worker as crashed.
 *
 * A worker is single-threaded: its job loop writes each frame
 * whole before the next, so frames never interleave even when one
 * exceeds PIPE_BUF.
 */

#ifndef WB_CAMPAIGN_JOB_CODEC_HH
#define WB_CAMPAIGN_JOB_CODEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/campaign_runner.hh"
#include "sim/bytes.hh"

namespace wb
{

/** Frame types on the supervisor<->worker pipes. */
enum class WireType : std::uint32_t
{
    Hello = 1,      //!< worker -> supervisor: protocol version + pid
    Init = 2,       //!< supervisor -> worker: WorkerInit payload
    RunJob = 3,     //!< supervisor -> worker: u64 job index
    JobDone = 5,    //!< worker -> supervisor: encodeJobResult bytes
    Shutdown = 6,   //!< supervisor -> worker: drain and exit
    Telemetry = 7,  //!< worker -> supervisor: TelemetryFrame bytes
    Descriptor = 8, //!< campaign.wbc's one frame (never on a pipe)
};

/** Wire protocol version; Hello carries it so a stale binary
 *  re-exec'd as a worker is detected instead of misparsed.
 *  v2: Telemetry frames + metricsPeriod/telemetryDir in Init.
 *  v3: no Heartbeat frames; Init drops the job timeout and the
 *  heartbeat period. */
constexpr std::uint32_t wireProtocolVersion = 3;

struct WireFrame
{
    WireType type = WireType::Hello;
    std::vector<unsigned char> payload;
};

/** Bit-exact JobResult codec (cache entries, run records, and
 *  JobDone frames). */
void encodeJobResult(ByteWriter &w, const JobResult &res);
JobResult decodeJobResult(ByteReader &r); //!< throws ByteCodecError

/** Fingerprint the expanded job list (axes + seeds per job). */
std::uint64_t jobListFingerprint(const std::vector<JobSpec> &jobs);

/** Everything a worker needs before it can accept jobs: a spec
 *  description it can rebuild, the job list it must rebuild to,
 *  plus the supervision knobs that live worker-side. */
struct WorkerInit
{
    SpecDescriptor spec;
    std::uint64_t jobCount = 0;       //!< supervisor's job list...
    std::uint64_t jobFingerprint = 0; //!< ...and its fingerprint
    std::string outDir;
    std::string chaos;               //!< --chaos-worker spec ("" = off)
    std::uint64_t memLimitMb = 0;    //!< RLIMIT_AS; 0 = unlimited
    std::uint64_t metricsPeriod = 0; //!< telemetry period; 0 = off
    std::string telemetryDir;        //!< exposition sidecar dir
};

/**
 * One live snapshot shipped worker -> supervisor: the rolled-up
 * progress figures plus the NDJSON line the supervisor appends to
 * the job's per-job stream. Doubles as a liveness heartbeat: a busy
 * worker that stops producing Telemetry frames is sim-stalled and
 * killed (worker_pool.cc).
 */
struct TelemetryFrame
{
    std::uint64_t job = ~std::uint64_t(0); //!< job index
    MetricsSummary sum; //!< only tick and the progress fields travel
    std::string line; //!< one NDJSON snapshot line (no newline)
};

void encodeTelemetryFrame(ByteWriter &w, const TelemetryFrame &t);
TelemetryFrame decodeTelemetryFrame(ByteReader &r);

void encodeSpecDescriptor(ByteWriter &w, const SpecDescriptor &d);
SpecDescriptor decodeSpecDescriptor(ByteReader &r);

void encodeWorkerInit(ByteWriter &w, const WorkerInit &init);
WorkerInit decodeWorkerInit(ByteReader &r); //!< throws ByteCodecError

/** One whole frame's bytes: header, checksum, payload. */
std::vector<unsigned char> frameBytes(WireType type,
                                      const unsigned char *payload,
                                      std::size_t len);

/** Write one whole frame to @p fd (loops over partial writes).
 *  @return false on any write error (EPIPE after a worker death —
 *  SIGPIPE must be ignored by both sides). */
bool writeFrame(int fd, WireType type, const unsigned char *payload,
                std::size_t len);
bool writeFrame(int fd, WireType type, const ByteWriter &payload);

/** Atomically replace @p path with @p data: write the private file
 *  @p tmp and rename it over @p path. A kill at any point leaves the
 *  old file or the new one (plus at worst a stray @p tmp), never a
 *  torn one. With @p durable, also fsync @p tmp before the rename
 *  and the directory after it, so the same holds across power loss.
 *  @return false on any I/O error. */
bool replaceFile(const std::string &path, const std::string &tmp,
                 const std::vector<unsigned char> &data, bool durable);

/** Write @p desc as DIR/campaign.wbc: one Descriptor frame, durably.
 *  @return false with @p err set on I/O failure. */
bool writeSpecDescriptor(const std::string &dir,
                         const SpecDescriptor &desc, std::string &err);

/** Read DIR/campaign.wbc back. @return false with @p err set when
 *  the file is missing, truncated, corrupt or not a descriptor. */
bool loadSpecDescriptor(const std::string &dir, SpecDescriptor &desc,
                        std::string &err);

/** Incremental frame parser over bytes read from a pipe. */
class FrameReader
{
  public:
    /** Append raw bytes (from read(2)) to the parse buffer. */
    void append(const unsigned char *data, std::size_t len);

    /** Extract the next complete frame.
     *  @return false when more bytes are needed.
     *  @throws ByteCodecError on a corrupt frame (bad checksum or
     *  an absurd length) — the stream is unrecoverable. */
    bool next(WireFrame &out);

    void reset();

    /** Frames larger than this are treated as corruption: the
     *  biggest legitimate payload is one JobResult with a captured
     *  crash report, far below this bound. */
    static constexpr std::uint64_t maxFrameLen = 1ull << 28;

  private:
    std::vector<unsigned char> _buf;
    std::size_t _pos = 0;
};

} // namespace wb

#endif // WB_CAMPAIGN_JOB_CODEC_HH
