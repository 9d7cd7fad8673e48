/**
 * @file
 * Pipe framing for the process-isolated campaign backend.
 *
 * The supervisor (wbcampaign) and its worker processes
 * (`wbcampaign --worker`) exchange messages over two pipes per
 * worker. Every message is one checksummed frame:
 *
 *   [u32 type] [u64 len] [u64 fnv] [payload]
 *
 * Payloads reuse the bit-exact durability codecs: the worker
 * initialisation frame carries the same JournalHeader a --resume
 * journal embeds (enough to rebuild the campaign spec from text),
 * and finished jobs travel as encodeJobResult() bytes — the exact
 * encoding the journal and the result cache already round-trip.
 * A frame that fails its length or checksum means the stream is
 * garbage (a worker died mid-write, or wrote to the wrong fd); the
 * reader throws ByteCodecError and the supervisor treats the worker
 * as crashed.
 *
 * Frames from a worker are written under a mutex (the heartbeat
 * thread shares the result pipe with the job loop), so a frame is
 * never interleaved with another even when it exceeds PIPE_BUF.
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
    Hello = 1,     //!< worker -> supervisor: protocol version + pid
    Init = 2,      //!< supervisor -> worker: WorkerInit payload
    RunJob = 3,    //!< supervisor -> worker: u64 job index
    Heartbeat = 4, //!< worker -> supervisor: u64 current job (~0 idle)
    JobDone = 5,   //!< worker -> supervisor: encodeJobResult bytes
    Shutdown = 6,  //!< supervisor -> worker: drain and exit
    Telemetry = 7, //!< worker -> supervisor: TelemetryFrame bytes
};

/** Wire protocol version; Hello carries it so a stale binary
 *  re-exec'd as a worker is detected instead of misparsed.
 *  v2: Telemetry frames + metricsPeriod/telemetryDir in Init. */
constexpr std::uint32_t wireProtocolVersion = 2;

struct WireFrame
{
    WireType type = WireType::Hello;
    std::vector<unsigned char> payload;
};

/** Everything a worker needs before it can accept jobs: a spec
 *  description it can rebuild (same shape the journal header uses),
 *  plus the supervision knobs that live worker-side. */
struct WorkerInit
{
    JournalHeader spec; //!< specKind/specText/overrides/fingerprint
    std::string outDir;
    std::string chaos;             //!< --chaos-worker spec ("" = off)
    std::uint64_t memLimitMb = 0;  //!< RLIMIT_AS; 0 = unlimited
    double jobTimeoutSeconds = 0;  //!< arms RLIMIT_CPU; 0 = off
    double heartbeatSeconds = 1.0; //!< heartbeat period
    std::uint64_t metricsPeriod = 0; //!< telemetry period; 0 = off
    std::string telemetryDir;      //!< exposition sidecar dir
};

/**
 * One live snapshot shipped worker -> supervisor: the rolled-up
 * progress figures plus the NDJSON line the supervisor appends to
 * the job's per-job stream. Doubles as a liveness heartbeat: a busy
 * worker that stops producing Telemetry frames is sim-stalled even
 * if its wall-clock heartbeat thread still beats (worker_pool.cc).
 */
struct TelemetryFrame
{
    std::uint64_t job = ~std::uint64_t(0); //!< job index
    MetricsSummary sum; //!< only tick and the progress fields travel
    std::string line; //!< one NDJSON snapshot line (no newline)
};

void encodeTelemetryFrame(ByteWriter &w, const TelemetryFrame &t);
TelemetryFrame decodeTelemetryFrame(ByteReader &r);

/** JournalHeader byte codec (shared with job_journal.cc so the Init
 *  frame and the journal header are the same encoding). */
void encodeJournalHeader(ByteWriter &w, const JournalHeader &h);
JournalHeader decodeJournalHeader(ByteReader &r);

void encodeWorkerInit(ByteWriter &w, const WorkerInit &init);
WorkerInit decodeWorkerInit(ByteReader &r); //!< throws ByteCodecError

/** Write one whole frame to @p fd (loops over partial writes).
 *  @return false on any write error (EPIPE after a worker death —
 *  SIGPIPE must be ignored by both sides). */
bool writeFrame(int fd, WireType type, const unsigned char *payload,
                std::size_t len);
bool writeFrame(int fd, WireType type, const ByteWriter &payload);

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
