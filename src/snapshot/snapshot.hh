/**
 * @file
 * Versioned, checksummed binary snapshot container.
 *
 * A snapshot file is a sequence of named sections, each carrying the
 * byte-serialised state of one simulator component (see
 * system_state.hh for what goes in them). The container is designed
 * so that *every* failure mode of hostile or damaged input — wrong
 * magic, unsupported version, truncation anywhere, a flipped bit in
 * a header or a payload, a section table that lies about lengths —
 * is detected and classified before any payload byte is interpreted:
 *
 *   [u64 magic "WBSNAP01"] [u32 version] [u32 sectionCount]
 *   [u64 tick] [u64 configFingerprint] [u64 workloadFingerprint]
 *   [u64 headerChecksum]                      (FNV over the above)
 *   sectionCount x:
 *     [str name] [u64 payloadLen] [u64 payloadChecksum] [payload]
 *   [u64 fileChecksum]                        (FNV over everything)
 *
 * All integers little-endian (sim/bytes.hh). Load failures throw
 * SnapshotError with a message naming the first offence; callers map
 * that onto the classified exit taxonomy (docs/RESILIENCE.md).
 */

#ifndef WB_SNAPSHOT_SNAPSHOT_HH
#define WB_SNAPSHOT_SNAPSHOT_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/bytes.hh"
#include "sim/types.hh"

namespace wb
{

/** Thrown on any snapshot validation or I/O failure. */
class SnapshotError : public std::runtime_error
{
  public:
    explicit SnapshotError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/** One named state section. */
struct SnapshotSection
{
    std::string name;
    std::vector<unsigned char> payload;
};

/** An in-memory snapshot: header fields plus ordered sections. */
struct SnapshotFile
{
    static constexpr std::uint64_t magic = 0x313050414e534257ULL;
    //!< "WBSNAP01" little-endian
    static constexpr std::uint32_t version = 3;

    Tick tick = 0;
    std::uint64_t configFingerprint = 0;
    std::uint64_t workloadFingerprint = 0;
    std::vector<SnapshotSection> sections;

    /** Append a section (name must be unique within the file). */
    void
    add(std::string name, std::vector<unsigned char> payload)
    {
        sections.push_back(
            {std::move(name), std::move(payload)});
    }

    /** Find a section by name; nullptr when absent. */
    const SnapshotSection *find(const std::string &name) const;

    /** Encode the whole container. */
    std::vector<unsigned char> encode() const;

    /** Decode + validate a container; throws SnapshotError naming
     *  the first integrity violation. */
    static SnapshotFile decode(const void *data, std::size_t len);

    /** Write to @p path (atomically via a temp file + rename);
     *  throws SnapshotError on I/O failure. */
    void save(const std::string &path) const;

    /** Read + validate @p path; throws SnapshotError. */
    static SnapshotFile load(const std::string &path);
};

} // namespace wb

#endif // WB_SNAPSHOT_SNAPSHOT_HH
