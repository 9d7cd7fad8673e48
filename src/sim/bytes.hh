/**
 * @file
 * Bounds-checked little-endian byte codec shared by the durability
 * layer: snapshot sections (src/snapshot/), campaign job records
 * and the content-addressed result cache (src/campaign/) all
 * serialise through the same two classes so their integrity
 * checksums cover identical encodings.
 *
 * ByteWriter appends fixed-width little-endian scalars and
 * length-prefixed strings to a growable buffer; ByteReader walks the
 * same encoding and throws ByteCodecError on any overrun or
 * malformed length instead of reading past the end — corrupt input
 * must surface as a classified error, never as UB (see
 * docs/CHECKPOINT.md, "Hostile input").
 *
 * Header-only on purpose: component serialisers live in the
 * component libraries (core, coherence, network, ...) and must not
 * link against the snapshot library to write their own state.
 */

#ifndef WB_SIM_BYTES_HH
#define WB_SIM_BYTES_HH

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace wb
{

/** Thrown by ByteReader on truncated or malformed input. */
class ByteCodecError : public std::runtime_error
{
  public:
    explicit ByteCodecError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/** 64-bit FNV-1a over a byte range (the durability layer's
 *  integrity checksum — fast, dependency-free, and stable across
 *  platforms). */
inline std::uint64_t
fnv1a64(const void *data, std::size_t len,
        std::uint64_t h = 0xcbf29ce484222325ULL)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

inline std::uint64_t
fnv1a64(const std::string &s,
        std::uint64_t h = 0xcbf29ce484222325ULL)
{
    return fnv1a64(s.data(), s.size(), h);
}

/** Append-only little-endian encoder. */
class ByteWriter
{
  public:
    void
    u8(std::uint8_t v)
    {
        _buf.push_back(v);
    }

    void
    u16(std::uint16_t v)
    {
        put(v, 2);
    }

    void
    u32(std::uint32_t v)
    {
        put(v, 4);
    }

    void
    u64(std::uint64_t v)
    {
        put(v, 8);
    }

    void
    i64(std::int64_t v)
    {
        put(static_cast<std::uint64_t>(v), 8);
    }

    void
    b(bool v)
    {
        u8(v ? 1 : 0);
    }

    /** IEEE bits; all doubles in the simulator are deterministic. */
    void
    f64(double v)
    {
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        __builtin_memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    /** Length-prefixed string. */
    void
    str(const std::string &s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        _buf.insert(_buf.end(), s.begin(), s.end());
    }

    void
    bytes(const void *data, std::size_t len)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        _buf.insert(_buf.end(), p, p + len);
    }

    const std::vector<unsigned char> &buffer() const { return _buf; }
    std::size_t size() const { return _buf.size(); }

    std::uint64_t
    checksum() const
    {
        return fnv1a64(_buf.data(), _buf.size());
    }

    /** Move the encoded bytes out (writer becomes empty). */
    std::vector<unsigned char>
    take()
    {
        return std::move(_buf);
    }

  private:
    void
    put(std::uint64_t v, int n)
    {
        for (int i = 0; i < n; ++i)
            _buf.push_back(
                static_cast<unsigned char>((v >> (8 * i)) & 0xff));
    }

    std::vector<unsigned char> _buf;
};

/** Bounds-checked little-endian decoder over a borrowed buffer. */
class ByteReader
{
  public:
    ByteReader(const void *data, std::size_t len)
        : _p(static_cast<const unsigned char *>(data)), _len(len)
    {}

    explicit ByteReader(const std::vector<unsigned char> &buf)
        : ByteReader(buf.data(), buf.size())
    {}

    std::uint8_t
    u8()
    {
        need(1);
        return _p[_pos++];
    }

    std::uint16_t
    u16()
    {
        return static_cast<std::uint16_t>(get(2));
    }

    std::uint32_t
    u32()
    {
        return static_cast<std::uint32_t>(get(4));
    }

    std::uint64_t u64() { return get(8); }

    std::int64_t
    i64()
    {
        return static_cast<std::int64_t>(get(8));
    }

    bool b() { return u8() != 0; }

    double
    f64()
    {
        const std::uint64_t bits = u64();
        double v;
        __builtin_memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string
    str()
    {
        const std::uint32_t n = u32();
        need(n);
        std::string s(reinterpret_cast<const char *>(_p + _pos), n);
        _pos += n;
        return s;
    }

    void
    bytes(void *out, std::size_t len)
    {
        need(len);
        __builtin_memcpy(out, _p + _pos, len);
        _pos += len;
    }

    std::size_t remaining() const { return _len - _pos; }
    std::size_t position() const { return _pos; }
    bool atEnd() const { return _pos == _len; }

  private:
    void
    need(std::size_t n)
    {
        if (_len - _pos < n)
            throw ByteCodecError(
                "truncated record: need " + std::to_string(n) +
                " byte(s) at offset " + std::to_string(_pos) +
                " of " + std::to_string(_len));
    }

    std::uint64_t
    get(int n)
    {
        need(static_cast<std::size_t>(n));
        std::uint64_t v = 0;
        for (int i = 0; i < n; ++i)
            v |= std::uint64_t(_p[_pos + std::size_t(i)])
                 << (8 * i);
        _pos += std::size_t(n);
        return v;
    }

    const unsigned char *_p;
    std::size_t _len;
    std::size_t _pos = 0;
};

} // namespace wb

#endif // WB_SIM_BYTES_HH
