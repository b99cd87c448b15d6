/**
 * @file
 * Endian-stable binary serialization primitives for the persistent run
 * store (src/io/). Every multi-byte integer is encoded little-endian,
 * so files written on any host decode identically on any other — no
 * host-order struct dumps, no padding, no UB. Integer arrays move in
 * bulk: one buffer growth per encoded array and one bounds check per
 * decoded one (a single memcpy where host order is little-endian).
 *
 * ByteReader is the untrusted-input half: every read is bounds-checked
 * and a malformed length prefix throws FatalError before any allocation
 * larger than the remaining input can happen. Truncated, bit-flipped,
 * or hostile files therefore fail with a recoverable exception, never
 * with undefined behaviour — the property tests/test_io.cc fuzzes.
 */

#ifndef OMNISIM_IO_SERIAL_HH
#define OMNISIM_IO_SERIAL_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "support/logging.hh"

namespace omnisim::io
{

/** Store v little-endian into the sizeof(T) bytes at p. */
template <typename T>
inline void
storeLe(char *p, T v)
{
    using U = std::make_unsigned_t<T>;
    const U u = static_cast<U>(v);
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(p, &u, sizeof(U));
    } else {
        for (std::size_t i = 0; i < sizeof(U); ++i)
            p[i] = static_cast<char>((u >> (8 * i)) & 0xff);
    }
}

/** Load a little-endian T from the sizeof(T) bytes at p. */
template <typename T>
inline T
loadLe(const char *p)
{
    using U = std::make_unsigned_t<T>;
    U u = 0;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&u, p, sizeof(U));
    } else {
        for (std::size_t i = 0; i < sizeof(U); ++i)
            u |= static_cast<U>(static_cast<unsigned char>(p[i]))
                 << (8 * i);
    }
    return static_cast<T>(u);
}

/** Append-only little-endian encoder. */
class ByteWriter
{
  public:
    void u8(std::uint8_t v) { storeLe(grow(1), v); }
    void u32(std::uint32_t v) { storeLe(grow(4), v); }
    void u64(std::uint64_t v) { storeLe(grow(8), v); }

    /** Length-prefixed (u64) byte string. */
    void
    str(const std::string &s)
    {
        u64(s.size());
        buf_.append(s);
    }

    /** Raw bytes, no length prefix (magic headers). */
    void
    raw(const char *data, std::size_t n)
    {
        buf_.append(data, n);
    }

    /** Count-prefixed (u64) array of fixed-width integers. */
    template <typename T>
    void
    array(const std::vector<T> &v)
    {
        u64(v.size());
        char *p = grow(v.size() * sizeof(T));
        if constexpr (std::endian::native == std::endian::little) {
            if (!v.empty())
                std::memcpy(p, v.data(), v.size() * sizeof(T));
        } else {
            for (const T x : v) {
                storeLe(p, x);
                p += sizeof(T);
            }
        }
    }

    /** Append n bytes for the caller to fill: one growth for a whole
     *  array of fixed-size records. */
    char *
    grow(std::size_t n)
    {
        const std::size_t at = buf_.size();
        buf_.resize(at + n);
        return buf_.data() + at;
    }

    /** Overwrite already-written bytes (header fields known last). */
    char *at(std::size_t pos) { return buf_.data() + pos; }

    std::string_view view() const { return buf_; }
    std::string take() { return std::move(buf_); }
    std::size_t size() const { return buf_.size(); }

  private:
    std::string buf_;
};

/** Bounds-checked little-endian decoder over an in-memory buffer. */
class ByteReader
{
  public:
    explicit ByteReader(std::string_view bytes) : p_(bytes), pos_(0) {}

    std::size_t remaining() const { return p_.size() - pos_; }
    bool atEnd() const { return pos_ == p_.size(); }

    std::uint8_t u8() { return loadLe<std::uint8_t>(take(1)); }
    std::uint32_t u32() { return loadLe<std::uint32_t>(take(4)); }
    std::uint64_t u64() { return loadLe<std::uint64_t>(take(8)); }

    /** Length-prefixed byte string; the length must fit the input. */
    std::string
    str()
    {
        const std::size_t n = count(1);
        return std::string(take(n), n);
    }

    /** Raw bytes, no length prefix. */
    std::string_view
    raw(std::size_t n)
    {
        return std::string_view(take(n), n);
    }

    /** Count-prefixed array of fixed-width integers, checked against
     *  the remaining input once. */
    template <typename T>
    void
    array(std::vector<T> &out)
    {
        const std::size_t n = count(sizeof(T));
        const char *p = take(n * sizeof(T));
        out.resize(n);
        if constexpr (std::endian::native == std::endian::little) {
            if (n > 0)
                std::memcpy(out.data(), p, n * sizeof(T));
        } else {
            for (T &x : out) {
                x = loadLe<T>(p);
                p += sizeof(T);
            }
        }
    }

    /**
     * Read an element-count prefix for a vector whose encoded elements
     * occupy at least minElemBytes each. Rejecting counts the remaining
     * input cannot possibly hold stops a corrupted length from turning
     * into a multi-gigabyte allocation before the decode loop even hits
     * the end of the buffer.
     */
    std::size_t
    count(std::size_t minElemBytes)
    {
        const std::uint64_t n = u64();
        if (minElemBytes > 0 && n > remaining() / minElemBytes)
            omnisim_fatal("run file corrupt: element count %llu exceeds "
                          "the %zu remaining bytes",
                          static_cast<unsigned long long>(n), remaining());
        return static_cast<std::size_t>(n);
    }

    /** The next n bytes, bounds-checked once; the cursor moves past
     *  them. */
    const char *
    take(std::size_t n)
    {
        need(n);
        const char *p = p_.data() + pos_;
        pos_ += n;
        return p;
    }

  private:
    void
    need(std::size_t n)
    {
        if (n > remaining())
            omnisim_fatal("run file truncated: need %llu bytes at offset "
                          "%zu, have %zu",
                          static_cast<unsigned long long>(n), pos_,
                          remaining());
    }

    std::string_view p_;
    std::size_t pos_;
};

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/** FNV-1a 64-bit hash, one byte per step (fingerprints and store
 *  keys). */
inline std::uint64_t
fnv1a(std::string_view bytes, std::uint64_t h = kFnvOffset)
{
    for (const char c : bytes)
        h = (h ^ static_cast<unsigned char>(c)) * kFnvPrime;
    return h;
}

/** Fold one integer into an FNV-1a hash (endian-stable). */
inline std::uint64_t
fnv1aU64(std::uint64_t v, std::uint64_t h)
{
    for (int i = 0; i < 8; ++i)
        h = (h ^ ((v >> (8 * i)) & 0xff)) * kFnvPrime;
    return h;
}

/**
 * Run-file payload checksum: FNV-1a folding one little-endian 8-byte
 * word per step, then the tail bytes one at a time. Each step is a
 * bijection of the state (xor a word, multiply by an odd prime), so
 * corrupting any single word or tail byte changes the sum.
 */
inline std::uint64_t
payloadChecksum(std::string_view bytes)
{
    std::uint64_t h = kFnvOffset;
    std::size_t i = 0;
    for (; i + 8 <= bytes.size(); i += 8)
        h = (h ^ loadLe<std::uint64_t>(bytes.data() + i)) * kFnvPrime;
    for (; i < bytes.size(); ++i)
        h = (h ^ static_cast<unsigned char>(bytes[i])) * kFnvPrime;
    return h;
}

} // namespace omnisim::io

#endif // OMNISIM_IO_SERIAL_HH
