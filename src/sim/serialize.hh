/**
 * @file
 * Binary checkpoint serialization.
 *
 * The paper relies on the Simics checkpointing facility to start
 * multiple simulation runs from identical initial conditions
 * (Section 3.2.2): space-variability experiments restore one
 * checkpoint many times with different perturbation seeds, and
 * time-variability experiments record checkpoints at several points in
 * a workload's lifetime (Figure 9). This module provides the
 * equivalent facility: a simple, deterministic, tagged binary archive.
 *
 * Every value written is prefixed (in debug builds of the archive
 * itself, always) with a one-byte type tag, so mismatched
 * serialize/unserialize code fails loudly instead of silently
 * misinterpreting bytes.
 */

#ifndef VARSIM_SIM_SERIALIZE_HH
#define VARSIM_SIM_SERIALIZE_HH

#include <cstdint>
#include <cstring>
#include <deque>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/logging.hh"

namespace varsim
{
namespace sim
{

/**
 * Layout version of the snapshots CheckpointOut writes, and the
 * newest CheckpointIn reads. Format 1 stored each cache line in 24
 * bytes (whole block address, state, aux, 64-bit use stamp); format
 * 2 stores it in 8 (tag, state, aux, per-set LRU rank). Every other
 * object's layout is the same in both.
 */
constexpr std::uint32_t kCheckpointFormat = 2;

/** Output archive: values are appended to an in-memory byte buffer. */
class CheckpointOut
{
  public:
    CheckpointOut() = default;

    /** Write a trivially copyable scalar value. */
    template <typename T>
    void
    put(const T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "CheckpointOut::put requires a trivially "
                      "copyable type");
        putTag(sizeof(T));
        // The bytes are exactly [&value, &value + sizeof(T)). A
        // ranged insert of them, inlined at -O3, draws a false
        // -Warray-bounds from GCC 12; resize + memcpy does not.
        const std::size_t at = buffer.size();
        buffer.resize(at + sizeof(T));
        std::memcpy(buffer.data() + at, &value, sizeof(T));
    }

    /** Write a string (length-prefixed). */
    void
    put(const std::string &value)
    {
        putTag(0xff);
        put<std::uint64_t>(value.size());
        const auto *p =
            reinterpret_cast<const std::uint8_t *>(value.data());
        buffer.insert(buffer.end(), p, p + value.size());
    }

    /** Write a vector of trivially copyable elements. */
    template <typename T>
    void
    put(const std::vector<T> &values)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "vector element must be trivially copyable");
        putTag(0xfe);
        put<std::uint64_t>(values.size());
        const auto *p =
            reinterpret_cast<const std::uint8_t *>(values.data());
        buffer.insert(buffer.end(), p, p + values.size() * sizeof(T));
    }

    /** Write a deque of trivially copyable elements. */
    template <typename T>
    void
    put(const std::deque<T> &values)
    {
        std::vector<T> tmp(values.begin(), values.end());
        put(tmp);
    }

    /** Access the raw serialized bytes. */
    const std::vector<std::uint8_t> &bytes() const { return buffer; }

    /** Current size in bytes. */
    std::size_t size() const { return buffer.size(); }

  private:
    void put(const char *) = delete; // force std::string

    void
    putTag(std::uint8_t tag)
    {
        buffer.push_back(tag);
    }

    std::vector<std::uint8_t> buffer;
};

/**
 * Input archive reading back what a CheckpointOut produced.
 *
 * Reads in place over the caller's bytes, which must outlive the
 * archive: restoring a multi-megabyte snapshot copies each value out
 * once, into the object that owns it, and never the snapshot itself.
 * Binding to a temporary buffer is therefore a compile error.
 */
class CheckpointIn
{
  public:
    /** Read @p data, a snapshot written in layout @p format. */
    explicit CheckpointIn(const std::vector<std::uint8_t> &data,
                          std::uint32_t format = kCheckpointFormat)
        : base(data.data()), len(data.size()), format_(format)
    {
        VARSIM_ASSERT(format >= 1 && format <= kCheckpointFormat,
                      "checkpoint format %u (this build reads 1..%u)",
                      format, kCheckpointFormat);
    }

    explicit CheckpointIn(std::vector<std::uint8_t> &&,
                          std::uint32_t = kCheckpointFormat) = delete;

    /** The snapshot's layout version (see kCheckpointFormat). */
    std::uint32_t format() const { return format_; }

    /** Read a trivially copyable scalar value. */
    template <typename T>
    void
    get(T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "CheckpointIn::get requires a trivially "
                      "copyable type");
        checkTag(sizeof(T));
        need(sizeof(T));
        std::memcpy(&value, base + pos, sizeof(T));
        pos += sizeof(T);
    }

    /** Read a string. */
    void
    get(std::string &value)
    {
        checkTag(0xff);
        std::uint64_t n = 0;
        get(n);
        need(n);
        value.assign(reinterpret_cast<const char *>(base + pos), n);
        pos += n;
    }

    /** Read a vector of trivially copyable elements. */
    template <typename T>
    void
    get(std::vector<T> &values)
    {
        checkTag(0xfe);
        std::uint64_t n = 0;
        get(n);
        // Divide rather than multiply: a corrupted length prefix must
        // not overflow n * sizeof(T) into a small in-bounds value.
        if (n > (len - pos) / sizeof(T)) {
            panic("checkpoint underrun: need %llu elements of %zu "
                  "bytes at offset %zu, have %zu bytes total",
                  static_cast<unsigned long long>(n), sizeof(T), pos,
                  len);
        }
        values.resize(n);
        // n == 0 leaves values.data() null; memcpy's arguments are
        // declared nonnull even for zero lengths.
        if (n > 0) {
            std::memcpy(values.data(), base + pos, n * sizeof(T));
        }
        pos += n * sizeof(T);
    }

    /** Read a deque of trivially copyable elements. */
    template <typename T>
    void
    get(std::deque<T> &values)
    {
        std::vector<T> tmp;
        get(tmp);
        values.assign(tmp.begin(), tmp.end());
    }

    /** Bytes consumed so far (the offset of the next value). */
    std::size_t offset() const { return pos; }

    /** True once all bytes have been consumed. */
    bool exhausted() const { return pos == len; }

  private:
    void
    checkTag(std::uint8_t expected)
    {
        need(1);
        std::uint8_t tag = base[pos++];
        if (tag != expected) {
            panic("checkpoint type mismatch at offset %zu: "
                  "expected tag %u, found %u",
                  pos - 1, unsigned(expected), unsigned(tag));
        }
    }

    void
    need(std::uint64_t n)
    {
        // pos <= len always; compare against the remainder so a
        // huge corrupted n cannot wrap pos + n around zero.
        if (n > len - pos) {
            panic("checkpoint underrun: need %llu bytes at offset "
                  "%zu, have %zu total",
                  static_cast<unsigned long long>(n), pos, len);
        }
    }

    const std::uint8_t *base;
    std::size_t len;
    std::size_t pos = 0;
    std::uint32_t format_;
};

/**
 * Interface for objects that participate in checkpointing.
 *
 * Checkpoints are only taken with the system *drained* (no in-flight
 * memory transactions, no pending events other than re-armable
 * housekeeping timers), so implementations serialize architectural
 * state only.
 */
class Serializable
{
  public:
    virtual ~Serializable() = default;

    /** Write this object's state into @p cp. */
    virtual void serialize(CheckpointOut &cp) const = 0;

    /** Restore this object's state from @p cp. */
    virtual void unserialize(CheckpointIn &cp) = 0;
};

} // namespace sim
} // namespace varsim

#endif // VARSIM_SIM_SERIALIZE_HH
