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
 * Every value written is prefixed with a one-byte type tag, so a
 * snapshot read under the wrong layout fails loudly instead of
 * silently misinterpreting bytes. Each object states its layout once,
 * in one checkpoint(CheckpointIo &) function that both saving and
 * restoring run.
 */

#ifndef VARSIM_SIM_SERIALIZE_HH
#define VARSIM_SIM_SERIALIZE_HH

#include <algorithm>
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
 * newest CheckpointIn reads. The formats differ only in their cache
 * images: format 1 stored every line of an array in 24 bytes (whole
 * block address, state, aux, 64-bit use stamp); format 2 stored
 * every line in 8 (tag, state, aux, per-set LRU rank); format 3
 * stores a validity bitmap, one u64 word per 64 lines, and then only
 * the valid 8-byte lines. Every other object's layout is the same in
 * all three, and a restore reads each of them.
 */
constexpr std::uint32_t kCheckpointFormat = 3;

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
 * One checkpoint pass as an object sees it, in either direction. An
 * object states its layout once, in its checkpoint() function:
 * field() puts each value when saving and gets it back when
 * restoring, through the archives above, so the two directions
 * cannot disagree on order or type. The few steps that belong to one
 * direction test loading().
 */
class CheckpointIo
{
  public:
    /** A save pass appending to @p out. */
    explicit CheckpointIo(CheckpointOut &out) : out_(&out) {}

    /** A restore pass reading from @p in. */
    explicit CheckpointIo(CheckpointIn &in) : in_(&in) {}

    /** True when restoring: values flow into the object. */
    bool loading() const { return in_ != nullptr; }

    // Counts, positions and cache geometry are size_t fields; every
    // snapshot holds them as tagged 8-byte values.
    static_assert(sizeof(std::size_t) == sizeof(std::uint64_t),
                  "size_t fields are checkpointed as 8 bytes");

    /** Put @p value when saving, get it when restoring. */
    template <typename T>
    void
    field(T &value)
    {
        if (in_)
            in_->get(value);
        else
            out_->put(value);
    }

    /**
     * A container as a u64 count, then each element through @p each,
     * which names the element's members (so no padding reaches a
     * snapshot). Restoring appends one element at a time after a
     * capped reservation, so a corrupt count runs into the reader's
     * underrun check, not a giant allocation.
     */
    template <typename C, typename Each>
    void
    elements(C &items, Each &&each)
    {
        std::uint64_t n = items.size();
        field(n);
        if (in_) {
            items.clear();
            if constexpr (requires { items.reserve(std::size_t{}); })
                items.reserve(static_cast<std::size_t>(
                    std::min<std::uint64_t>(n, 4096)));
        }
        for (std::uint64_t i = 0; i < n; ++i) {
            if (in_)
                items.emplace_back();
            each(items[i]);
        }
    }

    /** The snapshot's layout version (kCheckpointFormat on save). */
    std::uint32_t
    format() const
    {
        return in_ ? in_->format() : kCheckpointFormat;
    }

    /** Offset of the next value in the snapshot. */
    std::size_t
    offset() const
    {
        return in_ ? in_->offset() : out_->size();
    }

  private:
    CheckpointOut *out_ = nullptr;
    CheckpointIn *in_ = nullptr;
};

/**
 * Interface for objects that participate in checkpointing.
 *
 * Checkpoints are only taken with the system *drained* (no in-flight
 * memory transactions, no pending events other than re-armable
 * housekeeping timers), so implementations checkpoint architectural
 * state only.
 */
class Serializable
{
  public:
    virtual ~Serializable() = default;

    /**
     * Name this object's state through @p cp, once, in snapshot
     * order: the same function saves and restores it.
     */
    virtual void checkpoint(CheckpointIo &cp) = 0;

    /** Write this object's state into @p out. */
    void
    serialize(CheckpointOut &out) const
    {
        // A save pass only reads the object it walks.
        CheckpointIo cp(out);
        const_cast<Serializable *>(this)->checkpoint(cp);
    }

    /** Restore this object's state from @p in. */
    void
    unserialize(CheckpointIn &in)
    {
        CheckpointIo cp(in);
        checkpoint(cp);
    }
};

} // namespace sim
} // namespace varsim

#endif // VARSIM_SIM_SERIALIZE_HH
