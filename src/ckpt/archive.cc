#include "ckpt/archive.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <type_traits>

#include "ckpt/key.hh"
#include "sim/file_io.hh"
#include "sim/jsonl.hh"
#include "sim/logging.hh"

namespace varsim
{
namespace ckpt
{

namespace
{

constexpr char kMagic[8] = {'V', 'S', 'I', 'M', 'C', 'K', 'P', 'T'};
constexpr std::uint32_t kSectionMeta = 1;
constexpr std::uint32_t kSectionPayload = 2;
constexpr std::size_t kMaxSections = 16;

/** The metadata section: one JSON line, parseable without aborting. */
std::string
metaJson(const ArchiveMeta &meta)
{
    sim::JsonWriter w;
    w.field("key", meta.keyCanonical);
    w.field("digest",
            sim::format("%016llx", static_cast<unsigned long long>(
                                       meta.digest)));
    w.field("position", meta.position);
    w.field("seed", meta.warmupSeed);
    return w.str();
}

LoadResult
failure(const std::string &why)
{
    LoadResult r;
    r.error = why;
    return r;
}

} // anonymous namespace

std::uint64_t
fnvBytes(const std::uint8_t *p, std::size_t n)
{
    std::uint64_t h = kFnvOffsetBasis;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

std::vector<std::uint8_t>
buildArchive(const ArchiveMeta &meta,
             const std::vector<std::uint8_t> &payload)
{
    const std::string mj = metaJson(meta);

    std::vector<std::uint8_t> out;
    out.reserve(24 + 24 + mj.size() + payload.size() + 8);
    for (char c : kMagic)
        out.push_back(static_cast<std::uint8_t>(c));
    putLe<std::uint32_t>(out, kArchiveVersion);
    putLe<std::uint32_t>(out, 2); // section count
    putLe<std::uint32_t>(out, kSectionMeta);
    putLe<std::uint64_t>(out, mj.size());
    putLe<std::uint32_t>(out, kSectionPayload);
    putLe<std::uint64_t>(out, payload.size());
    out.insert(out.end(), mj.begin(), mj.end());
    out.insert(out.end(), payload.begin(), payload.end());
    putLe<std::uint64_t>(out, fnvBytes(out.data(), out.size()));
    return out;
}

LoadResult
parseArchive(std::vector<std::uint8_t> bytes)
{
    // Fixed header: magic + version + section count.
    if (bytes.size() < 16 + 8)
        return failure(sim::format("file too small (%zu bytes)",
                                   bytes.size()));
    if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
        return failure("bad magic (not a varsim checkpoint archive)");
    const auto version = getLe<std::uint32_t>(bytes.data() + 8);
    if (version < 1 || version > kArchiveVersion)
        return failure(sim::format(
            "unsupported format version %u (this build reads 1..%u)",
            version, kArchiveVersion));
    const auto sections = getLe<std::uint32_t>(bytes.data() + 12);
    if (sections == 0 || sections > kMaxSections)
        return failure(sim::format("implausible section count %u",
                                   sections));

    // Section table must fit, and the declared lengths must exactly
    // tile the bytes between the table and the trailing checksum.
    const std::size_t tableEnd =
        16 + static_cast<std::size_t>(sections) * 12;
    if (tableEnd + 8 > bytes.size())
        return failure("truncated inside the section table");
    std::size_t bodyRemaining = bytes.size() - tableEnd - 8;

    struct Section
    {
        std::uint32_t id;
        std::size_t offset;
        std::size_t length;
    };
    std::vector<Section> table;
    std::size_t offset = tableEnd;
    for (std::uint32_t s = 0; s < sections; ++s) {
        const std::uint8_t *ent = bytes.data() + 16 + s * 12;
        const auto id = getLe<std::uint32_t>(ent);
        const auto len = getLe<std::uint64_t>(ent + 4);
        if (len > bodyRemaining)
            return failure(sim::format(
                "section %u declares %llu bytes but only %zu remain",
                id, static_cast<unsigned long long>(len),
                bodyRemaining));
        table.push_back({id, offset, static_cast<std::size_t>(len)});
        offset += static_cast<std::size_t>(len);
        bodyRemaining -= static_cast<std::size_t>(len);
    }
    if (bodyRemaining != 0)
        return failure(sim::format(
            "%zu byte(s) not covered by any section", bodyRemaining));

    // Whole-archive checksum: catches any bit flip or truncation the
    // structural checks above happened to leave consistent.
    const std::uint64_t want =
        getLe<std::uint64_t>(bytes.data() + bytes.size() - 8);
    const std::uint64_t got =
        fnvBytes(bytes.data(), bytes.size() - 8);
    if (want != got)
        return failure(sim::format(
            "checksum mismatch (stored %016llx, computed %016llx)",
            static_cast<unsigned long long>(want),
            static_cast<unsigned long long>(got)));

    const Section *metaSec = nullptr;
    const Section *paySec = nullptr;
    for (const Section &s : table) {
        if (s.id == kSectionMeta)
            metaSec = metaSec ? metaSec : &s;
        else if (s.id == kSectionPayload)
            paySec = paySec ? paySec : &s;
    }
    if (!metaSec || !paySec)
        return failure("missing metadata or payload section");

    sim::JsonLine obj;
    if (!obj.parse(std::string(
            reinterpret_cast<const char *>(bytes.data()) +
                metaSec->offset,
            metaSec->length)))
        return failure("metadata section is not a JSON object");

    LoadResult r;
    r.version = version;
    r.meta.keyCanonical = obj.str("key");
    r.meta.digest =
        std::strtoull(obj.str("digest").c_str(), nullptr, 16);
    r.meta.position = obj.num("position");
    r.meta.warmupSeed = obj.num("seed");
    if (r.meta.digest !=
        fnv1a64(kFnvOffsetBasis, r.meta.keyCanonical))
        return failure("metadata digest does not match its key");

    // The payload leaves in the archive's own buffer: slide the
    // section to the front and cut the rest off (shrinking keeps the
    // allocation, so nothing payload-sized is allocated or copied
    // between buffers).
    const std::size_t payOffset = paySec->offset;
    const std::size_t payLength = paySec->length;
    bytes.erase(bytes.begin(),
                bytes.begin() + static_cast<std::ptrdiff_t>(payOffset));
    bytes.resize(payLength);
    r.payload = std::move(bytes);
    r.ok = true;
    return r;
}

LoadResult
loadArchiveFile(const std::string &path)
{
    std::vector<std::uint8_t> bytes;
    std::string error;
    if (!sim::readWholeFile(path, bytes, &error))
        return failure(error);
    LoadResult r = parseArchive(std::move(bytes));
    if (!r.ok)
        r.error = path + ": " + r.error;
    return r;
}

std::uint32_t
peekArchiveVersion(const std::string &path)
{
    std::uint8_t head[12];
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return 0;
    const bool whole = std::fread(head, 1, sizeof(head), f) ==
                       sizeof(head);
    std::fclose(f);
    if (!whole || std::memcmp(head, kMagic, sizeof(kMagic)) != 0)
        return 0;
    return getLe<std::uint32_t>(head + 8);
}

} // namespace ckpt
} // namespace varsim
