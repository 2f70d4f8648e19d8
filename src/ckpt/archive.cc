#include "ckpt/archive.hh"

#include <cstdlib>
#include <cstring>
#include <fstream>
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

/**
 * Read the metadata section's JSON into @p meta. Returns the reason
 * it cannot be read, or an empty string.
 */
std::string
parseMeta(std::string_view json, ArchiveMeta &meta)
{
    sim::JsonLine obj;
    if (!obj.parse(json))
        return "metadata section is not a JSON object";
    meta.keyCanonical = obj.str("key");
    meta.digest =
        std::strtoull(obj.str("digest").c_str(), nullptr, 16);
    meta.position = obj.num("position");
    meta.warmupSeed = obj.num("seed");
    if (meta.digest != fnv1a64(kFnvOffsetBasis, meta.keyCanonical))
        return "metadata digest does not match its key";
    return "";
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

std::string
formatName(std::uint32_t version)
{
    return std::to_string(version) +
           (version > kArchiveVersion ? " (newer build)" : "");
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

    // The container checks above hold for every version, so a newer
    // build's intact archive is told apart from a damaged one.
    if (version < 1 || version > kArchiveVersion) {
        LoadResult r = failure(sim::format(
            "unsupported format version %u%s (this build reads 1..%u)",
            version, version > kArchiveVersion ? " from a newer build"
                                               : "",
            kArchiveVersion));
        r.version = version;
        r.newer = version > kArchiveVersion;
        return r;
    }

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

    LoadResult r;
    r.version = version;
    const std::string why = parseMeta(
        std::string_view(reinterpret_cast<const char *>(bytes.data()) +
                             metaSec->offset,
                         metaSec->length),
        r.meta);
    if (!why.empty())
        return failure(why);

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

LoadResult
peekArchive(const std::string &path)
{
    LoadResult r;
    auto fail = [&](const std::string &why) {
        r.error = path + ": " + why;
        return r;
    };
    std::ifstream in(path, std::ios::binary);
    std::uint8_t head[16];
    in.read(reinterpret_cast<char *>(head), sizeof(head));
    if (in.gcount() < 12 ||
        std::memcmp(head, kMagic, sizeof(kMagic)) != 0)
        return fail("not a varsim checkpoint archive");
    r.version = getLe<std::uint32_t>(head + 8);
    if (!in || r.version < 1)
        return fail("unreadable header");
    const auto sections = getLe<std::uint32_t>(head + 12);
    if (sections == 0 || sections > kMaxSections)
        return fail("implausible section count");

    // Every length is checked against what the file still holds
    // before the checksum, so a damaged table never makes this read
    // (or allocate) past the file's end.
    in.seekg(0, std::ios::end);
    const auto size = static_cast<std::uint64_t>(in.tellg());
    std::uint8_t table[12 * kMaxSections];
    const std::uint64_t tableEnd = 16 + std::uint64_t{12} * sections;
    in.seekg(16);
    if (!in || tableEnd + 8 > size ||
        !in.read(reinterpret_cast<char *>(table), tableEnd - 16))
        return fail("truncated inside the section table");
    std::uint64_t offset = tableEnd;
    for (std::uint32_t s = 0; s < sections; ++s) {
        const auto len = getLe<std::uint64_t>(table + s * 12 + 4);
        if (len > size - 8 - offset)
            return fail("a section runs past the end of the file");
        if (getLe<std::uint32_t>(table + s * 12) == kSectionMeta) {
            std::string json(static_cast<std::size_t>(len), '\0');
            in.seekg(static_cast<std::streamoff>(offset));
            if (!in.read(json.data(),
                         static_cast<std::streamsize>(len)))
                return fail("truncated inside the metadata");
            const std::string why = parseMeta(json, r.meta);
            if (!why.empty())
                return fail(why);
            r.ok = true;
            return r;
        }
        offset += len;
    }
    return fail("missing metadata section");
}

} // namespace ckpt
} // namespace varsim
