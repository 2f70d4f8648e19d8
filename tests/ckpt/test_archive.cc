/**
 * @file
 * Archive-format tests: the on-disk checkpoint container must reject
 * every truncation and every bit flip with a description — never
 * misdeserialize, never abort — and atomic publication must leave
 * either the whole file or nothing.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "ckpt/archive.hh"
#include "ckpt/key.hh"
#include "sim/file_io.hh"

namespace
{

using namespace varsim;

ckpt::ArchiveMeta
sampleMeta()
{
    ckpt::ArchiveMeta meta;
    meta.keyCanonical = "nodes=4;block=64;wl=OLTP;pos=15;";
    // The parser cross-checks this against the key string.
    meta.digest =
        ckpt::fnv1a64(ckpt::kFnvOffsetBasis, meta.keyCanonical);
    meta.position = 15;
    meta.warmupSeed = 42;
    return meta;
}

std::vector<std::uint8_t>
samplePayload()
{
    std::vector<std::uint8_t> p;
    for (int i = 0; i < 64; ++i)
        p.push_back(static_cast<std::uint8_t>(i * 7 + 3));
    return p;
}

std::string
scratchDir(const std::string &name)
{
    const auto p = std::filesystem::temp_directory_path() /
                   ("varsim_test_archive_" + name);
    std::filesystem::remove_all(p);
    std::filesystem::create_directories(p);
    return p.string();
}

TEST(CkptArchive, RoundTripPreservesMetaAndPayload)
{
    const auto meta = sampleMeta();
    const auto payload = samplePayload();
    const auto bytes = ckpt::buildArchive(meta, payload);

    const auto r = ckpt::parseArchive(bytes);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.meta.keyCanonical, meta.keyCanonical);
    EXPECT_EQ(r.meta.digest, meta.digest);
    EXPECT_EQ(r.meta.position, meta.position);
    EXPECT_EQ(r.meta.warmupSeed, meta.warmupSeed);
    EXPECT_EQ(r.payload, payload);
}

TEST(CkptArchive, ArchiveBytesAreDeterministic)
{
    // Byte-identical archives are what make the publication race
    // between shards benign.
    const auto a = ckpt::buildArchive(sampleMeta(), samplePayload());
    const auto b = ckpt::buildArchive(sampleMeta(), samplePayload());
    EXPECT_EQ(a, b);
}

TEST(CkptArchive, TruncationAtEveryLengthIsRejected)
{
    const auto bytes =
        ckpt::buildArchive(sampleMeta(), samplePayload());
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        const std::vector<std::uint8_t> cut(bytes.begin(),
                                            bytes.begin() + len);
        const auto r = ckpt::parseArchive(cut);
        EXPECT_FALSE(r.ok) << "truncation to " << len
                           << " bytes parsed as valid";
        EXPECT_FALSE(r.error.empty());
    }
}

TEST(CkptArchive, EveryBitFlipIsRejected)
{
    // The trailing checksum covers every preceding byte and is
    // itself part of the match, so no single corrupt byte anywhere
    // in the file may survive parsing.
    const auto bytes =
        ckpt::buildArchive(sampleMeta(), samplePayload());
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        auto bad = bytes;
        bad[i] ^= 0x40;
        const auto r = ckpt::parseArchive(bad);
        EXPECT_FALSE(r.ok)
            << "flip at byte " << i << " parsed as valid";
    }
}

TEST(CkptArchive, TrailingGarbageIsRejected)
{
    auto bytes = ckpt::buildArchive(sampleMeta(), samplePayload());
    bytes.push_back(0);
    EXPECT_FALSE(ckpt::parseArchive(bytes).ok);
}

TEST(CkptArchive, WrongMagicAndVersionAreDescribed)
{
    auto bytes = ckpt::buildArchive(sampleMeta(), samplePayload());
    {
        auto bad = bytes;
        bad[0] = 'X';
        const auto r = ckpt::parseArchive(bad);
        ASSERT_FALSE(r.ok);
        EXPECT_NE(r.error.find("magic"), std::string::npos)
            << r.error;
    }
    {
        auto bad = bytes;
        bad[8] = 0x7f; // version field
        // Fix up the checksum so the version check is what fires.
        // (Cheaper: just assert it fails for *some* reason.)
        const auto r = ckpt::parseArchive(bad);
        EXPECT_FALSE(r.ok);
    }
}

TEST(CkptArchive, AtomicWriteThenLoadRoundTrips)
{
    const std::string dir = scratchDir("atomic");
    const auto bytes =
        ckpt::buildArchive(sampleMeta(), samplePayload());

    std::string err;
    ASSERT_TRUE(sim::writeFileAtomic(dir, "obj.vckpt", bytes, &err))
        << err;

    // No temporary debris after a successful publication.
    for (const auto &e : std::filesystem::directory_iterator(dir))
        EXPECT_EQ(e.path().filename().string(), "obj.vckpt");

    const auto r = ckpt::loadArchiveFile(dir + "/obj.vckpt");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.payload, samplePayload());
}

TEST(CkptArchive, MissingFileIsAnErrorNamingThePath)
{
    const auto r = ckpt::loadArchiveFile("/nonexistent/no.vckpt");
    ASSERT_FALSE(r.ok);
    EXPECT_NE(r.error.find("no.vckpt"), std::string::npos)
        << r.error;
}

TEST(CkptArchive, TruncatedFileOnDiskIsRejected)
{
    const std::string dir = scratchDir("truncfile");
    const auto bytes =
        ckpt::buildArchive(sampleMeta(), samplePayload());

    // A file cut mid-payload — what a powered-off non-atomic writer
    // would have left — must be rejected on load.
    std::ofstream out(dir + "/cut.vckpt", std::ios::binary);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size() / 2));
    out.close();

    const auto r = ckpt::loadArchiveFile(dir + "/cut.vckpt");
    EXPECT_FALSE(r.ok);
}

TEST(CkptArchive, EmptyPayloadRoundTrips)
{
    const auto bytes = ckpt::buildArchive(sampleMeta(), {});
    const auto r = ckpt::parseArchive(bytes);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.payload.empty());
}

/** @p bytes with header version @p v and a checksum that matches. */
std::vector<std::uint8_t>
withVersion(std::vector<std::uint8_t> bytes, std::uint32_t v)
{
    for (std::size_t i = 0; i < 4; ++i)
        bytes[8 + i] = static_cast<std::uint8_t>(v >> (8 * i));
    const std::uint64_t sum =
        ckpt::fnvBytes(bytes.data(), bytes.size() - 8);
    for (std::size_t i = 0; i < 8; ++i)
        bytes[bytes.size() - 8 + i] =
            static_cast<std::uint8_t>(sum >> (8 * i));
    return bytes;
}

TEST(CkptArchive, ReadsEveryFormatUpToItsOwnAndNamesIt)
{
    const auto bytes = ckpt::buildArchive(sampleMeta(), samplePayload());
    EXPECT_EQ(ckpt::kArchiveVersion, sim::kCheckpointFormat);
    EXPECT_EQ(bytes[8], ckpt::kArchiveVersion)
        << "buildArchive writes the payload's format";

    for (std::uint32_t v = 1; v <= ckpt::kArchiveVersion; ++v) {
        const auto r = ckpt::parseArchive(withVersion(bytes, v));
        ASSERT_TRUE(r.ok) << v << ": " << r.error;
        EXPECT_EQ(r.version, v);
        EXPECT_EQ(r.payload, samplePayload());
    }
    for (std::uint32_t v : {0u, ckpt::kArchiveVersion + 1}) {
        const auto r = ckpt::parseArchive(withVersion(bytes, v));
        ASSERT_FALSE(r.ok) << v;
        EXPECT_NE(r.error.find("unsupported format version " +
                               std::to_string(v)),
                  std::string::npos)
            << r.error;
        // An intact archive a newer build wrote is not damage.
        EXPECT_EQ(r.newer, v != 0) << v;
        EXPECT_EQ(r.version, v);
    }
    // The checksum is checked whatever the version says, so a newer
    // archive that is damaged is damaged.
    auto flipped = withVersion(bytes, ckpt::kArchiveVersion + 1);
    flipped[flipped.size() / 2] ^= 0x10;
    const auto bad = ckpt::parseArchive(flipped);
    EXPECT_FALSE(bad.ok);
    EXPECT_FALSE(bad.newer);
    EXPECT_NE(bad.error.find("checksum mismatch"), std::string::npos)
        << bad.error;
    EXPECT_EQ(ckpt::formatName(ckpt::kArchiveVersion),
              std::to_string(ckpt::kArchiveVersion));
    EXPECT_EQ(ckpt::formatName(ckpt::kArchiveVersion + 1),
              std::to_string(ckpt::kArchiveVersion + 1) +
                  " (newer build)");

    // The header and metadata alone name the version, without a
    // full load.
    const std::string dir = scratchDir("peek");
    std::string err;
    ASSERT_TRUE(sim::writeFileAtomic(dir, "v1.vckpt",
                                     withVersion(bytes, 1), &err))
        << err;
    const auto v1 = ckpt::peekArchive(dir + "/v1.vckpt");
    EXPECT_TRUE(v1.ok) << v1.error;
    EXPECT_EQ(v1.version, 1u);
    EXPECT_TRUE(v1.payload.empty());
    ASSERT_TRUE(sim::writeFileAtomic(
        dir, "newer.vckpt", withVersion(bytes, ckpt::kArchiveVersion + 1),
        &err))
        << err;
    const auto newer = ckpt::peekArchive(dir + "/newer.vckpt");
    EXPECT_TRUE(newer.ok) << newer.error;
    EXPECT_EQ(newer.version, ckpt::kArchiveVersion + 1);
    EXPECT_EQ(newer.meta.position, sampleMeta().position);
    EXPECT_EQ(ckpt::peekArchive(dir + "/none.vckpt").version, 0u);
    std::ofstream(dir + "/short.vckpt") << "VSIMCKPT";
    EXPECT_EQ(ckpt::peekArchive(dir + "/short.vckpt").version, 0u);
}

} // namespace
