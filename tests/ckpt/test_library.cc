/**
 * @file
 * Checkpoint-library tests: content-addressed publish/fetch, reopen
 * persistence, crash-safety (a killed writer leaves only swept-away
 * temporaries, never a corrupt published object), listing by a
 * metadata peek, an older build's index ignored, a failed publish
 * that warns, and gc eviction by age.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/archive.hh"
#include "ckpt/library.hh"
#include "core/varsim.hh"

namespace
{

using namespace varsim;

std::string
freshDir(const std::string &name)
{
    const auto p = std::filesystem::temp_directory_path() /
                   ("varsim_test_ckptlib_" + name + ".ckpt");
    std::filesystem::remove_all(p);
    return p.string();
}

/**
 * A key whose identity knobs are easy to vary. The library never
 * inspects payload bytes beyond storing them, so tests use small
 * synthetic snapshots instead of multi-megabyte real ones.
 */
ckpt::CheckpointKey
makeKey(std::uint64_t position = 15, std::uint64_t seed = 7,
        std::uint32_t l2AssocShift = 0)
{
    ckpt::CheckpointKey key;
    key.sys = core::SystemConfig::testDefault();
    key.sys.mem.l2Assoc <<= l2AssocShift;
    key.wl.kind = workload::WorkloadKind::Oltp;
    key.wl.threadsPerCpu = 2;
    key.warmupSeed = seed;
    key.position = position;
    return key;
}

core::Checkpoint
makeSnapshot(std::uint8_t tag = 0xa5)
{
    core::Checkpoint cp;
    for (int i = 0; i < 48; ++i)
        cp.bytes.push_back(static_cast<std::uint8_t>(tag ^ i));
    return cp;
}

std::string
soleObjectPath(const std::string &dir)
{
    for (const auto &e :
         std::filesystem::directory_iterator(dir + "/objects"))
        return e.path().string();
    ADD_FAILURE() << "no object file in " << dir;
    return "";
}

std::string
objectPath(const std::string &dir, const ckpt::CheckpointKey &key)
{
    return dir + "/objects/" + key.digestHex() + ".vckpt";
}

/**
 * Date @p key's object @p secondsAgo back. The library lists and
 * evicts oldest first by modification time, and two publishes in
 * one clock tick share a time, so tests that assert an order set it.
 */
void
age(const std::string &dir, const ckpt::CheckpointKey &key,
    int secondsAgo)
{
    std::filesystem::last_write_time(
        objectPath(dir, key),
        std::filesystem::file_time_type::clock::now() -
            std::chrono::seconds(secondsAgo));
}

TEST(CkptLibrary, PublishThenFetchRoundTrips)
{
    const std::string dir = freshDir("roundtrip");
    auto lib = ckpt::CheckpointLibrary::open(dir);

    const auto key = makeKey();
    const auto cp = makeSnapshot();
    EXPECT_TRUE(lib->publish(key, cp));

    core::Checkpoint got;
    ASSERT_TRUE(lib->fetch(key, got));
    EXPECT_EQ(got.bytes, cp.bytes);

    const auto st = lib->stats();
    EXPECT_EQ(st.entries, 1u);
    EXPECT_GT(st.bytes, cp.bytes.size());
}

TEST(CkptLibrary, AnyKeyDeltaIsAMiss)
{
    const std::string dir = freshDir("keydelta");
    auto lib = ckpt::CheckpointLibrary::open(dir);
    lib->publish(makeKey(), makeSnapshot());

    core::Checkpoint got;
    EXPECT_FALSE(lib->fetch(makeKey(16, 7, 0), got)); // position
    EXPECT_FALSE(lib->fetch(makeKey(15, 8, 0), got)); // warm seed
    EXPECT_FALSE(lib->fetch(makeKey(15, 7, 1), got)); // system knob
    EXPECT_TRUE(lib->fetch(makeKey(), got));
}

TEST(CkptLibrary, ReopenSeesPublishedEntries)
{
    const std::string dir = freshDir("reopen");
    {
        auto lib = ckpt::CheckpointLibrary::open(dir);
        lib->publish(makeKey(10), makeSnapshot(0x10));
        lib->publish(makeKey(20), makeSnapshot(0x20));
    }
    age(dir, makeKey(10), 20);
    age(dir, makeKey(20), 10);
    auto lib = ckpt::CheckpointLibrary::open(dir);
    const auto entries = lib->entries();
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].position, 10u);
    EXPECT_EQ(entries[1].position, 20u);

    core::Checkpoint got;
    ASSERT_TRUE(lib->fetch(makeKey(20), got));
    EXPECT_EQ(got.bytes, makeSnapshot(0x20).bytes);
}

TEST(CkptLibrary, RepublishAndCrossProcessRaceReturnFalse)
{
    const std::string dir = freshDir("race");
    auto a = ckpt::CheckpointLibrary::open(dir);
    EXPECT_TRUE(a->publish(makeKey(), makeSnapshot()));
    EXPECT_FALSE(a->publish(makeKey(), makeSnapshot()));

    // A second handle on the same directory — another shard — loses
    // the race benignly: the object already exists.
    auto b = ckpt::CheckpointLibrary::open(dir);
    EXPECT_FALSE(b->publish(makeKey(), makeSnapshot()));
    EXPECT_EQ(b->stats().entries, 1u);
}

TEST(CkptLibrary, CorruptObjectIsAMissNeverAnAbort)
{
    const std::string dir = freshDir("corrupt");
    auto lib = ckpt::CheckpointLibrary::open(dir);
    lib->publish(makeKey(), makeSnapshot());

    // Flip one payload byte on disk.
    const std::string obj = soleObjectPath(dir);
    {
        std::fstream f(obj, std::ios::in | std::ios::out |
                                std::ios::binary);
        f.seekp(40);
        f.put('\x77');
    }

    core::Checkpoint got;
    EXPECT_FALSE(lib->fetch(makeKey(), got));

    auto rep = lib->verify();
    EXPECT_FALSE(rep.clean());
    EXPECT_EQ(rep.corrupt, 1u);

    // gc sweeps the corrupt object; afterwards the library is clean
    // (and empty) again.
    const auto gc = lib->gc();
    EXPECT_EQ(gc.removedCorrupt, 1u);
    EXPECT_FALSE(std::filesystem::exists(obj));
    EXPECT_TRUE(lib->verify().clean());
    EXPECT_TRUE(lib->entries().empty());
}

TEST(CkptLibrary, TruncatedObjectIsAMiss)
{
    const std::string dir = freshDir("truncobj");
    auto lib = ckpt::CheckpointLibrary::open(dir);
    lib->publish(makeKey(), makeSnapshot());

    const std::string obj = soleObjectPath(dir);
    const auto size = std::filesystem::file_size(obj);
    std::filesystem::resize_file(obj, size / 2);

    core::Checkpoint got;
    EXPECT_FALSE(lib->fetch(makeKey(), got));
    EXPECT_EQ(lib->verify().corrupt, 1u);
}

TEST(CkptLibrary, KilledWriterLeavesOnlySweptTemporaries)
{
    const std::string dir = freshDir("killed");
    auto lib = ckpt::CheckpointLibrary::open(dir);
    lib->publish(makeKey(), makeSnapshot());

    // A writer killed before rename(2) leaves a ".tmp." file and
    // nothing else — published objects are never half-written.
    const std::string debris =
        dir + "/objects/deadbeef.vckpt.tmp.1234.0";
    std::ofstream(debris, std::ios::binary) << "partial";
    ASSERT_TRUE(std::filesystem::exists(debris));

    // The debris is invisible to fetch and verify...
    core::Checkpoint got;
    EXPECT_TRUE(lib->fetch(makeKey(), got));
    EXPECT_TRUE(lib->verify().clean());

    // ...and gc sweeps it.
    const auto gc = lib->gc();
    EXPECT_EQ(gc.removedTmp, 1u);
    EXPECT_FALSE(std::filesystem::exists(debris));
    EXPECT_TRUE(lib->fetch(makeKey(), got));
}

TEST(CkptLibrary, GcEvictsOldestBeyondTheByteBudget)
{
    const std::string dir = freshDir("evict");
    auto lib = ckpt::CheckpointLibrary::open(dir);
    lib->publish(makeKey(10), makeSnapshot(0x10));
    lib->publish(makeKey(20), makeSnapshot(0x20));
    lib->publish(makeKey(30), makeSnapshot(0x30));
    age(dir, makeKey(10), 30);
    age(dir, makeKey(20), 20);
    age(dir, makeKey(30), 10);

    const auto entries = lib->entries();
    ASSERT_EQ(entries.size(), 3u);
    const std::uint64_t keepTwo =
        entries[1].bytes + entries[2].bytes;

    const auto gc = lib->gc(keepTwo);
    EXPECT_EQ(gc.evicted, 1u);
    EXPECT_LE(gc.bytesKept, keepTwo);

    // Oldest-published gone, newer two still served.
    core::Checkpoint got;
    EXPECT_FALSE(lib->fetch(makeKey(10), got));
    EXPECT_TRUE(lib->fetch(makeKey(20), got));
    EXPECT_TRUE(lib->fetch(makeKey(30), got));

    // A reopen lists what is left.
    auto again = ckpt::CheckpointLibrary::open(dir);
    EXPECT_EQ(again->entries().size(), 2u);
}

TEST(CkptLibraryDeathTest, GcRefusesWhileAnotherHandleIsOpen)
{
    // Cross-process (and cross-handle) protection is the .lock
    // flock: gc needs it exclusively, so a sweep cannot run while
    // a daemon or campaign shard has the library open.
    const std::string dir = freshDir("gclock");
    auto a = ckpt::CheckpointLibrary::open(dir);
    a->publish(makeKey(), makeSnapshot());
    auto b = ckpt::CheckpointLibrary::open(dir);
    EXPECT_DEATH(a->gc(), "exclusive");
}

TEST(CkptLibrary, ConcurrentFetchesMatchSerial)
{
    // fetch() reads, checks and unpacks an archive with nothing
    // shared but the files. Eight threads fetching a mix of present,
    // absent and corrupt objects must each see, call by call, the
    // result and payload a lone caller sees.
    const std::string dir = freshDir("concurrent");
    auto lib = ckpt::CheckpointLibrary::open(dir);

    std::vector<ckpt::CheckpointKey> keys;
    std::vector<core::Checkpoint> want; // empty: the fetch misses
    for (std::uint64_t pos = 10; pos < 16; ++pos) {
        core::Checkpoint cp;
        cp.bytes.resize(64 * 1024);
        for (std::size_t i = 0; i < cp.bytes.size(); ++i)
            cp.bytes[i] = static_cast<std::uint8_t>(pos * 131 + i * 7);
        ASSERT_TRUE(lib->publish(makeKey(pos), cp));
        keys.push_back(makeKey(pos));
        want.push_back(cp);
    }
    for (std::uint64_t pos = 100; pos < 104; ++pos) {
        keys.push_back(makeKey(pos)); // never published
        want.emplace_back();
    }
    {
        // Flip one payload bit of the third object.
        const std::string obj =
            dir + "/objects/" + keys[2].digestHex() + ".vckpt";
        std::fstream f(obj, std::ios::in | std::ios::out |
                                std::ios::binary);
        f.seekg(4096);
        const char c = static_cast<char>(f.get());
        f.seekp(4096);
        f.put(static_cast<char>(c ^ 0x10));
        want[2] = {};
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
        core::Checkpoint got;
        EXPECT_EQ(lib->fetch(keys[i], got), !want[i].empty()) << i;
        EXPECT_EQ(got.bytes, want[i].bytes) << i;
    }

    constexpr std::size_t kThreads = 8, kRounds = 2;
    std::atomic<std::size_t> wrong{0};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (std::size_t r = 0; r < kRounds; ++r) {
                for (std::size_t j = 0; j < keys.size(); ++j) {
                    // Staggered orders: threads collide on every
                    // object, not in lockstep on the same one.
                    const std::size_t i = (j + t) % keys.size();
                    core::Checkpoint got;
                    const bool hit = lib->fetch(keys[i], got);
                    if (hit != !want[i].empty() ||
                        got.bytes != want[i].bytes)
                        ++wrong;
                }
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(wrong.load(), 0u);
    EXPECT_EQ(lib->stats().entries, 6u);
}

/** Everything entries() reports about each object, one line each. */
std::string
listing(const ckpt::CheckpointLibrary &lib)
{
    std::string out;
    for (const auto &e : lib.entries())
        out += e.digestHex + " " + std::to_string(e.position) + " " +
               std::to_string(e.warmupSeed) + " " +
               std::to_string(e.bytes) + " " +
               std::to_string(e.format) + " " + e.key + "\n";
    return out;
}

TEST(CkptLibrary, LegacyIndexIsIgnored)
{
    // Older builds kept an index.jsonl beside the objects. A stale
    // entry, a duplicate and a torn last line in one change nothing
    // the library reports, and gc deletes the file.
    const std::string dir = freshDir("legacyindex");
    auto lib = ckpt::CheckpointLibrary::open(dir);
    lib->publish(makeKey(10), makeSnapshot(0x10));
    lib->publish(makeKey(20), makeSnapshot(0x20));
    age(dir, makeKey(10), 20);
    age(dir, makeKey(20), 10);
    const std::string before = listing(*lib);
    const auto statsBefore = lib->stats();
    const std::string verifyBefore = lib->verify().toString();

    auto line = [](const ckpt::CheckpointKey &key,
                   std::uint64_t bytes) {
        return "{\"type\":\"ckpt\",\"digest\":\"" + key.digestHex() +
               "\",\"bytes\":" + std::to_string(bytes) +
               ",\"position\":" + std::to_string(key.position) +
               ",\"seed\":" + std::to_string(key.warmupSeed) +
               ",\"key\":\"" + key.canonical() + "\"}\n";
    };
    {
        std::ofstream f(dir + "/index.jsonl", std::ios::binary);
        f << line(makeKey(10), 100) << line(makeKey(10), 100)
          << line(makeKey(99), 100) // no such object
          << "{\"type\":\"ckpt\",\"digest\":\"0000";
    }

    EXPECT_EQ(listing(*lib), before);
    EXPECT_EQ(lib->stats().entries, statsBefore.entries);
    EXPECT_EQ(lib->stats().bytes, statsBefore.bytes);
    EXPECT_EQ(lib->verify().toString(), verifyBefore);
    core::Checkpoint got;
    EXPECT_TRUE(lib->fetch(makeKey(10), got));
    EXPECT_TRUE(lib->fetch(makeKey(20), got));
    EXPECT_FALSE(lib->fetch(makeKey(99), got));

    const auto gc = lib->gc();
    EXPECT_EQ(gc.evicted + gc.removedCorrupt + gc.removedTmp, 0u);
    EXPECT_FALSE(std::filesystem::exists(dir + "/index.jsonl"));
    EXPECT_EQ(listing(*lib), before);
}

TEST(CkptLibrary, ListingPeeksMetadataAndNamesDamageFormatZero)
{
    // entries() reads each object's header, section table and
    // metadata only. It agrees with a full load on intact objects,
    // and lists a damaged one with format 0 without reading (or
    // allocating) past the file's end.
    const std::string dir = freshDir("peek");
    auto lib = ckpt::CheckpointLibrary::open(dir);
    std::vector<ckpt::CheckpointKey> keys;
    for (std::uint64_t pos = 10; pos < 16; ++pos) {
        keys.push_back(makeKey(pos, 7 + pos));
        ASSERT_TRUE(lib->publish(
            keys.back(), makeSnapshot(static_cast<std::uint8_t>(pos))));
    }

    auto entries = lib->entries();
    ASSERT_EQ(entries.size(), keys.size());
    for (const auto &e : entries) {
        const std::string path =
            dir + "/objects/" + e.digestHex + ".vckpt";
        const auto r = ckpt::loadArchiveFile(path);
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_EQ(e.key, r.meta.keyCanonical);
        EXPECT_EQ(e.position, r.meta.position);
        EXPECT_EQ(e.warmupSeed, r.meta.warmupSeed);
        EXPECT_EQ(e.format, r.version);
        EXPECT_EQ(e.bytes, std::filesystem::file_size(path));
    }

    // The metadata section's length lives at bytes 20..27 (the first
    // section-table entry).
    auto setMetaLength = [&](const ckpt::CheckpointKey &key,
                             std::uint64_t len) {
        std::fstream f(objectPath(dir, key), std::ios::in |
                                                 std::ios::out |
                                                 std::ios::binary);
        f.seekp(20);
        for (int i = 0; i < 8; ++i)
            f.put(static_cast<char>(len >> (8 * i)));
    };
    std::filesystem::resize_file(objectPath(dir, keys[0]), 20);
    std::ofstream(objectPath(dir, keys[1]),
                  std::ios::binary | std::ios::trunc)
        << "not an archive at all, just some bytes";
    setMetaLength(keys[2],
                  std::filesystem::file_size(objectPath(dir, keys[2])));
    setMetaLength(keys[3], std::uint64_t{1} << 62);
    const std::size_t damaged = 4;

    entries = lib->entries();
    ASSERT_EQ(entries.size(), keys.size());
    for (const auto &e : entries) {
        const std::size_t k =
            std::find_if(keys.begin(), keys.end(),
                         [&](const ckpt::CheckpointKey &key) {
                             return key.digestHex() == e.digestHex;
                         }) -
            keys.begin();
        ASSERT_LT(k, keys.size());
        EXPECT_EQ(e.bytes,
                  std::filesystem::file_size(objectPath(dir, keys[k])));
        if (k < damaged) {
            EXPECT_EQ(e.format, 0u) << k;
            EXPECT_EQ(e.position, 0u) << k;
            EXPECT_TRUE(e.key.empty()) << k;
        } else {
            EXPECT_EQ(e.format, ckpt::kArchiveVersion) << k;
            EXPECT_EQ(e.key, keys[k].canonical()) << k;
        }
    }
    const auto rep = lib->verify();
    EXPECT_EQ(rep.corrupt, damaged);
    EXPECT_EQ(rep.ok, keys.size() - damaged);
}

TEST(CkptLibrary, FailedPublishWarnsAndTheCallerCarriesOn)
{
    // A checkpoint is a cache entry: a publish that cannot write
    // (here objects/ turned into a regular file, ENOTDIR even for
    // root) returns false instead of exiting the process, and the
    // library reports what it can see without throwing.
    const std::string dir = freshDir("publishfail");
    auto lib = ckpt::CheckpointLibrary::open(dir);
    ASSERT_TRUE(lib->publish(makeKey(10), makeSnapshot(0x10)));
    std::filesystem::remove_all(dir + "/objects");
    std::ofstream(dir + "/objects") << "not a directory";

    EXPECT_FALSE(lib->publish(makeKey(20), makeSnapshot(0x20)));
    core::Checkpoint got;
    EXPECT_FALSE(lib->fetch(makeKey(10), got));
    EXPECT_FALSE(lib->fetch(makeKey(20), got));
    EXPECT_TRUE(lib->entries().empty());
    const auto st = lib->stats();
    EXPECT_EQ(st.entries, 0u);
    EXPECT_EQ(st.bytes, 0u);
    EXPECT_TRUE(lib->verify().clean());
}

/** Rewrite the archive at @p path as format @p version, checksum
 *  and all: what a build that wrote that format left on disk. */
void
restampVersion(const std::string &path, std::uint32_t version)
{
    std::vector<std::uint8_t> bytes;
    {
        std::ifstream f(path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(f), {});
    }
    ASSERT_GT(bytes.size(), 20u);
    for (std::size_t i = 0; i < 4; ++i)
        bytes[8 + i] = static_cast<std::uint8_t>(version >> (8 * i));
    const std::uint64_t sum =
        ckpt::fnvBytes(bytes.data(), bytes.size() - 8);
    for (std::size_t i = 0; i < 8; ++i)
        bytes[bytes.size() - 8 + i] =
            static_cast<std::uint8_t>(sum >> (8 * i));
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(reinterpret_cast<const char *>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
}

TEST(CkptLibrary, VerifyAndListNameEachObjectsFormat)
{
    // A library written before format 2 keeps serving: its objects
    // verify, fetch with their format, and are counted so a user can
    // see how much of the library predates this build.
    const std::string dir = freshDir("formats");
    auto lib = ckpt::CheckpointLibrary::open(dir);
    const auto oldKey = makeKey(15);
    const auto newKey = makeKey(30);
    lib->publish(oldKey, makeSnapshot(0x11));
    lib->publish(newKey, makeSnapshot(0x22));
    ASSERT_NO_FATAL_FAILURE(restampVersion(
        dir + "/objects/" + oldKey.digestHex() + ".vckpt", 1));

    const auto entries = lib->entries();
    ASSERT_EQ(entries.size(), 2u);
    for (const auto &e : entries)
        EXPECT_EQ(e.format, e.digestHex == oldKey.digestHex()
                                ? 1u
                                : ckpt::kArchiveVersion);

    const auto rep = lib->verify();
    EXPECT_TRUE(rep.clean()) << rep.toString();
    EXPECT_EQ(rep.ok, 2u);
    EXPECT_EQ(rep.format1, 1u);
    ASSERT_EQ(rep.objects.size(), 2u);
    for (const auto &o : rep.objects) {
        EXPECT_TRUE(o.ok) << o.digestHex;
        EXPECT_EQ(o.format, o.digestHex == oldKey.digestHex()
                                ? 1u
                                : ckpt::kArchiveVersion);
    }
    const std::string text = rep.toString();
    EXPECT_NE(text.find("1 in format 1"), std::string::npos) << text;
    EXPECT_NE(text.find(oldKey.digestHex() + "  format 1  ok"),
              std::string::npos)
        << text;

    // The payload comes back tagged with the format it was written
    // in, which is what tells a restore how to read its cache lines.
    core::Checkpoint got;
    ASSERT_TRUE(lib->fetch(oldKey, got));
    EXPECT_EQ(got.format, 1u);
    EXPECT_EQ(got.bytes, makeSnapshot(0x11).bytes);
    ASSERT_TRUE(lib->fetch(newKey, got));
    EXPECT_EQ(got.format, sim::kCheckpointFormat);

    // A damaged object is named with whatever its header says.
    {
        std::ofstream f(dir + "/objects/" + newKey.digestHex() +
                            ".vckpt",
                        std::ios::binary | std::ios::app);
        f << "x";
    }
    const auto damaged = lib->verify();
    EXPECT_EQ(damaged.corrupt, 1u);
    EXPECT_EQ(damaged.format1, 1u);
    EXPECT_NE(damaged.toString().find(
                  newKey.digestHex() + "  format " +
                  std::to_string(ckpt::kArchiveVersion) + "  corrupt"),
              std::string::npos)
        << damaged.toString();
}

TEST(CkptLibrary, NewerBuildsObjectIsKeptNotCorrupt)
{
    // An intact archive in a format above this build's is a newer
    // build's object, not damage: it is named, kept by gc, and a
    // fetch of it misses (this build re-warms and, finding the
    // object on disk, publishes nothing over it).
    const std::string dir = freshDir("newer");
    auto lib = ckpt::CheckpointLibrary::open(dir);
    const auto key = makeKey(45);
    const auto mine = makeKey(60);
    ASSERT_TRUE(lib->publish(key, makeSnapshot(0x33)));
    ASSERT_TRUE(lib->publish(mine, makeSnapshot(0x44)));
    const std::string path = objectPath(dir, key);
    const std::uint32_t future = ckpt::kArchiveVersion + 1;
    ASSERT_NO_FATAL_FAILURE(restampVersion(path, future));
    const auto size = std::filesystem::file_size(path);

    const auto entries = lib->entries();
    ASSERT_EQ(entries.size(), 2u);
    for (const auto &e : entries) {
        EXPECT_EQ(e.format, e.digestHex == key.digestHex()
                                ? future
                                : ckpt::kArchiveVersion);
        EXPECT_FALSE(e.key.empty());
    }

    const auto rep = lib->verify();
    EXPECT_TRUE(rep.clean()) << rep.toString();
    EXPECT_EQ(rep.corrupt, 0u);
    EXPECT_EQ(rep.ok, 1u);
    EXPECT_EQ(rep.newer, 1u);
    const std::string text = rep.toString();
    EXPECT_NE(text.find(key.digestHex() + "  format " +
                        std::to_string(future) + " (newer build)  ok"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("1 from a newer build"), std::string::npos)
        << text;

    core::Checkpoint got;
    EXPECT_FALSE(lib->fetch(key, got));
    EXPECT_FALSE(lib->publish(key, makeSnapshot(0x33)));
    EXPECT_TRUE(lib->fetch(mine, got));

    const auto gc = lib->gc();
    EXPECT_EQ(gc.removedCorrupt, 0u) << gc.toString();
    ASSERT_TRUE(std::filesystem::exists(path));
    EXPECT_EQ(std::filesystem::file_size(path), size);
    EXPECT_EQ(lib->entries().size(), 2u);
}

TEST(CkptLibraryDeathTest, PublishingAnOlderFormatIsABug)
{
    const std::string dir = freshDir("publishold");
    auto lib = ckpt::CheckpointLibrary::open(dir);
    core::Checkpoint old = makeSnapshot();
    old.format = 1;
    EXPECT_DEATH(lib->publish(makeKey(), old), "format-1 snapshot");
}

} // namespace
