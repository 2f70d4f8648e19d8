#include "campaign/segment.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <string_view>
#include <system_error>
#include <unordered_set>

#include "ckpt/archive.hh"
#include "sim/file_io.hh"
#include "sim/logging.hh"

namespace varsim
{
namespace campaign
{

using ckpt::fnvBytes;
using ckpt::getLe;
using ckpt::putLe;

namespace
{

constexpr char kMagic[8] = {'V', 'S', 'I', 'M', 'S', 'E', 'G', '1'};

/** Fixed bytes of one record before its metric pairs. */
constexpr std::size_t kRecordFixed = 8 * 8 + 4;

/** Bytes of one (dict index, value bits) metric pair. */
constexpr std::size_t kMetricPair = 4 + 8;

/** Bytes of one legacy footer entry (older builds' summaries). */
constexpr std::size_t kLegacyFooterEntry = 6 * 8;

void
putDouble(std::vector<std::uint8_t> &out, double v)
{
    putLe<std::uint64_t>(out, std::bit_cast<std::uint64_t>(v));
}

double
getDouble(const std::uint8_t *p)
{
    return std::bit_cast<double>(getLe<std::uint64_t>(p));
}

SegmentLoad
failure(const std::string &why)
{
    SegmentLoad r;
    r.error = why;
    return r;
}

} // anonymous namespace

std::vector<std::uint8_t>
buildSegment(const std::vector<const RunRecord *> &records)
{
    // Dictionary: sorted unique metric names across all records,
    // built from the distinct names (runs mostly repeat one set).
    std::unordered_set<std::string_view> seen;
    for (const RunRecord *r : records)
        for (const auto &kv : r->metrics)
            seen.insert(kv.first);
    std::vector<std::string> dict(seen.begin(), seen.end());
    std::sort(dict.begin(), dict.end());

    auto dictIdx = [&](const std::string &name) {
        const auto it =
            std::lower_bound(dict.begin(), dict.end(), name);
        return static_cast<std::uint32_t>(it - dict.begin());
    };

    std::size_t metricPairs = 0;
    std::size_t dictBytes = 0;
    for (const RunRecord *r : records)
        metricPairs += r->metrics.size();
    for (const std::string &name : dict)
        dictBytes += 4 + name.size();

    std::vector<std::uint8_t> out;
    out.reserve(32 + dictBytes + records.size() * kRecordFixed +
                metricPairs * kMetricPair + 8);

    for (char c : kMagic)
        out.push_back(static_cast<std::uint8_t>(c));
    putLe<std::uint32_t>(out, kSegmentVersion);
    putLe<std::uint32_t>(out,
                         static_cast<std::uint32_t>(dict.size()));
    putLe<std::uint64_t>(out, records.size());
    putLe<std::uint64_t>(out, 0); // legacy footer entries

    for (const std::string &name : dict) {
        putLe<std::uint32_t>(out,
                             static_cast<std::uint32_t>(
                                 name.size()));
        out.insert(out.end(), name.begin(), name.end());
    }

    for (const RunRecord *rec : records) {
        const RunRecord &r = *rec;
        putLe<std::uint64_t>(out, r.group);
        putLe<std::uint64_t>(out, r.runIdx);
        putLe<std::uint64_t>(out, r.configIdx);
        putLe<std::uint64_t>(out, r.ckptIdx);
        putLe<std::uint64_t>(out, r.seed);
        putDouble(out, r.cyclesPerTxn);
        putLe<std::uint64_t>(out, r.runtimeTicks);
        putLe<std::uint64_t>(out, r.txns);
        // Metric pairs sorted by dictionary index (= name order):
        // the canonical on-disk order, binary-searchable per record.
        std::vector<std::pair<std::uint32_t, double>> pairs;
        pairs.reserve(r.metrics.size());
        for (const auto &kv : r.metrics)
            pairs.emplace_back(dictIdx(kv.first), kv.second);
        std::sort(pairs.begin(), pairs.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        putLe<std::uint32_t>(out,
                             static_cast<std::uint32_t>(
                                 pairs.size()));
        for (const auto &p : pairs) {
            putLe<std::uint32_t>(out, p.first);
            putDouble(out, p.second);
        }
    }

    putLe<std::uint64_t>(out, fnvBytes(out.data(), out.size()));
    return out;
}

/** Shared parse over a byte span; fills @p view's index on success. */
struct SegmentParser
{
    /** A view over an owned byte buffer (the direct-parse form). */
    static std::shared_ptr<SegmentView>
    fromOwned(std::vector<std::uint8_t> bytes, const std::string &path)
    {
        std::shared_ptr<SegmentView> view(new SegmentView);
        view->owned = std::move(bytes);
        view->base = view->owned.data();
        view->size_ = view->owned.size();
        view->path = path;
        return view;
    }

    /** A view over an established mapping. */
    static std::shared_ptr<SegmentView>
    fromMapping(void *map, std::size_t len, const std::string &path)
    {
        std::shared_ptr<SegmentView> view(new SegmentView);
        view->mapping = map;
        view->mappingLen = len;
        view->base = static_cast<const std::uint8_t *>(map);
        view->size_ = len;
        view->path = path;
        return view;
    }

    /**
     * Check the header, start the whole-file checksum on its own
     * thread and walk the records while it runs. The checksum is
     * left running on success.
     */
    static SegmentLoad
    parse(std::shared_ptr<SegmentView> view)
    {
        const std::uint8_t *base = view->base;
        const std::size_t size = view->size_;

        if (size < 32 + 8)
            return failure(sim::format(
                "file too small (%zu bytes)", size));
        if (std::memcmp(base, kMagic, sizeof(kMagic)) != 0)
            return failure(
                "bad magic (not a varsim result segment)");
        const auto version = getLe<std::uint32_t>(base + 8);
        if (version != kSegmentVersion)
            return failure(sim::format(
                "unsupported segment version %u (this build "
                "reads %u)", version, kSegmentVersion));

        view->fnv = getLe<std::uint64_t>(base + size - 8);
        SegmentView &v = *view;
        const auto sum = [&v] {
            v.computed = fnvBytes(v.base, v.size_ - 8);
        };
        try {
            // Its own thread, not a HostThreadPool worker: those may
            // be busy with simulations the open would queue behind.
            view->checker = std::thread(sum);
        } catch (const std::system_error &) {
            sum(); // no thread to spare: check in line
        }

        SegmentLoad r = walk(*view);
        if (!r.ok) {
            // Damage that breaks the walk breaks the checksum too;
            // the mismatch is the error a load reports, as when the
            // checksum ran before the walk.
            const std::string mismatch = view->checksumMismatch();
            if (!mismatch.empty())
                r.error = mismatch;
            return r;
        }
        r.view = std::move(view);
        return r;
    }

    /**
     * The structural walk. Every frame is bounds-checked against the
     * file, so bytes that fail the checksum are refused or indexed,
     * never read out of bounds.
     */
    static SegmentLoad
    walk(SegmentView &view)
    {
        const std::uint8_t *base = view.base;
        const std::size_t size = view.size_;
        const auto dictCount = getLe<std::uint32_t>(base + 12);
        const auto runCount = getLe<std::uint64_t>(base + 16);
        const auto legacyCount = getLe<std::uint64_t>(base + 24);

        const std::size_t end = size - 8; // body end
        std::size_t pos = 32;

        // Counts are not yet vouched for: reserve no more entries
        // than the bytes could hold.
        view.dict.reserve(
            std::min<std::size_t>(dictCount, (end - pos) / 4));
        for (std::uint32_t d = 0; d < dictCount; ++d) {
            if (pos + 4 > end)
                return failure(
                    "truncated inside the metric dictionary");
            const auto len = getLe<std::uint32_t>(base + pos);
            pos += 4;
            if (len > end - pos)
                return failure(sim::format(
                    "dictionary entry %u declares %u bytes but "
                    "only %zu remain", d, len, end - pos));
            view.dict.emplace_back(
                reinterpret_cast<const char *>(base) + pos, len);
            pos += len;
            if (d > 0 && view.dict[d] <= view.dict[d - 1])
                return failure(
                    "dictionary names not sorted and unique");
        }

        view.index.reserve(static_cast<std::size_t>(
            std::min<std::uint64_t>(runCount,
                                    (end - pos) / kRecordFixed)));
        std::uint64_t lastG = 0, lastR = 0;
        for (std::uint64_t i = 0; i < runCount; ++i) {
            if (pos + kRecordFixed > end)
                return failure(sim::format(
                    "truncated inside record %llu of %llu",
                    static_cast<unsigned long long>(i),
                    static_cast<unsigned long long>(runCount)));
            const auto g = getLe<std::uint64_t>(base + pos);
            const auto r = getLe<std::uint64_t>(base + pos + 8);
            if (i > 0 &&
                (g < lastG || (g == lastG && r <= lastR)))
                return failure(sim::format(
                    "record keys not strictly increasing at "
                    "(%llu, %llu)",
                    static_cast<unsigned long long>(g),
                    static_cast<unsigned long long>(r)));
            lastG = g;
            lastR = r;
            const auto m = getLe<std::uint32_t>(
                base + pos + kRecordFixed - 4);
            view.index.push_back(
                {g, r, pos});
            pos += kRecordFixed;
            if (static_cast<std::size_t>(m) * kMetricPair >
                end - pos)
                return failure(sim::format(
                    "record (%llu, %llu) declares %u metrics but "
                    "only %zu bytes remain",
                    static_cast<unsigned long long>(g),
                    static_cast<unsigned long long>(r), m,
                    end - pos));
            std::uint32_t lastIdx = 0;
            for (std::uint32_t k = 0; k < m; ++k) {
                const auto idx = getLe<std::uint32_t>(base + pos);
                if (idx >= dictCount)
                    return failure(sim::format(
                        "record (%llu, %llu) references "
                        "dictionary entry %u of %u",
                        static_cast<unsigned long long>(g),
                        static_cast<unsigned long long>(r), idx,
                        dictCount));
                if (k > 0 && idx <= lastIdx)
                    return failure(
                        "record metric indices not sorted");
                lastIdx = idx;
                pos += kMetricPair;
            }
        }

        // Skip the footer an older writer left; dividing keeps a huge
        // declared count from overflowing the byte count.
        if (legacyCount > (end - pos) / kLegacyFooterEntry)
            return failure("truncated inside the legacy footer");
        pos += static_cast<std::size_t>(legacyCount) *
               kLegacyFooterEntry;

        if (pos != end)
            return failure(sim::format(
                "%zu byte(s) not covered by any frame",
                end - pos));

        SegmentLoad r;
        r.ok = true;
        return r;
    }
};

SegmentLoad
parseSegment(std::vector<std::uint8_t> bytes)
{
    SegmentLoad r = SegmentParser::parse(
        SegmentParser::fromOwned(std::move(bytes), ""));
    // Nothing to do beside the checksum here: await it at once.
    if (r.ok && !r.view->verify(&r.error)) {
        r.ok = false;
        r.view.reset();
    }
    return r;
}

SegmentLoad
loadSegmentFile(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return failure(sim::format("cannot open %s: %s",
                                   path.c_str(),
                                   std::strerror(errno)));
    struct stat sb;
    if (::fstat(fd, &sb) != 0 || sb.st_size <= 0) {
        ::close(fd);
        return failure(sim::format("cannot stat %s", path.c_str()));
    }
    const std::size_t len = static_cast<std::size_t>(sb.st_size);

    std::shared_ptr<SegmentView> view;
    void *map =
        ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
        view = SegmentParser::fromMapping(map, len, path);
        ::close(fd); // the mapping outlives the descriptor
    } else {
        // mmap can fail on exotic filesystems; fall back to a read.
        ::close(fd);
        std::vector<std::uint8_t> bytes;
        std::string error;
        if (!sim::readWholeFile(path, bytes, &error))
            return failure(error);
        view = SegmentParser::fromOwned(std::move(bytes), path);
    }

    SegmentLoad r = SegmentParser::parse(std::move(view));
    if (!r.ok)
        r.error = path + ": " + r.error;
    return r;
}

std::string
SegmentView::checksumMismatch()
{
    if (checker.joinable())
        checker.join();
    if (computed == fnv)
        return "";
    return sim::format("checksum mismatch (stored %016llx, computed "
                       "%016llx)",
                       static_cast<unsigned long long>(fnv),
                       static_cast<unsigned long long>(computed));
}

bool
SegmentView::verify(std::string *error)
{
    const std::string mismatch = checksumMismatch();
    if (mismatch.empty())
        return true;
    if (error)
        *error = path.empty() ? mismatch : path + ": " + mismatch;
    return false;
}

SegmentView::~SegmentView()
{
    if (checker.joinable())
        checker.join(); // it reads the bytes unmapped below
    if (mapping)
        ::munmap(mapping, mappingLen);
}

std::size_t
SegmentView::lowerBound(std::uint64_t group, std::uint64_t run) const
{
    const auto it = std::lower_bound(
        index.begin(), index.end(), std::make_pair(group, run),
        [](const Entry &e,
           const std::pair<std::uint64_t, std::uint64_t> &k) {
            return std::make_pair(e.group, e.run) < k;
        });
    return static_cast<std::size_t>(it - index.begin());
}

std::size_t
SegmentView::runsInGroup(std::size_t group) const
{
    return lowerBound(group + 1, 0) - lowerBound(group, 0);
}

SegmentView::Ref
SegmentView::find(std::size_t group, std::size_t run) const
{
    return at(lowerBound(group, run), group, run);
}

SegmentView::Ref
SegmentView::at(std::size_t pos, std::size_t group,
                std::size_t run) const
{
    if (pos >= index.size() || index[pos].group != group ||
        index[pos].run != run)
        return {};
    return {pos};
}

double
SegmentView::cyclesPerTxn(Ref r) const
{
    return getDouble(base + index[r.idx].offset + 40);
}

std::uint64_t
SegmentView::runtimeTicks(Ref r) const
{
    return getLe<std::uint64_t>(base + index[r.idx].offset + 48);
}

std::uint64_t
SegmentView::txns(Ref r) const
{
    return getLe<std::uint64_t>(base + index[r.idx].offset + 56);
}

RunRecord
SegmentView::materialize(Ref r) const
{
    const std::uint8_t *p = base + index[r.idx].offset;
    RunRecord rec;
    rec.group = getLe<std::uint64_t>(p);
    rec.runIdx = getLe<std::uint64_t>(p + 8);
    rec.configIdx = getLe<std::uint64_t>(p + 16);
    rec.ckptIdx = getLe<std::uint64_t>(p + 24);
    rec.seed = getLe<std::uint64_t>(p + 32);
    rec.cyclesPerTxn = getDouble(p + 40);
    rec.runtimeTicks = getLe<std::uint64_t>(p + 48);
    rec.txns = getLe<std::uint64_t>(p + 56);
    const auto m = getLe<std::uint32_t>(p + 64);
    rec.metrics.reserve(m);
    const std::uint8_t *q = p + kRecordFixed;
    for (std::uint32_t k = 0; k < m; ++k) {
        rec.metrics.emplace_back(
            dict[getLe<std::uint32_t>(q)], getDouble(q + 4));
        q += kMetricPair;
    }
    return rec;
}

int
SegmentView::dictIndex(const std::string &name) const
{
    const auto it =
        std::lower_bound(dict.begin(), dict.end(), name);
    if (it == dict.end() || *it != name)
        return -1;
    return static_cast<int>(it - dict.begin());
}

bool
SegmentView::metricValue(Ref r, std::uint32_t dictIdx,
                         double *out) const
{
    const std::uint8_t *p = base + index[r.idx].offset;
    const auto m = getLe<std::uint32_t>(p + 64);
    const std::uint8_t *q = p + kRecordFixed;
    // Pairs are sorted by dict index; binary search over the span.
    std::size_t lo = 0, hi = m;
    while (lo < hi) {
        const std::size_t mid = (lo + hi) / 2;
        const auto idx =
            getLe<std::uint32_t>(q + mid * kMetricPair);
        if (idx == dictIdx) {
            *out = getDouble(q + mid * kMetricPair + 4);
            return true;
        }
        if (idx < dictIdx)
            lo = mid + 1;
        else
            hi = mid;
    }
    return false;
}

} // namespace campaign
} // namespace varsim
