#include "sim/file_io.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <vector>

#include "sim/logging.hh"

namespace varsim
{
namespace sim
{

namespace
{

/** read(2) until @p n bytes or end of file; -1 on error. */
ssize_t
readFully(int fd, char *p, std::size_t n)
{
    std::size_t got = 0;
    while (got < n) {
        const ssize_t r = ::read(fd, p + got, n - got);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            return -1;
        }
        if (r == 0)
            break;
        got += static_cast<std::size_t>(r);
    }
    return static_cast<ssize_t>(got);
}

} // anonymous namespace

template <typename Bytes>
bool
readWholeFile(const std::string &path, Bytes &out, std::string *error)
{
    int fd = -1;
    auto fail = [&](const char *what) {
        const int err = errno;
        if (fd >= 0)
            ::close(fd);
        if (error)
            *error = format("cannot %s %s: %s", what, path.c_str(),
                            std::strerror(err));
        out.clear();
        return false;
    };

    do {
        fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    } while (fd < 0 && errno == EINTR);
    if (fd < 0)
        return fail("open");
    struct stat sb;
    if (::fstat(fd, &sb) != 0)
        return fail("stat");

    // The common case: the file is exactly its fstat size and one
    // buffer holds it. A file that shrank ends the read early; one
    // that grew is read on in chunks until read(2) reports its end.
    const std::size_t size =
        sb.st_size > 0 ? static_cast<std::size_t>(sb.st_size) : 0;
    out.resize(size);
    ssize_t n =
        readFully(fd, reinterpret_cast<char *>(out.data()), size);
    if (n >= 0 && static_cast<std::size_t>(n) < size) {
        out.resize(static_cast<std::size_t>(n));
    } else if (n >= 0) {
        char chunk[1 << 16];
        while ((n = readFully(fd, chunk, sizeof(chunk))) > 0)
            out.insert(out.end(), chunk, chunk + n);
    }
    if (n < 0)
        return fail("read");
    ::close(fd);
    return true;
}

template bool readWholeFile(const std::string &, std::string &,
                            std::string *);
template bool readWholeFile(const std::string &,
                            std::vector<std::uint8_t> &,
                            std::string *);

void
syncDirectory(const std::string &dir)
{
    const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd < 0)
        return;
    ::fsync(dfd);
    ::close(dfd);
}

template <typename Bytes>
bool
writeFileAtomic(const std::string &dir, const std::string &name,
                const Bytes &bytes, std::string *error)
{
    // Unique per process and per call: concurrent shards writing the
    // same object never collide on the temporary, and rename(2) makes
    // whichever finishes last win with identical bytes.
    static std::atomic<std::uint64_t> counter{0};
    const std::string tmp = format(
        "%s/%s.tmp.%d.%llu", dir.c_str(), name.c_str(),
        static_cast<int>(::getpid()),
        static_cast<unsigned long long>(counter.fetch_add(1)));
    const std::string final = dir + "/" + name;

    const int fd =
        ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
    if (fd < 0) {
        if (error)
            *error = format("cannot create %s: %s", tmp.c_str(),
                            std::strerror(errno));
        return false;
    }
    const char *data = reinterpret_cast<const char *>(bytes.data());
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n = ::write(fd, data + off, bytes.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (error)
                *error = format("write to %s failed: %s", tmp.c_str(),
                                std::strerror(errno));
            ::close(fd);
            ::unlink(tmp.c_str());
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0) {
        if (error)
            *error = format("fsync of %s failed: %s", tmp.c_str(),
                            std::strerror(errno));
        ::close(fd);
        ::unlink(tmp.c_str());
        return false;
    }
    ::close(fd);
    if (::rename(tmp.c_str(), final.c_str()) != 0) {
        if (error)
            *error = format("rename %s -> %s failed: %s", tmp.c_str(),
                            final.c_str(), std::strerror(errno));
        ::unlink(tmp.c_str());
        return false;
    }
    syncDirectory(dir);
    return true;
}

template bool writeFileAtomic(const std::string &, const std::string &,
                              const std::string &, std::string *);
template bool writeFileAtomic(const std::string &, const std::string &,
                              const std::vector<std::uint8_t> &,
                              std::string *);

} // namespace sim
} // namespace varsim
