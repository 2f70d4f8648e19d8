#include "sim/file_io.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

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

} // namespace sim
} // namespace varsim
