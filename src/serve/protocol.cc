#include "serve/protocol.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "sim/logging.hh"

namespace varsim
{
namespace serve
{

FrameIo::~FrameIo()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
FrameIo::writeAll(const char *buf, std::size_t n)
{
    std::size_t off = 0;
    while (off < n) {
        const ssize_t w = ::send(fd_, buf + off, n - off,
                                 MSG_NOSIGNAL);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            error_ = sim::format("send failed: %s",
                                 std::strerror(errno));
            return false;
        }
        off += static_cast<std::size_t>(w);
    }
    return true;
}

bool
FrameIo::readExact(char *buf, std::size_t n)
{
    std::size_t off = 0;
    while (off < n) {
        const ssize_t r = ::recv(fd_, buf + off, n - off, 0);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            error_ = sim::format("recv failed: %s",
                                 std::strerror(errno));
            return false;
        }
        if (r == 0) {
            error_ = "connection closed";
            return false;
        }
        off += static_cast<std::size_t>(r);
    }
    return true;
}

bool
FrameIo::send(const std::string &payload)
{
    if (payload.size() > kMaxFrameBytes) {
        error_ = sim::format("frame payload too large (%zu bytes)",
                             payload.size());
        return false;
    }
    char header[64];
    const int n = std::snprintf(header, sizeof(header), "%s %zu\n",
                                kFrameMagic, payload.size());
    std::string frame(header, static_cast<std::size_t>(n));
    frame += payload;
    return writeAll(frame.data(), frame.size());
}

bool
FrameIo::recv(std::string &payload)
{
    // Header: magic SP decimal-length LF, one byte at a time (the
    // header is tiny; the payload read is the bulk transfer).
    std::string header;
    for (;;) {
        char c;
        if (!readExact(&c, 1))
            return false;
        if (c == '\n')
            break;
        header.push_back(c);
        if (header.size() > 32) {
            error_ = "oversized frame header (protocol mismatch?)";
            return false;
        }
    }
    const std::string magic(kFrameMagic);
    if (header.size() <= magic.size() + 1 ||
        header.compare(0, magic.size(), magic) != 0 ||
        header[magic.size()] != ' ') {
        error_ = sim::format("bad frame magic '%s' (speaks %s)",
                             header.c_str(), kFrameMagic);
        return false;
    }
    const char *lenText = header.c_str() + magic.size() + 1;
    char *end = nullptr;
    const unsigned long long len = std::strtoull(lenText, &end, 10);
    if (end == lenText || *end != '\0' || len > kMaxFrameBytes) {
        error_ = sim::format("bad frame length '%s'", lenText);
        return false;
    }
    payload.resize(static_cast<std::size_t>(len));
    if (len && !readExact(&payload[0], payload.size()))
        return false;
    return true;
}

bool
FrameIo::setRecvTimeout(int ms)
{
    struct timeval tv;
    tv.tv_sec = ms / 1000;
    tv.tv_usec = (ms % 1000) * 1000;
    return ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv,
                        sizeof(tv)) == 0;
}

bool
Address::parse(const std::string &text, Address &out,
               std::string *err)
{
    if (text.rfind("unix:", 0) == 0) {
        out.isUnix = true;
        out.path = text.substr(5);
        if (out.path.empty())
            return failWith(err, "unix address wants a socket path");
        return true;
    }
    if (text.rfind("tcp:", 0) == 0) {
        out.isUnix = false;
        std::string rest = text.substr(4);
        const auto colon = rest.rfind(':');
        if (colon != std::string::npos) {
            out.host = rest.substr(0, colon);
            rest = rest.substr(colon + 1);
        }
        char *end = nullptr;
        const long port = std::strtol(rest.c_str(), &end, 10);
        if (end == rest.c_str() || *end != '\0' || port <= 0 ||
            port > 65535)
            return failWith(err, "tcp address wants tcp:<port> or "
                                 "tcp:<host>:<port>");
        out.port = static_cast<int>(port);
        return true;
    }
    return failWith(err, "address wants unix:<path> or "
                         "tcp:[host:]<port> (got '" + text + "')");
}

std::string
Address::toString() const
{
    if (isUnix)
        return "unix:" + path;
    return sim::format("tcp:%s:%d", host.c_str(), port);
}

namespace
{

int
failSock(int fd, std::string *err, std::string msg)
{
    if (fd >= 0)
        ::close(fd);
    failWith(err, std::move(msg));
    return -1;
}

/**
 * The one socket setup listenOn() and connectTo() share: a stream
 * socket of @p addr's family and its address, then bound and
 * listening (@p listen) or connected. Returns the fd, or -1 with
 * @p err set.
 */
int
openSocket(const Address &addr, bool listen, std::string *err)
{
    if (addr.isUnix && addr.path.size() >= sizeof(sockaddr_un{}.sun_path))
        return failSock(-1, err,
                        "unix socket path too long: " + addr.path);
    const int fd = ::socket(addr.isUnix ? AF_UNIX : AF_INET,
                            SOCK_STREAM, 0);
    if (fd < 0)
        return failSock(-1, err,
                        sim::format("socket: %s", std::strerror(errno)));
    sockaddr_storage sa{};
    socklen_t len = 0;
    if (addr.isUnix) {
        sockaddr_un un{};
        un.sun_family = AF_UNIX;
        std::strncpy(un.sun_path, addr.path.c_str(),
                     sizeof(un.sun_path) - 1);
        std::memcpy(&sa, &un, len = sizeof(un));
        if (listen)
            ::unlink(addr.path.c_str()); // stale socket from a kill -9
    } else {
        sockaddr_in in{};
        in.sin_family = AF_INET;
        in.sin_port = htons(static_cast<std::uint16_t>(addr.port));
        if (::inet_pton(AF_INET, addr.host.c_str(), &in.sin_addr) != 1)
            return failSock(fd, err,
                            std::string(listen ? "bad listen host "
                                               : "bad connect host ") +
                                addr.host);
        std::memcpy(&sa, &in, len = sizeof(in));
        if (listen) {
            const int one = 1;
            ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one,
                         sizeof(one));
        }
    }
    const auto *any = reinterpret_cast<const sockaddr *>(&sa);
    if (!listen) {
        if (::connect(fd, any, len) == 0)
            return fd;
        const char *why = std::strerror(errno);
        const std::string where =
            addr.isUnix
                ? addr.path
                : sim::format("%s:%d", addr.host.c_str(), addr.port);
        return failSock(fd, err,
                        sim::format("connect %s: %s (daemon running?)",
                                    where.c_str(), why));
    }
    if (::bind(fd, any, len) != 0)
        return failSock(
            fd, err,
            addr.isUnix ? sim::format("bind %s: %s", addr.path.c_str(),
                                      std::strerror(errno))
                        : sim::format("bind port %d: %s", addr.port,
                                      std::strerror(errno)));
    if (::listen(fd, 64) != 0)
        return failSock(fd, err,
                        sim::format("listen: %s", std::strerror(errno)));
    return fd;
}

} // anonymous namespace

int
listenOn(const Address &addr, std::string *err)
{
    return openSocket(addr, true, err);
}

int
connectTo(const Address &addr, std::string *err)
{
    return openSocket(addr, false, err);
}

} // namespace serve
} // namespace varsim
