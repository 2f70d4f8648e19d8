/**
 * @file
 * Wire protocol of the varsim serve daemon.
 *
 * Transport: a stream socket — `unix:<path>` (the default; the
 * daemon puts one at `<root>/serve.sock`) or `tcp:<port>` /
 * `tcp:<host>:<port>` for cross-host clients.
 *
 * Framing: every message in either direction is one frame,
 *
 *     "VSRV1 <payload-bytes>\n" <payload>
 *
 * where the payload is a single flat JSON object in the same
 * sim/jsonl dialect as the durable manifests (numbers, strings,
 * arrays of strings). The explicit length makes the stream
 * self-delimiting — a reader never scans payload bytes for a
 * terminator — and the magic pins the protocol version: a daemon
 * refuses a frame whose magic it does not speak, so schema skew
 * between client and server is a clean error, not a hang or a
 * misparse. Payloads are capped at 1 MiB; nothing legitimate (a
 * submission, an event) is near that, so an oversized header is
 * treated as a corrupt or hostile stream and the connection drops.
 *
 * The request/response vocabulary on top of the framing lives in
 * schema.hh; this file is transport only.
 */

#ifndef VARSIM_SERVE_PROTOCOL_HH
#define VARSIM_SERVE_PROTOCOL_HH

#include <cstddef>
#include <string>
#include <utility>

namespace varsim
{
namespace serve
{

/** Set *@p err (when @p err is given) to @p msg; returns false. */
inline bool
failWith(std::string *err, std::string msg)
{
    if (err)
        *err = std::move(msg);
    return false;
}

/** Frame magic; bump the digit when the framing itself changes. */
constexpr const char *kFrameMagic = "VSRV1";

/** Hard cap on one frame's payload bytes. */
constexpr std::size_t kMaxFrameBytes = 1u << 20;

/**
 * Blocking frame I/O over one connected socket fd. Writes are
 * whole-frame; reads reassemble exactly one frame. All methods
 * return false on EOF, timeout, or a malformed/oversized frame
 * (errorText() says which); the connection is then unusable.
 */
class FrameIo
{
  public:
    /** Takes ownership of connected @p fd (closed on destruction). */
    explicit FrameIo(int fd) : fd_(fd) {}
    ~FrameIo();

    FrameIo(const FrameIo &) = delete;
    FrameIo &operator=(const FrameIo &) = delete;

    /** Send one frame carrying @p payload. */
    bool send(const std::string &payload);

    /** Receive one frame into @p payload. */
    bool recv(std::string &payload);

    /**
     * Arm a receive timeout in milliseconds (0 = block forever).
     * Applies to subsequent recv() calls.
     */
    bool setRecvTimeout(int ms);

    const std::string &errorText() const { return error_; }

    int fd() const { return fd_; }

  private:
    bool readExact(char *buf, std::size_t n);
    bool writeAll(const char *buf, std::size_t n);

    int fd_ = -1;
    std::string error_;
};

/**
 * Parsed listen/connect address: "unix:<path>", "tcp:<port>", or
 * "tcp:<host>:<port>". parse() returns false with @p err set on
 * anything else.
 */
struct Address
{
    bool isUnix = true;
    std::string path;        ///< unix socket path
    std::string host = "127.0.0.1"; ///< tcp only
    int port = 0;            ///< tcp only

    static bool parse(const std::string &text, Address &out,
                      std::string *err);

    std::string toString() const;
};

/**
 * Bind + listen on @p addr. Returns the listening fd, or -1 with
 * @p err set. A unix address unlinks a stale socket file first
 * (the daemon's root is single-daemon by construction: the
 * campaign stores' flocks make a second daemon fail fast anyway).
 */
int listenOn(const Address &addr, std::string *err);

/** Connect to @p addr. Returns connected fd, or -1 with @p err. */
int connectTo(const Address &addr, std::string *err);

} // namespace serve
} // namespace varsim

#endif // VARSIM_SERVE_PROTOCOL_HH
