/**
 * @file
 * Wire-protocol tests: frame round trips over a socketpair, size
 * caps, magic/garbage rejection, and address parsing.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "serve/protocol.hh"

namespace
{

using namespace varsim;

/** Connected FrameIo pair over an AF_UNIX socketpair. */
struct IoPair
{
    IoPair()
    {
        int sv[2] = {-1, -1};
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
        a = std::make_unique<serve::FrameIo>(sv[0]);
        b = std::make_unique<serve::FrameIo>(sv[1]);
    }
    std::unique_ptr<serve::FrameIo> a, b;
};

TEST(ServeProtocol, FramesRoundTrip)
{
    IoPair io;
    ASSERT_TRUE(io.a->send("{\"req\": \"ping\"}"));
    ASSERT_TRUE(io.a->send("")); // empty payloads are legal
    std::string got;
    ASSERT_TRUE(io.b->recv(got));
    EXPECT_EQ(got, "{\"req\": \"ping\"}");
    ASSERT_TRUE(io.b->recv(got));
    EXPECT_EQ(got, "");
}

TEST(ServeProtocol, LargePayloadSurvivesIntact)
{
    IoPair io;
    std::string big(200 * 1024, 'x');
    for (std::size_t i = 0; i < big.size(); i += 7)
        big[i] = static_cast<char>('a' + i % 26);
    // A 200 KiB frame overflows the socketpair buffer, so the
    // writer must run concurrently with the reader.
    std::thread writer(
        [&] { EXPECT_TRUE(io.a->send(big)); });
    std::string got;
    ASSERT_TRUE(io.b->recv(got));
    writer.join();
    EXPECT_EQ(got, big);
}

TEST(ServeProtocol, OversizedFrameIsRefusedBySender)
{
    IoPair io;
    const std::string big(serve::kMaxFrameBytes + 1, 'x');
    EXPECT_FALSE(io.a->send(big));
    EXPECT_NE(io.a->errorText().find("too large"),
              std::string::npos);
}

TEST(ServeProtocol, GarbageHeaderIsRejected)
{
    IoPair io;
    const std::string junk = "GET / HTTP/1.0\r\n\r\n";
    ASSERT_EQ(::send(io.a->fd(), junk.data(), junk.size(),
                     MSG_NOSIGNAL),
              static_cast<ssize_t>(junk.size()));
    std::string got;
    EXPECT_FALSE(io.b->recv(got));
}

TEST(ServeProtocol, OverlongClaimedLengthIsRejected)
{
    IoPair io;
    const std::string head = "VSRV1 99999999999\n";
    ASSERT_EQ(::send(io.a->fd(), head.data(), head.size(),
                     MSG_NOSIGNAL),
              static_cast<ssize_t>(head.size()));
    std::string got;
    EXPECT_FALSE(io.b->recv(got));
    EXPECT_NE(io.b->errorText().find("length"),
              std::string::npos);
}

TEST(ServeProtocol, PeerCloseIsACleanRecvFailure)
{
    IoPair io;
    io.a.reset(); // closes the fd
    std::string got;
    EXPECT_FALSE(io.b->recv(got));
    EXPECT_NE(io.b->errorText().find("closed"),
              std::string::npos);
}

TEST(ServeProtocol, AddressParsing)
{
    serve::Address addr;
    std::string err;

    ASSERT_TRUE(
        serve::Address::parse("unix:/tmp/x.sock", addr, &err));
    EXPECT_TRUE(addr.isUnix);
    EXPECT_EQ(addr.path, "/tmp/x.sock");
    EXPECT_EQ(addr.toString(), "unix:/tmp/x.sock");

    ASSERT_TRUE(serve::Address::parse("tcp:7070", addr, &err));
    EXPECT_FALSE(addr.isUnix);
    EXPECT_EQ(addr.host, "127.0.0.1");
    EXPECT_EQ(addr.port, 7070);

    ASSERT_TRUE(
        serve::Address::parse("tcp:10.1.2.3:99", addr, &err));
    EXPECT_EQ(addr.host, "10.1.2.3");
    EXPECT_EQ(addr.port, 99);

    EXPECT_FALSE(serve::Address::parse("unix:", addr, &err));
    EXPECT_FALSE(serve::Address::parse("tcp:0", addr, &err));
    EXPECT_FALSE(serve::Address::parse("tcp:http", addr, &err));
    // The port is a count: no sign, no blanks.
    EXPECT_FALSE(serve::Address::parse("tcp:+7070", addr, &err));
    EXPECT_FALSE(serve::Address::parse("tcp: 7070", addr, &err));
    EXPECT_FALSE(serve::Address::parse("tcp:65536", addr, &err));
    EXPECT_FALSE(
        serve::Address::parse("/just/a/path", addr, &err));
    EXPECT_NE(err.find("unix:"), std::string::npos);
}

TEST(ServeProtocol, ListenAndConnectOverUnixSocket)
{
    serve::Address addr;
    addr.isUnix = true;
    addr.path = (std::filesystem::temp_directory_path() /
                 "varsim_test_proto.sock")
                    .string();

    std::string err;
    const int lfd = serve::listenOn(addr, &err);
    ASSERT_GE(lfd, 0) << err;

    const int cfd = serve::connectTo(addr, &err);
    ASSERT_GE(cfd, 0) << err;
    const int afd = ::accept(lfd, nullptr, nullptr);
    ASSERT_GE(afd, 0);

    serve::FrameIo client(cfd), server(afd);
    ASSERT_TRUE(client.send("hello"));
    std::string got;
    ASSERT_TRUE(server.recv(got));
    EXPECT_EQ(got, "hello");
    ::close(lfd);
    ::unlink(addr.path.c_str());
}

} // namespace
