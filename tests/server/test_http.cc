/**
 * @file
 * The HTTP responder reads request heads from any local client, so
 * parseRequestLine() treats them as untrusted input: any byte string
 * must split into a method and a path without UB.  One test per rule,
 * then seeded token mutations of a well-formed head, then the
 * responder's handling of clients that send nothing, or trickle a
 * head one byte at a time.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "server/http.hh"

namespace sentinel::server {
namespace {

TEST(HttpRequestLine, SplitsMethodAndPath)
{
    RequestLine r =
        parseRequestLine("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
    EXPECT_EQ(r.method, "GET");
    EXPECT_EQ(r.path, "/metrics");
}

TEST(HttpRequestLine, NoSpaceYieldsNeither)
{
    RequestLine r = parseRequestLine("GET\r\nHost: x /metrics\r\n\r\n");
    EXPECT_EQ(r.method, "");
    EXPECT_EQ(r.path, "");
}

TEST(HttpRequestLine, OneSpaceTakesThePathToTheLineEnd)
{
    RequestLine r = parseRequestLine("GET /metrics\r\n\r\n");
    EXPECT_EQ(r.method, "GET");
    EXPECT_EQ(r.path, "/metrics");
}

TEST(HttpRequestLine, EmptyHeadYieldsNeither)
{
    RequestLine r = parseRequestLine("");
    EXPECT_EQ(r.method, "");
    EXPECT_EQ(r.path, "");
}

TEST(HttpRequestLine, NoCrlfTakesTheWholeHead)
{
    // A client that stopped early, or ends lines with a bare LF: the
    // request line runs to the end of what it sent.
    RequestLine r = parseRequestLine("GET /a\nHost: b");
    EXPECT_EQ(r.method, "GET");
    EXPECT_EQ(r.path, "/a\nHost:");
}

TEST(HttpRequestLine, FullEightKilobyteHeadSplits)
{
    // The reader stops at 8 KB, possibly with no CRLF yet.
    const std::string path = "/" + std::string(8192, 'a');
    RequestLine r = parseRequestLine("GET " + path);
    EXPECT_EQ(r.method, "GET");
    EXPECT_EQ(r.path, path);
}

/** A head as tokens: words and the separators between them. */
std::vector<std::string>
tokenize(const std::string &head)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos < head.size()) {
        if (head.compare(pos, 2, "\r\n") == 0) {
            out.push_back("\r\n");
            pos += 2;
        } else if (head[pos] == ' ') {
            out.push_back(" ");
            ++pos;
        } else {
            std::size_t end = head.find_first_of(" \r", pos + 1);
            if (end == std::string::npos)
                end = head.size();
            out.push_back(head.substr(pos, end - pos));
            pos = end;
        }
    }
    return out;
}

TEST(HttpRequestLine, SeededTokenMutationsSplitConsistently)
{
    // Each trial applies one to four seeded edits to a well-formed
    // head: a token replaced by a separator, a NUL, a lone CR or LF,
    // a method or an 8 KB word; a token dropped or duplicated; or two
    // tokens swapped.  Whatever the bytes, the split must agree with
    // the rules: the request line ends at the first CRLF, the method
    // is its text before the first space and the path the next word.
    const std::vector<std::string> base = tokenize(
        "GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        "Accept: */*\r\n\r\n");
    ASSERT_EQ(base.size(), 15u);
    const std::string kValues[] = { "",     " ",    "\r\n", "\r",
                                    "\n",   "POST", "GET",
                                    std::string(1, '\0'),
                                    std::string(8192, 'x') };
    constexpr std::int64_t kNumValues = sizeof kValues / sizeof kValues[0];
    Rng rng(0x4e77f00dull);
    int routed = 0;
    for (int trial = 0; trial < 400; ++trial) {
        std::vector<std::string> toks = base;
        const int edits = static_cast<int>(rng.uniformInt(1, 4));
        for (int e = 0; e < edits && !toks.empty(); ++e) {
            const auto i = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(toks.size()) - 1));
            const auto j = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(toks.size()) - 1));
            switch (rng.uniformInt(0, 3)) {
              case 0:
                toks[i] = kValues[rng.uniformInt(0, kNumValues - 1)];
                break;
              case 1:
                toks.erase(toks.begin() + static_cast<long>(i));
                break;
              case 2:
                toks.insert(toks.begin() + static_cast<long>(i), toks[j]);
                break;
              default:
                std::swap(toks[i], toks[j]);
                break;
            }
        }
        std::string head;
        for (const std::string &t : toks)
            head += t;
        SCOPED_TRACE(::testing::Message() << "trial " << trial);

        const RequestLine r = parseRequestLine(head);
        const std::string line = head.substr(0, head.find("\r\n"));
        const std::size_t sp = line.find(' ');
        EXPECT_EQ(r.method.find(' '), std::string::npos);
        EXPECT_EQ(r.path.find(' '), std::string::npos);
        EXPECT_EQ(r.path.find("\r\n"), std::string::npos);
        if (sp == std::string::npos) {
            EXPECT_TRUE(r.method.empty());
            EXPECT_TRUE(r.path.empty());
            continue;
        }
        EXPECT_EQ(r.method, line.substr(0, sp));
        EXPECT_EQ(line.compare(sp + 1, r.path.size(), r.path), 0);
        const std::size_t after = sp + 1 + r.path.size();
        EXPECT_TRUE(after == line.size() || line[after] == ' ');
        routed += r.method == "GET" && r.path == "/metrics";
    }
    // Most single edits leave the route intact.
    EXPECT_GT(routed, 0);
}

/** A loopback client connected to @p port that has sent nothing. */
int
connectLoopback(int port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return fd;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr) !=
        0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/**
 * Accept the already connected client @p stalled first, drive it with
 * @p stall until the scrape that follows is answered (or 20 s pass, so
 * a regression fails on time rather than hangs), and return how long
 * that scrape took.
 */
double
scrapeBehind(MetricsHttpServer &http, int stalled,
             const std::function<void(std::future<void>)> &stall)
{
    std::thread server([&] {
        http.serve([] { return std::string("up 1\n"); },
                   /*max_requests=*/2);
    });
    std::promise<void> done;
    std::thread client([&stall, scraped = done.get_future()]() mutable {
        stall(std::move(scraped));
    });

    const auto start = std::chrono::steady_clock::now();
    std::string body, err;
    EXPECT_TRUE(httpGet("127.0.0.1", http.port(), "/metrics", body, &err))
        << err;
    const double waited = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
    EXPECT_EQ(body, "up 1\n");

    done.set_value();
    client.join();
    ::shutdown(stalled, SHUT_RDWR);
    server.join();
    ::close(stalled);
    http.shutdown();
    return waited;
}

TEST(MetricsHttp, SilentClientDoesNotBlockLaterScrapes)
{
    MetricsHttpServer http;
    ASSERT_TRUE(http.listen(0)) << http.error();
    const int idle = connectLoopback(http.port());
    ASSERT_GE(idle, 0);
    const double waited =
        scrapeBehind(http, idle, [idle](std::future<void> scraped) {
            if (scraped.wait_for(std::chrono::seconds(20)) ==
                std::future_status::timeout)
                ::shutdown(idle, SHUT_RDWR);
        });
    EXPECT_LT(waited, 10.0) << "the scrape waited on the silent client";
}

TEST(MetricsHttp, TricklingClientDoesNotBlockLaterScrapes)
{
    MetricsHttpServer http;
    ASSERT_TRUE(http.listen(0)) << http.error();
    const int slow = connectLoopback(http.port());
    ASSERT_GE(slow, 0);
    // One byte of a never-ending request head every 0.5 s: every recv
    // returns well within any per-call timeout.
    const double waited =
        scrapeBehind(http, slow, [slow](std::future<void> scraped) {
            const std::string head = "GET /metrics HTTP/1.1\r\nX-Pad: " +
                                     std::string(64, 'a');
            for (int i = 0; i < 40; ++i) {
                if (scraped.wait_for(std::chrono::milliseconds(500)) ==
                    std::future_status::ready)
                    return;
                ::send(slow, &head[std::size_t(i) % head.size()], 1,
                       MSG_NOSIGNAL);
            }
            ::shutdown(slow, SHUT_RDWR);
        });
    EXPECT_LT(waited, 10.0) << "the scrape waited on the trickling client";
}

} // namespace
} // namespace sentinel::server
