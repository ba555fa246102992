#include "server/http.hh"

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "common/logging.hh"

namespace sentinel::server {

namespace {

constexpr const char *kContentType =
    "application/openmetrics-text; version=1.0.0; charset=utf-8";

/** How long the responder waits for a whole request head before it
 *  gives up on the request: a client that sends nothing, or trickles
 *  bytes, would otherwise hold serve(), and every later scrape. */
constexpr auto kRequestHeadTimeout = std::chrono::seconds(2);

/** Read until the header terminator (or the peer closes, or the head
 *  is 8 KB, or kRequestHeadTimeout has passed since the first recv). */
std::string
readRequestHead(int fd)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point deadline = Clock::now() + kRequestHeadTimeout;
    std::string head;
    char buf[1024];
    while (head.find("\r\n\r\n") == std::string::npos &&
           head.size() < 8192) {
        // Each recv may wait only for what is left of the deadline.
        const auto left = std::chrono::duration_cast<
            std::chrono::microseconds>(deadline - Clock::now());
        if (left.count() <= 0)
            break;
        timeval tv{};
        tv.tv_sec = static_cast<time_t>(left.count() / 1000000);
        tv.tv_usec = static_cast<suseconds_t>(left.count() % 1000000);
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
        ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n <= 0)
            break;
        head.append(buf, static_cast<std::size_t>(n));
    }
    return head;
}

void
writeAll(int fd, const std::string &data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                           MSG_NOSIGNAL);
        if (n <= 0)
            return;
        off += static_cast<std::size_t>(n);
    }
}

std::string
response(int status, const char *reason, const std::string &body,
         const char *content_type)
{
    return strprintf("HTTP/1.1 %d %s\r\n"
                     "Content-Type: %s\r\n"
                     "Content-Length: %zu\r\n"
                     "Connection: close\r\n"
                     "\r\n",
                     status, reason, content_type, body.size()) +
           body;
}

} // namespace

RequestLine
parseRequestLine(const std::string &head)
{
    const std::size_t eol = head.find("\r\n");
    const std::string line =
        eol == std::string::npos ? head : head.substr(0, eol);
    RequestLine req;
    const std::size_t sp = line.find(' ');
    if (sp == std::string::npos)
        return req;
    req.method = line.substr(0, sp);
    const std::size_t sp2 = line.find(' ', sp + 1);
    req.path = line.substr(sp + 1, sp2 == std::string::npos
                                       ? std::string::npos
                                       : sp2 - sp - 1);
    return req;
}

MetricsHttpServer::~MetricsHttpServer() { shutdown(); }

bool
MetricsHttpServer::listen(int port)
{
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
        error_ = strprintf("socket: %s", std::strerror(errno));
        return false;
    }
    int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::bind(fd_, reinterpret_cast<sockaddr *>(&addr), sizeof addr) <
        0) {
        error_ = strprintf("bind 127.0.0.1:%d: %s", port,
                           std::strerror(errno));
        shutdown();
        return false;
    }
    if (::listen(fd_, 8) < 0) {
        error_ = strprintf("listen: %s", std::strerror(errno));
        shutdown();
        return false;
    }
    socklen_t len = sizeof addr;
    if (::getsockname(fd_, reinterpret_cast<sockaddr *>(&addr), &len) <
        0) {
        error_ = strprintf("getsockname: %s", std::strerror(errno));
        shutdown();
        return false;
    }
    port_ = ntohs(addr.sin_port);
    return true;
}

int
MetricsHttpServer::serve(const MetricsBodyFn &body, int max_requests)
{
    int served = 0;
    while (fd_ >= 0 && (max_requests == 0 || served < max_requests)) {
        int client = ::accept(fd_, nullptr, nullptr);
        if (client < 0) {
            if (errno == EINTR)
                continue;
            break; // shutdown() closed the socket, or a real error
        }
        const RequestLine req = parseRequestLine(readRequestHead(client));
        if (req.method != "GET") {
            writeAll(client,
                     response(405, "Method Not Allowed",
                              "only GET is supported\n", "text/plain"));
        } else if (req.path == "/metrics" || req.path == "/") {
            writeAll(client, response(200, "OK", body(), kContentType));
        } else {
            writeAll(client, response(404, "Not Found",
                                      "try /metrics\n", "text/plain"));
        }
        ::close(client);
        ++served;
    }
    return served;
}

void
MetricsHttpServer::shutdown()
{
    if (fd_ >= 0) {
        // shutdown() before close() kicks an accept() blocked in
        // another thread out immediately.
        ::shutdown(fd_, SHUT_RDWR);
        ::close(fd_);
        fd_ = -1;
    }
}

bool
httpGet(const std::string &host, int port, const std::string &path,
        std::string &body, std::string *err)
{
    auto fail = [&](const std::string &what) {
        if (err)
            *err = what;
        return false;
    };

    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo *res = nullptr;
    std::string service = strprintf("%d", port);
    int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints, &res);
    if (rc != 0)
        return fail(strprintf("resolve %s: %s", host.c_str(),
                              gai_strerror(rc)));

    int fd = -1;
    for (addrinfo *ai = res; ai; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0)
            continue;
        if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0)
            break;
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(res);
    if (fd < 0)
        return fail(strprintf("connect %s:%d: %s", host.c_str(), port,
                              std::strerror(errno)));

    std::string request =
        strprintf("GET %s HTTP/1.1\r\nHost: %s\r\n"
                  "Connection: close\r\n\r\n",
                  path.c_str(), host.c_str());
    writeAll(fd, request);

    std::string raw;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0)
        raw.append(buf, static_cast<std::size_t>(n));
    ::close(fd);

    std::size_t split = raw.find("\r\n\r\n");
    if (split == std::string::npos)
        return fail("malformed HTTP response (no header terminator)");
    std::string status_line = raw.substr(0, raw.find("\r\n"));
    if (status_line.find(" 200 ") == std::string::npos)
        return fail(strprintf("HTTP status: %s", status_line.c_str()));
    body = raw.substr(split + 4);
    return true;
}

} // namespace sentinel::server
