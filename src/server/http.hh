/**
 * @file
 * The smallest HTTP surface that makes the observability plane
 * scrapeable: a blocking loopback GET responder (the `--listen` side
 * of `sentinel-cli serve`) and a one-shot GET client (the `--endpoint`
 * side of `sentinel-cli top`, and the loopback tests).
 *
 * This is deliberately not a web server: one connection at a time,
 * GET only, request line + headers parsed just enough to route the
 * path, connection closed after every response.  A Prometheus scraper
 * or `curl` is perfectly happy with that, and it keeps the whole thing
 * dependency-free POSIX sockets.
 */

#ifndef SENTINEL_SERVER_HTTP_HH
#define SENTINEL_SERVER_HTTP_HH

#include <functional>
#include <string>

namespace sentinel::server {

/** The routing fields of an HTTP request line. */
struct RequestLine {
    std::string method;
    std::string path;
};

/**
 * Split the request line of @p head, the bytes a client sent up to
 * the header terminator (or all it sent, when it stopped early).  The
 * request line is everything before the first CRLF (the whole head if
 * there is none).  The method is the text before its first space and
 * the path the text after it, up to the next space or the line's end.
 * A line with no space yields an empty method and path, which the
 * responder answers 405.  Never fails: any byte string splits.
 */
RequestLine parseRequestLine(const std::string &head);

/** Produces the /metrics body for one request. */
using MetricsBodyFn = std::function<std::string()>;

class MetricsHttpServer
{
  public:
    MetricsHttpServer() = default;
    ~MetricsHttpServer();

    MetricsHttpServer(const MetricsHttpServer &) = delete;
    MetricsHttpServer &operator=(const MetricsHttpServer &) = delete;

    /** Bind and listen on 127.0.0.1:@p port (0 = ephemeral).  Returns
     *  false (with errno-derived detail in error()) on failure. */
    bool listen(int port);

    /** The bound port (valid after listen). */
    int port() const { return port_; }

    /**
     * Serve @p max_requests GET requests (0 = forever), producing the
     * body via @p body per request.  `GET /metrics` (and `GET /`)
     * answer 200 with the OpenMetrics content type; other paths 404;
     * other methods 405.  A client has 2 s to send its whole request
     * head; what it sent by then is routed, so one slow or silent
     * client delays the next by at most that.  Returns the number of
     * requests served;
     * returns early if shutdown() closes the listening socket.
     */
    int serve(const MetricsBodyFn &body, int max_requests = 0);

    /** Close the listening socket; a blocked serve() returns. */
    void shutdown();

    const std::string &error() const { return error_; }

  private:
    int fd_ = -1;
    int port_ = 0;
    std::string error_;
};

/**
 * One-shot HTTP GET.  Connects to @p host:@p port, requests @p path,
 * and leaves the response body in @p body.  Returns false (with detail
 * in @p err when given) on connect/IO failure or a non-200 status.
 */
bool httpGet(const std::string &host, int port, const std::string &path,
             std::string &body, std::string *err = nullptr);

} // namespace sentinel::server

#endif // SENTINEL_SERVER_HTTP_HH
