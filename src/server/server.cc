#include "server/server.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>

#include "util/logging.hh"

namespace iracc {
namespace server {

namespace {

/** Poll granularity: how promptly idle loops notice shutdown. */
constexpr int kPollMs = 100;

bool
sendAll(int fd, const char *data, size_t len)
{
    size_t sent = 0;
    while (sent < len) {
        ssize_t n = ::send(fd, data + sent, len - sent,
#ifdef MSG_NOSIGNAL
                           MSG_NOSIGNAL
#else
                           0
#endif
        );
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        sent += static_cast<size_t>(n);
    }
    return true;
}

} // namespace

RealignServer::RealignServer(ServerConfig config)
    : cfg(std::move(config))
{
    cfg.scheduler.metrics = &registry;
    sched = std::make_unique<JobScheduler>(cfg.scheduler);
}

RealignServer::~RealignServer()
{
    // Belt and braces: a server that was started but never served
    // to completion still tears down cleanly.
    requestShutdown(false);
    if (!served && (acceptor.joinable() || !handlers.empty()))
        serve();
    if (listenFd >= 0)
        ::close(listenFd);
}

bool
RealignServer::start(std::string *error)
{
    listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd < 0) {
        *error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    int one = 1;
    ::setsockopt(listenFd, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(cfg.port);
    if (::inet_pton(AF_INET, cfg.bindAddress.c_str(),
                    &addr.sin_addr) != 1) {
        *error = "bad bind address '" + cfg.bindAddress + "'";
        return false;
    }
    if (::bind(listenFd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        *error = std::string("bind: ") + std::strerror(errno);
        return false;
    }
    if (::listen(listenFd, 64) != 0) {
        *error = std::string("listen: ") + std::strerror(errno);
        return false;
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(listenFd, reinterpret_cast<sockaddr *>(&addr),
                      &len) != 0) {
        *error = std::string("getsockname: ") + std::strerror(errno);
        return false;
    }
    boundPort = ntohs(addr.sin_port);

    sched->start();
    acceptor = std::thread([this] { acceptLoop(); });
    return true;
}

void
RealignServer::requestShutdown(bool drain)
{
    std::lock_guard<std::mutex> lock(mu);
    if (shutdownRequested) {
        // First request wins; a later non-drain request can still
        // downgrade a pending drain (stop *now* beats stop later).
        shutdownDrain = shutdownDrain && drain;
    } else {
        shutdownRequested = true;
        shutdownDrain = drain;
    }
    shutdownCv.notify_all();
}

void
RealignServer::serve()
{
    {
        std::unique_lock<std::mutex> lock(mu);
        while (!shutdownRequested) {
            if (cfg.stop &&
                cfg.stop->load(std::memory_order_relaxed)) {
                shutdownRequested = true;
                shutdownDrain = true;
                break;
            }
            shutdownCv.wait_for(
                lock, std::chrono::milliseconds(kPollMs));
        }
    }
    stopping.store(true, std::memory_order_relaxed);
    sched->shutdown(shutdownDrain);
    if (acceptor.joinable())
        acceptor.join();
    std::vector<std::thread> conns;
    {
        std::lock_guard<std::mutex> lock(mu);
        conns.swap(handlers);
        served = true;
    }
    for (std::thread &t : conns)
        t.join();
}

void
RealignServer::reapHandlers()
{
    // A finished handler took mu for the last time to list itself,
    // so joining it here cannot wait on this lock.
    std::lock_guard<std::mutex> lock(mu);
    for (std::thread::id id : finishedHandlers) {
        auto it = std::find_if(
            handlers.begin(), handlers.end(),
            [id](const std::thread &t) { return t.get_id() == id; });
        it->join();
        handlers.erase(it);
    }
    finishedHandlers.clear();
}

void
RealignServer::acceptLoop()
{
    while (!stopping.load(std::memory_order_relaxed)) {
        reapHandlers();
        pollfd pfd;
        pfd.fd = listenFd;
        pfd.events = POLLIN;
        pfd.revents = 0;
        int r = ::poll(&pfd, 1, kPollMs);
        if (r <= 0)
            continue;
        int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0)
            continue;
        registry.counter("server.connections").add();
        std::lock_guard<std::mutex> lock(mu);
        if (stopping.load(std::memory_order_relaxed)) {
            ::close(fd);
            return;
        }
        handlers.emplace_back([this, fd] {
            handleConnection(fd);
            std::lock_guard<std::mutex> done(mu);
            finishedHandlers.push_back(std::this_thread::get_id());
        });
    }
}

std::string
RealignServer::metricsBody(const std::string &format)
{
    std::ostringstream os;
    if (format == "prometheus")
        registry.writePrometheus(os);
    else
        registry.writeJson(os);
    return os.str();
}

Response
RealignServer::handleRequest(const Request &req)
{
    Response resp;
    switch (req.type) {
    case RequestType::Ping:
        resp.ok = true;
        resp.serverName = cfg.name;
        break;
    case RequestType::Submit: {
        Admission adm = sched->submit(req.tenant, req.spec);
        resp.tenantInFlight = adm.tenantInFlight;
        resp.tenantQuota = adm.tenantQuota;
        if (adm.accepted) {
            resp.ok = true;
            resp.jobId = adm.jobId;
        } else {
            resp.ok = false;
            resp.reason = adm.reason;
            resp.retryAfterMs = adm.retryAfterMs;
            resp.error = adm.reason == "backpressure"
                             ? "tenant over quota or queue full; "
                               "retry after retry_after_ms"
                             : "server is shutting down";
        }
        break;
    }
    case RequestType::Status:
        if (sched->query(req.jobId, req.progressSince, &resp.job)) {
            resp.ok = true;
            resp.hasJob = true;
        } else {
            resp.reason = "unknown-job";
            resp.error =
                "no job " + std::to_string(req.jobId);
        }
        break;
    case RequestType::Cancel:
        if (sched->cancel(req.jobId)) {
            resp.ok = true;
        } else {
            resp.reason = "unknown-job";
            resp.error =
                "no job " + std::to_string(req.jobId);
        }
        break;
    case RequestType::Result:
        // Blocks this connection's handler until the job is
        // terminal; the scheduler guarantees every job reaches a
        // terminal state even across shutdown.
        if (sched->wait(req.jobId, &resp.job)) {
            resp.ok = true;
            resp.hasJob = true;
        } else {
            resp.reason = "unknown-job";
            resp.error =
                "no job " + std::to_string(req.jobId);
        }
        break;
    case RequestType::Metrics:
        resp.ok = true;
        resp.metricsFormat = req.metricsFormat.empty()
                                 ? "json"
                                 : req.metricsFormat;
        resp.metricsBody = metricsBody(resp.metricsFormat);
        break;
    case RequestType::Shutdown:
        resp.ok = true;
        break;
    case RequestType::Invalid:
        resp.reason = "bad-request";
        resp.error = "invalid request";
        break;
    }
    return resp;
}

bool
RealignServer::serveHttp(int fd)
{
    // Minimal HTTP/1.0: read until the header terminator (bounded),
    // answer one request, close.
    std::string head;
    char buf[1024];
    while (head.find("\r\n\r\n") == std::string::npos &&
           head.size() < 64 * 1024) {
        pollfd pfd;
        pfd.fd = fd;
        pfd.events = POLLIN;
        pfd.revents = 0;
        if (::poll(&pfd, 1, kPollMs) <= 0) {
            if (stopping.load(std::memory_order_relaxed))
                return false;
            continue;
        }
        ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            return false;
        head.append(buf, static_cast<size_t>(n));
    }
    std::string::size_type sp1 = head.find(' ');
    std::string::size_type sp2 =
        sp1 == std::string::npos ? std::string::npos
                                 : head.find(' ', sp1 + 1);
    std::string path =
        sp2 == std::string::npos
            ? std::string()
            : head.substr(sp1 + 1, sp2 - sp1 - 1);

    std::string body;
    std::string status;
    std::string ctype = "text/plain; charset=utf-8";
    if (path == "/metrics" || path.rfind("/metrics?", 0) == 0) {
        registry.counter("server.http_scrapes").add();
        status = "200 OK";
        ctype = "text/plain; version=0.0.4; charset=utf-8";
        body = metricsBody("prometheus");
    } else if (path == "/healthz") {
        status = "200 OK";
        body = "ok\n";
    } else {
        status = "404 Not Found";
        body = "only /metrics and /healthz live here\n";
    }
    std::ostringstream os;
    os << "HTTP/1.0 " << status << "\r\n"
       << "Content-Type: " << ctype << "\r\n"
       << "Content-Length: " << body.size() << "\r\n"
       << "Connection: close\r\n\r\n"
       << body;
    const std::string out = os.str();
    return sendAll(fd, out.data(), out.size());
}

void
RealignServer::handleConnection(int fd)
{
    // Sniff the first bytes: an HTTP scraper says "GET ", the
    // native protocol starts with a binary length prefix.
    {
        char peek[4] = {0, 0, 0, 0};
        for (;;) {
            pollfd pfd;
            pfd.fd = fd;
            pfd.events = POLLIN;
            pfd.revents = 0;
            if (::poll(&pfd, 1, kPollMs) <= 0) {
                if (stopping.load(std::memory_order_relaxed)) {
                    ::close(fd);
                    return;
                }
                continue;
            }
            ssize_t n = ::recv(fd, peek, sizeof(peek), MSG_PEEK);
            if (n <= 0) {
                ::close(fd);
                return;
            }
            if (n < 4)
                continue; // keep peeking until 4 bytes arrive
            break;
        }
        if (std::memcmp(peek, "GET ", 4) == 0) {
            serveHttp(fd);
            ::close(fd);
            return;
        }
    }

    std::string inbuf;
    size_t offset = 0;
    char buf[4096];
    bool open = true;
    while (open && !stopping.load(std::memory_order_relaxed)) {
        pollfd pfd;
        pfd.fd = fd;
        pfd.events = POLLIN;
        pfd.revents = 0;
        int r = ::poll(&pfd, 1, kPollMs);
        if (r < 0 && errno != EINTR)
            break;
        if (r <= 0)
            continue;
        ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            break; // EOF or error: peer is gone
        inbuf.append(buf, static_cast<size_t>(n));

        std::string payload;
        std::string err;
        while (decodeFrame(inbuf, &offset, &payload, &err)) {
            registry.counter("server.requests").add();
            Request req;
            Response resp;
            bool do_shutdown = false;
            bool drain = true;
            if (!decodeRequest(payload, &req, &err)) {
                resp.ok = false;
                resp.reason = "bad-request";
                resp.error = err;
            } else {
                resp = handleRequest(req);
                if (req.type == RequestType::Shutdown) {
                    do_shutdown = true;
                    drain = req.drain;
                }
            }
            const std::string frame =
                encodeFrame(encodeResponse(resp));
            if (!sendAll(fd, frame.data(), frame.size())) {
                open = false;
                break;
            }
            if (do_shutdown) {
                requestShutdown(drain);
                open = false;
                break;
            }
        }
        if (!err.empty())
            break; // framing error: drop the connection
        // Compact the consumed prefix now and then.
        if (offset > 64 * 1024) {
            inbuf.erase(0, offset);
            offset = 0;
        }
    }
    ::close(fd);
}

} // namespace server
} // namespace iracc
