/**
 * @file
 * The iracc_server daemon core: a loopback TCP front-end over the
 * multi-tenant JobScheduler (server/job_scheduler.hh).
 *
 * Connections speak the length-prefixed JSON protocol
 * (server/protocol.hh); many requests may ride one connection (the
 * client pipelines status polls).  As a convenience for scrapers,
 * a connection whose first bytes are "GET " is served as a minimal
 * HTTP/1.0 exchange instead: "GET /metrics" returns the metrics
 * registry in Prometheus text exposition format, so a stock
 * Prometheus scrape_config (or curl) can read the same registry
 * the JSON protocol exposes.
 *
 * Threading: one accept thread plus one handler thread per live
 * connection, all poll()-driven with short timeouts so a shutdown
 * request (protocol "shutdown" message or an external stop flag,
 * e.g. a SIGINT handler's atomic) is honoured promptly even with
 * idle connections open.  The accept loop joins each handler once
 * its connection closes, so only live connections hold a thread.
 * Shutdown drains or cancels the scheduler per the request, then
 * joins every thread.
 */

#ifndef IRACC_SERVER_SERVER_HH
#define IRACC_SERVER_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hh"
#include "server/job_scheduler.hh"

namespace iracc {
namespace server {

struct ServerConfig
{
    /** Bind address; the daemon is loopback-only by design (the
     *  paper's cloud deployment fronts it with the provider's load
     *  balancer, not by exposing the card scheduler directly). */
    std::string bindAddress = "127.0.0.1";

    /** TCP port; 0 = let the kernel pick (tests), the bound port
     *  is reported by port(). */
    uint16_t port = 0;

    /** Identity string answered to ping. */
    std::string name = "iracc_server";

    /** Scheduler shape (workers, backend, fleet, quotas).  The
     *  metrics field is overridden with the server's registry. */
    JobSchedulerConfig scheduler;

    /**
     * Optional external stop flag (e.g. set from a SIGINT
     * handler).  When it goes true the server shuts down with
     * drain = true.  Polled; may be null.
     */
    const std::atomic<bool> *stop = nullptr;
};

class RealignServer
{
  public:
    explicit RealignServer(ServerConfig config);
    ~RealignServer();

    RealignServer(const RealignServer &) = delete;
    RealignServer &operator=(const RealignServer &) = delete;

    /** Bind, listen, and launch the accept loop and scheduler
     *  workers.  @return false with *error set on bind failures. */
    bool start(std::string *error);

    /** The bound TCP port (after start()). */
    uint16_t port() const { return boundPort; }

    /** Ask the server to shut down (thread-safe). */
    void requestShutdown(bool drain);

    /** Block until a shutdown request (protocol, requestShutdown,
     *  or the external stop flag) and complete it: stop accepting,
     *  drain or cancel the scheduler, join every thread. */
    void serve();

    /** The server-wide metrics registry (server.* + realign.*). */
    obs::MetricsRegistry &metrics() { return registry; }

    JobScheduler &scheduler() { return *sched; }

  private:
    void acceptLoop();
    void reapHandlers();
    void handleConnection(int fd);
    bool serveHttp(int fd);
    Response handleRequest(const Request &req);
    std::string metricsBody(const std::string &format);

    ServerConfig cfg;
    obs::MetricsRegistry registry;
    std::unique_ptr<JobScheduler> sched;

    int listenFd = -1;
    uint16_t boundPort = 0;
    std::atomic<bool> stopping{false};
    bool shutdownDrain = true;

    std::mutex mu;
    std::condition_variable shutdownCv;
    bool shutdownRequested = false;
    bool served = false;

    std::thread acceptor;
    std::vector<std::thread> handlers;
    /** Handlers whose connection closed, to be joined (under mu). */
    std::vector<std::thread::id> finishedHandlers;
};

} // namespace server
} // namespace iracc

#endif // IRACC_SERVER_SERVER_HH
