/**
 * @file
 * The system under test, hosted in the benchmark's own process and
 * configured like fosm-serve's defaults: a 8192-entry LRU response
 * cache, the persistent store on in a fresh directory, all 12
 * workload characterizations built before serving (warm-up), and an
 * HttpServer on loopback with two workers. The benchmark wraps the
 * Handler it passes to HttpServer, so in a traced run every request
 * gets a server-side span around the model service.
 *
 * Not started, because a single-node default run never reaches
 * them: replication, tenancy, and the integrity scrubber (whose
 * first pass waits 60 s, longer than any run). Background store
 * compaction stays on as in fosm-serve; it only wakes once dead
 * bytes pass 1 MB and half the log, which these workloads, writing
 * each key once, do not produce.
 */

#ifndef PERFBENCH_HOST_HH
#define PERFBENCH_HOST_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.hh"
#include "server/client.hh"
#include "server/http.hh"
#include "server/metrics.hh"
#include "server/service.hh"
#include "tracer.hh"

namespace perfbench {

/** HTTP headers carrying trace context from client to handler. */
inline constexpr const char *requestIdHeader = "x-fosm-request-id";
inline constexpr const char *parentSpanHeader = "x-fosm-parent-span";

/** Server worker threads; with two client connections, 4 busy
 *  threads on a 4-core host. */
inline constexpr std::size_t serverWorkers = 2;

class ServiceHost
{
  public:
    /**
     * Build the service on a fresh store under parentDir, warm it
     * up, and (with http) start the server. setupSeconds() times
     * exactly this, from service construction until ready.
     */
    ServiceHost(const std::string &parentDir, bool http,
                Tracer *tracer);
    ~ServiceHost();

    ServiceHost(const ServiceHost &) = delete;
    ServiceHost &operator=(const ServiceHost &) = delete;

    double setupSeconds() const { return setupSeconds_; }
    fosm::server::ModelService &service() { return *service_; }
    std::uint16_t port() const;

    /** The wrapped handler, called in-process (no HTTP). */
    fosm::server::HttpResponse
    call(const fosm::server::HttpRequest &request) const
    {
        return handler_(request);
    }

    /** Live bytes in the store after flush(). */
    std::uint64_t storeLiveBytes();

    /** Store counters after flush(). */
    fosm::store::StoreStats storeStats();

    /** A named counter of the service's metrics registry. */
    std::uint64_t counter(const std::string &name);

  private:
    ScratchDir dir_;
    fosm::server::MetricsRegistry metrics_;
    std::unique_ptr<fosm::server::ModelService> service_;
    fosm::server::HttpServer::Handler handler_;
    std::unique_ptr<fosm::server::HttpServer> server_;
    double setupSeconds_ = 0.0;
};

/**
 * A measured phase runs its operations in this many consecutive
 * slices, and throughput is the median slice rate: a burst of
 * interference from other tenants of the host moves one slice, not
 * the result.
 */
inline constexpr std::size_t phaseSlices = 10;

/** First operation of slice s (s == phaseSlices gives ops). */
inline std::size_t
sliceBegin(std::size_t ops, std::size_t s)
{
    return ops * s / phaseSlices;
}

/** Called after each slice, outside its timing (slice index). */
using SliceHook = std::function<void(std::size_t slice)>;

/** What a measured phase observed. */
struct PhaseStats
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    double seconds = 0.0;            ///< wall time of all slices
    std::vector<double> sliceSeconds; ///< wall time of each slice
    std::vector<char> ok;            ///< per operation
    std::vector<double> latencyUs;   ///< one per completed operation
    std::uint64_t responseBytes = 0;
    double peakRssMb = 0.0;          ///< highest peak RSS of any slice
};

/**
 * Median over the slices of (points completed in the slice / its
 * wall time); pointsOf(op) is what a completed operation counts.
 */
double medianSliceRate(const PhaseStats &stats,
                       const std::function<double(std::size_t)> &pointsOf);

/** Builds operation op's request body. */
using BodyFn = std::function<std::string(std::size_t op)>;
/** Checks operation op's response; false = failed operation. */
using VerifyFn = std::function<bool(
    std::size_t op, const fosm::server::ClientResponse &response)>;

/**
 * Closed loop: conns keep-alive connections, each sending its share
 * of a slice's ops (op i goes to connection i % conns, in order) and
 * waiting for each reply before the next; the slices run one after
 * another, with afterSlice between them. Latency is timed around the
 * exchange; verification runs after the timer stops. Non-2xx
 * responses, transport errors and failed checks count as failed.
 */
PhaseStats runClosedLoop(std::uint16_t port, std::size_t conns,
                         std::size_t ops, const std::string &path,
                         const BodyFn &body, const VerifyFn &verify,
                         Tracer *tracer, const SliceHook &afterSlice);

} // namespace perfbench

#endif // PERFBENCH_HOST_HH
