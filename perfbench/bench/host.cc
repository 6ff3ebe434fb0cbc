#include "host.hh"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace server = fosm::server;

ServiceHost::ServiceHost(const std::string &parentDir, bool http,
                         Tracer *tracer)
    : dir_(parentDir, "store")
{
    const Clock::time_point start = Clock::now();

    server::ServiceConfig config; // fosm-serve defaults: LRU 8192
    config.storeDir = dir_.path();
    service_ = std::make_unique<server::ModelService>(config, metrics_);
    service_->warmup();

    handler_ = service_->handler();
    if (tracer) {
        handler_ = [inner = handler_,
                    tracer](const server::HttpRequest &request) {
            const std::string &rid = request.header(requestIdHeader);
            const std::string &pid = request.header(parentSpanHeader);
            SpanScope span(tracer, "server.handler",
                           pid.empty() ? 0 : std::stoull(pid),
                           rid.empty() ? 0 : std::stoull(rid));
            return inner(request);
        };
    }

    if (http) {
        server::HttpServerConfig sc;
        sc.workers = serverWorkers;
        sc.metricPaths = service_->metricPaths();
        server_ = std::make_unique<server::HttpServer>(sc, handler_,
                                                       &metrics_);
        server_->start();
    }
    setupSeconds_ = secondsBetween(start, Clock::now());
}

ServiceHost::~ServiceHost()
{
    if (server_) {
        server_->requestStop();
        server_->join();
        server_.reset();
    }
    service_.reset();
}

std::uint16_t
ServiceHost::port() const
{
    if (!server_)
        throw std::logic_error("service hosted without HTTP");
    return server_->port();
}

fosm::store::StoreStats
ServiceHost::storeStats()
{
    const auto &store = service_->persistentCache()->store();
    store->flush();
    return store->stats();
}

std::uint64_t
ServiceHost::storeLiveBytes()
{
    return storeStats().liveBytes;
}

std::uint64_t
ServiceHost::counter(const std::string &name)
{
    return metrics_.counter(name, "").value();
}

double
medianSliceRate(const PhaseStats &stats,
                const std::function<double(std::size_t)> &pointsOf)
{
    const std::size_t ops = stats.ok.size();
    std::vector<double> rates;
    for (std::size_t s = 0; s < stats.sliceSeconds.size(); ++s) {
        double points = 0.0;
        for (std::size_t op = sliceBegin(ops, s);
             op < sliceBegin(ops, s + 1); ++op)
            if (stats.ok[op])
                points += pointsOf(op);
        if (stats.sliceSeconds[s] > 0.0)
            rates.push_back(points / stats.sliceSeconds[s]);
    }
    return median(rates);
}

PhaseStats
runClosedLoop(std::uint16_t port, std::size_t conns, std::size_t ops,
              const std::string &path, const BodyFn &body,
              const VerifyFn &verify, Tracer *tracer,
              const SliceHook &afterSlice)
{
    PhaseStats stats;
    stats.ok.assign(ops, 0);
    std::vector<std::vector<double>> latency(conns);
    std::vector<std::uint64_t> bytes(conns, 0);

    // One operation on a connection; returns whether it succeeded.
    const auto exchange = [&](server::HttpClient &client, std::size_t c,
                              std::size_t op) {
        const std::string text = body(op);
        server::ClientResponse response;
        bool ok = false;
        Clock::time_point t0;
        Clock::time_point t1;
        if (tracer) {
            const std::uint64_t rid = tracer->newId();
            const SpanScope span(tracer, "client.request", 0, rid);
            const std::vector<std::pair<std::string, std::string>>
                headers = {{requestIdHeader, std::to_string(rid)},
                           {parentSpanHeader, std::to_string(span.id())}};
            t0 = Clock::now();
            ok = client.request("POST", path, text, headers, response);
            t1 = Clock::now();
        } else {
            t0 = Clock::now();
            ok = client.request("POST", path, text, response);
            t1 = Clock::now();
        }
        ok = ok && response.status >= 200 && response.status < 300;
        try {
            ok = ok && verify(op, response);
        } catch (const std::exception &) {
            ok = false;
        }
        if (!ok)
            return;
        stats.ok[op] = 1;
        bytes[c] += response.body.size();
        latency[c].push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
    };

    for (std::size_t s = 0; s < phaseSlices; ++s) {
        const std::size_t begin = sliceBegin(ops, s);
        const std::size_t end = sliceBegin(ops, s + 1);
        std::atomic<std::size_t> ready{0};
        std::atomic<bool> go{false};
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < conns; ++c) {
            threads.emplace_back([&, c] {
                server::HttpClient client("127.0.0.1", port);
                client.setTimeoutMs(60000);
                ready.fetch_add(1);
                while (!go.load())
                    std::this_thread::yield();
                for (std::size_t op = begin + c; op < end; op += conns)
                    exchange(client, c, op);
            });
        }
        while (ready.load() < conns)
            std::this_thread::yield();
        resetPeakRss();
        const Clock::time_point start = Clock::now();
        go.store(true);
        for (std::thread &t : threads)
            t.join();
        stats.sliceSeconds.push_back(secondsBetween(start, Clock::now()));
        stats.peakRssMb = std::max(stats.peakRssMb, peakRssMb());
        afterSlice(s);
    }

    stats.attempted = ops;
    for (std::size_t c = 0; c < conns; ++c) {
        stats.responseBytes += bytes[c];
        stats.latencyUs.insert(stats.latencyUs.end(), latency[c].begin(),
                               latency[c].end());
    }
    for (const char ok : stats.ok)
        stats.failed += ok ? 0 : 1;
    for (const double t : stats.sliceSeconds)
        stats.seconds += t;
    return stats;
}

} // namespace perfbench
