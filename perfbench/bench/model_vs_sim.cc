/**
 * @file
 * model-vs-sim: a seeded list of off-baseline design points, spread
 * evenly over the 12 paper workloads, each answered by the model
 * (the service's /v1/cpi handler, called in-process with no HTTP,
 * so the answer is the one a user would get) and by the detailed
 * simulator, fanned out over the global pool. The only workload
 * that runs src/sim, and the one that carries the accuracy metrics.
 */

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "common/thread_pool.hh"
#include "workloads.hh"

namespace perfbench {

namespace json = fosm::json;

namespace {

class ModelVsSim : public Workload
{
  public:
    ModelVsSim(std::uint64_t seed, double seconds)
    {
        // A stratified sample per paper workload, interleaved; the
        // rare repeated machine is replaced by an independent draw.
        const std::size_t n = opsFor(seconds, 60.0, 48);
        const std::size_t nw = workloadNames().size();
        fosm::Rng rng(seed ^ 0x6d76732d73696dull);
        std::vector<std::vector<fosm::MachineConfig>> by(nw);
        for (auto &list : by)
            list = sampleMachines(rng, (n + nw - 1) / nw);
        std::unordered_set<std::uint64_t> seen;
        for (std::size_t i = 0; i < n; ++i) {
            DesignPoint p;
            p.workload = static_cast<std::uint32_t>(i % nw);
            p.machine = by[p.workload][i / nw];
            while (!seen.insert(machineKey(p.machine) ^
                                (std::uint64_t(p.workload) << 56))
                        .second)
                p.machine = sampleMachine(rng);
            points_.push_back(p);
        }
    }

    bool http() const override { return false; }

    void
    prepare(ServiceHost &host) override
    {
        for (const DesignPoint &p : points_)
            expected_.push_back(
                scalarModel(host.service().workbench(), p).total());
    }

    Phase
    measure(ServiceHost &host, Tracer *tracer,
            const SliceHook &afterSlice) override
    {
        const std::size_t n = points_.size();
        std::vector<double> modelCpi(n, 0.0);
        std::vector<SimOutcome> sims(n);
        std::vector<double> latencyUs(n, 0.0);
        std::vector<char> ok(n, 0);
        std::vector<std::uint64_t> bytes(n, 0);
        fosm::Workbench &bench = host.service().workbench();

        const auto evaluate = [&](std::size_t i) {
            const std::uint64_t rid = tracer ? tracer->newId() : 0;
            const SpanScope point(tracer, "mvs.point", 0, rid);
            const Clock::time_point t0 = Clock::now();
            fosm::server::HttpRequest request;
            request.method = "POST";
            request.target = "/v1/cpi";
            request.body = cpiBody(points_[i]).dump();
            fosm::server::HttpResponse response;
            {
                const SpanScope call(tracer, "client.request", point.id(),
                                     rid);
                if (tracer)
                    request.headers = {
                        {requestIdHeader, std::to_string(rid)},
                        {parentSpanHeader, std::to_string(call.id())}};
                response = host.call(request);
            }
            {
                const SpanScope sim(tracer, "sim.simulate", point.id(),
                                    rid);
                sims[i] = simulatePoint(bench, points_[i]);
            }
            latencyUs[i] = std::chrono::duration<double, std::micro>(
                               Clock::now() - t0)
                               .count();
            bytes[i] = response.body.size();
            json::Value doc;
            const json::Value *cpi = nullptr;
            const json::Value *total = nullptr;
            if (response.status == 200 &&
                json::parse(response.body, doc, nullptr) &&
                (cpi = doc.find("cpi")) && (total = cpi->find("total"))) {
                modelCpi[i] = total->asDouble();
                ok[i] = std::memcmp(&modelCpi[i], &expected_[i],
                                    sizeof(double)) == 0;
            }
        };

        Phase phase;
        for (std::size_t s = 0; s < phaseSlices; ++s) {
            const std::size_t begin = sliceBegin(n, s);
            resetPeakRss();
            const Clock::time_point start = Clock::now();
            fosm::parallelFor(sliceBegin(n, s + 1) - begin,
                              [&](std::size_t j) { evaluate(begin + j); });
            phase.stats.sliceSeconds.push_back(
                secondsBetween(start, Clock::now()));
            phase.stats.seconds += phase.stats.sliceSeconds.back();
            phase.stats.peakRssMb =
                std::max(phase.stats.peakRssMb, peakRssMb());
            afterSlice(s);
        }
        phase.stats.attempted = n;
        phase.stats.ok = ok;
        for (std::size_t i = 0; i < n; ++i) {
            if (!ok[i]) {
                ++phase.stats.failed;
                continue;
            }
            phase.stats.latencyUs.push_back(latencyUs[i]);
            phase.stats.responseBytes += bytes[i];
        }
        phase.pointsPerS = medianSliceRate(
            phase.stats, [](std::size_t) { return 1.0; });
        phase.points = n - phase.stats.failed;
        phase.distinctWritten = n;
        phase.hasAccuracy = true;
        phase.accuracy = summarizeAccuracy(points_, modelCpi, sims);
        return phase;
    }

    const std::vector<DesignPoint> &
    points() const override
    {
        return points_;
    }

    /** None: every point is simulated inside the phase. */
    std::vector<DesignPoint>
    accuracyPoints() const override
    {
        return {};
    }

  private:
    std::vector<DesignPoint> points_;
    std::vector<double> expected_;
};

} // namespace

std::unique_ptr<Workload>
makeModelVsSim(std::uint64_t seed, double seconds)
{
    return std::make_unique<ModelVsSim>(seed, seconds);
}

} // namespace perfbench
