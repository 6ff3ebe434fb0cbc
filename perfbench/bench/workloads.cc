#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <unordered_set>

#include "model/batch_eval.hh"
#include "opt/expr.hh"

namespace perfbench {

namespace json = fosm::json;

std::unique_ptr<Workload> makeOptimizeOverlap(std::uint64_t seed,
                                              double seconds);
std::unique_ptr<Workload> makeModelVsSim(std::uint64_t seed,
                                         double seconds);

std::size_t
opsFor(double seconds, double perSecond, std::size_t min)
{
    return std::max<std::size_t>(
        min, static_cast<std::size_t>(std::llround(seconds * perSecond)));
}

namespace {

// -- cpi-hot --------------------------------------------------------

/**
 * Interactive path: HTTP read/parse, routing, cacheKey, LRU probe,
 * response write. 12 seeded bodies, one per paper workload, cycled
 * over two connections; after the first 12 requests every request
 * is an LRU hit, so the model and store are bypassed.
 */
class CpiHot : public Workload
{
  public:
    CpiHot(std::uint64_t seed, double seconds)
        : ops_(opsFor(seconds, 55000.0, 1000))
    {
        // Each body is the first of a stratified sample of machines
        // for its paper workload; the rest of the sample is never
        // sent and only widens the accuracy check, since 12 points
        // are too few to estimate the model's error steadily.
        fosm::Rng rng(seed ^ 0x6370692d686f74ull);
        for (std::uint32_t w = 0; w < workloadNames().size(); ++w) {
            for (const fosm::MachineConfig &m :
                 sampleMachines(rng, accuracyPerWorkload))
                accuracy_.push_back({w, m});
            points_.push_back(accuracy_[w * accuracyPerWorkload]);
            bodies_.push_back(cpiBody(points_.back()).dump());
        }
    }

    std::vector<DesignPoint>
    accuracyPoints() const override
    {
        return accuracy_;
    }

    void
    prepare(ServiceHost &host) override
    {
        for (const std::string &body : bodies_) {
            json::Value request;
            if (!json::parse(body, request, nullptr))
                throw std::runtime_error("cpi-hot: bad body");
            expected_.push_back(host.service().cpi(request).dump());
        }
    }

    Phase
    measure(ServiceHost &host, Tracer *tracer,
            const SliceHook &afterSlice) override
    {
        const std::size_t n = bodies_.size();
        Phase phase;
        phase.stats = runClosedLoop(
            host.port(), clientConnections, ops_, "/v1/cpi",
            [&](std::size_t op) { return bodies_[op % n]; },
            [&](std::size_t op,
                const fosm::server::ClientResponse &r) {
                return r.body == expected_[op % n];
            },
            tracer, afterSlice);
        phase.points = phase.stats.attempted - phase.stats.failed;
        phase.pointsPerS = medianSliceRate(
            phase.stats, [](std::size_t) { return 1.0; });
        phase.distinctWritten = n;
        return phase;
    }

    const std::vector<DesignPoint> &
    points() const override
    {
        return points_;
    }

  private:
    std::size_t ops_;
    std::vector<DesignPoint> points_;
    std::vector<DesignPoint> accuracy_;
    std::vector<std::string> bodies_;
    std::vector<std::string> expected_;
};

// -- batch-cold -----------------------------------------------------

constexpr std::size_t kBatchRows = 256;

constexpr const char *kColumns[] = {"ideal",      "brmisp", "icacheL1",
                                    "icacheL2",   "dcacheLong",
                                    "dtlb",       "total"};

/**
 * Write path: every row is a design point never seen before, so it
 * misses both cache tiers and runs the batched kernel, the /v1/cpi
 * render, and the LRU + store write-through.
 */
class BatchCold : public Workload
{
  public:
    BatchCold(std::uint64_t seed, double seconds)
        : requests_(opsFor(seconds, 140.0, 48))
    {
        // Rows are independent draws from the design box, except
        // that each paper workload's first request opens with a
        // stratified sample of 12 machines: the accuracy sample.
        fosm::Rng rng(seed ^ 0x62617463682dull);
        const std::size_t nw = workloadNames().size();
        std::unordered_set<std::uint64_t> seen;
        const auto fresh = [&](std::uint32_t w,
                               const fosm::MachineConfig &m) {
            return seen.insert(machineKey(m) ^ (std::uint64_t(w) << 56))
                .second;
        };
        points_.reserve(requests_ * kBatchRows);
        for (std::size_t r = 0; r < requests_; ++r) {
            const auto w = static_cast<std::uint32_t>(r % nw);
            std::size_t k = 0;
            if (r < nw) {
                for (const fosm::MachineConfig &m :
                     sampleMachines(rng, accuracyPerWorkload)) {
                    if (!fresh(w, m))
                        continue;
                    points_.push_back({w, m});
                    accuracy_.push_back({w, m});
                    ++k;
                }
            }
            while (k < kBatchRows) {
                const fosm::MachineConfig m = sampleMachine(rng);
                if (!fresh(w, m))
                    continue;
                points_.push_back({w, m});
                ++k;
            }
        }
    }

    std::vector<DesignPoint>
    accuracyPoints() const override
    {
        return accuracy_;
    }

    bool kernelPath() const override { return true; }

    void
    prepare(ServiceHost &host) override
    {
        // 0-ULP reference: the batched kernel in-process, one call
        // per request, digested column by column.
        fosm::Workbench &bench = host.service().workbench();
        expected_.resize(requests_);
        for (std::size_t r = 0; r < requests_; ++r) {
            const DesignPoint *rows = &points_[r * kBatchRows];
            const fosm::WorkloadData &data =
                bench.workload(workloadNames()[rows[0].workload]);
            std::vector<fosm::IWCharacteristic> iws;
            std::vector<fosm::MachineConfig> machines;
            for (std::size_t k = 0; k < kBatchRows; ++k) {
                machines.push_back(rows[k].machine);
                iws.push_back(fosm::Workbench::fitIw(
                    data.iwPoints, data.missProfile.avgLatency,
                    rows[k].machine.width));
            }
            const std::vector<fosm::CpiBreakdown> bs =
                fosm::evaluateBatch(iws, machines, data.missProfile,
                                    fosm::ModelOptions{});
            Digest d;
            for (const fosm::CpiBreakdown &b : bs) {
                for (const double v :
                     {b.ideal, b.brmisp, b.icacheL1, b.icacheL2,
                      b.dcacheLong, b.dtlb, b.total(), b.ipc()})
                    d.f64(v);
            }
            expected_[r] = d.value();
        }
    }

    Phase
    measure(ServiceHost &host, Tracer *tracer,
            const SliceHook &afterSlice) override
    {
        Phase phase;
        phase.stats = runClosedLoop(
            host.port(), clientConnections, requests_, "/v1/batch",
            [&](std::size_t r) { return body(r); },
            [&](std::size_t r,
                const fosm::server::ClientResponse &resp) {
                return digestResponse(resp.body) == expected_[r];
            },
            tracer, afterSlice);
        phase.points = (phase.stats.attempted - phase.stats.failed) *
                       kBatchRows;
        phase.pointsPerS = medianSliceRate(
            phase.stats, [](std::size_t) { return double(kBatchRows); });
        phase.distinctWritten = points_.size();
        return phase;
    }

    const std::vector<DesignPoint> &
    points() const override
    {
        return points_;
    }

  private:
    std::string
    body(std::size_t r) const
    {
        const DesignPoint *rows = &points_[r * kBatchRows];
        json::Value v = json::Value::object();
        v.set("workload", workloadNames()[rows[0].workload]);
        json::Value arr = json::Value::array();
        for (std::size_t k = 0; k < kBatchRows; ++k)
            arr.push(machineDelta(rows[k].machine));
        v.set("rows", std::move(arr));
        return v.dump();
    }

    /** Digest of the columns in a JSON batch response; any row
     *  error or missing column yields 0 (never a valid digest). */
    static std::uint64_t
    digestResponse(const std::string &text)
    {
        json::Value doc;
        if (!json::parse(text, doc, nullptr))
            return 0;
        const json::Value *cpi = doc.find("cpi");
        const json::Value *ipc = doc.find("ipc");
        const json::Value *errors = doc.find("errors");
        if (!cpi || !ipc || !errors ||
            errors->items().size() != kBatchRows)
            return 0;
        std::vector<const json::Value *> cols;
        for (const char *name : kColumns) {
            const json::Value *c = cpi->find(name);
            if (!c || c->items().size() != kBatchRows)
                return 0;
            cols.push_back(c);
        }
        if (ipc->items().size() != kBatchRows)
            return 0;
        cols.push_back(ipc);
        Digest d;
        for (std::size_t k = 0; k < kBatchRows; ++k) {
            if (!errors->items()[k].isNull())
                return 0;
            for (const json::Value *c : cols) {
                const json::Value &cell = c->items()[k];
                if (!cell.isNumber())
                    return 0;
                d.f64(cell.asDouble());
            }
        }
        return d.value();
    }

    std::size_t requests_;
    std::vector<DesignPoint> points_;
    std::vector<DesignPoint> accuracy_;
    std::vector<std::uint64_t> expected_;
};

} // namespace

std::vector<ProbeSpace>
Workload::spaces() const
{
    // One space per paper workload present: the cross product of
    // the first distinct widths, windows and ROB sizes its points
    // use, constrained like the optimize-overlap specs.
    const std::size_t nw = workloadNames().size();
    std::vector<std::set<std::uint64_t>> widths(nw), windows(nw),
        robs(nw);
    for (const DesignPoint &p : points()) {
        widths[p.workload].insert(p.machine.width);
        windows[p.workload].insert(p.machine.windowSize);
        robs[p.workload].insert(p.machine.robSize);
    }
    const auto firstN = [](const std::set<std::uint64_t> &s,
                           std::size_t n) {
        std::vector<std::uint64_t> v(s.begin(), s.end());
        v.resize(std::min(n, v.size()));
        return v;
    };
    std::vector<ProbeSpace> out;
    for (std::size_t w = 0; w < nw; ++w) {
        if (widths[w].empty())
            continue;
        ProbeSpace space;
        space.workload = static_cast<std::uint32_t>(w);
        fosm::opt::SpaceSpec &spec = space.spec;
        spec.baseline = fosm::Workbench::baselineMachine();
        spec.axes = {{"width", firstN(widths[w], 8)},
                     {"windowSize", firstN(windows[w], 16)},
                     {"robSize", firstN(robs[w], 8)}};
        fosm::opt::Expr::parse("robSize >= windowSize",
                               fosm::opt::machineVariableNames(),
                               spec.constraint, nullptr);
        out.push_back(std::move(space));
    }
    return out;
}

const std::vector<std::string> &
allWorkloads()
{
    static const std::vector<std::string> names = {
        "cpi-hot", "batch-cold", "optimize-overlap", "model-vs-sim"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed,
             double seconds)
{
    if (name == "cpi-hot")
        return std::make_unique<CpiHot>(seed, seconds);
    if (name == "batch-cold")
        return std::make_unique<BatchCold>(seed, seconds);
    if (name == "optimize-overlap")
        return makeOptimizeOverlap(seed, seconds);
    if (name == "model-vs-sim")
        return makeModelVsSim(seed, seconds);
    return nullptr;
}

} // namespace perfbench
