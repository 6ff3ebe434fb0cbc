/**
 * @file
 * optimize-overlap: a seeded sequence of distinct POST /v1/optimize
 * specs, each overlapping earlier ones. Every spec sweeps width x
 * depth x window x ROB x six DeltaD values (1584 feasible points).
 * Each paper workload gets its specs in groups of three, each one
 * starting two DeltaD values above the one before, so every spec
 * finds 4 of its 6 DeltaD columns already evaluated and evaluates 2.
 * The second and third specs of a group find that overlap in the
 * LRU, just written by the spec before. The first spec of a group
 * overlaps the last spec of the workload's previous group, written
 * 36 specs (~57k points) earlier, far past the LRU's 8192 entries,
 * so it finds its overlap in the store. Reads and writes meet on the
 * same cache and store layers, in the same proportions at every
 * seed, and every spec does about the same work. The seed picks each
 * paper workload's first DeltaD.
 *
 * Connection c sends the specs of the paper workloads with index
 * parity c, so the two connections never share a point and every
 * planner count repeats exactly. Each spec carries a distinct
 * "limit" above its cardinality: the space is unchanged, but the
 * whole-response memo never hits.
 */

#include <algorithm>
#include <array>
#include <map>
#include <stdexcept>

#include "model/batch_eval.hh"
#include "opt/expr.hh"
#include "opt/pareto.hh"
#include "opt/planner.hh"
#include "opt/space.hh"
#include "server/params.hh"
#include "workloads.hh"

namespace perfbench {

namespace json = fosm::json;

namespace {

constexpr const char *kConstraint =
    "width * windowSize <= 768 && robSize >= windowSize";
constexpr const char *kObjectives[] = {"cpi", "windowSize + robSize"};
constexpr std::uint64_t kWidths[] = {2, 4, 8};
constexpr std::uint64_t kDepths[] = {4, 8, 12, 16};
constexpr std::uint64_t kWindowFrom = 16, kWindowStep = 16,
                        kWindows = 8;
constexpr std::uint64_t kRobs[] = {128, 256, 384};
constexpr std::uint64_t kDeltaDs = 6;

/** One /v1/optimize request. */
struct Spec
{
    std::uint32_t workload = 0;
    std::uint64_t deltaDFrom = 0; ///< kDeltaDs values from here
    std::uint64_t limit = 0;
};

/** Variables objective expressions see (optimize.cc's order). */
const std::vector<std::string> &
objectiveVariables()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v = fosm::opt::machineVariableNames();
        for (const char *col : {"cpi", "ipc", "ideal", "brmisp",
                                "icacheL1", "icacheL2", "dcacheLong",
                                "dtlb"})
            v.emplace_back(col);
        return v;
    }();
    return names;
}

fosm::opt::SpaceSpec
spaceOf(const Spec &s)
{
    fosm::opt::SpaceSpec spec;
    spec.baseline = fosm::Workbench::baselineMachine();
    std::vector<std::uint64_t> windows, deltaDs;
    for (std::uint64_t k = 0; k < kWindows; ++k)
        windows.push_back(kWindowFrom + k * kWindowStep);
    for (std::uint64_t k = 0; k < kDeltaDs; ++k)
        deltaDs.push_back(s.deltaDFrom + k);
    // Member order, as the service sorts its axes.
    spec.axes = {{"width", {std::begin(kWidths), std::end(kWidths)}},
                 {"frontEndDepth", {std::begin(kDepths), std::end(kDepths)}},
                 {"windowSize", windows},
                 {"robSize", {std::begin(kRobs), std::end(kRobs)}},
                 {"deltaD", deltaDs}};
    if (!fosm::opt::Expr::parse(kConstraint,
                                fosm::opt::machineVariableNames(),
                                spec.constraint, nullptr))
        throw std::logic_error("optimize-overlap: bad constraint");
    return spec;
}

std::string
bodyOf(const Spec &s)
{
    json::Value space = json::Value::object();
    json::Value widths = json::Value::array();
    for (const std::uint64_t w : kWidths)
        widths.push(w);
    space.set("width", std::move(widths));
    json::Value depths = json::Value::array();
    for (const std::uint64_t d : kDepths)
        depths.push(d);
    space.set("frontEndDepth", std::move(depths));
    json::Value window = json::Value::object();
    window.set("from", kWindowFrom);
    window.set("to", kWindowFrom + (kWindows - 1) * kWindowStep);
    window.set("step", kWindowStep);
    space.set("windowSize", std::move(window));
    json::Value robs = json::Value::array();
    for (const std::uint64_t r : kRobs)
        robs.push(r);
    space.set("robSize", std::move(robs));
    json::Value deltaD = json::Value::object();
    deltaD.set("from", s.deltaDFrom);
    deltaD.set("to", s.deltaDFrom + kDeltaDs - 1);
    space.set("deltaD", std::move(deltaD));

    json::Value v = json::Value::object();
    v.set("workload", workloadNames()[s.workload]);
    v.set("space", std::move(space));
    v.set("constraint", kConstraint);
    json::Value objectives = json::Value::array();
    for (const char *o : kObjectives)
        objectives.push(o);
    v.set("objectives", std::move(objectives));
    v.set("limit", s.limit);
    return v.dump();
}

/** Digest of one frontier entry, from the evaluated point. */
void
digestEntry(Digest &d, const fosm::MachineConfig &m,
            const std::vector<double> &objectives, double cpi,
            double ipc)
{
    d.str(fosm::server::machineToJson(m).canonical());
    for (const double v : objectives)
        d.f64(v);
    d.f64(cpi);
    d.f64(ipc);
}

class OptimizeOverlap : public Workload
{
  public:
    OptimizeOverlap(std::uint64_t seed, double seconds)
    {
        const std::size_t ops = opsFor(seconds, 60.0, 48);
        fosm::Rng rng(seed ^ 0x6f7074696d697aull);
        const std::size_t nw = workloadNames().size();
        std::vector<std::uint64_t> deltaD(nw);
        for (std::uint64_t &d : deltaD)
            d = static_cast<std::uint64_t>(rng.uniformInt(100, 199));
        const std::size_t perConn = nw / clientConnections;
        for (std::size_t i = 0; i < ops; ++i) {
            const std::size_t conn = i % clientConnections;
            const std::size_t k = i / clientConnections;
            const std::size_t group = k / 3;
            const std::size_t round = group / perConn;
            Spec s;
            s.workload = static_cast<std::uint32_t>(
                conn + clientConnections * (group % perConn));
            s.deltaDFrom = deltaD[s.workload] + 6 * round + 2 * (k % 3);
            s.limit = 100000 + i;
            specs_.push_back(s);
        }
        // Accuracy sample: a stratified sample of the whole design
        // box per paper workload. These points are not sent: a
        // sample of the sweeps' own grid points moved the
        // worst-workload error by a third from seed to seed.
        for (std::uint32_t w = 0; w < nw; ++w)
            for (const fosm::MachineConfig &m :
                 sampleMachines(rng, accuracyPerWorkload))
                accuracy_.push_back({w, m});
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
        // Reference frontier for every spec: enumerate, plan with
        // nothing cached, evaluate every batch, Pareto over the
        // objectives, all in-process.
        fosm::Workbench &bench = host.service().workbench();
        std::vector<fosm::opt::Expr> objectives(std::size(kObjectives));
        for (std::size_t k = 0; k < objectives.size(); ++k)
            if (!fosm::opt::Expr::parse(kObjectives[k],
                                        objectiveVariables(),
                                        objectives[k], nullptr))
                throw std::logic_error("optimize-overlap: objective");
        const std::size_t nMembers =
            fosm::opt::machineVariableNames().size();

        for (const Spec &s : specs_) {
            const fosm::opt::EnumeratedSpace space =
                fosm::opt::enumerate(spaceOf(s));
            const std::size_t n = space.machines.size();
            const fosm::WorkloadData &data =
                bench.workload(workloadNames()[s.workload]);
            const fosm::opt::SweepPlan plan = fosm::opt::planSweep(
                n, [](std::size_t) { return false; },
                [&](std::size_t i) -> std::uint64_t {
                    return space.machines[i].width;
                },
                1024);
            std::map<std::uint32_t, fosm::IWCharacteristic> fits;
            for (const std::uint64_t w : plan.characterizationKeys)
                fits.emplace(static_cast<std::uint32_t>(w),
                             fosm::Workbench::fitIw(
                                 data.iwPoints,
                                 data.missProfile.avgLatency,
                                 static_cast<std::uint32_t>(w)));
            std::vector<std::array<double, 8>> cols(n);
            for (const auto &batch : plan.batches) {
                std::vector<fosm::IWCharacteristic> iws;
                std::vector<fosm::MachineConfig> machines;
                for (const std::size_t i : batch) {
                    machines.push_back(space.machines[i]);
                    iws.push_back(fits.at(space.machines[i].width));
                }
                const auto bs = fosm::evaluateBatch(
                    iws, machines, data.missProfile,
                    fosm::ModelOptions{});
                for (std::size_t k = 0; k < batch.size(); ++k) {
                    const fosm::CpiBreakdown &b = bs[k];
                    cols[batch[k]] = {b.ideal,      b.brmisp,
                                      b.icacheL1,   b.icacheL2,
                                      b.dcacheLong, b.dtlb,
                                      b.total(),    b.ipc()};
                }
            }

            std::vector<double> vars(objectiveVariables().size());
            std::vector<double> scores(n * objectives.size());
            std::vector<std::vector<double>> raw(n);
            for (std::size_t i = 0; i < n; ++i) {
                const fosm::MachineConfig &m = space.machines[i];
                for (std::size_t v = 0; v < nMembers; ++v)
                    vars[v] = static_cast<double>(
                        fosm::opt::machineMember(
                            m, fosm::opt::canonicalMemberName(
                                   fosm::opt::machineVariableNames()[v])));
                vars[nMembers + 0] = cols[i][6];
                vars[nMembers + 1] = cols[i][7];
                for (std::size_t c = 0; c < 6; ++c)
                    vars[nMembers + 2 + c] = cols[i][c];
                for (std::size_t k = 0; k < objectives.size(); ++k) {
                    raw[i].push_back(objectives[k].eval(vars));
                    scores[i * objectives.size() + k] = raw[i].back();
                }
            }
            Digest d;
            for (const std::size_t f :
                 fosm::opt::paretoFrontier(scores, objectives.size())) {
                digestEntry(d, space.machines[f], raw[f], cols[f][6],
                            cols[f][7]);
                DesignPoint p;
                p.workload = s.workload;
                p.machine = space.machines[f];
                frontierPoints_.push_back(p);
            }
            expected_.push_back(d.value());
        }
    }

    Phase
    measure(ServiceHost &host, Tracer *tracer,
            const SliceHook &afterSlice) override
    {
        std::vector<PlannerCounts> counts(specs_.size());
        Phase phase;
        phase.stats = runClosedLoop(
            host.port(), clientConnections, specs_.size(),
            "/v1/optimize",
            [&](std::size_t i) { return bodyOf(specs_[i]); },
            [&](std::size_t i,
                const fosm::server::ClientResponse &r) {
                return check(r.body, expected_[i], counts[i]);
            },
            tracer, afterSlice);
        PlannerCounts total;
        for (const PlannerCounts &c : counts) {
            total.points += c.points;
            total.cacheHits += c.cacheHits;
            total.scheduled += c.scheduled;
            total.fits += c.fits;
        }
        phase.points = total.points;
        phase.pointsPerS = medianSliceRate(
            phase.stats,
            [&](std::size_t i) { return double(counts[i].points); });
        phase.distinctWritten = total.scheduled;
        phase.layer["opt.dedupe_ratio"] = {
            total.points ? double(total.cacheHits) / double(total.points)
                         : 0.0,
            "ratio"};
        phase.layer["opt.iw_fits"] = {double(total.fits), "count"};
        return phase;
    }

    const std::vector<DesignPoint> &
    points() const override
    {
        return frontierPoints_;
    }

    std::vector<ProbeSpace>
    spaces() const override
    {
        std::vector<ProbeSpace> out;
        for (const Spec &s : specs_)
            out.push_back({s.workload, spaceOf(s)});
        return out;
    }

  private:
    struct PlannerCounts
    {
        std::uint64_t points = 0;
        std::uint64_t cacheHits = 0;
        std::uint64_t scheduled = 0;
        std::uint64_t fits = 0;
    };

    /** The response frontier equals the reference; records the
     *  planner's counts. */
    static bool
    check(const std::string &text, std::uint64_t expected,
          PlannerCounts &counts)
    {
        json::Value doc;
        if (!json::parse(text, doc, nullptr))
            return false;
        const json::Value *complete = doc.find("complete");
        const json::Value *frontier = doc.find("frontier");
        const json::Value *planner = doc.find("planner");
        if (!complete || !complete->asBool(false) || !frontier ||
            !frontier->isArray() || !planner)
            return false;
        Digest d;
        for (const json::Value &entry : frontier->items()) {
            const json::Value *machine = entry.find("machine");
            const json::Value *objectives = entry.find("objectives");
            const json::Value *cpi = entry.find("cpi");
            const json::Value *ipc = entry.find("ipc");
            if (!machine || !objectives || !cpi || !ipc)
                return false;
            d.str(machine->canonical());
            for (const json::Value &v : objectives->items())
                d.f64(v.asDouble());
            d.f64(cpi->asDouble());
            d.f64(ipc->asDouble());
        }
        const auto count = [&](const char *name) -> std::uint64_t {
            const json::Value *v = planner->find(name);
            return v ? static_cast<std::uint64_t>(v->asDouble()) : 0;
        };
        counts.points = count("points");
        counts.cacheHits = count("cacheHits");
        counts.scheduled = count("scheduled");
        counts.fits = count("characterizations");
        return d.value() == expected;
    }

    std::vector<Spec> specs_;
    std::vector<DesignPoint> accuracy_;
    std::vector<std::uint64_t> expected_;
    std::vector<DesignPoint> frontierPoints_;
};

} // namespace

std::unique_ptr<Workload>
makeOptimizeOverlap(std::uint64_t seed, double seconds)
{
    return std::make_unique<OptimizeOverlap>(seed, seconds);
}

} // namespace perfbench
