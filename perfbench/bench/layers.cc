#include "layers.hh"

#include <array>
#include <map>
#include <stdexcept>
#include <unordered_set>

#include "analysis/miss_profiler.hh"
#include "common/thread_pool.hh"
#include "experiments/characterization_store.hh"
#include "iw/window_sim.hh"
#include "model/batch_eval.hh"
#include "opt/expr.hh"
#include "opt/pareto.hh"
#include "opt/planner.hh"
#include "opt/space.hh"
#include "server/cpi_response.hh"
#include "server/lru_cache.hh"
#include "server/params.hh"
#include "store/store.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

namespace perfbench {

namespace json = fosm::json;

namespace {

/** Design points replayed through the miss path (evenly strided). */
constexpr std::size_t kProbePoints = 2048;
/** Design spaces replayed through the opt layer. */
constexpr std::size_t kProbeSpaces = 48;
/** Rows per batched-kernel call in the probe (batch-cold's size). */
constexpr std::size_t kKernelRows = 256;

/** The single-point miss path, in pipeline order: span name and the
 *  per-request stack metric it feeds. */
struct Stage
{
    const char *span;
    const char *stack;
};
constexpr Stage kStages[] = {
    {"json.parse", "stack.json_parse_pct"},
    {"params.decode", "stack.params_decode_pct"},
    {"service.cache_key", "stack.cache_key_pct"},
    {"lru.get", "stack.lru_get_pct"},
    {"store.get", "stack.store_get_pct"},
    {"iw.fit", "stack.iw_fit_pct"},
    {"model.scalar", "stack.model_pct"},
    {"cpi_response.render", "stack.render_pct"},
    {"json.serialize", "stack.serialize_pct"},
    {"lru.put", "stack.lru_put_pct"},
    {"store.put", "stack.store_put_pct"},
    {"cpi_response.extract", "stack.extract_pct"},
};

std::vector<DesignPoint>
strided(const std::vector<DesignPoint> &points, std::size_t n)
{
    if (points.size() <= n)
        return points;
    std::vector<DesignPoint> out;
    for (std::size_t k = 0; k < n; ++k)
        out.push_back(points[k * points.size() / n]);
    return out;
}

/** Replay each point through the service's miss path, stage by
 *  stage, on a private LRU and a scratch store. */
void
probeMissPath(ServiceHost &host, const std::vector<DesignPoint> &pts,
              Tracer &tracer, const std::string &workDir)
{
    fosm::server::ShardedLruCache<std::string> lru(8192, 8);
    const ScratchDir dir(workDir, "probe-store");
    fosm::store::StoreConfig config;
    config.dir = dir.path();
    fosm::store::PersistentStore store(config);
    fosm::Workbench &bench = host.service().workbench();
    Tracer *t = &tracer;

    for (const DesignPoint &p : pts) {
        const std::string &name = workloadNames()[p.workload];
        const std::string body = cpiBody(p).dump();
        const std::uint64_t rid = tracer.newId();
        const SpanScope request(t, "probe.request", 0, rid);
        const std::uint64_t parent = request.id();

        json::Value doc;
        {
            const SpanScope s(t, "json.parse", parent, rid);
            json::parse(body, doc, nullptr);
        }
        fosm::MachineConfig machine;
        {
            const SpanScope s(t, "params.decode", parent, rid);
            fosm::server::workloadMember(doc);
            machine = fosm::server::machineFromJson(doc);
            fosm::server::optionsFromJson(doc);
        }
        std::string key;
        {
            const SpanScope s(t, "service.cache_key", parent, rid);
            key = fosm::server::ModelService::cacheKey("/v1/cpi", doc);
        }
        std::string cached;
        {
            const SpanScope s(t, "lru.get", parent, rid);
            lru.get(key, cached);
        }
        {
            const SpanScope s(t, "store.get", parent, rid);
            store.get("r/" + key, cached);
        }
        const fosm::WorkloadData &data = bench.workload(name);
        fosm::IWCharacteristic iw;
        {
            const SpanScope s(t, "iw.fit", parent, rid);
            iw = fosm::Workbench::fitIw(
                data.iwPoints, data.missProfile.avgLatency,
                machine.width);
        }
        fosm::CpiBreakdown b;
        {
            const SpanScope s(t, "model.scalar", parent, rid);
            b = fosm::FirstOrderModel(machine).evaluate(
                iw, data.missProfile);
        }
        json::Value response;
        {
            const SpanScope s(t, "cpi_response.render", parent, rid);
            response = fosm::server::cpiResponseJson(name, data, machine,
                                                     iw, b);
        }
        std::string text;
        {
            const SpanScope s(t, "json.serialize", parent, rid);
            text = response.dump();
        }
        {
            const SpanScope s(t, "lru.put", parent, rid);
            lru.put(key, text);
        }
        {
            const SpanScope s(t, "store.put", parent, rid);
            store.put("r/" + key, text);
        }
        std::array<double, 8> cols{};
        {
            const SpanScope s(t, "cpi_response.extract", parent, rid);
            fosm::server::extractColumns(text, cols);
        }
    }
}

/** The batched kernel over the points, kKernelRows per call. */
std::uint64_t
probeKernel(ServiceHost &host, const std::vector<DesignPoint> &pts,
            Tracer &tracer)
{
    fosm::Workbench &bench = host.service().workbench();
    std::uint64_t evaluated = 0;
    for (std::uint32_t w = 0; w < workloadNames().size(); ++w) {
        const fosm::WorkloadData &data =
            bench.workload(workloadNames()[w]);
        std::vector<fosm::IWCharacteristic> iws;
        std::vector<fosm::MachineConfig> machines;
        const auto flush = [&] {
            if (machines.empty())
                return;
            const SpanScope s(&tracer, "model.kernel", 0, 0);
            fosm::evaluateBatch(iws, machines, data.missProfile,
                                fosm::ModelOptions{});
            evaluated += machines.size();
            iws.clear();
            machines.clear();
        };
        for (const DesignPoint &p : pts) {
            if (p.workload != w)
                continue;
            machines.push_back(p.machine);
            iws.push_back(fosm::Workbench::fitIw(
                data.iwPoints, data.missProfile.avgLatency,
                p.machine.width));
            if (machines.size() == kKernelRows)
                flush();
        }
        flush();
    }
    return evaluated;
}

/** What the opt-layer probe counted. */
struct OptCounts
{
    std::uint64_t points = 0;
    std::uint64_t deduped = 0;
    std::uint64_t fits = 0;
    std::uint64_t exprPoints = 0;
};

/** Enumerate, plan against the live store, fit, evaluate, score and
 *  take the frontier of each space, as /v1/optimize does. */
OptCounts
probeOpt(ServiceHost &host, const std::vector<ProbeSpace> &spaces,
         Tracer &tracer)
{
    static const std::vector<std::string> variables = [] {
        std::vector<std::string> v = fosm::opt::machineVariableNames();
        for (const char *col : {"cpi", "ipc", "ideal", "brmisp",
                                "icacheL1", "icacheL2", "dcacheLong",
                                "dtlb"})
            v.emplace_back(col);
        return v;
    }();
    std::vector<fosm::opt::Expr> objectives(2);
    fosm::opt::Expr::parse("cpi", variables, objectives[0], nullptr);
    fosm::opt::Expr::parse("windowSize + robSize", variables,
                           objectives[1], nullptr);
    const std::size_t nMembers =
        fosm::opt::machineVariableNames().size();

    fosm::Workbench &bench = host.service().workbench();
    const auto &liveStore = host.service().persistentCache()->store();
    Tracer *t = &tracer;
    OptCounts counts;
    for (const ProbeSpace &ps : spaces) {
        const std::string &name = workloadNames()[ps.workload];
        const fosm::WorkloadData &data = bench.workload(name);
        fosm::opt::EnumeratedSpace space;
        {
            const SpanScope s(t, "opt.space_enum", 0, 0);
            space = fosm::opt::enumerate(ps.spec);
        }
        const std::size_t n = space.machines.size();
        if (n == 0)
            continue;
        std::vector<std::string> keys(n);
        for (std::size_t i = 0; i < n; ++i) {
            json::Value machine = json::Value::object();
            for (const fosm::opt::AxisSpec &axis : ps.spec.axes)
                machine.set(axis.name, fosm::opt::machineMember(
                                           space.machines[i], axis.name));
            json::Value row = json::Value::object();
            row.set("workload", name);
            row.set("machine", std::move(machine));
            keys[i] = "r/" + fosm::server::ModelService::cacheKey(
                                 "/v1/cpi", row);
        }
        fosm::opt::SweepPlan plan;
        {
            const SpanScope s(t, "opt.plan", 0, 0);
            plan = fosm::opt::planSweep(
                n,
                [&](std::size_t i) { return liveStore->contains(keys[i]); },
                [&](std::size_t i) -> std::uint64_t {
                    return space.machines[i].width;
                },
                1024);
        }
        counts.points += n;
        counts.deduped += plan.stats.cacheHits;
        counts.fits += plan.characterizationKeys.size();

        std::map<std::uint32_t, fosm::IWCharacteristic> fits;
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint32_t width = space.machines[i].width;
            if (!fits.count(width)) {
                const SpanScope s(t, "iw.fit", 0, 0);
                fits.emplace(width, fosm::Workbench::fitIw(
                                        data.iwPoints,
                                        data.missProfile.avgLatency,
                                        width));
            }
        }
        std::vector<fosm::CpiBreakdown> bs;
        {
            std::vector<fosm::IWCharacteristic> iws;
            for (const fosm::MachineConfig &m : space.machines)
                iws.push_back(fits.at(m.width));
            const SpanScope s(t, "model.kernel", 0, 0);
            bs = fosm::evaluateBatch(iws, space.machines,
                                     data.missProfile,
                                     fosm::ModelOptions{});
        }
        std::vector<double> scores(n * objectives.size());
        {
            const SpanScope s(t, "opt.expr", 0, 0);
            std::vector<double> vars(variables.size(), 0.0);
            for (std::size_t i = 0; i < n; ++i) {
                const fosm::MachineConfig &m = space.machines[i];
                for (std::size_t v = 0; v < nMembers; ++v)
                    vars[v] = static_cast<double>(fosm::opt::machineMember(
                        m, fosm::opt::canonicalMemberName(
                               fosm::opt::machineVariableNames()[v])));
                const fosm::CpiBreakdown &b = bs[i];
                const double cols[] = {b.total(),   b.ipc(),
                                       b.ideal,     b.brmisp,
                                       b.icacheL1,  b.icacheL2,
                                       b.dcacheLong, b.dtlb};
                for (std::size_t c = 0; c < 8; ++c)
                    vars[nMembers + c] = cols[c];
                for (std::size_t k = 0; k < objectives.size(); ++k)
                    scores[i * objectives.size() + k] =
                        objectives[k].eval(vars);
            }
        }
        counts.exprPoints += n;
        {
            const SpanScope s(t, "opt.pareto", 0, 0);
            fosm::opt::paretoFrontier(scores, objectives.size());
        }
    }
    return counts;
}

/** Rebuild every paper workload's characterization step by step,
 *  then load it back from the service's store. */
void
probeSetup(ServiceHost &host, Tracer &tracer)
{
    fosm::Workbench &bench = host.service().workbench();
    const std::uint64_t insts = bench.traceInstructions();
    const fosm::CharacterizationStore charStore(
        host.service().persistentCache()->store());
    Tracer *t = &tracer;
    fosm::parallelFor(workloadNames().size(), [&](std::size_t i) {
        const std::string &name = workloadNames()[i];
        const std::uint64_t rid = tracer.newId();
        fosm::Trace trace;
        {
            const SpanScope build(t, "experiments.workload_build", 0,
                                  rid);
            fosm::MissProfile profile;
            std::vector<fosm::IwPoint> curve;
            {
                const SpanScope s(t, "workload.trace_gen", build.id(),
                                  rid);
                trace = fosm::generateTrace(fosm::profileByName(name),
                                            insts);
            }
            {
                const SpanScope s(t, "analysis.miss_profile",
                                  build.id(), rid);
                profile = fosm::profileTrace(
                    trace, fosm::Workbench::baselineProfilerConfig());
            }
            {
                const SpanScope s(t, "iw.window_sim", build.id(), rid);
                fosm::WindowSimConfig config;
                config.unitLatency = true;
                config.issueWidth = 0;
                curve = fosm::measureIwCurve(trace, {4, 8, 16, 32, 64},
                                             config);
            }
            {
                const SpanScope s(t, "iw.fit", build.id(), rid);
                fosm::Workbench::fitIw(curve, profile.avgLatency, 4);
            }
        }
        const std::string key = fosm::CharacterizationStore::key(
            name, insts, fosm::traceDigest(trace));
        fosm::Characterization loaded;
        const SpanScope s(t, "experiments.charstore_load", 0, rid);
        if (!charStore.load(key, loaded))
            throw std::runtime_error("characterization of " + name +
                                     " missing from the store");
    });
}

double
meanNs(const std::map<std::string, SpanSummary> &sums,
       const std::string &name)
{
    const auto it = sums.find(name);
    if (it == sums.end() || it->second.count == 0)
        return 0.0;
    return it->second.totalNs / static_cast<double>(it->second.count);
}

double
totalNs(const std::map<std::string, SpanSummary> &sums,
        const std::string &name)
{
    const auto it = sums.find(name);
    return it == sums.end() ? 0.0 : it->second.totalNs;
}

double
meanSelfNs(const std::map<std::string, SpanSummary> &sums,
           const std::string &name)
{
    const auto it = sums.find(name);
    if (it == sums.end() || it->second.count == 0)
        return 0.0;
    return it->second.selfNs / static_cast<double>(it->second.count);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

MetricMap
probeLayers(Workload &w, ServiceHost &host, const Measured &plain,
            const Measured &traced, Tracer &tracer,
            const std::string &workDir)
{
    MetricMap out;

    // -- From the traced phase -----------------------------------------
    // Summaries now cover only the phase's spans; the probes below
    // add theirs after.
    {
        const auto sums = tracer.summarize();
        const double rtt = meanNs(sums, "client.request");
        const double handler = meanNs(sums, "server.handler");
        const double completed =
            double(traced.phase.stats.latencyUs.size());
        out["server.http.rtt_us"] = {rtt / 1e3, "us"};
        out["server.handler_us"] = {handler / 1e3, "us"};
        // Self time of the client span: the round trip minus the
        // handler span it caused.
        out["server.http.outside_handler_us"] = {
            meanSelfNs(sums, "client.request") / 1e3, "us"};
        out["server.response_bytes"] = {
            ratio(double(traced.phase.stats.responseBytes), completed),
            "B"};
        out["server.handler_total_s"] = {
            totalNs(sums, "server.handler") / 1e9, "s"};
    }

    const auto &cache = host.service().cache();
    out["server.lru.hit_ratio"] = {
        ratio(double(cache.hits()), double(cache.hits() + cache.misses())),
        "ratio"};
    const fosm::store::StoreStats st = host.storeStats();
    out["store.hit_ratio"] = {ratio(double(st.hits), double(st.gets)),
                              "ratio"};
    out["store.segments"] = {double(st.segments), "count"};
    out["store.bytes_per_record"] = {
        ratio(double(st.liveBytes), double(st.liveRecords)), "B"};
    const double evaluations =
        double(host.counter("fosm_model_evaluations_total"));

    // -- Probes over the workload's own inputs --------------------------
    const std::vector<DesignPoint> pts = strided(w.points(), kProbePoints);
    probeMissPath(host, pts, tracer, workDir);
    const std::uint64_t kernelPoints = probeKernel(host, pts, tracer);
    std::vector<ProbeSpace> spaces = w.spaces();
    if (spaces.size() > kProbeSpaces)
        spaces.resize(kProbeSpaces);
    const OptCounts opt = probeOpt(host, spaces, tracer);
    probeSetup(host, tracer);

    const auto sums = tracer.summarize();
    const double insts = double(host.service().workbench().traceInstructions());
    out["server.json.parse_us"] = {meanNs(sums, "json.parse") / 1e3, "us"};
    out["server.json.serialize_us"] = {
        meanNs(sums, "json.serialize") / 1e3, "us"};
    out["server.cache_key_us"] = {
        meanNs(sums, "service.cache_key") / 1e3, "us"};
    out["server.params_decode_us"] = {
        meanNs(sums, "params.decode") / 1e3, "us"};
    out["server.lru.get_ns"] = {meanNs(sums, "lru.get"), "ns"};
    out["server.lru.put_ns"] = {meanNs(sums, "lru.put"), "ns"};
    out["server.cpi_response.render_us_per_row"] = {
        meanNs(sums, "cpi_response.render") / 1e3, "us"};
    out["server.cpi_response.extract_us_per_row"] = {
        meanNs(sums, "cpi_response.extract") / 1e3, "us"};
    out["store.put_us"] = {meanNs(sums, "store.put") / 1e3, "us"};
    out["store.get_us"] = {meanNs(sums, "store.get") / 1e3, "us"};

    const double kernelNs =
        ratio(totalNs(sums, "model.kernel"),
              double(kernelPoints + opt.points));
    const double scalarNs = meanNs(sums, "model.scalar");
    out["model.kernel_ns_per_point"] = {kernelNs, "ns"};
    out["model.scalar_eval_ns"] = {scalarNs, "ns"};
    out["model.kernel_share_pct"] = {
        100.0 * ratio(evaluations * (w.kernelPath() ? kernelNs : scalarNs),
                      out["server.handler_total_s"].value * 1e9),
        "%"};

    out["opt.space_enum_us"] = {meanNs(sums, "opt.space_enum") / 1e3,
                                "us"};
    out["opt.expr_ns_per_point"] = {
        ratio(totalNs(sums, "opt.expr"), double(opt.exprPoints)), "ns"};
    out["opt.plan_us"] = {meanNs(sums, "opt.plan") / 1e3, "us"};
    out["opt.pareto_us"] = {meanNs(sums, "opt.pareto") / 1e3, "us"};
    // The optimize workload reports the service's own planner counts
    // (exact); the others the probe's plan against the live store.
    out["opt.dedupe_ratio"] = {
        ratio(double(opt.deduped), double(opt.points)), "ratio"};
    out["opt.iw_fits"] = {double(opt.fits), "count"};
    for (const auto &[name, metric] : plain.phase.layer)
        out[name] = metric;

    out["experiments.workload_build_ms"] = {
        meanNs(sums, "experiments.workload_build") / 1e6, "ms"};
    out["experiments.charstore_load_ms"] = {
        meanNs(sums, "experiments.charstore_load") / 1e6, "ms"};
    out["workload.trace_gen_ns_per_inst"] = {
        meanNs(sums, "workload.trace_gen") / insts, "ns"};
    out["analysis.miss_profile_ns_per_inst"] = {
        meanNs(sums, "analysis.miss_profile") / insts, "ns"};
    out["iw.window_sim_ns_per_inst"] = {
        meanNs(sums, "iw.window_sim") / insts, "ns"};
    out["iw.fit_us"] = {meanNs(sums, "iw.fit") / 1e3, "us"};

    out["sim.detailed_ns_per_inst"] = {plain.accuracy.simNsPerInst, "ns"};
    out["sim.cycles_total"] = {double(plain.accuracy.cycles), "count"};
    for (std::size_t i = 0; i < workloadNames().size(); ++i)
        out["model.err_pct." + workloadNames()[i]] = {
            plain.accuracy.perWorkloadPct[i], "%"};

    out["latency_p99_us"] = {quantile(plain.phase.stats.latencyUs, 0.99),
                             "us"};
    out["latency_samples"] = {
        double(plain.phase.stats.latencyUs.size()), "count"};

    // Per-request stack of the probe's miss path: each stage's share
    // of the request span (children have no children of their own, so
    // their duration is their self time).
    {
        const std::vector<Span> all = tracer.spans();
        std::unordered_set<std::uint64_t> requests;
        double requestNs = 0.0;
        for (const Span &s : all) {
            if (std::string(s.name) == "probe.request") {
                requests.insert(s.id);
                requestNs += double(s.endNs - s.startNs);
            }
        }
        std::map<std::string, double> stageNs;
        for (const Span &s : all)
            if (requests.count(s.parent))
                stageNs[s.name] += double(s.endNs - s.startNs);
        double covered = 0.0;
        for (const Stage &stage : kStages) {
            out[stage.stack] = {
                100.0 * ratio(stageNs[stage.span], requestNs), "%"};
            covered += stageNs[stage.span];
        }
        out["stack.other_pct"] = {
            100.0 * ratio(requestNs - covered, requestNs), "%"};
    }
    return out;
}

} // namespace perfbench
