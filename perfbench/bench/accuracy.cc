#include "accuracy.hh"

#include <algorithm>
#include <ctime>

#include "sim/detailed_sim.hh"

namespace perfbench {

fosm::CpiBreakdown
scalarModel(fosm::Workbench &bench, const DesignPoint &p)
{
    const fosm::WorkloadData &data =
        bench.workload(workloadNames()[p.workload]);
    const fosm::IWCharacteristic iw = fosm::Workbench::fitIw(
        data.iwPoints, data.missProfile.avgLatency, p.machine.width);
    return fosm::FirstOrderModel(p.machine).evaluate(iw,
                                                     data.missProfile);
}

namespace {

/** CPU time of the calling thread, in seconds. */
double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

} // namespace

SimOutcome
simulatePoint(fosm::Workbench &bench, const DesignPoint &p)
{
    const fosm::WorkloadData &data =
        bench.workload(workloadNames()[p.workload]);
    const double t0 = threadCpuSeconds();
    const fosm::SimStats s =
        fosm::simulateTrace(data.trace, simConfigFor(p.machine));
    SimOutcome out;
    out.simSeconds = threadCpuSeconds() - t0;
    out.simCpi = s.cpi();
    out.retired = s.retired;
    out.cycles = s.cycles;
    Digest d;
    digestSimStats(d, s);
    out.digest = d.value();
    return out;
}

Accuracy
summarizeAccuracy(const std::vector<DesignPoint> &points,
                  const std::vector<double> &modelCpi,
                  const std::vector<SimOutcome> &sims)
{
    Accuracy a;
    const std::size_t nw = workloadNames().size();
    std::vector<double> sum(nw, 0.0);
    std::vector<std::size_t> count(nw, 0);
    double errSum = 0.0;
    double simSeconds = 0.0;
    std::vector<double> rates;
    Digest digest;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const double err = 100.0 * fosm::relativeError(modelCpi[i],
                                                        sims[i].simCpi);
        errSum += err;
        a.pointMaxPct = std::max(a.pointMaxPct, err);
        sum[points[i].workload] += err;
        ++count[points[i].workload];
        a.cycles += sims[i].cycles;
        a.retired += sims[i].retired;
        simSeconds += sims[i].simSeconds;
        if (sims[i].simSeconds > 0.0)
            rates.push_back(static_cast<double>(sims[i].retired) /
                            sims[i].simSeconds / 1e6);
        digest.u64(sims[i].digest);
    }
    if (!points.empty())
        a.errMeanPct = errSum / static_cast<double>(points.size());
    a.simMinstPerS = median(rates);
    if (a.retired > 0)
        a.simNsPerInst =
            simSeconds * 1e9 / static_cast<double>(a.retired);
    a.digest = digest.value();
    a.perWorkloadPct.resize(nw, 0.0);
    for (std::size_t w = 0; w < nw; ++w) {
        if (count[w])
            a.perWorkloadPct[w] = sum[w] / static_cast<double>(count[w]);
        a.errMaxPct = std::max(a.errMaxPct, a.perWorkloadPct[w]);
    }
    return a;
}

} // namespace perfbench
