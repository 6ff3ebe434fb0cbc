/**
 * @file
 * fosm-perfbench: one workload of the repository benchmark.
 *
 *   fosm-perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--work-dir DIR]
 *
 * Untraced (--trace 0): set the service up 3 times on fresh stores
 * (setup_s is the median), compute the expected outputs
 * in-process, run the measured phase, check every output, and print
 * the end-to-end metrics.
 *
 * Traced (--trace 1): the same untraced run, then a second one on a
 * fresh service with spans recorded around every layer call, then a
 * per-layer probe over the workload's own inputs. Prints the
 * per-layer metrics, the p99 and per-tier hit ratios, and the
 * tracing overhead (traced minus untraced, per end-to-end metric);
 * the spans go to DIR/trace-NAME.jsonl.
 *
 * The last stdout line is one JSON object: correct, attempted,
 * failed, metrics. Exit status 0 iff the run completed.
 */

#include <cstdlib>
#include <malloc.h>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "common/thread_pool.hh"
#include "layers.hh"
#include "workloads.hh"

namespace perfbench {
namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workDir = ".bench_work";
};

/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 3;

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "fosm-perfbench: " << why
              << "\nusage: fosm-perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--work-dir DIR]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                a.workload = value;
            else if (flag == "--seed")
                a.seed = std::stoull(value);
            else if (flag == "--seconds")
                a.seconds = std::stod(value);
            else if (flag == "--trace")
                a.trace = std::stoi(value) != 0;
            else if (flag == "--work-dir")
                a.workDir = value;
            else
                usage("unknown flag " + flag);
        } catch (const std::logic_error &) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    return a;
}

Measured
measureOnce(Workload &w, ServiceHost &host, Tracer *tracer,
            const Accuracy *knownAccuracy)
{
    Measured m;
    const std::uint64_t before = host.storeLiveBytes();

    // The accuracy check runs a share of its simulations after each
    // slice, outside the slice timings, so the simulator's speed is
    // sampled across the whole phase, not in one burst after it.
    std::vector<DesignPoint> sample;
    if (!knownAccuracy)
        sample = w.accuracyPoints();
    std::vector<double> model(sample.size());
    std::vector<SimOutcome> sims(sample.size());
    fosm::Workbench &bench = host.service().workbench();
    const SliceHook afterSlice = [&](std::size_t s) {
        const std::size_t begin = sliceBegin(sample.size(), s);
        fosm::parallelFor(sliceBegin(sample.size(), s + 1) - begin,
                          [&](std::size_t j) {
                              const DesignPoint &p = sample[begin + j];
                              model[begin + j] =
                                  scalarModel(bench, p).total();
                              sims[begin + j] = simulatePoint(bench, p);
                          });
        // Hand the simulations' freed heap back, so the next slice's
        // peak RSS is the service's, not the check's leftovers.
        malloc_trim(0);
    };

    m.phase = w.measure(host, tracer, afterSlice);
    // rss_mb: the highest peak of any slice, on a ready service; the
    // harness's reference work and simulations are excluded.
    m.rssMb = m.phase.stats.peakRssMb;
    m.storeBytes = host.storeLiveBytes() - before;
    if (m.phase.hasAccuracy)
        m.accuracy = m.phase.accuracy;
    else if (knownAccuracy)
        m.accuracy = *knownAccuracy;
    else
        m.accuracy = summarizeAccuracy(sample, model, sims);
    return m;
}

MetricMap
endToEnd(const Measured &m, double setupS)
{
    const PhaseStats &s = m.phase.stats;
    MetricMap out;
    out["setup_s"] = {setupS, "s"};
    out["points_per_s"] = {m.phase.pointsPerS, "1/s"};
    out["latency_p50_us"] = {quantile(s.latencyUs, 0.50), "us"};
    out["latency_p90_us"] = {quantile(s.latencyUs, 0.90), "us"};
    out["store_bytes_per_point"] = {
        m.phase.distinctWritten
            ? double(m.storeBytes) / double(m.phase.distinctWritten)
            : 0.0,
        "B"};
    out["rss_mb"] = {m.rssMb, "MB"};
    out["sim_minst_per_s"] = {m.accuracy.simMinstPerS, "Minst/s"};
    out["cpi_err_mean_pct"] = {m.accuracy.errMeanPct, "%"};
    out["cpi_err_max_pct"] = {m.accuracy.errMaxPct, "%"};
    return out;
}

std::string
formatNumber(double v)
{
    std::ostringstream os;
    os << std::setprecision(17) << v;
    return os.str();
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const MetricMap &metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, metric] : metrics) {
        os << (first ? "" : ", ") << "\"" << name
           << "\": {\"value\": " << formatNumber(metric.value)
           << ", \"unit\": \"" << metric.unit << "\"}";
        first = false;
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

void
report(const std::string &what, const Measured &m)
{
    std::cout << what << ": " << m.phase.stats.attempted
              << " operations, " << m.phase.stats.failed
              << " failed, " << m.phase.points << " points in "
              << formatNumber(m.phase.stats.seconds) << " s; "
              << m.phase.stats.latencyUs.size() << " latency samples"
              << "; simstats digest " << std::hex << m.accuracy.digest
              << std::dec << ", sim cycles " << m.accuracy.cycles
              << "\n";
    std::cout << "  model error % by workload:";
    for (std::size_t i = 0; i < workloadNames().size(); ++i)
        std::cout << " " << workloadNames()[i] << "="
                  << m.accuracy.perWorkloadPct[i];
    std::cout << "; worst point " << m.accuracy.pointMaxPct << "\n";
}

int
run(const Args &args)
{
    const std::unique_ptr<Workload> w =
        makeWorkload(args.workload, args.seed, args.seconds);
    if (!w)
        usage("unknown workload " + args.workload);
    std::filesystem::create_directories(args.workDir);

    // setup_s: median of several set-ups, each on a fresh store; the
    // last one serves the measured phase.
    std::vector<double> setups;
    std::unique_ptr<ServiceHost> host;
    for (int k = 0; k < kSetups; ++k) {
        host.reset();
        host = std::make_unique<ServiceHost>(args.workDir, w->http(),
                                             nullptr);
        setups.push_back(host->setupSeconds());
    }
    const double setupS = median(setups);
    w->prepare(*host);

    const Measured plain = measureOnce(*w, *host, nullptr, nullptr);
    report("untraced", plain);
    std::uint64_t attempted = plain.phase.stats.attempted;
    std::uint64_t failed = plain.phase.stats.failed;
    const MetricMap e2e = endToEnd(plain, setupS);

    if (!args.trace) {
        host.reset();
        printResult(failed == 0, attempted, failed, e2e);
        return 0;
    }

    // Traced run on a fresh service: same operations, spans on.
    host.reset();
    Tracer tracer;
    host = std::make_unique<ServiceHost>(args.workDir, w->http(),
                                         &tracer);
    const Measured traced =
        measureOnce(*w, *host, &tracer, &plain.accuracy);
    report("traced", traced);
    attempted += traced.phase.stats.attempted;
    failed += traced.phase.stats.failed;

    MetricMap layers = probeLayers(*w, *host, plain, traced, tracer,
                                   args.workDir);
    const MetricMap e2eTraced = endToEnd(traced, setupS);
    // Tracing overhead on the timings. setup_s is never traced, the
    // accuracy check is not repeated on the service workloads, and
    // rss_mb depends on the heap the untraced run left behind. The
    // exact counts must come out identical, and a difference counts
    // as a failed check.
    for (const char *name :
         {"points_per_s", "latency_p50_us", "latency_p90_us"})
        layers[std::string("trace.overhead.") + name] = {
            e2eTraced.at(name).value - e2e.at(name).value,
            e2e.at(name).unit};
    for (const char *name : {"store_bytes_per_point", "cpi_err_mean_pct",
                             "cpi_err_max_pct"}) {
        ++attempted;
        if (e2eTraced.at(name).value != e2e.at(name).value) {
            std::cerr << "fosm-perfbench: " << name
                      << " differs between the untraced and traced "
                         "runs\n";
            ++failed;
        }
    }
    host.reset();
    tracer.writeJsonLines(
        (std::filesystem::path(args.workDir) /
         ("trace-" + args.workload + ".jsonl"))
            .string());
    printResult(failed == 0, attempted, failed, layers);
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    const perfbench::Args args = perfbench::parseArgs(argc, argv);
    try {
        return perfbench::run(args);
    } catch (const std::exception &e) {
        std::cerr << "fosm-perfbench: " << e.what() << "\n";
        return 1;
    }
}
