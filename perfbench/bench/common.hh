/**
 * @file
 * Shared pieces of the benchmark: seeded design points, the
 * request bodies and simulator configs built from them, timing and
 * memory probes, percentiles, digests, the metric map printed at the
 * end, and scratch directories that are removed on every exit path.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "model/machine_config.hh"
#include "server/json.hh"
#include "sim/sim_config.hh"
#include "sim/sim_stats.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock stamps. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Nanoseconds since an arbitrary process-wide epoch. */
std::int64_t nowNs();

/** One named end-to-end or per-layer value with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/** The paper's 12 workloads, in Workbench order. */
const std::vector<std::string> &workloadNames();

/** One design point: a paper workload and a machine. */
struct DesignPoint
{
    std::uint32_t workload = 0; ///< index into workloadNames()
    fosm::MachineConfig machine;
};

/**
 * Draw a machine from the design box every workload samples:
 * width 2-8, front-end depth 2-20, window 16-256, ROB window-512,
 * DeltaI 4-20, DeltaD 100-400 cycles. Every value lies inside the
 * ranges the request parser accepts (params.cc).
 */
fosm::MachineConfig sampleMachine(fosm::Rng &rng);

/**
 * k machines from the same box, stratified: a Latin hypercube, so
 * each member's range is split into k equal strata and every stratum
 * is drawn exactly once (the ROB draw is stratified as a fraction of
 * its window..512 span). Means over a stratified sample vary far
 * less from seed to seed than over k independent draws.
 */
std::vector<fosm::MachineConfig> sampleMachines(fosm::Rng &rng,
                                                std::size_t k);

/** Stable 64-bit identity of the sampled members (for dedupe). */
std::uint64_t machineKey(const fosm::MachineConfig &m);

/** The sampled members as a JSON object (a /v1/batch row). */
fosm::json::Value machineDelta(const fosm::MachineConfig &m);

/** The /v1/cpi request document for a design point. */
fosm::json::Value cpiBody(const DesignPoint &p);

/**
 * Detailed-simulator config for a machine: the baseline hierarchy
 * with its L2 and memory latencies set to the machine's DeltaI and
 * DeltaD, so the simulator models the machine the query names.
 */
fosm::SimConfig simConfigFor(const fosm::MachineConfig &m);

/** Incremental FNV-1a over bytes, doubles (bit images) and ints. */
class Digest
{
  public:
    void bytes(const void *data, std::size_t n);
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    void f64(double v);
    void str(const std::string &s) { bytes(s.data(), s.size()); }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 1469598103934665603ull;
};

/** Fold every statistic of a simulator run into d. */
void digestSimStats(Digest &d, const fosm::SimStats &s);

/** q-quantile (0..1) of values by linear interpolation. */
double quantile(std::vector<double> values, double q);

/** Median of values (0 when empty). */
double median(std::vector<double> values);

/** Peak resident set of this process in MB (VmHWM). */
double peakRssMb();

/** Reset the peak-RSS mark where the kernel allows it. */
void resetPeakRss();

/**
 * A fresh, empty directory under a parent, removed with everything
 * in it when the object is destroyed.
 */
class ScratchDir
{
  public:
    ScratchDir(const std::string &parent, const std::string &tag);
    ~ScratchDir();

    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
