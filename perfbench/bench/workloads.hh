/**
 * @file
 * The four benchmark workloads. Each is a seeded, fixed list of
 * operations: the same seed and run length give the same requests
 * or points, so every count the run reports repeats exactly.
 *
 *   cpi-hot           POST /v1/cpi, 12 bodies cycled: LRU hits
 *   batch-cold        POST /v1/batch x 256 never-seen rows
 *   optimize-overlap  POST /v1/optimize, overlapping spaces
 *   model-vs-sim      model vs detailed sim, in-process, no HTTP
 *
 * All are closed loops: each caller waits for its reply.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "accuracy.hh"
#include "common.hh"
#include "host.hh"
#include "opt/space.hh"
#include "tracer.hh"

namespace perfbench {

/** Client connections of the service workloads. */
inline constexpr std::size_t clientConnections = 2;

/** Served points per paper workload checked against the simulator. */
inline constexpr std::size_t accuracyPerWorkload = 12;

/** A design space of one paper workload, for the opt-layer probe. */
struct ProbeSpace
{
    std::uint32_t workload = 0;
    fosm::opt::SpaceSpec spec;
};

/** What one measured phase produced. */
struct Phase
{
    PhaseStats stats;
    std::uint64_t points = 0;          ///< design points completed
    double pointsPerS = 0.0;           ///< median slice rate
    std::uint64_t distinctWritten = 0; ///< distinct points stored
    /** model-vs-sim measures accuracy inside its phase. */
    bool hasAccuracy = false;
    Accuracy accuracy;
    /** Per-layer counts only the workload can observe (opt.*). */
    MetricMap layer;
};

/** One measured phase on a host, with its accuracy check. */
struct Measured
{
    Phase phase;
    Accuracy accuracy;
    std::uint64_t storeBytes = 0; ///< live bytes the phase added
    double rssMb = 0.0;           ///< peak RSS at its end
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Whether the service is reached over HTTP. */
    virtual bool http() const { return true; }

    /** Whether the service evaluates this workload's points with the
     *  batched kernel (else the scalar model). */
    virtual bool kernelPath() const { return false; }

    /**
     * Compute the expected outputs in-process (untimed). Called
     * once, with the first ready host.
     */
    virtual void prepare(ServiceHost &host) = 0;

    /**
     * The measured phase against a freshly set-up host, in
     * phaseSlices slices with afterSlice called between them.
     */
    virtual Phase measure(ServiceHost &host, Tracer *tracer,
                          const SliceHook &afterSlice) = 0;

    /** Every design point the workload sends, in order. */
    virtual const std::vector<DesignPoint> &points() const = 0;

    /**
     * Points whose model answers are checked against the detailed
     * simulator between the phase's slices (service workloads): a
     * stratified sample of accuracyPerWorkload machines per paper
     * workload.
     */
    virtual std::vector<DesignPoint> accuracyPoints() const = 0;

    /**
     * Design spaces for the opt-layer probe: the workload's own
     * /v1/optimize spaces, or by default one space per paper
     * workload over the values its points use.
     */
    virtual std::vector<ProbeSpace> spaces() const;
};

/**
 * Build a workload's inputs from the seed. The number of operations
 * scales with seconds, so a run does a fixed amount of work.
 * Returns null for an unknown name.
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed,
                                       double seconds);

/**
 * Operations for a run of `seconds` at `perSecond` (calibrated so the
 * measured phase lasts about `seconds` on a 4-core host), at least
 * `min`.
 */
std::size_t opsFor(double seconds, double perSecond, std::size_t min);

/** Workload names, in BENCHMARK.json order. */
const std::vector<std::string> &allWorkloads();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
