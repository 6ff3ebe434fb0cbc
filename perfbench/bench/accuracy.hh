/**
 * @file
 * Model accuracy against the detailed simulator. The simulator is
 * the reference here, but it is itself unvalidated against hardware
 * (its inputs are the synthetic traces of src/workload), so these
 * errors measure the model's agreement with the repository's own
 * cycle-level simulator, not with real machines.
 */

#ifndef PERFBENCH_ACCURACY_HH
#define PERFBENCH_ACCURACY_HH

#include <cstdint>
#include <vector>

#include "common.hh"
#include "experiments/workbench.hh"

namespace perfbench {

/** The first-order model's scalar evaluation of a design point. */
fosm::CpiBreakdown scalarModel(fosm::Workbench &bench,
                               const DesignPoint &p);

/** One detailed-simulator run of a design point. */
struct SimOutcome
{
    double simCpi = 0.0;
    /** Host CPU time of simulateTrace on its thread: unlike wall
     *  time it leaves out time the thread was not running. */
    double simSeconds = 0.0;
    std::uint64_t retired = 0;
    std::uint64_t cycles = 0;
    std::uint64_t digest = 0; ///< every SimStats field
};

SimOutcome simulatePoint(fosm::Workbench &bench, const DesignPoint &p);

/** Model-vs-sim errors over a set of points. */
struct Accuracy
{
    double errMeanPct = 0.0;
    /** The worst paper workload's mean |error| (Fig 15's "worst
     *  case", taken over the sampled machines). */
    double errMaxPct = 0.0;
    double pointMaxPct = 0.0; ///< the single worst point
    /** Median over the runs of retired instructions per second of
     *  sim CPU time: a burst of interference slows a few runs, not
     *  the median. */
    double simMinstPerS = 0.0;
    double simNsPerInst = 0.0;
    std::uint64_t cycles = 0;
    std::uint64_t retired = 0;
    std::uint64_t digest = 0;  ///< SimStats digests, in point order
    /** Mean |error| % per paper workload (0 where none sampled). */
    std::vector<double> perWorkloadPct;
};

/** |model - sim| / sim for each point, with the sim outcomes. */
Accuracy summarizeAccuracy(const std::vector<DesignPoint> &points,
                           const std::vector<double> &modelCpi,
                           const std::vector<SimOutcome> &sims);

} // namespace perfbench

#endif // PERFBENCH_ACCURACY_HH
