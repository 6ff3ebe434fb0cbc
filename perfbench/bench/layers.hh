/**
 * @file
 * Per-layer metrics of a traced run. Three sources, all timed from
 * the benchmark's own files around calls into each module's public
 * functions:
 *
 *  - the traced measured phase: client round trip, the wrapped
 *    Handler, response sizes, the service's cache and store
 *    counters;
 *  - a probe that replays the workload's own design points through
 *    the single-point miss path stage by stage (JSON parse, cacheKey,
 *    LRU, store, IW fit, model, /v1/cpi render, serialize,
 *    write-through, column extract), the batched kernel, and the
 *    opt layer over the workload's design spaces;
 *  - a set-up probe that rebuilds each paper workload's
 *    characterization step by step (trace generation, miss
 *    profiling, window simulation, IW fit) and loads it back from
 *    the store.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <string>

#include "common.hh"
#include "host.hh"
#include "tracer.hh"
#include "workloads.hh"

namespace perfbench {

/**
 * Every per-layer metric for the traced run. plain is the untraced
 * run's measurement (exact counts, accuracy, p99), traced the traced
 * one on host, whose spans tracer holds; the probe adds its own
 * spans to tracer and uses scratch stores under workDir.
 */
MetricMap probeLayers(Workload &w, ServiceHost &host,
                      const Measured &plain, const Measured &traced,
                      Tracer &tracer, const std::string &workDir);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
