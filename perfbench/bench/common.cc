#include "common.hh"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "experiments/workbench.hh"

namespace perfbench {

namespace json = fosm::json;

std::int64_t
nowNs()
{
    static const Clock::time_point epoch = Clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch)
        .count();
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names =
        fosm::Workbench::benchmarks();
    return names;
}

fosm::MachineConfig
sampleMachine(fosm::Rng &rng)
{
    fosm::MachineConfig m = fosm::Workbench::baselineMachine();
    m.width = static_cast<std::uint32_t>(rng.uniformInt(2, 8));
    m.frontEndDepth = static_cast<std::uint32_t>(rng.uniformInt(2, 20));
    m.windowSize = static_cast<std::uint32_t>(rng.uniformInt(16, 256));
    m.robSize =
        static_cast<std::uint32_t>(rng.uniformInt(m.windowSize, 512));
    m.deltaI = static_cast<fosm::Cycle>(rng.uniformInt(4, 20));
    m.deltaD = static_cast<fosm::Cycle>(rng.uniformInt(100, 400));
    return m;
}

std::vector<fosm::MachineConfig>
sampleMachines(fosm::Rng &rng, std::size_t k)
{
    constexpr std::size_t kDims = 6;
    std::vector<std::vector<std::size_t>> strata(kDims);
    for (auto &perm : strata) {
        perm.resize(k);
        for (std::size_t i = 0; i < k; ++i)
            perm[i] = i;
        for (std::size_t i = k; i > 1; --i)
            std::swap(perm[i - 1], perm[rng.nextBounded(i)]);
    }
    // A value in [lo, hi] from stratum s of k.
    const auto draw = [&](std::size_t s, std::int64_t lo,
                          std::int64_t hi) {
        const double u =
            (static_cast<double>(s) + rng.nextDouble()) /
            static_cast<double>(k);
        const auto span = static_cast<double>(hi - lo + 1);
        return std::min<std::int64_t>(
            hi, lo + static_cast<std::int64_t>(u * span));
    };
    std::vector<fosm::MachineConfig> out;
    for (std::size_t i = 0; i < k; ++i) {
        fosm::MachineConfig m = fosm::Workbench::baselineMachine();
        m.width = static_cast<std::uint32_t>(draw(strata[0][i], 2, 8));
        m.frontEndDepth =
            static_cast<std::uint32_t>(draw(strata[1][i], 2, 20));
        m.windowSize =
            static_cast<std::uint32_t>(draw(strata[2][i], 16, 256));
        m.robSize = static_cast<std::uint32_t>(
            draw(strata[3][i], m.windowSize, 512));
        m.deltaI = static_cast<fosm::Cycle>(draw(strata[4][i], 4, 20));
        m.deltaD =
            static_cast<fosm::Cycle>(draw(strata[5][i], 100, 400));
        out.push_back(m);
    }
    return out;
}

std::uint64_t
machineKey(const fosm::MachineConfig &m)
{
    // Each member fits its field: width < 16, depth < 32,
    // window < 512, rob < 1024, DeltaI < 32, DeltaD < 512.
    return (std::uint64_t(m.width) << 0) |
           (std::uint64_t(m.frontEndDepth) << 4) |
           (std::uint64_t(m.windowSize) << 9) |
           (std::uint64_t(m.robSize) << 18) |
           (std::uint64_t(m.deltaI) << 28) |
           (std::uint64_t(m.deltaD) << 33);
}

json::Value
machineDelta(const fosm::MachineConfig &m)
{
    json::Value v = json::Value::object();
    v.set("width", m.width);
    v.set("frontEndDepth", m.frontEndDepth);
    v.set("windowSize", m.windowSize);
    v.set("robSize", m.robSize);
    v.set("deltaI", static_cast<std::uint64_t>(m.deltaI));
    v.set("deltaD", static_cast<std::uint64_t>(m.deltaD));
    return v;
}

json::Value
cpiBody(const DesignPoint &p)
{
    json::Value v = json::Value::object();
    v.set("workload", workloadNames()[p.workload]);
    v.set("machine", machineDelta(p.machine));
    return v;
}

fosm::SimConfig
simConfigFor(const fosm::MachineConfig &m)
{
    fosm::SimConfig c = fosm::Workbench::baselineSimConfig();
    c.hierarchy.l2Latency = m.deltaI;
    c.hierarchy.memLatency = m.deltaD;
    c.dtlb.walkLatency = m.deltaT;
    c.machine = m;
    return c;
}

void
Digest::bytes(const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h_ ^= p[i];
        h_ *= 1099511628211ull;
    }
}

void
Digest::f64(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
}

void
digestSimStats(Digest &d, const fosm::SimStats &s)
{
    for (const std::uint64_t v :
         {std::uint64_t(s.cycles), s.retired, s.branches,
          s.mispredictions, s.icacheL1Misses, s.icacheL2Misses,
          s.shortLoadMisses, s.longLoadMisses, s.dtlbLoadMisses,
          s.dtlbStoreMisses, s.mispredictsDuringLongMiss,
          s.icacheMissesDuringLongMiss})
        d.u64(v);
    for (const fosm::RunningStats *r :
         {&s.windowAtBranchIssue, &s.robAheadOfMissedLoad,
          &s.windowAtMissReturn}) {
        d.u64(r->count());
        d.f64(r->mean());
        d.f64(r->variance());
    }
    for (const std::uint32_t v : s.timeline)
        d.u64(v);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

void
resetPeakRss()
{
    // "5" resets VmHWM to the current RSS (Linux >= 4.0).
    std::ofstream out("/proc/self/clear_refs");
    out << "5";
}

ScratchDir::ScratchDir(const std::string &parent, const std::string &tag)
{
    namespace fs = std::filesystem;
    fs::create_directories(parent);
    for (int i = 0;; ++i) {
        const fs::path p =
            fs::path(parent) / (tag + "-" + std::to_string(i));
        if (fs::create_directory(p)) {
            path_ = p.string();
            return;
        }
        if (i > 10000)
            throw std::runtime_error("cannot create scratch dir in " +
                                     parent);
    }
}

ScratchDir::~ScratchDir()
{
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
}

} // namespace perfbench
