/**
 * @file
 * In-memory span recorder for the traced run. Spans are recorded
 * from the benchmark's own files, around each call into a layer:
 * name, start, end, the span that caused it, and the request id all
 * spans of one request share. They stay in memory (one buffer per
 * thread) and are written out once, when the run ends.
 *
 * A null Tracer pointer means "untraced": every helper accepts it
 * and does nothing, so the untraced path pays one branch.
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span
{
    const char *name = "";   ///< static string: the layer call
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root
    std::uint64_t request = 0;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

/** Per-name totals derived from the recorded spans. */
struct SpanSummary
{
    std::uint64_t count = 0;
    double totalNs = 0.0; ///< sum of durations
    double selfNs = 0.0;  ///< sum of durations minus child coverage
};

class Tracer
{
  public:
    Tracer();
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** A fresh span or request id (never 0). */
    std::uint64_t newId() { return next_.fetch_add(1) + 1; }

    /** Record a finished span on the calling thread's buffer. */
    void record(const Span &span);

    /** All spans, merged across threads (call once threads end). */
    std::vector<Span> spans() const;

    /**
     * Per-name summaries. Self time subtracts the union of each
     * span's children's intervals, clipped to the parent.
     */
    std::map<std::string, SpanSummary> summarize() const;

    /** Write every span as one JSON object per line. */
    void writeJsonLines(const std::string &path) const;

  private:
    struct Buffer
    {
        std::vector<Span> spans;
    };
    Buffer &localBuffer();

    std::atomic<std::uint64_t> next_{0};
    const std::uint64_t serial_; ///< distinguishes tracer instances
    mutable std::mutex mutex_; ///< guards buffers_
    std::vector<std::unique_ptr<Buffer>> buffers_;
};

/**
 * RAII span: stamps start on construction and records on
 * destruction. With a null tracer it does nothing.
 */
class SpanScope
{
  public:
    SpanScope(Tracer *tracer, const char *name, std::uint64_t parent,
              std::uint64_t request);
    ~SpanScope();

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    std::uint64_t id() const { return span_.id; }

  private:
    Tracer *tracer_;
    Span span_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH
