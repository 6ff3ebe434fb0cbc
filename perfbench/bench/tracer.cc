#include "tracer.hh"

#include <algorithm>
#include <fstream>
#include <unordered_map>

#include "common.hh"

namespace perfbench {

namespace {

std::atomic<std::uint64_t> tracerSerials{0};

} // namespace

Tracer::Tracer() : serial_(tracerSerials.fetch_add(1) + 1) {}

Tracer::Buffer &
Tracer::localBuffer()
{
    // One buffer per (thread, tracer); the serial guards against a
    // new tracer reusing a destroyed one's address.
    thread_local std::uint64_t ownerSerial = 0;
    thread_local Buffer *buffer = nullptr;
    if (ownerSerial != serial_) {
        auto fresh = std::make_unique<Buffer>();
        fresh->spans.reserve(1 << 12);
        buffer = fresh.get();
        ownerSerial = serial_;
        std::lock_guard<std::mutex> lock(mutex_);
        buffers_.push_back(std::move(fresh));
    }
    return *buffer;
}

void
Tracer::record(const Span &span)
{
    localBuffer().spans.push_back(span);
}

std::vector<Span>
Tracer::spans() const
{
    std::vector<Span> all;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &b : buffers_)
        all.insert(all.end(), b->spans.begin(), b->spans.end());
    return all;
}

std::map<std::string, SpanSummary>
Tracer::summarize() const
{
    const std::vector<Span> all = spans();
    std::unordered_map<std::uint64_t, std::vector<const Span *>> kids;
    for (const Span &s : all)
        if (s.parent)
            kids[s.parent].push_back(&s);

    std::map<std::string, SpanSummary> out;
    for (const Span &s : all) {
        const double dur = static_cast<double>(s.endNs - s.startNs);
        // Union of the children's intervals, clipped to this span.
        double covered = 0.0;
        const auto it = kids.find(s.id);
        if (it != kids.end()) {
            std::vector<std::pair<std::int64_t, std::int64_t>> iv;
            for (const Span *k : it->second)
                iv.emplace_back(std::max(k->startNs, s.startNs),
                                std::min(k->endNs, s.endNs));
            std::sort(iv.begin(), iv.end());
            std::int64_t curStart = 0, curEnd = -1;
            for (const auto &[a, b] : iv) {
                if (b <= a)
                    continue;
                if (a > curEnd) {
                    if (curEnd > curStart)
                        covered += double(curEnd - curStart);
                    curStart = a;
                    curEnd = b;
                } else {
                    curEnd = std::max(curEnd, b);
                }
            }
            if (curEnd > curStart)
                covered += double(curEnd - curStart);
        }
        SpanSummary &sum = out[s.name];
        ++sum.count;
        sum.totalNs += dur;
        sum.selfNs += dur - covered;
    }
    return out;
}

void
Tracer::writeJsonLines(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    for (const Span &s : spans()) {
        out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
            << ",\"parent\":" << s.parent << ",\"request\":"
            << s.request << ",\"start_ns\":" << s.startNs
            << ",\"end_ns\":" << s.endNs << "}\n";
    }
}

SpanScope::SpanScope(Tracer *tracer, const char *name,
                     std::uint64_t parent, std::uint64_t request)
    : tracer_(tracer)
{
    if (!tracer_)
        return;
    span_.name = name;
    span_.id = tracer_->newId();
    span_.parent = parent;
    span_.request = request;
    span_.startNs = nowNs();
}

SpanScope::~SpanScope()
{
    if (!tracer_)
        return;
    span_.endNs = nowNs();
    tracer_->record(span_);
}

} // namespace perfbench
