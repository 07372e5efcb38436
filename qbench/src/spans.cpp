#include "spans.hpp"

#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace qbench
{

namespace
{

bool
isRoot(const char *name)
{
    return std::strncmp(name, "bench.", 6) == 0;
}

} // namespace

SpanRecorder::SpanRecorder(uint32_t thread, uint32_t phase,
                           Clock::time_point epoch)
    : thread_(thread), phase_(phase), epoch_(epoch)
{
}

size_t
SpanRecorder::open(const char *name, uint64_t point)
{
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : static_cast<int64_t>(stack_.back());
    span.thread = thread_;
    span.phase = phase_;
    span.point = point;
    spans_.push_back(span);
    const size_t handle = spans_.size() - 1;
    stack_.push_back(handle);
    // Read the clock last so the bookkeeping above is not inside the
    // span.
    spans_[handle].startNs =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - epoch_)
            .count();
    return handle;
}

void
SpanRecorder::close(size_t handle)
{
    const int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            Clock::now() - epoch_)
                            .count();
    if (stack_.empty() || stack_.back() != handle)
        throw std::logic_error("span closed out of order");
    stack_.pop_back();
    spans_[handle].endNs = now;
}

void
TraceLog::merge(const SpanRecorder &rec)
{
    const auto base = static_cast<int64_t>(spans_.size());
    for (Span span : rec.spans()) {
        if (span.parent >= 0)
            span.parent += base;
        spans_.push_back(span);
    }
}

std::vector<int64_t>
TraceLog::selfTimes() const
{
    std::vector<int64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].endNs - spans_[i].startNs;
    for (const Span &span : spans_)
        if (span.parent >= 0)
            self[static_cast<size_t>(span.parent)] -=
                span.endNs - span.startNs;
    return self;
}

std::map<std::string, SpanTotals>
TraceLog::totals(uint32_t phase) const
{
    const std::vector<int64_t> self = selfTimes();
    std::map<std::string, SpanTotals> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        if (span.phase != phase)
            continue;
        SpanTotals &t = out[span.name];
        ++t.calls;
        t.selfNs += self[i];
        t.durNs += span.endNs - span.startNs;
    }
    return out;
}

double
TraceLog::coverage() const
{
    const std::vector<int64_t> self = selfTimes();
    int64_t covered = 0;
    int64_t roots = 0;
    for (size_t i = 0; i < spans_.size(); ++i) {
        if (isRoot(spans_[i].name))
            roots += spans_[i].endNs - spans_[i].startNs;
        else
            covered += self[i];
    }
    return roots > 0 ? static_cast<double>(covered) /
                           static_cast<double>(roots)
                     : 0.0;
}

void
TraceLog::write(const std::string &path) const
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        throw std::runtime_error("cannot write span log '" + path + "'");
    const std::vector<int64_t> self = selfTimes();
    std::fprintf(out, "id\tparent\tthread\tphase\tpoint\tname\tstart_ns\t"
                      "end_ns\tself_ns\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(out, "%zu\t%lld\t%u\t%u\t%llu\t%s\t%lld\t%lld\t%lld\n",
                     i, static_cast<long long>(s.parent), s.thread, s.phase,
                     static_cast<unsigned long long>(s.point), s.name,
                     static_cast<long long>(s.startNs),
                     static_cast<long long>(s.endNs),
                     static_cast<long long>(self[i]));
    }
    if (std::fclose(out) != 0)
        throw std::runtime_error("error writing span log '" + path + "'");
}

} // namespace qbench
