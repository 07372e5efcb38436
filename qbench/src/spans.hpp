/**
 * @file
 * In-memory span recording for the traced benchmark run.
 *
 * Each thread that does traced work owns one SpanRecorder: spans are
 * appended to a plain vector (no locks, no I/O) and nest through an
 * open-span stack, so every span knows the span that caused it. The
 * harness merges the recorders after the threads join, derives each
 * span's self time (its duration minus the part its direct children
 * cover), and writes the spans out once, at the end of the run.
 *
 * Spans whose name starts with "bench." are thread roots: they mark
 * the time a thread spent doing benchmark work at all, and are the
 * denominator of the trace's coverage. Every other name is a layer
 * span named "<module>.<operation>" after the public call it wraps.
 */
#ifndef QBENCH_SPANS_HPP
#define QBENCH_SPANS_HPP

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace qbench
{

using Clock = std::chrono::steady_clock;

/** One recorded interval. Times are ns since the trace epoch. */
struct Span
{
    const char *name = "";   ///< static string: "<module>.<operation>"
    int64_t startNs = 0;
    int64_t endNs = 0;
    int64_t parent = -1;     ///< index of the causing span; -1: none
    uint32_t thread = 0;
    uint32_t phase = 0;      ///< 0: traced invocation, 1: layer probe
    uint64_t point = 0;      ///< point id (1-based; 0: not per point)
};

/** Per-thread span recorder (not thread-safe; one per thread). */
class SpanRecorder
{
  public:
    SpanRecorder(uint32_t thread, uint32_t phase, Clock::time_point epoch);

    /** Open a span nested in the innermost open one; returns a handle. */
    size_t open(const char *name, uint64_t point = 0);
    /** Close the span @p handle (must be the innermost open span). */
    void close(size_t handle);
    /** Rename an already recorded span (e.g. once a call's stats tell
     *  which path it took). */
    void rename(size_t handle, const char *name)
    {
        spans_[handle].name = name;
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    uint32_t thread_;
    uint32_t phase_;
    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<size_t> stack_;
};

/** RAII span: opens on construction, closes on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, const char *name, uint64_t point = 0)
        : rec_(rec), handle_(rec.open(name, point))
    {
    }
    ~ScopedSpan() { rec_.close(handle_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    size_t handle() const { return handle_; }

  private:
    SpanRecorder &rec_;
    size_t handle_;
};

/** Per-name totals of one phase (or of all phases). */
struct SpanTotals
{
    size_t calls = 0;
    int64_t selfNs = 0;
    int64_t durNs = 0;
};

/** The merged spans of one traced iteration. */
class TraceLog
{
  public:
    /** Append every span of @p rec (call after its thread joined). */
    void merge(const SpanRecorder &rec);

    /** Totals per span name, restricted to @p phase. */
    std::map<std::string, SpanTotals> totals(uint32_t phase) const;

    /** Summed self time of layer spans over summed root durations,
     *  across all phases. */
    double coverage() const;

    /** Write every span as TSV (one line per span, with self time). */
    void write(const std::string &path) const;

  private:
    /** Self time of each span, same indexing as spans_. */
    std::vector<int64_t> selfTimes() const;

    /** Merged spans; parent indices are rebased to this vector. */
    std::vector<Span> spans_;
};

} // namespace qbench

#endif // QBENCH_SPANS_HPP
