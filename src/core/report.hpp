/**
 * @file
 * Report formatting for toolflow results: one-line run summaries,
 * paper-style series tables keyed by capacity, and design rankings.
 */

#ifndef QCCD_CORE_REPORT_HPP
#define QCCD_CORE_REPORT_HPP

#include <string>
#include <vector>

#include "core/sweep.hpp"

namespace qccd
{

/** One-paragraph human-readable summary of a run. */
std::string summarizeRun(const std::string &app, const DesignPoint &design,
                         const RunResult &result);

/** Value extractor for series tables. */
using MetricFn = double (*)(const RunResult &);

/** Common extractors for series tables. @{ */
double metricTimeSeconds(const RunResult &r);
double metricFidelity(const RunResult &r);
double metricLogFidelity(const RunResult &r);
double metricMaxEnergy(const RunResult &r);
double metricCommTimeSeconds(const RunResult &r);
double metricComputeTimeSeconds(const RunResult &r);
/** @} */

/**
 * Render sweep points as a table with one row per application and one
 * column per capacity, extracting @p metric.
 */
std::string seriesTable(const std::vector<SweepPoint> &points,
                        MetricFn metric, const std::string &metric_name,
                        bool scientific = false);

/**
 * Rank the Ok points of @p points best first (highest log fidelity,
 * then shortest runtime, then input order) and render the top @p show
 * as a table of design, fidelity, log fidelity and runtime.
 */
std::string rankingTable(std::vector<SweepPoint> points, size_t show);

} // namespace qccd

#endif // QCCD_CORE_REPORT_HPP
