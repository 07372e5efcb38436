/**
 * @file
 * The sweep sample: one evaluated design point (SweepPoint) and how its
 * evaluation ended (PointOutcome). Scenarios are declared as `.sweep`
 * specs and evaluated by SweepSpecRunner (core/sweep_spec.hpp), which
 * drives a SweepEngine (core/sweep_engine.hpp); the figure benches,
 * `qccd_explore --sweep`/`--search`/`--recommend` and the exporters all
 * exchange results as SweepPoints.
 */

#ifndef QCCD_CORE_SWEEP_HPP
#define QCCD_CORE_SWEEP_HPP

#include <exception>
#include <string>

#include "core/toolflow.hpp"

namespace qccd
{

/**
 * How one design point's evaluation ended. The taxonomy mirrors the
 * error classes: a ConfigError means the *input* cannot run on that
 * device (infeasible), a TimeoutError means the point exceeded its
 * watchdog budget, and anything else is an internal failure. Only Ok
 * points carry a meaningful RunResult.
 */
enum class PointOutcome
{
    Ok,         ///< evaluated; result is valid
    Error,      ///< internal failure (InternalError, bad_alloc, ...)
    Timeout,    ///< exceeded the point's Deadline (TimeoutError)
    Infeasible, ///< rejected as invalid input (ConfigError)
};

/** Stable lowercase name ("ok", "error", "timeout", "infeasible"). */
const char *pointOutcomeName(PointOutcome outcome);

/**
 * Classify a caught per-point failure for isolation: TimeoutError ->
 * Timeout, ConfigError -> Infeasible, everything else -> Error.
 * @p message receives the exception text.
 */
PointOutcome classifyFailure(const std::exception_ptr &error,
                             std::string *message);

/** One sweep sample. */
struct SweepPoint
{
    std::string application;
    DesignPoint design;
    RunResult result;

    /** Ok unless the point ran under failure isolation and failed. */
    PointOutcome outcome = PointOutcome::Ok;

    /** Diagnostic for non-Ok outcomes (empty when Ok). */
    std::string error;

    bool ok() const { return outcome == PointOutcome::Ok; }
};

} // namespace qccd

#endif // QCCD_CORE_SWEEP_HPP
