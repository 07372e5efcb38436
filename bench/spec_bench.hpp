/**
 * @file
 * The figure benches are thin drivers over their committed scenario:
 * each runs its `examples/sweeps/` spec through SweepSpecRunner, prints
 * its text tables from the returned rows, and writes the CSV that
 * golden/ pins. QCCD_SWEEP_DIR (set by bench/CMakeLists.txt) is the
 * source tree's spec directory, so a bench runs from any directory.
 */

#ifndef QCCD_BENCH_SPEC_BENCH_HPP
#define QCCD_BENCH_SPEC_BENCH_HPP

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "core/export.hpp"
#include "core/sweep_engine.hpp"
#include "core/sweep_spec.hpp"

namespace qccd::bench
{

/** A spec's name (the CSV stem) and its rows in spec order. */
struct SpecRows
{
    std::string name;
    std::vector<SweepPoint> points;
};

/** Run examples/sweeps/@p file as one engine batch. */
inline SpecRows
runSpec(const std::string &file)
{
    const SweepSpec spec =
        parseSweepSpecFile(std::string(QCCD_SWEEP_DIR) + "/" + file);
    SweepEngine engine;
    return {spec.name,
            SweepSpecRunner(engine).collect(
                spec.points, {}, nullptr, 0,
                std::max<size_t>(1, spec.points.size()))};
}

/** Write <name>.csv into the working directory and say so. */
inline void
writeCsv(const SpecRows &rows)
{
    writeTextFile(toCsv(rows.points), rows.name + ".csv");
    std::cout << "wrote " << rows.name << ".csv (" << rows.points.size()
              << " rows)\n";
}

/** The distinct capacities of @p points, ascending. */
inline std::vector<int>
capacitiesOf(const std::vector<SweepPoint> &points)
{
    std::vector<int> caps;
    for (const SweepPoint &p : points)
        caps.push_back(p.design.trapCapacity);
    std::sort(caps.begin(), caps.end());
    caps.erase(std::unique(caps.begin(), caps.end()), caps.end());
    return caps;
}

} // namespace qccd::bench

#endif // QCCD_BENCH_SPEC_BENCH_HPP
