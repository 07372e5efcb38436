/**
 * @file
 * Reproduces Figure 7 (communication topology study): L6 vs G2x3 with
 * FM gates and GS reordering across capacities 14-34.
 *
 *  7a-7f: per-application runtime and fidelity for both topologies
 *  7g: SquareRoot motional heating for both topologies
 *
 * The scenario is examples/sweeps/fig7.sweep (one grid per topology);
 * this bench prints its tables and writes the CSV golden/ pins.
 */

#include <cmath>
#include <iostream>

#include "common/table.hpp"
#include "core/report.hpp"
#include "spec_bench.hpp"

int
main()
{
    using namespace qccd;

    const bench::SpecRows rows = bench::runSpec("fig7.sweep");
    std::vector<SweepPoint> linear;
    std::vector<SweepPoint> grid;
    for (const SweepPoint &p : rows.points)
        (p.design.topologySpec == "linear:6" ? linear : grid).push_back(p);
    const std::vector<int> caps = bench::capacitiesOf(rows.points);

    std::cout << "=== Figure 7: topology (FM, GS; L6 vs G2x3) ===\n\n";

    std::cout << "--- Fig 7a-7f: runtime (s), linear L6 ---\n"
              << seriesTable(linear, metricTimeSeconds, "L6 time[s]")
              << "\n--- Fig 7a-7f: runtime (s), grid G2x3 ---\n"
              << seriesTable(grid, metricTimeSeconds, "G2x3 time[s]")
              << "\n";

    std::cout << "--- Fig 7a-7f: fidelity, linear L6 ---\n"
              << seriesTable(linear, metricFidelity, "L6 fidelity", true)
              << "\n--- Fig 7a-7f: fidelity, grid G2x3 ---\n"
              << seriesTable(grid, metricFidelity, "G2x3 fidelity", true)
              << "\n";

    std::cout << "--- Fig 7g: SquareRoot motional heating (quanta) ---\n";
    TextTable table;
    std::vector<std::string> h{"topology"};
    for (int c : caps)
        h.push_back(std::to_string(c));
    table.addRow(h);
    // Each grid lists an app's capacities in ascending order.
    auto row = [&](const char *label, const std::vector<SweepPoint> &points) {
        std::vector<std::string> cells{label};
        for (const SweepPoint &p : points)
            if (p.application == "squareroot")
                cells.push_back(formatSig(p.result.sim.maxChainEnergy, 4));
        table.addRow(cells);
    };
    row("linear", linear);
    row("grid", grid);
    std::cout << table.render() << "\n";

    // Headline ratio from the paper: grid/linear fidelity advantage for
    // SquareRoot (up to thousands of times). The two grids list the
    // same (app, capacity) pairs in the same order.
    double best_ratio = 0;
    for (size_t i = 0; i < linear.size(); ++i)
        if (linear[i].application == "squareroot")
            best_ratio = std::max(best_ratio,
                                  grid[i].result.sim.logFidelity -
                                      linear[i].result.sim.logFidelity);
    std::cout << "SquareRoot grid-vs-linear max fidelity advantage: e^"
              << formatSig(best_ratio, 4) << " = "
              << formatSci(std::exp(best_ratio), 3) << "x\n";

    // Raw series for external plotting.
    bench::writeCsv(rows);
    return 0;
}
