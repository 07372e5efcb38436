/**
 * @file
 * Reproduces Figure 8 (microarchitecture study): the eight combinations
 * of two-qubit gate implementation {AM1, AM2, PM, FM} and chain
 * reordering method {GS, IS} on the L6 topology, capacity 14-34.
 * Prints one fidelity table and one runtime table per application, one
 * row per combination (the figure's eight curves).
 *
 * The scenario is examples/sweeps/fig8.sweep: its axes (apps, gate,
 * reorder, capacity) put each application's points in one block and
 * each combination's capacities in one run, so the tables below just
 * walk the rows in spec order.
 */

#include <iostream>
#include <vector>

#include "common/table.hpp"
#include "spec_bench.hpp"

int
main()
{
    using namespace qccd;

    const bench::SpecRows rows = bench::runSpec("fig8.sweep");
    const std::vector<SweepPoint> &points = rows.points;
    const std::vector<int> caps = bench::capacitiesOf(points);
    std::vector<std::string> header{"combo"};
    for (int c : caps)
        header.push_back(std::to_string(c));

    std::cout << "=== Figure 8: microarchitecture (L6), 8 combos ===\n";

    size_t at = 0;
    while (at < points.size()) {
        const std::string app = points[at].application;
        TextTable fid;
        TextTable time;
        fid.addRow(header);
        time.addRow(header);
        for (; at < points.size() && points[at].application == app;
             at += caps.size()) {
            const HardwareParams &hw = points[at].design.hw;
            std::vector<std::string> frow{gateImplName(hw.gateImpl) + "-" +
                                          reorderMethodName(hw.reorder)};
            std::vector<std::string> trow = frow;
            for (size_t c = 0; c < caps.size(); ++c) {
                const RunResult &r = points[at + c].result;
                frow.push_back(formatSci(r.fidelity(), 3));
                trow.push_back(formatSig(r.totalTime() / kSecondUs, 4));
            }
            fid.addRow(frow);
            time.addRow(trow);
        }
        std::cout << "\n--- " << app << " fidelity ---\n" << fid.render();
        std::cout << "--- " << app << " time (s) ---\n" << time.render();
    }

    // Raw series for external plotting and the golden check.
    std::cout << "\n";
    bench::writeCsv(rows);
    return 0;
}
