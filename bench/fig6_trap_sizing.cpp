/**
 * @file
 * Reproduces Figure 6 (trap sizing study): L6 device, FM gates, GS
 * reordering, capacity swept 14-34.
 *
 *  6a: application runtime for all six applications
 *  6b: QFT compute/communication runtime decomposition
 *  6c-6e: application fidelities
 *  6f: maximum motional mode energy across the device
 *  6g: Supremacy two-qubit gate error decomposition
 *      (background Gamma*tau vs motional A*(2nbar+1))
 *
 * The scenario is examples/sweeps/fig6.sweep; this bench prints its
 * tables and writes the CSV golden/ pins.
 */

#include <iostream>
#include <utility>

#include "common/table.hpp"
#include "core/report.hpp"
#include "spec_bench.hpp"

namespace
{

using namespace qccd;

/** One application's series by capacity (ascending in the spec), one
 *  row per labelled metric (Figs. 6b and 6g). */
std::string
appTable(const std::vector<SweepPoint> &points, const std::string &app,
         const char *corner,
         const std::vector<std::pair<const char *, MetricFn>> &metrics)
{
    TextTable table;
    std::vector<std::string> header{corner};
    for (int c : bench::capacitiesOf(points))
        header.push_back(std::to_string(c));
    table.addRow(header);
    for (const auto &[label, metric] : metrics) {
        std::vector<std::string> row{label};
        for (const SweepPoint &p : points)
            if (p.application == app)
                row.push_back(formatSig(metric(p.result), 4));
        table.addRow(row);
    }
    return table.render();
}

} // namespace

int
main()
{
    const bench::SpecRows rows = bench::runSpec("fig6.sweep");
    const std::vector<SweepPoint> &points = rows.points;

    std::cout << "=== Figure 6: trap sizing (L6, FM, GS) ===\n\n";

    std::cout << "--- Fig 6a: application runtime (s) ---\n"
              << seriesTable(points, metricTimeSeconds, "time[s]")
              << "\n";

    std::cout << "--- Fig 6b: QFT compute vs communication time (s) ---\n"
              << appTable(points, "qft", "QFT series",
                          {{"computation", metricComputeTimeSeconds},
                           {"communication", metricCommTimeSeconds}})
              << "\n";

    std::cout << "--- Fig 6c-6e: application fidelity ---\n"
              << seriesTable(points, metricFidelity, "fidelity", true)
              << "\n";

    std::cout << "--- Fig 6c-6e (log fidelity, for deep-loss configs) "
                 "---\n"
              << seriesTable(points, metricLogFidelity, "ln(fidelity)")
              << "\n";

    std::cout << "--- Fig 6f: max motional mode energy (quanta) ---\n"
              << seriesTable(points, metricMaxEnergy, "max energy")
              << "\n";

    std::cout << "--- Fig 6g: Supremacy MS gate error split (x1e-2) "
                 "---\n"
              << appTable(points, "supremacy", "error term",
                          {{"background",
                            [](const RunResult &r) {
                                return r.sim.meanBackgroundError() * 100;
                            }},
                           {"motional", [](const RunResult &r) {
                                return r.sim.meanMotionalError() * 100;
                            }}});

    // Raw series for external plotting.
    std::cout << "\n";
    bench::writeCsv(rows);
    return 0;
}
