/**
 * @file
 * Ablation: heating constants k1/k2. The paper assumes rates one order
 * of magnitude better than Honeywell's measured ~2 quanta per shuttle
 * (Section VII-B, k1=0.1, k2=0.01). This sweep shows how application
 * fidelity degrades if that projection is not met. The scenario is
 * examples/sweeps/ablation_heating.sweep (k1/k2 pairs from 0.1x to 10x
 * the paper's projection).
 */

#include <iostream>

#include "common/table.hpp"
#include "spec_bench.hpp"

int
main()
{
    using namespace qccd;

    const bench::SpecRows rows = bench::runSpec("ablation_heating.sweep");

    std::cout << "=== Ablation: heating constants (L6 cap=22, FM-GS) "
                 "===\n";
    TextTable table;
    table.addRow({"app", "k1", "k2", "fidelity", "max heat (quanta)"});
    for (const SweepPoint &p : rows.points) {
        const RunResult &r = p.result;
        table.addRow({p.application, formatSig(p.design.hw.heatingK1, 3),
                      formatSig(p.design.hw.heatingK2, 3),
                      formatSci(r.fidelity(), 3),
                      formatSig(r.sim.maxChainEnergy, 4)});
    }
    std::cout << table.render();
    std::cout << "\nk1=1.0 corresponds to Honeywell-scale heating; the "
                 "paper's projected rates are the middle row.\n";

    // Raw series for external plotting and the golden check.
    bench::writeCsv(rows);
    return 0;
}
