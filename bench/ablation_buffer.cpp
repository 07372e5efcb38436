/**
 * @file
 * Ablation: buffer slots per trap. The paper fixes two free slots per
 * trap for incoming shuttles (Section VI); this sweep quantifies the
 * sensitivity of runtime and fidelity to that choice, including the
 * eviction pressure that appears when no buffer is reserved. The
 * scenario is examples/sweeps/ablation_buffer.sweep.
 */

#include <iostream>

#include "common/table.hpp"
#include "spec_bench.hpp"

int
main()
{
    using namespace qccd;

    const bench::SpecRows rows = bench::runSpec("ablation_buffer.sweep");

    std::cout << "=== Ablation: buffer slots per trap (L6 cap=22, FM-GS) "
                 "===\n";
    TextTable table;
    table.addRow({"app", "buffer", "time (s)", "fidelity", "evictions",
                  "shuttles"});
    for (const SweepPoint &p : rows.points) {
        const RunResult &r = p.result;
        table.addRow({p.application,
                      std::to_string(p.design.hw.bufferSlots),
                      formatSig(r.totalTime() / kSecondUs, 4),
                      formatSci(r.fidelity(), 3),
                      std::to_string(r.sim.counts.evictions),
                      std::to_string(r.sim.counts.shuttles)});
    }
    std::cout << table.render();

    // Raw series for external plotting and the golden check.
    std::cout << "\n";
    bench::writeCsv(rows);
    return 0;
}
