/**
 * @file
 * Extension study: sympathetic recooling after merges. The paper's
 * model accumulates motional energy monotonically; real QCCD machines
 * (e.g. Honeywell's) recool chains with coolant ions. This bench adds a
 * configurable post-merge recool factor and quantifies how much of the
 * shuttling fidelity penalty recooling recovers - a future-work knob
 * beyond the paper's model, off by default everywhere else. The
 * scenario is examples/sweeps/ablation_cooling.sweep.
 */

#include <iostream>

#include "common/table.hpp"
#include "spec_bench.hpp"

int
main()
{
    using namespace qccd;

    const bench::SpecRows rows = bench::runSpec("ablation_cooling.sweep");

    std::cout << "=== Extension: post-merge sympathetic recooling "
                 "(L6 cap=22, FM-GS) ===\n";
    TextTable table;
    table.addRow({"app", "recool factor", "fidelity",
                  "max heat (quanta)", "time (s)"});
    for (const SweepPoint &p : rows.points) {
        const RunResult &r = p.result;
        table.addRow({p.application,
                      formatSig(p.design.hw.recoolFactor, 3),
                      formatSci(r.fidelity(), 3),
                      formatSig(r.sim.maxChainEnergy, 4),
                      formatSig(r.totalTime() / kSecondUs, 4)});
    }
    std::cout << table.render();
    std::cout << "\nfactor=1.0 is the paper's model (no recooling); "
                 "smaller factors recool chains toward the ground state "
                 "after each merge.\n";

    // Raw series for external plotting and the golden check.
    bench::writeCsv(rows);
    return 0;
}
