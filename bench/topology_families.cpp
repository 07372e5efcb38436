/**
 * @file
 * Topology-family study beyond the paper: the generalized architecture
 * layer's ring, star and H-tree devices against the L6 linear baseline
 * (same toolflow, same models), swept over trap capacity for two
 * contrasting communication patterns (bv shared-ancilla, qft all
 * distances). The scenario is examples/sweeps/topology_families.sweep
 * (one grid per family); its CSV is pinned in golden/.
 */

#include <algorithm>
#include <iostream>

#include "core/report.hpp"
#include "spec_bench.hpp"

int
main()
{
    using namespace qccd;

    const bench::SpecRows rows = bench::runSpec("topology_families.sweep");

    std::cout << "=== Topology families: L6 vs ring:6 / star:6 / "
                 "htree:3 (FM, GS) ===\n\n";
    // One series per family, in spec order.
    for (auto it = rows.points.begin(); it != rows.points.end();) {
        const std::string topo = it->design.topologySpec;
        const auto end = std::find_if(it, rows.points.end(),
                                      [&](const SweepPoint &p) {
                                          return p.design.topologySpec !=
                                                 topo;
                                      });
        std::cout << "--- " << topo << ": runtime (s) ---\n"
                  << seriesTable({it, end}, metricTimeSeconds,
                                 topo + " time[s]")
                  << "\n";
        it = end;
    }

    bench::writeCsv(rows);
    return 0;
}
