/**
 * @file
 * Seeded input generation for the benchmark workloads.
 *
 * The seed changes the *values* of the generated inputs — the shape of
 * one `.topo` device, the gates of one QASM circuit, the model knobs of
 * the knob sweep — but never the *amount* of work: the number of
 * traps, edges, qubits, gates, knob sets and grid points is fixed, so
 * every seed yields the same points, schedules and store traffic.
 */
#ifndef QBENCH_INPUTS_HPP
#define QBENCH_INPUTS_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace qbench
{

/** Six traps around two junctions, with seeded wiring, segment
 *  lengths and one pinned-capacity trap. Always 6 traps, 2 junctions
 *  and 8 edges. */
std::string makeTopoText(uint64_t seed, const std::string &name);

/** A 24-qubit OpenQASM 2.0 circuit of 240 CX and 120 single-qubit
 *  gates on seeded qubits and angles, then a full measurement. */
std::string makeQasmText(uint64_t seed);

/** @p count co-varying sets of the replay-only model knobs (Gamma,
 *  kappa, heating k1/k2, recool, 1q and measurement error) as JSON
 *  objects. Values are seeded but pairwise distinct, so no two sets
 *  share a result-store key. */
std::vector<std::string> makeKnobSets(uint64_t seed, size_t count);

/** Names of the generated files inside a workload's input directory. */
inline constexpr const char *kGenTopo = "gen6.topo";
inline constexpr const char *kGenQasm = "gen.qasm";
inline constexpr const char *kFixedTopo = "fixed6.topo";
inline constexpr const char *kQftQasm = "qft_qasm.qasm";

/** The structural cold grid: Table II apps plus the generated circuit,
 *  over the topology families plus the generated device (`sweep_cold`). */
std::string coldSpecText();

/** ~70 schedule keys times the given knob sets (`knob_sweep`). */
std::string knobSpecText(const std::vector<std::string> &knob_sets);

/** The fixed qft-only search space (`search`); no seeded input reaches
 *  it. */
std::string searchSpecText();

/** Knob sets per schedule key in the knob sweep. */
inline constexpr size_t kKnobSets = 300;

} // namespace qbench

#endif // QBENCH_INPUTS_HPP
