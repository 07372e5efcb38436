#include "inputs.hpp"

#include <cstdio>
#include <numeric>
#include <sstream>

#include "common/rng.hpp"

namespace qbench
{

namespace
{

std::string
formatDouble(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", value);
    return buf;
}

std::string
joinQuoted(const std::vector<std::string> &items)
{
    std::string out = "[";
    for (size_t i = 0; i < items.size(); ++i)
        out += (i ? ", \"" : "\"") + items[i] + "\"";
    return out + "]";
}

const std::vector<std::string> &
coldApps()
{
    static const std::vector<std::string> apps = {
        "adder", "bv",        "qaoa",
        "qft",   "squareroot", "supremacy",
        std::string("qasm:") + kGenQasm};
    return apps;
}

std::string
paramsArray(const std::vector<std::string> &sets)
{
    std::string out = "[\n";
    for (size_t i = 0; i < sets.size(); ++i)
        out += "        " + sets[i] + (i + 1 < sets.size() ? ",\n" : "\n");
    return out + "      ]";
}

} // namespace

std::string
makeTopoText(uint64_t seed, const std::string &name)
{
    qccd::Rng rng(seed ^ 0x746f706f6c6f6779ULL);
    int order[6];
    std::iota(order, order + 6, 0);
    for (int i = 5; i > 0; --i) {
        const int j = rng.nextInt(0, i);
        std::swap(order[i], order[j]);
    }
    const int pinned = rng.nextInt(0, 5);
    const int pinnedCapacity = 24 + 4 * rng.nextInt(0, 2);

    std::ostringstream out;
    out << "# Generated device: six traps around two junctions.\n"
        << "name " << name << "\n";
    for (int t = 0; t < 6; ++t) {
        out << "trap t" << t;
        if (t == pinned)
            out << " " << pinnedCapacity;
        out << "\n";
    }
    out << "junction j0\njunction j1\n";
    for (int k = 0; k < 6; ++k)
        out << "edge t" << order[k] << (k < 3 ? " j0 " : " j1 ")
            << rng.nextInt(1, 2) << "\n";
    out << "edge j0 j1 " << rng.nextInt(1, 3) << "\n";
    out << "edge t" << order[rng.nextInt(0, 2)] << " t"
        << order[rng.nextInt(3, 5)] << " " << rng.nextInt(1, 2) << "\n";
    return out.str();
}

std::string
makeQasmText(uint64_t seed)
{
    constexpr int kQubits = 24;
    qccd::Rng rng(seed ^ 0x7161736d63697263ULL);
    std::ostringstream out;
    out << "// Generated circuit: 240 CX and 120 single-qubit gates.\n"
        << "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n"
        << "qreg q[" << kQubits << "];\ncreg c[" << kQubits << "];\n";
    for (int k = 0; k < 360; ++k) {
        const int a = rng.nextInt(0, kQubits - 1);
        if (k % 3 == 0) {
            if (rng.nextBool())
                out << "h q[" << a << "];\n";
            else
                out << "rz(pi/" << (2 << rng.nextInt(0, 3)) << ") q[" << a
                    << "];\n";
        } else {
            const int b = (a + rng.nextInt(1, kQubits - 1)) % kQubits;
            out << "cx q[" << a << "], q[" << b << "];\n";
        }
    }
    out << "measure q -> c;\n";
    return out.str();
}

std::vector<std::string>
makeKnobSets(uint64_t seed, size_t count)
{
    // Each knob walks its own stride through `count` equal slots of its
    // range and takes a seeded offset inside the slot: values stay in
    // range, differ between seeds, and no two sets coincide.
    struct Knob
    {
        const char *key;
        double lo;
        double hi;
        size_t stride;
    };
    static const Knob kKnobs[] = {
        {"gamma_per_s", 0.5, 2.0, 1},
        {"kappa", 2.5e-6, 1e-5, 7},
        {"heating_k1", 0.05, 0.2, 11},
        {"heating_k2", 0.005, 0.02, 13},
        {"recool_factor", 0.5, 1.0, 17},
        {"one_qubit_error", 1.5e-5, 6e-5, 19},
        {"measure_error", 5e-4, 2e-3, 23},
    };
    qccd::Rng rng(seed ^ 0x6b6e6f6273657473ULL);
    std::vector<std::string> sets;
    sets.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        std::string obj = "{";
        for (const Knob &knob : kKnobs) {
            const size_t slot = (i * knob.stride) % count;
            const double frac = (static_cast<double>(slot) +
                                 0.05 + 0.9 * rng.nextDouble()) /
                                static_cast<double>(count);
            if (obj.size() > 1)
                obj += ", ";
            obj += std::string("\"") + knob.key + "\": " +
                   formatDouble(knob.lo + (knob.hi - knob.lo) * frac);
        }
        sets.push_back(obj + "}");
    }
    return sets;
}

std::string
coldSpecText()
{
    const std::string apps = joinQuoted(coldApps());
    const std::string gen = std::string("topo:") + kGenTopo;
    return "# sweep_cold: structural cross product (no model-knob axis).\n"
           "{\n"
           "  \"name\": \"qbench_cold\",\n"
           "  \"sweeps\": [\n"
           "    {\n"
           "      \"apps\": " + apps + ",\n"
           "      \"topology\": [\"linear:6\", \"ring:6\", \"grid:2x3\", "
           "\"star:6\", \"" + gen + "\"],\n"
           "      \"capacity\": [16, 24, 32],\n"
           "      \"gate\": [\"AM2\", \"FM\"],\n"
           "      \"reorder\": [\"GS\", \"IS\"]\n"
           "    },\n"
           "    {\n"
           "      \"apps\": " + apps + ",\n"
           "      \"topology\": [\"linear:6\", \"" + gen + "\"],\n"
           "      \"capacity\": [20, 28],\n"
           "      \"gate\": [\"PM\", \"AM1\"],\n"
           "      \"reorder\": [\"GS\", \"IS\"],\n"
           "      \"options\": {\"decompose_runtime\": true}\n"
           "    }\n"
           "  ]\n"
           "}\n";
}

std::string
knobSpecText(const std::vector<std::string> &knob_sets)
{
    const std::string apps = joinQuoted(coldApps());
    const std::string params = paramsArray(knob_sets);
    const std::string gen = std::string("topo:") + kGenTopo;
    // "params" is declared last, so it varies fastest: consecutive
    // points share a schedule key and differ only in model knobs.
    return "# knob_sweep: 70 schedule keys x seeded model-knob sets.\n"
           "{\n"
           "  \"name\": \"qbench_knobs\",\n"
           "  \"sweeps\": [\n"
           "    {\n"
           "      \"apps\": " + apps + ",\n"
           "      \"topology\": [\"linear:6\", \"grid:2x3\", \"" + gen +
           "\"],\n"
           "      \"capacity\": [18, 26],\n"
           "      \"gate\": \"FM\",\n"
           "      \"params\": " + params + "\n"
           "    },\n"
           "    {\n"
           "      \"apps\": " + apps + ",\n"
           "      \"topology\": [\"ring:6\", \"star:6\"],\n"
           "      \"capacity\": 22,\n"
           "      \"gate\": [\"AM2\", \"PM\"],\n"
           "      \"options\": {\"decompose_runtime\": true},\n"
           "      \"params\": " + params + "\n"
           "    }\n"
           "  ]\n"
           "}\n";
}

std::string
searchSpecText()
{
    // A fixed knob list (its own constant seed): the search's promoted
    // points depend on every value in the space.
    const std::string params = paramsArray(makeKnobSets(0x5ea4c5ULL, 70));
    const std::string axes =
        "      \"topology\": [\"linear:6\", \"ring:6\", \"grid:2x3\", "
        "\"star:6\", \"topo:" + std::string(kFixedTopo) + "\"],\n"
        "      \"capacity\": [18, 20, 22, 24, 26, 28, 30, 32, 34],\n"
        "      \"gate\": [\"AM1\", \"AM2\", \"PM\", \"FM\"],\n"
        "      \"reorder\": [\"GS\", \"IS\"],\n"
        "      \"buffer\": [1, 2],\n";
    return "# search: fixed qft-only space (builtin and QASM front ends).\n"
           "{\n"
           "  \"name\": \"qbench_search\",\n"
           "  \"search\": {\"budget\": 160, \"seed\": 7, \"eta\": 2},\n"
           "  \"sweeps\": [\n"
           "    {\n"
           "      \"apps\": [\"qft\"],\n" + axes +
           "      \"params\": " + params + "\n"
           "    },\n"
           "    {\n"
           "      \"apps\": [\"qasm:" + std::string(kQftQasm) + "\"],\n" +
           axes +
           "      \"options\": {\"decompose_runtime\": true},\n"
           "      \"params\": " + params + "\n"
           "    }\n"
           "  ]\n"
           "}\n";
}

} // namespace qbench
