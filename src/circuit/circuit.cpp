#include "circuit/circuit.hpp"

#include "common/error.hpp"

namespace qccd
{

Circuit::Circuit(int num_qubits, std::string name)
    : numQubits_(num_qubits), name_(std::move(name))
{
    fatalUnless(num_qubits >= 1, "circuit needs at least one qubit");
}

void
Circuit::add(const Gate &gate)
{
    const int arity = opArity(gate.op);
    // Messages are built only on failure: add() runs once per gate.
    if (arity >= 1 && (gate.q0 < 0 || gate.q0 >= numQubits_)) [[unlikely]]
        raiseConfigError("gate operand q0 out of range in " +
                         gate.toString());
    if (arity == 2) {
        if (gate.q1 < 0 || gate.q1 >= numQubits_) [[unlikely]]
            raiseConfigError("gate operand q1 out of range in " +
                             gate.toString());
        if (gate.q0 == gate.q1) [[unlikely]]
            raiseConfigError("two-qubit gate operands must differ in " +
                             gate.toString());
    }
    gates_.push_back(gate);
}

void
Circuit::measureAll()
{
    for (QubitId q = 0; q < numQubits_; ++q)
        measure(q);
}

} // namespace qccd
