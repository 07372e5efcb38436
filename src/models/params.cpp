#include "models/params.hpp"

#include "common/error.hpp"

namespace qccd
{

std::string
reorderMethodName(ReorderMethod method)
{
    switch (method) {
      case ReorderMethod::GS: return "GS";
      case ReorderMethod::IS: return "IS";
    }
    throw InternalError("unknown ReorderMethod");
}

ReorderMethod
reorderMethodFromName(const std::string &name)
{
    if (name == "GS") return ReorderMethod::GS;
    if (name == "IS") return ReorderMethod::IS;
    throw ConfigError("unknown reorder method '" + name +
                      "' (expected GS or IS)");
}

GateTimeModel
HardwareParams::gateTimeModel() const
{
    return GateTimeModel(gateImpl, oneQubitUs, measureUs, twoQubitFloorUs);
}

HeatingModel
HardwareParams::heatingModel() const
{
    return HeatingModel(heatingK1, heatingK2);
}

FidelityModel
HardwareParams::fidelityModel() const
{
    return FidelityModel(gammaPerS, kappa, oneQubitError, measureError);
}

namespace
{

/** One named numeric parameter of HardwareParams. */
struct OverrideEntry
{
    const char *key;
    double HardwareParams::*doubleField = nullptr;
    int HardwareParams::*intField = nullptr;
};

/** TimeUs and Quanta are double typedefs, so one pointer type covers
 *  every non-integer parameter. */
const OverrideEntry kOverrides[] = {
    {"one_qubit_us", &HardwareParams::oneQubitUs, nullptr},
    {"measure_us", &HardwareParams::measureUs, nullptr},
    {"two_qubit_floor_us", &HardwareParams::twoQubitFloorUs, nullptr},
    {"heating_k1", &HardwareParams::heatingK1, nullptr},
    {"heating_k2", &HardwareParams::heatingK2, nullptr},
    {"gamma_per_s", &HardwareParams::gammaPerS, nullptr},
    {"kappa", &HardwareParams::kappa, nullptr},
    {"one_qubit_error", &HardwareParams::oneQubitError, nullptr},
    {"measure_error", &HardwareParams::measureError, nullptr},
    {"recool_factor", &HardwareParams::recoolFactor, nullptr},
    {"buffer_slots", nullptr, &HardwareParams::bufferSlots},
};

/** Shuttle timings live one struct deeper; map them separately. */
struct ShuttleEntry
{
    const char *key;
    TimeUs ShuttleTimeModel::*field;
};

const ShuttleEntry kShuttleOverrides[] = {
    {"move_per_segment_us", &ShuttleTimeModel::movePerSegment},
    {"split_us", &ShuttleTimeModel::split},
    {"merge_us", &ShuttleTimeModel::merge},
    {"y_junction_us", &ShuttleTimeModel::yJunction},
    {"x_junction_us", &ShuttleTimeModel::xJunction},
    {"ion_swap_rotation_us", &ShuttleTimeModel::ionSwapRotation},
};

} // namespace

void
applyHardwareOverride(HardwareParams &params, const std::string &key,
                      double value)
{
    for (const OverrideEntry &entry : kOverrides) {
        if (key != entry.key)
            continue;
        if (entry.doubleField) {
            params.*entry.doubleField = value;
        } else {
            const int integral = static_cast<int>(value);
            if (static_cast<double>(integral) != value) [[unlikely]]
                raiseConfigError("parameter '" + key +
                                 "' takes an integer value");
            params.*entry.intField = integral;
        }
        return;
    }
    for (const ShuttleEntry &entry : kShuttleOverrides) {
        if (key == entry.key) {
            params.shuttle.*entry.field = value;
            return;
        }
    }
    std::string known;
    for (const std::string &k : hardwareOverrideKeys())
        known += (known.empty() ? "" : ", ") + k;
    throw ConfigError("unknown hardware parameter '" + key +
                      "' (known: " + known + ")");
}

std::vector<std::string>
hardwareOverrideKeys()
{
    std::vector<std::string> keys;
    for (const OverrideEntry &entry : kOverrides)
        keys.push_back(entry.key);
    for (const ShuttleEntry &entry : kShuttleOverrides)
        keys.push_back(entry.key);
    return keys;
}

void
HardwareParams::validate() const
{
    shuttle.validate();
    fatalUnless(bufferSlots >= 0, "buffer slots must be non-negative");
    fatalUnless(recoolFactor > 0 && recoolFactor <= 1.0,
                "recool factor must be in (0, 1]");
    // The model constructors validate their own parameters.
    gateTimeModel();
    heatingModel();
    fidelityModel();
}

} // namespace qccd
