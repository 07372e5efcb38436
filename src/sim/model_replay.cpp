#include "sim/model_replay.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace qccd
{

void
ModelEvalLog::clear()
{
    steps_.clear();
    logFidIndex_.clear();
    msSlots_.clear();
    slotUses_.clear();
    oneQubitOps_ = 0;
    measureOps_ = 0;
    chainLens_.clear();
    live_.clear();
}

ModelEvalLog::LiveSlot &
ModelEvalLog::liveSlot(TrapId t)
{
    const auto idx = static_cast<size_t>(t);
    if (idx >= live_.size())
        live_.resize(idx + 1);
    return live_[idx];
}

void
ModelEvalLog::noteMs(TrapId t, int chain_len, TimeUs phys_dur)
{
    LiveSlot &live = liveSlot(t);
    if (!live.valid || live.chainLen != chain_len ||
        live.physDur != phys_dur) {
        live = {true, static_cast<std::uint32_t>(slotUses_.size()),
                chain_len, phys_dur};
        slotUses_.push_back(0);
        steps_.push_back(
            {Step::Kind::EvalMs, t, chain_len, live.slot, phys_dur});
        if (std::find(chainLens_.begin(), chainLens_.end(), chain_len) ==
            chainLens_.end())
            chainLens_.push_back(chain_len);
    }
    ++slotUses_[live.slot];
    logFidIndex_.push_back(kFirstSlot + live.slot);
    msSlots_.push_back(live.slot);
}

void
ModelEvalLog::noteSplit(TrapId t, int rest_ions)
{
    liveSlot(t).valid = false;
    steps_.push_back({Step::Kind::Split, t, rest_ions, 0, 0});
}

void
ModelEvalLog::noteMerge(TrapId t)
{
    liveSlot(t).valid = false;
    steps_.push_back({Step::Kind::Merge, t, 0, 0, 0});
}

void
ModelEvalLog::noteIonSwapHop(TrapId t, int chain_len)
{
    panicUnless(chain_len > 2,
                "ion-swap hop event on a chain without a split");
    liveSlot(t).valid = false;
    steps_.push_back({Step::Kind::IonSwapHop, t, chain_len, 0, 0});
}

SimResult
replayModelEval(const ModelEvalLog &log, const HardwareParams &hw,
                const SimResult &base)
{
    using Step = ModelEvalLog::Step;
    const FidelityModel fidelity = hw.fidelityModel();
    const HeatingModel heating = hw.heatingModel();
    // log(max(f, kMinFidelity)), exactly as SimResult::noteOp computes.
    const auto clampedLog = [](double fid) {
        return std::log(std::max(fid, kMinFidelity));
    };

    // A(n) for the chain lengths the log's MS gates use: the expression
    // ModelTables memoizes, evaluated once per length.
    int max_len = 0;
    for (int n : log.chainLengths())
        max_len = std::max(max_len, n);
    std::vector<double> scale_a(static_cast<size_t>(max_len) + 1, 0.0);
    for (int n : log.chainLengths())
        scale_a[n] = fidelity.scaleFactorA(n);

    // Log-fidelity addend per stream index (the two constant op kinds,
    // then one per MS slot) and the MS error terms per slot.
    const std::vector<long> &uses = log.slotUses();
    std::vector<double> log_fid(ModelEvalLog::kFirstSlot + uses.size());
    std::vector<GateErrorBreakdown> ms_err(uses.size());
    log_fid[ModelEvalLog::kOneQubit] =
        clampedLog(fidelity.oneQubitFidelity());
    log_fid[ModelEvalLog::kMeasure] =
        clampedLog(fidelity.measureFidelity());
    long zero_ops = 0;
    if (fidelity.oneQubitFidelity() <= 0)
        zero_ops += log.oneQubitOps();
    if (fidelity.measureFidelity() <= 0)
        zero_ops += log.measureOps();

    // The energy trajectory the recording run's DeviceState held:
    // per-trap chain energies plus the (single, see below) in-flight
    // ion's energy. max_seen mirrors DeviceState::maxEnergySeen —
    // updated exactly where setEnergy / detachEnd / setFlightEnergy
    // would have been called.
    std::vector<Quanta> energy(static_cast<size_t>(log.trapCount()), 0);
    Quanta flight = 0;
    Quanta max_seen = 0;
    for (const Step &st : log.steps()) {
        switch (st.kind) {
          case Step::Kind::EvalMs: {
            const GateErrorBreakdown err =
                fidelity.twoQubitErrorWithScale(st.physDur, scale_a[st.a],
                                                energy[st.trap]);
            const double fid = err.fidelity();
            ms_err[st.slot] = err;
            log_fid[ModelEvalLog::kFirstSlot + st.slot] = clampedLog(fid);
            if (fid <= 0)
                zero_ops += uses[st.slot];
            break;
          }
          case Step::Kind::Split: {
            Quanta &e = energy[st.trap];
            if (st.a == 0) {
                // Last ion out: it keeps the chain energy plus the
                // split disturbance; the empty trap holds none.
                flight = e + heating.k1();
                e = 0;
            } else {
                const auto [rest, moved] =
                    heating.afterSplit(e, st.a, 1);
                e = rest;
                max_seen = std::max(max_seen, rest);
                flight = moved;
            }
            max_seen = std::max(max_seen, flight);
            break;
          }
          case Step::Kind::Merge: {
            Quanta &e = energy[st.trap];
            Quanta merged = heating.afterMerge(e, flight);
            merged *= hw.recoolFactor;
            e = merged;
            max_seen = std::max(max_seen, merged);
            break;
          }
          case Step::Kind::Moves:
            flight = heating.afterMoves(flight, st.a);
            max_seen = std::max(max_seen, flight);
            break;
          case Step::Kind::Junction:
            flight = heating.afterJunction(flight);
            max_seen = std::max(max_seen, flight);
            break;
          case Step::Kind::IonSwapHop: {
            // Split off the swapping pair, rotate, merge back — the
            // intermediate halves never pass through setEnergy, and
            // the hop's merge does NOT recool (see emitIonSwapHop).
            Quanta &e = energy[st.trap];
            const auto [rest, pair] =
                heating.afterSplit(e, st.a - 2, 2);
            e = heating.afterMerge(rest, pair);
            max_seen = std::max(max_seen, e);
            break;
          }
        }
    }

    // In-order gather-adds: every accumulator receives the addends the
    // recording run's SimResult did, in emission order.
    double log_fidelity = 0;
    for (const std::uint32_t i : log.logFidelityIndex())
        log_fidelity += log_fid[i];
    double sum_background = 0;
    double sum_motional = 0;
    for (const std::uint32_t s : log.msSlots()) {
        sum_background += ms_err[s].background;
        sum_motional += ms_err[s].motional;
    }

    SimResult out = base;
    out.logFidelity = log_fidelity;
    out.zeroFidelityOps = zero_ops;
    out.sumBackgroundError = sum_background;
    out.sumMotionalError = sum_motional;
    out.maxChainEnergy = max_seen;
    return out;
}

} // namespace qccd
