/**
 * @file
 * Model-evaluation replay: re-run the physical models over a recorded
 * schedule without re-scheduling.
 *
 * The scheduler's decisions (gate order, routing, evictions, every
 * primitive's duration and timeline placement) depend on the gate/
 * shuttle timing knobs and the microarchitecture — but never on the
 * pure model knobs (heating k1/k2, recool factor, Gamma, kappa, the
 * 1q/measurement error rates). Those knobs only feed the energy
 * trajectory and the fidelity accumulators. Two design points that
 * agree on everything the scheduler reads therefore emit the *same*
 * primitive sequence, and the second point's metrics can be produced
 * by replaying the first point's op stream under the new models.
 *
 * ModelEvalLog is that op stream, compiled while PrimitiveEmitter
 * records it (one hook per model-relevant primitive, in emission
 * order) into four parts:
 *
 *  - a step list holding the energy events (split, merge, moves,
 *    junction, ion-swap hop) plus one "evaluate an MS gate into slot
 *    s" step per *distinct* MS error evaluation;
 *  - a per-primitive index stream for the log-fidelity sum: the
 *    one-qubit value, the measurement value, or MS slot s;
 *  - a per-MS-gate slot stream for the background and motional sums;
 *  - per-slot use counts plus the one-qubit and measurement counts,
 *    for zeroFidelityOps.
 *
 * Slot-reuse rule: an MS gate's error is a function of its physical
 * duration, its chain length (through A(n)) and its trap's chain
 * energy, and of nothing else. The energy of a trap changes only at a
 * split, merge or ion-swap hop on that trap — a property of the
 * schedule, not of the knobs. So an MS gate reuses its trap's live
 * slot when (duration, chain length) equal those of the trap's last MS
 * gate and no energy event touched the trap since; otherwise it opens
 * a new slot. Under every knob set, a reused slot holds exactly the
 * value a per-gate evaluation would have computed.
 *
 * replayModelEval() runs one pass over the steps (the energy
 * recurrences, stepwise, as DeviceState applied them, filling every
 * slot), then branch-free in-order gather-adds over the two streams.
 *
 * Bit-identity contract: replayed metrics equal a from-scratch run of
 * the same schedule bit for bit. Each accumulator receives the same
 * addends, in emission order (float addition is not associative), and
 * each addend is the same expression evaluated on the same inputs — a
 * slot is evaluated once but read many times, which changes how often
 * a value is computed, never its bits. The only ops left out are
 * unit-fidelity ones, whose log-fidelity contribution is exactly +0.0
 * and cannot change any accumulator bit (the log-fidelity sum is +0.0
 * or strictly negative, never -0.0). Enforced by the staged-vs-scalar
 * differential in tests/test_sweep_engine.cpp.
 */

#ifndef QCCD_SIM_MODEL_REPLAY_HPP
#define QCCD_SIM_MODEL_REPLAY_HPP

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "models/params.hpp"
#include "sim/metrics.hpp"

namespace qccd
{

/**
 * The model-relevant primitives of one schedule, compiled for replay
 * as they are recorded (see the file comment). Recorded by
 * PrimitiveEmitter when a ScheduleOptions passes a log; replayed by
 * replayModelEval(). Unit-fidelity ops that do not touch chain energy
 * (GS payload swaps aside from their MS gates, rotations of two-ion
 * chains) are not recorded — they cannot change any model-dependent
 * accumulator.
 */
class ModelEvalLog
{
  public:
    /** One step of the replay's energy pass, in emission order. */
    struct Step
    {
        enum class Kind : std::uint8_t
        {
            EvalMs,     ///< MS error into `slot`: trap, chain length, dur
            Split,      ///< split: trap, ions remaining (0 = last ion)
            Merge,      ///< merge into trap (recool applies)
            Moves,      ///< in-flight heating over `a` segments
            Junction,   ///< in-flight junction-crossing heating
            IonSwapHop, ///< IS hop on a chain of `a` > 2 ions
        };

        Kind kind;
        TrapId trap = kInvalidId;
        int a = 0;              ///< chainLen / restIons / segments
        std::uint32_t slot = 0; ///< EvalMs only: slot to fill
        TimeUs physDur = 0;     ///< EvalMs only: physical gate duration
    };

    /** Log-fidelity stream indices; MS slot s is kFirstSlot + s. @{ */
    static constexpr std::uint32_t kOneQubit = 0;
    static constexpr std::uint32_t kMeasure = 1;
    static constexpr std::uint32_t kFirstSlot = 2;
    /** @} */

    void clear();

    /** Compiled form, read by replayModelEval(). @{ */
    const std::vector<Step> &steps() const { return steps_; }
    const std::vector<std::uint32_t> &logFidelityIndex() const
    {
        return logFidIndex_;
    }
    const std::vector<std::uint32_t> &msSlots() const { return msSlots_; }
    const std::vector<long> &slotUses() const { return slotUses_; }
    long oneQubitOps() const { return oneQubitOps_; }
    long measureOps() const { return measureOps_; }
    /** Distinct chain lengths of the recorded MS gates. */
    const std::vector<int> &chainLengths() const { return chainLens_; }
    /** Largest recorded trap id + 1. */
    int trapCount() const { return static_cast<int>(live_.size()); }
    /** @} */

    /** Recording hooks, called by PrimitiveEmitter in emission order.
     *  @{ */
    void noteMs(TrapId t, int chain_len, TimeUs phys_dur);
    void noteOneQubit()
    {
        logFidIndex_.push_back(kOneQubit);
        ++oneQubitOps_;
    }
    void noteMeasure()
    {
        logFidIndex_.push_back(kMeasure);
        ++measureOps_;
    }
    void noteSplit(TrapId t, int rest_ions);
    void noteMerge(TrapId t);
    void noteMoves(int segments)
    {
        steps_.push_back({Step::Kind::Moves, kInvalidId, segments, 0, 0});
    }
    void noteJunction()
    {
        steps_.push_back({Step::Kind::Junction, kInvalidId, 0, 0, 0});
    }
    void noteIonSwapHop(TrapId t, int chain_len);
    /** @} */

  private:
    /** A trap's reusable MS slot (recording-time state). */
    struct LiveSlot
    {
        bool valid = false;
        std::uint32_t slot = 0;
        int chainLen = 0;
        TimeUs physDur = 0;
    };

    /** The live slot of trap @p t (grown on first use). An energy
     *  event on the trap marks it invalid. */
    LiveSlot &liveSlot(TrapId t);

    std::vector<Step> steps_;
    std::vector<std::uint32_t> logFidIndex_;
    std::vector<std::uint32_t> msSlots_;
    std::vector<long> slotUses_;
    long oneQubitOps_ = 0;
    long measureOps_ = 0;
    std::vector<int> chainLens_;
    std::vector<LiveSlot> live_; ///< indexed by trap
};

/**
 * Re-evaluate the physical models of @p hw over the recorded schedule
 * @p log, starting from @p base (the recording run's metrics).
 *
 * @return @p base with the five model-dependent fields recomputed;
 *         all schedule-determined fields are copied through unchanged
 * @pre @p hw agrees with the recording run's parameters on every knob
 *      the scheduler reads (see ScheduleKey in core/toolflow.hpp) —
 *      only the pure model knobs may differ
 */
SimResult replayModelEval(const ModelEvalLog &log,
                          const HardwareParams &hw,
                          const SimResult &base);

} // namespace qccd

#endif // QCCD_SIM_MODEL_REPLAY_HPP
