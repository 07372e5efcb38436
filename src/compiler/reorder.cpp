#include "compiler/reorder.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "sim/model_replay.hpp"

namespace qccd
{

namespace
{

/** Largest trap capacity in @p topo (chain lengths never exceed it+1). */
int
maxTrapCapacity(const Topology &topo)
{
    int max_cap = 0;
    for (TrapId t = 0; t < topo.trapCount(); ++t)
        max_cap = std::max(max_cap, topo.node(topo.trapNode(t)).capacity);
    return max_cap;
}

} // namespace

PrimitiveEmitter::PrimitiveEmitter(DeviceState &state,
                                   const HardwareParams &hw,
                                   SimResult &result, Trace *trace,
                                   bool zero_comm_times,
                                   ModelEvalLog *model_log)
    : state_(state), hw_(hw),
      tables_(ModelTables::shared(hw,
                                  maxTrapCapacity(state.topology()) + 1)),
      heating_(hw.heatingModel()), result_(result), trace_(trace),
      zeroComm_(zero_comm_times), log_(model_log),
      qubitReady_(state.numIons(), 0)
{
}

void
PrimitiveEmitter::recordSimple(PrimKind kind, TimeUs start,
                               TimeUs duration, TrapId trap, EdgeId edge,
                               NodeId junction, IonId ion, QubitId q0,
                               bool for_comm, double fid, double log_fid)
{
    result_.noteSimpleOp(kind, start + duration, duration, for_comm, fid,
                         log_fid);
    if (trace_ != nullptr) {
        PrimOp op;
        op.kind = kind;
        op.start = start;
        op.duration = duration;
        op.trap = trap;
        op.edge = edge;
        op.junction = junction;
        op.ion = ion;
        op.q0 = q0;
        op.fidelity = fid;
        op.forCommunication = for_comm;
        trace_->push_back(op);
    }
}

TimeUs
PrimitiveEmitter::emitMs(QubitId qa, QubitId qb, TimeUs ready,
                         bool for_comm)
{
    const IonId ia = state_.ionOf(qa);
    const IonId ib = state_.ionOf(qb);
    const TrapId t = state_.trapOf(ia);
    panicUnless(t != kInvalidId && t == state_.trapOf(ib),
                "MS gate requires co-located ions");

    const int pa = state_.positionOf(ia);
    const int pb = state_.positionOf(ib);
    const int separation = std::abs(pa - pb);
    const int chain_len = state_.chain(t).size();
    const Quanta nbar = state_.energy(t);

    // Fidelity uses the *physical* gate duration even when the
    // decomposition mode zeroes schedule time.
    const TimeUs phys_dur = tables_->twoQubit(separation, chain_len);
    const TimeUs dur = for_comm ? commDur(phys_dur) : phys_dur;

    const TimeUs data_ready =
        std::max({ready, qubitReady_[qa], qubitReady_[qb]});
    const TimeUs start = state_.trapTimeline(t).acquire(data_ready, dur);
    const TimeUs end = start + dur;
    qubitReady_[qa] = end;
    qubitReady_[qb] = end;

    const GateErrorBreakdown err =
        tables_->msError(phys_dur, chain_len, nbar);
    const double fid = err.fidelity();
    const double log_fid = std::log(std::max(fid, kMinFidelity));

    if (log_ != nullptr)
        log_->noteMs(t, chain_len, phys_dur);
    result_.noteMsOp(end, dur, for_comm, err.background, err.motional,
                     fid, log_fid);
    if (trace_ != nullptr) {
        PrimOp op;
        op.kind = PrimKind::GateMS;
        op.start = start;
        op.duration = dur;
        op.trap = t;
        op.q0 = qa;
        op.q1 = qb;
        op.chainLength = chain_len;
        op.separation = separation;
        op.nbar = nbar;
        op.errBackground = err.background;
        op.errMotional = err.motional;
        op.fidelity = fid;
        op.forCommunication = for_comm;
        trace_->push_back(op);
    }
    return end;
}

TimeUs
PrimitiveEmitter::emitOneQubit(QubitId q, TimeUs ready)
{
    const IonId ion = state_.ionOf(q);
    const TrapId t = state_.trapOf(ion);
    panicUnless(t != kInvalidId, "one-qubit gate on an in-flight ion");

    const TimeUs dur = tables_->gateTime().oneQubit();
    const TimeUs start = state_.trapTimeline(t).acquire(
        std::max(ready, qubitReady_[q]), dur);
    qubitReady_[q] = start + dur;

    if (log_ != nullptr)
        log_->noteOneQubit();
    recordSimple(PrimKind::Gate1Q, start, dur, t, kInvalidId, kInvalidId,
                 kInvalidId, q, false,
                 tables_->fidelity().oneQubitFidelity(),
                 tables_->logOneQubitFidelity());
    return start + dur;
}

TimeUs
PrimitiveEmitter::emitMeasure(QubitId q, TimeUs ready)
{
    const IonId ion = state_.ionOf(q);
    const TrapId t = state_.trapOf(ion);
    panicUnless(t != kInvalidId, "measurement of an in-flight ion");

    const TimeUs dur = tables_->gateTime().measure();
    const TimeUs start = state_.trapTimeline(t).acquire(
        std::max(ready, qubitReady_[q]), dur);
    qubitReady_[q] = start + dur;

    if (log_ != nullptr)
        log_->noteMeasure();
    recordSimple(PrimKind::Measure, start, dur, t, kInvalidId,
                 kInvalidId, kInvalidId, q, false,
                 tables_->fidelity().measureFidelity(),
                 tables_->logMeasureFidelity());
    return start + dur;
}

TimeUs
PrimitiveEmitter::emitSplit(TrapId t, ChainEnd end, TimeUs ready,
                            IonId *out_ion)
{
    const ChainState &chain = state_.chain(t);
    const int n = chain.size();
    panicUnless(n >= 1, "split on an empty trap");
    const IonId ion =
        end == ChainEnd::Left ? chain.ions.front() : chain.ions.back();
    const QubitId payload = state_.payloadOf(ion);

    const TimeUs dur = commDur(hw_.shuttle.split);
    const TimeUs start = state_.trapTimeline(t).acquire(
        std::max(ready, qubitReady_[payload]), dur);
    qubitReady_[payload] = start + dur;

    if (log_ != nullptr)
        log_->noteSplit(t, n - 1);
    Quanta ion_energy = 0;
    if (n == 1) {
        // Extracting the last ion: it keeps the chain energy and gains
        // the split disturbance; the empty trap holds no energy.
        ion_energy = chain.energy + heating_.k1();
        state_.setEnergy(t, 0);
    } else {
        const auto [rest, moved] =
            heating_.afterSplit(chain.energy, n - 1, 1);
        state_.setEnergy(t, rest);
        ion_energy = moved;
    }
    *out_ion = state_.detachEnd(t, end, ion_energy);
    panicUnless(*out_ion == ion, "split detached the wrong ion");

    recordSimple(PrimKind::Split, start, dur, t, kInvalidId, kInvalidId,
                 ion, payload, true, 1.0, tables_->logUnitFidelity());
    return start + dur;
}

TimeUs
PrimitiveEmitter::emitMerge(TrapId t, ChainEnd end, IonId ion,
                            TimeUs ready)
{
    const QubitId payload = state_.payloadOf(ion);
    const TimeUs dur = commDur(hw_.shuttle.merge);
    const TimeUs start = state_.trapTimeline(t).acquire(
        std::max(ready, qubitReady_[payload]), dur);
    qubitReady_[payload] = start + dur;

    if (log_ != nullptr)
        log_->noteMerge(t);
    Quanta merged = heating_.afterMerge(state_.energy(t),
                                        state_.flightEnergy(ion));
    merged *= hw_.recoolFactor;
    state_.attachEnd(t, end, ion);
    state_.setEnergy(t, merged);

    recordSimple(PrimKind::Merge, start, dur, t, kInvalidId, kInvalidId,
                 ion, payload, true, 1.0, tables_->logUnitFidelity());
    return start + dur;
}

TimeUs
PrimitiveEmitter::emitMove(EdgeId e, IonId ion, TimeUs ready)
{
    const int segments = state_.topology().edge(e).segments;
    const TimeUs dur = commDur(hw_.shuttle.movePerSegment * segments);
    const QubitId payload = state_.payloadOf(ion);
    const TimeUs start = state_.edgeTimeline(e).acquire(
        std::max(ready, qubitReady_[payload]), dur);
    qubitReady_[payload] = start + dur;

    if (log_ != nullptr)
        log_->noteMoves(segments);
    state_.setFlightEnergy(
        ion, heating_.afterMoves(state_.flightEnergy(ion), segments));
    result_.counts.segmentsMoved += segments;

    recordSimple(PrimKind::Move, start, dur, kInvalidId, e, kInvalidId,
                 ion, payload, true, 1.0, tables_->logUnitFidelity());
    return start + dur;
}

TimeUs
PrimitiveEmitter::emitJunction(NodeId n, IonId ion, TimeUs ready)
{
    const int degree = state_.topology().degree(n);
    const TimeUs dur = commDur(hw_.shuttle.junctionCrossing(degree));
    const QubitId payload = state_.payloadOf(ion);
    const TimeUs start = state_.junctionTimeline(n).acquire(
        std::max(ready, qubitReady_[payload]), dur);
    qubitReady_[payload] = start + dur;

    if (log_ != nullptr)
        log_->noteJunction();
    state_.setFlightEnergy(ion,
                           heating_.afterJunction(state_.flightEnergy(ion)));

    recordSimple(PrimKind::JunctionCross, start, dur, kInvalidId,
                 kInvalidId, n, ion, payload, true, 1.0,
                 tables_->logUnitFidelity());
    return start + dur;
}

TimeUs
PrimitiveEmitter::emitTransit(TrapId t, IonId ion, TimeUs ready)
{
    // Crossing an empty trap region is modeled as one segment of linear
    // transport: nothing to merge with, nothing to reorder.
    // afterMove(e, 1) == afterMoves(e, 1) bit for bit, so the replay
    // log records it as a one-segment move.
    if (log_ != nullptr)
        log_->noteMoves(1);
    const TimeUs dur = commDur(hw_.shuttle.movePerSegment);
    const QubitId payload = state_.payloadOf(ion);
    const TimeUs start = state_.trapTimeline(t).acquire(
        std::max(ready, qubitReady_[payload]), dur);
    qubitReady_[payload] = start + dur;

    state_.setFlightEnergy(ion,
                           heating_.afterMove(state_.flightEnergy(ion), 1));

    recordSimple(PrimKind::Transit, start, dur, t, kInvalidId,
                 kInvalidId, ion, payload, true, 1.0,
                 tables_->logUnitFidelity());
    return start + dur;
}

TimeUs
PrimitiveEmitter::emitIonSwapHop(IonId ion, ChainEnd end, TimeUs ready)
{
    const TrapId t = state_.trapOf(ion);
    const ChainState &chain = state_.chain(t);
    const int n = chain.size();
    panicUnless(n >= 2, "ion-swap hop needs at least two ions");

    // Isolate the swapping pair (split), rotate it 180 degrees, and
    // merge it back (paper Fig. 5). For a two-ion chain the pair is the
    // whole chain and no split/merge is needed.
    TimeUs t_flow = ready;
    if (n > 2) {
        // A two-ion hop (else branch) touches neither chain energy nor
        // any non-unit fidelity, so only this branch is logged.
        if (log_ != nullptr)
            log_->noteIonSwapHop(t, n);
        const TimeUs dur = commDur(hw_.shuttle.split);
        const TimeUs start =
            state_.trapTimeline(t).acquire(t_flow, dur);
        t_flow = start + dur;
        const auto [rest, pair] =
            heating_.afterSplit(chain.energy, n - 2, 2);
        // The chain is reassembled below; meanwhile track both halves
        // summed at merge time. Stash the pair share through the
        // rotation via local bookkeeping.
        recordSimple(PrimKind::Split, start, dur, t, kInvalidId,
                     kInvalidId, ion, kInvalidId, true, 1.0,
                     tables_->logUnitFidelity());

        // Rotation.
        const TimeUs rdur = commDur(hw_.shuttle.ionSwapRotation);
        const TimeUs rstart =
            state_.trapTimeline(t).acquire(t_flow, rdur);
        t_flow = rstart + rdur;
        recordSimple(PrimKind::Rotate, rstart, rdur, t, kInvalidId,
                     kInvalidId, ion, kInvalidId, true, 1.0,
                     tables_->logUnitFidelity());

        // Merge back.
        const TimeUs mdur = commDur(hw_.shuttle.merge);
        const TimeUs mstart =
            state_.trapTimeline(t).acquire(t_flow, mdur);
        t_flow = mstart + mdur;
        state_.setEnergy(t, heating_.afterMerge(rest, pair));
        recordSimple(PrimKind::Merge, mstart, mdur, t, kInvalidId,
                     kInvalidId, ion, kInvalidId, true, 1.0,
                     tables_->logUnitFidelity());
    } else {
        const TimeUs rdur = commDur(hw_.shuttle.ionSwapRotation);
        const TimeUs rstart =
            state_.trapTimeline(t).acquire(t_flow, rdur);
        t_flow = rstart + rdur;
        recordSimple(PrimKind::Rotate, rstart, rdur, t, kInvalidId,
                     kInvalidId, ion, kInvalidId, true, 1.0,
                     tables_->logUnitFidelity());
    }

    // Physically exchange the ions and release both payloads at the
    // hop's completion time.
    const QubitId pa = state_.payloadOf(ion);
    const IonId neighbour = state_.swapToward(ion, end);
    const QubitId pb = state_.payloadOf(neighbour);
    qubitReady_[pa] = std::max(qubitReady_[pa], t_flow);
    qubitReady_[pb] = std::max(qubitReady_[pb], t_flow);
    return t_flow;
}

IonId
PrimitiveEmitter::reorderToEnd(IonId ion, ChainEnd end, TimeUs ready,
                               TimeUs *out_time)
{
    const TrapId t = state_.trapOf(ion);
    panicUnless(t != kInvalidId, "reorder of an in-flight ion");
    const ChainState &chain = state_.chain(t);
    const int n = chain.size();
    const int target = end == ChainEnd::Left ? 0 : n - 1;
    int pos = state_.positionOf(ion);

    if (pos == target) {
        *out_time = ready;
        return ion;
    }

    if (hw_.reorder == ReorderMethod::GS) {
        // One SWAP gate between the ion and the chain-end ion: three MS
        // gates (paper Fig. 5), after which the logical payload lives in
        // the end ion.
        const IonId end_ion = chain.ions[target];
        const QubitId qa = state_.payloadOf(ion);
        const QubitId qb = state_.payloadOf(end_ion);
        TimeUs t_flow = ready;
        for (int k = 0; k < 3; ++k)
            t_flow = emitMs(qa, qb, t_flow, true);
        state_.swapPayloads(ion, end_ion);
        *out_time = t_flow;
        return end_ion;
    }

    // IS: hop the ion to the end one neighbour at a time.
    TimeUs t_flow = ready;
    while (pos != target) {
        t_flow = emitIonSwapHop(ion, end, t_flow);
        pos = state_.positionOf(ion);
    }
    *out_time = t_flow;
    return ion;
}

} // namespace qccd
