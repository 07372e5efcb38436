/**
 * @file
 * Tests for the parallel sweep engine: worker-count determinism, the
 * shared-context fast path agreeing with the uncached toolflow, job
 * resolution, and cache behaviour.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>

#include "benchgen/benchgen.hpp"
#include "circuit/decompose.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/sweep_engine.hpp"

namespace qccd
{
namespace
{

/** Field-by-field exact equality of two run results. */
void
expectIdenticalResults(const RunResult &a, const RunResult &b,
                       const std::string &what)
{
    EXPECT_EQ(a.sim.makespan, b.sim.makespan) << what;
    EXPECT_EQ(a.sim.logFidelity, b.sim.logFidelity) << what;
    EXPECT_EQ(a.sim.zeroFidelityOps, b.sim.zeroFidelityOps) << what;
    EXPECT_EQ(a.sim.maxChainEnergy, b.sim.maxChainEnergy) << what;
    EXPECT_EQ(a.sim.sumBackgroundError, b.sim.sumBackgroundError) << what;
    EXPECT_EQ(a.sim.sumMotionalError, b.sim.sumMotionalError) << what;
    EXPECT_EQ(a.sim.computeBusy, b.sim.computeBusy) << what;
    EXPECT_EQ(a.sim.commBusy, b.sim.commBusy) << what;
    EXPECT_EQ(a.sim.effectiveBuffer, b.sim.effectiveBuffer) << what;
    EXPECT_EQ(a.computeOnlyTime, b.computeOnlyTime) << what;

    const OpCounts &ca = a.sim.counts;
    const OpCounts &cb = b.sim.counts;
    EXPECT_EQ(ca.algorithmMs, cb.algorithmMs) << what;
    EXPECT_EQ(ca.reorderMs, cb.reorderMs) << what;
    EXPECT_EQ(ca.oneQubit, cb.oneQubit) << what;
    EXPECT_EQ(ca.measurements, cb.measurements) << what;
    EXPECT_EQ(ca.splits, cb.splits) << what;
    EXPECT_EQ(ca.merges, cb.merges) << what;
    EXPECT_EQ(ca.moves, cb.moves) << what;
    EXPECT_EQ(ca.segmentsMoved, cb.segmentsMoved) << what;
    EXPECT_EQ(ca.junctionCrossings, cb.junctionCrossings) << what;
    EXPECT_EQ(ca.rotations, cb.rotations) << what;
    EXPECT_EQ(ca.transits, cb.transits) << what;
    EXPECT_EQ(ca.shuttles, cb.shuttles) << what;
    EXPECT_EQ(ca.evictions, cb.evictions) << what;
    EXPECT_EQ(ca.trapPassThroughs, cb.trapPassThroughs) << what;
}

void
expectIdenticalPoints(const std::vector<SweepPoint> &a,
                      const std::vector<SweepPoint> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].application, b[i].application);
        EXPECT_EQ(a[i].design.label(), b[i].design.label());
        EXPECT_EQ(a[i].outcome, b[i].outcome) << a[i].design.label();
        EXPECT_EQ(a[i].error, b[i].error) << a[i].design.label();
        if (a[i].ok() && b[i].ok())
            expectIdenticalResults(a[i].result, b[i].result,
                                   a[i].design.label());
    }
}

/** A small mixed batch: two apps, two topologies, decompose pass on. */
std::vector<SweepJob>
smallBatch()
{
    std::vector<SweepJob> jobs;
    RunOptions options;
    options.decomposeRuntime = true;
    for (const char *app : {"qft", "qaoa"}) {
        const auto native =
            SweepEngine::lower(makeBenchmarkSized(app, 16));
        for (const std::string &spec : {std::string("linear:4"),
                                        std::string("grid:2x2")}) {
            for (int cap : {6, 8}) {
                SweepJob job;
                job.application = app;
                job.native = native;
                job.design.topologySpec = spec;
                job.design.trapCapacity = cap;
                job.options = options;
                jobs.push_back(std::move(job));
            }
        }
    }
    return jobs;
}

TEST(SweepEngine, DeterministicAcrossWorkerCounts)
{
    SweepEngine serial(1);
    SweepEngine four(4);
    SweepEngine hardware(static_cast<int>(std::max(
        1u, std::thread::hardware_concurrency())));

    const auto jobs = smallBatch();
    const auto a = serial.run(jobs);
    const auto b = four.run(jobs);
    const auto c = hardware.run(jobs);

    ASSERT_EQ(a.size(), 8u);
    expectIdenticalPoints(a, b);
    expectIdenticalPoints(a, c);
}

TEST(SweepEngine, RepeatedRunsOnOneEngineAreIdentical)
{
    SweepEngine engine(4);
    const auto jobs = smallBatch();
    expectIdenticalPoints(engine.run(jobs), engine.run(jobs));
}

TEST(SweepEngine, CachedAndUncachedToolflowAgreeForEveryAppAndGate)
{
    // The regression the caches must never introduce: for every
    // application x gate implementation, the shared-context fast path
    // must equal a from-scratch runToolflow bit for bit.
    SweepEngine engine;
    RunOptions options;
    options.decomposeRuntime = true;
    for (const BenchmarkSpec &spec : benchmarkList()) {
        const Circuit app = makeBenchmarkSized(spec.name, 16);
        const auto native = SweepEngine::lower(app);
        for (GateImpl gate : {GateImpl::AM1, GateImpl::AM2, GateImpl::PM,
                              GateImpl::FM}) {
            DesignPoint dp = DesignPoint::linear(4, 8, gate);
            const RunResult uncached = runToolflow(app, dp, options);
            const RunResult cached = runToolflow(
                *native, dp, *engine.context(dp), options);
            expectIdenticalResults(uncached, cached,
                                   spec.name + " " + dp.label());
        }
    }
}

TEST(SweepEngine, ContextCacheKeySeparatesArchitectures)
{
    const DesignPoint a = DesignPoint::linear(6, 22);
    DesignPoint b = a;
    EXPECT_EQ(ToolflowContext::cacheKey(a), ToolflowContext::cacheKey(b));

    // Gate implementation and reorder method do not touch the
    // architecture: contexts are shared across them.
    b.hw.gateImpl = GateImpl::AM1;
    b.hw.reorder = ReorderMethod::IS;
    EXPECT_EQ(ToolflowContext::cacheKey(a), ToolflowContext::cacheKey(b));

    // Topology, capacity, and shuttle timings do.
    DesignPoint c = a;
    c.trapCapacity = 14;
    EXPECT_NE(ToolflowContext::cacheKey(a), ToolflowContext::cacheKey(c));
    DesignPoint d = a;
    d.topologySpec = "grid:2x3";
    EXPECT_NE(ToolflowContext::cacheKey(a), ToolflowContext::cacheKey(d));
    DesignPoint e = a;
    e.hw.shuttle.movePerSegment = 7.5;
    EXPECT_NE(ToolflowContext::cacheKey(a), ToolflowContext::cacheKey(e));
}

TEST(SweepEngine, ContextsAreSharedPerArchitecture)
{
    SweepEngine engine(1);
    const DesignPoint fm = DesignPoint::linear(6, 22, GateImpl::FM);
    const DesignPoint am1 = DesignPoint::linear(6, 22, GateImpl::AM1);
    EXPECT_EQ(engine.context(fm).get(), engine.context(am1).get());

    const DesignPoint other = DesignPoint::linear(6, 14);
    EXPECT_NE(engine.context(fm).get(), engine.context(other).get());
}

TEST(SweepEngine, NativeBenchmarkIsLoweredOncePerApp)
{
    SweepEngine engine(1);
    const auto first = engine.nativeBenchmark("bv");
    const auto second = engine.nativeBenchmark("bv");
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(first->size(),
              decomposeToNative(makeBenchmark("bv")).size());
}

TEST(SweepEngine, ResolveJobsPrefersExplicitThenEnvThenHardware)
{
    EXPECT_EQ(SweepEngine::resolveJobs(3), 3);

    ASSERT_EQ(setenv("QCCD_JOBS", "5", 1), 0);
    EXPECT_EQ(SweepEngine::resolveJobs(0), 5);
    EXPECT_EQ(SweepEngine::resolveJobs(2), 2);

    ASSERT_EQ(unsetenv("QCCD_JOBS"), 0);
    EXPECT_GE(SweepEngine::resolveJobs(0), 1);
}

TEST(SweepEngineDeathTest, ResolveJobsRejectsMalformedEnv)
{
    // A set but broken QCCD_JOBS is a usage error (exit 2 with a
    // pointed diagnostic), never a silent hardware-concurrency
    // fallback: std::atoi used to turn "garbage" into a surprise
    // core count and "4x" into 4.
    for (const char *bad :
         {"garbage", "4x", "0", "-2", "", " 4", "99999999999999999999"}) {
        ASSERT_EQ(setenv("QCCD_JOBS", bad, 1), 0);
        EXPECT_EXIT(SweepEngine::resolveJobs(0),
                    testing::ExitedWithCode(2), "bad QCCD_JOBS")
            << "value: '" << bad << "'";
    }
    ASSERT_EQ(unsetenv("QCCD_JOBS"), 0);
}

/**
 * The staged toolflow's whole contract: evaluating a batch through the
 * engine (which groups by schedule key and replays model logs) must be
 * bit-identical to evaluating every point from scratch with scalar
 * runToolflow, for any worker count and any batch composition. Random
 * grids mix pure model-knob axes (replay candidates) with
 * schedule-affecting axes (gate implementation, capacity, reorder,
 * placement policy) so both the reuse and the invalidation edges are
 * exercised. A junction device makes the replay heat ions crossing
 * junctions; a hostile knob set drives MS fidelity to <= 0 (the
 * zeroFidelityOps count and the kMinFidelity clamp); recool factor 0
 * lies outside (0, 1], so both paths must reject it identically,
 * whether it falls on a group's full schedule or on a replay.
 */
TEST(SweepEngine, StagedEvaluationMatchesScalarToolflowOnRandomGrids)
{
    Rng rng(0x5eedc0de);
    const char *apps[] = {"qft", "qaoa", "bv", "adder"};
    // Points that exercised each newly covered replay path.
    long junction_points = 0;
    long zero_fidelity_points = 0;
    long rejected_points = 0;

    for (int trial = 0; trial < 30; ++trial) {
        const char *app = apps[rng.nextInt(0, 3)];
        const auto native =
            SweepEngine::lower(makeBenchmarkSized(app, 12));

        const int device = rng.nextInt(0, 2);
        const DesignPoint base = device == 0   ? DesignPoint::linear(4, 8)
                                 : device == 1 ? DesignPoint::linear(3, 10)
                                               : DesignPoint::grid(2, 2, 8);

        std::vector<DesignPoint> designs{base};
        const auto expand = [&designs](int count, const auto &apply) {
            std::vector<DesignPoint> out;
            for (const DesignPoint &d : designs)
                for (int v = 0; v < count; ++v) {
                    DesignPoint e = d;
                    apply(e, v);
                    out.push_back(e);
                }
            designs = std::move(out);
        };

        // One or two pure model-knob axes (the replay fast path)...
        const int model_axes = rng.nextInt(1, 2);
        for (int a = 0; a < model_axes; ++a) {
            switch (rng.nextInt(0, 4)) {
            case 0:
                expand(rng.nextInt(2, 3), [](DesignPoint &d, int v) {
                    d.hw.gammaPerS = 1.0 + 0.75 * v;
                });
                break;
            case 1:
                expand(2, [](DesignPoint &d, int v) {
                    d.hw.heatingK1 = 0.1 + 0.05 * v;
                    d.hw.heatingK2 = 0.01 + 0.005 * v;
                });
                break;
            case 2:
                expand(2, [](DesignPoint &d, int v) {
                    d.hw.kappa = 5e-6 * (1 + v);
                    d.hw.oneQubitError = 3e-5 * (1 + 2 * v);
                });
                break;
            case 3:
                expand(3, [](DesignPoint &d, int v) {
                    d.hw.measureError = 1e-3 * (1 + v);
                    d.hw.recoolFactor = v == 0 ? 1.0 : v == 1 ? 0.5 : 0.0;
                });
                break;
            default:
                // Hostile models: many MS errors reach 1 (fidelity 0).
                expand(2, [](DesignPoint &d, int v) {
                    d.hw.kappa = v == 0 ? 5e-6 : 0.05;
                    d.hw.gammaPerS = v == 0 ? 1.0 : 2000.0;
                });
                break;
            }
        }
        // ...sometimes crossed with a schedule-affecting axis (forces
        // full re-schedules between key groups).
        switch (rng.nextInt(0, 3)) {
        case 0:
            expand(2, [](DesignPoint &d, int v) {
                d.hw.gateImpl = v == 0 ? GateImpl::FM : GateImpl::AM1;
            });
            break;
        case 1:
            expand(2, [](DesignPoint &d, int v) {
                d.trapCapacity = 8 + 2 * v;
            });
            break;
        case 2:
            expand(2, [](DesignPoint &d, int v) {
                d.hw.reorder = v == 0 ? ReorderMethod::GS
                                      : ReorderMethod::IS;
            });
            break;
        default:
            break; // model knobs only: the whole grid is one key group
        }

        RunOptions options;
        options.decomposeRuntime = rng.nextBool();
        options.mappingPolicy = rng.nextBool() ? MappingPolicy::Packed
                                               : MappingPolicy::Balanced;

        std::vector<SweepJob> jobs;
        for (const DesignPoint &d : designs) {
            SweepJob job;
            job.application = app;
            job.native = native;
            job.design = d;
            job.options = options;
            jobs.push_back(std::move(job));
        }

        SweepEngine serial(1);
        SweepEngine four(4);
        const auto a = serial.run(jobs, FailurePolicy::Isolate);
        const auto b = four.run(jobs, FailurePolicy::Isolate);
        expectIdenticalPoints(a, b);

        // A sharded evaluation (two halves on fresh engines) must
        // union to the same rows: replay never leaks across shard
        // boundaries.
        const size_t half = jobs.size() / 2;
        SweepEngine lo(2);
        SweepEngine hi(2);
        const auto first = lo.run(
            {jobs.begin(), jobs.begin() + static_cast<long>(half)},
            FailurePolicy::Isolate);
        const auto second = hi.run(
            {jobs.begin() + static_cast<long>(half), jobs.end()},
            FailurePolicy::Isolate);
        ASSERT_EQ(first.size() + second.size(), a.size());
        std::vector<SweepPoint> shards = first;
        shards.insert(shards.end(), second.begin(), second.end());
        expectIdenticalPoints(a, shards);

        // Scalar reference: every point from scratch, no staging.
        const bool replayed = serial.deltaStats().replays > 0;
        for (size_t i = 0; i < jobs.size(); ++i) {
            const std::string what =
                "trial " + std::to_string(trial) + " point " +
                std::to_string(i) + " " + a[i].design.label();
            const ToolflowContext context(jobs[i].design);
            RunResult scalar;
            try {
                scalar = runToolflow(*jobs[i].native, jobs[i].design,
                                     context, jobs[i].options);
            } catch (const ConfigError &err) {
                EXPECT_EQ(a[i].outcome, PointOutcome::Infeasible) << what;
                EXPECT_EQ(a[i].error, err.what()) << what;
                ++rejected_points;
                continue;
            }
            ASSERT_TRUE(a[i].ok()) << what << ": " << a[i].error;
            expectIdenticalResults(a[i].result, scalar, what);
            if (replayed && scalar.sim.counts.junctionCrossings > 0)
                ++junction_points;
            if (replayed && scalar.sim.zeroFidelityOps > 0)
                ++zero_fidelity_points;
        }
    }
    EXPECT_GT(junction_points, 0);
    EXPECT_GT(zero_fidelity_points, 0);
    EXPECT_GT(rejected_points, 0);
}

TEST(SweepEngine, ModelKnobOnlyAxesCollapseToOneScheduleKeyGroup)
{
    // gateImpl axis (2 schedule keys) x gamma axis (5 model values):
    // a serial engine must schedule exactly once per key group and
    // replay everything else.
    SweepEngine engine(1);
    const auto native = SweepEngine::lower(makeBenchmarkSized("qft", 12));
    std::vector<SweepJob> jobs;
    for (GateImpl gate : {GateImpl::FM, GateImpl::AM1}) {
        for (int v = 0; v < 5; ++v) {
            SweepJob job;
            job.application = "qft";
            job.native = native;
            job.design = DesignPoint::linear(4, 8, gate);
            job.design.hw.gammaPerS = 1.0 + 0.5 * v;
            jobs.push_back(std::move(job));
        }
    }
    engine.run(jobs);
    EXPECT_EQ(engine.deltaStats().fullSchedules, 2u);
    EXPECT_EQ(engine.deltaStats().replays, 8u);
}

TEST(SweepEngine, PropagatesJobErrorsAfterFinishingTheBatch)
{
    SweepEngine engine(2);
    std::vector<SweepJob> jobs;
    SweepJob bad;
    bad.application = "qft";
    bad.native = SweepEngine::lower(makeBenchmarkSized("qft", 16));
    bad.design = DesignPoint::linear(2, 4); // capacity 8 < 16 qubits
    jobs.push_back(bad);
    EXPECT_THROW(engine.run(jobs), ConfigError);
}

TEST(SweepEngine, RejectsJobsWithoutLoweredCircuit)
{
    SweepEngine engine(1);
    std::vector<SweepJob> jobs(1);
    jobs[0].application = "empty";
    jobs[0].design = DesignPoint::linear(2, 6);
    EXPECT_THROW(engine.run(jobs), ConfigError);
}

} // namespace
} // namespace qccd
