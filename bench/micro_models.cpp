/**
 * @file
 * google-benchmark microbenchmarks: throughput of the physical models,
 * the OpenQASM parser, workload generation, and the full compile +
 * simulate toolflow. These verify the simulator itself is fast enough
 * for large design-space sweeps (hundreds of runs per figure).
 */

#include <benchmark/benchmark.h>

#include "arch/builders.hpp"
#include "arch/path.hpp"
#include "benchgen/benchgen.hpp"
#include "circuit/decompose.hpp"
#include "circuit/qasm/parser.hpp"
#include "circuit/qasm/writer.hpp"
#include "compiler/scheduler.hpp"
#include "core/sweep_engine.hpp"
#include "core/sweep_spec.hpp"
#include "core/toolflow.hpp"
#include "models/model_tables.hpp"
#include "sim/isa.hpp"
#include "sim/model_replay.hpp"

namespace
{

using namespace qccd;

void
BM_GateTimeModel(benchmark::State &state)
{
    const GateTimeModel model(GateImpl::FM);
    int d = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(model.twoQubit(1 + d % 19, 20));
        ++d;
    }
}
BENCHMARK(BM_GateTimeModel);

void
BM_FidelityModel(benchmark::State &state)
{
    const FidelityModel model;
    double nbar = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(model.twoQubitError(200.0, 20, nbar));
        nbar += 0.01;
    }
}
BENCHMARK(BM_FidelityModel);

void
BM_PathFinderConstruction(benchmark::State &state)
{
    const Topology topo = makeGrid(2, static_cast<int>(state.range(0)),
                                   20);
    for (auto _ : state) {
        PathFinder finder(topo, PathCost{});
        benchmark::DoNotOptimize(finder.cost(0, topo.trapCount() - 1));
    }
}
BENCHMARK(BM_PathFinderConstruction)->Arg(3)->Arg(8)->Arg(16);

void
BM_QasmParse(benchmark::State &state)
{
    const std::string text = qasm::write(makeQft(32));
    for (auto _ : state) {
        const Circuit c = qasm::parse(text);
        benchmark::DoNotOptimize(c.size());
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations()) * text.size());
}
BENCHMARK(BM_QasmParse);

void
BM_GenerateSupremacy(benchmark::State &state)
{
    for (auto _ : state) {
        const Circuit c = makeSupremacy(8, 8, 560);
        benchmark::DoNotOptimize(c.size());
    }
}
BENCHMARK(BM_GenerateSupremacy);

void
BM_DecomposeQft(benchmark::State &state)
{
    const Circuit qft = makeQft(64);
    for (auto _ : state) {
        const Circuit native = decomposeToNative(qft);
        benchmark::DoNotOptimize(native.size());
    }
}
BENCHMARK(BM_DecomposeQft);

void
BM_ScheduleQft(benchmark::State &state)
{
    const Circuit native = decomposeToNative(
        makeQft(static_cast<int>(state.range(0))));
    const Topology topo = makeLinear(6, 22);
    HardwareParams hw;
    for (auto _ : state) {
        ScheduleOptions sched_options;
        sched_options.collectTrace = false;
        Scheduler sched(native, topo, hw, sched_options);
        benchmark::DoNotOptimize(sched.run().metrics.makespan);
    }
}
BENCHMARK(BM_ScheduleQft)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);

void
BM_FullToolflowSupremacy(benchmark::State &state)
{
    const Circuit app = makeBenchmark("supremacy");
    const DesignPoint dp = DesignPoint::linear(6, 22);
    for (auto _ : state) {
        const RunResult r = runToolflow(app, dp);
        benchmark::DoNotOptimize(r.fidelity());
    }
}
BENCHMARK(BM_FullToolflowSupremacy)->Unit(benchmark::kMillisecond);

void
BM_ToolflowSharedContext(benchmark::State &state)
{
    // Same workload as BM_FullToolflowSupremacy minus the per-run
    // lowering and Topology/PathFinder construction: the gap between
    // the two is the fixed cost the SweepEngine caches away per point.
    const Circuit native = decomposeToNative(makeBenchmark("supremacy"));
    const DesignPoint dp = DesignPoint::linear(6, 22);
    const ToolflowContext context(dp);
    for (auto _ : state) {
        const RunResult r = runToolflow(native, dp, context);
        benchmark::DoNotOptimize(r.fidelity());
    }
}
BENCHMARK(BM_ToolflowSharedContext)->Unit(benchmark::kMillisecond);

void
BM_ToolflowPoint(benchmark::State &state)
{
    // One design point exactly as a sweep worker evaluates it: shared
    // lowered circuit and ToolflowContext, pooled SchedulerScratch,
    // and the two-pass runtime decomposition (the Fig. 6 workload).
    // This is the per-point number the >= 2x PR-3 target is measured
    // on; scripts/run_benches.sh exports it as toolflow_point_us.
    const Circuit native = decomposeToNative(makeBenchmark("supremacy"));
    const DesignPoint dp = DesignPoint::linear(6, 22);
    const ToolflowContext context(dp);
    RunOptions options;
    options.decomposeRuntime = true;
    SchedulerScratch scratch;
    for (auto _ : state) {
        const RunResult r =
            runToolflow(native, dp, context, options, &scratch);
        benchmark::DoNotOptimize(r.fidelity());
    }
}
BENCHMARK(BM_ToolflowPoint)->Unit(benchmark::kMillisecond);

void
BM_ModelTablesLookup(benchmark::State &state)
{
    HardwareParams hw;
    const auto tables = ModelTables::shared(hw, 30);
    int d = 1;
    for (auto _ : state) {
        const int sep = 1 + d % 19;
        benchmark::DoNotOptimize(tables->twoQubit(sep, 20));
        benchmark::DoNotOptimize(tables->scaleFactorA(20));
        ++d;
    }
}
BENCHMARK(BM_ModelTablesLookup);

void
BM_WriteIsa(benchmark::State &state)
{
    const Circuit c = makeBenchmarkSized("squareroot", 20);
    const ScheduleResult r =
        runToolflowDetailed(c, DesignPoint::linear(3, 10));
    size_t bytes = 0;
    for (auto _ : state) {
        const std::string text = writeIsa(r.trace);
        bytes = text.size();
        benchmark::DoNotOptimize(text.data());
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(bytes));
}
BENCHMARK(BM_WriteIsa);

void
BM_ParseIsa(benchmark::State &state)
{
    const Circuit c = makeBenchmarkSized("squareroot", 20);
    const ScheduleResult r =
        runToolflowDetailed(c, DesignPoint::linear(3, 10));
    const std::string text = writeIsa(r.trace);
    for (auto _ : state) {
        const Trace parsed = parseIsa(text);
        benchmark::DoNotOptimize(parsed.size());
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_ParseIsa);

void
BM_SweepEngineBatch(benchmark::State &state)
{
    // An 18-point capacity sweep through the engine; Arg is the worker
    // count, so Arg(1) vs Arg(4) shows the parallel win on multi-core.
    // Each iteration lowers the apps afresh on a new engine.
    const int jobs = static_cast<int>(state.range(0));
    const std::vector<PlannedPoint> points = parseSweepSpec(R"({
        "name": "engine_batch",
        "sweeps": [{"apps": ["bv", "adder", "supremacy"],
                    "capacity": [14, 18, 22, 26, 30, 34]}]
    })").points;
    for (auto _ : state) {
        SweepEngine engine(jobs);
        const auto rows = SweepSpecRunner(engine).collect(
            points, {}, nullptr, 0, points.size());
        benchmark::DoNotOptimize(rows.size());
    }
}
BENCHMARK(BM_SweepEngineBatch)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void
BM_SweepDelta(benchmark::State &state)
{
    // The staged toolflow's delta-evaluation win, on the shape of
    // examples/sweeps/sensitivity_fidelity.sweep: 2 apps x 2 gate
    // implementations x 5 co-varied model-knob sets = 20 points but
    // only 4 distinct schedule keys. A serial engine must schedule
    // once per key and replay the rest; the counters (exported to
    // BENCH_SUMMARY.json by scripts/run_benches.sh) pin the >= 2x
    // fewer-full-schedules acceptance target. Each iteration runs the
    // same batch on a fresh engine, so the counters are per-iteration
    // averages: exactly 20/4/16 however many iterations run.
    struct Knobs
    {
        double gamma;
        double kappa;
    };
    const Knobs knobs[] = {{0.5, 2.5e-6},
                           {1.0, 5e-6},
                           {2.0, 1e-5},
                           {5.0, 2.5e-5},
                           {10.0, 5e-5}};
    std::vector<SweepJob> jobs;
    SweepEngine seed(1);
    for (const char *app : {"qft", "supremacy"}) {
        const auto native = seed.nativeBenchmark(app);
        for (GateImpl gate : {GateImpl::FM, GateImpl::AM1}) {
            for (const Knobs &k : knobs) {
                SweepJob job;
                job.application = app;
                job.native = native;
                job.design = DesignPoint::linear(6, 22, gate);
                job.design.hw.gammaPerS = k.gamma;
                job.design.hw.kappa = k.kappa;
                jobs.push_back(std::move(job));
            }
        }
    }

    size_t points = 0;
    size_t full = 0;
    size_t replays = 0;
    for (auto _ : state) {
        SweepEngine engine(1);
        const auto results = engine.run(jobs);
        benchmark::DoNotOptimize(results.size());
        points += results.size();
        full += engine.deltaStats().fullSchedules;
        replays += engine.deltaStats().replays;
    }
    const auto perIteration = [](size_t total) {
        return benchmark::Counter(static_cast<double>(total),
                                  benchmark::Counter::kAvgIterations);
    };
    state.counters["points"] = perIteration(points);
    state.counters["full_schedules"] = perIteration(full);
    state.counters["replays"] = perIteration(replays);
}
BENCHMARK(BM_SweepDelta)->Unit(benchmark::kMillisecond);

void
BM_ModelReplay(benchmark::State &state)
{
    // One model-knob point served by replay instead of a schedule: the
    // 64-qubit qft on linear:6 at capacity 18 (FM), its recorded log
    // re-evaluated under a rotating set of model knobs.
    // scripts/run_benches.sh exports it as model_replay_us.
    const Circuit native = decomposeToNative(makeBenchmark("qft"));
    const Topology topo = makeLinear(6, 18);
    const HardwareParams hw;
    ModelEvalLog log;
    ScheduleOptions options;
    options.collectTrace = false;
    options.modelLog = &log;
    Scheduler sched(native, topo, hw, options);
    const SimResult base = sched.run().metrics;

    std::vector<HardwareParams> knobs;
    for (int v = 0; v < 8; ++v) {
        HardwareParams k = hw;
        k.gammaPerS = 0.5 + 0.25 * v;
        k.kappa = 2.5e-6 * (1 + v);
        k.heatingK1 = 0.05 + 0.02 * v;
        k.heatingK2 = 0.005 + 0.002 * v;
        k.recoolFactor = 1.0 - 0.1 * v;
        k.oneQubitError = 1e-5 * (1 + v);
        k.measureError = 5e-4 * (1 + v);
        knobs.push_back(k);
    }
    size_t i = 0;
    for (auto _ : state) {
        const SimResult r =
            replayModelEval(log, knobs[i++ % knobs.size()], base);
        benchmark::DoNotOptimize(r.logFidelity);
    }
}
BENCHMARK(BM_ModelReplay)->Unit(benchmark::kMicrosecond);

} // namespace
