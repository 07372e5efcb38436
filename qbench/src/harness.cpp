/**
 * @file
 * qbench: end-to-end and per-layer benchmark of the QCCD explorer.
 *
 *   qbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * Run from the repository root (it reads examples/sweeps/fig8.sweep and
 * golden/fig8_microarch.csv, and works under .bench_build/). Each
 * invocation of a workload goes from spec text to verified rows through
 * the public entry points qccd_explore uses — parseSweepPlan,
 * SweepEngine/SweepSpecRunner, ResultStore, SweepRowWriter and
 * SearchEngine — at jobs = 1, or jobs = 4 with --trace 1. The harness
 * repeats invocations for S seconds and prints medians; with --trace 1
 * it alternates untraced and traced invocations and prints the
 * per-layer metrics instead. The last stdout line is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}.
 *
 * Workloads (see qbench/README.md for why each exists):
 *   sweep_cold    structural grid + the committed fig8 grid, fresh store
 *   knob_sweep    70 schedule keys x 300 seeded model-knob sets
 *   rerun_cached  union of both grids against a pre-filled store
 *   search        surrogate-guided search of a fixed ~1e5-point space
 */

#include <time.h>

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "arch/topo_file.hpp"
#include "benchgen/benchgen.hpp"
#include "circuit/qasm/parser.hpp"
#include "circuit/qasm/writer.hpp"
#include "circuit/stats.hpp"
#include "common/rng.hpp"
#include "compiler/mapping.hpp"
#include "compiler/scheduler.hpp"
#include "core/cost_model.hpp"
#include "core/export.hpp"
#include "core/lint.hpp"
#include "core/result_store.hpp"
#include "core/search.hpp"
#include "core/sweep_engine.hpp"
#include "core/sweep_spec.hpp"
#include "core/toolflow.hpp"
#include "sim/model_replay.hpp"

#include "inputs.hpp"
#include "spans.hpp"

namespace fs = std::filesystem;
using namespace qccd;

namespace qbench
{
namespace
{

/** Worker count of traced runs: the machine's nproc, which is what a
 *  user gets by default, so the engine's parallel layer (grouping loss,
 *  CPU utilisation) shows in the per-layer metrics. */
constexpr int kTracedJobs = 4;

/**
 * Worker count of untraced runs, which give the end-to-end metrics. The
 * machine's four vCPUs are shared with other tenants' processes, and at
 * four workers wall time followed their load: two sets of ten
 * knob_sweep runs spread by 0.19 and 0.26 of the median. In eight
 * alternating rounds of knob_sweep runs, wall time spread by 0.14 at
 * one worker, 0.22 at two and 0.36 at four.
 */
constexpr int kUntracedJobs = 1;

/** Worker count of this process, set once from --trace in main. */
int workerCount = kTracedJobs;

/** Points per workload recomputed through scalar runToolflow. */
constexpr size_t kScalarSample = 16;

/**
 * The host-speed probe's median time on the 4-vCPU VM the benchmark was
 * written on. Corrected times are seconds on a host running at that
 * speed (see printEndToEnd).
 */
constexpr double kProbeReferenceSeconds = 0.140;

enum class Kind
{
    SweepCold,
    KnobSweep,
    RerunCached,
    Search
};

// ------------------------------------------------------------ utilities

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Seconds one fixed piece of work takes: a pseudo-random fill, std::map
 * inserts and lookups, a sort, and string formatting and sorting. It is
 * the allocation, pointer chasing and sorting the explorer's layers do,
 * with none of the explorer's code, so a change to the explorer cannot
 * move it. The VM's host changes speed by up to 1.4x for minutes at a
 * time (other tenants' load on shared cores and caches): one worker's
 * 20-second medians of the same invocation ranged from 0.75 to 1.29 s,
 * CPU time alike. Invocations and this probe slow together.
 */
double
hostSpeedProbe()
{
    const Clock::time_point t0 = Clock::now();
    std::vector<uint64_t> v(400000);
    uint64_t x = 88172645463325252ULL;
    for (uint64_t &e : v) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        e = x;
    }
    std::map<uint64_t, size_t> m;
    for (size_t i = 0; i < 60000; ++i)
        m[v[i] % 1000003] = i;
    uint64_t acc = 0;
    for (size_t i = 0; i < 200000; ++i) {
        const auto it = m.find(v[i] % 1000003);
        if (it != m.end())
            acc += it->second;
    }
    std::sort(v.begin(), v.end());
    std::vector<std::string> strs;
    for (size_t i = 0; i < 50000; ++i)
        strs.push_back(std::to_string(v[i] ^ acc));
    std::sort(strs.begin(), strs.end());
    volatile size_t sink = strs.size() + static_cast<size_t>(acc);
    (void)sink;
    return secondsBetween(t0, Clock::now());
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read '" + path + "'");
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
    out.close();
    if (!out)
        throw std::runtime_error("cannot write '" + path + "'");
}

/** CSV data rows (header dropped). */
std::vector<std::string>
csvRows(const std::string &text)
{
    std::vector<std::string> rows;
    std::istringstream in(text);
    std::string line;
    bool header = true;
    while (std::getline(in, line)) {
        if (header) {
            header = false;
            continue;
        }
        rows.push_back(line);
    }
    return rows;
}

/** Bitwise equality of two results over every stored field. */
bool
sameResult(const RunResult &a, const RunResult &b)
{
    const Digest128 key{};
    return ResultStore::encodeRecordPayload(key, a) ==
           ResultStore::encodeRecordPayload(key, b);
}

SweepPoint
okPoint(const PlannedPoint &p, const RunResult &result)
{
    SweepPoint point;
    point.application = p.application;
    point.design = p.design;
    point.result = result;
    return point;
}

/** Simulated primitives of one schedule (gates, shuttle steps). */
long
primitiveCount(const SimResult &sim)
{
    const OpCounts &c = sim.counts;
    return c.totalMs() + c.oneQubit + c.measurements + c.splits + c.merges +
           c.moves + c.junctionCrossings + c.rotations;
}

// ------------------------------------------------------------ inputs

/** One spec of a workload, in row order. */
struct SpecInput
{
    std::string origin;
    std::string text;
    std::string baseDir;
};

/** The inputs of one seed, written under `dir`. */
struct InputSet
{
    std::string dir;
    std::vector<SpecInput> specs;
};

void
requireLintClean(const LintReport &report, const std::string &what)
{
    if (!report.diagnostics.empty())
        throw std::runtime_error("generated " + what +
                                 " is not lint-clean:\n" + report.toString());
}

/** Generate (twice, to prove determinism), lint and write the inputs of
 *  @p kind for @p seed. */
InputSet
prepareInputs(Kind kind, uint64_t seed, const std::string &root,
              const std::string &dir)
{
    fs::create_directories(dir);
    InputSet in;
    in.dir = dir;

    const auto twice = [](const std::function<std::string()> &gen,
                          const char *what) {
        std::string a = gen();
        if (gen() != a)
            throw std::runtime_error(
                std::string("generator is not deterministic: ") + what);
        return a;
    };

    const std::string fig8Dir = root + "/examples/sweeps";
    const SpecInput fig8{fig8Dir + "/fig8.sweep",
                         readFile(fig8Dir + "/fig8.sweep"), fig8Dir};

    if (kind == Kind::Search) {
        // The search space is fixed: no seed reaches it.
        const std::string topo =
            twice([] { return makeTopoText(0x5ea4c5ULL, "fixed6"); },
                  kFixedTopo);
        LintReport topoReport;
        lintTopoText(topo, kFixedTopo, topoReport);
        requireLintClean(topoReport, kFixedTopo);
        writeFile(dir + "/" + kFixedTopo, topo);
        writeFile(dir + "/" + kQftQasm, qasm::write(makeBenchmark("qft")));
        const std::string spec = twice(searchSpecText, "search spec");
        LintReport report;
        lintSweepText(spec, "search.sweep", dir, report);
        requireLintClean(report, "search.sweep");
        in.specs.push_back({dir + "/search.sweep", spec, dir});
        return in;
    }

    const std::string topo =
        twice([seed] { return makeTopoText(seed, "gen6"); }, kGenTopo);
    const std::string qasmText =
        twice([seed] { return makeQasmText(seed); }, kGenQasm);
    LintReport topoReport;
    lintTopoText(topo, kGenTopo, topoReport);
    requireLintClean(topoReport, kGenTopo);
    writeFile(dir + "/" + kGenTopo, topo);
    writeFile(dir + "/" + kGenQasm, qasmText);

    const auto addSpec = [&](const std::string &name,
                             const std::string &text) {
        LintReport report;
        lintSweepText(text, name, dir, report);
        requireLintClean(report, name);
        in.specs.push_back({dir + "/" + name, text, dir});
    };
    const std::string cold = twice(coldSpecText, "cold spec");
    const std::string knobs = twice(
        [seed] { return knobSpecText(makeKnobSets(seed, kKnobSets)); },
        "knob spec");

    if (kind != Kind::KnobSweep) {
        in.specs.push_back(fig8);
        addSpec("cold.sweep", cold);
    }
    if (kind != Kind::SweepCold)
        addSpec("knobs.sweep", knobs);
    return in;
}

std::vector<PlannedPoint>
expandAll(const InputSet &in)
{
    std::vector<PlannedPoint> points;
    for (const SpecInput &spec : in.specs) {
        std::vector<PlannedPoint> part =
            parseSweepPlan(spec.text, spec.origin, spec.baseDir).expand();
        points.insert(points.end(), std::make_move_iterator(part.begin()),
                      std::make_move_iterator(part.end()));
    }
    return points;
}

// ------------------------------------------------------------ results

/** Work done by one invocation; must not vary across iterations or
 *  seeds. */
struct Counters
{
    size_t points = 0;
    size_t failed = 0;
    /** Points the engine evaluated: full schedules plus replays. */
    size_t engineEvaluated = 0;
    size_t hits = 0;
    size_t misses = 0;
    size_t inserts = 0;
    size_t loaded = 0;
    size_t searchEvaluated = 0;
    size_t searchCalibration = 0;
    size_t searchRungs = 0;

    friend bool operator==(const Counters &, const Counters &) = default;

    std::string str() const
    {
        std::ostringstream s;
        s << "points=" << points << " failed=" << failed
          << " engine_evaluated=" << engineEvaluated << " hits=" << hits
          << " misses=" << misses << " inserts=" << inserts
          << " loaded=" << loaded << " search_evaluated=" << searchEvaluated
          << " calibration=" << searchCalibration
          << " rungs=" << searchRungs;
        return s.str();
    }
};

/** Rows every later invocation must reproduce byte for byte. */
struct Reference
{
    bool set = false;
    std::vector<std::string> rows;
    /** Data rows of golden/fig8_microarch.csv; they must lead the rows
     *  of workloads that include the committed fig8 grid. */
    std::vector<std::string> golden;
    /** Search: the evaluated spec indices, ascending. */
    std::vector<size_t> searchIndices;
};

struct Invocation
{
    double wall = 0;
    double setup = 0;
    double cpu = 0;
    double evalWall = 0;
    double evalCpu = 0;
    Counters counters;
    /**
     * How the engine split its points into full schedules and replays,
     * and how often it reused a placement. At jobs > 1 these depend on
     * which worker claims which span of a schedule-key group (a worker
     * that claims two adjacent spans of one group replays where another
     * would re-schedule), so they are reported, not pinned.
     * @{ */
    size_t fullSchedules = 0;
    size_t replays = 0;
    size_t placementsReused = 0;
    /** @} */
    /** Rows that differ from the reference or the golden rows. */
    size_t wrongRows = 0;
    size_t exportBytes = 0;
    size_t storeBytes = 0;
    std::vector<std::string> rows;
    std::vector<size_t> searchIndices;
};

/** Compare @p rows with the reference (when set) and the golden prefix;
 *  returns the number of wrong rows. */
size_t
checkRows(const std::vector<std::string> &rows, const Reference &ref)
{
    size_t wrong = 0;
    if (ref.set) {
        const size_t n = std::max(rows.size(), ref.rows.size());
        for (size_t i = 0; i < n; ++i)
            if (i >= rows.size() || i >= ref.rows.size() ||
                rows[i] != ref.rows[i])
                ++wrong;
    }
    for (size_t i = 0; i < ref.golden.size(); ++i)
        if (i >= rows.size() || rows[i] != ref.golden[i])
            ++wrong;
    return wrong;
}

// ------------------------------------------------- untraced invocations

/**
 * Points per engine batch: the runner's default, or (@p one_batch) the
 * whole grid in one batch — the batch `qccd_explore --search` runs when
 * its budget covers the space.
 */
size_t
batchSize(bool one_batch, size_t points)
{
    return one_batch ? std::max<size_t>(1, points)
                     : SweepSpecRunner::kDefaultBatchSize;
}

Invocation
invokeSweep(const InputSet &in, const std::string &store_path,
            const std::string &csv_path, const Reference &ref,
            bool one_batch)
{
    Invocation r;
    const Clock::time_point t0 = Clock::now();
    const double c0 = processCpuSeconds();

    const std::vector<PlannedPoint> points = expandAll(in);
    SweepEngine engine(workerCount);
    SweepSpecRunner runner(engine);
    // Front ends, lowering and contexts, so the set-up phase ends when
    // the first point reaches the engine.
    for (const PlannedPoint &p : points) {
        runner.circuitFor(p);
        engine.context(p.design);
    }
    std::unique_ptr<ResultStore> store;
    if (!store_path.empty())
        store = std::make_unique<ResultStore>(store_path);
    r.setup = secondsBetween(t0, Clock::now());

    std::ofstream out(csv_path, std::ios::binary | std::ios::trunc);
    SweepRowWriter writer(out, ExportFormat::Csv);
    SweepRunPolicy policy;
    policy.keepGoing = true;
    policy.cache = store.get();
    const Clock::time_point e0 = Clock::now();
    const double ec0 = processCpuSeconds();
    const SweepRunStats stats = runner.run(
        points, 0, [&](const SweepPoint &p) { writer.write(p); }, policy,
        batchSize(one_batch, points.size()));
    r.evalWall = secondsBetween(e0, Clock::now());
    r.evalCpu = processCpuSeconds() - ec0;
    writer.finish();
    out.close();
    if (!out)
        throw std::runtime_error("error writing '" + csv_path + "'");
    if (store != nullptr) {
        const ResultStoreStats &s = store->stats();
        r.counters.hits = s.hits;
        r.counters.misses = s.misses;
        r.counters.inserts = s.inserts;
        r.counters.loaded = s.loaded;
        store.reset();
        r.storeBytes = fs::file_size(store_path);
    }
    const std::string csv = readFile(csv_path);
    r.exportBytes = csv.size();
    r.rows = csvRows(csv);
    r.wrongRows = checkRows(r.rows, ref);
    r.wall = secondsBetween(t0, Clock::now());
    r.cpu = processCpuSeconds() - c0;

    r.counters.points = points.size();
    r.counters.failed = stats.failed;
    r.counters.engineEvaluated = stats.fullSchedules + stats.replays;
    r.fullSchedules = stats.fullSchedules;
    r.replays = stats.replays;
    r.placementsReused = engine.deltaStats().placementsReused;
    return r;
}

SearchOptions
searchOptions(const SweepPlan &plan)
{
    SearchOptions opts;
    opts.budget = plan.search.budget;
    opts.seed = plan.search.seed;
    opts.eta = plan.search.eta;
    opts.policy.keepGoing = true;
    return opts;
}

Invocation
invokeSearch(const InputSet &in, const std::string &csv_path,
             const Reference &ref)
{
    Invocation r;
    const Clock::time_point t0 = Clock::now();
    const double c0 = processCpuSeconds();
    const SpecInput &spec = in.specs.front();
    const SweepPlan plan =
        parseSweepPlan(spec.text, spec.origin, spec.baseDir);
    SweepEngine engine(workerCount);
    engine.nativeBenchmark("qft");
    r.setup = secondsBetween(t0, Clock::now());

    const Clock::time_point e0 = Clock::now();
    const double ec0 = processCpuSeconds();
    SearchEngine search(engine);
    const SearchOutcome outcome =
        search.run(PlanSearchSpace(plan), searchOptions(plan));
    r.evalWall = secondsBetween(e0, Clock::now());
    r.evalCpu = processCpuSeconds() - ec0;

    std::ofstream out(csv_path, std::ios::binary | std::ios::trunc);
    SweepRowWriter writer(out, ExportFormat::Csv);
    for (const SearchEvaluation &ev : outcome.evaluations) {
        writer.write(ev.point);
        r.searchIndices.push_back(ev.index);
    }
    writer.finish();
    out.close();
    if (!out)
        throw std::runtime_error("error writing '" + csv_path + "'");
    const std::string csv = readFile(csv_path);
    r.exportBytes = csv.size();
    r.rows = csvRows(csv);
    r.wrongRows = checkRows(r.rows, ref);
    if (ref.set && r.searchIndices != ref.searchIndices)
        r.wrongRows = std::max<size_t>(r.wrongRows, 1);
    r.wall = secondsBetween(t0, Clock::now());
    r.cpu = processCpuSeconds() - c0;

    const SearchStats &s = outcome.stats;
    r.counters.points = s.evaluated;
    r.counters.failed = s.run.failed;
    r.counters.engineEvaluated = s.run.fullSchedules + s.run.replays;
    r.fullSchedules = s.run.fullSchedules;
    r.replays = s.run.replays;
    r.placementsReused = engine.deltaStats().placementsReused;
    r.counters.searchEvaluated = s.evaluated;
    r.counters.searchCalibration = s.calibration;
    r.counters.searchRungs = s.rungs;
    return r;
}

// --------------------------------------------------- traced invocations

/** Lowered circuits of one traced invocation, keyed like the runner's
 *  caches (builtin name or QASM path). */
using NativeMap = std::map<std::string, std::shared_ptr<const Circuit>>;

std::string
appKey(const PlannedPoint &p)
{
    return p.qasmPath.empty() ? p.application : "qasm:" + p.qasmPath;
}

/** Generate or parse, then lower, the application of @p p once. */
void
traceFrontEnd(SpanRecorder &rec, const PlannedPoint &p, NativeMap &natives)
{
    const std::string key = appKey(p);
    if (natives.count(key))
        return;
    const Circuit circuit = [&] {
        if (p.qasmPath.empty()) {
            ScopedSpan s(rec, "benchgen.generate");
            return makeBenchmark(p.application);
        }
        ScopedSpan s(rec, "qasm.parse");
        return qasm::parseFile(p.qasmPath);
    }();
    ScopedSpan s(rec, "circuit.lower");
    natives[key] = SweepEngine::lower(circuit);
}

/** Parse each distinct `.topo` file a point set names. */
void
traceTopoFiles(SpanRecorder &rec, const std::vector<PlannedPoint> &points)
{
    std::set<std::string> seen;
    for (const PlannedPoint &p : points) {
        const std::string &spec = p.design.topologySpec;
        if (spec.rfind("topo:", 0) != 0 || !seen.insert(spec).second)
            continue;
        ScopedSpan s(rec, "topo_file.parse");
        loadTopoFile(spec.substr(5), p.design.trapCapacity);
    }
}

struct Traced
{
    double wall = 0;
    size_t wrongRows = 0;
    /** search.run duration (search only), for search.eval_share. */
    double searchRunSeconds = 0;
};

/**
 * One traced sweep invocation: the same work as invokeSweep, with the
 * runner's cache loop (lookup, engine batch, insert, row export) driven
 * from here so each public call gets its own span.
 */
Traced
tracedSweep(const InputSet &in, const std::string &store_path,
            const std::string &csv_path, const Reference &ref,
            bool one_batch, Clock::time_point epoch, TraceLog &log,
            NativeMap &natives, std::vector<PlannedPoint> &points)
{
    Traced r;
    SpanRecorder rec(0, 0, epoch);
    const Clock::time_point t0 = Clock::now();
    const size_t root = rec.open("bench.invocation");
    {
        ScopedSpan s(rec, "sweep_spec.parse");
        points = expandAll(in);
    }
    for (const PlannedPoint &p : points)
        traceFrontEnd(rec, p, natives);
    SweepEngine engine(workerCount);
    {
        std::set<ContextKey> seen;
        for (const PlannedPoint &p : points)
            if (seen.insert(ToolflowContext::cacheKey(p.design)).second) {
                ScopedSpan s(rec, "toolflow.context");
                engine.context(p.design);
            }
    }
    std::unique_ptr<ResultStore> store;
    std::map<const Circuit *, Digest128> digests;
    if (!store_path.empty()) {
        ScopedSpan s(rec, "result_store.open");
        store = std::make_unique<ResultStore>(store_path);
    }

    std::ofstream out(csv_path, std::ios::binary | std::ios::trunc);
    SweepRowWriter writer(out, ExportFormat::Csv);
    const size_t batch = batchSize(one_batch, points.size());
    for (size_t start = 0; start < points.size(); start += batch) {
        const size_t end = std::min(points.size(), start + batch);
        std::vector<SweepJob> jobs;
        std::vector<SweepPoint> resolved(end - start);
        std::vector<size_t> slot(end - start, SIZE_MAX);
        std::vector<Digest128> keys(end - start);
        for (size_t i = start; i < end; ++i) {
            const PlannedPoint &p = points[i];
            SweepJob job{p.application, natives.at(appKey(p)), p.design,
                         p.options};
            if (store != nullptr) {
                ScopedSpan s(rec, "result_store.lookup", i + 1);
                auto d = digests.find(job.native.get());
                if (d == digests.end())
                    d = digests
                            .emplace(job.native.get(),
                                     ResultStore::circuitDigest(*job.native))
                            .first;
                keys[i - start] =
                    ResultStore::keyFor(p.design, p.options, d->second);
                if (std::optional<RunResult> hit =
                        store->lookup(keys[i - start])) {
                    resolved[i - start] = okPoint(p, *hit);
                    continue;
                }
            }
            slot[i - start] = jobs.size();
            jobs.push_back(std::move(job));
        }
        std::vector<SweepPoint> results;
        if (!jobs.empty()) {
            ScopedSpan s(rec, "sweep_engine.run");
            results = engine.run(jobs, FailurePolicy::Isolate);
        }
        for (size_t i = start; i < end; ++i) {
            const size_t k = slot[i - start];
            const SweepPoint &point =
                k == SIZE_MAX ? resolved[i - start] : results[k];
            if (k != SIZE_MAX && store != nullptr && point.ok()) {
                ScopedSpan s(rec, "result_store.insert", i + 1);
                store->insert(keys[i - start], point.result);
            }
            ScopedSpan s(rec, "export.row", i + 1);
            writer.write(point);
        }
    }
    writer.finish();
    out.close();
    if (store != nullptr) {
        ScopedSpan s(rec, "result_store.close");
        store.reset();
    }
    r.wrongRows = checkRows(csvRows(readFile(csv_path)), ref);
    r.wall = secondsBetween(t0, Clock::now());
    rec.close(root);
    log.merge(rec);
    return r;
}

Traced
tracedSearch(const InputSet &in, const std::string &csv_path,
             const Reference &ref, Clock::time_point epoch, TraceLog &log,
             SweepPlan &plan)
{
    Traced r;
    SpanRecorder rec(0, 0, epoch);
    const Clock::time_point t0 = Clock::now();
    const size_t root = rec.open("bench.invocation");
    const SpecInput &spec = in.specs.front();
    {
        ScopedSpan s(rec, "sweep_spec.parse");
        plan = parseSweepPlan(spec.text, spec.origin, spec.baseDir);
    }
    SweepEngine engine(workerCount);
    {
        ScopedSpan s(rec, "sweep_engine.native");
        engine.nativeBenchmark("qft");
    }
    SearchOutcome outcome;
    {
        const Clock::time_point s0 = Clock::now();
        ScopedSpan s(rec, "search.run");
        SearchEngine search(engine);
        outcome = search.run(PlanSearchSpace(plan), searchOptions(plan));
        r.searchRunSeconds = secondsBetween(s0, Clock::now());
    }
    std::ofstream out(csv_path, std::ios::binary | std::ios::trunc);
    SweepRowWriter writer(out, ExportFormat::Csv);
    std::vector<size_t> indices;
    for (const SearchEvaluation &ev : outcome.evaluations) {
        ScopedSpan s(rec, "export.row", ev.index + 1);
        writer.write(ev.point);
        indices.push_back(ev.index);
    }
    writer.finish();
    out.close();
    r.wrongRows = checkRows(csvRows(readFile(csv_path)), ref);
    if (indices != ref.searchIndices)
        r.wrongRows = std::max<size_t>(r.wrongRows, 1);
    r.wall = secondsBetween(t0, Clock::now());
    rec.close(root);
    log.merge(rec);
    return r;
}

// --------------------------------------------------------- layer probe

/** One point the layer probe evaluates, with the row it must give. */
struct ProbeJob
{
    const PlannedPoint *point = nullptr;
    std::shared_ptr<const Circuit> native;
    const std::string *row = nullptr;
};

struct ProbeResult
{
    size_t wrong = 0;
    long primitives = 0;
    double reevalSeconds = 0;
};

/**
 * Evaluate @p jobs through each layer's public functions, timing each
 * call: StagedToolflow::run (full vs replay told apart by its stats
 * delta; every full schedule is then re-run to prove it replays
 * identically), mapQubits, both scheduler passes, replayModelEval, the
 * analytic cost model, a fresh result store (insert then lookup) and
 * row formatting. Every path must reproduce the reference row.
 *
 * Jobs are grouped by schedule key and spread over workerCount threads
 * the way the sweep engine spreads a batch.
 */
ProbeResult
layerProbe(const std::vector<ProbeJob> &jobs, const std::string &store_path,
           bool parse_topos, Clock::time_point epoch, TraceLog &log)
{
    ProbeResult out;
    SpanRecorder rec(0, 1, epoch);
    const size_t root = rec.open("bench.probe");
    if (parse_topos) {
        std::vector<PlannedPoint> points;
        for (const ProbeJob &job : jobs)
            points.push_back(*job.point);
        traceTopoFiles(rec, points);
    }

    std::map<ContextKey, std::shared_ptr<const ToolflowContext>> contexts;
    std::vector<const ToolflowContext *> ctx(jobs.size());
    std::map<const Circuit *, CircuitStats> circuitStats;
    std::map<ContextKey, TopologyFeatures> features;
    const AnalyticCostModel model;
    for (size_t i = 0; i < jobs.size(); ++i) {
        const DesignPoint &design = jobs[i].point->design;
        const ContextKey key = ToolflowContext::cacheKey(design);
        auto c = contexts.find(key);
        if (c == contexts.end()) {
            ScopedSpan s(rec, "toolflow.context");
            c = contexts
                    .emplace(key,
                             std::make_shared<const ToolflowContext>(design))
                    .first;
            features.emplace(key,
                             extractTopologyFeatures(c->second->topology()));
        }
        ctx[i] = c->second.get();
        auto st = circuitStats.find(jobs[i].native.get());
        if (st == circuitStats.end())
            st = circuitStats
                     .emplace(jobs[i].native.get(),
                              computeStats(*jobs[i].native))
                     .first;
        ScopedSpan s(rec, "cost_model.predict", i + 1);
        model.predict(design, st->second, features.at(key));
    }

    // The engine's evaluation order: schedule-key groups in first
    // appearance order, each split into at most workerCount contiguous
    // spans.
    std::vector<size_t> order;
    std::vector<std::pair<size_t, size_t>> spans;
    {
        std::map<ScheduleKey, size_t> groupOf;
        std::vector<std::vector<size_t>> groups;
        for (size_t i = 0; i < jobs.size(); ++i) {
            const auto [it, inserted] = groupOf.emplace(
                scheduleKeyFor(*jobs[i].native, jobs[i].point->design,
                               jobs[i].point->options),
                groups.size());
            if (inserted)
                groups.emplace_back();
            groups[it->second].push_back(i);
        }
        for (const std::vector<size_t> &g : groups) {
            const size_t chunk = std::max<size_t>(
                1, (g.size() + workerCount - 1) /
                       static_cast<size_t>(workerCount));
            for (size_t off = 0; off < g.size(); off += chunk) {
                const size_t len = std::min(chunk, g.size() - off);
                spans.emplace_back(order.size(), order.size() + len);
                order.insert(order.end(), g.begin() + off,
                             g.begin() + off + len);
            }
        }
    }

    std::vector<RunResult> results(jobs.size());
    std::atomic<size_t> nextSpan{0};
    std::atomic<size_t> wrong{0};
    std::atomic<long> primitives{0};
    std::vector<SpanRecorder> recorders;
    for (int w = 0; w < workerCount; ++w)
        recorders.emplace_back(static_cast<uint32_t>(w + 1), 1, epoch);
    std::vector<std::exception_ptr> errors(workerCount);

    const auto worker = [&](size_t w) {
        SpanRecorder &wr = recorders[w];
        const size_t wroot = wr.open("bench.probe_worker");
        try {
            StagedToolflow staged;
            SchedulerScratch scratch;
            ModelEvalLog modelLog;
            RunResult base;
            const auto stagedRun = [&](size_t i) {
                const ProbeJob &job = jobs[i];
                const size_t before = staged.stats().fullSchedules;
                size_t h = 0;
                RunResult res;
                {
                    ScopedSpan sp(wr, "toolflow.run", i + 1);
                    h = sp.handle();
                    res = staged.run(*job.native, job.point->design,
                                     *ctx[i], job.point->options);
                }
                const bool full = staged.stats().fullSchedules != before;
                wr.rename(h, full ? "toolflow.full" : "toolflow.replay");
                return std::make_pair(res, full);
            };
            for (size_t s = nextSpan.fetch_add(1); s < spans.size();
                 s = nextSpan.fetch_add(1)) {
                for (size_t k = spans[s].first; k < spans[s].second; ++k) {
                    const size_t i = order[k];
                    const PlannedPoint &p = *jobs[i].point;
                    const HardwareParams &hw = p.design.hw;
                    auto [res, full] = stagedRun(i);
                    results[i] = res;
                    if (full) {
                        // Same point again: must replay, identically.
                        auto [again, againFull] = stagedRun(i);
                        if (againFull || !sameResult(again, res))
                            ++wrong;
                        InitialMapping placement;
                        {
                            ScopedSpan sp(wr, "mapping.place", i + 1);
                            placement = mapQubits(
                                *jobs[i].native, ctx[i]->topology(),
                                hw.bufferSlots, p.options.mappingPolicy);
                        }
                        modelLog.clear();
                        RunResult layered;
                        {
                            ScopedSpan sp(wr, "scheduler.pass1", i + 1);
                            ScheduleOptions so;
                            so.collectTrace = p.options.collectTrace;
                            so.mappingPolicy = p.options.mappingPolicy;
                            so.placement = &placement;
                            so.modelLog = &modelLog;
                            Scheduler sched(*jobs[i].native,
                                            ctx[i]->topology(), hw,
                                            ctx[i]->paths(), so, &scratch);
                            layered.sim = sched.run().metrics;
                        }
                        primitives += primitiveCount(layered.sim);
                        if (p.options.decomposeRuntime) {
                            ScopedSpan sp(wr, "scheduler.zero_comm", i + 1);
                            ScheduleOptions so;
                            so.collectTrace = false;
                            so.zeroCommTimes = true;
                            so.mappingPolicy = p.options.mappingPolicy;
                            so.placement = &placement;
                            Scheduler sched(*jobs[i].native,
                                            ctx[i]->topology(), hw,
                                            ctx[i]->paths(), so, &scratch);
                            layered.computeOnlyTime =
                                sched.run().metrics.makespan;
                        }
                        if (!sameResult(layered, res))
                            ++wrong;
                        base = layered;
                    }
                    RunResult replayed = base;
                    {
                        ScopedSpan sp(wr, "model_replay.replay", i + 1);
                        replayed.sim =
                            replayModelEval(modelLog, hw, base.sim);
                    }
                    if (!sameResult(replayed, res))
                        ++wrong;
                }
            }
        } catch (...) {
            errors[w] = std::current_exception();
        }
        wr.close(wroot);
    };
    rec.close(root);
    {
        std::vector<std::thread> pool;
        for (size_t w = 0; w < static_cast<size_t>(workerCount); ++w)
            pool.emplace_back(worker, w);
        for (std::thread &t : pool)
            t.join();
    }
    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);
    for (const SpanRecorder &wr : recorders)
        log.merge(wr);

    const size_t root2 = rec.open("bench.probe");
    {
        fs::remove(store_path);
        std::unique_ptr<ResultStore> store;
        {
            ScopedSpan s(rec, "result_store.open");
            store = std::make_unique<ResultStore>(store_path);
        }
        std::map<const Circuit *, Digest128> digests;
        std::vector<Digest128> keys(jobs.size());
        for (size_t i = 0; i < jobs.size(); ++i) {
            const PlannedPoint &p = *jobs[i].point;
            auto d = digests.find(jobs[i].native.get());
            if (d == digests.end())
                d = digests
                        .emplace(jobs[i].native.get(),
                                 ResultStore::circuitDigest(*jobs[i].native))
                        .first;
            keys[i] = ResultStore::keyFor(p.design, p.options, d->second);
            ScopedSpan s(rec, "result_store.insert", i + 1);
            store->insert(keys[i], results[i]);
        }
        for (size_t i = 0; i < jobs.size(); ++i) {
            std::optional<RunResult> back;
            {
                ScopedSpan s(rec, "result_store.lookup", i + 1);
                back = store->lookup(keys[i]);
            }
            if (!back || !sameResult(*back, results[i]))
                ++wrong;
        }
        for (size_t i = 0; i < jobs.size(); ++i) {
            const PlannedPoint &p = *jobs[i].point;
            std::string row;
            {
                ScopedSpan s(rec, "export.row", i + 1);
                row = sweepCsvRow(okPoint(p, results[i]));
            }
            if (row != *jobs[i].row)
                ++wrong;
        }
        ScopedSpan s(rec, "result_store.close");
        store.reset();
    }
    rec.close(root2);
    log.merge(rec);
    out.wrong = wrong;
    out.primitives = primitives;
    return out;
}

/** The search's own layers, timed from outside: the space's two front
 *  ends and its device file, the analytic prior of every point of the
 *  space, and one engine batch re-evaluating the points the search
 *  evaluated. Fills @p natives for the layer probe. */
ProbeResult
searchProbe(const SweepPlan &plan, const std::string &topo_path,
            NativeMap &natives, const Reference &ref,
            Clock::time_point epoch, TraceLog &log)
{
    ProbeResult out;
    SpanRecorder rec(0, 1, epoch);
    const size_t root = rec.open("bench.probe");
    for (const SweepGrid &grid : plan.grids)
        traceFrontEnd(rec, grid.point(0), natives);
    {
        ScopedSpan s(rec, "topo_file.parse");
        loadTopoFile(topo_path,
                     plan.grids.front().point(0).design.trapCapacity);
    }
    const AnalyticCostModel model;
    std::map<const Circuit *, CircuitStats> circuitStats;
    std::map<std::pair<std::string, int>, TopologyFeatures> features;
    for (size_t i = 0; i < plan.size(); ++i) {
        PlannedPoint p;
        {
            ScopedSpan s(rec, "sweep_spec.point", i + 1);
            p = plan.point(i);
        }
        const Circuit *native = natives.at(appKey(p)).get();
        auto st = circuitStats.find(native);
        if (st == circuitStats.end())
            st = circuitStats.emplace(native, computeStats(*native)).first;
        const std::pair<std::string, int> arch{p.design.topologySpec,
                                               p.design.trapCapacity};
        auto f = features.find(arch);
        if (f == features.end()) {
            ScopedSpan s(rec, "toolflow.context");
            const ToolflowContext context(p.design);
            f = features
                    .emplace(arch, extractTopologyFeatures(context.topology()))
                    .first;
        }
        ScopedSpan s(rec, "cost_model.predict", i + 1);
        model.predict(p.design, st->second, f->second);
    }

    std::vector<PlannedPoint> points;
    for (const size_t index : ref.searchIndices)
        points.push_back(plan.point(index));
    const Clock::time_point r0 = Clock::now();
    {
        ScopedSpan s(rec, "search.reeval");
        SweepEngine engine(workerCount);
        SweepSpecRunner runner(engine);
        size_t at = 0;
        SweepRunPolicy policy;
        policy.keepGoing = true;
        runner.run(
            points, 0,
            [&](const SweepPoint &p) {
                if (at >= ref.rows.size() || sweepCsvRow(p) != ref.rows[at])
                    ++out.wrong;
                ++at;
            },
            policy, std::max<size_t>(1, points.size()));
    }
    out.reevalSeconds = secondsBetween(r0, Clock::now());
    rec.close(root);
    log.merge(rec);
    return out;
}

// ---------------------------------------------------- scalar cross-check

/** Recompute a seeded sample of points through scalar runToolflow on the
 *  unlowered circuit; returns the number of rows that differ. */
size_t
scalarCheck(const std::vector<PlannedPoint> &points,
            const std::vector<std::string> &rows, uint64_t seed)
{
    if (points.size() != rows.size())
        return rows.size() + 1;
    Rng rng(seed ^ 0x7363616c6172ULL);
    size_t wrong = 0;
    for (size_t k = 0; k < kScalarSample && !points.empty(); ++k) {
        const size_t i = rng.nextBelow(points.size());
        const PlannedPoint &p = points[i];
        const Circuit circuit = p.qasmPath.empty()
                                    ? makeBenchmark(p.application)
                                    : qasm::parseFile(p.qasmPath);
        const RunResult res = runToolflow(circuit, p.design, p.options);
        if (sweepCsvRow(okPoint(p, res)) != rows[i])
            ++wrong;
    }
    return wrong;
}

// ------------------------------------------------------ command line

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "qbench: %s\nusage: qbench --workload "
                 "sweep_cold|knob_sweep|rerun_cached|search --seed N "
                 "--seconds S --trace 0|1\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveSeed = false;
    bool haveSeconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        char *end = nullptr;
        errno = 0;
        if (flag == "--workload") {
            a.workload = value;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(value.c_str(), &end, 10);
            haveSeed = true;
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(value.c_str(), &end);
            haveSeconds = true;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            a.trace = value == "1";
        } else {
            usage("unknown flag " + flag);
        }
        if (end != nullptr && (*end != '\0' || errno != 0))
            usage("bad value for " + flag + ": " + value);
    }
    if (a.workload.empty() || !haveSeed || !haveSeconds)
        usage("--workload, --seed and --seconds are required");
    if (!(a.seconds > 0) || a.seconds > 600)
        usage("--seconds must be in (0, 600]");
    return a;
}

Kind
kindOf(const std::string &name)
{
    if (name == "sweep_cold")
        return Kind::SweepCold;
    if (name == "knob_sweep")
        return Kind::KnobSweep;
    if (name == "rerun_cached")
        return Kind::RerunCached;
    if (name == "search")
        return Kind::Search;
    usage("unknown workload '" + name + "'");
}

/** Removes the run's scratch directory on every exit path. */
struct ScratchDir
{
    std::string path;
    explicit ScratchDir(std::string p) : path(std::move(p))
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~ScratchDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;
};

/** One workload run in one process. */
class Bench
{
  public:
    Bench(Kind kind, const Args &args, std::string root, std::string work)
        : kind_(kind), args_(args), root_(std::move(root)),
          work_(std::move(work))
    {
    }

    int run();

  private:
    bool usesStore() const
    {
        return kind_ == Kind::SweepCold || kind_ == Kind::RerunCached;
    }

    /**
     * knob_sweep runs its grid as one engine batch, the batch
     * `qccd_explore --search` runs when its budget covers the space. In
     * 64-point batches each batch is a single schedule key that the
     * engine splits into four fixed spans at four workers, so one vCPU
     * slowed by the host stalls every batch. One batch lets the workers
     * balance 280 spans instead.
     */
    bool oneBatch() const { return kind_ == Kind::KnobSweep; }

    /** Make the store an invocation starts from (before its clock). */
    void resetStore(const std::string &path) const
    {
        fs::remove(path);
        if (kind_ == Kind::RerunCached)
            fs::copy_file(pristine_, path);
    }

    Invocation invoke(const InputSet &in, const Reference &ref)
    {
        const std::string store = work_ + "/run.qcache";
        if (kind_ == Kind::Search)
            return invokeSearch(in, work_ + "/rows.csv", ref);
        if (usesStore())
            resetStore(store);
        return invokeSweep(in, usesStore() ? store : "",
                           work_ + "/rows.csv", ref, oneBatch());
    }

    /** Fill a store with one cold pass over @p in (rerun_cached). */
    Invocation fillStore(const InputSet &in, const std::string &path,
                         const Reference &ref)
    {
        fs::remove(path);
        return invokeSweep(in, path, work_ + "/fill.csv", ref, false);
    }

    void note(const std::string &what)
    {
        std::cout << "check failed: " << what << "\n";
        correct_ = false;
    }

    void tracedIteration(const InputSet &in, const Reference &ref);
    void printEndToEnd(const std::vector<Invocation> &runs);
    void printPerLayer(const std::vector<Invocation> &runs);

    Kind kind_;
    Args args_;
    std::string root_;
    std::string work_;
    std::string pristine_;
    Counters refCounters_;
    /** Structure counts of the workload's points. @{ */
    size_t distinctKeys_ = 0;
    size_t contexts_ = 0;
    size_t nativeGates_ = 0;
    /** @} */
    bool correct_ = true;
    size_t attempted_ = 0;
    size_t failed_ = 0;
    /** Untraced runs: host-speed probe times; probes_[i] ran just
     *  before untraced invocation i and probes_[i + 1] just after. */
    std::vector<double> probes_;
    /** Peak resident memory before the first probe ran: the probe's
     *  own allocations moved the untraced knob_sweep peak by up to 8 MB
     *  from run to run. */
    double peakRssMb_ = 0;

    /** Per traced iteration. @{ */
    std::vector<double> tracedWall_;
    std::vector<double> coverage_;
    std::vector<std::map<std::string, SpanTotals>> phase0_;
    std::vector<std::map<std::string, SpanTotals>> phase1_;
    std::vector<long> primitives_;
    std::vector<double> evalShare_;
    TraceLog lastLog_;
    /** @} */
};

void
Bench::tracedIteration(const InputSet &in, const Reference &ref)
{
    TraceLog log;
    const Clock::time_point epoch = Clock::now();
    NativeMap natives;
    Traced t;
    ProbeResult probe;
    const std::string csv = work_ + "/traced.csv";
    if (kind_ == Kind::Search) {
        SweepPlan plan;
        t = tracedSearch(in, csv, ref, epoch, log, plan);
        probe = searchProbe(plan, in.dir + "/" + kFixedTopo, natives, ref,
                            epoch, log);
        std::vector<PlannedPoint> points;
        for (const size_t index : ref.searchIndices)
            points.push_back(plan.point(index));
        std::vector<ProbeJob> jobs;
        for (size_t i = 0; i < points.size(); ++i)
            jobs.push_back({&points[i], natives.at(appKey(points[i])),
                            &ref.rows[i]});
        const ProbeResult layers =
            layerProbe(jobs, work_ + "/probe.qcache", false, epoch, log);
        probe.wrong += layers.wrong;
        probe.primitives = layers.primitives;
        evalShare_.push_back(probe.reevalSeconds / t.searchRunSeconds);
    } else {
        const std::string store = work_ + "/run.qcache";
        if (usesStore())
            resetStore(store);
        std::vector<PlannedPoint> points;
        t = tracedSweep(in, usesStore() ? store : "", csv, ref, oneBatch(),
                        epoch, log, natives, points);
        std::vector<ProbeJob> jobs;
        for (size_t i = 0; i < points.size(); ++i)
            jobs.push_back({&points[i], natives.at(appKey(points[i])),
                            &ref.rows[i]});
        probe = layerProbe(jobs, work_ + "/probe.qcache", true, epoch, log);
        evalShare_.push_back(0.0);
    }
    attempted_ += ref.rows.size();
    failed_ += t.wrongRows;
    if (t.wrongRows != 0)
        note("traced rows differ from untraced rows");
    if (probe.wrong != 0)
        note("layer probe disagrees with the engine on " +
             std::to_string(probe.wrong) + " results");
    tracedWall_.push_back(t.wall);
    coverage_.push_back(log.coverage());
    phase0_.push_back(log.totals(0));
    phase1_.push_back(log.totals(1));
    primitives_.push_back(probe.primitives);
    lastLog_ = std::move(log);
}

void
printJson(bool correct, size_t attempted, size_t failed,
          const std::vector<std::tuple<std::string, double, std::string>>
              &metrics)
{
    std::ostringstream j;
    j << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const auto &[name, value, unit] = metrics[i];
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g",
                      std::isfinite(value) ? value : 0.0);
        j << (i ? ", " : "") << "\"" << name << "\": {\"value\": " << buf
          << ", \"unit\": \"" << unit << "\"}";
    }
    j << "}}";
    std::cout << j.str() << std::endl;
}

/**
 * The time metrics are host-speed corrected: each invocation's times are
 * scaled by kProbeReferenceSeconds ÷ the mean of the probes run just
 * before and after it, and the medians of the scaled times are reported.
 * Ten 25-second knob_sweep runs spread by 0.23 of the median in raw wall
 * time and by 0.06 in corrected wall time. The raw medians are printed
 * on the line before the JSON.
 */
void
Bench::printEndToEnd(const std::vector<Invocation> &runs)
{
    std::vector<double> wall, setup, cpu, rawWall, rawSetup, rawCpu;
    for (size_t i = 0; i < runs.size(); ++i) {
        const Invocation &r = runs[i];
        const double scale = kProbeReferenceSeconds /
                             (0.5 * (probes_[i] + probes_[i + 1]));
        wall.push_back(r.wall * scale);
        setup.push_back(r.setup * scale);
        cpu.push_back(r.cpu * scale);
        rawWall.push_back(r.wall);
        rawSetup.push_back(r.setup);
        rawCpu.push_back(r.cpu);
    }
    const double w = median(wall);
    const double s = median(setup);
    const double points = static_cast<double>(refCounters_.points);
    std::cout << "invocations=" << runs.size() << " fail_rate="
              << (attempted_ ? static_cast<double>(failed_) /
                                   static_cast<double>(attempted_)
                             : 0.0)
              << "\nraw medians: wall_s=" << median(rawWall)
              << " setup_s=" << median(rawSetup)
              << " cpu_s=" << median(rawCpu)
              << " probe_s=" << median(probes_) << "\n";
    printJson(correct_ && failed_ == 0, attempted_, failed_,
              {{"wall_s", w, "s"},
               {"setup_s", s, "s"},
               {"points_per_s", points / (w - s), "1/s"},
               {"cpu_s", median(cpu), "s"},
               {"peak_rss_mb", peakRssMb_, "MB"}});
}

void
Bench::printPerLayer(const std::vector<Invocation> &runs)
{
    // A layer's time comes from the traced invocation when it ran
    // there, otherwise from the layer probe.
    const auto pick = [&](size_t i, const std::string &name) {
        auto it = phase0_[i].find(name);
        if (it != phase0_[i].end())
            return it->second;
        it = phase1_[i].find(name);
        return it != phase1_[i].end() ? it->second : SpanTotals{};
    };
    const auto totalMs = [&](const std::string &name) {
        std::vector<double> v;
        for (size_t i = 0; i < phase0_.size(); ++i)
            v.push_back(static_cast<double>(pick(i, name).selfNs) / 1e6);
        return median(v);
    };
    const auto perCallUs = [&](const std::string &name) {
        std::vector<double> v;
        for (size_t i = 0; i < phase0_.size(); ++i) {
            const SpanTotals t = pick(i, name);
            v.push_back(t.calls ? static_cast<double>(t.selfNs) / 1e3 /
                                      static_cast<double>(t.calls)
                                : 0.0);
        }
        return median(v);
    };
    std::vector<double> nsPerPrim, overhead, util;
    for (size_t i = 0; i < phase0_.size(); ++i)
        nsPerPrim.push_back(
            primitives_[i] > 0
                ? static_cast<double>(pick(i, "scheduler.pass1").selfNs) /
                      static_cast<double>(primitives_[i])
                : 0.0);
    std::vector<double> untracedWall, reused, full, replays;
    for (const Invocation &r : runs) {
        untracedWall.push_back(r.wall);
        full.push_back(static_cast<double>(r.fullSchedules));
        replays.push_back(static_cast<double>(r.replays));
        reused.push_back(static_cast<double>(r.placementsReused));
        util.push_back(r.evalCpu / (workerCount * r.evalWall));
    }
    const double uw = median(untracedWall);
    const double tw = median(tracedWall_);

    const Invocation &last = runs.back();
    const Counters &c = refCounters_;
    const auto count = [](size_t v) { return static_cast<double>(v); };

    std::cout << "untraced invocations=" << runs.size()
              << " traced invocations=" << tracedWall_.size() << "\n";
    printJson(
        correct_ && failed_ == 0, attempted_, failed_,
        {{"sweep_spec.parse_ms", totalMs("sweep_spec.parse"), "ms"},
         {"qasm.parse_ms", totalMs("qasm.parse"), "ms"},
         {"topo_file.parse_ms", totalMs("topo_file.parse"), "ms"},
         {"benchgen.generate_ms", totalMs("benchgen.generate"), "ms"},
         {"circuit.lower_ms", totalMs("circuit.lower"), "ms"},
         {"circuit.native_gates", count(nativeGates_), "count"},
         {"toolflow.context_ms", totalMs("toolflow.context"), "ms"},
         {"toolflow.contexts", count(contexts_), "count"},
         {"result_store.open_ms", totalMs("result_store.open"), "ms"},
         {"result_store.loaded", count(c.loaded), "count"},
         {"toolflow.full_us", perCallUs("toolflow.full"), "us"},
         {"mapping.place_us", perCallUs("mapping.place"), "us"},
         {"scheduler.pass1_ms", totalMs("scheduler.pass1"), "ms"},
         {"scheduler.zero_comm_ms", totalMs("scheduler.zero_comm"), "ms"},
         {"scheduler.ns_per_prim", median(nsPerPrim), "ns"},
         {"toolflow.full_schedules", median(full), "count"},
         {"toolflow.placements_reused", median(reused), "count"},
         {"toolflow.replay_us", perCallUs("toolflow.replay"), "us"},
         {"model_replay.replay_us", perCallUs("model_replay.replay"), "us"},
         {"toolflow.replays", median(replays), "count"},
         {"sweep_engine.redundant_schedules",
          median(full) - count(distinctKeys_), "count"},
         {"sweep_engine.cpu_util", median(util), "ratio"},
         {"result_store.lookup_us", perCallUs("result_store.lookup"), "us"},
         {"result_store.hits", count(c.hits), "count"},
         {"result_store.misses", count(c.misses), "count"},
         {"result_store.insert_us", perCallUs("result_store.insert"), "us"},
         {"result_store.inserts", count(c.inserts), "count"},
         {"result_store.bytes", count(last.storeBytes), "bytes"},
         {"export.row_us", perCallUs("export.row"), "us"},
         {"export.bytes", count(last.exportBytes), "bytes"},
         {"cost_model.predict_us", perCallUs("cost_model.predict"), "us"},
         {"search.evaluated", count(c.searchEvaluated), "count"},
         {"search.calibration", count(c.searchCalibration), "count"},
         {"search.rungs", count(c.searchRungs), "count"},
         {"search.eval_share", median(evalShare_), "ratio"},
         {"trace.overhead_frac", (tw - uw) / uw, "ratio"},
         {"trace.coverage", median(coverage_), "ratio"}});
}

int
Bench::run()
{
    const Clock::time_point start = Clock::now();
    Reference ref;
    if (kind_ == Kind::SweepCold || kind_ == Kind::RerunCached)
        ref.golden = csvRows(readFile(root_ + "/golden/fig8_microarch.csv"));

    const InputSet in =
        prepareInputs(kind_, args_.seed, root_, work_ + "/inputs");

    Counters fillCounters;
    if (kind_ == Kind::RerunCached) {
        pristine_ = work_ + "/filled.qcache";
        const Invocation fill = fillStore(in, pristine_, ref);
        fillCounters = fill.counters;
        if (fill.counters.failed != 0 || fill.wrongRows != 0)
            note("cold fill pass failed or broke the golden rows");
        // Warm rows must equal the cold rows that filled the store.
        ref.rows = fill.rows;
        ref.set = true;
    }

    // Reference invocation (also warms the allocator and page cache).
    Invocation first = invoke(in, ref);
    if (!ref.set) {
        ref.rows = first.rows;
        ref.searchIndices = first.searchIndices;
        ref.set = true;
    }
    refCounters_ = first.counters;
    if (first.wrongRows != 0)
        note("reference invocation rows are wrong (" +
             std::to_string(first.wrongRows) + ")");

    // Structure counts the untraced stats do not carry.
    {
        std::vector<PlannedPoint> points;
        if (kind_ == Kind::Search) {
            const SpecInput &spec = in.specs.front();
            const SweepPlan plan =
                parseSweepPlan(spec.text, spec.origin, spec.baseDir);
            for (const size_t index : ref.searchIndices)
                points.push_back(plan.point(index));
        } else {
            points = expandAll(in);
        }
        SweepEngine engine(1);
        SweepSpecRunner runner(engine);
        std::set<ScheduleKey> keys;
        std::set<ContextKey> contexts;
        std::set<const Circuit *> circuits;
        for (const PlannedPoint &p : points) {
            const std::shared_ptr<const Circuit> native =
                runner.circuitFor(p);
            keys.insert(scheduleKeyFor(*native, p.design, p.options));
            contexts.insert(ToolflowContext::cacheKey(p.design));
            circuits.insert(native.get());
        }
        // Store hits never reach the engine, so no key was scheduled.
        distinctKeys_ =
            refCounters_.engineEvaluated == 0 ? 0 : keys.size();
        contexts_ = contexts.size();
        nativeGates_ = 0;
        for (const Circuit *circuit : circuits)
            nativeGates_ += circuit->size();
        const size_t wrong = scalarCheck(points, ref.rows, args_.seed);
        if (wrong != 0) {
            failed_ += wrong;
            attempted_ += kScalarSample;
            note("scalar runToolflow disagrees on " + std::to_string(wrong) +
                 " sampled rows");
        }
    }

    // Work invariance across seeds: the next seed's inputs must give
    // exactly the same counts (the search space takes no seed). For
    // rerun_cached the cold pass that fills the store is compared; its
    // rerun is all hits by construction.
    if (kind_ != Kind::Search) {
        const InputSet other = prepareInputs(kind_, args_.seed + 1, root_,
                                             work_ + "/inputs-other");
        Reference otherRef;
        otherRef.golden = ref.golden;
        const bool rerun = kind_ == Kind::RerunCached;
        const Counters mine = rerun ? fillCounters : refCounters_;
        const Invocation o =
            rerun ? fillStore(other, work_ + "/other.qcache", otherRef)
                  : invoke(other, otherRef);
        if (!(o.counters == mine) || o.wrongRows != 0)
            note("work counters differ across seeds:\n  seed " +
                 std::to_string(args_.seed) + ": " + mine.str() +
                 "\n  seed " + std::to_string(args_.seed + 1) + ": " +
                 o.counters.str());
    }

    std::cout << "workload=" << args_.workload << " seed=" << args_.seed
              << " setup_phase_s=" << secondsBetween(start, Clock::now())
              << "\ncounters: " << refCounters_.str() << "\n";

    // Measurement: untraced invocations (alternating with traced ones
    // under --trace 1) until the time is used, at least 3 untraced.
    std::vector<Invocation> runs;
    if (!args_.trace) {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        peakRssMb_ = static_cast<double>(ru.ru_maxrss) / 1024.0;
        hostSpeedProbe(); // warm-up
        probes_.push_back(hostSpeedProbe());
    }
    const Clock::time_point m0 = Clock::now();
    while (runs.size() < 3 ||
           secondsBetween(m0, Clock::now()) < args_.seconds) {
        Invocation r = invoke(in, ref);
        if (!args_.trace)
            probes_.push_back(hostSpeedProbe());
        attempted_ += r.counters.points;
        failed_ += r.counters.failed + r.wrongRows;
        if (!(r.counters == refCounters_))
            note("work counters changed between iterations: " +
                 r.counters.str());
        if (r.fullSchedules < distinctKeys_)
            note("fewer full schedules than distinct schedule keys");
        // Only the timings and counts are kept: the rows are checked.
        r.rows.clear();
        r.rows.shrink_to_fit();
        runs.push_back(std::move(r));
        if (args_.trace)
            tracedIteration(in, ref);
    }
    const auto [lo, hi] = std::minmax_element(
        runs.begin(), runs.end(), [](const Invocation &x, const Invocation &y) {
            return x.fullSchedules < y.fullSchedules;
        });
    std::cout << "full schedules: " << lo->fullSchedules << ".."
              << hi->fullSchedules << " over " << distinctKeys_
              << " distinct schedule keys\n";
    if (args_.trace) {
        lastLog_.write(root_ + "/.bench_build/qbench-" + args_.workload +
                       ".spans.tsv");
        printPerLayer(runs);
    } else {
        printEndToEnd(runs);
    }
    return 0;
}

} // namespace
} // namespace qbench

int
main(int argc, char **argv)
{
    using namespace qbench;
    const Args args = parseArgs(argc, argv);
    const Kind kind = kindOf(args.workload);
    workerCount = args.trace ? kTracedJobs : kUntracedJobs;
    try {
        const std::string root = fs::current_path().string();
        if (!fs::exists(root + "/examples/sweeps/fig8.sweep") ||
            !fs::exists(root + "/golden/fig8_microarch.csv"))
            throw std::runtime_error(
                "run from the repository root (examples/ and golden/ "
                "are missing)");
        ScratchDir work(root + "/.bench_build/qbench-work-" +
                        std::to_string(::getpid()));
        Bench bench(kind, args, root, work.path);
        return bench.run();
    } catch (const std::exception &err) {
        std::fprintf(stderr, "qbench: %s\n", err.what());
        return 1;
    }
}
