/**
 * @file
 * Declarative sweep specifications: every design-space scenario is a
 * file. The figure benches, `qccd_explore --sweep`/`--search` and the
 * built-in `--recommend` space all run specs.
 *
 * A `.sweep` file is a small JSON document (hand-rolled parser, no
 * dependencies; `#` comments and trailing commas are allowed) that
 * declares one or more cross-product grids over the toolflow's inputs:
 *
 *     {
 *       "name": "fig6_trap_sizing",        # output stem
 *       "sweeps": [{
 *         "apps": ["adder", "qft"],        # builtin or "qasm:FILE"
 *         "topology": "linear:6",
 *         "capacity": [14, 18, 22],
 *         "gate": "FM",                    # AM1 | AM2 | PM | FM
 *         "reorder": "GS",                 # GS | IS
 *         "buffer": 2,
 *         "policy": "packed",              # packed | balanced
 *         "params": {"heating_k1": 0.1},   # see hardwareOverrideKeys()
 *         "options": {"decompose_runtime": true}
 *       }]
 *     }
 *
 * Every grid key except "options" accepts either a scalar (fixed for
 * the whole grid) or an array (a sweep axis). Axes expand as nested
 * loops in declaration order — the first array declared varies slowest
 * — so a spec fixes its row order exactly.
 * "params" values are objects mapping model-parameter names (the
 * paper's sensitivity axes: gate fidelity constants, heating rates,
 * shuttle timings) to numbers; an array of such objects sweeps
 * co-varying parameter sets that a plain cross product cannot express.
 * Grids expand in file order and concatenate into one row stream.
 *
 * An optional top-level "search" block configures surrogate-guided
 * search over the same space (core/search.hpp):
 *
 *     "search": {"budget": 16, "seed": 7, "eta": 2}
 *
 * Parsing yields a SweepPlan first — grids hold their axes as
 * pre-validated value setters and decode any point index on demand —
 * so a search can address a combinatorially large space without
 * materializing it. parseSweepSpec() is the eager wrapper that expands
 * a plan into the flat point list sweeps execute.
 *
 * The schema — keys, value kinds, names, bounds and the point cap —
 * is enforced by one walker with two modes. parseSweepPlan() throws
 * its first finding as a positioned ConfigError; walkSweepSchema()
 * (lint mode, behind `qccd_lint`) collects every finding with a stable
 * code and walks on past the bad value. The same rules therefore
 * accept and reject the same documents in both.
 *
 * Expanded points execute through the shared SweepEngine in batches,
 * with contiguous sharding (--shard i/n; concatenating shard outputs in
 * index order is byte-identical to the unsharded run) and append/resume
 * (completed rows already in the output CSV are skipped). Rows stream
 * through SweepRowWriter (core/export.hpp), the same formatting path
 * as the figure benches' toCsv, so `--sweep` and a bench write the
 * same bytes for the same spec.
 */

#ifndef QCCD_CORE_SWEEP_SPEC_HPP
#define QCCD_CORE_SWEEP_SPEC_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "core/lint.hpp"
#include "core/sweep.hpp"

namespace qccd
{

struct JsonValue;
class ResultStore;
class SweepEngine;

/** One expanded grid point, ready to be evaluated. */
struct PlannedPoint
{
    /** Label recorded in the output rows (builtin name or QASM stem). */
    std::string application;

    /** Path of the QASM source; empty for builtin applications. */
    std::string qasmPath;

    DesignPoint design;
    RunOptions options;
};

/** A parsed, fully expanded sweep specification. */
struct SweepSpec
{
    /** Output stem: `qccd_explore --sweep` writes <name>.<format>. */
    std::string name;

    /** Optional free-text description. */
    std::string description;

    /** Every grid point in file order (grids concatenated). */
    std::vector<PlannedPoint> points;
};

/** Spec-level configuration of the surrogate-guided search
 *  (`"search"` block; see core/search.hpp for the semantics). */
struct SearchSpecOptions
{
    /** True when the spec declared a "search" block. */
    bool declared = false;

    /** Real-evaluation budget; 0 = default (a quarter of the space,
     *  the headline ratio, but at least one point). */
    size_t budget = 0;

    /** Calibration-sampling seed (deterministic by construction). */
    uint64_t seed = kDefaultSearchSeed;

    /** Successive-halving rate: each rung keeps ~1/eta of the
     *  remaining budget for later rungs. */
    int eta = 2;

    static constexpr uint64_t kDefaultSearchSeed = 0x9E3779B97F4A7C15ULL;
};

/**
 * One declared grid in lazy form: a base point plus per-axis vectors of
 * pre-validated value setters. point(i) decodes the odometer (first
 * declared axis varies slowest — identical order to eager expansion)
 * without touching any other index, so a search can address point
 * 814_231 of a million-point grid in O(axes).
 */
class SweepGrid
{
  public:
    using Setter = std::function<void(PlannedPoint &)>;

    struct Axis
    {
        std::string key;
        std::vector<Setter> values;
    };

    SweepGrid(PlannedPoint base, std::vector<Axis> axes);

    /** Number of points this grid expands to (product of axis sizes). */
    size_t size() const { return size_; }

    /** Decode point @p index (grid-local, in [0, size())). */
    PlannedPoint point(size_t index) const;

    /** The scalar-valued base every point starts from. */
    const PlannedPoint &base() const { return base_; }

  private:
    PlannedPoint base_;
    std::vector<Axis> axes_;
    size_t size_ = 1;
};

/**
 * A parsed sweep specification with its grids kept lazy. expand() is
 * exactly the flat point list parseSweepSpec() returns; size()/point()
 * serve the search layer without materializing the space.
 */
struct SweepPlan
{
    std::string name;
    std::string description;
    SearchSpecOptions search;
    std::vector<SweepGrid> grids;

    /** Total points across grids. */
    size_t size() const;

    /** Decode absolute point @p index (spec order, grids
     *  concatenated) — the index sweeps and CSV rows use. */
    PlannedPoint point(size_t index) const;

    /** Eagerly expand every grid, in spec order. */
    std::vector<PlannedPoint> expand() const;
};

/** Lazy counterpart of parseSweepSpec (same schema, same errors). */
SweepPlan parseSweepPlan(const std::string &text,
                         const std::string &origin = "sweep",
                         const std::string &base_dir = "");

/** Parse a `.sweep` file into a lazy plan. */
SweepPlan parseSweepPlanFile(const std::string &path);

/** Hard cap on expanded points, so a typo'd grid cannot OOM the host
 *  (checked by the schema walker, before anything is expanded). */
inline constexpr size_t kMaxSweepPoints = size_t{1} << 20;

/** A grid value the schema walker accepted, with its position. */
struct SweepSite
{
    /** Application as written (builtin name or "qasm:FILE"), or the
     *  topology spec with any "topo:" path resolved. */
    std::string text;

    /** The resolved "qasm:"/"topo:" file; empty for builtin names and
     *  builder specs. */
    std::string path;

    const JsonValue *at = nullptr;
};

/** The accepted values of one grid: input to the checks that need the
 *  filesystem or a built device (`qccd_lint`'s file and fit checks). */
struct SweepGridSites
{
    std::vector<SweepSite> apps;
    std::vector<SweepSite> topologies;
    std::vector<int> capacities;
    std::vector<int> buffers;
    /** (key, array) of every array-valued key: the sweep axes. */
    std::vector<std::pair<std::string, const JsonValue *>> axes;
};

/** Everything one lint-mode walk found. */
struct SweepSchemaWalk
{
    /** The plan; expandable only when `findings` is empty. */
    SweepPlan plan;

    /** Every violation as an error with its stable code, in walk
     *  order; the first is exactly what parseSweepPlan() throws. */
    std::vector<LintDiagnostic> findings;

    /** One entry per element of the "sweeps" array. */
    std::vector<SweepGridSites> grids;
};

/**
 * Walk a parsed spec document in lint mode: the walker parseSweepPlan()
 * runs, collecting every finding instead of throwing the first.
 *
 * @param origin path the findings carry
 * @param base_dir directory "qasm:"/"topo:"/cache paths resolve against
 */
SweepSchemaWalk walkSweepSchema(const JsonValue &root,
                                const std::string &origin,
                                const std::string &base_dir);

/**
 * Parse sweep-spec text.
 *
 * @param text the spec document
 * @param origin name used in error messages (e.g. the file path)
 * @param base_dir directory "qasm:" application paths are resolved
 *        against (empty: the current working directory)
 * @throws ConfigError with origin:line:column on any syntax or schema
 *         error — malformed input never crashes
 */
SweepSpec parseSweepSpec(const std::string &text,
                         const std::string &origin = "sweep",
                         const std::string &base_dir = "");

/** Parse a `.sweep` file; "qasm:" paths resolve relative to it. */
SweepSpec parseSweepSpecFile(const std::string &path);

/** Shard selector: contiguous slice @p index of @p count. */
struct SweepShard
{
    int index = 0;
    int count = 1;
};

/** Parse "i/n" (0 <= i < n); throws ConfigError on bad input. */
SweepShard parseShard(const std::string &text);

/**
 * The contiguous half-open range [first, last) of @p total points that
 * shard @p index of @p count evaluates. Slices are balanced (sizes
 * differ by at most one) and their in-order concatenation covers
 * 0..total exactly.
 */
std::pair<size_t, size_t> shardRange(size_t total, int index, int count);

/** How SweepSpecRunner::run reacts when a point fails. */
struct SweepRunPolicy
{
    /** Isolate failures as per-point outcomes instead of rethrowing
     *  the first one (the `--keep-going` behaviour). */
    bool keepGoing = false;

    /** Under keepGoing, stop evaluating once this many points have
     *  failed and at least one point remains (0 = unlimited). */
    size_t maxErrors = 0;

    /**
     * Persistent result store consulted before evaluating each point
     * and fed every Ok result (nullptr = no caching). Cache-hit rows
     * are byte-identical to recomputed ones; any cache failure mid-run
     * (I/O error, injected fault) disables the cache with a warning
     * and the sweep continues cold — the cache can slow a run down,
     * never change or sink it.
     */
    ResultStore *cache = nullptr;

    /**
     * Audit mode: hits are recomputed anyway and compared bit-exactly
     * against the cached record; divergences are counted in
     * SweepRunStats::cacheDivergent (the emitted row is always the
     * recomputed one). Misses still warm the cache.
     */
    bool cacheVerify = false;
};

/** What a SweepSpecRunner::run call did. */
struct SweepRunStats
{
    /** Points emitted (successes and isolated failures). */
    size_t evaluated = 0;

    /** Emitted points whose outcome is not Ok. */
    size_t failed = 0;

    /** True when maxErrors tripped with points still unevaluated. */
    bool aborted = false;

    /** Points answered from the result store without evaluation. */
    size_t cacheHits = 0;

    /** Under cacheVerify: hits whose recomputation disagreed with the
     *  stored record (any nonzero count is a defect report). */
    size_t cacheDivergent = 0;

    /** Evaluated points that ran the full scheduler (staged toolflow;
     *  see SweepEngine::deltaStats). @{ */
    size_t fullSchedules = 0;

    /** Evaluated points served by model replay of a cached schedule. */
    size_t replays = 0;
    /** @} */
};

/**
 * Evaluates planned points through a SweepEngine, streaming results.
 *
 * Builtin applications are lowered once per engine (the engine's own
 * cache); QASM applications are parsed and lowered once per runner.
 * Points are evaluated in batches (each batch one engine.run call, so
 * a batch rides the worker pool) and emitted strictly in input order.
 * Results are bit-identical for any worker count and batch size.
 */
class SweepSpecRunner
{
  public:
    explicit SweepSpecRunner(SweepEngine &engine);

    /**
     * Evaluate points[skip..points.size()) in order.
     *
     * Without @p policy.keepGoing the first failure propagates as an
     * exception (nothing after it is evaluated). With it, a failed
     * point — whether its circuit fails to load or its toolflow run
     * throws — is emitted with a non-Ok outcome and evaluation
     * continues; successful points are byte-identical to a fault-free
     * run either way.
     *
     * @param points planned points (typically a shard slice)
     * @param skip completed points to skip (resume support)
     * @param emit called once per completed point, in input order
     * @param policy failure isolation (see SweepRunPolicy)
     * @param batch_size points per engine batch (>= 1)
     */
    SweepRunStats
    run(const std::vector<PlannedPoint> &points, size_t skip,
        const std::function<void(const SweepPoint &)> &emit,
        const SweepRunPolicy &policy,
        size_t batch_size = kDefaultBatchSize);

    /**
     * run() that collects: every emitted point, in input order. The
     * figure benches and tests take a spec's rows through this.
     *
     * @param stats receives the run's counters when non-null
     */
    std::vector<SweepPoint>
    collect(const std::vector<PlannedPoint> &points,
            const SweepRunPolicy &policy = {},
            SweepRunStats *stats = nullptr, size_t skip = 0,
            size_t batch_size = kDefaultBatchSize);

    /** Points handed to the engine per run() batch by default. */
    static constexpr size_t kDefaultBatchSize = 64;

    /** Resolve a point's lowered circuit (builtin via the engine's
     *  cache, QASM via this runner's). Public so the search layer
     *  reuses the same caches for feature extraction. */
    std::shared_ptr<const Circuit> circuitFor(const PlannedPoint &point);

  private:
    /** Content digest of @p native, memoized per circuit object (the
     *  runner's circuits are shared, so identity implies content). */
    Digest128 circuitDigestFor(const Circuit &native);

    SweepEngine &engine_;
    std::map<std::string, std::shared_ptr<const Circuit>> qasmCache_;
    std::map<const Circuit *, Digest128> digestCache_;
};

} // namespace qccd

#endif // QCCD_CORE_SWEEP_SPEC_HPP
