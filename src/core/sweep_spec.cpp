#include "core/sweep_spec.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>

#include "arch/builders.hpp"
#include "benchgen/benchgen.hpp"
#include "circuit/qasm/parser.hpp"
#include "common/error.hpp"
#include "common/file_path.hpp"
#include "common/json.hpp"
#include "compiler/mapping.hpp"
#include "core/result_store.hpp"
#include "core/sweep_engine.hpp"

namespace qccd
{

namespace
{

/**
 * Grid keys that take axis values. One table drives the schema
 * walker's membership check, its unknown-key message and makeSetter's
 * dispatch (which panics on anything not listed here), so the three
 * cannot drift apart.
 */
const std::vector<std::string> &
sweepAxisKeys()
{
    static const std::vector<std::string> keys = {
        "apps",   "topology", "capacity", "gate",
        "reorder", "buffer",  "policy",   "params"};
    return keys;
}

/**
 * The one `.sweep` schema walker. Every rule lives here, and every
 * violation goes through fail() as (lint code, position, message).
 * Parse mode throws the first violation through the JsonParser, so the
 * success path builds no message; lint mode records each one in a
 * SweepSchemaWalk and walks on past the bad value, also handing back
 * the grid sites qccd_lint's file and fit checks need.
 */
class SpecBuilder
{
  public:
    /** Parse mode: the first finding throws, positioned. */
    SpecBuilder(const JsonParser &parser, const std::string &base_dir)
        : parser_(&parser), baseDir_(base_dir)
    {
    }

    /** Lint mode: every finding and grid site lands in @p walk. */
    SpecBuilder(SweepSchemaWalk &walk, const std::string &origin,
                const std::string &base_dir)
        : walk_(&walk), origin_(origin), baseDir_(base_dir)
    {
    }

    SweepPlan build(const JsonValue &root)
    {
        SweepPlan plan;
        if (!expect(root, JsonValue::Kind::Object, "spec document"))
            return plan;
        const JsonValue *sweeps = nullptr;
        bool named = false;
        bool has_sweeps = false;
        for (const auto &[key, value] : root.members) {
            if (key == "name") {
                named = true;
                if (expect(value, JsonValue::Kind::String, "\"name\"")) {
                    plan.name = value.text;
                    checkName(value);
                }
            } else if (key == "description") {
                if (expect(value, JsonValue::Kind::String,
                           "\"description\""))
                    plan.description = value.text;
            } else if (key == "search") {
                parseSearch(value, plan.search);
            } else if (key == "sweeps") {
                has_sweeps = true;
                if (expect(value, JsonValue::Kind::Array, "\"sweeps\""))
                    sweeps = &value;
            } else {
                fail("unknown-key", value,
                     "unknown spec key \"" + key +
                         "\" (known: name, description, search, "
                         "sweeps)");
            }
        }
        if (!named)
            fail("missing-name", root, "spec is missing \"name\"");
        // A "sweeps" of the wrong kind was reported above.
        if (sweeps == nullptr ? !has_sweeps : sweeps->items.empty())
            fail("missing-sweeps", root,
                 "spec needs a non-empty \"sweeps\" array");
        if (sweeps == nullptr)
            return plan;
        size_t total = 0;
        for (const JsonValue &grid : sweeps->items) {
            plan.grids.push_back(buildGrid(grid, total));
            total += plan.grids.back().size();
        }
        return plan;
    }

  private:
    /** Report a violation: throws in parse mode, records in lint mode
     *  (the caller then skips the bad value). */
    void fail(const char *code, const JsonValue &at,
              const std::string &message)
    {
        if (parser_ != nullptr)
            parser_->failAt(at, message);
        walk_->findings.push_back({LintSeverity::Error, code, origin_,
                                   at.line, at.column, message});
    }

    void failKind(const JsonValue &value, JsonValue::Kind kind,
                  const std::string &what)
    {
        fail("bad-kind", value,
             what + " must be a " + jsonKindName(kind) + ", got " +
                 jsonKindName(value.kind));
    }

    bool expect(const JsonValue &value, JsonValue::Kind kind,
                const char *what)
    {
        if (value.kind == kind) [[likely]]
            return true;
        failKind(value, kind, what);
        return false;
    }

    /** The spec name becomes an output file stem; keep it shell-safe. */
    void checkName(const JsonValue &value)
    {
        const auto safe = [](unsigned char c) {
            return std::isalnum(c) != 0 || c == '_' || c == '-' || c == '.';
        };
        if (value.text.empty())
            fail("bad-name", value, "\"name\" must not be empty");
        else if (!std::all_of(value.text.begin(), value.text.end(), safe))
            fail("bad-name", value,
                 "\"name\" may only contain letters, digits, '_', '-' "
                 "and '.'");
    }

    std::optional<int> intOf(const JsonValue &value, const char *what)
    {
        if (!expect(value, JsonValue::Kind::Number, what))
            return std::nullopt;
        // Range first: casting an out-of-range double is undefined.
        const double number = value.number;
        if (number >= std::numeric_limits<int>::min() &&
            number <= std::numeric_limits<int>::max() &&
            static_cast<double>(static_cast<int>(number)) == number)
            [[likely]]
            return static_cast<int>(number);
        fail("bad-kind", value, std::string(what) + " must be an integer");
        return std::nullopt;
    }

    /** Run a lookup whose ConfigErrors carry no position, reporting
     *  them at @p value (never wrap fail(): the prefix would double). */
    template <typename Fn>
    bool lookupAt(const char *code, const JsonValue &value, Fn &&fn)
    {
        try {
            fn();
            return true;
        } catch (const ConfigError &err) {
            fail(code, value, err.what());
        }
        return false;
    }

    /** intOf, then at least @p min (else a @p code finding). */
    std::optional<int> intAtLeast(const JsonValue &value, const char *what,
                                  int min, const char *code)
    {
        const std::optional<int> number = intOf(value, what);
        if (!number || *number >= min)
            return number;
        fail(code, value,
             std::string(what) + " must be at least " +
                 std::to_string(min));
        return std::nullopt;
    }

    /** An integer value of at least @p min, recorded in @p site. */
    template <typename Apply>
    SweepGrid::Setter intSetter(const JsonValue &value, const char *what,
                                int min, const char *code,
                                std::vector<int> SweepGridSites::*site,
                                Apply apply)
    {
        const std::optional<int> number =
            intAtLeast(value, what, min, code);
        if (!number)
            return {};
        if (sites_ != nullptr)
            (sites_->*site).push_back(*number);
        return [n = *number, apply](PlannedPoint &point) {
            apply(point, n);
        };
    }

    /** A name resolved by @p lookup (unknown names report @p code). */
    template <typename Lookup, typename Apply>
    SweepGrid::Setter namedSetter(const JsonValue &value, const char *what,
                                  const char *code, Lookup lookup,
                                  Apply apply)
    {
        decltype(lookup(value.text)) named{};
        if (!expect(value, JsonValue::Kind::String, what) ||
            !lookupAt(code, value, [&] { named = lookup(value.text); }))
            return {};
        return [named, apply](PlannedPoint &point) {
            apply(point, named);
        };
    }

    /**
     * Validate one axis value now (every finding carries the document
     * position) and return a setter that applies it to a point later —
     * the lazy-grid building block. A rejected value (lint mode only)
     * yields an empty setter.
     */
    SweepGrid::Setter makeSetter(const std::string &key,
                                 const JsonValue &value)
    {
        if (key == "apps")
            return makeApplicationSetter(value);
        if (key == "topology")
            return makeTopologySetter(value);
        if (key == "capacity")
            return intSetter(value, "\"capacity\"", 2, "bad-capacity",
                             &SweepGridSites::capacities,
                             [](PlannedPoint &point, int capacity) {
                                 point.design.trapCapacity = capacity;
                             });
        if (key == "buffer")
            return intSetter(value, "\"buffer\"", 0, "bad-buffer",
                             &SweepGridSites::buffers,
                             [](PlannedPoint &point, int buffer) {
                                 point.design.hw.bufferSlots = buffer;
                             });
        if (key == "gate")
            return namedSetter(value, "\"gate\"", "unknown-gate",
                               gateImplFromName,
                               [](PlannedPoint &point, GateImpl impl) {
                                   point.design.hw.gateImpl = impl;
                               });
        if (key == "reorder")
            return namedSetter(
                value, "\"reorder\"", "unknown-reorder",
                reorderMethodFromName,
                [](PlannedPoint &point, ReorderMethod reorder) {
                    point.design.hw.reorder = reorder;
                });
        if (key == "policy")
            return namedSetter(
                value, "\"policy\"", "unknown-policy",
                mappingPolicyFromName,
                [](PlannedPoint &point, MappingPolicy policy) {
                    point.options.mappingPolicy = policy;
                });
        if (key == "params")
            return makeParamsSetter(value);
        panicUnless(false, "axis key missing from sweepAxisKeys");
        return {};
    }

    SweepGrid::Setter makeParamsSetter(const JsonValue &value)
    {
        if (!expect(value, JsonValue::Kind::Object, "\"params\""))
            return {};
        std::vector<std::pair<std::string, double>> overrides;
        HardwareParams scratch; // names, integrality and ranges now
        for (const auto &[param, pv] : value.members) {
            if (pv.kind != JsonValue::Kind::Number) {
                failKind(pv, JsonValue::Kind::Number,
                         "parameter \"" + param + "\"");
                continue;
            }
            try {
                applyHardwareOverride(scratch, param, pv.number);
                overrides.emplace_back(param, pv.number);
            } catch (const ConfigError &err) {
                // A known key only fails on a non-integral value.
                const std::vector<std::string> known =
                    hardwareOverrideKeys();
                fail(std::find(known.begin(), known.end(), param) ==
                             known.end()
                         ? "unknown-param"
                         : "bad-kind",
                     pv, err.what());
            }
        }
        // Every parameter has its own range, so validating the
        // overrides on default params is what each point would do.
        if (overrides.size() != value.members.size() || // lint mode
            !lookupAt("bad-param-value", value,
                      [&] { scratch.validate(); }))
            return {};
        return [overrides = std::move(overrides)](PlannedPoint &point) {
            for (const auto &[param, number] : overrides)
                applyHardwareOverride(point.design.hw, param, number);
        };
    }

    /**
     * Topology axis values: builder specs are syntax-checked now so a
     * typo fails at parse time with the document position; "topo:FILE"
     * paths resolve relative to the spec file like "qasm:" paths do
     * (the file itself is read when the device is built).
     */
    SweepGrid::Setter makeTopologySetter(const JsonValue &value)
    {
        if (!expect(value, JsonValue::Kind::String, "\"topology\""))
            return {};
        static const std::string topo_prefix = "topo:";
        std::string spec = value.text;
        std::string path;
        if (spec.rfind(topo_prefix, 0) == 0) {
            if (spec.size() == topo_prefix.size()) {
                fail("missing-file", value, "empty path after \"topo:\"");
                return {};
            }
            path = resolveAgainst(spec.substr(topo_prefix.size()),
                                  baseDir_);
            spec = topo_prefix + path;
        } else if (!lookupAt("bad-topology", value, [&] {
                       validateTopologySpec(value.text);
                   })) {
            return {};
        }
        if (sites_ != nullptr)
            sites_->topologies.push_back({spec, path, &value});
        return [spec = std::move(spec)](PlannedPoint &point) {
            point.design.topologySpec = spec;
        };
    }

    SweepGrid::Setter makeApplicationSetter(const JsonValue &value)
    {
        if (!expect(value, JsonValue::Kind::String, "application"))
            return {};
        static const std::string qasm_prefix = "qasm:";
        const std::string &text = value.text;
        if (text.rfind(qasm_prefix, 0) == 0) {
            if (text.size() == qasm_prefix.size()) {
                fail("missing-file", value, "empty path after \"qasm:\"");
                return {};
            }
            std::string path =
                resolveAgainst(text.substr(qasm_prefix.size()), baseDir_);
            std::string stem = fileStem(path);
            if (sites_ != nullptr)
                sites_->apps.push_back({text, path, &value});
            return [path = std::move(path),
                    stem = std::move(stem)](PlannedPoint &point) {
                point.qasmPath = path;
                point.application = stem;
            };
        }
        // Builtin applications are validated now so a typo fails at
        // parse time, not points deep into a long run.
        bool known = false;
        for (const BenchmarkSpec &bench : benchmarkList())
            known = known || bench.name == text;
        if (!known) {
            fail("unknown-app", value,
                 "unknown application '" + text +
                     "' (see qccd_explore --list, or use \"qasm:FILE\")");
            return {};
        }
        if (sites_ != nullptr)
            sites_->apps.push_back({text, "", &value});
        return [text](PlannedPoint &point) {
            point.qasmPath.clear();
            point.application = text;
        };
    }

    void parseOptions(const JsonValue &value, RunOptions &options)
    {
        if (!expect(value, JsonValue::Kind::Object, "\"options\""))
            return;
        for (const auto &[key, v] : value.members) {
            if (key == "decompose_runtime") {
                if (expect(v, JsonValue::Kind::Bool,
                           "\"decompose_runtime\""))
                    options.decomposeRuntime = v.boolean;
            } else if (key == "point_timeout_ms") {
                if (const auto ms = intAtLeast(v, "\"point_timeout_ms\"",
                                               1, "bad-option"))
                    options.pointTimeoutMs = *ms;
            } else if (key == "cache") {
                if (!expect(v, JsonValue::Kind::String, "\"cache\""))
                    continue;
                if (v.text.empty())
                    fail("bad-option", v, "\"cache\" must not be empty");
                else
                    options.cachePath = resolveAgainst(v.text, baseDir_);
            } else {
                fail("unknown-option", v,
                     "unknown option \"" + key +
                         "\" (known: cache, decompose_runtime, "
                         "point_timeout_ms)");
            }
        }
    }

    /** Parse the top-level "search" block (budget/eta/seed). */
    void parseSearch(const JsonValue &value, SearchSpecOptions &search)
    {
        if (!expect(value, JsonValue::Kind::Object, "\"search\""))
            return;
        search.declared = true;
        for (const auto &[key, v] : value.members) {
            if (key == "budget") {
                if (const auto budget =
                        intAtLeast(v, "\"budget\"", 1, "bad-search"))
                    search.budget = static_cast<size_t>(*budget);
            } else if (key == "eta") {
                if (const auto eta =
                        intAtLeast(v, "\"eta\"", 2, "bad-search"))
                    search.eta = *eta;
            } else if (key == "seed") {
                if (!expect(v, JsonValue::Kind::Number, "\"seed\""))
                    continue;
                // Range first: an out-of-range cast is undefined.
                const double n = v.number;
                if (n >= 0 && n < 0x1p64 &&
                    static_cast<double>(static_cast<uint64_t>(n)) == n)
                    search.seed = static_cast<uint64_t>(n);
                else
                    fail("bad-search", v,
                         "\"seed\" must be a non-negative integer");
            } else {
                fail("unknown-key", v,
                     "unknown search key \"" + key +
                         "\" (known: budget, eta, seed)");
            }
        }
    }

    SweepGrid buildGrid(const JsonValue &grid, size_t points_so_far)
    {
        if (walk_ != nullptr)
            sites_ = &walk_->grids.emplace_back();
        if (!expect(grid, JsonValue::Kind::Object, "sweep grid"))
            return {PlannedPoint{}, {}};

        // An axis per array-valued key, in declaration order (first
        // declared varies slowest); scalars fix the value grid-wide.
        std::vector<SweepGrid::Axis> axes;
        PlannedPoint base;
        bool have_apps = false;

        for (const auto &[key, value] : grid.members) {
            if (key == "options") {
                parseOptions(value, base.options);
                continue;
            }
            const std::vector<std::string> &axis_keys = sweepAxisKeys();
            if (std::find(axis_keys.begin(), axis_keys.end(), key) ==
                axis_keys.end()) {
                std::string list;
                for (const std::string &axis_key : axis_keys)
                    list += axis_key + ", ";
                fail("unknown-key", value,
                     "unknown grid key \"" + key + "\" (known: " + list +
                         "options)");
                continue;
            }
            have_apps = have_apps || key == "apps";
            // "params" takes an object per value, so a bare object is
            // a scalar there, not an axis.
            if (value.kind != JsonValue::Kind::Array) {
                if (const SweepGrid::Setter set = makeSetter(key, value))
                    set(base);
                continue;
            }
            if (value.items.empty()) {
                fail("empty-axis", value,
                     "axis \"" + key +
                         "\" must not be empty: an empty array makes "
                         "the whole cross-product empty");
                continue;
            }
            if (sites_ != nullptr)
                sites_->axes.emplace_back(key, &value);
            // Rejected values keep their (empty) slot, so the point-cap
            // checks below count the axis as written.
            SweepGrid::Axis axis;
            axis.key = key;
            axis.values.reserve(value.items.size());
            for (const JsonValue &item : value.items)
                axis.values.push_back(makeSetter(key, item));
            axes.push_back(std::move(axis));
        }
        if (!have_apps)
            fail("missing-apps", grid, "sweep grid is missing \"apps\"");

        size_t total = 1;
        for (const SweepGrid::Axis &axis : axes) {
            const size_t n = axis.values.size();
            if (total > kMaxSweepPoints / n) {
                fail("grid-too-large", grid,
                     "grid expands to too many points");
                return {std::move(base), {}};
            }
            total *= n;
        }
        if (points_so_far > kMaxSweepPoints - total) {
            fail("grid-too-large", grid,
                 "spec expands to too many points");
            return {std::move(base), {}};
        }
        return {std::move(base), std::move(axes)};
    }

    const JsonParser *parser_ = nullptr;
    SweepSchemaWalk *walk_ = nullptr;
    /** Lint mode: the grid being walked. */
    SweepGridSites *sites_ = nullptr;
    std::string origin_;
    std::string baseDir_;
};

} // namespace

SweepGrid::SweepGrid(PlannedPoint base, std::vector<Axis> axes)
    : base_(std::move(base)), axes_(std::move(axes))
{
    for (const Axis &axis : axes_)
        size_ *= axis.values.size();
}

PlannedPoint
SweepGrid::point(size_t index) const
{
    panicUnless(index < size_, "grid point index out of range");
    PlannedPoint point = base_;
    // Odometer decode, first declared axis the slowest digit, setters
    // applied in declaration order — the same point the eager
    // expansion produced at this position.
    size_t stride = size_;
    for (const Axis &axis : axes_) {
        stride /= axis.values.size();
        axis.values[(index / stride) % axis.values.size()](point);
    }
    return point;
}

size_t
SweepPlan::size() const
{
    size_t total = 0;
    for (const SweepGrid &grid : grids)
        total += grid.size();
    return total;
}

PlannedPoint
SweepPlan::point(size_t index) const
{
    for (const SweepGrid &grid : grids) {
        if (index < grid.size())
            return grid.point(index);
        index -= grid.size();
    }
    panicUnless(false, "plan point index out of range");
    return {};
}

std::vector<PlannedPoint>
SweepPlan::expand() const
{
    std::vector<PlannedPoint> points;
    points.reserve(size());
    for (const SweepGrid &grid : grids)
        for (size_t i = 0; i < grid.size(); ++i)
            points.push_back(grid.point(i));
    return points;
}

SweepPlan
parseSweepPlan(const std::string &text, const std::string &origin,
               const std::string &base_dir)
{
    JsonParser parser(text, origin);
    const JsonValue root = parser.parseDocument();
    return SpecBuilder(parser, base_dir).build(root);
}

SweepSchemaWalk
walkSweepSchema(const JsonValue &root, const std::string &origin,
                const std::string &base_dir)
{
    SweepSchemaWalk walk;
    walk.plan = SpecBuilder(walk, origin, base_dir).build(root);
    return walk;
}

SweepPlan
parseSweepPlanFile(const std::string &path)
{
    std::ifstream in(path);
    fatalUnless(in.good(), "cannot read sweep spec '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();
    fatalUnless(!in.bad(), "error reading sweep spec '" + path + "'");
    return parseSweepPlan(text.str(), path, parentDir(path));
}

SweepSpec
parseSweepSpec(const std::string &text, const std::string &origin,
               const std::string &base_dir)
{
    SweepPlan plan = parseSweepPlan(text, origin, base_dir);
    return {std::move(plan.name), std::move(plan.description),
            plan.expand()};
}

SweepSpec
parseSweepSpecFile(const std::string &path)
{
    SweepPlan plan = parseSweepPlanFile(path);
    return {std::move(plan.name), std::move(plan.description),
            plan.expand()};
}

SweepShard
parseShard(const std::string &text)
{
    const size_t slash = text.find('/');
    fatalUnless(slash != std::string::npos,
                "shard must be I/N, e.g. 0/4; got '" + text + "'");
    SweepShard shard;
    const char *begin = text.data();
    auto [iptr, iec] =
        std::from_chars(begin, begin + slash, shard.index);
    auto [nptr, nec] = std::from_chars(begin + slash + 1,
                                       begin + text.size(), shard.count);
    fatalUnless(iec == std::errc() && iptr == begin + slash &&
                    nec == std::errc() &&
                    nptr == begin + text.size(),
                "shard must be I/N, e.g. 0/4; got '" + text + "'");
    fatalUnless(shard.count >= 1, "shard count must be at least 1");
    fatalUnless(shard.index >= 0 && shard.index < shard.count,
                "shard index must be in [0, count)");
    return shard;
}

std::pair<size_t, size_t>
shardRange(size_t total, int index, int count)
{
    fatalUnless(count >= 1, "shard count must be at least 1");
    fatalUnless(index >= 0 && index < count,
                "shard index must be in [0, count)");
    const size_t n = static_cast<size_t>(count);
    const size_t i = static_cast<size_t>(index);
    return {total * i / n, total * (i + 1) / n};
}

SweepSpecRunner::SweepSpecRunner(SweepEngine &engine) : engine_(engine)
{
}

std::shared_ptr<const Circuit>
SweepSpecRunner::circuitFor(const PlannedPoint &point)
{
    if (point.qasmPath.empty())
        return engine_.nativeBenchmark(point.application);
    auto it = qasmCache_.find(point.qasmPath);
    if (it == qasmCache_.end())
        it = qasmCache_
                 .emplace(point.qasmPath,
                          SweepEngine::lower(
                              qasm::parseFile(point.qasmPath)))
                 .first;
    return it->second;
}

Digest128
SweepSpecRunner::circuitDigestFor(const Circuit &native)
{
    const auto it = digestCache_.find(&native);
    if (it != digestCache_.end())
        return it->second;
    const Digest128 digest = ResultStore::circuitDigest(native);
    digestCache_.emplace(&native, digest);
    return digest;
}

SweepRunStats
SweepSpecRunner::run(const std::vector<PlannedPoint> &points, size_t skip,
                     const std::function<void(const SweepPoint &)> &emit,
                     const SweepRunPolicy &policy, size_t batch_size)
{
    fatalUnless(batch_size >= 1, "batch size must be at least 1");
    SweepRunStats stats;
    const FailurePolicy engine_policy = policy.keepGoing
                                            ? FailurePolicy::Isolate
                                            : FailurePolicy::Rethrow;

    // The engine's stage-reuse counters are cumulative across batches
    // (and across runs sharing the engine); report this run's share.
    const StagedToolflow::Stats delta_before = engine_.deltaStats();
    const auto finishStats = [&]() {
        const StagedToolflow::Stats &after = engine_.deltaStats();
        stats.fullSchedules =
            after.fullSchedules - delta_before.fullSchedules;
        stats.replays = after.replays - delta_before.replays;
    };

    // The cache degrades, never sinks: any store failure mid-run
    // (I/O error, injected cache.* fault) drops it for the rest of
    // the run with one warning, and every point is evaluated cold —
    // the acceptance contract is identical bytes either way.
    ResultStore *cache = policy.cache;
    const auto disableCache = [&cache](const char *what,
                                       const std::exception &err) {
        std::fprintf(stderr,
                     "warning: result cache disabled (%s: %s); "
                     "continuing without it\n",
                     what, err.what());
        cache = nullptr;
    };

    // Per-batch-position cache state: the key (when computable), and
    // under cacheVerify the stored result a recomputation must match.
    struct CacheSlot
    {
        bool haveKey = false;
        bool verifyHit = false;
        Digest128 key;
        RunResult cached;
    };

    for (size_t start = skip; start < points.size();
         start += batch_size) {
        const size_t end =
            std::min(points.size(), start + batch_size);

        // Under keepGoing a circuit that fails to load (missing QASM
        // file, parse error, fault injection in the lowering path)
        // becomes a prefailed point of this batch rather than sinking
        // the whole shard; `slot` maps batch positions to engine jobs.
        // Cache hits resolve the same way: a filled `resolved` row
        // and no engine job.
        const size_t none = static_cast<size_t>(-1);
        std::vector<SweepJob> jobs;
        std::vector<size_t> slot(end - start, none);
        std::vector<SweepPoint> resolved(end - start);
        std::vector<CacheSlot> cslot(end - start);
        jobs.reserve(end - start);
        for (size_t i = start; i < end; ++i) {
            const PlannedPoint &point = points[i];
            SweepJob job;
            job.application = point.application;
            job.design = point.design;
            job.options = point.options;
            if (policy.keepGoing) {
                try {
                    job.native = circuitFor(point);
                } catch (...) {
                    SweepPoint &failed = resolved[i - start];
                    failed.application = point.application;
                    failed.design = point.design;
                    failed.outcome = classifyFailure(
                        std::current_exception(), &failed.error);
                    continue;
                }
            } else {
                job.native = circuitFor(point);
            }

            if (cache != nullptr) {
                CacheSlot &cs = cslot[i - start];
                try {
                    cs.key = ResultStore::keyFor(
                        point.design, point.options,
                        circuitDigestFor(*job.native));
                    cs.haveKey = true;
                } catch (const QccdError &) {
                    // Unkeyable (e.g. unreadable "topo:" file): run
                    // it cold and let evaluation report the problem.
                }
                if (cs.haveKey) {
                    try {
                        const std::optional<RunResult> found =
                            cache->lookup(cs.key);
                        if (found.has_value()) {
                            ++stats.cacheHits;
                            if (policy.cacheVerify) {
                                cs.verifyHit = true;
                                cs.cached = *found;
                            } else {
                                SweepPoint &hit = resolved[i - start];
                                hit.application = point.application;
                                hit.design = point.design;
                                hit.result = *found;
                                continue; // no engine job needed
                            }
                        }
                    } catch (const std::exception &err) {
                        disableCache("lookup failed", err);
                    }
                }
            }
            slot[i - start] = jobs.size();
            jobs.push_back(std::move(job));
        }

        const std::vector<SweepPoint> results =
            engine_.run(jobs, engine_policy);
        for (size_t i = start; i < end; ++i) {
            const size_t s = slot[i - start];
            const SweepPoint &result =
                s == none ? resolved[i - start] : results[s];
            const CacheSlot &cs = cslot[i - start];
            if (s != none && cache != nullptr && cs.haveKey &&
                result.ok()) {
                if (cs.verifyHit) {
                    if (ResultStore::encodeRecordPayload(cs.key,
                                                         cs.cached) !=
                        ResultStore::encodeRecordPayload(
                            cs.key, result.result)) {
                        ++stats.cacheDivergent;
                        std::fprintf(
                            stderr,
                            "error: result cache divergence at point "
                            "'%s' (key %s): stored record differs "
                            "from recomputation\n",
                            result.application.c_str(),
                            cs.key.hex().c_str());
                    }
                } else {
                    // Insert before emitting the row: a kill between
                    // the two leaves the store ahead of the CSV, and
                    // the resumed run re-hits instead of re-appending
                    // — warm store bytes stay deterministic.
                    try {
                        cache->insert(cs.key, result.result);
                    } catch (const std::exception &err) {
                        disableCache("append failed", err);
                    }
                }
            }
            ++stats.evaluated;
            if (!result.ok())
                ++stats.failed;
            emit(result);
            // The error budget stops the sweep mid-batch: emitted
            // points stay durable, everything after them is reported
            // as unevaluated (aborted stays false when the budget
            // trips on the very last point — nothing was cut short).
            if (policy.keepGoing && policy.maxErrors > 0 &&
                stats.failed >= policy.maxErrors &&
                (i + 1 < end || end < points.size())) {
                stats.aborted = true;
                finishStats();
                return stats;
            }
        }
    }
    finishStats();
    return stats;
}

std::vector<SweepPoint>
SweepSpecRunner::collect(const std::vector<PlannedPoint> &points,
                         const SweepRunPolicy &policy,
                         SweepRunStats *stats, size_t skip,
                         size_t batch_size)
{
    std::vector<SweepPoint> rows;
    rows.reserve(points.size() - std::min(skip, points.size()));
    const SweepRunStats run_stats = run(
        points, skip, [&](const SweepPoint &p) { rows.push_back(p); },
        policy, batch_size);
    if (stats != nullptr)
        *stats = run_stats;
    return rows;
}

} // namespace qccd
