#include "core/lint.hpp"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <utility>

#include "arch/builders.hpp"
#include "arch/topo_file.hpp"
#include "benchgen/benchgen.hpp"
#include "circuit/qasm/parser.hpp"
#include "common/error.hpp"
#include "common/file_path.hpp"
#include "common/json.hpp"
#include "core/design_point.hpp"
#include "core/export.hpp"
#include "core/result_store.hpp"
#include "core/sweep_spec.hpp"
#include "models/params.hpp"

namespace qccd
{

namespace
{

void
addDiag(LintReport &report, LintSeverity severity, std::string code,
        std::string origin, int line, int column, std::string message)
{
    report.diagnostics.push_back({severity, std::move(code),
                                  std::move(origin), line, column,
                                  std::move(message)});
}

/**
 * Convert a ConfigError raised by the JSON/topo machinery for
 * @p origin into a diagnostic: "origin:LINE:COL: msg" keeps its
 * position, "origin: msg" just loses the path prefix.
 */
void
addFromConfigError(LintReport &report, const char *code,
                   const std::string &origin, const std::string &what)
{
    const std::string prefix = origin + ":";
    std::string message = what;
    if (what.rfind(prefix, 0) == 0) {
        const char *last = what.data() + what.size();
        int line = 0;
        int column = 0;
        const auto [colon, lec] =
            std::from_chars(what.data() + prefix.size(), last, line);
        if (lec == std::errc() && colon < last && *colon == ':') {
            const auto [end, cec] =
                std::from_chars(colon + 1, last, column);
            if (cec == std::errc() && last - end >= 2 && end[0] == ':' &&
                end[1] == ' ') {
                addDiag(report, LintSeverity::Error, code, origin, line,
                        column, std::string(end + 2, last));
                return;
            }
        }
        if (what.size() > prefix.size() + 1 && what[prefix.size()] == ' ')
            message = what.substr(prefix.size() + 1);
    }
    addDiag(report, LintSeverity::Error, code, origin, 0, 0, message);
}

/** Count of comma-separated fields in @p header. */
size_t
fieldCount(const std::string &line)
{
    return static_cast<size_t>(
               std::count(line.begin(), line.end(), ',')) +
           1;
}

/**
 * The lint-only half of `.sweep` checking, run over the grid sites the
 * shared schema walker hands back: repeated axis values, `qasm:`/`topo:`
 * files that do not exist, and the fit of every application on every
 * swept device. None of this is schema — it needs the filesystem or a
 * built device — so the parser leaves it to run time.
 */
class SweepSiteLinter
{
  public:
    SweepSiteLinter(const std::string &origin, LintReport &report)
        : origin_(origin), report_(report)
    {
    }

    void lintGrid(const SweepGridSites &grid)
    {
        for (const auto &[key, values] : grid.axes)
            checkDuplicates(key, values->items);
        checkFit(existing(grid.apps, "qasm:"),
                 existing(grid.topologies, "topo:"), grid.capacities,
                 grid.buffers);
    }

  private:
    void add(LintSeverity severity, const char *code, const JsonValue &at,
             const std::string &message)
    {
        addDiag(report_, severity, code, origin_, at.line, at.column,
                message);
    }

    void checkDuplicates(const std::string &key,
                         const std::vector<JsonValue> &items)
    {
        for (size_t i = 0; i < items.size(); ++i) {
            for (size_t j = i + 1; j < items.size(); ++j) {
                const JsonValue &a = items[i];
                const JsonValue &b = items[j];
                if (a.kind != b.kind ||
                    a.kind == JsonValue::Kind::Object)
                    continue;
                const bool same =
                    a.kind == JsonValue::Kind::Number
                        ? a.number == b.number
                        : (a.kind == JsonValue::Kind::String
                               ? a.text == b.text
                               : a.boolean == b.boolean);
                if (same) {
                    add(LintSeverity::Warning, "duplicate-axis-value", b,
                        "axis \"" + key +
                            "\" repeats a value; the duplicate rows "
                            "carry no information");
                    break;
                }
            }
        }
    }

    /** The sites whose file (if any) exists; the rest are reported. */
    std::vector<const SweepSite *>
    existing(const std::vector<SweepSite> &sites, const char *prefix)
    {
        std::vector<const SweepSite *> kept;
        for (const SweepSite &site : sites) {
            std::error_code ec;
            if (!site.path.empty() &&
                !std::filesystem::is_regular_file(site.path, ec))
                add(LintSeverity::Error, "missing-file", *site.at,
                    "\"" + std::string(prefix) +
                        "\" path does not resolve: '" + site.path + "'");
            else
                kept.push_back(&site);
        }
        return kept;
    }

    /** Qubit count of @p app; nullopt after a [bad-qasm] finding. */
    std::optional<int> appQubits(const SweepSite &app)
    {
        const auto cached = qubitCache_.find(app.text);
        if (cached != qubitCache_.end())
            return cached->second;
        std::optional<int> qubits;
        try {
            qubits = app.path.empty()
                         ? makeBenchmark(app.text).numQubits()
                         : qasm::parseFile(app.path).numQubits();
        } catch (const QccdError &err) {
            add(LintSeverity::Error, "bad-qasm", *app.at, err.what());
        }
        qubitCache_.emplace(app.text, qubits);
        return qubits;
    }

    /** Total capacity and trap count of a device, built statically. */
    struct DeviceExtent
    {
        int totalCapacity = 0;
        int traps = 0;
    };

    std::optional<DeviceExtent> deviceExtent(const SweepSite &topo,
                                             int capacity)
    {
        const auto key = std::make_pair(topo.text, capacity);
        const auto cached = extentCache_.find(key);
        if (cached != extentCache_.end())
            return cached->second;
        std::optional<DeviceExtent> extent;
        try {
            const Topology built =
                topo.path.empty() ? makeFromSpec(topo.text, capacity)
                                  : loadTopoFile(topo.path, capacity);
            extent = DeviceExtent{built.totalCapacity(),
                                  built.trapCount()};
        } catch (const QccdError &err) {
            // Reached only for devices whose syntax checked out but
            // whose construction fails (e.g. a broken `.topo` file).
            if (reportedDevices_.insert(topo.text).second)
                add(LintSeverity::Error, "bad-topology", *topo.at,
                    err.what());
        }
        extentCache_.emplace(key, extent);
        return extent;
    }

    void checkFit(const std::vector<const SweepSite *> &apps,
                  const std::vector<const SweepSite *> &topologies,
                  std::vector<int> capacities,
                  const std::vector<int> &buffers)
    {
        if (apps.empty() || topologies.empty())
            return;
        if (capacities.empty()) // DesignPoint's default, grid-wide
            capacities.push_back(DesignPoint{}.trapCapacity);
        const int buffer =
            buffers.empty()
                ? HardwareParams{}.bufferSlots
                : *std::min_element(buffers.begin(), buffers.end());
        for (const SweepSite *topo : topologies) {
            for (const int capacity : capacities) {
                const auto extent = deviceExtent(*topo, capacity);
                if (!extent)
                    continue;
                for (const SweepSite *app : apps) {
                    const auto qubits = appQubits(*app);
                    if (!qubits)
                        continue;
                    const std::string what =
                        "application '" + app->text + "' (" +
                        std::to_string(*qubits) + " qubits) ";
                    const std::string device =
                        "device '" + topo->text + "' at capacity " +
                        std::to_string(capacity) + " (total capacity " +
                        std::to_string(extent->totalCapacity) + ")";
                    if (*qubits > extent->totalCapacity)
                        add(LintSeverity::Error, "app-does-not-fit",
                            *app->at, what + "cannot fit " + device);
                    else if (*qubits > extent->totalCapacity -
                                           buffer * extent->traps)
                        add(LintSeverity::Warning, "tight-fit", *app->at,
                            what + "only fits " + device +
                                " by shrinking the " +
                                std::to_string(buffer) +
                                " buffer slots per trap");
                }
            }
        }
    }

    const std::string &origin_;
    LintReport &report_;

    std::map<std::string, std::optional<int>> qubitCache_;
    std::map<std::pair<std::string, int>, std::optional<DeviceExtent>>
        extentCache_;
    std::set<std::string> reportedDevices_;
};

} // namespace

std::string
LintDiagnostic::toString() const
{
    std::ostringstream out;
    out << origin;
    if (line > 0) {
        out << ":" << line;
        if (column > 0)
            out << ":" << column;
    }
    out << ": "
        << (severity == LintSeverity::Error ? "error" : "warning")
        << ": " << message << " [" << code << "]";
    return out.str();
}

size_t
LintReport::errorCount() const
{
    return static_cast<size_t>(std::count_if(
        diagnostics.begin(), diagnostics.end(),
        [](const LintDiagnostic &d) {
            return d.severity == LintSeverity::Error;
        }));
}

size_t
LintReport::warningCount() const
{
    return diagnostics.size() - errorCount();
}

std::string
LintReport::toString() const
{
    std::string out;
    for (const LintDiagnostic &diag : diagnostics) {
        out += diag.toString();
        out += '\n';
    }
    return out;
}

void
lintSweepText(const std::string &text, const std::string &origin,
              const std::string &base_dir, LintReport &report,
              SweepLintSummary *summary)
{
    ++report.filesChecked;
    const size_t before = report.errorCount();
    try {
        JsonParser parser(text, origin);
        const JsonValue root = parser.parseDocument();
        const SweepSchemaWalk walk =
            walkSweepSchema(root, origin, base_dir);
        report.diagnostics.insert(report.diagnostics.end(),
                                  walk.findings.begin(),
                                  walk.findings.end());
        SweepSiteLinter linter(origin, report);
        for (const SweepGridSites &grid : walk.grids)
            linter.lintGrid(grid);
        if (summary != nullptr && report.errorCount() == before) {
            summary->name = walk.plan.name;
            summary->points = walk.plan.size();
            summary->expanded = true;
        }
    } catch (const ConfigError &err) {
        addFromConfigError(report, "parse", origin, err.what());
    } catch (const std::exception &err) {
        addDiag(report, LintSeverity::Error, "internal", origin, 0, 0,
                std::string("linter failure: ") + err.what());
    }
}

void
lintTopoText(const std::string &text, const std::string &origin,
             LintReport &report)
{
    ++report.filesChecked;
    try {
        static_cast<void>(parseTopo(text, origin,
                                    DesignPoint{}.trapCapacity));
    } catch (const ConfigError &err) {
        const size_t at = report.diagnostics.size();
        addFromConfigError(report, "topo-parse", origin, err.what());
        // Graph-invariant errors (connectivity, dangling junctions)
        // carry no line position; keep them distinguishable.
        if (report.diagnostics[at].line == 0)
            report.diagnostics[at].code = "topo-graph";
    } catch (const std::exception &err) {
        addDiag(report, LintSeverity::Error, "internal", origin, 0, 0,
                std::string("linter failure: ") + err.what());
    }
}

void
lintGoldenText(const std::string &text, const std::string &origin,
               LintReport &report, size_t *rows_out)
{
    ++report.filesChecked;
    if (rows_out != nullptr)
        *rows_out = 0;

    std::istringstream lines(text);
    std::string line;
    int line_no = 0;
    size_t rows = 0;
    const std::string header = sweepCsvHeader();
    const size_t columns = fieldCount(header);
    bool have_header = false;
    while (std::getline(lines, line)) {
        ++line_no;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty())
            continue;
        if (!have_header) {
            have_header = true;
            if (line != header)
                addDiag(report, LintSeverity::Error, "golden-header",
                        origin, line_no, 1,
                        "header drifted from sweepCsvHeader(): got \"" +
                            line + "\"");
            continue;
        }
        ++rows;
        if (fieldCount(line) != columns) {
            addDiag(report, LintSeverity::Error, "golden-columns",
                    origin, line_no, 1,
                    "row has " + std::to_string(fieldCount(line)) +
                        " fields, expected " + std::to_string(columns));
            continue;
        }
        // Numeric columns: capacity (index 2, integer) and every
        // metric from time_s onward (indices 5..16, doubles).
        size_t field = 0;
        size_t start = 0;
        while (start <= line.size()) {
            size_t end = line.find(',', start);
            if (end == std::string::npos)
                end = line.size();
            const bool numeric =
                field == 2 || (field >= 5 && field < columns);
            if (numeric) {
                const char *first = line.data() + start;
                const char *last = line.data() + end;
                bool ok = first != last;
                if (ok && field == 2) {
                    int v = 0;
                    const auto [p, ec] =
                        std::from_chars(first, last, v);
                    ok = ec == std::errc() && p == last;
                } else if (ok) {
                    double v = 0;
                    const auto [p, ec] =
                        std::from_chars(first, last, v);
                    ok = ec == std::errc() && p == last;
                }
                if (!ok)
                    addDiag(report, LintSeverity::Error,
                            "golden-number", origin, line_no,
                            static_cast<int>(start) + 1,
                            "field " + std::to_string(field + 1) +
                                " is not numeric: '" +
                                line.substr(start, end - start) + "'");
            }
            ++field;
            start = end + 1;
        }
    }
    if (!have_header) {
        addDiag(report, LintSeverity::Error, "golden-empty", origin, 0,
                0, "file has no header line");
    } else if (rows == 0) {
        addDiag(report, LintSeverity::Error, "golden-empty", origin, 0,
                0, "file has a header but no data rows");
    }
    if (!text.empty() && text.back() != '\n')
        addDiag(report, LintSeverity::Warning, "golden-truncated",
                origin, line_no, 1,
                "file does not end with a newline (torn final row?)");
    if (rows_out != nullptr)
        *rows_out = rows;
}

void
lintCacheBytes(const std::string &bytes, const std::string &origin,
               LintReport &report)
{
    ++report.filesChecked;
    try {
        const ResultStoreScan scan = scanResultStore(bytes);
        if (!scan.magicOk && !scan.headerTorn) {
            addDiag(report, LintSeverity::Error, "cache-magic", origin,
                    0, 0, "not a qccd result cache (bad magic)");
            return;
        }
        if (scan.headerTorn) {
            addDiag(report, LintSeverity::Warning, "cache-torn", origin,
                    0, 0,
                    "truncated header (" +
                        std::to_string(bytes.size()) + " of " +
                        std::to_string(ResultStore::kHeaderSize) +
                        " bytes; the store heals this on open)");
            return;
        }
        if (!scan.versionOk) {
            addDiag(report, LintSeverity::Error, "cache-version",
                    origin, 0, 0,
                    "schema version " + std::to_string(scan.version) +
                        "; this build reads version " +
                        std::to_string(ResultStore::kSchemaVersion) +
                        " (the store refuses this file)");
            return;
        }
        for (const ResultStoreDefect &defect : scan.defects)
            addDiag(report, LintSeverity::Error,
                    defect.reason == "frame" ? "cache-frame"
                                             : "cache-checksum",
                    origin, 0, 0,
                    "corrupt record at offset " +
                        std::to_string(defect.offset) + " (" +
                        std::to_string(defect.length) + " bytes, " +
                        defect.reason +
                        "; the store quarantines this on open)");
        if (scan.truncatedTail)
            addDiag(report, LintSeverity::Warning, "cache-torn", origin,
                    0, 0,
                    "incomplete final record at offset " +
                        std::to_string(scan.tornTailOffset) +
                        " (torn append; the store heals this on open)");
        // A structurally valid payload can still decode to nothing if
        // the schema drifts; surface that rather than claim clean.
        for (const ScannedResultRecord &record : scan.records) {
            Digest128 key;
            RunResult result;
            if (!ResultStore::decodeRecordPayload(record.payload, &key,
                                                  &result))
                addDiag(report, LintSeverity::Error, "cache-decode",
                        origin, 0, 0,
                        "record at offset " +
                            std::to_string(record.offset) +
                            " does not decode as a version-" +
                            std::to_string(ResultStore::kSchemaVersion) +
                            " payload");
        }
    } catch (const std::exception &err) {
        addDiag(report, LintSeverity::Error, "internal", origin, 0, 0,
                std::string("linter failure: ") + err.what());
    }
}

namespace
{

/** Read a whole file; diagnostic (not exception) on failure. */
std::optional<std::string>
slurp(const std::string &path, LintReport &report)
{
    std::ifstream in(path);
    if (!in.good()) {
        addDiag(report, LintSeverity::Error, "unreadable", path, 0, 0,
                "cannot read file");
        return std::nullopt;
    }
    std::ostringstream text;
    text << in.rdbuf();
    if (in.bad()) {
        addDiag(report, LintSeverity::Error, "unreadable", path, 0, 0,
                "error while reading file");
        return std::nullopt;
    }
    return text.str();
}

enum class ArtifactKind
{
    Sweep,
    Topo,
    Csv,
    Cache,
    None
};

/** What @p path lints as, by extension. */
ArtifactKind
artifactKind(const std::string &path)
{
    static const std::string kExtensions[] = {".sweep", ".topo", ".csv",
                                              ".qcache"};
    for (int kind = 0; kind < 4; ++kind) {
        const std::string &ext = kExtensions[kind];
        if (path.size() >= ext.size() &&
            path.compare(path.size() - ext.size(), ext.size(), ext) == 0)
            return static_cast<ArtifactKind>(kind);
    }
    return ArtifactKind::None;
}

} // namespace

LintReport
lintArtifacts(const std::vector<std::string> &paths)
{
    LintReport report;
    std::map<ArtifactKind, std::vector<std::string>> files;

    const auto classify = [&](const std::string &path) {
        const ArtifactKind kind = artifactKind(path);
        if (kind != ArtifactKind::None)
            files[kind].push_back(path);
        else
            addDiag(report, LintSeverity::Warning, "skipped", path, 0,
                    0,
                    "not a lintable artifact (expected .sweep, .topo, "
                    ".csv or .qcache)");
    };

    for (const std::string &arg : paths) {
        std::error_code ec;
        const auto status = std::filesystem::status(arg, ec);
        if (ec || !std::filesystem::exists(status)) {
            addDiag(report, LintSeverity::Error, "missing-file", arg, 0,
                    0, "path does not exist");
            continue;
        }
        if (std::filesystem::is_directory(status)) {
            std::vector<std::string> found;
            for (const auto &entry :
                 std::filesystem::recursive_directory_iterator(
                     arg, std::filesystem::directory_options::
                              skip_permission_denied, ec)) {
                if (!entry.is_regular_file(ec))
                    continue;
                std::string path = entry.path().string();
                if (artifactKind(path) != ArtifactKind::None)
                    found.push_back(std::move(path));
            }
            // Deterministic order regardless of directory enumeration.
            std::sort(found.begin(), found.end());
            for (const std::string &path : found)
                classify(path);
        } else {
            classify(arg);
        }
    }

    std::vector<SweepLintSummary> summaries;
    for (const std::string &path : files[ArtifactKind::Sweep]) {
        if (const auto text = slurp(path, report)) {
            SweepLintSummary summary;
            lintSweepText(*text, path, parentDir(path), report,
                          &summary);
            summaries.push_back(std::move(summary));
        }
    }
    for (const std::string &path : files[ArtifactKind::Topo])
        if (const auto text = slurp(path, report))
            lintTopoText(*text, path, report);

    for (const std::string &path : files[ArtifactKind::Cache])
        if (const auto text = slurp(path, report))
            lintCacheBytes(*text, path, report);

    std::map<std::string, std::pair<std::string, size_t>> goldenRows;
    for (const std::string &path : files[ArtifactKind::Csv]) {
        if (const auto text = slurp(path, report)) {
            size_t rows = 0;
            lintGoldenText(*text, path, report, &rows);
            // Search-report audits (<name>.search.csv) share the
            // sweep CSV schema and get the full header/row lint, but
            // they cover only the points the search really evaluated
            // — they are not goldens and must not trip the row-count
            // or orphan cross-checks.
            const std::string stem = fileStem(path);
            const bool searchReport =
                stem.size() > 7 &&
                stem.compare(stem.size() - 7, 7, ".search") == 0;
            if (!searchReport)
                goldenRows.emplace(stem, std::make_pair(path, rows));
        }
    }

    // Cross-artifact coverage: only meaningful when the invocation
    // sees both sides (e.g. `qccd_lint examples/ golden/`).
    if (!summaries.empty() && !goldenRows.empty()) {
        std::set<std::string> producedStems;
        for (const SweepLintSummary &summary : summaries) {
            if (!summary.expanded || summary.name.empty())
                continue;
            producedStems.insert(summary.name);
            const auto golden = goldenRows.find(summary.name);
            if (golden == goldenRows.end()) {
                addDiag(report, LintSeverity::Error, "missing-golden",
                        summary.name, 0, 0,
                        "spec \"" + summary.name +
                            "\" has no covering golden CSV");
                continue;
            }
            if (golden->second.second != summary.points)
                addDiag(report, LintSeverity::Error, "golden-rows",
                        golden->second.first, 0, 0,
                        "golden has " +
                            std::to_string(golden->second.second) +
                            " data rows but spec \"" + summary.name +
                            "\" expands to " +
                            std::to_string(summary.points) +
                            " points");
        }
        for (const auto &[stem, golden] : goldenRows)
            if (producedStems.count(stem) == 0)
                addDiag(report, LintSeverity::Warning, "golden-orphan",
                        golden.first, 0, 0,
                        "no linted .sweep spec produces this golden "
                        "(bench-only goldens are fine)");
    }
    return report;
}

} // namespace qccd
