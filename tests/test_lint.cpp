/**
 * @file
 * Tests for the qccd_lint artifact analyzer (core/lint.hpp): every
 * documented diagnostic code is pinned against a minimal fixture, the
 * cross-artifact checks are exercised through lintArtifacts over a
 * temp tree, and fuzzed/mutated artifacts must never make the linter
 * throw — diagnostics are its only failure channel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/rng.hpp"
#include "core/export.hpp"
#include "core/lint.hpp"
#include "core/sweep_spec.hpp"
#include "spec_fuzz.hpp"

namespace qccd
{
namespace
{

LintReport
lintSpec(const std::string &text)
{
    LintReport report;
    lintSweepText(text, "spec", "", report);
    return report;
}

/** The first diagnostic carrying @p code, or nullptr. */
const LintDiagnostic *
diag(const LintReport &report, const std::string &code)
{
    for (const LintDiagnostic &d : report.diagnostics)
        if (d.code == code)
            return &d;
    return nullptr;
}

::testing::AssertionResult
hasCode(const LintReport &report, const std::string &code)
{
    if (diag(report, code) != nullptr)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "no diagnostic [" << code << "] in:\n"
           << report.toString();
}

// ---------------------------------------------------------------------
// Pinned diagnostics: each documented code fires on a minimal fixture.
// ---------------------------------------------------------------------

TEST(LintSweep, ParseErrorIsPositionedDiagnostic)
{
    const LintReport report = lintSpec("{\"name\": \"x\",\n  !}");
    ASSERT_TRUE(hasCode(report, "parse"));
    const LintDiagnostic &d = *diag(report, "parse");
    EXPECT_EQ(d.origin, "spec");
    EXPECT_EQ(d.line, 2);
    EXPECT_EQ(d.column, 3);
    EXPECT_FALSE(report.clean());
}

TEST(LintSweep, UnknownKeysAtBothLevels)
{
    const LintReport report = lintSpec(
        "{\"name\": \"x\", \"frobnicate\": 1,\n"
        " \"sweeps\": [{\"apps\": [\"qft\"], \"colour\": 3}]}");
    ASSERT_TRUE(hasCode(report, "unknown-key"));
    // Both the spec-level and the grid-level unknown key are reported
    // in one pass — the linter does not stop at the first finding.
    size_t unknown = 0;
    for (const LintDiagnostic &d : report.diagnostics)
        unknown += d.code == "unknown-key" ? 1 : 0;
    EXPECT_EQ(unknown, 2u);
}

TEST(LintSweep, UnknownOptionAndParam)
{
    const LintReport report = lintSpec(
        "{\"name\": \"x\", \"sweeps\": [{\"apps\": [\"qft\"],"
        " \"options\": {\"turbo\": true},"
        " \"params\": {\"warp_factor\": 9}}]}");
    EXPECT_TRUE(hasCode(report, "unknown-option"));
    EXPECT_TRUE(hasCode(report, "unknown-param"));
}

TEST(LintSweep, BadValueKinds)
{
    const LintReport report = lintSpec(
        "{\"name\": 7, \"sweeps\": [{\"apps\": [\"qft\"],"
        " \"capacity\": \"big\"}]}");
    EXPECT_TRUE(hasCode(report, "bad-kind"));
}

TEST(LintSweep, EmptyAxisIsUnreachable)
{
    const LintReport report = lintSpec(
        "{\"name\": \"x\", \"sweeps\": [{\"apps\": [\"qft\"],"
        " \"capacity\": []}]}");
    ASSERT_TRUE(hasCode(report, "empty-axis"));
    EXPECT_NE(diag(report, "empty-axis")->message.find("cross-product"),
              std::string::npos);
}

TEST(LintSweep, DuplicateAxisValueIsWarningOnly)
{
    const LintReport report = lintSpec(
        "{\"name\": \"x\", \"sweeps\": [{\"apps\": [\"qft\"],"
        " \"capacity\": [14, 18, 14]}]}");
    ASSERT_TRUE(hasCode(report, "duplicate-axis-value"));
    EXPECT_EQ(diag(report, "duplicate-axis-value")->severity,
              LintSeverity::Warning);
    EXPECT_TRUE(report.clean()) << report.toString();
}

TEST(LintSweep, UnknownNamesAcrossAxes)
{
    const LintReport report = lintSpec(
        "{\"name\": \"x\", \"sweeps\": [{\"apps\": [\"nonesuch\"],"
        " \"gate\": \"ZZ\", \"reorder\": \"XY\","
        " \"policy\": \"fancy\"}]}");
    EXPECT_TRUE(hasCode(report, "unknown-app"));
    EXPECT_TRUE(hasCode(report, "unknown-gate"));
    EXPECT_TRUE(hasCode(report, "unknown-reorder"));
    EXPECT_TRUE(hasCode(report, "unknown-policy"));
    EXPECT_EQ(report.errorCount(), 4u);
}

TEST(LintSweep, BadTopologyAndMissingFiles)
{
    const LintReport report = lintSpec(
        "{\"name\": \"x\", \"sweeps\": ["
        "{\"apps\": [\"qft\"], \"topology\": \"hexagon:3\"},"
        "{\"apps\": [\"qasm:/nonexistent/f.qasm\"],"
        " \"topology\": \"topo:/nonexistent/d.topo\"}]}");
    EXPECT_TRUE(hasCode(report, "bad-topology"));
    size_t missing = 0;
    for (const LintDiagnostic &d : report.diagnostics)
        missing += d.code == "missing-file" ? 1 : 0;
    EXPECT_EQ(missing, 2u) << report.toString();
}

TEST(LintSweep, CapacityAndBufferBounds)
{
    const LintReport report = lintSpec(
        "{\"name\": \"x\", \"sweeps\": [{\"apps\": [\"qft\"],"
        " \"capacity\": 1, \"buffer\": -1}]}");
    EXPECT_TRUE(hasCode(report, "bad-capacity"));
    EXPECT_TRUE(hasCode(report, "bad-buffer"));
}

TEST(LintSweep, GridPastExpansionCapIsFlagged)
{
    // 1100 x 1000 > kMaxSweepPoints (2^20): flagged statically, no
    // expansion attempted.
    std::ostringstream spec;
    spec << "{\"name\": \"x\", \"sweeps\": [{\"apps\": [\"qft\"],"
            " \"capacity\": [";
    for (int i = 0; i < 1100; ++i)
        spec << (i ? "," : "") << 2 + i;
    spec << "], \"buffer\": [";
    for (int i = 0; i < 1000; ++i)
        spec << (i ? "," : "") << i;
    spec << "]}]}";
    EXPECT_TRUE(hasCode(lintSpec(spec.str()), "grid-too-large"));
}

TEST(LintSweep, NonIntegralIntegerParamIsBadKind)
{
    // buffer_slots is an integer parameter: the parser rejects 1.5, so
    // lint must too, without a summary forcing a second parse.
    const LintReport report = lintSpec(
        "{\"name\": \"x\", \"sweeps\": [{\"apps\": [\"qft\"],"
        " \"params\": {\"buffer_slots\": 1.5}}]}");
    ASSERT_TRUE(hasCode(report, "bad-kind"));
    EXPECT_NE(diag(report, "bad-kind")->message.find("integer value"),
              std::string::npos);
    EXPECT_EQ(report.errorCount(), 1u) << report.toString();
}

TEST(LintSweep, OutOfRangeParamIsBadParamValue)
{
    // Ranges are schema too: these used to lint clean and then fail
    // every point at run time. The finding sits at the params object.
    const LintReport report = lintSpec(
        "{\"name\": \"x\", \"sweeps\": [{\"apps\": [\"qft\"],\n"
        " \"params\": [{\"recool_factor\": 1}, {\"recool_factor\": 2}]},\n"
        " {\"apps\": [\"bv\"], \"params\": {\"buffer_slots\": -1}}]}");
    ASSERT_EQ(report.errorCount(), 2u) << report.toString();
    for (const LintDiagnostic &d : report.diagnostics)
        EXPECT_EQ(d.code, "bad-param-value") << report.toString();
    EXPECT_EQ(report.diagnostics[0].line, 2);
    EXPECT_EQ(report.diagnostics[0].column, 35); // the second object
    EXPECT_NE(report.diagnostics[0].message.find("recool factor"),
              std::string::npos);
    EXPECT_EQ(report.diagnostics[1].line, 3);
    EXPECT_NE(report.diagnostics[1].message.find("buffer slots"),
              std::string::npos);
}

TEST(LintSweep, GridsPastTheCapTogetherAreFlagged)
{
    // Two 1024 x 600 grids: each fits under kMaxSweepPoints (2^20),
    // their sum does not.
    std::ostringstream grid;
    grid << "{\"apps\": [\"qft\"], \"capacity\": [";
    for (int i = 0; i < 1024; ++i)
        grid << (i ? "," : "") << 2 + i;
    grid << "], \"buffer\": [";
    for (int i = 0; i < 600; ++i)
        grid << (i ? "," : "") << i;
    grid << "]}";
    const LintReport report =
        lintSpec("{\"name\": \"x\", \"sweeps\": [" + grid.str() + ", " +
                 grid.str() + "]}");
    ASSERT_TRUE(hasCode(report, "grid-too-large"));
    EXPECT_EQ(report.errorCount(), 1u) << report.toString();
}

TEST(LintSweep, FitAnalysisAgainstDeviceCapacity)
{
    // qft is 64 qubits. linear:2 at capacity 4 holds 8 ions: error.
    // linear:6 at capacity 12 holds 72, but 6 traps x 2 buffer slots
    // leaves 60: fits only by shrinking the buffer — warning.
    const LintReport report = lintSpec(
        "{\"name\": \"x\", \"sweeps\": ["
        "{\"apps\": [\"qft\"], \"topology\": \"linear:2\","
        " \"capacity\": 4},"
        "{\"apps\": [\"qft\"], \"topology\": \"linear:6\","
        " \"capacity\": 12}]}");
    ASSERT_TRUE(hasCode(report, "app-does-not-fit"));
    ASSERT_TRUE(hasCode(report, "tight-fit"));
    EXPECT_EQ(diag(report, "tight-fit")->severity,
              LintSeverity::Warning);
    EXPECT_EQ(report.errorCount(), 1u) << report.toString();
}

TEST(LintSweep, CleanSpecExpandsForCrossChecks)
{
    SweepLintSummary summary;
    LintReport report;
    lintSweepText("{\"name\": \"tiny\", \"sweeps\": [{"
                  "\"apps\": [\"qft\", \"bv\"],"
                  " \"capacity\": [14, 18, 22]}]}",
                  "spec", "", report, &summary);
    EXPECT_TRUE(report.clean()) << report.toString();
    EXPECT_TRUE(summary.expanded);
    EXPECT_EQ(summary.name, "tiny");
    EXPECT_EQ(summary.points, 6u);
}

TEST(LintTopo, ParseAndGraphErrors)
{
    LintReport report;
    lintTopoText("trap a\ntrap a\n", "dev.topo", report);
    ASSERT_TRUE(hasCode(report, "topo-parse"));
    EXPECT_EQ(diag(report, "topo-parse")->line, 2);

    LintReport graph;
    lintTopoText("trap a\ntrap b\n", "dev.topo", graph);
    EXPECT_TRUE(hasCode(graph, "topo-graph"));
}

TEST(LintGolden, HeaderRowAndNumberChecks)
{
    const std::string header = sweepCsvHeader();

    LintReport drift;
    lintGoldenText("app,time\nqft,1\n", "g.csv", drift);
    EXPECT_TRUE(hasCode(drift, "golden-header"));

    LintReport empty;
    lintGoldenText(header + "\n", "g.csv", empty);
    EXPECT_TRUE(hasCode(empty, "golden-empty"));

    LintReport cols;
    lintGoldenText(header + "\nqft,linear:6,22\n", "g.csv", cols);
    EXPECT_TRUE(hasCode(cols, "golden-columns"));

    // A full-width row whose capacity field is not a number.
    std::string row = "qft,linear:6,many";
    for (int i = 3; i < 17; ++i)
        row += ",1";
    LintReport num;
    size_t rows = 0;
    lintGoldenText(header + "\n" + row + "\n", "g.csv", num, &rows);
    ASSERT_TRUE(hasCode(num, "golden-number"));
    EXPECT_EQ(rows, 1u);
}

// ---------------------------------------------------------------------
// Cross-artifact checks through lintArtifacts over a temp tree.
// ---------------------------------------------------------------------

class LintTreeTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        root_ = std::filesystem::temp_directory_path() /
                ("qccd_lint_test_" +
                 std::to_string(::testing::UnitTest::GetInstance()
                                    ->random_seed()) +
                 "_" + std::to_string(reinterpret_cast<uintptr_t>(this)));
        std::filesystem::create_directories(root_);
    }

    void TearDown() override
    {
        std::error_code ec;
        std::filesystem::remove_all(root_, ec);
    }

    void write(const std::string &rel, const std::string &text)
    {
        std::ofstream out(root_ / rel);
        out << text;
    }

    std::string path(const std::string &rel)
    {
        return (root_ / rel).string();
    }

    std::filesystem::path root_;
};

TEST_F(LintTreeTest, CoverageAndRowCountChecks)
{
    const std::string header = sweepCsvHeader();
    std::string row = "qft,linear:6,22";
    for (int i = 3; i < 17; ++i)
        row += ",1";

    // covered: 2 points, golden has 2 rows -> clean.
    write("covered.sweep",
          "{\"name\": \"covered\", \"sweeps\": [{"
          "\"apps\": [\"qft\"], \"capacity\": [14, 18]}]}");
    write("covered.csv", header + "\n" + row + "\n" + row + "\n");
    // uncovered: no golden at all -> missing-golden.
    write("uncovered.sweep",
          "{\"name\": \"uncovered\", \"sweeps\": [{"
          "\"apps\": [\"qft\"]}]}");
    // short: golden exists but has 1 row for 2 points -> golden-rows.
    write("short.sweep",
          "{\"name\": \"short\", \"sweeps\": [{"
          "\"apps\": [\"qft\"], \"capacity\": [14, 18]}]}");
    write("short.csv", header + "\n" + row + "\n");
    // orphan golden no spec produces -> warning only.
    write("orphan.csv", header + "\n" + row + "\n");

    const LintReport report = lintArtifacts({root_.string()});
    EXPECT_TRUE(hasCode(report, "missing-golden"));
    EXPECT_TRUE(hasCode(report, "golden-rows"));
    ASSERT_TRUE(hasCode(report, "golden-orphan"));
    EXPECT_EQ(diag(report, "golden-orphan")->severity,
              LintSeverity::Warning);
    EXPECT_EQ(report.errorCount(), 2u) << report.toString();
    EXPECT_EQ(report.filesChecked, 6);
}

TEST_F(LintTreeTest, NonexistentPathIsDiagnosticNotException)
{
    const LintReport report = lintArtifacts({path("nope.sweep")});
    EXPECT_TRUE(hasCode(report, "missing-file"));
    EXPECT_FALSE(report.clean());
}

TEST_F(LintTreeTest, CommittedTreeArtifactsAreLintClean)
{
    // The repo's own examples/ and golden/ must stay error-free; this
    // is the same gate CI runs via the qccd_lint binary.
    const std::string source_dir = QCCD_LINT_TEST_SOURCE_DIR;
    const std::string examples = source_dir + "/examples";
    const std::string golden = source_dir + "/golden";
    ASSERT_TRUE(std::filesystem::exists(examples));
    ASSERT_TRUE(std::filesystem::exists(golden));
    const LintReport report = lintArtifacts({examples, golden});
    EXPECT_TRUE(report.clean()) << report.toString();
    EXPECT_GE(report.filesChecked, 20);
}

// ---------------------------------------------------------------------
// Fuzz: mutated artifacts must never make the linter throw.
// ---------------------------------------------------------------------

TEST(LintFuzz, MutatedSpecsNeverCrashTheLinter)
{
    Rng rng(0x11177f00dULL);
    int clean = 0;
    for (int iter = 0; iter < 400; ++iter) {
        std::string text = spec_fuzz::randomLintSpecText(rng);
        spec_fuzz::mutate(text, rng);
        LintReport report;
        SweepLintSummary summary;
        // Must not throw; ASSERT_NO_THROW would hide which iteration.
        try {
            lintSweepText(text, "fuzz", "", report, &summary);
        } catch (...) {
            FAIL() << "linter threw on iteration " << iter
                   << " input:\n" << text;
        }
        clean += report.clean() ? 1 : 0;
        // A well-formed report: counts sum, no code is empty.
        EXPECT_EQ(report.errorCount() + report.warningCount(),
                  report.diagnostics.size());
        for (const LintDiagnostic &d : report.diagnostics)
            EXPECT_FALSE(d.code.empty());
    }
    // Unmutated iterations (the default branch) stay clean for valid
    // app names, so both outcomes are exercised.
    EXPECT_GT(clean, 0);
}

TEST(LintFuzz, MutatedTopoAndGoldenNeverCrashTheLinter)
{
    Rng rng(0x70b0f00dULL);
    for (int iter = 0; iter < 400; ++iter) {
        std::string topo = "name dev\ntrap a 14\ntrap b\njunction j\n"
                           "edge a j\nedge j b 2\n";
        std::string golden = sweepCsvHeader() + "\nqft,linear:6,22";
        for (int i = 3; i < 17; ++i)
            golden += ",1";
        golden += "\n";
        spec_fuzz::mutate(topo, rng);
        spec_fuzz::mutate(golden, rng);
        LintReport report;
        try {
            lintTopoText(topo, "fuzz.topo", report);
            lintGoldenText(golden, "fuzz.csv", report);
        } catch (...) {
            FAIL() << "linter threw on iteration " << iter;
        }
    }
}

} // namespace
} // namespace qccd
