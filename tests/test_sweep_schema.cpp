/**
 * @file
 * Differential check of the one `.sweep` schema walker's two modes:
 * for every text the spec fuzzers generate (plus pinned fixtures),
 * parseSweepPlan() throws exactly when walkSweepSchema() reports a
 * finding, and the thrown message is that walk's first finding
 * rendered as "origin:line:col: message". Clean walks also agree with
 * the parser on the plan's shape, and lintSweepText() counts the same
 * points without expanding them.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "core/lint.hpp"
#include "core/sweep_spec.hpp"
#include "spec_fuzz.hpp"

namespace qccd
{
namespace
{

const std::string kOrigin = "diff.sweep";

/** Outcome counts, so each corpus provably exercises both verdicts. */
struct Tally
{
    int accepted = 0;
    int rejected = 0;
};

void
expectModesAgree(const std::string &text, Tally &tally)
{
    SCOPED_TRACE("spec text:\n" + text);
    std::string thrown;
    bool threw = false;
    SweepPlan parsed;
    try {
        parsed = parseSweepPlan(text, kOrigin);
    } catch (const QccdError &err) {
        threw = true;
        thrown = err.what();
    }
    tally.accepted += threw ? 0 : 1;
    tally.rejected += threw ? 1 : 0;

    JsonParser parser(text, kOrigin);
    JsonValue root;
    try {
        root = parser.parseDocument();
    } catch (const ConfigError &err) {
        // Syntax errors stop both modes before the schema walk.
        EXPECT_TRUE(threw);
        EXPECT_EQ(thrown, err.what());
        return;
    }
    const SweepSchemaWalk walk = walkSweepSchema(root, kOrigin, "");
    ASSERT_EQ(threw, !walk.findings.empty()) << thrown;
    if (threw) {
        const LintDiagnostic &first = walk.findings.front();
        EXPECT_EQ(thrown, first.origin + ":" + std::to_string(first.line) +
                              ":" + std::to_string(first.column) + ": " +
                              first.message);
        return;
    }
    EXPECT_EQ(walk.plan.name, parsed.name);
    EXPECT_EQ(walk.plan.grids.size(), parsed.grids.size());
    EXPECT_EQ(walk.plan.size(), parsed.size());
    EXPECT_EQ(walk.grids.size(), parsed.grids.size());
}

TEST(SweepSchemaDifferential, GarbledValidSpecs)
{
    Rng rng(0x5eedf00dULL);
    Tally tally;
    for (int iter = 0; iter < 400; ++iter) {
        std::string text = spec_fuzz::randomValidSpecText(rng);
        spec_fuzz::mutate(text, rng);
        expectModesAgree(text, tally);
    }
    EXPECT_GT(tally.accepted, 0);
    EXPECT_GT(tally.rejected, 0);
}

TEST(SweepSchemaDifferential, LintFuzzSpecs)
{
    Rng rng(0x11177f00dULL);
    Tally tally;
    for (int iter = 0; iter < 400; ++iter) {
        std::string text = spec_fuzz::randomLintSpecText(rng);
        spec_fuzz::mutate(text, rng);
        expectModesAgree(text, tally);
    }
    EXPECT_GT(tally.accepted, 0);
    EXPECT_GT(tally.rejected, 0);
}

TEST(SweepSchemaDifferential, RandomBytes)
{
    Rng rng(0xbadcafeULL);
    Tally tally;
    for (int iter = 0; iter < 200; ++iter)
        expectModesAgree(spec_fuzz::randomBytes(rng), tally);
    EXPECT_GT(tally.rejected, 0);
}

/** Two 1024 x 600 grids: each under kMaxSweepPoints, the sum over. */
std::string
twoLargeGrids()
{
    std::ostringstream grid;
    grid << "{\"apps\": [\"qft\"], \"capacity\": [";
    for (int i = 0; i < 1024; ++i)
        grid << (i ? "," : "") << 2 + i;
    grid << "], \"buffer\": [";
    for (int i = 0; i < 600; ++i)
        grid << (i ? "," : "") << i;
    grid << "]}";
    return "{\"name\": \"x\", \"sweeps\": [" + grid.str() + ", " +
           grid.str() + "]}";
}

TEST(SweepSchemaDifferential, PinnedFixtures)
{
    const std::string grid = "{\"name\": \"x\", \"sweeps\": [{"
                             "\"apps\": [\"qft\"], ";
    Tally tally;
    for (const std::string &text :
         {grid + "\"params\": {\"buffer_slots\": 1.5}}]}",
          grid + "\"params\": {\"buffer_slots\": 3}}]}",
          grid + "\"capacity\": 1, \"buffer\": -1}]}",
          grid + "\"capacity\": [14, 1], \"buffer\": [0, -1]}]}",
          grid + "\"capacity\": 3e10}]}",
          grid + "\"capacity\": []}]}",
          grid + "\"params\": {\"warp_factor\": 9}}]}",
          grid + "\"params\": {\"buffer_slots\": -1}}]}",
          grid + "\"params\": [{\"recool_factor\": 0.5}, "
                 "{\"recool_factor\": 2}]}]}",
          grid + "\"params\": {\"heating_k1\": -0.1, "
                 "\"warp_factor\": 9}}]}",
          grid + "\"options\": {\"turbo\": true, "
                 "\"point_timeout_ms\": 0.5}}]}",
          grid + "\"topology\": \"topo:\"}]}",
          std::string("{\"name\": 7, \"sweeps\": 3}"),
          std::string("{\"name\": \"x\", \"search\": {\"seed\": -1, "
                      "\"eta\": 1, \"budget\": 1e300}, \"sweeps\": "
                      "[{\"apps\": \"qft\"}]}"),
          std::string("{\"name\": \"x\", \"search\": {\"seed\": "
                      "18446744073709551616}, \"sweeps\": "
                      "[{\"apps\": \"qft\"}]}"),
          twoLargeGrids()})
        expectModesAgree(text, tally);
    EXPECT_EQ(tally.accepted, 1);
}

TEST(SweepSchemaDifferential, CleanLintCountsThePlanPoints)
{
    // The summary's point count is the plan's size, not an expansion.
    const std::string text =
        "{\"name\": \"big\", \"sweeps\": [{\"apps\": [\"qft\", \"bv\"],"
        " \"capacity\": [14, 18, 22], \"buffer\": [0, 1, 2, 3]},"
        " {\"apps\": \"adder\"}]}";
    LintReport report;
    SweepLintSummary summary;
    lintSweepText(text, kOrigin, "", report, &summary);
    EXPECT_TRUE(report.clean()) << report.toString();
    EXPECT_TRUE(summary.expanded);
    EXPECT_EQ(summary.name, "big");
    EXPECT_EQ(summary.points, parseSweepPlan(text, kOrigin).size());
    EXPECT_EQ(summary.points, 25u);
}

} // namespace
} // namespace qccd
