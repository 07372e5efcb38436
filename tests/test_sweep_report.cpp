/** @file Tests for sweep helpers and report formatting. */

#include <gtest/gtest.h>

#include <cmath>

#include "core/report.hpp"
#include "core/sweep_engine.hpp"
#include "core/sweep_spec.hpp"

namespace qccd
{
namespace
{

/** Every point of a one-grid spec on linear:3 over @p apps and
 *  capacities 26 and 30 (paper-scale BV has 64 qubits; three traps of
 *  26/30 fit it). */
std::vector<SweepPoint>
smallSweep(const std::string &apps)
{
    SweepEngine engine;
    return SweepSpecRunner(engine).collect(
        parseSweepSpec("{\"name\": \"small\", \"sweeps\": [{\"apps\": " +
                       apps +
                       ", \"topology\": \"linear:3\", "
                       "\"capacity\": [26, 30]}]}")
            .points);
}

TEST(Sweep, RunsGridOfPoints)
{
    const auto points = smallSweep("\"bv\"");
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].application, "bv");
    EXPECT_EQ(points[0].design.trapCapacity, 26);
    EXPECT_EQ(points[1].design.trapCapacity, 30);
    for (const SweepPoint &p : points) {
        EXPECT_GT(p.result.totalTime(), 0.0);
        EXPECT_GT(p.result.fidelity(), 0.0);
    }
}

TEST(Report, SummaryMentionsKeyNumbers)
{
    DesignPoint dp = DesignPoint::linear(3, 8);
    Circuit c(4, "tiny");
    c.ms(0, 1);
    c.measureAll();
    const RunResult r = runToolflow(c, dp);
    const std::string s = summarizeRun("tiny", dp, r);
    EXPECT_NE(s.find("tiny"), std::string::npos);
    EXPECT_NE(s.find("linear:3"), std::string::npos);
    EXPECT_NE(s.find("fidelity"), std::string::npos);
}

TEST(Report, SeriesTableHasAppRowsAndCapacityColumns)
{
    const auto points = smallSweep("[\"bv\", \"adder\"]");
    const std::string table =
        seriesTable(points, metricFidelity, "fidelity");
    EXPECT_NE(table.find("bv"), std::string::npos);
    EXPECT_NE(table.find("adder"), std::string::npos);
    EXPECT_NE(table.find("26"), std::string::npos);
    EXPECT_NE(table.find("30"), std::string::npos);
}

TEST(Report, RankingTableRanksBestFirstAndShowsTopRows)
{
    // Three points with distinct fidelities, listed worst first, plus
    // a tie on fidelity broken by runtime and a failed point.
    std::vector<SweepPoint> points(5);
    const double log_fid[] = {-3.0, -1.0, -2.0, -1.0, 0.0};
    for (size_t i = 0; i < points.size(); ++i) {
        points[i].design = DesignPoint::linear(3, 10 + static_cast<int>(i));
        points[i].result.sim.logFidelity = log_fid[i];
        points[i].result.sim.makespan = 1e6;
    }
    points[3].result.sim.makespan = 0.5e6; // ties [1], but faster
    points[4].outcome = PointOutcome::Error;

    const std::string table = rankingTable(points, 3);
    EXPECT_EQ(table.rfind("rank", 0), 0u) << table;
    const size_t first = table.find("cap=13");
    const size_t second = table.find("cap=11");
    const size_t third = table.find("cap=12");
    ASSERT_NE(first, std::string::npos) << table;
    ASSERT_NE(second, std::string::npos) << table;
    ASSERT_NE(third, std::string::npos) << table;
    EXPECT_LT(first, second);
    EXPECT_LT(second, third);
    // Only three data rows: the worst point and the failed one are cut.
    EXPECT_EQ(table.find("cap=10"), std::string::npos) << table;
    EXPECT_EQ(table.find("cap=14"), std::string::npos) << table;
}

TEST(Report, MetricExtractors)
{
    RunResult r;
    r.sim.makespan = 2e6; // 2 s
    r.sim.logFidelity = -1.0;
    r.sim.maxChainEnergy = 42;
    r.computeOnlyTime = 0.5e6;
    EXPECT_DOUBLE_EQ(metricTimeSeconds(r), 2.0);
    EXPECT_DOUBLE_EQ(metricLogFidelity(r), -1.0);
    EXPECT_DOUBLE_EQ(metricMaxEnergy(r), 42.0);
    EXPECT_DOUBLE_EQ(metricComputeTimeSeconds(r), 0.5);
    EXPECT_DOUBLE_EQ(metricCommTimeSeconds(r), 1.5);
    EXPECT_NEAR(metricFidelity(r), std::exp(-1.0), 1e-12);
}

} // namespace
} // namespace qccd
