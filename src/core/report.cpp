#include "core/report.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/table.hpp"

namespace qccd
{

std::string
summarizeRun(const std::string &app, const DesignPoint &design,
             const RunResult &result)
{
    std::ostringstream out;
    out << app << " on " << design.label() << ": time "
        << formatSig(result.totalTime() / kSecondUs, 4) << " s, fidelity "
        << formatSci(result.fidelity(), 3) << " (log " <<
        formatSig(result.sim.logFidelity, 4) << "), MS gates "
        << result.sim.counts.algorithmMs << " (+"
        << result.sim.counts.reorderMs << " reorder), shuttles "
        << result.sim.counts.shuttles << ", splits "
        << result.sim.counts.splits << ", max energy "
        << formatSig(result.sim.maxChainEnergy, 4) << " quanta";
    return out.str();
}

double
metricTimeSeconds(const RunResult &r)
{
    return r.totalTime() / kSecondUs;
}

double
metricFidelity(const RunResult &r)
{
    return r.fidelity();
}

double
metricLogFidelity(const RunResult &r)
{
    return r.sim.logFidelity;
}

double
metricMaxEnergy(const RunResult &r)
{
    return r.sim.maxChainEnergy;
}

double
metricCommTimeSeconds(const RunResult &r)
{
    return r.communicationTime() / kSecondUs;
}

double
metricComputeTimeSeconds(const RunResult &r)
{
    return r.computeOnlyTime / kSecondUs;
}

std::string
seriesTable(const std::vector<SweepPoint> &points, MetricFn metric,
            const std::string &metric_name, bool scientific)
{
    // Column set: sorted unique capacities, in first-seen order.
    std::vector<int> caps;
    std::vector<std::string> apps;
    for (const SweepPoint &p : points) {
        if (std::find(caps.begin(), caps.end(),
                      p.design.trapCapacity) == caps.end())
            caps.push_back(p.design.trapCapacity);
        if (std::find(apps.begin(), apps.end(), p.application) ==
            apps.end())
            apps.push_back(p.application);
    }
    std::sort(caps.begin(), caps.end());

    std::map<std::pair<std::string, int>, double> values;
    for (const SweepPoint &p : points)
        values[{p.application, p.design.trapCapacity}] =
            metric(p.result);

    TextTable table;
    std::vector<std::string> header{metric_name + " \\ capacity"};
    for (int c : caps)
        header.push_back(std::to_string(c));
    table.addRow(std::move(header));
    for (const std::string &app : apps) {
        std::vector<std::string> row{app};
        for (int c : caps) {
            const auto it = values.find({app, c});
            if (it == values.end())
                row.push_back("-");
            else
                row.push_back(scientific ? formatSci(it->second, 3)
                                         : formatSig(it->second, 4));
        }
        table.addRow(std::move(row));
    }
    return table.render();
}

std::string
rankingTable(std::vector<SweepPoint> points, size_t show)
{
    std::erase_if(points, [](const SweepPoint &p) { return !p.ok(); });
    std::stable_sort(points.begin(), points.end(),
                     [](const SweepPoint &a, const SweepPoint &b) {
                         const double fa = a.result.sim.logFidelity;
                         const double fb = b.result.sim.logFidelity;
                         if (fa != fb)
                             return fa > fb;
                         return a.result.totalTime() <
                                b.result.totalTime();
                     });
    TextTable table;
    table.addRow({"rank", "design", "fidelity", "log-fid", "time (s)"});
    for (size_t i = 0; i < std::min(show, points.size()); ++i) {
        const RunResult &r = points[i].result;
        table.addRow({std::to_string(i + 1), points[i].design.label(),
                      formatSci(r.fidelity(), 3),
                      formatSig(r.sim.logFidelity, 4),
                      formatSig(r.totalTime() / kSecondUs, 4)});
    }
    return table.render();
}

} // namespace qccd
