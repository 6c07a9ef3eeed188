#include "dse/pareto.h"

#include <algorithm>
#include <limits>

namespace scalehls {

int64_t
areaOf(const ResourceUsage &usage)
{
    // DSPs dominate the area tradeoff for compute kernels; LUTs break
    // ties so distinct designs rarely collapse onto one point.
    return usage.dsp * 100000 + usage.lut / 10;
}

int64_t
addQoRSaturating(int64_t a, int64_t b)
{
    if (a >= kInfeasibleQoR || b >= kInfeasibleQoR)
        return kInfeasibleQoR;
    // Both operands are below max/4, so the sum cannot overflow; it can
    // only cross the sentinel, where it saturates.
    int64_t sum = a + b;
    return sum >= kInfeasibleQoR ? kInfeasibleQoR : sum;
}

std::optional<int64_t>
mulQoRChecked(int64_t a, int64_t b)
{
    int64_t product = 0;
    if (__builtin_mul_overflow(a, b, &product) || product >= kInfeasibleQoR)
        return std::nullopt;
    return product;
}

std::optional<int64_t>
addQoRChecked(int64_t a, int64_t b)
{
    int64_t sum = 0;
    if (__builtin_add_overflow(a, b, &sum) || sum >= kInfeasibleQoR)
        return std::nullopt;
    return sum;
}

bool
dominates(const QoRPoint &a, const QoRPoint &b)
{
    if (a.latency > b.latency || a.area > b.area)
        return false;
    return a.latency < b.latency || a.area < b.area;
}

std::vector<size_t>
paretoIndices(const std::vector<QoRPoint> &points)
{
    // The frontier is exactly the set of points no other point
    // dominates() — including EVERY member of a group of identical
    // (equal-latency, equal-area) points, since equal points do not
    // dominate each other. Membership is a property of a point's value
    // against the set, so the selected points are invariant under input
    // permutation (the returned indices permute with the input).
    std::vector<size_t> order(points.size());
    for (size_t i = 0; i < points.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        if (points[a].latency != points[b].latency)
            return points[a].latency < points[b].latency;
        if (points[a].area != points[b].area)
            return points[a].area < points[b].area;
        return a < b; // Deterministic output order within a tie group.
    });

    // Sweep latency groups in ascending order. Within a group only the
    // minimum-area points can survive (anything else is dominated inside
    // the group); they survive iff strictly below every lower-latency
    // point's area (equal area there means the lower-latency point
    // dominates).
    std::vector<size_t> frontier;
    int64_t best_area = std::numeric_limits<int64_t>::max();
    size_t i = 0;
    while (i < order.size()) {
        size_t group_end = i;
        while (group_end < order.size() &&
               points[order[group_end]].latency ==
                   points[order[i]].latency)
            ++group_end;
        int64_t group_area = points[order[i]].area; // Sorted: group min.
        if (group_area < best_area) {
            for (size_t j = i; j < group_end &&
                               points[order[j]].area == group_area;
                 ++j)
                frontier.push_back(order[j]);
            best_area = group_area;
        }
        i = group_end;
    }
    return frontier;
}

} // namespace scalehls
