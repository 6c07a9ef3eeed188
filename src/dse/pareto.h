/**
 * @file
 * Pareto frontier utilities over the latency-area tradeoff space
 * (paper Section V-E2). Area follows Fig. 6 and uses the DSP count as the
 * primary component with LUTs as a tiebreaker.
 */

#ifndef SCALEHLS_DSE_PARETO_H
#define SCALEHLS_DSE_PARETO_H

#include <limits>
#include <optional>
#include <vector>

#include "estimate/qor_estimator.h"

namespace scalehls {

/** The latency/area sentinel carried by infeasible (non-materializable or
 * non-analyzable) design points. Large enough to lose every dominance
 * comparison, small enough that sums of a few sentinels cannot overflow
 * int64_t. Shared by every strategy and the evaluator — do not re-derive
 * it locally. */
inline constexpr int64_t kInfeasibleQoR =
    std::numeric_limits<int64_t>::max() / 4;

/** A point in the latency-area space. */
struct QoRPoint
{
    int64_t latency = 0;
    int64_t area = 0;
};

/** Scalar area of a resource usage (DSP-dominated, as in paper Fig. 6). */
int64_t areaOf(const ResourceUsage &usage);

/** Sentinel-guarded addition for cross-kernel QoR composition. Any
 * operand at or above kInfeasibleQoR poisons the sum to exactly
 * kInfeasibleQoR (one infeasible stage makes the composed design
 * infeasible — it must never overflow-add into a "valid" number), and a
 * sum of feasible operands saturates at the sentinel instead of
 * exceeding it. Operands must be non-negative. */
int64_t addQoRSaturating(int64_t a, int64_t b);

/** Checked QoR arithmetic for cycle counts and trip-count products: the
 * exact a * b (a + b), or nullopt when it would reach kInfeasibleQoR or
 * overflow int64_t. The estimator turns nullopt into an infeasible
 * point, so a latency that would have wrapped can never win a
 * frontier. */
std::optional<int64_t> mulQoRChecked(int64_t a, int64_t b);
std::optional<int64_t> addQoRChecked(int64_t a, int64_t b);

/** a dominates b: no worse in both objectives, strictly better in one.
 * Equal points (same latency AND same area) do not dominate each other —
 * paretoIndices mirrors exactly this definition, keeping every member of
 * an identical-QoR tie group on the frontier. */
bool dominates(const QoRPoint &a, const QoRPoint &b);

/** Indices of all points not dominated by any other point, in ascending
 * (latency, area) order; index order breaks exact ties. Identical points
 * all appear (none dominates its duplicates), so the selected set is
 * invariant under permutation of the input. */
std::vector<size_t> paretoIndices(const std::vector<QoRPoint> &points);

} // namespace scalehls

#endif // SCALEHLS_DSE_PARETO_H
