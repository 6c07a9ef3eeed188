/**
 * @file
 * -affine-loop-order-opt (paper Section V-B2): loop permutation driven by
 * affine memory dependence analysis. Loops carrying recurrences are
 * permuted outward, maximizing the distance of loop-carried dependencies
 * in the flattened iteration space and thereby the achievable pipeline II.
 */

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "analysis/memory_analysis.h"
#include "transform/pass.h"

namespace scalehls {

namespace {

/** A dependence pair with the set of band dims absent from its subscripts
 * (any absent dim carries the dependence). */
struct DepPair
{
    std::vector<bool> absent;
};

/** One pair per store that shares its memref and (structurally equal)
 * subscripts with another access: the pair depends on the store's
 * subscripts only, and permutationScore takes the minimum over pairs,
 * so further partners of one store add nothing. Accesses are bucketed
 * by subscript hash instead of compared pairwise. */
std::vector<DepPair>
collectDepPairs(const std::vector<Operation *> &band)
{
    std::vector<DepPair> pairs;
    auto ivs = bandIVs(band);
    auto accesses = collectAccesses(band.front(), ivs);
    std::unordered_map<uint64_t, std::vector<const MemAccess *>> buckets;
    for (const MemAccess &access : accesses)
        if (access.normalized)
            buckets[subscriptsHash(access)].push_back(&access);

    for (const MemAccess &store : accesses) {
        if (!store.isWrite || !store.normalized)
            continue;
        const auto &bucket = buckets[subscriptsHash(store)];
        bool partnered = std::any_of(
            bucket.begin(), bucket.end(), [&](const MemAccess *other) {
                return other->op != store.op &&
                       other->memref == store.memref &&
                       sameSubscripts(*other, store);
            });
        if (!partnered)
            continue;
        DepPair pair;
        pair.absent.assign(band.size(), true);
        for (unsigned level = 0; level < band.size(); ++level)
            for (const auto &expr : store.indices)
                if (expr.involvesDim(level))
                    pair.absent[level] = false;
        bool any_absent = false;
        for (bool a : pair.absent)
            any_absent |= a;
        if (any_absent)
            pairs.push_back(std::move(pair));
    }
    return pairs;
}

/** The minimum flattened recurrence distance of the band under the
 * permutation perm (perm[i] = new position of old loop i). */
double
permutationScore(const std::vector<DepPair> &pairs,
                 const std::vector<int64_t> &trips,
                 const std::vector<unsigned> &perm)
{
    if (pairs.empty())
        return 0.0;
    unsigned n = perm.size();
    // trips by new position.
    std::vector<int64_t> new_trips(n, 1);
    for (unsigned old_pos = 0; old_pos < n; ++old_pos)
        new_trips[perm[old_pos]] = trips[old_pos];

    double min_distance = 1e300;
    for (const DepPair &pair : pairs) {
        // The carried loop is the innermost absent one (largest position).
        int carried = -1;
        for (unsigned old_pos = 0; old_pos < n; ++old_pos)
            if (pair.absent[old_pos])
                carried = std::max(carried,
                                   static_cast<int>(perm[old_pos]));
        double distance = 1;
        for (unsigned p = carried + 1; p < n; ++p)
            distance *= static_cast<double>(new_trips[p]);
        min_distance = std::min(min_distance, distance);
    }
    return min_distance;
}

} // namespace

bool
applyLoopPermutation(const std::vector<Operation *> &band,
                     const std::vector<unsigned> &perm_map)
{
    unsigned n = band.size();
    if (perm_map.size() != n || n < 2)
        return false;
    if (!isPerfectNest(band))
        return false;
    // perm_map must be a permutation.
    std::vector<bool> seen(n, false);
    for (unsigned p : perm_map) {
        if (p >= n || seen[p])
            return false;
        seen[p] = true;
    }
    bool identity = true;
    for (unsigned i = 0; i < n; ++i)
        identity &= (perm_map[i] == i);
    if (identity)
        return true;

    // Legality: a bound of old loop j referencing old IV i requires the new
    // position of i to stay outer: perm[i] < perm[j].
    for (unsigned j = 0; j < n; ++j) {
        AffineForOp loop(band[j]);
        for (Value *operand : loop.op()->operands()) {
            for (unsigned i = 0; i < n; ++i) {
                if (operand == AffineForOp(band[i]).inductionVar() &&
                    perm_map[i] >= perm_map[j])
                    return false;
            }
        }
    }

    // The loop ops stay in place; their bound/step/directive payloads are
    // permuted and IV uses are swapped accordingly.
    struct Payload
    {
        AffineMap lb, ub;
        std::vector<Value *> lb_ops, ub_ops;
        int64_t step;
        Attribute directive;
    };
    std::vector<Payload> payloads(n);
    for (unsigned i = 0; i < n; ++i) {
        AffineForOp loop(band[i]);
        payloads[i] = {loop.lowerBoundMap(), loop.upperBoundMap(),
                       loop.lowerBoundOperands(), loop.upperBoundOperands(),
                       loop.step(), loop.op()->attr(kLoopDirective)};
    }

    // Collect IV uses before rewriting (uses include bound operands, which
    // are handled by the payload move itself, so exclude the band ops).
    std::vector<std::vector<std::pair<Operation *, unsigned>>> iv_uses(n);
    for (unsigned i = 0; i < n; ++i) {
        Value *iv = AffineForOp(band[i]).inductionVar();
        for (Operation *user : iv->users()) {
            bool is_band_op = std::find(band.begin(), band.end(), user) !=
                              band.end();
            if (is_band_op)
                continue;
            for (unsigned k = 0; k < user->numOperands(); ++k)
                if (user->operand(k) == iv)
                    iv_uses[i].emplace_back(user, k);
        }
    }

    // Install payload of old loop i onto the physical loop at position
    // perm_map[i], remapping IV references inside bounds.
    auto remapBoundOperands = [&](std::vector<Value *> &operands) {
        for (Value *&operand : operands)
            for (unsigned i = 0; i < n; ++i)
                if (operand == AffineForOp(band[i]).inductionVar())
                    operand = AffineForOp(band[perm_map[i]]).inductionVar();
    };
    for (unsigned i = 0; i < n; ++i) {
        Payload payload = payloads[i];
        remapBoundOperands(payload.lb_ops);
        remapBoundOperands(payload.ub_ops);
        AffineForOp target(band[perm_map[i]]);
        target.setLowerBound(payload.lb, payload.lb_ops);
        target.setUpperBound(payload.ub, payload.ub_ops);
        target.setStep(payload.step);
        if (payload.directive)
            target.op()->setAttr(kLoopDirective, payload.directive);
        else
            target.op()->removeAttr(kLoopDirective);
    }

    // Swap body IV uses: a use of old IV i becomes the IV of the physical
    // loop at position perm_map[i].
    for (unsigned i = 0; i < n; ++i) {
        Value *new_iv = AffineForOp(band[perm_map[i]]).inductionVar();
        for (auto [user, operand_idx] : iv_uses[i])
            user->setOperand(operand_idx, new_iv);
    }
    return true;
}

bool
applyLoopOrderOpt(const std::vector<Operation *> &band)
{
    unsigned n = band.size();
    if (n < 2 || !isPerfectNest(band))
        return false;

    auto pairs = collectDepPairs(band);
    if (pairs.empty())
        return false;

    std::vector<int64_t> trips;
    for (Operation *loop : band)
        trips.push_back(getTripCount(AffineForOp(loop)).value_or(1));

    // Exhaustive search over permutations (bands are shallow); try
    // candidates best-first since some permutations may be illegal.
    std::vector<unsigned> order(n);
    std::iota(order.begin(), order.end(), 0);
    double identity_score = permutationScore(pairs, trips, order);

    std::vector<std::pair<double, std::vector<unsigned>>> candidates;
    std::vector<unsigned> perm = order;
    do {
        candidates.emplace_back(permutationScore(pairs, trips, perm),
                                perm);
    } while (std::next_permutation(perm.begin(), perm.end()));
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const auto &a, const auto &b) {
                         return a.first > b.first;
                     });

    for (const auto &[score, candidate] : candidates) {
        if (score <= identity_score)
            return false; // Nothing beats the current order.
        if (applyLoopPermutation(band, candidate))
            return true;
    }
    return false;
}

} // namespace scalehls
