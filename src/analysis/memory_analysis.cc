#include "analysis/memory_analysis.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "support/utils.h"

namespace scalehls {

int64_t
PartitionPlan::totalBanks() const
{
    int64_t banks = 1;
    for (int64_t f : factors)
        banks *= f;
    return banks;
}

bool
PartitionPlan::isTrivial() const
{
    for (int64_t f : factors)
        if (f > 1)
            return false;
    return true;
}

namespace {

/** Express one subscript operand as an affine expression over band IVs. */
std::optional<AffineExpr>
operandExpr(Value *v, const std::vector<Value *> &band_ivs)
{
    for (unsigned i = 0; i < band_ivs.size(); ++i)
        if (band_ivs[i] == v)
            return getAffineDimExpr(i);
    if (auto c = getConstantIntValue(v))
        return getAffineConstantExpr(*c);
    return std::nullopt;
}

MemAccess
makeAccess(Operation *op, const std::vector<Value *> &band_ivs)
{
    MemAccess access;
    access.op = op;
    access.memref = accessedMemRef(op);
    access.isWrite = isMemoryWrite(op);
    access.normalized = true;

    // Subscript operands follow the memref (and a store's value).
    unsigned first = access.isWrite ? 2 : 1;
    std::vector<AffineExpr> dim_repls(op->numOperands() - first);
    for (unsigned i = 0; i < dim_repls.size(); ++i) {
        auto expr = operandExpr(op->operand(first + i), band_ivs);
        if (!expr) {
            access.normalized = false;
            dim_repls[i] = getAffineDimExpr(i);
        } else {
            dim_repls[i] = std::move(*expr);
        }
    }
    if (!op->is(ops::AffineLoad) && !op->is(ops::AffineStore)) {
        // memref.load/store: identity subscripts.
        access.indices = std::move(dim_repls);
        return access;
    }
    const AffineMap &map = op->attr(kMap).getAffineMap();
    access.indices.reserve(map.numResults());
    for (const auto &result : map.results())
        access.indices.push_back(result.replaceDimsAndSymbols(dim_repls));
    return access;
}

/** Number the subscript classes of one collectAccesses result. */
void
assignSubscriptClasses(std::vector<MemAccess> &accesses)
{
    // Classes by coefficient-vector hash, confirmed by comparing the
    // vectors in place (a hash collision must not merge classes).
    using Bucket = std::vector<std::pair<const AffineExprNode *, int32_t>>;
    std::unordered_map<uint64_t, Bucket> classes;
    int32_t next = 0;
    for (MemAccess &access : accesses) {
        access.linearClass.assign(access.indices.size(), kNonLinearSubscript);
        for (size_t d = 0; d < access.indices.size(); ++d) {
            const AffineExprNode &node = access.indices[d].node();
            if (!node.linValid)
                continue;
            auto &bucket = classes[node.linHash];
            int32_t id = kNonLinearSubscript;
            for (const auto &[rep, rep_id] : bucket)
                if (rep->linCoeffs == node.linCoeffs)
                    id = rep_id;
            if (id == kNonLinearSubscript) {
                id = next++;
                bucket.emplace_back(&node, id);
            }
            access.linearClass[d] = id;
        }
    }
}

} // namespace

std::vector<MemAccess>
collectAccesses(Operation *scope, const std::vector<Value *> &band_ivs)
{
    std::vector<MemAccess> accesses;
    scope->walk([&](Operation *op) {
        if (isMemoryAccess(op))
            accesses.push_back(makeAccess(op, band_ivs));
    });
    assignSubscriptClasses(accesses);
    return accesses;
}

const AccessTable::Entry *
AccessTable::find(Operation *scope, const std::vector<Value *> &ivs) const
{
    auto it = entries_.find(scope);
    if (it == entries_.end())
        return nullptr;
    for (const auto &entry : it->second)
        if (entry->ivs == ivs)
            return entry.get();
    return nullptr;
}

const std::vector<MemAccess> &
AccessTable::get(Operation *scope, const std::vector<Value *> &ivs)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (const Entry *entry = find(scope, ivs))
            return entry->accesses;
    }
    // Build outside the lock; should two threads race on one key, the
    // first insert wins (both built the same content).
    auto built = std::make_unique<Entry>();
    built->ivs = ivs;
    built->accesses = collectAccesses(scope, ivs);
    std::lock_guard<std::mutex> lock(mutex_);
    ++builds_;
    if (const Entry *entry = find(scope, ivs))
        return entry->accesses;
    auto &slot = entries_[scope];
    slot.push_back(std::move(built));
    return slot.back()->accesses;
}

size_t
AccessTable::builds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return builds_;
}

size_t
AccessTable::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    size_t size = 0;
    for (const auto &[scope, entries] : entries_)
        size += entries.size();
    return size;
}

std::optional<LinearSubscriptKey>
linearSubscriptKey(const MemAccess &access)
{
    if (!access.normalized)
        return std::nullopt;
    LinearSubscriptKey key;
    key.reserve(access.indices.size());
    for (unsigned d = 0; d < access.indices.size(); ++d) {
        if (access.linearClass[d] == kNonLinearSubscript)
            return std::nullopt;
        key.emplace_back(access.linearClass[d], access.constant(d));
    }
    return key;
}

size_t
LinearSubscriptKeyHash::operator()(const LinearSubscriptKey &key) const
{
    uint64_t h = key.size();
    for (const auto &[cls, constant] : key) {
        h = (h ^ static_cast<uint64_t>(cls)) * 0x100000001b3ull;
        h = (h ^ static_cast<uint64_t>(constant)) * 0xff51afd7ed558ccdull;
    }
    return static_cast<size_t>(h ^ (h >> 29));
}

std::vector<std::pair<Value *, AccessGroup>>
groupByMemRef(const std::vector<MemAccess> &accesses)
{
    std::vector<std::pair<Value *, AccessGroup>> groups;
    for (const MemAccess &access : accesses) {
        auto it = std::find_if(groups.begin(), groups.end(), [&](auto &g) {
            return g.first == access.memref;
        });
        if (it == groups.end()) {
            groups.push_back({access.memref, {&access}});
        } else {
            it->second.push_back(&access);
        }
    }
    return groups;
}

bool
sameSubscripts(const MemAccess &a, const MemAccess &b)
{
    if (a.indices.size() != b.indices.size())
        return false;
    for (unsigned i = 0; i < a.indices.size(); ++i)
        if (!a.indices[i].equals(b.indices[i]))
            return false;
    return true;
}

uint64_t
subscriptsHash(const MemAccess &access)
{
    uint64_t h = access.indices.size();
    for (const AffineExpr &e : access.indices)
        h = (h ^ e.hash()) * 0x100000001b3ull;
    return h;
}

namespace {

/** Deduplicate accesses by (structurally equal) subscript vector,
 * bucketed by hash; non-normalized accesses are always considered
 * unique. First occurrences keep their order. */
AccessGroup
uniqueAccesses(const AccessGroup &accesses)
{
    AccessGroup unique;
    std::unordered_map<uint64_t, AccessGroup> seen;
    for (const MemAccess *access : accesses) {
        if (access->normalized) {
            auto &bucket = seen[subscriptsHash(*access)];
            bool duplicate = false;
            for (const MemAccess *other : bucket)
                duplicate = duplicate || sameSubscripts(*other, *access);
            if (duplicate)
                continue;
            bucket.push_back(access);
        }
        unique.push_back(access);
    }
    return unique;
}

} // namespace

PartitionPlan
computePartitionPlan(Value *memref, const AccessGroup &accesses)
{
    const auto &shape = memref->type().shape();
    unsigned rank = shape.size();
    PartitionPlan plan;
    plan.kinds.assign(rank, PartitionKind::None);
    plan.factors.assign(rank, 1);

    auto unique = uniqueAccesses(accesses);
    if (unique.size() < 2)
        return plan;

    for (unsigned d = 0; d < rank; ++d) {
        // Structurally unique subscript expressions along this dimension
        // (bucketed by hash), each with its linear class.
        std::vector<std::pair<const AffineExpr *, int32_t>> dim_exprs;
        std::unordered_map<uint64_t, std::vector<const AffineExpr *>> seen;
        bool any_unknown = false;
        for (const MemAccess *access : unique) {
            if (!access->normalized || d >= access->indices.size()) {
                any_unknown = true;
                continue;
            }
            const AffineExpr &e = access->indices[d];
            auto &bucket = seen[e.hash()];
            bool duplicate = false;
            for (const AffineExpr *other : bucket)
                duplicate = duplicate || other->equals(e);
            if (duplicate)
                continue;
            bucket.push_back(&e);
            dim_exprs.emplace_back(&e, access->linearClass[d]);
        }
        int64_t num_unique = static_cast<int64_t>(dim_exprs.size()) +
                             (any_unknown ? 1 : 0);
        if (num_unique < 2)
            continue;

        // Max pairwise constant distance (paper Eq. 1 denominator - 1):
        // known exactly when every unique subscript is linear in one
        // class, where it is the span of the constants.
        bool known = !any_unknown;
        int64_t lo = 0, hi = 0;
        for (size_t i = 0; known && i < dim_exprs.size(); ++i) {
            auto [e, cls] = dim_exprs[i];
            known = cls != kNonLinearSubscript && cls == dim_exprs[0].second;
            if (!known)
                break;
            int64_t c = (*e)->linConst;
            lo = i ? std::min(lo, c) : c;
            hi = i ? std::max(hi, c) : c;
        }

        int64_t factor = std::min<int64_t>(num_unique, shape[d]);
        if (factor <= 1)
            continue;
        if (known && num_unique >= hi - lo + 1) {
            // P = Accesses / (maxDist + 1) >= 1 -> cyclic.
            plan.kinds[d] = PartitionKind::Cyclic;
        } else {
            plan.kinds[d] = PartitionKind::Block;
        }
        plan.factors[d] = factor;
    }
    return plan;
}

AffineMap
buildPartitionMap(const PartitionPlan &plan,
                  const std::vector<int64_t> &shape)
{
    if (plan.isTrivial())
        return AffineMap();
    unsigned rank = shape.size();
    std::vector<AffineExpr> results(2 * rank);
    for (unsigned d = 0; d < rank; ++d) {
        AffineExpr dim = getAffineDimExpr(d);
        int64_t f = plan.factors[d];
        switch (plan.kinds[d]) {
          case PartitionKind::None:
            results[d] = getAffineConstantExpr(0);
            results[rank + d] = dim;
            break;
          case PartitionKind::Cyclic:
            results[d] = affineMod(dim, f);
            results[rank + d] = affineFloorDiv(dim, f);
            break;
          case PartitionKind::Block: {
            int64_t block = ceilDiv(shape[d], f);
            results[d] = affineFloorDiv(dim, block);
            results[rank + d] = affineMod(dim, block);
            break;
          }
        }
    }
    return AffineMap(rank, 0, std::move(results));
}

PartitionPlan
decodePartitionMap(const AffineMap &map, const std::vector<int64_t> &shape)
{
    unsigned rank = shape.size();
    PartitionPlan plan;
    plan.kinds.assign(rank, PartitionKind::None);
    plan.factors.assign(rank, 1);
    if (map.empty() || map.numResults() != 2 * rank)
        return plan;
    for (unsigned d = 0; d < rank; ++d) {
        AffineExpr part = map.result(d);
        if (part.isConstant())
            continue;
        if (part.kind() == AffineExprKind::Mod &&
            part.rhs().isConstant()) {
            plan.kinds[d] = PartitionKind::Cyclic;
            plan.factors[d] = part.rhs().constantValue();
        } else if (part.kind() == AffineExprKind::FloorDiv &&
                   part.rhs().isConstant()) {
            int64_t block = part.rhs().constantValue();
            plan.kinds[d] = PartitionKind::Block;
            plan.factors[d] = ceilDiv(shape[d], block);
        }
    }
    return plan;
}

std::vector<AffineExpr>
bankIndexExprs(const AffineMap &layout,
               const std::vector<AffineExpr> &indices)
{
    std::vector<AffineExpr> banks;
    if (layout.empty())
        return banks;
    unsigned rank = indices.size();
    assert(layout.numResults() == 2 * rank);
    for (unsigned d = 0; d < rank; ++d)
        banks.push_back(
            layout.result(d).replaceDimsAndSymbols(indices));
    return banks;
}

std::string
subscriptKey(const MemAccess &access)
{
    std::string key;
    for (const AffineExpr &e : access.indices) {
        if (LinearFormView form = e.linearForm()) {
            key += 'L';
            for (const auto &[pos, coeff] : *form.coeffs) {
                appendInt(key, pos);
                key += '*';
                appendInt(key, coeff);
                key += '+';
            }
            appendInt(key, form.constant);
        } else {
            key += 'E';
            e.print(key);
        }
        key += '|';
    }
    return key;
}

std::vector<Recurrence>
findRecurrences(const std::vector<Operation *> &band, AccessTable &table)
{
    std::vector<Recurrence> recurrences;
    if (band.empty())
        return recurrences;
    const auto &accesses = table.get(band[0], bandIVs(band));

    // Trip counts for flattened-distance computation.
    std::vector<int64_t> trips;
    for (Operation *loop : band)
        trips.push_back(getTripCount(AffineForOp(loop)).value_or(1));

    auto flatDistance = [&](unsigned carried_level) {
        int64_t dist = 1;
        for (unsigned i = carried_level + 1; i < band.size(); ++i)
            dist *= trips[i];
        return dist;
    };

    // Bucket by (memref, address): a recurrence needs a write and
    // another access at the identical address, so one representative
    // pair per bucket suffices (all members share the same carried level
    // and path structure after unrolling). All-linear subscripts key on
    // their (class, constant) tuples; the rare non-linear ones on their
    // canonical string.
    struct Bucket
    {
        Operation *write = nullptr;
        Operation *other = nullptr;
        const MemAccess *sample = nullptr;
    };
    std::vector<Bucket> buckets;
    using KeyIds = std::unordered_map<LinearSubscriptKey, size_t,
                                      LinearSubscriptKeyHash>;
    std::unordered_map<Value *, KeyIds> linear_ids;
    std::map<std::pair<Value *, std::string>, size_t> other_ids;
    std::set<Value *> conservative; // Memrefs with unanalyzable writes.
    std::map<Value *, std::pair<Operation *, Operation *>> conservative_ops;

    for (const MemAccess &access : accesses) {
        if (!access.normalized) {
            auto &[w, o] = conservative_ops[access.memref];
            (access.isWrite ? w : o) = access.op;
            if (access.isWrite)
                conservative.insert(access.memref);
            continue;
        }
        size_t fresh = buckets.size();
        size_t id = fresh;
        if (auto key = linearSubscriptKey(access)) {
            auto &ids = linear_ids[access.memref];
            id = ids.emplace(std::move(*key), fresh).first->second;
        } else {
            auto name = std::make_pair(access.memref, subscriptKey(access));
            id = other_ids.emplace(std::move(name), fresh).first->second;
        }
        if (id == fresh)
            buckets.emplace_back();
        Bucket &bucket = buckets[id];
        bucket.sample = &access;
        if (access.isWrite && !bucket.write)
            bucket.write = access.op;
        else if (!access.isWrite && !bucket.other)
            bucket.other = access.op;
    }

    for (Value *memref : conservative) {
        auto [w, o] = conservative_ops[memref];
        recurrences.push_back(
            {w, o ? o : w, static_cast<unsigned>(band.size()) - 1, 1});
    }

    for (const Bucket &bucket : buckets) {
        if (!bucket.write)
            continue;
        // The innermost loop absent from the subscripts carries the
        // dependence with distance 1 at its level.
        int carried = -1;
        for (int level = static_cast<int>(band.size()) - 1; level >= 0;
             --level) {
            bool involved = false;
            for (const auto &e : bucket.sample->indices)
                involved |= e.involvesDim(level);
            if (!involved) {
                carried = level;
                break;
            }
        }
        if (carried < 0)
            continue; // Every iteration touches a distinct address.
        Operation *reader = bucket.other ? bucket.other : bucket.write;
        recurrences.push_back({bucket.write, reader,
                               static_cast<unsigned>(carried),
                               flatDistance(carried)});
    }
    return recurrences;
}

PartitionRelevance
partitionRelevantDims(Operation *band_root, AccessTable &table)
{
    PartitionRelevance relevant;

    // One scope per plan query the estimator makes; mirrors
    // estimateBand (whole band over the nest IVs) and minLoopII (each
    // pipelined leaf over its flattened chain's IVs). Dim d of a memref
    // is relevant iff some linear class along d holds two different
    // constants among its normalized, rank-matching accesses — exactly
    // the pairs whose known difference is nonzero.
    auto scan = [&](Operation *scope, const std::vector<Value *> &ivs) {
        const auto &accesses = table.get(scope, ivs);
        // Per memref and dim: the first constant seen in each class.
        using PerDim = std::vector<std::unordered_map<int32_t, int64_t>>;
        std::unordered_map<Value *, PerDim> first;
        for (const MemAccess &a : accesses) {
            Type t = a.memref->type();
            if (!t.isMemRef())
                continue;
            unsigned rank = t.rank();
            auto &mask =
                relevant.emplace(a.memref, std::vector<bool>(rank, false))
                    .first->second;
            if (!a.normalized || a.indices.size() != rank)
                continue; // possiblySameBank never reads the plan.
            auto &classes = first[a.memref];
            classes.resize(rank);
            for (unsigned d = 0; d < rank; ++d) {
                int32_t cls = a.linearClass[d];
                if (mask[d] || cls == kNonLinearSubscript)
                    continue;
                auto [it, inserted] = classes[d].emplace(cls, a.constant(d));
                if (!inserted && it->second != a.constant(d))
                    mask[d] = true;
            }
        }
    };

    scan(band_root, bandIVs(getLoopNest(band_root)));
    band_root->walk([&](Operation *op) {
        if (!op->is(ops::AffineFor) || !getLoopDirective(op).pipeline)
            return;
        // The maximal flatten chain ending at this pipelined leaf —
        // exactly the chain minLoopII normalizes over.
        std::vector<Operation *> chain = {op};
        for (Operation *parent = op->parentOp();
             isa(parent, ops::AffineFor) &&
             getLoopDirective(parent).flatten;
             parent = parent->parentOp())
            chain.insert(chain.begin(), parent);
        scan(op, bandIVs(chain));
    });
    return relevant;
}

} // namespace scalehls
