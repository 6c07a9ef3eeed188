/** @file Tests for loop and memory analyses. */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <thread>
#include <tuple>

#include "analysis/buffer_analysis.h"
#include "analysis/memory_analysis.h"
#include "dse/band_plan.h"
#include "dse/design_space.h"
#include "estimate/estimate_cache.h"
#include "estimate/qor_estimator.h"
#include "frontend/irgen.h"
#include "ir/builder.h"
#include "model/polybench.h"
#include "smith/generator.h"
#include "support/utils.h"
#include "transform/pass.h"

namespace scalehls {
namespace {

std::unique_ptr<Operation>
affineModule(const std::string &source)
{
    auto module = parseCToModule(source);
    raiseScfToAffine(module.get());
    return module;
}

TEST(LoopAnalysis, BandExtraction)
{
    auto module = affineModule(polybenchSource("gemm", 16));
    Operation *func = getTopFunc(module.get());
    auto bands = getLoopBands(func);
    ASSERT_EQ(bands.size(), 1u);
    EXPECT_EQ(bands[0].size(), 3u);
    EXPECT_FALSE(isPerfectNest(bands[0])); // C[i][j] *= beta in between.
    EXPECT_EQ(loopDepth(bands[0][2]), 2);
    EXPECT_TRUE(containsLoops(bands[0][0]));
    EXPECT_FALSE(containsLoops(bands[0][2]));
}

TEST(LoopAnalysis, MultiBand)
{
    auto module = affineModule(polybenchSource("bicg", 16));
    Operation *func = getTopFunc(module.get());
    auto bands = getLoopBands(func);
    ASSERT_EQ(bands.size(), 2u); // s-init loop + main nest.
    EXPECT_EQ(bands[0].size(), 1u);
    EXPECT_EQ(bands[1].size(), 2u);
}

TEST(LoopAnalysis, TripCounts)
{
    auto module = affineModule(polybenchSource("gemm", 32));
    Operation *func = getTopFunc(module.get());
    auto band = getLoopBands(func)[0];
    for (Operation *loop : band)
        EXPECT_EQ(getTripCount(AffineForOp(loop)), 32);
    EXPECT_EQ(getBandTripCount(band), 32 * 32 * 32);
}

TEST(LoopAnalysis, TriangularWorstCaseTrip)
{
    auto module = affineModule(polybenchSource("syrk", 16));
    Operation *func = getTopFunc(module.get());
    auto band = getLoopBands(func)[0];
    // j-loop: 0 <= j < i+1 with i in [0,15]: worst case 16.
    EXPECT_EQ(getTripCount(AffineForOp(band[1])), 16);
}

TEST(LoopAnalysis, IVRanges)
{
    auto module = affineModule(polybenchSource("trmm", 8));
    Operation *func = getTopFunc(module.get());
    auto band = getLoopBands(func)[0];
    auto i_range = getIVRange(AffineForOp(band[0]).inductionVar());
    ASSERT_TRUE(i_range);
    EXPECT_EQ(*i_range, (std::pair<int64_t, int64_t>{0, 7}));
    // k in [i+1, 8): min 1, max 7.
    auto k_range = getIVRange(AffineForOp(band[2]).inductionVar());
    ASSERT_TRUE(k_range);
    EXPECT_EQ(k_range->first, 1);
    EXPECT_EQ(k_range->second, 7);
}

TEST(MemoryAnalysis, CollectAndNormalize)
{
    auto module = affineModule(polybenchSource("gemm", 16));
    Operation *func = getTopFunc(module.get());
    auto band = getLoopBands(func)[0];
    auto accesses = collectAccesses(band[0], bandIVs(band));
    // C: load+store (beta), load+store (accum); A, B: one load each.
    EXPECT_EQ(accesses.size(), 6u);
    for (const MemAccess &access : accesses)
        EXPECT_TRUE(access.normalized);
    auto groups = groupByMemRef(accesses);
    EXPECT_EQ(groups.size(), 3u);
}

TEST(MemoryAnalysis, PartitionMetricCyclic)
{
    // Two accesses at distance 2 in dim 0 (paper SYRK example):
    // P = 2 / 2 = 1 -> cyclic with factor 2.
    auto module =
        affineModule("void k(float C[16][16]) {\n"
                     "  for (int i = 0; i < 8; i++)\n"
                     "    for (int j = 0; j < 16; j++) {\n"
                     "      C[2 * i][j] = 0.0;\n"
                     "      C[2 * i + 1][j] = 1.0;\n"
                     "    }\n"
                     "}");
    Operation *func = getTopFunc(module.get());
    auto band = getLoopBands(func)[0];
    auto accesses = collectAccesses(band[0], bandIVs(band));
    auto groups = groupByMemRef(accesses);
    ASSERT_EQ(groups.size(), 1u);
    PartitionPlan plan =
        computePartitionPlan(groups[0].first, groups[0].second);
    EXPECT_EQ(plan.kinds[0], PartitionKind::Cyclic);
    EXPECT_EQ(plan.factors[0], 2);
    EXPECT_EQ(plan.kinds[1], PartitionKind::None);
    EXPECT_EQ(plan.totalBanks(), 2);
}

TEST(MemoryAnalysis, PartitionMetricBlock)
{
    // Accesses at distance 8 with only 2 unique indices: P = 2/9 < 1 ->
    // block partition.
    auto module = affineModule("void k(float A[16]) {\n"
                               "  for (int i = 0; i < 8; i++) {\n"
                               "    A[i] = 0.0;\n"
                               "    A[i + 8] = 1.0;\n"
                               "  }\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    auto band = getLoopBands(func)[0];
    auto accesses = collectAccesses(band[0], bandIVs(band));
    auto groups = groupByMemRef(accesses);
    ASSERT_EQ(groups.size(), 1u);
    PartitionPlan plan =
        computePartitionPlan(groups[0].first, groups[0].second);
    EXPECT_EQ(plan.kinds[0], PartitionKind::Block);
    EXPECT_EQ(plan.factors[0], 2);
}

TEST(MemoryAnalysis, PartitionMapRoundTrip)
{
    PartitionPlan plan;
    plan.kinds = {PartitionKind::Cyclic, PartitionKind::None,
                  PartitionKind::Block};
    plan.factors = {4, 1, 2};
    std::vector<int64_t> shape = {16, 8, 10};
    AffineMap map = buildPartitionMap(plan, shape);
    EXPECT_EQ(map.numResults(), 6u);
    PartitionPlan decoded = decodePartitionMap(map, shape);
    EXPECT_EQ(decoded.kinds, plan.kinds);
    EXPECT_EQ(decoded.factors, plan.factors);

    // Bank of element (5, 3, 7): cyclic 5%4=1, none 0, block 7/5=1.
    auto banks = map.evaluate({5, 3, 7});
    EXPECT_EQ(banks[0], 1);
    EXPECT_EQ(banks[1], 0);
    EXPECT_EQ(banks[2], 1);
}

TEST(MemoryAnalysis, TrivialPlanHasNoLayout)
{
    PartitionPlan plan;
    plan.kinds = {PartitionKind::None};
    plan.factors = {1};
    EXPECT_TRUE(plan.isTrivial());
    EXPECT_TRUE(buildPartitionMap(plan, {8}).empty());
}

TEST(MemoryAnalysis, RecurrenceDetection)
{
    // GEMM: C[i][j] accumulation carried by k (innermost).
    auto module = affineModule(polybenchSource("gemm", 16));
    Operation *func = getTopFunc(module.get());
    auto band = getLoopBands(func)[0];
    AccessTable accesses;
    auto recurrences = findRecurrences(band, accesses);
    ASSERT_FALSE(recurrences.empty());
    bool carried_by_k = false;
    for (const Recurrence &rec : recurrences)
        carried_by_k |= (rec.carriedLevel == 2 && rec.flatDistance == 1);
    EXPECT_TRUE(carried_by_k);
}

TEST(MemoryAnalysis, NoRecurrenceWhenAllDimsUsed)
{
    auto module = affineModule("void k(float A[8][8]) {\n"
                               "  for (int i = 0; i < 8; i++)\n"
                               "    for (int j = 0; j < 8; j++)\n"
                               "      A[i][j] = A[i][j] * 2.0;\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    auto band = getLoopBands(func)[0];
    AccessTable accesses;
    EXPECT_TRUE(findRecurrences(band, accesses).empty());
}

/** Band roots of a function (analysis entry points). */
std::vector<Operation *>
bandRootsOf(Operation *func)
{
    std::vector<Operation *> roots;
    for (auto &band : getLoopBands(func))
        roots.push_back(band.front());
    return roots;
}

TEST(BufferAnalysis, BandLocalAlloc)
{
    // tmp's defs and uses are confined to the single band: band-local,
    // read somewhere, so cleanup keeps it.
    auto module = affineModule("void k(float A[16], float B[16]) {\n"
                               "  float tmp[16];\n"
                               "  for (int i = 0; i < 16; i++) {\n"
                               "    tmp[i] = A[i] * 2.0;\n"
                               "    B[i] = tmp[i] + 1.0;\n"
                               "  }\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    auto info = bandLocalAllocs(func, bandRootsOf(func));
    ASSERT_EQ(info.buffers.size(), 1u);
    const OwnedBuffer &tmp = info.buffers[0];
    EXPECT_EQ(tmp.ownership, BufferOwnership::BandLocal);
    EXPECT_EQ(tmp.owner, 0);
    EXPECT_TRUE(tmp.kept);
    EXPECT_FALSE(tmp.writeOnly);
    EXPECT_TRUE(info.allOwned);
    EXPECT_TRUE(info.eligible(/*dataflow_top=*/false));
    EXPECT_TRUE(info.eligible(/*dataflow_top=*/true));
}

TEST(BufferAnalysis, WriteOnlyBandLocalAllocIsDead)
{
    // A buffer only ever stored to: still band-local, but cleanup's
    // write-only-buffer elimination erases it (kept == false), which is
    // what the digest note and the composed memory account key off.
    auto module = affineModule("void k(float A[16]) {\n"
                               "  float tmp[16];\n"
                               "  for (int i = 0; i < 16; i++)\n"
                               "    tmp[i] = A[i];\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    auto info = bandLocalAllocs(func, bandRootsOf(func));
    ASSERT_EQ(info.buffers.size(), 1u);
    EXPECT_EQ(info.buffers[0].ownership, BufferOwnership::BandLocal);
    EXPECT_TRUE(info.buffers[0].writeOnly);
    EXPECT_FALSE(info.buffers[0].kept);
    EXPECT_EQ(info.digestNote(info.buffers[0].memref), "dead");
}

TEST(BufferAnalysis, SingleEdgeDataflowBuffer)
{
    // Producer band stores only, consumer band loads: exactly one
    // producer->consumer dataflow edge — a legal dataflow channel.
    auto module = affineModule("void k(float A[16], float B[16]) {\n"
                               "  float tmp[16];\n"
                               "  for (int i = 0; i < 16; i++)\n"
                               "    tmp[i] = A[i] * 2.0;\n"
                               "  for (int i = 0; i < 16; i++)\n"
                               "    B[i] = tmp[i] + 1.0;\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    auto info = bandLocalAllocs(func, bandRootsOf(func));
    ASSERT_EQ(info.buffers.size(), 1u);
    const OwnedBuffer &tmp = info.buffers[0];
    EXPECT_EQ(tmp.ownership, BufferOwnership::DataflowEdge);
    EXPECT_EQ(tmp.owner, 0);
    EXPECT_EQ(tmp.consumer, 1);
    EXPECT_TRUE(tmp.kept);
    EXPECT_EQ(info.digestNote(tmp.memref), "kept");
    EXPECT_TRUE(info.eligible(/*dataflow_top=*/false));
    EXPECT_TRUE(info.eligible(/*dataflow_top=*/true));
}

TEST(BufferAnalysis, MultiConsumerBroadcastChannel)
{
    // One store-only producer band feeding TWO load-only reader bands:
    // a broadcast channel. Legal under a dataflow top (readers cannot
    // write back, so no WAR/WAW hazard crosses the stage overlap).
    auto module = affineModule("void k(float A[16], float B[16],\n"
                               "       float C[16]) {\n"
                               "  float tmp[16];\n"
                               "  for (int i = 0; i < 16; i++)\n"
                               "    tmp[i] = A[i] * 2.0;\n"
                               "  for (int i = 0; i < 16; i++)\n"
                               "    B[i] = tmp[i] + 1.0;\n"
                               "  for (int i = 0; i < 16; i++)\n"
                               "    C[i] = tmp[i] * 3.0;\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    auto info = bandLocalAllocs(func, bandRootsOf(func));
    ASSERT_EQ(info.buffers.size(), 1u);
    const OwnedBuffer &tmp = info.buffers[0];
    EXPECT_EQ(tmp.ownership, BufferOwnership::MultiConsumer);
    EXPECT_EQ(tmp.owner, 0);
    EXPECT_EQ(tmp.bands, (std::vector<int>{0, 1, 2}));
    EXPECT_TRUE(tmp.kept);
    EXPECT_EQ(info.digestNote(tmp.memref), "kept");
    EXPECT_TRUE(info.eligible(/*dataflow_top=*/false));
    EXPECT_TRUE(info.eligible(/*dataflow_top=*/true));
}

TEST(BufferAnalysis, MultiConsumerRequiresReadOnlyReaders)
{
    // A later stage that also WRITES the channel is not a broadcast
    // reader: the buffer degrades to SharedChain, which a dataflow top
    // must reject.
    auto module = affineModule("void k(float A[16], float B[16],\n"
                               "       float C[16]) {\n"
                               "  float tmp[16];\n"
                               "  for (int i = 0; i < 16; i++)\n"
                               "    tmp[i] = A[i] * 2.0;\n"
                               "  for (int i = 0; i < 16; i++)\n"
                               "    tmp[i] = tmp[i] + B[i];\n"
                               "  for (int i = 0; i < 16; i++)\n"
                               "    C[i] = tmp[i] * 3.0;\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    auto info = bandLocalAllocs(func, bandRootsOf(func));
    ASSERT_EQ(info.buffers.size(), 1u);
    EXPECT_EQ(info.buffers[0].ownership, BufferOwnership::SharedChain);
    EXPECT_TRUE(info.eligible(/*dataflow_top=*/false));
    EXPECT_FALSE(info.eligible(/*dataflow_top=*/true));
}

TEST(BufferAnalysis, CrossBandSharedBuffer)
{
    // The lowered-DNN chain pattern: init-write, accumulate
    // (read+write), consume (read) across three bands. Owned — cleanup
    // stays band-determined — but NOT a single dataflow edge, so a
    // dataflow top must fall back while a sequential top may compose.
    auto module = affineModule("void k(float A[16], float B[16]) {\n"
                               "  float tmp[16];\n"
                               "  for (int i = 0; i < 16; i++)\n"
                               "    tmp[i] = 0.0;\n"
                               "  for (int i = 0; i < 16; i++)\n"
                               "    tmp[i] = tmp[i] + A[i];\n"
                               "  for (int i = 0; i < 16; i++)\n"
                               "    B[i] = tmp[i];\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    auto info = bandLocalAllocs(func, bandRootsOf(func));
    ASSERT_EQ(info.buffers.size(), 1u);
    const OwnedBuffer &tmp = info.buffers[0];
    EXPECT_EQ(tmp.ownership, BufferOwnership::SharedChain);
    EXPECT_EQ(tmp.bands, (std::vector<int>{0, 1, 2}));
    EXPECT_TRUE(tmp.kept);
    EXPECT_TRUE(info.allOwned);
    EXPECT_TRUE(info.eligible(/*dataflow_top=*/false));
    EXPECT_FALSE(info.eligible(/*dataflow_top=*/true));
}

TEST(BufferAnalysis, ReversedTwoBandPairIsNotAnEdge)
{
    // Read-before-write across two bands (an anti-dependence, not a
    // producer->consumer edge) must not classify as DataflowEdge.
    auto module = affineModule("void k(float A[16], float B[16]) {\n"
                               "  float tmp[16];\n"
                               "  for (int i = 0; i < 16; i++)\n"
                               "    B[i] = tmp[i];\n"
                               "  for (int i = 0; i < 16; i++)\n"
                               "    tmp[i] = A[i];\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    auto info = bandLocalAllocs(func, bandRootsOf(func));
    ASSERT_EQ(info.buffers.size(), 1u);
    EXPECT_EQ(info.buffers[0].ownership, BufferOwnership::SharedChain);
}

TEST(BufferAnalysis, EscapingPointerIneligible)
{
    // Passing the buffer to a call: a non-load/store user escapes
    // band-local reasoning — the function must take the slow path.
    auto module = affineModule("void k(float A[16], float B[16]) {\n"
                               "  float tmp[16];\n"
                               "  for (int i = 0; i < 16; i++)\n"
                               "    tmp[i] = A[i] * 2.0;\n"
                               "  for (int i = 0; i < 16; i++)\n"
                               "    B[i] = tmp[i] + 1.0;\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    Value *tmp = func->collect(ops::Alloc)[0]->result(0);
    auto bands = getLoopBands(func);
    Block *leaf = AffineForOp(getLoopNest(bands[1][0]).back()).body();
    OpBuilder builder(leaf, leaf->front());
    builder.create(std::string(ops::Call), {}, {tmp},
                   {{kCallee, Attribute(std::string("sink"))}});

    auto info = bandLocalAllocs(func, bandRootsOf(func));
    ASSERT_EQ(info.buffers.size(), 1u);
    EXPECT_EQ(info.buffers[0].ownership, BufferOwnership::Escaping);
    EXPECT_FALSE(info.allOwned);
    EXPECT_FALSE(info.eligible(/*dataflow_top=*/false));
    EXPECT_FALSE(info.eligible(/*dataflow_top=*/true));
}

TEST(BufferAnalysis, FlatScopeUserEscapes)
{
    // A store outside every band (here: a scalar's flat-scope init)
    // also escapes band-local reasoning.
    auto module = affineModule("void k(float A[16]) {\n"
                               "  float s = 3.0;\n"
                               "  for (int i = 0; i < 16; i++)\n"
                               "    A[i] = A[i] + s;\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    auto info = bandLocalAllocs(func, bandRootsOf(func));
    ASSERT_EQ(info.buffers.size(), 1u);
    EXPECT_EQ(info.buffers[0].ownership, BufferOwnership::Escaping);
    EXPECT_FALSE(info.allOwned);
}

TEST(BufferAnalysis, DeadAllocHasNoOwner)
{
    auto module = affineModule("void k(float A[16]) {\n"
                               "  for (int i = 0; i < 16; i++)\n"
                               "    A[i] = A[i] * 2.0;\n"
                               "}");
    Operation *func = getTopFunc(module.get());
    Block *body = funcBody(func);
    OpBuilder builder(body, body->back());
    createAlloc(builder, Type::memref({8}, Type::f32()));
    auto info = bandLocalAllocs(func, bandRootsOf(func));
    ASSERT_EQ(info.buffers.size(), 1u);
    EXPECT_EQ(info.buffers[0].ownership, BufferOwnership::Dead);
    EXPECT_FALSE(info.buffers[0].kept);
    EXPECT_TRUE(info.allOwned);
    EXPECT_TRUE(info.eligible(/*dataflow_top=*/true));
}

// ---------------------------------------------------------------------------
// Reference (pairwise) definitions of the access analyses. These are the
// original O(n^2) formulations: every pair of accesses compared through
// a structural tree walk and a constant difference of copied linear
// forms. The production analyses bucket subscripts by linear class and
// must agree with them exactly.
// ---------------------------------------------------------------------------

/** Structural equality by tree walk (no hashes). */
bool
refEquals(const AffineExpr &a, const AffineExpr &b)
{
    if (a.kind() != b.kind())
        return false;
    switch (a.kind()) {
      case AffineExprKind::Constant:
        return a.constantValue() == b.constantValue();
      case AffineExprKind::DimId:
      case AffineExprKind::SymbolId:
        return a.position() == b.position();
      default:
        return refEquals(a.lhs(), b.lhs()) && refEquals(a.rhs(), b.rhs());
    }
}

std::optional<int64_t>
refConstantDiff(const AffineExpr &a, const AffineExpr &b)
{
    LinearFormView fa = a.linearForm();
    LinearFormView fb = b.linearForm();
    if (fa && fb) {
        std::vector<std::pair<unsigned, int64_t>> ca = *fa.coeffs;
        std::vector<std::pair<unsigned, int64_t>> cb = *fb.coeffs;
        if (ca != cb)
            return std::nullopt;
        return fa.constant - fb.constant;
    }
    if (refEquals(a, b))
        return 0;
    return std::nullopt;
}

std::string
refSubscriptKey(const MemAccess &access)
{
    std::string key;
    for (const AffineExpr &e : access.indices) {
        if (LinearFormView form = e.linearForm()) {
            key += "L";
            for (const auto &[pos, coeff] : *form.coeffs)
                key += std::to_string(pos) + "*" + std::to_string(coeff) +
                       "+";
            key += std::to_string(form.constant);
        } else {
            key += "E" + e.toString();
        }
        key += "|";
    }
    return key;
}

bool
refPossiblySameBank(const MemAccess &a, const MemAccess &b,
                    const PartitionPlan &plan,
                    const std::vector<int64_t> &shape)
{
    if (!a.normalized || !b.normalized)
        return true;
    unsigned rank = shape.size();
    if (a.indices.size() != rank || b.indices.size() != rank)
        return true;
    for (unsigned d = 0; d < rank; ++d) {
        auto diff = refConstantDiff(a.indices[d], b.indices[d]);
        if (!diff)
            continue;
        int64_t c = *diff;
        switch (plan.kinds[d]) {
          case PartitionKind::None:
            break;
          case PartitionKind::Cyclic:
            if (euclidMod(c, plan.factors[d]) != 0)
                return false;
            break;
          case PartitionKind::Block: {
            int64_t block = ceilDiv(shape[d], plan.factors[d]);
            if (c != 0 && std::abs(c) >= block)
                return false;
            break;
          }
        }
    }
    return true;
}

int64_t
refGroupPressure(const std::vector<MemAccess> &accesses,
                 const PartitionPlan &plan,
                 const std::vector<int64_t> &shape, int ports)
{
    if (accesses.empty() || ports <= 0)
        return 0;
    std::vector<size_t> parent(accesses.size());
    std::iota(parent.begin(), parent.end(), 0);
    std::function<size_t(size_t)> find = [&](size_t x) {
        return parent[x] == x ? x : parent[x] = find(parent[x]);
    };
    for (size_t i = 0; i < accesses.size(); ++i)
        for (size_t j = i + 1; j < accesses.size(); ++j)
            if (refPossiblySameBank(accesses[i], accesses[j], plan, shape))
                parent[find(i)] = find(j);
    std::map<size_t, int64_t> sizes;
    for (size_t i = 0; i < accesses.size(); ++i)
        ++sizes[find(i)];
    int64_t pressure = 0;
    for (const auto &[root, count] : sizes)
        pressure = std::max(pressure, ceilDiv(count, ports));
    return pressure;
}

int64_t
refMemoryPortII(Operation *scope, const std::vector<Value *> &band_ivs)
{
    int64_t ii = 1;
    auto accesses = collectAccesses(scope, band_ivs);
    for (auto &[memref, group] : groupByMemRef(accesses)) {
        Type t = memref->type();
        if (!t.isMemRef())
            continue;
        PartitionPlan plan = decodePartitionMap(t.layout(), t.shape());
        MemKind kind = t.memorySpace();
        std::vector<MemAccess> reads, writes;
        std::set<std::string> seen;
        for (const MemAccess *access : group) {
            if (access->isWrite)
                writes.push_back(*access);
            else if (!access->normalized ||
                     seen.insert(refSubscriptKey(*access)).second)
                reads.push_back(*access);
        }
        if (kind == MemKind::BRAM_S2P || kind == MemKind::DRAM) {
            ii = std::max(ii, refGroupPressure(reads, plan, t.shape(),
                                               memReadPorts(kind)));
            ii = std::max(ii, refGroupPressure(writes, plan, t.shape(),
                                               memWritePorts(kind)));
        } else {
            std::vector<MemAccess> all = reads;
            all.insert(all.end(), writes.begin(), writes.end());
            int ports = kind == MemKind::BRAM_T2P ? 2 : 1;
            ii = std::max(ii, refGroupPressure(all, plan, t.shape(), ports));
        }
    }
    return ii;
}

PartitionRelevance
refPartitionRelevantDims(Operation *band_root)
{
    PartitionRelevance relevant;
    auto scan = [&](Operation *scope, const std::vector<Value *> &ivs) {
        auto accesses = collectAccesses(scope, ivs);
        for (auto &[memref, group] : groupByMemRef(accesses)) {
            if (!memref->type().isMemRef())
                continue;
            unsigned rank = memref->type().rank();
            auto &mask =
                relevant.emplace(memref, std::vector<bool>(rank, false))
                    .first->second;
            for (size_t i = 0; i < group.size(); ++i) {
                const MemAccess &a = *group[i];
                if (!a.normalized || a.indices.size() != rank)
                    continue;
                for (size_t j = i + 1; j < group.size(); ++j) {
                    const MemAccess &b = *group[j];
                    if (!b.normalized || b.indices.size() != rank)
                        continue;
                    for (unsigned d = 0; d < rank; ++d) {
                        auto diff =
                            refConstantDiff(a.indices[d], b.indices[d]);
                        if (diff && *diff != 0)
                            mask[d] = true;
                    }
                }
            }
        }
    };
    scan(band_root, bandIVs(getLoopNest(band_root)));
    band_root->walk([&](Operation *op) {
        if (!op->is(ops::AffineFor) || !getLoopDirective(op).pipeline)
            return;
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

PartitionPlan
refComputePartitionPlan(Value *memref, const AccessGroup &accesses)
{
    const auto &shape = memref->type().shape();
    unsigned rank = shape.size();
    PartitionPlan plan;
    plan.kinds.assign(rank, PartitionKind::None);
    plan.factors.assign(rank, 1);

    std::vector<const MemAccess *> unique;
    for (const MemAccess *access : accesses) {
        bool duplicate = false;
        for (const MemAccess *seen : unique) {
            if (!access->normalized || !seen->normalized ||
                seen->indices.size() != access->indices.size())
                continue;
            bool equal = true;
            for (unsigned i = 0; i < access->indices.size(); ++i)
                equal &= refEquals(seen->indices[i], access->indices[i]);
            duplicate |= equal;
        }
        if (!duplicate)
            unique.push_back(access);
    }
    if (unique.size() < 2)
        return plan;

    for (unsigned d = 0; d < rank; ++d) {
        std::vector<AffineExpr> dim_exprs;
        bool any_unknown = false;
        for (const MemAccess *access : unique) {
            if (!access->normalized || d >= access->indices.size()) {
                any_unknown = true;
                continue;
            }
            bool seen = false;
            for (const auto &e : dim_exprs)
                seen |= refEquals(e, access->indices[d]);
            if (!seen)
                dim_exprs.push_back(access->indices[d]);
        }
        int64_t num_unique = static_cast<int64_t>(dim_exprs.size()) +
                             (any_unknown ? 1 : 0);
        if (num_unique < 2)
            continue;
        int64_t max_dist = any_unknown ? -1 : 0;
        for (unsigned m = 0; m < dim_exprs.size() && max_dist >= 0; ++m)
            for (unsigned n = m + 1; n < dim_exprs.size(); ++n) {
                auto diff = refConstantDiff(dim_exprs[m], dim_exprs[n]);
                if (!diff) {
                    max_dist = -1;
                    break;
                }
                max_dist = std::max(max_dist, std::abs(*diff));
            }
        int64_t factor = std::min<int64_t>(num_unique, shape[d]);
        if (factor <= 1)
            continue;
        if (max_dist >= 0 && num_unique >= max_dist + 1)
            plan.kinds[d] = PartitionKind::Cyclic;
        else
            plan.kinds[d] = PartitionKind::Block;
        plan.factors[d] = factor;
    }
    return plan;
}

using RecurrenceTuple = std::tuple<Operation *, Operation *, unsigned,
                                   int64_t>;

std::vector<RecurrenceTuple>
refFindRecurrences(const std::vector<Operation *> &band)
{
    std::vector<RecurrenceTuple> out;
    if (band.empty())
        return out;
    auto accesses = collectAccesses(band[0], bandIVs(band));
    std::vector<int64_t> trips;
    for (Operation *loop : band)
        trips.push_back(getTripCount(AffineForOp(loop)).value_or(1));
    struct Bucket
    {
        Operation *write = nullptr;
        Operation *other = nullptr;
        const MemAccess *sample = nullptr;
    };
    std::map<std::pair<Value *, std::string>, Bucket> buckets;
    std::map<Value *, std::pair<Operation *, Operation *>> conservative;
    for (const MemAccess &access : accesses) {
        if (!access.normalized) {
            auto &[w, o] = conservative[access.memref];
            (access.isWrite ? w : o) = access.op;
            continue;
        }
        Bucket &bucket = buckets[{access.memref, refSubscriptKey(access)}];
        bucket.sample = &access;
        if (access.isWrite && !bucket.write)
            bucket.write = access.op;
        else if (!access.isWrite && !bucket.other)
            bucket.other = access.op;
    }
    unsigned innermost = static_cast<unsigned>(band.size()) - 1;
    for (const auto &[memref, ops] : conservative) {
        auto [write, read] = ops;
        if (write)
            out.emplace_back(write, read ? read : write, innermost, 1);
    }
    for (const auto &[key, bucket] : buckets) {
        if (!bucket.write)
            continue;
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
            continue;
        int64_t dist = 1;
        for (size_t i = carried + 1; i < band.size(); ++i)
            dist *= trips[i];
        Operation *read = bucket.other ? bucket.other : bucket.write;
        out.emplace_back(bucket.write, read, carried, dist);
    }
    std::sort(out.begin(), out.end());
    return out;
}

/** Everything the production analyses answer about one band, rendered
 * comparably: port II over the nest and (non-normalized) over no IVs,
 * relevance masks, per-memref plans and the recurrence multiset. */
struct AnalysisFacts
{
    int64_t portII = 0;
    int64_t flatPortII = 0;
    PartitionRelevance relevance;
    std::vector<std::pair<std::vector<PartitionKind>, std::vector<int64_t>>>
        plans;
    std::vector<RecurrenceTuple> recurrences;

    bool
    operator==(const AnalysisFacts &o) const
    {
        return portII == o.portII && flatPortII == o.flatPortII &&
               relevance == o.relevance && plans == o.plans &&
               recurrences == o.recurrences;
    }
};

AnalysisFacts
productionFacts(Operation *band_root)
{
    auto nest = getLoopNest(band_root);
    AnalysisFacts facts;
    AccessTable accesses;
    facts.portII = memoryPortII(band_root, bandIVs(nest), accesses);
    facts.flatPortII = memoryPortII(band_root, {}, accesses);
    facts.relevance = partitionRelevantDims(band_root, accesses);
    for (auto &[memref, group] :
         groupByMemRef(accesses.get(band_root, bandIVs(nest)))) {
        if (!memref->type().isMemRef())
            continue;
        PartitionPlan plan = computePartitionPlan(memref, group);
        facts.plans.emplace_back(plan.kinds, plan.factors);
    }
    for (const Recurrence &rec : findRecurrences(nest, accesses))
        facts.recurrences.emplace_back(rec.store, rec.read,
                                       rec.carriedLevel, rec.flatDistance);
    std::sort(facts.recurrences.begin(), facts.recurrences.end());
    return facts;
}

AnalysisFacts
referenceFacts(Operation *band_root)
{
    auto nest = getLoopNest(band_root);
    AnalysisFacts facts;
    facts.portII = refMemoryPortII(band_root, bandIVs(nest));
    facts.flatPortII = refMemoryPortII(band_root, {});
    facts.relevance = refPartitionRelevantDims(band_root);
    auto accesses = collectAccesses(band_root, bandIVs(nest));
    for (auto &[memref, group] : groupByMemRef(accesses)) {
        if (!memref->type().isMemRef())
            continue;
        PartitionPlan plan = refComputePartitionPlan(memref, group);
        facts.plans.emplace_back(plan.kinds, plan.factors);
    }
    facts.recurrences = refFindRecurrences(nest);
    return facts;
}

/** Check one band, then the same band under a sweep of layouts and
 * memory kinds on every memref it accesses: the analysis-derived plans
 * and, per variant v, kinds cycling None/Cyclic/Block over the dims. */
void
expectFactsMatchUnderLayouts(Operation *band_root, const std::string &label)
{
    EXPECT_TRUE(productionFacts(band_root) == referenceFacts(band_root))
        << label << " (as built)";
    auto nest = getLoopNest(band_root);
    auto accesses = collectAccesses(band_root, bandIVs(nest));
    auto groups = groupByMemRef(accesses);
    for (int variant = 0; variant < 4; ++variant) {
        for (size_t g = 0; g < groups.size(); ++g) {
            Value *memref = groups[g].first;
            Type t = memref->type();
            if (!t.isMemRef())
                continue;
            PartitionPlan plan;
            if (variant == 0) {
                plan = computePartitionPlan(memref, groups[g].second);
            } else {
                for (unsigned d = 0; d < t.rank(); ++d) {
                    int kind = (d + g + variant) % 3;
                    plan.kinds.push_back(static_cast<PartitionKind>(kind));
                    int64_t most = variant + 1;
                    int64_t factor = std::min(t.shape()[d], most);
                    plan.factors.push_back(kind == 0 ? 1 : factor);
                }
            }
            applyPartitionPlan(memref, plan);
            auto space = static_cast<MemKind>((g + variant) % 4);
            memref->setType(memref->type().withMemorySpace(space));
        }
        EXPECT_TRUE(productionFacts(band_root) == referenceFacts(band_root))
            << label << " (layout variant " << variant << ")";
    }
}

/** The top-level band roots of every function in @p module. */
std::vector<Operation *>
allBandRoots(Operation *module)
{
    std::vector<Operation *> roots;
    for (auto &op : module->region(0).front().ops())
        if (op->is(ops::Func))
            for (auto &band : getLoopBands(op.get()))
                roots.push_back(band.front());
    return roots;
}

TEST(AccessAnalysisEquivalence, SmithBandsMatchThePairwiseDefinitions)
{
    size_t bands = 0;
    for (uint64_t seed = 1; seed <= 50; ++seed) {
        SmithSample sample = generateSmithSample(SmithGenConfig{}, seed);
        for (Operation *root : allBandRoots(sample.module.get())) {
            std::string label = "seed " + std::to_string(seed) + " band " +
                                std::to_string(bands++);
            expectFactsMatchUnderLayouts(root, label);
            // Unrolled and pipelined: many subscripts per class. (The
            // root itself is never unrolled: a full unroll erases it.)
            auto nest = getLoopNest(root);
            if (nest.size() > 1 && applyLoopUnroll(nest.back(), 4)) {
                nest = getLoopNest(root);
                applyLoopPipelining(nest.back(), 1);
                expectFactsMatchUnderLayouts(root, label + " unrolled");
            }
        }
    }
    EXPECT_GT(bands, 50u);
}

/** The operands a hand-built subscript map may bind. */
enum class Bind { I, J, Three, Outside };

/** One access of a corner case: an affine load/store through @p map, or
 * (rankMismatch) a memref.load indexed by the binds directly. */
struct AccessSpec
{
    bool write = false;
    AffineMap map;
    std::vector<Bind> binds = {Bind::I, Bind::J};
    bool rankMismatch = false;
};

/** One function per corner case: a band (i, j) over [0, 8)^2 accessing
 * one array argument, so that array alone decides the band's facts. */
void
addCorner(Operation *module, const std::string &name,
          std::vector<int64_t> shape, const std::vector<AccessSpec> &specs)
{
    Operation *func =
        createFunc(module, name,
                   {Type::memref(std::move(shape), Type::f32()),
                    Type::index()});
    Block *body = funcBody(func);
    Value *x = body->argument(0);
    OpBuilder top(body, body->back());
    Value *three = createConstantIndex(top, 3)->result(0);
    AffineForOp outer = createAffineFor(top, 0, 8);
    OpBuilder mid(outer.body());
    AffineForOp inner = createAffineFor(mid, 0, 8);
    OpBuilder in(inner.body());
    // Indexed by Bind.
    Value *const bound[] = {outer.inductionVar(), inner.inductionVar(),
                            three, body->argument(1)};
    auto bind = [&](const std::vector<Bind> &binds) {
        std::vector<Value *> values;
        for (Bind b : binds)
            values.push_back(bound[static_cast<int>(b)]);
        return values;
    };
    Value *stored = createConstantFloat(in, 1.0, Type::f32())->result(0);
    for (const AccessSpec &spec : specs) {
        if (spec.rankMismatch)
            stored = createMemLoad(in, x, bind(spec.binds))->result(0);
        else if (spec.write)
            createAffineStore(in, stored, x, spec.map, bind(spec.binds));
        else
            stored = createAffineLoad(in, x, spec.map, bind(spec.binds))
                         ->result(0);
    }
}

/** Corner cases of the access analyses, one function each: constants
 * out of order and offsets >= the dim size, a rank mismatch, mod and
 * floordiv subscripts, a symbol subscript, a band-external subscript,
 * d0 + d1 against d1 + d0, several linear classes in one dim, and a
 * writes-only group. */
std::unique_ptr<Operation>
handBuiltAccessModule()
{
    auto module = createModule();
    AffineExpr d0 = getAffineDimExpr(0);
    AffineExpr d1 = getAffineDimExpr(1);
    AffineExpr s0 = getAffineSymbolExpr(0);
    auto m1 = [](AffineExpr e) { return AffineMap(2, 0, {e}); };
    auto m2 = [](AffineExpr a, AffineExpr b) {
        return AffineMap(2, 0, {a, b});
    };
    auto load = [](AffineMap map) { return AccessSpec{false, map}; };
    auto store = [](AffineMap map) { return AccessSpec{true, map}; };

    addCorner(module.get(), "offsets", {8},
              {load(m1(d0 + 8)), load(m1(d0)), load(m1(d0 + 1)),
               store(m1(d0)), store(m1(d0 + 16))});
    AccessSpec mismatch;
    mismatch.binds = {Bind::I};
    mismatch.rankMismatch = true;
    addCorner(module.get(), "rank", {8, 8},
              {load(m2(d0, d1)), load(m2(d0, d1 + 1)), mismatch,
               store(m2(d0, d1 + 2))});
    addCorner(module.get(), "modfloordiv", {8, 8},
              {load(m2(affineMod(d0, 4), d1)),
               load(m2(affineMod(d0, 4), d1 + 1)),
               load(m2(affineFloorDiv(d0, 2), d1)),
               load(m2(affineMod(d0, 4), d1)),
               store(m2(affineFloorDiv(d0, 2), d1 + 1))});
    AccessSpec symbol_load{false, AffineMap(2, 1, {d0 + s0}),
                           {Bind::I, Bind::J, Bind::Three}};
    AccessSpec symbol_store = symbol_load;
    symbol_store.write = true;
    addCorner(module.get(), "symbol", {8},
              {symbol_load, load(m1(d0 + 1)), load(m1(d0)), symbol_store});
    AccessSpec outside{false, m1(d0), {Bind::Outside, Bind::J}};
    addCorner(module.get(), "outside", {8},
              {outside, load(m1(d0 + 1)), load(m1(d0)),
               store(m1(d0 + 1))});
    addCorner(module.get(), "commuted", {16},
              {store(m1(d0 + d1)),
               load(m1(getAffineBinaryExpr(AffineExprKind::Add, d1, d0))),
               load(m1(d0 + d1 + 8)), load(m1(d0 + d1 + 1))});
    addCorner(module.get(), "classes", {8, 8},
              {load(m2(d0 * 2, d1)), load(m2(d0 + 1, d1)),
               load(m2(d0 * 2 + 3, d1)), load(m2(d0, d1 + 4)),
               store(m2(d0, d1))});
    addCorner(module.get(), "writes", {8, 8},
              {store(m2(d0, d1)), store(m2(d0, d1 + 1)),
               store(m2(d0 + 4, d1)), store(m2(d0 + 1, d1 + 1))});
    return module;
}

/** The layout map of per-dim (kind, factor) pairs over @p shape, built
 * directly (buildPartitionMap drops trivial plans such as Block with
 * factor 1, which decodes back from an explicit map). */
AffineMap
layoutOf(const std::vector<std::pair<PartitionKind, int64_t>> &dims,
         const std::vector<int64_t> &shape)
{
    unsigned rank = shape.size();
    std::vector<AffineExpr> results(2 * rank);
    for (unsigned d = 0; d < rank; ++d) {
        AffineExpr dim = getAffineDimExpr(d);
        auto [kind, factor] = dims[d];
        int64_t block = ceilDiv(shape[d], factor);
        if (kind == PartitionKind::Cyclic) {
            results[d] = affineMod(dim, factor);
            results[rank + d] = affineFloorDiv(dim, factor);
        } else {
            results[d] = affineFloorDiv(dim, block);
            if (kind == PartitionKind::None)
                results[d] = getAffineConstantExpr(0);
            results[rank + d] = affineMod(dim, block);
        }
    }
    return AffineMap(rank, 0, std::move(results));
}

TEST(AccessAnalysisEquivalence, HandBuiltCornersMatchThePairwiseDefinitions)
{
    // Every corner under every plan kind per dim — including Block with
    // factor 1 (one block the size of the dim: only offsets >= the dim
    // size separate banks) — and every memory kind.
    const std::vector<std::pair<PartitionKind, int64_t>> kinds = {
        {PartitionKind::None, 1},   {PartitionKind::Cyclic, 2},
        {PartitionKind::Cyclic, 8}, {PartitionKind::Block, 1},
        {PartitionKind::Block, 2},  {PartitionKind::Block, 8}};
    auto module = handBuiltAccessModule();
    size_t corners = 0;
    for (auto &op : module->region(0).front().ops()) {
        if (!op->is(ops::Func))
            continue;
        ++corners;
        Operation *root = getLoopBands(op.get())[0].front();
        Value *x = funcBody(op.get())->argument(0);
        Type t = x->type();
        unsigned rank = t.rank();
        size_t combos = rank == 1 ? kinds.size()
                                  : kinds.size() * kinds.size();
        for (size_t c = 0; c < combos; ++c) {
            std::vector<std::pair<PartitionKind, int64_t>> dims = {
                kinds[c % kinds.size()]};
            if (rank == 2)
                dims.push_back(kinds[c / kinds.size()]);
            for (int space = 0; space < 4; ++space) {
                x->setType(t.withLayout(layoutOf(dims, t.shape()))
                               .withMemorySpace(
                                   static_cast<MemKind>(space)));
                EXPECT_TRUE(productionFacts(root) == referenceFacts(root))
                    << funcName(op.get()) << " layout "
                    << x->type().toString();
            }
        }
    }
    EXPECT_EQ(corners, 8u);
    PartitionPlan decoded = decodePartitionMap(
        layoutOf({{PartitionKind::Block, 1}}, {8}), {8});
    EXPECT_EQ(decoded.kinds[0], PartitionKind::Block);
    EXPECT_EQ(decoded.factors[0], 1);
}

TEST(AccessAnalysisEquivalence, ConcurrentAnalysesOverSharedExpressions)
{
    // DSE workers analyse IR whose expression nodes are shared handles
    // (clones share them). Four threads analyse the same bands at once;
    // every thread must reproduce the sequential answers.
    std::vector<SmithSample> samples;
    std::vector<Operation *> roots;
    for (uint64_t seed = 1; seed <= 10; ++seed) {
        samples.push_back(generateSmithSample(SmithGenConfig{}, seed));
        for (Operation *root : allBandRoots(samples.back().module.get()))
            roots.push_back(root);
    }
    auto corners = handBuiltAccessModule();
    for (Operation *root : allBandRoots(corners.get()))
        roots.push_back(root);
    std::vector<AnalysisFacts> expected;
    for (Operation *root : roots)
        expected.push_back(referenceFacts(root));

    std::vector<int> mismatches(4, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([&, t] {
            for (int round = 0; round < 3; ++round)
                for (size_t r = 0; r < roots.size(); ++r)
                    if (!(productionFacts(roots[(r + t) % roots.size()]) ==
                          expected[(r + t) % roots.size()]))
                        ++mismatches[t];
        });
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(mismatches, std::vector<int>(4, 0));
}

/** Property: partition factors never exceed the dimension size. */
class PartitionFactorProperty : public ::testing::TestWithParam<int>
{};

TEST_P(PartitionFactorProperty, FactorBounded)
{
    int unroll = GetParam();
    std::ostringstream source;
    source << "void k(float A[8]) {\n  for (int i = 0; i < 8; i += "
           << unroll << ") {\n";
    for (int u = 0; u < unroll; ++u)
        source << "    A[i + " << u << "] = 1.0;\n";
    source << "  }\n}\n";
    auto module = affineModule(source.str());
    Operation *func = getTopFunc(module.get());
    auto band = getLoopBands(func)[0];
    auto accesses = collectAccesses(band[0], bandIVs(band));
    auto groups = groupByMemRef(accesses);
    ASSERT_EQ(groups.size(), 1u);
    PartitionPlan plan =
        computePartitionPlan(groups[0].first, groups[0].second);
    EXPECT_LE(plan.factors[0], 8);
    EXPECT_EQ(plan.factors[0], std::min(unroll, 8));
    if (unroll > 1)
        EXPECT_EQ(plan.kinds[0], PartitionKind::Cyclic);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PartitionFactorProperty,
                         ::testing::Values(1, 2, 4, 8));

/** The six Table III kernels. */
const char *const kTableIIIKernels[] = {"bicg",  "gemm", "gesummv",
                                        "syr2k", "syrk", "trmm"};

/** Seed points plus, for each, a variant with every band's tiles and
 * target II at their second candidate (pipelined, tiled leaves). */
std::vector<DesignSpace::Point>
sampledPoints(const DesignSpace &space)
{
    std::vector<DesignSpace::Point> points = space.canonicalSeedPoints();
    size_t seeds = points.size();
    for (size_t p = 0; p < seeds; ++p) {
        DesignSpace::Point variant = points[p];
        for (size_t b = 0; b < space.numBands(); ++b)
            for (size_t d = space.dimFirstTile(b); d <= space.dimTargetII(b);
                 ++d)
                variant[d] = std::min(1, space.dimSizes()[d] - 1);
        points.push_back(variant);
    }
    return points;
}

/** The (scope, IV list) pairs an evaluation's consumers read for the
 * band rooted at @p root: the band over its nest IVs, and per
 * pipelined leaf its flattened chain's IVs from the leaf (port
 * pressure) and from the chain's outermost loop (recurrences). */
std::vector<std::pair<Operation *, std::vector<Value *>>>
consumerScopes(Operation *root)
{
    std::vector<std::pair<Operation *, std::vector<Value *>>> scopes;
    scopes.emplace_back(root, bandIVs(getLoopNest(root)));
    root->walk([&](Operation *op) {
        if (!op->is(ops::AffineFor) || !getLoopDirective(op).pipeline)
            return;
        std::vector<Operation *> chain = {op};
        for (Operation *parent = op->parentOp();
             isa(parent, ops::AffineFor) &&
             getLoopDirective(parent).flatten;
             parent = parent->parentOp())
            chain.insert(chain.begin(), parent);
        scopes.emplace_back(op, bandIVs(chain));
        scopes.emplace_back(chain.front(), bandIVs(chain));
    });
    return scopes;
}

void
expectSameAccesses(const std::vector<MemAccess> &shared,
                   const std::vector<MemAccess> &fresh,
                   const std::string &label)
{
    ASSERT_EQ(shared.size(), fresh.size()) << label;
    for (size_t i = 0; i < fresh.size(); ++i) {
        const MemAccess &a = shared[i];
        const MemAccess &b = fresh[i];
        EXPECT_EQ(a.op, b.op) << label << " #" << i;
        EXPECT_EQ(a.memref, b.memref) << label << " #" << i;
        EXPECT_EQ(a.isWrite, b.isWrite) << label << " #" << i;
        EXPECT_EQ(a.normalized, b.normalized) << label << " #" << i;
        EXPECT_EQ(a.linearClass, b.linearClass) << label << " #" << i;
        ASSERT_EQ(a.indices.size(), b.indices.size()) << label;
        for (size_t d = 0; d < a.indices.size(); ++d)
            EXPECT_TRUE(a.indices[d].equals(b.indices[d]))
                << label << " #" << i << " dim " << d << ": "
                << a.indices[d].toString() << " vs "
                << b.indices[d].toString();
    }
}

TEST(AccessTable, MatchesCollectAccessesAfterScheduleBandAndPartition)
{
    // The evaluation builds its table once the IR is final and array
    // partition re-types memrefs afterwards: every entry must still be
    // exactly what collectAccesses returns on the re-typed IR.
    for (const char *kernel : kTableIIIKernels) {
        auto pristine = affineModule(polybenchSource(kernel, 16));
        DesignSpace space(pristine.get());
        std::vector<DesignSpace::Point> points = sampledPoints(space);
        for (size_t p = 0; p < points.size(); ++p) {
            std::string label =
                std::string(kernel) + " point " + std::to_string(p);
            auto module = pristine->clone();
            Operation *func = getTopFunc(module.get());
            DesignSpace::Decoded decoded = space.decode(points[p]);
            std::vector<Operation *> roots;
            for (const auto &band : getLoopBands(func))
                roots.push_back(band.front());
            ASSERT_EQ(roots.size(), space.numBands()) << label;
            bool scheduled = true;
            for (size_t b = 0; b < roots.size() && scheduled; ++b) {
                roots[b] = DesignSpace::scheduleBand(roots[b], decoded, b);
                scheduled = roots[b] != nullptr;
            }
            if (!scheduled)
                continue; // Not materializable; nothing is analyzed.

            AccessTable table;
            std::vector<std::pair<Operation *, std::vector<Value *>>> all;
            for (Operation *root : roots)
                for (auto &scope : consumerScopes(root))
                    all.push_back(std::move(scope));
            for (const auto &[scope, ivs] : all)
                table.get(scope, ivs);
            applyArrayPartition(func);
            for (const auto &[scope, ivs] : all)
                expectSameAccesses(table.get(scope, ivs),
                                   collectAccesses(scope, ivs), label);
            EXPECT_EQ(table.builds(), table.size()) << label;
            EXPECT_LE(table.size(), all.size()) << label;
        }
    }
}

TEST(AccessTable, OverlayEvaluationBuildsEachScopeOnce)
{
    // A cold overlay evaluation analyzes every (scope, IV list) pair its
    // consumers read exactly once: the planner's partition merge, the
    // estimator (band port pressure, each pipelined leaf's recurrences
    // and port pressure, from both the latency and the resource walk)
    // and the schedule entries' relevance all share the one table.
    for (const char *kernel : kTableIIIKernels) {
        auto pristine = affineModule(polybenchSource(kernel, 16));
        DesignSpace space(pristine.get());
        size_t overlays = 0;
        for (const DesignSpace::Point &point : sampledPoints(space)) {
            EstimateCache cache;
            BandPlanner planner(space, &cache);
            ASSERT_TRUE(planner.enabled()) << kernel;
            BandPlanner::Outcome outcome = planner.evaluate(point);
            if (outcome.kind != BandPlanner::Outcome::Kind::Composed ||
                !outcome.usedOverlay)
                continue;
            ++overlays;

            // The distinct pairs, read off the same point's full
            // materialization (bit-identical band content).
            auto module = space.materialize(point);
            ASSERT_TRUE(module) << kernel;
            std::set<std::pair<Operation *, std::vector<Value *>>> scopes;
            for (const auto &band : getLoopBands(getTopFunc(module.get())))
                for (auto &scope : consumerScopes(band.front()))
                    scopes.insert(std::move(scope));
            EXPECT_EQ(outcome.accessScopes, scopes.size()) << kernel;
            EXPECT_EQ(outcome.accessBuilds, outcome.accessScopes) << kernel;
        }
        EXPECT_GT(overlays, 0u) << kernel;
    }
}

} // namespace
} // namespace scalehls
