#include "estimate/estimate_cache.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <iterator>
#include <set>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "analysis/buffer_analysis.h"
#include "dialect/ops.h"
#include "estimate/coherence_audit.h"
#include "support/utils.h"

namespace scalehls {

const std::set<std::string> &
digestExcludedAttrs()
{
    // The serializer skips exactly this set, and the digest-coverage
    // audit (estimate/coherence_audit) checks it against the registry of
    // estimate-relevant attributes — one source of truth for both.
    static const std::set<std::string> excluded = {kTopFunc};
    return excluded;
}

namespace {

/** Double-lane hash over the canonical serialization: FNV-1a in lane A,
 * an FNV-style mix with a genuinely different odd multiplier (the
 * murmur3 finalizer constant) in lane B. Two decorrelated 64-bit lanes
 * give a 128-bit digest; a collision would need both lanes to collide on
 * the same pair of serializations, which is negligible against the
 * cache's lifetime. */
struct Digest128
{
    static constexpr uint64_t kMulA = 0x100000001b3ull;
    static constexpr uint64_t kMulB = 0xff51afd7ed558ccdull;

    uint64_t lane_a = 0xcbf29ce484222325ull;
    uint64_t lane_b = 0x9e3779b97f4a7c15ull;

    void
    feed(std::string_view text)
    {
        for (unsigned char c : text) {
            lane_a = (lane_a ^ c) * kMulA;
            lane_b = (lane_b ^ c) * kMulB + 0x2545f4914f6cdd1dull;
        }
        // Length separator: "ab" + "c" must not digest like "a" + "bc".
        lane_a = (lane_a ^ text.size()) * kMulA;
        lane_b = (lane_b ^ text.size()) * kMulB;
    }

    std::string
    hex() const
    {
        static const char digits[] = "0123456789abcdef";
        std::string out(32, '0');
        uint64_t lanes[2] = {lane_a, lane_b};
        for (int lane = 0; lane < 2; ++lane)
            for (int i = 0; i < 16; ++i)
                out[lane * 16 + i] =
                    digits[(lanes[lane] >> (60 - 4 * i)) & 0xf];
        return out;
    }
};

/** Serialize an op tree into @p digest: op names, attributes (AttrMap is
 * ordered, so iteration is deterministic), operand wiring via tree-local
 * value numbering, and result / block-argument types. One traversal
 * serves every digest — function-tier keys and the band digests behind
 * the schedule and plan tiers must never drift in what they cover — and
 * the modes differ only in how values defined OUTSIDE the serialized
 * tree are referenced:
 *
 *  - Function mode: externals degrade to a fixed "ext" marker (none
 *    exist in this IR's top-level-function structure).
 *  - Band mode: a fixed marker would alias bands that access different
 *    arrays, so every external value gets a stable local id on first
 *    reference, and its full type (covering memref shapes and partition
 *    layouts) plus a canonical summary of its definition are folded in:
 *    block arguments as "arg"; arith.constant as "const" + the value
 *    (trip counts and guards computed from external constants depend on
 *    it); memref.alloc as "alloc" (the estimate reads only the memref
 *    type). Any other defining op makes the band NOT content-determined
 *    — estimation may read through it in ways the digest cannot see —
 *    and the band must not be shared. A func.call inside the band also
 *    disqualifies it: the band estimate would depend on callee bodies
 *    the digest does not cover. Callee coverage in function mode comes
 *    from digestFunc folding callee digests instead.
 *
 * The hlscpp.top_func attribute is skipped in both modes: it selects the
 * entry point of a module-level estimate but never changes a function's
 * (or band's) own estimate, and band roots never carry it anyway.
 *
 * Attributes and types are printed into one reused buffer and value
 * references into stack buffers, so a traversal builds no temporary
 * strings; the bytes fed are exactly the toString() renderings. */
class TreeSerializer
{
  public:
    enum class Mode
    {
        Function,
        Band
    };

    /** @p ownership (band mode only): folds each external alloc's
     * kept/dead note into the digest — the write-only-buffer cleanup's
     * per-buffer verdict, which the band's own subtree cannot determine
     * (see AllocOwnershipInfo). */
    TreeSerializer(Digest128 &digest, Mode mode,
                   const AllocOwnershipInfo *ownership = nullptr)
        : digest_(digest), mode_(mode), ownership_(ownership)
    {}

    /** False when band mode found content the digest cannot determine
     * (always true in function mode). */
    bool cacheable() const { return cacheable_; }

    /** External values in first-reference (id) order. */
    const std::vector<Value *> &externals() const { return externals_; }

    void
    serialize(Operation *op)
    {
        if (mode_ == Mode::Band && op->is(ops::Call)) {
            cacheable_ = false;
            return;
        }
        digest_.feed("op");
        digest_.feed(op->name());
        for (const auto &[name, attr] : op->attrs()) {
            if (digestExcludedAttrs().count(name))
                continue; // Estimation-irrelevant; see class comment.
            digest_.feed(name);
            feedPrinted(attr);
        }
        if (isCommutativeOp(op)) {
            // Canonicalize commutative noise: resolve the refs in operand
            // order (first-reference registration must stay deterministic)
            // but feed them sorted, so `a+b` and `b+a` digest equally.
            // Sound because estimation is operand-order symmetric for
            // these ops and CSE merges swapped duplicates (see
            // isCommutativeOp); symmetric bands — 3mm's identical stages
            // with operand-order drift — then share schedule entries.
            Ref lhs = refOf(op->operand(0));
            Ref rhs = refOf(op->operand(1));
            if (rhs.view() < lhs.view())
                std::swap(lhs, rhs);
            digest_.feed(lhs.view());
            digest_.feed(rhs.view());
        } else {
            for (Value *operand : op->operands())
                digest_.feed(refOf(operand).view());
        }
        for (Value *result : op->results()) {
            define(result);
            feedPrinted(result->type());
        }
        for (unsigned r = 0; r < op->numRegions(); ++r) {
            digest_.feed("region");
            for (const auto &block : op->region(r).blocks()) {
                digest_.feed("block");
                for (Value *arg : block->arguments()) {
                    define(arg);
                    feedPrinted(arg->type());
                }
                for (const auto &nested : block->ops())
                    serialize(nested.get());
            }
        }
        digest_.feed("end");
    }

  private:
    /** A value reference ("%<id>", "ext" or "null") in a stack buffer. */
    struct Ref
    {
        char text[24];
        size_t size = 0;

        std::string_view view() const { return {text, size}; }
    };

    static Ref
    literalRef(std::string_view text)
    {
        Ref ref;
        ref.size = text.copy(ref.text, sizeof(ref.text));
        return ref;
    }

    static Ref
    idRef(unsigned id)
    {
        Ref ref;
        ref.text[0] = '%';
        char *end = std::to_chars(ref.text + 1, std::end(ref.text), id).ptr;
        ref.size = static_cast<size_t>(end - ref.text);
        return ref;
    }

    void define(const Value *value) { ids_.emplace(value, ids_.size()); }

    /** Feed @p printable's rendering through the reused text buffer. */
    template <typename Printable>
    void
    feedPrinted(const Printable &printable)
    {
        text_.clear();
        printable.print(text_);
        digest_.feed(text_);
    }

    void
    feedInt(int64_t value)
    {
        text_.clear();
        appendInt(text_, value);
        digest_.feed(text_);
    }

    Ref
    refOf(Value *value)
    {
        if (!value)
            return literalRef("null");
        auto it = ids_.find(value);
        if (it != ids_.end())
            return idRef(it->second);
        if (mode_ == Mode::Function)
            return literalRef("ext");
        // Band mode, first reference to an external value: register it
        // and fold its type and definition summary into the digest.
        unsigned id = static_cast<unsigned>(ids_.size());
        ids_.emplace(value, id);
        externals_.push_back(value);
        digest_.feed("ext");
        feedInt(id);
        feedPrinted(value->type());
        Operation *def = value->definingOp();
        if (!def) {
            digest_.feed("arg");
        } else if (def->is(ops::Constant)) {
            digest_.feed("const");
            feedPrinted(def->attr(kValue));
        } else if (def->is(ops::Alloc)) {
            digest_.feed("alloc");
            if (ownership_)
                digest_.feed(ownership_->digestNote(value));
        } else {
            cacheable_ = false;
        }
        return idRef(id);
    }

    Digest128 &digest_;
    Mode mode_;
    const AllocOwnershipInfo *ownership_ = nullptr;
    bool cacheable_ = true;
    std::unordered_map<const Value *, unsigned> ids_;
    std::vector<Value *> externals_;
    std::string text_;
};

/** Digest @p func, recursing into callees through @p out. @p on_path
 * guards call cycles: a back edge folds into a marker instead of
 * recursing forever, and every function the marker reaches (directly or
 * through a callee) is recorded in out.cyclic — its digest depends on
 * the traversal entry, not on content alone. */
const std::string &
digestFunc(Operation *func, Operation *module, EstimateDigests &out,
           std::set<Operation *> &on_path)
{
    auto it = out.digest.find(func);
    if (it != out.digest.end())
        return it->second;

    Digest128 digest;
    TreeSerializer(digest, TreeSerializer::Mode::Function)
        .serialize(func);

    // Fold in direct callees (ordered by call-site appearance; duplicates
    // deduplicated) so a callee-body change invalidates the caller too.
    // The same collection feeds the estimator's callee prefetch, so the
    // digested and the estimated callee sets cannot diverge.
    on_path.insert(func);
    for (Operation *callee : collectDistinctCallees(func, module)) {
        digest.feed(funcName(callee));
        if (on_path.count(callee)) {
            digest.feed("cycle");
            out.cyclic.insert(func);
        } else {
            digest.feed(digestFunc(callee, module, out, on_path));
            if (out.cyclic.count(callee))
                out.cyclic.insert(func);
        }
    }
    on_path.erase(func);

    return out.digest.emplace(func, digest.hex()).first->second;
}

} // namespace

void
addFuncEstimateDigests(Operation *func, Operation *module,
                       EstimateDigests &out)
{
    std::set<Operation *> on_path;
    digestFunc(func, module, out, on_path);
}

std::optional<BandDigestInfo>
bandEstimateDigestInfo(Operation *band_root,
                       const AllocOwnershipInfo *ownership)
{
    Digest128 digest;
    // Domain-separate from function digests AND between plain and
    // ownership-annotated keys, which must never alias in one cache.
    digest.feed("band");
    digest.feed(ownership ? "owned" : "plain");
    TreeSerializer serializer(digest, TreeSerializer::Mode::Band,
                              ownership);
    serializer.serialize(band_root);
    if (!serializer.cacheable())
        return std::nullopt;
    BandDigestInfo info;
    info.digest = digest.hex();
    info.externals = serializer.externals();
    return info;
}

std::optional<BandPlanSeed>
bandPlanSeed(Operation *band_root, const AllocOwnershipInfo *ownership)
{
    Digest128 digest;
    // Own domain: plan keys must never alias the band/schedule digests
    // (they hash PRISTINE content plus a BandChoice, not transformed
    // content). Ownership notes are REQUIRED key material — the zero-IR
    // compose path consumes plan outcomes without ever materializing the
    // band, so nothing downstream would catch an ownership mismatch.
    digest.feed("plan");
    digest.feed(ownership ? "owned" : "plain");
    TreeSerializer serializer(digest, TreeSerializer::Mode::Band,
                              ownership);
    serializer.serialize(band_root);
    if (!serializer.cacheable())
        return std::nullopt;
    BandPlanSeed seed;
    seed.laneA = digest.lane_a;
    seed.laneB = digest.lane_b;
    seed.externals = serializer.externals();
    return seed;
}

std::string
bandPlanKey(const BandPlanSeed &seed, bool loop_perfectization,
            bool remove_variable_bound, const std::vector<unsigned> &perm,
            const std::vector<int64_t> &tiles, int64_t target_ii)
{
    Digest128 digest;
    digest.lane_a = seed.laneA;
    digest.lane_b = seed.laneB;
    digest.feed("choice");
    digest.feed(loop_perfectization ? "lp1" : "lp0");
    digest.feed(remove_variable_bound ? "rvb1" : "rvb0");
    digest.feed("perm");
    for (unsigned p : perm)
        digest.feed(std::to_string(p));
    digest.feed("tile");
    for (int64_t t : tiles)
        digest.feed(std::to_string(t));
    digest.feed("ii");
    digest.feed(std::to_string(target_ii));
    return digest.hex();
}

std::optional<std::string>
bandEstimateDigest(Operation *band_root)
{
    auto info = bandEstimateDigestInfo(band_root);
    if (!info)
        return std::nullopt;
    return std::move(info->digest);
}

EstimateDigests
moduleEstimateDigests(Operation *module)
{
    EstimateDigests out;
    for (const auto &op : module->region(0).front().ops())
        if (op->is(ops::Func))
            addFuncEstimateDigests(op.get(), module, out);
    return out;
}

std::string
digestHashFingerprint()
{
    // Canonical probe through the exact digest pipeline entry points the
    // cache keys come from: the raw hash (lane constants, mixing, the
    // length separator) and the domain tags of the band/plan keying. Any
    // change to either moves this fingerprint, which moves the snapshot
    // salt, which invalidates persisted caches keyed under the old
    // scheme. "band-masked" is a retired tag, still fed so the salt of
    // this unchanged scheme keeps its value.
    Digest128 digest;
    digest.feed("scalehls-digest-probe");
    digest.feed("band-masked");
    digest.feed("band");
    digest.feed("owned");
    digest.feed("plain");
    digest.feed("plan");
    digest.feed("choice");
    return digest.hex();
}

std::optional<EstimateCacheTierCaps>
parseEstimateCacheCaps(const std::string &spec)
{
    std::vector<size_t> parts;
    for (size_t begin = 0;;) {
        size_t end = std::min(spec.find(':', begin), spec.size());
        size_t count = 0;
        auto [ptr, error] =
            std::from_chars(spec.data() + begin, spec.data() + end, count);
        // from_chars rejects an empty field and a sign, and reports
        // overflow: digits only, each count fits in size_t.
        if (error != std::errc() || ptr != spec.data() + end)
            return std::nullopt;
        parts.push_back(count);
        if (end == spec.size())
            break;
        begin = end + 1;
    }
    EstimateCacheTierCaps caps;
    if (parts.size() == 1) {
        caps.func = caps.schedule = caps.plan = parts[0];
        return caps;
    }
    if (parts.size() != 3)
        return std::nullopt;
    caps.func = parts[0];
    caps.schedule = parts[1];
    caps.plan = parts[2];
    return caps;
}

} // namespace scalehls
