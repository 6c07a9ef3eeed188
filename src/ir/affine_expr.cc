#include "ir/affine_expr.h"

#include <cassert>
#include <memory>

#include "support/utils.h"

namespace scalehls {

namespace {

/** Merge two sparse (dim, coeff) lists sorted by dim, dropping zero
 * coefficients. */
std::vector<std::pair<unsigned, int64_t>>
mergeCoeffs(const std::vector<std::pair<unsigned, int64_t>> &a,
            const std::vector<std::pair<unsigned, int64_t>> &b)
{
    std::vector<std::pair<unsigned, int64_t>> out;
    size_t i = 0, j = 0;
    while (i < a.size() || j < b.size()) {
        if (j == b.size() || (i < a.size() && a[i].first < b[j].first)) {
            out.push_back(a[i++]);
        } else if (i == a.size() || b[j].first < a[i].first) {
            out.push_back(b[j++]);
        } else {
            int64_t sum = a[i].second + b[j].second;
            if (sum != 0)
                out.emplace_back(a[i].first, sum);
            ++i;
            ++j;
        }
    }
    return out;
}

/** One step of the node hashes: a boost-style combine followed by the
 * murmur3 finalizer, so nearby inputs spread over all 64 bits. */
uint64_t
hashMix(uint64_t h, uint64_t v)
{
    uint64_t x = h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    return x;
}

uint64_t
coeffsHash(const std::vector<std::pair<unsigned, int64_t>> &coeffs)
{
    uint64_t h = 0x84222325cbf29ce4ull;
    for (const auto &[pos, coeff] : coeffs)
        h = hashMix(hashMix(h, pos), static_cast<uint64_t>(coeff));
    return h;
}

/** Compute the node's linear form from its children's already-computed
 * forms. Runs once at construction so shared nodes never mutate. */
void
computeLinearForm(AffineExprNode &n)
{
    switch (n.kind) {
      case AffineExprKind::Constant:
        n.linValid = true;
        n.linConst = n.value;
        return;
      case AffineExprKind::DimId:
        n.linValid = true;
        n.linCoeffs.emplace_back(static_cast<unsigned>(n.value), 1);
        return;
      case AffineExprKind::SymbolId:
        return;
      case AffineExprKind::Add: {
        const AffineExprNode &l = n.lhs.node();
        const AffineExprNode &r = n.rhs.node();
        if (!l.linValid || !r.linValid)
            return;
        n.linValid = true;
        n.linCoeffs = mergeCoeffs(l.linCoeffs, r.linCoeffs);
        n.linConst = l.linConst + r.linConst;
        return;
      }
      case AffineExprKind::Mul: {
        const AffineExprNode &l = n.lhs.node();
        const AffineExprNode &r = n.rhs.node();
        if (!l.linValid || !r.linValid)
            return;
        // Linear only when one side is a constant form.
        const AffineExprNode *var = nullptr;
        int64_t scale = 0;
        if (r.linCoeffs.empty()) {
            var = &l;
            scale = r.linConst;
        } else if (l.linCoeffs.empty()) {
            var = &r;
            scale = l.linConst;
        } else {
            return;
        }
        n.linValid = true;
        n.linConst = var->linConst * scale;
        if (scale != 0)
            for (const auto &[pos, coeff] : var->linCoeffs)
                n.linCoeffs.emplace_back(pos, coeff * scale);
        return;
      }
      case AffineExprKind::Mod:
      case AffineExprKind::FloorDiv:
      case AffineExprKind::CeilDiv:
        return;
    }
}

AffineExpr
makeNode(AffineExprKind kind, int64_t value, AffineExpr lhs, AffineExpr rhs)
{
    auto node = std::make_shared<AffineExprNode>();
    node->kind = kind;
    node->value = value;
    node->lhs = std::move(lhs);
    node->rhs = std::move(rhs);
    uint64_t h = hashMix(static_cast<uint64_t>(kind) + 1,
                         static_cast<uint64_t>(value));
    if (node->lhs)
        h = hashMix(hashMix(h, node->lhs->hash), node->rhs->hash);
    node->hash = h;
    computeLinearForm(*node);
    if (node->linValid)
        node->linHash = coeffsHash(node->linCoeffs);
    return AffineExpr(std::move(node));
}

} // namespace

AffineExprKind
AffineExpr::kind() const
{
    assert(node_ && "null affine expression");
    return node_->kind;
}

int64_t
AffineExpr::constantValue() const
{
    assert(kind() == AffineExprKind::Constant);
    return node_->value;
}

unsigned
AffineExpr::position() const
{
    assert(kind() == AffineExprKind::DimId ||
           kind() == AffineExprKind::SymbolId);
    return static_cast<unsigned>(node_->value);
}

AffineExpr
AffineExpr::lhs() const
{
    return node_->lhs;
}

AffineExpr
AffineExpr::rhs() const
{
    return node_->rhs;
}

bool
AffineExpr::isConstantEqual(int64_t v) const
{
    return isConstant() && constantValue() == v;
}

bool
AffineExpr::equals(const AffineExpr &other) const
{
    if (node_ == other.node_)
        return true;
    if (!node_ || !other.node_)
        return false;
    if (node_->hash != other.node_->hash || kind() != other.kind())
        return false;
    switch (kind()) {
      case AffineExprKind::Constant:
      case AffineExprKind::DimId:
      case AffineExprKind::SymbolId:
        return node_->value == other.node_->value;
      default:
        return lhs().equals(other.lhs()) && rhs().equals(other.rhs());
    }
}

uint64_t
AffineExpr::hash() const
{
    return node().hash;
}

int64_t
AffineExpr::evaluate(const std::vector<int64_t> &dims,
                     const std::vector<int64_t> &symbols) const
{
    switch (kind()) {
      case AffineExprKind::Constant:
        return node_->value;
      case AffineExprKind::DimId:
        assert(position() < dims.size() && "dim value missing");
        return dims[position()];
      case AffineExprKind::SymbolId:
        assert(position() < symbols.size() && "symbol value missing");
        return symbols[position()];
      case AffineExprKind::Add:
        return lhs().evaluate(dims, symbols) + rhs().evaluate(dims, symbols);
      case AffineExprKind::Mul:
        return lhs().evaluate(dims, symbols) * rhs().evaluate(dims, symbols);
      case AffineExprKind::Mod:
        return euclidMod(lhs().evaluate(dims, symbols),
                         rhs().evaluate(dims, symbols));
      case AffineExprKind::FloorDiv:
        return floorDiv(lhs().evaluate(dims, symbols),
                        rhs().evaluate(dims, symbols));
      case AffineExprKind::CeilDiv: {
        int64_t a = lhs().evaluate(dims, symbols);
        int64_t b = rhs().evaluate(dims, symbols);
        return -floorDiv(-a, b);
      }
    }
    assert(false && "unreachable");
    return 0;
}

AffineExpr
AffineExpr::replaceDimsAndSymbols(
    const std::vector<AffineExpr> &dims,
    const std::vector<AffineExpr> &symbols) const
{
    switch (kind()) {
      case AffineExprKind::Constant:
        return *this;
      case AffineExprKind::DimId:
        if (position() < dims.size() && dims[position()])
            return dims[position()];
        return *this;
      case AffineExprKind::SymbolId:
        if (position() < symbols.size() && symbols[position()])
            return symbols[position()];
        return *this;
      default:
        return getAffineBinaryExpr(
            kind(), lhs().replaceDimsAndSymbols(dims, symbols),
            rhs().replaceDimsAndSymbols(dims, symbols));
    }
}

AffineExpr
AffineExpr::shiftDims(unsigned offset) const
{
    switch (kind()) {
      case AffineExprKind::Constant:
      case AffineExprKind::SymbolId:
        return *this;
      case AffineExprKind::DimId:
        return getAffineDimExpr(position() + offset);
      default:
        return getAffineBinaryExpr(kind(), lhs().shiftDims(offset),
                                   rhs().shiftDims(offset));
    }
}

bool
AffineExpr::involvesDim(unsigned pos) const
{
    switch (kind()) {
      case AffineExprKind::Constant:
      case AffineExprKind::SymbolId:
        return false;
      case AffineExprKind::DimId:
        return position() == pos;
      default:
        return lhs().involvesDim(pos) || rhs().involvesDim(pos);
    }
}

int
AffineExpr::maxDimPosition() const
{
    switch (kind()) {
      case AffineExprKind::Constant:
      case AffineExprKind::SymbolId:
        return -1;
      case AffineExprKind::DimId:
        return static_cast<int>(position());
      default:
        return std::max(lhs().maxDimPosition(), rhs().maxDimPosition());
    }
}

LinearFormView
AffineExpr::linearForm() const
{
    const AffineExprNode &n = node();
    if (!n.linValid)
        return {};
    return {&n.linCoeffs, n.linConst};
}

std::optional<std::vector<int64_t>>
AffineExpr::linearCoefficients(unsigned num_dims) const
{
    LinearFormView form = linearForm();
    if (!form)
        return std::nullopt;
    std::vector<int64_t> coeffs(num_dims + 1, 0);
    for (const auto &[pos, coeff] : *form.coeffs) {
        if (pos >= num_dims)
            return std::nullopt;
        coeffs[pos] = coeff;
    }
    coeffs.back() = form.constant;
    return coeffs;
}

void
AffineExpr::print(std::string &out) const
{
    auto binary = [&](const char *op) {
        out += '(';
        lhs().print(out);
        out += ") ";
        out += op;
        out += ' ';
        rhs().print(out);
    };
    switch (kind()) {
      case AffineExprKind::Constant:
        appendInt(out, constantValue());
        break;
      case AffineExprKind::DimId:
        out += 'd';
        appendInt(out, position());
        break;
      case AffineExprKind::SymbolId:
        out += 's';
        appendInt(out, position());
        break;
      case AffineExprKind::Add:
        lhs().print(out);
        out += " + ";
        rhs().print(out);
        break;
      case AffineExprKind::Mul:
        out += '(';
        lhs().print(out);
        out += ") * (";
        rhs().print(out);
        out += ')';
        break;
      case AffineExprKind::Mod:
        binary("mod");
        break;
      case AffineExprKind::FloorDiv:
        binary("floordiv");
        break;
      case AffineExprKind::CeilDiv:
        binary("ceildiv");
        break;
    }
}

std::string
AffineExpr::toString() const
{
    std::string out;
    print(out);
    return out;
}

std::optional<int64_t>
constantDiff(const AffineExpr &a, const AffineExpr &b)
{
    const AffineExprNode &na = a.node();
    const AffineExprNode &nb = b.node();
    if (na.linValid && nb.linValid) {
        if (na.linHash != nb.linHash || na.linCoeffs != nb.linCoeffs)
            return std::nullopt;
        return na.linConst - nb.linConst;
    }
    if (a.equals(b))
        return 0;
    return std::nullopt;
}

namespace {

/** The immortal leaves, built once (a thread-safe static) and never
 * freed. Handles to them alias the node with an empty owner, so copying
 * one does no refcount atomics: the access analyses copy these leaves
 * into every subscript they rebuild, on every DSE worker at once. */
class LeafTable
{
  public:
    LeafTable()
    {
        for (unsigned d = 0; d < kImmortalDimExprs; ++d)
            dims_[d] =
                immortal(makeFreshAffineLeaf(AffineExprKind::DimId, d));
        for (int64_t c = kImmortalConstMin; c <= kImmortalConstMax; ++c)
            constants_[c - kImmortalConstMin] =
                immortal(makeFreshAffineLeaf(AffineExprKind::Constant, c));
    }

    const AffineExpr &dim(unsigned position) const
    {
        return dims_[position];
    }
    const AffineExpr &constant(int64_t value) const
    {
        return constants_[value - kImmortalConstMin];
    }

    static const LeafTable &
    get()
    {
        // Never destroyed: handles into the table may outlive any static
        // destructor order.
        static const LeafTable *table = new LeafTable();
        return *table;
    }

  private:
    /** Keep @p expr's node alive in owners_ and hand out a handle that
     * aliases it without sharing ownership. */
    AffineExpr
    immortal(AffineExpr expr)
    {
        const AffineExprNode *node = &expr.node();
        owners_.push_back(std::move(expr));
        return AffineExpr(std::shared_ptr<const AffineExprNode>(
            std::shared_ptr<const AffineExprNode>(), node));
    }

    std::vector<AffineExpr> owners_;
    AffineExpr dims_[kImmortalDimExprs];
    AffineExpr constants_[kImmortalConstMax - kImmortalConstMin + 1];
};

} // namespace

AffineExpr
makeFreshAffineLeaf(AffineExprKind kind, int64_t value)
{
    assert((kind == AffineExprKind::Constant ||
            kind == AffineExprKind::DimId ||
            kind == AffineExprKind::SymbolId) &&
           "not a leaf kind");
    return makeNode(kind, value, {}, {});
}

AffineExpr
getAffineConstantExpr(int64_t value)
{
    if (value >= kImmortalConstMin && value <= kImmortalConstMax)
        return LeafTable::get().constant(value);
    return makeFreshAffineLeaf(AffineExprKind::Constant, value);
}

AffineExpr
getAffineDimExpr(unsigned position)
{
    if (position < kImmortalDimExprs)
        return LeafTable::get().dim(position);
    return makeFreshAffineLeaf(AffineExprKind::DimId, position);
}

AffineExpr
getAffineSymbolExpr(unsigned position)
{
    return makeFreshAffineLeaf(AffineExprKind::SymbolId, position);
}

AffineExpr
getAffineBinaryExpr(AffineExprKind kind, AffineExpr lhs, AffineExpr rhs)
{
    assert(lhs && rhs && "null operand to affine binary expression");

    // Constant folding.
    if (lhs.isConstant() && rhs.isConstant()) {
        int64_t a = lhs.constantValue();
        int64_t b = rhs.constantValue();
        switch (kind) {
          case AffineExprKind::Add:
            return getAffineConstantExpr(a + b);
          case AffineExprKind::Mul:
            return getAffineConstantExpr(a * b);
          case AffineExprKind::Mod:
            assert(b != 0 && "mod by zero");
            return getAffineConstantExpr(euclidMod(a, b));
          case AffineExprKind::FloorDiv:
            assert(b != 0 && "div by zero");
            return getAffineConstantExpr(floorDiv(a, b));
          case AffineExprKind::CeilDiv:
            assert(b != 0 && "div by zero");
            return getAffineConstantExpr(-floorDiv(-a, b));
          default:
            break;
        }
    }

    switch (kind) {
      case AffineExprKind::Add:
        if (lhs.isConstantEqual(0))
            return rhs;
        if (rhs.isConstantEqual(0))
            return lhs;
        // Canonicalize constants to the right.
        if (lhs.isConstant() && !rhs.isConstant())
            std::swap(lhs, rhs);
        // Fold (x + c1) + c2 -> x + (c1 + c2).
        if (rhs.isConstant() && lhs.kind() == AffineExprKind::Add &&
            lhs.rhs().isConstant()) {
            return lhs.lhs() + (lhs.rhs().constantValue() +
                                rhs.constantValue());
        }
        break;
      case AffineExprKind::Mul:
        if (lhs.isConstantEqual(1))
            return rhs;
        if (rhs.isConstantEqual(1))
            return lhs;
        if (lhs.isConstantEqual(0) || rhs.isConstantEqual(0))
            return getAffineConstantExpr(0);
        if (lhs.isConstant() && !rhs.isConstant())
            std::swap(lhs, rhs);
        break;
      case AffineExprKind::Mod:
        if (rhs.isConstantEqual(1))
            return getAffineConstantExpr(0);
        break;
      case AffineExprKind::FloorDiv:
      case AffineExprKind::CeilDiv:
        if (rhs.isConstantEqual(1))
            return lhs;
        break;
      default:
        break;
    }
    return makeNode(kind, 0, std::move(lhs), std::move(rhs));
}

AffineExpr
operator+(AffineExpr lhs, AffineExpr rhs)
{
    return getAffineBinaryExpr(AffineExprKind::Add, std::move(lhs),
                               std::move(rhs));
}

AffineExpr
operator+(AffineExpr lhs, int64_t rhs)
{
    return std::move(lhs) + getAffineConstantExpr(rhs);
}

AffineExpr
operator-(AffineExpr lhs, AffineExpr rhs)
{
    return std::move(lhs) + std::move(rhs) * getAffineConstantExpr(-1);
}

AffineExpr
operator-(AffineExpr lhs, int64_t rhs)
{
    return std::move(lhs) + (-rhs);
}

AffineExpr
operator*(AffineExpr lhs, AffineExpr rhs)
{
    return getAffineBinaryExpr(AffineExprKind::Mul, std::move(lhs),
                               std::move(rhs));
}

AffineExpr
operator*(AffineExpr lhs, int64_t rhs)
{
    return std::move(lhs) * getAffineConstantExpr(rhs);
}

AffineExpr
affineMod(AffineExpr lhs, int64_t rhs)
{
    return getAffineBinaryExpr(AffineExprKind::Mod, std::move(lhs),
                               getAffineConstantExpr(rhs));
}

AffineExpr
affineFloorDiv(AffineExpr lhs, int64_t rhs)
{
    return getAffineBinaryExpr(AffineExprKind::FloorDiv, std::move(lhs),
                               getAffineConstantExpr(rhs));
}

AffineExpr
affineCeilDiv(AffineExpr lhs, int64_t rhs)
{
    return getAffineBinaryExpr(AffineExprKind::CeilDiv, std::move(lhs),
                               getAffineConstantExpr(rhs));
}

} // namespace scalehls
