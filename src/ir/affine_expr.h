/**
 * @file
 * Affine expressions: the arithmetic language used for loop bounds, memory
 * subscripts, partition layout maps and if-conditions.
 *
 * An AffineExpr is an immutable tree over dimension identifiers
 * (d0, d1, ...), symbol identifiers (s0, s1, ...) and integer
 * constants, combined with
 * + , * , mod, floordiv and ceildiv. Construction performs local
 * simplification (constant folding, identity elimination, canonical
 * constant-on-the-right ordering) so that structurally equal expressions
 * compare equal in most practical cases.
 */

#ifndef SCALEHLS_IR_AFFINE_EXPR_H
#define SCALEHLS_IR_AFFINE_EXPR_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace scalehls {

/** The node kinds of the affine expression tree. */
enum class AffineExprKind
{
    Constant,
    DimId,
    SymbolId,
    Add,
    Mul,
    Mod,
    FloorDiv,
    CeilDiv,
};

class AffineExprNode;

/** A linear form c + sum(coeff * d_pos) read in place: @p coeffs points
 * at the node's sparse (dim, coefficient) pairs, sorted by dim with no
 * zero coefficients; null when the expression is not linear. */
struct LinearFormView
{
    const std::vector<std::pair<unsigned, int64_t>> *coeffs = nullptr;
    int64_t constant = 0;

    explicit operator bool() const { return coeffs != nullptr; }
};

/** Shared-immutable handle to an affine expression node. A default
 * constructed AffineExpr is null and may be tested with explicit bool. */
class AffineExpr
{
  public:
    AffineExpr() = default;
    explicit AffineExpr(std::shared_ptr<const AffineExprNode> node)
        : node_(std::move(node))
    {}

    explicit operator bool() const { return node_ != nullptr; }
    const AffineExprNode &node() const { return *node_; }
    const AffineExprNode *operator->() const { return node_.get(); }

    AffineExprKind kind() const;

    /** Constant value; asserts kind()==Constant. */
    int64_t constantValue() const;
    /** Dim/symbol position; asserts kind()==DimId or SymbolId. */
    unsigned position() const;
    /** Left/right children of a binary node. */
    AffineExpr lhs() const;
    AffineExpr rhs() const;

    bool isConstant() const { return kind() == AffineExprKind::Constant; }
    /** True if this is the constant @p v. */
    bool isConstantEqual(int64_t v) const;

    /** Structural equality. Rejects on a structural-hash mismatch in
     * O(1); equal hashes fall back to a tree compare. */
    bool equals(const AffineExpr &other) const;

    /** 64-bit structural hash: equal trees hash equally. */
    uint64_t hash() const;

    /** Evaluate with concrete dim/symbol values. */
    int64_t evaluate(const std::vector<int64_t> &dims,
                     const std::vector<int64_t> &symbols = {}) const;

    /** Substitute dims[i] for d_i and symbols[i] for s_i, re-simplifying.
     * Out-of-range identifiers are kept as-is. */
    AffineExpr replaceDimsAndSymbols(
        const std::vector<AffineExpr> &dims,
        const std::vector<AffineExpr> &symbols = {}) const;

    /** Shift every dim id by @p offset (d_i -> d_{i+offset}). */
    AffineExpr shiftDims(unsigned offset) const;

    /** True if the given dim id appears anywhere in the tree. */
    bool involvesDim(unsigned pos) const;

    /** Largest dim position used, or -1 if none. */
    int maxDimPosition() const;

    /** The memoized linear form, read in place from the node: false
     * (null coeffs) when the expression is not linear (mod/div/symbols).
     * The view lives as long as any handle to the node. */
    LinearFormView linearForm() const;

    /** If the expression is a pure linear form
     * c0 + sum_i coeff_i * d_i (no mod/div, no symbols), return the
     * coefficients: result[0..numDims-1] are dim coefficients, result
     * back() is the constant term. */
    std::optional<std::vector<int64_t>> linearCoefficients(
        unsigned num_dims) const;

    /** Append the rendering (dim names d0..dn, symbol names s0..sn) to
     * @p out. */
    void print(std::string &out) const;

    /** The rendering print() appends, as a new string. */
    std::string toString() const;

  private:
    std::shared_ptr<const AffineExprNode> node_;
};

/** Immutable affine expression tree node. Use the factory functions below.
 * The structural hash and the linear form (coefficient per dim +
 * constant, with a hash of the coefficients) are computed eagerly at
 * construction from the children's already-computed values, so equality
 * rejects in O(1) and the access analyses bucket subscripts by their
 * linear part without walking trees. Eager computation (rather than a
 * lazy mutable memo) keeps nodes truly immutable: expression handles are
 * shared across concurrently evaluated module clones by the parallel
 * DSE. */
class AffineExprNode
{
  public:
    AffineExprKind kind;
    int64_t value = 0;    ///< Constant value or dim/symbol position.
    AffineExpr lhs, rhs;  ///< Children for binary kinds.
    uint64_t hash = 0;    ///< Structural hash (AffineExpr::hash()).

    bool linValid = false;
    std::vector<std::pair<unsigned, int64_t>> linCoeffs;
    int64_t linConst = 0;
    uint64_t linHash = 0; ///< Hash of linCoeffs (valid when linValid).
};

/** The leaves getAffineDimExpr and getAffineConstantExpr serve from a
 * table of immortal nodes: dims d0..d(kImmortalDimExprs - 1) and the
 * constants kImmortalConstMin..kImmortalConstMax. Handles to them carry
 * no reference count, so copies across DSE workers do no atomics. They
 * equal, hash and print exactly like freshly built nodes. */
inline constexpr unsigned kImmortalDimExprs = 64;
inline constexpr int64_t kImmortalConstMin = -128;
inline constexpr int64_t kImmortalConstMax = 256;

/** @name Factories (with local simplification) */
///@{
AffineExpr getAffineConstantExpr(int64_t value);
AffineExpr getAffineDimExpr(unsigned position);
AffineExpr getAffineSymbolExpr(unsigned position);
AffineExpr getAffineBinaryExpr(AffineExprKind kind, AffineExpr lhs,
                               AffineExpr rhs);
/** A newly allocated, reference-counted leaf (Constant, DimId or
 * SymbolId): what the factories build outside the immortal range, and
 * what the immortal table was built from. */
AffineExpr makeFreshAffineLeaf(AffineExprKind kind, int64_t value);
///@}

/** Constant difference a - b when provable (equal expressions, or both
 * linear with identical dim coefficients); nullopt otherwise. */
std::optional<int64_t> constantDiff(const AffineExpr &a,
                                    const AffineExpr &b);

/** @name Operator sugar */
///@{
AffineExpr operator+(AffineExpr lhs, AffineExpr rhs);
AffineExpr operator+(AffineExpr lhs, int64_t rhs);
AffineExpr operator-(AffineExpr lhs, AffineExpr rhs);
AffineExpr operator-(AffineExpr lhs, int64_t rhs);
AffineExpr operator*(AffineExpr lhs, AffineExpr rhs);
AffineExpr operator*(AffineExpr lhs, int64_t rhs);
AffineExpr affineMod(AffineExpr lhs, int64_t rhs);
AffineExpr affineFloorDiv(AffineExpr lhs, int64_t rhs);
AffineExpr affineCeilDiv(AffineExpr lhs, int64_t rhs);
///@}

} // namespace scalehls

#endif // SCALEHLS_IR_AFFINE_EXPR_H
