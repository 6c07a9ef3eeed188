/**
 * @file
 * IntegerSet: a conjunction of affine constraints (expr >= 0 or expr == 0)
 * used as the condition of affine.if operations.
 */

#ifndef SCALEHLS_IR_INTEGER_SET_H
#define SCALEHLS_IR_INTEGER_SET_H

#include <string>
#include <vector>

#include "ir/affine_expr.h"

namespace scalehls {

/** A conjunction of affine constraints over dims (and optionally symbols).
 * Constraint i holds when constraints[i] == 0 (if eqFlags[i]) or
 * constraints[i] >= 0 (otherwise). */
class IntegerSet
{
  public:
    IntegerSet() = default;
    IntegerSet(unsigned num_dims, std::vector<AffineExpr> constraints,
               std::vector<bool> eq_flags)
        : numDims_(num_dims), constraints_(std::move(constraints)),
          eqFlags_(std::move(eq_flags))
    {}

    /** Single-constraint convenience factory. */
    static IntegerSet get(unsigned num_dims, AffineExpr constraint,
                          bool is_eq);

    unsigned numDims() const { return numDims_; }
    unsigned numConstraints() const { return constraints_.size(); }
    const std::vector<AffineExpr> &constraints() const
    {
        return constraints_;
    }
    AffineExpr constraint(unsigned i) const { return constraints_[i]; }
    bool isEq(unsigned i) const { return eqFlags_[i]; }
    const std::vector<bool> &eqFlags() const { return eqFlags_; }

    bool empty() const { return constraints_.empty(); }

    /** Evaluate the conjunction with concrete dim values. */
    bool evaluate(const std::vector<int64_t> &dims) const;

    bool equals(const IntegerSet &other) const;

    /** Append the rendering "(d0, ..) : (c >= 0, ..)" to @p out. */
    void print(std::string &out) const;

    /** The rendering print() appends, as a new string. */
    std::string toString() const;

  private:
    unsigned numDims_ = 0;
    std::vector<AffineExpr> constraints_;
    std::vector<bool> eqFlags_;
};

} // namespace scalehls

#endif // SCALEHLS_IR_INTEGER_SET_H
