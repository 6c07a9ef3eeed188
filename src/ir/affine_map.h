/**
 * @file
 * AffineMap: a function (d0..dn; s0..sm) -> (expr0, ..., exprk) used for
 * loop bounds, memory subscripts and array-partition memory layouts.
 */

#ifndef SCALEHLS_IR_AFFINE_MAP_H
#define SCALEHLS_IR_AFFINE_MAP_H

#include <cstdint>
#include <string>
#include <vector>

#include "ir/affine_expr.h"

namespace scalehls {

/** A value-semantic affine map. An empty map (no results, no dims) is used
 * as "no layout" on memref types. */
class AffineMap
{
  public:
    AffineMap() = default;
    AffineMap(unsigned num_dims, unsigned num_symbols,
              std::vector<AffineExpr> results)
        : numDims_(num_dims), numSymbols_(num_symbols),
          results_(std::move(results))
    {}

    /** The identity map (d0..dn) -> (d0..dn). */
    static AffineMap identity(unsigned num_dims);
    /** A zero-dim map returning fixed constants. */
    static AffineMap constant(const std::vector<int64_t> &values);
    /** A single-result map. */
    static AffineMap get(unsigned num_dims, AffineExpr result);

    unsigned numDims() const { return numDims_; }
    unsigned numSymbols() const { return numSymbols_; }
    unsigned numResults() const { return results_.size(); }
    const std::vector<AffineExpr> &results() const { return results_; }
    AffineExpr result(unsigned i) const { return results_[i]; }

    bool empty() const { return results_.empty(); }
    /** True if the map is (d0..dn) -> (d0..dn). */
    bool isIdentity() const;
    /** True if every result is a constant. */
    bool isConstant() const;
    /** The single constant result; asserts numResults()==1 and constant. */
    int64_t singleConstantResult() const;

    bool equals(const AffineMap &other) const;

    /** Evaluate all results with concrete dim/symbol values. */
    std::vector<int64_t> evaluate(const std::vector<int64_t> &dims,
                                  const std::vector<int64_t> &symbols = {})
        const;

    /** Compose: substitute this map's dims with the given expressions.
     * The resulting expressions live in the dim space of @p dim_repls. */
    AffineMap replaceDims(const std::vector<AffineExpr> &dim_repls,
                          unsigned new_num_dims) const;

    /** Append the rendering "(d0, ..)[s0, ..] -> (results)" to @p out. */
    void print(std::string &out) const;

    /** The rendering print() appends, as a new string. */
    std::string toString() const;

  private:
    unsigned numDims_ = 0;
    unsigned numSymbols_ = 0;
    std::vector<AffineExpr> results_;
};

} // namespace scalehls

#endif // SCALEHLS_IR_AFFINE_MAP_H
