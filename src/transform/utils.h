/**
 * @file
 * Shared rewriting utilities for loop transforms: materializing affine
 * expressions as arith ops and substituting induction variables by affine
 * expressions of other values (the workhorse of unrolling and tiling).
 */

#ifndef SCALEHLS_TRANSFORM_UTILS_H
#define SCALEHLS_TRANSFORM_UTILS_H

#include "dialect/ops.h"

namespace scalehls {

/** Emit arith ops computing @p expr over @p operands at the builder's
 * insertion point; returns the index-typed result value. */
Value *materializeExpr(OpBuilder &b, const AffineExpr &expr,
                       const std::vector<Value *> &operands);

/** Substitute every use of @p iv inside @p root (inclusive) by the affine
 * expression @p repl over @p repl_operands:
 *  - affine map / integer-set attributes are recomposed symbolically, so
 *    affine ops stay affine;
 *  - plain SSA uses receive a materialized arith value (inserted at
 *    @p materialize_point, which must dominate root). */
void substituteIV(Operation *root, Value *iv, const AffineExpr &repl,
                  const std::vector<Value *> &repl_operands,
                  OpBuilder &materialize_builder);

/** Rewrite @p map, whose operands are @p operands[first, last),
 * replacing uses of @p iv by @p repl over @p repl_operands. That range
 * of @p operands is replaced in place by the new map's operands (the
 * rest of the list is kept) and the new map is returned. */
AffineMap rebuildMapWithoutIV(const AffineMap &map,
                              std::vector<Value *> &operands, size_t first,
                              size_t last, Value *iv,
                              const AffineExpr &repl,
                              const std::vector<Value *> &repl_operands);

} // namespace scalehls

#endif // SCALEHLS_TRANSFORM_UTILS_H
