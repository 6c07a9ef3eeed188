/**
 * @file
 * Dialect definitions: op names, creation helpers and typed accessor
 * wrappers for the builtin, func, arith, memref, affine, scf and hlscpp
 * dialects. The graph dialect lives in dialect/graph_ops.h.
 */

#ifndef SCALEHLS_DIALECT_OPS_H
#define SCALEHLS_DIALECT_OPS_H

#include <optional>

#include "ir/builder.h"
#include "ir/ir.h"

namespace scalehls {
namespace ops {

// builtin / func
inline constexpr std::string_view Module = "builtin.module";
inline constexpr std::string_view Func = "func.func";
inline constexpr std::string_view Return = "func.return";
inline constexpr std::string_view Call = "func.call";

// arith
inline constexpr std::string_view Constant = "arith.constant";
inline constexpr std::string_view AddF = "arith.addf";
inline constexpr std::string_view SubF = "arith.subf";
inline constexpr std::string_view MulF = "arith.mulf";
inline constexpr std::string_view DivF = "arith.divf";
inline constexpr std::string_view MaxF = "arith.maxf";
inline constexpr std::string_view MinF = "arith.minf";
inline constexpr std::string_view NegF = "arith.negf";
inline constexpr std::string_view AddI = "arith.addi";
inline constexpr std::string_view SubI = "arith.subi";
inline constexpr std::string_view MulI = "arith.muli";
inline constexpr std::string_view DivSI = "arith.divsi";
inline constexpr std::string_view RemSI = "arith.remsi";
inline constexpr std::string_view CmpI = "arith.cmpi";
inline constexpr std::string_view CmpF = "arith.cmpf";
inline constexpr std::string_view Select = "arith.select";
inline constexpr std::string_view SIToFP = "arith.sitofp";
inline constexpr std::string_view FPToSI = "arith.fptosi";
inline constexpr std::string_view IndexCast = "arith.index_cast";
inline constexpr std::string_view Exp = "math.exp";

// memref
inline constexpr std::string_view Alloc = "memref.alloc";
inline constexpr std::string_view MemLoad = "memref.load";
inline constexpr std::string_view MemStore = "memref.store";
inline constexpr std::string_view MemCopy = "memref.copy";

// affine
inline constexpr std::string_view AffineFor = "affine.for";
inline constexpr std::string_view AffineIf = "affine.if";
inline constexpr std::string_view AffineLoad = "affine.load";
inline constexpr std::string_view AffineStore = "affine.store";

// scf
inline constexpr std::string_view ScfFor = "scf.for";
inline constexpr std::string_view ScfIf = "scf.if";

} // namespace ops

/** @name Attribute keys */
///@{
inline constexpr const char *kSymName = "sym_name";
inline constexpr const char *kCallee = "callee";
inline constexpr const char *kValue = "value";
inline constexpr const char *kPredicate = "predicate";
inline constexpr const char *kLowerMap = "lower_map";
inline constexpr const char *kUpperMap = "upper_map";
inline constexpr const char *kLbCount = "lb_count";
inline constexpr const char *kStep = "step";
inline constexpr const char *kMap = "map";
inline constexpr const char *kCondition = "condition";
inline constexpr const char *kTopFunc = "hlscpp.top_func";
inline constexpr const char *kFuncDirective = "hlscpp.func_directive";
inline constexpr const char *kLoopDirective = "hlscpp.loop_directive";
inline constexpr const char *kDataflowStage = "hlscpp.dataflow_stage";
inline constexpr const char *kPointLoop = "hlscpp.point_loop";
///@}

/** Two-operand region-free ops whose operand order is irrelevant to
 * estimation: latency, dependence edges and resource kind are symmetric
 * in the operands. The canonicalizing band digest (operand refs fed in
 * sorted order) and commutative-aware CSE must agree on this exact set —
 * the digest treats swapped-operand ops as equal, so CSE must merge them
 * too, or two digest-equal bands could clean up differently. */
inline bool
isCommutativeOp(const Operation *op)
{
    return op->numOperands() == 2 && op->numRegions() == 0 &&
           (op->is(ops::AddF) || op->is(ops::MulF) ||
            op->is(ops::MaxF) || op->is(ops::MinF) ||
            op->is(ops::AddI) || op->is(ops::MulI));
}

/** Integer/float comparison predicates (subset of MLIR's). */
enum class CmpPredicate { EQ, NE, LT, LE, GT, GE };

/** Attribute encoding for a predicate. */
std::string cmpPredicateName(CmpPredicate pred);
CmpPredicate cmpPredicateFromName(const std::string &name);

//
// builtin / func helpers
//

/** Create an empty module (one region, one block), detached. */
std::unique_ptr<Operation> createModule();

/** Create a function inside @p module with block arguments of the given
 * types. The body gets a trailing func.return automatically. */
Operation *createFunc(Operation *module, const std::string &name,
                      const std::vector<Type> &arg_types);

/** The function's entry (and only) block. */
Block *funcBody(Operation *func);

/** Look up a function by symbol name in a module; nullptr if absent. */
Operation *lookupFunc(Operation *module, const std::string &name);

/** The name of a function. */
std::string funcName(Operation *func);

/** The single top function of a module (attr hlscpp.top_func), or the
 * first function if none is marked. */
Operation *getTopFunc(Operation *module);

//
// arith helpers
//

Operation *createConstantIndex(OpBuilder &b, int64_t value);
Operation *createConstantInt(OpBuilder &b, int64_t value, Type type);
Operation *createConstantFloat(OpBuilder &b, double value, Type type);
/** Generic same-type binary arithmetic op. */
Operation *createBinary(OpBuilder &b, std::string_view name, Value *lhs,
                        Value *rhs);
Operation *createCmpI(OpBuilder &b, CmpPredicate pred, Value *lhs,
                      Value *rhs);
Operation *createCmpF(OpBuilder &b, CmpPredicate pred, Value *lhs,
                      Value *rhs);
Operation *createSelect(OpBuilder &b, Value *cond, Value *true_value,
                        Value *false_value);

/** If the op is an arith.constant with integer/index type, its value. */
std::optional<int64_t> getConstantIntValue(Value *v);

//
// memref helpers
//

Operation *createAlloc(OpBuilder &b, Type memref_type);
Operation *createMemLoad(OpBuilder &b, Value *memref,
                         const std::vector<Value *> &indices);
Operation *createMemStore(OpBuilder &b, Value *value, Value *memref,
                          const std::vector<Value *> &indices);
Operation *createMemCopy(OpBuilder &b, Value *src, Value *dst);

//
// affine.for
//

/** Typed wrapper around an affine.for operation.
 *
 * Bounds are affine maps applied to operand values: the loop iterates
 * from max(lower_map(lb_operands)) to min(upper_map(ub_operands))
 * (exclusive) with a constant positive step. Operands are stored with the
 * lower-bound operands first; kLbCount splits the list. */
class AffineForOp
{
  public:
    explicit AffineForOp(Operation *op) : op_(op)
    {
        assert(isa(op, ops::AffineFor));
    }
    static bool classof(const Operation *op)
    {
        return isa(op, ops::AffineFor);
    }

    Operation *op() const { return op_; }

    const AffineMap &lowerBoundMap() const
    {
        return op_->attr(kLowerMap).getAffineMap();
    }
    const AffineMap &upperBoundMap() const
    {
        return op_->attr(kUpperMap).getAffineMap();
    }
    unsigned numLbOperands() const
    {
        return static_cast<unsigned>(op_->attr(kLbCount).getInt());
    }
    std::vector<Value *> lowerBoundOperands() const;
    std::vector<Value *> upperBoundOperands() const;
    int64_t step() const { return op_->attr(kStep).getInt(); }

    void setLowerBound(AffineMap map, const std::vector<Value *> &operands);
    void setUpperBound(AffineMap map, const std::vector<Value *> &operands);
    void setStep(int64_t step) { op_->setAttr(kStep, step); }

    Block *body() const { return &op_->region(0).front(); }
    Value *inductionVar() const { return body()->argument(0); }

    /** Constant bound values when the bound map is a single constant. */
    std::optional<int64_t> constantLowerBound() const;
    std::optional<int64_t> constantUpperBound() const;
    bool hasConstantBounds() const
    {
        return constantLowerBound() && constantUpperBound();
    }
    /** Trip count for constant bounds. */
    std::optional<int64_t> constantTripCount() const;

    LoopDirective directive() const;
    void setDirective(const LoopDirective &d)
    {
        op_->setAttr(kLoopDirective, d);
    }

  private:
    Operation *op_;
};

/** Create an affine.for with affine-map bounds. */
AffineForOp createAffineFor(OpBuilder &b, AffineMap lower_map,
                            std::vector<Value *> lb_operands,
                            AffineMap upper_map,
                            std::vector<Value *> ub_operands,
                            int64_t step = 1);
/** Create an affine.for with constant bounds [lb, ub). */
AffineForOp createAffineFor(OpBuilder &b, int64_t lb, int64_t ub,
                            int64_t step = 1);

//
// affine.if
//

/** Typed wrapper around an affine.if operation (condition is an IntegerSet
 * applied to the op's operands; region 0 = then, region 1 = else, which may
 * be empty). affine.if has no results in this project. */
class AffineIfOp
{
  public:
    explicit AffineIfOp(Operation *op) : op_(op)
    {
        assert(isa(op, ops::AffineIf));
    }
    static bool classof(const Operation *op)
    {
        return isa(op, ops::AffineIf);
    }

    Operation *op() const { return op_; }

    IntegerSet condition() const
    {
        return op_->attr(kCondition).getIntegerSet();
    }
    void setCondition(const IntegerSet &set)
    {
        op_->setAttr(kCondition, set);
    }
    std::vector<Value *> conditionOperands() const { return op_->operands(); }

    Block *thenBlock() const { return &op_->region(0).front(); }
    bool hasElse() const { return !op_->region(1).empty(); }
    Block *elseBlock() const
    {
        return hasElse() ? &op_->region(1).front() : nullptr;
    }
    Block *addElseBlock() { return op_->region(1).addBlock(); }

  private:
    Operation *op_;
};

AffineIfOp createAffineIf(OpBuilder &b, IntegerSet condition,
                          std::vector<Value *> operands,
                          bool with_else = false);

//
// affine.load / affine.store
//

/** affine.load: operand 0 = memref, remaining operands feed the access map.
 * affine.store: operand 0 = stored value, operand 1 = memref. */
class AffineLoadOp
{
  public:
    explicit AffineLoadOp(Operation *op) : op_(op)
    {
        assert(isa(op, ops::AffineLoad));
    }
    Operation *op() const { return op_; }
    Value *memref() const { return op_->operand(0); }
    const AffineMap &map() const
    {
        return op_->attr(kMap).getAffineMap();
    }
    std::vector<Value *> mapOperands() const;
    Value *result() const { return op_->result(0); }

  private:
    Operation *op_;
};

class AffineStoreOp
{
  public:
    explicit AffineStoreOp(Operation *op) : op_(op)
    {
        assert(isa(op, ops::AffineStore));
    }
    Operation *op() const { return op_; }
    Value *value() const { return op_->operand(0); }
    Value *memref() const { return op_->operand(1); }
    const AffineMap &map() const
    {
        return op_->attr(kMap).getAffineMap();
    }
    std::vector<Value *> mapOperands() const;

  private:
    Operation *op_;
};

Operation *createAffineLoad(OpBuilder &b, Value *memref, AffineMap map,
                            std::vector<Value *> map_operands);
Operation *createAffineStore(OpBuilder &b, Value *value, Value *memref,
                             AffineMap map,
                             std::vector<Value *> map_operands);

/** True for affine.load/store and memref.load/store. */
bool isMemoryAccess(const Operation *op);
/** True for affine.store / memref.store. */
bool isMemoryWrite(const Operation *op);
/** The accessed memref of any memory access op. */
Value *accessedMemRef(const Operation *op);

//
// scf
//

class ScfForOp
{
  public:
    explicit ScfForOp(Operation *op) : op_(op)
    {
        assert(isa(op, ops::ScfFor));
    }
    static bool classof(const Operation *op) { return isa(op, ops::ScfFor); }

    Operation *op() const { return op_; }
    Value *lowerBound() const { return op_->operand(0); }
    Value *upperBound() const { return op_->operand(1); }
    Value *step() const { return op_->operand(2); }
    Block *body() const { return &op_->region(0).front(); }
    Value *inductionVar() const { return body()->argument(0); }

  private:
    Operation *op_;
};

ScfForOp createScfFor(OpBuilder &b, Value *lb, Value *ub, Value *step);
/** scf.if: operand 0 = i1 condition; region 0 then, region 1 else. */
Operation *createScfIf(OpBuilder &b, Value *cond, bool with_else = false);

//
// hlscpp directive helpers
//

/** The loop directive of a for op (default-constructed if absent). */
LoopDirective getLoopDirective(const Operation *op);
void setLoopDirective(Operation *op, const LoopDirective &d);
/** The function directive (default-constructed if absent). */
FuncDirective getFuncDirective(const Operation *op);
void setFuncDirective(Operation *op, const FuncDirective &d);
/** Mark / query the top function. */
void setTopFunc(Operation *func, bool is_top = true);
bool isTopFunc(const Operation *func);

/** True for any loop op (affine.for or scf.for). */
inline bool
isLoop(const Operation *op)
{
    return isa(op, ops::AffineFor) || isa(op, ops::ScfFor);
}

} // namespace scalehls

#endif // SCALEHLS_DIALECT_OPS_H
