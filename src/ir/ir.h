/**
 * @file
 * The SSA IR core: Value, Operation, Block, Region and IRMapping.
 *
 * The design mirrors MLIR's structure at the scale this project needs:
 * an Operation is the minimal unit of code; it accepts typed operands,
 * produces typed results, carries named attributes and may contain Regions;
 * a Region holds Blocks; a Block holds a sequence of Operations plus typed
 * block arguments (used for loop induction variables and function
 * parameters). Def-use chains are maintained eagerly so transforms can query
 * users and rewrite uses.
 */

#ifndef SCALEHLS_IR_IR_H
#define SCALEHLS_IR_IR_H

#include <cassert>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ir/attributes.h"
#include "ir/types.h"

namespace scalehls {

class Operation;
class Block;
class Region;
class ValueRemap;

/** A block's op list. Each op records its own node in it (see
 * Operation::position()). */
using OpList = std::list<std::unique_ptr<Operation>>;

/** An SSA value: either the result of an Operation or a Block argument. */
class Value
{
  public:
    /** Where this value comes from. */
    enum class Kind { OpResult, BlockArg };

    Value(Kind kind, Type type, unsigned index)
        : kind_(kind), type_(std::move(type)), index_(index)
    {}

    Kind kind() const { return kind_; }
    bool isOpResult() const { return kind_ == Kind::OpResult; }
    bool isBlockArg() const { return kind_ == Kind::BlockArg; }

    Type type() const { return type_; }
    /** Mutate the type in place (used when re-typing memrefs, e.g. by the
     * array-partition pass). All uses observe the new type. */
    void setType(Type type) { type_ = std::move(type); }

    /** Result / argument position. */
    unsigned index() const { return index_; }

    /** The defining operation, or nullptr for block arguments. */
    Operation *definingOp() const
    {
        return isOpResult() ? owner_ : nullptr;
    }
    /** The owning block for block arguments, or nullptr. */
    Block *ownerBlock() const { return isBlockArg() ? block_ : nullptr; }

    /** Operations using this value; one entry per use (duplicates possible
     * when an op uses the value in several operand slots). */
    const std::vector<Operation *> &users() const { return users_; }
    bool useEmpty() const { return users_.empty(); }
    size_t numUses() const { return users_.size(); }

    /** Rewrite every use of this value to use @p other instead. */
    void replaceAllUsesWith(Value *other);

  private:
    friend class Operation;
    friend class Block;

    Kind kind_;
    Type type_;
    unsigned index_;
    Operation *owner_ = nullptr;
    Block *block_ = nullptr;
    std::vector<Operation *> users_;
};

/** Ordered attribute dictionary (ordered for deterministic printing).
 * The transparent comparator lets lookups take a std::string_view, so
 * reading an attribute by a `const char *` key builds no string. */
using AttrMap = std::map<std::string, Attribute, std::less<>>;

/** An operation: name + operands + results + attributes + regions. */
class Operation
{
  public:
    ~Operation();
    Operation(const Operation &) = delete;
    Operation &operator=(const Operation &) = delete;

    /** Create a detached operation. Insert it into a Block to give it a
     * position; top-level module ops stay detached. */
    static std::unique_ptr<Operation> create(std::string name,
                                             std::vector<Type> result_types,
                                             std::vector<Value *> operands,
                                             AttrMap attrs = {},
                                             unsigned num_regions = 0);

    /** Process-wide count of operations ever created (relaxed counter).
     * Deltas around a code path measure its IR construction cost: a
     * zero delta proves the path built no IR at all (module clones are
     * create() storms, so "zero creations" implies "zero clones"). */
    static size_t createdCount();

    const std::string &name() const { return name_; }
    bool is(std::string_view n) const { return name_ == n; }
    /** Dialect prefix, e.g. "affine" for "affine.for" (a view into
     * name()). */
    std::string_view dialect() const;

    /** @name Operands */
    ///@{
    unsigned numOperands() const { return operands_.size(); }
    Value *operand(unsigned i) const { return operands_[i]; }
    const std::vector<Value *> &operands() const { return operands_; }
    void setOperand(unsigned i, Value *value);
    void setOperands(const std::vector<Value *> &values);
    void addOperand(Value *value);
    void eraseOperand(unsigned i);
    /** Drop all operand uses (sets them to null). Recurses into regions. */
    void dropAllReferences();
    ///@}

    /** @name Results */
    ///@{
    unsigned numResults() const { return results_.size(); }
    Value *result(unsigned i = 0) const { return results_[i].get(); }
    std::vector<Value *> results() const;
    /** True if no result has any use. */
    bool useEmpty() const;
    /** Replace all uses of each result with the corresponding result of
     * @p other (must have at least as many results). */
    void replaceAllUsesWith(Operation *other);
    ///@}

    /** @name Attributes */
    ///@{
    const AttrMap &attrs() const { return attrs_; }
    bool hasAttr(std::string_view name) const
    {
        return attrs_.find(name) != attrs_.end();
    }
    /** The attribute, or a null Attribute if absent. The reference is
     * valid until the attribute is next set or removed. */
    const Attribute &attr(std::string_view name) const;
    void setAttr(const std::string &name, Attribute value)
    {
        attrs_[name] = std::move(value);
    }
    void removeAttr(const std::string &name) { attrs_.erase(name); }
    ///@}

    /** @name Regions */
    ///@{
    unsigned numRegions() const { return regions_.size(); }
    Region &region(unsigned i = 0) { return *regions_[i]; }
    const Region &region(unsigned i = 0) const { return *regions_[i]; }
    ///@}

    /** @name Position */
    ///@{
    Block *parentBlock() const { return parent_; }
    /** The op owning the region this op's block belongs to. */
    Operation *parentOp() const;
    /** Nearest ancestor (not self) with the given name, or nullptr. */
    Operation *parentOfName(std::string_view name) const;
    /** True if this op is an ancestor of (properly contains) @p other. */
    bool isAncestorOf(const Operation *other) const;
    /** This op's node in its parent block's op list; what makes
     * nextOp(), prevOp() and the Block mutations O(1). Only meaningful
     * while parentBlock() is non-null. */
    OpList::const_iterator position() const { return pos_; }
    /** Next / previous op in the parent block (nullptr at the ends). */
    Operation *nextOp() const;
    Operation *prevOp() const;
    /** True if this op appears before @p other in the same block
     * (a scan of the block). */
    bool isBeforeInBlock(const Operation *other) const;
    /** Unlink from the current block and insert before/after @p anchor. */
    void moveBefore(Operation *anchor);
    void moveAfter(Operation *anchor);
    /** Unlink from the parent block and delete. Results must be unused. */
    void erase();
    ///@}

    /** @name Traversal */
    ///@{
    /** Pre-order walk over this op and all nested ops. The walk snapshots
     * the op list first, so the callback may erase the op it is given (but
     * must not erase other not-yet-visited ops). */
    void walk(const std::function<void(Operation *)> &fn);
    /** Post-order variant (nested ops first). */
    void walkPostOrder(const std::function<void(Operation *)> &fn);
    /** Collect all ops with the given name, in pre-order. */
    std::vector<Operation *> collect(std::string_view name);
    ///@}

    /** Deep-clone this operation. Operand uses are remapped through
     * @p mapping (falling back to the original value for values defined
     * outside the cloned tree); cloned results/block-args are recorded
     * into @p mapping. A one-element cloneRange(). */
    std::unique_ptr<Operation> clone(
        std::unordered_map<Value *, Value *> &mapping) const;
    /** Deep-clone @p ops in order, as if by clone(mapping) on each in
     * turn: a later op's uses of an earlier op's results remap to the
     * earlier clone. The remap table is seeded from @p mapping once and
     * written back once, so cloning a range costs O(mapping + range)
     * rather than O(mapping) per op (loop unrolling and inlining clone
     * whole bodies this way). */
    static std::vector<std::unique_ptr<Operation>> cloneRange(
        const std::vector<Operation *> &ops,
        std::unordered_map<Value *, Value *> &mapping);
    /** Clone with a fresh empty mapping. Hot path of the DSE stack (one
     * clone per materialized design point): the remap table is sized to
     * the tree's value count up front, so cloning never rehashes. */
    std::unique_ptr<Operation> clone() const;

    /** Strict deep-clone for copy-on-write overlays: like clone(), but a
     * use of a value that is neither in @p mapping nor defined inside the
     * cloned tree becomes a NULL operand and clears @p complete, instead
     * of falling back to the original value. The fallback would register
     * the clone on the original value's use list — a write to the shared
     * base that races concurrent overlay builds over one pristine module.
     * An incomplete strict clone must be discarded by the caller. */
    std::unique_ptr<Operation> cloneStrict(
        std::unordered_map<Value *, Value *> &mapping, bool &complete) const;

    /** Number of values (op results + block arguments) defined inside
     * this op's tree, i.e. the number of remap entries a clone records. */
    size_t countValues() const;

  private:
    Operation() = default;
    friend class Block;

    /** Shared clone core over the pre-sized remap table. With @p complete
     * non-null, unmapped external uses become null operands and clear it
     * (the strict mode of cloneStrict); with it null, they fall back to
     * the original value (the classic clone semantics). */
    std::unique_ptr<Operation> cloneImpl(ValueRemap &remap,
                                         bool *complete = nullptr) const;
    /** The core of every mapping-seeded clone: seed the remap table
     * from @p mapping, clone the @p count ops in order through it, and
     * write it back. */
    static std::vector<std::unique_ptr<Operation>> cloneMapped(
        const Operation *const *ops, size_t count,
        std::unordered_map<Value *, Value *> &mapping, bool *complete);

    std::string name_;
    std::vector<Value *> operands_;
    std::vector<std::unique_ptr<Value>> results_;
    AttrMap attrs_;
    std::vector<std::unique_ptr<Region>> regions_;
    Block *parent_ = nullptr;
    /** Set with parent_ by every Block insert path (see position()). */
    OpList::iterator pos_;
};

/** A straight-line sequence of operations with typed block arguments. */
class Block
{
  public:
    Block() = default;
    ~Block();
    Block(const Block &) = delete;
    Block &operator=(const Block &) = delete;

    /** @name Arguments */
    ///@{
    unsigned numArguments() const { return args_.size(); }
    Value *argument(unsigned i) const { return args_[i].get(); }
    std::vector<Value *> arguments() const;
    Value *addArgument(Type type);
    ///@}

    /** @name Operations */
    ///@{
    bool empty() const { return ops_.empty(); }
    size_t size() const { return ops_.size(); }
    Operation *front() const { return ops_.front().get(); }
    Operation *back() const { return ops_.back().get(); }
    /** Snapshot of the op list (safe to mutate the block afterwards). */
    std::vector<Operation *> opsVector() const;
    const OpList &ops() const { return ops_; }

    /** Inserts, take() and erase() are O(1): each op records its own
     * list node (Operation::position()), which only they update. */
    Operation *pushBack(std::unique_ptr<Operation> op);
    Operation *pushFront(std::unique_ptr<Operation> op);
    /** Insert before @p anchor (anchor==nullptr appends). */
    Operation *insertBefore(Operation *anchor,
                            std::unique_ptr<Operation> op);
    Operation *insertAfter(Operation *anchor, std::unique_ptr<Operation> op);
    /** Unlink @p op without destroying it. */
    std::unique_ptr<Operation> take(Operation *op);
    /** Unlink and destroy @p op. */
    void erase(Operation *op);
    ///@}

    Region *parentRegion() const { return parent_; }
    Operation *parentOp() const;

  private:
    friend class Region;
    friend class Operation;

    std::vector<std::unique_ptr<Value>> args_;
    OpList ops_;
    Region *parent_ = nullptr;
};

/** A list of blocks owned by an operation. Structured-control-flow regions
 * in this project always hold exactly one block. */
class Region
{
  public:
    Region() = default;
    Region(const Region &) = delete;
    Region &operator=(const Region &) = delete;

    bool empty() const { return blocks_.empty(); }
    size_t size() const { return blocks_.size(); }
    Block &front() { return *blocks_.front(); }
    const Block &front() const { return *blocks_.front(); }
    const std::list<std::unique_ptr<Block>> &blocks() const
    {
        return blocks_;
    }

    Block *addBlock();
    Operation *parentOp() const { return parent_; }

  private:
    friend class Operation;

    std::list<std::unique_ptr<Block>> blocks_;
    Operation *parent_ = nullptr;
};

/** Convenience: op != nullptr and has the given name. */
inline bool
isa(const Operation *op, std::string_view name)
{
    return op && op->is(name);
}

} // namespace scalehls

#endif // SCALEHLS_IR_IR_H
