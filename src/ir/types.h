/**
 * @file
 * The type system: index, integer, float, memref (with an affine layout map
 * encoding array partitioning and a memory space encoding the HLS resource
 * directive) and tensor (graph level).
 */

#ifndef SCALEHLS_IR_TYPES_H
#define SCALEHLS_IR_TYPES_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/affine_map.h"

namespace scalehls {

/** Kinds of types. */
enum class TypeKind
{
    None,
    Index,
    Integer,
    Float,
    MemRef,
    Tensor,
};

/** HLS memory resource kinds, encoded as the memref memory space. This
 * reproduces the paper's "array resource" directive: different kinds of
 * memories map to different memory spaces (Section IV-C4). */
enum class MemKind : int
{
    DRAM = 0,     ///< Off-chip memory, accessed through an AXI interface.
    BRAM_1P = 1,  ///< Single-port on-chip block RAM.
    BRAM_S2P = 2, ///< Simple dual-port BRAM (one read + one write port).
    BRAM_T2P = 3, ///< True dual-port BRAM (two read/write ports).
};

/** Number of simultaneous read ports of a memory kind. */
int memReadPorts(MemKind kind);
/** Number of simultaneous write ports of a memory kind. */
int memWritePorts(MemKind kind);
/** Vivado HLS resource core name (for pragma emission). */
std::string memCoreName(MemKind kind);

class TypeStorage;

/** Value-semantic immutable type handle. Structural equality. */
class Type
{
  public:
    Type() = default;

    /** @name Factories */
    ///@{
    static Type none();
    static Type index();
    static Type integer(unsigned width);
    static Type i1() { return integer(1); }
    static Type i32() { return integer(32); }
    static Type i64() { return integer(64); }
    static Type floating(unsigned width);
    static Type f32() { return floating(32); }
    static Type f64() { return floating(64); }
    static Type memref(std::vector<int64_t> shape, Type element,
                       AffineMap layout = AffineMap(),
                       MemKind space = MemKind::DRAM);
    static Type tensor(std::vector<int64_t> shape, Type element);
    ///@}

    explicit operator bool() const { return impl_ != nullptr; }

    TypeKind kind() const;
    bool isIndex() const { return kind() == TypeKind::Index; }
    bool isInteger() const { return kind() == TypeKind::Integer; }
    bool isFloat() const { return kind() == TypeKind::Float; }
    bool isMemRef() const { return kind() == TypeKind::MemRef; }
    bool isTensor() const { return kind() == TypeKind::Tensor; }
    bool isIntOrIndex() const { return isInteger() || isIndex(); }

    /** Bit width of integer/float types (index counts as 64). */
    unsigned bitWidth() const;

    /** @name Shaped type (memref/tensor) accessors */
    ///@{
    const std::vector<int64_t> &shape() const;
    unsigned rank() const { return shape().size(); }
    int64_t numElements() const;
    Type elementType() const;
    ///@}

    /** @name MemRef specific accessors */
    ///@{
    const AffineMap &layout() const;
    MemKind memorySpace() const;
    /** Rebuild this memref with a different layout map. */
    Type withLayout(AffineMap layout) const;
    /** Rebuild this memref with a different memory space. */
    Type withMemorySpace(MemKind space) const;
    ///@}

    bool equals(const Type &other) const;
    bool operator==(const Type &other) const { return equals(other); }
    bool operator!=(const Type &other) const { return !equals(other); }

    /** Append the rendering (e.g. "memref<4x8xf32, layout, 1>") to
     * @p out. */
    void print(std::string &out) const;

    /** The rendering print() appends, as a new string. */
    std::string toString() const;

  private:
    explicit Type(std::shared_ptr<const TypeStorage> impl)
        : impl_(std::move(impl))
    {}
    std::shared_ptr<const TypeStorage> impl_;
};

/** Internal storage for Type. */
class TypeStorage
{
  public:
    TypeKind kind = TypeKind::None;
    unsigned width = 0;
    std::vector<int64_t> shape;
    std::shared_ptr<const TypeStorage> element;
    AffineMap layout;
    MemKind space = MemKind::DRAM;

    friend class Type;
};

} // namespace scalehls

#endif // SCALEHLS_IR_TYPES_H
