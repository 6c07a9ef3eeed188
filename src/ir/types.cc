#include "ir/types.h"

#include <cassert>
#include <sstream>

#include "support/utils.h"

namespace scalehls {

int
memReadPorts(MemKind kind)
{
    switch (kind) {
      case MemKind::DRAM:
        return 1;
      case MemKind::BRAM_1P:
        return 1;
      case MemKind::BRAM_S2P:
        return 1;
      case MemKind::BRAM_T2P:
        return 2;
    }
    return 1;
}

int
memWritePorts(MemKind kind)
{
    switch (kind) {
      case MemKind::DRAM:
        return 1;
      case MemKind::BRAM_1P:
        return 1;
      case MemKind::BRAM_S2P:
        return 1;
      case MemKind::BRAM_T2P:
        return 2;
    }
    return 1;
}

std::string
memCoreName(MemKind kind)
{
    switch (kind) {
      case MemKind::DRAM:
        return "axi";
      case MemKind::BRAM_1P:
        return "ram_1p_bram";
      case MemKind::BRAM_S2P:
        return "ram_s2p_bram";
      case MemKind::BRAM_T2P:
        return "ram_t2p_bram";
    }
    return "ram_s2p_bram";
}

namespace {

std::shared_ptr<const TypeStorage>
makeStorage(TypeKind kind, unsigned width)
{
    auto s = std::make_shared<TypeStorage>();
    s->kind = kind;
    s->width = width;
    return s;
}

} // namespace

Type
Type::none()
{
    static auto storage = makeStorage(TypeKind::None, 0);
    return Type(storage);
}

Type
Type::index()
{
    static auto storage = makeStorage(TypeKind::Index, 64);
    return Type(storage);
}

Type
Type::integer(unsigned width)
{
    return Type(makeStorage(TypeKind::Integer, width));
}

Type
Type::floating(unsigned width)
{
    assert((width == 16 || width == 32 || width == 64) &&
           "unsupported float width");
    return Type(makeStorage(TypeKind::Float, width));
}

Type
Type::memref(std::vector<int64_t> shape, Type element, AffineMap layout,
             MemKind space)
{
    assert(element && !element.isMemRef() && !element.isTensor() &&
           "memref element must be scalar");
    auto s = std::make_shared<TypeStorage>();
    s->kind = TypeKind::MemRef;
    s->shape = std::move(shape);
    s->element = element.impl_;
    s->layout = std::move(layout);
    s->space = space;
    return Type(std::move(s));
}

Type
Type::tensor(std::vector<int64_t> shape, Type element)
{
    assert(element && "tensor element type required");
    auto s = std::make_shared<TypeStorage>();
    s->kind = TypeKind::Tensor;
    s->shape = std::move(shape);
    s->element = element.impl_;
    return Type(std::move(s));
}

TypeKind
Type::kind() const
{
    return impl_ ? impl_->kind : TypeKind::None;
}

unsigned
Type::bitWidth() const
{
    assert(impl_);
    if (isMemRef() || isTensor())
        return elementType().bitWidth();
    return impl_->width;
}

const std::vector<int64_t> &
Type::shape() const
{
    assert(isMemRef() || isTensor());
    return impl_->shape;
}

int64_t
Type::numElements() const
{
    int64_t n = 1;
    for (int64_t d : shape())
        n *= d;
    return n;
}

Type
Type::elementType() const
{
    assert(isMemRef() || isTensor());
    return Type(impl_->element);
}

const AffineMap &
Type::layout() const
{
    assert(isMemRef());
    return impl_->layout;
}

MemKind
Type::memorySpace() const
{
    assert(isMemRef());
    return impl_->space;
}

Type
Type::withLayout(AffineMap layout) const
{
    assert(isMemRef());
    return memref(impl_->shape, elementType(), std::move(layout),
                  impl_->space);
}

Type
Type::withMemorySpace(MemKind space) const
{
    assert(isMemRef());
    return memref(impl_->shape, elementType(), impl_->layout, space);
}

bool
Type::equals(const Type &other) const
{
    if (impl_ == other.impl_)
        return true;
    if (!impl_ || !other.impl_)
        return false;
    if (kind() != other.kind())
        return false;
    switch (kind()) {
      case TypeKind::None:
        return true;
      case TypeKind::Index:
        return true;
      case TypeKind::Integer:
      case TypeKind::Float:
        return impl_->width == other.impl_->width;
      case TypeKind::MemRef:
        return impl_->shape == other.impl_->shape &&
               elementType() == other.elementType() &&
               impl_->layout.equals(other.impl_->layout) &&
               impl_->space == other.impl_->space;
      case TypeKind::Tensor:
        return impl_->shape == other.impl_->shape &&
               elementType() == other.elementType();
    }
    return false;
}

void
Type::print(std::string &out) const
{
    if (!impl_) {
        out += "<<null>>";
        return;
    }
    switch (kind()) {
      case TypeKind::None:
        out += "none";
        break;
      case TypeKind::Index:
        out += "index";
        break;
      case TypeKind::Integer:
        out += 'i';
        appendInt(out, impl_->width);
        break;
      case TypeKind::Float:
        out += 'f';
        appendInt(out, impl_->width);
        break;
      case TypeKind::MemRef:
      case TypeKind::Tensor:
        out += kind() == TypeKind::MemRef ? "memref<" : "tensor<";
        for (int64_t d : impl_->shape) {
            appendInt(out, d);
            out += 'x';
        }
        elementType().print(out);
        if (kind() == TypeKind::MemRef) {
            if (!impl_->layout.empty()) {
                out += ", ";
                impl_->layout.print(out);
            }
            if (impl_->space != MemKind::DRAM) {
                out += ", ";
                appendInt(out, static_cast<int>(impl_->space));
            }
        }
        out += '>';
        break;
    }
}

std::string
Type::toString() const
{
    std::string out;
    print(out);
    return out;
}

} // namespace scalehls
