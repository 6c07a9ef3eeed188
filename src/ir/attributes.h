/**
 * @file
 * Attributes: compile-time constant values attached to operations, plus the
 * hlscpp directive attributes (FuncDirective / LoopDirective) described in
 * Section IV-C of the paper.
 */

#ifndef SCALEHLS_IR_ATTRIBUTES_H
#define SCALEHLS_IR_ATTRIBUTES_H

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "ir/affine_map.h"
#include "ir/integer_set.h"
#include "ir/types.h"

namespace scalehls {

/** The hlscpp FuncDirective struct attribute: dataflow / pipeline flags and
 * the targeted pipeline initiation interval (paper Section IV-C1). */
struct FuncDirective
{
    bool dataflow = false;
    bool pipeline = false;
    int64_t targetII = 1;

    bool
    operator==(const FuncDirective &o) const
    {
        return dataflow == o.dataflow && pipeline == o.pipeline &&
               targetII == o.targetII;
    }
};

/** The hlscpp LoopDirective struct attribute attached to affine.for / scf.for
 * operations (paper Section IV-C2). `flatten` marks perfectly nested outer
 * loops absorbed into an inner pipelined loop. */
struct LoopDirective
{
    bool pipeline = false;
    int64_t targetII = 1;
    bool dataflow = false;
    bool flatten = false;

    bool
    operator==(const LoopDirective &o) const
    {
        return pipeline == o.pipeline && targetII == o.targetII &&
               dataflow == o.dataflow && flatten == o.flatten;
    }
};

/** A value-semantic attribute. */
class Attribute
{
  public:
    using Storage =
        std::variant<std::monostate, bool, int64_t, double, std::string,
                     std::vector<int64_t>, AffineMap, IntegerSet, Type,
                     FuncDirective, LoopDirective>;

    Attribute() = default;
    Attribute(bool v) : storage_(v) {}
    Attribute(int64_t v) : storage_(v) {}
    Attribute(int v) : storage_(static_cast<int64_t>(v)) {}
    Attribute(double v) : storage_(v) {}
    Attribute(const char *v) : storage_(std::string(v)) {}
    Attribute(std::string v) : storage_(std::move(v)) {}
    Attribute(std::vector<int64_t> v) : storage_(std::move(v)) {}
    Attribute(AffineMap v) : storage_(std::move(v)) {}
    Attribute(IntegerSet v) : storage_(std::move(v)) {}
    Attribute(Type v) : storage_(std::move(v)) {}
    Attribute(FuncDirective v) : storage_(v) {}
    Attribute(LoopDirective v) : storage_(v) {}

    bool isNull() const
    {
        return std::holds_alternative<std::monostate>(storage_);
    }
    explicit operator bool() const { return !isNull(); }

    template <typename T>
    bool is() const
    {
        return std::holds_alternative<T>(storage_);
    }

    template <typename T>
    const T &as() const
    {
        return std::get<T>(storage_);
    }

    bool getBool() const { return as<bool>(); }
    int64_t getInt() const { return as<int64_t>(); }
    double getFloat() const { return as<double>(); }
    const std::string &getString() const { return as<std::string>(); }
    const std::vector<int64_t> &getIntArray() const
    {
        return as<std::vector<int64_t>>();
    }
    const AffineMap &getAffineMap() const { return as<AffineMap>(); }
    const IntegerSet &getIntegerSet() const { return as<IntegerSet>(); }
    Type getType() const { return as<Type>(); }
    const FuncDirective &getFuncDirective() const
    {
        return as<FuncDirective>();
    }
    const LoopDirective &getLoopDirective() const
    {
        return as<LoopDirective>();
    }

    /** Append the rendering (e.g. "affine_map<(d0) -> (d0)>") to
     * @p out. */
    void print(std::string &out) const;

    /** The rendering print() appends, as a new string. */
    std::string toString() const;

  private:
    Storage storage_;
};

} // namespace scalehls

#endif // SCALEHLS_IR_ATTRIBUTES_H
