#include "ir/integer_set.h"

#include "support/utils.h"

namespace scalehls {

IntegerSet
IntegerSet::get(unsigned num_dims, AffineExpr constraint, bool is_eq)
{
    return IntegerSet(num_dims, {std::move(constraint)}, {is_eq});
}

bool
IntegerSet::evaluate(const std::vector<int64_t> &dims) const
{
    for (unsigned i = 0; i < numConstraints(); ++i) {
        int64_t v = constraints_[i].evaluate(dims);
        if (eqFlags_[i] ? (v != 0) : (v < 0))
            return false;
    }
    return true;
}

bool
IntegerSet::equals(const IntegerSet &other) const
{
    if (numDims_ != other.numDims_ ||
        numConstraints() != other.numConstraints())
        return false;
    for (unsigned i = 0; i < numConstraints(); ++i) {
        if (eqFlags_[i] != other.eqFlags_[i] ||
            !constraints_[i].equals(other.constraints_[i]))
            return false;
    }
    return true;
}

void
IntegerSet::print(std::string &out) const
{
    out += '(';
    for (unsigned i = 0; i < numDims_; ++i) {
        out += i ? ", d" : "d";
        appendInt(out, i);
    }
    out += ") : (";
    for (unsigned i = 0; i < numConstraints(); ++i) {
        if (i)
            out += ", ";
        constraints_[i].print(out);
        out += eqFlags_[i] ? " == 0" : " >= 0";
    }
    out += ')';
}

std::string
IntegerSet::toString() const
{
    std::string out;
    print(out);
    return out;
}

} // namespace scalehls
