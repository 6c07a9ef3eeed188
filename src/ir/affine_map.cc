#include "ir/affine_map.h"

#include <cassert>

#include "support/utils.h"

namespace scalehls {

AffineMap
AffineMap::identity(unsigned num_dims)
{
    std::vector<AffineExpr> results;
    results.reserve(num_dims);
    for (unsigned i = 0; i < num_dims; ++i)
        results.push_back(getAffineDimExpr(i));
    return AffineMap(num_dims, 0, std::move(results));
}

AffineMap
AffineMap::constant(const std::vector<int64_t> &values)
{
    std::vector<AffineExpr> results;
    results.reserve(values.size());
    for (int64_t v : values)
        results.push_back(getAffineConstantExpr(v));
    return AffineMap(0, 0, std::move(results));
}

AffineMap
AffineMap::get(unsigned num_dims, AffineExpr result)
{
    return AffineMap(num_dims, 0, {std::move(result)});
}

bool
AffineMap::isIdentity() const
{
    if (numResults() != numDims_)
        return false;
    for (unsigned i = 0; i < numResults(); ++i) {
        if (results_[i].kind() != AffineExprKind::DimId ||
            results_[i].position() != i)
            return false;
    }
    return true;
}

bool
AffineMap::isConstant() const
{
    for (const auto &e : results_)
        if (!e.isConstant())
            return false;
    return !results_.empty();
}

int64_t
AffineMap::singleConstantResult() const
{
    assert(numResults() == 1 && results_[0].isConstant());
    return results_[0].constantValue();
}

bool
AffineMap::equals(const AffineMap &other) const
{
    if (numDims_ != other.numDims_ || numSymbols_ != other.numSymbols_ ||
        numResults() != other.numResults())
        return false;
    for (unsigned i = 0; i < numResults(); ++i)
        if (!results_[i].equals(other.results_[i]))
            return false;
    return true;
}

std::vector<int64_t>
AffineMap::evaluate(const std::vector<int64_t> &dims,
                    const std::vector<int64_t> &symbols) const
{
    std::vector<int64_t> out;
    out.reserve(results_.size());
    for (const auto &e : results_)
        out.push_back(e.evaluate(dims, symbols));
    return out;
}

AffineMap
AffineMap::replaceDims(const std::vector<AffineExpr> &dim_repls,
                       unsigned new_num_dims) const
{
    std::vector<AffineExpr> results;
    results.reserve(results_.size());
    for (const auto &e : results_)
        results.push_back(e.replaceDimsAndSymbols(dim_repls));
    return AffineMap(new_num_dims, numSymbols_, std::move(results));
}

void
AffineMap::print(std::string &out) const
{
    out += '(';
    for (unsigned i = 0; i < numDims_; ++i) {
        out += i ? ", d" : "d";
        appendInt(out, i);
    }
    out += ')';
    if (numSymbols_) {
        out += '[';
        for (unsigned i = 0; i < numSymbols_; ++i) {
            out += i ? ", s" : "s";
            appendInt(out, i);
        }
        out += ']';
    }
    out += " -> (";
    for (unsigned i = 0; i < numResults(); ++i) {
        if (i)
            out += ", ";
        results_[i].print(out);
    }
    out += ')';
}

std::string
AffineMap::toString() const
{
    std::string out;
    print(out);
    return out;
}

} // namespace scalehls
