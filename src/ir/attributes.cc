#include "ir/attributes.h"

#include <cstdio>

#include "support/utils.h"

namespace scalehls {

void
Attribute::print(std::string &out) const
{
    if (is<bool>()) {
        out += getBool() ? "true" : "false";
    } else if (is<int64_t>()) {
        appendInt(out, getInt());
    } else if (is<double>()) {
        // "%g" is what a default-formatted std::ostream prints.
        char buf[32];
        int n = std::snprintf(buf, sizeof(buf), "%g", getFloat());
        out.append(buf, n);
    } else if (is<std::string>()) {
        out += '"';
        out += getString();
        out += '"';
    } else if (is<std::vector<int64_t>>()) {
        out += '[';
        const auto &values = getIntArray();
        for (size_t i = 0; i < values.size(); ++i) {
            if (i)
                out += ", ";
            appendInt(out, values[i]);
        }
        out += ']';
    } else if (is<AffineMap>()) {
        out += "affine_map<";
        getAffineMap().print(out);
        out += '>';
    } else if (is<IntegerSet>()) {
        out += "affine_set<";
        getIntegerSet().print(out);
        out += '>';
    } else if (is<Type>()) {
        getType().print(out);
    } else if (is<FuncDirective>()) {
        const auto &d = getFuncDirective();
        out += "#hlscpp.func_directive<dataflow=";
        appendInt(out, d.dataflow);
        out += ", pipeline=";
        appendInt(out, d.pipeline);
        out += ", targetII=";
        appendInt(out, d.targetII);
        out += '>';
    } else if (is<LoopDirective>()) {
        const auto &d = getLoopDirective();
        out += "#hlscpp.loop_directive<pipeline=";
        appendInt(out, d.pipeline);
        out += ", targetII=";
        appendInt(out, d.targetII);
        out += ", dataflow=";
        appendInt(out, d.dataflow);
        out += ", flatten=";
        appendInt(out, d.flatten);
        out += '>';
    } else {
        out += "<<null>>";
    }
}

std::string
Attribute::toString() const
{
    std::string out;
    print(out);
    return out;
}

} // namespace scalehls
