/** @file Unit tests for the type system and attributes. */

#include <gtest/gtest.h>

#include <climits>
#include <sstream>

#include "ir/attributes.h"
#include "ir/types.h"

namespace scalehls {
namespace {

TEST(Types, ScalarEquality)
{
    EXPECT_EQ(Type::f32(), Type::f32());
    EXPECT_NE(Type::f32(), Type::f64());
    EXPECT_EQ(Type::index(), Type::index());
    EXPECT_NE(Type::i32(), Type::index());
    EXPECT_EQ(Type::i32().bitWidth(), 32u);
}

TEST(Types, MemRefBasics)
{
    Type m = Type::memref({16, 8}, Type::f32());
    EXPECT_TRUE(m.isMemRef());
    EXPECT_EQ(m.rank(), 2u);
    EXPECT_EQ(m.numElements(), 128);
    EXPECT_EQ(m.elementType(), Type::f32());
    EXPECT_EQ(m.memorySpace(), MemKind::DRAM);
    EXPECT_TRUE(m.layout().empty());
}

TEST(Types, MemRefLayoutAndSpace)
{
    Type m = Type::memref({16}, Type::f32());
    AffineMap layout =
        AffineMap(1, 0, {affineMod(getAffineDimExpr(0), 2),
                         affineFloorDiv(getAffineDimExpr(0), 2)});
    Type with_layout = m.withLayout(layout);
    EXPECT_NE(m, with_layout);
    EXPECT_TRUE(with_layout.layout().equals(layout));

    Type bram = m.withMemorySpace(MemKind::BRAM_S2P);
    EXPECT_EQ(bram.memorySpace(), MemKind::BRAM_S2P);
    EXPECT_NE(m, bram);
}

TEST(Types, TensorEquality)
{
    Type a = Type::tensor({1, 3, 32, 32}, Type::f32());
    Type b = Type::tensor({1, 3, 32, 32}, Type::f32());
    Type c = Type::tensor({1, 3, 16, 16}, Type::f32());
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_EQ(a.numElements(), 3 * 32 * 32);
}

TEST(Types, ToString)
{
    EXPECT_EQ(Type::f32().toString(), "f32");
    EXPECT_EQ(Type::index().toString(), "index");
    Type m = Type::memref({4, 4}, Type::f64(), AffineMap(),
                          MemKind::BRAM_S2P);
    EXPECT_NE(m.toString().find("memref<4x4xf64"), std::string::npos);
}

TEST(Types, MemPorts)
{
    EXPECT_EQ(memReadPorts(MemKind::BRAM_1P), 1);
    EXPECT_EQ(memReadPorts(MemKind::BRAM_T2P), 2);
    EXPECT_EQ(memCoreName(MemKind::BRAM_S2P), "ram_s2p_bram");
}

TEST(Attributes, Variants)
{
    Attribute b(true);
    EXPECT_TRUE(b.is<bool>());
    EXPECT_TRUE(b.getBool());

    Attribute i(42);
    EXPECT_TRUE(i.is<int64_t>());
    EXPECT_EQ(i.getInt(), 42);

    Attribute f(2.5);
    EXPECT_DOUBLE_EQ(f.getFloat(), 2.5);

    Attribute s("hello");
    EXPECT_EQ(s.getString(), "hello");

    Attribute arr(std::vector<int64_t>{1, 2, 3});
    EXPECT_EQ(arr.getIntArray().size(), 3u);

    Attribute null;
    EXPECT_TRUE(null.isNull());
    EXPECT_FALSE(static_cast<bool>(null));
}

TEST(Attributes, PrintMatchesStreamFormatting)
{
    // Digests hash these renderings, so they must stay the bytes a
    // default-formatted std::ostream produced.
    for (double v : {2.5, 0.1, 1e-7, 123456789.0, -0.0, 1.0 / 3, 1e300}) {
        std::ostringstream os;
        os << v;
        EXPECT_EQ(Attribute(v).toString(), os.str());
    }
    for (int64_t v : {int64_t(0), int64_t(-1), INT64_MIN, INT64_MAX})
        EXPECT_EQ(Attribute(v).toString(), std::to_string(v));
    EXPECT_EQ(Attribute(true).toString(), "true");
    EXPECT_EQ(Attribute("s").toString(), "\"s\"");
    EXPECT_EQ(Attribute(std::vector<int64_t>{1, -2, 3}).toString(),
              "[1, -2, 3]");
    LoopDirective ld;
    ld.pipeline = true;
    ld.targetII = 3;
    EXPECT_EQ(Attribute(ld).toString(),
              "#hlscpp.loop_directive<pipeline=1, targetII=3, "
              "dataflow=0, flatten=0>");
    FuncDirective fd;
    fd.dataflow = true;
    EXPECT_EQ(Attribute(fd).toString(),
              "#hlscpp.func_directive<dataflow=1, pipeline=0, targetII=1>");
    AffineExpr d0 = getAffineDimExpr(0);
    std::vector<AffineExpr> layout = {affineMod(d0, 2),
                                      getAffineConstantExpr(0),
                                      affineFloorDiv(d0, 2),
                                      getAffineDimExpr(1)};
    Type m = Type::memref({4, 8}, Type::f64(), AffineMap(2, 0, layout),
                          MemKind::BRAM_S2P);
    EXPECT_EQ(m.toString(), "memref<4x8xf64, (d0, d1) -> ((d0) mod 2, 0, "
                            "(d0) floordiv 2, d1), 2>");
    EXPECT_EQ(Attribute(m).toString(), m.toString());
    EXPECT_EQ(Type::tensor({2, 3}, Type::integer(8)).toString(),
              "tensor<2x3xi8>");
    std::string out = "x";
    Attribute(m).print(out);
    EXPECT_EQ(out, "x" + m.toString());
}

TEST(Attributes, Directives)
{
    FuncDirective fd;
    fd.dataflow = true;
    Attribute a(fd);
    EXPECT_TRUE(a.is<FuncDirective>());
    EXPECT_TRUE(a.getFuncDirective().dataflow);
    EXPECT_FALSE(a.getFuncDirective().pipeline);

    LoopDirective ld;
    ld.pipeline = true;
    ld.targetII = 3;
    Attribute l(ld);
    EXPECT_EQ(l.getLoopDirective().targetII, 3);
    EXPECT_NE(l.toString().find("pipeline=1"), std::string::npos);
}

} // namespace
} // namespace scalehls
