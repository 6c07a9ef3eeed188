/** @file Tests for the HLS C front-end: lexer, parser and IR generation. */

#include <gtest/gtest.h>

#include "frontend/irgen.h"
#include "dialect/ops.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "model/polybench.h"
#include "support/utils.h"

namespace scalehls {
namespace {

TEST(Lexer, BasicTokens)
{
    auto tokens = tokenize("void f(float x) { x += 1.5f; } // end");
    std::vector<TokKind> kinds;
    for (const Token &tok : tokens)
        kinds.push_back(tok.kind);
    EXPECT_EQ(kinds.front(), TokKind::KwVoid);
    EXPECT_EQ(kinds.back(), TokKind::Eof);
    bool has_plus_assign = false;
    bool has_float = false;
    for (const Token &tok : tokens) {
        has_plus_assign |= tok.kind == TokKind::PlusAssign;
        if (tok.kind == TokKind::FloatLiteral) {
            has_float = true;
            EXPECT_DOUBLE_EQ(tok.floatValue, 1.5);
        }
    }
    EXPECT_TRUE(has_plus_assign);
    EXPECT_TRUE(has_float);
}

TEST(Lexer, SkipsCommentsAndPragmas)
{
    auto tokens = tokenize("/* block */ int x; // line\n#pragma HLS foo\n");
    EXPECT_EQ(tokens[0].kind, TokKind::KwInt);
    EXPECT_EQ(tokens[1].kind, TokKind::Identifier);
}

TEST(Lexer, RejectsGarbage)
{
    EXPECT_THROW(tokenize("void f() { $ }"), FatalError);

    // Numeric literals past int64 / double range are diagnostics, not
    // std::out_of_range aborts.
    auto diagnostic = [](const std::string &source) {
        try {
            tokenize(source);
        } catch (const FatalError &error) {
            return std::string(error.what());
        }
        return std::string("no error");
    };
    EXPECT_EQ(diagnostic("A[i] = A[i]*99999999999999999999;"),
              "lexer: integer literal out of range at line 1, column 13");
    EXPECT_EQ(diagnostic("x =\n 1" + std::string(400, '0') + ".0;"),
              "lexer: float literal out of range at line 2, column 2");
}

TEST(Parser, FunctionAndParams)
{
    CProgram program = parseProgram(
        "void k(float alpha, float A[4][8], int n) { return; }");
    ASSERT_EQ(program.funcs.size(), 1u);
    const CFunc &func = program.funcs[0];
    EXPECT_EQ(func.name, "k");
    ASSERT_EQ(func.params.size(), 3u);
    EXPECT_TRUE(func.params[0].dims.empty());
    EXPECT_EQ(func.params[1].dims, (std::vector<int64_t>{4, 8}));
    EXPECT_EQ(func.params[2].type, CType::Int);
}

TEST(Parser, ForLoopNormalization)
{
    CProgram program = parseProgram(
        "void k(float A[8]) { for (int i = 0; i <= 6; i += 2) "
        "A[i] = 0.0; }");
    const CStmt &loop = *program.funcs[0].body[0];
    ASSERT_EQ(loop.kind, CStmt::Kind::For);
    EXPECT_EQ(loop.step, 2);
    // `i <= 6` normalized to `i < 6 + 1`.
    EXPECT_EQ(loop.upperExpr->kind, CExpr::Kind::Binary);
}

TEST(Parser, RejectsPointers)
{
    EXPECT_THROW(parseProgram("void k(float *p) {}"), FatalError);
}

TEST(Parser, RejectsNonVoid)
{
    EXPECT_THROW(parseProgram("int k() { return; }"), FatalError);
}

TEST(Parser, RejectsDecreasingLoop)
{
    EXPECT_THROW(
        parseProgram("void k(float A[4]) { for (int i = 3; i < 4; i--) "
                     "A[i] = 0.0; }"),
        FatalError);
}

TEST(IRGen, GemmStructure)
{
    auto module = parseCToModule(polybenchSource("gemm", 16));
    ASSERT_TRUE(verifyOk(module.get()));
    Operation *func = getTopFunc(module.get());
    ASSERT_NE(func, nullptr);
    EXPECT_EQ(funcName(func), "gemm");
    EXPECT_TRUE(isTopFunc(func));

    // Three nested scf loops before raising.
    EXPECT_EQ(func->collect(ops::ScfFor).size(), 3u);
    EXPECT_FALSE(func->collect(ops::MemLoad).empty());
    EXPECT_FALSE(func->collect(ops::MemStore).empty());

    // Scalar args are index/float block args.
    Block *body = funcBody(func);
    EXPECT_TRUE(body->argument(0)->type().isFloat());  // alpha
    EXPECT_TRUE(body->argument(2)->type().isMemRef()); // C
    EXPECT_EQ(body->argument(2)->type().memorySpace(), MemKind::BRAM_S2P);
}

TEST(IRGen, UndeclaredIdentifier)
{
    EXPECT_THROW(parseCToModule("void k(float A[4]) { A[0] = x; }"),
                 FatalError);
}

TEST(IRGen, AssignToParamRejected)
{
    EXPECT_THROW(parseCToModule("void k(float a) { a = 1.0; }"),
                 FatalError);
}

TEST(IRGen, MutableScalarBecomesBuffer)
{
    auto module = parseCToModule(
        "void k(float A[4]) { float t = 0.0; t += A[0]; A[1] = t; }");
    Operation *func = getTopFunc(module.get());
    // One alloc of memref<1xf32> models the mutable scalar.
    auto allocs = func->collect(ops::Alloc);
    ASSERT_EQ(allocs.size(), 1u);
    EXPECT_EQ(allocs[0]->result(0)->type().numElements(), 1);
    EXPECT_TRUE(verifyOk(module.get()));
}

TEST(IRGen, IfElseAndTernary)
{
    auto module = parseCToModule(
        "void k(float A[4], int n) {\n"
        "  for (int i = 0; i < 4; i++) {\n"
        "    if (i == n) { A[i] = 1.0; } else { A[i] = 2.0; }\n"
        "    A[i] = i < 2 ? A[i] : 0.0;\n"
        "  }\n"
        "}");
    Operation *func = getTopFunc(module.get());
    EXPECT_EQ(func->collect(ops::ScfIf).size(), 1u);
    EXPECT_EQ(func->collect(ops::Select).size(), 1u);
    EXPECT_TRUE(verifyOk(module.get()));
}

TEST(IRGen, AllPolybenchKernelsParse)
{
    for (const std::string &kernel : polybenchKernelNames()) {
        auto module = parseCToModule(polybenchSource(kernel, 32));
        EXPECT_TRUE(verifyOk(module.get())) << kernel;
        EXPECT_NE(getTopFunc(module.get()), nullptr) << kernel;
    }
}

TEST(IRGen, ArgNamesRecorded)
{
    auto module = parseCToModule(polybenchSource("gemm", 8));
    Operation *func = getTopFunc(module.get());
    EXPECT_EQ(func->attr("arg_names").getString(), "alpha,beta,C,A,B");
}

} // namespace
} // namespace scalehls
