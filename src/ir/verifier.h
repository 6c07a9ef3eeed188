/**
 * @file
 * Layered IR verification.
 *
 * L1 (Structural): SSA dominance, null operands, region/terminator shape,
 *     operand typing, and each op's link to its block (parentBlock() and
 *     the recorded list position) — the invariants every transform must
 *     preserve.
 * L2 (Semantic): dialect-level legality — affine bound maps and steps,
 *     access-map arity vs memref rank, module/call-graph consistency and
 *     hlscpp directive-attribute well-formedness (directive placement,
 *     target II ranges, dataflow-top body shape).
 * L3 (Overlay audit): auditOverlayAliasing() walks an overlayClone result
 *     and proves no mutable path leads back into the shared pristine base
 *     (every operand is overlay-defined or null-substituted; no base value
 *     lists an overlay op as a user).
 * The L4 cache-coherence audit lives in estimate/coherence_audit.h since
 * it needs the digest machinery; it reports through the same VerifyError.
 *
 * Every error carries a machine-readable kind and a stable op path
 * (see opPath() in ir/printer.h), so tools and tests can match on
 * structure instead of message text.
 */

#ifndef SCALEHLS_IR_VERIFIER_H
#define SCALEHLS_IR_VERIFIER_H

#include <set>
#include <string>
#include <vector>

#include "ir/ir.h"

namespace scalehls {

struct OverlayClone;

/** Machine-readable verifier diagnostic kinds, grouped by layer. */
enum class VerifyKind
{
    // L1 — structural
    NullOperand,
    DominanceViolation,
    RegionShape,
    TypeMismatch,
    BrokenOpLink,
    // L2 — dialect semantics
    InvalidBoundMap,
    InvalidAccessMap,
    BadTerminator,
    InvalidDirective,
    InvalidDataflow,
    UnknownCallee,
    DuplicateSymbol,
    InvalidModule,
    // L3 — overlay aliasing audit
    OverlayIncomplete,
    OverlayBaseAlias,
    OverlayUseLeak,
    // L4 — cache coherence audit (estimate/coherence_audit)
    StaleScheduleEntry,
    MalformedScheduleEntry,
    DigestCoverageGap,
};

/** Stable identifier for a kind, e.g. "DominanceViolation". */
const char *verifyKindName(VerifyKind kind);

/** One structured diagnostic: kind + op path + human-readable detail. */
struct VerifyError
{
    VerifyKind kind;
    std::string path;    ///< stable op path (ir/printer.h opPath())
    std::string message; ///< free-form detail

    /** Render "[Kind] path: message" for logs and legacy callers. */
    std::string str() const;
};

/** How deep verifyErrors() checks. Semantic includes Structural. */
enum class VerifyLevel
{
    Structural, ///< L1 only
    Semantic,   ///< L1 + L2 (default)
};

/** Verify @p root recursively; returns structured diagnostics (empty
 * when the IR is valid at the requested level). */
std::vector<VerifyError> verifyErrors(Operation *root,
                                      VerifyLevel level
                                      = VerifyLevel::Semantic);

/** L3: audit an overlayClone result against its pristine @p base. Proves
 * the overlay is complete, every overlay operand resolves inside the
 * overlay (or was null-substituted), the value map lands in the overlay
 * tree, and no base value holds an overlay op on its use list — i.e. no
 * mutable path from the overlay into the shared base. */
std::vector<VerifyError> auditOverlayAliasing(const OverlayClone &overlay,
                                              Operation *base);

/** Legacy interface: rendered strings of verifyErrors(root, Semantic). */
std::vector<std::string> verify(Operation *root);

/** Convenience wrapper: true when verify() reports no errors. */
bool verifyOk(Operation *root);

} // namespace scalehls

#endif // SCALEHLS_IR_VERIFIER_H
