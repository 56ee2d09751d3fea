"""Rule catalog: turns frontend facts into findings, with path scoping.

Every rule guards a repo invariant (see DESIGN.md §14 for the long-form
rationale). Scoping is expressed against repo-root-relative paths so the
fixture tree under tests/tools/fixtures can mirror the real layout.

Suppression: `// lint:allow(<rule>) <why>` on the finding's line or the
line directly above (the why is mandatory — ALLOW_RE in the frontends
refuses a bare tag), plus the committed baseline (tools/analyze/
baseline.json) for findings accepted wholesale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .facts import (
    BannedUseFact,
    FileFacts,
    Finding,
    FpAccumulationFact,
    HotLoopAllocFact,
    ParallelWriteFact,
    RngSeedFact,
    UnorderedIterationFact,
    WallclockFact,
)
from .token_frontend import RNG_BANNED_ATOMS

REDUCTION_DIRS = ("src/fl/", "src/core/", "src/comm/")
UNORDERED_DIRS = REDUCTION_DIRS + ("src/tensor/",)

# Sanctioned reduction helpers: the only places fp accumulation over
# device/update collections may live (fl::Aggregator seam — the flat rules
# in aggregation.* plus the hierarchical tree in hierarchy.* — and the
# tensor primitives they call).
FP_SEAM_FILES = ("src/fl/aggregation.", "src/fl/hierarchy.",
                 "src/tensor/vecops.")

# Files allowed to perform line-12 weighted averaging directly (the
# Aggregator implementations themselves and the vecops they delegate to).
AGGREGATION_SEAM_FILES = FP_SEAM_FILES

WALLCLOCK_EXEMPT = ("src/obs/", "src/util/stopwatch.h")

# Directories/files whose loops are per-round / per-iteration hot paths: a
# heap allocation inside one multiplies by rounds × devices × iterations.
# The round engine (trainer.*) and the tree aggregator run once per round
# over every participant, src/comm encodes every uplink, and src/nn computes
# every gradient and eval chunk, so they are held to the same standard as
# the solvers.
HOT_LOOP_DIRS = ("src/opt/", "src/tensor/", "src/core/", "src/comm/",
                 "src/nn/", "src/fl/trainer.", "src/fl/hierarchy.")


def _under(path: str, prefixes: tuple[str, ...]) -> bool:
    return any(path.startswith(p) for p in prefixes)


@dataclass(frozen=True)
class Rule:
    name: str
    description: str
    applies: Callable[[str], bool]
    # fact type this rule consumes; evaluation below dispatches on it.


RULES: list[Rule] = [
    Rule(
        "rng-fork-discipline",
        "util::Rng seeds must derive from (seed, device, round, stream) — "
        "never wall time, addresses, or ambient randomness; anything else "
        "breaks run-to-run reproducibility from a single seed",
        lambda p: not p.startswith("src/util/rng."),
    ),
    Rule(
        "no-unordered-iteration-in-reduction",
        "range-for over std::unordered_map/set in fl/core/comm/tensor: "
        "iteration order is implementation-defined and feeds aggregation "
        "or serialization, so it must not be observable",
        lambda p: _under(p, UNORDERED_DIRS),
    ),
    Rule(
        "parallel-capture-safety",
        "lambdas given to ThreadPool::parallel_for/parallel_ranges/submit "
        "may write by-ref captures only through indices derived from the "
        "range argument (disjoint slices); anything else is a data race "
        "or a pool-size-dependent result",
        lambda p: p.startswith("src/"),
    ),
    Rule(
        "no-wallclock-outside-obs",
        "ambient time (std::chrono clocks, time(), clock_gettime(), ...) "
        "is allowed only in src/obs/ and src/util/stopwatch.h: simulated "
        "time comes from the eq. 19 timing model, and wall time in an "
        "algorithm path makes runs irreproducible",
        lambda p: p.startswith("src/") and not _under(p, WALLCLOCK_EXEMPT),
    ),
    Rule(
        "fp-reduction-in-seam",
        "floating-point += reduction over a device/update collection "
        "belongs in fl::Aggregator / tensor::vecops helpers, where the "
        "accumulation order is pinned (ascending, serial) and audited",
        lambda p: _under(p, REDUCTION_DIRS) and not _under(p, FP_SEAM_FILES),
    ),
    Rule(
        "no-alloc-in-hot-loop",
        "heap allocation inside a loop in the solver/tensor/core hot "
        "paths (sized vector construction, resize/push_back growth, new): "
        "keep the buffer where it outlives the loop (a SolverWorkspace, or "
        "a thread_local buffer taken through tensor::scratch()) and reuse "
        "it; reserve() ahead of the loop exempts push_back",
        lambda p: _under(p, HOT_LOOP_DIRS),
    ),
    # ---- ported from tools/lint.py (now call/token-expression precise) ----
    Rule(
        "no-std-rand",
        "random draws must go through util::Rng (seeded, fork-able) so "
        "training runs stay reproducible",
        lambda p: not p.startswith("src/util/rng."),
    ),
    Rule(
        "no-naked-new",
        "no naked new/delete; use std::make_unique / std::make_shared or "
        "a container",
        lambda p: p.startswith("src/"),
    ),
    Rule(
        "aggregation-in-seam",
        "line-12 weighted averaging belongs behind the fl::Aggregator seam "
        "(src/fl/aggregation.*); hand-rolled averages bypass the server's "
        "Byzantine defenses",
        lambda p: not _under(p, AGGREGATION_SEAM_FILES),
    ),
    Rule(
        "compression-in-seam",
        "uplink compression belongs behind the comm::Channel seam "
        "(src/comm/channel.*): a raw Compressor::compress() call skips "
        "error feedback and the measured wire-byte accounting",
        lambda p: not p.startswith("src/comm/"),
    ),
]

RULES_BY_NAME = {r.name: r for r in RULES}


def _rule_on(name: str, path: str) -> bool:
    return RULES_BY_NAME[name].applies(path)


def evaluate(ff: FileFacts) -> list[Finding]:
    """All findings for one file, before allow/baseline filtering."""
    p = ff.path
    out: list[Finding] = []
    for f in ff.facts:
        if isinstance(f, RngSeedFact):
            if not _rule_on("rng-fork-discipline", p):
                continue
            banned = sorted(set(f.arg_tokens) & RNG_BANNED_ATOMS)
            if f.address_of:
                banned.append("address-of")
            if banned:
                out.append(Finding(
                    "rng-fork-discipline", p, f.line,
                    f"{f.callee}() seed derivation uses "
                    f"{', '.join(banned)}; seeds must be pure functions of "
                    "(seed, device, round, stream tag)"))
        elif isinstance(f, UnorderedIterationFact):
            if _rule_on("no-unordered-iteration-in-reduction", p):
                out.append(Finding(
                    "no-unordered-iteration-in-reduction", p, f.line,
                    f"iteration over unordered container '{f.container}': "
                    "order is implementation-defined; use a sorted "
                    "container or iterate a sorted key copy"))
        elif isinstance(f, ParallelWriteFact):
            if _rule_on("parallel-capture-safety", p):
                out.append(Finding(
                    "parallel-capture-safety", p, f.line,
                    f"lambda passed to {f.entry}() {f.detail}"))
        elif isinstance(f, WallclockFact):
            if _rule_on("no-wallclock-outside-obs", p):
                out.append(Finding(
                    "no-wallclock-outside-obs", p, f.line,
                    f"'{f.name}' reads ambient time outside src/obs/ and "
                    "src/util/stopwatch.h"))
        elif isinstance(f, FpAccumulationFact):
            if not _rule_on("fp-reduction-in-seam", p):
                continue
            if f.lhs_declared_in_loop or f.lhs_indexed_by_loop_var:
                continue  # per-iteration local / element-wise disjoint
            if f.loop_kind == "range" or f.rhs_uses_loop_var:
                out.append(Finding(
                    "fp-reduction-in-seam", p, f.line,
                    f"fp accumulation '{f.lhs} +=' over a collection "
                    "outside the sanctioned reduction helpers "
                    "(fl::Aggregator / tensor::vecops)"))
        elif isinstance(f, HotLoopAllocFact):
            if _rule_on("no-alloc-in-hot-loop", p):
                out.append(Finding(
                    "no-alloc-in-hot-loop", p, f.line,
                    f"'{f.spelling}' inside a loop body allocates every "
                    "iteration; hoist it into a reused workspace buffer "
                    "(reserve() ahead of the loop exempts push_back)"))
        elif isinstance(f, BannedUseFact):
            if f.kind == "std-rand" and _rule_on("no-std-rand", p):
                out.append(Finding(
                    "no-std-rand", p, f.line,
                    RULES_BY_NAME["no-std-rand"].description))
            elif f.kind in ("new", "delete") and _rule_on("no-naked-new", p):
                out.append(Finding(
                    "no-naked-new", p, f.line,
                    RULES_BY_NAME["no-naked-new"].description))
            elif (f.kind == "accumulate-weighted"
                  and _rule_on("aggregation-in-seam", p)):
                out.append(Finding(
                    "aggregation-in-seam", p, f.line,
                    RULES_BY_NAME["aggregation-in-seam"].description))
            elif (f.kind == "compress-call"
                  and _rule_on("compression-in-seam", p)):
                out.append(Finding(
                    "compression-in-seam", p, f.line,
                    RULES_BY_NAME["compression-in-seam"].description))
    return _apply_allows(ff, out)


def _apply_allows(ff: FileFacts, findings: list[Finding]) -> list[Finding]:
    kept = []
    for fi in findings:
        allow = ff.allows.get(fi.line) or ff.allows.get(fi.line - 1)
        if allow == fi.rule:
            continue
        kept.append(fi)
    return kept


def list_rules() -> str:
    width = max(len(r.name) for r in RULES)
    lines = [f"{r.name.ljust(width)}  {r.description}" for r in RULES]
    return "\n".join(lines)
