#!/usr/bin/env python3
"""Textual lint rules that need no parse: include hygiene + NOLINT policy.

Run from the repository root (CI does):  python3 tools/lint.py
Catalog:                                 python3 tools/lint.py --list-rules

Semantic rules (no-std-rand, no-naked-new, aggregation-in-seam,
compression-in-seam, and the determinism/concurrency invariants) moved
to the token/AST analyzer — `python3 tools/analyze` (fedvr-analyze) —
which matches call expressions instead of regexes and so stopped the
false-positive classes a line regex cannot avoid (identifiers containing
'new', compress() on non-Compressor types, ...). What stays here is
exactly what a *line* can decide without a parse:

  no-iostream-in-headers
                    <iostream> in a header pulls the global ios_base::Init
                    static into every TU and invites debug-print creep;
                    headers stream into std::ostream& or util::log instead.

  headers-obs-free  Outside src/obs/, headers must not include obs headers.
                    Observability is an implementation detail of .cpp files
                    (thread_pool.cpp, trainer.cpp): keeping it out of
                    interfaces means an obs change rebuilds only leaf
                    objects, and no public API depends on it.

  nolint-needs-reason
                    clang-tidy suppressions must be scoped and justified:
                    `NOLINT(check-name) -- why` (or NOLINTNEXTLINE /
                    NOLINTBEGIN). A bare NOLINT silences *every* check on
                    the line forever and reviews cannot tell why it is
                    there. Same policy as the analyzer's lint:allow tags.

  one-isa-dispatch  The GEMM kernel variants are picked in one place,
                    kernel_shape() in src/tensor/kernels.cpp, whose target
                    regions compile each variant. `target_clones` (an IFUNC
                    dispatch of its own, with whatever arithmetic the
                    compiler's FMA contraction makes) is banned everywhere,
                    and `#pragma GCC target` / `target(...)` attributes are
                    allowed in that one file only.

  aligned-hot-buffers
                    The buffers the kernels stream (Dataset features, the
                    solver workspace, nn's activations and eval scratch,
                    the kernels' per-thread scratch) are
                    tensor::AlignedVector, so they start on a cache line. A
                    std::vector<double> member in src/data/dataset.h,
                    src/opt/workspace.h, src/nn/sequential.h or
                    src/nn/feedforward.cpp's struct EvalScratch, or a
                    std::vector<double> declared anywhere in
                    src/tensor/kernels.cpp, src/nn/conv2d.cpp or
                    src/nn/dense.cpp, gets malloc's 16-byte alignment, and
                    the AVX-512 tiles then read every row across two
                    lines.

False positives are silenced with `// lint:allow(<rule>) <why>` on the
offending line or the line directly above it — the justification is
mandatory and shows up in review.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

HEADER_SUFFIXES = {".h", ".hpp"}
CPP_SUFFIXES = {".h", ".hpp", ".cpp", ".cc"}

ALLOW = re.compile(r"//\s*lint:allow\(([a-z-]+)\)\s+\S")

# NOLINT with a (check) scope and a trailing justification is fine;
# anything else NOLINT-shaped is a violation.
NOLINT_ANY = re.compile(r"\bNOLINT(NEXTLINE|BEGIN|END)?\b")
NOLINT_JUSTIFIED = re.compile(
    r"\bNOLINT(?:NEXTLINE|BEGIN)?\([\w.-]+(?:\s*,\s*[\w.-]+)*\)\s*--\s*\S"
    r"|\bNOLINTEND\b")

# The one file whose target regions compile the SIMD kernel variants.
ISA_DISPATCH_FILE = SRC / "tensor" / "kernels.cpp"
TARGET_CLONES = re.compile(r"target_clones")
ISA_TARGET = re.compile(
    r"target_clones|#\s*pragma\s+GCC\s+target\b"
    r"|__attribute__\s*\(\(\s*target\s*\(|\[\[\s*gnu::target\s*\(")

# Files whose double buffers are kernel operands, each mapped to the struct
# the aligned-hot-buffers rule scans ("": the whole file).
HOT_BUFFER_FILES = {
    "data/dataset.h": "",
    "opt/workspace.h": "",
    "nn/sequential.h": "",
    "nn/feedforward.cpp": "EvalScratch",
    # The kernels' thread_local scratch (tensor/arena.h).
    "tensor/kernels.cpp": "",
    "nn/conv2d.cpp": "",
    "nn/dense.cpp": "",
}
# A member-shaped declaration: the type (possibly nested in another vector),
# a name, then `;`, `{` or `=`. Parameters and return types do not match.
VECTOR_DOUBLE_MEMBER = re.compile(r"std::vector<\s*double\s*>+\s+\w+\s*[;{=]")


def hot_buffer_struct(path: Path) -> str | None:
    """The struct whose members the aligned-hot-buffers rule checks in
    `path`: "" for the whole file, None when the rule does not apply."""
    try:
        return HOT_BUFFER_FILES.get(path.relative_to(SRC).as_posix())
    except ValueError:
        return None


# (rule, pattern, file-filter, message)
RULES = [
    (
        "no-iostream-in-headers",
        re.compile(r'#\s*include\s*<iostream>'),
        lambda p: p.suffix in HEADER_SUFFIXES,
        "headers must not include <iostream>; take a std::ostream& "
        "or use util/log.h",
    ),
    (
        "headers-obs-free",
        re.compile(r'#\s*include\s*"obs/'),
        lambda p: p.suffix in HEADER_SUFFIXES
        and (SRC / "obs") not in p.parents,
        "observability stays out of interfaces: include obs/ headers "
        "from .cpp files only",
    ),
    (
        "nolint-needs-reason",
        NOLINT_ANY,
        lambda p: True,
        "NOLINT must name its check and reason: "
        "`NOLINT(check-name) -- why` (NOLINTEND closes a justified "
        "NOLINTBEGIN and needs no reason of its own)",
    ),
    (
        "one-isa-dispatch",
        ISA_TARGET,
        lambda p: True,
        "no target_clones anywhere; target pragmas and attributes only in "
        "src/tensor/kernels.cpp, whose kernel_shape() is the one ISA "
        "dispatch",
    ),
    (
        "aligned-hot-buffers",
        VECTOR_DOUBLE_MEMBER,
        lambda p: hot_buffer_struct(p) is not None,
        "kernel-operand storage is tensor::AlignedVector<double> "
        "(tensor/aligned.h), which starts on a cache line; "
        "std::vector<double> is aligned to 16 bytes only",
    ),
]

def lint_file(path: Path) -> list[str]:
    errors = []
    rel = path.relative_to(REPO)
    prev_allow = None
    # aligned-hot-buffers looks at the whole file, or inside one struct.
    struct = hot_buffer_struct(path)
    in_struct = struct == ""
    for lineno, raw in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        allow = ALLOW.search(raw) or prev_allow
        prev_allow = ALLOW.search(raw)
        if struct:
            if re.search(rf"\bstruct\s+{struct}\b", raw):
                in_struct = True
            elif in_struct and re.match(r"\s*};", raw):
                in_struct = False
        for rule, pattern, applies, message in RULES:
            if not applies(path):
                continue
            if rule == "aligned-hot-buffers":
                # Declarations, not prose: the code before any comment.
                if not in_struct or not pattern.search(raw.split("//")[0]):
                    continue
            # Every other rule targets directives or comments, so the raw
            # line is the haystack (no comment/string stripping).
            elif not pattern.search(raw):
                continue
            if rule == "nolint-needs-reason" and NOLINT_JUSTIFIED.search(raw):
                continue
            if (rule == "one-isa-dispatch" and path == ISA_DISPATCH_FILE
                    and not TARGET_CLONES.search(raw)):
                continue
            if allow and allow.group(1) == rule:
                continue
            errors.append(f"{rel}:{lineno}: [{rule}] {message}")
    return errors


def list_rules() -> str:
    width = max(len(rule) for rule, *_ in RULES)
    return "\n".join(f"{rule.ljust(width)}  {message}"
                     for rule, _, _, message in RULES)


def main() -> int:
    if "--list-rules" in sys.argv[1:]:
        print(list_rules())
        return 0
    files = sorted(
        p
        for p in SRC.rglob("*")
        if p.suffix in CPP_SUFFIXES and p.is_file()
    )
    if not files:
        print("tools/lint.py: no sources found under src/", file=sys.stderr)
        return 2
    errors = []
    for path in files:
        errors.extend(lint_file(path))
    for e in errors:
        print(e)
    print(
        f"tools/lint.py: {len(files)} files checked, "
        f"{len(errors)} violation(s)"
    )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
