#!/usr/bin/env python3
"""mrhs_analyze: static analysis for the repo's invariants.

Checks the properties that keep rollback/resume bitwise reproducible,
parallel regions race-free, error statuses propagated, and the GSPMV
kernels double-precision and behind the ISA dispatch. Some rules need
scope, capture, declaration, and statement structure; the rest are
lexical and run on the comment-free token stream.

Registered as the `mrhs_analyze` ctest target (repo scan against the
committed baseline) and `mrhs_analyze_selftest` (fixture battery).

Scan
----
src/, bench/, examples/ and tests/, minus tests/analyze_fixtures/ (the
deliberately bad self-test TUs). Each rule then scopes itself by path,
as documented below. ``--files`` narrows which files are *reported*;
the registry (status-returning declarations, the kFaultSites table) is
still built from the whole scan, so a caller is judged against
declarations in headers that were not listed with it.

Frontends
---------
The analyzer is built around a fact model (declarations, call
statements, lambda captures/writes, loop nesting, nondeterminism
sources) that checkers consume. Two frontends produce the facts:

* ``clang``: libclang (clang.cindex) driven by compile_commands.json.
  Exact types: return types for status propagation, container types for
  ordering checks, statement context for discard detection.
* ``token``: a built-in C++ lexer + scope/capture parser, always
  available. Conservative where it cannot resolve types (e.g. a call
  name declared with more than one return type across the repo is never
  flagged), so it under-reports rather than false-positives.

``--frontend auto`` (the default) uses clang when importable and falls
back to token otherwise; lexical facts (macros, pragmas, suppression
comments) always come from the token layer, exactly as clang-tidy
checks use lexer callbacks for macro-level work.

Rules
-----
determinism
    In src/core|sparse|solver|sd|cluster (and src/perf for the ordering
    sub-rules): (a) iteration over unordered containers feeding
    floating-point accumulation — the sum depends on hash-table layout,
    i.e. on pointer values and allocation history, breaking bitwise
    reproducibility; (b) wall-clock / ambient randomness (rand, srand,
    std::random_device, time(), clock(), gettimeofday,
    steady/system/high_resolution_clock) outside the counter-keyed
    StreamRng — src/perf is exempt from this sub-rule because measuring
    time is its purpose; (c) address-dependent ordering: ordered
    containers keyed on pointers, whose iteration order varies run to
    run with ASLR and allocation order.

parallel-capture
    Inside lambda bodies passed to util::parallel_for /
    util::parallel_regions: a write (assignment, compound assignment,
    increment/decrement, or a mutating container call like push_back)
    through a by-reference capture of a shared variable is a data race
    unless the variable is std::atomic, the write follows a lock_guard/
    scoped_lock/unique_lock in the body, or the access is indexed by
    the loop induction variable / region tid (disjoint slabs). This is
    the static complement of the tsan preset: TSan only sees the
    interleavings that execute.

status-propagation
    Every call to a function returning util::Status / core::Status /
    SolveStatus or a result struct carrying one (\\w*Result, \\w*Status)
    must be consumed, branched on, or forwarded. A bare expression
    statement — including a (void) cast — silently drops breakdown,
    corruption, or I/O failure. Covers every declaration in the scan;
    skips tests/, which may discard a result on purpose.

solve-status-nodiscard
    The declarations of the solver entry points (conjugate_gradient and
    preconditioned_conjugate_gradient in src/solver/cg.hpp,
    block_conjugate_gradient in src/solver/block_cg.hpp) must stay
    [[nodiscard]], so the compiler backs status-propagation at every
    call site — tests/ included.

obs-placement
    (a) The name argument of every OBS_* macro must be a string literal
    (the handle is cached per call site; a computed name records under
    whatever the first execution passed); (b) no OBS_* inside per-row
    kernel inner loops (loop depth >= 2 in src/sparse|src/dense, or any
    loop in a block_row_* kernel): one macro in the m-loop turns the
    zero-overhead claim into a per-element branch + potential handle
    lookup.

no-raw-omp
    `#pragma omp parallel` outside util/parallel.hpp bypasses the
    threading backend abstraction (the region would not run — or be
    TSan-checked — on the std::thread backend).

no-float-in-double-kernels
    The numerical core (src/sparse, src/solver, src/dense) is
    double-precision end to end; a stray `float` silently halves
    precision.

aligned-load-contract
    A file using *aligned* SIMD loads/stores (_mm256_load_pd,
    _mm512_load_pd, ...) on data that crosses a function boundary must
    carry an MRHS_ASSUME_ALIGNED contract (or a local alignas buffer),
    so debug/sanitizer builds verify the alignment the intrinsic
    assumes.

fault-site-registry
    The first argument of MRHS_FAULT_POINT / MRHS_FAULT_FIRED must be a
    string literal naming a site in util::kFaultSites
    (src/util/fault_injection.hpp). A computed name would defeat the
    registry's arm-time validation, and an undocumented site could never
    be armed from the CLI: a chaos schedule naming it would be rejected
    while the site silently never fires.

bench-report
    Every bench binary (bench/*.cpp with a main()) must emit a
    machine-readable BenchReport sidecar via bench::BenchHarness.
    printf-only benches are invisible to scripts/bench_runner.py and
    the BENCH_*.json regression pipeline, so their numbers silently
    fall out of the performance history.

The remaining two rules confine identifiers to one home path and
share one table-driven checker (CONFINED):

aligned-alloc-outside-util
    Raw std::aligned_alloc / posix_memalign / operator new with
    align_val_t outside src/util/aligned.hpp bypasses AlignedAllocator
    and its 64-byte contract; consumers use util::AlignedVector, whose
    allocator asserts the contract in one place.

kernel-via-dispatch
    The block-row microkernels (kernels::block_row_*) are internal to
    src/sparse: they are `static inline`, compiled per TU under
    different -m flags, and only safe on the ISA their TU was compiled
    for. A direct call elsewhere bypasses the runtime cpuid check in
    kernels::Dispatch (AVX-512 on a machine without it is SIGILL) and
    the --kernel / MRHS_KERNEL override; go through GspmvEngine::apply.

Suppressions
------------
``// mrhs-analyze-ok(rule[,rule]): reason`` on the finding line, or on
its own line directly above, suppresses the named rules for that line.
Suppressions are for *documented* intentional exceptions (telemetry
clocks, benign races); the reason text is mandatory by convention and
reviewed, not parsed.

Output
------
Human ``file:line: [rule] message`` plus an optional machine-readable
findings document (``--json``), schema ``mrhs-analyze-findings`` v1 —
versioned like ``mrhs-bench-report``. The committed baseline
(scripts/mrhs_analyze_baseline.json) holds fingerprints of accepted
findings; the exit code is 1 only for non-baselined findings.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

SCHEMA_NAME = "mrhs-analyze-findings"
SCHEMA_VERSION = 1
SKIP = 77  # ctest SKIP_RETURN_CODE for an explicitly requested,
           # unavailable frontend

# ---------------------------------------------------------------------------
# Rule registry
# ---------------------------------------------------------------------------

RULES: dict[str, str] = {
    "determinism": "no unordered-iteration FP accumulation, wall-clock/"
                   "ambient RNG, or pointer-keyed ordering in numeric code",
    "parallel-capture": "no unguarded writes through by-ref captures in "
                        "util::parallel_for/parallel_regions lambdas",
    "status-propagation": "every Status/SolveStatus-carrying return value "
                          "is consumed, branched on, or forwarded",
    "obs-placement": "OBS_* names are literals and never sit in per-row "
                     "kernel inner loops",
    "no-raw-omp": "no `#pragma omp parallel` outside util/parallel.hpp "
                  "(threading backend abstraction)",
    "solve-status-nodiscard": "solver entry-point declarations stay "
                              "[[nodiscard]]",
    "no-float-in-double-kernels": "no float in the double-precision "
                                  "numerical core",
    "aligned-load-contract": "aligned SIMD loads need an "
                             "MRHS_ASSUME_ALIGNED contract in-file",
    "fault-site-registry": "MRHS_FAULT_* sites are literals from the "
                           "documented kFaultSites table",
    "bench-report": "every bench binary emits a BenchReport sidecar",
    "aligned-alloc-outside-util": "raw aligned allocation only in "
                                  "util/aligned.hpp",
    "kernel-via-dispatch": "block_row_* kernels called only via "
                           "kernels::Dispatch inside src/sparse",
}

SCAN_ROOTS = ("src", "bench", "examples", "tests")
FIXTURE_DIR = "tests/analyze_fixtures/"

# Scope tables (matched against the *virtual* path, so fixtures can
# impersonate any subtree via their `as=` directive).
CLOCK_DIRS = ("src/core/", "src/sparse/", "src/solver/", "src/sd/",
              "src/cluster/")
ORDER_DIRS = CLOCK_DIRS + ("src/perf/",)
KERNEL_DIRS = ("src/sparse/", "src/dense/")
DOUBLE_DIRS = KERNEL_DIRS + ("src/solver/",)

# Solver entry points, by declaring header.
NODISCARD_DECLS = {
    "src/solver/cg.hpp": ("conjugate_gradient",
                          "preconditioned_conjugate_gradient"),
    "src/solver/block_cg.hpp": ("block_conjugate_gradient",),
}

# rule -> (home path prefix, pattern, message). Patterns run on
# FileFacts.code_lines: each line's tokens joined by one space, with
# comments gone and string/char literals emptied.
CONFINED = {
    "aligned-alloc-outside-util": (
        "src/util/aligned.hpp",
        re.compile(r"\b(?:aligned_alloc|posix_memalign) \(|"
                   r"\boperator new\b.*\balign_val_t\b"),
        "raw aligned allocation outside util/aligned.hpp; use "
        "util::AlignedVector so the 64-byte contract is asserted in one "
        "place"),
    "kernel-via-dispatch": (
        "src/sparse/",
        re.compile(r"\bblock_row_\w+ \(|\bkernels :: block_row_\w+"),
        "direct block_row_* kernel call outside src/sparse bypasses the "
        "runtime cpuid dispatch (kernels::Dispatch) and the --kernel "
        "override; call GspmvEngine::apply instead"),
}

OBS_MACROS_ARG1 = ("OBS_COUNTER_ADD", "OBS_GAUGE_SET",
                   "OBS_HISTOGRAM_OBSERVE", "OBS_SPAN", "OBS_INSTANT")
OBS_MACROS_ARG2 = ("OBS_SPAN_VAR",)
OBS_MACROS = OBS_MACROS_ARG1 + OBS_MACROS_ARG2
FAULT_MACROS = ("MRHS_FAULT_POINT", "MRHS_FAULT_FIRED")

UNORDERED_TYPES = {"unordered_map", "unordered_set", "unordered_multimap",
                   "unordered_multiset"}
ORDERED_TYPES = {"set", "map", "multiset", "multimap"}
CLOCK_IDS = {"steady_clock", "system_clock", "high_resolution_clock",
             "random_device"}
NONDET_CALLS = {"rand", "srand", "gettimeofday", "time", "clock",
                "localtime", "mktime"}
MUTATING_METHODS = {"push_back", "emplace_back", "insert", "emplace",
                    "erase", "clear", "resize", "pop_back", "push_front",
                    "append", "assign"}
LOCK_TYPES = {"lock_guard", "scoped_lock", "unique_lock"}
PARALLEL_FNS = {"parallel_for", "parallel_regions"}

CPP_KEYWORDS = {
    "if", "else", "for", "while", "do", "switch", "case", "default",
    "break", "continue", "return", "goto", "try", "catch", "throw",
    "new", "delete", "sizeof", "alignof", "alignas", "static_assert",
    "using", "namespace", "template", "typename", "class", "struct",
    "enum", "union", "public", "private", "protected", "operator",
    "const", "constexpr", "consteval", "constinit", "static", "inline",
    "extern", "friend", "virtual", "explicit", "mutable", "volatile",
    "auto", "void", "bool", "char", "int", "long", "short", "float",
    "double", "signed", "unsigned", "true", "false", "nullptr", "this",
    "noexcept", "override", "final", "co_return", "co_await", "co_yield",
    "requires", "concept", "decltype", "typedef",
}

# Tokens that can form (part of) a declaration's type.
TYPE_KEYWORDS = {"auto", "const", "constexpr", "static", "unsigned",
                 "signed", "long", "short", "int", "double", "float",
                 "bool", "char", "void"}

OMP_PARALLEL_RE = re.compile(r"#\s*pragma\s+omp\s+parallel\b")
DEFINE_RE = re.compile(r"\s*#\s*define\b")
ALIGNED_SIMD_RE = re.compile(
    r"_mm(?:256|512)_(?:load|store)_(?:pd|ps|si256|si512)|"
    r"_mm512_(?:load|store)_epi\d+")
SUPPRESS_RE = re.compile(r"mrhs-analyze-ok\(([^)]*)\)")
FIXTURE_AS_RE = re.compile(r"mrhs-analyze-fixture:\s*as=(\S+)")
FIXTURE_EXPECT_RE = re.compile(r"//\s*expect:\s*([\w-]+)(?::(\d+))?")


@dataclass
class Finding:
    rule: str
    file: str
    line: int
    message: str
    fingerprint: str = ""
    suppressed: bool = False

    def key(self) -> tuple:
        return (self.file, self.line, self.rule)


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

@dataclass
class Tok:
    kind: str  # id | num | str | chr | op
    text: str
    line: int


_MULTI_OPS = ("<<=", ">>=", "->*", "...", "::", "->", "++", "--", "+=",
              "-=", "*=", "/=", "%=", "&=", "|=", "^=", "==", "!=", "<=",
              ">=", "&&", "||", "<<", ">>")


def tokenize(text: str) -> tuple[list[Tok], list[tuple[int, str]]]:
    """C++ tokens (comments and string/char bodies removed) plus the
    comment list [(line, text)] for suppression/directive parsing."""
    toks: list[Tok] = []
    comments: list[tuple[int, str]] = []
    i, n, line = 0, len(text), 1
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            comments.append((line, text[i:j]))
            i = j
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            body = text[i:j]
            comments.append((line, body))
            line += body.count("\n")
            i = j
            continue
        if c == '"' or (c == "'" and not (toks and toks[-1].kind
                                          in ("id", "num"))):
            q = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == q or text[j] == "\n":
                    break
                j += 1
            toks.append(Tok("str" if q == '"' else "chr", text[i:j + 1], line))
            i = j + 1
            continue
        if c == "'":  # digit separator (10'000)
            i += 1
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Tok("id", text[i:j], line))
            i = j
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "._" or
                             (text[j] in "+-" and text[j - 1] in "eEpP")):
                j += 1
            toks.append(Tok("num", text[i:j], line))
            i = j
            continue
        for op in _MULTI_OPS:
            if text.startswith(op, i):
                toks.append(Tok("op", op, line))
                i += len(op)
                break
        else:
            toks.append(Tok("op", c, line))
            i += 1
    return toks, comments


def match_group(toks: list[Tok], i: int, open_: str, close: str) -> int:
    """Index just past the token matching toks[i] == open_. Returns
    len(toks) when unbalanced."""
    depth = 0
    n = len(toks)
    while i < n:
        t = toks[i].text
        if t == open_:
            depth += 1
        elif t == close:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def skip_angle(toks: list[Tok], i: int) -> int:
    """Skip a template argument list starting at toks[i] == '<'.
    Bails (returns i) on ';' — a comparison, not a template."""
    depth = 0
    j = i
    n = len(toks)
    while j < n:
        t = toks[j].text
        if t == "<":
            depth += 1
        elif t == ">":
            depth -= 1
            if depth == 0:
                return j + 1
        elif t == ">>":
            depth -= 2
            if depth <= 0:
                return j + 1
        elif t in (";", "{"):
            return i
        j += 1
    return i


# ---------------------------------------------------------------------------
# Fact model
# ---------------------------------------------------------------------------

@dataclass
class Write:
    name: str
    line: int
    pos: int                       # token index inside the lambda body
    index_tokens: set[str]         # identifiers inside [] on the lvalue path
    kind: str                      # assign | incdec | mutate-call


@dataclass
class ParallelLambda:
    fn: str                        # parallel_for | parallel_regions
    line: int
    default_capture: str           # '', '&', '='
    ref_captures: set[str]
    val_captures: set[str]
    params: set[str]
    induction: str | None
    locals: set[str]
    writes: list[Write]
    lock_pos: int | None


@dataclass
class FileFacts:
    path: Path
    virtual_path: str              # repo-relative path used for scoping
    text: str
    toks: list[Tok] = field(default_factory=list)
    comments: list[tuple[int, str]] = field(default_factory=list)
    suppressions: dict[int, set[str]] = field(default_factory=dict)
    define_lines: set[int] = field(default_factory=set)
    code_lines: dict[int, str] = field(default_factory=dict)
    # semantic facts
    fn_decls: list[tuple[str, str]] = field(default_factory=list)  # (name, ret)
    discard_calls: list[tuple[str, int, bool]] = field(default_factory=list)
    unordered_iters: list[tuple[str, int, bool]] = field(default_factory=list)
    ptr_ordered: list[int] = field(default_factory=list)
    nondet: list[tuple[str, int]] = field(default_factory=list)
    par_lambdas: list[ParallelLambda] = field(default_factory=list)
    obs_sites: list[tuple[str, int, bool, int, str]] = field(
        default_factory=list)  # (macro, line, literal, loop_depth, fn)
    omp_lines: list[int] = field(default_factory=list)
    fault_sites: list[tuple[str, int, str | None]] = field(
        default_factory=list)  # (macro, line, literal site or None)
    fault_table: list[str] = field(default_factory=list)  # kFaultSites


# ---------------------------------------------------------------------------
# Token frontend
# ---------------------------------------------------------------------------

class TokenFrontend:
    """Always-available frontend: lexical + structural analysis with a
    conservative, declaration-derived type model."""

    name = "token"

    def index_file(self, path: Path, virtual_path: str) -> FileFacts:
        text = path.read_text()
        facts = FileFacts(path=path, virtual_path=virtual_path, text=text)
        facts.toks, facts.comments = tokenize(text)
        facts.define_lines = {
            lineno for lineno, raw in enumerate(text.splitlines(), 1)
            if DEFINE_RE.match(raw)}
        self._collect_code_lines(facts)
        self._collect_suppressions(facts)
        self._collect_omp(facts)
        self._collect_nondet(facts)
        self._collect_decls_and_containers(facts)
        self._collect_discard_calls(facts)
        self._collect_obs_sites(facts)
        self._collect_fault_sites(facts)
        self._collect_parallel_lambdas(facts)
        return facts

    # -- lexical facts --------------------------------------------------

    @staticmethod
    def _collect_code_lines(facts: FileFacts) -> None:
        lines: dict[int, list[str]] = {}
        for t in facts.toks:
            text = {"str": '""', "chr": "''"}.get(t.kind, t.text)
            lines.setdefault(t.line, []).append(text)
        facts.code_lines = {ln: " ".join(ts) for ln, ts in lines.items()}

    @staticmethod
    def _collect_fault_sites(facts: FileFacts) -> None:
        toks = facts.toks
        n = len(toks)
        for i, t in enumerate(toks):
            if t.kind != "id":
                continue
            nxt = [x.text for x in toks[i + 1:i + 5]]
            if t.text == "kFaultSites" and nxt == ["[", "]", "=", "{"]:
                end = match_group(toks, i + 4, "{", "}")
                facts.fault_table += [s.text[1:-1] for s in toks[i + 5:end]
                                      if s.kind == "str"]
            elif t.text in FAULT_MACROS and nxt[:1] == ["("] \
                    and t.line not in facts.define_lines:
                arg = toks[i + 2] if i + 2 < n else None
                site = arg.text[1:-1] if arg is not None \
                    and arg.kind == "str" else None
                facts.fault_sites.append((t.text, t.line, site))

    def _collect_suppressions(self, facts: FileFacts) -> None:
        code_lines = {t.line for t in facts.toks}
        for line, comment in facts.comments:
            m = SUPPRESS_RE.search(comment)
            if not m:
                continue
            rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
            if line in code_lines:
                target = line
            else:
                # Standalone comment: bind to the next code-bearing
                # line within a short window, so a blank line or a
                # continuation comment between the suppression and the
                # flagged statement does not orphan it silently.
                target = next((ln for ln in range(line + 1, line + 4)
                               if ln in code_lines), line + 1)
            facts.suppressions.setdefault(target, set()).update(rules)

    def _collect_omp(self, facts: FileFacts) -> None:
        for lineno, raw in enumerate(facts.text.splitlines(), 1):
            if OMP_PARALLEL_RE.search(raw.split("//")[0]):
                facts.omp_lines.append(lineno)

    def _collect_nondet(self, facts: FileFacts) -> None:
        toks = facts.toks
        for i, t in enumerate(toks):
            if t.kind != "id":
                continue
            prev = toks[i - 1].text if i > 0 else ""
            nxt = toks[i + 1].text if i + 1 < len(toks) else ""
            if t.text in CLOCK_IDS:
                facts.nondet.append((t.text, t.line))
                continue
            if t.text in NONDET_CALLS and nxt == "(":
                if prev in (".", "->"):
                    continue  # member call on a repo type, not libc
                if prev == "::" and (i < 2 or toks[i - 2].text != "std"):
                    continue  # SomeClass::time(...), not std::time
                facts.nondet.append((t.text, t.line))

    def _collect_obs_sites(self, facts: FileFacts) -> None:
        toks = facts.toks
        loop_stack: list[bool] = []      # True entries are loop bodies
        fn_stack: list[str] = []
        pending: str | None = None       # brace context decided at '('…')'
        pending_fn: str | None = None
        i = 0
        n = len(toks)
        while i < n:
            t = toks[i]
            if t.kind == "id" and t.text in ("for", "while"):
                j = i + 1
                if j < n and toks[j].text == "(":
                    j = match_group(toks, j, "(", ")")
                if j < n and toks[j].text == "{":
                    pending = "loop"
                i += 1
                continue
            if t.text == "(" and i > 0 and toks[i - 1].kind == "id" \
                    and toks[i - 1].text not in CPP_KEYWORDS:
                j = match_group(toks, i, "(", ")")
                # specifier tail (const/noexcept/...) before a body
                k = j
                while k < n and toks[k].kind == "id" \
                        and toks[k].text in ("const", "noexcept", "override",
                                             "final"):
                    k += 1
                if k < n and toks[k].text == "{":
                    pending_fn = toks[i - 1].text
                i += 1
                continue
            if t.text == "{":
                loop_stack.append(pending == "loop")
                fn_stack.append(pending_fn or (fn_stack[-1] if fn_stack
                                               else ""))
                pending = None
                pending_fn = None
                i += 1
                continue
            if t.text == "}":
                if loop_stack:
                    loop_stack.pop()
                if fn_stack:
                    fn_stack.pop()
                i += 1
                continue
            if t.kind == "id" and t.text in OBS_MACROS \
                    and i + 1 < n and toks[i + 1].text == "(" \
                    and t.line not in facts.define_lines:
                depth1 = i + 2
                arg = toks[depth1] if depth1 < n else None
                if t.text in OBS_MACROS_ARG2 and arg is not None:
                    # OBS_SPAN_VAR(var, "name"): skip to after the comma.
                    j = i + 2
                    pd = 1
                    while j < n and pd > 0:
                        if toks[j].text == "(":
                            pd += 1
                        elif toks[j].text == ")":
                            pd -= 1
                        elif toks[j].text == "," and pd == 1:
                            arg = toks[j + 1] if j + 1 < n else None
                            break
                        j += 1
                literal = arg is not None and arg.kind == "str"
                depth = sum(1 for is_loop in loop_stack if is_loop)
                fn = fn_stack[-1] if fn_stack else ""
                facts.obs_sites.append((t.text, t.line, literal, depth, fn))
            i += 1

    # -- declarations, containers, nondet types -------------------------

    def _collect_decls_and_containers(self, facts: FileFacts) -> None:
        toks = facts.toks
        n = len(toks)
        unordered_vars: set[str] = set()
        unordered_aliases: set[str] = set(UNORDERED_TYPES)

        # using Alias = ... unordered_map< ... > ...;
        i = 0
        while i < n:
            if toks[i].kind == "id" and toks[i].text == "using" \
                    and i + 2 < n and toks[i + 1].kind == "id" \
                    and toks[i + 2].text == "=":
                j = i + 3
                while j < n and toks[j].text != ";":
                    if toks[j].kind == "id" and toks[j].text in UNORDERED_TYPES:
                        unordered_aliases.add(toks[i + 1].text)
                        break
                    j += 1
            i += 1

        # Variable declarations of unordered containers + pointer-keyed
        # ordered containers.
        i = 0
        while i < n:
            t = toks[i]
            if t.kind == "id" and t.text in unordered_aliases:
                j = i + 1
                if j < n and toks[j].text == "<":
                    j = skip_angle(toks, j)
                while j < n and toks[j].text in ("*", "&", "const"):
                    j += 1
                if j < n and toks[j].kind == "id" \
                        and toks[j].text not in CPP_KEYWORDS \
                        and j + 1 < n and toks[j + 1].text in (";", "=", "{",
                                                               "("):
                    unordered_vars.add(toks[j].text)
            if t.kind == "id" and t.text in ORDERED_TYPES and i >= 2 \
                    and toks[i - 1].text == "::" \
                    and toks[i - 2].text == "std" \
                    and i + 1 < n and toks[i + 1].text == "<":
                j = i + 1
                end = skip_angle(toks, j)
                # first template argument: up to the first top-level ','
                depth = 0
                first_arg: list[str] = []
                for k in range(j + 1, end - 1):
                    txt = toks[k].text
                    if txt in ("<", "("):
                        depth += 1
                    elif txt in (">", ")"):
                        depth -= 1
                    elif txt == "," and depth == 0:
                        break
                    first_arg.append(txt)
                if "*" in first_arg:
                    facts.ptr_ordered.append(t.line)
            i += 1

        # Range-for / iterator loops over unordered containers, with a
        # floating-point-accumulation body test.
        i = 0
        while i < n:
            if toks[i].kind == "id" and toks[i].text == "for" \
                    and i + 1 < n and toks[i + 1].text == "(":
                close = match_group(toks, i + 1, "(", ")")
                header = toks[i + 2:close - 1]
                over: str | None = None
                colon = next((k for k, h in enumerate(header)
                              if h.text == ":"), None)
                if colon is not None:
                    rng = [h.text for h in header[colon + 1:]]
                    over = next((x for x in rng if x in unordered_vars), None)
                else:
                    htext = [h.text for h in header]
                    for k, h in enumerate(htext):
                        if h in unordered_vars and k + 2 < len(htext) \
                                and htext[k + 1] == "." \
                                and htext[k + 2] in ("begin", "cbegin"):
                            over = h
                            break
                if over is not None and close < n and toks[close].text == "{":
                    body_end = match_group(toks, close, "{", "}")
                    body = toks[close:body_end]
                    accum = any(b.text in ("+=", "-=", "*=", "/=")
                                for b in body)
                    if not accum:
                        btext = [b.text for b in body]
                        for k in range(len(btext) - 3):
                            if btext[k + 1] == "=" and btext[k + 3] in \
                                    ("+", "-", "*") \
                                    and btext[k] == btext[k + 2]:
                                accum = True
                                break
                    facts.unordered_iters.append(
                        (over, toks[i].line, accum))
            i += 1

        # Function declarations (name, final-return-type token): the
        # conservative type model for status-propagation.
        boundary = {";", "{", "}", ":"}
        stmt_start = 0
        i = 0
        while i < n:
            t = toks[i]
            if t.text in boundary:
                stmt_start = i + 1
                i += 1
                continue
            if t.text == "(" and i > stmt_start:
                prefix = toks[stmt_start:i]
                decl = self._parse_decl_prefix(prefix)
                if decl is not None:
                    close = match_group(toks, i, "(", ")")
                    nxt = toks[close].text if close < n else ""
                    if nxt in (";", "{", "const", "noexcept", "override",
                               "final", "="):
                        facts.fn_decls.append(decl)
                # Whether or not it was a declaration, skip the parens so
                # call arguments don't open new pseudo-statements.
                i = match_group(toks, i, "(", ")")
                stmt_start = i
                continue
            i += 1

    @staticmethod
    def _parse_decl_prefix(prefix: list[Tok]) -> tuple[str, str] | None:
        """`[specifiers] TYPE [<...>] [*&] [Qual::]* NAME` -> (NAME, TYPE).
        None when the prefix does not look like a declaration."""
        toks = [t for t in prefix
                if not (t.kind == "id" and t.text in
                        ("inline", "static", "constexpr", "consteval",
                         "virtual", "explicit", "friend", "extern",
                         "nodiscard", "maybe_unused"))
                and t.text not in ("[", "]")]
        if len(toks) < 2:
            return None
        if any(t.text in ("=", "return", "throw", "new", "delete", ",",
                          "?", "+", "-", "/", "!", "||", "&&")
               for t in toks):
            return None
        # trailing qualified chain -> NAME
        k = len(toks) - 1
        if toks[k].kind != "id" or toks[k].text in CPP_KEYWORDS:
            return None
        name = toks[k].text
        k -= 1
        while k >= 1 and toks[k].text == "::" and toks[k - 1].kind == "id":
            k -= 2
        # skip pointer/ref/const between type and name
        while k >= 0 and toks[k].text in ("*", "&", "&&", "const"):
            k -= 1
        if k < 0:
            return None
        # skip a template argument list backwards
        if toks[k].text == ">":
            depth = 0
            while k >= 0:
                if toks[k].text == ">":
                    depth += 1
                elif toks[k].text == "<":
                    depth -= 1
                    if depth == 0:
                        k -= 1
                        break
                k -= 1
        if k < 0 or toks[k].kind != "id":
            return None
        ret = toks[k].text
        if ret in CPP_KEYWORDS and ret not in ("bool", "void", "int",
                                               "double", "float", "auto",
                                               "char", "long", "unsigned"):
            return None
        if ret == name:
            return None  # constructor
        return (name, ret)

    # -- call statements -------------------------------------------------

    def _collect_discard_calls(self, facts: FileFacts) -> None:
        toks = facts.toks
        n = len(toks)
        i = 0
        stmt_start = 0
        depth = 0
        while i < n:
            t = toks[i]
            if t.text == "(":
                depth += 1
            elif t.text == ")":
                depth -= 1
            if depth == 0 and t.text in (";", "{", "}"):
                stmt = toks[stmt_start:i]
                if t.text == ";" and stmt:
                    hit = self._match_call_statement(stmt)
                    if hit is not None:
                        facts.discard_calls.append(hit)
                stmt_start = i + 1
            i += 1

    @staticmethod
    def _match_call_statement(stmt: list[Tok]) -> tuple[str, int, bool] | None:
        """A statement that is exactly `[(void)] chain(...);` where chain
        is id (:: id | . id | -> id | (...) | [...])*, ending in a call.
        Returns (callee, line, void_cast)."""
        void_cast = False
        k = 0
        if len(stmt) >= 3 and stmt[0].text == "(" and stmt[1].text == "void" \
                and stmt[2].text == ")":
            void_cast = True
            k = 3
        if k >= len(stmt):
            return None
        first = stmt[k]
        if first.kind != "id" or first.text in CPP_KEYWORDS:
            return None
        callee = first.text
        line = first.line
        k += 1
        ends_with_call = False
        n = len(stmt)
        while k < n:
            t = stmt[k].text
            if t in ("::", ".", "->"):
                k += 1
                if k >= n or stmt[k].kind != "id":
                    return None
                callee = stmt[k].text
                line = stmt[k].line
                ends_with_call = False
                k += 1
                continue
            if t == "(":
                k = match_group(stmt, k, "(", ")")
                ends_with_call = True
                continue
            if t == "[":
                k = match_group(stmt, k, "[", "]")
                ends_with_call = False
                continue
            return None
        if not ends_with_call:
            return None
        return (callee, line, void_cast)

    # -- parallel lambdas -----------------------------------------------

    def _collect_parallel_lambdas(self, facts: FileFacts) -> None:
        toks = facts.toks
        n = len(toks)
        for i, t in enumerate(toks):
            if t.kind != "id" or t.text not in PARALLEL_FNS:
                continue
            if i + 1 >= n or toks[i + 1].text != "(":
                continue
            close = match_group(toks, i + 1, "(", ")")
            args = toks[i + 2:close - 1]
            for lam in self._extract_lambdas(args, t.text):
                facts.par_lambdas.append(lam)

    def _extract_lambdas(self, args: list[Tok],
                         fn: str) -> list[ParallelLambda]:
        out: list[ParallelLambda] = []
        depth = 0
        k = 0
        n = len(args)
        while k < n:
            t = args[k]
            if t.text in ("(", "{"):
                depth += 1
            elif t.text in (")", "}"):
                depth -= 1
            elif t.text == "[" and depth == 0 and \
                    (k == 0 or args[k - 1].text in (",", "(")):
                lam = self._parse_lambda(args, k, fn)
                if lam is not None:
                    out.append(lam[0])
                    k = lam[1]
                    continue
            k += 1
        return out

    def _parse_lambda(self, toks: list[Tok], i: int,
                      fn: str) -> tuple[ParallelLambda, int] | None:
        cap_end = match_group(toks, i, "[", "]")
        caps = toks[i + 1:cap_end - 1]
        default_cap = ""
        ref_caps: set[str] = set()
        val_caps: set[str] = set()
        k = 0
        while k < len(caps):
            t = caps[k]
            if t.text == "&":
                if k + 1 < len(caps) and caps[k + 1].kind == "id":
                    ref_caps.add(caps[k + 1].text)
                    k += 2
                else:
                    default_cap = "&"
                    k += 1
            elif t.text == "=":
                default_cap = "="
                k += 1
            elif t.kind == "id":
                val_caps.add(t.text)
                k += 1
            else:
                k += 1
        j = cap_end
        params: list[str] = []
        if j < len(toks) and toks[j].text == "(":
            pend = match_group(toks, j, "(", ")")
            ptoks = toks[j + 1:pend - 1]
            depth = 0
            current: list[Tok] = []
            for p in ptoks + [Tok("op", ",", 0)]:
                if p.text in ("<", "("):
                    depth += 1
                elif p.text in (">", ")"):
                    depth -= 1
                if p.text == "," and depth == 0:
                    ids = [c.text for c in current if c.kind == "id"
                           and c.text not in CPP_KEYWORDS]
                    if ids:
                        params.append(ids[-1])
                    current = []
                else:
                    current.append(p)
            j = pend
        while j < len(toks) and toks[j].text != "{":
            if toks[j].text in (",", ")", ";"):
                return None
            j += 1
        if j >= len(toks):
            return None
        body_end = match_group(toks, j, "{", "}")
        body = toks[j + 1:body_end - 1]
        lam = ParallelLambda(
            fn=fn, line=toks[i].line, default_capture=default_cap,
            ref_captures=ref_caps, val_captures=val_caps,
            params=set(params), induction=params[0] if params else None,
            locals=self._body_locals(body), writes=self._body_writes(body),
            lock_pos=next((k for k, b in enumerate(body)
                           if b.kind == "id" and b.text in LOCK_TYPES), None))
        return lam, body_end

    @staticmethod
    def _body_locals(body: list[Tok]) -> set[str]:
        """Names declared inside the lambda body (incl. for-init and
        range-for variables)."""
        locals_: set[str] = set()
        boundary = {";", "{", "}"}
        stmt_start = 0
        n = len(body)
        i = 0
        while i <= n:
            at_boundary = i == n or body[i].text in boundary or \
                (body[i].text == "(" and i > stmt_start
                 and body[stmt_start].text == "for")
            if not at_boundary:
                i += 1
                continue
            stmt = body[stmt_start:i]
            # range-for header: for (decl : range)
            if stmt and stmt[0].text == "for" and i < n \
                    and body[i].text == "(":
                close = match_group(body, i, "(", ")")
                header = body[i + 1:close - 1]
                colon = next((k for k, h in enumerate(header)
                              if h.text == ":"), None)
                scan = header[:colon] if colon is not None else header
                stop = next((k for k, h in enumerate(scan)
                             if h.text in ("=", ";")), len(scan))
                scan_ids = [h.text for h in scan[:stop] if h.kind == "id"]
                names = [t for t in scan_ids if t not in CPP_KEYWORDS]
                typeish = [t for t in scan_ids
                           if t in TYPE_KEYWORDS or t not in CPP_KEYWORDS]
                if names and (colon is not None or len(typeish) >= 2):
                    locals_.add(names[-1])
                i = close
                stmt_start = close
                continue
            # plain declaration statement: TYPE... NAME ( = | ; | { )
            stop = next((k for k, s in enumerate(stmt)
                         if s.text in ("=", "{")), len(stmt))
            head = stmt[:stop]
            head_ids = [h for h in head if h.kind == "id"]
            names = [h.text for h in head_ids
                     if h.text not in CPP_KEYWORDS]
            typeish = [h.text for h in head_ids
                       if h.text in TYPE_KEYWORDS or
                       h.text not in CPP_KEYWORDS]
            if len(typeish) >= 2 and names and stmt and \
                    stmt[0].text not in ("if", "while", "return", "switch",
                                         "do", "else", "case", "break",
                                         "continue", "delete", "throw") and \
                    not any(s.text in ("+=", "-=", "*=", "/=", "==", "<",
                                       ">", "(", ".", "->")
                            for s in head):
                locals_.add(names[-1])
            i += 1
            stmt_start = i
        return locals_

    @staticmethod
    def _body_writes(body: list[Tok]) -> list[Write]:
        writes: list[Write] = []
        n = len(body)
        i = 0
        while i < n:
            t = body[i]
            if t.kind != "id" or t.text in CPP_KEYWORDS:
                i += 1
                continue
            # lvalue chain: NAME ([idx])* (. member ([idx])*)* — stop at
            # the first operator that tells us what this expression is.
            base = t.text
            line = t.line
            pos = i
            index_tokens: set[str] = set()
            k = i + 1
            last_member: str | None = None
            while k < n:
                if body[k].text == "[":
                    end = match_group(body, k, "[", "]")
                    index_tokens.update(b.text for b in body[k + 1:end - 1]
                                        if b.kind == "id")
                    k = end
                    last_member = None
                    continue
                if body[k].text in (".", "->"):
                    if k + 1 < n and body[k + 1].kind == "id":
                        last_member = body[k + 1].text
                        k += 2
                        continue
                    break
                break
            if k < n:
                op = body[k].text
                if op in ("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=",
                          "^=", "<<=", ">>=") and op != "==":
                    writes.append(Write(base, line, pos, index_tokens,
                                        "assign"))
                    i = k + 1
                    continue
                if op in ("++", "--"):
                    writes.append(Write(base, line, pos, index_tokens,
                                        "incdec"))
                    i = k + 1
                    continue
                if op == "(" and last_member in MUTATING_METHODS:
                    writes.append(Write(base, line, pos, index_tokens,
                                        "mutate-call"))
                    i = match_group(body, k, "(", ")")
                    continue
            # prefix ++/--
            if i > 0 and body[i - 1].text in ("++", "--") and not index_tokens:
                writes.append(Write(base, line, pos, set(), "incdec"))
            i = k if k > i else i + 1
        return writes


# ---------------------------------------------------------------------------
# Clang frontend (libclang refinement)
# ---------------------------------------------------------------------------

def load_cindex():
    """Import clang.cindex and verify a loadable libclang. Returns the
    module or None."""
    try:
        from clang import cindex  # type: ignore
    except ImportError:
        return None
    try:
        cindex.Index.create()
        return cindex
    except Exception:
        import glob
        for cand in sorted(glob.glob("/usr/lib/llvm-*/lib/libclang.so*") +
                           glob.glob("/usr/lib/*/libclang.so*") +
                           glob.glob("/usr/lib/llvm-*/lib/libclang-*.so*"),
                           reverse=True):
            try:
                cindex.Config.loaded = False
                cindex.Config.set_library_file(cand)
                cindex.Index.create()
                return cindex
            except Exception:
                continue
    return None


class ClangFrontend(TokenFrontend):
    """libclang-backed frontend: overrides the type-dependent facts
    (declaration return types, discarded-call detection, unordered
    iteration) with exact AST answers. Lexical facts (macros, pragmas,
    suppressions, capture lists) stay on the token layer — macros are
    expanded before the AST exists, so that is where they are visible.
    Falls back to the token answer per-file on any parse failure."""

    name = "clang"

    STATUS_RE = re.compile(r"(?:\b\w*Status\b|\b\w*Result\b)")

    def __init__(self, cindex, compile_db: Path | None):
        self.cindex = cindex
        self.compile_db = compile_db
        self.index = cindex.Index.create()

    def index_file(self, path: Path, virtual_path: str) -> FileFacts:
        facts = super().index_file(path, virtual_path)
        try:
            args = ["-std=c++20", "-xc++"]
            if self.compile_db is not None:
                import mrhs_compiledb
                db_args = mrhs_compiledb.compile_args(self.compile_db,
                                                      str(path))
                if db_args:
                    args = db_args
            tu = self.index.parse(str(path), args=args)
        except Exception as exc:  # pragma: no cover - environment dependent
            print(f"mrhs_analyze: clang parse failed for {path}: {exc}; "
                  f"token facts kept", file=sys.stderr)
            return facts
        try:
            self._refine(facts, tu, path)
        except Exception as exc:  # pragma: no cover - environment dependent
            print(f"mrhs_analyze: clang walk failed for {path}: {exc}; "
                  f"token facts kept", file=sys.stderr)
        return facts

    def _refine(self, facts: FileFacts, tu, path: Path) -> None:
        ck = self.cindex.CursorKind
        decls: list[tuple[str, str]] = []
        discards: list[tuple[str, int, bool]] = []
        unordered: list[tuple[str, int, bool]] = []

        def in_main_file(cursor) -> bool:
            loc = cursor.location
            return loc.file is not None and \
                Path(str(loc.file)).resolve() == path.resolve()

        def returns_status(result_type) -> bool:
            return bool(self.STATUS_RE.search(result_type.spelling))

        cast_kinds = {ck.CSTYLE_CAST_EXPR}
        for attr in ("CXX_STATIC_CAST_EXPR", "CXX_FUNCTIONAL_CAST_EXPR"):
            if hasattr(ck, attr):  # pragma: no branch - version dependent
                cast_kinds.add(getattr(ck, attr))

        def unwrap_call(cursor, void_cast, depth=0):
            """Looks through statement-level wrappers — (void)/static_cast
            casts, UNEXPOSED_EXPR (ExprWithCleanups, implicit casts) — to
            the underlying CALL_EXPR. An expression statement's value is
            discarded whatever wraps it; a cast whose result type is void
            additionally marks the discard as explicit."""
            if cursor.kind == ck.CALL_EXPR:
                return cursor, void_cast
            if depth < 8 and (cursor.kind in cast_kinds or
                              cursor.kind == ck.UNEXPOSED_EXPR):
                if cursor.kind in cast_kinds and \
                        cursor.type.spelling == "void":
                    void_cast = True
                kids = list(cursor.get_children())
                if kids:
                    return unwrap_call(kids[-1], void_cast, depth + 1)
            return None, void_cast

        def walk(cursor, parent_kind):
            for child in cursor.get_children():
                kind = child.kind
                if kind in (ck.FUNCTION_DECL, ck.CXX_METHOD,
                            ck.FUNCTION_TEMPLATE):
                    rt = child.result_type.spelling.split("::")[-1]
                    decls.append((child.spelling, rt.split("<")[0].strip()))
                if parent_kind == ck.COMPOUND_STMT and in_main_file(child):
                    call, void_cast = unwrap_call(child, False)
                    if call is not None:
                        ref = call.referenced
                        if ref is not None and \
                                returns_status(ref.result_type):
                            discards.append((call.spelling,
                                             call.location.line, void_cast))
                if kind == ck.CXX_FOR_RANGE_STMT and in_main_file(child):
                    kids = list(child.get_children())
                    if len(kids) >= 2:
                        rng_type = kids[-2].type.spelling
                        if "unordered_" in rng_type:
                            body_text = self._extent_text(child)
                            accum = any(op in body_text
                                        for op in ("+=", "-=", "*=", "/="))
                            unordered.append(
                                ("<range>", child.location.line, accum))
                walk(child, kind)

        walk(tu.cursor, None)
        if decls:
            facts.fn_decls = decls
        # Union with the token-layer discards rather than replacing
        # them: clang contributes type-exact hits the lexer cannot
        # classify, but its statement-shape coverage is narrower, so
        # dropping token hits would make the clang frontend check
        # *less* than a token-only run. Deduplicate per (callee, line)
        # and keep the void_cast flag from whichever layer saw it.
        merged: dict[tuple[str, int], bool] = {}
        for callee, line, vc in facts.discard_calls + discards:
            key = (callee, line)
            merged[key] = merged.get(key, False) or vc
        facts.discard_calls = [
            (callee, line, vc)
            for (callee, line), vc in sorted(merged.items(),
                                             key=lambda kv: kv[0][1])]
        if unordered:
            facts.unordered_iters = unordered

    @staticmethod
    def _extent_text(cursor) -> str:
        try:
            return " ".join(t.spelling for t in cursor.get_tokens())
        except Exception:  # pragma: no cover
            return ""


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------

def _under(virtual_path: str, dirs: tuple[str, ...]) -> bool:
    return any(virtual_path.startswith(d) for d in dirs)


def check_determinism(facts: FileFacts,
                      registry: "Registry") -> list[Finding]:
    out: list[Finding] = []
    vp = facts.virtual_path
    if _under(vp, ORDER_DIRS):
        for var, line, accum in facts.unordered_iters:
            if accum:
                out.append(Finding(
                    "determinism", vp, line,
                    f"iteration over unordered container `{var}` feeds a "
                    f"floating-point accumulation: the sum order follows "
                    f"hash-table layout, which varies with allocation "
                    f"history — iterate a sorted view or index instead"))
        for line in facts.ptr_ordered:
            out.append(Finding(
                "determinism", vp, line,
                "ordered container keyed on a pointer: iteration order "
                "tracks addresses (ASLR, allocator state), so any numeric "
                "consumer loses run-to-run reproducibility — key on a "
                "stable index"))
    if _under(vp, CLOCK_DIRS):
        for name, line in facts.nondet:
            out.append(Finding(
                "determinism", vp, line,
                f"`{name}` is a nondeterminism source in numeric code; "
                f"noise must come from the counter-keyed util::StreamRng "
                f"(seed, stream) so replay/rollback stays bitwise"))
    return out


def check_parallel_capture(facts: FileFacts,
                           registry: "Registry") -> list[Finding]:
    vp = facts.virtual_path
    if not vp.startswith("src/") or vp == "src/util/parallel.hpp":
        return []
    out: list[Finding] = []
    for lam in facts.par_lambdas:
        for w in lam.writes:
            if w.name in lam.locals or w.name in lam.params:
                continue
            by_ref = w.name in lam.ref_captures or (
                lam.default_capture == "&"
                and w.name not in lam.val_captures)
            if not by_ref:
                continue
            if w.index_tokens & (lam.params | lam.locals):
                continue  # disjoint by induction/tid-derived indexing
            if lam.lock_pos is not None and w.pos > lam.lock_pos:
                continue  # mutex-guarded
            if re.search(r"\batomic\b[^;\n]*\b" + re.escape(w.name) + r"\b",
                         facts.text):
                continue  # std::atomic
            verb = {"assign": "assignment to", "incdec": "increment of",
                    "mutate-call": "mutating call on"}[w.kind]
            out.append(Finding(
                "parallel-capture", vp, w.line,
                f"{verb} by-reference capture `{w.name}` inside a "
                f"{lam.fn} lambda: every worker performs this write "
                f"concurrently (no atomic, lock, or "
                f"induction-variable indexing in sight) — a data race "
                f"TSan would only catch on the interleavings it sees"))
    return out


def check_status_propagation(facts: FileFacts,
                             registry: "Registry") -> list[Finding]:
    vp = facts.virtual_path
    if vp.startswith("tests/"):
        return []
    out: list[Finding] = []
    for callee, line, void_cast in facts.discard_calls:
        if not registry.returns_status(callee):
            continue
        how = "cast to (void)" if void_cast else "discarded"
        out.append(Finding(
            "status-propagation", vp, line,
            f"result of `{callee}()` is {how}: it carries a "
            f"Status/SolveStatus that reports breakdown, corruption, or "
            f"I/O failure — bind it and branch, or forward it to the "
            f"caller"))
    return out


def check_obs_placement(facts: FileFacts,
                        registry: "Registry") -> list[Finding]:
    vp = facts.virtual_path
    if vp == "src/obs/obs.hpp":
        return []
    out: list[Finding] = []
    for macro, line, literal, loop_depth, fn in facts.obs_sites:
        if not literal:
            out.append(Finding(
                "obs-placement", vp, line,
                f"{macro} name must be a string literal: the metric "
                f"handle is cached per call site, so a computed name "
                f"records every later call under the first name passed"))
        in_kernel_fn = fn.startswith("block_row_")
        if _under(vp, KERNEL_DIRS) and (loop_depth >= 2 or
                                        (in_kernel_fn and loop_depth >= 1)):
            out.append(Finding(
                "obs-placement", vp, line,
                f"{macro} inside a per-row kernel inner loop "
                f"(depth {loop_depth}{', in ' + fn if fn else ''}): even "
                f"disabled, the macro's branch sits in the streaming "
                f"path — hoist it to the per-apply level to keep the "
                f"zero-overhead claim true"))
    return out


def check_no_raw_omp(facts: FileFacts, registry: "Registry") -> list[Finding]:
    vp = facts.virtual_path
    if vp.endswith("util/parallel.hpp"):
        return []
    return [Finding(
        "no-raw-omp", vp, line,
        "raw `#pragma omp parallel` bypasses util/parallel.hpp: the "
        "region would neither run nor be TSan-checked on the std::thread "
        "backend — use util::parallel_regions / util::parallel_for")
        for line in facts.omp_lines]


def check_solve_status_nodiscard(facts: FileFacts,
                                 registry: "Registry") -> list[Finding]:
    vp = facts.virtual_path
    toks = facts.toks
    out: list[Finding] = []
    for name in NODISCARD_DECLS.get(vp, ()):
        for i in range(1, len(toks) - 1):
            if (toks[i].text, toks[i + 1].text) != (name, "("):
                continue
            start = i
            while start > 0 and toks[start - 1].text not in (";", "{", "}"):
                start -= 1
            if not any(t.text == "nodiscard" for t in toks[start:i]):
                out.append(Finding(
                    "solve-status-nodiscard", vp, toks[i].line,
                    f"declaration of {name} must be [[nodiscard]] so "
                    f"discarded solves fail the build"))
    return out


def check_no_float_in_double_kernels(facts: FileFacts,
                                     registry: "Registry") -> list[Finding]:
    vp = facts.virtual_path
    if not _under(vp, DOUBLE_DIRS):
        return []
    lines = sorted({t.line for t in facts.toks
                    if t.kind == "id" and t.text == "float"})
    return [Finding(
        "no-float-in-double-kernels", vp, line,
        "float in the double-precision numerical core; use double "
        "(mixed precision silently loses bits)") for line in lines]


def check_aligned_load_contract(facts: FileFacts,
                                registry: "Registry") -> list[Finding]:
    ids = [t for t in facts.toks if t.kind == "id"]
    hit = next((t.line for t in ids if ALIGNED_SIMD_RE.fullmatch(t.text)),
               None)
    if hit is None or any(t.text in ("MRHS_ASSUME_ALIGNED", "alignas")
                          for t in ids):
        return []
    return [Finding(
        "aligned-load-contract", facts.virtual_path, hit,
        "aligned SIMD load/store without an MRHS_ASSUME_ALIGNED contract "
        "(or local alignas buffer) in this file")]


def check_fault_site_registry(facts: FileFacts,
                              registry: "Registry") -> list[Finding]:
    vp = facts.virtual_path
    if Path(vp).name.startswith("fault_injection."):
        return []  # macro definitions + registry implementation
    out: list[Finding] = []
    for macro, line, site in facts.fault_sites:
        if site is None:
            out.append(Finding(
                "fault-site-registry", vp, line,
                f"{macro} site must be a string literal (arm-time "
                f"validation matches exact names)"))
        elif registry.fault_sites and site not in registry.fault_sites:
            out.append(Finding(
                "fault-site-registry", vp, line,
                f'site "{site}" is not in util::kFaultSites; undocumented '
                f"sites can never be armed"))
    return out


def check_bench_report(facts: FileFacts,
                       registry: "Registry") -> list[Finding]:
    vp = facts.virtual_path
    if not (vp.startswith("bench/") and vp.endswith(".cpp")):
        return []
    texts = [t.text for t in facts.toks]
    has_main = any(texts[i:i + 3] == ["int", "main", "("]
                   for i in range(len(texts)))
    if not has_main or {"BenchHarness", "BenchReport"} & set(texts):
        return []
    return [Finding(
        "bench-report", vp, 1,
        "bench binary without a BenchHarness/BenchReport: its numbers "
        "never reach the BENCH_*.json regression pipeline (wrap main "
        "with bench::BenchHarness)")]


def confined_checker(rule: str):
    home, pattern, message = CONFINED[rule]

    def check(facts: FileFacts, registry: "Registry") -> list[Finding]:
        if facts.virtual_path.startswith(home):
            return []
        return [Finding(rule, facts.virtual_path, line, message)
                for line, code in sorted(facts.code_lines.items())
                if pattern.search(code)]
    return check


CHECKERS = {
    "determinism": check_determinism,
    "parallel-capture": check_parallel_capture,
    "status-propagation": check_status_propagation,
    "obs-placement": check_obs_placement,
    "no-raw-omp": check_no_raw_omp,
    "solve-status-nodiscard": check_solve_status_nodiscard,
    "no-float-in-double-kernels": check_no_float_in_double_kernels,
    "aligned-load-contract": check_aligned_load_contract,
    "fault-site-registry": check_fault_site_registry,
    "bench-report": check_bench_report,
    **{rule: confined_checker(rule) for rule in CONFINED},
}


# ---------------------------------------------------------------------------
# Status-function registry
# ---------------------------------------------------------------------------

class Registry:
    """Cross-file facts: the documented fault sites (util::kFaultSites)
    and the functions whose return value carries a Status. The latter
    is built from every declaration the frontend saw; a name is
    eligible only when *all* of its declarations return a carrier type
    (the conservative answer for the token frontend — `apply` exists
    with both Status and void returns, so it is never flagged by name
    alone)."""

    CARRIER_RE = re.compile(r"^(?:\w*Status|\w*Result)$")
    # Factories/accessors of the Status types themselves: calling these
    # bare makes no sense but they are not propagation sites.
    EXCLUDE = {"ok", "to_string", "worse_status"}

    def __init__(self) -> None:
        self.by_name: dict[str, set[str]] = {}
        self.fault_sites: set[str] = set()

    def add(self, facts: FileFacts) -> None:
        for name, ret in facts.fn_decls:
            self.by_name.setdefault(name, set()).add(ret)
        self.fault_sites.update(facts.fault_table)

    def returns_status(self, name: str) -> bool:
        if name in self.EXCLUDE:
            return False
        rets = self.by_name.get(name)
        if not rets:
            return False
        return all(self.CARRIER_RE.match(r) for r in rets)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def fingerprint(rule: str, file: str, line_text: str) -> str:
    h = hashlib.sha1(f"{rule}|{file}|{line_text.strip()}".encode())
    return h.hexdigest()[:16]


def analyze_files(frontend: TokenFrontend, files: list[tuple[Path, str]],
                  rules: list[str], report: set[Path] | None = None
                  ) -> tuple[list[Finding], list[Finding]]:
    """Indexes every file into one registry and checks those in
    `report` (all when None). Returns (active, suppressed) findings."""
    registry = Registry()
    all_facts: list[FileFacts] = []
    for path, vpath in files:
        facts = frontend.index_file(path, vpath)
        registry.add(facts)
        all_facts.append(facts)
    active: list[Finding] = []
    suppressed: list[Finding] = []
    for facts in all_facts:
        if report is not None and facts.path not in report:
            continue
        lines = facts.text.splitlines()
        for rule in rules:
            for f in CHECKERS[rule](facts, registry):
                line_text = lines[f.line - 1] if 0 < f.line <= len(lines) \
                    else ""
                f.fingerprint = fingerprint(f.rule, f.file, line_text)
                sup = facts.suppressions.get(f.line, set())
                if f.rule in sup or "*" in sup:
                    f.suppressed = True
                    suppressed.append(f)
                else:
                    active.append(f)
    active.sort(key=Finding.key)
    suppressed.sort(key=Finding.key)
    return active, suppressed


def repo_files(repo: Path) -> list[tuple[Path, str]]:
    files = [(p, p.relative_to(repo).as_posix())
             for root in SCAN_ROOTS for p in sorted((repo / root).rglob("*"))
             if p.suffix in (".hpp", ".cpp", ".h")]
    return [(p, vp) for p, vp in files if not vp.startswith(FIXTURE_DIR)]


def make_frontend(requested: str, compile_db: Path | None):
    """Returns (frontend, None) or (None, exit_code)."""
    if requested in ("auto", "clang"):
        cindex = load_cindex()
        if cindex is not None:
            return ClangFrontend(cindex, compile_db), None
        if requested == "clang":
            print("mrhs_analyze: libclang (clang.cindex) not available; "
                  "skipping (exit 77). Use --frontend auto|token for the "
                  "built-in fallback.")
            return None, SKIP
    return TokenFrontend(), None


def load_baseline(path: Path) -> set[str]:
    if not path.exists():
        return set()
    doc = json.loads(path.read_text())
    if doc.get("schema") != SCHEMA_NAME:
        print(f"mrhs_analyze: {path} has schema {doc.get('schema')!r}, "
              f"expected {SCHEMA_NAME!r}", file=sys.stderr)
        sys.exit(2)
    return {f["fingerprint"] for f in doc.get("findings", [])}


def findings_doc(frontend_name: str, findings: list[Finding],
                 suppressed: list[Finding]) -> dict:
    return {
        "schema": SCHEMA_NAME,
        "version": SCHEMA_VERSION,
        "frontend": frontend_name,
        "rules": sorted(RULES),
        "counts": {
            "active": len(findings),
            "suppressed": len(suppressed),
        },
        "findings": [{
            "rule": f.rule, "file": f.file, "line": f.line,
            "message": f.message, "fingerprint": f.fingerprint,
        } for f in findings],
        "suppressed": [{
            "rule": f.rule, "file": f.file, "line": f.line,
            "fingerprint": f.fingerprint,
        } for f in suppressed],
    }


def print_rules() -> None:
    print(f"{'rule':<28} summary")
    print(f"{'-' * 28} {'-' * 40}")
    for name in sorted(RULES):
        print(f"{name:<28} {RULES[name]}")


# ---------------------------------------------------------------------------
# Self-test (fixture battery)
# ---------------------------------------------------------------------------

def parse_fixture_directives(text: str) -> tuple[str, dict[str, int]]:
    """(virtual_path, {rule: expected_count}). `expect: none` maps to {}."""
    m = FIXTURE_AS_RE.search(text)
    vpath = m.group(1) if m else "src/core/fixture.cpp"
    expects: dict[str, int] = {}
    for rule, count in FIXTURE_EXPECT_RE.findall(text):
        if rule == "none":
            continue
        expects[rule] = expects.get(rule, 0) + (int(count) if count else 1)
    return vpath, expects


def self_test(frontend: TokenFrontend, repo: Path) -> int:
    fixture_dir = repo / "tests" / "analyze_fixtures"
    fixtures = sorted(fixture_dir.glob("*.cpp"))
    if not fixtures:
        print(f"mrhs_analyze: no fixtures under {fixture_dir}",
              file=sys.stderr)
        return 2
    failures = 0
    covered: set[str] = set()
    for path in fixtures:
        text = path.read_text()
        vpath, expects = parse_fixture_directives(text)
        covered.update(expects)
        active, _ = analyze_files(frontend, [(path, vpath)],
                                  sorted(RULES))
        got: dict[str, int] = {}
        for f in active:
            got[f.rule] = got.get(f.rule, 0) + 1
        ok = got == expects
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"  {status} {path.name}: expected {expects or 'none'}, "
              f"got {got or 'none'}")
        if not ok:
            for f in active:
                print(f"        {f.file}:{f.line}: [{f.rule}] {f.message}")
    for rule in sorted(set(RULES) - covered):
        failures += 1
        print(f"  FAIL {rule}: no fixture expects this rule")
    if failures:
        print(f"mrhs_analyze --self-test: {failures} failure(s)")
        return 1
    print(f"mrhs_analyze --self-test: {len(fixtures)} fixtures ok "
          f"({frontend.name} frontend)")
    return 0


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repo", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--compile-db", type=Path, default=None,
                        help="compile_commands.json (clang frontend flags; "
                             "defaults to <repo>/build/compile_commands.json "
                             "when present)")
    parser.add_argument("--frontend", choices=["auto", "clang", "token"],
                        default="auto")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="accepted-findings JSON (default: "
                             "scripts/mrhs_analyze_baseline.json)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="accept all current findings into --baseline")
    parser.add_argument("--json", type=Path, default=None,
                        help="write the machine-readable findings document")
    parser.add_argument("--rules", type=str, default=None,
                        help="comma-separated subset of rules to run")
    parser.add_argument("--files", nargs="*", default=None,
                        help="report only these files; the registry still "
                             "covers the whole scan (paths outside the "
                             "repo are used verbatim for scoping)")
    parser.add_argument("--show-suppressed", action="store_true")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--self-test", action="store_true",
                        help="run the tests/analyze_fixtures battery")
    args = parser.parse_args()

    if args.list_rules:
        print_rules()
        return 0

    repo = args.repo.resolve()
    compile_db = args.compile_db
    if compile_db is None:
        default_db = repo / "build" / "compile_commands.json"
        compile_db = default_db if default_db.exists() else None

    frontend, code = make_frontend(args.frontend, compile_db)
    if frontend is None:
        return code

    if args.self_test:
        return self_test(frontend, repo)

    rules = sorted(RULES)
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
        unknown = [r for r in rules if r not in RULES]
        if unknown:
            print(f"mrhs_analyze: unknown rule(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2

    files = repo_files(repo)
    report = None
    if args.files:
        report = set()
        scanned = {p for p, _ in files}
        for f in args.files:
            p = Path(f).resolve()
            report.add(p)
            if p not in scanned:
                scanned.add(p)
                files.append((p, p.relative_to(repo).as_posix()
                              if p.is_relative_to(repo) else f))

    active, suppressed = analyze_files(frontend, files, rules, report)

    baseline_path = args.baseline or repo / "scripts" / \
        "mrhs_analyze_baseline.json"
    if args.write_baseline:
        doc = findings_doc(frontend.name, active, suppressed)
        baseline_path.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"mrhs_analyze: baseline with {len(active)} finding(s) "
              f"written to {baseline_path}")
        return 0

    baseline = load_baseline(baseline_path)
    fresh = [f for f in active if f.fingerprint not in baseline]
    known = [f for f in active if f.fingerprint in baseline]

    if args.json:
        args.json.write_text(
            json.dumps(findings_doc(frontend.name, active, suppressed),
                       indent=2) + "\n")

    for f in fresh:
        print(f"{f.file}:{f.line}: [{f.rule}] {f.message}")
    if known:
        print(f"mrhs_analyze: {len(known)} baselined finding(s) not shown "
              f"(see {baseline_path.name})")
    if args.show_suppressed:
        for f in suppressed:
            print(f"{f.file}:{f.line}: [suppressed:{f.rule}]")

    n_files = len(files if report is None else report)
    if fresh:
        print(f"\nmrhs_analyze: {len(fresh)} non-baselined finding(s) "
              f"across {n_files} files ({frontend.name} frontend)")
        return 1
    print(f"mrhs_analyze: clean ({n_files} files, {len(suppressed)} "
          f"documented suppression(s), {frontend.name} frontend)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
