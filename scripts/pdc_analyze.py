#!/usr/bin/env python3
"""pdc-analyze: whole-program semantic analyzer for the pdc tree.

The paper's two contracts are runtime-checked today (the mp lockstep
auditor, the differential suites) but a violation only surfaces if a test
happens to exercise the divergent path.  This tool checks them statically,
before anything runs, with three interprocedural checks:

  PDA100 rank-divergent-collective
      An mp::Comm collective (or a call to a function that transitively
      reaches one) under a branch whose condition is tainted by rank(),
      local partition sizes, or I/O results.  Static complement to the
      runtime mp::LockstepError auditor.

  PDA200 unbounded-materialization
      Per-record container growth (push_back/emplace_back/insert on a
      container that escapes the loop) inside a RecordScan/BlockReader
      scan loop.  Out-of-core discipline allows only the pre-drawn sample,
      interval histograms, and small-node direct-method buffers to be
      resident; those sites carry a `// pdc: incore(reason)` annotation
      and are inventoried (not flagged) in the report.

  PDA300 uncharged-io
      Raw I/O (fopen/fread/fwrite and friends) in a function with no
      modeled-clock charge (charge_io*/charge_read/charge_write/add_io/
      settle_async/CostHooks).  Functions that are charged elsewhere by
      design (async worker bodies settled later, observer exports outside
      the modeled timeline) carry `// pdc: io-wrapper(reason)` and are
      inventoried.

  PDA400 unguarded-shared-field
      A mutable field in a class that owns a lock, condition variable,
      barrier, or thread handle, carrying neither PDC_GUARDED_BY nor a
      std::atomic type.  Such classes are shared across threads by
      construction, so every field must state its synchronization story.
      Fields that are genuinely thread-confined (set before the threads
      start, barrier-phased rendezvous slots) carry
      `// pdc: unshared(reason)` — on the declaration line or in the
      comment block immediately above it — and are inventoried.

  PDA410 lock-order-cycle
      A cycle in the static lock-acquisition graph.  Nodes are mutexes
      (class-qualified: Server::queue_mu_), edges mean "acquired while
      holding": mined from nested pdc::LockGuard scopes, PDC_REQUIRES
      annotations, and calls to functions whose transitive acquisitions
      are known.  An acyclic graph is a static deadlock-freedom proof
      for the annotated layers; the graph itself is published in the
      report's `lock_order` section.  Lambda bodies are invisible to the
      miner (they run on other threads, under their own scopes), and
      member calls through fields whose declared class has no matching
      definition are dropped rather than merged by name.

  PDA500 codec-symmetry
      Serializer/deserializer function pairs (serialize/deserialize,
      to_bytes/from_bytes, export_state/restore_state by receiver class;
      encode_/decode_, put_/get_, append_/take_ by shared suffix within
      a file) whose field-access sets disagree: a field written on one
      side but never read on the other, a class member absent from both
      sides of its class's codec, or common fields read in a different
      order than written.  Derived or process-local fields that are
      deliberately off the wire carry `// pdc: nonwire(reason)` — on the
      member declaration, the access line, or (for bulk/stream decoders
      with no per-field accesses) the function — and are inventoried in
      the report's `codec_pairs` section.

  PDA510 untrusted-narrowing
      A value originating from a deserialization buffer (from_bytes,
      fread, a decode_/get_/take_-family reader) flowing into an
      allocation size (resize/reserve/assign/new[]), an array index, a
      memcpy length, a loop bound, or a narrowing static_cast with no
      intervening validated bound.  A bound counts when the value is
      relationally compared in an if/loop condition whose guarded region
      throws or returns, or when the use is wrapped in std::min/clamp.
      Flagged flows are published in the report's `untrusted_flows`
      section; the discipline generalizes the CompiledTree::from_bytes
      validation layer to every codec.

  PDA520 nondeterminism-escapes-to-wire
      Nondeterministic bytes reaching a serialize path: a pointer value
      cast to uintptr_t (or an address-of argument passed as a wire
      value), iteration over an unordered container inside a writer
      function with no sort in sight, or a whole-struct memcpy of a type
      with computed padding bytes and no memset scrub before it.  Any of
      these makes the wire image differ between runs that are
      semantically identical, breaking byte-exact reproducibility.

Frontend: AST-lite — comment/string-stripped text, brace-matched
function extraction, regex taint seeds with intra-function fixpoint
propagation, and a name-keyed transitive call graph.

Reduced-mode semantics (documented deviations from the full analysis):
  * the call graph is name-keyed, so overloads share one node;
  * taint is intra-function (seeds + assignment fixpoint), and
    local-partition-size taint is approximated through I/O-result
    propagation (a size() of a buffer filled from read_file/next_block
    is tainted because the buffer is);
  * dominance for PDA300 is "a charge token appears in the same
    function", not true CFG dominance.

Suppress PDA100/PDA300 findings with the pdc-lint grammar and a reason:

    if (comm.rank() == 0) comm.barrier();  // pdc-lint: allow(PDA100) -- why

Output: human text, a `pdc.analysis.v1` JSON report (--json), and SARIF
2.1.0 (--sarif) for CI PR annotation.  Whole-run result cache keyed on
the content hash of the scripts plus every scanned file (--cache-dir,
default .analyze-cache; CI persists it with actions/cache).

Usage:
    pdc_analyze.py [paths...]       analyze trees (default: src)
    --json OUT.json                 write the pdc.analysis.v1 report
    --sarif OUT.sarif               write SARIF 2.1.0
    --cache-dir DIR / --no-cache    whole-run result cache
    --list-checks                   print the check table and exit

Exit status: 0 clean, 1 findings, 2 setup error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
from dataclasses import dataclass, field

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from pdc_lint import (Rule, iter_targets, relpath, sarif_report,
                      strip_comments_and_strings)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA = "pdc.analysis.v1"
TOOL_VERSION = "1.0"

CHECKS = [
    Rule("PDA100", "rank-divergent-collective",
         "collective reachable under a rank/partition/I-O-tainted branch",
         True),
    Rule("PDA200", "unbounded-materialization",
         "per-record container growth escaping a scan loop without a "
         "pdc: incore(reason) annotation", True),
    Rule("PDA300", "uncharged-io",
         "raw I/O with no modeled-clock charge in the same function and "
         "no pdc: io-wrapper(reason) annotation", True),
    Rule("PDA400", "unguarded-shared-field",
         "mutable field in a lock/thread-owning class with neither "
         "PDC_GUARDED_BY nor std::atomic nor a pdc: unshared(reason) "
         "escape", True),
    Rule("PDA410", "lock-order-cycle",
         "lock acquisition that closes a cycle in the static "
         "lock-order graph (potential deadlock)", True),
    Rule("PDA500", "codec-symmetry",
         "field written on one side of a codec pair but not read on the "
         "other (or read out of order) without a pdc: nonwire(reason) "
         "annotation", True),
    Rule("PDA510", "untrusted-narrowing",
         "wire-derived value flows into an allocation size, index, "
         "memcpy length, loop bound, or narrowing cast without a "
         "validated bound", True),
    Rule("PDA520", "nondeterminism-escapes-to-wire",
         "pointer value, unordered-container iteration order, or "
         "padded-struct bytes flow into a serialize path", True),
]

# mp::Comm collective primitives (src/mp/comm.hpp).  `split` is matched
# only on comm-named receivers because the identifier is ubiquitous in
# tree code (clouds::Split members).
COLLECTIVES = (
    "barrier", "all_to_all_broadcast", "all_gather", "gather",
    "broadcast", "broadcast_value", "all_reduce", "all_reduce_vec",
    "prefix_sum", "min_loc", "all_to_all",
)
COLLECTIVE_RE = re.compile(
    r"(?:\.|->)\s*(" + "|".join(COLLECTIVES) + r")\s*(?:<[^;(]*>)?\s*\(")
COMM_SPLIT_RE = re.compile(r"\bcomm\w*\s*(?:\.|->)\s*(split)\s*\(")

# The collective implementation itself (and the auditor it feeds) is the
# one place allowed to branch around collective internals.
PDA100_FILE_ALLOWLIST = (
    "src/mp/comm.hpp",
    "src/mp/lockstep.hpp",
    "src/mp/lockstep.cpp",
)

# Taint seeds: rank identity, and I/O results (local partition sizes are
# reached through propagation from these — see the module docstring).
TAINT_SEED_RE = re.compile(
    r"(?:\.|->|\b)(?:rank|global_rank)\s*\(\s*\)|"
    r"(?:\.|->)\s*(?:next_block|read_file|file_records|file_bytes|exists|"
    r"probe|remaining)\s*(?:<[^;(]*>)?\s*\(|"
    r"\bfread\s*\(")

# A value produced by a symmetric collective is rank-uniform by contract:
# assigning through one of these CLEANSES taint (the lockstep-safe
# "launder a local size through all_reduce(max)" idiom).  prefix_sum,
# all_to_all, gather and split are excluded — their results differ per
# rank.
UNIFORM_COLLECTIVE_RE = re.compile(
    r"(?:\.|->)\s*(?:all_reduce|all_reduce_vec|broadcast|broadcast_value|"
    r"all_gather|all_to_all_broadcast|min_loc)\s*(?:<[^;(]*>)?\s*\(")

# push_back/emplace_back/insert only: BlockWriter::append and friends are
# disk writes, not materialization.  The optional subscript handles one
# level of nesting (outgoing[assign.owner[i]].push_back).
GROWTH_RE = re.compile(
    r"([A-Za-z_]\w*)\s*(?:\[(?:[^\[\]]|\[[^\]]*\])*\]\s*)?(?:\.|->)\s*"
    r"(push_back|emplace_back|insert)\s*\(")

RAW_IO_RE = re.compile(
    r"\b(?:std::)?(fopen|fread|fwrite)\s*\(")
CHARGE_RE = re.compile(
    r"\b(?:charge_read|charge_write|charge_io\w*|charge_bytes|charge_scan|"
    r"add_io|settle_async)\s*\(|\bCostHooks\b")

INCORE_RE = re.compile(r"pdc:\s*incore\(([^)]*)\)")
IOWRAP_RE = re.compile(r"pdc:\s*io-wrapper\(([^)]*)\)")
UNSHARED_RE = re.compile(r"pdc:\s*unshared\(([^)]*)\)")
NONWIRE_RE = re.compile(r"pdc:\s*nonwire\(([^)]*)\)")
ALLOW_RE = re.compile(
    r"pdc-lint:\s*allow\(\s*(PDA\d{3})\s*\)\s*(--\s*\S.*)?")

CONTROL_RE = re.compile(r"\b(if|while|for|switch)\s*\(")
# A declaration of NAME inside a region: a type-ish token, whitespace,
# NAME, then an initializer/terminator.  Heuristic, but scan-loop bodies
# are small and idiomatic.
def _decl_re(name: str) -> re.Pattern:
    return re.compile(
        r"(?:^|[;{}(,]|\bauto\s|>\s)\s*"
        r"(?:const\s+)?[A-Za-z_][\w:]*(?:<[^;{}]*>)?(?:\s*[&*])?\s+"
        + re.escape(name) + r"\s*(?:[;={(\[]|\s*$)", re.M)


@dataclass
class Finding:
    path: str
    line: int
    rule: str
    slug: str
    message: str
    function: str = ""

    def render(self) -> str:
        where = f" in {self.function}()" if self.function else ""
        return (f"{self.path}:{self.line}: {self.rule} [{self.slug}]"
                f"{where} {self.message}")


@dataclass
class Function:
    name: str
    path: str
    start: int        # offset into the stripped text
    end: int
    start_line: int
    end_line: int
    body: str = ""
    calls: set = field(default_factory=set)
    has_collective: bool = False
    qual: str = ""    # Cls for a `Cls::name` out-of-line definition
    cls: str = ""     # enclosing class (qual, or by class extents)


@dataclass
class MemberDecl:
    name: str
    type: str
    line: int         # first line of the declaration statement
    guarded: bool     # carries PDC_GUARDED_BY/PDC_PT_GUARDED_BY
    exempt: bool      # const, lockable, sync primitive, or atomic


@dataclass
class ClassModel:
    name: str
    path: str
    start: int        # offset of the opening '{'
    end: int          # offset just past the closing '}'
    members: list = field(default_factory=list)
    lockables: list = field(default_factory=list)   # mutex member names
    triggered: bool = False    # owns a lock/condvar/barrier/thread


@dataclass
class FileModel:
    path: str                    # repo-relative
    raw_lines: list
    code: str                    # stripped text
    functions: list
    allowed: dict                # line -> {rule ids}
    bare_allows: list            # lines with reasonless allow()
    incore: dict                 # line -> reason
    iowrap: dict                 # line -> reason
    unshared: dict = field(default_factory=dict)   # line -> reason
    nonwire: dict = field(default_factory=dict)    # line -> reason
    classes: list = field(default_factory=list)


def match_paren(text: str, open_idx: int) -> int:
    """Offset just past the ')' matching the '(' at open_idx (or len)."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def match_brace(text: str, open_idx: int) -> int:
    """Offset just past the '}' matching the '{' at open_idx (or len)."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


FUNC_HEAD_RE = re.compile(
    r"([A-Za-z_~][\w:]*)\s*\([^;{}()]*(?:\([^;{}()]*\)[^;{}()]*)*\)\s*"
    r"(?:const\b\s*)?(?:noexcept\b[^;{}]*)?(?:->\s*[\w:<>,\s&*]+?)?\s*$")

NON_FUNC_KEYWORDS = {"if", "while", "for", "switch", "catch", "return",
                     "sizeof", "static_assert", "alignas", "decltype",
                     "new", "delete", "throw", "else", "do", "operator"}


def extract_functions(rel: str, code: str):
    """Brace-matched function extraction over stripped text.

    A '{' opens a function body when the text since the previous
    ; { } (at the same nesting) looks like `name(args) qualifiers`.
    Lambdas and nested blocks stay inside their enclosing function.
    """
    functions = []
    i = 0
    n = len(code)
    seg_start = 0
    while i < n:
        c = code[i]
        if c in ";}":
            seg_start = i + 1
            i += 1
            continue
        if c != "{":
            i += 1
            continue
        head = code[seg_start:i].strip()
        # struct/class/namespace/enum blocks: descend into them.
        if re.search(r"\b(namespace|class|struct|union|enum)\b[^=()]*$",
                     head) or not head:
            seg_start = i + 1
            i += 1
            continue
        m = FUNC_HEAD_RE.search(head)
        parts = m.group(1).split("::") if m else [""]
        name = parts[-1]
        if not m or name in NON_FUNC_KEYWORDS:
            # Initializer list, array literal, control block...  skip the
            # brace itself but keep scanning inside it.
            seg_start = i + 1
            i += 1
            continue
        end = match_brace(code, i)
        start_line = code.count("\n", 0, i) + 1
        end_line = code.count("\n", 0, end) + 1
        functions.append(Function(
            name=name, path=rel, start=i, end=end,
            start_line=start_line, end_line=end_line,
            body=code[i:end], qual=parts[-2] if len(parts) > 1 else ""))
        i = end
        seg_start = end
    return functions


def load_file(path: str) -> FileModel:
    rel = relpath(path)
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        text = f.read()
    raw_lines = text.splitlines()
    code = strip_comments_and_strings(text)

    allowed, bare, incore, iowrap = {}, [], {}, {}
    for lineno, line in enumerate(raw_lines, start=1):
        for m in ALLOW_RE.finditer(line):
            if m.group(2):
                allowed.setdefault(lineno, set()).add(m.group(1))
            else:
                bare.append((lineno, m.group(1)))
        m = INCORE_RE.search(line)
        if m:
            incore[lineno] = m.group(1).strip()
        m = IOWRAP_RE.search(line)
        if m:
            iowrap[lineno] = m.group(1).strip()

    # unshared(...)/nonwire(...) escapes wrap across comment lines, so
    # they are mined from the raw text ([^)] spans newlines) and keyed on
    # the line the annotation starts; `//` continuations are scrubbed
    # from the reason.
    unshared, nonwire = {}, {}
    for pat, table in ((UNSHARED_RE, unshared), (NONWIRE_RE, nonwire)):
        for m in pat.finditer(text):
            reason = " ".join(re.sub(r"\s*//\s*", " ", m.group(1)).split())
            table[text.count("\n", 0, m.start()) + 1] = reason

    fm = FileModel(path=rel, raw_lines=raw_lines, code=code,
                   functions=extract_functions(rel, code),
                   allowed=allowed, bare_allows=bare,
                   incore=incore, iowrap=iowrap, unshared=unshared,
                   nonwire=nonwire)
    fm.classes = extract_classes(rel, code)
    for cls in fm.classes:
        scan_class_members(cls, code)
    return fm


# --------------------------------------------------------------- PDA100 ---

def direct_collectives(body: str):
    """Offsets (relative to body) and names of collective call sites."""
    sites = [(m.start(), m.group(1)) for m in COLLECTIVE_RE.finditer(body)]
    sites += [(m.start(), m.group(1)) for m in COMM_SPLIT_RE.finditer(body)]
    return sites


def build_call_graph(models):
    """Name-keyed call graph; returns the set of function names that
    transitively reach an mp::Comm collective call site.

    Reduced-mode conservatism: a name is considered reaching only when
    EVERY definition of that name reaches.  The name key merges overloads
    and unrelated same-named methods (AsyncEngine::run vs DcDriver::run);
    all-definitions semantics keeps those collisions from poisoning the
    whole graph, while the common case — a uniquely named helper that
    wraps a collective — stays exact."""
    defs = {}
    for fm in models:
        for fn in fm.functions:
            fn.has_collective = bool(direct_collectives(fn.body))
            defs.setdefault(fn.name, []).append(fn)
    name_re = re.compile(r"\b([A-Za-z_]\w*)\s*(?:<[^;(]*>)?\s*\(")
    for fm in models:
        for fn in fm.functions:
            fn.calls = {m.group(1) for m in name_re.finditer(fn.body)
                        if m.group(1) in defs and m.group(1) != fn.name}
    reaches = {name for name, fns in defs.items()
               if all(fn.has_collective for fn in fns)}
    changed = True
    while changed:
        changed = False
        for name, fns in defs.items():
            if name in reaches:
                continue
            if all(fn.has_collective or fn.calls & reaches for fn in fns):
                reaches.add(name)
                changed = True
    return reaches


def tainted_vars(body: str) -> set:
    """Intra-function taint: variables assigned from a seed expression or
    from an already-tainted variable, to a fixpoint."""
    tainted = set()
    assign_re = re.compile(
        r"\b([A-Za-z_]\w*)\s*(?:=|\+=|-=)\s*([^;]*);")
    decl_init_re = re.compile(
        r"\b([A-Za-z_]\w*)\s*[({]([^;{}]*next_block[^;{}]*|"
        r"[^;{}]*read_file[^;{}]*|[^;{}]*\brank\s*\(\s*\)[^;{}]*)[)}]")
    statements = [(m.group(1), m.group(2)) for m in
                  assign_re.finditer(body)]
    statements += [(m.group(1), m.group(2)) for m in
                   decl_init_re.finditer(body)]
    changed = True
    while changed:
        changed = False
        for lhs, rhs in statements:
            if lhs in tainted:
                continue
            if UNIFORM_COLLECTIVE_RE.search(rhs):
                continue  # rank-uniform by the collective's contract
            if TAINT_SEED_RE.search(rhs) or any(
                    re.search(r"\b" + re.escape(v) + r"\b", rhs)
                    for v in tainted):
                tainted.add(lhs)
                changed = True
    return tainted


def tainted_regions(fn: Function, extra_tainted: set):
    """(start, end) offsets (body-relative) of statements governed by a
    branch whose condition is tainted."""
    regions = []
    for m in CONTROL_RE.finditer(fn.body):
        open_paren = m.end() - 1
        close = match_paren(fn.body, open_paren)
        cond = fn.body[open_paren:close]
        if m.group(1) == "for":
            # Only the condition clause of a for(;;) decides divergence.
            parts = cond.split(";")
            cond = parts[1] if len(parts) >= 2 else cond
        is_tainted = bool(TAINT_SEED_RE.search(cond)) or any(
            re.search(r"\b" + re.escape(v) + r"\b", cond)
            for v in extra_tainted)
        if not is_tainted:
            continue
        j = close
        while j < len(fn.body) and fn.body[j] in " \t\n":
            j += 1
        if j < len(fn.body) and fn.body[j] == "{":
            end = match_brace(fn.body, j)
        else:
            end = fn.body.find(";", j)
            end = len(fn.body) if end < 0 else end + 1
        regions.append((close, end))
        # An else branch of a tainted condition is equally divergent.
        k = end
        while True:
            while k < len(fn.body) and fn.body[k] in " \t\n":
                k += 1
            if not fn.body.startswith("else", k):
                break
            k += 4
            while k < len(fn.body) and fn.body[k] in " \t\n":
                k += 1
            if fn.body.startswith("if", k):
                break  # else-if has its own condition; handled by its match
            if k < len(fn.body) and fn.body[k] == "{":
                k2 = match_brace(fn.body, k)
            else:
                k2 = fn.body.find(";", k)
                k2 = len(fn.body) if k2 < 0 else k2 + 1
            regions.append((k, k2))
            k = k2
    return regions


def check_pda100(fm: FileModel, reaches, add):
    if fm.path in PDA100_FILE_ALLOWLIST:
        return
    name_re = re.compile(r"\b([A-Za-z_]\w*)\s*(?:<[^;(]*>)?\s*\(")
    for fn in fm.functions:
        regions = tainted_regions(fn, tainted_vars(fn.body))
        if not regions:
            continue

        def in_tainted(off):
            return any(a <= off < b for a, b in regions)

        for off, prim in direct_collectives(fn.body):
            if in_tainted(off):
                line = fn.body.count("\n", 0, off) + fn.start_line
                add(fm, line, "PDA100", fn.name,
                    f"collective {prim}() under a tainted branch")
        for m in name_re.finditer(fn.body):
            callee = m.group(1)
            if callee in reaches and callee != fn.name \
                    and in_tainted(m.start()):
                line = fn.body.count("\n", 0, m.start()) + fn.start_line
                add(fm, line, "PDA100", fn.name,
                    f"call to {callee}() (transitively reaches a "
                    "collective) under a tainted branch")


# --------------------------------------------------------------- PDA200 ---

def scan_regions(code: str):
    """(start, end) offsets of scan-loop bodies: lambdas passed to a
    scan(...) call, and loops that consume BlockReader::next_block."""
    regions = []
    # Any *scan*-named call taking a lambda, directly or curried
    # (`open_scan(args)([&] ...)`): the tree binds each io::RecordScan to a
    # variable named `scan` and calls `scan([&](const T& r) {...})`.  A
    # callback bound to a named variable first, or a scan value whose name
    # lacks "scan" (a temporary `RecordScan<T>(...)(...)`), is invisible
    # to the reduced mode (documented limitation).
    for m in re.finditer(r"\b([A-Za-z_]\w*)\s*\(", code):
        if "scan" not in m.group(1):
            continue
        close = match_paren(code, m.end() - 1)
        arg_start, arg_end = m.end(), close
        j = close
        while j < len(code) and code[j] in " \t\n":
            j += 1
        if j < len(code) and code[j] == "(":  # curried: scan maker
            arg_start, arg_end = j + 1, match_paren(code, j)
        args = code[arg_start:arg_end]
        lam = args.find("[")
        if lam < 0:
            continue
        brace = code.find("{", arg_start + lam)
        if brace < 0 or brace >= arg_end:
            continue
        regions.append((brace, match_brace(code, brace)))
    loops = []
    for m in re.finditer(r"\b(while|for|do)\s*[({]", code):
        kw = m.group(1)
        if kw == "do":
            brace = code.find("{", m.start())
            if brace < 0:
                continue
            start, end = brace, match_brace(code, brace)
            cond = ""
        else:
            close = match_paren(code, m.end() - 1)
            j = close
            while j < len(code) and code[j] in " \t\n":
                j += 1
            if j >= len(code) or code[j] != "{":
                continue
            start, end = j, match_brace(code, j)
            cond = code[m.start():close]
        if "next_block" in cond or "next_block" in code[start:end]:
            loops.append((start, end))
    # The scan semantics belong to the INNERMOST loop consuming blocks: an
    # outer node-processing loop that merely contains a block loop is not
    # itself a per-record region (its own growth is per-node, not
    # per-record).
    for a, b in loops:
        if not any((a, b) != (c, d) and a <= c and d <= b
                   for c, d in loops):
            regions.append((a, b))
    return sorted(set(regions))


def check_pda200(fm: FileModel, add, incore_zones):
    regions = scan_regions(fm.code)
    flagged = set()
    for start, end in regions:
        body = fm.code[start:end]
        for m in GROWTH_RE.finditer(body):
            root = m.group(1)
            if root in ("out", "result") and m.group(2) == "insert":
                pass  # byte-blob append idiom; still subject to escape test
            if _decl_re(root).search(body[:m.start()]):
                continue  # container lives and dies inside the loop
            off = start + m.start()
            line = fm.code.count("\n", 0, off) + 1
            if line in flagged:
                continue
            reason = fm.incore.get(line)
            if reason is None:
                reason = fm.incore.get(line - 1)
            if reason is not None:
                if not reason:
                    add(fm, line, "PDA200", "",
                        "pdc: incore() annotation must carry a reason")
                continue  # inventoried below from the annotation map
            flagged.add(line)
            add(fm, line, "PDA200", "",
                f"{root}.{m.group(2)}() grows a container that escapes "
                "a scan loop (annotate pdc: incore(reason) if this zone "
                "is part of the bounded in-core budget)")
    for line, reason in sorted(fm.incore.items()):
        incore_zones.append({"file": fm.path, "line": line,
                             "reason": reason})


# --------------------------------------------------------------- PDA300 ---

def check_pda300(fm: FileModel, add, io_wrappers):
    for fn in fm.functions:
        sites = list(RAW_IO_RE.finditer(fn.body))
        if not sites:
            continue
        wrap_reason = None
        for line in range(fn.start_line, fn.end_line + 1):
            if line in fm.iowrap:
                wrap_reason = fm.iowrap[line]
                break
        if wrap_reason is not None:
            if not wrap_reason:
                add(fm, fn.start_line, "PDA300", fn.name,
                    "pdc: io-wrapper() annotation must carry a reason")
            else:
                io_wrappers.append({"file": fm.path,
                                    "line": fn.start_line,
                                    "function": fn.name,
                                    "reason": wrap_reason})
            continue
        if CHARGE_RE.search(fn.body):
            continue
        for m in sites:
            line = fn.body.count("\n", 0, m.start()) + fn.start_line
            add(fm, line, "PDA300", fn.name,
                f"{m.group(1)}() with no modeled-clock charge in this "
                "function (charge it, or annotate the function "
                "pdc: io-wrapper(reason))")


# ------------------------------------------------------ PDA400 / PDA410 ---

# The annotated wrapper layer itself: its internals hold the raw
# std::mutex and are excluded from lock mining and the member audit.
SYNC_WRAPPER_FILE = "src/common/sync.hpp"

CLASS_HEAD_RE = re.compile(
    r"\b(?:class|struct)\s+(?:PDC_\w+\s*(?:\([^)]*\)\s*)?)?"
    r"([A-Za-z_]\w*)\s*(?:final\s*)?(?::[^;{]*)?$")

# Mutex-like member types (the annotated wrapper and the raw std types).
LOCKABLE_TYPE_RE = re.compile(
    r"^(?:pdc::)?Mutex$|^std::(?:recursive_|shared_|timed_|"
    r"recursive_timed_)?mutex$")
# Synchronization primitives that are exempt from the guarded-field audit
# but mark the owning class as thread-shared.
SYNC_TYPE_RE = re.compile(
    r"^(?:pdc::)?(?:CondVar|CentralBarrier)$|"
    r"^std::condition_variable(?:_any)?$|^std::once_flag$")
THREAD_TYPE_RE = re.compile(r"\bstd::j?thread\b")

MEMBER_DECL_RE = re.compile(
    r"^(?:mutable\s+)?(?P<const>const\s+)?(?:mutable\s+)?"
    r"(?P<type>[A-Za-z_][\w:]*(?:<.*?>)?(?:\s*[*&])*)"
    r"\s+(?P<name>[A-Za-z_]\w*)\s*"
    r"(?P<tail>(?:PDC_(?:PT_)?GUARDED_BY\s*\([^)]*\))?"
    r"\s*(?:=.*|\{\}.*)?)$")
MEMBER_SKIP_RE = re.compile(
    r"\b(?:using|typedef|friend|static|template|operator|enum|class|"
    r"struct|union)\b")

# RAII acquisition: the annotated LockGuard or a raw std guard (fixtures
# and any stragglers PDC008 has not caught yet).
ACQUIRE_RE = re.compile(
    r"\b(?:std\s*::\s*|pdc\s*::\s*)?"
    r"(?:LockGuard|lock_guard|unique_lock|scoped_lock)\s*"
    r"(?:<[^;(]*>)?\s+\w+\s*[({]\s*([^;(){}]*?)\s*[)}]")
REQUIRES_RE = re.compile(
    r"([A-Za-z_][\w:]*)\s*\([^()]*(?:\([^()]*\)[^()]*)*\)\s*"
    r"(?:const\s*)?PDC_REQUIRES\s*\(([^()]*)\)")
LVALUE_PATH_RE = re.compile(
    r"[A-Za-z_]\w*(?:(?:\.|->)[A-Za-z_]\w*)*")
LAMBDA_RE = re.compile(
    r"\[[^\[\]]*\]\s*(?:\([^()]*\))?\s*(?:mutable\b\s*)?"
    r"(?:noexcept\b\s*)?(?:->\s*[\w:<>&*\s]+)?\{")
MEMBER_CALL_RE = re.compile(
    r"(?:\b([A-Za-z_]\w*)\s*(?:\.|->)\s*)?\b([A-Za-z_]\w*)\s*"
    r"(?:<[^;(]*>)?\s*\(")


def extract_classes(rel: str, code: str):
    """Named class/struct extents over stripped text, nested included
    (the walk descends into every block, mirroring extract_functions)."""
    classes = []
    i = 0
    n = len(code)
    seg_start = 0
    while i < n:
        c = code[i]
        if c in ";}":
            seg_start = i + 1
            i += 1
            continue
        if c != "{":
            i += 1
            continue
        head = code[seg_start:i].strip()
        m = CLASS_HEAD_RE.search(head) if head else None
        if m and not re.search(r"\benum\b", head):
            classes.append(ClassModel(name=m.group(1), path=rel,
                                      start=i, end=match_brace(code, i)))
        seg_start = i + 1
        i += 1
    return classes


def _mask_nested(body: str) -> str:
    """Blank everything inside nested braces (method bodies, nested
    classes), keeping the braces and newlines for offset/line math."""
    out = []
    depth = 0
    for c in body:
        if c == "{":
            out.append("{")
            depth += 1
        elif c == "}":
            depth -= 1
            out.append("}")
        else:
            out.append(c if depth <= 0 else ("\n" if c == "\n" else " "))
    return "".join(out)


def _class_statements(masked: str):
    """(start_offset, text) of class-scope statements.  A brace block
    followed by ';' is a brace initializer and stays in its statement;
    any other block (inline method, nested class) ends one."""
    stmts = []
    buf = []
    i = 0
    start = 0
    n = len(masked)
    while i < n:
        c = masked[i]
        if c == ";":
            stmts.append((start, "".join(buf)))
            buf = []
            start = i + 1
            i += 1
        elif c == "{":
            j = match_brace(masked, i)
            k = j
            while k < n and masked[k] in " \t\n":
                k += 1
            if k < n and masked[k] == ";":
                buf.append(" {} ")
                i = j
            else:
                buf = []
                start = j
                i = j
        else:
            buf.append(c)
            i += 1
    return stmts


def _base_type(t: str) -> str:
    """`const std::deque<Request>&` -> `deque`: the class key a member
    call through this field should be narrowed to."""
    t = re.sub(r"^const\s+", "", t.strip())
    return t.split("<")[0].strip().rstrip("&* ").split("::")[-1]


def scan_class_members(cls: ClassModel, code: str):
    body = code[cls.start + 1:cls.end - 1]
    base = cls.start + 1
    for off, stmt in _class_statements(_mask_nested(body)):
        text = re.sub(r"\b(?:public|private|protected)\s*:", " ", stmt)
        text = " ".join(text.split())
        if not text or MEMBER_SKIP_RE.search(text) or "(" in \
                text.split("PDC_", 1)[0].split("=", 1)[0].split("{", 1)[0]:
            continue
        m = MEMBER_DECL_RE.match(text)
        if not m:
            continue
        # The declaration's first line: skip leading whitespace and any
        # access-specifier label glued to the front of the statement.
        abs_off = base + off
        while True:
            while abs_off < cls.end and code[abs_off] in " \t\n":
                abs_off += 1
            lm = re.match(r"(?:public|private|protected)\s*:",
                          code[abs_off:cls.end])
            if not lm:
                break
            abs_off += lm.end()
        line = code.count("\n", 0, abs_off) + 1
        mtype = m.group("type")
        lockable = bool(LOCKABLE_TYPE_RE.match(mtype))
        syncish = bool(SYNC_TYPE_RE.match(mtype))
        threadish = bool(THREAD_TYPE_RE.search(mtype))
        guarded = "PDC_GUARDED_BY" in stmt or "PDC_PT_GUARDED_BY" in stmt
        if lockable:
            cls.lockables.append(m.group("name"))
        if lockable or syncish or threadish:
            cls.triggered = True
        # const exempts a field unless it is a pointer: `const X* p_` has
        # a const pointee but the pointer itself is mutable state.
        is_const = bool(m.group("const")) and "*" not in mtype
        exempt = is_const or lockable or syncish or "atomic" in mtype
        cls.members.append(MemberDecl(name=m.group("name"), type=mtype,
                                      line=line, guarded=guarded,
                                      exempt=exempt))


def _annot_reason(fm: FileModel, line: int, table: dict):
    """The annotation covering a declaration/use at `line`: on the line
    itself or in the contiguous comment block immediately above."""
    if line in table:
        return table[line]
    k = line - 1
    while k >= 1 and fm.raw_lines[k - 1].lstrip().startswith("//"):
        if k in table:
            return table[k]
        k -= 1
    return None


def _unshared_reason(fm: FileModel, line: int):
    return _annot_reason(fm, line, fm.unshared)


def check_pda400(fm: FileModel, add, unshared_fields):
    if fm.path == SYNC_WRAPPER_FILE:
        return
    for cls in fm.classes:
        if not cls.triggered:
            continue
        for mem in cls.members:
            if mem.exempt or mem.guarded:
                continue
            reason = _unshared_reason(fm, mem.line)
            if reason is not None:
                if not reason:
                    add(fm, mem.line, "PDA400", "",
                        "pdc: unshared() annotation must carry a reason")
                else:
                    unshared_fields.append(
                        {"file": fm.path, "line": mem.line,
                         "class": cls.name, "field": mem.name,
                         "reason": reason})
                continue
            add(fm, mem.line, "PDA400", "",
                f"{cls.name}::{mem.name} is mutable state in a class "
                "that owns a lock or thread but carries neither "
                "PDC_GUARDED_BY nor std::atomic (annotate "
                "pdc: unshared(reason) if it is never shared)")


def _innermost_class(fm: FileModel, fn: Function) -> str:
    best = ""
    for cls in fm.classes:
        if cls.start < fn.start and fn.end <= cls.end:
            best = cls.name    # discovery order: last containing wins
    return best


def _mask_lambdas(body: str) -> str:
    """Blank lambda bodies: they run on other threads under their own
    scopes, so their acquisitions and calls do not nest under the
    enclosing function's held locks."""
    out = list(body)
    for m in LAMBDA_RE.finditer(body):
        open_idx = m.end() - 1
        end = match_brace(body, open_idx)
        for k in range(open_idx + 1, max(open_idx + 1, end - 1)):
            if out[k] != "\n":
                out[k] = " "
    return "".join(out)


def _scope_end(body: str, off: int) -> int:
    """Offset of the '}' closing the block an acquisition at `off` lives
    in — the end of the guard's RAII scope."""
    depth = 0
    for i in range(off, len(body)):
        c = body[i]
        if c == "{":
            depth += 1
        elif c == "}":
            if depth == 0:
                return i
            depth -= 1
    return len(body)


def _mutex_node(expr: str, cls_name: str, fm: FileModel, field_owner):
    """Class-qualified identity for a mutex lvalue, or None when the
    receiver is ambiguous (never guess a wrong edge into the proof)."""
    expr = expr.strip()
    if expr.startswith("this->"):
        expr = expr[len("this->"):]
    if not LVALUE_PATH_RE.fullmatch(expr):
        return None
    is_bare = "." not in expr and "->" not in expr
    fld = re.split(r"->|\.", expr)[-1]
    owners = field_owner.get(fld, set())
    if cls_name in owners and is_bare:
        return f"{cls_name}::{fld}"
    if len(owners) == 1:
        return f"{next(iter(owners))}::{fld}"
    if cls_name in owners:
        return f"{cls_name}::{fld}"
    if owners:
        return None
    return f"{cls_name or fm.path}::{fld}"


def mine_lock_order(models, add):
    """Build the lock-acquisition graph, emit PDA410 findings for every
    edge that participates in a cycle, and return the report section."""
    lock_models = [fm for fm in models if fm.path != SYNC_WRAPPER_FILE]
    field_owner = {}
    field_types = {}
    for fm in lock_models:
        for cls in fm.classes:
            for name in cls.lockables:
                field_owner.setdefault(name, set()).add(cls.name)
            field_types.setdefault(cls.name, {}).update(
                {mem.name: _base_type(mem.type) for mem in cls.members})
    defs = {}
    for fm in lock_models:
        for fn in fm.functions:
            fn.cls = fn.qual or _innermost_class(fm, fn)
            defs.setdefault(fn.name, []).append(fn)
    req_map = {}
    for fm in lock_models:
        for m in REQUIRES_RE.finditer(fm.code):
            name = m.group(1).split("::")[-1]
            req_map.setdefault(name, set()).update(
                e.strip() for e in m.group(2).split(",") if e.strip())

    acqs = {}      # id(fn) -> [(off, node, line)]
    calls = {}     # id(fn) -> [(off, callee name)]
    for fm in lock_models:
        for fn in fm.functions:
            masked = _mask_lambdas(fn.body)
            sites = []
            for m in ACQUIRE_RE.finditer(masked):
                args = m.group(1)
                if "defer_lock" in args or "adopt_lock" in args or \
                        "try_to_lock" in args:
                    continue
                node = _mutex_node(args.split(",")[0], fn.cls, fm,
                                   field_owner)
                if node is not None:
                    line = masked.count("\n", 0, m.start()) \
                        + fn.start_line
                    sites.append((m.start(), node, line))
            acqs[id(fn)] = sites
            out = []
            for m in MEMBER_CALL_RE.finditer(masked):
                recv, callee = m.group(1), m.group(2)
                if callee not in defs or callee == fn.name:
                    continue
                if recv:
                    rtype = field_types.get(fn.cls, {}).get(recv)
                    if rtype is not None and not any(
                            d.cls == rtype for d in defs[callee]):
                        continue    # field's class defines no such member
                out.append((m.start(), callee))
            calls[id(fn)] = out

    # Transitive acquisitions per name (all-definitions union), so a
    # call made under a lock contributes the callee's whole lock set.
    acquires = {name: set() for name in defs}
    for name, fns in defs.items():
        for fn in fns:
            acquires[name] |= {node for _, node, _ in acqs[id(fn)]}
    changed = True
    while changed:
        changed = False
        for name, fns in defs.items():
            for fn in fns:
                for _, callee in calls[id(fn)]:
                    extra = acquires[callee] - acquires[name]
                    if extra:
                        acquires[name] |= extra
                        changed = True

    nodes = set()
    edges = {}     # (from, to) -> (fm, line)
    for fm in lock_models:
        for fn in fm.functions:
            sites = acqs[id(fn)]
            nodes.update(node for _, node, _ in sites)
            held_at_entry = {
                n for e in req_map.get(fn.name, ())
                for n in [_mutex_node(e, fn.cls, fm, field_owner)]
                if n is not None}
            nodes.update(held_at_entry)

            def record(held, node, line, fm=fm):
                if node != held:
                    edges.setdefault((held, node), (fm, line))

            for off_a, node_a, _ in sites:
                end_a = _scope_end(fn.body, off_a)
                for off_b, node_b, line_b in sites:
                    if off_a < off_b < end_a:
                        record(node_a, node_b, line_b)
                for off_c, callee in calls[id(fn)]:
                    if off_a < off_c < end_a:
                        line_c = fn.body.count("\n", 0, off_c) \
                            + fn.start_line
                        for node_b in acquires[callee]:
                            record(node_a, node_b, line_c)
            for held in held_at_entry:
                for _, node_b, line_b in sites:
                    record(held, node_b, line_b)
                for off_c, callee in calls[id(fn)]:
                    line_c = fn.body.count("\n", 0, off_c) \
                        + fn.start_line
                    for node_b in acquires[callee]:
                        record(held, node_b, line_c)

    adj = {}
    for (a, b) in edges:
        adj.setdefault(a, set()).add(b)

    def reach(x):
        seen, stack = set(), [x]
        while stack:
            for w in adj.get(stack.pop(), ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    reach_of = {n: reach(n) for n in adj}
    cycles = sorted({
        tuple(sorted({n} | {m for m in reach_of[n]
                            if n in reach_of.get(m, ())}))
        for n in adj if n in reach_of[n]})
    # An edge participates in a cycle exactly when its source is
    # reachable back from its target.
    for (a, b), (fm, line) in sorted(edges.items(),
                                     key=lambda kv: (kv[1][0].path,
                                                     kv[1][1])):
        if a in reach_of.get(b, ()):
            add(fm, line, "PDA410", "",
                f"acquiring {b} while holding {a} closes a cycle in "
                "the lock-order graph (potential deadlock)")
    return {
        "nodes": sorted(nodes),
        "edges": [{"from": a, "to": b, "file": fm.path, "line": line}
                  for (a, b), (fm, line) in
                  sorted(edges.items(),
                         key=lambda kv: (kv[1][0].path, kv[1][1],
                                         kv[0]))],
        "cycles": [list(c) for c in cycles],
    }


# ------------------------------------------- PDA500 / PDA510 / PDA520 ---

# Codec families.  Exact-name pairs are keyed by receiver class (so the
# inline DecisionTree::serialize in tree.hpp pairs with the out-of-line
# deserialize in tree.cpp); prefix pairs are keyed by the shared suffix
# within one file (put_u64/get_u64, encode_stats/decode_stats, ...).
WIRE_EXACT_FAMILIES = (
    ("serialize", "deserialize"),
    ("to_bytes", "from_bytes"),
    ("export_state", "restore_state"),
)
WIRE_PREFIX_FAMILIES = (
    ("encode_", "decode_"),
    ("put_", "get_"),
    ("append_", "take_"),
)
WRITER_NAME_RE = re.compile(
    r"^(?:serialize|to_bytes|export_state)$|^(?:encode_|put_|append_)")

# Wire-read seeds for PDA510: the canonical byte-decoding entry points
# plus every reader-prefixed function actually defined in the scanned
# tree (so `n = get_varint(...)` taints n, but an unrelated get_-named
# accessor in a file with no codec never becomes a seed by accident --
# its result simply never reaches an unvalidated allocation).
WIRE_READ_EXACT = ("deserialize", "from_bytes", "value_from_bytes",
                   "fread")
WIRE_READ_PREFIXES = ("decode_", "get_", "take_")

# Dotted accesses that are structure traversal, not wire fields.
DOTTED_IGNORE = {"first", "second"}

DOTTED_ACCESS_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*\.\s*([A-Za-z_]\w*)\b(?!\s*\()")

RELOP_RE = re.compile(r"(?<![<>\-=])[<>]=?(?![<>])|[!=]=(?!=)")
REJECT_RE = re.compile(
    r"\bthrow\b|\breturn\b|\babort\s*\(|\bexit\s*\(|\breject\w*\s*\(")
MINCLAMP_RE = re.compile(r"\bstd\s*::\s*(?:min|clamp)\s*[<(]")

SINK_ALLOC_RE = re.compile(r"(?:\.|->)\s*(resize|reserve|assign)\s*\(")
NEW_ARRAY_RE = re.compile(r"\bnew\s+[A-Za-z_][\w:<>\s]*?\[")
NARROW_CAST_RE = re.compile(
    r"\bstatic_cast\s*<\s*(?:std::)?(?:u?int(?:8|16|32)_t|short|char|"
    r"signed\s+char|unsigned\s+char|int|unsigned)\s*>\s*\(")
MEMCPY_CALL_RE = re.compile(r"\bmemcpy\s*\(")
UINTPTR_CAST_RE = re.compile(
    r"\breinterpret_cast\s*<\s*(?:std::)?u?intptr_t\s*>")

# Fundamental type sizes for the padded-struct computation (LP64).
FUND_SIZES = {
    "bool": 1, "char": 1, "int8_t": 1, "uint8_t": 1,
    "int16_t": 2, "uint16_t": 2, "short": 2,
    "int": 4, "unsigned": 4, "int32_t": 4, "uint32_t": 4, "float": 4,
    "long": 8, "size_t": 8, "int64_t": 8, "uint64_t": 8, "double": 8,
    "ptrdiff_t": 8, "uintptr_t": 8,
}


def _split_args(text: str):
    """Top-level comma split of an argument list (no outer parens)."""
    args, depth, buf = [], 0, []
    for c in text:
        if c in "(<[{":
            depth += 1
        elif c in ")>]}":
            depth -= 1
        if c == "," and depth == 0:
            args.append("".join(buf))
            buf = []
        else:
            buf.append(c)
    if buf:
        args.append("".join(buf))
    return [a.strip() for a in args]


def _word_in(name: str, body: str) -> bool:
    return re.search(r"\b" + re.escape(name) + r"\b", body) is not None


def dotted_fields(body: str, exclude: set):
    """Ordered first-occurrence list of `x.field` accesses (calls and
    structure-traversal names excluded), plus field -> first offset."""
    seq, occ = [], {}
    for m in DOTTED_ACCESS_RE.finditer(body):
        f = m.group(2)
        if f in exclude or f in DOTTED_IGNORE or f in occ:
            continue
        seq.append(f)
        occ[f] = m.start()
    return seq, occ


def _fn_level_reason(fm: FileModel, fn: Function, table: dict):
    """A function-level annotation: any line inside the function extent
    (PDA300 io-wrapper convention) or the comment block above its head."""
    for line in range(fn.start_line, fn.end_line + 1):
        if line in table:
            return table[line]
    return _annot_reason(fm, fn.start_line, table)


def _class_registry(models):
    """name -> [(fm, ClassModel)] for every named class in the run."""
    reg = {}
    for fm in models:
        for cls in fm.classes:
            reg.setdefault(cls.name, []).append((fm, cls))
    return reg


def _collect_codec_pairs(models):
    """Pair writer/reader functions per the wire families.  Yields
    (display_key, cls_name, writer_fns, reader_fns)."""
    writers, readers = {}, {}
    for fm in models:
        for fn in fm.functions:
            for w, r in WIRE_EXACT_FAMILIES:
                scope = fn.cls or fm.path
                if fn.name == w:
                    writers.setdefault(("cls", scope, w), []).append(fn)
                elif fn.name == r:
                    readers.setdefault(("cls", scope, w), []).append(fn)
            for wp, rp in WIRE_PREFIX_FAMILIES:
                if fn.name.startswith(wp) and len(fn.name) > len(wp):
                    key = ("sfx", fm.path, wp, fn.name[len(wp):])
                    writers.setdefault(key, []).append(fn)
                elif fn.name.startswith(rp) and len(fn.name) > len(rp):
                    key = ("sfx", fm.path, wp, fn.name[len(rp):])
                    readers.setdefault(key, []).append(fn)
    pairs = []
    for key in sorted(set(writers) & set(readers)):
        kind, scope, family = key[0], key[1], key[2]
        cls_name = scope if kind == "cls" and "/" not in scope else ""
        display = (f"{scope}::{family}/..." if cls_name
                   else f"{scope}:{family}*{key[3] if kind == 'sfx' else ''}")
        pairs.append((display, cls_name, writers[key], readers[key]))
    return pairs


def check_pda500(models, add, codec_pairs):
    by_path = {fm.path: fm for fm in models}
    class_reg = _class_registry(models)
    for display, cls_name, wfns, rfns in _collect_codec_pairs(models):
        wfm = by_path[wfns[0].path]
        rfm = by_path[rfns[0].path]
        entry = {"key": display, "class": cls_name,
                 "writer": {"file": wfns[0].path,
                            "line": wfns[0].start_line,
                            "function": wfns[0].name},
                 "reader": {"file": rfns[0].path,
                            "line": rfns[0].start_line,
                            "function": rfns[0].name},
                 "fields": [], "nonwire": [], "findings": 0}
        before = entry["findings"]

        def pair_add(fm, line, message, fn_name=""):
            entry["findings"] += 1
            add(fm, line, "PDA500", fn_name, message)

        def nonwire_ok(fm, line, field):
            reason = _annot_reason(fm, line, fm.nonwire)
            if reason is None:
                return False
            if not reason:
                pair_add(fm, line,
                         "pdc: nonwire() annotation must carry a reason")
            else:
                entry["nonwire"].append({"field": field, "line": line,
                                         "reason": reason})
            return True

        member_names = set()
        cls_hits = class_reg.get(cls_name, [])
        wbody = "\n".join(f.body for f in wfns)
        rbody = "\n".join(f.body for f in rfns)
        if cls_name and len(cls_hits) == 1:
            cfm, cls = cls_hits[0]
            member_names = {mem.name for mem in cls.members}
            for mem in cls.members:
                if mem.exempt:
                    continue
                w, r = _word_in(mem.name, wbody), _word_in(mem.name, rbody)
                if w and r:
                    entry["fields"].append(mem.name)
                    continue
                if nonwire_ok(cfm, mem.line, f"{cls_name}::{mem.name}"):
                    continue
                if w and not r:
                    pair_add(cfm, mem.line,
                             f"{cls_name}::{mem.name} is written by "
                             f"{wfns[0].name}() but never read by "
                             f"{rfns[0].name}() (annotate pdc: "
                             "nonwire(reason) if it is off the wire)")
                elif r and not w:
                    pair_add(cfm, mem.line,
                             f"{cls_name}::{mem.name} is read by "
                             f"{rfns[0].name}() but never written by "
                             f"{wfns[0].name}()")
                else:
                    pair_add(cfm, mem.line,
                             f"{cls_name}::{mem.name} appears on neither "
                             f"side of the {wfns[0].name}/{rfns[0].name} "
                             "codec (forgotten field? annotate pdc: "
                             "nonwire(reason) if it is off the wire)")

        # Dotted tier: ordered non-member field accesses, single-def
        # pairs only (overload merging would scramble the order).
        if len(wfns) == 1 and len(rfns) == 1:
            wfn, rfn = wfns[0], rfns[0]
            wseq, wocc = dotted_fields(wfn.body, member_names)
            rseq, rocc = dotted_fields(rfn.body, member_names)
            if wseq and not rseq:
                if not _fn_level_reason(rfm, rfn, rfm.nonwire):
                    pair_add(rfm, rfn.start_line,
                             f"{rfn.name}() reads no individual fields "
                             f"while {wfn.name}() writes "
                             f"[{', '.join(wseq)}] (bulk/stream decoder? "
                             "annotate the function pdc: nonwire(reason))",
                             rfn.name)
                else:
                    entry["nonwire"].append(
                        {"field": f"{rfn.name}()",
                         "line": rfn.start_line,
                         "reason": _fn_level_reason(rfm, rfn,
                                                    rfm.nonwire)})
            elif rseq and not wseq:
                if not _fn_level_reason(wfm, wfn, wfm.nonwire):
                    pair_add(wfm, wfn.start_line,
                             f"{wfn.name}() writes no individual fields "
                             f"while {rfn.name}() reads "
                             f"[{', '.join(rseq)}] (bulk/stream encoder? "
                             "annotate the function pdc: nonwire(reason))",
                             wfn.name)
            elif wseq and rseq:
                dropped = set()
                for f in wseq:
                    if f in rocc:
                        continue
                    line = wfn.body.count("\n", 0, wocc[f]) \
                        + wfn.start_line
                    dropped.add(f)
                    if not nonwire_ok(wfm, line, f):
                        pair_add(wfm, line, f"field .{f} is written by "
                                 f"{wfn.name}() but never read by "
                                 f"{rfn.name}()", wfn.name)
                for f in rseq:
                    if f in wocc:
                        continue
                    line = rfn.body.count("\n", 0, rocc[f]) \
                        + rfn.start_line
                    dropped.add(f)
                    if not nonwire_ok(rfm, line, f):
                        pair_add(rfm, line, f"field .{f} is read by "
                                 f"{rfn.name}() but never written by "
                                 f"{wfn.name}()", rfn.name)
                wc = [f for f in wseq if f in rocc and f not in dropped]
                rc = [f for f in rseq if f in wocc and f not in dropped]
                entry["fields"].extend(wc)
                if wc != rc:
                    pair_add(rfm, rfn.start_line,
                             f"{rfn.name}() reads fields in a different "
                             f"order than {wfn.name}() writes them "
                             f"(written: {', '.join(wc)}; read: "
                             f"{', '.join(rc)})", rfn.name)
        entry["ok"] = entry["findings"] == before == 0
        codec_pairs.append(entry)


def _wire_reader_names(models):
    names = set(WIRE_READ_EXACT)
    for fm in models:
        for fn in fm.functions:
            if any(fn.name.startswith(p) and len(fn.name) > len(p)
                   for p in WIRE_READ_PREFIXES):
                names.add(fn.name)
    return names


def build_throwers(models):
    """Function names whose every definition throws (or transitively
    calls a thrower): loop bodies consuming these are self-validating."""
    defs = {}
    for fm in models:
        for fn in fm.functions:
            defs.setdefault(fn.name, []).append(fn)
    throws = {name for name, fns in defs.items()
              if all(re.search(r"\bthrow\b", fn.body) for fn in fns)}
    changed = True
    while changed:
        changed = False
        for name, fns in defs.items():
            if name in throws:
                continue
            if all(re.search(r"\bthrow\b", fn.body) or fn.calls & throws
                   for fn in fns):
                throws.add(name)
                changed = True
    return throws


def _taint_map(fn: Function, seed_call_re):
    """var -> earliest taint offset, from wire-read assignments, fread
    out-params, rejected-call out-params, and propagation."""
    body = fn.body
    taint_at = {}
    for m in re.finditer(r"\bfread\s*\(\s*&?\s*([A-Za-z_]\w*)", body):
        taint_at.setdefault(m.group(1), m.start())
    # `if (!get_u64(raw, at, count))` -- the rejected-call out-param
    # idiom: the last bare-identifier argument receives the value.
    for m in re.finditer(r"!\s*" + seed_call_re.pattern, body):
        close = match_paren(body, body.index("(", m.start()))
        args = _split_args(body[body.index("(", m.start()) + 1:close - 1])
        if args and re.fullmatch(r"&?\s*[A-Za-z_]\w*", args[-1]):
            taint_at.setdefault(args[-1].lstrip("& "), m.start())
    stmts = [(m.start(1), m.group(1), m.group(2)) for m in
             re.finditer(r"\b([A-Za-z_]\w*)\s*(?:=|\+=)\s*([^;=][^;]*);",
                         body)]
    changed = True
    while changed:
        changed = False
        for off, lhs, rhs in stmts:
            if lhs in taint_at and taint_at[lhs] <= off:
                continue
            if MINCLAMP_RE.search(rhs):
                continue  # clamped at the source: bounded by construction
            if seed_call_re.search(rhs) or any(
                    re.search(r"\b" + re.escape(v) + r"\b", rhs)
                    for v in taint_at):
                if lhs not in taint_at or off < taint_at[lhs]:
                    taint_at[lhs] = off
                    changed = True
    return taint_at


def _validations(body: str):
    """[(idents, guard_end, region_start, region_end, rejects)] for every
    if/while/for condition containing a relational comparison."""
    out = []
    for m in re.finditer(r"\b(if|while|for)\s*\(", body):
        open_paren = m.end() - 1
        close = match_paren(body, open_paren)
        cond = body[open_paren:close]
        if m.group(1) == "for":
            parts = cond.split(";")
            cond = parts[1] if len(parts) >= 2 else cond
        if not RELOP_RE.search(cond):
            continue
        idents = set(re.findall(r"\b[A-Za-z_]\w*\b", cond))
        j = close
        while j < len(body) and body[j] in " \t\n":
            j += 1
        if j < len(body) and body[j] == "{":
            region_start, region_end = j, match_brace(body, j)
        else:
            region_start = j
            region_end = body.find(";", j)
            region_end = len(body) if region_end < 0 else region_end + 1
        rejects = bool(REJECT_RE.search(body[region_start:region_end]))
        out.append((idents, close, region_start, region_end, rejects))
    return out


def check_pda510(fm: FileModel, add, untrusted_flows, reader_names,
                 throwers):
    seed_call_re = re.compile(
        r"\b(?:" + "|".join(sorted(re.escape(n) for n in reader_names))
        + r")\s*(?:<[^;(]*>)?\s*\(")
    for fn in fm.functions:
        body = fn.body
        if not seed_call_re.search(body):
            continue
        taint_at = _taint_map(fn, seed_call_re)
        if not taint_at:
            continue
        vals = _validations(body)
        emitted = set()  # (var, line): one finding per value per line

        def flagged(var, off):
            if var not in taint_at or off < taint_at[var]:
                return False
            for idents, guard_end, rs, re_, rejects in vals:
                if var not in idents:
                    continue
                if rejects and guard_end <= off:
                    return False
                if rs <= off < re_:
                    return False
            return True

        def emit(off, var, sink):
            line = body.count("\n", 0, off) + fn.start_line
            if (var, line) in emitted:
                return
            emitted.add((var, line))
            untrusted_flows.append({"file": fm.path, "line": line,
                                    "function": fn.name, "variable": var,
                                    "sink": sink})
            add(fm, line, "PDA510", fn.name,
                f"wire-derived value '{var}' flows into {sink} without "
                "a validated bound (compare it against a limit and "
                "throw/reject first, or clamp with std::min)")

        for m in SINK_ALLOC_RE.finditer(body):
            close = match_paren(body, m.end() - 1)
            args = body[m.end():close]
            if MINCLAMP_RE.search(args):
                continue
            for var in taint_at:
                if _word_in(var, args) and flagged(var, m.start()):
                    emit(m.start(), var,
                         f"an allocation size ({m.group(1)})")
                    break
        for m in NEW_ARRAY_RE.finditer(body):
            close = body.find("]", m.end())
            args = body[m.end():close if close > 0 else len(body)]
            for var in taint_at:
                if _word_in(var, args) and flagged(var, m.start()):
                    emit(m.start(), var, "a new[] extent")
                    break
        # Sized container construction: vector<T> nodes(count).
        for m in re.finditer(
                r"\b(?:std::)?(?:vector|deque|string)\s*<[^;(]*>\s+"
                r"[A-Za-z_]\w*\s*\(([^;()]*)\)", body):
            args = m.group(1)
            if MINCLAMP_RE.search(args):
                continue
            for var in taint_at:
                if _word_in(var, args) and flagged(var, m.start()):
                    emit(m.start(), var, "a container constructor extent")
                    break
        for m in NARROW_CAST_RE.finditer(body):
            close = match_paren(body, m.end() - 1)
            args = body[m.end() - 1:close]
            if MINCLAMP_RE.search(args):
                continue
            for var in taint_at:
                if _word_in(var, args) and flagged(var, m.start()):
                    emit(m.start(), var, "a narrowing cast")
                    break
        for m in MEMCPY_CALL_RE.finditer(body):
            close = match_paren(body, body.index("(", m.start()))
            args = _split_args(
                body[body.index("(", m.start()) + 1:close - 1])
            if len(args) < 3 or MINCLAMP_RE.search(args[2]):
                continue
            for var in taint_at:
                if _word_in(var, args[2]) and flagged(var, m.start()):
                    emit(m.start(), var, "a memcpy length")
                    break
        for var, first in taint_at.items():
            for m in re.finditer(
                    r"\[([^\[\]]*\b" + re.escape(var) + r"\b[^\[\]]*)\]",
                    body):
                if MINCLAMP_RE.search(m.group(1)):
                    continue
                if flagged(var, m.start()):
                    emit(m.start(), var, "an array index")
                    break
        # Tainted loop bounds: fine when the body throws (directly or
        # through a bounds-checked reader), lethal when it trusts the
        # count blindly.
        for m in re.finditer(r"\b(while|for)\s*\(", body):
            open_paren = m.end() - 1
            close = match_paren(body, open_paren)
            cond = body[open_paren:close]
            if m.group(1) == "for":
                parts = cond.split(";")
                cond = parts[1] if len(parts) >= 2 else cond
            j = close
            while j < len(body) and body[j] in " \t\n":
                j += 1
            if j < len(body) and body[j] == "{":
                loop_body = body[j:match_brace(body, j)]
            else:
                end = body.find(";", j)
                loop_body = body[j:end if end > 0 else len(body)]
            if REJECT_RE.search(loop_body) or any(
                    c in throwers for c in
                    re.findall(r"\b([A-Za-z_]\w*)\s*\(", loop_body)):
                continue
            for var in taint_at:
                if _word_in(var, cond) and flagged(var, m.start()):
                    emit(m.start(), var, "a loop bound")
                    break


def _struct_layout(cls: ClassModel, class_reg, seen=None):
    """(size, align, padded) for an all-fundamental (recursively) class,
    or None when any member type is unresolvable."""
    seen = seen or set()
    if cls.name in seen or not cls.members:
        return None
    seen = seen | {cls.name}
    off, align, padded = 0, 1, False
    for mem in cls.members:
        t = re.sub(r"^(?:const\s+)?(?:std::)?", "", mem.type.strip())
        if "*" in t or "&" in t:
            sz, al = 8, 8
        elif t in FUND_SIZES:
            sz = al = FUND_SIZES[t]
        else:
            hits = class_reg.get(t.split("<")[0], [])
            if len(hits) != 1:
                return None
            sub = _struct_layout(hits[0][1], class_reg, seen)
            if sub is None:
                return None
            sz, al, sub_padded = sub
            padded = padded or sub_padded
        if off % al:
            padded = True
            off += al - off % al
        off += sz
        align = max(align, al)
    if off % align:
        padded = True
        off += align - off % align
    return off, align, padded


def check_pda520(fm: FileModel, add, class_reg):
    writer_helper_re = re.compile(
        r"\b((?:put_|append_|encode_)\w+)\s*(?:<[^;(]*>)?\s*\(")
    for fn in fm.functions:
        if not WRITER_NAME_RE.match(fn.name):
            continue
        body = fn.body
        for m in UINTPTR_CAST_RE.finditer(body):
            line = body.count("\n", 0, m.start()) + fn.start_line
            add(fm, line, "PDA520", fn.name,
                "pointer value cast to uintptr_t in a serialize path "
                "(addresses differ between runs; write a stable id "
                "instead)")
        for m in writer_helper_re.finditer(body):
            close = match_paren(body, body.index("(", m.start()))
            args = _split_args(
                body[body.index("(", m.start()) + 1:close - 1])
            for a in args[1:]:
                if re.fullmatch(r"&\s*[A-Za-z_][\w.\[\]]*", a) \
                        or a == "this":
                    line = body.count("\n", 0, m.start()) + fn.start_line
                    add(fm, line, "PDA520", fn.name,
                        f"address-of argument {a} passed as a wire value "
                        f"to {m.group(1)}() (pointer bytes are not "
                        "reproducible)")
        # Unordered-container iteration in a writer: member or local.
        unordered = {m.group(1) for m in re.finditer(
            r"unordered_(?:map|set|multimap|multiset)\s*<[^;{]*>\s*&?\s*"
            r"([A-Za-z_]\w*)", body)}
        for cfm, cls in class_reg.get(fn.cls, []):
            unordered |= {mem.name for mem in cls.members
                          if "unordered_" in mem.type}
        if not re.search(r"\bsort\w*\s*\(|\bsorted_", body):
            for m in re.finditer(
                    r"\bfor\s*\([^;()]*?:\s*([A-Za-z_]\w*)\s*\)", body):
                if m.group(1) in unordered:
                    line = body.count("\n", 0, m.start()) + fn.start_line
                    add(fm, line, "PDA520", fn.name,
                        f"iteration over unordered container "
                        f"'{m.group(1)}' in a serialize path (the wire "
                        "order is hash-seed dependent; iterate sorted "
                        "keys instead)")
        # Whole-struct memcpy of a padded type without a memset scrub.
        for m in MEMCPY_CALL_RE.finditer(body):
            close = match_paren(body, body.index("(", m.start()))
            args = _split_args(
                body[body.index("(", m.start()) + 1:close - 1])
            if len(args) < 3 or "sizeof" not in args[2]:
                continue
            src = re.fullmatch(r"&\s*([A-Za-z_]\w*)", args[1])
            if not src:
                continue
            obj = src.group(1)
            tm = re.search(r"\b([A-Za-z_][\w:]*)\s+" + re.escape(obj)
                           + r"\s*[;={]", body)
            if not tm:
                continue
            tname = tm.group(1).split("::")[-1]
            hits = class_reg.get(tname, [])
            if len(hits) != 1:
                continue
            layout = _struct_layout(hits[0][1], class_reg)
            if layout is None or not layout[2]:
                continue
            if re.search(r"\bmemset\s*\(\s*&\s*" + re.escape(obj),
                         body[:m.start()]):
                continue
            line = body.count("\n", 0, m.start()) + fn.start_line
            add(fm, line, "PDA520", fn.name,
                f"memcpy of struct {tname} (has padding bytes) into a "
                "serialize path without a memset scrub (uninitialized "
                "padding leaks into the wire image)")


# ----------------------------------------------------------------- driver ---

def analyze(paths):
    models = [load_file(p) for p in iter_targets(paths)]
    findings = []
    suppressions = []
    incore_zones = []
    io_wrappers = []
    unshared_fields = []
    codec_pairs = []
    untrusted_flows = []

    def add(fm: FileModel, line: int, rule_id: str, function: str,
            message: str):
        if rule_id in fm.allowed.get(line, ()):
            m = ALLOW_RE.search(fm.raw_lines[line - 1]) \
                if line - 1 < len(fm.raw_lines) else None
            reason = (m.group(2) or "").lstrip("- ").strip() if m else ""
            suppressions.append({"id": rule_id, "file": fm.path,
                                 "line": line, "reason": reason})
            return
        check = next(c for c in CHECKS if c.rule_id == rule_id)
        findings.append(Finding(fm.path, line, rule_id, check.slug,
                                message, function))

    for fm in models:
        for line, rule_id in fm.bare_allows:
            add(fm, line, rule_id, "",
                f"{rule_id} suppression without a '-- reason'")

    reaches = build_call_graph(models)
    class_reg = _class_registry(models)
    for fm in models:
        for fn in fm.functions:
            fn.cls = fn.qual or _innermost_class(fm, fn)

    for fm in models:
        check_pda100(fm, reaches, add)
    for fm in models:
        check_pda200(fm, add, incore_zones)
        check_pda300(fm, add, io_wrappers)
        check_pda400(fm, add, unshared_fields)
    lock_order = mine_lock_order(models, add)
    check_pda500(models, add, codec_pairs)
    reader_names = _wire_reader_names(models)
    throwers = build_throwers(models)
    for fm in models:
        check_pda510(fm, add, untrusted_flows, reader_names, throwers)
        check_pda520(fm, add, class_reg)

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    by_check = {c.rule_id: 0 for c in CHECKS}
    for f in findings:
        by_check[f.rule] += 1
    report = {
        "schema": SCHEMA,
        "tool": {"name": "pdc-analyze", "version": TOOL_VERSION},
        "mode": "ast-lite",
        "files_scanned": len(models),
        "checks": [{"id": c.rule_id, "name": c.slug,
                    "description": c.description} for c in CHECKS],
        "findings": [{"id": f.rule, "file": f.path, "line": f.line,
                      "function": f.function, "message": f.message}
                     for f in findings],
        "suppressions": sorted(suppressions,
                               key=lambda s: (s["file"], s["line"])),
        "incore_zones": sorted(incore_zones,
                               key=lambda z: (z["file"], z["line"])),
        "io_wrappers": sorted(io_wrappers,
                              key=lambda w: (w["file"], w["line"])),
        "unshared_fields": sorted(unshared_fields,
                                  key=lambda u: (u["file"], u["line"])),
        "lock_order": lock_order,
        "codec_pairs": sorted(codec_pairs, key=lambda p: p["key"]),
        "untrusted_flows": sorted(untrusted_flows,
                                  key=lambda u: (u["file"], u["line"])),
        "summary": {"findings": len(findings), "by_check": by_check,
                    "suppressed": len(suppressions),
                    "incore_zones": len(incore_zones),
                    "io_wrappers": len(io_wrappers),
                    "unshared_fields": len(unshared_fields),
                    "lock_edges": len(lock_order["edges"]),
                    "lock_cycles": len(lock_order["cycles"]),
                    "codec_pairs": len(codec_pairs),
                    "nonwire_fields": sum(len(p["nonwire"])
                                          for p in codec_pairs),
                    "untrusted_flows": len(untrusted_flows)},
    }
    return findings, report


def run_cache_key(paths):
    h = hashlib.sha256()
    for script in ("pdc_analyze.py", "pdc_lint.py"):
        with open(os.path.join(REPO_ROOT, "scripts", script), "rb") as f:
            h.update(f.read())
    for p in sorted(iter_targets(paths), key=relpath):
        h.update(relpath(p).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pdc_analyze.py",
        description="whole-program semantic analyzer for the pdc tree")
    parser.add_argument("paths", nargs="*", default=None)
    parser.add_argument("--json", metavar="OUT", dest="json_out")
    parser.add_argument("--sarif", metavar="OUT")
    parser.add_argument("--cache-dir",
                        default=os.path.join(REPO_ROOT, ".analyze-cache"))
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--list-checks", action="store_true")
    args = parser.parse_args(argv)

    if args.list_checks:
        for c in CHECKS:
            print(f"{c.rule_id}  {c.slug:<28} {c.description}")
        return 0

    paths = args.paths or [os.path.join(REPO_ROOT, "src")]

    report = None
    cache_file = None
    if not args.no_cache:
        key = run_cache_key(paths)
        cache_file = os.path.join(args.cache_dir, key + ".json")
        if os.path.exists(cache_file):
            with open(cache_file, encoding="utf-8") as f:
                report = json.load(f)
            findings = [Finding(d["file"], d["line"], d["id"],
                                next(c.slug for c in CHECKS
                                     if c.rule_id == d["id"]),
                                d["message"], d.get("function", ""))
                        for d in report["findings"]]
            print("pdc_analyze: cache hit", file=sys.stderr)

    if report is None:
        findings, report = analyze(paths)
        if cache_file:
            os.makedirs(args.cache_dir, exist_ok=True)
            with open(cache_file, "w", encoding="utf-8") as f:
                json.dump(report, f)

    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2)
            f.write("\n")
    if args.sarif:
        with open(args.sarif, "w", encoding="utf-8") as f:
            json.dump(sarif_report(findings, "pdc-analyze", CHECKS), f,
                      indent=2)
            f.write("\n")

    for f in findings:
        print(f.render())
    s = report["summary"]
    print(f"pdc-analyze [{report['mode']}]: {report['files_scanned']} "
          f"file(s), {s['findings']} finding(s), {s['suppressed']} "
          f"suppressed, {s['incore_zones']} incore zone(s), "
          f"{s['io_wrappers']} io wrapper(s), "
          f"{s.get('unshared_fields', 0)} unshared field(s), lock graph "
          f"{s.get('lock_edges', 0)} edge(s) / "
          f"{s.get('lock_cycles', 0)} cycle(s), "
          f"{s.get('codec_pairs', 0)} codec pair(s) / "
          f"{s.get('nonwire_fields', 0)} nonwire, "
          f"{s.get('untrusted_flows', 0)} untrusted flow(s)",
          file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
