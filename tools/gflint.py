#!/usr/bin/env python3
"""gflint: token/AST-aware GFlink lint over src/**.

v2 engine: every file is read ONCE and lexed into a comment/string/raw-
string aware token stream, over which a lightweight structural parser
builds a balanced-brace scope tree with class blocks, function and lambda
definitions (qualified names, parameter lists, capture lists) and
coroutine recognition. All rules share that one FileModel (no per-rule
re-reads, no regex matches inside comments or string literals).

Rule families, each enforcing an architectural invariant the type system
cannot express (see docs/ARCHITECTURE.md, "Static analysis & lint"):

  R1  device-alloc   Device memory is allocated/released only through the
                     GMemoryManager / CudaWrapper layers (the paper's
                     automatic memory management). Raw allocator calls
                     (`.memory().allocate/free`) and `cuda_malloc/cuda_free`
                     call sites are restricted to an allowlist.
  R2  one-thread     No host concurrency primitive in src/**: no `std::`
                     mutex or atomic of any kind, no `std::thread`,
                     `jthread` or `async`, and no `core::` mutex type.
                     A Simulation and every object wired to it is
                     confined to the thread that constructed the
                     Simulation (docs/ARCHITECTURE.md, "Threading
                     model"), so a lock or an atomic there guards
                     nothing. `std::thread::id` (the owner check) is
                     allowed; `sim::Mutex` is a simulated resource.
  R3  metrics        Every metric name emitted in src/** appears in the
                     EXPERIMENTS.md metric catalog, and vice versa (the
                     catalog is the stable machine interface of run
                     reports; silent drift breaks downstream readers).
  R4  mirrors        Every GStruct mirror struct declared in
                     src/workloads/records.hpp is covered by a
                     GSTRUCT_MIRROR_CHECK(T, ...) in some workloads
                     translation unit (the compile-time/static-init layout
                     proof behind the zero-serialization path).
  R5  tenant-labels  Every metric emission and span record under
                     src/service/ carries a tenant attribution (a
                     {"tenant", ...} label or a tenant-derived span lane).
  R6  tier-labels    Every metric emission and span statement (record or
                     open) under src/spill/ carries a tier attribution (a
                     {"tier", ...} label or a tier-derived span name).
  R7  telemetry      Every metric or time-series name registered under
                     src/obs/telemetry/ (registry emissions plus
                     add_gauge/add_counter series) carries a units suffix
                     (_ns, _bytes, _total or _ratio), and every HealthEvent
                     emission carries a node attribution — unitless series
                     and unattributable health events are useless to
                     dashboards and to the speculative-execution hook.

  C1  coro-capture   A lambda with a non-empty capture list whose body is
                     a coroutine (contains co_await/co_return/co_yield).
                     The closure object dies with the enclosing scope while
                     the coroutine frame lives on; captures are read
                     through a dangling `this`-like pointer at resume.
                     (The PR-8 ASan bug, verbatim.)
  C2  coro-dangle    A coroutine spawned DETACHED (passed to spawn() and
                     not awaited) whose parameters borrow: a reference /
                     string_view / span / char* of a temporary-prone value
                     type, or any reference parameter bound to a temporary
                     at the spawn site. The full-expression's temporaries
                     die when spawn() returns; the frame's reference
                     dangles. (The PR-8 dangling string-ref, verbatim.)
  C3  coro-this      A member-function coroutine launched detached with no
                     keep-alive of `this` in the spawn statement
                     (shared_from_this(), an owner handle, or an explicit
                     allowlist with justification). The frame captures
                     `this`; nothing ties the object's lifetime to it.
  A1  allow-hygiene  A `gflint: allow(...)` suppression with no written
                     justification. Always on; not suppressible.

Suppressions: `// gflint: allow(C3): <why this site is safe>` on the
finding's line or the line above silences that rule there. The
justification text is mandatory (A1 otherwise).

Exit status: 0 when clean, 1 when any finding is reported, 2 on usage or
environment errors (missing root, unreadable files).

`--list-metrics` prints the metric names found in src/** (the input for
regenerating the EXPERIMENTS.md catalog) and exits. `--sarif PATH` writes
findings as SARIF 2.1.0 for inline PR annotation; `--stats` prints a
per-rule findings/runtime summary; `--jobs N` scans files in parallel.
Directories named `build*` are never scanned, so a stray in-tree build
cannot pollute findings.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from pathlib import Path

# ---- Rule configuration ----------------------------------------------------

# R1: files (relative to src/) that may call the raw device allocator.
RAW_ALLOC_ALLOWED = {
    "core/gmemory_manager.cpp",  # the cache/region manager itself
    "gpu/api.hpp",               # cudaMalloc/cudaFree stubs wrap the allocator
    "gpu/device_memory.hpp",     # the allocator
    "gpu/device_memory.cpp",
}
RAW_ALLOC_RE = re.compile(r"\.memory\(\)\.(allocate|free)\s*\(")

# R1: files/directories that may *call* cuda_malloc/cuda_free (definitions in
# gpu/ plus the engine's automatic per-GWork allocation).
CUDA_ALLOC_ALLOWED_DIRS = ("gpu/",)
CUDA_ALLOC_ALLOWED_FILES = {"core/gstream_manager.cpp"}
CUDA_ALLOC_RE = re.compile(r"\bcuda_(malloc|free)\s*\(")

# R2: host concurrency primitives. std::thread::id is allowed (the
# Simulation owner check); sim::Mutex is a simulated resource, not a lock.
HOST_CONCURRENCY_RE = re.compile(
    r"\bstd::(?:\w*mutex|atomic\w*|thread(?!::id\b)|jthread|async)\b"
    r"|\bcore::\w*Mutex\w*"
)

# R3: metric registration/emission sites: one of these methods called with a
# string literal as the first argument (the repo-wide idiom).
METRIC_METHODS = {"counter", "gauge", "histogram", "inc"}
METRIC_NAME_RE = re.compile(r"^[A-Za-z0-9_.]+$")
CATALOG_BEGIN = "<!-- metric-catalog:begin -->"
CATALOG_END = "<!-- metric-catalog:end -->"
CATALOG_NAME_RE = re.compile(r"`([A-Za-z0-9_.]+)`")

# R4: mirror structs and their checks.
MIRROR_STRUCT_RE = re.compile(r"^struct\s+(\w+)\s*\{", re.M)
MIRROR_CHECK_RE = re.compile(r"GSTRUCT_MIRROR_CHECK\(\s*(\w+)\s*,")

# R5/R6: span-record sites (src/service: record; src/spill: record + open).
SPAN_RECORD_RE = re.compile(r"spans\(\)\s*\.\s*record\s*\(")
SPAN_SITE_RE = re.compile(r"spans\(\)\s*\.\s*(?:record|open)\s*\(")

# R7: telemetry-plane naming/attribution discipline (src/obs/telemetry/).
TELEMETRY_DIR = "obs/telemetry/"
TELEMETRY_UNITS_SUFFIXES = ("_ns", "_bytes", "_total", "_ratio")
TELEMETRY_SERIES_METHODS = {"add_gauge", "add_counter"}

# C2: parameter types that borrow from temporary-prone value types. A
# detached frame must own its strings/buffers by value.
def is_dangle_prone_type(type_text: str) -> bool:
    t = type_text
    if "string_view" in t:
        return True
    if re.search(r"\bspan\b", t):
        return True
    if re.search(r"\bchar\b", t) and "*" in t:
        return True
    if re.search(r"\bstd::string\b", t) and "&" in t:
        return True
    return False

# C2: argument shapes that are plain lvalues (identifier chains, member
# access, subscripts, derefs) — anything else is treated as a temporary.
LVALUE_ARG_RE = re.compile(
    r"^[&*]*[A-Za-z_]\w*(::\w+)*((\.|->)\w+|\[\w*\])*$"
)

# C3: tokens in a spawn statement that count as a keep-alive of `this`.
KEEPALIVE_TOKENS = ("shared_from_this", "self", "keep_alive")

# Suppression comments: `gflint: allow(R2): justification` (also accepts
# `allow(R2) justification` and comma-separated rule lists).
ALLOW_RE = re.compile(r"gflint:\s*allow\(([^)]*)\)\s*:?\s*(.*)", re.S)

ALL_RULES = ("R1", "R2", "R3", "R4", "R5", "R6", "R7", "C1", "C2", "C3")

RULE_DESCRIPTIONS = {
    "R1": "device memory allocated outside GMemoryManager/CudaWrapper",
    "R2": "host lock, atomic or thread in one-thread-confined src/",
    "R3": "metric emissions out of sync with the EXPERIMENTS.md catalog",
    "R4": "GStruct mirror struct without a GSTRUCT_MIRROR_CHECK",
    "R5": "src/service telemetry without tenant attribution",
    "R6": "src/spill telemetry without tier attribution",
    "R7": "telemetry series without units suffix or HealthEvent without node",
    "C1": "capturing-lambda coroutine (closure dies before the frame)",
    "C2": "detached coroutine borrowing a temporary-prone parameter",
    "C3": "detached member coroutine without a keep-alive of this",
    "A1": "gflint allow() suppression without a justification",
}

SOURCE_SUFFIXES = (".cpp", ".hpp")

CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "decltype", "noexcept", "co_await", "co_return", "co_yield", "new",
    "delete", "throw", "case", "static_assert", "alignas", "assert",
    "defined", "typeid", "else", "do", "goto", "requires",
}

CO_KEYWORDS = {"co_await", "co_return", "co_yield"}

PUNCTS = sorted(
    [
        "<<=", ">>=", "<=>", "->*", "...", "::", "->", "++", "--", "<<", ">>",
        "<=", ">=", "==", "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=",
        "&=", "|=", "^=", "##",
    ],
    key=len,
    reverse=True,
)

STRING_PREFIX_RE = re.compile(r'(u8|u|U|L)?(R)?"')


class Finding:
    def __init__(self, rule: str, rel: str, line: int, message: str):
        self.rule = rule
        self.rel = rel  # path relative to --root (posix)
        self.line = line
        self.message = message

    def __str__(self) -> str:
        loc = f"{self.rel}:{self.line}" if self.line else self.rel
        return f"{loc}: [{self.rule}] {self.message}"


# ---- Lexer -----------------------------------------------------------------


def lex(text: str):
    """Tokenize C++ into (kind, text, line) tuples.

    Kinds: 'id', 'num', 'str', 'chr', 'punct', 'comment', 'directive'.
    Comments and preprocessor directives are kept as tokens (suppression
    comments live there) but are excluded from the significant stream the
    structural parser and rules consume.
    """
    toks = []
    i, n = 0, len(text)
    line = 1
    bol = True  # only whitespace seen since the last newline
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            bol = True
            i += 1
            continue
        if c in " \t\r\v\f":
            i += 1
            continue
        if c == "/" and text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            toks.append(("comment", text[i:j], line))
            i = j
            continue
        if c == "/" and text.startswith("/*", i):
            j = text.find("*/", i + 2)
            end = n if j < 0 else j + 2
            toks.append(("comment", text[i:end], line))
            line += text.count("\n", i, end)
            i = end
            continue
        if c == "#" and bol:
            # Preprocessor directive: consume the logical line (with any
            # backslash continuations) as one token.
            j = i
            while j < n:
                k = text.find("\n", j)
                if k < 0:
                    j = n
                    break
                if text[k - 1] == "\\" if k > 0 else False:
                    j = k + 1
                    continue
                j = k
                break
            toks.append(("directive", text[i:j], line))
            line += text.count("\n", i, j)
            i = j
            continue
        bol = False
        m = STRING_PREFIX_RE.match(text, i)
        if m:
            if m.group(2):  # raw string R"delim( ... )delim"
                open_paren = text.find("(", m.end())
                delim = text[m.end():open_paren] if open_paren >= 0 else ""
                closer = ")" + delim + '"'
                j = text.find(closer, open_paren + 1) if open_paren >= 0 else -1
                end = n if j < 0 else j + len(closer)
            else:
                j = m.end()
                while j < n and text[j] != '"':
                    j += 2 if text[j] == "\\" else 1
                end = min(j + 1, n)
            toks.append(("str", text[i:end], line))
            line += text.count("\n", i, end)
            i = end
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "_.'"):
                j += 1
            toks.append(("num", text[i:j], line))
            i = j
            continue
        if c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            end = min(j + 1, n)
            toks.append(("chr", text[i:end], line))
            i = end
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("id", text[i:j], line))
            i = j
            continue
        for p in PUNCTS:
            if text.startswith(p, i):
                toks.append(("punct", p, line))
                i += len(p)
                break
        else:
            toks.append(("punct", c, line))
            i += 1
    return toks


def string_literal_value(tok_text: str) -> str:
    """Best-effort contents of a string-literal token."""
    m = re.match(r'(?:u8|u|U|L)?R"([^(]*)\((.*)\)\1"$', tok_text, re.S)
    if m:
        return m.group(2)
    m = re.match(r'(?:u8|u|U|L)?"(.*)"$', tok_text, re.S)
    return m.group(1) if m else tok_text


# ---- FileModel: scope tree, classes, lambdas, functions --------------------


class FileModel:
    """One parsed file: token stream, scrubbed code view, scope tree and
    recognized definitions. Built exactly once per file and shared by every
    rule (the tokenizer cache)."""

    def __init__(self, rel: str, text: str):
        self.rel = rel
        self.text = text
        self.toks = lex(text)
        # Significant tokens: everything the structural parser consumes.
        self.sig = [t for t in self.toks if t[0] not in ("comment", "directive")]
        self._build_code_view()
        self._match_braces()
        self.classes = []   # {name, open, close}
        self.lambdas = []   # {line, captures, params, body, ret}
        self.functions = []  # {name, qual, cls, line, params, body|None, ret, post}
        self._parse_structure()
        self._mark_coroutines()
        self.suppressions = []  # {line_set, rules, reason, bare}
        self._collect_suppressions()

    # -- code view: same length as text, comments/strings/chars blanked --
    def _build_code_view(self):
        out = []
        pos = 0
        # Re-lex positions: rebuild by scanning text with the same lexer
        # boundaries. Cheaper: blank via a dedicated pass mirroring lex().
        # To avoid duplicating the lexer, blank using token texts in order.
        idx = 0
        text = self.text
        for kind, ttext, _line in self.toks:
            j = text.find(ttext, idx)
            if j < 0:
                continue
            if kind in ("comment", "str", "chr"):
                out.append(text[pos:j])
                out.append("".join(ch if ch == "\n" else " " for ch in ttext))
                pos = j + len(ttext)
            idx = j + len(ttext)
        out.append(text[pos:])
        self.code = "".join(out)

    def _match_braces(self):
        sig = self.sig
        self.match = {}
        stacks = {"(": [], "{": [], "[": []}
        closers = {")": "(", "}": "{", "]": "["}
        for i, (kind, text, _line) in enumerate(sig):
            if kind != "punct":
                continue
            if text in stacks:
                stacks[text].append(i)
            elif text in closers:
                st = stacks[closers[text]]
                if st:
                    j = st.pop()
                    self.match[j] = i
                    self.match[i] = j

    def line_at(self, si: int) -> int:
        return self.sig[si][2] if 0 <= si < len(self.sig) else 0

    def line_of_offset(self, pos: int) -> int:
        return self.text.count("\n", 0, pos) + 1

    def _parse_structure(self):
        sig = self.sig
        n = len(sig)
        i = 0
        while i < n:
            kind, text, _line = sig[i]
            if kind == "id" and text in ("class", "struct", "union"):
                self._try_class(i)
            elif kind == "punct" and text == "[":
                lam = self._try_lambda(i)
                if lam:
                    self.lambdas.append(lam)
            elif kind == "punct" and text == "(":
                fn = self._try_function(i)
                if fn:
                    self.functions.append(fn)
            i += 1

    def _try_class(self, i):
        sig = self.sig
        n = len(sig)
        # Walk forward to '{' (definition) or ';'/'('/'=' (not one).
        j = i + 1
        name = None
        while j < n and j < i + 40:
            kind, text, _ = sig[j]
            if kind == "punct" and text == "[" and j + 1 < n and sig[j + 1][1] == "[":
                j = self.match.get(self.match.get(j + 1, j), j) + 1  # skip [[...]]
                continue
            if kind == "id" and text not in ("final", "alignas"):
                name = text
                j += 1
                continue
            if kind == "punct" and text == "(":  # alignas(...)
                j = self.match.get(j, j) + 1
                continue
            if kind == "punct" and text == ":":
                # base clause: scan to '{' at depth 0
                k = j + 1
                depth = 0
                while k < n:
                    kk, tt, _ = sig[k]
                    if kk == "punct":
                        if tt in ("(", "<", "["):
                            depth += 1
                        elif tt in (")", ">", "]"):
                            depth -= 1
                        elif tt == "{" and depth <= 0:
                            break
                        elif tt == ";" and depth <= 0:
                            return
                    k += 1
                j = k
                continue
            if kind == "punct" and text == "{":
                close = self.match.get(j)
                if close is not None and name:
                    self.classes.append({"name": name, "open": j, "close": close})
                return
            if kind == "id" and text == "final":
                j += 1
                continue
            return  # ';', '=', '<' (template), anything else: not a class def
        return

    def enclosing_class(self, si: int):
        best = None
        for c in self.classes:
            if c["open"] < si < c["close"]:
                if best is None or c["open"] > best["open"]:
                    best = c
        return best["name"] if best else None

    def _try_lambda(self, i):
        sig = self.sig
        n = len(sig)
        if i + 1 < n and sig[i + 1][1] == "[":
            return None  # [[attribute]]
        prev = sig[i - 1] if i > 0 else None
        if prev is not None:
            pk, pt, _ = prev
            if pk in ("num", "str", "chr"):
                return None
            if pk == "id" and pt not in CONTROL_KEYWORDS and pt != "operator":
                return None  # ident[ ... ] subscript
            if pk == "punct" and pt in (")", "]"):
                return None  # expr[...] subscript
        close = self.match.get(i)
        if close is None:
            return None
        captures = " ".join(t[1] for t in sig[i + 1:close])
        j = close + 1
        params = []
        if j < n and sig[j][1] == "(":
            pclose = self.match.get(j)
            if pclose is None:
                return None
            params = self._parse_params(j + 1, pclose)
            j = pclose + 1
        # specifiers / trailing return until '{'
        ret = []
        while j < n:
            kind, text, _ = sig[j]
            if kind == "punct" and text == "{":
                body_close = self.match.get(j)
                if body_close is None:
                    return None
                return {
                    "line": sig[i][2],
                    "captures": captures.strip(),
                    "params": params,
                    "body": (j, body_close),
                    "ret": " ".join(ret),
                    "intro": i,
                }
            if kind == "id" and text in ("mutable", "constexpr", "noexcept", "const", "static"):
                j += 1
                continue
            if kind == "punct" and text == "->":
                j += 1
                while j < n and sig[j][1] != "{" and sig[j][1] != ";":
                    ret.append(sig[j][1])
                    j += 1
                continue
            if kind == "punct" and text == "(":  # noexcept(...)
                j = self.match.get(j, j) + 1
                continue
            return None
        return None

    def _try_function(self, i):
        sig = self.sig
        n = len(sig)
        # name chain before '('
        j = i - 1
        if j < 0:
            return None
        kind, text, _ = sig[j]
        if kind != "id" or text in CONTROL_KEYWORDS:
            return None
        name = text
        parts = [text]
        j -= 1
        while j >= 1 and sig[j][1] == "::" and sig[j - 1][0] == "id":
            parts.insert(0, sig[j - 1][1])
            j -= 2
        if j >= 0 and sig[j][0] == "punct" and sig[j][1] in (".", "->"):
            return None  # member call, not a definition
        pclose = self.match.get(i)
        if pclose is None:
            return None
        # return-type text: a handful of tokens back to the statement edge
        ret = []
        k = j
        while k >= 0 and k > j - 30:
            kk, tt, _ = sig[k]
            if kk == "punct" and tt in (";", "{", "}", ","):
                break
            ret.insert(0, tt)
            k -= 1
        # what follows ')': specifiers / annotations / init list / body
        post = []
        m = pclose + 1
        body = None
        while m < n:
            kind, text, _ = sig[m]
            if kind == "punct" and text == "{":
                body = (m, self.match.get(m))
                break
            if kind == "punct" and text == ";":
                break
            if kind == "punct" and text == ",":
                return None  # part of an expression / declarator list
            if kind == "punct" and text in (")", "]"):
                return None
            if kind == "punct" and text == "=":
                # '= default', '= delete', '= 0', or a variable initializer
                # that happens to look like 'Co<T> x = f(...)': none of these
                # are definitions (or declarations) worth registering.
                return None
            if kind == "punct" and text == ":":
                # ctor init list: skip id + balanced group, repeat
                m += 1
                depth = 0
                while m < n:
                    kk, tt, _ = sig[m]
                    if kk == "punct":
                        if tt in ("(", "{") and depth == 0 and self._init_list_done(m):
                            pass
                        if tt in ("(", "[", "<"):
                            depth += 1
                        elif tt in (")", "]", ">"):
                            depth -= 1
                        elif tt == "{":
                            if depth == 0 and self._looks_like_body(m):
                                break
                            depth += 1
                        elif tt == "}":
                            depth -= 1
                        elif tt == ";" and depth <= 0:
                            break
                    m += 1
                continue
            if kind == "punct" and text == "->":
                post.append(text)
                m += 1
                continue
            if kind == "punct" and text == "(":
                grp_close = self.match.get(m)
                post.append(" ".join(t[1] for t in sig[m:(grp_close or m) + 1]))
                m = (grp_close or m) + 1
                continue
            post.append(text)
            m += 1
        if body is not None and body[1] is None:
            body = None
        if body is None and not self._decl_returns_co(ret):
            # Body-less declarations are only interesting when they declare a
            # coroutine (C2/C3 registry).
            return None
        cls = None
        if len(parts) > 1:
            cls = parts[-2]
        else:
            cls = self.enclosing_class(i)
        return {
            "name": name,
            "qual": "::".join(parts),
            "cls": cls,
            "line": sig[i - 1][2] if i > 0 else sig[i][2],
            "params": self._parse_params(i + 1, pclose),
            "body": body,
            "ret": " ".join(ret),
            "post": " ".join(post),
            "paren": i,
        }

    def _looks_like_body(self, m) -> bool:
        """In a ctor-init walk, is this '{' the function body (vs a braced
        member initializer)? Body iff the previous significant token is ')'
        or '}' (end of an initializer) or an identifier is NOT directly
        before it... Heuristic: a braced init is always preceded by an
        identifier; the body is preceded by ')' / '}' / ','-free id."""
        prev = self.sig[m - 1] if m > 0 else None
        if prev is None:
            return True
        return not (prev[0] == "id")

    def _init_list_done(self, m) -> bool:
        return False

    def _decl_returns_co(self, ret_tokens) -> bool:
        return "Co" in ret_tokens

    def _parse_params(self, start, end):
        """[(type_text, name)] for sig[start:end], splitting top-level commas."""
        sig = self.sig
        params = []
        depth = 0
        cur = []
        for k in range(start, end):
            kind, text, _ = sig[k]
            if kind == "punct":
                if text in ("(", "[", "{", "<"):
                    depth += 1
                elif text in (")", "]", "}", ">"):
                    depth -= 1
                elif text == ">>":
                    depth -= 2
                elif text == "," and depth <= 0:
                    params.append(cur)
                    cur = []
                    continue
            cur.append((kind, text))
        if cur:
            params.append(cur)
        out = []
        for p in params:
            # drop default argument
            trimmed = []
            depth = 0
            for kind, text in p:
                if kind == "punct":
                    if text in ("(", "[", "{", "<"):
                        depth += 1
                    elif text in (")", "]", "}", ">"):
                        depth -= 1
                    elif text == "=" and depth <= 0:
                        break
                trimmed.append((kind, text))
            if not trimmed:
                continue
            name = None
            if trimmed[-1][0] == "id" and len(trimmed) > 1:
                name = trimmed[-1][1]
                type_toks = trimmed[:-1]
            else:
                type_toks = trimmed
            type_text = " ".join(t[1] for t in type_toks).replace(" :: ", "::")
            if type_text in ("void", ""):
                continue
            out.append((type_text, name))
        return out

    def _direct_ranges(self, body):
        """Sig-index ranges of `body` minus nested lambda/function bodies."""
        lo, hi = body
        children = []
        for f in self.functions:
            b = f.get("body")
            if b and lo < b[0] and b[1] is not None and b[1] < hi:
                children.append(b)
        for l in self.lambdas:
            b = l["body"]
            if lo < b[0] and b[1] < hi:
                children.append(b)
        children.sort()
        ranges = []
        pos = lo + 1
        for c0, c1 in children:
            if c0 < pos:
                continue
            ranges.append((pos, c0))
            pos = c1 + 1
        ranges.append((pos, hi))
        return ranges

    def direct_has_co(self, body) -> bool:
        for lo, hi in self._direct_ranges(body):
            for k in range(lo, hi):
                if self.sig[k][0] == "id" and self.sig[k][1] in CO_KEYWORDS:
                    return True
        return False

    def _mark_coroutines(self):
        for f in self.functions:
            is_coro = "Co" in f["ret"].split()
            if f["body"] is not None and not is_coro:
                is_coro = self.direct_has_co(f["body"])
            f["is_coro"] = bool(is_coro)
        for l in self.lambdas:
            # body_co: the lambda body itself is a coroutine (its frame
            # references the closure). A lambda that merely *returns* another
            # coroutine's Co<T> from a plain `return` is not one — the closure
            # is done the moment the call returns.
            l["body_co"] = self.direct_has_co(l["body"])
            l["is_coro"] = bool("Co" in l["ret"].split() or l["body_co"])

    def _collect_suppressions(self):
        # Merge runs of `//` comments on consecutive lines into one logical
        # block so a justification may wrap across lines and still sit
        # directly above the statement it covers.
        blocks = []  # (text, first_line, last_line)
        for kind, text, line in self.toks:
            if kind != "comment":
                continue
            end_line = line + text.count("\n")
            if (blocks and text.startswith("//")
                    and blocks[-1][0].startswith("//")
                    and line == blocks[-1][2] + 1):
                prev = blocks[-1]
                blocks[-1] = (prev[0] + "\n" + text, prev[1], end_line)
            else:
                blocks.append((text, line, end_line))
        for text, line, end_line in blocks:
            m = ALLOW_RE.search(text)
            if not m:
                continue
            rules = {r.strip().upper() for r in m.group(1).split(",") if r.strip()}
            reason = " ".join(w for w in m.group(2).split() if w != "//")
            self.suppressions.append({
                "lines": (end_line, end_line + 1),
                "rules": rules,
                "reason": reason,
                "line": line,
            })

    def suppressed(self, rule: str, line: int):
        for s in self.suppressions:
            if not s["reason"]:
                continue
            if rule in s["rules"] and line in s["lines"]:
                return s
        return None


# ---- Shared site extraction ------------------------------------------------


def metric_sites(model, methods=METRIC_METHODS):
    """(name, line, sig_index) for every metric emission with a literal name."""
    out = []
    sig = model.sig
    for i, (kind, text, line) in enumerate(sig):
        if kind != "id" or text not in methods:
            continue
        if i + 2 >= len(sig) or sig[i + 1][1] != "(" or sig[i + 2][0] != "str":
            continue
        name = string_literal_value(sig[i + 2][1])
        if METRIC_NAME_RE.match(name):
            out.append((name, line, i))
    return out


def span_sites(model, methods):
    """(method, line, sig_index) for spans().record/open(...) statements."""
    out = []
    sig = model.sig
    n = len(sig)
    for i, (kind, text, line) in enumerate(sig):
        if kind != "id" or text != "spans" or i + 5 >= n:
            continue
        if (sig[i + 1][1] == "(" and sig[i + 2][1] == ")" and sig[i + 3][1] == "."
                and sig[i + 4][0] == "id" and sig[i + 4][1] in methods
                and sig[i + 5][1] == "("):
            out.append((sig[i + 4][1], line, i))
    return out


def stmt_text(model, si):
    """Token text of the statement starting at sig index si (to the ';')."""
    sig = model.sig
    j = si
    while j < len(sig) and sig[j][1] != ";":
        j += 1
    return " ".join(t[1] for t in sig[si:j])


def split_call_args(model, start, end):
    """Argument texts for sig[start:end], split on top-level commas."""
    sig = model.sig
    args, cur, depth = [], [], 0
    for k in range(start, end):
        kind, text, _ = sig[k]
        if kind == "punct":
            if text in ("(", "[", "{"):
                depth += 1
            elif text in (")", "]", "}"):
                depth -= 1
            elif text == "," and depth == 0:
                args.append(" ".join(cur))
                cur = []
                continue
        cur.append(text)
    if cur:
        args.append(" ".join(cur))
    return [a for a in args if a]


def extract_spawn_sites(model):
    """Detach sites: spawn(<expr>) calls with the spawned expression decoded
    as an immediately-invoked lambda or a named call."""
    sites = []
    sig = model.sig
    n = len(sig)
    fn_parens = {f["paren"] for f in model.functions}
    for i, (kind, text, line) in enumerate(sig):
        if kind != "id" or text != "spawn":
            continue
        if i + 1 >= n or sig[i + 1][1] != "(":
            continue
        if i + 1 in fn_parens:
            continue  # the definition/declaration of spawn itself
        close = model.match.get(i + 1)
        if close is None or close <= i + 2:
            continue
        encl = None
        for f in model.functions:
            b = f.get("body")
            if b and b[1] is not None and b[0] < i < b[1]:
                if encl is None or b[0] > encl["body"][0]:
                    encl = f
        stmt_end = close
        while stmt_end < n and sig[stmt_end][1] != ";":
            stmt_end += 1
        site = {
            "line": line,
            "encl_cls": encl["cls"] if encl else model.enclosing_class(i),
            "encl_fn": encl["qual"] if encl else None,
            "stmt": " ".join(t[1] for t in sig[i:stmt_end]),
            "lambda": None,
            "callee": None,
            "via": "plain",
            "args": [],
        }
        lo = i + 2
        lam = next((l for l in model.lambdas if l["intro"] == lo), None)
        if lam is not None:
            bc = lam["body"][1]
            if bc + 1 < close and sig[bc + 1][1] == "(":
                cc = model.match.get(bc + 1)
                if cc is not None:
                    site["args"] = split_call_args(model, bc + 2, cc)
            site["lambda"] = {
                "line": lam["line"],
                "captures": lam["captures"],
                "params": lam["params"],
                "is_coro": lam["is_coro"],
            }
            sites.append(site)
            continue
        if sig[close - 1][1] != ")":
            continue
        p = model.match.get(close - 1)
        if p is None or p <= lo or sig[p - 1][0] != "id":
            continue
        callee_i = p - 1
        site["callee"] = sig[callee_i][1]
        if callee_i - 1 >= lo:
            prev = sig[callee_i - 1][1]
            if prev in (".", "->"):
                obj = sig[callee_i - 2][1] if callee_i - 2 >= lo else ""
                site["via"] = "this" if obj == "this" else "object"
        site["args"] = split_call_args(model, p + 1, close - 1)
        sites.append(site)
    return sites


# ---- Per-file scan (worker entry; parallel-safe, picklable result) ---------


def scan_file(task):
    root_str, rel = task
    path = Path(root_str) / "src" / rel
    relp = f"src/{rel}"
    try:
        text = path.read_text()
    except OSError as exc:
        return {"rel": rel, "error": f"{path}: {exc}"}
    t0 = time.perf_counter()
    model = FileModel(rel, text)
    parse_ms = (time.perf_counter() - t0) * 1000.0

    findings = []
    rule_ms = {}

    def timed(rule, fn):
        s = time.perf_counter()
        fn()
        rule_ms[rule] = rule_ms.get(rule, 0.0) + (time.perf_counter() - s) * 1000.0

    def r1():
        if rel not in RAW_ALLOC_ALLOWED:
            for m in RAW_ALLOC_RE.finditer(model.code):
                findings.append((
                    "R1", relp, model.line_of_offset(m.start()),
                    f"raw device allocator call '.memory().{m.group(1)}()' outside "
                    "GMemoryManager/CudaWrapper — route allocation through "
                    "GMemoryManager (insert/reserve_staging) or the CudaWrapper API"))
        if rel not in CUDA_ALLOC_ALLOWED_FILES and not rel.startswith(CUDA_ALLOC_ALLOWED_DIRS):
            for m in CUDA_ALLOC_RE.finditer(model.code):
                findings.append((
                    "R1", relp, model.line_of_offset(m.start()),
                    f"cuda_{m.group(1)}() call outside the GStream engine — GFlink's "
                    "automatic memory management owns device allocation lifetimes"))

    def r2():
        for m in HOST_CONCURRENCY_RE.finditer(model.code):
            findings.append((
                "R2", relp, model.line_of_offset(m.start()),
                f"{m.group(0)} in src/ — a Simulation and every object wired to "
                "it belong to one thread (docs/ARCHITECTURE.md, 'Threading "
                "model'), so host locks, atomics and threads guard nothing; "
                "use plain state"))

    def attribution_rule(rule, subdir, word, span_methods, hint):
        if not rel.startswith(subdir):
            return
        sites = [(si, line, f"metric '{name}'")
                 for (name, line, si) in metric_sites(model)]
        sites += [(si, line, "span statement" if rule == "R6" else "span record")
                  for (_meth, line, si) in span_sites(model, span_methods)]
        for si, line, what in sorted(sites):
            if word not in stmt_text(model, si):
                findings.append((rule, relp, line, f"{what} {hint}"))

    def r5():
        attribution_rule(
            "R5", "service/", "tenant", ("record",),
            "under src/service carries no tenant attribution — label it "
            "{\"tenant\", ...} (metrics) or put it on a tenant lane (spans) "
            "so per-tenant SLOs stay observable")

    def r6():
        attribution_rule(
            "R6", "spill/", "tier", ("record", "open"),
            "under src/spill carries no tier attribution — label it "
            "{\"tier\", ...} (metrics) or put the tier in the span name so "
            "the ladder stays observable per rung")

    def r7():
        if not rel.startswith(TELEMETRY_DIR):
            return
        series = metric_sites(model) + metric_sites(model, TELEMETRY_SERIES_METHODS)
        for name, line, _si in sorted(series, key=lambda s: s[1]):
            if not name.endswith(TELEMETRY_UNITS_SUFFIXES):
                findings.append((
                    "R7", relp, line,
                    f"telemetry series '{name}' carries no units suffix — name it "
                    "*_ns, *_bytes, *_total or *_ratio so the Prometheus "
                    "exposition and the JSONL timeline stay self-describing"))
        sig = model.sig
        for i, (kind, text, line) in enumerate(sig):
            if kind != "id" or text != "HealthEvent":
                continue
            if i + 1 >= len(sig) or sig[i + 1][1] != "{":
                continue
            if i > 0 and sig[i - 1][1] in ("struct", "class"):
                continue  # the type's own definition, not an emission
            if not re.search(r"\bnode\b", stmt_text(model, i)):
                findings.append((
                    "R7", relp, line,
                    "HealthEvent emission carries no node attribution — set "
                    ".node so the event is traceable to the node it fired on "
                    "(the speculative-execution hook keys on it)"))

    def c1():
        for lam in model.lambdas:
            if lam["captures"].strip() and lam["body_co"]:
                cap = lam["captures"].replace(" ", "")
                findings.append((
                    "C1", relp, lam["line"],
                    f"capturing lambda [{cap}] is a coroutine — the closure object "
                    "dies with the enclosing scope while the frame lives on, so "
                    "every capture is read through a dangling pointer at resume; "
                    "hoist the body into a named function (or static member) and "
                    "pass state as parameters (PR-8 bug class)"))

    t0 = time.perf_counter()
    spawn = extract_spawn_sites(model)
    rule_ms["facts"] = (time.perf_counter() - t0) * 1000.0

    timed("R1", r1)
    timed("R2", r2)
    timed("R5", r5)
    timed("R6", r6)
    timed("R7", r7)
    timed("C1", c1)

    return {
        "rel": rel,
        "error": None,
        "parse_ms": parse_ms,
        "rule_ms": rule_ms,
        "findings": findings,
        "suppressions": [
            {"lines": list(s["lines"]), "rules": sorted(s["rules"]),
             "reason": s["reason"], "line": s["line"]}
            for s in model.suppressions
        ],
        "facts": {
            "metrics": metric_sites(model),
            "mirror_structs": (MIRROR_STRUCT_RE.findall(model.code)
                               if rel == "workloads/records.hpp" else []),
            "mirror_checks": (MIRROR_CHECK_RE.findall(model.code)
                              if rel.startswith("workloads/") and rel.endswith(".cpp")
                              else []),
            "coro_fns": [
                {"name": f["name"], "cls": f["cls"], "params": f["params"],
                 "line": f["line"], "has_body": f["body"] is not None}
                for f in model.functions if f["is_coro"]
            ],
            "spawn_sites": spawn,
        },
    }


# ---- Global rules (run in the main process over the merged facts) ----------


def rule_metrics_global(results, root: Path):
    emitted = {}
    for r in sorted(results, key=lambda x: x["rel"]):
        for (name, line, _si) in r["facts"]["metrics"]:
            emitted.setdefault(name, (f"src/{r['rel']}", line))
    experiments = root / "EXPERIMENTS.md"
    text = experiments.read_text()
    begin, end = text.find(CATALOG_BEGIN), text.find(CATALOG_END)
    if begin < 0 or end < 0 or end < begin:
        return [("R3", "EXPERIMENTS.md", 0,
                 f"metric catalog markers '{CATALOG_BEGIN}' / '{CATALOG_END}' "
                 "not found — the catalog section is the schema contract")]
    documented = set(CATALOG_NAME_RE.findall(text[begin:end]))
    findings = []
    for name in sorted(set(emitted) - documented):
        relp, line = emitted[name]
        findings.append((
            "R3", relp, line,
            f"metric '{name}' is emitted here but missing from the "
            "EXPERIMENTS.md metric catalog"))
    for name in sorted(documented - set(emitted)):
        findings.append((
            "R3", "EXPERIMENTS.md",
            text.count("\n", 0, text.find(f"`{name}`", begin)) + 1,
            f"metric '{name}' is documented in the catalog but never emitted "
            "under src/ — stale entry"))
    return findings


def rule_mirrors_global(results):
    declared, checked = set(), set()
    for r in results:
        declared.update(r["facts"]["mirror_structs"])
        checked.update(r["facts"]["mirror_checks"])
    records = "src/workloads/records.hpp"
    findings = []
    for name in sorted(declared - checked):
        findings.append((
            "R4", records, 0,
            f"mirror struct '{name}' has no GSTRUCT_MIRROR_CHECK({name}, ...) in any "
            "src/workloads/*.cpp — its descriptor/layout agreement is unproven"))
    for name in sorted(checked - declared):
        findings.append((
            "R4", records, 0,
            f"GSTRUCT_MIRROR_CHECK({name}, ...) references a struct not declared in "
            "records.hpp"))
    return findings


def build_coro_registry(results):
    reg = {}
    for r in results:
        for f in r["facts"]["coro_fns"]:
            reg.setdefault(f["name"], []).append(f)
    return reg


def resolve_spawn_callee(site, registry):
    name = site.get("callee")
    if not name:
        return None
    entries = registry.get(name, [])
    if not entries:
        return None
    mine = [e for e in entries if e["cls"] and e["cls"] == site.get("encl_cls")]
    pool = mine or [e for e in entries if e["cls"] is None] or entries
    sigs = {(e["cls"], tuple(tuple(p) for p in e["params"])) for e in pool}
    if len(sigs) > 1:
        return None  # ambiguous across the repo — skip, don't guess
    return pool[0]


def c2_param_issues(params, args):
    issues = []
    for idx, (ptype, pname) in enumerate(params):
        label = pname or f"#{idx + 1}"
        if is_dangle_prone_type(ptype):
            issues.append(
                f"parameter '{label}' has borrowing type '{ptype}' — a detached "
                "frame must own strings/buffers by value")
            continue
        if "&" in ptype and idx < len(args):
            a = args[idx].replace(" ", "")
            m = re.fullmatch(r"std::move\((.*)\)", a)
            if m:
                a = m.group(1)
            if not LVALUE_ARG_RE.match(a):
                issues.append(
                    f"reference parameter '{label}' ('{ptype}') is bound to "
                    f"temporary '{args[idx]}' — it dies with the spawn "
                    "full-expression")
    return issues


def rule_coro_detach(results):
    """C2 + C3 over every spawn site, resolved against the repo-wide
    coroutine registry."""
    registry = build_coro_registry(results)
    findings = []
    for r in results:
        relp = f"src/{r['rel']}"
        for site in r["facts"]["spawn_sites"]:
            lam = site.get("lambda")
            if lam is not None:
                if lam["is_coro"] and not lam["captures"].strip():
                    for issue in c2_param_issues(lam["params"], site["args"]):
                        findings.append((
                            "C2", relp, site["line"],
                            f"detached coroutine lambda: {issue} (PR-8 bug class)"))
                continue
            entry = resolve_spawn_callee(site, registry)
            if entry is None:
                continue
            for issue in c2_param_issues(entry["params"], site["args"]):
                findings.append((
                    "C2", relp, site["line"],
                    f"detached coroutine {entry['name']}(): {issue} "
                    "(PR-8 bug class)"))
            if (entry["cls"] and site["via"] in ("plain", "this")
                    and entry["cls"] == site.get("encl_cls")
                    and not any(k in site["stmt"] for k in KEEPALIVE_TOKENS)):
                findings.append((
                    "C3", relp, site["line"],
                    f"member coroutine {entry['cls']}::{entry['name']}() is "
                    "spawned detached with no keep-alive of 'this' in the spawn "
                    "statement — the frame captures 'this' but nothing ties the "
                    "object's lifetime to it; pass shared_from_this()/an owner "
                    "handle, or allowlist with a written lifetime argument"))
    return findings


# ---- Suppressions, SARIF, stats, driver ------------------------------------


def apply_suppressions(findings, supp_by_rel, suppressed_counts):
    kept = []
    for f in findings:
        rule, relp, line, _msg = f
        hit = None
        if rule != "A1":  # suppression hygiene is itself unsuppressible
            for s in supp_by_rel.get(relp, ()):
                if s["reason"] and rule in s["rules"] and line in s["lines"]:
                    hit = s
                    break
        if hit:
            suppressed_counts[rule] = suppressed_counts.get(rule, 0) + 1
        else:
            kept.append(f)
    return kept


def rule_allow_hygiene(results):
    findings = []
    for r in results:
        for s in r["suppressions"]:
            if not s["reason"]:
                findings.append((
                    "A1", f"src/{r['rel']}", s["line"],
                    f"gflint: allow({','.join(s['rules'])}) has no justification — "
                    "write why this site is safe (allow(RULE): <reason>)"))
    return findings


def write_sarif(out_path: Path, findings, rules_run):
    rule_ids = sorted(set(rules_run) | {f[0] for f in findings} | {"A1"})
    sarif = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "gflint",
                "rules": [
                    {"id": rid,
                     "shortDescription": {"text": RULE_DESCRIPTIONS[rid]},
                     "defaultConfiguration": {"level": "error"}}
                    for rid in rule_ids
                ],
            }},
            "results": [
                {"ruleId": rule,
                 "ruleIndex": rule_ids.index(rule),
                 "level": "error",
                 "message": {"text": msg},
                 "locations": [{"physicalLocation": {
                     "artifactLocation": {"uri": relp,
                                          "uriBaseId": "%SRCROOT%"},
                     "region": {"startLine": max(line, 1)},
                 }}]}
                for (rule, relp, line, msg) in findings
            ],
        }],
    }
    out_path.write_text(json.dumps(sarif, indent=2) + "\n")


def collect_files(src: Path):
    rels = []
    for path in src.rglob("*"):
        if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
            continue
        rel_parts = path.relative_to(src).parts
        if any(part.startswith("build") for part in rel_parts[:-1]):
            continue  # stray in-tree build outputs are never lint subjects
        rels.append("/".join(rel_parts))
    return sorted(rels)


def print_stats(results, findings, global_ms, suppressed, rules, jobs):
    parse_ms = sum(r["parse_ms"] for r in results)
    per_rule_ms = dict(global_ms)
    for r in results:
        for rule, ms in r["rule_ms"].items():
            if rule == "facts":
                per_rule_ms["C2/C3 facts"] = per_rule_ms.get("C2/C3 facts", 0.0) + ms
            else:
                per_rule_ms[rule] = per_rule_ms.get(rule, 0.0) + ms
    counts = {}
    for (rule, _relp, _line, _msg) in findings:
        counts[rule] = counts.get(rule, 0) + 1
    print(f"gflint stats: {len(results)} file(s), "
          f"{parse_ms:.1f} ms tokenize+parse (shared across all rules), "
          f"jobs={jobs}", file=sys.stderr)
    shown = [r for r in sorted(set(rules) | set(counts) | set(per_rule_ms)
                               | set(suppressed))
             if r in RULE_DESCRIPTIONS or "/" in r]
    for rule in shown:
        print(f"  {rule:<14} {counts.get(rule, 0):3d} finding(s)  "
              f"{suppressed.get(rule, 0):3d} suppressed  "
              f"{per_rule_ms.get(rule, 0.0):8.1f} ms", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repo root (containing src/ and EXPERIMENTS.md); "
                             "default: the checkout this script lives in")
    parser.add_argument("--rules", default=",".join(ALL_RULES),
                        help="comma-separated subset of rules to run (default: all)")
    parser.add_argument("--jobs", type=int, default=0,
                        help="parallel scan workers (default: min(8, cpu count))")
    parser.add_argument("--sarif", type=Path, default=None,
                        help="write findings as SARIF 2.1.0 to this path")
    parser.add_argument("--stats", action="store_true",
                        help="print a per-rule findings/runtime summary to stderr")
    parser.add_argument("--list-metrics", action="store_true",
                        help="print the metric names emitted under src/ and exit")
    args = parser.parse_args()

    src = args.root / "src"
    if not src.is_dir():
        print(f"gflint: error: no src/ directory under {args.root}", file=sys.stderr)
        return 2

    rules = {r.strip().upper() for r in args.rules.split(",") if r.strip()}
    unknown = rules - set(ALL_RULES) - {"A1"}
    if unknown:
        print(f"gflint: error: unknown rule(s): {', '.join(sorted(unknown))}",
              file=sys.stderr)
        return 2

    if "R3" in rules and not args.list_metrics:
        experiments = args.root / "EXPERIMENTS.md"
        if not experiments.is_file():
            print(f"gflint: error: missing metric catalog file {experiments}",
                  file=sys.stderr)
            return 2
    if "R4" in rules and not args.list_metrics:
        records = src / "workloads" / "records.hpp"
        if not records.is_file():
            print(f"gflint: error: missing {records}", file=sys.stderr)
            return 2

    files = collect_files(src)
    jobs = args.jobs if args.jobs > 0 else min(8, os.cpu_count() or 1)
    tasks = [(str(args.root), rel) for rel in files]
    if jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(scan_file, tasks, chunksize=4))
    else:
        results = [scan_file(t) for t in tasks]

    errors = [r for r in results if r.get("error")]
    if errors:
        for r in errors:
            print(f"gflint: error: {r['error']}", file=sys.stderr)
        return 2

    if args.list_metrics:
        names = sorted({name for r in results
                        for (name, _line, _si) in r["facts"]["metrics"]})
        for name in names:
            print(name)
        return 0

    findings = []
    for r in results:
        findings.extend(f for f in r["findings"] if f[0] in rules)

    global_ms = {}

    def timed_global(rule, fn):
        s = time.perf_counter()
        out = fn()
        global_ms[rule] = (time.perf_counter() - s) * 1000.0
        return out

    global_findings = []
    if "R3" in rules:
        global_findings += timed_global("R3", lambda: rule_metrics_global(results, args.root))
    if "R4" in rules:
        global_findings += timed_global("R4", lambda: rule_mirrors_global(results))
    if rules & {"C2", "C3"}:
        detach = timed_global("C2/C3", lambda: rule_coro_detach(results))
        global_findings += [f for f in detach if f[0] in rules]
    global_findings += rule_allow_hygiene(results)
    findings.extend(global_findings)

    supp_by_rel = {}
    for r in results:
        if r["suppressions"]:
            supp_by_rel[f"src/{r['rel']}"] = r["suppressions"]
    suppressed_counts = {}
    findings = apply_suppressions(findings, supp_by_rel, suppressed_counts)
    findings.sort(key=lambda f: (f[1], f[2], f[0]))

    for (rule, relp, line, msg) in findings:
        loc = f"{relp}:{line}" if line else relp
        print(f"{loc}: [{rule}] {msg}")

    if args.sarif is not None:
        write_sarif(args.sarif, findings, rules)

    if args.stats:
        print_stats(results, findings, global_ms, suppressed_counts,
                    rules, jobs)

    if findings:
        print(f"gflint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"gflint: clean ({', '.join(sorted(rules))})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
