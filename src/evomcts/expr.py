"""Expression trees used as node-selection policies during tree search.

A policy is a small typed tree over the statistics visible when scoring one
child of a node: the child's mean reward Q, the parent visit count Np, and
the child visit count Nc. The function set is arithmetic with protected
division, log and sqrt, so evaluation over floats is finite: no NaN, no
infinities (overflow saturates to the largest finite float). Visit counts
are ints, kept exact by + - *, so a sum or product of counts past the float
range raises OverflowError where it meets a float or a division, e.g.
(+ Q (* Np Np)) at Np = 10**200.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

MAX_FLOAT = sys.float_info.max
PROTECT_EPS = 0.001  # operand magnitudes below this trigger the protected fallbacks
MAX_DEPTH = 8  # counting the root as depth 1

# values a Const leaf may take when a tree is grown or mutated
CONST_POOL = (0.5, 1.0, math.sqrt(2.0), 2.0, 3.0)

FUNCTIONS = ("+", "-", "*", "pdiv", "plog", "psqrt")
ARITY = {"+": 2, "-": 2, "*": 2, "pdiv": 2, "plog": 1, "psqrt": 1}
TERMINALS = ("Q", "Np", "Nc", "const")


@dataclass(frozen=True, slots=True)
class EvalContext:
    """Selection-time statistics for one (parent, child) pair.

    Counts are visit counts, so integers in practice, but any real >= 1 is
    accepted (evaluation is defined on the reals anyway).
    """

    q: float  # child mean reward, expected in [0, 1]
    n_parent: float  # parent visit count
    n_child: float  # child visit count

    def __post_init__(self):
        if self.n_parent < 1 or self.n_child < 1:
            raise ValueError(
                f"visit counts must be >= 1, got {self.n_parent}, {self.n_child}"
            )


@dataclass(frozen=True, slots=True)
class Expr:
    """One node of an immutable policy expression tree.

    op is a function symbol from FUNCTIONS, a variable terminal
    ("Q", "Np", "Nc"), or "const" with a numeric value.
    """

    op: str
    value: Optional[float] = None
    children: Tuple["Expr", ...] = ()

    def __post_init__(self):
        if self.op in ARITY:
            if len(self.children) != ARITY[self.op]:
                raise ValueError(f"{self.op} takes {ARITY[self.op]} children")
            if self.value is not None:
                raise ValueError("function nodes carry no value")
        elif self.op == "const":
            if self.children:
                raise ValueError("const is a leaf")
            if self.value is None or not math.isfinite(self.value):
                raise ValueError("const needs a finite value")
        elif self.op in ("Q", "Np", "Nc"):
            if self.children or self.value is not None:
                raise ValueError(f"{self.op} is a bare leaf")
        else:
            raise ValueError(f"unknown op {self.op!r}")


def depth(e: Expr) -> int:
    """Depth of the tree rooted at e; a lone leaf has depth 1."""
    if not e.children:
        return 1
    return 1 + max(depth(c) for c in e.children)


def size(e: Expr) -> int:
    return 1 + sum(size(c) for c in e.children)


# ---------------------------------------------------------------------------
# evaluation

def _fin(x: float) -> float:
    # saturate overflow so downstream arithmetic stays inside the finite reals
    if x == math.inf:
        return MAX_FLOAT
    if x == -math.inf:
        return -MAX_FLOAT
    return x


def _pdiv(a: float, b: float) -> float:
    return 1.0 if -PROTECT_EPS < b < PROTECT_EPS else _fin(a / b)


def _plog(a: float) -> float:
    return 1.0 if -PROTECT_EPS < a < PROTECT_EPS else math.log(abs(a))


def _psqrt(a: float) -> float:
    return math.sqrt(abs(a))


def evaluate(e: Expr, ctx: EvalContext) -> float:
    """Value of e at ctx; finite for float counts (int counts: see the module doc)."""
    return _eval(e, ctx.q, ctx.n_parent, ctx.n_child)


def _eval(e: Expr, q, np, nc) -> float:
    op = e.op
    if op == "Q":
        return q
    if op == "Np":
        return np
    if op == "Nc":
        return nc
    if op == "const":
        return e.value
    a = _eval(e.children[0], q, np, nc)
    if op == "plog":
        return _plog(a)
    if op == "psqrt":
        return _psqrt(a)
    b = _eval(e.children[1], q, np, nc)
    if op == "+":
        return _fin(a + b)
    if op == "-":
        return _fin(a - b)
    if op == "*":
        return _fin(a * b)
    return _pdiv(a, b)


def compile_expr(e: Expr) -> Callable[[float, float, float], float]:
    """Compile e to a fast (q, n_parent, n_child) -> float callable.

    Returns bit-identical values to evaluate(); every protection is kept.
    """
    ns = dict(_NAMESPACE)
    exec(f"def _policy(q, np, nc):\n    return {_emit(e)}", ns)
    return ns["_policy"]


# ---------------------------------------------------------------------------
# code generation: one emitter for compile_expr and compile_select

# A function node is its bare operation, unless a guard of it can fire. The
# guard of pdiv, plog and psqrt is its helper (which saturates overflow
# itself); + - * and a pdiv whose helper is dead keep the overflow guard _fin.
_BARE = {
    "+": "({} + {})",
    "-": "({} - {})",
    "*": "({} * {})",
    "pdiv": "({} / {})",
    "plog": "log({})",
    "psqrt": "sqrt({})",
}
_HELPER = {"pdiv": "_pdiv", "plog": "_plog", "psqrt": "_psqrt"}
_VARIABLES = {"Q": "q", "Np": "np", "Nc": "nc"}


def pick_tied(items: Sequence, vals: Sequence, m, rng):
    """One of the items whose value equals the maximum m, uniformly at random.

    The tie rule of every argmax: one rng.randrange draw over the tied
    items in order. The generated select calls it rather than inlining it,
    since it only runs on a tie and compiling it into every select would
    add about a tenth to the cost of compile_select.
    """
    tied = [x for x, v in zip(items, vals) if v == m]
    return tied[rng.randrange(len(tied))]


_NAMESPACE = {
    "pick_tied": pick_tied,
    "_fin": _fin,
    "_pdiv": _pdiv,
    "_plog": _plog,
    "_psqrt": _psqrt,
    "log": math.log,
    "sqrt": math.sqrt,
}


def _leaf_source(e: Expr) -> Optional[str]:
    if e.op == "const":
        return repr(e.value)
    return _VARIABLES.get(e.op)


def _all_guards(e: Expr) -> Tuple[bool, bool]:
    return e.op in _HELPER, True


def _emit(e: Expr, source=_leaf_source, guards=_all_guards) -> str:
    """Python source computing e.

    source(node) is the source of a node that needs no operation (a leaf, a
    folded constant, a hoisted name), else None. guards(node) says whether
    the node's helper and whether its overflow guard can fire; the overflow
    guard is only asked of the parenthesised operations + - * and pdiv.
    Np and Nc stay ints, as in evaluate(), so Np * Np is an exact product.
    """
    s = source(e)
    if s is not None:
        return s
    args = [_emit(c, source, guards) for c in e.children]
    helper, overflow = guards(e)
    if helper:
        return f"{_HELPER[e.op]}({', '.join(args)})"
    s = _BARE[e.op].format(*args)
    return "_fin" + s if overflow else s


# Interval facts per node, over the domain of EvalContext: Q in [0, 1] and
# visit counts in [1, MAX_FLOAT] (any count a float can hold). A fact is
# (lo, hi, is_int, deps, helper_live, overflow_live): every value the node
# takes at runtime lies in [lo, hi]; is_int says the value is a Python int
# (sums and products of Np and Nc); deps is a bit set of the variables read.
#
# IEEE + - * / and sqrt are correctly rounded, hence monotone, so endpoints
# computed with the same float operations bound the runtime values with no
# outward rounding. Two exceptions are widened instead: math.log, which is
# not correctly rounded, and int sums and products, which are exact while
# their float endpoints round. A guard is dead only when its interval stays
# clear of the strict tests that fire it, not touching +-PROTECT_EPS or
# +-MAX_FLOAT; an endpoint of +-inf means "unbounded", never a value.
_Q, _NP, _NC = 1, 2, 4
_EXACT = 2.0 ** 53  # float sums and products of ints round beyond this
_LEAF_FACTS = {
    "Q": (0.0, 1.0, False, _Q, False, False),
    "Np": (1.0, MAX_FLOAT, True, _NP, False, False),
    "Nc": (1.0, MAX_FLOAT, True, _NC, False, False),
}


def _facts(e: Expr, facts: dict, known: dict) -> tuple:
    """Fill facts[id(node)] for every node of e and return e's.

    A constant subtree is folded by the oracle _eval itself: known[id(node)]
    gets the source of its value.
    """
    op = e.op
    if op == "const":
        f = (e.value, e.value, False, 0, False, False)
    elif op in _LEAF_FACTS:
        f = _LEAF_FACTS[op]
    else:
        kids = [_facts(c, facts, known) for c in e.children]
        deps = 0
        for k in kids:
            deps |= k[3]
        if deps:
            lo, hi, is_int, helper, overflow = _RULES[op](*kids)
            f = (lo, hi, is_int, deps, helper, overflow)
        else:
            v = _eval(e, 0.0, 1, 1)
            known[id(e)] = repr(v)
            f = (v, v, False, 0, False, False)
    facts[id(e)] = f
    return f


def _span(corners) -> Tuple[float, float]:
    """[min, max] of interval corners; a nan corner (inf - inf, inf / inf)
    leaves the result unbounded."""
    if any(x != x for x in corners):
        return -math.inf, math.inf
    return min(corners), max(corners)


def _saturated(lo: float, hi: float) -> Tuple[float, float]:
    # what _fin leaves of a float interval
    return max(-MAX_FLOAT, min(lo, MAX_FLOAT)), max(-MAX_FLOAT, min(hi, MAX_FLOAT))


def _overflows(lo: float, hi: float) -> bool:
    return not (-MAX_FLOAT < lo and hi < MAX_FLOAT)


def _arith(op):
    def rule(a, b):
        alo, ahi, a_int = a[:3]
        blo, bhi, b_int = b[:3]
        if op == "+":
            lo, hi = _span((alo + blo, ahi + bhi))
        elif op == "-":
            lo, hi = _span((alo - bhi, ahi - blo))
        else:
            # 0 * inf: a zero factor times an unbounded one, whose product is 0
            corners = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
            lo, hi = _span([x if x == x else 0.0 for x in corners])
        is_int = a_int and b_int
        if is_int:
            if abs(lo) >= _EXACT:
                lo = math.nextafter(lo, -math.inf)
            if abs(hi) >= _EXACT:
                hi = math.nextafter(hi, math.inf)
        overflow = _overflows(lo, hi)
        if overflow and not is_int:  # _fin leaves ints alone
            lo, hi = _saturated(lo, hi)
        return lo, hi, is_int, False, overflow

    return rule


def _pdiv_rule(a, b):
    alo, ahi = a[:2]
    blo, bhi = b[:2]
    helper = not (blo > PROTECT_EPS or bhi < -PROTECT_EPS)
    corners = []
    # the divisors the guard lets through
    if bhi >= PROTECT_EPS:
        corners += [x / y for x in (alo, ahi) for y in (max(blo, PROTECT_EPS), bhi)]
    if blo <= -PROTECT_EPS:
        corners += [x / y for x in (alo, ahi) for y in (blo, min(bhi, -PROTECT_EPS))]
    lo, hi = _span(corners) if corners else (1.0, 1.0)
    overflow = _overflows(lo, hi)
    if overflow:
        lo, hi = _saturated(lo, hi)
    if helper:
        lo, hi = min(lo, 1.0), max(hi, 1.0)
    return lo, hi, False, helper, overflow


def _magnitude(lo: float, hi: float) -> Tuple[float, float]:
    """Interval of abs(x) for x in [lo, hi]."""
    if lo >= 0.0:
        return lo, hi
    if hi <= 0.0:
        return -hi, -lo
    return 0.0, max(-lo, hi)


def _widened_log(lo: float, hi: float) -> Tuple[float, float]:
    # math.log is not correctly rounded: within one ulp on common libms, so
    # two computed logs can be out of order by two ulps. An error under one
    # ulp cannot flip a sign, so log(x) >= 0 still holds for x >= 1.
    nonnegative = lo >= 1.0
    lo, hi = math.log(lo), math.log(hi)
    for _ in range(2):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    return (max(lo, 0.0) if nonnegative else lo), hi


def _plog_rule(a):
    alo, ahi = a[:2]
    if alo > PROTECT_EPS:  # log(a) is _plog(a)
        return _widened_log(alo, ahi) + (False, False, False)
    mlo, mhi = _magnitude(alo, ahi)
    lo = hi = 1.0
    if mhi >= PROTECT_EPS:  # the magnitudes the guard lets through
        llo, lhi = _widened_log(max(mlo, PROTECT_EPS), mhi)
        lo, hi = min(lo, llo), max(hi, lhi)
    return lo, hi, False, True, False


def _psqrt_rule(a):
    # With lo >= 0, sqrt(a) is _psqrt(a) except that sqrt(-0.0) is -0.0
    # where _psqrt gives 0.0. The sign of a zero cannot reach the argmax:
    # pdiv and plog guard every zero divisor and argument, and the argmax
    # compares scores with == and max, under which -0.0 equals 0.0.
    mlo, mhi = _magnitude(*a[:2])
    return math.sqrt(mlo), math.sqrt(mhi), False, a[0] < 0.0, False


_RULES = {
    "+": _arith("+"),
    "-": _arith("-"),
    "*": _arith("*"),
    "pdiv": _pdiv_rule,
    "plog": _plog_rule,
    "psqrt": _psqrt_rule,
}


def _hoists(e: Expr, facts: dict, out: list):
    """The largest subtrees of e that read Np and nothing else but constants."""
    if facts[id(e)][3] == _NP and e.children:
        out.append(e)
    elif facts[id(e)][3]:
        for c in e.children:
            _hoists(c, facts, out)


def compile_select(e: Expr, k: int) -> Callable:
    """Generate the selection step of a search tree whose policy is e.

    The result, select(root, rng), returns the path from root down to the
    first node that still has untried actions or no children, choosing
    among the k children of each node on the way by the argmax of e. It
    reads nodes through their visits, total_reward, children and
    untried_actions, and takes exactly the path, and the rng draws, of
    argmax over evaluate(e, EvalContext(Q, Np, Nc)) (see tests/test_oracles.py):

    - the k children are unpacked and e is written out once per child;
    - subtrees that read only Np are computed once per level;
    - constant subtrees are folded by calling _eval;
    - a protection is dropped only where the interval facts above prove it
      cannot fire, so e.g. UCB1 becomes q + c * sqrt(2 * log(np) / nc);
    - the argmax is a running comparison, with no list per level; it calls
      pick_tied, which draws rng.randrange once, only on an exact tie.
    """
    facts: dict = {}
    known: dict = {}
    _facts(e, facts, known)

    def source(n):
        return known.get(id(n)) or _leaf_source(n)

    def guards(n):
        return facts[id(n)][4:]

    hoists: list = []
    _hoists(e, facts, hoists)
    hoisted = []
    for i, h in enumerate(hoists):
        hoisted.append(f"h{i} = {_emit(h, source, guards)}")
        known[id(h)] = f"h{i}"
    score = _emit(e, source, guards)

    body = []
    for i in range(k):
        # q first: a child without visits raises ZeroDivisionError before
        # anything of e is computed, as in the reference
        body += [f"nc = k{i}.visits", f"q = k{i}.total_reward / nc"]
        if i == 0:
            body += hoisted
        body.append(f"s{i} = {score}")
        # the leftmost maximum m and how many scores equal it: for scores
        # that are never NaN, what max, count and index would give
        if i == 0:
            body.append("m, node, ties = s0, k0, 1")
        else:
            body += [
                f"if s{i} > m:",
                f"    m, node, ties = s{i}, k{i}, 1",
                f"elif s{i} == m:",
                "    ties += 1",
            ]
    kids = "".join(f"k{i}, " for i in range(k))
    scores = ", ".join(f"s{i}" for i in range(k))
    lines = [
        "def select(root, rng):",
        "    node = root",
        "    path = [node]",
        "    while not node.untried_actions and node.children:",
        "        kids = node.children",
        f"        {kids}= kids",
        "        np = node.visits",
        *("        " + line for line in body),
        "        if ties > 1:",
        f"            node = pick_tied(kids, [{scores}], m, rng)",
        "        path.append(node)",
        "    return path",
    ]
    ns = dict(_NAMESPACE)
    exec("\n".join(lines), ns)
    return ns["select"]


# ---------------------------------------------------------------------------
# construction and variation

def ucb1_seed(c: float) -> Expr:
    """The classic UCB1 rule Q + c * sqrt(2 * ln(Np) / Nc) as a tree.

    c must come from CONST_POOL, the same pool mutation draws from.
    """
    if c not in CONST_POOL:
        raise ValueError(f"c must be one of {CONST_POOL}, got {c!r}")
    bound = Expr(
        "psqrt",
        children=(
            Expr(
                "pdiv",
                children=(
                    Expr("*", children=(Expr("const", 2.0), Expr("plog", children=(Expr("Np"),)))),
                    Expr("Nc"),
                ),
            ),
        ),
    )
    return Expr("+", children=(Expr("Q"), Expr("*", children=(Expr("const", c), bound))))


def random_subtree(depth_budget: int, rng) -> Expr:
    """Grow a random tree of depth at most depth_budget (>= 1).

    At each point with budget left: 50/50 function versus terminal, uniform
    within each set; Const leaves draw uniformly from CONST_POOL.
    """
    if depth_budget < 1:
        raise ValueError("depth budget must be >= 1")
    if depth_budget == 1 or rng.random() < 0.5:
        return _random_terminal(rng)
    op = FUNCTIONS[rng.randrange(len(FUNCTIONS))]
    kids = tuple(random_subtree(depth_budget - 1, rng) for _ in range(ARITY[op]))
    return Expr(op, children=kids)


def _random_terminal(rng) -> Expr:
    tag = TERMINALS[rng.randrange(len(TERMINALS))]
    if tag == "const":
        return Expr("const", CONST_POOL[rng.randrange(len(CONST_POOL))])
    return Expr(tag)


def subtree_mutate(e: Expr, rng) -> Expr:
    """Return a copy of e with one random subtree regrown.

    The mutation point is an internal node with probability 0.9 and a leaf
    with probability 0.1 (the root leaf if e has no internal nodes). The
    replacement is grown within the remaining depth budget so the result
    never exceeds MAX_DEPTH. e itself is not modified.
    """
    path, d = _choose_point(e, rng)
    sub = random_subtree(MAX_DEPTH - d + 1, rng)
    return _replace(e, path, sub)


def _choose_point(e: Expr, rng) -> Tuple[Tuple[int, ...], int]:
    """Pick the mutation point: (path from root, depth of that node)."""
    internal: List[Tuple[Tuple[int, ...], int]] = []
    leaves: List[Tuple[Tuple[int, ...], int]] = []
    _index(e, (), 1, internal, leaves)
    if not internal:
        return leaves[0]
    pool = internal if rng.random() < 0.9 else leaves
    return pool[rng.randrange(len(pool))]


def _index(e, path, d, internal, leaves):
    if e.children:
        internal.append((path, d))
        for i, c in enumerate(e.children):
            _index(c, path + (i,), d + 1, internal, leaves)
    else:
        leaves.append((path, d))


def _replace(e: Expr, path: Tuple[int, ...], sub: Expr) -> Expr:
    if not path:
        return sub
    i = path[0]
    kids = tuple(
        _replace(c, path[1:], sub) if j == i else c for j, c in enumerate(e.children)
    )
    return Expr(e.op, e.value, kids)


# ---------------------------------------------------------------------------
# text form: prefix notation, e.g. (+ Q (* 2 (psqrt Nc)))

class ExprParseError(ValueError):
    """Malformed policy text; pos is a character offset into the input."""

    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} (at position {pos})")
        self.pos = pos


def to_text(e: Expr) -> str:
    """Render e in prefix notation; parse_text inverts this exactly."""
    if e.op == "const":
        v = e.value
        return str(int(v)) if v == int(v) else repr(v)
    if not e.children:
        return e.op
    return "(" + " ".join([e.op] + [to_text(c) for c in e.children]) + ")"


def parse_text(text: str) -> Expr:
    toks = _tokenize(text)
    e, i = _parse(toks, 0, len(text))
    if i != len(toks):
        raise ExprParseError(f"unexpected {toks[i][0]!r} after expression", toks[i][1])
    return e


def _tokenize(text: str) -> List[Tuple[str, int]]:
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()":
            toks.append((ch, i))
            i += 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "()":
                j += 1
            toks.append((text[i:j], i))
            i = j
    return toks


def _parse(toks, i, end) -> Tuple[Expr, int]:
    if i >= len(toks):
        raise ExprParseError("unexpected end of input", end)
    tok, pos = toks[i]
    if tok == ")":
        raise ExprParseError("unexpected ')'", pos)
    if tok != "(":
        return _parse_atom(tok, pos), i + 1
    if i + 1 >= len(toks):
        raise ExprParseError("unexpected end of input", end)
    op, oppos = toks[i + 1]
    if op not in ARITY:
        raise ExprParseError(f"expected an operator, got {op!r}", oppos)
    i += 2
    kids = []
    for _ in range(ARITY[op]):
        child, i = _parse(toks, i, end)
        kids.append(child)
    if i >= len(toks):
        raise ExprParseError("missing ')'", end)
    if toks[i][0] != ")":
        raise ExprParseError(f"expected ')', got {toks[i][0]!r}", toks[i][1])
    return Expr(op, children=tuple(kids)), i + 1


def _parse_atom(tok: str, pos: int) -> Expr:
    if tok in ("Q", "Np", "Nc"):
        return Expr(tok)
    try:
        v = float(tok)
    except ValueError:
        raise ExprParseError(f"unknown terminal {tok!r}", pos) from None
    if not math.isfinite(v):
        raise ExprParseError(f"constant must be finite, got {tok!r}", pos)
    return Expr("const", v)
