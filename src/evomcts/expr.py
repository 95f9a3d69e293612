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

import functools
import itertools
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
    ("Q", "Np", "Nc"), or "const" with a numeric value. A const value is
    stored as a float: Expr("const", 2) is Expr("const", 2.0) in value as
    well as in equality, hash and text, so equal trees evaluate alike.
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
            v = self.value
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValueError(f"const needs a number, got {v!r}")
            if not -MAX_FLOAT <= v <= MAX_FLOAT:  # exact for ints, false for nan
                raise ValueError("const needs a finite value")
            object.__setattr__(self, "value", float(v))
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
    """e as a (q, n_parent, n_child) -> float callable: _eval bound to e,
    so evaluate() itself. Nothing in the package calls it."""
    return lambda q, np, nc: _eval(e, q, np, nc)


# ---------------------------------------------------------------------------
# code generation: the selection step of one policy

# A function node is its bare operation where the interval facts prove that
# no guard of it can fire. Otherwise its guard is written in place, with the
# float operations of _pdiv, _plog, _psqrt and _fin in the same order; an
# operand that a guard reads twice is bound to a temporary t<n>, unless it
# is a plain name.
_BARE = {
    "+": "({} + {})",
    "-": "({} - {})",
    "*": "({} * {})",
    "pdiv": "({} / {})",
    "plog": "log({})",
    "psqrt": "sqrt({})",
}
_VARIABLES = {"Q": "q", "Np": "np", "Nc": "nc"}
_EPS = repr(PROTECT_EPS)
_MAX = repr(MAX_FLOAT)


def pick_tied(items: Sequence, vals: Sequence, m, rng):
    """One of the items whose value equals the maximum m, uniformly at random.

    The tie rule of every argmax here: one rng.randrange draw over the tied
    items in order. When every item ties, that is rng.randrange(len(items))
    over items itself, which the generated select draws inline, straight
    from getrandbits; it calls pick_tied only when some but not all of
    k > 2 children tie.
    """
    tied = [x for x, v in zip(items, vals) if v == m]
    return tied[rng.randrange(len(tied))]


def argmax(items: Sequence, key: Callable, rng):
    """Item with the largest key, exact ties broken by pick_tied: rng is
    drawn from only when more than one item ties."""
    vals = [key(x) for x in items]
    m = max(vals)
    if vals.count(m) == 1:
        return items[vals.index(m)]
    return pick_tied(items, vals, m, rng)


_NAMESPACE = {
    "pick_tied": pick_tied,
    "_fin": _fin,
    "_pdiv": _pdiv,
    "log": math.log,
    "sqrt": math.sqrt,
}


def _leaf_source(e: Expr) -> Optional[str]:
    if e.op == "const":
        return repr(e.value)
    return _VARIABLES.get(e.op)


def _emit(e: Expr, source, facts: dict, general: dict, temps) -> str:
    """Python source computing e.

    source(node) is the source of a node that needs no operation (a leaf, a
    folded constant, a hoisted name), else None. facts and general are the
    interval facts over bounded and over any counts, and temps counts the
    temporaries. Np and Nc stay ints, as in evaluate(), so Np * Np is an
    exact product.
    """
    s = source(e)
    if s is not None:
        return s
    args = [_emit(c, source, facts, general, temps) for c in e.children]
    helper, overflow = facts[id(e)][4:]
    if not helper:
        return _checked(_BARE[e.op].format(*args), overflow, temps)
    if e.op == "psqrt":
        return f"sqrt(abs({args[0]}))"
    if e.op == "plog":
        t, a = _bound(args[0], temps)
        if general[id(e.children[0])][0] > -PROTECT_EPS:
            # over any count, what passes the test is positive: no abs
            return f"(1.0 if -{_EPS} < {a} < {_EPS} else log({t}))"
        return f"(1.0 if -{_EPS} < {a} < {_EPS} else log(abs({t})))"
    if _may_raise(e.children[0], facts):
        # _pdiv computes its dividend even when the guard fires
        return f"_pdiv({args[0]}, {args[1]})"
    # the quotient is saturated where the facts over any count do not prove
    # it finite, so that the test does not depend on the bound
    t, b = _bound(args[1], temps)
    quotient = _checked(f"{args[0]} / {t}", _overflows(*general[id(e)][:2]), temps)
    return f"(1.0 if -{_EPS} < {b} < {_EPS} else {quotient})"


def _bound(s: str, temps) -> Tuple[str, str]:
    """(name, source that binds it) of an operand read twice."""
    if s.isidentifier():
        return s, s
    t = f"t{next(temps)}"
    return t, f"({t} := {s})"


def _checked(s: str, overflow: bool, temps) -> str:
    """s, saturated by _fin on the branch where it reaches +-MAX_FLOAT."""
    if not overflow:
        return s
    t = f"t{next(temps)}"
    return f"({t} if -{_MAX} < ({t} := {s}) < {_MAX} else _fin({t}))"


def _may_raise(e: Expr, facts: dict) -> bool:
    """Whether computing e can raise OverflowError: only an int past the
    float range raises, where it meets a float, a division or sqrt."""
    f = facts[id(e)]
    return (f[2] and f[5]) or any(_may_raise(c, facts) for c in e.children)


# Interval facts per node, over one of two domains: Q in [0, 1] and visit
# counts in [1, MAX_FLOAT] (any count a float can hold, the domain of
# EvalContext), or in [1, COUNT_BOUND] (every count a search tree reaches in
# practice). A fact is (lo, hi, is_int, deps, helper_live, overflow_live):
# every value the node takes at runtime lies in [lo, hi]; is_int says the
# value is a Python int (sums and products of Np and Nc); deps is a bit set
# of the variables read; the two flags say which guards _emit must write.
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
COUNT_BOUND = 2 ** 53  # a fixed constant: generated code never depends on a budget
SELECTS_CACHED = 128  # generated selects kept by compile_select's cache


def _leaf_facts(top: float) -> dict:
    return {
        "Q": (0.0, 1.0, False, _Q, False, False),
        "Np": (1.0, top, True, _NP, False, False),
        "Nc": (1.0, top, True, _NC, False, False),
    }


_GENERAL = _leaf_facts(MAX_FLOAT)
_BOUNDED = _leaf_facts(float(COUNT_BOUND))


def _facts(e: Expr, facts: dict, known: dict, leaves: dict) -> tuple:
    """Fill facts[id(node)] for every node of e, with the variables' facts
    taken from leaves, and return e's.

    A constant subtree is folded by the oracle _eval itself: known[id(node)]
    gets the source of its value.
    """
    op = e.op
    if op == "const":
        f = (e.value, e.value, False, 0, False, False)
    elif op in leaves:
        f = leaves[op]
    else:
        kids = [_facts(c, facts, known, leaves) for c in e.children]
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
    # the quotient of a live guard: _emit saturates it from the facts over any count
    return lo, hi, False, helper, overflow and not helper


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


@functools.lru_cache(maxsize=SELECTS_CACHED)
def compile_select(e: Expr, k: int) -> Callable:
    """Generate the selection step of a search tree whose policy is e.

    The result, select(path, rng), extends path = [root] down to the first
    node that still has untried actions or no children, choosing among the
    k children of each node on the way by the argmax of e, and returns it.
    It reads nodes through their visits, total_reward, children and
    untried_actions, and takes exactly the path, and the rng draws, of
    argmax over evaluate(e, EvalContext(Q, Np, Nc)) (see tests/test_oracles.py):

    - the k children are unpacked and e is written out once per child;
    - subtrees that read only Np are computed once per level;
    - constant subtrees are folded by calling _eval;
    - a protection is dropped only where the interval facts above, over
      counts up to COUNT_BOUND, prove it cannot fire, so e.g. UCB1 becomes
      q + c * sqrt(2 * log(np) / nc). One that can fire is written in
      place (_emit), with no call: a plog tests its argument, a pdiv its
      divisor, and an operation that can overflow compares its result with
      +-MAX_FLOAT, calling _fin only past it. A pdiv whose dividend can
      raise OverflowError stays a call of _pdiv, which computes the
      dividend even when the guard fires;
    - the facts are also taken over any count. Where some guard differs
      between the two, the loop tests the parent and every child against
      COUNT_BOUND, and from the first level past it hands path to the
      interpreter: argmax over _eval, level by level. Search trees never
      get there in practice. Where no guard differs, as for UCB1, there is
      no test;
    - the argmax has no list per level: for k = 2 it compares the two
      scores directly, and for k > 2 it keeps a running maximum and a tie
      count. A tie of all k children draws what rng.randrange(k) draws,
      straight from rng.getrandbits as Random._randbelow does; a tie of
      some of them (k > 2 only) calls pick_tied. Either is one draw, and
      an argmax without a tie draws nothing.

    Selects are cached for the whole process, keyed by (e, k): the
    SELECTS_CACHED most recently used. A select holds no reference cycle,
    so one that leaves the cache is freed as soon as no tree holds it.
    """
    source, bounded = _select_source(e, k)
    ns = dict(_NAMESPACE)
    if bounded:
        def interpret(path, rng):
            node = path[-1]
            while not node.untried_actions and node.children:
                np = node.visits
                node = argmax(node.children,
                              lambda c: _eval(e, c.total_reward / c.visits, np, c.visits), rng)
                path.append(node)
            return path

        ns["interpret"] = interpret
    exec(source, ns)
    # popped, so that ns does not hold the select that holds ns
    return ns.pop("select")


def _select_source(e: Expr, k: int) -> Tuple[str, bool]:
    """The source of compile_select's select for e, and whether it hands
    counts past COUNT_BOUND to interpret."""
    facts: dict = {}
    names: dict = {}
    _facts(e, facts, names, _BOUNDED)
    general: dict = {}
    _facts(e, general, {}, _GENERAL)

    def source(n):
        return names.get(id(n)) or _leaf_source(n)

    temps = itertools.count()
    hoists: list = []
    _hoists(e, facts, hoists)
    hoisted = []
    for i, h in enumerate(hoists):
        hoisted.append(f"h{i} = {_emit(h, source, facts, general, temps)}")
        names[id(h)] = f"h{i}"
    score = _emit(e, source, facts, general, temps)

    lines = [
        "def select(path, rng):",
        "    node = path[-1]",
        "    while not node.untried_actions and node.children:",
        "        kids = node.children",
        "        " + "".join(f"k{i}, " for i in range(k)) + "= kids",
        "        np = node.visits",
    ]
    bounded = any(facts[n][4:] != general[n][4:] for n in facts)
    if bounded:
        past = " or ".join([f"np > {COUNT_BOUND}"]
                           + [f"k{i}.visits > {COUNT_BOUND}" for i in range(k)])
        lines += [f"        if {past}:", "            return interpret(path, rng)"]
    body = []
    for i in range(k):
        # q first: a child without visits raises ZeroDivisionError before
        # anything of e is computed, as in the reference
        body += [f"nc = k{i}.visits", f"q = k{i}.total_reward / nc"]
        if i == 0:
            body += hoisted
        body.append(f"s{i} = {score}")
        # k > 2: m, node and ties are the leftmost maximum score, its
        # child, and how many scores equal it, which for scores that are
        # never NaN is what max, index and count would give
        if k > 2 and i == 0:
            body.append("m, node, ties = s0, k0, 1")
        elif k > 2:
            body += [
                f"if s{i} > m:",
                f"    m, node, ties = s{i}, k{i}, 1",
                f"elif s{i} == m:",
                "    ties += 1",
            ]
    if k == 2:
        body += ["if s0 > s1:", "    node = k0", "elif s1 > s0:", "    node = k1", "else:"]
    else:
        body.append(f"if ties == {k}:")
    # a tie of all k children: the tied list of pick_tied is kids itself,
    # and the draw is rng.randrange(k)'s
    bits = k.bit_length()
    body += [
        f"    r = rng.getrandbits({bits})",
        f"    while r >= {k}:",
        f"        r = rng.getrandbits({bits})",
        "    node = kids[r]",
    ]
    if k > 2:
        scores = ", ".join(f"s{i}" for i in range(k))
        body += ["elif ties > 1:", f"    node = pick_tied(kids, [{scores}], m, rng)"]
    body.append("path.append(node)")
    lines += ["        " + line for line in body]
    lines.append("    return path")
    return "\n".join(lines), bounded


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
    """The tree of text, which may be at most MAX_DEPTH deep, as evolved
    trees are; ExprParseError otherwise."""
    toks = _tokenize(text)
    e, i = _parse(toks, 0, len(text), 1)
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


def _parse(toks, i, end, d) -> Tuple[Expr, int]:
    """The node at toks[i], at depth d, and the index past it."""
    if i >= len(toks):
        raise ExprParseError("unexpected end of input", end)
    tok, pos = toks[i]
    if tok == ")":
        raise ExprParseError("unexpected ')'", pos)
    if d > MAX_DEPTH:
        raise ExprParseError(f"tree deeper than {MAX_DEPTH} levels", pos)
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
        child, i = _parse(toks, i, end, d + 1)
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
