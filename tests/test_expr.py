"""Policy expression trees: evaluation, growth, mutation, text round-trips."""

import math
import random

import pytest

from evomcts.expr import (
    ARITY,
    CONST_POOL,
    MAX_DEPTH,
    MAX_FLOAT,
    EvalContext,
    Expr,
    ExprParseError,
    _choose_point,
    compile_expr,
    compile_select,
    depth,
    evaluate,
    parse_text,
    random_subtree,
    size,
    subtree_mutate,
    to_text,
    ucb1_seed,
)

SQRT2 = math.sqrt(2.0)


def const(v):
    return Expr("const", float(v))


def binop(op, a, b):
    return Expr(op, children=(a, b))


def unop(op, a):
    return Expr(op, children=(a,))


def ucb1_closed_form(c, q, n_parent, n_child):
    return q + c * math.sqrt(2.0 * math.log(n_parent) / n_child)


class ScriptedRng:
    """Feeds predetermined draws so branch choices are pinned down."""

    def __init__(self, randoms=(), randranges=()):
        self.randoms = list(randoms)
        self.randranges = list(randranges)

    def random(self):
        return self.randoms.pop(0)

    def randrange(self, n):
        i = self.randranges.pop(0)
        assert 0 <= i < n
        return i


# ---------------------------------------------------------------------------
# node and context validation

def test_expr_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Expr("+")
    with pytest.raises(ValueError):
        Expr("plog", children=(Expr("Q"), Expr("Q")))
    with pytest.raises(ValueError):
        Expr("const")
    with pytest.raises(ValueError):
        Expr("const", math.inf)
    with pytest.raises(ValueError):
        Expr("Q", value=1.0)
    with pytest.raises(ValueError):
        Expr("nonsense")


def test_function_nodes_carry_no_value():
    with pytest.raises(ValueError):
        Expr("+", value=2.0, children=(Expr("Q"), Expr("Q")))


def test_context_requires_counts_at_least_one():
    EvalContext(0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        EvalContext(0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        EvalContext(0.5, 1.0, 0.9)


def test_structural_equality():
    assert ucb1_seed(2.0) == ucb1_seed(2.0)
    assert ucb1_seed(2.0) != ucb1_seed(3.0)


# ---------------------------------------------------------------------------
# protected operator semantics

def test_pdiv_guards_small_divisors():
    one = const(1)
    assert evaluate(binop("pdiv", one, const(0.0005)), EvalContext(0, 1, 1)) == 1.0
    assert evaluate(binop("pdiv", one, const(-0.0009)), EvalContext(0, 1, 1)) == 1.0
    # the guard is strict: exactly 0.001 divides normally
    assert evaluate(binop("pdiv", one, const(0.001)), EvalContext(0, 1, 1)) == 1000.0


def test_plog_guard_and_abs():
    ctx = EvalContext(0, 1, 1)
    assert evaluate(unop("plog", const(0.0009)), ctx) == 1.0
    assert evaluate(unop("plog", const(-5)), ctx) == math.log(5.0)
    assert evaluate(unop("plog", const(0.001)), ctx) == math.log(0.001)


def test_psqrt_uses_absolute_value():
    assert evaluate(unop("psqrt", const(-4)), EvalContext(0, 1, 1)) == 2.0


def test_overflow_saturates_instead_of_inf():
    big = binop("*", const(MAX_FLOAT), const(MAX_FLOAT))
    ctx = EvalContext(0, 1, 1)
    assert evaluate(big, ctx) == MAX_FLOAT
    # saturated operands keep downstream arithmetic finite
    assert evaluate(binop("-", big, big), ctx) == 0.0
    assert evaluate(binop("*", const(-MAX_FLOAT), const(2)), ctx) == -MAX_FLOAT


def test_terminals_read_context():
    ctx = EvalContext(0.25, 7.0, 3.0)
    assert evaluate(Expr("Q"), ctx) == 0.25
    assert evaluate(Expr("Np"), ctx) == 7.0
    assert evaluate(Expr("Nc"), ctx) == 3.0
    assert evaluate(const(2), ctx) == 2.0


# ---------------------------------------------------------------------------
# the UCB1 seed tree

def test_seed_requires_pool_constant():
    for c in CONST_POOL:
        ucb1_seed(c)
    with pytest.raises(ValueError):
        ucb1_seed(0.7)


def test_seed_shape():
    e = ucb1_seed(SQRT2)
    assert depth(e) == 7
    assert size(e) == 11
    assert e.op == "+"
    assert e.children[0] == Expr("Q")


def test_seed_hand_evaluations():
    assert evaluate(ucb1_seed(SQRT2), EvalContext(0.0, 1.0, 1.0)) == 0.0
    assert evaluate(ucb1_seed(SQRT2), EvalContext(1.0, 1.0, 1.0)) == 1.0
    v = evaluate(ucb1_seed(1.0), EvalContext(0.5, math.e ** 2, 1.0))
    assert abs(v - 2.5) < 1e-12
    v = evaluate(ucb1_seed(2.0), EvalContext(0.0, 10.0, 2.0))
    assert abs(v - 2.0 * math.sqrt(math.log(10.0))) < 1e-12


def test_seed_matches_closed_form():
    rng = random.Random(11)
    for _ in range(1000):
        q = rng.random()
        n_parent = 1.0 + rng.random() * 9999.0
        n_child = 1.0 + rng.random() * (n_parent - 1.0)
        ctx = EvalContext(q, n_parent, n_child)
        for c in CONST_POOL:
            got = evaluate(ucb1_seed(c), ctx)
            want = ucb1_closed_form(c, q, n_parent, n_child)
            assert abs(got - want) < 1e-12


# ---------------------------------------------------------------------------
# total, pure, and compilable

def random_contexts(rng, n):
    out = []
    for _ in range(n):
        q = rng.uniform(-10.0, 10.0)
        n_parent = math.exp(rng.uniform(0.0, 20.0))
        n_child = 1.0 + rng.random() * (n_parent - 1.0)
        out.append(EvalContext(q, n_parent, n_child))
    out.append(EvalContext(0.0, 1.0, 1.0))
    out.append(EvalContext(1.0, 1e300, 1.0))
    return out


def test_evaluate_is_total_and_pure():
    rng = random.Random(12)
    ctxs = random_contexts(rng, 8)
    for _ in range(300):
        e = random_subtree(MAX_DEPTH, rng)
        for ctx in ctxs:
            v = evaluate(e, ctx)
            assert math.isfinite(v)
            assert evaluate(e, ctx) == v


def test_compiled_matches_interpreter_bit_for_bit():
    rng = random.Random(13)
    ctxs = random_contexts(rng, 10)
    for _ in range(300):
        e = random_subtree(MAX_DEPTH, rng)
        fn = compile_expr(e)
        for ctx in ctxs:
            assert fn(ctx.q, ctx.n_parent, ctx.n_child) == evaluate(e, ctx)


def test_compiled_seed_matches_interpreter():
    rng = random.Random(14)
    for c in CONST_POOL:
        fn = compile_expr(ucb1_seed(c))
        for _ in range(200):
            q = rng.random()
            n_parent = 1.0 + rng.random() * 5000.0
            n_child = 1.0 + rng.random() * (n_parent - 1.0)
            assert fn(q, n_parent, n_child) == evaluate(
                ucb1_seed(c), EvalContext(q, n_parent, n_child)
            )


# ---------------------------------------------------------------------------
# the generated selection step: protections kept only where they can fire

PROTECTIONS = {"_fin", "_pdiv", "_plog", "_psqrt"}


def kept_protections(e, k=2):
    return PROTECTIONS & set(compile_select(e, k).__code__.co_names)


@pytest.mark.parametrize("k", [2, 3])
def test_ucb1_select_is_guard_free(k):
    for c in CONST_POOL:
        assert kept_protections(ucb1_seed(c), k) == set()


def product_of_np(d):
    return "Np" if d == 1 else f"(* {product_of_np(d - 1)} {product_of_np(d - 1)})"


@pytest.mark.parametrize(
    "text, guard",
    [
        ("(pdiv Q (- Nc 1))", "_pdiv"),  # Nc = 1 divides by zero
        ("(plog Q)", "_plog"),  # Q = 0
        ("(psqrt (- Q 1))", "_psqrt"),  # Q < 1 is negative
        (product_of_np(MAX_DEPTH), "_fin"),  # Np ** 128 passes MAX_FLOAT
    ],
)
def test_protections_that_can_fire_are_kept(text, guard):
    assert guard in kept_protections(parse_text(text))


def test_dead_protections_are_dropped():
    # log(Np) >= 0 and Nc >= 1: no divisor near zero, no log argument near
    # zero, no negative root, no overflow
    assert kept_protections(parse_text("(pdiv (plog Np) Nc)")) == set()
    assert kept_protections(parse_text("(plog (+ Q 1))")) == set()
    assert kept_protections(parse_text("(psqrt (* Q 3))")) == set()
    # counts reach MAX_FLOAT, so Nc + Q may overflow; its log cannot fire
    assert kept_protections(parse_text("(plog (+ Nc Q))")) == {"_fin"}


# ---------------------------------------------------------------------------
# random growth

def test_random_subtree_budget_one_is_terminal():
    rng = random.Random(15)
    for _ in range(200):
        e = random_subtree(1, rng)
        assert not e.children


def test_random_subtree_respects_budget():
    rng = random.Random(16)
    for budget in (1, 2, 3, 5, 8):
        for _ in range(200):
            assert depth(random_subtree(budget, rng)) <= budget


def test_random_subtree_rejects_zero_budget():
    with pytest.raises(ValueError):
        random_subtree(0, random.Random(0))


def test_terminal_tags_uniform_at_budget_one():
    rng = random.Random(17)
    n = 10_000
    counts = {"Q": 0, "Np": 0, "Nc": 0, "const": 0}
    for _ in range(n):
        counts[random_subtree(1, rng).op] += 1
    for tag in counts:
        assert abs(counts[tag] / n - 0.25) <= 0.02, (tag, counts)


def test_random_constants_come_from_pool():
    rng = random.Random(18)

    def walk(e):
        if e.op == "const":
            assert e.value in CONST_POOL
        for k in e.children:
            walk(k)

    for _ in range(300):
        walk(random_subtree(MAX_DEPTH, rng))


# ---------------------------------------------------------------------------
# subtree mutation

def internal_paths(e, path=()):
    if not e.children:
        return set()
    out = {path}
    for i, k in enumerate(e.children):
        out |= internal_paths(k, path + (i,))
    return out


def test_choose_point_is_ninety_ten():
    rng = random.Random(19)
    seed = ucb1_seed(SQRT2)
    internals = internal_paths(seed)
    n = 10_000
    hits = sum(1 for _ in range(n) if _choose_point(seed, rng)[0] in internals)
    assert 0.88 <= hits / n <= 0.92


def test_choose_point_scripted_branches():
    e = binop("+", Expr("Q"), Expr("Nc"))
    # below 0.9 goes to the internal pool, which here is just the root
    assert _choose_point(e, ScriptedRng([0.5], [0])) == ((), 1)
    # at or above 0.9 picks among the two leaves
    assert _choose_point(e, ScriptedRng([0.95], [1])) == ((1,), 2)
    # a bare leaf is the only candidate and costs no draws
    assert _choose_point(Expr("Q"), ScriptedRng()) == ((), 1)


def test_mutate_single_leaf_regrows_root():
    rng = random.Random(20)
    e = Expr("Nc")
    results = [subtree_mutate(e, rng) for _ in range(300)]
    assert all(depth(r) <= MAX_DEPTH for r in results)
    assert any(r.children for r in results)
    assert e == Expr("Nc")


def test_mutate_never_exceeds_max_depth():
    rng = random.Random(21)
    for _ in range(200):
        e = random_subtree(MAX_DEPTH, rng)
        for _ in range(50):
            e = subtree_mutate(e, rng)
            assert depth(e) <= MAX_DEPTH


def test_mutate_leaves_input_untouched():
    rng = random.Random(22)
    e = ucb1_seed(SQRT2)
    text = to_text(e)
    for _ in range(100):
        subtree_mutate(e, rng)
    assert to_text(e) == text


def test_mutants_stay_evaluable():
    rng = random.Random(23)
    ctx = EvalContext(0.5, 100.0, 7.0)
    e = ucb1_seed(SQRT2)
    for _ in range(500):
        e = subtree_mutate(e, rng)
        assert math.isfinite(evaluate(e, ctx))


# ---------------------------------------------------------------------------
# text form

def test_to_text_terminals():
    assert to_text(Expr("Q")) == "Q"
    assert to_text(const(2)) == "2"
    assert to_text(const(0.5)) == "0.5"
    assert to_text(const(SQRT2)) == repr(SQRT2)


def test_to_text_seed():
    want = "(+ Q (* 2 (psqrt (pdiv (* 2 (plog Np)) Nc))))"
    assert to_text(ucb1_seed(2.0)) == want


def test_round_trip_seed_and_random_trees():
    rng = random.Random(24)
    for c in CONST_POOL:
        assert parse_text(to_text(ucb1_seed(c))) == ucb1_seed(c)
    for _ in range(500):
        e = random_subtree(MAX_DEPTH, rng)
        assert parse_text(to_text(e)) == e


def test_parse_tolerates_extra_whitespace():
    assert parse_text("  ( +   Q  Nc ) ") == binop("+", Expr("Q"), Expr("Nc"))


@pytest.mark.parametrize(
    "text,pos",
    [
        ("", 0),
        ("(+ Q", 4),
        ("(Q)", 1),
        ("(plog)", 5),
        ("(pdiv Q)", 7),
        ("(+ Q Nc))", 8),
        ("foo", 0),
        ("inf", 0),
        ("(bogus Q Nc)", 1),
        ("Q extra", 2),
    ],
)
def test_parse_errors_carry_positions(text, pos):
    with pytest.raises(ExprParseError) as err:
        parse_text(text)
    assert err.value.pos == pos
    assert f"(at position {pos})" in str(err.value)


def test_parse_accepts_plain_numbers():
    assert parse_text("3") == const(3)
    assert parse_text("1.4142135623730951") == const(SQRT2)


def test_arity_table_consistent():
    assert set(ARITY) == {"+", "-", "*", "pdiv", "plog", "psqrt"}
    assert all(a in (1, 2) for a in ARITY.values())
