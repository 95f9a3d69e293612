"""Mutation check of the search step by step and the tests that guard it.

For each named mutant, copy the checkout to a temporary directory, apply one
exact string replacement to a file under src/, and run

    tests/test_oracles.py tests/test_expr.py tests/test_mcts.py
    tests/test_reference.py

there. A mutant passes the check when at least one test fails. An unmutated
copy runs first and must pass every test. The script exits 1 when a mutant
survives, when its anchor is not in the file exactly once, or when the
unmutated copy fails.

    python3 tools/mutants.py

Stdlib only; pytest collects nothing here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TESTS = ["tests/test_oracles.py", "tests/test_expr.py", "tests/test_mcts.py",
         "tests/test_reference.py"]

# name -> (file under src/, anchor, replacement)
MUTANTS = {
    "never emit the bound test": (
        "evomcts/expr.py",
        "    bounded = any(facts[n][4:] != general[n][4:] for n in facts)\n",
        "    bounded = False\n",
    ),
    "bound off by one, so a count of 2**53 hands over": (
        "evomcts/expr.py",
        '[f"np > {COUNT_BOUND}"]',
        '[f"np >= {COUNT_BOUND}"]',
    ),
    "test only np at the bound": (
        "evomcts/expr.py",
        ' + [f"k{i}.visits > {COUNT_BOUND}" for i in range(k)])',
        ")",
    ),
    "interpreter path with max() and no tie draw": (
        "evomcts/expr.py",
        "node = argmax(node.children,\n"
        "                              lambda c: _eval(e, c.total_reward / c.visits, np, c.visits), rng)",
        "node = max(node.children,\n"
        "                           key=lambda c: _eval(e, c.total_reward / c.visits, np, c.visits))",
    ),
    "handing over [path[-1]]": (
        "evomcts/expr.py",
        '"            return interpret(path, rng)"',
        '"            return interpret([path[-1]], rng)"',
    ),
    "building child (i + 1) % k": (
        "evomcts/mcts.py",
        "child_bounds(node.a, node.b, i, tree.cfg.branching)",
        "child_bounds(node.a, node.b, (i + 1) % tree.cfg.branching, tree.cfg.branching)",
    ),
    "not resetting ties": (
        "evomcts/expr.py",
        'f"    m, node, ties = s{i}, k{i}, 1",',
        'f"    m, node = s{i}, k{i}",',
    ),
    "taking the rightmost maximum": (
        "evomcts/expr.py",
        'f"if s{i} > m:",',
        'f"if s{i} >= m:",',
    ),
    "an overflow guard for a live _pdiv": (
        "evomcts/expr.py",
        "return lo, hi, False, helper, overflow and not helper",
        "return lo, hi, False, helper, overflow",
    ),
    "a bare quotient for a live pdiv that can overflow": (
        "evomcts/expr.py",
        'f"{args[0]} / {t}", _overflows(*general[id(e)][:2]), temps)',
        'f"{args[0]} / {t}", False, temps)',
    ),
    "a live pdiv's quotient saturated by the bounded facts": (
        "evomcts/expr.py",
        "_overflows(*general[id(e)][:2])",
        "_overflows(*facts[id(e)][:2])",
    ),
    "an overflow test that does not saturate": (
        "evomcts/expr.py",
        '< {_MAX} else _fin({t}))"',
        '< {_MAX} else {t})"',
    ),
    "a pdiv that skips its dividend when the guard fires": (
        "evomcts/expr.py",
        "    if _may_raise(e.children[0], facts):\n",
        "    if False:\n",
    ),
    "an inline plog without abs": (
        "evomcts/expr.py",
        'else log(abs({t})))"',
        'else log({t}))"',
    ),
    "the k = 2 comparison taking >=": (
        "evomcts/expr.py",
        '"if s0 > s1:"',
        '"if s0 >= s1:"',
    ),
    "a zero reward not counted at the root": (
        "evomcts/mcts.py",
        "    else:\n        for n in path:\n",
        "    else:\n        for n in path[1:]:\n",
    ),
    "the halving rollout going left on a draw of 0.5": (
        "evomcts/mcts.py",
        "if random() >= 0.5:",
        "if random() > 0.5:",
    ),
    "the inner k = 3 bound moved by one ulp": (
        "evomcts/fop.py",
        "    right = b if i == k - 1 else a + w * (i + 1) / k\n",
        "    right = b if i == k - 1 else a + w * (i + 1) / k\n"
        "    if (k, i) == (3, 0):\n"
        "        right = math.nextafter(right, 1.0)\n",
    ),
}

IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "out")


def run_tests(mutant: str | None) -> tuple[int, str, float]:
    """(pytest exit code, first failing test or '', seconds) on a copy of
    the checkout with mutant applied."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = os.path.join(tmp, "repo")
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        if mutant is not None:
            rel, anchor, replacement = MUTANTS[mutant]
            path = os.path.join(copy, "src", rel)
            with open(path) as fh:
                text = fh.read()
            if text.count(anchor) != 1:
                return -1, f"anchor found {text.count(anchor)} times in src/{rel}", 0.0
            with open(path, "w") as fh:
                fh.write(text.replace(anchor, replacement))
        env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"))
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p", "no:cacheprovider", *TESTS]
        start = time.monotonic()
        proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True)
        failed = next((line.split()[1] for line in proc.stdout.splitlines()
                       if line.startswith("FAILED ")), "")
        return proc.returncode, failed, time.monotonic() - start


def main() -> int:
    code, failed, secs = run_tests(None)
    print(f"{'clean' if code == 0 else 'FAILED':9} unmutated copy ({secs:.0f} s) {failed}")
    if code != 0:
        return 1
    bad = 0
    for name in MUTANTS:
        code, failed, secs = run_tests(name)
        # pytest exits 1 when some test failed; anything else (all passed,
        # interrupted, usage error, a missing anchor) does not count
        if code == 1:
            print(f"{'killed':9} {name} ({secs:.0f} s) by {failed}")
        elif code == -1:
            bad += 1
            print(f"{'NO ANCHOR':9} {name}: {failed}")
        else:
            bad += 1
            print(f"{'SURVIVED':9} {name} (pytest exit {code})")
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
