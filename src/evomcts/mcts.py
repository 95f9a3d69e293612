"""Monte Carlo tree search over the interval environment.

The statistics tree grows one node per iteration (select, expand, rollout,
backpropagate). Child choice during selection is argmax of a pluggable
policy expression evaluated on (Q child, N parent, N child); exact value
ties are broken uniformly at random. Installing a policy installs the
selection step generated for it (expr.compile_select), with evaluate() as
its oracle: the policy's protections are written in place, and for two
children the argmax is one conditional expression over their scores. On
a tie, the step for two children draws with expr.randbelow, the draw
expand pops its action with, and a step for more calls pick_tied. The
generated steps are cached for the whole process, keyed by policy and
branching, so a policy that any tree installed recently is not generated
again.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

# compile_expr and children are not called here (expand builds only the
# chosen child), but stay bound as mcts.compile_expr and mcts.children:
# bench/tracing.py wraps those names
from .expr import Expr, argmax, compile_expr, compile_select, randbelow  # noqa: F401
from .fop import (  # noqa: F401
    ROOT,
    FopConfig,
    FopState,
    FunctionId,
    bernoulli,
    center,
    child_bounds,
    children,
    f_eval,
)


class TreeNode:
    """One statistics node over the interval [a, b]; terminal intervals
    have no actions at all.

    born is the iteration that expanded the node, 0 for the root; actions
    becomes the node's own list of untried actions.
    """

    __slots__ = ("a", "b", "born", "visits", "total_reward", "children", "untried_actions")

    def __init__(self, a: float, b: float, actions: List[int], born: int):
        self.a = a
        self.b = b
        self.born = born
        self.visits = 0
        self.total_reward = 0
        self.children: List[TreeNode] = []
        self.untried_actions = actions

    @property
    def state(self) -> FopState:
        """The interval as a FopState, built on each read."""
        return FopState(self.a, self.b)


class SearchTree:
    """Root node plus counters and the installed selection policy.

    nodes holds every node make_node has made, in birth order, and
    terminal_nodes counts the terminal ones among them: a node counts once
    make_node has made it, so the metrics read these instead of walking
    the tree.
    """

    def __init__(self, policy: Expr, cfg: FopConfig = FopConfig()):
        self.cfg = cfg
        self._actions = list(range(cfg.branching))
        self.nodes: List[TreeNode] = []
        self.terminal_nodes = 0
        self.root = self.make_node(ROOT.a, ROOT.b)
        self.iterations_done = 0
        self.expansions_done = 0
        self.policy: Expr = None
        self._select = None
        self.set_policy(policy)

    def set_policy(self, e: Expr):
        """Install e, with its select from compile_select's cache, which
        every tree of the process shares."""
        self.policy = e
        self._select = compile_select(e, self.cfg.branching)

    def make_node(self, a: float, b: float, born: int = 0) -> TreeNode:
        """A new node for [a, b], registered in nodes; the caller attaches it."""
        if not 0.0 <= a < b <= 1.0:
            raise ValueError(f"need 0 <= a < b <= 1, got [{a}, {b}]")
        terminal = (b - a) < self.cfg.threshold
        node = TreeNode(a, b, [] if terminal else self._actions.copy(), born)
        self.nodes.append(node)
        self.terminal_nodes += terminal
        return node


def select(tree: SearchTree, rng) -> List[TreeNode]:
    """Path from the root to the first node that is expandable or terminal.

    Descends through fully expanded nodes by policy argmax; every child on
    the way has at least one visit, so the policy inputs are well defined.
    The step itself is generated for the installed policy by set_policy.
    """
    return tree._select([tree.root], rng)


def expand(tree: SearchTree, node: TreeNode, rng) -> Optional[TreeNode]:
    """Attach one new child under node, or None when node is terminal.

    The action is drawn by randbelow, rng.randrange(len(actions))'s draw
    taken straight from getrandbits. Only the chosen child's bounds are
    computed, with the float operations of fop.children, which stays as the
    oracle of this step.
    """
    acts = node.untried_actions
    if not acts:
        return None
    i = acts.pop(randbelow(rng, len(acts)))
    a, b = child_bounds(node.a, node.b, i, tree.cfg.branching)
    child = tree.make_node(a, b, tree.iterations_done + 1)
    node.children.append(child)
    tree.expansions_done += 1
    return child


def rollout(fid: FunctionId, node, rng, cfg: FopConfig = FopConfig()) -> int:
    """Uniform random descent from node's interval (anything with a and b)
    to a terminal interval, then one reward draw.

    Each level draws child int(rng.random() * k). For k = 2 that is the
    right half when the draw is >= 0.5, and the descent halves the width:
    from bounds that are multiples of a power of two, as every bound of a
    binary tree is, the halves are exact, so they are the bounds
    child_bounds gives (FopConfig keeps the threshold where floats hold
    them).
    """
    a, b = node.a, node.b
    k = cfg.branching
    t = cfg.threshold
    if k == 2:
        random = rng.random
        w = b - a
        while w >= t:
            w /= 2.0
            if random() >= 0.5:
                a += w
        return bernoulli(f_eval(fid, a + w / 2.0), rng)
    while (b - a) >= t:
        a, b = child_bounds(a, b, int(rng.random() * k), k)
    return bernoulli(f_eval(fid, (a + b) / 2.0), rng)


def backpropagate(path: List[TreeNode], reward: int):
    if reward:
        for n in path:
            n.visits += 1
            n.total_reward += reward
    else:
        for n in path:
            n.visits += 1


def run_iterations(tree: SearchTree, fid: FunctionId, n: int, rng) -> List[int]:
    """Run n complete iterations; returns the sampled rewards in order."""
    rewards = []
    for _ in range(n):
        path = select(tree, rng)
        child = expand(tree, path[-1], rng)
        if child is not None:
            path.append(child)
        r = rollout(fid, path[-1], rng, tree.cfg)
        backpropagate(path, r)
        tree.iterations_done += 1
        rewards.append(r)
    return rewards


def _descend(node: TreeNode, key, rng) -> TreeNode:
    while True:
        kids = [k for k in node.children if k.visits > 0]
        if not kids:
            return node
        node = argmax(kids, key, rng)


def recommend_most_visited(tree: SearchTree, fid: FunctionId, rng) -> Tuple[float, float]:
    """Follow max-visits children to a leaf; report its midpoint and value.

    The reported value is the true landscape value at the midpoint, not a
    reward sample. Ties are broken uniformly at random.
    """
    node = _descend(tree.root, lambda k: k.visits, rng)
    x = center(node)
    return x, f_eval(fid, x)


def recommend_best_reward(tree: SearchTree, fid: FunctionId, rng) -> Tuple[float, float]:
    """Like recommend_most_visited but following max mean reward."""
    node = _descend(tree.root, lambda k: k.total_reward / k.visits, rng)
    x = center(node)
    return x, f_eval(fid, x)


def iter_nodes(tree: SearchTree):
    """Yield (node, depth below root) over the whole tree, preorder.

    A walk of the links, for dump_tree and as the reference for tree.nodes.
    """
    stack = [(tree.root, 0)]
    while stack:
        node, d = stack.pop()
        yield node, d
        for k in reversed(node.children):
            stack.append((k, d + 1))


def dump_tree(tree: SearchTree) -> str:
    """Line per node: depth,a,b,visits,total_reward (preorder). Debug aid."""
    lines = []
    for node, d in iter_nodes(tree):
        lines.append(f"{d},{node.a!r},{node.b!r},{node.visits},{node.total_reward}")
    return "\n".join(lines) + "\n"
