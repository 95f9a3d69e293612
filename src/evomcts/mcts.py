"""Monte Carlo tree search over the interval environment.

The statistics tree grows one node per iteration (select, expand, rollout,
backpropagate). Child choice during selection is argmax of a pluggable
policy expression evaluated on (Q child, N parent, N child); exact value
ties are broken uniformly at random. Installing a policy generates the
selection step for it (expr.compile_select), with evaluate() as its oracle.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

# compile_expr and children are not called here (expand builds only the
# chosen child), but stay bound as mcts.compile_expr and mcts.children:
# bench/tracing.py wraps those names
from .expr import Expr, compile_expr, compile_select, pick_tied  # noqa: F401
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
    is_terminal,
)


class TreeNode:
    """One statistics node; terminal states have no actions at all.

    born is the iteration that expanded the node, 0 for the root.
    """

    __slots__ = ("state", "born", "visits", "total_reward", "children", "untried_actions")

    def __init__(self, state: FopState, n_actions: int, born: int):
        self.state = state
        self.born = born
        self.visits = 0
        self.total_reward = 0
        self.children: List[TreeNode] = []
        self.untried_actions = list(range(n_actions))


class SearchTree:
    """Root node plus counters and the installed selection policy.

    nodes holds every node make_node has made, in birth order, and
    terminal_nodes counts the terminal ones among them: a node counts once
    make_node has made it, so the metrics read these instead of walking
    the tree.
    """

    def __init__(self, policy: Expr, cfg: FopConfig = FopConfig()):
        self.cfg = cfg
        self.nodes: List[TreeNode] = []
        self.terminal_nodes = 0
        self.root = self.make_node(ROOT)
        self.iterations_done = 0
        self.expansions_done = 0
        self.policy: Expr = None
        self._select = None
        self.set_policy(policy)

    def set_policy(self, e: Expr):
        self.policy = e
        self._select = compile_select(e, self.cfg.branching)

    def make_node(self, state: FopState, born: int = 0) -> TreeNode:
        """A new node for state, registered in nodes; the caller attaches it."""
        terminal = is_terminal(state, self.cfg)
        node = TreeNode(state, 0 if terminal else self.cfg.branching, born)
        self.nodes.append(node)
        self.terminal_nodes += terminal
        return node


def select(tree: SearchTree, rng) -> List[TreeNode]:
    """Path from the root to the first node that is expandable or terminal.

    Descends through fully expanded nodes by policy argmax; every child on
    the way has at least one visit, so the policy inputs are well defined.
    The step itself is generated for the installed policy by set_policy.
    """
    return tree._select(tree.root, rng)


def expand(tree: SearchTree, node: TreeNode, rng) -> Optional[TreeNode]:
    """Attach one new child under node, or None when node is terminal.

    Only the chosen child's state is built, with the float operations of
    fop.children, which stays as the oracle of this step.
    """
    acts = node.untried_actions
    if not acts:
        return None
    i = acts.pop(rng.randrange(len(acts)))
    s = node.state
    state = FopState(*child_bounds(s.a, s.b, i, tree.cfg.branching))
    child = tree.make_node(state, tree.iterations_done + 1)
    node.children.append(child)
    tree.expansions_done += 1
    return child


def rollout(fid: FunctionId, state: FopState, rng, cfg: FopConfig = FopConfig()) -> int:
    """Uniform random descent to a terminal interval, then one reward draw."""
    a, b = state.a, state.b
    k = cfg.branching
    t = cfg.threshold
    while (b - a) >= t:
        a, b = child_bounds(a, b, int(rng.random() * k), k)
    return bernoulli(f_eval(fid, (a + b) / 2.0), rng)


def backpropagate(path: List[TreeNode], reward: int):
    for n in path:
        n.visits += 1
        n.total_reward += reward


def run_iterations(tree: SearchTree, fid: FunctionId, n: int, rng) -> List[int]:
    """Run n complete iterations; returns the sampled rewards in order."""
    rewards = []
    for _ in range(n):
        path = select(tree, rng)
        child = expand(tree, path[-1], rng)
        if child is not None:
            path.append(child)
        r = rollout(fid, path[-1].state, rng, tree.cfg)
        backpropagate(path, r)
        tree.iterations_done += 1
        rewards.append(r)
    return rewards


def argmax(items: Sequence, key: Callable, rng):
    """Item with the largest key, exact ties broken uniformly at random.

    rng is drawn from only when more than one item ties, so a unique
    maximum leaves the stream untouched.
    """
    vals = [key(x) for x in items]
    m = max(vals)
    if vals.count(m) == 1:
        return items[vals.index(m)]
    return pick_tied(items, vals, m, rng)


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
    x = center(node.state)
    return x, f_eval(fid, x)


def recommend_best_reward(tree: SearchTree, fid: FunctionId, rng) -> Tuple[float, float]:
    """Like recommend_most_visited but following max mean reward."""
    node = _descend(tree.root, lambda k: k.total_reward / k.visits, rng)
    x = center(node.state)
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
        s = node.state
        lines.append(f"{d},{s.a!r},{s.b!r},{node.visits},{node.total_reward}")
    return "\n".join(lines) + "\n"
