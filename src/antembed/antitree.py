"""Antidirected trees: validation, signs, degree statistics, caterpillar spine
decomposition, double brooms, rooted views, and exhaustive enumeration.

An antidirected tree has no directed path of length two, so every vertex is a
pure source (sign +) or a pure sink (sign -), and its whole neighborhood is
its sign-typed neighborhood.

This module is the one place that walks, colours, centres or spines a tree:
``_bfs`` is its only breadth-first walk, ``from_edges`` its only two-colouring
and ``centroids`` its only centre search.  An AntiTree value is immutable and
carries the same lazy memo as ``Digraph`` (``digraph.memoized``): its degree
statistics, its spine decomposition, its reversal, its rooted views and its
double brooms (each with its own spine decomposition) are computed once per
tree, and no memo entry references the tree that holds it.  The spine
search takes four plain walks (``_walk``) and one greedy descent, so it is
linear in the tree's size and builds no rooted view.  The enumeration reads
its free trees off level sequences (``_level_sequences``), so it needs no
graph library.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from .digraph import Digraph, memoized, neighbor_lists, reverse
from .errors import NotACaterpillar, NotAntidirected, NotATree, AntembedError

PLUS = 1
MINUS = -1
_ENUM_MAX_K = 9  # enumerate_antitrees' largest k


class AntiTree:
    """A validated antidirected tree on k+1 vertices with k arcs.

    ``sign[v]`` is +1 for out-vertices and -1 for in-vertices.  ``adj[v]`` is
    the sorted tuple of tree neighbors (equal to the sign-typed neighborhood).
    """

    __slots__ = ("tree", "k", "sign", "adj", "deg", "_hash", "_memo")

    def __init__(self, tree: Digraph, sign: tuple[int, ...], adj: tuple[tuple[int, ...], ...]):
        self.tree = tree
        self.k = tree.a()
        self.sign = sign
        self.adj = adj
        self.deg = tuple(len(a) for a in adj)
        self._hash = None
        self._memo = None

    def __reduce__(self):
        # a pickled tree leaves its memo behind; the entries are rebuilt on demand
        return AntiTree, (self.tree, self.sign, self.adj)

    @property
    def n(self) -> int:
        return self.tree.n

    def path(self, u: int, v: int) -> list[int]:
        """The unique u-v path, endpoints included, read up the view rooted
        at u (the hub's view, which the embedder builds anyway)."""
        parent = rooted_view(self, u).parent
        out = [v]
        while out[-1] != u:
            out.append(parent[out[-1]])
        out.reverse()
        return out

    def __eq__(self, other):
        return isinstance(other, AntiTree) and self.tree == other.tree

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.tree)
        return self._hash

    def __repr__(self):
        return f"AntiTree(k={self.k}, arcs={sorted(self.tree.arcs)})"


def _bfs(adj, root: int) -> tuple[list[int], list[int]]:
    """Breadth-first order from ``root`` over the neighbor lists ``adj``, and
    each vertex's parent: the root is its own parent, an unreached vertex has
    parent -1."""
    parent = [-1] * len(adj)
    parent[root] = root
    order = [root]
    for x in order:
        for y in adj[x]:
            if parent[y] < 0:
                parent[y] = x
                order.append(y)
    return order, parent


def _walk(adj, root: int) -> tuple[list[int], list[int], list[int]]:
    """``_bfs`` from ``root`` and each vertex's depth below it."""
    order, parent = _bfs(adj, root)
    depth = [0] * len(adj)
    for y in order[1:]:
        depth[y] = depth[parent[y]] + 1
    return order, parent, depth


def validate_antitree(d: Digraph) -> AntiTree:
    """Check that d is an antidirected tree and attach signs.

    Raises NotATree for cycles, disconnection, multi-edges or the empty tree,
    and NotAntidirected (with the witness triple) for a directed 2-path.
    """
    k = d.a()
    if k < 1:
        raise NotATree("trees with zero arcs are rejected")
    if d.n != k + 1:
        raise NotATree(f"{d.n} vertices with {k} arcs cannot form a tree")
    outs, ins = neighbor_lists(d)
    adj, sign, mixed = [], [], []
    for v, (o, i) in enumerate(zip(outs, ins)):
        adj.append(tuple(sorted(o + i)))
        sign.append(PLUS if o else MINUS)
        if o and i:
            mixed.append(v)
    if any(set(outs[v]).intersection(ins[v]) for v in mixed):
        # name the first arc, in input order, whose reverse came before it
        seen = set()
        for u, v in d.arcs:
            if (v, u) in seen:
                raise NotATree(f"both arcs between {u} and {v}")
            seen.add((u, v))
    adj = tuple(adj)
    # connectivity; with exactly n-1 edges this also rules out cycles
    if len(_bfs(adj, 0)[0]) != d.n:
        raise NotATree("underlying graph is disconnected")
    if mixed:
        # the first in-arc and out-arc of the first mixed vertex, in input order
        v = mixed[0]
        raise NotAntidirected((ins[v][0], v, outs[v][0]))
    return AntiTree(d, tuple(sign), adj)


def from_edges(n: int, edges, source_colour: int) -> AntiTree:
    """The antidirected tree on the undirected ``edges`` of a tree on n
    vertices whose colour class ``source_colour`` (0 holds vertex 0) is the
    source side; each edge, in the given order, becomes one arc."""
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    order, parent = _bfs(adj, 0)
    colour = [0] * n
    for y in order[1:]:
        colour[y] = 1 - colour[parent[y]]
    return validate_antitree(Digraph(n, [(a, b) if colour[a] == source_colour else (b, a) for a, b in edges]))


@dataclass(frozen=True)
class DegreeStats:
    delta: int
    delta2: int
    argmax_u: int
    argmax2_v: int


def degree_stats(t: AntiTree) -> DegreeStats:
    """Delta and Delta_2 with distinct least-id witnesses, memoized on ``t``."""
    return memoized(t, ("degrees",), lambda: _degree_stats(t))


def _degree_stats(t: AntiTree) -> DegreeStats:
    degs = t.deg
    delta = max(degs)
    u = degs.index(delta)
    delta2 = max(degs[:u] + degs[u + 1 :])
    # u is the least vertex of degree delta, so any other one lies after it
    v2 = degs.index(delta2, u + 1) if delta2 == delta else degs.index(delta2)
    return DegreeStats(delta=delta, delta2=delta2, argmax_u=u, argmax2_v=v2)


@dataclass(frozen=True)
class SpineDecomposition:
    spine: tuple[int, ...]
    leaves_at: Mapping[int, tuple[int, ...]] = field(compare=False)  # read-only


def caterpillar_decompose(t: AntiTree) -> SpineDecomposition:
    """Spine decomposition with the lexicographically least longest path,
    memoized on ``t``.

    Fails with NotACaterpillar (witness: a vertex at distance >= 2 from the
    chosen longest path) when some vertex is not a leaf hanging off the spine.
    A star decomposes with its 2-edge diameter path as the spine; the single
    arc is its own spine.
    """
    return memoized(t, ("spine",), lambda: _caterpillar_decompose(t))


def _least_diameter_path(t: AntiTree) -> tuple[int, ...]:
    """The lexicographically least diameter path, in linear time.

    The far end a of a walk from 0 and the far end b of a walk from a span a
    diameter, so the eccentricity of v is max(dist_a[v], dist_b[v]).  The
    least path starts at the least v of eccentricity diam and, walking from
    there, steps each time to the least neighbour c other than its
    predecessor that is still on a diameter path, that is, with
    depth[c] + height[c] = diam."""
    adj = t.adj
    a = _bfs(adj, 0)[0][-1]
    order, _, dist_a = _walk(adj, a)
    b = order[-1]
    diam = dist_a[b]
    dist_b = _walk(adj, b)[2]
    start = next(v for v, (x, y) in enumerate(zip(dist_a, dist_b)) if x == diam or y == diam)
    order, parent, depth = _walk(adj, start)
    height = [0] * t.n
    for x in reversed(order[1:]):
        p = parent[x]
        if height[p] <= height[x]:
            height[p] = height[x] + 1
    path = [start]
    while len(path) <= diam:
        x = path[-1]
        path.append(next(c for c in adj[x] if c != parent[x] and depth[c] + height[c] == diam))
    return tuple(path)


def _caterpillar_decompose(t: AntiTree) -> SpineDecomposition:
    spine = _least_diameter_path(t)
    on = set(spine)
    inner = set(spine[1:-1])
    leaves_at: dict[int, list[int]] = {p: [] for p in spine}
    for v, nb in enumerate(t.adj):
        if v in on:
            continue
        if len(nb) != 1 or nb[0] not in inner:
            raise NotACaterpillar(v)
        leaves_at[nb[0]].append(v)  # in increasing order
    return SpineDecomposition(spine=spine, leaves_at=MappingProxyType({p: tuple(ls) for p, ls in leaves_at.items()}))


def is_caterpillar(t: AntiTree) -> bool:
    try:
        caterpillar_decompose(t)
        return True
    except NotACaterpillar:
        return False


@dataclass(frozen=True)
class DoubleBroom:
    vertices: frozenset[int]
    path_uv: tuple[int, ...]
    dec: SpineDecomposition  # of B_uv, in t's labels


def double_broom(t: AntiTree, u: int, v: int) -> DoubleBroom:
    """B_uv: closed neighborhoods of u and v plus the u-v path, memoized on
    ``t`` for each (u, v), with the decomposition ``caterpillar_decompose``
    gives B_uv (the path and the least leaf at each end) in t's labels."""
    if u == v:
        raise AntembedError("double broom needs two distinct vertices")
    if not (0 <= u < t.n and 0 <= v < t.n):
        raise AntembedError("vertex not in tree")
    return memoized(t, ("broom", u, v), lambda: _double_broom(t, u, v))


def _double_broom(t: AntiTree, u: int, v: int) -> DoubleBroom:
    path = tuple(t.path(u, v))
    on = set(path)
    a, b = ([w for w in t.adj[x] if w not in on] for x in (u, v))  # sorted
    verts = frozenset(on.union(a, b))
    # an end with no leaf of its own hangs off the path; one vertex left is a star's centre
    inner = path[(not a) : len(path) - (not b)]
    a, b = a or [u], b or [v]
    if len(inner) == 1:
        a, b = sorted(a + b)[:1], sorted(a + b)[1:]
    spine = (a[0], *inner, b[0]) if a[0] < b[0] else (b[0], *reversed(inner), a[0])
    leaves_at = dict.fromkeys(spine, ())
    if inner:
        leaves_at[inner[0]], leaves_at[inner[-1]] = tuple(a[1:]), tuple(b[1:])
    return DoubleBroom(verts, path, SpineDecomposition(spine, MappingProxyType(leaves_at)))


@dataclass(frozen=True)
class RootedAntiTree:
    parent: tuple[int | None, ...]
    depth: tuple[int, ...]
    bfs_order: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]


def rooted_view(t: AntiTree, root: int) -> RootedAntiTree:
    """Parent/depth arrays for the tree rooted at ``root``, memoized on ``t``
    for each root.

    Since the tree is antidirected, the parent of x automatically lies in
    N^{sign(x)}(x); no extra convention is needed.
    """
    if not (0 <= root < t.n):
        raise AntembedError("vertex not in tree")
    return memoized(t, ("rooted", root), lambda: _rooted_view(t, root))


def _rooted_view(t: AntiTree, root: int) -> RootedAntiTree:
    order, parent, depth = _walk(t.adj, root)
    children = [[] for _ in range(t.n)]
    for y in order[1:]:
        children[parent[y]].append(y)
    parent[root] = None
    return RootedAntiTree(
        parent=tuple(parent),
        depth=tuple(depth),
        bfs_order=tuple(order),
        children=tuple(tuple(c) for c in children),
    )


def reverse_antitree(t: AntiTree) -> AntiTree:
    """t with every arc flipped: the signs flip and nothing is re-checked.

    Memoized on ``t`` (so ``reverse_antitree(t) is reverse_antitree(t)``), but
    not the other way round: the double reversal is a new value equal to
    ``t``, since a back-link would make the two trees a reference cycle."""
    return memoized(t, ("reverse",), lambda: AntiTree(reverse(t.tree), tuple(-s for s in t.sign), t.adj))


# -- enumeration -------------------------------------------------------


def centroids(t: AntiTree) -> list[int]:
    """The one or two vertices left when leaf layers are peeled off until at
    most two remain (the centre of the tree), in increasing order."""
    deg = list(t.deg)
    layer = [v for v in range(t.n) if deg[v] == 1]
    left = t.n
    while left > 2:
        left -= len(layer)
        nxt = []
        for v in layer:
            for w in t.adj[v]:
                deg[w] -= 1
                if deg[w] == 1:
                    nxt.append(w)
        layer = nxt
    return sorted(layer)


def canonical_form(t: AntiTree):
    """Canonical key for signed-tree isomorphism.

    AHU-style subtree encoding rooted at the centroid(s), with the vertex sign
    folded into every code.  Two antidirected trees get the same key iff they
    are isomorphic as digraphs.
    """

    def enc(x, p):
        subs = sorted(enc(y, x) for y in t.adj[x] if y != p)
        return (t.sign[x], tuple(subs))

    return min(enc(c, -1) for c in centroids(t))


def _next_rooted(seq: list[int], p: int) -> list[int]:
    """Beyer and Hedetniemi's successor of ``seq``: from position p > 0 on,
    repeat the subtree at the last q < p one level above seq[p]."""
    q = p - 1 - seq[p - 1 :: -1].index(seq[p] - 1)
    return seq[:p] + [seq[q + i % (p - q)] for i in range(len(seq) - p)]


def _level_sequences(n: int):
    """One level sequence (each vertex's depth, in preorder) per free tree on
    n vertices, rooted at a centre: the algorithm of Wright, Richmond,
    Odlyzko and McKay (SIAM J. Comput. 15(2), 1986), from the path on."""
    seq = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while True:
        m = seq.index(1, 2) if 1 in seq[2:] else n  # the root's second child
        left, rest = [x - 1 for x in seq[1:m]], [0] + seq[m:]
        if (max(left, default=-1), len(left), left) > (max(rest), len(rest), rest):
            # the first subtree outgrows the rest: step past it
            deep, seq = seq[m - 1] > 2, _next_rooted(seq, m - 1)
            if deep:  # the root is left one child: end on a branch as deep as the tree
                h = max(seq)
                seq[-h:] = range(1, h + 1)
        yield seq
        if max(seq) < 2:  # the star comes last
            return
        seq = _next_rooted(seq, max(i for i, x in enumerate(seq) if x != 1))


def _level_edges(seq: list[int]) -> list[tuple[int, int]]:
    """The edges of the tree with level sequence ``seq`` (n >= 2, vertex i the
    i-th in preorder): (1, 0), then the children of 1, 0, 2, 3, ... in turn."""
    children, path = [[] for _ in seq], [0]  # path[d]: the last vertex seen at depth d
    for i, depth in enumerate(seq[1:], 1):
        children[path[depth - 1]].append(i)
        path[depth:] = [i]
    return [(1, 0)] + [(v, c) for v in (1, 0, *range(2, len(seq))) for c in children[v] if c != 1]


def enumerate_antitrees(k: int) -> list[AntiTree]:
    """Every isomorphism class of k-arc antidirected trees, 1 <= k <= 9, once.

    Underlying trees come from level sequences; each bipartition class becomes
    the source side in turn, and sign-annotated canonical forms deduplicate
    the two orientations (an even path, say, yields only one class).
    """
    if not 1 <= k <= _ENUM_MAX_K:
        raise AntembedError(f"k={k} outside the enumeration range 1..{_ENUM_MAX_K}")
    out: list[AntiTree] = []
    seen = set()
    for edges in map(_level_edges, _level_sequences(k + 1)):
        for source_colour in (0, 1):
            t = from_edges(k + 1, edges, source_colour)
            key = canonical_form(t)
            if key not in seen:
                seen.add(key)
                out.append(t)
    out.sort(key=canonical_form)
    return out
