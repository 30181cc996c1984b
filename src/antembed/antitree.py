"""Antidirected trees: validation, signs, degree statistics, caterpillar spine
decomposition, double brooms, rooted views, and exhaustive enumeration.

An antidirected tree has no directed path of length two, so every vertex is a
pure source (sign +) or a pure sink (sign -), and its whole neighborhood is
its sign-typed neighborhood.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .digraph import Digraph
from .errors import NotACaterpillar, NotAntidirected, NotATree, AntembedError

PLUS = 1
MINUS = -1


class AntiTree:
    """A validated antidirected tree on k+1 vertices with k arcs.

    ``sign[v]`` is +1 for out-vertices and -1 for in-vertices.  ``adj[v]`` is
    the sorted tuple of tree neighbors (equal to the sign-typed neighborhood).
    """

    __slots__ = ("tree", "k", "sign", "adj", "deg", "_hash")

    def __init__(self, tree: Digraph, sign: tuple[int, ...], adj: tuple[tuple[int, ...], ...]):
        self.tree = tree
        self.k = tree.a()
        self.sign = sign
        self.adj = adj
        self.deg = tuple(len(a) for a in adj)
        self._hash = None

    @property
    def n(self) -> int:
        return self.tree.n

    def vertices(self) -> range:
        return range(self.tree.n)

    def leaves(self) -> list[int]:
        return [v for v in range(self.n) if self.deg[v] == 1]

    def non_leaves(self) -> list[int]:
        return [v for v in range(self.n) if self.deg[v] > 1]

    def plus_minus(self) -> tuple[set[int], set[int]]:
        """(T+, T-)."""
        return (
            {v for v in range(self.n) if self.sign[v] > 0},
            {v for v in range(self.n) if self.sign[v] < 0},
        )

    def path(self, u: int, v: int) -> list[int]:
        """The unique u-v path, endpoints included."""
        if u == v:
            return [u]
        prev = {u: None}
        q = deque([u])
        while q:
            x = q.popleft()
            if x == v:
                break
            for y in self.adj[x]:
                if y not in prev:
                    prev[y] = x
                    q.append(y)
        out = [v]
        while out[-1] != u:
            out.append(prev[out[-1]])
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
    adj = [set() for _ in range(d.n)]
    for u, v in d.arcs:
        if v in adj[u]:
            raise NotATree(f"both arcs between {u} and {v}")
        adj[u].add(v)
        adj[v].add(u)
    # connectivity; with exactly n-1 edges this also rules out cycles
    seen = {0}
    q = deque([0])
    while q:
        x = q.popleft()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                q.append(y)
    if len(seen) != d.n:
        raise NotATree("underlying graph is disconnected")
    sign = []
    for v in range(d.n):
        if d.out_bits[v] and d.in_bits[v]:
            # the first in-arc and out-arc of v in input order
            x = next(u for u, w in d.arcs if w == v)
            y = next(w for u, w in d.arcs if u == v)
            raise NotAntidirected((x, v, y))
        sign.append(PLUS if d.out_bits[v] else MINUS)
    return AntiTree(d, tuple(sign), tuple(tuple(sorted(a)) for a in adj))


@dataclass(frozen=True)
class DegreeStats:
    delta: int
    delta2: int
    argmax_u: int
    argmax2_v: int
    leaves: frozenset[int]
    non_leaves: frozenset[int]
    leaf_nbrs: tuple[tuple[int, ...], ...]      # L_x: leaf neighbors of x
    nonleaf_nbrs: tuple[tuple[int, ...], ...]   # Lbar_x


def degree_stats(t: AntiTree) -> DegreeStats:
    """Delta, Delta_2 (with distinct least-id witnesses) and the leaf partitions."""
    degs = t.deg
    u = max(range(t.n), key=lambda v: (degs[v], -v))
    rest = [v for v in range(t.n) if v != u]
    v2 = max(rest, key=lambda v: (degs[v], -v))
    leaves = frozenset(t.leaves())
    return DegreeStats(
        delta=degs[u],
        delta2=degs[v2],
        argmax_u=u,
        argmax2_v=v2,
        leaves=leaves,
        non_leaves=frozenset(range(t.n)) - leaves,
        leaf_nbrs=tuple(tuple(w for w in t.adj[x] if w in leaves) for x in range(t.n)),
        nonleaf_nbrs=tuple(tuple(w for w in t.adj[x] if w not in leaves) for x in range(t.n)),
    )


@dataclass(frozen=True)
class SpineDecomposition:
    spine: tuple[int, ...]
    leaves_at: dict[int, tuple[int, ...]] = field(compare=False)
    final_vertex: int = 0
    final_arc: tuple[int, int] = (0, 0)


def _bfs_far(t: AntiTree, src: int):
    dist = {src: 0}
    prev = {src: None}
    q = deque([src])
    order = []
    while q:
        x = q.popleft()
        order.append(x)
        for y in t.adj[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                prev[y] = x
                q.append(y)
    return dist, prev, order


def _longest_paths(t: AntiTree) -> list[tuple[int, ...]]:
    """All diameter paths, each direction listed separately."""
    d0, _, _ = _bfs_far(t, 0)
    diam = 0
    per_source = {}
    for s in range(t.n):
        dist, prev, _ = _bfs_far(t, s)
        per_source[s] = (dist, prev)
        diam = max(diam, max(dist.values()))
    paths = []
    for s in range(t.n):
        dist, prev = per_source[s]
        for e, de in dist.items():
            if de == diam:
                seq = [e]
                while seq[-1] != s:
                    seq.append(prev[seq[-1]])
                seq.reverse()
                paths.append(tuple(seq))
    return paths


def caterpillar_decompose(t: AntiTree) -> SpineDecomposition:
    """Spine decomposition with the lexicographically least longest path.

    Fails with NotACaterpillar (witness: a vertex at distance >= 2 from the
    chosen longest path) when some vertex is not a leaf hanging off the spine.
    A star decomposes with its 2-edge diameter path as the spine; the single
    arc is its own spine.
    """
    paths = _longest_paths(t)
    spine = min(paths)
    on = set(spine)
    inner = set(spine[1:-1])
    leaves_at: dict[int, list[int]] = {p: [] for p in spine}
    for v in range(t.n):
        if v in on:
            continue
        nb = [w for w in t.adj[v] if w in inner]
        if t.deg[v] != 1 or not nb:
            raise NotACaterpillar(v)
        leaves_at[nb[0]].append(v)
    final = spine[-1]
    other = spine[-2]
    arc = (other, final) if t.sign[other] > 0 else (final, other)
    return SpineDecomposition(
        spine=spine,
        leaves_at={p: tuple(sorted(ls)) for p, ls in leaves_at.items()},
        final_vertex=final,
        final_arc=arc,
    )


def is_caterpillar(t: AntiTree) -> bool:
    try:
        caterpillar_decompose(t)
        return True
    except NotACaterpillar:
        return False


@dataclass(frozen=True)
class DoubleBroom:
    u: int
    v: int
    vertices: frozenset[int]
    path_uv: tuple[int, ...]


def double_broom(t: AntiTree, u: int, v: int) -> DoubleBroom:
    """B_uv: closed neighborhoods of u and v plus the u-v path."""
    if u == v:
        raise AntembedError("double broom needs two distinct vertices")
    if not (0 <= u < t.n and 0 <= v < t.n):
        raise AntembedError("vertex not in tree")
    path = tuple(t.path(u, v))
    verts = set(path) | {u, v} | set(t.adj[u]) | set(t.adj[v])
    return DoubleBroom(u=u, v=v, vertices=frozenset(verts), path_uv=path)


@dataclass(frozen=True)
class RootedAntiTree:
    base: AntiTree
    root: int
    parent: tuple[int | None, ...]
    depth: tuple[int, ...]
    bfs_order: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]


def rooted_view(t: AntiTree, root: int) -> RootedAntiTree:
    """Parent/depth arrays for the tree rooted at ``root``.

    Since the tree is antidirected, the parent of x automatically lies in
    N^{sign(x)}(x); no extra convention is needed.
    """
    if not (0 <= root < t.n):
        raise AntembedError("vertex not in tree")
    parent: list[int | None] = [None] * t.n
    depth = [0] * t.n
    children = [[] for _ in range(t.n)]
    order = []
    seen = {root}
    q = deque([root])
    while q:
        x = q.popleft()
        order.append(x)
        for y in t.adj[x]:
            if y not in seen:
                seen.add(y)
                parent[y] = x
                depth[y] = depth[x] + 1
                children[x].append(y)
                q.append(y)
    return RootedAntiTree(
        base=t,
        root=root,
        parent=tuple(parent),
        depth=tuple(depth),
        bfs_order=tuple(order),
        children=tuple(tuple(c) for c in children),
    )


# -- enumeration -------------------------------------------------------


def canonical_form(t: AntiTree):
    """Canonical key for signed-tree isomorphism.

    AHU-style subtree encoding rooted at the centroid(s), with the vertex sign
    folded into every code.  Two antidirected trees get the same key iff they
    are isomorphic as digraphs.
    """

    def centroid(adj, n):
        if n == 1:
            return [0]
        deg = [len(a) for a in adj]
        lay = [v for v in range(n) if deg[v] == 1]
        removed = 0
        while n - removed > 2:
            nxt = []
            for v in lay:
                removed += 1
                for w in adj[v]:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
            lay = nxt
        return sorted(lay)

    def encode(root):
        def enc(x, p):
            subs = sorted(enc(y, x) for y in t.adj[x] if y != p)
            return (t.sign[x], tuple(subs))

        return enc(root, -1)

    cents = centroid(t.adj, t.n)
    return min(encode(c) for c in cents)


def _bipartition(edges: list[tuple[int, int]], n: int) -> list[int]:
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    color = [-1] * n
    color[0] = 0
    q = deque([0])
    while q:
        x = q.popleft()
        for y in adj[x]:
            if color[y] < 0:
                color[y] = 1 - color[x]
                q.append(y)
    return color


def enumerate_antitrees(k: int, max_k: int = 8) -> list[AntiTree]:
    """Every isomorphism class of k-arc antidirected trees, exactly once.

    Underlying trees come from networkx; each bipartition class becomes the
    source side in turn, and sign-annotated canonical forms deduplicate the
    two orientations (an even path, say, yields only one class).
    """
    import networkx as nx

    if k < 1:
        raise AntembedError("k must be at least 1")
    if k > max_k:
        raise AntembedError(f"k={k} above the configured bound {max_k}; pass max_k to override")
    out: list[AntiTree] = []
    seen = set()
    for g in nx.nonisomorphic_trees(k + 1):
        edges = [tuple(e) for e in g.edges()]
        color = _bipartition(edges, k + 1)
        for source_color in (0, 1):
            arcs = []
            for a, b in edges:
                if color[a] == source_color:
                    arcs.append((a, b))
                else:
                    arcs.append((b, a))
            t = validate_antitree(Digraph(k + 1, arcs))
            key = canonical_form(t)
            if key not in seen:
                seen.add(key)
                out.append(t)
    out.sort(key=canonical_form)
    return out


def reverse_antitree(t: AntiTree) -> AntiTree:
    from .digraph import reverse as rev

    return validate_antitree(rev(t.tree))
