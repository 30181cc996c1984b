"""Ground-truth embedding oracle, instance generators, and small-case enumerators.

The oracle is an exact backtracking search over tree vertices in BFS order from
a centroid, with sign-degree pruning and bitmask domains.  Generators cover the
extremal Burr host, the point-line incidence digraphs of PG(2,q) (a dense
K_{2,2}-free family), seeded random dense digraphs, and the full labeled
enumeration used by the exhaustive sweeps.
"""

from __future__ import annotations

import random
import time
from bisect import bisect_left
from dataclasses import dataclass

from .antitree import AntiTree, caterpillar_decompose, centroids, degree_stats, from_edges, rooted_view
from .convex import ConvexDigraph
from .digraph import Digraph, bits_of, degree_profile, neighbor_lists
from .errors import AntembedError

_PRIME_POWERS = {
    2: (2, 1, None),
    3: (3, 1, None),
    4: (2, 2, (1, 1)),       # x^2 + x + 1
    5: (5, 1, None),
    7: (7, 1, None),
    8: (2, 3, (1, 1, 0)),    # x^3 + x + 1
    9: (3, 2, (1, 0)),       # x^2 + 1
    11: (11, 1, None),
    13: (13, 1, None),
    16: (2, 4, (1, 1, 0, 0)),  # x^4 + x + 1
    17: (17, 1, None),
    19: (19, 1, None),
    23: (23, 1, None),
    25: (5, 2, (2, 0)),      # x^2 + 2
    29: (29, 1, None),
    31: (31, 1, None),
    37: (37, 1, None),
    41: (41, 1, None),
    43: (43, 1, None),
    47: (47, 1, None),
}


@dataclass(frozen=True)
class SearchStats:
    verdict: str  # "Embeds", "NotContained", "Inconclusive"
    witness: dict[int, int] | None
    nodes_expanded: int
    elapsed: float


def oracle_embed(d: Digraph, t: AntiTree, budget: int | None = None) -> SearchStats:
    """Exact decision of "t embeds in d", exhaustive when budget is None.

    The search stops as Inconclusive once it has expanded more than
    ``budget`` nodes; a negative budget is refused."""
    if budget is not None and budget < 0:
        raise AntembedError(f"budget must be non-negative, got {budget}")
    t0 = time.perf_counter()
    rv = rooted_view(t, min(centroids(t)))
    order = rv.bfs_order
    prof = degree_profile(d)
    degs = {1: prof.out_deg, -1: prof.in_deg}
    # host vertices by sign-degree, least first; a tree vertex tries only those
    # carrying its full sign-degree, a suffix of its sign's order
    by_slack = {sg: sorted(range(d.n), key=lambda c: (deg[c], c)) for sg, deg in degs.items()}
    tries = []
    for x in order:
        slack, deg = by_slack[t.sign[x]], degs[t.sign[x]]
        tries.append(slack[bisect_left(slack, t.deg[x], key=deg.__getitem__):])
    nodes = 0
    assign: dict[int, int] = {}

    def rec(i: int, used: int):
        nonlocal nodes
        if i == len(order):
            return True
        x = order[i]
        if i == 0:
            nbrs = -1
        else:
            # sign(x)=+ means the arc x->p, so the image must be an in-neighbor
            # of f(p); neighbor_bits flips accordingly
            nbrs = d.neighbor_bits(assign[rv.parent[x]], -t.sign[x]) & ~used
        inconclusive = False
        for c in tries[i]:
            if not (nbrs >> c) & 1:
                continue
            nodes += 1
            if budget is not None and nodes > budget:
                return None
            assign[x] = c
            res = rec(i + 1, used | (1 << c))
            if res:
                return True
            del assign[x]
            if res is None:
                inconclusive = True
                break
        return None if inconclusive else False

    res = rec(0, 0)
    elapsed = time.perf_counter() - t0
    if res:
        return SearchStats("Embeds", dict(assign), nodes, elapsed)
    if res is None:
        return SearchStats("Inconclusive", None, nodes, elapsed)
    return SearchStats("NotContained", None, nodes, elapsed)


def all_embeddings(d: Digraph, t: AntiTree):
    """Yield every embedding of t in d (desk scale only)."""
    rv = rooted_view(t, min(centroids(t)))
    order = rv.bfs_order
    assign: dict[int, int] = {}

    def rec(i: int, used: int):
        if i == len(order):
            yield dict(assign)
            return
        x = order[i]
        if i == 0:
            cand = (1 << d.n) - 1
        else:
            cand = d.neighbor_bits(assign[rv.parent[x]], -t.sign[x])
        for c in bits_of(cand & ~used):
            assign[x] = c
            yield from rec(i + 1, used | (1 << c))
            del assign[x]

    yield from rec(0, 0)


def brute_good_arcs(c: ConvexDigraph, t: AntiTree) -> set[tuple[int, int]]:
    """Goodness by definition: enumerate all embeddings, check the final-edge
    image and the parity side condition.  Independent of the staged construction."""
    dec = caterpillar_decompose(t)
    u, v = dec.spine[-1], dec.spine[-2]
    odd = len(dec.spine) % 2 == 1
    good = set()
    for f in all_embeddings(c.d, t):
        x, y = f[u], f[v]
        arc = (y, x) if t.sign[v] > 0 else (x, y)
        zone = c.interval(x, y) if odd else c.interval(y, x)
        if not (zone & set(f.values())):
            good.add(arc)
    return good


# -- generators --------------------------------------------------------


def gen_burr(k: int) -> Digraph:
    """The oriented K_{2k-2,2k-2} with half of each vertex's edges in either
    direction: exactly (k-1)n arcs, and the k-out-star does not embed."""
    if k < 2:
        raise AntembedError("gen_burr needs k >= 2")
    m = 2 * k - 2
    arcs = []
    for i in range(m):
        for tshift in range(m):
            j = (i + tshift) % m
            if 1 <= tshift <= k - 1:
                arcs.append((i, m + j))
            else:
                arcs.append((m + j, i))
    d = Digraph(2 * m, arcs)
    for v in range(d.n):
        if d.out_deg(v) != k - 1 or d.in_deg(v) != k - 1:
            raise AntembedError("burr regularity audit failed")
    return d


class _GF:
    """Arithmetic tables for GF(q), q a prime power from the supported list."""

    def __init__(self, q: int):
        if q not in _PRIME_POWERS:
            raise AntembedError(f"unsupported prime power q={q}")
        p, e, poly = _PRIME_POWERS[q]
        self.q = q
        if e == 1:
            self.add = [[(a + b) % p for b in range(p)] for a in range(p)]
            self.mul = [[(a * b) % p for b in range(p)] for a in range(p)]
            return

        def to_vec(a):
            v = []
            for _ in range(e):
                v.append(a % p)
                a //= p
            return v

        def to_int(v):
            a = 0
            for c in reversed(v):
                a = a * p + c
            return a

        def polymul(u, v):
            prod = [0] * (2 * e - 1)
            for i, ui in enumerate(u):
                if ui:
                    for j, vj in enumerate(v):
                        prod[i + j] = (prod[i + j] + ui * vj) % p
            # reduce by x^e = -(poly), poly listing low-order coefficients
            for i in range(2 * e - 2, e - 1, -1):
                c = prod[i]
                if c:
                    prod[i] = 0
                    for j in range(e):
                        prod[i - e + j] = (prod[i - e + j] - c * poly[j]) % p
            return prod[:e]

        self.add = [[0] * q for _ in range(q)]
        self.mul = [[0] * q for _ in range(q)]
        for a in range(q):
            va = to_vec(a)
            for b in range(q):
                vb = to_vec(b)
                self.add[a][b] = to_int([(x + y) % p for x, y in zip(va, vb)])
                self.mul[a][b] = to_int(polymul(va, vb))


def _projective_points(gf: _GF) -> list[tuple[int, int, int]]:
    q = gf.q
    pts = [(1, y, z) for y in range(q) for z in range(q)]
    pts += [(0, 1, z) for z in range(q)]
    pts.append((0, 0, 1))
    return pts


def gen_incidence(q: int) -> Digraph:
    """Point -> line incidence digraph of PG(2, q).

    Points occupy ids 0..N-1 and lines N..2N-1 with N = q^2 + q + 1, both in
    ``_projective_points``' layout: (1,y,z) at y q + z, (0,1,z) at q^2 + z,
    (0,0,1) at q^2 + q.  The arc set is exactly the incidence relation, so
    every vertex is a pure source or a pure sink and the digraph is
    antidirected.  Each point's q+1 lines are solved for, not searched: for
    (a,b,c) with c != 0 they are (1, y, -(a+by)/c) for each y, then
    (0, 1, -b/c); with c = 0 and b != 0, (1, -a/b, z) for each z, then
    (0,0,1); with b = c = 0, every (0,1,z), then (0,0,1).  Each list comes
    out in increasing id order, so arcs are listed point by point, lines
    ascending, in O(N q).
    """
    gf = _GF(q)
    add, mul = gf.add, gf.mul
    neg = [row.index(0) for row in add]
    inv = [None] + [row.index(1) for row in mul[1:]]
    qq = q * q
    N = qq + q + 1
    arcs = []
    for i, (a, b, c) in enumerate(_projective_points(gf)):
        if c:
            # -x / c is x times -1/c
            by, over = mul[b], mul[neg[inv[c]]]
            lines = [y * q + over[add[a][by[y]]] for y in range(q)]
            lines.append(qq + over[b])
        elif b:
            y = mul[neg[a]][inv[b]] * q
            lines = list(range(y, y + q))
            lines.append(qq + q)
        else:
            lines = list(range(qq, qq + q + 1))
        arcs += [(i, N + j) for j in lines]
    d = Digraph(2 * N, arcs)
    if d.a() != (q + 1) * N:
        raise AntembedError("incidence arc count audit failed")
    return d


def audit_projective(d: Digraph) -> bool:
    """Two points on exactly one common line, two lines through exactly one
    common point; checked directly on the bitmask adjacency.

    Points are ids 0..n/2-1 and lines the next n/2.  For each point i the
    in-rows of its out-neighbours are folded into two counters (``one``: in
    some row, ``two``: in two or more), and a point j sits in exactly
    |N+(i) ∩ N+(j)| of those rows; so i shares exactly one line with every
    other point iff every point but i is in ``one`` and none is in ``two``
    (i itself is in every row and is masked out).  Lines are checked the same
    way on their in-neighbours' out-rows.  The cost is 2 a(D) folded rows,
    read from the neighbour lists of the arc columns.
    """
    n2 = d.n // 2
    pts = (1 << n2) - 1
    outs, ins = neighbor_lists(d)
    for nbrs, folded, side in ((outs, d.in_bits, 0), (ins, d.out_bits, n2)):
        every = pts << side
        for v in range(side, side + n2):
            one = two = 0
            for w in nbrs[v]:
                row = folded[w]
                two |= one & row
                one |= row
            others = every ^ (1 << v)
            if one & others != others or two & others:
                return False
    return True


def gen_random_dense(n: int, k: int, seed: int) -> Digraph:
    """Uniform simple digraph with exactly (k-1)n + 1 arcs, reproducible."""
    if not (1 <= k <= n):
        raise AntembedError("need 1 <= k <= n")
    want = (k - 1) * n + 1
    if want > n * (n - 1):
        raise AntembedError(f"cannot place {want} arcs on {n} vertices")
    # index j is the j-th ordered pair (u, v), u != v, in row-major order
    arcs = []
    for j in random.Random(seed).sample(range(n * (n - 1)), want):
        u, v = divmod(j, n - 1)
        arcs.append((u, v + (v >= u)))
    return Digraph(n, arcs)


def sample_antitree(k: int, rng: random.Random) -> AntiTree:
    """Random k-arc antidirected tree: random labeled tree, random source side."""
    if k < 1:
        raise AntembedError(f"a tree needs at least one arc, got k={k}")
    n = k + 1
    if n == 2:
        edges = [(0, 1)]
    else:
        pruefer = [rng.randrange(n) for _ in range(n - 2)]
        deg = [1] * n
        for x in pruefer:
            deg[x] += 1
        edges = []
        import heapq

        leaves = [v for v in range(n) if deg[v] == 1]
        heapq.heapify(leaves)
        for x in pruefer:
            leaf = heapq.heappop(leaves)
            edges.append((leaf, x))
            deg[leaf] -= 1
            deg[x] -= 1
            if deg[x] == 1:
                heapq.heappush(leaves, x)
        last = [v for v in range(n) if deg[v] == 1]
        edges.append((last[0], last[1]))
    return from_edges(n, edges, rng.randrange(2))


def sample_antitree_heavy(k: int, rng: random.Random, delta2_min: int) -> AntiTree:
    """Random k-arc antidirected tree with second-highest degree >= delta2_min:
    two hubs joined by a short path, leaves split between them, leftovers
    attached uniformly."""
    if k < 1 or delta2_min > (k + 1) // 2:
        raise AntembedError(f"no {k}-arc tree has second-highest degree {delta2_min} or more")
    while True:
        d2v = rng.randint(delta2_min, (k + 1) // 2)
        plen = rng.randint(1, 3)
        hi = k - (d2v - 1) - plen + 1
        if hi < d2v:
            continue
        d1v = rng.randint(d2v, hi)
        edges = []
        route = [0] + list(range(2, 2 + plen - 1)) + [1]
        for a, b in zip(route, route[1:]):
            edges.append((a, b))
        nxt = 2 + plen - 1
        for _ in range(d1v - 1):
            edges.append((0, nxt))
            nxt += 1
        for _ in range(d2v - 1):
            edges.append((1, nxt))
            nxt += 1
        hosts = list(range(nxt))
        while nxt <= k:
            edges.append((rng.choice(hosts), nxt))
            hosts.append(nxt)
            nxt += 1
        t = from_edges(k + 1, edges, rng.randrange(2))
        if degree_stats(t).delta2 >= delta2_min:
            return t


_ENUM_MAX_N = 5  # 2^20 digraphs on 5 vertices, 2^30 on 6


def enumerate_digraphs(n: int):
    """Stream all labeled digraphs on n <= 5 vertices."""
    if n > _ENUM_MAX_N:
        raise AntembedError(f"n={n} above the guard {_ENUM_MAX_N}")
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    npairs = len(pairs)
    for mask in range(1 << npairs):
        yield Digraph(n, [pairs[i] for i in range(npairs) if (mask >> i) & 1])
