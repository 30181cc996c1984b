import itertools
import os
import pickle
import random
import subprocess
import sys
from collections import deque
from pathlib import Path

import networkx as nx
import pytest

import antembed as ae
from antembed.antitree import _level_sequences, canonical_form, from_edges
from antembed.digraph import Digraph


def T(n, arcs):
    return ae.validate_antitree(Digraph(n, arcs))


def out_star(k):
    return T(k + 1, [(0, i) for i in range(1, k + 1)])


DOUBLE_STAR = T(6, [(0, 1), (0, 2), (0, 3), (4, 1), (5, 1)])  # u=0, v=1


def test_validate_examples():
    t = T(3, [(0, 1), (2, 1)])
    assert t.sign == (1, -1, 1)
    with pytest.raises(ae.NotAntidirected) as exc:
        T(3, [(0, 1), (1, 2)])
    assert exc.value.witness == (0, 1, 2)
    assert out_star(4).sign == (1, -1, -1, -1, -1)


def test_validate_rejections():
    with pytest.raises(ae.NotATree):
        T(3, [(0, 1)])  # wrong order for the arc count
    with pytest.raises(ae.NotATree):
        T(2, [(0, 1), (1, 0)])  # multi-edge underneath
    with pytest.raises(ae.NotATree):
        ae.validate_antitree(Digraph(4, [(0, 1), (2, 3), (0, 3), (2, 1)]))  # cycle
    with pytest.raises(ae.NotATree):
        ae.validate_antitree(Digraph(1, []))
    with pytest.raises(ae.NotATree, match="both arcs between 1 and 0"):
        T(3, [(0, 1), (1, 0)])  # a 2-cycle, with the order a tree of 2 arcs needs
    with pytest.raises(ae.NotATree, match="disconnected"):
        T(4, [(0, 1), (1, 2), (2, 0)])  # a triangle and an isolated vertex


def test_degree_stats():
    s = ae.degree_stats(out_star(5))
    assert (s.delta, s.delta2) == (5, 1)
    s = ae.degree_stats(DOUBLE_STAR)
    assert (s.delta, s.delta2) == (3, 3)
    assert s.argmax_u != s.argmax2_v
    path = T(5, [(0, 1), (2, 1), (2, 3), (4, 3)])
    s = ae.degree_stats(path)
    assert (s.delta, s.delta2) == (2, 2)
    assert (s.argmax_u, s.argmax2_v) == (1, 2)
    assert ae.degree_stats(path) is s


def test_degree_stats_match_the_key_max_reference():
    # the least-id witnesses of the (degree, -id) maximum, as a key-max reads them
    trees = [t for k in range(1, 8) for t in ae.enumerate_antitrees(k)]
    rng = random.Random(77)
    trees += [ae.sample_antitree(rng.randint(1, 40), rng) for _ in range(500)]
    for t in trees:
        deg = t.deg
        u = max(range(t.n), key=lambda v: (deg[v], -v))
        v2 = max((v for v in range(t.n) if v != u), key=lambda v: (deg[v], -v))
        s = ae.degree_stats(t)
        assert (s.delta, s.delta2, s.argmax_u, s.argmax2_v) == (deg[u], deg[v2], u, v2), t


def test_spine_path_and_star():
    path = T(5, [(0, 1), (2, 1), (2, 3), (4, 3)])
    dec = ae.caterpillar_decompose(path)
    assert set(dec.spine) == {0, 1, 2, 3, 4} and not any(dec.leaves_at.values())
    star = out_star(4)
    dec = ae.caterpillar_decompose(star)
    assert len(dec.spine) == 3 and dec.leaves_at[0] == (3, 4)


def test_spine_spider_rejected():
    # three legs of length two: the smallest non-caterpillar
    arcs = [(0, 1), (2, 1), (0, 3), (4, 3), (0, 5), (6, 5)]
    spider = T(7, arcs)
    with pytest.raises(ae.NotACaterpillar):
        ae.caterpillar_decompose(spider)
    assert not ae.is_caterpillar(spider)


def test_spine_double_star_frozen():
    # lexicographically least longest path, computed by enumerating all
    # longest paths of this 6-vertex tree
    dec = ae.caterpillar_decompose(DOUBLE_STAR)
    assert dec.spine == (2, 0, 1, 4)
    assert dec.leaves_at[0] == (3,) and dec.leaves_at[1] == (5,)


def _bfs_far(t, src):
    dist = {src: 0}
    prev = {src: None}
    q = deque([src])
    while q:
        x = q.popleft()
        for y in t.adj[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                prev[y] = x
                q.append(y)
    return dist, prev


def _longest_paths(t):
    """All diameter paths, each direction listed separately: the all-sources
    search the linear spine search replaced, kept as its reference."""
    per_source = {s: _bfs_far(t, s) for s in range(t.n)}
    diam = max(max(dist.values()) for dist, _ in per_source.values())
    paths = []
    for s, (dist, prev) in per_source.items():
        for e, de in dist.items():
            if de == diam:
                seq = [e]
                while seq[-1] != s:
                    seq.append(prev[seq[-1]])
                seq.reverse()
                paths.append(tuple(seq))
    return paths


def _reference_decompose(t):
    """(spine, leaves_at) from the least of all diameter paths, or the
    NotACaterpillar witness vertex."""
    spine = min(_longest_paths(t))
    inner = set(spine[1:-1])
    leaves_at = {p: [] for p in spine}
    for v in range(t.n):
        if v in spine:
            continue
        nb = [w for w in t.adj[v] if w in inner]
        if t.deg[v] != 1 or not nb:
            return v
        leaves_at[nb[0]].append(v)
    return spine, {p: tuple(sorted(ls)) for p, ls in leaves_at.items()}


def _decompose_or_witness(t):
    try:
        dec = ae.caterpillar_decompose(t)
    except ae.NotACaterpillar as exc:
        return exc.witness
    return dec.spine, dict(dec.leaves_at)


def test_linear_spine_matches_all_paths_reference():
    trees = [t for k in range(1, 10) for t in ae.enumerate_antitrees(k)]
    rng = random.Random(4711)
    trees += [ae.sample_antitree(rng.randint(1, 60), rng) for _ in range(2000)]
    for t in trees:
        assert _decompose_or_witness(t) == _reference_decompose(t), t


def test_fresh_decomposition_stores_only_the_spine():
    # the spine search walks the adjacency itself: no rooted view is memoized
    rng = random.Random(13)
    for _ in range(50):
        t = ae.sample_antitree(13, rng)
        if ae.is_caterpillar(t):
            assert set(t._memo) == {("spine",)}
        else:
            assert not t._memo


def test_spine_decomposition_is_read_only():
    dec = ae.caterpillar_decompose(DOUBLE_STAR)
    with pytest.raises(TypeError):
        dec.leaves_at[0] = ()


def test_pickled_tree_leaves_its_memo_behind():
    # sweeps send trees to worker processes; a read-only leaves_at does not pickle
    ae.caterpillar_decompose(DOUBLE_STAR)
    copy = pickle.loads(pickle.dumps(DOUBLE_STAR))
    assert copy == DOUBLE_STAR and copy._memo is None
    assert hash(copy) == hash(DOUBLE_STAR) == hash(copy)  # the second read is the cached hash
    assert repr(copy) == repr(DOUBLE_STAR) == "AntiTree(k=5, arcs=[(0, 1), (0, 2), (0, 3), (4, 1), (5, 1)])"
    assert ae.caterpillar_decompose(copy) == ae.caterpillar_decompose(DOUBLE_STAR)


def test_caterpillar_leaf_strip_cross_check():
    # classical criterion: stripping all leaves leaves a (possibly empty) path
    for k in range(1, 6):
        for t in ae.enumerate_antitrees(k):
            inner = [v for v in range(t.n) if t.deg[v] > 1]
            g = nx.Graph([(a, b) for a, b in t.tree.arcs if a in inner and b in inner])
            g.add_nodes_from(inner)
            is_path = (
                len(inner) == 0
                or (nx.is_connected(g) and sum(1 for _, dg in g.degree if dg > 2) == 0)
            )
            assert ae.is_caterpillar(t) == is_path


def test_double_broom():
    b = ae.double_broom(DOUBLE_STAR, 0, 1)
    assert b.vertices == frozenset(range(6))
    # adding a far leaf keeps it out of the broom
    t2 = T(7, [(0, 1), (0, 2), (0, 3), (4, 1), (5, 1), (6, 2)])
    b2 = ae.double_broom(t2, 0, 1)
    assert 6 not in b2.vertices and b2.vertices == frozenset(range(6))
    # path with pendant leaves only at the ends
    t3 = T(6, [(0, 1), (2, 1), (2, 3), (4, 3), (4, 5)])
    b3 = ae.double_broom(t3, 0, 5)
    assert b3.vertices == frozenset(range(6))
    with pytest.raises(ae.AntembedError):
        ae.double_broom(DOUBLE_STAR, 0, 0)
    with pytest.raises(ae.AntembedError, match="vertex not in tree"):
        ae.double_broom(DOUBLE_STAR, 0, 6)


def test_path_reads_the_view_rooted_at_its_first_end():
    rng = random.Random(21)
    for _ in range(200):
        t = ae.sample_antitree(rng.randint(1, 20), rng)
        u, v = rng.sample(range(t.n), 2)
        path = t.path(u, v)
        assert set(t._memo) == {("rooted", u)}
        assert path[0] == u and path[-1] == v
        assert all(b in t.adj[a] for a, b in zip(path, path[1:]))
        assert path == t.path(v, u)[::-1]


def test_rooted_view():
    s = out_star(4)
    rv = ae.rooted_view(s, 0)
    assert all(rv.parent[v] == 0 and rv.depth[v] == 1 for v in range(1, 5))
    p = T(3, [(0, 1), (2, 1)])
    rv = ae.rooted_view(p, 0)
    assert rv.parent[1] == 0 and rv.parent[2] == 1
    k = 6
    arcs = []
    for i in range(k):
        arcs.append((i, i + 1) if i % 2 == 0 else (i + 1, i))
    path = T(k + 1, arcs)
    rv = ae.rooted_view(path, 0)
    assert sum(rv.depth) == k * (k + 1) // 2
    for root in (-1, path.n):
        with pytest.raises(ae.AntembedError, match="vertex not in tree"):
            ae.rooted_view(path, root)


def _labeled_classes(k):
    """Independent enumeration: all antidirected orientations of all labeled
    trees on k+1 vertices, grouped by digraph isomorphism via networkx."""
    reps = []
    n = k + 1
    for edges in itertools.combinations(itertools.combinations(range(n), 2), k):
        g = nx.Graph(edges)
        if g.number_of_nodes() != n or not nx.is_connected(g):
            continue
        color = nx.algorithms.bipartite.color(g)
        for src in (0, 1):
            arcs = [(a, b) if color[a] == src else (b, a) for a, b in edges]
            dg = nx.DiGraph(arcs)
            if not any(nx.is_isomorphic(dg, r) for r in reps):
                reps.append(dg)
    return len(reps)


def test_enumerate_counts():
    assert len(ae.enumerate_antitrees(1)) == 1
    assert len(ae.enumerate_antitrees(2)) == 2
    # frozen from the independent labeled enumeration below
    assert len(ae.enumerate_antitrees(3)) == 3
    assert _labeled_classes(3) == 3
    for k in (0, 10):
        with pytest.raises(ae.AntembedError, match=f"k={k} outside"):
            ae.enumerate_antitrees(k)


def _networkx_antitrees(k):
    """The enumeration as it read networkx's free trees, kept as the reference
    for the level-sequence generator: same labels, arc order and signs."""
    out, seen = [], set()
    for g in nx.nonisomorphic_trees(k + 1):
        edges = [tuple(e) for e in g.edges()]
        for source_colour in (0, 1):
            t = from_edges(k + 1, edges, source_colour)
            key = canonical_form(t)
            if key not in seen:
                seen.add(key)
                out.append(t)
    out.sort(key=canonical_form)
    return out


def test_enumeration_matches_the_networkx_reference():
    for k in range(1, 10):
        got, want = ae.enumerate_antitrees(k), _networkx_antitrees(k)
        assert [(t.tree.arcs, t.sign) for t in got] == [(t.tree.arcs, t.sign) for t in want], k


def test_free_tree_counts():
    # OEIS A000055: free trees on 1 to 10 vertices
    assert [sum(1 for _ in _level_sequences(n)) for n in range(1, 11)] == [1, 1, 1, 2, 3, 6, 11, 23, 47, 106]


def test_enumeration_needs_no_networkx():
    # a None entry in sys.modules makes every import of networkx fail
    code = """
import sys
sys.modules["networkx"] = None
import antembed as ae
trees = [t for k in range(1, 10) for t in ae.enumerate_antitrees(k)]
cat = [t for t in ae.enumerate_antitrees(9) if ae.is_caterpillar(t)][-1]
host = ae.Digraph(10, [(u, v) for u in range(10) for v in range(10) if u != v])
assert ae.validate_embedding(cat, host, ae.embed_caterpillar(host, cat).map)
print(len(trees))
"""
    src = str(Path(ae.__file__).resolve().parents[1])
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert res.returncode == 0, res.stderr
    assert int(res.stdout) == sum(len(ae.enumerate_antitrees(k)) for k in range(1, 10))


def test_enumerate_validated_and_distinct():
    for k in range(1, 6):
        ts = ae.enumerate_antitrees(k)
        keys = {canonical_form(t) for t in ts}
        assert len(keys) == len(ts)
        for t in ts:
            assert t.k == k
            assert set(t.sign) <= {1, -1} and len(t.sign) == k + 1
            assert all(t.sign[u] == 1 and t.sign[v] == -1 for u, v in t.tree.arcs)
            assert max(t.deg) <= k


def test_reverse_antitree():
    t = out_star(3)
    r = ae.reverse_antitree(t)
    assert r.sign[0] == -1 and all(r.sign[i] == 1 for i in range(1, 4))
