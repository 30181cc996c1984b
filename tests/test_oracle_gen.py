import hashlib
import heapq
import random
import time

import pytest

import antembed as ae
from antembed import oracle_gen
from antembed.antitree import from_edges
from antembed.digraph import Digraph
from antembed.oracle_gen import _PRIME_POWERS, _field, _projective_points, sample_antitree_heavy

D1 = Digraph(3, [(0, 1), (2, 1)])


def T(n, arcs):
    return ae.validate_antitree(Digraph(n, arcs))


def test_oracle_examples():
    in_star = T(3, [(0, 1), (2, 1)])
    assert ae.oracle_embed(D1, in_star).verdict == "Embeds"
    out_star = T(3, [(1, 0), (1, 2)])
    assert ae.oracle_embed(D1, out_star).verdict == "NotContained"
    for k in (2, 3, 4, 5, 6):
        burr = ae.gen_burr(k)
        star = T(k + 1, [(0, i) for i in range(1, k + 1)])
        st = ae.oracle_embed(burr, star)
        assert st.verdict == "NotContained"


def test_oracle_witness_validates():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(3, 9)
        k = rng.randint(1, min(5, n - 1))
        t = ae.sample_antitree(k, rng)
        arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.5]
        d = Digraph(n, arcs)
        st = ae.oracle_embed(d, t)
        if st.verdict == "Embeds":
            assert ae.validate_embedding(t, d, st.witness)
        # reversal symmetry of the verdict
        st2 = ae.oracle_embed(ae.reverse(d), ae.reverse_antitree(t))
        assert st.verdict == st2.verdict


def test_oracle_budget():
    host = Digraph(12, [(u, v) for u in range(12) for v in range(12) if u != v])
    t = T(8, [(0, i) for i in range(1, 7)] + [(7, 1)])
    st = ae.oracle_embed(host, t, budget=2)
    assert st.verdict == "Inconclusive" and st.nodes_expanded >= 2


def test_an_inconclusive_search_stops_at_the_first_node_past_its_budget():
    # the full search takes 112 nodes to refute this tree in this host
    d = Digraph(7, [(0, 2), (0, 4), (1, 0), (1, 3), (1, 4), (2, 1), (2, 5), (2, 6), (3, 6),
                    (4, 1), (4, 3), (4, 5), (5, 0), (5, 1), (5, 3), (5, 6), (6, 0)])
    t = T(7, [(0, 5), (1, 3), (4, 5), (2, 5), (2, 3), (6, 3)])
    for budget in range(112):
        st = ae.oracle_embed(d, t, budget=budget)
        assert (st.verdict, st.nodes_expanded) == ("Inconclusive", budget + 1)
    for budget in (112, None):
        st = ae.oracle_embed(d, t, budget=budget)
        assert (st.verdict, st.nodes_expanded) == ("NotContained", 112)


def test_oracle_refuses_a_negative_budget():
    host = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    t = T(2, [(0, 1)])
    with pytest.raises(ae.AntembedError, match="budget must be non-negative"):
        ae.oracle_embed(host, t, budget=-1)
    assert ae.oracle_embed(host, t, budget=0).verdict == "Inconclusive"
    assert ae.oracle_embed(host, t, budget=1).verdict == "Inconclusive"
    assert ae.oracle_embed(host, t, budget=2).verdict == "Embeds"


def test_gen_burr():
    for k in range(2, 13):
        d = ae.gen_burr(k)
        assert d.n == 4 * k - 4
        assert d.a() == (k - 1) * d.n == (2 * k - 2) ** 2
        for v in range(d.n):
            assert d.out_deg(v) == k - 1 and d.in_deg(v) == k - 1
    d2 = ae.gen_burr(2)
    assert d2.n == 4 and d2.a() == 4
    with pytest.raises(ae.AntembedError, match="k >= 2"):
        ae.gen_burr(1)


def test_burr_contains_all_other_small_antitrees():
    # at k <= 4, every class except the out-star fits (sign-degree profile
    # bounded by k-1), confirmed exhaustively by the oracle
    for k in (2, 3, 4):
        burr = ae.gen_burr(k)
        star_key = frozenset([(k, 0)])
        for t in ae.enumerate_antitrees(k):
            st = ae.oracle_embed(burr, t)
            is_out_star = max(t.deg) == k and t.sign[max(range(t.n), key=lambda v: t.deg[v])] > 0
            in_star = max(t.deg) == k and not is_out_star
            if is_out_star or in_star:
                assert st.verdict == "NotContained"
            else:
                assert st.verdict == "Embeds"


def test_gen_incidence_small():
    fano = ae.gen_incidence(2)
    assert fano.n == 14 and fano.a() == 21
    assert ae.is_k2s_free(fano, 2) is True
    assert ae.audit_projective(fano)
    plus, minus = ae.digraph.side_bits(fano, 1), ae.digraph.side_bits(fano, -1)
    assert plus.bit_count() == 7 and minus.bit_count() == 7 and not (plus & minus)
    for q in (3, 4, 5, 29, 31, 37, 41, 43, 47):
        d = ae.gen_incidence(q)
        N = q * q + q + 1
        assert d.n == 2 * N and d.a() == (q + 1) * N
        assert ae.audit_projective(d)
        assert ae.is_k2s_free(d, 2, prune=True) is True
    # PG(2,7) without the arcs into its first line: that line meets no other
    d = ae.gen_incidence(7)
    line = d.n // 2
    assert ae.audit_projective(d)
    assert not ae.audit_projective(ae.Digraph(d.n, [a for a in d.arcs if a[1] != line]))
    with pytest.raises(ae.AntembedError):
        ae.gen_incidence(6)


def test_gen_incidence_25_shape():
    d = ae.gen_incidence(25)
    assert d.n == 1302 and d.a() == 16926
    assert d.a() > 12 * d.n


class ReferenceGF:
    """GF(q) tables as the library built them before one construction served
    every q: a prime path, and polynomial products reduced mod x^e + poly."""

    def __init__(self, q: int):
        p, poly = _PRIME_POWERS[q]
        e = len(poly)
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


def test_field_matches_the_reference_tables():
    assert len(_PRIME_POWERS) == 20
    for q in _PRIME_POWERS:
        ref = ReferenceGF(q)
        assert _field(q) == (ref.add, ref.mul), q
    with pytest.raises(ae.AntembedError, match="unsupported prime power q=6"):
        _field(6)


def reference_incidence(q):
    """PG(2,q) by testing every point against every line, over the reference
    field."""
    gf = ReferenceGF(q)
    pts = _projective_points(q)
    N = len(pts)
    arcs = []
    for i, (a, b, c) in enumerate(pts):
        for j, (x, y, z) in enumerate(pts):
            if gf.add[gf.mul[a][x]][gf.add[gf.mul[b][y]][gf.mul[c][z]]] == 0:
                arcs.append((i, N + j))
    return Digraph(2 * N, arcs)


def reference_audit(d):
    """The projective axioms tested on every pair of points and of lines."""
    n2 = d.n // 2
    for i in range(n2):
        for j in range(i + 1, n2):
            if (d.out_bits[i] & d.out_bits[j]).bit_count() != 1:
                return False
            if (d.in_bits[n2 + i] & d.in_bits[n2 + j]).bit_count() != 1:
                return False
    return True


def test_gen_incidence_matches_all_pairs_reference():
    for q in [q for q in sorted(_PRIME_POWERS) if q <= 25] + [29, 31]:
        d, ref = ae.gen_incidence(q), reference_incidence(q)
        assert d.arcs == ref.arcs and d.in_bits == ref.in_bits, q


def test_audit_projective_matches_pairwise_reference():
    # seeded PG(2,q), q <= 7, less some arcs or plus point->line, line->point
    # and point->point arcs
    rng = random.Random(28)
    verdicts = {True: 0, False: 0}
    for _ in range(400):
        base = ae.gen_incidence(rng.choice([2, 3, 4, 5, 7]))
        N = base.n // 2
        arcs = set(base.arcs)
        for _ in range(rng.randint(0, 3)):
            kind = rng.choice(["delete", "point-line", "line-point", "point-point"])
            if kind == "delete":
                arcs.discard(rng.choice(sorted(arcs)))
            elif kind == "point-line":
                arcs.add((rng.randrange(N), N + rng.randrange(N)))
            elif kind == "line-point":
                arcs.add((N + rng.randrange(N), rng.randrange(N)))
            else:
                arcs.add(tuple(rng.sample(range(N), 2)))
        d = Digraph(base.n, sorted(arcs))
        verdict = ae.audit_projective(d)
        assert verdict == reference_audit(d)
        verdicts[verdict] += 1
    assert verdicts[True] > 50 and verdicts[False] > 50


@pytest.mark.parametrize("q", [5, 9])
def test_a_wrong_field_entry_fails_the_projective_audit(monkeypatch, q):
    # one product off by one (2 * 4 is neither 0 nor 1 in either field, so
    # every inverse is still found and the plane is built)
    def broken(q):
        add, mul = _field(q)
        mul = [row[:] for row in mul]
        mul[2][4] = (mul[2][4] + 1) % q
        return add, mul

    assert ae.audit_projective(ae.gen_incidence(q))
    monkeypatch.setattr(oracle_gen, "_field", broken)
    d = ae.gen_incidence(q)
    assert d.a() == (q + 1) * (q * q + q + 1)
    assert not ae.audit_projective(d)


def test_gen_random_dense():
    d1 = ae.gen_random_dense(10, 3, seed=5)
    d2 = ae.gen_random_dense(10, 3, seed=5)
    assert d1 == d2 and d1.a() == 2 * 10 + 1
    assert d1 != ae.gen_random_dense(10, 3, seed=6)
    with pytest.raises(ae.AntembedError):
        ae.gen_random_dense(3, 3, seed=0)
    with pytest.raises(ae.AntembedError, match="1 <= k <= n"):
        ae.gen_random_dense(3, 4, seed=0)


def test_gen_random_dense_samples_pair_indices():
    # the sampled indices decode to the arcs a sample of the pairs list picks
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(2, 12)
        k = rng.randint(1, n - 1)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        want = random.Random(seed).sample(pairs, (k - 1) * n + 1)
        assert ae.gen_random_dense(n, k, seed=seed).arcs == tuple(want)
    # no pair is listed, so a refusal on a large order costs nothing
    start = time.perf_counter()
    with pytest.raises(ae.AntembedError, match="cannot place"):
        ae.gen_random_dense(100_000, 100_000, seed=0)
    assert time.perf_counter() - start < 1.0


def test_sample_antitree():
    rng = random.Random(0)
    for k in (1, 2, 5, 13):
        t = ae.sample_antitree(k, rng)
        assert t.k == k
    t = sample_antitree_heavy(13, rng, 6)
    assert ae.degree_stats(t).delta2 >= 6


def heap_sample_antitree(k, rng):
    """sample_antitree as it was: Pruefer decoding with a heap of the leaves,
    and the one-arc tree apart."""
    n = k + 1
    if n == 2:
        edges = [(0, 1)]
    else:
        pruefer = [rng.randrange(n) for _ in range(n - 2)]
        deg = [1] * n
        for x in pruefer:
            deg[x] += 1
        edges = []
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


def test_sample_antitree_matches_the_heap_reference():
    for k in range(1, 61):
        rng, ref_rng = random.Random(k), random.Random(k)
        for _ in range(25):
            t, ref = ae.sample_antitree(k, rng), heap_sample_antitree(k, ref_rng)
            assert t.tree.arcs == ref.tree.arcs and t.sign == ref.sign, k
            assert rng.getstate() == ref_rng.getstate()


def test_sampled_trees_frozen():
    # sha256 of the arcs of the first 300 k=13 trees of each generator at
    # seed 1302, frozen before the generators shared one two-colouring
    def digest(draw):
        rng = random.Random(1302)
        return hashlib.sha256(repr([draw(rng).tree.arcs for _ in range(300)]).encode()).hexdigest()

    assert digest(lambda rng: ae.sample_antitree(13, rng)) == (
        "82a9a71163c72566b6c8bea0cd0a03acfcc51179540b391fd4cf2e4ae1ad5a87")
    assert digest(lambda rng: sample_antitree_heavy(13, rng, 6)) == (
        "57d9362f1db7075c1fc991459479233216dd4645bf0618da56896f7e5198f65b")


def test_enumerate_digraphs():
    assert sum(1 for _ in ae.enumerate_digraphs(2)) == 4
    assert sum(1 for _ in ae.enumerate_digraphs(3)) == 64
    assert sum(1 for _ in ae.enumerate_digraphs(4)) == 4096
    with pytest.raises(ae.AntembedError):
        next(ae.enumerate_digraphs(6))


def test_samplers_reject_impossible_arguments():
    rng = random.Random(0)
    with pytest.raises(ae.AntembedError):
        ae.sample_antitree(0, rng)
    with pytest.raises(ae.AntembedError):
        sample_antitree_heavy(0, rng, 1)
    with pytest.raises(ae.AntembedError):
        sample_antitree_heavy(6, rng, 4)  # no 6-arc tree has two vertices of degree 4


def test_n3_containment_recount():
    # independent recount for the two 2-arc classes over all 64 digraphs:
    # the out-star sits in a digraph iff some out-degree reaches 2 (27 of
    # 4^3 = 64 row patterns have none), so 37 digraphs; dually for the in-star
    out_star = T(3, [(1, 0), (1, 2)])
    in_star = T(3, [(0, 1), (2, 1)])
    n_out = n_in = 0
    by_degree_out = by_degree_in = 0
    for d in ae.enumerate_digraphs(3):
        if ae.oracle_embed(d, out_star).verdict == "Embeds":
            n_out += 1
        if ae.oracle_embed(d, in_star).verdict == "Embeds":
            n_in += 1
        p = ae.degree_profile(d)
        by_degree_out += max(p.out_deg) >= 2
        by_degree_in += max(p.in_deg) >= 2
    assert n_out == by_degree_out == 37
    assert n_in == by_degree_in == 37
