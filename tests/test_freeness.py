import dataclasses
import itertools
import random

import pytest

import antembed as ae
from antembed.digraph import Digraph

TRIANGLE = Digraph(3, [(0, 1), (1, 2), (2, 0)])


def bidirected_complete(n):
    return Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v])


def arc_nbrs(d, v, sign):
    """N^{sign}(v) read from the arc list, independently of the bit rows."""
    if sign > 0:
        return {y for x, y in d.arcs if x == v}
    return {x for x, y in d.arcs if y == v}


def slow_common(d, a, sa, b, sb):
    return (arc_nbrs(d, a, sa) & arc_nbrs(d, b, sb)) - {a, b}


def slow_free(d, s):
    for a, b in itertools.permutations(range(d.n), 2):
        for sa in (1, -1):
            for sb in (1, -1):
                if len(slow_common(d, a, sa, b, sb)) >= s:
                    return False
    return True


def test_common_neighborhood_examples():
    assert ae.common_neighborhood(TRIANGLE, 0, 1, 2, -1) == {1}
    k4 = bidirected_complete(4)
    assert ae.common_neighborhood(k4, 0, 1, 1, 1) == {2, 3}
    assert ae.common_neighborhood(Digraph(4, []), 0, 1, 1, -1) == set()
    with pytest.raises(ae.AntembedError):
        ae.common_neighborhood(TRIANGLE, 0, 1, 0, -1)


def test_is_free_examples():
    # all arcs across a (2, s) bipartition: the all-out forbidden host
    s = 3
    d = Digraph(2 + s, [(a, b) for a in (0, 1) for b in range(2, 2 + s)])
    w = ae.is_k2s_free(d, s)
    assert w is not True and (w.sign_a, w.sign_b) == (1, 1) and len(w.common) == s
    assert w.revalidate(d, s)
    # refused before the host is read: a == b, s - 1 common vertices, and
    # s + 1 of them (the witness at s - 1)
    assert not dataclasses.replace(w, b=w.a).revalidate(d, s)
    assert not dataclasses.replace(w, common=frozenset(sorted(w.common)[1:])).revalidate(d, s)
    assert not w.revalidate(d, s - 1)
    assert ae.is_k2s_free(TRIANGLE, 2) is True
    w1 = ae.is_k2s_free(TRIANGLE, 1)
    assert w1 is not True and w1.revalidate(TRIANGLE, 1)
    with pytest.raises(ae.AntembedError, match="s must be positive"):
        ae.is_k2s_free(TRIANGLE, 0)


_SIGN_PAIRS = ((1, 1), (-1, -1), (1, -1), (-1, 1))


def reference_scan(d, s, pairs=_SIGN_PAIRS):
    """The exhaustive probe of every (a, b, sign pair) triple in lexicographic
    order; ``is_k2s_free`` must return the same witness.  ``pairs`` limits
    the probe to some sign pairs, in their order."""
    for a in range(d.n):
        for b in range(a + 1, d.n):
            strip = ~((1 << a) | (1 << b))
            for sa, sb in pairs:
                bits = d.neighbor_bits(a, sa) & d.neighbor_bits(b, sb) & strip
                if bits.bit_count() >= s:
                    picked = []
                    while len(picked) < s:
                        low = bits & -bits
                        picked.append(low.bit_length() - 1)
                        bits ^= low
                    return ae.ForbiddenWitness(a=a, b=b, sign_a=sa, sign_b=sb, common=frozenset(picked))
    return True


def assert_same_witness(d, s):
    want = reference_scan(d, s)
    assert ae.is_k2s_free(d, s) == want
    assert ae.is_k2s_free(d, s, prune=True) == want
    return want


def pg7_variants(rng, count):
    """PG(2,7) with 1 to 3 seeded non-incident arcs added in either direction
    and 0 to 20 of its arcs deleted, then half of them reversed."""
    host = ae.gen_incidence(7)
    points = host.n // 2
    for i in range(count):
        extra, want = set(), rng.randint(1, 3)
        while len(extra) < want:
            p, line = rng.randrange(points), points + rng.randrange(points)
            if not host.has_arc(p, line):
                extra.add((p, line) if rng.random() < 0.5 else (line, p))
        kept = sorted(rng.sample(range(host.a()), host.a() - rng.randint(0, 20)))
        d = Digraph(host.n, [host.arcs[j] for j in kept] + sorted(extra))
        yield ae.reverse(d) if i % 2 else d


def test_witness_matches_reference_random(seed=1302):
    rng = random.Random(seed)
    for _ in range(2000):
        n = rng.randint(2, 9)
        p = rng.random()
        d = Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p])
        for s in (1, 2, 3, 4):
            assert_same_witness(d, s)


def test_witness_matches_reference_projective(seed=7):
    rng = random.Random(seed)
    for q in (7, 13):
        host = ae.gen_incidence(q)
        for s in (1, 2, 3):
            assert_same_witness(host, s)
        assert ae.is_k2s_free(host, 2) is True
        points = sorted({u for u, _ in host.arcs})
        lines = sorted({v for _, v in host.arcs})
        for _ in range(3):
            u = rng.choice(points)
            v = rng.choice([x for x in lines if not host.has_arc(u, x)])
            w = assert_same_witness(Digraph(host.n, host.arcs + ((u, v),)), 2)
            assert w is not True
    for d in pg7_variants(rng, 20):
        for s in (1, 2, 3):
            assert_same_witness(d, s)


def test_witness_matches_reference_on_intake_hosts(seed=24):
    # the cold request's hosts at desk scale: PG(2,7) less 0.6% to 7% of its
    # arcs (free), and PG(2,7) plus one non-incident point->line arc (not free)
    rng = random.Random(seed)
    host = ae.gen_incidence(7)
    points = host.n // 2
    hosts = []
    for _ in range(6):
        kept = sorted(rng.sample(range(host.a()), host.a() - rng.randint(3, 32)))
        hosts.append(Digraph(host.n, [host.arcs[j] for j in kept]))
    while len(hosts) < 10:
        p, line = rng.randrange(points), points + rng.randrange(points)
        if not host.has_arc(p, line):
            hosts.append(Digraph(host.n, host.arcs + ((p, line),)))
    for d in hosts:
        for s in (1, 2, 3, 4):
            assert_same_witness(d, s)
    assert [ae.is_k2s_free(d, 2) is True for d in hosts] == [True] * 6 + [False] * 4


def test_witness_matches_reference_with_empty_sign_sides(seed=12):
    # hosts where many vertices have no out-arcs or no in-arcs, so whole sign
    # pairs are skipped by the scan: bipartite orientations, sources and sinks
    rng = random.Random(seed)
    hosts = []
    for _ in range(400):
        n = rng.randint(2, 10)
        side = [rng.random() < 0.5 for _ in range(n)]
        p = rng.random()
        hosts.append(Digraph(n, [(u, v) for u in range(n) for v in range(n)
                                 if side[u] and not side[v] and rng.random() < p]))
        # sources, sinks and a few vertices with both sides
        kind = [rng.choice("+-+-b") for _ in range(n)]
        hosts.append(Digraph(n, [(u, v) for u in range(n) for v in range(n)
                                 if u != v and kind[u] in "+b" and kind[v] in "-b" and rng.random() < p]))
    fano = ae.gen_incidence(7)
    for cut in (1, 5, 20, 40):
        kept = sorted(rng.sample(range(fano.a()), fano.a() - cut))
        hosts.append(Digraph(fano.n, [fano.arcs[j] for j in kept]))
    hosts.append(Digraph(fano.n, fano.arcs + tuple((v, u) for u, v in fano.arcs[:6])))
    for d in hosts:
        for s in (1, 2, 3, 4):
            assert_same_witness(d, s)


def test_free_matches_slow_and_prune(seed=9):
    rng = random.Random(seed)
    for _ in range(150):
        n = rng.randint(2, 6)
        arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.4]
        d = Digraph(n, arcs)
        for s in (1, 2, 3):
            got = ae.is_k2s_free(d, s)
            got_pruned = ae.is_k2s_free(d, s, prune=True)
            want = slow_free(d, s)
            assert (got is True) == want == (got_pruned is True)
            if got is not True:
                assert got.revalidate(d, s)


def test_monotone_in_s(seed=4):
    rng = random.Random(seed)
    for _ in range(80):
        n = rng.randint(2, 7)
        arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.5]
        d = Digraph(n, arcs)
        free_at = [ae.is_k2s_free(d, s) is True for s in range(1, 6)]
        for lo, hi in zip(free_at, free_at[1:]):
            assert not (lo and not hi)


def test_s1_characterization_exhaustive_n4():
    # free at s=1 iff max out-degree <= 1, max in-degree <= 1, and no directed
    # path of length two; brute forced over every labeled digraph with n <= 4
    for n in (2, 3, 4):
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        for mask in range(1 << len(pairs)):
            arcs = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
            d = Digraph(n, arcs)
            p2 = any(
                y != x
                for v in range(n)
                for x in arc_nbrs(d, v, -1)
                for y in arc_nbrs(d, v, 1)
            )
            degs_ok = all(len(arc_nbrs(d, v, sg)) <= 1 for v in range(n) for sg in (1, -1))
            expected = degs_ok and not p2
            assert (ae.is_k2s_free(d, 1) is True) == expected


def test_s2_witness_on_the_minus_minus_side_first():
    # hosts whose first witness is (-,-) at a smaller a than every witness of
    # the other three pairs: two sinks under two sources, and the reversals
    # of PG(2,7) with one non-incident arc added (points become sinks)
    sinks_first = Digraph(4, [(2, 0), (2, 1), (3, 0), (3, 1)])
    w = assert_same_witness(sinks_first, 2)
    assert (w.a, w.b, w.sign_a, w.sign_b, w.common) == (0, 1, -1, -1, {2, 3})
    assert reference_scan(sinks_first, 2, [(1, 1), (1, -1), (-1, 1)]).a == 2
    host = ae.gen_incidence(7)
    points = host.n // 2
    for p, first in ((0, points + 20), (3, points + 40), (50, points)):
        line = next(x for x in range(first, host.n) if not host.has_arc(p, x))
        d = ae.reverse(Digraph(host.n, host.arcs + ((p, line),)))
        w = assert_same_witness(d, 2)
        pass_one = reference_scan(d, 2, [(1, 1), (1, -1), (-1, 1)])
        assert (w.sign_a, w.sign_b) == (-1, -1) and w.a < points <= pass_one.a


def test_s2_minus_minus_witness_ties_the_first_pass_vertex():
    # 0 shares in-neighbours 5, 6 with 1 and out-neighbours 3, 4 with 2: the
    # first pass stops at a = 0 with b = 2, the (-,-) pair there has b = 1
    smaller_b = Digraph(7, [(0, 3), (0, 4), (2, 3), (2, 4), (5, 0), (6, 0), (5, 1), (6, 1)])
    w = assert_same_witness(smaller_b, 2)
    assert (w.a, w.b, w.sign_a, w.sign_b) == (0, 1, -1, -1)
    # the same b: (+,+) comes before (-,-), and (-,-) before (+,-)
    plus_first = Digraph(6, [(0, 2), (0, 3), (1, 2), (1, 3), (4, 0), (5, 0), (4, 1), (5, 1)])
    w = assert_same_witness(plus_first, 2)
    assert (w.a, w.b, w.sign_a, w.sign_b) == (0, 1, 1, 1)
    minus_first = Digraph(6, [(0, 2), (0, 3), (2, 1), (3, 1), (4, 0), (5, 0), (4, 1), (5, 1)])
    w = assert_same_witness(minus_first, 2)
    assert (w.a, w.b, w.sign_a, w.sign_b) == (0, 1, -1, -1)


def test_only_minus_minus_witness_at_s1_and_s3():
    # a (-,-) witness with no witness of the other pairs: at s = 1 an out-star
    # (two vertices with a common in-neighbour), at s = 3 three sources into
    # two sinks (the sources share only two out-neighbours)
    out_star = Digraph(3, [(2, 0), (2, 1)])
    w = assert_same_witness(out_star, 1)
    assert (w.a, w.b, w.sign_a, w.sign_b) == (0, 1, -1, -1)
    assert assert_same_witness(out_star, 2) is True
    sinks = Digraph(5, [(u, v) for u in (2, 3, 4) for v in (0, 1)])
    w = assert_same_witness(sinks, 3)
    assert (w.a, w.b, w.sign_a, w.sign_b, w.common) == (0, 1, -1, -1, {2, 3, 4})
    assert reference_scan(sinks, 3, [(1, 1), (1, -1), (-1, 1)]) is True


def test_s2_plus_plus_and_minus_minus_witnesses_come_together(seed=26):
    # the duality the s = 2 scan rests on: a (-,-) witness (a, b) with common
    # set {w1, w2} is the (+,+) witness (w1, w2) with common set {a, b}
    rng = random.Random(seed)
    hosts = []
    for _ in range(1500):
        n = rng.randint(2, 9)
        p = rng.random()
        hosts.append(Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]))
    hosts.extend(pg7_variants(rng, 40))
    seen = set()
    for d in hosts:
        plus, minus = reference_scan(d, 2, [(1, 1)]), reference_scan(d, 2, [(-1, -1)])
        assert (plus is True) == (minus is True)
        seen.add(plus is True)
        if plus is not True:
            a, b = sorted(plus.common)
            assert minus.a <= a
            assert len(ae.common_neighborhood(d, a, -1, b, -1)) >= 2
        assert_same_witness(d, 2)
    assert seen == {True, False}
