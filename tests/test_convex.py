import random

import pytest

import antembed as ae
from antembed import convex
from antembed.antitree import caterpillar_decompose, is_caterpillar
from antembed.convex import check_side_condition, reconstruct_witness
from antembed.digraph import Digraph, bits_of
from antembed.oracle_gen import brute_good_arcs, oracle_embed


def caterpillars(kmax):
    return [t for k in range(1, kmax + 1) for t in ae.enumerate_antitrees(k) if is_caterpillar(t)]


def bidirected_complete(n):
    return Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v])


def random_digraph(rng, n, p=None):
    if p is None:
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        m = rng.randint(0, len(pairs))
        return Digraph(n, rng.sample(pairs, m))
    return Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p])


def test_side_condition_matches_the_clockwise_interval():
    # random circular orders, injective maps and spines of both parities: the
    # side condition holds exactly when the interval the chord cuts off,
    # strictly clockwise from one end to the other, holds no image
    c = ae.ConvexDigraph(Digraph(4, []))
    assert c.interval(0, 2) == {1} and c.interval(2, 0) == {3} and c.interval(0, 1) == set()
    rng = random.Random(3)
    seen = set()
    for _ in range(500):
        n = rng.randint(3, 8)
        order = list(range(n))
        rng.shuffle(order)
        c = ae.ConvexDigraph(Digraph(n, []), order)
        images = rng.sample(range(n), rng.randint(2, n))
        mapping = dict(enumerate(images))
        spine = list(range(rng.randint(2, len(images))))
        x, y = mapping[spine[-1]], mapping[spine[-2]]
        zone = c.interval(x, y) if len(spine) % 2 == 1 else c.interval(y, x)
        holds = not zone & set(images)
        assert check_side_condition(c, None, mapping, spine) == holds
        seen.add(holds)
    assert seen == {True, False}


def test_good_arcs_k1_all():
    rng = random.Random(0)
    t1 = ae.validate_antitree(Digraph(2, [(0, 1)]))
    for _ in range(20):
        d = random_digraph(rng, rng.randint(2, 6))
        c = ae.ConvexDigraph(d)
        table = ae.good_arcs(c, t1)
        assert set(table.stage_arcs[-1]) == set(d.arc_set)
        table = ae.good_arcs_mindeg(c, t1)
        assert set(table.stage_arcs[-1]) == set(d.arc_set)
        assert table.lemma12_bound == d.a()


def test_good_arc_bounds_and_witnesses():
    rng = random.Random(1)
    trees = caterpillars(4)
    for _ in range(300):
        n = rng.randint(2, 7)
        d = random_digraph(rng, n)
        order = list(range(n))
        rng.shuffle(order)
        c = ae.ConvexDigraph(d, order)
        for t in trees:
            if t.n > n:
                continue
            table = ae.good_arcs(c, t)
            assert len(table.stage_arcs[-1]) >= table.lemma8_bound
            t2 = ae.good_arcs_mindeg(c, t)
            assert len(t2.stage_arcs[-1]) >= t2.lemma12_bound
            assert set(table.stage_arcs[-1]) == set(t2.stage_arcs[-1])
            for arc in table.stage_arcs[-1]:
                f = reconstruct_witness(c, t, table, arc)
                assert ae.validate_embedding(t, d, f)
                assert check_side_condition(c, t, f, table.spine)


def test_dp_sound_against_definition():
    # every arc the construction reports really is good; the converse can
    # fail (the staged construction is a lower-bound device, see the ledger)
    rng = random.Random(7)
    trees = caterpillars(3)
    gaps = 0
    checked = 0
    for _ in range(250):
        n = rng.randint(2, 5)
        d = random_digraph(rng, n)
        c = ae.ConvexDigraph(d)
        for t in trees:
            if t.n > n:
                continue
            dp = set(ae.good_arcs(c, t).stage_arcs[-1])
            bf = brute_good_arcs(c, t)
            assert dp <= bf
            checked += 1
            gaps += dp != bf
    assert checked > 300
    # the known completeness gap appears at this scale
    assert gaps > 0


def test_completeness_gap_witness_frozen():
    # frozen counterexample: the construction cannot reach host arc (1, 2)
    # although an embedding with an empty final side exists
    d = Digraph(4, [(0, 2), (1, 0), (1, 2), (1, 3), (2, 0), (2, 1), (3, 0)])
    t = ae.validate_antitree(Digraph(4, [(0, 1), (0, 3), (2, 1)]))
    c = ae.ConvexDigraph(d)
    dp = set(ae.good_arcs(c, t).stage_arcs[-1])
    bf = brute_good_arcs(c, t)
    assert (1, 2) in bf - dp
    f = {0: 1, 3: 2, 1: 0, 2: 3}
    assert ae.validate_embedding(t, d, f)


def test_embed_caterpillar_examples():
    d1 = Digraph(3, [(0, 1), (2, 1)])
    t1 = ae.validate_antitree(Digraph(2, [(0, 1)]))
    emb = ae.embed_caterpillar(d1, t1)
    assert ae.validate_embedding(t1, d1, emb.map)
    for k in (2, 3, 4):
        host = bidirected_complete(k + 1)
        for t in caterpillars(k):
            if t.k == k:
                emb = ae.embed_caterpillar(host, t)
                assert ae.validate_embedding(t, host, emb.map)
    with pytest.raises(ae.HypothesisViolated):
        ae.embed_caterpillar(Digraph(3, [(0, 1), (2, 1)]), ae.enumerate_antitrees(2)[0])


def test_embed_caterpillar_exhaustive_small_vs_oracle():
    trees = caterpillars(3)
    count = 0
    for n in (2, 3, 4):
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        for mask in range(1 << len(pairs)):
            d = Digraph(n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1])
            for t in trees:
                if t.n > n or d.a() <= (t.k - 1) * n:
                    continue
                emb = ae.embed_caterpillar(d, t)
                assert ae.validate_embedding(t, d, emb.map)
                count += 1
                if count % 97 == 0:  # oracle feasibility spot-check
                    assert oracle_embed(d, t).verdict == "Embeds"


def test_good_arcs_mindeg_one_directional_bipartite():
    # all arcs one way across a bipartition: |D+| and |D-| are the two sides
    # and the variant bound evaluates exactly; brute force confirms at n <= 6
    for na, nb in ((2, 3), (3, 3), (2, 4)):
        d = Digraph(na + nb, [(a, na + b) for a in range(na) for b in range(nb)])
        c = ae.ConvexDigraph(d)
        for t in caterpillars(3):
            if t.n > d.n:
                continue
            tp, tm = t.plus_minus()
            table = ae.good_arcs_mindeg(c, t)
            bound = d.a() - (len(tp) - 1) * nb - (len(tm) - 1) * na
            assert table.lemma12_bound == bound
            dp = set(table.stage_arcs[-1])
            assert len(dp) >= bound
            assert dp <= brute_good_arcs(c, t)


def test_embed_caterpillar_mindeg_fano():
    fano = ae.gen_incidence(2)
    for t in caterpillars(3):
        if t.k != 3:
            continue
        emb = ae.embed_caterpillar_mindeg(fano, t)
        assert ae.validate_embedding(t, fano, emb.map)
        assert oracle_embed(fano, t).verdict == "Embeds"
    # reversed sign-balance goes through the reversal branch and the map is
    # still valid for the original pair
    rev = ae.reverse(fano)
    t = ae.validate_antitree(Digraph(4, [(1, 0), (2, 0), (3, 0)]))  # |T+| > |T-|
    emb = ae.embed_caterpillar_mindeg(rev, t)
    assert ae.validate_embedding(t, rev, emb.map)


def test_embed_caterpillar_mindeg_single_arc():
    d1 = Digraph(3, [(0, 1), (2, 1)])
    t1 = ae.validate_antitree(Digraph(2, [(0, 1)]))
    emb = ae.embed_caterpillar_mindeg(d1, t1)
    assert ae.validate_embedding(t1, d1, emb.map)


# -- the dict-per-stage construction, kept as the reference for the bit-set DP --


def reference_clockwise(c, x, sign):
    n = c.d.n
    return sorted(bits_of(c.d.neighbor_bits(x, sign)), key=lambda w: (c.pos[w] - c.pos[x]) % n)


def reference_run_dp(c, t, dec):
    """One {arc: predecessor} dict per stage over every host arc, clockwise
    lists rebuilt here from the rows and the order."""
    spine = dec.spine
    current = {arc: None for arc in c.d.arcs}
    stages = [current]
    for j in range(2, len(spine)):
        pj = spine[j - 1]
        m = 1 + len(dec.leaves_at.get(pj, ()))
        sigma = t.sign[pj]
        new_even = (j + 1) % 2 == 0
        nxt = {}
        for arc in current:
            x, w = (arc[0], arc[1]) if sigma > 0 else (arc[1], arc[0])
            lst = reference_clockwise(c, x, sigma)
            idx = lst.index(w)
            if new_even:
                if idx < m:  # nasty: among the first m sign-arcs of x
                    continue
                z = lst[idx - m]
            else:
                if idx >= len(lst) - m:  # nasty: among the last m
                    continue
                z = lst[idx + m]
            new_arc = (x, z) if sigma > 0 else (z, x)
            if new_arc in nxt:
                raise ae.InternalAssertion("phi-injectivity", arc=new_arc)
            nxt[new_arc] = arc
        stages.append(nxt)
        current = nxt
    return stages


def reference_witness(c, t, dec, stages, final_arc):
    """Walk the stored back-pointers down, then replay forward."""
    spine = dec.spine
    chain = [final_arc]
    for stage in range(len(spine) - 2, 0, -1):
        chain.append(stages[stage][chain[-1]])
    chain.reverse()
    f = {}
    if t.sign[spine[1]] > 0:
        f[spine[1]], f[spine[0]] = chain[0]
    else:
        f[spine[0]], f[spine[1]] = chain[0]
    for j in range(2, len(spine)):
        pj = spine[j - 1]
        sigma = t.sign[pj]
        prev_arc, new_arc = chain[j - 2], chain[j - 1]
        x, w_old = (prev_arc[0], prev_arc[1]) if sigma > 0 else (prev_arc[1], prev_arc[0])
        z = new_arc[1] if sigma > 0 else new_arc[0]
        lst = reference_clockwise(c, x, sigma)
        io, iz = lst.index(w_old), lst.index(z)
        fills = lst[iz + 1 : io] if (j + 1) % 2 == 0 else lst[io + 1 : iz]
        f[spine[j]] = z
        for leaf, hv in zip(dec.leaves_at.get(pj, ()), fills):
            f[leaf] = hv
    return f


def assert_matches_reference(c, t, witnesses=None):
    """Same stages, count, least arc and witness maps as the reference; a host
    arc outside the good set is refused by name."""
    dec = caterpillar_decompose(t)
    ref = reference_run_dp(c, t, dec)
    table = ae.good_arcs(c, t)
    final = ref[-1]
    assert table.count == len(final)
    assert list(table.stage_arcs) == ref
    assert set(ae.good_arcs_mindeg(c, t).stage_arcs[-1]) == set(final)
    if not final:
        return
    good = sorted(final)
    assert convex._least_good_arc(table) == good[0]
    if witnesses is not None and len(good) > witnesses:
        good = good[:: len(good) // witnesses]
    for arc in good:
        assert reconstruct_witness(c, t, table, arc) == reference_witness(c, t, dec, ref, arc)
    bad = [arc for arc in c.d.arcs if arc not in final][:3]
    for arc in bad:
        with pytest.raises(ae.AntembedError, match="not a good arc"):
            reconstruct_witness(c, t, table, arc)


def random_caterpillar(rng, spine_len, max_leaves):
    first = rng.choice((1, -1))
    sign = [first * (-1) ** i for i in range(spine_len)]
    arcs = []
    for i in range(spine_len - 1):
        arcs.append((i, i + 1) if sign[i] > 0 else (i + 1, i))
    n = spine_len
    for i in range(1, spine_len - 1):
        for _ in range(rng.randint(0, max_leaves)):
            arcs.append((i, n) if sign[i] > 0 else (n, i))
            n += 1
    return ae.validate_antitree(Digraph(n, arcs))


def test_bitset_dp_matches_reference_on_small_hosts():
    rng = random.Random(11)
    trees = caterpillars(4)
    for _ in range(200):
        n = rng.randint(2, 7)
        d = random_digraph(rng, n)
        order = list(range(n))
        rng.shuffle(order)
        for c in (ae.ConvexDigraph(d, order), ae.ConvexDigraph(d)):
            for t in trees:
                if t.n <= n:
                    assert_matches_reference(c, t)


def test_bitset_dp_matches_reference_on_incidence_hosts():
    rng = random.Random(13)
    for q in (7, 13):
        host = ae.gen_incidence(q)
        order = list(range(host.n))
        rng.shuffle(order)
        # the default order makes the out- and in-major layouts mirror each
        # other, so the shuffled one is what tells the two relayouts apart
        for c in (ae.ConvexDigraph(host), ae.ConvexDigraph(ae.reverse(host)), ae.ConvexDigraph(host, order)):
            for _ in range(4):
                t = random_caterpillar(rng, rng.randint(3, 9), (q + 1) // 3)
                assert_matches_reference(c, t, witnesses=20)


def test_bitset_dp_edge_hosts():
    single = ae.validate_antitree(Digraph(2, [(0, 1)]))
    trees = [single] + caterpillars(3)
    for d in (Digraph(3, []), Digraph(3, [(2, 0)]), Digraph(1, [])):
        for c in (ae.ConvexDigraph(d), ae.ConvexDigraph(d, list(reversed(range(d.n))))):
            for t in trees:
                assert_matches_reference(c, t)
    # a single-arc tree runs no stage: every host arc is good
    d = Digraph(4, [(0, 1), (3, 1), (2, 0)])
    table = ae.good_arcs(ae.ConvexDigraph(d), single)
    assert table.steps == () and table.count == 3
    assert list(table.stage_arcs) == [dict.fromkeys(d.arcs)]
