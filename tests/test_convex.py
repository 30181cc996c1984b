import dataclasses
import random
import re
from operator import itemgetter

import pytest

import antembed as ae
from antembed import convex
from antembed.antitree import caterpillar_decompose, is_caterpillar
from antembed.convex import check_side_condition, reconstruct_witness
from antembed.digraph import Digraph, bits_of, side_bits
from antembed.oracle_gen import all_embeddings, brute_good_arcs, oracle_embed, sample_antitree_heavy


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


def test_interval_slices_the_order_and_refuses_unknown_vertices():
    # against a clockwise walk from a to b, in random orders; interval(a, a)
    # is every vertex but a, and a vertex outside 0..n-1 is refused
    rng = random.Random(28)
    for _ in range(300):
        n = rng.randint(1, 9)
        order = list(range(n))
        rng.shuffle(order)
        c = ae.ConvexDigraph(Digraph(n, []), order)
        for a in range(n):
            for b in range(n):
                walk, i = set(), (order.index(a) + 1) % n
                while order[i] != b:
                    walk.add(order[i])
                    i = (i + 1) % n
                assert c.interval(a, b) == walk
            assert c.interval(a, a) == set(range(n)) - {a}
    c = ae.ConvexDigraph(ae.gen_incidence(2))
    for a, b in ((0, 99), (99, 0), (0, 14), (-1, 3)):
        with pytest.raises(ae.AntembedError, match="outside 0..13"):
            c.interval(a, b)


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
        assert check_side_condition(c, mapping, spine) == holds
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


def test_good_arc_counts_below_their_bounds_raise(monkeypatch):
    # the real table with its count cut to 0, under both bounds: each count
    # check fires, and its need is the bound computed here from the arcs and
    # t.sign (the host's sides differ in size, so swapped sides would show)
    run_dp = convex._run_dp
    monkeypatch.setattr(convex, "_run_dp", lambda c, t, dec: dataclasses.replace(run_dp(c, t, dec), count=0))
    d = Digraph(10, [(a, b) for a in range(4) for b in range(4, 10)])
    dplus, dminus = len({u for u, _ in d.arcs}), len({v for _, v in d.arcs})
    for t in caterpillars(3):
        tp, tm = t.sign.count(1), t.sign.count(-1)
        for run, tag, need in ((ae.good_arcs, "good-count", d.a() - (t.k - 1) * d.n),
                               (ae.good_arcs_mindeg, "good-count-mindeg", d.a() - (tp - 1) * dminus - (tm - 1) * dplus)):
            assert need > 0
            with pytest.raises(ae.InternalAssertion) as exc:
                run(ae.ConvexDigraph(d), t)
            assert (exc.value.tag, exc.value.data) == (tag, {"have": 0, "need": need})
    # a B-I broom's count check sends the run to the oracle, whose map is validated
    host, t = ae.gen_incidence(25), sample_antitree_heavy(13, random.Random(31), 6)
    out = ae.embed_antitree(host, t, known_free=True)
    assert [e["tag"] for e in out.assertion_events()] == ["good-count-mindeg"]
    assert out.trace[-3]["tag"] == "B-I:balance" and out.trace[-1]["verdict"] == "Embeds"
    assert out.ok and ae.validate_embedding(t, host, out.embedding.map)


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
                assert check_side_condition(c, f, table.dec.spine)


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


def hereditary_good_arcs(c, t):
    """Goodness checked at every spine prefix, not only the final chord: for
    each prefix length L >= 2, the parity side of the chord f(p_{L-1})f(p_L)
    holds no image of p_1..p_L or of the leaves of p_2..p_{L-1}."""
    dec = caterpillar_decompose(t)
    spine = dec.spine
    good = set()
    for f in all_embeddings(c.d, t):
        for L in range(2, len(spine) + 1):
            x, y = f[spine[L - 1]], f[spine[L - 2]]
            zone = c.interval(x, y) if L % 2 == 1 else c.interval(y, x)
            placed = {f[p] for p in spine[:L]} | {f[w] for p in spine[1:L - 1] for w in dec.leaves_at[p]}
            if zone & placed:
                break
        else:
            good.add((y, x) if t.sign[spine[-2]] > 0 else (x, y))
    return good


def test_completeness_gap_has_two_causes():
    # Criterion 2's 115 failures on 5,764 instances split into 111
    # definitional ones, where the DP equals the hereditary set and only the
    # spec's final-chord brute force admits more, and 4 exact-shift ones,
    # where the DP's shift by exactly m misses a hereditary-good arc.
    t = ae.validate_antitree(Digraph(4, [(0, 1), (0, 3), (2, 1)]))
    # definitional: the frozen witness above
    d = Digraph(4, [(0, 2), (1, 0), (1, 2), (1, 3), (2, 0), (2, 1), (3, 0)])
    c = ae.ConvexDigraph(d)
    dp = set(ae.good_arcs(c, t).stage_arcs[-1])
    assert dp == hereditary_good_arcs(c, t) and (1, 2) in brute_good_arcs(c, t) - dp
    # exact shift
    d = Digraph(5, [(0, 1), (0, 3), (1, 0), (1, 3), (2, 3), (2, 4), (3, 0), (3, 1), (3, 4), (4, 2)])
    c = ae.ConvexDigraph(d, (0, 4, 2, 3, 1))
    dp = set(ae.good_arcs(c, t).stage_arcs[-1])
    her = hereditary_good_arcs(c, t)
    assert dp < her and her - dp == {(3, 1)}


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
            tp, tm = t.sign.count(1), t.sign.count(-1)
            table = ae.good_arcs_mindeg(c, t)
            bound = d.a() - (tp - 1) * nb - (tm - 1) * na
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
    # a pair that leans to + runs on the pair as given, and the map is valid
    # for it
    rev = ae.reverse(fano)
    t = ae.validate_antitree(Digraph(4, [(1, 0), (2, 0), (3, 0)]))  # |T+| > |T-|
    emb = ae.embed_caterpillar_mindeg(rev, t)
    assert ae.validate_embedding(t, rev, emb.map)


def test_embed_caterpillar_mindeg_single_arc():
    d1 = Digraph(3, [(0, 1), (2, 1)])
    t1 = ae.validate_antitree(Digraph(2, [(0, 1)]))
    emb = ae.embed_caterpillar_mindeg(d1, t1)
    assert ae.validate_embedding(t1, d1, emb.map)


# a pair too sparse for the sign-balanced bound, and a dense one whose signs
# lean opposite ways: |D+| < |D-| but |T+| > |T-|
MINDEG_REFUSALS = [
    ((3, [(0, 1)]), (3, [(0, 1), (0, 2)]), "density", {"arcs": 1, "sides": (1, 1), "k": 2}),
    ((4, [(0, 1), (0, 2), (0, 3)]), (3, [(1, 0), (2, 0)]), "sign-balance", {"d_sides": (1, 3), "t_sides": (2, 1)}),
]


@pytest.mark.parametrize("host, tree, reason, data", MINDEG_REFUSALS)
def test_embed_caterpillar_mindeg_refusals(host, tree, reason, data):
    d, t = Digraph(*host), ae.validate_antitree(Digraph(*tree))
    with pytest.raises(ae.HypothesisViolated) as exc:
        ae.embed_caterpillar_mindeg(d, t)
    assert (exc.value.reason, exc.value.data) == (reason, data)
    assert not d._memo or ("convex",) not in d._memo


def test_sign_balanced_refusals_come_before_the_decomposition():
    # a spider with three legs of length 2 is no caterpillar: a sparse host
    # refuses it for density, a dense host leaning the other way for sign
    # balance, and only a host that passes both decomposes it
    spider = ae.validate_antitree(Digraph(7, [(0, 1), (2, 1), (0, 3), (4, 3), (0, 5), (6, 5)]))
    assert (spider.sign.count(1), spider.sign.count(-1)) == (4, 3)

    def one_way(na, nb):
        return Digraph(na + nb, [(a, na + b) for a in range(na) for b in range(nb)])

    for d, reason in ((Digraph(7, [(0, 1)]), "density"), (one_way(6, 7), "sign-balance")):
        with pytest.raises(ae.HypothesisViolated) as exc:
            ae.embed_caterpillar_mindeg(d, spider)
        assert exc.value.reason == reason
    with pytest.raises(ae.NotACaterpillar):
        ae.embed_caterpillar_mindeg(one_way(7, 6), spider)


def test_construction_commutes_with_reversal():
    # on the reversed host and tree the steps flip sign and every stage is the
    # same bit set; the good arcs are the reversed ones, each replays to the
    # same map, and the (head, tail) least arc is the reversed pair's least
    rng = random.Random(23)
    trees = caterpillars(5)
    for _ in range(80):
        n = rng.randint(2, 8)
        d = random_digraph(rng, n)
        order = list(range(n))
        rng.shuffle(order)
        for o in (None, order):
            c, rc = ae.ConvexDigraph(d, o), ae.ConvexDigraph(ae.reverse(d), o)
            for t in (t for t in trees if t.n <= n):
                rt = ae.reverse_antitree(t)
                table, rtable = ae.good_arcs(c, t), ae.good_arcs(rc, rt)
                assert rtable.steps == tuple((-s, m, even) for s, m, even in table.steps)
                assert rtable.stages == table.stages
                good = table.stage_arcs[-1]
                assert set(rtable.stage_arcs[-1]) == {(y, x) for x, y in good}
                for x, y in good:
                    assert reconstruct_witness(rc, rt, rtable, (y, x)) == reconstruct_witness(c, t, table, (x, y))
                if good:
                    assert convex._least_good_arc(table, -1) == convex._least_good_arc(rtable)[::-1]


def sides(d):
    """(|D+|, |D-|), counted from the side masks."""
    return side_bits(d, 1).bit_count(), side_bits(d, -1).bit_count()


def lean(d, t):
    """+1 when the pair leans to + (|D+| > |D-| or |T+| > |T-|), else -1."""
    (dp, dm), (tp, tm) = sides(d), (t.sign.count(1), t.sign.count(-1))
    return 1 if dp > dm or tp > tm else -1


def test_embed_caterpillar_mindeg_same_map_on_the_reversed_pair():
    # random dense hosts with some pure sources or sinks, caterpillars leaning
    # the same way, default and explicit orders: the pair and its reversal,
    # which leans the other way, get the same map or the same refusal
    rng = random.Random(29)
    trees = caterpillars(5)
    leans = []
    for _ in range(400):
        n = rng.randint(2, 9)
        d = random_digraph(rng, n, rng.choice((0.5, 0.8, 1.0)))
        pure = set(rng.sample(range(n), rng.randint(0, n // 3)))
        sign = rng.choice((1, -1))
        d = Digraph(n, [(u, v) for u, v in d.arcs if (v if sign > 0 else u) not in pure])
        dp, dm = sides(d)
        t = rng.choice([t for t in trees if t.n <= n])
        tp, tm = t.sign.count(1), t.sign.count(-1)
        if (dp - dm) * (tp - tm) < 0:
            t = ae.reverse_antitree(t)
        if (dp, tp) == (dm, tm):
            # balanced on both sides: the pair and its reversal both take the
            # (tail, head) least arc
            continue
        order = list(range(n))
        rng.shuffle(order)
        for o in (None, order):
            outs = []
            for pair in ((d, t), (ae.reverse(d), ae.reverse_antitree(t))):
                try:
                    outs.append(ae.embed_caterpillar_mindeg(*pair, o).map)
                except ae.HypothesisViolated as exc:
                    outs.append(exc.reason)
            assert outs[0] == outs[1]
            if isinstance(outs[0], dict):
                leans.append((lean(d, t), dp != dm))
    # both leans, and hosts whose sides differ, are well represented
    assert min(leans.count((s, skew)) for s in (1, -1) for skew in (False, True)) >= 40


# -- the dict-per-stage construction, kept as the reference for the bit-set DP --


def reference_clockwise(c, x, sign):
    n = c.d.n
    return sorted(bits_of(c.d.neighbor_bits(x, sign)), key=lambda w: (c.pos[w] - c.pos[x]) % n)


def test_cw_index_rejects_a_non_neighbor():
    c = convex.ConvexDigraph(Digraph(4, [(0, 1), (0, 3), (2, 1)]))
    assert c.cw_list(0, +1) == (1, 3)
    assert [c.cw_index(0, +1, w) for w in (1, 3)] == [0, 1]
    assert c.cw_list(1, -1) == (2, 0) and c.cw_index(1, -1, 0) == 1
    for x, sign, w in [(0, +1, 2), (0, -1, 1), (2, +1, 3), (3, +1, 0)]:
        with pytest.raises(ae.AntembedError, match=re.escape(f"{w} is not a {sign:+d}-neighbor of {x}")):
            c.cw_index(x, sign, w)


def test_good_arcs_reads_no_sign_sides():
    # the count bounds are computed on first read: good_arcs reads only the
    # Lemma 8 one, and the host gets no side mask memoized, nor from
    # embed_caterpillar
    d = ae.gen_incidence(7)
    t = caterpillars(4)[-1]
    table = ae.good_arcs(convex.ConvexDigraph(d), t)
    assert ae.validate_embedding(t, d, ae.embed_caterpillar(d, t).map)
    assert ("side", 1) not in d._memo and ("side", -1) not in d._memo
    assert table.lemma8_bound == d.a() - (t.k - 1) * d.n
    (dplus, dminus), (tplus, tminus) = sides(d), (t.sign.count(1), t.sign.count(-1))
    assert table.lemma12_bound == d.a() - (tplus - 1) * dminus - (tminus - 1) * dplus


def test_clockwise_tables_match_the_distance_key_sort():
    # the tables sort each list by position and rotate it just after x; the
    # reference sorts by the clockwise distance (pos[w] - pos[x]) % n itself
    rng = random.Random(11)
    hosts = [ae.gen_incidence(7)] + [random_digraph(rng, rng.randint(1, 9)) for _ in range(60)]
    for d in hosts:
        shuffled = list(range(d.n))
        rng.shuffle(shuffled)
        # None is the default order, whose lists sort by vertex id without a key
        for given in (None, tuple(range(d.n)), tuple(shuffled)):
            pos, tables, rot, _ = convex._convex_tables(d, given)
            assert pos == (given or tuple(range(d.n)))
            for sign in (+1, -1):
                want = tuple(
                    tuple(sorted(bits_of(d.neighbor_bits(x, sign)), key=lambda w: (pos[w] - pos[x]) % d.n))
                    for x in range(d.n)
                )
                assert tables[sign] == want
            for x, (lst, r) in enumerate(zip(tables[1], rot)):
                by_pos = sorted(lst, key=pos.__getitem__)
                assert 0 <= r <= len(lst) and tuple(by_pos[r:] + by_pos[:r]) == lst


def reference_run_dp(c, t, dec):
    """One {arc: predecessor} dict per stage over every host arc, clockwise
    lists rebuilt here from the rows and the order; a stage's arc set is its
    keys."""
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
    """Same stage arc sets, count, least arc and witness maps (replayed along
    the reference's predecessors) as the reference; a host arc outside the
    good set is refused by name."""
    dec = caterpillar_decompose(t)
    ref = reference_run_dp(c, t, dec)
    table = ae.good_arcs(c, t)
    final = ref[-1]
    assert table.count == len(final)
    assert list(table.stage_arcs) == [frozenset(stage) for stage in ref]
    assert set(ae.good_arcs_mindeg(c, t).stage_arcs[-1]) == set(final)
    if not final:
        return
    good = sorted(final)
    assert convex._least_good_arc(table) == good[0]
    assert convex._least_good_arc(table, -1) == min(good, key=lambda arc: arc[::-1])
    if witnesses is not None and len(good) > witnesses:
        good = good[:: len(good) // witnesses]
    for arc in good:
        assert reconstruct_witness(c, t, table, arc) == reference_witness(c, t, dec, ref, arc)
    bad = [arc for arc in c.d.arcs if arc not in final][:3]
    for arc in bad:
        with pytest.raises(ae.AntembedError, match="not a good arc"):
            reconstruct_witness(c, t, table, arc)


def spine_caterpillar(first, leaves):
    """The caterpillar on spine 0, 1, ..., len(leaves) + 1, vertex 0 of sign
    ``first``, with leaves[i - 1] leaves on inner spine vertex i.  Its spine
    decomposes as 0, 1, ..., so its DP steps are, in order, one per entry of
    ``leaves``: a longer ``leaves`` with the same start extends the steps."""
    spine_len = len(leaves) + 2
    sign = [first * (-1) ** i for i in range(spine_len)]
    arcs = []
    for i in range(spine_len - 1):
        arcs.append((i, i + 1) if sign[i] > 0 else (i + 1, i))
    n = spine_len
    for i, count in enumerate(leaves, start=1):
        for _ in range(count):
            arcs.append((i, n) if sign[i] > 0 else (n, i))
            n += 1
    return ae.validate_antitree(Digraph(n, arcs))


def random_caterpillar(rng, spine_len, max_leaves):
    first = rng.choice((1, -1))
    return spine_caterpillar(first, [rng.randint(0, max_leaves) for _ in range(spine_len - 2)])


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
    assert list(table.stage_arcs) == [d.arc_set]


def reference_relayout(c, bits, sign):
    """The set moved into the sign layout through getters keyed by
    tail * n + head over the bit string read most significant bit first."""
    n, (cw_out, cw_in) = c.d.n, c._cw[1:]
    where = {x * n + w: p for p, (x, w) in enumerate((x, w) for x, lst in enumerate(cw_out) for w in lst)}
    from_out = [where[u * n + y] for y, lst in enumerate(cw_in) for u in lst]
    from_in = [0] * len(from_out)
    for q, p in enumerate(from_out):
        from_in[p] = q
    src, top = from_out if sign < 0 else from_in, len(from_out) - 1
    if not bits:
        return 0
    # new bit q is old bit src[q]; string index i holds bit top - i
    into = itemgetter(*[top - p for p in reversed(src)])
    return int("".join(into(format(bits, f"0{c.d.a()}b"))), 2)


def reference_mask(c, sign, m, even):
    """The stage mask position by position: index i of a block of length L
    survives when i >= m (even) or i < L - m (odd)."""
    flags = [i >= m if even else i < len(lst) - m for lst in c._cw[sign] for i in range(len(lst))]
    return sum(1 << p for p, keep in enumerate(flags) if keep)


def assert_relayout_and_masks_match_reference(c, rng, sets):
    a = c.d.a()
    for bits in [0, (1 << a) - 1] + [rng.getrandbits(a) if a else 0 for _ in range(sets)]:
        for sign in (1, -1):
            moved = c._relayout(bits, sign)
            assert moved == reference_relayout(c, bits, sign)
            assert moved.bit_count() == bits.bit_count()
            assert c._relayout(moved, -sign) == bits
    longest = max(map(len, c._cw[1] + c._cw[-1]), default=0)
    for sign in (1, -1):
        for m in range(1, longest + 2):
            for even in (True, False):
                assert c._mask(sign, m, even) == reference_mask(c, sign, m, even)


def test_relayout_and_masks_match_reference_on_small_hosts():
    rng = random.Random(29)
    seen = set()
    for i in range(300):
        n = 1 + i % 9
        d = random_digraph(rng, n, rng.choice([0.0, 0.1, 0.3, 0.6, 1.0]))
        shuffled = list(range(n))
        rng.shuffle(shuffled)
        for order in (None, list(reversed(range(n))), shuffled):
            c = ae.ConvexDigraph(Digraph(n, d.arcs), order)
            assert_relayout_and_masks_match_reference(c, rng, 3)
        lens = [len(lst) for lst in c._cw[1] + c._cw[-1]]
        seen.update({"empty" if d.a() == 0 else "arcs", 0 in lens and "empty-row", 1 in lens and "one-arc"})
    assert {"empty", "arcs", "empty-row", "one-arc"} <= seen


def test_relayout_and_masks_match_reference_on_pg7():
    rng = random.Random(31)
    host = ae.gen_incidence(7)
    order = list(range(host.n))
    rng.shuffle(order)
    for c in (ae.ConvexDigraph(host), ae.ConvexDigraph(ae.reverse(host)), ae.ConvexDigraph(host, order)):
        assert_relayout_and_masks_match_reference(c, rng, 20)


# -- the good-arc memo: per (convex digraph, step prefix) ----------------------


def prefix_keys(c):
    """The step prefixes whose stage is memoized on c."""
    return {key for key in c._cache if type(key) is tuple and key and type(key[0]) is tuple}


def fresh(d, order=None):
    """A ConvexDigraph on a memo-free copy of d."""
    return ae.ConvexDigraph(Digraph(d.n, d.arcs), order)


def test_dp_memo_second_call_runs_no_relayout(monkeypatch):
    calls = []
    relayout = convex.ConvexDigraph._relayout

    def counted(self, bits, sign):
        calls.append(sign)
        return relayout(self, bits, sign)

    monkeypatch.setattr(convex.ConvexDigraph, "_relayout", counted)
    host = ae.gen_incidence(7)
    order = list(range(host.n))
    random.Random(5).shuffle(order)
    t = spine_caterpillar(-1, [2, 0, 1, 3, 1, 2])
    for c in (ae.ConvexDigraph(host), ae.ConvexDigraph(host, order)):
        first = ae.good_arcs(c, t)
        least = convex._least_good_arc(first)
        # signs alternate: one relayout per stage after the first, and one
        # back to the out-major layout for the least arc (the last step is in-major)
        assert first.count and first.steps[-1][0] < 0 and len(calls) == len(first.steps)
        del calls[:]
        again = ae.good_arcs(c, t)
        assert convex._least_good_arc(again) == least
        assert ae.good_arcs_mindeg(c, t).stages == again.stages == first.stages
        assert calls == []
    # the default order's memo lives on the host: a new view of it is warm
    assert convex._least_good_arc(ae.good_arcs(ae.ConvexDigraph(host), t))
    assert calls == []


def test_dp_memo_one_entry_per_new_step():
    host = ae.gen_incidence(7)
    short = spine_caterpillar(1, [1, 0, 2])
    long = spine_caterpillar(1, [1, 0, 2, 1, 0, 3])
    c = ae.ConvexDigraph(host)
    steps = ae.good_arcs(c, short).steps
    assert len(steps) == 3 and prefix_keys(c) == {steps[:i] for i in (1, 2, 3)}
    table = ae.good_arcs(c, long)
    assert table.steps[:3] == steps
    assert prefix_keys(c) == {table.steps[:i] for i in range(1, 7)}
    # a tree with a step tuple already met adds nothing
    ae.good_arcs(c, spine_caterpillar(1, [1, 0]))
    assert len(prefix_keys(c)) == 6


def memo_trees(rng, count, spine_max, max_leaves):
    """Caterpillars with many shared step prefixes: leaf counts from a small
    range, two starting signs."""
    return [
        spine_caterpillar(rng.choice((1, -1)), [rng.randint(0, max_leaves) for _ in range(rng.randint(0, spine_max))])
        for _ in range(count)
    ]


def assert_memo_matches_fresh(d, trees, order=None):
    """Warm one ConvexDigraph with the trees in forward, then in reverse
    order; every table equals a memo-free one's, and the reference DP's."""
    refs = {}
    for seq in (trees, trees[::-1]):
        c = fresh(d, order)
        seen = set()
        for t in seq:
            table = ae.good_arcs(c, t)
            seen.add(table.steps)
            base = ae.good_arcs(fresh(d, order), t)
            assert table.steps == base.steps and table.stages == base.stages
            assert table.count == base.count
            if id(t) not in refs:
                refs[id(t)] = frozenset(reference_run_dp(c, t, caterpillar_decompose(t))[-1])
            assert table.stage_arcs[-1] == refs[id(t)] == base.stage_arcs[-1]
            assert ae.good_arcs_mindeg(c, t).stages == base.stages
            if table.count:
                assert convex._least_good_arc(table) == convex._least_good_arc(base) == min(refs[id(t)])
        # one entry per distinct prefix, shared by all trees that have it
        assert prefix_keys(c) == {steps[:i] for steps in seen for i in range(1, len(steps) + 1)}
    return seen


def test_dp_memo_matches_fresh_host_on_incidence_hosts():
    rng = random.Random(17)
    for q in (7, 13):
        host = ae.gen_incidence(q)
        order = list(range(host.n))
        rng.shuffle(order)
        trees = memo_trees(rng, 12, 6, (q + 1) // 4)
        for d in (host, ae.reverse(host)):
            seen = assert_memo_matches_fresh(d, trees)
        # the trees do share prefixes
        assert len({steps[:i] for steps in seen for i in range(1, len(steps) + 1)}) < sum(map(len, seen))
        assert_memo_matches_fresh(host, trees, order)


def test_dp_memo_matches_fresh_host_on_small_hosts():
    rng = random.Random(19)
    trees = caterpillars(4) + memo_trees(rng, 10, 4, 1)
    for _ in range(40):
        n = rng.randint(2, 7)
        d = random_digraph(rng, n)
        order = list(range(n))
        rng.shuffle(order)
        fits = [t for t in trees if t.n <= n]
        assert_memo_matches_fresh(d, fits)
        assert_memo_matches_fresh(d, fits, order)


def test_dp_memo_explicit_order_has_its_own_cache():
    host = ae.gen_incidence(7)
    t = spine_caterpillar(1, [2, 1, 0, 2])
    default = ae.ConvexDigraph(host)
    ae.good_arcs(default, t)
    assert ae.ConvexDigraph(host)._cache is default._cache
    before = dict(default._cache)
    # the identity order, given explicitly, builds the same tables but a cache of its own
    same = ae.ConvexDigraph(host, range(host.n))
    assert same._cache is not default._cache and not prefix_keys(same)
    assert ae.good_arcs(same, t).stages == ae.good_arcs(default, t).stages
    order = list(range(host.n))
    random.Random(23).shuffle(order)
    shuffled = ae.ConvexDigraph(host, order)
    table = ae.good_arcs(shuffled, t)
    assert table.stages != ae.good_arcs(default, t).stages
    assert table.stages == ae.good_arcs(fresh(host, order), t).stages
    assert default._cache == before and not prefix_keys(ae.ConvexDigraph(host, order))
    for bad in (order[1:], [0] + order[1:-1] + [0]):
        with pytest.raises(ae.AntembedError, match="order must be a permutation"):
            ae.ConvexDigraph(host, bad)


def test_stage_arcs_slices_are_lists_of_maps():
    host = ae.gen_incidence(7)
    table = ae.good_arcs(ae.ConvexDigraph(host), spine_caterpillar(1, [2, 1, 0, 2]))
    stages = table.stage_arcs
    sets = [stages[i] for i in range(len(stages))]
    assert all(type(s) is frozenset for s in sets) and sets[0] == host.arc_set
    assert all(stages[i - len(stages)] is s for i, s in enumerate(sets))  # decoded once
    for i in (len(stages), -len(stages) - 1):
        with pytest.raises(IndexError):
            stages[i]
