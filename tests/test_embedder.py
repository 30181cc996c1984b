import gc
import random
import types
from fractions import Fraction

import pytest

import antembed as ae
from antembed.digraph import Digraph
from antembed.convex import ConvexDigraph
from antembed.oracle_gen import sample_antitree_heavy
from antembed import tree_embedder as te
from antembed.subdigraph import SelectionResult
from antembed.tree_embedder import CaseTag, oracle_fallback


def T(n, arcs):
    return ae.validate_antitree(Digraph(n, arcs))


def bidirected_complete(n):
    return Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v])


def lopsided(m, b):
    return Digraph(m + b, [(i, m + j) for i in range(m) for j in range(b)])


def chain_extend(arcs, cur, cur_sign, nxt, want):
    while len(arcs) < want:
        nv = nxt
        nxt += 1
        arcs.append((cur, nv) if cur_sign > 0 else (nv, cur))
        cur, cur_sign = nv, -cur_sign
    return nxt


def antipath(k):
    arcs = []
    chain_extend(arcs, 0, +1, 1, k)
    return T(k + 1, arcs)


def test_threshold_table():
    # the integer forms of every ceiling/floor used by the dispatch
    for k in range(1, 61):
        assert (k + 11) // 12 == -((-k) // 12) == int(-(-Fraction(k, 12) // 1))
        assert (k + 1) // 2 == -(-Fraction(k, 2) // 1)
        assert (5 * k + 11) // 12 == -(-Fraction(5 * k, 12) // 1)
        assert k // 4 == Fraction(k, 4) // 1
        # threshold predicates in exact rational arithmetic
        for val in range(0, 2 * k + 2):
            assert (2 * val < k) == (Fraction(val) < Fraction(k, 2))
            assert (4 * val <= 3 * k) == (Fraction(val) <= Fraction(3 * k, 4))
            assert (12 * val < 7 * k) == (Fraction(val) < Fraction(7 * k, 12))


def test_embed_antitree_k1():
    d1 = Digraph(3, [(0, 1), (2, 1)])
    t1 = T(2, [(0, 1)])
    out = ae.embed_antitree(d1, t1)
    assert out.ok and ae.validate_embedding(t1, d1, out.embedding.map)


def reference_validate(t, d, mapping):
    """``validate_embedding`` as it read the arc pairs through ``has_arc``; the
    library's body must return the same bool."""
    if set(mapping.keys()) != set(range(t.n)):
        return False
    vals = list(mapping.values())
    if len(set(vals)) != len(vals):
        return False
    if any(not (0 <= h < d.n) for h in vals):
        return False
    return all(d.has_arc(mapping[u], mapping[v]) for u, v in t.tree.arcs)


def test_validate_embedding_matches_reference(seed=24):
    # each map is an injective random map, kept as it is or spoiled: a key
    # dropped or added, an image repeated, or an image moved below 0 or to n
    # and beyond
    rng = random.Random(seed)
    seen = {}
    for _ in range(3000):
        n = rng.randint(2, 9)
        k = rng.randint(1, n - 1)
        t = ae.sample_antitree(k, rng)
        d = Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < rng.random()])
        f = dict(enumerate(rng.sample(range(n), t.n)))
        spoil = rng.choice(["none", "none", "drop", "add", "repeat", "below", "beyond"])
        if spoil == "drop":
            del f[rng.randrange(t.n)]
        elif spoil == "add":
            f[rng.choice([-1, t.n, t.n + 3])] = rng.randrange(n)
        elif spoil == "repeat":
            u, v = rng.sample(range(t.n), 2)
            f[u] = f[v]
        elif spoil == "below":
            f[rng.randrange(t.n)] = -rng.randint(1, 3)
        elif spoil == "beyond":
            f[rng.randrange(t.n)] = n + rng.randint(0, 2)
        want = reference_validate(t, d, f)
        assert ae.validate_embedding(t, d, f) is want
        seen[spoil, want] = seen.get((spoil, want), 0) + 1
    for spoil in ("drop", "add", "repeat", "below", "beyond"):
        assert seen.get((spoil, False), 0) > 100 and (spoil, True) not in seen
    # unspoiled maps: a missing arc fails, and some maps keep every arc
    assert seen["none", False] > 100 and seen["none", True] > 50


def test_embeddings_compare_by_their_maps():
    assert ae.Embedding(map={0: 1, 1: 2}) == ae.Embedding(map={1: 2, 0: 1})
    assert ae.Embedding(map={0: 1}) != ae.Embedding(map={5: 6})
    assert ae.Embedding(map={0: 1}) != ae.Embedding(map={0: 2})


def test_validate_embedding_rejects_partial_and_out_of_range_maps():
    d, t = Digraph(3, [(0, 1), (2, 1)]), T(3, [(0, 1), (2, 1)])
    assert ae.validate_embedding(t, d, {0: 0, 1: 1, 2: 2})
    assert not ae.validate_embedding(t, d, {0: 0, 1: 1})  # tree vertex 2 missing
    assert not ae.validate_embedding(t, d, {0: 0, 1: 1, 2: 3})  # image outside the host


def test_embed_antitree_refusals():
    k = 4
    burr = ae.gen_burr(k)
    star = T(k + 1, [(0, i) for i in range(1, k + 1)])
    out = ae.embed_antitree(burr, star)
    assert not out.ok and out.failure["kind"] == "density"
    # forcing the oracle certifies non-containment
    out = ae.embed_antitree(burr, star, force_oracle=True)
    assert not out.ok and out.failure["kind"] == "not-contained"
    # dense but not free: refusal carries a revalidating witness
    host = bidirected_complete(6)
    t = antipath(4)
    out = ae.embed_antitree(host, t)
    assert not out.ok and out.failure["kind"] == "freeness"
    w = out.failure["witness"]
    cn = ae.common_neighborhood(host, w["a"], w["sign_a"], w["b"], w["sign_b"])
    assert set(w["common"]) <= cn
    # a k that is not the tree's arc count is refused before any work
    with pytest.raises(ae.HypothesisViolated, match="arc-count-mismatch"):
        ae.embed_antitree(host, t, t.k + 1)


def test_low_delta_on_incidence_host():
    # a bare core: PG(2,8) has pseudo-semidegree 9 >= 16/2 but is far below
    # the density bound, so only the private step reaches it
    host = ae.gen_incidence(8)
    k = 16
    t = antipath(k)
    mapping, case = te._low_delta(host, t, k, [])
    assert case == CaseTag("LowDelta", {"k": k}) and ae.validate_embedding(t, host, mapping)


LOW_DELTA_STALL_HOST = [
    (0, 4), (0, 5), (0, 6), (0, 7), (1, 3), (1, 6), (1, 8), (1, 9), (2, 5),
    (2, 6), (2, 7), (2, 8), (3, 1), (3, 2), (3, 4), (3, 5), (3, 8), (4, 1),
    (4, 5), (4, 7), (4, 8), (4, 9), (5, 0), (5, 2), (5, 4), (5, 6), (5, 8),
    (5, 9), (6, 2), (6, 4), (6, 5), (6, 7), (6, 9), (7, 0), (7, 1), (7, 3),
    (7, 5), (7, 6), (7, 8), (8, 0), (8, 2), (8, 3), (8, 9), (9, 0), (9, 1),
    (9, 3), (9, 7), (9, 8),
]


def test_low_delta_complete_host():
    # 8-arc antidirected path (max degree 2) into the bidirected K9
    host = bidirected_complete(9)
    t = antipath(8)
    out = ae.embed_antitree(host, t, known_free=True, budget=1000)
    assert out.case.branch == "LowDelta" and not out.assertion_events()
    assert out.ok and ae.validate_embedding(t, host, out.embedding.map)


def test_radius_two_and_wide_star():
    # the wide-star step on a bare core with a given hub and anchor
    host = bidirected_complete(12)
    k = 8
    star = T(k + 1, [(0, i) for i in range(1, k + 1)])
    f = te._wide_star(host, host, star, 0, 0, []).f
    assert ae.validate_embedding(star, host, f) and f[0] == 0
    # spider of radius two: hub with three children, each with one child
    arcs = [(0, 1), (0, 2), (0, 3), (4, 1), (5, 2), (6, 3)]
    spider = T(7, arcs)
    f = te._wide_star(host, host, spider, 0, 3, []).f
    assert ae.validate_embedding(spider, host, f) and f[0] == 3
    # deeper trees, layer by layer
    arcs = [(0, 1), (0, 2), (0, 3), (4, 1), (4, 5), (6, 5)]
    deep = T(7, arcs)
    f = te._wide_star(host, host, deep, 0, 0, []).f
    assert ae.validate_embedding(deep, host, f)


PU_EXCHANGE_HOST = [
    (0, 1), (0, 2), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 1), (2, 3),
    (2, 5), (3, 0), (3, 1), (3, 2), (3, 4), (3, 5), (4, 0), (4, 2), (4, 3),
    (4, 5), (5, 0), (5, 1), (5, 3),
]

CASE3B_EXCHANGE_HOST = [
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 7), (0, 8), (1, 0), (1, 4), (1, 8),
    (2, 1), (2, 3), (2, 5), (2, 6), (2, 8), (3, 1), (3, 2), (3, 4), (3, 5),
    (3, 6), (3, 7), (3, 8), (4, 0), (4, 1), (4, 5), (4, 6), (4, 7), (4, 8),
    (5, 0), (5, 1), (5, 2), (5, 3), (5, 4), (5, 7), (5, 8), (6, 1), (6, 2),
    (6, 3), (6, 4), (6, 8), (7, 0), (7, 1), (7, 4), (7, 6), (8, 1), (8, 2),
    (8, 3), (8, 7),
]


SPIDER5 = [(0, 1), (0, 2), (0, 3), (4, 1), (5, 2)]
SPIDER7 = [(0, 1), (0, 2), (0, 3), (4, 1), (5, 2), (6, 3)]
DEEP7 = [(0, 1), (0, 2), (0, 3), (4, 1), (4, 5), (6, 5)]


def low_delta_step(d, t, trace):
    return te._low_delta(d, t, t.k, trace)[0]


def wide_star_step(d, t, trace):
    return te._wide_star(d, d, t, ae.degree_stats(t).argmax_u, 0, trace).f


@pytest.mark.parametrize("embed, d, t, tag, embeds", [
    pytest.param(low_delta_step, Digraph(10, LOW_DELTA_STALL_HOST), antipath(8), "63:stall", True, id="low-delta-fixture"),
    pytest.param(wide_star_step, Digraph(6, PU_EXCHANGE_HOST), T(6, SPIDER5), "pu:stall", True, id="pu-fixture"),
    pytest.param(wide_star_step, Digraph(9, CASE3B_EXCHANGE_HOST), T(7, DEEP7), "case3b:stall", True, id="case3b-fixture"),
    pytest.param(low_delta_step, bidirected_complete(5), antipath(8), "63:stall", False, id="K5"),
    pytest.param(wide_star_step, bidirected_complete(6), T(7, SPIDER7), "pu:stall", False, id="K6"),
])
def test_low_delta_and_wide_star_stalls_fail_their_settle_step(embed, d, t, tag, embeds):
    # frozen hosts that break the hypotheses: the greedy stalls where the
    # argument would run an exchange move (the low-delta re-seat loop, the
    # depth-2 swap, the case-3b cascade), and the settle step fails
    trace = []
    with pytest.raises(ae.InternalAssertion) as exc:
        embed(d, t, trace)
    assert exc.value.tag == tag and exc.value.data == {"open": 1}
    assert trace[-1] == {"event": "check", "tag": tag, "holds": False, "open": 1}
    assert (ae.oracle_embed(d, t).verdict == "Embeds") is embeds


def test_case3b_stall_falls_back_to_the_oracle():
    d, t = Digraph(9, CASE3B_EXCHANGE_HOST), T(7, DEEP7)
    assert d.a() > (t.k - 1) * d.n
    out = ae.embed_antitree(d, t, known_free=True)
    assert [e["tag"] for e in out.assertion_events()] == ["case3b:stall"]
    assert out.trace[-1] == {"event": "oracle", "verdict": "Embeds", "nodes": 7}
    assert out.ok and ae.validate_embedding(t, d, out.embedding.map)


def test_fallback_trace_keeps_the_branch_checkpoints():
    # the branch appends to the trace embed_antitree passes down, so its
    # selection and the failing settle check stay ahead of the assertion
    out = ae.embed_antitree(Digraph(9, CASE3B_EXCHANGE_HOST), T(7, DEEP7), known_free=True)
    events = [e["event"] for e in out.trace]
    stall = out.trace.index({"event": "check", "tag": "case3b:stall", "holds": False, "open": 1})
    assert events.index("select") < stall == events.index("internal-assertion") - 1


def test_mid_delta_star_and_sweep():
    k = 6
    host = bidirected_complete(k + 1)
    star = T(k + 1, [(0, i) for i in range(1, k + 1)])
    out = ae.embed_antitree(host, star, known_free=True, budget=1000)
    assert out.case.branch == "MidDelta" and not out.assertion_events()
    assert out.ok and ae.validate_embedding(star, host, out.embedding.map)
    rng = random.Random(12)
    for _ in range(25):
        n = rng.randint(8, 13)
        host = bidirected_complete(n)
        k = rng.randint(4, n - 1)
        t = sample_antitree_heavy(k, rng, max(2, k // 4 + 1))
        st = ae.degree_stats(t)
        if 4 * st.delta <= k or st.delta2 > k // 4 + 2:
            continue
        out = ae.embed_antitree(host, t, k, known_free=True, budget=1000)
        assert out.case.branch == "MidDelta" and not out.assertion_events()
        assert out.ok and ae.validate_embedding(t, host, out.embedding.map)


def strip_host():
    X, Y, Z = 20, 20, 3
    arcs = []
    for x in range(X):
        for y in range(Y):
            arcs.append((x, X + y))
            arcs.append((X + y, x))
    for x in range(5):
        for z in range(Z):
            arcs.append((x, X + Y + z))
    return Digraph(X + Y + Z, arcs)


def test_mid_delta_strip_and_reattach():
    # the selected core keeps three sinks of in-degree 5, below k/2, so the
    # hub loses delta - r leaves, the trimmed tree embeds, and they return
    host = strip_host()
    k = 13
    sel = ae.select_subdigraph(host, k, 4)
    assert sel.case_tag == "I"
    assert ae.degree_profile(sel.sub).delta0_bar == 5  # genuinely below 7
    arcs = []
    u, nxt, kids = 0, 1, []
    for _ in range(10):
        arcs.append((u, nxt))
        kids.append(nxt)
        nxt += 1
    arcs += [(nxt, kids[0]), (nxt + 1, kids[0]), (nxt + 2, kids[1])]
    t = T(k + 1, arcs)
    out = ae.embed_antitree(host, t, k, known_free=True, budget=1000)
    assert out.case.branch == "MidDelta" and not out.assertion_events()
    assert out.ok and ae.validate_embedding(t, host, out.embedding.map)
    ev = [e for e in out.trace if e.get("event") == "strip-reattach"]
    assert len(ev) == 1 and ev[0]["stripped"] == 6 and ev[0]["kprime"] == 7


def _stripped_reference(d, t, k):
    """Hub stripping the relabelled way: ``_wide_star`` on the subtree left
    when the hub's least Delta - r leaves are gone, built from scratch and
    read back, then those leaves on the witness's free core out-neighbors,
    least first."""
    s = ae.degree_stats(t)
    r = k - s.delta + 1
    sel = ae.select_subdigraph(d, k, r)
    strip = [x for x in t.adj[s.argmax_u] if t.deg[x] == 1][: s.delta - r]
    keep = sorted(set(range(t.n)).difference(strip))
    sub = _induced_reference(t, keep)
    f = te._wide_star(d, sel.sub, sub, keep.index(s.argmax_u), sel.witness_vertex, []).f
    mapping = {keep[i]: h for i, h in f.items()}
    row = sel.sub.neighbor_bits(sel.witness_vertex, +1)
    mapping.update(zip(strip, [h for h in range(d.n) if (row >> h) & 1 and h not in mapping.values()]))
    return mapping


def test_hub_stripping_matches_the_stripped_subtree():
    # hub 0 with ten children and three more arcs hung at random below them:
    # the stripped leaves stay in t's labels and go back through ``place``
    host, k = strip_host(), 13
    rng = random.Random(4)
    for _ in range(30):
        arcs, sign = [(0, c) for c in range(1, 11)], [1] + [-1] * 13
        for w in range(11, 14):
            x = rng.randrange(1, w)
            sign[w] = -sign[x]
            arcs.append((x, w) if sign[x] > 0 else (w, x))
        t = T(k + 1, arcs)
        out = ae.embed_antitree(host, t, k, known_free=True, budget=0)
        assert out.case.branch == "MidDelta" and not out.assertion_events()
        assert any(e["event"] == "strip-reattach" for e in out.trace)
        assert out.embedding.map == _stripped_reference(host, t, k)


def broomA_tree_small(k=24):
    arcs = [(0, 1)]
    nxt = 2
    for _ in range(8):
        arcs.append((0, nxt))
        nxt += 1
    for _ in range(8):
        arcs.append((nxt, 1))
        nxt += 1
    chain_extend(arcs, 10, +1, nxt, k)
    return T(k + 1, arcs)


def test_broom_case_a_greedy():
    k = 24
    t = broomA_tree_small(k)
    st = ae.degree_stats(t)
    assert st.delta2 >= k // 4 + 3
    broom = ae.double_broom(t, 0, 1)
    assert 4 * len(broom.vertices) <= 3 * k
    host = bidirected_complete(40)
    out = ae.embed_antitree(host, t, k, known_free=True, budget=1000)
    assert out.case.branch == "BroomA" and not out.case.params["padded"]
    assert out.ok and ae.validate_embedding(t, host, out.embedding.map)
    assert not out.assertion_events()


def broomA_tree_padded():
    """Case A-II at k = 84 (the second bullet needs k > 72): two adjacent
    hubs of degree 24, so the broom takes no padding leaf."""
    k = 84
    arcs = [(0, 1)]
    nxt = 2
    for _ in range(23):
        arcs.append((0, nxt))
        nxt += 1
    for _ in range(23):
        arcs.append((nxt, 1))
        nxt += 1
    chain_extend(arcs, 25, +1, nxt, k)
    return T(k + 1, arcs)


def broomA_tree_padded96():
    """Case A-II at k = 96 with one padding leaf: the hub 0 with 28 children,
    a 19-arc path from it to the sink 19 with 27 neighbors, and a chain."""
    k = 96
    arcs = []
    nxt = chain_extend(arcs, 0, +1, 1, 19)
    for _ in range(27):
        arcs.append((0, nxt))
        nxt += 1
    for _ in range(26):
        arcs.append((nxt, 19))
        nxt += 1
    chain_extend(arcs, 2, +1, nxt, k)
    return T(k + 1, arcs)


def skewed_complete(m, s):
    """A bidirected m-clique and s pure sources with arcs into all of it."""
    arcs = [(a, b) for a in range(m) for b in range(m) if a != b]
    return Digraph(m + s, arcs + [(m + i, b) for i in range(s) for b in range(m)])


def test_broom_case_a_padded():
    t, k = broomA_tree_padded(), 84
    host = bidirected_complete(100)
    out = ae.embed_antitree(host, t, k, known_free=True, budget=1000)
    assert out.case.branch == "BroomA" and out.case.params["padded"]
    assert out.ok and ae.validate_embedding(t, host, out.embedding.map)
    assert not out.assertion_events()


def _padded_reference(core, t, case):
    """Case A-II's broom map the relabelled way: B_uv's subtree with
    Delta - delta2 more leaves at v, built and validated from scratch,
    through ``embed_caterpillar_mindeg``, read back in t's labels."""
    p = case.params
    back = sorted(ae.double_broom(t, p["u"], p["v"]).vertices)
    sub = _induced_reference(t, back)
    pad = [(sub.n + i, back.index(p["v"])) for i in range(p["delta"] - p["delta2"])]
    padded = ae.validate_antitree(Digraph(sub.n + len(pad), [*sub.tree.arcs, *pad]))
    return {back[i]: h for i, h in ae.embed_caterpillar_mindeg(core, padded).map.items() if i < sub.n}


@pytest.mark.parametrize("tree, host, leans_plus", [
    pytest.param(broomA_tree_padded, lambda: skewed_complete(96, 4), True, id="k84-K96+4"),
    pytest.param(broomA_tree_padded96, lambda: bidirected_complete(100), False, id="k96-K100"),
    pytest.param(broomA_tree_padded96, lambda: skewed_complete(100, 4), True, id="k96-K100+4"),
])
def test_broom_case_a_padded_in_the_tree_labels(tree, host, leans_plus):
    # the padded broom runs from its own decomposition; where the core keeps
    # more sources than sinks it takes its least good arc in (head, tail)
    # order, and its map is the one the relabelled padded subtree gets
    t, d = tree(), host()
    tag, r = _broom_tag(t, t.k, "BroomA")
    core = ae.select_subdigraph(d, t.k, r).sub
    dplus, dminus = (ae.digraph.side_bits(core, s).bit_count() for s in (1, -1))
    assert tag.params["padded"] and (dplus > dminus) is leans_plus
    out = ae.embed_antitree(d, t, known_free=True, budget=0)
    assert out.ok and out.case == tag and not out.assertion_events()
    assert ae.validate_embedding(t, d, out.embedding.map)
    want = _padded_reference(core, t, tag)
    assert {x: out.embedding.map[x] for x in want} == want


def test_padded_broom_hypotheses_fail_to_the_oracle(monkeypatch):
    # a core too sparse for the padded broom: its hypotheses fail as an
    # internal assertion, so the oracle answers and no HypothesisViolated
    # leaves embed_antitree
    sparse = Digraph(100, [(a, b) for a in range(40) for b in range(40) if a != b])
    sel = SelectionResult(sub=sparse, case_tag="I", witness_vertex=0, audit={})
    monkeypatch.setattr(te, "select_subdigraph", lambda d, k, r: sel)
    out = ae.embed_antitree(bidirected_complete(100), broomA_tree_padded(), known_free=True, budget=0)
    assert [e["tag"] for e in out.assertion_events()] == ["A-II:hypotheses"]
    assert out.failure == {"kind": "budget-exhausted"}


def test_broom_case_b1_catmindeg():
    host = ae.gen_incidence(25)
    rng = random.Random(31)
    k = 13
    for _ in range(5):
        t = sample_antitree_heavy(k, rng, 6)
        out = ae.embed_antitree(host, t, k, known_free=True)
        assert out.case.branch == "BroomB_I"
        assert out.ok and ae.validate_embedding(t, host, out.embedding.map)
        assert not out.assertion_events()


def test_broom_b1_witness_is_checked_whole_on_its_arcs(monkeypatch):
    # two adjacent spine images swapped: the map stays injective on B_uv but
    # reverses a broom arc, which the whole check catches before placement
    replay = ae.convex.reconstruct_witness

    def swapped(c, t, table, arc):
        f = replay(c, t, table, arc)
        x, y = table.dec.spine[:2]
        f[x], f[y] = f[y], f[x]
        return f

    monkeypatch.setattr(ae.convex, "reconstruct_witness", swapped)
    t = sample_antitree_heavy(13, random.Random(31), 6)
    out = ae.embed_antitree(ae.gen_incidence(25), t, known_free=True, budget=1)
    assert [e["tag"] for e in out.assertion_events()] == ["witness-invalid"]
    assert out.trace[-3]["tag"] == "B-I:balance" and out.failure == {"kind": "budget-exhausted"}


def _induced_reference(t, verts):
    """The induced subtree as ``validate_antitree`` builds it from scratch,
    relabelled 0.. in vertex order."""
    keep = sorted(verts)
    relabel = {v: i for i, v in enumerate(keep)}
    arcs = [(relabel[a], relabel[b]) for a, b in t.tree.arcs if a in verts and b in verts]
    return ae.validate_antitree(Digraph(len(keep), arcs))


def _assert_broom_decomposition(t, broom, c):
    """The broom's own decomposition is the one its relabelled subtree gets,
    read back in t's labels, and gives the same good-arc steps."""
    sub, back = _induced_reference(t, broom.vertices), sorted(broom.vertices)
    ref = ae.caterpillar_decompose(sub)
    assert broom.dec.spine == tuple(back[i] for i in ref.spine)
    assert dict(broom.dec.leaves_at) == {back[p]: tuple(back[i] for i in ls) for p, ls in ref.leaves_at.items()}
    assert ae.convex._run_dp(c, t, broom.dec).steps == ae.convex._run_dp(c, sub, ref).steps


def test_broom_decomposition_matches_the_validated_subgraph():
    # the brooms the embedder builds, on sampled k = 13 trees
    c = ConvexDigraph(Digraph(2, [(0, 1)]))
    rng = random.Random(1302)
    for i in range(2000):
        t = ae.sample_antitree(13, rng) if i % 2 else sample_antitree_heavy(13, rng, 6)
        s = ae.degree_stats(t)
        _assert_broom_decomposition(t, ae.double_broom(t, s.argmax_u, s.argmax2_v), c)
    # heavy k = 24 trees, with both hub sides and either end least
    for _ in range(40):
        t = sample_antitree_heavy(24, rng, 9)
        s = ae.degree_stats(t)
        _assert_broom_decomposition(t, ae.double_broom(t, s.argmax_u, s.argmax2_v), c)


def test_double_broom_decomposition_of_degenerate_brooms():
    # an end with no leaf of its own, down to a star and a single arc: every
    # ordered pair of a few small trees
    c = ConvexDigraph(Digraph(2, [(0, 1)]))
    rng = random.Random(5)
    trees = [T(2, [(0, 1)]), T(5, [(0, i) for i in range(1, 5)]), T(5, [(4, i) for i in range(4)])]
    trees += [ae.sample_antitree(rng.randint(2, 9), rng) for _ in range(60)]
    for t in trees:
        for u in range(t.n):
            for v in range(t.n):
                if u != v:
                    _assert_broom_decomposition(t, ae.double_broom(t, u, v), c)


def test_broom_case_b2_paths():
    host = lopsided(160, 13)
    k = 13
    assert host.a() > (k - 1) * host.n

    def run(t):
        out = ae.embed_antitree(host, t, k, known_free=True, budget=1000)
        assert out.case.branch == "BroomB_II"
        assert out.ok and ae.validate_embedding(t, host, out.embedding.map)
        assert not out.assertion_events()
        # the suitability mask, rechecked here as well as inside the op
        sel = ae.select_subdigraph(host, k, out.case.params["r"])
        core = {v for v in range(host.n) if sel.sub.out_deg(v) + sel.sub.in_deg(v) > 0}
        assert all(out.embedding.map[x] in core for x in range(t.n) if t.deg[x] > 1)
        return out

    # double-star broom plus one off-broom chain vertex
    arcs = [(0, 1)]
    nxt = 2
    for _ in range(6):
        arcs.append((0, nxt))
        nxt += 1
    for _ in range(5):
        arcs.append((nxt, 1))
        nxt += 1
    arcs.append((nxt, 2))
    run(T(k + 1, arcs))

    # relabel case (iii): two hubs at distance three, the far one a sink
    arcs = [(0, 1), (2, 1), (2, 3)]
    nxt = 4
    for _ in range(5):
        arcs.append((0, nxt))
        nxt += 1
    for _ in range(5):
        arcs.append((nxt, 3))
        nxt += 1
    run(T(k + 1, arcs))

    # relabel case (ii): both hubs sources at distance two
    arcs = [(0, 1), (2, 1)]
    nxt = 3
    for _ in range(5):
        arcs.append((0, nxt))
        nxt += 1
    c = 3
    for _ in range(5):
        arcs.append((2, nxt))
        nxt += 1
    arcs.append((nxt, c))
    run(T(k + 1, arcs))

    # r = k - delta variant with a wide hub
    arcs = [(0, 1)]
    nxt = 2
    for _ in range(7):
        arcs.append((0, nxt))
        nxt += 1
    for _ in range(5):
        arcs.append((nxt, 1))
        nxt += 1
    out = run(T(k + 1, arcs))
    assert out.case.params["r"] == 5


def _line_deleted_pg25(keep, seed):
    """PG(2,25)'s incidence digraph keeping ``keep`` seeded lines, relabelled
    0.. (points first); deleting arcs keeps it K_{2,2}-free."""
    full = ae.gen_incidence(25)
    n = full.n // 2
    lines = sorted(random.Random(seed).sample(range(n, 2 * n), keep))
    relabel = {v: i for i, v in enumerate([*range(n), *lines])}
    return Digraph(n + keep, [(a, relabel[b]) for a, b in full.arcs if b in relabel])


def test_free_host_reaches_every_branch_without_a_stall():
    # the k=13 theorem2 tree mix on line-deleted PG(2,25), then adversarial
    # rounds that each delete the arcs the last embedding used
    d, k = _line_deleted_pg25(600, 1), 13
    assert (d.n, d.a()) == (1251, 15600) and ae.is_k2s_free(d, 2) is True
    rng = random.Random(2)
    branches = set()

    def run(h, i):
        if i % 2:
            t = sample_antitree_heavy(k, rng, 6)
        else:
            t = ae.sample_antitree(k, rng)
            if ae.degree_stats(t).delta2 > 5:
                t = ae.sample_antitree(k, rng)
        out = ae.embed_antitree(h, t, k, known_free=True)
        assert not out.assertion_events()
        assert out.ok and ae.validate_embedding(t, h, out.embedding.map)
        branches.add(out.case.branch)
        return {(out.embedding.map[x], out.embedding.map[y]) for x, y in t.tree.arcs}

    for i in range(60):
        run(d, i)
    for i in range(8):
        used = run(d, i)
        d = Digraph(d.n, [a for a in d.arcs if a not in used])
    assert d.a() > (k - 1) * d.n
    assert branches == {"LowDelta", "MidDelta", "BroomB_I", "BroomB_II"}


def _broom_tag(t, k, branch):
    """The CaseTag the double-broom branch builds for t, and its r."""
    _, params = te._broom_case(t, k, ae.degree_stats(t))
    return CaseTag(branch, params), params["r"]


def _failed_check(out):
    """The check event just before the outcome's internal-assertion event."""
    i = [e["event"] for e in out.trace].index("internal-assertion")
    return out.trace[i - 1]


def two_cliques(s, m):
    """A bidirected s-clique on 0..s-1, a bidirected m-clique after it, and a
    last vertex z with arcs to the m-clique's first two vertices and from all
    of it.  A broom branch anchors at vertex 0 and so grows inside the
    s-clique; the oracle tries z first (least out-degree) and embeds in the
    m-clique."""
    arcs = [(a, b) for a in range(s) for b in range(s) if a != b]
    arcs += [(s + a, s + b) for a in range(m) for b in range(m) if a != b]
    z = s + m
    arcs += [(z, s), (z, s + 1)] + [(s + a, z) for a in range(m)]
    return Digraph(s + m + 1, arcs)


def test_broom_a_greedy_stall_asserts():
    # the 18-vertex broom of case A-I does not fit in the 13-clique
    d, k = two_cliques(13, 29), 24
    t = broomA_tree_small(k)
    tag, r = _broom_tag(t, k, "BroomA")
    assert d.a() > (k - 1) * d.n and not tag.params["padded"]
    out = ae.embed_antitree(d, t, k, known_free=True, budget=10_000)
    assert [e["tag"] for e in out.assertion_events()] == ["A-I:stall"]
    assert _failed_check(out) == {"event": "check", "tag": "A-I:stall", "holds": False, "open": 5}


def test_extension_stall_asserts_and_the_oracle_answers():
    # the broom fills the 18-clique, so the path hanging off it has no room
    d, k = two_cliques(18, 28), 24
    t = broomA_tree_small(k)
    tag, r = _broom_tag(t, k, "BroomA")
    sel = ae.select_subdigraph(d, k, r)
    part = te._broom_a_greedy(sel.sub, t, ae.double_broom(t, 0, 1), tag.params["u"], [])
    assert set(part.values()) == set(range(18))
    out = ae.embed_antitree(d, t, k, known_free=True)
    assert [e["tag"] for e in out.assertion_events()] == ["extend:stall"]
    assert {"event": "check", "tag": "A-I:stall", "holds": True, "open": 0} in out.trace
    assert _failed_check(out) == {"event": "check", "tag": "extend:stall", "holds": False, "open": 1}
    assert out.trace[-1] == {"event": "oracle", "verdict": "Embeds", "nodes": 25}
    assert out.ok and ae.validate_embedding(t, d, out.embedding.map)


def test_broom_b2_stall_asserts():
    # a hand-made case-II selection whose source 1 reaches only 8 of the 13
    # sinks: the hub x = 0 takes six of them for its children, y lands on
    # source 1 and finds two sinks for its five leaves
    m, b, k = 4, 13, 13
    d = Digraph(m + b, [(i, m + j) for i in range(m) for j in range(b) if i != 1 or j < 8])
    sel = SelectionResult(sub=d, case_tag="II", witness_vertex=m, audit={})
    arcs = [(0, 1), (2, 1)] + [(0, c) for c in range(3, 8)] + [(2, c) for c in range(8, 13)] + [(13, 3)]
    t = T(14, arcs)
    tag, r = _broom_tag(t, k, "BroomB_II")
    assert r == 6
    with pytest.raises(ae.InternalAssertion) as exc:
        te._broom(d, sel, t, tag, [])
    assert exc.value.tag == "Bii:stall" and exc.value.data == {"open": 3}


def test_fallback_budget_ends_a_trapped_oracle(monkeypatch):
    # two bidirected cliques with no way out: the broom stalls in the
    # 13-clique, and the oracle, trying vertices of least degree first,
    # searches that clique; without a default budget it runs for minutes
    d = Digraph(42, [a for a in two_cliques(13, 29).arcs if max(a) < 42])
    k = 24
    assert d.a() > (k - 1) * d.n
    monkeypatch.setattr(ae.tree_embedder, "FALLBACK_BUDGET", 1000)
    out = ae.embed_antitree(d, broomA_tree_small(k), k, known_free=True)
    assert [e["tag"] for e in out.assertion_events()] == ["A-I:stall"]
    assert out.failure == {"kind": "budget-exhausted"}
    assert out.trace[-1] == {"event": "oracle", "verdict": "Inconclusive", "nodes": 1001}


def test_extend_identity_when_broom_is_whole_tree():
    # pure double star: B_uv = T, so the extension step has nothing to add
    host = lopsided(160, 13)
    k = 13
    arcs = [(0, 1)]
    nxt = 2
    for _ in range(6):
        arcs.append((0, nxt))
        nxt += 1
    for _ in range(6):
        arcs.append((nxt, 1))
        nxt += 1
    t = T(k + 1, arcs)
    broom = ae.double_broom(t, 0, 1)
    assert broom.vertices == frozenset(range(t.n))
    out = ae.embed_antitree(host, t, k, known_free=True, budget=1000)
    assert out.case.branch == "BroomB_II" and not out.assertion_events()
    assert out.ok and ae.validate_embedding(t, host, out.embedding.map)


def test_incidence_hosts_are_antidirected():
    for q in (2, 3):
        d = ae.gen_incidence(q)
        for v in range(d.n):
            assert not (d.out_deg(v) > 0 and d.in_deg(v) > 0)


def test_oracle_fallback_op():
    burr = ae.gen_burr(3)
    star = T(4, [(0, 1), (0, 2), (0, 3)])
    out = oracle_fallback(burr, star)
    assert not out.ok and out.failure["kind"] == "not-contained"
    host = bidirected_complete(5)
    out = oracle_fallback(host, star)
    assert out.ok and ae.validate_embedding(star, host, out.embedding.map)
    out = oracle_fallback(bidirected_complete(10), T(8, [(0, i) for i in range(1, 7)] + [(7, 1)]), budget=1)
    assert not out.ok and out.failure["kind"] == "budget-exhausted"


# host draw 105,670 (counting skipped draws) of the k = 6..16 random dense-host
# loop at random.Random(7): not K_{2,s}-free, and the B-I big-hub step stalls
# at its first anchor
BIBIG_STALL_HOST = [
    (15, 5), (17, 11), (0, 10), (6, 0), (8, 1), (0, 13), (7, 1), (10, 18),
    (14, 6), (11, 15), (9, 2), (5, 17), (17, 2), (7, 5), (2, 19), (18, 6),
    (13, 2), (14, 10), (14, 4), (6, 1), (5, 11), (13, 9), (17, 6), (7, 16),
    (10, 15), (3, 8), (10, 2), (7, 4), (19, 11), (12, 13), (19, 12),
    (18, 16), (0, 5), (0, 4), (18, 10), (0, 1), (5, 19), (7, 18), (14, 11),
    (3, 1), (19, 15), (14, 12), (2, 17), (7, 17), (11, 13), (18, 12),
    (12, 17), (17, 14), (5, 1), (12, 0), (19, 1), (3, 11), (2, 8), (13, 7),
    (4, 15), (19, 5), (9, 1), (5, 7), (0, 7), (14, 17), (15, 4), (7, 12),
    (4, 10), (16, 2), (16, 0), (0, 15), (0, 17), (9, 3), (9, 6), (0, 8),
    (12, 16), (15, 17), (4, 14), (8, 5), (13, 0), (1, 10), (12, 4), (17, 1),
    (6, 3), (12, 19), (13, 15), (5, 0), (13, 5), (19, 17), (14, 15),
    (15, 12), (14, 3), (1, 2), (11, 10), (14, 13), (2, 14), (7, 11),
    (8, 10), (19, 18), (9, 13), (7, 0), (16, 3), (4, 11), (18, 0), (13, 17),
    (5, 9), (11, 6), (2, 12), (15, 3), (6, 8), (9, 10), (1, 8), (11, 3),
    (2, 10), (12, 2), (17, 10), (10, 17), (2, 3), (9, 11), (5, 18), (1, 4),
    (5, 16), (15, 1), (19, 2), (19, 6), (9, 8), (16, 9), (7, 14), (18, 17),
    (8, 18), (5, 15), (2, 7), (0, 12), (6, 10), (7, 8), (15, 13), (4, 8),
    (8, 2), (4, 3), (7, 9), (8, 17), (18, 2), (1, 5), (19, 14), (5, 8),
    (17, 9), (3, 0), (0, 3), (12, 3), (1, 14), (2, 15), (1, 18), (18, 3),
    (1, 9), (16, 18), (16, 19), (17, 4), (14, 8), (6, 14), (13, 19), (0, 6),
    (17, 3), (4, 17), (10, 8), (19, 13), (13, 6), (9, 0), (14, 5), (10, 1),
    (7, 10), (17, 7), (9, 14), (4, 19), (9, 17), (8, 12), (1, 12), (9, 4),
    (11, 4), (2, 18), (15, 18), (11, 0), (4, 12), (6, 11), (13, 8),
    (13, 11), (10, 19), (6, 7), (16, 7),
]
BIBIG_STALL_TREE = [(1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (6, 0), (1, 7), (1, 8), (1, 9), (1, 10)]


def test_branch_assertion_falls_back_to_the_oracle():
    d = Digraph(20, BIBIG_STALL_HOST)
    t = T(11, BIBIG_STALL_TREE)
    out = ae.embed_antitree(d, t, 10, known_free=True)
    assert out.ok and ae.validate_embedding(t, d, out.embedding.map)
    assert [e["tag"] for e in out.assertion_events()] == ["BIbig:part1"]
    assert _failed_check(out)["tag"] == "BIbig:part1"
    assert out.trace[-1]["event"] == "oracle" and out.trace[-1]["verdict"] == "Embeds"


def _hex_host(n, rows):
    """A digraph from its out-rows, written as hex numbers."""
    return Digraph.from_bits(n, [int(r, 16) for r in rows.split()])


# Two k = 24 instances from streams of random dense hosts, each a tree
# sample_antitree_heavy(24, rng, 9) and a uniform host on n vertices with
# (k - 1) n + 1 + randint(0, e n) arcs.  Not K_{2,s}-free, so embedded with
# known_free=True and budget=0: a failing step would show as an assertion.
# Draw 770 of random.Random(11), n in 26..50, e = 2: the B-I big-hub step
# with a non-leaf child of the hub off the u-v path, so D_u is not empty.
BIBIG_DU_HOST = 28, """
    ff7ffbe bef757d 7bedffb ffffe57 fff9fef cbf9fd6 fffff3f 6ed6f7f dfffeff ffebdd3
    ffb7aff fefb5f7 5ffcfff effddb3 7bdbfff fff7f7f bbeb7bf 5e9f7fd ffbfdbe fb5ffff
    feffbbf fcfebfb ebfd3ae f7af3ff c7ffefb df7ff7e bf3dffa 7f7bfda
"""
BIBIG_DU_TREE = [
    *((c, 0) for c in range(1, 16)), *((1, c) for c in range(16, 24)), (13, 24),
]
# Draw 1863 of random.Random(1), n in 52..66, e = 1: case B-II relabelled by
# rule (i).
XY_CASE_I_HOST = 60, """
    d01061c7d200958 70ce05a34c38cb4 23563f6818c1023 a688466841cc381 465409ec26b9406
    530a6d888944047 a76a29d9b655012 11004d07e9c1052 57a602246313e59 d3e3bb100a69188
    779ae743214f3d0 344d252d086272a 34e209ad0948530 180804a110080f1 26c1461402a118f
    39434382a00283e 2232a624222cc21 8ec3d2e32844747 891372b9fdb6028 5a198ec6dc12606
    c1a297792062dbb e2b3780eb8b054a 5f93520b1382635 e8f6986d807b8d2 7c07837465c1330
    6c2cc0059956c20 94eb02800402039 a045be00484445b 4615de521a2d5ea 9bc2501524ad10a
    915611d80cb1a9d 5c300920be36d14 3b20910dea28351 f0450211c2f0a22 85626a2099d2215
    9884cb29909cf90 0b0ae0171108188 19535dc51271834 603fe141480042a 634da0479c240f0
    12284c1cc415c14 d308403a0b45885 27542554dc96292 0aa339420a040e0 8cb021b3b5467d6
    81a809fa6116858 48fa3b6a6687009 42044408c000008 01cd48d00413584 6900a81ae3a8145
    628c2d90d534669 1d0076f259cc4a5 52c8838bf537f22 40d00272761ce2c c2955610072e405
    8005dff2f04e0a5 a2cd04131baa2de 99d1140eecdf59c 0c78b060a710100 1200288c0903b70
"""
XY_CASE_I_TREE = [
    (2, 0), (2, 3), (1, 3), *((c, 0) for c in range(4, 15)), *((1, c) for c in range(15, 23)),
    (23, 17), (11, 24),
]


def test_bi_big_hub_embeds_the_subtrees_off_the_path():
    d, t, k = _hex_host(*BIBIG_DU_HOST), T(25, BIBIG_DU_TREE), 24
    out = ae.embed_antitree(d, t, k, known_free=True, budget=0)
    assert out.case.branch == "BroomB_I" and not out.assertion_events()
    p = out.case.params
    path = t.path(p["u"], p["v"])
    assert [c for c in t.adj[p["u"]] if t.deg[c] > 1 and c not in path] == [13]
    # T* leaves out u, its 13 leaves, 13 and D_u = {24}: v = 1 and its 8 leaves
    assert {"event": "check", "tag": "eq:T^*", "holds": True, "size": 9} in out.trace
    assert {"event": "check", "tag": "BIbig:Du", "holds": True, "open": 0} in out.trace
    assert out.ok and ae.validate_embedding(t, d, out.embedding.map)


def test_broom_b2_relabel_case_i():
    d, t, k = _hex_host(*XY_CASE_I_HOST), T(25, XY_CASE_I_TREE), 24
    out = ae.embed_antitree(d, t, k, known_free=True, budget=0)
    assert out.case.branch == "BroomB_II" and not out.assertion_events()
    assert {"event": "xy-case", "case": "i"} in out.trace
    assert out.ok and ae.validate_embedding(t, d, out.embedding.map)


def test_final_validation_failure_falls_back_to_the_oracle(monkeypatch):
    host = bidirected_complete(6)
    t = T(4, [(0, 1), (0, 2), (3, 1)])

    def bogus(d, t, k, trace):
        return {v: 0 for v in range(t.n)}, CaseTag("LowDelta", {"k": k})

    monkeypatch.setattr(ae.tree_embedder, "_dispatch", bogus)
    out = ae.embed_antitree(host, t, known_free=True)
    assert out.trace[-2] == {"event": "internal-assertion", "tag": "final-validate"}
    assert out.trace[-1]["event"] == "oracle" and out.trace[-1]["verdict"] == "Embeds"
    assert out.ok and ae.validate_embedding(t, host, out.embedding.map)


def test_each_embedding_is_validated_once(monkeypatch):
    # the public embedders validate what they return, once, on their caller's
    # pair; the steps below them return maps unchecked
    calls = {}

    def count(module, name, key):
        inner = getattr(module, name)

        def counted(*args):
            calls[key] = calls.get(key, 0) + 1
            return inner(*args)

        monkeypatch.setattr(module, name, counted)

    count(te, "validate_embedding", "tree_embedder")
    count(ae.convex, "validate_embedding", "convex")
    count(ae.convex, "checked_witness", "witness")
    host = ae.gen_incidence(25)
    rng = random.Random(0)
    runs = [(host, ae.sample_antitree(13, random.Random(6)), "LowDelta"),
            (host, ae.sample_antitree(13, rng), "MidDelta"),
            (host, sample_antitree_heavy(13, rng, 6), "BroomB_I"),
            (_hex_host(*XY_CASE_I_HOST), T(25, XY_CASE_I_TREE), "BroomB_II"),
            (bidirected_complete(100), broomA_tree_padded(), "BroomA")]
    for d, t, branch in runs:
        calls.clear()
        out = ae.embed_antitree(d, t, known_free=True, budget=0)
        assert out.ok and out.case.branch == branch and not out.assertion_events()
        want = {"tree_embedder": 1}
        if branch in ("BroomB_I", "BroomA"):
            # the B-I and the padded A-II broom's witness is checked once,
            # whole, on its arcs in t (and the padding arcs), and validated
            # on no pair
            want.update(witness=1)
        assert calls == want
    # a pair that leans to +: the table is built on the pair as given, and
    # the witness is checked and validated once
    small, star = ae.gen_incidence(7), T(5, [(0, i) for i in range(1, 5)])
    rstar = ae.reverse_antitree(star)
    assert rstar.sign.count(1) > rstar.sign.count(-1)
    calls.clear()
    emb = ae.embed_caterpillar_mindeg(small, rstar)
    assert calls == {"convex": 1, "witness": 1} and ae.validate_embedding(rstar, small, emb.map)
    # the k = 1 map goes through final-validate too, and the oracle's witness
    # (the case-3b fixture stalls, and the oracle answers) is validated where
    # the fallback returns it
    for d, t in [(Digraph(3, [(0, 1), (1, 2), (2, 0)]), T(2, [(0, 1)])),
                 (Digraph(9, CASE3B_EXCHANGE_HOST), T(7, DEEP7))]:
        calls.clear()
        out = ae.embed_antitree(d, t, known_free=True)
        assert out.ok and calls == {"tree_embedder": 1}


def test_partial_b2_map_fails_the_final_validation(monkeypatch):
    # a B-II map missing a non-leaf is caught where every map leaves the
    # library, not by a KeyError, and the oracle answers
    d, t, k = _hex_host(*XY_CASE_I_HOST), T(25, XY_CASE_I_TREE), 24
    broom = te._broom

    def partial(*args):
        mapping = broom(*args)
        del mapping[next(x for x in mapping if t.deg[x] > 1)]
        return mapping

    monkeypatch.setattr(te, "_broom", partial)
    out = ae.embed_antitree(d, t, k, known_free=True, budget=0)
    assert [e["tag"] for e in out.assertion_events()] == ["final-validate"]
    assert out.failure == {"kind": "budget-exhausted"}


def test_b2_non_leaf_off_the_core_fails_place_noncore(monkeypatch):
    # a B-II step that hands back a non-leaf seated off the core (on one of
    # two isolated host vertices): the broom map goes through ``place``,
    # which applies the core rule to every vertex
    d, k = lopsided(200, 13), 13
    d = Digraph(d.n + 2, d.arcs)
    t = T(k + 1, [(0, 1), *((0, c) for c in range(2, 8)), *((c, 1) for c in range(8, 13)), (13, 2)])
    step, moved = te._broom_b2, {}

    def off_core(d, sel, t, broom, case, trace):
        mapping = step(d, sel, t, broom, case, trace)
        core = ae.digraph.side_bits(sel.sub, 1) | ae.digraph.side_bits(sel.sub, -1)
        x = next(x for x in mapping if t.deg[x] > 1)
        mapping[x] = moved[x] = next(h for h in range(d.n) if not (core >> h) & 1 and h not in mapping.values())
        return mapping

    monkeypatch.setattr(te, "_broom_b2", off_core)
    out = ae.embed_antitree(d, t, k, known_free=True, budget=0)
    [(x, h)] = moved.items()
    assert [(e["tag"], e["data"]) for e in out.assertion_events()] == [("place-noncore", {"vertex": x, "host": h})]
    assert out.failure == {"kind": "budget-exhausted"}


def test_orientation_normalization():
    host = ae.gen_incidence(25)
    rng = random.Random(8)
    k = 13
    t = ae.sample_antitree(k, rng)
    rt = ae.reverse_antitree(t)
    o1 = ae.embed_antitree(host, t, known_free=True)
    o2 = ae.embed_antitree(ae.reverse(host), rt, known_free=True)
    assert o1.ok and o2.ok
    assert o1.embedding.map == o2.embedding.map


def test_reversed_pairs_share_the_orientation_rule():
    # seeded trees whose least-index maximum-degree vertex is an in-vertex
    # while another maximum-degree vertex is an out-vertex: the pair and the
    # reversed pair normalize to the same orientation in the dispatcher
    host = ae.gen_incidence(25)
    rng = random.Random(3)
    branches = []
    for i in range(200):
        t = ae.sample_antitree(13, rng) if i % 2 == 0 else sample_antitree_heavy(13, rng, 6)
        st = ae.degree_stats(t)
        tops = [v for v in range(t.n) if t.deg[v] == st.delta]
        if t.sign[tops[0]] > 0 or all(t.sign[v] < 0 for v in tops) or 4 * st.delta <= 13:
            continue
        o1 = ae.embed_antitree(host, t, known_free=True, budget=1000)
        o2 = ae.embed_antitree(ae.reverse(host), ae.reverse_antitree(t), known_free=True, budget=1000)
        assert o1.ok and o2.ok and not o1.assertion_events() and not o2.assertion_events()
        assert o1.case == o2.case and o1.embedding.map == o2.embedding.map
        assert o1.trace == [{"event": "normalize", "reversed": True}, *o2.trace]
        branches.append(o1.case.branch)
    assert branches.count("MidDelta") == 3 and len(branches) == 24


def test_differential_mini():
    rng = random.Random(77)
    for trial in range(150):
        n = rng.randint(2, 9)
        k = rng.randint(1, min(4, n - 1))
        t = ae.sample_antitree(k, rng)
        arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.5]
        d = Digraph(n, arcs)
        out = ae.embed_antitree(d, t)
        if out.ok:
            assert ae.validate_embedding(t, d, out.embedding.map)
            assert ae.oracle_embed(d, t).verdict == "Embeds"
        if ae.is_caterpillar(t) and d.a() > (k - 1) * n:
            emb = ae.embed_caterpillar(d, t)
            assert ae.validate_embedding(t, d, emb.map)


def _reaches(root, target) -> bool:
    """Whether ``target`` is reachable from ``root`` through object references
    (classes, modules and functions are not followed)."""
    seen = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if obj is target:
            return True
        if id(obj) in seen or isinstance(obj, (int, str, type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        stack.extend(gc.get_referents(obj))
    return False


def test_host_memo_is_transparent():
    # seeded k=13 trees, one per branch the PG(2,25) benchmark reaches; each
    # embeds into one host twice (cold, then warm) and once into a copy with
    # an empty memo, and likewise for the reversed pair
    host = ae.gen_incidence(25)
    rng = random.Random(0)
    trees = {"MidDelta": ae.sample_antitree(13, rng), "BroomB_I": sample_antitree_heavy(13, rng, 6),
             "LowDelta": ae.sample_antitree(13, random.Random(6))}
    for branch, t in trees.items():
        rt = ae.reverse_antitree(t)
        fresh = Digraph(host.n, host.arcs)
        runs = [ae.embed_antitree(h, t, known_free=True) for h in (host, host, fresh)]
        rev = [ae.embed_antitree(h, rt, known_free=True)
               for h in (ae.reverse(host), ae.reverse(host), ae.reverse(Digraph(host.n, host.arcs)))]
        for out in runs + rev:
            assert out.ok and out.case.branch == branch and not out.assertion_events()
        for group in (runs, rev):
            for out in group[1:]:
                assert out.embedding.map == group[0].embedding.map
                assert out.case == group[0].case
                assert out.trace == group[0].trace
        assert rev[0].embedding.map == runs[0].embedding.map
    assert host._memo and not _reaches(host._memo, host)


def test_host_memo_has_no_cycle_and_skips_ordered_calls():
    host = ae.gen_incidence(7)
    k = 4
    assert ae.reverse(host) is ae.reverse(host)
    assert ae.reverse(ae.reverse(host)) == host
    assert ae.prune_pseudo(host, k) is host
    assert ae.select_subdigraph(host, k, 2).sub is host
    ConvexDigraph(host)
    ConvexDigraph(ae.reverse(host))
    star = T(k + 1, [(0, i) for i in range(1, k + 1)])
    ae.embed_caterpillar_mindeg(host, star)
    ae.embed_caterpillar_mindeg(host, ae.reverse_antitree(star))
    assert not _reaches(host._memo, host)
    # a memoized value is handed out as stored, and a selection is rebuilt
    # only when its sub is the owner (above); the default order is memoized too
    assert ae.degree_profile(host) is ae.degree_profile(host)
    assert ConvexDigraph(host).pos is ConvexDigraph(host).order is ConvexDigraph(host).pos
    # an explicit order is not memoized; nor is a refusal
    d = Digraph(host.n, host.arcs)
    ConvexDigraph(d, list(reversed(range(d.n))))
    with pytest.raises(ae.HypothesisViolated):
        ae.select_subdigraph(d, 5, 2)
    assert not d._memo
    assert ae.select_subdigraph(d, k, 2).sub is d
    assert ConvexDigraph(d).cw_list(0, +1) == ConvexDigraph(host).cw_list(0, +1)
    assert sorted(d._memo) == [("convex",), ("profile",), ("select", k, 2)]


def test_tree_memo_has_no_cycle_and_skips_refusals():
    t = sample_antitree_heavy(13, random.Random(3), 6)
    assert ae.reverse_antitree(t) is ae.reverse_antitree(t)
    twice = ae.reverse_antitree(ae.reverse_antitree(t))
    assert twice == t and twice is not t
    assert ae.degree_stats(t) is ae.degree_stats(t)
    assert ae.rooted_view(t, 5) is ae.rooted_view(t, 5)
    ae.double_broom(t, 0, 1)
    ae.embed_antitree(ae.gen_incidence(25), t, known_free=True)
    assert t._memo and not _reaches(t._memo, t)
    # a decomposition that raises stores nothing (the spine search builds no
    # memo entry, so the memo may stay None) and raises again
    spider = T(7, [(0, 1), (2, 1), (0, 3), (4, 3), (0, 5), (6, 5)])
    for _ in range(2):
        with pytest.raises(ae.NotACaterpillar):
            ae.caterpillar_decompose(spider)
        assert not spider._memo
    assert not _reaches(spider._memo, spider)
