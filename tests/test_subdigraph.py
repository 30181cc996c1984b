import random

import pytest

import antembed as ae
from antembed.digraph import Digraph
from antembed.subdigraph import prune_bipartite


def bidirected_complete(n):
    return Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v])


def test_prune_pseudo_unchanged_cases():
    k = 4
    d = bidirected_complete(k + 1)
    assert ae.prune_pseudo(d, k) is d
    d1 = Digraph(3, [(0, 1), (2, 1)])
    assert ae.prune_pseudo(d1, 2) is d1
    # nothing is deleted from PG(2,7) at k=13 (every degree is 8), so no copy is made
    host = ae.gen_incidence(7)
    assert ae.prune_pseudo(host, 13) is host
    with pytest.raises(ae.HypothesisViolated):
        ae.prune_pseudo(Digraph(3, [(0, 1)]), 3)


def reference_prune(d, k):
    """The rescan loop prune_pseudo ran before its worklist: delete the out-arcs
    (in-arcs) of the least vertex whose positive out-degree (in-degree) is
    below k/2, rescan all vertices, repeat.  Returns the surviving arc set."""
    out_arcs = [[w for u, w in d.arcs if u == v] for v in range(d.n)]
    in_arcs = [[u for u, w in d.arcs if w == v] for v in range(d.n)]
    out_deg = [len(a) for a in out_arcs]
    in_deg = [len(a) for a in in_arcs]
    alive = {arc: True for arc in d.arcs}
    while True:
        victim = None
        for v in range(d.n):
            if 0 < 2 * out_deg[v] < k:
                victim = (v, +1)
                break
            if 0 < 2 * in_deg[v] < k:
                victim = (v, -1)
                break
        if victim is None:
            break
        v, side = victim
        if side > 0:
            for w in out_arcs[v]:
                if alive[(v, w)]:
                    alive[(v, w)] = False
                    in_deg[w] -= 1
            out_deg[v] = 0
        else:
            for w in in_arcs[v]:
                if alive[(w, v)]:
                    alive[(w, v)] = False
                    out_deg[w] -= 1
            in_deg[v] = 0
    return {arc for arc in d.arcs if alive[arc]}


def assert_prune_matches_reference(d, k):
    want = reference_prune(d, k)
    if not want:
        with pytest.raises((ae.HypothesisViolated, ae.InternalAssertion)):
            ae.prune_pseudo(d, k)
        return
    got = ae.prune_pseudo(d, k)
    assert got.arc_set == want
    if want == d.arc_set:
        assert got is d


def test_prune_pseudo_matches_rescan_reference(seed=11):
    rng = random.Random(seed)
    for _ in range(1200):
        n = rng.randint(1, 10)
        p = rng.random()
        d = Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p])
        assert_prune_matches_reference(d, rng.randint(1, 6))
    host = ae.gen_incidence(7)  # every degree is 8: nothing goes up to k=16, everything at 17
    for k in (1, 9, 16, 17):
        assert_prune_matches_reference(host, k)
    for k in range(2, 7):
        burr = ae.gen_burr(k)
        for _ in range(3):
            u, v = rng.choice([(u, v) for u in range(burr.n) for v in range(burr.n)
                               if u != v and not burr.has_arc(u, v)])
            assert_prune_matches_reference(Digraph(burr.n, burr.arcs + ((u, v),)), k)


def test_prune_pseudo_cascade():
    # dense core plus a pendant path of low-degree vertices: the tail goes
    core = bidirected_complete(6)
    arcs = list(core.arcs) + [(5, 6), (6, 7), (7, 8)]
    d = Digraph(9, arcs)
    k = 4
    sub = ae.prune_pseudo(d, k)
    prof = ae.degree_profile(sub)
    assert sub.a() > 0 and 2 * prof.delta0_bar >= k
    assert not any(u >= 6 or v >= 6 for u, v in sub.arcs)
    # independent recheck of the pseudo-degree condition
    for v in range(9):
        assert prof.out_deg[v] == 0 or 2 * prof.out_deg[v] >= k
        assert prof.in_deg[v] == 0 or 2 * prof.in_deg[v] >= k


def test_prune_bipartite_complete_fixpoint():
    # the bidirected complete digraph on m > k vertices, whose double cover is
    # K_{m,m} minus a perfect matching, survives untouched and lands in case I
    m, k, r = 6, 5, 2
    d = bidirected_complete(m)
    alive_a, alive_b, adj, case, audit = prune_bipartite(d, k, r)
    assert alive_a == set(range(m)) and alive_b == set(range(m))
    assert adj == list(d.out_bits)
    assert case == "I" and not audit["loop2"]


def test_prune_bipartite_second_loop():
    # one b-vertex of degree r-1 forces the second loop; conditions of the
    # other regime revalidate, including the original-degree bound
    k, r = 6, 3
    m = 12
    arcs = [(u, m + v) for u in range(m) for v in range(m - 1)]
    arcs += [(0, 2 * m - 1), (1, 2 * m - 1)]  # the weak sink, degree 2 = r - 1
    d = Digraph(2 * m, arcs)
    sel = ae.select_subdigraph(d, k, r)
    assert sel.audit["loop2"]
    prof = ae.degree_profile(sel.sub)
    plus = [v for v in range(d.n) if prof.out_deg[v] > 0]
    for a in plus:
        assert d.out_deg(a) > k - r
    assert 2 * prof.delta0_bar >= k


def test_prune_refusals():
    # prune_pseudo needs a positive k; prune_bipartite needs 1 <= r <= ceil(k/2)
    # and a double cover with more than (k-1)/2 edges per vertex
    d = bidirected_complete(6)
    with pytest.raises(ae.AntembedError, match="k must be positive"):
        ae.prune_pseudo(d, 0)
    for r in (0, 4):
        with pytest.raises(ae.AntembedError, match=f"need 1 <= r <= ceil\\(k/2\\), got r={r}, k=5"):
            prune_bipartite(d, 5, r)
    with pytest.raises(ae.HypothesisViolated) as exc:
        prune_bipartite(d, 7, 2)
    assert exc.value.reason == "density" and exc.value.data == {"edges": 30, "order": 12}
    assert not d._memo


def test_select_examples():
    k = 4
    d = bidirected_complete(2 * k)
    sel = ae.select_subdigraph(d, k, (k + 1) // 2)
    assert sel.case_tag in ("I", "II")
    prof = ae.degree_profile(sel.sub)
    plus = [v for v in range(d.n) if prof.out_deg[v] > 0]
    minus = [v for v in range(d.n) if prof.in_deg[v] > 0]
    assert 2 * sel.sub.a() > (k - 1) * (len(plus) + len(minus))
    fano = ae.gen_incidence(2)
    sel = ae.select_subdigraph(fano, 2, 1)
    assert sel.sub.a() > 0
    with pytest.raises(ae.HypothesisViolated):
        ae.select_subdigraph(Digraph(3, [(0, 1)]), 2, 1)
    with pytest.raises(ae.HypothesisViolated):
        ae.select_subdigraph(bidirected_complete(3), 4, 1)
    with pytest.raises(ae.AntembedError):
        ae.select_subdigraph(bidirected_complete(8), 4, 5)


def _audit(d, sel, k, r):
    prof = ae.degree_profile(sel.sub)
    plus = [v for v in range(d.n) if prof.out_deg[v] > 0]
    minus = [v for v in range(d.n) if prof.in_deg[v] > 0]
    assert 2 * sel.sub.a() > (k - 1) * (len(plus) + len(minus))
    for a in plus:
        for b in minus:
            assert prof.out_deg[a] + prof.in_deg[b] >= k
    if sel.case_tag == "I":
        assert 2 * prof.delta_plus_bar >= k
        assert prof.delta_minus_bar >= r
        assert any(prof.out_deg[a] >= k for a in plus)
        assert len(plus) <= len(minus)
    else:
        assert 2 * prof.delta0_bar >= k
        assert any(prof.in_deg[b] >= k for b in minus)
        assert all(d.out_deg(a) > k - r for a in plus)


def test_select_random_sweep_and_order_independence():
    rng = random.Random(42)
    for trial in range(120):
        n = rng.randint(5, 14)
        k = rng.randint(1, n - 1)
        r = rng.randint(1, (k + 1) // 2)
        d = ae.gen_random_dense(n, k, seed=trial)
        sel = ae.select_subdigraph(d, k, r)
        _audit(d, sel, k, r)
        # deletion-order fuzz: vertices are processed least id first, so a
        # relabelled copy is processed in another order; postconditions hold
        perm = list(range(n))
        random.Random(trial).shuffle(perm)
        d2 = Digraph(n, [(perm[u], perm[v]) for u, v in d.arcs])
        _audit(d2, ae.select_subdigraph(d2, k, r), k, r)


def test_round_trip_reaudit():
    # read D' as its bipartite double cover: the survivors still satisfy
    # the degree-sum condition verbatim
    rng = random.Random(5)
    for trial in range(40):
        n = rng.randint(6, 12)
        k = rng.randint(2, n - 1)
        d = ae.gen_random_dense(n, k, seed=100 + trial)
        sel = ae.select_subdigraph(d, k, (k + 1) // 2)
        dega = [sel.sub.out_bits[u].bit_count() for u in range(n)]
        degb = [0] * n
        for u in range(n):
            m = sel.sub.out_bits[u]
            while m:
                low = m & -m
                degb[low.bit_length() - 1] += 1
                m ^= low
        for u in range(n):
            for v in range(n):
                if dega[u] and degb[v]:
                    assert dega[u] + degb[v] >= k


def test_select_returns_input_when_nothing_deleted():
    host = ae.gen_incidence(7)
    for r in (1, 2):
        assert ae.select_subdigraph(host, 4, r).sub is host
    d = ae.gen_random_dense(10, 3, seed=0)
    sel = ae.select_subdigraph(d, 3, 1)
    assert sel.sub is not d and sel.sub.a() < d.a()
    _audit(d, sel, 3, 1)


def test_select_memo_hit_builds_one_result():
    # a selection that deletes arcs is handed out as stored; one that keeps
    # the whole host is stored without it and rebuilt as one SelectionResult
    d = ae.gen_random_dense(10, 3, seed=0)
    assert ae.select_subdigraph(d, 3, 1) is ae.select_subdigraph(d, 3, 1)
    host = ae.gen_incidence(7)
    first, hit = ae.select_subdigraph(host, 4, 2), ae.select_subdigraph(host, 4, 2)
    assert type(hit) is ae.SelectionResult and hit == first and hit.sub is host
    stored = host._memo[("select", 4, 2)]
    assert type(stored) is ae.SelectionResult and stored.sub is None and stored[1:] == hit[1:]


def test_selection_result_is_read_only():
    sel = ae.select_subdigraph(ae.gen_incidence(7), 4, 2)
    with pytest.raises(AttributeError):
        sel.case_tag = "II"
    with pytest.raises(AttributeError):
        sel.extra = 1
    with pytest.raises(TypeError):
        sel.audit["edges"] = 0


def reference_bipartite(d, k, r):
    """prune_bipartite's two loops as least-id-first rescans: the first
    deletes the least a-vertex below k/2, else the least pair (u, v) with
    degree sum below k, and rescans; the second, run when some surviving
    b-vertex is below r, deletes the least a-vertex, else the least b-vertex,
    below k/2, and rescans.  Returns the five values and which loops fired."""
    if not (1 <= r and 2 * r <= k + 1):
        raise ae.AntembedError("r out of range")
    n = d.n
    out = [set() for _ in range(n)]
    inn = [set() for _ in range(n)]
    for u, v in d.arcs:
        out[u].add(v)
        inn[v].add(u)
    if 2 * d.a() <= (k - 1) * 2 * n:
        raise ae.HypothesisViolated("density")
    alive_a, alive_b = set(range(n)), set(range(n))

    def drop(rows, cols, alive, x):
        for w in rows[x]:
            cols[w].discard(x)
        rows[x] = set()
        alive.discard(x)

    pairs = 0
    while True:
        low = [u for u in sorted(alive_a) if 2 * len(out[u]) < k]
        if low:
            drop(out, inn, alive_a, low[0])
            continue
        pair = [(u, v) for u in sorted(alive_a) for v in sorted(alive_b) if len(out[u]) + len(inn[v]) < k]
        if not pair:
            break
        pairs += 1
        drop(out, inn, alive_a, pair[0][0])
        drop(inn, out, alive_b, pair[0][1])
    loop2 = any(len(inn[v]) < r for v in alive_b)
    while loop2:
        low = [(out, inn, alive_a, u) for u in sorted(alive_a) if 2 * len(out[u]) < k]
        low += [(inn, out, alive_b, v) for v in sorted(alive_b) if 2 * len(inn[v]) < k]
        if not low:
            break
        drop(*low[0])
    case = "II" if loop2 and len(alive_a) > len(alive_b) else "I"
    e = sum(map(len, out))
    if not alive_a or not alive_b or e == 0:
        raise ae.InternalAssertion("bipartite-empty")
    adj = [sum(1 << v for v in out[u]) for u in range(n)]
    return (alive_a, alive_b, adj, case, {"loop2": loop2, "edges": e, "sides": (len(alive_a), len(alive_b))}), pairs


def test_prune_bipartite_matches_rescan_reference(seed=3):
    # dense random hosts, half of them with arcs added: the deletion order is
    # free, the outcome is not.  The pair rule and the second loop each fire
    # on hundreds of the instances that return.
    rng = random.Random(seed)
    fired = {"returned": 0, "pair": 0, "loop2": 0}
    for _ in range(2000):
        n = rng.randint(2, 12)
        k = rng.randint(1, n - 1)
        r = rng.randint(1, (k + 1) // 2) if rng.random() < 0.9 else rng.choice((0, (k + 1) // 2 + 1))
        d = ae.gen_random_dense(n, k, seed=rng.randrange(10**6))
        if rng.random() < 0.5:
            extra = [(u, v) for u in range(n) for v in range(n)
                     if u != v and not d.has_arc(u, v) and rng.random() < 0.2]
            d = Digraph(n, d.arcs + tuple(extra))
        try:
            want, pairs = reference_bipartite(d, k, r)
        except ae.AntembedError as exc:
            with pytest.raises(ae.AntembedError) as got:
                prune_bipartite(d, k, r)
            assert type(got.value) is type(exc)
            continue
        assert prune_bipartite(d, k, r) == want
        fired["returned"] += 1
        fired["pair"] += pairs > 0
        fired["loop2"] += want[4]["loop2"]
    assert fired["returned"] >= 1000 and fired["pair"] >= 200 and fired["loop2"] >= 500, fired
