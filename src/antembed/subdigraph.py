"""Degree pruning and the two-regime subdigraph selector.

``prune_pseudo`` deletes all out-arcs (in-arcs) of any vertex whose positive
out-degree (in-degree) is below k/2 until none remains, yielding a nonempty
subdigraph of minimum pseudo-semidegree at least k/2.

``select_subdigraph`` routes through a bipartite double cover: split each
vertex v into v+ and v-, find a dense subgraph whose degree sums stay above k
while one of two witness regimes holds, and translate back.  All guaranteed
conditions are re-audited from scratch before returning.

Thresholds compare exactly in integers: deg < k/2 iff 2 deg < k.
"""

from __future__ import annotations

import heapq
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .digraph import Digraph, bits_of, degree_profile, memoized
from .errors import AntembedError, HypothesisViolated, InternalAssertion


def prune_pseudo(d: Digraph, k: int) -> Digraph:
    """Subdigraph with pseudo-semidegree >= k/2.

    More than (k-1)|V| arcs guarantee a nonempty result; the fixpoint runs
    either way and only an empty outcome raises (so a digraph already above
    the threshold passes through whatever its density).  When no arc is
    deleted the input itself is returned.

    The fixpoint is the unique largest subdigraph in which every positive
    out- and in-degree is at least k/2 (the union of two such subdigraphs is
    one too, and no arc of it is ever deleted), so the worklist order cannot
    change the result.

    The result is memoized on ``d`` for each k."""
    return memoized(d, ("prune", k), lambda: _prune_pseudo(d, k))


def _prune_pseudo(d: Digraph, k: int) -> Digraph:
    if k < 1:
        raise AntembedError("k must be positive")
    dense = d.a() > (k - 1) * d.n
    out_bits = list(d.out_bits)
    in_bits = list(d.in_bits)
    deleted = 0
    triggers = 0
    work = list(range(d.n))
    while work:
        v = work.pop()
        # side +1 deletes v's out-arcs, side -1 its in-arcs; each side of a
        # vertex fires at most once, since its degree is 0 afterwards
        for rows, cross in ((out_bits, in_bits), (in_bits, out_bits)):
            deg = rows[v].bit_count()
            if 0 < 2 * deg < k:
                triggers += 1
                deleted += deg
                for w in bits_of(rows[v]):
                    cross[w] ^= 1 << v
                    work.append(w)
                rows[v] = 0
    if triggers > 2 * d.n or deleted > (k - 1) * d.n:
        raise InternalAssertion("prune-budget", triggers=triggers, deleted=deleted)
    sub = Digraph.from_bits(d.n, out_bits) if deleted else d
    if not sub.a():
        if not dense:
            raise HypothesisViolated("density", arcs=d.a(), need=(k - 1) * d.n + 1)
        raise InternalAssertion("prune-empty")
    if 2 * degree_profile(sub).delta0_bar < k:
        raise InternalAssertion("prune-postcondition")
    return sub


def _obs_density(e: int, order: int, k: int) -> bool:
    # e(H) > (k-1)|H|/2, exact in integers
    return 2 * e > (k - 1) * order


def prune_bipartite(d: Digraph, k: int, r: int):
    """The two-loop deletion protocol on the bipartite double cover of d:
    a-side vertex u is u+, adjacent to the b-side v- of every arc u->v, and
    both sides are indexed by the vertex ids 0..n-1.

    Returns (alive_a, alive_b, adj, case_tag, audit) where alive_* are vertex
    id sets and adj the surviving bitmask adjacency.  Density is asserted
    after every deletion event.  Case I keeps an a-side vertex of degree >= k
    with all a-degrees >= k/2 and all b-degrees >= r; case II keeps a b-side
    vertex of degree >= k with all degrees >= k/2 and every surviving a-side
    vertex of original degree > k - r.

    Vertices are processed least id first; the guaranteed postconditions do
    not depend on that order.
    """
    if not (1 <= r and 2 * r <= k + 1):
        raise AntembedError(f"need 1 <= r <= ceil(k/2), got r={r}, k={k}")
    n = d.n
    adj = list(d.out_bits)
    radj = list(d.in_bits)
    alive_a = set(range(n))
    alive_b = set(range(n))
    e = sum(m.bit_count() for m in adj)
    if not _obs_density(e, 2 * n, k):
        raise HypothesisViolated("density", edges=e, order=2 * n)
    dega = [adj[u].bit_count() for u in range(n)]
    degb = [radj[v].bit_count() for v in range(n)]

    def drop_a(u):
        nonlocal e
        for w in bits_of(adj[u]):
            radj[w] &= ~(1 << u)
            degb[w] -= 1
            e -= 1
        adj[u] = 0
        dega[u] = 0
        alive_a.discard(u)

    def drop_b(v):
        nonlocal e
        for w in bits_of(radj[v]):
            adj[w] &= ~(1 << v)
            dega[w] -= 1
            e -= 1
        radj[v] = 0
        degb[v] = 0
        alive_b.discard(v)

    def assert_density():
        if not _obs_density(e, len(alive_a) + len(alive_b), k):
            raise InternalAssertion("obs-deleting", edges=e, order=len(alive_a) + len(alive_b))

    # first loop: low a-degrees, then low degree-sum pairs.  Degrees only
    # decrease, so a lazy min-heap reproduces exactly the least-id-first
    # rescan order without the quadratic scans.
    heap_a = [u for u in range(n) if 2 * dega[u] < k]
    heapq.heapify(heap_a)

    def drain_rule1():
        while heap_a:
            u = heapq.heappop(heap_a)
            if u in alive_a and 2 * dega[u] < k:
                drop_a(u)
                assert_density()

    while True:
        drain_rule1()
        min_b = min((degb[v] for v in alive_b), default=None)
        pair = None
        if min_b is not None:
            for u2 in sorted(alive_a):
                if dega[u2] + min_b < k:
                    v2 = min(v for v in alive_b if dega[u2] + degb[v] < k)
                    pair = (u2, v2)
                    break
        if pair is None:
            break
        # the density observation covers the pair as one deletion event
        hit = radj[pair[1]]
        drop_a(pair[0])
        drop_b(pair[1])
        assert_density()
        for u in bits_of(hit):
            if u in alive_a and 2 * dega[u] < k:
                heapq.heappush(heap_a, u)

    audit = {"loop2": False}
    if any(degb[v] < r for v in alive_b):
        # some b-vertex is below r: strip everything under k/2 on both sides
        audit["loop2"] = True
        heap2 = [(0, u) for u in alive_a if 2 * dega[u] < k]
        heap2 += [(1, v) for v in alive_b if 2 * degb[v] < k]
        heapq.heapify(heap2)
        while heap2:
            side, u = heapq.heappop(heap2)
            if side == 0:
                if u in alive_a and 2 * dega[u] < k:
                    hit = adj[u]
                    drop_a(u)
                    assert_density()
                    for v in bits_of(hit):
                        if v in alive_b and 2 * degb[v] < k:
                            heapq.heappush(heap2, (1, v))
            else:
                if u in alive_b and 2 * degb[u] < k:
                    hit = radj[u]
                    drop_b(u)
                    assert_density()
                    for w in bits_of(hit):
                        if w in alive_a and 2 * dega[w] < k:
                            heapq.heappush(heap2, (0, w))
        case = "II" if len(alive_a) > len(alive_b) else "I"
    else:
        case = "I"

    if not alive_a or not alive_b or e == 0:
        raise InternalAssertion("bipartite-empty")
    audit["edges"] = e
    audit["sides"] = (len(alive_a), len(alive_b))
    return alive_a, alive_b, adj, case, audit


class SelectionResult(NamedTuple):
    sub: Digraph
    case_tag: str  # "I" or "II"
    witness_vertex: int
    audit: Mapping  # read-only


def select_subdigraph(d: Digraph, k: int, r: int) -> SelectionResult:
    """Dense subdigraph with the paired degree-sum guarantee and one of the
    two witness regimes; every condition is revalidated before returning.

    ``sub`` is ``d`` itself when no arc is deleted.  The outcome is memoized
    on ``d`` for each (k, r), so the revalidation runs once per (d, k, r), on
    the value every later call returns."""
    sel = memoized(d, ("select", k, r), lambda: _select(d, k, r))
    if sel.sub is None:  # the whole host, which the memo entry may not reference
        return SelectionResult(d, sel.case_tag, sel.witness_vertex, sel.audit)
    return sel


def _select(d: Digraph, k: int, r: int) -> SelectionResult:
    """The selection, revalidated from scratch, with ``sub`` None when it is
    ``d`` itself."""
    if k > d.n:
        raise HypothesisViolated("k-exceeds-order", k=k, n=d.n)
    if d.a() <= (k - 1) * d.n:
        raise HypothesisViolated("density", arcs=d.a(), need=(k - 1) * d.n + 1)
    if not (1 <= r and 2 * r <= k + 1):
        raise AntembedError(f"need 1 <= r <= ceil(k/2), got r={r}, k={k}")
    alive_a, alive_b, adj, case, audit = prune_bipartite(d, k, r)
    sub = d if audit["edges"] == d.a() else Digraph.from_bits(d.n, adj)

    # full revalidation from scratch
    prof = degree_profile(sub)
    plus = [v for v in range(d.n) if prof.out_deg[v] > 0]
    minus = [v for v in range(d.n) if prof.in_deg[v] > 0]
    if 2 * sub.a() <= (k - 1) * (len(plus) + len(minus)):
        raise InternalAssertion("cor-cond-1", arcs=sub.a(), sides=(len(plus), len(minus)))
    min_out = min(prof.out_deg[v] for v in plus)
    min_in = min(prof.in_deg[v] for v in minus)
    if min_out + min_in < k:
        raise InternalAssertion("cor-cond-2", min_out=min_out, min_in=min_in)
    if case == "I":
        witness = next((a for a in sorted(plus) if prof.out_deg[a] >= k), None)
        ok = (
            witness is not None
            and 2 * prof.delta_plus_bar >= k
            and prof.delta_minus_bar >= r
            and len(plus) <= len(minus)
        )
    else:
        witness = next((b for b in sorted(minus) if prof.in_deg[b] >= k), None)
        ok = (
            witness is not None
            and 2 * prof.delta0_bar >= k
            and all(d.out_deg(a) > k - r for a in plus)
        )
    if not ok:
        raise InternalAssertion("cor-cond-3", case=case)
    audit.update(
        {
            "case": case,
            "plus": len(plus),
            "minus": len(minus),
            "min_out": min_out,
            "min_in": min_in,
            "delta_plus_bar": prof.delta_plus_bar,
            "delta_minus_bar": prof.delta_minus_bar,
        }
    )
    return SelectionResult(None if sub is d else sub, case, witness, MappingProxyType(audit))
