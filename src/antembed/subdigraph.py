"""Degree pruning and the two-regime subdigraph selector.

Both prunings are one k/2 peel (``_peel``) of a 0/1 matrix held as rows and
columns of bitmasks.  ``prune_pseudo`` peels the digraph itself: deleting
row v deletes v's out-arcs, column v its in-arcs, which yields a nonempty
subdigraph of minimum pseudo-semidegree at least k/2.

``select_subdigraph`` routes through a bipartite double cover: split each
vertex v into v+ and v-, find a dense subgraph whose degree sums stay above k
while one of two witness regimes holds, and translate back.  All guaranteed
conditions are re-audited from scratch before returning.

Thresholds compare exactly in integers: deg < k/2 iff 2 deg < k.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, NamedTuple

from .digraph import Digraph, bits_of, degree_profile, memoized
from .errors import AntembedError, HypothesisViolated, InternalAssertion


def _peel(rows: list, cols: list, k: int, event=None) -> tuple[int, int]:
    """Delete every positive row or column of the matrix (bit w of ``rows[v]``
    is bit v of ``cols[w]``) whose count is below k/2, in place, until none is
    left; ``event(count)`` runs after each deletion.  Returns the number of
    deletions and of entries deleted.

    The result is the unique largest submatrix in which every positive count
    is at least k/2 (the union of two such submatrices is one too, and no
    entry of it is ever deleted), so the worklist order cannot change it."""
    triggers = deleted = 0
    work = list(range(len(rows)))
    while work:
        v = work.pop()
        # each side of an index fires at most once, since it is 0 afterwards
        for this, cross in ((rows, cols), (cols, rows)):
            deg = this[v].bit_count()
            if 0 < 2 * deg < k:
                triggers += 1
                deleted += deg
                for w in bits_of(this[v]):
                    cross[w] ^= 1 << v
                    work.append(w)
                this[v] = 0
                if event is not None:
                    event(deg)
    return triggers, deleted


def prune_pseudo(d: Digraph, k: int) -> Digraph:
    """Subdigraph with pseudo-semidegree >= k/2: the k/2 peel of the out-arc
    rows and in-arc columns of d.

    More than (k-1)|V| arcs guarantee a nonempty result; the fixpoint runs
    either way and only an empty outcome raises (so a digraph already above
    the threshold passes through whatever its density).  When no arc is
    deleted the input itself is returned.

    The result is memoized on ``d`` for each k."""
    return memoized(d, ("prune", k), lambda: _prune_pseudo(d, k))


def _prune_pseudo(d: Digraph, k: int) -> Digraph:
    if k < 1:
        raise AntembedError("k must be positive")
    dense = d.a() > (k - 1) * d.n
    out_bits = list(d.out_bits)
    triggers, deleted = _peel(out_bits, list(d.in_bits), k)
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


def prune_bipartite(d: Digraph, k: int, r: int):
    """The two-loop deletion protocol on the bipartite double cover of d:
    a-side vertex u is u+, adjacent to the b-side v- of every arc u->v, and
    both sides are indexed by the vertex ids 0..n-1.

    Returns (alive_a, alive_b, adj, case_tag, audit) where alive_* are vertex
    id sets and adj the surviving bitmask adjacency.  Density,
    e(H) > (k-1)|H|/2, is asserted after every deletion event: deleting a
    vertex of degree below k/2, or a pair with degree sum below k, keeps it,
    so the order of the events does not matter.  Case I keeps an a-side
    vertex of degree >= k with all a-degrees >= k/2 and all b-degrees >= r;
    case II keeps a b-side vertex of degree >= k with all degrees >= k/2 and
    every surviving a-side vertex of original degree > k - r.
    """
    if not (1 <= r and 2 * r <= k + 1):
        raise AntembedError(f"need 1 <= r <= ceil(k/2), got r={r}, k={k}")
    n = d.n
    adj = list(d.out_bits)
    radj = list(d.in_bits)
    alive_a = set(range(n))
    alive_b = set(range(n))
    e, order = d.a(), 2 * n
    if 2 * e <= (k - 1) * order:
        raise HypothesisViolated("density", edges=e, order=order)

    def deleted(edges, vertices=1):
        nonlocal e, order
        e -= edges
        order -= vertices
        if 2 * e <= (k - 1) * order:
            raise InternalAssertion("obs-deleting", edges=e, order=order)

    def drop(rows, cols, alive, v):
        row, rows[v] = rows[v], 0
        for w in bits_of(row):
            cols[w] ^= 1 << v
        alive.discard(v)
        return row.bit_count()

    # first loop: a-vertices below k/2, then the least pair with degree sum
    # below k.  Dropping an a-vertex lowers no a-degree, so one pass in id
    # order clears the first rule.
    while True:
        for u in sorted(alive_a):
            if 2 * adj[u].bit_count() < k:
                deleted(drop(adj, radj, alive_a, u))
        min_b = min((radj[v].bit_count() for v in alive_b), default=k)
        u2 = next((u for u in sorted(alive_a) if adj[u].bit_count() + min_b < k), None)
        if u2 is None:
            break
        deg = adj[u2].bit_count()
        v2 = min(v for v in alive_b if deg + radj[v].bit_count() < k)
        # the density observation covers the pair as one deletion event
        deleted(drop(adj, radj, alive_a, u2) + drop(radj, adj, alive_b, v2), 2)

    loop2 = any(radj[v].bit_count() < r for v in alive_b)
    if loop2:
        # some b-vertex is below r: strip everything under k/2 on both sides.
        # The peel's result is unique, so the survivors are the vertices left
        # with an edge; edgeless ones count in |H| until then, which only
        # makes each density check stricter.
        _peel(adj, radj, k, deleted)
        alive_a = {u for u in alive_a if adj[u]}
        alive_b = {v for v in alive_b if radj[v]}
    case = "II" if loop2 and len(alive_a) > len(alive_b) else "I"
    if not alive_a or not alive_b or e == 0:
        raise InternalAssertion("bipartite-empty")
    audit = {"loop2": loop2, "edges": e, "sides": (len(alive_a), len(alive_b))}
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
    alive_a, alive_b, adj, case, audit = prune_bipartite(d, k, r)
    sub = d if audit["edges"] == d.a() else Digraph.from_bits(d.n, adj)

    # full revalidation from scratch
    prof = degree_profile(sub)
    plus = [v for v in range(d.n) if prof.out_deg[v] > 0]
    minus = [v for v in range(d.n) if prof.in_deg[v] > 0]
    if 2 * sub.a() <= (k - 1) * (len(plus) + len(minus)):
        raise InternalAssertion("cor-cond-1", arcs=sub.a(), sides=(len(plus), len(minus)))
    min_out, min_in = prof.delta_plus_bar, prof.delta_minus_bar
    if min_out + min_in < k:
        raise InternalAssertion("cor-cond-2", min_out=min_out, min_in=min_in)
    if case == "I":
        witness = next((a for a in plus if prof.out_deg[a] >= k), None)
        ok = (
            witness is not None
            and 2 * prof.delta_plus_bar >= k
            and prof.delta_minus_bar >= r
            and len(plus) <= len(minus)
        )
    else:
        witness = next((b for b in minus if prof.in_deg[b] >= k), None)
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
