"""Convex drawings, good arcs, and constructive caterpillar embedding.

A convex digraph is a digraph with its vertices on a circle.  A host arc is
*good* for a caterpillar when some embedding maps the final spine edge onto it
and keeps one side of that chord (chosen by the parity of the spine length)
free of image vertices.

``good_arcs`` runs the inductive construction: peel the caterpillar one spine
vertex at a time from the far end, and at each stage drop the m extremal
("nasty") sign-arcs of every anchor and shift the survivors m positions along
the anchor's clockwise arc order.  Every surviving arc carries a back-pointer
from which a witness embedding is reconstructed.  The construction certifies
at least a(D) - (k-1)n good arcs, and the variant accounting gives the
a(D) - (|T+|-1)|D-| - (|T-|-1)|D+| bound used by the sign-balanced embedder.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .antitree import AntiTree, SpineDecomposition, caterpillar_decompose
from .digraph import Digraph, memoized, neighbor_lists, plus_minus_sets, reverse
from .embedding import Embedding, validate_embedding
from .errors import AntembedError, HypothesisViolated, InternalAssertion

Arc = tuple[int, int]


class ConvexDigraph:
    """A digraph plus a circular (clockwise) vertex order.

    The clockwise tables of the default order (vertex ids ascending) are
    memoized on the digraph; an explicit order builds its own."""

    __slots__ = ("d", "order", "pos", "_cw_out", "_cw_in", "_pos_out", "_pos_in")

    def __init__(self, d: Digraph, order=None):
        self.d = d
        if order is None:
            self.order = self.pos = tuple(range(d.n))
            tables = memoized(d, ("convex",), lambda: _clockwise_tables(d, self.pos))
        else:
            self.order = tuple(order)
            if sorted(self.order) != list(range(d.n)):
                raise AntembedError("order must be a permutation of the vertex set")
            pos = [0] * d.n
            for i, v in enumerate(self.order):
                pos[v] = i
            self.pos = tuple(pos)
            tables = _clockwise_tables(d, self.pos)
        self._cw_out, self._cw_in, self._pos_out, self._pos_in = tables

    def cw_list(self, x: int, sign: int) -> tuple[int, ...]:
        """Sign-arcs of x ordered clockwise starting just after x."""
        return self._cw_out[x] if sign > 0 else self._cw_in[x]

    def cw_pos(self, x: int, sign: int) -> dict:
        return self._pos_out[x] if sign > 0 else self._pos_in[x]

    def interval(self, a: int, b: int) -> set[int]:
        """Vertices strictly after a and strictly before b, clockwise."""
        n = self.d.n
        out = set()
        i = (self.pos[a] + 1) % n
        while self.order[i] != b:
            out.add(self.order[i])
            i = (i + 1) % n
        return out


def _clockwise_tables(d: Digraph, pos: tuple[int, ...]):
    """Each vertex's out- and in-neighbors sorted clockwise from it, and their
    positions in those lists, as (cw_out, cw_in, pos_out, pos_in)."""
    n = d.n
    outs, ins = neighbor_lists(d)
    cw_out, cw_in, pos_out, pos_in = [], [], [], []
    for x in range(n):
        key = lambda w: (pos[w] - pos[x]) % n
        co = tuple(sorted(outs[x], key=key))
        ci = tuple(sorted(ins[x], key=key))
        cw_out.append(co)
        cw_in.append(ci)
        pos_out.append({w: i for i, w in enumerate(co)})
        pos_in.append({w: i for i, w in enumerate(ci)})
    return tuple(cw_out), tuple(cw_in), tuple(pos_out), tuple(pos_in)


@dataclass(frozen=True)
class SideSets:
    arc: Arc
    left: frozenset[int]   # after tail, before head, clockwise
    right: frozenset[int]  # everything else off the chord


def side_sets(c: ConvexDigraph, arc: Arc) -> SideSets:
    x, y = arc
    if not (0 <= x < c.d.n and 0 <= y < c.d.n) or x == y:
        raise AntembedError(f"bad arc {arc}")
    left = frozenset(c.interval(x, y))
    right = frozenset(range(c.d.n)) - left - {x, y}
    return SideSets(arc=arc, left=left, right=right)


@dataclass
class GoodArcTable:
    spine: tuple[int, ...]
    # stage_arcs[i] holds the good set for the spine prefix of length i+2,
    # mapped to the predecessor arc one stage earlier (None at the first stage)
    stage_arcs: list[dict[Arc, Arc | None]] = field(default_factory=list)
    lemma8_bound: int = 0
    lemma12_bound: int = 0


def _run_dp(c: ConvexDigraph, t: AntiTree, dec: SpineDecomposition) -> GoodArcTable:
    spine = dec.spine
    L = len(spine)
    table = GoodArcTable(spine=spine)
    current: dict[Arc, Arc | None] = {arc: None for arc in c.d.arcs}
    table.stage_arcs.append(current)
    for j in range(2, L):
        pj = spine[j - 1]
        m = 1 + len(dec.leaves_at.get(pj, ()))
        sigma = t.sign[pj]
        new_even = (j + 1) % 2 == 0
        nxt: dict[Arc, Arc | None] = {}
        for arc in current:
            x, w = (arc[0], arc[1]) if sigma > 0 else (arc[1], arc[0])
            lst = c.cw_list(x, sigma)
            idx = c.cw_pos(x, sigma)[w]
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
                raise InternalAssertion("phi-injectivity", arc=new_arc)
            nxt[new_arc] = arc
        table.stage_arcs.append(nxt)
        current = nxt
    d = c.d
    k = t.k
    table.lemma8_bound = d.a() - (k - 1) * d.n
    dplus, dminus = plus_minus_sets(d)
    tplus, tminus = t.plus_minus()
    table.lemma12_bound = d.a() - (len(tplus) - 1) * len(dminus) - (len(tminus) - 1) * len(dplus)
    return table


def good_arcs(c: ConvexDigraph, t: AntiTree) -> GoodArcTable:
    """Good-arc table with the a(D) - (k-1)n count guarantee asserted."""
    dec = caterpillar_decompose(t)
    table = _run_dp(c, t, dec)
    if len(table.stage_arcs[-1]) < table.lemma8_bound:
        raise InternalAssertion(
            "good-count", have=len(table.stage_arcs[-1]), need=table.lemma8_bound
        )
    return table


def good_arcs_mindeg(c: ConvexDigraph, t: AntiTree) -> GoodArcTable:
    """Same construction, with the |T+|/|T-| versus |D-|/|D+| count asserted."""
    dec = caterpillar_decompose(t)
    table = _run_dp(c, t, dec)
    if len(table.stage_arcs[-1]) < table.lemma12_bound:
        raise InternalAssertion(
            "good-count-mindeg", have=len(table.stage_arcs[-1]), need=table.lemma12_bound
        )
    return table


def reconstruct_witness(c: ConvexDigraph, t: AntiTree, table: GoodArcTable, final_arc: Arc) -> dict[int, int]:
    """Replay the back-pointers of one good arc into a full embedding.

    Walks the predecessor chain down to the two-vertex stage and then replays
    forward: each stage places the new spine vertex on the shifted endpoint
    and the peeled leaves on the sign-arcs of the anchor lying in the
    clockwise gap (least position first).
    """
    spine = table.spine
    dec = caterpillar_decompose(t)
    L = len(spine)
    chain = [final_arc]
    for stage in range(L - 2, 0, -1):
        chain.append(table.stage_arcs[stage][chain[-1]])
    chain.reverse()  # chain[i] is the good arc for the prefix of length i+2

    f: dict[int, int] = {}
    p1, p2 = spine[0], spine[1]
    a0 = chain[0]
    if t.sign[p2] > 0:
        f[p2], f[p1] = a0
    else:
        f[p1], f[p2] = a0
    for j in range(2, L):
        pj = spine[j - 1]
        pj1 = spine[j]
        sigma = t.sign[pj]
        m = 1 + len(dec.leaves_at.get(pj, ()))
        prev_arc, new_arc = chain[j - 2], chain[j - 1]
        x, w_old = (prev_arc[0], prev_arc[1]) if sigma > 0 else (prev_arc[1], prev_arc[0])
        z = new_arc[1] if sigma > 0 else new_arc[0]
        lst = c.cw_list(x, sigma)
        posmap = c.cw_pos(x, sigma)
        io, iz = posmap[w_old], posmap[z]
        if (j + 1) % 2 == 0:
            fills = lst[iz + 1 : io]
        else:
            fills = lst[io + 1 : iz]
        if len(fills) != m - 1 or f[pj] != x or f[spine[j - 2]] != w_old:
            raise InternalAssertion("witness-replay", stage=j + 1, arc=new_arc)
        f[pj1] = z
        for leaf, hv in zip(dec.leaves_at.get(pj, ()), fills):
            f[leaf] = hv
    return f


def check_side_condition(c: ConvexDigraph, t: AntiTree, mapping: dict[int, int], spine) -> bool:
    """The parity-appropriate side of the final chord holds no image vertex."""
    x_def = mapping[spine[-1]]
    y_def = mapping[spine[-2]]
    zone = c.interval(x_def, y_def) if len(spine) % 2 == 1 else c.interval(y_def, x_def)
    return not (zone & set(mapping.values()))


def _validated(c: ConvexDigraph, t: AntiTree, table: GoodArcTable, arc: Arc) -> Embedding:
    mapping = reconstruct_witness(c, t, table, arc)
    if not validate_embedding(t, c.d, mapping):
        raise InternalAssertion("witness-invalid", arc=arc)
    if not check_side_condition(c, t, mapping, table.spine):
        raise InternalAssertion("witness-side", arc=arc)
    return Embedding(map=mapping)


def embed_caterpillar(d: Digraph, t: AntiTree, order=None, fallback_oracle: bool = False) -> Embedding:
    """Embed a k-arc antidirected caterpillar into any digraph with more than
    (k-1)n arcs, via the convex good-arc construction.

    With ``fallback_oracle`` a density refusal is retried by exact search,
    which may still find an embedding below the guaranteed threshold."""
    k = t.k
    if d.a() <= (k - 1) * d.n:
        if fallback_oracle:
            from .oracle_gen import oracle_embed

            st = oracle_embed(d, t)
            if st.verdict == "Embeds":
                return Embedding(map=st.witness)
        raise HypothesisViolated("density", arcs=d.a(), need=(k - 1) * d.n + 1)
    c = ConvexDigraph(d, order)
    table = good_arcs(c, t)
    final = table.stage_arcs[-1]
    if not final:
        raise InternalAssertion("empty-good-set")
    return _validated(c, t, table, min(final))


def embed_caterpillar_mindeg(d: Digraph, t: AntiTree, order=None, _allow_reverse: bool = True) -> Embedding:
    """Sign-balanced caterpillar embedding.

    Needs 2 a(D) > (k-1)(|D+| + |D-|) and matching sign balance: |D+| <= |D-|
    with |T+| <= |T-|, or both reversed.  The reversed case embeds the
    reversed pair; the returned vertex map is valid for the originals.
    """
    k = t.k
    dplus, dminus = plus_minus_sets(d)
    tplus, tminus = t.plus_minus()
    if 2 * d.a() <= (k - 1) * (len(dplus) + len(dminus)):
        raise HypothesisViolated(
            "density", arcs=d.a(), sides=(len(dplus), len(dminus)), k=k
        )
    if len(dplus) <= len(dminus) and len(tplus) <= len(tminus):
        c = ConvexDigraph(d, order)
        table = good_arcs_mindeg(c, t)
        final = table.stage_arcs[-1]
        if not final:
            raise InternalAssertion("empty-good-set-mindeg")
        return _validated(c, t, table, min(final))
    if len(dplus) >= len(dminus) and len(tplus) >= len(tminus) and _allow_reverse:
        from .antitree import reverse_antitree

        emb = embed_caterpillar_mindeg(reverse(d), reverse_antitree(t), order, _allow_reverse=False)
        if not validate_embedding(t, d, emb.map):
            raise InternalAssertion("reversal-map-invalid")
        return emb
    raise HypothesisViolated(
        "sign-balance", d_sides=(len(dplus), len(dminus)), t_sides=(len(tplus), len(tminus))
    )
