"""The full antidirected-tree embedding pipeline.

The public surface is ``embed_antitree`` and ``oracle_fallback``.
``embed_antitree`` verifies the density and forbidden-subgraph hypotheses
(certified refusal otherwise) and hands the pair to ``_dispatch``, which
splits on the second-highest degree: the low branch splits again on the
maximum degree (``_low_delta``, ``_mid_delta``), the high branch runs the
double-broom pipeline (``_big_delta2``).

``_dispatch`` is the one place where orientation is normalized and the hub
taken: the least-index maximum-degree tree vertex must be an out-vertex,
otherwise host and tree are reversed together (``_oriented``), and that
vertex, ``degree_stats(t).argmax_u``, is the hub every branch seats.  So a
pair and its reversal reach the same branch code with the same inputs and
return equal maps.  Every hub anchor is the least vertex of a side mask of
the core (``_Ctx.sided``) or of a row, filtered by degree only where the
argument says so.

Each branch is a private step that appends to the one trace
``embed_antitree`` passes down, and follows its constructive argument step by
step: seat the hubs the argument fixes, then extend greedily and settle
(``_Ctx.settle``, one pass in BFS order).  A greedy that stalls, which the
argument rules out on a free host or answers with an exchange move that no
free host was seen to need, raises InternalAssertion.  The argument's displayed
inequalities are evaluated at their steps and logged under the tags used
here.  Every choice point takes its first candidate, and a step whose
guaranteed candidate set comes up empty raises InternalAssertion.  When that
happens the exact oracle is consulted, within ``FALLBACK_BUDGET`` nodes
unless the caller gives a budget, so a run still reports ground truth after
the branch's own events.

Every step works on the oriented tree in its own labels and builds no
digraph or tree: hub stripping leaves the stripped leaves out of
``_wide_star``'s scope and seats them later in the same ``_Ctx``, and the
padded case-A broom is ``broom.dec`` with padding leaves labelled from t.n.

Steps return maps; ``embed_antitree`` validates the branch's map, or the
single-arc map when k = 1, once, on its caller's pair (``final-validate``; a
map that fails goes to the oracle), and ``oracle_fallback`` validates the
oracle's witness once (``oracle-witness``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .antitree import (
    AntiTree,
    DegreeStats,
    SpineDecomposition,
    degree_stats,
    double_broom,
    reverse_antitree,
    rooted_view,
)
from .convex import sign_balanced_witness
from .digraph import Digraph, bits_of, degree_profile, reverse, side_bits
from .embedding import Embedding, validate_embedding
from .errors import HypothesisViolated, InternalAssertion
from .freeness import is_k2s_free
from .oracle_gen import oracle_embed
from .subdigraph import SelectionResult, prune_pseudo, select_subdigraph


def _mask(it) -> int:
    m = 0
    for v in it:
        m |= 1 << v
    return m


def _leaf_mask(t: AntiTree, verts) -> int:
    """The leaves of t among ``verts``, as a bit set."""
    return _mask(x for x in verts if t.deg[x] == 1)


def _low(bits: int) -> int:
    """The least vertex of a non-empty mask."""
    return (bits & -bits).bit_length() - 1


@dataclass
class CaseTag:
    branch: str  # LowDelta | MidDelta | BroomA | BroomB_I | BroomB_II
    params: dict = field(default_factory=dict)


@dataclass
class EmbedOutcome:
    embedding: Embedding | None
    trace: list
    failure: dict | None = None
    case: CaseTag | None = None

    @property
    def ok(self) -> bool:
        return self.embedding is not None

    def assertion_events(self) -> list:
        return [e for e in self.trace if e.get("event") == "internal-assertion"]


def _note(trace: list, tag: str, holds, **data):
    """Log the checkpoint ``tag`` (one of the argument's displayed
    inequalities) with whether it holds; returns ``holds``."""
    trace.append({"event": "check", "tag": tag, "holds": bool(holds), **data})
    return holds


def _require(trace: list, tag: str, holds, **data):
    """``_note``, raising InternalAssertion ``tag`` when the check fails."""
    if not _note(trace, tag, holds, **data):
        raise InternalAssertion(tag, **data)


# -- embedding context ----------------------------------------------------------


class _Ctx:
    """One partial embedding of t into d, grown by ``place`` (one vertex),
    ``seat_children`` (children of a placed vertex on its host row),
    ``fill`` (children on given slots) and ``settle`` (the rest, greedily).

    ``loose`` is the bit set of tree vertices that may sit off the core: 0
    when the host is the core itself, the hub's leaf neighbours in the middle
    branch, all leaves in case B-II.  Every other vertex goes on a core
    vertex, and a greedy pick reaches it by a core arc.  ``place`` checks each
    vertex against this rule, injectivity and the host arc to its parent.
    """

    def __init__(self, t: AntiTree, d: Digraph, core: Digraph, root: int, trace: list, loose: int = 0):
        self.t = t
        self.d = d
        self.core = core
        self.sided = {+1: side_bits(core, +1), -1: side_bits(core, -1)}
        self.core_bits = self.sided[+1] | self.sided[-1]
        self.loose = loose
        self.rv = rooted_view(t, root)
        self.f: dict[int, int] = {}
        self.used = 0
        self.trace = trace

    def pick(self, x: int) -> int | None:
        """The least free neighbour of the image of x's parent, of x's sign,
        in the core unless x is loose, and of positive core sign-degree when
        x is a non-leaf and one is; None when there is none."""
        h, sign = self.f[self.rv.parent[x]], self.t.sign[x]
        host = self.d if (self.loose >> x) & 1 else self.core
        bits = host.neighbor_bits(h, -sign) & ~self.used
        if self.t.deg[x] > 1:
            bits = bits & self.sided[sign] or bits
        return _low(bits) if bits else None

    def place(self, x: int, h: int):
        if (self.used >> h) & 1 or x in self.f:
            raise InternalAssertion("place-collision", vertex=x, host=h)
        if not (self.loose >> x) & 1 and not (self.core_bits >> h) & 1:
            raise InternalAssertion("place-noncore", vertex=x, host=h)
        p = self.rv.parent[x]
        if p is not None and p in self.f:
            arc = (h, self.f[p]) if self.t.sign[x] > 0 else (self.f[p], h)
            if not self.d.has_arc(*arc):
                raise InternalAssertion("place-arc", vertex=x, host=h)
        self.f[x] = h
        self.used |= 1 << h

    def seat_children(self, x: int, kids, tag: str):
        """Place ``kids``, children of the placed x, on free host neighbours
        of x's image on x's side (out-neighbours for an out-vertex x): the
        non-leaves on core vertices, those of positive core sign-degree
        first (a non-leaf seated there still needs sign-arcs to its own
        children), then the leaves on what is left, non-core vertices first;
        least first within each group."""
        t = self.t
        slots = self.d.neighbor_bits(self.f[x], t.sign[x])
        kids = sorted(kids)
        non_leaf = [c for c in kids if t.deg[c] > 1]
        leaf = [c for c in kids if t.deg[c] == 1]
        core_free = slots & self.core_bits & ~self.used
        _require(self.trace, tag + "-core", core_free.bit_count() >= len(non_leaf), have=core_free.bit_count())
        pref = self.sided[-t.sign[x]]
        for c, s in zip(non_leaf, [*bits_of(core_free & pref), *bits_of(core_free & ~pref)]):
            self.place(c, s)
        rest = slots & ~self.used
        _require(self.trace, tag + "-capacity", rest.bit_count() >= len(leaf), have=rest.bit_count())
        for c, s in zip(leaf, [*bits_of(rest & ~self.core_bits), *bits_of(rest & self.core_bits)]):
            self.place(c, s)

    def fill(self, kids, slots: int):
        """Seat ``kids`` in the given order on the free vertices of ``slots``,
        least first: plain slot order, not ``seat_children``'s ranking."""
        for c, s in zip(kids, bits_of(slots & ~self.used)):
            self.place(c, s)

    def settle(self, scope: set[int], tag: str):
        """Seat every open vertex of ``scope`` on its ``pick``, in one pass in
        BFS order; InternalAssertion ``tag`` when some stay open.  One pass is
        maximal: BFS order reaches a parent before its children, and a
        vertex's candidates only shrink as vertices are placed.  At these
        steps the argument rules a stall out on a free host (or answers it
        with an exchange move that no free host was seen to need), so the
        oracle fallback answers."""
        opens = 0
        for x in self.rv.bfs_order:
            if x in self.f:
                for y in self.rv.children[x]:
                    if y in scope and y not in self.f:
                        h = self.pick(y)
                        if h is None:
                            opens += 1
                        else:
                            self.place(y, h)
        _require(self.trace, tag, not opens, open=opens)


# -- the low-maximum-degree branch (whole tree inside the pruned core) ------------


def _low_delta(core: Digraph, t: AntiTree, k: int, trace: list) -> tuple[dict[int, int], CaseTag]:
    """Greedy maximal embedding of the whole tree from one seeded root, inside
    the pruned core whose pseudo-semidegree reaches k/2 (4 Delta <= k).  A
    stall fails ``63:stall`` (the argument's distance-increasing re-seat loop
    is not run)."""
    ctx = _Ctx(t, core, core, 0, trace)
    _note(trace, "mindeg63", 2 * degree_profile(core).delta0_bar >= k)
    seeds = ctx.sided[t.sign[0]]
    _require(trace, "63:seed", seeds)
    ctx.place(0, _low(seeds))
    ctx.settle(set(range(t.n)), "63:stall")
    return ctx.f, CaseTag("LowDelta", {"k": k})


# -- the middle branch -----------------------------------------------------------


def _wide_star(d: Digraph, core: Digraph, t: AntiTree, hub: int, anchor: int, trace: list,
               strip: frozenset[int] = frozenset()) -> _Ctx:
    """Embedding around a high-out-degree hub: the hub on the anchor and its
    children in the anchor's out-neighborhood (``seat_children``), then the
    radius-2 ball greedily (``pu:stall``), then the rest (``case3b:stall``),
    all but the hub leaves in ``strip``, which stay open.  The argument's
    depth-2 swap and case-3b cascade are not run."""
    ctx = _Ctx(t, d, core, hub, trace, _leaf_mask(t, t.adj[hub]))
    ctx.place(hub, anchor)
    ctx.seat_children(hub, [c for c in ctx.rv.children[hub] if c not in strip], "pu:anchor")
    rest = set(range(t.n)).difference(strip)
    ctx.settle({x for x in rest if ctx.rv.depth[x] <= 2}, "pu:stall")
    ctx.settle(rest, "case3b:stall")
    return ctx


def _mid_delta(d: Digraph, t: AntiTree, k: int, stats: DegreeStats, trace: list) -> tuple[dict[int, int], CaseTag]:
    hub, delta = stats.argmax_u, stats.delta
    r = min((k + 1) // 2, k - delta + 1)
    sel = select_subdigraph(d, k, r)
    trace.append({"event": "select", "case": sel.case_tag, "r": r})
    if sel.case_tag == "I" and r < (k + 1) // 2 and 2 * degree_profile(sel.sub).delta0_bar < k:
        # case I with r = k - delta + 1 on a core below the full pseudo-degree
        mapping = _strip_and_reattach(d, sel, t, r, hub, trace)
    else:
        anchor = sel.witness_vertex
        if sel.case_tag == "II":
            anchor = next((a for a in bits_of(side_bits(sel.sub, +1)) if d.out_deg(a) >= delta), None)
            if anchor is None:
                raise InternalAssertion("mid-no-anchor")
        mapping = _wide_star(d, sel.sub, t, hub, anchor, trace).f
    return mapping, CaseTag("MidDelta", {"k": k, "r": r, "case": sel.case_tag, "delta": delta, "delta2": stats.delta2})


def _strip_and_reattach(d: Digraph, sel: SelectionResult, t: AntiTree, r: int, hub: int, trace: list) -> dict[int, int]:
    """Leave the hub's least Delta - r leaves out, embed the rest of t around
    the witness vertex (``_wide_star``), then seat those leaves on the free
    out-neighbors of the witness in the core (``fill``)."""
    leaves = [x for x in t.adj[hub] if t.deg[x] == 1]
    strip = t.deg[hub] - r
    if len(leaves) < strip + 1:
        raise InternalAssertion("strip-leaf-count", have=len(leaves), need=strip + 1)
    anchor = sel.witness_vertex
    ctx = _wide_star(d, sel.sub, t, hub, anchor, trace, frozenset(leaves[:strip]))
    slots = sel.sub.neighbor_bits(anchor, +1) & ~ctx.used
    if slots.bit_count() < strip:
        raise InternalAssertion("strip-reattach", have=slots.bit_count(), need=strip)
    ctx.fill(leaves[:strip], slots)
    trace.append({"event": "strip-reattach", "stripped": strip, "kprime": 2 * r - 1})
    return ctx.f


# -- the double-broom branch -------------------------------------------------------


def _broom_case(t: AntiTree, k: int, stats: DegreeStats) -> tuple[bool, dict]:
    """Whether the oriented tree's broom B_uv falls in case A, and the case
    parameters: u is the hub, v the least other vertex of maximum degree."""
    u, v, delta, delta2 = stats.argmax_u, stats.argmax2_v, stats.delta, stats.delta2
    size = len(double_broom(t, u, v).vertices)
    padded = t.sign[v] < 0 and 12 * (delta + delta2) < 7 * k and size <= k + 1 - (delta - delta2)
    case_a = 4 * size <= 3 * k or padded
    r = (k + 1) // 2 if case_a else min((5 * k + 11) // 12, k - delta)
    return case_a, {"k": k, "r": r, "delta": delta, "delta2": delta2, "u": u, "v": v,
                    "broom_size": size, "padded": padded}


def _big_delta2(d: Digraph, t: AntiTree, k: int, stats: DegreeStats, trace: list) -> tuple[dict[int, int], CaseTag]:
    case_a, params = _broom_case(t, k, stats)
    sel = select_subdigraph(d, k, params["r"])
    branch = "BroomA" if case_a else "BroomB_I" if sel.case_tag == "I" else "BroomB_II"
    trace.append({"event": "broom-case", "branch": branch, "r": params["r"]})
    case = CaseTag(branch, params)
    return _broom(d, sel, t, case, trace), case


def _broom(d: Digraph, sel: SelectionResult, t: AntiTree, case: CaseTag, trace: list) -> dict[int, int]:
    """Embed B_uv per the case, into the core for A and B-I (balanced
    caterpillar machinery, padding, or greedy), suitably into the host for
    B-II (hub seating, then greedy); then extend it greedily to all of t.
    B-I with a huge hub embeds the whole tree from scratch instead
    (``_bi_big_delta``).  An extension stall fails ``extend:stall``; the
    argument's moves there (Claim OC's leaf relocation, B-I's sacrifice of a
    path-maximal branch and its hub-leaf endgame) are not run."""
    p = case.params
    k, core = p["k"], sel.sub
    if case.branch == "BroomB_I" and p["r"] == k - p["delta"] and p["r"] < (5 * k + 11) // 12:
        return _bi_big_delta(sel, t, case, trace)
    broom = double_broom(t, p["u"], p["v"])
    if case.branch == "BroomB_II":
        mapping = _broom_b2(d, sel, t, broom, case, trace)
    elif case.branch == "BroomA" and not p["padded"]:
        mapping = _broom_a_greedy(core, t, broom, p["u"], trace)
    else:
        mapping = _broom_catmindeg(core, t, broom, case, trace)
    if set(mapping) != broom.vertices:
        raise InternalAssertion("broom-validate")
    if case.branch == "BroomB_II":
        ctx = _Ctx(t, d, core, p["u"], trace, _leaf_mask(t, range(t.n)))
    else:
        ctx = _Ctx(t, core, core, p["u"], trace)
    if case.branch == "BroomB_I":
        prof = degree_profile(core)
        _note(trace, "eq:mindegsec7.2", 2 * prof.delta_plus_bar >= k and 12 * prof.delta_minus_bar >= 5 * k)
    # B_uv is a subtree holding the root, so BFS order seats each broom vertex
    # after its parent and ``place`` checks every broom arc
    for x in ctx.rv.bfs_order:
        if x in mapping:
            ctx.place(x, mapping[x])
    ctx.settle(set(range(t.n)), "extend:stall")
    return ctx.f


def _broom_catmindeg(core: Digraph, t: AntiTree, broom, case: CaseTag, trace: list) -> dict[int, int]:
    """B_uv's map by the sign-balanced caterpillar step on the core, from
    ``broom.dec`` in t's labels.  Case A-II pads B_uv with Delta - delta2
    more leaves at v, labelled t.n, t.n + 1, ... and dropped from the map.
    The witness is checked whole on the broom's arcs in t and the padding
    arcs; a failed hypothesis is InternalAssertion ``<step>:hypotheses``."""
    p, verts, dec = case.params, broom.vertices, broom.dec
    tp = sum(t.sign[x] > 0 for x in verts)
    tm = len(verts) - tp
    step = "A-II" if case.branch == "BroomA" else "B-I"
    pad = range(t.n, t.n + (p["delta"] - p["delta2"] if step == "A-II" else 0))
    if step == "A-II":
        _require(trace, "A-II:size", len(verts) + len(pad) <= p["k"] + 1, size=len(verts) + len(pad))
        tp += len(pad)  # sources, since v is a sink
        _note(trace, "A-II:balance", tp == tm)
        dec = SpineDecomposition(dec.spine, {**dec.leaves_at, p["v"]: dec.leaves_at[p["v"]] + tuple(pad)})
    else:
        _note(trace, "B-I:balance", tp <= tm)
    arcs = [(x, y) for x, y in t.tree.arcs if x in verts and y in verts] + [(w, p["v"]) for w in pad]
    keys = verts.union(pad)
    holds = lambda f: set(f) == keys and len(set(f.values())) == len(f) and all(
        core.has_arc(f[x], f[y]) for x, y in arcs)
    try:
        f = sign_balanced_witness(core, t, (tp, tm), holds, dec)
    except HypothesisViolated:
        d_sides = tuple(side_bits(core, s).bit_count() for s in (1, -1))
        raise InternalAssertion(step + ":hypotheses", d_sides=d_sides, t_sides=(tp, tm)) from None
    for w in pad:
        del f[w]
    return f


def _broom_a_greedy(core: Digraph, t: AntiTree, broom, u: int, trace: list) -> dict[int, int]:
    """Case A with a small broom: hub on the least core source, then greedy."""
    ctx = _Ctx(t, core, core, u, trace)
    a = _low(ctx.sided[+1])
    _require(trace, "A-I:anchor-degree", core.out_deg(a) >= t.deg[u], have=core.out_deg(a))
    ctx.place(u, a)
    ctx.settle(set(broom.vertices), "A-I:stall")
    return ctx.f


def _relabel_xy(t: AntiTree, u: int, v: int, delta: int, delta2: int, k: int, trace: list):
    """The (i)/(ii)/(iii) relabeling of {u, v} as {x, y}: x and the case
    number (y, the other one, is logged)."""
    if 12 * (delta - delta2) >= k:
        trace.append({"event": "xy-case", "case": "i"})
        return u, 1
    if t.sign[v] > 0:
        lu = sum(1 for c in t.adj[u] if t.deg[c] == 1)
        lv = sum(1 for c in t.adj[v] if t.deg[c] == 1)
        cands = [(w, l) for w, l in ((u, lu), (v, lv)) if 12 * l >= k]
        if not cands:
            raise InternalAssertion("Bii:choose-y", lu=lu, lv=lv)
        y = max(cands, key=lambda p: (p[1], p[0] == v))[0]
        x = u if y == v else v
        trace.append({"event": "xy-case", "case": "ii", "x": x, "y": y})
        return x, 2
    trace.append({"event": "xy-case", "case": "iii"})
    return v, 3


def _broom_b2(d: Digraph, sel: SelectionResult, t: AntiTree, broom, case: CaseTag, trace: list) -> dict[int, int]:
    core = sel.sub
    p = case.params
    u, v, k, r = p["u"], p["v"], p["k"], p["r"]
    b_vertex = sel.witness_vertex  # in-degree >= k inside the core
    _note(trace, "bwithindegk", core.in_deg(b_vertex) >= k)
    scope = set(broom.vertices)
    leaves = _leaf_mask(t, range(t.n))

    if r == k - p["delta"] and r < (5 * k + 11) // 12:
        # every core source sees more than delta arcs in the host, and every
        # other extension step keeps ~5k/12 slack: plain greedy suffices
        ctx = _Ctx(t, d, core, u, trace, leaves)
        a = _low(ctx.sided[+1])
        ctx.place(u, a)
        ctx.seat_children(u, ctx.rv.children[u], "hub")
        ctx.settle(scope, "Bii:bigdelta")
        return ctx.f

    if len(broom.path_uv) == 2:
        # a double-star: u goes on the least in-neighbor of the heavy sink
        ctx = _Ctx(t, d, core, u, trace, leaves)
        a = _low(core.neighbor_bits(b_vertex, -1))
        ctx.place(u, a)
        ctx.place(v, b_vertex)
        ctx.seat_children(u, [c for c in ctx.rv.children[u] if c != v], "hub")
        slots = core.neighbor_bits(b_vertex, -1) & ~ctx.used
        vkids = [c for c in t.adj[v] if c != u]
        _require(trace, "Bii:dstar-capacity", slots.bit_count() >= len(vkids))
        ctx.fill(vkids, slots)
        return ctx.f

    _note(trace, "notdoublestar", True)
    x, case_no = _relabel_xy(t, u, v, p["delta"], p["delta2"], k, trace)
    ctx = _Ctx(t, d, core, x, trace, leaves)
    if case_no == 3:
        ctx.place(x, b_vertex)
        slots = core.neighbor_bits(b_vertex, -1) & ~ctx.used
        kids = sorted(ctx.rv.children[x])
        _require(trace, "Bii:iii-capacity", slots.bit_count() >= len(kids))
        ctx.fill(kids, slots)
        _note(trace, "eq:degree-k", core.in_deg(b_vertex) >= k)
    else:
        a = _low(ctx.sided[+1])
        _note(trace, "degaD'712", 12 * d.out_deg(a) >= 7 * k)
        ctx.place(x, a)
        ctx.seat_children(x, ctx.rv.children[x], "hub")
        _note(trace, "eq:eeeee", 12 * d.out_deg(ctx.f[x]) >= 7 * k)

    ctx.settle(scope, "Bii:stall")
    return ctx.f


def _bi_big_delta(sel: SelectionResult, t: AntiTree, case: CaseTag, trace: list) -> dict[int, int]:
    """Case B-I with a huge hub: embed the trimmed tree in a fixed order from
    scratch, leaves of the hub last.  The hub goes on the selection's
    witness, the least core vertex of out-degree at least k."""
    u, v, k = case.params["u"], case.params["v"], case.params["k"]
    core, a = sel.sub, sel.witness_vertex
    ctx = _Ctx(t, core, core, u, trace)
    ctx.place(u, a)
    path = set(t.path(u, v))
    leaves_u = {c for c in t.adj[u] if t.deg[c] == 1}
    heavy = {c for c in t.adj[u] if t.deg[c] > 1 and c not in path}
    below = set(heavy)  # the heavy children and D_u, their descendants
    for x in ctx.rv.bfs_order:
        if ctx.rv.parent[x] in below:
            below.add(x)
    part1 = set(range(t.n)) - leaves_u - below - {u}
    _note(trace, "eq:T^*", 6 * (len(part1) + 1) <= 6 * case.params["r"] + k + 6, size=len(part1))
    ctx.settle(part1 | {u}, "BIbig:part1")
    ctx.seat_children(u, heavy, "BIbig:part2")
    ctx.settle(set(range(t.n)) - leaves_u, "BIbig:Du")
    ctx.seat_children(u, leaves_u, "BIbig:leaves")
    return ctx.f


# -- top level -----------------------------------------------------------------


def _refusal(kind: str, trace: list, **data) -> EmbedOutcome:
    trace.append({"event": "refusal", "kind": kind, **data})
    return EmbedOutcome(embedding=None, trace=trace, failure={"kind": kind, **data})


def _oracle_after(d: Digraph, t: AntiTree, budget: int | None, trace: list) -> EmbedOutcome:
    """The exact oracle's outcome, its trace led by the events that sent the
    run there.  ``oracle_fallback`` is looked up here at call time, so a
    wrapper installed on the module sees every fallback."""
    fb = oracle_fallback(d, t, budget)
    fb.trace[:0] = trace
    return fb


# Oracle nodes a fallback may expand when the caller gives no budget: a stall
# on a large host with a small dense trap would otherwise search without end.
FALLBACK_BUDGET = 1_000_000


def oracle_fallback(d: Digraph, t: AntiTree, budget: int | None = None) -> EmbedOutcome:
    """The exact oracle's answer as an outcome, within ``budget`` nodes
    (``FALLBACK_BUDGET`` when None); ``budget-exhausted`` when it runs out.
    A witness that fails ``validate_embedding`` raises InternalAssertion
    ``oracle-witness``."""
    stats = oracle_embed(d, t, FALLBACK_BUDGET if budget is None else budget)
    trace = [{"event": "oracle", "verdict": stats.verdict, "nodes": stats.nodes_expanded}]
    if stats.verdict == "Embeds":
        if not validate_embedding(t, d, stats.witness):
            raise InternalAssertion("oracle-witness")
        return EmbedOutcome(embedding=Embedding(map=stats.witness), trace=trace)
    kind = "not-contained" if stats.verdict == "NotContained" else "budget-exhausted"
    return EmbedOutcome(embedding=None, trace=trace, failure={"kind": kind})


def embed_antitree(d: Digraph, t: AntiTree, k: int | None = None, force_oracle: bool = False,
                   budget: int | None = None, known_free: bool = False) -> EmbedOutcome:
    """Decide and construct: certified refusal when a hypothesis fails, a
    validated embedding otherwise.  An internal assertion triggers the exact
    oracle so the outcome still reports ground truth, with the event logged
    after the branch's own events; ``budget`` bounds its nodes
    (``FALLBACK_BUDGET`` when None).

    ``known_free`` skips the forbidden-subgraph scan; callers running many
    trees against one audited host use it to avoid re-checking the host."""
    if k is None:
        k = t.k
    if k != t.k:
        raise HypothesisViolated("arc-count-mismatch", k=k, arcs=t.k)
    trace: list = []
    if d.a() <= (k - 1) * d.n:
        out = _refusal("density", trace, arcs=d.a(), need=(k - 1) * d.n + 1)
        return _oracle_after(d, t, budget, trace) if force_oracle else out
    s = (k + 11) // 12
    # a single arc needs no forbidden-subgraph hypothesis
    free = True if known_free or k == 1 else is_k2s_free(d, s)
    if free is not True:
        out = _refusal("freeness", trace, s=s, witness=free.to_json())
        return _oracle_after(d, t, budget, trace) if force_oracle else out
    try:
        mapping, case = _single_arc(d, t) if k == 1 else _dispatch(d, t, k, trace)
    except InternalAssertion as exc:
        trace.append({"event": "internal-assertion", "tag": exc.tag, "data": exc.data})
        return _oracle_after(d, t, budget, trace)
    if not validate_embedding(t, d, mapping):
        trace.append({"event": "internal-assertion", "tag": "final-validate"})
        return _oracle_after(d, t, budget, trace)
    return EmbedOutcome(embedding=Embedding(map=mapping), trace=trace, case=case)


def _single_arc(d: Digraph, t: AntiTree) -> tuple[dict[int, int], CaseTag]:
    """The least host arc, read from vertex 0's image to vertex 1's: the same
    choice after reversing host and tree together."""
    arcs = d.arcs if t.tree.arcs[0] == (0, 1) else ((y, x) for x, y in d.arcs)
    return dict(enumerate(min(arcs))), CaseTag("LowDelta", {"k": 1})


def _oriented(d: Digraph, t: AntiTree, trace: list) -> tuple[Digraph, AntiTree]:
    """The pair as given when the least-index maximum-degree vertex of t is an
    out-vertex, else both reversed (logged).  An embedding of the reversed
    tree into the reversed host is the same map."""
    if t.sign[t.deg.index(max(t.deg))] > 0:
        return d, t
    trace.append({"event": "normalize", "reversed": True})
    return reverse(d), reverse_antitree(t)


def _dispatch(d: Digraph, t: AntiTree, k: int, trace: list) -> tuple[dict[int, int], CaseTag]:
    """Orient the pair, take the hub (``degree_stats(t).argmax_u``, an
    out-vertex after orientation) and run the branch its degrees pick."""
    d, t = _oriented(d, t, trace)
    stats = degree_stats(t)
    if stats.delta2 > k // 4 + 2:
        trace.append({"event": "dispatch", "branch": "BigDelta2"})
        return _big_delta2(d, t, k, stats, trace)
    if 4 * stats.delta > k:
        trace.append({"event": "dispatch", "branch": "MidDelta"})
        return _mid_delta(d, t, k, stats, trace)
    trace.append({"event": "dispatch", "branch": "LowDelta"})
    return _low_delta(prune_pseudo(d, k), t, k, trace)
