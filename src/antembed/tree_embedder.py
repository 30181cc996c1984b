"""The full antidirected-tree embedding pipeline.

Entry point ``embed_antitree`` verifies the density and forbidden-subgraph
hypotheses (certified refusal otherwise), normalizes orientation and
dispatches on the second-highest degree: the low branch splits again on the
maximum degree, the high branch runs the double-broom pipeline.

Orientation is normalized in one place, ``_oriented``: the least-index
maximum-degree tree vertex must be an out-vertex, otherwise host and tree are
reversed together.  The dispatcher and the public ``embed_mid_delta`` and
``embed_big_delta2`` all go through it, so a pair and its reversal always
reach the same branch code with the same inputs and return equal maps.

Each branch follows its constructive argument step by step: seat the hubs
the argument fixes, extend greedily (``_Ctx.greedy``), and settle.  A greedy
that stalls, which the argument rules out on a free host or answers with an
exchange move that no free host was seen to need, raises InternalAssertion
(``_Ctx.settle``).  The argument's displayed inequalities are evaluated at
their steps and logged under the tags used here.  Every choice point takes
its first candidate, and a step whose guaranteed candidate set comes up empty
raises InternalAssertion.  When that happens at the top level the exact
oracle is consulted, within ``FALLBACK_BUDGET`` nodes unless the caller gives
a budget, so a run still reports ground truth next to the bug trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .antitree import (
    AntiTree,
    degree_stats,
    double_broom,
    reverse_antitree,
    rooted_view,
    validate_antitree,
)
from .convex import embed_caterpillar_mindeg
from .digraph import Digraph, bits_of, core_member_bits, degree_profile, reverse, side_bits
from .embedding import Embedding, validate_embedding, validate_partial
from .errors import HypothesisViolated, InternalAssertion
from .freeness import is_k2s_free
from .oracle_gen import oracle_embed
from .subdigraph import SelectionResult, prune_pseudo, select_subdigraph


def _mask(it) -> int:
    m = 0
    for v in it:
        m |= 1 << v
    return m


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


def _first(tag: str, options: list):
    """The first candidate at a choice point; ``<tag>:no-candidates`` when there is none."""
    if not options:
        raise InternalAssertion(tag + ":no-candidates")
    return options[0]


def _outcome(mapping: dict[int, int], t: AntiTree, d: Digraph, tag: str, trace: list, case=None) -> EmbedOutcome:
    """``mapping`` as a validated embedding of t into d; InternalAssertion
    ``tag`` when it is not one."""
    if not validate_embedding(t, d, mapping):
        raise InternalAssertion(tag, trace=trace)
    return EmbedOutcome(embedding=Embedding(map=mapping), trace=trace, case=case)


def _note(trace: list, tag: str, holds, **data):
    """Log the checkpoint ``tag`` (one of the argument's displayed
    inequalities) with whether it holds; returns ``holds``."""
    trace.append({"event": "check", "tag": tag, "holds": bool(holds), **data})
    return holds


# -- embedding context ----------------------------------------------------------


class _Ctx:
    """One partial embedding of t into d, with core-aware placement rules.

    mode "core":     host is the core itself, every arc stays inside it.
    mode "pu":       non-core vertices only for leaves adjacent to ``u_root``.
    mode "suitable": non-core vertices only for leaves of t.

    Candidate arcs for growing the embedding come from the core whenever the
    vertex being placed is core-bound; seeding moves (placing a hub's children
    into its full-host out-neighborhood) bypass candidate generation and are
    validated against the host plus the vertex rule only.
    """

    def __init__(self, t: AntiTree, d: Digraph, core: Digraph, mode: str, root: int, u_root=None, trace=None):
        self.t = t
        self.d = d
        self.core = core
        self.core_bits = core_member_bits(core)
        self.sided = {+1: side_bits(core, +1), -1: side_bits(core, -1)}
        self.mode = mode
        self.u_root = u_root
        self.rv = rooted_view(t, root)
        self.f: dict[int, int] = {}
        self.used = 0
        self.trace = trace if trace is not None else []

    # placement rules ---------------------------------------------------

    def core_bound(self, x: int) -> bool:
        if self.mode == "core":
            return True
        if self.mode == "pu":
            return not (self.t.deg[x] == 1 and self.rv.parent[x] == self.u_root)
        return self.t.deg[x] > 1

    def cand_mask(self, x: int) -> int:
        p = self.rv.parent[x]
        if p is None or p not in self.f:
            raise InternalAssertion("cand-no-parent", vertex=x)
        if self.core_bound(x):
            return self.core.neighbor_bits(self.f[p], -self.t.sign[x]) & ~self.used & self.core_bits
        return self.d.neighbor_bits(self.f[p], -self.t.sign[x]) & ~self.used

    def pick(self, x: int) -> int | None:
        """The first vertex of ``ranked`` over x's candidates (of all
        candidates, least first, when x is a leaf); None when there is none."""
        bits = self.cand_mask(x)
        if self.t.deg[x] > 1:
            bits = bits & self.sided[self.t.sign[x]] or bits
        return (bits & -bits).bit_length() - 1 if bits else None

    def ranked(self, bits: int, sign: int) -> list[int]:
        """The vertices of ``bits`` in increasing order, those of positive core
        sign-degree first: a non-leaf of that sign seated there still needs
        sign-arcs to its own children."""
        pref = self.sided[sign]
        return [*bits_of(bits & pref), *bits_of(bits & ~pref)]

    # mutation ----------------------------------------------------------

    def place(self, x: int, h: int):
        if (self.used >> h) & 1 or x in self.f:
            raise InternalAssertion("place-collision", vertex=x, host=h)
        if self.core_bound(x) and not (self.core_bits >> h) & 1:
            raise InternalAssertion("place-noncore", vertex=x, host=h)
        p = self.rv.parent[x]
        if p is not None and p in self.f:
            arc = (h, self.f[p]) if self.t.sign[x] > 0 else (self.f[p], h)
            if not self.d.has_arc(*arc):
                raise InternalAssertion("place-arc", vertex=x, host=h)
        self.f[x] = h
        self.used |= 1 << h

    def reset_to(self, keep: dict[int, int]):
        self.f = dict(keep)
        self.used = _mask(keep.values())

    def seat_children(self, x: int, kids, slots: int, tag: str):
        """Place ``kids``, children of the placed x, on free vertices of
        ``slots``: the non-leaves on core vertices (``ranked``), then the
        leaves on what is left, non-core vertices first."""
        t = self.t
        kids = sorted(kids)
        non_leaf = [c for c in kids if t.deg[c] > 1]
        leaf = [c for c in kids if t.deg[c] == 1]
        core_free = slots & self.core_bits & ~self.used
        self.require(tag + "-core", core_free.bit_count() >= len(non_leaf), have=core_free.bit_count())
        for c, s in zip(non_leaf, self.ranked(core_free, -t.sign[x])):
            self.place(c, s)
        rest = slots & ~self.used
        self.require(tag + "-capacity", rest.bit_count() >= len(leaf), have=rest.bit_count())
        for c, s in zip(leaf, sorted(bits_of(rest), key=lambda q: ((self.core_bits >> q) & 1, q))):
            self.place(c, s)

    def fill(self, kids, slots: int):
        """Seat ``kids`` in the given order on the free vertices of ``slots``,
        least first: plain slot order, not ``seat_children``'s ranking."""
        for c, s in zip(kids, bits_of(slots & ~self.used)):
            self.place(c, s)

    # traversal ---------------------------------------------------------

    def greedy(self, scope: set[int]):
        """Maximal extension inside ``scope``; returns the open (parent, child)
        pairs left when nothing more fits."""
        progressed = True
        while progressed:
            progressed = False
            for x in self.rv.bfs_order:
                if x not in self.f:
                    continue
                for y in self.rv.children[x]:
                    if y in scope and y not in self.f:
                        c = self.pick(y)
                        if c is not None:
                            self.place(y, c)
                            progressed = True
        out = []
        for x in self.rv.bfs_order:
            if x not in self.f:
                continue
            for y in self.rv.children[x]:
                if y in scope and y not in self.f:
                    out.append((x, y))
        return out

    def settle(self, scope: set[int], tag: str):
        """One greedy extension inside ``scope`` that must leave no open pair;
        InternalAssertion ``tag`` otherwise.  At these steps the argument
        rules a stall out on a free host (or answers it with an exchange move
        that no free host was seen to need), so the oracle fallback answers."""
        opens = self.greedy(scope)
        self.require(tag, not opens, open=len(opens))

    def subtree(self, x: int) -> set[int]:
        out = set()
        stack = [x]
        while stack:
            v = stack.pop()
            out.add(v)
            stack.extend(self.rv.children[v])
        return out

    # checkpoints ---------------------------------------------------------

    def note(self, tag: str, holds: bool, **data):
        return _note(self.trace, tag, holds, **data)

    def require(self, tag: str, holds: bool, **data):
        if not _note(self.trace, tag, holds, **data):
            raise InternalAssertion(tag, trace=self.trace, **data)


# -- the low-maximum-degree embedder (whole tree inside the pruned core) --------


def embed_low_delta(d_core: Digraph, t: AntiTree, k: int) -> EmbedOutcome:
    """Greedy maximal embedding of the whole tree from one seeded root.

    Works entirely inside the pruned core whose pseudo-semidegree reaches
    k/2; applies when the tree's maximum degree stays below k/4.  A stall
    fails ``63:stall`` (the argument's distance-increasing re-seat loop is
    not run)."""
    prof = degree_profile(d_core)
    if 2 * prof.delta0_bar < k:
        raise HypothesisViolated("core-pseudo-degree", have=prof.delta0_bar, k=k)
    stats = degree_stats(t)
    if 4 * stats.delta > k:
        raise HypothesisViolated("delta-too-big", delta=stats.delta, k=k)
    trace: list = []
    ctx = _Ctx(t, d_core, d_core, "core", root=0, trace=trace)
    ctx.note("mindeg63", 2 * prof.delta0_bar >= k)
    r0 = ctx.rv.root
    start = next((c for c in range(d_core.n) if d_core.sign_deg(c, t.sign[r0]) > 0), None)
    ctx.require("63:seed", start is not None)
    ctx.place(r0, start)
    ctx.settle(set(range(t.n)), "63:stall")
    return _outcome(dict(ctx.f), t, d_core, "low-delta-validate", trace, CaseTag("LowDelta", {"k": k}))


# -- the wide-star embedder ---------------------------------------------------------


def _pick_out_max(t: AntiTree, hub: int | None = None):
    stats = degree_stats(t)
    if hub is not None:
        if t.sign[hub] <= 0 or t.deg[hub] != stats.delta:
            raise HypothesisViolated("bad-hub", hub=hub)
        return hub, stats
    outs = [v for v in range(t.n) if t.deg[v] == stats.delta and t.sign[v] > 0]
    return (outs[0] if outs else None), stats


def embed_wide_star(d: Digraph, d_core: Digraph, t: AntiTree, k: int, anchor: int,
                    strict: bool = True, hub: int | None = None) -> EmbedOutcome:
    """Embedding around a high-out-degree hub: the hub on the anchor and its
    children in the anchor's out-neighborhood (``seat_children``), then the
    radius-2 ball greedily (``pu:stall``), then the rest (``case3b:stall``).
    The argument's depth-2 swap and case-3b cascade are not run."""
    u, stats = _pick_out_max(t, hub)
    if u is None:
        raise HypothesisViolated("no-out-max-vertex")
    prof = degree_profile(d_core)
    if 2 * prof.delta0_bar < k:
        raise HypothesisViolated("core-pseudo-degree", have=prof.delta0_bar, k=k)
    if d.sign_deg(anchor, +1) < stats.delta:
        raise HypothesisViolated("anchor-outdegree", have=d.sign_deg(anchor, +1), need=stats.delta)
    if strict and 4 * stats.delta <= k:
        raise HypothesisViolated("delta-too-small", delta=stats.delta, k=k)
    if strict and stats.delta2 > k // 4 + 2:
        raise HypothesisViolated("delta2-too-big", delta2=stats.delta2, k=k)
    trace: list = []
    ctx = _Ctx(t, d, d_core, "pu", root=u, u_root=u, trace=trace)
    ctx.place(u, anchor)
    ctx.seat_children(u, ctx.rv.children[u], d.neighbor_bits(anchor, +1), "pu:anchor")
    ctx.settle({x for x in range(t.n) if ctx.rv.depth[x] <= 2}, "pu:stall")
    ctx.settle(set(range(t.n)), "case3b:stall")
    return _outcome(dict(ctx.f), t, d, "wide-star-validate", trace,
                    CaseTag("MidDelta", {"k": k, "op": "wide-star"}))


# -- the middle branch -----------------------------------------------------------


def embed_mid_delta(d: Digraph, t: AntiTree, k: int) -> EmbedOutcome:
    stats = degree_stats(t)
    delta = stats.delta
    if 4 * delta <= k or stats.delta2 > k // 4 + 2:
        raise HypothesisViolated("mid-delta-range", delta=delta, delta2=stats.delta2, k=k)
    if d.a() <= (k - 1) * d.n:
        raise HypothesisViolated("density", arcs=d.a())
    trace: list = []
    d, t = _oriented(d, t, trace)
    r = min((k + 1) // 2, k - delta + 1)
    sel = select_subdigraph(d, k, r)
    trace.append({"event": "select", "case": sel.case_tag, "r": r})
    tag = CaseTag("MidDelta", {"k": k, "r": r, "case": sel.case_tag, "delta": delta, "delta2": stats.delta2})
    if sel.case_tag == "II":
        prof = degree_profile(sel.sub)
        anchor = next((a for a in range(d.n) if prof.out_deg[a] > 0 and d.out_deg(a) >= delta), None)
        if anchor is None:
            raise InternalAssertion("mid-no-anchor", trace=trace)
        out = embed_wide_star(d, sel.sub, t, k, anchor)
    elif r == (k + 1) // 2:
        out = embed_wide_star(d, sel.sub, t, k, sel.witness_vertex)
    else:
        # case I with r = k - delta + 1: go direct when the selected core
        # happens to carry the full pseudo-degree anyway, else strip leaves
        # off the hub, embed the trimmed tree, and return them to the anchor
        prof = degree_profile(sel.sub)
        if 2 * prof.delta0_bar >= k:
            out = embed_wide_star(d, sel.sub, t, k, sel.witness_vertex)
        else:
            out = _strip_and_reattach(d, sel, t, k, r)
    out.trace[:0] = trace
    out.case = tag
    return out


def _strip_and_reattach(d: Digraph, sel: SelectionResult, t: AntiTree, k: int, r: int) -> EmbedOutcome:
    trace: list = []
    u, stats = _pick_out_max(t)
    leaves_u = sorted(x for x in t.adj[u] if t.deg[x] == 1)
    strip = stats.delta - r
    if len(leaves_u) < strip + 1:
        raise InternalAssertion("strip-leaf-count", have=len(leaves_u), need=strip + 1, trace=trace)
    dropped = leaves_u[:strip]
    tstar, relabel = _induced_tree(t, set(range(t.n)).difference(dropped))
    kprime = 2 * r - 1
    if tstar.k != kprime:
        raise InternalAssertion("strip-arith", have=tstar.k, need=kprime, trace=trace)
    anchor = sel.witness_vertex
    inner = embed_wide_star(d, sel.sub, tstar, kprime, anchor, strict=False, hub=relabel[u])
    mapping = {v: inner.embedding.map[i] for v, i in relabel.items()}
    core = sel.sub
    slots = sorted(bits_of(core.neighbor_bits(anchor, +1) & ~_mask(mapping.values())))
    if len(slots) < strip:
        raise InternalAssertion("strip-reattach", have=len(slots), need=strip, trace=trace)
    for leaf, s in zip(dropped, slots):
        mapping[leaf] = s
    trace.extend(inner.trace)
    trace.append({"event": "strip-reattach", "stripped": strip, "kprime": kprime})
    return _outcome(mapping, t, d, "strip-validate", trace)


# -- the double-broom branch -------------------------------------------------------


def _induced_tree(t: AntiTree, verts: set[int]):
    """The subtree of t induced on ``verts``, relabeled 0.. in vertex order,
    and the relabeling."""
    keep = sorted(verts)
    relabel = {v: i for i, v in enumerate(keep)}
    arcs = [(relabel[a], relabel[b]) for a, b in t.tree.arcs if a in verts and b in verts]
    return validate_antitree(Digraph(len(keep), arcs)), relabel


def _broom_case(t: AntiTree, k: int):
    """The broom letter, hubs and r of an oriented tree: u is the least-index
    maximum-degree vertex (an out-vertex after ``_oriented``), v the least
    other vertex of maximum degree."""
    stats = degree_stats(t)
    u, v, delta, delta2 = stats.argmax_u, stats.argmax2_v, stats.delta, stats.delta2
    broom = double_broom(t, u, v)
    size = len(broom.vertices)
    bullet1 = 4 * size <= 3 * k
    bullet2 = t.sign[v] < 0 and 12 * (delta + delta2) < 7 * k and size <= k + 1 - (delta - delta2)
    if bullet1 or bullet2:
        return "A", u, v, delta, delta2, broom, (k + 1) // 2, bullet2
    return "B", u, v, delta, delta2, broom, min((5 * k + 11) // 12, k - delta), False


def embed_big_delta2(d: Digraph, t: AntiTree, k: int) -> EmbedOutcome:
    stats = degree_stats(t)
    if stats.delta2 < k // 4 + 3:
        raise HypothesisViolated("delta2-too-small", delta2=stats.delta2, k=k)
    if d.a() <= (k - 1) * d.n:
        raise HypothesisViolated("density", arcs=d.a())
    trace: list = []
    d, t = _oriented(d, t, trace)
    letter, u, v, delta, delta2, broom, r, padded = _broom_case(t, k)
    sel = select_subdigraph(d, k, r)
    if letter == "A":
        branch = "BroomA"
    else:
        branch = "BroomB_I" if sel.case_tag == "I" else "BroomB_II"
    tag = CaseTag(
        branch,
        {"k": k, "r": r, "delta": delta, "delta2": delta2, "u": u, "v": v,
         "broom_size": len(broom.vertices), "padded": padded},
    )
    trace.append({"event": "broom-case", "branch": branch, "r": r})
    partial = embed_double_broom(d, sel, t, k, tag)
    trace.extend(partial.trace)
    out = extend_from_broom(d, sel, t, partial.embedding.map, tag)
    out.trace[:0] = trace
    out.case = tag
    if branch == "BroomB_II":
        core_bits = core_member_bits(sel.sub)
        if any(t.deg[x] > 1 and not (core_bits >> out.embedding.map[x]) & 1 for x in range(t.n)):
            raise InternalAssertion("suitability-mask", trace=out.trace)
    return out


def embed_double_broom(d: Digraph, sel: SelectionResult, t: AntiTree, k: int, case: CaseTag) -> EmbedOutcome:
    """Embed B_uv per the case: into the core for A and B-I (balanced
    caterpillar machinery, padding, or greedy), suitably into the host for
    B-II (hub seating, then greedy)."""
    u, v = case.params["u"], case.params["v"]
    broom = double_broom(t, u, v)
    trace: list = []
    if case.branch == "BroomA":
        if case.params.get("padded"):
            mapping = _broom_a_padded(sel.sub, t, broom, k, case, trace)
        else:
            mapping = _broom_a_greedy(sel.sub, t, broom, case, trace)
    elif case.branch == "BroomB_I":
        mapping = _broom_catmindeg(sel.sub, t, broom, k, trace)
    else:
        mapping = _broom_b2(d, sel, t, broom, k, case, trace)
    if not validate_partial(t, d, mapping) or set(mapping) != set(broom.vertices):
        raise InternalAssertion("broom-validate", trace=trace)
    return EmbedOutcome(embedding=Embedding(map=mapping), trace=trace, case=case)


def _broom_catmindeg(core: Digraph, t: AntiTree, broom, k: int, trace: list) -> dict[int, int]:
    bt, relabel = _induced_tree(t, broom.vertices)
    tp, tm = bt.plus_minus()
    _note(trace, "B-I:balance", len(tp) <= len(tm))
    emb = embed_caterpillar_mindeg(core, bt)
    return {v: emb.map[relabel[v]] for v in broom.vertices}


def _broom_a_padded(core: Digraph, t: AntiTree, broom, k: int, case: CaseTag, trace: list) -> dict[int, int]:
    v = case.params["v"]
    dlt = case.params["delta"] - case.params["delta2"]
    bt, relabel = _induced_tree(t, broom.vertices)
    arcs = list(bt.tree.arcs) + [(bt.n + i, relabel[v]) for i in range(dlt)]
    padded = validate_antitree(Digraph(bt.n + dlt, arcs))
    _note(trace, "A-II:size", padded.n <= k + 1, size=padded.n)
    tp, tm = padded.plus_minus()
    _note(trace, "A-II:balance", len(tp) == len(tm))
    if padded.n > k + 1:
        raise InternalAssertion("A-II:size", trace=trace)
    emb = embed_caterpillar_mindeg(core, padded)
    return {w: emb.map[relabel[w]] for w in broom.vertices}


def _broom_a_greedy(core: Digraph, t: AntiTree, broom, case: CaseTag, trace: list) -> dict[int, int]:
    """Case A with a small broom: hub anywhere in the core, then greedy."""
    u = case.params["u"]
    ctx = _Ctx(t, core, core, "core", root=u, trace=trace)
    prof = degree_profile(core)
    starts = sorted(c for c in range(core.n) if prof.out_deg[c] > 0)
    a = _first("A-I:anchor", starts)
    ctx.require("A-I:anchor-degree", core.out_deg(a) >= t.deg[u], have=core.out_deg(a))
    ctx.place(u, a)
    ctx.settle(set(broom.vertices), "A-I:stall")
    return dict(ctx.f)


def _relabel_xy(t: AntiTree, u: int, v: int, delta: int, delta2: int, k: int, trace: list):
    """The (i)/(ii)/(iii) relabeling of {u, v} as {x, y}."""
    if 12 * (delta - delta2) >= k:
        trace.append({"event": "xy-case", "case": "i"})
        return u, v, 1
    if t.sign[v] > 0:
        lu = sum(1 for c in t.adj[u] if t.deg[c] == 1)
        lv = sum(1 for c in t.adj[v] if t.deg[c] == 1)
        cands = [(w, l) for w, l in ((u, lu), (v, lv)) if 12 * l >= k]
        if not cands:
            raise InternalAssertion("Bii:choose-y", trace=trace, lu=lu, lv=lv)
        y = max(cands, key=lambda p: (p[1], p[0] == v))[0]
        x = u if y == v else v
        trace.append({"event": "xy-case", "case": "ii", "x": x, "y": y})
        return x, y, 2
    trace.append({"event": "xy-case", "case": "iii"})
    return v, u, 3


def _broom_b2(d: Digraph, sel: SelectionResult, t: AntiTree, broom, k: int, case: CaseTag, trace: list) -> dict[int, int]:
    core = sel.sub
    u, v = case.params["u"], case.params["v"]
    delta, delta2 = case.params["delta"], case.params["delta2"]
    r = case.params["r"]
    prof = degree_profile(core)
    b_vertex = sel.witness_vertex  # in-degree >= k inside the core
    _note(trace, "bwithindegk", prof.in_deg[b_vertex] >= k)
    scope = set(broom.vertices)
    plus_members = sorted(c for c in range(d.n) if prof.out_deg[c] > 0)

    if r == k - delta and r < (5 * k + 11) // 12:
        # every core source sees more than delta arcs in the host, and every
        # other extension step keeps ~5k/12 slack: plain greedy suffices
        ctx = _Ctx(t, d, core, "suitable", root=u, trace=trace)
        a = _first("Bii:bigdelta-anchor", plus_members)
        ctx.place(u, a)
        ctx.seat_children(u, ctx.rv.children[u], d.neighbor_bits(a, +1), "hub")
        ctx.settle(scope, "Bii:bigdelta")
        return dict(ctx.f)

    path = broom.path_uv
    if len(path) == 2:
        # a double-star: u goes on an in-neighbor of the heavy sink
        ctx = _Ctx(t, d, core, "suitable", root=u, trace=trace)
        ins = sorted(bits_of(core.neighbor_bits(b_vertex, -1)))
        a = _first("Bii:dstar-anchor", ins)
        ctx.place(u, a)
        ctx.place(v, b_vertex)
        ctx.seat_children(u, [c for c in ctx.rv.children[u] if c != v], d.neighbor_bits(a, +1), "hub")
        slots = core.neighbor_bits(b_vertex, -1) & ~ctx.used
        vkids = [c for c in t.adj[v] if c != u]
        ctx.require("Bii:dstar-capacity", slots.bit_count() >= len(vkids))
        ctx.fill(vkids, slots)
        return dict(ctx.f)

    _note(trace, "notdoublestar", True)
    x, _, case_no = _relabel_xy(t, u, v, delta, delta2, k, trace)
    ctx = _Ctx(t, d, core, "suitable", root=x, trace=trace)
    if case_no == 3:
        ctx.place(x, b_vertex)
        slots = core.neighbor_bits(b_vertex, -1) & ~ctx.used
        kids = sorted(ctx.rv.children[x])
        ctx.require("Bii:iii-capacity", slots.bit_count() >= len(kids))
        ctx.fill(kids, slots)
        ctx.note("eq:degree-k", prof.in_deg[b_vertex] >= k)
    else:
        a = _first("Bii:anchor", plus_members)
        ctx.note("degaD'712", 12 * d.out_deg(a) >= 7 * k)
        ctx.place(x, a)
        ctx.seat_children(x, ctx.rv.children[x], d.neighbor_bits(a, +1), "hub")
        ctx.note("eq:eeeee", 12 * d.out_deg(ctx.f[x]) >= 7 * k)

    ctx.settle(scope, "Bii:stall")
    return dict(ctx.f)


# -- extending a broom embedding to the whole tree --------------------------------


def extend_from_broom(d: Digraph, sel: SelectionResult, t: AntiTree, partial: dict[int, int], case: CaseTag) -> EmbedOutcome:
    """The broom's embedding ``partial`` extended to all of t: B-I with a huge
    hub embeds from scratch (``_bi_big_delta``), every other case greedily
    from ``partial`` (``_extend_greedy``)."""
    trace: list = []
    k, r = case.params["k"], case.params["r"]
    if case.branch == "BroomB_I" and r == k - case.params["delta"] and r < (5 * k + 11) // 12:
        mapping = _bi_big_delta(sel.sub, t, sel, k, case, trace)
    else:
        mapping = _extend_greedy(d, sel.sub, t, partial, case, trace)
    return _outcome(mapping, t, d, "extend-validate", trace, case)


def _extend_greedy(d: Digraph, core: Digraph, t: AntiTree, partial: dict[int, int], case: CaseTag, trace: list) -> dict[int, int]:
    """Maximal extension beyond the broom: inside the core for A and B-I,
    suitably into the host for B-II.  A stall fails ``extend:stall``; the
    argument's moves there (Claim OC's leaf relocation, B-I's sacrifice of a
    path-maximal branch and its hub-leaf endgame) are not run."""
    suitable = case.branch == "BroomB_II"
    ctx = _Ctx(t, d if suitable else core, core, "suitable" if suitable else "core", root=case.params["u"], trace=trace)
    if case.branch == "BroomB_I":
        prof = degree_profile(core)
        k = case.params["k"]
        ctx.note("eq:mindegsec7.2", 2 * prof.delta_plus_bar >= k and 12 * prof.delta_minus_bar >= 5 * k)
    ctx.reset_to(partial)
    ctx.settle(set(range(t.n)), "extend:stall")
    return dict(ctx.f)


def _bi_big_delta(core: Digraph, t: AntiTree, sel: SelectionResult, k: int, case: CaseTag, trace: list) -> dict[int, int]:
    """Case B-I with a huge hub: embed the trimmed tree in a fixed order from
    scratch, leaves of the hub last."""
    u, v = case.params["u"], case.params["v"]
    ctx = _Ctx(t, core, core, "core", root=u, trace=trace)
    prof = degree_profile(core)
    anchors = sorted(a for a in range(core.n) if prof.out_deg[a] >= k)
    a = _first("BIbig:anchor", anchors)
    ctx.place(u, a)
    path = set(t.path(u, v))
    leaves_u = {c for c in t.adj[u] if t.deg[c] == 1}
    heavy = {c for c in t.adj[u] if t.deg[c] > 1 and c not in path}
    d_u = set()
    for c in heavy:
        d_u |= ctx.subtree(c) - {c}
    part1 = set(range(t.n)) - leaves_u - heavy - d_u - {u}
    ctx.note("eq:T^*", 6 * (len(part1) + 1) <= 6 * case.params["r"] + k + 6, size=len(part1))
    ctx.settle(part1 | {u}, "BIbig:part1")
    ctx.seat_children(u, heavy, core.neighbor_bits(a, +1), "BIbig:part2")
    ctx.settle(set(range(t.n)) - leaves_u, "BIbig:Du")
    ctx.seat_children(u, leaves_u, core.neighbor_bits(a, +1), "BIbig:leaves")
    return dict(ctx.f)


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
    (``FALLBACK_BUDGET`` when None); ``budget-exhausted`` when it runs out."""
    stats = oracle_embed(d, t, FALLBACK_BUDGET if budget is None else budget)
    trace = [{"event": "oracle", "verdict": stats.verdict, "nodes": stats.nodes_expanded}]
    if stats.verdict == "Embeds":
        return EmbedOutcome(embedding=Embedding(map=stats.witness), trace=trace)
    kind = "not-contained" if stats.verdict == "NotContained" else "budget-exhausted"
    return EmbedOutcome(embedding=None, trace=trace, failure={"kind": kind})


def embed_antitree(d: Digraph, t: AntiTree, k: int | None = None, force_oracle: bool = False,
                   budget: int | None = None, known_free: bool = False) -> EmbedOutcome:
    """Decide and construct: certified refusal when a hypothesis fails, a
    validated embedding otherwise.  An internal assertion triggers the exact
    oracle so the outcome still reports ground truth, with the event logged;
    ``budget`` bounds its nodes (``FALLBACK_BUDGET`` when None).

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
    if k == 1:
        # a single arc needs no forbidden-subgraph hypothesis, and the choice
        # below is invariant under reversing host and tree together
        a, b = t.tree.arcs[0]
        aa, bb = min(a, b), max(a, b)
        cand = []
        for x, y in d.arcs:
            m = {a: x, b: y}
            cand.append((m[aa], m[bb]))
        xa, xb = min(cand)
        emb = {aa: xa, bb: xb}
        return EmbedOutcome(
            embedding=Embedding(map=emb), trace=trace, case=CaseTag("LowDelta", {"k": 1})
        )
    s = (k + 11) // 12
    free = True if known_free else is_k2s_free(d, s, prune=True)
    if free is not True:
        out = _refusal(
            "freeness",
            trace,
            s=s,
            witness={"a": free.a, "b": free.b, "sign_a": free.sign_a,
                     "sign_b": free.sign_b, "common": sorted(free.common)},
        )
        return _oracle_after(d, t, budget, trace) if force_oracle else out
    try:
        out = _dispatch(d, t, k, trace)
    except InternalAssertion as exc:
        trace.append({"event": "internal-assertion", "tag": exc.tag, "data": exc.data})
        return _oracle_after(d, t, budget, trace)
    if not validate_embedding(t, d, out.embedding.map):
        trace.append({"event": "internal-assertion", "tag": "final-validate"})
        return _oracle_after(d, t, budget, trace)
    return out


def _oriented(d: Digraph, t: AntiTree, trace: list) -> tuple[Digraph, AntiTree]:
    """The pair as given when the least-index maximum-degree vertex of t is an
    out-vertex, else both reversed (logged).  An embedding of the reversed
    tree into the reversed host is the same map, so this is the one place
    where orientation is chosen."""
    if t.sign[t.deg.index(max(t.deg))] > 0:
        return d, t
    trace.append({"event": "normalize", "reversed": True})
    return reverse(d), reverse_antitree(t)


def _dispatch(d: Digraph, t: AntiTree, k: int, trace: list) -> EmbedOutcome:
    d, t = _oriented(d, t, trace)
    stats = degree_stats(t)
    if stats.delta2 <= k // 4 + 2:
        if 4 * stats.delta <= k:
            trace.append({"event": "dispatch", "branch": "LowDelta"})
            core = prune_pseudo(d, k)
            out = embed_low_delta(core, t, k)
        else:
            trace.append({"event": "dispatch", "branch": "MidDelta"})
            out = embed_mid_delta(d, t, k)
    else:
        trace.append({"event": "dispatch", "branch": "BigDelta2"})
        out = embed_big_delta2(d, t, k)
    out.trace[:0] = trace
    return out
