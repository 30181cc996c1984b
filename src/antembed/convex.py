"""Convex drawings, good arcs, and constructive caterpillar embedding.

A convex digraph is a digraph with its vertices on a circle.  A host arc is
*good* for a caterpillar when some embedding maps the final spine edge onto it
and keeps one side of that chord (chosen by the parity of the spine length)
free of image vertices.

``good_arcs`` runs the inductive construction: peel the caterpillar one spine
vertex at a time from the far end, and at each stage drop the m extremal
("nasty") sign-arcs of every anchor and shift the survivors m positions along
the anchor's clockwise arc order.  The construction certifies at least
a(D) - (k-1)n good arcs, and the variant accounting gives the
a(D) - (|T+|-1)|D-| - (|T-|-1)|D+| bound used by the sign-balanced embedder.

Each stage is one bit set over the host arcs, held in an anchor-major layout.
The layout of sign s has one block per vertex x, blocks in vertex order, and
block x holds ``cw_list(x, s)`` in clockwise order: bit ``starts[x] + i`` is
the arc between x and its i-th clockwise s-neighbor.  A stage anchored at
sign s is then one shift of the whole set, ``(cur & mask) >> m`` when the new
spine prefix has even length and ``(cur & mask) << m`` when it is odd.  The
mask clears the nasty positions of every block (its first m, or its last m);
it depends only on the block lengths and on (s, m, parity), and is kept per
convex digraph.  Consecutive spine vertices have opposite signs, so between
stages the set moves from the out-major layout to the in-major one or back:
its bit string, read least significant bit first, goes through one
``operator.itemgetter`` of the permutation itself.  The permutation is
counted out in one pass over the in-blocks in clockwise position order: when
in-arc (u, y) is met, the arcs of u met before it give y's rank in u's
position-sorted out-list, and u's clockwise list is that list rotated by the
offset r_u the tables keep, so the arc sits at index (rank - r_u) mod deg+(u)
of u's out-block.

No arc stores a predecessor: the arc one stage back sits at clockwise index
idx + m or idx - m in the same block.  Walking an arc back stage by stage
stays inside its blocks exactly when the arc is good, since every arc is
alive at the first stage.  ``reconstruct_witness`` replays a witness in that
same walk: each stage reads the anchor's image and the new spine vertex's
image from the arc, and the m - 1 positions it steps over seat the anchor's
peeled leaves.

The construction depends only on the convex digraph and the step tuple, not
on the rest of the tree, so it is memoized in the digraph's ``_cache``: each
stage's bit set under its step prefix ``steps[:i]`` (one a(D)-bit int per
distinct prefix, about 2.1 KB on PG(2,25)) and the least good arc of each
order under ``("least", sign, steps)``.  Trees that share a prefix share
its stages, and a tree seen before runs no shift and no relayout.  A
caterpillar inside a tree (the B-I double broom, or the case A-II broom with
padding leaves) runs on its own decomposition, in the tree's labels.

The construction commutes with reversal: on the reversed host and tree the
steps flip sign, the sign s layout becomes the -s one with every arc
reversed, so each stage is the same bit set, the good arcs are the reversed
ones, and each replays to the same map.  The sign-balanced lemma's "or both
reversed" case therefore runs on the pair as given; only the tie-break
differs, so a pair that leans to + takes its least good arc in (head, tail)
order, the reversed pair's least arc.

Steps return maps; ``checked_witness`` checks each witness once with its
caller's check: the caller's pair, or the broom's arcs in its tree.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import accumulate, chain, compress
from operator import itemgetter

from .antitree import AntiTree, SpineDecomposition, caterpillar_decompose
from .digraph import Digraph, bits_of, memoized, neighbor_lists, side_bits
from .embedding import Embedding, validate_embedding
from .errors import AntembedError, HypothesisViolated, InternalAssertion

Arc = tuple[int, int]

_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


class ConvexDigraph:
    """A digraph plus a circular (clockwise) vertex order.

    The default order (vertex ids ascending), its positions and its tables
    and layouts are memoized on the digraph; an explicit order builds its own.
    Tables indexed by sign hold the out-side at [1] and the in-side at [-1];
    ``_rot`` holds the rotation of each out-list, which the relayout
    permutation reads.  ``_cache`` is filled on first use, so it too is per
    digraph for the default order and per instance otherwise.  It holds the
    stage mask of each (sign, m, even) under that key (one a(D)-bit int),
    under each sign the getter that moves a set, least significant bit
    first, into that sign's layout (a(D) indices), the
    good-arc stage of each step prefix under that prefix (one a(D)-bit int)
    and the least good arc of each step tuple, in the order ``sign`` picks,
    under ("least", sign, steps) (one arc)."""

    __slots__ = ("d", "order", "pos", "_cw", "_rot", "_cache")

    def __init__(self, d: Digraph, order=None):
        self.d = d
        if order is None:
            tables = memoized(d, ("convex",), lambda: _convex_tables(d, None))
            self.order = tables[0]
        else:
            self.order = tuple(order)
            if sorted(self.order) != list(range(d.n)):
                raise AntembedError("order must be a permutation of the vertex set")
            pos = [0] * d.n
            for i, v in enumerate(self.order):
                pos[v] = i
            tables = _convex_tables(d, tuple(pos))
        self.pos, self._cw, self._rot, self._cache = tables

    def cw_list(self, x: int, sign: int) -> tuple[int, ...]:
        """Sign-arcs of x ordered clockwise starting just after x."""
        return self._cw[sign][x]

    def cw_index(self, x: int, sign: int, w: int) -> int:
        """The index of w in ``cw_list(x, sign)``; AntembedError when w is not
        a sign-neighbor of x."""
        pos, n, px, lst = self.pos, self.d.n, self.pos[x], self._cw[sign][x]
        i = bisect_left(lst, (pos[w] - px) % n, key=lambda v: (pos[v] - px) % n)
        if i == len(lst) or lst[i] != w:
            raise AntembedError(f"{w} is not a {sign:+d}-neighbor of {x}")
        return i

    def interval(self, a: int, b: int) -> set[int]:
        """Vertices strictly after a and strictly before b, clockwise; every
        vertex but a when b is a."""
        n, order = self.d.n, self.order
        if not (0 <= a < n and 0 <= b < n):
            raise AntembedError(f"interval ({a}, {b}) names a vertex outside 0..{n - 1}")
        i, j = self.pos[a] + 1, self.pos[b]
        return set(order[i:j]) if i <= j else set(order[i:] + order[:j])

    def _mask(self, sign: int, m: int, even: bool) -> int:
        """The positions of the sign layout that survive a stage shifting by m:
        all but the first m of each block when ``even``, all but the last m
        otherwise."""
        key = (sign, m, even)
        mask = self._cache.get(key)
        if mask is None:
            mask, low = 0, m if even else 0
            for lst in reversed(self._cw[sign]):
                mask <<= len(lst)
                if len(lst) > m:
                    mask |= ((1 << (len(lst) - m)) - 1) << low
            self._cache[key] = mask
        return mask

    def _relayout(self, bits: int, sign: int) -> int:
        """A set of arcs moved from the other sign's layout into the sign layout."""
        if not bits:
            return 0
        into = self._cache.get(sign)
        if into is None:
            self._cache[1], self._cache[-1] = self._relayout_getters()
            into = self._cache[sign]
        return int("".join(into(format(bits, f"0{self.d.a()}b")[::-1]))[::-1], 2)

    def _layout_arcs(self, sign: int) -> list[Arc]:
        """The arcs of the sign layout in position order."""
        if sign > 0:
            return [(x, w) for x, lst in enumerate(self._cw[1]) for w in lst]
        return [(u, y) for y, lst in enumerate(self._cw[-1]) for u in lst]

    def _relayout_getters(self):
        """The getters moving a set's bit string, least significant bit first,
        into the out-major and into the in-major layout: the itemgetters of
        ``from_in`` (the in-major position of the arc at each out-major one)
        and of its inverse ``from_out``.  One pass over the in-blocks in
        clockwise position order writes both: tail u's out-arcs are met in
        position order of their heads, that is at u's clockwise indices
        deg+(u) - r_u, ..., deg+(u) - 1, 0, 1, ..."""
        cw_out, cw_in = self._cw[1:]
        nxt = [chain(range(e - r, e), range(e - len(lst), e - r)).__next__
               for e, r, lst in zip(accumulate(map(len, cw_out)), self._rot, cw_out)]
        starts = list(accumulate(map(len, cw_in), initial=0))
        from_out, from_in = [0] * starts[-1], [0] * starts[-1]
        for y in self.order:
            for q, u in enumerate(cw_in[y], starts[y]):
                from_out[q] = p = nxt[u]()
                from_in[p] = q
        return itemgetter(*from_in), itemgetter(*from_out)


def _convex_tables(d: Digraph, pos: tuple[int, ...] | None):
    """The positions (the vertex ids when ``pos`` is None, the default order,
    whose lists sort without a key), the clockwise tables of both signs,
    indexed by sign, the rotation r of each out-list (the position-sorted
    list's [r:] + [:r], with 0 <= r <= deg) and an empty cache."""
    at = None if pos is None else pos.__getitem__
    pos = tuple(range(d.n)) if pos is None else pos
    tables, rots = [None], []
    for lists in neighbor_lists(d):
        cw, rot = [], [0] * len(lists)
        for x, lst in enumerate(lists):
            if len(lst) > 1:
                # by position, then rotated to start just after x: the order of (pos[w] - pos[x]) % n
                lst.sort(key=at)
                rot[x] = i = bisect_right(lst, pos[x], key=at)
                lst = lst[i:] + lst[:i]
            cw.append(tuple(lst))
        tables.append(tuple(cw))
        rots.append(rot)
    return pos, tuple(tables), rots[0], {}


@dataclass(eq=False)
class GoodArcTable:
    """The staged good-arc construction of one caterpillar on one convex digraph.

    ``steps[i]`` is (anchor sign, shift m, new prefix even) of the stage that
    makes the good set of the spine prefix of length i+3.  ``stages[i]`` is
    the good set of the prefix of length i+2 as a bit set in the layout of
    its stage's anchor sign (``stages[0]``, every arc, in the layout of the
    first stage, or the out-major one when there is none); ``count`` is the
    size of the last.  ``dec`` may span a caterpillar inside t, in t's
    labels, with extra leaves labelled from t.n.  The two count bounds are
    computed on each read (each is read once per table, or twice on
    failure), from the steps: a stage anchored at sign s adds m arcs and m
    vertices of sign -s."""

    dec: SpineDecomposition = field(repr=False)
    c: ConvexDigraph = field(repr=False)
    t: AntiTree = field(repr=False)
    steps: tuple[tuple[int, int, bool], ...]
    stages: tuple[int, ...] = field(repr=False)
    count: int

    @property
    def lemma8_bound(self) -> int:
        """a(D) - (k-1)n."""
        d = self.c.d
        return d.a() - sum(m for _, m, _ in self.steps) * d.n

    @property
    def lemma12_bound(self) -> int:
        """a(D) - (|T+|-1)|D-| - (|T-|-1)|D+|."""
        d = self.c.d
        tplus = sum(m for s, m, _ in self.steps if s < 0)
        tminus = sum(m for s, m, _ in self.steps if s > 0)
        return d.a() - tplus * side_bits(d, -1).bit_count() - tminus * side_bits(d, 1).bit_count()

    @cached_property
    def stage_arcs(self) -> "_StageArcs":
        """stage_arcs[i] is the frozenset of the good arcs of the spine prefix
        of length i+2 (every host arc at the first stage).  Each stage is
        decoded from its bit set when first read; embedding reads none."""
        return _StageArcs(self)


class _StageArcs(Sequence):
    """The arc sets of a GoodArcTable's stages, each decoded on first read."""

    __slots__ = ("_table", "_sets")

    def __init__(self, table: GoodArcTable):
        self._table = table
        self._sets: list[frozenset[Arc] | None] = [None] * len(table.stages)

    def __len__(self) -> int:
        return len(self._sets)

    def __getitem__(self, i: int) -> frozenset[Arc]:
        i = range(len(self._sets))[i]
        if self._sets[i] is None:
            self._sets[i] = self._decode(i)
        return self._sets[i]

    def _decode(self, i: int) -> frozenset[Arc]:
        table = self._table
        if i == 0:
            return table.c.d.arc_set
        arcs = table.c._layout_arcs(table.steps[i - 1][0])
        # one byte per position, 1 where the arc is in the set
        flags = format(table.stages[i], f"0{len(arcs)}b")[::-1].encode().translate(_BIT_BYTES)
        return frozenset(compress(arcs, flags))


def _run_dp(c: ConvexDigraph, t: AntiTree, dec: SpineDecomposition) -> GoodArcTable:
    """The staged construction, one whole-set shift per stage, each stage
    read from ``c._cache`` under its step prefix and computed only on a miss.

    A shift moves every surviving arc inside its own block, so no two arcs
    ever land on one position: each stage's shift is injective by
    construction and needs no check."""
    steps = tuple(
        (t.sign[p], 1 + len(dec.leaves_at.get(p, ())), j % 2 == 1)
        for j, p in enumerate(dec.spine[1:-1], start=2)
    )
    layout = steps[0][0] if steps else 1
    cur = (1 << c.d.a()) - 1
    stages = [cur]
    memo = c._cache
    for i, (sign, m, even) in enumerate(steps, start=1):
        nxt = memo.get(steps[:i])
        if nxt is None:
            if sign != layout:
                cur = c._relayout(cur, sign)
            cur = cur & c._mask(sign, m, even)
            nxt = memo[steps[:i]] = cur >> m if even else cur << m
        cur, layout = nxt, sign
        stages.append(cur)
    return GoodArcTable(dec=dec, c=c, t=t, steps=steps, stages=tuple(stages), count=cur.bit_count())


def good_arcs(c: ConvexDigraph, t: AntiTree) -> GoodArcTable:
    """Good-arc table with the a(D) - (k-1)n count guarantee asserted."""
    table = _run_dp(c, t, caterpillar_decompose(t))
    if table.count < table.lemma8_bound:
        raise InternalAssertion("good-count", have=table.count, need=table.lemma8_bound)
    return table


def good_arcs_mindeg(c: ConvexDigraph, t: AntiTree, dec: SpineDecomposition | None = None) -> GoodArcTable:
    """Same construction, with the |T+|/|T-| versus |D-|/|D+| count asserted,
    for t or for the caterpillar inside it that ``dec`` spans.  ``dec`` may
    hang extra leaves, labelled from t.n, off its spine (the padded case A-II
    broom): the construction reads t's signs on the spine only, and the
    witness maps those labels too."""
    table = _run_dp(c, t, caterpillar_decompose(t) if dec is None else dec)
    if table.count < table.lemma12_bound:
        raise InternalAssertion("good-count-mindeg", have=table.count, need=table.lemma12_bound)
    return table


def _least_good_arc(table: GoodArcTable, sign: int = 1) -> Arc:
    """The least good arc in (tail, head) order, or in (head, tail) order
    when ``sign`` is -1: the least block of the sign layout, then the least
    neighbor in it.  Read from the final bit set once per sign and step tuple."""
    c, key = table.c, ("least", sign, table.steps)
    arc = c._cache.get(key)
    if arc is None:
        bits = table.stages[-1]
        if (table.steps[-1][0] if table.steps else 1) != sign:
            bits = c._relayout(bits, sign)
        lists = c._cw[sign]
        starts = list(accumulate(map(len, lists), initial=0))
        x = bisect_right(starts, (bits & -bits).bit_length() - 1) - 1
        lst = lists[x]
        w = min(lst[i] for i in bits_of((bits >> starts[x]) & ((1 << len(lst)) - 1)))
        arc = c._cache[key] = (x, w) if sign > 0 else (w, x)
    return arc


def reconstruct_witness(c: ConvexDigraph, t: AntiTree, table: GoodArcTable, final_arc: Arc) -> dict[int, int]:
    """Replay one good arc into a full embedding, in one backward walk.

    At each stage, last first, the arc joins the anchor's image x to the new
    spine vertex's image z, at clockwise index i of x's list; the arc one
    stage back joins x to index i + m (even) or i - m, and the m - 1
    positions strictly between go to the anchor's peeled leaves, least
    position first.  An index outside x's list means the arc is not good.
    The map lists the two start vertices, then each stage's spine vertex and
    leaves, first stage first.  An arc that is not in the host or not good is
    an ``AntembedError``.
    """
    if not c.d.has_arc(*final_arc):
        raise AntembedError(f"arc {final_arc} is not in the host")
    spine, leaves_at = table.dec.spine, table.dec.leaves_at
    arc, placed = final_arc, []
    for (sign, m, even), p, q in reversed(list(zip(table.steps, spine[1:], spine[2:]))):
        x, z = arc if sign > 0 else arc[::-1]
        lst = c.cw_list(x, sign)
        i = c.cw_index(x, sign, z)
        w = i + m if even else i - m
        if not 0 <= w < len(lst):
            raise AntembedError(f"arc {final_arc} is not a good arc")
        placed.append((q, z, zip(leaves_at.get(p, ()), lst[i + 1 : w] if even else lst[w + 1 : i])))
        arc = (x, lst[w]) if sign > 0 else (lst[w], x)
    p1, p2 = spine[:2]
    f = dict(zip((p2, p1) if t.sign[p2] > 0 else (p1, p2), arc))
    for q, z, leaves in reversed(placed):
        f[q] = z
        f.update(leaves)
    return f


def check_side_condition(c: ConvexDigraph, mapping: dict[int, int], spine) -> bool:
    """The parity-appropriate side of the final chord holds no image vertex:
    no image lies strictly between its ends a and b, clockwise from a."""
    a, b = mapping[spine[-1]], mapping[spine[-2]]
    if len(spine) % 2 == 0:
        a, b = b, a
    pos, n = c.pos, c.d.n
    span = (pos[b] - pos[a]) % n
    return not any(0 < (pos[h] - pos[a]) % n < span for h in mapping.values())


def checked_witness(table: GoodArcTable, arc: Arc, holds: Callable[[dict[int, int]], bool]) -> dict[int, int]:
    """The replay of ``arc``, checked once by the caller's ``holds`` and by
    its side condition."""
    mapping = reconstruct_witness(table.c, table.t, table, arc)
    if not holds(mapping):
        raise InternalAssertion("witness-invalid", arc=arc)
    if not check_side_condition(table.c, mapping, table.dec.spine):
        raise InternalAssertion("witness-side", arc=arc)
    return mapping


def embed_caterpillar(d: Digraph, t: AntiTree, order=None) -> Embedding:
    """Embed a k-arc antidirected caterpillar into any digraph with more than
    (k-1)n arcs, via the convex good-arc construction."""
    k = t.k
    if d.a() <= (k - 1) * d.n:
        raise HypothesisViolated("density", arcs=d.a(), need=(k - 1) * d.n + 1)
    table = good_arcs(ConvexDigraph(d, order), t)
    return Embedding(map=checked_witness(table, _least_good_arc(table), partial(validate_embedding, t, d)))


def sign_balanced_witness(d: Digraph, t: AntiTree, sides: tuple[int, int], holds: Callable[[dict[int, int]], bool],
                          dec: SpineDecomposition | None = None, order=None) -> dict[int, int]:
    """The sign-balanced construction's witness for the caterpillar with
    ``sides`` = (|T+|, |T-|): t, or the one inside t that ``dec`` spans.

    Needs 2 a(D) > (k-1)(|D+| + |D-|) and matching sign balance: |D+| <= |D-|
    with |T+| <= |T-|, or both reversed; HypothesisViolated ``density`` or
    ``sign-balance`` otherwise, before t is decomposed.  A pair that leans to
    + takes the least good arc in (head, tail) order, which is the reversed
    pair's least arc, and the same map.
    """
    dp, dm = side_bits(d, 1).bit_count(), side_bits(d, -1).bit_count()
    tp, tm = sides
    if 2 * d.a() <= (tp + tm - 2) * (dp + dm):
        raise HypothesisViolated("density", arcs=d.a(), sides=(dp, dm), k=tp + tm - 1)
    sign = 1 if dp <= dm and tp <= tm else -1  # -1: the pair leans to +
    if sign < 0 and not (dp >= dm and tp >= tm):
        raise HypothesisViolated("sign-balance", d_sides=(dp, dm), t_sides=(tp, tm))
    table = good_arcs_mindeg(ConvexDigraph(d, order), t, dec)
    return checked_witness(table, _least_good_arc(table, sign), holds)


def embed_caterpillar_mindeg(d: Digraph, t: AntiTree, order=None) -> Embedding:
    """Sign-balanced caterpillar embedding: ``sign_balanced_witness`` on t's
    own decomposition, validated on the pair given."""
    tp = t.sign.count(1)
    return Embedding(map=sign_balanced_witness(d, t, (tp, t.n - tp), partial(validate_embedding, t, d), order=order))
