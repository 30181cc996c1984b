"""Detection of the three forbidden orientations of K_{2,s}.

A digraph is free of them iff every sign-typed common neighborhood
N^{sa}(a) ∩ N^{sb}(b) of two distinct vertices has size at most s-1.

``is_k2s_free`` finds such pairs with saturating bit-sliced counters rather
than by probing every (a, b, sign-pair) triple.  For a fixed vertex a and
sign pair (sa, sb), w ∈ N^{sb}(b) iff b ∈ N^{-sb}(w), so folding the rows
N^{-sb}(w), w ∈ N^{sa}(a), into s bit counters marks exactly the vertices b
with |N^{sa}(a) ∩ N^{sb}(b)| >= s in the last counter.  Loops are rejected by
``Digraph``, so a and b never count towards their own common set.  Only a
vertex w with N^{-sb}(w) non-empty can be counted, so a pair whose a has fewer
than s such w in N^{sa}(a) is not folded.  For s <= 2 (s = ceil(k/12) for
every k up to 24) the two counters are locals, so a folded row costs one AND
and two ORs; for s >= 3 they are a list, at s-1 ANDs and s ORs a row.  The
cost is Σ_a Σ_pairs deg^{sa}(a) folded n-bit rows over the pairs not skipped:
on an incidence digraph, where points have only out-arcs and lines only
in-arcs, that is one pair per vertex, (+,+) at a point and (-,-) at a line.

At s = 2 (every k from 13 to 24) the two sides of a K_{2,2} have the same
size, so the (-,-) pair is the (+,+) pair seen from the other side: a and b
with two common out-neighbours w1, w2 are common in-neighbours of w1 and w2.
A (-,-) witness (a, b) with common set {w1, w2} is thus a (+,+) witness
(w1, w2) with common set {a, b}, and a host with no (+,+) witness has no
(-,-) witness either.  So the scan at s = 2 first folds (+,+), (+,-) and
(-,+) only, which halves a free scan of an incidence digraph, and folds
(-,-) in a second pass only when the first found a witness, at a1: over
a <= a1 alone, since a later a cannot win.  At s = 1 an in-star is not an
out-star, and at s >= 3 the two sides differ in size, so there one pass
folds all four pairs.  The witness returned is the one the exhaustive probe
in (a, b, sign pair) order finds first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .digraph import Digraph, bits_of, neighbor_lists, side_bits
from .errors import AntembedError

_SIGN_PAIRS = ((1, 1), (-1, -1), (1, -1), (-1, 1))
# The scan's passes, each a tuple of (place in _SIGN_PAIRS, sa, sb).  At s = 2
# the first pass leaves out (-,-), the (+,+) pair seen from the other side:
# the second pass folds it only when the first found a witness.
_PLACED = tuple((place, sa, sb) for place, (sa, sb) in enumerate(_SIGN_PAIRS))
_PASSES = (_PLACED,)
_PASSES_S2 = (_PLACED[:1] + _PLACED[2:], _PLACED[1:2])


def common_neighborhood(d: Digraph, a: int, sign_a: int, b: int, sign_b: int) -> set[int]:
    """N^{sign_a}(a) ∩ N^{sign_b}(b), excluding a and b themselves."""
    if a == b:
        raise AntembedError("common neighborhood needs two distinct vertices")
    bits = d.neighbor_bits(a, sign_a) & d.neighbor_bits(b, sign_b)
    bits &= ~((1 << a) | (1 << b))
    return set(bits_of(bits))


@dataclass(frozen=True)
class ForbiddenWitness:
    a: int
    b: int
    sign_a: int
    sign_b: int
    common: frozenset[int]

    def to_json(self) -> dict:
        """The witness as a JSON object, keys in the order a, b, sign_a,
        sign_b, common, the common set sorted."""
        return {"a": self.a, "b": self.b, "sign_a": self.sign_a, "sign_b": self.sign_b, "common": sorted(self.common)}

    @classmethod
    def from_json(cls, obj: dict) -> ForbiddenWitness:
        """The inverse of ``to_json``."""
        return cls(obj["a"], obj["b"], obj["sign_a"], obj["sign_b"], frozenset(obj["common"]))

    def revalidate(self, d: Digraph, s: int) -> bool:
        if self.a == self.b or len(self.common) != s:
            return False
        cn = common_neighborhood(d, self.a, self.sign_a, self.b, self.sign_b)
        return self.common <= cn and self.a not in self.common and self.b not in self.common


def is_k2s_free(d: Digraph, s: int, prune: bool = False):
    """True iff no sign-typed common neighborhood of size s exists.

    Returns True or a ForbiddenWitness with exactly s common vertices: the
    first (a, b, sign pair) with a < b in lexicographic order of a, then b,
    then the pair's place in ``_SIGN_PAIRS``, whose common set holds the s
    lowest vertices of N^{sign_a}(a) ∩ N^{sign_b}(b).  This is the witness an
    exhaustive probe of all triples in that order returns.

    For each a and each sign pair (sa, sb) with deg^{sa}(a) >= s, b = a+1 is
    probed directly first: a hit there cannot be beaten by a later pair, so
    the scan of a dense host ends at once.  Otherwise the pair is skipped when
    fewer than s vertices w of N^{sa}(a) have N^{-sb}(w) non-empty, as no b
    can share s of them with a; else the rows N^{-sb}(w), w ∈ N^{sa}(a), are
    folded into s saturating counters, and the last one, cut to b > a+1,
    marks every b sharing at least s such neighbors with a.  The least b over
    the pairs wins, ties going to the earlier pair.  The cost is Σ_a
    Σ_pairs deg^{sa}(a) folded rows over the pairs not skipped, each one AND
    and two ORs for s <= 2 and s-1 ANDs and s ORs for s >= 3.

    At s = 2 the first pass folds every pair but (-,-), and a host it finds
    no witness in is free: a (-,-) witness (a, b) with common set {w1, w2} is
    the (+,+) witness (w1, w2) with common set {a, b}.  When the first pass
    stops at a1, a second one folds (-,-) alone for a <= a1, on the same
    neighbour lists, and the lesser witness in (a, b, place) order wins, so
    a witness scan folds about what one four-pair pass would.  Every other s
    folds the four pairs in one pass.

    ``prune`` changes neither the work nor the outcome: this scan always skips
    the pairs with a sign-degree below s that the exhaustive probe it replaced
    skipped under it.  It stays because ``perfbench/workloads.py`` passes it.
    """
    if s < 1:
        raise AntembedError("s must be positive")
    n = d.n
    # indexed by sign: [1] is the out-side, [-1] the in-side
    bits = (None, d.out_bits, d.in_bits)
    # lists[sg][a]: N^{sg}(a) as a list, walked when a pair with sa = sg is
    # first folded at a and shared by every later fold of that row, the
    # second pass's included.  A scan that ends at a small a walks only the
    # rows it folds.  Walking every row so costs about twice one pass over the
    # arc columns that builds lists for the whole host, so those lists take
    # over once the walked rows hold a(D)/16 arcs, which bounds what a free
    # scan pays extra.
    lists = (None, [None] * n, [None] * n)
    walked = 0
    steps = range(s - 1, 0, -1)
    # live[sg]: the vertices w with N^{sg}(w) non-empty, indexed like ``bits``:
    # the side masks ``side_bits(d, sg)``.  A common neighbour w of a and b
    # has b ∈ N^{-sb}(w), so w ∈ live[-sb].  Read at the first fold: a scan
    # that ends at its first probe (most scans of a small dense host) never
    # pays for it.
    live = None
    hit = None  # (a, b, place of the pair in _SIGN_PAIRS), least so far
    stop = n
    for pairs in _PASSES_S2 if s == 2 else _PASSES:
        for a in range(stop):
            best = None
            for place, sa, sb in pairs:
                if bits[sa][a].bit_count() < s:
                    continue
                if a + 1 < n and (bits[sa][a] & bits[sb][a + 1]).bit_count() >= s:
                    best = (a + 1, place)
                    break
                if live is None:
                    live = (None, side_bits(d, 1), side_bits(d, -1))
                if (bits[sa][a] & live[-sb]).bit_count() < s:
                    continue
                nbrs = lists[sa][a]
                if nbrs is None:
                    if walked > d.a() >> 4:
                        lists = (None, *neighbor_lists(d))
                        nbrs = lists[sa][a]
                    else:
                        nbrs = lists[sa][a] = list(bits_of(bits[sa][a]))
                        walked += len(nbrs)
                rows = bits[-sb]
                if s <= 2:  # s = ceil(k/12) for every k up to 24: the counters in locals
                    one = two = 0
                    for w in nbrs:
                        row = rows[w]
                        two |= one & row
                        one |= row
                    top = two if s == 2 else one
                else:
                    c = [0] * s
                    for w in nbrs:
                        row = rows[w]
                        for j in steps:
                            c[j] |= c[j - 1] & row
                        c[0] |= row
                    top = c[-1]
                hits = top >> (a + 2)
                if hits:
                    b = a + 1 + (hits & -hits).bit_length()
                    if best is None or b < best[0]:
                        best = (b, place)
            if best is not None:
                hit = (a, *best) if hit is None else min(hit, (a, *best))
                stop = a + 1
                break
        if hit is None:
            return True
    a, b, place = hit
    sa, sb = _SIGN_PAIRS[place]
    common = bits[sa][a] & bits[sb][b]  # no loops, so a and b are not in it
    picked = frozenset(islice(bits_of(common), s))
    return ForbiddenWitness(a=a, b=b, sign_a=sa, sign_b=sb, common=picked)
