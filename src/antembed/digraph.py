"""Core digraph representation and degree machinery.

Vertices are dense integers 0..n-1.  Arcs are ordered pairs (tail, head);
both (u, v) and (v, u) may coexist, loops and duplicates are rejected.

A digraph is held one way: as int bitmask rows (bit v of ``out_bits[u]`` is
set iff the arc u->v exists, ``in_bits`` is the transpose), which is what the
sign-typed neighborhoods N^{+/-}(v) of every algorithm are read from.  Beside
the rows it keeps two int columns, the tails and the heads of the arcs in
insertion order, only for that order: arc-list and JSON output round-trip and
error witnesses name the arc the input gave first.  The ``arcs`` tuple of
(tail, head) pairs is built from the columns on first read, so a host that is
only parsed, scanned, reversed and embedded into never allocates a pair per
arc.  ``neighbor_lists`` builds plain per-vertex lists in one pass over the
columns for the loops that walk every neighborhood of a large host, where
iterating the bits of each long row costs several times more.

A Digraph value is immutable and safe to share.  It carries a memo of derived
host work (its reversal, its degree profile, its side masks, its
pseudo-degree core, its selections and its convex tables, see
``memoized``), so reusing one value across embeds does that work once; no
memo entry ever references the digraph that holds it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from operator import eq, or_
from typing import Callable, Iterable, Iterator, Sequence

from .errors import AntembedError

Arc = tuple[int, int]


def bits_of(mask: int) -> Iterator[int]:
    """The set bits of a non-negative mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Digraph:
    __slots__ = ("n", "_tails", "_heads", "out_bits", "in_bits", "_arcs", "_hash", "_memo")

    def __init__(self, n: int, arcs: Iterable[Arc]):
        if n < 0:
            raise AntembedError("order must be non-negative")
        tails = []
        heads = []
        out_bits = [0] * n
        in_bits = [0] * n
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise AntembedError(f"arc ({u},{v}) out of range for order {n}")
            if u == v:
                raise AntembedError(f"loop at vertex {u} rejected")
            if (out_bits[u] >> v) & 1:
                raise AntembedError(f"duplicate arc ({u},{v}) rejected")
            tails.append(u)
            heads.append(v)
            out_bits[u] |= 1 << v
            in_bits[v] |= 1 << u
        self.n = n
        self._tails = tuple(tails)
        self._heads = tuple(heads)
        self.out_bits = tuple(out_bits)
        self.in_bits = tuple(in_bits)
        self._arcs = self._hash = self._memo = None

    @classmethod
    def _of(cls, n: int, tails: tuple, heads: tuple, out_bits: tuple, in_bits: tuple) -> "Digraph":
        """Wrap already consistent rows and arc columns without re-validating them."""
        d = object.__new__(cls)
        d.n, d._tails, d._heads, d.out_bits, d.in_bits = n, tails, heads, out_bits, in_bits
        d._arcs = d._hash = d._memo = None
        return d

    def __reduce__(self):
        # a pickled digraph leaves its memo and its arcs tuple behind; both are rebuilt on demand
        return Digraph._of, (self.n, self._tails, self._heads, self.out_bits, self.in_bits)

    @classmethod
    def from_bits(cls, n: int, out_bits: Sequence[int]) -> "Digraph":
        """Digraph from its out-rows; ``arcs`` comes out in (tail, head) order."""
        if len(out_bits) != n:
            raise AntembedError(f"{len(out_bits)} rows for order {n}")
        tails = []
        heads = []
        in_bits = [0] * n
        for u, row in enumerate(out_bits):
            if row >> n:  # also true for a negative row
                raise AntembedError(f"row {u} has a bit outside 0..{n - 1}")
            if (row >> u) & 1:
                raise AntembedError(f"loop at vertex {u} rejected")
            bit = 1 << u
            for v in bits_of(row):
                tails.append(u)
                heads.append(v)
                in_bits[v] |= bit
        return cls._of(n, tuple(tails), tuple(heads), tuple(out_bits), tuple(in_bits))

    @property
    def arcs(self) -> tuple[Arc, ...]:
        """The (tail, head) pairs in insertion order, built on first read."""
        if self._arcs is None:
            self._arcs = tuple(zip(self._tails, self._heads))
        return self._arcs

    # -- basic queries -------------------------------------------------

    def a(self) -> int:
        """Arc count a(D)."""
        return len(self._tails)

    @property
    def arc_set(self) -> frozenset[Arc]:
        """The arcs as a set, built on each call; membership tests use ``has_arc``."""
        return frozenset(self.arcs)

    def out_deg(self, v: int) -> int:
        return self.out_bits[v].bit_count()

    def in_deg(self, v: int) -> int:
        return self.in_bits[v].bit_count()

    def has_arc(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v < self.n and bool((self.out_bits[u] >> v) & 1)

    def neighbor_bits(self, v: int, sign: int) -> int:
        """Sign-typed neighborhood as a bitmask: N^+(v) for sign +1, N^-(v) for -1."""
        return self.out_bits[v] if sign > 0 else self.in_bits[v]

    def __eq__(self, other):
        return isinstance(other, Digraph) and self.n == other.n and self.out_bits == other.out_bits

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, self.out_bits))
        return self._hash

    def __repr__(self):
        return f"Digraph(n={self.n}, arcs={sorted(self.arcs)})"


_OWNER = object()  # stored in a memo entry in place of the value that holds the memo
_MISS = object()


def memoized(d, key: tuple, compute: Callable[[], object]):
    """``compute()``, run once for each ``key`` on ``d`` and kept in ``d``'s memo.

    ``d`` is any immutable value with a ``_memo`` slot that starts as None: a
    ``Digraph`` or an ``antitree.AntiTree``.  ``compute`` must depend only on
    ``d`` and ``key``, and must not hold ``d`` inside its result.  The memo is
    created on first use, so a value never asked for derived work carries
    none.  A result that is ``d`` is stored as a sentinel: no entry references
    its owner, so a dropped value is freed at once instead of waiting for a
    cycle collection.  A call that raises stores nothing and is recomputed
    next time.
    """
    if d._memo is not None:
        val = d._memo.get(key, _MISS)
        if val is not _MISS:
            return d if val is _OWNER else val
    val = compute()
    memo = d._memo
    if memo is None:
        memo = d._memo = {}
    memo[key] = _OWNER if val is d else val
    return val


def neighbor_lists(d: Digraph) -> tuple[list[list[int]], list[list[int]]]:
    """Out- and in-neighbor lists of every vertex, in insertion order.

    Not memoized: the lists are as large as the host and each caller reads
    them once per host (the clockwise tables are memoized themselves), so
    keeping them would only add memory."""
    outs = [[] for _ in range(d.n)]
    ins = [[] for _ in range(d.n)]
    for u, v in zip(d._tails, d._heads):
        outs[u].append(v)
        ins[v].append(u)
    return outs, ins


@dataclass(frozen=True)
class DegreeProfile:
    out_deg: tuple[int, ...]
    in_deg: tuple[int, ...]
    delta_plus_bar: int
    delta_minus_bar: int
    delta0_bar: int


def _pseudo(degs: Sequence[int]) -> int:
    positive = [d for d in degs if d > 0]
    return min(positive) if positive else 0


def degree_profile(d: Digraph) -> DegreeProfile:
    """Degree summary with the pseudo-semidegrees, memoized on ``d``.

    The minimum pseudo-out-degree is 0 for an arcless digraph, otherwise the
    least d such that every vertex has out-degree 0 or >= d.
    """
    return memoized(d, ("profile",), lambda: _degree_profile(d))


def _degree_profile(d: Digraph) -> DegreeProfile:
    outs = tuple(row.bit_count() for row in d.out_bits)
    ins = tuple(row.bit_count() for row in d.in_bits)
    dp = _pseudo(outs)
    dm = _pseudo(ins)
    return DegreeProfile(
        out_deg=outs,
        in_deg=ins,
        delta_plus_bar=dp,
        delta_minus_bar=dm,
        delta0_bar=min(dp, dm),
    )


def reverse(d: Digraph) -> Digraph:
    """Flip every arc; order preserved.  The rows swap and so do the tail and
    head columns, so nothing is re-checked and no arc is visited.

    The result is memoized on ``d`` (so ``reverse(d) is reverse(d)``), but not
    the other way round: ``reverse(reverse(d))`` is a new value equal to ``d``,
    because a back-link would make the two digraphs a reference cycle."""
    flipped = lambda: Digraph._of(d.n, d._heads, d._tails, d.in_bits, d.out_bits)
    return memoized(d, ("reverse",), flipped)


def side_bits(d: Digraph, sign: int) -> int:
    """Bitmask of the vertices whose ``sign`` row is non-empty: D+ (positive
    out-degree) for +1, D- (positive in-degree) for -1, the OR of the
    opposite rows, memoized on ``d``.  The one form of a host side; the
    vertex set of a subdigraph is the OR of the two."""
    return memoized(d, ("side", sign), lambda: reduce(or_, d.in_bits if sign > 0 else d.out_bits, 0))


# -- file formats ------------------------------------------------------


# The bulk format: every line is two ASCII-digit tokens.  The first line is
# matched; every later one is checked by searching for a line break not
# followed by such a line (or by the end), which keeps no state per line.
_FIRST_LINE = re.compile(r"[0-9]+[ \t]+[0-9]+(?:\n|\Z)")
_BAD_LINE = re.compile(r"\n(?!\Z|[0-9]+[ \t]+[0-9]+(?:\n|\Z))")


def parse_arclist(text: str):
    """Parse the arc-list format.

    First line ``n m`` (optionally ``n m root r``), then exactly m lines
    ``u v``; lines starting with ``#`` are ignored, and so are blank lines
    and whitespace around a line.  A token is whatever ``int`` reads (so
    ``+1`` and ``1_0`` are integers).  Returns (Digraph, root or None).  A
    missing or surplus arc line, a token that is not an integer, a root
    outside 0..n-1 and every arc ``Digraph`` rejects (out of range, loop,
    duplicate; the first such arc in input order is named) raise
    AntembedError.

    A text with no ``#`` whose header is ``n m`` in ASCII digits, and whose
    every following line is two ASCII-digit tokens separated by spaces or
    tabs (``\n`` line ends, the last one optional), is read in bulk: one
    ``split``, one ``int`` per distinct vertex name (a host names each vertex
    many times), then rows OR-ed from a ``1 << v`` list.  Any other text, and
    a bulk read that fails a check, goes through the per-line reader, so the
    result and every error message are the same either way.
    """
    parsed = _parse_bulk(text)
    return parsed if parsed is not None else _parse_lines(text)


def _parse_bulk(text: str):
    """(Digraph, None) for the plain format described in ``parse_arclist``,
    or None when the text is not in it or fails a check."""
    if not _FIRST_LINE.match(text) or _BAD_LINE.search(text):
        return None
    head, _, body = text.partition("\n")
    toks = body.split()
    try:
        n, m = map(int, head.split())
        val = {tok: int(tok) for tok in set(toks)}  # one int per distinct name
    except ValueError:  # a token longer than int's digit limit
        return None
    nums = list(map(val.__getitem__, toks))
    if len(nums) != 2 * m or (nums and max(nums) >= n):
        return None
    us, vs = nums[0::2], nums[1::2]
    if any(map(eq, us, vs)):
        return None
    bit = [0] * n
    for v in val.values():  # only the vertices the arcs name: n may be huge
        bit[v] = 1 << v
    out_bits = [0] * n
    in_bits = [0] * n
    for u, v in zip(us, vs):
        out_bits[u] |= bit[v]
        in_bits[v] |= bit[u]
    if sum(row.bit_count() for row in out_bits) != m:  # a duplicate arc
        return None
    return Digraph._of(n, tuple(us), tuple(vs), tuple(out_bits), tuple(in_bits)), None


def _parse_lines(text: str):
    """The per-line reader: any text ``parse_arclist`` accepts, and its errors."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise AntembedError("empty arc-list input")
    head = lines[0].split()
    if len(head) not in (2, 4) or (len(head) == 4 and head[2] != "root"):
        raise AntembedError(f"bad header line: {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
        root = int(head[3]) if len(head) == 4 else None
    except ValueError:
        raise AntembedError(f"non-integer token in header line: {lines[0]!r}") from None
    if root is not None and not 0 <= root < n:
        raise AntembedError(f"root {root} out of range for order {n}")
    if len(lines) - 1 != m:
        raise AntembedError(f"expected {m} arcs, found {len(lines) - 1}")
    arcs = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise AntembedError(f"bad arc line: {ln!r}")
        try:
            arcs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise AntembedError(f"non-integer token in arc line: {ln!r}") from None
    return Digraph(n, arcs), root


def to_arclist(d: Digraph, root: int | None = None) -> str:
    head = f"{d.n} {d.a()}" if root is None else f"{d.n} {d.a()} root {root}"
    return "\n".join([head] + [f"{u} {v}" for u, v in d.arcs]) + "\n"


def to_json_obj(d: Digraph) -> dict:
    return {"n": d.n, "arcs": [[u, v] for u, v in d.arcs]}


def from_json_obj(obj: dict) -> Digraph:
    return Digraph(int(obj["n"]), [(int(u), int(v)) for u, v in obj["arcs"]])
