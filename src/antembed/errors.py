"""Exception types shared across the package."""

from __future__ import annotations


class AntembedError(Exception):
    """Base class for all package errors."""


class NotATree(AntembedError):
    """The digraph's underlying graph is not a tree (cycle, disconnected, multi-edge)."""


class NotAntidirected(AntembedError):
    """A directed path of length two was found.

    The offending triple (x, v, y) with arcs x->v->y is stored in ``witness``.
    """

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"directed path of length two: {witness[0]}->{witness[1]}->{witness[2]}")


class NotACaterpillar(AntembedError):
    """The tree is not a caterpillar; ``witness`` is a vertex at distance >= 2 from a longest path."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"vertex {witness} is at distance >= 2 from every longest path")


class HypothesisViolated(AntembedError):
    """A stated precondition (density, freeness, sign balance, ...) does not hold."""

    def __init__(self, reason, **data):
        self.reason = reason
        self.data = data
        super().__init__(reason if not data else f"{reason}: {data}")


class InternalAssertion(AntembedError):
    """A step the underlying argument guarantees has failed; indicates a bug, not
    a mathematical impossibility, whenever the full hypotheses hold.

    ``tag`` names the violated checkpoint and ``data`` its measured values;
    the decision log stays on the trace the embedder passes down.
    """

    def __init__(self, tag, **data):
        self.tag = tag
        self.data = data
        super().__init__(f"internal assertion failed at [{tag}] {data if data else ''}")
