"""Embeddings: injective arc-preserving vertex maps, with standalone validation."""

from __future__ import annotations

from dataclasses import dataclass

from .antitree import AntiTree
from .digraph import Digraph


@dataclass(frozen=True)
class Embedding:
    map: dict[int, int]


def validate_embedding(t: AntiTree, d: Digraph, mapping: dict[int, int]) -> bool:
    """Injectivity plus arc preservation on every tree arc, read from the host's
    rows and the tree's arc columns (a fresh tree builds no pairs); vertex range checked."""
    if set(mapping.keys()) != set(range(t.n)):
        return False
    f = list(map(mapping.__getitem__, range(t.n)))
    if len(set(f)) != len(f) or (f and (min(f) < 0 or max(f) >= d.n)):
        return False
    rows = d.out_bits
    return all(rows[f[u]] >> f[v] & 1 for u, v in zip(t.tree._tails, t.tree._heads))

