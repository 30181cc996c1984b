"""Embeddings: injective arc-preserving vertex maps, with standalone validation."""

from __future__ import annotations

from dataclasses import dataclass

from .antitree import AntiTree
from .digraph import Digraph


@dataclass(frozen=True)
class Embedding:
    map: dict[int, int]


def validate_embedding(t: AntiTree, d: Digraph, mapping: dict[int, int]) -> bool:
    """Injectivity plus arc preservation on every tree arc; vertex range checked."""
    if set(mapping.keys()) != set(range(t.n)):
        return False
    vals = list(mapping.values())
    if len(set(vals)) != len(vals):
        return False
    if any(not (0 <= h < d.n) for h in vals):
        return False
    return all(d.has_arc(mapping[u], mapping[v]) for u, v in t.tree.arcs)

