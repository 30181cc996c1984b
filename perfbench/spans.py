"""Spans at the library's layer boundaries, recorded from outside the library.

``Tracer.install`` replaces each public function listed in ``LAYERS`` with a
timing wrapper in every ``antembed`` module that holds it, because callers
bind names at import (``tree_embedder.select_subdigraph`` is the same object
as ``subdigraph.select_subdigraph`` until one of them is replaced).  The
``ConvexDigraph`` constructor is wrapped on the class.

A span is ``[name, start, end, parent, op, tag]``: ``parent`` is the index of
the enclosing span (-1 at top level), ``op`` the benchmark op that caused it
(-1 during set-up) and ``tag`` a small summary of the result (branch, verdict,
node count).  Spans stay in memory until ``write`` at the end of a run.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

BRANCHES = ("LowDelta", "MidDelta", "BroomA", "BroomB_I", "BroomB_II")


def _embed_tag(args, res):
    return [res.case.branch if res.case else None, len(res.assertion_events())]


# (span name, module, function, tagger): the layer boundaries that are timed.
LAYERS = (
    ("subdigraph.select", "subdigraph", "select_subdigraph", None),
    ("subdigraph.prune", "subdigraph", "prune_pseudo",
     lambda args, res: "noop" if res.a() == args[0].a() else "cut"),
    ("convex.mindeg", "convex", "embed_caterpillar_mindeg", None),
    ("convex.embed_cat", "convex", "embed_caterpillar", None),
    ("convex.good_arcs", "convex", "good_arcs", None),
    ("convex.good_arcs", "convex", "good_arcs_mindeg", None),
    ("digraph.reverse", "digraph", "reverse", None),
    ("digraph.parse", "digraph", "parse_arclist", None),
    ("freeness.scan", "freeness", "is_k2s_free",
     lambda args, res: "free" if res is True else "witness"),
    ("antitree.decompose", "antitree", "caterpillar_decompose", None),
    ("antitree.validate", "antitree", "validate_antitree", None),
    ("oracle_gen.oracle", "oracle_gen", "oracle_embed", lambda args, res: res.nodes_expanded),
    ("oracle_gen.brute_good_arcs", "oracle_gen", "brute_good_arcs", None),
    ("tree_embedder.embed", "tree_embedder", "embed_antitree", _embed_tag),
    ("tree_embedder.fallback", "tree_embedder", "oracle_fallback", None),
    ("embedding.validate", "embedding", "validate_embedding", None),
    ("cli.main", "cli", "main", None),
)

# Timed layers, reported as <name>_s and <name>_calls; fallbacks are only counted.
TIMED = tuple(dict.fromkeys(n for n, *_ in LAYERS if n != "tree_embedder.fallback")) + ("convex.build",)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1

    def wrap(self, name, fn, tagger=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                res = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if tagger is not None:
                rec[5] = tagger(args, res)
            return res

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        """Wrap every layer boundary in every loaded antembed module."""
        mods = [m for k, m in list(sys.modules.items()) if k == "antembed" or k.startswith("antembed.")]
        for name, modname, attr, tagger in LAYERS:
            fn = getattr(sys.modules["antembed." + modname], attr)
            wrapped = self.wrap(name, fn, tagger)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapped)
        convex_cls = sys.modules["antembed.convex"].ConvexDigraph
        convex_cls.__init__ = self.wrap("convex.build", convex_cls.__init__)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, separators=(",", ":")))
                fh.write("\n")

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer totals over the spans of ops (set-up spans excluded).

        A span nested in a span of the same name (a function re-entering
        itself, as ``embed_caterpillar_mindeg`` does after a reversal) is
        folded into the outer one, so totals and call counts are not doubled.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        outer = [True] * len(spans)
        for i, (name, t0, t1, parent, _op, _tag) in enumerate(spans):
            p = parent
            if p >= 0:
                child_time[p] += t1 - t0
            while p >= 0:
                if spans[p][0] == name:
                    outer[i] = False
                    break
                p = spans[p][3]
        total: dict[str, float] = {n: 0.0 for n in TIMED}
        calls: dict[str, int] = {n: 0 for n in TIMED}
        selft: dict[str, float] = {"tree_embedder.embed": 0.0, "cli.main": 0.0}
        free_s = witness_s = 0.0
        free_n = witness_n = noop = nodes = assertions = fallbacks = 0
        setup_scan_s = 0.0
        decompose_in_cat = 0
        branch_lat: dict[str, list[float]] = {b: [] for b in BRANCHES}
        for i, (name, t0, t1, parent, op, tag) in enumerate(spans):
            dur = t1 - t0
            if op < 0:
                if name == "freeness.scan" and outer[i]:
                    setup_scan_s += dur
                continue
            if name == "tree_embedder.fallback":
                fallbacks += 1
                continue
            if not outer[i]:
                continue
            total[name] += dur
            calls[name] += 1
            if name in selft:
                selft[name] += dur - child_time[i]
            if name == "subdigraph.prune" and tag == "noop":
                noop += 1
            elif name == "freeness.scan":
                if tag == "free":
                    free_s += dur
                    free_n += 1
                else:
                    witness_s += dur
                    witness_n += 1
            elif name == "oracle_gen.oracle":
                nodes += tag
            elif name == "tree_embedder.embed":
                branch, n_assert = tag
                assertions += n_assert
                if branch in branch_lat:
                    branch_lat[branch].append(dur * 1e3)
            elif name == "antitree.decompose":
                p = parent
                while p >= 0 and spans[p][0] != "convex.embed_cat":
                    p = spans[p][3]
                decompose_in_cat += p >= 0

        def frac(a, b):
            return a / b if b else 0.0

        out: dict[str, tuple[float, str]] = {}
        for n in TIMED:
            out[n + "_s"] = (total[n], "s")
            out[n + "_calls"] = (calls[n], "count")
        out["subdigraph.prune_noop_frac"] = (frac(noop, calls["subdigraph.prune"]), "ratio")
        out["freeness.scan_free_s"] = (free_s, "s")
        out["freeness.scan_free_calls"] = (free_n, "count")
        out["freeness.scan_witness_s"] = (witness_s, "s")
        out["freeness.scan_witness_calls"] = (witness_n, "count")
        out["freeness.witness_frac"] = (frac(witness_n, calls["freeness.scan"]), "ratio")
        out["freeness.setup_scan_s"] = (setup_scan_s, "s")
        out["antitree.decompose_per_cat"] = (frac(decompose_in_cat, calls["convex.embed_cat"]), "ratio")
        out["oracle_gen.oracle_nodes"] = (nodes, "count")
        out["tree_embedder.self_s"] = (selft["tree_embedder.embed"], "s")
        out["cli.self_s"] = (selft["cli.main"], "s")
        for b in BRANCHES:
            lat = branch_lat[b]
            out[f"tree_embedder.branch.{b}"] = (len(lat), "count")
            out[f"tree_embedder.branch.{b}.p50_ms"] = (statistics.median(lat) if lat else 0.0, "ms")
        out["tree_embedder.assertions"] = (assertions, "count")
        out["tree_embedder.fallbacks"] = (fallbacks, "count")
        return out
