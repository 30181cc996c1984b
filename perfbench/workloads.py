"""The benchmark's workloads: inputs made from a seed, one op, and its checks.

Each workload object is built by its set-up (timed as ``setup_s``) and then
serves ops in a closed loop:

- ``instance(i)`` returns the inputs of op ``i``.  Instances are drawn in
  order from one seeded stream, so the same seed gives the same sequence.
  Set-up draws the first ``DIGEST_OPS`` of them; later ones are drawn between
  ops, outside the timed region, so every op sees fresh inputs and no
  instance is ever repeated within a run.
- ``op(inst)`` is the timed call into the library.  It calls through module
  attributes (``tree_embedder.embed_antitree``) so that the traced run's
  wrappers see it.
- ``check(inst, res)`` runs outside the timed region and returns
  ``(record, failure)``: ``record`` is what the program returned (branch,
  vertex map, refusal kind, witness) as JSON-ready data for the outputs
  digest, and ``failure`` is ``None``, ``"gap"`` for the known completeness
  gap of the good-arc construction, or a short reason.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

from antembed import antitree, cli, convex, digraph, embedding, freeness, oracle_gen, subdigraph, tree_embedder

K_PG = 13
# Oracle node budget on the 1302-vertex hosts: an internal assertion falls
# back to the exact oracle, which must end (as budget-exhausted) instead of
# searching without limit.
BUDGET = 200_000
GAP = "gap"


def _theorem2_tree(rng: random.Random, i: int):
    """The k=13 tree mix of the theorem2-pg acceptance suite."""
    if i % 2 == 0:
        t = oracle_gen.sample_antitree(K_PG, rng)
        if antitree.degree_stats(t).delta2 > 5:
            t = oracle_gen.sample_antitree(K_PG, rng)
        return t
    return oracle_gen.sample_antitree_heavy(K_PG, rng, 6)


def _embed_record(out) -> dict:
    return {
        "branch": out.case.branch if out.case else None,
        "map": sorted(out.embedding.map.items()) if out.ok else None,
        "refusal": out.failure.get("kind") if out.failure else None,
        "witness": out.failure.get("witness") if out.failure else None,
    }


def _embed_failure(out, valid: bool, want_ok: bool) -> str | None:
    if out.assertion_events():
        return "internal-assertion"
    if out.failure and out.failure.get("kind") == "budget-exhausted":
        return "budget-exhausted"
    if out.ok and not valid:
        return "invalid-embedding"
    if want_ok and not out.ok:
        return "refusal:" + str(out.failure.get("kind"))
    return None


class _Stream:
    """Instances 0..DIGEST_OPS-1 drawn at set-up, the rest on demand."""

    DIGEST_OPS = 0

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.drawn = 0
        self.first = [self._next() for _ in range(self.DIGEST_OPS)]

    def _next(self):
        inst = self.draw(self.rng, self.drawn)
        self.drawn += 1
        return inst

    def draw(self, rng: random.Random, i: int):
        raise NotImplementedError

    def instance(self, i: int):
        if i < len(self.first):
            return self.first[i]
        if i != self.drawn:
            raise ValueError(f"instances are drawn in order: asked for {i}, next is {self.drawn}")
        return self._next()

    def release(self, inst):
        pass

    def close(self):
        pass


class Pg25Warm(_Stream):
    """k=13 trees embedded into one certified PG(2,25) incidence digraph."""

    name = "pg25-warm"
    DIGEST_OPS = 60

    def __init__(self, seed: int, workdir: str):
        host = oracle_gen.gen_incidence(25)
        if host.n != 1302 or host.a() != 16926:
            raise RuntimeError(f"PG(2,25) has the wrong shape: n={host.n}, arcs={host.a()}")
        if freeness.is_k2s_free(host, 2, prune=True) is not True:
            raise RuntimeError("PG(2,25) is not K_{2,2}-free")
        if not oracle_gen.audit_projective(host):
            raise RuntimeError("PG(2,25) fails the projective-plane audit")
        self.host = host
        super().__init__(seed)

    def draw(self, rng, i):
        return _theorem2_tree(rng, i)

    def op(self, t):
        out = tree_embedder.embed_antitree(self.host, t, K_PG, known_free=True, budget=BUDGET)
        valid = out.ok and embedding.validate_embedding(t, self.host, out.embedding.map)
        return out, valid

    def check(self, t, res):
        out, valid = res
        return _embed_record(out), _embed_failure(out, valid, want_ok=True)


class IntakeCold(_Stream):
    """One in-process ``antembed embed`` request per op, each on a new host file.

    Three hosts in four are PG(2,25) with 100-1200 seeded arcs deleted (still
    free and dense: exit 0); every fourth is PG(2,25) plus one non-incident
    point->line arc (not free: exit 2 with a witness).
    """

    name = "intake-cold"
    DIGEST_OPS = 8

    def __init__(self, seed: int, workdir: str):
        self.base = oracle_gen.gen_incidence(25)
        self.lines = [f"{u} {v}" for u, v in self.base.arcs]
        self.points = self.base.n // 2
        self.dir = os.path.join(workdir, f"intake-{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)
        super().__init__(seed)

    def draw(self, rng, i):
        t = _theorem2_tree(rng, i)
        if i % 4 == 3:
            while True:
                p, line = rng.randrange(self.points), self.points + rng.randrange(self.points)
                if (p, line) not in self.base.arc_set:
                    break
            delta = {"add": (p, line)}
            lines = self.lines + [f"{p} {line}"]
        else:
            gone = frozenset(rng.sample(range(len(self.lines)), rng.randint(100, 1200)))
            delta = {"delete": gone}
            lines = [ln for j, ln in enumerate(self.lines) if j not in gone]
        host_path = os.path.join(self.dir, f"host{i}.txt")
        tree_path = os.path.join(self.dir, f"tree{i}.txt")
        with open(host_path, "w", encoding="utf-8") as fh:
            fh.write(f"{self.base.n} {len(lines)}\n")
            fh.write("\n".join(lines))
            fh.write("\n")
        with open(tree_path, "w", encoding="utf-8") as fh:
            fh.write(digraph.to_arclist(t.tree))
        return {"i": i, "tree": t, "delta": delta, "host": host_path, "tree_path": tree_path}

    def op(self, inst):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["--json", "embed", "--host", inst["host"], "--tree", inst["tree_path"],
                           "--budget", str(BUDGET)])
        return rc, buf.getvalue()

    def _host(self, delta) -> digraph.Digraph:
        if "add" in delta:
            return digraph.Digraph(self.base.n, list(self.base.arcs) + [delta["add"]])
        gone = delta["delete"]
        return digraph.Digraph(self.base.n, [a for j, a in enumerate(self.base.arcs) if j not in gone])

    def check(self, inst, res):
        rc, text = res
        want = 2 if "add" in inst["delta"] else 0
        try:
            payload = json.loads(text)
        except ValueError:
            return {"exit": rc, "output": text}, "unparsable-output"
        failure = payload.get("failure") or {}
        witness = failure.get("witness")
        record = {
            "exit": rc,
            "branch": payload.get("branch"),
            "map": sorted((int(k), v) for k, v in payload["map"].items()) if payload.get("map") else None,
            "refusal": failure.get("kind"),
            "witness": witness,
        }
        if payload.get("assertions"):
            return record, "internal-assertion"
        if failure.get("kind") == "budget-exhausted":
            return record, "budget-exhausted"
        if rc != want:
            return record, f"exit-{rc}-expected-{want}"
        host = self._host(inst["delta"])
        if want == 0:
            if not embedding.validate_embedding(inst["tree"], host, dict(record["map"])):
                return record, "invalid-embedding"
        else:
            w = freeness.ForbiddenWitness(
                a=witness["a"], b=witness["b"], sign_a=witness["sign_a"],
                sign_b=witness["sign_b"], common=frozenset(witness["common"]),
            )
            if failure.get("kind") != "freeness" or not w.revalidate(host, 2):
                return record, "bad-witness"
        return record, None

    def release(self, inst):
        os.remove(inst["host"])
        os.remove(inst["tree_path"])

    def close(self):
        for i in range(len(self.first)):
            for stem in ("host", "tree"):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(os.path.join(self.dir, f"{stem}{i}.txt"))
        with contextlib.suppress(OSError):
            os.rmdir(self.dir)


def _caterpillar_classes(kmax: int):
    return [t for k in range(1, kmax + 1) for t in antitree.enumerate_antitrees(k) if antitree.is_caterpillar(t)]


_PAIRS5 = [(u, v) for u in range(5) for v in range(5) if u != v]


class DeskMix(_Stream):
    """Tiny instances from the distributions of acceptance criteria 6, 1, 2 and 3,
    taken in that rotation: full pipeline with oracle cross-check, caterpillar
    embedding, good arcs against brute force, and subdigraph selection."""

    name = "desk-mix"
    DIGEST_OPS = 2000
    KINDS = ("differential", "caterpillar", "good-arcs", "selector")

    def __init__(self, seed: int, workdir: str):
        self.cats4 = _caterpillar_classes(4)
        super().__init__(seed)

    def draw(self, rng, i):
        kind = self.KINDS[i % 4]
        if kind == "differential":
            n = rng.randint(2, 12)
            k = rng.randint(1, min(5, n - 1))
            t = oracle_gen.sample_antitree(k, rng)
            p = rng.choice([0.15, 0.3, 0.5, 0.8])
            arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]
            return kind, digraph.Digraph(n, arcs), t, None
        if kind == "caterpillar":
            while True:
                mask = rng.getrandbits(20)
                d = digraph.Digraph(5, [_PAIRS5[j] for j in range(20) if (mask >> j) & 1])
                cand = [t for t in self.cats4 if d.a() > (t.k - 1) * d.n]
                if cand:
                    return kind, d, cand[rng.randrange(len(cand))], None
        if kind == "good-arcs":
            n = rng.randint(2, 7)
            pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
            d = digraph.Digraph(n, rng.sample(pairs, rng.randint(0, len(pairs))))
            order = list(range(n))
            rng.shuffle(order)
            cand = [t for t in self.cats4 if t.n <= n]
            return kind, d, cand[rng.randrange(len(cand))], tuple(order)
        n = rng.randint(5, 16)
        k = rng.randint(1, n - 1)
        r = rng.randint(1, (k + 1) // 2)
        return kind, oracle_gen.gen_random_dense(n, k, seed=rng.randrange(2**31)), None, (k, r)

    def op(self, inst):
        kind, d, t, extra = inst
        if kind == "differential":
            out = tree_embedder.embed_antitree(d, t, t.k)
            res = {"out": out}
            if out.ok:
                res["valid"] = embedding.validate_embedding(t, d, out.embedding.map)
                res["oracle"] = oracle_gen.oracle_embed(d, t).verdict
            elif out.failure.get("kind") == "freeness":
                w = out.failure["witness"]
                res["witness_ok"] = freeness.ForbiddenWitness(
                    a=w["a"], b=w["b"], sign_a=w["sign_a"], sign_b=w["sign_b"],
                    common=frozenset(w["common"]),
                ).revalidate(d, out.failure["s"])
            if antitree.is_caterpillar(t) and d.a() > (t.k - 1) * d.n:
                emb = convex.embed_caterpillar(d, t)
                res["cat_map"] = emb.map
                res["cat_valid"] = embedding.validate_embedding(t, d, emb.map)
                res["cat_oracle"] = oracle_gen.oracle_embed(d, t).verdict
            return res
        if kind == "caterpillar":
            emb = convex.embed_caterpillar(d, t)
            return emb.map, embedding.validate_embedding(t, d, emb.map)
        if kind == "good-arcs":
            c = convex.ConvexDigraph(d, extra)
            dp = set(convex.good_arcs(c, t).stage_arcs[-1])
            dp_mindeg = set(convex.good_arcs_mindeg(c, t).stage_arcs[-1])
            bf = oracle_gen.brute_good_arcs(c, t) if d.n <= 5 and t.k <= 3 else None
            return dp, dp_mindeg, bf
        k, r = extra
        return subdigraph.select_subdigraph(d, k, r), subdigraph.prune_pseudo(d, k)

    def check(self, inst, res):
        kind, d, t, extra = inst
        if kind == "differential":
            out = res["out"]
            record = _embed_record(out)
            record["oracle"] = res.get("oracle")
            record["cat_map"] = sorted(res["cat_map"].items()) if "cat_map" in res else None
            failure = _embed_failure(out, res.get("valid", False), want_ok=False)
            if failure:
                return record, failure
            if out.ok and res["oracle"] != "Embeds":
                return record, "oracle-disagrees"
            kind_ = out.failure.get("kind") if out.failure else None
            if kind_ == "density" and d.a() > (t.k - 1) * d.n:
                return record, "bogus-density-refusal"
            if kind_ == "freeness" and not res["witness_ok"]:
                return record, "bad-witness"
            if "cat_map" in res and not (res["cat_valid"] and res["cat_oracle"] == "Embeds"):
                return record, "caterpillar-miss"
            return record, None
        if kind == "caterpillar":
            mapping, valid = res
            return {"map": sorted(mapping.items())}, None if valid else "invalid-embedding"
        if kind == "good-arcs":
            dp, dp_mindeg, bf = res
            record = {"good": sorted(dp), "missing": sorted(bf - dp) if bf is not None else None}
            if dp != dp_mindeg:
                return record, "good-arcs-variants-differ"
            if bf is not None and not dp <= bf:
                return record, "unsound-good-arc"
            if bf is not None and dp != bf:
                return record, GAP
            return record, None
        sel, core = res
        k, r = extra
        record = {"case": sel.case_tag, "witness": sel.witness_vertex,
                  "sub": sorted(sel.sub.arcs), "core": sorted(core.arcs)}
        return record, _selector_failure(d, sel, core, k, r)


def _selector_failure(d, sel, core, k, r) -> str | None:
    """The selector's guarantees re-checked from their definitions."""
    prof = digraph.degree_profile(sel.sub)
    plus = [v for v in range(d.n) if prof.out_deg[v] > 0]
    minus = [v for v in range(d.n) if prof.in_deg[v] > 0]
    if 2 * sel.sub.a() <= (k - 1) * (len(plus) + len(minus)):
        return "selector-density"
    if any(prof.out_deg[a] + prof.in_deg[b] < k for a in plus for b in minus):
        return "selector-degree-sum"
    if sel.case_tag == "I":
        ok = (2 * prof.delta_plus_bar >= k and prof.delta_minus_bar >= r
              and any(prof.out_deg[a] >= k for a in plus) and len(plus) <= len(minus))
    else:
        ok = (2 * prof.delta0_bar >= k and any(prof.in_deg[b] >= k for b in minus)
              and all(d.out_deg(a) > k - r for a in plus))
    if not ok:
        return "selector-regime"
    cprof = digraph.degree_profile(core)
    if core.a() == 0 or 2 * cprof.delta0_bar < k:
        return "prune-postcondition"
    return None


WORKLOADS = {w.name: w for w in (Pg25Warm, IntakeCold, DeskMix)}
