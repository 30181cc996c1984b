"""Digests of what ``embed_antitree`` returns on fixed instance streams.

Run it on two trees of the library and compare the lines it prints: equal
digests mean equal outcomes (ok, case, map, failure and trace) on every
instance of that stream.  It is not a test and not a benchmark; it is the
evidence a change that must keep outputs the same can quote.

    PYTHONPATH=src python tools/same_outputs.py

Streams (one line each: name, instance count, sha256 over one JSON record per
instance):

- ``pg25-warm-<seed>``: the k = 13 tree mix of the theorem2-pg suite, drawn
  from ``random.Random(seed)`` in the order the pg25-warm benchmark workload
  draws it, embedded into one PG(2,25) incidence digraph, at seeds 1302 and
  8191; ``pg25-warm-<seed>-reversed`` embeds each reversed tree into the
  reversed host.
- ``pg25-line-deleted``: PG(2,25) with 1 to 50 seeded lines deleted (still
  K_{2,2}-free and dense enough for k = 13), each host embedding the first
  trees of the same mix.
- ``desk-differential``: random hosts with 2 to 12 vertices and trees with
  k <= 5, as in the desk-mix benchmark's differential ops, freeness scan
  included.
- ``witness-replay``: on random hosts with 2 to 7 vertices, in the default
  and in a shuffled vertex order, the good arcs of a caterpillar with k <= 4
  and ``reconstruct_witness`` of each.
- ``padded-broom-and-strip``: trees with 73 to 90 arcs whose double broom
  falls in case A-II (the padded broom), embedded alternately into the
  bidirected K_100 and into the bidirected K_96 with 4 pure sources into it
  (whose core leans to sources, so the broom takes its least good arc in
  (head, tail) order); then random dense hosts with two-hub trees of k = 6
  to 16 arcs, about 1 in 75 of which strips hub leaves in the middle branch.
- ``caterpillar-mindeg``: ``embed_caterpillar_mindeg`` on random hosts with
  2 to 10 vertices, some of them pure sources or pure sinks, and caterpillars
  with k <= 6, half of them reversed, 3 in 10 in a shuffled vertex order;
  each record is the map, or the exception's type and message.
- ``intake``: ``parse_arclist`` on arc-list texts of PG(2,25) less 100 to
  1,200 seeded arcs and of PG(2,25) plus one non-incident point->line arc, as
  the intake-cold benchmark writes them, one in three rewritten so that the
  bulk reader hands it to the per-line reader (comment lines, tab-led lines,
  ``+`` signs) or reads it with names written with leading zeros, and one
  (the second) naming an arc twice, as ``7`` and ``007``; each record is
  (n, arcs) or the error message, then ``is_k2s_free`` at s = 1, 2 and 3 on
  the parsed host.
- ``cold-good-arcs``: PG(2,7) and PG(2,13) with seeded arcs deleted, each a
  new host, and their reversals, in the default, the reversed and a shuffled
  vertex order; each record is a random caterpillar's steps, good-arc count
  and sorted last-stage arcs, then ``embed_caterpillar``'s map in that order
  or the exception's type and message.
- ``freeness-witness``: ``is_k2s_free`` at s = 1, 2 and 3 on the reversals
  of the ``intake`` stream's parsed hosts (the added point->line arc becomes
  a line->point arc, so the first witness is a (-,-) one among the points),
  then on PG(2,7) and PG(2,13) each with 1 to 3 seeded non-incident arcs
  added, point->line or line->point.
- ``selection``: seeded random hosts with 2 to 12 vertices,
  ``gen_random_dense`` hosts with 2 to 14, and PG(2,7) and PG(2,13) with
  seeded arcs deleted; on each host, for every k from 1 to one past the order
  or twice the largest degree (whichever is less), ``prune_pseudo``'s sorted
  arcs, then for every r from 0 to ceil(k/2) + 1 ``select_subdigraph``'s
  case, witness, sorted arcs and audit; each failing call records the
  exception's type and message instead.
- ``incidence``: ``gen_incidence(q)``'s order and arcs for every q up to 25
  that it supports, then ``audit_projective``'s verdict on seeded PG(2,q),
  q <= 7, less some arcs or plus point->line, line->point and point->point
  arcs.

It needs only the public API, so it runs unchanged against an older tree.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time

from antembed import (
    AntembedError,
    ConvexDigraph,
    Digraph,
    audit_projective,
    degree_stats,
    embed_antitree,
    embed_caterpillar,
    embed_caterpillar_mindeg,
    enumerate_antitrees,
    gen_incidence,
    gen_random_dense,
    good_arcs,
    is_caterpillar,
    is_k2s_free,
    parse_arclist,
    prune_pseudo,
    reverse,
    reverse_antitree,
    sample_antitree,
    select_subdigraph,
    validate_antitree,
)
from antembed.convex import reconstruct_witness
from antembed.oracle_gen import sample_antitree_heavy

K_PG = 13
PG_TREES = 3000
LINE_DELETED_HOSTS = 60
TREES_PER_HOST = 10
DESK_PAIRS = 10_000
REPLAY_HOSTS = 2000
PADDED_TREES = 200
STRIP_PAIRS = 10_000
MINDEG_PAIRS = 20_000
INTAKE_TEXTS = 160
COLD_HOSTS = 40
COLD_CATS = 5
WITNESS_HOSTS = 100
SELECT_HOSTS = 1000
SELECT_PG_HOSTS = 20
INCIDENCE_QS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25)
AUDIT_HOSTS = 1500
# the oracle's node budget after an internal assertion, as in the benchmark
BUDGET = 200_000


def theorem2_tree(rng: random.Random, i: int):
    """The theorem2-pg tree mix: plain trees (redrawn once when Delta_2 > 5)
    on even i, trees with Delta_2 >= 6 on odd i."""
    if i % 2 == 0:
        t = sample_antitree(K_PG, rng)
        if degree_stats(t).delta2 > 5:
            t = sample_antitree(K_PG, rng)
        return t
    return sample_antitree_heavy(K_PG, rng, 6)


def record(out) -> str:
    rec = {
        "ok": out.ok,
        "case": [out.case.branch, out.case.params] if out.case else None,
        "map": sorted(out.embedding.map.items()) if out.ok else None,
        "failure": out.failure,
        "trace": out.trace,
    }
    return json.dumps(rec, sort_keys=True, separators=(",", ":"), default=repr)


def digest(name: str, records) -> None:
    h = hashlib.sha256()
    count = 0
    for line in records:
        h.update(line.encode())
        h.update(b"\n")
        count += 1
    print(f"{name} {count} {h.hexdigest()}", flush=True)


def pg25_streams(host: Digraph):
    for seed in (1302, 8191):
        rng = random.Random(seed)
        trees = [theorem2_tree(rng, i) for i in range(PG_TREES)]
        digest(f"pg25-warm-{seed}",
               (record(embed_antitree(host, t, K_PG, known_free=True, budget=BUDGET)) for t in trees))
        rhost = reverse(host)
        digest(f"pg25-warm-{seed}-reversed",
               (record(embed_antitree(rhost, reverse_antitree(t), K_PG, known_free=True, budget=BUDGET))
                for t in trees))


def line_deleted(host: Digraph):
    """PG(2,25) less the arcs into some seeded lines (point ids come first,
    line ids second): a subdigraph of a K_{2,2}-free host, and with at most
    50 of its 651 lines gone it keeps more than (k - 1)n arcs."""
    rng = random.Random(2525)
    points = host.n // 2
    for _ in range(LINE_DELETED_HOSTS):
        gone = set(rng.sample(range(points, host.n), rng.randint(1, 50)))
        d = Digraph(host.n, [(u, v) for u, v in host.arcs if v not in gone])
        for i in range(TREES_PER_HOST):
            yield record(embed_antitree(d, theorem2_tree(rng, i), K_PG, known_free=True, budget=BUDGET))


def desk_differential():
    rng = random.Random(6)
    for _ in range(DESK_PAIRS):
        n = rng.randint(2, 12)
        k = rng.randint(1, min(5, n - 1))
        t = sample_antitree(k, rng)
        p = rng.choice([0.15, 0.3, 0.5, 0.8])
        d = Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p])
        yield record(embed_antitree(d, t, k))


def witness_replay():
    rng = random.Random(7)
    cats = [t for k in range(1, 5) for t in enumerate_antitrees(k) if is_caterpillar(t)]
    for _ in range(REPLAY_HOSTS):
        n = rng.randint(2, 7)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        d = Digraph(n, rng.sample(pairs, rng.randint(0, len(pairs))))
        t = rng.choice([t for t in cats if t.n <= n])
        shuffled = list(range(n))
        rng.shuffle(shuffled)
        for order in (None, shuffled):
            c = ConvexDigraph(d, order)
            table = good_arcs(c, t) if d.a() > (t.k - 1) * n else None
            good = sorted(table.stage_arcs[-1]) if table else []
            maps = [sorted(reconstruct_witness(c, t, table, arc).items()) for arc in good]
            yield json.dumps([table.steps if table else None, good, maps], separators=(",", ":"))


def padded_broom_tree(rng: random.Random, k: int):
    """A k-arc tree in case A-II: the source hub u with Delta - 1 leaves, an
    odd path from u to the sink v, v with delta2 - 1 leaves (Delta - delta2
    <= 4 and 12 (Delta + delta2) < 7k), then arcs hung at random below every
    other vertex of degree at most 3; relabelled at random 7 times in 10."""
    while True:
        d2 = rng.randint(k // 4 + 3, k // 3)
        dl = rng.randint(d2, d2 + 4)
        plen = max(1, 3 * k // 4 - dl - d2 + 2) + rng.randint(0, 10)
        plen += 1 - plen % 2
        if 12 * (dl + d2) < 7 * k and dl + d2 + plen - 2 <= k:
            break
    sign = [1 - 2 * (i % 2) for i in range(plen + 1)]
    arcs = [(i, i + 1) if sign[i] > 0 else (i + 1, i) for i in range(plen)]
    u, v = 0, plen
    for hub, count in ((u, dl - 1), (v, d2 - 1)):
        for _ in range(count):
            arcs.append((hub, len(sign)) if sign[hub] > 0 else (len(sign), hub))
            sign.append(-sign[hub])
    deg = [0] * len(sign)
    for a, b in arcs:
        deg[a] += 1
        deg[b] += 1
    while len(arcs) < k:
        x = rng.choice([x for x in range(len(sign)) if x not in (u, v) and deg[x] < 4])
        arcs.append((x, len(sign)) if sign[x] > 0 else (len(sign), x))
        sign.append(-sign[x])
        deg[x] += 1
        deg.append(1)
    perm = list(range(k + 1))
    if rng.random() < 0.7:
        rng.shuffle(perm)
    return validate_antitree(Digraph(k + 1, [(perm[a], perm[b]) for a, b in arcs]))


def padded_broom_and_strip():
    rng = random.Random(8)
    hosts = [Digraph(100, [(a, b) for a in range(100) for b in range(100) if a != b]),
             Digraph(100, [(a, b) for a in range(100) for b in range(96) if a != b])]
    for i in range(PADDED_TREES):
        k = rng.randint(73, 90)
        yield record(embed_antitree(hosts[i % 2], padded_broom_tree(rng, k), k, known_free=True, budget=0))
    for _ in range(STRIP_PAIRS):
        k = rng.randint(6, 16)
        n = rng.randint(k + 1, 3 * k)
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        d = Digraph(n, rng.sample(pairs, min(len(pairs), (k - 1) * n + 1 + rng.randint(0, 3 * n))))
        yield record(embed_antitree(d, sample_antitree_heavy(k, rng, 2), k, known_free=True, budget=2000))


def caterpillar_mindeg():
    rng = random.Random(9)
    cats = [t for k in range(1, 7) for t in enumerate_antitrees(k) if is_caterpillar(t)]
    fits = {n: [t for t in cats if t.n <= n] for n in range(2, 11)}
    for _ in range(MINDEG_PAIRS):
        n = rng.randint(2, 10)
        t = rng.choice(fits[n])
        if rng.random() < 0.5:
            t = reverse_antitree(t)
        p = rng.choice([0.3, 0.5, 0.8, 1.0])
        # no arc into the pure sources, or none out of the pure sinks
        pure, into = set(rng.sample(range(n), rng.randint(0, n // 3))), rng.random() < 0.5
        d = Digraph(n, [(u, v) for u in range(n) for v in range(n)
                        if u != v and (v if into else u) not in pure and rng.random() < p])
        order = None
        if rng.random() < 0.3:
            order = list(range(n))
            rng.shuffle(order)
        try:
            rec = sorted(embed_caterpillar_mindeg(d, t, order).map.items())
        except AntembedError as exc:
            rec = [type(exc).__name__, str(exc)]
        yield json.dumps(rec, separators=(",", ":"))


def intake_text(rng: random.Random, host: Digraph, i: int) -> str:
    """The i-th host text: the intake-cold benchmark's PG(2,25) variants, one
    in three rewritten (see the module docstring)."""
    points = host.n // 2
    lines = [f"{u} {v}" for u, v in host.arcs]
    if i % 4 == 3:
        while True:
            p, line = rng.randrange(points), points + rng.randrange(points)
            if not host.has_arc(p, line):
                break
        lines.append(f"{p} {line}")
    else:
        gone = frozenset(rng.sample(range(len(lines)), rng.randint(100, 1200)))
        lines = [ln for j, ln in enumerate(lines) if j not in gone]
    form = "twice" if i == 1 else i % 3 and rng.choice(["comment", "tab", "plus", "zeros"])
    if form in ("tab", "plus", "zeros"):
        pad = {"tab": ("\t", ""), "plus": ("", "+"), "zeros": ("", "00")}[form]
        for j in rng.sample(range(len(lines)), 50):
            u, v = lines[j].split()
            lines[j] = f"{pad[0]}{pad[1]}{u} {pad[1]}{v}"
    elif form == "comment":
        for j in sorted(rng.sample(range(len(lines)), 20), reverse=True):
            lines.insert(j, f"# comment {j}")
    elif form == "twice":
        u, v = lines[rng.randrange(len(lines))].split()
        lines.append(f"{u} 00{v}")
    arcs = sum(not ln.startswith("#") for ln in lines)
    return f"{host.n} {arcs}\n" + "\n".join(lines) + "\n"


def intake_hosts(host: Digraph):
    """The parsed hosts of the intake texts, or the parser's error message."""
    rng = random.Random(10)
    for i in range(INTAKE_TEXTS):
        try:
            d, _ = parse_arclist(intake_text(rng, host, i))
        except AntembedError as exc:
            yield str(exc)
            continue
        yield d


def scans(d: Digraph):
    """``is_k2s_free`` at s = 1, 2 and 3: True or the witness as a list."""
    found = [is_k2s_free(d, s) for s in (1, 2, 3)]
    return [w if w is True else [w.a, w.b, w.sign_a, w.sign_b, sorted(w.common)] for w in found]


def intake(host: Digraph):
    for d in intake_hosts(host):
        yield json.dumps(d if type(d) is str else [d.n, d.arcs, scans(d)], separators=(",", ":"))


def freeness_witness(host: Digraph):
    for d in intake_hosts(host):
        if type(d) is not str:
            yield json.dumps(scans(reverse(d)), separators=(",", ":"))
    rng = random.Random(12)
    for q in (7, 13):
        base = gen_incidence(q)
        points = base.n // 2
        for _ in range(WITNESS_HOSTS):
            extra = set()
            for _ in range(rng.randint(1, 3)):
                while True:
                    p, line = rng.randrange(points), points + rng.randrange(points)
                    if not base.has_arc(p, line):
                        break
                extra.add((p, line) if rng.random() < 0.5 else (line, p))
            d = Digraph(base.n, base.arcs + tuple(sorted(extra)))
            yield json.dumps([sorted(extra), scans(d)], separators=(",", ":"))


def cold_caterpillar(rng: random.Random, q: int):
    """A caterpillar with a spine of 2 to q // 2 + 2 vertices, up to q // 3
    leaves on each inner one, the first of random sign, relabelled at random."""
    spine = rng.randint(2, q // 2 + 2)
    sign = [rng.choice((1, -1))]
    for _ in range(spine - 1):
        sign.append(-sign[-1])
    arcs = [(i, i + 1) if sign[i] > 0 else (i + 1, i) for i in range(spine - 1)]
    for i in range(1, spine - 1):
        for _ in range(rng.randint(0, q // 3)):
            arcs.append((i, len(sign)) if sign[i] > 0 else (len(sign), i))
            sign.append(-sign[i])
    perm = list(range(len(sign)))
    rng.shuffle(perm)
    return validate_antitree(Digraph(len(sign), [(perm[a], perm[b]) for a, b in arcs]))


def cold_good_arcs():
    rng = random.Random(11)
    for q in (7, 13):
        base = gen_incidence(q)
        for _ in range(COLD_HOSTS):
            gone = set(rng.sample(range(base.a()), rng.randint(0, base.a() // 10)))
            d = Digraph(base.n, [arc for j, arc in enumerate(base.arcs) if j not in gone])
            shuffled = list(range(d.n))
            rng.shuffle(shuffled)
            for host in (d, reverse(d)):
                for order in (None, list(reversed(range(d.n))), shuffled):
                    c = ConvexDigraph(host, order)
                    for _ in range(COLD_CATS):
                        t = cold_caterpillar(rng, q)
                        table = good_arcs(c, t)
                        try:
                            rec = sorted(embed_caterpillar(host, t, order).map.items())
                        except AntembedError as exc:
                            rec = [type(exc).__name__, str(exc)]
                        yield json.dumps([table.steps, table.count, sorted(table.stage_arcs[-1]), rec],
                                         separators=(",", ":"))


def selection_hosts():
    rng = random.Random(13)
    for _ in range(SELECT_HOSTS):
        n = rng.randint(2, 12)
        p = rng.choice([0.15, 0.3, 0.5, 0.8, 1.0])
        yield Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p])
    for seed in range(SELECT_HOSTS):
        n = rng.randint(2, 14)
        yield gen_random_dense(n, rng.randint(1, n - 1), seed)
    for q in (7, 13):
        base = gen_incidence(q)
        for _ in range(SELECT_PG_HOSTS):
            gone = set(rng.sample(range(base.a()), rng.randint(0, base.a() // 4)))
            yield Digraph(base.n, [arc for j, arc in enumerate(base.arcs) if j not in gone])


def selection():
    def attempt(fn):
        try:
            return fn()
        except AntembedError as exc:
            return [type(exc).__name__, str(exc)]

    def selected(d, k, r):
        sel = select_subdigraph(d, k, r)
        return [sel.case_tag, sel.witness_vertex, sorted(sel.sub.arcs), dict(sel.audit)]

    for d in selection_hosts():
        top = max(max(d.out_deg(v), d.in_deg(v)) for v in range(d.n))
        for k in range(1, min(d.n + 1, 2 * top) + 1):
            rec = [k, attempt(lambda: sorted(prune_pseudo(d, k).arcs))]
            rec += [attempt(lambda: selected(d, k, r)) for r in range((k + 1) // 2 + 2)]
            yield json.dumps(rec, sort_keys=True, separators=(",", ":"))


def incidence():
    for q in INCIDENCE_QS:
        d = gen_incidence(q)
        yield json.dumps([q, d.n, d.arcs], separators=(",", ":"))
    rng = random.Random(14)
    for _ in range(AUDIT_HOSTS):
        q = rng.choice([2, 3, 4, 5, 7])
        base = gen_incidence(q)
        points = base.n // 2
        arcs = set(base.arcs)
        for _ in range(rng.randint(0, 3)):
            kind = rng.choice(["delete", "point-line", "line-point", "point-point"])
            if kind == "delete":
                arcs.discard(rng.choice(sorted(arcs)))
            elif kind == "point-line":
                arcs.add((rng.randrange(points), points + rng.randrange(points)))
            elif kind == "line-point":
                arcs.add((points + rng.randrange(points), rng.randrange(points)))
            else:
                arcs.add(tuple(rng.sample(range(points), 2)))
        arcs = sorted(arcs)
        yield json.dumps([q, arcs, audit_projective(Digraph(base.n, arcs))], separators=(",", ":"))


def main() -> int:
    start = time.perf_counter()
    host = gen_incidence(25)
    pg25_streams(host)
    digest("pg25-line-deleted", line_deleted(host))
    digest("desk-differential", desk_differential())
    digest("witness-replay", witness_replay())
    digest("padded-broom-and-strip", padded_broom_and_strip())
    digest("caterpillar-mindeg", caterpillar_mindeg())
    digest("intake", intake(host))
    digest("cold-good-arcs", cold_good_arcs())
    digest("freeness-witness", freeness_witness(host))
    digest("selection", selection())
    digest("incidence", incidence())
    print(f"# {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
