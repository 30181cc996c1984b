"""Registered acceptance suites and the JSON sweep runner.

Each suite returns a report dict (schema 1) whose ``failures`` list carries
the full offending instances inline, and whose ``params`` echo every value
the run used, so a failing run replays standalone.  Every suite parameter is
an integer; ``_suite`` declares each suite's keys with their defaults, and
``run_sweep`` resolves them once before the suite runs.
"""

from __future__ import annotations

import json
import random
from contextlib import nullcontext
from itertools import combinations
from multiprocessing import Pool

from .antitree import degree_stats, is_caterpillar, enumerate_antitrees, reverse_antitree, validate_antitree
from .convex import ConvexDigraph, embed_caterpillar, good_arcs, good_arcs_mindeg
from .digraph import Digraph, degree_profile, reverse, to_json_obj
from .embedding import validate_embedding
from .errors import AntembedError, HypothesisViolated
from .freeness import ForbiddenWitness, is_k2s_free
from .oracle_gen import (
    audit_projective,
    brute_good_arcs,
    enumerate_digraphs,
    gen_burr,
    gen_incidence,
    gen_random_dense,
    oracle_embed,
    sample_antitree,
    sample_antitree_heavy,
)
from .subdigraph import prune_pseudo, select_subdigraph
from .tree_embedder import embed_antitree

SCHEMA = 1
SUITES: dict = {}
DEFAULTS: dict[str, dict[str, int]] = {}


def _report(suite, params, failures, summary):
    return {
        "schema": SCHEMA,
        "suite": suite,
        "params": params,
        "ok": not failures,
        "failures": failures,
        "summary": summary,
    }


def _resolve_params(suite: str, params: dict) -> dict[str, int]:
    """The suite's defaults overridden by ``params``; an unknown key or a
    value that is not an integer raises AntembedError."""
    known = DEFAULTS[suite]
    unknown = sorted(set(params) - set(known))
    if unknown:
        raise AntembedError(f"unknown parameter {unknown[0]!r} for suite {suite} (known: {', '.join(known)})")
    out = dict(known)
    for key, val in params.items():
        try:
            out[key] = int(val)
        except (TypeError, ValueError):
            raise AntembedError(f"parameter {key}={val!r} of suite {suite} is not an integer") from None
    return out


def _suite(name: str, **defaults: int):
    """Register a suite under ``name`` with its parameters' defaults; the
    suite itself takes every parameter resolved."""

    def register(fn):
        DEFAULTS[name] = defaults
        SUITES[name] = fn
        return fn

    return register


def _instance(d, t, **extra):
    """A failure record: the host and the tree as JSON objects, then ``extra``."""
    return {"host": to_json_obj(d), "tree": to_json_obj(t.tree), **extra}


def _pmap(fn, items, jobs):
    if jobs <= 1:
        return [fn(x) for x in items]
    with Pool(jobs) as pool:
        return pool.map(fn, items, chunksize=64)


def _per_seed(name, one, params, jobs):
    """The report of ``one`` on seeds ``seed`` to ``seed+count-1``; its records are the failures."""
    count, seed = params["count"], params["seed"]
    failures = [r for r in _pmap(one, [seed + i for i in range(count)], jobs) if r]
    return _report(name, params, failures, {"instances": count})


def _random_pair(rng, nmax, densities):
    """A host on 2 to ``nmax`` vertices, each arc in with a probability drawn
    from ``densities``, and a random tree with at most min(5, n-1) arcs."""
    n = rng.randint(2, nmax)
    t = sample_antitree(rng.randint(1, min(5, n - 1)), rng)
    p = rng.choice(densities)
    return Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]), t


def _caterpillar_failure(d, t):
    """None when ``embed_caterpillar``'s map of ``t`` into ``d`` validates, else ``"invalid"`` or
    the exception's repr: callers pass pairs above the density bound, where any refusal fails."""
    try:
        emb = embed_caterpillar(d, t)
        return None if validate_embedding(t, d, emb.map) else "invalid"
    except Exception as exc:
        return repr(exc)


# -- criterion 1: exhaustive caterpillar embedding ------------------------------


def _caterpillar_classes(kmax):
    return [t for k in range(1, kmax + 1) for t in enumerate_antitrees(k) if is_caterpillar(t)]


def _prop3_host(args):
    d, trees = args
    return [
        _instance(d, t, why=why)
        for t in trees
        if t.n <= d.n and d.a() > (t.k - 1) * d.n and (why := _caterpillar_failure(d, t))
    ]


_PAIRS5 = [(u, v) for u in range(5) for v in range(5) if u != v]


def _prop3_mask(args):
    """``_prop3_host`` on the n=5 host whose arcs are the set bits of a
    20-bit mask over ``_PAIRS5``, built here so that it dies with the call."""
    mask, trees = args
    return _prop3_host((Digraph(5, [_PAIRS5[i] for i in range(20) if (mask >> i) & 1]), trees))


@_suite("prop3-exhaustive", sample5=100_000, seed=20260810)
def suite_prop3_exhaustive(params, jobs=1):
    sample5, seed = params["sample5"], params["seed"]
    trees3 = _caterpillar_classes(3)
    trees4 = _caterpillar_classes(4)
    failures = []
    counts = {}
    for n in (2, 3, 4):
        hosts = list(enumerate_digraphs(n))
        res = _pmap(_prop3_host, [(d, trees3) for d in hosts], jobs)
        for bad in res:
            failures.extend(bad)
        counts[f"n{n}"] = len(hosts)
    rng = random.Random(seed)
    res = _pmap(_prop3_mask, [(rng.getrandbits(20), trees4) for _ in range(sample5)], jobs)
    for bad in res:
        failures.extend(bad)
    counts["n5_sample"] = sample5
    return _report("prop3-exhaustive", params, failures, counts)


# -- criterion 2: good-arc bounds and the completeness gap ----------------------


def _goodarcs_one(args):
    d, order, t = args
    c = ConvexDigraph(d, order)
    out = {"bound_fail": None, "equality_fail": None}
    try:
        table = good_arcs(c, t)
        table2 = good_arcs_mindeg(c, t)
    except Exception as exc:  # the ops assert their own count bounds
        out["bound_fail"] = _instance(d, t, why=repr(exc))
        return out
    if set(table.stage_arcs[-1]) != set(table2.stage_arcs[-1]):
        out["bound_fail"] = _instance(d, t, which="set-mismatch")
    if d.n <= 5 and t.k <= 3:
        bf = brute_good_arcs(c, t)
        dp = set(table.stage_arcs[-1])
        if dp != bf:
            out["equality_fail"] = _instance(
                d, t, order=list(order), dp_minus_bf=sorted(map(list, dp - bf)), bf_minus_dp=sorted(map(list, bf - dp))
            )
        if not dp <= bf:
            out["bound_fail"] = _instance(d, t, which="unsound")
    return out


@_suite("good-arcs", count=10_000, seed=4242)
def suite_good_arcs(params, jobs=1):
    count = params["count"]
    rng = random.Random(params["seed"])
    trees = _caterpillar_classes(4)
    tasks = []
    for _ in range(count):
        n = rng.randint(2, 7)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        m = rng.randint(0, len(pairs))
        d = Digraph(n, rng.sample(pairs, m))
        order = list(range(n))
        rng.shuffle(order)
        cand = [t for t in trees if t.n <= n]
        t = cand[rng.randrange(len(cand))]
        tasks.append((d, tuple(order), t))
    res = _pmap(_goodarcs_one, tasks, jobs)
    bound_fails = [r["bound_fail"] for r in res if r["bound_fail"]]
    eq_fails = [r["equality_fail"] for r in res if r["equality_fail"]]
    eq_checked = sum(1 for d, _, t in tasks if d.n <= 5 and t.k <= 3)
    summary = {
        "instances": len(tasks),
        "equality_checked": eq_checked,
        "equality_failures": len(eq_fails),
        "bound_failures": len(bound_fails),
    }
    return _report("good-arcs", params, bound_fails + eq_fails[:20], summary)


# -- criterion 3: selector audit -------------------------------------------------


def _selector_one(seed):
    rng = random.Random(seed)
    n = rng.randint(5, 16)
    k = rng.randint(1, n - 1)
    r = rng.randint(1, (k + 1) // 2)
    d = gen_random_dense(n, k, seed=seed)
    fails = []
    sel = select_subdigraph(d, k, r)
    sub = sel.sub
    prof = degree_profile(sub)
    plus = [v for v in range(n) if prof.out_deg[v] > 0]
    minus = [v for v in range(n) if prof.in_deg[v] > 0]
    if 2 * sub.a() <= (k - 1) * (len(plus) + len(minus)):
        fails.append("cond-1")
    for a in plus:  # all pairs, straight from the definition
        for b in minus:
            if prof.out_deg[a] + prof.in_deg[b] < k:
                fails.append(f"cond-2:{a},{b}")
                break
    if sel.case_tag == "I":
        ok = (
            2 * prof.delta_plus_bar >= k
            and prof.delta_minus_bar >= r
            and any(prof.out_deg[a] >= k for a in plus)
            and len(plus) <= len(minus)
        )
    else:
        ok = (
            2 * prof.delta0_bar >= k
            and any(prof.in_deg[b] >= k for b in minus)
            and all(d.out_deg(a) > k - r for a in plus)
        )
    if not ok:
        fails.append(f"cond-3-{sel.case_tag}")
    core = prune_pseudo(d, k)
    cprof = degree_profile(core)
    if core.a() == 0 or 2 * cprof.delta0_bar < k:
        fails.append("prune")
    if fails:
        return {"host": to_json_obj(d), "k": k, "r": r, "fails": fails}
    return None


@_suite("selector-audit", count=10_000, seed=777)
def suite_selector_audit(params, jobs=1):
    return _per_seed("selector-audit", _selector_one, params, jobs)


# -- criterion 4: Theorem 2 end to end on PG(2,25) -------------------------------


def _empty_class_below_13(ns=(2, 3, 4, 5)):
    """Confirm that no digraph on n <= 5 vertices with more than n arcs is
    free of the three K_{2,1} orientations, so the k in 2..12 hypothesis class
    is empty.  More than n arcs put two heads v, w in the row of some vertex
    u, and a witness of {u->v, u->w} stays one when arcs are added; so the
    scanner must find a witness on every such two-arc digraph, which is
    checked exhaustively.  Returns the number checked and those found free."""
    checked = 0
    free_found = []
    for n in ns:
        for u in range(n):
            for v, w in combinations([x for x in range(n) if x != u], 2):
                d = Digraph(n, [(u, v), (u, w)])
                checked += 1
                if is_k2s_free(d, 1) is True:
                    free_found.append(to_json_obj(d))
    return checked, free_found


@_suite("theorem2-pg", count=200, seed=1302, full_check=5)
def suite_theorem2_pg(params, jobs=1):
    count, seed, full_check = params["count"], params["seed"], params["full_check"]
    k = 13
    failures = []
    host = gen_incidence(25)
    summary = {"n": host.n, "arcs": host.a()}
    if host.n != 1302 or host.a() != 16926:
        failures.append({"why": "host-shape", "n": host.n, "a": host.a()})
    if is_k2s_free(host, 2) is not True:
        failures.append({"why": "host-not-free"})
    if not audit_projective(host):
        failures.append({"why": "projective-axioms"})
    rng = random.Random(seed)
    branch_counts = {}
    for i in range(count):
        if i % 2 == 0:
            t = sample_antitree(k, rng)
            if degree_stats(t).delta2 > 5:
                t = sample_antitree(k, rng)
        else:
            t = sample_antitree_heavy(k, rng, 6)
        out = embed_antitree(host, t, k, known_free=(i >= full_check))
        br = out.case.branch if out.case else "?"
        branch_counts[br] = branch_counts.get(br, 0) + 1
        ok = out.ok and validate_embedding(t, host, out.embedding.map)
        if not ok or out.assertion_events():
            failures.append(
                {
                    "tree": to_json_obj(t.tree),
                    "ok": bool(out.ok),
                    "assertions": [e.get("tag") for e in out.assertion_events()],
                }
            )
    lo = branch_counts.get("LowDelta", 0) + branch_counts.get("MidDelta", 0)
    hi = sum(v for b, v in branch_counts.items() if b.startswith("Broom"))
    if lo == 0 or hi == 0:
        failures.append({"why": "branch-coverage", "counts": branch_counts})
    checked, free_found = _empty_class_below_13()
    summary.update({"branches": branch_counts, "emptiness_checked": checked})
    for d in free_found:
        failures.append({"why": "k<=12-class-not-empty", "host": d})
    return _report("theorem2-pg", params, failures, summary)


# -- criterion 5: Burr tightness --------------------------------------------------


@_suite("burr-tightness", kmax=6)
def suite_burr_tightness(params, jobs=1):
    kmax = params["kmax"]
    failures = []
    adds = 0
    for k in range(2, kmax + 1):
        d = gen_burr(k)
        star = validate_antitree(Digraph(k + 1, [(0, i) for i in range(1, k + 1)]))
        if d.a() != (k - 1) * d.n:
            failures.append({"k": k, "why": "arc-count"})
        st = oracle_embed(d, star)
        if st.verdict != "NotContained":
            failures.append({"k": k, "why": f"oracle-{st.verdict}"})
        for u in range(d.n):
            for v in range(d.n):
                if u == v or d.has_arc(u, v):
                    continue
                adds += 1
                why = _caterpillar_failure(Digraph(d.n, list(d.arcs) + [(u, v)]), star)
                if why:
                    failures.append({"k": k, "added": [u, v], "why": why})
    return _report("burr-tightness", params, failures, {"additions": adds})


# -- criterion 6: differential soundness ------------------------------------------


def _differential_one(seed):
    d, t = _random_pair(random.Random(seed), 12, (0.15, 0.3, 0.5, 0.8))
    n, k = d.n, t.k
    fails = []
    verdict = None  # the oracle's, asked at most once per pair
    out = embed_antitree(d, t, k)
    if out.ok:
        if not validate_embedding(t, d, out.embedding.map):
            fails.append("pipeline-invalid")
        verdict = oracle_embed(d, t).verdict
        if verdict != "Embeds":
            fails.append("pipeline-vs-oracle")
    else:
        f = out.failure
        if f.get("kind") == "density" and d.a() > (k - 1) * n:
            fails.append("bogus-density-refusal")
        if f.get("kind") == "freeness" and not ForbiddenWitness.from_json(f["witness"]).revalidate(d, f["s"]):
            fails.append("bogus-freeness-witness")
    if is_caterpillar(t) and d.a() > (k - 1) * n:
        if _caterpillar_failure(d, t):
            fails.append("prop3-miss")
        if (verdict or oracle_embed(d, t).verdict) != "Embeds":
            fails.append("prop3-vs-oracle")
    if fails:
        return _instance(d, t, fails=fails)
    return None


@_suite("differential", count=10_000, seed=60_001)
def suite_differential(params, jobs=1):
    return _per_seed("differential", _differential_one, params, jobs)


# -- criterion 7: metamorphic reversal ---------------------------------------------


@_suite("reversal-metamorphic", count=1000, pg_count=200, seed=909)
def suite_reversal(params, jobs=1):
    count, pg_count = params["count"], params["pg_count"]
    rng = random.Random(params["seed"])
    failures = []
    host_pg = gen_incidence(25)
    pg_free = is_k2s_free(host_pg, 2) is True

    def check_pair(d, t, known_free):
        o1 = embed_antitree(d, t, known_free=known_free)
        o2 = embed_antitree(reverse(d), reverse_antitree(t), known_free=known_free)
        if o1.ok != o2.ok:
            return "success-mismatch"
        if o1.ok and o1.embedding.map != o2.embedding.map:
            return "map-mismatch"
        if not o1.ok and o1.failure.get("kind") != o2.failure.get("kind"):
            return "refusal-mismatch"
        return None

    for i in range(count):
        if i < pg_count and pg_free:
            k = 13
            t = sample_antitree_heavy(k, rng, 6) if i % 2 else sample_antitree(k, rng)
            why = check_pair(host_pg, t, True)
            if why:
                failures.append({"i": i, "why": why, "tree": to_json_obj(t.tree)})
        else:
            d, t = _random_pair(rng, 10, (0.2, 0.5, 0.9))
            why = check_pair(d, t, False)
            if why:
                failures.append(_instance(d, t, i=i, why=why))
    return _report("reversal-metamorphic", params, failures, {"instances": count})


def open_output(path: str | None):
    """``path`` opened for writing (a null context when there is none); a path
    that cannot be opened raises AntembedError, so a caller that opens its
    output before the work fails at once, not after it."""
    if not path:
        return nullcontext()
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise AntembedError(f"cannot write {path!r}: {exc}") from None


def run_sweep(suite: str, params: dict | None = None, jobs: int = 1, out: str | None = None) -> dict:
    """Run a suite and return its report, written to ``out`` too when set.
    The suite name and parameters are checked, and the report file opened,
    before the run."""
    if suite not in SUITES:
        raise HypothesisViolated("unknown-suite", suite=suite)
    params = _resolve_params(suite, params or {})
    with open_output(out) as fh:
        report = SUITES[suite](params, jobs=jobs)
        if fh is not None:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return report
