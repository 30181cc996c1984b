import dataclasses
import json
import random
from types import SimpleNamespace

import pytest

import antembed as ae
import antembed.sweeps as sw
from antembed.digraph import Digraph, from_json_obj
from antembed.errors import HypothesisViolated
from antembed.oracle_gen import sample_antitree_heavy

# the real functions, for the faults below to wrap
REAL_EMBED = sw.embed_antitree
REAL_BRUTE = sw.brute_good_arcs
REAL_SELECT = sw.select_subdigraph


def test_parallel_map_matches_serial():
    rep1 = sw.suite_selector_audit({"count": 120, "seed": 5}, jobs=1)
    rep2 = sw.suite_selector_audit({"count": 120, "seed": 5}, jobs=2)
    assert rep1["ok"] and rep2["ok"]
    assert rep1["summary"] == rep2["summary"]


def test_run_sweep_writes_report(tmp_path):
    out = tmp_path / "r.json"
    rep = sw.run_sweep("burr-tightness", {"kmax": 2}, out=str(out))
    assert rep["ok"] and out.exists()
    with pytest.raises(HypothesisViolated):
        sw.run_sweep("nope")


def test_small_scale_suites_pass():
    assert sw.suite_prop3_exhaustive({"sample5": 500, "seed": 1})["ok"]
    assert sw.suite_selector_audit({"count": 200, "seed": 2})["ok"]
    assert sw.suite_differential({"count": 300, "seed": 3})["ok"]
    rep = sw.suite_reversal({"count": 40, "pg_count": 4, "seed": 4})
    assert rep["ok"]
    rep = sw.suite_good_arcs({"count": 400, "seed": 5})
    assert rep["summary"]["bound_failures"] == 0  # the equality clause may fail


def test_emptiness_helper():
    # every two-arc out-star {u->v, u->w}: none on 2 vertices, 3 on 3, 12 on 4
    checked, found = sw._empty_class_below_13(ns=(2, 3, 4))
    assert checked == 15 and not found


def test_big_delta2_fuzz_soundness():
    # small random hosts just above the density bound, not free (all 120
    # embed as BroomB_I): every outcome is either a validated embedding or a
    # tagged internal assertion, never a bogus map
    rng = random.Random(99)
    succ = asserts = 0
    for trial in range(120):
        k = rng.choice([13, 14, 16])
        t = sample_antitree_heavy(k, rng, k // 4 + 3)
        n = rng.randint(k + 2, 2 * k)
        want = (k - 1) * n + 1 + rng.randint(0, n)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        if want > len(pairs):
            continue
        d = Digraph(n, rng.sample(pairs, want))
        out = ae.embed_antitree(d, t, k, known_free=True, budget=0)
        if out.assertion_events():
            asserts += 1
            continue
        assert out.case.branch == "BroomB_I"
        assert ae.validate_embedding(t, d, out.embedding.map)
        succ += 1
    assert succ + asserts > 0


def test_mid_delta_fuzz_soundness():
    rng = random.Random(123)
    succ = 0
    for trial in range(120):
        k = rng.choice([12, 13, 15])
        n = rng.randint(k + 2, 2 * k)
        t = sample_antitree_heavy(k, rng, 2)
        st = ae.degree_stats(t)
        if 4 * st.delta <= k or st.delta2 > k // 4 + 2:
            continue
        want = (k - 1) * n + 1 + rng.randint(0, 2 * n)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        if want > len(pairs):
            continue
        d = Digraph(n, rng.sample(pairs, want))
        out = ae.embed_antitree(d, t, k, known_free=True, budget=0)
        if out.assertion_events():
            continue
        assert out.case.branch == "MidDelta"
        assert ae.validate_embedding(t, d, out.embedding.map)
        succ += 1
    assert succ > 0


def test_fault_injected_theorem2_pg_reports_a_broken_plane(monkeypatch):
    # PG(2,25) with the arcs into one line removed and one non-incident
    # point->line arc added: wrong shape, not K_{2,2}-free, not a plane
    real = sw.gen_incidence(25)
    line = real.n // 2
    extra = next((0, v) for v in range(line + 1, real.n) if not real.has_arc(0, v))
    broken = Digraph(real.n, [a for a in real.arcs if a[1] != line] + [extra])
    monkeypatch.setattr(sw, "gen_incidence", lambda q: broken)
    rep = sw.suite_theorem2_pg({"count": 2, "seed": 1302, "full_check": 2})
    assert not rep["ok"]
    whys = {f.get("why") for f in rep["failures"]}
    assert {"host-shape", "host-not-free", "projective-axioms"} <= whys
    assert json.loads(json.dumps(rep)) == rep


def test_fault_injected_prop3_failure_records_replay(monkeypatch):
    # an embed_caterpillar that swaps two images: the suite reports it, and
    # each record survives JSON and replays with the real function
    real = sw.embed_caterpillar

    def swapped(d, t, order=None):
        m = dict(real(d, t, order).map)
        m[0], m[1] = m[1], m[0]
        return ae.Embedding(map=m)

    monkeypatch.setattr(sw, "embed_caterpillar", swapped)
    rep = sw.suite_prop3_exhaustive({"sample5": 50, "seed": 1})
    assert not rep["ok"] and all(f["why"] == "invalid" for f in rep["failures"])
    assert json.loads(json.dumps(rep)) == rep
    for f in rep["failures"][:50]:
        d = from_json_obj(f["host"])
        t = ae.validate_antitree(from_json_obj(f["tree"]))
        assert ae.validate_embedding(t, d, real(d, t).map)


def _swapped_images(d, t, k=None, **kw):
    out = REAL_EMBED(d, t, k, **kw)
    if not out.ok:
        return out
    m = dict(out.embedding.map)
    m[0], m[1] = m[1], m[0]
    return dataclasses.replace(out, embedding=ae.Embedding(map=m))


def _density_refusal(d, t, k=None, **kw):
    return ae.EmbedOutcome(embedding=None, trace=[], failure={"kind": "density"})


def _non_common_witness(d, t, k=None, **kw):
    # 0 and 1 "share" a vertex that is not an out-neighbour of both
    x = next((v for v in range(2, d.n) if not (d.has_arc(0, v) and d.has_arc(1, v))), None)
    if x is None:
        return REAL_EMBED(d, t, k, **kw)
    w = ae.ForbiddenWitness(0, 1, 1, 1, frozenset({x}))
    return ae.EmbedOutcome(embedding=None, trace=[], failure={"kind": "freeness", "s": 1, "witness": w.to_json()})


def _verdict(verdict):
    return lambda d, t, budget=None: SimpleNamespace(verdict=verdict)


def _raising(*args, **kwargs):
    raise RuntimeError("injected")


def _faulty_report(monkeypatch, attr, fake, suite, params):
    """``suite``'s report with ``sw.<attr>`` replaced by ``fake``; the fault
    is undone before returning.  The report must fail and survive JSON."""
    monkeypatch.setattr(sw, attr, fake)
    rep = suite(params)
    monkeypatch.undo()
    assert not rep["ok"]
    assert json.loads(json.dumps(rep)) == rep
    return rep


@pytest.mark.parametrize(
    "attr, fake, tags",
    [
        ("embed_antitree", _swapped_images, {"pipeline-invalid"}),
        ("oracle_embed", _verdict("NotContained"), {"pipeline-vs-oracle", "prop3-vs-oracle"}),
        ("embed_antitree", _density_refusal, {"bogus-density-refusal"}),
        ("embed_antitree", _non_common_witness, {"bogus-freeness-witness"}),
        ("embed_caterpillar", _raising, {"prop3-miss"}),
    ],
)
def test_fault_injected_differential_records_replay(monkeypatch, attr, fake, tags):
    rep = _faulty_report(monkeypatch, attr, fake, sw.suite_differential, {"count": 40, "seed": 3})
    assert tags <= {tag for f in rep["failures"] for tag in f["fails"]}
    # each record's pair passes the suite's own check with the real functions
    for f in rep["failures"]:
        pair = from_json_obj(f["host"]), ae.validate_antitree(from_json_obj(f["tree"]))
        monkeypatch.setattr(sw, "_random_pair", lambda rng, nmax, densities: pair)
        assert sw._differential_one(0) is None


def test_fault_injected_reversal_reports_mismatches(monkeypatch):
    # a reverse that returns its input, in the PG(2,25) branch and the random one
    params = {"count": 12, "pg_count": 2, "seed": 4}
    rep = _faulty_report(monkeypatch, "reverse", lambda d: d, sw.suite_reversal, params)
    assert all(f["why"].endswith("-mismatch") for f in rep["failures"])
    assert {f["i"] < 2 for f in rep["failures"]} == {True, False}


@pytest.mark.parametrize(
    "attr, fake, why",
    [
        ("embed_caterpillar", _raising, "RuntimeError('injected')"),
        ("oracle_embed", _verdict("Embeds"), "oracle-Embeds"),
    ],
)
def test_fault_injected_burr_tightness(monkeypatch, attr, fake, why):
    rep = _faulty_report(monkeypatch, attr, fake, sw.suite_burr_tightness, {"kmax": 3})
    assert why in {f["why"] for f in rep["failures"]}


def _dp_least_arc_dropped(c, t):
    return REAL_BRUTE(c, t) - set(sorted(sw.good_arcs(c, t).stage_arcs[-1])[:1])


@pytest.mark.parametrize(
    "attr, fake, key, tag",
    [
        ("good_arcs_mindeg", _raising, "why", "RuntimeError('injected')"),
        ("brute_good_arcs", _dp_least_arc_dropped, "which", "unsound"),
    ],
)
def test_fault_injected_good_arcs(monkeypatch, attr, fake, key, tag):
    rep = _faulty_report(monkeypatch, attr, fake, sw.suite_good_arcs, {"count": 30, "seed": 5})
    assert rep["summary"]["bound_failures"] > 0
    assert tag in {f.get(key) for f in rep["failures"]}


@pytest.mark.parametrize(
    "attr, fake, tag",
    [
        ("select_subdigraph", lambda d, k, r: REAL_SELECT(d, k, r)._replace(sub=d), "cond-"),
        ("prune_pseudo", lambda d, k: Digraph(d.n, []), "prune"),
    ],
)
def test_fault_injected_selector_audit(monkeypatch, attr, fake, tag):
    rep = _faulty_report(monkeypatch, attr, fake, sw.suite_selector_audit, {"count": 20, "seed": 2})
    assert any(x.startswith(tag) for f in rep["failures"] for x in f["fails"])
