import json
import random

import pytest

import antembed as ae
import antembed.sweeps as sw
from antembed.digraph import Digraph, from_json_obj
from antembed.errors import HypothesisViolated
from antembed.oracle_gen import sample_antitree_heavy


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
