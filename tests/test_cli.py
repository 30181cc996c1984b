import json
import random

import pytest

import antembed as ae
from antembed import cli, convex, sweeps
from antembed import tree_embedder as te
from antembed.cli import main
from antembed.digraph import Digraph, to_arclist


def _write(tmp_path, name, digraph, root=None):
    p = tmp_path / name
    p.write_text(to_arclist(digraph, root=root))
    return str(p)


def test_gen_and_check_free(tmp_path, capsys):
    assert main(["gen", "burr", "--k", "3"]) == 0
    out = capsys.readouterr().out
    d, _ = ae.parse_arclist(out)
    assert d.a() == 2 * d.n

    host = _write(tmp_path, "burr.txt", d)
    assert main(["check-free", "--host", host, "--s", "1"]) == 1
    line = capsys.readouterr().out
    w = ae.is_k2s_free(d, 1)
    assert line == json.dumps({"free": False, "s": 1, "witness": w.to_json()}) + "\n"
    assert ae.ForbiddenWitness.from_json(json.loads(line)["witness"]).revalidate(d, 1)
    assert ae.ForbiddenWitness.from_json(w.to_json()) == w

    fano = ae.gen_incidence(2)
    host = _write(tmp_path, "fano.txt", fano)
    assert main(["check-free", "--host", host, "--s", "2"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["check-free", "--host", host, "--s", "2", "--prune"])
    assert exc.value.code == 2
    assert "--prune" in capsys.readouterr().err


def test_gen_incidence(capsys):
    # PG(2,3): 13 points and 13 lines, each point on 4 lines
    assert main(["gen", "incidence", "--q", "3"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "26 52"
    assert ae.parse_arclist(out)[0] == ae.gen_incidence(3)


def test_embed_exit_codes(tmp_path, capsys):
    tree = Digraph(2, [(0, 1)])
    host = Digraph(3, [(0, 1), (2, 1)])
    tp, hp = _write(tmp_path, "t.txt", tree), _write(tmp_path, "h.txt", host)
    trace = tmp_path / "trace.json"
    assert main(["--json", "embed", "--tree", tp, "--host", hp, "--trace", str(trace)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] and payload["failure"] is None
    assert trace.exists()

    burr = ae.gen_burr(3)
    star = Digraph(4, [(0, 1), (0, 2), (0, 3)])
    tp, hp = _write(tmp_path, "star.txt", star), _write(tmp_path, "burr.txt", burr)
    assert main(["embed", "--tree", tp, "--host", hp]) == 2
    capsys.readouterr()
    assert main(["embed", "--tree", tp, "--host", hp, "--force-oracle"]) == 2
    capsys.readouterr()


def test_embed_cat_and_good_arcs(tmp_path, capsys):
    host = Digraph(4, [(u, v) for u in range(4) for v in range(4) if u != v])
    star = Digraph(3, [(0, 1), (0, 2)])
    tp, hp = _write(tmp_path, "t.txt", star), _write(tmp_path, "h.txt", host)
    assert main(["--json", "embed-cat", "--tree", tp, "--host", hp]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"]
    assert main(["--json", "embed-cat", "--tree", tp, "--host", hp, "--mode", "mindeg"]) == 0
    capsys.readouterr()
    assert main(["--json", "good-arcs", "--tree", tp, "--host", hp, "--order", "random:7"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] >= payload["lemma8_bound"]

    small = Digraph(3, [(0, 1), (2, 1)])
    hp2 = _write(tmp_path, "small.txt", small)
    assert main(["embed-cat", "--tree", _write(tmp_path, "s2.txt", star), "--host", hp2]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("host, tree, reason", [
    (Digraph(3, [(0, 1)]), Digraph(3, [(0, 1), (0, 2)]), "density"),
    (Digraph(4, [(0, 1), (0, 2), (0, 3)]), Digraph(3, [(1, 0), (2, 0)]), "sign-balance"),
])
def test_embed_cat_mindeg_refusal_exits_2(tmp_path, capsys, host, tree, reason):
    tp, hp = _write(tmp_path, "t.txt", tree), _write(tmp_path, "h.txt", host)
    assert main(["--json", "embed-cat", "--tree", tp, "--host", hp, "--mode", "mindeg"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert not payload["ok"] and payload["refusal"] == reason


def test_embed_exit_4_on_an_assertion_even_when_the_budget_then_runs_out(tmp_path, capsys, monkeypatch):
    # the case-3b fixture stalls on a host that is not free; the scan is told
    # it is, so the branch runs and asserts, and the oracle answers after it
    from test_embedder import CASE3B_EXCHANGE_HOST, DEEP7

    monkeypatch.setattr(te, "is_k2s_free", lambda d, s: True)
    tp = _write(tmp_path, "t.txt", Digraph(7, DEEP7))
    hp = _write(tmp_path, "h.txt", Digraph(9, CASE3B_EXCHANGE_HOST))
    for extra, ok, failure in (([], True, None), (["--budget", "1"], False, {"kind": "budget-exhausted"})):
        assert main(["--json", "embed", "--tree", tp, "--host", hp, *extra]) == 4
        payload = json.loads(capsys.readouterr().out)
        assert payload["assertions"] == ["case3b:stall"]
        assert (payload["ok"], payload["failure"]) == (ok, failure)


def test_embed_exit_3_when_the_forced_oracle_runs_out(tmp_path, capsys):
    rng = random.Random(3)
    host = Digraph(10, rng.sample([(u, v) for u in range(10) for v in range(10) if u != v], 34))
    tree = ae.sample_antitree(5, rng)
    tp, hp = _write(tmp_path, "t.txt", tree.tree), _write(tmp_path, "h.txt", host)
    args = ["--json", "embed", "--tree", tp, "--host", hp, "--force-oracle"]
    assert main(args + ["--budget", "1"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["failure"] == {"kind": "budget-exhausted"} and not payload["assertions"]
    # a density refusal that the oracle, given its default budget, overturns
    assert host.a() <= (tree.k - 1) * host.n
    assert main(args) == 0
    capsys.readouterr()


def test_select_and_oracle(tmp_path, capsys):
    host = ae.gen_random_dense(10, 4, seed=1)
    hp = _write(tmp_path, "h.txt", host)
    assert main(["--json", "select", "--host", hp, "--k", "4", "--r", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    audit = {"loop2": True, "edges": 28, "sides": [8, 9], "case": "I", "plus": 8, "minus": 9,
             "min_out": 3, "min_in": 2, "delta_plus_bar": 3, "delta_minus_bar": 2}
    assert payload == {"case": "I", "witness_vertex": 0, "arcs": 28, "audit": audit}
    # the read-only audit prints as the plain dict it was before
    assert main(["select", "--host", hp, "--k", "4", "--r", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "audit: {'loop2': True, 'edges': 28, 'sides': (8, 9), 'case': 'I', 'plus': 8, 'minus': 9, "
        "'min_out': 3, 'min_in': 2, 'delta_plus_bar': 3, 'delta_minus_bar': 2}"
    )

    tree = Digraph(3, [(0, 1), (2, 1)])
    tp = _write(tmp_path, "t.txt", tree)
    assert main(["--json", "oracle", "--tree", tp, "--host", hp]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] in ("Embeds", "NotContained")


def test_sweep_cli(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(
        ["sweep", "--suite", "burr-tightness", "--param", "kmax=3", "--out", str(out)]
    )
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["schema"] == 1 and report["ok"]
    capsys.readouterr()


def test_sweep_report_echoes_every_param(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["sweep", "--suite", "reversal-metamorphic", "--param", "count=3", "--param", "pg_count=0",
               "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["params"] == {"count": 3, "pg_count": 0, "seed": 909}
    capsys.readouterr()


def _sweep_error(capsys, param):
    assert main(["sweep", "--suite", "burr-tightness", "--param", param]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert "ok=" not in captured.out  # rejected before the run
    return captured.err


def test_sweep_param_without_a_value_exits_2(capsys):
    assert "'kmax'" in _sweep_error(capsys, "kmax")


def test_sweep_param_that_is_not_an_integer_exits_2(capsys):
    assert "kmax='x'" in _sweep_error(capsys, "kmax=x")


def test_sweep_unknown_param_exits_2(capsys):
    assert "'kmaxx'" in _sweep_error(capsys, "kmaxx=3")


def test_global_seed_flag_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "5", "gen", "random", "--n", "6", "--k", "2"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["gen", "random", "--n", "6", "--k", "2", "--seed", "5"]) == 0
    capsys.readouterr()


def test_cli_error_path(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("nonsense\n")
    assert main(["check-free", "--host", str(bad), "--s", "1"]) == 2
    capsys.readouterr()


def test_cli_malformed_arclist_exits_2_without_traceback(tmp_path, capsys):
    for text in ("3 1\n0 1\n1 2\n", "3 1\n0 x\n", "3 1 root 5\n0 1\n"):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        assert main(["check-free", "--host", str(bad), "--s", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


def _good_arcs_files(tmp_path):
    host = Digraph(4, [(0, 1), (0, 3), (1, 2), (2, 0), (3, 2)])
    star = Digraph(3, [(0, 1), (0, 2)])
    return ["good-arcs", "--tree", _write(tmp_path, "t.txt", star), "--host", _write(tmp_path, "h.txt", host)]


def test_good_arcs_witness_of_a_good_arc(tmp_path, capsys):
    assert main(["--json"] + _good_arcs_files(tmp_path) + ["--witness", "0,3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["good"] == [[0, 3]] and payload["witness"] == {"0": 0, "1": 1, "2": 3}


def _witness_error(tmp_path, capsys, value):
    assert main(_good_arcs_files(tmp_path) + ["--witness", value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    return err


def test_good_arcs_witness_of_an_arc_that_is_not_good(tmp_path, capsys):
    assert "arc (0, 1) is not a good arc" in _witness_error(tmp_path, capsys, "0,1")


def test_good_arcs_witness_of_an_arc_not_in_the_host(tmp_path, capsys):
    assert "arc (2, 1) is not in the host" in _witness_error(tmp_path, capsys, "2,1")


def test_good_arcs_witness_is_checked_before_it_is_printed(tmp_path, capsys, monkeypatch):
    # the replay checks nothing itself: a map that is no embedding (two tree
    # vertices on host vertex 3), or an embedding with an image on the free
    # side of its final chord, is an error and is not printed
    for bogus, tag in (({0: 0, 1: 3, 2: 3}, "witness-invalid"), ({0: 0, 1: 3, 2: 1}, "witness-side")):
        monkeypatch.setattr(convex, "reconstruct_witness", lambda *args, f=bogus: f)
        assert tag in _witness_error(tmp_path, capsys, "0,3")


def test_good_arcs_witness_malformed(tmp_path, capsys):
    for value in ("0", "0,1,2", "a,b"):
        assert repr(value) in _witness_error(tmp_path, capsys, value)


def test_unreadable_input_files_exit_2_without_traceback(tmp_path, capsys):
    tp = _write(tmp_path, "t.txt", Digraph(2, [(0, 1)]))
    not_utf8 = tmp_path / "latin1.txt"
    not_utf8.write_bytes(b"2 1\n0 1\n# caf\xe9\n")
    for path in (tmp_path / "missing.txt", tmp_path, not_utf8):
        for argv in (["check-free", "--host", str(path), "--s", "1"], ["embed", "--host", str(path), "--tree", tp]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot read {str(path)!r}") and "Traceback" not in err


def test_bad_order_value_exits_2(tmp_path, capsys):
    cmd = _good_arcs_files(tmp_path)
    for value in ("random:x", "random:", "random", "shuffle:3"):
        for sub in ("good-arcs", "embed-cat"):
            assert main([sub] + cmd[1:] + ["--order", value]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: bad --order value {value!r}")


def test_negative_budget_exits_2(tmp_path, capsys):
    tp = _write(tmp_path, "t.txt", Digraph(2, [(0, 1)]))
    hp = _write(tmp_path, "h.txt", Digraph(3, [(0, 1), (2, 1)]))
    for sub in ("embed", "oracle"):
        for value in ("-1", "x"):
            with pytest.raises(SystemExit) as exc:
                main([sub, "--tree", tp, "--host", hp, "--budget", value])
            assert exc.value.code == 2
            assert "--budget: expected a non-negative integer" in capsys.readouterr().err
    assert main(["oracle", "--tree", tp, "--host", hp, "--budget", "0"]) == 3
    capsys.readouterr()


def test_bad_jobs_value_exits_2(capsys):
    for value in ("0", "-1", "two"):
        with pytest.raises(SystemExit) as exc:
            main(["--jobs", value, "sweep", "--suite", "burr-tightness", "--param", "kmax=2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"--jobs: expected a positive integer, got {value!r}" in err
        assert "Traceback" not in err


def test_unwritable_output_files_exit_2_before_the_run(tmp_path, capsys, monkeypatch):
    tp = _write(tmp_path, "t.txt", Digraph(2, [(0, 1)]))
    hp = _write(tmp_path, "h.txt", Digraph(3, [(0, 1), (2, 1)]))
    missing = str(tmp_path / "no-such-dir" / "x.json")

    def not_reached(*args, **kwargs):
        raise AssertionError("the work ran before the output file was opened")

    monkeypatch.setattr(cli, "embed_antitree", not_reached)
    monkeypatch.setitem(sweeps.SUITES, "burr-tightness", not_reached)
    for argv in (["embed", "--host", hp, "--tree", tp, "--trace", missing],
                 ["embed", "--host", hp, "--tree", tp, "--trace", str(tmp_path)],
                 ["sweep", "--suite", "burr-tightness", "--param", "kmax=2", "--out", missing]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write ") and "Traceback" not in captured.err
        assert captured.out == ""
