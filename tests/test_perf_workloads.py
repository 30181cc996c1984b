"""Benchmark ops at workload scale: pg25-warm ops give the same outputs on one
warm host whatever order they run in, and the first ``DIGEST_OPS`` ops of each
workload give the outputs recorded in ``perfbench/spec.json``."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

SEED = 1302
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _record(wl, i, allowed=(None,)):
    """Op ``i``'s digest record, asserting that its failure is one of ``allowed``."""
    inst = wl.instance(i)
    record, failure = wl.check(inst, wl.op(inst))
    assert failure in allowed, (i, failure)
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _spec_digest(name, seed):
    spec = json.loads((PERFBENCH / "spec.json").read_text(encoding="utf-8"))
    return spec["workloads"][name]["outputs_sha256"][str(seed)]


def _digest(records):
    return hashlib.sha256("\n".join(records).encode()).hexdigest()


def test_pg25_warm_outputs_do_not_depend_on_op_order(tmp_path):
    wl = _load_workloads().Pg25Warm(SEED, str(tmp_path))
    ops = range(wl.DIGEST_OPS)
    forward = {i: _record(wl, i) for i in ops}
    backward = {i: _record(wl, i) for i in reversed(ops)}
    assert backward == forward
    assert _digest(forward[i] for i in ops) == _spec_digest(wl.name, SEED)


def _first_ops_digest(wl, allowed=(None,)):
    """The outputs digest of the workload's first ``DIGEST_OPS`` ops, run in order."""
    try:
        return _digest([_record(wl, i, allowed) for i in range(wl.DIGEST_OPS)])
    finally:
        wl.close()


def test_intake_cold_outputs_match_spec(tmp_path):
    # each op parses a new host file (bulk path) and scans it for freeness
    wl = _load_workloads().IntakeCold(SEED, str(tmp_path))
    assert _first_ops_digest(wl) == _spec_digest(wl.name, SEED)


@pytest.mark.parametrize("workload, seed", [("Pg25Warm", 8191), ("DeskMix", SEED), ("DeskMix", 8191),
                                            ("IntakeCold", 8191)])
def test_first_ops_match_spec(tmp_path, workload, seed):
    # desk-mix's differential ops run embed_antitree, the k == 1 path included;
    # its good-arc ops may meet the construction's known completeness gap
    mod = _load_workloads()
    wl = getattr(mod, workload)(seed, str(tmp_path))
    allowed = (None, mod.GAP) if workload == "DeskMix" else (None,)
    assert _first_ops_digest(wl, allowed) == _spec_digest(wl.name, seed)
