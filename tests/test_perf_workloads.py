"""Benchmark ops at workload scale: pg25-warm ops give the same outputs on one
warm host whatever order they run in, and the first intake-cold requests (a
fresh host file each) give the outputs recorded in ``perfbench/spec.json``."""

import hashlib
import importlib.util
import json
from pathlib import Path

SEED = 1302
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_pg25_warm_outputs_do_not_depend_on_op_order(tmp_path):
    wl = _load_workloads().Pg25Warm(SEED, str(tmp_path))
    ops = range(wl.DIGEST_OPS)

    def records(order):
        out = {}
        for i in order:
            inst = wl.instance(i)
            record, failure = wl.check(inst, wl.op(inst))
            out[i] = (json.dumps(record, sort_keys=True, separators=(",", ":")), failure)
        return out

    forward = records(ops)
    backward = records(reversed(ops))
    assert backward == forward
    assert all(failure is None for _, failure in forward.values())
    digest = hashlib.sha256("\n".join(forward[i][0] for i in ops).encode()).hexdigest()
    spec = json.loads((PERFBENCH / "spec.json").read_text(encoding="utf-8"))
    assert digest == spec["workloads"][wl.name]["outputs_sha256"][str(SEED)]


def test_intake_cold_outputs_match_spec(tmp_path):
    # each op parses a new host file (bulk path) and scans it for freeness
    wl = _load_workloads().IntakeCold(SEED, str(tmp_path))
    records = []
    try:
        for i in range(wl.DIGEST_OPS):
            inst = wl.instance(i)
            record, failure = wl.check(inst, wl.op(inst))
            assert failure is None, (i, failure)
            records.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
    finally:
        wl.close()
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    spec = json.loads((PERFBENCH / "spec.json").read_text(encoding="utf-8"))
    assert digest == spec["workloads"][wl.name]["outputs_sha256"][str(SEED)]
