"""antembed benchmark: one workload per process, one caller in a closed loop.

    python3 perfbench/run.py --workload pg25-warm --seed 1302 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, each in a fresh interpreter

The library is imported from ``src/`` next to this directory; without it the
run fails before printing a result.  A run sets up its workload (three times
untraced, reporting the median as ``setup_s``), then times ops back to back
for ``--seconds`` seconds, and never stops before the first ``DIGEST_OPS``
ops, whose outcomes form the workload's ``outputs_sha256``.  At a seed listed
in ``spec.json`` that digest must equal the recorded one.

Times are reported at reference speed.  The machine this benchmark was
defined on (2 vCPUs shared with other tenants) changes speed by 20-40% over
seconds to minutes, for every process alike.  So the run co-measures that
speed: after each block of about 25 ms of ops (or each longer op, and around
each set-up) it runs ``reference_kernel``, a fixed pure-Python mix of big-int
bit operations and tuple/set/dict work that no library change can touch, for
5% of the block's time.  Each op's wall time is scaled by ``REF_KERNEL_S``
over the mean kernel time measured before and after its block; a reported
``latency_p50_ms`` is thus the wall time on a machine where the kernel takes
exactly 1 ms.  The raw wall-time figures are printed on ``info`` lines.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half the
time untraced and half with spans at every layer boundary (``spans.py``), on
the same instance sequence; it prints the per-layer metrics (raw wall time)
and the tracing overhead, requires both halves to give the same digest, and
writes the spans to ``perfbench/_work/spans-<workload>.jsonl``.

Lines before the last are ``provenance``, ``info``, ``problem`` or
``metric <workload> <name> <value> <unit>`` lines; ``error_rate`` is printed
there too.  The last line is the JSON result.

Failed ops.  ``error_rate`` counts every op that broke a property, including
the good-arc construction's known completeness gap (desk-mix ops whose good
arcs miss some that brute force finds; ``convex.gap_instances`` in the traced
run).  The gap is a fixed property of each instance, not a fault of the run:
its outcome is part of the recorded ``outputs_sha256``, and the run stays
correct.  The result's ``failed`` counts only the other failures, each of
which also makes the run incorrect, so it is 0 on a correct run.
"""

from __future__ import annotations

import argparse
import array
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(HERE, "_work")
SETUP_REPS = 3
REF_KERNEL_S = 0.001  # nominal time of one reference_kernel() call
REF_SHARE = 0.05      # kernel time spent per second of measured time
BLOCK_S = 0.025       # op time between two speed probes

with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _import_library():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import antembed
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import antembed from {src}: {exc}")
    if not os.path.abspath(antembed.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: antembed was imported from {antembed.__file__}, not from {src}")


def reference_kernel() -> int:
    """Fixed work that stands for the library's mix: wide-int bit counts, and
    building, deduplicating and sorting small tuples.  Never change it: every
    reported time is relative to it."""
    x = (1 << 1301) - 1
    acc = 0
    for i in range(1500):
        acc += ((x >> (i % 1300)) & (x >> 7)).bit_count() & 7
    seen = set()
    adj: dict[int, list[int]] = {}
    for i in range(600):
        u, v = (i * 7919) % 97, (i * 104729) % 89
        if u != v and (u, v) not in seen:
            seen.add((u, v))
            adj.setdefault(u, []).append(v)
    for lst in adj.values():
        acc += len(tuple(sorted(lst)))
    return acc + len(sorted(seen))


def probe(budget: float) -> float:
    """Mean reference_kernel time over at least one call and ``budget`` seconds."""
    clock = time.perf_counter
    start = clock()
    calls = 0
    while True:
        reference_kernel()
        calls += 1
        elapsed = clock() - start
        if elapsed >= budget:
            return elapsed / calls


class Phase:
    """Outcomes and latencies of one closed-loop stretch of ops."""

    def __init__(self):
        # compact arrays, so that harness memory hardly grows with the op count
        self.raw = array.array("d")
        self.latencies = array.array("d")  # at reference speed
        self.records: list[str] = []
        self.failures: dict[str, int] = {}
        self.kernel: list[float] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.records).encode()).hexdigest()

    def ops_per_s(self) -> float:
        return self.attempted / sum(self.latencies)

    def close_block(self, block_start: int, before: float) -> float:
        """Scale the ops since ``block_start`` by the speed probed around them."""
        block = self.raw[block_start:]
        after = probe(REF_SHARE * sum(block))
        self.kernel.append(after)
        scale = 2 * REF_KERNEL_S / (before + after)
        self.latencies.extend(x * scale for x in block)
        return after


def measure(wl, seconds: float, digest_ops: int, tracer=None) -> Phase:
    """Run ops back to back; only the library call of each op is timed."""
    phase = Phase()
    clock = time.perf_counter
    before = probe(BLOCK_S * REF_SHARE)
    block_start = 0
    block_time = 0.0
    start = clock()
    i = 0
    while i < digest_ops or clock() - start < seconds:
        inst = wl.instance(i)
        if tracer is not None:
            tracer.op = i
        err = None
        t0 = clock()
        try:
            res = wl.op(inst)
        except Exception as exc:  # a raising op is a failed op; the loop goes on
            err = exc
        t1 = clock()
        if tracer is not None:
            tracer.op = -1
        phase.raw.append(t1 - t0)
        if err is None:
            record, failure = wl.check(inst, res)
        else:
            record, failure = {"exception": type(err).__name__}, "exception:" + type(err).__name__
            if phase.failures.get(failure, 0) < 3:
                traceback.print_exception(err, file=sys.stderr)
        wl.release(inst)
        if i < digest_ops:
            phase.records.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
        if failure:
            phase.failures[failure] = phase.failures.get(failure, 0) + 1
        i += 1
        block_time += t1 - t0
        if block_time >= BLOCK_S:
            before = phase.close_block(block_start, before)
            block_start, block_time = len(phase.raw), 0.0
    if block_start < len(phase.raw):
        phase.close_block(block_start, before)
    return phase


def setup(cls, seed):
    """Build the workload; returns it with its set-up time, raw and at reference speed."""
    before = probe(BLOCK_S * REF_SHARE)
    t0 = time.perf_counter()
    wl = cls(seed, WORKDIR)
    dt = time.perf_counter() - t0
    after = probe(REF_SHARE * dt)
    return wl, dt, dt * 2 * REF_KERNEL_S / (before + after)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import GAP, WORKLOADS

    cls = WORKLOADS[name]
    os.makedirs(WORKDIR, exist_ok=True)
    expected = SPEC["workloads"][name]["outputs_sha256"].get(str(seed))
    metrics: dict[str, tuple[float, str]] = {}
    info: list[str] = []
    problems: list[str] = []

    if not trace:
        raw_setup, setup_times = [], []
        wl = None
        for _ in range(SETUP_REPS):
            if wl is not None:
                wl.close()
            wl, dt_raw, dt = setup(cls, seed)
            raw_setup.append(dt_raw)
            setup_times.append(dt)
        try:
            phase = measure(wl, seconds, cls.DIGEST_OPS)
        finally:
            wl.close()
        lat, raw = phase.latencies, phase.raw
        p90 = statistics.quantiles(lat, n=10)[8]
        beyond_p90 = sum(1 for x in lat if x > p90)
        metrics["ops_per_s"] = (phase.ops_per_s(), "1/s")
        metrics["latency_p50_ms"] = (statistics.median(lat) * 1e3, "ms")
        metrics["latency_p90_ms"] = (p90 * 1e3, "ms")
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        info.append(f"samples {len(lat)}, beyond latency_p90_ms {beyond_p90}"
                    + ("" if beyond_p90 >= 10 else " (fewer than ten: p90 is not resolved on this workload)"))
        info.append(f"raw wall time: ops_per_s {len(raw) / sum(raw):.6g}, "
                    f"latency_p50_ms {statistics.median(raw) * 1e3:.6g}, "
                    f"latency_p90_ms {statistics.quantiles(raw, n=10)[8] * 1e3:.6g}, "
                    f"setup_s {statistics.median(raw_setup):.6g}")
        info.append(f"reference_kernel mean {statistics.mean(phase.kernel) * 1e3:.4f} ms over "
                    f"{len(phase.kernel)} probes (nominal {REF_KERNEL_S * 1e3:g} ms)")
    else:
        from spans import Tracer

        wl = setup(cls, seed)[0]
        try:
            plain = measure(wl, seconds / 2, cls.DIGEST_OPS)
        finally:
            wl.close()
        tracer = Tracer()
        tracer.install()
        wl = setup(cls, seed)[0]
        try:
            phase = measure(wl, seconds / 2, cls.DIGEST_OPS, tracer)
        finally:
            wl.close()
        metrics.update(tracer.layer_metrics())
        metrics["convex.gap_instances"] = (phase.failures.get(GAP, 0), "count")
        metrics["trace.ops"] = (phase.attempted, "count")
        metrics["trace.overhead_ops_per_s"] = (phase.ops_per_s() - plain.ops_per_s(), "1/s")
        metrics["trace.overhead_frac"] = (1 - phase.ops_per_s() / plain.ops_per_s(), "ratio")
        spans_path = os.path.join(WORKDIR, f"spans-{name}.jsonl")
        tracer.write(spans_path)
        info.append(f"ops_per_s at reference speed: untraced {plain.ops_per_s():.6g}, "
                    f"traced {phase.ops_per_s():.6g}")
        info.append(f"{len(tracer.spans)} spans written to {os.path.relpath(spans_path, ROOT)}")
        if plain.digest() != phase.digest():
            problems.append(f"traced outputs_sha256 {phase.digest()} differs from untraced {plain.digest()}")

    digest = phase.digest()
    info.append(f"outputs_sha256 {digest} over the first {cls.DIGEST_OPS} ops; "
                f"recorded for this seed: {expected or 'none'}")
    if expected is not None and digest != expected:
        problems.append(f"outputs_sha256 {digest} differs from the recorded {expected}")
    unexpected = {k: v for k, v in phase.failures.items() if k != GAP}
    if unexpected:
        problems.append(f"failed ops: {unexpected}")
    gaps = phase.failures.get(GAP, 0)
    info.append(f"failed {phase.failed} of {phase.attempted}, of which {gaps} the known completeness gap; "
                f"by reason {phase.failures}")
    return {
        "correct": not problems,
        "attempted": phase.attempted,
        "failed": phase.failed - gaps,
        "metrics": metrics,
        "info": info,
        "problems": problems,
        "error_rate": phase.failed / phase.attempted,
    }


def _provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "default_seed": SPEC["default_seed"],
        "held_out_seed": SPEC["held_out_seed"],
    }


def run_all(args) -> int:
    """Each workload in a fresh interpreter, so no cache or heap carries over."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in SPEC["workloads"]:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            total["metrics"][f"{name}.{key}"] = val
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*SPEC["workloads"], "all"])
    p.add_argument("--seed", type=int, default=SPEC["default_seed"])
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    _import_library()
    if args.workload == "all":
        return run_all(args)
    print("provenance " + json.dumps(_provenance(args)))
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in res.pop("info"):
        print(f"info {args.workload} {line}")
    for line in res.pop("problems"):
        print(f"problem {args.workload} {line}")
    for key, (value, unit) in res["metrics"].items():
        print(f"metric {args.workload} {key} {value!r} {unit}")
    print(f"metric {args.workload} error_rate {res.pop('error_rate')!r} ratio")
    res["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
