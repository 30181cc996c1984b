"""Lines of ``src/antembed`` that no Tier-1 test and no benchmark op reaches.

A ``sys.settrace`` line tracer is installed before anything imports
``antembed``; its global hook returns a local hook only for frames whose file
is under ``src/antembed``, and every event of such a frame marks its line.
Under it, one process runs the Tier-1 command in process::

    pytest -q --continue-on-collection-errors -p no:cacheprovider tests

and then benchmark ops in process, each ``wl.instance(i)``, ``wl.op`` and
``wl.check``, at seeds 1302 and 8191: pg25-warm 400 ops, intake-cold 24 and
desk-mix 2,000.  A line counts as never reached when some code object
compiled from its module maps an instruction to it (``co_lines``,
recursively) and no event hit it.  ``sweeps._pmap`` is replaced by its own
serial branch, so the work of ``--jobs 2`` tests runs in this process, under
the tracer, rather than in untraced pool workers; only the lines that start
the pool read as never reached.

    python tools/reach.py

It prints one line per module with its count and the line numbers, then the
total.  It is not a test and not a benchmark.  It takes about 5 minutes on a
2-vCPU machine.
"""

from __future__ import annotations

import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(ROOT, "src", "antembed")
OPS = {"pg25-warm": 400, "intake-cold": 24, "desk-mix": 2000}
SEEDS = (1302, 8191)

hits: dict[str, set[int]] = {}


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    if not name.startswith(PKG + os.sep):
        return None
    lines = hits.setdefault(name, set())
    lines.add(frame.f_lineno)

    def local(frame, event, arg):
        lines.add(frame.f_lineno)
        return local

    return local


def _code_lines(code) -> set[int]:
    out = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            out |= _code_lines(const)
    return out


def _benchmark_ops() -> None:
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            for name, count in OPS.items():
                wl = workloads.WORKLOADS[name](seed, os.path.join(tmp, f"{name}-{seed}"))
                for i in range(count):
                    inst = wl.instance(i)
                    wl.check(inst, wl.op(inst))
                    wl.release(inst)
                wl.close()


def main() -> int:
    os.chdir(ROOT)
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    sys.settrace(_global)
    import pytest

    import antembed.sweeps as sweeps

    pmap = sweeps._pmap
    sweeps._pmap = lambda fn, items, jobs: pmap(fn, items, 1)

    pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", "tests"])
    _benchmark_ops()
    sys.settrace(None)
    total = 0
    for entry in sorted(os.listdir(PKG)):
        if not entry.endswith(".py"):
            continue
        path = os.path.join(PKG, entry)
        with open(path, encoding="utf-8") as fh:
            code = compile(fh.read(), path, "exec")
        never = sorted(_code_lines(code) - hits.get(path, set()))
        total += len(never)
        print(f"{entry} {len(never)} {' '.join(map(str, never))}".rstrip())
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
