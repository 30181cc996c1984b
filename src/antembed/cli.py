"""Command-line front door.

Subcommands: embed, embed-cat, good-arcs, check-free, select, gen, oracle,
sweep.  Graph files use the arc-list format (``n m`` header then ``u v``
lines, ``#`` comments); ``--json`` switches machine-readable output on.

Exit codes for ``embed``: 0 success, 2 certified refusal, 3 when the
oracle's node budget runs out, 4 internal assertion encountered (4 wins
when the oracle it falls back to then runs out of budget too).
``check-free`` exits 1 when a witness is found.  Every subcommand exits 2
with one ``error: ...`` line on an input file it cannot read or parse, on an
output file (``embed --trace``, ``sweep --out``) it cannot open, which is
opened before the work, and on a bad flag value (a negative ``--budget``, a
``--jobs`` below 1, an ``--order`` other than ``id`` or ``random:<seed>``).
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from . import sweeps
from .antitree import validate_antitree
from .convex import ConvexDigraph, checked_witness, embed_caterpillar, embed_caterpillar_mindeg, good_arcs
from .digraph import parse_arclist, to_arclist
from .embedding import validate_embedding
from .errors import AntembedError, HypothesisViolated
from .freeness import is_k2s_free
from .oracle_gen import gen_burr, gen_incidence, gen_random_dense, oracle_embed
from .subdigraph import select_subdigraph
from .tree_embedder import embed_antitree


def _load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise AntembedError(f"cannot read {path!r}: {exc}") from None
    return parse_arclist(text)


def _load_tree(path):
    d, _root = _load(path)
    return validate_antitree(d)


def _emit(obj, as_json):
    if as_json:
        print(json.dumps(obj, indent=1, default=str))
    else:
        for key, val in obj.items():
            print(f"{key}: {val}")


def _order_from_flag(flag, n):
    if flag is None or flag == "id":
        return None
    head, _, seed = flag.partition(":")
    try:
        rng = random.Random(int(seed)) if head == "random" else None
    except ValueError:
        rng = None
    if rng is None:
        raise AntembedError(f"bad --order value {flag!r}: expected 'id' or 'random:<integer seed>'")
    order = list(range(n))
    rng.shuffle(order)
    return order


def cmd_embed(args) -> int:
    host, _ = _load(args.host)
    tree = _load_tree(args.tree)
    with sweeps.open_output(args.trace) as fh:
        out = embed_antitree(host, tree, force_oracle=args.force_oracle, budget=args.budget)
        if fh is not None:
            json.dump(out.trace, fh, indent=1, default=str)
    payload = {
        "ok": out.ok,
        "branch": out.case.branch if out.case else None,
        "map": out.embedding.map if out.ok else None,
        "failure": out.failure,
        "assertions": [e.get("tag") for e in out.assertion_events()],
    }
    _emit(payload, args.json)
    if out.assertion_events():
        return 4
    if out.ok:
        return 0
    if out.failure and out.failure.get("kind") == "budget-exhausted":
        return 3
    return 2


def cmd_embed_cat(args) -> int:
    host, _ = _load(args.host)
    tree = _load_tree(args.tree)
    order = _order_from_flag(args.order, host.n)
    try:
        if args.mode == "density":
            emb = embed_caterpillar(host, tree, order)
        else:
            emb = embed_caterpillar_mindeg(host, tree, order)
    except HypothesisViolated as exc:
        _emit({"ok": False, "refusal": exc.reason, "data": exc.data}, args.json)
        return 2
    _emit({"ok": True, "map": emb.map}, args.json)
    return 0


def cmd_good_arcs(args) -> int:
    host, _ = _load(args.host)
    tree = _load_tree(args.tree)
    table = good_arcs(ConvexDigraph(host, _order_from_flag(args.order, host.n)), tree)
    final = sorted(table.stage_arcs[-1])
    payload = {"good": final, "count": len(final), "lemma8_bound": table.lemma8_bound}
    if args.witness:
        try:
            u, v = (int(x) for x in args.witness.split(","))
        except ValueError:
            raise AntembedError(f"bad --witness value {args.witness!r}: expected an arc 'u,v'") from None
        payload["witness"] = checked_witness(table, (u, v), functools.partial(validate_embedding, tree, host))
    _emit(payload, args.json)
    return 0


def cmd_check_free(args) -> int:
    host, _ = _load(args.host)
    res = is_k2s_free(host, args.s)
    if res is True:
        _emit({"free": True, "s": args.s}, args.json)
        return 0
    print(json.dumps({"free": False, "s": args.s, "witness": res.to_json()}))
    return 1


def cmd_select(args) -> int:
    host, _ = _load(args.host)
    sel = select_subdigraph(host, args.k, args.r)
    _emit(
        {
            "case": sel.case_tag,
            "witness_vertex": sel.witness_vertex,
            "arcs": sel.sub.a(),
            "audit": dict(sel.audit),
        },
        args.json,
    )
    return 0


def cmd_gen(args) -> int:
    if args.family == "burr":
        d = gen_burr(args.k)
    elif args.family == "incidence":
        d = gen_incidence(args.q)
    else:
        d = gen_random_dense(args.n, args.k, args.seed)
    sys.stdout.write(to_arclist(d))
    return 0


def cmd_oracle(args) -> int:
    host, _ = _load(args.host)
    tree = _load_tree(args.tree)
    st = oracle_embed(host, tree, args.budget)
    _emit(
        {
            "verdict": st.verdict,
            "witness": st.witness,
            "nodes": st.nodes_expanded,
            "elapsed": round(st.elapsed, 4),
        },
        args.json,
    )
    return 0 if st.verdict != "Inconclusive" else 3


def cmd_sweep(args) -> int:
    params = {}
    for kv in args.param or []:
        key, eq, val = kv.partition("=")
        if not eq:
            raise AntembedError(f"bad --param value {kv!r}: expected key=value")
        params[key] = val
    report = sweeps.run_sweep(args.suite, params, jobs=args.jobs, out=args.out)
    print(
        f"suite={report['suite']} ok={report['ok']} "
        f"failures={len(report['failures'])} summary={report['summary']}"
    )
    return 0 if report["ok"] else 1


def _int_from(low: int, what: str):
    """An argparse type: an integer of at least ``low``, else one error line."""
    def parse(text: str) -> int:
        try:
            if int(text) >= low:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return parse


_budget = _int_from(0, "a non-negative integer")
_jobs = _int_from(1, "a positive integer")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="antembed")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--jobs", type=_jobs, default=1)
    sub = p.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("embed", help="run the full tree-embedding pipeline")
    s.add_argument("--tree", required=True)
    s.add_argument("--host", required=True)
    s.add_argument("--force-oracle", action="store_true")
    s.add_argument("--budget", type=_budget, default=None)
    s.add_argument("--trace", default=None)
    s.set_defaults(fn=cmd_embed)

    s = sub.add_parser("embed-cat", help="caterpillar embedding via good arcs")
    s.add_argument("--tree", required=True)
    s.add_argument("--host", required=True)
    s.add_argument("--mode", choices=["density", "mindeg"], default="density")
    s.add_argument("--order", default="id")
    s.set_defaults(fn=cmd_embed_cat)

    s = sub.add_parser("good-arcs", help="list good arcs, optionally a witness")
    s.add_argument("--tree", required=True)
    s.add_argument("--host", required=True)
    s.add_argument("--order", default="id")
    s.add_argument("--witness", default=None, help="arc 'u,v' to reconstruct")
    s.set_defaults(fn=cmd_good_arcs)

    s = sub.add_parser("check-free", help="forbidden K_{2,s} orientation scan")
    s.add_argument("--host", required=True)
    s.add_argument("--s", type=int, required=True)
    s.set_defaults(fn=cmd_check_free)

    s = sub.add_parser("select", help="two-regime subdigraph selection")
    s.add_argument("--host", required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--r", type=int, required=True)
    s.set_defaults(fn=cmd_select)

    s = sub.add_parser("gen", help="instance generators")
    gsub = s.add_subparsers(dest="family", required=True)
    g = gsub.add_parser("burr")
    g.add_argument("--k", type=int, required=True)
    g = gsub.add_parser("incidence")
    g.add_argument("--q", type=int, required=True)
    g = gsub.add_parser("random")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    s.set_defaults(fn=cmd_gen)

    s = sub.add_parser("oracle", help="exact backtracking embedding oracle")
    s.add_argument("--tree", required=True)
    s.add_argument("--host", required=True)
    s.add_argument("--budget", type=_budget, default=None)
    s.set_defaults(fn=cmd_oracle)

    s = sub.add_parser("sweep", help="run a registered acceptance suite")
    s.add_argument("--suite", required=True, choices=sorted(sweeps.SUITES))
    s.add_argument("--param", action="append", help="key=value with an integer value, repeatable")
    s.add_argument("--out", default=None, help="write the JSON report here")
    s.set_defaults(fn=cmd_sweep)
    return p


_parser = functools.cache(build_parser)  # one parser per process; parse_args leaves it unchanged


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except AntembedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
