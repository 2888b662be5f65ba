"""Command-line front end: load networks, run any engine or the centralized
reference evaluator, compile rule programs, emit results and metrics, and
generate fixture graphs.

Sub-commands: oracle-fo, oracle-fp, qe-fo, qe-fp, qe-fo-loc, qe-fp-loc,
netlog-run, datalog-run, compile, check-consistent, fixtures.  Reports are
byte-deterministic for a fixed invocation: tuples sort lexicographically and
metrics appear in the order IN-TIME/ROUND, DIST-TIME, MSG-SIZE, #MSG/NODE.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from .engine_fo import run_qe_fo
from .engine_fp import run_qe_fp
from .fixtures import exhaustive_graphs
from .local_engine import run_qe_fo_loc, run_qe_fp_loc
from .logic import free_vars, parse_fixpoint, parse_formula
from .netlog import netlog_stages, parse_datalog, parse_netlog, run_netlog
from .oracle import (
    eval_datalog,
    eval_fo,
    eval_fp,
    eval_fp_loc,
    grid_graph,
    path_graph,
    ring_graph,
    star_graph,
)
from .rewriter import compile as compile_rules
from .rewriter import emit_text
from .simnet import (
    RoundCapError,
    _ascii_int,
    check_locally_consistent,
    load_network,
    metrics_report,
    network_text,
    parse_identity_mode,
)


class CliError(ValueError):
    pass


# ----------------------------------------------------------------- plumbing


def _read_source(value: str) -> str:
    """Treat the value as a file path when one exists, else as inline text."""
    p = Path(value)
    if p.exists() and p.is_file():
        return p.read_text()
    return value


def _load_labels(path: Optional[str]) -> Optional[dict[int, int]]:
    if path is None:
        return None
    labels: dict[int, int] = {}
    for ln in Path(path).read_text().splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        try:
            node, label = map(_ascii_int, ln.split())
        except ValueError:
            raise CliError(
                f"label line must be two integers 'node label': {ln!r}"
            ) from None
        if node in labels:
            raise CliError(f"node {node} is labeled twice: {ln!r}")
        labels[node] = label
    return labels


def _load_net(args):
    if not args.net:
        raise CliError("--net is required for this command")
    labels = _load_labels(args.labels)
    mode = parse_identity_mode(args.identity, labels)
    if labels is not None and mode.kind != "local-consistent":
        raise CliError("--labels needs --identity local-consistent:<k>")
    return load_network(
        Path(args.net).read_text(), mode=mode, port_seed=args.port_seed
    )


def _load_graph(args):
    if not args.net:
        raise CliError("--net is required for this command")
    return load_network(Path(args.net).read_text()).graph


def _query_text(args) -> str:
    if not args.query:
        raise CliError("--query is required for this command")
    return _read_source(args.query)


def _requester(args) -> int:
    if args.req is None:
        raise CliError("--req is required for this command")
    return args.req


# A printed row is a fact (pred, values); a tuple is the fact with pred "".


def _row_text(row) -> str:
    pred, values = row
    return f"{pred}({','.join(str(v) for v in values)})"


def _print_rows(rows, fmt: str, header: str, tag: str) -> None:
    """Print the rows under `header`, or as csv lines that start with `tag`."""
    if fmt == "table":
        print(header)
    for row in rows:
        if fmt == "table":
            print("  " + _row_text(row))
        else:
            pred, values = row
            fields = [tag, pred] if pred else [tag]
            print(",".join(fields + [str(v) for v in values]))


def _print_relation(rel, fmt: str) -> None:
    rows = [("", t) for t in rel.sorted_tuples()]
    header = f"result: arity {rel.arity}, {len(rows)} tuples"
    _print_rows(rows, fmt, header, "result")


def _print_facts(facts, fmt: str) -> None:
    _print_rows(facts, fmt, f"facts: {len(facts)}", "fact")


def _print_placement(placement, fmt: str) -> None:
    if fmt == "table":
        print("placement:")
    for a in sorted(placement):
        rows = sorted(placement[a])
        if fmt == "table":
            print(f"  node {a}: " + " ".join(_row_text(r) for r in rows))
        else:
            _print_rows(rows, fmt, "", f"placement,{a}")


def _check_outcome(ok: bool) -> int:
    print("CHECK OK" if ok else "CHECK FAILED")
    return 0 if ok else 1


def _fo_oracle(g, f):
    return eval_fo(g, f, free_vars(f))


# ----------------------------------------------------------------- commands


# sub-command -> (query parser, distributed driver, centralized evaluator)
_QUERY_ENGINES = {
    "qe-fo": (parse_formula, run_qe_fo, _fo_oracle),
    "qe-fp": (parse_fixpoint, run_qe_fp, lambda g, q: eval_fp(g, q).final),
    "qe-fo-loc": (parse_formula, run_qe_fo_loc, _fo_oracle),
    "qe-fp-loc": (
        parse_fixpoint, run_qe_fp_loc, lambda g, q: eval_fp_loc(g, q).final
    ),
}


def cmd_oracle(args) -> int:
    """oracle-fo and oracle-fp: the evaluators of qe-fo and qe-fp."""
    g = _load_graph(args)
    parse, _, oracle = _QUERY_ENGINES["qe-" + args.command[len("oracle-"):]]
    _print_relation(oracle(g, parse(_query_text(args))), args.format)
    return 0


def cmd_qe(args) -> int:
    parse, run, oracle = _QUERY_ENGINES[args.command]
    net = _load_net(args)
    query = parse(_query_text(args))
    rel, metrics, placement = run(
        net,
        query,
        _requester(args),
        order_seed=args.order_seed,
        round_cap=args.rounds_cap,
        with_placement=True,
    )
    _print_relation(rel, args.format)
    _print_placement(
        {a: [("", t) for t in ts] for a, ts in placement.items()}, args.format
    )
    print(metrics_report(metrics, args.format))
    if args.check:
        return _check_outcome(rel.tuples == oracle(net.graph, query).tuples)
    return 0


def cmd_netlog_run(args) -> int:
    net = _load_net(args)
    program = parse_netlog(_query_text(args))
    instance, metrics = run_netlog(
        program, net, order_seed=args.order_seed, round_cap=args.rounds_cap
    )
    _print_facts(sorted(instance.union_facts()), args.format)
    _print_placement(instance.stores, args.format)
    print(metrics_report(metrics, args.format))
    if args.check:
        want = netlog_stages(program, net.graph)[-1]
        return _check_outcome(
            instance.union_facts() == want.union_facts()
        )
    return 0


def cmd_datalog_run(args) -> int:
    g = _load_graph(args)
    program = parse_datalog(_query_text(args))
    _print_facts(sorted(eval_datalog(program, g).final), args.format)
    return 0


def cmd_compile(args) -> int:
    source = parse_datalog(_query_text(args))
    if args.delta is not None:
        delta = args.delta
    elif args.net:
        delta = _load_graph(args).diameter
    else:
        raise CliError("compile needs --delta or --net to fix the diameter")
    out = compile_rules(source, delta)
    sys.stdout.write(emit_text(out))
    return 0


def cmd_check_consistent(args) -> int:
    g = _load_graph(args)
    labels = _load_labels(args.labels)
    if labels is None:
        raise CliError("--labels is required for this command")
    ok = check_locally_consistent(g, labels, args.radius)
    print(
        f"locally consistent at radius {args.radius}: {'yes' if ok else 'no'}"
    )
    return 0 if ok else 1


_FAMILIES = {
    "path": path_graph,
    "ring": ring_graph,
    "star": star_graph,
}


def cmd_fixtures(args) -> int:
    if args.family == "all":
        if not args.out:
            raise CliError("fixtures all needs --out DIRECTORY")
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        count = 0
        for name, g in exhaustive_graphs(args.size):
            (outdir / f"{name}.net").write_text(network_text(g))
            count += 1
        print(f"wrote {count} graphs to {outdir}")
        return 0
    if args.family == "grid":
        g = grid_graph(args.size, args.size)
        name = f"grid-{args.size}x{args.size}"
    else:
        g = _FAMILIES[args.family](args.size)
        name = f"{args.family}-{args.size}"
    text = network_text(g)
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        target = outdir / f"{name}.net"
        target.write_text(text)
        print(f"wrote {target}")
    else:
        sys.stdout.write(text)
    return 0


# ------------------------------------------------------------------- parser


def _integer(text: str) -> int:
    """An integer argument: ASCII `-?[0-9]+` only, so that other Unicode
    digits, a `+` sign and `_` separators are rejected, not reinterpreted."""
    try:
        return _ascii_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None


def _round_cap(text: str) -> int:
    """A `--rounds-cap` value: a positive ASCII integer."""
    cap = _integer(text)
    if cap < 1:
        raise argparse.ArgumentTypeError(
            f"{cap} is not a positive number of rounds"
        )
    return cap


# Every option a sub-command may take, in the order --help lists them.
_OPTIONS = {
    "--net": dict(help="network file (edge-list format)"),
    "--query": dict(help="query text or path to a file holding it"),
    "--req": dict(type=_integer, help="requesting node id"),
    "--identity": dict(
        default="global", help="global | local-consistent:<k> | anonymous"
    ),
    "--labels": dict(
        help="label map file for locally-consistent mode ('node label' lines)"
    ),
    "--port-seed": dict(type=_integer, default=0),
    "--order-seed": dict(type=_integer, default=0),
    "--rounds-cap": dict(type=_round_cap, default=None),
    "--format": dict(choices=("table", "csv"), default="table"),
    "--check": dict(
        action="store_true",
        help="also run the centralized evaluator and fail on mismatch",
    ),
    "--delta": dict(type=_integer, default=None, help="network diameter"),
    "--radius": dict(type=_integer, default=1),
}

_RUN_OPTIONS = (
    "--net", "--query", "--identity", "--labels", "--port-seed",
    "--order-seed", "--rounds-cap", "--format", "--check",
)
_EVAL_OPTIONS = ("--net", "--query", "--format")

# sub-command -> (handler, the options it reads)
_COMMANDS = {
    "oracle-fo": (cmd_oracle, _EVAL_OPTIONS),
    "oracle-fp": (cmd_oracle, _EVAL_OPTIONS),
    **{name: (cmd_qe, _RUN_OPTIONS + ("--req",)) for name in _QUERY_ENGINES},
    "netlog-run": (cmd_netlog_run, _RUN_OPTIONS),
    "datalog-run": (cmd_datalog_run, _EVAL_OPTIONS),
    "compile": (cmd_compile, ("--net", "--query", "--delta")),
    "check-consistent": (cmd_check_consistent, ("--net", "--labels", "--radius")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netquery",
        description="distributed graph-query engines with a centralized "
        "reference evaluator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, reads) in _COMMANDS.items():
        p = sub.add_parser(name)
        for flag, spec in _OPTIONS.items():
            if flag in reads:
                p.add_argument(flag, **spec)
        p.set_defaults(fn=fn)

    p = sub.add_parser("fixtures")
    p.add_argument(
        "family", choices=("path", "ring", "star", "grid", "all")
    )
    p.add_argument("size", type=_integer)
    p.add_argument("--out", help="directory to write graph files into")
    p.set_defaults(fn=cmd_fixtures)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, RoundCapError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
