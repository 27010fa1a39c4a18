"""Command-line interface.

Subcommands: encode, train, export, eval, cv, oracle, sweep.  Exit codes:
0 success, 2 usage error, 3 a solve hit its time limit (the incumbent is
still written), 1 any other failure.  Artifacts embed the configuration and
seed and carry no timing fields, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .encoding import EncodedDataset, binarize_for_simple_branching, build_schema, encode, parse_table
from .errors import GroupTreeError
from .experiments import cross_validate_topology, sensitivity_sweep, train_test_run
from .model import BuildConfig, build_model
from .mps import export_lp, export_mps
from .oracle import DEFAULT_BUDGET, enumerate_optimal
from .solver import OPTIMAL, SolveConfig
from .topology import parse_shape, preset
from .tree import DecisionTree, evaluate

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_TIME_LIMIT = 3


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GroupTreeError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grouptree",
        description="Optimal small decision trees for categorical data.",
    )
    parser.add_argument("--version", action="version", version=f"grouptree {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_flags(p):
        p.add_argument("--data", required=True, help="input table path")
        p.add_argument("--format", default="csv", choices=["csv", "monks"],
                       help="input format (default csv)")
        p.add_argument("--label-col", default=None,
                       help="label column name or index (default: last CSV column)")
        p.add_argument("--label-positive", default=None,
                       help="raw label value mapped to +1 (default: -1, 1 and +1 by "
                            "value, else the lexicographically larger)")
        p.add_argument("--simple-branching", action="store_true",
                       help="restrict tests to single original bits via (bit, complement) groups")

    def add_model_flags(p, specificity=_rational):
        p.add_argument("--topology", default="depth2",
                       help="preset name or parenthesis shape, e.g. '((# #) (# #))'")
        p.add_argument("--no-strengthen", action="store_true")
        p.add_argument("--no-anchor", action="store_true")
        p.add_argument("--no-relax", action="store_true",
                       help="declare every variable integral")
        p.add_argument("--keep-unused-c", action="store_true",
                       help="keep routing variables for wrong-class leaves")
        p.add_argument("--forbid-trivial", action="store_true",
                       help="forbid tests that route all samples one way")
        p.add_argument("--class-weight", type=_rational, default="1",
                       help="weight of each correct negative (rational, e.g. 3/2)")
        floor = p.add_mutually_exclusive_group()
        floor.add_argument("--min-specificity", type=specificity, default=None,
                           help="train for max sensitivity at this specificity floor "
                                "(sweep: comma-separated floors)")
        floor.add_argument("--min-sensitivity", type=_rational, default=None,
                           help="train for max specificity at this sensitivity floor")

    def add_run_flags(p):
        p.add_argument("--time-limit", type=float, default=1800.0)
        p.add_argument("--node-limit", type=int, default=None,
                       help="stop branch and bound after this many nodes")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="artifact path (default stdout)")
        p.add_argument("--emit", default="json", choices=["table", "json"])

    p = sub.add_parser("encode", help="write the grouped one-hot dataset as JSON")
    add_data_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("train", help="protocol split, solve, report metrics and tree")
    add_data_flags(p)
    add_model_flags(p)
    add_run_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("export", help="emit the model for the full dataset as MPS or LP")
    add_data_flags(p)
    add_model_flags(p)
    p.add_argument("--out", default=None)
    p.add_argument("--emit", default="mps", choices=["mps", "lp"])
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("eval", help="evaluate a saved tree on a dataset")
    add_data_flags(p)
    p.add_argument("--tree", required=True, help="tree JSON path")
    p.add_argument("--out", default=None)
    p.add_argument("--emit", default="json", choices=["table", "json"])
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("cv", help="choose a topology by 4-fold cross-validation")
    add_data_flags(p)
    add_model_flags(p)
    add_run_flags(p)
    p.add_argument("--topologies", default="depth2,depth2_5,depth3,imbalanced",
                   help="comma-separated candidate topologies")
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("oracle", help="exhaustive-search optimum (small instances)")
    add_data_flags(p)
    add_model_flags(p)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--out", default=None)
    p.add_argument("--emit", default="json", choices=["table", "json"])
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("sweep", help="max-sensitivity solves over specificity floors")
    add_data_flags(p)
    add_model_flags(p, specificity=lambda text: [_rational(v) for v in text.split(",")])
    add_run_flags(p)
    p.set_defaults(func=cmd_sweep)

    return parser


# -- helpers ----------------------------------------------------------------


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _load_data(args) -> EncodedDataset:
    text = Path(args.data).read_text(encoding="utf-8")
    label_col = args.label_col
    if label_col is not None and label_col.lstrip("-").isdigit():
        label_col = int(label_col)
    table = parse_table(
        text,
        format=args.format,
        label_column=label_col,
        positive_label=args.label_positive,
    )
    data = encode(table, build_schema(table))
    if args.simple_branching:
        data = binarize_for_simple_branching(data)
    return data


def _topology(name: str):
    """A shape in parentheses, else a preset by name: a typo lists the presets."""
    if "(" not in name:
        return preset(name)
    return parse_shape(name)


def _build_config(args) -> BuildConfig:
    min_spec, min_sens = args.min_specificity, args.min_sensitivity
    if isinstance(min_spec, list):  # sweep floors: the config echo shows the first
        min_spec = min_spec[0]
    return BuildConfig(
        strengthen=not args.no_strengthen,
        anchor=not args.no_anchor,
        relax_integrality=not args.no_relax,
        drop_unused_c=not args.keep_unused_c,
        forbid_trivial_branch=args.forbid_trivial,
        class_weight=args.class_weight,
        min_specificity=min_spec,
        min_sensitivity=min_sens,
    )


def _config_echo(args, extra=None) -> dict:
    echo = {
        "tool": "grouptree",
        "version": __version__,
        "command": args.command,
        "data": args.data,
        "format": args.format,
        "label_col": args.label_col,
        "label_positive": args.label_positive,
        "simple_branching": args.simple_branching,
    }
    for key in ("topology", "seed", "time_limit"):
        if hasattr(args, key):
            echo[key] = getattr(args, key)
    if hasattr(args, "no_strengthen"):
        echo["build"] = _build_config(args).as_dict()
    if extra:
        echo.update(extra)
    return echo


def _write(args, text: str) -> None:
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _solve_config(args) -> SolveConfig:
    return SolveConfig(time_limit=args.time_limit, node_limit=args.node_limit)


def _emit(args, payload: dict, table_text: str) -> None:
    """Write ``table_text`` under ``--emit table``, else ``payload`` as JSON."""
    json_text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _write(args, table_text if args.emit == "table" else json_text)


def _run_block(run) -> dict:
    """Run-JSON keys shared by ``train`` and ``cv``."""
    return {
        "solve": run.solve.as_dict(),
        "train_metrics": run.train_metrics.as_dict(),
        "test_metrics": run.test_metrics.as_dict(),
        "tree": json.loads(run.tree.to_json()),
    }


def _metrics_table(rows: list[tuple]) -> str:
    widths = [max(len(str(r[c])) for r in rows) for c in range(len(rows[0]))]
    lines = []
    for r in rows:
        lines.append("  ".join(str(v).ljust(w) for v, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


# -- subcommands -------------------------------------------------------------


def cmd_encode(args) -> int:
    data = _load_data(args)
    _write(args, data.to_json() + "\n")
    return EXIT_OK


def cmd_train(args) -> int:
    data = _load_data(args)
    run = train_test_run(data, _topology(args.topology), _build_config(args),
                         _solve_config(args), seed=args.seed)
    rendered = run.tree.render(data.schema)
    rows = [("side", "accuracy", "tpr", "tnr")]
    for side, m in (("train", run.train_metrics), ("test", run.test_metrics)):
        rows.append((side, f"{m.accuracy:.4f}", f"{m.sensitivity:.4f}", f"{m.specificity:.4f}"))
    payload = {
        "config": _config_echo(args),
        "split": {"train_size": len(run.train_indices), "test_size": len(run.test_indices)},
        **_run_block(run),
        "tree_rendered": rendered.splitlines(),
    }
    _emit(args, payload, _metrics_table(rows) + rendered + "\n")
    return EXIT_OK if run.solve.status == OPTIMAL else EXIT_TIME_LIMIT


def cmd_export(args) -> int:
    data = _load_data(args)
    topo = _topology(args.topology)
    model = build_model(data, topo, _build_config(args))
    text = export_mps(model) if args.emit == "mps" else export_lp(model)
    _write(args, text)
    return EXIT_OK


def cmd_eval(args) -> int:
    data = _load_data(args)
    tree = DecisionTree.from_json(Path(args.tree).read_text(encoding="utf-8"))
    metrics = evaluate(tree, data)
    rows = [("n", "accuracy", "tpr", "tnr"),
            (metrics.n, f"{metrics.accuracy:.4f}",
             f"{metrics.sensitivity:.4f}", f"{metrics.specificity:.4f}")]
    _emit(args, {"config": _config_echo(args, {"tree": args.tree}),
                 "metrics": metrics.as_dict()}, _metrics_table(rows))
    return EXIT_OK


def cmd_cv(args) -> int:
    data = _load_data(args)
    topologies = [_topology(t.strip()) for t in args.topologies.split(",")]
    result = cross_validate_topology(
        data, topologies, _build_config(args), _solve_config(args), seed=args.seed
    )
    payload = {
        "config": _config_echo(args, {"topologies": args.topologies}),
        "chosen": result.chosen,
        "chosen_leaf_count": result.chosen_leaf_count,
        "mean_validation_accuracy": result.mean_validation_accuracy,
        **_run_block(result.final),
    }
    rows = [("topology", "mean_val_acc")]
    for name, acc in result.mean_validation_accuracy.items():
        rows.append((name, f"{acc:.4f}"))
    rows.append(("chosen", result.chosen))
    _emit(args, payload, _metrics_table(rows))
    return EXIT_OK if result.final.solve.status == OPTIMAL else EXIT_TIME_LIMIT


def cmd_oracle(args) -> int:
    data = _load_data(args)
    topo = _topology(args.topology)
    cfg = _build_config(args)
    objective, tree = enumerate_optimal(
        data,
        topo,
        class_weight=cfg.class_weight,
        min_specificity=cfg.min_specificity,
        min_sensitivity=cfg.min_sensitivity,
        forbid_trivial=cfg.forbid_trivial_branch,
        budget=args.budget,
    )
    rendered = tree.render(data.schema)
    payload = {
        "config": _config_echo(args),
        "objective": float(objective),
        "tree": json.loads(tree.to_json()),
        "tree_rendered": rendered.splitlines(),
    }
    _emit(args, payload, f"objective {float(objective)}\n{rendered}\n")
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.min_specificity is None:
        print("error: sweep needs --min-specificity with comma-separated floors",
              file=sys.stderr)
        return EXIT_USAGE
    rows = sensitivity_sweep(_load_data(args), _topology(args.topology), args.min_specificity,
                             _build_config(args), _solve_config(args), seed=args.seed)
    payload = {
        "config": _config_echo(args),
        "rows": [
            {
                "min_specificity": str(r.floor),
                "train_tpr": r.train_sensitivity,
                "train_tnr": r.train_specificity,
                "test_tpr": r.test_sensitivity,
                "test_tnr": r.test_specificity,
                "status": r.status,
                "objective": r.objective,
            }
            for r in rows
        ],
    }
    table = [("beta", "train_tpr", "train_tnr", "test_tpr", "test_tnr", "status")]
    for r in rows:
        table.append(
            (str(r.floor), f"{r.train_sensitivity:.4f}", f"{r.train_specificity:.4f}",
             f"{r.test_sensitivity:.4f}", f"{r.test_specificity:.4f}", r.status)
        )
    _emit(args, payload, _metrics_table(table))
    if any(r.status != OPTIMAL for r in rows):
        return EXIT_TIME_LIMIT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
