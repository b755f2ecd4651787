"""Command-line entry point for training, evaluation, and diagnostics.

Configuration can come from a declarative ``key=value`` file (``--config``);
values given as flags always win. All randomized behavior derives from the
``--seed`` flag, which is recorded in every output document.

Exit codes: 0 success, 1 usage error, 2 data error (unreadable or inconsistent
inputs), 3 numeric error.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

import numpy as np

from . import evaluation, properties, reporting
from .data import load_dataset
from .errors import (CheckpointError, ParseError, ShapeMismatchError,
                     ZeroQuaternionError)
from .model import (SCORERS, check_table_matches_store, load_checkpoint,
                    save_checkpoint)
from .train import TrainConfig, fit

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

_DATA_ERRORS = (ParseError, CheckpointError, ShapeMismatchError, OSError)
_NUMERIC_ERRORS = (ZeroQuaternionError, FloatingPointError, OverflowError)


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_data_flags(parser, required=True):
    parser.add_argument("--train", required=required, help="training split file")
    parser.add_argument("--valid", required=required, help="validation split file")
    parser.add_argument("--test", required=required, help="test split file")


def _add_common_flags(parser):
    parser.add_argument("--config", help="key=value config file; flags override it")
    parser.add_argument("--out", help="output directory for report files")
    parser.add_argument("--format", choices=reporting.FORMATS, default="text",
                        help="stdout report format")


def build_parser() -> _Parser:
    parser = _Parser(prog="quatkge",
                     description="Quaternion knowledge-graph embeddings with "
                                 "distance scoring")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", parents=[], help="train embeddings")
    _add_data_flags(p_train)
    _add_common_flags(p_train)
    p_train.add_argument("--k", type=int, default=100, help="embedding dimension")
    p_train.add_argument("--margin", type=float, default=1.0)
    p_train.add_argument("--lr", type=float, default=0.02)
    p_train.add_argument("--l1", type=float, default=0.0,
                         help="entity regularization weight")
    p_train.add_argument("--l2", type=float, default=0.0,
                         help="relation regularization weight")
    p_train.add_argument("--neg", type=int, default=1, help="negatives per positive")
    p_train.add_argument("--batch", type=int, default=10)
    p_train.add_argument("--epochs", type=int, default=100)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--type-constraints", choices=("on", "off"), default="off")
    p_train.add_argument("--eval-every", type=int, default=10,
                         help="validate every N epochs (0 disables)")
    p_train.add_argument("--patience", type=int, default=10,
                         help="evaluations without improvement before stopping")
    p_train.add_argument("--loss-form", choices=("pairwise", "pointwise"),
                         default="pairwise")
    p_train.add_argument("--grid",
                         help="grid spec like 'k=50,100;l1=0,0.05'; the run with "
                              "the best validation MRR is kept")

    p_eval = sub.add_parser("eval", help="link-prediction ranking report")
    p_eval.add_argument("--checkpoint", required=True)
    _add_data_flags(p_eval)
    _add_common_flags(p_eval)
    p_eval.add_argument("--mode", choices=("raw", "filtered", "both"), default="both")
    p_eval.add_argument("--type-constraints", choices=("on", "off"), default="off")
    p_eval.add_argument("--scorer", choices=SCORERS, default=None,
                        help="defaults to the scorer recorded in the checkpoint")
    p_eval.add_argument("--split", choices=("valid", "test"), default="test")

    p_cls = sub.add_parser("classify", help="triple-classification accuracy")
    p_cls.add_argument("--checkpoint", required=True)
    _add_data_flags(p_cls)
    _add_common_flags(p_cls)
    p_cls.add_argument("--seed", type=int, default=0)
    p_cls.add_argument("--type-constraints", choices=("on", "off"), default="off")
    p_cls.add_argument("--scorer", choices=SCORERS, default=None)

    p_prop = sub.add_parser("properties", help="randomized algebra/pattern checks")
    _add_common_flags(p_prop)
    p_prop.add_argument("--trials", type=int, default=10_000)
    p_prop.add_argument("--dim", type=int, default=8, help="embedding dimension k")
    p_prop.add_argument("--seed", type=int, default=0)
    p_prop.add_argument("--tolerance", type=float, default=properties.DEFAULT_TOLERANCE)
    p_prop.add_argument("--checkpoint",
                        help="also report trained-relation diagnostics")
    _add_data_flags(p_prop, required=False)
    p_prop.add_argument("--pairs", type=int, default=1000,
                        help="entity pairs per trained-relation diagnostic")

    p_inspect = sub.add_parser("inspect", help="print checkpoint metadata")
    p_inspect.add_argument("--checkpoint", required=True)
    _add_common_flags(p_inspect)

    p_curves = sub.add_parser("export-curves",
                              help="classification accuracy per embedding dimension")
    p_curves.add_argument("--checkpoints", nargs="+", required=True)
    _add_data_flags(p_curves)
    _add_common_flags(p_curves)
    p_curves.add_argument("--seed", type=int, default=0)

    p_stats = sub.add_parser("stats", help="dataset statistics")
    _add_data_flags(p_stats)
    _add_common_flags(p_stats)
    return parser


def _load_config_file(path) -> list[str]:
    """Turn a key=value file into an argv fragment (file order preserved)."""
    tokens: list[str] = []
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ParseError(path, line_no, "expected key=value")
            key, value = stripped.split("=", 1)
            tokens += [f"--{key.strip().replace('_', '-')}", value.strip()]
    return tokens


def _apply_config(argv: list[str]) -> list[str]:
    """Splice config-file entries in front of user flags so flags win."""
    if not argv or argv[0].startswith("-"):
        return argv
    config_path = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            config_path = argv[i + 1]
        elif token.startswith("--config="):
            config_path = token.split("=", 1)[1]
    if config_path is None:
        return argv
    return [argv[0]] + _load_config_file(config_path) + argv[1:]


def _emit(args, name: str, items, title: str) -> None:
    """Print per --format and, with --out, write both renderings to files."""
    sys.stdout.write(reporting.render(items, args.format, title))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{name}.keyvalue").write_text(reporting.render_keyvalue(items),
                                              encoding="utf-8")
        (out / f"{name}.txt").write_text(reporting.render_text(title, items),
                                         encoding="utf-8")


def _train_config_from_args(args) -> TrainConfig:
    return TrainConfig(
        k=args.k, margin=args.margin, lr=args.lr, l1=args.l1, l2=args.l2,
        neg_rate=args.neg, batch_size=args.batch, epochs=args.epochs,
        seed=args.seed,
        constraint_mode="type_constrained" if args.type_constraints == "on" else "none",
        eval_every=args.eval_every, patience=args.patience,
        loss_form=args.loss_form)


_GRID_FIELD_TYPES = {
    "k": int, "margin": float, "lr": float, "l1": float, "l2": float,
    "neg_rate": int, "batch_size": int, "epochs": int,
}


def _parse_grid(spec: str) -> list[dict]:
    """'k=50,100;l1=0,0.05' -> one override dict per grid point."""
    axes: list[tuple[str, list]] = []
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        if "=" not in clause:
            raise ValueError(f"bad grid clause {clause!r}")
        key, values = clause.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in _GRID_FIELD_TYPES:
            raise ValueError(f"grid field {key!r} not supported")
        cast = _GRID_FIELD_TYPES[key]
        axes.append((key, [cast(v.strip()) for v in values.split(",")]))
    if not axes:
        raise ValueError("empty grid spec")
    names = [name for name, _ in axes]
    return [dict(zip(names, combo))
            for combo in itertools.product(*(vals for _, vals in axes))]


def _validation_mrr(result, store, constrained: bool) -> float:
    if result.best_val_mrr is not None:
        return result.best_val_mrr
    report = evaluation.link_prediction(result.table, store, mode="filtered",
                                        constraint=constrained, split="valid")
    return report.mrr


def cmd_train(args) -> int:
    store = load_dataset(args.train, args.valid, args.test)
    base = _train_config_from_args(args)
    constrained = base.constraint_mode == "type_constrained"
    out = Path(args.out) if args.out else Path(".")
    out.mkdir(parents=True, exist_ok=True)

    if args.grid:
        combos = _parse_grid(args.grid)
        grid_items: list[tuple[str, object]] = [("seed", base.seed),
                                                ("runs", len(combos))]
        best = None
        for index, combo in enumerate(combos):
            config = base.with_overrides(**combo)
            result = fit(store, config)
            mrr = _validation_mrr(result, store, constrained)
            for key, value in combo.items():
                grid_items.append((f"run.{index}.{key}", value))
            grid_items.append((f"run.{index}.val_mrr", mrr))
            if best is None or mrr > best[0]:
                best = (mrr, index, config, result)
        mrr, index, config, result = best
        grid_items += [("selected.index", index), ("selected.val_mrr", mrr)]
        _emit(args, "grid", grid_items, "grid search")
    else:
        config = base
        result = fit(store, config, checkpoint_path=out / "checkpoint.bin")

    save_checkpoint(result.table, out / "checkpoint.bin", scorer="quate_d",
                    config_hash=config.config_hash())
    (out / "train_log.txt").write_text(reporting.training_log_lines(result.log),
                                       encoding="utf-8")
    report = evaluation.link_prediction(result.table, store, mode="filtered",
                                        constraint=constrained, split="valid")
    items = ([("seed", config.seed), ("best_epoch", result.best_epoch)]
             + reporting.ranking_items(report, store.relation_names))
    _emit(args, "report_valid", items, "validation (filtered)")
    return EXIT_OK


def _load_for_eval(args):
    store = load_dataset(args.train, args.valid, args.test)
    table, meta = load_checkpoint(args.checkpoint)
    check_table_matches_store(table, store.n_entities, store.n_relations)
    scorer = args.scorer or meta.get("scorer", "quate_d")
    return store, table, scorer


def cmd_eval(args) -> int:
    store, table, scorer = _load_for_eval(args)
    constrained = args.type_constraints == "on"
    modes = ("raw", "filtered") if args.mode == "both" else (args.mode,)
    for mode in modes:
        report = evaluation.link_prediction(table, store, mode=mode,
                                            constraint=constrained,
                                            scorer=scorer, split=args.split)
        items = [("scorer", scorer), ("split", args.split),
                 ("type_constraints", constrained)]
        items += reporting.ranking_items(report, store.relation_names)
        _emit(args, f"report_{args.split}_{mode}", items,
              f"link prediction ({mode})")
    return EXIT_OK


def cmd_classify(args) -> int:
    store, table, scorer = _load_for_eval(args)
    report = evaluation.triple_classification(
        table, store, constraint=args.type_constraints == "on",
        seed=args.seed, scorer=scorer)
    items = [("scorer", scorer)] + reporting.classification_items(
        report, store.relation_names)
    _emit(args, "classification", items, "triple classification")
    return EXIT_OK


def cmd_properties(args) -> int:
    verdicts = properties.run_standard_checks(
        trials=args.trials, k=args.dim, tolerance=args.tolerance, seed=args.seed)
    items: list[tuple[str, object]] = [("trials", args.trials), ("k", args.dim),
                                       ("seed", args.seed)]
    for verdict in verdicts:
        items += reporting.verdict_items(verdict, prefix=f"check.{verdict.property}.")
    if args.checkpoint:
        if not (args.train and args.valid and args.test):
            raise ValueError("--checkpoint diagnostics need --train/--valid/--test")
        store = load_dataset(args.train, args.valid, args.test)
        table, _ = load_checkpoint(args.checkpoint)
        check_table_matches_store(table, store.n_entities, store.n_relations)
        for relation in range(store.n_relations):
            diag = properties.check_trained(table, store, relation,
                                            pairs=args.pairs, rng=args.seed)
            name = store.relation_names[relation]
            items += reporting.diagnostic_items(diag, prefix=f"trained.{name}.")
    _emit(args, "properties", items, "property checks")
    return EXIT_OK


def cmd_inspect(args) -> int:
    table, meta = load_checkpoint(args.checkpoint)
    items = [(key, meta[key]) for key in sorted(meta)]
    items += [
        ("entity_component_rms", float(np.sqrt(np.mean(table.entities ** 2)))),
        ("relation_component_rms", float(np.sqrt(np.mean(table.relations ** 2)))),
    ]
    _emit(args, "inspect", items, f"checkpoint {args.checkpoint}")
    return EXIT_OK


def cmd_export_curves(args) -> int:
    store = load_dataset(args.train, args.valid, args.test)
    points: list[tuple[int, float]] = []
    for path in args.checkpoints:
        try:
            table, meta = load_checkpoint(path)
            check_table_matches_store(table, store.n_entities, store.n_relations)
        except (OSError, CheckpointError, ShapeMismatchError) as exc:
            print(f"warning: skipping {path}: {exc}", file=sys.stderr)
            continue
        report = evaluation.triple_classification(
            table, store, seed=args.seed, scorer=meta.get("scorer", "quate_d"))
        points.append((table.k, report.accuracy))
    csv = reporting.curve_rows(points)
    sys.stdout.write(csv)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "curves.csv").write_text(csv, encoding="utf-8")
    return EXIT_OK


def cmd_stats(args) -> int:
    store = load_dataset(args.train, args.valid, args.test)
    _emit(args, "stats", reporting.stats_items(store.stats()), "dataset statistics")
    return EXIT_OK


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "classify": cmd_classify,
    "properties": cmd_properties,
    "inspect": cmd_inspect,
    "export-curves": cmd_export_curves,
    "stats": cmd_stats,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config(argv)
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
