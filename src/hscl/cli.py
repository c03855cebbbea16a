"""Command-line surface: gen-data, pretrain, finetune, eval, analyze, compare.

Exit codes: 0 success, 2 usage/config errors, 1 runtime failures. Results go
to stdout, diagnostics to stderr. Every option defaults to the library
setting it names: a field of ``TrainConfig``, ``LossConfig``, ``ModelSpec``,
``DataConfig``, ``SyntheticSpec`` or ``CompareConfig``, or a parameter of
the function the command calls. A JSON config file may override defaults,
and explicit flags win over both.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import os
import sys
from typing import Callable, NamedTuple

from .data import LABEL_MODES, SyntheticSpec, generate_synthetic, load_dataset, save_dataset
from .errors import (
    CheckpointError,
    ConfigError,
    DatasetError,
    DomainError,
    ShapeError,
    TrainingAbort,
)
from .losses import MODES, SIMILARITIES, LossConfig
from .metrics import export_profile
from .model import ACTIVATIONS
from .pipeline import (
    SPLITS,
    CompareConfig,
    DataConfig,
    ModelSpec,
    evaluate_checkpoint,
    format_report,
    prepare,
    prepared_from_meta,
    run_comparison,
    run_finetune,
    run_pretrain,
    spread_for_checkpoint,
)
from .training import (
    HISTORY_KEYS,
    TrainConfig,
    check_meta,
    fits_type,
    load_checkpoint,
    meta_value,
    save_checkpoint,
    write_trace,
)

# Options named differently from the field or parameter they set.
_FIELD_NAMES = {
    "patients": "n_patients",
    "features": "n_features",
    "loss": "mode",
    "sim": "similarity",
    "finetune_epochs": "epochs",  # of compare's fine-tuning TrainConfig
}

# Arguments that name files; they are never config-file keys.
_PATH_ARGS = ("config", "data", "out", "checkpoint")


# Comma-separated list options and the type of their items.
_LIST_ITEMS = {"hidden": int, "cls_hidden": int, "seeds": int, "modes": str, "fractions": float}


def _checked(key: str, value, default, choices=None):
    """``value`` as the type of ``default``; ``ConfigError`` when it does not fit or is not in ``choices``.

    A list option takes a comma-separated string (as its flag does) or a
    list, and becomes a tuple.
    """
    if key in _LIST_ITEMS:
        kind = _LIST_ITEMS[key]
        if isinstance(value, str):
            items = [v.strip() for v in value.split(",") if v.strip() != ""]
            try:
                return tuple(kind(v) for v in items)
            except ValueError:
                raise ConfigError(f"{key}: cannot read {value!r} as a list of {kind.__name__}") from None
        if isinstance(value, (list, tuple)) and all(fits_type(v, kind) for v in value):
            return tuple(kind(v) for v in value)
        raise ConfigError(f"{key}: expected a list of {kind.__name__}, got {value!r}")
    kind = type(default)
    if not fits_type(value, kind):
        raise ConfigError(f"{key}: expected {kind.__name__}, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(f"{key}: expected one of {list(choices)}, got {value!r}")
    return kind(value)


def _library_defaults(source) -> dict:
    """Field defaults of a config dataclass, or parameter defaults of a function."""
    if dataclasses.is_dataclass(source):
        instance = source()
        return {f.name: getattr(instance, f.name) for f in dataclasses.fields(source)}
    return {
        name: param.default
        for name, param in inspect.signature(source).parameters.items()
        if param.default is not param.empty
    }


def _merge(args: argparse.Namespace) -> dict:
    """Library defaults, overlaid by the config file, overlaid by flags."""
    defaults: dict = {}
    for source in reversed(COMMANDS[args.command].defaults):  # earlier sources win
        defaults.update(_library_defaults(source))
    merged = {
        key: defaults[_FIELD_NAMES.get(key, key)]
        for key in vars(args)
        if key not in ("command", "choices", *_PATH_ARGS)
    }
    config_path = args.config
    if config_path:
        if not os.path.exists(config_path):
            raise ConfigError(f"config file not found: {config_path}")
        with open(config_path, "r", encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file {config_path}: invalid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {config_path}: expected a JSON object")
        unknown = sorted(set(loaded) - set(merged))
        if unknown:
            raise ConfigError(f"config file {config_path}: unknown keys {unknown}")
        merged.update(loaded)
    for key in merged:
        value = getattr(args, key)
        if value is not None:
            merged[key] = value
    return {
        key: _checked(key, value, defaults[_FIELD_NAMES.get(key, key)], args.choices.get(key))
        for key, value in merged.items()
    }


def _build(cls, opts: dict, **given):
    """A ``cls`` with the ``given`` fields, the others set from the options that name them.

    ``opts`` comes from ``_merge``, which has already checked each value's type.
    """
    fields = {f.name for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in opts.items():
        name = _FIELD_NAMES.get(key, key)
        if name in fields and name not in given:
            kwargs[name] = value
    return cls(**kwargs, **given)


def _require_file(path, what: str) -> str:
    if not path:
        raise ConfigError(f"{what} path is required")
    if not os.path.isfile(path):
        raise ConfigError(f"{what} not found: {path}")
    return path


def _restored(args: argparse.Namespace, stage: str | None = None):
    """The ``--checkpoint`` and the ``--data`` split and labelled as they were for its run.

    With ``stage``, a checkpoint of another stage raises ``ConfigError``. The
    whole metadata block is checked before any command prints or writes.
    """
    data_path = _require_file(args.data, "dataset")
    ckpt_path = _require_file(args.checkpoint, "checkpoint")
    ck = load_checkpoint(ckpt_path)
    got = meta_value(ck.meta, "stage")
    if stage is not None and got != stage:
        raise ConfigError(f"{args.command}: expected a {stage} checkpoint, got stage {got!r} from {ckpt_path}")
    check_meta(ck.meta)
    return ck, prepared_from_meta(load_dataset(data_path), meta_value(ck.meta, "data"))


# -- commands -----------------------------------------------------------------


def cmd_gen_data(args: argparse.Namespace) -> int:
    collection = generate_synthetic(_build(SyntheticSpec, _merge(args)))
    save_dataset(collection, args.out)
    n_records = sum(len(s.records) for s in collection)
    n_pairs = sum(len(s.records) - 1 for s in collection)
    print(f"records: {n_records}")
    print(f"pairs: {n_pairs}")
    return 0


def cmd_pretrain(args: argparse.Namespace) -> int:
    opts = _merge(args)
    data_path = _require_file(args.data, "dataset")
    dcfg, model = _build(DataConfig, opts), _build(ModelSpec, opts)
    config = _build(TrainConfig, opts, loss=_build(LossConfig, opts))  # checks the seed before the split
    prepared = prepare(load_dataset(data_path), config.seed, dcfg)
    result = run_pretrain(prepared, model, config)

    os.makedirs(args.out, exist_ok=True)
    final_path = os.path.join(args.out, "pretrain_final.ckpt")
    best_path = os.path.join(args.out, "pretrain_best.ckpt")
    trace_path = os.path.join(args.out, "pretrain_trace.log")
    save_checkpoint(result.final, final_path)
    save_checkpoint(result.best, best_path)
    write_trace(result.trace, trace_path)

    print(f"epochs: {config.epochs}")
    print(f"final_train_loss: {result.trace[-1]['loss']!r}")
    print(f"best_epoch: {result.best_epoch}")
    print(f"best_val_mse: {result.trace[result.best_epoch]['val_mse']!r}")
    print(f"final_checkpoint: {final_path}")
    print(f"best_checkpoint: {best_path}")
    print(f"trace: {trace_path}")
    return 0


def cmd_finetune(args: argparse.Namespace) -> int:
    opts = _merge(args)
    pretrained, prepared = _restored(args, "pretrain")
    for split in ("train", "val"):  # before training: it selects on and reports val metrics
        if len(prepared.pairs[split][2]) == 0:
            raise ConfigError(f"finetune: split {split!r} has no pairs")
    result = run_finetune(prepared, pretrained, _build(TrainConfig, opts), _build(ModelSpec, opts))

    os.makedirs(args.out, exist_ok=True)
    final_path = os.path.join(args.out, "finetune_final.ckpt")
    best_path = os.path.join(args.out, "finetune_best.ckpt")
    history_path = os.path.join(args.out, "finetune_history.log")
    save_checkpoint(result.final, final_path)
    save_checkpoint(result.best, best_path)
    write_trace(result.history, history_path, keys=HISTORY_KEYS)

    report = evaluate_checkpoint(prepared, result.best, split="val")
    _write_metrics(report, os.path.join(args.out, "val_metrics"))
    print(f"best_epoch: {result.best_epoch}")
    print(f"val_accuracy: {report.accuracy!r}")
    print(f"val_macro_f1: {report.macro_f1!r}")
    print(f"final_checkpoint: {final_path}")
    print(f"best_checkpoint: {best_path}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    opts = _merge(args)
    ck, prepared = _restored(args, "finetune")
    report = evaluate_checkpoint(prepared, ck, split=opts["split"])
    os.makedirs(args.out, exist_ok=True)
    sys.stdout.write(_write_metrics(report, os.path.join(args.out, "metrics")))
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    opts = _merge(args)
    ck, prepared = _restored(args)  # either stage: both carry the encoder
    sample_size = opts["sample_size"]
    profile = spread_for_checkpoint(prepared, ck, sample_size, opts["seed"], opts["split"])
    # warned once the encoder is restored, so a rejected checkpoint prints only its error
    if profile.n_points < sample_size:
        print(
            f"warning: sample size {sample_size} exceeds the {profile.n_points} available pairs; capping",
            file=sys.stderr,
        )
    export_profile(profile, args.out)
    print(f"points: {profile.n_points}")
    print(f"std_dev: {profile.std_dev!r}")
    print(f"spearman_rho: {profile.rho!r}")
    print(f"degenerate: {int(profile.degenerate)}")
    print(f"profile: {args.out}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    opts = _merge(args)
    data_path = _require_file(args.data, "dataset")
    collection = load_dataset(data_path)
    pre_cfg = _build(
        TrainConfig, opts, epochs=opts["epochs"], loss=_build(LossConfig, opts, mode="mse")
    )
    fine_cfg = dataclasses.replace(pre_cfg, epochs=opts["finetune_epochs"], loss=LossConfig())
    dcfg = _build(DataConfig, opts)  # this and ModelSpec report their errors before CompareConfig
    model = _build(ModelSpec, opts)
    report = run_comparison(
        collection,
        _build(CompareConfig, opts),
        dcfg,
        model,
        pre_cfg,
        fine_cfg,
        out_dir=args.out,
    )
    sys.stdout.write(format_report(report))
    failed = [s for s, entry in report["per_seed"].items() if "error" in entry]
    if len(failed) == len(report["seeds"]):
        print("error: every seed failed", file=sys.stderr)
        return 1
    return 0


def _write_metrics(report, prefix: str) -> str:
    """Write ``prefix.txt`` and ``prefix.json``; the text written to the first."""
    text = report.to_text()
    with open(prefix + ".txt", "w", encoding="utf-8") as fh:
        fh.write(text)
    with open(prefix + ".json", "w", encoding="utf-8") as fh:
        json.dump(report.to_json_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
    return text


# -- parser ---------------------------------------------------------------------


def _common_flags(p: argparse.ArgumentParser, seed: bool = True) -> None:
    p.add_argument("--config", help="JSON config file; flags override its keys")
    if seed:
        p.add_argument("--seed", type=int, help="master seed for all randomness")


def _train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--eta-min", dest="eta_min", type=float)


def _data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fractions", help="comma-separated train,val,test fractions")
    p.add_argument("--label-mode", dest="label_mode", choices=LABEL_MODES)
    p.add_argument("--tau", type=float, help="threshold-mode same band, normalized units")


def _model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--hidden", help="comma-separated encoder hidden widths")
    p.add_argument("--activation", choices=ACTIVATIONS)


def _loss_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sim", choices=SIMILARITIES, help="similarity kind")
    p.add_argument("--alpha", type=float, help="contrastive term weight")
    p.add_argument("--eps", type=float, help="label-distance weight offset")


def _gen_data_flags(p: argparse.ArgumentParser) -> None:
    _common_flags(p)
    p.add_argument("--patients", type=int)
    p.add_argument("--scans-per-patient", dest="scans_per_patient", type=int)
    p.add_argument("--features", type=int)
    p.add_argument("--latent-dim", dest="latent_dim", type=int)
    p.add_argument("--noise", type=float)
    p.add_argument("--out", required=True, help="output CSV path")


def _pretrain_flags(p: argparse.ArgumentParser) -> None:
    _common_flags(p)
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--loss", choices=MODES)
    _loss_flags(p)
    _train_flags(p)
    _model_flags(p)
    _data_flags(p)


def _finetune_flags(p: argparse.ArgumentParser) -> None:
    _common_flags(p)
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True, help="pretrain checkpoint")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--freeze-encoder", dest="freeze_encoder", action=argparse.BooleanOptionalAction)
    p.add_argument("--cls-hidden", dest="cls_hidden", help="comma-separated classifier hidden widths")
    _train_flags(p)


def _eval_flags(p: argparse.ArgumentParser) -> None:
    _common_flags(p, seed=False)
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True, help="finetune checkpoint")
    p.add_argument("--out", required=True, help="output directory for metrics files")
    p.add_argument("--split", choices=SPLITS)


def _analyze_flags(p: argparse.ArgumentParser) -> None:
    _common_flags(p)
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="profile output path (TSV)")
    p.add_argument("--sample-size", dest="sample_size", type=int)
    p.add_argument("--split", choices=SPLITS)


def _compare_flags(p: argparse.ArgumentParser) -> None:
    _common_flags(p, seed=False)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seeds", help="comma-separated seeds")
    p.add_argument("--modes", help="comma-separated loss modes")
    p.add_argument("--finetune-epochs", dest="finetune_epochs", type=int)
    p.add_argument("--freeze-encoder", dest="freeze_encoder", action=argparse.BooleanOptionalAction)
    p.add_argument("--cls-hidden", dest="cls_hidden")
    p.add_argument("--sample-size", dest="sample_size", type=int)
    p.add_argument("--spread-split", dest="spread_split", choices=SPLITS)
    _loss_flags(p)
    _train_flags(p)
    _model_flags(p)
    _data_flags(p)


class Command(NamedTuple):
    """One subcommand: its help line, what adds its flags, what runs it."""

    help: str
    add_flags: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace], int]
    defaults: tuple  # where its option defaults live; earlier sources win


COMMANDS = {
    "gen-data": Command(
        "write a synthetic longitudinal dataset",
        _gen_data_flags,
        cmd_gen_data,
        (SyntheticSpec,),
    ),
    "pretrain": Command(
        "regression (+ contrastive) pre-training",
        _pretrain_flags,
        cmd_pretrain,
        (TrainConfig, LossConfig, ModelSpec, DataConfig),
    ),
    "finetune": Command(
        "train the 3-way change classifier",
        _finetune_flags,
        cmd_finetune,
        (TrainConfig, ModelSpec),
    ),
    "eval": Command(
        "evaluate a finetuned checkpoint on a split",
        _eval_flags,
        cmd_eval,
        (evaluate_checkpoint,),
    ),
    "analyze": Command(
        "export the embedding-spread profile",
        _analyze_flags,
        cmd_analyze,
        (spread_for_checkpoint, CompareConfig),
    ),
    "compare": Command(
        "pretrain/finetune/eval each loss mode per seed",
        _compare_flags,
        cmd_compare,
        (TrainConfig, LossConfig, ModelSpec, DataConfig, CompareConfig),
    ),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``hscl`` parser: every subcommand, or only ``command``, a key of ``COMMANDS``.

    A one-command parser's usage line still spells out every command, so the
    errors it prints read as the full parser's.
    """
    parser = argparse.ArgumentParser(
        prog="hscl",
        description="Contrastive pre-training on scalar health scores, with a "
        "downstream improved/same/deteriorated pair classifier.",
    )
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if command is None else (command,):
        # no prefix matching: adding or removing a flag must never change what
        # an abbreviation means (compare's --seed would otherwise read as --seeds)
        p = sub.add_parser(name, help=COMMANDS[name].help, allow_abbrev=False)
        COMMANDS[name].add_flags(p)
        # so config-file values meet the choices their flags have
        p.set_defaults(choices={a.dest: a.choices for a in p._actions if a.choices is not None})
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a real process runs one command: build only its parser when argv names it
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    try:
        return COMMANDS[args.command].run(args)
    except (ConfigError, DatasetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CheckpointError, TrainingAbort, ShapeError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
