"""Command-line surface: gen-data, pretrain, finetune, eval, analyze, compare.

Exit codes: 0 success, 2 usage/config errors, 1 runtime failures. Results go
to stdout, diagnostics to stderr. Every numeric default matches the standard
training recipe (batch 8, initial LR 0.001, Adam, 100 epochs, cosine
annealing); a JSON config file may override defaults, and explicit flags win
over both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .data import (
    DEFAULT_FRACTIONS,
    DEFAULT_TAU,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
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
from .pipeline import (
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
    load_checkpoint,
    save_checkpoint,
    write_trace,
)

_TABLE_DEFAULTS = {"batch_size": 8, "lr": 0.001, "epochs": 100, "eta_min": 0.0}

_DEFAULTS: dict[str, dict] = {
    "gen-data": {
        "patients": 100,
        "scans_per_patient": 4,
        "features": 12,
        "latent_dim": 3,
        "noise": 0.3,
        "seed": 0,
    },
    "pretrain": {
        **_TABLE_DEFAULTS,
        "loss": "mse",
        "sim": "cos",
        "alpha": 1.0,
        "eps": 1e-2,
        "seed": 0,
        "hidden": [64, 32, 16],
        "activation": "tanh",
        "pooling": "mean",
        "fractions": list(DEFAULT_FRACTIONS),
        "label_mode": "threshold",
        "tau": DEFAULT_TAU,
    },
    "finetune": {
        **_TABLE_DEFAULTS,
        "seed": 0,
        "freeze_encoder": True,
        "cls_hidden": [32],
    },
    "eval": {"split": "test"},
    "analyze": {"sample_size": 2000, "seed": 0, "split": "test"},
    "compare": {
        **_TABLE_DEFAULTS,
        "finetune_epochs": 100,
        "seeds": [0, 1, 2, 3, 4],
        "modes": list(MODES),
        "sim": "cos",
        "alpha": 1.0,
        "eps": 1e-2,
        "freeze_encoder": True,
        "hidden": [64, 32, 16],
        "activation": "tanh",
        "pooling": "mean",
        "cls_hidden": [32],
        "fractions": list(DEFAULT_FRACTIONS),
        "label_mode": "threshold",
        "tau": DEFAULT_TAU,
        "sample_size": 2000,
        "spread_split": "test",
    },
}


def _int_list(text) -> list[int]:
    if isinstance(text, list):
        return [int(v) for v in text]
    return [int(v) for v in str(text).split(",") if v.strip() != ""]


def _float_list(text) -> list[float]:
    if isinstance(text, list):
        return [float(v) for v in text]
    return [float(v) for v in str(text).split(",") if v.strip() != ""]


def _str_list(text) -> list[str]:
    if isinstance(text, list):
        return [str(v) for v in text]
    return [v.strip() for v in str(text).split(",") if v.strip() != ""]


def _merge(command: str, args: argparse.Namespace) -> dict:
    """Built-in defaults, overlaid by the config file, overlaid by flags."""
    merged = dict(_DEFAULTS[command])
    config_path = getattr(args, "config", None)
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
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _require_file(path, what: str) -> str:
    if not path:
        raise ConfigError(f"{what} path is required")
    if not os.path.isfile(path):
        raise ConfigError(f"{what} not found: {path}")
    return path


def _loss_config(opts: dict, mode: str | None = None) -> LossConfig:
    return LossConfig(
        mode=mode if mode is not None else opts["loss"],
        similarity=opts["sim"],
        eps=float(opts["eps"]),
        alpha=float(opts["alpha"]),
    )


def _data_config(opts: dict) -> DataConfig:
    fractions = _float_list(opts["fractions"])
    if len(fractions) != 3:
        raise ConfigError(f"fractions needs exactly 3 values, got {fractions}")
    return DataConfig(
        fractions=tuple(fractions), label_mode=opts["label_mode"], tau=float(opts["tau"])
    )


def _model_spec(opts: dict) -> ModelSpec:
    return ModelSpec(
        hidden=tuple(_int_list(opts["hidden"])),
        activation=opts["activation"],
        pooling=opts["pooling"],
        cls_hidden=tuple(_int_list(opts.get("cls_hidden", [32]))),
    )


def _train_config(opts: dict, loss: LossConfig, epochs_key: str = "epochs") -> TrainConfig:
    return TrainConfig(
        batch_size=int(opts["batch_size"]),
        lr=float(opts["lr"]),
        epochs=int(opts[epochs_key]),
        eta_min=float(opts["eta_min"]),
        seed=int(opts["seed"]) if "seed" in opts else 0,
        loss=loss,
        freeze_encoder=bool(opts.get("freeze_encoder", True)),
    )


# -- commands -----------------------------------------------------------------


def cmd_gen_data(args: argparse.Namespace) -> int:
    opts = _merge("gen-data", args)
    spec = SyntheticSpec(
        n_patients=int(opts["patients"]),
        scans_per_patient=int(opts["scans_per_patient"]),
        n_features=int(opts["features"]),
        latent_dim=int(opts["latent_dim"]),
        noise=float(opts["noise"]),
        seed=int(opts["seed"]),
    )
    collection = generate_synthetic(spec)
    save_dataset(collection, args.out)
    n_records = sum(len(s.records) for s in collection)
    n_pairs = sum(len(s.records) - 1 for s in collection)
    print(f"records: {n_records}")
    print(f"pairs: {n_pairs}")
    return 0


def cmd_pretrain(args: argparse.Namespace) -> int:
    opts = _merge("pretrain", args)
    data_path = _require_file(args.data, "dataset")
    collection = load_dataset(data_path)
    prepared = prepare(collection, int(opts["seed"]), _data_config(opts))
    config = _train_config(opts, _loss_config(opts))
    result = run_pretrain(prepared, _model_spec(opts), config)

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
    opts = _merge("finetune", args)
    data_path = _require_file(args.data, "dataset")
    ckpt_path = _require_file(args.checkpoint, "checkpoint")
    pretrained = load_checkpoint(ckpt_path)
    if pretrained.meta.get("stage") != "pretrain":
        raise ConfigError(
            f"finetune: expected a pretrain checkpoint, got stage "
            f"{pretrained.meta.get('stage')!r} from {ckpt_path}"
        )
    collection = load_dataset(data_path)
    prepared = prepared_from_meta(collection, pretrained.meta["data"])
    config = _train_config(opts, LossConfig())
    model = ModelSpec(cls_hidden=tuple(_int_list(opts["cls_hidden"])))
    result = run_finetune(prepared, pretrained, config, model)

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
    opts = _merge("eval", args)
    data_path = _require_file(args.data, "dataset")
    ckpt_path = _require_file(args.checkpoint, "checkpoint")
    ck = load_checkpoint(ckpt_path)
    if ck.meta.get("stage") != "finetune":
        raise ConfigError(
            f"eval: expected a finetune checkpoint, got stage "
            f"{ck.meta.get('stage')!r} from {ckpt_path}"
        )
    collection = load_dataset(data_path)
    prepared = prepared_from_meta(collection, ck.meta["data"])
    report = evaluate_checkpoint(prepared, ck, split=opts["split"])
    os.makedirs(args.out, exist_ok=True)
    _write_metrics(report, os.path.join(args.out, "metrics"))
    sys.stdout.write(report.to_text())
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    opts = _merge("analyze", args)
    data_path = _require_file(args.data, "dataset")
    ckpt_path = _require_file(args.checkpoint, "checkpoint")
    ck = load_checkpoint(ckpt_path)
    collection = load_dataset(data_path)
    prepared = prepared_from_meta(collection, ck.meta["data"])

    split = opts["split"]
    x, _ = prepared.regression[split]
    n = x.shape[0]
    available = n * (n - 1) // 2
    sample_size = int(opts["sample_size"])
    if sample_size > available:
        print(
            f"warning: sample size {sample_size} exceeds the {available} available pairs; capping",
            file=sys.stderr,
        )
        sample_size = available
    profile = spread_for_checkpoint(prepared, ck, sample_size, int(opts["seed"]), split)
    export_profile(profile, args.out)
    print(f"points: {profile.n_points}")
    print(f"std_dev: {profile.std_dev!r}")
    print(f"spearman_rho: {profile.rho!r}")
    print(f"degenerate: {int(profile.degenerate)}")
    print(f"profile: {args.out}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    opts = _merge("compare", args)
    data_path = _require_file(args.data, "dataset")
    collection = load_dataset(data_path)
    compare = CompareConfig(
        seeds=tuple(_int_list(opts["seeds"])),
        modes=tuple(_str_list(opts["modes"])),
        sample_size=int(opts["sample_size"]),
        spread_split=opts["spread_split"],
    )
    base_opts = dict(opts, seed=0)
    pre_cfg = _train_config(base_opts, _loss_config(opts, mode="mse"))
    fine_cfg = _train_config(base_opts, LossConfig(), epochs_key="finetune_epochs")
    report = run_comparison(
        collection,
        compare,
        _data_config(opts),
        _model_spec(opts),
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


def _write_metrics(report, prefix: str) -> None:
    with open(prefix + ".txt", "w", encoding="utf-8") as fh:
        fh.write(report.to_text())
    with open(prefix + ".json", "w", encoding="utf-8") as fh:
        json.dump(report.to_json_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hscl",
        description="Contrastive pre-training on scalar health scores, with a "
        "downstream improved/same/deteriorated pair classifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file; flags override its keys")
        p.add_argument("--seed", type=int, help="master seed for all randomness (default 0)")

    p = sub.add_parser("gen-data", help="write a synthetic longitudinal dataset")
    add_common(p)
    p.add_argument("--patients", type=int)
    p.add_argument("--scans-per-patient", dest="scans_per_patient", type=int)
    p.add_argument("--features", type=int)
    p.add_argument("--latent-dim", dest="latent_dim", type=int)
    p.add_argument("--noise", type=float)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_gen_data)

    def add_train_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--batch-size", dest="batch_size", type=int)
        p.add_argument("--lr", type=float)
        p.add_argument("--epochs", type=int)
        p.add_argument("--eta-min", dest="eta_min", type=float)

    def add_data_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--fractions", help="train,val,test fractions (default 0.543,0.247,0.210)")
        p.add_argument("--label-mode", dest="label_mode", choices=("bin", "threshold"))
        p.add_argument("--tau", type=float, help="threshold-mode same band, normalized units")

    def add_model_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--hidden", help="encoder hidden widths, e.g. 64,32,16")
        p.add_argument("--activation", choices=("relu", "tanh"))
        p.add_argument("--pooling", choices=("mean", "last"))

    def add_loss_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--sim", choices=SIMILARITIES, help="similarity kind")
        p.add_argument("--alpha", type=float, help="contrastive term weight")
        p.add_argument("--eps", type=float, help="label-distance weight offset")

    p = sub.add_parser("pretrain", help="regression (+ contrastive) pre-training")
    add_common(p)
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--loss", choices=MODES)
    add_loss_flags(p)
    add_train_flags(p)
    add_model_flags(p)
    add_data_flags(p)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="train the 3-way change classifier")
    add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True, help="pretrain checkpoint")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--freeze-encoder", dest="freeze_encoder", action=argparse.BooleanOptionalAction)
    p.add_argument("--cls-hidden", dest="cls_hidden", help="classifier hidden widths, e.g. 32")
    add_train_flags(p)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("eval", help="evaluate a finetuned checkpoint on a split")
    add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True, help="finetune checkpoint")
    p.add_argument("--out", required=True, help="output directory for metrics files")
    p.add_argument("--split", choices=("train", "val", "test"))
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", help="export the embedding-spread profile")
    add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="profile output path (TSV)")
    p.add_argument("--sample-size", dest="sample_size", type=int)
    p.add_argument("--split", choices=("train", "val", "test"))
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("compare", help="pretrain/finetune/eval each loss mode per seed")
    add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seeds", help="comma-separated seeds (default 0,1,2,3,4)")
    p.add_argument("--modes", help="comma-separated loss modes (default all three)")
    p.add_argument("--finetune-epochs", dest="finetune_epochs", type=int)
    p.add_argument("--freeze-encoder", dest="freeze_encoder", action=argparse.BooleanOptionalAction)
    p.add_argument("--cls-hidden", dest="cls_hidden")
    p.add_argument("--sample-size", dest="sample_size", type=int)
    p.add_argument("--spread-split", dest="spread_split", choices=("train", "val", "test"))
    add_loss_flags(p)
    add_train_flags(p)
    add_model_flags(p)
    add_data_flags(p)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DatasetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CheckpointError, TrainingAbort, ShapeError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
