"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. The heavier directional criteria (4 and 5) share one
comparison sweep over the default synthetic cohort.
"""

import time

import numpy as np
import pytest

from hscl.cli import main
from hscl.data import (
    SyntheticSpec,
    categorize_sf,
    generate_synthetic,
    split_patients,
)
from hscl.losses import (
    LossConfig,
    cl_loss,
    combined_loss,
    cross_entropy,
    mine_batch,
    mse_loss,
    wcl_loss,
)
from hscl.model import encode, init_encoder, init_regression_head, predict_hs
from hscl.pipeline import CompareConfig, DataConfig, ModelSpec, run_comparison
from hscl.tensor import Tensor, grad_check
from hscl.training import (
    Checkpoint,
    TrainConfig,
    load_checkpoint,
    parse_trace,
    pretrain,
    save_checkpoint,
)

from oracles import (
    cl_ref,
    cross_entropy_ref,
    mine_ref,
    mse_ref,
    pack_shapes,
    sim_ref,
    unpack_flat,
    wcl_ref,
)

COMPARISON_SEEDS = tuple(range(9))


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"[ACCEPTANCE] {criterion}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def comparison(tmp_path_factory):
    """MSE vs MSE+CL sweep on the default synthetic dataset (criteria 4 & 5)."""
    collection = generate_synthetic(SyntheticSpec())
    started = time.time()
    report = run_comparison(
        collection,
        CompareConfig(seeds=COMPARISON_SEEDS, modes=("mse", "mse+cl")),
        DataConfig(),
        ModelSpec(),
        TrainConfig(),
        TrainConfig(),
    )
    report["elapsed_seconds"] = time.time() - started
    return report


# -- criterion 1: gradient correctness ------------------------------------------------


def _interior_embeddings(rng, b, d, kind, floor):
    for _ in range(200):
        u = rng.normal(size=(b, d))
        if all(
            floor + 1e-3 < sim_ref(u[i], u[j], kind, floor) < 1.0 - 1e-3
            for i in range(b)
            for j in range(b)
            if i != j
        ):
            return u
    raise AssertionError("no interior embedding sample found")


def test_criterion_1_gradient_correctness():
    started = time.time()
    rng = np.random.default_rng(101)
    b, d = 4, 3
    checks = 0
    worst = 0.0

    def check(f, point):
        nonlocal checks, worst
        err = grad_check(f, Tensor(point), 1e-6)
        worst = max(worst, err)
        checks += 1
        assert err < 1e-4, f"gradient error {err}"

    for _ in range(16):
        y = rng.normal(size=6)
        check(lambda t: mse_loss(y, t), rng.normal(size=6))

    for kind in ("cos", "l2"):
        cfg_cl = LossConfig(mode="mse+cl", similarity=kind)
        cfg_wcl = LossConfig(mode="mse+wcl", similarity=kind)
        for _ in range(15):
            hs = rng.uniform(0, 1, size=b)
            mining = mine_batch(hs)
            u = _interior_embeddings(rng, b, d, kind, cfg_cl.sim_floor)
            check(lambda t: cl_loss(t.reshape((b, d)), mining, cfg_cl), u.reshape(-1))
            check(
                lambda t: wcl_loss(t.reshape((b, d)), mining, hs, cfg_wcl),
                u.reshape(-1),
            )

    for _ in range(16):
        labels = rng.integers(0, 3, size=5)
        check(lambda t: cross_entropy(t.reshape((5, 3)), labels), rng.normal(size=15))

    # combined loss through the encoder: tanh keeps the graph kink-free
    widths = [5, 6, 4]
    x = rng.normal(size=(b, widths[0]))
    hs = rng.uniform(0, 1, size=b)
    mining = mine_batch(hs)
    for mode in ("mse+cl", "mse+wcl"):
        cfg = LossConfig(mode=mode)
        for trial in range(8):
            encoder = init_encoder(widths, seed=200 + trial, activation="tanh")
            head = init_regression_head(widths[-1], seed=300 + trial)
            flat, shapes = pack_shapes(
                [t.data for t in encoder.trainable()] + [head.weights[0].data, head.biases[0].data]
            )
            n_layers = len(encoder.weights)

            def through_encoder(flat_t):
                pieces = unpack_flat(flat_t, shapes)
                enc = type(encoder)(
                    encoder.widths,
                    encoder.activation,
                    pieces[:n_layers],
                    pieces[n_layers : 2 * n_layers],
                )
                hd = type(head)(head.widths, head.activation, [pieces[-2]], [pieces[-1]])
                embeddings = encode(enc, x)
                y_hat = predict_hs(hd, embeddings)
                return combined_loss(hs, y_hat, embeddings, mining, hs, cfg)

            check(through_encoder, flat)

    elapsed = time.time() - started
    _report(
        "criterion 1 (gradient correctness)",
        checks >= 100 and elapsed < 60.0,
        f"{checks} points, max rel err {worst:.3e}, {elapsed:.1f}s",
    )


# -- criterion 2: oracle equivalence ----------------------------------------------------


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(202)

    for _ in range(200):
        b = int(rng.integers(4, 17))
        hs = rng.integers(0, 4, size=b).astype(float) if rng.random() < 0.3 else rng.normal(size=b)
        result = mine_batch(hs)
        ref_pos, ref_neg = mine_ref(hs)
        for i in range(b):
            assert sorted(result.positives[i]) == ref_pos[i]
            assert sorted(result.negatives[i]) == ref_neg[i]

    worst = 0.0
    for _ in range(40):
        b = int(rng.integers(3, 9))
        u = rng.normal(size=(b, 4))
        hs = rng.uniform(0, 1, size=b)
        y_pred = rng.normal(size=b)
        mining = mine_batch(hs)
        worst = max(worst, abs(mse_loss(hs, Tensor(y_pred)).item() - mse_ref(hs, y_pred)))
        for kind in ("cos", "l2"):
            cfg = LossConfig(mode="mse+cl", similarity=kind)
            got = cl_loss(Tensor(u), mining, cfg).item()
            worst = max(worst, abs(got - cl_ref(u, mining.positives, mining.negatives, kind)))
            wcfg = LossConfig(mode="mse+wcl", similarity=kind)
            got = wcl_loss(Tensor(u), mining, hs, wcfg).item()
            worst = max(
                worst,
                abs(got - wcl_ref(u, mining.positives, mining.negatives, hs, wcfg.eps, kind)),
            )
        logits = rng.normal(size=(b, 3))
        labels = rng.integers(0, 3, size=b)
        got = cross_entropy(Tensor(logits), labels).item()
        worst = max(worst, abs(got - cross_entropy_ref(logits, labels)))

    _report(
        "criterion 2 (oracle equivalence)",
        worst < 1e-10,
        f"200 mining batches OK, max loss deviation {worst:.3e}",
    )


# -- criterion 3: miner invariants -------------------------------------------------------


def test_criterion_3_miner_invariants():
    rng = np.random.default_rng(303)
    batches = [np.full(int(rng.integers(3, 17)), 7.0) for _ in range(20)]  # all-tied
    batches += [rng.normal(size=int(rng.integers(3, 17))) for _ in range(180)]
    for hs in batches:
        b = len(hs)
        k = (b - 1) // 2
        result = mine_batch(hs)
        for i in range(b):
            pos, neg = set(result.positives[i]), set(result.negatives[i])
            assert i not in pos | neg, "anchor leaked into its own pair sets"
            assert not pos & neg, "positive and negative sets overlap"
            assert len(pos) == len(neg) == k, "cardinality != floor((B-1)/2)"
            if k:
                assert max(result.distances[i, j] for j in pos) <= min(
                    result.distances[i, j] for j in neg
                ), "a positive is farther than a negative"
    _report("criterion 3 (miner invariants)", True, f"{len(batches)} batches incl. all-tied")


# -- criteria 4 & 5: directional reproduction --------------------------------------------


def test_criterion_4_contrastive_improves_downstream(comparison):
    med = comparison["medians"]
    acc_mse = med["mse"]["accuracy"]
    acc_cl = med["mse+cl"]["accuracy"]
    elapsed = comparison["elapsed_seconds"]
    ok = acc_cl >= acc_mse + 3.0 and elapsed < 600.0
    _report(
        "criterion 4 (accuracy: MSE+CL >= MSE + 3pp)",
        ok,
        f"median over {len(COMPARISON_SEEDS)} seeds: mse {acc_mse:.2f} vs mse+cl {acc_cl:.2f} "
        f"(gap {acc_cl - acc_mse:+.2f}pp), {elapsed:.0f}s",
    )


def test_criterion_5_contrastive_spreads_embeddings(comparison):
    med = comparison["medians"]
    std_mse, std_cl = med["mse"]["spread_std"], med["mse+cl"]["spread_std"]
    rho_mse, rho_cl = med["mse"]["spread_rho"], med["mse+cl"]["spread_rho"]
    ok = std_cl > std_mse and rho_cl > rho_mse
    _report(
        "criterion 5 (embedding spread: MSE+CL > MSE)",
        ok,
        f"std {std_mse:.3f} -> {std_cl:.3f}, rho {rho_mse:.3f} -> {rho_cl:.3f}",
    )


# -- criterion 6: default-config fidelity -------------------------------------------------


def test_criterion_6_default_training_recipe(tmp_path):
    data = tmp_path / "c6.csv"
    assert main(["gen-data", "--patients", "40", "--scans-per-patient", "2",
                 "--features", "6", "--out", str(data)]) == 0
    out = tmp_path / "run"
    # zero training flags: everything comes from the built-in recipe
    assert main(["pretrain", "--data", str(data), "--out", str(out)]) == 0

    ck = load_checkpoint(out / "pretrain_best.ckpt")
    echo = ck.meta["train"]
    trace = parse_trace(out / "pretrain_trace.log")
    by_epoch = {entry["epoch"]: entry for entry in trace}
    ok = (
        echo["batch_size"] == 8
        and echo["lr"] == 0.001
        and echo["epochs"] == 100
        and echo["beta1"] == 0.9
        and echo["beta2"] == 0.999
        and echo["adam_eps"] == 1e-8
        and by_epoch[0]["lr"] == 0.001
        and by_epoch[100]["lr"] == echo["eta_min"] == 0.0
        and by_epoch[50]["lr"] == 0.0005  # cosine midpoint
    )
    _report(
        "criterion 6 (default recipe: batch 8, lr 0.001, Adam, 100 epochs, cosine)",
        ok,
        f"lr(0)={by_epoch[0]['lr']}, lr(50)={by_epoch[50]['lr']}, lr(100)={by_epoch[100]['lr']}",
    )


# -- criterion 7: end-to-end determinism ---------------------------------------------------


def test_criterion_7_compare_is_byte_deterministic(tmp_path):
    data = tmp_path / "c7.csv"
    assert main(["gen-data", "--patients", "16", "--scans-per-patient", "3",
                 "--features", "5", "--seed", "2", "--out", str(data)]) == 0
    flags = [
        "compare", "--data", str(data),
        "--seeds", "0,1", "--epochs", "2", "--finetune-epochs", "2", "--hidden", "8,4",
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main([*flags, "--out", str(out_a)]) == 0
    assert main([*flags, "--out", str(out_b)]) == 0

    mismatches = []
    files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
    if files_a != files_b:
        mismatches.append("file sets differ")
    for rel in files_a:
        if (out_a / rel).read_bytes() != (out_b / rel).read_bytes():
            mismatches.append(str(rel))
    _report(
        "criterion 7 (cmd_compare byte-determinism)",
        not mismatches,
        f"{len(files_a)} files compared" + (f"; mismatches: {mismatches}" if mismatches else ""),
    )


# -- criterion 8: data-layer properties ------------------------------------------------------


def test_criterion_8_data_layer_properties(tmp_path):
    from hscl.data import PatientSeries, ScanRecord
    from hscl.errors import ConfigError

    rng = np.random.default_rng(808)
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(3, 40))
        f_train = float(rng.uniform(0.2, 0.6))
        f_val = float(rng.uniform(0.15, (1.0 - f_train) - 0.05))
        fractions = (f_train, f_val, 1.0 - f_train - f_val)
        patients = [
            PatientSeries(f"p{i}", [ScanRecord(f"p{i}", 0, np.zeros(1), float(i))])
            for i in range(n)
        ]
        try:
            train, val, test = split_patients(patients, fractions, seed=int(rng.integers(0, 2**31)))
        except ConfigError:
            continue  # a positive-fraction split got zero patients
        ids = [s.patient_id for split in (train, val, test) for s in split]
        assert len(ids) == n and len(set(ids)) == n, "patient leaked across splits"
        checked += 1

    boundary_ok = (
        [categorize_sf(v) for v in (430.0, 275.0, 180.0)] == [1, 1, 2]
        and categorize_sf(430.0000001) == 0
        and categorize_sf(274.9999999) == 2
        and categorize_sf(179.9999999) == 3
        and categorize_sf(1000.0) == 0
        and categorize_sf(1.0) == 3
    )

    ck = Checkpoint(
        tensors={"encoder.w0": rng.normal(size=(4, 3)), "reg.b": rng.normal(size=1)},
        meta={"stage": "pretrain", "epoch": 1, "model": {"widths": [4, 3]}},
    )
    p1, p2 = tmp_path / "rt1.ckpt", tmp_path / "rt2.ckpt"
    save_checkpoint(ck, p1)
    save_checkpoint(load_checkpoint(p1), p2)
    roundtrip_ok = p1.read_bytes() == p2.read_bytes()

    _report(
        "criterion 8 (data-layer properties)",
        checked > 0 and boundary_ok and roundtrip_ok,
        f"{checked} split configs disjoint, S/F boundaries locked, checkpoint round-trip exact",
    )


# -- criterion 9: degeneracy checks -----------------------------------------------------------


def test_criterion_9_degeneracies():
    rng = np.random.default_rng(909)
    x = rng.normal(size=(40, 6))
    w = rng.normal(size=6)
    y = x @ w * 0.1 + 0.5

    base = pretrain(x, y, x[:8], y[:8], TrainConfig(epochs=4, seed=5), hidden=(8, 4))
    traces_equal = True
    for mode in ("mse+cl", "mse+wcl"):
        cfg = TrainConfig(epochs=4, seed=5, loss=LossConfig(mode=mode, alpha=0.0))
        run = pretrain(x, y, x[:8], y[:8], cfg, hidden=(8, 4))
        traces_equal = traces_equal and run.trace == base.trace

    u = rng.normal(size=(7, 3))
    hs = np.full(7, 0.25)  # all label distances are exactly zero
    mining = mine_batch(hs)
    wcl_cfg = LossConfig(mode="mse+wcl", eps=1.0)  # d_ij + eps == 1 for every pair
    cl_cfg = LossConfig(mode="mse+cl", eps=1.0)
    deviation = abs(
        wcl_loss(Tensor(u), mining, hs, wcl_cfg).item() - cl_loss(Tensor(u), mining, cl_cfg).item()
    )

    _report(
        "criterion 9 (degeneracy checks)",
        traces_equal and deviation < 1e-10,
        f"alpha=0 traces bit-identical: {traces_equal}, |wcl - cl| = {deviation:.3e}",
    )
