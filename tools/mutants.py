"""Mutation table: each row is a deliberate defect and the tests that must catch it.

A row names a file, the exact ``old`` text in it (found exactly once), the
``new`` text that replaces it, and the test ids that must fail on the edited
tree. Each run works on a copy of the tree in a temporary directory. The
tool first runs every row's tests on a clean copy, where they must pass.
Then, per mutant, it copies the tree again, applies the edit there, runs
``pytest -x -q`` on the row's tests and reports the mutant killed (some test
failed) or survived. It exits non-zero if the clean run failed or any mutant
survived. The working tree is never edited. Run from the root of a checkout:

    python tools/mutants.py

A row whose code goes is replaced by one that watches the new code, not
deleted, so each check keeps a defect it is shown to catch.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
_COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_out")


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


_ARRAY_CALL = "tests/test_model.py::test_each_network_call_returns_the_plain_array_of_the_mlp_pass"
_FLOAT64_NETS = "tests/test_training.py::test_initialised_and_restored_networks_hold_float64_arrays"
_GRAPH_ROW = "tests/test_tooling.py::test_each_decision_is_named_only_by_the_modules_the_ownership_table_allows[graph]"

MUTANTS = (
    Mutant(
        "encode reads its batch as float32", "src/hscl/model.py",
        "np.asarray(batch, dtype=np.float64)", "np.asarray(batch, dtype=np.float32)",
        (f"{_ARRAY_CALL}[encode-2-D]",),
    ),
    Mutant(
        "predict_hs keeps the head's output column", "src/hscl/model.py",
        "return _run(head, e, _PREDICT).reshape(e.shape[:-1])", "return _run(head, e, _PREDICT)",
        (f"{_ARRAY_CALL}[predict_hs-stacked]",),
    ),
    Mutant(
        "classify_pairs swaps the pair's halves", "src/hscl/model.py",
        "np.concatenate([up, un], axis=-1)", "np.concatenate([un, up], axis=-1)",
        (f"{_ARRAY_CALL}[classify_pairs-nested list]",),
    ),
    Mutant(
        "a network call returns the last pre-activation", "src/hscl/model.py",
        "return mlp_forward(layers, x)[-1][1]", "return mlp_forward(layers, x)[-1][2]",
        (f"{_ARRAY_CALL}[encode-stacked]",),
    ),
    Mutant(
        "the tanh layers' backward drops a factor of y", "src/hscl/model.py",
        "g = g * (1.0 - y * y)", "g = g * (1.0 - y)",
        (
            "tests/test_model.py::test_mean_prediction_gradient_through_encoder",
            "tests/test_model.py::test_each_network_call_matches_the_per_layer_dense_chain_bitwise[encode-tanh-None-True]",
        ),
    ),
    Mutant(
        "an initialised network holds float32 weights", "src/hscl/model.py",
        "weights.append(rng.uniform(-s, s, size=(fan_in, fan_out)))",
        "weights.append(rng.uniform(-s, s, size=(fan_in, fan_out)).astype(np.float32))",
        (_FLOAT64_NETS,),
    ),
    Mutant(
        "a restored network holds float32 arrays", "src/hscl/training.py",
        "np.array(ck.tensors[name], dtype=np.float64)", "np.array(ck.tensors[name], dtype=np.float32)",
        (_FLOAT64_NETS,),
    ),
    Mutant(
        "model names Tensor again", "src/hscl/model.py",
        "from .errors import ConfigError, ShapeError\n",
        "from .errors import ConfigError, ShapeError\nfrom .tensor import Tensor\n",
        (_GRAPH_ROW,),
    ),
    Mutant(
        "training names node", "src/hscl/training.py",
        "from .tensor import softmax_cross_entropy_backward,", "from .tensor import node, softmax_cross_entropy_backward,",
        (_GRAPH_ROW,),
    ),
    Mutant(
        "the step profile prints an infinite step", "tools/step_profile.py",
        'times["step"] = sum(times[stage] for stage in STAGES)', 'times["step"] = float("inf")',
        ("tests/test_tooling.py::test_the_step_profile_prints_every_stage_of_every_loop",),
    ),
    Mutant(
        "the stack profile's ratio leaves out the run count", "tools/stack_profile.py",
        "ms / (s * by_size[1])", "ms / by_size[1]",
        ("tests/test_tooling.py::test_the_stack_profile_prints_both_stack_tables_with_each_ratio_to_its_runs_one_after_another",),
    ),
    Mutant(
        "the cross-entropy backward keeps a -0.0 row sum", "src/hscl/tensor.py",
        "g_s -= (g_picked * picked + 0.0)[..., None]", "g_s -= (g_picked * picked)[..., None]",
        tuple(f"tests/test_tensor.py::test_the_cross_entropy_pair_gives_the_bits_of_its_general_form[{r}-{b}]"
              for r in (1, 3) for b in (1, 2, 8)),
    ),
    Mutant(
        "the loader keeps a byte-order mark", "src/hscl/data.py",
        'carry = fh.read(1).removeprefix("\\ufeff")', "carry = fh.read(1)",
        ("tests/test_dataset_io.py::test_load_matches_the_per_scalar_loader[bom]",),
    ),
)


def pytest_run(root: Path, tests, *options: str) -> subprocess.CompletedProcess:
    """``pytest -q`` on ``tests`` in the tree at ``root``, its ``src`` first on the path, no cache written."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *options, *tests],
        cwd=root, env=env, capture_output=True, text=True,
    )


def run_on_copy(tests, mutant: Mutant | None = None) -> subprocess.CompletedProcess:
    """``pytest -x -q`` on ``tests`` in a copy of the tree, with ``mutant`` applied to the copy if given."""
    with tempfile.TemporaryDirectory(prefix="hscl-mutant-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(ROOT, copy, ignore=_COPY_IGNORE)
        if mutant is not None:
            path = copy / mutant.file
            text = path.read_text(encoding="utf-8")
            if text.count(mutant.old) != 1:
                raise SystemExit(f"{mutant.name}: its old text occurs {text.count(mutant.old)} times in {mutant.file}")
            path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        return pytest_run(copy, tests, "-x")


def main() -> int:
    clean = run_on_copy(sorted({t for m in MUTANTS for t in m.tests}))
    if clean.returncode != 0:
        print(clean.stdout[-2000:], end="")
        print("the named tests fail on a copy of the clean tree")
        return 1
    survived = 0
    for mutant in MUTANTS:
        dead = run_on_copy(mutant.tests, mutant).returncode != 0
        survived += not dead
        print(f"{'killed  ' if dead else 'SURVIVED'}  {mutant.name}")
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
