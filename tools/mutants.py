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
_OWNED = "tests/test_tooling.py::test_each_decision_is_named_only_by_the_modules_the_ownership_table_allows"
_GRAPH_ROW = f"{_OWNED}[graph]"
_CHECKPOINT_ROW = f"{_OWNED}[checkpoint]"
_STRAY_IMPORT = "tests/test_tooling.py::test_an_import_a_module_never_uses_is_one_the_tracer_binds_there"
_PUBLIC_NAMES = "tests/test_tooling.py::test_every_public_name_has_a_library_user_or_a_declared_reason"
_LAYERING = "tests/test_tooling.py::test_checkpoint_sits_below_the_loops_and_every_other_module_hands_out_its_objects"
_UNPARSEABLE = "tests/test_training.py::test_checkpoint_unparseable_body_with_a_valid_checksum"
_NOT_UTF8_LINE = "tests/test_data.py::test_a_byte_that_is_not_utf8_is_named_by_its_line_in_a_file_and_in_a_stream[1]"
_PIPE = "tests/test_data.py::test_load_dataset_reads_a_pipe_as_the_file_it_streams[64]"
_PIECES = "tests/test_dataset_io.py::test_reader_rows_are_the_csv_reader_rows_of_the_text_in_any_pieces"
_LAYOUT = "tests/test_losses.py::test_losses_reject_an_operand_of_another_layout"
_OTHER_BATCH = "tests/test_losses.py::test_stacked_losses_reject_masks_of_another_batch"
_CONFIG_FILE = "tests/test_cli.py::test_a_config_file_that_is_a_directory_or_not_utf8_exits_2_naming_it"
_NON_FINITE = "tests/test_dataset_io.py::test_save_rejects_a_non_finite_record_before_writing"
_REPEATED = "tests/test_data.py::test_cohort_rejects_a_repeated_patient_and_seq_index"
_GROUPED = "tests/test_data.py::test_cohort_groups_rows_by_first_appearance_and_sorts_each_patient_by_seq_index"
_TENSOR_NAMES = "tests/test_cli.py::test_checkpoint_tensor_names_and_shapes"
_OLD_MOMENTS = "tests/test_cli.py::test_a_checkpoint_that_still_holds_adam_moments_restores_as_the_one_without"

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
        "a restored network holds float32 arrays", "src/hscl/checkpoint.py",
        "np.array(ck.tensors[name], dtype=np.float64)", "np.array(ck.tensors[name], dtype=np.float32)",
        (_FLOAT64_NETS,),
    ),
    Mutant(
        "a restore reads a tensor's stored first moment in its place", "src/hscl/checkpoint.py",
        "np.array(ck.tensors[name], dtype=np.float64)",
        'np.array(ck.tensors.get(f"adam.m.{name}", ck.tensors[name]), dtype=np.float64)',
        (f"{_OLD_MOMENTS}[eval]", f"{_OLD_MOMENTS}[analyze]"),
    ),
    Mutant(
        "the loader refuses a tensor no restore reads", "src/hscl/checkpoint.py",
        'raise CheckpointIntegrityError(f"{path}: tensor {name!r} given twice")',
        'raise CheckpointIntegrityError(f"{path}: tensor {name!r} given twice")\n'
        '        if name.startswith("adam."):\n'
        '            raise CheckpointIntegrityError(f"{path}: unknown tensor {name!r}")',
        (f"{_OLD_MOMENTS}[finetune]",),
    ),
    Mutant(
        "a snapshot writes one Adam moment back", "src/hscl/training.py",
        "return Checkpoint({name: a[s].copy() for name, a in self.params.items()}, meta)",
        "moment = {f\"adam.m.{n}\": m[s].copy() for n, m in zip(self.grads, self.state.views(self.state.m))}\n"
        "        return Checkpoint({name: a[s].copy() for name, a in self.params.items()} | dict(list(moment.items())[:1]), meta)",
        (_TENSOR_NAMES,),
    ),
    Mutant(
        "the loader skips the checksum compare", "src/hscl/checkpoint.py",
        "if zlib.crc32(body) & 0xFFFFFFFF != crc:", "if False:",
        ("tests/test_training.py::test_checkpoint_corrupt_payload", "tests/test_cli.py::test_corrupt_checkpoint_exits_1"),
    ),
    Mutant(
        "the loader reads an unknown newer version", "src/hscl/checkpoint.py",
        "if version != CHECKPOINT_VERSION:", "if version < CHECKPOINT_VERSION:",
        ("tests/test_training.py::test_checkpoint_version_error_names_both",),
    ),
    Mutant(
        "the loader ignores bytes after the last tensor", "src/hscl/checkpoint.py",
        "if offset != len(body):", "if offset > len(body):",
        (f"{_UNPARSEABLE}[trailing-byte]",),
    ),
    Mutant(
        "a tensor given twice keeps its last copy", "src/hscl/checkpoint.py",
        "if name in tensors:", "if False:",
        (f"{_UNPARSEABLE}[name-twice]",),
    ),
    Mutant(
        "meta_value takes a value of any type", "src/hscl/checkpoint.py",
        "if not check(value):", "if False:",
        ("tests/test_cli.py::test_corrupt_checkpoint_exits_1",),
    ),
    Mutant(
        "check_meta asks a pretrain checkpoint for the finetune-only keys", "src/hscl/checkpoint.py",
        'if stage == "finetune" or key not in FINETUNE_META:', "if True:",
        ("tests/test_tooling.py::test_checkpoint_meta_declares_exactly_the_keys_every_writer_emits",),
    ),
    Mutant(
        "checkpoint reaches up into training", "src/hscl/checkpoint.py",
        '    # older version-1 checkpoints also carry a "pooling" key',
        '    from .training import TrainConfig  # noqa: F401\n    # older version-1 checkpoints also carry a "pooling" key',
        (_LAYERING,),
    ),
    Mutant(
        "training stops handing out checkpoint_bytes", "src/hscl/training.py",
        "    checkpoint_bytes,\n", "",
        (_LAYERING,),
    ),
    Mutant(
        "pipeline imports the metadata table", "src/hscl/pipeline.py",
        "from .checkpoint import (\n    Checkpoint,\n", "from .checkpoint import (\n    CHECKPOINT_META,\n    Checkpoint,\n",
        (_CHECKPOINT_ROW,),
    ),
    Mutant(
        "metrics names zlib", "src/hscl/metrics.py",
        "from .data import LABEL_NAMES\n", "import zlib\n\nfrom .data import LABEL_NAMES\n",
        (_CHECKPOINT_ROW,),
    ),
    Mutant(
        "pipeline says checkpoint metadata", "src/hscl/pipeline.py",
        "a checkpoint was trained with from its ``data`` metadata.",
        "a checkpoint was trained with from its checkpoint metadata.",
        (_CHECKPOINT_ROW,),
    ),
    Mutant(
        "metrics imports a module it never uses", "src/hscl/metrics.py",
        "from dataclasses import dataclass, field\n", "import os\nfrom dataclasses import dataclass, field\n",
        (_STRAY_IMPORT,),
    ),
    Mutant(
        "training imports a name it never uses", "src/hscl/training.py",
        "from .losses import (\n", "from .losses import (\n    MODES,\n",
        (_STRAY_IMPORT,),
    ),
    Mutant(
        "data gains a public function no module calls", "src/hscl/data.py",
        "def check_fractions(", "def pair_count(pairs) -> int:\n    return len(pairs)\n\n\ndef check_fractions(",
        (_PUBLIC_NAMES,),
    ),
    Mutant(
        "training gains a public constant no module reads", "src/hscl/training.py",
        "# seed-stream tags so the different random uses never collide\n",
        "DEFAULT_PATIENCE = 5\n\n# seed-stream tags so the different random uses never collide\n",
        (_PUBLIC_NAMES,),
    ),
    Mutant(
        "training calls a name declared unused", "src/hscl/training.py",
        "# seed-stream tags so the different random uses never collide\n",
        "_GRADIENTS = loss_gradients\n\n# seed-stream tags so the different random uses never collide\n",
        (_PUBLIC_NAMES,),
    ),
    Mutant(
        "a declared unused name goes private", "src/hscl/training.py",
        "def parse_trace(", "def _parse_trace(",
        (_PUBLIC_NAMES,),
    ),
    Mutant(
        "model stores to an array's data", "src/hscl/model.py",
        "biases.append(np.zeros(fan_out))", "biases.append(np.zeros(fan_out))\n        biases[-1].data = biases[-1].data",
        (f"{_OWNED}[data-store]",),
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
    Mutant(
        "the loader reads the text as utf-8-sig", "src/hscl/data.py",
        '_TEXT_MODE = {"encoding": "utf-8",', '_TEXT_MODE = {"encoding": "utf-8-sig",',
        ("tests/test_dataset_io.py::test_a_file_of_a_cut_byte_order_mark_is_not_utf8[1-byte]",),
    ),
    Mutant(
        "a character read after a closing \\r is dropped", "src/hscl/data.py",
        'if (carry := fh.read(1)) == "\\n":\n                text, carry = text + carry, ""',
        'if fh.read(1) == "\\n":\n                text = text + "\\n"',
        (f"{_PIECES}[quoted id with lone cr]",),
    ),
    Mutant(
        "a piece is not read on to its line end", "src/hscl/data.py",
        "text += fh.readline()", 'text += ""',
        (_NOT_UTF8_LINE,),
    ),
    Mutant(
        "the csv path's pieces are not checked for bytes that are not UTF-8", "src/hscl/data.py",
        "checked = _checked(chain([text], texts), n_rows, path)", "checked = chain([text], texts)",
        (_NOT_UTF8_LINE,),
    ),
    Mutant(
        "the csv path's line count starts one late", "src/hscl/data.py",
        "_checked(chain([text], texts), n_rows, path)", "_checked(chain([text], texts), n_rows + 1, path)",
        (_NOT_UTF8_LINE,),
    ),
    Mutant(
        "the csv path counts one line end too many per piece", "src/hscl/data.py",
        'newlines += text.count("\\n")', 'newlines += text.count("\\n") + 1',
        (_NOT_UTF8_LINE,),
    ),
    Mutant(
        "a byte that is not UTF-8 is named one line early", "src/hscl/data.py",
        'line = newlines + text.count("\\n", 0, bad.start()) + 1', 'line = newlines + text.count("\\n", 0, bad.start())',
        (_NOT_UTF8_LINE,),
    ),
    Mutant(
        "plain pieces are not counted", "src/hscl/data.py",
        "n_rows += len(lines)", "n_rows += 0",
        (_PIPE,),
    ),
    Mutant(
        "plain pieces are not checked for bytes that are not UTF-8", "src/hscl/data.py",
        "                _check_utf8(text, n_rows, path)\n", "",
        (_PIPE,),
    ),
    Mutant(
        "a plain piece keeps the empty string after its last \\n", "src/hscl/data.py",
        "if not lines[-1]:  # the piece ends its last line\n                lines.pop()",
        "if not lines[-1]:  # the piece ends its last line\n                pass",
        (f"{_PIECES}[blank lines]",),
    ),
    Mutant(
        "the plain path's long-line bound lets a line at the limit pass", "src/hscl/data.py",
        "if len(text) - len(lines) < limit or", "if len(text) - len(lines) <= limit or",
        ("tests/test_dataset_io.py::test_a_last_line_over_the_limit_without_a_line_end_is_a_field_over_the_limit[1]",),
    ),
    Mutant(
        "plain pieces skip the field-size limit", "src/hscl/data.py",
        "if len(text) - len(lines) < limit or max(map(len, lines)) <= limit:", "if True:",
        ("tests/test_dataset_io.py::test_a_last_line_over_the_limit_without_a_line_end_is_a_field_over_the_limit[64]",),
    ),
    Mutant(
        "a row fault is raised before the rest of the file is read", "src/hscl/data.py",
        "            for _ in blocks:  # a fault of the file itself, later in it, is reported first\n                pass\n", "",
        ("tests/test_dataset_io.py::test_a_late_fault_of_the_file_beats_an_earlier_bad_row[not utf-8-64]",),
    ),
    Mutant(
        "a csv.Error is raised before the rest of the file is checked", "src/hscl/data.py",
        "        for _ in checked:  # bytes that are not UTF-8, later in the file, are reported first\n            pass\n", "",
        ("tests/test_dataset_io.py::test_non_utf8_bytes_beat_an_earlier_over_limit_field",),
    ),
    Mutant(
        "save_dataset writes rows it has not checked", "src/hscl/data.py",
        "    if not finite.all():  # load_dataset would reject it\n", "    if False:\n",
        (f"{_NON_FINITE}[nan-score]", f"{_NON_FINITE}[inf-feature]"),
    ),
    Mutant(
        "save_dataset checks the scores but not the features", "src/hscl/data.py",
        "finite = np.isfinite(cohort.scores) & np.isfinite(cohort.features).all(axis=1)",
        "finite = np.isfinite(cohort.scores)",
        (f"{_NON_FINITE}[inf-feature]",),
    ),
    Mutant(
        "save_dataset names the last row that is not finite", "src/hscl/data.py",
        "k = int(np.argmin(finite))", "k = len(finite) - 1 - int(np.argmin(finite[::-1]))",
        (f"{_NON_FINITE}[nan-score]",),
    ),
    Mutant(
        "the cohort takes a repeated (patient_id, seq_index) in rows out of order", "src/hscl/data.py",
        "            if len(repeated):\n", "            if False:\n",
        (f"{_REPEATED}[apart]", f"{_REPEATED}[unsorted]"),
    ),
    Mutant(
        "the cohort takes a repeated seq_index in rows in order", "src/hscl/data.py",
        "(seq[1:] > seq[:-1])", "(seq[1:] >= seq[:-1])",
        (f"{_REPEATED}[adjacent]",),
    ),
    Mutant(
        "the cohort keeps its rows in the order given", "src/hscl/data.py",
        "if not _ascending(codes, seq).all():", "if False:",
        (_GROUPED, "tests/test_dataset_io.py::test_load_matches_the_per_scalar_loader[unsorted and interleaved]"),
    ),
    Mutant(
        "the cohort groups each patient's scans but leaves them out of seq_index order", "src/hscl/data.py",
        "order = np.lexsort((seq, codes))", 'order = np.argsort(codes, kind="stable")',
        (_GROUPED,),
    ),
    Mutant(
        "the min-max stats take numpy's pick of equal signed zeros", "src/hscl/data.py",
        "float(scores[np.argmin(scores)])", "float(scores.min())",
        ("tests/test_data.py::test_fit_normalization_takes_python_s_min_and_max_signed_zero_included",),
    ),
    Mutant(
        "compare trains a seed without val or test pairs", "src/hscl/pipeline.py",
        'check_splits(prepared[seed], "run_comparison", SPLITS)', 'check_splits(prepared[seed], "run_comparison", ("train",))',
        ("tests/test_cli.py::test_compare_fails_a_seed_whose_val_split_has_no_pairs_as_finetune_does",),
    ),
    Mutant(
        "compare runs every seed on a zero fraction", "src/hscl/pipeline.py",
        "        if fraction == 0:\n", "        if False:\n",
        ("tests/test_cli.py::test_compare_with_a_zero_fraction_exits_2_before_any_seed",),
    ),
    Mutant(
        "finetune trains without val pairs", "src/hscl/cli.py",
        'check_splits(prepared, "finetune", ("train", "val"))', 'check_splits(prepared, "finetune", ("train",))',
        ("tests/test_cli.py::test_finetune_with_an_empty_val_split_exits_2_before_training",),
    ),
    Mutant(
        "the target shape check names the deleted mse_loss", "src/hscl/losses.py",
        'raise ShapeError(f"combined_loss_terms: target shape', 'raise ShapeError(f"mse_loss: target shape',
        (f"{_LAYOUT}[mse_term-target]", f"{_LAYOUT}[combined_loss_terms-target]"),
    ),
    Mutant(
        "the target shape check takes a target of another layout", "src/hscl/losses.py",
        "if y_pred.data.ndim not in (1, 2) or target.shape != y_pred.shape:", "if y_pred.data.ndim not in (1, 2):",
        (f"{_LAYOUT}[mse_term-target]", "tests/test_losses.py::test_mse_length_mismatch"),
    ),
    Mutant(
        "the embeddings check takes a stack of stacks", "src/hscl/losses.py",
        "if embeddings.data.ndim not in (2, 3):", "if embeddings.data.ndim not in (2, 3, 4):",
        (f"{_LAYOUT}[combined_loss_terms-embeddings]",),
    ),
    Mutant(
        "the mining-mask check takes the masks of another batch", "src/hscl/losses.py",
        "if mining.positive.shape != rows + rows[-1:]:", "if False:",
        ("tests/test_losses.py::test_batch_size_mismatch_rejected", _OTHER_BATCH),
    ),
    Mutant(
        "the scores check names the deleted wcl_loss", "src/hscl/losses.py",
        'raise ShapeError(f"combined_loss_terms: got {scores.shape} scores',
        'raise ShapeError(f"wcl_loss: got {scores.shape} scores',
        (f"{_LAYOUT}[contrastive_term-scores]",),
    ),
    Mutant(
        "a config file that is a directory is opened", "src/hscl/cli.py",
        "if not os.path.isfile(config_path):", "if False:",
        (f"{_CONFIG_FILE}[directory]",),
    ),
    Mutant(
        "a config file that is not UTF-8 escapes as a UnicodeDecodeError", "src/hscl/cli.py",
        "except UnicodeDecodeError:", "except ZeroDivisionError:",
        (f"{_CONFIG_FILE}[not-utf8]",),
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
