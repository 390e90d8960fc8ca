"""The package's public surface, and what each command loads."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import hydramerge

# Every name the package exports, by the module that defines it.
EXPORTS = {
    "adapters": [
        "AdapterCollection", "LowRankAdapter", "MergedAdapterSlot", "MergedBundle",
        "SharedLoraSlot", "SharedVeraSlot", "SlotKey", "VeraAdapter", "delta_weight",
    ],
    "analysis": [
        "ReconReport", "SimilarityReport", "pairwise_similarity", "reconstruction_report",
        "storage_ratio",
    ],
    "archive": ["read_archive", "write_archive"],
    "baselines": [
        "BaselineConfig", "MergeMethod", "MergeTarget", "dare_transform", "merge_collection",
        "merge_dare", "merge_dare_ties", "merge_ta", "ties_merge", "ties_trim",
    ],
    "errors": [
        "ArchiveFormatError", "DegenerateInputError", "HydraMergeError", "NumericalError",
        "ParameterError", "ShapeError", "ValidationError",
    ],
    "gradcheck": ["run_suite"],
    "hydra": [
        "HydraConfig", "HydraState", "InitScheme", "TrainTrace", "VeraHydraState", "adamw_step",
        "assign_tasks", "export_slot", "gradients", "init_state", "init_vera_state", "loss_eq1",
        "loss_eq2", "merge_collection_hydra", "train", "train_vera",
    ],
    "linalg": [
        "DistanceKind", "Rng", "distance", "distance_grad", "finite_diff", "gaussian_sample",
        "matmul", "softmax_rows",
    ],
    "synthetic": ["SynthSpec", "generate"],
}  # fmt: skip
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


class TestPublicSurface:
    @pytest.mark.parametrize("module, name", NAMES)
    def test_name_is_its_module_object(self, module, name):
        defining = importlib.import_module(f"hydramerge.{module}")
        assert getattr(hydramerge, name) is getattr(defining, name)

    def test_every_name_and_submodule_is_listed_and_star_imported(self):
        expected = {name for _, name in NAMES} | set(EXPORTS)
        assert expected <= set(dir(hydramerge))
        namespace: dict = {}
        exec("from hydramerge import *", namespace)
        assert expected <= set(namespace)
        for module in EXPORTS:
            assert namespace[module] is sys.modules[f"hydramerge.{module}"]
        assert hydramerge.__version__ == "0.1.0"

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            hydramerge.no_such_name
        assert not hasattr(hydramerge, "cli_main")


def loaded(*code_and_args) -> list[str]:
    """``hydramerge`` modules a fresh interpreter holds after running
    ``python -c CODE ARGS...``; the code prints ``sys.modules`` to stderr."""
    env = dict(os.environ)
    env.pop("HYDRA_MERGE_LOG", None)
    result = subprocess.run(
        [sys.executable, "-c", *code_and_args], capture_output=True, text=True, env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stderr.splitlines()[-1])


SHOW_MODULES = (
    "print(__import__('json').dumps(sorted("
    "m for m in sys.modules if m in ('numpy', '_hashlib', 'decimal', 'logging')"
    " or m.startswith('hydramerge')"
    ")), file=sys.stderr)"
)
RUN_COMMAND = "import sys; from hydramerge.cli import main; main(sys.argv[1:]); " + SHOW_MODULES


@pytest.fixture(scope="module")
def archives(tmp_path_factory):
    from hydramerge.archive import write_archive
    from hydramerge.baselines import BaselineConfig, MergeMethod, merge_collection
    from hydramerge.synthetic import SynthSpec, generate

    work = tmp_path_factory.mktemp("loads")
    coll = generate(SynthSpec(tasks=3, layers=1, d=8, k=8, rank=2))
    write_archive(coll, work / "coll.lrta")
    write_archive(merge_collection(coll, BaselineConfig(MergeMethod.TA)), work / "ta.lrta")
    return work


def command_argv(archives, command: str) -> list[str]:
    coll, ta = str(archives / "coll.lrta"), str(archives / "ta.lrta")
    return {
        "report-storage": ["report-storage", "--in", coll, "--merged", ta],
        "eval-recon": ["eval-recon", "--in", coll, "--merged", ta],
        "analyze-similarity": ["analyze-similarity", "--in", coll],
        "gen-synthetic": ["gen-synthetic", "--out", str(archives / f"{command}.lrta")],
        "merge-ta": ["merge", "--in", coll, "--out", str(archives / f"{command}.lrta"),
                     "--method", "ta"],
        "merge-hydraopt": ["merge", "--in", coll, "--out", str(archives / f"{command}.lrta"),
                           "--method", "hydraopt", "--m", "2", "--epochs", "2"],
        "grad-check": ["grad-check", "--instances", "1"],
    }[command]  # fmt: skip


COMMANDS = ["report-storage", "eval-recon", "analyze-similarity", "gen-synthetic", "merge-ta",
            "merge-hydraopt", "grad-check"]  # fmt: skip


class TestWhatEachCommandLoads:
    def test_import_loads_no_submodule_and_no_numpy(self):
        assert loaded("import sys, hydramerge; " + SHOW_MODULES) == ["hydramerge"]

    def test_a_submodule_attribute_loads_it(self):
        code = "import sys, hydramerge; assert hydramerge.archive.__name__ == 'hydramerge.archive'; "
        assert "hydramerge.archive" in loaded(code + SHOW_MODULES)

    def test_the_cli_module_runs_as_a_script(self):
        result = subprocess.run(
            [sys.executable, "-m", "hydramerge.cli", "--help"], capture_output=True, text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("usage: ")

    @pytest.mark.parametrize(
        "command",
        ["report-storage", "eval-recon", "analyze-similarity", "gen-synthetic", "merge-ta"],
    )
    def test_reports_and_baselines_load_no_optimizer(self, archives, command):
        modules = loaded(RUN_COMMAND, *command_argv(archives, command))
        assert "hydramerge.cli" in modules
        assert "hydramerge.hydra" not in modules
        assert "hydramerge.gradcheck" not in modules

    @pytest.mark.parametrize("command", ["report-storage", "eval-recon", "analyze-similarity"])
    def test_reports_load_no_hash_or_fraction(self, archives, command):
        """No command loads OpenSSL's ``_hashlib`` (see below), and
        ``decimal`` (through ``fractions``) serves only uncertified means."""
        modules = loaded(RUN_COMMAND, *command_argv(archives, command))
        assert "hydramerge.cli" in modules
        assert "_hashlib" not in modules
        assert "decimal" not in modules

    @pytest.mark.parametrize("command", ["merge-ta", "merge-hydraopt", "gen-synthetic"])
    def test_commands_that_draw_load_no_openssl(self, archives, command):
        """Slot seeds take BLAKE2b from CPython's ``_blake2``: importing
        ``hashlib`` would load OpenSSL's ``_hashlib`` too, 3.6 MB of RSS."""
        modules = loaded(RUN_COMMAND, *command_argv(archives, command))
        assert "hydramerge.cli" in modules
        assert "_hashlib" not in modules

    def test_the_probe_sees_hash_and_fraction_modules(self):
        modules = loaded("import sys, hashlib, fractions; " + SHOW_MODULES)
        assert "_hashlib" in modules and "decimal" in modules

    def test_hydraopt_loads_no_checker_generator_or_report(self, archives):
        modules = loaded(RUN_COMMAND, *command_argv(archives, "merge-hydraopt"))
        assert "hydramerge.hydra" in modules
        for module in ("gradcheck", "synthetic", "analysis"):
            assert f"hydramerge.{module}" not in modules

    def test_the_probe_sees_logging(self):
        assert "logging" in loaded("import sys, logging; " + SHOW_MODULES)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_no_command_loads_logging_unless_asked(self, archives, command):
        """Without ``HYDRA_MERGE_LOG`` nothing is logged, so ``logging``,
        which adds to every command's peak RSS, is never imported."""
        modules = loaded(RUN_COMMAND, *command_argv(archives, command))
        assert "hydramerge.cli" in modules
        assert "logging" not in modules


class TestLogging:
    @pytest.mark.parametrize("command", ["gen-synthetic", "merge-ta", "merge-hydraopt"])
    def test_info_names_the_archive_written(self, archives, command):
        argv = command_argv(archives, command)
        result = subprocess.run(
            [sys.executable, "-m", "hydramerge", *argv], capture_output=True, text=True,
            env=dict(os.environ, HYDRA_MERGE_LOG="info"), timeout=300,
        )  # fmt: skip
        assert result.returncode == 0, result.stderr
        json.loads(result.stdout)
        assert result.stderr == f"INFO hydramerge: wrote {argv[argv.index('--out') + 1]}\n"

    def test_error_level_prints_nothing_on_success(self, archives):
        argv = command_argv(archives, "merge-ta")
        result = subprocess.run(
            [sys.executable, "-m", "hydramerge", *argv], capture_output=True, text=True,
            env=dict(os.environ, HYDRA_MERGE_LOG="error"), timeout=300,
        )  # fmt: skip
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
