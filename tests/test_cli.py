import argparse
import functools
import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from hydramerge import cli, gradcheck, hydra, synthetic
from hydramerge.archive import write_archive
from hydramerge.baselines import BaselineConfig, MergeMethod, MergeTarget
from hydramerge.hydra import HydraConfig, InitScheme
from hydramerge.linalg import DistanceKind
from hydramerge.synthetic import SynthSpec, generate

CLI = [sys.executable, "-m", "hydramerge"]


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=env, timeout=300
    )


def gen_args(out, **overrides):
    base = {
        "tasks": 3,
        "layers": 1,
        "slots": "q,v",
        "d": 8,
        "k": 8,
        "rank": 2,
        "a-noise": 0.05,
        "b-scale": 1.0,
        "seed": 0,
    }
    base.update(overrides)
    args = ["gen-synthetic", "--out", str(out)]
    for key, value in base.items():
        args += [f"--{key}", str(value)]
    return args


@pytest.fixture()
def small_archive(tmp_path):
    path = tmp_path / "coll.lrta"
    result = run_cli(*gen_args(path))
    assert result.returncode == 0, result.stderr
    return path


class TestGenSynthetic:
    def test_writes_archive_and_json(self, tmp_path):
        out = tmp_path / "c.lrta"
        result = run_cli(*gen_args(out))
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["command"] == "gen-synthetic"
        assert doc["tasks"] == ["t0", "t1", "t2"]
        assert out.exists()

    def test_repeat_is_byte_identical(self, tmp_path):
        one, two = tmp_path / "one.lrta", tmp_path / "two.lrta"
        res_one = run_cli(*gen_args(one))
        res_two = run_cli(*gen_args(two))
        assert one.read_bytes() == two.read_bytes()
        assert res_one.stdout.replace(str(one), "X") == res_two.stdout.replace(str(two), "X")


class TestMerge:
    def test_ta_merge_reports_fifth_storage(self, small_archive, tmp_path):
        out = tmp_path / "merged.lrta"
        result = run_cli(
            "merge", "--in", str(small_archive), "--out", str(out), "--method", "ta"
        )
        assert result.returncode == 0, result.stderr
        doc = json.loads(result.stdout)
        assert doc["storage_ratio_percent"] == pytest.approx(100.0 / 3.0)
        assert doc["final_loss"] is None
        assert out.exists()

    def test_hydraopt_full_cluster_storage_is_sixty_percent(self, tmp_path):
        archive = tmp_path / "five.lrta"
        run_cli(*gen_args(archive, tasks=5))
        out = tmp_path / "merged.lrta"
        result = run_cli(
            "merge", "--in", str(archive), "--out", str(out),
            "--method", "hydraopt", "--m", "5", "--epochs", "50",
        )
        assert result.returncode == 0, result.stderr
        doc = json.loads(result.stdout)
        assert doc["storage_ratio_percent"] == 60.0
        assert doc["final_loss"] is not None
        assert '"storage_ratio_percent": 60.0' in result.stdout

    def test_merge_twice_identical_bytes(self, small_archive, tmp_path):
        outs = [tmp_path / "a.lrta", tmp_path / "b.lrta"]
        for out in outs:
            result = run_cli(
                "merge", "--in", str(small_archive), "--out", str(out),
                "--method", "dare-ties", "--seed", "7",
            )
            assert result.returncode == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_hydraopt_jobs_matches_sequential(self, small_archive, tmp_path):
        outs = []
        for jobs in ("1", "3"):
            out = tmp_path / f"m{jobs}.lrta"
            result = run_cli(
                "merge", "--in", str(small_archive), "--out", str(out),
                "--method", "hydraopt", "--m", "2", "--epochs", "40", "--jobs", jobs,
            )
            assert result.returncode == 0, result.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_a_only_conflicts_with_hydraopt(self, small_archive, tmp_path):
        result = run_cli(
            "merge", "--in", str(small_archive), "--out", str(tmp_path / "x.lrta"),
            "--method", "hydraopt", "--a-only",
        )
        assert result.returncode == 2

    def test_m_conflicts_with_baseline(self, small_archive, tmp_path):
        result = run_cli(
            "merge", "--in", str(small_archive), "--out", str(tmp_path / "x.lrta"),
            "--method", "ta", "--m", "2",
        )
        assert result.returncode == 2

    def test_missing_input_is_exit_three(self, tmp_path):
        result = run_cli(
            "merge", "--in", str(tmp_path / "absent.lrta"),
            "--out", str(tmp_path / "x.lrta"), "--method", "ta",
        )
        assert result.returncode == 3

    @pytest.mark.parametrize("method", ["ta", "dare"])
    def test_overflowing_scale_is_one_error_line(self, tmp_path, method):
        """A mean times ``--scale`` past the float range: with numpy
        warnings as errors, one typed error naming the slot and the side."""
        coll = tmp_path / "default.lrta"
        assert run_cli("gen-synthetic", "--out", str(coll)).returncode == 0
        out = tmp_path / "m.lrta"
        result = run_cli(
            "merge", "--in", str(coll), "--out", str(out), "--method", method,
            "--scale", "1e308", env_extra={"PYTHONWARNINGS": "error::RuntimeWarning"},
        )  # fmt: skip
        assert result.returncode == 3, result.stderr
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            "error: slot layer.0.q: shared side: scale 1e+308 overflows the merged tensor "
            "to non-finite values"
        ], result.stderr
        assert not out.exists()

    def test_diverging_hydraopt_is_exit_three(self, tmp_path):
        coll = tmp_path / "default.lrta"
        assert run_cli("gen-synthetic", "--out", str(coll)).returncode == 0
        out = tmp_path / "m.lrta"
        result = run_cli(
            "merge", "--in", str(coll), "--out", str(out), "--method", "hydraopt",
            "--m", "2", "--lr", "1e6", "--epochs", "200",
        )  # fmt: skip
        assert result.returncode == 3
        assert "slot layer.0.q: step 1: loss" in result.stderr
        assert result.stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("distance", ["mae", "mse"])
    def test_overflowing_step_prints_one_error_line(self, tmp_path, distance):
        coll = tmp_path / "default.lrta"
        assert run_cli("gen-synthetic", "--out", str(coll)).returncode == 0
        out = tmp_path / "m.lrta"
        result = run_cli(
            "merge", "--in", str(coll), "--out", str(out), "--method", "hydraopt",
            "--m", "2", "--epochs", "5", "--lr", "1e300", "--distance", distance,
        )  # fmt: skip
        assert result.returncode == 3
        lines = result.stderr.splitlines()
        assert len(lines) == 1, result.stderr
        assert lines[0].startswith("error: slot layer.0.q: step 1: ")
        assert result.stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["lora", "vera"])
    @pytest.mark.parametrize("m", ["2", "3"])
    def test_cos_on_zero_adapter_names_slot_and_task(self, tmp_path, kind, m):
        import numpy as np

        from hydramerge import AdapterCollection, LowRankAdapter, SlotKey, VeraAdapter
        from hydramerge import write_archive

        rng = np.random.default_rng(0)
        slot = SlotKey(1, "v")
        frozen = dict(shared_b=rng.standard_normal((6, 2)), shared_a=rng.standard_normal((2, 5)))
        table = {}
        for task in ("alpha", "beta", "gamma"):
            scale = 0.0 if task == "beta" else 1.0
            if kind == "lora":
                b = scale * rng.standard_normal((6, 2))
                adapter = LowRankAdapter(b=b, a=frozen["shared_a"])
            else:
                adapter = VeraAdapter(
                    lambda_b=scale * rng.standard_normal(6), lambda_d=np.ones(2), **frozen
                )
            table[(task, slot)] = adapter
        coll = tmp_path / "zero.lrta"
        write_archive(AdapterCollection.build(["alpha", "beta", "gamma"], table), coll)
        out = tmp_path / "m.lrta"
        result = run_cli(
            "merge", "--in", str(coll), "--out", str(out), "--method", "hydraopt",
            "--m", m, "--distance", "cos", "--epochs", "5",
        )  # fmt: skip
        assert result.returncode == 3
        assert "slot layer.1.v: task beta: cosine distance is undefined" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--method", "hydraopt", "--m", "2", "--temp", "inf"], "temperature"),
            (["--method", "hydraopt", "--m", "2", "--lr", "inf"], "learning_rate"),
            (["--method", "ta", "--scale", "inf"], "scale"),
            (["--method", "ta", "--scale", "nan"], "scale"),
        ],
    )
    def test_non_finite_parameter_is_exit_three(self, small_archive, tmp_path, flags, field):
        out = tmp_path / "merged.lrta"
        result = run_cli("merge", "--in", str(small_archive), "--out", str(out), *flags)
        assert result.returncode == 3
        assert f"{field} must be finite" in result.stderr
        assert not out.exists()

    def test_bundle_input_is_exit_three(self, small_archive, tmp_path):
        merged = tmp_path / "merged.lrta"
        run_cli("merge", "--in", str(small_archive), "--out", str(merged), "--method", "ta")
        result = run_cli(
            "merge", "--in", str(merged), "--out", str(tmp_path / "y.lrta"), "--method", "ta"
        )
        assert result.returncode == 3
        assert "bundle" in result.stderr


class TestReports:
    def test_report_storage_fields(self, small_archive, tmp_path):
        merged = tmp_path / "merged.lrta"
        run_cli("merge", "--in", str(small_archive), "--out", str(merged), "--method", "ta")
        result = run_cli("report-storage", "--in", str(small_archive), "--merged", str(merged))
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        storage = doc["storage"]
        assert storage["ratio_percent"] == pytest.approx(
            100.0 * storage["merged_params"] / storage["original_params"]
        )

    def test_analyze_similarity_fields(self, small_archive):
        result = run_cli("analyze-similarity", "--in", str(small_archive))
        doc = json.loads(result.stdout)
        assert set(doc["similarity"]) == {"A", "B"}
        assert "grand_mean" in doc["similarity"]["A"]

    def test_eval_recon_fields_and_out_file(self, small_archive, tmp_path):
        merged = tmp_path / "merged.lrta"
        run_cli("merge", "--in", str(small_archive), "--out", str(merged), "--method", "ta")
        json_out = tmp_path / "recon.json"
        result = run_cli(
            "eval-recon", "--in", str(small_archive), "--merged", str(merged),
            "--out", str(json_out),
        )
        doc = json.loads(result.stdout)
        assert "grand_mean_mae" in doc["recon"]
        assert json.loads(json_out.read_text()) == doc

    def test_diagnostics_go_to_stderr(self, small_archive, tmp_path):
        merged = tmp_path / "merged.lrta"
        result = run_cli(
            "merge", "--in", str(small_archive), "--out", str(merged), "--method", "ta",
            env_extra={"HYDRA_MERGE_LOG": "info"},
        )
        assert result.returncode == 0
        json.loads(result.stdout)  # stdout stays a single JSON document
        assert "wrote" in result.stderr


class TestReconComparison:
    def test_full_cluster_count_beats_single_via_cli(self, tmp_path):
        archive = tmp_path / "five.lrta"
        run_cli(*gen_args(archive, tasks=5, d=16, k=16, rank=4))
        grand_means = {}
        for m in ("1", "5"):
            merged = tmp_path / f"h{m}.lrta"
            result = run_cli(
                "merge", "--in", str(archive), "--out", str(merged),
                "--method", "hydraopt", "--m", m, "--epochs", "400",
            )
            assert result.returncode == 0, result.stderr
            recon = run_cli("eval-recon", "--in", str(archive), "--merged", str(merged))
            grand_means[m] = json.loads(recon.stdout)["recon"]["grand_mean_mae"]
        assert grand_means["5"] <= grand_means["1"]


class TestVeraArchives:
    @pytest.fixture()
    def vera_archive(self, tmp_path):
        from hydramerge.adapters import AdapterCollection, SlotKey, VeraAdapter
        from hydramerge.archive import write_archive
        from hydramerge.linalg import Rng, gaussian_sample

        rng = Rng(6)
        slot = SlotKey(0, "q")
        shared_b = gaussian_sample(rng, 6, 2, 0.0, 1.0)
        shared_a = gaussian_sample(rng, 2, 5, 0.0, 1.0)
        ids = [f"t{i}" for i in range(3)]
        table = {
            (task, slot): VeraAdapter(
                lambda_b=gaussian_sample(rng, 6, 1, 0.0, 1.0).ravel(),
                lambda_d=gaussian_sample(rng, 2, 1, 0.0, 1.0).ravel(),
                shared_b=shared_b,
                shared_a=shared_a,
            )
            for task in ids
        }
        path = tmp_path / "vera.lrta"
        write_archive(AdapterCollection.build(ids, table), path)
        return path

    def test_baseline_merge_and_recon(self, vera_archive, tmp_path):
        merged = tmp_path / "vera-ties.lrta"
        result = run_cli(
            "merge", "--in", str(vera_archive), "--out", str(merged), "--method", "ties"
        )
        assert result.returncode == 0, result.stderr
        recon = run_cli("eval-recon", "--in", str(vera_archive), "--merged", str(merged))
        assert recon.returncode == 0
        assert json.loads(recon.stdout)["recon"]["grand_mean_mae"] >= 0.0

    def test_infinite_scale_is_exit_three(self, vera_archive, tmp_path):
        merged = tmp_path / "vera-ta.lrta"
        result = run_cli(
            "merge", "--in", str(vera_archive), "--out", str(merged),
            "--method", "ta", "--scale", "inf",
        )
        assert result.returncode == 3
        assert "scale must be finite" in result.stderr
        assert not merged.exists()

    def test_overflowing_residual_is_one_error_line(self, tmp_path):
        """Entries of 1e38, exact in float32: every update is finite, but the
        sum of its squared residual entries is not."""
        from hydramerge.adapters import AdapterCollection, SlotKey, VeraAdapter
        from hydramerge.archive import write_archive

        d = k = 128
        big = float(np.float32(1e38))
        shared_b, shared_a = np.full((d, 2), big), np.full((2, k), big)
        table = {
            (task, SlotKey(0, "q")): VeraAdapter(np.full(d, big), [big, big], shared_b, shared_a)
            for task in ("t0", "t1")
        }
        coll, merged = tmp_path / "big.lrta", tmp_path / "big-ties.lrta"
        write_archive(AdapterCollection.build(["t0", "t1"], table), coll)
        result = run_cli("merge", "--in", str(coll), "--out", str(merged), "--method", "ties")
        assert result.returncode == 0, result.stderr
        recon = run_cli("eval-recon", "--in", str(coll), "--merged", str(merged))
        assert recon.returncode == 3, recon.stdout
        assert recon.stdout == ""
        lines = recon.stderr.splitlines()
        assert lines == ["error: slot layer.0.q: task 't0': the residual overflowed to "
                         "non-finite values"], recon.stderr  # fmt: skip

    @pytest.mark.parametrize("distance", ["cos", "mse", "fro"])
    def test_overflowing_target_norm_is_one_error_line(self, tmp_path, distance):
        """The 1e38 archive above under hydraopt: every update is finite, its
        squared norm is not.  With numpy warnings as errors the merge still
        ends in one typed error that names the slot and the task."""
        from hydramerge.adapters import AdapterCollection, SlotKey, VeraAdapter
        from hydramerge.archive import write_archive

        d = k = 128
        big = float(np.float32(1e38))
        shared_b, shared_a = np.full((d, 2), big), np.full((2, k), big)
        table = {
            (task, SlotKey(0, "q")): VeraAdapter(np.full(d, big), [big, big], shared_b, shared_a)
            for task in ("t0", "t1")
        }
        coll, merged = tmp_path / "big.lrta", tmp_path / "big-hydra.lrta"
        write_archive(AdapterCollection.build(["t0", "t1"], table), coll)
        result = run_cli(
            "merge", "--in", str(coll), "--out", str(merged), "--method", "hydraopt",
            "--distance", distance, env_extra={"PYTHONWARNINGS": "error::RuntimeWarning"},
        )  # fmt: skip
        assert result.returncode == 3, result.stderr
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            "error: slot layer.0.q: task t0: the Gram trace <T, T> of target 0 overflowed "
            "to a non-finite value"
        ], result.stderr
        assert not merged.exists()

    def test_similarity_compares_the_scaling_vectors(self, vera_archive):
        import numpy as np

        from hydramerge.adapters import SlotKey
        from hydramerge.archive import read_archive

        result = run_cli("analyze-similarity", "--in", str(vera_archive))
        assert result.returncode == 0, result.stderr
        doc = json.loads(result.stdout)["similarity"]
        adapters = read_archive(vera_archive).adapters_at(SlotKey(0, "q"))
        for side, field in (("A", "lambda_d"), ("B", "lambda_b")):
            vectors = [getattr(adapter, field) for adapter in adapters]
            expected = [[np.mean(np.abs(x - y)) for y in vectors] for x in vectors]
            matrix = doc[side]["per_slot"]["layer.0.q"]["matrix"]
            np.testing.assert_allclose(matrix, expected, rtol=1e-12, atol=0)

    def test_hydraopt_merge(self, vera_archive, tmp_path):
        merged = tmp_path / "vera-hydra.lrta"
        result = run_cli(
            "merge", "--in", str(vera_archive), "--out", str(merged),
            "--method", "hydraopt", "--m", "2", "--epochs", "40",
        )
        assert result.returncode == 0, result.stderr
        doc = json.loads(result.stdout)
        assert doc["final_loss"] is not None
        storage = run_cli(
            "report-storage", "--in", str(vera_archive), "--merged", str(merged)
        )
        assert storage.returncode == 0


# A process started from another reports, through wait4, the larger of its
# own peak and that of the process it was started from.  The measured
# command is started from a small launcher, not from the test process.
_LAUNCHER = (
    "import os, subprocess, sys; "
    "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL); "
    "_, status, usage = os.wait4(proc.pid, 0); "
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)"
)


def peak_rss_mb(*args) -> float:
    """Peak RSS of one CLI run, as ``wait4`` reports it when it ends."""
    result = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, *CLI, *args], capture_output=True, text=True,
        timeout=300,
    )  # fmt: skip
    code, max_rss_kb = map(int, result.stdout.split())
    assert code == 0, result.stderr
    return max_rss_kb / 1024.0


class TestReconMemory:
    def test_eval_recon_peaks_near_report_storage(self, tmp_path):
        """Both commands read the same two archives; eval-recon adds two
        row-block buffers of 2^17 entries (1 MiB each), not one whole d x k
        matrix (8 MiB at d = k = 1024)."""
        coll, merged = tmp_path / "coll.lrta", tmp_path / "ta.lrta"
        shape = dict(tasks=4, slots="q", d=1024, k=1024, rank=16)
        assert run_cli(*gen_args(coll, **shape)).returncode == 0
        result = run_cli("merge", "--in", str(coll), "--out", str(merged), "--method", "ta")
        assert result.returncode == 0, result.stderr
        peaks = {
            command: peak_rss_mb(command, "--in", str(coll), "--merged", str(merged))
            for command in ("report-storage", "eval-recon")
        }
        assert peaks["eval-recon"] - peaks["report-storage"] < 8.0, peaks


class TestHydraoptMemory:
    @staticmethod
    def write_vera(path, tasks, d, k, rank):
        from hydramerge.adapters import AdapterCollection, SlotKey, VeraAdapter
        from hydramerge.archive import write_archive
        from hydramerge.linalg import Rng, gaussian_sample

        rng, slot, ids = Rng(11), SlotKey(0, "q"), [f"t{i}" for i in range(tasks)]
        shared_b = gaussian_sample(rng, d, rank, 0.0, 1.0)
        shared_a = gaussian_sample(rng, rank, k, 0.0, 1.0)
        table = {
            (task, slot): VeraAdapter(
                lambda_b=gaussian_sample(rng, d, 1, 0.0, 0.02).ravel(),
                lambda_d=gaussian_sample(rng, rank, 1, 0.0, 1.0).ravel(),
                shared_b=shared_b,
                shared_a=shared_a,
            )
            for task in ids
        }
        write_archive(AdapterCollection.build(ids, table), path)

    @pytest.mark.parametrize("kind, rank, bound", [("lora", 16, 9.0), ("vera", 64, 11.0)])
    def test_mse_merge_peaks_near_report_storage(self, tmp_path, kind, rank, bound):
        """One slot of K = 8 tasks at d = k = 1024, M = 3, 4 epochs under
        mse.  Both commands read the same archive; the merge adds the
        training state, the K mixed left factors and their pull-backs
        (K d r doubles each: 1 MiB at r = 16, 4 MiB for VeRA's left factors
        at r = 64), and one task's Gram products at a time, not K-stacked
        copies of every target's factors (2 MiB, 4 MiB for VeRA) and their
        transposes on every step."""
        coll, merged = tmp_path / "coll.lrta", tmp_path / "hydraopt.lrta"
        shape = dict(tasks=8, slots="q", d=1024, k=1024, rank=rank)
        if kind == "lora":
            assert run_cli(*gen_args(coll, **shape)).returncode == 0
        else:
            self.write_vera(coll, shape["tasks"], shape["d"], shape["k"], rank)
        flags = ["--method", "hydraopt", "--m", "3", "--distance", "mse", "--epochs", "4"]
        peak = peak_rss_mb("merge", "--in", str(coll), "--out", str(merged), *flags)
        reference = peak_rss_mb("report-storage", "--in", str(coll), "--merged", str(merged))
        assert peak - reference < bound, (peak, reference)


class TestBaselineMergeMemory:
    @pytest.fixture(scope="class")
    def collection(self, tmp_path_factory):
        """K = 8 tasks at d = k = 1024, r = 16, and the peak of
        report-storage on it."""
        work = tmp_path_factory.mktemp("merge-memory")
        coll, merged = work / "coll.lrta", work / "ta.lrta"
        shape = dict(tasks=8, slots="q", d=1024, k=1024, rank=16)
        assert run_cli(*gen_args(coll, **shape)).returncode == 0
        result = run_cli("merge", "--in", str(coll), "--out", str(merged), "--method", "ta")
        assert result.returncode == 0, result.stderr
        reference = peak_rss_mb("report-storage", "--in", str(coll), "--merged", str(merged))
        return coll, reference

    @pytest.mark.parametrize("method", ["ta", "ties", "dare", "dare-ties"])
    def test_merge_peaks_near_report_storage(self, collection, tmp_path, method):
        """Both read the same archive; the merge adds the reduction across
        tasks one column block at a time (about 1 MiB), the (K, n) stack
        of trimmed tensors for TIES (1 MiB here), and the merged bundle, not
        K-fold stacks of the whole expansion (6.9 MiB for one side)."""
        coll, reference = collection
        out = tmp_path / f"{method}.lrta"
        peak = peak_rss_mb("merge", "--in", str(coll), "--out", str(out), "--method", method)
        assert peak - reference < 3.0, (peak, reference)


class TestOneSlotInMemory:
    """Each command reads and writes its archives a slot at a time, so its
    peak does not grow with the number of slots: 16 slots (8 layers of q
    and v, K = 8 tasks at d = k = 512, r = 16) peak within 3 MB of 2 (one
    layer), where holding them all took about 20 MB more."""

    @pytest.fixture(scope="class")
    def archives(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("one-slot")
        paths = {}
        for layers in (1, 8):
            coll, merged = work / f"coll{layers}.lrta", work / f"ta{layers}.lrta"
            shape = dict(tasks=8, layers=layers, slots="q,v", d=512, k=512, rank=16)
            assert run_cli(*gen_args(coll, **shape)).returncode == 0
            result = run_cli("merge", "--in", str(coll), "--out", str(merged), "--method", "ta")
            assert result.returncode == 0, result.stderr
            paths[layers] = (coll, merged, work / f"out{layers}.lrta", shape)
        return paths

    @staticmethod
    def command(name, coll, merged, out, shape) -> list[str]:
        if name == "gen-synthetic":
            return gen_args(out, **shape)
        if name.startswith("merge"):
            flags = ["--method", "ta"] if name == "merge ta" else [
                "--method", "hydraopt", "--distance", "mse", "--epochs", "2"]  # fmt: skip
            return ["merge", "--in", str(coll), "--out", str(out), *flags]
        if name == "analyze-similarity":
            return [name, "--in", str(coll)]
        return [name, "--in", str(coll), "--merged", str(merged)]

    @pytest.mark.parametrize(
        "name",
        ["gen-synthetic", "merge ta", "merge hydraopt", "eval-recon", "report-storage",
         "analyze-similarity"],
    )  # fmt: skip
    def test_peak_does_not_grow_with_the_slots(self, archives, name):
        peaks = [peak_rss_mb(*self.command(name, *archives[layers])) for layers in (1, 8)]
        assert peaks[1] - peaks[0] < 3.0, peaks


class TestOverwrite:
    """The writer replaces ``--out`` only once the new archive is whole, so
    an output path may name the input or an existing archive."""

    @pytest.mark.parametrize(
        "flags", [["--method", "ta"], ["--method", "hydraopt", "--epochs", "3"]]
    )
    def test_merge_over_its_own_input_writes_what_a_fresh_path_gets(self, tmp_path, flags):
        coll, fresh = tmp_path / "coll.lrta", tmp_path / "fresh.lrta"
        assert run_cli(*gen_args(coll)).returncode == 0
        result = run_cli("merge", "--in", str(coll), "--out", str(fresh), *flags)
        assert result.returncode == 0, result.stderr
        result = run_cli("merge", "--in", str(coll), "--out", str(coll), *flags)
        assert result.returncode == 0, result.stderr
        assert coll.read_bytes() == fresh.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["coll.lrta", "fresh.lrta"]

    def test_a_failed_merge_over_its_own_input_keeps_the_input(self, tmp_path):
        coll = tmp_path / "coll.lrta"
        assert run_cli(*gen_args(coll)).returncode == 0
        before = coll.read_bytes()
        flags = ["--method", "ta", "--scale", "1e300"]
        result = run_cli("merge", "--in", str(coll), "--out", str(coll), *flags)
        assert result.returncode == 3, result.stderr
        assert result.stderr.startswith("error: tensor 'merged.layer.0.q.A' holds a finite value")
        assert coll.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["coll.lrta"]

    def test_gen_synthetic_over_an_existing_archive(self, tmp_path):
        fresh, used = tmp_path / "fresh.lrta", tmp_path / "used.lrta"
        assert run_cli(*gen_args(fresh)).returncode == 0
        assert run_cli(*gen_args(used, seed=5, layers=2)).returncode == 0
        assert run_cli(*gen_args(used)).returncode == 0
        assert used.read_bytes() == fresh.read_bytes()


@pytest.fixture(scope="module")
def foreign_pairs(tmp_path_factory):
    """``case -> (collection, bundle)`` archives where the bundle was merged
    from another collection, differing from it only in ``case``."""
    from hydramerge.adapters import AdapterCollection, SlotKey, VeraAdapter
    from hydramerge.archive import write_archive
    from hydramerge.baselines import BaselineConfig, MergeMethod, merge_collection
    from hydramerge.linalg import Rng, gaussian_sample
    from hydramerge.synthetic import SynthSpec, generate

    def lora(**overrides):
        spec = dict(tasks=3, layers=1, slot_names=("q", "v"), d=8, k=8, rank=2)
        spec.update(overrides)
        return generate(SynthSpec(**spec))

    def vera(seed):
        rng, ids, table = Rng(seed), ["t0", "t1", "t2"], {}
        for slot in (SlotKey(0, "q"), SlotKey(0, "v")):
            shared_b = gaussian_sample(rng, 8, 2, 0.0, 1.0)
            shared_a = gaussian_sample(rng, 2, 8, 0.0, 1.0)
            for task in ids:
                lambda_b = gaussian_sample(rng, 8, 1, 0.0, 1.0).ravel()
                table[(task, slot)] = VeraAdapter(lambda_b, [1.0, 1.0], shared_b, shared_a)
        return AdapterCollection.build(ids, table)

    root = tmp_path_factory.mktemp("foreign")

    def save(name, obj):
        path = root / f"{name}.lrta"
        write_archive(obj, path)
        return path

    def ta(name, collection):
        return save(name, merge_collection(collection, BaselineConfig(method=MergeMethod.TA)))

    base, lora_ta, vera_ta = save("base", lora()), ta("lora-ta", lora()), ta("vera-ta", vera(0))
    return {
        "tasks": (save("two-tasks", lora(tasks=2)), lora_ta),
        "slots": (save("one-slot", lora(slot_names=("q",))), lora_ta),
        "shape": (base, ta("d6-ta", lora(d=6))),
        "kind": (base, vera_ta),
        "frozen": (save("vera-1", vera(1)), vera_ta),
    }


class TestBundleOfAnotherCollection:
    @pytest.mark.parametrize("command", ["report-storage", "eval-recon"])
    @pytest.mark.parametrize(
        "case, named",
        [
            ("tasks", "cover different tasks"),
            ("slots", "cover different slots"),
            ("shape", "slot layer.0.q: the bundle is lora with (d, r, k) = (6, 2, 8)"),
            ("kind", "slot layer.0.q: the bundle is vera"),
            ("frozen", "slot layer.0.q: the bundle and the collection carry different frozen"),
        ],
    )
    def test_is_one_error_line_and_exit_three(self, foreign_pairs, command, case, named):
        collection, bundle = foreign_pairs[case]
        result = run_cli(command, "--in", str(collection), "--merged", str(bundle))
        assert result.returncode == 3, result.stdout
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr
        assert named in lines[0]


class TestMisfitSharedSlot:
    @pytest.mark.parametrize("command", ["eval-recon", "report-storage"])
    def test_is_one_error_line_naming_the_slot(self, tmp_path, command):
        from hydramerge import archive
        from hydramerge.adapters import MergedBundle, SharedLoraSlot, SlotKey

        coll = tmp_path / "coll.lrta"
        assert run_cli(*gen_args(coll, tasks=2, slots="q", d=4, k=6)).returncode == 0
        slot = SlotKey(0, "q")
        # A is 2 x 6 but B is 4 x 3: the reader, not the report, must refuse it
        entry = SharedLoraSlot(
            a_shared=np.ones((2, 6)), b_clusters=[np.ones((4, 3))], assignment=[0, 0]
        )
        bundle = MergedBundle("hydraopt", "lora", ["t0", "t1"], [slot], {slot: entry})
        merged = tmp_path / "misfit.lrta"
        archive.write_raw_archive(merged, *archive._bundle_tensors(bundle))
        result = run_cli(command, "--in", str(coll), "--merged", str(merged))
        assert result.returncode == 3
        assert result.stdout == ""
        assert result.stderr.count("\n") == 1
        assert "slot layer.0.q: rank mismatch: b is (4, 3), a is (2, 6)" in result.stderr


class TestGradCheck:
    def test_passes_and_reports(self):
        result = run_cli("grad-check", "--seed", "1", "--instances", "2")
        assert result.returncode == 0, result.stderr
        doc = json.loads(result.stdout)
        assert doc["grad_check"]["passed"] is True
        assert doc["grad_check"]["max_rel_error"] < doc["grad_check"]["tolerance"]


class TestGradCheckArguments:
    @pytest.mark.parametrize(
        "flag, value",
        [("--instances", "0"), ("--instances", "-1"), ("--tolerance", "0"), ("--tolerance", "nan")],
    )
    def test_vacuous_check_exits_3_naming_the_flag(self, flag, value):
        result = run_cli("grad-check", flag, value)
        assert result.returncode == 3, result.stdout
        assert result.stdout == ""
        assert flag in result.stderr


class TestSubnormalTemperature:
    def test_exits_3_naming_slot_step_and_tensor(self, small_archive, tmp_path):
        """A temperature that divides the routing weights past the float
        range stops the first slot at step 0 with its logits' gradient."""
        out = tmp_path / "merged.lrta"
        result = run_cli(
            "merge", "--in", str(small_archive), "--out", str(out), "--method", "hydraopt",
            "--m", "2", "--temp", "1e-310", "--epochs", "3",
        )  # fmt: skip
        assert result.returncode == 3, result.stdout
        assert result.stdout == "" and not out.exists()
        expected = "error: slot layer.0.q: step 0: gradient of logits became non-finite\n"
        assert result.stderr == expected


class TestUsageErrors:
    def test_unknown_flag(self):
        result = run_cli("gen-synthetic", "--out", "x.lrta", "--bogus", "1")
        assert result.returncode == 2
        assert "usage" in result.stderr.lower()

    def test_missing_subcommand(self):
        result = run_cli()
        assert result.returncode == 2


class TestFailedOutWrite:
    @pytest.mark.parametrize(
        "command", ["report-storage", "eval-recon", "analyze-similarity", "grad-check"]
    )
    def test_unwritable_out_prints_no_document(self, small_archive, tmp_path, command):
        merged = tmp_path / "merged.lrta"
        run_cli("merge", "--in", str(small_archive), "--out", str(merged), "--method", "ta")
        inputs = {
            "report-storage": ["--in", str(small_archive), "--merged", str(merged)],
            "eval-recon": ["--in", str(small_archive), "--merged", str(merged)],
            "analyze-similarity": ["--in", str(small_archive)],
            "grad-check": ["--instances", "1"],
        }[command]
        out = tmp_path / "missing-dir" / "x.json"
        result = run_cli(command, *inputs, "--out", str(out))
        assert result.returncode == 3
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr
        assert not out.exists()


class TestSyntheticScales:
    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("a-noise", "nan", "a_noise"),
            ("a-noise", "inf", "a_noise"),
            ("a-noise", "-1", "a_noise"),
            ("b-scale", "nan", "b_scale"),
            ("b-scale", "inf", "b_scale"),
        ],
    )
    def test_bad_scale_names_the_field(self, tmp_path, flag, value, field):
        out = tmp_path / "c.lrta"
        result = run_cli(*gen_args(out, **{flag: value}))
        assert result.returncode == 3
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {field} must be finite"), lines
        assert not out.exists()

    def test_overflowing_draw_is_one_typed_error(self, tmp_path):
        out = tmp_path / "c.lrta"
        result = run_cli(*gen_args(out, **{"a-noise": "1e308"}))
        assert result.returncode == 3
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert "Warning" not in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("flag, field", [("a-noise", "a_noise"), ("b-scale", "b_scale")])
    def test_overflowing_draw_names_the_field(self, tmp_path, flag, field):
        out = tmp_path / "c.lrta"
        result = run_cli(*gen_args(out, **{flag: "1e308"}))
        assert result.returncode == 3
        assert result.stderr.startswith(f"error: {field} = 1e+308 is too large"), result.stderr
        assert not out.exists()


def option(command: str, flag: str) -> argparse.Action:
    """The parser's action for ``flag`` of ``command``."""
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return next(a for a in commands.choices[command]._actions if flag in a.option_strings)


class Captured(Exception):
    """Raised by the stubs below in place of the library call."""


@pytest.fixture(scope="module")
def collection_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("defaults") / "coll.lrta"
    write_archive(generate(SynthSpec(tasks=3, layers=1, d=8, k=8, rank=2)), path)
    return str(path)


@pytest.fixture()
def called(monkeypatch, collection_path, tmp_path):
    """Runs ``cli.main`` in-process and returns the positional and keyword
    arguments it passed to the library; ``merge ... METHOD`` fills in the
    archive paths."""
    calls = []
    for module, name in [(hydra, "merge_collection_hydra"), (cli, "merge_collection"),
                         (synthetic, "generate"), (gradcheck, "run_suite")]:  # fmt: skip

        @functools.wraps(getattr(module, name))  # keeps the signature the CLI reads
        def capture(*args, **kwargs):
            calls.append((args, kwargs))
            raise Captured

        monkeypatch.setattr(module, name, capture)

    def run(command, *flags):
        out = str(tmp_path / "out.lrta")
        argv = {"gen-synthetic": ["gen-synthetic", "--out", out], "grad-check": ["grad-check"]}.get(
            command, ["merge", "--in", collection_path, "--out", out, "--method", command]
        )
        calls.clear()
        with pytest.raises(Captured):
            cli.main([*argv, *flags])
        (call,) = calls
        return call

    return run


BASELINES = [m.value for m in MergeMethod]
SYNTH_FLAGS = [
    (["--tasks", "3"], "tasks", 3),
    (["--layers", "3"], "layers", 3),
    (["--slots", "q,,v"], "slot_names", ("q", "v")),
    (["--d", "9"], "d", 9),
    (["--k", "7"], "k", 7),
    (["--rank", "3"], "rank", 3),
    (["--a-noise", "0.5"], "a_noise", 0.5),
    (["--b-scale", "2"], "b_scale", 2.0),
    (["--seed", "7"], "seed", 7),
]
HYDRA_FLAGS = [
    (["--m", "2"], "num_clusters", 2),
    (["--temp", "0.5"], "temperature", 0.5),
    (["--epochs", "3"], "epochs", 3),
    (["--lr", "0.5"], "learning_rate", 0.5),
    (["--distance", "mse"], "distance", DistanceKind.MSE),
    (["--init", "mean"], "init_scheme", InitScheme.MEAN_A_COPY_B),
    (["--seed", "7"], "seed", 7),
]
BASELINE_FLAGS = [
    (["--ties-density", "0.5"], "ties_density", 0.5, ["ties", "dare-ties"]),
    (["--dare-p", "0.5"], "dare_drop_p", 0.5, ["dare", "dare-ties"]),
    (["--scale", "2"], "scale", 2.0, ["ta", "dare"]),
    (["--a-only"], "merge_target", MergeTarget.A_ONLY, BASELINES),
    (["--seed", "7"], "seed", 7, BASELINES),
]
GRAD_FLAGS = [
    (["--seed", "3"], "seed", 3),
    (["--instances", "2"], "instances", 2),
    (["--tolerance", "0.001"], "tolerance", 1e-3),
]


class TestEachDefaultIsTheLibraryDefault:
    """The CLI restates no default: a command without options passes the
    library its own defaults, and each option sets one field by name."""

    def test_no_option_gives_the_config_defaults(self, called):
        assert called("gen-synthetic") == ((SynthSpec(),), {})
        (_, cfg), kwargs = called("hydraopt")
        assert cfg == HydraConfig(num_clusters=3) and kwargs == {}
        for method in BASELINES:
            (_, cfg), kwargs = called(method)
            assert cfg == BaselineConfig(MergeMethod(method)) and kwargs == {}
        assert called("grad-check") == ((), {})

    @pytest.mark.parametrize("flags, field, value", SYNTH_FLAGS)
    def test_gen_synthetic_option_sets_its_field(self, called, flags, field, value):
        (spec,), _ = called("gen-synthetic", *flags)
        assert spec == replace(SynthSpec(), **{field: value})

    @pytest.mark.parametrize("flags, field, value", HYDRA_FLAGS)
    def test_hydraopt_option_sets_its_field(self, called, flags, field, value):
        (_, cfg), _ = called("hydraopt", *flags)
        assert cfg == replace(HydraConfig(num_clusters=3), **{field: value})

    @pytest.mark.parametrize(
        "method, flags, field, value",
        [(m, *case[:3]) for case in BASELINE_FLAGS for m in case[3]],
    )
    def test_baseline_option_sets_its_field(self, called, method, flags, field, value):
        (_, cfg), _ = called(method, *flags)
        assert cfg == replace(BaselineConfig(MergeMethod(method)), **{field: value})

    @pytest.mark.parametrize("flags, field, value", GRAD_FLAGS)
    def test_grad_check_option_sets_its_keyword(self, called, flags, field, value):
        assert called("grad-check", *flags) == ((), {field: value})

    @pytest.mark.parametrize("method", BASELINES + ["hydraopt"])
    def test_jobs_is_accepted_and_changes_nothing(self, called, method):
        (_, cfg), _ = called(method, "--jobs", "2")
        assert cfg == called(method)[0][1]

    @pytest.mark.parametrize(
        "flag, enum",
        [("--method", [*MergeMethod, "hydraopt"]), ("--distance", DistanceKind),
         ("--init", InitScheme)],
    )  # fmt: skip
    def test_choices_are_the_enum_values(self, flag, enum):
        assert option("merge", flag).choices == [getattr(m, "value", m) for m in enum]


HYDRA_ONLY = [["--m", "2"], ["--temp", "0.5"], ["--epochs", "3"], ["--lr", "0.5"],
              ["--distance", "mse"], ["--init", "mean"], ["--globalize-assignment"]]  # fmt: skip
NOT_READ = (
    [(m, flags, ["hydraopt"]) for m in BASELINES for flags in HYDRA_ONLY]
    + [("hydraopt", case[0], case[3]) for case in BASELINE_FLAGS[:4]]
    + [(m, case[0], case[3]) for case in BASELINE_FLAGS[:3] for m in BASELINES if m not in case[3]]
)


class TestOptionTheMethodDoesNotRead:
    @pytest.mark.parametrize("method, flags, readers", NOT_READ)
    def test_is_a_usage_error_naming_the_methods_that_read_it(
        self, capsys, tmp_path, method, flags, readers
    ):
        argv = ["merge", "--in", str(tmp_path / "absent.lrta"), "--out", str(tmp_path / "x.lrta"),
                "--method", method, *flags]  # fmt: skip
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2
        error = capsys.readouterr().err.splitlines()[-1]
        assert f"{flags[0]} is read only by {', '.join(readers)}" in error
        assert option("merge", flags[0]).help.endswith(f"read by {', '.join(readers)}")
        assert not (tmp_path / "x.lrta").exists()
