"""The benchmark's workloads: input make-up, the commands of one round, and
the closed forms the checks compare against.  Plain Python, so that the
process that times the commands stays small (see README.md, peak_rss_mb).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

DARE_P = 0.9
TIES_DENSITY = "0.2"
TEMPERATURE = 0.1

BASELINE_MERGES = (
    ("ta", ("--method", "ta")),
    ("ties", ("--method", "ties", "--ties-density", TIES_DENSITY)),
    ("dare", ("--method", "dare", "--dare-p", str(DARE_P))),
    ("dare-ties",
     ("--method", "dare-ties", "--dare-p", str(DARE_P), "--ties-density", TIES_DENSITY)),
)  # fmt: skip


@dataclass(frozen=True)
class Workload:
    """One workload.  ``distance``, ``m`` and ``lr`` configure hydraopt and,
    on every workload, the probe of the traced run."""

    name: str
    kind: str  # "lora" or "vera"
    d: int
    k: int
    rank: int
    tasks: int
    slots: tuple[str, ...]
    hydra: bool  # hydraopt, or the four baselines
    distance: str
    m: int
    lr: float
    epochs: int = 0

    @property
    def slot_labels(self) -> list[str]:
        return [f"layer.0.{s}" for s in sorted(self.slots)]

    @property
    def merges(self) -> tuple[tuple[str, tuple[str, ...]], ...]:
        """(bundle name, merge flags) of every merge of a round."""
        if not self.hydra:
            return BASELINE_MERGES
        flags = ("--method", "hydraopt", "--m", str(self.m), "--distance", self.distance,
                 "--epochs", str(self.epochs), "--lr", str(self.lr),
                 "--temp", str(TEMPERATURE), "--init", "random")  # fmt: skip
        return (("hydraopt", flags),)


def workloads(tiny: bool = False) -> dict[str, Workload]:
    """The three workloads; ``tiny`` shrinks every shape for the self-test.

    The learning rates stay below the 0.02 scale of the random init, so
    the first AdamW steps lower the loss on every seed; at 0.05 the VeRA
    loss rose on one seed in twenty.
    """
    big = 32 if tiny else 1024
    r_lora, r_vera = (4, 8) if tiny else (16, 64)
    tasks = 4 if tiny else 8
    m = 2 if tiny else 3
    return {
        w.name: w
        for w in (
            Workload("hydraopt-lora-mse", "lora", big, big, r_lora, tasks, ("q", "v"),
                     hydra=True, distance="mse", m=m, lr=0.01, epochs=4),
            Workload("hydraopt-vera-mae", "vera", big, big, r_vera, tasks, ("q",),
                     hydra=True, distance="mae", m=m, lr=0.01, epochs=3),
            Workload("baselines-lora", "lora", big, big, r_lora, tasks, ("q",),
                     hydra=False, distance="mae", m=m, lr=0.01),
        )
    }  # fmt: skip


def setup_args(w: Workload, seed: int, coll: str) -> list[str]:
    """Arguments that make the input collection: ``gen-synthetic`` for
    LoRA, the benchmark's own ``make-vera`` (child.py) for VeRA."""
    shape = ["--tasks", str(w.tasks), "--layers", "1", "--slots", ",".join(w.slots),
             "--d", str(w.d), "--k", str(w.k), "--rank", str(w.rank), "--seed", str(seed)]  # fmt: skip
    if w.kind == "lora":
        return ["gen-synthetic", "--out", coll, *shape]
    return ["make-vera", "--out", coll, *shape]


def plan(w: Workload, seed: int, work: Path) -> list[tuple[str, str, list[str]]]:
    """(phase, label, arguments) of every command of one round, in order."""
    coll = str(work / "collection.lrta")
    steps = [("setup", "setup", setup_args(w, seed, coll))]
    for name, flags in w.merges:
        bundle = str(work / f"{name}.lrta")
        merge = ["merge", "--in", coll, "--out", bundle, *flags, "--seed", str(seed)]
        steps += [
            ("merge", f"merge:{name}", merge),
            ("report", f"eval-recon:{name}", ["eval-recon", "--in", coll, "--merged", bundle]),
            ("report", f"report-storage:{name}",
             ["report-storage", "--in", coll, "--merged", bundle]),
        ]  # fmt: skip
    if w.kind == "lora":
        steps.append(("report", "analyze-similarity", ["analyze-similarity", "--in", coll]))
    return steps


def storage_closed_form(w: Workload, bundle: str) -> float:
    """Percentage of the original parameters a bundle stores, from shapes alone."""
    d, k, r, big_k, m = w.d, w.k, w.rank, w.tasks, w.m
    if bundle != "hydraopt":
        return 100.0 / big_k
    if w.kind == "lora":
        return 100.0 * (m * r * d + r * k) / (big_k * r * (d + k))
    return 100.0 * (r + m * d + d * r + r * k) / (big_k * (d + r) + d * r + r * k)


def checks_per_round(w: Workload) -> int:
    """How many checks ``checks.check_round`` makes, so that a round whose
    commands fail still counts every operation it attempted."""
    names = [name for name, _ in w.merges]
    extra = sum(name in ("hydraopt", "ta", "dare") for name in names)
    return 1 + 3 * len(names) + extra + (w.kind == "lora")
