"""Finite-difference verification of every analytic gradient.

Random instances are drawn away from the non-smooth points of the
distances (all residual entries must exceed a magnitude floor), the
analytic gradients are compared against central differences tensor by
tensor, and the worst relative error is reported.  Each instance checks
two kernels: the one training runs for it (the Gram kernel for a smooth
distance, the blocked kernel for MAE, on either adapter kind) and the
dense kernel on the same targets as dense matrices, which is the
reference the factored kernels are tested against.  Relative error for a
tensor pair (analytic a, numeric f) is

    max|a - f| / max(max|a|, max|f|, 1e-12)
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .adapters import LowRankAdapter, VeraAdapter
from .errors import ParameterError, ValidationError
from .hydra import HydraConfig, _kernel, _mix, _new_state, _routing, _target_matrices
from .linalg import DistanceKind, Rng, finite_diff, gaussian_sample

DEFAULT_STEP = 1e-5
DEFAULT_TOLERANCE = 1e-5
RESIDUAL_FLOOR = 1e-3
# Routing smoothness for crafted instances: at tiny temperatures a cluster
# can receive ~1e-10 total weight, making its true gradient smaller than
# central differences can resolve against an O(1) loss.  1.25 keeps every
# weight well above that while still exposing a wrong 1/T factor.
CHECK_TEMPERATURE = 1.25
WEIGHT_FLOOR = 1e-3
_DRAWS = 200  # instances drawn before one clear of both floors is given up


@dataclass
class GradCheckReport:
    tolerance: float
    instances: int = 0
    worst: float = 0.0
    worst_case: str = ""
    per_kind: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.worst <= self.tolerance

    def record(self, kind: str, label: str, error: float) -> None:
        self.per_kind[kind] = max(self.per_kind.get(kind, 0.0), error)
        if error > self.worst:
            self.worst = error
            self.worst_case = label

    def to_dict(self) -> dict:
        return {
            "instances": self.instances,
            "tolerance": self.tolerance,
            "max_rel_error": self.worst,
            "worst_case": self.worst_case,
            "per_kind": dict(sorted(self.per_kind.items())),
            "passed": self.passed,
        }


def _relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(np.max(np.abs(analytic)), np.max(np.abs(numeric)), 1e-12)
    return float(np.max(np.abs(analytic - numeric)) / scale)


def _lora_targets(rng: Rng, d, k, r, num_tasks):
    return [
        LowRankAdapter(
            b=gaussian_sample(rng, d, r, 0.0, 1.0), a=gaussian_sample(rng, r, k, 0.0, 1.0)
        )
        for _ in range(num_tasks)
    ]


def _vera_targets(rng: Rng, d, k, r, num_tasks):
    shared_b = gaussian_sample(rng, d, r, 0.0, 1.0)
    shared_a = gaussian_sample(rng, r, k, 0.0, 1.0)
    return [
        VeraAdapter(
            lambda_b=gaussian_sample(rng, d, 1, 0.0, 1.0).ravel(),
            lambda_d=gaussian_sample(rng, r, 1, 0.0, 1.0).ravel(),
            shared_b=shared_b,
            shared_a=shared_a,
        )
        for _ in range(num_tasks)
    ]


def _random_instance(rng: Rng, draw_targets, d, k, r, num_tasks, num_clusters, cfg_kind):
    """Targets plus a perturbed state whose residuals stay off the kinks."""
    cfg = HydraConfig(num_clusters=num_clusters, distance=cfg_kind, temperature=CHECK_TEMPERATURE)
    refused = {"residual floor": 0, "weight floor": 0}  # draws each floor refused
    for _ in range(_DRAWS):
        targets = draw_targets(rng, d, k, r, num_tasks)
        state = _new_state(targets, num_clusters, rng, stdev=1.0)
        weights = _routing(state, cfg, num_tasks)
        mixed, basis = _mix(weights, state.clusters), state.basis()
        preds = (state.adapter_type.predict(c, basis) for c in mixed)
        residuals = (np.abs(t - p) for t, p in zip(_target_matrices(targets), preds))
        if min(float(np.min(res)) for res in residuals) <= RESIDUAL_FLOOR:
            refused["residual floor"] += 1
        elif weights is not None and float(weights.min()) <= WEIGHT_FLOOR:
            refused["weight floor"] += 1
        else:
            return targets, state, cfg
    floors = ", ".join(f"the {floor} refused {n}" for floor, n in refused.items() if n)
    raise ValidationError(
        f"could not sample an instance away from the floors in {_DRAWS} draws: {floors}"
    )


def _check_state(state, cfg, loss_and_grads, report, label, step):
    _, _, grads = loss_and_grads(state)
    for name, tensor in state.named_tensors():
        probe = copy.deepcopy(state)
        probe_tensor = dict(probe.named_tensors())[name]

        def loss_at(replacement, _ref=probe_tensor, _shape=tensor.shape):
            _ref[...] = replacement.reshape(_shape)
            return loss_and_grads(probe)[0]

        shaped = tensor if tensor.ndim == 2 else tensor.reshape(-1, 1)
        numeric = finite_diff(loss_at, shaped, h=step).reshape(tensor.shape)
        analytic = grads.tensors[name]
        report.record(cfg.distance.value, f"{label}:{name}", _relative_error(analytic, numeric))


def run_suite(
    seed: int = 0,
    instances: int = 20,
    d: int = 8,
    k: int = 8,
    r: int = 2,
    num_tasks: int = 3,
    step: float = DEFAULT_STEP,
    tolerance: float = DEFAULT_TOLERANCE,
    include_vera: bool = True,
) -> GradCheckReport:
    """Compare analytic and finite-difference gradients on random instances.

    Alternates between routed (M < K) and identity-routed (M == K)
    instances and covers all four distances for both adapter variants.
    """
    if instances < 1:
        raise ParameterError(f"--instances must be >= 1, got {instances}")
    if not (np.isfinite(tolerance) and tolerance > 0):
        raise ParameterError(f"--tolerance must be finite and > 0, got {tolerance}")
    report = GradCheckReport(tolerance=tolerance)
    rng = Rng(seed)
    kinds = [("lora", _lora_targets), ("vera", _vera_targets)][: 1 + include_vera]
    for index in range(instances):
        num_clusters = 2 if index % 2 == 0 else num_tasks
        for kind in DistanceKind:
            for name, draw_targets in kinds:
                targets, state, cfg = _random_instance(
                    rng, draw_targets, d, k, r, num_tasks, num_clusters, kind
                )
                label = f"{name}[{index}] M={num_clusters} {kind.value}"
                for inputs, tag in ((targets, ""), (_target_matrices(targets), " dense")):
                    _check_state(state, cfg, _kernel(inputs, cfg), report, label + tag, step)
        report.instances += 1
    return report
