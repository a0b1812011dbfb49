"""Numeric cross-validation of symbolic verdicts.

The oracle samples strictly positive joint distributions, projects them onto
a constraint set by cyclically applying each constraint's
marginalize/product-join map (the fitting loop used for contingency tables),
and then measures dependency residuals.  A positive verdict is corroborated
when every projected distribution that satisfies the constraints also
satisfies the target; a negative verdict is corroborated by exhibiting one
that does not.  Absence of a counterexample after finitely many seeds proves
nothing and is reported as inconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

# numpy is imported inside the functions that use it, so that importing the
# package for the chase alone does not load it.
from .errors import DomainTooLargeError
from .prelation import (
    DomainSpec,
    Gajd,
    WeightedRelation,
    marginalize,
    mpj_map,
    relation_from_domains,
    satisfies,
)

MAX_TABLE_CELLS = 4096
POSITIVITY_FLOOR = 1e-4


@dataclass(frozen=True)
class OracleConfig:
    """Sampling sizes and tolerances; identical configs give identical reports."""

    domains: DomainSpec
    seed: int = 0
    trials: int = 50
    ipf_sweeps: int = 200
    sat_tol: float = 1e-10
    check_tol: float = 1e-8

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.sat_tol <= 0 or self.check_tol <= 0:
            raise ValueError("tolerances must be positive")
        if not self.sat_tol < self.check_tol:
            raise ValueError("sat_tol must be strictly below check_tol")

    def trial_seeds(self) -> list[int]:
        import numpy as np

        state = np.random.SeedSequence(self.seed).generate_state(self.trials, dtype=np.uint64)
        return [int(s) for s in state]


def random_positive(domains: DomainSpec, seed: int) -> WeightedRelation:
    """A seeded, normalized, strictly positive joint over the full domain product.

    Uniform weights are mixed with the flat distribution at ratio 1e-4, so
    every cell keeps at least 1e-4 of the uniform mass and no denominator in
    later quotients can degenerate.
    """
    n = domains.table_size()
    if n > MAX_TABLE_CELLS:
        raise DomainTooLargeError(f"joint table has {n} cells, above the {MAX_TABLE_CELLS}-cell cap")
    import numpy as np

    rng = np.random.default_rng(seed)
    raw = rng.uniform(size=n)
    raw /= raw.sum()
    mixed = (1.0 - POSITIVITY_FLOOR) * raw + POSITIVITY_FLOOR / n
    return relation_from_domains(domains, mixed.tolist())


def project_onto(
    rel: WeightedRelation,
    constraints: Sequence[Gajd],
    sweeps: int,
    stop_tol: float | None = None,
) -> tuple[WeightedRelation, tuple[float, ...]]:
    """Cyclic application of each constraint's map, up to `sweeps` full passes.

    Returns the final relation and each constraint's residual.  Convergence
    is not guaranteed; the caller inspects the residuals and decides.  When
    `stop_tol` is given, iteration ends early once every residual is at or
    below it (the returned residuals are always freshly computed).
    """
    current = rel
    residuals: tuple[float, ...] = tuple(
        satisfies(current, g).residual for g in constraints
    )
    for _ in range(sweeps):
        if stop_tol is not None and residuals and all(r <= stop_tol for r in residuals):
            break
        for g in constraints:
            current = mpj_map(current, g)
            if current.min_weight() <= 0.0:
                raise AssertionError("projection produced a nonpositive weight from positive input")
        residuals = tuple(satisfies(current, g).residual for g in constraints)
    return current, residuals


@dataclass(frozen=True)
class SoundnessReport:
    """Per-trial outcome counts for a positive verdict check."""

    trials: int
    converged: int
    passed: int
    failed: int
    worst_target_residual: float
    status: str  # "pass" | "fail" | "inconclusive"
    failing_seeds: tuple[int, ...] = ()

    def render(self) -> str:
        return (
            f"soundness: trials={self.trials} converged={self.converged} "
            f"passed={self.passed} failed={self.failed} "
            f"worst_target_residual={self.worst_target_residual:.3e} status={self.status}"
        )


def check_soundness(constraints: Sequence[Gajd], target: Gajd, cfg: OracleConfig) -> SoundnessReport:
    """Require every converged projection onto the constraints to satisfy the target.

    Callers invoke this only for targets the symbolic test declared implied;
    any failure therefore flags a symbolic/numeric disagreement.  Trials
    whose projection does not reach `sat_tol` are discarded; if fewer than
    half converge the report is inconclusive rather than failed.
    """
    converged = passed = 0
    worst = 0.0
    failing: list[int] = []
    for seed in cfg.trial_seeds():
        rel = random_positive(cfg.domains, seed)
        projected, residuals = project_onto(rel, constraints, cfg.ipf_sweeps, stop_tol=cfg.sat_tol)
        if residuals and max(residuals) > cfg.sat_tol:
            continue
        converged += 1
        target_residual = satisfies(projected, target).residual
        worst = max(worst, target_residual)
        if target_residual <= cfg.check_tol:
            passed += 1
        else:
            failing.append(seed)
    failed = converged - passed
    if failed > 0:
        status = "fail"
    elif converged < (cfg.trials + 1) // 2:
        status = "inconclusive"
    else:
        status = "pass"
    return SoundnessReport(cfg.trials, converged, passed, failed, worst, status, tuple(failing))


@dataclass(frozen=True)
class CounterexampleReport:
    """A constraint-satisfying distribution that violates the target."""

    distribution: WeightedRelation
    constraint_residuals: tuple[float, ...]
    target_residual: float
    seed: int
    trials_used: int

    def render(self, include_distribution: bool = False) -> str:
        residuals = ",".join(f"{r:.3e}" for r in self.constraint_residuals) or "-"
        lines = [
            f"counterexample: seed={self.seed} trials_used={self.trials_used} "
            f"constraint_residuals=[{residuals}] target_residual={self.target_residual:.3e}"
        ]
        if include_distribution:
            lines.append(self.distribution.to_text().rstrip("\n"))
        return "\n".join(lines)


@dataclass(frozen=True)
class NotFound:
    """No counterexample among the configured trials; inconclusive by design."""

    trials: int

    def render(self, include_distribution: bool = False) -> str:
        return f"counterexample: not found after {self.trials} trials (inconclusive)"


def search_counterexample(
    constraints: Sequence[Gajd], target: Gajd, cfg: OracleConfig
) -> CounterexampleReport | NotFound:
    """Look for a distribution satisfying the constraints but not the target."""
    for i, seed in enumerate(cfg.trial_seeds(), start=1):
        rel = random_positive(cfg.domains, seed)
        projected, residuals = project_onto(rel, constraints, cfg.ipf_sweeps, stop_tol=cfg.sat_tol)
        if residuals and max(residuals) > cfg.sat_tol:
            continue
        target_residual = satisfies(projected, target).residual
        if target_residual > cfg.check_tol:
            return CounterexampleReport(projected, residuals, target_residual, seed, i)
    return NotFound(cfg.trials)


@dataclass(frozen=True)
class DecompositionReport:
    """Agreement between the fold of monotone joins and the explicit product formula."""

    trials: int
    worst_formula_residual: float
    worst_fixpoint_residual: float
    formula_tol: float = 1e-10
    fixpoint_tol: float = 1e-12

    @property
    def passed(self) -> bool:
        return (
            self.worst_formula_residual <= self.formula_tol
            and self.worst_fixpoint_residual <= self.fixpoint_tol
        )

    def render(self) -> str:
        return (
            f"decomposition: trials={self.trials} "
            f"worst_formula_residual={self.worst_formula_residual:.3e} "
            f"worst_fixpoint_residual={self.worst_fixpoint_residual:.3e} "
            f"status={'pass' if self.passed else 'fail'}"
        )


def check_decomposition(g: Gajd, cfg: OracleConfig) -> DecompositionReport:
    """Desk-scale check of the decomposable-distribution equivalence.

    Per trial, push a random positive joint through the dependency's
    marginalize/product-join map, then verify (a) the result equals the
    explicit quotient of its own edge marginals by its interaction marginals
    and (b) the result is a fixed point of the map.
    """
    worst_formula = 0.0
    worst_fixpoint = 0.0
    for seed in cfg.trial_seeds():
        base = random_positive(cfg.domains, seed)
        rel = mpj_map(base, g)
        scheme = rel.scheme
        edge_parts = [(marginalize(rel, e), [scheme.index(a) for a in e]) for e in g.edges_in_order]
        inter_parts = [(marginalize(rel, s), [scheme.index(a) for a in s]) for s in g.interactions]
        for key, w in rel.items():
            expected = 1.0
            for marg, idx in edge_parts:
                expected *= marg.weight(tuple(key[i] for i in idx))
            for marg, idx in inter_parts:
                expected /= marg.weight(tuple(key[i] for i in idx))
            worst_formula = max(worst_formula, abs(w - expected))
        worst_fixpoint = max(worst_fixpoint, satisfies(rel, g).residual)
    return DecompositionReport(cfg.trials, worst_formula, worst_fixpoint)
