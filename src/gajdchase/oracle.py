"""Numeric cross-validation of symbolic verdicts.

The oracle samples strictly positive joint distributions, projects them onto
a constraint set by cyclically applying each constraint's
marginalize/product-join map (the fitting loop used for contingency tables),
and then measures dependency residuals.  A positive verdict is corroborated
when every projected distribution that satisfies the constraints also
satisfies the target; a negative verdict is corroborated by exhibiting one
that does not.  Absence of a counterexample after finitely many seeds proves
nothing and is reported as inconclusive.

Joints are dense `numpy` arrays with one axis per attribute of the domain
scheme, in canonical order, so C order matches `DomainSpec.tuples()`.  A
marginal is a sum over the other axes, kept as size-1 axes, and the monotone
join is a broadcast product.  `fold_axes` turns a dependency into those axes
once per call of the oracle, not once per sweep.  Only a reported
counterexample becomes a `WeightedRelation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

# numpy is imported inside the functions that use it, so that importing the
# package for the chase alone does not load it.
from .errors import DomainTooLargeError, SchemeError
from .hypergraph import AttributeSet
from .prelation import DomainSpec, Gajd, WeightedRelation, relation_from_domains

if TYPE_CHECKING:
    from numpy import ndarray

MAX_TABLE_CELLS = 4096
POSITIVITY_FLOOR = 1e-4
IPF_SWEEPS = 200  # full projection sweeps a trial gets to reach SAT_TOL
SAT_TOL = 1e-10  # a trial converged when every constraint residual is at or below this
CHECK_TOL = 1e-8  # a converged trial refutes the target when its residual is above this
FORMULA_TOL = 1e-10  # with FIXPOINT_TOL, the worst residuals a passing decomposition check allows
FIXPOINT_TOL = 1e-12

# Per edge in certificate order: the axes its marginal sums out, and the axes
# of that marginal outside the earlier edges, which the separator sums out.
Fold = tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


@dataclass(frozen=True)
class OracleConfig:
    """Domains, seed and trial count; identical configs give identical reports."""

    domains: DomainSpec
    seed: int = 0
    trials: int = 50

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")

    def trial_seeds(self) -> list[int]:
        import numpy as np

        state = np.random.SeedSequence(self.seed).generate_state(self.trials, dtype=np.uint64)
        return [int(s) for s in state]


def random_positive(domains: DomainSpec, seed: int) -> ndarray:
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
    return mixed.reshape(tuple(len(domains.domains[a]) for a in domains.scheme))


def _outside(scheme: AttributeSet, attrs: AttributeSet) -> tuple[int, ...]:
    """The axes of the attributes of `scheme` not in `attrs`."""
    return tuple(i for i, a in enumerate(scheme) if a not in attrs)


def fold_axes(scheme: AttributeSet, g: Gajd) -> Fold:
    """The axes `mpj_map` sums over for `g`, on joints with one axis per attribute of `scheme`."""
    if g.scheme != scheme:
        raise SchemeError(
            f"joint scheme {scheme.render()} does not match constraint scheme {g.scheme.render()}"
        )
    # By the twig equation an edge meets the earlier ones in its interaction-set member.
    fold = []
    for edge, shared in zip(g.edges_in_order, (AttributeSet(),) + g.interactions.members):
        new = tuple(i for i, a in enumerate(scheme) if a in edge and a not in shared)
        fold.append((_outside(scheme, edge), new))
    return tuple(fold)


def mpj_map(p: ndarray, fold: Fold) -> ndarray:
    """Left fold of the monotone join over the marginals of `p`, in certificate order.

    Each step multiplies by the next edge's marginal and divides by that
    marginal's sum onto the attributes the edge shares with the earlier ones.
    """
    (outside, _), *rest = fold
    acc = p.sum(axis=outside, keepdims=True)
    for outside, new in rest:
        m = p.sum(axis=outside, keepdims=True)
        acc = acc * m * (1.0 / m.sum(axis=new, keepdims=True))
    return acc


def satisfies(p: ndarray, fold: Fold) -> float:
    """Residual of `p` against its own marginalize/product-join map: the largest pointwise difference."""
    return float(abs(p - mpj_map(p, fold)).max())


def project_onto(
    p: ndarray,
    folds: Sequence[Fold],
    sweeps: int,
    stop_tol: float | None = None,
) -> tuple[ndarray, tuple[float, ...]]:
    """Cyclic application of each constraint's map, up to `sweeps` full passes.

    Returns the final joint and each constraint's residual.  Convergence
    is not guaranteed; the caller inspects the residuals and decides.  When
    `stop_tol` is given, iteration ends early once every residual is at or
    below it (the returned residuals are always freshly computed).
    """
    current = p
    residuals: tuple[float, ...] = tuple(satisfies(current, f) for f in folds)
    for _ in range(sweeps):
        if stop_tol is not None and all(r <= stop_tol for r in residuals):
            break
        for f in folds:
            current = mpj_map(current, f)
            if current.min() <= 0.0:
                raise AssertionError("projection produced a nonpositive weight from positive input")
        residuals = tuple(satisfies(current, f) for f in folds)
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


def _trials(
    constraints: Sequence[Gajd], target: Gajd, cfg: OracleConfig
) -> Iterator[tuple[int, int, ndarray, tuple[float, ...], float]]:
    """Number, seed, projected joint, constraint and target residuals of each converged trial."""
    scheme = cfg.domains.scheme
    folds = [fold_axes(scheme, g) for g in constraints]
    target_fold = fold_axes(scheme, target)
    for i, seed in enumerate(cfg.trial_seeds(), start=1):
        p = random_positive(cfg.domains, seed)
        projected, residuals = project_onto(p, folds, IPF_SWEEPS, stop_tol=SAT_TOL)
        if residuals and max(residuals) > SAT_TOL:
            continue
        yield i, seed, projected, residuals, satisfies(projected, target_fold)


def check_soundness(constraints: Sequence[Gajd], target: Gajd, cfg: OracleConfig) -> SoundnessReport:
    """Require every converged projection onto the constraints to satisfy the target.

    Callers invoke this only for targets the symbolic test declared implied;
    any failure therefore flags a symbolic/numeric disagreement.  Trials
    whose projection does not reach SAT_TOL are discarded; if fewer than
    half converge the report is inconclusive rather than failed.
    """
    converged = 0
    worst = 0.0
    failing: list[int] = []
    for _, seed, _, _, target_residual in _trials(constraints, target, cfg):
        converged += 1
        worst = max(worst, target_residual)
        if target_residual > CHECK_TOL:
            failing.append(seed)
    failed = len(failing)
    if failed > 0:
        status = "fail"
    elif converged < (cfg.trials + 1) // 2:
        status = "inconclusive"
    else:
        status = "pass"
    return SoundnessReport(cfg.trials, converged, converged - failed, failed, worst, status, tuple(failing))


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
    for i, seed, projected, residuals, target_residual in _trials(constraints, target, cfg):
        if target_residual > CHECK_TOL:
            distribution = relation_from_domains(cfg.domains, projected.ravel().tolist())
            return CounterexampleReport(distribution, residuals, target_residual, seed, i)
    return NotFound(cfg.trials)


@dataclass(frozen=True)
class DecompositionReport:
    """Agreement between the fold of monotone joins and the explicit product formula."""

    trials: int
    worst_formula_residual: float
    worst_fixpoint_residual: float

    @property
    def passed(self) -> bool:
        return (
            self.worst_formula_residual <= FORMULA_TOL
            and self.worst_fixpoint_residual <= FIXPOINT_TOL
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
    scheme = cfg.domains.scheme
    fold = fold_axes(scheme, g)
    inter_axes = [_outside(scheme, s) for s in g.interactions]
    worst_formula = 0.0
    worst_fixpoint = 0.0
    for seed in cfg.trial_seeds():
        p = mpj_map(random_positive(cfg.domains, seed), fold)
        expected = 1.0
        for axes, _ in fold:
            expected = expected * p.sum(axis=axes, keepdims=True)
        for axes in inter_axes:
            expected = expected / p.sum(axis=axes, keepdims=True)
        worst_formula = max(worst_formula, float(abs(p - expected).max()))
        worst_fixpoint = max(worst_fixpoint, satisfies(p, fold))
    return DecompositionReport(cfg.trials, worst_formula, worst_fixpoint)
