"""Certification quantities: dimension witness, formation bound, Bell parameter.

All three accept either a DensityOperator (exact probabilities) or a
CoincidenceTable (finite counts, optionally accidental-subtracted):

* ``witness``: sums the three pair visibilities over every mode pair and
  compares against the Schmidt-number bound f(d) = 3D(D-1)/2 - D(D-d).
* ``eof_bound``: lower-bounds the entanglement of formation from pair
  coherences and cross populations,
  E_F >= -log2(1 - B^2/2),  B = (2/sqrt(|C|)) sum_(j<k) (|<jj|rho|kk>|
  - sqrt(<jk|rho|jk><kj|rho|kj>)).
* ``cglmp``: the d-outcome Bell parameter with local-model bound 2, built
  from four detector settings with fractional label offsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ComputationError, ValidationError
from .linalg import DensityOperator, matrix_element, outcome_probabilities
from . import bases
from .bases import AXES
from .counting import CoincidenceTable, bootstrap_std, estimate
from . import naming

__all__ = [
    "Visibility",
    "PairVisibilities",
    "WitnessResult",
    "EofResult",
    "CglmpResult",
    "witness_bound",
    "certified_dimension_from_witness",
    "visibility_from_counts",
    "witness",
    "eof_bound",
    "eof_certified_dimension",
    "cglmp_weights",
    "cglmp",
]

LOCAL_BOUND = 2.0


# ---------------------------------------------------------------------------
# dimension witness
# ---------------------------------------------------------------------------

def witness_bound(num_modes: int, d: int) -> int:
    """Largest visibility sum reachable with Schmidt number at most d."""
    if not (1 <= d <= num_modes):
        raise ValidationError(f"d must lie in 1..{num_modes}, got {d}")
    return 3 * num_modes * (num_modes - 1) // 2 - num_modes * (num_modes - d)


def certified_dimension_from_witness(
    total: float, total_err: float, num_modes: int, margin: float = 1.0
) -> int:
    """1 + max{d : total - margin * err > f(d)}, capped at the mode count."""
    certified = 1
    for d in range(1, num_modes + 1):
        if total - margin * total_err > witness_bound(num_modes, d):
            certified = d + 1
    return min(certified, num_modes)


@dataclass(frozen=True)
class Visibility:
    value: float
    std_error: float
    status: str = "ok"  # ok | clamped | no-counts


@dataclass(frozen=True)
class PairVisibilities:
    x: Visibility
    y: Visibility
    z: Visibility

    def axis(self, name: str) -> Visibility:
        return getattr(self, name)

    @property
    def total(self) -> float:
        return self.x.value + self.y.value + self.z.value

    @property
    def total_var(self) -> float:
        return self.x.std_error**2 + self.y.std_error**2 + self.z.std_error**2


@dataclass(frozen=True)
class WitnessResult:
    space: str
    num_modes: int
    pair_visibilities: dict
    total: float
    total_err: float
    margin: float
    certified_dimension: int

    def bound(self, d: int) -> int:
        return witness_bound(self.num_modes, d)


def _visibility_from_values(values, variances) -> Visibility:
    """values/variances keyed by (outcome_s, outcome_i) in {+1, -1}^2."""
    n1 = values[(1, 1)] + values[(-1, -1)]
    n2 = values[(1, -1)] + values[(-1, 1)]
    total = n1 + n2
    if total <= 0:
        return Visibility(0.0, 0.0, status="no-counts")
    vis = abs(n1 - n2) / total
    d_n1 = 2 * n2 / total**2
    d_n2 = 2 * n1 / total**2
    var = (d_n1**2) * (variances[(1, 1)] + variances[(-1, -1)]) + (
        d_n2**2
    ) * (variances[(1, -1)] + variances[(-1, 1)])
    if vis > 1.0:
        return Visibility(1.0, math.sqrt(var), status="clamped")
    return Visibility(float(vis), math.sqrt(var), status="ok")


def visibility_from_counts(records, corrected: bool = False) -> Visibility:
    """Two-outcome correlation visibility from the four cells of one setting.

    V = |C_++ + C_-- - C_+- - C_-+| / (sum of the four), with Poisson error
    propagation.  A non-positive denominator (possible after accidental
    subtraction) yields a flagged zero.
    """
    values, variances = {}, {}
    for rec in records:
        key = (rec.outcome_s, rec.outcome_i)
        if key in values:
            raise ValidationError(f"duplicate outcome cell {key}")
        est = estimate(rec, corrected)
        values[key] = est.value
        variances[key] = est.std_error**2
    needed = {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    if set(values) != needed:
        raise ValidationError(f"expected the four +-1 outcome cells, got {sorted(values)}")
    return _visibility_from_values(values, variances)


def _exact_pair_visibility(rho: DensityOperator, space: str, j: int, k: int, axis: str) -> Visibility:
    b_s = bases.pair_basis(space, j, k, axis, rho.dim_signal, side="signal")
    b_i = bases.pair_basis(space, j, k, axis, rho.dim_idler, side="idler")
    table = outcome_probabilities(rho, b_s.vector_matrix, b_i.vector_matrix)
    values = {
        (1, 1): table[0, 0],
        (1, -1): table[0, 1],
        (-1, 1): table[1, 0],
        (-1, -1): table[1, 1],
    }
    zeros = {key: 0.0 for key in values}
    if sum(values.values()) < 1e-14:
        return Visibility(0.0, 0.0, status="no-counts")
    return _visibility_from_values(values, zeros)


def _witness_pairs(num_modes: int):
    return [(j, k) for j in range(num_modes) for k in range(j + 1, num_modes)]


def witness(
    data,
    space: str = "X",
    num_modes: int | None = None,
    corrected: bool = False,
    margin: float = 1.0,
) -> WitnessResult:
    """Visibility-sum dimension witness over all mode pairs of one space."""
    naming.require_space(space)
    per_pair = {}
    if isinstance(data, DensityOperator):
        d = num_modes or min(data.dim_signal, data.dim_idler)
        for j, k in _witness_pairs(d):
            per_pair[(j, k)] = PairVisibilities(
                *(_exact_pair_visibility(data, space, j, k, ax) for ax in AXES)
            )
    elif isinstance(data, CoincidenceTable):
        d = num_modes or data.metadata.get("D")
        if d is None:
            modes = [
                max(parsed[1], parsed[2])
                for parsed in map(naming.parse_witness_setting, data.settings())
                if parsed is not None and parsed[0] == space
            ]
            if not modes:
                raise ValidationError(f"no witness settings for space {space} in the table")
            d = max(modes) + 1
        d = int(d)
        missing = []
        for j, k in _witness_pairs(d):
            vis = {}
            for ax in AXES:
                cells = data.by_setting(naming.witness_setting(space, j, k, ax))
                if len(cells) != 4:
                    missing.append((j, k))
                    break
                vis[ax] = visibility_from_counts(cells.values(), corrected=corrected)
            else:
                per_pair[(j, k)] = PairVisibilities(vis["x"], vis["y"], vis["z"])
        if missing:
            raise ValidationError(
                f"witness data incomplete for space {space}; missing pairs: {missing}"
            )
    else:
        raise ValidationError("witness expects a DensityOperator or a CoincidenceTable")

    total = float(sum(pv.total for pv in per_pair.values()))
    total_err = math.sqrt(sum(pv.total_var for pv in per_pair.values()))
    certified = certified_dimension_from_witness(total, total_err, d, margin=margin)
    return WitnessResult(
        space=space,
        num_modes=d,
        pair_visibilities=per_pair,
        total=total,
        total_err=total_err,
        margin=margin,
        certified_dimension=certified,
    )


# ---------------------------------------------------------------------------
# entanglement of formation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EofResult:
    space: str
    pair_set: tuple
    coherences: dict
    cross_terms: dict
    coherence_sum: float       # the B functional, clamped at 0
    coherence_sum_err: float
    ebits: float               # lower bound on the entanglement of formation
    ebits_err: float
    certified_dimension: int
    curve: tuple               # (n_modes, coherence_sum, ebits) in mode-index order


def eof_certified_dimension(ebits: float, num_modes: int) -> int:
    """Largest n with ebits > log2(n - 1) (an n-1 dimensional state is excluded)."""
    certified = 1
    for n in range(2, num_modes + 1):
        if ebits > math.log2(n - 1):
            certified = n
    return certified


def _ebits_from_b(b: float) -> float:
    if b * b >= 2.0:
        raise ComputationError(
            f"coherence sum {b:.6f} implies B^2 >= 2; input data are inconsistent"
        )
    return -math.log2(1.0 - b * b / 2.0) if b > 0 else 0.0


def _b_from_terms(coherences, cross_terms, pair_set) -> float:
    if not pair_set:
        return 0.0
    total = sum(coherences[p] - cross_terms[p] for p in pair_set)
    return max(2.0 / math.sqrt(len(pair_set)) * total, 0.0)


def _eof_exact_terms(rho: DensityOperator, space: str, pair_set):
    d = min(rho.dim_signal, rho.dim_idler)
    vec_s = {m: bases.mode_vector(space, m, d, side="signal") for m in range(d)}
    vec_i = {m: bases.mode_vector(space, m, d, side="idler") for m in range(d)}
    coherences, cross_terms = {}, {}
    for j, k in pair_set:
        coherences[(j, k)] = abs(
            matrix_element(rho, vec_s[j], vec_i[j], vec_s[k], vec_i[k])
        )
        p_jk = matrix_element(rho, vec_s[j], vec_i[k], vec_s[j], vec_i[k]).real
        p_kj = matrix_element(rho, vec_s[k], vec_i[j], vec_s[k], vec_i[j]).real
        cross_terms[(j, k)] = math.sqrt(max(p_jk, 0.0) * max(p_kj, 0.0))
    return coherences, cross_terms


def _normalized_diag(table: CoincidenceTable, space: str, num_modes: int, corrected: bool):
    cells = table.by_setting(naming.diag_setting(space))
    if len(cells) != num_modes * num_modes:
        raise ValidationError(
            f"setting {naming.diag_setting(space)!r} must cover all "
            f"{num_modes}x{num_modes} outcome cells ({len(cells)} present)"
        )
    values = np.zeros((num_modes, num_modes))
    for (a, b), rec in cells.items():
        if not (0 <= a < num_modes and 0 <= b < num_modes):
            raise ValidationError(f"outcome ({a},{b}) outside the {num_modes}-mode range")
        values[a, b] = estimate(rec, corrected).value
    total = values.sum()
    if total <= 0:
        raise ComputationError("diagonal coincidence table has no net counts")
    return values / total


def _eof_count_terms(table: CoincidenceTable, space: str, num_modes: int,
                     pair_set, corrected: bool):
    probs = _normalized_diag(table, space, num_modes, corrected)
    coherences, cross_terms = {}, {}
    for j, k in pair_set:
        weight = probs[j, j] + probs[j, k] + probs[k, j] + probs[k, k]
        vis = {}
        for ax in ("x", "y"):
            cells = table.by_setting(naming.witness_setting(space, j, k, ax))
            if len(cells) != 4:
                raise ValidationError(
                    f"missing visibility setting for pair ({j},{k}) axis {ax} in space {space}"
                )
            vis[ax] = visibility_from_counts(cells.values(), corrected=corrected)
        coherences[(j, k)] = weight * (vis["x"].value + vis["y"].value) / 4.0
        cross_terms[(j, k)] = math.sqrt(max(probs[j, k], 0.0) * max(probs[k, j], 0.0))
    return coherences, cross_terms


def eof_bound(
    data,
    pair_set=None,
    space: str = "X",
    num_modes: int | None = None,
    corrected: bool = False,
    n_bootstrap: int = 100,
    seed: int = 0,
) -> EofResult:
    """Formation-entanglement lower bound from pair coherences.

    Exact path reads the matrix elements directly.  The count path estimates
    populations from the full-basis coincidence scan and each pair coherence
    as weight * (V_x + V_y) / 4 from that pair's visibility settings, which
    matches the direct element whenever the pair coherence is real (it is a
    safe underestimate otherwise).  Count-path errors come from a seeded
    Poisson bootstrap (``counting.bootstrap_std``): NaN when fewer than two
    replicas survive.
    """
    naming.require_space(space)
    if isinstance(data, DensityOperator):
        d = num_modes or min(data.dim_signal, data.dim_idler)
        pairs = tuple(pair_set) if pair_set is not None else tuple(_witness_pairs(d))
        coherences, cross_terms = _eof_exact_terms(data, space, pairs)
        b_err = 0.0
    elif isinstance(data, CoincidenceTable):
        d = int(num_modes or data.metadata.get("D") or 0)
        if d == 0:
            raise ValidationError("num_modes required (no D in table metadata)")
        pairs = tuple(pair_set) if pair_set is not None else tuple(_witness_pairs(d))
        data = data.restricted([naming.diag_setting(space)] + [
            naming.witness_setting(space, j, k, ax) for j, k in pairs for ax in ("x", "y")
        ])
        coherences, cross_terms = _eof_count_terms(data, space, d, pairs, corrected)
        b_err = bootstrap_std(
            data,
            lambda boot: _b_from_terms(*_eof_count_terms(boot, space, d, pairs, corrected), pairs),
            n_bootstrap, seed,
        )
    else:
        raise ValidationError("eof_bound expects a DensityOperator or a CoincidenceTable")

    b_value = _b_from_terms(coherences, cross_terms, pairs)
    ebits = _ebits_from_b(b_value)
    # delta-method propagation; the bound diverges as the coherence sum
    # approaches sqrt(2), where any error bar becomes nominal anyway
    if 0.0 < b_value and b_value * b_value < 2.0:
        ebits_err = b_value / (math.log(2.0) * (1.0 - b_value * b_value / 2.0)) * b_err
    else:
        ebits_err = 0.0
    curve = []
    for n in range(2, d + 1):
        subset = [p for p in pairs if p[0] < n and p[1] < n]
        if not subset:
            continue
        b_n = _b_from_terms(coherences, cross_terms, subset)
        curve.append((n, b_n, _ebits_from_b(min(b_n, math.sqrt(2.0) - 1e-12))))
    return EofResult(
        space=space,
        pair_set=pairs,
        coherences=coherences,
        cross_terms=cross_terms,
        coherence_sum=b_value,
        coherence_sum_err=b_err,
        ebits=ebits,
        ebits_err=ebits_err,
        certified_dimension=eof_certified_dimension(ebits, d),
        curve=tuple(curve),
    )


# ---------------------------------------------------------------------------
# Bell parameter
# ---------------------------------------------------------------------------

def cglmp_weights(d: int) -> np.ndarray:
    """Per-cell weights w[s, i, k, m] so the Bell parameter is
    sum_{s,i} sum_{k,m} w[s,i,k,m] P(S_s=k, I_i=m).

    Assembled so that, with the detector offsets used here (signal 0/0.5,
    idler +-0.25), every probability bracket puts its positive term on the
    correlation peak of the diagonal source.  Offset layers l carry weight
    1 - 2l/(d-1); the deterministic local bound of the combination is 2.
    """
    if d < 2:
        raise ValidationError("the Bell parameter needs d >= 2")
    w = np.zeros((2, 2, d, d))
    k = np.arange(d)
    for l in range(d // 2):
        a = 1.0 - 2.0 * l / (d - 1.0)
        near = (k - l) % d        # idler outcome l steps behind the signal
        far = (k + l + 1) % d     # and l+1 steps ahead
        # setting (0,0): P(S0 = I0 + l) - P(S0 = I0 - l - 1)
        w[0, 0, k, near] += a
        w[0, 0, k, far] -= a
        # setting (1,0): P(I0 = S1 + l + 1) - P(I0 = S1 - l)
        w[1, 0, k, far] += a
        w[1, 0, k, near] -= a
        # setting (1,1): P(S1 = I1 + l) - P(S1 = I1 - l - 1)
        w[1, 1, k, near] += a
        w[1, 1, k, far] -= a
        # setting (0,1): P(I1 = S0 + l) - P(I1 = S0 - l - 1)
        w[0, 1, k, (k + l) % d] += a
        w[0, 1, k, (k - l - 1) % d] -= a
    return w


@dataclass(frozen=True)
class CglmpResult:
    d: int
    bell_parameter: float
    bell_parameter_err: float
    tables: dict  # (s, i) -> normalized (d, d) probability table
    margin: float = 1.0

    @property
    def violated(self) -> bool:
        return self.bell_parameter - self.margin * self.bell_parameter_err > LOCAL_BOUND


def _cglmp_exact(rho: DensityOperator, d: int, margin: float) -> CglmpResult:
    dim = min(rho.dim_signal, rho.dim_idler)
    if d > dim:
        raise ValidationError(f"d={d} exceeds the state's {dim} modes")
    weights = cglmp_weights(d)
    tables = {}
    value = 0.0
    for s in (0, 1):
        basis_s = bases.cglmp_basis("signal", s, d, embed_dim=rho.dim_signal)
        for i in (0, 1):
            basis_i = bases.cglmp_basis("idler", i, d, embed_dim=rho.dim_idler)
            table = outcome_probabilities(rho, basis_s.vector_matrix, basis_i.vector_matrix)
            total = table.sum()
            if total < 1e-14:
                raise ComputationError(f"setting ({s},{i}) has no support on the first {d} modes")
            tables[(s, i)] = table / total
            value += float(np.sum(weights[s, i] * tables[(s, i)]))
    return CglmpResult(d=d, bell_parameter=value, bell_parameter_err=0.0,
                       tables=tables, margin=margin)


def _cglmp_counts(table: CoincidenceTable, d: int, corrected: bool, margin: float) -> CglmpResult:
    weights = cglmp_weights(d)
    tables = {}
    value = 0.0
    variance = 0.0
    for s in (0, 1):
        for i in (0, 1):
            name = naming.bell_setting(d, s, i)
            cells = table.by_setting(name)
            if len(cells) != d * d:
                raise ValidationError(
                    f"setting {name!r} missing or incomplete ({len(cells)} of {d*d} cells)"
                )
            vals = np.zeros((d, d))
            var = np.zeros((d, d))
            for (a, b), rec in cells.items():
                if not (0 <= a < d and 0 <= b < d):
                    raise ValidationError(f"outcome ({a},{b}) outside 0..{d - 1} in {name!r}")
                est = estimate(rec, corrected)
                vals[a, b] = est.value
                var[a, b] = est.std_error**2
            total = vals.sum()
            if total <= 0:
                raise ComputationError(f"setting {name!r} has no net counts")
            probs = vals / total
            contribution = float(np.sum(weights[s, i] * probs))
            value += contribution
            grad = (weights[s, i] - contribution) / total
            variance += float(np.sum(grad * grad * var))
            tables[(s, i)] = probs
    return CglmpResult(d=d, bell_parameter=value, bell_parameter_err=math.sqrt(variance),
                       tables=tables, margin=margin)


def cglmp(data, d: int, corrected: bool = False, margin: float = 1.0) -> CglmpResult:
    """Bell parameter for dimension d from exact probabilities or counts.

    Each of the four settings' d x d cell table is renormalized to a
    probability table; the count path propagates Poisson errors through the
    normalization.
    """
    if isinstance(data, DensityOperator):
        return _cglmp_exact(data, d, margin)
    if isinstance(data, CoincidenceTable):
        return _cglmp_counts(data, d, corrected, margin)
    raise ValidationError("cglmp expects a DensityOperator or a CoincidenceTable")
