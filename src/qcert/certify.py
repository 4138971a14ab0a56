"""Certification quantities: dimension witness, formation bound, Bell parameter.

All three accept either a DensityOperator (exact probabilities) or a
CoincidenceTable (finite counts, optionally accidental-subtracted), and
read each setting of their ``bases`` plan through the one cell reader
``counting.setting_cells`` (the exact formation bound excepted, which reads
matrix elements of rho):

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
from .linalg import DensityOperator
from . import bases
from .counting import CoincidenceTable, bootstrap_std, estimate, plan_modes, setting_cells
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


def _no_support(total: float, exact: bool) -> bool:
    """A setting's cell total with nothing to normalise: below 1e-14 for
    exact probabilities, non-positive for (possibly subtracted) counts."""
    return total < 1e-14 if exact else total <= 0


def _modes(data, num_modes: int | None) -> tuple[int, int]:
    """(d, dim): the d analysed modes (``num_modes``, else all of them) and
    the dim-mode space the setting plans of ``data`` are built in."""
    if isinstance(data, CoincidenceTable) and not (num_modes or data.metadata.get("D")):
        raise ValidationError("num_modes required (no D in table metadata)")
    dim = plan_modes(data, num_modes)
    d = int(num_modes or dim)
    if not 1 <= d <= dim:
        raise ValidationError(f"{d} modes do not fit the {dim}-mode data")
    return d, dim


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


def _visibility_from_cells(values, variances, exact: bool = False) -> Visibility:
    """V and its propagated error from one setting's 2 x 2 cell values and
    variances, rows (signal) and columns (idler) in label order +1, -1."""
    n1 = values[0][0] + values[1][1]
    n2 = values[0][1] + values[1][0]
    total = n1 + n2
    if _no_support(total, exact):
        return Visibility(0.0, 0.0, status="no-counts")
    vis = abs(n1 - n2) / total
    d_n1 = 2 * n2 / total**2
    d_n2 = 2 * n1 / total**2
    var = (d_n1**2) * (variances[0][0] + variances[1][1]) + (
        d_n2**2
    ) * (variances[0][1] + variances[1][0])
    if vis > 1.0:
        return Visibility(1.0, math.sqrt(var), status="clamped")
    return Visibility(float(vis), math.sqrt(var), status="ok")


def visibility_from_counts(records, corrected: bool = False) -> Visibility:
    """Two-outcome correlation visibility from the four cells of one setting.

    V = |C_++ + C_-- - C_+- - C_-+| / (sum of the four), with Poisson error
    propagation.  A non-positive denominator (possible after accidental
    subtraction) yields a flagged zero.
    """
    estimates = {}
    for rec in records:
        key = (rec.outcome_s, rec.outcome_i)
        if key in estimates:
            raise ValidationError(f"duplicate outcome cell {key}")
        estimates[key] = estimate(rec, corrected)
    if set(estimates) != {(1, 1), (1, -1), (-1, 1), (-1, -1)}:
        raise ValidationError(f"expected the four +-1 outcome cells, got {sorted(estimates)}")
    rows = [[estimates[(a, b)] for b in (1, -1)] for a in (1, -1)]
    return _visibility_from_cells([[est.value for est in row] for row in rows],
                                  [[est.std_error**2 for est in row] for row in rows])


def _pair_visibility(data, setting: bases.PlannedSetting, corrected: bool) -> Visibility:
    values, variances = setting_cells(data, setting, corrected)
    return _visibility_from_cells(values, variances, isinstance(data, DensityOperator))


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
    d, dim = _modes(data, num_modes)
    per_pair = {}
    missing = []
    for j, k in _witness_pairs(d):
        settings = bases.witness_settings(space, j, k, dim)
        try:
            per_pair[(j, k)] = PairVisibilities(
                *(_pair_visibility(data, st, corrected) for st in settings))
        except ValidationError:
            missing.append((j, k))
    if missing:
        raise ValidationError(
            f"witness data incomplete for space {space}; missing pairs: {missing}"
        )

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
    """|<jj|rho|kk>| and sqrt(<jk|rho|jk><kj|rho|kj>) per pair, read off rho
    rotated once into the product basis of the space's full-basis scan."""
    scan = bases.scan_setting(space, rho.dim_signal)
    kets = np.kron(scan.basis_s.vector_matrix, scan.basis_i.vector_matrix)
    r = kets.conj() @ rho.matrix @ kets.T
    n = rho.dim_idler
    coherences, cross_terms = {}, {}
    for j, k in pair_set:
        coherences[(j, k)] = float(abs(r[j * n + j, k * n + k]))
        p_jk = r[j * n + k, j * n + k].real
        p_kj = r[k * n + j, k * n + j].real
        cross_terms[(j, k)] = math.sqrt(max(p_jk, 0.0) * max(p_kj, 0.0))
    return coherences, cross_terms


def _scan_probabilities(table: CoincidenceTable, scan: bases.PlannedSetting,
                        corrected: bool) -> np.ndarray:
    values = np.asarray(setting_cells(table, scan, corrected)[0])
    total = values.sum()
    if _no_support(total, exact=False):
        raise ComputationError("diagonal coincidence table has no net counts")
    return values / total


def _eof_count_terms(table: CoincidenceTable, scan: bases.PlannedSetting,
                     pair_settings, corrected: bool):
    """pair_settings: ((j, k), (x setting, y setting)) per pair."""
    probs = _scan_probabilities(table, scan, corrected)
    coherences, cross_terms = {}, {}
    for (j, k), (st_x, st_y) in pair_settings:
        weight = probs[j, j] + probs[j, k] + probs[k, j] + probs[k, k]
        v_x = _pair_visibility(table, st_x, corrected).value
        v_y = _pair_visibility(table, st_y, corrected).value
        coherences[(j, k)] = weight * (v_x + v_y) / 4.0
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
    replicas survive.  ``num_modes`` must fit the data and every pair of
    ``pair_set`` must name two different modes below it.
    """
    naming.require_space(space)
    d, dim = _modes(data, num_modes)
    pairs = tuple(pair_set) if pair_set is not None else tuple(_witness_pairs(d))
    bad = [(j, k) for j, k in pairs if j == k or not (0 <= j < d and 0 <= k < d)]
    if bad:
        raise ValidationError(f"pair_set needs two different modes in 0..{d - 1}; got {bad}")
    if isinstance(data, DensityOperator):
        coherences, cross_terms = _eof_exact_terms(data, space, pairs)
        b_err = 0.0
    else:
        scan = bases.scan_setting(space, dim)
        # tables hold each pair's settings once, under j < k; (k, j) reads
        # them too, and swapping both sides' +-1 labels leaves V_x, V_y alone
        pair_settings = tuple(
            ((j, k), bases.witness_settings(space, min(j, k), max(j, k), dim)[:2])
            for j, k in pairs)
        data = data.restricted([scan.name] + [
            st.name for _, settings in pair_settings for st in settings])
        coherences, cross_terms = _eof_count_terms(data, scan, pair_settings, corrected)
        b_err = bootstrap_std(
            data,
            lambda boot: _b_from_terms(
                *_eof_count_terms(boot, scan, pair_settings, corrected), pairs),
            n_bootstrap, seed,
        )

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


def cglmp(data, d: int, corrected: bool = False, margin: float = 1.0) -> CglmpResult:
    """Bell parameter for dimension d from exact probabilities or counts.

    Each of the four settings' d x d cell table is renormalized to a
    probability table; the count path propagates Poisson errors through the
    normalization (exact cells carry zero variance, so their error is 0).
    """
    weights = cglmp_weights(d)
    _, dim = _modes(data, d)
    exact = isinstance(data, DensityOperator)
    tables = {}
    value = 0.0
    variance = 0.0
    for (s, i), setting in zip([(s, i) for s in (0, 1) for i in (0, 1)],
                               bases.bell_settings(d, dim)):
        vals, var = setting_cells(data, setting, corrected)
        vals = np.asarray(vals)
        total = vals.sum()
        if _no_support(total, exact):
            raise ComputationError(f"setting {setting.name!r} has no support "
                                   f"(cell total {total:.3g})")
        probs = vals / total
        contribution = float(np.sum(weights[s, i] * probs))
        value += contribution
        grad = (weights[s, i] - contribution) / total
        variance += float(np.sum(grad * grad * np.asarray(var)))
        tables[(s, i)] = probs
    return CglmpResult(d=d, bell_parameter=value, bell_parameter_err=math.sqrt(variance),
                       tables=tables, margin=margin)
