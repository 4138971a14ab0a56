"""Certification quantities: dimension witness, formation bound, Bell parameter.

All three accept either a DensityOperator (exact probabilities) or a
CoincidenceTable (finite counts, optionally accidental-subtracted), and
read their ``bases`` plan as one stacked array through the cell reader
``counting.setting_cells`` (the exact formation bound excepted, which reads
matrix elements of rho).  The count-path formation terms also run over a
bootstrap ``ReplicaStack``, where a refused replica reads NaN:

* ``witness``: sums the three pair visibilities over every mode pair and
  compares against the Schmidt-number bound f(d) = 3D(D-1)/2 - D(D-d).
* ``eof_bound``: lower-bounds the entanglement of formation from pair
  coherences and cross populations,
  E_F >= -log2(1 - B^2/2),  B = (2/sqrt(|C|)) sum_(j<k) (|<jj|rho|kk>|
  - sqrt(<jk|rho|jk><kj|rho|kj>)), saturated at log2 m (not refused) from
  B_cap = sqrt(2(1 - 1/m)) on, m the modes the pairs touch.
* ``cglmp``: the d-outcome Bell parameter with local-model bound 2, built
  from four detector settings with fractional label offsets.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ComputationError, ValidationError
from .linalg import DensityOperator
from . import bases
from .counting import (CoincidenceTable, bootstrap_std, cell_estimates, plan_modes,
                       setting_cells)
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


def _visibilities(values, variances, exact: bool = False):
    """V, its propagated variance and its status for each setting of
    (..., 2, 2) cell values and variances, rows (signal) and columns (idler)
    in label order +1, -1.  A setting with nothing to normalise reads 0
    ("no-counts"); V above 1 (possible after subtraction) reads 1 ("clamped").
    """
    n1 = values[..., 0, 0] + values[..., 1, 1]
    n2 = values[..., 0, 1] + values[..., 1, 0]
    total = n1 + n2
    empty = _no_support(total, exact)
    with np.errstate(divide="ignore", invalid="ignore"):
        vis = abs(n1 - n2) / total
        d_n1 = 2 * n2 / total**2
        d_n2 = 2 * n1 / total**2
        var = (d_n1**2 * (variances[..., 0, 0] + variances[..., 1, 1])
               + d_n2**2 * (variances[..., 0, 1] + variances[..., 1, 0]))
    status = np.where(empty, "no-counts", np.where(vis > 1.0, "clamped", "ok"))
    return np.where(empty, 0.0, np.minimum(vis, 1.0)), np.where(empty, 0.0, var), status


def visibility_from_counts(records, corrected: bool = False) -> Visibility:
    """Two-outcome correlation visibility from the four cells of one setting.

    V = |C_++ + C_-- - C_+- - C_-+| / (sum of the four), with Poisson error
    propagation.  A non-positive denominator (possible after accidental
    subtraction) yields a flagged zero.
    """
    counts = {}
    for rec in records:
        key = (rec.outcome_s, rec.outcome_i)
        if key in counts:
            raise ValidationError(f"duplicate outcome cell {key}")
        counts[key] = (rec.coincidences, rec.singles_s, rec.singles_i, rec.trials)
    if set(counts) != {(1, 1), (1, -1), (-1, 1), (-1, -1)}:
        raise ValidationError(f"expected the four +-1 outcome cells, got {sorted(counts)}")
    cells = np.array([[counts[(a, b)] for b in (1, -1)] for a in (1, -1)], dtype=float)
    vis, var, status = _visibilities(*cell_estimates(np.moveaxis(cells, -1, 0), corrected))
    return Visibility(float(vis), math.sqrt(var), str(status))


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
    pairs = _witness_pairs(d)
    plans = [bases.witness_settings(space, j, k, dim) for j, k in pairs]
    try:
        values, variances = setting_cells(data, [st for plan in plans for st in plan], corrected)
    except ValidationError:
        missing = []
        for pair, plan in zip(pairs, plans):
            try:
                setting_cells(data, plan)
            except ValidationError:
                missing.append(pair)
        raise ValidationError(
            f"witness data incomplete for space {space}; missing pairs: {missing}"
        ) from None
    vis, var, status = (a.reshape(-1, 3) for a in _visibilities(
        values.reshape(-1, 2, 2), variances.reshape(-1, 2, 2), isinstance(data, DensityOperator)))
    per_pair = {
        pair: PairVisibilities(*(Visibility(float(v), math.sqrt(e), str(st))
                                 for v, e, st in zip(*axes)))
        for pair, axes in zip(pairs, zip(vis, var, status))
    }
    total = float(vis.sum())
    total_err = math.sqrt(var.sum())
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
    saturated: bool            # coherence sum at or above B_cap; ebits read log2 m


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


def _b_cap(m: int) -> float:
    """B_cap = sqrt(2(1 - 1/m)): the coherence sum at which the bound over
    pairs touching m modes reaches log2 m."""
    return math.sqrt(2.0 * (1.0 - 1.0 / m))


def _saturated_ebits(b: float, m: int) -> tuple[float, bool]:
    """(ebits, saturated) of coherence sum b over pairs touching m modes:
    the bound, capped at log2 m from B_cap on."""
    if b > 0 and b >= _b_cap(m):
        return math.log2(m), True
    return _ebits_from_b(b), False


def _b_from_terms(coherences, cross_terms):
    """The B functional over the last (pair) axis, clamped at 0."""
    if not coherences.shape[-1]:
        return np.zeros(coherences.shape[:-1])
    total = (coherences - cross_terms).sum(axis=-1)
    return np.maximum(2.0 / math.sqrt(coherences.shape[-1]) * total, 0.0)


def _eof_exact_elements(rho: DensityOperator, space: str, j, k):
    """<jj|rho|kk>, <jk|rho|jk> and <kj|rho|kj> per pair, read off rho rotated
    once into the product basis of the space's full-basis scan; linear in rho."""
    scan = bases.scan_setting(space, rho.dim_signal)
    kets = np.kron(scan.basis_s.vector_matrix, scan.basis_i.vector_matrix)
    r = kets.conj() @ rho.matrix @ kets.T
    n = rho.dim_idler
    return r[j * n + j, k * n + k], r[j * n + k, j * n + k].real, r[k * n + j, k * n + j].real


def _eof_exact_terms(coherences, p_jk, p_kj):
    """|<jj|rho|kk>| and sqrt(<jk|rho|jk><kj|rho|kj>) from those elements."""
    cross_terms = np.sqrt(np.maximum(p_jk, 0.0) * np.maximum(p_kj, 0.0))
    # hypot, as abs() of a Python complex: numpy's complex abs rounds otherwise
    return np.hypot(coherences.real, coherences.imag), cross_terms


def _eof_count_terms(data, scan: bases.PlannedSetting, pair_settings, j, k,
                     corrected: bool):
    """Coherences and cross terms of pairs (j, k), over the leading (replica)
    axes of a table or stack; pair_settings: each pair's x and y settings.
    A replica whose scan has no net counts reads NaN; a table raises."""
    values = setting_cells(data, [scan], corrected)[0][..., 0, :, :]
    total = values.sum(axis=(-2, -1), keepdims=True)
    if isinstance(data, CoincidenceTable) and _no_support(total, exact=False).any():
        raise ComputationError("diagonal coincidence table has no net counts")
    probs = values / np.where(total > 0, total, np.nan)
    cells, variances = setting_cells(data, pair_settings, corrected)
    lead = values.shape[:-2]
    vis = _visibilities(cells.reshape(lead + (-1, 2, 2)),
                        variances.reshape(lead + (-1, 2, 2)))[0].reshape(lead + (-1, 2))
    weight = probs[..., j, j] + probs[..., j, k] + probs[..., k, j] + probs[..., k, k]
    coherences = weight * (vis[..., 0] + vis[..., 1]) / 4.0
    cross_terms = np.sqrt(np.maximum(probs[..., j, k], 0.0) * np.maximum(probs[..., k, j], 0.0))
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

    A coherence sum at or above B_cap = sqrt(2(1 - 1/m)), m the modes the
    pair set touches, is ``saturated``: ebits read log2 m, the dimension
    certified is m, and ebits_err is the delta-method slope at B_cap,
    B_cap m / ln 2, times the coherence-sum error.  Curve entry n is capped
    at log2 n the same way.
    """
    naming.require_space(space)
    d, dim = _modes(data, num_modes)
    pairs = tuple((j, k) for j, k in (_witness_pairs(d) if pair_set is None else pair_set))
    bad = [(j, k) for j, k in pairs if j == k or not (0 <= j < d and 0 <= k < d)]
    if bad:
        raise ValidationError(f"pair_set needs two different modes in 0..{d - 1}; got {bad}")
    j, k = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    if isinstance(data, DensityOperator):
        coherences, cross_terms = _eof_exact_terms(*_eof_exact_elements(data, space, j, k))
        b_err = 0.0
    else:
        scan = bases.scan_setting(space, dim)
        # tables hold each pair's settings once, under j < k; (k, j) reads
        # them too, and swapping both sides' +-1 labels leaves V_x, V_y alone
        pair_settings = [st for a, b in pairs
                         for st in bases.witness_settings(space, min(a, b), max(a, b), dim)[:2]]
        data = data.restricted([scan.name] + [st.name for st in pair_settings])
        coherences, cross_terms = _eof_count_terms(data, scan, pair_settings, j, k, corrected)
        b_err = bootstrap_std(
            data,
            lambda stack: _b_from_terms(
                *_eof_count_terms(stack, scan, pair_settings, j, k, corrected)),
            n_bootstrap, seed,
        )

    b_value = float(_b_from_terms(coherences, cross_terms))
    modes = len({mode for pair in pairs for mode in pair})
    ebits, saturated = _saturated_ebits(b_value, modes)
    # delta-method propagation; saturated, the slope's left limit at B_cap
    b_edge = _b_cap(modes) if saturated else b_value
    ebits_err = (b_edge / (math.log(2.0) * (1.0 - b_edge * b_edge / 2.0)) * b_err
                 if b_edge > 0.0 else 0.0)
    curve = []
    for n in range(2, d + 1):
        subset = (j < n) & (k < n)
        if not subset.any():
            continue
        b_n = float(_b_from_terms(coherences[subset], cross_terms[subset]))
        curve.append((n, b_n, _saturated_ebits(b_n, n)[0]))
    return EofResult(
        space=space,
        pair_set=pairs,
        coherences=dict(zip(pairs, coherences.tolist())),
        cross_terms=dict(zip(pairs, cross_terms.tolist())),
        coherence_sum=b_value,
        coherence_sum_err=b_err,
        ebits=ebits,
        ebits_err=ebits_err,
        certified_dimension=eof_certified_dimension(ebits, d),
        curve=tuple(curve),
        saturated=saturated,
    )


# ---------------------------------------------------------------------------
# Bell parameter
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def cglmp_weights(d: int) -> np.ndarray:
    """Per-cell weights w[s, i, k, m] so the Bell parameter is
    sum_{s,i} sum_{k,m} w[s,i,k,m] P(S_s=k, I_i=m); built once per d and
    returned read-only.

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
    w.setflags(write=False)
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

    The four settings' d x d cell tables, read as one (4, d, d) stack, are
    each renormalized to a probability table; the count path propagates
    Poisson errors through the normalization (exact cells carry zero
    variance, so their error is 0).
    """
    weights = cglmp_weights(d).reshape(4, d, d)
    _, dim = _modes(data, d)
    settings = bases.bell_settings(d, dim)
    vals, var = setting_cells(data, settings, corrected)
    total = vals.sum(axis=(-2, -1))
    empty = _no_support(total, isinstance(data, DensityOperator))
    if empty.any():
        first = int(np.argmax(empty))
        raise ComputationError(f"setting {settings[first].name!r} has no support "
                               f"(cell total {total[first]:.3g})")
    probs = vals / total[..., None, None]
    contributions = np.sum(weights * probs, axis=(-2, -1))
    grad = (weights - contributions[..., None, None]) / total[..., None, None]
    variance = float(np.sum(grad * grad * var))
    tables = {(s, i): probs[2 * s + i] for s in (0, 1) for i in (0, 1)}
    return CglmpResult(d=d, bell_parameter=float(contributions.sum()),
                       bell_parameter_err=math.sqrt(variance), tables=tables, margin=margin)
