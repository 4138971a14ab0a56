from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from qcert import (
    DensityOperator,
    SourceConfig,
    SourceState,
    StateVector,
    ValidationError,
    bases,
    cglmp,
    density_from_ket,
    eof_bound,
    fidelity_to_pure,
    ideal_state,
    linalg,
    noisy_state,
    outcome_probabilities,
    pipeline,
    reconstruct_exact,
    restrict_to_pair,
    witness,
)
from qcert import counting
from qcert.certify import _eof_exact_elements, _witness_pairs
from qcert.counting import plan_means, setting_cells
from qcert.errors import ComputationError
from qcert.linalg import marginal_probabilities

from conftest import (BELL_PAIR, dense, eigh_density, einsum_marginals, einsum_table,
                      kron_eof_elements, oracle_bases, oracle_cells, oracle_states,
                      random_unitary)


def bell_state() -> StateVector:
    return StateVector(2, 2, [1, 0, 0, 1])


def uniform_state(d: int) -> StateVector:
    amps = np.zeros(d * d, dtype=complex)
    amps[np.arange(d) * d + np.arange(d)] = 1.0
    return StateVector(d, d, amps)


def maximally_mixed(d: int) -> DensityOperator:
    return DensityOperator(d, d, np.eye(d * d) / (d * d))


def plan_families(d):
    """Every exact plan family at D = d: witness pairs and scans of both
    spaces, the Bell settings of each dimension and a tomography pair."""
    families = [[st for j, k in _witness_pairs(d) for st in bases.witness_settings(space, j, k, d)]
                for space in "XK"]
    families += [[bases.scan_setting(space, d)] for space in "XK"]
    families += [bases.bell_settings(b, d) for b in range(2, d + 1)]
    return families + [bases.tomo_settings(0, d // 2, space, d) for space in "XK"]


def drawn_source(d, spread, seed, p, dark):
    """A diagonal source with spread amplitudes and random phases, modes 1 to
    ``dark`` dark (amplitude 0), and noise fraction p."""
    rng = np.random.default_rng(seed)
    amps = np.abs(1.0 + spread * rng.standard_normal(d))
    amps[1:dark + 1] = 0.0
    return SourceConfig(d, amps / np.linalg.norm(amps), rng.uniform(-np.pi, np.pi, d), p)


def kernel_states(d_s, d_i, seed):
    """The oracle states, and on a square space a source state with spread
    amplitudes, random phases and noise."""
    states = oracle_states(d_s, d_i, seed)
    return states + [noisy_state(drawn_source(d_s, 0.3, seed, 0.2, 0))] if d_s == d_i else states


class TestStateVector:
    def test_normalizing_constructor(self):
        psi = StateVector(2, 2, [3, 0, 0, 4])
        assert np.sum(np.abs(psi.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValidationError):
            StateVector(2, 2, [0, 0, 0, 0])

    def test_schmidt_rank(self):
        # the SVD rank of the (signal, idler) amplitude matrix
        for psi, rank in ((bell_state(), 2), (StateVector(2, 2, [1, 0, 0, 0]), 1)):
            svals = np.linalg.svd(psi.amplitudes.reshape(2, 2), compute_uv=False)
            assert np.sum(svals > 1e-12) == rank


class TestDensityFromKet:
    def test_bell_corners(self):
        rho = density_from_ket(bell_state())
        for r, c in [(0, 0), (0, 3), (3, 0), (3, 3)]:
            assert rho.matrix[r, c] == pytest.approx(0.5, abs=1e-12)
        assert abs(rho.matrix[1, 1]) < 1e-12

    def test_ground_state(self):
        rho = density_from_ket(StateVector(2, 2, [1, 0, 0, 0]))
        assert_allclose(rho.matrix, np.diag([1, 0, 0, 0]), atol=1e-12)

    def test_purity_one_for_random_kets(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            amp = rng.normal(size=9) + 1j * rng.normal(size=9)
            rho = density_from_ket(StateVector(3, 3, amp))
            assert np.trace(rho.matrix @ rho.matrix).real == pytest.approx(1.0, abs=1e-10)


class TestDensityOperatorInvariants:
    def test_non_hermitian_rejected(self):
        mat = np.diag([1.0, 0, 0, 0]).astype(complex)
        mat[0, 1] = 1e-6
        with pytest.raises(ValidationError, match="Hermitian"):
            DensityOperator(2, 2, mat)

    def test_trace_enforced(self):
        with pytest.raises(ValidationError, match="trace"):
            DensityOperator(2, 2, np.eye(4) / 3)

    def test_negative_eigenvalue_rejected(self):
        mat = np.diag([1.5, -0.5, 0, 0])
        with pytest.raises(ValidationError, match="positivity"):
            DensityOperator(2, 2, mat)

    def test_tiny_negative_clamped(self):
        eps = 1e-12
        mat = np.diag([1 + eps, -eps, 0, 0])
        rho = DensityOperator(2, 2, mat)
        vals = np.linalg.eigvalsh(rho.matrix)
        assert vals[0] >= -1e-15
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_random_mixtures_keep_invariants(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            g = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
            raw = g @ g.conj().T
            raw /= np.trace(raw).real
            rho = DensityOperator(3, 3, raw)
            assert_allclose(rho.matrix, rho.matrix.conj().T, atol=1e-12)
            assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-10


@pytest.fixture
def eigh_calls(monkeypatch):
    """Count the eigh calls DensityOperator makes through linalg's numpy."""
    calls = []
    eigh = linalg.np.linalg.eigh

    def counted(matrix):
        calls.append(matrix.shape)
        return eigh(matrix)

    monkeypatch.setattr(linalg.np.linalg, "eigh", counted)
    return calls


class TestCholeskyFirst:
    def test_positive_definite_state_needs_no_eigh(self, eigh_calls):
        rho = noisy_state(SourceConfig.uniform(10).with_noise(0.05))
        DensityOperator(10, 10, rho.matrix)
        assert eigh_calls == []

    @pytest.mark.parametrize("d, matrix", [
        (10, np.outer(uniform_state(10).amplitudes, uniform_state(10).amplitudes.conj())),
        (2, np.diag([1 + 1e-12, -1e-12, 0, 0])),
    ], ids=["pure", "tiny-negative"])
    def test_singular_and_tiny_negative_inputs_are_clamped(self, eigh_calls, d, matrix):
        stored = DensityOperator(d, d, matrix).matrix
        assert eigh_calls == [matrix.shape]
        assert_allclose(stored, eigh_density(matrix), rtol=0, atol=1e-12)

    def test_eigenvalue_just_below_the_floor_rejected(self):
        u = random_unitary(4, np.random.default_rng(3))
        mat = (u * [0.4, 0.3, 0.3 + 2e-10, -2e-10]) @ u.conj().T
        with pytest.raises(ValidationError, match=r"-2\.000e-10 below"):
            DensityOperator(2, 2, mat)

    @pytest.mark.parametrize("d", range(2, 11))
    def test_full_rank_mixtures_match_the_eigh_reconstruction(self, eigh_calls, d):
        rng = np.random.default_rng(40 + d)
        g = rng.normal(size=(3, d * d, d * d)) + 1j * rng.normal(size=(3, d * d, d * d))
        mixtures = [m / np.trace(m).real for m in g @ g.conj().transpose(0, 2, 1)]
        stored = [DensityOperator(d, d, m).matrix for m in mixtures]
        assert eigh_calls == []
        for mixture, matrix in zip(mixtures, stored):
            assert_allclose(matrix, eigh_density(mixture), rtol=0, atol=1e-12)


class TestJointProbability:
    def test_bell_correlated_outcome(self):
        rho = density_from_ket(bell_state())
        p0 = [1, 0]
        assert outcome_probabilities(rho, [p0], [p0])[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_bell_anticorrelated_outcome(self):
        rho = density_from_ket(bell_state())
        p0 = [1, 0]
        p1 = [0, 1]
        assert outcome_probabilities(rho, [p0], [p1])[0, 0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_rounding_is_clamped_to_the_unit_interval(self, d):
        # a product of basis kets measured in that basis: one cell is 1 and the
        # rest 0, which the raw product misses by rounding on both sides
        u = random_unitary(d, np.random.default_rng(d))
        rho = density_from_ket(StateVector(d, d, np.kron(u[:, 0], u[:, 0])))
        table = outcome_probabilities(rho, u.T, u.T)
        assert table.min() >= 0.0 and table.max() <= 1.0
        assert_allclose(table, einsum_table(rho, u.T, u.T), rtol=0, atol=1e-12)

    def test_maximally_mixed_uniform(self):
        rho = maximally_mixed(3)
        rng = np.random.default_rng(5)
        for _ in range(5):
            u = rng.normal(size=3) + 1j * rng.normal(size=3)
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            pu = u / np.linalg.norm(u)
            pv = v / np.linalg.norm(v)
            assert outcome_probabilities(rho, [pu], [pv])[0, 0] == pytest.approx(1 / 9, abs=1e-12)

    def test_dimension_mismatch(self):
        rho = density_from_ket(bell_state())
        with pytest.raises(ValidationError):
            outcome_probabilities(rho, [[1, 0, 0]], [[1, 0]])

    def test_complete_basis_sums_to_one(self):
        rng = np.random.default_rng(13)
        g = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        raw = g @ g.conj().T
        rho = DensityOperator(3, 3, raw / np.trace(raw).real)
        total = sum(
            outcome_probabilities(rho, [np.eye(3)[a]], [np.eye(3)[b]])[0, 0]
            for a in range(3)
            for b in range(3)
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_large_imaginary_residue_rejected(self):
        # white-box: bypass validation to plant a non-Hermitian matrix
        rho = density_from_ket(bell_state())
        bad = object.__new__(DensityOperator)
        bad.dim_signal = bad.dim_idler = 2
        mat = np.array(rho.matrix)
        mat[0, 3] += 1e-6j
        bad.matrix = mat
        with pytest.raises(ComputationError, match="imaginary"):
            outcome_probabilities(bad, [np.array([1, 1]) / np.sqrt(2)],
                                  [np.array([1, 1]) / np.sqrt(2)])

    @pytest.mark.parametrize("vectors_s, vectors_i", [
        ([1, 0], [[1, 0]]),
        ([[1, 0]], [0, 1]),
        ([[[1, 0]]], [[1, 0]]),
        (np.zeros((0, 2)), [[1, 0]]),
    ])
    def test_kets_must_be_rows(self, vectors_s, vectors_i):
        rho = density_from_ket(bell_state())
        with pytest.raises(ValidationError, match="2-D"):
            outcome_probabilities(rho, vectors_s, vectors_i)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_non_finite_kets_rejected(self, bad):
        rho = density_from_ket(bell_state())
        with pytest.raises(ValidationError, match="finite"):
            outcome_probabilities(rho, [[bad, 0]], [[1, 0]])
        with pytest.raises(ValidationError, match="finite"):
            outcome_probabilities(rho, [[1, 0]], [[0, 1], [bad, 1]])


class TestProductKetOracle:
    @pytest.mark.parametrize("d_s, d_i", [(d, d) for d in range(2, 11)] + [(3, 2)])
    def test_tables_and_marginals_match_planned_einsum(self, d_s, d_i):
        for rho in kernel_states(d_s, d_i, seed=100 + d_s * d_i):
            for basis_s, basis_i in oracle_bases(d_s, d_i, seed=200 + d_s * d_i):
                v_s, v_i = basis_s.vector_matrix, basis_i.vector_matrix
                table = outcome_probabilities(rho, v_s, v_i)
                assert table.shape == (len(v_s), len(v_i))
                assert_allclose(table, einsum_table(rho, v_s, v_i), rtol=0, atol=1e-12)
                marg_s, marg_i = einsum_marginals(rho, v_s, v_i)
                assert_allclose(marginal_probabilities(rho, v_s, "signal"), marg_s,
                                rtol=0, atol=1e-12)
                assert_allclose(marginal_probabilities(rho, v_i, "idler"), marg_i,
                                rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d_s, d_i", [(d, d) for d in range(2, 11)] + [(3, 2)])
    def test_stacked_tables_are_the_per_setting_tables(self, d_s, d_i):
        groups = {}
        for basis_s, basis_i in oracle_bases(d_s, d_i, seed=200 + d_s * d_i):
            groups.setdefault((len(basis_s.labels), len(basis_i.labels)), []).append(
                (basis_s.vector_matrix, basis_i.vector_matrix))
        for rho in kernel_states(d_s, d_i, seed=100 + d_s * d_i):
            for pairs in groups.values():
                stacked = outcome_probabilities(rho, np.array([v_s for v_s, _ in pairs]),
                                                np.array([v_i for _, v_i in pairs]))
                assert np.array_equal(stacked, [outcome_probabilities(rho, v_s, v_i)
                                                for v_s, v_i in pairs])

    def test_ket_stacks_must_match(self):
        rho = density_from_ket(bell_state())
        with pytest.raises(ValidationError, match="stacks of 2 and 1 settings"):
            outcome_probabilities(rho, np.array([np.eye(2), np.eye(2)]), np.array([np.eye(2)]))

    def test_marginal_side_checked(self):
        rho = maximally_mixed(2)
        with pytest.raises(ValidationError, match="side"):
            marginal_probabilities(rho, np.eye(2), "both")
        with pytest.raises(ValidationError):
            marginal_probabilities(DensityOperator(3, 2, np.eye(6) / 6), np.eye(2), "signal")


class TestFidelityToPure:
    def test_self_fidelity(self):
        psi = bell_state()
        assert fidelity_to_pure(density_from_ket(psi), psi) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert fidelity_to_pure(maximally_mixed(2), bell_state()) == pytest.approx(0.25, abs=1e-12)

    def test_werner_mixture(self):
        psi = bell_state()
        mat = 0.8 * density_from_ket(psi).matrix + 0.2 * np.eye(4) / 4
        rho = DensityOperator(2, 2, mat)
        assert fidelity_to_pure(rho, psi) == pytest.approx(0.85, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            fidelity_to_pure(maximally_mixed(3), bell_state())


class TestRestrictToPair:
    def test_uniform_ten_mode_pair(self):
        rho = density_from_ket(uniform_state(10))
        res = restrict_to_pair(rho, 0, 5)
        assert res.weight == pytest.approx(0.2, abs=1e-12)
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 0.5
        assert_allclose(res.operator.matrix, expected, atol=1e-10)

    def test_dark_pair_flagged(self):
        rho = density_from_ket(StateVector(3, 3, [1, 0, 0, 0, 0, 0, 0, 0, 0]))
        res = restrict_to_pair(rho, 1, 2)
        assert res.zero_weight
        assert res.weight == 0.0

    def test_maximally_mixed(self):
        res = restrict_to_pair(maximally_mixed(10), 2, 7)
        assert res.weight == pytest.approx(4 / 100, abs=1e-12)
        assert_allclose(res.operator.matrix, np.eye(4) / 4, atol=1e-12)

    def test_same_mode_rejected(self):
        with pytest.raises(ValidationError):
            restrict_to_pair(maximally_mixed(4), 2, 2)

    def test_weight_equals_joint_probability_sum(self):
        rng = np.random.default_rng(23)
        g = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        raw = g @ g.conj().T
        rho = DensityOperator(4, 4, raw / np.trace(raw).real)
        res = restrict_to_pair(rho, 1, 3)
        basis = np.eye(4)
        total = sum(
            outcome_probabilities(rho, [basis[a]], [basis[b]])[0, 0]
            for a in (1, 3)
            for b in (1, 3)
        )
        assert res.weight == pytest.approx(total, abs=1e-10)


class TestSourceState:
    """The source state's kernels against the dense kernel on its matrix."""

    @settings(max_examples=50, deadline=None)
    @given(d=st.integers(2, 10), spread=st.floats(0.0, 0.5), seed=st.integers(0, 2**32 - 1),
           p=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
           dark=st.integers(0, 2))
    @example(d=10, spread=0.2, seed=1, p=0.0, dark=0)
    @example(d=3, spread=0.0, seed=2, p=1.0, dark=2)
    def test_kernels_match_the_dense_kernel(self, d, spread, seed, p, dark):
        cfg = drawn_source(d, spread, seed, p, min(dark, d - 1))
        rho = noisy_state(cfg)
        psi = ideal_state(cfg).amplitudes
        assert_allclose(rho.matrix, (1 - p) * np.outer(psi, psi.conj()) + p * np.eye(d * d)
                        / (d * d), rtol=0, atol=1e-15)
        ref = dense(rho)
        for settings_ in plan_families(d):
            assert_allclose(setting_cells(rho, settings_)[0], oracle_cells(rho, settings_),
                            rtol=0, atol=1e-12)
            for side, basis in (("signal", "basis_s"), ("idler", "basis_i")):
                kets = np.concatenate([getattr(st_, basis).vector_matrix for st_ in settings_])
                assert_allclose(marginal_probabilities(rho, kets, side),
                                marginal_probabilities(ref, kets, side), rtol=0, atol=1e-12)
        j, k = np.array(_witness_pairs(d)).T
        for space in "XK":
            for got, want in zip(_eof_exact_elements(rho, space, j, k),
                                 kron_eof_elements(rho, space, j, k)):
                assert_allclose(got, want, rtol=0, atol=1e-12)
        target = StateVector(d, d, np.random.default_rng(seed).normal(size=(d * d, 2)) @ [1, 1j])
        assert fidelity_to_pure(rho, target) == pytest.approx(fidelity_to_pure(ref, target),
                                                              abs=1e-12)
        for pair in ((0, 1), (1, 2), (0, d - 1), (d - 1, 0)):   # (1, 2) dark at dark = 2
            if pair[0] == pair[1] or max(pair) >= d:
                continue
            got, want = restrict_to_pair(rho, *pair), restrict_to_pair(ref, *pair)
            assert got.weight == pytest.approx(want.weight, abs=1e-12)
            assert got.zero_weight == want.zero_weight
            if not got.zero_weight:
                assert isinstance(got.operator, SourceState)
                assert_allclose(got.operator.matrix, want.operator.matrix, rtol=0, atol=1e-12)
                assert fidelity_to_pure(got.operator, BELL_PAIR) == pytest.approx(
                    fidelity_to_pure(want.operator, BELL_PAIR), abs=1e-12)

    @pytest.mark.parametrize("coefficients, noise, match", [
        ([0, 0, 0], 0.1, "zero source coefficients"),
        ([], 0.1, "zero source coefficients"),
        ([1, np.nan], 0.1, "finite"),
        ([1, np.inf], 0.1, "finite"),
        ([1, 1], -0.01, "noise fraction"),
        ([1, 1], 1.01, "noise fraction"),
        ([1, 1], np.nan, "noise fraction"),
    ])
    def test_constructor_refuses_bad_coefficients_and_noise(self, coefficients, noise, match):
        with pytest.raises(ValidationError, match=match):
            SourceState(coefficients, noise)

    def test_state_is_normalized_and_dense_readers_accept_it(self):
        rho = SourceState([3, 4j], 0.5)
        assert_allclose(rho.coefficients, [0.6, 0.8j])
        assert isinstance(rho, DensityOperator)
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-15)
        assert not rho.matrix.flags.writeable
        assert rho.reshaped().shape == (2, 2, 2, 2)


def scan_elements(rho, space, j, k):
    """The exact formation-bound elements of a source state by the formula,
    from the scan's kets alone: <jj|rho|kk> = (1 - p)<jj|Psi><Psi|kk>
    + p<jj|kk>/D^2, and the populations its lone table."""
    scan = bases.scan_setting(space, rho.dim_signal)
    kets_s, kets_i = scan.basis_s.vector_matrix, scan.basis_i.vector_matrix
    p, psi = rho.noise_fraction, np.diagonal(rho.amplitudes(kets_s, kets_i))
    overlaps = (kets_s.conj() @ kets_s.T) * (kets_i.conj() @ kets_i.T)
    coherences = (1.0 - p) * np.outer(psi, psi.conj()) + p * overlaps / rho.dim
    populations = outcome_probabilities(rho, kets_s, kets_i)
    return coherences[j, k], populations[j, k], populations[k, j]


class TestSettingsPlan:
    """Exact reads through the cached settings plans against the lone tables."""

    @settings(max_examples=25, deadline=None)
    @given(d=st.integers(2, 10), spread=st.floats(0.0, 0.5), seed=st.integers(0, 2**32 - 2),
           dark=st.integers(0, 2),
           noise=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
    @example(d=10, spread=0.2, seed=1, dark=0, noise=[0.3])
    @example(d=3, spread=0.0, seed=2, dark=2, noise=[0.5])
    def test_reads_are_the_lone_tables_bit_for_bit(self, d, spread, seed, dark, noise):
        # two sources read in turn, so each plan's coefficient store refills
        # at every read; p = 0 and 1 and a repeated p on the grid
        sources = [drawn_source(d, spread, seed + n, 0.0, min(dark, d - 1) if n else 0)
                   for n in (0, 1)]
        j, k = np.array(_witness_pairs(d)).T
        for p in [0.0, 1.0, *noise, noise[0]]:
            for cfg in sources:
                rho = noisy_state(cfg.with_noise(p))
                for settings_ in plan_families(d):
                    want = [outcome_probabilities(rho, st_.basis_s.vector_matrix,
                                                  st_.basis_i.vector_matrix) for st_ in settings_]
                    assert np.array_equal(setting_cells(rho, settings_)[0], want)
                for space in "XK":
                    for got, want in zip(_eof_exact_elements(rho, space, j, k),
                                         scan_elements(rho, space, j, k)):
                        assert np.array_equal(got, want)


class TestNoDenseMatrix:
    def test_exact_estimators_fits_and_plans_never_build_the_matrix(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a source state built its dense matrix")

        monkeypatch.setattr(SourceState, "matrix", property(refuse))
        cfg = drawn_source(10, 0.2, 9, 0.0, 0)
        rho = noisy_state(cfg.with_noise(0.15))
        for space in "XK":
            witness(rho, space=space)
            eof_bound(rho, space=space)
        for d in range(2, 11):
            cglmp(rho, d)
        reconstruct_exact(rho, 0, 5)
        pipeline.fit_noise_to_visibility(0.5, cfg)
        pipeline.fit_noise_to_eof(1.0, cfg)
        pipeline.fit_noise_to_pair_fidelity(0.3, cfg, (0, 5))
        for name in pipeline.PRESET_NAMES:
            run = pipeline.preset(name)
            for sim in (run, replace(run, noise_channel="state")):
                plan_means(pipeline.sampling_state(sim), pipeline.build_settings(sim),
                           sim.trials_per_setting, pipeline.effective_params(sim))


def plans_built(monkeypatch):
    """The settings plans built from here on, stored or not, in build order."""
    built = []
    init = counting.SettingsPlan.__init__

    def recorded(self, settings_):
        init(self, settings_)
        built.append(self)

    monkeypatch.setattr(counting.SettingsPlan, "__init__", recorded)
    return built


def exact_point(rho, tomo_pair):
    """Every exact estimator of the exact scan on one state."""
    for space in "XK":
        witness(rho, space=space)
        eof_bound(rho, space=space)
    for d in range(2, rho.dim_signal + 1):
        cglmp(rho, d)
    reconstruct_exact(rho, *tomo_pair)


class TestCachedPieces:
    def test_source_amplitudes_are_read_at_the_first_noise_fraction_only(self, monkeypatch):
        calls = []
        original = SourceState.amplitudes

        def counted(self, kets_s, kets_i):
            calls.append(kets_s.shape)
            return original(self, kets_s, kets_i)

        monkeypatch.setattr(SourceState, "amplitudes", counted)
        counting._stored_plan.cache_clear()
        built = plans_built(monkeypatch)
        cfg = drawn_source(6, 0.2, 5, 0.0, 0)
        for n, p in enumerate((0.0, 0.3, 0.3, 0.8, 1.0)):
            calls.clear()
            exact_point(noisy_state(cfg.with_noise(p)), (0, 3))
            # one pure table per plan, and one psi per scan for its coherences
            assert len(calls) == (len(built) + 2 if n == 0 else 0)
        # witness, scan, Bell, tomography
        assert len(built) == counting._stored_plan.cache_info().currsize == 2 + 2 + 5 + 1

    def test_stores_hold_no_more_than_their_bounds(self):
        counting._stored_plan.cache_clear()
        sequences = [bases.witness_settings(space, j, k, 10)
                     for space in "XK" for j, k in _witness_pairs(10)]
        assert len(sequences) > counting._PLANS
        for seed in (1, 2, 3):
            rho = noisy_state(drawn_source(10, 0.2, seed, 0.1, 0))
            for sequence in sequences:
                setting_cells(rho, sequence)
        assert counting._stored_plan.cache_info().currsize == counting._PLANS
        # the most recently read are kept, found again from a rebuilt list,
        # each holding one coefficient vector: the last source's
        misses = counting._stored_plan.cache_info().misses
        last = (rho.coefficients.dtype.str, rho.coefficients.tobytes())
        for sequence in sequences[-counting._PLANS:]:
            assert counting.settings_plan(list(sequence))._source[0] == last
        assert counting._stored_plan.cache_info().misses == misses
        counting.settings_plan(sequences[-counting._PLANS - 1])
        assert counting._stored_plan.cache_info().misses == misses + 1

    def test_one_setting_reads_leave_the_exact_plans_stored(self, monkeypatch):
        # the exact plans of D = 4 and D = 10 points, then one-setting count
        # means over calibrated-witness settings, each with a fresh wrapper
        cfg = pipeline.preset("calibrated-witness")
        rho, params = pipeline.sampling_state(cfg), pipeline.effective_params(cfg)

        def one_setting_reads():
            for st_ in pipeline.build_settings(cfg)[:64]:
                counting.setting_means(rho, st_.basis_s, st_.basis_i, 10**6, params)
                counting.simulate_setting(rho, st_.basis_s, st_.basis_i, 10**6, params, 1)

        def cycle():
            for d, p in ((4, 0.1), (10, 0.2)):
                exact_point(noisy_state(drawn_source(d, 0.2, d, p, 0)), (0, d // 2))

        cycle()
        one_setting_reads()
        built = plans_built(monkeypatch)
        cycle()
        assert built == []   # re-reading the cycle builds no plan
        info = counting._stored_plan.cache_info()
        one_setting_reads()
        assert counting._stored_plan.cache_info() == info   # nor do they read the store
        assert len(built) == 2 * 64
