"""Spectrum estimators and probabilistic diagnostics.

The diag(2, 1/2) cocycle over this surface has true spectrum {0} with
multiplicity 2 (Brownian homology winding is diffusive and drift-free), so
finite-horizon norm-based estimates sit at E|k| log2 / t > 0 and shrink
like 1/sqrt(t) while signed single-vector rates straddle 0.  The tests
below assert the computed behavior, cross-checked between the independent
routes; see the acceptance suite for the full cross-validation.
"""

import math

import numpy as np
import pytest

from hyplyap import lyapunov
from hyplyap.cocycle import (
    Representation,
    _MatrixAccumulator,
    diagonal_representation,
    fuchsian_representation,
)
from hyplyap.diffusion import DiffusionError, RngStream, _mean_se
from hyplyap.lyapunov import (
    LyapunovError,
    SpectrumReport,
    benettin_spectrum,
    brownian_norm_rate,
    check_exp_conversion,
    diffusion_spectrum,
    direction_distribution_check,
    expansion_interval,
    expectation_functions,
    geodesic_norm_rates,
    geodesic_spectrum,
    shadowing_report,
    _RESCALE_STEPS,
    _brownian_matrices,
    _chi2_sf,
    _geodesic_matrices,
    _gram_schmidt_rows,
    _orthonormal_rows,
    _sphere_sample,
)
from hyplyap.surface import build_genus2


@pytest.fixture(scope="module")
def group():
    return build_genus2()


@pytest.fixture(scope="module")
def rep22():
    return diagonal_representation([2.0, 0.5])


@pytest.fixture(scope="module")
def spectrum30(group, rep22):
    return benettin_spectrum(rep22, group, 30.0, 0.05, 10, 300, RngStream(50))


def combined_pass(a, sa, b, sb, rel=0.05):
    diff = abs(a - b)
    tol = max(3.0 * math.hypot(sa, sb), rel * max(abs(a), abs(b)))
    return diff <= tol, diff, tol


# ---------------------------------------------------------------- benettin


def test_benettin_trivial_rep(group):
    rep = Representation.from_matrices(3, "real")
    sp = benettin_spectrum(rep, group, 5.0, 0.05, 10, 60, RngStream(1))
    assert sp.exponents == (0.0,)
    assert sp.multiplicities == (3,)
    assert sp.exponent_sum == 0.0


def test_benettin_diag22(group, spectrum30):
    sp = spectrum30
    assert len(sp.exponents) == 2
    assert sp.exponents[0] > 0.0 > sp.exponents[1]
    # unit determinant: per-path sorted pairs are (x, -x), so the symmetry
    # and the zero sum are exact
    assert sp.exponents[0] == pytest.approx(-sp.exponents[1], abs=1e-12)
    assert abs(sp.exponent_sum) <= max(sp.exponent_sum_ci, 1e-10)


def test_benettin_diag313(group):
    rep = diagonal_representation([3.0, 1.0, 1.0 / 3.0])
    sp = benettin_spectrum(rep, group, 30.0, 0.05, 10, 300, RngStream(51))
    assert len(sp.raw_exponents) == 3
    raw = sp.raw_exponents
    assert abs(raw[1]) <= sp.raw_ci[1] + 1e-12          # middle exponent ~ 0
    assert raw[0] == pytest.approx(-raw[2], abs=1e-12)  # det-1 symmetry
    assert raw[0] > 0.0


def test_benettin_single_vector_oracle(group):
    # independent long-horizon single-vector oracle per coordinate axis:
    # the top raw exponent must match the norm growth route within error
    rep = diagonal_representation([3.0, 1.0, 1.0 / 3.0])
    sp = benettin_spectrum(rep, group, 30.0, 0.05, 10, 300, RngStream(52))
    nr, nr_se = brownian_norm_rate(rep, group, 30.0, 600, 0.05, RngStream(53))
    ok, diff, tol = combined_pass(sp.raw_exponents[0], sp.raw_ci[0] / 1.96, nr, nr_se)
    assert ok, f"benettin top {sp.raw_exponents[0]:.5f} vs norm rate {nr:.5f} (tol {tol:.5f})"


def test_benettin_complex_field_matches_real_moduli(group, rep22):
    # unimodular phases drop out of |diag R|: the complex spectrum equals
    # the real one for the same stream, path by path
    from hyplyap.cocycle import Representation

    phase = np.exp(1j * np.pi / 3.0)
    g1 = np.diag([2.0 * phase, 0.5 / phase])
    eye = np.eye(2, dtype=complex)
    rep_c = Representation.from_matrices(2, "complex", [g1, eye, eye, eye], group)
    sp_r = benettin_spectrum(rep22, group, 10.0, 0.05, 10, 80, RngStream(92))
    sp_c = benettin_spectrum(rep_c, group, 10.0, 0.05, 10, 80, RngStream(92))
    assert np.allclose(sp_r.raw_exponents, sp_c.raw_exponents, atol=1e-10)


# ------------------------------------------------------------ QR kernel


def _haar(gen, n, d, complex_field):
    z = gen.standard_normal((n, d, d))
    if complex_field:
        z = z + 1j * gen.standard_normal((n, d, d))
    return np.linalg.qr(z)[0]


def _lapack_rows(m):
    """Q^T and |diag R| of m[p]^T = Q R by np.linalg.qr, with the diagonal
    of R made positive (for complex m, LAPACK's diagonal is real)."""
    q, r = np.linalg.qr(np.swapaxes(m, 1, 2))
    diag = np.diagonal(r, axis1=1, axis2=2)
    return np.swapaxes(q * (diag / np.abs(diag))[:, None, :], 1, 2), np.abs(diag)


def _orthonormality_error(q):
    eye = np.eye(q.shape[1])
    return np.max(np.abs(q @ np.conj(np.swapaxes(q, 1, 2)) - eye))


@pytest.mark.parametrize("complex_field", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_orthonormal_rows_match_lapack_qr(d, complex_field):
    gen = np.random.default_rng(100 + d)
    m = gen.standard_normal((300, d, d))
    if complex_field:
        m = m + 1j * gen.standard_normal((300, d, d))
    # graded rows of lengths 1 .. 1e-10: condition number 1e10, and every
    # |diag R| is still determined to rounding
    graded = np.geomspace(1.0, 1e-10, d)[:, None] * _haar(gen, 300, d, complex_field)
    for stack in (m, graded):
        q, norms = _orthonormal_rows(stack)
        q_ref, norms_ref = _lapack_rows(stack)
        assert q.dtype == stack.dtype and norms.shape == (300, d)
        assert _orthonormality_error(q) <= 1e-13
        assert np.max(np.abs(norms - norms_ref) / norms_ref) <= 1e-12
        assert np.max(np.abs(q - q_ref)) <= 1e-12
    assert np.max(np.linalg.cond(graded)) == pytest.approx(1e10 if d > 1 else 1.0, rel=1e-3)


@pytest.mark.parametrize("complex_field", [False, True])
def test_orthonormal_rows_nearly_parallel_rows(complex_field):
    # condition number 1e10 from nearly parallel rows: the last |diag R| is
    # 1e-10 of its row, and any two backward-stable QRs may differ there by
    # eps * cond relatively, so it is checked against the row length, with
    # q orthonormal and m = L q for a lower-triangular L with diagonal norms
    gen = np.random.default_rng(110)
    d = 4
    s = np.geomspace(1.0, 1e-10, d)
    m = _haar(gen, 300, d, complex_field) @ (s[:, None] * _haar(gen, 300, d, complex_field))
    assert np.max(np.linalg.cond(m)) == pytest.approx(1e10, rel=1e-3)
    q, norms = _orthonormal_rows(m)
    _, norms_ref = _lapack_rows(m)
    assert _orthonormality_error(q) <= 1e-13
    row_len = np.linalg.norm(m, axis=2)
    assert np.max(np.abs(norms - norms_ref) / row_len) <= 1e-12
    lower = m @ np.conj(np.swapaxes(q, 1, 2))
    assert np.max(np.abs(np.triu(lower, 1))) <= 1e-13
    assert np.max(np.abs(np.diagonal(lower, axis1=1, axis2=2) - norms)) <= 1e-13


@pytest.mark.parametrize("row", [(0.0, 0.0), (1e-300, 0.0)])
def test_orthonormal_rows_refuse_degenerate_frame(row):
    # a second row of length below 1e-280 after projection is refused
    # before it is divided by
    m = np.array([[[1.0, 2.0], row], [[1.0, 0.0], [0.0, 1.0]]])
    with pytest.raises(LyapunovError, match="frame degeneracy"):
        _orthonormal_rows(m)


def _real_2x2_stacks():
    """Real (n, 2, 2) stacks for the written-out kernel: random at n = 1,
    400 and 5000, test_orthonormal_rows_nearly_parallel_rows' construction
    at d = 2 (condition number 1e10), and rows scaled by 1e150 and 1e-150."""
    gen = np.random.default_rng(120)
    stacks = {f"random-{n}": gen.standard_normal((n, 2, 2)) for n in (1, 400, 5000)}
    s = np.geomspace(1.0, 1e-10, 2)
    stacks["nearly-parallel"] = _haar(gen, 300, 2, False) @ (s[:, None] * _haar(gen, 300, 2, False))
    base = gen.standard_normal((400, 2, 2))
    stacks["rows-1e150"] = base * 1e150
    stacks["rows-1e-150"] = base * 1e-150
    return stacks


@pytest.mark.parametrize("name", sorted(_real_2x2_stacks()))
def test_real_2x2_kernel_matches_the_loop_bit_for_bit(name):
    m = _real_2x2_stacks()[name]
    q, norms = _orthonormal_rows(m)
    q_loop, norms_loop = _gram_schmidt_rows(m)
    assert q.flags.c_contiguous and norms.shape == (m.shape[0], 2)
    assert np.array_equal(q, q_loop) and np.array_equal(norms, norms_loop)


@pytest.mark.parametrize("row", [0, 1])
def test_real_2x2_kernel_refuses_a_zero_row_as_the_loop_does(row):
    m = np.random.default_rng(121).standard_normal((400, 2, 2))
    m[123, row] = 0.0
    for kernel in (_orthonormal_rows, _gram_schmidt_rows):
        with pytest.raises(LyapunovError, match="^frame degeneracy: QR diagonal underflow "
                                                "during deflation$"):
            kernel(m)


# Benettin at t = 60 over 400 paths of RngStream(0), as computed with
# np.linalg.qr and a sign fix-up in place of the Gram-Schmidt kernel, on the
# exact-jump walk (one QR per gap of lyapunov._JUMP_GAP = 1): the diagonal
# representations keep every bit (their frames stay diagonal, so both
# kernels are exact); the others agree to rounding.
_QR_PINS = {
    "diag22": dict(
        raw=(0.03350211372706402, -0.03350211372706402),
        ci=(0.0024601086484117773, 0.0024601086484117773),
        total=(0.0, 0.0),
    ),
    "diag313": dict(
        raw=(0.05309959395229197, 0.0, -0.05309959395229197),
        ci=(0.0038991799554324805, 0.0, 0.0038991799554324805),
        total=(0.0, 0.0),
    ),
    "pair": dict(
        raw=(0.1457673548167047, -0.14576735481670472),
        basis=[[0.19246769040223466, 0.9813033109855636],
               [-0.9813033109855636, 0.19246769040223455]],
    ),
    "fuchsian": dict(
        raw=(0.5091191511757587, -0.5091191511757589),
        basis=[[0.585632264948225 + 0.3962762297332658j,
                0.7068451253939512 + 0.019234570616718284j],
               [-0.706845125393951 + 0.019234570616720566j,
                0.5856322649482237 - 0.39627622973326776j]],
    ),
}


@pytest.mark.parametrize("name", sorted(_QR_PINS))
def test_benettin_pinned_to_lapack_qr(group, fuchsian, name):
    a = np.array([[2.0, 1.0], [1.0, 1.0]])
    b = np.array([[1.0, 0.0], [1.5, 1.0]])
    rep = {
        "diag22": lambda: diagonal_representation([2.0, 0.5]),
        "diag313": lambda: diagonal_representation([3.0, 1.0, 1.0 / 3.0]),
        "pair": lambda: Representation.from_matrices(2, "real", [a, b, b, a], group),
        "fuchsian": lambda: fuchsian,
    }[name]()
    sp = benettin_spectrum(rep, group, 60.0, 0.05, 10, 400, RngStream(0))
    pin = _QR_PINS[name]
    if "ci" in pin:
        assert sp.raw_exponents == pin["raw"] and sp.raw_ci == pin["ci"]
        assert (sp.exponent_sum, sp.exponent_sum_ci) == pin["total"]
        assert np.array_equal(sp.oseledec_basis, np.eye(rep.dim))
    else:
        assert np.max(np.abs(np.subtract(sp.raw_exponents, pin["raw"]))) <= 1e-14
        assert np.max(np.abs(sp.oseledec_basis - np.array(pin["basis"]))) <= 1e-13


# The geodesic route (256 rays to R = 60) and the diffusion route (n = 30,
# 30 gaps of _JUMP_GAP, over 200 paths of RngStream(7)), pinned like
# _QR_PINS (the geodesic pins predate the Brownian gap of 1, which no ray
# step reads): every ray step and
# every Brownian gap runs the reduction kernel, so a kernel change that
# moves one walker's bit moves these.  The diagonal representation keeps
# every bit; the non-commuting pair agrees to rounding.
_ROUTE_PINS = {
    ("geodesic", "diag22"): dict(
        raw=(0.030641076536471537, -0.030641076536471537),
        ci=(0.0029232526420965785, 0.0029232526420965785),
        total=(0.0, 0.0),
    ),
    ("diffusion", "diag22"): dict(
        raw=(0.04574771391695638, -0.04574771391695638),
        ci=(0.005024366672000076, 0.005024366672000076),
        total=(0.0, 0.0),
    ),
    ("geodesic", "pair"): dict(
        raw=(0.13624786324726967, -0.13624786324726967),
        basis=[[-0.1037551722534657, 0.994602867596235],
               [-0.994602867596235, -0.1037551722534657]],
    ),
    ("diffusion", "pair"): dict(
        raw=(0.153751730860257, -0.153751730860257),
        basis=[[0.6517723811962726, 0.7584146379848828],
               [-0.7584146379848828, 0.6517723811962725]],
    ),
}


@pytest.mark.parametrize("route, name", sorted(_ROUTE_PINS), ids="-".join)
def test_geodesic_and_diffusion_spectra_pinned(group, route, name):
    a = np.array([[2.0, 1.0], [1.0, 1.0]])
    b = np.array([[1.0, 0.0], [1.5, 1.0]])
    rep = {
        "diag22": lambda: diagonal_representation([2.0, 0.5]),
        "pair": lambda: Representation.from_matrices(2, "real", [a, b, b, a], group),
    }[name]()
    if route == "geodesic":
        sp = geodesic_spectrum(rep, group, 60.0, 256)
    else:
        sp = diffusion_spectrum(rep, group, 30, 200, 0.05, RngStream(7))
    pin = _ROUTE_PINS[route, name]
    if "ci" in pin:
        assert sp.raw_exponents == pin["raw"] and sp.raw_ci == pin["ci"]
        assert (sp.exponent_sum, sp.exponent_sum_ci) == pin["total"]
        assert np.array_equal(sp.oseledec_basis, np.eye(rep.dim))
    else:
        assert np.max(np.abs(np.subtract(sp.raw_exponents, pin["raw"]))) <= 1e-14
        assert np.max(np.abs(sp.oseledec_basis - np.array(pin["basis"]))) <= 1e-13


def test_benettin_sum_tracks_determinant_for_nonunit_det(group):
    # per-path exponent sums telescope to log|det A(omega, t)| / t exactly;
    # the winding has zero drift, so the sum stays within its own ci of 0
    # even when |det rho(g1)| != 1
    rep = diagonal_representation([2.0, 1.0])
    sp = benettin_spectrum(rep, group, 20.0, 0.05, 10, 300, RngStream(91))
    assert sp.exponent_sum_ci > 0.0
    assert abs(sp.exponent_sum) <= sp.exponent_sum_ci + 1e-12


def test_benettin_reproducible_per_stream(group, rep22):
    a = benettin_spectrum(rep22, group, 5.0, 0.05, 10, 40, RngStream(54))
    b = benettin_spectrum(rep22, group, 5.0, 0.05, 10, 40, RngStream(54))
    assert a.raw_exponents == b.raw_exponents
    c = benettin_spectrum(rep22, group, 5.0, 0.05, 10, 40, RngStream(55))
    assert a.raw_exponents != c.raw_exponents  # another ensemble, same law


def test_benettin_horizon_stability(group, rep22):
    # doubling jumps shrink for a fixed seed ensemble: |est(2T) - est(T)|
    # decreases from T = 20 to T = 40
    ests = {
        T: benettin_spectrum(rep22, group, T, 0.05, 10, 200, RngStream(90)).exponents[0]
        for T in (20.0, 40.0, 80.0)
    }
    assert abs(ests[80.0] - ests[40.0]) < abs(ests[40.0] - ests[20.0])


def test_benettin_preconditions(group, rep22):
    with pytest.raises(LyapunovError):
        benettin_spectrum(rep22, group, 5.0, 0.05, 21, 40, RngStream(1))
    with pytest.raises(LyapunovError):
        benettin_spectrum(rep22, group, 5.0, 0.05, 10, 40, np.random.default_rng(1))


def test_benettin_refuses_more_than_max_jump_count_gaps(group, rep22, monkeypatch):
    # a walk stops at horizon 5000, 5000 / _JUMP_GAP gaps: t = 5000.5 is
    # refused before the first jump block is drawn
    def refuse(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(lyapunov, "_heat_jump_blocks", refuse)
    gap = lyapunov._JUMP_GAP
    with pytest.raises(LyapunovError, match=f"at most {5000 / gap:,.0f} jumps of {gap:g}: "):
        benettin_spectrum(rep22, group, 5000.5, 0.05, 1, 4, RngStream(1))


@pytest.mark.parametrize("step", [0.0, 0.5])
@pytest.mark.parametrize(
    "estimator",
    [
        lambda rep, g, step: benettin_spectrum(rep, g, 5.0, step, 2, 40, RngStream(1)),
        lambda rep, g, step: brownian_norm_rate(rep, g, 5.0, 40, step, RngStream(1)),
        lambda rep, g, step: diffusion_spectrum(rep, g, 5, 40, step, RngStream(1)),
    ],
    ids=["benettin_spectrum", "brownian_norm_rate", "diffusion_spectrum"],
)
def test_brownian_estimators_check_step(group, rep22, estimator, step):
    # the walker refuses a step outside (0, MAX_STEP] before its first draw
    with pytest.raises(DiffusionError, match="step must lie in"):
        estimator(rep22, group, step)


def test_spectrum_report_validation():
    with pytest.raises(LyapunovError):
        SpectrumReport(
            exponents=(0.1, 0.2),
            multiplicities=(1, 1),
            ci_halfwidths=(0.0, 0.0),
            oseledec_basis=np.eye(2),
            method="brownian",
            raw_exponents=(0.1, 0.2),
            raw_ci=(0.0, 0.0),
            exponent_sum=0.3,
            exponent_sum_ci=0.0,
        )


# ------------------------------------------------ nonzero-spectrum oracle
#
# The uniformizing representation has spectrum exactly +-1/2, since
# log |rho(gamma)| = d(0, gamma 0) / 2 and the radial drift is 1.  A path
# ending at z in tile gamma F has |d(0, gamma 0) - d(0, z)| <= circumradius
# (2.45), so a rate at horizon t carries a bias of at most 1.23 / t from
# the tile; every tolerance below is 3 se plus that allowance.


@pytest.fixture(scope="module")
def fuchsian(group):
    return fuchsian_representation(group)


def _allowance(group, t):
    return 0.5 * group.circumradius / t  # 1.23 / t


def test_fuchsian_benettin_spectrum(group, fuchsian):
    t = 60.0
    sp = benettin_spectrum(fuchsian, group, t, 0.05, 10, 400, RngStream(75))
    assert sp.multiplicities == (1, 1)
    for chi, ci, want in zip(sp.exponents, sp.ci_halfwidths, (0.5, -0.5)):
        tol = 3.0 * ci / 1.96 + _allowance(group, t)
        assert abs(chi - want) <= tol, f"{chi:.5f} vs {want} (tol {tol:.5f})"


def test_fuchsian_norm_rate(group, fuchsian):
    t = 60.0
    rate, se = brownian_norm_rate(fuchsian, group, t, 400, 0.05, RngStream(76))
    tol = 3.0 * se + _allowance(group, t)
    assert abs(rate - 0.5) <= tol, f"{rate:.5f} vs 0.5 (tol {tol:.5f})"


def test_fuchsian_geodesic_rates(group, fuchsian):
    # the tile bound holds ray by ray, pseudo-orbit or not: the float ray
    # still ends at distance R from 0
    R = 60.0
    _, rates = geodesic_norm_rates(fuchsian, group, R, 256)
    assert np.max(np.abs(rates - 0.5)) <= _allowance(group, R)
    se = float(np.std(rates, ddof=1) / math.sqrt(rates.size))
    assert abs(float(np.mean(rates)) - 0.5) <= 3.0 * se + _allowance(group, R)


def _sym2(g):
    """Sym^2 of a 2 x 2 matrix g, its action on the quadratic forms in the
    basis x^2, xy, y^2: the column of e_i e_j is (g e_i)(g e_j)."""
    (a, b), (c, d) = g
    return np.array([[a * a, a * b, b * b],
                     [2 * a * c, a * d + b * c, 2 * b * d],
                     [c * c, c * d, d * d]])


@pytest.fixture(scope="module")
def sym2(group, fuchsian):
    """Sym^2 of the uniformizing representation: spectrum exactly (1, 0, -1)."""
    rep = Representation.from_matrices(3, "complex", [_sym2(g) for g in fuchsian.images], group)
    assert rep.relator_residual <= 1e-10
    return rep


def _conjugated_sum(group, *block_images):
    """The direct sum of representations given by their generator images,
    conjugated by a fixed random unitary, so that no basis vector spans an
    invariant subspace: the spectrum is the union of the summands'."""
    d = sum(images[0].shape[0] for images in block_images)
    q, r = np.linalg.qr(np.random.default_rng(0).standard_normal((d, d, 2)) @ [1.0, 1.0j])
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    matrices = []
    for k in range(4):
        m = np.zeros((d, d), dtype=complex)
        lo = 0
        for images in block_images:
            hi = lo + images[k].shape[0]
            m[lo:hi, lo:hi] = images[k]
            lo = hi
        matrices.append(u @ m @ u.conj().T)
    rep = Representation.from_matrices(d, "complex", matrices, group)
    assert rep.relator_residual <= 1e-10
    return rep


@pytest.fixture(scope="module")
def fuchsian_fuchsian(group, fuchsian):
    """fuchsian + fuchsian: spectrum exactly (1/2, 1/2, -1/2, -1/2)."""
    return _conjugated_sum(group, fuchsian.images, fuchsian.images)


@pytest.fixture(scope="module")
def fuchsian_sym2(group, fuchsian, sym2):
    """fuchsian + Sym^2: spectrum exactly (1, 1/2, 0, -1/2, -1)."""
    return _conjugated_sum(group, fuchsian.images, sym2.images)


# Each route's raw exponents against the exact spectrum, at the CLI's seed
# and streams, within raw_ci + c / horizon.  c is the octagon's
# circumradius, 2.45: a path ending at z in tile gamma F has cocycle
# rho(gamma), with |d(0, gamma 0) - d(0, z)| <= circumradius, so the tile
# moves the log singular values of Sym^k(rho(gamma)) / horizon by at most
# k/2 circumradius / horizon (k <= 2 here).  The xy basis vector of Sym^2
# has length 1, not the 1/sqrt(2) of an isometric basis, and that alone
# moves the middle exponent by log(sqrt 2) / horizon on every path.  The
# conjugated direct sums carry their summands' bounds: a unitary change of
# basis moves no singular value.
_ORACLE_ROUTES = {
    "brownian": lambda rep, g: benettin_spectrum(rep, g, 60.0, 0.05, 1, 400, RngStream(0, 0)),
    "diffusion": lambda rep, g: diffusion_spectrum(rep, g, 60, 400, 0.05, RngStream(0, 2)),
    "geodesic": lambda rep, g: geodesic_spectrum(rep, g, 60.0, 256),
}


@pytest.mark.parametrize("route", sorted(_ORACLE_ROUTES))
@pytest.mark.parametrize("rep_name, truth", [
    ("fuchsian", (0.5, -0.5)),
    ("sym2", (1.0, 0.0, -1.0)),
    ("fuchsian_fuchsian", (0.5, 0.5, -0.5, -0.5)),
    ("fuchsian_sym2", (1.0, 0.5, 0.0, -0.5, -1.0)),
], ids=["fuchsian", "sym2", "fuchsian_fuchsian", "fuchsian_sym2"])
def test_spectrum_routes_meet_exact_spectrum(group, request, rep_name, truth, route):
    sp = _ORACLE_ROUTES[route](request.getfixturevalue(rep_name), group)
    c = group.circumradius
    horizon = 60.0
    for i, (chi, ci, want) in enumerate(zip(sp.raw_exponents, sp.raw_ci, truth)):
        tol = ci + c / horizon
        assert abs(chi - want) <= tol, f"chi_{i + 1} {chi:.5f} vs {want} (tol {tol:.5f})"
    assert abs(sp.exponent_sum) <= 1e-10


@pytest.mark.parametrize("n", [2.6, 60.5, 0.0, float("nan"), float("inf")])
def test_diffusion_spectrum_refuses_a_horizon_it_would_not_walk(group, rep22, monkeypatch, n):
    # a non-integer n is refused, not truncated, before the walk starts
    def refuse(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(lyapunov, "_heat_jump_blocks", refuse)
    with pytest.raises(LyapunovError, match="needs an integer horizon n >= 1"):
        diffusion_spectrum(rep22, group, n, 40, 0.05, RngStream(1))


def test_diffusion_spectrum_is_benettin_at_integer_horizon(group, fuchsian):
    a = diffusion_spectrum(fuchsian, group, 20, 100, 0.05, RngStream(3, 2))
    b = benettin_spectrum(fuchsian, group, 20.0, 0.05, 1, 100, RngStream(3, 2))
    assert (a.method, b.method) == ("diffusion", "brownian")
    assert a.raw_exponents == b.raw_exponents and a.raw_ci == b.raw_ci
    assert np.array_equal(a.oseledec_basis, b.oseledec_basis)


# ---------------------------------------------------------- brownian rates


def test_brownian_rates_trivial(group):
    rep = Representation.from_matrices(2, "real")
    acc = _brownian_matrices(rep, group, 2.0, 200, 0.05, RngStream(55))
    mean, se = _mean_se(acc.log_vector_growth([1.0, 0.0]) / 2.0)
    assert mean == 0.0 and se == 0.0
    mean, se = brownian_norm_rate(rep, group, 2.0, 200, 0.05, RngStream(55))
    assert mean == 0.0 and se == 0.0


def test_norm_rate_spills_into_log_scale(group, monkeypatch):
    # with every image diag(a, 1/a) a product is diag(a^k, a^-k), so on one
    # stream the norm rate scales by log a exactly; at a = 1e5 some walkers
    # pass the accumulator's 1e100 threshold (21 net letters) by t = 120 and
    # their products spill into the log scale
    rescaled = []
    rescale = _MatrixAccumulator.rescale

    def spy(acc):
        rescaled.append(int(np.sum(np.max(np.abs(acc.m), axis=(1, 2)) > 1e100)))
        rescale(acc)

    monkeypatch.setattr(_MatrixAccumulator, "rescale", spy)
    rates = {}
    for a in (2.0, 1e5):
        rep = Representation.from_matrices(2, "real", [np.diag([a, 1.0 / a])] * 4)
        rates[a], _ = brownian_norm_rate(rep, group, 120.0, 200, 0.05, RngStream(57))
    assert sum(rescaled) >= 1
    want = rates[2.0] * math.log(1e5) / math.log(2.0)
    assert abs(rates[1e5] - want) <= 1e-12 * want


def test_brownian_rate_requires_horizon(group, rep22):
    with pytest.raises(LyapunovError, match="needs t >= 1"):
        brownian_norm_rate(rep22, group, 0.5, 200, 0.05, RngStream(1))


def test_brownian_axis_vector_is_signed_winding(group, rep22):
    # the winding has zero drift (hyperelliptic symmetry), so the signed
    # axis rate straddles 0 while the mixed vector rides the norm growth
    t = 40.0
    acc = _brownian_matrices(rep22, group, t, 1200, 0.05, RngStream(56))
    mean, se = _mean_se(acc.log_vector_growth([1.0, 0.0]) / t)
    assert abs(mean) <= 4.0 * se + 0.005
    # samplewise sandwich on shared paths: |A v| <= |A| and, for the mixed
    # vector under diag(2, 1/2), |A v|^2 / |v|^2 >= |A|^2 / 2
    mixed, _ = _mean_se(acc.log_vector_growth([1.0, 1.0]) / t)
    norm, _ = brownian_norm_rate(rep22, group, t, 1200, 0.05, RngStream(56))
    assert mixed <= norm + 1e-12
    assert mixed >= norm - 0.5 * math.log(2.0) / t - 1e-12


def test_norm_rate_dominates_vector_rate(group, rep22):
    # shared stream: same paths, so domination holds samplewise
    acc = _brownian_matrices(rep22, group, 10.0, 300, 0.05, RngStream(57))
    v, _ = _mean_se(acc.log_vector_growth([0.6, 0.8]) / 10.0)
    n, _ = brownian_norm_rate(rep22, group, 10.0, 300, 0.05, RngStream(57))
    assert n >= v - 1e-12


def test_unipotent_subexponential(group):
    u = np.array([[1.0, 1.0], [0.0, 1.0]])
    rep = diagonal_representation([1.0, 1.0])
    rep = rep.__class__.from_matrices(2, "real", [u, np.eye(2), np.eye(2), np.eye(2)], group)
    n20, _ = brownian_norm_rate(rep, group, 20.0, 600, 0.05, RngStream(58))
    n40, _ = brownian_norm_rate(rep, group, 40.0, 600, 0.05, RngStream(59))
    assert 0.0 <= n40 <= 0.08
    assert n40 < n20  # log-growth rate decays toward 0
    sp = benettin_spectrum(rep, group, 40.0, 0.05, 10, 300, RngStream(60))
    assert abs(sp.raw_exponents[0] - n40) <= 0.01


# ---------------------------------------------------------- geodesic rates


def test_geodesic_rates_trivial(group):
    acc = _geodesic_matrices(Representation.from_matrices(2, "real"), group, [0.3], 10.0, 0.5)
    assert acc.log_vector_growth([1.0, 0.0])[0] == 0.0
    assert acc.log_operator_norm()[0] == 0.0


def test_geodesic_norm_dominates_vector(group, rep22):
    R = 20.0
    acc = _geodesic_matrices(rep22, group, [0.1, 0.37, 0.8], R, 0.5)
    for v in ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0]):
        assert np.all(acc.log_operator_norm() / R >= acc.log_vector_growth(v) / R - 1e-12)


def test_geodesic_split_additivity(group, rep22):
    # A(2R) = A(tail) A(R): the log growth over [0, 2R] differs from the
    # one over [0, R] by at most the tail's norm either way
    theta, R = 0.123, 15.0
    v = np.array([1.0, 0.0])
    m_R = _geodesic_matrices(rep22, group, [theta], R, 0.05)
    m_2R = _geodesic_matrices(rep22, group, [theta], 2 * R, 0.05)
    tail = m_2R.m[0] @ np.linalg.inv(m_R.m[0])
    lo = -math.log(np.linalg.norm(np.linalg.inv(tail), 2))
    hi = math.log(np.linalg.norm(tail, 2))
    delta = (_geodesic_matrices(rep22, group, [theta], 2 * R, 0.5).log_vector_growth(v)[0]
             - _geodesic_matrices(rep22, group, [theta], R, 0.5).log_vector_growth(v)[0])
    assert lo - 1e-9 <= delta <= hi + 1e-9


def test_geodesic_average_matches_brownian_norm_rate(group, rep22):
    thetas, rates = geodesic_norm_rates(rep22, group, 40.0, 128)
    gm = float(np.mean(rates))
    gse = float(np.std(rates, ddof=1) / math.sqrt(len(rates)))
    bn, bn_se = brownian_norm_rate(rep22, group, 40.0, 1200, 0.05, RngStream(61))
    ok, diff, tol = combined_pass(gm, gse, bn, bn_se)
    assert ok, f"geodesic {gm:.5f} vs brownian {bn:.5f} (diff {diff:.5f}, tol {tol:.5f})"


@pytest.mark.parametrize("spacing", [0.05, 0.0476, 0.3, 0.5])
def test_rays_never_reach_guard_radius(group, rep22, monkeypatch, spacing):
    # the tracker reduces after every step, ceil(R / spacing) times; a ray
    # starts each step in the octagon, so it ends the step past the
    # circumradius by at most the spacing, well inside hyperbolic radius 6,
    # where a raw-chart point carries ~200 eps of position error
    reduce = lyapunov._reduce_ensemble
    largest = []

    def spy(data, w, *args, **kwargs):
        largest.append(float(np.max(np.abs(w))))
        reduce(data, w, *args, **kwargs)

    monkeypatch.setattr(lyapunov, "_reduce_ensemble", spy)
    _geodesic_matrices(rep22, group, (np.arange(256) + 0.5) / 256, 20.0, spacing)
    assert len(largest) == math.ceil(20.0 / spacing)
    assert max(largest) < math.tanh(0.5 * (group.circumradius + spacing)) < math.tanh(3.0)


@pytest.mark.parametrize("rep_name", ["rep22", "fuchsian"])
def test_ray_step_changes_only_rounding(group, request, rep_name):
    # the ray move is exact for any length: at R = 20, before the float ray
    # turns into a pseudo-orbit, steps of 0.05 and 0.5 give the same rates
    rep = request.getfixturevalue(rep_name)
    _, fine = geodesic_norm_rates(rep, group, 20.0, 256, spacing=0.05)
    _, coarse = geodesic_norm_rates(rep, group, 20.0, 256, spacing=0.5)
    assert np.max(np.abs(fine - coarse)) <= 1e-12


@pytest.mark.parametrize("R", [20.0, 20.25])
def test_geodesic_spectrum_reads_whole_rays(group, R):
    # a diagonal cocycle keeps every frame diagonal, so the deflation's
    # log |diag R| are the products' log singular values; R = 20.25 takes
    # 41 ray steps, and the QR at the end reads the one after the last
    # _RAY_REORTH_STEPS cadence
    rep = diagonal_representation([3.0, 1.0, 0.5])
    sp = geodesic_spectrum(rep, group, R, 64)
    acc = _geodesic_matrices(rep, group, (np.arange(64) + 0.5) / 64, R, 0.5)
    s = np.sort(np.log(np.abs(np.diagonal(acc.m, axis1=1, axis2=2))), axis=1)[:, ::-1]
    want = np.mean((s + acc.log_scale[:, None]) / R, axis=0)
    assert np.max(np.abs(np.subtract(sp.raw_exponents, want))) <= 1e-12


_RAY_ESTIMATORS = {
    "geodesic_norm_rates": lambda rep, g, R, sp: geodesic_norm_rates(rep, g, R, 8, spacing=sp),
    "geodesic_spectrum": lambda rep, g, R, sp: geodesic_spectrum(rep, g, R, 8, spacing=sp),
    "expansion_interval": lambda rep, g, R, sp: expansion_interval(
        rep, g, R, np.eye(2), spacing=sp
    ),
}


@pytest.mark.parametrize(
    "R, spacing",
    [(0.0, 0.05), (-5.0, 0.05), (math.nan, 0.05), (math.inf, 0.05), (1e308, 0.05),
     (5000.5, 0.5), (500.5, 0.05), (2.0, -1.0), (2.0, 0.0), (2.0, math.nan), (2.0, 0.6)],
)
@pytest.mark.parametrize("name", sorted(_RAY_ESTIMATORS))
def test_ray_estimators_validate_R_and_spacing(group, rep22, name, R, spacing):
    with pytest.raises(LyapunovError, match="geodesic tracking needs"):
        _RAY_ESTIMATORS[name](rep22, group, R, spacing)


def test_ray_norm_rates_spill_into_log_scale(group, monkeypatch):
    # the ray twin of test_norm_rate_spills_into_log_scale: with every image
    # diag(a, 1/a) each ray's product is diag(a^k, a^-k), so every norm rate
    # scales by log a exactly.  At a = 1e5 a ray of the 8-direction grid
    # passes the 1e100 threshold (21 net letters) by R = 80, and the rays
    # spill every _RESCALE_STEPS of their 160 steps, as Brownian gaps do
    rescaled = []
    rescale = _MatrixAccumulator.rescale

    def spy(acc):
        rescaled.append(int(np.sum(np.max(np.abs(acc.m), axis=(1, 2)) > 1e100)))
        rescale(acc)

    monkeypatch.setattr(_MatrixAccumulator, "rescale", spy)
    rates = {}
    for a in (2.0, 1e5):
        rep = Representation.from_matrices(2, "real", [np.diag([a, 1.0 / a])] * 4)
        _, rates[a] = geodesic_norm_rates(rep, group, 80.0, 8)
    assert sum(rescaled) >= 1
    assert len(rescaled) == 2 * 160 // _RESCALE_STEPS
    want = rates[2.0] * math.log(1e5) / math.log(2.0)
    assert np.max(np.abs(rates[1e5] - want)) <= 1e-12 * np.max(want)


def test_geodesic_norm_rates_needs_a_direction(group, rep22):
    with pytest.raises(LyapunovError, match="n_dirs >= 1"):
        geodesic_norm_rates(rep22, group, 2.0, 0)


# ------------------------------------------------------ expansion interval


def test_interval_dim1_zero_width(group, rep22):
    a, b = expansion_interval(rep22, group, 20.0, np.array([1.0, 0.0]), n_dirs=64)
    assert b - a <= 1e-12


def test_interval_trivial_rep(group):
    a, b = expansion_interval(
        Representation.from_matrices(2, "real"), group, 10.0, np.eye(2), n_dirs=64
    )
    assert a == 0.0 and b == 0.0


def test_interval_full_space_brackets_axes(group, rep22):
    a, b = expansion_interval(rep22, group, 30.0, np.eye(2), n_dirs=128)
    assert a <= b
    # the averaged norm-route rate lies inside, the axis rates near the ends
    thetas, rates = geodesic_norm_rates(rep22, group, 30.0, 128)
    assert b <= float(np.mean(rates)) + 0.02
    assert a >= -0.05


def test_interval_complex_line_zero_width(group, fuchsian):
    # a complex phase does not change |M v|, so the complex line span(e1),
    # a real circle of unit vectors, has one rate
    a, b = expansion_interval(fuchsian, group, 20.0, np.array([1.0, 0.0]))
    assert b - a <= 1e-12


def test_interval_three_space_contains_axis_rates(group):
    rep = diagonal_representation([2.0, 1.0, 0.5])
    a, b = expansion_interval(rep, group, 20.0, np.eye(3))
    for axis in np.eye(3):
        rate, same = expansion_interval(rep, group, 20.0, axis)
        assert rate == same and a - 1e-9 <= rate <= b + 1e-9


def test_interval_preconditions(group, rep22):
    with pytest.raises(LyapunovError):
        expansion_interval(rep22, group, 10.0, np.eye(2), n_dirs=32)


# ------------------------------------------------------------- expectation


def test_expectation_trivial(group):
    m, M = expectation_functions(
        Representation.from_matrices(2, "real"), group, np.eye(2), 5, 200, 0.05, RngStream(62)
    )
    assert m == 0.0 and M == 0.0


def test_expectation_dim1_exact_equality(group, rep22):
    m, M = expectation_functions(
        rep22, group, np.array([1.0, 0.0]), 10, 400, 0.05, RngStream(63)
    )
    assert m == M


def test_expectation_order_and_bounds(group, rep22):
    m, M = expectation_functions(rep22, group, np.eye(2), 20, 600, 0.05, RngStream(64))
    assert m <= M
    nr, nr_se = brownian_norm_rate(rep22, group, 20.0, 600, 0.05, RngStream(64))
    assert M <= nr + 3.0 * nr_se + 0.01


def test_expectation_interval_contains_invariant_line_rates(group, rep22):
    # the K^2 interval at n = 20 must cover the single-vector Brownian rate
    # of each invariant axis, up to Monte Carlo tolerance
    m, M = expectation_functions(rep22, group, np.eye(2), 20, 800, 0.05, RngStream(73))
    acc = _brownian_matrices(rep22, group, 20.0, 800, 0.05, RngStream(74))
    for axis in ([1.0, 0.0], [0.0, 1.0]):
        r, se = _mean_se(acc.log_vector_growth(axis) / 20.0)
        assert m - 3.0 * se - 0.01 <= r <= M + 3.0 * se + 0.01


def test_expectation_needs_horizon(group, rep22):
    with pytest.raises(LyapunovError):
        expectation_functions(rep22, group, np.eye(2), 0, 200, 0.05, RngStream(1))


@pytest.mark.parametrize("n", [2.5, float("nan"), float("inf")])
def test_expectation_refuses_a_non_integer_horizon(group, rep22, monkeypatch, n):
    # the horizon is an integer n, as diffusion_spectrum's: 2.5 is refused,
    # not walked, before the walk starts
    def refuse(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(lyapunov, "_heat_jump_blocks", refuse)
    with pytest.raises(LyapunovError, match="must be an integer >= 1"):
        expectation_functions(rep22, group, np.eye(2), n, 200, 0.05, RngStream(1))


# ------------------------------------------------------- conversion checks


def test_exp_conversion_trivial(group):
    rep = Representation.from_matrices(2, "real")
    r = check_exp_conversion(rep, group, [1.0, 0.0], 0j, 1.0, 400, 0.05, RngStream(65))
    assert r.lhs == 0.0 and r.rhs == 0.0 and r.passed


def test_exp_conversion_at_origin(group, rep22):
    # eta = 0 reduces to the diffusion identity for the specialization
    r = check_exp_conversion(rep22, group, [1.0, 0.0], 0j, 2.0, 1500, 0.05, RngStream(66))
    assert r.passed, str(r)


def test_exp_conversion_shifted_base(group, rep22):
    # the non-commuting pair tells A(eta -> z) = rho(w) rho(delta) rho(w)^-1
    # apart from rho(delta), where w is eta's tile and delta the crossings
    a = np.array([[2.0, 1.0], [1.0, 1.0]])
    b = np.array([[1.0, 0.0], [1.5, 1.0]])
    rep_track = Representation.from_matrices(2, "real", [a, b, b, a], group)
    eta = group.generators[0](0j)
    for rep in (rep22, rep_track):
        r = check_exp_conversion(rep, group, [1.0, 0.0], eta, 5.0, 1500, 0.05, RngStream(67))
        assert r.passed, str(r)


def test_exp_conversion_needs_horizon(group, rep22):
    with pytest.raises(LyapunovError):
        check_exp_conversion(rep22, group, [1.0, 0.0], 0j, 0.1, 400, 0.05, RngStream(1))


# -------------------------------------------------------------- shadowing


def test_shadowing_report(group):
    rep = shadowing_report(3000, [20.0, 40.0, 80.0], RngStream(68))
    assert rep.passed, str(rep)
    assert rep.slope_shadow_95 <= 0.1
    i40 = rep.t_values.index(40.0)
    assert 0.92 <= rep.drift_median[i40] <= 1.08


def test_shadowing_includes_zero_time():
    rep = shadowing_report(500, [0.0, 20.0, 40.0], RngStream(69))
    assert rep.shadow_quantiles[95][0] == 0.0
    assert rep.drift_median[0] == 0.0


def test_shadowing_needs_horizon():
    with pytest.raises(LyapunovError):
        shadowing_report(100, [5.0, 10.0], RngStream(1))


# ------------------------------------------------------ direction checks


def test_direction_uniformity(group):
    rep = direction_distribution_check(4000, 40.0, 32, RngStream(70))
    assert rep.passed, str(rep)
    assert rep.p_value > 0.001


def test_direction_single_bin_trivial():
    rep = direction_distribution_check(500, 40.0, 1, RngStream(71))
    assert rep.p_value == 1.0 and rep.passed


def test_direction_refuses_fewer_paths_than_bins():
    # below one path per bin some bin expects under one count, Cochran's
    # minimum for the chi-square law: one path in 32 bins always scores 31
    with pytest.raises(LyapunovError, match="n_paths >= n_bins = 32, got 1"):
        direction_distribution_check(1, 40.0, 32, RngStream(1))
    assert direction_distribution_check(32, 40.0, 32, RngStream(1)).n_paths == 32


def test_direction_rotation_invariance():
    # rotating every angle by a whole bin permutes counts: same statistic
    from hyplyap.diffusion import sample_polar_endpoints

    n_bins, n, t = 16, 2000, 40.0
    shift = 2.0 * math.pi / n_bins

    def stat(start_psi):
        _, psis = sample_polar_endpoints(
            n, t, 0.05, RngStream(72).generator(), start=(0.0, start_psi)
        )
        angles = np.mod(psis[-1], 2.0 * math.pi)
        counts, _ = np.histogram(angles, bins=n_bins, range=(0.0, 2.0 * math.pi))
        return float(np.sum((counts - n / n_bins) ** 2) / (n / n_bins))

    assert stat(0.0) == pytest.approx(stat(3.0 * shift), abs=1e-9)


def test_chi2_sf_matches_scipy():
    from scipy.stats import chi2

    for df in (1, 2, 3, 4, 7, 8, 31, 32, 99, 100, 999, 1000):
        for stat in (0.0, 1e-6, 0.5, 1.0, 0.5 * df, df - 1.0, df, df + 3.0 * math.sqrt(2.0 * df),
                     3.0 * df + 30.0, 6.0 * df + 100.0):
            want = chi2.sf(stat, df)
            assert _chi2_sf(stat, df) == pytest.approx(want, rel=1e-12, abs=0.0), (stat, df)
    # terms in log space: a df whose e^-x and x^k / k! over- and underflow
    assert 0.49 < _chi2_sf(1e5, 100000) < 0.51


@pytest.mark.parametrize("m_real", [4, 5, 8])
def test_sphere_sample_matches_scipy_halton(m_real):
    from scipy.stats import norm, qmc

    h = qmc.Halton(d=m_real, scramble=False).random(65)[1:]
    g = norm.ppf(h)
    want = g / np.linalg.norm(g, axis=1, keepdims=True)
    assert np.max(np.abs(_sphere_sample(m_real, 64) - want)) <= 1e-12


def test_direction_needs_frozen_horizon():
    with pytest.raises(LyapunovError):
        direction_distribution_check(100, 10.0, 8, RngStream(1))
