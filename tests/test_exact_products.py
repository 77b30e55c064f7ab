"""Products with constant signed permutations and label families against their former
BLAS forms.

Every product below multiplies by 0, +-1 or +-i, so each real or imaginary component
of an entry sums at most one inexact term: the elementwise and per-family forms must
give the values of the matmul forms they replaced.  np.array_equal treats -0 and +0 as
equal, the only freedom the rewrite has; where a test compares tobytes, the sign of every
zero must match as well.
"""

import numpy as np
import pytest

from bispinor import clifford as cl
from bispinor import projectors as pj
from bispinor import spinors as sp
from bispinor import verify as vf

AXES = ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, -1.0, 0.0))


def _columns(breve: bool) -> dict:
    """Band points as sampler columns: p0 = +-m (and p0 = 0 on the breve band) and
    axis-aligned spin axes first, then random ones."""
    rng = np.random.default_rng(23)
    m = rng.uniform(0.5, 2.0, 8)
    ratio = rng.uniform(-1.0, 1.0, 8) if breve else np.exp(rng.uniform(0.0, 3.0, 8))
    ratio[:3] = (1.0, -1.0, 0.0) if breve else (1.0, -1.0, -2.5)
    nhat = rng.normal(size=(8, 3))
    nhat /= np.linalg.norm(nhat, axis=1)[:, None]
    nhat[:3] = AXES
    return {"m": m, "p0": m * ratio, "nhat": nhat}


def _points(breve: bool, forward_only: bool = False) -> list:
    """The single points of _columns(breve), one at a time, then all of them as a batch."""
    c = _columns(breve)
    keep = c["p0"] >= c["m"] if forward_only else np.ones(len(c["m"]), bool)
    c = {key: a[keep] for key, a in c.items()}
    singles = [{key: a[i] for key, a in c.items()} for i in range(len(c["m"]))]
    return [*singles, c]


def _kin(c) -> sp.KinematicPoint:
    return sp.KinematicPoint(c["m"], c["p0"], c["nhat"])


def _bispinors() -> list:
    """Random bispinors, then the states of dirac_u, breve_u and the tetrad at every point."""
    rng = np.random.default_rng(4)
    out = [rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))]
    for breve in (False, True):
        for c in _points(breve):
            k = _kin(c)
            out += [sp._state(k, "breve_u" if breve else "dirac_u", crossed) for crossed in (0, 1)]
            if not breve:
                out.append(sp._state(k, "tetrad_bispinor"))
    return out


def _former_row(u, matrix):
    return cl.row_times(np.conj(u), matrix)


@pytest.mark.parametrize("insert", ["gamma0", "gamma5"])
def test_diad_is_its_former_matmul(insert):
    matrix = cl.gamma(0) if insert == "gamma0" else cl.gamma5()
    for u in _bispinors():
        former = pj._outer(u, _former_row(u, matrix))
        assert np.array_equal(pj.diad(u, insert), former)
        for one in u.reshape(-1, 4)[:3]:
            assert np.array_equal(pj.diad(one, insert), pj._outer(one, _former_row(one, matrix)))


def test_dirac_adjoint_is_its_former_matmul():
    for u in _bispinors():
        assert np.array_equal(sp.dirac_adjoint(u), _former_row(u, cl.gamma(0)))
        for one in u.reshape(-1, 4)[:3]:
            assert np.array_equal(sp.dirac_adjoint(one), _former_row(one, cl.gamma(0)))


def test_each_label_family_is_its_half_of_the_former_eight_state_table():
    # the former tables: equal labels then crossed, columns then rows, in one contraction
    for name, state, breve in (("dirac_u", sp._dirac, False), ("breve_u", sp._breve, True)):
        former = sp._table(state(j, j ^ cross, row)
                           for cross in (0, 1) for row in (0, 1) for j in (0, 1))
        for c in _points(breve):
            k = _kin(c)
            whole = cl._contract(k._boosts, former)
            for crossed in (0, 1):
                half = whole[..., 4 * crossed:4 * crossed + 4, :]
                assert np.array_equal(sp._state(k, name, crossed), half)
                assert np.array_equal(sp._state(k, name + "_bar", crossed), half)


def _former_orientation(nhat):
    s = sp._spatial(nhat)[..., None, None]
    contracted = sum(s[..., mu, :, :] * cl.gamma_lower(mu) for mu in range(4))
    return (cl._I4 + cl.gamma5() @ contracted) * 0.5


def test_orientation_projector_is_its_former_sum():
    # both sides of section4-projector-equivalence: spin_projector, the covariant form, and
    # the two-spinor block form diag((1 + sigma.n)/2, (1 - sigma.n)/2)
    for breve in (False, True):
        for c in _points(breve):
            former = _former_orientation(c["nhat"])
            assert np.array_equal(pj.spin_projector(sp._spatial(c["nhat"])), former)
            assert np.array_equal(vf._spin_blocks(vf.Columns({"nhat": c["nhat"]})), former)


def _spin_vectors(n: int) -> np.ndarray:
    """n spin vectors (0, nhat): axis-aligned ones first (signed zeros included), then random."""
    rng = np.random.default_rng(31)
    nhat = rng.normal(size=(n, 3))
    nhat /= np.linalg.norm(nhat, axis=1)[:, None]
    axes = np.array([*AXES, (-0.0, -0.0, -1.0), (0.0, -1.0, -0.0)])[:n]
    nhat[:len(axes)] = axes
    return sp._spatial(nhat)


def _rows_and_singles():
    """Every bispinor of _bispinors as a batch of rows, then its first three rows alone."""
    singles = _spin_vectors(3)
    for u in _bispinors():
        rows = u.reshape(-1, 4)
        yield rows, _spin_vectors(len(rows))
        yield from zip(rows[:3], singles)


@pytest.mark.parametrize("variant", ["u", "v"])
def test_spinor_from_breve_keeps_the_bytes_of_its_former_gamma5_stack(variant):
    # the former map contracted s with the matmul stack gamma5 (gamma.s) or (gamma.s) gamma5
    g5, gs = cl.gamma5(), cl._GAMMA_DOT_S
    former = cl._contraction(g5 @ gs if variant == "u" else gs @ g5)
    for breve, s in _rows_and_singles():
        want = cl.times_column(cl._contract(s, former), breve)
        assert sp.spinor_from_breve(breve, s, variant).tobytes() == want.tobytes()


def _two_valued_through(factors, xi) -> tuple:
    """section4_two_valued's former body: conj(xi) times each (lam, low/up) factor by
    row_times, one product per factor, then each bilinear's dot with xi."""
    xi = np.asarray(xi, dtype=complex)
    ket = xi[..., None, None, :]
    x = cl.dot(cl.row_times(np.conj(ket), factors), ket)
    low, up = x[..., 0], x[..., 1]
    total = np.sum(up.real * low.real - up.imag * low.imag, axis=-1)
    a = np.abs(xi)
    norm2 = np.sum(a * a, axis=-1)
    return total, norm2 * norm2


def test_section4_two_valued_keeps_the_bytes_of_its_former_factor_products():
    # the former factors: sigma_lam @ gamma5 and gamma5 @ conj(sigma_lam), and the block
    # swaps of _TWO_VALUED_FACTORS, each taken by row_times rather than by one _contract
    g5 = cl.gamma5()
    former = np.array([(sigma @ g5, g5 @ np.conj(sigma))
                       for sigma in (cl.generalized_pauli(lam, +1) for lam in (1, 2, 3))])
    signed = [0.0, -0.0, 1.0, -1.0, 1j, -1j, complex(-0.0, -0.0)]
    grid = np.array(np.meshgrid(*[signed] * 4, indexing="ij")).reshape(4, -1).T
    xis = [grid, *grid[::211], *(rows for rows, _ in _rows_and_singles())]
    rows = _bispinors()[0]
    xis += [scale * xi for scale in (1e-150, 1e150) for xi in (rows, rows[0])]
    # at 1e+-150 the quartic terms leave the float range: compared as inf, nan and 0 bits
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for xi in xis:
            got = vf.section4_two_valued(xi)
            for factors in (former, vf._TWO_VALUED_FACTORS):
                for one, want in zip(got, _two_valued_through(factors, xi)):
                    assert np.asarray(one).tobytes() == np.asarray(want).tobytes()


def _former_adjoint_rows(c, dagger):
    k = _kin(c)
    p, m_i4 = k.momentum(), np.asarray(k.m)[..., None, None] * cl._I4
    pair = np.stack([sp.breve_u_bar(k, lam, lam) if dagger is None else
                     np.conj(sp.breve_u(k, lam, lam)) for lam in sp.HELICITIES], axis=-2)
    if dagger is None:
        op = cl.slash(p) + m_i4
    elif dagger == "paper":
        op = -(p[..., :1, None] * cl.gamma(0) + cl.gamma_dot_spatial(p)) - m_i4
    else:
        op = np.conj(np.swapaxes(cl.slash(p), -1, -2)) - m_i4
    return cl.row_times(pair, op[..., None, :, :])


@pytest.mark.parametrize("dagger", [None, "paper", "standard"])
def test_adjoint_rows_are_their_former_products(dagger):
    for c in _points(breve=True):
        got = vf._adjoint_rows(vf.Columns(c), dagger)
        assert np.array_equal(got, _former_adjoint_rows(c, dagger))


def _former_boost_exponential(c) -> tuple:
    k = _kin(c)
    q = np.sqrt((k.p0 - k.m) * (k.p0 + k.m))
    up, down = (np.sqrt((k.p0 + sign * q) / k.m)[..., None, None] for sign in (+1, -1))
    pa, pb = (cl.times_column(pj.spin_projector_rest(n)[..., None, :, :], cl._I2)
              for n in (k.nhat, -k.nhat))
    rows = np.stack([up * pa + down * pb, down * pa + up * pb], axis=-2)
    return rows.reshape(rows.shape[:-3] + (4, 2)), sp._state(k, "boosted_spinor")


def test_boost_exponential_is_its_former_product():
    for c in _points(breve=False, forward_only=True):
        got = vf._boost_exponential(vf.Columns(c))
        for side, former in zip(got, _former_boost_exponential(c)):
            assert np.array_equal(side, former)


def _former_energy_pair(x, m) -> tuple:
    """Lambda+ and Lambda- as the halves of one contraction with the former (5, 8, 4) stack,
    flattened to (5, 32), scaled in place by 1 / 2m: the bits of _energy_projector's 0.5 / m."""
    stack = np.concatenate([np.concatenate([sign * cl._SLASH, cl._I4[None]])
                            for sign in (+1, -1)], axis=1)
    assert cl._contraction(stack)[0].shape == (5, 32)
    both = cl._contract(x, cl._contraction(stack))
    scaled = both.view(float)
    scaled *= np.asarray(1.0 / (2.0 * m))[..., None, None]
    return both[..., :4, :], both[..., 4:, :]


def _real_band_points() -> list:
    """The real-band points of _points, then batches of 1, 7, 1 000 and 10 000 points."""
    rng = np.random.default_rng(31)
    out = [_kin(c) for c in _points(breve=False)]
    for n in (1, 7, 1000, 10000):
        nhat = rng.normal(size=(n, 3))
        nhat /= np.linalg.norm(nhat, axis=1)[:, None]
        m = np.exp(rng.uniform(-3.0, 3.0, n))
        out.append(sp.KinematicPoint(m, m * np.exp(rng.uniform(0.0, 5.0, n)), nhat))
    return out


def test_energy_projectors_and_completeness_keep_the_bytes_of_the_former_pair_stack():
    for k in _real_band_points():
        x = k._five_vector()
        plus, minus = _former_energy_pair(x, k.m)
        assert pj._energy_projector(x, +1).tobytes() == plus.tobytes()
        assert pj._energy_projector(x, -1).tobytes() == minus.tobytes()
        lhs, rhs = pj.polsum("completeness", k)
        assert lhs.tobytes() == (plus + minus).tobytes()
        assert rhs.tobytes() == np.broadcast_to(cl._I4, lhs.shape).astype(complex).tobytes()


BAND_KINDS = {False: ("spinor", "antispinor", "completeness"),
              True: ("breve-plus", "breve-minus", "completeness")}


def _band_batches(breve: bool) -> list:
    """The points of _points(breve) with _spin_vectors beside them, then one batch of 1 000
    band points of batch shape (40, 25) with random spin vectors."""
    *singles, batch = _points(breve)
    s = _spin_vectors(len(batch["m"]))
    out = [*zip(map(_kin, singles), s), (_kin(batch), s)]
    rng = np.random.default_rng(37)
    m = np.exp(rng.uniform(-3.0, 3.0, (40, 25)))
    ratio = rng.uniform(-1.0, 1.0, m.shape) if breve else np.exp(rng.uniform(0.0, 3.0, m.shape))
    nhat = rng.normal(size=(40, 25, 3))
    nhat /= np.linalg.norm(nhat, axis=-1)[..., None]
    return [*out, (sp.KinematicPoint(m, m * ratio, nhat), _spin_vectors(1000).reshape(40, 25, 4))]


def _former_polsum_lhs(kind, k):
    """polsum's former lhs: Lambda+ + Lambda- as two _energy_projector calls, or the two
    equal-label outer products, each by _outer."""
    if kind == "completeness":
        x = k._five_vector()
        return pj._energy_projector(x, +1) + pj._energy_projector(x, -1)
    name = "breve_u" if kind.startswith("breve") else "dirac_u"
    u = sp._state(k.negated() if kind == "antispinor" else k, name)
    return pj._outer(u[..., 0, :], u[..., 2, :]) + pj._outer(u[..., 1, :], u[..., 3, :])


@pytest.mark.parametrize("breve", [False, True])
def test_polsum_and_pi_keep_the_bytes_of_their_former_forms(breve):
    # the sign of P(-s) now sits in a stack of its own rather than on s: the former Pi is
    # Lambda(-+) @ _spin_projector(-+s); the axis-aligned spin vectors carry signed zeros
    for k, s in _band_batches(breve):
        x = k._five_vector()
        for kind in BAND_KINDS[breve]:
            assert pj.polsum(kind, k)[0].tobytes() == _former_polsum_lhs(kind, k).tobytes()
        for sign in (+1, -1):
            assert pj._spin_projector(s, sign).tobytes() == pj._spin_projector(sign * s).tobytes()
            former = pj._energy_projector(x, sign) @ pj._spin_projector(-sign * s)
            assert pj._pi_projector(x, s, sign).tobytes() == former.tobytes()


@pytest.mark.parametrize("breve", [False, True])
def test_each_point_of_polsum_and_pi_is_its_batch_row(breve):
    *singles, (k, s) = _band_batches(breve)[:-1]
    x = k._five_vector()
    for i, (one, s_one) in enumerate(singles):
        for kind in BAND_KINDS[breve]:
            for side, row in zip(pj.polsum(kind, one), pj.polsum(kind, k)):
                assert side.tobytes() == row[i].tobytes(), kind
        for sign in (+1, -1):
            row = pj._pi_projector(x, s, sign)[i]
            assert pj._pi_projector(one._five_vector(), s_one, sign).tobytes() == row.tobytes()
            row = pj._spin_projector(s, sign)[i]
            assert pj._spin_projector(s_one, sign).tobytes() == row.tobytes()
