"""Tests for Lie algebras, central extensions, and Euler equations.

Oracles: the coadjoint action is pinned by the pairing identity
<ad*_X xi, Y> = <xi, [X, Y]>, which on so(3) evaluates to the cross
product xi x X; the rigid-body vector field follows componentwise from
that action; shift cocycles are structure-constant contractions small
enough to compute by hand; and the extended bracket on linear
functions must satisfy the Jacobi identity whenever the cocycle
identity holds, which is the joint consistency check for both. The
fields that the Euler and extension field factories return are pinned
by einsum contractions of the same arrays, and counted calls show that
they form no terms of their own. The compiled fields must reproduce bit
for bit the closures over _matvec and _ad_star they replaced
(float_euler_field and float_extended_field, kept here as their
oracles), signed zeros and non-finite shifts included, and equal
systems share one compiled field. The one cache of compiled code stays
within its bound, and a field compiled again after its eviction gives
the same bits. The cyclic sum of the Jacobi and cocycle checks, taken
one leading index at a time, equals the dense dim^4 form bit for bit,
and an algebra computes it once. Non-finite inertia,
shift, sigma or xi0 is refused before a step. The invariant logs are
pinned by float sums written out in index order; EulerSystem.energy is
the energy log's sum.
"""

from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastslow import (BUILTIN_ALGEBRAS, Cocycle, EulerSystem,
                      IntegratorConfig, LieAlgebraData, abelian,
                      coadjoint_action, cocycle_identity_residual,
                      euler_vector_field, extended_bracket,
                      extended_hamiltonian_field, heisenberg3,
                      integrate_autonomous, integrate_euler, load_algebra,
                      make_cocycle, oscillator4, shift_cocycle, so3)
from fastslow import integrators, lie_poisson
from fastslow.cli import parse_config, shipped_config_text
from fastslow.experiments import _params, integrator_configs

MIDPOINT = IntegratorConfig(method="implicit_midpoint", dt=1e-2)

# Hand contraction of sigma_ij = -<L, [e_i, e_j]> on so(3) with
# L = e3: only [e1, e2] = e3 pairs with L, so sigma_12 = -1.
SHIFT_E3_SIGMA = np.array([[0.0, -1.0, 0.0],
                           [1.0, 0.0, 0.0],
                           [0.0, 0.0, 0.0]])

# Hand evaluation of -<nu, [df, dg]> on so(3) at nu = e1, df = e2,
# dg = e3: [e2, e3] = e1, so the bracket value is -1.
PLAIN_BRACKET_EXAMPLE = -1.0

coeffs = st.floats(min_value=-2.0, max_value=2.0,
                   allow_nan=False, allow_infinity=False)


def basis(n, i):
    e = np.zeros(n)
    e[i] = 1.0
    return e


def random_nilpotent4(rng):
    """Random filiform nilpotent algebra [e1,e2]=a e3, [e1,e3]=b e4."""
    a, b = rng.uniform(0.5, 2.0, size=2)
    c = np.zeros((4, 4, 4))
    c[0, 1, 2], c[1, 0, 2] = a, -a
    c[0, 2, 3], c[2, 0, 3] = b, -b
    return LieAlgebraData(dim=4, structure_constants=c, name="nilpotent4")


def random_spd(rng, n):
    m = rng.standard_normal((n, n))
    return m @ m.T + n * np.eye(n)


class TestAlgebraData:
    def test_so3_bracket_is_cyclic(self):
        alg = so3()
        e = [basis(3, i) for i in range(3)]
        assert np.array_equal(alg.bracket(e[0], e[1]), e[2])
        assert np.array_equal(alg.bracket(e[1], e[2]), e[0])
        assert np.array_equal(alg.bracket(e[2], e[0]), e[1])
        assert np.array_equal(alg.bracket(e[1], e[0]), -e[2])

    def test_builtins_satisfy_jacobi(self):
        for name, factory in BUILTIN_ALGEBRAS.items():
            assert factory().jacobiator() <= 1e-12, name

    def test_builtin_registry_names(self):
        assert set(BUILTIN_ALGEBRAS) == {
            "abelian3", "so3", "heisenberg3", "oscillator4"}

    def test_antisymmetry_enforced(self):
        c = np.zeros((2, 2, 2))
        c[0, 1, 0] = 1.0
        with pytest.raises(ValueError, match="antisymmetric"):
            LieAlgebraData(dim=2, structure_constants=c)

    def test_jacobi_enforced(self):
        # [e1,e2]=e3 and [e2,e3]=e2 leave a Jacobiator residual -e3.
        c = np.zeros((3, 3, 3))
        c[0, 1, 2], c[1, 0, 2] = 1.0, -1.0
        c[1, 2, 1], c[2, 1, 1] = 1.0, -1.0
        with pytest.raises(ValueError, match="Jacobi"):
            LieAlgebraData(dim=3, structure_constants=c)

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_jacobi_enforced_on_a_nan_residual(self):
        # so(3) scaled by 1e200: each product overflows and the cyclic sum
        # of inf and -inf is NaN, which every comparison fails.
        with pytest.raises(ValueError, match="max residual nan exceeds"):
            LieAlgebraData(dim=3,
                           structure_constants=so3().structure_constants
                           * 1e200)

    @pytest.mark.parametrize("n", [3, 5, 8, 13])
    def test_sliced_residual_is_the_dense_one_bit_for_bit(self, n):
        # The oracle holds all dim^4 terms a_ijkl at once.
        def dense(c, t):
            a = np.einsum("ijm,m...->ij...", c, t)
            return float(np.max(np.abs(a + np.moveaxis(a, 2, 0)
                                       + np.moveaxis(a, 0, 2))))

        rng = np.random.default_rng(n)
        for _ in range(3):
            c = rng.standard_normal((n, n, n))
            c -= np.transpose(c, (1, 0, 2))
            sigma = rng.standard_normal((n, n))
            sigma -= sigma.T
            for t in (c, sigma):
                assert lie_poisson._cyclic_residual(c, t) == dense(c, t)

    def test_the_residual_is_computed_once(self, monkeypatch):
        calls = []
        real = lie_poisson._cyclic_residual

        def counted(c, t):
            calls.append(t.ndim)
            return real(c, t)

        monkeypatch.setattr(lie_poisson, "_cyclic_residual", counted)
        alg = so3()
        assert (alg.jacobiator(), alg.jacobiator()) == (0.0, 0.0)
        assert calls == [3]

    def test_an_unallocatable_residual_raises_value_error(self,
                                                          monkeypatch):
        # Faked, so that nothing is allocated for real.
        def out_of_memory(c, t):
            raise MemoryError("Unable to allocate 11.9 GiB")

        c = so3().structure_constants
        monkeypatch.setattr(lie_poisson, "_cyclic_residual", out_of_memory)
        message = ("dimension 3 is too large: the Jacobi check of its "
                   "structure constants cannot be allocated")
        with pytest.raises(ValueError) as excinfo:
            LieAlgebraData(dim=3, structure_constants=c)
        assert str(excinfo.value) == message
        with pytest.raises(ValueError) as excinfo:
            so3()
        assert str(excinfo.value) == f"invalid algebra file: {message}"

    def test_shape_enforced(self):
        with pytest.raises(ValueError, match="dim"):
            LieAlgebraData(dim=3, structure_constants=np.zeros((2, 2, 2)))


class TestCoadjointAction:
    def test_abelian_vanishes(self):
        alg = abelian(3)
        rng = np.random.default_rng(7)
        for _ in range(5):
            out = coadjoint_action(alg, rng.standard_normal(3),
                                   rng.standard_normal(3))
            assert np.array_equal(out, np.zeros(3))

    def test_so3_pairing_identity_on_basis(self):
        # All 27 basis triples; entries are exact signed units.
        alg = so3()
        e = [basis(3, i) for i in range(3)]
        for xi in e:
            for x in e:
                for y in e:
                    lhs = coadjoint_action(alg, x, xi) @ y
                    rhs = xi @ alg.bracket(x, y)
                    assert lhs == rhs

    @given(x=st.tuples(coeffs, coeffs, coeffs),
           xi=st.tuples(coeffs, coeffs, coeffs))
    def test_so3_is_cross_product(self, x, xi):
        x, xi = np.array(x), np.array(xi)
        out = coadjoint_action(so3(), x, xi)
        assert np.max(np.abs(out - np.cross(xi, x))) < 1e-13

    def test_pairing_identity_random_nilpotent(self):
        rng = np.random.default_rng(11)
        alg = random_nilpotent4(rng)
        for _ in range(20):
            x, xi, y = rng.standard_normal((3, 4))
            lhs = coadjoint_action(alg, x, xi) @ y
            rhs = xi @ alg.bracket(x, y)
            assert abs(lhs - rhs) < 1e-13


class TestCocycles:
    def test_antisymmetry_enforced(self):
        with pytest.raises(ValueError, match="antisymmetric"):
            Cocycle(sigma=np.eye(2))
        with pytest.raises(ValueError, match="square"):
            Cocycle(sigma=np.zeros((2, 3)))

    def test_shift_cocycle_so3_axis(self):
        coc = shift_cocycle(so3(), np.array([0.0, 0.0, 1.0]))
        assert np.array_equal(coc.sigma, SHIFT_E3_SIGMA)

    def test_zero_shift_gives_zero_cocycle(self):
        coc = shift_cocycle(so3(), np.zeros(3))
        assert np.array_equal(coc.sigma, np.zeros((3, 3)))

    def test_shift_cocycles_are_closed_on_all_builtins(self):
        rng = np.random.default_rng(3)
        for name, factory in BUILTIN_ALGEBRAS.items():
            alg = factory()
            for _ in range(5):
                coc = shift_cocycle(alg, rng.standard_normal(alg.dim))
                assert cocycle_identity_residual(alg, coc) <= 1e-14, name

    def test_make_cocycle_rejects_open_form_on_oscillator(self):
        # sigma(e4, e1) = 1 fails closure: the (e1,e2,e3) triple leaves
        # sigma([e2,e3], e1) = sigma(e4, e1) = 1 unbalanced.
        alg = oscillator4()
        sigma = np.zeros((4, 4))
        sigma[3, 0], sigma[0, 3] = 1.0, -1.0
        assert cocycle_identity_residual(alg, Cocycle(sigma=sigma)) == 1.0
        with pytest.raises(ValueError, match="cocycle identity"):
            make_cocycle(alg, sigma)

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_make_cocycle_rejects_a_nan_residual(self):
        # so(3) scaled by 1e150 passes its Jacobi check (1e300 products);
        # a sigma of 1e200 overflows, and inf - inf leaves NaN.
        alg = LieAlgebraData(dim=3,
                             structure_constants=so3().structure_constants
                             * 1e150)
        sigma = 1e200 * np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0],
                                  [1.0, -1.0, 0.0]])
        with pytest.raises(ValueError, match="max residual nan exceeds"):
            make_cocycle(alg, sigma)

    def test_every_antisymmetric_form_closed_on_so3_and_heisenberg(self):
        # On so(3) each basis triple hits sigma(e_k, e_k) = 0; on the
        # Heisenberg algebra the mirror contributions cancel pairwise.
        rng = np.random.default_rng(5)
        for alg in (so3(), heisenberg3()):
            for _ in range(5):
                m = rng.standard_normal((3, 3))
                coc = make_cocycle(alg, m - m.T)
                assert cocycle_identity_residual(alg, coc) <= 1e-14


class TestExtendedBracket:
    def test_plain_bracket_example(self):
        alg = so3()
        value = extended_bracket(alg, None, basis(3, 1), basis(3, 2),
                                 basis(3, 0))
        assert value == PLAIN_BRACKET_EXAMPLE

    def test_zero_cocycle_matches_none(self):
        alg = so3()
        zero = Cocycle(sigma=np.zeros((3, 3)))
        rng = np.random.default_rng(13)
        for _ in range(10):
            df, dg, nu = rng.standard_normal((3, 3))
            assert (extended_bracket(alg, zero, df, dg, nu)
                    == extended_bracket(alg, None, df, dg, nu))

    def test_cocycle_term_alone(self):
        # At nu = 0 only the cocycle contributes: -sigma(e1, e2) = +1.
        coc = shift_cocycle(so3(), np.array([0.0, 0.0, 1.0]))
        value = extended_bracket(so3(), coc, basis(3, 0), basis(3, 1),
                                 np.zeros(3))
        assert value == 1.0

    def test_antisymmetry_is_exact(self):
        alg = oscillator4()
        coc = shift_cocycle(alg, np.array([0.4, -0.1, 0.2, 0.7]))
        rng = np.random.default_rng(17)
        for _ in range(10):
            df, dg, nu = rng.standard_normal((3, 4))
            forward = extended_bracket(alg, coc, df, dg, nu)
            backward = extended_bracket(alg, coc, dg, df, nu)
            assert forward == -backward

    def test_leibniz_on_products_of_linear_functions(self):
        # {f, gh}(nu) with d(gh) = dg h(nu) + dh g(nu) splits by
        # bilinearity into g{f,h} + {f,g}h.
        alg = so3()
        coc = shift_cocycle(alg, np.array([0.2, 0.5, -0.3]))
        rng = np.random.default_rng(19)
        for _ in range(10):
            alpha, beta, gamma, nu = rng.standard_normal((4, 3))
            d_product = beta * (gamma @ nu) + gamma * (beta @ nu)
            lhs = extended_bracket(alg, coc, alpha, d_product, nu)
            rhs = ((beta @ nu) * extended_bracket(alg, coc, alpha, gamma, nu)
                   + (gamma @ nu)
                   * extended_bracket(alg, coc, alpha, beta, nu))
            assert abs(lhs - rhs) < 1e-12

    def test_jacobi_identity_linear_functions_all_builtins(self):
        # {g, h} is affine with constant gradient -[dg, dh], so the
        # Jacobiator reduces to three bracket calls; it vanishes iff
        # the Jacobi identity and the cocycle identity both hold.
        rng = np.random.default_rng(23)
        for name, factory in BUILTIN_ALGEBRAS.items():
            alg = factory()
            coc = shift_cocycle(alg, rng.standard_normal(alg.dim))
            for _ in range(10):
                a, b, c, nu = rng.standard_normal((4, alg.dim))
                total = sum(
                    extended_bracket(alg, coc, u, -alg.bracket(v, w), nu)
                    for u, v, w in ((a, b, c), (b, c, a), (c, a, b)))
                assert abs(total) < 1e-12, name


class TestEulerSystem:
    def test_inertia_validation(self):
        alg = so3()
        bad_sym = np.array([[1.0, 0.2, 0.0],
                            [0.0, 1.0, 0.0],
                            [0.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            EulerSystem(algebra=alg, inertia=bad_sym)
        with pytest.raises(ValueError, match="positive definite"):
            EulerSystem(algebra=alg, inertia=-np.eye(3))
        with pytest.raises(ValueError, match="shift"):
            EulerSystem(algebra=alg, inertia=np.eye(3), shift=np.ones(2))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_data_rejected(self, bad):
        # Unchecked, an infinite moment of inertia would pass every check
        # of a run (with a RuntimeWarning from the symmetry test), a NaN
        # one the symmetry test and Cholesky, and a NaN sigma would read
        # as asymmetric.
        alg = so3()
        inertia = np.diag([bad, 2.0, 3.0])
        with pytest.raises(ValueError, match="^inertia must be finite$"):
            EulerSystem(algebra=alg, inertia=inertia)
        # A finite inertia whose inverse is not: 1 / 1e-310 overflows.
        with pytest.raises(ValueError, match="^inertia is too near singular: "
                                             "its inverse is not finite$"):
            EulerSystem(algebra=alg, inertia=np.diag([1e-310, 2.0, 3.0]))
        with pytest.raises(ValueError, match="^shift must be finite$"):
            EulerSystem(algebra=alg, inertia=np.eye(3),
                        shift=np.array([0.2, bad, 0.5]))
        sigma = SHIFT_E3_SIGMA.copy()
        sigma[0, 1], sigma[1, 0] = bad, -bad
        with pytest.raises(ValueError, match="^sigma must be finite$"):
            Cocycle(sigma=sigma)
        system = EulerSystem(algebra=alg, inertia=np.eye(3))
        with pytest.raises(ValueError, match="^xi0 must be finite$"):
            integrate_euler(system, np.array([0.1, bad, 0.1]), 1.0, MIDPOINT)

    def test_velocity_and_energy(self):
        system = EulerSystem(algebra=so3(), inertia=np.diag([1.0, 2.0, 3.0]))
        xi = np.ones(3)
        assert np.allclose(system.velocity(xi), [1.0, 0.5, 1.0 / 3.0],
                           rtol=0.0, atol=1e-15)
        assert abs(system.energy(xi) - 11.0 / 12.0) < 1e-15

    def test_rigid_body_component_law(self):
        # Componentwise form of -ad*_{I^{-1} xi} xi on so(3); the sign
        # pattern follows from the pairing-identity orientation and is
        # cross-checked against the coadjoint action directly.
        inertia = np.diag([1.0, 2.0, 3.0])
        system = EulerSystem(algebra=so3(), inertia=inertia)
        rng = np.random.default_rng(29)
        for _ in range(10):
            xi = rng.standard_normal(3)
            field = np.array(euler_vector_field(system)(xi.tolist()))
            direct = -coadjoint_action(so3(), system.velocity(xi), xi)
            assert np.max(np.abs(field - direct)) < 1e-15
            want = np.array([
                (1.0 / 2.0 - 1.0 / 3.0) * xi[1] * xi[2],
                (1.0 / 3.0 - 1.0 / 1.0) * xi[2] * xi[0],
                (1.0 / 1.0 - 1.0 / 2.0) * xi[0] * xi[1]])
            assert np.max(np.abs(field - want)) < 1e-14

    def test_shift_element_is_equilibrium(self):
        shift = np.array([0.4, -0.2, 0.9])
        system = EulerSystem(algebra=so3(), inertia=np.diag([1.0, 2.0, 3.0]),
                             shift=shift)
        assert euler_vector_field(system)(shift.tolist()) == [0.0] * 3

    def test_energy_orthogonality(self):
        # <field, I^{-1} xi> = <xi - L, [v, v]> = 0 for every state.
        rng = np.random.default_rng(31)
        for factory in (so3, heisenberg3, oscillator4):
            alg = factory()
            system = EulerSystem(
                algebra=alg, inertia=random_spd(rng, alg.dim),
                shift=rng.standard_normal(alg.dim))
            field = euler_vector_field(system)
            for _ in range(10):
                xi = rng.standard_normal(alg.dim)
                value = np.array(field(xi.tolist()))
                assert abs(value @ system.velocity(xi)) < 1e-13

    def test_extended_field_matches_shifted_euler(self):
        # Coboundary cocycles and momentum shifts generate the same
        # flow; this is the field-level half of the two-path check.
        rng = np.random.default_rng(37)
        for name, factory in BUILTIN_ALGEBRAS.items():
            alg = factory()
            inertia = random_spd(rng, alg.dim)
            shift = rng.standard_normal(alg.dim)
            system = EulerSystem(algebra=alg, inertia=inertia, shift=shift)
            euler = euler_vector_field(system)
            extended = extended_hamiltonian_field(
                alg, shift_cocycle(alg, shift), inertia)
            for _ in range(5):
                xi = rng.standard_normal(alg.dim).tolist()
                gap = np.array(euler(xi)) - np.array(extended(xi))
                assert np.max(np.abs(gap)) < 1e-13, name

    def test_extended_field_is_the_bracket_componentwise(self):
        # The closed form -ad*_{dH} xi - dH . sigma against its
        # definition {H, xi_j} = extended_bracket(dH, e_j, xi), for no
        # cocycle, a coboundary, and closed cocycles that are not
        # coboundaries: every sigma on abelian(2), and sigma_13, sigma_23
        # on heisenberg3 (its coboundaries have only sigma_12).
        rng = np.random.default_rng(59)
        cases = []
        for name, factory in BUILTIN_ALGEBRAS.items():
            alg = factory()
            cases += [(name, alg, None),
                      (name, alg, shift_cocycle(alg,
                                                rng.standard_normal(alg.dim)))]
        cases.append(("abelian(2)", abelian(2), make_cocycle(
            abelian(2), np.array([[0.0, 0.7], [-0.7, 0.0]]))))
        cases.append(("heisenberg3", heisenberg3(), make_cocycle(
            heisenberg3(), np.array([[0.0, 0.3, -1.1],
                                     [-0.3, 0.0, 0.8],
                                     [1.1, -0.8, 0.0]]))))
        for name, alg, coc in cases:
            inertia = random_spd(rng, alg.dim)
            extended = extended_hamiltonian_field(alg, coc, inertia)
            for _ in range(5):
                xi = rng.standard_normal(alg.dim)
                dh = np.linalg.solve(inertia, xi)
                field = extended(xi.tolist())
                for j in range(alg.dim):
                    expected = extended_bracket(alg, coc, dh,
                                                basis(alg.dim, j), xi)
                    assert abs(field[j] - expected) < 1e-14, (name, j)


def einsum_euler_field(c, inertia, shift, xi):
    """-ad*_X (xi - L) with X = I^{-1} xi, contracted by einsum."""
    x = np.einsum("ij,j->i", np.linalg.inv(inertia), xi)
    return -np.einsum("ijk,i,k->j", c, x, xi - shift)


def einsum_extended_field(c, inertia, sigma, xi):
    """-ad*_{dH} xi - dH . sigma with dH = I^{-1} xi, contracted by
    einsum."""
    dh = np.einsum("ij,j->i", np.linalg.inv(inertia), xi)
    return (-np.einsum("ijk,i,k->j", c, dh, xi)
            - np.einsum("i,ij->j", dh, sigma))


class TestFloatFields:
    @pytest.mark.parametrize("name", sorted(BUILTIN_ALGEBRAS))
    def test_closures_match_einsum_oracle(self, name):
        # Random SPD inertia, a random shift and its coboundary; both
        # closures take and return lists of Python floats.
        rng = np.random.default_rng(61)
        alg = BUILTIN_ALGEBRAS[name]()
        c = alg.structure_constants
        for _ in range(20):
            inertia = random_spd(rng, alg.dim)
            shift = rng.standard_normal(alg.dim)
            coc = shift_cocycle(alg, shift)
            euler = euler_vector_field(EulerSystem(
                algebra=alg, inertia=inertia, shift=shift))
            extended = extended_hamiltonian_field(alg, coc, inertia)
            xi = rng.standard_normal(alg.dim)
            for got, want in (
                    (euler(xi.tolist()),
                     einsum_euler_field(c, inertia, shift, xi)),
                    (extended(xi.tolist()),
                     einsum_extended_field(c, inertia, coc.sigma, xi))):
                assert type(got) is list
                assert all(type(v) is float for v in got)
                assert np.max(np.abs(np.array(got) - want)) <= 1e-15, name

    @pytest.mark.parametrize("name", ["so3", "heisenberg3", "oscillator4"])
    def test_sign_flipped_cocycle_misses_the_shifted_field(self, name):
        # The shift-equivalence check compares these two fields; with a
        # nonzero shift a cocycle of the wrong sign must not pass it.
        rng = np.random.default_rng(67)
        alg = BUILTIN_ALGEBRAS[name]()
        inertia = random_spd(rng, alg.dim)
        shift = rng.standard_normal(alg.dim)
        system = EulerSystem(algebra=alg, inertia=inertia, shift=shift)
        flipped = Cocycle(sigma=-shift_cocycle(alg, shift).sigma)
        euler = euler_vector_field(system)
        extended = extended_hamiltonian_field(alg, flipped, inertia)
        for _ in range(5):
            xi = rng.standard_normal(alg.dim).tolist()
            gap = np.max(np.abs(np.array(euler(xi)) - np.array(extended(xi))))
            assert gap > 1e-3, name


def float_euler_field(system):
    """The Euler field as the closure over _matvec and _ad_star that
    euler_vector_field returned before it was compiled per sparsity
    pattern, kept as the oracle of the compiled field."""
    inverse = system._inverse
    brackets = system.algebra._brackets
    shift = system.shift.tolist()

    def f(xi: list) -> list:
        moved = [x - s for x, s in zip(xi, shift)]
        return [-a for a in lie_poisson._ad_star(
            brackets, lie_poisson._matvec(inverse, xi), moved)]

    return f


def float_extended_field(algebra, cocycle, inertia):
    """The extension's field as the closure over _matvec and _ad_star
    that extended_hamiltonian_field returned before it was compiled per
    sparsity pattern, kept as the oracle of the compiled field."""
    inverse = lie_poisson._terms(np.linalg.inv(np.asarray(inertia,
                                                          dtype=float)))
    brackets = algebra._brackets
    sigma = [] if cocycle is None else lie_poisson._terms(cocycle.sigma)

    def f(xi: list) -> list:
        dh = lie_poisson._matvec(inverse, xi)
        return [s - a for a, s in zip(
            lie_poisson._ad_star(brackets, dh, xi),
            lie_poisson._matvec(sigma, dh))]

    return f


# A 5-d filiform nilpotent algebra in the loader's format: [e0, e1] =
# 0.5 e2, [e0, e2] = -1.5 e3, [e0, e3] = 2 e4, [e1, e2] = 0.75 e4.
FILIFORM5 = "dim 5\n0 1 2 0.5\n0 2 3 -1.5\n0 3 4 2.0\n1 2 4 0.75"
ORACLE_ALGEBRAS = {
    **BUILTIN_ALGEBRAS,
    "filiform5": lambda: load_algebra(FILIFORM5, name="filiform5"),
}


def signed_zero_states(rng, n, count):
    """count random states of n floats; about a third of the entries,
    and every entry of every eighth row, are zeros of random signs, so
    that some products and sums are of signed zeros only."""
    states = rng.uniform(-3.0, 3.0, (count, n))
    zeros = np.copysign(0.0, rng.uniform(-1.0, 1.0, (count, n)))
    picked = rng.random((count, n)) < 1.0 / 3.0
    picked[::8] = True
    states[picked] = zeros[picked]
    return states


def assert_same_bits(got, want, n, seed):
    """got and want give the same float bits on signed_zero_states."""
    for xi in signed_zero_states(np.random.default_rng(seed), n, 2000):
        xi = xi.tolist()
        out = got(xi)
        assert type(out) is list and all(type(x) is float for x in out)
        # tobytes tells -0.0 from +0.0, and NaN bits apart, which == would
        # not.
        assert np.array(out).tobytes() == np.array(want(xi)).tobytes(), xi


def non_finite(obj, name, values):
    """obj, a frozen dataclass, with the array field name set to values
    after its checks have passed: the factories' own handling of a
    non-finite value."""
    object.__setattr__(obj, name, np.asarray(values, dtype=float))
    return obj


# Finite values whose bits the reprs written into a compiled field must
# give back.
TINY = {"signed_zero": -0.0, "subnormal": 5e-324}


def upper_minus_lower(value, n):
    """The n x n antisymmetric matrix with value above the diagonal and
    0.0 - value below it: -0.0 and +0.0 entries for value -0.0."""
    upper = np.triu(np.full((n, n), value), 1)
    return upper - upper.T


class TestCompiledFields:
    @pytest.mark.parametrize("shift", ["zero", "nonzero", "nan", *TINY])
    @pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
    def test_euler_field_is_the_float_oracle_bit_for_bit(self, name, shift):
        rng = np.random.default_rng(83)
        alg = ORACLE_ALGEBRAS[name]()
        n = alg.dim
        for inertia in (np.diag(rng.uniform(0.5, 3.0, n)),
                        random_spd(rng, n)):
            system = EulerSystem(algebra=alg, inertia=inertia,
                                 shift=(rng.standard_normal(n)
                                        if shift == "nonzero" else
                                        TINY[shift] * (-1.0) ** np.arange(n)
                                        if shift in TINY else None))
            if shift == "nan":
                non_finite(system, "shift", np.where(
                    np.arange(n) == 1, np.nan, rng.standard_normal(n)))
            assert_same_bits(euler_vector_field(system),
                             float_euler_field(system), n, 89)

    @pytest.mark.parametrize("cocycle", ["none", "zero_shift", "coboundary",
                                         "nan", *TINY])
    @pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
    def test_extended_field_is_the_float_oracle_bit_for_bit(self, name,
                                                            cocycle):
        rng = np.random.default_rng(97)
        alg = ORACLE_ALGEBRAS[name]()
        n = alg.dim
        coc = {"none": None,
               "zero_shift": shift_cocycle(alg, np.zeros(n)),
               "coboundary": shift_cocycle(alg, rng.standard_normal(n)),
               "nan": non_finite(Cocycle(sigma=np.zeros((n, n))), "sigma",
                                 np.where(np.eye(n)[::-1] == 1.0, np.nan,
                                          0.0)),
               **{tiny: make_cocycle(alg, upper_minus_lower(value, n))
                  for tiny, value in TINY.items()}}[cocycle]
        inertia = random_spd(rng, n)
        assert_same_bits(extended_hamiltonian_field(alg, coc, inertia),
                         float_extended_field(alg, coc, inertia), n, 101)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_extended_field_on_closed_non_coboundary(self, n):
        # On an abelian algebra every antisymmetric sigma is closed and
        # only sigma = 0 is a coboundary; c has no terms, so the field is
        # sigma I^{-1} xi alone.
        rng = np.random.default_rng(103)
        sigma = np.triu(rng.standard_normal((n, n)), 1)
        coc = make_cocycle(abelian(n), sigma - sigma.T)
        inertia = random_spd(rng, n)
        assert_same_bits(extended_hamiltonian_field(abelian(n), coc, inertia),
                         float_extended_field(abelian(n), coc, inertia),
                         n, 107)

    def test_one_compiled_field_per_source(self):
        # Values are written into the code: equal systems share one
        # function, and systems of one pattern but other values do not
        # share code.
        def field(inertia, shift=None):
            return euler_vector_field(EulerSystem(
                algebra=so3(), inertia=np.diag(inertia), shift=shift))

        assert field([1.0, 2.0, 3.0]) is field([1.0, 2.0, 3.0])
        others = [field([4.0, 0.5, 7.0]), field([1.0, 2.0, 3.0], [0.2, 0, 0]),
                  extended_hamiltonian_field(so3(), None,
                                             np.diag([1.0, 2.0, 3.0]))]
        for other in others:
            assert other.__code__ is not field([1.0, 2.0, 3.0]).__code__
        xi = [0.3, -0.7, 1.1]
        assert field([1.0, 2.0, 3.0])(xi) != others[0](xi)

    def test_the_cache_of_generated_code_is_bounded(self):
        # 2,000 fields of distinct inertia evict the first one, which is
        # compiled again from its source and gives the same bits.
        def field(k):
            return euler_vector_field(EulerSystem(
                algebra=so3(), inertia=np.diag([1.0, 2.0, 3.0 + k / 7.0])))

        xi = [0.3, -0.7, 1.1]
        first = field(0)
        want = first(xi)
        for k in range(1, 2000):
            field(k)
        assert (integrators._compiled.cache_info().currsize
                <= integrators._COMPILED_MAX)
        again = field(0)
        assert again is not first
        assert np.array(again(xi)).tobytes() == np.array(want).tobytes()


class TestExtendedFieldArguments:
    """extended_hamiltonian_field checks the inertia as EulerSystem does,
    and the size of sigma against the algebra, before it builds a
    field."""

    @pytest.mark.parametrize("algebra, cocycle, inertia, message", [
        (so3, None, np.eye(2), "inertia must be dim x dim"),
        (so3, Cocycle(sigma=[[0.0, 1.0], [-1.0, 0.0]]), np.eye(3),
         "sigma must be dim x dim"),
        (so3, None, [[1.0, 0.1, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
         "inertia is not symmetric"),
        (so3, None, np.diag([-1.0, 1.0, 1.0]),
         "inertia is not positive definite"),
        (so3, None, np.diag([np.nan, 1.0, 1.0]), "inertia must be finite"),
        (lambda: abelian(1), None, [[np.inf]], "inertia must be finite"),
        (so3, None, np.diag([1e-310, 2.0, 3.0]),
         "inertia is too near singular"),
    ], ids=["inertia_2x2", "sigma_2x2", "inertia_not_symmetric",
            "inertia_not_positive", "inertia_nan", "inertia_inf",
            "inertia_near_singular"])
    def test_bad_argument_raises(self, algebra, cocycle, inertia, message):
        with pytest.raises(ValueError, match="^" + message):
            extended_hamiltonian_field(algebra(), cocycle, inertia)


def count_term_builds(monkeypatch) -> dict:
    """Count the calls of lie_poisson._terms and np.linalg.inv from here
    on; the returned dict holds the counts."""
    calls = {"_terms": 0, "inv": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(lie_poisson, "_terms",
                        counted("_terms", lie_poisson._terms))
    monkeypatch.setattr(np.linalg, "inv", counted("inv", np.linalg.inv))
    return calls


class TestFieldFactories:
    """The terms of c are formed once per algebra, those of I^{-1} and
    sigma once per field; a field call and the coadjoint action form
    none."""

    @pytest.mark.parametrize("name", sorted(BUILTIN_ALGEBRAS))
    def test_field_calls_form_no_terms(self, monkeypatch, name):
        rng = np.random.default_rng(73)
        alg = BUILTIN_ALGEBRAS[name]()
        inertia = random_spd(rng, alg.dim)
        shift = rng.standard_normal(alg.dim)
        coc = shift_cocycle(alg, shift)
        calls = count_term_builds(monkeypatch)
        fields = (euler_vector_field(EulerSystem(algebra=alg,
                                                 inertia=inertia,
                                                 shift=shift)),
                  extended_hamiltonian_field(alg, coc, inertia))
        # The counters see the factories and the system build their terms.
        assert calls["_terms"] > 0 and calls["inv"] > 0
        calls.update(_terms=0, inv=0)
        for field in fields:
            for _ in range(100):
                field(rng.standard_normal(alg.dim).tolist())
        assert calls == {"_terms": 0, "inv": 0}

    def test_coadjoint_action_forms_no_terms(self, monkeypatch):
        alg = oscillator4()
        rng = np.random.default_rng(79)
        calls = count_term_builds(monkeypatch)
        for _ in range(100):
            coadjoint_action(alg, rng.standard_normal(4),
                             rng.standard_normal(4))
        assert calls["_terms"] == 0


class TestIntegration:
    def test_rigid_body_invariants_over_long_horizon(self):
        system = EulerSystem(algebra=so3(), inertia=np.diag([1.0, 2.0, 3.0]))
        traj = integrate_euler(system, np.array([0.1, 1.0, 0.1]), 100.0,
                               MIDPOINT)
        energy = traj.invariant_log["energy"]
        casimir = traj.invariant_log["momentum"]
        assert np.max(np.abs(energy - energy[0])) / abs(energy[0]) < 1e-8
        assert np.max(np.abs(casimir - casimir[0])) / casimir[0] < 1e-8

    def test_invariant_log_contents(self):
        shift = np.array([0.0, 0.0, 0.5])
        system = EulerSystem(algebra=so3(), inertia=np.diag([1.0, 2.0, 3.0]),
                             shift=shift)
        xi0 = np.array([0.2, 0.8, -0.3])
        traj = integrate_euler(system, xi0, 1.0, MIDPOINT)
        assert set(traj.invariant_log) == {
            "energy", "momentum", "casimir_shifted"}
        assert traj.state_labels == ("xi1", "xi2", "xi3")
        assert traj.kind == "euler"
        assert traj.meta["algebra"] == "so3"
        # Each log adds its terms from +0.0 in index order, in floats.
        want_momentum = want_casimir = 0.0
        for x, s in zip(xi0.tolist(), shift.tolist()):
            want_momentum += x * x
            want_casimir += (x - s) * (x - s)
        assert traj.invariant_log["momentum"][0] == want_momentum
        assert traj.invariant_log["casimir_shifted"][0] == want_casimir

    def test_energy_is_the_logged_energy_on_the_shipped_run(self):
        # One energy: EulerSystem.energy and the run's log share the
        # terms of I^{-1} and the float sum, so they agree to the bit.
        config = parse_config(shipped_config_text("euler"))
        p = _params(config)
        system = EulerSystem(algebra=BUILTIN_ALGEBRAS[p["algebra"]](),
                             inertia=np.diag(p["inertia"]),
                             shift=np.asarray(p["shift"], dtype=float))
        traj = integrate_euler(system, np.asarray(p["xi0"], dtype=float),
                               p["horizon"], integrator_configs(config)[1])
        logged = traj.invariant_log["energy"].tolist()
        assert len(logged) == 10_001
        assert [system.energy(row) for row in traj.values] == logged

    def test_shifted_casimir_is_conserved_not_plain_momentum(self):
        shift = np.array([0.0, 0.0, 0.8])
        system = EulerSystem(algebra=so3(), inertia=np.diag([1.0, 2.0, 3.0]),
                             shift=shift)
        traj = integrate_euler(system, np.array([0.5, 0.4, 0.1]), 40.0,
                               MIDPOINT)
        shifted = traj.invariant_log["casimir_shifted"]
        plain = traj.invariant_log["momentum"]
        assert np.max(np.abs(shifted - shifted[0])) / shifted[0] < 1e-8
        assert np.max(np.abs(plain - plain[0])) > 1e-2

    def test_heisenberg_central_component_and_energy(self):
        # xi3 pairs with the center, so its derivative vanishes
        # structurally; |xi|^2 is not conserved once the inertia is
        # anisotropic.
        system = EulerSystem(algebra=heisenberg3(),
                             inertia=np.diag([1.0, 2.0, 1.0]))
        traj = integrate_euler(system, np.array([1.0, 0.7, 0.5]), 20.0,
                               MIDPOINT)
        energy = traj.invariant_log["energy"]
        assert np.max(np.abs(traj.values[:, 2] - 0.5)) < 1e-9
        assert np.max(np.abs(energy - energy[0])) / abs(energy[0]) < 1e-8
        momentum = traj.invariant_log["momentum"]
        assert np.max(np.abs(momentum - momentum[0])) > 1e-2

    def test_oscillator_energy_drift(self):
        rng = np.random.default_rng(41)
        system = EulerSystem(algebra=oscillator4(),
                             inertia=random_spd(rng, 4))
        traj = integrate_euler(system, rng.standard_normal(4), 20.0, MIDPOINT)
        energy = traj.invariant_log["energy"]
        assert np.max(np.abs(energy - energy[0])) / abs(energy[0]) < 1e-8

    def test_shift_equivalence_two_paths(self):
        # Path one integrates the shifted system in xi; path two
        # integrates eta = xi - L under its own independently coded
        # field eta' = -ad*_{I^{-1}(eta + L)} eta.
        alg = so3()
        inertia = np.diag([1.0, 2.0, 3.0])
        shift = np.array([0.2, -0.4, 0.5])
        system = EulerSystem(algebra=alg, inertia=inertia, shift=shift)
        xi0 = np.array([0.9, 0.3, -0.2])
        traj_xi = integrate_euler(system, xi0, 10.0, MIDPOINT)

        def eta_field(eta):
            velocity = np.linalg.solve(inertia, eta + shift)
            return -coadjoint_action(alg, velocity, eta)

        traj_eta = integrate_autonomous(
            eta_field, xi0 - shift, 10.0, MIDPOINT,
            state_labels=("eta1", "eta2", "eta3"), kind="euler", dim_base=3)
        gap = np.max(np.abs(traj_xi.values - shift - traj_eta.values))
        assert gap < 1e-10

    def test_extended_bracket_path_matches_integration(self):
        # Integrating the extended Hamiltonian field reproduces the
        # shifted Euler trajectory.
        alg = oscillator4()
        rng = np.random.default_rng(43)
        inertia = random_spd(rng, 4)
        shift = rng.standard_normal(4)
        system = EulerSystem(algebra=alg, inertia=inertia, shift=shift)
        coc = shift_cocycle(alg, shift)
        xi0 = rng.standard_normal(4)
        traj_euler = integrate_euler(system, xi0, 10.0, MIDPOINT)
        traj_bracket = integrate_autonomous(
            extended_hamiltonian_field(alg, coc, inertia), xi0, 10.0, MIDPOINT,
            state_labels=("xi1", "xi2", "xi3", "xi4"), kind="euler",
            dim_base=4)
        gap = np.max(np.abs(traj_euler.values - traj_bracket.values))
        assert gap < 1e-10

    def test_midpoint_agrees_with_fine_rk4(self):
        # Stable spin near the major axis: no exponential error growth.
        system = EulerSystem(algebra=so3(), inertia=np.diag([1.0, 2.0, 3.0]))
        xi0 = np.array([1.0, 0.1, 0.1])
        coarse = integrate_euler(system, xi0, 10.0,
                                 IntegratorConfig(method="implicit_midpoint",
                                                  dt=1e-3))
        fine = integrate_euler(system, xi0, 10.0,
                               IntegratorConfig(method="rk4", dt=1e-3))
        shared = np.linspace(0, len(coarse.times) - 1, 11).astype(int)
        assert np.max(np.abs(coarse.values[shared]
                             - fine.values[shared])) < 1e-5

    def test_bad_initial_condition_rejected(self):
        system = EulerSystem(algebra=so3(), inertia=np.eye(3))
        with pytest.raises(ValueError, match="xi0"):
            integrate_euler(system, np.ones(4), 1.0, MIDPOINT)


class TestLoader:
    SO3_TEXT = """\
# rotation algebra
dim 3
0 1 2 1.0
1 2 0 1.0   # cyclic
2 0 1 1.0
"""

    def test_round_trip_so3(self):
        loaded = load_algebra(self.SO3_TEXT, name="so3-file")
        assert loaded.name == "so3-file"
        assert np.array_equal(loaded.structure_constants,
                              so3().structure_constants)

    def test_so3_is_the_shipped_algebra_file(self):
        text = resources.files("fastslow").joinpath(
            "configs", "so3.alg").read_text()
        shipped = load_algebra(text, name="so3")
        assert so3().structure_constants.tobytes() == \
            shipped.structure_constants.tobytes()
        assert (so3().dim, so3().name) == (shipped.dim, shipped.name)

    def test_consistent_duplicates_allowed(self):
        text = "dim 3\n0 1 2 1.0\n0 1 2 1.0\n1 2 0 1.0\n2 0 1 1.0\n"
        loaded = load_algebra(text)
        assert np.array_equal(loaded.structure_constants,
                              so3().structure_constants)

    def test_all_violations_reported_with_line_numbers(self):
        text = ("dim 3\n"
                "0 0 2 1.0\n"       # diagonal bracket
                "0 1 5 1.0\n"       # index out of range
                "0 1 2 abc\n"       # unparseable value
                "1 2\n")            # wrong arity
        with pytest.raises(ValueError) as excinfo:
            load_algebra(text)
        message = str(excinfo.value)
        assert message.startswith("invalid algebra file:")
        for fragment in ("line 2", "line 3", "line 4", "line 5",
                         "must vanish", "out of range"):
            assert fragment in message

    def test_conflicting_mirror_detected(self):
        text = "dim 3\n0 1 2 1.0\n1 0 2 1.0\n"
        with pytest.raises(ValueError, match="conflicts with line 2"):
            load_algebra(text)

    def test_jacobi_failure_reported(self):
        text = "dim 3\n0 1 2 1.0\n1 2 1 1.0\n"
        with pytest.raises(ValueError,
                           match="invalid algebra file: Jacobi"):
            load_algebra(text)

    def test_missing_dim_line(self):
        with pytest.raises(ValueError, match="missing `dim N`"):
            load_algebra("# only comments\n")

    def test_bad_dim_values(self):
        with pytest.raises(ValueError, match="bad dimension"):
            load_algebra("dim three\n")
        with pytest.raises(ValueError, match="must be positive"):
            load_algebra("dim 0\n")

    def test_dimension_numpy_refuses_reported_with_its_line(self):
        # 10^21 structure constants: numpy refuses the array before it
        # allocates anything.
        with pytest.raises(ValueError, match=(
                "^invalid algebra file:\nline 2: dimension 10000000 is too "
                "large: its 10000000\\^3 structure constants cannot be "
                "allocated$")):
            load_algebra("# huge\ndim 10000000\n0 1 2 1.0\n")

    def test_dimension_out_of_memory_reported_with_its_line(self,
                                                            monkeypatch):
        # 8e15 bytes: the allocation is faked to fail as numpy's does when
        # memory runs out, so that nothing is allocated for real.
        shapes = []

        def zeros(shape):
            shapes.append(shape)
            raise MemoryError("Unable to allocate 7.11 PiB")

        monkeypatch.setattr(lie_poisson.np, "zeros", zeros)
        with pytest.raises(ValueError, match=(
                "^invalid algebra file:\nline 1: dimension 100000 is too "
                "large")):
            load_algebra("dim 100000\n0 1 2 1.0\n")
        assert shapes == [(100000,) * 3]

    def test_loaded_algebra_integrates(self):
        loaded = load_algebra(self.SO3_TEXT)
        system = EulerSystem(algebra=loaded, inertia=np.diag([1.0, 2.0, 3.0]))
        traj = integrate_euler(system, np.array([0.2, 0.9, 0.1]), 5.0,
                               MIDPOINT)
        energy = traj.invariant_log["energy"]
        assert np.max(np.abs(energy - energy[0])) / abs(energy[0]) < 1e-8
