"""Tests for Lie algebras, central extensions, and Euler equations.

Oracles: the coadjoint action is pinned by the pairing identity
<ad*_X xi, Y> = <xi, [X, Y]>, which on so(3) evaluates to the cross
product xi x X; the rigid-body vector field follows componentwise from
that action; shift cocycles are structure-constant contractions small
enough to compute by hand; and the extended bracket on linear
functions must satisfy the Jacobi identity whenever the cocycle
identity holds, which is the joint consistency check for both. The
float closures of the Euler and extension fields are pinned by einsum
contractions of the same arrays, and the invariant logs by float sums
written out in index order; EulerSystem.energy is the energy log's sum.
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
from fastslow.cli import parse_config, shipped_config_text
from fastslow.experiments import _params, integrator_configs
from fastslow.lie_poisson import _euler_field, _extended_field

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
            field = euler_vector_field(system, xi)
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
        assert np.array_equal(euler_vector_field(system, shift), np.zeros(3))

    def test_energy_orthogonality(self):
        # <field, I^{-1} xi> = <xi - L, [v, v]> = 0 for every state.
        rng = np.random.default_rng(31)
        for factory in (so3, heisenberg3, oscillator4):
            alg = factory()
            system = EulerSystem(
                algebra=alg, inertia=random_spd(rng, alg.dim),
                shift=rng.standard_normal(alg.dim))
            for _ in range(10):
                xi = rng.standard_normal(alg.dim)
                field = euler_vector_field(system, xi)
                assert abs(field @ system.velocity(xi)) < 1e-13

    def test_extended_field_matches_shifted_euler(self):
        # Coboundary cocycles and momentum shifts generate the same
        # flow; this is the field-level half of the two-path check.
        rng = np.random.default_rng(37)
        for name, factory in BUILTIN_ALGEBRAS.items():
            alg = factory()
            inertia = random_spd(rng, alg.dim)
            shift = rng.standard_normal(alg.dim)
            system = EulerSystem(algebra=alg, inertia=inertia, shift=shift)
            coc = shift_cocycle(alg, shift)
            for _ in range(5):
                xi = rng.standard_normal(alg.dim)
                from_euler = euler_vector_field(system, xi)
                from_bracket = extended_hamiltonian_field(
                    alg, coc, inertia, xi)
                assert np.max(np.abs(from_euler - from_bracket)) < 1e-13, name

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
            for _ in range(5):
                xi = rng.standard_normal(alg.dim)
                dh = np.linalg.solve(inertia, xi)
                field = extended_hamiltonian_field(alg, coc, inertia, xi)
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
            euler = _euler_field(EulerSystem(algebra=alg, inertia=inertia,
                                             shift=shift))
            extended = _extended_field(alg, coc, inertia)
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
        for _ in range(5):
            xi = rng.standard_normal(alg.dim)
            gap = np.max(np.abs(
                euler_vector_field(system, xi)
                - extended_hamiltonian_field(alg, flipped, inertia, xi)))
            assert gap > 1e-3, name


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
            lambda xi: extended_hamiltonian_field(alg, coc, inertia, xi),
            xi0, 10.0, MIDPOINT,
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

    def test_loaded_algebra_integrates(self):
        loaded = load_algebra(self.SO3_TEXT)
        system = EulerSystem(algebra=loaded, inertia=np.diag([1.0, 2.0, 3.0]))
        traj = integrate_euler(system, np.array([0.2, 0.9, 0.1]), 5.0,
                               MIDPOINT)
        energy = traj.invariant_log["energy"]
        assert np.max(np.abs(energy - energy[0])) / abs(energy[0]) < 1e-8
