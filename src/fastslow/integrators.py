"""Symplectic-leaning time integration and closeness diagnostics.

The full fast-oscillating system is integrated in its own fast time tau,
but every trajectory reports the slow time t = eps * tau in its time
column, so full and reduced runs share a clock. Reduced systems are
integrated directly in slow time with the eps-free vector fields

    canonical chart:  dQ/dt = P + mu a0(Q)
                      dP/dt = -d_Q (mu a0 . P + (1/2) mu^2 h0 + U0)
    magnetic chart:   dQ/dt = P1
                      dP1/dt = -grad Ubar_mu(Q) + B(Q)^T P1

with B_ij = mu (d_i a0_j - d_j a0_i). Each field reads the coefficients
and their derivatives from the system's jets (fastslow.averaging), one
call of each per evaluation. Every vector field receives its state as a
list of Python floats.

The default method is the implicit midpoint rule, solved by chord Newton
(one central-difference iteration matrix reused across the steps of an
integration; Hairer, Lubich & Wanner, Geometric Numerical Integration,
VIII.6) warm-started by polynomial extrapolation of the accepted nodes,
of order up to 5 chosen per step; classical RK4 is a non-symplectic
reference. Both run as one float loop generated per state size.

closeness_report measures sup_{t in [0, min(horizons, 1)]} of the
deviations |q - Q|, |p - P|, |gamma - mu| between a full trajectory and
a reduced one started from matching initial data; the averaging theorem
bounds the sum by a constant times eps on that window, and halving eps
should roughly halve the sup error. The constant itself is never
asserted, only the observed ratios.

Every sum of the steps and fields here is written out as float
additions from +0.0 in index order, never through the built-in sum(),
which from CPython 3.12 on is compensated (Neumaier) summation:
sum([1e16, 1.0, -1e16]) is 1.0 there and 0.0 on 3.11. What numpy still
computes is the chord matrix (a LAPACK inverse). CI compares the
output bytes of the four shipped configs, of euler with a nonzero
shift and of the disk on the exponential chart under CPython 3.11 and 3.12.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import string
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Literal, Sequence

import numpy as np

from ._derivatives import jacobian
from .averaging import TWO_PI, AveragedSystem, FastSlowSystem, \
    _check_finite, _dot, _floats, averaged_hamiltonian, effective_potential
from .bundle_geometry import PhaseStateFull, PhaseStateReduced, convert_chart

IC_MATCH_TOL = 1e-12
HORIZON_FACTOR_MAX = 10.0
PREDICTOR_MAX_ORDER = 5
_COMPILED_MAX = 256  # the most recently used functions _compiled keeps
# Rows per block of a pass over a whole trajectory (every node log,
# closeness_report, and the writers of fastslow.cli), so that a pass
# holds one block of Python floats or temporaries at a time. The writers
# hold the repr text of a whole block, about 70 bytes a float: at 4096
# rows that raised the peak RSS of `fastslow verify euler` by 3 MB
# (8%); at 512 rows a block of 7 columns holds about 0.25 MB.
_BLOCK_ROWS = 512


def _row_blocks(n: int):
    """The slices of rows 0 .. n-1 in blocks of _BLOCK_ROWS, in order."""
    for start in range(0, n, _BLOCK_ROWS):
        yield slice(start, min(start + _BLOCK_ROWS, n))


def _nodes(values: np.ndarray):
    """(i, row i of values as a list of floats) for every row in order,
    one _row_blocks block turned into floats at a time: the node pass of
    every per-node log."""
    for rows in _row_blocks(len(values)):
        yield from enumerate(values[rows].tolist(), rows.start)


class IntegrationError(RuntimeError):
    """Raised when a time step cannot be completed."""

    def __init__(self, message: str, step: int | None = None) -> None:
        super().__init__(message)
        self.step = step


@contextmanager
def _integration(where: str):
    """Add "(in the <where>)" to the message of an IntegrationError or
    ValueError raised inside, which keeps its type and its step."""
    try:
        yield
    except (IntegrationError, ValueError) as err:
        err.args = (f"{err} (in the {where})",)
        raise


@dataclass(frozen=True)
class IntegratorConfig:
    """Step-size and solver settings for the time steppers, and the one
    statement of their rules (the config parser checks with it).

    dt is a positive finite number, measured in fast time tau for the
    full system and in slow time t for reduced systems. newton_tol bounds
    the max-norm residual of the implicit midpoint solve, relative to
    max(1, |z|_inf), and must lie in (0, 1e-6]. newton_max_iter, an
    integer >= 1 (an integral float is stored as an int), caps the chord
    Newton updates per step, the extra update taken after the residual
    meets newton_tol included. Any bad value raises ValueError.
    """

    method: Literal["implicit_midpoint", "rk4"] = "implicit_midpoint"
    dt: float = 1e-2
    newton_tol: float = 1e-12
    newton_max_iter: int = 50

    def __post_init__(self) -> None:
        def real(x) -> bool:
            return isinstance(x, numbers.Real) and not isinstance(x, bool)

        if self.method not in ("implicit_midpoint", "rk4"):
            raise ValueError(f"unknown method {self.method!r}")
        if not (real(self.dt) and 0.0 < self.dt < math.inf):
            raise ValueError("dt must be a positive finite float")
        if not (real(self.newton_tol) and 0.0 < self.newton_tol <= 1e-6):
            raise ValueError("newton_tol must lie in (0, 1e-6]")
        n = self.newton_max_iter
        if not (real(n) and n >= 1 and n % 1 == 0):
            raise ValueError("newton_max_iter must be a positive integer")
        object.__setattr__(self, "newton_max_iter", int(n))


@dataclass
class Trajectory:
    """Sampled trajectory with per-node conserved-quantity logs.

    times is strictly increasing and measured in the slow clock (or the
    system's own physical clock for standalone simulations); values has
    one state per row. derivs, the state derivative in the same clock as
    times for cubic Hermite interpolation, is set by
    integrate_reduced_canonical only and is None on every other
    trajectory. invariant_log maps names to arrays aligned with times,
    and holds only quantities that are not already state columns:
    integrate_full logs "energy" and "phi_dot" (gamma is its state
    column); the integrate_reduced_* wrappers "energy" and the constant
    "momentum" mu; integrate_euler "energy", "momentum" (|xi|^2) and
    "casimir_shifted"; simulate_physical_pendulum "energy"; a bare
    integrate_autonomous run has no logs.
    """

    times: np.ndarray
    values: np.ndarray
    state_labels: tuple[str, ...]
    kind: str
    dim_base: int
    derivs: np.ndarray | None = None
    invariant_log: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[0] != self.times.size:
            raise ValueError("values must have one row per time node")
        if self.values.shape[1] != len(self.state_labels):
            raise ValueError("state_labels must match the state width")
        if self.times.size > 1 and not np.all(np.diff(self.times) > 0.0):
            raise ValueError("times must be strictly increasing")
        if self.derivs is not None:
            self.derivs = np.asarray(self.derivs, dtype=float)
            if self.derivs.shape != self.values.shape:
                raise ValueError("derivs must match the shape of values")

    def __len__(self) -> int:
        return self.times.size

    def state(self, i: int):
        """Node i as a typed phase state (full and reduced kinds only; a
        reduced kind other than reduced_magnetic is canonical)."""
        row = self.values[i]
        if self.kind == "full":
            return PhaseStateFull.from_array(row, self.dim_base)
        if self.kind.startswith("reduced"):
            return PhaseStateReduced.from_array(row, self.dim_base, chart=(
                "magnetic" if self.kind == "reduced_magnetic" else "canonical"))
        raise ValueError(f"kind {self.kind!r} has no typed state view")


_MIDPOINT_LOOP = """\
def midpoint_loop(f, z, values, steps, n_full, dt_full, rem, tol, max_iter):
    isfinite = math.isfinite
    $z = z
    $differences = 0.0
    $sizes = 0.0
    rows, fresh, dt_prev = 1, True, None
    updates = jacobians = evals = 0
    try:
        for i in range(steps):
            dt = dt_full if i < n_full else rem
            if i == 0:
                $c = c if type(c := f([$z])) is list else _floats(c)
                evals += 1
                $euler_guess
            elif dt != dt_prev:
                ratio = dt / dt_prev
                $linear_guess
                fresh = True  # the iteration matrix belongs to one dt
            else:
                $extrapolated_guess
            $z_size
            bound = tol * max(1.0, zmax)
            jac = 0
            $residual
            for k in range(max_iter):
                if fresh:
                    $inverse = np.linalg.inv(np.eye($n) - 0.5 * dt * jacobian(
                        lambda x: f(x.tolist()), [$y]).T).tolist()
                    jac += 1
                    fresh = False
                $chord_update
                if not ($x_finite):
                    raise IntegrationError("Newton iterate became non-finite")
                prev = err
                $residual
                if err <= bound:
                    if prev <= bound or k == max_iter - 1:
                        break
                elif err > 0.1 * prev:
                    fresh = True
            else:
                raise IntegrationError(
                    f"implicit midpoint Newton did not converge: residual "
                    f"{err:.3e} after {max_iter} updates (tol {tol:.1e})")
            updates += k + 1
            evals += k + 2 + 2 * $n * jac
            jacobians += jac
            $table_update
            $table_sizes
            if rows <= PREDICTOR_MAX_ORDER:
                rows += 1
            dt_prev = dt
            values[i + 1] = ($z)
    except (IntegrationError, ValueError) as err:
        _raise_at_step(err, i, dt_full)
    return updates, jacobians, evals
"""


def _midpoint_source(n: int) -> str:
    """The source of _MIDPOINT_LOOP for states of n floats. Its
    midpoint_loop(f, z, values, steps, n_full, dt_full, rem, tol,
    max_iter) takes the steps of integrate_autonomous from z, a list,
    stores node i + 1 into values[i + 1], and returns the run's Newton
    updates, Jacobians and evaluations of f.

    A line that holds one $name only becomes that block of lines, at its
    indentation; every other $name is an inline list. Every float of a
    step is a local named by kind and component: the state z, the guess
    and Newton iterate x, the midpoint y, the field value c, the
    residual r, the inverse a{row}_{col} of I - dt/2 J, and the backward
    differences d{k}_{i} = nabla^k z_n, k = 1 .. PREDICTOR_MAX_ORDER, of
    the accepted nodes (row 0 of the table is z), with their max-norms
    s{k}; rows counts the rows of the table. Each sum adds its terms from
    +0.0 in index order, the chord update one product per statement, so
    that no expression nests deeper as n grows, and each max-norm is a
    chain of comparisons that picks what max(map(abs, v)) picks.
    """
    top = PREDICTOR_MAX_ORDER
    comp = range(n)

    def lines(fmt: str) -> list:
        return [fmt.format(i=i) for i in comp]

    def max_abs(target: str, var: str) -> list:
        out = [f"{target} = abs({var}0)"]
        for i in range(1, n):
            out += [f"t = abs({var}{i})", f"if t > {target}:",
                    f"    {target} = t"]
        return out

    def guess(k: int) -> list:
        # Order k, raised while the table has the next row and its size
        # falls: the order selection of Hairer & Wanner, Solving ODEs II,
        # IV.8, for the polynomial through the newest k + 1 nodes.
        terms = "".join(f" + d{j}_{{i}}" for j in range(1, k + 1))
        sums = lines("x{i} = 0.0 + z{i}" + terms)
        if k == top:
            return sums
        return [f"if rows > {k + 1} and s{k + 1} < s{k}:",
                *["    " + line for line in guess(k + 1)],
                "else:", *["    " + line for line in sums]]

    residual = [*lines("y{i} = 0.5 * (z{i} + x{i})"),
                f"{_names('c{i}', n)} = c if type(c := f(["
                f"{_names('y{i}', n)}])) is list else _floats(c)",
                *lines("r{i} = x{i} - z{i} - dt * c{i}"),
                f"if not ({' and '.join(lines('isfinite(r{i})'))}):",
                '    raise IntegrationError("implicit midpoint residual is '
                'non-finite")',
                *max_abs("err", "r")]
    chord, table = [], []
    for i in comp:
        chord += [f"u = 0.0 + a{i}_0 * r0",
                  *[f"u += a{i}_{j} * r{j}" for j in range(1, n)],
                  f"x{i} -= u"]
        # Row k of the new table is its row k - 1 minus the old row k - 1.
        table += [f"e1 = x{i} - z{i}",
                  *[f"e{k} = e{k - 1} - d{k - 1}_{i}"
                    for k in range(2, top + 1)],
                  *[f"d{k}_{i} = e{k}" for k in range(top, 0, -1)],
                  f"z{i} = x{i}"]
    blocks = {
        "euler_guess": lines("x{i} = z{i} + dt * c{i}"),
        "linear_guess": lines("x{i} = z{i} + ratio * d1_{i}"),
        "extrapolated_guess": guess(1),
        "z_size": max_abs("zmax", "z"),
        "residual": residual,
        "chord_update": chord,
        "table_update": table,
        "table_sizes": [line for k in range(1, top + 1)
                        for line in max_abs(f"s{k}", f"d{k}_")],
    }
    inline = {
        "n": str(n), "z": _names("z{i}", n), "c": _names("c{i}", n),
        "y": _names("y{i}", n),
        "x_finite": " and ".join(lines("isfinite(x{i})")),
        "inverse": " ".join(f"({_names(f'a{r}_{{i}}', n)})," for r in comp),
        "differences": " = ".join(f"d{k}_{i}" for k in range(1, top + 1)
                                  for i in comp),
        "sizes": " = ".join(f"s{k}" for k in range(1, top + 1)),
    }
    return _expand(_MIDPOINT_LOOP, blocks, inline)


_RK4_LOOP = """\
def rk4_loop(f, z, values, steps, n_full, dt_full, rem):
    isfinite = math.isfinite
    $z = z
    try:
        for i in range(steps):
            dt = dt_full if i < n_full else rem
            half = 0.5 * dt
            $k1 = c if type(c := f([$z])) is list else _floats(c)
            $k2 = c if type(c := f([$half_k1])) is list else _floats(c)
            $k3 = c if type(c := f([$half_k2])) is list else _floats(c)
            $k4 = c if type(c := f([$full_k3])) is list else _floats(c)
            sixth = dt / 6.0
            $z = $update
            if not ($z_finite):
                raise IntegrationError("state became non-finite")
            values[i + 1] = ($z)
    except (IntegrationError, ValueError) as err:
        _raise_at_step(err, i, dt_full)
"""


def _rk4_source(n: int) -> str:
    """The source of _RK4_LOOP for states of n floats, expanded as in
    _midpoint_source with the state z{i} and the stages k1_{i} .. k4_{i}.
    Stage points and update are grouped as numpy groups z + half * k and
    z + sixth * (k1 + 2 k2 + 2 k3 + k4) on arrays, so bits match numpy's."""
    return _expand(_RK4_LOOP, {}, {
        "z": _names("z{i}", n), "k1": _names("k1_{i}", n),
        "k2": _names("k2_{i}", n), "k3": _names("k3_{i}", n),
        "k4": _names("k4_{i}", n),
        "z_finite": " and ".join(f"isfinite(z{i})" for i in range(n)),
        "half_k1": _names("z{i} + half * k1_{i}", n),
        "half_k2": _names("z{i} + half * k2_{i}", n),
        "full_k3": _names("z{i} + dt * k3_{i}", n),
        "update": _names("z{i} + sixth * (k1_{i} + 2.0 * k2_{i} + 2.0 * k3_{i}"
                         " + k4_{i})", n)})


def _names(fmt: str, n: int) -> str:
    """fmt formatted for i = 0 .. n - 1, as the items of a tuple."""
    return ", ".join(fmt.format(i=i) for i in range(n)) + ","


def _expand(template: str, blocks: dict, inline: dict) -> str:
    """template with a line that holds one $name only replaced by the
    lines of blocks[name], at its indentation, and every other $name by
    the string inline[name]."""
    out = []
    for line in template.splitlines():
        body = line.lstrip()
        if body[1:] in blocks:
            pad = line[:len(line) - len(body)]
            out += [pad + block_line for block_line in blocks[body[1:]]]
        else:
            out.append(string.Template(line).substitute(inline))
    return "\n".join(out) + "\n"


# The reprs of the non-finite floats, which generated code may hold.
inf, nan = math.inf, math.nan


@functools.lru_cache(maxsize=_COMPILED_MAX)
def _compiled(source: str) -> Callable:
    """The one function that source defines, compiled at the first call
    with this source text and run in this module's namespace (as
    dataclasses builds methods): the one cache of generated code."""
    namespace = {}
    exec(compile(source, "<generated>", "exec"), globals(), namespace)
    (function,) = namespace.values()
    return function


_FULL_FIELD = """\
def full_field(slow, fast, eps):
    neg_eps = -eps

    def rhs(z):
        $z = z
        q = [$q]
        a0, h0, _, ga0, gh0, gU0 = slow(q)
        a1, h1, _, ga1, gh1, gU1, da1, dh1, dU1 = fast(q, phi)
        $slots
        half_gam2 = 0.5 * gam * gam
        $coefficients
        $momentum_rows
        ap = 0.0$ap
        dap = 0.0$dap
        return [$out
                ap + (h0 + eps * h1) * gam,
                neg_eps * (gam * dap + half_gam2 * dh1 + dU1)]

    return rhs
"""


def _full_field_source(l: int) -> str:
    """The source of _FULL_FIELD for dim_base l, expanded as the midpoint
    loop's is. Its full_field(slow, fast, eps) returns the field of a
    system with those jets and epsilon. The state unpacks into q{i},
    p{i}, phi and gam, and each slot, as the jet format of
    fastslow.averaging gives it, into locals named after it and its
    indices (ga0_{i}_{k} is ga0[i][k]), with no conversion. a_{i} is
    a0 + eps a1, and dp{i} is row i of dp/dtau.
    """
    comp = range(l)
    vectors = ("a0", "gh0", "gU0", "a1", "gh1", "gU1", "da1")

    def dot(fmt: str) -> str:
        return "".join(" + " + fmt.format(i=i) + " * p" + str(i)
                       for i in comp)

    slots = [f"{_names(s + '_{i}', l)} = {s}" for s in vectors] + [
        " ".join(f"({_names(s + f'_{i}_{{i}}', l)}),"
                 for i in comp) + f" = {s}"
        for s in ("ga0", "ga1")]
    rows = []
    for i in comp:
        rows += [f"jp = 0.0{dot(f'(ga0_{i}_{{i}} + eps * ga1_{i}_{{i}})')}",
                 f"dp{i} = neg_eps * (gam * jp + half_gam2 * (gh0_{i} + eps "
                 f"* gh1_{i}) + (gU0_{i} + eps * gU1_{i}))"]
    blocks = {
        "slots": slots,
        "coefficients": [f"a_{i} = a0_{i} + eps * a1_{i}" for i in comp],
        "momentum_rows": rows,
    }
    inline = {
        "z": _names("q{i}", l) + " " + _names("p{i}", l) + " phi, gam",
        "q": _names("q{i}", l),
        "ap": dot("a_{i}"), "dap": dot("da1_{i}"),
        "out": (_names("eps * (p{i} + gam * a_{i})", l) + " "
                + _names("dp{i}", l)),
    }
    return _expand(_FULL_FIELD, blocks, inline)


def _raise_at_step(err: Exception, i: int, dt: float):
    """Raise err, an IntegrationError or a ValueError from step i, again
    with "step i (t=...)" in front of its message. An IntegrationError
    becomes a new one that carries the step; a ValueError (a DomainError
    or LinAlgError, say) keeps its type."""
    prefix = f"step {i} (t={i * dt:.6g}): "
    if isinstance(err, IntegrationError):
        raise IntegrationError(prefix + str(err), step=i) from err
    err.args = (prefix + str(err),)
    raise err


def _step_count_error(horizon: float, dt: float) -> ValueError:
    """The error of a run of horizon at dt that takes more steps than
    can be stored, raised before a step."""
    return ValueError(f"horizon {horizon:.6g} at dt {dt:.6g} takes "
                      f"{horizon / dt:.6g} steps, too many to store")


def _step_plan(horizon: float, dt: float) -> tuple[int, float, int]:
    """(n, rem, steps): n = floor(horizon / dt + 1e-9) steps of dt, then
    one of rem = horizon - n dt if rem > 1e-12 max(1, horizon). A horizon
    not positive and finite (_check_finite), no step or over sys.maxsize
    raise ValueError."""
    _check_finite("horizon", horizon, positive=True)
    count = horizon / dt + 1e-9
    if not count < sys.maxsize:  # so steps <= n + 1 <= sys.maxsize
        raise _step_count_error(horizon, dt)
    n = int(count)
    rem = horizon - n * dt
    steps = n + 1 if rem > 1e-12 * max(1.0, horizon) else n
    if steps == 0:
        raise ValueError(f"horizon {horizon:.6g} at dt {dt:.6g} takes no "
                         "step")
    return n, rem, steps


def _check_horizon(horizon: float, epsilon: float) -> None:
    """Raise a ValueError, before a step, for a run of the epsilon
    system beyond the supported horizon HORIZON_FACTOR_MAX / epsilon."""
    if horizon > HORIZON_FACTOR_MAX / epsilon * (1.0 + 1e-9):
        raise ValueError(
            f"horizon {horizon:.6g} exceeds the supported bound "
            f"{HORIZON_FACTOR_MAX:g}/epsilon = "
            f"{HORIZON_FACTOR_MAX / epsilon:.6g}")


def integrate_autonomous(f: Callable[[list], list | np.ndarray],
                         z0: np.ndarray,
                         horizon: float,
                         config: IntegratorConfig,
                         *,
                         state_labels: Sequence[str],
                         kind: str,
                         dim_base: int,
                         meta: dict | None = None) -> Trajectory:
    """Integrate dz/dt = f(z) over [0, horizon].

    The run takes the steps of _step_plan(horizon, dt). Node i is at
    i * dt and the last at horizon, so a run to a node's time retakes
    the steps before it. A horizon _step_plan refuses, more steps than
    numpy can store (2**62 or so, or more than memory holds), or a z0
    of no float raises ValueError before a step is taken.

    To run backward, pass -f: the times still increase from 0, and since
    IEEE negation is exact, dt (-f) rounds as (-dt) f does, the
    central-difference Jacobian of -f included. The returned trajectory
    has an empty invariant_log: each caller that logs takes its logs
    after the run, in one node pass (_nodes).

    An IntegrationError from a step is raised again with "step i (t=...)"
    in front of its message, and a ValueError raised by f (a DomainError
    or LinAlgError, say) keeps its type and gains the same prefix.

    The implicit midpoint step z' = z + dt f((z + z')/2) is solved by
    chord Newton. The iteration matrix, the inverse of I - dt/2 J with J
    the central-difference Jacobian at the midpoint, is kept from step to
    step. It is built on the first step and again on a step whose size
    differs from the last one (the final partial step), and whenever an
    update leaves the residual above tolerance and shrinks it less than
    tenfold, so a hard step falls back to full Newton. Once the max-norm
    residual meets newton_tol max(1, |z|_inf), one more update is taken,
    if newton_max_iter allows, and accepted if it meets tolerance too;
    long runs then drift less. A non-finite residual or iterate, or no
    convergence within newton_max_iter updates, raises IntegrationError.

    The solve starts from z + dt f(z) on the first step, from linear
    extrapolation on a step whose size differs from the last one, and
    otherwise from the polynomial through the newest k + 1 nodes taken
    one step ahead, z_n + nabla z_n + ... + nabla^k z_n in backward
    differences. As in the order selection of Adams and BDF codes
    (Hairer & Wanner, Solving ODEs II, IV.8), k starts at 1 and is
    raised, up to PREDICTOR_MAX_ORDER, while
    |nabla^{k+1} z_n|_inf < |nabla^k z_n|_inf, so a rough or
    under-resolved history keeps a low order. meta then also holds the
    run's totals "newton_updates", "jacobians" and "rhs_evals" (every
    evaluation of f the steps made, Jacobian columns included). The
    returned trajectory carries no derivs.

    f receives a list of Python floats on every call and returns a list
    of floats or an array. Each method runs as one loop compiled for the
    state size (_midpoint_source, _rk4_source), in which every number of
    a step is a Python float: numpy makes only the midpoint rule's
    Jacobian and its inverse, which is turned into floats once, so no
    BLAS kernel rounds a number of a step. Both loops store each node
    into the preallocated values array.
    """
    z0 = np.asarray(z0, dtype=float)
    n, rem, steps = _step_plan(horizon, config.dt)
    if z0.size == 0:
        raise ValueError("z0 must hold at least one float")
    try:
        values = np.empty((steps + 1, z0.size))
    except (ValueError, MemoryError) as err:
        # numpy refuses an array of more than 2**63 bytes with ValueError,
        # and memory it cannot get with MemoryError.
        raise _step_count_error(horizon, config.dt) from err
    values[0] = z0
    counts = {}
    if config.method != "rk4":
        counts = dict(zip(("newton_updates", "jacobians", "rhs_evals"),
                          _compiled(_midpoint_source(z0.size))(
                              f, z0.tolist(), values, steps, n, config.dt,
                              rem, config.newton_tol, config.newton_max_iter)))
    else:
        _compiled(_rk4_source(z0.size))(f, z0.tolist(), values, steps, n,
                                        config.dt, rem)
    times = np.arange(steps + 1) * config.dt
    times[steps] = horizon
    return Trajectory(times=times, values=values,
                      state_labels=tuple(state_labels), kind=kind,
                      dim_base=dim_base, meta={**(meta or {}), **counts})


def _full_rhs(system: FastSlowSystem) -> Callable[[list], list]:
    """The full field in fast time, on lists of Python floats.

    It is the field compiled for the system's dim_base at its first use
    (_full_field_source), as the midpoint loop is for each state size.
    Each evaluation makes one call of each jet and reads their slots as
    they are (the jet format of fastslow.averaging). Each x0 + eps x1 is
    formed per component, and a dot product adds the rounded products in
    index order from +0. For dim_base 1 that is numpy's dot
    bit for bit; longer dots can differ from a BLAS kernel that fuses
    multiply-adds, by rounding alone.
    """
    return _compiled(_full_field_source(system.dim_base))(
        system.slow, system.fast, system.epsilon)


def full_velocities(system: FastSlowSystem,
                    state: PhaseStateFull) -> tuple[np.ndarray, float]:
    """Mixed-clock velocities (u, xi) of a full state.

    u = p + gamma a(q, phi) is the base velocity in the slow clock and
    xi = a . p + h gamma the fiber velocity dphi/dtau in the fast clock;
    these are the velocity slots at which the bundle momentum map
    reproduces gamma.
    """
    q = _floats(state.q)
    a0 = np.asarray(system.slow(q)[0], dtype=float)
    a1 = np.asarray(system.fast(q, state.phi)[0], dtype=float)
    u = state.p + state.gamma * (a0 + system.epsilon * a1)
    xi = system.energy_and_fiber_speed(state.q, state.p, state.phi,
                                       state.gamma)[1]
    return u, xi


def integrate_full(system: FastSlowSystem, state0: PhaseStateFull,
                   horizon: float, config: IntegratorConfig,
                   backward: bool = False) -> Trajectory:
    """Integrate the full system over fast time [0, horizon].

    horizon and config.dt are measured in the fast time tau and horizon
    may not exceed 10 / epsilon; the returned time column is the slow
    time t = eps * tau. backward=True integrates the negated field, so
    that with a forward run it forms the time-reversal test of the
    symmetric midpoint rule. Energy and the fiber speed dphi/dtau
    (negated for a backward run) are logged at every node; the fiber
    momentum gamma is the last state column. The stored phi column is
    wrapped to [0, 2*pi). There are no derivs, so "rhs_evals" counts the
    solver's evaluations alone. The logs are taken in one node pass
    (_nodes), so they hold one block of Python floats at most.
    """
    eps = system.epsilon
    _check_horizon(horizon, eps)
    l = system.dim_base
    rhs = _full_rhs(system)
    f = (lambda z: [-v for v in rhs(z)]) if backward else rhs
    labels = tuple([f"q{i + 1}" for i in range(l)]
                   + [f"p{i + 1}" for i in range(l)] + ["phi", "gamma"])

    traj = integrate_autonomous(
        f, state0.as_array(), horizon, config, state_labels=labels,
        kind="full", dim_base=l,
        meta={"epsilon": eps, "mu": system.mu, "clock": "slow (t = eps tau)"})
    # One evaluation of a and h per node gives both the energy and the
    # fiber speed, the phi component of the compiled field (_full_rhs)
    # term for term: the same sums in the same order.
    energy, phi_dot = np.empty((2, len(traj)))
    for i, z in _nodes(traj.values):
        energy[i], phi_dot[i] = system.energy_and_fiber_speed(
            z[:l], z[l:2 * l], z[2 * l], z[2 * l + 1])
    if backward:
        phi_dot = -phi_dot
    traj.invariant_log = {"energy": energy, "phi_dot": phi_dot}
    traj.times = eps * traj.times
    traj.values[:, 2 * l] = np.mod(traj.values[:, 2 * l], TWO_PI)
    return traj


def integrate_reduced_canonical(avg: AveragedSystem,
                                state0: PhaseStateReduced, horizon: float,
                                config: IntegratorConfig) -> Trajectory:
    """Integrate the averaged system in the canonical chart.

    horizon and config.dt are measured directly in the slow time t; the
    eps prefactors of the slow equations are absorbed by that clock
    change, so no epsilon enters. The averaged energy is logged, and the
    momentum log holds the constant mu (exactly, since mu is a parameter
    of the flow rather than an evolving state). derivs holds the field at
    every node, taken with the energy in one node pass (_nodes), and
    meta["rhs_evals"], if present, counts those calls.
    """
    state0 = convert_chart(state0, lambda Q: avg.slow(_floats(Q))[0],
                           avg.mu, "canonical")
    l = avg.dim_base
    mu = avg.mu
    slow = avg.slow

    def f(z: list) -> list:
        P = z[l:]
        a0, _, _, ga0, gh0, gU0 = slow(z[:l])
        out = [P_i + mu * a_i for P_i, a_i in zip(P, a0)]
        for row, gh_i, gU_i in zip(ga0, gh0, gU0):
            out.append(-(mu * _dot(row, P) + 0.5 * mu * mu * gh_i + gU_i))
        return out

    labels = tuple([f"Q{i + 1}" for i in range(l)]
                   + [f"P{i + 1}" for i in range(l)])
    traj = integrate_autonomous(
        f, state0.as_array(), horizon, config, state_labels=labels,
        kind="reduced_canonical", dim_base=l,
        meta={"mu": mu, "clock": "slow"})
    if "rhs_evals" in traj.meta:
        traj.meta["rhs_evals"] += len(traj)
    energy, derivs = np.empty(len(traj)), np.empty_like(traj.values)
    for i, z in _nodes(traj.values):
        energy[i] = averaged_hamiltonian(avg, z[:l], z[l:])
        derivs[i] = f(z)
    traj.invariant_log = {"energy": energy,
                          "momentum": np.full(len(traj), mu)}
    return dataclasses.replace(traj, derivs=derivs)


def integrate_reduced_magnetic(avg: AveragedSystem,
                               state0: PhaseStateReduced, horizon: float,
                               config: IntegratorConfig) -> Trajectory:
    """Integrate the averaged system in the magnetic (shifted) chart.

    The state is (Q, P1) with P1 = P + mu a0(Q) and the flow is

        dQ/dt = P1,   dP1/dt = -grad Ubar_mu(Q) + B(Q)^T P1,

    a Lorentz force with magnetic matrix B. A reduction whose kinetic
    energy is not (1/2)|P1|^2, such as the disk of
    systems.disk_magnetic_rhs, has a field of its own for
    integrate_autonomous. The field and the energy log (one node pass)
    are Python floats; each dot is a _dot, a sum from +0 in index order
    as the compiled full field (_full_rhs) writes its dots out, numpy's
    dot bit for bit when it has one nonzero product.
    """
    state0 = convert_chart(state0, lambda Q: avg.slow(_floats(Q))[0],
                           avg.mu, "magnetic")
    l = avg.dim_base
    mu = avg.mu
    slow = avg.slow
    half_mu2 = 0.5 * mu * mu
    rows = range(l)

    def f(z: list) -> list:
        v = z[l:]
        a0, _, _, ga0, gh0, gU0 = slow(z[:l])
        # -grad Ubar_mu = -(0.5 mu^2 (gh0 - 2 ga0 a0) + gU0), plus column
        # i of B = mu (ga0 - ga0^T) dotted with v.
        return v + [-(half_mu2 * (gh0[i] - 2.0 * _dot(ga0[i], a0)) + gU0[i])
                    + _dot([mu * (ga0[k][i] - ga0[i][k]) for k in rows], v)
                    for i in rows]

    labels = tuple([f"Q{i + 1}" for i in range(l)]
                   + [f"P1_{i + 1}" for i in range(l)])
    traj = integrate_autonomous(
        f, state0.as_array(), horizon, config, state_labels=labels,
        kind="reduced_magnetic", dim_base=l,
        meta={"mu": mu, "clock": "slow"})
    energy = np.empty(len(traj))
    for i, z in _nodes(traj.values):
        P1 = z[l:]
        energy[i] = 0.5 * _dot(P1, P1) + effective_potential(avg, z[:l])
    traj.invariant_log = {"energy": energy,
                          "momentum": np.full(len(traj), mu)}
    return traj


def hermite_interpolate(times: np.ndarray, values: np.ndarray,
                        derivs: np.ndarray,
                        t_query: np.ndarray) -> np.ndarray:
    """Cubic Hermite interpolation of sampled values with derivatives."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    derivs = np.asarray(derivs, dtype=float)
    t_query = np.atleast_1d(np.asarray(t_query, dtype=float))
    if times.size < 2:
        return np.repeat(values[:1], t_query.size, axis=0)
    idx = np.clip(np.searchsorted(times, t_query, side="right") - 1,
                  0, times.size - 2)
    t0 = times[idx]
    t1 = times[idx + 1]
    h = t1 - t0
    s = ((t_query - t0) / h)[:, None]
    y0 = values[idx]
    y1 = values[idx + 1]
    d0 = derivs[idx] * h[:, None]
    d1 = derivs[idx + 1] * h[:, None]
    s2 = s * s
    s3 = s2 * s
    return ((2.0 * s3 - 3.0 * s2 + 1.0) * y0 + (s3 - 2.0 * s2 + s) * d0
            + (-2.0 * s3 + 3.0 * s2) * y1 + (s3 - s2) * d1)


@dataclass(frozen=True)
class ClosenessReport:
    """Sup-norm deviations between a full and a reduced trajectory.

    Errors are measured over slow times t in [0, min(horizons, 1)],
    i.e. fast times up to 1/eps; horizon records the fast-time length
    actually compared. sup_error_total is the sup over that window of
    |q-Q| + |p-P| + |gamma-mu| at one node; the halving ratio of a
    sweep (fastslow.experiments) divides the previous epsilon's
    sup_error_total by the next one's.
    """

    sup_error_q: float
    sup_error_p: float
    sup_error_gamma: float
    sup_error_total: float
    horizon: float
    epsilon: float


def closeness_report(full: Trajectory,
                     reduced: Trajectory) -> ClosenessReport:
    """Compare a full trajectory against a canonical-chart reduced one.

    dim_base, mu and epsilon are read from the full run, where
    integrate_full stores them (dim_base, meta["mu"], meta["epsilon"]).
    Initial conditions must match to 1e-12 ((q, p)(0) = (Q, P)(0) and
    gamma(0) = mu). The reduced trajectory, as integrate_reduced_canonical
    returns it, is cubic-Hermite interpolated to the full trajectory's
    time nodes; deviations use the Euclidean norm per node. Any other
    pair of kinds, a magnetic-chart reduced trajectory among them, and a
    reduced trajectory without derivs raise ValueError.

    The nodes are interpolated and compared one block of rows at a time
    (_row_blocks), and each sup is the max of the block maxima. Every
    operation is per node, so the report does not depend on the block
    size, and the temporaries are one block long.
    """
    if full.kind != "full" or reduced.kind != "reduced_canonical":
        raise ValueError(
            "closeness_report takes one full and one canonical-chart "
            f"reduced trajectory, got kinds {full.kind!r} and "
            f"{reduced.kind!r}")
    if reduced.derivs is None:
        raise ValueError("the reduced trajectory has no derivative column "
                         "(derivs); integrate_reduced_canonical gives one")
    l = full.dim_base
    mu = full.meta["mu"]
    eps = full.meta["epsilon"]
    red_values = reduced.values

    dq0 = float(np.max(np.abs(full.values[0, :l] - red_values[0, :l])))
    dp0 = float(np.max(np.abs(full.values[0, l:2 * l] - red_values[0, l:2 * l])))
    dg0 = abs(full.values[0, 2 * l + 1] - mu)
    if max(dq0, dp0, dg0) > IC_MATCH_TOL:
        raise ValueError(
            "initial conditions do not match: |q0-Q0|=%.3e, |p0-P0|=%.3e, "
            "|gamma0-mu|=%.3e exceed 1e-12" % (dq0, dp0, dg0))

    s_cap = min(full.times[-1], reduced.times[-1], 1.0)
    # The times increase strictly, so the nodes compared are a prefix.
    n_cmp = int(np.count_nonzero(
        full.times <= s_cap * (1.0 + 1e-12) + 1e-300))
    sups = []
    for rows in _row_blocks(n_cmp):
        interp = hermite_interpolate(reduced.times, red_values,
                                     reduced.derivs, full.times[rows])
        block = full.values[rows]
        err_q = np.sqrt(np.sum((block[:, :l] - interp[:, :l]) ** 2, axis=1))
        err_p = np.sqrt(np.sum((block[:, l:2 * l] - interp[:, l:]) ** 2,
                               axis=1))
        err_g = np.abs(block[:, 2 * l + 1] - mu)
        sups.append((np.max(err_q), np.max(err_p), np.max(err_g),
                     np.max(err_q + err_p + err_g)))
    # np.max, not max: a NaN in any block reaches the report.
    sup_q, sup_p, sup_g, sup_total = np.max(sups, axis=0).tolist()
    return ClosenessReport(
        sup_error_q=sup_q, sup_error_p=sup_p, sup_error_gamma=sup_g,
        sup_error_total=sup_total, horizon=float(s_cap / eps), epsilon=eps)
