"""Nonlinear mean-field dynamics of the one-particle density matrix.

The evolution equation integrated here is the large-N limit of the N-boson
dynamics with subset-summed m-body interactions and 1/N^(m-1) scaling:

    i dgamma/dt = [V1, gamma] + sum_m (1/(m-1)!) tr_[2..m][ V^(m), gamma^(x m) ]

which is equivalent to i dgamma/dt = [h(gamma), gamma] with the effective
one-particle Hamiltonian

    h(gamma) = V1 + sum_m (1/(m-1)!) tr_[2..m]( V^(m) (1 (x) gamma^(x (m-1))) ).

For two-body interactions this is the familiar Hartree equation.  The
1/(m-1)! weights are forced by the combinatorics of subset sums; with them
the functional tr(V1 gamma) + sum_m (1/m!) tr(V^(m) gamma^(x m)) is exactly
conserved, and trace, Hermiticity and the spectrum of gamma are conserved
structurally.  The integrator never renormalizes, so any drift stays in the
states, where the tests measure it.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._limits import MAX_STEPS, refuse

DENSITY_ATOL = 1e-10

# Relaxed construction tolerance for integrator output: adaptive stepping at
# tol ~ 1e-9 legitimately perturbs the zero eigenvalues of a pure state by
# roughly the accumulated error, which the strict tolerance would reject.
TRAJECTORY_ATOL = 1e-6


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Positive unit-trace Hermitian matrix on ``order`` >= 1 particle slots.

    ``atol`` is the construction tolerance for the three invariants
    (Hermiticity, unit trace, positivity).
    """

    order: int
    d: int
    matrix: np.ndarray
    atol: float = field(default=DENSITY_ATOL, repr=False, compare=False)

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if self.d < 1:
            raise ValueError("single-particle dimension must be >= 1")
        mat = np.array(self.matrix, dtype=np.complex128)
        dim = self.d**self.order
        if mat.shape != (dim, dim):
            raise ValueError(f"expected a {dim}x{dim} matrix, got {mat.shape}")
        herm = float(np.max(np.abs(mat - mat.conj().T)))
        if herm > self.atol:
            raise ValueError(f"not Hermitian (max deviation {herm:.3e})")
        tr_dev = abs(np.trace(mat) - 1.0)
        if tr_dev > self.atol:
            raise ValueError(f"trace deviates from 1 by {tr_dev:.3e}")
        eigmin = float(np.linalg.eigvalsh(mat)[0])
        if eigmin < -self.atol:
            raise ValueError(f"not positive semidefinite (min eigenvalue {eigmin:.3e})")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


def pure_state_density(phi):
    """|phi><phi| as an order-1 density matrix; phi must be normalized."""
    v = np.asarray(phi, dtype=np.complex128).reshape(-1)
    dev = abs(np.linalg.norm(v) - 1.0)
    if not dev <= DENSITY_ATOL:
        raise ValueError(f"state norm deviates from 1 by {dev:.3e}")
    return DensityMatrix(1, v.size, np.outer(v, v.conj()))


def _contractions(spec):
    """V1 flattened (0 without one), then V^(m)/(m-1)! for each order m >= 2, ascending, as
    a d^2 x d^(2(m-1)) matrix over (a, b) x (j_2, i_2, .., j_m, i_m): its product with the
    outer product of m - 1 flattened gammas is the order-m part of h(gamma)."""
    d = spec.d
    mats = [spec.terms[1].reshape(-1) if 1 in spec.terms else np.zeros(d * d, np.complex128)]
    for m in spec.interaction_orders:
        axes = [0, m] + [a for s in range(1, m) for a in (m + s, s)]
        v = spec.terms[m].reshape((d,) * 2 * m).transpose(axes)
        mats.append(v.reshape(d * d, -1) / math.factorial(m - 1))
    return mats


def _order_parts(g, contractions):
    """h(gamma)'s order-1 part, then each higher order's, flattened and not hermitized."""
    yield contractions[0]
    flat = power = g.reshape(-1)
    for c in contractions[1:]:
        while power.size < c.shape[1]:  # extend gamma^(x (m-1)) from the lower order's
            power = np.multiply.outer(power, flat).reshape(-1)
        yield c @ power


def _rhs(g, contractions):
    # -i [h(g), g] for a raw d x d matrix g; h = (p + p^+)/2, p the parts' sum, halved by -i/2
    h = sum(_order_parts(g, contractions)).reshape(g.shape)
    h = h + h.conj().T
    return -0.5j * (h @ g - g @ h)


def _check_times(times):
    """times as a float64 array; the one time-grid rule of every propagator:
    non-empty, 1-d, finite, non-negative and strictly increasing."""
    t = np.asarray(times, dtype=np.float64)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("times must be a non-empty 1-d sequence")
    if not (np.all(np.isfinite(t)) and t[0] >= 0 and np.all(np.diff(t) > 0)):
        raise ValueError("times must be finite, non-negative and strictly increasing")
    return t


def _check_one_body(gamma, spec, name="gamma"):
    if gamma.order != 1 or gamma.d != spec.d:
        raise ValueError(f"{name} must be an order-1 density matrix matching spec.d")


def mean_field_energy(gamma, spec):
    """Conserved energy tr(V1 gamma) + sum_m (1/m!) tr(V^(m) gamma^(x m)), summed as
    sum_m tr(h_m gamma) / m, h_m the order-m part of h(gamma)."""
    _check_one_body(gamma, spec)
    g = gamma.matrix
    parts = _order_parts(g, _contractions(spec))
    e = sum(part @ g.T.reshape(-1) / m for m, part in zip((1, *spec.interaction_orders), parts))
    return float(np.real(e))


@dataclass(frozen=True, eq=False)
class HartreeTrajectory:
    """The states at the requested times, and ``step_times``, the end time of
    every accepted step."""

    states: list
    step_times: np.ndarray


# Dormand-Prince 5(4) (J. Comput. Appl. Math. 6, 1980): rows 0-5 are the stage
# coefficients, row 5 the 5th-order weights, and row 6 the error weights (5th-
# minus 4th-order); the right-hand side is autonomous, so no c nodes.
_DP = np.array([
    [1 / 5, 0, 0, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0, 0],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0],
    [71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40],
])


def _dp_step(f, y, dt, k):
    """One attempt from y, given k[0] = f(y) in the (7, n) stage table k: fills
    k[1:] and returns the 5th-order point z and the error estimate.  Row 5 is
    the 5th-order weights, so the last stage point is z and k[6] = f(z) is the
    next step's k[0]: 6 evaluations of f."""
    a = dt * _DP
    for i in range(6):
        z = y + a[i, :i + 1] @ k[:i + 1]
        k[i + 1] = f(z)
    return z, a[6] @ k


def _guard_steps(spec, t_end):
    """Refuse a last time t_end past the step budget: ||h(gamma)|| <= L = sum_m
    ||V^(m)|| / (m-1)!, and every measured run takes at least 2 steps per unit
    of L*t (8 to 33 at tol <= 1e-9), so past MAX_STEPS units it cannot suffice."""
    rate = sum(norm / math.factorial(m - 1) for m, norm in spec.norms.items())
    refuse(lambda t: rate * t, t_end, MAX_STEPS, f"t = {t_end:.6g} is too long for the mean-field "
           f"integrator: with L = {rate:.3g} bounding ||h(gamma)||, L*t", None)


def hartree_evolve(gamma0, spec, times, tol=1e-9):
    """Adaptive embedded Runge-Kutta integration of the mean-field equation.

    Snapshots are produced by exact step alignment: the stepper clamps onto
    every requested time, so no dense interpolation enters the reported
    states.  Local error per step is held at or below ``tol`` (mixed
    absolute/relative, RMS over matrix entries).
    """
    _check_one_body(gamma0, spec, "gamma0")
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    times = _check_times(times)
    t_end = float(times[-1])
    _guard_steps(spec, t_end)

    d = spec.d
    contractions = _contractions(spec)

    def f(y):
        return _rhs(y.reshape(d, d), contractions).reshape(-1)

    y = gamma0.matrix.reshape(-1)
    k = np.empty((7, y.size), dtype=np.complex128)
    k[0] = f(y)
    t = 0.0
    states = [gamma0] if times[0] == 0.0 else []

    rhs0_scale = float(np.max(np.abs(k[0])))
    dt = min(1e-2, t_end / 10.0)
    if rhs0_scale > 0:
        dt = min(dt, 0.1 / rhs0_scale)
    dt = max(dt, 1e-8)

    log_t = []
    n_steps = 0
    while len(states) < len(times):
        if n_steps > MAX_STEPS:
            raise RuntimeError(f"integration exceeded {MAX_STEPS} steps at t={t:.6g} (tol={tol})")
        target = float(times[len(states)])
        clipped = t + dt >= target - 1e-14 * max(1.0, target)
        dt_try = target - t if clipped else dt
        # a step clipped onto a requested time is as short as the grid asks, never an underflow
        if not clipped and dt_try <= 1e-15 * max(1.0, abs(t)):
            raise RuntimeError(
                f"step size underflow at t={t:.6g} (dt={dt_try:.3e}, tol={tol}); "
                "the problem may be too stiff for the requested tolerance"
            )
        y_new, err_vec = _dp_step(f, y, dt_try, k)
        scale = tol + tol * np.maximum(np.abs(y), np.abs(y_new))
        err = float(np.linalg.norm(err_vec / scale)) / math.sqrt(y.size)
        n_steps += 1
        if err <= 1.0:
            t = target if clipped else t + dt_try
            y, k[0] = y_new, k[6]
            log_t.append(t)
            if clipped:
                try:
                    states.append(DensityMatrix(1, d, y.reshape(d, d), atol=TRAJECTORY_ATOL))
                except ValueError as exc:
                    raise ValueError(f"the mean-field integrator at tol={tol} left an invalid state "
                                     f"at t={t:.6g}: {exc}; a smaller tol may fix it") from None
        # an accepted clamped step says nothing about the natural step size
        if not (clipped and err <= 1.0):
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err**-0.2))
            dt = dt_try * factor

    return HartreeTrajectory(states, np.asarray(log_t))
