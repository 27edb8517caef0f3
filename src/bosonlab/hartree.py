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
structurally.  The integrator never renormalizes: all drift is measured and
reported, not hidden.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._limits import MAX_STEPS, refuse
from ._tensor import partial_trace_last, tensor_power
from .operators import operator_norm

DENSITY_ATOL = 1e-10

# Relaxed construction tolerance for integrator output: adaptive stepping at
# tol ~ 1e-9 legitimately perturbs the zero eigenvalues of a pure state by
# roughly the accumulated error, which the strict tolerance would reject.
TRAJECTORY_ATOL = 1e-6


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Positive unit-trace Hermitian matrix on ``order`` particle slots.

    ``atol`` is the construction tolerance for the three invariants
    (Hermiticity, unit trace, positivity); order 0 is the scalar 1 in a 1x1
    matrix, used as the anchor of telescoping identities.
    """

    order: int
    d: int
    matrix: np.ndarray
    atol: float = field(default=DENSITY_ATOL, repr=False, compare=False)

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("order must be >= 0")
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

    @property
    def eigenvalues(self):
        return np.linalg.eigvalsh(self.matrix)

    def marginal(self, order):
        """The order-``order`` reduced density matrix, tracing the trailing
        slots.  For a slot-symmetric matrix, such as every ``rdm`` output,
        this is the lower-order RDM of the same state."""
        if not 0 <= order <= self.order:
            raise ValueError(f"marginal order {order} is not in [0, {self.order}]")
        if order == self.order:
            return self
        traced = partial_trace_last(self.matrix, self.d, self.order, self.order - order)
        return DensityMatrix(order, self.d, traced, atol=self.atol)

    def purity(self):
        return float(np.real(np.trace(self.matrix @ self.matrix)))


def pure_state_density(phi, atol=DENSITY_ATOL):
    """|phi><phi| as an order-1 density matrix; phi must be normalized."""
    v = np.asarray(phi, dtype=np.complex128).reshape(-1)
    dev = abs(np.linalg.norm(v) - 1.0)
    if not dev <= atol:
        raise ValueError(f"state norm deviates from 1 by {dev:.3e}")
    return DensityMatrix(1, v.size, np.outer(v, v.conj()))


def _contractions(spec):
    """V^(m)/(m-1)! for each present order m, ascending, as a d^2 x d^(2(m-1))
    matrix over (a, b) x (j_2, i_2, .., j_m, i_m): its product with the outer
    product of m - 1 flattened gammas is the order-m part of h(gamma)."""
    d, mats = spec.d, []
    for m in spec.present_orders:
        axes = [0, m] + [a for s in range(1, m) for a in (m + s, s)]
        v = spec.terms[m].reshape((d,) * 2 * m).transpose(axes)
        mats.append(v.reshape(d * d, -1) / math.factorial(m - 1))
    return mats


def _mean_field_h(g, contractions):
    flat, power, h = g.reshape(-1), np.ones(1), np.zeros(g.size, dtype=np.complex128)
    for c in contractions:
        while power.size < c.shape[1]:  # extend gamma^(x (m-1)) from the lower order's
            power = np.multiply.outer(power, flat).reshape(-1)
        h = h + c @ power
    h = np.reshape(h, g.shape)
    return (h + h.conj().T) / 2


def _rhs(g, contractions):
    # -i [h(g), g] for a raw d x d matrix g
    h = _mean_field_h(g, contractions)
    return -1j * (h @ g - g @ h)


def _check_one_body(gamma, spec, name="gamma"):
    if gamma.order != 1 or gamma.d != spec.d:
        raise ValueError(f"{name} must be an order-1 density matrix matching spec.d")


def mean_field_hamiltonian(gamma, spec):
    """Effective one-particle Hamiltonian h(gamma); Hermitian by construction."""
    _check_one_body(gamma, spec)
    return _mean_field_h(gamma.matrix, _contractions(spec))


def hartree_rhs(gamma, spec):
    """Time derivative of gamma: -i [h(gamma), gamma]."""
    _check_one_body(gamma, spec)
    return _rhs(gamma.matrix, _contractions(spec))


def mean_field_energy(gamma, spec):
    """Conserved energy tr(V1 gamma) + sum_m (1/m!) tr(V^(m) gamma^(x m))."""
    _check_one_body(gamma, spec)
    g = gamma.matrix
    e = 0.0 + 0.0j
    for m in spec.present_orders:
        e += np.trace(spec.terms[m] @ tensor_power(g, m)) / math.factorial(m)
    return float(e.real)


@dataclass(frozen=True, eq=False)
class HartreeTrajectory:
    """Requested-time snapshots plus integrator diagnostics.

    ``step_times`` logs the end time of every accepted step; ``drift`` maps
    each conserved quantity to its |value(t) - value(0)| at the requested
    times (energy, trace, purity, hermiticity, spectrum).
    """

    times: np.ndarray
    states: list
    step_times: np.ndarray
    drift: dict


# Dormand-Prince 5(4) tableau; the right-hand side is autonomous, so no c nodes.
_DP_A = (
    (0.2,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
)
_DP_ERR = (
    35.0 / 384.0 - 5179.0 / 57600.0,
    0.0,
    500.0 / 1113.0 - 7571.0 / 16695.0,
    125.0 / 192.0 - 393.0 / 640.0,
    -2187.0 / 6784.0 + 92097.0 / 339200.0,
    11.0 / 84.0 - 187.0 / 2100.0,
    -1.0 / 40.0,
)

def _dp_step(f, y, dt, k0):
    """One attempt from y, given k0 = f(y): the 5th-order point z, the error
    estimate and f(z).  The last A row is the 5th-order weights, so the last
    stage point is z and f(z) is the next step's k0: 6 evaluations of f."""
    k = [k0]
    for row in _DP_A:
        acc = np.zeros_like(y)
        for a, ki in zip(row, k):
            if a != 0.0:
                acc = acc + a * ki
        z = y + dt * acc
        k.append(f(z))
    err = dt * sum(e * ki for e, ki in zip(_DP_ERR, k) if e != 0.0)
    return z, err, k[-1]


def _guard_steps(spec, t_end):
    """Refuse a last time t_end past the step budget: ||h(gamma)|| <= L = sum_m
    ||V^(m)|| / (m-1)!, and every measured run takes at least 2 steps per unit
    of L*t (8 to 33 at tol <= 1e-9), so past MAX_STEPS units it cannot suffice."""
    rate = sum(operator_norm(v) / math.factorial(m - 1) for m, v in spec.terms.items())
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
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-d sequence")
    if not (np.all(np.isfinite(times)) and times[0] >= 0 and np.all(np.diff(times) > 0)):
        raise ValueError("times must be finite, non-negative and strictly increasing")
    t_end = float(times[-1])
    _guard_steps(spec, t_end)

    d = spec.d
    contractions = _contractions(spec)

    def f(y):
        return _rhs(y.reshape(d, d), contractions).reshape(-1)

    y = gamma0.matrix.astype(np.complex128).reshape(-1)
    k0 = f(y)
    t = 0.0
    states = [gamma0] if times[0] == 0.0 else []

    rhs0_scale = float(np.max(np.abs(k0))) if t_end > 0 else 0.0
    dt = min(1e-2, t_end / 10.0) if t_end > 0 else 1e-2
    if rhs0_scale > 0:
        dt = min(dt, 0.1 / rhs0_scale)
    dt = max(dt, 1e-8)

    log_t = []
    n_steps = 0
    while len(states) < len(times):
        if n_steps > MAX_STEPS:
            raise RuntimeError(f"integration exceeded {MAX_STEPS} steps at t={t:.6g} (tol={tol})")
        target = float(times[len(states)])
        clipped = False
        dt_try = dt
        if t + dt_try >= target - 1e-14 * max(1.0, target):
            dt_try = target - t
            clipped = True
        if dt_try <= 1e-15 * max(1.0, abs(t)):
            raise RuntimeError(
                f"step size underflow at t={t:.6g} (dt={dt_try:.3e}, tol={tol}); "
                "the problem may be too stiff for the requested tolerance"
            )
        y_new, err_vec, k_new = _dp_step(f, y, dt_try, k0)
        scale = tol + tol * np.maximum(np.abs(y), np.abs(y_new))
        err = float(np.sqrt(np.mean(np.abs(err_vec / scale) ** 2)))
        n_steps += 1
        if err <= 1.0:
            t = target if clipped else t + dt_try
            y, k0 = y_new, k_new
            log_t.append(t)
            if clipped:
                try:
                    states.append(DensityMatrix(1, d, y.reshape(d, d).copy(), atol=TRAJECTORY_ATOL))
                except ValueError as exc:
                    raise ValueError(f"the mean-field integrator at tol={tol} left an invalid state "
                                     f"at t={t:.6g}: {exc}; a smaller tol may fix it") from None
        # an accepted clamped step says nothing about the natural step size
        if not (clipped and err <= 1.0):
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err**-0.2))
            dt = dt_try * factor

    g0 = gamma0.matrix
    e0 = mean_field_energy(gamma0, spec)
    w0 = np.sort(np.linalg.eigvalsh(g0))
    drift = {key: [] for key in ("trace", "purity", "energy", "hermiticity", "spectrum")}
    for st in states:
        g = st.matrix
        drift["trace"].append(abs(np.trace(g) - np.trace(g0)))
        drift["purity"].append(abs(np.real(np.trace(g @ g) - np.trace(g0 @ g0))))
        drift["energy"].append(abs(mean_field_energy(st, spec) - e0))
        drift["hermiticity"].append(float(np.max(np.abs(g - g.conj().T))))
        drift["spectrum"].append(float(np.max(np.abs(np.sort(np.linalg.eigvalsh(g)) - w0))))
    drift = {key: np.asarray(val) for key, val in drift.items()}
    return HartreeTrajectory(
        times=times,
        states=states,
        step_times=np.asarray(log_t),
        drift=drift,
    )
