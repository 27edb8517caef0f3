"""Every resource limit, and the one refusal path.  A price is a pure, non-decreasing function
of a size, next to its layer or, shared, here; library guards and experiments._price_run read it."""

MAX_BASIS_SIZE = 2_000_000  # states of a symmetric basis
MAX_OCCUPATION_KEY = 2**62 - 1  # (N+1)^d: an occupation key, and its ladder moves, in int64
MAX_OPERATOR_BYTES = 2**30  # H's move grid, its rows (84 B a cell at scale, 105 at 1e4; 128 paid)
MAX_WALK_BYTES = 2**30  # one compiled RDM walk
MAX_DENSE_BYTES = 2**32  # dense matrices at their peak
_LIVE_MATRICES = 8  # dense matrices of the largest size a dense path holds at once
MAX_KERNEL_WORK = 2**38  # dim^3 units of dense commutator growth or RDM work, about 1 ns each
MAX_CHEBYSHEV_TERMS = 1_000_000  # one evolve_exact call, one N of a run, summed over intervals
MAX_STEPS = 1_000_000  # mean-field integrator: caps L*t at config time, attempted steps at run time
# propagation summed over a run's N and intervals, in the grid cells x terms that run (priced at
# 1.0-1.18x the run): converge.json at N = 4096, 481 times to t = 120, prices 6.96e9 and ran in
# 22 s, 3.2 ns each, so 2^33 is about 27 s of matvecs. It admits that config and the size-ladder
# rungs (1.6e9, 2.7e8); converge.json at N = 2..2999 (3.1e10) names 1935 (2^34 would name 2451)
MAX_MATVEC_WORK = 2**33


def _dense_peak_bytes(dim):
    # dim x dim complex128 matrices: commutator_growth holds at most 7.2 of its largest block,
    # block building included, for one pair or a stack (tracemalloc peak / 16 D^2 = 7.17 and
    # 7.11 at d = 2, N = 60 and 40, m + n = 2 and 3; 7.02 and 7.00 at d = 3, N = 6 and 7); the
    # RDM routines at most 5.0 of d^k x d^k at order k (README)
    return _LIVE_MATRICES * 16 * dim * dim


def workable(fits, value):
    """The largest integer v below value with fits(v), by bisection (fits holds up to some v,
    and not at value); -1 if none does."""
    lo, hi = -1, value  # lo fits (-1: none does), hi does not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    return lo


def refuse(price, value, limit, what, name):
    """price(value), or a ValueError ``{what} = {price} > {limit}`` unless it is <= limit (NaN
    and inf are not); unless ``name`` is None, the message names the largest workable integer
    below value (price non-decreasing)."""
    cost = price(value)
    if cost <= limit:
        return cost
    message = f"{what} = {cost if isinstance(cost, int) else format(cost, '.6g')} > {limit}"
    if name is not None:
        lo = workable(lambda v: price(v) <= limit, value)
        message += f"; the largest workable {name} is {lo}" if lo >= 0 else f"; no {name} fits"
    raise ValueError(message)
