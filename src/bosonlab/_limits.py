"""Every resource limit, and the one refusal path.  A price is a pure, non-decreasing function
of a size, next to its layer or, shared, here; library guards and experiments._price_run read it."""

MAX_BASIS_SIZE = 2_000_000  # states of a symmetric basis
MAX_OPERATOR_BYTES = 2**30  # H's move grid, its rows (at most 60 B an entry at scale; 128 charged)
MAX_WALK_BYTES = 2**30  # one compiled RDM walk
MAX_DENSE_BYTES = 2**32  # dense matrices at their peak
_LIVE_MATRICES = 8  # dense matrices of the largest size a dense path holds at once
MAX_KERNEL_WORK = 2**38  # dim^3 units of dense commutator growth or RDM work, about 1 ns each
MAX_CHEBYSHEV_TERMS = 1_000_000  # one propagation, a matvec each
MAX_COEFFICIENT_BYTES = 2**30  # one propagation's table of Chebyshev coefficients
MAX_STEPS = 1_000_000  # mean-field integrator: caps L*t at config time, attempted steps at run time
# propagation summed over a run, in nnz x terms: admits the size-ladder rungs (d=2,
# N=16384 at 3.9e10; d=3, N=240 at 7.8e9), refuses converge.json at N = 2..2999
MAX_MATVEC_WORK = 2**36


def _dense_peak_bytes(dim):
    # dim x dim complex128 matrices: commutator_growth holds at most 7.2 of its largest block,
    # block building included, for one pair or a stack (tracemalloc peak / 16 D^2 = 7.17 and
    # 7.11 at d = 2, N = 60 and 40, m + n = 2 and 3; 7.02 and 7.00 at d = 3, N = 6 and 7); the
    # RDM routines at most 5.0 of d^k x d^k at order k (README)
    return _LIVE_MATRICES * 16 * dim * dim


def refuse(price, value, limit, what, name):
    """price(value), or a ValueError ``{what} = {price} > {limit}`` unless it
    is <= limit (NaN and inf are not); unless ``name`` is None, the message
    names the largest workable integer below value, by bisection."""
    cost = price(value)
    if cost <= limit:
        return cost
    message = f"{what} = {cost if isinstance(cost, int) else format(cost, '.6g')} > {limit}"
    if name is not None:
        lo, hi = -1, value  # lo fits (-1: none does), hi does not
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if price(mid) <= limit else (lo, mid)
        message += f"; the largest workable {name} is {lo}" if lo >= 0 else f"; no {name} fits"
    raise ValueError(message)
