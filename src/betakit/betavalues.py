"""Special values of the Dirichlet beta function.

beta(s) = sum_{m>=0} (-1)^m / (2m+1)^s.  At odd arguments the value is an
exact rational multiple of a power of pi, delivered here through two
independent exact routes (generalized Bernoulli numbers mod 4, and Euler
numbers).  The alternating series itself, summed with a certified error
bound, serves as the numerical oracle the closed forms are tested against.
"""

from __future__ import annotations

import math
import os
import threading
from fractions import Fraction

from .eulerpoly import _chi4_ratio, euler_number
from .exact import ValueClass, _set_field, digit_string, rational_str
from .highprec import HighPrecisionReal, _as_int, _pi_power_ratio, _round_ratio

__all__ = [
    "HighPrecisionReal",
    "PiPowerValue",
    "beta_odd_exact",
    "beta_odd_exact_via_euler",
    "beta_series",
    "render_decimal",
]


class PiPowerValue(ValueClass):
    """An exact real of the form coeff * pi^power.

    Zero is normalized to (0, 0) so equality of values is equality of
    fields.  coeff must be exact, an int (bools included) or a Fraction,
    which is kept as it is; power must be an integer (bools included).
    Anything else is a TypeError.
    """

    def __init__(self, coeff: int | Fraction, power: int) -> None:
        if isinstance(coeff, int):
            coeff = Fraction(coeff)
        elif not isinstance(coeff, Fraction):
            raise TypeError(f"coeff must be an int or a Fraction, not {type(coeff).__name__}")
        power = _as_int(power, "power")
        _set_field(self, "coeff", coeff)
        _set_field(self, "power", power if coeff else 0)

    def to_json(self, digits: int = 12) -> dict:
        return {
            "coeff": rational_str(self.coeff),
            "pi_power": self.power,
            "decimal": render_decimal(self, digits).decimal_str(digits),
            "digits": digits,
        }

    def __float__(self) -> float:
        # pi^power within 2^-80 relative, so one rounding lands within an ulp.
        # int / int is CPython's correctly rounded division, so the kernel's
        # unreduced pair gives the double (or OverflowError) that the reduced
        # rational would, with no gcd
        p, c = self.power, self.coeff
        x, y = _pi_power_ratio(p, 80 + 2 * abs(p).bit_length()) if p else (1, 1)
        return c.numerator * x / (c.denominator * y)

    def __str__(self) -> str:
        if self.power == 0:
            return rational_str(self.coeff)
        pi = "pi" if self.power == 1 else f"pi^{self.power}"
        return f"{rational_str(self.coeff)} * {pi}"


def beta_odd_exact(k: int) -> PiPowerValue:
    """beta(2k+1) as an exact rational multiple of pi^(2k+1).

    beta(2k+1) = (-1)^(k+1) (pi/2)^(2k+1) B_{2k+1,chi4} / (2k+1)!, stated
    here with the power of two folded into the rational coefficient, which
    is reduced once, from B_{2k+1,chi4}'s unreduced integer pair.
    """
    k = _as_int(k, "k")
    if k < 0:
        raise ValueError("k must be >= 0")
    n = 2 * k + 1
    num, den = _chi4_ratio(n)
    return PiPowerValue(Fraction((-1) ** (k + 1) * num, den * math.factorial(n) << n), n)


def beta_odd_exact_via_euler(k: int) -> PiPowerValue:
    """Same value as :func:`beta_odd_exact`, through the Euler numbers.

    beta(2k+1) = (-1)^k E_{2k} / (4^(k+1) (2k)!) * pi^(2k+1).  Exact
    agreement with the generalized-Bernoulli route is forced by the
    half-point identities; the test suite asserts it field by field.  The
    coefficient is reduced once, from integers.
    """
    k = _as_int(k, "k")
    if k < 0:
        raise ValueError("k must be >= 0")
    e = euler_number(2 * k)
    coeff = Fraction((-1) ** k * e.numerator, e.denominator * math.factorial(2 * k) << 2 * k + 2)
    return PiPowerValue(coeff, 2 * k + 1)


def _chebyshev_d(n: int) -> int:
    """d_n = ((3+sqrt8)^n + (3-sqrt8)^n)/2, the x of (3+sqrt8)^n = x + y sqrt8.

    Binary powering: squaring maps (x, y) to (x^2 + 8y^2, 2xy), one more
    factor 3+sqrt8 to (3x + 8y, x + 3y); O(log n) big-integer products.
    """
    x, y = 1, 0
    for bit in bin(n)[2:]:
        x, y = x * x + 8 * y * y, 2 * x * y
        if bit == "1":
            x, y = 3 * x + 8 * y, x + 3 * y
    return x


def _first_big_term(s: int, top: int, n: int) -> int:
    """min(n, the first k with (2k+1)^s >= 2^top), by bisection.

    s log2(2k+1) is a float off by a few ulps, so outside a wide margin it
    tells the side of top for certain; inside it (2k+1)^s has about top
    bits, and only such a power is ever formed.  The first probe is the
    last term, which settles k0 = n, the low exponents' case, at once.
    """
    lo, hi, mid = 0, n, n - 1
    while lo < hi:
        log = s * math.log2(2 * mid + 1)
        if abs(log - top) > 1e-9 * log + 1:
            big = log > top
        else:
            big = (2 * mid + 1) ** s >> top > 0
        if big:
            hi = mid
        else:
            lo = mid + 1
        mid = (lo + hi) // 2
    return lo


def _forward_sum(s: int, bits: int, n: int, d: int, stop: int) -> int:
    """sum of floor(c_k 2^bits / (2k+1)^s) over k in [0, stop), weights from c_(-1) = -d_n."""
    b = -1
    c = -d
    acc = 0
    for k in range(stop):
        c = b - c
        acc += (c << bits) // (2 * k + 1) ** s
        # exact: b_k = (-1)^(k+1) 4^k n/(n+k) C(n+k, 2k) stays integral
        b = b * (2 * (k + n) * (k - n)) // ((2 * k + 1) * (k + 1))
    return acc


def _last_weight(n: int) -> int:
    """b_n = c_(n-1) = (-1)^(n+1) 2^(2n-1): C(2n, 2n) = 1, and b_j = 0 past n."""
    return (-1) ** (n + 1) << 2 * n - 1


def _backward_sum(s: int, bits: int, n: int, start: int) -> int:
    """sum of floor(c_k 2^bits / (2k+1)^s) over k in [start, n), weights from b_n down."""
    b = c = _last_weight(n)
    acc = 0
    for k in range(n - 1, start - 1, -1):
        acc += (c << bits) // (2 * k + 1) ** s
        # exact: b_(k+1) (2k+1)(k+1) = b_k 2(k+n)(k-n), and b_k is an integer
        b = b * ((2 * k + 1) * (k + 1)) // (2 * (k + n) * (k - n))
        c = b - c
    return acc


# The cost estimate n bitlength(d_n), about 4.4 digits^2, above which the
# kernel forks, and the share of the n terms the calling process sums (see
# _beta_accelerated), both measured on a 2-vCPU machine.  A fork, pipe and
# reap round trip takes about 1.5 ms at 15 MB RSS, so a split first wins
# near 1100 digits at s = 1, whose divisors fit one 30-bit digit, and near
# 800 at larger s; the constant is where s = 1 wins, 1072 digits.  At a
# share of 0.5 the calling process spent 11 % of a series-digits batch
# waiting for the child; from 0.55 to 0.6 the batch time is flat in noise.
_SPLIT_COST = 5 * 10**6
_SPLIT_SHARE = 0.56


def _can_fork() -> bool:
    """True when one forked child can run beside this process: fork, no other thread, two CPUs."""
    if not hasattr(os, "fork") or threading.active_count() != 1:
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return cpus >= 2


def _split_sum(s: int, bits: int, n: int, d: int) -> int:
    """_forward_sum over all n terms, its back part summed by one forked child.

    This process sums [0, K) forward while the child sums [K, n) backward
    and sends its integer through a pipe: 8 bytes of length, then the
    signed little-endian bytes.  The child ends in os._exit whatever
    happens, so it never returns into the caller's frames, flushes no stdio
    buffer and runs no atexit handler.  If it exits non-zero or its payload
    is malformed, [K, n) is summed here; if no pipe or process can be had,
    all n terms are.  On any exception here, KeyboardInterrupt included,
    the child is killed and reaped and both ends of the pipe are closed, so
    no child outlives the call.
    """
    split = int(_SPLIT_SHARE * n)
    parent = os.getpid()
    r = w = pid = -1
    sent = False
    try:
        try:
            r, w = os.pipe()
            pid = os.fork()
        except OSError:  # no descriptor or process to spare
            return _forward_sum(s, bits, n, d, n)
        if pid == 0:
            back = _backward_sum(s, bits, n, split)
            body = back.to_bytes((back.bit_length() + 8) // 8, "little", signed=True)
            view = memoryview(len(body).to_bytes(8, "little") + body)
            while view:
                view = view[os.write(w, view):]
            sent = True
        else:
            os.close(w)
            w = -1
            acc = _forward_sum(s, bits, n, d, split)
            chunks = []
            while chunk := os.read(r, 1 << 16):
                chunks.append(chunk)
            try:
                status = os.waitpid(pid, 0)[1]
            except ChildProcessError:  # reaped already, as when SIGCHLD is ignored
                status = 0
            pid = -1
    finally:
        if os.getpid() != parent:
            os._exit(0 if sent else 1)
        for fd in (r, w):
            if fd >= 0:
                os.close(fd)
        if pid > 0:
            import signal  # here only: building its enums costs every start-up 0.7 ms

            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):  # reaped already
                pass
    data = b"".join(chunks)
    if status == 0 and len(data) > 8 and int.from_bytes(data[:8], "little") == len(data) - 8:
        return acc + int.from_bytes(data[8:], "little", signed=True)
    return acc + _backward_sum(s, bits, n, split)


def _beta_accelerated(s: int, digits: int) -> tuple[int, int]:
    """Chebyshev-based acceleration of the alternating series.

    With d_n = ((3+sqrt8)^n + (3-sqrt8)^n)/2 and integer coefficients c_k
    built by the standard three-term recurrence, the estimate
    (1/d_n) sum_k c_k a_k of sum_k (-1)^k a_k has error at most
    2 (3+sqrt8)^-n whenever (a_k) is a moment sequence of a positive
    measure on [0,1].  a_k = 1/(2k+1)^s qualifies (weight
    (-log x)^(s-1)/(s-1)! on [0,1], pushed forward through x^2), so n is
    chosen to push the bound below a quarter of the digit budget.

    The loop runs on integers: b and c are integral, and the sum is kept
    in binary fixed point.  Each of the n terms floor(c_k 2^bits / (2k+1)^s)
    loses less than one unit, so acc / (d_n 2^bits), returned as the pair
    (acc, d_n 2^bits) that no gcd has reduced, is within n / (d_n 2^bits)
    of the exact weighted sum.  That loss is divided by
    d_n > 10^digits, so 2^bits > n 10^10 is all it takes to keep it below
    10^-(digits+10): fewer than 50 bits up to 10,000 digits.

    Only the first k0 terms need big-integer work.  The loop's b_k has sign
    (-1)^(k+1) and |b_0| + ... + |b_n| = d_n, so
    c_k = (-1)^k (|b_(k+1)| + ... + |b_n|): its size falls strictly from
    d_n - 1 and stays at least |b_n| = 4^n / 2 for every k < n.  With
    top = bits + bitlength(d_n), 0 < |c_k| 2^bits < d_n 2^bits <= 2^top, so
    once (2k+1)^s >= 2^top the floor is 0 at even k and -1 at odd k.  k0 is
    the first such k (or n), found by bisection on logarithms; the n - k0
    terms past it are counted, not divided, which leaves acc bit-identical.
    With d_n by binary powering, the cost is k0 + O(log n) big-integer
    steps: k0 = n for low exponents at many digits, a handful of terms at
    high exponents, one term once 3^s >= 2^top.  A kernel that starts the
    series at an offset keeps the same c_k and so the same lemma; only its
    cutoff moves, to the first shifted power past 2^top.

    The weights also run backward, exactly.  C(2n, 2n) = 1 gives
    b_n = (-1)^(n+1) 2^(2n-1), and b_j = 0 for j > n gives c_(n-1) = b_n;
    then c_(k-1) = b_k - c_k, and b_k = b_(k+1) (2k+1)(k+1) / (2(k+n)(k-n))
    divides exactly because every b_k is an integer.  Each floor depends on
    c_k alone, and both walks reach the same integers c_k, so summing
    [0, K) forward and [K, n) backward gives acc bit for bit, for any K.
    When no term is cut off (k0 = n), the cost estimate n bitlength(d_n)
    passes _SPLIT_COST, and a child can run beside this process (os.fork
    exists, no other thread is live, two CPUs are usable), the calling
    process sums the front part while one forked child sums the back part
    (see _split_sum).  Otherwise the forward loop runs over [0, k0), as it
    does in the cutoff regime, where a walk down from n would take n - k0
    steps that divide nothing.  The choice is made from the input and the
    machine, not left to an option: both ways return the same pair, and
    only the time differs.
    """
    n = int((digits * math.log(10) + math.log(8)) / math.log(3 + math.sqrt(8))) + 2
    d = _chebyshev_d(n)
    bits = (n * 10**10).bit_length()
    k0 = _first_big_term(s, bits + d.bit_length(), n)
    if k0 == n and n * d.bit_length() > _SPLIT_COST and _can_fork():
        acc = _split_sum(s, bits, n, d)
    else:
        acc = _forward_sum(s, bits, n, d, k0)
    # the odd k in [k0, n) each floor to -1
    acc -= n // 2 - k0 // 2
    return acc, d << bits


def beta_series(s: int, digits: int) -> HighPrecisionReal:
    """beta(s) to `digits` decimal digits, from the defining series.

    Every s and digit count goes through the accelerated evaluation
    (Cohen, Rodriguez Villegas and Zagier, Experiment. Math. 9 (2000)),
    whose geometric error bound certifies the result.  Its sum, an
    unreduced integer pair, is rounded to digits + 5 places, and only the
    rounded value is reduced by a gcd.  Of its n ~ 1.31 digits terms, only
    the k0 whose power (2k+1)^s stays below 2^(bits + bitlength(d_n)) are
    divided (see _beta_accelerated), so the cost is k0 + O(log n)
    big-integer steps: all n for beta(3) to 3000 digits, one for beta(10^7).

    When all n terms are divided and n bitlength(d_n) passes the split
    constant (from about 1070 digits), a call forks one child that sums the
    back 44 % of the terms while this process sums the rest, if os.fork
    exists, no other thread is live and two CPUs are usable.  The terms are
    the same integers either way, so the value is too: the wall time falls
    by about a third, and the CPU time rises by the fork's cost.  No child
    outlives the call, and if the child fails its part is summed here.
    """
    s = _as_int(s, "s")
    digits = _as_int(digits, "digits")
    if s < 1:
        raise ValueError("s must be >= 1")
    if digits < 1:
        raise ValueError("digits must be >= 1")
    places = digits + 5
    q = _round_ratio(*_beta_accelerated(s, digits), places)
    return HighPrecisionReal(Fraction(q, 10**places), digits)


def render_decimal(v: PiPowerValue, digits: int) -> HighPrecisionReal:
    """coeff * pi^power to `digits` decimal digits with a certified pi.

    Working precision adds 10 guard digits plus headroom for the power and
    the coefficient magnitude, so the final quantization dominates the
    error budget.

    The pi-power kernel at 2^bits > 10^working is within |power| 10^-working
    relative, and |coeff| |power| pi^power < 10^(coeff_mag + |power|) as
    (10/pi)^q >= q, so the headroom keeps the product's error below
    10^-(digits+10); rounding to digits+5 places adds 10^-(digits+5) / 2.
    The product is rounded from its unreduced numerator and denominator,
    the kernel's pair times the coefficient's.
    """
    digits = _as_int(digits, "digits")
    if digits < 1:
        raise ValueError("digits must be >= 1")
    if v.power == 0 or v.coeff == 0:
        return HighPrecisionReal(v.coeff, digits)
    coeff_mag = len(digit_string(abs(v.coeff.numerator) // v.coeff.denominator + 1))
    working = digits + 10 + abs(v.power) + coeff_mag
    x, y = _pi_power_ratio(v.power, (10**working).bit_length())
    c = v.coeff
    places = digits + 5
    q = _round_ratio(c.numerator * x, c.denominator * y, places)
    return HighPrecisionReal(Fraction(q, 10**places), digits)
