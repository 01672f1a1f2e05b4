"""The auxiliary integrals: closed forms versus integration by parts.

    I(k, m) = integral_0^(1/2) E_{2k}(t)   sin((2m+1) pi t) dt
            = (-1)^k (2k)! / ((2m+1)^(2k+1) pi^(2k+1))
    J(k, m) = integral_0^(1/2) E_{2k+1}(t) cos((2m+1) pi t) dt
            = (-1)^(k+1) (2k+1)! / ((2m+1)^(2k+2) pi^(2k+2))

aux_integral_numeric integrates by parts exactly, as the paper does: every
boundary term but one vanishes, and the survivor must equal the closed form,
so the double it returns is the closed form's, within an ulp.  Each family
contracts by -(a)(a-1) / ((2m+1)^2 pi^2) per step of k (with a = 2k resp.
2k+1), which the values reproduce as well.
"""

import math

from betakit import (
    IntegrandSpec,
    aux_integral_I_closed,
    aux_integral_J_closed,
    aux_integral_numeric,
    render_decimal,
)

print("closed form vs integration by parts:\n")
for kind, closed_of in (("aux_I", aux_integral_I_closed), ("aux_J", aux_integral_J_closed)):
    label = "I" if kind == "aux_I" else "J"
    for k in (0, 1, 2):
        for m in (0, 1, 3):
            closed = closed_of(k, m)
            dec = float(render_decimal(closed, 16).value)
            num = aux_integral_numeric(IntegrandSpec(kind, k, m), 1e-10)
            print(
                f"  {label}({k},{m}) = {str(closed):<18} = {dec: .12f}   "
                f"by parts {num.value: .12f}   |diff| = {abs(dec - num.value):.1e}"
            )
    print()

print("k = 20, where the integral is (2m+1)^-41 of the integrand's size:")
for m in (0, 1, 3):
    num = aux_integral_numeric(IntegrandSpec("aux_I", 20, m), 1e-10)
    print(f"  I(20,{m}) = {num.value!r:<24} (within {num.abs_error_estimate:.1e}, one ulp)")
print()

print("recurrence contraction, ratio vs predicted factor (k=1, m=0..2):")
for m in (0, 1, 2):
    cur = aux_integral_numeric(IntegrandSpec("aux_I", 1, m), 1e-11).value
    prev = aux_integral_numeric(IntegrandSpec("aux_I", 0, m), 1e-11).value
    predicted = -2 * 1 / ((2 * m + 1) ** 2 * math.pi**2)
    print(f"  m = {m}: I(1,m)/I(0,m) = {cur / prev: .10f}   -2*1/((2m+1)^2 pi^2) = {predicted: .10f}")
