"""Independent checks of certified outputs, computed with sympy.

The checks read only the JSON forms of inputs and outputs and redo the
substitutions with sympy's own truncated polynomial arithmetic over QQ, so
they share no code with the engine they check:

- a semigroup witness composed with the curve has exactly the claimed order;
- a planarity witness composed with the curve vanishes through the order bound;
- an equivalence certificate (phi, tau) maps the left curve onto the right
  one through its ``verified_through`` order.

Each check raises ``AssertionError`` on a wrong output.
"""

from __future__ import annotations

from fractions import Fraction

from sympy import QQ
from sympy.polys.rings import ring

_R, _ = ring("t", QQ)


def _q(text: str):
    f = Fraction(text)
    return QQ(f.numerator, f.denominator)


def _series(coeffs: dict, limit: int):
    """Truncated univariate polynomial from the {degree: "p/q"} form."""
    return _R({(int(d),): _q(c) for d, c in coeffs.items() if int(d) <= limit})


def _cut(p, limit: int):
    return _R({m: c for m, c in p.items() if m[0] <= limit})


def _poly(table: dict) -> dict[tuple[int, int, int], object]:
    """Trivariate polynomial from the {"i,j,k": "p/q"} form."""
    out = {}
    for key, value in table.items():
        i, j, k = (int(part) for part in key.split(","))
        out[(i, j, k)] = _q(value)
    return out


def _substitute(poly: dict, comps: list, limit: int):
    """poly(x(t), y(t), z(t)) through degree ``limit``."""
    powers = [[_R.one] for _ in range(3)]

    def power(axis: int, n: int):
        row = powers[axis]
        while len(row) <= n:
            row.append(_cut(row[-1] * comps[axis], limit))
        return row[n]

    acc = _R.zero
    for (i, j, k), c in poly.items():
        acc += _cut(power(0, i) * power(1, j), limit) * power(2, k) * c
    return _cut(acc, limit)


def _compose(p, tau, limit: int):
    """p(tau(t)) through degree ``limit`` (Horner)."""
    coeffs = {m[0]: c for m, c in p.items()}
    acc = _R.zero
    for d in range(max(coeffs, default=0), -1, -1):
        acc = _cut(acc * tau, limit) + coeffs.get(d, QQ.zero)
    return acc


def _order(p) -> int | None:
    degrees = [m[0] for m, c in p.items() if c != 0]
    return min(degrees) if degrees else None


def _curve(curve_obj: dict, limit: int) -> list:
    return [_series(curve_obj[name], limit) for name in ("x", "y", "z")]


def check_semigroup(curve_obj: dict, semigroup_obj: dict) -> None:
    """Every witness composed with the curve has exactly its element's order."""
    for element, witness in semigroup_obj["witnesses"].items():
        e = int(element)
        composed = _substitute(_poly(witness), _curve(curve_obj, e), e)
        order = _order(composed)
        if order != e:
            raise AssertionError(
                f"semigroup witness for {e} composes to order {order}")


def check_planarity(curve_obj: dict, verdict_obj: dict) -> None:
    """A planar witness vanishes along the curve through the order bound."""
    if verdict_obj["kind"] != "planar-witness":
        return
    bound = verdict_obj["order_bound"]
    composed = _substitute(_poly(verdict_obj["witness"]),
                           _curve(curve_obj, bound), bound)
    if composed != _R.zero:
        raise AssertionError(
            f"planarity witness has order {_order(composed)} <= {bound}")


def check_certificate(left_obj: dict, right_obj: dict, cert_obj: dict) -> None:
    """phi(left(tau(t))) agrees with right(t) through ``verified_through``."""
    through = cert_obj["verified_through"]
    left = _curve(left_obj, through)
    right = _curve(right_obj, through)
    tau = _series(cert_obj["tau"]["coeffs"], through)
    phi = cert_obj["phi"]
    for name, target in zip(("phi1", "phi2", "phi3"), right):
        moved = _compose(_substitute(_poly(phi[name]), left, through), tau, through)
        if moved != target:
            raise AssertionError(
                f"certificate component {name} misses the right curve "
                f"through order {through}")
