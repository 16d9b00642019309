"""Truncated formal power series with exact coefficients (ints where integral,
Fractions otherwise), and the catalogue of counting series for planar dissections.

Each catalogue series is declared once, on its definition, with its
variable and size convention, and each two-point family once, on its kernel,
with its size convention.  Each algebraic series is defined by the
residual of its equation alone and solved from it by one solver, Newton
iteration with doubling precision, which checks the residual of the result.
`q` and `t` are the integrals of their derivatives, which are algebraic and
solved the same way; the rest is built by series arithmetic.  Counting series
are verified to have non-negative integer coefficients before being exposed
as counts.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, NamedTuple, Sequence


class SeriesError(ValueError):
    pass


class DivisorNotUnit(SeriesError):
    pass


class OrderMismatch(SeriesError):
    pass


class InnerNotNilpotent(SeriesError):
    pass


class NonContractive(SeriesError):
    pass


class UnknownName(SeriesError):
    pass


class BadDistance(SeriesError):
    pass


def _exact(c) -> int | Fraction:
    """c as an int when it is integral, and as a Fraction otherwise."""
    if type(c) is not int:
        c = Fraction(c)
        if c.denominator == 1:
            return c.numerator
    return c


def _div(a, b) -> int | Fraction:
    """The exact quotient a / b: a // b when b divides a, else a Fraction."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return _exact(Fraction(a, b))


class TruncSeries:
    """Power series truncated at an explicit order, with exact coefficients:
    each is stored as an int when it is integral and as a Fraction only when
    it is not, so integral series are multiplied without a gcd per term.
    Indexing returns a Fraction, so ts[n] / c stays exact."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        self.coeffs = tuple(map(_exact, coeffs))
        if not self.coeffs:
            raise SeriesError("empty coefficient list")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> Fraction:
        if n < 0:
            return Fraction(0)
        if n > self.order:
            raise OrderMismatch(f"coefficient {n} beyond truncation order {self.order}")
        return Fraction(self.coeffs[n])

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(order: int) -> "TruncSeries":
        return TruncSeries([0] * (order + 1))

    @staticmethod
    def const(c, order: int) -> "TruncSeries":
        return TruncSeries([c] + [0] * order)

    @staticmethod
    def x(order: int) -> "TruncSeries":
        return TruncSeries([int(i == 1) for i in range(order + 1)])

    # -- ring operations ------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, TruncSeries):
            return other
        return TruncSeries.const(other, self.order)

    def __add__(self, other):
        o = self._coerce(other)
        n = min(self.order, o.order)
        return TruncSeries([self.coeffs[i] + o.coeffs[i] for i in range(n + 1)])

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            k = _exact(other)
            return TruncSeries([c * k for c in self.coeffs])
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        out = [0] * (n + 1)
        for i in range(min(len(a) - 1, n) + 1):
            if a[i] == 0:
                continue
            ai = a[i]
            for j in range(min(len(b) - 1, n - i) + 1):
                if b[j]:
                    out[i + j] += ai * b[j]
        return TruncSeries(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, TruncSeries):
            k = _exact(other)
            return TruncSeries([_div(c, k) for c in self.coeffs])
        return self.divide(other)

    def __rtruediv__(self, other):
        return TruncSeries.const(other, self.order).divide(self)

    def __pow__(self, k: int):
        if k < 0:
            return TruncSeries.const(1, self.order).divide(self) ** (-k)
        result, base = None, self  # base is self ** (2 ** j) at bit j of k
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return TruncSeries.const(1, self.order) if result is None else result

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return self.coeffs[: n + 1] == other.coeffs[: n + 1]

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[: min(8, len(self.coeffs))])
        return f"TruncSeries([{head}{', ...' if self.order > 7 else ''}])"

    # -- structural operations -------------------------------------------

    def truncate(self, order: int) -> "TruncSeries":
        if order > self.order:
            raise OrderMismatch("cannot extend a truncated series")
        return TruncSeries(self.coeffs[: order + 1])

    def valuation(self) -> int:
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return self.order + 1

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def shift(self, k: int) -> "TruncSeries":
        """Multiply by x**k; negative k requires valuation >= -k (exact division)."""
        if k >= 0:
            return TruncSeries(((0,) * k + self.coeffs)[: self.order + 1])
        if any(self.coeffs[i] != 0 for i in range(min(-k, len(self.coeffs)))):
            raise DivisorNotUnit(f"valuation below {-k}, cannot shift down")
        return TruncSeries(self.coeffs[-k:])

    def derivative(self) -> "TruncSeries":
        if self.order == 0:
            return TruncSeries.zero(0)
        return TruncSeries([i * self.coeffs[i] for i in range(1, self.order + 1)])

    def integrate(self) -> "TruncSeries":
        """Antiderivative with zero constant term, one order higher."""
        return TruncSeries([0] + [_div(c, i + 1) for i, c in enumerate(self.coeffs)])

    def divide(self, other: "TruncSeries") -> "TruncSeries":
        """Exact division; the divisor must be a unit after cancelling the
        common valuation (explicit valuation-shift division)."""
        n = min(self.order, other.order)
        v = other.valuation()
        if v > n:
            raise DivisorNotUnit("division by zero series")
        if v > 0:
            return self.shift(-v).divide(other.shift(-v))
        a = self.coeffs
        b = other.coeffs
        b0 = b[0]
        out = [0] * (n + 1)
        for i in range(n + 1):
            acc = a[i] if i < len(a) else 0
            for j in range(1, i + 1):
                if j < len(b) and b[j]:
                    acc -= b[j] * out[i - j]
            out[i] = _div(acc, b0)
        return TruncSeries(out)

    def compose(self, inner: "TruncSeries") -> "TruncSeries":
        """self(inner(x)); the inner series must vanish at 0."""
        if inner.coeffs[0] != 0:
            raise InnerNotNilpotent("inner series has a nonzero constant term")
        n = min(self.order, inner.order)
        result = TruncSeries.const(self.coeffs[min(n, self.order)], n)
        # Horner from the top coefficient down
        for i in range(min(n, self.order) - 1, -1, -1):
            result = result * inner.truncate(n) + self.coeffs[i]
        return result

    def integer_coefficients(self) -> list[int]:
        """Coefficients as ints; raises if any is not a non-negative integer."""
        out = []
        for i, c in enumerate(self.coeffs):
            if c.denominator != 1 or c < 0:
                raise SeriesError(f"coefficient {i} = {c} is not a non-negative integer")
            out.append(int(c))
        return out


def _pad(s: TruncSeries, order: int) -> TruncSeries:
    """s with zero coefficients appended up to `order`."""
    return TruncSeries(s.coeffs + (0,) * (order - s.order))


def fixpoint_solve(
    residual: Callable[[TruncSeries], TruncSeries], order: int, start, name: str = ""
) -> TruncSeries:
    """Solve residual(s) = 0 from the constant term `start` by Newton's
    method, which finds a fixed point of s -> s - F(s)/F'(s) and doubles the
    exact coefficients each step (Brent and Kung).  If s is exact mod x^p
    and m = min(2p, order + 1), then F(s + x^p) - F(s) = F'(s) x^p mod x^m,
    so the residual, which must truncate to the order of its argument, also
    gives the derivative.  A derivative that is not a unit raises
    DivisorNotUnit at the first step (its constant term never changes); a
    result that misses the equation raises NonContractive."""
    s = TruncSeries.const(start, 0)
    p = 1
    while p <= order:
        m = min(2 * p, order + 1)
        s = _pad(s, m - 1)
        r = residual(s)
        d = (residual(s + TruncSeries.const(1, m - 1).shift(p)) - r).shift(-p)
        # r vanishes mod x^p unless `start` is no root, which the final check reports
        step = TruncSeries(r.coeffs[p:]).divide(d)
        s = s - TruncSeries((0,) * p + step.coeffs)
        p = m
    if not residual(s).is_zero():
        raise NonContractive(name or "Newton iteration did not reach a root")
    return s


# -- the catalogue -----------------------------------------------------------


class Entry(NamedTuple):
    """A catalogue series: its variable, what its coefficients count and by
    which size, its builder, order -> the series truncated there, and, for
    an algebraic series, its definition, order -> (constant term of the
    root, residual)."""

    variable: str
    convention: str
    build: Callable[[int], TruncSeries]
    definition: Callable[[int], tuple] | None = None


#: every catalogue series by name, each declared once below, on its definition
CATALOGUE: dict[str, Entry] = {}


def _series(name: str, variable: str, convention: str, definition=None):
    """Declare the decorated builder as the catalogue series `name`.  A
    builder (or definition) declared again under a second name is an alias,
    which reads the first name's cached series instead of building it anew."""

    def declare(build):
        key = definition or build
        first = next((other for other, e in CATALOGUE.items() if (e.definition or e.build) is key),
                     name)
        CATALOGUE[name] = Entry(variable, convention,
                                build if first == name else partial(named, first), definition)
        return build

    return declare


def _algebraic(name: str, variable: str, convention: str):
    """Declare the decorated algebraic definition as the catalogue series
    `name`, which Newton iteration solves from it."""

    def declare(definition):
        def build(order):
            start, residual = definition(order)
            return fixpoint_solve(residual, order, start, name)

        _series(name, variable, convention, definition)(build)
        return definition

    return declare


@lru_cache(maxsize=None)
def named(name: str, order: int) -> TruncSeries:
    """The catalogue entry `name` truncated at `order`."""
    entry = CATALOGUE.get(name)
    if entry is None:
        raise UnknownName(f"no series named {name!r}")
    return entry.build(order)


def _x(order: int) -> TruncSeries:
    return TruncSeries.x(order)


@_algebraic("P_quad", "x", "auxiliary algebraic series, quadrangular two-point kernel")
def _alg_P_quad(order):
    x = _x(order)
    return 1, lambda P: P - 1 - 3 * x * P * P


@_algebraic("alpha_ternary", "x", "nodes of rooted ternary trees")
@_algebraic("Q_quad", "y", "auxiliary algebraic series, simple quadrangular kernel")
def _alg_alpha_ternary(order):
    x = _x(order)
    return 1, lambda a: a - 1 - x * a**3


@_algebraic("alpha_quaternary", "x", "nodes of rooted quaternary trees")
def _alg_alpha_quaternary(order):
    x = _x(order)
    return 1, lambda a: a - 1 - x * a**4


@_algebraic("X_quad", "x", "distance variable, quadrangular two-point kernel")
def _alg_X_quad(order):
    P = named("P_quad", order)
    # cleared form of X + 1/X + 1 = 3/(P-1)
    return 0, lambda X: (P - 1) * (X * X + X + 1) - 3 * X


@_algebraic("Y_quad", "y", "distance variable, simple quadrangular kernel")
def _alg_Y_quad(order):
    Q = named("Q_quad", order)
    return 0, lambda Y: (Q - 1) * (Y * Y + 1) - Y


@_algebraic("R_quad", "z", "auxiliary algebraic series, irreducible quadrangular kernel")
def _alg_R_quad(order):
    z = _x(order)
    return 0, lambda R: R - z - R * R


@_algebraic("Z_quad", "z", "distance variable, irreducible quadrangular kernel")
def _alg_Z_quad(order):
    R = named("R_quad", order)
    return 0, lambda Z: R * (Z * Z + 1) - Z


@_algebraic("P_tri", "x", "auxiliary algebraic series, triangular two-point kernel")
def _alg_P_tri(order):
    x = _x(order)
    return 1, lambda P: P * P - 1 - 8 * x * P**3


@_algebraic("X_tri", "x", "distance variable, triangular two-point kernel")
def _alg_X_tri(order):
    P = named("P_tri", order)
    # cleared form of X + 1/X + 2 = 8/(P^2-1)
    return 0, lambda X: (P * P - 1) * (X + 1) ** 2 - 8 * X


@_algebraic("Q_tri", "y", "auxiliary algebraic series, simple triangular kernel")
def _alg_Q_tri(order):
    y = _x(order)
    return 0, lambda Q: Q * (1 - Q) ** 3 - y


@_algebraic("Qt_tri", "y", "square-root companion of Q_tri")
def _alg_Qt_tri(order):
    Q = named("Q_tri", order)
    # the square root of 1 + 8Q with constant term 1
    return 1, lambda Qt: Qt * Qt - (1 + 8 * Q)


@_algebraic("Y_tri", "y", "distance variable, simple triangular kernel")
def _alg_Y_tri(order):
    Q = named("Q_tri", order)
    # cleared form of Y + 1/Y + 2 = 1/Q
    return 0, lambda Y: Q * (Y + 1) ** 2 - Y


@_algebraic("R_tri", "z", "auxiliary algebraic series, irreducible triangular kernel")
def _alg_R_tri(order):
    z = _x(order)
    return 0, lambda R: R * (1 - R) ** 2 - z


@_algebraic("Rt_tri", "z", "square-root companion of R_tri")
def _alg_Rt_tri(order):
    R = named("R_tri", order)
    # the square root of (1 + 9R)/(1 + R) with constant term 1
    return 1, lambda Rt: (1 + R) * Rt * Rt - (1 + 9 * R)


@_algebraic("Z_tri", "z", "distance variable, irreducible triangular kernel")
def _alg_Z_tri(order):
    R = named("R_tri", order)
    # cleared form of Z + 1/Z + 1 = 1/R
    return 0, lambda Z: R * (Z * Z + Z + 1) - Z


@_series("q", "x", "total faces of rooted simple quadrangulations")
def _build_q(order):
    """Rooted simple quadrangulations by total faces: q' = 2 a3 - 2 with
    a3 = 1 + x a3^3, so q' is the root of 4q' = x(q' + 2)^3 with q'(0) = 0."""
    x = _x(order)
    r = fixpoint_solve(lambda r: 4 * r - x * (r + 2) ** 3, order, 0, "q")
    return r.integrate().truncate(order)


@_series("t", "x", "half the faces of rooted simple triangulations")
def _build_t(order):
    """Rooted simple triangulations by half the face count: t' = a4^2 with
    a4 = 1 + x a4^4, so t' is the root of (x t'^2 + 1)^2 = t' with t'(0) = 1."""
    x = _x(order)
    r = fixpoint_solve(lambda r: (x * r * r + 1) ** 2 - r, order, 1, "t")
    return r.integrate().truncate(order)


@_series("f_quad", "x", "faces of rooted sphere quadrangulations")
def _build_f_quad(order):
    P = named("P_quad", order)
    return P * (4 - P) / 3 - 1


@_series("f_tri", "x", "half the faces of simply-rooted sphere triangulations")
def _build_f_tri(order):
    P = named("P_tri", order)
    return -P * (P * P - 9) / 8 - 1


@_series("g_quad", "y", "inner faces of rooted simple quadrangulations")
def _build_g_quad(order):
    Q = named("Q_quad", order)
    return 3 * Q - Q * Q - 2


@_series("g_tri", "y", "half the faces of rooted simple triangulations")
def _build_g_tri(order):
    Q = named("Q_tri", order)
    return Q - 2 * Q * Q


@_series("a_vertex", "x", "quadrangular 2-dissections, marked inner vertex, outer 2-cycle unique")
def _build_a_vertex(order):
    q = named("q", order + 1)
    x = _x(order)
    return 2 * x + x * q.derivative()


@_series("a_edge", "x", "quadrangular 2-dissections, marked inner edge, outer 2-cycle unique")
def _build_a_edge(order):
    q = named("q", order + 1)
    x = _x(order)
    return 2 * x + 2 * x * q.derivative() - q.truncate(order)


@_series("d_quad", "x", "rooted quasi-simple pointed quadrangular 2-dissections, inner faces")
def _build_d_quad(order):
    return named("a_vertex", order).divide(1 - named("a_edge", order))


@_series("t_vertex", "x",
         "rooted simple triangulations, marked vertex off the root edge, half faces")
@_series("s_tri", "x", "simple triangulations with a marked edge, half faces")
def _build_s_tri(order):
    t = named("t", order + 1)
    return _x(order) * t.derivative()


@_series("t_edge", "x",
         "rooted simple triangulations, marked edge other than the root edge, half faces")
def _build_t_edge(order):
    return 3 * named("s_tri", order) - named("t", order)


@_series("t_rootedge", "x", "rooted simple triangulations, marked edge at the root vertex "
         "other than the root edge, half faces")
def _build_t_rootedge(order):
    # the valuation-cancelling division costs one order of precision
    t = named("t", order + 1)
    return (t - _x(order + 1)).divide(t)


@_series("u_tri", "x", "quasi-simple rooted triangular 2-dissections, no loop at root, half faces")
def _build_u_tri(order):
    """u and v solve the linear system u = tv + x(1+u) + tr u + (te - tr) v,
    v = tv + 2x(1+u) + te v; eliminate v, then solve the unit-coefficient
    equation for u."""
    x = _x(order)
    tv = named("t_vertex", order)
    te = named("t_edge", order)
    tr = named("t_rootedge", order)
    inv = 1 / (1 - te)
    coef_u = 1 - x - tr - (te - tr) * 2 * x * inv
    rhs = tv + x + (te - tr) * (tv + 2 * x) * inv
    return rhs.divide(coef_u)


@_series("v_tri", "x", "quasi-simple rooted triangular 2-dissections, half faces")
def _build_v_tri(order):
    """v = (tv + 2x(1+u)) / (1 - te), the second equation of u_tri's system."""
    x = _x(order)
    u = named("u_tri", order)
    return (named("t_vertex", order) + 2 * x * (1 + u)).divide(1 - named("t_edge", order))


@_series("d3_tri", "x", "quasi-simple pointed triangular 1-dissections, half faces")
def _build_d3_tri(order):
    return _x(order) * (1 + named("u_tri", order))


def d3_closed_form(order: int) -> TruncSeries:
    """Quasi-simple pointed triangular 1-dissections, direct rational form."""
    t = named("t", order + 1)
    x = _x(order)
    tp = t.derivative()
    t = t.truncate(order)
    num = x * (1 + t - 2 * x * tp)
    den = 1 - 2 * x + 2 * t - 3 * x * tp + t * t - 3 * x * tp * t
    return num.divide(den)


# -- two-point families -------------------------------------------------------


class _Kernel(NamedTuple):
    """A two-point kernel: the distance variable X and the limit C of the
    level series L_j = C (1 - c_j), with c_j = X^j (1-X)(1-X^2) /
    ((1-X^{j+1})(1-X^{j+2})), so that L_0 = 0.  Every two-point series is a
    difference of two consecutive levels.  In the plain triangular family, in
    x, C = P^2 and S_i = L_i + 4P^2/(1+P) - C is Bouttier, Di Francesco and
    Guitter's S_i = R_i + R_{i+1} + A_i^2 for triangulations, which verify
    checks."""

    X: TruncSeries
    C: TruncSeries

    def level(self, j: int) -> TruncSeries:
        X = self.X
        c = X**j * ((1 - X) * (1 - X * X)).divide((1 - X ** (j + 1)) * (1 - X ** (j + 2)))
        return self.C * (1 - c)


class TwoPoint(NamedTuple):
    """A two-point family: the variable of its series (its kernel's distance
    variable), by which size its coefficients count, its kernel, order -> the
    kernel series truncated there, and the shift s of its levels, so that its
    series at distance i is L_{i+s+1} - L_{i+s}."""

    variable: str
    convention: str
    kernel: Callable[[int], _Kernel]
    shift: int


_QUAD_SIZE = "(inner faces)/k"
_TRI_SIZE = "n, with (2n+1)k inner faces"

#: every two-point family by name, each declared once, on its kernel
TWO_POINT: dict[str, TwoPoint] = {
    "quad": TwoPoint("x", _QUAD_SIZE,
                     lambda n: _Kernel(named("X_quad", n), named("P_quad", n)), 0),
    "quad_simple": TwoPoint("y", _QUAD_SIZE,
                            lambda n: _Kernel(named("Y_quad", n), named("Q_quad", n)), 0),
    "quad_irred": TwoPoint("z", _QUAD_SIZE,
                           lambda n: _Kernel(named("Z_quad", n), named("R_quad", n) + 1), 0),
    "tri": TwoPoint("x", _TRI_SIZE,
                    lambda n: _Kernel(named("X_tri", n), named("P_tri", n) ** 2), -1),
    "tri_simple": TwoPoint("y", _TRI_SIZE,
                           lambda n: _Kernel(named("Y_tri", n), (1 - named("Q_tri", n)) ** -2), -1),
    "tri_irred": TwoPoint("z", _TRI_SIZE,
                          lambda n: _Kernel(named("Z_tri", n), 1 / (1 - named("R_tri", n))), -1),
}


def two_point(family: str, i: int, order: int) -> TruncSeries:
    """Generating series of symmetric dissections whose center sits at
    distance i from the outer boundary, counted by the size convention that
    TWO_POINT declares for the family and built from its kernel.  The
    irreducible variants require symmetry order at least 3 (quadrangular) or
    4 (triangular); the series themselves do not depend on the order."""
    entry = TWO_POINT.get(family)
    if entry is None:
        raise UnknownName(f"unknown two-point family {family!r}")
    if i <= 0:
        raise BadDistance("distance must be at least 1")
    kernel, j = entry.kernel(order), i + entry.shift
    return kernel.level(j + 1) - kernel.level(j)


# -- identity checks -----------------------------------------------------------


def check_residuals(order: int = 30) -> dict[str, bool]:
    """Whether each algebraic series, as `named` caches it, zeroes its residual."""
    return {name: entry.definition(order)[1](named(name, order)).is_zero()
            for name, entry in CATALOGUE.items() if entry.definition}


def substitution_y_of_x(order: int) -> TruncSeries:
    """y = x(1+f)^2 for quadrangulations."""
    f = named("f_quad", order)
    return _x(order) * (1 + f) ** 2


def substitution_y_of_x_tri(order: int) -> TruncSeries:
    """y = x(1+f)^3 for triangulations."""
    f = named("f_tri", order)
    return _x(order) * (1 + f) ** 3


def substitution_z_of_y_tri(order: int) -> TruncSeries:
    """z = g^2/y for triangulations."""
    g = named("g_tri", order)
    return (g * g).divide(_x(order))


def check_change_of_variables(order: int = 15) -> dict[str, bool]:
    """Whether each of the four substitution lemmas holds coefficientwise."""
    y = substitution_y_of_x(order)
    y3 = substitution_y_of_x_tri(order)
    z = substitution_z_of_y_tri(order)
    P, Q = named("P_quad", order), named("Q_quad", order)
    P3, Q3, Qt3 = named("P_tri", order), named("Q_tri", order), named("Qt_tri", order)
    return {
        "xy_quad": (P - (4 - TruncSeries.const(3, order).divide(Q.compose(y)))).is_zero(),
        "yz_quad": (Q - (named("R_quad", order).compose(named("g_quad", order)) + 1)).is_zero(),
        "xy_triang": (Q3.compose(y3) - (P3 * P3 - 1) / 8).is_zero()
        and (Qt3.compose(y3) - P3).is_zero(),
        "yz_triang": (named("R_tri", order).compose(z) - Q3.divide(1 - Q3)).is_zero()
        and (named("Rt_tri", order).compose(z) - Qt3).is_zero(),
    }
