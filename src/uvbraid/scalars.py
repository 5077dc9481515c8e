"""Exact scalar arithmetic: Gaussian rationals, polynomials, rational functions.

Every quantity in this package lives somewhere in the tower

    Q(i)  <  Q(i)[x1, ..., xk]  <  Q(i)(x1, ..., xk)

where the variables are free parameters of a representation family
(``r2``, ``s1_1``, ...).  There is no floating point anywhere: rational
parts are :class:`fractions.Fraction`, polynomials are dictionaries from
exponent tuples to Gaussian-rational coefficients, and rational functions
are numerator/denominator pairs compared by cross-multiplication.

Normalization contract for :class:`RatFunc` (no multivariate gcd is ever
computed; these cheap reductions are what keep intermediate growth sane):

* a zero numerator forces the denominator to 1;
* any monomial dividing both numerator and denominator is cancelled;
* the denominator is scaled monic (leading coefficient 1 in graded
  lexicographic order over the ring's declared variable order).

Rendering is deterministic, not canonical: terms are listed in descending
graded lexicographic order, so one construction always prints the same, but
equal values may print apart (``1`` and ``(x*y - z)/(x*y - z)``).
"""

from __future__ import annotations

import re as _re
from fractions import Fraction


class VanishingDenominator(ZeroDivisionError):
    """A denominator evaluated to zero at a parameter point.

    Signals an excluded parameter value, not a programming error.
    """


class MissingVariable(LookupError):
    """An evaluation point fails to bind a variable that occurs."""


_ZERO = Fraction(0)
_ONE = Fraction(1)


class GaussianRational:
    """An element a + b*i of Q(i), with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is Fraction else _exact(re)
        self.im = im if type(im) is Fraction else _exact(im)

    # -- arithmetic -------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.im and not other.im:  # real fast path
            return GaussianRational(self.re * other.re, _ZERO)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = GaussianRational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self) -> GaussianRational:
        if not self.re and not self.im:
            raise ZeroDivisionError("inverse of zero in Q(i)")
        if not self.im:
            return GaussianRational(1 / self.re, _ZERO)
        n = self.re * self.re + self.im * self.im
        return GaussianRational(self.re / n, -self.im / n)

    # -- structure --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # a real value equals the int/Fraction it coerces from, so it must
        # hash like one
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return render_gaussian(self)


def _exact(x) -> Fraction:
    """A Fraction part; a float is refused, not read as its binary fraction."""
    if isinstance(x, float):
        raise TypeError(f"not an exact scalar: {x!r}")
    return Fraction(x)


def _coerce(x):
    if type(x) is GaussianRational:
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    if isinstance(x, GaussianRational):
        return x
    return NotImplemented


G_ZERO = GaussianRational(0)
G_ONE = GaussianRational(1)
G_I = GaussianRational(0, 1)


def render_gaussian(g: GaussianRational) -> str:
    """Canonical string for an element of Q(i): ``p/q``, ``p/q*i``, ``p/q+r/s*i``."""
    if not g.im:
        return str(g.re)
    if g.im == 1:
        imag = "i"
    elif g.im == -1:
        imag = "-i"
    else:
        imag = f"{g.im}*i"
    if not g.re:
        return imag
    sign = "+" if g.im > 0 else ""
    return f"{g.re}{sign}{imag}"


_GAUSS_RE = _re.compile(
    r"""^
    (?:
        (?P<re>[+-]?\d+(?:/\d+)?)
        (?P<im1>[+-](?:\d+(?:/\d+)?\*)?i)?   # sign mandatory after a real part
      |
        (?P<im2>[+-]?(?:\d+(?:/\d+)?\*)?i)
    )
    $""",
    _re.VERBOSE,
)


def parse_gaussian(text: str) -> GaussianRational:
    """Parse ``a/b``, ``c/d*i``, ``a/b+c/d*i`` (and plain integer forms) into Q(i)."""
    s = text.strip().replace(" ", "")
    m = _GAUSS_RE.match(s)
    if not m or s == "":
        raise ValueError(f"cannot parse Gaussian rational: {text!r}")
    # the imaginary coefficient, without its trailing "i" or "*i"
    im = (m.group("im1") or m.group("im2") or "0i")[:-1].removesuffix("*")
    im = {"": "1", "+": "1", "-": "-1"}.get(im, im)
    try:
        return GaussianRational(Fraction(m.group("re") or "0"), Fraction(im))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in Gaussian rational: {text!r}") from None


class PolyRing:
    """A polynomial ring Q(i)[vars] with a fixed, ordered variable tuple.

    The variable order is part of the ring's identity: it drives the graded
    lexicographic term order used for leading terms and rendering.  Two rings
    interoperate exactly when their variable tuples agree.
    """

    __slots__ = ("vars", "_index", "_zero_exp", "_zero", "_one", "_rf_zero", "_rf_one")

    def __init__(self, variables: tuple[str, ...] | list[str]):
        names = tuple(variables)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names: {names}")
        self.vars = names
        self._index = {v: k for k, v in enumerate(names)}
        self._zero_exp = (0,) * len(names)
        self._zero = MultiPoly(self, {})
        self._one = MultiPoly(self, {self._zero_exp: G_ONE})
        self._rf_zero = RatFunc(self._zero, self._one, _normalized=True)
        self._rf_one = RatFunc(self._one, self._one, _normalized=True)

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.vars == other.vars

    def __hash__(self):
        return hash(self.vars)

    def __repr__(self):
        return f"PolyRing{self.vars}"

    def zero(self) -> MultiPoly:
        return self._zero

    def one(self) -> MultiPoly:
        return self._one

    def const(self, c) -> MultiPoly:
        g = c if type(c) is GaussianRational else _coerce(c)
        if g is NotImplemented:
            raise TypeError(f"not a scalar: {c!r}")
        if g.is_zero():
            return self._zero
        return MultiPoly(self, {self._zero_exp: g})

    def var(self, name: str) -> MultiPoly:
        try:
            k = self._index[name]
        except KeyError:
            raise MissingVariable(f"{name!r} is not a variable of {self!r}") from None
        exp = list(self._zero_exp)
        exp[k] = 1
        return MultiPoly(self, {tuple(exp): G_ONE})

    def rf(self, x) -> RatFunc:
        """Lift a constant, variable name, or polynomial to a rational function."""
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, MultiPoly):
            return RatFunc(x, self._one)
        if isinstance(x, str):
            return RatFunc(self.var(x), self._one, _normalized=True)
        return RatFunc(self.const(x), self._one, _normalized=True)


def _grlex_key(exp: tuple[int, ...]):
    return (sum(exp), exp)


class MultiPoly:
    """A multivariate polynomial over Q(i), stored as {exponent tuple: coeff}.

    Zero coefficients are never stored; the zero polynomial is the empty dict.
    Instances are immutable by convention (arithmetic always builds new dicts).
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- arithmetic -------------------------------------------------

    def _lift(self, other):
        if isinstance(other, MultiPoly):
            if other.ring.vars != self.ring.vars:
                raise ValueError("polynomial rings differ")
            return other
        g = _coerce(other)
        if g is NotImplemented:
            return NotImplemented
        return self.ring.const(g)

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for exp, c in other.terms.items():
            s = out.get(exp)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(exp, None)
            else:
                out[exp] = s
        return MultiPoly(self.ring, out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return MultiPoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.terms or not other.terms:
            return self.ring._zero
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                s = out.get(exp)
                s = c if s is None else s + c
                if s.is_zero():
                    out.pop(exp, None)
                else:
                    out[exp] = s
        return MultiPoly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial; use RatFunc")
        out = self.ring._one
        for _ in range(k):
            out = out * self
        return out

    def scale(self, g: GaussianRational) -> MultiPoly:
        if g.is_zero():
            return self.ring._zero
        return MultiPoly(self.ring, {e: c * g for e, c in self.terms.items()})

    # -- structure --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == self.ring._one.terms

    def is_constant(self) -> bool:
        return not self.terms or (
            len(self.terms) == 1 and self.ring._zero_exp in self.terms
        )

    def constant_value(self) -> GaussianRational:
        if not self.terms:
            return G_ZERO
        if self.is_constant():
            return self.terms[self.ring._zero_exp]
        raise ValueError(f"not a constant polynomial: {self}")

    def leading(self) -> tuple[tuple[int, ...], GaussianRational]:
        """Leading (exponent, coefficient) in graded lexicographic order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self.terms, key=_grlex_key)
        return exp, self.terms[exp]

    def monic(self) -> MultiPoly:
        """Scale so the graded-lex leading coefficient is 1 (canonical rep
        of the scalar-multiple class). Zero stays zero."""
        if not self.terms:
            return self
        _, lc = self.leading()
        if lc == G_ONE:
            return self
        return self.scale(lc.inverse())

    def key(self):
        """Hashable canonical key (used to dedup polynomials)."""
        return tuple(sorted(self.terms.items()))

    def variables(self) -> tuple[str, ...]:
        """Names that actually occur, in ring order."""
        seen = [False] * len(self.ring.vars)
        for e in self.terms:
            for k, d in enumerate(e):
                if d:
                    seen[k] = True
        return tuple(v for v, s in zip(self.ring.vars, seen) if s)

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self.ring.vars == other.ring.vars and self.terms == other.terms
        g = _coerce(other)
        if g is NotImplemented:
            return NotImplemented
        return self.terms == self.ring.const(g).terms

    # -- evaluation and substitution ---------------------------------

    def evaluate(self, point: dict) -> GaussianRational:
        """Evaluate at a Q(i)-point given as {variable name: scalar}."""
        vals = _point_vector(self.ring, point, self.variables())
        total = G_ZERO
        for exp, c in self.terms.items():
            term = c
            for k, d in enumerate(exp):
                if d:
                    term = term * vals[k] ** d
            total = total + term
        return total

    def substitute(self, mapping: dict, target: PolyRing) -> RatFunc:
        """Substitute rational functions (over ``target``) for the variables.

        Every variable that occurs must be mapped.  Used to plug a concrete
        parameter family into a generic constraint system.
        """
        imgs: list[RatFunc | None] = []
        for v in self.ring.vars:
            x = mapping.get(v)
            imgs.append(target.rf(x) if x is not None else None)
        total = target._rf_zero
        for exp, c in self.terms.items():
            term = RatFunc(target.const(c), target._one, _normalized=True)
            for k, d in enumerate(exp):
                if d:
                    if imgs[k] is None:
                        raise MissingVariable(
                            f"substitution does not bind {self.ring.vars[k]!r}"
                        )
                    term = term * imgs[k] ** d
            total = total + term
        return total

    def exact_div(self, other: MultiPoly) -> MultiPoly:
        """Exact polynomial division (raises if the division leaves a remainder).

        Only exact quotients are ever requested here (fraction-free elimination
        divides by a previous pivot that provably divides the result).
        """
        other = self._lift(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return self
        div_exp, div_c = other.leading()
        div_inv = div_c.inverse()
        rem = dict(self.terms)
        out: dict = {}
        while rem:
            exp = max(rem, key=_grlex_key)
            q_exp = tuple(a - b for a, b in zip(exp, div_exp))
            if any(d < 0 for d in q_exp):
                raise ValueError("inexact polynomial division")
            q_c = rem[exp] * div_inv
            out[q_exp] = q_c
            # rem -= (q term) * other
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(q_exp, e2))
                s = rem.get(e, G_ZERO) - q_c * c2
                if s.is_zero():
                    rem.pop(e, None)
                else:
                    rem[e] = s
        return MultiPoly(self.ring, out)

    # -- rendering ---------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms, key=_grlex_key, reverse=True):
            parts.append(_render_term(self.ring, exp, self.terms[exp]))
        out = parts[0]
        for p in parts[1:]:
            if p.startswith("-"):
                out += " - " + p[1:]
            else:
                out += " + " + p
        return out

    def __repr__(self):
        return f"<MultiPoly {self}>"


def _point_vector(ring: PolyRing, point: dict, needed: tuple[str, ...]):
    vals: list = [G_ZERO] * len(ring.vars)
    for v in needed:
        if v not in point:
            raise MissingVariable(f"no value bound for {v!r}")
    for v, x in point.items():
        k = ring._index.get(v)
        if k is not None:
            g = _coerce(x)
            if g is NotImplemented:
                raise TypeError(f"not a scalar: {x!r}")
            vals[k] = g
    return vals


def _render_monomial(ring: PolyRing, exp: tuple[int, ...]) -> str:
    factors = []
    for name, d in zip(ring.vars, exp):
        if d == 1:
            factors.append(name)
        elif d:
            factors.append(f"{name}^{d}")
    return "*".join(factors)


def _render_term(ring: PolyRing, exp: tuple[int, ...], c: GaussianRational) -> str:
    mono = _render_monomial(ring, exp)
    if not mono:
        if c.im and c.re:
            return f"({render_gaussian(c)})"
        return render_gaussian(c)
    if c == G_ONE:
        return mono
    if c == -G_ONE:
        return "-" + mono
    if c.im and c.re:
        return f"({render_gaussian(c)})*{mono}"
    return f"{render_gaussian(c)}*{mono}"


class RatFunc:
    """A rational function num/den over a :class:`PolyRing`.

    Equality is decided by cross-multiplication, so no gcd computation is
    needed for correctness.  See the module docstring for the normalization
    that keeps representatives small.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly, _normalized: bool = False):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in rational function")
        if not _normalized:
            num, den = _normalize(num, den)
        self.num = num
        self.den = den

    @property
    def ring(self) -> PolyRing:
        return self.num.ring

    # -- arithmetic -------------------------------------------------

    def _lift(self, other):
        if isinstance(other, RatFunc):
            if other.ring.vars != self.ring.vars:
                raise ValueError("rational function rings differ")
            return other
        if isinstance(other, MultiPoly):
            return RatFunc(other, other.ring._one)
        g = _coerce(other)
        if g is NotImplemented:
            return NotImplemented
        r = self.ring
        return RatFunc(r.const(g), r._one, _normalized=True)

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den.terms == other.den.terms:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return RatFunc(-self.num, self.den, _normalized=True)

    def __mul__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        if self.num.is_zero() or other.num.is_zero():
            return self.ring._rf_zero
        if self.den.is_one() and other.den.is_one():
            return RatFunc(self.num * other.num, self.den, _normalized=True)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero():
            raise VanishingDenominator("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.ring._rf_one
        for _ in range(k):
            out = out * self
        return out

    def inverse(self) -> RatFunc:
        if self.num.is_zero():
            raise VanishingDenominator("inverse of the zero rational function")
        return RatFunc(self.den, self.num)

    # -- structure --------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.terms == self.den.terms

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> GaussianRational:
        c = self.num.constant_value()
        return c if self.den.is_one() else c / self.den.constant_value()

    def as_variable(self) -> str | None:
        """The variable name if this is exactly a single bare variable."""
        if not self.den.is_one() or len(self.num.terms) != 1:
            return None
        (exp, c), = self.num.terms.items()
        if c != G_ONE or sum(exp) != 1:
            return None
        return self.ring.vars[exp.index(1)]

    def __eq__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den.terms == other.den.terms:
            return self.num.terms == other.num.terms
        return (self.num * other.den).terms == (other.num * self.den).terms

    # -- evaluation ---------------------------------------------------

    def evaluate(self, point: dict) -> GaussianRational:
        d = self.den.evaluate(point)
        if d.is_zero():
            raise VanishingDenominator(
                f"denominator {self.den} vanishes at {_fmt_point(point)}"
            )
        return self.num.evaluate(point) / d

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        num = str(self.num)
        if len(self.num.terms) > 1:
            num = f"({num})"
        return f"{num}/({self.den})"

    def __repr__(self):
        return f"<RatFunc {self}>"


def _fmt_point(point: dict) -> str:
    return "{" + ", ".join(f"{k}={point[k]}" for k in sorted(point)) + "}"


def _normalize(num: MultiPoly, den: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    ring = num.ring
    if num.is_zero():
        return ring._zero, ring._one
    # cancel any monomial dividing every term of both num and den
    nvars = len(ring.vars)
    if nvars:
        gmin = None
        for terms in (num.terms, den.terms):
            for e in terms:
                gmin = e if gmin is None else tuple(map(min, gmin, e))
                if not any(gmin):
                    break
        if gmin and any(gmin):
            num = MultiPoly(
                ring,
                {tuple(a - b for a, b in zip(e, gmin)): c for e, c in num.terms.items()},
            )
            den = MultiPoly(
                ring,
                {tuple(a - b for a, b in zip(e, gmin)): c for e, c in den.terms.items()},
            )
    # make the denominator monic
    _, lc = den.leading()
    if lc != G_ONE:
        inv = lc.inverse()
        num = num.scale(inv)
        den = den.scale(inv)
    return num, den
