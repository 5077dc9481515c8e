"""Exact scalar arithmetic: Gaussian rationals, polynomials, rational functions.

Every quantity in this package lives somewhere in the tower

    Q(i)  <  Q(i)[x1, ..., xk]  <  Q(i)(x1, ..., xk)

where the variables are free parameters of a representation family
(``r2``, ``s1_1``, ...).  There is no floating point anywhere: polynomials
are dictionaries from exponent tuples to Gaussian-rational coefficients,
and rational functions are numerator/denominator pairs compared by
cross-multiplication.

A Gaussian rational is three Python ints ``(a, b, d)`` standing for
(a + b*i)/d: an integer vector over one common denominator, the usual
representation of number-field elements (Cohen, *A Course in Computational
Algebraic Number Theory*, 4.2).  The form is canonical:

* d > 0 and gcd(a, b, d) = 1, and zero is (0, 0, 1);
* so equal values have equal triples, ``==`` compares the triples, and a
  real value (b = 0) hashes like the int or Fraction a/d it equals.

``+ - * /``, ``inverse``, ``**`` and the zero tests use int arithmetic
only.  Subtraction is addition of the negation and inversion is the
quotient of one, so each operation has one code path; a sum, difference or
product of two values with denominator 1 computes no gcd.  No Fraction is
built on that path.  What Fraction already owns is read from it: the hash
of a non-integer real value and the printed parts of a value with d > 1
are those of ``Fraction(a, d)`` and ``Fraction(b, d)``.  ``re``/``im``
return those Fractions for readers who want them, and the constructor takes
int, Fraction or string parts and refuses floats.

Evaluation and substitution read a variable only where a term uses it: a
point or mapping may bind other names, and what it holds for a variable
that occurs in no term is never looked at.

Normalization contract for :class:`RatFunc`, applied by its constructor and
nowhere else (no multivariate gcd is ever computed; these cheap reductions
are what keep intermediate growth sane):

* zero is 0/1;
* any monomial dividing both numerator and denominator is cancelled, and
  the denominator is scaled monic (leading coefficient 1 in graded
  lexicographic order over the ring's declared variable order);
* a value whose numerator then equals its denominator is 1/1;
* a pair over 1 is taken as given: no monomial divides 1 and 1 is monic.

A power is num^k/den^k, already normal since each variable's lowest degree
and the leading coefficient are multiplicative; it is the k-fold product
term for term, except for -1 or +-i over a non-constant denominator, whose
k-fold product collapses to 1/1 at each multiple of the root's order.

Rendering is deterministic, not canonical: terms are listed in descending
graded lexicographic order, so one construction always prints the same, but
equal values may print apart (``x + 1`` and ``(x^2 - 1)/(x - 1)``).
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import gcd as _gcd


class VanishingDenominator(ZeroDivisionError):
    """A denominator evaluated to zero at a parameter point.

    Signals an excluded parameter value, not a programming error.
    """


class MissingVariable(LookupError):
    """An evaluation point fails to bind a variable that occurs."""


class GaussianRational:
    """An element (a + b*i)/d of Q(i), stored as the three ints ``a, b, d``
    in the canonical form of the module docstring; ``re`` and ``im`` read
    the parts as Fractions."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.a, self.b, self.d = re, im, 1
            return
        p, q = _parts(re)
        r, s = _parts(im)
        # over the lcm of two lowest-terms denominators, gcd(a, b, d) is 1
        d = q // _gcd(q, s) * s
        self.a, self.b, self.d = p * (d // q), r * (d // s), d

    @classmethod
    def from_ints(cls, a: int, b: int, d: int = 1) -> GaussianRational:
        """(a + b*i)/d for ints with d != 0, brought to canonical form."""
        if not d:
            raise ZeroDivisionError("zero denominator in Q(i)")
        return _reduced(a, b, d) if d > 0 else _reduced(-a, -b, -d)

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    # -- arithmetic -------------------------------------------------

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d, e = self.d, other.d
        if d == e:
            a, b = self.a + other.a, self.b + other.b
            if d == 1:
                return _make(a, b, 1)
        else:
            a, b, d = self.a * e + other.a * d, self.b * e + other.b * d, d * e
        return _reduced(a, b, d)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self + -other

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, c, e = self.a, self.b, other.a, other.b
        if b or e:
            a, b = a * c - b * e, a * e + b * c
        else:  # real fast path
            a *= c
        d = self.d * other.d
        if d == 1:
            return _make(a, b, 1)
        return _reduced(a, b, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _quotient(self, other)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _quotient(other, self)

    def __neg__(self):
        return _make(-self.a, -self.b, self.d)

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        a, b, d = self.a, self.b, self.d
        if not b:  # gcd(a, d) = 1 gives gcd(a^k, d^k) = 1
            return _make(a ** k, 0, d ** k)
        x, y, dk = 1, 0, d ** k  # x + y*i = (a + b*i)^k, by squaring
        while k:
            if k & 1:
                x, y = x * a - y * b, x * b + y * a
            a, b = a * a - b * b, 2 * a * b
            k >>= 1
        return _reduced(x, y, dk)

    def inverse(self) -> GaussianRational:
        return _quotient(G_ONE, self)

    # -- structure --------------------------------------------------

    def is_zero(self) -> bool:
        return not (self.a or self.b)

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def __eq__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        a, b, d = self.a, self.b, self.d
        if b:
            return hash((a, b, d))
        if d == 1:
            return hash(a)
        # a real value equals the Fraction a/d, and equal numbers must hash
        # equal, so it hashes as that Fraction does
        return hash(Fraction(a, d))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return render_gaussian(self)


_new = object.__new__


def _make(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d, already in canonical form."""
    g = _new(GaussianRational)
    g.a, g.b, g.d = a, b, d
    return g


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d for d > 0, divided by gcd(a, b, d); zero comes out as
    (0, 0, 1) since gcd(0, 0, d) = d."""
    g = _gcd(a, b, d)
    if g == 1:
        return _make(a, b, d)
    return _make(a // g, b // g, d // g)


def _quotient(x: GaussianRational, y: GaussianRational) -> GaussianRational:
    """x / y: (a + b*i)/d over (c + e*i)/f is (a + b*i)(c - e*i)*f over
    d*(c^2 + e^2)."""
    a, b, c, e, f = x.a, x.b, y.a, y.b, y.d
    if e:
        a, b, d = (a * c + b * e) * f, (b * c - a * e) * f, x.d * (c * c + e * e)
    elif c:
        if c < 0:
            c, f = -c, -f
        a, b, d = a * f, b * f, x.d * c
    else:
        raise ZeroDivisionError("inverse of zero in Q(i)")
    if d == 1:
        return _make(a, b, 1)
    return _reduced(a, b, d)


def _parts(x) -> tuple[int, int]:
    """Numerator and positive denominator of an exact rational part; a float
    is refused, not read as its binary fraction."""
    if type(x) is int:
        return x, 1
    if isinstance(x, float):
        raise TypeError(f"not an exact scalar: {x!r}")
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator, x.denominator


def _coerce(x):
    if type(x) is GaussianRational:
        return x
    if type(x) is int:
        return _make(x, 0, 1)
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
    a, b, d = g.a, g.b, g.d
    if not b:
        return _ratio(a, d)
    if b == d:
        imag = "i"
    elif b == -d:
        imag = "-i"
    else:
        imag = f"{_ratio(b, d)}*i"
    if not a:
        return imag
    sign = "+" if b > 0 else ""
    return f"{_ratio(a, d)}{sign}{imag}"


def _ratio(n: int, d: int) -> str:
    """n/d (d > 0) as ``str`` of the Fraction prints it, which reduces it to
    lowest terms."""
    return str(n) if d == 1 else str(Fraction(n, d))


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
    (p, _, q), (r, _, s) = (m.group("re") or "0").partition("/"), im.partition("/")
    q, s = int(q or 1), int(s or 1)
    if not q or not s:
        raise ValueError(f"zero denominator in Gaussian rational: {text!r}")
    return GaussianRational.from_ints(int(p) * s, int(r) * q, q * s)


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
        self._rf_zero = RatFunc(self._zero, self._one)
        self._rf_one = RatFunc(self._one, self._one)

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
            return RatFunc(self.var(x), self._one)
        return RatFunc(self.const(x), self._one)


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
        """Evaluate at a Q(i)-point given as {variable name: scalar}; only
        the variables that occur are read, so the point may bind others."""
        names = self.ring.vars
        total = G_ZERO
        for exp, c in self.terms.items():
            for k, d in enumerate(exp):
                if d:
                    c = c * _bound_scalar(point, names[k]) ** d
            total = total + c
        return total

    def substitute(self, mapping: dict, target: PolyRing) -> RatFunc:
        """Substitute rational functions (over ``target``) for the variables.

        Every variable that occurs must be mapped, and only those are read.
        Used to plug a concrete parameter family into a generic constraint
        system.
        """
        names = self.ring.vars
        total = target._rf_zero
        for exp, c in self.terms.items():
            term = RatFunc(target.const(c), target._one)
            for k, d in enumerate(exp):
                if d:
                    x = mapping.get(names[k])
                    if x is None:
                        raise MissingVariable(f"substitution does not bind {names[k]!r}")
                    term = term * target.rf(x) ** d
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


def _bound_scalar(point: dict, name: str) -> GaussianRational:
    """The scalar that ``point`` binds to ``name``."""
    if name not in point:
        raise MissingVariable(f"no value bound for {name!r}")
    g = _coerce(point[name])
    if g is NotImplemented:
        raise TypeError(f"not a scalar: {point[name]!r}")
    return g


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
        if c.a and c.b:
            return f"({render_gaussian(c)})"
        return render_gaussian(c)
    if c == G_ONE:
        return mono
    if c == -G_ONE:
        return "-" + mono
    if c.a and c.b:
        return f"({render_gaussian(c)})*{mono}"
    return f"{render_gaussian(c)}*{mono}"


class RatFunc:
    """A rational function num/den over a :class:`PolyRing`.

    Equality is decided by cross-multiplication, so no gcd computation is
    needed for correctness.  The constructor alone brings a pair to the
    normal form of the module docstring, which keeps representatives small;
    a pair over 1 is already in it and is stored as given.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in rational function")
        if not den.is_one():
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
        return RatFunc(r.const(g), r._one)

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
        return RatFunc(-self.num, self.den)

    def __mul__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        if self.num.is_zero() or other.num.is_zero():
            return self.ring._rf_zero
        if self.den.is_one() and other.den.is_one():
            return RatFunc(self.num * other.num, self.den)
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
        return RatFunc(self.num ** k, self.den ** k)

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
    if num.terms == den.terms:
        return ring._one, ring._one
    return num, den
