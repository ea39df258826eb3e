"""Ideal arithmetic and class groups of imaginary quadratic maximal orders.

Ideals are kept in the standard form scale * (a*Z + ((b + sqrt(D))/2)*Z)
with b^2 = D mod 4a and -a < b <= a.  Only maximal orders of imaginary
fields are supported: the unit group is finite and Gauss reduction of
the form (a, b, c) decides principality.  Each reduction step divides the
ideal by an explicit element, so a principal ideal's generator is the
product of those elements (Cohen, A Course in Computational Algebraic
Number Theory, GTM 138, sec. 5.2-5.4).  `class_walk` composes a prime
with itself in reduced form and carries those elements along, so one
walk around the class cycle gives the class order n and a generator of
p^n without building p^n; it stops once n is too large for that
generator to be printed (PRINT_DIGITS).  The walk's state is the (a, b)
of the reduced ideal and the element as two integers: it builds no
QuadIdeal and no Fraction per step, and `ideal_mul` and the walk share
one composition core, `_compose`.

An ideal's scale and an element's coordinates are ints, or Fractions
when their denominator is not 1; both are read through numerator and
denominator.  No classify or classgroup call builds a Fraction, so the
fractions module is imported on the first one built (_fraction).
"""

from __future__ import annotations

import re
from itertools import chain
from math import isqrt, lcm, log

from .errors import InputError, quote, record, required
from .verdict import (DIMENSION_LE_ONE, PRINT_DIGITS, Denominators, Verdict, ratio,
                      read_number, render_rational)

# a generator of p^n for the class order n is the denominator for p
DEDEKIND = DIMENSION_LE_ONE.cite(after=("dedekind-classical-generator",
                                        "classical-support-union"))


# trial division makes at most about TRIAL_STEPS divisions: _is_prime refuses
# an n with square root above it, _is_squarefree an n with cube root above it.
# As a fresh process on a shared 2-core host, `classify` with the largest
# prime or the largest squarefree |d| below either bound takes 0.14-0.17 s
TRIAL_STEPS = 10 ** 6


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n >= (TRIAL_STEPS + 1) ** 2:
        raise InputError("cannot test primality past the trial division bound: "
                         "the square root is above quadorder.TRIAL_STEPS = %d" % TRIAL_STEPS)
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def _sqrt_mod(n: int, ell: int) -> int:
    """A square root of n, a square modulo the prime ell: one power when
    ell = 3 mod 4, Atkin's formula when ell = 5 mod 8, else Tonelli-Shanks.
    For ell other than 1 mod 8 any n gets a result, so squaring it decides
    whether n is a square."""
    n %= ell
    if n == 0 or ell == 2:
        return n
    if ell & 3 == 3:
        return pow(n, (ell + 1) >> 2, ell)
    if ell & 7 == 5:
        v = pow(2 * n, ell >> 3, ell)  # (2n)^((ell - 5)/8)
        return n * v * (2 * n * v * v - 1) % ell
    s = ((ell - 1) & (1 - ell)).bit_length() - 1  # ell - 1 = 2^s * q, q odd
    q = (ell - 1) >> s
    z = next(z for z in range(2, ell) if pow(z, (ell - 1) // 2, ell) == ell - 1)
    c, r, t = pow(z, q, ell), pow(n, (q + 1) // 2, ell), pow(n, q, ell)
    while t != 1:
        i = next(i for i in range(1, s) if pow(t, 1 << i, ell) == 1)
        b = pow(c, 1 << (s - i - 1), ell)
        s, c, r, t = i, b * b % ell, r * b % ell, t * b * b % ell
    return r


def _is_squarefree(n: int) -> bool:
    """Trial division only while i^3 <= n, each prime found divided out
    once: the cofactor left is then 1, p, pq or p^2."""
    n = abs(n)
    if n >= (TRIAL_STEPS + 1) ** 3:
        raise InputError("cannot test squarefreeness past the trial division bound: "
                         "the cube root of |d| is above quadorder.TRIAL_STEPS = %d"
                         % TRIAL_STEPS)
    i = 2
    while i * i * i <= n:
        if n % i == 0:
            n //= i
            if n % i == 0:
                return False
        i += 1
    r = isqrt(n)
    return n == 1 or r * r != n


@record
class QuadOrder:
    d: int  # squarefree, negative

    def __post_init__(self):
        if self.d >= 0:
            raise InputError("d must be negative (imaginary field)")
        if not _is_squarefree(self.d):
            raise InputError("d must be squarefree")

    @property
    def discriminant(self) -> int:
        return self.d if self.d % 4 == 1 else 4 * self.d

    @property
    def _parity(self) -> int:
        # parity of every admissible b, equals D mod 2
        return self.discriminant % 2

    def __repr__(self):
        return "QuadOrder(d=%d, D=%d)" % (self.d, self.discriminant)


@record
class QuadElement:
    """x + y*w where w = sqrt(d), or (1+sqrt(d))/2 when d = 1 mod 4."""

    order: QuadOrder
    x: object  # an int, or a Fraction whose denominator is not 1
    y: object

    def norm(self) -> Fraction:
        x, y, d = _fraction(self.x), _fraction(self.y), self.order.d
        if self.order._parity:
            return x * x + x * y + y * y * _fraction(1 - d, 4)
        return x * x - d * y * y

    def __repr__(self):
        return render_element(self)


def render_element(e: QuadElement) -> str:
    x, y = e.x, e.y
    if y == 0:
        return render_rational(x)
    if e.order._parity:
        # rewrite over the common denominator 2 in terms of sqrt(d)
        p, q = 2 * x + y, y
        if p.denominator == 1 and q.denominator == 1 \
                and p.numerator % 2 == 0 and q.numerator % 2 == 0:
            return _render_sqrt_form(p // 2, q // 2, e.order.d)
        return "(%s)/2" % _render_sqrt_form(p, q, e.order.d)
    return _render_sqrt_form(x, y, e.order.d)


def _render_sqrt_form(p, q, d):
    root = "sqrt(%d)" % d
    qs = render_rational(abs(q))
    tail = root if abs(q) == 1 else "%s*%s" % (qs, root)
    if p == 0:
        return ("-" if q < 0 else "") + tail
    sign = "-" if q < 0 else "+"
    return "%s%s%s" % (render_rational(p), sign, tail)


@record
class QuadIdeal:
    order: QuadOrder
    a: int
    b: int
    scale: object = 1  # an int, or a Fraction whose denominator is not 1
    # True on the ideals decompose_prime returns, whose norm it has proven
    # prime, so is_prime_ideal need not trial-divide it again.  Not a
    # field: it takes no part in ==, hash or repr
    _prime = False

    def __post_init__(self):
        D = self.order.discriminant
        if self.a <= 0:
            raise InputError("ideal norm part must be positive")
        if self.scale <= 0:
            raise InputError("ideal scale must be positive")
        if (self.b * self.b - D) % (4 * self.a) != 0:
            raise InputError("b^2 = D mod 4a fails")
        if not (-self.a < self.b <= self.a):
            raise InputError("b out of canonical range")

    def __repr__(self):
        s = "" if self.scale == 1 else "%s*" % render_rational(self.scale)
        return "%s(%d, %s)" % (s, self.a, render_element(self.second_generator()))

    def second_generator(self) -> QuadElement:
        # (b + sqrt(D))/2 expressed in the 1, w basis
        shift = (self.b - self.order._parity) // 2
        return QuadElement(self.order, shift, 1)


def _centred(b: int, a: int) -> int:
    """b mod 2a, in (-a, a]."""
    return a - (a - b) % (2 * a)


def _fraction(*args):
    """Fraction(*args), imported on the first call, which rebinds
    _fraction to Fraction itself."""
    global _fraction
    from fractions import Fraction as _fraction
    return _fraction(*args)


def _quotient(num: int, den: int):
    """num/den: an int when den divides it, else a Fraction."""
    return num // den if num % den == 0 else _fraction(num, den)


def make_ideal(order: QuadOrder, a: int, b: int, scale=1) -> QuadIdeal:
    if type(scale) is not int:
        scale = _quotient(*ratio(scale))
    return QuadIdeal(order, a, _centred(b, a), scale)


def unit_ideal(order: QuadOrder) -> QuadIdeal:
    return make_ideal(order, 1, order._parity)


def _in_ideal(x: int, y: int, a: int, b: int, parity: int) -> bool:
    """x + y*w in a*Z + ((b + sqrt(D))/2)*Z, for integers x and y."""
    return (x - y * ((b - parity) // 2)) % a == 0


def contains(I: QuadIdeal, e: QuadElement) -> bool:
    """Exact membership test against the standard basis of I."""
    x, y = _fraction(e.x) / I.scale, _fraction(e.y) / I.scale
    if x.denominator != 1 or y.denominator != 1:
        return False
    return _in_ideal(x.numerator, y.numerator, I.a, I.b, I.order._parity)


def ideal_norm(I: QuadIdeal):
    return I.scale ** 2 * I.a


def _xgcd(a: int, b: int):
    """(g, x, y) with g = gcd(a, b) = x*a + y*b and g >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b, x0, y0, x1, y1 = b, r, x1, y1, x0 - q * x1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def _compose(a1: int, b1: int, a2: int, b2: int, D: int):
    """(a3, b3, e): the product of the primitive ideals (a1, (b1 + sqrt(D))/2)
    and (a2, (b2 + sqrt(D))/2) is e*(a3, (b3 + sqrt(D))/2), b3 in (-a3, a3]."""
    s = (b1 + b2) // 2
    g1, x1, y1 = _xgcd(a1, a2)
    e, x2, w = _xgcd(g1, s)
    u, v = x1 * x2, y1 * x2
    # u*a1 + v*a2 + w*s == e == gcd(a1, a2, s)
    a3 = (a1 // e) * (a2 // e)
    num = u * a1 * b2 + v * a2 * b1 + w * (b1 * b2 + D) // 2
    if num % e != 0:
        raise AssertionError("composition numerator not divisible")
    return a3, _centred(num // e, a3), e


def ideal_mul(I: QuadIdeal, J: QuadIdeal) -> QuadIdeal:
    """Product in canonical form; multiplicative on norms."""
    if I.order != J.order:
        raise InputError("ideals from different orders")
    a3, b3, e = _compose(I.a, I.b, J.a, J.b, I.order.discriminant)
    return QuadIdeal(I.order, a3, b3,
                     _quotient(I.scale.numerator * J.scale.numerator * e,
                               I.scale.denominator * J.scale.denominator))


def ideal_pow(I: QuadIdeal, n: int) -> QuadIdeal:
    if n < 0:
        raise InputError("negative ideal powers not needed here")
    out = unit_ideal(I.order)
    for _ in range(n):
        out = ideal_mul(out, I)
    return out


def _reduce_form(a: int, b: int, D: int, steps=None):
    """Gauss reduction of the form (a, b, (b^2 - D)/4a); returns the reduced
    (a, b).  Each swap (a, b, c) -> (c, -b, a) is I = J*(tau/c) with
    tau = (b + sqrt(D))/2, and appends (b, c) to steps when given.  The
    final flip (a, b, a) -> (a, -b, a) is such a swap too."""
    while True:
        b = _centred(b, a)
        c = (b * b - D) // (4 * a)
        if a <= c:
            break
        if steps is not None:
            steps.append((b, c))
        a, b = c, -b
    if a == c and b < 0:
        if steps is not None:
            steps.append((b, c))
        b = -b
    return a, b


def reduce(I: QuadIdeal) -> QuadIdeal:
    """Reduced representative of the class of I (scale dropped)."""
    return QuadIdeal(I.order, *_reduce_form(I.a, I.b, I.order.discriminant))


def _unit_multiples(order: QuadOrder, x, y):
    """x + y*w times each unit, as (x, y) pairs: w generates the 4 units for
    d = -1 and the 6 for d = -3, where w^2 = c0 + c1*w; otherwise the units
    are +-1."""
    if order.d not in (-1, -3):
        return [(x, y), (-x, -y)]
    c0, c1 = ((order.d - 1) // 4, 1) if order._parity else (order.d, 0)
    out = [(x, y)]
    while len(out) < {-1: 4, -3: 6}[order.d]:
        x, y = y * c0, x + y * c1
        out.append((x, y))
    return out


def _times_taus(p: int, den: int, steps, D: int):
    """(p', q', den'): p/2 times the steps' taus is (p' + q'*sqrt(D))/2, and
    den' is den times their cs."""
    q = 0
    for b, c in steps:
        p, q, den = (p * b + q * D) // 2, (p + q * b) // 2, den * c
    return p, q, den


def _generator(I: QuadIdeal, n: int, x, y) -> QuadElement:
    """x + y*w as a generator of I^n, where I is prime if n > 1.

    Of its unit multiples the one with the least (|y|, |x|), then x >= 0,
    then y >= 0, is returned, so the choice does not depend on how it was
    found.  The check is exact: g lies in I, has norm N(I)^n, and is not in
    the conjugate of I unless that is I.  For n = 1 that makes (g) = I.
    For a prime I, the integral ideals of norm N(I)^n are I^i conj(I)^(n-i),
    and g outside conj(I) leaves only I^n.

    x and y are ints, or Fractions when I has a fractional scale s, and g
    holds them as given; the check runs on integers.  With g = (X + Y*w)/m
    and s = sn/sd, g/s has the coordinates (u, v) = (X, Y)*sd/(m*sn), and
    g lies in I when those are integers in the primitive part
    (a, (b + sqrt(D))/2).  Then
    4*N(g/s) = (2u + parity*v)^2 - D*v^2, and N(g) = N(I)^n = (s^2*a)^n
    reads 4*N(g/s)*sd^(2n-2) = 4*a^n*sn^(2n-2).
    """
    order = I.order
    x, y = min(_unit_multiples(order, x, y),
               key=lambda g: (abs(g[1]), abs(g[0]), 2 * (g[0] < 0) + (g[1] < 0)))
    D, parity, a, b = order.discriminant, order._parity, I.a, I.b
    m = lcm(x.denominator, y.denominator)
    sn, sd = I.scale.numerator, I.scale.denominator
    k = m * sn
    u, ru = divmod(x.numerator * (m // x.denominator) * sd, k)
    v, rv = divmod(y.numerator * (m // y.denominator) * sd, k)
    t = 2 * u + parity * v
    bc = _centred(-b, a)  # the conjugate's b
    g = QuadElement(order, x, y)
    if ru or rv or not _in_ideal(u, v, a, b, parity) \
            or (t * t - D * v * v) * sd ** (2 * n - 2) != 4 * a ** n * sn ** (2 * n - 2) \
            or (bc != b and _in_ideal(u, v, a, bc, parity)):
        raise AssertionError("%r is not a generator of %r^%d" % (g, I, n))
    return g


def is_principal(I: QuadIdeal):
    """Generator of I if principal, else None.

    Form reduction decides the class; when the reduced form is the unit
    form, the generator of the primitive part is the product of the
    reduction steps' tau/c (see _generator for the unit multiple returned).
    """
    D, parity = I.order.discriminant, I.order._parity
    steps = []
    if _reduce_form(I.a, I.b, D, steps) != (1, parity):
        return None
    p, q, den = _times_taus(2, 1, steps, D)
    # in the 1, w basis: x = (p - parity*q)/2, y = q, each times I.scale
    sn, sd = I.scale.numerator, I.scale.denominator
    return _generator(I, 1, _quotient((p - parity * q) // 2 * sn, den * sd),
                      _quotient(q * sn, den * sd))


# prime decomposition ------------------------------------------------------

@record
class Split:
    p: QuadIdeal
    pbar: QuadIdeal


@record
class Inert:
    p: QuadIdeal  # ell times the order


@record
class Ramified:
    p: QuadIdeal


def _symbol(D: int, ell: int) -> int:
    # Kronecker symbol (D/ell) for prime ell
    if ell == 2:
        if D % 2 == 0:
            return 0
        return 1 if D % 8 in (1, 7) else -1
    r = D % ell
    if r == 0:
        return 0
    return 1 if pow(r, (ell - 1) // 2, ell) == 1 else -1


def decompose_prime(order: QuadOrder, ell: int):
    """Split / Inert / Ramified behaviour of a rational prime, with the
    prime ideals above it (Inert holds ell times the order).

    The orders here are maximal, so the conductor is 1 and no prime is
    excluded.  ell is trial-divided here, once: is_prime_ideal takes the
    ideals returned without dividing again.
    """
    if not _is_prime(ell):
        raise InputError("%s is not a rational prime" % quote(str(ell), str))
    D = order.discriminant
    sym = _symbol(D, ell)
    if sym == -1:
        return Inert(_proven(inert_ideal(order, ell)))
    # b in (-ell, ell] with b^2 = D mod 4*ell, each = +-r mod ell: a pair
    # +-b when ell splits, else one root; take the largest
    r = _sqrt_mod(D, ell)
    hit = max((b for b in (r, -r, r - ell, ell - r)
               if -ell < b <= ell and (b * b - D) % (4 * ell) == 0), default=None)
    if hit is None:
        raise AssertionError("no square root found despite symbol %d" % sym)
    p = _proven(make_ideal(order, ell, hit))
    if sym == 0:
        return Ramified(p)
    return Split(p, _proven(make_ideal(order, ell, -hit)))


def _proven(I: QuadIdeal) -> QuadIdeal:
    object.__setattr__(I, "_prime", True)
    return I


def inert_ideal(order: QuadOrder, ell: int) -> QuadIdeal:
    return make_ideal(order, 1, order._parity, ell)


# class group --------------------------------------------------------------

# the largest |D| whose reduced forms `classgroup` lists.  In process on a
# shared 2-core host, reduced_forms alone takes 0.05-0.13 s at |D| near
# 10^10, 0.10-0.17 s at 3*10^10, 0.14-0.34 s at 5*10^10, 0.23-0.29 s at
# 10^11 and 0.8-1.3 s at 10^12 (four discriminants per rung, two runs; the
# class number moves the time).  The whole call, text or JSON, took a median
# of 0.18-0.20 s and at most 0.29 s at 3*10^10 (eight discriminants).  As a
# fresh process with output to /dev/null, eight seeded fundamental D per
# rung with 0.95 T <= |D| <= T, median of 5 per call, it takes 0.22-0.58 s
# at T = 5*10^10, 0.28-1.10 s at 10^11 and 0.43-1.11 s at 2*10^11: the
# slowest call passes 0.5 s on every rung (D = -48030442759 in JSON at
# 5*10^10), so the bound stays at 3*10^10.
FORMS_BOUND = 3 * 10 ** 10


def reduced_forms(order: QuadOrder):
    """All reduced forms (a, b, c) of the discriminant D, sorted.

    Method: for each a <= sqrt(|D|/3) only the b in (-a, a] with
    b^2 = D mod 4a are built, sorted, as roots[a].  At an odd prime a
    they are +-r, r = _sqrt_mod(D, a) taken with the parity of D and
    kept iff r^2 = D mod a: one power D^((a+1)/4) when a = 3 mod 4,
    Atkin's formula when a = 5 mod 8, Euler's criterion and then
    Tonelli-Shanks when a = 1 mod 8.  At any other a = p*q, p the least
    prime factor, each root r for q lifts to the p candidates r + 2qt,
    and a is passed over when q or p has no root.  As a grows and each
    a's b are sorted, the forms come out sorted.  c >= a holds wherever
    4a^2 <= |D|, so it is tested only above that.

    Every form is primitive, so no gcd is taken: g dividing a, b and c
    gives g^2 | D, and D is fundamental (d is squarefree, the order
    maximal), so g <= 2; g = 2 would give D/4 = (b/2)^2 - ac = 0 or 1
    mod 4, where a fundamental D/4 is 2 or 3 mod 4.

    Cost: the least-prime-factor sieve and the a-loop take about
    sqrt|D| log|D| steps, and each of the h forms one step more, where
    trying every b in (-a, a] would take |D|/3 (Cohen, GTM 138, sec. 1.5
    and 5.3).  |D| above FORMS_BOUND is an InputError.

    >>> reduced_forms(QuadOrder(-5))
    [(1, 0, 5), (2, 2, 3)]
    """
    D = order.discriminant
    if -D > FORMS_BOUND:
        raise InputError("cannot list the reduced forms of discriminant %d: "
                         "|D| is above quadorder.FORMS_BOUND = %d" % (D, FORMS_BOUND))
    amax = isqrt(-D // 3)
    alow = isqrt(-D // 4)  # 4a^2 <= |D|, so c >= a, for every a <= alow
    spf = list(range(amax + 1))  # least prime factor
    for p in range(isqrt(amax), 1, -1):  # the least p writes last
        spf[p * p::p] = [p] * len(range(p * p, amax + 1, p))
    parity = D % 2  # the parity of every b
    roots = [()] * (amax + 1)
    roots[1] = (parity,)
    out = [(1, parity, (parity - D) // 4)]
    for a in range(2, amax + 1):
        p, m = spf[a], 4 * a
        if p == a > 2:
            n = D % p
            if p & 7 == 1 and n and pow(n, p >> 1, p) != 1:  # Euler's criterion
                continue
            r = _sqrt_mod(n, p)
            if r * r % p != n:
                continue
            if r & 1 != parity:
                r = p - r
            rs = roots[a] = (-r, r) if n else (r,)
        else:
            q = a // p
            if not roots[q] or q > 1 and not roots[p]:
                continue
            rs = roots[a] = sorted([b if b <= a else b - 2 * a for r in roots[q]
                                    for b in range(r, r + 2 * a, 2 * q) if (b * b - D) % m == 0])
        if a <= alow:
            out += [(a, b, (b * b - D) // m) for b in rs]
        else:
            for b in rs:
                c = (b * b - D) // m
                if c > a or c == a and b >= 0:
                    out.append((a, b, c))
    return out


def class_number(order: QuadOrder) -> int:
    return len(reduced_forms(order))


def class_order(I: QuadIdeal) -> int:
    """Least n >= 1 with I^n principal."""
    base = reduce(I)
    unit = unit_ideal(I.order)
    acc = base
    n = 1
    while acc != unit:
        acc = reduce(ideal_mul(acc, base))
        n += 1
    return n


def class_walk(P: QuadIdeal):
    """(n, g): the class order n of the prime ideal P and the generator g
    of P^n that is_principal(ideal_pow(P, n)) returns.

    R_0 is the unit ideal and R_k the reduced ideal of R_{k-1}*P.  With
    P^k = G_k*R_k, the element alpha_k = N(R_k)*G_k generates
    P^k*conj(R_k), so it is integral, of about k*log2(N(P))/2 bits.  Each
    step multiplies alpha by the product's content, by N(R_k) and by the
    reduction's taus, and divides exactly by N(R_{k-1}) times the
    reduction's cs.  When R_n is the unit ideal, alpha_n generates P^n:
    the compact representation of a principal ideal along the
    composition cycle (Buchmann and Vollmer, Binary Quadratic Forms, 2007;
    Cohen, GTM 138, sec. 5.4).  No power of P is built.  The state is the
    (a, b) of R_k and alpha = (p + q*sqrt(D))/2 as the integers p and q;
    each step composes (a, b) with P's (a, b) through _compose, the core of
    ideal_mul, and _generator checks alpha_n in integers.

    A generator g of P^n is printed as u + v*sqrt(d) or (u + v*sqrt(d))/2
    with max(u^2, |d|*v^2) >= N(g)/2 = N(P)^n/2.  So once the walk shows
    N(P)^n >= 2|d|*10^(2*PRINT_DIGITS), u or v has more than PRINT_DIGITS
    digits and the walk stops with an InputError.

    >>> class_walk(decompose_prime(QuadOrder(-5), 3).p)
    (2, 2-sqrt(-5))
    """
    order = P.order
    D, parity = order.discriminant, order._parity
    # least k with N(P)^k past the bound, plus one for rounding
    kmax = int((log(-2 * order.d) + 2 * PRINT_DIGITS * log(10)) / log(ideal_norm(P))) + 2
    pa, pb, scale = P.a, P.b, P.scale.numerator  # a prime ideal is integral
    a, b = 1, parity  # R_0
    p, q = 2, 0  # alpha = (p + q*sqrt(D))/2
    n = 0
    while True:
        n += 1
        ka, kb, e = _compose(a, b, pa, pb, D)  # R_{k-1}*P = scale*e*(ka, kb)
        steps = []
        ra, rb = _reduce_form(ka, kb, D, steps)
        # content*N(R_k)*prod(tau) = (tp + tq*sqrt(D))/2, over N(R_{k-1})*prod(c)
        tp, tq, den = _times_taus(2 * scale * e * ra, a, steps, D)
        p, q = (p * tp + q * tq * D) // (2 * den), (p * tq + q * tp) // (2 * den)
        if (ra, rb) == (1, parity):
            break
        if n + 1 >= kmax:
            raise InputError("the class order of %r is above %d, so a generator of "
                             "its power has more than %d digits, too long to print "
                             "(verdict.PRINT_DIGITS = %d)" % (P, n, PRINT_DIGITS, PRINT_DIGITS))
        a, b = ra, rb
    return n, _generator(P, n, (p - parity * q) // 2, q)


def is_prime_ideal(I: QuadIdeal) -> bool:
    if I._prime:
        return True  # decompose_prime has proven it prime
    if I.scale == 1 and _is_prime(I.a):
        return True  # norm is prime
    if I.a == 1 and I.scale.denominator == 1 and _is_prime(I.scale.numerator):
        return _symbol(I.order.discriminant, I.scale.numerator) == -1
    return False


def classify_dedekind(order: QuadOrder, primes, labels=None) -> Verdict:
    """Verdict for V = the given set of maximal ideals.

    Krull dimension one makes every specialisation closed set the support
    of a flat epimorphism which is also universal; finiteness of the
    class group always produces classical denominators.  The denominator
    for P is a generator of P^n, n the class order, from class_walk: a
    class order whose generator cannot be printed is an InputError.
    """
    primes = list(primes)
    for P in primes:
        if P.order != order:
            raise InputError("prime from a different order")
        if not is_prime_ideal(P):
            raise InputError("non-prime ideal in V: %s" % quote(repr(P), str))
    if labels is not None and len(labels) != len(primes):
        raise InputError("label count mismatch")

    elements = []
    details = []
    for idx, P in enumerate(primes):
        label = labels[idx] if labels else repr(P)
        n, gen = class_walk(P)
        text = render_element(gen)
        elements.append(text)
        details.append((("prime", label), ("class_order", n), ("generator", text)))

    desc = ", ".join(labels) if labels else ", ".join(repr(P) for P in primes)
    notes = []
    if not primes:
        notes.append("V is empty: the identity localisation")
    notes.append("Krull dimension one: flat epimorphisms, universal and "
                 "classical localisations all coincide here")
    return DEDEKIND("quad:%d" % order.d, "{%s}" % desc,
                    Denominators(tuple(elements), tuple(details)), notes)


# the command line ------------------------------------------------------------

def _parse_primes(order: QuadOrder, text: str):
    """(ideals, labels) for a --prime list such as "p2,p3bar"."""
    ideals, labels = [], []
    for token in text.split(","):
        token = token.strip()
        m = re.fullmatch(r"p(\d+)(bar)?", token)
        if not m:
            raise InputError('prime spec must look like "p2" or "p3bar", got %s'
                             % quote(token))
        ell = read_number(m.group(1), "--prime")
        conjugate = bool(m.group(2))
        dec = decompose_prime(order, ell)
        if isinstance(dec, Split):
            ideal = dec.pbar if conjugate else dec.p
        elif conjugate and isinstance(dec, Inert):
            raise InputError("%d is inert, p%d has no distinct conjugate"
                             % (ell, ell))
        else:
            # the ramified prime equals its conjugate, accept both spellings
            ideal = dec.p
        if ideal not in ideals:  # a prime named twice keeps its first label
            ideals.append(ideal)
            labels.append(token)
    return ideals, labels


def classify_ring(ring: str, prime_spec: str) -> Verdict:
    """`classify --ring quad:<d> --prime <spec>`."""
    body = ring.split(":", 1)[1]
    try:
        d = read_number(body, "the ring id")
    except ValueError:
        raise InputError("cannot read %s as an integer" % quote(body)) from None
    order = QuadOrder(d)
    ideals, labels = _parse_primes(order, required(prime_spec, "quad rings need --prime"))
    return classify_dedekind(order, ideals, labels)


def classgroup_text(D: int, as_json: bool) -> str:
    """What `classgroup --disc D` prints: the reduced forms of the
    fundamental discriminant D, in JSON or in text."""
    if D % 4 == 0:
        d = D // 4
    elif D % 4 == 1:
        d = D
    else:
        raise InputError("%s is not a discriminant (need 0 or 1 mod 4)" % quote(str(D), str))
    order = QuadOrder(d)
    if order.discriminant != D:
        raise InputError(
            "%d is not a fundamental discriminant (the maximal order of "
            "Q(sqrt(%d)) has discriminant %d)" % (D, d, order.discriminant))
    forms = reduced_forms(order)
    # one format for the whole listing: the forms can be many, and the unit
    # form makes the list non-empty
    h = len(forms)
    if as_json:
        layout = ('{\n  "class_number": %d,\n  "discriminant": %d,\n  "reduced_forms": ['
                  + (",\n    [\n      %d,\n      %d,\n      %d\n    ]" * h)[1:]
                  + '\n  ],\n  "schema": 1\n}')
        head = (h, D)
    else:
        layout = "discriminant: %d\nclass number: %d" + "\nform: %d %d %d" * h
        head = (D, h)
    return layout % (head + tuple(chain.from_iterable(forms)))
