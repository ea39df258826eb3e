import random
import re
from fractions import Fraction
from math import gcd, isqrt

import pytest

from oracles import (first_hit_generator, lattice_member,
                     least_positive_root, quad_ideal_rows, quad_principal_rows,
                     quad_product_rows, reduced_forms_brute, same_rational_lattice,
                     squarefree_brute)
from uniloc import cli, quadorder
from uniloc.errors import InputError
from uniloc.quadorder import (Inert, QuadElement, QuadIdeal, QuadOrder,
                              Ramified, Split, class_number, class_order,
                              class_walk, classify_dedekind, contains, decompose_prime,
                              ideal_mul, ideal_norm, ideal_pow, inert_ideal,
                              is_principal, is_prime_ideal, make_ideal, reduce,
                              reduced_forms, render_element, unit_ideal)

D_POOL = (-1, -2, -3, -5, -6, -7, -10, -11, -13, -14, -15, -17, -19, -23)


def decomposition_type_oracle(D: int, ell: int) -> str:
    """Brute-force splitting type, no Kronecker symbol involved."""
    if ell == 2:
        if D % 2 == 0:
            return "ramified"
        return "split" if D % 8 == 1 else "inert"
    if D % ell == 0:
        return "ramified"
    sols = sum(1 for x in range(ell) if (x * x - D) % ell == 0)
    return "split" if sols == 2 else "inert"


def small_primes(bound):
    out = []
    for n in range(2, bound):
        if all(n % p for p in out):
            out.append(n)
    return out


def random_prime(rng, lo, hi):
    while True:
        n = rng.randrange(lo, hi)
        if all(n % i for i in range(2, isqrt(n) + 1)):
            return n


def prime_divisors(n):
    out, p = set(), 2
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    return out | ({n} if n > 1 else set())


class TestOrderValidation:
    def test_positive_d_rejected(self):
        with pytest.raises(InputError):
            QuadOrder(5)
        with pytest.raises(InputError):
            QuadOrder(0)

    def test_non_squarefree_rejected(self):
        for d in (-4, -8, -9, -12, -45):
            with pytest.raises(InputError):
                QuadOrder(d)

    def test_squarefree_matches_trial_division(self):
        for n in range(1, 100000):
            assert quadorder._is_squarefree(n) == squarefree_brute(n), n
        # the cofactor left after division up to the cube root is 1, p,
        # pq or p^2: seeded p^2*m must fail and p*m (m squarefree) pass
        rng = random.Random(6)
        for _ in range(60):
            p, q = random_prime(rng, 2, 10 ** 5), random_prime(rng, 2, 10 ** 5)
            m = rng.randrange(1, 1000)
            assert not quadorder._is_squarefree(-p * p * m), (p, m)
            if p * p * q * q < (quadorder.TRIAL_STEPS + 1) ** 3:
                assert not quadorder._is_squarefree(p * p * q * q), (p, q)
            else:  # past the trial division bound
                with pytest.raises(InputError):
                    quadorder._is_squarefree(p * p * q * q)
            if squarefree_brute(m) and m % p:
                assert quadorder._is_squarefree(-p * m), (p, m)
                assert quadorder._is_squarefree(p * q * m) == (p != q and m % q != 0)

    def test_trial_division_bound(self):
        # trial division makes at most about TRIAL_STEPS divisions
        past = quadorder.TRIAL_STEPS + 1
        assert not quadorder._is_prime(past ** 2 - 1)
        with pytest.raises(InputError, match="square root is above quadorder.TRIAL_STEPS = 1000000"):
            quadorder._is_prime(past ** 2)
        assert not quadorder._is_squarefree(past ** 3 - 1)
        with pytest.raises(InputError,
                           match="cube root of \\|d\\| is above quadorder.TRIAL_STEPS = 1000000"):
            quadorder._is_squarefree(-past ** 3)
        with pytest.raises(InputError):
            QuadOrder(-10 ** 30 - 3)

    def test_discriminant(self):
        assert QuadOrder(-5).discriminant == -20
        assert QuadOrder(-1).discriminant == -4
        assert QuadOrder(-7).discriminant == -7
        assert QuadOrder(-15).discriminant == -15


def test_element_norms():
    o5 = QuadOrder(-5)
    assert QuadElement(o5, Fraction(2), Fraction(3)).norm() == 49
    assert QuadElement(o5, Fraction(1), Fraction(1)).norm() == 6
    o7 = QuadOrder(-7)
    # w = (1+sqrt(-7))/2 has norm (1-d)/4 = 2
    assert QuadElement(o7, Fraction(0), Fraction(1)).norm() == 2
    assert QuadElement(o7, Fraction(-1), Fraction(1)).norm() == 2


def test_render_element():
    o5 = QuadOrder(-5)
    assert render_element(QuadElement(o5, Fraction(2), Fraction(-3))) == "2-3*sqrt(-5)"
    assert render_element(QuadElement(o5, Fraction(0), Fraction(-1))) == "-sqrt(-5)"
    assert render_element(QuadElement(o5, Fraction(7), Fraction(0))) == "7"
    o7 = QuadOrder(-7)
    assert render_element(QuadElement(o7, Fraction(0), Fraction(1))) == "(1+sqrt(-7))/2"
    assert render_element(QuadElement(o7, Fraction(1), Fraction(2))) == "2+sqrt(-7)"


def test_make_ideal_canonicalizes_b():
    o = QuadOrder(-5)
    assert make_ideal(o, 2, 2) == make_ideal(o, 2, -2) == make_ideal(o, 2, 6)
    assert make_ideal(o, 3, 8).b == 2
    assert make_ideal(o, 3, -4).b == 2
    with pytest.raises(InputError):
        QuadIdeal(o, 3, 1)  # 1 - (-20) = 21 not divisible by 12
    with pytest.raises(InputError):
        QuadIdeal(o, 2, -2)  # b out of (-a, a]
    with pytest.raises(InputError):
        QuadIdeal(o, 0, 0)
    with pytest.raises(InputError):
        QuadIdeal(o, 1, 0, Fraction(-1))


def test_contains():
    o = QuadOrder(-5)
    p2 = make_ideal(o, 2, 2)
    assert contains(p2, QuadElement(o, Fraction(2), Fraction(0)))
    assert contains(p2, QuadElement(o, Fraction(1), Fraction(1)))
    assert not contains(p2, QuadElement(o, Fraction(1), Fraction(0)))
    assert not contains(p2, QuadElement(o, Fraction(1, 2), Fraction(1, 2)))
    two_o = inert_ideal(o, 2)  # scale-2 unit module
    assert contains(two_o, QuadElement(o, Fraction(2), Fraction(4)))
    assert not contains(two_o, QuadElement(o, Fraction(2), Fraction(1)))


def test_integral_scales_are_ints():
    # an integral scale is an int, equal to the Fraction it was, with the
    # same hash and repr; a fractional scale stays a Fraction
    for d, a, b in ((-5, 1, 0), (-5, 2, 2), (-7, 2, 1), (-47, 3, 1)):
        o = QuadOrder(d)
        I, F = make_ideal(o, a, b), QuadIdeal(o, a, b, Fraction(1))
        assert type(I.scale) is int
        assert I == F and hash(I) == hash(F) and repr(I) == repr(F)
        for scale in (3, Fraction(6, 2), "3"):
            J = make_ideal(o, a, b, scale)
            assert type(J.scale) is int and J == QuadIdeal(o, a, b, Fraction(3))
        J = make_ideal(o, a, b, Fraction(1, 3))
        assert type(J.scale) is Fraction and J.scale == Fraction(1, 3)
        assert type(ideal_norm(J)) is Fraction and ideal_norm(J) == Fraction(a, 9)
        K = ideal_mul(J, make_ideal(o, 1, o._parity, 3))
        assert type(K.scale) is int and K == make_ideal(o, a, b)
        L = inert_ideal(o, 7)
        assert type(L.scale) is int and type(ideal_norm(L)) is int and ideal_norm(L) == 49
        assert QuadElement(o, 2, 3).norm() == QuadElement(o, Fraction(2), Fraction(3)).norm()


@pytest.mark.parametrize("ring, primes", [("quad:-5", "p2"), ("quad:-47", "p2,p3bar"),
                                          ("quad:-6681", "p29"), ("quad:-11095", "p2")])
def test_classify_builds_no_fraction(count_fractions, ring, primes):
    # a split prime of class order 2, two of order 5, an inert prime, and
    # class order 22 at a d of the benchmark's plateau: parse, walk,
    # generator check and both printers run on ints (10, 28, 9 and 13
    # Fractions when scales and coordinates were Fractions)
    def run():
        v = cli.classify(ring, primes)
        assert "classical localisation: yes" in v.to_text() and '"generator"' in v.to_json()

    assert count_fractions(run) == 0


def test_decompose_matches_brute_force_oracle():
    for d in D_POOL:
        order = QuadOrder(d)
        D = order.discriminant
        for ell in small_primes(50):
            dec = decompose_prime(order, ell)
            expected = decomposition_type_oracle(D, ell)
            got = {Split: "split", Inert: "inert", Ramified: "ramified"}[type(dec)]
            assert got == expected, (d, ell, got, expected)


def test_decompose_rejects_composites():
    o = QuadOrder(-5)
    for n in (1, 4, 15, -3):
        with pytest.raises(InputError):
            decompose_prime(o, n)


def test_split_and_ramified_product_identities():
    for d in D_POOL:
        order = QuadOrder(d)
        for ell in small_primes(30):
            dec = decompose_prime(order, ell)
            ell_module = inert_ideal(order, ell)  # scale-ell unit module
            if isinstance(dec, Split):
                assert dec.p != dec.pbar
                assert ideal_mul(dec.p, dec.pbar) == ell_module
                assert ideal_norm(dec.p) == ell
            elif isinstance(dec, Ramified):
                assert ideal_mul(dec.p, dec.p) == ell_module
                assert ideal_norm(dec.p) == ell
            else:
                assert ideal_norm(inert_ideal(order, ell)) == ell * ell


def test_ideal_mul_is_the_module_product():
    # the composition formula against a raw lattice computation
    rng = random.Random(2026)
    pool = {}
    for d in D_POOL:
        order = QuadOrder(d)
        ideals = [unit_ideal(order)]
        for ell in small_primes(20):
            dec = decompose_prime(order, ell)
            if isinstance(dec, Split):
                ideals += [dec.p, dec.pbar]
            elif isinstance(dec, Ramified):
                ideals.append(dec.p)
            else:
                ideals.append(inert_ideal(order, ell))
        pool[d] = ideals
    for _ in range(300):
        d = rng.choice(D_POOL)
        I, J = rng.choice(pool[d]), rng.choice(pool[d])
        K = ideal_mul(I, J)
        assert same_rational_lattice(quad_product_rows(I, J), quad_ideal_rows(K))
        assert ideal_norm(K) == ideal_norm(I) * ideal_norm(J)


def test_ideal_pow():
    o = QuadOrder(-5)
    p3 = decompose_prime(o, 3).p
    assert ideal_pow(p3, 0) == unit_ideal(o)
    assert ideal_pow(p3, 1) == p3
    assert ideal_pow(p3, 3) == ideal_mul(p3, ideal_mul(p3, p3))
    with pytest.raises(InputError):
        ideal_pow(p3, -1)


def test_mixed_order_product_rejected():
    with pytest.raises(InputError):
        ideal_mul(unit_ideal(QuadOrder(-5)), unit_ideal(QuadOrder(-1)))


def test_known_class_numbers():
    known = {-1: 1, -2: 1, -3: 1, -7: 1, -11: 1, -19: 1, -163: 1,
             -5: 2, -6: 2, -10: 2, -13: 2, -15: 2,
             -23: 3, -14: 4, -17: 4, -21: 4, -47: 5}
    for d, h in known.items():
        assert class_number(QuadOrder(d)) == h, d


def test_reduced_forms_of_minus_twenty():
    assert reduced_forms(QuadOrder(-5)) == [(1, 0, 5), (2, 2, 3)]


def test_reduced_forms_match_brute_force():
    for d in range(-1, -3001, -1):
        if squarefree_brute(-d):
            order = QuadOrder(d)
            assert reduced_forms(order) == reduced_forms_brute(order.discriminant), d
    rng = random.Random(6)
    tested = 0
    while tested < 8:
        d = -rng.randrange(25000, 10 ** 6)
        if not squarefree_brute(-d) or abs(QuadOrder(d).discriminant) > 10 ** 6:
            continue
        order = QuadOrder(d)
        assert reduced_forms(order) == reduced_forms_brute(order.discriminant), d
        tested += 1
    # class numbers of the size the kernel-sweep rungs list: h = 1661, 1344, 783
    for d, h in ((-3010279, 1661), (-3004359, 1344), (-1006879, 783)):
        forms = reduced_forms(QuadOrder(d))
        assert len(forms) == h and forms == reduced_forms_brute(d), d


def test_fundamental_forms_are_primitive():
    # reduced_forms takes no gcd: for a fundamental D the brute force lists
    # the same forms with or without its primitivity filter
    for d in range(-1, -6000, -1):
        if squarefree_brute(-d):
            D = QuadOrder(d).discriminant
            assert reduced_forms_brute(D, primitive=False) == reduced_forms_brute(D), d
    # the filter does act on a non-fundamental D: 2*(1, 1, 1) has D = -12
    assert reduced_forms_brute(-12, primitive=False) == [(1, 0, 3), (2, 2, 2)]
    assert reduced_forms_brute(-12) == [(1, 0, 3)]


def test_reduced_forms_genus_count_near_1e8():
    # brute force is too slow here.  Each class of order <= 2 holds exactly
    # one ambiguous reduced form (b = 0, b = a or a = c), and there are
    # 2^(t-1) of them, t the number of primes dividing D (Gauss's genus
    # theory; Cohen, GTM 138, sec. 5.3)
    for d in (-100000007, -111546435, -74364290, -48612265):
        D = QuadOrder(d).discriminant
        forms = reduced_forms(QuadOrder(d))
        assert len(set(forms)) == len(forms) and forms == sorted(forms)
        for a, b, c in forms:
            assert b * b - 4 * a * c == D
            assert abs(b) <= a <= c and gcd(gcd(a, b), c) == 1
            assert b >= 0 or (-b != a and a != c), (a, b, c)
        genus = 2 ** (len(prime_divisors(-D)) - 1)
        ambiguous = [f for f in forms if f[1] in (0, f[0]) or f[0] == f[2]]
        assert len(ambiguous) == genus, d
        assert len(forms) % genus == 0


def test_reduced_forms_close_under_composition():
    for d in (-1, -2, -5, -6, -13, -23, -47):
        order = QuadOrder(d)
        forms = reduced_forms(order)
        ideals = [make_ideal(order, a, b) for a, b, _ in forms]
        table = {(I.a, I.b) for I in ideals}
        unit = unit_ideal(order)
        principal = (unit.a, unit.b)
        assert principal in table
        assert {(R.a, R.b) for R in map(reduce, ideals)} == table
        for I in ideals:
            for J in ideals:
                R = reduce(ideal_mul(I, J))
                assert (R.a, R.b) in table
            R = reduce(ideal_mul(I, make_ideal(order, I.a, -I.b)))
            assert (R.a, R.b) == principal


def test_class_order_divides_class_number():
    for d in D_POOL:
        order = QuadOrder(d)
        h = class_number(order)
        for ell in small_primes(20):
            dec = decompose_prime(order, ell)
            if isinstance(dec, Inert):
                continue
            assert h % class_order(dec.p) == 0


def test_principal_primes_skip_the_class_number(monkeypatch):
    # class_number lists every reduced form; classify never pays for it,
    # whatever the class order
    def refuse(order):
        raise AssertionError("class_number called for %r" % (order,))
    monkeypatch.setattr(quadorder, "class_number", refuse)
    order = QuadOrder(-100000007)
    assert isinstance(decompose_prime(order, 5), Inert)
    verdict = classify_dedekind(order, [inert_ideal(order, 5)], ["p5"])
    assert verdict.witness.elements == ("5",)
    p5 = decompose_prime(QuadOrder(-1), 5).p  # (2+i)
    assert class_order(p5) == 1
    assert render_element(is_principal(p5)) == "2+sqrt(-1)"
    order = QuadOrder(-10007)
    p2 = decompose_prime(order, 2).p
    assert class_order(p2) == 77
    verdict = classify_dedekind(order, [p2], ["p2"])
    assert verdict.witness.details[0] == (
        ("prime", "p2"), ("class_order", 77),
        ("generator", "(212462990979+7476169711*sqrt(-10007))/2"))


def test_is_principal_certificates():
    for d in D_POOL:
        order = QuadOrder(d)
        candidates = [unit_ideal(order)]
        for ell in small_primes(14):
            dec = decompose_prime(order, ell)
            if isinstance(dec, Inert):
                candidates.append(inert_ideal(order, ell))
            else:
                candidates.append(dec.p)
                candidates.append(ideal_pow(dec.p, class_order(dec.p)))
        for I in candidates:
            gen = is_principal(I)
            if gen is None:
                assert reduce(I) != unit_ideal(order)
                continue
            assert contains(I, gen)
            assert gen.norm() == ideal_norm(I)
            assert same_rational_lattice(
                quad_ideal_rows(I), quad_principal_rows(order, gen.x, gen.y))


# (d, ell, class order of p<ell>) over class numbers 15 to 120; every
# power up to k + 1 has norm at most 5^8, inside the brute-force oracle's reach
ORACLE_CASES = (
    (-971, 3, 5), (-971, 13, 3), (-2087, 3, 7), (-3299, 3, 9), (-3299, 11, 3),
    (-9431, 5, 7), (-40009, 2, 2), (-11570, 2, 2), (-11570, 3, 10),
    (-11570, 5, 2), (-11766, 7, 5), (-10149, 5, 6),
)


def test_is_principal_matches_first_hit_oracle():
    # the reduction's generator is the one the brute-force scan meets first
    for d, ell, k in ORACLE_CASES:
        order = QuadOrder(d)
        dec = decompose_prime(order, ell)
        assert class_order(dec.p) == k
        h = class_number(order)
        assert h % k == 0 and 10 <= h <= 200
        primes = (dec.p, dec.pbar) if isinstance(dec, Split) else (dec.p,)
        for P in primes:
            for n in range(k + 2):
                I = ideal_pow(P, n)
                gen = is_principal(I)
                want = first_hit_generator(I)
                assert (gen is None) == (want is None) == (n % k != 0), (d, ell, n)
                if gen is not None:
                    assert [gen.x, gen.y] == want, (d, ell, n)


def test_is_principal_units_of_minus_one_and_minus_three():
    # the orders with more than two units: the generator is still the first hit
    for d in (-1, -3):
        order = QuadOrder(d)
        for ell in small_primes(100):
            dec = decompose_prime(order, ell)
            if isinstance(dec, Inert):
                ideals = [inert_ideal(order, ell)]
            else:
                ideals = [dec.p, getattr(dec, "pbar", dec.p)]
            for P in ideals:
                for n in range(3):
                    I = ideal_pow(P, n)
                    gen = is_principal(I)
                    assert [gen.x, gen.y] == first_hit_generator(I), (d, ell, n)


def test_minus_10007_p2_certificate():
    # class order 77: the generator has norm 2^77 and lies in p2^77
    order = QuadOrder(-10007)
    p2 = decompose_prime(order, 2).p
    assert class_order(p2) == 77
    I = ideal_pow(p2, 77)
    gen = is_principal(I)
    assert gen.norm() == 2 ** 77
    assert lattice_member(quad_ideal_rows(I), [gen.x, gen.y])
    assert same_rational_lattice(quad_ideal_rows(I),
                                 quad_principal_rows(order, gen.x, gen.y))
    assert render_element(gen) == "(212462990979+7476169711*sqrt(-10007))/2"


def prime_ideals(order, ell):
    dec = decompose_prime(order, ell)
    if isinstance(dec, Inert):
        return [inert_ideal(order, ell)]
    return [dec.p, dec.pbar] if isinstance(dec, Split) else [dec.p]


def power_path(P):
    """The class order and generator from the power: class_order, then
    is_principal(ideal_pow(P, n))."""
    n = class_order(P)
    return n, is_principal(ideal_pow(P, n))


def test_class_walk_matches_first_hit_oracle():
    for d, ell, k in ORACLE_CASES:
        for P in prime_ideals(QuadOrder(d), ell):
            n, gen = class_walk(P)
            assert n == k, (d, ell)
            assert [gen.x, gen.y] == first_hit_generator(ideal_pow(P, k)), (d, ell)
            assert (n, gen) == power_path(P), (d, ell)


def test_class_walk_matches_the_power_path():
    rng = random.Random(7)
    ells = small_primes(38)
    tested = 0
    while tested < 150:
        d = -rng.randrange(1, 6000)
        if not squarefree_brute(-d):
            continue
        order = QuadOrder(d)
        for P in prime_ideals(order, rng.choice(ells)):
            assert class_walk(P) == power_path(P), (d, P)
        tested += 1


def test_class_walk_records_the_final_flip():
    # (2, -1, 2) reduces to (2, 1, 2) by the flip, a swap by tau/2 with
    # tau = (-1 + sqrt(-15))/2; unrecorded, the walk would follow p2 for p2bar
    steps = []
    assert quadorder._reduce_form(2, -1, -15, steps) == (2, 1)
    assert steps == [(-1, 2)]
    order = QuadOrder(-15)
    dec = decompose_prime(order, 2)
    got = [render_element(class_walk(P)[1]) for P in (dec.p, dec.pbar)]
    assert got == ["(1+sqrt(-15))/2", "(1-sqrt(-15))/2"]
    for P in (dec.p, dec.pbar):
        gen = class_walk(P)[1]
        assert [gen.x, gen.y] == first_hit_generator(ideal_pow(P, 2))


def test_generator_check_rejects_the_conjugate_split():
    # l lies in p and has norm N(p)^2, but (l) = p*pbar, not p^2: only the
    # test that a generator of p^n avoids pbar tells them apart
    for d in D_POOL:
        order = QuadOrder(d)
        for ell in small_primes(30):
            dec = decompose_prime(order, ell)
            if not isinstance(dec, Split):
                continue
            with pytest.raises(AssertionError):
                quadorder._generator(dec.p, 2, Fraction(ell), Fraction(0))


def split_walks(ells):
    """(P, n, g, gbar) for the split primes over D_POOL and a few larger
    class groups: g generates P^n and gbar generates conj(P)^n."""
    for d in D_POOL + (-971, -2087, -10007):
        order = QuadOrder(d)
        for ell in ells:
            dec = decompose_prime(order, ell)
            if isinstance(dec, Split):
                n, g = class_walk(dec.p)
                yield dec.p, n, g, class_walk(dec.pbar)[1]


def times_sqrt_form(order, x, y, e0, e1):
    """(x + y*w)*(e0 + e1*sqrt(d)) in the 1, w basis."""
    half = Fraction(order._parity, 2)
    g0, g1 = x + y * half, y - y * half  # x + y*w = g0 + g1*sqrt(d)
    h0, h1 = g0 * e0 + order.d * g1 * e1, g0 * e1 + g1 * e0
    return h0 - h1 * order._parity, h1 * (1 + order._parity)


def test_generator_check_rejects_non_generators():
    # g generates P^n.  Each case below fails the check: g + 1 and gbar are
    # not in P; (l) = P*conj(P) is in conj(P); l has the norm of P^2 and
    # lies outside conj(P)^2, but not in P^2; g*(1 + l) is in P and outside
    # conj(P), with too large a norm; g*eps, for eps = ((4 + d) + 4*sqrt(d))
    # /(4 - d) of norm 1, and g + 1/7 are not integral.  The middle four
    # fail one of the three tests only, and the coordinates of g + 1/7
    # round down to g's, which pass them all.  Integer inputs as class_walk
    # passes them, and the fractional inputs of is_principal over a scale 1/3
    for P, n, g, gbar in split_walks(small_primes(30)):
        order, ell = P.order, P.a
        x, y = int(g.x), int(g.y)
        Pn, P2 = ideal_pow(P, n), ideal_pow(P, 2)
        d = order.d
        eps = times_sqrt_form(order, g.x, g.y, Fraction(4 + d, 4 - d), Fraction(4, 4 - d))
        for I, k, x1, y1 in ((P, n, x + 1, y), (P, n, int(gbar.x), int(gbar.y)),
                             (P, 2, ell, 0), (P2, 1, ell, 0),
                             (P, n, x * (1 + ell), y * (1 + ell))):
            with pytest.raises(AssertionError):
                quadorder._generator(I, k, x1, y1)
        assert quadorder._generator(P, n, x, y) == g
        for I, x1, y1 in ((Pn, x + 1, y), (Pn, gbar.x, gbar.y), (P2, ell, 0),
                          (Pn, x * (1 + ell), y * (1 + ell)), (Pn, *eps),
                          (Pn, x + Fraction(1, 7), y)):
            S = make_ideal(order, I.a, I.b, Fraction(I.scale) / 3)
            with pytest.raises(AssertionError):
                quadorder._generator(S, 1, Fraction(x1) / 3, Fraction(y1) / 3)
        S = make_ideal(order, Pn.a, Pn.b, Fraction(Pn.scale) / 3)
        h = quadorder._generator(S, 1, Fraction(g.x) / 3, Fraction(g.y) / 3)
        assert h == is_principal(S)


def test_generator_is_canonical_over_the_units():
    # every unit multiple of a generator comes back as the same element,
    # from integers and from fractions over a scale; -1 and -3 have 4 and 6
    for P, n, g, _ in split_walks(small_primes(14)):
        J = ideal_pow(P, n)
        I = make_ideal(P.order, J.a, J.b, Fraction(J.scale) / 3)
        units = quadorder._unit_multiples(P.order, int(g.x), int(g.y))
        assert len(units) == {-1: 4, -3: 6}.get(P.order.d, 2)
        assert len(set(units)) == len(units)
        for x, y in units:
            assert quadorder._generator(P, n, x, y) == g
            assert quadorder._generator(J, 1, Fraction(x), Fraction(y)) == g
            h = quadorder._generator(I, 1, Fraction(x, 3), Fraction(y, 3))
            assert (h.x, h.y) == (Fraction(g.x) / 3, Fraction(g.y) / 3)


def test_class_walk_builds_no_ideal_per_step(monkeypatch):
    # the walk composes plain (a, b) pairs: the QuadIdeal records it builds
    # do not grow with the class order, and it never calls ideal_mul
    post_init = QuadIdeal.__post_init__
    built = []

    def counted(self):
        built.append(self)
        post_init(self)

    def refuse(I, J):
        raise AssertionError("ideal_mul called")

    counts = {}
    for d, ell in ((-971, 3), (-10007, 2)):  # class orders 5 and 77
        P = decompose_prime(QuadOrder(d), ell).p
        with monkeypatch.context() as m:
            m.setattr(QuadIdeal, "__post_init__", counted)
            m.setattr(quadorder, "ideal_mul", refuse)
            built.clear()
            n = class_walk(P)[0]
        counts[n] = len(built)
    assert sorted(counts) == [5, 77]
    assert counts[5] == counts[77] <= 2


def test_minus_100000007_p2():
    # class order 7253: the generator has norm 2^7253 and lies in p2^7253,
    # so it generates p2^7253
    order = QuadOrder(-100000007)
    p2 = decompose_prime(order, 2).p
    n, gen = class_walk(p2)
    assert n == 7253 == class_order(p2)
    assert gen.norm() == 2 ** 7253
    assert lattice_member(quad_ideal_rows(ideal_pow(p2, n)), [gen.x, gen.y])


def printed_digits(gen):
    text = render_element(gen).replace("sqrt(%d)" % gen.order.d, "")
    return max(len(run) for run in re.findall(r"\d+", text))


def test_class_walk_refuses_only_unprintable_generators(monkeypatch):
    # with a print limit of a few digits the walk's early stop is reached on
    # small d: whenever it refuses, the generator from the power must have
    # more digits than the limit
    rng = random.Random(8)
    refused = 0
    for limit in (2, 3, 5):
        for d in rng.sample(range(-1500, 0), 120):
            if not squarefree_brute(-d):
                continue
            order = QuadOrder(d)
            for ell in (2, 3, 5, 7):
                for P in prime_ideals(order, ell):
                    with monkeypatch.context() as m:
                        m.setattr(quadorder, "PRINT_DIGITS", limit)
                        try:
                            class_walk(P)
                            continue
                        except InputError:
                            refused += 1
                    assert printed_digits(power_path(P)[1]) > limit, (d, P)
    assert refused > 50


def test_unprintable_generator_is_refused_before_rendering(monkeypatch):
    # the walk's bound leaves a margin of 2|d|; what passes it is checked
    # digit for digit when rendered
    from uniloc import verdict
    order = QuadOrder(-10007)
    p2 = decompose_prime(order, 2).p
    monkeypatch.setattr(verdict, "_PRINT_LIMIT", 10 ** 11)  # 11 digits
    assert class_walk(p2)[0] == 77
    with pytest.raises(InputError, match="more than 4300 digits"):
        classify_dedekind(order, [p2], ["p2"])
    monkeypatch.setattr(verdict, "_PRINT_LIMIT", 10 ** 12)
    assert classify_dedekind(order, [p2], ["p2"]).witness.elements == \
        ("(212462990979+7476169711*sqrt(-10007))/2",)


def test_sqrt_mod_matches_brute_force():
    for ell in small_primes(2000):
        roots = {}
        for x in range(ell):
            roots.setdefault(x * x % ell, set()).add(x)
        for n, rs in roots.items():
            assert quadorder._sqrt_mod(n, ell) in rs, (n, ell)
        if ell % 8 != 1:  # reduced_forms squares the result to test n
            for n in set(range(ell)).difference(roots):
                assert quadorder._sqrt_mod(n, ell) ** 2 % ell != n, (n, ell)


def test_decompose_root_matches_linear_search():
    # the p<ell> root b is the one the linear search over (-ell, ell] picks
    orders = [QuadOrder(d) for d in (-1, -2, -3, -5, -6, -7, -14, -23, -971)]
    for ell in small_primes(2000):
        for order in orders:
            dec = decompose_prime(order, ell)
            if isinstance(dec, Inert):
                continue
            assert dec.p.b == least_positive_root(order.discriminant, ell), \
                (order.d, ell)


def test_minus_five_headline_facts():
    order = QuadOrder(-5)
    p2 = decompose_prime(order, 2).p
    assert isinstance(decompose_prime(order, 2), Ramified)
    assert is_principal(p2) is None
    assert class_order(p2) == 2
    sq = ideal_pow(p2, 2)
    gen = is_principal(sq)
    assert render_element(gen) == "2"
    p3 = decompose_prime(order, 3)
    assert isinstance(p3, Split)
    assert is_principal(p3.p) is None
    assert ideal_mul(p3.p, p3.pbar) == inert_ideal(order, 3)


def test_is_prime_ideal():
    order = QuadOrder(-5)
    assert is_prime_ideal(decompose_prime(order, 2).p)
    assert is_prime_ideal(inert_ideal(order, 11))
    assert not is_prime_ideal(inert_ideal(order, 2))  # 2 ramifies, (2) is p2^2
    assert not is_prime_ideal(unit_ideal(order))
    assert not is_prime_ideal(ideal_pow(decompose_prime(order, 3).p, 2))


def test_classify_dedekind_single_prime():
    order = QuadOrder(-5)
    p2 = decompose_prime(order, 2).p
    v = classify_dedekind(order, [p2], ["p2"])
    assert (v.rule.flat, v.rule.universal, v.rule.classical) == ("yes", "yes", "yes")
    assert v.witness.elements == ("2",)
    assert v.witness.details[0] == (("prime", "p2"), ("class_order", 2),
                                    ("generator", "2"))
    assert v.ring_id == "quad:-5"
    assert v.prime_description == "{p2}"
    assert any("dimension one" in n for n in v.notes)


def test_classify_dedekind_inert_and_split():
    order = QuadOrder(-5)
    ideals, labels = [inert_ideal(order, 11), decompose_prime(order, 3).p], \
        ["p11", "p3"]
    v = classify_dedekind(order, ideals, labels)
    assert v.witness.elements[0] == "11"
    # p3 has class order 2, the witness generates p3^2 of norm 9
    assert dict(v.witness.details[1])["class_order"] == 2


def test_classify_dedekind_empty_v():
    v = classify_dedekind(QuadOrder(-5), [])
    assert v.rule.classical == "yes"
    assert any("empty" in n for n in v.notes)


def test_classify_dedekind_input_checks():
    order = QuadOrder(-5)
    p2 = decompose_prime(order, 2).p
    with pytest.raises(InputError):
        classify_dedekind(order, [ideal_pow(p2, 2)])  # (2) is not prime
    with pytest.raises(InputError):
        classify_dedekind(order, [unit_ideal(QuadOrder(-1))])
    with pytest.raises(InputError):
        classify_dedekind(order, [p2], ["a", "b"])
