"""Release gate.  One test per criterion, exact arithmetic throughout.

The first docstring line of each test is the label conftest prints in
the summary block.  Every criterion carries a five second budget; the
randomized suites (7a-7e) run at least a thousand cases each.
"""

import json
import random
import time
from contextlib import contextmanager, redirect_stdout
from io import StringIO

from test_elliptic import TORSION_CASES, pt, random_curve_with_points
from test_lcohom import random_algebra
from test_quadorder import D_POOL, small_primes

from uniloc import cli
from uniloc.abgroup import (GroupStructure, IntMatrix, cokernel_structure, det,
                            smith_normal_form)
from uniloc.divisors import Divisor, DivisorClassModel, quotient_by_divisor
from uniloc.elliptic import (O, WeierstrassCurve, add, check_line_program,
                             classify_point, mul, negate, torsion_order)
from uniloc.lcohom import (MonomialAlgebra, VariableIdeal, _differential,
                           cech_dim, certify_nonvanishing)
from uniloc.quadorder import (QuadOrder, Ramified, Split, class_number,
                              classify_dedekind, decompose_prime, ideal_mul,
                              ideal_norm, ideal_pow, inert_ideal,
                              is_principal, render_element, unit_ideal)
from uniloc.segre import (ORIENT_XV_YU, ORIENT_XY_VU, SegrePrime,
                          classify_segre, coordinate_prime, psi)
from uniloc.spectool import (SpecPoset, check_height_condition,
                             enumerate_closed, truncated_spec_z)
from uniloc.verdict import INFINITE

RANK = {"no": 0, "unknown": 1, "yes": 2}


@contextmanager
def budget(seconds=5.0):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, "budget exceeded: %.2fs" % elapsed


def assert_hierarchy(flat, universal, classical, citations):
    assert RANK[flat] >= RANK[universal] >= RANK[classical], \
        (flat, universal, classical)
    if "yes" in (flat, universal, classical) or \
            "no" in (flat, universal, classical):
        assert citations


def test_criterion_1():
    """criterion 1: quad:-5 class number 2, p2 squares to (2), classical at p2"""
    with budget():
        order = QuadOrder(-5)
        assert order.discriminant == -20
        assert class_number(order) == 2
        dec = decompose_prime(order, 2)
        assert isinstance(dec, Ramified)
        p2 = dec.p
        assert is_principal(p2) is None
        square = ideal_pow(p2, 2)
        assert square == inert_ideal(order, 2)
        assert render_element(is_principal(square)) == "2"
        v = classify_dedekind(order, [p2], ["p2"])
        assert (v.rule.flat, v.rule.universal, v.rule.classical) == ("yes", "yes", "yes")
        assert v.witness.elements == ("2",)


def test_criterion_2():
    """criterion 2: elliptic trichotomy, torsion certificates, non-torsion refusal"""
    with budget():
        v = classify_point(WeierstrassCurve(0, -4), pt(2, 2))
        assert (v.rule.flat, v.rule.universal, v.rule.classical) == ("yes", "no", "no")
        assert v.witness.order is INFINITE
        for curve, point, n in ((WeierstrassCurve(-1, 0), pt(0, 0), 2),
                                (WeierstrassCurve(0, 1), pt(2, 3), 6)):
            w = classify_point(curve, point)
            assert (w.rule.flat, w.rule.universal, w.rule.classical) == ("yes", "yes", "yes")
            assert w.witness.order == n
            assert check_line_program(curve, point, n, w.witness.line_program)


def test_criterion_3():
    """criterion 3: coordinate prime bidegrees and the three product-surface branches"""
    with budget():
        table = {("X", "V"): (1, 0), ("Y", "U"): (1, 0),
                 ("X", "Y"): (0, 1), ("U", "V"): (0, 1)}
        for names, expected in table.items():
            assert psi(coordinate_prime(names)) == expected
        a = classify_segre(SegrePrime.poly("S0"))
        assert (a.rule.flat, a.rule.universal, a.rule.classical) == ("no", "no", "no")
        b = classify_segre(SegrePrime.poly("S0*T0^2 + S1*T1^2"))
        assert (b.rule.flat, b.rule.universal, b.rule.classical) == ("yes", "no", "no")
        assert b.witness.order is INFINITE
        c = classify_segre(SegrePrime.poly("S0*T0 + S1*T1"))
        assert (c.rule.flat, c.rule.universal, c.rule.classical) == ("yes", "yes", "yes")
        assert c.witness.element == "X + U"


def test_criterion_4():
    """criterion 4: H^2 witnesses inside box 3 and vanishing above the ideal length"""
    with budget():
        two = MonomialAlgebra.make(("X", "Y", "U"), [frozenset("XU")])
        ixy = VariableIdeal.of(two, ("X", "Y"))
        out = certify_nonvanishing(two, ixy, 2, 3)
        assert out.found and max(abs(x) for x in out.witness) <= 3
        assert cech_dim(two, ixy, 2, out.witness) >= 1

        three = MonomialAlgebra.make(("X", "U", "V"), [frozenset("XU")])
        ixv = VariableIdeal.of(three, ("X", "V"))
        out = certify_nonvanishing(three, ixv, 2, 3)
        assert out.found and max(abs(x) for x in out.witness) <= 3
        assert cech_dim(three, ixv, 2, out.witness) >= 1

        rng = random.Random(41)
        for _ in range(50):
            A = random_algebra(rng, max_vars=4)
            gens = tuple(rng.sample(A.variables,
                                    rng.randint(1, len(A.variables))))
            I = VariableIdeal.of(A, gens)
            i = len(I.generators) + rng.randint(1, 2)
            a = tuple(rng.randint(-2, 2) for _ in A.variables)
            assert cech_dim(A, I, i, a) == 0


def test_criterion_5():
    """criterion 5: cokernel of [[1,1]] is Z, divisor quotient gives Z/3 + Z/6"""
    with budget():
        assert cokernel_structure(IntMatrix.from_rows([[1, 1]])) == \
            GroupStructure(1, ())
        m = DivisorClassModel.on(("h", "p"), (Divisor.of({"p": 6}),))
        q = quotient_by_divisor(m, Divisor.of({"h": 3}))
        assert q.structure() == GroupStructure(0, (3, 6))


def test_criterion_6():
    """criterion 6: nine closed sets on truncated Spec Z, height guard rejects {m}"""
    with budget():
        assert len(enumerate_closed(truncated_spec_z((2, 3, 5)))) == 9
        chain = SpecPoset.from_text("(0) < p\np < m")
        assert chain.height("m") == 2
        assert not check_height_condition(chain, {"m"})
        assert check_height_condition(chain, {"p", "m"})


def test_criterion_7a():
    """criterion 7a: Smith form transforms unimodular, chain divisibility, 1000 cases"""
    with budget():
        rng = random.Random(71)
        for _ in range(1000):
            r, c = rng.randint(1, 4), rng.randint(1, 4)
            M = IntMatrix.from_rows(
                [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)])
            D, U, W = smith_normal_form(M)
            assert (U @ M) @ W == D
            assert abs(det(U)) == 1 and abs(det(W)) == 1
            assert all(D.at(i, j) == 0
                       for i in range(r) for j in range(c) if i != j)
            diag = D.diagonal()
            assert all(x >= 0 for x in diag)
            for i in range(len(diag) - 1):
                assert diag[i + 1] % diag[i] == 0 if diag[i] else \
                    diag[i + 1] == 0


def test_criterion_7b():
    """criterion 7b: ideal norm multiplicativity and prime products, 1000 cases"""
    with budget():
        rng = random.Random(72)
        pool = {}
        for d in D_POOL:
            order = QuadOrder(d)
            ideals = [unit_ideal(order)]
            for ell in small_primes(20):
                dec = decompose_prime(order, ell)
                if isinstance(dec, Split):
                    assert ideal_mul(dec.p, dec.pbar) == inert_ideal(order, ell)
                    ideals += [dec.p, dec.pbar]
                elif isinstance(dec, Ramified):
                    assert ideal_pow(dec.p, 2) == inert_ideal(order, ell)
                    ideals.append(dec.p)
                else:
                    ideals.append(inert_ideal(order, ell))
            pool[d] = ideals
        for _ in range(1000):
            d = rng.choice(D_POOL)
            I, J = rng.choice(pool[d]), rng.choice(pool[d])
            K = ideal_mul(I, J)
            assert ideal_norm(K) == ideal_norm(I) * ideal_norm(J)


def test_criterion_7c():
    """criterion 7c: group law axioms, on-curve closure, torsion minimality, 1000 cases"""
    with budget():
        rng = random.Random(73)
        for k in range(1000):
            if k % 10 < 7:
                E, P, Q = random_curve_with_points(rng)
                S = add(E, P, Q)
                assert S.is_infinity or E.contains(S)
                assert add(E, Q, P) == S
                R = mul(E, 2, Q)
                assert add(E, S, R) == add(E, P, add(E, Q, R))
                assert add(E, P, negate(E, P)) == O
                assert add(E, P, O) == P
            else:
                E, P, n = TORSION_CASES[k % len(TORSION_CASES)]
                assert torsion_order(E, P) == n
                walk = O
                for j in range(1, n):
                    walk = add(E, walk, P)
                    assert not walk.is_infinity
                assert add(E, walk, P) == O


def test_criterion_7d():
    """criterion 7d: Cech differentials compose to zero, 1000 cases"""
    with budget():
        rng = random.Random(74)
        for _ in range(1000):
            A = random_algebra(rng, max_vars=4)
            gens = tuple(rng.sample(A.variables,
                                    rng.randint(1, len(A.variables))))
            gens = VariableIdeal.of(A, gens).generators
            a = tuple(rng.randint(-2, 2) for _ in A.variables)
            k = rng.randint(0, max(0, len(gens) - 1))
            m1, n1_src, n1_tgt = _differential(A, gens, k, a)
            m2, n2_src, n2_tgt = _differential(A, gens, k + 1, a)
            assert n2_src == n1_tgt
            for i in range(n2_tgt):
                for j in range(n1_src):
                    assert sum(m2[i][t] * m1[t][j]
                               for t in range(n1_tgt)) == 0


def _fmt_terms(pairs):
    """Render [(coef, monomial_str), ...] the way Polynomial.render does."""
    out = ""
    for c, mono in pairs:
        if c == 0:
            continue
        mag = "%s" % abs(c)
        body = mono if mag == "1" else "%s*%s" % (mag, mono)
        if not out:
            out = body if c > 0 else "-" + body
        else:
            out += " + " + body if c > 0 else " - " + body
    return out or "0"


def _cli_json(argv):
    buf = StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv + ["--format", "json"])
    return code, json.loads(buf.getvalue())


def test_criterion_7e():
    """criterion 7e: verdict hierarchy on randomized classifier outputs, 1000 cases"""
    with budget():
        rng = random.Random(75)

        def check(v):
            assert_hierarchy(v.rule.flat, v.rule.universal, v.rule.classical, v.rule.citations)

        for k in range(400):
            E, P, Q = random_curve_with_points(rng)
            check(classify_point(E, P if k % 2 else Q))
        for E, P, _ in TORSION_CASES:
            check(classify_point(E, P))

        for _ in range(100):
            p, q = rng.randint(-3, 3), rng.randint(-3, 3)
            if (p, q) == (0, 0):
                p = 1
            orient = rng.choice((ORIENT_XY_VU, ORIENT_XV_YU))
            check(classify_segre(SegrePrime.linear(p, q, orient)))
        for _ in range(100):
            while True:
                a, b = rng.randint(-4, 4), rng.randint(-4, 4)
                c, d = rng.randint(-4, 4), rng.randint(-4, 4)
                if a * d - b * c != 0:
                    break
            f = _fmt_terms([(a, "S0*T0"), (b, "S0*T1"),
                            (c, "S1*T0"), (d, "S1*T1")])
            v = classify_segre(SegrePrime.poly(f))
            assert v.rule.classical == "yes"
            check(v)
        for _ in range(50):
            a = rng.choice((1, 2, 3, -1))
            b = rng.choice((1, 2, 3, -2))
            f = _fmt_terms([(a, "S0*T0^2"), (b, "S1*T1^2")])
            v = classify_segre(SegrePrime.poly(f, irreducible=True))
            assert v.rule.universal == "no"
            check(v)
        for _ in range(50):
            f = _fmt_terms([(1, "S0^2"), (rng.choice((1, 2, 5)), "S1^2")])
            check(classify_segre(SegrePrime.poly(f)))

        for _ in range(200):
            d = rng.choice(D_POOL)
            order = QuadOrder(d)
            ells = rng.sample((2, 3, 5, 7, 11, 13), rng.randint(1, 2))
            ideals, labels = [], []
            for ell in ells:
                dec = decompose_prime(order, ell)
                if isinstance(dec, Split):
                    bar = rng.random() < 0.5
                    ideals.append(dec.pbar if bar else dec.p)
                    labels.append("p%d%s" % (ell, "bar" if bar else ""))
                elif isinstance(dec, Ramified):
                    ideals.append(dec.p)
                    labels.append("p%d" % ell)
                else:
                    ideals.append(inert_ideal(order, ell))
                    labels.append("p%d" % ell)
            check(classify_dedekind(order, ideals, labels))

        two_primes = ("(X)", "(U)", "(X,Y)", "(Y,U)", "(X,U)", "(X,Y,U)")
        dim3_primes = ("(X,Y)", "(X,V)", "(Y,U)", "(U,V)", "(X,Y,U,V)")
        for k in range(100):
            if k % 2:
                argv = ["classify", "--ring", "twoplanes",
                        "--prime", two_primes[k % len(two_primes)]]
            else:
                argv = ["classify", "--ring", "dim3hyper",
                        "--prime", dim3_primes[k % len(dim3_primes)]]
            code, doc = _cli_json(argv)
            assert code in (0, 4)
            assert_hierarchy(doc["flat"], doc["universal"], doc["classical"],
                             doc["citations"])
