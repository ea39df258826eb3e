"""Seeded inputs for the three workloads, each paired with its expectation.

Every generator takes a random.Random and the config; the same seed gives
the same inputs.  Draws are stratified: the config fixes how many slots of
each kind a workload has, and the seed only fills the slots, so run-to-run
differences in cost come from the details, not from the mix.
"""

from __future__ import annotations

from fractions import Fraction

import checks as C

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def fmt(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


def point_spec(P) -> str:
    return "O" if P is None else "%s,%s" % (fmt(P[0]), fmt(P[1]))


def classify_op(op_id, family, ring, prime="", fp="", asserted=False, expect=None):
    return {"id": op_id, "family": family, "ring": ring, "prime": prime,
            "fp": fp, "asserted": asserted, "expect": expect}


# quadratic orders -----------------------------------------------------------

def draw_d(rng, lo, hi):
    """A squarefree d < 0 whose discriminant has |D| in [lo, hi]."""
    while True:
        x = rng.randint(lo, hi)
        if x % 4 == 3 and C.is_squarefree(x):
            return -x
        if x % 4 == 0 and (x // 4) % 4 in (1, 2) and C.is_squarefree(x // 4):
            return -(x // 4)


def quad_spec(rng, D, ell):
    if C.kronecker(D, ell) == 1 and rng.random() < 0.5:
        return "p%dbar" % ell, True
    return "p%d" % ell, False


def quad_slot(rng, lo, hi, work_lo, work_hi, inert=False, parity=None):
    """One quad op with |D| in [lo, hi] and a generator search in the band.

    parity fixes D mod 2: the search costs about a third more per step
    for odd D, so the tail draws both kinds in fixed numbers.
    """
    while True:
        d = draw_d(rng, lo, hi)
        D = C.fundamental_disc(d)
        if parity is not None and D % 2 != parity:
            continue
        for ell in rng.sample(SMALL_PRIMES, len(SMALL_PRIMES)):
            if (C.kronecker(D, ell) == -1) != inert:
                continue
            spec, conj = quad_spec(rng, D, ell)
            exp = C.quad_expectation(d, [(ell, conj)], norm_cap=(work_hi + 1) ** 2)
            if exp and work_lo <= exp["primes"][0]["work"] <= work_hi:
                return "quad:%d" % d, spec, exp


def quad_ops(rng, cfg):
    lo, hi = cfg["quad_disc"]
    cheap = cfg["quad_cheap_work"]
    ops = []
    n = cfg["slots"]["quad"]
    width = (hi - lo) / n
    for i in range(n):  # one draw per |D| bin
        ring, spec, exp = quad_slot(rng, int(lo + i * width), int(lo + (i + 1) * width), 0, cheap)
        ops.append(classify_op("quad-%d" % i, "quad", ring, spec, expect=exp))
    for i in range(cfg["slots"]["quad-inert"]):
        ring, spec, exp = quad_slot(rng, lo, hi, 0, 0, inert=True)
        ops.append(classify_op("quad-inert-%d" % i, "quad", ring, spec, expect=exp))
    for i in range(cfg["slots"]["quad-pair"]):
        while True:
            ring, s1, e1 = quad_slot(rng, lo, hi, 0, cheap)
            d = e1["d"]
            ell2 = rng.choice([p for p in SMALL_PRIMES if p != e1["primes"][0]["ell"]])
            s2, conj2 = quad_spec(rng, C.fundamental_disc(d), ell2)
            e2 = C.quad_expectation(d, [(ell2, conj2)], norm_cap=(cheap + 1) ** 2)
            if e2 and e2["primes"][0]["work"] <= cheap:
                e1["primes"] += e2["primes"]
                ops.append(classify_op("quad-pair-%d" % i, "quad", ring, s1 + "," + s2,
                                       expect=e1))
                break
    # the tail: generators far out.  A plateau of near-equal searches (odd
    # D only) sits where p90 falls; above it, log-spaced bands of search
    # work alternate even and odd discriminants.
    p_lo, p_hi = cfg["quad_plateau_work"]
    for i in range(cfg["slots"]["quad-plateau"]):
        ring, spec, exp = quad_slot(rng, lo, hi, p_lo, p_hi, parity=1)
        ops.append(classify_op("quad-plateau-%d" % i, "quad", ring, spec, expect=exp))
    t_lo, t_hi = cfg["quad_tail_work"]
    bands = cfg["quad_tail_bands"]
    ratio = (t_hi / t_lo) ** (1 / bands)
    for i in range(cfg["slots"]["quad-tail"]):
        b = (i // 2) % bands
        w_lo, w_hi = int(t_lo * ratio ** b), int(t_lo * ratio ** (b + 1))
        ring, spec, exp = quad_slot(rng, lo, hi, w_lo, w_hi, parity=i % 2)
        ops.append(classify_op("quad-tail-%d" % i, "quad", ring, spec, expect=exp))
    return ops


# elliptic curves ------------------------------------------------------------

# (a, b, a point, how many multiples of it the draw uses)
CURVES = (
    (0, -4, (2, 2), 3),        # rank one: (2,2) has infinite order
    (-1, 0, (0, 0), 1),        # every rational point is 2-torsion
    (0, 1, (2, 3), 5),         # cyclic of order 6
    (-43, 166, (-5, 16), 6),   # (-5,16) has order 7
    (-132, 481, (2, 15), 5),   # (2,15) has order 6
)
TWO_TORSION = ((0, 0), (1, 0), (-1, 0))


def ell_point(rng, curve):
    a, b, P, k_max = curve
    if (a, b) == (-1, 0):
        x, y = rng.choice(TWO_TORSION)
        return (Fraction(x), Fraction(y))
    base = (Fraction(P[0]), Fraction(P[1]))
    Q = C.ec_multiple(Fraction(a), base, rng.randint(1, k_max))
    if Q is not None and rng.random() < 0.5:
        Q = (Q[0], -Q[1])
    return Q


def ell_ops(rng, cfg):
    ops = []
    per_curve = cfg["slots"]["ell-per-curve"]
    for curve in CURVES:
        a, b = curve[0], curve[1]
        for i in range(per_curve):
            P = ell_point(rng, curve)
            ops.append(classify_op("ell:%d,%d-%d" % (a, b, i), "ell", "ell:%d,%d" % (a, b),
                                   point_spec(P), expect=C.ell_expectation(a, b, P)))
    for i in range(cfg["slots"]["ell-scaled"]):
        # (x, y) -> (x/u^2, y/u^3) gives a non-integral model of the same curve
        curve = rng.choice(CURVES)
        u = Fraction(rng.choice((2, 3)))
        a, b = Fraction(curve[0]) / u ** 4, Fraction(curve[1]) / u ** 6
        P = ell_point(rng, curve)
        if P is not None:
            P = (P[0] / u ** 2, P[1] / u ** 3)
        ops.append(classify_op("ell-scaled-%d" % i, "ell", "ell:%s,%s" % (fmt(a), fmt(b)),
                               point_spec(P), expect=C.ell_expectation(a, b, P)))
    for i in range(cfg["slots"]["ell-O"]):
        curve = rng.choice(CURVES)
        ops.append(classify_op("ell-O-%d" % i, "ell", "ell:%d,%d" % curve[:2], "O",
                               expect=C.ell_expectation(curve[0], curve[1], None)))
    return ops


# the Segre cone -------------------------------------------------------------

def monomial(i, d, j, e) -> str:
    """S0^i S1^(d-i) T0^j T1^(e-j)."""
    parts = []
    for name, k in (("S0", i), ("S1", d - i), ("T0", j), ("T1", e - j)):
        if k == 1:
            parts.append(name)
        elif k > 1:
            parts.append("%s^%d" % (name, k))
    return "*".join(parts)


def segre_poly(rng, d, e) -> str:
    """An irreducible f of bidegree (d, e), by Eisenstein at 2.

    S0^d*T0^e (or T0^e when d = 0) has coefficient 1 and is the only
    monomial of top degree in that variable; every other coefficient is
    even and the one on S1^d*T1^e is 2 mod 4.
    """
    terms = [(1, (d, e))]
    for i in range(d + 1):
        for j in range(e + 1):
            if (i, j) == (0, 0):
                terms.append((2 * rng.choice((1, -1, 3, -3)), (0, 0)))
            elif (d and i < d or not d and j < e) and rng.random() < 0.4:
                terms.append((2 * rng.choice((1, -1, 2, -2, 3)), (i, j)))
    rng.shuffle(terms)
    text = ""
    for c, (i, j) in terms:
        body = monomial(i, d, j, e)
        mag = "" if abs(c) == 1 else "%d*" % abs(c)
        sign = "-" if c < 0 else "+"
        text += ("%s%s%s" % ("-" if c < 0 else "", mag, body) if not text
                 else " %s %s%s" % (sign, mag, body))
    return text


COORDINATE_PAIRS = (("X", "V"), ("Y", "U"), ("X", "Y"), ("U", "V"))


def spelled(rng, names) -> str:
    names = sorted(names)
    rng.shuffle(names)
    body = rng.choice((",", ", ")).join(names)
    return "(%s)" % body if rng.random() < 0.8 else body


def segre_ops(rng, cfg):
    ops = []
    for i in range(cfg["slots"]["segre-pair"]):
        pair = COORDINATE_PAIRS[i % len(COORDINATE_PAIRS)]
        ops.append(classify_op("segre-pair-%d" % i, "segre", "segre", spelled(rng, pair),
                               expect=C.segre_expectation(1, 0)))
    bidegrees = [(d, e) for d in range(4) for e in range(4) if d or e]
    for i in range(cfg["slots"]["segre-poly-per-bidegree"]):
        for d, e in bidegrees:
            ops.append(classify_op("segre-%d%d-%d" % (d, e, i), "segre", "segre",
                                   fp=segre_poly(rng, d, e),
                                   asserted=d + e > 2 and rng.random() < 0.5,
                                   expect=C.segre_expectation(d, e)))
    return ops


# twoplanes, dim3hyper, nagata and malformed specs ---------------------------

def table_ops(rng, cfg):
    ops = []
    for rep in range(cfg["slots"]["table-per-prime"]):
        for ring, names in C.TABLE:
            ops.append(classify_op("%s-%s-%d" % (ring, "".join(sorted(names)), rep), "table",
                                   ring, spelled(rng, names),
                                   expect=C.table_expectation(ring, names)))
    for i in range(cfg["slots"]["nagata"]):
        ops.append(classify_op("nagata-%d" % i, "nagata", "nagata",
                               rng.choice(("p", "m", "(x)", "")), expect={"kind": "refused"}))
    return ops


def malformed_ops(rng):
    """One op per malformed template; each must end in an input error."""
    d = draw_d(rng, 20, 30000)
    D = C.fundamental_disc(d)
    inert = next(p for p in SMALL_PRIMES if C.kronecker(D, p) == -1)
    square = rng.choice((4, 9, 25)) * rng.randint(1, 300)
    off = (rng.randint(3, 50), rng.randint(3, 50))
    specs = [
        ("quad:-%d" % square, "p2", ""),
        ("quad:%d" % rng.randint(1, 500), "p2", ""),
        ("quad:-%dx" % rng.randint(1, 500), "p2", ""),
        ("quad:%d" % d, "q%d" % rng.choice(SMALL_PRIMES), ""),
        ("quad:%d" % d, "p%d" % rng.choice((4, 6, 9, 15, 21, 25)), ""),
        ("quad:%d" % d, "p%dbar" % inert, ""),
        ("quad:%d" % d, "", ""),
        ("ell:%s" % rng.choice(("0,0", "-3,2", "-12,16")), "1,1", ""),
        ("ell:0,1", "%d,%d" % off, ""),
        ("ell:0,1", "1,2,3", ""),
        ("ell:%d" % rng.randint(-5, 5), "0,1", ""),
        ("segre", "(X,V)", "S0*T0 + S1*T1"),
        ("segre", "", "S0 + T%d" % rng.randint(0, 1)),
        ("segre", "", rng.choice(("S0*T0", "S0^2 - 4*S1^2", "T0*T1"))),
        ("segre", "", "S0*Z%d" % rng.randint(0, 9)),
        ("twoplanes", spelled(rng, ("Y",)), ""),
        ("dim3hyper", spelled(rng, rng.choice((("X", "U"), ("Y", "V")))), ""),
        (rng.choice(("torus", "quad", "ell", "Segre")), "p2", ""),
    ]
    return [classify_op("malformed-%d" % i, "malformed", ring, prime, fp,
                        expect={"kind": "error", "exit": 2})
            for i, (ring, prime, fp) in enumerate(specs)]


def classify_mix(rng, cfg):
    ops = (quad_ops(rng, cfg) + ell_ops(rng, cfg) + segre_ops(rng, cfg)
           + table_ops(rng, cfg) + malformed_ops(rng))
    rng.shuffle(ops)
    return ops


# kernel-sweep ---------------------------------------------------------------

def rung_name(prefix, value) -> str:
    """l1e6, d3e6 style names for powers of ten and small multiples."""
    exp = len(str(value)) - 1
    lead = value // 10 ** exp
    if value == lead * 10 ** exp and exp >= 2:
        return "%s%de%d" % (prefix, lead, exp)
    return "%s%d" % (prefix, value)


def classgroup_rungs(rng, cfg):
    ops = []
    for target in cfg["classgroup_disc"]:
        d = draw_d(rng, target, target + target // 50)
        D = C.fundamental_disc(d)
        ops.append({"id": rung_name("d", target), "kind": "classgroup",
                    "layer": "quadorder.reduced_forms", "argv": ["classgroup", "--disc", str(D),
                                                                 "--format", "json"],
                    "disc": D})
    return ops


def snf_rungs(rng, cfg):
    ops = []
    for n in cfg["snf_n"]:
        while True:
            M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            if C.det_bareiss(M):
                break
        ops.append({"id": "n%d" % n, "kind": "snf", "layer": "abgroup.smith_normal_form",
                    "matrix": M})
    return ops


LETTERS = "ABCDEFGH"


def cech_rung(rng, m, box):
    """H^2 of (a, b) over k[m variables]/(a*c), with a, b, c seeded.

    Every draw is the same algebra up to renaming, the twoplanes pattern
    with m - 3 free variables, so the cost does not depend on the seed;
    its sign-pattern table has nonzero degrees.
    """
    variables = tuple(LETTERS[:m])
    a, b, c = rng.sample(variables, 3)
    rel = tuple(sorted((a, c)))
    gens = tuple(sorted((a, b), key=variables.index))
    dims = C.cech_dims_by_sign(variables, [rel], gens, 2)
    argv = ["cech", "--vars", ",".join(variables), "--rel", "".join(rel),
            "--ideal", ",".join(gens), "--i", "2", "--box", str(box), "--format", "json"]
    return {"id": "v%db%d" % (m, box), "kind": "cech", "layer": "lcohom.cech_dim",
            "argv": argv, "m": m, "box": box, "dims": dims}


def chains_poset(rng, lengths):
    """Disjoint chains with random labels, written in the poset file format."""
    labels = ["q%d" % k for k in rng.sample(range(100, 1000), sum(lengths))]
    nodes, edges, pos = [], [], 0
    for length in lengths:
        chain = labels[pos:pos + length]
        pos += length
        nodes.extend(chain)
        edges.extend(zip(chain, chain[1:]))
    rng.shuffle(edges)
    lines = ["%s < %s" % e for e in edges] + [n for n in nodes if n not in
                                               {x for e in edges for x in e}]
    return nodes, edges, "\n".join(lines) + "\n"


def enumerate_rungs(rng, cfg):
    ops = []
    for lengths in cfg["enumerate_chains"]:
        nodes, edges, text = chains_poset(rng, lengths)
        ops.append({"id": "p%d" % len(nodes), "kind": "spec",
                    "layer": "spectool.enumerate_closed", "nodes": nodes,
                    "edges": edges, "text": text})
    return ops


def chain_rung(rng, n):
    nodes, edges, _ = chains_poset(rng, [n])
    return {"id": "chain%d" % n, "kind": "heights", "layer": "spectool.heights",
            "nodes": nodes, "edges": edges}


def decompose_rung(rng, target, band):
    """A split prime ell = 3 mod 4 near target whose p<ell> root b sits in
    the band, as a share of ell: the root search costs about ell + b."""
    ell = target + 1
    while True:
        ell += 1
        if ell % 4 != 3 or not C.is_prime(ell):
            continue
        for _ in range(200):
            d = draw_d(rng, 20, 3000)
            D = C.fundamental_disc(d)
            if C.kronecker(D, ell) != 1:
                continue
            b = C.positive_root(D, ell)
            if band[0] <= b / ell <= band[1]:
                return {"id": rung_name("l", target), "kind": "decompose",
                        "layer": "quadorder.decompose_prime", "d": d, "ell": ell, "b": b}


def kernel_sweep(rng, cfg):
    ops = (classgroup_rungs(rng, cfg) + snf_rungs(rng, cfg)
           + [cech_rung(rng, m, box) for m, box in cfg["cech"]]
           + enumerate_rungs(rng, cfg)
           + [chain_rung(rng, n) for n in cfg["chain_nodes"]]
           + [decompose_rung(rng, t, cfg["decompose_band"]) for t in cfg["decompose_ell"]])
    for op in ops:
        op["metric"] = "%s.%s" % (op["layer"].replace("smith_normal_form", "snf"), op["id"])
    return ops


def kernel_probes(rng, cfg):
    """Known hangs: each should run far past the per-op limit."""
    m, box = cfg["probe_cech"]
    probes = [decompose_rung(rng, cfg["probe_ell"], cfg["decompose_band"]),
              chain_rung(rng, cfg["probe_chain"]),
              cech_rung(rng, m, box)]
    for op in probes:
        op["metric"] = "%s.%s" % (op["layer"], op["id"])
    return probes


# cli-cold -------------------------------------------------------------------

CATALOG_IDS = ["quad:-5", "ell:0,-4", "ell:-1,0", "ell:0,1", "segre", "twoplanes",
               "dim3hyper", "nagata"]


def option(name, value):
    """argparse reads a value starting with '-' as an option unless it is
    attached with '='."""
    return [name + "=" + value] if value.startswith("-") else [name, value]


def corpus():
    """The fixed cli-cold corpus: (id, argv, expectation)."""
    entries = []

    def add(name, argv, expect, formats=("json",)):
        for f in formats:
            entries.append(("%s.%s" % (name, f), argv + ["--format", f], expect))

    def classify(name, ring, prime=None, fp=None, extra=(), formats=("json",), exp=None):
        argv = ["classify", "--ring", ring]
        if prime is not None:
            argv += option("--prime", prime)
        if fp is not None:
            argv += ["--fp", fp]
        add(name, argv + list(extra), {"kind": "classify", "verdict": exp}, formats)

    both = ("json", "text")
    add("catalog-list", ["catalog", "list"], {"kind": "catalog"}, both)
    classify("quad-5-p2", "quad:-5", "p2", exp=C.quad_expectation(-5, [(2, False)]),
             formats=both)
    classify("quad-5-p3bar", "quad:-5", "p3bar", exp=C.quad_expectation(-5, [(3, True)]))
    classify("quad-5-p11", "quad:-5", "p11", exp=C.quad_expectation(-5, [(11, False)]))
    classify("quad-47-pair", "quad:-47", "p2,p3bar",
             exp=C.quad_expectation(-47, [(2, False), (3, True)]))
    for a, b, P, formats in ((0, -4, (2, 2), ("json",)), (0, 1, (2, 3), ("json",)),
                             (-1, 0, (1, 0), ("text",)), (-43, 166, (-5, 16), ("json",)),
                             (-132, 481, (2, 15), ("json",))):
        P = (Fraction(P[0]), Fraction(P[1]))
        classify("ell%d,%d" % (a, b), "ell:%d,%d" % (a, b), point_spec(P),
                 exp=C.ell_expectation(a, b, P), formats=formats)
    classify("ell-scaled", "ell:0,1/64", "1/2,3/8",
             exp=C.ell_expectation(0, Fraction(1, 64), (Fraction(1, 2), Fraction(3, 8))))
    classify("segre-XV", "segre", "(X,V)", exp=C.segre_expectation(1, 0))
    classify("segre-11", "segre", fp="S0*T0 + 2*S1*T1", exp=C.segre_expectation(1, 1))
    classify("segre-12", "segre", fp="S0*T0^2 + 2*S1*T1^2", exp=C.segre_expectation(1, 2))
    classify("segre-20", "segre", fp="S0^2 + 2*S1^2", exp=C.segre_expectation(2, 0))
    classify("segre-33", "segre", fp="S0^3*T0^3 - 2*S1^3*T1^3", extra=["--assert-irreducible"],
             exp=C.segre_expectation(3, 3))
    for ring, names, formats in (("twoplanes", "X", ("json",)), ("twoplanes", "XY", ("text",)),
                                 ("twoplanes", "XU", ("json",)), ("twoplanes", "XYU", ("json",)),
                                 ("dim3hyper", "XY", ("json",))):
        classify("%s-%s" % (ring, names), ring, "(%s)" % ",".join(names),
                 exp=C.table_expectation(ring, names), formats=formats)
    classify("nagata", "nagata", "p", exp={"kind": "refused"}, formats=("text",))
    error = {"kind": "classify", "verdict": {"kind": "error", "exit": 2}}
    for name, argv in (
            ("quad-nonsquarefree", ["classify", "--ring", "quad:-4", "--prime", "p2"]),
            ("classify-no-ring", ["classify"]),
            ("no-command", [])):
        entries.append((name, argv, error))
    for D, formats in ((-20, ("json",)), (-23, ("text",))):
        add("classgroup%d" % D, ["classgroup", "--disc", str(D)],
            {"kind": "classgroup", "disc": D, "forms": C.reduced_forms(D)}, formats)
    for curve, P, formats in (("0,1", "2,3", ("text",)), ("-43,166", "3,8", ("json",))):
        a, b = (int(x) for x in curve.split(","))
        x, y = (Fraction(t) for t in P.split(","))
        add("ell-torsion%s" % curve, ["ell", "torsion"] + option("--curve", curve)
            + option("--point", P), {"kind": "torsion", "order": C.ec_order(Fraction(a), (x, y))},
            formats)
    add("ell-torsion-scaled", ["ell", "torsion", "--curve", "0,1/64", "--point", "1/2,3/8"],
        {"kind": "exit", "exit": 4}, ("text",))
    for name, variables, rel, ideal, i, box, formats in (
            ("cech-twoplanes", "X,Y,U", "XU", "X,Y", 2, 2, both),
            ("cech-poly", "X,Y", "", "X,Y", 1, 2, ("json",))):
        argv = ["cech", "--vars", variables, "--ideal", ideal, "--i", str(i), "--box", str(box)]
        if rel:
            argv += ["--rel", rel]
        vs = tuple(variables.split(","))
        dims = C.cech_dims_by_sign(vs, [tuple(rel)] if rel else [], tuple(ideal.split(",")), i)
        add(name, argv, {"kind": "cech", "table": C.cech_table(dims, len(vs), box)}, formats)
    add("cech-badrel", ["cech", "--vars", "X,Y", "--rel", "XZ", "--ideal", "X", "--i", "1"],
        {"kind": "exit", "exit": 2}, ("text",))
    for name, formats in (("snf_square", both),):
        add(name, ["snf", "--matrix", "bench/corpus/%s.txt" % name], {"kind": "snf", "file": name},
            formats)
    for name in ("snf_ragged",):
        add(name, ["snf", "--matrix", "bench/corpus/%s.txt" % name], {"kind": "exit", "exit": 2},
            ("text",))
    for name, formats in (("spec_z", both),):
        add(name, ["spec", "enumerate", "--poset", "bench/corpus/%s.txt" % name],
            {"kind": "spec", "file": name}, formats)
    add("spec_cycle", ["spec", "enumerate", "--poset", "bench/corpus/spec_cycle.txt"],
        {"kind": "exit", "exit": 2}, ("text",))
    return entries
