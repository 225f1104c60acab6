"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
pass.  Every tolerance is pinned here; "exact" means Fraction equality with
tolerance zero.
"""

import json
import math
import random
import time
from fractions import Fraction

from latval.borel import (
    Stump,
    TruncatedBaire,
    decode_whole_set,
    pair,
    stump_alpha,
    tuple_decode,
    tuple_encode,
    unpair,
)
from latval.instances import (
    counting_valuation,
    dimension_valuation,
    interval_measure,
    sample_interval_set,
    step_integral,
    totient_range,
    totient_valuation,
)
from latval.cli import main
from latval.intervals import Piece, interval
from latval.lattice import check_distributive, diamond_m3, finite_lattice_build
from latval.fubini import fubini_check, rectset_measure, sample_step2d, sample_ys
from latval.fubini import terms_from_json
from latval.intervals import iset_meet
from latval.oag import RATIONALS
from latval.sequences import (
    PiElem,
    pi_combine,
    pi_value,
    rational_square_root_scan,
    seq_make,
    sqrt2_witness,
)
from latval.stepfn import ZERO_FN, StepFn, integral, step_make
from latval.uniformity import (
    broken_half,
    dense_approximate,
    dyadic_endpoint_oracle,
    dyadic_half,
    extract_subsequence,
    uniformity_check,
    weak_conv_check,
)
from latval.valuation import (
    Valuation,
    check_pseudometric,
    check_valuation,
    dist,
    quotient,
)


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_modularity_suites():
    t0 = time.perf_counter()
    suites = [
        interval_measure,
        step_integral,
        counting_valuation(),
        totient_valuation(),
        dimension_valuation(),
    ]
    for phi in suites:
        report = check_valuation(phi, samples=1000, seed=101)
        assert report.results["modular"].failed == 0, (phi.name, report.to_dict())

    # product measure on rectangle sets, via cell decomposition
    rng = random.Random(102)
    for _ in range(1000):
        r1 = [(sample_interval_set(rng, 2), sample_interval_set(rng, 2))]
        r2 = [(sample_interval_set(rng, 2), sample_interval_set(rng, 2))]
        union = rectset_measure(r1 + r2)
        inter = rectset_measure(
            [(iset_meet(a1, a2), iset_meet(b1, b2)) for a1, b1 in r1 for a2, b2 in r2]
        )
        assert rectset_measure(r1) + rectset_measure(r2) == union + inter

    elapsed = time.perf_counter() - t0
    verdict(
        1,
        elapsed < 10.0,
        f"6 modularity suites x 1000 exact pairs in {elapsed:.2f}s (< 10s)",
    )


def test_criterion_2_pseudometric_and_contraction():
    for phi in (interval_measure, step_integral):
        report = check_pseudometric(phi, samples=1000, seed=202)
        for prop in ("triangle", "contraction", "joint contraction"):
            assert report.results[prop].failed == 0, (phi.name, prop)
        assert report.ok, (phi.name, report.failing())
    verdict(2, True, "triangle + both contraction laws exact on 1000 samples each")


def test_criterion_3_totient_identity_complete():
    t0 = time.perf_counter()
    tot = totient_range(250000)  # lcm(m, n) <= 500 * 499
    for m in range(1, 501):
        tot_m = tot[m]
        for n in range(1, 501):
            g = math.gcd(m, n)
            assert tot[g] * tot[m * n // g] == tot_m * tot[n], (m, n)
    elapsed = time.perf_counter() - t0
    verdict(3, elapsed < 5.0, f"250000 exact totient identities in {elapsed:.2f}s (< 5s)")


def test_criterion_4_fubini_500_random():
    t0 = time.perf_counter()
    rng = random.Random(404)
    for i in range(500):
        f = sample_step2d(rng)
        assert len(f.xs) <= 16 and len(f.ys) <= 16
        report = fubini_check(f, sampled_y=sample_ys(f, rng, 20))
        assert report.ok, (i, report.to_dict())
    elapsed = time.perf_counter() - t0
    verdict(
        4,
        elapsed < 30.0,
        f"500 exact double-integral identities + 20 slice checks each in {elapsed:.2f}s (< 30s)",
    )


def _random_finite_system(rng: random.Random):
    """A weighted sublattice of the powerset of {1..4}: at most 16 elements,
    and genuinely a valuation since weights are additive and nonnegative."""
    ground = [1, 2, 3, 4]
    weights = {x: Fraction(rng.choice([0, 0, 1, 2, 3])) for x in ground}
    seeds = [frozenset(x for x in ground if rng.random() < 0.5) for _ in range(3)]
    family = {frozenset(), frozenset(ground), *seeds}
    while True:
        extra = {a | b for a in family for b in family} | {
            a & b for a in family for b in family
        }
        if extra <= family:
            break
        family |= extra
    carrier = sorted(family, key=lambda s: (len(s), sorted(s)))
    pairs = [(a, b) for a in carrier for b in carrier if a <= b]
    lat = finite_lattice_build(carrier, pairs)
    phi = Valuation(
        domain=lat,
        group=RATIONALS,
        fn=lambda a: sum((weights[x] for x in a), Fraction(0)),
        name="weighted",
        sampler=lambda r: r.choice(carrier),
    )
    return lat, phi


def test_criterion_5_quotients_hausdorff_and_modular():
    rng = random.Random(505)
    for i in range(50):
        lat, phi = _random_finite_system(rng)
        assert len(lat) <= 16
        qlat, qphi = quotient(phi)
        g = qphi.group
        for x in qlat.carrier:
            for y in qlat.carrier:
                if x != y:
                    assert dist(qphi, x, y) != 0, (i, x, y)  # Hausdorff
                lhs = g.add(qphi(qlat.meet(x, y)), qphi(qlat.join(x, y)))
                assert lhs == g.add(qphi(x), qphi(y)), (i, x, y)  # modular
                if qlat.leq(x, y):
                    assert qphi(x) <= qphi(y), (i, x, y)  # order preserving
    verdict(5, True, "50 quotients: exhaustively Hausdorff and exhaustively modular")


def test_criterion_6_pi_stage():
    phi = interval_measure
    lat = phi.domain
    tol = Fraction(1, 10**6)
    shrink = seq_make(
        lat,
        "decreasing",
        lambda n: interval(0, 1 + Fraction(1, n)),
        lambda eps: max(1, math.ceil(1 / eps)),
        phi=phi,
        lower_bound=interval(0, 1),
    )
    x = PiElem(shrink)
    v = pi_value(x, phi, tol)
    assert Fraction(1) <= v <= 1 + tol

    other = seq_make(
        lat,
        "decreasing",
        lambda n: interval(Fraction(1, 2), 2 + Fraction(2, n)),
        lambda eps: max(1, math.ceil(2 / eps)),
        phi=phi,
        lower_bound=interval(Fraction(1, 2), 2),
    )
    y = PiElem(other)
    met = pi_combine("meet", x, y, phi)
    jon = pi_combine("join", x, y, phi)
    for n in range(1, 51):
        lhs = phi(met.seq.at(n)) + phi(jon.seq.at(n))
        rhs = phi(x.seq.at(n)) + phi(y.seq.at(n))
        assert lhs == rhs, n
    verdict(
        6,
        True,
        f"pi_value = {v} in [1, 1 + 1e-6]; meet/join stage modularity exact to stage 50",
    )


def test_criterion_7_sqrt2_witness():
    trace = sqrt2_witness(40)
    q40 = trace[-1]["q"]
    assert abs(q40 * q40 - 2) <= Fraction(1, 10**10)
    for row in trace:
        assert row["mu_union"] == row["q"]  # exact at every stage
    hits = rational_square_root_scan(q40, max_den=40, tol=Fraction(1, 10**6))
    assert hits == []
    # 41/29 lies 4.2e-4 away, so that window holds no p/q; this one holds eleven
    tol = Fraction(1, 100)
    near = {Fraction(p, d) for d in range(1, 41) for p in range(3 * d)
            if abs(Fraction(p, d) - q40) <= tol}
    assert len(near) == 11
    assert rational_square_root_scan(q40, max_den=40, tol=tol) == []
    verdict(
        7,
        True,
        f"|q40^2 - 2| = {float(abs(q40 * q40 - 2)):.2e} <= 1e-10; union measures exact; "
        "no rational square root of 2 with denominator <= 40 near the target",
    )


def test_criterion_8_dyadic_uniformity():
    report = uniformity_check(dyadic_half, samples=10000, seed=808)
    for prop in (
        "(i) reflexive",
        "(ii) meet index implies both",
        "(iii) halving composes",
        "(iv) order sandwich",
        "(v) separation within 64 indices",
        "(viii) translation invariant",
        "(ix) negation reverses",
    ):
        assert report.results[prop].failed == 0, prop

    broken = uniformity_check(broken_half, samples=10000, seed=808)
    bad = broken.results["(iii) halving composes"]
    assert bad.failed > 0 and bad.counterexample is not None
    verdict(
        8,
        True,
        f"10^4 exact samples pass i-v, viii, ix; broken half fails iii with witness: "
        f"{bad.counterexample}",
    )


def test_criterion_9_constructive_density():
    phi = interval_measure
    oracle = dyadic_endpoint_oracle()
    for k in (2, 4, 8):
        seq = seq_make(
            phi.domain,
            "decreasing",
            lambda n: interval(0, 1 + Fraction(1, n)),
            lambda eps: max(1, math.ceil(1 / eps)),
            phi=phi,
        )
        _, trace = dense_approximate(phi, oracle, seq, eps_index=k, depth=30)
        assert len(trace) == 30
        for row in trace:
            assert row["gap"] <= Fraction(1, 2 ** (k + 1)), (k, row["stage"])
    verdict(9, True, "stage-wise gaps within 2^-(k+1) for k in {2, 4, 8}, 30 stages each")


def test_criterion_10_weak_convergence_subsequence():
    producer = lambda n: step_make([((n, n + 1), Fraction(1, n))])
    for n in (1, 5, 17):
        assert dist(step_integral, producer(n), ZERO_FN) == Fraction(1, n)
    rate = lambda i: 2**i
    assert weak_conv_check(step_integral, producer, ZERO_FN, rate, depth=64).ok
    indices, sums = extract_subsequence(step_integral, producer, ZERO_FN, rate, count=20)
    assert indices == [2 ** (k + 1) for k in range(1, 21)]
    assert sums[-1] <= Fraction(1, 2)
    verdict(
        10,
        True,
        f"j_k = 2^(k+1); partial sum over 20 terms = {sums[-1]} <= 1/2, exact",
    )


def _oracle_family(space: TruncatedBaire):
    points = frozenset(space.points())

    def basic(m, n):
        if n > space.depth or m > space.alphabet:
            return frozenset()
        return frozenset(p for p in points if p[n - 1] == m)

    def sprime(code):
        e = tuple_decode(code)
        if len(e) == 3 and e[0] in (1, 2):
            base = basic(e[1], e[2])
            return base if e[0] == 2 else points - base
        return frozenset()

    def scap(code):
        e = tuple_decode(code)
        if not e:
            return frozenset()
        out = points
        for k in e:
            out &= sprime(k)
        return out

    def a_layer(code):
        out = frozenset()
        for k in tuple_decode(code):
            out |= scap(k)
        return out

    return a_layer


def test_criterion_11_borel_codecs():
    # pairing: exhaustive round trips in both directions on {2..10^5}
    for k in range(2, 10**5 + 1):
        a, b = unpair(k)
        assert pair(a, b) == k
    count = 0
    a = 1
    while pair(a, 1) <= 10**5:
        b = 1
        while (code := pair(a, b)) <= 10**5:
            assert unpair(code) == (a, b)
            count += 1
            b += 1
        a += 1
    assert count == 10**5 - 1  # the codomain {2..10^5} is covered exactly

    # ring decode against the set-algebra oracle on the 4x4 space
    space = TruncatedBaire(4, 4)
    assert len(space.points()) == 256
    oracle = _oracle_family(space)
    rng = random.Random(1111)

    def random_code():
        def atom():
            return tuple_encode(
                [rng.choice([1, 2, 9]), rng.randint(1, 5), rng.randint(1, 5)]
            )

        def cap():
            return tuple_encode([atom() for _ in range(rng.randint(1, 3))])

        return tuple_encode([cap() for _ in range(rng.randint(1, 3))])

    for _ in range(100):
        code = random_code()
        assert decode_whole_set(code, "A", space) == oracle(code)

    # stump ranks against the independent recursion
    def alpha_oracle(s):
        if s.is_leaf:
            return 0
        return max([1] + [alpha_oracle(c) + 1 for c in s.children])

    def random_stump(depth):
        if depth == 0 or rng.random() < 0.3:
            return Stump.leaf()
        return Stump.node([random_stump(depth - 1) for _ in range(rng.randint(0, 3))])

    for _ in range(50):
        s = random_stump(4)
        assert stump_alpha(s) == alpha_oracle(s)
    verdict(
        11,
        True,
        "pair/unpair exhaustive on {2..10^5}; 100 ring decodes match the "
        "set-algebra oracle on 256 points; 50 stump ranks match the recursion oracle",
    )


def test_criterion_12_negative_controls():
    base = counting_valuation()
    squared = Valuation(
        domain=base.domain,
        group=base.group,
        fn=lambda a: Fraction(len(a) ** 2),
        name="size^2",
        sampler=base.sampler,
    )
    rep1 = check_valuation(squared, samples=500, seed=1212)
    assert rep1.results["modular"].failed > 0
    assert rep1.results["modular"].counterexample is not None

    negated = Valuation(
        domain=base.domain,
        group=base.group,
        fn=lambda a: Fraction(-len(a)),
        name="-size",
        sampler=base.sampler,
    )
    rep2 = check_valuation(negated, samples=500, seed=1212)
    assert rep2.results["order preserving"].failed > 0

    ok, triple = check_distributive(diamond_m3())
    assert not ok and triple == ("a", "b", "c")
    verdict(
        12,
        True,
        f"size^2 fails modularity at {rep1.results['modular'].counterexample!r}; "
        f"-size fails monotonicity; M3 witness triple {triple}",
    )


# --- scale budgets: floors, never loosened ----------------------------------


def test_scale_65536_piece_set_document(tmp_path, capsys):
    # stage 16 of the middle-thirds Cantor set, pieces [k, k + 1] / 3**16
    lows = [0]
    for _ in range(16):
        lows = [c for k in lows for c in (3 * k, 3 * k + 2)]
    den = 3**16
    doc = [{"lo": f"{k}/{den}", "hi": f"{k + 1}/{den}"} for k in lows]
    path = tmp_path / "cantor.json"
    path.write_text(json.dumps(doc))
    t0 = time.perf_counter()
    code = main(["measure", "--set", str(path)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {"value": "65536/43046721"}
    print(f"SCALE: a 65,536-piece set document measured through main in {elapsed:.2f}s (< 10s)")
    assert elapsed < 10.0


def test_scale_exponent_numeral_is_rejected_unread(tmp_path, capsys):
    # 21 bytes that Fraction's own reader would expand to a million digits
    path = tmp_path / "exponent.json"
    path.write_text('[["0", "1e3000000"]]')
    t0 = time.perf_counter()
    code = main(["measure", "--set", str(path)])
    elapsed = time.perf_counter() - t0
    assert code == 2 and capsys.readouterr() == (
        "", "input error at --set: bad interval-set document: not a rational: '1e3000000'\n"
    )
    print(f"SCALE: a 21-byte set document with an exponent numeral rejected through main "
          f"in {elapsed:.4f}s (< 0.1s)")
    assert elapsed < 0.1


def test_scale_20000_one_piece_terms_read():
    rng = random.Random(20000)

    def piece():
        lo, hi = sorted(rng.sample(range(-600, 600), 2))
        den = rng.choice((1, 2, 3, 4, 6, 12))
        return [{"lo": f"{lo}/{den}", "hi": f"{hi}/{den}", "lo_closed": rng.random() < 0.5}]

    doc = [{"coefficient": f"{rng.randint(-9, 9) or 1}/{rng.randint(1, 5)}", "base_x": piece(),
            "base_y": piece()} for _ in range(20000)]
    t0 = time.perf_counter()
    terms = terms_from_json(doc)
    elapsed = time.perf_counter() - t0
    assert len(terms) == 20000
    for t, d in zip(terms, doc):
        assert t.coefficient == Fraction(d["coefficient"])
        for base, (p,) in ((t.base_x, d["base_x"]), (t.base_y, d["base_y"])):
            assert base.pieces == (Piece(Fraction(p["lo"]), p["lo_closed"], Fraction(p["hi"]), True),)
    print(f"SCALE: 20,000 one-piece rectangle terms read by terms_from_json "
          f"in {elapsed:.3f}s (< 3s)")
    assert elapsed < 3.0


def test_scale_3200_breakpoint_integral():
    rng = random.Random(3200)
    dens = [rng.randrange(1 << 63, 1 << 64) for _ in range(3200)]
    bps = tuple(i + Fraction(rng.randrange(q), 2 * q) for i, q in enumerate(dens))
    value = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4))  # noqa: E731
    f = StepFn(bps, tuple(value() for _ in range(3199)), tuple(value() for _ in range(3200)))
    t0 = time.perf_counter()
    got = integral(f)
    elapsed = time.perf_counter() - t0
    want = sum((v * (b - a) for v, a, b in zip(f.open_values, bps, bps[1:])), Fraction(0))
    assert got == want
    print(f"SCALE: a 3,200-breakpoint step function with 64-bit denominators "
          f"integrated in {elapsed:.3f}s (< 0.5s)")
    assert elapsed < 0.5


def test_scale_3200_breakpoint_first_evaluation():
    rng = random.Random(3200)
    dens = [rng.randrange(1 << 63, 1 << 64) for _ in range(3200)]
    bps = tuple(i + Fraction(rng.randrange(q), 2 * q) for i, q in enumerate(dens))
    value = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4))  # noqa: E731
    f = StepFn(bps, tuple(value() for _ in range(3199)), tuple(value() for _ in range(3200)))
    mids = [(a + b) / 2 for a, b in zip(bps, bps[1:])]
    t0 = time.perf_counter()
    first = f(mids[1600])
    elapsed = time.perf_counter() - t0
    assert first == f.open_values[1600]
    # a plain Fraction scan: each probe sits between its neighbours in order
    probes = [bps[0] - 1, *(p for pair in zip(bps, mids) for p in pair), bps[-1], bps[-1] + 1]
    assert all(a < b for a, b in zip(probes, probes[1:]))
    want = [0, *(v for pair in zip(f.point_values, f.open_values) for v in pair)]
    assert [f(x) for x in probes] == want + [f.point_values[-1], 0]
    print(f"SCALE: a 3,200-breakpoint step function with 64-bit denominators "
          f"evaluated first in {elapsed:.4f}s (< 0.1s)")
    assert elapsed < 0.1


def test_scale_64_label_quotient(tmp_path, capsys):
    # the subsets of six atoms, two of weight zero: 16 classes of distinct sums
    weights = [1, 2, 0, 4, 0, 8]
    atoms = lambda m: [i for i in range(6) if m >> i & 1]  # noqa: E731
    label = lambda m: "{" + ",".join("abcdef"[i] for i in atoms(m)) + "}"  # noqa: E731
    doc = {
        "carrier": [label(m) for m in range(64)],
        "leq": [[label(m), label(m | 1 << i)] for m in range(64) for i in range(6)],
        "phi": {label(m): str(sum(weights[i] for i in atoms(m))) for m in range(64)},
    }
    path = tmp_path / "powerset6.json"
    path.write_text(json.dumps(doc))
    t0 = time.perf_counter()
    code = main(["quotient", "--system", str(path)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["classes"]) == 16 and out["hausdorff"] is True
    assert sorted(int(v) for v in out["phi"].values()) == list(range(16))
    print(f"SCALE: the quotient of a 64-label powerset system through main "
          f"in {elapsed:.3f}s (< 1s)")
    assert elapsed < 1.0


def test_scale_64_label_chain_quotient(tmp_path, capsys):
    # the carrier ceiling as a chain, phi constant on runs of four labels
    labels = [f"c{i}" for i in range(64)]
    doc = {
        "carrier": labels,
        "leq": [[a, b] for a, b in zip(labels, labels[1:])],
        "phi": {a: str(i // 4) for i, a in enumerate(labels)},
    }
    path = tmp_path / "chain64.json"
    path.write_text(json.dumps(doc))
    t0 = time.perf_counter()
    code = main(["quotient", "--system", str(path)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["classes"]) == 16 and out["hausdorff"] is True
    assert sorted(int(v) for v in out["phi"].values()) == list(range(16))
    print(f"SCALE: the quotient of a 64-label chain system through main "
          f"in {elapsed:.3f}s (< 0.15s)")
    assert elapsed < 0.15


def test_scale_1000_sample_pseudometric_check(capsys):
    t0 = time.perf_counter()
    code = main(["check", "--suite", "pseudometric", "--samples", "1000", "--seed", "1"])
    elapsed = time.perf_counter() - t0
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True and out["report"]["triangle"] == {
        "pass": 2000, "fail": 0, "counterexample": None,
    }
    print(f"SCALE: check --suite pseudometric --samples 1000 through main "
          f"in {elapsed:.3f}s (< 3s)")
    assert elapsed < 3.0


def test_scale_1000_depth_dyadic_uniformity_check(capsys):
    t0 = time.perf_counter()
    code = main(["check", "--suite", "uniformity-dyadic", "--samples", "500", "--depth", "1000"])
    elapsed = time.perf_counter() - t0
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True and out["report"]["(i) reflexive"] == {
        "pass": 500, "fail": 0, "counterexample": None,
    }
    print(f"SCALE: check --suite uniformity-dyadic --samples 500 --depth 1000 through main "
          f"in {elapsed:.3f}s (< 0.5s)")
    assert elapsed < 0.5
