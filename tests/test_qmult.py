"""Strongly q-multiplicative functions: construction, properness, evaluation."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import is_proper as is_proper_reference
from oracles import make_constant_one
from sqdigits import qmult
from sqdigits.errors import CapacityError
from sqdigits.qmult import (
    MAX_DIGIT_Q,
    StronglyQMultiplicative,
    eval_truncated,
    evaluate,
    frac,
    is_proper,
    make_digit_exponential,
    phase_of,
    thue_morse,
)


def test_digit_exponential_phases():
    assert make_digit_exponential(2, Fraction(1, 2)).phases == (Fraction(0), Fraction(1, 2))
    assert make_digit_exponential(3, Fraction(1, 3)).phases == (
        Fraction(0),
        Fraction(1, 3),
        Fraction(2, 3),
    )
    f = make_digit_exponential(5, Fraction(0))
    assert all(p == 0 for p in f.phases)
    assert all(evaluate(f, n) == 1 for n in range(50))


def test_phase_validation():
    with pytest.raises(ValueError):
        StronglyQMultiplicative(2, (Fraction(1, 2), Fraction(0)))  # phases[0] != 0
    with pytest.raises(ValueError):
        StronglyQMultiplicative(2, (Fraction(0),))  # wrong length
    with pytest.raises(ValueError):
        StronglyQMultiplicative(2, (Fraction(0), Fraction(3, 2)))  # outside [0,1)


def test_is_proper():
    eps = 1e-12
    cases = [
        (thue_morse(), True),  # (q-1)*gamma = 1/2 not integral
        (make_digit_exponential(3, Fraction(1, 2)), False),  # (q-1)*gamma = 1
        (StronglyQMultiplicative(2, (Fraction(0), Fraction(1, 3))), True),
        (make_constant_one(4), False),  # gamma = 0 case
        (make_constant_one(2), False),  # q = 2: gamma = 0 is the only candidate
        (make_digit_exponential(2, 0.0), False),
        (make_digit_exponential(2, 1e-11), False),
        (make_digit_exponential(2, 2e-10), True),
        (make_digit_exponential(7, Fraction(5, 6)), False),
        (make_digit_exponential(7, Fraction(5, 12)), True),  # a digit exponential, (q-1)*gamma = 5/2
        (StronglyQMultiplicative(3, (Fraction(0), Fraction(1, 2), Fraction(1, 2))), True),
        (StronglyQMultiplicative(3, (0.0, Fraction(1, 2), 0.0)), False),  # mixed: float path
        # floating phases within tolerance of an improper candidate
        (StronglyQMultiplicative(3, (0.0, (0.5 + eps) % 1.0, eps)), False),
    ]
    for f, proper in cases:
        assert is_proper(f) == is_proper_reference(f) == proper, f


def test_is_proper_float_phases_near_each_candidate():
    # every k/(q-1), each phase moved by +-delta: inside the 1e-10 tolerance
    # at 5e-11 (also around 0 and 1, where k*b/(q-1) mod 1 wraps), outside at 2e-10
    rng = np.random.default_rng(18)
    for q in (2, 3, 4, 5, 8, 13):
        for k in range(q - 1):
            for delta, proper in ((5e-11, False), (2e-10, True)):
                for moved in ("all", "one"):
                    shift = delta * rng.choice([-1.0, 1.0], size=q)
                    if moved == "one":
                        shift[np.arange(q) != int(rng.integers(1, q))] = 0.0
                    shift[0] = 0.0
                    phases = tuple(float((k * b / (q - 1) + shift[b]) % 1.0) for b in range(q))
                    f = StronglyQMultiplicative(q, phases)
                    assert is_proper(f) == is_proper_reference(f) == proper, (q, k, delta, moved)


def test_is_proper_random_rational_tuples():
    rng = np.random.default_rng(7)
    improper = 0
    for _ in range(400):
        q = int(rng.integers(2, 10))
        den = int(rng.choice([1, 2, 3, 4, 6, 8, q - 1, 2 * (q - 1), 5 * q]))
        kind = int(rng.integers(0, 3))
        if kind == 0:  # arbitrary rational phases
            phases = (Fraction(0),) + tuple(Fraction(int(rng.integers(0, den)), den) for _ in range(q - 1))
            f = StronglyQMultiplicative(q, phases)
        else:  # a digit exponential, with one phase changed when kind == 2
            f = make_digit_exponential(q, Fraction(int(rng.integers(0, den)), den))
            if kind == 2:
                b = int(rng.integers(1, q))
                phases = list(f.phases)
                phases[b] = Fraction(int(rng.integers(0, den)), den)
                f = StronglyQMultiplicative(q, tuple(phases))
        proper = is_proper(f)
        assert proper == is_proper_reference(f), f
        improper += not proper
    assert 20 < improper < 380  # both answers are exercised


def test_is_proper_float_path_tries_one_candidate(monkeypatch):
    # at q = 64 trying all 63 candidates takes 63 * 64 = 4032 distances
    calls = []
    distance = qmult._circle_distance

    def counting_distance(x):
        calls.append(x)
        return distance(x)

    monkeypatch.setattr(qmult, "_circle_distance", counting_distance)
    for gamma, proper in ((5 / 63, False), (0.3, True), (62 / 63, False)):
        calls.clear()
        assert is_proper(make_digit_exponential(64, gamma)) == proper
        assert len(calls) <= 64


def test_evaluate_examples():
    tm = thue_morse()
    assert evaluate(tm, 3) == 1  # s_2(3) = 2
    assert abs(evaluate(tm, 7) - (-1)) < 1e-15  # s_2(7) = 3, e(3/2) = -1
    assert evaluate(tm, 0) == 1
    f = StronglyQMultiplicative(3, (Fraction(0), Fraction(1, 7), Fraction(2, 5)))
    assert evaluate(f, 0) == 1


def test_eval_truncated_examples():
    tm = thue_morse()
    assert abs(eval_truncated(tm, 13, 1, 3) - (-1)) < 1e-15  # window digits 0,1 -> u=2
    assert eval_truncated(tm, 999, 4, 4) == 1  # empty window
    assert abs(eval_truncated(tm, 5, 0, 3) - 1) < 1e-15  # s_2(5) = 2


def test_eval_truncated_negative_argument():
    # rep acts on residue classes, so negative a is legitimate
    tm = thue_morse()
    for a in (-1, -5, -64):
        assert eval_truncated(tm, a, 1, 4) == eval_truncated(tm, a + 2**4, 1, 4)


def test_multiplicativity_bulk():
    # eval(f, a*q + b) = eval(f, a) * eval(f, b) on 10**5 random a per base,
    # checked on exact integer phase numerators (the arithmetic evaluate uses)
    rng = np.random.default_rng(3)
    for q, gamma in ((2, Fraction(1, 2)), (3, Fraction(1, 3)), (5, Fraction(2, 5))):
        f = make_digit_exponential(q, gamma)
        denom = math.lcm(*(p.denominator for p in f.phases))
        nums = np.array([int(p * denom) for p in f.phases], dtype=np.int64)

        def phase_num(v, q=q, nums=nums, denom=denom):
            v = v.copy()
            out = np.zeros_like(v)
            qq = np.uint64(q)
            while v.max() > 0:
                out += nums[(v % qq).astype(np.int64)].astype(np.uint64)
                v //= qq
            return out % np.uint64(denom)

        a = rng.integers(0, 2**55, size=10**5).astype(np.uint64)
        for b in range(q):
            lhs = phase_num(a * np.uint64(q) + np.uint64(b))
            rhs = (phase_num(a) + int(f.phases[b] * denom)) % denom
            assert np.array_equal(lhs, rhs)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**48), st.integers(min_value=0, max_value=4))
def test_multiplicativity_property(a, b):
    f = make_digit_exponential(5, Fraction(2, 5))
    b = b % f.q
    lhs = evaluate(f, a * f.q + b)
    rhs = evaluate(f, a) * evaluate(f, b)
    assert abs(lhs - rhs) < 1e-12


def test_truncation_periodicity_exhaustive():
    tm = thue_morse()
    for kappa2 in range(1, 9):
        for kappa1 in range(kappa2 + 1):
            for a in range(2**kappa2):
                assert eval_truncated(tm, a, kappa1, kappa2) == eval_truncated(
                    tm, a + 2**kappa2, kappa1, kappa2
                )


def test_rational_phases_give_roots_of_unity():
    # for gamma = u/v every value is a v*(q-1)-th root of unity
    for q, gamma in ((2, Fraction(1, 2)), (3, Fraction(2, 7)), (5, Fraction(3, 4))):
        f = make_digit_exponential(q, gamma)
        order = gamma.denominator * (q - 1)
        for n in range(0, 2000, 37):
            phase = phase_of(f, n)
            assert (phase * order).denominator == 1


def test_unit_modulus_after_long_chains():
    f = StronglyQMultiplicative(3, (0.0, 0.237194, 0.914233))
    value = evaluate(f, 3**40 - 1)
    assert abs(abs(value) - 1.0) <= 1e-12


def test_exactness_and_hash_are_computed_once(monkeypatch):
    from sqdigits.fourier import quadratic_mean
    from sqdigits.harness import phase_array

    # at q = 2**17 one scan of the phases costs about 0.5 s, so repeated calls
    # must not hash the q Fractions again (phase_of and the kernel's table
    # lookups hash f on every call)
    f = make_digit_exponential(2**17, Fraction(1, 5))
    values = np.array([0, 1, 2**17 + 3, 2**40 + 12345], dtype=np.uint64)
    phases = [phase_of(f, int(v)) for v in values]
    array = phase_array(f, values)
    numerators = f.numerators
    assert numerators == (5, tuple(b % 5 for b in range(2**17)))
    assert is_proper(f)
    sums = quadratic_mean(f, 1, 0.4)
    counted = []

    def counting(name):
        method = getattr(Fraction, name)

        def wrapper(self, *args):
            counted.append(name)
            return method(self, *args)

        monkeypatch.setattr(Fraction, name, wrapper)

    # hashing, and the Fraction arithmetic of a per-digit scan, on every call
    # would each cost a scan of the q phases
    for name in ("__hash__", "__mul__", "__rmul__", "__mod__"):
        counting(name)
    for _ in range(3):
        assert f.exact
        assert f.numerators is numerators
        assert [phase_of(f, int(v)) for v in values] == phases
        assert phase_array(f, values).tolist() == array.tolist()
        assert is_proper(f)
        assert quadratic_mean(f, 1, 0.4) == sums
    assert counted == []
    monkeypatch.undo()
    # equality and hashing still follow the fields
    same = make_digit_exponential(2**17, Fraction(1, 5))
    assert same == f and same is not f and hash(same) == hash(f)
    assert make_digit_exponential(2**17, Fraction(2, 5)) != f
    assert hash(thue_morse()) == hash((2, thue_morse().phases))
    assert not make_digit_exponential(3, 0.25).exact


def test_digit_exponential_cap_before_any_phase(monkeypatch):
    def no_phases(*args):
        raise AssertionError("a phase was built before the cap check")

    monkeypatch.setattr(Fraction, "__mod__", no_phases)
    for q in (MAX_DIGIT_Q + 1, 10**29):
        with pytest.raises(CapacityError, match="digit function cap"):
            make_digit_exponential(q, Fraction(1, 3))
    monkeypatch.undo()
    assert len(make_digit_exponential(7, Fraction(1, 3)).phases) == 7


def test_digit_values_are_computed_once(monkeypatch):
    f = make_digit_exponential(5, Fraction(1, 3))
    values = f.digit_values
    assert values == tuple(cmath.exp(2j * math.pi * float(p)) for p in f.phases)
    to_float = []
    fraction_float = Fraction.__float__

    def counting_float(self):
        to_float.append(self)
        return fraction_float(self)

    monkeypatch.setattr(Fraction, "__float__", counting_float)
    for _ in range(3):
        assert f.digit_values is values
    assert to_float == []


_FRAC_EDGES = [
    0.0, -0.0, 1.0, -1.0, 7.0, -7.0, 0.5, -0.5, 0.25, -0.75,
    5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072009e-308,
    -1e-20, 1e-20, 1e300, -1e300, 2.0**52 + 0.5, -(2.0**52) - 0.5, 2.0**53, -(2.0**53),
    math.nextafter(1.0, 0.0), -math.nextafter(1.0, 0.0), math.nextafter(-1.0, 0.0),
]


def _bits(x: np.ndarray) -> list[int]:
    return x.view(np.uint64).tolist()


def test_frac_is_np_mod_bitwise():
    x = np.array(_FRAC_EDGES)
    assert _bits(frac(x)) == _bits(np.mod(x, 1.0))
    assert _bits(frac(np.array([-0.0, -3.0, 4.0]))) == _bits(np.zeros(3))  # +0.0, not -0.0
    draws = np.random.default_rng(0).standard_normal(10**5) * 10.0 ** np.arange(-20, 20).repeat(2500)
    assert _bits(frac(draws)) == _bits(np.mod(draws, 1.0))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=20))
def test_frac_is_np_mod_bitwise_hypothesis(values):
    x = np.array(values, dtype=np.float64)
    assert _bits(frac(x)) == _bits(np.mod(x, 1.0))
