import random
from fractions import Fraction as Q

import pytest

from hypident.algebra import Polynomial
from hypident.asymptotics import check_residue_polynomial, law_points
from hypident.errors import KBelowRange, ValidationError
from hypident.fuzzing import random_instance
from hypident.hyper import IdentityInstance, Theorem, validate
from hypident.residues import (
    Pole,
    ResidueKernel,
    _divide_root,
    _from_roots,
    _residue_parts,
    finite_residues,
    residue_at_infinity,
    residue_kernel,
    residue_sum_closed_form,
    sum_finite_residues,
)
from oracles import kernel_pole_residue, kernel_roots, poly_value, root_product

CANONICAL = IdentityInstance(a=(0, Q(1, 2)), b=(Q(1, 3), Q(1, 4)), m=(0, 0), n=(0, 0))
SHIFTED = IdentityInstance(a=(0, Q(1, 2)), b=(Q(1, 3), Q(1, 4)), m=(1, 1), n=(0, 0))


def over_roots(num, roots, scale=1):
    """The kernel num(w) / prod (w - root) in w = scale * z, built directly:
    the denominator from the oracle, its distinct int roots as the poles."""
    den = root_product(roots)
    poles = tuple([Pole(root, 0, j) for j, root in enumerate(roots)])
    return ResidueKernel(0, scale, tuple(num), den, poles, len(num) - len(den))


class TestKernelConstruction:
    def test_zero_shift_k0(self):
        kernel = residue_kernel(CANONICAL, 0)
        assert kernel.fraction.num == Polynomial((1,))
        assert kernel.fraction.den.coeffs == root_product([0, Q(1, 2)])
        assert sorted(Q(p.w, kernel.scale) for p in kernel.poles) == [0, Q(1, 2)]

    def test_unit_shift_numerator(self):
        kernel = residue_kernel(SHIFTED, 0)
        # (z - 1/3 + 1)(z - 1/4 + 1) = (z + 2/3)(z + 3/4)
        assert kernel.fraction.num.coeffs == root_product([Q(-2, 3), Q(-3, 4)])
        assert kernel.fraction.den.coeffs == root_product([0, Q(1, 2)])

    def test_k1_denominator(self):
        kernel = residue_kernel(CANONICAL, 1)
        assert kernel.fraction.den.coeffs == root_product([1, 0, Q(3, 2), Q(1, 2)])
        assert len(kernel.poles) == 4
        for p, res in zip(kernel.poles, finite_residues(kernel), strict=True):
            # the pole z = a_i + k - j as an integer in w = D z
            assert p.w == kernel.scale * (CANONICAL.a[p.i] + 1 - p.j)
            assert res == oracle_residue(CANONICAL, 1, Q(p.w, kernel.scale))

    def test_confluent_numerator_is_one(self):
        inst = IdentityInstance(a=(0, Q(1, 3)), b=(), m=(), n=(1, 0))
        for k in range(4):
            assert residue_kernel(inst, k).fraction.num == Polynomial((1,))

    def test_negative_denominator_shift_flips_to_numerator(self):
        inst = IdentityInstance(a=(0, Q(1, 2)), b=(Q(1, 3), Q(1, 4)), m=(0, 0), n=(-3, 0))
        kernel = residue_kernel(inst, 0)
        # (z - a_0)_{-2} contributes (z - 1)(z - 2) upstairs
        assert kernel.fraction.num.coeffs == root_product([1, 2])
        assert all(p.i == 1 for p in kernel.poles)  # only a_1's string has poles

    def test_from_roots_and_divide_root(self):
        # the kernel's integer products, started from another product as a
        # stepped build is, against the oracle's, and each root divided out again
        rng = random.Random(33)
        for _ in range(60):
            roots = [rng.randint(-99, 99) for _ in range(rng.randint(0, 8))]
            split = rng.randint(0, len(roots))
            poly = _from_roots(roots[split:], root_product(roots[:split]))
            assert poly == root_product(roots) and all(type(c) is int for c in poly)
            for t, root in enumerate(roots):
                poly = _divide_root(poly, root)
                assert poly == root_product(roots[t + 1 :])
        assert _from_roots([], (1,)) == (1,)

    def test_k_below_range(self):
        with pytest.raises(KBelowRange):
            residue_kernel(SHIFTED, -2)  # m_min = 1 allows k >= -1
        residue_kernel(SHIFTED, -1)

    def test_degree_bookkeeping(self):
        t2 = IdentityInstance(a=(0, Q(1, 2)), b=(Q(1, 3),), m=(3,), n=(0, 0))
        derived = validate(t2)
        for k in range(0, 6):
            kernel = residue_kernel(t2, k)
            expected = derived.M - derived.N - derived.r - (derived.r - derived.s) * k
            assert kernel.offset == expected
            assert kernel.fraction.num.degree - kernel.fraction.den.degree == expected
        derived = validate(SHIFTED)
        for k in range(-1, 6):
            kernel = residue_kernel(SHIFTED, k)
            assert kernel.offset == derived.M - derived.N - derived.r
            assert kernel.fraction.num.degree - kernel.fraction.den.degree == kernel.offset


class TestSimplePoleResidue:
    def test_single_pole(self):
        # 1 / (z - 5/7), held in w = 7 z as 1 / (w - 5)
        assert finite_residues(over_roots((1,), [5], scale=7)) == [1]

    def test_partial_fractions(self):
        # 1 / (z (z - 1)) = 1 / (z - 1) - 1 / z
        assert finite_residues(over_roots((1,), [0, 1])) == [-1, 1]

    def test_random_roots_against_product_formula(self):
        # residue of num / prod (z - root) at a root z0 is
        # num(z0) / prod_{root != z0} (z0 - root)
        rng = random.Random(12)
        for _ in range(40):
            roots = rng.sample(range(-9, 10), rng.randint(1, 6))
            num = [rng.randint(-9, 9) for _ in range(4)]
            expected = []
            for z0 in roots:
                value = Q(poly_value(num, z0))
                for root in roots:
                    if root != z0:
                        value /= z0 - root
                expected.append(value)
            assert finite_residues(over_roots(num, roots)) == expected


class TestClosedForm:
    def test_matches_direct_residue_at_origin(self):
        kernel = residue_kernel(CANONICAL, 0)
        assert kernel.poles[0].w == 0  # a_0 = 0
        assert finite_residues(kernel)[0] == oracle_residue(CANONICAL, 0, 0) == -2

    def test_matches_direct_residue_everywhere(self):
        for inst in (
            CANONICAL,
            SHIFTED,
            IdentityInstance(a=(0, Q(1, 2)), b=(Q(1, 3), Q(1, 4)), m=(-1, 0), n=(0, -2)),
            IdentityInstance(a=(0, Q(1, 2)), b=(Q(1, 3),), m=(3,), n=(0, 0)),
        ):
            m_min = validate(inst).m_min
            for k in range(-m_min, -m_min + 5):
                kernel = residue_kernel(inst, k)
                total = 0
                for pole, direct in zip(kernel.poles, finite_residues(kernel), strict=True):
                    assert direct == oracle_residue(inst, k, Q(pole.w, kernel.scale))
                    total += direct
                assert residue_sum_closed_form(inst, k) == total


def small_denominator_instance(rng):
    """A valid balanced instance whose parameters have denominators <= 4,
    so that some b_l - a_i are integers and route 2 meets zero terms."""
    while True:
        r = rng.randint(2, 3)
        a = tuple(Q(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(r))
        b = tuple(Q(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(r))
        m = tuple(rng.randint(-3, 3) for _ in range(r))
        n = tuple(rng.randint(-3, 3) for _ in range(r))
        inst = IdentityInstance(a=a, b=b, m=m, n=n)
        try:
            validate(inst)
        except ValidationError:
            continue
        return inst


class TestTermRatioSum:
    def test_against_the_oracle_through_zero_stretches(self):
        # route 2 steps each pole string by its term ratio from its first
        # nonzero term, and stops at its last; the oracle takes every
        # residue by its own product
        rng = random.Random(61)
        restarts = tails = all_zero = 0
        for _ in range(30):
            inst = small_denominator_instance(rng)
            derived = validate(inst)
            args = (inst.a, inst.b, inst.m, inst.n)
            for k in range(-derived.n_max, -derived.m_min + 10):
                total = 0
                for i, (a_i, n_i) in enumerate(zip(inst.a, inst.n)):
                    terms = [
                        kernel_pole_residue(*args, k, a_i + k - j) for j in range(k + n_i + 1)
                    ]
                    total += sum(terms)
                    # a nonzero term after a zero one: the run starts past j = 0
                    restarts += any(x == 0 and y != 0 for x, y in zip(terms, terms[1:]))
                    # a zero term after a nonzero one: the run stops below the top
                    tails += any(x != 0 and y == 0 for x, y in zip(terms, terms[1:]))
                    all_zero += bool(terms) and not any(terms)
                assert residue_sum_closed_form(inst, k) == total, (inst, k)
        assert restarts > 0 and tails > 0 and all_zero > 0


class TestResidueTheorem:
    def test_consistency_window(self):
        instances = [
            CANONICAL,
            SHIFTED,
            IdentityInstance(a=(0, Q(1, 2)), b=(Q(1, 3), Q(1, 4)), m=(-1, 0), n=(0, -2)),
            IdentityInstance(a=(Q(1, 5), Q(1, 2), Q(2, 7)), b=(Q(1, 3), Q(1, 4), Q(8, 3)), m=(2, -1, 0), n=(1, 0, -2)),
            IdentityInstance(a=(0, Q(1, 3)), b=(), m=(), n=(2, -1)),
        ]
        for inst in instances:
            m_min = validate(inst).m_min
            for k in range(-m_min, -m_min + 21):
                kernel = residue_kernel(inst, k)
                finite = sum_finite_residues(kernel)
                assert finite == residue_at_infinity(kernel)
                assert finite == residue_sum_closed_form(inst, k)

    def test_consistency_on_random_instances(self):
        rng = random.Random(31)
        for _ in range(10):
            inst = random_instance(rng, r_range=(2, 3), shift_range=2)
            m_min = validate(inst).m_min
            for k in range(-m_min, -m_min + 8):
                kernel = residue_kernel(inst, k)
                finite = sum_finite_residues(kernel)
                assert finite == residue_at_infinity(kernel)
                assert finite == residue_sum_closed_form(inst, k)

    def test_zero_shift_antisymmetry(self):
        kernel = residue_kernel(CANONICAL, 0)
        a1, a2 = CANONICAL.a
        assert 1 / (a1 - a2) + 1 / (a2 - a1) == 0
        assert sum_finite_residues(kernel) == 0
        assert residue_at_infinity(kernel) == 0

    def test_degree_gap_means_zero(self):
        # deg num <= deg den - 2 forces a vanishing 1/z coefficient
        kernel = residue_kernel(CANONICAL, 0)
        assert kernel.offset == -2
        assert residue_at_infinity(kernel) == 0

    def test_unit_value_when_offset_is_minus_one(self):
        inst = IdentityInstance(a=(0, Q(1, 2)), b=(Q(1, 3), Q(1, 4)), m=(1, 0), n=(0, 0))
        assert validate(inst).p == 0
        for k in range(0, 9):
            assert residue_at_infinity(residue_kernel(inst, k)) == 1


# denominators 7, 9, 11 and 13: the kernel runs in w = 9009 z
LARGE_LCM = IdentityInstance(a=(Q(1, 7), Q(-2, 9)), b=(Q(3, 11), Q(5, 13)), m=(1, 2), n=(0, 1))
# deg num - deg den = 0, so the residue returns to z through 1/D
OFFSET_ZERO = IdentityInstance(a=(Q(1, 5), Q(2, 3)), b=(Q(1, 7), Q(3, 4)), m=(2, 1), n=(0, 1))
# n_0 + k + 1 < 0 for k < 2: a_0's denominator factor flips into the numerator
NEGATIVE_SHIFT = IdentityInstance(
    a=(Q(1, 5), Q(2, 3)), b=(Q(1, 7), Q(3, 4)), m=(0, 1), n=(-3, 1)
)
# r - s = 1: the degree offset 1 - k passes -1 at k = 2 and drops below after
CONFLUENT = IdentityInstance(a=(Q(0), Q(1, 3)), b=(Q(1, 2),), m=(3,), n=(0, 0))
THREE_TERM = IdentityInstance(
    a=(Q(1, 5), Q(1, 2), Q(2, 7)), b=(Q(1, 3), Q(1, 4), Q(8, 3)), m=(2, -1, 0), n=(1, 0, -2)
)
# no pole at k = 0: both denominator shifts are negative
NO_POLES = IdentityInstance(a=(Q(1, 5), Q(2, 3)), b=(Q(1, 7), Q(3, 4)), m=(0, 1), n=(-3, -2))


class TestExactness:
    def test_int_inputs_never_give_floats(self):
        # route 4 on integer kernels, built directly in w = z and from instances, gives ints
        expansions = [ResidueKernel(0, 1, (1, 0, 0, 1), (2, 1), (), 2).expansion]
        expansions += [residue_kernel(inst, law_points(inst).start).expansion
                       for inst in (SHIFTED, OFFSET_ZERO, LARGE_LCM)]
        assert expansions == [[1, -2, 4, -7], [1, 0], [1, 640], [1, 3542]]
        assert all(type(v) is int for expansion in expansions for v in expansion), expansions
        # a value that leaves the integers is one Fraction, an integral one too
        values = finite_residues(over_roots((3, 1), [1, 2, 5]))
        assert values == [1, Q(-5, 3), Q(2, 3)]
        q = Polynomial.interpolate(0, [1, 2, 4])
        assert q.coeffs == (1, Q(1, 2), Q(1, 2))
        values += q.coeffs
        for inst in (CANONICAL, SHIFTED, OFFSET_ZERO, LARGE_LCM):
            m_min = validate(inst).m_min
            for k in range(-m_min, -m_min + 4):
                kernel = residue_kernel(inst, k)
                values += finite_residues(kernel)
                values += [
                    sum_finite_residues(kernel),
                    residue_at_infinity(kernel),
                    residue_sum_closed_form(inst, k),
                ]
        # no poles at NO_POLES k = 0, no expansion (offset < -1) at CONFLUENT k = 3
        no_poles, no_expansion = residue_kernel(NO_POLES, 0), residue_kernel(CONFLUENT, 3)
        assert no_poles.poles == () and no_expansion.expansion == []
        zeros = [route(kernel) for kernel in (no_poles, no_expansion)
                 for route in (sum_finite_residues, residue_at_infinity)]
        zeros += [residue_sum_closed_form(NO_POLES, 0), residue_sum_closed_form(CONFLUENT, 3)]
        assert zeros == [0] * 6
        values += zeros
        # the law's values at p = -1, 0 and 1
        p_zero = IdentityInstance(a=CANONICAL.a, b=CANONICAL.b, m=(1, 0), n=(0, 0))
        for inst in (CANONICAL, p_zero, SHIFTED, OFFSET_ZERO, LARGE_LCM):
            start = law_points(inst).start
            expansion = residue_kernel(inst, start).expansion
            values += check_residue_polynomial(inst, expansion, []).residue_values
        assert all(type(v) is Q for v in values), [v for v in values if type(v) is not Q]


def oracle_residue(inst, k, z0):
    return kernel_pole_residue(inst.a, inst.b, inst.m, inst.n, k, z0)


class TestScaledKernelAgainstOracle:
    """Routes 2, 3 and 4 against the product formula of tests/oracles.py."""

    CASES = (LARGE_LCM, OFFSET_ZERO, NEGATIVE_SHIFT, CONFLUENT, THREE_TERM, SHIFTED, NO_POLES)

    def test_kernel_unscales_to_the_product_in_z(self):
        assert residue_kernel(LARGE_LCM, 0).scale == 9009
        for inst in self.CASES:
            m_min = validate(inst).m_min
            for k in range(-m_min, -m_min + 5):
                num, den = kernel_roots(inst.a, inst.b, inst.m, inst.n, k)
                kernel = residue_kernel(inst, k)
                assert kernel.fraction.num.coeffs == root_product(num)
                assert kernel.fraction.den.coeffs == root_product(den)

    def test_poles_and_offset_match_the_factors(self):
        # the poles are the denominator's roots, and the offset is the
        # numerator-root count less the denominator-root count
        checked = 0
        for inst in self.CASES:
            m_min = validate(inst).m_min
            for k in range(-m_min, -m_min + 6):
                num, den = kernel_roots(inst.a, inst.b, inst.m, inst.n, k)
                kernel = residue_kernel(inst, k)
                assert sorted(Q(pole.w, kernel.scale) for pole in kernel.poles) == sorted(den)
                assert kernel.offset == len(num) - len(den)
                checked += validate(inst).theorem is Theorem.TWO
        assert checked  # confluent kernels were among them

    def test_every_route_matches_the_product_formula(self):
        # route 3 sums over the lcm of the den'(w0), which take both signs
        offsets, signs = set(), set()
        for inst in self.CASES:
            m_min = validate(inst).m_min
            for k in range(-m_min, -m_min + 7):
                kernel = residue_kernel(inst, k)
                offsets.add(kernel.offset)
                signs.update(slope > 0 for _, slope in _residue_parts(kernel))
                expected = Q(0)
                for pole, direct in zip(kernel.poles, finite_residues(kernel), strict=True):
                    res = oracle_residue(inst, k, Q(pole.w, kernel.scale))
                    assert direct == res
                    expected += res
                assert sum_finite_residues(kernel) == expected
                assert residue_at_infinity(kernel) == expected
                assert residue_sum_closed_form(inst, k) == expected
        assert {-2, -1, 0} <= offsets and signs == {True, False}

    def test_a_kernel_without_poles_sums_to_zero(self):
        kernel = residue_kernel(NO_POLES, 0)
        assert kernel.poles == () and kernel.offset > 0
        assert sum_finite_residues(kernel) == 0 == residue_at_infinity(kernel)

    def test_closed_form_in_the_low_order_range(self):
        # k in [-n_max, -m_min): some numerator Pochhammer shifts go negative
        cases = [
            IdentityInstance(a=(Q(1, 7), Q(-2, 9)), b=(Q(3, 11), Q(5, 13)), m=(-2, 1), n=(3, 1)),
            IdentityInstance(a=(Q(1, 5), Q(2, 3)), b=(Q(1, 7), Q(3, 4)), m=(-1, 2), n=(2, -1)),
            THREE_TERM,
        ]
        checked = 0
        for inst in cases:
            derived = validate(inst)
            for k in range(-derived.n_max, -derived.m_min):
                assert any(m_l + k < 0 for m_l in inst.m)
                expected = Q(0)
                for i, (a_i, n_i) in enumerate(zip(inst.a, inst.n)):
                    for j in range(k + n_i + 1):
                        expected += oracle_residue(inst, k, a_i + k - j)
                        checked += 1
                assert residue_sum_closed_form(inst, k) == expected
        assert checked >= 10


# p = 31, the top rung of the shift ladder
P31 = IdentityInstance(a=(Q(-7, 5), Q(2, 9)), b=(Q(3, 4), Q(-5, 11)), m=(16, 16), n=(0, 0))


class TestSteppedKernel:
    def test_stepped_equals_built_from_roots(self):
        # over verify's 13-k window and the law's p + 3 points
        rng = random.Random(1001)
        draws = [random_instance(rng, r_range=(2, 4), shift_range=3, family="one") for _ in range(40)]
        steps = divisions = 0
        for inst in [*draws, P31, NEGATIVE_SHIFT, THREE_TERM]:
            derived = validate(inst)
            start = -derived.m_min
            below = residue_kernel(inst, start)
            for k in range(start + 1, start + max(12, derived.p + 2) + 1):
                stepped = residue_kernel(inst, k, below)
                assert stepped == residue_kernel(inst, k), (inst, k)
                steps += 1
                # the numerator lost the root D a_l + k D of a negative shift
                divisions += any(n_l + k <= -1 for n_l in inst.n)
                below = stepped
        assert steps > 500 and divisions > 10

    def test_steps_only_from_the_kernel_below(self):
        kernel = residue_kernel(SHIFTED, 2)
        with pytest.raises(ValueError, match="k - 1"):
            residue_kernel(SHIFTED, 2, kernel)
        with pytest.raises(ValueError, match="k - 1"):
            residue_kernel(SHIFTED, 4, kernel)
