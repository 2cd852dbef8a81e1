"""Pinned driver outputs: status, counters, trace length and f_final.

The expected values were recorded from the two drivers before they were
merged into one outer loop; the merged driver must reproduce them exactly.
Every entry was recorded on OpenBLAS's ``SkylakeX`` runtime core.  Under
``OPENBLAS_CORETYPE=Haswell`` (AVX2), 23 of the 34 entries move (f_final in
its trailing digits, hvp_evals by up to 2 on four), while every status holds.
The six 'acrn' entries were recorded later, from the cubic-regularization
baseline as it ran on that loop; it takes no eps_H, so theirs is None.
The f_final of ('alg2', 'quartic', 1, 1e-2) was re-recorded once, when the
Ritz pairs moved to numpy's eigensolver: it moved by one ulp.

The 12 'infeas' entries were re-recorded once, when the infeasibility HVP
moved to cached per-point data (S = sum_i w2_i A_i formed once per point,
then one n x n matrix-vector product per HVP).  The products round
differently, so every f_final moved in its trailing digits (f is about
1e-10), and ('alg2', 'infeas', 4, *) took two more HVPs (299 -> 301 with
eps_H, 169 -> 171 without).  Statuses, the other counters and trace lengths
did not change.  Old -> new f_final, where * is both None and 1e-2:

    ('alg1', 'infeas', 0, *)  9.07070645873748e-11   -> 9.070664011386044e-11
    ('alg1', 'infeas', 3, *)  7.55704278296635e-11   -> 7.557128765100481e-11
    ('alg1', 'infeas', 4, *)  2.052514170345502e-11  -> 2.052441575907111e-11
    ('alg2', 'infeas', 0, *)  1.0147458825940828e-10 -> 1.014755991054616e-10
    ('alg2', 'infeas', 3, *)  9.170044944076977e-11  -> 9.170034225555937e-11
    ('alg2', 'infeas', 4, *)  2.6020945776832595e-11 -> 2.6021630513205433e-11

All 28 hvp_evals were re-recorded once, when capped CG stopped taking a
second product H r per iteration for its cap test and took H r from the
recurrence H r = beta H p_prev - H p instead.  Only hvp_evals moved (4729 ->
3681 in total); statuses, the other counters, trace lengths and f_final did
not.  Old -> new hvp_evals:

    ('alg1', 'infeas', 0, 1e-2)   224 -> 180
    ('alg1', 'infeas', 0, None)    94 ->  50
    ('alg1', 'infeas', 3, 1e-2)   214 -> 175
    ('alg1', 'infeas', 3, None)    84 ->  45
    ('alg1', 'infeas', 4, 1e-2)   257 -> 197
    ('alg1', 'infeas', 4, None)   127 ->  67
    ('alg1', 'quartic', 0, 1e-2)  264 -> 241
    ('alg1', 'quartic', 1, 1e-2)  266 -> 242
    ('alg1', 'repu', 0, 1e-2)     217 -> 174
    ('alg1', 'repu', 0, None)     111 ->  68
    ('alg1', 'repu', 1, 1e-2)     149 -> 132
    ('alg1', 'repu', 1, None)      45 ->  28
    ('alg1', 'repu', 2, 1e-2)     113 -> 110
    ('alg1', 'repu', 2, None)      11 ->   8
    ('alg2', 'infeas', 0, 1e-2)   290 -> 217
    ('alg2', 'infeas', 0, None)   160 ->  87
    ('alg2', 'infeas', 3, 1e-2)   269 -> 207
    ('alg2', 'infeas', 3, None)   139 ->  77
    ('alg2', 'infeas', 4, 1e-2)   301 -> 225
    ('alg2', 'infeas', 4, None)   171 ->  95
    ('alg2', 'quartic', 0, 1e-2)  281 -> 250
    ('alg2', 'quartic', 1, 1e-2)  266 -> 242
    ('alg2', 'repu', 0, 1e-2)     210 -> 178
    ('alg2', 'repu', 0, None)     105 ->  73
    ('alg2', 'repu', 1, 1e-2)     163 -> 142
    ('alg2', 'repu', 1, None)      58 ->  37
    ('alg2', 'repu', 2, 1e-2)     121 -> 118
    ('alg2', 'repu', 2, None)      19 ->  16

Two quartic f_final were re-recorded once more, separately, when the Ritz
vector got a sign convention (largest-magnitude component positive).  The
first MEO step from the saddle now goes the other way on all four quartic
cases, so x_final is mirrored; f is even, and the mirrored path ends at the
same f_final on two cases and one or two ulps away on these two:

    ('alg1', 'quartic', 0, 1e-2)  -0.8468130835333927 -> -0.8468130835333929
    ('alg2', 'quartic', 1, 1e-2)  -0.711657121642769  -> -0.7116571216427692

The 16 eps_H = 1e-2 hvp_evals were re-recorded once, when the eigenvalue
oracle started to size its Lanczos budget from its own products and the
drivers stopped spending 100 products on an operator-norm estimate before
each oracle call.  Only hvp_evals moved, by -100 per MEO call; statuses, the
other counters, trace lengths and f_final did not.  Old -> new hvp_evals:

    ('alg1', 'infeas', 0, 1e-2)   180 ->  80
    ('alg1', 'infeas', 3, 1e-2)   175 ->  75
    ('alg1', 'infeas', 4, 1e-2)   197 ->  97
    ('alg1', 'quartic', 0, 1e-2)  241 ->  41
    ('alg1', 'quartic', 1, 1e-2)  242 ->  42
    ('alg1', 'repu', 0, 1e-2)     174 ->  74
    ('alg1', 'repu', 1, 1e-2)     132 ->  32
    ('alg1', 'repu', 2, 1e-2)     110 ->  10
    ('alg2', 'infeas', 0, 1e-2)   217 -> 117
    ('alg2', 'infeas', 3, 1e-2)   207 -> 107
    ('alg2', 'infeas', 4, 1e-2)   225 -> 125
    ('alg2', 'quartic', 0, 1e-2)  250 ->  50
    ('alg2', 'quartic', 1, 1e-2)  242 ->  42
    ('alg2', 'repu', 0, 1e-2)     178 ->  78
    ('alg2', 'repu', 1, 1e-2)     142 ->  42
    ('alg2', 'repu', 2, 1e-2)     118 ->  18

The four quartic hvp_evals were re-recorded once, when the MEO step started
to reuse the oracle's verified v'Hv instead of taking one more product to
scale its direction.  Only hvp_evals moved, by -1 on each case (one MEO step
per solve); x_final, statuses, the other counters, traces and f_final did
not.  Old -> new hvp_evals:

    ('alg1', 'quartic', 0, 1e-2)   41 ->  40
    ('alg1', 'quartic', 1, 1e-2)   42 ->  41
    ('alg2', 'quartic', 0, 1e-2)   50 ->  49
    ('alg2', 'quartic', 1, 1e-2)   42 ->  41

The 16 repu and quartic hvp_evals were re-recorded once, when NC steps
started to take d'Hd from capped CG (``CgOutcome.curvature``, read off the
products the run already took) instead of one more product per NC trial.
Only hvp_evals moved (-96 in total, one per NC trial); x_final, statuses,
the other counters, traces and f_final did not.  The 12 'infeas' cases take
no NC trial.  Old -> new hvp_evals:

    ('alg1', 'quartic', 0, 1e-2)   40 ->  38
    ('alg1', 'quartic', 1, 1e-2)   41 ->  39
    ('alg1', 'repu', 0, 1e-2)      74 ->  64
    ('alg1', 'repu', 0, None)      68 ->  58
    ('alg1', 'repu', 1, 1e-2)      32 ->  29
    ('alg1', 'repu', 1, None)      28 ->  25
    ('alg1', 'repu', 2, 1e-2)      10 ->   9
    ('alg1', 'repu', 2, None)       8 ->   7
    ('alg2', 'quartic', 0, 1e-2)   49 ->  47
    ('alg2', 'quartic', 1, 1e-2)   41 ->  39
    ('alg2', 'repu', 0, 1e-2)      78 ->  59
    ('alg2', 'repu', 0, None)      73 ->  54
    ('alg2', 'repu', 1, 1e-2)      42 ->  36
    ('alg2', 'repu', 1, None)      37 ->  31
    ('alg2', 'repu', 2, 1e-2)      18 ->  13
    ('alg2', 'repu', 2, None)      16 ->  11

The 15 'infeas' entries were re-recorded once, when the infeasibility
oracle started to assemble its Hessian H = (2 S + lin' diag(w1) lin) / m
once per point and to take each HVP as one product H v.  The products round
differently: every f_final moved in its trailing digits, and four hvp_evals
moved by one.  Statuses, the other counters and trace lengths did not
change.  Old -> new f_final, where * is both None and 1e-2:

    ('alg1', 'infeas', 0, *)  9.070664011386044e-11  -> 9.07064448408353e-11
    ('alg1', 'infeas', 3, *)  7.557128765100481e-11  -> 7.557045433473298e-11
    ('alg1', 'infeas', 4, *)  2.052441575907111e-11  -> 2.0524421685238607e-11
    ('alg2', 'infeas', 0, *)  1.014755991054616e-10  -> 1.0147386072280672e-10
    ('alg2', 'infeas', 3, *)  9.170034225555937e-11  -> 9.170211794478188e-11
    ('alg2', 'infeas', 4, *)  2.6021630513205433e-11 -> 2.602146550803488e-11
    ('acrn', 'infeas', 0, None)  4.453143990421821e-12  -> 4.45314399038366e-12
    ('acrn', 'infeas', 3, None)  1.2386747603881537e-11 -> 1.2386747604070052e-11
    ('acrn', 'infeas', 4, None)  5.6635144125620604e-11 -> 5.663514412565389e-11

and old -> new hvp_evals:

    ('alg1', 'infeas', 0, 1e-2)    80 ->  81
    ('alg1', 'infeas', 0, None)    50 ->  51
    ('alg2', 'infeas', 4, 1e-2)   125 -> 124
    ('alg2', 'infeas', 4, None)    95 ->  94

Two quartic f_final were re-recorded once, when the eigenvalue oracle
started to store its Lanczos basis by rows and to form the Ritz vector as
weights @ Q.  That product rounds differently in the last bits, so the MEO
step from the saddle lands one or two ulps away; statuses, counters and
trace lengths did not change.  Old -> new f_final:

    ('alg1', 'quartic', 0, 1e-2)  -0.8468130835333929 -> -0.8468130835333927
    ('alg2', 'quartic', 0, 1e-2)  -0.8468130835048802 -> -0.8468130835048804

The 12 alg2 'infeas' and 'repu' hvp_evals were re-recorded once, when an
outer iteration's damping trials after the first started to replay the
first trial's capped-CG passes (multi-shift CG) instead of taking their
own products.  hvp_evals fell on all 12 (810 -> 548 in total); the
replayed iterates round differently, so the f_final of
('alg2', 'infeas', 4, *) moved in its trailing digits.  Statuses, the
other counters and trace lengths did not change, and no alg1, quartic or
acrn entry moved.  Old -> new hvp_evals:

    ('alg2', 'infeas', 0, 1e-2)   117 ->  77
    ('alg2', 'infeas', 0, None)    87 ->  47
    ('alg2', 'infeas', 3, 1e-2)   107 ->  71
    ('alg2', 'infeas', 3, None)    77 ->  41
    ('alg2', 'infeas', 4, 1e-2)   124 ->  88
    ('alg2', 'infeas', 4, None)    94 ->  58
    ('alg2', 'repu', 0, 1e-2)      59 ->  46
    ('alg2', 'repu', 0, None)      54 ->  41
    ('alg2', 'repu', 1, 1e-2)      36 ->  34
    ('alg2', 'repu', 1, None)      31 ->  29
    ('alg2', 'repu', 2, 1e-2)      13 ->   9
    ('alg2', 'repu', 2, None)      11 ->   7

and old -> new f_final, where * is both None and 1e-2:

    ('alg2', 'infeas', 4, *)  2.602146550803488e-11 -> 2.6021465508034735e-11

The four 'repu' seed-0 f_final were re-recorded once, when the repu
gradient and HVP became single gemv products (w a / m and (u * (a v)) a / m)
in place of row sums over an m x n temporary.  The products round
differently; statuses, counters and trace lengths did not change, and no
other entry moved.  Old -> new f_final, where * is both None and 1e-2:

    ('alg1', 'repu', 0, *)  3.341161665179258e-05  -> 3.3411616651390225e-05
    ('alg2', 'repu', 0, *)  0.00026831745298591295 -> 0.0002683174529859151

Each case is (solver, problem, seed, eps_H).
"""
import numpy as np
import pytest

import ncgopt as ng
from ncgopt.newton_cg import MEO
import support

EPS_G = 1e-4


def quartic_with_saddle(seed):
    """f = 1/4 sum x^4 + 1/2 x'Ax with one negative eigenvalue of A.

    x0 = 0 is a strict saddle with zero gradient, so the first step of either
    driver comes from the eigenvalue oracle.
    """
    quad = ng.gen_quadratic(6, [-1.0, 0.5, 1.0, 2.0, 3.0, 4.0], seed)
    return ng.ProblemOracle(
        6,
        lambda x: 0.25 * float(np.sum(x**4)) + quad.eval_f(x),
        lambda x: x**3 + quad.eval_grad(x),
        lambda x, v: 3.0 * x * x * v + quad.eval_hvp(x, v),
        "quartic-saddle",
    )


def problem(name, seed):
    if name == "infeas":
        return ng.gen_infeasibility(30, 4, 2.25, seed), np.zeros(30)
    if name == "repu":
        return ng.gen_repu(30, 6, 2.25, seed), np.full(30, 1.0 / 30.0)
    return quartic_with_saddle(seed), np.zeros(6)


def solve(solver, name, seed, eps_H):
    return support.solve(solver, *problem(name, seed), eps_g=EPS_G, eps_H=eps_H, seed=seed)


def observed(res):
    c = res.counters
    counts = (c.f_evals, c.grad_evals, c.hvp_evals, c.meo_calls, c.subproblems)
    return res.status, counts, len(res.trace), repr(res.f_final)


# (solver, problem, seed, eps_H) -> (status, (f, grad, hvp, meo,
# subproblems), len(trace), repr(f_final))
EXPECTED = {
    ('alg1', 'infeas', 0, None): ('FOSP', (7, 7, 51, 0, 6), 6, '9.07064448408353e-11'),
    ('alg1', 'infeas', 0, 1e-2): ('SOSP_certified', (7, 7, 81, 1, 6), 6, '9.07064448408353e-11'),
    ('alg1', 'infeas', 3, None): ('FOSP', (7, 7, 45, 0, 6), 6, '7.557045433473298e-11'),
    ('alg1', 'infeas', 3, 1e-2): ('SOSP_certified', (7, 7, 75, 1, 6), 6, '7.557045433473298e-11'),
    ('alg1', 'infeas', 4, None): ('FOSP', (8, 8, 67, 0, 7), 7, '2.0524421685238607e-11'),
    ('alg1', 'infeas', 4, 1e-2): ('SOSP_certified', (8, 8, 97, 1, 7), 7, '2.0524421685238607e-11'),
    ('alg1', 'repu', 0, None): ('FOSP', (54, 16, 58, 0, 15), 15, '3.3411616651390225e-05'),
    ('alg1', 'repu', 0, 1e-2): ('SOSP_certified', (54, 16, 64, 1, 15), 15, '3.3411616651390225e-05'),
    ('alg1', 'repu', 1, None): ('FOSP', (22, 9, 25, 0, 8), 8, '0.0852252454703133'),
    ('alg1', 'repu', 1, 1e-2): ('SOSP_certified', (22, 9, 29, 1, 8), 8, '0.0852252454703133'),
    ('alg1', 'repu', 2, None): ('FOSP', (13, 5, 7, 0, 4), 4, '0.35939061100891223'),
    ('alg1', 'repu', 2, 1e-2): ('SOSP_certified', (13, 5, 9, 1, 4), 4, '0.35939061100891223'),
    ('alg1', 'quartic', 0, 1e-2): ('SOSP_certified', (13, 8, 38, 2, 6), 7, '-0.8468130835333927'),
    ('alg1', 'quartic', 1, 1e-2): ('SOSP_certified', (12, 8, 39, 2, 6), 7, '-0.711657121571335'),
    ('alg2', 'infeas', 0, None): ('FOSP', (15, 15, 47, 0, 14), 6, '1.0147386072280672e-10'),
    ('alg2', 'infeas', 0, 1e-2): ('SOSP_certified', (15, 15, 77, 1, 14), 6, '1.0147386072280672e-10'),
    ('alg2', 'infeas', 3, None): ('FOSP', (16, 16, 41, 0, 15), 6, '9.170211794478188e-11'),
    ('alg2', 'infeas', 3, 1e-2): ('SOSP_certified', (16, 16, 71, 1, 15), 6, '9.170211794478188e-11'),
    ('alg2', 'infeas', 4, None): ('FOSP', (20, 20, 58, 0, 19), 7, '2.6021465508034735e-11'),
    ('alg2', 'infeas', 4, 1e-2): ('SOSP_certified', (20, 20, 88, 1, 19), 7, '2.6021465508034735e-11'),
    ('alg2', 'repu', 0, None): ('FOSP', (109, 14, 41, 0, 22), 13, '0.0002683174529859151'),
    ('alg2', 'repu', 0, 1e-2): ('SOSP_certified', (109, 14, 46, 1, 22), 13, '0.0002683174529859151'),
    ('alg2', 'repu', 1, None): ('FOSP', (34, 9, 29, 0, 10), 8, '0.0812941938846961'),
    ('alg2', 'repu', 1, 1e-2): ('SOSP_certified', (34, 9, 34, 1, 10), 8, '0.0812941938846961'),
    ('alg2', 'repu', 2, None): ('FOSP', (39, 5, 7, 0, 8), 4, '0.3593906110089125'),
    ('alg2', 'repu', 2, 1e-2): ('SOSP_certified', (39, 5, 9, 1, 8), 4, '0.3593906110089125'),
    ('alg2', 'quartic', 0, 1e-2): ('SOSP_certified', (12, 9, 47, 2, 7), 8, '-0.8468130835048804'),
    ('alg2', 'quartic', 1, 1e-2): ('SOSP_certified', (11, 8, 39, 2, 6), 7, '-0.7116571216427692'),
    ('acrn', 'infeas', 0, None): ('FOSP', (26, 8, 9669, 0, 25), 7, '4.45314399038366e-12'),
    ('acrn', 'infeas', 3, None): ('FOSP', (24, 8, 9714, 0, 23), 7, '1.2386747604070052e-11'),
    ('acrn', 'infeas', 4, None): ('FOSP', (24, 8, 8240, 0, 23), 7, '5.663514412565389e-11'),
    ('acrn', 'repu', 0, None): ('FOSP', (45, 22, 19487, 0, 44), 21, '3.3411660280244464e-05'),
    ('acrn', 'repu', 1, None): ('FOSP', (22, 10, 7957, 0, 21), 9, '0.08129419388012873'),
    ('acrn', 'repu', 2, None): ('FOSP', (18, 5, 5911, 0, 17), 4, '0.35939061100903996'),
}


@pytest.mark.parametrize("case", sorted(EXPECTED, key=repr), ids=repr)
def test_pinned_outputs(case):
    assert observed(solve(*case)) == EXPECTED[case]


def test_alg2_takes_meo_step_from_saddle():
    res = solve("alg2", "quartic", 0, 1e-2)
    assert res.trace[0].step_type == MEO
    assert res.trace[0].accepted_by is None
    assert res.trials[0] == []
    assert res.gamma_history[0] == 10.0  # gamma_init, carried through the MEO step
    assert res.status == ng.SOSP_CERTIFIED


@pytest.mark.parametrize("solver", ["alg1", "alg2"])
def test_meo_step_does_not_depend_on_eigenvector_sign(solver, monkeypatch):
    # The first step from the zero-gradient saddle follows the Ritz vector,
    # whose sign LAPACK leaves free; a sign convention keeps the solve fixed.
    expected = solve(solver, "quartic", 0, 1e-2)
    eigh = np.linalg.eigh

    def eigh_flipped(a):
        w, z = eigh(a)
        return w, -z

    monkeypatch.setattr(np.linalg, "eigh", eigh_flipped)
    res = solve(solver, "quartic", 0, 1e-2)
    assert res.trace[0].step_type == MEO
    np.testing.assert_array_equal(res.x_final, expected.x_final)
    assert observed(res) == observed(expected)
