"""Orderings of the radii that follow from the equations alone.

Each holds without an oracle, so a sign error in one term of an equation
(its lead, head, area or level) breaks one of them even though the solver
still brackets a root:

- the Bohr root does not decrease in m or in p: the lead r^{pm} falls;
- the Rogosinski root does not decrease in N: the sum starts later;
- adding an area coefficient does not raise either root: F grows;
- Rogosinski (N = 2) is at most Bohr at equal (beta, m, p, F): f(x) >= x
  for x > 0, so its lead is the larger;
- a `sweep` row is the root that `radius` or `rogosinski` prints for the
  same flags, bit for bit.

Roots are midpoints of brackets at most tol wide, so each ordering allows
2 * tol.
"""

import contextlib
import csv
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from abeta import cli
from abeta.radii import DEFAULT_TOL, AreaPolynomial, RadiusProblem, Variant, solve_radius

MARGIN = 2 * DEFAULT_TOL

betas = st.floats(min_value=0.0, max_value=0.95)
ms = st.integers(min_value=1, max_value=4)
ps = st.floats(min_value=0.25, max_value=4.0)
Ns = st.sampled_from([1, 2, 3, 5, 10, 50])
lambdas = st.floats(min_value=0.05, max_value=1.0)
polys = st.lists(lambdas, min_size=0, max_size=3)

EXAMPLES = settings(max_examples=100, deadline=None)


def root(variant, beta, m=1, p=1.0, N=1, F=()):
    problem = RadiusProblem(variant, beta, m=m, p=p, N=N, F=AreaPolynomial(tuple(F)))
    return solve_radius(problem).root


@EXAMPLES
@given(beta=betas, m=ms, m2=ms, p=ps, p2=ps, F=polys)
def test_bohr_root_does_not_decrease_in_m_or_p(beta, m, m2, p, p2, F):
    (m, m2), (p, p2) = sorted((m, m2)), sorted((p, p2))
    r = root(Variant.BOHR_SCHWARZ, beta, m, p, F=F)
    assert r <= root(Variant.BOHR_SCHWARZ, beta, m2, p, F=F) + MARGIN
    assert r <= root(Variant.BOHR_SCHWARZ, beta, m, p2, F=F) + MARGIN


@EXAMPLES
@given(beta=betas, m=ms, p=ps, N=Ns, N2=Ns, F=polys)
def test_rogosinski_root_does_not_decrease_in_N(beta, m, p, N, N2, F):
    N, N2 = sorted((N, N2))
    r = root(Variant.BOHR_ROGOSINSKI, beta, m, p, N, F)
    assert r <= root(Variant.BOHR_ROGOSINSKI, beta, m, p, N2, F) + MARGIN


@EXAMPLES
@given(
    variant=st.sampled_from(list(Variant)),
    beta=betas, m=ms, p=ps, N=Ns,
    F=st.lists(lambdas, min_size=0, max_size=2),
    extra=lambdas,
)
def test_an_added_area_coefficient_does_not_raise_the_root(variant, beta, m, p, N, F, extra):
    r = root(variant, beta, m, p, N, F)
    assert root(variant, beta, m, p, N, F + [extra]) <= r + MARGIN


@EXAMPLES
@given(beta=betas, m=ms, p=ps, F=polys)
def test_rogosinski_from_two_is_at_most_bohr(beta, m, p, F):
    rogosinski = root(Variant.BOHR_ROGOSINSKI, beta, m, p, 2, F)
    assert rogosinski <= root(Variant.BOHR_SCHWARZ, beta, m, p, F=F) + MARGIN


def _stdout(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


@settings(max_examples=40, deadline=None)
@given(beta=betas, m=ms, p=ps, N=Ns)
def test_sweep_rows_are_the_single_commands_roots(beta, m, p, N):
    flags = ["--beta", repr(beta), "--m", str(m), "--p", repr(p)]
    rows = list(csv.DictReader(io.StringIO(_stdout(
        "sweep", "--beta-grid", repr(beta), "--m", str(m), "--p", repr(p), "--N", str(N),
        "--variant", "both",
    ))))
    assert [row["variant"] for row in rows] == ["bohr", "rogosinski"]
    single = [json.loads(_stdout("radius", *flags))]
    single.append(json.loads(_stdout("rogosinski", *flags, "--N", str(N))))
    for row, doc in zip(rows, single):
        assert float(row["root"]) == doc["root"]
        assert float(row["residual"]) == doc["residual"]
        assert int(row["iterations"]) == doc["iterations"]
