"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every comparison here is exact; there are no tolerances
anywhere.
"""

import time
from fractions import Fraction

import pytest

from reebforge import (
    PLFunction,
    SimplicialComplex,
    SimplicialMap,
    barycentric_subdivision,
    betti,
    bound_closed,
    bound_general,
    bound_reeb,
    bound_sign_components,
    b1_inequality_check,
    descent_check,
    euler_characteristic,
    fiber_components_at,
    fiber_power_betti,
    fiber_power_nerve,
    pl_as_simplicial_map,
    reeb_graph,
    reeb_space,
    staircase_product,
    univariate_sign_components,
)
from reebforge.fixtures import (
    boundary_delta3,
    circle,
    disk_collapse,
    full_simplex,
    grid_torus,
    path_complex,
    product_power,
    random_function,
    random_map,
    torus_height,
)

from .oracles import convolve, fiber_power_triangulation_betti, minimal_torus

X = [0, 1]


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_disk_example():
    start = time.monotonic()
    f = disk_collapse(2)
    domain_betti = betti(f.domain)
    reeb_betti = betti(reeb_space(f).realization)
    elapsed = time.monotonic() - start
    assert domain_betti == (1,)
    assert reeb_betti == (1, 0, 1)
    assert elapsed < 5.0
    _report(1, f"disk: b(domain)={domain_betti.as_list()}, b(Reeb)={reeb_betti.as_list()} in {elapsed:.2f}s")


def test_criterion_2_product_blowup():
    start = time.monotonic()
    f = disk_collapse(2)
    squared = product_power(f, 2)
    product_betti = betti(reeb_space(squared).realization)
    elapsed = time.monotonic() - start
    assert product_betti == (1, 0, 2, 0, 1)
    assert product_betti.total == 4  # 2**k for k = 2
    assert elapsed < 600.0

    # Convolution consistency with the factor our product was built from.
    factor = betti(reeb_space(f).realization)
    assert convolve(factor, factor) == product_betti

    # Independent Kunneth-convolution check on a small monotone pair.
    t0 = time.monotonic()
    g = PLFunction(circle(4), [Fraction(0), Fraction(1), Fraction(2), Fraction(1)])
    h = pl_as_simplicial_map(g).map
    small_factor = betti(reeb_space(h).realization)
    small_product = staircase_product(h.domain, h.domain, h, h).product_map
    small_betti = betti(reeb_space(small_product).realization)
    kunneth_elapsed = time.monotonic() - t0
    assert small_betti == convolve(small_factor, small_factor)
    assert kunneth_elapsed < 10.0
    _report(
        2,
        f"product: b(Reeb)={product_betti.as_list()} in {elapsed:.2f}s; "
        f"Kunneth check in {kunneth_elapsed:.2f}s",
    )


def test_criterion_3_b1_inequality():
    start = time.monotonic()
    _, sliced = torus_height()
    report = b1_inequality_check(sliced)
    assert report["ok"]
    assert report["components"][0]["b1_reeb"] == 1
    assert report["components"][0]["b1_domain"] == 2

    violations = []
    for seed in range(100):
        f = random_map(seed)
        rep = b1_inequality_check(f)
        assert len(rep["components"]) == 1  # generator guarantees connected
        if not rep["ok"]:
            violations.append(seed)
    assert violations == []
    _report(3, f"b1(Reeb) <= b1(X) on torus and 100 seeds in {time.monotonic()-start:.2f}s")


def test_criterion_4_descent_inequality():
    start = time.monotonic()

    disk = disk_collapse(2)
    for target in ("image", "reeb"):
        assert descent_check(disk, target=target, p_max=2)["ok"]

    for k in (circle(3), boundary_delta3(), minimal_torus()):
        ident = SimplicialMap(k, k, list(range(k.num_vertices)))
        assert descent_check(ident, target="image", p_max=2)["ok"]

    point = SimplicialComplex(1, [(0,)])
    const = SimplicialMap(circle(3), point, [0, 0, 0])
    report = descent_check(const, target="image", p_max=2)
    assert report["ok"]
    # Oracle value: the square of the circle under a constant map is a torus.
    assert report["power_betti"][1] == [1, 2, 1]

    for seed in range(50):
        rep = descent_check(random_map(seed), target="image", p_max=2)
        assert rep["ok"], seed

    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _report(4, f"descent holds (disk/identity/constant/50 seeds, p<=2) in {elapsed:.2f}s")


def test_criterion_5_bound_evaluators():
    assert bound_closed(1, 2, 1) == 28
    assert bound_general(1, 2, 1) == 40
    assert bound_sign_components(1, 1, 1) == 4

    actual = {
        "X": univariate_sign_components([X]),
        "X,X-1": univariate_sign_components([X, [-1, 1]]),
        "X^2-1": univariate_sign_components([[-1, 0, 1]]),
    }
    assert actual == {"X": 3, "X,X-1": 5, "X^2-1": 5}
    assert actual["X"] <= bound_sign_components(1, 1, 1)
    assert actual["X,X-1"] <= bound_sign_components(2, 1, 1)
    assert actual["X^2-1"] <= bound_sign_components(1, 2, 1)
    _report(5, "closed=28, general=40, sign=4; actual counts 3,5,5 within bounds")


def test_criterion_6_parametric_reeb_bound_reported_not_asserted():
    # The exponent constant is not specified anywhere, so no end-to-end
    # inequality is asserted; the evaluator itself is exact and that is what
    # gets tested, together with a comparison report.
    assert bound_reeb(2, 2, 1, 1, 1) == 16
    assert bound_reeb(2, 3, 2, 1, 2) == 10077696
    assert bound_reeb(1, 1, 7, 9, 3) == 1

    computed = betti(reeb_space(disk_collapse(2)).realization).total
    comparison = {
        "computed_total": computed,
        "bounds": {c: str(bound_reeb(2, 2, 3, 3, c)) for c in (1, 2)},
        "holds": {c: computed <= bound_reeb(2, 2, 3, 3, c) for c in (1, 2)},
    }
    assert set(comparison["holds"]) == {1, 2}  # report exists; values not asserted
    _report(6, f"parametric bound exact; comparison report {comparison['holds']}")


def test_criterion_7_oracle_equivalence():
    start = time.monotonic()

    # Sweep route vs quotient route on 100 seeded functions.
    for seed in range(100):
        g = random_function(seed)
        sweep = reeb_graph(g).betti()
        quotient = betti(reeb_space(pl_as_simplicial_map(g).map).realization)
        assert sweep == quotient, seed

    # Strata over codomain vertices vs full-subcomplex components.
    fixture_maps = [
        disk_collapse(1),
        disk_collapse(2),
        product_power(disk_collapse(1), 2),
        torus_height()[1],
        random_map(11),
        random_map(23),
    ]
    for f in fixture_maps:
        for w in range(f.codomain.num_vertices):
            preimage = [v for v in range(f.domain.num_vertices) if f.vertex_images[v] == w]
            if (w,) not in f.codomain.simplex_set:
                continue
            sub, _ = f.domain.restrict_to_vertices(preimage)
            from reebforge import connected_components

            expected = (
                len(connected_components(sub, sub.simplices)) if sub.simplex_set else 0
            )
            assert len(fiber_components_at(f, (w,))) == expected

    # Nerve Betti vs an explicit geometric triangulation of the fiber power.
    edge = path_complex(2)
    point = SimplicialComplex(1, [(0,)])
    small_maps = [
        SimplicialMap(edge, edge, [0, 1]),
        SimplicialMap(path_complex(3), edge, [0, 1, 0]),
        SimplicialMap(SimplicialComplex(2, [(0,), (1,)]), point, [0, 0]),
        SimplicialMap(circle(3), point, [0, 0, 0]),
        disk_collapse(1),
        SimplicialMap(full_simplex(2), edge, [0, 1, 1]),
    ]
    for f in small_maps:
        assert len(f.domain.maximal_simplices) <= 6
        for p in (0, 1):
            oracle = fiber_power_triangulation_betti(f, p)
            assert betti(fiber_power_nerve(f, p)).as_list() == oracle
            assert fiber_power_betti(f, p, engine="cells").as_list() == oracle

    _report(7, f"all oracle equivalences hold in {time.monotonic()-start:.2f}s")


def test_criterion_8_homology_engine_consistency():
    suite = [
        path_complex(5),
        circle(3),
        circle(6),
        full_simplex(3),
        boundary_delta3(),
        minimal_torus(),
        grid_torus(3, 3),
        disk_collapse(2).domain,
        reeb_space(disk_collapse(2)).realization,
        random_map(4).domain,
        random_map(17).domain,
    ]
    for k in suite:
        bv = betti(k)
        assert bv.euler == euler_characteristic(k)
        sd, _ = barycentric_subdivision(k)
        assert betti(sd) == bv
    _report(8, f"chi-consistency and sd-invariance on {len(suite)} complexes, exact")
