"""Reference checks that only tests use.

``check_natural`` is the general F => G naturality test, against which the
library's ``natural_problems`` (F => F (x) M) is compared.
``comodule_category_problems`` checks a comodule category from
``reconstruct.comodule_category_of`` in full: every hom basis element
intertwines, and composites of basis elements stay inside the listed spans.
It runs one exact solve per pair of basis elements, so it is meant for small
seed families.
"""

from __future__ import annotations

from coendforge.exactlinalg import LinearMap, NoSolution, Space, solve_through_injection
from coendforge.fincat import DiagramFunctor, Transformation, natural_problems
from coendforge.reconstruct import ComoduleCategory, diagram_of_comodule_category


def check_natural(t: Transformation, F: DiagramFunctor, G: DiagramFunctor) -> bool:
    """True iff G(f) o t_X = t_Y o F(f) holds exactly for every f: X -> Y."""
    for obj in F.source.objects:
        comp = t.components.get(obj)
        if comp is None:
            return False
        if comp.dom.dim != F.space(obj).dim or comp.cod.dim != G.space(obj).dim:
            return False
    for m in F.source.non_identity():
        if G.map(m.name) @ t[m.dom] != t[m.cod] @ F.map(m.name):
            return False
    return True


def _flat(g: LinearMap) -> dict:
    """g as a sparse vector in row-major order."""
    return {i * g.dom.dim + j: a for j, col in enumerate(g.cols) for i, a in col.items()}


def _in_span(g: LinearMap, basis: list[LinearMap]) -> bool:
    f = g.field
    if not basis:
        return g.is_zero_map()
    flat = Space.std(g.dom.dim * g.cod.dim, prefix="v")
    a = LinearMap.from_sparse(f, Space.std(len(basis), prefix="c"), flat,
                              [_flat(b) for b in basis])
    b = LinearMap.from_sparse(f, Space.std(1, prefix="t"), flat, [_flat(g)])
    try:
        solve_through_injection(b, a)
        return True
    except NoSolution:
        return False


def comodule_category_problems(cat: ComoduleCategory) -> list[str]:
    """Every listed morphism intertwines exactly (the coactions are natural
    on the forgetful diagram); composites of basis morphisms stay inside the
    listed spans."""
    coactions = Transformation({name: com.rho for name, com in cat.objects.items()})
    problems = [
        f"hom basis: {p}"
        for p in natural_problems(
            diagram_of_comodule_category(cat), coactions, cat.base.carrier
        )
    ]
    for (a, b), basis_ab in cat.homs.items():
        for (b2, c), basis_bc in cat.homs.items():
            if b2 != b:
                continue
            for g in basis_ab:
                for h in basis_bc:
                    if not _in_span(h @ g, cat.homs[(a, c)]):
                        problems.append(
                            f"composite hom({a},{b}) then hom({b},{c}) leaves the span"
                        )
    return problems
