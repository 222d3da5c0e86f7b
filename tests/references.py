"""Reference checks that only tests use.

``format_matrix`` is the wire format of a map, read entry by entry off the
dense rows: the reference for the CLI writer ``cli._json_text``, which
prints a map straight from its sparse columns.

``check_natural`` is the general F => G naturality test, against which the
library's ``natural_problems`` (F => F (x) M) is compared.
``comodule_category_problems`` checks a comodule category from
``reconstruct.comodule_category_of`` in full: every hom basis element
intertwines, and composites of basis elements stay inside the listed spans.
It runs one exact solve per pair of basis elements, so it is meant for small
seed families.

Three checks decide associativity by Light's test on a generating set; their
references walk every triple.  ``reference_monoidal_tables`` is the monoidal
part of ``fincat.validate_category`` with the object tensor's associativity
tried on all n^3 triples.  ``reference_check_monoidal`` is
``fincat.check_monoidal`` with every associativity square built as a map,
one per triple.  ``transposed_algebra_problems`` is
``cohom.Bialgebra.algebra_problems`` with associativity read off the
transposes in full, (C*, m^T) coassociative, n^3 coefficients, and with
delta o m = (m (x) m)(id (x) tau (x) id)(delta (x) delta) and
eps o m = eps (x) eps compared on all n^2 columns e_a (x) e_b.  The library
compares those two laws only on the n |S| columns e_a (x) e_s with s a
generator, once m is associative.  That is exact: the b with
delta(ab) = delta(a) delta(b) for every a form a subspace that is closed
under products when m is associative (the product of C (x) C is then
associative too), and every basis vector is a nonzero multiple of a
left-bracketed product of generators; the same holds for eps.

Two coalgebra routines work on the generators of the dual algebra C*;
their references use every basis vector.  ``reference_coalgebra_problems``
is ``cohom.Coalgebra.check`` with coassociativity compared on all n^3
coordinates of each side.  ``reference_comodule_hom_basis`` is
``reconstruct.comodule_hom_basis`` with an equation at every coordinate of
C, by the column route: the equations are the rows of a ``LinearMap``
built column by column and solved by ``kernel``.  Given the generators of
C* as its coordinates, it solves the library's own system by that second
route; the library writes each equation straight as a sparse row.

``reference_bounded_norms`` computes the five coalgebra-map norms of a
bounded coend as operator norms of composites through t, the inverse of the
orthogonal class basis: t o pi, t o i_x, (t (x) t) o Delta_Q o t^-1,
eps_Q o t^-1 and (id (x) t) o delta_x.  ``padic_banach.bounded_coend``
composes none of them; it decides them from the quotient norm.

``reference_relation_columns`` builds a morphism's relation block as maps,
cohom(id, F(f)) into the block at its domain minus cohom(F(f), id) into the
block at its codomain, each a ``tensor`` of a ``dual`` and an ``identity``;
``fincat.relation_columns`` reads the same columns straight off F(f).
``reference_cowedge_problems`` composes both routes out of each mixed block,
and ``reference_natural_problems`` tests each morphism with
``cohom.intertwines``; the library runs both laws as one relation test,
W o R_f = 0, on the diagram's relation blocks.

``reference_composition_problems`` and ``reference_functor_law_problems``
walk every pair and triple of a composition table, identities included;
``fincat.validate_category`` and ``fincat.validate_functor`` skip those
with an identity in them, which hold because ``compose`` returns the other
factor.

``reference_control_relation_columns`` builds a control's relations by the
adjunction, as a second kind of relation: per object X, cohom(id, xi_X) into
the block at C.X minus the coaction of (id_C (x) coev) o xi_X into the block
at X.  ``coend.control_legs`` reads each xi_X as a diagram morphism
C.X -> X instead, whose morphism relation is the same column for column.

``reference_equivalence_check`` is ``reconstruct.equivalence_check``
computed in full once h is an isomorphism: it inverts h, pulls every lawful
probe back to the coend, lifts it through the equalizer of
(rho (x) id, id (x) Delta), and solves every hom space again on both sides,
over C and over the coend.  The library decides the lifts and the coend
side from the reconstruction and reuses the seed category's hom bases.

``reference_rref`` is the sparse elimination with its bookkeeping written
out: every row copied up front, a ``holders`` set per column built by
``setdefault``, the rows at or past the pivot count listed per column and
the pivot picked by ``min`` on the position.  ``exactlinalg._rref`` finds
the pivot in one scan and copies a row only when it first writes it; it
must return the same rows, pivots and key order.
"""

from __future__ import annotations

from coendforge.coend import comodule_on
from coendforge.cohom import (
    AxiomError,
    Bialgebra,
    Coalgebra,
    Comodule,
    coact,
    cohom,
    cohom_on_maps,
    intertwines,
)
from coendforge.exactlinalg import (
    LinearMap,
    NoSolution,
    Space,
    _add_into,
    compose_kron,
    dual,
    identity,
    invert_map,
    kernel,
    kron_compose,
    solve_through_injection,
    swap_map,
    tensor,
    tensor_space,
)
from coendforge.fincat import (
    Diagram,
    DiagramFunctor,
    FinCategory,
    Transformation,
    ValidationReport,
    _entry_problems,
    _shape_problems,
    natural_problems,
)
from coendforge.padic_banach import BoundedCoendResult, NormValue, operator_norm
from coendforge.reconstruct import (
    ComoduleCategory,
    EquivalenceVerdict,
    comodule_hom_basis,
    diagram_of_comodule_category,
    reconstruct_coalgebra,
)


def reference_rref(f, rows):
    """Reduced row echelon form of sparse rows (dicts column -> nonzero
    value).  Returns (the nonzero reduced rows, their pivot columns), in
    pivot order.  Gauss-Jordan by increasing column; each pivot is the first
    row, in the current row order, that is nonzero in its column.  Only
    nonzero entries are touched: `holders` indexes the rows by column, an
    eliminated row `pop`s its pivot entry, and empty rows keep their places
    in the row order but are never copied.  A pivot row is scaled only when
    scaling changes it: a row with one entry becomes {c: one}, and a row
    whose pivot is already one is kept as it is."""
    order = list(range(len(rows)))  # row at each position
    pos = list(range(len(rows)))  # position of each row
    rows = {i: dict(r) for i, r in enumerate(rows) if r}
    holders: dict = {}
    for i, row in rows.items():
        for c in row:
            holders.setdefault(c, set()).add(i)
    sub, mul, is_zero, zero, one = f.sub, f.mul, f.is_zero, f.zero(), f.one()
    pivots = []
    for c in sorted(holders):
        r = len(pivots)
        below = [i for i in holders[c] if pos[i] >= r]
        if not below:
            continue
        sel = min(below, key=pos.__getitem__)
        moved = order[r]
        order[r], order[pos[sel]] = sel, moved
        pos[moved], pos[sel] = pos[sel], r
        prow = rows[sel]
        if len(prow) == 1:
            prow = rows[sel] = {c: one}
        elif prow[c] != one:
            inv = f.invert(prow[c])
            for k in prow:
                prow[k] = mul(inv, prow[k])
        rest = [(k, b) for k, b in prow.items() if k != c]
        for i in holders[c]:
            if i == sel:
                continue
            row = rows[i]
            coef = row.pop(c)
            for k, b in rest:
                v = sub(row.get(k, zero), mul(coef, b))
                if is_zero(v):
                    if k in row:
                        del row[k]
                        holders[k].discard(i)
                else:
                    if k not in row:
                        holders[k].add(i)
                    row[k] = v
        pivots.append(c)
    return [rows[i] for i in order[:len(pivots)]], pivots


def format_matrix(m: LinearMap) -> list[list[str]]:
    """m's rows as exact-scalar strings, each entry formatted by the field."""
    return [[m.field.fmt(a) for a in row] for row in m.entries]


def reference_control_relation_columns(d: Diagram, offsets, ctrl) -> list[dict]:
    """Sparse columns in N of p - q for one valid control, one per basis
    vector of each cohom(F(C.X), C (x) F(X)): p = cohom(id, xi_X) into the
    block at C.X, q = coact((id_C (x) coev) o xi_X) into the block at X."""
    f = d.field
    cols = []
    for x in d.objects:
        cx, xi, fx = ctrl.action[x], ctrl.xi[x], d.spaces[x]
        block = cohom(fx, fx, f)
        p = cohom_on_maps(identity(d.spaces[cx], f), xi)
        chain = kron_compose(identity(ctrl.space, f), block.coev, xi)
        q = coact(chain, tensor_space(ctrl.space, fx), block.carrier)
        cols.extend(_difference_columns(f, p, offsets[cx], q, offsets[x]))
    return cols


def _difference_columns(f, p_block: LinearMap, p_off: int, q_block: LinearMap, q_off: int):
    """Sparse columns in N of p - q, one per domain basis vector, where p and
    q land in the blocks starting at p_off and q_off."""
    cols = []
    for pcol, qcol in zip(p_block.cols, q_block.cols):
        col = {p_off + i: v for i, v in pcol.items()}
        for i, v in qcol.items():
            _add_into(col, q_off + i, f.neg(v), f)
        cols.append(col)
    return cols


def reference_relation_columns(d: Diagram, offsets, m) -> list[dict]:
    """Columns in N of p - q for one morphism, one per basis vector of the
    mixed block cohom(F(dom), F(cod)), built as maps: p = cohom(id, F(f))
    into the dom block, q = cohom(F(f), id) into the cod block."""
    f = d.field
    p_block = cohom_on_maps(identity(d.spaces[m.dom], f), m.map)
    q_block = cohom_on_maps(m.map, identity(d.spaces[m.cod], f))
    return _difference_columns(f, p_block, offsets[m.dom], q_block, offsets[m.cod])


def reference_cowedge_problems(d: Diagram, w: dict, m_space: Space) -> list[str]:
    """``fincat.cowedge_problems`` with both routes out of each mixed block
    built and composed: w_X o cohom(id, F(f)) = w_Y o cohom(F(f), id)."""
    shapes = {x: (m_space.dim, d.spaces[x].dim ** 2) for x in d.objects}
    problems = _shape_problems(w, shapes)
    if problems:
        return problems
    for m in d.morphisms:
        into_dom = cohom_on_maps(identity(d.spaces[m.dom], d.field), m.map)
        into_cod = cohom_on_maps(m.map, identity(d.spaces[m.cod], d.field))
        if w[m.dom] @ into_dom != w[m.cod] @ into_cod:
            problems.append(f"cowedge relation fails at morphism {m.name}")
    return problems


def reference_natural_problems(d: Diagram, t: Transformation, m_space: Space) -> list[str]:
    """``fincat.natural_problems`` with each morphism tested by
    ``cohom.intertwines``: (F(f) (x) id_M) o t_X = t_Y o F(f)."""
    shapes = {x: (d.spaces[x].dim * m_space.dim, d.spaces[x].dim) for x in d.objects}
    problems = _shape_problems(t.components, shapes)
    if problems:
        return problems
    return [f"naturality fails at morphism {m.name}" for m in d.morphisms
            if not intertwines(m.map, t[m.dom], t[m.cod], m_space)]


def reference_composition_problems(cat: FinCategory) -> list[str]:
    """The composition-table part of ``fincat.validate_category`` with every
    pair and every triple walked, identities included."""
    problems = []
    morphisms = list(cat.morphisms.values())
    pairs = [(g, f) for g in morphisms for f in morphisms if f.cod == g.dom]
    for g, f in pairs:
        try:
            h = cat.compose(g.name, f.name)
        except KeyError:
            problems.append(f"missing composite ({g.name}, {f.name})")
            continue
        if h not in cat.morphisms:
            problems.append(f"composite ({g.name}, {f.name}) -> unknown morphism {h!r}")
        elif (cat.morphisms[h].dom, cat.morphisms[h].cod) != (f.dom, g.cod):
            problems.append(f"composite ({g.name}, {f.name}) = {h} has wrong endpoints")
    if problems:
        return problems
    for h, g in pairs:
        for f in morphisms:
            if f.cod != g.dom:
                continue
            left = cat.compose(cat.compose(h.name, g.name), f.name)
            right = cat.compose(h.name, cat.compose(g.name, f.name))
            if left != right:
                problems.append(f"associativity fails on triple ({h.name}, {g.name}, {f.name}):"
                                f" {left} != {right}")
    return problems


def reference_functor_law_problems(F: DiagramFunctor) -> list[str]:
    """F(g o f) = F(g) F(f) on every composable pair but (id, id), identities
    included; ``fincat.validate_functor`` skips every pair with an identity."""
    cat = F.source
    return [f"F({g.name} o {f.name}) != F({g.name}) F({f.name})"
            for g in cat.morphisms.values() for f in cat.morphisms.values()
            if f.cod == g.dom and not (cat.is_identity(g.name) and cat.is_identity(f.name))
            and F.map(g.name) @ F.map(f.name) != F.map(cat.compose(g.name, f.name))]


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


def reference_monoidal_tables(cat: FinCategory) -> list[str]:
    """The monoidal table problems of ``validate_category``, with the object
    tensor's associativity tried at every triple."""
    mon = cat.monoidal
    problems = _entry_problems(cat.objects, mon)
    if problems:
        return problems
    for a in cat.objects:
        if mon.tensor_obj[(mon.unit, a)] != a or mon.tensor_obj[(a, mon.unit)] != a:
            problems.append(f"unit law fails at object {a}")
        for b in cat.objects:
            for c in cat.objects:
                left = mon.tensor_obj[(mon.tensor_obj[(a, b)], c)]
                right = mon.tensor_obj[(a, mon.tensor_obj[(b, c)])]
                if left != right:
                    problems.append(f"tensor associativity fails at ({a}, {b}, {c})")
    for (f, g), h in mon.tensor_mor.items():
        unknown = [n for n in (f, g, h) if n not in cat.morphisms]
        if unknown:
            problems.append(f"morphism tensor ({f}, {g}) names unknown morphism {unknown[0]!r}")
            continue
        mf, mg, mh = cat.morphisms[f], cat.morphisms[g], cat.morphisms[h]
        if mh.dom != mon.tensor_obj[(mf.dom, mg.dom)] or mh.cod != mon.tensor_obj[
            (mf.cod, mg.cod)
        ]:
            problems.append(f"morphism tensor ({f}, {g}) has wrong endpoints")
    return problems


def reference_check_monoidal(F: DiagramFunctor) -> ValidationReport:
    """Validate the structure isomorphisms of a monoidal functor.

    Checks invertibility of every xi, the associativity square
    xi_{X(x)Y,Z} o (xi_{X,Y} (x) id) = xi_{X,Y(x)Z} o (id (x) xi_{Y,Z}),
    the unit squares against xi_unit, and naturality of xi on every pair
    in the morphism tensor table.  The source category is trusted: callers
    run ``validate_category`` on it first.
    """
    problems = []
    cat = F.source
    if cat.monoidal is None:
        return ValidationReport(False, ["source category carries no monoidal data"])
    if F.monoidal is None:
        return ValidationReport(False, ["functor carries no monoidal data"])
    mon = cat.monoidal
    fld = F.field
    for a in cat.objects:
        for b in cat.objects:
            ab = mon.tensor_obj[(a, b)]
            xi = F.monoidal.xi.get((a, b))
            if xi is None:
                problems.append(f"missing xi at ({a}, {b})")
                continue
            if xi.dom.dim != F.space(a).dim * F.space(b).dim or xi.cod.dim != F.space(ab).dim:
                problems.append(f"xi at ({a}, {b}) has wrong shape")
            elif xi.rank() != xi.cod.dim or xi.dom.dim != xi.cod.dim:
                problems.append(f"xi at ({a}, {b}) is not invertible")
    xi_u = F.monoidal.xi_unit
    if xi_u.dom.dim != 1 or xi_u.cod.dim != F.space(mon.unit).dim or xi_u.rank() != 1:
        problems.append("xi_unit is not an isomorphism K -> F(I)")
    if problems:
        return ValidationReport(False, problems)
    for a in cat.objects:
        for b in cat.objects:
            for c in cat.objects:
                ab = mon.tensor_obj[(a, b)]
                bc = mon.tensor_obj[(b, c)]
                left = compose_kron(F.xi(ab, c), F.xi(a, b), identity(F.space(c), fld))
                right = compose_kron(F.xi(a, bc), identity(F.space(a), fld), F.xi(b, c))
                if left != right:
                    problems.append(f"xi associativity fails at ({a}, {b}, {c})")
    for a in cat.objects:
        # K (x) F(a) and F(a) (x) K are identified with F(a) by flat indexing
        left_unit = compose_kron(F.xi(mon.unit, a), xi_u, identity(F.space(a), fld))
        right_unit = compose_kron(F.xi(a, mon.unit), identity(F.space(a), fld), xi_u)
        if left_unit != identity(F.space(a), fld):
            problems.append(f"left unit square fails at {a}")
        if right_unit != identity(F.space(a), fld):
            problems.append(f"right unit square fails at {a}")
    for (fname, gname), hname in mon.tensor_mor.items():
        mf, mg = cat.morphisms[fname], cat.morphisms[gname]
        lhs = F.map(hname) @ F.xi(mf.dom, mg.dom)
        rhs = compose_kron(F.xi(mf.cod, mg.cod), F.map(fname), F.map(gname))
        if lhs != rhs:
            problems.append(f"xi naturality fails at ({fname}, {gname})")
    return ValidationReport(not problems, problems)


def transposed_algebra_problems(b: Bialgebra) -> list[str]:
    """``Bialgebra.algebra_problems`` with associativity checked in full on
    the transposes, (C, m) is associative iff (C*, m^T) is coassociative,
    and delta and eps compared as algebra maps on all n^2 columns."""
    f, h = b.field, b.carrier
    n = h.dim
    m, u, d, e = b.mult, b.unit, b.delta, b.counit
    if d.dom.dim != n or d.cod.dim != n * n:
        return ["comultiplication has wrong shape"]
    if e.dom.dim != n or e.cod.dim != 1:
        return ["counit has wrong shape"]
    if m.dom.dim != n * n or m.cod.dim != n:
        return ["multiplication has wrong shape"]
    if u.dom.dim != 1 or u.cod.dim != n:
        return ["unit has wrong shape"]
    idc = identity(h, f)
    mt, ut = dual(m), dual(u)
    a1_b1_a2 = kron_compose(idc, swap_map(h, h, f), tensor(d, idc))
    middle = kron_compose(a1_b1_a2, idc, tensor(idc, d))
    problems = []
    if kron_compose(mt, idc, mt) != kron_compose(idc, mt, mt):
        problems.append("multiplication is not associative")
    if kron_compose(ut, idc, mt) != idc or kron_compose(idc, ut, mt) != idc:
        problems.append("unit law fails")
    if d @ m != kron_compose(m, m, middle):
        problems.append("comultiplication is not an algebra morphism")
    if e @ m != tensor(e, e):
        problems.append("counit is not an algebra morphism")
    if d @ u != tensor(u, u):
        problems.append("unit is not grouplike")
    if e @ u != identity(u.dom, f):
        problems.append("counit of unit is not 1")
    return problems


def reference_coalgebra_problems(c: Coalgebra) -> list[str]:
    """``Coalgebra.check`` with (d (x) id) d = (id (x) d) d compared in full."""
    n = c.carrier.dim
    d, e = c.delta, c.counit
    if d.dom.dim != n or d.cod.dim != n * n:
        return ["comultiplication has wrong shape"]
    if e.dom.dim != n or e.cod.dim != 1:
        return ["counit has wrong shape"]
    idc = identity(c.carrier, c.field)
    problems = []
    if kron_compose(d, idc, d) != kron_compose(idc, d, d):
        problems.append("comultiplication is not coassociative")
    if kron_compose(e, idc, d) != idc:
        problems.append("left counit law fails")
    if kron_compose(idc, e, d) != idc:
        problems.append("right counit law fails")
    return problems


def reference_comodule_hom_basis(m: Comodule, n: Comodule, coords=None) -> list[LinearMap]:
    """``comodule_hom_basis`` by the column route: the system is built
    column by column as a ``LinearMap`` through ``from_sparse`` and solved
    by ``kernel``, with the equation ((b, c), a) written at every
    coordinate c of coords, which defaults to every coordinate of the
    coalgebra.  Refuses as the library does: ValueError for comodules over
    different coalgebras, AxiomError for an unlawful coaction."""
    f = m.over.field
    dm, dn = m.space.dim, n.space.dim
    dc = m.over.carrier.dim
    if m.over is not n.over and (
            dc != n.over.carrier.dim or m.over.delta != n.over.delta):
        raise ValueError("comodules live over different coalgebras")
    for com in (m, n):
        if com.law_problems:
            raise AxiomError("; ".join(com.law_problems))
    slot = {c: s for s, c in enumerate(range(dc) if coords is None else coords)}
    ds = len(slot)
    # unknown g[b, a] is variable b * dm + a; equation ((b, c), a) with c
    # the s-th coordinate is row (b * ds + s) * dm + a
    cols = [{} for _ in range(dn * dm)]
    for a, col in enumerate(m.rho.cols):
        for k, v in col.items():
            a2, c = divmod(k, dc)
            if c in slot:
                s = slot[c]
                for b in range(dn):
                    _add_into(cols[b * dm + a2], (b * ds + s) * dm + a, v, f)
    for b2, col in enumerate(n.rho.cols):
        for k, v in col.items():
            b, c = divmod(k, dc)
            if c in slot:
                row = (b * ds + slot[c]) * dm
                for a in range(dm):
                    _add_into(cols[b2 * dm + a], row + a, f.neg(v), f)
    system = LinearMap.from_sparse(
        f, Space.std(dn * dm, prefix="v"), Space.std(dn * ds * dm, prefix="eq"), cols)
    basis = []
    for vec in kernel(system).cols:
        g_cols = [{} for _ in range(dm)]
        for k, v in vec.items():
            b, a = divmod(k, dm)
            g_cols[a][b] = v
        basis.append(LinearMap.from_sparse(f, m.space, n.space, g_cols))
    return basis


def reference_bounded_norms(b: BoundedCoendResult) -> dict:
    """The norms of pi, the injections, Delta_Q, eps_Q and the universal
    family of a bounded coend, each an operator norm of its map written in
    the orthogonal class basis; keyed by the fields of the result."""
    r, f = b.result, b.result.field
    t_inv = b.orth.class_basis
    t = invert_map(t_inv)
    return {
        "pi_norm": operator_norm(t @ r.pi),
        "injection_norms": {x: operator_norm(t @ r.injections[x]) for x in r.diagram.objects},
        "comultiplication_norm": operator_norm(kron_compose(t, t, r.coalgebra.delta @ t_inv)),
        "counit_norm": operator_norm(r.coalgebra.counit @ t_inv),
        "delta_bound": max((operator_norm(kron_compose(identity(fx, f), t, r.delta[x]))
                            for x, fx in r.diagram.spaces.items()), default=NormValue.zero()),
    }


def reference_equivalence_check(c: Coalgebra, seeds: dict[str, Comodule],
                                probes: dict[str, Comodule]) -> EquivalenceVerdict:
    """``equivalence_check`` with every lawful probe pulled back along h^-1
    and lifted through the equalizer, and every hom space solved over C and
    over the coend."""
    f = c.field
    rec = reconstruct_coalgebra(c, seeds)
    problems = []
    if not rec.iso:
        return EquivalenceVerdict(
            False, rec, {}, {}, {}, False,
            [f"reconstruction verdict: {rec.verdict}"],
        )
    r = rec.coend
    q = r.coalgebra
    h_inv = invert_map(rec.h)
    probe_status = {}
    pulled: dict[str, Comodule] = {}
    for name, probe in probes.items():
        bad = probe.check()
        if bad:
            probe_status[name] = "rejected: " + "; ".join(bad)
            continue
        idm = identity(probe.space, f)
        rho_q = kron_compose(idm, h_inv, probe.rho)
        pulled[name] = Comodule(probe.space, q, rho_q)
        status = _lift_through_equalizer(pulled[name], q)
        probe_status[name] = status
        if status != "lifted":
            problems.append(f"probe {name}: {status}")
    base_objs: dict[str, Comodule] = dict(seeds)
    for name, probe in probes.items():
        if probe_status.get(name, "").startswith("rejected"):
            continue
        base_objs[f"probe:{name}"] = probe
    coend_objs: dict[str, Comodule] = {name: comodule_on(r, name) for name in seeds}
    for name, com in pulled.items():
        coend_objs[f"probe:{name}"] = com
    hom_base = {}
    hom_coend = {}
    for a in base_objs:
        for b in base_objs:
            key = f"{a}|{b}"
            hom_base[key] = len(comodule_hom_basis(base_objs[a], base_objs[b]))
            hom_coend[key] = len(comodule_hom_basis(coend_objs[a], coend_objs[b]))
    tables_match = hom_base == hom_coend
    if not tables_match:
        problems.append("hom dimension tables differ")
    ok = tables_match and all(s == "lifted" for s in probe_status.values()
                              if not s.startswith("rejected"))
    return EquivalenceVerdict(
        ok and not problems, rec, probe_status, hom_base, hom_coend,
        tables_match, problems,
    )


def _lift_through_equalizer(com: Comodule, q: Coalgebra) -> str:
    """Check that rho maps the comodule isomorphically onto the equalizer of
    (rho (x) id, id (x) delta) inside M (x) Q, compatibly with coactions."""
    f = q.field
    m_space = com.space
    idm = identity(m_space, f)
    idq = identity(q.carrier, f)
    pair_diff = tensor(com.rho, idq) - tensor(idm, q.delta)
    incl = kernel(pair_diff)
    if incl.dom.dim != m_space.dim:
        return f"failed: equalizer has dimension {incl.dom.dim}, expected {m_space.dim}"
    try:
        psi = solve_through_injection(com.rho, incl)
    except NoSolution:
        return "failed: coaction does not land in the equalizer"
    if not psi.is_invertible():
        return "failed: coaction is not an isomorphism onto the equalizer"
    try:
        rho_e = solve_through_injection(
            kron_compose(idm, q.delta, incl), tensor(incl, idq)
        )
    except NoSolution:
        return "failed: equalizer carries no induced coaction"
    e_com = Comodule(incl.dom, q, rho_e)
    if e_com.check():
        return "failed: induced coaction violates comodule axioms"
    if not intertwines(psi, com.rho, rho_e, q.carrier):
        return "failed: lift is not a comodule morphism"
    return "lifted"
