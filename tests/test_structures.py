import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linspect.fixtures import fix1, fix4, fix5, MODAL_SIG
from linspect.structures import (
    FormatError,
    PointedStructure,
    Signature,
    SignatureMismatch,
    Structure,
    UnknownElement,
    ValidationReport,
    ball,
    copies,
    disjoint_union,
    dump_structure,
    gaifman_graph,
    induced,
    product,
    structure_from_dict,
    structure_to_dict,
    validate,
)

from linspect.unravel import as_pointed, ml_unravel

from conftest import pointed_structures, plain_structures
from helpers import distance


def empty_structure(sig=MODAL_SIG):
    return Structure(sig, (), {})


class TestSignature:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Signature((("R", 2), ("R", 1)))

    def test_modal_arity_bound(self):
        with pytest.raises(ValueError):
            Signature((("T", 3),), modal=True)
        Signature((("T", 3),))  # fine when not modal


class TestValidate:
    def test_empty_structure_ok(self):
        assert validate(empty_structure()).ok

    def test_unknown_element(self):
        s = Structure(MODAL_SIG, ("x",), {"a": frozenset({("x", "y")})})
        report = validate(s)
        assert not report.ok
        assert any("unknown element 'y'" in e for e in report.errors)

    def test_arity_mismatch(self):
        sig = Signature((("p", 1),), modal=True)
        s = Structure(sig, ("x", "y"), {"p": frozenset({("x", "y")})})
        report = validate(s)
        assert not report.ok
        assert any("arity mismatch" in e for e in report.errors)

    def test_all_violations_listed(self):
        sig = Signature((("p", 1),), modal=True)
        s = Structure(sig, ("x",), {"p": frozenset({("x", "x"), ("z",)})})
        report = validate(s)
        assert len(report.errors) == 2


# The per-tuple validate, with its sort, that the set-based checks replaced;
# kept as the reference.


def ref_validate(s: Structure) -> ValidationReport:
    errors: list[str] = []
    seen: set[str] = set()
    for e in s.universe:
        if e in seen:
            errors.append(f"duplicate element {e!r}")
        seen.add(e)
    names = set(s.signature.names)
    for name, tuples in s.interp.items():
        if name not in names:
            errors.append(f"unknown relation {name!r}")
            continue
        arity = s.signature.arity(name)
        for tup in sorted(tuples):
            if len(tup) != arity:
                errors.append(f"arity mismatch in {name!r}: {tup} has width {len(tup)}, expected {arity}")
            for e in tup:
                if e not in seen:
                    errors.append(f"unknown element {e!r} in tuple {tup} of {name!r}")
    return ValidationReport(ok=not errors, errors=tuple(sorted(errors)))


@st.composite
def malformed_structures(draw):
    """Structures that may repeat elements, interpret relations outside the
    signature, and hold tuples of any width over elements outside the universe."""
    pool = ["x", "y", "z", "w", "v"]
    sig = Signature((("p", 1), ("a", 2), ("t", 3)))
    universe = draw(st.lists(st.sampled_from(pool[:4]), max_size=6))
    names = draw(st.lists(st.sampled_from(["p", "a", "t", "zz", "b"]), unique=True))
    tuples = st.lists(st.sampled_from(pool), max_size=4).map(tuple)
    interp = {name: frozenset(draw(st.lists(tuples, max_size=4))) for name in names}
    return Structure(sig, tuple(universe), interp)


class TestValidateAgreesWithReference:
    @given(malformed_structures())
    @settings(max_examples=300, deadline=None)
    def test_same_report(self, s):
        assert validate(s) == ref_validate(s)


class TestGaifman:
    def test_no_relations_only_self_loops(self):
        s = Structure(MODAL_SIG, ("x", "y"), {})
        assert gaifman_graph(s) == {"x": {"x"}, "y": {"y"}}

    def test_single_tuple(self):
        sig = Signature((("R", 2),))
        s = Structure(sig, ("x", "y"), {"R": frozenset({("x", "y")})})
        adj = gaifman_graph(s)
        assert adj == {"x": {"x", "y"}, "y": {"x", "y"}}

    def test_fix4_is_a_path(self):
        adj = gaifman_graph(fix4().base)
        assert adj["d0"] == {"d0", "d1"}
        assert adj["d1"] == {"d0", "d1", "d2"}
        assert adj["d2"] == {"d1", "d2"}

    @given(pointed_structures())
    @settings(max_examples=40, deadline=None)
    def test_symmetric_and_reflexive(self, p):
        adj = gaifman_graph(p.base)
        for x, neigh in adj.items():
            assert x in neigh
            for y in neigh:
                assert x in adj[y]


class TestDistance:
    def test_identity(self):
        assert distance(fix4().base, "d0", "d0") == 0

    def test_fix4_end_to_end(self):
        assert distance(fix4().base, "d0", "d2") == 2

    def test_disconnected_infinite(self):
        s = disjoint_union(fix4().base, fix4().base)
        assert distance(s, "d0#0", "d0#1") == math.inf

    def test_unknown_element(self):
        with pytest.raises(UnknownElement):
            distance(fix4().base, "d0", "nope")

    @given(pointed_structures(max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_triangle_inequality(self, p):
        u = p.base.universe
        for x in u:
            for y in u:
                for z in u:
                    assert distance(p.base, x, z) <= distance(p.base, x, y) + distance(
                        p.base, y, z
                    )
                assert (distance(p.base, x, y) == 0) == (x == y)


class TestBall:
    def test_whole_structure_when_radius_large(self):
        b = ball(fix4(), 5)
        assert b.base.universe == fix4().base.universe
        assert b.base.interp == fix4().base.interp

    def test_radius_zero_keeps_self_loops(self):
        sig = Signature((("p", 1), ("a", 2)), modal=True)
        s = Structure(
            sig, ("x", "y"),
            {"p": frozenset({("x",)}), "a": frozenset({("x", "x"), ("x", "y")})},
        )
        b = ball(PointedStructure(s, "x"), 0)
        assert b.base.universe == ("x",)
        assert b.base.interp["a"] == frozenset({("x", "x")})
        assert b.base.interp["p"] == frozenset({("x",)})

    def test_fix4_radius_one(self):
        b = ball(fix4(), 1)
        assert b.base.universe == ("d0", "d1")
        assert b.base.interp["a"] == frozenset({("d0", "d1")})
        assert b.base.interp["b"] == frozenset()

    @given(pointed_structures(), st.integers(min_value=0, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_nested_and_idempotent(self, p, k):
        inner = ball(p, k)
        outer = ball(p, k + 1)
        assert set(inner.base.universe) <= set(outer.base.universe)
        again = ball(inner, k)
        assert again.base.universe == inner.base.universe
        assert again.base.interp == inner.base.interp


class TestSums:
    def test_unit(self):
        s = disjoint_union(fix4().base, empty_structure())
        assert s.universe == ("d0#0", "d1#0", "d2#0")

    def test_cardinality(self):
        a = Structure(MODAL_SIG, ("x", "y"), {})
        b = Structure(MODAL_SIG, ("u", "v", "w"), {})
        assert len(disjoint_union(a, b).universe) == 5

    def test_no_cross_tuples(self):
        s = disjoint_union(fix4().base, fix4().base)
        assert distance(s, "d0#0", "d2#1") == math.inf

    def test_signature_mismatch(self):
        with pytest.raises(SignatureMismatch):
            disjoint_union(fix4().base, fix5().base)

    def test_copies(self):
        a = Structure(MODAL_SIG, ("x", "y"), {})
        assert copies(a, 0).universe == ()
        assert len(copies(a, 1).universe) == 2
        assert len(copies(a, 3).universe) == 6

    @given(plain_structures(), plain_structures())
    @settings(max_examples=25, deadline=None)
    def test_commutative_up_to_renaming(self, a, b):
        ab = disjoint_union(a, b)
        ba = disjoint_union(b, a)
        swap = {e + "#0": e + "#1" for e in a.universe}
        swap.update({e + "#1": e + "#0" for e in b.universe})
        assert sorted(swap[e] for e in ab.universe) == sorted(ba.universe)
        for name in a.signature.names:
            mapped = {tuple(swap[e] for e in t) for t in ab.interp[name]}
            assert mapped == set(ba.interp[name])


class TestProduct:
    def test_unit_projection(self):
        sig = fix4().signature
        terminal = PointedStructure(
            Structure(
                sig,
                ("*",),
                {
                    "a": frozenset({("*", "*")}),
                    "b": frozenset({("*", "*")}),
                    "c": frozenset({("*", "*")}),
                },
            ),
            "*",
        )
        prod = product(fix4(), terminal)
        assert len(prod.base.universe) == 3
        assert prod.point == "(d0,*)"
        assert ("(d0,*)", "(d1,*)") in prod.base.interp["a"]

    def test_diagonal_chain(self):
        prod = product(fix4(), fix4())
        assert ("(d0,d0)", "(d1,d1)") in prod.base.interp["a"]
        assert ("(d1,d1)", "(d2,d2)") in prod.base.interp["b"]

    def test_disjoint_actions_block_point(self):
        sig = Signature((("a", 2), ("b", 2)), modal=True)
        left = PointedStructure(
            Structure(sig, ("x", "y"), {"a": frozenset({("x", "y")})}), "x"
        )
        right = PointedStructure(
            Structure(sig, ("u", "v"), {"b": frozenset({("u", "v")})}), "u"
        )
        prod = product(left, right)
        assert prod.base.is_terminal(prod.point)

    @given(pointed_structures(max_size=3), pointed_structures(max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_projections_are_homomorphisms(self, a, b):
        prod = product(a, b)
        for name in prod.signature.names:
            for t in prod.base.interp[name]:
                left = tuple(e[1:-1].split(",", 1)[0] for e in t)
                right = tuple(e[1:-1].split(",", 1)[1] for e in t)
                assert left in a.base.interp[name]
                assert right in b.base.interp[name]


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        p = fix5()
        path = tmp_path / "s.json"
        dump_structure(p.base, p.point, str(path))
        import json

        data = json.loads(path.read_text())
        s, point, _ = structure_from_dict(data)
        assert s == p.base
        assert point == p.point

    def test_unknown_fields_rejected(self):
        data = structure_to_dict(fix4().base, "d0")
        data["extra"] = 1
        with pytest.raises(FormatError):
            structure_from_dict(data)

    def test_bad_point_rejected(self):
        data = structure_to_dict(fix4().base, "d0")
        data["point"] = "zz"
        with pytest.raises(FormatError):
            structure_from_dict(data)

    def test_invalid_interp_rejected(self):
        data = structure_to_dict(fix4().base, "d0")
        data["interp"]["a"] = [["d0", "nope"]]
        with pytest.raises(FormatError):
            structure_from_dict(data)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("universe", "d0d1", "universe must be a list"),
            ("interp", [], "interp must be an object"),
            ("interp", {"a": "d0"}, "interp 'a' must be a list of lists"),
            ("interp", {"a": [5]}, "interp 'a' must be a list of lists"),
            ("interp", {"a": ["d0"]}, "interp 'a' must be a list of lists"),
        ],
    )
    def test_bad_shapes_rejected(self, field, value, message):
        data = structure_to_dict(fix4().base, "d0")
        data[field] = value
        with pytest.raises(FormatError, match=f"^{message}$"):
            structure_from_dict(data)


class TestAssociativity:
    @given(plain_structures(), plain_structures(), plain_structures())
    @settings(max_examples=15, deadline=None)
    def test_disjoint_union_associative_up_to_renaming(self, a, b, c):
        left = disjoint_union(disjoint_union(a, b), c)
        right = disjoint_union(a, disjoint_union(b, c))
        # canonical renaming: strip the nesting tags down to (origin, element)
        def canon(s, split):
            out = {}
            for e in s.universe:
                base, tags = e.split("#", 1)[0], e.split("#")[1:]
                out[e] = (base, split(tags))
            return out

        lmap = canon(left, lambda t: ("a" if t == ["0", "0"] else "b" if t == ["1", "0"] else "c"))
        rmap = canon(right, lambda t: ("a" if t == ["0"] else "b" if t == ["0", "1"] else "c"))
        assert sorted(lmap.values()) == sorted(rmap.values())
        for name in a.signature.names:
            lt = {tuple(lmap[e] for e in t) for t in left.interp[name]}
            rt = {tuple(rmap[e] for e in t) for t in right.interp[name]}
            assert lt == rt


class TestInduced:
    def test_one_shot_iterable(self):
        s = fix1().base
        assert induced(s, iter(s.universe)).universe == s.universe
        kept = induced(s, (e for e in s.universe if e != s.universe[0]))
        assert kept.universe == s.universe[1:]


# The linear scans that the indexed queries replaced, kept as references.


def ref_valuation(s: Structure, element: str) -> frozenset:
    return frozenset(p for p in s.signature.propositions if (element,) in s.interp[p])


def ref_successors(s: Structure, element: str, action: str) -> tuple:
    targets = {b for (a, b) in s.interp[action] if a == element}
    return tuple(x for x in s.universe if x in targets)


def ref_enabled_actions(s: Structure, element: str) -> frozenset:
    return frozenset(
        act for act in s.signature.actions if any(a == element for (a, _) in s.interp[act])
    )


@st.composite
def constructed(draw):
    """A structure from one of the constructions, with a few query elements
    from outside its universe."""
    p = draw(pointed_structures(n_props=2))
    q = draw(pointed_structures(n_props=2))
    kind = draw(st.sampled_from(["plain", "induced", "union", "product", "unravel"]))
    if kind == "plain":
        s = p.base
    elif kind == "induced":
        keep = draw(st.lists(st.sampled_from(p.base.universe), unique=True))
        s = induced(p.base, (e for e in keep))
    elif kind == "union":
        s = disjoint_union(p.base, q.base)
    elif kind == "product":
        s = product(p, q).base
    else:
        s = as_pointed(ml_unravel(p, draw(st.integers(min_value=0, max_value=2)))[0]).base
    outside = [e for e in p.base.universe + q.base.universe + ("nowhere",) if e not in s.universe]
    return s, outside


class TestIndexedQueries:
    @given(constructed())
    @settings(max_examples=150, deadline=None)
    def test_queries_equal_linear_scans(self, case):
        s, outside = case
        for e in s.universe + tuple(outside):
            assert s.valuation(e) == ref_valuation(s, e)
            assert s.enabled_actions(e) == ref_enabled_actions(s, e)
            assert s.is_terminal(e) == (not ref_enabled_actions(s, e))
            for act in s.signature.actions:
                assert s.successors(e, act) == ref_successors(s, e, act)
        with pytest.raises(KeyError):
            s.successors(s.universe[0] if s.universe else "nowhere", "no-such-action")

    def test_successors_in_universe_order(self):
        s = Structure(MODAL_SIG, ("z", "y", "x"), {"a": frozenset({("x", "x"), ("x", "z"), ("x", "y")})})
        assert s.successors("x", "a") == ("z", "y", "x")
        assert s.successors("y", "a") == ()
        assert s.enabled_actions("x") == frozenset({"a"})
        assert s.is_terminal("nowhere")
