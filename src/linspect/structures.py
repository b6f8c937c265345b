"""Finite relational structures, pointed variants, and structure-level constructions.

Element ids are opaque strings, and a structure file that gives any other
value for one is refused, never converted.  Universes are ordered lists so
that every enumeration downstream (run listing, morphism search, trace sets)
is deterministic across runs.

A ``Structure`` answers ``successors``, ``valuation`` and ``enabled_actions``
from indexes built on the first call of each, from the relation tuples, so a
query costs a dictionary lookup instead of a scan of a relation.  They are
lazy because many structures (products, induced substructures, pointed
copies) are built and never queried.  A ``Signature`` computes its name
tuples once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import Iterable, Mapping, Optional, Sequence


Tuple_ = tuple[str, ...]
_EMPTY: frozenset[str] = frozenset()


class SignatureMismatch(ValueError):
    """Raised when an operation combines structures over different signatures."""


class UnknownElement(KeyError):
    """Raised when an element id is not part of a structure's universe."""


@dataclass(frozen=True)
class Signature:
    """A finite set of relation symbols with arities.

    A signature flagged ``modal`` may only contain unary relations
    (propositions) and binary relations (actions).
    """

    relations: tuple[tuple[str, int], ...]
    modal: bool = False

    def __post_init__(self) -> None:
        names = [name for name, _ in self.relations]
        if len(names) != len(set(names)):
            raise ValueError("relation names must be unique")
        for name, arity in self.relations:
            if arity < 1:
                raise ValueError(f"relation {name!r} must have positive arity")
            if self.modal and arity > 2:
                raise ValueError(f"modal signature forbids arity {arity} ({name!r})")

    def arity(self, name: str) -> int:
        for rel, ar in self.relations:
            if rel == name:
                return ar
        raise KeyError(name)

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.relations)

    @cached_property
    def propositions(self) -> tuple[str, ...]:
        """Unary relation names (valuations), in declaration order."""
        return tuple(name for name, ar in self.relations if ar == 1)

    @cached_property
    def actions(self) -> tuple[str, ...]:
        """Binary relation names (transitions), in declaration order."""
        return tuple(name for name, ar in self.relations if ar == 2)


def _label_index(labels: Iterable[tuple[str, set[str]]]) -> dict[str, frozenset[str]]:
    """Each element of some label's set, mapped to the labels whose sets hold
    it, in label order, by partition refinement: a class of elements with the
    same labels so far splits by one set intersection per new label, and each
    final class fills the index at once."""
    classes: dict[tuple[str, ...], set[str]] = {}
    for label, members in labels:
        for names, cls in list(classes.items()):
            inside = cls & members
            if inside:
                cls -= inside
                members -= inside
                classes[names + (label,)] = inside
        classes[(label,)] = members
    index: dict[str, frozenset[str]] = {}
    for names, cls in classes.items():
        index.update(dict.fromkeys(cls, frozenset(names)))
    return index


@dataclass(frozen=True)
class Structure:
    """A finite structure: ordered universe plus per-relation tuple sets."""

    signature: Signature
    universe: tuple[str, ...]
    interp: Mapping[str, frozenset[Tuple_]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        frozen = {name: frozenset(map(tuple, tuples)) for name, tuples in self.interp.items()}
        for name in self.signature.names:
            frozen.setdefault(name, frozenset())
        object.__setattr__(self, "interp", frozen)

    def tuples(self, relation: str) -> frozenset[Tuple_]:
        return self.interp[relation]

    def has(self, relation: str, *elements: str) -> bool:
        return tuple(elements) in self.interp[relation]

    def valuation(self, element: str) -> frozenset[str]:
        """The set of unary relation names holding at ``element``."""
        return self._valuations.get(element, _EMPTY)

    def successors(self, element: str, action: str) -> tuple[str, ...]:
        """Targets of ``action``-transitions out of ``element``, in universe order."""
        return self._successors[action].get(element, ())

    def enabled_actions(self, element: str) -> frozenset[str]:
        """The ready set: actions with at least one transition out of ``element``."""
        return self._enabled.get(element, _EMPTY)

    @cached_property
    def _valuations(self) -> dict[str, frozenset[str]]:
        return _label_index(
            (p, set(chain.from_iterable(self.interp[p]))) for p in self.signature.propositions
        )

    @cached_property
    def _successors(self) -> dict[str, dict[str, tuple[str, ...]]]:
        index = {}
        for act in self.signature.actions:
            sources: dict[str, list[str]] = {}
            for a, b in self.interp[act]:
                sources.setdefault(b, []).append(a)
            targets: dict[str, list[str]] = {}
            for x in self.universe:
                for a in sources.get(x, ()):
                    targets.setdefault(a, []).append(x)
            index[act] = {a: tuple(xs) for a, xs in targets.items()}
        return index

    @cached_property
    def _enabled(self) -> dict[str, frozenset[str]]:
        return _label_index(
            (act, set(map(itemgetter(0), self.interp[act]))) for act in self.signature.actions
        )

    def is_terminal(self, element: str) -> bool:
        return not self.enabled_actions(element)


@dataclass(frozen=True)
class PointedStructure:
    """A structure with a distinguished point."""

    base: Structure
    point: str

    def __post_init__(self) -> None:
        if self.point not in self.base.universe:
            raise UnknownElement(self.point)

    @property
    def signature(self) -> Signature:
        return self.base.signature


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    errors: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def validate(s: Structure) -> ValidationReport:
    """Check every structure invariant; report all violations rather than the first.

    Each check is a set operation over a whole universe or relation; the
    per-element report is built only for a check that fails."""
    errors: list[str] = []
    seen = set(s.universe)
    if len(seen) != len(s.universe):
        counted: set[str] = set()
        for e in s.universe:
            if e in counted:
                errors.append(f"duplicate element {e!r}")
            counted.add(e)
    names = set(s.signature.names)
    for name, tuples in s.interp.items():
        if name not in names:
            errors.append(f"unknown relation {name!r}")
            continue
        arity = s.signature.arity(name)
        if set(map(len, tuples)) - {arity} or not seen.issuperset(chain.from_iterable(tuples)):
            for tup in tuples:
                if len(tup) != arity:
                    errors.append(f"arity mismatch in {name!r}: {tup} has width {len(tup)}, expected {arity}")
                for e in tup:
                    if e not in seen:
                        errors.append(f"unknown element {e!r} in tuple {tup} of {name!r}")
    return ValidationReport(ok=not errors, errors=tuple(sorted(errors)))


def gaifman_graph(s: Structure) -> dict[str, set[str]]:
    """Adjacency map: a ~ a' iff a = a' or they co-occur in some interpreted tuple."""
    adj: dict[str, set[str]] = {e: {e} for e in s.universe}
    for tuples in s.interp.values():
        for tup in tuples:
            for a in tup:
                for b in tup:
                    adj[a].add(b)
                    adj[b].add(a)
    return adj


def _distances_from(s: Structure, a: str) -> dict[str, int]:
    """Breadth-first Gaifman distances from ``a`` to every element it reaches."""
    adj = gaifman_graph(s)
    dist = {a: 0}
    frontier = [a]
    while frontier:
        nxt: list[str] = []
        for x in frontier:
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    return dist


def induced(s: Structure, keep: Iterable[str]) -> Structure:
    """Induced substructure on ``keep`` (order inherited from the universe)."""
    keep = set(keep)
    kept = [e for e in s.universe if e in keep]
    kset = set(kept)
    interp = {
        name: frozenset(t for t in tuples if all(e in kset for e in t))
        for name, tuples in s.interp.items()
    }
    return Structure(s.signature, tuple(kept), interp)


def ball(p: PointedStructure, k: int) -> PointedStructure:
    """Induced substructure on elements at Gaifman distance <= k from the point."""
    dist = _distances_from(p.base, p.point)
    keep = [e for e in p.base.universe if dist.get(e, k + 1) <= k]
    return PointedStructure(induced(p.base, keep), p.point)


def _retag(s: Structure, tag: str) -> tuple[tuple[str, ...], dict[str, frozenset[Tuple_]]]:
    ren = {e: f"{e}{tag}" for e in s.universe}
    universe = tuple(ren[e] for e in s.universe)
    interp = {
        name: frozenset(tuple(ren[e] for e in t) for t in tuples)
        for name, tuples in s.interp.items()
    }
    return universe, interp


def disjoint_union(a: Structure, b: Structure) -> Structure:
    """Coproduct; elements are tagged ``#0`` / ``#1`` by origin."""
    if a.signature != b.signature:
        raise SignatureMismatch("disjoint_union requires a shared signature")
    ua, ia = _retag(a, "#0")
    ub, ib = _retag(b, "#1")
    interp = {name: ia[name] | ib[name] for name in a.signature.names}
    return Structure(a.signature, ua + ub, interp)


def sum_many(parts: Sequence[Structure], signature: Signature) -> Structure:
    """n-ary disjoint union with ``#i`` origin tags; allows the empty sum."""
    universe: list[str] = []
    interp: dict[str, set[Tuple_]] = {name: set() for name in signature.names}
    for i, part in enumerate(parts):
        if part.signature != signature:
            raise SignatureMismatch("sum_many requires a shared signature")
        u, itp = _retag(part, f"#{i}")
        universe.extend(u)
        for name in signature.names:
            interp[name] |= itp[name]
    return Structure(signature, tuple(universe), {k: frozenset(v) for k, v in interp.items()})


def copies(a: Structure, n: int) -> Structure:
    """n-fold disjoint union of ``a`` with itself."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return sum_many([a] * n, a.signature)


def pointed_sum(p: PointedStructure, extra: Structure) -> PointedStructure:
    """Disjoint extension: p + extra, keeping p's point (tagged ``#0``)."""
    return PointedStructure(disjoint_union(p.base, extra), f"{p.point}#0")


def pair_id(x: str, y: str) -> str:
    return f"({x},{y})"


def product(a: PointedStructure, b: PointedStructure) -> PointedStructure:
    """Pointed product: relations hold componentwise on both projections."""
    if a.signature != b.signature:
        raise SignatureMismatch("product requires a shared signature")
    sig = a.signature
    universe = tuple(pair_id(x, y) for x in a.base.universe for y in b.base.universe)
    interp: dict[str, frozenset[Tuple_]] = {}
    for name, arity in sig.relations:
        tuples = set()
        for ta in a.base.interp[name]:
            for tb in b.base.interp[name]:
                tuples.add(tuple(pair_id(x, y) for x, y in zip(ta, tb)))
        interp[name] = frozenset(tuples)
    return PointedStructure(
        Structure(sig, universe, interp), pair_id(a.point, b.point)
    )


# --- file format -----------------------------------------------------------
#
# {"signature": {"modal": bool, "relations": [{"name": str, "arity": int}]},
#  "universe": [str], "point": str|null, "interp": {name: [[str, ...], ...]}}
#
# Element ids (the universe, every tuple entry and the point) are JSON
# strings; any other value is refused, never coerced.  Unknown fields are
# rejected.

_TOP_FIELDS = {"signature", "universe", "point", "interp", "forest"}
_SIG_FIELDS = {"modal", "relations"}
_REL_FIELDS = {"name", "arity"}


class FormatError(ValueError):
    """Raised when a structure file does not match the documented schema."""


def _refuse_non_strings(ids: Iterable, where: str) -> None:
    """Raise a FormatError naming the first element id in ``ids`` that is not
    a string."""
    for e in ids:
        if type(e) is not str:
            raise FormatError(f"{where}: element ids must be strings, not {e!r}")


def structure_from_dict(data: dict) -> tuple[Structure, Optional[str], Optional[dict]]:
    """Decode the JSON object form; returns (structure, point-or-None, forest block).

    One pass over the ids, by set operations: each relation's tuple set is
    built once, by ``Structure``, and checked by ``validate``."""
    if not isinstance(data, dict):
        raise FormatError("top level must be an object")
    unknown = set(data) - _TOP_FIELDS
    if unknown:
        raise FormatError(f"unknown fields: {sorted(unknown)}")
    for required in ("signature", "universe", "interp"):
        if required not in data:
            raise FormatError(f"missing field {required!r}")
    sig_data = data["signature"]
    if not isinstance(sig_data, dict):
        raise FormatError(f"signature must be an object, not {sig_data!r}")
    if set(sig_data) - _SIG_FIELDS:
        raise FormatError(f"signature: unknown fields: {sorted(set(sig_data) - _SIG_FIELDS)}")
    relations, modal = sig_data.get("relations", []), sig_data.get("modal", False)
    if not isinstance(relations, list):
        raise FormatError(f"signature: relations must be a list, not {relations!r}")
    if type(modal) is not bool:
        raise FormatError(f"signature: modal must be true or false, not {modal!r}")
    rels = []
    for rel in relations:
        if not isinstance(rel, dict):
            raise FormatError(f"relation entry {rel!r} must be an object")
        if set(rel) - _REL_FIELDS:
            raise FormatError(f"relation entry {rel!r}: unknown fields: {sorted(set(rel) - _REL_FIELDS)}")
        for required in ("name", "arity"):
            if required not in rel:
                raise FormatError(f"relation entry {rel!r}: missing field {required!r}")
        name, arity = rel["name"], rel["arity"]
        if type(name) is not str:
            raise FormatError(f"relation entry: name must be a string, not {name!r}")
        if type(arity) is not int:
            raise FormatError(f"relation {name!r}: arity must be an integer, not {arity!r}")
        rels.append((name, arity))
    sig = Signature(tuple(rels), modal=modal)
    universe, interp = data["universe"], data["interp"]
    if not isinstance(universe, list):
        raise FormatError("universe must be a list")
    if not isinstance(interp, dict):
        raise FormatError("interp must be an object")
    if set(map(type, universe)) - {str}:
        _refuse_non_strings(universe, "universe")
    for name, tuples in interp.items():
        if not isinstance(tuples, list) or set(map(type, tuples)) - {list}:
            raise FormatError(f"interp {name!r} must be a list of lists")
    # A tuple entry found in the all-string universe is a string, since no
    # other JSON value equals one; so validate's element check covers the
    # entries, and their types are looked at only when a check fails.
    try:
        s = Structure(sig, tuple(universe), interp)
        errors = validate(s).errors
    except TypeError:  # an unhashable entry, a list or an object
        errors = None
    if errors != ():
        for name, tuples in interp.items():
            _refuse_non_strings(chain.from_iterable(tuples), f"interp {name!r}")
        raise FormatError("; ".join(errors))
    point = data.get("point")
    if point is not None:
        _refuse_non_strings((point,), "point")
        if point not in s.universe:
            raise FormatError(f"point {point!r} not in universe")
    return s, point, data.get("forest")


def structure_to_dict(s: Structure, point: Optional[str] = None) -> dict:
    return {
        "signature": {
            "modal": s.signature.modal,
            "relations": [{"name": n, "arity": a} for n, a in s.signature.relations],
        },
        "universe": list(s.universe),
        "point": point,
        "interp": {name: sorted(map(list, s.interp[name])) for name in s.signature.names},
    }


def load_structure(path: str) -> tuple[Structure, Optional[str]]:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    s, point, _ = structure_from_dict(data)
    return s, point


def load_pointed(path: str) -> PointedStructure:
    s, point = load_structure(path)
    if point is None:
        raise FormatError(f"{path}: a pointed structure requires a point")
    return PointedStructure(s, point)


def dump_structure(s: Structure, point: Optional[str] = None, path: Optional[str] = None) -> str:
    text = json.dumps(structure_to_dict(s, point), indent=2, sort_keys=True)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text
