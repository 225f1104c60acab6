"""Descriptive-set encodings over a truncated Baire space.

Natural numbers start at 1 throughout.  The pairing bijection onto
{2, 3, ...} is fixed once and for all as the Cantor diagonal enumeration of
pairs shifted by one, so codes are deterministic and reproducible but not
portable to any other pairing.  Tuples fold right with terminator 1.

Sets are decoded over a finite truncation of the Baire space: all maps
{1..depth} -> {1..alphabet}.  Basic sets that mention positions or letters
beyond the truncation decode to the empty set (and their complements to the
full space); every such decision, and every truncated infinite bound, is
recorded in the decode metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Sequence

from .oag import ShapeError, fields


def pair(a: int, b: int) -> int:
    """Cantor-diagonal bijection (a, b) -> {2, 3, ...} for a, b >= 1."""
    if a < 1 or b < 1:
        raise ValueError("pair is defined on naturals starting at 1")
    x, y = a - 1, b - 1
    return (x + y) * (x + y + 1) // 2 + y + 2


def unpair(k: int) -> tuple[int, int]:
    """Inverse of :func:`pair`; 1 is the tuple terminator, not a pair."""
    if k < 2:
        raise ValueError(f"{k} is not a pair code (1 is the terminator)")
    t = k - 2
    w = (math.isqrt(8 * t + 1) - 1) // 2
    y = t - w * (w + 1) // 2
    x = w - y
    return x + 1, y + 1


def tuple_encode(xs: Sequence[int]) -> int:
    """Right fold with terminator 1: <a1, <a2, ... <an, 1> ...>>."""
    code = 1
    for x in reversed(xs):
        code = pair(x, code)
    return code


def tuple_decode(code: int) -> list[int]:
    """Total inverse; terminates because tails strictly decrease."""
    if code < 1:
        raise ValueError("tuple codes are positive")
    out = []
    while code != 1:
        head, code2 = unpair(code)
        if code2 >= code:
            raise AssertionError("tuple tail failed to decrease")
        out.append(head)
        code = code2
    return out


@dataclass(frozen=True)
class Stump:
    """Finite well-founded tree; unlisted children are implicitly leaves."""

    children: tuple["Stump", ...] | None  # None = leaf

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    @staticmethod
    def leaf() -> "Stump":
        return Stump(None)

    @staticmethod
    def node(children: Iterable["Stump"] = ()) -> "Stump":
        return Stump(tuple(children))

    def to_json_obj(self):
        if self.is_leaf:
            return {"leaf": True}
        return {"node": [c.to_json_obj() for c in self.children]}

    @staticmethod
    def from_json(doc: dict) -> "Stump":
        """Parse depth-first with an explicit stack, so a stump of any
        depth the JSON reader accepts is parsed."""
        kids = _stump_children(doc)
        if kids is None:
            return Stump.leaf()
        stack = [(kids, [])]  # per open node: children left, children built
        while True:
            kids, built = stack[-1]
            for c in kids:
                grandkids = _stump_children(c)
                if grandkids is not None:
                    stack.append((grandkids, []))
                    break
                built.append(Stump.leaf())
            else:
                stack.pop()
                node = Stump.node(built)
                if not stack:
                    return node
                stack[-1][1].append(node)


_STUMP_KEYS = frozenset({"leaf", "node"})


def _stump_children(doc):
    """``None`` for a leaf document, else an iterator over its children."""
    leaf = fields(doc, frozenset(), _STUMP_KEYS).get("leaf", False)
    if not isinstance(leaf, bool):
        raise ValueError(f"leaf is not a JSON boolean: {leaf!r}")
    if leaf and "node" in doc:
        raise ValueError(f"a stump is a leaf or a node, not both: {doc!r}")
    if leaf:
        return None
    if isinstance(doc.get("node"), list):
        return iter(doc["node"])
    raise ValueError(f"not a leaf or a node: {doc!r}")


def stump_alpha(s: Stump) -> int:
    """Ordinal rank: 0 on leaves, else sup over all children of rank + 1.

    Unlisted children are leaves and contribute 1, so a node is never
    ranked below 1; finite stumps get exact finite ordinals.  Ranked
    with an explicit stack, so any depth is ranked.
    """
    if s.is_leaf:
        return 0
    stack = [[iter(s.children), 1]]  # per open node: children left, best rank
    while True:
        top = stack[-1]
        for c in top[0]:
            if not c.is_leaf:  # a listed leaf adds 1, as an implicit one does
                stack.append([iter(c.children), 1])
                break
        else:
            stack.pop()
            if not stack:
                return top[1]
            stack[-1][1] = max(stack[-1][1], top[1] + 1)


@dataclass(frozen=True)
class TruncatedBaire:
    """All maps {1..depth} -> {1..alphabet}, enumerable."""

    depth: int
    alphabet: int

    def __post_init__(self):
        if self.depth < 1 or self.alphabet < 1:
            raise ValueError("depth and alphabet must be positive")
        if self.alphabet > 10**6 or self.alphabet ** min(self.depth, 20) > 10**6:  # 2**20 > 10**6
            raise ValueError("truncated space too large to enumerate")

    def points(self) -> list[tuple[int, ...]]:
        return [p for p in product(range(1, self.alphabet + 1), repeat=self.depth)]

    def value(self, point: Sequence[int], n: int) -> int | None:
        """point(n), or None beyond the truncation depth."""
        if 1 <= n <= self.depth:
            return point[n - 1]
        return None


@dataclass
class DecodeMeta:
    """Flags accumulated while decoding: nothing here means the answer is
    exact for the truncated space."""

    out_of_range_atoms: list[str] = field(default_factory=list)
    truncations: list[str] = field(default_factory=list)

    def flag_atom(self, note: str) -> None:
        self.out_of_range_atoms.append(note)

    def flag_truncation(self, note: str) -> None:
        self.truncations.append(note)

    def to_dict(self) -> dict:
        return {
            "out_of_range_atoms": self.out_of_range_atoms,
            "truncations": self.truncations,
        }


def _basic_member(
    space: TruncatedBaire, point: Sequence[int], m: int, n: int, meta: DecodeMeta | None
) -> bool:
    value = space.value(point, n)
    if value is None:
        if meta is not None:
            meta.flag_atom(f"B^{m}_{n}: position {n} beyond depth {space.depth}")
        return False
    if m > space.alphabet:
        if meta is not None:
            meta.flag_atom(f"B^{m}_{n}: letter {m} beyond alphabet {space.alphabet}")
        return False
    return value == m


def decode_set(
    code: int,
    kind: str,
    space: TruncatedBaire,
    point: Sequence[int],
    meta: DecodeMeta | None = None,
) -> bool:
    """Membership of a point in a coded set.

    ``Sprime``: the tuple [2, m, n] is the basic set (point(n) = m),
    [1, m, n] its complement, anything else the empty set.  ``Scap`` is a
    finite intersection of Sprime codes, ``A`` a finite union of Scap
    codes.  The empty tuple (code 1) is malformed and decodes to the empty
    set in all three kinds.
    """
    entries = tuple_decode(code)
    if kind == "Sprime":
        if len(entries) == 3 and entries[0] in (1, 2):
            _, m, n = entries
            member = _basic_member(space, point, m, n, meta)
            return member if entries[0] == 2 else not member
        return False
    if kind == "Scap":
        if not entries:
            return False
        return all(decode_set(e, "Sprime", space, point, meta) for e in entries)
    if kind == "A":
        return any(decode_set(e, "Scap", space, point, meta) for e in entries)
    raise ValueError(f"unknown decode kind {kind!r}")


@dataclass(frozen=True)
class CodeLeaf:
    """Finitely many generator codes sitting at a leaf position."""

    codes: tuple[int, ...]

    def __post_init__(self):
        if not self.codes:
            raise ValueError("a leaf assignment needs at least one code")


@dataclass(frozen=True)
class CodeNode:
    """Assignments for a node's explicit children plus the shared default
    for the implicit leaf children beyond them."""

    children: tuple["CodeAssign", ...]
    default: CodeLeaf | None = None


CodeAssign = CodeLeaf | CodeNode


class MissingCode(ValueError):
    pass


_LEAF_KEYS, _NODE_KEYS = frozenset({"codes"}), frozenset({"children", "default"})


def code_assign_from_json(doc) -> CodeAssign:
    """A leaf ``{"codes": [...]}``, or a node ``{"children": [...]}`` with
    an optional leaf ``default``."""
    if isinstance(doc, dict) and "codes" in doc:
        return _code_leaf(doc)
    children = fields(doc, frozenset({"children"}), _NODE_KEYS)["children"]
    if not isinstance(children, list):
        raise ShapeError(f"children is not a JSON list: {children!r}")
    default = _code_leaf(doc["default"]) if "default" in doc else None
    return CodeNode(tuple(map(code_assign_from_json, children)), default)


def _code_leaf(doc) -> CodeLeaf:
    codes = fields(doc, _LEAF_KEYS, _LEAF_KEYS)["codes"]
    if not isinstance(codes, list) or not all(type(c) is int for c in codes):
        raise ShapeError(f"codes must be a list of integers: {doc!r}")
    return CodeLeaf(tuple(codes))


def decode_stratified(
    stump: Stump,
    assign: CodeAssign,
    kind: str,
    space: TruncatedBaire,
    point: Sequence[int],
    child_cap: int,
    meta: DecodeMeta | None = None,
    _path: str = "",
) -> bool:
    """Stratified decode along a stump, truncating child quantifiers.

    At a leaf the assignment lists generator codes: ``Pi`` intersects their
    ring decodes, ``Sigma`` unites them.  At a node, ``Pi`` intersects the
    dual (``Sigma``) decodes of children 1..child_cap, and ``Sigma``
    dually.  Children beyond the stump's explicit list are leaves and use
    the node's default assignment; since they all decode to one fixed set,
    a cap that covers every explicit child makes the answer exact, which is
    recorded in the metadata.
    """
    if kind not in ("Pi", "Sigma"):
        raise ValueError(f"unknown stratified kind {kind!r}")
    if child_cap < 1:
        raise ValueError("child_cap must be >= 1")

    if stump.is_leaf:
        if not isinstance(assign, CodeLeaf):
            raise MissingCode(f"leaf stump at path '{_path or '.'}' needs a code list")
        hits = (decode_set(c, "A", space, point, meta) for c in assign.codes)
        return all(hits) if kind == "Pi" else any(hits)

    if not isinstance(assign, CodeNode):
        raise MissingCode(f"node stump at path '{_path or '.'}' needs child assignments")
    explicit = len(stump.children)
    if meta is not None:
        if child_cap < explicit:
            meta.flag_truncation(
                f"path '{_path or '.'}': cap {child_cap} below {explicit} explicit children"
            )
        else:
            meta.flag_truncation(
                f"path '{_path or '.'}': exact (cap {child_cap} covers all "
                f"{explicit} explicit children; further children share one default set)"
            )

    dual = "Sigma" if kind == "Pi" else "Pi"
    results = []
    for n in range(1, child_cap + 1):
        child_path = f"{_path}/{n}"
        if n <= explicit:
            child = stump.children[n - 1]
            if n <= len(assign.children):
                sub = assign.children[n - 1]
            elif assign.default is not None and child.is_leaf:
                sub = assign.default
            else:
                raise MissingCode(f"no assignment for explored path '{child_path}'")
        else:
            child = Stump.leaf()
            if assign.default is not None:
                sub = assign.default
            elif n <= len(assign.children):
                sub = assign.children[n - 1]
            else:
                raise MissingCode(f"no assignment for explored path '{child_path}'")
        results.append(
            decode_stratified(child, sub, dual, space, point, child_cap, meta, child_path)
        )
        if n > explicit and assign.default is not None:
            # implicit children all share the default leaf: one sample decides
            break
    return all(results) if kind == "Pi" else any(results)


def decode_whole_set(code: int, kind: str, space: TruncatedBaire) -> frozenset:
    """The decoded subset of the whole truncated space."""
    return frozenset(p for p in space.points() if decode_set(code, kind, space, p))
