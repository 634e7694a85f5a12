"""Finite permutation groups with full element enumeration.

Every group here is small enough (a few hundred elements, degree <= 32) that
we enumerate all elements once, sort them canonically, and refer to them by
index.  Subgroups are bitmasks over those indices, which makes meets, joins,
conjugation and hashing cheap and exactly reproducible.

Maps compose left to right throughout: ``mul(a, b)`` is "apply a, then b",
and ``x^g = g^-1 x g``.
"""

from __future__ import annotations

import os
import weakref
from collections import Counter
from itertools import compress, repeat
from operator import getitem, itemgetter, not_
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    ConjugateEscapes,
    DoesNotGenerate,
    ImageEscapesCodomain,
    InvariantViolation,
    NotAHomomorphism,
    NotAPermutation,
    NotASubgroup,
    NotInjective,
    NotNormal,
    OrderCapExceeded,
    ParseError,
    ProductNotASubgroup,
)

DEFAULT_ORDER_CAP = 20000
DEFAULT_ISO_CAP = 512

# above this order we skip the dense multiplication table and compose on demand
_TABLE_LIMIT = 2048


def order_cap() -> int:
    """The group-order cap: FUSKIT_ORDER_CAP if set, else DEFAULT_ORDER_CAP."""
    env = os.environ.get("FUSKIT_ORDER_CAP")
    try:
        return int(env) if env else DEFAULT_ORDER_CAP
    except ValueError:
        raise ParseError(f"FUSKIT_ORDER_CAP is not an integer: {env!r}") from None


# builds per memo table name: one on every miss of ``memo``, hits are not
# counted; also one per multiplication table composed (``mul_table``) or read
# off another group's table (``mul_table_read``)
BUILDS: Counter = Counter()

# closures computed by ``_closure_within`` (``closure``) and their coset
# steps (``coset_step``); joins <H, x> run by ``_joined_lattice``
# (``lattice_join``); K-normalizers decided on Alperin generators
# (``knorm_generators``) and by a scan of the isos (``knorm_scan``)
WORK: Counter = Counter()


def memo(name: str, named: bool = False):
    """Memoize a function in the table ``name`` of its owner's ``_caches``.

    Groups and fusion systems each own a ``_caches`` dict of named tables.
    A group's is its own, since a live identity is one object (see
    ``Group``); a fusion system's is the memo its ambient group files for
    its kind, prime, carrier and table (see ``fusion.PreFusionSystem``).  So
    a table must depend on the group's identity or the system's content alone.

    The owner is the first argument, or its parent group when that is a
    Subgroup.  The key is the tuple of the other arguments, after the first
    argument's mask when that is a Subgroup, with each Subgroup replaced by
    its mask and each fusion system by its ``memo_key``: the serial of its
    memo, which equal systems share and no other memo gets, so it stands for
    the system's content and keeps no system alive.  When ``named``, the key
    ends with the name of the first argument's ``parent``: renamed twins
    share their system memos, so a value that carries that name (a quotient
    group's) is kept per name.  The body runs only on a miss, so it may
    check only what follows from the owner's content and the key; a build
    that raises stores nothing.  Positional arguments only.
    """
    def deco(fn):
        def wrapper(first, *rest):
            if first.__class__ is Subgroup:
                owner, key = first.parent, (first.mask,)
            else:
                owner, key = first, ()
            for a in rest:
                key += (a.mask if a.__class__ is Subgroup else getattr(a, "memo_key", a),)
            if named:
                key += (first.parent.name,)
            try:
                return owner._caches[name][key]
            except KeyError:
                pass
            BUILDS[name] += 1
            got = owner._caches.setdefault(name, {})[key] = fn(first, *rest)
            return got

        # no functools.wraps: a __wrapped__ attribute marks a tracer's wrapper
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper
    return deco


class Perm:
    """A permutation of {0..degree-1}, stored as its one-line image tuple."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        self.images = tuple(images)

    @classmethod
    def checked(cls, images: Sequence[int], degree: Optional[int] = None) -> "Perm":
        if not isinstance(images, (list, tuple)) or not all(type(i) is int for i in images):
            raise NotAPermutation(f"not a list of point indices: {images!r}")
        imgs = tuple(images)
        if degree is not None and len(imgs) != degree:
            raise NotAPermutation(f"expected degree {degree}, got {len(imgs)}")
        if sorted(imgs) != list(range(len(imgs))):
            raise NotAPermutation(f"not a bijection on 0..{len(imgs) - 1}: {list(imgs)}")
        return cls(imgs)

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls(range(degree))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Perm") -> "Perm":
        # self, then other
        oi = other.images
        return Perm(tuple(oi[i] for i in self.images))

    def inverse(self) -> "Perm":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Perm(tuple(inv))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            pt = self.images[start]
            while pt != start:
                cyc.append(pt)
                seen[pt] = True
                pt = self.images[pt]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return "Perm(id)"
        return "Perm(" + "".join("(" + " ".join(map(str, c)) + ")" for c in cyc) + ")"


class _ComposedRows:
    """Group.rows() of a group without a table: rows[a] is a view of row a,
    and rows[a][b] is composed by G.mul when it is read."""

    __slots__ = ("G", "a")

    def __init__(self, G: "Group", a: Optional[int] = None):
        self.G, self.a = G, a

    def __getitem__(self, i: int):
        return _ComposedRows(self.G, i) if self.a is None else self.G.mul(self.a, i)

    def __iter__(self):  # a row: mul(a, b) for every b
        return map(self.G.mul, repeat(self.a), range(self.G.order))


# (degree, name, generator images, element images) -> the live group,
# (degree, name, generator images) -> the live group group_from_generators
# made, and (degree, element images) -> the oldest live group made with them
_GROUPS: "weakref.WeakValueDictionary[tuple, Group]" = weakref.WeakValueDictionary()


class Group:
    """A fully enumerated permutation group; element index 0 is the identity.

    A group's content is never changed after construction (its tables are
    only filled in), and its name and generators are part of its identity,
    with its degree and elements.  Groups are interned: constructing a group
    whose identity is live returns that live object, with its multiplication,
    inverse and order tables, conjugation maps and memo tables (``_caches``).
    The registry holds groups weakly, so it keeps none alive.  The name and
    generators belong to the key so that a memoized subgroup's parent, which
    is the group that first asked, cannot be told apart from a later asker.
    Equality and hashing stay by content (degree and elements).  The
    multiplication, inverse and order tables, the conjugation maps, the
    member tuples of subgroup masks and the memos of the fusion systems on
    its subgroups (``_systems``, see ``fusion.PreFusionSystem``) depend on
    the elements alone, so a new group takes those of the oldest live group
    with its elements: renamed twins, distinct objects, share them, and they
    live as long as one group with those elements does.
    """

    __slots__ = (
        "degree",
        "name",
        "generators",
        "elements",
        "_index",
        "_mul",
        "_inv",
        "_orders",
        "_conj",
        "_members",
        "_systems",
        "_hash",
        "_caches",
        "__weakref__",
    )

    def __new__(cls, degree: int, name: str, generators: tuple[Perm, ...], elements: tuple[Perm, ...]):
        images = tuple(p.images for p in elements)
        key = (degree, name, tuple(g.images for g in generators), images)
        self = _GROUPS.get(key)
        if self is not None:
            return self
        if not elements[0].is_identity():
            raise InvariantViolation("canonical order must put the identity first")
        self = super().__new__(cls)
        self.degree = degree
        self.name = name
        self.generators = generators
        self.elements = elements
        self._index = {img: i for i, img in enumerate(images)}
        self._hash = hash((degree, images))
        self._mul = self._inv = self._orders = None
        self._conj, self._members, self._systems = {}, {}, {}
        twin = _GROUPS.setdefault((degree, images), self)
        if twin is not self:  # the same elements: the same tables
            self._mul, self._inv, self._orders = twin._mul, twin._inv, twin._orders
            self._conj, self._members, self._systems = twin._conj, twin._members, twin._systems
        self._caches = {}
        _GROUPS[key] = self
        return self

    def __reduce__(self):  # copy and pickle go through __new__, so they intern too
        return Group, (self.degree, self.name, self.generators, self.elements)

    # -- construction --------------------------------------------------

    @classmethod
    def _from_elements(cls, degree: int, perms: Iterable[Perm], name: str,
                       generators: Optional[Sequence[Perm]] = None) -> "Group":
        elements = tuple(sorted({p.images: p for p in perms}.values(), key=lambda p: p.images))
        gens = tuple(generators) if generators is not None else elements[1:] or elements[:1]
        return cls(degree, name, gens, elements)

    # -- basics ----------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def index_of(self, perm: Perm) -> int:
        try:
            return self._index[perm.images]
        except KeyError:
            raise NotASubgroup(f"permutation {perm!r} is not an element of {self.name}") from None

    def _ensure_mul(self):
        if self._mul is None and self.order <= _TABLE_LIMIT:
            BUILDS["mul_table"] += 1
            self._mul = self._composed_table()

    def _composed_table(self) -> tuple[tuple[int, ...], ...]:
        """The table row by row: row(s*a) is row(s) composed with row(a), since
        (s*a)*b = s*(a*b).  Only the rows of generators come from the Perm
        images; the others are reached by a walk from the identity over the
        generators, each new one closed over before the next is looked at.  A
        generator the walk already reached adds nothing and is skipped, so a
        group that lists all its elements as generators composes O(|G|) rows.
        A generator's row becomes one ``itemgetter``, so a new row is one
        C-level call on row(s): at 360 points 4.7 times as fast as a map."""
        idx = self._index
        images = [p.images for p in self.elements]
        rows: list = [None] * len(images)
        rows[0] = tuple(range(len(images)))
        reached = [0]
        gens: list[tuple[int, itemgetter]] = []
        for gp in self.generators:
            g = idx[gp.images]
            if rows[g] is not None:
                continue
            # row(g)[b] = index of g*b; g is not 1, so G is not trivial and
            # each itemgetter here gets 2+ items
            row_g = tuple(map(idx.get, map(itemgetter(*gp.images), images)))
            if None in row_g:
                raise InvariantViolation(f"{self.name} is not closed under products")
            gens.append((g, itemgetter(*row_g)))
            n_old = len(reached)
            for i, s in enumerate(reached):  # reached grows while we walk it
                row_s = rows[s]
                # the elements reached before g are closed under the earlier generators
                for a, read_a in (gens[-1:] if i < n_old else gens):
                    t = row_s[a]
                    if rows[t] is None:
                        rows[t] = read_a(row_s)
                        reached.append(t)
        if len(reached) != len(images):
            raise InvariantViolation(f"the generators of {self.name} do not generate its elements")
        return tuple(rows)

    def mul(self, a: int, b: int) -> int:
        """Index of elements[a] * elements[b] (a first, then b)."""
        mt = self._mul
        if mt is None:
            self._ensure_mul()
            mt = self._mul
            if mt is None:  # above _TABLE_LIMIT: compose on demand
                pa = self.elements[a].images
                pb = self.elements[b].images
                try:
                    return self._index[tuple(pb[i] for i in pa)]
                except KeyError:
                    raise InvariantViolation(f"{self.name} is not closed under products") from None
        return mt[a][b]

    def rows(self):
        """The rows of the multiplication table: rows()[a][b] = mul(a, b).
        Above _TABLE_LIMIT a view that composes each product when it is read."""
        self._ensure_mul()
        return _ComposedRows(self) if self._mul is None else self._mul

    def inv(self, a: int) -> int:
        inv = self._inv
        if inv is None:
            inv = tuple(self._index.get(p.inverse().images) for p in self.elements)
            if None in inv:
                raise InvariantViolation(f"{self.name} is not closed under inverses")
            self._inv = inv
        return inv[a]

    def conj_map(self, g: int) -> tuple[int, ...]:
        """The table x -> g^-1 x g over all ids, cached per g: row(g^-1) through g's column."""
        cm = self._conj.get(g)
        if cm is None:
            rows = self.rows()
            cm = self._conj[g] = tuple(map(itemgetter(g), map(rows.__getitem__, rows[self.inv(g)])))
        return cm

    def _read_table(self, src: "Group", lift: Sequence[int], down) -> None:
        """Take the table, when this group has none yet, from the rows of src:
        element i here is down[lift[i]], for a hom down (a dict or table) from
        src.  Re-indexing rows is much cheaper than composing, but above
        _TABLE_LIMIT src has no rows to re-index."""
        if self._mul is None and src.order <= _TABLE_LIMIT:
            BUILDS["mul_table_read"] += 1
            rows = src.rows()
            get = down.__getitem__
            self._mul = tuple(tuple(map(get, map(rows[x].__getitem__, lift))) for x in lift)

    def element_order(self, a: int) -> int:
        orders = self._orders
        if orders is None:
            orders = self._orders = self._order_table()
        return orders[a]

    def _order_table(self) -> tuple[int, ...]:
        # one pass per k over the x of order k or more, reading x^k off the
        # table as row(x^(k-1))[x]; the x with x^k = 1 have order k
        rows = self.rows()
        orders = [1] * self.order
        xs = pw = list(range(1, self.order))
        k = 1
        while xs:
            k += 1
            pw = list(map(getitem, map(rows.__getitem__, pw), xs))
            if 0 in pw:
                for x in compress(xs, map(not_, pw)):
                    orders[x] = k
                xs, pw = list(compress(xs, pw)), list(compress(pw, pw))
        return tuple(orders)

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, (1 << self.order) - 1)

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, 1)

    def subgroup_of(self, ids: Iterable[int]) -> "Subgroup":
        return Subgroup(self, _closure_mask(self, 1 | mask_of(ids)))  # 1: the identity

    def __eq__(self, other) -> bool:
        if not isinstance(other, Group):
            return NotImplemented
        if self is other:
            return True
        if self._hash != other._hash or self.degree != other.degree:
            return False
        return [p.images for p in self.elements] == [p.images for p in other.elements]

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Group({self.name!r}, degree={self.degree}, order={self.order})"


def conj_images(G: Group, g: int, xs: Iterable[int]) -> tuple[int, ...]:
    """The conjugates g^-1 x g of the ids xs, in order, read off the table
    rows as row(row(g^-1)[x])[g]."""
    rows = G.rows()
    return tuple(map(itemgetter(g), map(rows.__getitem__, map(rows[G.inv(g)].__getitem__, xs))))


def group_from_generators(degree: int, gens: Sequence, name: str = "G") -> Group:
    """Enumerate the group generated by ``gens`` (one-line images or Perms).
    The elements follow from the degree and the generators, so a live group
    made here from the same degree, name and generators is not enumerated again."""
    if degree < 1:
        raise NotAPermutation("degree must be at least 1")
    cap = order_cap()
    if degree > cap:  # before the identity of that degree is built
        raise OrderCapExceeded(f"degree {degree} exceeds cap {cap}")
    perms = [Perm.checked(g.images if isinstance(g, Perm) else g, degree) for g in gens]
    key = (degree, name, tuple(g.images for g in perms))
    G = _GROUPS.get(key)
    if G is not None and G.order <= cap:  # over the cap, enumerating raises
        return G
    ident = Perm.identity(degree)
    seen = {ident.images: ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for g in perms:
                prod = w * g
                if prod.images not in seen:
                    seen[prod.images] = prod
                    nxt.append(prod)
                    if len(seen) > cap:
                        raise OrderCapExceeded(f"group order exceeds cap {cap}")
        frontier = nxt
    G = _GROUPS[key] = Group._from_elements(degree, seen.values(), name, generators=perms)
    return G


class Subgroup:
    """A subgroup of a fixed parent group, stored as a bitmask of element ids."""

    __slots__ = ("parent", "mask", "_members", "_hash")

    def __init__(self, parent: Group, mask: int):
        self.parent = parent
        self.mask = mask
        self._members = None
        self._hash = None

    @property
    def members(self) -> tuple[int, ...]:
        if self._members is None:  # the group keeps one tuple per mask
            table, m = self.parent._members, self.mask
            self._members = table.get(m) or table.setdefault(m, tuple(_bits(m)))
        return self._members

    @property
    def order(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, elt: int) -> bool:
        return bool((self.mask >> elt) & 1)

    def __le__(self, other: "Subgroup") -> bool:
        return self.mask & ~other.mask == 0

    def __lt__(self, other: "Subgroup") -> bool:
        return self.mask != other.mask and self.mask & ~other.mask == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.mask == other.mask and self.parent == other.parent

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((hash(self.parent), self.mask))
        return self._hash

    def conjugate(self, g: int) -> "Subgroup":
        return Subgroup(self.parent, mask_image(self.parent.conj_map(g), self.mask))

    @memo("generating_ids")
    def generating_ids(self) -> tuple[int, ...]:
        """A short generating sequence, chosen greedily in element order.  Cached."""
        gens: list[int] = []
        cur = 1
        for x in self.members:
            if not (cur >> x) & 1:
                gens.append(x)
                cur = _closure_from_gens(self.parent, gens)
                if cur == self.mask:
                    break
        return tuple(gens)

    def is_abelian(self) -> bool:
        return centralizer(self, self).mask == self.mask

    @memo("order_classes")
    def order_classes(self) -> dict[int, tuple[int, ...]]:
        """The members by element order, each class in member order.  Cached."""
        G, classes = self.parent, {}
        for x in self.members:
            classes.setdefault(G.element_order(x), []).append(x)
        return {o: tuple(xs) for o, xs in classes.items()}

    def element_orders(self) -> dict[int, int]:
        return {o: len(xs) for o, xs in self.order_classes().items()}

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent.name})"


def subgroup_key(s: Subgroup) -> tuple[int, int]:
    """Canonical sort key: by order, then bitmask."""
    return (s.order, s.mask)


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(ids: Iterable[int]) -> int:
    """The bitmask of a collection of element ids."""
    mask = 0
    for i in ids:
        mask |= 1 << i
    return mask


def mask_image(mapping, mask: int) -> int:
    """Apply an element-index map (dict or table) to a bitmask of element ids."""
    out = 0
    for x in _bits(mask):
        out |= 1 << mapping[x]
    return out


def _closure_mask(G: Group, mask: int) -> int:
    """Close a set of element ids under multiplication (uses it as generators)."""
    return _closure_from_gens(G, list(_bits(mask)))


def _closure_from_gens(G: Group, gens: Sequence[int]) -> int:
    return _closure_within(G, gens, G.order)


def _closure_within(G: Group, gens: Sequence[int], most: int) -> int:
    """The mask of the subgroup generated by gens, by Dimino's algorithm
    (Holt, Eick and O'Brien, 2005): the first generator gives its powers, a
    generator in the subgroup H so far costs one bit test, and each other x
    adds the right cosets of H in <H, x>, one coset step (``_coset_join``).
    The mask is exact when the subgroup has at most ``most`` elements; else
    the growth stops at a mask of more than ``most`` elements."""
    WORK["closure"] += 1
    rows, mask, used = G.rows(), 1, []
    for x in gens:
        if (mask >> x) & 1:
            continue
        WORK["coset_step"] += 1
        used.append(x)
        if mask == 1:  # the powers of x
            y = x
            while y:
                mask |= 1 << y
                y = rows[y][x]
        else:
            h_rows = list(map(rows.__getitem__, _bits(mask)))
            mask = _coset_join(rows, h_rows, mask, x, used, most // len(h_rows))[0]
        if mask.bit_count() > most:
            break
    return mask


# -- subgroup enumeration ---------------------------------------------------

def subgroups(G: Group) -> list[Subgroup]:
    """All subgroups of G, ordered by (order, bitmask)."""
    if G.order > order_cap():
        raise OrderCapExceeded(f"group of order {G.order} exceeds cap")
    return subgroups_of(G.full_subgroup())


@memo("subgroups_of")
def subgroups_of(S: Subgroup) -> list[Subgroup]:
    """All subgroups of the subgroup S, ordered by (order, bitmask).  Cached.
    The subgroups of S are the H <= S in the lattice of any T >= S, and a
    filter keeps the order: so the smallest such lattice that S's group
    holds is filtered, and only a group holding none joins cosets."""
    held = [lat for (t,), lat in S.parent._caches.get("subgroups_of", {}).items()
            if not S.mask & ~t]
    if not held:
        return _joined_lattice(S)
    return [H for H in min(held, key=len) if not H.mask & ~S.mask]


def _joined_lattice(S: Subgroup) -> list[Subgroup]:
    """Cyclic extension over S-conjugacy classes: only one representative H of
    each class is joined with the cyclic representatives r (one element per
    cyclic subgroup of S), and a new join brings in its whole S-orbit, closed
    under conjugation by the generators of S.  Every class is reached: let
    K = <K', x> with K' = H^g for a representative H and g in S.  Then
    K = <H, x^(g^-1)>^g, and <x^(g^-1)> = <r> for a cyclic representative r,
    so <H, r> = <H, x^(g^-1)> is joined and K is in its orbit.  Every
    subgroup is a chain of cyclic extensions of 1, so induction along the
    chain reaches them all.

    Joins known to repeat are skipped: <H, h*x*h'> = <H, x> for all h, h'
    in H, since each generates the other with H.  So after joining x, the
    right coset Hx is covered, and after a join that is all of S its whole
    double coset HxH, grown from Hx by right multiplication with H's
    generators.  The growth waits for [S:H] not prime (``most > 1``): at a
    prime index every x outside H joins to S after one coset, so the growth
    costs more than the joins it saves.
    """
    G = S.parent
    # one representative per cyclic subgroup: <x'> = <x> gives the same joins
    cyc_rep: dict[int, int] = {}
    for x in S.members:
        m = _closure_from_gens(G, [x])
        cyc_rep.setdefault(m, x)
    reps = [cyc_rep[m] for m in sorted(cyc_rep)]

    rows = G.rows()
    gens_s = S.generating_ids()
    # conjugation by a generator central in S fixes every subgroup of S; the
    # orbit step reads it on S's members only, so only they are conjugated
    conj = [dict(zip(S.members, conj_images(G, g, S.members)))
            for g in gens_s if any(rows[g][h] != rows[h][g] for h in gens_s)]
    known = {1}
    layer: list[tuple[int, tuple[int, ...]]] = [(1, ())]
    while layer:
        nxt = []
        for mask, gens in layer:
            covered = mask
            h_rows = [rows[h] for h in _bits(mask)]
            # a proper subgroup of S above H has index at least the least
            # prime q of [S:H], so it holds at most [S:H]/q cosets of H
            index = S.order // len(h_rows)
            most = index // next((q for q in range(2, index + 1) if index % q == 0), 1)
            for x in reps:
                if (covered >> x) & 1:
                    continue
                WORK["lattice_join"] += 1
                new_gens = gens + (x,)
                j, hx = _coset_join(rows, h_rows, mask, x, new_gens, most)
                if j.bit_count() > most * len(h_rows):  # Lagrange leaves only S
                    j = S.mask
                    if most > 1:  # cover the double coset HxH
                        hx = _coset_join(rows, h_rows, 0, x, gens, index)[0]
                covered |= hx
                if j not in known:
                    known.add(j)
                    orbit = [(j, new_gens)]
                    for k, k_gens in orbit:  # orbit grows while we walk it
                        for cm in conj:
                            c_gens = tuple(cm[y] for y in k_gens)
                            if all((k >> y) & 1 for y in c_gens):
                                continue  # k^g is generated inside k, so it is k
                            c = mask_image(cm, k)
                            if c not in known:
                                known.add(c)
                                orbit.append((c, c_gens))
                    nxt.append((j, new_gens))
        layer = nxt
    return sorted((Subgroup(G, m) for m in known), key=subgroup_key)


def _coset_join(rows, h_rows: list, mask: int, x: int, gens: Sequence[int], most: int) -> tuple[int, int]:
    """``mask`` with the right cosets H*r of the subgroup H (its table rows)
    for r in x*<gens>, grown from H*x by right multiplication with gens,
    which permutes the right cosets, reading products off the table
    ``rows``.  From H's mask, with gens generating H with x, this is <H, x>
    (Dimino's step); from 0, with gens generating H, the double coset HxH.
    The growth stops once it has reached ``most`` cosets besides H.  Also
    returns the mask of H*x."""
    hx = 0
    for h_row in h_rows:
        hx |= 1 << h_row[x]
    mask |= hx
    reps = [x]
    for r in reps:  # reps grows while we walk it
        if len(reps) >= most:
            break
        row = rows[r]
        for g in gens:
            y = row[g]
            if not (mask >> y) & 1:
                reps.append(y)
                for h_row in h_rows:
                    mask |= 1 << h_row[y]
    return mask, hx


def normal_subgroups(G: Group) -> list[Subgroup]:
    """All normal subgroups, ordered by (order, bitmask): the members of the
    cached subgroup lattice that are normal in G."""
    full = G.full_subgroup()
    return [N for N in subgroups_of(full) if is_normal_in(N, full)]


@memo("conjugacy_classes")
def conjugacy_classes(G: Group) -> list[tuple[int, int]]:
    """The conjugacy classes as (least element, class mask) pairs, cached.
    A class is grown by its images under the generators of G until they fix it."""
    maps = [G.conj_map(g) for g in G.full_subgroup().generating_ids()]
    seen = 0
    classes = []
    for x in range(G.order):
        if not (seen >> x) & 1:
            cls, prev = 1 << x, 0
            while cls != prev:
                prev = cls
                for cm in maps:
                    cls |= mask_image(cm, cls)
            classes.append((x, cls))
            seen |= cls
    return classes


# -- the standard subgroup constructions -------------------------------------

def center(S: Subgroup) -> Subgroup:
    return centralizer(S, S)


# centralizer and normalizer sit in the fusion layer's inner loops, so their
# loops are written out rather than built from mask_of over generators


def centralizer(ambient: Subgroup, Q: Subgroup) -> Subgroup:
    """The g in ambient with g*x = x*g for every generating id x of Q, read
    off the table rows; commuting with generators is commuting with Q."""
    _check_same_parent(ambient, Q)
    G = ambient.parent
    rows = G.rows()
    cols = [(x, rows[x]) for x in Q.generating_ids()]
    mask = 0
    for g in ambient.members:
        row = rows[g]
        if all(row[x] == row_x[g] for x, row_x in cols):
            mask |= 1 << g
    return Subgroup(G, mask)


def normalizer(ambient: Subgroup, Q: Subgroup) -> Subgroup:
    """The g in ambient that conjugate every generating id x of Q into Q,
    reading g^-1 x g off the table rows as ``conj_images`` does; Q^g is
    generated by those conjugates, so Q^g <= Q, and Q^g = Q by order."""
    _check_same_parent(ambient, Q)
    G = ambient.parent
    rows = G.rows()
    qmask = Q.mask
    gens = Q.generating_ids()
    mask = 0
    for g in ambient.members:
        row_inv = rows[G.inv(g)]
        for x in gens:
            if not (qmask >> rows[row_inv[x]][g]) & 1:
                break
        else:
            mask |= 1 << g
    return Subgroup(G, mask)


def commutator(G: Group, a: int, b: int) -> int:
    """[a, b] = a^-1 b^-1 a b."""
    return G.mul(G.mul(G.mul(G.inv(a), G.inv(b)), a), b)


def commutator_subgroup(A: Subgroup, B: Subgroup) -> Subgroup:
    _check_same_parent(A, B)
    G = A.parent
    return G.subgroup_of({commutator(G, a, b) for a in A.members for b in B.members})


def omega1(S: Subgroup, p: int) -> Subgroup:
    """Subgroup generated by the elements of S of order dividing p."""
    G = S.parent
    return G.subgroup_of(x for x in S.members if G.element_order(x) in (1, p))


def thompson_subgroup(S: Subgroup) -> Subgroup:
    """Join of the abelian subgroups of S of maximal order."""
    abelian = [T for T in subgroups_of(S) if T.is_abelian()]
    top = max(T.order for T in abelian)
    return S.parent.subgroup_of(x for T in abelian if T.order == top for x in T.members)


@memo("sylow")
def sylow(G: Group, p: int) -> Subgroup:
    """One Sylow p-subgroup, grown greedily in canonical element order.  Cached.

    No p-subgroup has more than |G|_p elements, so a trial closure <S, x> is
    given up once it holds more, and the scan ends when S has |G|_p
    elements: every later trial would be given up."""
    _check_prime(p)
    most = 1
    while G.order % (most * p) == 0:
        most *= p
    cur_gens: list[int] = []
    cur_mask = 1
    changed = True
    while changed and cur_mask.bit_count() < most:
        changed = False
        for x in range(G.order):
            if (cur_mask >> x) & 1:
                continue
            if not _is_p_power(G.element_order(x), p):
                continue
            m = _closure_within(G, cur_gens + [x], most)
            if m.bit_count() <= most and _is_p_power(m.bit_count(), p):
                cur_gens.append(x)
                cur_mask = m
                changed = True
                if m.bit_count() == most:
                    break
    return Subgroup(G, cur_mask)


@memo("core_p")
def core_p(G: Group, p: int) -> Subgroup:
    """O_p(G): the intersection of all conjugates of a Sylow p-subgroup P,
    which is the largest subset of P that conjugation fixes.  P is cut down
    to its meets with its images under the generators of G until no
    generator moves it: a subset M with M^g = M for every generator g."""
    maps = [G.conj_map(g) for g in G.full_subgroup().generating_ids()]
    mask, prev = sylow(G, p).mask, 0
    while mask != prev:
        prev = mask
        for cm in maps:
            mask &= mask_image(cm, mask)
    return Subgroup(G, mask)


@memo("core_pprime")
def core_pprime(G: Group, p: int) -> Subgroup:
    """O_p'(G): join of the normal closures that are p'-subgroups."""
    _check_prime(p)
    acc = 1
    for x, cls in conjugacy_classes(G):
        if (acc >> x) & 1:
            continue
        if G.element_order(x) % p == 0:
            continue
        N = _closure_mask(G, cls)  # the normal closure of x
        if N.bit_count() % p != 0:
            acc = _closure_mask(G, acc | N)
    return Subgroup(G, acc)


def join(A: Subgroup, B: Subgroup) -> Subgroup:
    _check_same_parent(A, B)
    if B.mask & ~A.mask == 0:
        return A
    if A.mask & ~B.mask == 0:
        return B
    return Subgroup(A.parent, _closure_mask(A.parent, A.mask | B.mask))


def meet(A: Subgroup, B: Subgroup) -> Subgroup:
    _check_same_parent(A, B)
    return Subgroup(A.parent, A.mask & B.mask)


def set_product(A: Subgroup, B: Subgroup) -> Subgroup:
    """The set AB, provided it is a subgroup.  AB lies in <A, B> and has
    |A|*|B|/|A n B| elements.  A subgroup AB holds A and B, so it is <A, B>;
    and when |<A, B>|*|A n B| = |A|*|B|, AB fills <A, B>.  So AB is a
    subgroup exactly when that holds, and it is then <A, B>."""
    J = join(A, B)
    if J.order * (A.mask & B.mask).bit_count() != A.order * B.order:
        raise ProductNotASubgroup("the set product AB is not closed under multiplication")
    return J


def is_normal_in(Q: Subgroup, ambient: Subgroup) -> bool:
    G = Q.parent
    qmask = Q.mask
    for g in ambient.generating_ids():
        cm = G.conj_map(g)
        for x in Q.members:
            if not (qmask >> cm[x]) & 1:
                return False
    return True


def central_preimage(Q: Subgroup, prev: int) -> int:
    """The mask of the x in Q with [x, Q] inside the subgroup mask prev."""
    G = Q.parent
    mem = Q.members
    return mask_of(x for x in mem if all((prev >> commutator(G, x, q)) & 1 for q in mem))


def upper_central_series(Q: Subgroup) -> list[Subgroup]:
    """1 = Z_0 <= Z_1 <= ... up to the hypercenter of Q."""
    G = Q.parent
    series = [Subgroup(G, 1)]
    while series[-1].mask != Q.mask:
        nxt = central_preimage(Q, series[-1].mask)
        if nxt == series[-1].mask:
            break
        series.append(Subgroup(G, nxt))
    return series


# -- quotients ---------------------------------------------------------------

def quotient_group(S: Group | Subgroup, N: Subgroup) -> tuple[Group, tuple[int, ...]]:
    """The coset action of S on N\\S, plus the projection as the tuple of the
    images of S.members.

    S is a subgroup of a group G, or G itself for its full subgroup.  The
    quotient of G is named "G/|N|" and generated by the images of G's
    generators; that of a subgroup S is named "G|{|S|}/{|N|}" and generated
    by the images of S.generating_ids(), or the identity when S is trivial.
    Cosets are numbered by their least element, so the construction is
    deterministic; the action is faithful for S/N because N is normal in S.
    Products, and the quotient's table, are read off the rows of G's table.
    """
    if S.__class__ is Subgroup:
        G = S.parent
        name = f"{G.name}|{S.order}"
        gens = S.generating_ids() or (0,)
    else:
        G, S = S, S.full_subgroup()
        name = G.name
        gens = [G.index_of(gp) for gp in G.generators]
    if N.parent != G or not N <= S:
        raise NotASubgroup("N does not lie in S")
    if not is_normal_in(N, S):
        raise NotNormal("N is not normal in S")
    rows = G.rows()
    coset = [-1] * G.order  # the coset number of each member of S, then its id in Q
    reps = []
    for x in S.members:
        if coset[x] == -1:
            for n in N.members:
                coset[rows[n][x]] = len(reps)
            reps.append(x)
    rep_rows = [rows[r] for r in reps]
    images = {g: tuple(coset[row[g]] for row in rep_rows) for g in S.members}
    perms = {img: Perm(img) for img in images.values()}
    Q = Group._from_elements(len(reps), perms.values(), f"{name}/{N.order}",
                             generators=[perms[images[g]] for g in gens])
    lift = [0] * len(reps)
    for r in reps:
        lift[Q._index[images[r]]] = r
    for x in S.members:
        coset[x] = Q._index[images[x]]
    Q._read_table(G, lift, coset)
    return Q, tuple(map(coset.__getitem__, S.members))


# -- homomorphisms -----------------------------------------------------------

class GroupHom:
    """An injective homomorphism between subgroups, stored as ``images``: the
    tuple of the images of ``domain.members``, in that order.

    Two homs are equal when they have the same domain, the same codomain
    parent group, and the same images; the codomain subgroup itself is just
    a typing envelope.
    """

    __slots__ = ("domain", "codomain", "images", "_map", "_img_mask")

    def __init__(self, domain: Subgroup, codomain: Subgroup, images: Iterable[int],
                 image_mask: Optional[int] = None):
        """images must align with domain.members; image_mask, when given,
        must be their mask."""
        self.domain = domain
        self.codomain = codomain
        self.images = tuple(images)
        self._map = None
        self._img_mask = image_mask

    @classmethod
    def from_map(cls, domain: Subgroup, codomain: Subgroup, m) -> "GroupHom":
        """The hom given by a dict, or a list of (source, image) pairs, whose
        sources are exactly the domain's members."""
        m = dict(m)
        if len(m) != domain.order or not all(map(m.__contains__, domain.members)):
            raise NotAHomomorphism("map is not total on the domain")
        return cls(domain, codomain, map(m.__getitem__, domain.members))

    @classmethod
    def identity(cls, Q: Subgroup) -> "GroupHom":
        return cls(Q, Q, Q.members, Q.mask)

    @classmethod
    def inclusion(cls, Q: Subgroup, R: Subgroup) -> "GroupHom":
        if not Q <= R:
            raise NotASubgroup("inclusion requires Q <= R")
        return cls(Q, R, Q.members, Q.mask)

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The (source, image) pairs, sorted by source."""
        return tuple(zip(self.domain.members, self.images))

    @property
    def mapping(self) -> dict[int, int]:
        if self._map is None:
            self._map = dict(zip(self.domain.members, self.images))
        return self._map

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    @property
    def image_mask(self) -> int:
        if self._img_mask is None:
            self._img_mask = mask_of(self.images)
        return self._img_mask

    def image(self) -> Subgroup:
        return Subgroup(self.codomain.parent, self.image_mask)

    def is_identity_map(self) -> bool:
        return self.images == self.domain.members

    def restriction(self, Q: Subgroup) -> "GroupHom":
        """Restrict to Q <= domain; the codomain becomes the image of Q."""
        return _hom_onto(Q, self.codomain.parent, map(self.mapping.__getitem__, Q.members))

    def inverse(self) -> "GroupHom":
        back = dict(zip(self.images, self.domain.members))
        return GroupHom(self.image(), self.domain, map(back.__getitem__, sorted(back)),
                        self.domain.mask)

    def then(self, other: "GroupHom") -> "GroupHom":
        """Left-to-right composite; other must be defined on this image."""
        return _hom_onto(self.domain, other.codomain.parent,
                         map(other.mapping.__getitem__, self.images))

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupHom):
            return NotImplemented
        return (self.images == other.images and self.domain == other.domain
                and self.codomain.parent == other.codomain.parent)

    def __hash__(self) -> int:
        return hash((self.domain.mask, hash(self.domain.parent), hash(self.codomain.parent),
                     self.images))

    def __repr__(self) -> str:
        return (f"GroupHom({self.domain.order}->{self.image_mask.bit_count()}"
                f" in {self.codomain.parent.name})")


def _hom_onto(domain: Subgroup, parent: Group, images: Iterable[int]) -> GroupHom:
    """The hom with these images of domain.members, onto its image in parent."""
    images = tuple(images)
    img = mask_of(images)
    return GroupHom(domain, Subgroup(parent, img), images, img)


def hom_key(h: GroupHom) -> tuple:
    """Canonical sort key for homs: domain order/mask, image mask, images.
    On one domain, images sort as the (source, image) pairs would."""
    return (h.domain.order, h.domain.mask, h.image_mask, h.images)


def hom_build(domain: Subgroup, codomain: Subgroup,
              gen_images: Sequence[tuple[int, int]]) -> GroupHom:
    """The unique multiplicative extension of generator images, validated.

    x*s gets img(x)*t on the first visit of a breadth-first walk from 1 along
    the (source s, image t) pairs, so each source gets its image.  The map on
    the subgroup walked is a hom exactly when it sends that subgroup's Cayley
    edges to Cayley edges."""
    given = {0: 0}
    for s, t in gen_images:
        if s not in domain:
            raise NotASubgroup("generator source outside the domain")
        if given.setdefault(s, t) != t:
            raise NotAHomomorphism("conflicting generator images")
    mul, rows = domain.parent.mul, codomain.parent.rows()
    img, walk = {0: 0}, [0]
    for x in walk:  # walk grows while we walk it
        for s, t in given.items():
            y = mul(x, s)
            if y not in img:
                img[y] = rows[img[x]][t]
                walk.append(y)
    S = Subgroup(domain.parent, mask_of(walk))
    images = tuple(map(img.__getitem__, S.members))
    if not maps_cayley_edges(cayley_columns(S), images, codomain.parent):
        raise NotAHomomorphism("generator images do not extend multiplicatively")
    if S.mask != domain.mask:
        raise DoesNotGenerate("the listed sources do not generate the domain")
    used = mask_of(images)
    if used.bit_count() != len(images):
        raise NotInjective("the extension is not injective")
    if used & ~codomain.mask:
        raise ImageEscapesCodomain("image is not contained in the codomain")
    return GroupHom(domain, codomain, images, used)


@memo("cayley_columns")
def cayley_columns(S: Subgroup) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The Cayley edges (x, x*g) of S for its generating ids g, as positions
    in S.members: one (position of g, positions of x*g for x in members) per
    g.  Raises NotASubgroup when S's mask is not a subgroup: a set holding 1
    and closed under right multiplication by the generating ids, which are
    picked so that they generate every member, is the group they generate.
    Cached; a mask that is not a subgroup raises again on every call."""
    if not S.mask & 1:
        raise NotASubgroup("the domain is not a subgroup")
    mul = S.parent.mul
    pos = {x: i for i, x in enumerate(S.members)}
    try:
        return tuple((pos[g], tuple([pos[mul(x, g)] for x in S.members]))
                     for g in S.generating_ids())
    except KeyError:
        raise NotASubgroup("the domain is not a subgroup") from None


def maps_cayley_edges(cols, imgs: Sequence[int], H: Group) -> bool:
    """Whether the map members[i] -> imgs[i] of a subgroup S into H sends
    S's Cayley edges (``cayley_columns(S)``) to Cayley edges: f(x*g) =
    f(x)*f(g) for every member x and generating id g.  With f(1) = 1 that
    makes f multiplicative: f(x*y) = f(x)*f(y) follows by induction on the
    length of y as a word in the generating ids."""
    rows = list(map(H.rows().__getitem__, imgs))
    for at, col in cols:
        if list(map(itemgetter(imgs[at]), rows)) != list(map(imgs.__getitem__, col)):
            return False
    return True


def _cayley_levels(G: Group, gens: Sequence[int]) -> list[tuple[list, list]]:
    """One level per prefix A_k = <g_0..g_k> of the generator chain: the BFS
    tree edges (b, a, j), b = a*g_j, that reach the elements new in A_k, and
    the Cayley edges (a, j, a*g_j) of A_k that no earlier level covers.

    A map defined along the tree edges is a homomorphism on A_k exactly when
    it respects every Cayley edge of A_k: img(a*g_j) = img(a)*img(g_j).
    """
    mul = G.mul
    mask = 1
    elts = [0]
    levels = []
    for k in range(len(gens)):
        tree, edges = [], []
        n_old = len(elts)
        for i, a in enumerate(elts):  # elts grows while we walk it
            # A_{k-1} is closed under g_0..g_{k-1}: old elements need only g_k
            for j in range(k if i < n_old else 0, k + 1):
                c = mul(a, gens[j])
                if (mask >> c) & 1:
                    edges.append((a, j, c))
                else:
                    mask |= 1 << c
                    elts.append(c)
                    tree.append((c, a, j))
        levels.append((tree, edges))
    return levels


@memo("cayley_levels")
def _levels_of(A: Subgroup, gens: tuple[int, ...]) -> list[tuple[list, list]]:
    """_cayley_levels along gens, a generating sequence of A.  Cached per
    (A, gens): the searches from A and A's automorphism chain read it."""
    return _cayley_levels(A.parent, gens)


def _extend_level(level: tuple[list, list], img: list[int], gen_img: Sequence[int], rows,
                  used: int) -> Optional[int]:
    """Extend img over one level of _cayley_levels, given the images of the
    generators, reading products off the codomain's ``rows()``.  Returns the
    mask of all images so far, or None when an image repeats or a Cayley
    edge fails."""
    tree, edges = level
    for b, a, j in tree:
        y = img[b] = rows[img[a]][gen_img[j]]
        if (used >> y) & 1:
            return None
        used |= 1 << y
    for a, j, c in edges:
        if rows[img[a]][gen_img[j]] != img[c]:
            return None
    return used


def conjugation_hom(g: int, Q: Subgroup, R: Subgroup) -> GroupHom:
    """theta_g : x -> g^-1 x g as a hom Q -> R; requires Q^g <= R."""
    _check_same_parent(Q, R)
    G = Q.parent
    images = tuple(map(G.conj_map(g).__getitem__, Q.members))
    for x, y in zip(Q.members, images):
        if y not in R:
            raise ConjugateEscapes(f"conjugate of element {x} lands outside R")
    return GroupHom(Q, R, images)


def pushed_images(xs: Sequence[int], ys: Sequence[int], m) -> tuple[int, int, tuple[int, ...]]:
    """The push of the map xs[i] -> ys[i] through the element map m (a dict
    or table defined on xs and ys): the map m(x) -> m(y), as the masks of its
    domain and image and the images of the domain's members in order.
    Raises InvariantViolation when two x with one m(x) have different m(y)."""
    get = m.__getitem__
    out = dict(zip(map(get, xs), map(get, ys)))
    if len(out) < len(ys) and any(out[get(x)] != get(y) for x, y in zip(xs, ys)):
        raise InvariantViolation("the induced map is not well defined")
    images = tuple(map(out.__getitem__, sorted(out)))
    return mask_of(out), mask_of(images), images


def induced_hom(h: GroupHom, m, G: Group) -> GroupHom:
    """The hom m(domain) -> m(image) in G that h induces under the element
    map m; systems push image tuples alone (``pushed_images``)."""
    dom, img, images = pushed_images(h.domain.members, h.images, m)
    return GroupHom(Subgroup(G, dom), Subgroup(G, img), images, img)


# -- isomorphism search ------------------------------------------------------

def _order_histogram(S: Subgroup) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(S.element_orders().items()))


def isomorphisms_between(A: Subgroup, B: Subgroup) -> list[GroupHom]:
    """The first isomorphism A -> B that backtracking over the images of
    A.generating_ids() finds, as a one-element list; [] when there is none.
    Each candidate image is checked on the Cayley edges of its level."""
    if A.order != B.order or _order_histogram(A) != _order_histogram(B):
        return []
    got = _IsoSearch(A, B, A.generating_ids()).first(0, 1)
    return [] if got is None else [GroupHom(A, B, got, B.mask)]


class _IsoSearch:
    """Backtracking for isomorphisms A -> B over the images of gens, a
    generating sequence of A, one level of _cayley_levels per generator.

    ``img`` holds the image of each element of A's parent reached so far and
    ``gen_img`` the images of gens; both start as the identity.  A candidate
    image of a generator is a member of B of its order (``order_classes``)
    and is kept when its level extends.  The levels and the classes are read
    from the memos of A and B, so a search pays only for its backtrack.
    """

    def __init__(self, A: Subgroup, B: Subgroup, gens: tuple[int, ...]):
        GA = A.parent
        self.A, self.gens = A, gens
        self.levels = _levels_of(A, gens)
        self.rows = B.parent.rows()
        self.img = list(range(GA.order))
        self.gen_img = list(gens)
        classes = B.order_classes()
        self.candidates = [classes.get(GA.element_order(g), ()) for g in gens]

    def extend(self, k: int, y: int, used: int) -> Optional[int]:
        """Send gens[k] to y and extend img over its level (see _extend_level)."""
        self.gen_img[k] = y
        return _extend_level(self.levels[k], self.img, self.gen_img, self.rows, used)

    def first(self, k: int, used: int) -> Optional[tuple[int, ...]]:
        """The images of A.members under the first isomorphism found that
        agrees with img on <gens[:k]>, whose images have the mask used."""
        if k == len(self.gens):
            return tuple(map(self.img.__getitem__, self.A.members))
        for y in self.candidates[k]:
            if not (used >> y) & 1:
                u = self.extend(k, y, used)
                if u is not None:
                    got = self.first(k + 1, u)
                    if got is not None:
                        return got
        return None


def isomorphism_search(G: Group, H: Group) -> Optional[GroupHom]:
    """An isomorphism G -> H if one exists (deterministic), else None."""
    if G.order > DEFAULT_ISO_CAP or H.order > DEFAULT_ISO_CAP:
        raise OrderCapExceeded(f"isomorphism search capped at order {DEFAULT_ISO_CAP}")
    if G.order != H.order:
        return None
    res = isomorphisms_between(G.full_subgroup(), H.full_subgroup())
    return res[0] if res else None


# -- automorphisms: a stabilizer chain ---------------------------------------

def _chain_gens(Q: Subgroup) -> tuple[int, ...]:
    """A short generating sequence of Q for the stabilizer chain: each next
    generator is the member whose closure with those before it is largest
    (the first in element order on ties), and a generator that the others
    generate is then dropped.  A member of a closure already tried cannot
    do better than the member that gave it, so it is not tried.  No
    generator is generated by the others, so for a p-group the sequence is
    a minimal generating set (Burnside's basis theorem).

    The chain search runs one backtrack per candidate image of each
    generator, and a candidate that extends to no automorphism is refuted
    only after the levels below it are exhausted; few generators keep those
    levels few.  On C2 wr C2 wr C2, generating_ids() has 7 generators and
    its chain takes 273,472 level extensions; this sequence has 3.
    """
    G = Q.parent
    gens: list[int] = []
    cur = 1
    while cur != Q.mask:
        best = tried = cur
        pick = 0
        for x in Q.members:
            if not (tried >> x) & 1:
                got = _closure_from_gens(G, gens + [x])
                tried |= got
                if got.bit_count() > best.bit_count():
                    best, pick = got, x
                    if got == Q.mask:
                        break
        gens.append(pick)
        cur = best
    for g in tuple(gens):
        rest = [h for h in gens if h != g]
        if _closure_from_gens(G, rest) == Q.mask:
            gens = rest
    return tuple(gens)


@memo("aut_chain")
def _aut_chain(Q: Subgroup) -> tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]:
    """The stabilizer chain of Aut(Q) along _chain_gens(Q), as one pair
    (g_i, T_i) of a generator and its transversal per level.  Cached.

    With g_0..g_{k-1} that sequence and A_i the automorphisms that fix
    g_0..g_{i-1}, Aut(Q) = A_0 >= A_1 >= ... >= A_k = 1 (Holt, Eick and
    O'Brien, Handbook of Computational Group Theory, 2005).  Maps compose
    left to right: "a then t" applies a first.  If t in A_i sends g_i to y,
    the elements of A_i that send g_i to y are exactly "a then t" with a in
    A_{i+1}, since such an s gives a = "s then t^-1", which fixes g_0..g_i.
    So the cosets of A_{i+1} in A_i match the images y of g_i under A_i,
    and T_i holds one automorphism per image y != g_i: the first the search
    finds with g_0..g_{i-1} fixed and g_i sent to y.  Such a y has the order
    of g_i and lies outside <g_0..g_{i-1}>, which A_i fixes pointwise; a
    candidate that extends to no automorphism is not an image.
    """
    G = Q.parent
    gens = _chain_gens(Q)
    chain = []
    for i, g in enumerate(gens):
        search = _IsoSearch(Q, Q, gens)  # starts as the identity on <g_0..g_{i-1}>
        fixed = _closure_from_gens(G, gens[:i])
        T = []
        for y in search.candidates[i]:
            if y != g and not (fixed >> y) & 1:
                used = search.extend(i, y, fixed)
                t = None if used is None else search.first(i + 1, used)
                if t is not None:
                    T.append(t)
        chain.append((g, tuple(T)))
    return tuple(chain)


def aut_images(Q: Subgroup) -> list[tuple[int, ...]]:
    """All automorphisms of Q as the images of Q.members, sorted.

    Listed bottom-up from the stabilizer chain (see _aut_chain), none
    searched for or listed twice.  A_i is the disjoint union of the cosets
    A_{i+1}t = {"a then t" : a in A_{i+1}}, t in T_i or the identity.
    Inversion maps A_i onto itself and A_{i+1}t onto t^-1 A_{i+1}, so the
    inverses of the transversal are a transversal on the other side: each
    element of A_i is "t^-1 then a" for exactly one such a and t.  It sends
    x to a(t^-1(x)), so its images are a's read at the positions of t^-1:
    one itemgetter call per automorphism."""
    auts = [Q.members]
    for _, T in reversed(_aut_chain(Q)):
        new: list[tuple[int, ...]] = []
        for t in T:  # t^-1(members[j]) = members[i] for the i of the j-th least t[i]
            new += map(itemgetter(*sorted(range(len(t)), key=t.__getitem__)), auts)
        auts += new  # the old auts: A_{i+1}
    auts.sort()
    return auts


def automorphisms(Q: Subgroup) -> list[GroupHom]:
    """All automorphisms of Q, sorted by hom_key, which orders them as their images."""
    return [GroupHom(Q, Q, a, Q.mask) for a in aut_images(Q)]


def _aut_gens(Q: Subgroup) -> list[tuple[int, ...]]:
    """A generating set of Aut(Q) as image tuples: the transversal elements
    of its chain (see _aut_chain), read bottom-up, that move g_i outside the
    orbit of g_i under those kept so far.  By induction the kept ones below
    level i generate A_{i+1}, the stabilizer of g_i in A_i; with the kept
    level-i ones they generate a K <= A_i with that stabilizer and the orbit
    of A_i, so K = A_i by orbit-stabilizer."""
    pos = {x: i for i, x in enumerate(Q.members)}
    kept: list[tuple[int, ...]] = []
    for g, T in reversed(_aut_chain(Q)):
        orbit = {g}  # the elements kept so far lie in A_{i+1}: they fix g
        for t in T:
            if t[pos[g]] not in orbit:
                kept.append(t)
                todo = list(orbit)
                while todo:
                    x = pos[todo.pop()]
                    for a in kept:
                        if a[x] not in orbit:
                            orbit.add(a[x])
                            todo.append(a[x])
    return kept


def automorphism_generators(Q: Subgroup) -> list[GroupHom]:
    """A generating set of Aut(Q), found without listing it (_aut_gens)."""
    return [GroupHom(Q, Q, t, Q.mask) for t in _aut_gens(Q)]


def characteristic_subgroups(Q: Subgroup) -> list[Subgroup]:
    """Subgroups of Q stable under every automorphism of Q.

    S is kept when a(x) is in S for every a in automorphism_generators(Q) and
    every x in S.generating_ids().  That suffices: a(S) = <a(x)> has the order
    of S, so a(S) <= S gives a(S) = S, and the automorphisms that fix S form
    a subgroup of Aut(Q), which holds Aut(Q) once it holds its generators.
    """
    auts = [dict(zip(Q.members, t)) for t in _aut_gens(Q)]
    out = []
    for S in subgroups_of(Q):
        gens = S.generating_ids()
        if all((S.mask >> m[x]) & 1 for m in auts for x in gens):
            out.append(S)
    return out


def _is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


# Miller-Rabin with the primes up to 41 as bases decides primality below this
# bound, the least strong pseudoprime to all of them (Sorenson and Webster,
# Math. Comp. 86, 2017)
PRIME_LIMIT = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(p: int) -> bool:
    """Whether p is prime, by deterministic Miller-Rabin: exact for every p
    below PRIME_LIMIT; raises OrderCapExceeded at or above it."""
    if p >= PRIME_LIMIT:
        raise OrderCapExceeded(f"primes are decided only below {PRIME_LIMIT}")
    if p < 2 or any(p % a == 0 for a in _MR_BASES):
        return p in _MR_BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # 2^s exactly divides p - 1
    d = (p - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x != 1 and p - 1 not in (pow(x, 1 << r, p) for r in range(s)):
            return False
    return True


def _check_prime(p: int):
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def _check_same_parent(A: Subgroup, B: Subgroup):
    if A.parent != B.parent:
        raise NotASubgroup("subgroups live in different parent groups")
