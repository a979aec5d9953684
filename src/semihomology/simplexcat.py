"""Normal forms and k-linear spans for the injective indexing categories.

The module kinds are named once, in ``KIND_LOWER`` with the lowest degree of
each: the index kinds ``ssimp``, ``aug_ssimp`` and ``scube``, and the chain
kinds ``chain0`` and ``chain_neg1``.  ``hom_basis`` and the strictly
decreasing basis take these names.  Three kinds of values appear, each a
tuple led by its class name, so it hashes, compares and sorts as a tuple, in
C: values of different types never compare equal, and a hom set's values
sort in basis order.

* ``InjMap`` -- order-preserving injections between the ordinals [m] =
  {0 < ... < m}, with [-1] the empty ordinal;
* ``CubeMap`` -- injective cube morphisms between the cubes of dimension m
  and n;
* ``Differential`` -- the chain-algebra generator d(n), built by ``omega_d``.

Injections and cube maps, the ``Morphism`` subclasses, are stored alike, as
a pattern with one entry per point of the target: the marker ``X`` where
the next source point lands, in order, and otherwise a constant, ``OMIT``
where an injection skips a point or the color 0 or 1 where a cube map fixes
a coordinate.  The pattern is a unique normal form, and one substitution
composes both categories and one word factors them.  It is also the
picture behind the comparison functors: j0, j1 and the sign embedding v
turn each point an injection skips into a cube coordinate holding a color.

The one-step generators of the module kinds are values of these types: a
simplicial coface delta(i, n) is the injection omitting i, a cubical coface
cube(i, eps, n) the cube map inserting eps at position i (``delta`` and
``cube_delta`` build them), and the chain kinds have d(n).  Each has
``source`` n - 1 and ``target`` n.

On top of the normal forms sit the k-linear combinations (``LinComb``),
which the package builds, composes and reads but never adds or scales, and
the functors of ``FUNCTORS``, the one table of their names: the
alternating-sum differentials carried into each index category, the two
monochromatic cube embeddings j0/j1 and the signed cube embedding v.

Composition order is fixed repo-wide: in any factor list the leftmost factor
is outermost and the rightmost acts first, so ``compose(words[0], ...,
words[-1])`` means ``words[0] o words[1] o ... o words[-1]``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from operator import itemgetter
from types import MappingProxyType
from typing import Mapping

from .exactlin import exact

# Each module kind with its lowest degree.
KIND_LOWER = {"ssimp": 0, "aug_ssimp": -1, "scube": 0, "chain0": 0, "chain_neg1": -1}
CHAIN_KINDS = ("chain0", "chain_neg1")

# The pattern entry of a point that a source point lands on.  It sorts after
# the colors 0 and 1, so the cube maps of one hom set sort in the canonical
# basis order, and before OMIT, so the injections of one hom set sort as
# their images do in ``combinations`` order: at the first point where two
# patterns differ, the smaller image lands and the larger one skips.
X = 2
OMIT = 3


def _trusted(cls, *fields):
    """The ``cls`` value (class name, *fields), unchecked: for values built from valid ones."""
    return tuple.__new__(cls, (cls.__name__, *fields))


def _repr(value) -> str:
    fields = ", ".join(f"{name}={getattr(value, name)!r}" for name in value._fields)
    return f"{type(value).__name__}({fields})"


def _fields_after_tag(value) -> tuple:
    """The constructor arguments of a tagged value, for copy and pickle."""
    return value[1:]


class Morphism(tuple):
    """A normal form of an index category, by its pattern: (class name,
    source, target, pattern).  A subclass's pattern has ``target + _offset``
    entries, ``source + _offset`` of them ``X``, each from ``_entries``, the
    allowed entries in ascending order."""

    __slots__ = ()
    _fields = ("source", "target", "pattern")
    source, target, pattern = (property(itemgetter(i)) for i in (1, 2, 3))
    __repr__ = _repr
    __getnewargs__ = _fields_after_tag

    def __new__(cls, source: int, target: int, pattern: tuple[int, ...]):
        # the counts also bound the degrees: -_offset <= source <= target
        size, lands = target + cls._offset, source + cls._offset
        if len(pattern) != size or pattern.count(X) != lands or not frozenset(pattern).issubset(cls._entries):
            raise ValueError(f"a {cls.__name__} {source} -> {target} has a pattern of {size} entries, "
                             f"{lands} of them X and the rest from {cls._entries}, got {pattern}")
        return _trusted(cls, source, target, pattern)

    def constants(self) -> tuple[tuple[int, int], ...]:
        """The points that no source point lands on, as (0-based position, entry) pairs, ascending."""
        return tuple((j, e) for j, e in enumerate(self.pattern) if e != X)


class InjMap(Morphism):
    """Order-preserving injection [source] -> [target]: X on the image, OMIT elsewhere."""

    __slots__ = ()
    _offset = 1
    _entries = (X, OMIT)

    def text(self) -> str:
        image = (j for j, e in enumerate(self.pattern) if e == X)
        return f"inj {self.source}->{self.target} {{{','.join(map(str, image))}}}"


class CubeMap(Morphism):
    """Injective cube morphism: X on the coordinates of the source, in order, a color 0 or 1 elsewhere."""

    __slots__ = ()
    _offset = 0
    _entries = (0, 1, X)

    def text(self) -> str:
        coords = iter(range(1, self.source + 1))
        tokens = [f"x{next(coords)}" if e == X else str(e) for e in self.pattern]
        return f"cube {self.source}->{self.target} [{','.join(tokens)}]"


@lru_cache(maxsize=None)
def identity_inj(n: int) -> InjMap:
    return InjMap(n, n, (X,) * (n + 1))

@lru_cache(maxsize=None)
def identity_cube(n: int) -> CubeMap:
    return CubeMap(n, n, (X,) * n)

@lru_cache(maxsize=None)
def _coface(cls, position: int, entry: int, n: int) -> Morphism:
    """The coface of cls into degree n that holds ``entry`` at the 0-based ``position``."""
    return _trusted(cls, n - 1, n, (X,) * position + (entry,) + (X,) * (n + cls._offset - position - 1))

@lru_cache(maxsize=None)
def delta(i: int, n: int) -> InjMap:
    """The coface [n-1] -> [n] omitting i, for 0 <= i <= n."""
    if not 0 <= i <= n:
        raise ValueError(f"delta index {i} out of range for degree {n}")
    return _coface(InjMap, i, OMIT, n)

@lru_cache(maxsize=None)
def cube_delta(i: int, color: int, n: int) -> CubeMap:
    """The cube coface inserting the constant ``color`` at position i, 1 <= i <= n."""
    if not 1 <= i <= n:
        raise ValueError(f"cube coface index {i} out of range for degree {n}")
    if color not in (0, 1):
        raise ValueError("color must be 0 or 1")
    return _coface(CubeMap, i - 1, color, n)


# A battery pass at truncation 6 composes about 3,400 distinct pairs, most of
# them once; 512 entries answer 68 % of its calls, and four times as many
# only 72 % at 0.5 MB more peak memory.
@lru_cache(maxsize=512)
def compose(g: Morphism, f: Morphism) -> Morphism:
    """g o f; f acts first.

    Memoized in a bounded cache: normal forms are tagged tuples, hashable
    and immutable, and the composite depends on nothing else, so a cached
    composite is the one a new call would build.  A failed composition
    raises on every call, since the cache keeps no exception.
    """
    if type(g) is not type(f):
        raise TypeError("cannot compose morphisms of different categories")
    if f.target != g.source:
        raise ValueError(f"boundary mismatch: {f.text()} then {g.text()}")
    inner = iter(f.pattern)  # f's pattern, in order, into g's X entries
    return _trusted(type(g), f.source, g.target, tuple([next(inner) if e == X else e for e in g.pattern]))


# -- chain generators ----------------------------------------------------------


class Differential(tuple):
    """The chain-algebra generator d(n), n >= 0, by its degrees: ("Differential", n - 1, n)."""

    __slots__ = ()
    _fields = ("source", "target")
    source, target = (property(itemgetter(i)) for i in (1, 2))
    __repr__ = _repr

    def __new__(cls, n: int):
        if n < 0:
            raise ValueError("d(n) needs n >= 0")
        return _trusted(cls, n - 1, n)

    def __getnewargs__(self) -> tuple:
        """The constructor argument n, for copy and pickle."""
        return (self.target,)


@lru_cache(maxsize=None)
def omega_d(n: int) -> Differential:
    return Differential(n)


Generator = Morphism | Differential


# -- linear combinations ------------------------------------------------------


class LinComb:
    """k-linear combination of parallel normal-form morphisms.

    Zero coefficients are never stored; the empty combination is the zero
    morphism between its recorded endpoints.  ``terms`` is a read-only
    mapping, because cached functor images are shared between callers.
    """

    __slots__ = ("source", "target", "terms")

    def __init__(self, source: int, target: int, terms: Mapping[Morphism, int | Fraction] | None = None):
        self.source = source
        self.target = target
        kept: dict[Morphism, int | Fraction] = {}
        if terms:
            for f, c in terms.items():
                c = exact(c)
                if not c:
                    continue
                if f.source != source or f.target != target:
                    raise ValueError("term endpoints disagree with the combination's")
                kept[f] = c
        self.terms: Mapping[Morphism, int | Fraction] = MappingProxyType(kept)

    @classmethod
    def _trusted(cls, source: int, target: int, terms: dict[Morphism, int | Fraction]) -> "LinComb":
        """The combination with these terms, taken as they are: nonzero
        canonical coefficients on morphisms source -> target.  The dict
        becomes the combination's own."""
        comb = object.__new__(cls)
        comb.source = source
        comb.target = target
        comb.terms = MappingProxyType(terms)
        return comb

    @classmethod
    def of(cls, f: Morphism) -> "LinComb":
        return cls(f.source, f.target, {f: 1})

    def single(self) -> Morphism:
        """The unique morphism, for combinations that are one term with coefficient 1."""
        if len(self.terms) != 1:
            raise ValueError("combination is not a single morphism")
        ((f, c),) = self.terms.items()
        if c != 1:
            raise ValueError("combination is not monic")
        return f

    def compose(self, other: "LinComb") -> "LinComb":
        """self o other, extended bilinearly; other acts first."""
        if other.target != self.source:
            raise ValueError("boundary mismatch in LinComb composition")
        terms: dict[Morphism, int | Fraction] = {}
        for g, cg in self.terms.items():
            for f, cf in other.terms.items():
                h = compose(g, f)
                nc = terms.get(h, 0) + cg * cf
                if nc:
                    terms[h] = nc if type(nc) is int else exact(nc)
                else:
                    terms.pop(h, None)
        return LinComb._trusted(other.source, self.target, terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinComb)
            and self.source == other.source
            and self.target == other.target
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        if not self.terms:
            return f"LinComb(0: {self.source}->{self.target})"
        parts = [f"({c})*{f.text()}" for f, c in sorted(self.terms.items())]
        return " + ".join(parts)


def compose_word(factors: list[LinComb]) -> LinComb:
    """Compose a factor list, leftmost outermost (rightmost acts first)."""
    if not factors:
        raise ValueError("cannot compose an empty word without endpoints")
    acc = factors[-1]
    for f in reversed(factors[:-1]):
        acc = f.compose(acc)
    return acc


# -- hom-set enumeration ------------------------------------------------------


@lru_cache(maxsize=None)
def hom_basis(kind: str, m: int, n: int) -> tuple[Morphism, ...]:
    """All normal-form morphisms m -> n of an index kind, duplicate-free, in
    canonical order.

    Kinds "ssimp" and "aug_ssimp": injections, C(n+1, m+1) of them;
    "scube": cube morphisms, C(n, m) * 2^(n-m) of them.
    """
    if kind not in KIND_LOWER or kind in CHAIN_KINDS:
        raise ValueError(f"kind {kind!r} has no underlying index category")
    low = KIND_LOWER[kind]
    if m < low or n < low:
        raise ValueError(f"degrees below {low} are not objects of kind {kind}")
    cls = CubeMap if kind == "scube" else InjMap
    # product yields the patterns in sorted order
    patterns = product(cls._entries, repeat=n + cls._offset)
    return tuple(_trusted(cls, m, n, p) for p in patterns if p.count(X) == m + cls._offset)


@lru_cache(maxsize=None)
def hom_index(kind: str, m: int, n: int) -> dict[Morphism, int]:
    return {f: i for i, f in enumerate(hom_basis(kind, m, n))}


# -- factorizations -----------------------------------------------------------


def coface_factorization(f: Morphism) -> list[Morphism]:
    """The strictly decreasing coface word composing to f, in either index
    category: outermost first, the k-th factor from the right inserting the
    k-th constant of f, bottom-up."""
    consts = f.constants()
    return [_coface(type(f), *consts[k - 1], f.source + k) for k in range(len(consts), 0, -1)]


# -- comparison functors ------------------------------------------------------


def _monochromatic_embedding(f: InjMap, color: int) -> CubeMap:
    """j0/j1 on a general injection: every omitted point becomes the color."""
    return _trusted(CubeMap, f.source + 1, f.target + 1, tuple([color if e == OMIT else e for e in f.pattern]))


def _sign_embedding(f: InjMap) -> LinComb:
    """v on a general injection: every omitted point becomes color 1 with
    sign +1 or color 0 with sign -1, multiplicatively."""
    choices = [(0, 1) if e == OMIT else (X,) for e in f.pattern]
    terms = {_trusted(CubeMap, f.source + 1, f.target + 1, p): (-1) ** p.count(0) for p in product(*choices)}
    return LinComb._trusted(f.source + 1, f.target + 1, terms)


def _sign_embedding_of(comb: LinComb) -> LinComb:
    """v extended linearly to a combination of injections, whose images share
    no term: a term keeps the X entries of its injection."""
    terms = {g: c * sign for f, c in comb.terms.items() for g, sign in _sign_embedding(f).terms.items()}
    return LinComb(comb.source + 1, comb.target + 1, terms)


# which -> (source kind, target kind, degree shift, image): the functor goes
# from the source kind's algebra to the target kind's, raises degrees by the
# shift, and sends a generator d(n) of a chain kind, or a normal form of an
# index kind, to image(it).
FUNCTORS = {
    "u_delta": ("chain0", "ssimp", 0, lambda d: d_lower(0, d.target, "ssimp")),
    "u_a": ("chain_neg1", "aug_ssimp", 0, lambda d: d_lower(0, d.target, "aug_ssimp")),
    "u_square": ("chain0", "scube", 0, lambda d: _sign_embedding_of(_image("u_a", omega_d(d.source)))),
    "v": ("aug_ssimp", "scube", 1, _sign_embedding),
    "j0": ("aug_ssimp", "scube", 1, lambda f: LinComb.of(_monochromatic_embedding(f, 0))),
    "j1": ("aug_ssimp", "scube", 1, lambda f: LinComb.of(_monochromatic_embedding(f, 1))),
}


def apply_functor(which: str, g) -> LinComb:
    """Apply a functor of ``FUNCTORS`` to a chain generator or a normal form.

    * u_delta / u_a / u_square take the chain generator d(n) to the signed
      coface sum in each index category (u_delta and u_square need n >= 1);
      u_square's is v applied term by term to u_a(d(n - 1)).
    * v, j0, j1 take injections, cofaces among them, to cube morphisms one
      degree up; v is the signed embedding delta^i -> delta^1_{i+1} -
      delta^0_{i+1}, extended multiplicatively.
    """
    if which not in FUNCTORS:
        raise ValueError(f"unknown functor {which!r}")
    return _image(which, g)


@lru_cache(maxsize=None)
def _image(which: str, g) -> LinComb:
    """image(g) from the table, for g a generator d(n) of a chain source kind
    or a normal form of an index source kind; cached for the whole process,
    so callers share the image."""
    src, _, _, image = FUNCTORS[which]
    expected = Differential if src in CHAIN_KINDS else InjMap
    if not isinstance(g, expected) or g.source < KIND_LOWER[src]:
        raise ValueError(f"{which} is not defined on {g!r}")
    return image(g)


def d_lower(i: int, n: int, kind: str = "ssimp") -> LinComb:
    """The alternating tail sum over cofaces j = i..n of sign (-1)^j.

    These elements satisfy d_lower(i, n+1) o d_lower(i, n) = 0 and rewrite the
    coface normal forms into the strictly decreasing monomial basis.  The
    lowest tail d_lower(0, n) is the image of the chain differential.
    """
    if not 0 <= i <= n:
        raise ValueError(f"d_lower index {i} out of range for degree {n}")
    if kind not in ("ssimp", "aug_ssimp"):
        raise ValueError(f"unknown kind {kind!r}")
    if n <= KIND_LOWER[kind]:
        raise ValueError(f"tails of kind {kind} need n >= {KIND_LOWER[kind] + 1}")
    terms: dict[Morphism, int] = {delta(j, n): (-1) ** j for j in range(i, n + 1)}
    return LinComb(n - 1, n, terms)


# -- strictly decreasing monomial basis ----------------------------------------


class DWord(tuple):
    """A strictly decreasing tail-sum monomial d_{i_n,n} ... d_{i_{m+1},m+1},
    stored as the tuple ("DWord", kind, source, target, indices).

    ``indices`` lists (i_n, ..., i_{m+1}), outermost first; the empty tuple is
    the identity of [m] = [n].
    """

    __slots__ = ()
    _fields = ("kind", "source", "target", "indices")
    kind, source, target, indices = (property(itemgetter(i)) for i in (1, 2, 3, 4))
    __repr__ = _repr
    __getnewargs__ = _fields_after_tag
    __new__ = _trusted  # DWord(kind, source, target, indices)

    def expand(self) -> LinComb:
        if not self.indices:
            return LinComb.of(identity_inj(self.source))
        return compose_word(
            [d_lower(i, self.target - k, self.kind) for k, i in enumerate(self.indices)]
        )

    def index_sum(self) -> int:
        return sum(self.indices)


def strictly_decreasing_basis(kind: str, m: int, n: int) -> list[DWord]:
    """All monomials with strictly decreasing indices i_n > ... > i_{m+1} >= 0.

    For m == n only the identity word; the family has C(n+1, m+1) members and
    expands to a basis of the injection hom-space, triangularly with respect
    to the coface normal forms.
    """
    if kind not in ("ssimp", "aug_ssimp"):
        raise ValueError(f"unknown kind {kind!r}")
    low = KIND_LOWER[kind]
    if m < low or n < low:
        raise ValueError(f"degrees below {low} are not objects of kind {kind}")
    if m > n:
        return []
    # i_n <= n and strict decrease already force i_k <= k at every stage k
    words = sorted(c[::-1] for c in combinations(range(n + 1), n - m))
    return [DWord(kind, m, n, w) for w in words]
