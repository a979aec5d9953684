"""Normal forms and k-linear spans for the injective indexing categories.

Three kinds of morphisms appear:

* ``InjMap`` -- order-preserving injections between the ordinals [m] =
  {0 < ... < m}, with [-1] the empty ordinal; stored by image subset, which
  is a unique normal form.
* ``CubeMap`` -- injective cube morphisms between the cubes of dimension m
  and n, stored as an assignment vector: output coordinate j carries either
  an input coordinate ("x1".."xm", each exactly once, in increasing order)
  or a constant "0"/"1".
* ``GeneratorId`` -- the one-step generators: simplicial cofaces delta(i, n),
  cubical cofaces cube(i, eps, n), and the chain-algebra differentials d(n).

On top of the normal forms sit the k-linear combinations (``LinComb``) and
the comparison functors: the alternating-sum differentials carried into each
index category, the two monochromatic cube embeddings j0/j1, the signed cube
embedding v, and the color-forgetting quotient q back to injections.

Composition order is fixed repo-wide: in any factor list the leftmost factor
is outermost and the rightmost acts first, so ``compose(words[0], ...,
words[-1])`` means ``words[0] o words[1] o ... o words[-1]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from types import MappingProxyType
from typing import Mapping

from .exactlin import exact


@dataclass(frozen=True, slots=True)
class InjMap:
    """Order-preserving injection [source] -> [target], stored by its image."""

    source: int
    target: int
    image: tuple[int, ...]

    def __post_init__(self):
        if self.source < -1 or self.target < -1 or self.source > self.target:
            raise ValueError(f"illegal degrees {self.source} -> {self.target}")
        if len(self.image) != self.source + 1:
            raise ValueError("image size must be source degree + 1")
        if any(b <= a for a, b in zip(self.image, self.image[1:])):
            raise ValueError("image must be strictly increasing")
        if self.image and not (0 <= self.image[0] and self.image[-1] <= self.target):
            raise ValueError("image out of range")

    def __call__(self, t: int) -> int:
        return self.image[t]

    def is_identity(self) -> bool:
        return self.source == self.target

    def complement(self) -> tuple[int, ...]:
        im = set(self.image)
        return tuple(j for j in range(self.target + 1) if j not in im)

    def text(self) -> str:
        return f"inj {self.source}->{self.target} {{{','.join(map(str, self.image))}}}"

    def sort_key(self):
        return (self.source, self.target, self.image)


@dataclass(frozen=True, slots=True)
class CubeMap:
    """Injective cube morphism, stored as its assignment vector."""

    source: int
    target: int
    assignment: tuple[str, ...]

    def __post_init__(self):
        if self.source < 0 or self.target < 0 or self.source > self.target:
            raise ValueError(f"illegal cube degrees {self.source} -> {self.target}")
        if len(self.assignment) != self.target:
            raise ValueError("assignment length must equal target degree")
        coords = [tok for tok in self.assignment if tok not in ("0", "1")]
        expected = [f"x{i}" for i in range(1, self.source + 1)]
        if coords != expected:
            raise ValueError(
                f"coordinates must be x1..x{self.source} in increasing order, got {coords}"
            )

    def is_identity(self) -> bool:
        return self.source == self.target

    def constants(self) -> tuple[tuple[int, int], ...]:
        """The inserted positions as (1-based position, color) pairs, ascending."""
        return tuple(
            (j + 1, int(tok)) for j, tok in enumerate(self.assignment) if tok in ("0", "1")
        )

    def coordinate_positions(self) -> tuple[int, ...]:
        """1-based output positions that carry an input coordinate."""
        return tuple(j + 1 for j, tok in enumerate(self.assignment) if tok not in ("0", "1"))

    def text(self) -> str:
        return f"cube {self.source}->{self.target} [{','.join(self.assignment)}]"

    def sort_key(self):
        # constants before coordinates, "0" before "1", coordinates by index
        def tok_key(tok: str):
            if tok == "0":
                return (0, 0)
            if tok == "1":
                return (0, 1)
            return (1, int(tok[1:]))

        return (self.source, self.target, tuple(tok_key(t) for t in self.assignment))


Morphism = InjMap | CubeMap


@lru_cache(maxsize=None)
def identity_inj(n: int) -> InjMap:
    return InjMap(n, n, tuple(range(n + 1)))

@lru_cache(maxsize=None)
def identity_cube(n: int) -> CubeMap:
    return CubeMap(n, n, tuple(f"x{i}" for i in range(1, n + 1)))

@lru_cache(maxsize=None)
def delta(i: int, n: int) -> InjMap:
    """The coface [n-1] -> [n] omitting i, for 0 <= i <= n."""
    if not 0 <= i <= n:
        raise ValueError(f"delta index {i} out of range for degree {n}")
    return InjMap(n - 1, n, tuple(j for j in range(n + 1) if j != i))

@lru_cache(maxsize=None)
def cube_delta(i: int, color: int, n: int) -> CubeMap:
    """The cube coface inserting the constant ``color`` at position i, 1 <= i <= n."""
    if not 1 <= i <= n:
        raise ValueError(f"cube coface index {i} out of range for degree {n}")
    if color not in (0, 1):
        raise ValueError("color must be 0 or 1")
    tokens = [f"x{j}" for j in range(1, i)] + [str(color)] + [f"x{j}" for j in range(i, n)]
    return CubeMap(n - 1, n, tuple(tokens))


def compose_inj(g: InjMap, f: InjMap) -> InjMap:
    """g o f; f acts first."""
    if f.target != g.source:
        raise ValueError(f"boundary mismatch: {f.text()} then {g.text()}")
    return InjMap(f.source, g.target, tuple(g.image[j] for j in f.image))


def compose_cube(g: CubeMap, f: CubeMap) -> CubeMap:
    """g o f by substituting f's assignment into g's coordinate tokens."""
    if f.target != g.source:
        raise ValueError(f"boundary mismatch: {f.text()} then {g.text()}")
    tokens = []
    for tok in g.assignment:
        if tok in ("0", "1"):
            tokens.append(tok)
        else:
            tokens.append(f.assignment[int(tok[1:]) - 1])
    return CubeMap(f.source, g.target, tuple(tokens))


def compose(g: Morphism, f: Morphism) -> Morphism:
    if isinstance(g, InjMap) and isinstance(f, InjMap):
        return compose_inj(g, f)
    if isinstance(g, CubeMap) and isinstance(f, CubeMap):
        return compose_cube(g, f)
    raise TypeError("cannot compose morphisms of different categories")


# -- generators --------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class GeneratorId:
    """One-step generator: delta(i, n), cube(i, color, n), or d(n)."""

    kind: str  # "delta" | "cube" | "d"
    degree: int
    index: int = 0
    color: int = 0

    def __post_init__(self):
        if self.kind == "delta":
            if not 0 <= self.index <= self.degree:
                raise ValueError(f"delta({self.index}, {self.degree}) out of range")
        elif self.kind == "cube":
            if not (1 <= self.index <= self.degree and self.color in (0, 1)):
                raise ValueError(f"cube({self.index}, {self.color}, {self.degree}) out of range")
        elif self.kind == "d":
            if self.degree < 0:
                raise ValueError("d(n) needs n >= 0")
        else:
            raise ValueError(f"unknown generator kind {self.kind!r}")

    def as_morphism(self) -> Morphism:
        if self.kind == "delta":
            return delta(self.index, self.degree)
        if self.kind == "cube":
            return cube_delta(self.index, self.color, self.degree)
        raise ValueError("chain-algebra generators have no underlying index morphism")

    def token(self) -> str:
        if self.kind == "delta":
            return f"delta {self.index} {self.degree}"
        if self.kind == "cube":
            return f"cube {self.index} {self.color} {self.degree}"
        return f"d {self.degree}"

    @classmethod
    def from_token(cls, token: str) -> "GeneratorId":
        parts = token.split()
        if parts[0] == "delta" and len(parts) == 3:
            return cls("delta", int(parts[2]), index=int(parts[1]))
        if parts[0] == "cube" and len(parts) == 4:
            return cls("cube", int(parts[3]), index=int(parts[1]), color=int(parts[2]))
        if parts[0] == "d" and len(parts) == 2:
            return cls("d", int(parts[1]))
        raise ValueError(f"bad generator token {token!r}")


def omega_d(n: int) -> GeneratorId:
    return GeneratorId("d", n)


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
    def of(cls, f: Morphism, coeff=1) -> "LinComb":
        return cls(f.source, f.target, {f: exact(coeff)})

    @classmethod
    def zero(cls, source: int, target: int) -> "LinComb":
        return cls(source, target)

    def is_zero(self) -> bool:
        return not self.terms

    def single(self) -> Morphism:
        """The unique morphism, for combinations that are one term with coefficient 1."""
        if len(self.terms) != 1:
            raise ValueError("combination is not a single morphism")
        ((f, c),) = self.terms.items()
        if c != 1:
            raise ValueError("combination is not monic")
        return f

    def __add__(self, other: "LinComb") -> "LinComb":
        if (self.source, self.target) != (other.source, other.target):
            raise ValueError("adding combinations with different endpoints")
        terms = dict(self.terms)
        for f, c in other.terms.items():
            nc = terms.get(f, 0) + c
            if nc:
                terms[f] = nc
            else:
                terms.pop(f, None)
        return LinComb(self.source, self.target, terms)

    def __sub__(self, other: "LinComb") -> "LinComb":
        return self + other.scale(-1)

    def scale(self, c) -> "LinComb":
        c = exact(c)
        return LinComb(self.source, self.target, {f: c * v for f, v in self.terms.items()})

    def compose(self, other: "LinComb") -> "LinComb":
        """self o other, extended bilinearly; other acts first."""
        if other.target != self.source:
            raise ValueError("boundary mismatch in LinComb composition")
        terms: dict[Morphism, int | Fraction] = {}
        for g, cg in self.terms.items():
            for f, cf in other.terms.items():
                h = compose(g, f)
                c = cg * cf
                nc = terms.get(h, 0) + c
                if nc:
                    terms[h] = nc
                else:
                    terms.pop(h, None)
        return LinComb(other.source, self.target, terms)

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
        parts = [f"({c})*{f.text()}" for f, c in sorted(self.terms.items(), key=lambda t: t[0].sort_key())]
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
    """All normal-form morphisms m -> n, duplicate-free, in canonical order.

    kind "ssimp": injections with m, n >= 0; "aug": injections with
    m, n >= -1; "scube": cube morphisms.  Counts are C(n+1, m+1) and
    C(n, m) * 2^(n-m) respectively.
    """
    if kind in ("ssimp", "aug"):
        low = 0 if kind == "ssimp" else -1
        if m < low or n < low:
            raise ValueError(f"degrees below {low} are not objects of kind {kind}")
        if m > n:
            return ()
        return tuple(
            InjMap(m, n, image) for image in combinations(range(n + 1), m + 1)
        )
    if kind == "scube":
        if m < 0 or n < 0:
            raise ValueError("cube degrees must be >= 0")
        if m > n:
            return ()
        out = []
        for coord_positions in combinations(range(1, n + 1), m):
            const_positions = [j for j in range(1, n + 1) if j not in coord_positions]
            for colors in _all_colorings(len(const_positions)):
                tokens: list[str] = [""] * n
                for k, p in enumerate(coord_positions):
                    tokens[p - 1] = f"x{k + 1}"
                for p, col in zip(const_positions, colors):
                    tokens[p - 1] = str(col)
                out.append(CubeMap(m, n, tuple(tokens)))
        out.sort(key=lambda f: f.sort_key())
        return tuple(out)
    raise ValueError(f"unknown hom kind {kind!r}")


def _all_colorings(k: int) -> list[tuple[int, ...]]:
    if k == 0:
        return [()]
    shorter = _all_colorings(k - 1)
    return [t + (c,) for t in shorter for c in (0, 1)]


@lru_cache(maxsize=None)
def hom_index(kind: str, m: int, n: int) -> dict[Morphism, int]:
    return {f: i for i, f in enumerate(hom_basis(kind, m, n))}


# -- factorizations -----------------------------------------------------------


def coface_factorization(f: InjMap) -> list[GeneratorId]:
    """The strictly decreasing coface word composing to f.

    Returned outermost first; the indices are the complement of the image in
    descending order, the k-th factor from the right inserting the k-th
    smallest omitted value.
    """
    comp = f.complement()
    word = []
    for k in range(len(comp), 0, -1):
        word.append(GeneratorId("delta", f.source + k, index=comp[k - 1]))
    return word


def cube_coface_factorization(f: CubeMap) -> list[GeneratorId]:
    """Cube analogue: insert the constant positions bottom-up, outermost first."""
    consts = f.constants()
    word = []
    for k in range(len(consts), 0, -1):
        pos, color = consts[k - 1]
        word.append(GeneratorId("cube", f.source + k, index=pos, color=color))
    return word


def monochromatic_factorization(f: CubeMap) -> tuple[InjMap, InjMap]:
    """The unique (a, b) with f = j1(a) o j0(b).

    b records the positions inserted with color 0, a those with color 1; both
    are injections one degree down (the cube of dimension m corresponds to
    the ordinal [m-1]).
    """
    zeros = [p for p, c in f.constants() if c == 0]
    coords = list(f.coordinate_positions())
    mid_positions = sorted(coords + zeros)  # intermediate cube's coordinates
    a_image = tuple(p - 1 for p in mid_positions)
    b_image = tuple(mid_positions.index(p) for p in coords)
    a = InjMap(len(mid_positions) - 1, f.target - 1, a_image)
    b = InjMap(f.source - 1, len(mid_positions) - 1, b_image)
    return a, b


# -- comparison functors ------------------------------------------------------

FUNCTORS = ("u_delta", "u_a", "u_square", "v", "j0", "j1", "q")


def _monochromatic_embedding(f: InjMap, color: int) -> CubeMap:
    """j0/j1 on a general injection: insert constants of one color."""
    n = f.target + 1
    tokens: list[str] = [""] * n
    count = 0
    im = set(f.image)
    for p in range(1, n + 1):
        if p - 1 in im:
            count += 1
            tokens[p - 1] = f"x{count}"
        else:
            tokens[p - 1] = str(color)
    return CubeMap(f.source + 1, n, tuple(tokens))


def _sign_embedding(f: InjMap) -> LinComb:
    """v on a general injection: each inserted position chooses color 1 with
    sign +1 or color 0 with sign -1, multiplicatively."""
    comp = f.complement()
    base = _monochromatic_embedding(f, 1)
    terms: dict[Morphism, int] = {}
    for colors in _all_colorings(len(comp)):
        tokens = list(base.assignment)
        sign = 1
        for c, col in zip(comp, colors):
            tokens[c] = str(col)  # inserted position c+1 (1-based)
            if col == 0:
                sign = -sign
        g = CubeMap(base.source, base.target, tuple(tokens))
        terms[g] = sign
    return LinComb(base.source, base.target, terms)


@lru_cache(maxsize=None)
def _alternating_sum(n: int) -> LinComb:
    terms: dict[Morphism, int] = {delta(i, n): (-1) ** i for i in range(n + 1)}
    return LinComb(n - 1, n, terms)


@lru_cache(maxsize=None)
def _cube_alternating_sum(n: int) -> LinComb:
    terms: dict[Morphism, int] = {}
    for i in range(1, n + 1):
        sign = (-1) ** (i - 1)
        terms[cube_delta(i, 1, n)] = sign
        terms[cube_delta(i, 0, n)] = -sign
    return LinComb(n - 1, n, terms)


def apply_functor(which: str, g) -> LinComb:
    """Apply a comparison functor to a generator, normal form, or LinComb.

    * u_delta / u_a / u_square take the chain generator d(n) to the signed
      coface sum in the respective index category (u_delta needs n >= 1).
    * v, j0, j1 take injections (or delta generators) to cube morphisms one
      degree up; v is the signed embedding delta^i -> delta^1_{i+1} -
      delta^0_{i+1}, extended multiplicatively.
    * q forgets cube colors and shifts degrees down by one.

    LinComb inputs are handled linearly.
    """
    if which not in FUNCTORS:
        raise ValueError(f"unknown functor {which!r}")
    if isinstance(g, LinComb):
        out = None
        for f, c in g.terms.items():
            piece = apply_functor(which, f).scale(c)
            out = piece if out is None else out + piece
        if out is None:
            return _zero_image(which, g.source, g.target)
        return out
    if isinstance(g, GeneratorId):
        return _generator_image(which, g)
    return _morphism_image(which, g)


@lru_cache(maxsize=None)
def _generator_image(which: str, g: GeneratorId) -> LinComb:
    """apply_functor on one generator; cached, so callers share the image."""
    if which in ("u_delta", "u_a", "u_square"):
        if g.kind != "d":
            raise ValueError(f"{which} is defined on chain generators d(n), got {g.token()}")
        n = g.degree
        if which == "u_delta":
            if n < 1:
                raise ValueError("d(0) is not a generator of the nonaugmented chain algebra")
            return _alternating_sum(n)
        if which == "u_a":
            if n < 0:
                raise ValueError("d(n) needs n >= 0")
            return _alternating_sum(n)
        if n < 1:
            raise ValueError("d(0) is not a generator of the nonaugmented chain algebra")
        return _cube_alternating_sum(n)
    return _morphism_image(which, g.as_morphism())


def _morphism_image(which: str, g: Morphism) -> LinComb:
    if which in ("v", "j0", "j1"):
        if not isinstance(g, InjMap):
            raise ValueError(f"{which} is defined on injections")
        if which == "v":
            return _sign_embedding(g)
        return LinComb.of(_monochromatic_embedding(g, 0 if which == "j0" else 1))
    if which == "q":
        if not isinstance(g, CubeMap):
            raise ValueError("q is defined on cube morphisms")
        image = tuple(p - 1 for p in g.coordinate_positions())
        return LinComb.of(InjMap(g.source - 1, g.target - 1, image))
    raise ValueError(f"{which} is not defined on {g!r}")


def _zero_image(which: str, source: int, target: int) -> LinComb:
    if which in ("v", "j0", "j1"):
        return LinComb.zero(source + 1, target + 1)
    if which == "q":
        return LinComb.zero(source - 1, target - 1)
    return LinComb.zero(source, target)


def d_lower(i: int, n: int, kind: str = "ssimp") -> LinComb:
    """The alternating tail sum over cofaces j = i..n of sign (-1)^j.

    These elements satisfy d_lower(i, n+1) o d_lower(i, n) = 0 and rewrite the
    coface normal forms into the strictly decreasing monomial basis.  The
    lowest tail d_lower(0, n) is the image of the chain differential.
    """
    if not 0 <= i <= n:
        raise ValueError(f"d_lower index {i} out of range for degree {n}")
    if kind == "ssimp" and n < 1:
        raise ValueError("nonaugmented tails need n >= 1")
    if kind not in ("ssimp", "aug"):
        raise ValueError(f"unknown kind {kind!r}")
    terms: dict[Morphism, int] = {delta(j, n): (-1) ** j for j in range(i, n + 1)}
    return LinComb(n - 1, n, terms)


# -- strictly decreasing monomial basis ----------------------------------------


@dataclass(frozen=True)
class DWord:
    """A strictly decreasing tail-sum monomial d_{i_n,n} ... d_{i_{m+1},m+1}.

    ``indices`` lists (i_n, ..., i_{m+1}), outermost first; the empty tuple is
    the identity of [m] = [n].
    """

    kind: str
    source: int
    target: int
    indices: tuple[int, ...]

    def factors(self) -> list[LinComb]:
        out = []
        for k, i in enumerate(self.indices):
            out.append(d_lower(i, self.target - k, self.kind))
        return out

    def expand(self) -> LinComb:
        if not self.indices:
            return LinComb.of(identity_inj(self.source))
        return compose_word(self.factors())

    def index_sum(self) -> int:
        return sum(self.indices)


def strictly_decreasing_basis(kind: str, m: int, n: int) -> list[DWord]:
    """All monomials with strictly decreasing indices i_n > ... > i_{m+1} >= 0.

    For m == n only the identity word; the family has C(n+1, m+1) members and
    expands to a basis of the injection hom-space, triangularly with respect
    to the coface normal forms.
    """
    low = 0 if kind == "ssimp" else -1
    if kind not in ("ssimp", "aug"):
        raise ValueError(f"unknown kind {kind!r}")
    if m < low or n < low:
        raise ValueError(f"degrees below {low} are not objects of kind {kind}")
    if m > n:
        return []
    if m == n:
        return [DWord(kind, m, n, ())]
    words: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], stage: int):
        # stage runs n, n-1, ..., m+1; indices strictly decreasing
        if stage == m:
            words.append(prefix)
            return
        hi = min(stage, (prefix[-1] - 1) if prefix else stage)
        for i in range(hi, -1, -1):
            extend(prefix + (i,), stage - 1)

    extend((), n)
    words.sort()
    return [DWord(kind, m, n, w) for w in words]
