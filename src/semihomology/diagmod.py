"""Right modules over the truncated indexing algebras.

A ``DiagramModule`` stores one vector-space dimension per degree inside its
truncation window plus one matrix per one-step generator, in the contravariant
convention: a degree-raising generator g acts by a matrix X(g) of shape
dims[n-1] x dims[n] (face maps lower degree).  The actions are keyed by the
generators themselves: the coface normal forms of ``simplexcat``, or the chain
generators d(n).  ``generator_tokens`` is the one table of their names in
documents.  ``validate`` checks the defining relations of the kind exactly;
everything downstream assumes a validated module.  It returns a ``Verdict``,
the package's one verdict record, as do ``check_map``,
``chainkit.is_quasi_iso`` and the oracle's weak-equivalence and fibration
checks.

Modules and module maps are immutable: frozen dataclasses whose ``dims``,
``actions`` and ``components`` are read-only mappings.  Each object carries
one private memo for the values computed from it alone, so they live and die
with it: its validity, X(f) for each normal form f, its restriction along
each comparison functor (``transport.restrict`` and
``transport.restrict_map``), and a map's ``check_map`` verdict.

Kinds:

* ``ssimp``       -- semisimplicial: coface actions delta(i, n), degrees 0..N.
* ``aug_ssimp``   -- augmented semisimplicial: degrees -1..N, one extra
                     augmentation coface delta(0, 0).
* ``scube``       -- semicubical: two coface families cube(i, 0/1, n).
* ``chain0``      -- nonnegative chain complex: one generator d(n) per degree.
* ``chain_neg1``  -- chain complex in degrees >= -1.

The chain kinds are the package's only chain complexes: X(d(n)) is the
differential C_n -> C_{n-1}, ``DiagramModule.diff`` is the read-only view
{n: X(d(n))}, a chain map is a ``ModuleMap``, and ``validate`` checks
d o d = 0.  ``chainkit`` computes their homology.

A module asserts nothing above its truncation; operations either stay inside
the window or say so, and the loaders reject dimensions and actions outside
the window, and any declared dimension above ``MAX_FILE_DIM``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import Any, Callable, Mapping

from .exactlin import (
    RatMatrix,
    block_diag,
    coordinate_section,
    echo,
    rational_from_str,
)
from .simplexcat import (
    CHAIN_KINDS,
    KIND_LOWER,
    CubeMap,
    Differential,
    Generator,
    InjMap,
    LinComb,
    Morphism,
    coface_factorization,
    compose,
    cube_coface_factorization,
    cube_delta,
    delta,
    hom_basis,
    hom_index,
    omega_d,
)

MODULE_FORMAT = "semihomology-module/1"
MAP_FORMAT = "semihomology-map/1"

# The largest dimension a module document may declare.  A file states a
# dimension in a few bytes, but what is built from it costs time and memory
# in proportion to it: each missing action is a zero matrix with one row per
# dimension, and `homology` eliminates cycle bases as wide as the degree.
# Every document the package writes at the default truncation cap stays
# below a fifth of it.
MAX_FILE_DIM = 20_000


def kind_lower(kind: str) -> int:
    if kind not in KIND_LOWER:
        raise ValueError(f"unknown module kind {echo(repr(kind))}")
    return KIND_LOWER[kind]


@lru_cache(maxsize=None)
def generators_for(kind: str, truncation: int) -> tuple[Generator, ...]:
    """All one-step generators acting inside the truncation, in token order:
    the cofaces delta(i, n) or cube(i, e, n), or the differentials d(n)."""
    lower = kind_lower(kind)
    out: list[Generator] = []
    for n in range(lower + 1, truncation + 1):
        if kind in ("ssimp", "aug_ssimp"):
            out.extend(delta(i, n) for i in range(n + 1))
        elif kind == "scube":
            out.extend(cube_delta(i, e, n) for i in range(1, n + 1) for e in (0, 1))
        else:
            out.append(omega_d(n))
    return tuple(out)


def token(g: Generator) -> str:
    """The document token of a generator: "delta i n", "cube i e n" or "d n"."""
    if isinstance(g, Differential):
        return f"d {g.target}"
    if isinstance(g, InjMap):
        (i,) = g.complement()
        return f"delta {i} {g.target}"
    ((i, e),) = g.constants()
    return f"cube {i} {e} {g.target}"


@lru_cache(maxsize=None)
def generator_tokens(kind: str, truncation: int) -> Mapping[str, Generator]:
    """The token table: generators_for keyed by their tokens, in its order.
    Documents are written and read through it."""
    return MappingProxyType({token(g): g for g in generators_for(kind, truncation)})


def _not_a_generator(name: str, kind: str, truncation: int) -> ValueError:
    return ValueError(
        f"action '{echo(name)}' is not a generator of kind {kind} inside "
        f"the truncation window [{kind_lower(kind)}, {truncation}]"
    )


@dataclass(frozen=True)
class Verdict:
    """The one verdict record: whether a check holds, the degree window it
    covers when it depends on one, its witness (the message of a refused
    module or map, the failing degrees of a homology or rank check), and,
    for a verdict also reached by a second route, whether the two agree."""

    ok: bool
    window: tuple[int, int] | None = None
    witness: dict = field(default_factory=dict)
    crosscheck_agrees: bool | None = None

    def __bool__(self) -> bool:
        return self.ok


def _refused(message: str) -> Verdict:
    return Verdict(False, witness={"message": message})


# Memo key of a module's validity: set by validate on success and by the
# trusted constructor.
_VALID = "valid"


class _Memoized:
    """A private per-object memo: ``_memo`` is a dict field of the frozen
    subclass, holding values computed from the object alone.  Its keys are
    "valid" (a module's validity), a normal form f (a module's X(f)),
    ("restrict", which) (a module's or a map's restriction) and "check_map"
    (a map's verdict)."""

    def _memoized(self, key, compute: Callable[[], Any]):
        """The value cached under key, computed and stored on the first call."""
        memo = self._memo
        if key not in memo:
            memo[key] = compute()
        return memo[key]


@dataclass(frozen=True)
class DiagramModule(_Memoized):
    kind: str
    truncation: int
    dims: Mapping[int, int]
    actions: Mapping[Generator, RatMatrix]
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    __hash__ = None  # equality is by content, and the mappings are not hashable

    def __post_init__(self):
        object.__setattr__(self, "dims", MappingProxyType(dict(self.dims)))
        object.__setattr__(self, "actions", MappingProxyType(dict(self.actions)))

    @property
    def lower(self) -> int:
        return KIND_LOWER[self.kind]

    def dim(self, n: int) -> int:
        lower = KIND_LOWER[self.kind]
        if n < lower or n > self.truncation:
            raise ValueError(
                f"degree {echo(str(n))} outside truncation window [{lower}, {self.truncation}]"
            )
        return self.dims.get(n, 0)

    def degrees(self) -> range:
        return range(self.lower, self.truncation + 1)

    @property
    def diff(self) -> Mapping[int, RatMatrix]:
        """The differentials {n: X(d(n))} of a chain-kind module, read-only."""
        if self.kind not in CHAIN_KINDS:
            raise ValueError(f"module of kind {self.kind!r} is not a chain complex")
        return MappingProxyType({g.target: m for g, m in self.actions.items()})

    def action(self, g: Generator) -> RatMatrix:
        try:
            return self.actions[g]
        except KeyError:
            raise ValueError(f"generator {token(g)} outside truncation") from None

    def require_valid(self) -> None:
        if not self._memo.get(_VALID):
            report = validate(self)
            if not report:
                raise ValueError(f"invalid module: {report.witness['message']}")


def make_module(kind: str, truncation: int, dims: Mapping[int, int],
                actions: Mapping[Generator, RatMatrix]) -> DiagramModule:
    """Build a module, filling in missing dims/actions with zeros and
    checking shapes eagerly.  A dims key outside the truncation window or
    an action that is not a generator of the kind inside it is an error,
    and so is a dimension whose type is not exactly int or that no sequence
    could hold (above sys.maxsize)."""
    lower = kind_lower(kind)
    if truncation < lower:
        raise ValueError("truncation below the kind's lower bound")
    window = f"the truncation window [{lower}, {truncation}]"
    for n, d in dims.items():
        if not lower <= n <= truncation:
            raise ValueError(f"dims key '{echo(str(n))}' is outside {window}")
        if type(d) is not int:
            raise ValueError(f"dims '{n}' must be an int, got {d!r}")
        if d > sys.maxsize:
            raise ValueError(f"dims '{n}' exceeds the largest dimension {sys.maxsize}")
    generators = generators_for(kind, truncation)
    known = set(generators)
    for g in actions:
        if g not in known:
            raise _not_a_generator(token(g), kind, truncation)
    full_dims = {n: dims.get(n, 0) for n in range(lower, truncation + 1)}
    if any(d < 0 for d in full_dims.values()):
        raise ValueError("negative dimension")
    full_actions: dict[Generator, RatMatrix] = {}
    for g in generators:
        m = actions.get(g)
        rows, cols = full_dims[g.source], full_dims[g.target]
        if m is None:
            m = RatMatrix.zeros(rows, cols)
        if (m.rows, m.cols) != (rows, cols):
            raise ValueError(
                f"action {token(g)} has shape {m.rows}x{m.cols}, expected {rows}x{cols}"
            )
        full_actions[g] = m
    return DiagramModule(kind, truncation, full_dims, full_actions)


def _trusted_module(kind: str, truncation: int, dims: Mapping[int, int],
                    actions: Mapping[Generator, RatMatrix]) -> DiagramModule:
    """make_module for a construction whose relations hold by theory, so the
    result is valid without running validate.  The one place a module is
    marked valid by fiat; the test suite validates these outputs for real."""
    mod = make_module(kind, truncation, dims, actions)
    mod._memo[_VALID] = True
    return mod


@lru_cache(maxsize=None)
def _relations(kind: str, truncation: int) -> tuple[tuple, ...]:
    """The defining relations of the kind inside the truncation, in the
    order validate checks them, each with its failure message.

    Simplicial and cubical kinds: (g1, g2, h1, h2, message), asserting
    X(g1) @ X(g2) == X(h1) @ X(h2), the contravariant coface relations.
    Chain kinds: (g1, g2, message), asserting X(g1) @ X(g2) == 0.
    """
    lower = kind_lower(kind)
    out: list[tuple] = []
    if kind in ("ssimp", "aug_ssimp"):
        for n in range(lower + 2, truncation + 1):
            for j in range(n + 1):
                for i in range(j):
                    out.append((
                        delta(i, n - 1), delta(j, n), delta(j - 1, n - 1), delta(i, n),
                        f"coface relation fails at degree {n} for (i, j) = ({i}, {j})",
                    ))
    elif kind == "scube":
        for n in range(2, truncation + 1):
            for j in range(1, n + 1):
                for i in range(1, j):
                    for eps in (0, 1):
                        for eta in (0, 1):
                            out.append((
                                cube_delta(i, eps, n - 1), cube_delta(j, eta, n),
                                cube_delta(j - 1, eta, n - 1), cube_delta(i, eps, n),
                                f"cube relation fails at degree {n} for (i, j, eps, eta) = ({i}, {j}, {eps}, {eta})",
                            ))
    else:
        for n in range(lower + 2, truncation + 1):
            out.append((omega_d(n - 1), omega_d(n), f"d o d != 0 at degree {n}"))
    return tuple(out)


def validate(x: DiagramModule) -> Verdict:
    """Check the defining identities of the kind, exactly.

    Simplicial and cubical kinds: the contravariant form of the coface
    relations; chain kinds: d o d = 0.  Reports the first violating triple.
    """
    dims = {n: x.dims.get(n, 0) for n in x.degrees()}
    a = x.actions
    for g in generators_for(x.kind, x.truncation):
        m = a.get(g)
        if m is None or (m.rows, m.cols) != (dims[g.source], dims[g.target]):
            return _refused(f"missing or misshaped action {token(g)}")
    # a relation at degree n compares dims[n-2] x dims[n] products through
    # dims[n-1]; with any of the three dims 0 both sides are the same zero
    # matrix, so it can neither fail nor change which relation fails first
    trivial = {
        n for n in range(x.lower + 2, x.truncation + 1)
        if not (dims[n - 2] and dims[n - 1] and dims[n])
    }
    if x.kind in CHAIN_KINDS:
        for g1, g2, message in _relations(x.kind, x.truncation):
            if g2.target not in trivial and not (a[g1] @ a[g2]).is_zero():
                return _refused(message)
    else:
        for g1, g2, h1, h2, message in _relations(x.kind, x.truncation):
            if g2.target not in trivial and a[g1] @ a[g2] != a[h1] @ a[h2]:
                return _refused(message)
    x._memo[_VALID] = True
    return Verdict(True)


def representable(kind: str, c: int, truncation: int) -> DiagramModule:
    """The hom-into-c module: degree n carries the hom basis n -> c, and
    generators act by precomposition in the canonical basis order."""
    lower = kind_lower(kind)
    if not lower <= c <= truncation:
        raise ValueError(f"object degree {c} outside truncation")
    dims = {n: len(hom_basis(kind, n, c)) for n in range(lower, truncation + 1)}
    actions: dict[Generator, RatMatrix] = {}
    for g in generators_for(kind, truncation):
        target_index = hom_index(kind, g.source, c)
        # one 1 per column: row target_index[phi o g] of column phi
        actions[g] = RatMatrix.from_columns(
            dims[g.source], ({target_index[compose(phi, g)]: 1} for phi in hom_basis(kind, g.target, c))
        )
    return _trusted_module(kind, truncation, dims, actions)  # precomposition is functorial


def zero_module(kind: str, truncation: int) -> DiagramModule:
    return _trusted_module(kind, truncation, {}, {})


def act(x: DiagramModule, phi) -> RatMatrix:
    """The matrix of X(phi) for phi a LinComb or a normal form, cofaces
    among them, or for a chain kind a generator d(n).

    Normal forms are routed through the canonical coface factorization, so
    the result is independent of how phi was presented (validate guarantees
    the relations).  Requires a validated module.
    """
    x.require_valid()
    if x.kind in CHAIN_KINDS:
        if isinstance(phi, Differential):
            return x.action(phi)
        raise ValueError("chain kinds act through their d(n) generators only")
    if isinstance(phi, (InjMap, CubeMap)):
        return _act_normal_form(x, phi)
    if isinstance(phi, LinComb):
        # the +1 terms and the -1 terms are summed apart and subtracted once,
        # so a signed sum like v(delta) costs one subtraction
        rows, cols = x.dim(phi.source), x.dim(phi.target)
        if not rows or not cols:
            return RatMatrix.zeros(rows, cols)
        plus = minus = None
        for f, c in phi.terms.items():
            m = _act_normal_form(x, f)
            if c == -1:
                minus = m if minus is None else minus + m
            else:
                if c != 1:
                    m = m.scale(c)
                plus = m if plus is None else plus + m
        if minus is None:
            return plus if plus is not None else RatMatrix.zeros(rows, cols)
        return -minus if plus is None else plus - minus
    raise TypeError(f"cannot act by {phi!r}")


def _act_normal_form(x: DiagramModule, f: Morphism) -> RatMatrix:
    """X(f), memoized on x."""
    return x._memoized(f, lambda: _act_word(x, f))


def _act_word(x: DiagramModule, f: Morphism) -> RatMatrix:
    """X(f) through the canonical coface word of f; the zero matrix, with
    no products, when either side is the zero space."""
    rows, cols = x.dim(f.source), x.dim(f.target)
    if not rows or not cols:
        return RatMatrix.zeros(rows, cols)
    word = coface_factorization(f) if isinstance(f, InjMap) else cube_coface_factorization(f)
    if not word:
        return RatMatrix.identity(cols)
    out = x.action(word[0])
    for g in word[1:]:  # outermost first; X(f) = X(inner) @ ... @ X(outer)
        out = x.action(g) @ out
    return out


# -- module maps ---------------------------------------------------------------


@dataclass(frozen=True)
class ModuleMap(_Memoized):
    source: DiagramModule
    target: DiagramModule
    components: Mapping[int, RatMatrix]
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    __hash__ = None

    def __post_init__(self):
        object.__setattr__(self, "components", MappingProxyType(dict(self.components)))

    def require_checked(self) -> None:
        report = check_map(self)
        if not report:
            raise ValueError(f"not a module map: {report.witness['message']}")


def check_map(f: ModuleMap) -> Verdict:
    """Exact commutation of the components with every generator action.
    The verdict is memoized on f."""
    return f._memoized("check_map", lambda: _check_map(f))


def _check_map(f: ModuleMap) -> Verdict:
    x, y = f.source, f.target
    if x.kind != y.kind or x.truncation != y.truncation:
        return _refused("source and target kind/truncation differ")
    for n in x.degrees():
        m = f.components.get(n)
        if m is None or (m.rows, m.cols) != (y.dim(n), x.dim(n)):
            return _refused(f"missing or misshaped component at degree {n}")
    for g in generators_for(x.kind, x.truncation):
        if not y.dim(g.source) or not x.dim(g.target):
            continue  # both sides are the same empty matrix
        lhs = f.components[g.source] @ x.actions[g]
        rhs = y.actions[g] @ f.components[g.target]
        if lhs != rhs:
            return _refused(f"component does not commute with {token(g)}")
    return Verdict(True)


def identity_map(x: DiagramModule) -> ModuleMap:
    return ModuleMap(x, x, {n: RatMatrix.identity(x.dim(n)) for n in x.degrees()})


def zero_map(x: DiagramModule, y: DiagramModule) -> ModuleMap:
    return ModuleMap(x, y, {n: RatMatrix.zeros(y.dim(n), x.dim(n)) for n in x.degrees()})


def compose_maps(g: ModuleMap, f: ModuleMap) -> ModuleMap:
    """g o f; f acts first."""
    if f.target is not g.source and f.target != g.source:
        raise ValueError("module maps do not compose")
    return ModuleMap(
        f.source, g.target,
        {n: g.components[n] @ f.components[n] for n in f.source.degrees()},
    )


def direct_sum(x: DiagramModule, y: DiagramModule) -> DiagramModule:
    if x.kind != y.kind or x.truncation != y.truncation:
        raise ValueError("direct sum needs matching kind and truncation")
    x.require_valid()
    y.require_valid()
    dims = {n: x.dim(n) + y.dim(n) for n in x.degrees()}
    actions = {
        g: block_diag(x.actions[g], y.actions[g]) for g in generators_for(x.kind, x.truncation)
    }
    return _trusted_module(x.kind, x.truncation, dims, actions)


def sum_inclusion(x: DiagramModule, y: DiagramModule, which: int) -> ModuleMap:
    """Inclusion of the first (which = 0) or second (which = 1) summand into x (+) y."""
    total = direct_sum(x, y)
    part = (x, y)[which]
    comps = {}
    for n in x.degrees():
        off = 0 if which == 0 else x.dim(n)
        comps[n] = coordinate_section(total.dim(n), range(off, off + part.dim(n)))
    return ModuleMap(part, total, comps)


def sum_projection(x: DiagramModule, y: DiagramModule, which: int) -> ModuleMap:
    """Projection of x (+) y onto its first (which = 0) or second (which = 1) summand."""
    inclusion = sum_inclusion(x, y, which)
    comps = {n: c.transpose() for n, c in inclusion.components.items()}
    return ModuleMap(inclusion.target, inclusion.source, comps)


def yoneda_map(kind: str, g: Morphism, truncation: int) -> ModuleMap:
    """The map of representables induced by g: c -> c', post-composition by g.

    Covariant: yoneda_map(g o h) = yoneda_map(g) o yoneda_map(h).
    """
    src = representable(kind, g.source, truncation)
    tgt = representable(kind, g.target, truncation)
    comps = {}
    for n in src.degrees():
        tgt_index = hom_index(kind, n, g.target)
        comps[n] = RatMatrix.from_columns(
            tgt.dim(n), ({tgt_index[compose(g, phi)]: 1} for phi in hom_basis(kind, n, g.source))
        )
    return ModuleMap(src, tgt, comps)


def truncate_module(x: DiagramModule, new_truncation: int) -> DiagramModule:
    if new_truncation > x.truncation:
        raise ValueError("cannot extend a truncation")
    dims = {n: x.dim(n) for n in range(x.lower, new_truncation + 1)}
    actions = {g: x.actions[g] for g in generators_for(x.kind, new_truncation)}
    build = _trusted_module if x._memo.get(_VALID) else make_module
    return build(x.kind, new_truncation, dims, actions)


# -- serialization ---------------------------------------------------------------


def _matrix_to_json(m: RatMatrix) -> list[list[str]]:
    return [[str(e) for e in m.row(i)] for i in range(m.rows)]


def _matrix_from_json(rows: list[list[str]], shape: tuple[int, int]) -> RatMatrix:
    """Every entry parsed before the shape is checked, so an entry error comes first."""
    parsed = [list(map(rational_from_str, r)) for r in rows]
    if len(rows) != shape[0] or any(len(r) != shape[1] for r in rows):
        raise ValueError(f"matrix shape mismatch: expected {shape[0]}x{shape[1]}")
    return RatMatrix.from_rows(parsed, shape[1])


def _json_field(obj: dict, name: str):
    """A required field of a JSON document, named when it is missing."""
    if name not in obj:
        raise ValueError(f"required field {name} is missing")
    return obj[name]


def json_int(value, name: str) -> int:
    """An integer field of a JSON document: a bool, float or string is an
    error that names the field, never a silent int(...)."""
    if type(value) is not int:
        raise ValueError(f"{name} must be a JSON integer, got {echo(json.dumps(value))}")
    return value


def _json_object(value, name: str) -> dict:
    """An object field of a JSON document; anything else is an error that
    names the field."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {echo(json.dumps(value))}")
    return value


def _json_rows(value, name: str) -> list[list]:
    """A matrix field of a JSON document: a list of rows, each a list, never
    a string read one character per entry."""
    if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
        raise ValueError(
            f"{name} must be a list of lists of entries, got {echo(json.dumps(value))}"
        )
    return value


def _degree_key(key: str, name: str) -> int:
    """A degree written as a JSON object key, in canonical decimal ("-1",
    "3"; not "+1", " 1" or "1_0")."""
    try:
        n = int(key)
    except ValueError:
        n = None
    if n is None or str(n) != key:
        raise ValueError(f"{name} key {echo(repr(key))} is not a canonical decimal integer")
    return n


def _declared_dim(value, key: str) -> int:
    """A dimension of a module document, at most MAX_FILE_DIM: checked
    before any matrix is built."""
    d = json_int(value, f"dims '{echo(key)}'")
    if d > MAX_FILE_DIM:
        raise ValueError(
            f"dims '{echo(key)}' exceeds the largest dimension a file may declare, {MAX_FILE_DIM}"
        )
    return d


def module_to_obj(x: DiagramModule) -> dict:
    return {
        "format": MODULE_FORMAT,
        "kind": x.kind,
        "truncation": x.truncation,
        "dims": {str(n): x.dim(n) for n in x.degrees()},
        "actions": {t: _matrix_to_json(x.actions[g]) for t, g in generator_tokens(x.kind, x.truncation).items()},
    }


def module_from_obj(obj: dict) -> DiagramModule:
    if obj.get("format") != MODULE_FORMAT:
        raise ValueError(f"not a {MODULE_FORMAT} document")
    kind = _json_field(obj, "kind")
    truncation = json_int(_json_field(obj, "truncation"), "truncation")
    dims = {
        _degree_key(key, "dims"): _declared_dim(value, key)
        for key, value in _json_object(obj.get("dims", {}), "dims").items()
    }
    if not isinstance(kind, str):  # before it keys the cache of generator tokens
        raise ValueError(f"kind must be a JSON string, got {echo(json.dumps(kind))}")
    generators = generator_tokens(kind, truncation)
    actions: dict[Generator, RatMatrix] = {}
    for key, rows in _json_object(obj.get("actions", {}), "actions").items():
        g = generators.get(key)
        if g is None:  # only the canonical token of a generator names it
            raise _not_a_generator(key, kind, truncation)
        rows = _json_rows(rows, f"action '{key}'")
        # the rows give the shape, which make_module checks
        shape = (len(rows), len(rows[0]) if rows else dims.get(g.target, 0))
        actions[g] = _matrix_from_json(rows, shape)
    return make_module(kind, truncation, dims, actions)


def module_to_json(x: DiagramModule) -> str:
    return canonical_json(module_to_obj(x))


def module_from_json(text: str) -> DiagramModule:
    return module_from_obj(json.loads(text))


def map_to_obj(f: ModuleMap) -> dict:
    return {
        "format": MAP_FORMAT,
        "kind": f.source.kind,
        "truncation": f.source.truncation,
        "source": module_to_obj(f.source),
        "target": module_to_obj(f.target),
        "components": {
            str(n): _matrix_to_json(f.components[n]) for n in f.source.degrees()
        },
    }


def map_from_obj(obj: dict) -> ModuleMap:
    if obj.get("format") != MAP_FORMAT:
        raise ValueError(f"not a {MAP_FORMAT} document")
    source = module_from_obj(_json_object(_json_field(obj, "source"), "source"))
    target = module_from_obj(_json_object(_json_field(obj, "target"), "target"))
    # the header repeats the source's kind and truncation, and must agree
    header = (("kind", _json_field(obj, "kind"), source.kind),
              ("truncation", json_int(_json_field(obj, "truncation"), "truncation"), source.truncation))
    for name, given, value in header:
        if given != value:
            raise ValueError(
                f"map {name} {echo(json.dumps(given))} does not match the source's {json.dumps(value)}"
            )
    comps = {}
    for key, rows in _json_object(obj.get("components", {}), "components").items():
        n = _degree_key(key, "components")
        rows = _json_rows(rows, f"component '{key}'")
        comps[n] = _matrix_from_json(rows, (target.dim(n), source.dim(n)))
    for n in source.degrees():
        comps.setdefault(n, RatMatrix.zeros(target.dim(n), source.dim(n)))
    return ModuleMap(source, target, comps)


def map_to_json(f: ModuleMap) -> str:
    return canonical_json(map_to_obj(f))


def canonical_json(obj) -> str:
    """Deterministic serialization: sorted keys, fixed separators, newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
