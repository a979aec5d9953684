"""Restriction, induction, units and counits, Tor, and the sign shadow.

``simplexcat.FUNCTORS`` gives each functor its source kind, target kind and
degree shift, and ``restrict`` is the one restriction along the four
comparison functors u_delta, u_a, u_square and v: degree n of the
result is degree n + shift of the module, and each source generator g acts
by X(F(g)).  Along u_delta, u_a and u_square the result is a chain complex,
that is a chain-kind module whose differential in degree n is the action of
the signed coface sum; ``DETECTING_FUNCTOR`` names the one that detects weak
equivalences of each index kind, and ``detecting_complex`` and
``detecting_map`` return that complex (a chain-kind argument itself), the one
route by which Tor, every weak-equivalence verdict (a ``diagmod.Verdict``)
and every unit and counit check reach it.  Along v it is the sign shadow of
a semicubical module: the augmented semisimplicial module whose degree n is
the cube degree n + 1 and whose cofaces act by the signed difference of the
two cube coface families.

One private builder, ``_coend``, computes every coend as a literal quotient:
the direct sum of (source space) x (hom into the image object), divided by the
bilinearity relations.  It returns one ``Coend`` record: the labels, their
index, the projection and the kept coordinates.  Induction (the left adjoint
of restriction) is that coend along u_delta, u_a or v, for each target object,
with generator actions induced by precomposition; ``tensor_with_representable``
is the same coend along the identity functor.  Because the source module is
only known up to its truncation, an induction is certified on the whole
target range when recomputing it with one fewer source layer changes
nothing, and refused otherwise; a unit or counit exists only when its
induction is certified, and is a plain ``ModuleMap`` covering every degree
of its source.

Tor with the four named coefficient objects is realized through the explicit
representable resolutions; after the co-Yoneda collapse these are the
restricted complex, the brutal nonnegative truncation, and the degree shift.
``tensor_resolution_complex`` keeps the uncollapsed route, so the collapse
itself is testable; ``resolution_complex`` reads a representable's complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

from .chainkit import (
    HomologyReport,
    bottom_cokernel,
    brutal_truncation,
    good_truncation,
    good_truncation_basis,
    homology,
    homology_coordinates,
    homology_map,
    make_complex,
    reindex_shift,
)
from .diagmod import (
    CHAIN_KINDS,
    DiagramModule,
    ModuleMap,
    _trusted_module,
    act,
    generators_for,
    kind_lower,
    representable,
    zero_module,
)
from .exactlin import RatMatrix, quotient_with_section, rank
from .simplexcat import (
    FUNCTORS,
    Generator,
    LinComb,
    Morphism,
    apply_functor,
    compose,
    hom_basis,
    identity_cube,
    identity_inj,
    omega_d,
)


class WindowError(ValueError):
    """A computation would need degrees outside the certified window."""


# -- coefficient objects -------------------------------------------------------

COEFFICIENTS = ("k_point", "k_constant", "k_constant_shifted", "k_point_neg1")


def k_bullet_complex(truncation: int) -> DiagramModule:
    """The constant coefficient object as a complex: every degree is k and the
    differential alternates 0, 1, 0, 1, ... starting with zero into degree 0
    (the alternating sum has n + 1 terms)."""
    dims = {n: 1 for n in range(truncation + 1)}
    diff = {
        n: RatMatrix.from_rows([[sum((-1) ** i for i in range(n + 1))]])
        for n in range(1, truncation + 1)
    }
    return make_complex(0, truncation, dims, diff)


def k_point_complex(truncation: int) -> DiagramModule:
    """The simple object: k in degree 0 only."""
    return make_complex(0, truncation, {0: 1}, {})


def k_point_to_bullet(truncation: int) -> ModuleMap:
    """The degree-0 inclusion of the point into the constant object."""
    src = k_point_complex(truncation)
    tgt = k_bullet_complex(truncation)
    comps = {n: RatMatrix.zeros(1, src.dim(n)) for n in src.degrees()}
    comps[0] = RatMatrix.identity(1)
    return ModuleMap(src, tgt, comps)


# -- the comparison functors -------------------------------------------------------

# Modules restrict along the paper's comparison functors, and induce along
# all of them but u_square; j0 and j1 only relate the index categories.
_COMPARISON = ("u_delta", "u_a", "u_square", "v")

# The functor whose restriction detects weak equivalences of each index kind.
DETECTING_FUNCTOR = {
    tgt: which for which, (src, tgt, _, _) in FUNCTORS.items() if src in CHAIN_KINDS
}


# -- restriction ------------------------------------------------------------------


def restrict(which: str, x: DiagramModule) -> DiagramModule:
    """Restriction along a comparison functor F: (F*X)_n = X_{n + shift} and
    each source generator g acts by X(F(g)).  Along u_delta, u_a and
    u_square this is the chain complex with differential the signed coface
    sum; along v it is the sign shadow, whose cofaces act by the signed
    difference of the color-1 and color-0 cube cofaces.  The result is
    memoized on x, so every caller shares one restricted module."""
    if which not in _COMPARISON:
        raise ValueError(f"unknown restriction {which!r}")
    src, tgt, shift, _ = FUNCTORS[which]
    if x.kind != tgt:
        raise ValueError(f"{which} restricts modules of kind {tgt}, got {x.kind}")

    def compute() -> DiagramModule:
        x.require_valid()
        trunc = x.truncation - shift
        dims = {n: x.dim(n + shift) for n in range(kind_lower(src), trunc + 1)}
        actions = {g: act(x, apply_functor(which, g)) for g in generators_for(src, trunc)}
        # a functor carries the source relations to true identities
        return _trusted_module(src, trunc, dims, actions)

    return x._memoized(("restrict", which), compute)


def restrict_map(which: str, f: ModuleMap) -> ModuleMap:
    """F*f between the restrictions of its source and target, memoized on
    f, so the verdicts memoized on the result are shared too."""

    def compute() -> ModuleMap:
        source, target = restrict(which, f.source), restrict(which, f.target)
        shift = FUNCTORS[which][2]
        return ModuleMap(source, target, {n: f.components[n + shift] for n in source.degrees()})

    return f._memoized(("restrict", which), compute)


def detecting_complex(x: DiagramModule) -> DiagramModule:
    """The complex detecting weak equivalences of x's kind: x restricted
    along ``DETECTING_FUNCTOR`` (memoized), or x itself for a chain kind."""
    which = DETECTING_FUNCTOR.get(x.kind)
    return x if which is None else restrict(which, x)


def detecting_map(f: ModuleMap) -> ModuleMap:
    """``detecting_complex`` for a map, along its source kind's functor."""
    which = DETECTING_FUNCTOR.get(f.source.kind)
    return f if which is None else restrict_map(which, f)


# -- induction ---------------------------------------------------------------------


_Label = tuple[int, Morphism, int]  # (source degree q, hom element phi, basis index i)


@dataclass(frozen=True)
class Coend:
    """One coend as a literal quotient of its ambient space.

    ``labels`` names the ambient coordinates (q, phi, i) in order and
    ``index`` gives each one's position; ``proj`` maps the ambient space
    onto the quotient, and ``kept`` lists the ambient coordinates that
    survive as its basis, so the kept labels are its presentation.
    """

    labels: tuple[_Label, ...]
    index: Mapping[_Label, int]
    proj: RatMatrix
    kept: tuple[int, ...]

    def kept_labels(self) -> list[_Label]:
        return [self.labels[k] for k in self.kept]

    def classes(self, labels: Iterable[_Label]) -> RatMatrix:
        """The quotient classes of the given labels, one column each: the
        rows of the memoized ``proj.transpose()`` at their positions, so the
        cost is the nonzeros of the selected columns."""
        return self.proj.transpose().row_select([self.index[lab] for lab in labels]).transpose()


def _coend(
    m: DiagramModule,
    top: int,
    hom: Callable[[int], tuple[Morphism, ...]],
    image: Callable[[Generator], LinComb],
) -> Coend:
    """The coend of M against hom(-) over source degrees <= top, as a quotient.

    ``hom(q)`` is the hom basis into the image of the source object q and
    ``image(g)`` is the image of a source generator g: q - 1 -> q.  The
    ambient space has one coordinate per label (q, phi, i); each g, each phi
    in hom(q - 1) and each basis index i of M_q give the relation column
    M(g) e_i (x) phi - e_i (x) (image(g) o phi).  Labels and relations are
    ordered by degree, generator, phi and index, which pins the kept
    coordinates of the quotient.
    """
    dims = m.dims
    labels: list[_Label] = []
    for q in range(m.lower, top + 1):
        dim_q = dims.get(q, 0)
        if dim_q == 0:
            continue
        for phi in hom(q):
            for i in range(dim_q):
                labels.append((q, phi, i))
    index = {lab: k for k, lab in enumerate(labels)}
    # one {label: value} column per relation; its two parts sit on labels of
    # degrees q - 1 and q, so they never share a label
    relations = []
    for g in generators_for(m.kind, top):
        q = g.target
        dim_q = dims.get(q, 0)
        if dim_q == 0:
            continue
        mg_columns = [m.actions[g].sparse_column(i) for i in range(dim_q)]  # M(g): M_q -> M_{q-1}
        image_g = image(g)
        for phi in hom(q - 1):
            composed = image_g.compose(LinComb.of(phi)).terms
            for i, column in enumerate(mg_columns):
                relation = {index[(q - 1, phi, t)]: coeff for t, coeff in column.items()}
                for w, c in composed.items():
                    relation[index[(q, w, i)]] = -c
                relations.append(relation)
    sub = RatMatrix.from_columns(len(labels), relations)
    proj, kept = quotient_with_section(len(labels), sub)
    return Coend(tuple(labels), MappingProxyType(index), proj, tuple(kept))


@dataclass(frozen=True)
class InductionResult:
    """An induced module, certified on its whole target range, and the
    coend of each target degree."""

    module: DiagramModule
    coends: Mapping[int, Coend]

    @property
    def presentation(self) -> dict[int, list[tuple[int, str, int]]]:
        """The kept labels of each target degree, with phi as text."""
        return {
            a: [(q, phi.text(), i) for q, phi, i in c.kept_labels()]
            for a, c in self.coends.items()
        }


def _induction(which: str, m: DiagramModule, src_cap: int) -> InductionResult:
    """The coends along a comparison functor F over the source degrees
    <= src_cap, one per target degree a with labels (q, phi: a -> F(q), i),
    and the module they present, not yet certified.  A generator
    h: a - 1 -> a sends the class of (q, phi, i) to that of (q, phi o h, i)."""
    _, kind, shift, _ = FUNCTORS[which]
    truncation = m.truncation + shift
    coends = {
        a: _coend(
            m, src_cap, lambda q: hom_basis(kind, a, q + shift),
            lambda g: apply_functor(which, g),
        )
        for a in range(kind_lower(kind), truncation + 1)
    }
    actions = {}
    for h in generators_for(kind, truncation):
        actions[h] = coends[h.source].classes(
            (q, compose(phi, h), i) for q, phi, i in coends[h.target].kept_labels()
        )
    dims = {a: c.proj.rows for a, c in coends.items()}
    # precomposition is functorial on the quotient
    module = _trusted_module(kind, truncation, dims, actions)
    return InductionResult(module, MappingProxyType(coends))


def induce(which: str, m: DiagramModule) -> InductionResult:
    """Extension of scalars along a comparison functor, certified on its
    whole target range or refused with ``WindowError``.

    The induction is certified when dropping the top source layer changes
    neither the labels of any coend nor the induced module.  That holds
    exactly for the modules that vanish in their top degree and have a
    degree below it, so no induction is certified on part of its range.
    """
    if which not in _COMPARISON or which == "u_square":
        raise ValueError(f"unknown induction {which!r}")
    src = FUNCTORS[which][0]
    if m.kind != src:
        raise ValueError(f"{which} induces from kind {src}, got {m.kind}")
    m.require_valid()
    full = _induction(which, m, m.truncation)
    if m.truncation > m.lower:
        shallow = _induction(which, m, m.truncation - 1)
        if all(c.labels == full.coends[a].labels for a, c in shallow.coends.items()) and (
            shallow.module == full.module
        ):
            return full
    raise WindowError(f"induction along {which} has an empty validity window")


def unit_map(which: str, m: DiagramModule) -> ModuleMap:
    """The adjunction unit M -> restrict(induce(M)).

    A chain map for the chain-to-simplicial inductions; a map of augmented
    modules for the sign embedding.  The unit sends a basis vector to the
    class of (vector tensor identity).  Like a counit, it exists only when
    its induction is certified, so its window is [source.lower,
    source.truncation].
    """
    result = induce(which, m)
    _, tgt_kind, shift, _ = FUNCTORS[which]
    identity = identity_cube if tgt_kind == "scube" else identity_inj
    comps = {
        n: result.coends[n + shift].classes((n, identity(n + shift), i) for i in range(m.dim(n)))
        for n in m.degrees()
    }
    return ModuleMap(m, restrict(which, result.module), comps)


def counit_map(which: str, x: DiagramModule) -> ModuleMap:
    """The adjunction counit induce(restrict(X)) -> X: a presentation label
    (q, phi, i) is evaluated by acting with phi on the i-th basis vector."""
    result = induce(which, restrict(which, x))
    comps = {
        a: RatMatrix.from_columns(
            x.dim(a), [act(x, phi).sparse_column(i) for _, phi, i in c.kept_labels()]
        )
        for a, c in result.coends.items()
    }
    return ModuleMap(result.module, x, comps)


# -- Tor ------------------------------------------------------------------------

_TOR_LEGAL = {
    ("ssimp", "k_constant"),
    ("scube", "k_constant"),
    ("aug_ssimp", "k_constant_shifted"),
    ("chain0", "k_point"),
    ("chain0", "k_constant"),
    ("chain_neg1", "k_point_neg1"),
}


def tor_complex(x: DiagramModule, coeff: str) -> DiagramModule:
    """The complex computing Tor against the named coefficient, after the
    co-Yoneda collapse of the representable resolution.  On chain0 the point
    and constant coefficients define the same Tor functor."""
    if (x.kind, coeff) not in _TOR_LEGAL:
        raise ValueError(f"illegal Tor pairing ({x.kind}, {coeff})")
    if x.kind == "chain_neg1":
        return reindex_shift(x, 1)
    c = detecting_complex(x)
    return brutal_truncation(c) if x.kind == "aug_ssimp" else c


def tor(x: DiagramModule, coeff: str) -> HomologyReport:
    return homology(tor_complex(x, coeff))


def tor_map(f: ModuleMap, coeff: str) -> dict[int, RatMatrix]:
    """Induced maps on Tor: the homology of f carried to the Tor complexes
    of its source and target, which move degrees by the same shift."""
    source, target = tor_complex(f.source, coeff), tor_complex(f.target, coeff)
    shift = source.truncation - f.source.truncation
    comps = {n: f.components[n - shift] for n in source.degrees()}
    return homology_map(ModuleMap(source, target, comps))


# -- representable resolutions -------------------------------------------------


def resolution_complex(kind: str, c: int, truncation: int) -> DiagramModule:
    """The augmented complex of representables, evaluated at the object c:
    degree p carries the hom space p -> c and d_p precomposes with the signed
    coface sum.  That is the detecting complex of the aug_ssimp representable
    at c for ssimp and aug_ssimp (zero at c = -1), and of the scube one with
    degree -1 = k and d_0 = (1 ... 1) added.  Exactness is the
    contractibility of the standard simplex or cube."""
    lower = kind_lower(kind)
    if not lower <= c <= truncation:
        raise ValueError(f"evaluation object {c} outside truncation")
    if kind == "scube":
        cube = detecting_complex(representable(kind, c, truncation))
        ones = RatMatrix.from_rows([[1] * cube.dim(0)])
        return make_complex(-1, truncation, {-1: 1, **cube.dims}, {0: ones, **cube.diff})
    if kind in CHAIN_KINDS:
        raise ValueError(f"kind {kind!r} has no underlying index category")
    if c == -1:
        return zero_module("chain_neg1", truncation)
    return detecting_complex(representable("aug_ssimp", c, truncation))


def tensor_with_representable(x: DiagramModule, p: int) -> Coend:
    """The coend X (x)_A A(p, -) as a literal quotient.  Co-Yoneda says the
    quotient is X(p); tests compare."""
    x.require_valid()
    return _coend(x, x.truncation, lambda q: hom_basis(x.kind, p, q), LinComb.of)


def tensor_resolution_complex(x: DiagramModule, truncation: int | None = None) -> DiagramModule:
    """Tensor X against the whole representable resolution, without co-Yoneda:
    an independent route to the Tor complex."""
    if truncation is None:
        truncation = x.truncation
    coends = {p: tensor_with_representable(x, p) for p in range(0, truncation + 1)}
    which = DETECTING_FUNCTOR[x.kind]
    dims = {p: c.proj.rows for p, c in coends.items()}
    diff: dict[int, RatMatrix] = {}
    for p in range(1, truncation + 1):
        low = coends[p - 1]
        sign_sum = apply_functor(which, omega_d(p))
        columns = []
        for cdeg, phi, i in coends[p].kept_labels():
            # distinct terms w sit on distinct labels (cdeg, w, i)
            terms = LinComb.of(phi).compose(sign_sum).terms
            columns.append({low.index[(cdeg, w, i)]: coeff for w, coeff in terms.items()})
        at_ambient_level = RatMatrix.from_columns(len(low.labels), columns)
        diff[p] = low.proj @ at_ambient_level
    return make_complex(0, truncation, dims, diff)


# -- low-degree exact sequence ------------------------------------------------------


@dataclass(frozen=True)
class LowDegreeSequence:
    """0 -> H_0(tau X) -> Tor_0 -> X_{-1} -> H_{-1} -> 0 with its three maps.

    dims = (a, b, c, d) in sequence order; the maps are matrices in the
    pinned homology, coordinate, and quotient bases.
    """

    dims: tuple[int, int, int, int]
    include_tau: RatMatrix
    boundary: RatMatrix
    project: RatMatrix

    def is_exact(self) -> bool:
        a, b, c, d = self.dims
        return (
            (self.boundary @ self.include_tau).is_zero()
            and (self.project @ self.boundary).is_zero()
            and rank(self.include_tau) == a
            and rank(self.boundary) == b - a
            and b - a == c - d
            and rank(self.project) == d
        )


def low_degree_sequence(x: DiagramModule) -> LowDegreeSequence:
    if x.kind != "aug_ssimp":
        raise ValueError("the low-degree sequence needs an aug_ssimp module")
    c = detecting_complex(x)
    tau = good_truncation(c)
    bru = brutal_truncation(c)
    h_tau = homology(tau)
    h_bru = homology(bru)
    kernel_inclusion = good_truncation_basis(c)
    q_cok, d_dim = bottom_cokernel(c)
    alpha = homology_coordinates(h_bru, 0, kernel_inclusion @ h_tau.representatives[0])
    beta = c.diff[0] @ h_bru.representatives[0]
    return LowDegreeSequence(
        (h_tau.dim(0), h_bru.dim(0), c.dim(-1), d_dim), alpha, beta, q_cok
    )
