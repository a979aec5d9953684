"""Restriction, induction, units and counits, Tor, and the sign shadow.

``simplexcat.FUNCTORS`` gives each functor its source kind, target kind and
degree shift, and ``restrict`` is the one restriction along the four
comparison functors u_delta, u_a, u_square and v: degree n of the
result is degree n + shift of the module, and each source generator g acts
by X(F(g)).  Along u_delta, u_a and u_square the result is a chain complex,
that is a chain-kind module whose differential in degree n is the action of
the signed coface sum; ``DETECTING_FUNCTOR`` names the one that detects weak
equivalences of each index kind.  Along v it is the sign shadow of a
semicubical module: the augmented semisimplicial module whose degree n is
the cube degree n + 1 and whose cofaces act by the signed difference of the
two cube coface families.

One private builder, ``_coend``, computes every coend as a literal quotient:
the direct sum of (source space) x (hom into the image object), divided by the
bilinearity relations.  Induction (the left adjoint of restriction) is that
coend along u_delta, u_a or v, for each target object, with generator
actions induced by precomposition; ``tensor_with_representable`` is the same
coend along the identity functor.  Because the source module is only known up
to its truncation, every induction carries a validity window: a target degree
is certified when recomputing with one fewer source layer changes nothing.

Tor with the four named coefficient objects is realized through the explicit
representable resolutions; after the co-Yoneda collapse these are the
restricted complex, the brutal nonnegative truncation, and the degree shift.
``resolution_complex`` and ``tensor_resolution_complex`` keep the uncollapsed
routes available so the collapse itself is testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .chainkit import (
    HomologyReport,
    bottom_cokernel,
    brutal_truncation,
    brutal_truncation_map,
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
    GeneratorId,
    ModuleMap,
    _trusted_module,
    act,
    generators_for,
    kind_lower,
    truncate_module,
)
from .exactlin import RatMatrix, quotient_with_section, rank
from .simplexcat import (
    FUNCTORS,
    LinComb,
    Morphism,
    apply_functor,
    compose,
    hom_basis,
    hom_index,
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
        n: RatMatrix(1, 1, [sum((-1) ** i for i in range(n + 1))])
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
# all of them but u_square; j0, j1 and q only relate the index categories.
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


# -- induction ---------------------------------------------------------------------


@dataclass
class InductionResult:
    module: DiagramModule
    valid_window: tuple[int, int] | None
    presentation: dict[int, list[tuple[int, str, int]]]


_Label = tuple[int, Morphism, int]  # (source degree q, hom element phi, basis index i)


def _coend(
    m: DiagramModule,
    top: int,
    hom: Callable[[int], tuple[Morphism, ...]],
    image: Callable[[GeneratorId], LinComb],
) -> tuple[list[_Label], dict[_Label, int], RatMatrix, list[int]]:
    """The coend of M against hom(-) over source degrees <= top, as a quotient.

    ``hom(q)`` is the hom basis into the image of the source object q and
    ``image(g)`` is the image of a source generator g: q - 1 -> q.  The
    ambient space has one coordinate per label (q, phi, i); each g, each phi
    in hom(q - 1) and each basis index i of M_q give the relation column
    M(g) e_i (x) phi - e_i (x) (image(g) o phi).  Labels and relations are
    ordered by degree, generator, phi and index, which pins the kept
    coordinates of the quotient.  Returns the labels, their positions, the
    projection onto the quotient and its kept coordinates.
    """
    labels: list[_Label] = []
    for q in range(m.lower, top + 1):
        dim_q = m.dim(q)
        if dim_q == 0:
            continue
        for phi in hom(q):
            for i in range(dim_q):
                labels.append((q, phi, i))
    index = {lab: k for k, lab in enumerate(labels)}
    # the relation matrix, one sparse row per label; a relation's two parts
    # sit on labels of degrees q - 1 and q, so they never share a label
    rel_rows: list[dict[int, int | Fraction]] = [{} for _ in labels]
    r = 0
    for g in generators_for(m.kind, top):
        q = g.degree
        if m.dim(q) == 0:
            continue
        mg_columns = m.actions[g].transpose()._sparse  # M(g): M_q -> M_{q-1}
        image_g = image(g)
        for phi in hom(q - 1):
            composed = image_g.compose(LinComb.of(phi))
            for i in range(m.dim(q)):
                for t, coeff in mg_columns[i].items():
                    rel_rows[index[(q - 1, phi, t)]][r] = coeff
                for w, c in composed.terms.items():
                    rel_rows[index[(q, w, i)]][r] = -c
                r += 1
    sub = RatMatrix._trusted(r, rel_rows)
    proj, kept = quotient_with_section(len(labels), sub)
    return labels, index, proj, kept


class _RawInduction:
    """One coend computation at a fixed source cap, all target degrees.

    Per target degree a the ambient space has one coordinate per label
    (source degree q, hom element phi: a -> image(q), source basis index i);
    the bilinearity relations span the subspace divided out, and the
    surviving coordinates are the presentation of the quotient.
    """

    def __init__(self, which: str, m: DiagramModule, src_cap: int):
        _, self.tgt_kind, self.shift, _ = FUNCTORS[which]
        self.which = which
        self.tgt_lower = kind_lower(self.tgt_kind)
        self.tgt_trunc = m.truncation + self.shift
        self.m = m
        self.src_cap = src_cap
        self.labels: dict[int, list[_Label]] = {}
        self.index: dict[int, dict[_Label, int]] = {}
        self.proj: dict[int, RatMatrix] = {}
        self.kept: dict[int, list[int]] = {}
        self.dims: dict[int, int] = {}
        for a in range(self.tgt_lower, self.tgt_trunc + 1):
            self._build_degree(a)
        self.actions: dict[GeneratorId, RatMatrix] = {}
        for g in generators_for(self.tgt_kind, self.tgt_trunc):
            self.actions[g] = self._build_action(g)

    def _hom(self, a: int, q: int) -> tuple[Morphism, ...]:
        return hom_basis(self.tgt_kind, a, q + self.shift)

    def _build_degree(self, a: int) -> None:
        labels, index, proj, kept = _coend(
            self.m, self.src_cap, lambda q: self._hom(a, q),
            lambda g: apply_functor(self.which, g),
        )
        self.labels[a] = labels
        self.index[a] = index
        self.proj[a] = proj
        self.kept[a] = kept
        self.dims[a] = proj.rows

    def _build_action(self, h: GeneratorId) -> RatMatrix:
        a = h.degree  # h raises degree a-1 -> a in the target category
        hm = h.as_morphism()
        cols = []
        for k in self.kept[a]:
            q, phi, i = self.labels[a][k]
            cols.append(self.index[a - 1][(q, compose(phi, hm), i)])
        if not cols:
            return RatMatrix.zeros(self.dims[a - 1], 0)
        return self.proj[a - 1].column_select(cols)

    def unit_block(self, n: int) -> RatMatrix:
        """Degree-n component of the unit: basis vector i to the class of
        i (x) identity."""
        a = n + self.shift
        ident: Morphism = identity_cube(a) if self.tgt_kind == "scube" else identity_inj(a)
        cols = [self.index[a][(n, ident, i)] for i in range(self.m.dim(n))]
        if not cols:
            return RatMatrix.zeros(self.dims[a], 0)
        return self.proj[a].column_select(cols)


def _induce_full(which: str, m: DiagramModule) -> tuple[InductionResult, _RawInduction]:
    if which not in _COMPARISON or which == "u_square":
        raise ValueError(f"unknown induction {which!r}")
    src = FUNCTORS[which][0]
    if m.kind != src:
        raise ValueError(f"{which} induces from kind {src}, got {m.kind}")
    m.require_valid()
    full = _RawInduction(which, m, m.truncation)
    shallow = (
        _RawInduction(which, m, m.truncation - 1) if m.truncation - 1 >= m.lower else None
    )
    window_top = None
    for a in range(full.tgt_lower, full.tgt_trunc + 1):
        stable = shallow is not None and full.labels[a] == shallow.labels[a]
        if stable:
            for g in generators_for(full.tgt_kind, a):
                if full.actions[g] != shallow.actions[g]:
                    stable = False
                    break
        if not stable:
            break
        window_top = a
    # precomposition is functorial on the quotient
    module = _trusted_module(full.tgt_kind, full.tgt_trunc, full.dims, full.actions)
    window = (full.tgt_lower, window_top) if window_top is not None else None
    presentation = {
        a: [(q, phi.text(), i) for (q, phi, i) in (full.labels[a][k] for k in full.kept[a])]
        for a in range(full.tgt_lower, full.tgt_trunc + 1)
    }
    return InductionResult(module, window, presentation), full


def induce(which: str, m: DiagramModule) -> InductionResult:
    """Extension of scalars along a comparison functor, with window detection.

    A target degree joins the validity window when dropping the top source
    layer changes neither its coend presentation nor any generator action up
    to that degree.  Modules supported strictly below their truncation get
    the full window; the window is empty when nothing can be certified.
    """
    return _induce_full(which, m)[0]


@dataclass
class AdjunctionMap:
    """A unit or counit together with the window it is certified on."""

    arrow: ModuleMap
    window: tuple[int, int]
    induction: InductionResult


def unit_map(which: str, m: DiagramModule) -> AdjunctionMap:
    """The adjunction unit M -> restrict(induce(M)), truncated to its window.

    A chain map for the chain-to-simplicial inductions; a map of augmented
    modules for the sign embedding.  The unit sends a basis vector to the
    class of (vector tensor identity).
    """
    result, raw = _induce_full(which, m)
    lower = m.lower
    if result.valid_window is None:
        raise WindowError(f"induction along {which} has an empty validity window")
    window_top = min(m.truncation, result.valid_window[1] - raw.shift)
    if window_top < lower:
        raise WindowError(f"window too small to express the unit along {which}")
    comps = {n: raw.unit_block(n) for n in range(lower, window_top + 1)}
    target = restrict(which, result.module)
    arrow = ModuleMap(truncate_module(m, window_top), truncate_module(target, window_top), comps)
    return AdjunctionMap(arrow, (lower, window_top), result)


def counit_map(which: str, x: DiagramModule) -> AdjunctionMap:
    """The adjunction counit induce(restrict(X)) -> X: a presentation label
    (q, phi, i) is evaluated by acting with phi on the i-th basis vector."""
    result, raw = _induce_full(which, restrict(which, x))
    if result.valid_window is None:
        raise WindowError(f"induction along {which} has an empty validity window")
    window_top = min(x.truncation, result.valid_window[1])
    lower = x.lower
    if window_top < lower:
        raise WindowError(f"window too small to express the counit along {which}")
    comps = {}
    for a in range(lower, window_top + 1):
        cols = []
        for k in raw.kept[a]:
            q, phi, i = raw.labels[a][k]
            cols.append(act(x, phi).column(i))
        comps[a] = RatMatrix.from_columns(cols, rows=x.dim(a))
    arrow = ModuleMap(
        truncate_module(result.module, window_top), truncate_module(x, window_top), comps
    )
    return AdjunctionMap(arrow, (lower, window_top), result)


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
    co-Yoneda collapse of the representable resolution."""
    if (x.kind, coeff) not in _TOR_LEGAL:
        raise ValueError(f"illegal Tor pairing ({x.kind}, {coeff})")
    if x.kind == "chain0":
        # the point and constant coefficients define the same Tor functor
        return x
    if x.kind == "chain_neg1":
        return reindex_shift(x, 1)
    c = restrict(DETECTING_FUNCTOR[x.kind], x)
    return brutal_truncation(c) if x.kind == "aug_ssimp" else c


def tor(x: DiagramModule, coeff: str) -> HomologyReport:
    return homology(tor_complex(x, coeff))


def tor_map(f: ModuleMap, coeff: str) -> dict[int, RatMatrix]:
    """Induced maps on Tor, through the same realized complexes."""
    kind = f.source.kind
    if (kind, coeff) not in _TOR_LEGAL:
        raise ValueError(f"illegal Tor pairing ({kind}, {coeff})")
    if kind == "chain0":
        return homology_map(f)
    if kind == "chain_neg1":
        shifted = ModuleMap(
            reindex_shift(f.source, 1),
            reindex_shift(f.target, 1),
            {n + 1: m for n, m in f.components.items()},
        )
        return homology_map(shifted)
    chain = restrict_map(DETECTING_FUNCTOR[kind], f)
    return homology_map(brutal_truncation_map(chain) if kind == "aug_ssimp" else chain)


# -- representable resolutions, uncollapsed ----------------------------------------


def resolution_complex(kind: str, c: int, truncation: int) -> DiagramModule:
    """The augmented complex of representables, evaluated at the object c.

    Degree p carries the hom space p -> c, the differential is precomposition
    with the signed coface sum, and degree -1 carries the augmentation target
    (k, except at the initial augmented object, where everything vanishes).
    Exactness is the contractibility of the standard simplex or cube.
    """
    lower = kind_lower(kind)
    if not lower <= c <= truncation:
        raise ValueError(f"evaluation object {c} outside truncation")
    dims = {p: len(hom_basis(kind, p, c)) for p in range(0, truncation + 1)}
    which = DETECTING_FUNCTOR[kind]
    dims[-1] = 0 if (kind == "aug_ssimp" and c == -1) else 1
    diff: dict[int, RatMatrix] = {}
    for p in range(1, truncation + 1):
        index_low = hom_index(kind, p - 1, c)
        sign_sum = apply_functor(which, omega_d(p))
        # column phi holds the distinct terms of phi o (signed coface sum)
        rows: list[dict[int, int | Fraction]] = [{} for _ in range(dims[p - 1])]
        for j, phi in enumerate(hom_basis(kind, p, c)):
            for w, coeff in LinComb.of(phi).compose(sign_sum).terms.items():
                rows[index_low[w]][j] = coeff
        diff[p] = RatMatrix._trusted(dims[p], rows)
    diff[0] = RatMatrix(dims[-1], dims[0], [1] * (dims[-1] * dims[0]))
    return make_complex(-1, truncation, dims, diff)


def tensor_with_representable(
    x: DiagramModule, p: int
) -> tuple[list[_Label], RatMatrix, list[int]]:
    """The coend X (x)_A A(p, -) as a literal quotient: labels, projection,
    kept coordinates.  Co-Yoneda says the result is X(p); tests compare."""
    x.require_valid()
    labels, _, proj, kept = _coend(
        x, x.truncation, lambda q: hom_basis(x.kind, p, q), lambda g: LinComb.of(g.as_morphism())
    )
    return labels, proj, kept


def tensor_resolution_complex(x: DiagramModule, truncation: int | None = None) -> DiagramModule:
    """Tensor X against the whole representable resolution, without co-Yoneda:
    an independent route to the Tor complex."""
    if truncation is None:
        truncation = x.truncation
    data = {p: tensor_with_representable(x, p) for p in range(0, truncation + 1)}
    which = DETECTING_FUNCTOR[x.kind]
    dims = {p: data[p][1].rows for p in data}
    diff: dict[int, RatMatrix] = {}
    for p in range(1, truncation + 1):
        labels_p, _, kept_p = data[p]
        labels_low, proj_low, _ = data[p - 1]
        index_low = {lab: k for k, lab in enumerate(labels_low)}
        sign_sum = apply_functor(which, omega_d(p))
        cols = []
        for k in kept_p:
            cdeg, phi, i = labels_p[k]
            col = [0] * len(labels_low)
            for w, coeff in LinComb.of(phi).compose(sign_sum).terms.items():
                col[index_low[(cdeg, w, i)]] += coeff
            cols.append(col)
        at_ambient_level = RatMatrix.from_columns(cols, rows=len(labels_low))
        diff[p] = proj_low @ at_ambient_level
    return make_complex(0, truncation, dims, diff)


# -- low-degree exact sequence ------------------------------------------------------


@dataclass
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
    c = restrict("u_a", x)
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
