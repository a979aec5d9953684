"""Bounded-below chain complexes with exact homology.

A complex stores dimensions for degrees lower..truncation (lower is -1 or 0)
and one differential matrix per degree lower < n <= truncation.  Homology is
reported only on the validity window [lower, truncation - 1]: at the
truncation edge the boundaries are unknown, so nothing is claimed there.
Every verdict that depends on a window carries it.

Cycle bases are the kernel bases in rref order; homology representatives are
the cycle columns that complete a basis of the boundary space, so induced
maps are honest matrices in pinned coordinates and invertibility verdicts are
basis-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .exactlin import (
    RatMatrix,
    coordinate_section,
    hstack,
    image_basis,
    inverse,
    kernel_basis,
    quotient_with_section,
    rank,
    rref,
    solve,
)
from .diagmod import DiagramModule, GeneratorId, ModuleMap, make_module


@dataclass
class ChainComplex:
    lower: int
    truncation: int
    dims: dict[int, int]
    diff: dict[int, RatMatrix]
    _validated: bool = field(default=False, repr=False, compare=False)

    def dim(self, n: int) -> int:
        if n < self.lower or n > self.truncation:
            raise ValueError(f"degree {n} outside [{self.lower}, {self.truncation}]")
        return self.dims.get(n, 0)

    def degrees(self) -> range:
        return range(self.lower, self.truncation + 1)

    def require_valid(self) -> None:
        if not self._validated:
            problem = validate_complex(self)
            if problem:
                raise ValueError(problem)

    def window(self) -> tuple[int, int]:
        return (self.lower, self.truncation - 1)


def make_complex(lower: int, truncation: int, dims: dict[int, int],
                 diff: dict[int, RatMatrix]) -> ChainComplex:
    if lower not in (-1, 0):
        raise ValueError("lower bound must be -1 or 0")
    if truncation < lower:
        raise ValueError("truncation below lower bound")
    full_dims = {n: int(dims.get(n, 0)) for n in range(lower, truncation + 1)}
    full_diff = {}
    for n in range(lower + 1, truncation + 1):
        m = diff.get(n)
        shape = (full_dims[n - 1], full_dims[n])
        if m is None:
            m = RatMatrix.zeros(*shape)
        if (m.rows, m.cols) != shape:
            raise ValueError(f"differential at degree {n} has shape {m.rows}x{m.cols}, expected {shape}")
        full_diff[n] = m
    return ChainComplex(lower, truncation, full_dims, full_diff)


def validate_complex(c: ChainComplex) -> str | None:
    """None when d o d = 0 holds exactly everywhere; else a description."""
    for n in range(c.lower + 1, c.truncation):
        if not (c.diff[n] @ c.diff[n + 1]).is_zero():
            return f"d o d != 0 between degrees {n + 1} and {n - 1}"
    c._validated = True
    return None


def zero_complex(lower: int, truncation: int) -> ChainComplex:
    return make_complex(lower, truncation, {}, {})


# -- homology -----------------------------------------------------------------


@dataclass
class HomologyReport:
    lower: int
    window: tuple[int, int]
    dims: dict[int, int]
    cycles: dict[int, RatMatrix]
    boundaries: dict[int, RatMatrix]
    representatives: dict[int, RatMatrix]

    def dim(self, n: int) -> int:
        lo, hi = self.window
        if not lo <= n <= hi:
            raise ValueError(f"degree {n} outside homology window [{lo}, {hi}]")
        return self.dims[n]

    def dims_list(self) -> list[int]:
        lo, hi = self.window
        return [self.dims[n] for n in range(lo, hi + 1)]


def homology(c: ChainComplex) -> HomologyReport:
    """Exact homology with bases, inside the validity window.

    At the bottom degree the cycle space is everything (there is no outgoing
    differential), so H_lower = C_lower / im d_{lower+1}.
    """
    c.require_valid()
    lo, hi = c.window()
    dims: dict[int, int] = {}
    cycles: dict[int, RatMatrix] = {}
    boundaries: dict[int, RatMatrix] = {}
    reps: dict[int, RatMatrix] = {}
    for n in range(lo, hi + 1):
        z = RatMatrix.identity(c.dim(n)) if n == lo else kernel_basis(c.diff[n])
        b = image_basis(c.diff[n + 1])
        picked = _complete_boundaries(b, z)
        dims[n] = picked.cols
        cycles[n] = z
        boundaries[n] = b
        reps[n] = picked
    return HomologyReport(c.lower, (lo, hi), dims, cycles, boundaries, reps)


def _complete_boundaries(b: RatMatrix, z: RatMatrix) -> RatMatrix:
    """Cycle columns of z completing the boundary columns b to a basis of ker."""
    _, pivots, _ = rref(hstack(b, z))
    picked = [p - b.cols for p in pivots if p >= b.cols]
    return z.column_select(picked)


def homology_coordinates(report: HomologyReport, n: int, vectors: RatMatrix) -> RatMatrix:
    """Coordinates of cycle columns in the degree-n homology basis.

    Solves against [boundaries | representatives]; the vectors must be cycles.
    """
    b = report.boundaries[n]
    h = report.representatives[n]
    x = solve(hstack(b, h), vectors)
    if x is None:
        raise ValueError(f"vector at degree {n} is not a cycle of the target")
    rows = [x.row(b.cols + i) for i in range(h.cols)]
    return RatMatrix.from_rows(rows, cols=vectors.cols)


# -- chain maps ----------------------------------------------------------------


@dataclass
class ChainMap:
    source: ChainComplex
    target: ChainComplex
    components: dict[int, RatMatrix]

    def component(self, n: int) -> RatMatrix:
        return self.components[n]

    def require_valid(self) -> None:
        problem = validate_chain_map(self)
        if problem:
            raise ValueError(problem)


def validate_chain_map(f: ChainMap) -> str | None:
    s, t = f.source, f.target
    if (s.lower, s.truncation) != (t.lower, t.truncation):
        return "source and target windows differ"
    s.require_valid()
    t.require_valid()
    for n in s.degrees():
        m = f.components.get(n)
        if m is None or (m.rows, m.cols) != (t.dim(n), s.dim(n)):
            return f"missing or misshaped component at degree {n}"
    for n in range(s.lower + 1, s.truncation + 1):
        if t.diff[n] @ f.components[n] != f.components[n - 1] @ s.diff[n]:
            return f"component does not commute with the differential at degree {n}"
    return None


def identity_chain_map(c: ChainComplex) -> ChainMap:
    return ChainMap(c, c, {n: RatMatrix.identity(c.dim(n)) for n in c.degrees()})


def compose_chain_maps(g: ChainMap, f: ChainMap) -> ChainMap:
    return ChainMap(
        f.source, g.target,
        {n: g.components[n] @ f.components[n] for n in f.source.degrees()},
    )


def homology_map(f: ChainMap) -> dict[int, RatMatrix]:
    """Matrices of H_n(f) in the pinned homology bases, per window degree."""
    f.require_valid()
    hx = homology(f.source)
    hy = homology(f.target)
    lo, hi = hx.window
    out = {}
    for n in range(lo, hi + 1):
        pushed = f.components[n] @ hx.representatives[n]
        out[n] = homology_coordinates(hy, n, pushed)
    return out


@dataclass
class QuasiIsoVerdict:
    ok: bool
    window: tuple[int, int]
    failures: list[int]

    def __bool__(self) -> bool:
        return self.ok


def is_quasi_iso(f: ChainMap) -> QuasiIsoVerdict:
    """True when H_n(f) is invertible for every degree in the window."""
    maps = homology_map(f)
    window = f.source.window()
    failures = [
        n for n, m in sorted(maps.items()) if m.rows != m.cols or rank(m) != m.rows
    ]
    return QuasiIsoVerdict(not failures, window, failures)


# -- truncations and reindexing --------------------------------------------------


def good_truncation(c: ChainComplex) -> ChainComplex:
    """Replace degree 0 by ker(d_0) and erase degree -1; degrees >= 1 unchanged."""
    if c.lower != -1:
        raise ValueError("good truncation needs a complex with lower bound -1")
    c.require_valid()
    k = kernel_basis(c.diff[0])
    dims = {n: c.dim(n) for n in range(1, c.truncation + 1)}
    dims[0] = k.cols
    diff = {n: c.diff[n] for n in range(2, c.truncation + 1)}
    if c.truncation >= 1:
        lifted = solve(k, c.diff[1])  # im d_1 lies in ker d_0 because d o d = 0
        if lifted is None:
            raise AssertionError("d_1 does not land in ker d_0 on a valid complex")
        diff[1] = lifted
    return make_complex(0, c.truncation, dims, diff)


def good_truncation_basis(c: ChainComplex) -> RatMatrix:
    """The kernel inclusion identifying the truncated degree 0 inside C_0."""
    if c.lower != -1:
        raise ValueError("good truncation needs a complex with lower bound -1")
    return kernel_basis(c.diff[0])


def good_truncation_map(f: ChainMap) -> ChainMap:
    """The induced map between good truncations (components restrict to kernels)."""
    f.require_valid()
    ts = good_truncation(f.source)
    tt = good_truncation(f.target)
    ks = good_truncation_basis(f.source)
    kt = good_truncation_basis(f.target)
    comps = {n: f.components[n] for n in range(1, f.source.truncation + 1)}
    restricted = solve(kt, f.components[0] @ ks)
    if restricted is None:
        raise AssertionError("chain map does not preserve kernels")
    comps[0] = restricted
    return ChainMap(ts, tt, comps)


def brutal_truncation(c: ChainComplex) -> ChainComplex:
    """Drop degree -1 and the differential into it; keep everything else."""
    if c.lower != -1:
        raise ValueError("brutal truncation needs a complex with lower bound -1")
    c.require_valid()
    dims = {n: c.dim(n) for n in range(0, c.truncation + 1)}
    diff = {n: c.diff[n] for n in range(2, c.truncation + 1)}
    if c.truncation >= 1:
        diff[1] = c.diff[1]
    return make_complex(0, c.truncation, dims, diff)


def brutal_truncation_map(f: ChainMap) -> ChainMap:
    f.require_valid()
    return ChainMap(
        brutal_truncation(f.source),
        brutal_truncation(f.target),
        {n: f.components[n] for n in range(0, f.source.truncation + 1)},
    )


def bottom_cokernel(c: ChainComplex) -> tuple[RatMatrix, int]:
    """Projection onto coker(d_0) at the bottom degree -1, with its dimension."""
    if c.lower != -1:
        raise ValueError("bottom cokernel needs a complex with lower bound -1")
    c.require_valid()
    q, _ = quotient_with_section(c.dim(-1), image_basis(c.diff[0]))
    return q, q.rows


def bottom_cokernel_map(f: ChainMap) -> RatMatrix:
    """The induced map on coker(d_0), in the pinned quotient coordinates."""
    f.require_valid()
    qs, kept_s = quotient_with_section(
        f.source.dim(-1), image_basis(f.source.diff[0])
    )
    qt, _ = quotient_with_section(f.target.dim(-1), image_basis(f.target.diff[0]))
    section = coordinate_section(f.source.dim(-1), kept_s)
    return qt @ f.components[-1] @ section


def reindex_shift(c: ChainComplex, by: int) -> ChainComplex:
    """Relabel degrees by +1 or -1; the lower bound must stay in {-1, 0}."""
    if by not in (1, -1):
        raise ValueError("shift must be +1 or -1")
    new_lower = c.lower + by
    if new_lower not in (-1, 0):
        raise ValueError(f"shift would move the lower bound to {new_lower}")
    c.require_valid()
    dims = {n + by: c.dim(n) for n in c.degrees()}
    diff = {n + by: c.diff[n] for n in range(c.lower + 1, c.truncation + 1)}
    return make_complex(new_lower, c.truncation + by, dims, diff)


# -- constructions ---------------------------------------------------------------


def disk_sphere_complex(pieces: list[tuple[str, int]], truncation: int,
                        lower: int = 0,
                        twists: dict[int, RatMatrix] | None = None) -> ChainComplex:
    """Direct sum of elementary complexes, optionally conjugated degreewise.

    A sphere(n) contributes one k in degree n with zero differential; a
    disk(n) contributes k in degrees n and n-1 with identity differential
    (contractible).  Twists are invertible matrices T_n; the result has
    differentials T_{n-1} d_n T_n^{-1}, which leaves homology unchanged.
    """
    dims = {n: 0 for n in range(lower, truncation + 1)}
    blocks: dict[int, list[tuple[int, int, int]]] = {}
    for name, n in pieces:
        if name == "sphere":
            if not lower <= n <= truncation:
                raise ValueError(f"sphere({n}) outside degrees [{lower}, {truncation}]")
            dims[n] += 1
        elif name == "disk":
            if not lower + 1 <= n <= truncation:
                raise ValueError(f"disk({n}) needs degree {lower + 1}..{truncation}")
            row, col = dims[n - 1], dims[n]
            dims[n] += 1
            dims[n - 1] += 1
            blocks.setdefault(n, []).append((row, col, 1))
        else:
            raise ValueError(f"unknown piece {name!r}")
    diff = {}
    for n in range(lower + 1, truncation + 1):
        m = [[0] * dims[n] for _ in range(dims[n - 1])]
        for row, col, val in blocks.get(n, []):
            m[row][col] = val
        diff[n] = RatMatrix.from_rows(m, cols=dims[n])
    c = make_complex(lower, truncation, dims, diff)
    if twists:
        new_diff = {}
        for n in range(lower + 1, truncation + 1):
            t_out = twists.get(n - 1, RatMatrix.identity(dims[n - 1]))
            t_in = twists.get(n, RatMatrix.identity(dims[n]))
            new_diff[n] = t_out @ c.diff[n] @ inverse(t_in)
        c = make_complex(lower, truncation, dims, new_diff)
    return c


def euler_characteristic(dims: dict[int, int]) -> Fraction:
    # Fraction(-1) ** -1 == Fraction(-1), so degree -1 carries sign -1 as it should
    return sum(Fraction(-1) ** n * d for n, d in dims.items())


# -- complexes as chain-kind modules ----------------------------------------------


def complex_to_module(c: ChainComplex) -> DiagramModule:
    kind = "chain0" if c.lower == 0 else "chain_neg1"
    c.require_valid()
    actions = {
        GeneratorId("d", n): c.diff[n] for n in range(c.lower + 1, c.truncation + 1)
    }
    mod = make_module(kind, c.truncation, dict(c.dims), actions)
    mod._validated = True
    return mod


def module_to_complex(x: DiagramModule) -> ChainComplex:
    if x.kind not in ("chain0", "chain_neg1"):
        raise ValueError(f"module of kind {x.kind!r} is not a chain complex")
    x.require_valid()
    diff = {
        n: x.actions[GeneratorId("d", n)] for n in range(x.lower + 1, x.truncation + 1)
    }
    c = make_complex(x.lower, x.truncation, dict(x.dims), diff)
    c._validated = True
    return c


def module_map_to_chain_map(f: ModuleMap) -> ChainMap:
    return ChainMap(
        module_to_complex(f.source), module_to_complex(f.target), dict(f.components)
    )
