"""Chain complexes as chain-kind modules, with exact homology.

A chain complex is a ``DiagramModule`` of kind ``chain0`` (degrees 0..N) or
``chain_neg1`` (degrees -1..N): a module over the differential algebra whose
one generator d(n) per degree acts as the differential C_n -> C_{n-1}.  Its
``diff`` is the read-only view {n: X(d(n))} of those actions, a chain map is
a ``ModuleMap``, and ``diagmod`` validates, truncates, composes and
serializes both.  ``make_complex`` builds a complex from its lower bound,
dimensions and differentials.

Homology is reported only on the validity window [lower, truncation - 1]: at
the truncation edge the boundaries are unknown, so nothing is claimed there.
``is_quasi_iso`` returns a ``diagmod.Verdict`` that carries that window.

Cycle bases are the kernel bases in rref order; homology representatives are
the cycle columns that complete a basis of the boundary space, so induced
maps are honest matrices in pinned coordinates and invertibility verdicts are
basis-independent.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactlin import (
    RatMatrix,
    coordinate_section,
    hstack,
    image_basis,
    inverse,
    is_invertible,
    kernel_basis,
    quotient_with_section,
    rref,
    solve,
)
from .diagmod import DiagramModule, ModuleMap, Verdict, make_module
from .simplexcat import omega_d


def make_complex(lower: int, truncation: int, dims: dict[int, int],
                 diff: dict[int, RatMatrix]) -> DiagramModule:
    """The chain-kind module with these dimensions and d(n) = diff[n];
    missing degrees and differentials are zero."""
    if lower not in (-1, 0):
        raise ValueError("lower bound must be -1 or 0")
    kind = "chain0" if lower == 0 else "chain_neg1"
    return make_module(kind, truncation, dims, {omega_d(n): m for n, m in diff.items()})


# -- homology -----------------------------------------------------------------


@dataclass(frozen=True)
class HomologyReport:
    window: tuple[int, int]
    dims: dict[int, int]
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


def homology(c: DiagramModule) -> HomologyReport:
    """Exact homology with bases, inside the validity window.

    At the bottom degree the cycle space is everything (there is no outgoing
    differential), so H_lower = C_lower / im d_{lower+1}.
    """
    c.require_valid()
    lo, hi = c.lower, c.truncation - 1
    d = c.diff
    dims: dict[int, int] = {}
    boundaries: dict[int, RatMatrix] = {}
    reps: dict[int, RatMatrix] = {}
    for n in range(lo, hi + 1):
        z = RatMatrix.identity(c.dim(n)) if n == lo else kernel_basis(d[n])
        b = image_basis(d[n + 1])
        picked = _complete_boundaries(b, z)
        dims[n] = picked.cols
        boundaries[n] = b
        reps[n] = picked
    return HomologyReport((lo, hi), dims, boundaries, reps)


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
    return x.row_select(range(b.cols, x.rows))


# -- chain maps ----------------------------------------------------------------


def homology_map(f: ModuleMap) -> dict[int, RatMatrix]:
    """Matrices of H_n(f) in the pinned homology bases, per window degree."""
    f.require_checked()
    hx = homology(f.source)
    hy = homology(f.target)
    lo, hi = hx.window
    out = {}
    for n in range(lo, hi + 1):
        pushed = f.components[n] @ hx.representatives[n]
        out[n] = homology_coordinates(hy, n, pushed)
    return out


def is_quasi_iso(f: ModuleMap) -> Verdict:
    """True when H_n(f) is invertible for every degree in the window; the
    witness lists the degrees where it is not, as {"failures": [...]}."""
    maps = homology_map(f)
    window = (f.source.lower, f.source.truncation - 1)
    failures = [n for n, m in sorted(maps.items()) if not is_invertible(m)]
    return Verdict(not failures, window, {"failures": failures})


# -- truncations and reindexing --------------------------------------------------


def good_truncation(c: DiagramModule) -> DiagramModule:
    """Replace degree 0 by ker(d_0) and erase degree -1; degrees >= 1 unchanged."""
    if c.lower != -1:
        raise ValueError("good truncation needs a complex with lower bound -1")
    if c.truncation < 0:
        raise ValueError("good truncation needs degree 0: the validity window is empty")
    c.require_valid()
    d = c.diff
    k = kernel_basis(d[0])
    dims = {n: c.dim(n) for n in range(1, c.truncation + 1)}
    dims[0] = k.cols
    diff = {n: m for n, m in d.items() if n >= 2}
    if c.truncation >= 1:
        lifted = solve(k, d[1])  # im d_1 lies in ker d_0 because d o d = 0
        if lifted is None:
            raise AssertionError("d_1 does not land in ker d_0 on a valid complex")
        diff[1] = lifted
    return make_complex(0, c.truncation, dims, diff)


def good_truncation_basis(c: DiagramModule) -> RatMatrix:
    """The kernel inclusion identifying the truncated degree 0 inside C_0."""
    if c.lower != -1:
        raise ValueError("good truncation needs a complex with lower bound -1")
    return kernel_basis(c.diff[0])


def good_truncation_map(f: ModuleMap) -> ModuleMap:
    """The induced map between good truncations (components restrict to kernels)."""
    f.require_checked()
    ts = good_truncation(f.source)
    tt = good_truncation(f.target)
    ks = good_truncation_basis(f.source)
    kt = good_truncation_basis(f.target)
    comps = {n: f.components[n] for n in range(1, f.source.truncation + 1)}
    restricted = solve(kt, f.components[0] @ ks)
    if restricted is None:
        raise AssertionError("chain map does not preserve kernels")
    comps[0] = restricted
    return ModuleMap(ts, tt, comps)


def brutal_truncation(c: DiagramModule) -> DiagramModule:
    """Drop degree -1 and the differential into it; keep everything else."""
    if c.lower != -1:
        raise ValueError("brutal truncation needs a complex with lower bound -1")
    c.require_valid()
    dims = {n: c.dim(n) for n in range(0, c.truncation + 1)}
    diff = {n: m for n, m in c.diff.items() if n >= 1}
    return make_complex(0, c.truncation, dims, diff)


def brutal_truncation_map(f: ModuleMap) -> ModuleMap:
    f.require_checked()
    return ModuleMap(
        brutal_truncation(f.source),
        brutal_truncation(f.target),
        {n: f.components[n] for n in range(0, f.source.truncation + 1)},
    )


def _bottom_quotient(c: DiagramModule) -> tuple[RatMatrix, list[int]]:
    """The projection onto coker(d_0) at the bottom degree -1, and the
    coordinates of C_{-1} it keeps as the quotient basis."""
    if c.lower != -1:
        raise ValueError("bottom cokernel needs a complex with lower bound -1")
    return quotient_with_section(c.dim(-1), image_basis(c.diff[0]))


def bottom_cokernel(c: DiagramModule) -> tuple[RatMatrix, int]:
    """Projection onto coker(d_0) at the bottom degree -1, with its dimension."""
    c.require_valid()
    q, _ = _bottom_quotient(c)
    return q, q.rows


def bottom_cokernel_map(f: ModuleMap) -> RatMatrix:
    """The induced map on coker(d_0), in the pinned quotient coordinates."""
    f.require_checked()
    _, kept_s = _bottom_quotient(f.source)
    qt, _ = _bottom_quotient(f.target)
    return qt @ f.components[-1] @ coordinate_section(f.source.dim(-1), kept_s)


def reindex_shift(c: DiagramModule, by: int) -> DiagramModule:
    """Relabel degrees by +1 or -1; the lower bound must stay in {-1, 0}."""
    if by not in (1, -1):
        raise ValueError("shift must be +1 or -1")
    new_lower = c.lower + by
    if new_lower not in (-1, 0):
        raise ValueError(f"shift would move the lower bound to {new_lower}")
    c.require_valid()
    dims = {n + by: c.dim(n) for n in c.degrees()}
    diff = {n + by: m for n, m in c.diff.items()}
    return make_complex(new_lower, c.truncation + by, dims, diff)


# -- constructions ---------------------------------------------------------------


def disk_sphere_complex(pieces: list[tuple[str, int]], truncation: int,
                        lower: int = 0,
                        twists: dict[int, RatMatrix] | None = None) -> DiagramModule:
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
    if twists:
        for n in range(lower + 1, truncation + 1):
            t_out = twists.get(n - 1, RatMatrix.identity(dims[n - 1]))
            t_in = twists.get(n, RatMatrix.identity(dims[n]))
            diff[n] = t_out @ diff[n] @ inverse(t_in)
    return make_complex(lower, truncation, dims, diff)
