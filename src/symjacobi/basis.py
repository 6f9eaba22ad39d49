"""Symmetrized eigenbasis on (-pi, pi).

Even basis slots hold the half-line eigenfunctions extended evenly, odd slots
hold sign(theta) times the parameter-shifted ones, both scaled by 1/sqrt(2).
This module does the parity bookkeeping: reflection, even/odd splitting,
analysis and synthesis, and the round trip between symmetric-interval
expansions and pairs of half-line expansions. It alone knows the mirror
test and the fold f(t) = even(|t|) + sign(t) odd(|t|), which lets every
evaluation on a mirrored angle set run on the positive half only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    GridFunction,
    JacobiParams,
    QuadratureGrid,
    eigenfunction_table,
    gauss_jacobi_rule,
)
from .errors import ConfigError, DomainError, GridError

__all__ = [
    "HalfLineExpansion",
    "SymmExpansion",
    "eigen_index",
    "symm_eigenfunction_table",
    "symm_eigenvalues",
    "reflect",
    "reflect_coeffs",
    "split_even_odd",
    "analyze",
    "synthesize",
    "eval_symm_expansion",
    "eval_halfline_expansion",
    "to_halfline",
    "recombine",
]

SQRT2 = math.sqrt(2.0)


def eigen_index(n: int) -> int:
    """Map a symmetrized basis index to its eigenvalue index floor((n+1)/2)."""
    if n < 0:
        raise DomainError(f"basis index must be nonnegative, got {n}")
    return (n + 1) // 2


def symm_eigenvalues(n_coeffs: int, params: JacobiParams) -> np.ndarray:
    """Eigenvalues attached to symmetrized indices 0..n_coeffs-1."""
    return ((np.arange(n_coeffs) + 1) // 2 + params.eigen_shift) ** 2


def _mirror_split(theta: np.ndarray) -> int | None:
    """k when the second half of theta mirrors the first exactly, else None.

    Mirrored means theta[k:] > 0 and -theta[:k][::-1] == theta[k:] bitwise,
    with k = theta.size / 2. A 0 node, a NaN, an odd count or a node one ulp
    off its mirror image all give None.
    """
    if theta.size % 2:
        return None
    k = theta.size // 2
    # the end nodes first: this scalar test turns away most other sets, such
    # as a half-line rule, at a tenth of the cost of the array test
    if k and not (theta[-1] > 0 and -theta[0] == theta[-1]):
        return None
    pos = theta[k:]
    if np.all(pos > 0) and np.array_equal(-theta[:k][::-1], pos):
        return k
    return None


def _fold_nodes(theta) -> tuple[np.ndarray, int | None, np.ndarray]:
    # the angles, their mirror split, and the angles to evaluate on
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    k = _mirror_split(th)
    return th, k, th if k is None else th[k:]


def _fold(th: np.ndarray, k: int | None, parts: dict) -> np.ndarray:
    """even(|th|) + sign(th) odd(|th|) at th from values keyed by parity.

    The values lie on th[k:] when k is the mirror split of th, else on every
    angle of th; a missing key is a zero part.
    """
    even, odd = parts.get("even"), parts.get("odd")
    if k is None:
        if odd is None:
            return even
        odd = np.sign(th) * odd
        return odd if even is None else even + odd
    neg = pos = even
    if odd is not None:
        neg, pos = (-odd, odd) if even is None else (even - odd, even + odd)
    return np.concatenate([neg[..., ::-1], pos], axis=-1)


def symm_eigenfunction_table(n_coeffs: int, params: JacobiParams, theta) -> np.ndarray:
    """Rows n = 0..n_coeffs-1 of symmetrized basis values at theta.

    Even n: the (n/2)-th half-line eigenfunction over sqrt(2), an even
    function. Odd n: sign(theta) times the ((n-1)/2)-th eigenfunction of the
    shifted pair over sqrt(2), an odd function vanishing at 0. On a mirrored
    angle set both half-line tables are requested on the positive half only.
    """
    th, k, nodes = _fold_nodes(theta)
    out = np.empty((n_coeffs, th.shape[0]))
    n_even, n_odd = _coeff_counts(n_coeffs)
    if n_even:
        even = eigenfunction_table(n_even - 1, params, nodes) / SQRT2
        out[0::2] = _fold(th, k, {"even": even})
    if n_odd:
        odd = eigenfunction_table(n_odd - 1, params.shift(1), nodes) / SQRT2
        out[1::2] = _fold(th, k, {"odd": odd})
    return out


def _coeff_block(coeffs) -> np.ndarray:
    # one row of coefficients, or a block of rows with a leading member axis
    coeffs = np.atleast_1d(np.asarray(coeffs))
    if coeffs.ndim not in (1, 2) or coeffs.size == 0:
        raise DomainError("coefficients must form a nonempty 1-d array or 2-d block")
    return coeffs


@dataclass(frozen=True)
class HalfLineExpansion:
    """Finite expansion against the half-line eigenfunctions of params.

    parity records how the function extends to the symmetric interval: a
    plain even extension, or sign(theta) times the half-line values. A 2-d
    coeffs array holds a block of expansions, one per row.
    """

    params: JacobiParams
    coeffs: np.ndarray
    parity: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _coeff_block(self.coeffs))
        if self.parity not in ("even", "odd"):
            raise DomainError(f"parity must be 'even' or 'odd', got {self.parity!r}")

    def __len__(self) -> int:
        return self.coeffs.shape[-1]

    def eigenvalues(self) -> np.ndarray:
        a = self.params.eigen_shift
        return (np.arange(len(self)) + a) ** 2

    def coeff_norm(self):
        return _row_norms(self.coeffs)


@dataclass(frozen=True)
class SymmExpansion:
    """Finite expansion against the symmetrized basis of params.

    A 2-d coeffs array of shape (members, coefficients) is a block of
    expansions over one pair; every operation acts on all rows at once, and
    a single expansion is the same computation on one row. len() counts
    coefficients, and block[i] is member i.
    """

    params: JacobiParams
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _coeff_block(self.coeffs))

    def __len__(self) -> int:
        return self.coeffs.shape[-1]

    def __getitem__(self, i) -> "SymmExpansion":
        if self.coeffs.ndim != 2:
            raise DomainError("only a block of expansions has members")
        return SymmExpansion(self.params, self.coeffs[i])

    def eigenvalues(self) -> np.ndarray:
        return symm_eigenvalues(len(self), self.params)

    def coeff_norm(self):
        return _row_norms(self.coeffs)


def _row_norms(coeffs: np.ndarray):
    norms = np.linalg.norm(coeffs, axis=-1)
    return float(norms) if norms.ndim == 0 else norms


def _require_symmetric(grid: QuadratureGrid) -> None:
    if grid.interval != "symmetric" or _mirror_split(grid.nodes) is None:
        raise GridError("operation requires a mirror-symmetric grid")


def reflect(f: GridFunction) -> GridFunction:
    """Reflection theta -> -theta as an exact node permutation."""
    _require_symmetric(f.grid)
    return GridFunction(f.grid, f.values[..., ::-1].copy())


def reflect_coeffs(e: SymmExpansion) -> SymmExpansion:
    """Reflection in coefficient space: odd-index entries change sign."""
    return SymmExpansion(e.params, e.coeffs * _reflection_signs(e))


def _reflection_signs(e) -> np.ndarray:
    # phi_n(-t) = s_n phi_n(t): s_n = -1 on the odd slots of a symmetrized
    # expansion and on every mode of an odd half-line part
    if isinstance(e, SymmExpansion):
        return np.where(np.arange(len(e)) % 2, -1.0, 1.0)
    return np.full(len(e), -1.0 if e.parity == "odd" else 1.0)


def _positive_half(grid: QuadratureGrid) -> QuadratureGrid:
    if grid.half is not None:
        return grid.half
    k = grid.nodes.size // 2
    return QuadratureGrid(grid.nodes[k:], grid.weights[k:], "halfline")


def split_even_odd(f: GridFunction) -> tuple[GridFunction, GridFunction]:
    """Even and odd parts restricted to the positive nodes.

    Reconstruction f(t) = even(|t|) + sign(t) odd(|t|) holds exactly on the
    grid.
    """
    _require_symmetric(f.grid)
    half = _positive_half(f.grid)
    k = f.grid.nodes.size // 2
    pos = f.values[..., k:]
    neg = f.values[..., ::-1][..., k:]
    return (
        GridFunction(half, (pos + neg) / 2),
        GridFunction(half, (pos - neg) / 2),
    )


def _coeff_counts(n_coeffs: int) -> tuple[int, int]:
    # number of even-index and odd-index slots among 0..n_coeffs-1
    return (n_coeffs + 1) // 2, n_coeffs // 2


def min_quadrature_order(n_coeffs: int) -> int:
    """Smallest half-line rule size for which analyze is exact at this length."""
    return n_coeffs // 2 + 1


def analyze(f, params: JacobiParams, n_coeffs: int, n_quad: int | None = None) -> SymmExpansion:
    """Coefficients of f against the first n_coeffs symmetrized basis functions.

    f is either a GridFunction on a symmetric grid (its own half-line rule is
    used) or a callable on (-pi, pi) (matching-parameter rules are built, one
    per parity). Exact to roundoff when f lies in the span of the requested
    basis functions and the quadrature order suffices.
    """
    if n_coeffs < 1:
        raise ConfigError(f"coefficient count must be positive, got {n_coeffs}")
    n_even, n_odd = _coeff_counts(n_coeffs)
    needed = min_quadrature_order(n_coeffs)

    if isinstance(f, GridFunction):
        _require_symmetric(f.grid)
        half = _positive_half(f.grid)
        if len(half) < needed:
            raise ConfigError(
                f"grid holds {len(half)} positive nodes, need at least {needed} "
                f"for {n_coeffs} coefficients"
            )
        f_even, f_odd = split_even_odd(f)
        even_rule = odd_rule = half
        even_vals, odd_vals = f_even.values, f_odd.values
    elif callable(f):
        if n_quad is None:
            n_quad = n_coeffs + 8
        if n_quad < needed:
            raise ConfigError(
                f"quadrature order {n_quad} too small, need at least {needed} "
                f"for {n_coeffs} coefficients"
            )
        even_rule = gauss_jacobi_rule(n_quad, params)
        odd_rule = gauss_jacobi_rule(n_quad, params.shift(1))
        ev_pos = np.asarray(f(even_rule.nodes))
        ev_neg = np.asarray(f(-even_rule.nodes))
        od_pos = np.asarray(f(odd_rule.nodes))
        od_neg = np.asarray(f(-odd_rule.nodes))
        even_vals = (ev_pos + ev_neg) / 2
        odd_vals = (od_pos - od_neg) / 2
    else:
        raise ConfigError("analyze expects a GridFunction or a callable")

    is_complex = np.iscomplexobj(even_vals) or np.iscomplexobj(odd_vals)
    out = np.zeros(even_vals.shape[:-1] + (n_coeffs,), dtype=complex if is_complex else float)
    if n_even:
        table = eigenfunction_table(n_even - 1, params, even_rule.nodes)
        out[..., 0::2] = SQRT2 * even_vals @ (table * even_rule.weights).T
    if n_odd:
        table = eigenfunction_table(n_odd - 1, params.shift(1), odd_rule.nodes)
        out[..., 1::2] = SQRT2 * odd_vals @ (table * odd_rule.weights).T
    return SymmExpansion(params, out)


def _eval_parts(parts, theta) -> np.ndarray:
    # sum at theta of half-line expansions of distinct parity tags: one
    # product per part with its cached half-line table, then one fold
    th, k, nodes = _fold_nodes(theta)
    values = {h.parity: h.coeffs @ eigenfunction_table(len(h) - 1, h.params, nodes) for h in parts}
    return _fold(th, k, values)


def eval_symm_expansion(e: SymmExpansion, theta) -> np.ndarray:
    """Pointwise sum of the expansion at the given angles.

    Sums the even and odd half-line parts over their cached half-line
    tables; no symmetrized table is assembled. A block gives one row of
    values per member, from one product with each table. On a mirrored
    angle set the products run on the positive half only.
    """
    even, odd = to_halfline(e)
    return _eval_parts((even, odd) if len(e) > 1 else (even,), theta)


def synthesize(e: SymmExpansion, grid: QuadratureGrid) -> GridFunction:
    """Expansion (or block) sampled on a grid."""
    return GridFunction(grid, eval_symm_expansion(e, grid.nodes))


def eval_halfline_expansion(h: HalfLineExpansion, theta) -> np.ndarray:
    """Pointwise sum respecting the parity tag on the symmetric interval."""
    return _eval_parts((h,), theta)


def to_halfline(e: SymmExpansion) -> tuple[HalfLineExpansion, HalfLineExpansion]:
    """Split into half-line expansions whose values match the parts on (0, pi).

    The even output is against the same parameters, the odd output against
    the unit-shifted pair; both absorb the 1/sqrt(2) from the basis
    definition so that synthesis needs no extra factor.
    """
    c = e.coeffs
    even_coeffs = c[..., 0::2] / SQRT2
    odd_coeffs = c[..., 1::2] / SQRT2 if len(e) > 1 else np.zeros_like(c)
    return (
        HalfLineExpansion(e.params, even_coeffs, "even"),
        HalfLineExpansion(e.params.shift(1), odd_coeffs, "odd"),
    )


def _params_close(a: JacobiParams, b: JacobiParams) -> bool:
    return abs(a.alpha - b.alpha) < 1e-12 and abs(a.beta - b.beta) < 1e-12


def recombine(even_part: HalfLineExpansion, odd_part: HalfLineExpansion) -> SymmExpansion:
    """Inverse of to_halfline for a parity-tagged pair.

    Requires an (even, odd) pair whose parameters differ by a unit shift;
    the result is a symmetrized expansion over the even part's parameters.
    """
    if even_part.parity != "even" or odd_part.parity != "odd":
        raise DomainError(
            f"recombination needs parity tags (even, odd), got "
            f"({even_part.parity}, {odd_part.parity})"
        )
    if not _params_close(odd_part.params, even_part.params.shift(1)):
        raise DomainError(
            "recombination needs the odd parameters to be the unit shift of the even ones"
        )
    n_even = len(even_part)
    n_odd = len(odd_part)
    ev, od = even_part.coeffs, odd_part.coeffs
    dtype = np.promote_types(ev.dtype, od.dtype)
    lead = np.broadcast_shapes(ev.shape[:-1], od.shape[:-1])
    out = np.zeros(lead + (max(2 * n_even - 1, 2 * n_odd),), dtype=dtype)
    out[..., 0 : 2 * n_even : 2] = SQRT2 * ev
    out[..., 1 : 2 * n_odd + 1 : 2] = SQRT2 * od
    return SymmExpansion(even_part.params, out)
