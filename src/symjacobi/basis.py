"""Symmetrized eigenbasis on (-pi, pi).

Even basis slots hold the half-line eigenfunctions extended evenly, odd slots
hold sign(theta) times the parameter-shifted ones, both scaled by 1/sqrt(2).
This module does the parity bookkeeping: reflection, even/odd splitting,
analysis and synthesis, and the round trip between symmetric-interval
expansions and pairs of half-line expansions. It alone knows the fold
f(t) = even(|t|) + sign(t) odd(|t|), which lets every evaluation on a
mirrored angle set run on the positive half only. The mirror test is one
of the angle facts a grid derives once for its node arrays and keeps
beside their tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    GridFunction,
    JacobiParams,
    QuadratureGrid,
    _angle_facts,
    _Angles,
    _memo_by_pair,
    _stored_table,
    eigenfunction_table,
    symmetric_rule,
)
from .errors import ConfigError, DomainError, GridError

__all__ = [
    "HalfLineExpansion",
    "SymmExpansion",
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


def symm_eigenvalues(n_coeffs: int, params: JacobiParams) -> np.ndarray:
    """Eigenvalues attached to symmetrized indices 0..n_coeffs-1: slot n
    carries eigenvalue index floor((n + 1) / 2). Read-only, and shared by
    repeat calls through a bounded cache."""
    return _symm_eigenvalues(params, n_coeffs)


@_memo_by_pair(maxsize=64)
def _symm_eigenvalues(params: JacobiParams, n_coeffs: int) -> np.ndarray:
    return ((np.arange(n_coeffs) + 1) // 2 + params.eigen_shift) ** 2


def _fold(facts: _Angles, parts: dict, out: np.ndarray | None = None) -> np.ndarray:
    """even(|th|) + sign(th) odd(|th|) at the angles of facts, from values
    keyed by parity, into out when given.

    The values lie on the positive half when facts has a mirror split, else
    on every angle. A missing key is an exact zero part, so one part folds
    to the two-part sum with a zero partner, up to the sign of exact zeros.
    A part may be the positive half of out itself: the negative half is
    written first, from it, and the positive one in place.
    """
    even, odd = parts.get("even", 0.0), parts.get("odd", 0.0)
    if out is None:
        lead = (even if isinstance(even, np.ndarray) else odd).shape[:-1]
        out = np.empty(lead + (facts.size,), np.result_type(even, odd))
    k = facts.split
    if k is None:
        return np.add(even, facts.sign * odd, out=out)
    # each half is written straight into its place, the negative one
    # through a reversed view, so no half-size copies are concatenated
    np.subtract(even, odd, out=out[..., k - 1 :: -1])
    np.add(even, odd, out=out[..., k:])
    return out


def symm_eigenfunction_table(n_coeffs: int, params: JacobiParams, theta) -> np.ndarray:
    """Rows n = 0..n_coeffs-1 of symmetrized basis values at theta.

    Even n: the (n/2)-th half-line eigenfunction over sqrt(2), an even
    function. Odd n: sign(theta) times the ((n-1)/2)-th eigenfunction of the
    shifted pair over sqrt(2), an odd function vanishing at 0. On a mirrored
    angle set both half-line tables are requested on the positive half only.
    Each parity is scaled straight into its rows and folded there.
    """
    facts = _angle_facts(theta)
    out = np.empty((n_coeffs, facts.size))
    n_even, n_odd = _coeff_counts(n_coeffs)
    for parity, count, rows in (("even", n_even, out[0::2]), ("odd", n_odd, out[1::2])):
        if count:
            pr = params if parity == "even" else params.shift(1)
            folded = rows[..., facts.split :]
            np.divide(_stored_table(count - 1, pr, facts.tables, facts.folded), SQRT2, out=folded)
            _fold(facts, {parity: folded}, out=rows)
    return out


@dataclass(frozen=True)
class _Expansion:
    # coefficients against a basis of params: one row, or a block of rows
    params: JacobiParams
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.atleast_1d(np.asarray(self.coeffs))
        if coeffs.ndim not in (1, 2) or coeffs.size == 0:
            raise DomainError("coefficients must form a nonempty 1-d array or 2-d block")
        object.__setattr__(self, "coeffs", coeffs)

    def __len__(self) -> int:
        return self.coeffs.shape[-1]

    def coeff_norm(self):
        norms = np.linalg.norm(self.coeffs, axis=-1)
        return float(norms) if norms.ndim == 0 else norms


@dataclass(frozen=True)
class HalfLineExpansion(_Expansion):
    """Finite expansion against the half-line eigenfunctions of params.

    parity records how the function extends to the symmetric interval: a
    plain even extension, or sign(theta) times the half-line values. A 2-d
    coeffs array holds a block of expansions, one per row.
    """

    parity: str

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.parity not in ("even", "odd"):
            raise DomainError(f"parity must be 'even' or 'odd', got {self.parity!r}")

    def eigenvalues(self) -> np.ndarray:
        return (np.arange(len(self)) + self.params.eigen_shift) ** 2


@dataclass(frozen=True)
class SymmExpansion(_Expansion):
    """Finite expansion against the symmetrized basis of params.

    A 2-d coeffs array of shape (members, coefficients) is a block of
    expansions over one pair; every operation acts on all rows at once, and
    a single expansion is the same computation on one row. len() counts
    coefficients, and block[i] is member i.
    """

    def __getitem__(self, i) -> "SymmExpansion":
        if self.coeffs.ndim != 2:
            raise DomainError("only a block of expansions has members")
        return SymmExpansion(self.params, self.coeffs[i])

    def eigenvalues(self) -> np.ndarray:
        return symm_eigenvalues(len(self), self.params)


def _require_symmetric(grid: QuadratureGrid) -> None:
    if _angle_facts(grid.nodes).split is None:
        raise GridError("operation requires a mirror-symmetric grid")


def reflect(f: GridFunction) -> GridFunction:
    """Reflection theta -> -theta as an exact node permutation."""
    _require_symmetric(f.grid)
    return GridFunction(f.grid, f.values[..., ::-1].copy())


def reflect_coeffs(e: SymmExpansion) -> SymmExpansion:
    """Reflection in coefficient space: odd-index entries change sign."""
    return SymmExpansion(e.params, e.coeffs * np.where(np.arange(len(e)) % 2, -1.0, 1.0))


def split_even_odd(f: GridFunction) -> tuple[GridFunction, GridFunction]:
    """Even and odd parts restricted to the positive nodes.

    Reconstruction f(t) = even(|t|) + sign(t) odd(|t|) holds exactly on the
    grid.
    """
    _require_symmetric(f.grid)
    half = f.grid.half
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

    f is a GridFunction on a symmetric grid, or a callable on (-pi, pi) that
    is sampled on symmetric_rule(n_quad, params). Either way the grid's
    half-line rule serves both parities: the odd rows, of the shifted pair,
    are exact on it too. Exact to roundoff when f lies in the span of the
    requested basis functions and the quadrature order suffices. A
    callable's rule lives only for this call, so its tables do not outlive
    it; a GridFunction on a grid the caller holds reuses that grid's tables,
    which synthesis on the grid shares.
    """
    if n_coeffs < 1:
        raise ConfigError(f"coefficient count must be positive, got {n_coeffs}")
    n_even, n_odd = _coeff_counts(n_coeffs)
    needed = min_quadrature_order(n_coeffs)

    if not isinstance(f, GridFunction):
        if not callable(f):
            raise ConfigError("analyze expects a GridFunction or a callable")
        if n_quad is None:
            n_quad = n_coeffs + 8
        if n_quad < needed:
            raise ConfigError(
                f"quadrature order {n_quad} too small, need at least {needed} "
                f"for {n_coeffs} coefficients"
            )
        grid = symmetric_rule(n_quad, params)
        f = GridFunction(grid, f(grid.nodes))
    f_even, f_odd = split_even_odd(f)
    half = f_even.grid
    if len(half) < needed:
        raise ConfigError(
            f"grid holds {len(half)} positive nodes, need at least {needed} "
            f"for {n_coeffs} coefficients"
        )
    dtype = complex if np.iscomplexobj(f.values) else float
    out = np.zeros(f.values.shape[:-1] + (n_coeffs,), dtype=dtype)
    if n_even:
        table = eigenfunction_table(n_even - 1, params, half.nodes)
        out[..., 0::2] = SQRT2 * f_even.values @ (table * half.weights).T
    if n_odd:
        table = eigenfunction_table(n_odd - 1, params.shift(1), half.nodes)
        out[..., 1::2] = SQRT2 * f_odd.values @ (table * half.weights).T
    return SymmExpansion(params, out)


def _halfline_parts(e) -> tuple[HalfLineExpansion, ...]:
    # the parity-tagged half-line parts whose folded sum is e
    return (e,) if isinstance(e, HalfLineExpansion) else to_halfline(e)


def _evaluator(parts, theta):
    """Folded sum at theta of parts shaped like parts, and its angle count.

    parts are half-line expansions of distinct parity tags. Each one's
    cached table is fetched once, here, on the angles counted: the positive
    half of a mirrored theta, else every angle.
    """
    facts = _angle_facts(theta)
    tables = [_stored_table(len(h) - 1, h.params, facts.tables, facts.folded) for h in parts]

    def evaluate(same_parts) -> np.ndarray:
        return _fold(facts, {h.parity: h.coeffs @ t for h, t in zip(same_parts, tables)})

    return evaluate, facts.folded.angles.size


def _eval_parts(parts, theta) -> np.ndarray:
    # sum at theta of half-line expansions of distinct parity tags
    return _evaluator(parts, theta)[0](parts)


def eval_symm_expansion(e: SymmExpansion, theta) -> np.ndarray:
    """Pointwise sum of the expansion at the given angles.

    Sums the even and odd half-line parts over their cached half-line
    tables; no symmetrized table is assembled. A block gives one row of
    values per member, from one product with each table. On a mirrored
    angle set the products run on the positive half only.
    """
    return _eval_parts(_halfline_parts(e), theta)


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
