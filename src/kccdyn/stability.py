"""Fixed points and their Lyapunov and Jacobi classification.

Eigenvalues come from LAPACK through numpy (Hessenberg QR), which works on
the matrix itself and so stays accurate where the roots of the
characteristic polynomial would not. The characteristic polynomial
(Faddeev-LeVerrier recurrence, integer divisions only) is still computed,
but only for the report and for the Routh-Hurwitz and Descartes results.
The Hurwitz minors are exact for its float coefficients: one fraction-free
Routh pass over Python integers, each minor rounded once at the end.

The Jacobi side rests on the fixed-point identity P = 1/4 A^2: the spectrum
of the deviation tensor is {lambda^2 / 4} for Jacobian eigenvalues lambda,
so a fixed point is Jacobi stable iff the dimension is even, every lambda
is strictly complex, and Re(lambda^2) = alpha^2 - beta^2 < 0 for all pairs.
Odd-dimensional systems always carry a real eigenvalue with lambda^2 >= 0
and therefore are never Jacobi stable. Both halves of a report come from
one eigenvalue computation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .exprdsl import DomainError
from .odesys import FieldDomainError, VectorField, eval_field, jacobian

__all__ = [
    "CharPoly",
    "FixedPointReport",
    "FixedPointSearch",
    "NotAFixedPointError",
    "RootConvergenceError",
    "SeedFailure",
    "analyze_fixed_point",
    "characteristic_polynomial",
    "descartes_bound",
    "eigenvalues",
    "find_fixed_points",
    "hurwitz_determinants",
    "hurwitz_matrix",
    "is_hurwitz_stable",
    "jacobi_classify",
    "lyapunov_classify",
]

HYPERBOLIC_TOL = 1e-9

# A box grid with more seeds than this is refused before any seed is built.
MAX_GRID_SEEDS = 100_000


class RootConvergenceError(Exception):
    """The spectrum cannot be trusted: LAPACK failed (no convergence, or an
    inf or NaN matrix entry), or an eigenvalue is not finite."""


class NotAFixedPointError(Exception):
    def __init__(self, location, residual: float, tol: float):
        self.location = np.asarray(location, dtype=float)
        self.residual = float(residual)
        super().__init__(
            f"residual {residual:.3e} exceeds {tol:.1e} at {self.location.tolist()}")


@dataclass(eq=False)
class CharPoly:
    """Monic characteristic polynomial, coefficients [1, a1, ..., an] for
    lambda^n + a1 lambda^(n-1) + ... + an."""

    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.atleast_1d(np.asarray(self.coefficients, dtype=float))
        if coeffs.ndim != 1 or coeffs.size < 1:
            raise ValueError("coefficients must be a non-empty 1-d sequence")
        if coeffs[0] != 1.0:
            raise ValueError(f"polynomial must be monic, got leading {coeffs[0]!r}")
        self.coefficients = coeffs

    @property
    def degree(self) -> int:
        return self.coefficients.size - 1


def characteristic_polynomial(A) -> CharPoly:
    """Faddeev-LeVerrier recurrence: trace-based, divides by integers only.
    A coefficient out of float range comes back non-finite without a
    warning; the spectrum comes from eigenvalues(), not from these."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    n = A.shape[0]
    coeffs = np.empty(n + 1)
    coeffs[0] = 1.0
    M = np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n + 1):
            AM = A @ M
            coeffs[k] = -np.trace(AM) / k
            if k < n:
                M = AM + coeffs[k] * np.eye(n)
    return CharPoly(coefficients=coeffs)


def _sorted_spectrum(values) -> list[complex]:
    """The one form of every reported spectrum: sorted by (Re, Im), with
    -0.0 turned into 0.0 (adding 0.0 does that), so reports never print "-0"."""
    return sorted((complex(z.real + 0.0, z.imag + 0.0) for z in values),
                  key=lambda z: (z.real, z.imag))


def eigenvalues(A) -> list[complex]:
    """LAPACK eigenvalues (numpy's Hessenberg QR), sorted by (Re, Im).

    Complex eigenvalues of a real matrix come out in exact conjugate pairs.
    Raises RootConvergenceError if LAPACK fails (no convergence, or inf/NaN
    entries) or returns a non-finite eigenvalue.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    try:
        eigs = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as err:
        raise RootConvergenceError(f"eigenvalue computation failed: {err}") from err
    if not np.all(np.isfinite(eigs)):
        raise RootConvergenceError("non-finite eigenvalue")
    return _sorted_spectrum(eigs)


# ---------------------------------------------------------------------------
# Routh-Hurwitz and Descartes


def hurwitz_matrix(p: CharPoly) -> np.ndarray:
    """H[i, j] = a_(2(j+1)-(i+1)) with a_0 = 1 and zero outside 0..n."""
    a = p.coefficients
    n = p.degree
    H = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            k = 2 * (j + 1) - (i + 1)
            if 0 <= k <= n:
                H[i, j] = a[k]
    return H


def _dyadic(a: float) -> tuple[int, int]:
    """(m, x) with a = m 2^x and m odd, for a finite non-zero float a."""
    num, den = a.as_integer_ratio()
    zeros = (num & -num).bit_length() - 1
    return num >> zeros, zeros + 1 - den.bit_length()


def _minor_row(b: list[int], m: int, width: int) -> list[int]:
    """Row m of the Routh array from its definition: entry j is the minor of
    the Hurwitz matrix of b on rows 1..m and columns 1..m-1 and m+j. The
    entries differ in their last column only, so one fraction-free
    elimination, with a search for a non-zero pivot, serves the whole row."""
    n = len(b) - 1
    M = [[b[2 * c - i + 1] if 0 <= 2 * c - i + 1 <= n else 0 for c in range(m - 1 + width)]
         for i in range(m)]
    sign, prev = 1, 1
    for k in range(m - 1):
        pivot = next((r for r in range(k, m) if M[r][k]), None)
        if pivot is None:
            return [0] * width
        if pivot != k:
            M[k], M[pivot] = M[pivot], M[k]
            sign = -sign
        top = M[k]
        for i in range(k + 1, m):
            row = M[i]
            row[k + 1:] = [(top[k] * row[c] - row[k] * top[c]) // prev
                           for c in range(k + 1, len(row))]
        prev = top[k]
    return [sign * v for v in M[m - 1][m - 1:]]


def _scaled_float(value: int, shift: int) -> float:
    """value 2^shift rounded once to float; +-inf out of float range."""
    try:
        return float(value << shift) if shift >= 0 else value / (1 << -shift)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def hurwitz_determinants(p: CharPoly) -> np.ndarray:
    """Leading principal minors D_1 .. D_n of the Hurwitz matrix, each the
    exact minor of the float coefficients rounded once; a minor out of float
    range is +-inf. D_k reads a_0 .. a_(2k-1) only, and is NaN when one of
    those is not finite.

    The coefficients are dyadic rationals. The substitution lambda = 2^t mu,
    with t chosen to bring the geometric mean of the non-zero root moduli
    near 1, and a common power of two turn them into short integers b_k;
    D_k(a) = 2^(t k(k+1)/2 + low k) D_k(b). The fraction-free Routh array
    over the b_k has the minors D_k(b) as its first column:
        s_0 = (b_0, b_2, ...), s_1 = (b_1, b_3, ...),
        s_m[j] = (s_(m-1)[0] s_(m-2)[j+1] - s_(m-2)[0] s_(m-1)[j+1]) / d_m,
    with d_2 = d_3 = 1 and d_m = s_(m-3)[0], each division exact by
    Sylvester's identity. A row with d_m = 0 comes from its definition. A
    zero row after a non-zero first entry makes rows 1..m of the Hurwitz
    matrix dependent, so every later minor is 0."""
    a = p.coefficients.tolist()
    n = p.degree
    minors = np.full(n, np.nan)
    bad = next((k for k, v in enumerate(a) if not math.isfinite(v)), n + 1)
    count = n if bad > n else bad // 2
    if count == 0:
        return minors
    terms = {k: _dyadic(a[k]) for k in range(min(2 * count, n + 1)) if a[k] != 0.0}
    last = max(terms)
    t = round(math.log2(abs(a[last])) / last) if last else 0
    low = min(x - t * k for k, (_, x) in terms.items())
    b = [0] * (n + 1)
    for k, (m, x) in terms.items():
        b[k] = m << (x - t * k - low)
    rows = [b[0::2] + [0], b[1::2] + [0]]
    while len(rows) <= count and (any(rows[-1]) or not rows[-2][0]):
        m = len(rows)
        width = (n - m) // 2 + 1
        d = rows[m - 3][0] if m > 3 else 1
        if d:
            s2, s1 = rows[m - 2], rows[m - 1]
            row = [(s1[0] * s2[j + 1] - s2[0] * s1[j + 1]) // d for j in range(width)]
        else:
            row = _minor_row(b, m, width)
        rows.append(row + [0])
    first = [row[0] for row in rows[1:]] + [0] * (count + 1 - len(rows))
    for k, value in enumerate(first, start=1):
        minors[k - 1] = _scaled_float(value, k * low + t * k * (k + 1) // 2)
    return minors


def is_hurwitz_stable(p: CharPoly) -> bool:
    """a_n > 0 and every D_k > 0: all roots strictly in the left half-plane."""
    if p.degree == 0:
        return True
    if p.coefficients[-1] <= 0.0:
        return False
    return bool(np.all(hurwitz_determinants(p) > 0.0))


def descartes_bound(p: CharPoly) -> int:
    """Sign changes m in the coefficient sequence after factoring out exact
    zero roots; the positive real root count is m, m-2, m-4, ..."""
    coeffs = list(p.coefficients)
    while len(coeffs) > 1 and coeffs[-1] == 0.0:
        coeffs.pop()
    nonzero = [c for c in coeffs if c != 0.0]
    if not nonzero:
        raise ValueError("all-zero polynomial")
    changes = 0
    for a, b in itertools.pairwise(nonzero):
        if (a > 0) != (b > 0):
            changes += 1
    return changes


# ---------------------------------------------------------------------------
# Classification


def lyapunov_classify(eigs: Sequence[complex], tol: float = HYPERBOLIC_TOL) -> str:
    """Label the linearization. For n = 3 the five labels are node, saddle,
    focus, saddle-focus, and center; planar systems use stable-/unstable-
    focus and center. Any other eigenvalue within tol of the imaginary axis
    gives non-hyperbolic."""
    eigs = [complex(z) for z in eigs]
    n = len(eigs)
    if n == 0:
        raise ValueError("empty eigenvalue list")
    complex_eigs = [z for z in eigs if abs(z.imag) > tol]
    real_eigs = [z for z in eigs if abs(z.imag) <= tol]
    if any(abs(z.real) <= tol for z in real_eigs):
        return "non-hyperbolic"
    central = [z for z in complex_eigs if abs(z.real) <= tol]
    if central:
        # Pure-imaginary pairs: a center when everything else is hyperbolic
        # and the dimension taxonomy has the label, otherwise non-hyperbolic.
        if len(central) == len(complex_eigs) and not real_eigs:
            return "center"
        if n == 3 and len(central) == 2 and len(real_eigs) == 1:
            return "center"
        return "non-hyperbolic"
    if not complex_eigs:
        positives = sum(1 for z in eigs if z.real > 0)
        if positives == 0:
            return "stable-node"
        if positives == n:
            return "unstable-node"
        return "saddle"
    if n == 3:
        pair_sign = complex_eigs[0].real > 0
        real_sign = real_eigs[0].real > 0
        return "focus" if pair_sign == real_sign else "saddle-focus"
    if all(z.real < 0 for z in eigs):
        return "stable-focus"
    if all(z.real > 0 for z in eigs):
        return "unstable-focus"
    return "saddle-focus"


def jacobi_classify(eigs: Sequence[complex],
                    tol: float = HYPERBOLIC_TOL) -> tuple[str, float, list[complex]]:
    """(verdict, margin, spectrum of 1/4 A^2) from Jacobian eigenvalues.

    margin = max_j Re(lambda_j^2) = max_j (alpha_j^2 - beta_j^2). Strictly
    negative margin means every deviation-tensor eigenvalue sits in the open
    left half-plane (Jacobi stable); strictly positive means some sits in
    the right half-plane (Jacobi unstable); within tol is indeterminate.
    A real eigenvalue gives margin >= 0. LAPACK pairs the complex
    eigenvalues of a real matrix exactly, so an odd-dimensional one always
    keeps a real eigenvalue and is never Jacobi stable.
    """
    eigs = [complex(z) for z in eigs]
    if not eigs:
        raise ValueError("empty eigenvalue list")
    squares = [z * z for z in eigs]
    margin = max(s.real for s in squares)
    if margin > tol:
        verdict = "Jacobi-unstable"
    elif margin < -tol:
        verdict = "Jacobi-stable"
    else:
        verdict = "indeterminate"
    return verdict, float(margin), _sorted_spectrum(s / 4.0 for s in squares)


# ---------------------------------------------------------------------------
# Fixed-point search


@dataclass(frozen=True)
class SeedFailure:
    seed: tuple[float, ...]
    reason: str


@dataclass(eq=False)
class FixedPointSearch:
    points: list[np.ndarray]
    failures: list[SeedFailure] = field(default_factory=list)


class _SeedError(Exception):
    pass


def _residual(vf: VectorField, x: np.ndarray) -> tuple[np.ndarray, float]:
    fx = eval_field(vf, x)
    return fx, float(np.max(np.abs(fx)))


def _newton(vf: VectorField, seed: np.ndarray, tol: float,
            max_iterations: int, max_halvings: int) -> np.ndarray:
    x = np.array(seed, dtype=float)
    try:
        fx, res = _residual(vf, x)
    except (FieldDomainError, DomainError) as err:
        raise _SeedError(f"field undefined at seed: {err}") from err
    for _ in range(max_iterations):
        if res <= tol:
            return x
        jac = jacobian(vf, x)
        try:
            step = np.linalg.solve(jac, -fx)
        except np.linalg.LinAlgError as err:
            raise _SeedError(f"singular Jacobian at {x.tolist()}") from err
        scale = 1.0
        for _ in range(max_halvings + 1):
            trial = x + scale * step
            try:
                f_trial, r_trial = _residual(vf, trial)
            except (FieldDomainError, DomainError):
                r_trial = np.inf
                f_trial = None
            if r_trial < res:
                break
            scale *= 0.5
        else:
            raise _SeedError(
                f"stalled at {x.tolist()} (no residual decrease after "
                f"{max_halvings} halvings)")
        x, fx, res = trial, f_trial, r_trial
    if res <= tol:
        return x
    raise _SeedError(
        f"no convergence after {max_iterations} iterations (residual {res:.3e})")


def _box_seeds(box, grid: int, dimension: int) -> list[np.ndarray]:
    intervals = [(float(lo), float(hi)) for lo, hi in box]
    if len(intervals) != dimension:
        raise ValueError(f"box has {len(intervals)} axes, expected {dimension}")
    if grid < 1:
        raise ValueError("grid count must be at least 1")
    if grid ** dimension > MAX_GRID_SEEDS:
        raise ValueError(
            f"a grid of {grid} per axis in {dimension} dimensions makes "
            f"{grid ** dimension} seeds, more than {MAX_GRID_SEEDS}; give "
            "explicit seeds (--seeds) instead of a box (--box), or a coarser "
            "grid (--grid)")
    axes = [np.linspace(lo, hi, grid) for lo, hi in intervals]
    return [np.array(combo) for combo in itertools.product(*axes)]


def find_fixed_points(vf: VectorField, seeds=None, box=None, grid: int = 5,
                      tol: float = 1e-10, merge_tol: float = 1e-7,
                      max_iterations: int = 100, max_halvings: int = 30) -> FixedPointSearch:
    """Damped Newton iteration from explicit seeds or a box grid.

    Convergence is max|f(x)| <= tol; converged points within merge_tol in
    the max norm are merged. Per-seed failures are reported, not fatal. A
    box grid of more than MAX_GRID_SEEDS seeds raises ValueError.
    """
    if seeds is None and box is None:
        raise ValueError("provide seeds or a box")
    seed_list = [np.asarray(s, dtype=float) for s in seeds] if seeds is not None else []
    if box is not None:
        seed_list.extend(_box_seeds(box, grid, vf.dimension))
    if not seed_list:
        raise ValueError("empty seed list")
    points: list[np.ndarray] = []
    failures: list[SeedFailure] = []
    for seed in seed_list:
        if seed.shape != (vf.dimension,):
            failures.append(SeedFailure(tuple(np.ravel(seed).tolist()),
                                        f"seed has shape {seed.shape}"))
            continue
        try:
            found = _newton(vf, seed, tol, max_iterations, max_halvings)
        except _SeedError as err:
            failures.append(SeedFailure(tuple(seed.tolist()), str(err)))
            continue
        if not any(np.max(np.abs(found - p)) <= merge_tol for p in points):
            points.append(found)
    points.sort(key=lambda p: tuple(p))
    return FixedPointSearch(points=points, failures=failures)


# ---------------------------------------------------------------------------
# Full per-point report


@dataclass(eq=False)
class FixedPointReport:
    location: np.ndarray
    residual: float
    jacobian: np.ndarray
    charpoly: CharPoly
    eigenvalues: list[complex]
    hurwitz: np.ndarray
    descartes_bound: int
    lyapunov_class: str
    jacobi_spectrum: list[complex]
    jacobi_verdict: str
    jacobi_margin: float
    jacobi_saddle_focus: bool = False


def analyze_fixed_point(vf: VectorField, location, residual_tol: float = 1e-8,
                        tol: float = HYPERBOLIC_TOL) -> FixedPointReport:
    """Classify one fixed point under both stability notions, from one
    spectrum: the deviation-tensor spectrum is {lambda^2/4} of the Jacobian
    eigenvalues, since P = 1/4 A^2 at a fixed point."""
    x = np.asarray(location, dtype=float)
    fx, residual = _residual(vf, x)
    if residual > residual_tol:
        raise NotAFixedPointError(x, residual, residual_tol)
    A = jacobian(vf, x)
    poly = characteristic_polynomial(A)
    eigs = eigenvalues(A)
    verdict, margin, spectrum = jacobi_classify(eigs, tol)
    saddle_focus = False
    if vf.dimension == 3:
        pair = [z for z in eigs if abs(z.imag) > tol]
        saddle_focus = (len(pair) == 2
                        and pair[0].real ** 2 - pair[0].imag ** 2 < -tol)
    return FixedPointReport(
        location=x.copy(),
        residual=residual,
        jacobian=A,
        charpoly=poly,
        eigenvalues=eigs,
        hurwitz=hurwitz_determinants(poly),
        descartes_bound=descartes_bound(poly),
        lyapunov_class=lyapunov_classify(eigs, tol),
        jacobi_spectrum=spectrum,
        jacobi_verdict=verdict,
        jacobi_margin=margin,
        jacobi_saddle_focus=saddle_focus,
    )
