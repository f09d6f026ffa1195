"""Core state handling and the non-local energy transform.

The model lives on a chain of N sites with a non-negative energy per site.
Site indices are 1-based in all documentation; arrays are 0-based, so
``x[i-1]`` holds the energy of site i.  The partial energy at site i is the
total energy at sites i..N, with the convention that the partial energy of
the empty suffix (index N+1) is zero.

The transform sending a configuration x to

    z_i = (exp(-sigma * E_{i+1}(x)) - exp(-sigma * E_i(x))) / sigma

conjugates the asymmetric dynamics to the symmetric one.  Its image is the
set of configurations whose total energy is below 1/sigma, so the inverse
raises :class:`~abep.errors.DomainError` outside that set.

All array functions broadcast over leading axes: a batch of R states can be
passed as an (R, N) array.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError

# Inverse-map inputs with sigma * (total energy) above 1 - DOMAIN_TOL are
# rejected rather than fed into the log singularity.
DOMAIN_TOL = 1e-12


@dataclass(frozen=True)
class SystemParams:
    """Model parameters: lattice size, asymmetry, interaction, temperatures.

    sigma = 0 is accepted and means the symmetric model; operations that
    need strict asymmetry degrade to their symmetric counterparts.
    """

    n_sites: int
    sigma: float
    alpha: float
    t_left: float
    t_right: float

    def __post_init__(self):
        if not (1 <= self.n_sites < np.inf and int(self.n_sites) == self.n_sites):
            raise ParameterError(f"n_sites must be a positive integer, got {self.n_sites}")
        if not (0 < self.alpha < np.inf):
            raise ParameterError(f"alpha must be finite and > 0, got {self.alpha}")
        for name in ("sigma", "t_left", "t_right"):
            if not (0 <= getattr(self, name) < np.inf):
                raise ParameterError(
                    f"{name} must be finite and >= 0, got {getattr(self, name)}")


def _array(x, what: str, dtype=None) -> np.ndarray:
    try:                    # a ragged or non-numeric x is a ParameterError
        return np.asarray(x, dtype=dtype)
    except (ValueError, TypeError) as err:
        raise ParameterError(f"{what} must be a rectangular array: {err}") from None


def as_state(x, n_sites: int | None = None, allow_negative: bool = False) -> np.ndarray:
    """Coerce to a float array of site energies and validate it.

    allow_negative=True skips the sign check; the transform formulas extend
    smoothly to slightly negative energies, which finite-difference drivers
    probing x - h*e_i rely on.
    """
    arr = _array(x, "energy configuration", float)
    if arr.ndim < 1:
        raise ParameterError("energy configuration must have at least one axis")
    if n_sites is not None and arr.shape[-1] != n_sites:
        raise ParameterError(
            f"expected {n_sites} sites, got configuration of length {arr.shape[-1]}"
        )
    if not np.all(np.isfinite(arr)):
        raise ParameterError("energy configuration must be finite")
    if not allow_negative and np.any(arr < 0):
        raise ParameterError("site energies must be non-negative")
    return arr


def as_particles(xi, n_sites: int | None = None) -> np.ndarray:
    """Coerce to an integer occupation vector over sites 0..N+1."""
    arr = _array(xi, "particle configuration")
    if not np.issubdtype(arr.dtype, np.integer):
        rounded = np.rint(_array(arr, "particle configuration", float))
        if not (np.isfinite(rounded).all() and np.array_equal(arr, rounded)):
            raise ParameterError("particle counts must be finite integers")
        arr = rounded.astype(np.int64)
    else:
        arr = arr.astype(np.int64)
    if arr.ndim != 1:
        raise ParameterError("particle configuration must be one-dimensional")
    if n_sites is not None and arr.shape[0] != n_sites + 2:
        raise ParameterError(
            f"expected {n_sites + 2} entries (sites 0..N+1), got {arr.shape[0]}"
        )
    if np.any(arr < 0):
        raise ParameterError("particle counts must be non-negative")
    return arr


def partial_energies(x) -> np.ndarray:
    """Suffix sums of the energies, one entry longer than the state.

    ``e[..., i]`` is the energy at sites i+1..N (1-based: E_{i+1}), and the
    final entry is 0.  Non-increasing along the last axis.
    """
    arr = np.asarray(x, dtype=float)
    e = np.zeros(arr.shape[:-1] + (arr.shape[-1] + 1,), dtype=float)
    e[..., :-1] = np.flip(np.cumsum(np.flip(arr, -1), -1), -1)
    return e


def map_g(x, p: SystemParams) -> np.ndarray:
    """Forward transform to the symmetric coordinates.

    z_i = exp(-sigma * E_{i+1}) * (1 - exp(-sigma * x_i)) / sigma, written
    with expm1 so small sigma * x does not cancel.  For sigma = 0 this is
    the identity.
    """
    arr = as_state(x, p.n_sites, allow_negative=True)
    s = p.sigma
    if s == 0:
        return arr.copy()
    e = partial_energies(arr)
    return np.exp(-s * e[..., 1:]) * (-np.expm1(-s * arr)) / s


def map_g_inv(z, p: SystemParams) -> np.ndarray:
    """Inverse transform; defined only where sigma * (total of z) < 1."""
    arr = as_state(z, p.n_sites, allow_negative=True)
    s = p.sigma
    if s == 0:
        return arr.copy()
    e = partial_energies(arr)
    if np.any(s * e[..., 0] >= 1.0 - DOMAIN_TOL):
        raise DomainError(
            "configuration outside the transform image: sigma * total energy = "
            f"{float(np.max(s * e[..., 0])):.6g} >= 1"
        )
    # x_i = -(1/s) * log(1 - s z_i / (1 - s E_{i+1}));  the suffix identity
    # 1 - s E_i = (1 - s E_{i+1}) - s z_i keeps every denominator positive.
    return -np.log1p(-s * arr / (1.0 - s * e[..., 1:])) / s


def _observables(observable):
    """(single, list of callables) from one callable or a non-empty sequence."""
    single = callable(observable)
    observables = [observable] if single else list(observable)
    if not observables or not all(callable(f) for f in observables):
        raise ParameterError("observable must be a callable or a non-empty "
                             "sequence of callables")
    return single, observables


def _eval_observable(observable, states2d: np.ndarray) -> np.ndarray:
    """Evaluate an observable once on (M, N) stacked states; it must return
    one value per row."""
    vals = np.asarray(observable(states2d), dtype=float)
    if vals.shape != (states2d.shape[0],):
        raise ParameterError(
            f"observable must map states of shape {states2d.shape} to shape "
            f"({states2d.shape[0]},), got {vals.shape}"
        )
    return vals
