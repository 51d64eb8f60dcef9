"""The gradient and extragradient loop and every certificate that depends
on the method: no other module writes a method name outside a docstring.

For F(z) = Mz + b with mu = lambda_min(sym M) and L = sigma_max(M):

* gd:  z+ = z - eta F(z); any two trajectories contract per step by at
  least sqrt(1 - 2 eta mu + eta^2 L^2) (a valid ceiling for every eta > 0,
  contractive when eta < 2 mu / L^2);
* eg:  z+ = z - eta F(z - eta F(z)); the squared per-step ratio is bounded
  by c(eta) = 2 - 2 eta mu + eta^4 L^4 - (2 eta mu + 1)(1 - 2 eta L +
  eta^2 mu^2), which dips below 1 only when mu > L/2.

Each such rule is written once here: the solver's inputs and default
method (`_SOLVER`), gd's range end 2 mu / L^2 and its range test
(`_gd_eta_limit`, `_gd_margin`), gd's step-size gate at the sampled
constants (check_gd_eta), each ratio ceiling (`_squared_ratio`), the
contraction command's etas and gate (`_default_eta_grid`, `_ceiling_gated`)
and the stability ceiling (stability_bound) and its eta -> 0 limit.

`run` is the one gd/eg loop and `contraction_ratio` takes one step of it
from each of two points, both on batched iterates (..., dim) and an affine
operator with `matrix` and `offset` (a QuadraticOperator, a per-row stack
of them, or a QuadraticGame).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

try:  # hashlib's own BLAKE2b, without the OpenSSL binding that importing hashlib loads
    from _blake2 import blake2b
except ImportError:  # a Python built without it
    from hashlib import blake2b

from .domains import Domain
from .errors import (_NONNEGATIVE, _POSITIVE, _REQUIRED, ConfigError, NumericalError, _checked,
                     _section, _value)
from .problems import (_DATASET_SIZE, NoiseModel, ProblemConstants, _apply_affine,
                       sampled_constants)

DIVERGENCE_FACTOR = 1e6
_SOLVER = {"method": (("gd", "eg"), None, "gd"), "eta": (float, _POSITIVE, _REQUIRED),
           "T": (int, _NONNEGATIVE, _REQUIRED), "projected": (bool, None, False)}


@dataclass(eq=False)
class SolverConfig:
    method: str
    eta: float
    T: int
    projected: bool = False

    def __post_init__(self):
        _section(_SOLVER, vars(self), "")
        self.eta, self.T = float(self.eta), int(self.T)


@dataclass(eq=False)
class Trajectory:
    final: np.ndarray
    steps: int


def _descend(F, point, z, eta: float, buf, out):
    """out <- z - eta F(point), with F(point) computed into buf."""
    _apply_affine(F.matrix, F.offset, point, buf)
    buf *= eta
    return np.subtract(z, buf, out=out)


def _step_into(F, z, eta: float, domain: Optional[Domain], buf, half=None):
    """Advance z in place by one gd step (eg when the buffer `half` is given),
    projected onto `domain` if given; only the projection allocates scratch."""
    point = z
    if half is not None:
        point = _descend(F, z, z, eta, half, half)
        if domain is not None:
            domain.project(half, out=half)
    if domain is None:
        return _descend(F, point, z, eta, buf, z)
    return domain.project(_descend(F, point, z, eta, buf, buf), out=z)


def _own_start(F, z) -> np.ndarray:
    """C-ordered copy of z broadcast to F's batch (C order fixes sum orders)."""
    batch = np.broadcast_shapes(np.shape(z), F.offset.shape, F.matrix.shape[:-1])
    return np.array(np.broadcast_to(np.asarray(z, dtype=float), batch), order="C")


def _digest(z) -> bytes:
    """BLAKE2b of the C-ordered iterate's bytes (so -0.0 differs from +0.0)."""
    return blake2b(z).digest()


def run(F, domain: Domain, config: SolverConfig, z0=None) -> Trajectory:
    """Iterate the configured step map for T steps from z0 (domain center by
    default, broadcast against F's batch; the B rows advance in lockstep):
    the one gd/eg loop, its (B, dim) buffers allocated once per call.

    Raises NumericalError if an iterate norm exceeds the guard
    1e6 * (1 + max ||z0||) or is not a number. The norms are taken only when
    max |z| passes a screen: a row's computed norm is at most sqrt(d) max |z|
    (1 + (d + 3) eps / 2), and its squares overflow only past sqrt(float max / d).

    The step map is a function of z alone, so once a state repeats, every
    later state is known (Brent's cycle detection): the state at each
    power-of-two step is marked by max |z| and a digest of its bytes, and a
    later state with both equal to the mark's makes the loop run only the
    (T - t) mod period steps that are left. Every skipped state already
    passed the guard; the final bits and `steps` are those of all T steps."""
    z = domain.center() if z0 is None else np.asarray(z0, dtype=float)
    if z.shape[-1] != domain.dim:
        raise ValueError(f"start point shape {z.shape} does not match domain dim {domain.dim}")
    z = _own_start(F, z)
    guard = DIVERGENCE_FACTOR * (1.0 + float(np.max(np.linalg.norm(z, axis=-1))))
    d = z.shape[-1]
    screen = min(guard, math.sqrt(sys.float_info.max)) / (
        math.sqrt(d) * (1.0 + 4.0 * (d + 2) * sys.float_info.epsilon))
    target = domain if config.projected else None
    buf = np.empty_like(z)  # F values and the step; free again after each step
    half = np.empty_like(z) if config.method == "eg" else None
    mark, t, T = (0, math.nan, b""), 0, config.T  # (step, max |z|, digest) of a past state
    while t < T:
        _step_into(F, z, config.eta, target, buf, half)
        t += 1
        peak = float(np.max(np.abs(z, out=buf)))
        if not peak <= screen:
            top = float(np.max(np.sqrt(np.add.reduce(np.multiply(z, z, out=buf), axis=-1))))
            if not top <= guard:
                what = "exceeded divergence guard" if top > guard else "is not a number"
                raise NumericalError(f"iterate norm {what} at step {t}")
        digest = _digest(z) if peak == mark[1] else None
        if digest == mark[2]:  # state t repeats state mark[0]: skip whole periods
            T = t + (T - t) % (t - mark[0])
        elif t & (t - 1) == 0:
            mark = (t, peak, digest or _digest(z))
    return Trajectory(final=z, steps=config.T)


# ---------------------------------------------------------------------------
# contraction and stability certificates
# ---------------------------------------------------------------------------


def _check_mu_L_eta(mu: float, L: float, eta=None) -> None:
    """mu, L (and eta when given) finite numbers, eta in (0, inf), and 0 < mu <= L."""
    _checked(mu, "mu", float)
    _checked(L, "L", float)
    if eta is not None:
        _value(_SOLVER["eta"], eta, "eta")
    if not 0.0 < mu <= L:
        raise ValueError(f"need 0 < mu <= L < inf, got mu={mu}, L={L}")


def _squared_ratio(method: str, mu: float, L: float, eta):
    """The squared per-step ratio ceiling of a checked method at checked
    (mu, L, eta): gd's in Python floats, eg's c(eta) for a scalar or an
    array of etas. ValueError, naming eta, where it is not finite."""
    try:
        if method == "gd":
            squared = 1.0 - 2.0 * eta * mu + eta ** 2 * L ** 2
        else:
            e = np.asarray(eta, dtype=float)
            with np.errstate(over="ignore", invalid="ignore"):
                squared = (2.0 - 2.0 * e * mu + e ** 4 * L ** 4
                           - (2.0 * e * mu + 1.0) * (1.0 - 2.0 * e * L + e ** 2 * mu ** 2))
            squared = float(squared) if squared.ndim == 0 else squared
    except OverflowError:  # a Python float power out of range
        squared = math.inf
    if not np.all(np.isfinite(squared)):
        raise ValueError(f"{method}'s contraction ceiling is not finite at eta={eta} "
                         f"(mu={mu}, L={L})")
    return squared


def contraction_bound(method: str, mu: float, L: float, eta: float) -> float:
    """Per-step ratio ceiling of `method`: sqrt(max(0, 1 - 2 eta mu +
    eta^2 L^2)) for gd, sqrt(max(0, c(eta))) for eg. ValueError for an
    unknown method, bad (mu, L, eta), or a ceiling that is not finite."""
    _value(_SOLVER["method"], method, "method")
    _check_mu_L_eta(mu, L, eta)
    return math.sqrt(max(0.0, _squared_ratio(method, mu, L, eta)))


def _gd_eta_limit(mu: float, L: float, eta=None) -> float:
    """2 mu / L^2, the top of gd's stability range, after _check_mu_L_eta."""
    _check_mu_L_eta(mu, L, eta)
    try:
        return 2.0 * mu / L ** 2
    except (OverflowError, ZeroDivisionError):  # L^2 outside the float range
        raise ValueError(f"2 mu / L^2 is out of float range at mu={mu}, L={L}") from None


def admissible_eta(mu: float, L: float, method: str = "gd"):
    """Step sizes with a per-step ratio ceiling strictly below 1.

    gd returns the open interval (0, 2 mu / L^2) as a pair; within a few
    floats of its end the computed ceiling can round to 1, and gd's range
    test (`_gd_margin`, which the gate and stability_bound apply) refuses
    such an eta too. eg returns the (possibly empty) array of grid points
    eta in (0, 1/L] with c(eta) < 1, grid pitch 1e-4 / L. The eg set is
    nonempty iff mu > L/2.
    """
    _value(_SOLVER["method"], method, "method")
    if method == "gd":
        return (0.0, _gd_eta_limit(mu, L))
    _check_mu_L_eta(mu, L)
    pitch = 1e-4 / L
    grid = np.arange(pitch, 1.0 / L + 0.5 * pitch, pitch)
    return grid[_squared_ratio("eg", mu, L, grid) < 1.0]


def _default_eta_grid(method: str, mu: float, L: float) -> list:
    """The contraction command's default etas: five fractions of gd's range,
    up to 24 admissible eg etas, or with none admissible five of 1/L."""
    adm = admissible_eta(mu, L, method)
    if method == "gd":
        return [f * adm[1] for f in (0.1, 0.3, 0.5, 0.7, 0.9)]
    if adm.size == 0:
        return [f / L for f in (0.1, 0.3, 0.5, 0.7, 0.9)]
    idx = np.unique(np.linspace(0, adm.size - 1, min(24, adm.size)).astype(int))
    return [float(adm[i]) for i in idx]


def _ceiling_gated(method: str, bound: float) -> bool:
    """gd's contraction_bound holds at every eta, eg's c(eta) only below 1."""
    return method == "gd" or bound < 1.0


def contraction_ratio(F, z, zp, eta: float, method: str = "gd"):
    """Measured one-step ratios ||G(z) - G(z')|| / ||z - z'||, one per row of
    the distinct points z, z' of shape (..., d)."""
    _value(_SOLVER["method"], method, "method")
    _value(_SOLVER["eta"], eta, "eta")
    z = np.asarray(z, dtype=float)
    zp = np.asarray(zp, dtype=float)
    gap = np.linalg.norm(z - zp, axis=-1)
    if np.any(gap == 0.0):
        raise ValueError("contraction ratio needs two distinct points")
    moved = []
    for start in (z, zp):
        start = _own_start(F, start)
        half = np.empty_like(start) if method == "eg" else None
        moved.append(_step_into(F, start, eta, None, np.empty_like(start), half))
    return np.linalg.norm(moved[0] - moved[1], axis=-1) / gap


def _gd_margin(mu: float, L: float, eta: float) -> Optional[float]:
    """2 mu - eta L^2 if eta < 2 mu / L^2, the computed margin > 0 and the
    computed squared ratio ceiling < 1 (just below 2 mu / L^2 the margin can
    round to 0 and the ceiling to 1), else None: gd's one range test."""
    limit = _gd_eta_limit(mu, L, eta)
    margin = 2.0 * mu - eta * L ** 2
    inside = eta < limit and margin > 0.0 and _squared_ratio("gd", mu, L, eta) < 1.0
    return margin if inside else None


def check_gd_eta(config: SolverConfig, consts: ProblemConstants, noise: NoiseModel,
                 domain: Domain) -> ProblemConstants:
    """gd's step-size gate: the constants every sampled operator satisfies
    (sampled_constants), or ConfigError when gd's eta lies outside their
    range (_gd_margin), naming the certified pair under matrix noise. An eg
    eta always passes."""
    w = sampled_constants(consts, noise, domain)
    if config.method == "gd" and _gd_margin(w.mu, w.L, config.eta) is None:
        note = "" if noise.kind == "offset" else \
            f" (matrix noise certifies mu={w.mu:.6g}, L={w.L:.6g})"
        raise ConfigError(f"eta exceeds 2*mu/L^2: eta={config.eta}, "
                          f"limit={2.0 * w.mu / w.L ** 2:.6g}{note}")
    return w


def stability_bound(config: SolverConfig, consts: ProblemConstants, n: int) -> Optional[float]:
    """The ceiling on ||z_T - z_T'|| that `config` certifies for neighbouring
    datasets of size n whose operators satisfy `consts`, or None.

    One record moves the empirical operator by at most 2K/n, so a step widens
    the divergence by at most 2 eta K/n (gd) or 2 eta K (1 + eta L)/n (eg), and
    a per-step ratio xi < 1 sums the widenings to at most widening/(1 - xi).
    Unprojected eg with xi < 1 reports exactly that. gd with 0 < eta < 2 mu/L^2
    reports 2K/(n(2 mu - eta L^2)) = 2 eta K/(n(1 - xi^2)), lower by the factor
    1 + xi (a known defect, recorded by the strict xfail
    test_gd_bound_holds_under_heavy_noise). Projected eg, eg with xi >= 1 and gd
    outside that range (_gd_margin) certify nothing."""
    _value(_DATASET_SIZE, n, "n")
    eta, K, mu, L = config.eta, consts.K, consts.mu, consts.L
    if config.method == "gd":
        margin = _gd_margin(mu, L, eta)
        return None if margin is None else 2.0 * K / (n * margin)
    if config.projected or (xi := contraction_bound("eg", mu, L, eta)) >= 1.0:
        return None
    return 2.0 * eta * K * (1.0 + eta * L) / (n * (1.0 - xi))


def _stability_limit(method: str, consts: ProblemConstants, n: int) -> Optional[float]:
    """The eta -> 0 limit of `method`'s stability_bound: K/(n mu) for gd;
    2K/(n(2 mu - L)) for eg (xi = 1 - eta(2 mu - L) + O(eta^2)), None if 2 mu <= L."""
    K, mu, L = consts.K, consts.mu, consts.L
    if method == "gd":
        return K / (n * mu)
    return 2.0 * K / (n * (2.0 * mu - L)) if 2.0 * mu > L else None
