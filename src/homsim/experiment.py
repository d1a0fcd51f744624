"""Scenario assembly, delay scans, visibility fits, and expected counts.

A scenario bundles the pump, the fiber-source parameters, the signal and
idler gate+filter chains, and the four detectors.  The built-in presets encode
the two published configurations of the experiment this simulator models:

``multimode``
    CW-carved 100 ps pump (30 ps rise), grating-like Gaussian filters of
    24.6 GHz FWHM on all arms (B*T/4 = 3.9), pair probability 12.5% per
    pulse, arm transmissions 3.4% / 5.0%, detector quantum efficiency 20%,
    dark probability 1.6e-4, 2e10 pulses.

``single_mode``
    Mode-locked Gaussian pump (68.3 GHz power FWHM, 6.4 ps), flat-top
    0.4 nm filters (69.9 GHz at 1310 nm, B*T/4 = 0.70), pair probability
    3.9%, transmissions 5.5% / 7.0%, 1e10 pulses.

Quantities the underlying experiment left unstated are set here and
documented in the README: the pump pulse energies (75 pJ / 2 pJ), the
+-1.2 THz signal/idler detunings, the bundled silica Raman-gain curve, and
the flux calibration of the measured arm transmissions (they are read as
Klyshko-style photon-flux transmissions, so the model divides out the
chain's conditioned transmission and the signal arms' 50:50 coupler split
before applying its own projection).
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, replace
from functools import cached_property
from importlib import resources

import numpy as np

from .detection import coincidence_probability, singles_probability
from .grids import TWO_PI, FrequencyGrid, angular_from_nm
from .modes import (
    DEFAULT_GRID_POINTS,
    DEFAULT_SPAN_FACTOR,
    build_kernel,
    make_profile,
    schmidt_decompose,
)
from .network import (
    DetectorModel,
    detection_mode_projection,
    hom_dip_width_estimate,
    retained_register,
)
from .source import (
    ANTISTOKES,
    STOKES,
    RamanGain,
    SourceParams,
    calibrate_gain,
    default_raman_gain,
    factor_pair_amplitude,
    load_raman_gain,
    pump_spectrum,
    source_moments,
)

CSV_HEADER = "tau_ps, p4, p2_ab, p2_acc, pA, pB, pC, pD"
DEFAULT_SCAN_HALFWIDTHS = 3.0


class ExperimentError(ValueError):
    """Raised for a bad scenario, override, scan CSV or command-line argument:
    input the user can correct (the CLI exits 2).  Failures of the physics
    and numerics keep their own types."""


class FitError(RuntimeError):
    """Raised when a visibility fit cannot be performed."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_REQUIRED = {
    "scenario": ["pulses"],
    "pump": ["shape", "center_nm", "energy_pj"],
    "source": ["detuning_thz", "length_m", "temperature_k", "pair_probability"],
    "filters": ["signal_shape", "idler_shape", "signal_bandwidth_ghz"],
    "detectors": ["signal_transmission", "idler_transmission",
                  "quantum_efficiency", "dark_count_probability"],
}

# Written into the parser before the scenario, so `Scenario` reads each one.
_DEFAULTS = {"pump": {"rise_time_ps": 0.0}, "source": {"raman_scale": 1.0},
             "filters": {"grid_points": DEFAULT_GRID_POINTS,
                         "grid_span_factor": DEFAULT_SPAN_FACTOR},
             "scan": {"points": 41}}

# The keys each pump and filter shape reads, under the key that names it.
_SHAPE_KEYS = {("pump", "shape"): {"cw_carved_rect": ["duration_ps"],
                                   "transform_limited_gaussian": ["power_fwhm_ghz"]},
               **{("filters", f"{arm}_shape"): {"rectangular": [f"{arm}_bandwidth_ghz"],
                                                "gaussian": [f"{arm}_bandwidth_ghz"],
                                                "tabulated": [f"{arm}_files"]}
                  for arm in ("signal", "idler")}}

# The getter of each key that is not a float, by name (no name is in two sections).
_GETTERS = {"grid_points": "getint", "points": "getint",
            **dict.fromkeys(["shape", "signal_shape", "idler_shape", "signal_files",
                             "idler_files", "raman_file"], "get")}

# Ranges no physics layer sees: flux calibration clamps efficiencies at 1,
# and `Scenario.grids` divides by the grid sizes before any other check.
_RANGES = {"detectors.quantum_efficiency": (0, 1), "detectors.signal_transmission": (0, 1),
           "detectors.idler_transmission": (0, 1), "detectors.dark_count_probability": (0, 1),
           "scan.points": (1, np.inf), "scenario.pulses": (1, np.inf),
           "filters.grid_points": (2, np.inf)}
_POSITIVE = ("filters.grid_span_factor", "filters.signal_bandwidth_ghz", "pump.center_nm")

PRESET_NAMES = ("multimode", "single_mode")


def _preset_text(name):
    if name not in PRESET_NAMES:
        raise ExperimentError(f"unknown preset {name!r}; available: {PRESET_NAMES}")
    path = resources.files("homsim.presets") / f"{name}.ini"
    return path.read_text()


def load_scenario(config_text, overrides=None):
    """Parse a scenario from INI-style text (see the shipped preset files).

    `overrides` is an optional list of "section.key=value" strings applied
    after parsing, last one wins.  Every key is checked against the tables above.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    cp.read_dict(_DEFAULTS)
    try:
        cp.read_string(config_text)
    except configparser.Error as exc:
        raise ExperimentError(f"config parse failure: {exc}") from exc
    for ov in overrides or []:
        if "=" not in ov or "." not in ov.split("=", 1)[0]:
            raise ExperimentError(f"override {ov!r} is not section.key=value")
        target, value = ov.split("=", 1)
        section, key = target.split(".", 1)
        cp.read_dict({section.strip(): {key.strip(): value.strip()}})
    known = {(s, k) for table in (_REQUIRED, _DEFAULTS) for s, keys in table.items() for k in keys}
    known |= {("source", "raman_file"), ("scan", "tau_min_ps"), ("scan", "tau_max_ps")}
    missing = [f"{section}.{key}" for section, keys in _REQUIRED.items()
               for key in keys if not cp.has_option(section, key)]
    problems, unread = [], {}
    for (section, key), shapes in _SHAPE_KEYS.items():
        shape = cp.get(section, key, fallback=None)
        if shape is not None and shape not in shapes:
            problems.append(f"{section}.{key}: unknown shape {shape!r}, not one of {list(shapes)}")
        read = shapes.get(shape, [])
        known.update((section, k) for k in read)
        unread.update({(section, k): f"not read when {section}.{key} = {shape}"
                       for keys in shapes.values() for k in keys if k not in read})
        missing += [f"{section}.{k}" for k in read if not cp.has_option(section, k)]
    if missing:
        problems.append("missing required fields: " + ", ".join(dict.fromkeys(missing)))
    if cp.has_option("scan", "tau_min_ps") != cp.has_option("scan", "tau_max_ps"):
        problems.append("scan.tau_min_ps, scan.tau_max_ps: set both or neither")
    for section, key in [(s, k) for s in cp.sections() for k in cp.options(s)]:
        name = f"{section}.{key}"
        if (section, key) not in known:
            problems.append(f"{name}: {unread.get((section, key), 'unknown key')}")
            continue
        try:
            value = getattr(cp, _GETTERS.get(key, "getfloat"))(section, key)
        except ValueError as exc:
            problems.append(f"{name}: {exc}")
            continue
        if isinstance(value, float) and not np.isfinite(value):
            problems.append(f"{name} = {value} is not finite")
        elif name in _RANGES and not _RANGES[name][0] <= value <= _RANGES[name][1]:
            problems.append(f"{name} = {value} is outside {list(_RANGES[name])}")
        elif name in _POSITIVE and not value > 0:
            problems.append(f"{name} = {value} must be > 0")
    if problems:
        raise ExperimentError("; ".join(problems))
    return Scenario(config=cp)


def preset_scenario(name, overrides=None):
    return load_scenario(_preset_text(name), overrides=overrides)


def _filter_spec(cp, arm, grid):
    shape = cp.get("filters", f"{arm}_shape")
    if shape == "tabulated":
        files = [f.strip() for f in cp.get("filters", f"{arm}_files").split(",")]
        return make_profile("tabulated", {"files": files}, grid)
    bw = TWO_PI * 1e9 * cp.getfloat("filters", f"{arm}_bandwidth_ghz")
    width = "bandwidth" if shape == "rectangular" else "fwhm"
    return make_profile(shape, {width: bw}, grid)


@dataclass
class Scenario:
    """Materialized experiment description; heavy pieces build lazily."""

    config: configparser.ConfigParser

    # -- raw accessors ------------------------------------------------
    @property
    def pulses(self):
        return self.config.getfloat("scenario", "pulses")

    @property
    def pump_center(self):
        return angular_from_nm(self.config.getfloat("pump", "center_nm"))

    # -- lattice ------------------------------------------------------
    @cached_property
    def grids(self):
        cp = self.config
        n_points = cp.getint("filters", "grid_points")
        bw = TWO_PI * 1e9 * cp.getfloat("filters", "signal_bandwidth_ghz")
        span = cp.getfloat("filters", "grid_span_factor") * bw
        spacing = span / (n_points - 1)
        wp = self.pump_center
        detune = TWO_PI * 1e12 * cp.getfloat("source", "detuning_thz")
        offset = round(detune / spacing) * spacing
        if 2 * abs(offset) <= span:
            raise ExperimentError(f"source.detuning_thz puts the band centres "
                                  f"{2 * abs(offset) / TWO_PI / 1e12:.3g} THz apart, within their "
                                  f"span {span / TWO_PI / 1e12:.3g} THz (filters.grid_span_factor "
                                  "x filters.signal_bandwidth_ghz): the bands would overlap")
        grid_s = FrequencyGrid(center=wp - offset, span=span, n_points=n_points)
        grid_a = FrequencyGrid(center=wp + offset, span=span, n_points=n_points)
        half = max(8.0 * span, TWO_PI * 0.5e12)
        n_pump = int(2 * half / spacing) // 2 * 2 + 1
        grid_p = FrequencyGrid(center=wp, span=spacing * (n_pump - 1), n_points=n_pump)
        return {STOKES: grid_s, ANTISTOKES: grid_a, "pump": grid_p}

    @cached_property
    def pump(self):
        cp = self.config
        shape = cp.get("pump", "shape")
        energy = cp.getfloat("pump", "energy_pj") * 1e-12
        if shape == "cw_carved_rect":
            params = {"duration": cp.getfloat("pump", "duration_ps") * 1e-12,
                      "rise_time": cp.getfloat("pump", "rise_time_ps") * 1e-12}
        else:
            params = {"power_fwhm": TWO_PI * 1e9 * cp.getfloat("pump", "power_fwhm_ghz")}
        return pump_spectrum(shape, params, energy, self.grids["pump"])

    @cached_property
    def filters(self):
        return {"signal": _filter_spec(self.config, "signal", self.grids[STOKES]),
                "idler": _filter_spec(self.config, "idler", self.grids[ANTISTOKES])}

    @cached_property
    def bases(self):
        """One Schmidt basis per band, keyed like `filters`: both signal arms
        pass the signal filter before the coupler, both heralds the idler
        filter.

        A kernel depends on its band grid only through the spacing, which
        the two band grids share (`grids`).  So when the idler filter has
        the signal's amplitude (both presets), its kernel is the signal's,
        and the idler basis holds the signal basis's eigenvalues and
        eigenmodes on the idler grid.
        """
        signal, idler = self.filters["signal"], self.filters["idler"]
        basis = schmidt_decompose(build_kernel(signal, self.pump.duration))
        if np.array_equal(idler.amplitude, signal.amplitude):
            return {"signal": basis, "idler": replace(basis, grid=idler.grid)}
        return {"signal": basis,
                "idler": schmidt_decompose(build_kernel(idler, self.pump.duration))}

    @cached_property
    def pair_modes(self):
        """Schmidt factorisation of the unit-gain pair amplitude, shared by
        the gain calibration and the source moments."""
        return factor_pair_amplitude(self.pump,
                                     {k: self.grids[k] for k in (STOKES, ANTISTOKES)})

    @cached_property
    def source_params(self):
        cp = self.config
        if cp.has_option("source", "raman_file"):
            gain = load_raman_gain(cp.get("source", "raman_file"))
        else:
            gain = default_raman_gain()
        gain = RamanGain(gain.detuning, gain.gain * cp.getfloat("source", "raman_scale"))
        target = cp.getfloat("source", "pair_probability")
        return SourceParams(
            gamma_length=calibrate_gain(target, self.pair_modes, self.filters["signal"]),
            length=cp.getfloat("source", "length_m"),
            temperature=cp.getfloat("source", "temperature_k"),
            raman_gain=gain)

    @cached_property
    def source(self):
        """One spool's state on the retained registers of the two bands;
        both spools share pump, parameters and bases."""
        psi_s, _ = retained_register(self.bases["signal"])
        psi_a, _ = retained_register(self.bases["idler"])
        return source_moments(self.source_params, self.pair_modes, psi_s, psi_a)

    # -- detectors ------------------------------------------------------
    @cached_property
    def conditioned_transmissions(self):
        """Klyshko-style chain transmissions: the signal's chain averaged
        over modes heralded through the idler chain, and vice versa.

        With each chain K = psi chi psi^dag restricted to its retained
        modes, both heralded weights tr(K_s M K_a* M^dag) and
        tr(K_a M^T K_s* M*) equal chi_s^T |M_reg|^2 chi_a.  With
        M = u c vt, c_k = sinh r_k cosh r_k, and the pair overlaps
        S = u^T conj(psi_s) and A = vt conj(psi_a), the register block is
        M_reg = S^T c A, and the heralded photon numbers summed over the
        grid are sum_k c_k^2 |A_k|^2 and sum_k c_k^2 |S_k|^2 (u and vt are
        orthonormal).  The ratios do not change when c is scaled, so at
        gammaL = 0 the unit-gain weights c = s give the low-gain limit.
        """
        psi_s, chi_s = retained_register(self.bases["signal"])
        psi_a, chi_a = retained_register(self.bases["idler"])
        modes = self.pair_modes
        gain = self.source_params.gamma_length
        pair = np.sinh(gain * modes.s) * np.cosh(gain * modes.s) if gain > 0 else modes.s
        stokes = modes.u.T @ psi_s.conj()       # (pairs, k_s)
        antistokes = modes.vt @ psi_a.conj()    # (pairs, k_a)
        both = chi_s @ np.abs(stokes.T @ (pair[:, None] * antistokes)) ** 2 @ chi_a
        heralded_s = pair**2 @ np.abs(antistokes) ** 2
        heralded_a = pair**2 @ np.abs(stokes) ** 2
        return float(both / (heralded_s @ chi_a)), float(both / (heralded_a @ chi_s))

    @cached_property
    def detectors(self):
        """Efficiencies from the measured flux transmissions, with the signal
        coupler's split and `conditioned_transmissions` divided out; at most 1."""
        cp = self.config
        t_s, t_i, qe, mu = (cp.getfloat("detectors", key) for key in (
            "signal_transmission", "idler_transmission", "quantum_efficiency",
            "dark_count_probability"))
        chi_s, chi_i = self.conditioned_transmissions
        return DetectorModel(signal_efficiency=min(1.0, 2.0 * t_s * qe / chi_s),
                             idler_efficiency=min(1.0, t_i * qe / chi_i), dark_mean=mu)

    # -- scan plan ------------------------------------------------------
    @cached_property
    def dip_width(self):
        return hom_dip_width_estimate(self.filters["signal"], self.pump)

    @cached_property
    def tau_list(self):
        cp = self.config
        if cp.has_option("scan", "tau_min_ps"):
            lo = cp.getfloat("scan", "tau_min_ps") * 1e-12
            hi = cp.getfloat("scan", "tau_max_ps") * 1e-12
        else:
            half = DEFAULT_SCAN_HALFWIDTHS * self.dip_width
            lo, hi = -half, half
        if not hi > lo:
            raise ExperimentError("scan range is empty")
        taus = np.linspace(lo, hi, cp.getint("scan", "points"))
        if len(taus) % 2:
            # linspace can miss the midpoint by an ulp of the range (2.6e-26 s
            # for -200..200 ps), which leaves a symmetric scan without tau = 0
            taus[len(taus) // 2] = 0.5 * (lo + hi)
        return taus


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DelayScan:
    """Delay-resolved coincidence and singles probabilities."""

    tau: np.ndarray
    p4: np.ndarray
    p2_ab: np.ndarray
    p2_acc: np.ndarray
    singles: dict
    dip_width: float = 0.0

    def observable(self, name):
        if name == "fourfold":
            return self.p4
        if name == "twofold_accsub":
            return self.p2_ab - self.p2_acc
        if name == "twofold":
            return self.p2_ab
        raise ExperimentError(f"unknown observable {name!r}")

    def to_csv(self):
        buf = io.StringIO()
        buf.write(CSV_HEADER + "\n")
        for i, t in enumerate(self.tau):
            row = [t * 1e12, self.p4[i], self.p2_ab[i], self.p2_acc[i],
                   self.singles["A"][i], self.singles["B"][i],
                   self.singles["C"][i], self.singles["D"][i]]
            buf.write(", ".join(format(v, ".12e") for v in row) + "\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text):
        lines = [(i, ln.strip()) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
        if not lines:
            raise ExperimentError("empty scan CSV")
        header = [c.strip() for c in lines[0][1].split(",")]
        expected = [c.strip() for c in CSV_HEADER.split(",")]
        if header != expected:
            raise ExperimentError(f"unexpected CSV header {lines[0][1]!r}")
        rows = []
        for lineno, ln in lines[1:]:
            try:
                row = [float(c) for c in ln.split(",")]
            except ValueError:
                row = []
            if len(row) != len(expected) or not np.all(np.isfinite(row)):
                raise ExperimentError(f"scan CSV line {lineno}: {ln!r} is not "
                                      f"{len(expected)} finite numbers")
            rows.append(row)
        if not rows:
            raise ExperimentError("scan CSV has no rows")
        data = np.array(rows)
        return cls(tau=data[:, 0] * 1e-12, p4=data[:, 1],
                   p2_ab=data[:, 2], p2_acc=data[:, 3],
                   singles={"A": data[:, 4], "B": data[:, 5],
                            "C": data[:, 6], "D": data[:, 7]})


def run_delay_scan(scenario):
    """Sweep the delay list; the source moments are computed once and
    serve both spools.  Network and click-engine failures reach the caller
    with their own types."""
    spool = scenario.source
    bases = scenario.bases
    detectors = scenario.detectors
    taus = scenario.tau_list
    p4 = np.empty(len(taus))
    p2 = np.empty(len(taus))
    acc = np.empty(len(taus))
    singles = {name: np.empty(len(taus)) for name in "ABCD"}
    for i, tau in enumerate(taus):
        normal, anomalous, query = detection_mode_projection(spool, spool, bases, tau,
                                                             detectors)
        p4[i] = coincidence_probability(normal, anomalous, query, ("A", "B", "C", "D"))
        p2[i] = coincidence_probability(normal, anomalous, query, ("A", "B"))
        for name in "ABCD":
            singles[name][i] = singles_probability(normal, anomalous, query, name)
        acc[i] = singles["A"][i] * singles["B"][i]
    return DelayScan(tau=taus, p4=p4, p2_ab=p2, p2_acc=acc,
                     singles=singles, dip_width=scenario.dip_width)


# ---------------------------------------------------------------------------
# fits and counts
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class VisibilityFit:
    visibility: float
    visibility_err: float
    center: float
    width: float
    baseline: float
    covariance: np.ndarray

    def summary(self):
        return (f"V = {self.visibility:.6f}\n"
                f"V_err = {self.visibility_err:.6f}\n"
                f"tau0_ps = {self.center * 1e12:.6f}\n"
                f"sigma_ps = {self.width * 1e12:.6f}\n"
                f"baseline = {self.baseline:.6e}\n")


FIT_MAX_STEPS = 1000  # Levenberg-Marquardt trial steps before FitError
FIT_XTOL = 1e-10  # relative Gauss-Newton step at which the fit has converged
# lower and upper bounds of the scaled (baseline, V, t0, sigma)
FIT_BOUNDS = (np.array([0.0, 0.0, -1.0, 1e-3]), np.array([np.inf, 1.5, 2.0, 10.0]))


def _levenberg_marquardt(residual, p):
    """Minimize |r|^2 for residual(p) -> (r, J) within FIT_BOUNDS (More,
    Lecture Notes in Math. 630, 105 (1978)): Marquardt's diagonal damping,
    trial points clipped into the box, and a parameter held at a bound
    that the gradient pushes it through.  Converged when the undamped
    Gauss-Newton step moves no free parameter by more than FIT_XTOL of its
    size, or when no damped step lowers the cost."""
    lo, hi = FIT_BOUNDS
    p = np.clip(p, lo, hi)
    r, jac = residual(p)
    cost, damping = r @ r, 1e-3
    for _ in range(FIT_MAX_STEPS):
        grad = jac.T @ r
        free = ~(((p <= lo) & (grad > 0)) | ((p >= hi) & (grad < 0)))
        newton = np.linalg.lstsq(jac[:, free], -r, rcond=None)[0]
        if np.all(np.abs(newton) <= FIT_XTOL * (np.abs(p[free]) + FIT_XTOL)):
            return p, jac, cost
        a = (jac.T @ jac)[np.ix_(free, free)]
        scale = np.maximum(np.diag(a), np.finfo(float).tiny)
        step = np.zeros_like(p)
        step[free] = np.linalg.solve(a + damping * np.diag(scale), -grad[free])
        trial = np.clip(p + step, lo, hi)
        r_trial, jac_trial = residual(trial)
        cost_trial = r_trial @ r_trial
        if cost_trial < cost:
            p, r, jac, cost, damping = trial, r_trial, jac_trial, cost_trial, damping / 10.0
        elif damping > 1e10:
            # not even a short step down the gradient lowers the cost: p is
            # a minimum to rounding, and its Newton step is rounding noise
            return p, jac, cost
        else:
            damping *= 10.0
    raise FitError(f"visibility fit did not converge in {FIT_MAX_STEPS} steps")


def fit_visibility(scan, observable="fourfold", sigma=None):
    """Gaussian least-squares fit C(tau) = base * (1 - V exp(-(t-t0)^2/2s^2)).

    Initialized from the data's (min, max, centroid) and solved by a
    bounded Levenberg-Marquardt on the model's analytic Jacobian; the
    covariance is (J^T J)^-1 from the SVD of J, scaled by the residual
    variance (as scipy's curve_fit does without absolute_sigma).  Flat data
    pins V to zero; non-convergence raises FitError.
    """
    y = np.asarray(scan.observable(observable), float)
    t = np.asarray(scan.tau, float)
    if len(t) < 5:
        raise FitError("need at least 5 scan rows to fit a dip")
    if not np.all(np.isfinite(y)):
        raise ExperimentError("scan values to fit must be finite")
    if scan.dip_width > 0 and (t.max() - t.min()) < 3 * scan.dip_width:
        raise FitError("scan range does not span 3x the estimated dip width")
    base0 = float(np.max(y))
    depth0 = base0 - float(np.min(y))
    if base0 <= 0 or depth0 <= 1e-12 * base0:
        zero_cov = np.zeros((4, 4))
        return VisibilityFit(0.0, 0.0, 0.0, float(t.max() - t.min()), base0, zero_cov)
    # fit in scaled units: time in units of the scan range, y in units of max
    t_scale = float(np.ptp(t))
    t_mid = float(t.min())
    ts = (t - t_mid) / t_scale
    ys = y / base0
    centroid = float(np.sum(ts * (1.0 - ys)) / np.sum(1.0 - ys))
    width0 = 1.0 / 8.0
    errors = np.ones_like(ys) if sigma is None else np.asarray(sigma, float) / base0
    if not np.all(np.isfinite(errors) & (errors > 0)):
        raise ExperimentError("fit errors must be finite and positive")

    def residual(params):
        base, vis, t0, sig = params
        dt = ts - t0
        g = np.exp(-dt**2 / (2 * sig**2))
        dip = base * vis * g
        jac = np.stack([1 - vis * g, -base * g, -dip * dt / sig**2,
                        -dip * dt**2 / sig**3], axis=1)
        return (base - dip - ys) / errors, jac / errors[:, None]

    popt, jac, cost = _levenberg_marquardt(residual, np.array([1.0, depth0 / base0,
                                                               centroid, width0]))
    _, s, vt = np.linalg.svd(jac, full_matrices=False)
    keep = s > np.finfo(float).eps * max(jac.shape) * s[0]
    pcov = (vt[keep].T / s[keep] ** 2) @ vt[keep] * (cost / (len(ys) - len(popt)))
    err = float(np.sqrt(np.abs(pcov[1, 1]))) if np.all(np.isfinite(pcov)) else float("nan")
    return VisibilityFit(visibility=float(popt[1]), visibility_err=err,
                         center=float(popt[2] * t_scale + t_mid),
                         width=float(popt[3] * t_scale),
                         baseline=float(popt[0] * base0), covariance=pcov)


def expected_counts(scan, pulses, observable="fourfold"):
    """counts = probability * pulses with sqrt(counts) errors.

    Zero-count rows get an error bar of 1 (stated convention).
    """
    if not pulses > 0:
        raise ExperimentError("pulse count must be positive")
    probs = np.asarray(scan.observable(observable), float)
    counts = probs * pulses
    errors = np.sqrt(counts)
    errors[counts == 0] = 1.0
    return counts, errors
