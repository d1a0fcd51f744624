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
from collections import namedtuple
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
    correlation_bandwidth,
    detection_mode_projection,
    filter_bandwidth,
    hom_dip_width_estimate,
    retained_register,
)
from .source import (
    ANTISTOKES,
    STOKES,
    RamanGain,
    SourceModelError,
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
# Largest pump grid, 2**16 + 1 samples: the presets' at filters.grid_points = 4097
MAX_PUMP_POINTS = 65537
# Most delays in a scan, or c values in a `modes` table: about 40 s of multimode scan
MAX_ROWS = 10001


class ExperimentError(ValueError):
    """Raised for a bad scenario, override, scan CSV or command-line argument:
    input the user can correct (the CLI exits 2).  Failures of the physics
    and numerics keep their own types."""


class FitError(RuntimeError):
    """Raised when a visibility fit cannot be performed."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

REQUIRED = "required"
POSITIVE = "> 0"

# Every key a scenario may set, by "section.key": its type; its default (written
# into the parser before the scenario text, so `Scenario.config` holds it),
# REQUIRED, or None if optional; its bound (`check_bound`), where no physics
# layer checks it; the shapes it names, if it picks a pump or filter shape; and
# (shape key, *shapes) if only those shapes read it.
ScenarioKey = namedtuple("ScenarioKey", "kind default bound shapes read_when",
                         defaults=(float, REQUIRED, None, (), ()))
SCENARIO_KEYS = {
    "scenario.pulses": ScenarioKey(bound=(1, np.inf)),
    "pump.shape": ScenarioKey(str, shapes=("cw_carved_rect", "transform_limited_gaussian")),
    "pump.center_nm": ScenarioKey(bound=POSITIVE),
    "pump.duration_ps": ScenarioKey(read_when=("pump.shape", "cw_carved_rect")),
    "pump.rise_time_ps": ScenarioKey(default=0.0),
    "pump.power_fwhm_ghz": ScenarioKey(read_when=("pump.shape", "transform_limited_gaussian")),
    **dict.fromkeys(["pump.energy_pj", "source.detuning_thz", "source.pair_probability"],
                    ScenarioKey()),
    **dict.fromkeys(["source.length_m", "source.temperature_k"], ScenarioKey(bound=POSITIVE)),
    "source.raman_scale": ScenarioKey(default=1.0, bound=(0, np.inf)),
    "source.raman_file": ScenarioKey(str, default=None),
    "filters.signal_shape": ScenarioKey(str, shapes=("rectangular", "gaussian", "tabulated")),
    # sizes the grids, whatever the signal shape
    "filters.signal_bandwidth_ghz": ScenarioKey(bound=POSITIVE),
    "filters.signal_files": ScenarioKey(str, read_when=("filters.signal_shape", "tabulated")),
    "filters.idler_shape": ScenarioKey(str, shapes=("rectangular", "gaussian", "tabulated")),
    "filters.idler_bandwidth_ghz": ScenarioKey(read_when=("filters.idler_shape",
                                                          "rectangular", "gaussian")),
    "filters.idler_files": ScenarioKey(str, read_when=("filters.idler_shape", "tabulated")),
    "filters.grid_points": ScenarioKey(int, DEFAULT_GRID_POINTS, (2, np.inf)),
    "filters.grid_span_factor": ScenarioKey(default=DEFAULT_SPAN_FACTOR, bound=POSITIVE),
    **dict.fromkeys(["detectors.signal_transmission", "detectors.idler_transmission",
                     "detectors.quantum_efficiency", "detectors.dark_count_probability"],
                    ScenarioKey(bound=(0, 1))),
    "scan.points": ScenarioKey(int, 41, (1, MAX_ROWS)),
    # set both or neither
    **dict.fromkeys(["scan.tau_min_ps", "scan.tau_max_ps"], ScenarioKey(default=None)),
}

PRESET_NAMES = ("multimode", "single_mode")


def check_bound(name, value, bound):
    """Raise ExperimentError "<name> = <value> <problem>" unless `value` is
    finite (if a float) and within `bound`: None, a closed range (lo, hi),
    or POSITIVE.  Scenario keys and command-line arguments share this rule."""
    if isinstance(value, float) and not np.isfinite(value):
        problem = "is not finite"
    elif bound == POSITIVE and not value > 0:
        problem = "must be > 0"
    elif isinstance(bound, tuple) and not bound[0] <= value <= bound[1]:
        problem = f"is outside {list(bound)}"
    else:
        return
    raise ExperimentError(f"{name} = {value} {problem}")


def load_scenario(config_text, overrides=None):
    """Parse a scenario from INI-style text (see the shipped preset files).

    `overrides` is an optional list of "section.key=value" strings applied
    after parsing, last one wins.  Every key is checked against
    SCENARIO_KEYS, and every problem is reported in one ExperimentError.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    for name, key in SCENARIO_KEYS.items():
        if key.default not in (REQUIRED, None):
            section, option = name.split(".")
            cp.read_dict({section: {option: key.default}})
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
    scenario = Scenario(config=cp)
    given = [f"{section}.{key}" for section in cp.sections() for key in cp.options(section)]
    problems, missing, unread = [], [], {}
    for name, key in SCENARIO_KEYS.items():
        if key.shapes and (shape := scenario.value(name)) not in (None, *key.shapes):
            problems.append(f"{name}: unknown shape {shape!r}, not one of {list(key.shapes)}")
        if key.read_when and (shape := scenario.value(key.read_when[0])) not in key.read_when[1:]:
            unread[name] = f"not read when {key.read_when[0]} = {shape}"
        elif key.default == REQUIRED and name not in given:
            missing.append(name)
    if missing:
        problems.append("missing required fields: " + ", ".join(missing))
    if ("scan.tau_min_ps" in given) != ("scan.tau_max_ps" in given):
        problems.append("scan.tau_min_ps, scan.tau_max_ps: set both or neither")
    for name in given:
        if name not in SCENARIO_KEYS or name in unread:
            problems.append(f"{name}: {unread.get(name, 'unknown key')}")
            continue
        try:
            check_bound(name, scenario.value(name), SCENARIO_KEYS[name].bound)
        except ExperimentError as exc:
            problems.append(str(exc))
        except ValueError as exc:
            problems.append(f"{name}: {exc}")
    if not problems and scenario.value("pump.shape") == "cw_carved_rect":
        rise, duration = scenario.value("pump.rise_time_ps"), scenario.value("pump.duration_ps")
        if not 0 <= rise < duration:
            problems.append(f"pump.rise_time_ps = {rise} must satisfy 0 <= pump.rise_time_ps "
                            f"< pump.duration_ps = {duration}")
    if problems:
        raise ExperimentError("; ".join(problems))
    return scenario


def preset_scenario(name, overrides=None):
    if name not in PRESET_NAMES:
        raise ExperimentError(f"unknown preset {name!r}; available: {PRESET_NAMES}")
    text = (resources.files("homsim.presets") / f"{name}.ini").read_text()
    return load_scenario(text, overrides=overrides)


def _filter_spec(scenario, arm, grid):
    shape = scenario.value(f"filters.{arm}_shape")
    if shape == "tabulated":
        files = [f.strip() for f in scenario.value(f"filters.{arm}_files").split(",")]
        return make_profile("tabulated", {"files": files}, grid)
    bw = TWO_PI * 1e9 * scenario.value(f"filters.{arm}_bandwidth_ghz")
    width = "bandwidth" if shape == "rectangular" else "fwhm"
    return make_profile(shape, {width: bw}, grid)


def _unresolved(key, what, grid):
    raise ExperimentError(
        f"{key} gives {what} no resolved width on its grid of spacing "
        f"{grid.spacing / TWO_PI / 1e9:.4g} GHz: change {key}, or refine the grid "
        "with filters.grid_points")


@dataclass
class Scenario:
    """Materialized experiment description; heavy pieces build lazily."""

    config: configparser.ConfigParser

    # -- raw accessors ------------------------------------------------
    def value(self, name):
        """The value of SCENARIO_KEYS[name] ("section.key") as its declared
        type, or None when it is not set; KeyError for an undeclared name."""
        kind = SCENARIO_KEYS[name].kind
        text = self.config.get(*name.split("."), fallback=None)
        return None if text is None else kind(text)

    @property
    def pulses(self):
        return self.value("scenario.pulses")

    # -- lattice ------------------------------------------------------
    @cached_property
    def grids(self):
        n_points = self.value("filters.grid_points")
        bw = TWO_PI * 1e9 * self.value("filters.signal_bandwidth_ghz")
        span = self.value("filters.grid_span_factor") * bw
        spacing = span / (n_points - 1)
        half = max(8.0 * span, TWO_PI * 0.5e12)
        samples = 2 * half / spacing
        if samples >= MAX_PUMP_POINTS + 1:
            raise ExperimentError(f"filters.grid_points, filters.grid_span_factor and "
                                  f"filters.signal_bandwidth_ghz ask for a pump grid of "
                                  f"{samples:.0f} samples, above the cap of {MAX_PUMP_POINTS}")
        wp = angular_from_nm(self.value("pump.center_nm"))
        detune = TWO_PI * 1e12 * self.value("source.detuning_thz")
        offset = round(detune / spacing) * spacing
        if 2 * abs(offset) <= span:
            raise ExperimentError(f"source.detuning_thz puts the band centres "
                                  f"{2 * abs(offset) / TWO_PI / 1e12:.3g} THz apart, within their "
                                  f"span {span / TWO_PI / 1e12:.3g} THz (filters.grid_span_factor "
                                  "x filters.signal_bandwidth_ghz): the bands would overlap")
        n_pump = int(samples) // 2 * 2 + 1
        grid_s = FrequencyGrid(center=wp - offset, span=span, n_points=n_points)
        grid_a = FrequencyGrid(center=wp + offset, span=span, n_points=n_points)
        grid_p = FrequencyGrid(center=wp, span=spacing * (n_pump - 1), n_points=n_pump)
        return {STOKES: grid_s, ANTISTOKES: grid_a, "pump": grid_p}

    @cached_property
    def pump(self):
        shape = self.value("pump.shape")
        energy = self.value("pump.energy_pj") * 1e-12
        if shape == "cw_carved_rect":
            widths = ("pump.duration_ps", "pump.rise_time_ps")
            params = {"duration": self.value("pump.duration_ps") * 1e-12,
                      "rise_time": self.value("pump.rise_time_ps") * 1e-12}
        else:
            widths = ("pump.power_fwhm_ghz",)
            params = {"power_fwhm": TWO_PI * 1e9 * self.value("pump.power_fwhm_ghz")}
        try:
            pump = pump_spectrum(shape, params, energy, self.grids["pump"])
        except SourceModelError as exc:
            raise ExperimentError(f"{', '.join(('pump.energy_pj', *widths))}: {exc}") from exc
        if correlation_bandwidth(pump) <= 0:
            _unresolved(widths[0], "the pump's pair-sum spectrum", pump.grid)
        return pump

    @cached_property
    def filters(self):
        filters = {"signal": _filter_spec(self, "signal", self.grids[STOKES]),
                   "idler": _filter_spec(self, "idler", self.grids[ANTISTOKES])}
        for arm, filt in filters.items():
            if filter_bandwidth(filt) <= 0:
                tabulated = self.value(f"filters.{arm}_shape") == "tabulated"
                key = f"filters.{arm}_{'files' if tabulated else 'bandwidth_ghz'}"
                _unresolved(key, f"the {arm} filter", filt.grid)
        return filters

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
        path = self.value("source.raman_file")
        gain = default_raman_gain() if path is None else load_raman_gain(path)
        gain = RamanGain(gain.detuning, gain.gain * self.value("source.raman_scale"))
        target = self.value("source.pair_probability")
        return SourceParams(
            gamma_length=calibrate_gain(target, self.pair_modes, self.filters["signal"]),
            length=self.value("source.length_m"),
            temperature=self.value("source.temperature_k"),
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
        t_s, t_i, qe, mu = (self.value(f"detectors.{key}") for key in (
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
        if self.value("scan.tau_min_ps") is not None:
            lo = self.value("scan.tau_min_ps") * 1e-12
            hi = self.value("scan.tau_max_ps") * 1e-12
        else:
            half = DEFAULT_SCAN_HALFWIDTHS * self.dip_width
            lo, hi = -half, half
        if not hi > lo:
            raise ExperimentError("scan range is empty")
        taus = np.linspace(lo, hi, self.value("scan.points"))
        if len(taus) % 2:
            # linspace can miss the midpoint by an ulp of the range (2.6e-26 s
            # for -200..200 ps), which leaves a symmetric scan without tau = 0
            taus[len(taus) // 2] = 0.5 * (lo + hi)
        return taus


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------

# The scan columns a fit can take, by name.
OBSERVABLES = {"fourfold": lambda scan: scan.p4,
               "twofold_accsub": lambda scan: scan.p2_ab - scan.p2_acc,
               "twofold": lambda scan: scan.p2_ab}


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
        if name not in OBSERVABLES:
            raise ExperimentError(f"unknown observable {name!r}")
        return OBSERVABLES[name](self)

    def to_csv(self):
        columns = [self.tau * 1e12, self.p4, self.p2_ab, self.p2_acc,
                   *(self.singles[name] for name in "ABCD")]
        rows = [", ".join(format(v, ".12e") for v in row) for row in zip(*columns)]
        return "\n".join([CSV_HEADER, *rows]) + "\n"

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
        return cls(tau=data[:, 0] * 1e-12, p4=data[:, 1], p2_ab=data[:, 2], p2_acc=data[:, 3],
                   singles=dict(zip("ABCD", data[:, 4:].T)))


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
