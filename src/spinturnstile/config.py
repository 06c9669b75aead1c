"""Run configuration: JSON schema, validation and canonical serialization.

A run configuration is a single JSON document with explicit unit-bearing
field names (``_per_s`` for rates and angular frequencies, ``_s`` for times,
``_tesla`` for fields). Parsing applies documented defaults, rejects unknown
keys, and reports semantic violations with the full field path. The resolved
configuration can be serialized back to JSON canonically; parsing that text
reproduces an equal :class:`RunConfig`.
"""

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .constants import G_NUCLEAR_P31
from .cycle import MeasurementSetting, PulseSchedule
from .model import SpinModelParams, TunnelParams
from .tomography import SINGLE_SPIN, TWO_SPIN, n_parameters, theta_to_density

__all__ = [
    "ConfigError",
    "ConfigSyntaxError",
    "ConfigValidationError",
    "LeadSpec",
    "SettingSpec",
    "GateStateSpec",
    "ExperimentSpec",
    "TomographySpec",
    "RunConfig",
    "parse_config",
    "serialize_config",
    "resolved_dict",
    "config_digest",
    "GATE_PRESETS",
]


class ConfigError(Exception):
    """Base class for configuration failures."""


class ConfigSyntaxError(ConfigError):
    """The configuration document is not well-formed JSON."""


class ConfigValidationError(ConfigError):
    """A field violates the schema; the message names the field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


# Gate-state presets, expressed as 15-component two-spin parameter vectors
# (order: XI YI ZI IX IY IZ XX XY XZ YX YY YZ ZX ZY ZZ).
def _preset_vec(**entries):
    labels = ("XI", "YI", "ZI", "IX", "IY", "IZ",
              "XX", "XY", "XZ", "YX", "YY", "YZ", "ZX", "ZY", "ZZ")
    vec = [0.0] * 15
    for key, val in entries.items():
        vec[labels.index(key)] = val
    return tuple(vec)


GATE_PRESETS = {
    "maximally_mixed": _preset_vec(),
    "pure_up": _preset_vec(ZI=1.0, IZ=1.0, ZZ=1.0),
    "singlet": _preset_vec(XX=-1.0, YY=-1.0, ZZ=-1.0),
}


@dataclass(frozen=True)
class LeadSpec:
    """Lead polarization: a direction (any nonzero 3-vector) and a magnitude."""

    direction: tuple
    magnitude: float

    def vector(self) -> np.ndarray:
        d = np.asarray(self.direction, dtype=float)
        return self.magnitude * d / np.linalg.norm(d)


@dataclass(frozen=True)
class SettingSpec:
    """One sweep/tomography setting; ``model`` optionally overrides couplings."""

    u_left: LeadSpec
    u_right: LeadSpec
    t_interact: float
    model: SpinModelParams | None = None

    def to_setting(self) -> MeasurementSetting:
        return MeasurementSetting(
            u_left=tuple(self.u_left.vector()),
            u_right=tuple(self.u_right.vector()),
            t_interact=self.t_interact,
            model=self.model,
        )


@dataclass(frozen=True)
class GateStateSpec:
    """Initial gate state: a named preset or explicit parameter vector."""

    preset: str | None = None
    theta_single: tuple | None = None
    theta_two: tuple | None = None

    def theta_two_spin(self) -> np.ndarray:
        if self.preset is not None:
            return np.asarray(GATE_PRESETS[self.preset], dtype=float)
        if self.theta_two is not None:
            return np.asarray(self.theta_two, dtype=float)
        theta = np.zeros(15)
        theta[:3] = self.theta_single
        return theta

    def density(self) -> np.ndarray:
        return theta_to_density(self.theta_two_spin(), TWO_SPIN)


@dataclass(frozen=True)
class ExperimentSpec:
    n_cycles: int
    seed: int
    mode: str


@dataclass(frozen=True)
class TomographySpec:
    mode: str
    noise: str
    settings: tuple


@dataclass(frozen=True)
class RunConfig:
    """Fully validated configuration for any CLI command."""

    model: SpinModelParams
    tunnel: TunnelParams
    schedule: PulseSchedule
    u_left: LeadSpec
    u_right: LeadSpec
    detection_c: float
    gate_state: GateStateSpec
    experiment: ExperimentSpec
    hierarchy_threshold: float
    sweep_settings: tuple
    tomography: TomographySpec


_AXES = {
    "x": (1.0, 0.0, 0.0),
    "y": (0.0, 1.0, 0.0),
    "z": (0.0, 0.0, 1.0),
}


def _reject_unknown(obj: dict, known, path: str):
    for key in obj:
        if key not in known:
            raise ConfigValidationError(f"{path}.{key}" if path else key, "unknown key")


def _as_dict(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigValidationError(path, "expected an object")
    return value


def _as_float(value, path: str, minimum=None, maximum=None, allow_none=False):
    if value is None and allow_none:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigValidationError(path, "expected a number")
    value = float(value)
    if not np.isfinite(value):
        raise ConfigValidationError(path, "must be finite")
    if minimum is not None and value < minimum:
        raise ConfigValidationError(path, f"must be >= {minimum}")
    if maximum is not None and value > maximum:
        raise ConfigValidationError(path, f"must be <= {maximum}")
    return value


def _as_int(value, path: str, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigValidationError(path, "expected an integer")
    if minimum is not None and value < minimum:
        raise ConfigValidationError(path, f"must be >= {minimum}")
    return int(value)


def _as_bool(value, path: str):
    if not isinstance(value, bool):
        raise ConfigValidationError(path, "expected a boolean")
    return value


def _as_choice(value, path: str, choices):
    if value not in choices:
        raise ConfigValidationError(path, f"must be one of {sorted(choices)}")
    return value


def _as_vec3(value, path: str):
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigValidationError(path, "expected a 3-component array")
    return tuple(_as_float(v, f"{path}[{i}]") for i, v in enumerate(value))


def _parse_model(obj, path: str, base: dict | None = None) -> SpinModelParams:
    obj = _as_dict(obj, path)
    known = {
        "b_field_tesla", "g_electron", "g_nuclear", "g_ancilla",
        "hyperfine_gate_per_s", "hyperfine_ancilla_per_s",
        "hopping_per_s", "coulomb_u_per_s", "exchange_per_s", "level_offset_per_s",
    }
    _reject_unknown(obj, known, path)
    merged = dict(base or _MODEL_DEFAULTS)
    merged.update(obj)
    try:
        return SpinModelParams(
            b_field=_as_vec3(merged["b_field_tesla"], f"{path}.b_field_tesla"),
            g_electron=_as_float(merged["g_electron"], f"{path}.g_electron"),
            g_nuclear=_as_float(merged["g_nuclear"], f"{path}.g_nuclear"),
            g_ancilla=_as_float(merged["g_ancilla"], f"{path}.g_ancilla"),
            hyperfine_gate=_as_float(merged["hyperfine_gate_per_s"], f"{path}.hyperfine_gate_per_s"),
            hyperfine_ancilla=_as_float(merged["hyperfine_ancilla_per_s"], f"{path}.hyperfine_ancilla_per_s"),
            hopping=_as_float(merged["hopping_per_s"], f"{path}.hopping_per_s"),
            coulomb_u=_as_float(merged["coulomb_u_per_s"], f"{path}.coulomb_u_per_s", minimum=0.0),
            exchange=_as_float(merged["exchange_per_s"], f"{path}.exchange_per_s", allow_none=True),
            level_offset=_as_float(merged["level_offset_per_s"], f"{path}.level_offset_per_s"),
        )
    except ValueError as exc:
        raise ConfigValidationError(path, str(exc)) from exc


def _parse_lead(obj, path: str, default_direction=(0.0, 0.0, 1.0), default_magnitude=1.0) -> LeadSpec:
    obj = _as_dict(obj, path)
    _reject_unknown(obj, {"direction", "magnitude"}, path)
    raw_dir = obj.get("direction", list(default_direction))
    if isinstance(raw_dir, str):
        if raw_dir not in _AXES:
            raise ConfigValidationError(f"{path}.direction", "axis name must be 'x', 'y' or 'z'")
        direction = _AXES[raw_dir]
    else:
        direction = _as_vec3(raw_dir, f"{path}.direction")
    if float(np.linalg.norm(direction)) == 0.0:
        raise ConfigValidationError(f"{path}.direction", "must be a nonzero vector")
    magnitude = _as_float(obj.get("magnitude", default_magnitude), f"{path}.magnitude",
                          minimum=0.0, maximum=1.0)
    return LeadSpec(direction=direction, magnitude=magnitude)


def _parse_setting(obj, path: str, cfg_leads, default_t: float, base_model: dict) -> SettingSpec:
    obj = _as_dict(obj, path)
    _reject_unknown(obj, {"u_left", "u_right", "t_interact_s", "model"}, path)
    u_left = (_parse_lead(obj["u_left"], f"{path}.u_left") if "u_left" in obj else cfg_leads[0])
    u_right = (_parse_lead(obj["u_right"], f"{path}.u_right") if "u_right" in obj else cfg_leads[1])
    t_interact = _as_float(obj.get("t_interact_s", default_t), f"{path}.t_interact_s", minimum=0.0)
    # A per-setting model block is a partial override merged onto the run model.
    model = _parse_model(obj["model"], f"{path}.model", base=base_model) if "model" in obj else None
    return SettingSpec(u_left=u_left, u_right=u_right, t_interact=t_interact, model=model)


_MODEL_DEFAULTS = {
    "b_field_tesla": [0.0, 0.0, 0.01],
    "g_electron": 0.0,
    "g_nuclear": G_NUCLEAR_P31,
    "g_ancilla": 0.0,
    "hyperfine_gate_per_s": 2.0e6,
    "hyperfine_ancilla_per_s": 1.1e6,
    "hopping_per_s": 0.0,
    "coulomb_u_per_s": 0.0,
    "exchange_per_s": 7.0e5,
    "level_offset_per_s": 0.0,
}

_TUNNEL_DEFAULTS = {
    "gamma0_per_s": 1.0e9,
    "interdot_sq_per_s": 1.0e9,
    "detuning_per_s": 1.0e12,
    "tau_detect_s": 1.0e-10,
    "tau_cycle_s": 1.0e-6,
}


def parse_config(data) -> RunConfig:
    """Parse and validate a configuration document.

    Args:
        data: JSON text as ``bytes``, ``str`` or an already-decoded ``dict``.

    Raises:
        ConfigSyntaxError: malformed JSON.
        ConfigValidationError: schema violation, with the offending field path.
    """
    if isinstance(data, (bytes, bytearray)):
        data = data.decode("utf-8", errors="replace")
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise ConfigSyntaxError(f"invalid JSON: {exc}") from exc
    root = _as_dict(data, "<config>")
    known = {
        "model", "tunnel", "schedule", "leads", "detection", "gate_state",
        "experiment", "hierarchy_threshold", "sweep", "tomography",
    }
    _reject_unknown(root, known, "")

    model = _parse_model(root.get("model", {}), "model")

    tun = _as_dict(root.get("tunnel", {}), "tunnel")
    _reject_unknown(tun, set(_TUNNEL_DEFAULTS), "tunnel")
    merged = dict(_TUNNEL_DEFAULTS)
    merged.update(tun)
    try:
        tunnel = TunnelParams(
            gamma0=_as_float(merged["gamma0_per_s"], "tunnel.gamma0_per_s"),
            interdot_sq=_as_float(merged["interdot_sq_per_s"], "tunnel.interdot_sq_per_s"),
            detuning=_as_float(merged["detuning_per_s"], "tunnel.detuning_per_s"),
            tau_detect=_as_float(merged["tau_detect_s"], "tunnel.tau_detect_s"),
            tau_cycle=_as_float(merged["tau_cycle_s"], "tunnel.tau_cycle_s"),
        )
    except ValueError as exc:
        raise ConfigValidationError("tunnel", str(exc)) from exc

    sched = _as_dict(root.get("schedule", {}), "schedule")
    _reject_unknown(sched, {"t_interact_s", "include_gate_hamiltonian"}, "schedule")
    # _as_float already enforces the schedule's only constraint, t_interact >= 0.
    schedule = PulseSchedule(
        t_interact=_as_float(sched.get("t_interact_s", 1.0e-6), "schedule.t_interact_s", minimum=0.0),
        include_gate_hamiltonian=_as_bool(
            sched.get("include_gate_hamiltonian", True), "schedule.include_gate_hamiltonian"
        ),
    )

    leads = _as_dict(root.get("leads", {}), "leads")
    _reject_unknown(leads, {"u_left", "u_right"}, "leads")
    u_left = _parse_lead(leads.get("u_left", {}), "leads.u_left")
    u_right = _parse_lead(leads.get("u_right", {}), "leads.u_right")

    det = _as_dict(root.get("detection", {}), "detection")
    _reject_unknown(det, {"c"}, "detection")
    detection_c = _as_float(det.get("c", 1.0), "detection.c", minimum=0.0)

    gate_state = _parse_gate_state(root.get("gate_state", {"preset": "maximally_mixed"}))

    exp = _as_dict(root.get("experiment", {}), "experiment")
    _reject_unknown(exp, {"n_cycles", "seed", "mode"}, "experiment")
    experiment = ExperimentSpec(
        n_cycles=_as_int(exp.get("n_cycles", 100_000), "experiment.n_cycles", minimum=1),
        seed=_as_int(exp.get("seed", 12345), "experiment.seed", minimum=0),
        mode=_as_choice(exp.get("mode", "refresh"), "experiment.mode", {"refresh", "propagate"}),
    )

    threshold = _as_float(root.get("hierarchy_threshold", 100.0), "hierarchy_threshold", minimum=1.0)

    raw_model = _as_dict(root.get("model", {}), "model")
    merged_model = dict(_MODEL_DEFAULTS)
    merged_model.update(raw_model)

    def parse_settings(block: dict, path: str) -> tuple:
        raw = block.get("settings")
        if raw is None:
            # Default grid: left lead fixed, right-lead axis swept over x, y, z
            # at the scheduled interaction time.
            return tuple(
                SettingSpec(
                    u_left=u_left,
                    u_right=LeadSpec(direction=_AXES[ax], magnitude=u_right.magnitude),
                    t_interact=schedule.t_interact,
                )
                for ax in ("x", "y", "z")
            )
        if not isinstance(raw, list) or not raw:
            raise ConfigValidationError(f"{path}.settings", "expected a nonempty array")
        return tuple(
            _parse_setting(s, f"{path}.settings[{i}]", (u_left, u_right), schedule.t_interact, merged_model)
            for i, s in enumerate(raw)
        )

    sweep = _as_dict(root.get("sweep", {}), "sweep")
    _reject_unknown(sweep, {"settings"}, "sweep")
    sweep_settings = parse_settings(sweep, "sweep")

    tomo = _as_dict(root.get("tomography", {}), "tomography")
    _reject_unknown(tomo, {"mode", "noise", "settings"}, "tomography")
    tomo_mode = _as_choice(tomo.get("mode", SINGLE_SPIN), "tomography.mode", {SINGLE_SPIN, TWO_SPIN})
    tomo_noise = _as_choice(tomo.get("noise", "none"), "tomography.noise", {"none", "shot"})
    tomo_settings = parse_settings(tomo, "tomography")
    tomography = TomographySpec(mode=tomo_mode, noise=tomo_noise, settings=tomo_settings)

    return RunConfig(
        model=model,
        tunnel=tunnel,
        schedule=schedule,
        u_left=u_left,
        u_right=u_right,
        detection_c=detection_c,
        gate_state=gate_state,
        experiment=experiment,
        hierarchy_threshold=threshold,
        sweep_settings=sweep_settings,
        tomography=tomography,
    )


def _parse_gate_state(obj) -> GateStateSpec:
    obj = _as_dict(obj, "gate_state")
    _reject_unknown(obj, {"preset", "theta_single_spin", "theta_two_spin"}, "gate_state")
    given = [k for k in ("preset", "theta_single_spin", "theta_two_spin") if k in obj]
    if len(given) != 1:
        raise ConfigValidationError(
            "gate_state", "exactly one of preset/theta_single_spin/theta_two_spin is required"
        )
    if "preset" in obj:
        name = _as_choice(obj["preset"], "gate_state.preset", set(GATE_PRESETS))
        return GateStateSpec(preset=name)
    key = given[0]
    mode = SINGLE_SPIN if key == "theta_single_spin" else TWO_SPIN
    want = n_parameters(mode)
    raw = obj[key]
    if not isinstance(raw, list) or len(raw) != want:
        raise ConfigValidationError(f"gate_state.{key}", f"expected an array of {want} numbers")
    theta = tuple(_as_float(v, f"gate_state.{key}[{i}]") for i, v in enumerate(raw))
    spec = (GateStateSpec(theta_single=theta) if mode == SINGLE_SPIN
            else GateStateSpec(theta_two=theta))
    min_eig = float(np.linalg.eigvalsh(spec.density()).min())
    if min_eig < -1e-10:
        raise ConfigValidationError(
            f"gate_state.{key}", f"parameters give an unphysical state (min eigenvalue {min_eig:.3e})"
        )
    return spec


def _lead_dict(lead: LeadSpec) -> dict:
    return {"direction": list(lead.direction), "magnitude": lead.magnitude}


def _model_dict(m: SpinModelParams) -> dict:
    return {
        "b_field_tesla": list(m.b_field),
        "g_electron": m.g_electron,
        "g_nuclear": m.g_nuclear,
        "g_ancilla": m.g_ancilla,
        "hyperfine_gate_per_s": m.hyperfine_gate,
        "hyperfine_ancilla_per_s": m.hyperfine_ancilla,
        "hopping_per_s": m.hopping,
        "coulomb_u_per_s": m.coulomb_u,
        "exchange_per_s": m.exchange,
        "level_offset_per_s": m.level_offset,
    }


def _setting_dict(s: SettingSpec) -> dict:
    out = {
        "u_left": _lead_dict(s.u_left),
        "u_right": _lead_dict(s.u_right),
        "t_interact_s": s.t_interact,
    }
    if s.model is not None:
        out["model"] = _model_dict(s.model)
    return out


def resolved_dict(cfg: RunConfig) -> dict:
    """Schema-shaped dict of the configuration with all defaults applied."""
    gs: dict = {}
    if cfg.gate_state.preset is not None:
        gs["preset"] = cfg.gate_state.preset
    elif cfg.gate_state.theta_single is not None:
        gs["theta_single_spin"] = list(cfg.gate_state.theta_single)
    else:
        gs["theta_two_spin"] = list(cfg.gate_state.theta_two)
    return {
        "model": _model_dict(cfg.model),
        "tunnel": {
            "gamma0_per_s": cfg.tunnel.gamma0,
            "interdot_sq_per_s": cfg.tunnel.interdot_sq,
            "detuning_per_s": cfg.tunnel.detuning,
            "tau_detect_s": cfg.tunnel.tau_detect,
            "tau_cycle_s": cfg.tunnel.tau_cycle,
        },
        "schedule": {
            "t_interact_s": cfg.schedule.t_interact,
            "include_gate_hamiltonian": cfg.schedule.include_gate_hamiltonian,
        },
        "leads": {"u_left": _lead_dict(cfg.u_left), "u_right": _lead_dict(cfg.u_right)},
        "detection": {"c": cfg.detection_c},
        "gate_state": gs,
        "experiment": {
            "n_cycles": cfg.experiment.n_cycles,
            "seed": cfg.experiment.seed,
            "mode": cfg.experiment.mode,
        },
        "hierarchy_threshold": cfg.hierarchy_threshold,
        "sweep": {"settings": [_setting_dict(s) for s in cfg.sweep_settings]},
        "tomography": {
            "mode": cfg.tomography.mode,
            "noise": cfg.tomography.noise,
            "settings": [_setting_dict(s) for s in cfg.tomography.settings],
        },
    }


def serialize_config(cfg: RunConfig) -> str:
    """Canonical JSON text of the resolved configuration."""
    return json.dumps(resolved_dict(cfg), indent=2, sort_keys=False) + "\n"


def config_digest(raw: bytes) -> str:
    """Hex SHA-256 digest of the configuration bytes as given."""
    return hashlib.sha256(raw).hexdigest()
