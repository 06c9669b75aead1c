"""Run configuration: JSON schema, validation and the resolved configuration.

A run configuration is a single JSON document with explicit unit-bearing
field names (``_per_s`` for rates and angular frequencies, ``_s`` for times,
``_tesla`` for fields). Parsing applies documented defaults, rejects unknown
keys, and reports semantic violations with the full field path. The model,
tunnel, lead and experiment sections are each stated once, as a field table
that drives their parsing, defaults and resolved form. :func:`resolved_json`
writes the configuration with every default applied, in the schema's shape,
as compact JSON text; the command line embeds that text in every output, and
parsing it reproduces an equal :class:`RunConfig`.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from functools import partial
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .algebra import PAULI_PRODUCT_LABELS
from .constants import G_NUCLEAR_P31
from .cycle import MeasurementSetting
from .experiment import MASTER_SEED_MAX
from .model import SpinModelParams, TunnelParams
from .tomography import SINGLE_SPIN, TWO_SPIN, is_physical, n_parameters, theta_to_density

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
    "resolved_json",
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
        self.reason = message
        super().__init__(f"{path}: {message}")


# Gate-state presets, expressed as 15-component two-spin parameter vectors
# in PAULI_PRODUCT_LABELS order.
GATE_PRESETS = {
    name: tuple(entries.get(label, 0.0) for label in PAULI_PRODUCT_LABELS)
    for name, entries in (
        ("maximally_mixed", {}),
        ("pure_up", {"ZI": 1.0, "IZ": 1.0, "ZZ": 1.0}),
        ("singlet", {"XX": -1.0, "YY": -1.0, "ZZ": -1.0}),
    )
}


# A direction whose components all lie below this in magnitude has a finite
# sum of squares: 3 * 2**1000 < 2**1024.
_SQUARES_FINITE_BELOW = 2.0 ** 500


@dataclass(frozen=True)
class LeadSpec:
    """Lead polarization: a direction (any nonzero 3-vector of finite norm)
    and a magnitude. ``norm`` is the direction's norm, computed once here.

    Raises:
        ConfigValidationError: at path ``direction`` if its norm is zero or
            not finite.
    """

    direction: tuple
    magnitude: float
    norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # The norm vector() divides by, by numpy.linalg.norm's route: the
        # square root of a.dot(a). An overflow to inf would turn the lead
        # into an unpolarized one.
        a = np.array(self.direction, dtype=float)
        if max(map(abs, self.direction)) < _SQUARES_FINITE_BELOW:
            norm = math.sqrt(a.dot(a))
        else:
            with np.errstate(over="ignore"):
                norm = math.sqrt(a.dot(a))
        if norm == 0.0 or norm == math.inf:
            # The sum of squares under- or overflowed. Scaled by the largest
            # component, only a zero vector or an infinite norm stays.
            scale = float(np.abs(a).max())
            if 0.0 < scale < math.inf:
                a /= scale
                norm = scale * math.sqrt(a.dot(a))
        if norm == 0.0:
            raise ConfigValidationError("direction", "must be a nonzero vector")
        if not math.isfinite(norm):
            raise ConfigValidationError("direction", "norm must be finite")
        object.__setattr__(self, "norm", norm)

    def vector(self) -> tuple:
        # the elementwise float arithmetic of magnitude * d / norm on an array
        return tuple(self.magnitude * float(x) / self.norm for x in self.direction)


class SettingSpec(NamedTuple):
    """One cycle setting (the run's own, or a sweep/tomography row);
    ``model`` optionally overrides couplings."""

    u_left: LeadSpec
    u_right: LeadSpec
    t_interact: float
    model: SpinModelParams | None = None

    def to_setting(self) -> MeasurementSetting:
        return MeasurementSetting(
            u_left=self.u_left.vector(),
            u_right=self.u_right.vector(),
            t_interact=self.t_interact,
            model=self.model,
        )


class GateStateSpec(NamedTuple):
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


class ExperimentSpec(NamedTuple):
    n_cycles: int
    seed: int
    mode: str


class TomographySpec(NamedTuple):
    mode: str
    noise: str
    settings: tuple


class RunConfig(NamedTuple):
    """Fully validated configuration for any CLI command."""

    model: SpinModelParams
    tunnel: TunnelParams
    setting: SettingSpec
    include_gate_hamiltonian: bool
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
    if type(value) is not float:  # a JSON number is most often a float already
        if value is None and allow_none:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigValidationError(path, "expected a number")
        try:
            value = float(value)
        except OverflowError:  # an integer literal beyond the float range
            raise ConfigValidationError(path, "must be finite") from None
    if not math.isfinite(value):
        raise ConfigValidationError(path, "must be finite")
    if minimum is not None and value < minimum:
        raise ConfigValidationError(path, f"must be >= {minimum}")
    if maximum is not None and value > maximum:
        raise ConfigValidationError(path, f"must be <= {maximum}")
    return value


def _as_int(value, path: str, minimum=None, maximum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigValidationError(path, "expected an integer")
    if minimum is not None and value < minimum:
        raise ConfigValidationError(path, f"must be >= {minimum}")
    if maximum is not None and value > maximum:
        raise ConfigValidationError(path, f"must be <= {maximum}")
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


def _as_direction(value, path: str) -> tuple:
    """An axis name or a 3-vector; :class:`LeadSpec` checks its norm."""
    if isinstance(value, str):
        if value not in _AXES:
            raise ConfigValidationError(path, "axis name must be 'x', 'y' or 'z'")
        return _AXES[value]
    return _as_vec3(value, path)


# Section field tables: JSON key -> (record field, default, reader). Each
# table gives its section's keys, their order in the resolved configuration,
# their defaults and their checks.
_MODEL_FIELDS = {
    "b_field_tesla": ("b_field", (0.0, 0.0, 0.01), _as_vec3),
    "g_electron": ("g_electron", 0.0, _as_float),
    "g_nuclear": ("g_nuclear", G_NUCLEAR_P31, _as_float),
    "g_ancilla": ("g_ancilla", 0.0, _as_float),
    "hyperfine_gate_per_s": ("hyperfine_gate", 2.0e6, _as_float),
    "hyperfine_ancilla_per_s": ("hyperfine_ancilla", 1.1e6, _as_float),
    "hopping_per_s": ("hopping", 0.0, _as_float),
    "coulomb_u_per_s": ("coulomb_u", 0.0, partial(_as_float, minimum=0.0)),
    "exchange_per_s": ("exchange", 7.0e5, partial(_as_float, allow_none=True)),
    "level_offset_per_s": ("level_offset", 0.0, _as_float),
}

_TUNNEL_FIELDS = {
    "gamma0_per_s": ("gamma0", TunnelParams.gamma0, _as_float),
    "interdot_sq_per_s": ("interdot_sq", TunnelParams.interdot_sq, _as_float),
    "detuning_per_s": ("detuning", TunnelParams.detuning, _as_float),
    "tau_detect_s": ("tau_detect", TunnelParams.tau_detect, _as_float),
    "tau_cycle_s": ("tau_cycle", TunnelParams.tau_cycle, _as_float),
}

_LEAD_FIELDS = {
    "direction": ("direction", _AXES["z"], _as_direction),
    "magnitude": ("magnitude", 1.0, partial(_as_float, minimum=0.0, maximum=1.0)),
}

_EXPERIMENT_FIELDS = {
    # numpy's binomial sampler takes counts up to the int64 maximum.
    "n_cycles": ("n_cycles", 100_000, partial(_as_int, minimum=1, maximum=2**63 - 1)),
    # the range derive_setting_seeds mixes, so that no two seeds give one run
    "seed": ("seed", 12345, partial(_as_int, minimum=0, maximum=MASTER_SEED_MAX)),
    "mode": ("mode", "refresh", partial(_as_choice, choices={"refresh", "propagate"})),
}


def _parse_section(obj, path: str, cls, fields: dict, base=None):
    """Build ``cls`` from the JSON object at ``path``: each key of ``fields``
    that ``obj`` gives is read and checked; every other field comes from
    ``base`` (an instance of ``cls``) or, without one, from the table."""
    obj = _as_dict(obj, path)
    _reject_unknown(obj, fields, path)
    values = {}
    for key, (attr, default, read) in fields.items():
        if key in obj:
            values[attr] = read(obj[key], f"{path}.{key}")
        else:
            values[attr] = default if base is None else getattr(base, attr)
    try:
        return cls(**values)
    except ConfigValidationError as exc:  # a field check the section class makes
        raise ConfigValidationError(f"{path}.{exc.path}", exc.reason) from exc
    except ValueError as exc:
        raise ConfigValidationError(path, str(exc)) from exc


def _parse_setting(obj, path: str, default: SettingSpec, base_model: SpinModelParams) -> SettingSpec:
    obj = _as_dict(obj, path)
    _reject_unknown(obj, {"u_left", "u_right", "t_interact_s", "model"}, path)
    u_left = (_parse_section(obj["u_left"], f"{path}.u_left", LeadSpec, _LEAD_FIELDS)
              if "u_left" in obj else default.u_left)
    u_right = (_parse_section(obj["u_right"], f"{path}.u_right", LeadSpec, _LEAD_FIELDS)
               if "u_right" in obj else default.u_right)
    t_interact = _as_float(obj.get("t_interact_s", default.t_interact), f"{path}.t_interact_s",
                           minimum=0.0)
    # A per-setting model block is a partial override of the run model.
    model = (_parse_section(obj["model"], f"{path}.model", SpinModelParams, _MODEL_FIELDS,
                            base=base_model)
             if "model" in obj else None)
    return SettingSpec(u_left=u_left, u_right=u_right, t_interact=t_interact, model=model)


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

    model = _parse_section(root.get("model", {}), "model", SpinModelParams, _MODEL_FIELDS)
    tunnel = _parse_section(root.get("tunnel", {}), "tunnel", TunnelParams, _TUNNEL_FIELDS)

    sched = _as_dict(root.get("schedule", {}), "schedule")
    _reject_unknown(sched, {"t_interact_s", "include_gate_hamiltonian"}, "schedule")
    t_interact = _as_float(sched.get("t_interact_s", 1.0e-6), "schedule.t_interact_s", minimum=0.0)
    include_gate_hamiltonian = _as_bool(
        sched.get("include_gate_hamiltonian", True), "schedule.include_gate_hamiltonian"
    )

    leads = _as_dict(root.get("leads", {}), "leads")
    _reject_unknown(leads, {"u_left", "u_right"}, "leads")
    setting = SettingSpec(
        u_left=_parse_section(leads.get("u_left", {}), "leads.u_left", LeadSpec, _LEAD_FIELDS),
        u_right=_parse_section(leads.get("u_right", {}), "leads.u_right", LeadSpec, _LEAD_FIELDS),
        t_interact=t_interact,
    )

    det = _as_dict(root.get("detection", {}), "detection")
    _reject_unknown(det, {"c"}, "detection")
    detection_c = _as_float(det.get("c", 1.0), "detection.c", minimum=0.0)

    gate_state = _parse_gate_state(root.get("gate_state", {"preset": "maximally_mixed"}))

    experiment = _parse_section(root.get("experiment", {}), "experiment", ExperimentSpec,
                                _EXPERIMENT_FIELDS)

    threshold = _as_float(root.get("hierarchy_threshold", 100.0), "hierarchy_threshold", minimum=1.0)

    def parse_settings(block: dict, path: str) -> tuple:
        raw = block.get("settings")
        if raw is None:
            # Default grid: the run's setting with the right-lead axis swept
            # over x, y, z.
            return tuple(
                setting._replace(u_right=replace(setting.u_right, direction=_AXES[ax]))
                for ax in ("x", "y", "z")
            )
        if not isinstance(raw, list) or not raw:
            raise ConfigValidationError(f"{path}.settings", "expected a nonempty array")
        return tuple(
            _parse_setting(s, f"{path}.settings[{i}]", setting, model)
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
        setting=setting,
        include_gate_hamiltonian=include_gate_hamiltonian,
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
    if not is_physical(spec.theta_two_spin(), TWO_SPIN):
        raise ConfigValidationError(f"gate_state.{key}", "parameters give an unphysical state")
    return spec


def _slot(default) -> str:
    """A field's slot in a section template, by the type of its default: a
    vector is a list of one float slot per component."""
    if isinstance(default, tuple):
        return "[" + ",".join(["%.17g"] * len(default)) + "]"
    if isinstance(default, str):  # a choice among plain words
        return '"%s"'
    if isinstance(default, int):
        return "%d"
    return "%.17g"


def _template(fields: dict, null: str | None = None) -> str:
    """The ``%``-template of the JSON object of a section built by
    :func:`_parse_section`, one slot per field value. The field ``null``
    takes its None argument with a ``%.0s`` slot, which writes nothing of
    it, after the literal ``null``."""
    return "{" + ",".join(f"{json.dumps(key)}:" + ("null%.0s" if key == null else _slot(default))
                          for key, (_, default, _) in fields.items()) + "}"


def _arguments(fields: dict):
    """The function from a section's value to its template's arguments: the
    field values in table order, with a vector field, which comes first,
    spread into its components."""
    get = attrgetter(*(attr for attr, _, _ in fields.values()))
    _, first_default, _ = next(iter(fields.values()))
    if not isinstance(first_default, tuple):
        return get
    return lambda value: (*(values := get(value))[0], *values[1:])


_LEAD_TEMPLATE, _lead_arguments = _template(_LEAD_FIELDS), _arguments(_LEAD_FIELDS)
_MODEL_TEMPLATES = (_template(_MODEL_FIELDS), _template(_MODEL_FIELDS, null="exchange_per_s"))
_model_arguments = _arguments(_MODEL_FIELDS)
_TUNNEL_TEMPLATE, _tunnel_arguments = _template(_TUNNEL_FIELDS), _arguments(_TUNNEL_FIELDS)
_EXPERIMENT_TEMPLATE = _template(_EXPERIMENT_FIELDS)
_experiment_arguments = _arguments(_EXPERIMENT_FIELDS)

# A setting's template without a model override, then with one whose
# exchange is a float and with one whose exchange is null.
_SETTING_HEAD = (f'{{"u_left":{_LEAD_TEMPLATE},"u_right":{_LEAD_TEMPLATE},'
                 '"t_interact_s":%.17g')
_SETTING_TEMPLATES = (_SETTING_HEAD + "}",
                      *(f'{_SETTING_HEAD},"model":{model}}}' for model in _MODEL_TEMPLATES))


def _settings_json(settings) -> str:
    """The JSON array of sweep or tomography settings, one format per setting."""
    texts = []
    for s in settings:
        args = (*_lead_arguments(s.u_left), *_lead_arguments(s.u_right), s.t_interact)
        if s.model is None:
            texts.append(_SETTING_TEMPLATES[0] % args)
        else:
            texts.append(_SETTING_TEMPLATES[1 + (s.model.exchange is None)]
                         % (*args, *_model_arguments(s.model)))
    return "[" + ",".join(texts) + "]"


# The resolved configuration around its sections' texts. The names of
# presets and choices are plain words, written between quotes as they are.
_RESOLVED_TEMPLATE = (
    '{"model":%s,"tunnel":%s,"schedule":{"t_interact_s":%.17g,"include_gate_hamiltonian":%s},'
    '"leads":{"u_left":%s,"u_right":%s},"detection":{"c":%.17g},"gate_state":{"%s":%s},'
    '"experiment":%s,"hierarchy_threshold":%.17g,"sweep":{"settings":%s},'
    '"tomography":{"mode":"%s","noise":"%s","settings":%s}}'
)


def resolved_json(cfg: RunConfig) -> str:
    """The configuration with all defaults applied, as compact JSON text in
    the schema's shape: keys in the field tables' order, each float at 17
    significant digits (``-0.0`` as ``-0``) and a null exchange as ``null``.
    """
    gate = cfg.gate_state
    if gate.preset is not None:
        gate_state = ("preset", f'"{gate.preset}"')
    else:
        key, theta = (("theta_single_spin", gate.theta_single) if gate.theta_single is not None
                      else ("theta_two_spin", gate.theta_two))
        gate_state = (key, "[" + ",".join(["%.17g"] * len(theta)) % theta + "]")
    return _RESOLVED_TEMPLATE % (
        _MODEL_TEMPLATES[cfg.model.exchange is None] % _model_arguments(cfg.model),
        _TUNNEL_TEMPLATE % _tunnel_arguments(cfg.tunnel),
        cfg.setting.t_interact, "true" if cfg.include_gate_hamiltonian else "false",
        _LEAD_TEMPLATE % _lead_arguments(cfg.setting.u_left),
        _LEAD_TEMPLATE % _lead_arguments(cfg.setting.u_right),
        cfg.detection_c, *gate_state,
        _EXPERIMENT_TEMPLATE % _experiment_arguments(cfg.experiment), cfg.hierarchy_threshold,
        _settings_json(cfg.sweep_settings),
        cfg.tomography.mode, cfg.tomography.noise, _settings_json(cfg.tomography.settings),
    )


def config_digest(raw: bytes) -> str:
    """Hex SHA-256 digest of the configuration bytes as given."""
    return hashlib.sha256(raw).hexdigest()
