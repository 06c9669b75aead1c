"""Run configuration: JSON schema, validation and the resolved configuration.

A run configuration is a single JSON document with explicit unit-bearing
field names (``_per_s`` for rates and angular frequencies, ``_s`` for times,
``_tesla`` for fields). Parsing applies documented defaults, rejects unknown
keys, and reports semantic violations with the full field path. One schema,
``_ROOT_FIELDS``, lists the root's sections in document order, each as a
field table of its keys, defaults, readers or bounds and resolved form;
:func:`_parse_section` reads every section by its table. A bound is written
once, in its field's row, which the library types check by too, naming the
same key. Numbers are checked along one route: a walk checks only objects,
keys, axis names and lengths and gathers them, and one stacked pass
(``model._checked``) checks their types, finiteness and bounds, lead norms
and derived exchange, reporting the first bad field in document order, its
path built only then. The run's ``model`` section is checked by the one
:class:`SpinModelParams` built; each settings array becomes one
:class:`~spinturnstile.cycle.SettingGrid` of columns, its rows' leads and
times checked in one pass and its model overrides in a block of their own,
and an override stays its checked values. :func:`resolved_json` writes the
configuration with every default applied, in the schema's shape, as compact
JSON text; the command line embeds that text in every output, and parsing it
reproduces an equal :class:`RunConfig`.
"""

import hashlib
import itertools
import json
import math
import sys
from functools import partial
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .algebra import PAULI_PRODUCT_LABELS
from .cycle import _TIME_FIELDS, SettingGrid
from .experiment import MASTER_SEED_MAX
from .model import (
    _EXCHANGE, _MODEL_FIELDS, _TUNNEL_FIELDS, HIERARCHY_THRESHOLD, ConfigError, ConfigValidationError,
    SpinModelParams, TunnelParams, _check_fields, _checked, _columns, _components, _field_checks, _model_checks,
    model_values)
from .results import _time_texts
from .tomography import SINGLE_SPIN, TWO_SPIN, is_physical, n_parameters, theta_to_density

__all__ = [
    "ConfigError",
    "ConfigSyntaxError",
    "ConfigValidationError",
    "GateStateSpec",
    "ExperimentSpec",
    "TomographySpec",
    "RunConfig",
    "parse_config",
    "resolved_json",
    "config_digest",
    "lead_vectors",
    "GATE_PRESETS",
]


class ConfigSyntaxError(ConfigError):
    """The configuration document is not well-formed JSON."""


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
    settings: SettingGrid


class RunConfig(NamedTuple):
    """Fully validated configuration for any CLI command."""

    model: SpinModelParams
    tunnel: TunnelParams
    setting: SettingGrid
    include_gate_hamiltonian: bool
    detection_c: float
    gate_state: GateStateSpec
    experiment: ExperimentSpec
    hierarchy_threshold: float
    sweep_settings: SettingGrid
    tomography: TomographySpec


_AXES = {
    "x": (1.0, 0.0, 0.0),
    "y": (0.0, 1.0, 0.0),
    "z": (0.0, 0.0, 1.0),
}


def _as_object(value, path: str, known) -> dict:
    """``value`` as a JSON object of ``known`` keys; ``path`` "" is the root."""
    if not isinstance(value, dict):
        raise ConfigValidationError(path or "<config>", "expected an object")
    for key in value:
        if key not in known:
            raise ConfigValidationError(f"{path}.{key}" if path else key, "unknown key")
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
    if not isinstance(value, str) or value not in choices:  # an array or object is unhashable
        raise ConfigValidationError(path, f"must be one of {sorted(choices)}")
    return value


# Section field tables: JSON key -> (record field, default, reader or
# bounds). Each table gives its section's keys, their order in the resolved
# configuration and their defaults. A number field's row holds its bounds
# (see model._MODEL_FIELDS); a field without a reader or bounds is kept as
# given for its own route.
_LEAD_FIELDS = {
    "direction": ("direction", _AXES["z"], ()),
    "magnitude": ("magnitude", 1.0, ((">=", 0.0), ("<=", 1.0))),
}


def _parse_section(obj, path: str, fields: dict, cls=dict):
    """Build ``cls`` from the JSON object at ``path``: each field of
    ``fields`` is the value ``obj`` gives, read by its reader if it has one,
    or else the table's default. A library type checks its numbers by the
    same rows; a dict's are checked in one pass, before the readers run."""
    obj = _as_object(obj, path, fields)
    values = {attr: obj[key] if key in obj else default for key, (attr, default, _) in fields.items()}
    if cls is dict:
        values = _check_fields(path, fields, values)
    return cls(**{attr: read(values[attr], f"{path}.{key}") if callable(read) and key in obj else values[attr]
                  for key, (attr, _, read) in fields.items()})


def _lead_norms(directions: np.ndarray) -> np.ndarray:
    """Each row's norm by numpy.linalg.norm's route, ``sqrt(a.dot(a))``. A row whose
    squares under- or overflow (which takes a component of 2**500 or more) is scaled
    by its largest component first: only a zero row gets 0, and inf only a norm past 2**1024."""
    with np.errstate(over="ignore"):
        norms = np.sqrt((directions[:, None, :] @ directions[:, :, None])[:, 0, 0])
        redo = (norms == 0.0) | (norms == math.inf)
        if redo.any():
            scales = np.abs(directions[redo]).max(axis=1)
            a = directions[redo] / np.where(scales > 0.0, scales, 1.0)[:, None]
            norms[redo] = scales * np.sqrt((a[:, None, :] @ a[:, :, None])[:, 0, 0])
    return norms


def lead_vectors(leads) -> tuple:
    """Each checked lead ``(direction, magnitude)``'s polarization ``magnitude *
    direction / norm``, elementwise, as 3 Python floats. An all-subnormal direction
    is scaled by its largest component first: ``magnitude * direction`` would round it."""
    return _lead_vectors(np.array([d for d, _ in leads], dtype=float).reshape(-1, 3),
                         np.array([m for _, m in leads], dtype=float))


def _lead_vectors(directions: np.ndarray, magnitudes: np.ndarray) -> tuple:
    """:func:`lead_vectors` of stacked (R, 3) directions and (R,) magnitudes."""
    scales = np.abs(directions).max(axis=1, keepdims=True)
    directions = np.where(scales < np.finfo(float).tiny, directions / scales, directions)
    vectors = magnitudes[:, None] * directions
    return tuple(map(tuple, (vectors / _lead_norms(directions)[:, None]).tolist()))


# A walked settings row is one run of _WIDTH numbers in the order of their
# checks: each lead's direction components and magnitude, then the time. A
# model override is walked into a block of its own, its values as model_values
# orders them over those of the model it overrides. The keys of a row, of a
# lead and of a model override:
_ROW_KEYS = frozenset(("u_left", "u_right", "t_interact_s", "model"))
_LEAD_KEYS = frozenset(_LEAD_FIELDS)
_MODEL_KEYS = frozenset(_MODEL_FIELDS)
_TIME, _WIDTH = 8, 9
# A model key's place in model_values, which follows the table's order with
# b_field_tesla's 3 components first; each model value's place and field, in
# the order of their checks; and the table's defaults as model values.
_MODEL_SLOTS = {key: 2 + k if k else 0 for k, key in enumerate(_MODEL_FIELDS)}
_MODEL_DEFAULTS = model_values(SpinModelParams(**{attr: default for attr, default, _ in _MODEL_FIELDS.values()}))


def _walk_lead(obj, path_of, i: int, name: str) -> tuple:
    """A lead object's direction components and magnitude as given, after the
    checks of its keys, of an axis name and of a direction's length; its
    numbers are checked stacked. Its path, ``path_of(i) + name``, is built
    on a failure."""
    if type(obj) is not dict or not obj.keys() <= _LEAD_KEYS:
        _as_object(obj, path_of(i) + name, _LEAD_FIELDS)  # raises, unless a dict subclass of lead keys
    direction = obj.get("direction", _AXES["z"])
    if isinstance(direction, str):
        if direction not in _AXES:
            raise ConfigValidationError(f"{path_of(i)}{name}.direction", "axis name must be 'x', 'y' or 'z'")
        direction = _AXES[direction]
    elif type(direction) is not list or len(direction) != 3:  # a fault, or a tuple
        direction = _components(direction, f"{path_of(i)}{name}.direction", 3)
    return (*direction, obj.get("magnitude", 1.0))


def _walk_model(obj, base: tuple, path_of, i: int, name: str) -> list:
    """A model object's values: ``base`` (the values it overrides) with the
    given fields in their places, after the checks of its keys and of the
    field vector's length; the values are checked stacked. Its path,
    ``path_of(i) + name``, is built on a failure."""
    if type(obj) is not dict or not obj.keys() <= _MODEL_KEYS:
        _as_object(obj, path_of(i) + name, _MODEL_FIELDS)
    values = list(base)
    for key, value in obj.items():
        slot = _MODEL_SLOTS[key]
        if slot:
            values[slot] = value
        else:  # the field vector: the first field, so no other field is checked before it
            values[:3] = value if type(value) is list and len(value) == 3 else _components(
                value, f"{path_of(i)}{name}.b_field_tesla", 3)
    return values


def _lead_checks(x: np.ndarray, not_number: np.ndarray, null: np.ndarray) -> list:
    """The stacked checks of the leads of walked rows, in the order the
    row-by-row parse makes them: each lead's numbers, then its norm."""
    checks, bad = [], not_number | null
    for lead, at in (("u_left", 0), ("u_right", 4)):
        checks += _field_checks(x, bad, _columns(_LEAD_FIELDS, at, f".{lead}"))
        norms = _lead_norms(np.where(np.isfinite(x[:, at:at + 3]), x[:, at:at + 3], 0.0))  # inf/NaN fail above
        checks += [(norms == 0.0, f".{lead}.direction", "must be a nonzero vector"),
                   (norms == math.inf, f".{lead}.direction", "norm must be finite")]
    return checks


def _row_checks(x: np.ndarray, not_number: np.ndarray, null: np.ndarray) -> list:
    """The stacked checks of walked rows: their leads', then their time's."""
    return _lead_checks(x, not_number, null) + _field_checks(x, not_number | null, _columns(_TIME_FIELDS, _TIME))


def _parse_model(obj, path: str) -> SpinModelParams:
    """The run's model: its section walked over the table's defaults and
    checked by :class:`SpinModelParams`, by the checks of a model override."""
    values = _walk_model(obj, _MODEL_DEFAULTS, lambda i: "", 0, path)
    return SpinModelParams(tuple(values[:3]), *values[3:])


def _checked_rows(values: list, models: list, overridden: list, path_of, row_checks) -> tuple:
    """The numbers of walked rows and of their model overrides, the override
    of row ``overridden[k]`` the ``k``-th, each block after its own stacked
    checks (the rows' ``row_checks``), and the rows' array. The first failure
    by row raises at its path below ``path_of(row)``, a row's before its override's."""
    values, x, failure = _checked(values, _WIDTH, row_checks)
    if models:
        models, _, bad_model = _checked(models, len(_MODEL_DEFAULTS), _model_checks)
        if bad_model is not None and (failure is None or overridden[bad_model[0]] < failure[0]):
            failure = (overridden[bad_model[0]], ".model" + bad_model[1], bad_model[2])
    if failure is not None:
        row, field, message = failure
        raise ConfigValidationError(f"{path_of(row)}{field}", message)
    return values, models, x


def _parse_settings(objs, path_of, default: SettingGrid | None, base_model: SpinModelParams) -> SettingGrid:
    """The grid of the setting objects ``objs``, row ``i`` at ``path_of(i)``. A row
    takes a lead or time it does not give from the first row of ``default`` (the
    run's own setting); a ``model`` block is a partial override of ``base_model``.

    The walk checks only objects, keys, axis names and lengths; every number
    is checked stacked (:func:`_checked_rows`): the rows' leads and times in
    one pass, and the model overrides in a block of their own, so a row
    without one carries no model values. A walk error in row ``i`` first runs
    those passes over the rows before it and the fields of row ``i`` walked
    before it, the rest of its leads and time padded with values that pass,
    so the first bad field in document order is the one reported. The run's
    own setting (``default`` None) has the schedule's checked time."""
    row_checks = _lead_checks if default is None else _row_checks
    base = model_values(base_model)
    if default is not None:
        (left, left_m), (right, right_m) = default.given_left[0], default.given_right[0]
        left, right, t_default = (*left, left_m), (*right, right_m), default.t_interact[0]
    passing = (*_AXES["z"], 1.0, *_AXES["z"], 1.0, 0.0)
    values, models, overridden = [], [], []
    for i, obj in enumerate(objs):
        start = len(values)
        try:
            if type(obj) is not dict or not obj.keys() <= _ROW_KEYS:
                _as_object(obj, path_of(i), _ROW_KEYS)
            values += _walk_lead(obj["u_left"], path_of, i, ".u_left") if "u_left" in obj else left
            values += _walk_lead(obj["u_right"], path_of, i, ".u_right") if "u_right" in obj else right
            values.append(obj["t_interact_s"] if "t_interact_s" in obj else t_default)
            if "model" in obj:
                models += _walk_model(obj["model"], base, path_of, i, ".model")
                overridden.append(i)
        except ConfigValidationError:
            _checked_rows(values + list(passing[len(values) - start:]), models, overridden, path_of, row_checks)
            raise
    values, models, x = _checked_rows(values, models, overridden, path_of, row_checks)
    rows = range(0, len(values), _WIDTH)
    grid_models = [None] * len(rows)
    for i, k in zip(overridden, range(0, len(models), len(base))):
        grid_models[i] = tuple(models[k:k + len(base)])
    return SettingGrid(u_left=_lead_vectors(x[:, 0:3], x[:, 3]), u_right=_lead_vectors(x[:, 4:7], x[:, 7]),
                       t_interact=tuple(values[k + _TIME] for k in rows), models=tuple(grid_models),
                       given_left=tuple((tuple(values[k:k + 3]), values[k + 3]) for k in rows),
                       given_right=tuple((tuple(values[k + 4:k + 7]), values[k + 7]) for k in rows))


# The keys of GateStateSpec's fields, in its order.
_GATE_KEYS = ("preset", "theta_single_spin", "theta_two_spin")


def _parse_gate_state(obj, path: str) -> GateStateSpec:
    obj = _as_object(obj, path, _GATE_KEYS)
    given = [k for k in _GATE_KEYS if k in obj]
    if len(given) != 1:
        raise ConfigValidationError(
            path, "exactly one of preset/theta_single_spin/theta_two_spin is required"
        )
    if "preset" in obj:
        name = _as_choice(obj["preset"], f"{path}.preset", set(GATE_PRESETS))
        return GateStateSpec(preset=name)
    key = given[0]
    want = n_parameters(SINGLE_SPIN if key == "theta_single_spin" else TWO_SPIN)
    raw = obj[key]
    if not isinstance(raw, list) or len(raw) != want:
        raise ConfigValidationError(f"{path}.{key}", f"expected an array of {want} numbers")
    theta = _check_fields(path, {key: (key, (0.0,) * want, ())}, {key: raw})[key]
    spec = GateStateSpec(*(theta if k == key else None for k in _GATE_KEYS))
    if not is_physical(spec.theta_two_spin(), TWO_SPIN):
        raise ConfigValidationError(f"{path}.{key}", "parameters give an unphysical state")
    return spec


# The schema: the root's keys in document order, each -> (RunConfig field,
# default, reader or bounds), a section's reader being its field table. A
# section whose fields are the RunConfig's own names no RunConfig field; the
# schedule's time and the leads become the run's setting.
_ROOT_FIELDS = {
    "model": ("model", {}, _parse_model),
    "tunnel": ("tunnel", {}, _TUNNEL_FIELDS),
    "schedule": (None, {}, {
        **_TIME_FIELDS,
        "include_gate_hamiltonian": ("include_gate_hamiltonian", True, _as_bool),
    }),
    "leads": (None, {}, {"u_left": ("u_left", {}, None), "u_right": ("u_right", {}, None)}),
    "detection": (None, {}, {"c": ("detection_c", 1.0, ((">=", 0.0),))}),
    "gate_state": ("gate_state", {"preset": "maximally_mixed"}, _parse_gate_state),
    "experiment": ("experiment", {}, {
        # numpy's binomial sampler takes counts up to the int64 maximum.
        "n_cycles": ("n_cycles", 100_000, partial(_as_int, minimum=1, maximum=2**63 - 1)),
        # the range derive_setting_seeds mixes, so that no two seeds give one run
        "seed": ("seed", 12345, partial(_as_int, minimum=0, maximum=MASTER_SEED_MAX)),
        "mode": ("mode", "refresh", partial(_as_choice, choices={"refresh", "propagate"})),
    }),
    "hierarchy_threshold": ("hierarchy_threshold", HIERARCHY_THRESHOLD, ((">=", 1.0),)),
    "sweep": (None, {}, {"settings": ("sweep_settings", None, None)}),
    "tomography": ("tomography", {}, {
        "mode": ("mode", SINGLE_SPIN, partial(_as_choice, choices={SINGLE_SPIN, TWO_SPIN})),
        "noise": ("noise", "none", partial(_as_choice, choices={"none", "shot"})),
        "settings": ("settings", None, None),
    }),
}


def _read(root: dict, key: str, cls=dict):
    """The root's ``key``, given or its default, read by its row of the
    schema: a section by its field table into ``cls``, a value by its reader
    or checked by its bounds."""
    attr, default, read = _ROOT_FIELDS[key]
    value = root.get(key, default)
    if isinstance(read, dict):
        return _parse_section(value, key, read, cls)
    return read(value, key) if callable(read) else _check_fields("", {key: _ROOT_FIELDS[key]}, {attr: value})[attr]


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
            # -0 is the echo's text for -0.0: read it so, and an integer field rejects it
            data = json.loads(data, parse_int=lambda text: -0.0 if text == "-0" else int(text))
        except json.JSONDecodeError as exc:
            raise ConfigSyntaxError(f"invalid JSON: {exc}") from exc
        except RecursionError as exc:
            raise ConfigSyntaxError("invalid JSON: nested past the recursion limit of "
                                    f"{sys.getrecursionlimit()}") from exc
        except ValueError as exc:  # the one other: an integer past int's digit limit
            raise ConfigSyntaxError("invalid JSON: an integer of more than "
                                    f"{sys.get_int_max_str_digits()} digits") from exc
    root = _as_object(data, "", _ROOT_FIELDS)
    model = _read(root, "model")
    tunnel = _read(root, "tunnel", TunnelParams)
    run = _read(root, "schedule")  # the RunConfig's own fields, and the run's time
    # the run's own setting: a one-row grid of the given leads and time
    setting = _parse_settings([{**_read(root, "leads"), "t_interact_s": run.pop("t_interact")}],
                              lambda i: "leads", None, model)
    run.update(_read(root, "detection"))
    gate_state = _read(root, "gate_state")
    experiment = _read(root, "experiment", ExperimentSpec)
    threshold = _read(root, "hierarchy_threshold")
    # The default grid: the run's checked setting with the right lead's
    # direction swept over the axes x, y, z at its magnitude.
    right_magnitude = setting.given_right[0][1]
    default_grid = SettingGrid(
        u_left=setting.u_left * 3,
        u_right=_lead_vectors(np.array(list(_AXES.values())), np.full(3, right_magnitude)),
        t_interact=setting.t_interact * 3, models=(None,) * 3, given_left=setting.given_left * 3,
        given_right=tuple((axis, right_magnitude) for axis in _AXES.values()))

    def parse_settings(raw, path: str) -> SettingGrid:
        if raw is None:
            return default_grid
        if not isinstance(raw, list) or not raw:
            raise ConfigValidationError(f"{path}.settings", "expected a nonempty array")
        return _parse_settings(raw, lambda i: f"{path}.settings[{i}]", setting, model)

    run.update(_read(root, "sweep"))
    run["sweep_settings"] = parse_settings(run["sweep_settings"], "sweep")
    tomography = _read(root, "tomography")
    tomography["settings"] = parse_settings(tomography["settings"], "tomography")
    return RunConfig(model=model, tunnel=tunnel, setting=setting, gate_state=gate_state, experiment=experiment,
                     hierarchy_threshold=threshold, tomography=TomographySpec(**tomography), **run)


def _slot(default) -> str:
    """A field's ``%``-slot in a JSON object, by the type of its default: a
    vector is a list of one float slot per component, and any other default
    not a number or a word (a bool's, a section's) takes the JSON text."""
    if isinstance(default, tuple):
        return "[" + ",".join(["%.17g"] * len(default)) + "]"
    if isinstance(default, str):  # a choice among plain words
        return '"%s"'
    return {int: "%d", float: "%.17g"}.get(type(default), "%s")


def _template(fields: dict, null: str | None = None) -> str:
    """The ``%``-template of the JSON object of a section's field table, one
    slot per field value. The field ``null`` takes its None argument with a
    ``%.0s`` slot, which writes nothing of it, after the literal ``null``."""
    return "{" + ",".join(f"{json.dumps(key)}:" + ("null%.0s" if key == null else _slot(default))
                          for key, (_, default, *_) in fields.items()) + "}"


# A model's template takes its model_values.
_LEAD_TEMPLATE = _template(_LEAD_FIELDS)
_MODEL_TEMPLATES = (_template(_MODEL_FIELDS), _template(_MODEL_FIELDS, null="exchange_per_s"))

# A setting's template without a model override, then with one whose
# exchange is a float and with one whose exchange is null; each takes the
# separator before it and its time as its text.
_SETTING_HEAD = (f'%s{{"u_left":{_LEAD_TEMPLATE},"u_right":{_LEAD_TEMPLATE},'
                 '"t_interact_s":%s')
_SETTING_TEMPLATES = (_SETTING_HEAD + "}",
                      *(f'{_SETTING_HEAD},"model":{model}}}' for model in _MODEL_TEMPLATES))


def _settings_json(grid: SettingGrid, pieces: list) -> None:
    """Append the JSON array of a sweep or tomography grid to ``pieces``, one
    piece per setting: each setting's template filled once, with each
    distinct time's text made once."""
    pieces.append("[")
    pieces += [_SETTING_TEMPLATES[0 if model is None else 1 + (model[_EXCHANGE] is None)]
               % (sep, *left, left_m, *right, right_m, t, *(model or ()))
               for sep, (left, left_m), (right, right_m), t, model in
               zip(itertools.chain(("",), itertools.repeat(",")), grid.given_left, grid.given_right,
                   _time_texts(grid.t_interact, "%.17g"), grid.models)]
    pieces.append("]")


def _object_json(fields: dict, value, pieces: list) -> None:
    """Append the JSON object of a field table to ``pieces``: each field of
    ``value`` (``value`` itself when the field names none) after its key, by
    its slot; a field whose reader is a table as that table's object, a bool
    as true or false and a grid as its array."""
    for i, (key, (attr, default, read)) in enumerate(fields.items()):
        field = value if attr is None else getattr(value, attr)
        pieces.append(("," if i else "{") + json.dumps(key) + ":")
        if isinstance(read, dict):
            _object_json(read, field, pieces)
        elif isinstance(field, SettingGrid):
            _settings_json(field, pieces)
        elif type(field) is bool:
            pieces.append("true" if field else "false")
        else:
            pieces.append(_slot(default) % (field,))
    pieces.append("}")


def resolved_json(cfg: RunConfig) -> str:
    """The configuration with all defaults applied, as compact JSON text in
    the schema's shape: keys in the field tables' order, each float at 17
    significant digits (``-0.0`` as ``-0``), a null exchange as ``null`` and
    the names of presets and choices, plain words, between quotes as they are.

    The text is one join of one list of pieces, a settings array's rows
    among them, so that no array, section or root text is made on the way.
    """
    key, value = next(item for item in zip(_GATE_KEYS, cfg.gate_state) if item[1] is not None)
    value = f'"{value}"' if key == "preset" else "[" + ",".join(["%.17g"] * len(value)) % value + "]"
    (left, left_m), (right, right_m) = cfg.setting.given_left[0], cfg.setting.given_right[0]
    pieces = []
    # the run's setting gives the schedule its time and the leads their texts
    _object_json(_ROOT_FIELDS, SimpleNamespace(**{
        **cfg._asdict(), "model": _MODEL_TEMPLATES[cfg.model.exchange is None] % model_values(cfg.model),
        "gate_state": f'{{"{key}":{value}}}', "t_interact": cfg.setting.t_interact[0],
        "u_left": _LEAD_TEMPLATE % (*left, left_m), "u_right": _LEAD_TEMPLATE % (*right, right_m)}), pieces)
    return "".join(pieces)


def config_digest(raw: bytes) -> str:
    """Hex SHA-256 digest of the configuration bytes as given."""
    return hashlib.sha256(raw).hexdigest()
