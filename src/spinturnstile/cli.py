"""Command-line front end.

The commands, listed with their handlers and help texts in ``COMMANDS``,
map one-to-one onto the library layers. One parser reads them all: the
command is its positional argument, and ``--help`` lists the commands with
their help texts after the options. All commands take the same four options
(``--config``, ``--out``, ``--format``, ``--seed``) and read one JSON
configuration (``--config PATH`` or ``-`` for stdin), write their table in
one of the ``results.RENDERERS`` formats (CSV or JSON-lines) to ``--out``
(default stdout) and embed the configuration digest and effective seed in
the output metadata, making every result reproducible from its own header.
The digest is taken when the configuration is read, and neither its bytes
nor their text is kept past the parse; the table is written piece by piece
(``results.write_results``), so the one large text an execution holds while
it computes and writes is the echo of its resolved configuration.
Warnings (e.g. a violated time-scale hierarchy) go to stderr and never
change the exit code.

Exit codes: 0 success, 2 configuration syntax error, 3 validation error,
4 I/O error, 1 internal error.
"""

import argparse
import gc
import sys

import numpy as np

from . import __version__
from .config import (
    ConfigSyntaxError,
    ConfigValidationError,
    RunConfig,
    config_digest,
    lead_vectors,
    parse_config,
    resolved_json,
)
from .algebra import pauli_coordinates
from .cycle import run_cycle, setting_instrument
from .experiment import (
    MASTER_SEED_MAX,
    calibrate,
    derive_setting_seeds,
    estimate_current,
    run_sweep,
    sample_counts,
    sample_cycles,
)
from .model import characteristic_times
from .results import RENDERERS, JsonText, ResultTable, write_results
from .tomography import (
    build_design,
    density_to_theta,
    identified_parameters,
    is_physical,
    parameter_labels,
    reconstruct,
    unidentifiable_directions,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_IO = 4


def _base_metadata(command: str, digest: str, cfg: RunConfig) -> dict:
    return {
        "tool": "spinturnstile",
        "version": __version__,
        "command": command,
        "config_sha256": digest,
        "seed": cfg.experiment.seed,
        "resolved_config": JsonText(resolved_json(cfg)),
    }


def _cmd_rates(cfg: RunConfig, meta: dict) -> ResultTable:
    report = characteristic_times(cfg.model, cfg.tunnel, threshold=cfg.hierarchy_threshold)
    columns = (
        "tau_res_s", "tau_dyn_s", "tau_non_s",
        "rate_res_per_s", "rate_dyn_per_s", "rate_non_per_s",
        "ratio_dyn_res", "ratio_non_dyn", "satisfied",
    )
    row = (
        report.tau_res, report.tau_dyn, report.tau_non,
        1.0 / report.tau_res, 1.0 / report.tau_dyn, 1.0 / report.tau_non,
        report.ratio_dyn_res, report.ratio_non_dyn, report.satisfied,
    )
    return ResultTable(columns=columns, rows=[row], metadata=meta)


def _cmd_cycle(cfg: RunConfig, meta: dict) -> ResultTable:
    outcome = run_cycle(
        cfg.setting, cfg.model, cfg.tunnel,
        cfg.gate_state.density(), cfg.detection_c, cfg.include_gate_hamiltonian,
        threshold=cfg.hierarchy_threshold,
    )
    columns = (
        "t_interact_s", "kappa", "pr_pulse",
        "u_ancilla_x", "u_ancilla_y", "u_ancilla_z", "u_ancilla_norm",
    )
    u = outcome.u_ancilla
    row = (
        cfg.setting.t_interact[0], outcome.instrument.kappa, outcome.pr_pulse,
        float(u[0]), float(u[1]), float(u[2]), float(np.linalg.norm(u)),
    )
    return ResultTable(columns=columns, rows=[row], metadata=meta)


def _cmd_sweep(cfg: RunConfig, meta: dict) -> ResultTable:
    grid = cfg.sweep_settings
    rows_out = run_sweep(
        grid,
        model=cfg.model,
        tunnel=cfg.tunnel,
        rho_gate=cfg.gate_state.density(),
        c=cfg.detection_c,
        n_cycles=cfg.experiment.n_cycles,
        seed=cfg.experiment.seed,
        mode=cfg.experiment.mode,
        include_gate_hamiltonian=cfg.include_gate_hamiltonian,
        threshold=cfg.hierarchy_threshold,
    )
    columns = (
        "row",
        "u_left_x", "u_left_y", "u_left_z",
        "u_right_x", "u_right_y", "u_right_z",
        "t_interact_s", "pr", "pr_hat", "std_err",
        "n_pulses", "n_cycles", "current_a", "current_std_err_a", "seed", "status",
    )
    rows = []
    for index, (ul, ur, t, r) in enumerate(zip(grid.u_left, grid.u_right, grid.t_interact, rows_out)):
        rec = r.record
        cur = estimate_current(rec, cfg.tunnel.tau_cycle) if rec else None
        counts = (rec.pr_hat, rec.std_err, rec.n_pulses, rec.n_cycles) if rec else (None,) * 4
        current = (cur.amperes, cur.std_err_amperes) if cur else (None, None)
        rows.append((index, *ul, *ur, t, r.pr, *counts, *current, rec.seed if rec else None, r.status))
    meta["mode"] = cfg.experiment.mode
    return ResultTable(columns=columns, rows=rows, metadata=meta)


def _cmd_calibrate(cfg: RunConfig, meta: dict) -> ResultTable:
    # Calibration geometry: both leads magnetized along the left-lead axis,
    # interaction off, so the pulse probability does not depend on the
    # unknown gate state.
    c_true = cfg.detection_c
    if c_true == 0.0:
        raise ValueError("detection.c: must be positive to calibrate, since no pulse occurs at 0")
    (direction, _), (_, magnitude) = cfg.setting.given_left[0], cfg.setting.given_right[0]
    geometry = cfg.setting._replace(u_right=lead_vectors([(direction, magnitude)]), t_interact=(0.0,))
    block = setting_instrument(geometry, cfg.model, cfg.tunnel, c_true, cfg.include_gate_hamiltonian)
    pr_true = float(block.pulse_probabilities(cfg.gate_state.density())[0])
    rec = sample_cycles(pr_true, cfg.experiment.n_cycles, cfg.experiment.seed)
    rows = []
    for kind, pr, n in (("noiseless", pr_true, None), ("shot_noise", rec.pr_hat, rec.n_cycles)):
        c_hat = calibrate(pr, pr_true, c_true)
        rows.append((kind, pr, c_true, c_hat, abs(c_hat - c_true) / c_true, n))
    columns = ("kind", "pr_measured", "c_true", "c_hat", "abs_rel_error", "n_cycles")
    return ResultTable(columns=columns, rows=rows, metadata=meta)


def _cmd_tomography(cfg: RunConfig, meta: dict) -> ResultTable:
    mode = cfg.tomography.mode
    settings = cfg.tomography.settings
    design = build_design(
        settings, cfg.model, cfg.tunnel, cfg.detection_c,
        mode=mode, include_gate_hamiltonian=cfg.include_gate_hamiltonian,
    )
    rho_true = cfg.gate_state.density()
    theta_true = density_to_theta(rho_true, mode)

    # Probabilities of the actual configured state (not its mode-truncated
    # representative), so single-spin reconstruction of a correlated state
    # honestly shows its model error; one product per row, as
    # InstrumentBlock.pulse_probabilities takes, so a setting's probability
    # has the same bits alone as in any grid. Only the shot draw clips it.
    pr_exact = (design.pulse_rows[:, None, :] @ pauli_coordinates(rho_true))[:, 0]
    counts = None
    pr_used = pr_exact
    if cfg.tomography.noise == "shot":
        n = cfg.experiment.n_cycles
        seeds = derive_setting_seeds(cfg.experiment.seed, settings)
        # A repeated setting would repeat its draws, which reconstruct would
        # count as independent shots.
        rows_of_seed = {}
        for i, seed_i in enumerate(seeds):
            first = rows_of_seed.setdefault(seed_i, i)
            if first != i:
                raise ValueError(f"tomography.settings[{first}] and tomography.settings[{i}] derive "
                                 "the same seed, so their shot-noise draws would be identical, not "
                                 "independent; list each setting once")
        pulses = sample_counts(np.clip(pr_exact, 0.0, 1.0).tolist(), n, seeds)
        pr_used = np.array([k / n for k in pulses])
        counts = n

    result = reconstruct(design, pr_used, shot_counts=counts)

    labels = parameter_labels(mode)
    std = (np.sqrt(np.clip(np.diag(result.covariance), 0.0, None))
           if result.covariance is not None else None)
    # an unidentified parameter's estimate misses its null-space part: no error bar
    identified = identified_parameters(design)
    rows = []
    for j, label in enumerate(labels):
        rows.append((
            label, float(theta_true[j]), float(result.theta_hat[j]),
            abs(float(result.theta_hat[j] - theta_true[j])),
            float(std[j]) if std is not None and identified[j] else None,
        ))
    columns = ("parameter", "theta_true", "theta_hat", "abs_error", "std_pred")
    meta.update({
        "mode": mode,
        "noise": cfg.tomography.noise,
        "n_settings": design.n_settings,
        "rank": design.rank,
        "condition_number": design.condition_number,
        "identifiable": design.rank == design.n_params,
        "residual_norm": result.residual_norm,
        "estimate_physical": is_physical(result.theta_hat, mode),
        "unidentifiable_directions": unidentifiable_directions(design),
    })
    return ResultTable(columns=columns, rows=rows, metadata=meta)


# Command -> (handler, help text).
COMMANDS = {
    "rates": (_cmd_rates, "device time scales and hierarchy check"),
    "cycle": (_cmd_cycle, "single measurement cycle"),
    "sweep": (_cmd_sweep, "shot statistics over a setting grid"),
    "calibrate": (_cmd_calibrate, "detection-constant calibration"),
    "tomography": (_cmd_tomography, "gate-state reconstruction"),
}


def execute(command: str, cfg: RunConfig, digest: str) -> ResultTable:
    """Run one command against a validated configuration."""
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    return COMMANDS[command][0](cfg, _base_metadata(command, digest, cfg))


def build_parser() -> argparse.ArgumentParser:
    """One parser for every command: the command is a positional choice, and
    the options all commands take are declared once. ``--help`` lists the
    commands and their help texts from ``COMMANDS`` in its epilog."""
    width = max(map(len, COMMANDS))
    epilog = "commands:\n" + "".join(
        f"  {name:<{width}}  {help_text}\n" for name, (_, help_text) in COMMANDS.items())
    parser = argparse.ArgumentParser(
        prog="spinturnstile",
        description="Turnstile readout simulator for donor spin gates.",
        epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=tuple(COMMANDS), metavar="command",
                        help="the command to run, one of those listed below")
    parser.add_argument("--config", required=True,
                        help="path to the JSON configuration, or '-' for stdin")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--format", default="csv", choices=tuple(RENDERERS),
                        help="output format (default: csv)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override experiment.seed from the configuration")
    return parser


def main(argv=None) -> int:
    # One execution leaves a few dozen objects of cyclic garbage, however
    # large its grid, so the collector's passes during it free next to
    # nothing; pause it and give the caller back the state it had, also when
    # argparse exits.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(build_parser().parse_args(argv))
    finally:
        if gc_was_enabled:
            gc.enable()


def _run(args: argparse.Namespace) -> int:
    """Read, parse, execute and write for the parsed command line; returns
    the exit code."""
    try:
        if args.config == "-":
            raw = sys.stdin.buffer.read()
        else:
            with open(args.config, "rb") as fh:
                raw = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO

    digest = config_digest(raw)
    try:
        cfg = parse_config(raw)
    except ConfigSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConfigValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    del raw  # the execution and the write hold no copy of the document

    if args.seed is not None:
        if not 0 <= args.seed <= MASTER_SEED_MAX:
            print(f"error: --seed must lie in [0, {MASTER_SEED_MAX}]", file=sys.stderr)
            return EXIT_VALIDATION
        cfg = cfg._replace(experiment=cfg.experiment._replace(seed=args.seed))

    try:
        table = execute(args.command, cfg, digest)
    except (ValueError, ConfigValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL

    try:
        if args.out is not None:
            write_results(table, args.format, args.out)
        else:
            write_results(table, args.format, sys.stdout.buffer)
            sys.stdout.buffer.flush()
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
