"""Batch command-line front end.

Subcommands: ``center`` solves an input measure, ``energy`` samples the energy
along a geodesic ray, ``verify`` runs the oracle property scans, ``fold``
pushes a measure through a halfspace fold before solving, and ``reproduce``
re-runs a named built-in fixture.

Reports are JSON with a fixed key order and 17-significant-digit decimal
floats, so identical (input, seed) pairs produce bit-identical files.  Exit
codes: 0 solved, 1 usage or schema error, 2 ambiguous center, 3 divergent
iterates (no center exists), 4 not converged.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from . import fixtures, oracle
from .energy import EnergyContext, energy_and_field, energy_context, field_V
from .errors import DivergentIterates, HypcenterError, SchemaError
from .geometry import _images, fold_map, geodesic, geodesic_point, halfspace, mobius_batch
from .measures import AtomicMeasure, atomic_measure, pushforward
from .solver import SolveOptions, SolveResult, UniquenessKind, solve_center
from .weights import weight_from_config

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_AMBIGUOUS = 2
EXIT_DIVERGENT = 3
EXIT_NOT_CONVERGED = 4


# -- deterministic JSON ------------------------------------------------------

def _floats(template: str, count: int, values: Sequence[float]) -> str:
    """``count`` copies of a %.17g template joined by ", ", formatted by one %
    call.  %.17g writes an n only for inf and nan, and the templates carry
    none, so one test rejects every non-finite value."""
    text = ", ".join([template] * count) % tuple(values)
    if "n" in text:
        raise SchemaError("reports cannot carry non-finite numbers")
    return text


def _render(value: Any) -> str:
    kind = type(value)  # plain values first, without the ABC checks
    if kind is float:
        return _floats("%.17g", 1, [value])
    if kind is list or kind is tuple:
        if set(map(type, value)) <= {float}:
            return "[" + _floats("%.17g", len(value), value) + "]"
        return "[" + ", ".join(map(_render, value)) + "]"
    if kind is dict:
        inner = ", ".join(f"{json.dumps(k)}: {_render(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if kind is AtomicMeasure:  # its atoms [{"x": [...], "w": w}, ...], in one pass
        row = '{"x": [' + ", ".join(["%.17g"] * value.dimension) + '], "w": %.17g}'
        rows = np.column_stack((value.locations, value.weights)).ravel().tolist()
        return "[" + _floats(row, len(value), rows) + "]"
    if value is None or isinstance(value, (str, int)):  # bool is an int
        return json.dumps(value)
    if isinstance(value, (np.ndarray, np.generic)):
        return _render(value.tolist())
    for plain, types in ((float, float), (dict, Mapping), (list, (list, tuple))):
        if isinstance(value, types):
            return _render(plain(value))
    raise SchemaError(f"cannot serialize {type(value).__name__} into a report")


def write_report(report: Mapping, output: str | None) -> None:
    text = _render(report) + "\n"
    if output is None or output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


# -- input parsing ------------------------------------------------------------

def load_job(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read input: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"input is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("input must be a JSON object")
    return doc


def parse_measure(doc: Mapping):
    if "dimension" not in doc or "atoms" not in doc:
        raise SchemaError('input needs "dimension" and "atoms"')
    n = doc["dimension"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise SchemaError('"dimension" must be a positive integer')
    atoms = doc["atoms"]
    if not isinstance(atoms, list) or not atoms:
        raise SchemaError('"atoms" must be a nonempty list')
    if not all(isinstance(e, dict) and "x" in e and "w" in e for e in atoms):
        raise SchemaError('each atom needs "x" and "w"')
    if not all(isinstance(e["x"], list) and len(e["x"]) == n for e in atoms):
        raise SchemaError(f'atom coordinates must be lists of length {n}')
    try:  # malformed numbers surface as DomainError
        return atomic_measure([(e["x"], e["w"]) for e in atoms], dimension=n)
    except HypcenterError as exc:
        raise SchemaError(str(exc)) from exc


def parse_weight(doc: Mapping):
    if "weight" not in doc or not isinstance(doc["weight"], dict):
        raise SchemaError('input needs a "weight" object')
    try:
        return weight_from_config(doc["weight"])
    except HypcenterError as exc:
        raise SchemaError(str(exc)) from exc


def parse_options(doc: Mapping, args: argparse.Namespace) -> SolveOptions:
    """Merge solve options: defaults < input file overlay < CLI flags."""
    overlay = doc.get("options", {})
    if not isinstance(overlay, dict):
        raise SchemaError('"options" must be an object')
    keys = ("tol_residual", "max_iters", "multistart", "strategy", "initial")
    merged = {key: overlay[key] for key in keys if key in overlay}
    flags = {"tol_residual": args.tol, "max_iters": args.max_iters,
             "multistart": args.multistart, "strategy": args.strategy}
    merged.update((key, flag) for key, flag in flags.items() if flag is not None)
    try:
        return SolveOptions(**merged)
    except (TypeError, ValueError, HypcenterError) as exc:
        raise SchemaError(f"bad solve options: {exc}") from exc


def build_context(doc: Mapping) -> EnergyContext:
    measure = parse_measure(doc)
    weight = parse_weight(doc)
    try:
        return energy_context(weight, measure)
    except HypcenterError as exc:
        raise SchemaError(str(exc)) from exc


# -- report pieces ------------------------------------------------------------

def _solve_payload(
    ctx: EnergyContext, result: SolveResult, command: str, seed: int
) -> dict:
    mu = ctx.measure  # recentred through T_{x_c} with its own 1 - |y|^2 datum
    batch = mobius_batch(
        result.x_c.coords, mu.locations, mu.one_minus_sq_values, mu.boundary_mask)
    recentred = AtomicMeasure(_images(batch, mu.boundary_mask), mu.weights, mu.boundary_mask)
    return {
        "command": command,
        "seed": seed,
        "dimension": ctx.dimension,
        "hypothesis_class": result.hypothesis_class.value,
        "converged": result.converged,
        "x_c": result.x_c.coords.tolist(),
        "residual": result.residual,
        "iterations": result.iterations,
        "energy": result.energy_at_min,
        "uniqueness": {
            "kind": result.uniqueness.kind.value,
            "representatives": [
                p.coords.tolist() for p in result.uniqueness.representatives
            ],
        },
        "recentered_input": {
            "dimension": ctx.dimension,
            "atoms": recentred,
            "weight": ctx.weight.describe(),
        },
    }


def _exit_code(result: SolveResult) -> int:
    if result.uniqueness.kind is UniquenessKind.AMBIGUOUS:
        return EXIT_AMBIGUOUS
    if not result.converged:
        return EXIT_NOT_CONVERGED
    return EXIT_OK


# -- subcommands ---------------------------------------------------------------

def _solve_and_report(
    args: argparse.Namespace,
    doc: Mapping,
    ctx: EnergyContext,
    command: str,
    extra: Callable[[SolveResult], dict] | None = None,
) -> int:
    """Solve, write the report (``extra`` appends fields read off the result),
    and return the exit code; a measure without a center gets an error report."""
    opts = parse_options(doc, args)
    try:
        result = solve_center(ctx, opts)
    except DivergentIterates as exc:
        write_report(
            {"command": command, "seed": args.seed, "error": "divergent_iterates",
             "message": str(exc)},
            args.output,
        )
        return EXIT_DIVERGENT
    payload = _solve_payload(ctx, result, command, args.seed)
    if extra is not None:
        payload.update(extra(result))
    write_report(payload, args.output)
    return _exit_code(result)


def run_center(args: argparse.Namespace) -> int:
    doc = load_job(args.input)
    return _solve_and_report(args, doc, build_context(doc), "center")


def run_energy(args: argparse.Namespace) -> int:
    doc = load_job(args.input)
    ctx = build_context(doc)
    ray = doc.get("ray", {})
    if not isinstance(ray, dict):
        raise SchemaError('"ray" must be an object')
    if ray.get("dir") is None:
        raise SchemaError('energy profiles need "ray": {"dir": [...]}')
    base = ray.get("base", [0.0] * ctx.dimension)
    try:
        direction = np.array(ray["dir"], dtype=float)
        tau_max = float(ray.get("tau_max", 5.0))
        count = int(ray.get("count", 26))
    except (TypeError, ValueError) as exc:
        raise SchemaError(f'malformed "ray": {exc}') from exc
    if count < 2 or tau_max <= 0:
        raise SchemaError("ray needs count >= 2 and tau_max > 0")
    samples = []
    for sign in (1.0, -1.0):
        g = geodesic(base, sign * direction)
        for tau in np.linspace(0.0, tau_max, count):
            x = geodesic_point(g, math.tanh(tau)).coords
            energy, field, _, _ = energy_and_field(ctx, x)
            samples.append(
                {
                    "direction": int(sign),
                    "tau": float(tau),
                    "energy": energy,
                    "field_norm": float(np.linalg.norm(field)),
                }
            )
    write_report(
        {"command": "energy", "seed": args.seed, "dimension": ctx.dimension,
         "samples": samples},
        args.output,
    )
    return EXIT_OK


def _verify_contexts() -> list[tuple[str, EnergyContext]]:
    interior = energy_context(
        weight_from_config({"kind": "identity", "params": {}}),
        atomic_measure(
            [([0.3, 0.1], 1.0), ([-0.2, 0.4], 2.0), ([0.1, -0.5], 0.5)]
        ),
    )
    sphere = fixtures.signed_circle_context()
    unsigned_sphere = energy_context(
        weight_from_config({"kind": "identity", "params": {}}),
        atomic_measure(
            [
                ([math.cos(a), math.sin(a)], 0.6 + 0.1 * k)
                for k, a in enumerate(np.linspace(0.2, 5.8, 7))
            ]
        ),
    )
    mixed = energy_context(
        weight_from_config({"kind": "clamped_linear", "params": {"c": 0.5}}),
        atomic_measure([([0.3, 0.1], 1.0), ([0.6, 0.8], 0.7), ([-0.2, 0.4], 1.3)]),
    )
    return [
        ("interior", interior),
        ("sphere", unsigned_sphere),
        ("signed_sphere", sphere),
        ("mixed", mixed),
    ]


def run_verify(args: argparse.Namespace) -> int:
    seed = args.seed
    scans: list[dict] = []

    def add(label: str, report: oracle.ScanReport) -> None:
        entry = {"label": label}
        entry.update(report.as_dict())
        scans.append(entry)

    named = _verify_contexts()
    for label, ctx in named:
        if label == "signed_sphere":
            continue  # gradient identity checked on the unsigned contexts
        add(f"gradient[{label}]", oracle.gradient_check(ctx, samples=300, seed=seed))
    add("cocycle[n=2,3]", oracle.cocycle_check(samples=1000, seed=seed))
    for label, ctx in named[:2]:
        add(f"convexity[{label}]", oracle.convexity_scan(ctx, seed=seed))
    add("kernel_linearity", oracle.kernel_linearity_check(named[1][1], seed=seed))
    add(
        "boundary_continuity[identity]",
        oracle.boundary_continuity_check(
            weight_from_config({"kind": "identity", "params": {}}),
            [0.5, 0.2],
            [1.0, 0.0],
        ),
    )
    add(
        "boundary_continuity[staircase]",
        oracle.boundary_continuity_check(
            fixtures.staircase_weight(), [0.3, -0.4], [0.0, 1.0]
        ),
    )
    add("distance_convexity", oracle.distance_convexity_check(seed=seed))

    zeros = oracle.brute_force_zeros_1d(fixtures.two_zeros_context())
    half = [p for p in zeros.points if p >= 0.0]
    add("zero_set[two-zeros]", oracle.ScanReport(
        kind=oracle.ScanKind.ZERO_SET_1D,
        worst_case=float(len(zeros.points)),
        samples=oracle.ZERO_SCAN_POINTS,
        passed=len(half) == 2 and not zeros.intervals,
        tolerance=0.0,
        seed=seed,
        details=(f"points={list(zeros.points)}",),
    ))
    zeros = oracle.brute_force_zeros_1d(fixtures.flat_interval_context())
    add("zero_set[flat-interval]", oracle.ScanReport(
        kind=oracle.ScanKind.ZERO_SET_1D,
        worst_case=float(len(zeros.intervals)),
        samples=oracle.ZERO_SCAN_POINTS,
        passed=len(zeros.intervals) == 1,
        tolerance=0.0,
        seed=seed,
        details=(f"intervals={list(zeros.intervals)}",),
    ))

    ok = all(s["pass"] for s in scans)
    write_report(
        {"command": "verify", "seed": seed, "pass": ok, "scans": scans}, args.output
    )
    return EXIT_OK if ok else EXIT_USAGE


def run_fold(args: argparse.Namespace) -> int:
    doc = load_job(args.input)
    ctx = build_context(doc)
    entry = doc.get("halfspace")
    if not isinstance(entry, dict) or "p" not in entry or "t" not in entry:
        raise SchemaError('fold needs "halfspace": {"p": [...], "t": ...}')
    try:
        h = halfspace(entry["p"], float(entry["t"]))
    except (TypeError, ValueError) as exc:
        raise SchemaError(f'malformed "halfspace": {exc}') from exc
    try:
        folded = pushforward(ctx.measure, fold_map(h))
        folded_ctx = energy_context(ctx.weight, folded)
    except HypcenterError as exc:
        raise SchemaError(str(exc)) from exc
    return _solve_and_report(args, doc, folded_ctx, "fold", lambda result: {
        "halfspace": {"p": h.p.tolist(), "t": h.t},
        "orthogonality_residual": float(
            np.linalg.norm(field_V(folded_ctx, result.x_c.coords))
        ),
    })


def run_reproduce(args: argparse.Namespace) -> int:
    if args.list:
        write_report({"fixtures": sorted(fixtures.REGISTRY)}, args.output)
        return EXIT_OK
    if not args.name:
        raise SchemaError("reproduce needs a fixture name (or --list)")
    report = fixtures.run_fixture(args.name, seed=args.seed)
    payload = {"command": "reproduce", "seed": args.seed}
    payload.update(report.as_dict())
    write_report(payload, args.output)
    return EXIT_OK if report.ok else EXIT_USAGE


# -- entry point ---------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypcenter",
        description="Weighted hyperbolic centers of mass on the unit ball.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, needs_input: bool) -> None:
        if needs_input:
            p.add_argument("--input", "-i", required=True, help="job JSON file")
        p.add_argument("--output", "-o", default=None, help="report path (default stdout)")
        p.add_argument("--seed", type=int, default=0, help="seed recorded in reports")

    def solving(p: argparse.ArgumentParser) -> None:
        common(p, True)
        p.add_argument("--tol", type=float, default=None, help="residual tolerance")
        p.add_argument("--max-iters", type=int, default=None)
        p.add_argument("--strategy", choices=["descent", "newton"], default=None)
        p.add_argument("--multistart", type=int, default=None)

    solving(sub.add_parser("center", help="solve for the center of mass"))
    common(sub.add_parser("energy", help="sample the energy along a ray"), True)
    common(sub.add_parser("verify", help="run the oracle property scans"), False)
    solving(sub.add_parser("fold", help="fold into a halfspace, then solve"))
    rep = sub.add_parser("reproduce", help="re-run a built-in fixture")
    rep.add_argument("name", nargs="?", help="fixture name")
    rep.add_argument("--list", action="store_true", help="list fixture names")
    common(rep, False)
    return parser


_RUNNERS = {
    "center": run_center,
    "energy": run_energy,
    "verify": run_verify,
    "fold": run_fold,
    "reproduce": run_reproduce,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _RUNNERS[args.command](args)
    except (SchemaError, HypcenterError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
