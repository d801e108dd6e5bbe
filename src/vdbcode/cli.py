"""Command-line interface.

Every subcommand that writes an output also writes `<out>.manifest.json`
recording the tool version, the file formats and random generator, the
full parameter set, digests of the input files, and the seed;
`vdbcode replay --manifest FILE` re-runs the recorded invocation and
reproduces the outputs byte for byte.  A manifest written with other
formats or another random generator is refused, since replaying it
would not reproduce its outputs.

Exit codes: 0 success/pass, 1 verification or simulation failure,
2 usage/validation error, 3 internal consistency failure (construction
methods disagree, or a solver's table fails its own re-verification).
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import sys

from . import __version__
from . import channel_sim, codegen, combinatorics, setgen
from .core import ParameterError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_MISMATCH = 3

FORMAT_VERSIONS = {
    "sets": setgen.SETS_FORMAT,
    "constraint": codegen.CONSTRAINT_FORMAT,
    "table": codegen.TABLE_FORMAT,
    "upsets": channel_sim.UPSETS_FORMAT,
    "generator": channel_sim.GENERATOR_ID,
}


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return "sha256:" + h.hexdigest()


def _write_manifest(args: argparse.Namespace, inputs: list[str], outputs: list[str]) -> None:
    recorded = {
        k: v for k, v in vars(args).items() if k not in ("func", "command") and v is not None
    }
    manifest = {
        "tool": "vdbcode",
        "version": __version__,
        "formats": FORMAT_VERSIONS,
        "subcommand": args.command,
        "arguments": recorded,
        "inputs": {path: _digest(path) for path in inputs},
        "seed": getattr(args, "seed", None),
        "outputs": outputs,
    }
    with open(outputs[0] + ".manifest.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def cmd_sets(args: argparse.Namespace) -> int:
    if args.method in ("fast", "both"):
        fast = setgen.sets_fast(args.L, args.k)
    if args.method in ("brute", "both"):
        brute = setgen.sets_bruteforce(args.L, args.k)
    if args.method == "both" and fast != brute:
        fast_pairs, brute_pairs = (set(zip(s.ms.tolist(), s.masks.tolist())) for s in (fast, brute))
        diff = sorted({m for m, _ in fast_pairs ^ brute_pairs})
        print(f"mismatch between fast and brute-force sets at m={diff}", file=sys.stderr)
        return EXIT_MISMATCH
    result = brute if args.method == "brute" else fast
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(setgen.serialize_sets(result))
    _write_manifest(args, [], [args.out])
    return EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> int:
    table = combinatorics.bounds_dataset(args.L, args.k)
    combinatorics.write_bounds_csv(table, args.out)
    _write_manifest(args, [], [args.out])
    return EXIT_OK


def cmd_encode(args: argparse.Namespace) -> int:
    constraint = codegen.load_constraint(args.constraint)
    table = (codegen.solve_iid if args.mode == codegen.MODE_IID else codegen.solve_perbit)(constraint)
    # Both solvers re-verify their table and keep the margins they checked.
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(codegen.serialize_table(table))
    _write_manifest(args, [args.constraint], [args.out])
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    constraint = codegen.load_constraint(args.constraint)
    table = codegen.load_table(args.table)
    report = codegen.verify_table(table, constraint)
    rows = sorted(report.margins.items())
    sys.stdout.write(
        "m=%d margin=%.9g\n" * len(rows) % tuple(itertools.chain.from_iterable(rows))
        + f"verify: {'pass' if report.passed else 'FAIL'} (worst margin {report.worst:.9g})\n"
    )
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_simulate(args: argparse.Namespace) -> int:
    constraint = codegen.load_constraint(args.constraint)
    table = codegen.load_table(args.table)
    inputs = [args.table, args.constraint]
    value_source: str | channel_sim.EmpiricalPMF = "uniform"
    if args.pmf:
        value_source = channel_sim.load_pmf_csv(args.pmf)
        inputs.append(args.pmf)
    result = channel_sim.simulate(
        table, constraint, args.trials, args.seed, value_source, cap_weight=args.cap_weight
    )
    channel_sim.write_distribution_csv(result.distribution, args.out)
    _write_manifest(args, inputs, [args.out])
    c = result.columns
    flags = ["ok" if ok else "VIOLATION" for ok in (c.mass_ok & c.tail_ok).tolist()]
    rows = zip(c.m.tolist(), c.mass.tolist(), c.tail.tolist(), c.bound.tolist(), c.slack.tolist(), flags)
    sys.stdout.write(
        f"mode={result.mode} trials={args.trials} seed={args.seed}\n"
        + "m=%d mass=%.6f tail=%.6f bound=%.6f slack=%.6f %s\n" * len(flags)
        % tuple(itertools.chain.from_iterable(rows))
        + f"simulate: {'pass' if result.passed else 'FAIL'}\n"
    )
    return EXIT_OK if result.passed else EXIT_FAIL


def cmd_distort(args: argparse.Namespace) -> int:
    pmf = channel_sim.load_pmf_csv(args.pmf)
    upsets = channel_sim.load_upsets(args.upsets)
    if args.mode == "exact":
        dist = channel_sim.exact_distortion(upsets, pmf)
        channel_sim.write_distribution_csv(dist, args.out)
    else:
        dist, report = channel_sim.analytic_single_error(pmf, upsets)
        tails = channel_sim.tail_of(dist)
        lines = [
            f"# provenance={dist.provenance}",
            f"# max_abs_divergence={report.max_abs!r}",
            f"# agreed={report.agreed}",
            "m,mass,tail,oracle_mass,abs_divergence",
        ]
        for m in sorted(report.rows):
            analytic, oracle = report.rows[m]
            lines.append(
                f"{m},{analytic!r},{tails.get(m, 0.0)!r},{oracle!r},{abs(analytic - oracle)!r}"
            )
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    _write_manifest(args, [args.pmf, args.upsets], [args.out])
    return EXIT_OK


def cmd_ingest(args: argparse.Namespace) -> int:
    with open(args.input, "r", encoding="utf-8", newline="") as fh:
        pmf = channel_sim.ingest_trace(
            fh,
            args.column,
            args.bits,
            args.offset,
            clamp=args.clamp,
            skip_header=args.skip_header,
        )
    channel_sim.write_pmf_csv(pmf, args.out)
    _write_manifest(args, [args.input], [args.out])
    return EXIT_OK


def _read_manifest(path: str) -> dict:
    """The manifest at `path`, checked to hold the fields that replay reads."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError on bytes that are not UTF-8
            raise ParameterError(f"manifest {path} is not JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise ParameterError(f"manifest {path} is not a JSON object")
    for key, kind in (("formats", dict), ("subcommand", str), ("arguments", dict), ("inputs", dict)):
        if not isinstance(manifest.get(key), kind):
            name = "string" if kind is str else "object"
            raise ParameterError(f"manifest {path} has no {key!r} {name}; it cannot be replayed")
    if manifest["subcommand"] == "replay":  # replay writes no manifest, and one naming it would recurse
        raise ParameterError(f"manifest {path} records a replay; it cannot be replayed")
    return manifest


def cmd_replay(args: argparse.Namespace) -> int:
    manifest = _read_manifest(args.manifest)
    recorded = manifest["formats"]
    for key in sorted(set(recorded) | set(FORMAT_VERSIONS)):
        if recorded.get(key) != FORMAT_VERSIONS.get(key):
            raise ParameterError(
                f"manifest {key}={recorded.get(key)} differs from this build's "
                f"{key}={FORMAT_VERSIONS.get(key)}; it cannot be replayed"
            )
    for path, digest in manifest["inputs"].items():
        if _digest(path) != digest:
            raise ParameterError(f"input {path} no longer matches its recorded digest")
    argv = [manifest["subcommand"]]
    for key, value in manifest["arguments"].items():
        option = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                argv.append(option)
        else:
            argv += [option, str(value)]
    replayed, unknown = build_parser().parse_known_args(argv)
    if unknown:
        raise ParameterError(
            f"manifest argument {unknown[0]} is not accepted by this build; it cannot be replayed"
        )
    return replayed.func(replayed)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="vdbcode",
        description="Value-deviation-bounded code tables: construction, solving, validation.",
    )
    version = f"vdbcode {__version__} (" + ", ".join(
        f"{k}={v}" for k, v in FORMAT_VERSIONS.items()
    ) + ")"
    parser.add_argument("--version", action="version", version=version)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sets", help="construct the per-distortion placement sets")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", choices=("brute", "fast", "both"), default="both")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sets)

    p = sub.add_parser("bounds", help="exact-vs-bounds dataset for the pair counts")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("encode", help="solve for a maximal code table")
    p.add_argument("--constraint", required=True)
    p.add_argument("--mode", choices=(codegen.MODE_IID, codegen.MODE_PERBIT), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("verify", help="check a code table against a constraint")
    p.add_argument("--constraint", required=True)
    p.add_argument("--table", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="Monte Carlo channel run against a constraint")
    p.add_argument("--table", required=True)
    p.add_argument("--constraint", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pmf", help="empirical value PMF CSV (default: uniform values)")
    p.add_argument(
        "--cap-weight", type=int, default=None, help="condition the channel on at most this many upsets"
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("distort", help="distortion law of a value PMF under an upset model")
    p.add_argument("--pmf", required=True)
    p.add_argument("--upsets", required=True)
    p.add_argument("--mode", choices=("exact", "single-error"), default="exact")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_distort)

    p = sub.add_parser("ingest", help="histogram a CSV trace column into a value PMF")
    p.add_argument("--input", required=True)
    p.add_argument("--column", type=int, required=True)
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--offset", type=int, default=0)
    p.add_argument("--clamp", action="store_true")
    p.add_argument("--skip-header", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("replay", help="re-run a recorded manifest")
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnicodeDecodeError as exc:  # an input file that is not UTF-8 text
        print(f"error: input is not UTF-8 text: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except codegen.InfeasibleConstraintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
