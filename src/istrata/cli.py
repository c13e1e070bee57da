"""Command-line interface.

Every subcommand prints a deterministic JSON report on stdout and a one-line
summary on stderr.  Exit codes: 0 success, 1 a verification failed, 2 bad
input, 3 a mathematical precondition is not met.  Each subcommand imports the
modules it runs, so a cold process compiles only those.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import STRATUM_LABELS
from . import io as serial
from .exact import VerificationError

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3


def _emit(report, summary):
    print(serial.dumps(report, indent=2))
    print(summary, file=sys.stderr)


def _certificate(name, expected, computed):
    return {
        "name": name,
        "expected": expected,
        "computed": computed,
        "pass": expected == computed,
    }


def cmd_verify_stratum(args):
    from . import strata

    label = args.label
    preds = strata.lambda_predicates(label)
    lam = strata.compute_lambda(label)
    certs = [
        _certificate("rank", 24, preds["rank"]),
        _certificate("even", True, preds["even"]),
        _certificate("unimodular", True, preds["unimodular"]),
        _certificate("negative_definite", True, preds["negative_definite"]),
    ]
    report = {
        "stratum": label,
        "certificates": certs,
        "root_label": lam.root_data.label,
        "root_count": lam.root_data.total_root_count,
        "root_span_index": lam.root_index,
    }
    ok = all(c["pass"] for c in certs)
    _emit(report, f"{label}: {'all checks pass' if ok else 'CHECKS FAILED'}")
    return EXIT_OK if ok else EXIT_FAILED


def cmd_classify(args):
    from . import torelli

    if args.input:
        ds = serial.dataset_from_json(serial.load_path(args.input))
    else:
        ds, _ = torelli.gen_fixture(args.label, args.seed)
    label, cert = torelli.classify_stratum(ds)
    report = {"classified_as": label, "certificate": cert}
    _emit(report, f"classified as {label}")
    return EXIT_OK


def cmd_roots(args):
    if args.input:
        from .roots import decompose_root_system, enumerate_roots

        lattice = serial.lattice_from_json(serial.load_path(args.input))
        roots = enumerate_roots(lattice)
        dec = decompose_root_system(lattice, roots)
    else:
        from . import strata

        dec = strata.compute_lambda(args.label).root_data
    report = {
        "label": dec.label,
        "root_count": dec.total_root_count,
        "components": [
            {"label": lbl, "rank": len(simples)} for lbl, simples in dec.components
        ],
    }
    _emit(report, f"root system {dec.label} with {dec.total_root_count} roots")
    return EXIT_OK


def cmd_monodromy(args):
    from .monodromy import (
        build_frame,
        operator_sum,
        pair_index_pattern,
        picard_lefschetz,
        primitivity_certificate,
        weight_data,
    )

    frame = build_frame(args.label)
    ops = [picard_lefschetz(frame, i) for i in range(1, frame.k + 1)]
    rank = weight_data(operator_sum(ops))
    primitive, facs = primitivity_certificate(frame)
    report = {
        "frame": frame.label,
        "k": frame.k,
        "pair_index_pattern": pair_index_pattern(frame),
        "weight_rank": rank,
        "primitive": primitive,
        "invariant_factors": facs,
    }
    _emit(report, f"frame {frame.label}: pattern {report['pair_index_pattern']}")
    return EXIT_OK if primitive else EXIT_FAILED


def cmd_reconstruct(args):
    from . import torelli

    if args.input:
        ds = serial.dataset_from_json(serial.load_path(args.input))
    else:
        ds, _ = torelli.gen_fixture("ell111", args.seed)
    rec = torelli.reconstruct_111(ds)
    report = {
        "distinguished_pair": list(rec.distinguished_pair),
        "section_curve": rec.section_curve,
        "configurations": [
            [serial.point_to_json(p) for p in cfg.points] for cfg in rec.configs
        ],
    }
    _emit(report, f"reconstructed pair {report['distinguished_pair']}")
    return EXIT_OK


def cmd_normal_form(args):
    from . import normalform

    if args.input:
        poly = serial.polynomial_from_json(serial.load_path(args.input))
    else:
        poly = normalform.random_deformation(args.seed)
    result = normalform.reduce_to_standard_form(poly)
    coords = normalform.slice_coordinates(result)
    report = {
        "branch": result.branch,
        "polynomial": serial.polynomial_to_json(result.polynomial),
        "slice": {k: serial.fraction_to_str(v) for k, v in coords.items()},
        "change": {
            "alpha": [serial.fraction_to_str(a) for a in result.change.alpha],
            "beta": [serial.fraction_to_str(b) for b in result.change.beta],
            "gamma": serial.fraction_to_str(result.change.gamma),
        },
    }
    _emit(report, f"reduced on the {result.branch} branch")
    return EXIT_OK


def cmd_gen_fixture(args):
    from . import torelli

    ds, _ = torelli.gen_fixture(args.label, args.seed)
    _emit(serial.dataset_to_json(ds), f"fixture for {args.label}, seed {args.seed}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="istrata", description="exact invariants of boundary strata"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-stratum", help="check the Λ lattice predicates")
    p.add_argument("label", choices=STRATUM_LABELS)
    p.set_defaults(func=cmd_verify_stratum)

    p = sub.add_parser("classify", help="name the stratum of a boundary dataset")
    p.add_argument("--input", help="dataset JSON file")
    p.add_argument("--label", choices=STRATUM_LABELS)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("roots", help="root system of Λ or of a lattice file")
    p.add_argument("--input", help="lattice JSON file")
    p.add_argument("--label", choices=STRATUM_LABELS)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("monodromy", help="frame pattern and primitivity")
    # a stratum, or one of the frame kinds rational/enriques/ell111/ell211
    p.add_argument("label", choices=(*STRATUM_LABELS, "rational"))
    p.set_defaults(func=cmd_monodromy)

    p = sub.add_parser("reconstruct", help="recover the (1,1,1) point data")
    p.add_argument("--input", help="dataset JSON file")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("normal-form", help="reduce a deformation polynomial")
    p.add_argument("--input", help="polynomial JSON file")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_normal_form)

    p = sub.add_parser("gen-fixture", help="emit a seeded boundary dataset")
    p.add_argument("label", choices=STRATUM_LABELS)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_fixture)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("classify", "roots") and not args.input and not args.label:
        print("error: need --input or --label", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args)
    # JSONDecodeError and InputError subclass ValueError, so this clause comes first
    except (json.JSONDecodeError, OSError, serial.InputError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"precondition not met: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
