"""Child processes of the benchmark; each runs in a fresh interpreter.

    python3 child.py cli <src> <report-file> <probe|plain|trace> <istrata argv...>
        run ``istrata.cli.main(argv)``; stdout and the exit code are the
        CLI's own.  The report file receives the import time of
        ``istrata.cli`` and the ``Measure`` of import plus ``main``: in
        reference seconds with ``probe``, in wall seconds otherwise.  With
        ``trace`` the call is traced and the counters and spans go there
        too.
    python3 child.py import <src> <module>...
        import the modules under a speed probe and print their ``Measure``.
    python3 child.py lambda <src>
        compute Λ for the six strata cold under a speed probe and print
        its ``Measure``.
"""

from __future__ import annotations

import dataclasses
import json
import sys

from speed import Probe


def cold_lambda(probe=True):
    """``Measure`` of ``compute_lambda`` over the six strata.

    Only cold when nothing in the process has computed Λ yet."""
    from istrata import strata

    with Probe(probe) as p:
        for label in strata.STRATUM_LABELS:
            strata.compute_lambda(label)
    return p.measure


def _cli(report_path, how, argv):
    with Probe(how == "probe") as imp:
        import istrata.cli as cli

    tracer = None
    if how == "trace":
        from tracer import Tracer

        tracer = Tracer().install()
    code = 1
    with Probe(how == "probe") as run:
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.run("op", 0, lambda: cli.main(argv))
        except SystemExit as exc:
            code = exc.code
        finally:
            sys.stdout.flush()
    report = {"import_s": dataclasses.asdict(imp.measure),
              "measure": dataclasses.asdict(imp.measure + run.measure)}
    if tracer is not None:
        report.update(tracer.dump())
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return code


def main(argv):
    mode, src, rest = argv[0], argv[1], argv[2:]
    sys.path.insert(0, src)
    if mode == "cli":
        return _cli(rest[0], rest[1], rest[2:])
    if mode == "import":
        with Probe() as p:
            for name in rest:
                __import__(name)
        measure = p.measure
    elif mode == "lambda":
        measure = cold_lambda()
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(dataclasses.asdict(measure)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
