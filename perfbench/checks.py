"""Expected values for every benchmark op, and the field comparison.

Each workload turns an op's result into a flat dict of observed fields and
compares it with the expected dict built here.  Fields, not bytes, are
compared, so a report that gains a field still passes.  The expected
values are the ones ``tests/test_acceptance.py`` pins: criterion 2 (root
label, root count, [Λ : Λ_R]), criterion 6 (pair-index patterns),
criterion 7 (single-factor summands), criterion 9 (classifier) and
criterion 11 (the seven normalized monomials).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class StratumFacts:
    root_label: str
    root_count: int
    root_index: int
    k: int
    pair_pattern: tuple  # sorted
    single_factor: int | None  # ψ summands confined to one JD factor


STRATA = {
    "rat11": StratumFacts("E8+E8+E8", 720, 1, 2, (1,), 2),
    "rat21": StratumFacts("E8+E8+E8", 720, 1, 2, (1,), 1),
    "rat22": StratumFacts("E7+E7+D10", 432, 4, 2, (1,), None),
    "enriques": StratumFacts("E8+E8+E8", 720, 1, 2, (2,), None),
    "ell211": StratumFacts("E8+E8+E8", 720, 1, 3, (1, 1, 2), None),
    "ell111": StratumFacts("E8+E8+E8", 720, 1, 3, (1, 2, 2), None),
}
LABELS = tuple(STRATA)

_RANKS = {"E7": 7, "E8": 8, "D10": 10}

# the monomials (x, y, z, t exponents) a normal form must have killed
KILLED_COMMON = (
    (1, 1, 0, 1), (0, 1, 2, 1), (0, 1, 1, 2), (0, 1, 0, 3),
    (2, 0, 1, 1), (2, 0, 0, 2),
)
KILLED_BY_GAMMA = {"g2": (1, 0, 3, 1), "g3": (0, 0, 5, 1)}
SLICE_SIZE = 9


def components(root_label):
    return [(c, _RANKS[c]) for c in root_label.split("+")]


def single_factor_count(zero_flag_rows):
    return sum(1 for flags in zero_flag_rows if list(flags).count(False) == 1)


def expected_dataset(label):
    f = STRATA[label]
    out = {
        "version": 1,
        "k": f.k,
        "root_label": f.root_label,
        "pair_pattern": list(f.pair_pattern),
        "summand_labels": [c for c, _ in components(f.root_label)],
        "shape_ok": True,
    }
    if f.single_factor is not None:
        out["single_factor"] = f.single_factor
    return out


def observed_dataset(obj):
    """Observed fields of a dataset in its JSON form."""
    k = obj.get("k")
    summands = obj.get("summands", [])
    return {
        "version": obj.get("version"),
        "k": k,
        "root_label": obj.get("root_label"),
        "pair_pattern": sorted(obj.get("pair_pattern", [])),
        "summand_labels": [s.get("label") for s in summands],
        "shape_ok": all(
            len(s["zero_flags"]) == k and len(s["psi_points"]) == k for s in summands
        ),
        "single_factor": single_factor_count(s["zero_flags"] for s in summands),
    }


def expected_cli(sub, label):
    """Expected fields of one ``istrata`` report; ``label`` is the stratum."""
    f = STRATA[label]
    out = {"exit_code": 0}
    if sub == "verify-stratum":
        out.update(
            stratum=label,
            certificates_pass=True,
            root_label=f.root_label,
            root_count=f.root_count,
            root_span_index=f.root_index,
        )
    elif sub == "roots":
        out.update(
            root_label=f.root_label,
            root_count=f.root_count,
            components=components(f.root_label),
        )
    elif sub == "classify":
        out.update(
            classified_as=label,
            root_label=f.root_label,
            k=f.k,
            pair_pattern=list(f.pair_pattern),
        )
    elif sub == "gen-fixture":
        out.update(expected_dataset(label))
    elif sub == "reconstruct":
        out.update(distinguished_pair=[0, 1], section_curve=2, equivalent=True)
    else:
        raise ValueError(f"unknown subcommand {sub!r}")
    return out


_CERTIFICATES = {"rank", "even", "unimodular", "negative_definite"}


def observed_cli(sub, report):
    """Observed fields of a parsed ``istrata`` JSON report (``equivalent``
    for ``reconstruct`` is filled in by the caller)."""
    if sub == "verify-stratum":
        certs = report.get("certificates", [])
        return {
            "stratum": report.get("stratum"),
            "certificates_pass": bool(certs)
            and all(c.get("pass") is True for c in certs)
            and _CERTIFICATES <= {c.get("name") for c in certs},
            "root_label": report.get("root_label"),
            "root_count": report.get("root_count"),
            "root_span_index": report.get("root_span_index"),
        }
    if sub == "roots":
        return {
            "root_label": report.get("label"),
            "root_count": report.get("root_count"),
            "components": [
                (c.get("label"), c.get("rank")) for c in report.get("components", [])
            ],
        }
    if sub == "classify":
        cert = report.get("certificate", {})
        return {
            "classified_as": report.get("classified_as"),
            "root_label": cert.get("root_label"),
            "k": cert.get("k"),
            "pair_pattern": sorted(cert.get("pair_pattern", [])),
        }
    if sub == "gen-fixture":
        return observed_dataset(report)
    if sub == "reconstruct":
        return {
            "distinguished_pair": report.get("distinguished_pair"),
            "section_curve": report.get("section_curve"),
        }
    raise ValueError(f"unknown subcommand {sub!r}")


_MISSING = object()


def compare(expected, observed):
    """Mismatch messages; empty when every expected field is observed."""
    return [
        f"{key}: expected {want!r}, got {observed.get(key, '<missing>')!r}"
        for key, want in expected.items()
        if observed.get(key, _MISSING) != want
    ]


def self_test(expected, observed):
    """True when ``compare`` flags a planted wrong expected value.

    ``expected``/``observed`` are a passing pair from a real op; every
    field in turn is replaced by a value no result can hold, and each
    substitution must be reported as exactly one mismatch.
    """
    if compare(expected, observed):
        return False
    for key in expected:
        planted = dict(expected, **{key: ("planted wrong value", expected[key])})
        if len(compare(planted, observed)) != 1:
            return False
    return True
