import hashlib
import json
import os
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from istrata import io as serial
from istrata import normalform, torelli
from istrata.cli import main
from istrata.lattices import IntegralLattice


class TestSerialization:
    def test_fraction_round_trip(self):
        for f in [Fraction(3, 7), Fraction(-2), Fraction(0)]:
            assert serial.fraction_from_str(serial.fraction_to_str(f)) == f

    def test_float_rejected(self):
        with pytest.raises(ValueError):
            serial.fraction_from_str("0.5")

    @pytest.mark.parametrize(
        "bad",
        [0.1, 0.0, float("nan"), True, False, "1/2", None, Decimal("0.1"), 1j, [1]],
        ids=["float", "zero-float", "nan", "true", "false", "str", "none", "decimal",
             "complex", "list"],
    )
    def test_fraction_to_str_rejects_non_exact(self, bad):
        # a float would print as a binary fraction and True as "1"
        with pytest.raises(ValueError, match="is not an int or a Fraction"):
            serial.fraction_to_str(bad)

    @pytest.mark.parametrize(
        "text, value",
        [("0", 0), ("-0", 0), ("3/4", Fraction(3, 4)), ("0/01", 0), ("2/4", Fraction(1, 2)),
         ("-12", -12), (0, 0), (-7, -7), (10**30, 10**30)],
    )
    def test_fraction_from_str_accepts(self, text, value):
        got = serial.fraction_from_str(text)
        assert type(got) is Fraction and got == value

    @pytest.mark.parametrize(
        "bad",
        ["+1", " 1", "1 ", "1_0", "\u0661", "1/0", "1/00", "1/-2", "--1", "1.0", "1e3", "",
         "1\n", True, 1.5, None, [1]],
    )
    def test_fraction_from_str_rejects(self, bad):
        with pytest.raises(serial.InputError, match="not an exact rational"):
            serial.fraction_from_str(bad)

    def test_dumps_layouts(self):
        # compact by default (the in-process dataset text); indent=2 is the
        # layout of every CLI report
        obj = {"b": [1, {"c": "1/2"}], "a": True}
        assert serial.dumps(obj) == '{"a":true,"b":[1,{"c":"1/2"}]}'
        assert serial.dumps(obj, indent=2) == json.dumps(obj, sort_keys=True, indent=2)

    def test_lattice_round_trip(self):
        # the documented lattice schema: {"rank": n, "gram": rows}
        L = IntegralLattice([[0, 1], [1, 0]])
        obj = json.loads(serial.dumps({"rank": 2, "gram": [[0, 1], [1, 0]]}))
        assert serial.lattice_from_json(obj).gram == L.gram

    def test_polynomial_round_trip(self):
        p = normalform.random_deformation(12)
        obj = json.loads(serial.dumps(serial.polynomial_to_json(p)))
        assert serial.polynomial_from_json(obj).coeffs == p.coeffs

    def test_dataset_round_trip(self):
        ds, _ = torelli.gen_fixture("ell211", 1)
        obj = json.loads(serial.dumps(serial.dataset_to_json(ds)))
        assert serial.dataset_from_json(obj) == ds

    def test_dataset_version_checked(self):
        ds, _ = torelli.gen_fixture("rat11", 1)
        obj = serial.dataset_to_json(ds)
        obj["version"] = 99
        with pytest.raises(ValueError):
            serial.dataset_from_json(obj)

    def test_dumps_deterministic(self):
        ds, _ = torelli.gen_fixture("enriques", 2)
        a = serial.dumps(serial.dataset_to_json(ds))
        b = serial.dumps(serial.dataset_to_json(ds))
        assert a == b


def _flags_as_strings(obj):
    for s in obj["summands"]:
        s["zero_flags"] = ["no" if z is False else z for z in s["zero_flags"]]


def _k_as_string(obj):
    obj["k"] = "3"


def _simple_root_entry_as_string(obj):
    obj["summands"][0]["simple_roots"][0][0] = "1"


def _kernel_order_below_one(obj):
    obj["jw1_pair_indices"][0][1] = -1


def _pair_index_zero(obj):
    obj["pair_pattern"][0] = 0


def _zero_flags_negated(obj):
    # used to classify as the fixture's own label
    s = obj["summands"][0]
    s["zero_flags"] = [not z for z in s["zero_flags"]]


def _pattern_not_the_pair_orders(obj):
    # [2] used to classify a (2,1) fixture as enriques
    obj["pair_pattern"] = [2]


def _root_label_rat22(obj):
    # used to classify as rat22
    obj["root_label"] = "E7+E7+D10"


def _second_e8_as_a1(obj):
    # used to classify as rat11: eight simple roots under a rank-1 name
    obj["summands"][1]["label"] = "A1"


def _second_e8_as_a1_with_root_label(obj):
    _second_e8_as_a1(obj)
    obj["root_label"] = "E8+A1+E8"


def _simple_root_coordinate_plus_5(obj):
    # not detected: the dataset does not carry Λ's Gram to check a root against
    obj["summands"][0]["simple_roots"][0][0] += 5


class TestCli:
    def run(self, capsys, *argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        report = json.loads(captured.out) if captured.out.strip() else None
        return code, report, captured.err

    def test_verify_stratum(self, capsys):
        code, report, err = self.run(capsys, "verify-stratum", "rat22")
        assert code == 0
        assert report["root_label"] == "E7+E7+D10"
        assert all(c["pass"] for c in report["certificates"])
        assert "all checks pass" in err

    def test_classify_generated(self, capsys):
        code, report, _ = self.run(capsys, "classify", "--label", "enriques")
        assert code == 0
        assert report["classified_as"] == "enriques"

    def test_classify_from_file(self, capsys, tmp_path):
        code, report, _ = self.run(capsys, "gen-fixture", "ell211", "--seed", "3")
        assert code == 0
        path = tmp_path / "ds.json"
        path.write_text(json.dumps(report))
        code, report, _ = self.run(capsys, "classify", "--input", str(path))
        assert code == 0
        assert report["classified_as"] == "ell211"

    def test_roots(self, capsys):
        code, report, _ = self.run(capsys, "roots", "--label", "rat11")
        assert code == 0
        assert report["label"] == "E8+E8+E8"
        assert report["root_count"] == 720

    def test_roots_from_lattice_file(self, capsys, tmp_path):
        # A2 gram (negated): 6 roots
        path = tmp_path / "lat.json"
        path.write_text(json.dumps({"rank": 2, "gram": [[-2, 1], [1, -2]]}))
        code, report, _ = self.run(capsys, "roots", "--input", str(path))
        assert code == 0
        assert report["label"] == "A2"
        assert report["root_count"] == 6

    def test_monodromy(self, capsys):
        code, report, _ = self.run(capsys, "monodromy", "ell111")
        assert code == 0
        assert report["pair_index_pattern"] == [1, 2, 2]
        assert report["primitive"] is True
        assert report["weight_rank"] == 4

    def test_unknown_monodromy_label_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["monodromy", "foo"])
        assert exc.value.code == 2
        assert "invalid choice: 'foo'" in capsys.readouterr().err

    def test_reconstruct(self, capsys):
        code, report, _ = self.run(capsys, "reconstruct", "--seed", "1")
        assert code == 0
        assert report["distinguished_pair"] == [0, 1]
        assert len(report["configurations"]) == 2
        assert len(report["configurations"][0]) == 8

    def test_normal_form(self, capsys):
        code, report, _ = self.run(capsys, "normal-form", "--seed", "4")
        assert code == 0
        assert report["branch"] == "g2"
        assert sorted(report["slice"]) == [
            "a", "b1", "b2", "c1", "c2", "d1", "d2", "e", "f",
        ]

    def test_normal_form_from_file(self, capsys, tmp_path):
        poly = normalform.random_deformation(6)
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(serial.polynomial_to_json(poly)))
        code, report, _ = self.run(capsys, "normal-form", "--input", str(path))
        assert code == 0
        expected = normalform.reduce_to_standard_form(poly)
        assert report["branch"] == expected.branch

    def test_output_is_deterministic(self, capsys):
        _, a, _ = self.run(capsys, "gen-fixture", "rat21", "--seed", "5")
        _, b, _ = self.run(capsys, "gen-fixture", "rat21", "--seed", "5")
        assert a == b

    def test_bad_json_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, _, err = self.run(capsys, "classify", "--input", str(path))
        assert code == 2
        assert "input error" in err

    @pytest.mark.parametrize("entry", [-2.7, "-2", True])
    def test_non_integer_gram_entry_is_input_error(self, capsys, tmp_path, entry):
        path = tmp_path / "lat.json"
        path.write_text(json.dumps({"rank": 2, "gram": [[entry, 1], [1, -2]]}))
        code, report, err = self.run(capsys, "roots", "--input", str(path))
        assert code == 2
        assert report is None
        assert "input error" in err

    @pytest.mark.parametrize(
        "lattice",
        [{"rank": True, "gram": [[-2]]}, {"rank": 2.0, "gram": [[-2, 1], [1, -2]]}],
        ids=["bool", "float"],
    )
    def test_non_integer_rank_is_input_error(self, capsys, tmp_path, lattice):
        path = tmp_path / "lat.json"
        path.write_text(json.dumps(lattice))
        code, report, err = self.run(capsys, "roots", "--input", str(path))
        assert code == 2
        assert report is None
        assert "input error" in err

    @pytest.mark.parametrize("command", ["roots", "classify", "reconstruct", "normal-form"])
    def test_top_level_array_is_input_error(self, capsys, tmp_path, command):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([[-2, 1], [1, -2]]))
        code, report, err = self.run(capsys, command, "--input", str(path))
        assert code == 2
        assert report is None
        assert "input error" in err

    @pytest.mark.parametrize("gram", [[[-2, 1], [0, -2]], [[-2, 1], [1]]])
    def test_non_symmetric_or_ragged_gram_is_input_error(self, capsys, tmp_path, gram):
        path = tmp_path / "lat.json"
        path.write_text(json.dumps({"rank": 2, "gram": gram}))
        code, report, err = self.run(capsys, "roots", "--input", str(path))
        assert code == 2
        assert report is None
        assert "input error" in err

    def test_float_string_in_dataset_is_input_error(self, capsys, tmp_path):
        ds, _ = torelli.gen_fixture("rat11", 7)
        obj = serial.dataset_to_json(ds)
        pts = next(p for s in obj["summands"] for p in s["psi_points"] if p)
        pts[0][0] = "0.5"
        path = tmp_path / "ds.json"
        path.write_text(json.dumps(obj))
        code, report, err = self.run(capsys, "classify", "--input", str(path))
        assert code == 2
        assert report is None
        assert "input error" in err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("0,0,3,0", "0.5"), ("0,3,0", "1"), ("1,0,0,0", "1"),
            # each of these keys would name y² and overwrite its coefficient -1
            ("00,2,0,0", "5"), ("0,02,0,0", "5"), ("0,\u0662,0,0", "5"),
            ("3,0,0,0", "\u0665"),  # a non-ASCII digit as a value
        ],
    )
    def test_malformed_polynomial_is_input_error(self, capsys, tmp_path, key, value):
        obj = serial.polynomial_to_json(normalform.random_deformation(9))
        obj[key] = value
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(obj))
        code, report, err = self.run(capsys, "normal-form", "--input", str(path))
        assert code == 2
        assert report is None
        assert "input error" in err

    @pytest.mark.parametrize(
        "command, text",
        [
            ("roots", '{"rank": 1, "gram": [[2]], "gram": [[-2]]}'),
            ("normal-form", '{"3,0,0,0": "1", "0,2,0,0": "-1", "0,2,0,0": "5"}'),
        ],
        ids=["lattice", "polynomial"],
    )
    def test_repeated_key_is_input_error(self, capsys, tmp_path, command, text):
        # json.load would keep the last value and drop the first unseen
        path = tmp_path / "in.json"
        path.write_text(text)
        code, report, err = self.run(capsys, command, "--input", str(path))
        assert code == 2
        assert report is None
        assert "repeats a key" in err

    @pytest.mark.parametrize(
        "lattice",
        [{"rank": 1, "gram": [[-2]], "x": 1}, {"gram": [[-2]]}, {"rank": 1}],
        ids=["extra", "no-rank", "no-gram"],
    )
    def test_lattice_keys_are_exact(self, capsys, tmp_path, lattice):
        path = tmp_path / "lat.json"
        path.write_text(json.dumps(lattice))
        code, report, err = self.run(capsys, "roots", "--input", str(path))
        assert code == 2
        assert report is None
        assert "exactly the keys ['gram', 'rank']" in err

    @pytest.mark.parametrize(
        "corrupt",
        [
            _flags_as_strings,
            _k_as_string,
            _simple_root_entry_as_string,
            _kernel_order_below_one,
            _pair_index_zero,
            _zero_flags_negated,
            _pattern_not_the_pair_orders,
        ],
        ids=lambda f: f.__name__.strip("_"),
    )
    def test_dataset_schema_is_strict(self, capsys, tmp_path, corrupt):
        code, obj, _ = self.run(capsys, "gen-fixture", "rat21", "--seed", "3")
        assert code == 0
        corrupt(obj)
        path = tmp_path / "ds.json"
        path.write_text(json.dumps(obj))
        for command in ("classify", "reconstruct"):
            code, report, err = self.run(capsys, command, "--input", str(path))
            assert code == 2
            assert report is None
            assert "input error" in err

    TAMPERS = [
        _root_label_rat22,
        _second_e8_as_a1,
        _second_e8_as_a1_with_root_label,
        _simple_root_coordinate_plus_5,
    ]

    @pytest.mark.parametrize("tamper", TAMPERS, ids=lambda f: f.__name__.strip("_"))
    def test_tampered_rat11_fixture(self, capsys, tmp_path, tamper):
        _, obj, _ = self.run(capsys, "gen-fixture", "rat11", "--seed", "3")
        tamper(obj)
        path = tmp_path / "ds.json"
        path.write_text(json.dumps(obj))
        code, report, err = self.run(capsys, "classify", "--input", str(path))
        if tamper is _simple_root_coordinate_plus_5:
            assert (code, report["classified_as"]) == (0, "rat11")
        else:
            assert (code, report) == (2, None)
            assert err.startswith("input error: dataset:")

    def test_overlong_number_in_lattice_is_input_error(self, capsys, tmp_path):
        # json.load refuses integers past the int-string digit limit (4300)
        path = tmp_path / "lat.json"
        path.write_text('{"rank": 1, "gram": [[-' + "7" * 5000 + ']]}')
        code, report, err = self.run(capsys, "roots", "--input", str(path))
        assert (code, report) == (2, None)
        assert err.startswith("input error: number too long")

    def test_overlong_exponent_key_is_input_error(self, capsys, tmp_path):
        obj = serial.polynomial_to_json(normalform.random_deformation(9))
        obj["7" * 5000 + ",0,0,0"] = "1"
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(obj))
        code, report, err = self.run(capsys, "normal-form", "--input", str(path))
        assert (code, report) == (2, None)
        assert err.startswith("input error: number too long")

    def test_overlong_reconstructed_point_is_input_error(self, capsys, tmp_path):
        # every number in the file is short, but the reconstructed points sum
        # ψ values, so their denominators multiply past the digit limit
        ds, _ = torelli.gen_fixture("ell111", 4)
        obj = serial.dataset_to_json(ds)
        points = obj["summands"][0]["psi_points"][0]
        for i, q in enumerate((10**4000 + 1, 10**4000 + 3)):
            points[i] = [f"1/{q}"] * 2
        path = tmp_path / "ds.json"
        path.write_text(json.dumps(obj))
        code, report, err = self.run(capsys, "reconstruct", "--input", str(path))
        assert (code, report) == (2, None)
        assert err.startswith("input error: number too long")

    def test_k_disagreeing_with_pairs_is_rejected_quickly(self, capsys, tmp_path):
        # the pair count is checked before the k(k−1)/2 expected pairs are built
        code, obj, _ = self.run(capsys, "gen-fixture", "rat11", "--seed", "3")
        assert code == 0
        obj["k"] = 3000
        path = tmp_path / "ds.json"
        path.write_text(json.dumps(obj))
        start = time.perf_counter()
        code, report, err = self.run(capsys, "classify", "--input", str(path))
        assert time.perf_counter() - start < 0.5
        assert (code, report) == (2, None)
        assert "jw1_pair_indices must list" in err

    def test_long_distinct_denominators_load_quickly(self, capsys, tmp_path):
        # each ψ coordinate is reduced on its own: no common denominator of
        # the 48 distinct 4,000-digit denominators on one summand and curve
        # is formed.  The three summands are merged into one labelled D24,
        # which classifies as outside the classified strata
        code, obj, _ = self.run(capsys, "gen-fixture", "rat11", "--seed", "3")
        assert code == 0
        summands = obj["summands"]
        curves = [sum((s["psi_points"][i] for s in summands), []) for i in range(obj["k"])]
        for j, point in enumerate(curves[0]):
            point[:] = [f"{3 * 10**3998 + 2 * j + r}/{10**3999 + 7 + 2 * j + r}" for r in (0, 1)]
        obj["summands"] = [{
            "label": "D24",
            "simple_roots": sum((s["simple_roots"] for s in summands), []),
            "zero_flags": [False] + [all(s["zero_flags"][i] for s in summands)
                                     for i in range(1, obj["k"])],
            "psi_points": curves,
        }]
        obj["root_label"] = "D24"
        path = tmp_path / "ds.json"
        path.write_text(json.dumps(obj))
        start = time.perf_counter()
        code, report, _ = self.run(capsys, "classify", "--input", str(path))
        assert time.perf_counter() - start < 0.5
        assert (code, report["classified_as"]) == (0, "outside classified strata")

    @pytest.mark.parametrize(
        "spell",
        [
            lambda n, d: f"{2 * n}/{2 * d}",  # "2/4" for "1/2"
            lambda n, d: f"{n - d}/{d}",  # "-1/2"
            lambda n, d: f"{n + d}/{d}",  # "3/2"
            lambda n, d: "0/7" if n == 0 else None,
            lambda n, d: 0 if n == 0 else None,  # a JSON integer for "0"
        ],
        ids=["doubled", "minus-one", "plus-one", "zero-over-seven", "json-zero"],
    )
    def test_equivalent_psi_spellings_load_alike(self, capsys, spell):
        # the loader reduces each ψ coordinate mod 1 and to lowest terms, so
        # every spelling of a value loads to the dataset gen_fixture builds
        assert main(["gen-fixture", "rat11", "--seed", "3"]) == 0
        text = capsys.readouterr().out
        ds, _ = torelli.gen_fixture("rat11", 3)
        spelled = 0
        for zero in (True, False):
            obj = json.loads(text)
            points = (p for s in obj["summands"] for c in s["psi_points"] for p in c)
            point = next(p for p in points if (p[0] == "0") == zero)
            n, _, d = point[0].partition("/")
            new = spell(int(n), int(d or "1"))
            if new is None:
                continue
            point[0] = new
            spelled += 1
            back = serial.dataset_from_json(obj)
            assert back == ds
            assert serial.dumps(serial.dataset_to_json(back), indent=2) + "\n" == text
        assert spelled > 0

    def test_changed_psi_value_gives_another_dataset(self, capsys):
        code, obj, _ = self.run(capsys, "gen-fixture", "rat11", "--seed", "3")
        assert code == 0
        point = next(
            p for s in obj["summands"] for c in s["psi_points"] for p in c if p[0] != "0"
        )
        n, d = point[0].split("/")
        point[0] = f"{n}/{int(d) + 1}"
        ds, _ = torelli.gen_fixture("rat11", 3)
        assert serial.dataset_from_json(obj) != ds

    def test_dataset_version_is_input_error(self, capsys, tmp_path):
        ds, _ = torelli.gen_fixture("rat11", 1)
        obj = serial.dataset_to_json(ds)
        obj["version"] = 99
        path = tmp_path / "ds.json"
        path.write_text(json.dumps(obj))
        code, report, err = self.run(capsys, "classify", "--input", str(path))
        assert code == 2
        assert report is None
        assert "input error" in err

    def test_missing_file_is_input_error(self, capsys):
        code, _, _ = self.run(capsys, "classify", "--input", "/nonexistent.json")
        assert code == 2

    def test_missing_selector_is_input_error(self, capsys):
        code, _, _ = self.run(capsys, "classify")
        assert code == 2

    def test_split_summand_is_input_error(self, capsys, tmp_path):
        # the first E8 summand split into summands of 1 and 7 simple roots,
        # each still labelled E8: the labels no longer name their ranks, nor
        # join to the stored root_label, so it never reaches the period map
        code, obj, _ = self.run(capsys, "gen-fixture", "ell111", "--seed", "4")
        assert code == 0
        first = obj["summands"][0]
        rest = dict(
            first,
            simple_roots=first["simple_roots"][1:],
            zero_flags=[True] * 3,
            psi_points=[[["0", "0"]] * 7] * 3,
        )
        first["simple_roots"] = first["simple_roots"][:1]
        first["psi_points"] = [pts[:1] for pts in first["psi_points"]]
        obj["summands"].insert(1, rest)
        path = tmp_path / "ds.json"
        path.write_text(json.dumps(obj))
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "istrata.cli", "reconstruct", "--input", str(path)],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("input error: dataset:")

    def test_precondition_failure_is_exit_3(self, capsys, tmp_path):
        # cuspidal fibre: reduction refuses
        poly = normalform.random_deformation(6, cuspidal=True)
        path = tmp_path / "cusp.json"
        path.write_text(json.dumps(serial.polynomial_to_json(poly)))
        code, _, err = self.run(capsys, "normal-form", "--input", str(path))
        assert code == 3
        assert "precondition" in err


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["verify-stratum", "rat22"],
            {"root_label": "E7+E7+D10", "root_count": 432, "root_span_index": 4},
        ),
        (["roots", "--label", "rat11"], {"root_count": 720}),
        (["normal-form", "--seed", "9"], {"branch": "g2"}),
        # a str is the expected precondition failure (exit 3)
        (["roots", "--input", "indefinite.json"], "lattice is not negative definite"),
        (["reconstruct", "--seed", "4"], {"distinguished_pair": [0, 1], "section_curve": 2}),
        (["roots", "--input", "semidefinite.json"], "lattice is not negative definite"),
        # gen-fixture runs the JW₁ marking certificates
        (
            ["gen-fixture", "ell111", "--seed", "7"],
            {"pair_pattern": [1, 2, 2], "jw1_pair_indices": [[[0, 1], 1], [[0, 2], 2], [[1, 2], 2]]},
        ),
        (
            ["gen-fixture", "enriques", "--seed", "7"],
            {"pair_pattern": [2], "jw1_pair_indices": [[[0, 1], 2]]},
        ),
        # build_frame runs the W₁ certificate
        (["monodromy", "enriques"], {"pair_index_pattern": [2], "primitive": True}),
    ],
)
def test_cli_under_python_O(argv, expected, tmp_path):
    """`python -O` strips asserts; the checked paths must still succeed with the
    same report, and the definiteness check must still reject an indefinite or
    a semidefinite lattice."""
    (tmp_path / "indefinite.json").write_text('{"rank": 2, "gram": [[-2, 3], [3, -2]]}')
    (tmp_path / "semidefinite.json").write_text('{"rank": 2, "gram": [[-2, 2], [2, -2]]}')
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "istrata.cli", *argv],
        env=env, capture_output=True, text=True, timeout=600, cwd=tmp_path,
    )
    if isinstance(expected, str):
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == f"precondition not met: {expected}\n"
        return
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    for key, value in expected.items():
        assert report[key] == value


def test_bad_polynomial_under_python_O(tmp_path):
    """The polynomial loader's checks are not asserts: `python -O` still
    rejects a non-canonical exponent key with exit 2."""
    obj = serial.polynomial_to_json(normalform.random_deformation(9))
    obj["00,2,0,0"] = "5"
    (tmp_path / "poly.json").write_text(json.dumps(obj))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "istrata.cli", "normal-form", "--input", "poly.json"],
        env=env, capture_output=True, text=True, timeout=600, cwd=tmp_path,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("input error: bad exponent key")


@pytest.mark.parametrize("field", ["psi_point", "k"])
def test_overlong_number_in_dataset_under_python_O(field, tmp_path):
    """A number past the int-string digit limit (4300) is bad input (exit 2),
    not a failed precondition, and the check survives `python -O`."""
    ds, _ = torelli.gen_fixture("rat11", 3)
    obj = serial.dataset_to_json(ds)
    if field == "psi_point":
        obj["summands"][0]["psi_points"][0][0][0] = "1/" + "7" * 5000
    text = json.dumps(obj)
    if field == "k":
        # written into the text: json.dumps cannot print such an int either
        text = text.replace('"k": 2,', '"k": ' + "9" * 5000 + ",")
    (tmp_path / "ds.json").write_text(text)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "istrata.cli", "classify", "--input", "ds.json"],
        env=env, capture_output=True, text=True, timeout=600, cwd=tmp_path,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("input error: number too long")


# sha256 of stdout and the exit code of each report; a change to the exact
# core or to Λ/ψ must leave every one of them byte-identical
PINNED_REPORTS = [
    ("verify-stratum rat11", 0, "1717fe7df790419d33cd47552bb48c15ab5e8353ca7287c5304a04e092844ac4"),
    ("roots --label rat11", 0, "eaac9fbc1bcdf6821f527244f25280b6fa3fcb351cb0fc0bdf87d2b575ec4120"),
    ("gen-fixture rat11 --seed 7", 0, "ceeb6164da8dc50e0cbb396762194bfc2c7e4f5e03f9f41a839b711a47152bda"),
    ("classify --label rat11 --seed 3", 0, "542de53b089746ff822b46ba6c9124d2a01723ef9211b82a161f29711c7dc527"),
    ("verify-stratum rat21", 0, "5a629dbad431bc84b4ffdcdb4d344c77f97394f8394da279dd31c99ebffd5e1a"),
    ("roots --label rat21", 0, "eaac9fbc1bcdf6821f527244f25280b6fa3fcb351cb0fc0bdf87d2b575ec4120"),
    ("gen-fixture rat21 --seed 7", 0, "63b7b5c46658ffe81cf4a2db85776a8f5f60ee0da52934084c77aea6f6f2126e"),
    ("classify --label rat21 --seed 3", 0, "40db23145a23d1d9452425303a089afffcb0b57b657eb0dab5959c0865e808a7"),
    ("verify-stratum rat22", 0, "9a3841cba9d9852c9a99899893d0fcb1f4264d5b3569bdc84159ed16f17b3e66"),
    ("roots --label rat22", 0, "c94acc097a5dc89b9f17bae723663ee9efad79d782c14d6c94ba5154377df342"),
    ("gen-fixture rat22 --seed 7", 0, "9cd6b118e12a67db13cff8c5438ab3dbd568c3d3119a73d17a85d1079d1fbdc7"),
    ("classify --label rat22 --seed 3", 0, "c0ac3281fe94b2a6f81cd286f3844f5dbc74661273a43e5f407ad63107302d91"),
    ("verify-stratum enriques", 0, "5e15f54eda08cd7263e4fcff697fb5a46c01a3b72327ccbb89bbb02e57470077"),
    ("roots --label enriques", 0, "eaac9fbc1bcdf6821f527244f25280b6fa3fcb351cb0fc0bdf87d2b575ec4120"),
    ("gen-fixture enriques --seed 7", 0, "56b391a124d7b7d9469ac044cb694f796f8bdfb3d5cbbdbeed1d4f92851f4b5d"),
    ("classify --label enriques --seed 3", 0, "64b2a3f9790adb61f1d0da36b0bbe164c1cdf7e0109cd65b616a5ba703909ea7"),
    ("verify-stratum ell211", 0, "5aebf58210cbe6dde08497a823ba2d7de90da8be5b1d41b7f9ac92c0451c4314"),
    ("roots --label ell211", 0, "eaac9fbc1bcdf6821f527244f25280b6fa3fcb351cb0fc0bdf87d2b575ec4120"),
    ("gen-fixture ell211 --seed 7", 0, "61e0ec658714ce2b73b658f9d5f89711a340c13fed3bb6c2591ef60f288ed256"),
    ("classify --label ell211 --seed 3", 0, "ade78219b95b1d8c5b9289f1a6c15e67ceac9bedaf8decf73cee1e3553fac73c"),
    ("verify-stratum ell111", 0, "0d2739d6f898f994c49482cdd835f635f0cd6a0b1cc494996933f3ad8c54ae9e"),
    ("roots --label ell111", 0, "eaac9fbc1bcdf6821f527244f25280b6fa3fcb351cb0fc0bdf87d2b575ec4120"),
    ("gen-fixture ell111 --seed 7", 0, "15a40ab51225d079e16d3a6acb3dddd5303df87a1a460d8f5aaf5b9474586468"),
    ("classify --label ell111 --seed 3", 0, "1a2f7f51f076bbda61047a71c93b33ae0356b19b36c5061da2b00b42aeb458ed"),
    ("reconstruct --seed 4", 0, "b493166b28dd8c57f133962d78516432c2732ac3e1888a4c21a61a81b5cb0580"),
    ("monodromy rational", 0, "384c7dc91ab9cd9e4b02f11c28dfec1a3404c9b2a32d57df80e546bd4d79b4a2"),
    ("monodromy enriques", 0, "b2c03cb49bb991485e5736bb2253f0b17b7f77d2b169d0fdf71b162aec1ecf9c"),
    ("monodromy ell111", 0, "b0b67c3a29ea8b194bd324b2c5f010c953c158e1b712d33d933f8d407c9a2be6"),
    ("monodromy ell211", 0, "09c34f96aabe52546cda6f798794af99bafd0cdae9da732b415094481768c802"),
    ("normal-form --seed 9", 0, "d90231796c196c54f0b3856c5bf05f12f5c1a45a35da68db37911485b8b03c3d"),
]


@pytest.mark.parametrize(
    "argv, code, digest", PINNED_REPORTS, ids=[a for a, _, _ in PINNED_REPORTS]
)
def test_pinned_report(capsys, argv, code, digest):
    assert main(argv.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
