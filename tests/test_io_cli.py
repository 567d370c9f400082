import contextlib
import csv
import gc
import io
import itertools
import json
import math
import os
import re
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import semdisc
from semdisc import (
    AssociationTable,
    FeatureRecord,
    capacity_statistics,
    exhaustive_pair_semantics,
    lab_to_srgb_hex,
    load_association_csv,
    load_library_csv,
    load_uw71,
    with_library_coordinates,
    write_association_csv,
)
from semdisc import capacity, cli
from semdisc.cli import main
from semdisc.io import palette_entry
from semdisc.montecarlo import MonteCarloConfig, _pair_result, run_monte_carlo
from semdisc.errors import FormatError, ValidationError

from conftest import random_table, run_fresh

HEX_RE = re.compile(r"^#[0-9a-f]{6}$")


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which JSON does not have."""

    def reject(constant):
        raise AssertionError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


@pytest.fixture
def assoc_csv(tmp_path, rng):
    t = random_table(rng, 5, 3)
    path = tmp_path / "assoc.csv"
    write_association_csv(t, path)
    return path, t


class TestAssociationCsv:
    def test_round_trip(self, tmp_path, rng):
        t = random_table(rng, 7, 4)
        path = tmp_path / "t.csv"
        write_association_csv(t, path)
        back = load_association_csv(path)
        np.testing.assert_allclose(back.values, t.values, atol=1e-12)
        assert back.library.ids == t.library.ids
        assert back.concepts.concepts == t.concepts.concepts

    def test_small_fixture(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("feature_id,a,b\nf1,0.1,0.9\nf2,0.4,0.2\nf3,0.5,0.5\n")
        t = load_association_csv(path)
        assert t.n_features == 3
        assert t.n_concepts == 2
        # a spreadsheet export with a UTF-8 byte-order mark reads the same
        path.write_text("\ufeff" + path.read_text(), encoding="utf-8")
        t = load_association_csv(path)
        assert t.n_features == 3
        assert t.concepts.concepts == ("a", "b")

    def test_missing_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("color,a,b\nf1,0.1,0.9\n")
        with pytest.raises(FormatError, match="feature_id"):
            load_association_csv(path)

    def test_out_of_range_names_cell(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("feature_id,a,b\nf1,0.1,0.9\nf2,1.3,0.2\n")
        with pytest.raises(ValidationError, match=r"3.*'a'.*1\.3"):
            load_association_csv(path)

    def test_duplicate_feature(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("feature_id,a,b\nf1,0.1,0.9\nf1,0.4,0.2\n")
        with pytest.raises(ValidationError, match="duplicate"):
            load_association_csv(path)
        path.write_text("feature_id,a,b\nf1,0.1,0.9\nf2,0.4,0.2\nf1,0.3,0.3\n")
        with pytest.raises(ValidationError, match=r"4: duplicate feature id 'f1'"):
            load_association_csv(path)

    def test_uw71_shaped_file(self, tmp_path, rng):
        t = random_table(rng, 71, 20)
        path = tmp_path / "big.csv"
        write_association_csv(t, path)
        back = load_association_csv(path)
        assert back.n_features == 71
        assert back.n_concepts == 20


def load_one_feature_row(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("feature_id,a,b\nf1,0.1,0.9\n")
    return load_association_csv(path)


@pytest.mark.parametrize(
    "call, error, match",
    [
        (load_one_feature_row, FormatError, "need at least 2 feature rows"),
        (lambda _: palette_entry(FeatureRecord("f1")), ValidationError,
         "has no CIELAB coordinates"),
    ],
    ids=["one-feature-row", "palette-without-lab"],
)
def test_validation_branches(tmp_path, call, error, match):
    with pytest.raises(error, match=match):
        call(tmp_path)


class TestUw71:
    def test_count(self):
        assert len(load_uw71()) == 71

    def test_black_and_white(self):
        lib = load_uw71()
        assert lib.features[24].lab == (0.0, 0.0, 0.0)  # color 25
        assert lib.features[28].lab == (100.0, 0.0, 0.0)  # color 29

    def test_sorted_positions_are_a_permutation(self):
        lib = load_uw71()
        positions = sorted(f.sorted_position for f in lib.features)
        assert positions == list(range(1, 72))

    def test_library_csv_matches_bundle(self):
        path = Path(semdisc.__file__).parent / "data" / "uw71.csv"
        assert load_library_csv(path) == load_uw71()

    def test_library_csv_padding(self, tmp_path):
        # a byte-order mark, a blank line and spaces around header names,
        # ids and numbers read as the plain bundle does
        text = (Path(semdisc.__file__).parent / "data" / "uw71.csv").read_text()
        header, first, *rest = text.splitlines()
        padded = [",".join(f" {c} " for c in line.split(",")) for line in (header, first)]
        path = tmp_path / "padded.csv"
        path.write_text("\ufeff" + "\n".join([*padded, "", *rest]) + "\n", encoding="utf-8")
        assert load_library_csv(path) == load_uw71()

    def test_attach_coordinates(self, rng):
        lib = load_uw71()
        t = AssociationTable.from_arrays(
            ["25", "29", "1"], ["a", "b"], rng.uniform(0.1, 0.9, (3, 2))
        )
        t2 = with_library_coordinates(t, lib)
        assert t2.library.features[0].lab == (0.0, 0.0, 0.0)

    def test_attach_unknown_id(self, rng):
        lib = load_uw71()
        t = AssociationTable.from_arrays(
            ["nope", "29"], ["a", "b"], rng.uniform(0.1, 0.9, (2, 2))
        )
        with pytest.raises(ValidationError):
            with_library_coordinates(t, lib)


class TestLabToHex:
    def test_black(self):
        assert lab_to_srgb_hex((0, 0, 0)) == ("#000000", True)

    def test_white(self):
        assert lab_to_srgb_hex((100, 0, 0)) == ("#ffffff", True)

    def test_out_of_range_l(self):
        with pytest.raises(ValidationError):
            lab_to_srgb_hex((120, 0, 0))

    @pytest.mark.parametrize(
        "lab", [(50, 1e300, 0), (0, 1e300, -1e300), (100, -1.7e308, 1.7e308),
                (50, 1e103, 1e103)]
    )
    def test_extreme_finite_clamped(self, lab):
        # cubing f(X) or f(Z) overflowed here, or the matrix product made
        # NaN from two infinities
        hex_str, in_gamut = lab_to_srgb_hex(lab)
        assert HEX_RE.match(hex_str)
        assert in_gamut is False

    def test_non_finite_rejected(self):
        for lab in [(50, math.nan, 0), (50, 0, math.inf)]:
            with pytest.raises(ValidationError, match="finite"):
                lab_to_srgb_hex(lab)

    def test_saturated_blue_flagged(self):
        hex_str, in_gamut = lab_to_srgb_hex((50, 80, -80))
        assert HEX_RE.match(hex_str)
        assert in_gamut is False

    def test_against_skimage_oracle(self):
        skimage_color = pytest.importorskip("skimage.color")
        lib = load_uw71()
        for f in lib.features:
            hex_str, in_gamut = lab_to_srgb_hex(f.lab)
            ref = skimage_color.lab2rgb(np.array(f.lab, dtype=float))
            ref8 = np.round(255 * np.clip(ref, 0, 1)).astype(int)
            ours = [int(hex_str[i : i + 2], 16) for i in (1, 3, 5)]
            assert np.abs(np.array(ours) - ref8).max() <= 1


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCli:
    def test_validate_ok(self, capsys, assoc_csv):
        path, _ = assoc_csv
        code, out, _ = run_cli(capsys, "validate", str(path))
        assert code == 0
        assert json.loads(out)["status"] == "ok"

    def test_validate_bad_value(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("feature_id,a,b\nf1,0.1,0.9\nf2,1.3,0.2\n")
        code, _, err = run_cli(capsys, "validate", str(path))
        assert code == 1
        assert "1.3" in err

    def test_entropy(self, capsys, assoc_csv):
        path, t = assoc_csv
        code, out, _ = run_cli(capsys, "entropy", str(path))
        rows = json.loads(out)
        assert code == 0
        assert [r["concept"] for r in rows] == list(t.concepts.concepts)

    def test_distance_tv_and_gtv(self, capsys, assoc_csv):
        path, _ = assoc_csv
        code, out, _ = run_cli(capsys, "distance", str(path), "--concepts", "c0,c1")
        assert code == 0
        assert json.loads(out)["metric"] == "tv"
        code, out, _ = run_cli(
            capsys, "distance", str(path), "--concepts", "c0,c1,c2"
        )
        assert json.loads(out)["metric"] == "gtv"

    def test_distance_unknown_concept(self, capsys, assoc_csv):
        path, _ = assoc_csv
        code, _, err = run_cli(
            capsys, "distance", str(path), "--concepts", "c0,zz"
        )
        assert code == 2
        # selections sliced from a loaded table: repeated ids exit 1,
        # unknown ids exit 2
        for expected, argv in [
            (1, ["semdist", "--concepts", "c0,c0,c1", "--features", "f0,f1,f2"]),
            (1, ["semdist", "--concepts", "c0,c1,c2", "--features", "f1,f1,f3"]),
            (1, ["capacity", "--concepts", "c0,c0,c1"]),
            (2, ["predict", "--concepts", "c0,c1,c2", "--features", "f0,f1,zz"]),
            (2, ["capacity", "--concepts", "c0,zz"]),
        ]:
            code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
            assert code == expected, argv
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "concepts, message",
        [
            ("c0", "concept set needs at least 2 concepts"),
            ("c0,c0", "concept ids must be unique"),
        ],
        ids=["one", "repeated"],
    )
    def test_distance_concept_set_validation(self, capsys, assoc_csv, concepts, message):
        # the concept set is checked as in every other command
        path, _ = assoc_csv
        assert run_cli(capsys, "distance", str(path), "--concepts", concepts) == (
            1, "", f"error: {message}\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["capacity", "--all", "--k", "2", "--samples", "0"],
            ["analyze", "--k", "2", "--samples", "0"],
            ["semdist", "--concepts", "c0,c1", "--features", "f0,f1", "--samples", "-1"],
            ["capacity", "--all", "--k", "1"],
            ["capacity", "--all", "--k", "4"],
            ["analyze", "--k", "-2"],
            ["analyze", "--k", "4"],
            ["capacity", "--all", "--k", "2", "--workers", "0"],
            ["capacity", "--all", "--k", "2", "--workers", "-3"],
            ["analyze", "--k", "3", "--workers", "-3"],
            ["palette", "--concepts", "c0,c1", "--seed", "-1"],
            ["predict", "--concepts", "c0,c1", "--features", "f0,f1",
             "--seed", str(2**128)],
            ["capacity", "--concepts", "c0,c1", "--exhaustive", "--threshold", "nan"],
            # the exhaustive pair statistics exist for 2 concepts only
            ["capacity", "--concepts", "c0,c1,c2", "--exhaustive"],
            ["capacity", "--all", "--k", "3", "--exhaustive"],
        ],
    )
    def test_flag_value_exit_2(self, capsys, assoc_csv, argv):
        path, _ = assoc_csv
        code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_semdist_analytic_fixture(self, capsys, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("feature_id,a,b\nf1,0.8,0.2\nf2,0.2,0.8\n")
        code, out, _ = run_cli(
            capsys,
            "semdist", str(path),
            "--concepts", "a,b", "--features", "f1,f2",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["method"] == "analytic"
        assert payload["delta_s"] == pytest.approx(0.9926, abs=5e-4)

    @pytest.mark.parametrize(
        "rows, optimal",
        [
            ("f1,0.6,0.4\nf2,0.45,0.5\n", {"x": "f1", "y": "f2"}),
            ("f1,0.45,0.5\nf2,0.6,0.4\n", {"x": "f2", "y": "f1"}),
            ("f1,1,1\nf2,0,0\n", {"x": "f1", "y": "f2"}),  # a noiseless tie
        ],
    )
    def test_two_concept_semdist_and_predict_are_the_closed_form(
        self, capsys, tmp_path, monkeypatch, rows, optimal
    ):
        """At n = 2 no Monte Carlo runs: semdist's contrast and predict's
        cells on the optimum are both p = (1 + delta_s) / 2, the others
        1 - p, and semdist's keys are those of n >= 3."""
        def no_run(*args):
            raise AssertionError("a Monte Carlo run")

        monkeypatch.setattr(cli, "run_monte_carlo", no_run)
        path = tmp_path / "square.csv"
        path.write_text("feature_id,x,y\n" + rows)
        argv = [str(path), "--concepts", "x,y", "--features", "f1,f2"]
        (code, out, err), (pcode, pout, perr) = (
            run_cli(capsys, command, *argv) for command in ("semdist", "predict")
        )
        assert (code, err, pcode, perr) == (0, "", 0, "")
        s, p = strict_json(out), strict_json(pout)
        prob = (1.0 + s["delta_s"]) / 2.0
        assert list(s) == [
            "concepts", "features", "method", "delta_s", "modal_proportion",
            "contrast", "optimal", "samples", "seed",
        ]
        assert (s["method"], s["modal_proportion"], s["optimal"]) == ("analytic", prob, optimal)
        assert (s["samples"], s["seed"], p["samples"], p["seed"]) == (None, None, None, None)
        m, row = p["matrix"], {f: i for i, f in enumerate(p["features"])}
        for j, c in enumerate(p["concepts"]):
            f = s["optimal"][c]
            assert m[row[f]][j] == s["contrast"][f] == prob
            assert m[1 - row[f]][j] == 1.0 - prob
        for line in m + [list(col) for col in zip(*m)]:
            assert sum(line) == 1.0

    def test_two_concept_optimum_is_the_kernels(self):
        """The closed form's optimum is run_monte_carlo's, ties included,
        on every 2 x 2 square of {0, 0.25, 0.5, 1} values whose columns
        do not sum to 0, and its tally gives that optimum the win
        probability p: rows (0, 1) unless a[0,0] - a[0,1] < a[1,0] - a[1,1]."""
        for cells in itertools.product([0.0, 0.25, 0.5, 1.0], repeat=4):
            values = np.reshape(cells, (2, 2))
            if (values.sum(axis=0) == 0.0).any():
                continue
            square = AssociationTable.from_arrays(["f1", "f2"], ["x", "y"], values)
            pair = _pair_result(square)
            run = run_monte_carlo(square, MonteCarloConfig(samples=1))
            assert pair.optimal.feature_indices == run.optimal.feature_indices, cells
            d = values[:, 0] - values[:, 1]
            rows = (1, 0) if d[0] < d[1] else (0, 1)
            assert pair.optimal.feature_indices == rows, cells
            p = pair.modal_proportion
            optimum = tuple(square.library.ids[r] for r in rows)
            assert pair.assignment_frequencies[optimum] == p, cells
            assert pair.contrast == (p, p), cells

    def test_semdist_monte_carlo(self, capsys, assoc_csv):
        path, _ = assoc_csv
        code, out, _ = run_cli(
            capsys,
            "semdist", str(path),
            "--concepts", "c0,c1,c2", "--features", "f0,f1,f2",
            "--samples", "200", "--seed", "3",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["samples"] == 200
        assert payload["seed"] == 3
        assert set(payload["contrast"]) == {"f0", "f1", "f2"}

    def test_capacity_single(self, capsys, assoc_csv):
        path, _ = assoc_csv
        code, out, _ = run_cli(
            capsys,
            "capacity", str(path), "--concepts", "c0,c1", "--exhaustive",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["method"] == "analytic"
        assert "exhaustive" in payload

    def test_capacity_all_streams_ndjson(self, capsys, assoc_csv):
        path, _ = assoc_csv
        code, out, _ = run_cli(
            capsys,
            "capacity", str(path), "--k", "2", "--all", "--samples", "50",
        )
        lines = out.strip().split("\n")
        assert code == 0
        assert len(lines) == 3  # C(3,2)
        for line in lines:
            json.loads(line)

    def test_capacity_csv(self, capsys, assoc_csv):
        # --concepts writes one row under the header of --all; the
        # statistics of --exhaustive become exhaustive_<key> columns
        path, _ = assoc_csv
        code, out, _ = run_cli(
            capsys, "capacity", str(path), "--all", "--k", "2", "--exhaustive",
            "--output", "csv",
        )
        assert code == 0
        header, *lines = out.splitlines()
        assert len(lines) == 3  # C(3,2)
        _, ndjson, _ = run_cli(
            capsys, "capacity", str(path), "--all", "--k", "2", "--exhaustive"
        )
        stats = [json.loads(line)["exhaustive"] for line in ndjson.splitlines()]
        names = header.split(",")
        assert names[-5:] == [f"exhaustive_{key}" for key in stats[0]]
        for line, row in zip(lines, stats):
            assert line.split(",")[-5:] == [repr(v) for v in row.values()]
        code, one, _ = run_cli(
            capsys, "capacity", str(path), "--concepts", "c0,c1", "--exhaustive",
            "--output", "csv",
        )
        assert code == 0
        assert one == header + "\n" + lines[0] + "\n"
        # without --exhaustive both have the eight report columns
        _, every, _ = run_cli(
            capsys, "capacity", str(path), "--all", "--k", "3", "--samples", "50",
            "--output", "csv",
        )
        _, one, _ = run_cli(
            capsys, "capacity", str(path), "--concepts", "c0,c1,c2",
            "--samples", "50", "--output", "csv",
        )
        assert len(every.splitlines()[0].split(",")) == 8
        assert one.splitlines()[0] == every.splitlines()[0]
        assert len(one.splitlines()) == 2

    def test_exhaustive_rows_match_library(self, capsys, tmp_path, rng):
        # the statistics a scan row carries equal the library's for its
        # subset and the output of --concepts, at any worker count
        t = random_table(rng, 12, 4)
        path = tmp_path / "t.csv"
        write_association_csv(t, path)
        argv = ["capacity", str(path), "--all", "--k", "2", "--exhaustive",
                "--threshold", "0.4"]
        _, serial, _ = run_cli(capsys, *argv, "--workers", "1")
        code, parallel, _ = run_cli(capsys, *argv, "--workers", "2")
        assert code == 0
        assert parallel == serial
        rows = [json.loads(line) for line in serial.splitlines()]
        assert len(rows) == 6  # C(4,2)
        for row in rows:
            pairs = exhaustive_pair_semantics(t, row["concepts"])
            assert row["exhaustive"] == capacity_statistics(pairs, 0.4)
            code, one, _ = run_cli(
                capsys, "capacity", str(path), "--concepts", ",".join(row["concepts"]),
                "--exhaustive", "--threshold", "0.4",
            )
            assert code == 0
            assert json.loads(one) == row

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["--concepts", "c0,q"], "unknown concept id 'q'"),
            (["--all"], "--all requires --k"),
            ([], "capacity needs --all or --concepts"),
            # a flag the command would ignore
            (["--all", "--k", "3", "--concepts", "c0,c1"],
             "--all and --concepts cannot be combined"),
            (["--concepts", "c0,c1", "--k", "9"], "--k applies only to --all"),
            # given but empty, as `--concepts ,` and `distance --concepts ""`
            (["--concepts", ""], "empty id list"),
            (["--concepts", "c0,c1", "--threshold", "0.5"],
             "--threshold applies only to --exhaustive"),
        ],
        ids=["unknown-id", "all-without-k", "neither", "all-and-concepts",
             "concepts-and-k", "empty-concepts", "threshold-without-exhaustive"],
    )
    def test_capacity_usage_error_lines(self, capsys, assoc_csv, argv, line):
        path, _ = assoc_csv
        assert run_cli(capsys, "capacity", str(path), *argv) == (2, "", f"error: {line}\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            # no --concepts argument could name a concept called ""
            ("feature_id,a,,c\nf1,0.1,0.9,0.5\nf2,0.4,0.2,0.5\n",
             "{}:1: column 3: empty concept id"),
            ("feature_id,a,c, a\nf1,0.1,0.9,0.5\nf2,0.4,0.2,0.5\n",
             "{}:1: column 4: duplicate concept id 'a'"),
            ("feature_id,a,b\nf1,0.1,0.9\n ,0.4,0.2\n", "{}:3: empty feature id"),
        ],
        ids=["empty-concept", "repeated-concept", "empty-feature"],
    )
    def test_association_id_errors(self, capsys, tmp_path, text, message):
        path = tmp_path / "t.csv"
        path.write_text(text)
        for command in ("validate", "entropy"):
            code, out, err = run_cli(capsys, command, str(path))
            assert (code, out, err) == (1, "", f"error: {message.format(path)}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate"],
            ["distance", "--concepts", "c0,c1"],
            ["semdist", "--concepts", "c0,c1", "--features", "f0,f1"],
            ["palette", "--concepts", "c0,c1"],
        ],
    )
    def test_output_only_on_commands_with_rows(self, capsys, assoc_csv, argv):
        path, _ = assoc_csv
        for output in ("json", "csv"):
            with pytest.raises(SystemExit) as exc:
                main([argv[0], str(path), *argv[1:], "--output", output])
            assert exc.value.code == 2
            assert "unrecognized arguments: --output" in capsys.readouterr().err

    def test_capacity_reruns_identical(self, capsys, assoc_csv):
        path, _ = assoc_csv
        _, out1, _ = run_cli(
            capsys, "capacity", str(path), "--k", "3", "--all",
            "--samples", "100", "--seed", "5",
        )
        _, out2, _ = run_cli(
            capsys, "capacity", str(path), "--k", "3", "--all",
            "--samples", "100", "--seed", "5",
        )
        assert out1 == out2

    def test_palette(self, capsys, tmp_path, rng):
        t = AssociationTable.from_arrays(
            [str(i) for i in range(1, 72)],
            ["a", "b", "c"],
            rng.uniform(0.05, 0.95, (71, 3)),
        )
        path = tmp_path / "uw.csv"
        write_association_csv(t, path)
        code, out, _ = run_cli(
            capsys,
            "palette", str(path), "--concepts", "a,b,c", "--samples", "200",
        )
        payload = json.loads(out)
        assert code == 0
        assert len(payload["palette"]) == 3
        for entry in payload["palette"]:
            assert HEX_RE.match(entry["hex"])
            assert 0.0 <= entry["contrast"] <= 1.0
        assert 0.0 <= payload["delta_s"] <= 1.0
        chosen = [e["feature_id"] for e in payload["palette"]]
        assert len(set(chosen)) == 3

    def test_two_concept_palette_is_the_closed_form(self, capsys, tmp_path, rng, monkeypatch):
        # no Monte Carlo runs: delta_s is max_capacity's closed form, and
        # each contrast the probability that the optimal one of the two
        # assignments wins
        def no_run(*args):
            raise AssertionError("a Monte Carlo run")

        monkeypatch.setattr(cli, "run_monte_carlo", no_run)
        monkeypatch.setattr(capacity, "run_monte_carlo", no_run)
        t = AssociationTable.from_arrays(
            [str(i) for i in range(1, 72)], ["a", "b"], rng.uniform(0.05, 0.95, (71, 2))
        )
        path = tmp_path / "uw.csv"
        write_association_csv(t, path)
        code, out, err = run_cli(capsys, "palette", str(path), "--concepts", "a,b")
        assert (code, err) == (0, "")
        payload = strict_json(out)
        assert payload["delta_s"] == payload["max_capacity"]
        p = (1.0 + payload["max_capacity"]) / 2.0
        assert [entry["contrast"] for entry in payload["palette"]] == [p, p]
        assert (payload["samples"], payload["seed"]) == (None, None)

    def test_two_concept_palette_on_a_noiseless_tie(self, capsys, tmp_path):
        # both assignments are optimal: no discrimination, a coin flip
        path = tmp_path / "tie.csv"
        path.write_text("feature_id,a,b\n1,1,1\n2,0,0\n")
        code, out, err = run_cli(capsys, "palette", str(path), "--concepts", "a,b")
        assert (code, err) == (0, "")
        payload = strict_json(out)
        assert payload["delta_s"] == payload["max_capacity"] == 0.0
        assert [entry["contrast"] for entry in payload["palette"]] == [0.5, 0.5]

    def test_palette_library_errors(self, capsys, tmp_path, rng):
        t = AssociationTable.from_arrays(
            [str(i) for i in range(1, 72)],
            ["a", "b"],
            rng.uniform(0.05, 0.95, (71, 2)),
        )
        path = tmp_path / "uw.csv"
        write_association_csv(t, path)
        malformed = tmp_path / "lib.csv"
        malformed.write_text("index,L,a\n1,50,0\n2,60,0\n")
        unparsable = tmp_path / "lib2.csv"
        unparsable.write_text("index,L,a,b\n1,50,0,x\n2,60,0,0\n")
        for library in (tmp_path / "missing.csv", malformed, unparsable):
            code, out, err = run_cli(
                capsys, "palette", str(path), "--concepts", "a,b",
                "--library", str(library),
            )
            assert code == 1
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "lab, finite",
        [(("50", v, "0"), v == "1e300") for v in ("nan", "inf", "-inf", "1e300")]
        + [(("50", "1e300", "-1e300"), True), (("nan", "0", "0"), False),
           (("50", "0", "-inf"), False)],
    )
    def test_palette_library_coordinates(self, capsys, tmp_path, lab, finite):
        # a non-finite coordinate fails naming the feature; a finite one far
        # out of gamut is clamped and flagged, and the output is strict JSON
        path = tmp_path / "t.csv"
        path.write_text("feature_id,a,b\n1,0.9,0.1\n2,0.1,0.9\n")
        library = tmp_path / "lib.csv"
        library.write_text("index,L,a,b\n1," + ",".join(lab) + "\n2,60,0,0\n")
        code, out, err = run_cli(
            capsys, "palette", str(path), "--concepts", "a,b",
            "--library", str(library),
        )
        if not finite:
            assert (code, out) == (1, "")
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "feature '1'" in err
            return
        assert (code, err) == (0, "")
        entry = strict_json(out)["palette"][0]
        assert entry["feature_id"] == "1"
        assert HEX_RE.match(entry["hex"])
        assert entry["in_gamut"] is False

    @pytest.mark.parametrize(
        "first_row, message",
        [
            ("1,50,150,28.891,-73.589", "feature '1': L*=150.0 outside [0, 100]"),
            ("1,50,50,inf,-73.589", "feature '1': a*=inf, b*=-73.589 must be finite"),
            ("1,0,50,28.891,-73.589", "feature '1': sorted_position must be positive"),
            # the association CSV's row rules, naming the library file and line
            ("1,50,50,28.891", "{}:2: expected 5 fields, got 4"),
            ("1,50,50,28.891,-73.589,9", "{}:2: expected 5 fields, got 6"),
            ("2,50,50,28.891,-73.589", "{}:3: duplicate feature id '2'"),
            (" ,50,50,28.891,-73.589", "{}:2: empty feature id"),
            ("1,50,x,28.891,-73.589", "{}:2: column 'L': cannot parse 'x' as a number"),
            (
                "1,1.5,50,28.891,-73.589",
                "{}:2: column 'sorted_position': cannot parse '1.5' as an integer",
            ),
        ],
        ids=["lightness", "non-finite", "sorted-position", "short-row", "long-row",
             "repeated-id", "empty-id", "unparsable-L", "fractional-position"],
    )
    def test_palette_library_record_errors(self, capsys, tmp_path, first_row, message):
        # the bundled library's first two colors, the first one altered
        path = tmp_path / "t.csv"
        path.write_text("feature_id,a,b\n1,0.9,0.1\n2,0.1,0.9\n")
        library = tmp_path / "lib.csv"
        library.write_text(
            f"index,sorted_position,L,a,b\n{first_row}\n2,53,25,53.857,-72.28\n"
        )
        code, out, err = run_cli(
            capsys, "palette", str(path), "--concepts", "a,b",
            "--library", str(library),
        )
        assert (code, out, err) == (1, "", f"error: {message.format(library)}\n")

    def test_palette_library_without_id_column(self, capsys, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("feature_id,a,b\n1,0.9,0.1\n2,0.1,0.9\n")
        library = tmp_path / "lib.csv"
        library.write_text("name,L,a,b\n1,50,28.891,-73.589\n2,25,53.857,-72.28\n")
        code, out, err = run_cli(
            capsys, "palette", str(path), "--concepts", "a,b",
            "--library", str(library),
        )
        assert (code, out) == (1, "")
        assert err == f"error: {library}: missing column 'index' or 'feature_id'\n"

    def test_predict(self, capsys, assoc_csv):
        path, _ = assoc_csv
        code, out, _ = run_cli(
            capsys,
            "predict", str(path),
            "--concepts", "c0,c1,c2", "--features", "f0,f1,f2",
            "--samples", "300",
        )
        payload = json.loads(out)
        matrix = np.array(payload["matrix"])
        np.testing.assert_allclose(matrix.sum(axis=0), 1.0, atol=1e-9)
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-9)

    def test_predict_csv(self, capsys, tmp_path):
        # one row per feature under feature_id and the concepts, even when
        # a concept is itself called feature_id
        path = tmp_path / "t.csv"
        path.write_text("feature_id,feature_id,b\nf1,0.2,0.7\nf2,0.6,0.3\n")
        argv = ["--concepts", "feature_id,b", "--features", "f1,f2", "--samples", "50"]
        code, out, _ = run_cli(capsys, "predict", str(path), *argv, "--output", "csv")
        assert code == 0
        header, *lines = out.splitlines()
        assert header == "feature_id,feature_id,b"
        _, payload, _ = run_cli(capsys, "predict", str(path), *argv)
        matrix = json.loads(payload)["matrix"]
        assert lines == [
            ",".join([fid, *map(repr, row)]) for fid, row in zip(["f1", "f2"], matrix)
        ]

    @pytest.mark.parametrize("samples", [2500, 5000])
    @pytest.mark.parametrize("n", [2, 3, 6, 8])
    def test_palette_and_predict_agree_with_semdist(self, capsys, tmp_path, rng, n, samples):
        """palette, semdist and predict read one estimate of a square: at
        n = 2 the closed form, at n >= 3 one Monte Carlo run, where 2500
        samples cross one 2048-iteration chunk and 5000 two, both ending on
        a partial 256-iteration slice. palette's delta_s and contrasts are
        semdist's on the palette's features. On those and on features 1..n,
        predict's cell at semdist's optimum is semdist's contrast, and each
        row and column of its matrix sums to 1."""
        t = AssociationTable.from_arrays(
            [str(i) for i in range(1, 72)], [f"c{j}" for j in range(8)],
            rng.uniform(0.02, 0.98, (71, 8)),
        )
        path = tmp_path / "t.csv"
        write_association_csv(t, path)
        concepts = ",".join(f"c{j}" for j in range(n))
        flags = ["--concepts", concepts, "--samples", str(samples), "--seed", "7"]
        code, out, err = run_cli(capsys, "palette", str(path), *flags)
        assert (code, err) == (0, "")
        palette = strict_json(out)
        chosen = [e["feature_id"] for e in palette["palette"]]
        for features in (chosen, [str(i) for i in range(1, n + 1)]):
            argv = [str(path), *flags, "--features", ",".join(features)]
            (code, out, err), (pcode, pout, perr) = (
                run_cli(capsys, command, *argv) for command in ("semdist", "predict")
            )
            assert (code, err, pcode, perr) == (0, "", 0, "")
            s, p = strict_json(out), strict_json(pout)
            if features is chosen:
                assert palette["delta_s"] == s["delta_s"]
                assert {e["feature_id"]: e["contrast"] for e in palette["palette"]} == s["contrast"]
            m, row = p["matrix"], {f: i for i, f in enumerate(p["features"])}
            for j, c in enumerate(p["concepts"]):
                f = s["optimal"][c]
                assert m[row[f]][j] == s["contrast"][f], (c, f)
            for line in m + [list(col) for col in zip(*m)]:
                assert abs(sum(line) - 1.0) <= 1e-12, m

    def test_analyze(self, capsys, tmp_path, rng):
        t = random_table(rng, 9, 5)
        path = tmp_path / "t.csv"
        write_association_csv(t, path)
        code, out, _ = run_cli(
            capsys, "analyze", str(path), "--k", "2", "--samples", "50"
        )
        payload = json.loads(out)
        assert code == 0
        assert len(payload["rows"]) == 10
        assert "capacity_vs_distribution_difference" in payload["correlations"]
        assert payload["regression"]["names"] == [
            "intercept",
            "distribution_difference",
            "specificity",
        ]

    def test_analyze_excluded_rows(self, capsys, tmp_path):
        # concepts a and b are identical, so subset (a, b) has zero
        # distribution difference and no log-scale values
        path = tmp_path / "t.csv"
        path.write_text(
            "feature_id,a,b,c,d\nf1,0.2,0.2,0.7,0.1\nf2,0.5,0.5,0.1,0.3\n"
            "f3,0.9,0.9,0.3,0.6\nf4,0.1,0.1,0.4,0.8\n"
        )
        code, out, err = run_cli(
            capsys, "analyze", str(path), "--k", "2", "--samples", "50"
        )
        assert code == 0
        assert err == (
            "warning: 1 subset(s) have zero distribution difference; "
            "excluded from log-scale columns\n"
        )
        rows = strict_json(out)["rows"]
        assert rows[0]["concepts"] == ["a", "b"]
        assert rows[0]["log_distribution_difference"] is None
        assert all(r["log_distribution_difference"] is not None for r in rows[1:])
        # CSV keeps writing nan for the excluded value
        code, out, _ = run_cli(
            capsys, "analyze", str(path), "--k", "2", "--samples", "50",
            "--output", "csv",
        )
        assert code == 0
        assert out.splitlines()[1].split(",")[-2] == "nan"

    @pytest.mark.parametrize(
        "header, rows, stderr",
        [
            # concepts a, b and c are identical: 3 of 6 subsets have zero
            # distribution difference, and 3 rows are left
            (
                "a,b,c,d",
                ["0.2,0.2,0.2,0.1", "0.5,0.5,0.5,0.3", "0.9,0.9,0.9,0.6",
                 "0.1,0.1,0.1,0.8"],
                "warning: 3 subset(s) have zero distribution difference; "
                "excluded from log-scale columns\n"
                "error: analyze needs at least 4 subsets with log-scale values, "
                "got 3; excluded: a,b; a,c; b,c\n",
            ),
            # a, b, c and d are identical: 4 rows are left, all alike
            (
                "a,b,c,d,e",
                ["0.2,0.2,0.2,0.2,0.1", "0.5,0.5,0.5,0.5,0.3",
                 "0.9,0.9,0.9,0.9,0.6", "0.1,0.1,0.1,0.1,0.8"],
                "warning: 6 subset(s) have zero distribution difference; "
                "excluded from log-scale columns\n"
                "error: analyze needs capacity to vary over the 4 subsets with "
                "log-scale values; excluded: a,b; a,c; a,d; b,c; b,d; and 1 more\n",
            ),
        ],
        ids=["three-rows-left", "constant-capacity"],
    )
    def test_analyze_degenerate_rows(self, capsys, tmp_path, header, rows, stderr):
        # the statistics are refused with the excluded subsets named, not
        # with the error of the function that would fail on them
        path = tmp_path / "t.csv"
        lines = [f"feature_id,{header}"]
        lines += [f"f{i},{row}" for i, row in enumerate(rows)]
        path.write_text("\n".join(lines) + "\n")
        argv = ["analyze", str(path), "--k", "2", "--samples", "50"]
        assert run_cli(capsys, *argv) == (1, "", stderr)

    @pytest.mark.parametrize("k, count", [(2, 3), (3, 1)])
    def test_analyze_too_few_subsets(self, capsys, tmp_path, rng, monkeypatch, k, count):
        # the JSON statistics need four subsets; say so before any scan
        path = tmp_path / "t.csv"
        write_association_csv(random_table(rng, 6, 3), path)
        argv = ["analyze", str(path), "--k", str(k), "--samples", "50"]
        # CSV is the rows alone, which any number of subsets can fill
        code, out, err = run_cli(capsys, *argv, "--output", "csv")
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 1 + count

        def no_scan(*args, **kwargs):
            raise AssertionError("the scan ran")

        monkeypatch.setattr(cli, "build_frame", no_scan)
        assert run_cli(capsys, *argv) == (
            2, "",
            f"error: analyze needs at least 4 subsets; --k {k} over 3 concepts "
            f"gives {count}\n",
        )

    def test_closed_stdout_ends_cleanly(self, tmp_path, rng):
        # a reader that stops early (`| head -1`) closes the pipe while
        # the scan is still writing: several times the pipe buffer here.
        # The program then ends, in its own process group, with no pool
        # worker left behind.
        path = tmp_path / "t.csv"
        write_association_csv(random_table(rng, 12, 50), path)
        env = {**os.environ, "PYTHONPATH": str(Path(semdisc.__file__).parents[1])}
        for workers in ("1", "2"):
            proc = subprocess.Popen(
                [sys.executable, "-m", "semdisc.cli", "capacity", str(path),
                 "--all", "--k", "2", "--workers", workers],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=env,
                start_new_session=True,
            )
            json.loads(proc.stdout.readline())
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
            err = err.decode()
            assert proc.returncode == 1, workers
            assert "Traceback" not in err
            assert err.startswith("error: ") and err.count("\n") == 1
            with pytest.raises(ProcessLookupError):
                os.killpg(proc.pid, 0)  # the group is empty

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_device_ends_cleanly(self, tmp_path, rng):
        # stdout on a full device: one error line and exit 1, whether the
        # output fills the buffer or waits for the last flush
        path = tmp_path / "t.csv"
        write_association_csv(random_table(rng, 12, 8), path)
        env = {**os.environ, "PYTHONPATH": str(Path(semdisc.__file__).parents[1])}
        for argv in (["capacity", str(path), "--all", "--k", "2"], ["validate", str(path)]):
            with open("/dev/full", "w") as full:
                proc = subprocess.run(
                    [sys.executable, "-m", "semdisc.cli", *argv],
                    stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
                )
            assert (proc.returncode, proc.stderr) == (
                1, "error: cannot write output: No space left on device\n"
            ), argv

    def test_interrupt_ends_cleanly(self, tmp_path, rng):
        # Ctrl-C reaches the program's whole process group part-way
        # through a pooled scan: one error line, exit 130, and no pool
        # process left behind
        path = tmp_path / "t.csv"
        write_association_csv(random_table(rng, 71, 14), path)
        env = {**os.environ, "PYTHONPATH": str(Path(semdisc.__file__).parents[1])}
        proc = subprocess.Popen(
            [sys.executable, "-m", "semdisc.cli", "capacity", str(path),
             "--all", "--k", "5", "--workers", "2"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            start_new_session=True,
        )
        json.loads(proc.stdout.readline())
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err.decode()) == (130, "error: interrupted\n")
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)  # the group is empty

    def test_warnings_come_before_the_error(self, capsys, assoc_csv, monkeypatch):
        # each warning a command raises is one line, also when it fails;
        # deprecations are not the data's and are not shown
        def warn_then_fail(table, args):
            for message in ("first", "first"):
                warnings.warn(message)
            warnings.warn("old", DeprecationWarning)
            raise ValidationError("second")

        monkeypatch.setattr(cli, "cmd_validate", warn_then_fail)
        path, _ = assoc_csv
        assert run_cli(capsys, "validate", str(path)) == (
            1, "", "warning: first\nwarning: first\nerror: second\n"
        )

    def test_usage_error_exit_2(self, capsys, assoc_csv):
        path, _ = assoc_csv
        with pytest.raises(SystemExit) as exc:
            main(["capacity", str(path), "--bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["capacity", "--all", "--k", "2", "--samples", "abc"],
            ["capacity", "--all", "--k", "2", "--bogus"],
            ["semdist", "--features", "f0,f1"],
            ["capacity", "--all", "--k", "2", "--output", "xml"],
        ],
        ids=["bad-int", "unknown-flag", "missing-flag", "bad-choice"],
    )
    def test_argparse_errors_are_one_line(self, capsys, assoc_csv, argv):
        path, _ = assoc_csv
        with pytest.raises(SystemExit) as exc:
            main([argv[0], str(path), *argv[1:]])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", ["semdist", "predict"])
    def test_square_commands_need_as_many_ids(self, capsys, command):
        # checked before the table is read, so even a missing file exits 2
        argv = [command, "missing.csv", "--concepts", "a,b,c", "--features", "f1,f2"]
        assert run_cli(capsys, *argv) == (
            2, "", "error: --concepts and --features must name as many ids, "
            "got 3 concepts and 2 features\n"
        )

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["distance", "--concepts", ","], "empty id list"),
            (["capacity", "--concepts", ","], "empty id list"),
            (["capacity", "--concepts", ",", "--exhaustive"], "empty id list"),
            (["capacity", "--concepts", "a,b,c", "--exhaustive"],
             "--exhaustive needs subsets of 2 concepts, got 3"),
            (["palette", "--concepts", ","], "empty id list"),
            (["semdist", "--concepts", ",", "--features", "f1"], "empty id list"),
            (["predict", "--concepts", ",", "--features", "f1"], "empty id list"),
            (["semdist", "--concepts", "a", "--features", ","], "empty id list"),
            (["predict", "--concepts", "a", "--features", ","], "empty id list"),
        ],
        ids=["distance", "capacity", "capacity-exhaustive", "exhaustive-size",
             "palette", "semdist", "predict", "semdist-features",
             "predict-features"],
    )
    def test_usage_errors_come_before_the_file(self, capsys, tmp_path, argv, line):
        # every command checks its flags and id lists before it reads the
        # association table, so a missing file does not hide a usage error;
        # unequal id counts are the case above
        argv = [argv[0], str(tmp_path / "missing.csv"), *argv[1:]]
        assert run_cli(capsys, *argv) == (2, "", f"error: {line}\n")

    def test_import_skips_scipy_stats(self):
        # the four p-values come from scipy.special; importing scipy.stats
        # would add about half a second to every command's start-up
        run_fresh("import sys, semdisc.cli; assert 'scipy.stats' not in sys.modules")

    def test_program_freezes_import_heap(self, tmp_path, rng):
        # run as the program (flags from sys.argv), main moves the objects
        # the imports made out of every later collection. main does not
        # return then, so the command itself reports the freeze count.
        path = tmp_path / "t.csv"
        write_association_csv(random_table(rng, 4, 2), path)
        code = f"""
import gc, sys
from semdisc import cli
assert gc.get_freeze_count() == 0
validate = cli.cmd_validate

def observed(table, args):
    print("frozen", gc.get_freeze_count())
    return validate(table, args)

cli.cmd_validate = observed
sys.argv = ["semdisc", "validate", {str(path)!r}]
cli.main()
raise AssertionError("main returned")
"""
        env = {**os.environ, "PYTHONPATH": str(Path(semdisc.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        first, *rest = proc.stdout.splitlines()
        assert first.split()[0] == "frozen" and int(first.split()[1]) > 0
        assert json.loads("\n".join(rest))["status"] == "ok"

    def test_program_mode_exit_codes(self, tmp_path, rng):
        # python -m semdisc.cli ends the process in main: exit codes 0, 1
        # and 2 come through, a pipe gets every line, and a failure writes
        # one error line
        good, bad = tmp_path / "t.csv", tmp_path / "bad.csv"
        write_association_csv(random_table(rng, 7, 6), good)
        bad.write_text(good.read_text().replace("0.", "1.", 1))  # a value above 1
        env = {**os.environ, "PYTHONPATH": str(Path(semdisc.__file__).parents[1])}

        def program(*argv):
            proc = subprocess.run(
                [sys.executable, "-m", "semdisc.cli", *argv],
                capture_output=True, text=True, env=env, timeout=120,
            )
            return proc.returncode, proc.stdout, proc.stderr

        code, out, err = program("capacity", str(good), "--all", "--k", "3",
                                 "--samples", "50")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert len(lines) == math.comb(6, 3) and out.endswith("\n")
        assert [json.loads(line)["concepts"] for line in lines] == [
            list(c) for c in itertools.combinations([f"c{j}" for j in range(6)], 3)
        ]
        for argv, want in (
            (["validate", str(bad)], 1),
            (["capacity", str(good), "--concepts", "c0,nope"], 2),
            (["capacity", str(good), "--all", "--k", "2", "--samples", "abc"], 2),
        ):
            code, out, err = program(*argv)
            assert (code, out) == (want, ""), argv
            assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_main_with_argv_leaves_collector_alone(self, capsys, assoc_csv):
        path, _ = assoc_csv
        before = gc.get_freeze_count()
        assert run_cli(capsys, "validate", str(path))[0] == 0
        assert gc.get_freeze_count() == before

    def test_program_scan_identical_across_workers(self, tmp_path, rng):
        # the pool forks a parent whose import heap is frozen
        path = tmp_path / "t.csv"
        write_association_csv(random_table(rng, 71, 6), path)
        env = {**os.environ, "PYTHONPATH": str(Path(semdisc.__file__).parents[1])}
        outputs = [
            subprocess.run(
                [sys.executable, "-m", "semdisc.cli", "capacity", str(path),
                 "--all", "--k", "3", "--workers", workers],
                capture_output=True, env=env, check=True, timeout=120,
            ).stdout
            for workers in ("1", "2")
        ]
        assert outputs[0].count(b"\n") == 20  # C(6, 3)
        assert outputs[1] == outputs[0]

    def test_scan_and_palette_skip_scipy_optimize(self, tmp_path):
        # scipy.optimize, about a quarter second of start-up, loads only
        # for n >= 9 Monte Carlo runs and tied column maxima
        path = tmp_path / "t.csv"
        values = np.random.default_rng(5).uniform(0.02, 0.98, (71, 8))
        ids = [str(i + 1) for i in range(71)]  # the bundled library's
        concepts = [f"c{j}" for j in range(8)]
        write_association_csv(AssociationTable.from_arrays(ids, concepts, values), path)
        run_fresh(
            f"""
import contextlib, io, sys
from semdisc.cli import main
for argv in (
    [],
    ["capacity", {str(path)!r}, "--all", "--k", "4", "--samples", "200"],
    ["palette", {str(path)!r}, "--concepts", {",".join(concepts[:6])!r},
     "--samples", "500"],
    ["palette", {str(path)!r}, "--concepts", {",".join(concepts)!r},
     "--samples", "500"],
):
    if argv:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
    assert "scipy.optimize" not in sys.modules, argv
"""
        )


@pytest.fixture(scope="module")
def tiny_csv(tmp_path_factory):
    # feature ids from the bundled library, so that palette can succeed
    path = tmp_path_factory.mktemp("tiny") / "t.csv"
    values = np.random.default_rng(11).uniform(0.05, 0.95, (4, 3))
    write_association_csv(
        AssociationTable.from_arrays(["1", "2", "3", "4"], ["a", "b", "c"], values),
        path,
    )
    return str(path)


# command: (flags always given, flags given or not); --output belongs to
# the commands whose output is a table
COMMANDS = {
    "validate": ([], []),
    "entropy": ([], ["--output"]),
    "distance": (["--concepts"], []),
    "semdist": (["--concepts", "--features"], ["--seed", "--samples"]),
    "predict": (["--concepts", "--features"], ["--seed", "--samples", "--output"]),
    "palette": (["--concepts"], ["--library", "--seed", "--samples"]),
    "capacity": ([], ["--all", "--k", "--concepts", "--threshold",
                      "--exhaustive", "--seed", "--samples", "--workers",
                      "--output"]),
    "analyze": (["--k"], ["--seed", "--samples", "--workers", "--output"]),
}
NUMBERS = st.one_of(
    st.integers(-3, 5).map(str),
    st.sampled_from(["-1", str(2**64), str(2**128), str(10**30), "1e999",
                     "nan", "-inf", "0.5", "", "x"]),
)
# --samples stays small: every value the CLI accepts is a run of that size.
# --workers may be huge: a scan's pool is capped at the CPU and subset counts.
FLAGS = {
    "--samples": st.one_of(st.integers(-2, 50).map(str), st.sampled_from(["", "x"])),
    "--seed": NUMBERS,
    "--workers": NUMBERS,
    "--k": NUMBERS,
    "--threshold": NUMBERS,
    "--concepts": st.sampled_from(["a,b", "a,b,c", "b,a", "a,a", "zz", ""]),
    "--features": st.sampled_from(["1,2", "1,2,3", "3,2", "1,1", "9", ""]),
    "--output": st.sampled_from(["json", "csv", "xml"]),
    "--library": st.sampled_from(["uw71", "", "missing.csv"]),
    "--all": st.none(),
    "--exhaustive": st.none(),
}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    given_flags, optional = COMMANDS[command]
    argv = [command]
    for flag in given_flags + optional:
        if flag in given_flags or draw(st.booleans()):
            value = draw(FLAGS[flag])
            argv += [flag] if value is None else [flag, value]
    return argv


def assert_stderr_contract(err, code, argv):
    """stderr holds only "warning: " lines (analyze may warn about excluded
    subsets), followed on a nonzero exit by one "error: " line."""
    lines = err.getvalue().splitlines()
    if code:
        assert lines and lines[-1].startswith("error: "), (argv, lines)
        lines = lines[:-1]
    assert all(line.startswith("warning: ") for line in lines), (argv, lines)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(argv=cli_argv(), path_first=st.booleans())
def test_cli_never_raises(tiny_csv, argv, path_first):
    argv = argv[:1] + [tiny_csv] + argv[1:] if path_first else argv + [tiny_csv]
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse's own usage errors
        assert exc.code in (0, 2), argv
        if exc.code:
            assert len(err.getvalue().splitlines()) == 1, (argv, err.getvalue())
        assert_stderr_contract(err, exc.code, argv)
    else:
        assert code in (0, 1, 2), argv
        assert_stderr_contract(err, code, argv)
        if not code:
            assert_output_parses(out.getvalue(), argv)


def assert_output_parses(text, argv):
    """The stdout of a command that exited 0: with --output csv, CSV rows
    as wide as their header; from a JSON capacity --all scan, one JSON
    document per line; else one JSON document."""
    if "csv" in argv:
        rows = list(csv.reader(io.StringIO(text)))
        assert rows and all(len(row) == len(rows[0]) for row in rows), (argv, text)
        return
    ndjson = argv[0] == "capacity" and "--all" in argv
    for document in text.splitlines() if ndjson else [text]:
        strict_json(document)


TERNARY = st.sampled_from(["0", "0.5", "1"])
VALUES = st.one_of(st.floats(0.0, 1.0).map(repr), TERNARY)
DAMAGE = st.sampled_from(["", "x", "nan", "inf", "-0.0", "1.5", "-1", "1e-320",
                          " 0.5", '"0.5"', '"', "0.1\x00", "c0", "1", "feature_id",
                          "\u00e9", "a,b", "0.5\n"])
# the file fuzz's flag values, --samples at most 50 and --workers also past
# the CPUs; and out of range ones, of which a case gives at most one flag
FILE_FLAGS = {
    "--samples": st.integers(1, 50).map(str),
    "--seed": st.sampled_from(["0", "7", str(2**128 - 1)]),
    "--workers": st.sampled_from(["1", "2", "9"]),
    "--output": st.sampled_from(["json", "csv"]),
}
OUT_OF_RANGE = {"--samples": ["0", "-1"], "--seed": ["-1", str(2**128)], "--workers": ["0"]}


def file_argvs(concepts, features):
    """An argv, its path left out, for every subcommand, naming the
    comma-joined concepts and features where it takes them."""
    return [
        ["validate"],
        ["entropy"],
        ["distance", "--concepts", concepts],
        ["semdist", "--concepts", concepts, "--features", features],
        ["predict", "--concepts", concepts, "--features", features],
        ["palette", "--concepts", concepts],
        ["capacity", "--all", "--k", "2"],
        ["analyze", "--k", "2"],
    ]


def square_case(n):
    """An n x n association file of {0, 0.5, 1} cells, where most
    iterations tie, and every subcommand on all of it at 50 samples."""
    values = np.random.default_rng(n).choice(["0", "0.5", "1"], size=(n, n))
    values[0] = "1"  # no column sums to 0
    concepts, features = [f"c{j}" for j in range(n)], [str(i + 1) for i in range(n)]
    lines = [",".join(["feature_id", *concepts])]
    lines += [",".join([f, *row]) for f, row in zip(features, values)]
    argvs = file_argvs(",".join(concepts), ",".join(features))
    for argv in argvs:
        if "--samples" in COMMANDS[argv[0]][1]:
            argv += ["--samples", "50"]
    return "\n".join(lines).encode(), argvs


@st.composite
def association_case(draw):
    """Arbitrary bytes, or an association CSV (1-8 concepts, 1-10 features
    with ids of the bundled library, with ties and endpoint values, or
    only {0, 0.5, 1} cells) that may have one damaged cell, a row of the
    wrong width, another line ending, a byte-order mark or trailing bytes
    that are not UTF-8; and an argv, its path left out, for every
    subcommand. Their --concepts and --features name k of the file's ids,
    or now and then an id it lacks, k often the most a square can have."""
    m = draw(st.integers(1, 8))
    n = max(1, m + draw(st.integers(-1, 2)))
    concepts, features = [f"c{j}" for j in range(m)], [str(i + 1) for i in range(n)]
    k = min(m, n) if draw(st.booleans()) else draw(st.integers(1, min(m, n)))
    c, f = (",".join(draw(st.permutations(ids))[:k]) for ids in (concepts, features))
    if draw(st.integers(0, 9)) == 9:
        c += ",zz"
    argvs = file_argvs(c, f)
    bad = draw(st.sampled_from([None, *OUT_OF_RANGE]))
    for argv in argvs:
        optional = COMMANDS[argv[0]][1]
        for flag, values in FILE_FLAGS.items():
            if flag in optional and (flag in ("--samples", bad) or draw(st.booleans())):
                values = st.sampled_from(OUT_OF_RANGE[flag]) if flag == bad else values
                argv += [flag, draw(values)]
    if draw(st.integers(0, 7)) == 7:
        return draw(st.binary(max_size=64)), argvs
    rows = [["feature_id"] + concepts]
    values = draw(st.sampled_from([VALUES, TERNARY]))
    for i in range(n):
        rows.append([features[i]] + draw(st.lists(values, min_size=m, max_size=m)))
    if draw(st.integers(0, 2)) == 2:
        rows[draw(st.integers(0, n))][draw(st.integers(0, m))] = draw(DAMAGE)
    if draw(st.integers(0, 5)) == 5:
        row = rows[draw(st.integers(0, n))]
        if draw(st.booleans()):
            row.append("0.5")
        else:
            row.pop()
    text = draw(st.sampled_from(["\n", "\r\n", "\r"])).join(map(",".join, rows))
    data = draw(st.sampled_from(["", "\ufeff"])).encode() + text.encode()
    data += draw(st.sampled_from([b"", b"", b"", b"\n", b"\xff", b"\x00"]))
    return data, argvs


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "t.csv"


@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=association_case())
# a field above the csv module's 128 KiB limit raised csv.Error
@example(case=(b"feature_id,a,b\nf1," + b"0" * 200_000 + b",0.5\nf2,0.5,0.5\n",
               file_argvs("a,b", "f1,f2")))
# tie-heavy squares that the subset DP solves
@example(case=square_case(7))
@example(case=square_case(8))
def test_any_association_file_exits_cleanly(fuzz_path, case):
    data, argvs = case
    fuzz_path.write_bytes(data)
    for command in argvs:
        argv = [command[0], str(fuzz_path), *command[1:]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), argv
        assert_stderr_contract(err, code, argv)
        if not code:
            assert_output_parses(out.getvalue(), argv)
