import doctest
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapquot import census, cli, jsonio, verify
from mapquot import series as S
from mapquot.cli import build_parser, main
from mapquot.maps import DissectionSpec, PlaneMap, unrooted_code
from mapquot.quotient import phi, phi_tri

from fixtures import cube, hexagon_wheel, square_map, w_fan


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_on_stdin(capsys, monkeypatch, text, *argv):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_usage_error(code, out, err, message):
    """Exit 2 with nothing on stdout and exactly one error line, no traceback."""
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert "Traceback" not in err


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_command_lines():
    """The `mapquot` lines of README's "Command line" block."""
    readme = README.read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("mapquot ")]


def test_readme_commands_exit_0(capsys):
    """Every README "Command line" example that reads no stdin succeeds."""
    commands = [shlex.split(line, comments=True) for line in readme_command_lines()]
    commands = [argv for argv in commands if argv[1] in ("series", "two-point", "enumerate")]
    assert [argv[1] for argv in commands] == ["series", "two-point", "enumerate", "enumerate"]
    for argv in commands:
        code = main(argv[1:])
        assert code == 0, (" ".join(argv), capsys.readouterr().err)


def test_readme_command_lines_parse():
    """Every README command line, without its comment, redirections and
    [optional] groups, is accepted by the parser."""
    lines = readme_command_lines()
    assert len(lines) == 10
    parser = build_parser()
    for line in lines:
        argv = shlex.split(re.sub(r"\[[^]]*\]", "", line), comments=True)
        while "<" in argv or ">" in argv:
            i = next(j for j, word in enumerate(argv) if word in ("<", ">"))
            del argv[i:i + 2]
        parser.parse_args(argv[1:])


def test_readme_python_examples_pass():
    """README's `>>>` examples print what it shows."""
    assert tuple(doctest.testfile(str(README), module_relative=False)) == (0, 4)


class TestSeriesCommand:
    def test_q_development(self, capsys):
        code, out = run_cli(capsys, "series", "--name", "q", "--order", "8")
        assert code == 0
        payload = json.loads(out)
        assert payload["coeffs"][-2:] == ["408", "1938"]

    def test_two_point(self, capsys):
        code, out = run_cli(
            capsys, "two-point", "--family", "tri_simple", "--i", "2", "--order", "6"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["coeffs"] == ["0", "1", "5", "28", "172", "1129", "7782"]

    def test_two_point_size_conventions(self, capsys):
        _, out = run_cli(capsys, "two-point", "--family", "quad_simple", "--i", "1", "--order", "4")
        assert json.loads(out)["size_convention"] == "(inner faces)/k"
        _, out = run_cli(capsys, "two-point", "--family", "tri_irred", "--i", "2", "--order", "4")
        assert json.loads(out)["size_convention"] == "n, with (2n+1)k inner faces"

    def test_two_point_is_no_series_name(self, capsys):
        # `two-point` is the one route to the distance-refined series
        with pytest.raises(SystemExit) as exc:
            main(["series", "--name", "two_point", "--family", "quad", "--i", "1"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert errors[0].startswith("mapquot series: error: argument --name: invalid choice: "
                                    "'two_point'")
        assert "Traceback" not in captured.err

    def test_deterministic_output(self, capsys):
        _, out1 = run_cli(capsys, "series", "--name", "t", "--order", "10")
        _, out2 = run_cli(capsys, "series", "--name", "t", "--order", "10")
        assert out1 == out2

    # sha256, first 16 hex digits, of each payload: `series --name N --order 30`
    # under N, `two-point --family F --i I --order 20` under F:I.  The simple
    # and irreducible two-point payloads name their kernel's variable, y or z.
    PAYLOAD_PINS = {
    "P_quad": "724e9c425e4482e5",
    "P_tri": "27502c3d8630a844",
    "Q_quad": "35eec57a2acc8607",
    "Q_tri": "790036abe290c6ba",
    "Qt_tri": "1cdd8650a31621f6",
    "R_quad": "71e2bf7f1c43c3b4",
    "R_tri": "7ccd5fd41c4de57e",
    "Rt_tri": "b793c1b3b5850107",
    "X_quad": "6573990562f9a9e7",
    "X_tri": "fd7c216382be5354",
    "Y_quad": "fa15decbea279fba",
    "Y_tri": "f43c45b97c26aaba",
    "Z_quad": "8f770ca2a68ae977",
    "Z_tri": "707c209e43f1c1a7",
    "a_edge": "1c55bf8a9c17d806",
    "a_vertex": "abfe349f6ee85324",
    "alpha_quaternary": "2ed471136f3891c7",
    "alpha_ternary": "f84f0f9d288a4368",
    "d3_tri": "08a42d065c3fdbc1",
    "d_quad": "c1eb4294795e6815",
    "f_quad": "c70514a7caa6c9ea",
    "f_tri": "05d20f5635c396ea",
    "g_quad": "422ead567c0bdab2",
    "g_tri": "8634406aeaefc024",
    "q": "21a4a09a2dd171bb",
    "s_tri": "65d6488909aed584",
    "t": "f0654ff1d7ec9380",
    "t_edge": "f101e326b70f5da9",
    "t_rootedge": "7d6871588b3925af",
    "t_vertex": "176114fdb069d411",
    "u_tri": "fcd3513317a50553",
    "v_tri": "f5ce94e3abc8a32d",
    "quad:1": "d92bfb9ab901b5d3",
    "quad:2": "cee62bf49ef4d44f",
    "quad:3": "70cfe16b233aae26",
    "quad_simple:1": "3cca851405449941",
    "quad_simple:2": "018175ef01c5bb0c",
    "quad_simple:3": "d8a944b169c33dfc",
    "quad_irred:1": "6458942c722b9a07",
    "quad_irred:2": "36ffd3140c31f9e6",
    "quad_irred:3": "c0a3163d359ebbcc",
    "tri:1": "19bc4efd0ca59024",
    "tri:2": "d8a1acd7bc3db71c",
    "tri:3": "31aa9a039202c3f4",
    "tri_simple:1": "9cc1e89aa8965465",
    "tri_simple:2": "e713c5943adf8c53",
    "tri_simple:3": "66a3af11ae43fd5e",
    "tri_irred:1": "87cc21df7b8842c6",
    "tri_irred:2": "b3b21119e3adde59",
    "tri_irred:3": "577cc70fc61e9966",
    }

    @pytest.mark.parametrize("key", PAYLOAD_PINS)
    def test_payload_bytes_are_pinned(self, capsys, key):
        family, _, i = key.partition(":")
        argv = (["two-point", "--family", family, "--i", i, "--order", "20"] if i
                else ["series", "--name", key, "--order", "30"])
        code, out = run_cli(capsys, *argv)
        assert (code, hashlib.sha256(out.encode()).hexdigest()[:16]) == (0, self.PAYLOAD_PINS[key])

    def test_every_series_and_two_point_family_is_pinned(self):
        families = [key.partition(":")[0] for key in self.PAYLOAD_PINS if ":" in key]
        assert list(dict.fromkeys(families)) == list(S.TWO_POINT)
        assert len(self.PAYLOAD_PINS) == len(S.CATALOGUE) + 3 * len(S.TWO_POINT)


class TestEnumerateCommand:
    def test_count_only(self, capsys):
        code, out = run_cli(
            capsys,
            "enumerate",
            "--inner-degree", "4", "--outer-degree", "4",
            "--size", "4", "--simple", "--count-only",
        )
        assert code == 0
        assert json.loads(out.strip().splitlines()[-1])["count"] == 6

    def test_streams_valid_records(self, capsys):
        code, out = run_cli(
            capsys,
            "enumerate",
            "--inner-degree", "4", "--outer-degree", "4",
            "--size", "3", "--simple",
        )
        lines = out.strip().splitlines()
        assert json.loads(lines[-1])["count"] == 2
        for line in lines[:-1]:
            jsonio.parse_map(json.loads(line))

    def test_symmetric_query_of_81_members(self, capsys):
        # building the whole rooted family took over 2 GB; the orbit search
        # reaches only its 3-symmetric maps
        code, out = run_cli(
            capsys,
            "enumerate",
            "--inner-degree", "4", "--outer-degree", "6",
            "--size", "3", "--symmetric", "3", "--count-only",
        )
        assert code == 0
        assert json.loads(out) == {"count": 81, "size": 3}

    def test_cap_is_a_usage_error(self, capsys):
        code, _ = run_cli(
            capsys,
            "enumerate",
            "--inner-degree", "4", "--outer-degree", "4",
            "--size", "9", "--simple", "--count-only",
        )
        assert code == 2

    def test_cap_error_names_the_flag(self, capsys):
        code = main([
            "enumerate", "--inner-degree", "4", "--outer-degree", "4", "--size", "8", "--simple",
        ])
        captured = capsys.readouterr()
        assert_usage_error(
            code, captured.out, captured.err,
            "quad_faces=8 exceeds the default cap 7; pass force=True (--force) to override",
        )

    def test_unpruned_search_past_its_cap_is_refused_even_with_force(self, capsys, monkeypatch):
        # the non-simple 2-dissections with 9 inner faces, which the kernel
        # searches without the simple prune, ran for minutes without output
        monkeypatch.setattr(census, "run_census", mock.Mock(side_effect=AssertionError("searched")))
        code = main([
            "enumerate", "--inner-degree", "4", "--outer-degree", "2", "--size", "9",
            "--pointed", "--force",
        ])
        captured = capsys.readouterr()
        assert_usage_error(code, captured.out, captured.err, "19 edges exceeds the hard cap of 15")

    @pytest.mark.parametrize("argv,message", [
        ("--inner-degree 4 --outer-degree 2 --size 9 --pointed",
         "19 edges exceeds the hard cap of 15 for a non-simple family"),
        ("--inner-degree 4 --outer-degree 4 --size 10",
         "20 edges exceeds the hard cap of 18 for a non-simple family"),
        ("--inner-degree 3 --outer-degree 3 --size 40 --simple",
         "60 edges exceeds the hard cap of 24"),
    ], ids=["pointed", "plain", "simple"])
    def test_hard_cap_is_reported_before_the_default_cap(self, capsys, argv, message):
        # past both caps, the refusal names the one that --force cannot lift
        code = main(["enumerate", *argv.split()])
        captured = capsys.readouterr()
        assert_usage_error(code, captured.out, captured.err, message)
        assert "--force" not in captured.err

    # (argv, exit code, sha256 of stdout): the bytes of each kind of stream
    OUTPUT_PINS = [
        ("--inner-degree 4 --outer-degree 4 --size 4", 0,
         "92cec7b8354ae7eb07c08a39c2fb731d474d2bcd186e4898a1dd5746cf804f28"),
        ("--inner-degree 4 --outer-degree 4 --size 6 --simple", 0,
         "c496a611e781595ea547a51bfa884dd72f104d3eb3fe92c7067da48b8a2d7537"),
        ("--inner-degree 4 --outer-degree 4 --size 7 --simple --count-only", 0,
         "a780754c026a9a76e80c28a372bfae9bc307d78ffd30d87e417665c52c0f21a8"),
        # the benchmark's census command, whose search splits over the usable cores
        ("--inner-degree 4 --outer-degree 4 --size 9 --simple --force", 0,
         "2638cb685c145ea186294b864b73f8220703f6bd54d6fdd27e50312e7ef3f828"),
        ("--inner-degree 4 --outer-degree 8 --size 4 --irreducible", 0,
         "9eed1e72db8ea89d701528bcaba492bf3164f6de2b0c9d8cb93b90e775a04cd0"),
        ("--inner-degree 4 --outer-degree 2 --size 3 --pointed", 0,
         "185d3e412a0a8e9a7cc57dd2e09f7af45264884cd7360fee374de2e42ea90621"),
        ("--inner-degree 4 --outer-degree 2 --size 4 --pointed --quasi-simple", 0,
         "ffa79bfc47e2401600b22ecc5af96fdf0ce46ded1224b0ac0d0e1b14a045d72a"),
        ("--inner-degree 4 --outer-degree 2 --size 3 --pointed --distance 2", 0,
         "d2e68eb27d4b4b87159262ea3b3535b6f47753f2714afa3f07eb4a2f1bf7dfed"),
        ("--inner-degree 4 --outer-degree 4 --size 3 --symmetric 2 --simple", 0,
         "db88e056d1bc2e06adf405fa9b5e2f10c0215bd9955a0c1972b6483d9a0b3951"),
        ("--inner-degree 4 --outer-degree 4 --size 3 --symmetric 2 --simple --distance 1", 0,
         "ec36e73c308fd7ae87f41221b20eecfef46f558db012f7d80e0b80c1490a27ea"),
        ("--inner-degree 4 --outer-degree 6 --size 3 --symmetric 3", 0,
         "9a90fc3c33c5e61dbb7adefcf61e18ebc34bbfd1b00a4ed579206404794d3f67"),
        ("--inner-degree 3 --outer-degree 3 --size 4", 0,
         "87dbb09e190fa696b1904d80d496db46ed128a985a0476d4eee23256ac84179c"),
        ("--inner-degree 3 --outer-degree 6 --size 6 --irreducible", 0,
         "64e27e23924d795abf7b93ae08c7084b34656f671ec80c6ec4dbec0c7cfb9f3e"),
        ("--inner-degree 3 --outer-degree 1 --size 5 --pointed", 0,
         "80fa89d4e304db62078d380c9e2e8f7e713f5c53eddd9ff0f9f03a505a3685a2"),
        ("--inner-degree 3 --outer-degree 3 --size 2 --symmetric 3 --simple --force --distance 1",
         0, "a234976639e53cd547f99fb82a5e80e0d3848ce8d3bae65f0a14a41699d1bc06"),
        ("--inner-degree 3 --outer-degree 6 --size 2 --symmetric 2 --simple --force", 0,
         "2964742ea4abf1b263a97f913029c0e4b2a0e3074a7b9406efb761918433b7cc"),
    ]

    @pytest.mark.parametrize("argv,code,digest", OUTPUT_PINS, ids=[p[0] for p in OUTPUT_PINS])
    def test_output_bytes_are_pinned(self, capsys, argv, code, digest):
        got, out = run_cli(capsys, "enumerate", *argv.split())
        assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)

    def test_pointed_query_prints_each_witness_map(self, capsys):
        # the pointed vertex is not printed, so a map with several pointed
        # classes appears once for each
        code, out = run_cli(
            capsys, "enumerate", "--inner-degree", "4", "--outer-degree", "2", "--size", "3",
            "--pointed",
        )
        records = [json.loads(line) for line in out.splitlines()[:-1]]
        assert code == 0 and len(records) == 81
        assert len({tuple(r["sigma"]) for r in records}) == 27
        assert all(r["pointed"] is None and r["rho"] is None for r in records)

    def test_closing_the_pipe_early_is_one_error_line(self):
        src = Path(__file__).resolve().parent.parent / "src"
        # 9,614 records, far more than a pipe buffer holds
        argv = ["enumerate", "--inner-degree", "4", "--outer-degree", "4", "--size", "9",
                "--simple", "--force"]
        proc = subprocess.Popen([sys.executable, "-m", "mapquot.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env={"PYTHONPATH": str(src)})
        assert proc.stdout.readline().startswith(b'{"k":null,')
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert err == b"error: [Errno 32] Broken pipe\n"

    def test_irreducible_hexagon_dissections(self, capsys):
        counts = {}
        for n in (2, 3, 4, 5):
            code, out = run_cli(
                capsys,
                "enumerate",
                "--inner-degree", "4", "--outer-degree", "6",
                "--size", str(n), "--simple", "--irreducible", "--count-only",
            )
            assert code == 0
            counts[n] = json.loads(out)["count"]
        assert counts == {2: 3, 3: 2, 4: 3, 5: 6}


# (spec, size, members): generate's sigmas of each kind of query
BARE_RECORD_FAMILIES = [
    (DissectionSpec(4, 4, simple=True), 7, 408),
    (DissectionSpec(4, 4), 5, 810),
    (DissectionSpec(4, 6, simple=True, irreducible=True), 5, 6),
    (DissectionSpec(4, 2, pointed=True), 4, 756),
    (DissectionSpec(4, 4, symmetry_k=2), 3, 81),
]


@pytest.mark.parametrize("spec,size,members", BARE_RECORD_FAMILIES)
def test_bare_record_is_the_map_record_of_its_sigma(spec, size, members):
    sigmas = list(census.generate(census.CensusQuery(spec, size)))
    assert len(sigmas) == members
    for sigma in sigmas:
        m = PlaneMap(sigma, 0)
        line = jsonio.bare_record(sigma)
        assert line == jsonio.dumps(jsonio.map_record(m))
        assert jsonio.parse_map(json.loads(line))["map"] == m


QUAD, TRI = ["--inner-degree", "4"], ["--inner-degree", "3"]
ENUMERATE_USAGE_ERRORS = {
    "size 0 quadrangulations": [*QUAD, "--outer-degree", "4", "--size", "0"],
    "size 0 triangulations": [*TRI, "--outer-degree", "3", "--size", "0"],
    "negative size": [*QUAD, "--outer-degree", "6", "--size", "-1"],
    "negative size pointed": [*QUAD, "--outer-degree", "2", "--size", "-1", "--pointed"],
    "negative size symmetric": [*QUAD, "--outer-degree", "4", "--size", "-1", "--symmetric", "2"],
    "distance unpointed": [*QUAD, "--outer-degree", "4", "--size", "3", "--distance", "1"],
    "distance 0 symmetric": [
        *QUAD, "--outer-degree", "4", "--size", "1", "--symmetric", "2", "--distance", "0"],
    "negative distance pointed": [
        *QUAD, "--outer-degree", "2", "--size", "1", "--pointed", "--distance", "-1"],
    "quasi-simple unpointed": [*QUAD, "--outer-degree", "4", "--size", "3", "--quasi-simple"],
    "quasi-simple symmetric": [
        *QUAD, "--outer-degree", "4", "--size", "1", "--symmetric", "2", "--quasi-simple"],
    "simple pointed": [*QUAD, "--outer-degree", "2", "--size", "2", "--pointed", "--simple"],
    "symmetric pointed": [
        *QUAD, "--outer-degree", "2", "--size", "2", "--pointed", "--symmetric", "2"],
    "pointed outer 8": [*QUAD, "--outer-degree", "8", "--size", "2", "--pointed"],
    "pointed triangular outer 3": [*TRI, "--outer-degree", "3", "--size", "1", "--pointed"],
    "irreducible outer 4": [*QUAD, "--outer-degree", "4", "--size", "3", "--simple", "--irreducible"],
    "irreducible symmetric": [
        *QUAD, "--outer-degree", "6", "--size", "2", "--simple", "--irreducible", "--symmetric", "2"],
}


@pytest.mark.parametrize("argv", ENUMERATE_USAGE_ERRORS.values(), ids=list(ENUMERATE_USAGE_ERRORS))
def test_enumerate_rejects_what_it_cannot_honour(capsys, argv):
    code = main(["enumerate", *argv, "--count-only"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("family", ["quadrangulations", "triangulations"])
def test_size_0_error_names_the_size_given(capsys, family):
    # these families are sized by total faces, so the error speaks of the size
    code = main(["enumerate", *ENUMERATE_USAGE_ERRORS[f"size 0 {family}"], "--count-only"])
    assert code == 2
    assert capsys.readouterr().err == f"error: {family} have at least 1 face, got size 0\n"


@pytest.mark.parametrize("argv", [
    ["series", "--name", "P_quad", "--order", "-2"],
    ["series", "--name", "q", "--order", "-1"],
    ["two-point", "--family", "quad", "--i", "1", "--order", "-3"],
])
def test_negative_order_is_a_usage_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --order must be at least 0\n"


class TestQuotientCommands:
    def test_unroll_then_classic_round_trip(self, capsys, monkeypatch):
        import io, sys

        fan = w_fan()
        record = jsonio.dumps(jsonio.map_record(fan, pointed=fan.vertex_of[5]))
        monkeypatch.setattr(sys, "stdin", io.StringIO(record))
        code, out = run_cli(capsys, "quotient", "unroll", "--k", "3")
        assert code == 0
        sym_record = json.loads(out)
        assert sym_record["k"] == 3
        m = PlaneMap(sym_record["sigma"], sym_record["root"])
        wheel = hexagon_wheel()
        assert unrooted_code(m, pointed=sym_record["pointed"]) == unrooted_code(
            wheel, pointed=wheel.inner_vertices()[0]
        )

        monkeypatch.setattr(sys, "stdin", io.StringIO(out))
        code, out2 = run_cli(capsys, "quotient", "classic")
        assert code == 0
        back = json.loads(out2)
        m2 = PlaneMap(back["sigma"], back["root"])
        assert unrooted_code(m2, pointed=back["pointed"]) == unrooted_code(
            fan, pointed=fan.vertex_of[5]
        )

    # the quotient of the first member of each family, as the CLI prints it
    NEW_QUOTIENT_OF_FIRST = {
        "quad": ([4, 2, 1, 11, 8, 6, 5, 3, 0, 10, 9, 7], 4),
        "tri": ([4, 2, 7, 11, 10, 6, 8, 1, 5, 3, 0, 9], 2),
    }

    @pytest.mark.parametrize("family", ["quad", "tri"])
    def test_new_quotient_prints_the_marked_map(self, capsys, monkeypatch, family):
        if family == "quad":
            members, quotient = census.symmetric_simple_quadrangulations(2), phi
        else:
            members, quotient = census.symmetric_simple_triangulations(3), phi_tri
        assert members
        outs = []
        for sym in members:
            record = jsonio.dumps(jsonio.symmetric_record(sym))
            code, out, err = run_on_stdin(capsys, monkeypatch, record, "quotient", "new")
            assert (code, err) == (0, "")
            mm = quotient(sym)
            assert out == jsonio.dumps(jsonio.map_record(mm.map, marked_edge=mm.marked_edge)) + "\n"
            outs.append(json.loads(out))
        sigma, marked_edge = self.NEW_QUOTIENT_OF_FIRST[family]
        assert (outs[0]["sigma"], outs[0]["marked_edge"]) == (sigma, marked_edge)

    @pytest.mark.parametrize("mode,message", [
        ("classic", "classic quotient needs a symmetric map record"),
        ("new", "the edge-marking quotient needs a symmetric map record"),
        ("unroll", "unroll needs a pointed map record"),
    ])
    def test_quotient_of_a_plain_record_is_an_input_error(self, capsys, monkeypatch, mode, message):
        record = jsonio.dumps(jsonio.map_record(square_map()))
        code, out, err = run_on_stdin(capsys, monkeypatch, record, "quotient", mode)
        assert_usage_error(code, out, err, message)
        assert err == f"error: {message}\n"

    def test_orient(self, capsys, monkeypatch):
        import io, sys

        record = jsonio.dumps(jsonio.map_record(square_map()))
        monkeypatch.setattr(sys, "stdin", io.StringIO(record))
        code, out = run_cli(capsys, "orient")
        assert code == 0
        assert json.loads(out)["orient"] == [None, None, None, None]


class TestVerifyCommand:
    def test_single_fast_check(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--suite", "series_golden", "--max-size", "small"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["results"][0]["check"] == "series_golden"

    def test_max_size_offers_the_tiers_of_the_size_table(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        offered = re.search(r"--max-size \{([^}]*)\}", capsys.readouterr().out).group(1)
        assert offered.split(",") == list(verify.SIZES)
        # each tier sizes every check
        rows = [set(row) for row in verify.SIZES.values()]
        assert all(row == rows[0] for row in rows)

    def test_unknown_check_is_usage_error(self, capsys):
        code = main(["verify", "--suite", "nonsense"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: unknown checks: 'nonsense'\n"

    @pytest.mark.parametrize(
        "suite,names",
        [("series_golden,,closed_forms", "''"), (" series_golden", "' series_golden'"),
         ("a,series_golden,b", "'a', 'b'")],
        ids=["empty", "padded", "two"],
    )
    def test_unknown_check_names_are_quoted(self, capsys, suite, names):
        code = main(["verify", "--suite", suite])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: unknown checks: {names}\n"

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_a_usage_error(self, capsys, jobs):
        code = main(["verify", "--suite", "series_golden", "--jobs", jobs])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: --jobs must be at least 1, got {jobs}\n"

    def test_pool_is_no_larger_than_the_suite(self, capsys, monkeypatch):
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
        # series_golden is one item, and the orientation check one per family
        # and one for its symmetric members
        items = 1 + len(verify._orientation_items("small"))
        suite = ["verify", "--suite", "series_golden,orientations", "--max-size", "small"]
        code, out = run_cli(capsys, *suite, "--jobs", "64")
        assert code == 0
        assert [r["check"] for r in json.loads(out)["results"]] == ["series_golden", "orientations"]
        assert len(forks) == items
        code, _ = run_cli(capsys, *suite, "--jobs", "2")
        assert code == 0
        assert len(forks) == items + 2
        # one item runs in this process
        code, _ = run_cli(capsys, "verify", "--suite", "series_golden", "--jobs", "4")
        assert code == 0
        assert len(forks) == items + 2

    def test_a_dead_worker_fails_its_checks(self):
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "import os, sys\n"
            "from mapquot import cli, verify\n"
            "verify.CHECKS['dies'] = lambda tier: os._exit(3)\n"
            "sys.exit(cli.main(['verify', '--suite', 'series_golden,dies,closed_forms',\n"
            "                   '--jobs', '2']))\n"
        )
        # the output pipes close only when no worker holds them open
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={"PYTHONPATH": str(src)}, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr == ""
        payload = json.loads(proc.stdout)
        assert payload["ok"] is False
        # the other worker runs the items after the one that died
        assert [(r["check"], r["ok"]) for r in payload["results"]] == [
            ("series_golden", True), ("dies", False), ("closed_forms", True)]
        assert payload["results"][1]["detail"] == "WorkerDied: its worker process died (exit status 3)"

    def test_a_dead_census_worker_is_one_error_line(self):
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "import os, sys\n"
            "from mapquot import cli, kernel\n"
            "parent, emit = os.getpid(), kernel._emit\n"
            "kernel._emit = lambda *a: emit(*a) if os.getpid() == parent else os._exit(3)\n"
            "cli._usable_cores = lambda: 2\n"
            "sys.exit(cli.main(['enumerate', '--inner-degree', '4', '--outer-degree', '4',\n"
            "                   '--size', '8', '--simple', '--force']))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={"PYTHONPATH": str(src)}, timeout=60)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: a census worker process died (exit status 3)\n"


def test_start_up_imports_no_process_pool():
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys\n"
        "from mapquot import cli\n"
        "pool = lambda: sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules))\n"
        "print(pool())\n"
        "code = cli.main(['verify', '--suite', 'series_golden,closed_forms', '--max-size', 'small',\n"
        "                 '--jobs', '2'])\n"
        "print(code, pool())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": str(src)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    start, verdict, ran = proc.stdout.splitlines()
    assert (start, ran) == ("[]", "0 []")
    assert json.loads(verdict)["ok"] is True


def test_a_split_enumerate_imports_no_process_pool():
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import os, sys\n"
        "from mapquot import cli\n"
        "forks, fork = [], os.fork\n"
        "os.fork = lambda: forks.append(None) or fork()\n"
        "cli._usable_cores = lambda: 2\n"
        "cli.main(['enumerate', '--inner-degree', '4', '--outer-degree', '4', '--size', '8',\n"
        "          '--simple', '--force', '--count-only'])\n"
        "print(len(forks), sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": str(src)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == '{"count":1938,"size":8}\n2 []\n'


OTHER_SUBCOMMAND_MODULES = {"series", "verify", "quotient", "orientations", "render"}


@pytest.mark.parametrize("argv,unloaded", [
    (["enumerate", "--inner-degree", "4", "--outer-degree", "4", "--size", "5", "--simple",
      "--count-only"], OTHER_SUBCOMMAND_MODULES),
    (["enumerate", "--inner-degree", "3", "--outer-degree", "3", "--size", "1", "--simple",
      "--symmetric", "3"], OTHER_SUBCOMMAND_MODULES),
    (["--help"], OTHER_SUBCOMMAND_MODULES | {"census"}),
    (["verify", "--suite", "series_golden", "--max-size", "small"], set()),
], ids=["enumerate", "enumerate-symmetric", "help", "verify"])
def test_a_subcommand_loads_only_its_own_modules(argv, unloaded):
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import json, sys\n"
        "from mapquot import cli\n"
        "try:\n"
        "    code = cli.main(sys.argv[1:])\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(json.dumps([code, [m[8:] for m in sys.modules if m.startswith('mapquot.')]]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env={"PYTHONPATH": str(src)}, timeout=60)
    assert proc.stderr == ""
    *output, last = proc.stdout.splitlines()
    code, loaded = json.loads(last)
    assert code == 0
    assert not unloaded & set(loaded)
    if argv[0] == "verify":
        assert json.loads(output[0])["ok"] is True


def _printed(parse, argv) -> tuple:
    """(exit status, stdout, stderr) of parse(argv), which exits."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exit_:
        parse(argv)
    return exit_.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", [None, *cli.SUBCOMMANDS])
def test_main_prints_the_help_and_usage_errors_of_the_full_parser(command):
    """main adds the arguments of the invoked subcommand only, and prints what
    the parser of every subcommand prints."""
    usage_error = ["no-such-command"] if command is None else [command, "--no-such-option"]
    for argv in ([*usage_error[:-1], "--help"], usage_error):
        status, out, err = _printed(main, argv)
        assert (status, out, err) == _printed(build_parser().parse_args, argv)
        assert status == (0 if argv[-1] == "--help" else 2)


def test_a_series_error_is_one_usage_error_line():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "mapquot.cli", "two-point", "--family", "quad", "--i", "0"],
        capture_output=True, text=True, env={"PYTHONPATH": str(src)}, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "error: distance must be at least 1\n")


# a path u-v-w: edges 0 and 1 both join u and v, edge 3 is a loop at w
LOOP_AND_DOUBLE_EDGE = PlaneMap([2, 4, 0, 1, 3, 6, 7, 5])


class TestRenderCommand:
    def test_square_renders_polygon(self, capsys, monkeypatch):
        import io, sys

        record = jsonio.dumps(jsonio.map_record(square_map()))
        monkeypatch.setattr(sys, "stdin", io.StringIO(record))
        code, out = run_cli(capsys, "render")
        assert code == 0
        assert out.startswith("<svg")
        assert out.count("<line") == 4

    @pytest.mark.parametrize("m,strokes", [(cube(), (12, 0, 0)), (LOOP_AND_DOUBLE_EDGE, (2, 1, 1))],
                             ids=["cube", "loop-and-double-edge"])
    def test_one_dot_per_vertex_and_one_stroke_per_edge(self, capsys, monkeypatch, m, strokes):
        """Lines for edges, a bowed path for a second parallel edge, a circle
        of radius 8 for a loop, and a dot of radius 3 for each vertex."""
        record = jsonio.dumps(jsonio.map_record(m))
        code, out, err = run_on_stdin(capsys, monkeypatch, record, "render")
        assert (code, err) == (0, "")
        assert out.startswith("<svg") and out.endswith("</svg>\n")
        assert out.count('r="3"') == m.n_vertices
        assert (out.count("<line"), out.count("<path"), out.count('r="8"')) == strokes
        assert sum(strokes) == m.n_edges
        assert run_on_stdin(capsys, monkeypatch, record, "render")[1] == out

    def test_degenerate_map_gets_schematic(self, capsys, monkeypatch):
        import io, sys

        record = jsonio.dumps(jsonio.map_record(PlaneMap([1, 0], 0)))
        monkeypatch.setattr(sys, "stdin", io.StringIO(record))
        code, out = run_cli(capsys, "render")
        assert code == 0
        assert "<text" in out


SQUARE = jsonio.map_record(square_map())
MALFORMED = {
    "no sigma": {"n_darts": 2},
    "top-level list": [SQUARE],
    "string dart": {"sigma": ["a", 1]},
    "float dart": {"sigma": [1.0, 0]},
    "bool root": dict(SQUARE, root=True),
    "null root": dict(SQUARE, root=None),
    "string pointed": dict(SQUARE, pointed="0"),
    "float in rho": dict(SQUARE, rho=[0, 1, 2, 3, 4, 5, 6, 7.5], k=2, pointed=0),
    "bool orient bit": dict(SQUARE, orient=[0, 1, True, None]),
    "orient bit 2": dict(SQUARE, orient=[0, 1, 2, None]),
    "string n_darts": dict(SQUARE, n_darts="8"),
    "n_darts off sigma": dict(SQUARE, n_darts=6),
    "short orient": dict(SQUARE, orient=[0, 1]),
    "pointed out of range": dict(SQUARE, pointed=99),
}
# the rotation rejections, each on a valid symmetric record with one field changed
SYMMETRIC = jsonio.symmetric_record(census.symmetric_simple_quadrangulations(1)[0])
MALFORMED.update({
    "order 1": dict(SYMMETRIC, k=1),
    "rho no permutation": dict(SYMMETRIC, rho=[0] * 12),
    "rho off sigma": dict(SYMMETRIC, rho=[d ^ 1 for d in range(12)]),
    "rho off alpha": dict(SYMMETRIC, rho=SYMMETRIC["sigma"]),
    "rho of order 1": dict(SYMMETRIC, rho=list(range(12))),
    # the other rotation of order 2, which moves the center
    "rho off the center": dict(SYMMETRIC, rho=[3, 2, 1, 0, 8, 9, 10, 11, 4, 5, 6, 7]),
})
# the one size-1 center is fixed by every rotation that fixes the outer face,
# so the outer-face rejection is made on a size-2 record, pointed off its center
SYMMETRIC_2 = jsonio.symmetric_record(census.symmetric_simple_quadrangulations(2)[0])
MALFORMED["rho off the outer face"] = dict(SYMMETRIC_2, rho=list(range(19, -1, -1)), pointed=4)
# the message of each row that reaches a rejection no other row reaches
REJECTIONS = {
    "n_darts off sigma": "n_darts does not match sigma",
    "short orient": "orient array must have one entry per edge",
    "pointed out of range": "pointed vertex out of range",
    "order 1": "symmetry order must be at least 2",
    "rho no permutation": "rho is not a dart permutation",
    "rho off sigma": "rho does not commute with sigma",
    "rho off alpha": "rho does not commute with alpha",
    "rho of order 1": "rho does not have order exactly k",
    "rho off the center": "rho does not fix the center vertex",
    "rho off the outer face": "rho does not fix the outer face",
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=8) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=20,
)
# records that keep most fields of a valid one and retype a few
near_records = st.dictionaries(
    st.sampled_from(sorted(SQUARE)), json_values, max_size=4
).map(lambda changes: {**SQUARE, **changes})


def run_orient(text):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(text)), redirect_stdout(out), redirect_stderr(err):
        code = main(["orient"])
    return code, out.getvalue(), err.getvalue()


class TestInputContract:
    @pytest.mark.parametrize("name", list(MALFORMED))
    def test_malformed_record_is_an_input_error(self, name):
        code, out, err = run_orient(json.dumps(MALFORMED[name]))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        if name in REJECTIONS:
            assert err == f"error: {REJECTIONS[name]}\n"

    @settings(max_examples=150, deadline=None)
    @given(record=json_values | near_records)
    def test_any_json_exits_0_or_2_with_one_error_line(self, record):
        code, out, err = run_orient(json.dumps(record))
        assert code in (0, 2)
        if code == 2:
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
        else:
            jsonio.parse_map(json.loads(out))

    def test_process_exit_code_without_traceback(self):
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "mapquot.cli", "orient"],
            input="[1, 2]", capture_output=True, text=True,
            env={"PYTHONPATH": str(src)}, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: a map record must be a JSON object\n"

    @pytest.mark.parametrize("text", ["", "{", '{"sigma": [1, 0]', "not json"],
                             ids=["empty", "open-brace", "unclosed", "bare-word"])
    def test_malformed_json_is_an_input_error(self, capsys, monkeypatch, text):
        code, out, err = run_on_stdin(capsys, monkeypatch, text, "quotient", "classic")
        assert_usage_error(code, out, err, "bad JSON input")

    def test_missing_input_file_is_an_input_error(self, capsys, tmp_path):
        code = main(["orient", "--input", str(tmp_path / "absent.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_output_file_is_truncated(self, capsys, tmp_path):
        src = tmp_path / "in.json"
        dst = tmp_path / "out.json"
        src.write_text(jsonio.dumps(SQUARE))
        for _ in range(2):
            assert main(["orient", "--input", str(src), "--output", str(dst)]) == 0
        lines = dst.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["sigma"] == SQUARE["sigma"]
