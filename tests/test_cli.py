import concurrent.futures
import io
import json
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapquot import census, jsonio, verify
from mapquot.cli import main
from mapquot.maps import PlaneMap, unrooted_code
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


def test_readme_commands_exit_0(capsys):
    """Every README "Command line" example that reads no stdin succeeds."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv for argv in commands if argv[1] in ("series", "two-point", "enumerate")]
    assert [argv[1] for argv in commands] == ["series", "two-point", "enumerate", "enumerate"]
    for argv in commands:
        code = main(argv[1:])
        assert code == 0, (" ".join(argv), capsys.readouterr().err)


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
        _, out = run_cli(
            capsys, "series", "--name", "two_point", "--family", "tri_irred", "--i", "2",
            "--order", "4",
        )
        assert json.loads(out)["size_convention"] == "n, with (2n+1)k inner faces"

    @pytest.mark.parametrize("extra", [(), ("--i", "2"), ("--family", "quad")],
                             ids=["neither", "no-family", "no-i"])
    def test_two_point_name_needs_family_and_i(self, capsys, extra):
        code = main(["series", "--name", "two_point", *extra])
        captured = capsys.readouterr()
        assert_usage_error(code, captured.out, captured.err,
                           "--name two_point needs --family and --i")

    def test_deterministic_output(self, capsys):
        _, out1 = run_cli(capsys, "series", "--name", "t", "--order", "10")
        _, out2 = run_cli(capsys, "series", "--name", "t", "--order", "10")
        assert out1 == out2


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
    ["series", "--name", "two_point", "--family", "quad", "--i", "1", "--order", "-1"],
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
        requested = []

        class InProcessPool:  # records its size and runs each item at once
            def __init__(self, max_workers, mp_context):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        # series_golden is one item, and the orientation check one per family
        # and one for its symmetric members; the orientation items go first
        items = 1 + len(verify._orientation_items(small=True))
        suite = ["verify", "--suite", "series_golden,orientations", "--max-size", "small"]
        code, out = run_cli(capsys, *suite, "--jobs", "64")
        assert code == 0
        assert [r["check"] for r in json.loads(out)["results"]] == ["series_golden", "orientations"]
        code, _ = run_cli(capsys, *suite, "--jobs", "2")
        assert code == 0
        code, _ = run_cli(capsys, "verify", "--suite", "series_golden", "--jobs", "4")
        assert code == 0
        assert requested == [items, 2]

    def test_a_dead_worker_fails_its_checks(self):
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "import os, sys\n"
            "from mapquot import cli, verify\n"
            "verify.CHECKS['dies'] = lambda small: os._exit(3)\n"
            "sys.exit(cli.main(['verify', '--suite', 'series_golden,dies', '--jobs', '2']))\n"
        )
        # the output pipes close only when no worker holds them open
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={"PYTHONPATH": str(src)}, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr == ""
        payload = json.loads(proc.stdout)
        assert payload["ok"] is False
        dies = payload["results"][1]
        assert (dies["check"], dies["ok"]) == ("dies", False)
        assert "worker process died" in dies["detail"]


def test_start_up_imports_no_process_pool():
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import mapquot.cli, sys; "
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": str(src)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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
    @pytest.mark.parametrize("record", MALFORMED.values(), ids=list(MALFORMED))
    def test_malformed_record_is_an_input_error(self, record):
        code, out, err = run_orient(json.dumps(record))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

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
