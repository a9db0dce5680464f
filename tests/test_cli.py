import hashlib
import json
import os
import subprocess
import sys
from math import factorial
from pathlib import Path

import pytest

from debruijn_sft import build_graph, cli, counting, export_dot, structure
from debruijn_sft.cli import main

from corpus import cyclic_windows, graph_of


GOLDEN5 = ("--alphabet", "01", "--forbid", "11", "--span", "5")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_words(capsys):
    code, out, _ = run(capsys, "words", "--alphabet", "01", "--forbid", "11", "--span", "3")
    assert code == 0
    assert out.splitlines() == ["000", "001", "010", "100"]
    code, out, _ = run(capsys, "words", "--alphabet", "01", "--forbid", "11",
                       "--span", "5", "--count-only")
    assert (code, out.strip()) == (0, "11")
    code, out, _ = run(capsys, "words", "--alphabet", "01", "--span", "2", "--json")
    assert json.loads(out) == ["00", "01", "10", "11"]


def test_graph_stats_and_exports(capsys, tmp_path):
    dot = tmp_path / "g.dot"
    js = tmp_path / "g.json"
    code, out, _ = run(capsys, "graph", "--alphabet", "01", "--forbid", "11",
                       "--span", "5", "--dot", str(dot), "--json", str(js))
    assert code == 0
    assert "vertices 13" in out
    assert "arcs 18" in out
    assert "max-vertex 10101" in out
    assert dot.read_text().count("->") == 18
    data = json.loads(js.read_text())
    assert len(data["vertices"]) == 13


def test_graph_highlight_t(capsys, tmp_path):
    dot = tmp_path / "t.dot"
    code, out, _ = run(capsys, "graph", "--alphabet", "01", "--forbid", "01111",
                       "--span", "4", "--dot", str(dot), "--highlight-t")
    assert code == 0
    # One reserved arc per non-root vertex: 14 styled arcs.
    assert dot.read_text().count("style=bold") == 14
    # The bold arcs are each non-root vertex's maximum-label out-arc.
    for alphabet, forbid, n in [("01", ("11",), 5), ("01", ("01111",), 4),
                                ("012", ("22",), 4), ("01", (), 6)]:
        argv = ["graph", "--alphabet", alphabet, "--span", str(n), "--dot", str(dot), "--highlight-t"]
        assert main(argv + [a for w in forbid for a in ("--forbid", w)]) == 0
        g = graph_of((alphabet, forbid, n))
        assert dot.read_text() == export_dot(g, {g.out[v][-1] for v in g.vertices[:-1]}), alphabet


def test_seq_covers_words(capsys):
    code, out, _ = run(capsys, "seq", "--alphabet", "01", "--forbid", "11", "--span", "5")
    assert code == 0
    label = out.strip()
    assert len(label) == 18
    from debruijn_sft import Language, enumerate_words

    lang = Language.from_text("01", ("11",))
    word = lang.alphabet.word(label)
    assert cyclic_windows(word, 6) == sorted(enumerate_words(lang, 6))


def test_seq_start_flag(capsys):
    code, out, _ = run(capsys, "seq", "--alphabet", "01", "--span", "3",
                       "--start", "000", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["start"] == "000"
    assert data["eulerian"] is True
    assert data["arcCount"] == 16


def test_seq_empty_start_is_rejected(capsys):
    code, _, err = run(capsys, "seq", "--alphabet", "01", "--span", "3", "--start", "")
    assert (code, err) == (2, "usage error: vertex () is not in the graph\n")


@pytest.mark.parametrize("start", ["11111", "1010", "101010"])
def test_seq_start_outside_the_graph_is_rejected(capsys, start):
    # 11111 has the right length but is forbidden; the others are too short
    # or too long.
    code, out, err = run(capsys, "seq", "--alphabet", "01", "--forbid", "11",
                         "--span", "5", "--start", start)
    vertex = tuple(map(int, start))
    assert (code, out, err) == (2, "", f"usage error: vertex {vertex} is not in the graph\n")


# sha256 of stdout, computed before the walks moved to vertex ids.
WALK_DIGESTS = {
    ("seq", "01", ("11",), 16): (
        "66cbe65cb2a9861eafba62aa560b3e0141ce96ae9f9fe823dcc97fcf6fea7cb1",
        "8729f464e900b44d09f072dc18f993fa33268211bbad66f7c482f65cd3fff726"),
    ("seq", "01", ("11",), 20): (
        "aea056241dd455b35ca61ae9f6aee1f505772732e19c0669af35377811fae3d9",
        "ebfe15c0c3dfcc25888a9028e3107cefebd2b63a13d4ca34496a1b3ba388453d"),
    ("seq", "01", (), 11): (
        "e20fd0e759f12463389278e5b4eca9b0f09552b01310a4859cdccbff7c804e8c",
        "9809f0208b31c0b564db2eefa60bcca89018e68c9b7f7d5f197e98fb0e420bcd"),
    ("seq", "012", ("22",), 7): (
        "8f10df6793070f7c33f29d1552f7a35d15266838ab67809da9df7cfaf20d7d1b",
        "40b96f8bdc1f5a61eb1eed817a65d896db2373e2c7ce84450109009ad04cc827"),
    ("seq", "01", ("01111",), 11): (
        "45a12fe3e57766fcb27b19a3defda039cbea91f88ea4e1189feef481f2098b84",
        "744dcdab3de8380ed06390ea1015102f49fea32897d41393144813e968ae3e86"),
    ("minimal", "01", ("11",), 16): (
        "ff0e71f8ad4010b95239a74e029ffa15374cf361416ec88166e74e56dd1b91a6",
        "88799e86dca169e634b0a6a3b6faebbe380074ac61c07096c2bfbdf1cbe8e3aa"),
    ("minimal", "01", ("11",), 20): (
        "ff572347dad0899a1683f34016575095f0054ba8934b002907652312587aa74b",
        "0bd043b409921e1449514a135856564b8dbe587e9cad59f679c2ef4b2c26efec"),
    ("minimal", "01", (), 11): (
        "8a825353001151b881ff39ec3195d33071f01dc6f69b82d7143a6f6c43f15c9c",
        "9809f0208b31c0b564db2eefa60bcca89018e68c9b7f7d5f197e98fb0e420bcd"),
    ("minimal", "012", ("22",), 7): (
        "f2188a49c57828b15a21d3d5abe1844fa5ada62abdda04d5df3421cced85ac80",
        "9559cba7aacf92fd7ab7f262a4ece1837ef6f3bfa85f2ce25bb3d8936faef537"),
    ("minimal", "01", ("01111",), 11): (
        "287ef33d2fe25e3b8cb55b34b3d8b007f7698f9bf60a219d41a89adaf185c7df",
        "a2c63e7902a3d2197ba930487f4b0ffd5389ebe92f2f8382f075fab27b634832"),
}


@pytest.mark.parametrize("key", WALK_DIGESTS, ids=lambda k: "-".join(map(str, k)))
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_walk_bytes_pinned(capsys, key, as_json):
    command, alphabet, forbid, span = key
    argv = [command, "--alphabet", alphabet, "--span", str(span)]
    for f in forbid:
        argv += ["--forbid", f]
    code, out, err = run(capsys, *argv, *(["--json"] if as_json else []))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == WALK_DIGESTS[key][as_json]


def test_minimal(capsys):
    code, out, _ = run(capsys, "minimal", "--alphabet", "01", "--span", "3")
    assert code == 0
    assert out.splitlines() == ["0000100110101111", "eulerian true"]


def test_check_golden5(capsys):
    code, out, _ = run(capsys, "check", "--alphabet", "01", "--forbid", "11", "--span", "5")
    assert code == 0
    lines = out.splitlines()
    assert "vertices 13" in lines
    assert "arcs 18" in lines
    assert "minimal-eulerian false" in lines
    assert "via-tree false" in lines
    assert "via-obstructions false" in lines


def test_check_blocked_instance_prints_witnesses(capsys):
    code, out, _ = run(capsys, "check", "--alphabet", "01", "--forbid", "01111", "--span", "4")
    assert code == 0
    assert "minimal-eulerian false" in out
    assert any(line.startswith("cycle ") for line in out.splitlines())
    assert any(line.startswith("obstruction ") for line in out.splitlines())


VIEW_ARGVS = [GOLDEN5, ("--alphabet", "01", "--forbid", "01111", "--span", "4"),
              ("--alphabet", "012", "--forbid", "22", "--span", "4")]


def tuple_views_built(monkeypatch, capsys, *argv, code=0):
    """The tuple views of its graph that one CLI run, exiting with `code`,
    built; a successful run must print."""
    built = []

    def build_and_keep(*args):
        built.append(build_graph(*args))
        return built[-1]

    monkeypatch.setattr(cli, "build_graph", build_and_keep)
    got, out, _ = run(capsys, *argv)
    assert got == code and (out or code)
    return {"vertices", "arcs", "out"} & set(built[0].__dict__)


@pytest.mark.parametrize("argv", VIEW_ARGVS, ids=" ".join)
def test_check_builds_no_tuple_graph(monkeypatch, capsys, argv):
    assert not tuple_views_built(monkeypatch, capsys, "check", *argv)


@pytest.mark.parametrize("argv", VIEW_ARGVS, ids=" ".join)
@pytest.mark.parametrize("command", [
    # The largest graph of VIEW_ARGVS has 152 arcs; the oracle finds its
    # first circuits at once.
    # --highlight-t marks arcs only in the DOT file; without --dot it costs nothing.
    "verify", "graph", "graph --highlight-t", "oracle --max-arcs 152", "oracle --json --max-arcs 152",
    "oracle --global --max-arcs 152", "check --json", "minimal --json", "seq --json",
    "count --json",
])
def test_verify_and_graph_build_no_tuple_graph(monkeypatch, capsys, command, argv):
    assert not tuple_views_built(monkeypatch, capsys, *command.split(), *argv)


@pytest.mark.parametrize("flags", [(), ("--global",)], ids=["certify", "global"])
def test_refused_oracle_builds_no_tuple_graph(monkeypatch, capsys, flags):
    # GOLDEN5 has 18 arcs; the size guard counts them on the id tables.
    argv = ("oracle", *GOLDEN5, "--max-arcs", "17", *flags)
    assert not tuple_views_built(monkeypatch, capsys, *argv, code=1)


def test_check_json_round_trip(capsys):
    code, out, _ = run(capsys, "check", "--alphabet", "01", "--forbid", "11",
                       "--span", "5", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["decision"]["answer"] is False
    assert json.loads(json.dumps(data)) == data


@pytest.mark.parametrize("argv, digest", [
    (("--alphabet", "01", "--forbid", "11", "--span", "12"),
     "872377c82ed15571a0f0e468d55b30106b00bd06c84ac98411cd2396720f9d62"),
    (("--alphabet", "01", "--span", "8"),
     "c1c92c71dc6566802623df3c45229254a0ac3434c2c63e28221177c0dee73672"),
    (("--alphabet", "012", "--forbid", "22", "--span", "5"),
     "683ddb387de2c6df8e1c841df98fbcfee431cef31aee36d7de664ad3a79bc2e4"),
])
def test_check_json_bytes_pinned(capsys, argv, digest):
    # Pins the per-vertex overlap, overlapNext, floor and restricted fields,
    # which plain `check` does not print.
    code, out, _ = run(capsys, "check", *argv, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("forbid, span, cycles, digest", [
    ("11", 24, 45, "15b71ea894c2416e92b903a9ce83a9d8236b1122e81cc18d347612d7a1abdd66"),
    ("111", 13, 9, "caecff00a8ee38d0f90d2111b94fe4f49f608db2f63be27d63d5165b2b6a1790"),
    ("01111", 10, 3, "a6779ce065e0f52b9ac9c8077835557598d4a30d48eb68035cde584d4c70b7e1"),
    ("0110", 20, 1, "0ef1c7d6162c912e48237194d90579171e005668590dbf2feba9dc327c99daae"),
], ids=["11-24", "111-13", "01111-10", "0110-20"])
def test_check_text_bytes_pinned(capsys, forbid, span, cycles, digest):
    # sha256 of stdout, computed when each cycle's label was read vertex by
    # vertex from `classify_vertex`; pins the `cycle ... label ...` lines.
    code, out, err = run(capsys, "check", "--alphabet", "01", "--forbid", forbid, "--span", str(span))
    assert (code, err) == (0, "")
    assert sum(line.startswith("cycle ") for line in out.splitlines()) == cycles
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_count(capsys):
    code, out, _ = run(capsys, "count", "--alphabet", "01", "--forbid", "11", "--span", "5")
    assert (code, out.strip()) == (0, "2")
    code, out, _ = run(capsys, "count", "--alphabet", "01", "--forbid", "11",
                       "--span", "5", "--json")
    data = json.loads(out)
    assert data == {"root": "10101", "spanningTrees": "2", "eulerianCycles": "2"}


@pytest.mark.parametrize("alphabet, span", [("01", n) for n in range(1, 11)]
                         + [("012", n) for n in range(1, 7)])
def test_count_full_language_closed_form(capsys, alphabet, span):
    k = len(alphabet)
    expected = factorial(k) ** (k ** span) // k ** (span + 1)
    code, out, _ = run(capsys, "count", "--alphabet", alphabet, "--span", str(span))
    assert (code, out) == (0, f"{expected}\n")


def test_count_golden_mean_span_12(capsys):
    # 377 vertices; the value is the fraction-free Bareiss reference's.
    code, out, _ = run(capsys, "count", "--alphabet", "01", "--forbid", "11", "--span", "12")
    assert (code, out) == (0, "172689621523970700914229906330739461111808\n")


def test_count_prints_past_the_int_digit_limit(capsys):
    # 2^(2^14 - 15) has 4,928 digits, past CPython's default limit of 4,300
    # on converting an int to text; the count lifts it only to print, and
    # the caller's setting comes back.
    expected = 2 ** (2 ** 14 - 15)
    limited = hasattr(sys, "set_int_max_str_digits")
    if limited:
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run(capsys, "count", "--alphabet", "01", "--span", "14")
        json_code, json_out, json_err = run(capsys, "count", "--alphabet", "01", "--span", "14",
                                            "--json")
        if limited:
            assert sys.get_int_max_str_digits() == 4300
            sys.set_int_max_str_digits(0)
        assert (code, err) == (json_code, json_err) == (0, "")
        assert out == f"{expected}\n"
        assert json.loads(json_out) == {
            "root": "1" * 14, "spanningTrees": str(expected), "eulerianCycles": str(expected),
        }
    finally:
        if limited:
            sys.set_int_max_str_digits(before)


def test_short_span_warning_is_one_line(capsys):
    code, out, err = run(capsys, "graph", "--alphabet", "01", "--forbid", "011", "--span", "1")
    assert (code, out) == (0, "span 1\nalphabet 01\nvertices 2\narcs 4\nmax-vertex 1\n")
    assert err == ("warning: span 1 is shorter than the longest forbidden word minus one; "
                   "arcs cannot see every constraint\n")


def test_oracle_certify(capsys):
    code, out, _ = run(capsys, "oracle", "--alphabet", "01", "--forbid", "11", "--span", "5")
    assert code == 0
    assert "pass true" in out
    code, out, _ = run(capsys, "oracle", "--alphabet", "01", "--forbid", "01111",
                       "--span", "4", "--max-arcs", "26", "--json")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_oracle_global(capsys):
    code, out, _ = run(capsys, "oracle", "--alphabet", "01", "--forbid", "11",
                       "--span", "2", "--global")
    assert code == 0
    assert out.splitlines() == ["start 01", "label 0001"]


def test_verify_clean(capsys):
    code, out, _ = run(capsys, "verify", "--alphabet", "01", "--forbid", "11", "--span", "5")
    assert code == 0
    assert all(line.startswith("ok ") for line in out.splitlines())


# Full `verify` output on graphs with thousands of vertices, past the reach
# of the quadratic exhaustion-order reference.
@pytest.mark.parametrize("forbid, span, expected", [
    ("11", 16, [
        "ok exhaustion-order checks=28561",
        "ok label-monotonicity checks=1946",
        "ok cycle-structure checks=6",
        "ok overlap-bounds checks=3570",
        "ok floor-paths checks=5643",
        "ok cycle-label-blocks checks=5",
        "ok cycle-label-blocks checks=3",
        "ok cycle-label-blocks checks=3",
        "ok cycle-label-blocks checks=3",
        "ok cycle-label-blocks checks=3",
        "ok cycle-label-blocks checks=3",
        "ok greedy-decision checks=1837",
    ]),
    ("01111", 12, [
        "ok exhaustion-order checks=12171",
        "ok label-monotonicity checks=2224",
        "ok cycle-structure checks=5",
        "ok overlap-bounds checks=5070",
        "ok floor-paths checks=8978",
        "ok cycle-label-blocks checks=5",
        "ok cycle-label-blocks checks=2",
        "ok cycle-label-blocks checks=2",
        "ok cycle-label-blocks checks=2",
        "ok cycle-label-blocks checks=3",
        "ok greedy-decision checks=911",
    ]),
], ids=["golden-16", "01111-12"])
def test_verify_pinned_on_large_graphs(capsys, forbid, span, expected):
    code, out, _ = run(capsys, "verify", "--alphabet", "01", "--forbid", forbid,
                       "--span", str(span))
    assert code == 0
    assert out.splitlines() == expected


def test_domain_error_exit_1(capsys):
    code, _, err = run(capsys, "graph", "--alphabet", "01", "--forbid", "01",
                       "--forbid", "10", "--span", "2")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("argv, code", [
    (["check", "--alphabet", "01", "--forbid", "11", "--span", "6"], 0),
    (["graph", "--alphabet", "01", "--forbid", "01", "--forbid", "10", "--span", "2"], 1),
    (["words", "--alphabet", "01", "--forbid", "2", "--span", "3"], 2),
], ids=["ok", "domain-error", "usage-error"])
def test_console_script_entry_exits_with_mains_code(monkeypatch, capsys, argv, code):
    # The installed `debruijn-sft` script calls cli.entry(), which reads sys.argv.
    assert main(argv) == code
    want = capsys.readouterr()
    monkeypatch.setattr(sys, "argv", ["debruijn-sft", *argv])
    with pytest.raises(SystemExit) as exit_:
        cli.entry()
    assert exit_.value.code == code and capsys.readouterr() == want


def test_oracle_too_large_exit_1(capsys):
    code, _, err = run(capsys, "oracle", "--alphabet", "01", "--span", "4")
    assert code == 1
    assert "exceeds" in err


def test_usage_error_exit_2(capsys):
    code, _, err = run(capsys, "words", "--span", "3")
    assert code == 2
    assert "alphabet" in err


def test_forbid_file(capsys, tmp_path):
    spec = tmp_path / "lang.txt"
    spec.write_text("01\n11\n")
    code, out, _ = run(capsys, "words", "--forbid-file", str(spec), "--span", "3")
    assert code == 0
    assert out.splitlines() == ["000", "001", "010", "100"]
    # Extra --forbid flags merge with the file.
    code, out, _ = run(capsys, "words", "--forbid-file", str(spec), "--forbid", "000",
                       "--span", "3", "--count-only")
    assert (code, out.strip()) == (0, "3")
    # A conflicting --alphabet is a usage error.
    code, _, _ = run(capsys, "words", "--forbid-file", str(spec), "--alphabet", "012",
                     "--span", "3")
    assert code == 2
    # So is a missing file.
    code, _, err = run(capsys, "words", "--forbid-file", str(tmp_path / "nope.txt"),
                       "--span", "3")
    assert code == 2


def test_byte_identical_reruns(capsys):
    outputs = []
    for _ in range(2):
        _, out, _ = run(capsys, "check", "--alphabet", "01", "--forbid", "01111", "--span", "4")
        outputs.append(out)
    assert outputs[0] == outputs[1]
    for _ in range(2):
        _, out, _ = run(capsys, "verify", "--alphabet", "012", "--forbid", "002", "--span", "3")
        outputs.append(out)
    assert outputs[2] == outputs[3]


def test_oracle_long_circuit_needs_no_recursion(capsys):
    # 2048 arcs: one stack frame per arc would pass the recursion limit.
    code, out, _ = run(capsys, "oracle", "--alphabet", "01", "--span", "10",
                       "--max-arcs", "5000")
    assert code == 0
    fields = dict(line.split(" ", 1) for line in out.splitlines())
    assert fields["pass"] == "true"
    assert fields["oracle-label"] == fields["greedy-label"]


@pytest.mark.parametrize("bound", ["-1", "0"])
def test_oracle_arc_bound_below_one_is_a_usage_error(capsys, bound):
    code, out, err = run(capsys, "oracle", "--alphabet", "01", "--forbid", "1",
                         "--span", "3", "--max-arcs", bound)
    assert (code, out) == (2, "")
    assert err == f"usage error: --max-arcs must be at least 1, got {bound}\n"


def test_words_long_span_needs_no_recursion(capsys):
    # 1200 letters deep: one stack frame per letter would pass the
    # recursion limit.
    code, out, _ = run(capsys, "words", "--alphabet", "01", "--forbid", "0",
                       "--span", "1200", "--count-only")
    assert (code, out) == (0, "1\n")


def test_closed_stdout_reader_stops_quietly():
    # 16384 lines are more than a pipe holds, so writing must fail once the
    # reader has closed its end, buffered or not.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "debruijn_sft", "words", "--alphabet", "01", "--span", "14"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=60), err) == (1, b"")


def test_out_of_memory_is_one_error_line(monkeypatch, capsys):
    def build_graph_out_of_memory(lang, n):
        raise MemoryError
    monkeypatch.setattr(cli, "build_graph", build_graph_out_of_memory)
    code, out, err = run(capsys, "check", *GOLDEN5)
    assert (code, out) == (1, "")
    assert err.startswith("error: out of memory") and err.count("\n") == 1


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # Together they are most of the start-up cost of a fresh process;
    # json is needed only for --json output.
    src = str(Path(__file__).parent.parent / "src")
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import debruijn_sft.cli; "
        "print(sorted({'dataclasses', 'inspect', 'json'} & set(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-I", "-c", probe, src],
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout == "[]\n"


def test_later_call_does_not_see_earlier_forbidden_words(capsys):
    # The parser is shared by every call in the process.
    run(capsys, "words", "--alphabet", "01", "--forbid", "11", "--span", "3")
    code, out, _ = run(capsys, "words", "--alphabet", "01", "--span", "3", "--count-only")
    assert (code, out) == (0, "8\n")


def count_calls(monkeypatch, functions):
    """Wrap each function at every package module binding that holds it;
    the returned dict counts calls by function name."""
    modules = [m for name, m in sys.modules.items() if name.startswith("debruijn_sft.")]
    calls = dict.fromkeys((f.__name__ for f in functions), 0)
    for fn in functions:
        def counted(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)
        for mod in modules:
            if getattr(mod, fn.__name__, None) is fn:
                monkeypatch.setattr(mod, fn.__name__, counted)
    return calls


ANALYSES = (structure.analyze_max_arcs, structure.enumerate_obstructions)


@pytest.mark.parametrize("argv, functions", [
    (("check",), ANALYSES),
    (("check", "--json"), ANALYSES),
    (("verify",), ANALYSES),
    (("oracle",), ANALYSES),
    (("count",), (counting.integer_determinant,)),
    (("count", "--json"), (counting.integer_determinant,)),
], ids=["check", "check-json", "verify", "oracle", "count", "count-json"])
def test_each_analysis_runs_once_per_job(monkeypatch, capsys, argv, functions):
    calls = count_calls(monkeypatch, functions)
    code, _, _ = run(capsys, argv[0], *GOLDEN5, *argv[1:])
    assert code == 0
    assert calls == dict.fromkeys(calls, 1)


@pytest.mark.parametrize("argv, made", [
    (("check",), 0),
    (("check", "--json"), 1),
    (("verify",), 1),
    (("oracle",), 0),
    (("graph", "--dot", "{tmp}/g.dot", "--highlight-t"), 0),
], ids=["check", "check-json", "verify", "oracle", "graph-highlight-t"])
def test_overlap_states_are_made_only_where_read(monkeypatch, capsys, tmp_path, argv, made):
    # Only the per-vertex overlap data reads the automaton of the maximal
    # vertex: `check --json` and the verifiers, once per job.
    calls = count_calls(monkeypatch, (structure._overlap_states,))
    argv = [a.format(tmp=tmp_path) for a in argv]
    code, _, _ = run(capsys, argv[0], *GOLDEN5, *argv[1:])
    assert code == 0
    assert calls == {"_overlap_states": made}
