import gc
import random
import subprocess
import sys

import pytest

from gajdchase.cli import cmd_implies, cmd_tableau, cmd_verify, main, parse
from gajdchase.errors import ProblemParseError
from conftest import (
    CHAIN4_NEGATIVE_PROBLEM,
    CHAIN4_PROBLEM,
    is_normalized,
    random_hypertree,
    relation_from_text,
    subprocess_env,
)


class TestParse:
    def test_standard_file(self):
        problem = parse(CHAIN4_PROBLEM)
        assert list(problem.attrs) == ["A1", "A2", "A3", "A4"]
        assert set(problem.constraints) == {"C1", "C2"}
        assert len(problem.queries) == 1
        assert problem.queries[0].given == ("C1", "C2")

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\nattrs A B  # trailing\nquery {A B}\n"
        problem = parse(text)
        assert len(problem.queries) == 1
        assert problem.queries[0].given == ()

    def test_domain_sizes(self):
        problem = parse("attrs A B\ndomain A 3\nquery {A B}\n")
        assert problem.domain_sizes == {"A": 3}
        assert problem.domains().domains["A"] == ("0", "1", "2")

    def test_unknown_attribute_has_position(self):
        with pytest.raises(ProblemParseError) as excinfo:
            parse("attrs A B\ngajd C = {A Z}\n")
        assert excinfo.value.line == 2
        assert "Z" in str(excinfo.value)

    @pytest.mark.parametrize("text, line, column, name", [
        ("attrs A B C\ngajd X = {A A B} {B C}\nquery {A B} {B C} given X\n", 2, 10, "A"),
        ("attrs A B C\ngajd X = {A B} {B C}\nquery {A B} {C B C} given X\n", 3, 13, "C"),
        ("attrs A B C\nquery {A B B}\n", 2, 7, "B"),
    ], ids=["constraint", "query-given", "query"])
    def test_repeated_attribute_in_a_hyperedge(self, text, line, column, name):
        # A repeated name would otherwise be read as the set of the distinct ones.
        with pytest.raises(ProblemParseError, match=f"attribute '{name}' repeated in a hyperedge") as excinfo:
            parse(text)
        assert (excinfo.value.line, excinfo.value.column) == (line, column)

    def test_duplicate_constraint_name(self):
        text = "attrs A B\ngajd C = {A B}\ngajd C = {A} {B}\n"
        with pytest.raises(ProblemParseError, match="duplicate constraint"):
            parse(text)

    def test_non_hypertree_constraint_names_edges(self):
        text = "attrs A B C\ngajd C = {A B} {B C} {C A}\n"
        with pytest.raises(ProblemParseError) as excinfo:
            parse(text)
        message = str(excinfo.value)
        assert "{A B}" in message and "{B C}" in message and "{A C}" in message

    def test_empty_query_rejected(self):
        with pytest.raises(ProblemParseError, match="empty query"):
            parse("attrs A B\nquery\n")

    def test_missing_attrs_rejected(self):
        with pytest.raises(ProblemParseError, match="no attrs"):
            parse("# nothing\n")

    def test_unknown_given_name(self):
        with pytest.raises(ProblemParseError, match="unknown constraint"):
            parse("attrs A B\nquery {A B} given C9\n")

    def test_constraint_must_cover_scheme(self):
        with pytest.raises(ProblemParseError, match="covers"):
            parse("attrs A B C\ngajd C = {A B}\n")

    def test_bare_given_rejected(self):
        with pytest.raises(ProblemParseError, match="given"):
            parse("attrs A B\nquery {A B} given\n")

    def test_attribute_named_given(self):
        problem = parse("attrs A given B\nquery {A given B}\n")
        assert [e.render() for e in problem.queries[0].target.hypergraph.edges] == ["{A B given}"]
        assert problem.queries[0].given == ()
        problem = parse("attrs A given\ngajd C1 = {A} {given}\nquery {A given} given C1\n")
        assert problem.queries[0].given == ("C1",)

    def test_tabs_separate_like_spaces(self):
        spaced = "attrs A B C\ndomain A 3\ngajd C1 = {A B} {B C}\nquery {A B} {B C} given C1\n"
        tabbed = "attrs\tA\tB C\ndomain\tA\t3\ngajd\tC1\t=\t{A\tB}\t{B C}\nquery\t{A B}\t{B C}\tgiven\tC1\n"
        assert parse(tabbed) == parse(spaced)
        assert parse(tabbed).render() == spaced

    def test_tabs_around_given(self):
        problem = parse("attrs A given\ngajd C1 = {A} {given}\nquery {A given}\tgiven C1\n")
        assert problem.queries[0].given == ("C1",)
        problem = parse("attrs\tA\tgiven\nquery\t{A\tgiven}\n")
        assert [e.render() for e in problem.queries[0].target.hypergraph.edges] == ["{A given}"]
        assert problem.queries[0].given == ()
        with pytest.raises(ProblemParseError, match="given clause lists no constraints"):
            parse("attrs A B\nquery {A B}\tgiven\n")
        with pytest.raises(ProblemParseError, match="expected '{'"):
            parse("attrs A B\ngajd C = {A} {B}\nquery {A B}given\tC\n")

    def test_columns_after_tabs(self):
        for text in ("attrs A B\nquery {A B} {Z}\n", "attrs A B\nquery\t{A B}\t{Z}\n"):
            with pytest.raises(ProblemParseError) as excinfo:
                parse(text)
            assert (excinfo.value.line, excinfo.value.column) == (2, 13)
        with pytest.raises(ProblemParseError) as excinfo:
            parse("attrs A B\ngajd\tC\t=\t{A}\t{Z}\n")
        assert (excinfo.value.line, excinfo.value.column) == (2, 14)

    def test_unknown_directive(self):
        with pytest.raises(ProblemParseError, match="directive"):
            parse("attrs A B\nfrobnicate {A}\n")

    def test_constraint_name_must_be_single_token(self):
        with pytest.raises(ProblemParseError, match="single token"):
            parse("attrs A B\ngajd C 1 = {A B}\n")

    def test_round_trip_fixed(self):
        for text in (CHAIN4_PROBLEM, "attrs A B\ndomain A 2\ndomain B 3\nquery {A} {B}\n"):
            problem = parse(text)
            assert parse(problem.render()) == problem
            assert parse(problem.render()).render() == problem.render()

    def test_round_trip_generated(self):
        rng = random.Random(5)
        for _ in range(15):
            n = rng.randint(2, 5)
            attrs = [f"A{i+1}" for i in range(n)]
            constraints = {
                f"C{j+1}": random_hypertree(attrs, 3, rng) for j in range(rng.randint(0, 2))
            }
            lines = ["attrs " + " ".join(attrs)]
            for name, g in constraints.items():
                edges = " ".join(e.render() for e in g.hypergraph.edges)
                lines.append(f"gajd {name} = {edges}")
            target = random_hypertree(attrs, 3, rng)
            edges = " ".join(e.render() for e in target.hypergraph.edges)
            given = " given " + " ".join(constraints) if constraints else ""
            lines.append(f"query {edges}{given}")
            text = "\n".join(lines) + "\n"
            problem = parse(text)
            assert parse(problem.render()) == problem


class TestCmdImplies:
    def test_positive_with_factorization(self):
        problem = parse(CHAIN4_PROBLEM)
        code, text = cmd_implies(problem, factorize=True)
        assert code == 0
        assert "IMPLIES: yes" in text
        assert "FACTORIZATION: phi(a1,a2)*phi(a2,a3)*phi(a3,a4)/(phi(a2)*phi(a3))" in text

    def test_negative(self):
        problem = parse(CHAIN4_NEGATIVE_PROBLEM)
        code, text = cmd_implies(problem)
        assert code == 0
        assert "IMPLIES: no" in text

    def test_trace_lines(self):
        problem = parse(CHAIN4_PROBLEM)
        _, text = cmd_implies(problem, trace=True)
        assert "step 1: rule C1 rows [1,2] -> row (a1,a2,a3,b4) expr phi(a1,a2)*phi(a2,a3,b4)/phi(a2)" in text
        assert "step 2: rule C2 rows [4,3] -> row (a1,a2,a3,a4) expr phi(a1,a2,a3)*phi(a3,a4)/phi(a3)" in text

    def test_trace_json_records(self):
        import json

        problem = parse(CHAIN4_PROBLEM)
        _, text = cmd_implies(problem, trace_json=True)
        records = [json.loads(line) for line in text.splitlines() if line.startswith("{")]
        assert [r["step"] for r in records] == [1, 2]
        assert records[0]["rule"] == "C1"
        assert records[0]["rows"] == [1, 2]

    def test_expect_mismatch_sets_exit_code(self):
        problem = parse(CHAIN4_NEGATIVE_PROBLEM)
        code, _ = cmd_implies(problem, expect="yes")
        assert code == 1
        code, _ = cmd_implies(problem, expect="no")
        assert code == 0

    def test_byte_stable(self):
        problem = parse(CHAIN4_PROBLEM)
        first = cmd_implies(problem, trace=True, factorize=True)
        second = cmd_implies(problem, trace=True, factorize=True)
        assert first == second

    def test_row_cap(self, monkeypatch):
        from gajdchase.errors import ChaseRowLimitError

        monkeypatch.setenv("GAJD_CHASE_MAX_ROWS", "4")
        problem = parse(CHAIN4_NEGATIVE_PROBLEM)
        with pytest.raises(ChaseRowLimitError):
            cmd_implies(problem)


class TestCmdVerify:
    def test_positive_query_report(self):
        problem = parse(CHAIN4_PROBLEM)
        code, text = cmd_verify(problem, seed=1, trials=8)
        assert code == 0
        assert "IMPLIES: yes" in text
        assert "status=pass" in text

    def test_negative_query_dumps_distribution(self):
        problem = parse(CHAIN4_NEGATIVE_PROBLEM)
        code, text = cmd_verify(problem, seed=1, trials=8)
        assert code == 0
        assert "counterexample: seed=" in text
        dump = text[text.index("A1 A2 A3 A4 f"):]
        rel = relation_from_text(dump)
        assert is_normalized(rel, tol=1e-9)

    def test_zero_trials_rejected(self):
        from gajdchase.errors import GajdChaseError

        problem = parse(CHAIN4_PROBLEM)
        with pytest.raises(GajdChaseError):
            cmd_verify(problem, seed=0, trials=0)

    def test_deterministic(self):
        problem = parse(CHAIN4_PROBLEM)
        assert cmd_verify(problem, seed=3, trials=5) == cmd_verify(problem, seed=3, trials=5)

    def test_non_binary_domain(self):
        text = "attrs A B\ndomain A 3\ngajd C = {A} {B}\nquery {A B} given C\n"
        problem = parse(text)
        code, out = cmd_verify(problem, seed=2, trials=5)
        assert code == 0
        assert "IMPLIES: yes" in out and "status=pass" in out

    def test_golden_mixed_verdicts(self, golden_dir):
        # Three soundness reports and two counterexample tables over a 2x3x2x2
        # table, every query fitted to two constraints.
        problem = parse((golden_dir / "verify_mixed.gajd").read_text())
        code, out = cmd_verify(problem, seed=3, trials=8)
        assert code == 0
        assert out == (golden_dir / "verify_mixed_verify.txt").read_text()


class TestOnlyWhatIsPrinted:
    """The factorization and a tableau's `psi` are built only for output that prints them."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from gajdchase import chase, tableau

        counts = {"factorization_for": 0, "eq5_expression": 0}
        for module, name in ((chase, "factorization_for"), (tableau, "eq5_expression")):
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        return counts

    @pytest.mark.parametrize("text", [CHAIN4_PROBLEM, CHAIN4_NEGATIVE_PROBLEM])
    def test_verify_builds_neither(self, calls, text):
        code, _ = cmd_verify(parse(text), seed=1, trials=4)
        assert code == 0
        assert calls == {"factorization_for": 0, "eq5_expression": 0}

    @pytest.mark.parametrize("text", [CHAIN4_PROBLEM, CHAIN4_NEGATIVE_PROBLEM])
    def test_implies_without_trace_or_factorize_builds_no_factorization(self, calls, text):
        cmd_implies(parse(text), trace_json=True, expect="yes")
        assert calls["factorization_for"] == 0

    def test_the_wrappers_see_what_is_printed(self, calls):
        from gajdchase.prelation import DomainSpec, relation_from_domains
        from gajdchase.tableau import build_tr, run

        problem = parse(CHAIN4_PROBLEM)
        cmd_implies(problem, factorize=True)
        cmd_implies(problem, trace=True)
        assert calls["factorization_for"] == 2
        # run compiles the emission from the dependency's sets and builds no
        # psi; reading psi, as printing it does, goes through the wrapper.
        dom = DomainSpec.uniform(problem.attrs)
        t = build_tr(problem.queries[0].target)
        run(t, relation_from_domains(dom, [1.0 / 16] * 16))
        assert calls["eq5_expression"] == 0
        t.psi
        assert calls["eq5_expression"] == 1


def cyclic_garbage_after(call) -> int:
    """The objects the cyclic collector finds unreachable after `call()`, run with the collector off."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


class TestNoCyclicGarbage:
    """What a query builds (memo, rewrites, tableaux, join state) is freed by reference counting."""

    @pytest.mark.parametrize("text", [CHAIN4_PROBLEM, CHAIN4_NEGATIVE_PROBLEM], ids=["positive", "negative"])
    def test_implies(self, text):
        problem = parse(text)
        assert cyclic_garbage_after(lambda: cmd_implies(problem, trace=True, factorize=True)) == 0

    def test_verify(self):
        problem = parse(TestMultipleQueries.TEXT)
        # The first call may import numpy, whose import leaves cyclic garbage once.
        cmd_verify(problem, seed=1, trials=2)
        assert cyclic_garbage_after(lambda: cmd_verify(problem, seed=1, trials=2)) == 0

    def test_tableau_run(self):
        from gajdchase.prelation import DomainSpec, relation_from_domains
        from gajdchase.tableau import build_tr, run

        problem = parse(CHAIN4_PROBLEM)
        rel = relation_from_domains(DomainSpec.uniform(problem.attrs), [1.0 / 16] * 16)
        assert cyclic_garbage_after(lambda: run(build_tr(problem.queries[0].target), rel)) == 0


class TestMultipleQueries:
    TEXT = (
        "attrs A1 A2 A3 A4\n"
        "gajd C1 = {A1 A2} {A2 A3 A4}\n"
        "gajd C2 = {A1 A2 A3} {A3 A4}\n"
        "query {A1 A2} {A2 A3} {A3 A4} given C1 C2\n"
        "query {A1 A2} {A2 A3} {A3 A4} given C1\n"
    )

    def test_per_query_blocks_in_file_order(self):
        problem = parse(self.TEXT)
        code, text = cmd_implies(problem)
        assert code == 0
        lines = [ln for ln in text.splitlines() if ln.startswith(("query", "IMPLIES"))]
        assert lines == [
            "query 1: (x){A1 A2}{A2 A3}{A3 A4} given C1 C2",
            "IMPLIES: yes",
            "query 2: (x){A1 A2}{A2 A3}{A3 A4} given C1",
            "IMPLIES: no",
        ]

    def test_expect_applies_to_every_query(self):
        problem = parse(self.TEXT)
        code, _ = cmd_implies(problem, expect="yes")
        assert code == 1

    def test_tableau_picks_query_by_index(self):
        problem = parse(self.TEXT)
        assert cmd_tableau(problem, query_index=2) == cmd_tableau(problem, query_index=1)


class TestCmdTableau:
    def test_prints_initial_tableau(self):
        problem = parse(CHAIN4_PROBLEM)
        code, text = cmd_tableau(problem, query_index=1)
        assert code == 0
        lines = text.splitlines()
        assert lines[0].split() == ["A1", "A2", "A3", "A4", "f"]
        assert lines[1].split()[:4] == ["a1", "a2", "b1", "b2"]

    def test_single_edge_query(self):
        problem = parse("attrs A B\nquery {A B}\n")
        _, text = cmd_tableau(problem, query_index=1)
        assert text.splitlines()[1].split() == ["a1", "a2", "phi(a1,a2)"]

    def test_two_edge_query(self):
        problem = parse("attrs A1 A2 A3 A4\nquery {A1 A2} {A2 A3 A4}\n")
        _, text = cmd_tableau(problem, query_index=1)
        rows = [ln.split() for ln in text.splitlines()[1:]]
        assert [r[:4] for r in rows] == [["a1", "a2", "b1", "b2"], ["b3", "a2", "a3", "a4"]]

    def test_index_out_of_range(self):
        from gajdchase.errors import GajdChaseError

        problem = parse(CHAIN4_PROBLEM)
        with pytest.raises(GajdChaseError, match="out of range"):
            cmd_tableau(problem, query_index=2)


class TestMain:
    def test_implies_and_exit_codes(self, tmp_path, capsys):
        path = tmp_path / "problem.gajd"
        path.write_text(CHAIN4_PROBLEM)
        assert main(["implies", str(path)]) == 0
        out = capsys.readouterr().out
        assert "IMPLIES: yes" in out

    def test_parse_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.gajd"
        path.write_text("gajd C = {A}\n")
        assert main(["implies", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_repeated_attribute_exit_2(self, tmp_path, capsys):
        path = tmp_path / "repeated.gajd"
        path.write_text("attrs A B C\ngajd X = {A A B} {B C}\nquery {A B} {B C} given X\n")
        assert main(["implies", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 2, column 10: attribute 'A' repeated in a hyperedge" in captured.err

    def test_missing_file_exit_2(self, capsys):
        assert main(["implies", "/nonexistent/problem.gajd"]) == 2

    def test_non_utf8_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.gajd"
        path.write_bytes(b"attrs A B\nquery {A \xff} {B}\n")
        assert main(["implies", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_row_cap_exit_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("GAJD_CHASE_MAX_ROWS", "4")
        path = tmp_path / "problem.gajd"
        path.write_text(CHAIN4_NEGATIVE_PROBLEM)
        assert main(["implies", str(path)]) == 3
        assert "cap" in capsys.readouterr().err

    def test_work_budget_stops_the_first_join(self, tmp_path):
        # Target {A1}...{A8} given {A1}...{A6}{A7 A8}: the answer is no, and the
        # first join over the target's rows finds 8^7 pending applications.
        # With default settings the budget stops that join, so the child exits
        # 3 within seconds and far under the memory the queued join would take.
        # A wrapper process runs the query and reads RUSAGE_CHILDREN, so the
        # peak is that of the query's process alone, not of this test run's.
        attrs = [f"A{i}" for i in range(1, 9)]
        path = tmp_path / "family8.gajd"
        path.write_text(
            f"attrs {' '.join(attrs)}\n"
            f"gajd C = {' '.join('{' + a + '}' for a in attrs[:6])} {{A7 A8}}\n"
            f"query {' '.join('{' + a + '}' for a in attrs)} given C\n"
        )
        script = (
            "import resource, subprocess, sys, time\n"
            "t0 = time.perf_counter()\n"
            f"p = subprocess.run([sys.executable, '-m', 'gajdchase', 'implies', {str(path)!r}], capture_output=True,"
            " text=True)\n"
            "sys.stderr.write(p.stderr)\n"
            "print(p.returncode, time.perf_counter() - t0, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=subprocess_env(), timeout=120
        )
        code, seconds, peak_kb = result.stdout.split()
        assert int(code) == 3, result.stderr
        assert "work spent" in result.stderr and "100000-row cap" in result.stderr
        assert float(seconds) < 10
        assert int(peak_kb) < 200 * 1024

    def test_bad_env_cap_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("GAJD_CHASE_MAX_ROWS", "zero")
        path = tmp_path / "problem.gajd"
        path.write_text(CHAIN4_PROBLEM)
        assert main(["implies", str(path)]) == 2

    def test_verify_domain_too_large_exit_2(self, tmp_path, capsys):
        attrs = " ".join(f"A{i}" for i in range(13))
        edge = "{" + attrs + "}"
        path = tmp_path / "big.gajd"
        path.write_text(f"attrs {attrs}\nquery {edge}\n")
        assert main(["verify", "--trials", "2", str(path)]) == 2
        assert "cell" in capsys.readouterr().err

    def test_verify_huge_domain_refused_before_labels(self, tmp_path):
        # The declared cell count is checked before any label is built, so
        # 10^12 values for one attribute are refused within 1 GiB of memory.
        path = tmp_path / "huge.gajd"
        path.write_text("attrs A B\ndomain A 1000000000000\nquery {A} {B}\n")
        script = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from gajdchase.cli import main\n"
            f"sys.exit(main(['verify', {str(path)!r}]))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=subprocess_env(), timeout=60
        )
        assert result.returncode == 2, result.stderr
        assert result.stderr == "error: joint table has 2000000000000 cells, above the 4096-cell cap\n"

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        path = tmp_path / "problem.gajd"
        path.write_text(CHAIN4_PROBLEM)
        assert main(["verify", "--seed", "-1", str(path)]) == 2
        assert capsys.readouterr() == ("", "error: seed must be nonnegative, got -1\n")

    def test_zero_trials_exit_2(self, tmp_path, capsys):
        path = tmp_path / "problem.gajd"
        path.write_text(CHAIN4_PROBLEM)
        assert main(["verify", "--trials", "0", str(path)]) == 2
        assert capsys.readouterr() == ("", "error: trials must be at least 1\n")

    def test_expect_flag(self, tmp_path):
        path = tmp_path / "problem.gajd"
        path.write_text(CHAIN4_NEGATIVE_PROBLEM)
        assert main(["implies", "--expect", "no", str(path)]) == 0
        assert main(["implies", "--expect", "yes", str(path)]) == 1

    def test_module_entry_point(self, tmp_path):
        path = tmp_path / "problem.gajd"
        path.write_text(CHAIN4_PROBLEM)
        result = subprocess.run(
            [sys.executable, "-m", "gajdchase", "implies", "--factorize", str(path)],
            capture_output=True,
            text=True,
            env=subprocess_env(),
        )
        assert result.returncode == 0
        assert "IMPLIES: yes" in result.stdout
        assert "FACTORIZATION:" in result.stdout

    def test_numpy_loaded_only_by_the_oracle(self):
        # `implies` loads neither the oracle nor numpy, nor json without --trace-json; the first verify
        # loads the oracle and numpy.
        script = (
            "import sys\n"
            "json_at_start = 'json' in sys.modules\n"
            "import gajdchase, gajdchase.cli as cli\n"
            f"problem = cli.parse({CHAIN4_PROBLEM!r})\n"
            "code, out = cli.cmd_implies(problem, trace=True, factorize=True)\n"
            "assert code == 0 and 'IMPLIES: yes' in out, out\n"
            "assert 'gajdchase.oracle' not in sys.modules and 'numpy' not in sys.modules\n"
            "assert json_at_start or 'json' not in sys.modules\n"
            "code, out = cli.cmd_verify(problem, seed=0, trials=2)\n"
            "assert code == 0 and 'status=pass' in out, out\n"
            "assert 'gajdchase.oracle' in sys.modules and 'numpy' in sys.modules\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=subprocess_env()
        )
        assert result.returncode == 0, result.stderr
