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

    def test_row_cap(self):
        from gajdchase.errors import ChaseRowLimitError

        problem = parse(CHAIN4_NEGATIVE_PROBLEM)
        with pytest.raises(ChaseRowLimitError):
            cmd_implies(problem, max_rows=4)


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
            cmd_verify(problem, trials=0)

    def test_deterministic(self):
        problem = parse(CHAIN4_PROBLEM)
        assert cmd_verify(problem, seed=3, trials=5) == cmd_verify(problem, seed=3, trials=5)

    def test_non_binary_domain(self):
        text = "attrs A B\ndomain A 3\ngajd C = {A} {B}\nquery {A B} given C\n"
        problem = parse(text)
        code, out = cmd_verify(problem, seed=2, trials=5)
        assert code == 0
        assert "IMPLIES: yes" in out and "status=pass" in out


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
        _, text = cmd_tableau(problem)
        assert text.splitlines()[1].split() == ["a1", "a2", "phi(a1,a2)"]

    def test_two_edge_query(self):
        problem = parse("attrs A1 A2 A3 A4\nquery {A1 A2} {A2 A3 A4}\n")
        _, text = cmd_tableau(problem)
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

    def test_missing_file_exit_2(self, capsys):
        assert main(["implies", "/nonexistent/problem.gajd"]) == 2

    def test_row_cap_exit_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("GAJD_CHASE_MAX_ROWS", "4")
        path = tmp_path / "problem.gajd"
        path.write_text(CHAIN4_NEGATIVE_PROBLEM)
        assert main(["implies", str(path)]) == 3
        assert "cap" in capsys.readouterr().err

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

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        path = tmp_path / "problem.gajd"
        path.write_text(CHAIN4_PROBLEM)
        assert main(["verify", "--seed", "-1", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

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
        # The chase alone never imports numpy; the first verify does.
        script = (
            "import sys\n"
            "import gajdchase, gajdchase.cli as cli\n"
            f"problem = cli.parse({CHAIN4_PROBLEM!r})\n"
            "code, out = cli.cmd_implies(problem, trace=True, factorize=True)\n"
            "assert code == 0 and 'IMPLIES: yes' in out, out\n"
            "assert 'numpy' not in sys.modules\n"
            "code, out = cli.cmd_verify(problem, trials=2)\n"
            "assert code == 0 and 'status=pass' in out, out\n"
            "assert 'numpy' in sys.modules\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=subprocess_env()
        )
        assert result.returncode == 0, result.stderr
