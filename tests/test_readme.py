"""The README's documented outputs are what the code gives."""
from __future__ import annotations

import ast
import re
from pathlib import Path

from mideriv.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def _block(heading: str, fence: str) -> list[str]:
    """Lines of the first `fence` code block under `heading`."""
    body = README.split(f"\n{heading}\n", 1)[1]
    return body.split(f"```{fence}\n", 1)[1].split("\n```", 1)[0].split("\n")


def _matches(comment: str, value) -> bool:
    """A `# ...` result comment read by prefix: each `...` stands for more digits."""
    pattern = r"\d*".join(re.escape(part) for part in comment.split("..."))
    return re.fullmatch(pattern, repr(value)) is not None


def test_library_quick_look_prints_its_result_comments():
    # a result comment sits on the line it annotates or on the line after
    lines = _block("## Library quick look", "python")
    namespace: dict = {}
    checked = []
    for stmt in ast.parse("\n".join(lines)).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
        last = lines[stmt.end_lineno - 1]
        if "#" in last:
            comment = last.split("#", 1)[1].strip()
        else:
            comment = lines[stmt.end_lineno].removeprefix("# ")
        assert _matches(comment, value), (comment, value)
        checked.append(comment)
    assert checked == [
        "0.2885...",
        "0.5187...",
        "array([0.1675..., 0.2885..., 0.4473...])",
        "'-15/2*M2^4 + 6*M3^2*M2 + 3*M4*M2^2 - 1/2*M4^2'",
    ]


def test_command_line_symbolic_tau_prints_its_result_comment(capsys):
    lines = _block("## Command line", "sh")
    command = "mideriv tau --multiplicities 3 --bar --symbolic"
    comment = lines[lines.index(command) + 1]
    assert comment == "# M2^3 - 1/2*M3^2"
    assert main(command.split()[1:]) == 0
    # the comment is the expansion line; the term count follows it
    assert capsys.readouterr().out.split("\n")[0] == comment[2:]
