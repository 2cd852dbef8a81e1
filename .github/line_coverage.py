"""Line-coverage gate for src/ncgopt, with no package beyond pytest.

Runs the tier-1 suite in this process under sys.settrace (and
threading.settrace, for the threaded tests), then fails when a statement in a
function body of src/ncgopt never ran.  A statement counts as run when any of
its source lines ran.  ALLOWLIST names the places that may stay unrun, each by
its file and the stripped first source line of a statement (a def, or an if
whose body is the place), never by line number, so an edit above it does not
break it: the unrun statements in that statement's body are allowed.  An entry
that covers no unrun statement fails the gate too, so the list cannot go stale.
Docstrings and statements outside function bodies (imports, constants, class
bodies) are not counted.  Code that only a subprocess runs is not seen.

Run from the repository root: python .github/line_coverage.py [pytest args]
Exit code: pytest's when the suite fails, 1 when a statement is unrun or an
entry is stale, 0 otherwise.
"""
import ast
import os
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "ncgopt")

ALLOWLIST = {
    ("sampling.py", "if norm == 0.0:  # probability zero; keep the function total"):
        "a standard normal draw is all zeros with probability zero",
    ("bench.py", "def cli() -> None:"):
        "the console-script entry; tests reach it only in a subprocess (test_module_runs_as_a_script)",
    ("meo.py", "if not math.isfinite(beta):"):
        "beta is the norm of H q_k's part orthogonal to the basis, at most ||H q_k||, which the step "
        "has already found finite; it overflows only by rounding within an ulp of the overflow threshold",
}

executed = {}  # file name -> set of line numbers that ran


def _trace(frame, event, arg):
    """Global tracer: trace lines only in the package's frames."""
    path = frame.f_code.co_filename
    if not path.startswith(PACKAGE + os.sep):
        return None
    lines = executed.setdefault(os.path.basename(path), set())

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    lines.add(frame.f_lineno)
    return local


def _counted(node):
    """A statement that runs code: not a docstring, and not a global or nonlocal declaration."""
    docstring = isinstance(node, ast.Expr) and isinstance(getattr(node.value, "value", None), str)
    return isinstance(node, ast.stmt) and not docstring and not isinstance(node, (ast.Global, ast.Nonlocal))


def _body_statements(tree):
    """Every counted statement inside a function body, at any depth."""
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for top in func.body:
                yield from filter(_counted, ast.walk(top))


def unrun_statements(name):
    """(line, text) of each statement in a function body of ``name`` that never ran, and
    the body spans of the statements each allowlist entry names."""
    with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
        source = fh.read()
    text = source.splitlines()
    tree = ast.parse(source)
    ran = executed.get(name, set())
    unrun = sorted(
        {node.lineno for node in _body_statements(tree) if ran.isdisjoint(range(node.lineno, node.end_lineno + 1))}
    )
    spans = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and hasattr(node, "body"):
            key = (name, text[node.lineno - 1].strip())
            if key in ALLOWLIST:
                spans.setdefault(key, []).append((node.body[0].lineno, node.end_lineno))
    return [(line, text[line - 1].strip()) for line in unrun], spans


def main(argv):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)
    threading.settrace(_trace)
    sys.settrace(_trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if code != 0:
        print(f"line coverage: the test suite failed (exit {int(code)})")
        return int(code)

    failures, used, allowed = [], set(), 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        unrun, spans = unrun_statements(name)
        for line, text in unrun:
            keys = [key for key, found in spans.items() if any(lo <= line <= hi for lo, hi in found)]
            used.update(keys)
            allowed += bool(keys)
            if not keys:
                failures.append(f"src/ncgopt/{name}:{line}: never ran: {text}")
    failures += [f"allowlist entry covers no unrun statement: {file}: {text}" for file, text in ALLOWLIST.keys() - used]
    for key in sorted(used):
        print(f"allowed unrun: {key[0]}: {key[1]} ({ALLOWLIST[key]})")
    verdict = "FAILED" if failures else "every unrun statement in a function body is allowlisted"
    print(f"line coverage: {verdict} ({allowed} allowed)")
    for failure in failures:
        print(failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
