"""Run the Tier-1 suite and check that it fails only where it is documented to.

    python3 tools/tier1.py

Runs ``python -m pytest -q --continue-on-collection-errors`` from the
repository root with ``src`` on ``PYTHONPATH`` (the Tier-1 command of
ROADMAP.md), writing a JUnit report to a temporary directory.  Five
acceptance cases fail by design, from the escort-normalization premise
(README "Known limitations"): 6c Bernoulli-A, Poisson-A and Poisson-B,
and 6d Poisson at q = 0.8 and 0.9.  Each of the five prints a figure in
its failure message (6c its ``|gap|/4SE``, 6d its ``min eig``), and that
figure is checked too, as a string at its printed precision: a change
that moves one, as a change of a family's arithmetic may, is seen.
Exits 0 only when the failing set is exactly these five, each with its
figure.  Otherwise it prints every other failure or error, every one of
the five that passed or did not run, and every moved figure with the
figure read, and exits 1.  It also prints every ``ACCEPTANCE`` line the
acceptance checks print, passing or failing (pytest's
``junit_logging=system-out`` keeps each test's stdout in the report), so
that a change can quote their figures before and after; the suite's wall
time and its five slowest tests, as the report records them; and the line
counts of ``src/lqglm/*.py`` and of ``tests/*.py``, each file's count beside
its total, so that a change shows where its lines went.
"""

import os
import re
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The documented failures, with the label and value of the figure each one's failure prints.
DOCUMENTED = {
    "tests/test_acceptance.py::test_c6c_matrix_mc_match[bernoulli-A]": ("|gap|/4SE =", "1.30"),
    "tests/test_acceptance.py::test_c6c_matrix_mc_match[poisson-A]": ("|gap|/4SE =", "16.84"),
    "tests/test_acceptance.py::test_c6c_matrix_mc_match[poisson-B]": ("|gap|/4SE =", "185.31"),
    "tests/test_acceptance.py::test_c6d_sandwich_dominance[poisson_example-0.8]":
        ("min eig", "-2.42e-02"),
    "tests/test_acceptance.py::test_c6d_sandwich_dominance[poisson_example-0.9]":
        ("min eig", "-1.46e-02"),
}
# Tests listed by their time, slowest first.
SLOWEST = 5


def node_id(case):
    """pytest's node id of a JUnit ``testcase``, whose ``classname`` is the
    dotted module path followed by any test classes (a collection error
    has the dotted module as its ``name``)."""
    parts = [p for p in case.get("classname", "").split(".") if p]
    for k in range(len(parts), 0, -1):
        path = "/".join(parts[:k]) + ".py"
        if (ROOT / path).is_file():
            return "::".join([path, *parts[k:], case.get("name", "")])
    return "::".join([*parts, case.get("name", "")])


def outcomes(report):
    """The node ids of the report that failed or errored, each with its
    failure message, and the set of those that passed."""
    failed, passed = {}, set()
    for case in ET.parse(report).getroot().iter("testcase"):
        bad = case.find("failure")
        bad = case.find("error") if bad is None else bad
        if bad is not None:
            failed[node_id(case)] = bad.get("message", "") + "\n" + (bad.text or "")
        elif case.find("skipped") is None:
            passed.add(node_id(case))
    return failed, passed - set(failed)


def figure(label, text):
    """The number printed after ``label`` in a failure message, or None."""
    found = re.search(re.escape(label) + r" (-?[0-9.]+(?:e[-+][0-9]+)?)", text)
    return found and found.group(1)


def acceptance_lines(report):
    """The ``ACCEPTANCE`` lines of the report's captured stdout, in the
    order the tests ran."""
    return [line.strip() for out in ET.parse(report).getroot().iter("system-out")
            for line in (out.text or "").splitlines() if line.startswith("ACCEPTANCE ")]


def timings(report):
    """The suite's wall time and the ``SLOWEST`` tests as ``(seconds,
    node id)``, slowest first."""
    root = ET.parse(report).getroot()
    suite = root if root.tag == "testsuite" else root.find("testsuite")
    cases = sorted(((float(c.get("time", 0.0)), node_id(c)) for c in root.iter("testcase")),
                   reverse=True)
    return float(suite.get("time", 0.0)), cases[:SLOWEST]


def line_counts(folder):
    """The number of lines of each ``*.py`` file of ``folder``, by module
    name in sorted order."""
    return {p.stem: len(p.read_text().splitlines()) for p in sorted((ROOT / folder).glob("*.py"))}


def main():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "tier1.xml"
        code = subprocess.call(
            [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
             "-o", "junit_logging=system-out", f"--junitxml={report}"], cwd=ROOT, env=env)
        if code not in (0, 1) or not report.is_file():
            print(f"tier1: pytest exited with code {code}")
            return 1
        failed, passed = outcomes(report)
        wall, slowest = timings(report)
        accepted = acceptance_lines(report)
    for test in sorted(set(failed) - set(DOCUMENTED)):
        print(f"tier1: unexpected failure: {test}")
    for test in sorted(set(DOCUMENTED) - set(failed)):
        print(f"tier1: documented failure {'now passes' if test in passed else 'did not run'}: "
              f"{test}")
    moved = 0
    for test, (label, value) in sorted(DOCUMENTED.items()):
        read = figure(label, failed[test]) if test in failed else value
        if read != value:
            moved += 1
            print(f"tier1: documented failure's figure moved: {test}: {label} {read} "
                  f"(documented {value})")
    print(f"tier1: {len(accepted)} acceptance lines:")
    for line in accepted:
        print(f"tier1: {line}")
    print(f"tier1: wall time {wall:.1f} s; slowest tests:")
    for seconds, test in slowest:
        print(f"tier1: {seconds:6.2f} s  {test}")
    for folder in ("src/lqglm", "tests"):
        lines = line_counts(folder)
        print(f"tier1: {folder}/*.py has {sum(lines.values())} lines ("
              + ", ".join(f"{name} {n}" for name, n in lines.items()) + ")")
    ok = set(failed) == set(DOCUMENTED) and not moved
    print(f"tier1: {len(passed)} passed, {len(failed)} failed "
          f"({len(set(failed) & set(DOCUMENTED))} of the {len(DOCUMENTED)} documented, "
          f"{len(DOCUMENTED) - moved} with their figures): " + ("OK" if ok else "NOT OK"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
