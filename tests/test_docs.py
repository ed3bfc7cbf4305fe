"""The two long documents describe the present, under a line budget, and
every place that cites one of their sections still finds it; every path
under ``benchmarks/`` the documents and workflows name still exists.

EXPERIMENTS.md holds the paper's tables, one current-numbers table, one
row per measured change and the method notes; git and CHANGES.md keep the
history, so a change adds at most one row there and prunes what that row
supersedes.  DESIGN.md is the current design, one section per numbered
heading.  ci.yml runs this file by itself, before tier-1, as "Documents
within budget"."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

BUDGET = {"EXPERIMENTS.md": 1200, "DESIGN.md": 600}

# Where a "DESIGN.md §N" may be written.
DESIGN_CITERS = ("src", "tests", "benchmarks", "README.md")

# Where a reader is told to run or open something under benchmarks/.
PATH_CITERS = ("README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md",
               *sorted(p.relative_to(ROOT).as_posix()
                       for p in (ROOT / ".github" / "workflows").glob("*.yml")))

# (file, what it says, what EXPERIMENTS.md must therefore still hold): facts
# cited by pointing at the file rather than at a section.
KEPT_FACTS = (
    ("benchmarks/bench_figure5_loadbalancer.py",
     "Calibration (see EXPERIMENTS.md)", "calibration notes"),
    ("ROADMAP.md",
     "7 of `--hypothesis-seed=1..40` (EXPERIMENTS.md)",
     "7 of `--hypothesis-seed=1..40`"),
)


def _text(relative: str) -> str:
    return (ROOT / relative).read_text(encoding="utf-8")


def _flat(text: str) -> str:
    """Runs of whitespace as one space, so a citation may wrap."""
    return re.sub(r"\s+", " ", text)


def _design_sections() -> dict[str, str]:
    """Section number → title, from DESIGN.md's ``## N. Title`` headings."""
    return dict(re.findall(r"^## (\d+)\. (.+?)\s*$", _text("DESIGN.md"), re.M))


def _sources(*roots: str):
    for root in roots:
        path = ROOT / root
        files = [path] if path.is_file() else sorted(
            p for p in path.rglob("*")
            if p.suffix in (".py", ".md") and p.is_file())
        for file in files:
            yield file.relative_to(ROOT).as_posix(), file.read_text(
                encoding="utf-8")


@pytest.mark.parametrize("name", sorted(BUDGET))
def test_the_document_is_within_its_line_budget(name):
    lines = len(_text(name).splitlines())
    assert lines <= BUDGET[name], (
        f"{name} has {lines} lines, over its budget of {BUDGET[name]}: "
        "prune what the new text supersedes")


def test_every_design_section_number_cited_exists():
    sections = _design_sections()
    missing = [(where, number)
               for where, text in _sources(*DESIGN_CITERS)
               for number in re.findall(r"DESIGN\.md`*\s*§\s*(\d+)", text)
               if number not in sections]
    assert not missing, f"no such DESIGN.md section: {missing}"


def test_every_design_section_name_the_readme_cites_exists():
    titles = _design_sections().values()
    cited = [name
             for names in re.findall(
                 r'((?:"[^"]+"(?:, | and ))*"[^"]+") in `DESIGN\.md`',
                 _flat(_text("README.md")))
             for name in re.findall(r'"([^"]+)"', names)]
    assert cited, "the README's DESIGN.md citations were not found"
    missing = [name for name in cited
               if not any(title == name or title.startswith(name + " (")
                          for title in titles)]
    assert not missing, f"no such DESIGN.md section: {missing}"


def test_every_experiments_section_cited_exists():
    headings = re.findall(r"^## (.+?)\s*$", _text("EXPERIMENTS.md"), re.M)
    missing = [(where, name)
               for where, text in _sources(*DESIGN_CITERS, "DESIGN.md",
                                           "ROADMAP.md")
               for name in re.findall(r'EXPERIMENTS\.md`*, "([^"]+)"',
                                      _flat(text))
               if not any(heading.startswith(name) for heading in headings)]
    assert not missing, f"no such EXPERIMENTS.md section: {missing}"


@pytest.mark.parametrize("citer, citation, fact", KEPT_FACTS)
def test_a_fact_cited_from_experiments_is_still_there(citer, citation, fact):
    assert citation in _flat(_text(citer)), (
        f"{citer} no longer cites it: drop its row from KEPT_FACTS")
    assert fact in _flat(_text("EXPERIMENTS.md"))


def test_every_benchmarks_path_named_exists():
    missing = [(where, path)
               for where in PATH_CITERS
               for path in re.findall(r"benchmarks/[\w./-]*", _text(where))
               if not (ROOT / path.rstrip(".")).exists()]
    assert not missing, f"no such file: {missing}"
