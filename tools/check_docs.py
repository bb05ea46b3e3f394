#!/usr/bin/env python3
"""Docs consistency gate (CI `docs` job).

Checks, over every tracked markdown file:

1. Intra-repo markdown links `[text](path)` resolve to a real file
   (relative to the doc, then to the repo root). External URLs and
   pure anchors are ignored.
2. Backticked repo paths (`src/...`, `docs/...`, `tools/...`, top-level
   `*.md`, ...) name files that exist — catches docs drifting behind
   renames. Generated artifacts (`build/`, `results/`, runtime outputs)
   are out of scope.
3. Every `--flag` a doc shows on a `deepstrike` command line exists in
   the CLI. The flag inventory is parsed from tools/deepstrike_cli.cpp
   (the add_option/add_flag registrations that produce --help), so the
   check needs no compiled binary; lines invoking other tools (cmake,
   ctest, git, the bench binaries) are skipped. Docs under bench/e2e/
   document the end-to-end benchmark's own tools instead, so their flags
   are checked against those: the add_option/add_flag registrations of
   bench/e2e/ds_e2e.cpp, the case arms of bench/e2e/run.sh and the
   add_argument calls of bench/e2e/compare.py. A task text (ISSUE.md)
   may name either, so its flags are checked against both inventories
   together.
4. Every bench EXPERIMENTS.md names (backticked `fig*`/`tab*`/
   `ablation_*`/`ext_*`/`micro_*` tokens) has a source file under
   bench/ — the experiment write-ups can't drift behind bench renames.
5. Every backticked dotted metric name (`pdn.steps`,
   `runner.points`, ...) is actually registered somewhere under
   src/ via metrics::counter/gauge/histogram. A trailing `.*` wildcard
   (`cosim.lanes.*`) is accepted when at least one registered metric
   carries that prefix. Only tokens whose first segment is a namespace
   the code registers are policed, so prose like `config.port` stays
   free. Docs under bench/e2e/ and the task text may also name the
   metrics ds_e2e reports (the names it passes to `<metrics>.add` and
   `count`).

Tracked markdown files missing from the working tree are skipped.

Exit code 0 when clean, 1 with a per-file report otherwise.
"""

import argparse
import collections
import pathlib
import re
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
BACKTICK_RE = re.compile(r"`([^`\n]+)`")
FLAG_RE = re.compile(r"(--[A-Za-z][A-Za-z0-9-]*)")
REGISTRATION_RE = re.compile(r'add_(?:option|flag)\(\s*"([^"]+)"')

# Backticked paths under these roots (or matching these names) must exist.
CHECKED_PATH_PREFIXES = (
    "src/", "docs/", "tools/", "tests/", "examples/", "bench/", ".github/",
)
CHECKED_TOPLEVEL = re.compile(r"^[A-Z][A-Z_]*\.md$")  # README.md, DESIGN.md, ...

# Backticked tokens of this shape in EXPERIMENTS.md name bench binaries;
# each must have a source file under bench/.
BENCH_NAME_RE = re.compile(r"(?:fig|tab)[a-z0-9]*_[a-z0-9_]+|(?:ablation|ext|micro)_[a-z0-9_]+")

# Metric registrations under src/: metrics::counter("name", ...) etc.
METRIC_REGISTRATION_RE = re.compile(
    r'metrics::(?:counter|gauge|histogram)\(\s*"([^"]+)"')
# Trace events share the dotted namespace in docs (`cosim.lanes`):
# trace::Span span("name", ...) and trace::instant("name", ...).
TRACE_REGISTRATION_RE = re.compile(
    r'trace::(?:Span\s+\w+|instant)\(\s*"([^"]+)"')
# Docs-side candidate metric tokens: dotted lowercase identifiers, with
# an optional `.*` wildcard tail.
METRIC_TOKEN_RE = re.compile(r"[a-z0-9_]+(?:\.(?:[a-z0-9_]+|\*))+")
# Dotted tokens with these tails are file names, not metrics.
NON_METRIC_SUFFIXES = (
    ".cpp", ".hpp", ".py", ".sh", ".md", ".json", ".jsonl", ".txt",
    ".csv", ".vcd", ".yml", ".yaml",
)

# The end-to-end benchmark documents its own tools (bench/e2e/README.md).
E2E_DOCS = "bench/e2e/"
# A task text names both the deepstrike CLI and the e2e tools.
COMBINED_DOCS = ("ISSUE.md",)
E2E_DRIVER = "bench/e2e/ds_e2e.cpp"
E2E_SCRIPT = "bench/e2e/run.sh"
E2E_COMPARE = "bench/e2e/compare.py"
# run.sh's option parser: one `--flag)` case arm per option.
CASE_ARM_RE = re.compile(r"^\s*(--[A-Za-z][A-Za-z0-9-]*)\)", re.MULTILINE)
ADD_ARGUMENT_RE = re.compile(r'add_argument\(\s*"(--[A-Za-z][A-Za-z0-9-]*)"')
# Metrics ds_e2e reports: out.add("name", ...), layers.add(...), count("name", ...).
E2E_METRIC_RE = re.compile(r'\b(?:\w+\.add|count)\(\s*"([^"]+)"')

# The tools a doc documents: the words that name them on a command line,
# the flags they register, and what a report calls that flag inventory.
Tools = collections.namedtuple("Tools", "words flags name")

# Command lines mentioning these tools use their own flag namespaces.
FOREIGN_COMMAND_WORDS = (
    "cmake", "ctest", "git ", "pip", "python", "perfetto", "gtkwave",
    "micro_primitives", "check_bench_regression", "check_docs",
)


def tracked_markdown():
    """Tracked markdown files present in the working tree."""
    out = subprocess.run(
        ["git", "ls-files", "*.md"], cwd=REPO, capture_output=True, text=True,
        check=True)
    paths = (REPO / line for line in out.stdout.splitlines() if line)
    return [path for path in paths if path.is_file()]


def cli_flags():
    """Flags registered by the deepstrike CLI (what --help would print)."""
    source = (REPO / "tools" / "deepstrike_cli.cpp").read_text()
    flags = {"--" + name for name in REGISTRATION_RE.findall(source)}
    flags.add("--help")
    return flags


def e2e_flags():
    """Flags of the end-to-end benchmark's tools: ds_e2e, run.sh, compare.py."""
    flags = {"--" + name
             for name in REGISTRATION_RE.findall((REPO / E2E_DRIVER).read_text())}
    flags.update(CASE_ARM_RE.findall((REPO / E2E_SCRIPT).read_text()))
    flags.update(ADD_ARGUMENT_RE.findall((REPO / E2E_COMPARE).read_text()))
    return flags


def e2e_metrics():
    """Metric names ds_e2e reports."""
    return set(E2E_METRIC_RE.findall((REPO / E2E_DRIVER).read_text()))


def registered_metrics():
    """Metric and trace-event names registered anywhere under src/."""
    names = set()
    for ext in ("*.cpp", "*.hpp"):
        for path in (REPO / "src").rglob(ext):
            text = path.read_text()
            names.update(METRIC_REGISTRATION_RE.findall(text))
            names.update(TRACE_REGISTRATION_RE.findall(text))
    return names


def strip_code_spans(line):
    """Code spans stay (flags live there), but this hook is where e.g.
    literal regex examples could be masked if docs ever need it."""
    return line


def check_links(doc, text, errors):
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if "://" in target or target.startswith(("mailto:", "#")):
            continue
        path = target.split("#", 1)[0]
        if not path:
            continue
        if (doc.parent / path).exists() or (REPO / path).exists():
            continue
        errors.append(f"{doc.relative_to(REPO)}: broken link -> {target}")


def check_backticked_paths(doc, text, errors):
    for match in BACKTICK_RE.finditer(text):
        token = match.group(1).strip()
        if not re.fullmatch(r"[A-Za-z0-9_./-]+", token):
            continue
        is_checked = token.startswith(CHECKED_PATH_PREFIXES) or CHECKED_TOPLEVEL.fullmatch(token)
        if not is_checked:
            continue
        if (REPO / token).exists():
            continue
        # Extensionless tokens name built binaries (`bench/fig6b_dsp_fault_rates`,
        # `examples/quickstart`): accept them when their source file exists.
        last = token.rstrip("/").rsplit("/", 1)[-1]
        if "." not in last and any(
                (REPO / (token + ext)).exists() for ext in (".cpp", ".hpp", ".py")):
            continue
        errors.append(f"{doc.relative_to(REPO)}: referenced path missing -> {token}")


def check_cli_flags(doc, text, tools, errors):
    for line in text.splitlines():
        lowered = line.lower()
        if any(word in lowered for word in FOREIGN_COMMAND_WORDS):
            continue
        if "--" not in line:
            continue
        # Only police flags on lines that are clearly about the documented
        # tools: an invocation naming one, or a flag-documentation line
        # that names one of their flags in backticks.
        mentions_tool = (any(word in lowered for word in tools.words)
                         or BACKTICK_RE.search(line))
        if not mentions_tool:
            continue
        for flag in FLAG_RE.findall(strip_code_spans(line)):
            if flag not in tools.flags:
                errors.append(
                    f"{doc.relative_to(REPO)}: flag not in {tools.name} "
                    f"-> {flag} (line: {line.strip()[:80]})")


def check_experiment_benches(doc, text, errors):
    """Every bench EXPERIMENTS.md names must exist as bench/<name>.cpp.

    `ablation_*` glob shorthands (as in README tables) are accepted when
    at least one bench matches the prefix.
    """
    for match in BACKTICK_RE.finditer(text):
        token = match.group(1).strip()
        if not BENCH_NAME_RE.fullmatch(token):
            continue
        if (REPO / "bench" / (token + ".cpp")).exists():
            continue
        errors.append(
            f"{doc.relative_to(REPO)}: bench named but missing under bench/ "
            f"-> {token}")


def check_metric_names(doc, text, metrics, source, errors):
    """Backticked dotted tokens in a registered namespace must name a
    registered metric (or be a `ns.*` wildcard with at least one hit)."""
    namespaces = {name.split(".", 1)[0] for name in metrics}
    for match in BACKTICK_RE.finditer(text):
        token = match.group(1).strip()
        if not METRIC_TOKEN_RE.fullmatch(token):
            continue
        if token.endswith(NON_METRIC_SUFFIXES):
            continue
        if token.split(".", 1)[0] not in namespaces:
            continue
        if token in metrics:
            continue
        if token.endswith(".*") and any(
                name.startswith(token[:-1]) for name in metrics):
            continue
        errors.append(
            f"{doc.relative_to(REPO)}: metric not {source} -> {token}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.parse_args()

    cli_tools = Tools(("deepstrike",), cli_flags(), "deepstrike --help")
    e2e_tools = Tools(("run.sh", "ds_e2e", "compare.py"), e2e_flags(),
                      "the bench/e2e tools (ds_e2e, run.sh, compare.py)")
    combined_tools = Tools(cli_tools.words + e2e_tools.words,
                           cli_tools.flags | e2e_tools.flags,
                           f"{cli_tools.name} or {e2e_tools.name}")
    metrics = registered_metrics()
    src_metrics = (metrics, "registered under src/")
    e2e_metric_names = (metrics | e2e_metrics(),
                        "registered under src/ or reported by ds_e2e")
    errors = []
    docs = tracked_markdown()
    for doc in docs:
        text = doc.read_text()
        rel = str(doc.relative_to(REPO))
        if rel in COMBINED_DOCS:
            tools, (names, source) = combined_tools, e2e_metric_names
        elif rel.startswith(E2E_DOCS):
            tools, (names, source) = e2e_tools, e2e_metric_names
        else:
            tools, (names, source) = cli_tools, src_metrics
        check_links(doc, text, errors)
        check_backticked_paths(doc, text, errors)
        check_cli_flags(doc, text, tools, errors)
        check_metric_names(doc, text, names, source, errors)
        if doc.name == "EXPERIMENTS.md":
            check_experiment_benches(doc, text, errors)

    if errors:
        print(f"check_docs: {len(errors)} problem(s) in {len(docs)} markdown files:")
        for e in errors:
            print("  " + e)
        return 1
    print(f"check_docs: OK ({len(docs)} markdown files, {len(cli_tools.flags)} CLI "
          f"flags, {len(e2e_tools.flags)} e2e tool flags, {len(metrics)} metrics)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
