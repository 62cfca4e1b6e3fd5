#!/usr/bin/env python
"""Documentation integrity checker (the CI ``docs`` job).

Four classes of rot this catches:

1. **Dead intra-repo links** — every relative markdown link or image in
   the checked documents must point at a file (or ``file#anchor``) that
   exists in the repository.  External (``http``/``mailto``) links are
   left alone: availability of other people's servers is not a property
   of this repo.

2. **Phantom CLI references** — every ``repro <subcommand>`` and every
   ``--flag`` used in a fenced shell block or inline-code span that
   starts with ``repro`` must exist in the actual parser
   (:func:`repro.cli.build_parser`), including nested subparsers like
   ``repro perf check``.  Docs that advertise flags the CLI no longer
   accepts fail the build, not the reader.

3. **Stale call keywords** — every keyword inside a ``SEConfig(...)``,
   ``GAConfig(...)``, ``SAConfig(...)``, ``TabuConfig(...)``,
   ``make_simulator(...)``, ``EvaluationService(...)``,
   ``ScenarioEvaluator(...)`` or ``random_search(...)`` mention must
   name a real parameter of that callable, so a removed or renamed
   option cannot linger in the docs.  Only the call's own nesting level
   is checked: in ``ScenarioEvaluator(sample_scenarios(w, d, 8,
   seed=1))`` the ``seed=`` belongs to ``sample_scenarios``.

4. **Stale module paths** — every inline-code span that is a dotted
   ``repro.`` path (optionally followed by a call, as in
   ``repro.schedule.jit.warmup()``) must import and resolve attribute
   by attribute, so a moved or deleted module, class or function
   cannot linger in the docs either.

Run from the repo root (CI does):  ``python scripts/check_docs.py``.
Exits non-zero listing every violation.  ``--self-test`` runs the
checker's own unit checks (also exercised by the test suite).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: The documents the docs job guards (repo-relative).
DOCUMENTS = (
    "README.md",
    "ROADMAP.md",
    "docs/architecture.md",
    "docs/reproducing.md",
    "docs/risk_aware.md",
)

_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
_FENCE = re.compile(r"```(?:\w*)\n(.*?)```", re.DOTALL)
_INLINE = re.compile(r"`(repro [^`]+)`")
_CALL = re.compile(
    r"\b(SEConfig|GAConfig|SAConfig|TabuConfig|make_simulator"
    r"|EvaluationService|ScenarioEvaluator|random_search)\("
)
_KEYWORD = re.compile(r"\b(\w+)=(?!=)")
_DOTTED = re.compile(r"`(repro(?:\.\w+)+)(?:\([^`]*\))?`")


# ----------------------------------------------------------------------
# link checking
# ----------------------------------------------------------------------


def check_links(doc: Path, text: str) -> list[str]:
    """Dead relative links in *text* (repo-relative error strings)."""
    errors = []
    for target in _LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path = target.split("#", 1)[0]
        if not path:
            continue
        resolved = (doc.parent / path).resolve()
        if not resolved.exists():
            errors.append(
                f"{doc.relative_to(REPO)}: dead link -> {target}"
            )
    return errors


# ----------------------------------------------------------------------
# CLI cross-checking
# ----------------------------------------------------------------------


def _parser_surface():
    """(subcommand path -> set of flags) for the real ``repro`` parser.

    Flags of nested subparsers (e.g. ``repro perf check``) are exposed
    both under their full path and merged into the parent command, so a
    doc line ``repro perf check --tolerance 0.1`` validates naturally.
    """
    import argparse

    from repro.cli import build_parser

    surface: dict[str, set[str]] = {}

    def walk(parser, path):
        flags = set()
        for action in parser._actions:
            flags.update(
                o for o in action.option_strings if o.startswith("--")
            )
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    walk(sub, path + (name,))
        surface[" ".join(path)] = flags

    walk(build_parser(), ())
    return surface


def _command_lines(text: str):
    """Every ``repro ...`` invocation found in *text*."""
    lines = []
    for block in _FENCE.findall(text):
        for raw in block.splitlines():
            line = raw.strip().lstrip("$ ").rstrip("\\").strip()
            if line.startswith("repro "):
                lines.append(line)
    lines.extend(m.strip() for m in _INLINE.findall(text))
    return lines


def _expand_alternation(line: str):
    """``repro run|sweep --a|--b`` -> every concrete command variant.

    Docs legitimately abbreviate with ``|`` (escaped ``\\|`` inside
    markdown tables); each alternative must exist, so expand and check
    them all.
    """
    tokens = [t.split("|") for t in line.replace("\\|", "|").split()]
    variants = [[]]
    for alts in tokens:
        variants = [v + [a] for v in variants for a in alts]
    return [" ".join(v) for v in variants]


def _check_line(doc: Path, line: str, surface) -> list[str]:
    errors = []
    tokens = line.split()
    # longest parser path matching the leading tokens wins
    path: tuple[str, ...] = ()
    for tok in tokens[1:]:
        candidate = path + (tok,)
        if " ".join(candidate) in surface:
            path = candidate
        else:
            break
    command = " ".join(path)
    if path == () and len(tokens) > 1 and not tokens[1].startswith("-"):
        return [
            f"{doc.relative_to(REPO)}: unknown subcommand in `{line}`"
        ]
    known = surface[command] | surface.get("", set())
    for tok in tokens:
        if tok.startswith("--"):
            flag = tok.split("=", 1)[0]
            if flag not in known:
                errors.append(
                    f"{doc.relative_to(REPO)}: `repro {command}` has "
                    f"no flag {flag} (in `{line}`)"
                )
    return errors


def check_cli_references(doc: Path, text: str, surface) -> list[str]:
    """Doc lines invoking subcommands/flags the CLI does not have."""
    errors = []
    for raw in _command_lines(text):
        for line in _expand_alternation(raw):
            errors += _check_line(doc, line, surface)
    return errors


# ----------------------------------------------------------------------
# call keywords
# ----------------------------------------------------------------------


def _call_parameters() -> dict[str, set[str]]:
    """(callable name -> parameter names) of every checked call."""
    import inspect

    from repro.baselines import GAConfig, random_search
    from repro.core import SEConfig
    from repro.optim import EvaluationService, SAConfig, TabuConfig
    from repro.schedule import make_simulator
    from repro.stochastic import ScenarioEvaluator

    return {
        fn.__name__: set(inspect.signature(fn).parameters)
        for fn in (
            SEConfig,
            GAConfig,
            SAConfig,
            TabuConfig,
            make_simulator,
            EvaluationService,
            ScenarioEvaluator,
            random_search,
        )
    }


def _top_level_args(text: str, start: int) -> str:
    """The argument text of the call opened just before *start*, with
    nested brackets cut out.  Ends at the closing parenthesis, or at a
    backtick or blank line for a mention that never closes."""
    depth = 0
    out = []
    for i in range(start, len(text)):
        c = text[i]
        if c == "`" or text.startswith("\n\n", i):
            break
        if c in "([{":
            depth += 1
        elif c in ")]}":
            if depth == 0:
                break
            depth -= 1
        elif depth == 0:
            out.append(c)
    return "".join(out)


def check_call_keywords(doc: Path, text: str, params) -> list[str]:
    """Keywords in *text* that name no parameter of the called function."""
    errors = []
    for m in _CALL.finditer(text):
        fn = m.group(1)
        for name in _KEYWORD.findall(_top_level_args(text, m.end())):
            if name not in params[fn]:
                errors.append(
                    f"{doc.relative_to(REPO)}: {fn} has no parameter "
                    f"{name!r} (in `{fn}({name}=`)"
                )
    return errors


# ----------------------------------------------------------------------
# module paths
# ----------------------------------------------------------------------


def _resolves(path: str) -> bool:
    """Whether dotted *path* names something real: each part must be an
    attribute of the previous object or, below a package, a submodule."""
    import importlib

    obj = importlib.import_module("repro")
    name = "repro"
    for part in path.split(".")[1:]:
        name = f"{name}.{part}"
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        try:
            obj = importlib.import_module(name)
        except ImportError:
            return False
    return True


def check_module_paths(doc: Path, text: str) -> list[str]:
    """Dotted ``repro.`` paths in inline code that do not resolve."""
    return [
        f"{doc.relative_to(REPO)}: `{path}` does not resolve"
        for path in _DOTTED.findall(text)
        if not _resolves(path)
    ]


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------


def run(documents=DOCUMENTS) -> list[str]:
    surface = _parser_surface()
    params = _call_parameters()
    errors = []
    for name in documents:
        doc = REPO / name
        if not doc.exists():
            errors.append(f"{name}: document missing")
            continue
        text = doc.read_text()
        errors += check_links(doc, text)
        errors += check_cli_references(doc, text, surface)
        errors += check_call_keywords(doc, text, params)
        errors += check_module_paths(doc, text)
    return errors


def self_test() -> None:
    """Sanity checks of the checker itself (run by the test suite)."""
    surface = _parser_surface()
    assert "" in surface and "run" in surface
    assert "perf check" in surface  # nested subparser discovered
    assert "--objective" in surface["run"]
    doc = REPO / "README.md"
    # a dead link is reported ...
    bad = "[x](no/such/file.md)"
    assert check_links(doc, bad)
    # ... a live one is not
    assert not check_links(doc, "[x](README.md)")
    # phantom flags and subcommands are reported
    assert check_cli_references(doc, "`repro run --objective mean`", surface) == []
    assert check_cli_references(doc, "`repro run --bogus-flag 1`", surface)
    assert check_cli_references(doc, "`repro frobnicate`", surface)
    # fenced blocks are scanned too
    fenced = "```bash\n$ repro sweep --no-such-flag\n```\n"
    assert check_cli_references(doc, fenced, surface)
    # call keywords must be parameters, across wrapped calls too
    params = _call_parameters()
    assert not check_call_keywords(doc, "`SEConfig(network=...)`", params)
    assert check_call_keywords(doc, "`SEConfig(no_such_field=...)`", params)
    wrapped = "SAConfig(\n...     seed=1,\n...     bogus_knob=2)"
    assert check_call_keywords(doc, wrapped, params)
    assert not check_call_keywords(doc, "TabuConfig(tenure=7)", params)
    assert check_call_keywords(doc, "`make_simulator(w, bogus=1)`", params)
    assert not check_call_keywords(doc, "`make_simulator(w, platform='spot')`", params)
    # ... but a nested call's keywords are not the outer call's
    nested = "`ScenarioEvaluator(sample_scenarios(w, d, 512, seed=17))`"
    assert not check_call_keywords(doc, nested, params)
    assert check_call_keywords(doc, "`EvaluationService(w, f(x=1), bad=2)`", params)
    # dotted repro. paths must resolve: submodules, attributes, calls
    assert not check_module_paths(doc, "`repro.analysis.grid.run_grid`")
    assert not check_module_paths(doc, "`repro.schedule.jit.warmup()`")
    assert not check_module_paths(doc, "`repro.workloads.figure5_workload(seed=1)`")
    assert check_module_paths(doc, "`repro.schedule.no_such_module`")
    assert check_module_paths(doc, "`repro.optim.SAConfig.no_such_field`")
    assert check_module_paths(doc, "`repro.schedule.backend.register_network`")
    # `repro <subcommand>` spans are the CLI check's business, not this one's
    assert not check_module_paths(doc, "`repro run --seed 1`")


def main(argv) -> int:
    if "--self-test" in argv:
        self_test()
        print("check_docs self-test: OK")
        return 0
    errors = run()
    for err in errors:
        print(f"docs check: {err}", file=sys.stderr)
    if errors:
        print(f"docs check: {len(errors)} problem(s)", file=sys.stderr)
        return 1
    checked = ", ".join(DOCUMENTS)
    print(f"docs check: OK ({checked})")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO / "src"))
    raise SystemExit(main(sys.argv[1:]))
