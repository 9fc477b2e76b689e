"""Documentation checks: internal links resolve, doctests pass.

Run from the repo root (CI's docs job does both)::

    python tools/check_docs.py            # link-check + doctests
    python tools/check_docs.py --links    # link-check only
    python tools/check_docs.py --doctests # doctests only

Link-check: every markdown link in ``docs/*.md``, ``README.md`` and
``EXPERIMENTS.md`` whose target is a relative path must resolve to a file
in the repository (anchors and external URLs are skipped), and every
``[[wiki-style]]`` reference must resolve to a doc file.  Required
headings: sections other parts of the repo point at (CI jobs, module
docstrings) must keep existing — see ``REQUIRED_HEADINGS``.  Module
docstrings: every public module under ``src/repro/`` must open with a
non-empty docstring (the architecture tour in docs/architecture.md
leans on them).  Doctests: ``doctest.testmod`` runs on every module
under ``src/`` whose source contains a ``>>>`` prompt, so examples in
docstrings cannot rot.
"""

from __future__ import annotations

import argparse
import ast
import doctest
import importlib
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Files whose internal references must resolve (the CI docs contract).
DOC_FILES = ("README.md", "EXPERIMENTS.md")
DOC_GLOBS = ("docs/*.md",)

#: ``[text](target)`` — excluding images' leading ``!`` is unnecessary,
#: image targets must resolve too.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

_EXTERNAL = ("http://", "https://", "mailto:")

#: ``[[target]]`` — wiki-style references must resolve to a doc file
#: (``docs/<target>.md``, ``<target>.md`` or the literal path).
_WIKI_LINK = re.compile(r"\[\[([^\]\n]+)\]\]")

#: Doc sections that code elsewhere relies on (CI job descriptions,
#: module docstrings, README cross-references).  Heading matching is by
#: exact line prefix, so a renamed or deleted section fails the docs job
#: instead of silently orphaning its references.
REQUIRED_HEADINGS: dict[str, tuple[str, ...]] = {
    "docs/architecture.md": (
        "## The mesh: simulated chips, real numerics",
        "## Layouts and partitioning: the paper's Section 3",
        "## Capture: trace-once decode programs",
        "## Serving: one replica, two phases",
        "## Cluster: fleets, faults, admission",
        "## Autoscaling and disaggregation",
        "## The paged KV store: prefix sharing",
    ),
    "docs/cluster.md": (
        "## Replicas and health (`repro.cluster.replica`)",
        "## Admission control (`repro.cluster.admission`)",
        "## Dispatch, failover, drain, hedging "
        "(`repro.cluster.control_plane`)",
        "## Records: the journal and its event view",
        "## Disaggregated prefill/decode pools (`repro.cluster.disagg`)",
        "## Chaos harness (`repro.cluster.chaos`)",
    ),
    "docs/fault_tolerance.md": (
        "## Crash recovery & the journal",
    ),
    "docs/kvstore.md": (
        "## Pages and the arena (`repro.kvstore.arena`)",
        "## The radix index (`repro.kvstore.radix`)",
        "## The store facade (`repro.kvstore.store`)",
        "## Cluster integration",
        "## The benchmark gate",
    ),
    "docs/mesh_backends.md": (
        "## Capture and replay: the step compiler",
        "### Bit-exactness contract",
        "### Invalidation rules",
        "## Capture v2: the program cache",
        "### Prefill programs",
        "### Fused decode windows",
        "### Parallel replica stepping",
    ),
    "docs/autoscaling.md": (
        "## The trace generator: load as pure data",
        "## The autoscaler policy",
        "## The brownout ladder",
        "### The disagg ladder: collapse-to-colocated",
        "### Recovery conditions",
        "## The autoscale benchmark",
    ),
}


def check_headings() -> list[str]:
    """All missing required headings, as ``file: heading`` strings."""
    errors = []
    for rel, headings in REQUIRED_HEADINGS.items():
        path = ROOT / rel
        if not path.exists():
            errors.append(f"{rel}: required doc file missing")
            continue
        lines = {line.rstrip() for line in path.read_text().splitlines()}
        for heading in headings:
            if heading not in lines:
                errors.append(f"{rel}: missing required heading "
                              f"{heading!r}")
    return errors


def doc_files() -> list[pathlib.Path]:
    files = [ROOT / name for name in DOC_FILES]
    for pattern in DOC_GLOBS:
        files.extend(sorted(ROOT.glob(pattern)))
    return [f for f in files if f.exists()]


def check_links() -> list[str]:
    """All broken internal references, as ``file: target`` strings."""
    errors = []
    for doc in doc_files():
        for match in _LINK.finditer(doc.read_text()):
            target = match.group(1)
            if target.startswith(_EXTERNAL) or target.startswith("#"):
                continue
            path = target.split("#")[0]
            if not path:
                continue
            resolved = (doc.parent / path).resolve()
            if not resolved.exists():
                errors.append(f"{doc.relative_to(ROOT)}: broken link "
                              f"-> {target}")
    return errors


def check_wiki_links() -> list[str]:
    """All dangling ``[[...]]`` references, as ``file: target`` strings."""
    errors = []
    for doc in doc_files():
        for match in _WIKI_LINK.finditer(doc.read_text()):
            target = match.group(1).strip()
            candidates = (
                ROOT / "docs" / f"{target}.md",
                ROOT / f"{target}.md",
                doc.parent / target,
                ROOT / target,
            )
            if not any(c.exists() for c in candidates):
                errors.append(f"{doc.relative_to(ROOT)}: dangling wiki "
                              f"link -> [[{target}]]")
    return errors


def public_modules() -> list[pathlib.Path]:
    """Every public module file under ``src/repro/`` (``_private`` skipped,
    package ``__init__.py`` files included)."""
    modules = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        if path.name.startswith("_") and path.name != "__init__.py":
            continue
        modules.append(path)
    return modules


def check_docstrings() -> list[str]:
    """Public ``src/repro/`` modules lacking a non-empty docstring."""
    errors = []
    for path in public_modules():
        doc = ast.get_docstring(ast.parse(path.read_text()))
        if not doc or not doc.strip():
            errors.append(f"{path.relative_to(ROOT)}: public module has "
                          f"no docstring")
    return errors


def doctest_modules() -> list[str]:
    """Dotted names of ``src/`` modules containing doctest prompts."""
    modules = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        if ">>>" in path.read_text():
            rel = path.relative_to(ROOT / "src").with_suffix("")
            modules.append(".".join(rel.parts))
    return modules


def run_doctests() -> list[str]:
    """Doctest failures, as ``module: n failed`` strings."""
    sys.path.insert(0, str(ROOT / "src"))
    errors = []
    for name in doctest_modules():
        module = importlib.import_module(name)
        result = doctest.testmod(module, verbose=False)
        if result.failed:
            errors.append(f"{name}: {result.failed} of "
                          f"{result.attempted} doctests failed")
        elif not result.attempted:
            errors.append(f"{name}: contains '>>>' but doctest collected "
                          f"no examples (malformed docstring?)")
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--links", action="store_true",
                        help="only check markdown links")
    parser.add_argument("--doctests", action="store_true",
                        help="only run doctests")
    args = parser.parse_args(argv)
    do_links = args.links or not args.doctests
    do_doctests = args.doctests or not args.links

    errors = []
    if do_links:
        errors += check_links()
        errors += check_wiki_links()
        errors += check_headings()
        errors += check_docstrings()
        print(f"link-check: {len(doc_files())} files scanned, "
              f"{len(public_modules())} module docstrings checked")
    if do_doctests:
        errors += run_doctests()
        print(f"doctests: {len(doctest_modules())} modules run")
    for error in errors:
        print(f"ERROR: {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
