#!/usr/bin/env python3
"""Self-test for mcdc_lint.py (ctest: lint_selftest).

Three claims, in order of importance:

 1. NEGATIVE: every `// VIOLATION(<rule>)` marker in tools/lint/fixtures/
    is reported by the linter with the matching rule at the marked
    file:line — a lint that silently stops flagging a rule fails here.
 2. PRECISE: the fixture run reports nothing that is not marked
    (clean.cpp packs the benign patterns: placement new, throw paths,
    contract macros, MCDC_ALLOC_OK callees, allow() comments).
 3. CLEAN + ANNOTATED: the real tree lints clean, and every annotation
    class has at least one root (so the annotations cannot rot away).

Exits 0 on success, 1 on failure. Needs only python3; the linter picks
libclang when importable and falls back to its text frontend otherwise.
"""

import json
import os
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.realpath(os.path.join(HERE, "..", ".."))
LINT = os.path.join(HERE, "mcdc_lint.py")
FIXTURES = os.path.join(HERE, "fixtures")

MARKER_RE = re.compile(r"VIOLATION\((\w+)\)")

failures = []


def check(cond, msg):
    if not cond:
        failures.append(msg)
        print(f"FAIL: {msg}")
    return cond


def run_lint(args):
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tf:
        report_path = tf.name
    try:
        proc = subprocess.run(
            [sys.executable, LINT, "--report", report_path] + args,
            capture_output=True, text=True, cwd=ROOT, timeout=600)
        with open(report_path) as f:
            report = json.load(f)
    finally:
        os.unlink(report_path)
    return proc, report


def collect_markers(base):
    """(relpath, line, rule) for every VIOLATION marker under base."""
    out = []
    for dirpath, _, names in os.walk(base):
        for fname in sorted(names):
            if not fname.endswith((".h", ".hpp", ".cpp", ".cc")):
                continue
            p = os.path.join(dirpath, fname)
            rel = os.path.relpath(p, ROOT)
            with open(p, encoding="utf-8") as f:
                for lineno, line in enumerate(f, 1):
                    for m in MARKER_RE.finditer(line):
                        out.append((rel, lineno, m.group(1)))
    return out


def match_violations(markers, violations, context):
    reported = {(v["file"], v["line"], v["rule"]) for v in violations}
    for rel, line, rule in markers:
        check((rel, line, rule) in reported,
              f"{context}: expected [{rule}] at {rel}:{line}, linter "
              f"reported only: {sorted(reported) or 'nothing'}")
    marked = {(rel, line) for rel, line, _ in markers}
    for v in violations:
        check((v["file"], v["line"]) in marked,
              f"{context}: unexpected finding [{v['rule']}] at "
              f"{v['file']}:{v['line']}: {v['message']}")


def main():
    # ---- 1+2: fixture run (function rules; module-less layout) ----------
    proc, report = run_lint(
        ["--src", "tools/lint/fixtures", "--no-headers"])
    print(f"[fixtures] frontend={report['frontend']} "
          f"functions={report['functions']} rules={report['rules']}")
    check(proc.returncode == 1,
          f"fixture run must exit 1 (violations), got {proc.returncode}\n"
          f"{proc.stdout}{proc.stderr}")
    fixture_markers = [
        m for m in collect_markers(FIXTURES)
        if not m[0].startswith(
            os.path.relpath(os.path.join(FIXTURES, "layering_bad"), ROOT))
    ]
    check(len(fixture_markers) >= 8,
          f"marker scan looks broken: only {len(fixture_markers)} markers")
    match_violations(fixture_markers, report["violations"], "fixtures")
    for rule in ("alloc", "lock", "stamp", "det"):
        check(report["rules"][rule] > 0,
              f"fixture run flagged nothing for rule '{rule}'")

    # ---- 1+2: layering fixture (its own miniature src root) -------------
    proc, report = run_lint(
        ["--src", "tools/lint/fixtures/layering_bad/src"])
    print(f"[layering] headers_probed={report['headers_probed']} "
          f"rules={report['rules']}")
    check(proc.returncode == 1,
          f"layering run must exit 1, got {proc.returncode}\n"
          f"{proc.stdout}{proc.stderr}")
    lay_markers = collect_markers(os.path.join(FIXTURES, "layering_bad"))
    if not report["headers_probed"]:
        # No C++ compiler: the self-sufficiency probe (and its marker)
        # is out of scope for this environment.
        lay_markers = [m for m in lay_markers
                       if "not_self_sufficient" not in m[0]]
    match_violations(lay_markers, report["violations"], "layering")
    check(report["rules"]["layering"] > 0, "layering rule flagged nothing")

    # ---- 3: the real tree must lint clean, with live annotations --------
    proc, report = run_lint(["--require-roots"])
    print(f"[tree] frontend={report['frontend']} "
          f"files={report['files_scanned']} "
          f"functions={report['functions']} rules={report['rules']}")
    check(proc.returncode == 0,
          f"real tree must lint clean, got exit {proc.returncode}:\n"
          f"{proc.stdout}{proc.stderr}")
    roots = report["annotation_roots"]
    # lock_free = 5 pins the SPSC ring trio (try_push / try_push_span /
    # consume_all) alongside LatencyHistogram::record and the one obs
    # telemetry ring, Ring<T>::push (StreamingEngine::credit_throttle was
    # deleted with the credit window; SampleRing::push and SpanRing::push
    # merged into Ring<T>::push, which removed the SpanRing::push root):
    # deleting a ring annotation fails this gate, per the ingest-fast-path
    # contract. no_alloc/hot_path floors track the same hot entry points.
    for tag, floor in (("no_alloc", 9), ("lock_free", 5),
                       ("deterministic", 6), ("hot_path", 9),
                       ("alloc_ok", 2)):
        check(len(roots.get(tag, [])) >= floor,
              f"expected >= {floor} {tag} annotations in the tree, found "
              f"{len(roots.get(tag, []))}: {roots.get(tag)}")

    if failures:
        print(f"\nlint_selftest: {len(failures)} failure(s)")
        return 1
    print("\nlint_selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
