#!/usr/bin/env python3
"""Golden tests for tools/simrank_lint.

For every rule R1-R5 there is a positive fixture (the rule must fire, at
the expected file) and a negative fixture (the compliant counterpart must
stay quiet). On top of that: the suppression grammar (justified allow()
suppresses, bare allow() does not), baseline round-trip (a written
baseline silences exactly the findings it recorded and regenerates
byte-identically), and the real tree must lint clean against the
committed baseline.

Run directly or via ctest (simrank_lint_golden). Exits non-zero on the
first failed expectation.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
LINT = os.path.join(REPO, "tools", "simrank_lint")
POSITIVE = os.path.join(HERE, "fixtures", "positive")
NEGATIVE = os.path.join(HERE, "fixtures", "negative")

failures = []


def check(label, condition, detail=""):
    if condition:
        print("ok   %s" % label)
    else:
        print("FAIL %s%s" % (label, " — " + detail if detail else ""))
        failures.append(label)


def run_lint(*argv):
    proc = subprocess.run(
        [sys.executable, LINT, *argv],
        capture_output=True,
        text=True,
        cwd=REPO,
    )
    return proc


def run_lint_json(*argv):
    proc = run_lint(*argv, "--format", "json")
    try:
        doc = json.loads(proc.stdout)
    except json.JSONDecodeError:
        check("json output parses", False, repr(proc.stdout[:200]))
        sys.exit(1)
    return proc.returncode, doc


def rule_paths(doc):
    pairs = {}
    for f in doc["findings"]:
        pairs.setdefault((f["rule"], f["path"]), 0)
        pairs[(f["rule"], f["path"])] += 1
    return pairs


def main():
    # --- positive fixtures: each rule fires exactly where expected -------
    code, doc = run_lint_json("--root", POSITIVE, "--no-baseline")
    check("positive root exits 1", code == 1, "exit=%d" % code)
    got = rule_paths(doc)
    expected = {
        ("R1", "src/r1.cc"): 1,
        ("R2", "src/r2.cc"): 1,
        ("R2", "src/r2b.cc"): 3,  # engine + distribution adaptor + drand48
        ("R3", "src/r3.cc"): 1,
        ("R3", "src/r3b.cc"): 1,
        ("R4", "src/r4.cc"): 1,
        ("R4", "src/suppress.cc"): 1,  # bare allow() is not a suppression
        ("R4", "src/util/status.h"): 2,  # Status + Result lost [[nodiscard]]
        # AtomicFileWriter + BinaryWriter + BinaryReader + ReadFile
        ("R5", "src/r5.cc"): 4,
        ("R6", "src/simrank/r6.cc"): 2,  # array new[] + malloc on hot path
    }
    check(
        "positive findings match expectations",
        got == expected,
        "got %r" % (got,),
    )
    check(
        "positive run suppressed nothing",
        doc["suppressed"] == 0,
        "suppressed=%d" % doc["suppressed"],
    )
    for f in doc["findings"]:
        check(
            "finding %s@%s has fingerprint" % (f["rule"], f["path"]),
            bool(f["fingerprint"]),
        )

    # --- negative fixtures: compliant code stays quiet --------------------
    code, doc = run_lint_json("--root", NEGATIVE, "--no-baseline")
    check("negative root exits 0", code == 0, "exit=%d" % code)
    check(
        "negative root has no findings",
        doc["findings"] == [],
        "got %r" % rule_paths(doc),
    )
    check(
        "justified allow(R4) counted as suppression",
        doc["suppressed"] == 1,
        "suppressed=%d" % doc["suppressed"],
    )

    # --- baseline round-trip ---------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        baseline = os.path.join(tmp, "baseline.json")
        proc = run_lint("--root", POSITIVE, "--baseline", baseline,
                        "--write-baseline")
        check("write-baseline exits 0", proc.returncode == 0,
              proc.stderr.strip())
        code, doc = run_lint_json("--root", POSITIVE, "--baseline", baseline)
        check("baselined positive root exits 0", code == 0, "exit=%d" % code)
        check(
            "all findings marked baselined",
            all(f["baselined"] for f in doc["findings"])
            and len(doc["findings"]) == sum(expected.values()),
        )
        with open(baseline, encoding="utf-8") as fh:
            first = fh.read()
        run_lint("--root", POSITIVE, "--baseline", baseline,
                 "--write-baseline")
        with open(baseline, encoding="utf-8") as fh:
            second = fh.read()
        check("baseline regenerates byte-identically", first == second)
        doc_parsed = json.loads(first)
        check(
            "baseline records one fingerprint per finding",
            len(doc_parsed["fingerprints"]) == sum(expected.values()),
            "got %d" % len(doc_parsed["fingerprints"]),
        )

    # --- the real tree is clean against the committed baseline -----------
    proc = run_lint()
    check(
        "repo src/ lints clean vs committed baseline",
        proc.returncode == 0,
        (proc.stdout + proc.stderr).strip()[:400],
    )

    if failures:
        print("\n%d golden check(s) failed" % len(failures))
        return 1
    print("\nall golden checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
