"""Every accepted document ends with finite output: a config fuzzer.

Baseline documents with one to three numeric leaves moved to an extreme
each run one subcommand through ``sdlb.cli.main``, all of them in one
fresh interpreter under a 2.5 GB address-space limit, with every warning
raised as an error. Each must exit 0, 1 (a failed validation) or 2; on
exit 2 it must name the path of what it refused; and no CSV it writes
may hold a nan or an inf. Exit 3 is a crash.
"""
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

from sdlb.config import default_config

SRC = Path(__file__).resolve().parents[1] / "src"

EXTREMES = (0, 1, -1, -0.0, 0.5, 3, 5e-324, 1e-300, 1e15, 1e300, sys.float_info.max,
            2**53 + 1, 10**7)
COMMANDS = ("figures", "validate", "scenario")
DOCUMENTS = 330
# A run stays short: these leaves are moved only to values at or below
# their base. A larger value only asks for more work, which WORK_CAP
# bounds (tested in test_config)
SHORT = {("sim", "target_events"): 20_000, ("sim", "horizon"): 5.0}
ADDRESS_SPACE = 2500 * 2**20

CHILD = """
import contextlib, io, json, re, resource, shutil, sys, tempfile, warnings
from pathlib import Path

limit, hard = int(sys.argv[1]), resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS,
                   (limit if hard == resource.RLIM_INFINITY else min(limit, hard), hard))
from sdlb import cli

warnings.simplefilter("error")
non_finite = re.compile(r"(?<![A-Za-z])(nan|inf)(?![A-Za-z])")
with tempfile.TemporaryDirectory() as tmp:
    doc_path, out = Path(tmp, "doc.json"), Path(tmp, "out")
    for line in sys.stdin:
        command, doc = json.loads(line)
        doc_path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(doc_path), "--out", str(out)])
        bad = [f"{csv.name}: {row}" for csv in sorted(out.glob("*.csv"))
               for row in csv.read_text().splitlines()
               if not row.startswith("#") and non_finite.search(row)]
        shutil.rmtree(out, ignore_errors=True)
        print(json.dumps([code, err.getvalue(), bad]), flush=True)
"""

# a path into the document, then the message or a refused sweep value
PATH_ERROR = re.compile(r"config error: [a-z_]+(\.[\w*]+|\[\d+\])*(: | value )")


def base_document() -> dict:
    doc = default_config().to_dict()
    doc["sim"].update(target_events=20_000, horizon=5.0, faults=[{"time": 2.0, "lmm_id": 1}],
                      borders=[{"time": 3.0, "cell_id": 4}])
    return doc


def numeric_leaves(node, path=()):
    """Paths to the int and float leaves of a document."""
    for key, v in (node.items() if isinstance(node, dict) else enumerate(node)):
        if isinstance(v, (dict, list)):
            yield from numeric_leaves(v, (*path, key))
        elif isinstance(v, (int, float)) and not isinstance(v, bool):
            yield (*path, key)


def dotted(path) -> str:
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path).lstrip(".")


def documents(seed=4):
    """(command, moved leaves, document) for DOCUMENTS documents; each is
    ``base_document()`` with its moved leaves set."""
    rng = random.Random(seed)
    base = base_document()
    leaves = [p for p in numeric_leaves(base) if p[0] != "notes"]
    for i in range(DOCUMENTS):
        doc = json.loads(json.dumps(base))
        moved = {}
        for path in rng.sample(leaves, rng.randint(1, 3)):
            values = [v for v in EXTREMES if path not in SHORT or v <= SHORT[path]]
            node = doc
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = moved[dotted(path)] = rng.choice(values)
        yield COMMANDS[i % len(COMMANDS)], moved, doc


def test_extreme_documents_end_with_finite_output():
    cases = list(documents())
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    # one BLAS thread: per-thread buffers on a many-core host would take
    # address space from the limit before any document runs
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    run = subprocess.run(
        [sys.executable, "-c", CHILD, str(ADDRESS_SPACE)],
        input="".join(json.dumps([command, doc]) + "\n" for command, _, doc in cases),
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    results = [json.loads(line) for line in run.stdout.splitlines()]
    assert len(results) == len(cases)
    failures = []
    for (command, moved, _), (code, err, bad) in zip(cases, results):
        ok = code in (0, 2) or (code, command) == (1, "validate")
        if code == 2:
            ok = ok and PATH_ERROR.match(err)
        if not ok or bad:
            failures.append(f"sdlb {command} on the base document with {moved}: "
                            f"exit {code}\n{err}" + "".join(f"{row}\n" for row in bad))
    assert not failures, (f"{len(failures)} of {len(cases)} documents failed; the first:\n"
                          + "\n\n".join(failures[:3]))
