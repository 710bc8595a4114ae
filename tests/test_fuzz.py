"""Every accepted document ends with finite output: a config fuzzer.

Baseline documents with one to three numeric leaves moved to an extreme,
or, half the time where the rest of the document sets an edge for the
leaf, to that edge, each run one subcommand through ``sdlb.cli.main``,
all of them in one fresh interpreter under a 2.5 GB address-space limit
and a 120 s CPU limit, with every warning raised as an error. Each must
exit 0, 1 (a failed validation) or 2; on exit 2 it must name the path of
what it refused; and no CSV it writes may hold a nan or an inf. Exit 3
is a crash.
"""
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

from sdlb.config import MAX_CAPACITY, MEMORY_BUDGET, SESSION_BYTES, STREAM_BYTES, default_config

SRC = Path(__file__).resolve().parents[1] / "src"

EXTREMES = (0, 1, -1, -0.0, 0.5, 3, 5e-324, 1e-300, 1e15, 1e300, sys.float_info.max,
            2**53 + 1, 10**7)
# a capacity also takes the largest accepted value and the first refused
# one. Only capacities: the largest accepted rate, say, asks the protocol
# simulator for tens of seconds of work, which WORK_CAP admits
CAPACITY_EXTREMES = (MAX_CAPACITY, MAX_CAPACITY + 1)
COMMANDS = ("figures", "validate", "scenario")
DOCUMENTS = 330
# A run stays short: these leaves are moved only to values at or below
# their base. A larger value only asks for more work, which WORK_CAP
# bounds (tested in test_config)
SHORT = {("sim", "target_events"): 20_000, ("sim", "horizon"): 5.0}
ADDRESS_SPACE = 2500 * 2**20
CPU_SECONDS = 120

CHILD = """
import contextlib, io, json, re, resource, shutil, sys, tempfile, warnings
from pathlib import Path

for name, limit in zip(("RLIMIT_AS", "RLIMIT_CPU"), map(int, sys.argv[1:])):
    hard = resource.getrlimit(getattr(resource, name))[1]
    resource.setrlimit(getattr(resource, name),
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


def first_order_edge(rates) -> float:
    """The largest T with rate * T < 1 for every one of ``rates``; 0.0 when
    none is positive and finite."""
    top = max((r for r in rates if 0 < r < math.inf), default=math.inf)
    T = 1 / top
    while top * T >= 1:
        T = math.nextafter(T, 0)
    return T


def relative_values(doc, path) -> dict:
    """{rule: value} for the leaf at ``path``: the edges that the rest of
    ``doc`` sets for it, which no constant can name."""
    kinds = doc["types"].values()
    if path[0] == "types" and path[-1] == "k2":
        kind = doc["types"][path[1]]
        return {"k2 = k1 + 1": kind["k1"] + 1, "k2 = m": kind["m"]}
    if path[0] == "types" and path[-1] == "k1":
        return {"k1 = 0": 0, "k1 = k2 - 1": doc["types"][path[1]]["k2"] - 1}
    if path == ("overhead", "T"):
        # just inside the first-order region, as bound by either product
        return {"lam*T below 1": first_order_edge(k["lam"] for k in kinds),
                "(k2+1)*mu*T below 1": first_order_edge((k["k2"] + 1) * k["mu"] for k in kinds)}
    if path == ("topology", "grid_count"):
        per_grid = doc["topology"]["cells_per_grid"] * sum(
            STREAM_BYTES + k["m"] * SESSION_BYTES for k in kinds)
        if per_grid > 0:
            return {"grid_count at the protocol memory bound": MEMORY_BUDGET // per_grid}
    return {}


def documents(seed=4):
    """(command, moved leaves, document) for DOCUMENTS documents; each is
    ``base_document()`` with its moved leaves set, in turn, so a relative
    value reads the leaves moved before it."""
    rng = random.Random(seed)
    base = base_document()
    leaves = [p for p in numeric_leaves(base) if p[0] != "notes"]
    for i in range(DOCUMENTS):
        doc = json.loads(json.dumps(base))
        moved = {}
        for path in rng.sample(leaves, rng.randint(1, 3)):
            values = [v for v in EXTREMES if path not in SHORT or v <= SHORT[path]]
            if path[-1] == "m":
                values += CAPACITY_EXTREMES
            node = doc
            for key in path[:-1]:
                node = node[key]
            relative = relative_values(doc, path)
            if relative and rng.random() < 0.5:
                rule = rng.choice(sorted(relative))
                node[path[-1]] = relative[rule]
                moved[dotted(path)] = f"{relative[rule]!r} ({rule})"
            else:
                node[path[-1]] = moved[dotted(path)] = rng.choice(values)
        yield COMMANDS[i % len(COMMANDS)], moved, doc


def test_documents_take_every_relative_value():
    rules = {rule for path in [("types", "umts", "k1"), ("types", "umts", "k2"),
                               ("overhead", "T"), ("topology", "grid_count")]
             for rule in relative_values(base_document(), path)}
    taken = {value.rsplit(" (", 1)[1][:-1] for _, moved, _ in documents()
             for value in moved.values() if isinstance(value, str)}
    assert taken == rules


def test_extreme_documents_end_with_finite_output():
    cases = list(documents())
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    # one BLAS thread: per-thread buffers on a many-core host would take
    # address space from the limit before any document runs
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    run = subprocess.run(
        [sys.executable, "-c", CHILD, str(ADDRESS_SPACE), str(CPU_SECONDS)],
        input="".join(json.dumps([command, doc]) + "\n" for command, _, doc in cases),
        capture_output=True, text=True, env=env, timeout=300,
    )
    results = [json.loads(line) for line in run.stdout.splitlines()]
    if len(results) < len(cases):
        command, moved, _ = cases[len(results)]
        raise AssertionError(f"the child died (exit {run.returncode}) on sdlb {command} on the "
                             f"base document with {moved}, the first document that printed "
                             f"no result\n{run.stderr}")
    assert run.returncode == 0, run.stderr
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
