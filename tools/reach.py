#!/usr/bin/env python3
"""Which ``src/`` functions only the tests reach.

    python tools/reach.py

lists every function under ``src/repro`` with :mod:`ast`, then runs two
sets of programs with a profile hook in every Python process they start:

* tier-1 (``python -m pytest -q`` over ``tests/``);
* the product entry points: ``benchmarks/paper.py``, every ``repro`` verb
  CI's smoke jobs run (a live ``repro serve`` drained over the wire among
  them), the chaos drills, ``stats`` / ``topk`` / ``estimate``, ``join``
  under every algorithm, ``examples/*.py``, the benchmark harness suite
  and each ``BENCHMARK.json`` workload, untraced and traced.

It prints the functions no program reached and those only tier-1
reached, with line counts.  Either list is a deletion candidate: a
function on it is deleted, or its docstring names the product path or
the safety reason that keeps it.  Standard library only; it takes about
35 minutes on two cores, so it is run by hand, not in CI.  Outputs go to a
temporary directory; ``paper.py`` rewrites ``benchmarks/results/paper.md``
in place, byte for byte.

The hook is a generated ``sitecustomize.py`` put first on ``PYTHONPATH``.
When ``REACH_OUT`` is set it installs ``sys.setprofile`` and
``threading.setprofile`` hooks that keep the code object of every
``call`` event, and at exit writes one ``path<TAB>line`` key per code
object under ``REACH_ROOT`` into ``REACH_OUT``.  A function is keyed by
its file and first line (``co_firstlineno``, its first decorator's line
when decorated), which every supported Python has; ``co_qualname`` does
not exist before 3.11.  Child processes inherit the environment, and a
child started with its own ``PYTHONPATH`` gets the hook prepended, so
``repro serve`` and the benchmark's children are traced too.  Forked
pool workers leave through ``os._exit`` and are not.
"""

from __future__ import annotations

import ast
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

Key = Tuple[str, int]

SITECUSTOMIZE = '''\
import os

if os.environ.get("REACH_OUT"):
    import atexit
    import subprocess
    import sys
    import threading

    _HOOK_DIR = os.path.dirname(os.path.abspath(__file__))
    _seen = set()

    def _profile(frame, event, arg, _add=_seen.add):
        if event == "call":
            _add(frame.f_code)

    def _dump():
        sys.setprofile(None)
        root = os.path.abspath(os.environ["REACH_ROOT"]) + os.sep
        keys = set()
        for code in _seen:
            path = os.path.abspath(code.co_filename)
            if path.startswith(root):
                keys.add((path[len(root):], code.co_firstlineno))
        name = "%d-%d.keys" % (os.getpid(), id(_seen))
        with open(os.path.join(os.environ["REACH_OUT"], name), "w") as out:
            out.writelines("%s\\t%d\\n" % key for key in sorted(keys))

    _popen_init = subprocess.Popen.__init__

    def _traced_popen(self, *args, **kwargs):
        env = kwargs.get("env")
        if env is not None and env.get("REACH_OUT"):
            paths = env.get("PYTHONPATH", "").split(os.pathsep)
            if paths[0] != _HOOK_DIR:
                env = dict(env)
                env["PYTHONPATH"] = os.pathsep.join(
                    [_HOOK_DIR] + [p for p in paths if p])
                kwargs["env"] = env
        _popen_init(self, *args, **kwargs)

    subprocess.Popen.__init__ = _traced_popen
    atexit.register(_dump)
    threading.setprofile(_profile)
    sys.setprofile(_profile)
'''


class Function(NamedTuple):
    path: str
    line: int
    name: str
    lines: int


def list_functions(root: Path) -> Dict[Key, Function]:
    """Every ``def`` / ``async def`` under *root*, keyed like the hook.

    A function's key line is its first decorator's line when it has one:
    that is the ``co_firstlineno`` of its code object.
    """
    functions: Dict[Key, Function] = {}

    def visit(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                functions[(path, first)] = Function(
                    path, first, name, child.end_lineno - first + 1)
                visit(child, path, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for file in sorted(root.rglob("*.py")):
        path = file.relative_to(root).as_posix()
        visit(ast.parse(file.read_text(), str(file)), path, "")
    return functions


def write_hook(directory: Path) -> Path:
    """Write the profile hook as ``sitecustomize.py`` into *directory*."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "sitecustomize.py").write_text(SITECUSTOMIZE)
    return directory


def hook_env(hook_dir: Path, out: Path, root: Path, *paths: Path) -> Dict[str, str]:
    """An environment whose Python processes record reached keys in *out*."""
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(str(p) for p in (hook_dir, *paths))
    env["REACH_OUT"] = str(out)
    env["REACH_ROOT"] = str(root)
    return env


def read_keys(out: Path) -> Set[Key]:
    """The union of the keys every traced process wrote into *out*."""
    keys: Set[Key] = set()
    for file in out.glob("*.keys"):
        for row in file.read_text().splitlines():
            path, line = row.split("\t")
            keys.add((path, int(line)))
    return keys


def _repro(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro", *args]


class _Runner:
    """Runs commands with the hook on and records any that fail."""

    def __init__(self, env: Dict[str, str], work: Path) -> None:
        self.env, self.work, self.failures = env, work, []

    def run(self, command: List[str], *, cwd: Path = None,
            expect_fail: bool = False) -> None:
        done = subprocess.run(command, cwd=cwd or self.work, env=self.env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True)
        words = command[1:] if command[1] != "-c" else ["-c", "...", *command[3:]]
        print(f"  [{done.returncode}] {' '.join(words)}", flush=True)
        if (done.returncode != 0) != expect_fail:
            self.failures.append(" ".join(words))
            print(done.stderr[-2000:], flush=True)

    def serve(self, cluster: str, flags: List[str], clients) -> None:
        """Start ``repro serve`` on an ephemeral port, run *clients* (a
        function of ``HOST:PORT``), drain it over the wire, wait for exit."""
        process = subprocess.Popen(
            _repro("serve", cluster, "--port", "0", *flags), cwd=self.work,
            env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True)
        lines: List[str] = []
        address = None
        for line in process.stderr:
            lines.append(line)
            match = re.search(r"listening on (\S+):(\d+) ", line)
            if match:
                address = f"{match.group(1)}:{match.group(2)}"
                break
        reader = threading.Thread(target=lambda: lines.extend(process.stderr))
        reader.start()
        try:
            if address is None:
                raise RuntimeError("repro serve never listened")
            clients(address)
            self.run(_repro("query", "--connect", address, "--drain"))
            process.wait(timeout=60)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            process.kill()
            process.wait()
            self.failures.append(f"serve {' '.join(flags)}: {exc}")
            print("".join(lines)[-2000:], flush=True)
        reader.join()
        print(f"  [{process.returncode}] serve {cluster} {' '.join(flags)}",
              flush=True)


def run_tests(env: Dict[str, str]) -> List[str]:
    """Tier-1, traced.  A test that fails under the hook is reported, not
    fatal: the reach of the rest still counts."""
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests"], cwd=ROOT, env=env)
    return [] if done.returncode == 0 else ["tier-1 (see pytest output)"]


def run_product(env: Dict[str, str], work: Path) -> List[str]:
    """Every product entry point, traced.  Returns the commands that
    failed (the error-path steps are expected to exit 1)."""
    r = _Runner(env, work)
    r.run(_repro("generate", "--corpus", "wiki", "--records", "200",
                 "--output", "wiki.txt"))
    lines = (work / "wiki.txt").read_text().splitlines()
    (work / "left.txt").write_text("\n".join(lines[:100]) + "\n")
    (work / "right.txt").write_text("\n".join(lines[100:]) + "\n")
    first = lines[0].split("\t", 1)[1]

    # Batch joins: process-executor, trace and R-S smokes.
    r.run(_repro("join", "wiki.txt", "--theta", "0.8", "--algorithm", "fsjoin",
                 "--executor", "process"))
    r.run(_repro("join", "wiki.txt", "--theta", "0.8", "--executor", "process",
                 "--quiet", "--trace", "join.jsonl"))
    r.run([sys.executable, str(ROOT / "tools" / "check_trace.py"), "join.jsonl",
           "--expect-phases", "pipeline", "driver", "job"])
    r.run(_repro("trace", "join.jsonl", "--chrome", "join.chrome.json"))
    r.run(_repro("join", "left.txt", "--right", "right.txt", "--theta", "0.8",
                 "--quiet", "--trace", "rs.jsonl"))
    r.run(_repro("join", "left.txt", "--right", "right.txt", "--theta", "0.8",
                 "--quiet"))

    # Index and search, single node and cluster.
    r.run(_repro("index", "wiki.txt", "--output", "wiki.idx", "--vertical", "8"))
    r.run(_repro("search", "wiki.idx", "--query-file", "wiki.txt", "--theta",
                 "0.6", "--trace", "search.jsonl"))
    r.run(_repro("search", "wiki.idx", "--query-file", "wiki.txt", "--theta",
                 "0.6"))
    r.run(_repro("search", "wiki.idx", "--query", first, "--theta", "0.5"))
    r.run(_repro("search", "wiki.idx", "--rid", "1", "--theta", "0.5"))
    r.run(_repro("cluster", "build", "wiki.txt", "--output", "wiki.cluster",
                 "--shards", "4", "--replication", "2", "--vertical", "8"))
    r.run(_repro("cluster", "search", "wiki.cluster", "--query-file",
                 "wiki.txt", "--theta", "0.6", "--fail-shard", "1", "--trace",
                 "cluster.jsonl"))
    r.run(_repro("cluster", "search", "wiki.cluster", "--rid", "1", "--theta",
                 "0.5"))
    r.run(_repro("search", "wiki.cluster/index.idx", "--query-file", "wiki.txt",
                 "--theta", "0.6"))
    r.run(_repro("cluster", "status", "wiki.cluster"))
    # The fail-closed paths: a manifest without a plan, an old manifest
    # version, an old snapshot version.
    for name, edit in (("bad", "bad"), ("old", "old")):
        shutil.copytree(work / "wiki.cluster", work / f"{name}.cluster")
        manifest = work / f"{name}.cluster" / "manifest.json"
        if edit == "bad":
            manifest.write_text('{"format": "repro-cluster", "version": 4}')
        else:
            doc = json.loads(manifest.read_text())
            doc["version"] -= 1
            manifest.write_text(json.dumps(doc))
        r.run(_repro("cluster", "status", f"{name}.cluster"), expect_fail=True)
    r.run([sys.executable, "-c",
           "import pickle; p = 'old.cluster/index.idx'; "
           "e = pickle.load(open(p, 'rb')); e['version'] -= 1; "
           "pickle.dump(e, open(p, 'wb'))"])
    r.run(_repro("search", "old.cluster/index.idx", "--rid", "1", "--theta",
                 "0.8"), expect_fail=True)

    # The wire: a traced server answering, reporting, refusing malformed
    # payloads and draining; then a self-healing one and an ingesting one.
    r.run(_repro("cluster", "build", "wiki.txt", "--output", "net.cluster",
                 "--shards", "3", "--replication", "2", "--vertical", "8"))

    def wire(address: str) -> None:
        r.run(_repro("query", "--connect", address, "--query", "w007 w012 w040",
                     "--theta", "0.5"))
        r.run(_repro("query", "--connect", address, "--query-file", "wiki.txt",
                     "--theta", "0.6"))
        r.run(_repro("query", "--connect", address, "--status"))
        r.run([sys.executable, "-c", _MALFORMED, address])

    r.serve("net.cluster", ["--trace", "net.jsonl"], wire)

    def heal(address: str) -> None:
        time.sleep(1.0)
        r.run(_repro("query", "--connect", address, "--status"))

    r.serve("net.cluster", ["--heal", "--heal-interval", "0.2"], heal)
    r.serve("net.cluster", ["--ingest", "--hedge"], lambda address: r.run(
        _repro("query", "--connect", address, "--query", first, "--theta", "0.5")))

    # Streaming ingest.
    r.run(_repro("ingest", "wiki.txt", "--base", "100", "--batch-size", "16",
                 "--memtable-limit", "32", "--fanout", "2", "--vertical", "8",
                 "--verify", "--snapshot", "ingested.idx", "--trace",
                 "ingest.jsonl"))
    r.run(_repro("ingest", "wiki.txt", "--base", "0", "--batch-size", "16",
                 "--memtable-limit", "32", "--fanout", "2", "--vertical", "8",
                 "--verify"))
    r.run(_repro("search", "ingested.idx", "--query-file", "wiki.txt",
                 "--theta", "0.6"))

    # Chaos drills.
    r.run(_repro("chaos", "--seed", "7", "--trace", "chaos.jsonl"))
    for scenario in ("gateway", "heal", "ingest"):
        r.run(_repro("chaos", "--seed", "11", "--scenario", scenario,
                     "--trace", f"{scenario}.jsonl"))
    r.run(_repro("chaos", "--seed", "7", "--scenario", "net"))

    # The remaining verbs, and join under every algorithm.
    r.run(_repro("stats", "wiki.txt"))
    r.run(_repro("topk", "wiki.txt", "-k", "5"))
    r.run(_repro("estimate", "wiki.txt", "--theta", "0.8"))
    sys.path.insert(0, str(SRC))
    from repro.cli import ALGORITHMS

    for algorithm in ALGORITHMS:
        r.run(_repro("join", "wiki.txt", "--theta", "0.8", "--algorithm",
                     algorithm, "--quiet"))

    for example in sorted((ROOT / "examples").glob("*.py")):
        r.run([sys.executable, str(example)])
    r.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "benchmarks/perf/tests"], cwd=ROOT)
    r.run([sys.executable, "benchmarks/paper.py"], cwd=ROOT)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in benchmark["workloads"]:
        name = workload["name"]
        r.run([sys.executable, "benchmarks/perf/run.py", "--workload", name,
               "--seed", "7", "--seconds", "3", "--trace", "0", "--out",
               str(work / f"{name}-0.json")], cwd=ROOT)
        r.run([sys.executable, "benchmarks/perf/run.py", "--workload", name,
               "--seed", "7", "--trace", "1", "--out",
               str(work / f"{name}-1.json")], cwd=ROOT)
    return r.failures


# Well-framed requests with broken payloads, as CI's net smoke sends them.
_MALFORMED = '''
import socket, sys
from repro.net.protocol import (ERROR, SEARCH, SEARCH_BATCH, Frame,
                                FrameDecoder, encode_frame, hello_frame,
                                status_frame)
host, port = sys.argv[1].rsplit(":", 1)
for frame in (Frame(SEARCH, 1, {"tokens": ["w007"], "theta": 0.5, "func": "x"}),
              Frame(SEARCH, 1, {"tokens": ["w007"]}),
              Frame(SEARCH_BATCH, 1, {"theta": 0.5})):
    with socket.create_connection((host, int(port)), 5.0) as raw:
        decoder = FrameDecoder()
        def exchange(request):
            raw.sendall(encode_frame(request))
            frames = []
            while not frames:
                frames = decoder.feed(raw.recv(65536))
            return frames[0]
        exchange(hello_frame(0, "reach"))
        assert exchange(frame).kind == ERROR
        exchange(status_frame(2))
'''


def report(functions: Dict[Key, Function], tests: Set[Key],
           product: Set[Key]) -> None:
    """Print the never-reached and tier-1-only lists and the totals."""
    never = [f for k, f in functions.items() if k not in tests | product]
    only = [f for k, f in functions.items() if k in tests and k not in product]
    for title, group in (("never reached", never),
                         ("reached only by tier-1", only)):
        print(f"\n{title}: {len(group)} functions, "
              f"{sum(f.lines for f in group)} lines")
        for f in sorted(group):
            print(f"  {f.path}:{f.line}  {f.name}  ({f.lines} lines)")
    reached = sum(1 for k in functions if k in product)
    print(f"\nfunctions {len(functions)}; product reaches {reached}; "
          f"tier-1 only {len(only)}; never reached {len(never)}")


def main() -> int:
    functions = list_functions(SRC)
    with tempfile.TemporaryDirectory(prefix="reach-") as temp:
        temp = Path(temp)
        hook = write_hook(temp / "hook")
        print("tier-1:", flush=True)
        failures = run_tests(hook_env(hook, temp / "tests", SRC, SRC))
        print("product entry points:", flush=True)
        work = temp / "work"
        work.mkdir()
        failures += run_product(
            hook_env(hook, temp / "product", SRC, SRC), work)
        tests = read_keys(temp / "tests")
        product = read_keys(temp / "product")
    report(functions, tests, product)
    if failures:
        print("\nfailed:", *failures, sep="\n  ")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
