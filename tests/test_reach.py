"""``tools/reach.py`` keys a reached function exactly as it lists it.

The profile hook records ``(file, co_firstlineno)`` per code object and
the lister keys each ``def`` by its first decorator's line, so a function
is "reached" only if both sides agree on that key.  The fixture below has
one function of every shape whose key could drift: decorated, nested, a
method and a property, a coroutine, one that runs only on a thread, and
one that never runs.
"""

from __future__ import annotations

import subprocess
import sys

import tools.reach as reach

FIXTURE = '''\
import asyncio
import functools
import threading


def traced(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return fn(*args, **kwargs)
    return wrapper


@traced
def decorated():
    return 1


def outer():
    def nested():
        return 2
    return nested()


class Thing:
    @property
    def value(self):
        return 3

    def method(self):
        return self.value


async def coroutine():
    return 4


def on_thread():
    return 5


def never_called():
    return 6


decorated()
outer()
Thing().method()
asyncio.run(coroutine())
thread = threading.Thread(target=on_thread)
thread.start()
thread.join()
'''

REACHED = {
    "traced", "traced.<locals>.wrapper", "decorated", "outer",
    "outer.<locals>.nested", "Thing.value", "Thing.method", "coroutine",
    "on_thread",
}


def test_every_shape_maps_to_its_ast_entry(tmp_path):
    root = tmp_path / "root"
    root.mkdir()
    (root / "fixture.py").write_text(FIXTURE)
    out = tmp_path / "out"
    env = reach.hook_env(reach.write_hook(tmp_path / "hook"), out, root, root)
    subprocess.run([sys.executable, "-c", "import fixture"], env=env,
                   cwd=tmp_path, check=True)

    functions = reach.list_functions(root)
    assert {f.name for f in functions.values()} == REACHED | {"never_called"}
    # The decorated function is keyed on its decorator's line.
    decorated = next(f for f in functions.values() if f.name == "decorated")
    assert FIXTURE.splitlines()[decorated.line - 1] == "@traced"

    keys = reach.read_keys(out)
    reached = {functions[key].name for key in keys if key in functions}
    assert reached == REACHED
    (never,) = [k for k, f in functions.items() if f.name == "never_called"]
    assert never not in keys
