"""``repro serve`` as a child process, measured from outside via /proc."""

from __future__ import annotations

import os
import re
import select
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional, Sequence, Tuple

from repro.errors import ReproError, TransportError
from repro.net import GatewayClient

ROOT = Path(__file__).resolve().parents[2]
READY_TIMEOUT_S = 60.0
CLIENT_TIMEOUT_S = 60.0
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class ServeProcess:
    """One ``python -m repro serve DIR --port 0`` with default flags."""

    def __init__(self, cluster_dir: Path, flags: Sequence[str] = ()) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        self.address: Optional[Tuple[str, int]] = None
        started = time.perf_counter()
        self._process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(cluster_dir),
             "--port", "0", *flags],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            bufsize=0,
        )
        self.pid = self._process.pid
        try:
            self.address = self._wait_listening()
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - started

    def _wait_listening(self) -> Tuple[str, int]:
        deadline = time.monotonic() + READY_TIMEOUT_S
        stderr = self._process.stderr
        seen = b""
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([stderr], [], [], remaining)[0]:
                raise RuntimeError("repro serve did not start listening in time")
            chunk = stderr.read(4096)
            if not chunk:
                raise RuntimeError(
                    f"repro serve exited with code {self._process.wait()}: "
                    f"{seen.decode(errors='replace').strip()}")
            seen += chunk
            match = re.search(rb"listening on (\S+):(\d+) ", seen)
            if match:
                return match.group(1).decode(), int(match.group(2))

    def client(self) -> GatewayClient:
        host, port = self.address
        return GatewayClient(host, port, pool_size=1, timeout=CLIENT_TIMEOUT_S)

    def cpu_s(self) -> float:
        """utime + stime of the server process, in seconds."""
        stat = Path(f"/proc/{self.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0

    def stop(self) -> None:
        """Drain the server and wait until the process has ended."""
        if self._process.poll() is None:
            try:
                if self.address is None:
                    raise TransportError("server never listened")
                with self.client() as client:
                    client.drain()
                self._process.wait(timeout=15.0)
            except (ReproError, subprocess.TimeoutExpired):
                self._process.kill()
                self._process.wait()
        self._process.stderr.close()
