"""Every server starts in a fresh interpreter.

In-process tests import ``repro.incremental`` long before any server
module, so an import cycle that only bites a cold start (``python -m
repro.service`` importing the cache, the cache importing the cache
service, the cache service importing the half-initialized service
module) goes unnoticed there. These tests start each server as its own
process on a UNIX socket, read its ready line, talk to it once, and
stop it with SIGTERM, expecting a clean exit and a quiet stderr.
"""

import json
import os
import select
import signal
import subprocess
import sys
import tempfile

import pytest

from repro.incremental.cacheserver import CacheClient
from repro.service.client import ServiceClient

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
SRC = os.path.join(REPO_ROOT, "src")

SOURCE = (
    "#include <stdlib.h>\n"
    "char *g(void) { char *p = (char *) malloc(8); *p = 'x'; return p; }\n"
)


@pytest.fixture
def sock_dir():
    # UNIX socket paths are capped near 108 bytes; pytest's tmp_path
    # can exceed that, so the socket lives in a short temp directory.
    with tempfile.TemporaryDirectory(prefix="pylclint-") as path:
        yield path


def _start(argv: list[str], cwd) -> tuple[subprocess.Popen, dict]:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen(
        [sys.executable, "-W", "error::RuntimeWarning", *argv],
        cwd=cwd, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    ready, _, _ = select.select([proc.stdout], [], [], 60)
    line = proc.stdout.readline() if ready else ""
    if not line:
        proc.kill()
        _, err = proc.communicate(timeout=30)
        pytest.fail(f"{' '.join(argv)} did not become ready:\n{err}")
    return proc, json.loads(line)


def _stop(proc: subprocess.Popen) -> str:
    proc.send_signal(signal.SIGTERM)
    try:
        _, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        pytest.fail("server did not drain after SIGTERM")
    assert proc.returncode == 0, err
    assert "Traceback" not in err and "Warning" not in err, err
    return err


@pytest.mark.parametrize("entry", [
    ["-m", "repro.service"],
    ["-m", "repro", "--serve"],
], ids=["python-m-repro.service", "python-m-repro--serve"])
def test_checking_service_starts_fresh(entry, tmp_path, sock_dir):
    (tmp_path / "one.c").write_text(SOURCE)
    sock = os.path.join(sock_dir, "svc.sock")
    proc, ready = _start(
        entry + ["--addr", f"unix:{sock}", "--cache-dir", "cache"], tmp_path
    )
    try:
        assert ready["serving"] is True and ready["unix"] == sock
        with ServiceClient.connect_unix(sock) as client:
            reply = client.check(["one.c"], request_id=1)
        assert reply["id"] == 1 and reply["status"] == 1
        assert "one.c:2:" in reply["output"]
    finally:
        _stop(proc)


def test_cache_server_starts_fresh(tmp_path, sock_dir):
    sock = os.path.join(sock_dir, "cache.sock")
    proc, ready = _start(
        ["-m", "repro.incremental.cacheserver", "--addr", f"unix:{sock}",
         "--cache-dir", "cache"],
        tmp_path,
    )
    try:
        assert ready["ready"] is True and ready["unix"] == sock
        client = CacheClient(f"unix:{sock}")
        try:
            assert client.ping()
        finally:
            client.close()
    finally:
        _stop(proc)


def test_daemon_starts_fresh(tmp_path):
    (tmp_path / "one.c").write_text(SOURCE)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro",
         "--daemon", "--cache-dir", "cache"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=SRC),
        input='["one.c"]\nshutdown\n', capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    ready, reply, bye = [json.loads(l) for l in proc.stdout.splitlines()]
    assert ready["ready"] is True
    assert reply["status"] == 1 and "one.c:2:" in reply["output"]
    assert bye["bye"] is True and bye["requests"] == 1


@pytest.mark.parametrize("server", ["service", "daemon"])
def test_long_lived_servers_preload_the_checker(server):
    # The first request of a server must not pay the frontend/analysis
    # import a one-shot check defers: both servers load them at start.
    start = {
        "service": (
            "import asyncio\n"
            "from repro.service.server import CheckingService\n"
            "async def main():\n"
            "    service = CheckingService(cache_dir=None, port=0)\n"
            "    await service.start()\n"
            "    await service.shutdown()\n"
            "asyncio.run(main())\n"
        ),
        "daemon": (
            "import io\n"
            "from repro.incremental.server import DaemonServer\n"
            "DaemonServer(cache_dir=None, stdin=io.StringIO(''),\n"
            "             stdout=io.StringIO()).serve()\n"
        ),
    }[server]
    code = start + (
        "import json, sys\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout.splitlines()[-1]))
    for module in ("repro.frontend.parser", "repro.analysis.checker",
                   "repro.incremental.engine"):
        assert module in loaded, module
