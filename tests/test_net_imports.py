"""A server process loads no event loop, no TLS and no OpenSSL.

The service runs on threads and codewords hash with the builtin BLAKE2,
so nothing on the serving path needs ``asyncio``, ``ssl`` or
``_hashlib`` (OpenSSL's libcrypto, ~3.5 MB resident on its own).  Each
case runs in a fresh interpreter that imports what the benchmark's
server child (``bench/serving.py``) imports, builds one of its two
deployments, drives every verb over the wire, stops, and then checks
which modules were ever loaded.  Reaching the check at all also shows
the process is not held open by a server thread.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

FORBIDDEN = ("asyncio", "ssl", "_ssl", "_hashlib")

PRELUDE = """
import shutil, sys, tempfile

import bench.serving  # the child's own imports: bench, bench.tracing
from repro.cluster import Fleet, ShardedRetrievalServer, ShardingPolicy
from repro.net import BackgroundService, RetrievalClient, RetrievalService
from repro.obs import Instrumentation
from repro.storage import Residency
from repro.terms import read_term

PROGRAM = " ".join(
    [f"rec(k{i}, v{i % 5})." for i in range(60)]
    + ["near(X, Y) :- rec(X, V), rec(Y, V)."]
)
"""

DEPLOYMENTS = {
    "svc4": """
obs = Instrumentation(enabled=False)
engine = ShardedRetrievalServer(4, ShardingPolicy.FIRST_ARG, obs=obs)
engine.consult_text(PROGRAM)
engine.pin_module("user", Residency.DISK)
background = BackgroundService(RetrievalService(engine, obs=obs))
host, port = background.start()
stop = background.stop
serves_manifest = False
""",
    "fleet": """
obs = Instrumentation(enabled=False)
store = tempfile.mkdtemp()
fleet = Fleet(
    PROGRAM, num_shards=1, replicas=2, policy="first_arg", obs=obs,
    service_opts={"obs": obs},
    durability_root=store, durability_opts={"flush": "fsync"},
)
fleet.start()
for node in fleet.nodes.values():
    node.engine.pin_module("user", Residency.DISK)
host, _, port = fleet.live_addresses()[0].rpartition(":")
port = int(port)


def stop():
    fleet.stop()
    shutil.rmtree(store)


serves_manifest = True
""",
}

DRIVE = """
goal = read_term("rec(k7, V)")
with RetrievalClient(host, port) as client:
    assert client.ping() is True
    assert len(client.retrieve(goal).candidates) == 1
    assert len(client.retrieve_batch([goal, read_term("rec(K, v1)")])) == 2
    assert len(list(client.solve(read_term("near(k1, Y)")))) == 12
    client.assertz(read_term("rec(extra, v9)"))
    assert str(client.retract(read_term("rec(extra, W)"))) == "rec(extra,v9)."
    assert client.stats()["engine_clauses"] > 0
    if serves_manifest:
        assert client.manifest().num_shards == 1
stop()
print(sorted(set(sys.argv[1:]) & set(sys.modules)))
"""


@pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="_TIMEOUTS still needs asyncio there",
)
@pytest.mark.parametrize("deployment", sorted(DEPLOYMENTS))
def test_a_serving_process_loads_no_asyncio_ssl_or_openssl(deployment):
    script = textwrap.dedent(PRELUDE + DEPLOYMENTS[deployment] + DRIVE)
    env = dict(os.environ, PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{ROOT}")
    done = subprocess.run(
        [sys.executable, "-c", script, *FORBIDDEN],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[]"
