"""Multiple clients sharing one sharded CRS: the shard lock at work.

"The CRS will also support simultaneous access by multiple clients which
involves procedures for concurrency control and transaction handling"
(paper section 2.2).  A shard is one stateful CLARE board — one FS2 query
register, one Result Memory, one drive — so each shard's lock admits one
request at a time, read or write; every take of it is timed into the
``cluster.shard_lock.wait_s`` histogram.

Run with::

    python examples/multi_client.py
"""

import threading

from repro.cluster import ShardedRetrievalServer, ShardingPolicy
from repro.crs import RetrievalTimeout
from repro.obs import Instrumentation
from repro.report import headline_counters
from repro.terms import read_term

CLIENTS = 4
ROUNDS = 25


def client(server: ShardedRetrievalServer, name: str, seen: dict) -> None:
    """Read the stock table, add a row, and read that row back."""
    for round_no in range(ROUNDS):
        server.retrieve(read_term("stock(I, N)"))
        row = read_term(f"stock({name}_{round_no}, {round_no})")
        server.assertz(row)  # returns once applied: the ack
        mine = server.retrieve(read_term(f"stock({name}_{round_no}, N)"))
        assert [str(c) for c in mine.candidates] == [f"{row}."], mine
    seen[name] = len(server.retrieve(read_term("stock(I, N)")).candidates)


def main() -> None:
    obs = Instrumentation()
    server = ShardedRetrievalServer(2, ShardingPolicy.FIRST_ARG, obs=obs)
    server.consult_text("stock(widget, 12). stock(gadget, 3).")

    print(f"-- {CLIENTS} client threads read and assert concurrently --")
    seen: dict[str, int] = {}
    threads = [
        threading.Thread(target=client, args=(server, f"c{n}", seen))
        for n in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    print("every client read its own write right after the ack")
    print("rows each client saw at the end:", dict(sorted(seen.items())))
    total = len(server.retrieve(read_term("stock(I, N)")).candidates)
    print("final stock table has", total, "rows")

    print("\n-- a deadline cuts off the wait behind a held shard lock --")
    goal = read_term("stock(I, N)")  # unbound first argument: every shard
    held = server.shards[0].lock
    held.acquire()  # e.g. a long retrieval already running on shard 0
    try:
        server.retrieve(goal, timeout=0.05)
    except RetrievalTimeout as exc:
        print("RetrievalTimeout:", exc)
    finally:
        held.release()
    print("after the release the same read returns",
          len(server.retrieve(goal, timeout=5.0).candidates), "rows")

    head = headline_counters(obs.registry)
    print(
        "\nshard lock: {:g} takes, {:.6f} s queued in total, "
        "longest wait {:.6f} s".format(
            head["shard_lock_waits"],
            head["shard_lock_wait_s"],
            head["shard_lock_wait_max_s"],
        )
    )
    for instrument in obs.registry:
        if instrument.name == "cluster.shard_lock.wait_s":
            print(f"  shard {dict(instrument.labels)['shard']}: "
                  f"{instrument.count} takes, mean {instrument.mean:.2e} s")


if __name__ == "__main__":
    main()
