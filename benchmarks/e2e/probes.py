"""Direct probes: short loops over one layer's public functions, fed with
the workload's own shapes (its key set, its job message, one of its real
blocks, its transport).  Each probe makes at least ``MIN_CALLS`` calls
and stops after ``MAX_SECONDS``; every result is ``(value, n)`` where
``n`` is the number of calls behind the value (``0`` = not applicable to
this workload, value reported as 0).
"""

from __future__ import annotations

import multiprocessing
import statistics
import threading
from time import perf_counter
from typing import Any, Callable, Sequence

from repro import comm
from repro.comm import frame
from repro.comm.pipe import pipe_pair, wrap_connection
from repro.core.records import TaskRecord
from repro.core.recovery_table import RecoveryTable
from repro.core.taskmap import TaskMap

MIN_CALLS = 2000
MAX_SECONDS = 0.5

Probe = tuple[float, int]
NOT_APPLICABLE: Probe = (0.0, 0)


def _loop(batch: Callable[[], int]) -> tuple[float, int]:
    """Run ``batch`` (returns ops done) until MIN_CALLS ops were made,
    giving up after MAX_SECONDS: ``(seconds per op, ops)``."""
    ops = 0
    spent = 0.0
    while ops < MIN_CALLS and spent < MAX_SECONDS:
        t0 = perf_counter()
        ops += batch()
        spent += perf_counter() - t0
    return spent / ops, ops


# ---------------------------------------------------------------------------
# core: the striped structures, with the workload's keys


def core_probes(keys: Sequence[Any], n_preds: Callable[[Any], int]) -> dict[str, Probe]:
    keys = list(keys)

    def taskmap() -> int:
        tm = TaskMap(n_preds)
        insert, get = tm.insert_if_absent, tm.get
        for k in keys:
            insert(k)  # miss: allocates the record
        for k in keys:
            insert(k)  # hit: the re-traversal case
        for k in keys:
            get(k)
        return 3 * len(keys)

    def claim() -> int:
        table = RecoveryTable()
        check = table.check_and_claim
        for k in keys:
            check(k, 1)
            check(k, 1)  # duplicate observer standing down
        return 2 * len(keys)

    records = [TaskRecord(k, n_preds(k)) for k in keys[:256]]

    def notify() -> int:
        ops = 0
        for rec in records:
            lock, unset = rec.lock, rec.try_unset_bit
            for bit in range(rec.n_preds + 1):
                with lock:
                    unset(bit)
            with lock:
                rec.reset_for_reuse()
            ops += rec.n_preds + 1
        return ops

    out = {}
    for name, batch in (("core.taskmap_ns_per_op", taskmap),
                        ("core.recovery_claim_ns_per_op", claim),
                        ("core.notify_bit_ns_per_op", notify)):
        per_op, n = _loop(batch)
        out[name] = (per_op * 1e9, n)
    return out


# ---------------------------------------------------------------------------
# comm: codec


def codec_probes(job_msg: Any, block: Any) -> dict[str, Probe]:
    """Wire-codec cost of the workload's job message (full stream path:
    encode -> FrameDecoder -> loads) and of one real block through the
    out-of-band codec.  ``None`` inputs mean the workload sends none."""
    out = {
        "comm.codec_us_per_job_msg": NOT_APPLICABLE,
        "comm.job_msg_bytes": NOT_APPLICABLE,
        "comm.oob_encode_us_per_block": NOT_APPLICABLE,
        "comm.oob_decode_us_per_block": NOT_APPLICABLE,
    }
    if job_msg is not None:
        decoder = frame.FrameDecoder()
        feed, next_frame = decoder.feed, decoder.next_frame
        loads, encode = frame.loads, frame.encode_message

        def codec() -> int:
            for _ in range(200):
                feed(encode(job_msg))
                loads(next_frame())
            return 200

        per_op, n = _loop(codec)
        out["comm.codec_us_per_job_msg"] = (per_op * 1e6, n)
        out["comm.job_msg_bytes"] = (float(len(frame.encode_message(job_msg))), 1)
    if block is not None:
        encode_oob = frame.encode_oob

        def enc() -> int:
            for _ in range(200):
                encode_oob(block)
            return 200

        encoded = encode_oob(block)

        def dec() -> int:
            for _ in range(200):
                encoded.load()
            return 200

        per_op, n = _loop(enc)
        out["comm.oob_encode_us_per_block"] = (per_op * 1e6, n)
        per_op, n = _loop(dec)
        out["comm.oob_decode_us_per_block"] = (per_op * 1e6, n)
    return out


# ---------------------------------------------------------------------------
# comm: transport.  The peer is a forked process, as in the real runtimes:
# an in-process echo thread would measure GIL hand-offs, not the wire.


def _serve(c: Any, block: Any) -> None:
    """Peer loop: echo pings, swallow shipped blocks, serve fetches."""
    while True:
        try:
            msg = c.recv()
        except comm.CommClosedError:
            return
        tag = msg[0]
        if tag == "ping":
            c.send(msg)
        elif tag == "sync":
            c.send(("ack",))
        elif tag == "fetch":
            c.send_oob(("data", block))
        elif tag == "stop":
            return


def _pipe_peer(raw_conn: Any, block: Any) -> None:
    _serve(wrap_connection(raw_conn, peer="pipe://parent"), block)


def _tcp_peer(report: Any, block: Any) -> None:
    finished = threading.Event()

    def handler(c: Any) -> None:
        try:
            _serve(c, block)
        finally:
            finished.set()

    listener = comm.listen("tcp://127.0.0.1:0", handler)
    report.send(listener.address)
    report.close()
    finished.wait(timeout=60.0)
    listener.close()


def transport_probes(kind: str, block: Any, ships_blocks: bool) -> dict[str, Probe]:
    """Ping-pong RTT, one-way block shipping and block-fetch RTT over the
    workload's own transport (``pipe`` or ``tcp``; ``None`` = in-process).
    Block shipping and fetch are sampled only where blocks ship as their
    own messages (``ships_blocks``)."""
    out = {
        "comm.rtt_us_p50": NOT_APPLICABLE,
        "comm.rtt_us_p99": NOT_APPLICABLE,
        "comm.block_ship_mb_per_s": NOT_APPLICABLE,
        "comm.fetch_rtt_us_p50": NOT_APPLICABLE,
    }
    if kind is None:
        return out
    mp = multiprocessing.get_context("fork")
    if kind == "pipe":
        chan, child = pipe_pair(mp)
        proc = mp.Process(target=_pipe_peer, args=(child.connection, block), daemon=True)
        proc.start()
        child.close()
    else:
        recv_end, send_end = mp.Pipe(duplex=False)
        proc = mp.Process(target=_tcp_peer, args=(send_end, block), daemon=True)
        proc.start()
        send_end.close()
        address = recv_end.recv()
        recv_end.close()
        chan = comm.connect(address)
    try:
        ping = ("ping", (3, 3), [("b", 0)])
        for _ in range(50):  # warm the path
            chan.send(ping)
            chan.recv(timeout=30)
        rtts = []
        t_end = perf_counter() + MAX_SECONDS
        while len(rtts) < MIN_CALLS and perf_counter() < t_end:
            t0 = perf_counter()
            chan.send(ping)
            chan.recv(timeout=30)
            rtts.append(perf_counter() - t0)
        rtts.sort()
        out["comm.rtt_us_p50"] = (statistics.median(rtts) * 1e6, len(rtts))
        out["comm.rtt_us_p99"] = (rtts[int(0.99 * (len(rtts) - 1))] * 1e6, len(rtts))
        if ships_blocks:
            nbytes = frame.encode_oob(block).nbytes
            shipped = 0
            t0 = perf_counter()
            while shipped < 200 and perf_counter() - t0 < MAX_SECONDS:
                for _ in range(20):
                    chan.send_oob(("blk", block))
                chan.send(("sync",))  # the receiver's decode is on the clock too
                chan.recv(timeout=60)
                shipped += 20
            spent = perf_counter() - t0
            out["comm.block_ship_mb_per_s"] = (shipped * nbytes / spent / 1e6, shipped)
            fetches = []
            t_end = perf_counter() + MAX_SECONDS
            while len(fetches) < MIN_CALLS and perf_counter() < t_end:
                t0 = perf_counter()
                chan.send(("fetch", "b"))
                chan.recv(timeout=60)
                fetches.append(perf_counter() - t0)
            out["comm.fetch_rtt_us_p50"] = (statistics.median(fetches) * 1e6, len(fetches))
    finally:
        try:
            chan.send(("stop",))
        except comm.CommClosedError:
            pass
        chan.close()
        proc.join(timeout=5.0)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5.0)
    return out
