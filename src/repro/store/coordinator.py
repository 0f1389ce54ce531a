"""HTTP lease coordinator: the shard protocol served over the wire.

The shard backend (:mod:`repro.store.shard`) gives exactly-once cells,
stale-lease reclaim and crash-safe workers — but only over a *shared
filesystem*, which caps the fleet at one host.  This module serves the same
protocol over plain HTTP so workers on **disjoint filesystems** coordinate
through canonical cell hashes:

* :class:`CoordinatorServer` — a stdlib ``http.server`` front end over one
  real :class:`~repro.store.store.ResultStore` plus one real server-side
  :class:`~repro.store.shard.LeaseManager`.  Every lease rule (atomic
  ``O_CREAT | O_EXCL`` create, failure markers, stale reclaim, the
  append-only ``shard/executions.jsonl`` ledger) stays **one
  implementation**: the server simply acts on behalf of remote callers,
  writing their full identity (worker, pid, host, nonce) into the lease
  files.  Staleness of a remote worker's lease falls to the mtime-age TTL
  (its host differs from the server's), with the future-mtime clamp of
  :meth:`LeaseManager._age_stale` guarding against skewed client clocks.
* :class:`CoordinatorClient` — a thin ``urllib`` JSON transport with a
  budgeted retry loop.  Connection-level failures raise
  :class:`CoordinatorError`, a ``ConnectionError`` subclass, so the retry
  policy's name-based classifier files them as *transient* and the shard
  worker loop leaves the affected cell pending instead of dying — a
  coordinator outage stalls the fleet, it does not kill it.
* :class:`CoordinatorStore` — duck-types the ``ResultStore`` surface the
  runner and workers touch (``key_for`` / ``get`` / ``put`` / ``contains``),
  so :class:`~repro.store.runner.CachedSweepRunner` and
  :class:`~repro.store.shard.ShardWorker` run unchanged against a URL.
  ``put`` uploads the full ``CellResult`` (rounds inline on the wire); the
  *server's* sidecar policy decides whether rounds land as NPZ sidecars on
  its disk, and ``get`` returns sidecar rounds re-inlined — payload *and*
  sidecar round-trip without the worker ever seeing the store directory.
* :class:`HttpLeaseClient` — the :class:`LeaseManager` method surface
  (acquire / release / mark-failed / clear-failure / peek / is-stale /
  reclaim / log-execution) forwarded over the wire, carrying the worker's
  full identity so ownership comparisons behave exactly as on a shared
  filesystem.
* :class:`HttpBackend` — ``backend="http"``: the
  :class:`~repro.store.backends.ExecutionBackend` that spawns K local
  worker processes talking to a coordinator URL (plus the usual in-process
  mop-up pass), mirroring :class:`~repro.store.shard.ShardBackend`.

Exactly-once across retried requests: the lease acquire is decided by the
server's ``O_EXCL`` create, so a *retried* acquire whose first attempt won
(but whose acknowledgement was lost) simply loses the re-try — the worker
then finds its own abandoned lease and releases it (ownership-checked)
before re-acquiring.  Ledger appends are deduplicated server-side by
``(key, worker)``, so a lost acknowledgement cannot double-book a compute;
a genuine same-worker recompute (quarantined payload) is *under*-counted,
the ledger's documented safe direction.
"""

from __future__ import annotations

import errno
import json
import os
import socket
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.experiments.config import ExperimentConfig, SweepConfig
from repro.experiments.results import CellResult
from repro.io.serialization import from_jsonable, to_jsonable
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.robustness import DegradedExecutionWarning
from repro.robustness.faults import InjectedFault, fault_point, \
    mark_worker_process
from repro.robustness.retry import (
    DEFAULT_RETRY_POLICY,
    Deadline,
    RetryPolicy,
)
from repro.store.backends import recommended_workers
from repro.store.hashing import cell_key
from repro.store.shard import (
    DEFAULT_POLL_INTERVAL,
    DEFAULT_STALE_AFTER,
    LeaseManager,
    ShardWorker,
    process_nonce,
    read_execution_log,
    worker_identity,
)
from repro.store.store import STORE_SCHEMA_VERSION, ResultStore, StoreRecord

__all__ = ["CoordinatorServer", "CoordinatorClient", "CoordinatorError",
           "CoordinatorStore", "HttpLeaseClient", "HttpBackend",
           "DEFAULT_COORDINATOR_ADDR", "DEFAULT_TRANSPORT_RETRY"]

#: Default serve address for ``sweep --serve`` (loopback, fixed port so the
#: quickstart's attach commands can be typed without reading the serve log).
DEFAULT_COORDINATOR_ADDR = "127.0.0.1:8765"

#: Transport-level retry budget for one coordinator request.  Deliberately
#: small: the shard worker loop above it already re-polls pending cells, so
#: the transport only needs to ride out sub-second blips — longer outages
#: surface as a pending cell the loop retries on its own schedule.
DEFAULT_TRANSPORT_RETRY = RetryPolicy(max_attempts=4, base_delay_s=0.05,
                                      max_delay_s=0.5)

_API = "/api/v1"


class CoordinatorError(ConnectionError):
    """A coordinator request failed at the transport level.

    Subclasses ``ConnectionError`` (hence ``OSError``) on purpose: the
    name-based :func:`~repro.robustness.retry.classify_error` files it as
    transient, and the shard worker loop's ``except (InjectedFault,
    OSError)`` keeps the affected cell *pending* instead of crashing the
    worker — budgeted client retries plus the poll loop ride out a
    coordinator outage.
    """


# ---------------------------------------------------------------------- #
# server
# ---------------------------------------------------------------------- #
class _CoordinatorHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying a reference to its coordinator."""

    daemon_threads = True
    # lets a restarted coordinator bind the same address while a dying
    # predecessor's last connections drain (no-op before Python 3.11)
    allow_reuse_port = True
    coordinator: "CoordinatorServer"


class _Handler(BaseHTTPRequestHandler):
    """JSON route handler; all state lives on ``server.coordinator``.

    Deliberately one request per connection (the HTTP/1.0 default): a
    keep-alive handler thread parked on a drained connection would hold
    its socket — and therefore the port — long after ``stop()``, making a
    same-address coordinator restart fail with ``EADDRINUSE``.
    """

    # -- plumbing ------------------------------------------------------- #
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass   # quiet: telemetry goes through repro.obs, not stderr

    def _read_json(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            return {}
        body = self.rfile.read(length)
        try:
            parsed = from_jsonable(json.loads(body))
        except (json.JSONDecodeError, ValueError) as exc:
            raise ValueError(f"request body is not valid JSON: {exc}")
        if not isinstance(parsed, dict):
            raise ValueError("request body must be a JSON object")
        return parsed

    def _send_json(self, code: int, payload: Any) -> None:
        body = json.dumps(to_jsonable(payload), allow_nan=False).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _dispatch(self, method: str) -> None:
        try:
            code, payload = self.server.coordinator.handle(
                method, self.path, self._read_json() if method != "GET"
                else {})
        except (KeyError, ValueError, TypeError) as exc:
            code, payload = 400, {"error": f"{type(exc).__name__}: {exc}"}
        except (InjectedFault, OSError) as exc:
            # transient server-side trouble (injected fault, disk hiccup):
            # 503 tells the budgeted client transport to retry
            code, payload = 503, {"error": f"{type(exc).__name__}: {exc}"}
        except Exception as exc:   # noqa: BLE001 — the server must survive
            code, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        try:
            self._send_json(code, payload)
        except OSError:
            pass   # client went away mid-response; its transport retries

    def do_GET(self) -> None:      # noqa: N802 — BaseHTTPRequestHandler API
        self._dispatch("GET")

    def do_POST(self) -> None:     # noqa: N802
        self._dispatch("POST")

    def do_PUT(self) -> None:      # noqa: N802
        self._dispatch("PUT")

    def do_DELETE(self) -> None:   # noqa: N802
        self._dispatch("DELETE")


class CoordinatorServer:
    """Serve one :class:`ResultStore` + lease protocol over HTTP.

    The store and the :class:`LeaseManager` are the *real* single-host
    implementations — the server is a transport, not a re-implementation,
    so lease semantics cannot drift between local and fleet execution.
    ``ThreadingHTTPServer`` handles each request on its own thread; every
    lease operation is already atomic at the filesystem level (``O_EXCL``
    create, ``flock`` reclaim mutex, ``O_APPEND`` ledger writes), so
    concurrent requests serialize exactly like concurrent local workers.

    Usable as a context manager::

        with CoordinatorServer(store_dir) as server:
            ...  # server.url is live

    or started/stopped explicitly (``start()`` runs ``serve_forever`` on a
    daemon thread; ``serve_forever()`` blocks for CLI use).
    """

    def __init__(self, store: "ResultStore | str | Path",
                 host: str = "127.0.0.1", port: int = 0,
                 stale_after: float = DEFAULT_STALE_AFTER,
                 bind_grace_s: float = 5.0) -> None:
        if not isinstance(store, ResultStore):
            store = ResultStore(store)
        self.store = store
        self.leases = LeaseManager(store.root, stale_after=stale_after)
        # a coordinator restarted on its predecessor's fixed address may
        # race the predecessor's draining connections: retry the bind for
        # a short grace window instead of failing the whole fleet
        deadline = time.monotonic() + (bind_grace_s if port else 0.0)
        while True:
            try:
                self._httpd = _CoordinatorHTTPServer((host, int(port)),
                                                     _Handler)
                break
            except OSError as exc:
                if exc.errno != errno.EADDRINUSE \
                        or time.monotonic() >= deadline:
                    raise
                time.sleep(0.1)
        self._httpd.coordinator = self
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ------------------------------------------------------ #
    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "CoordinatorServer":
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="repro-coordinator", daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._httpd.serve_forever()

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "CoordinatorServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- routing -------------------------------------------------------- #
    def handle(self, method: str, path: str,
               body: Dict[str, Any]) -> "tuple[int, Any]":
        """Dispatch one request; returns ``(status, jsonable payload)``."""
        obs_metrics.count("coordinator.requests")
        if not path.startswith(_API + "/"):
            return 404, {"error": f"unknown path {path!r}"}
        parts = path[len(_API) + 1:].rstrip("/").split("/")
        if parts == ["ping"] and method == "GET":
            return 200, {"ok": True, "store": str(self.store.root),
                         "worker": self.leases.worker}
        if parts[0] == "cells" and len(parts) == 2:
            return self._handle_cell(method, parts[1], body)
        if parts[0] == "lease" and len(parts) == 2:
            return self._handle_lease(method, parts[1], body)
        if parts == ["executions"]:
            if method == "POST":
                return 200, self._log_execution(body)
            if method == "GET":
                return 200, {"records": read_execution_log(self.store.root)}
        return 404, {"error": f"no route for {method} {path}"}

    def _handle_cell(self, method: str, key: str,
                     body: Dict[str, Any]) -> "tuple[int, Any]":
        if method == "GET":
            record = self.store.get(key)
            if record is None:
                return 404, {"error": f"no record for {key}"}
            return 200, {
                "key": record.key,
                "schema": record.schema,
                "config": record.config,
                # sidecar rounds were re-inlined by store.get: the wire
                # payload is always the complete result
                "result": record.result.to_dict(),
                "provenance": record.provenance,
            }
        if method in ("PUT", "POST"):
            config = ExperimentConfig.from_dict(dict(body["config"]))
            if self.store.key_for(config) != key:
                raise ValueError(f"config hashes to "
                                 f"{self.store.key_for(config)}, "
                                 f"not the addressed key {key}")
            result = CellResult.from_dict(dict(body["result"]))
            stored = self.store.put(config, result,
                                    dict(body.get("provenance") or {}))
            return 200, {"key": stored}
        if method == "DELETE":
            path = self.store._payload_path(key)
            removed = path.exists()
            if removed:
                path.unlink()
            return 200, {"removed": removed}
        return 405, {"error": f"cells: unsupported method {method}"}

    def _handle_lease(self, method: str, op: str,
                      body: Dict[str, Any]) -> "tuple[int, Any]":
        if method == "GET":
            # GET /lease/<key> — peek (op is the key here)
            return 200, {"lease": self.leases.peek(op)}
        if method != "POST":
            return 405, {"error": f"lease: unsupported method {method}"}
        key = str(body["key"])
        if op == "acquire":
            won = self.leases.acquire(key, identity=dict(body["identity"]))
            return 200, {"acquired": won}
        if op == "release":
            self.leases.release(key, worker=str(body["worker"]))
            return 200, {"released": True}
        if op == "mark-failed":
            self.leases.mark_failed(
                key, str(body.get("cell", "")), str(body.get("error", "")),
                attempts=int(body.get("attempts", 1)),
                kind=body.get("kind"), identity=dict(body["identity"]))
            return 200, {"marked": True}
        if op == "clear-failure":
            return 200, {"cleared": self.leases.clear_failure(key)}
        if op == "stale":
            stale = self.leases.is_stale(key, dict(body["lease"]))
            return 200, {"stale": stale}
        if op == "reclaim":
            taken = self.leases.reclaim(key, dict(body["observed"]))
            return 200, {"reclaimed": taken}
        return 404, {"error": f"lease: unknown operation {op!r}"}

    def _log_execution(self, body: Dict[str, Any]) -> Dict[str, Any]:
        key = str(body["key"])
        worker = str(body.get("worker", ""))
        # idempotent by (key, worker): a client that retried a lost
        # acknowledgement must not double-book the compute.  (A genuine
        # same-worker recompute — quarantined payload — is under-counted:
        # the ledger's documented safe direction.)
        for record in read_execution_log(self.store.root):
            if record.get("key") == key and record.get("worker") == worker:
                return {"logged": False, "duplicate": True}
        self.leases.log_execution(key, str(body.get("cell", "")),
                                  attempts=int(body.get("attempts", 1)),
                                  worker=worker, pid=body.get("pid"))
        return {"logged": True, "duplicate": False}


# ---------------------------------------------------------------------- #
# client transport
# ---------------------------------------------------------------------- #
class CoordinatorClient:
    """Budgeted JSON-over-HTTP transport to one coordinator.

    ``request`` retries transport failures (connection refused/reset,
    timeouts, 5xx) under ``retry`` with the policy's deterministic jittered
    backoff, then raises :class:`CoordinatorError` — transient by
    classification, so callers above (the worker loop) keep the cell
    pending.  A 404 returns ``None`` (the miss encoding); a 4xx raises
    ``ValueError`` (permanent: a protocol bug, not weather).
    """

    def __init__(self, base_url: str, timeout: float = 10.0,
                 retry: Optional[RetryPolicy] = None) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = float(timeout)
        self.retry = retry or DEFAULT_TRANSPORT_RETRY

    def request(self, method: str, path: str,
                payload: Optional[Dict[str, Any]] = None) -> Optional[Any]:
        attempts = 0
        while True:
            attempts += 1
            try:
                return self._once(method, path, payload)
            except CoordinatorError:
                if attempts >= self.retry.max_attempts:
                    obs_metrics.count("coordinator.errors")
                    raise
                obs_metrics.count("coordinator.retries")
                time.sleep(self.retry.backoff_s(attempts, token=path))

    def _once(self, method: str, path: str,
              payload: Optional[Dict[str, Any]]) -> Optional[Any]:
        data = None
        headers = {}
        if payload is not None:
            data = json.dumps(to_jsonable(payload), allow_nan=False).encode()
            headers["Content-Type"] = "application/json"
        req = urllib.request.Request(self.base_url + path, data=data,
                                     method=method, headers=headers)
        t0 = time.perf_counter()
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                body = resp.read()
        except urllib.error.HTTPError as exc:
            detail = self._error_detail(exc)
            if exc.code == 404:
                return None
            if 400 <= exc.code < 500:
                raise ValueError(f"coordinator rejected {method} {path}: "
                                 f"{detail}") from exc
            raise CoordinatorError(f"coordinator {method} {path} -> "
                                   f"{exc.code}: {detail}") from exc
        except (urllib.error.URLError, ConnectionError, TimeoutError,
                socket.timeout, OSError) as exc:
            raise CoordinatorError(f"coordinator unreachable "
                                   f"({method} {self.base_url}{path}): "
                                   f"{exc}") from exc
        finally:
            obs_metrics.observe("coordinator.request_s",
                                time.perf_counter() - t0)
        return from_jsonable(json.loads(body)) if body else {}

    @staticmethod
    def _error_detail(exc: urllib.error.HTTPError) -> str:
        try:
            parsed = json.loads(exc.read())
            return str(parsed.get("error", parsed))
        except Exception:   # noqa: BLE001 — detail is best-effort
            return str(exc)


# ---------------------------------------------------------------------- #
# store + lease surfaces over the transport
# ---------------------------------------------------------------------- #
class CoordinatorStore:
    """The ``ResultStore`` surface the runner/workers touch, over HTTP.

    Misses come back as 404 → ``None``; ``put`` uploads config + result +
    provenance and lets the *server's* sidecar policy place the rounds.
    ``root`` is the coordinator URL so runner messages and artifact
    registration read sensibly.  Sidecar placement is server-side, hence
    ``rounds_sidecar_at`` is pinned ``None`` here.
    """

    rounds_sidecar_at: Optional[int] = None

    def __init__(self, client: "CoordinatorClient | str") -> None:
        if isinstance(client, str):
            client = CoordinatorClient(client)
        self.client = client

    @property
    def root(self) -> str:
        return self.client.base_url

    @staticmethod
    def key_for(config: ExperimentConfig) -> str:
        return cell_key(config)

    def _key(self, config_or_key: "ExperimentConfig | str") -> str:
        return (config_or_key if isinstance(config_or_key, str)
                else self.key_for(config_or_key))

    def get(self, config_or_key: "ExperimentConfig | str"
            ) -> Optional[StoreRecord]:
        key = self._key(config_or_key)
        raw = self.client.request("GET", f"{_API}/cells/{key}")
        if raw is None:
            return None
        return StoreRecord(
            key=str(raw["key"]),
            config=dict(raw["config"]),
            result=CellResult.from_dict(dict(raw["result"])),
            provenance=dict(raw.get("provenance") or {}),
            schema=int(raw.get("schema", STORE_SCHEMA_VERSION)),
        )

    def put(self, config: ExperimentConfig, result: CellResult,
            provenance: Optional[Dict[str, Any]] = None) -> str:
        key = self.key_for(config)
        self.client.request("PUT", f"{_API}/cells/{key}", {
            "config": config.to_dict(),
            "result": result.to_dict(),
            "provenance": dict(provenance or {}),
        })
        return key

    def contains(self, config_or_key: "ExperimentConfig | str") -> bool:
        return self.get(config_or_key) is not None

    def delete(self, key: str) -> bool:
        """Drop a payload server-side (the ``--rerun`` escape hatch)."""
        out = self.client.request("DELETE", f"{_API}/cells/{key}")
        return bool(out and out.get("removed"))


class HttpLeaseClient:
    """The :class:`LeaseManager` method surface, forwarded to a coordinator.

    Carries this worker's *full* identity (worker, pid, host, nonce) into
    acquire / mark-failed so the server-side lease files record the true
    remote owner; release and the execution ledger compare/record by the
    same identity.  Staleness and reclaim are evaluated server-side, where
    the lease files (and the reclaim ``flock`` mutex) live.
    """

    def __init__(self, client: "CoordinatorClient | str",
                 worker: Optional[str] = None) -> None:
        if isinstance(client, str):
            client = CoordinatorClient(client)
        self.client = client
        self.worker = worker or worker_identity()

    def identity(self) -> Dict[str, Any]:
        return {"worker": self.worker, "pid": os.getpid(),
                "host": socket.gethostname(), "nonce": process_nonce()}

    def acquire(self, key: str) -> bool:
        out = self.client.request("POST", f"{_API}/lease/acquire",
                                  {"key": key, "identity": self.identity()})
        return bool(out["acquired"])

    def release(self, key: str) -> None:
        self.client.request("POST", f"{_API}/lease/release",
                            {"key": key, "worker": self.worker})

    def mark_failed(self, key: str, cell_name: str, error: str,
                    attempts: int = 1, kind: Optional[str] = None) -> None:
        self.client.request("POST", f"{_API}/lease/mark-failed", {
            "key": key, "cell": cell_name, "error": error,
            "attempts": int(attempts), "kind": kind,
            "identity": self.identity()})

    def clear_failure(self, key: str) -> bool:
        out = self.client.request("POST", f"{_API}/lease/clear-failure",
                                  {"key": key})
        return bool(out["cleared"])

    def peek(self, key: str) -> Optional[Dict[str, Any]]:
        out = self.client.request("GET", f"{_API}/lease/{key}")
        return None if out is None else out.get("lease")

    def is_stale(self, key: str, lease: Dict[str, Any]) -> bool:
        out = self.client.request("POST", f"{_API}/lease/stale",
                                  {"key": key, "lease": lease})
        return bool(out["stale"])

    def reclaim(self, key: str, observed: Dict[str, Any]) -> bool:
        out = self.client.request("POST", f"{_API}/lease/reclaim",
                                  {"key": key, "observed": observed})
        return bool(out["reclaimed"])

    def log_execution(self, key: str, cell_name: str,
                      attempts: int = 1) -> None:
        self.client.request("POST", f"{_API}/executions", {
            "key": key, "cell": cell_name, "worker": self.worker,
            "pid": os.getpid(), "attempts": int(attempts)})


# ---------------------------------------------------------------------- #
# the http execution backend
# ---------------------------------------------------------------------- #
def _http_worker(url: str, worker: str, poll_interval: float,
                 timeout: float, retry: Optional[RetryPolicy],
                 deadline: Optional[Deadline],
                 backend_label: str = "http") -> ShardWorker:
    """One coordinator-attached worker (store + leases over one client)."""
    client = CoordinatorClient(url, timeout=timeout)
    return ShardWorker(CoordinatorStore(client),
                       poll_interval=poll_interval, retry=retry,
                       deadline=deadline,
                       leases=HttpLeaseClient(client, worker=worker),
                       backend_label=backend_label)


def _http_worker_main(url: str, sweep_dict: Dict[str, Any], worker: str,
                      poll_interval: float, timeout: float,
                      retry_dict: Optional[Dict[str, Any]] = None,
                      deadline_s: Optional[float] = None) -> None:
    """Child-process entry point (top-level so it pickles under spawn)."""
    mark_worker_process()   # worker_only faults (kill-worker) may fire here
    retry = (RetryPolicy.from_dict(retry_dict) if retry_dict
             else DEFAULT_RETRY_POLICY)
    deadline = Deadline(deadline_s) if deadline_s is not None else None
    _http_worker(url, worker, poll_interval, timeout, retry,
                 deadline).run(SweepConfig.from_dict(sweep_dict))


class HttpBackend:
    """The ``http`` execution backend: a worker fleet over a coordinator.

    Mirrors :class:`~repro.store.shard.ShardBackend` — ``workers=None`` →
    :func:`~repro.store.backends.recommended_workers` child processes,
    ``0`` → the calling process runs the worker loop itself (the CLI
    ``--worker --coordinator URL`` attach mode), K ≥ 1 → K children plus an
    in-process mop-up pass — except every store and lease operation travels
    through the coordinator, so the children need no access to the store
    directory at all.  An unreachable coordinator at startup degrades to
    pool execution (results are computed but not persisted — the
    store-unwritable rung of the ladder absorbs the failed puts).
    """

    name = "http"

    def __init__(self, coordinator: str, workers: Optional[int] = None,
                 poll_interval: float = DEFAULT_POLL_INTERVAL,
                 timeout: float = 10.0) -> None:
        self.coordinator = coordinator.rstrip("/")
        self.workers = workers
        self.poll_interval = float(poll_interval)
        self.timeout = float(timeout)

    def execute(self, sweep: SweepConfig, misses: List[int],
                runner) -> Dict[int, CellResult]:
        store = runner.store
        keys = [store.key_for(cell) for cell in sweep.cells]
        retry: RetryPolicy = getattr(runner, "retry", DEFAULT_RETRY_POLICY)
        deadline: Optional[Deadline] = getattr(runner, "_deadline", None)
        client = CoordinatorClient(self.coordinator, timeout=self.timeout)
        leases = HttpLeaseClient(client)
        try:
            client.request("GET", f"{_API}/ping")
        except CoordinatorError as exc:
            # degradation ladder: with no coordinator there is no lease
            # authority and no remote store — the pool backend still
            # computes everything in-process-tree (persist_fresh's
            # store-unwritable rung absorbs the failed uploads)
            import warnings

            message = (f"http backend: coordinator {self.coordinator} "
                       f"unreachable ({exc}); degrading to pool execution")
            warnings.warn(message, DegradedExecutionWarning, stacklevel=2)
            obs_trace.warning_event("DegradedExecutionWarning", message,
                                    rung="http-to-pool")
            obs_metrics.count("degraded", rung="http-to-pool")
            from repro.store.backends import PoolBackend

            return PoolBackend(self.workers).execute(sweep, misses, runner)
        for i in misses:
            # a fresh coordinated run retries cells that failed previously
            leases.clear_failure(keys[i])
            if runner.rerun and isinstance(store, CoordinatorStore):
                # --rerun promises recomputation: drop the stale payload
                store.delete(keys[i])

        workers = recommended_workers() if self.workers is None \
            else int(self.workers)
        procs = []
        if workers >= 1 and misses:
            try:
                fault_point("subprocess.spawn", backend="http")
                import multiprocessing

                # spawn, not fork: forked children would inherit the
                # coordinator's listening socket fd, keeping a zombie
                # listener alive after a server restart (SO_REUSEPORT then
                # load-balances connects onto it and they hang).  spawn
                # also matches the semantics being modelled — workers on
                # disjoint machines share no process state.
                ctx = multiprocessing.get_context("spawn")
                for w in range(workers):
                    proc = ctx.Process(
                        target=_http_worker_main,
                        args=(self.coordinator, sweep.to_dict(),
                              f"{worker_identity()}#w{w}",
                              self.poll_interval, self.timeout,
                              retry.to_dict(),
                              None if deadline is None
                              else deadline.remaining()),
                        daemon=True,
                    )
                    proc.start()
                    procs.append(proc)
            except (ImportError, OSError, ValueError, RuntimeError):
                procs = []   # sandboxed: the mop-up pass runs everything
        for proc in procs:
            proc.join()

        # Mop-up + assembly: resolves anything the children left behind and
        # reads every resolved cell back through the coordinator.
        mop_up = _http_worker(self.coordinator, worker_identity(),
                              self.poll_interval, self.timeout, retry,
                              deadline)
        resolved = mop_up.run(sweep)
        runner.last_stats.executed.extend(
            keys[i] for i in misses if store.contains(keys[i]))
        return {i: resolved[i] for i in misses}
