"""HTTP round-trip tests: real sockets on an ephemeral localhost port."""

from __future__ import annotations

import contextlib
import threading

import pytest

from repro.cli import main
from repro.experiment import ExperimentSpec
from repro.service import Backpressure, ExperimentService, \
    ResultNotReady, ServiceClient, ServiceConfig, ServiceError, \
    make_server

from .conftest import tiny_config


def _grid(workloads=("copy", "whiskey"), name="api-grid"):
    return ExperimentSpec(workloads=list(workloads),
                          configs=tiny_config(), name=name)


@contextlib.contextmanager
def _serve(tmp_path, start_workers=True, **overrides):
    """A live service + HTTP server on an ephemeral port; yields a client."""
    defaults = dict(
        state_dir=tmp_path / "state",
        store_dir=tmp_path / "store",
        shards=2,
        use_processes=False,
        poll_interval=0.01,
    )
    defaults.update(overrides)
    service = ExperimentService(ServiceConfig(**defaults))
    if start_workers:
        service.start()
    server = make_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address
    try:
        yield ServiceClient(f"http://{host}:{port}", timeout=10)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        service.stop()


class TestRoundTrip:
    def test_health(self, tmp_path):
        with _serve(tmp_path) as client:
            body = client.health()
        assert body == {"status": "ok", "version": "1"}

    def test_submit_wait_result(self, tmp_path):
        with _serve(tmp_path) as client:
            ticket = client.submit(_grid(), tenant="alice")
            assert ticket["state"] in ("queued", "running", "done")
            assert ticket["unique_runs"] == 2
            final = client.wait(ticket["grid_id"], timeout=60)
            assert final["done"] == 2
            result = client.result(ticket["grid_id"],
                                   metrics=["mean_ipc"])
        assert result["grid_id"] == ticket["grid_id"]
        assert result["name"] == "api-grid"
        assert result["tenant"] == "alice"
        assert {r["workload"] for r in result["records"]} == \
            {"copy", "whiskey"}
        assert all(isinstance(r["mean_ipc"], float)
                   for r in result["records"])
        assert result["stats"]["new_jobs"] == 2

    def test_second_identical_submission_serves_from_store(
            self, tmp_path):
        with _serve(tmp_path) as client:
            first = client.submit(_grid(), tenant="alice")
            client.wait(first["grid_id"], timeout=60)
            second = client.submit(_grid(), tenant="bob")
            # Everything came from the store: done at submission time.
            assert second["state"] == "done"
            assert second["admission"]["store_hits"] == 2
            assert second["admission"]["new_jobs"] == 0
            records = client.result(second["grid_id"])["records"]
        assert len(records) == 2

    def test_cancel_endpoint(self, tmp_path):
        with _serve(tmp_path, start_workers=False) as client:
            ticket = client.submit(_grid())
            status = client.cancel(ticket["grid_id"])
        assert status["state"] == "cancelled"


class TestErrorMapping:
    def test_unknown_grid_is_404(self, tmp_path):
        with _serve(tmp_path) as client:
            with pytest.raises(ServiceError) as info:
                client.status("g0123456789abcdef")
        assert info.value.status == 404
        assert "unknown grid" in str(info.value)

    def test_result_before_done_is_409(self, tmp_path):
        with _serve(tmp_path, start_workers=False) as client:
            ticket = client.submit(_grid())
            with pytest.raises(ResultNotReady) as info:
                client.result(ticket["grid_id"])
        # The 409 body carries the status so clients keep polling.
        assert info.value.payload["state"] == "queued"
        assert info.value.payload["done"] == 0

    def test_backpressure_is_429(self, tmp_path):
        with _serve(tmp_path, start_workers=False,
                    max_pending_per_tenant=1) as client:
            with pytest.raises(Backpressure) as info:
                client.submit(_grid(), tenant="alice")
        assert info.value.status == 429
        assert info.value.payload["tenant"] == "alice"
        assert info.value.payload["scope"] == "per-tenant"
        assert info.value.payload["limit"] == 1

    def test_malformed_submission_is_400(self, tmp_path):
        with _serve(tmp_path) as client:
            with pytest.raises(ServiceError) as info:
                client._request("POST", "/v1/grids", {"nope": True})
        assert info.value.status == 400
        assert "experiment" in str(info.value)

    def test_unknown_endpoint_is_404(self, tmp_path):
        with _serve(tmp_path) as client:
            with pytest.raises(ServiceError) as info:
                client._request("GET", "/v1/nope")
        assert info.value.status == 404

    def test_removed_stats_endpoint_is_404(self, tmp_path):
        # /v1/metrics and /v1/jobs are the ways to read a running
        # service; the JSON /v1/stats read-out is gone.
        with _serve(tmp_path) as client:
            ticket = client.submit(_grid())
            client.wait(ticket["grid_id"], timeout=60)
            assert client.jobs("done")["count"] == 2
            with pytest.raises(ServiceError) as info:
                client._request("GET", "/v1/stats")
        assert info.value.status == 404
        assert "no such endpoint" in str(info.value)

    def test_unknown_job_state_is_400(self, tmp_path):
        with _serve(tmp_path, start_workers=False) as client:
            with pytest.raises(ServiceError) as info:
                client.jobs("bogus")
        assert info.value.status == 400
        assert "unknown job state" in str(info.value)

    def test_unreachable_server(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(ServiceError) as info:
            client.health()
        assert info.value.status == 0
        assert "cannot reach" in str(info.value)


class TestWireFormat:
    def test_dict_submission_matches_spec_submission(self, tmp_path):
        """A hand-built wire dict hashes to the same grid as the spec."""
        from repro.experiment import experiment_to_dict

        spec = _grid()
        with _serve(tmp_path, start_workers=False) as client:
            via_spec = client.submit(spec, tenant="alice")
            via_dict = client.submit(experiment_to_dict(spec),
                                     tenant="alice")
        assert via_dict["grid_id"] == via_spec["grid_id"]


def _quarantine_one(tmp_path):
    """Leave one quarantined job in the service state under tmp_path."""
    service = ExperimentService(ServiceConfig(
        state_dir=tmp_path / "state", store_dir=tmp_path / "store",
        use_processes=False))
    service.submit(_grid(workloads=("copy",)), tenant="alice")
    (job,) = service.queue.lease(max_jobs=1)
    service.queue.quarantine(job.key, "injected fault", lease=job.lease)
    return job.key


class TestJobsCLI:
    def test_quarantined_lists_the_error_chain(self, tmp_path, capsys):
        key = _quarantine_one(tmp_path)
        with _serve(tmp_path, start_workers=False) as client:
            rc = main(["jobs", "--server", client.base_url,
                       "--quarantined"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1 job(s) in state 'quarantined'" in out
        assert "error chains (oldest attempt first):" in out
        assert f"  {key[:16]}:" in out
        assert "attempt 1: injected fault" in out

    def test_requeue_prints_the_count(self, tmp_path, capsys):
        key = _quarantine_one(tmp_path)
        with _serve(tmp_path, start_workers=False) as client:
            rc = main(["jobs", "--server", client.base_url,
                       "--requeue", key])
            assert client.jobs("pending")["count"] == 1
        assert rc == 0
        assert "requeued 1" in capsys.readouterr().out

    def test_unreachable_server_exits_4(self, capsys):
        rc = main(["jobs", "--server", "http://127.0.0.1:9",
                   "--timeout", "0.5"])
        assert rc == 4
        assert "cannot reach" in capsys.readouterr().err

    def test_unknown_state_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["jobs", "--state", "finished"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [["top"], ["jobs", "--watch"]],
                             ids=["top", "jobs-watch"])
    def test_removed_live_views_exit_2(self, argv):
        # one-shot `repro jobs` and /v1/metrics replace the dashboards
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
