"""Structured JSON errors from the ReproError hierarchy, per status code."""

import http.client
import json
import socket
import threading
import time

import pytest

from repro.serve import ServeHTTPError
from repro.serve.app import MAX_BODY_BYTES

from .conftest import SUBSET


def _raw(served, method, path, body=None):
    conn = http.client.HTTPConnection(served.host, served.port, timeout=30)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        conn.close()


def _assert_error(payload, status, error_type):
    error = payload["error"]
    assert error["type"] == error_type
    assert error["status"] == status
    assert error["message"]


def test_malformed_json_body_is_400(served):
    status, payload = _raw(served, "POST", "/bellwether", b"{not json")
    assert status == 400
    _assert_error(payload, 400, "BadRequestError")


def test_non_object_json_body_is_400(served):
    status, payload = _raw(served, "POST", "/bellwether", b"[1, 2, 3]")
    assert status == 400
    _assert_error(payload, 400, "BadRequestError")


def test_items_must_be_a_nonempty_list(served):
    for items in (123, "abc", [], {"a": 1}):
        status, payload = _raw(
            served, "POST", "/predict", json.dumps({"items": items}).encode()
        )
        assert status == 400, items
        _assert_error(payload, 400, "BadRequestError")


def test_unknown_item_ids_are_400(client):
    with pytest.raises(ServeHTTPError) as excinfo:
        client.bellwether(budget=50.0, items=[9_999_999])
    assert excinfo.value.status == 400
    _assert_error(excinfo.value.payload, 400, "BadRequestError")
    assert "9999999" in excinfo.value.payload["error"]["message"]


def test_non_numeric_budget_is_400(served):
    status, payload = _raw(
        served, "POST", "/bellwether", json.dumps({"budget": "cheap"}).encode()
    )
    assert status == 400
    _assert_error(payload, 400, "BadRequestError")


def test_unknown_endpoint_is_404(served):
    status, payload = _raw(served, "GET", "/nope")
    assert status == 404
    _assert_error(payload, 404, "NotFoundError")


def test_wrong_method_is_405(served):
    status, payload = _raw(served, "GET", "/bellwether")
    assert status == 405
    _assert_error(payload, 405, "MethodNotAllowedError")
    status, payload = _raw(served, "POST", "/model", b"{}")
    assert status == 405
    _assert_error(payload, 405, "MethodNotAllowedError")


def test_unknown_region_is_404(client):
    key = client.regions()["regions"][0]["key"]
    bogus = ["Nowhere" if isinstance(v, str) else v for v in key]
    with pytest.raises(ServeHTTPError) as excinfo:
        client.predict(items=[1, 2, 3], region=bogus)
    assert excinfo.value.status == 404
    _assert_error(excinfo.value.payload, 404, "NotFoundError")


def test_unintelligible_region_key_is_400(client):
    with pytest.raises(ServeHTTPError) as excinfo:
        client.predict(items=[1, 2, 3], region=[{"bogus": 1}])
    assert excinfo.value.status == 400
    _assert_error(excinfo.value.payload, 400, "BadRequestError")


def test_infeasible_budget_is_409(client):
    # All items (warm profile) and a restricted subset (cold evaluation
    # under the write lock) must both refuse, not answer an empty winner.
    for items in (None, SUBSET):
        with pytest.raises(ServeHTTPError) as excinfo:
            client.bellwether(budget=1e-9, items=items)
        assert excinfo.value.status == 409, items
        _assert_error(excinfo.value.payload, 409, "InfeasibleQueryError")


def test_unknown_cube_level_is_404(client):
    with pytest.raises(ServeHTTPError) as excinfo:
        client.cube(level=(99, 99))
    assert excinfo.value.status == 404
    _assert_error(excinfo.value.payload, 404, "NotFoundError")


def test_bad_cube_level_param_is_400(served):
    status, payload = _raw(served, "GET", "/cube?level=x,y")
    assert status == 400
    _assert_error(payload, 400, "BadRequestError")


@pytest.mark.parametrize(
    "declared, status, error_type",
    [
        ("abc", 400, "BadRequestError"),
        ("-1", 400, "BadRequestError"),
        (str(MAX_BODY_BYTES + 1), 413, "PayloadTooLargeError"),
    ],
    ids=["non-integer", "negative", "over-cap"],
)
def test_bad_content_length_answers_and_closes(
    served, lockcheck, declared, status, error_type
):
    """A Content-Length the server will not read is refused before the body.

    No body bytes follow the headers: the reply must come without waiting
    for any, the server must close the connection (the body's extent is
    unknown), and the handler thread must exit rather than block on a read.
    """
    before = set(threading.enumerate())
    request = (
        "POST /bellwether HTTP/1.1\r\n"
        f"Host: {served.host}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {declared}\r\n\r\n"
    ).encode()
    with socket.create_connection((served.host, served.port), timeout=3) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    head, __, body = b"".join(chunks).partition(b"\r\n\r\n")
    assert int(head.split()[1]) == status
    _assert_error(json.loads(body), status, error_type)
    deadline = time.monotonic() + 3
    while any(t.is_alive() for t in set(threading.enumerate()) - before):
        assert time.monotonic() < deadline, "handler thread still running"
        time.sleep(0.01)
    assert lockcheck.snapshot()["violations"] == []
