"""Certificate documents: the format tags, the detachable header, canonical
JSON and its digest, atomic writes, and reading a certificate back with its
integrity checks and its verdict rule.

A document is ``{"format", "header", "body", "digest"}``: the header holds
the timestamp and tool version, and the digest is the SHA-256 of the body's
canonical JSON, so two runs on the same inputs give byte-identical bodies.

This module imports no math layer, so ``descend`` reads, checks and refuses
a certificate before it loads the certify chain.
"""
from __future__ import annotations

import os
import time

from . import __version__ as TOOL_VERSION

TOOL_NAME = "ulrichcert"
CERTIFICATE_FORMAT = "ulrich-certificate/1"
REPORT_FORMAT = "enriques-report/1"


class UncertifiedCertificateError(Exception):
    """An operation required a certified certificate."""


class CertificateIntegrityError(Exception):
    """A serialized certificate failed its digest check."""


# json and hashlib (which maps OpenSSL) are imported on use, so a process
# that writes and reads no document does not load them

def _canonical(obj) -> str:
    import json
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _digest(obj) -> str:
    import hashlib
    return hashlib.sha256(_canonical(obj).encode()).hexdigest()


def _document(fmt: str, body: dict) -> dict:
    """A serialized document: format, detachable header, body and its digest.

    ``header.created`` is the UTC time as ``YYYY-MM-DDTHH:MM:SS.ffffff+00:00``,
    read from ``time``, which the interpreter has loaded, not ``datetime``."""
    seconds, micros = divmod(time.time_ns() // 1000, 1_000_000)
    return {
        "format": fmt,
        "header": {
            "created": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds))
                       + f".{micros:06d}+00:00",
            "tool": f"{TOOL_NAME} {TOOL_VERSION}",
        },
        "body": body,
        "digest": _digest(body),
    }


def write_json_atomic(path, document: dict):
    """Serialize to a temp file in the target directory and rename over.

    The temp file is created exclusively with mode 0o666 less the umask, the
    mode that ``open(path, "w")`` gives a new file. An ``OSError`` names
    ``path``, not the temp file, and leaves no temp file.
    """
    import json
    path = os.fspath(path)
    candidate = os.path.join(os.path.dirname(path) or ".", f"tmp{os.urandom(8).hex()}.tmp")
    tmp = None
    try:
        fd = os.open(candidate, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        tmp = candidate
        with os.fdopen(fd, "w") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def load_certificate_document(path) -> dict:
    import json
    with open(path) as handle:
        try:
            document = json.load(handle)
        except (ValueError, RecursionError) as exc:   # RecursionError: nested too deep
            raise CertificateIntegrityError(f"certificate is not JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise CertificateIntegrityError("certificate is not a JSON object")
    if document.get("format") != CERTIFICATE_FORMAT:
        raise CertificateIntegrityError(f"unexpected format {document.get('format')!r}")
    body = document.get("body")
    if not isinstance(body, dict) or _digest(body) != document.get("digest"):
        raise CertificateIntegrityError("certificate digest mismatch or a non-object body")
    return document


def certified_body(document: dict) -> dict:
    """The body of a certificate document that records a certified verdict;
    any other verdict, or none, is ``UncertifiedCertificateError``."""
    body = document["body"]
    if body.get("verdict") != "certified":
        raise UncertifiedCertificateError(f"certificate verdict is {body.get('verdict')!r}")
    return body
