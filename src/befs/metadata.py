"""Dataset ingestion and device-type labels.

Address files are line-oriented, one host or IPv4 address per line, with
an optional :port. Device labels come from a flat `ip<TAB>label` file so
runs stay reproducible offline. Both files are UTF-8, with or without a
byte-order mark, and a row ends at `\\n` only.
"""

from __future__ import annotations

import ipaddress
import logging
import re
from pathlib import Path
from typing import Iterable, Optional

log = logging.getLogger(__name__)


class IoFailure(Exception):
    """A file could not be read or written."""


class EmptyDataset(Exception):
    """An address file yielded no usable entries."""


_LABEL = re.compile(r"^[a-z0-9]([a-z0-9-]{0,61}[a-z0-9])?$")


def split_address(address: str) -> tuple[str, Optional[int], Optional[str]]:
    """(host, port, SNI name) of a dial string; total over any input.

    A plain string split, cheap enough for every handshake: a suffix
    after the last colon is the port only if it is all ASCII digits,
    otherwise the whole string is the host and the port is None. The
    SNI name is the host, unless the host is empty or only digits and
    dots (an IPv4 literal, or no host name at all). Validation belongs
    to parse_address.
    """
    host, sep, port = address.rpartition(":")
    if sep and port.isascii() and port.isdigit():
        number: Optional[int] = int(port)
    else:
        host, number = address, None
    return host, number, host if host and not host.replace(".", "").isdigit() else None


def parse_address(raw: str) -> str:
    """The normalized dial string of one line; ValueError describes the defect.

    An IPv4 host takes its canonical form, a hostname is lowercased and
    loses a trailing dot, and a port is kept as written. The result is
    the dedup key of an address file.
    """
    text = raw.strip()
    if not text:
        raise ValueError("empty line")
    if "://" in text:
        raise ValueError("URL scheme not accepted, give a bare host")
    if any(c.isspace() for c in text):
        raise ValueError("whitespace inside address")
    host, port_text = text, None
    if ":" in text:
        host, port_text = text.rsplit(":", 1)
        if ":" in host:
            raise ValueError("IPv6 addresses are not supported")
        if not port_text.isdigit() or not 1 <= int(port_text) <= 65535:
            raise ValueError("port must be 1-65535")
    if not host:
        raise ValueError("missing host")
    if all(c.isdigit() or c == "." for c in host):
        try:
            host = str(ipaddress.IPv4Address(host))
        except ipaddress.AddressValueError:
            raise ValueError("not a valid IPv4 address") from None
    else:
        host = host.lower().rstrip(".")
        if len(host) > 253 or not all(_LABEL.match(part) for part in host.split(".")):
            raise ValueError("not a valid hostname")
    return host if port_text is None else "%s:%s" % (host, port_text)


def _rows(path) -> list[str]:
    """The rows of a UTF-8 text file, split at `\\n` only, BOM dropped."""
    try:
        return Path(path).read_bytes().decode("utf-8-sig").split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise IoFailure("cannot read %s: %s" % (path, exc)) from exc


def load_addresses(path) -> list[str]:
    """Read an address file: normalized, deduplicated, input order preserved.

    Malformed lines are skipped with a logged diagnostic naming the line.
    """
    seen: dict[str, None] = {}
    for number, line in enumerate(_rows(path), start=1):
        if not line.strip():
            continue
        try:
            seen[parse_address(line)] = None
        except ValueError as exc:
            log.warning("%s:%d: skipped %r (%s)", path, number, line.strip(), exc)
    if not seen:
        raise EmptyDataset("no usable addresses in %s" % path)
    return list(seen)


def device_type(ips: Iterable[str], path) -> dict[str, str]:
    """The label of each of `ips` that the `ip<TAB>label` file at `path` lists.

    An empty label, or a row without a tab, means an ordinary web server
    or an endpoint that could not be typed; that is different from the
    IP being absent from the file. A later row for an IP replaces an
    earlier one. IoFailure if the file cannot be read.
    """
    wanted = set(ips)
    labels = {}
    for line in _rows(path):
        if not line.strip():
            continue
        ip, _, label = line.partition("\t")
        ip = ip.strip()
        if ip in wanted:
            labels[ip] = label.strip()
    return labels
