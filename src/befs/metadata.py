"""Dataset ingestion and device-type enrichment.

Address files are line-oriented, one host or IPv4 address per line, with
an optional :port. Device metadata comes from a pluggable provider; the
shipped one is a flat file so runs stay reproducible offline.
"""

from __future__ import annotations

import ipaddress
import logging
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Optional, Protocol, Sequence

log = logging.getLogger(__name__)


class IoFailure(Exception):
    """A file could not be read or written."""


class EmptyDataset(Exception):
    """An address file yielded no usable entries."""


class ProviderUnavailable(Exception):
    """The metadata provider cannot serve lookups right now."""


class AddressKind(Enum):
    HOSTNAME = "HOSTNAME"
    IPV4 = "IPV4"


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


@dataclass(frozen=True)
class Address:
    """One scan target. `normalized` is the dedup key and dial string."""

    raw: str
    kind: AddressKind
    normalized: str

    @property
    def host(self) -> str:
        return split_address(self.normalized)[0]

    @property
    def port(self) -> Optional[int]:
        return split_address(self.normalized)[1]

    @property
    def sni_hostname(self) -> Optional[str]:
        # literal IPs never go into an SNI extension
        return split_address(self.normalized)[2]


def parse_address(raw: str) -> Address:
    """Parse one line into an Address; ValueError describes the defect."""
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
        kind = AddressKind.IPV4
    else:
        host = host.lower().rstrip(".")
        if len(host) > 253 or not all(_LABEL.match(part) for part in host.split(".")):
            raise ValueError("not a valid hostname")
        kind = AddressKind.HOSTNAME
    normalized = host if port_text is None else "%s:%s" % (host, port_text)
    return Address(raw=raw, kind=kind, normalized=normalized)


def load_addresses(path) -> list[Address]:
    """Read an address file: deduplicated, input order preserved.

    Malformed lines are skipped with a logged diagnostic naming the line.
    """
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise IoFailure("cannot read %s: %s" % (path, exc)) from exc
    seen: dict[str, Address] = {}
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            address = parse_address(line)
        except ValueError as exc:
            log.warning("%s:%d: skipped %r (%s)", path, number, line.strip(), exc)
            continue
        seen.setdefault(address.normalized, address)
    if not seen:
        raise EmptyDataset("no usable addresses in %s" % path)
    return list(seen.values())


@dataclass(frozen=True)
class DeviceMeta:
    """Provider row for one IP.

    An empty label means an ordinary web server or an endpoint the
    provider could not type; that is different from the IP being absent
    from the provider entirely.
    """

    ip: str
    device_type_label: str = ""

    @property
    def is_network_device(self) -> bool:
        return self.device_type_label != ""


class MetadataProvider(Protocol):
    def lookup(self, ips: Sequence[str]) -> Mapping[str, DeviceMeta]: ...


@dataclass
class FileBackedProvider:
    """Flat-file provider: one `ip<TAB>label` row per line.

    A row without a tab records the IP with an empty label.
    """

    path: str
    _cache: Optional[dict[str, DeviceMeta]] = field(default=None, repr=False)

    def _table(self) -> dict[str, DeviceMeta]:
        if self._cache is None:
            try:
                lines = Path(self.path).read_text(encoding="utf-8").splitlines()
            except (OSError, UnicodeDecodeError) as exc:
                raise ProviderUnavailable(str(exc)) from exc
            table = {}
            for line in lines:
                if not line.strip():
                    continue
                ip, _, label = line.partition("\t")
                table[ip.strip()] = DeviceMeta(ip=ip.strip(), device_type_label=label.strip())
            self._cache = table
        return self._cache

    def lookup(self, ips: Sequence[str]) -> Mapping[str, DeviceMeta]:
        table = self._table()
        return {ip: table[ip] for ip in ips if ip in table}


@dataclass(frozen=True)
class DeviceLookup:
    """Lookup outcome: found rows, plus the IPs the provider had no row for."""

    by_ip: Mapping[str, DeviceMeta]
    missing: tuple[str, ...]

    @property
    def requested(self) -> int:
        return len(self.by_ip) + len(self.missing)

    @property
    def coverage(self) -> float:
        return len(self.by_ip) / self.requested if self.requested else 1.0

    def __contains__(self, ip: str) -> bool:
        return ip in self.by_ip

    def __getitem__(self, ip: str) -> DeviceMeta:
        return self.by_ip[ip]


def device_type(ips: Iterable[str], provider: MetadataProvider) -> DeviceLookup:
    """Batch ip -> DeviceMeta with explicit misses.

    A dead provider degrades to an all-missing result with a warning so
    a scan can still aggregate, just without device typing.
    """
    requested = list(dict.fromkeys(ips))
    try:
        found = dict(provider.lookup(requested))
    except ProviderUnavailable as exc:
        log.warning("metadata provider unavailable, no device types: %s", exc)
        found = {}
    missing = tuple(ip for ip in requested if ip not in found)
    return DeviceLookup(by_ip=found, missing=missing)
