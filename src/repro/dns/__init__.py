"""DNS substrate: record model, zone store, punycode codec, snapshot format.

The paper consumes a snapshot of 224M (domain, IP) records from the ActiveDNS
project.  This package provides the equivalent machinery at configurable
scale: a record model (:mod:`repro.dns.records`), an indexed in-memory zone
store supporting the lookups the squatting detector needs
(:mod:`repro.dns.zone`), a from-scratch RFC 3492 punycode codec used for
internationalized domain names (:mod:`repro.dns.idna`), and a line-oriented
snapshot file format compatible with ActiveDNS-style dumps
(:mod:`repro.dns.activedns`).
"""

from repro.dns.activedns import load_snapshot, write_snapshot
from repro.dns.deltazone import (
    DeltaSegment,
    DeltaSegmentBuilder,
    compact,
    is_delta_file,
)
from repro.dns.idna import (
    IDNAError,
    domain_to_ascii,
    domain_to_unicode,
    punycode_decode,
    punycode_encode,
)
from repro.dns.records import DNSRecord, is_valid_hostname, registered_domain, split_domain
from repro.dns.zone import ZoneStore
from repro.dns.zonediff import (
    ADDED,
    CHANGED,
    REMOVED,
    RETAINED,
    DiffTable,
    apply_diff,
    diff_packed,
    diff_serial,
)

__all__ = [
    "ADDED",
    "CHANGED",
    "DNSRecord",
    "DeltaSegment",
    "DeltaSegmentBuilder",
    "DiffTable",
    "IDNAError",
    "REMOVED",
    "RETAINED",
    "ZoneStore",
    "apply_diff",
    "compact",
    "diff_packed",
    "diff_serial",
    "domain_to_ascii",
    "is_delta_file",
    "domain_to_unicode",
    "is_valid_hostname",
    "load_snapshot",
    "punycode_decode",
    "punycode_encode",
    "registered_domain",
    "split_domain",
    "write_snapshot",
]
