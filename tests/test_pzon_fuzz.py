"""The PZON and delta-segment readers fail typed on damaged files.

``scan --verify`` and ``stream`` catch only
:class:`~repro.dns.packedzone.PackedZoneCorruptError`, so a truncated or
bit-flipped file must surface as that error, never as a ``KeyError``,
``TypeError`` or ``UnicodeDecodeError`` from decoding the meta JSON.  The
only other errors the readers may raise are the two plain
``ValueError``s that say the bytes are not PZON at all (bad magic) or
come from a newer writer (bad version).
"""

from hypothesis import given, settings, strategies as st

from repro.dns.deltazone import DeltaSegment, DeltaSegmentBuilder
from repro.dns.packedzone import PackedZone, PackedZoneCorruptError, pack_zone
from repro.dns.zone import ZoneStore

NAMES = ["alpha.com", "www.alpha.com", "beta.net", "gamma.org",
         "xn--pple-43d.com"]


def _zone_bytes() -> bytes:
    store = ZoneStore()
    for index, name in enumerate(NAMES):
        store.add_name(name, ip=f"10.0.0.{index + 1}")
    return pack_zone(store).to_bytes()


def _segment_bytes() -> bytes:
    builder = DeltaSegmentBuilder()
    builder.add_name("filed.com", ip="10.9.9.9")
    builder.add_name("www.filed.com")
    builder.remove_name("alpha.com")
    return builder.to_bytes(seq=3, base_digest="ab" * 32)


FILES = {"zone": _zone_bytes(), "segment": _segment_bytes()}
ALLOWED_VALUE_ERRORS = ("not a packed zone snapshot (bad magic)",
                        "unsupported packed zone version")


def _open_and_verify(kind: str, data: bytes) -> None:
    if kind == "zone":
        PackedZone.from_bytes(data).verify()
    else:
        DeltaSegment.from_bytes(data).verify()


def _assert_typed(kind: str, data: bytes) -> None:
    try:
        _open_and_verify(kind, data)
    except PackedZoneCorruptError:
        pass
    except ValueError as exc:
        if type(exc) is not ValueError \
                or not str(exc).startswith(ALLOWED_VALUE_ERRORS):
            raise


def _damage(kind: str, cut: int, flip: int, truncate: bool) -> bytes:
    data = FILES[kind]
    if truncate:
        return data[:cut % len(data)]
    flip %= len(data) * 8
    damaged = bytearray(data)
    damaged[flip // 8] ^= 1 << (flip % 8)
    return bytes(damaged)


def test_undamaged_files_open_and_verify():
    for kind, data in FILES.items():
        _open_and_verify(kind, data)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(kind=st.sampled_from(sorted(FILES)),
       truncate=st.booleans(),
       # half the draws land in the header + meta JSON, where the
       # untyped decode errors live; the rest anywhere in the file
       cut=st.one_of(st.integers(0, 1100), st.integers(0, 1 << 16)),
       flip=st.one_of(st.integers(0, 1100 * 8), st.integers(0, 1 << 20)))
def test_damaged_files_fail_typed(kind, truncate, cut, flip):
    _assert_typed(kind, _damage(kind, cut, flip, truncate))
