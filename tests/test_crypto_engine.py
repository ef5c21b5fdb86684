"""Parity tests: the fast crypto engine must match the reference bit-for-bit.

The fast engine (hashlib SHA-256, fixed-window precomputed tables,
verification cache) exists purely to make fleet-scale simulation quick;
it must never change a single output byte.  These tests drive both
engines over the same inputs — digests, HMACs, signatures, verify
verdicts — and require identical results, including across engines
(sign under one, verify under the other).
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.crypto import (
    FixedWindowTable,
    P256,
    PrivateKey,
    Signature,
    generate_keypair,
    hmac_sha256,
    set_engine,
    sha256,
    use_engine,
)
from repro.crypto.engine import (
    FastEngine,
    ReferenceEngine,
    available_engines,
    get_engine,
)

ENGINES = ("reference", "fast")

# SHA-256 block boundaries: 55/56 straddle the length-field cutoff of
# the final block, 64 is one block, 119/120 the two-block cutoff.
BOUNDARY_LENGTHS = (0, 1, 54, 55, 56, 57, 63, 64, 65,
                    119, 120, 127, 128, 129, 1000)


@pytest.fixture(autouse=True)
def _reference_engine_after():
    """Every test leaves the process-wide engine as it found it."""
    previous = get_engine().name
    yield
    set_engine(previous)


# -- digest parity ----------------------------------------------------------


def test_sha256_known_vector_under_both_engines():
    expected = bytes.fromhex(
        "ba7816bf8f01cfea414140de5dae2223"
        "b00361a396177a9cb410ff61f20015ad")
    for name in ENGINES:
        with use_engine(name) as engine:
            assert engine.sha256(b"abc") == expected
            assert sha256(b"abc") == expected  # module fn stays reference


@pytest.mark.parametrize("length", BOUNDARY_LENGTHS)
def test_sha256_parity_at_block_boundaries(length):
    rng = random.Random(length)
    data = bytes(rng.getrandbits(8) for _ in range(length))
    reference = available_engines()["reference"].sha256(data)
    fast = available_engines()["fast"].sha256(data)
    assert reference == fast == hashlib.sha256(data).digest()


def test_sha256_parity_randomized():
    rng = random.Random(0xD16E57)
    reference = available_engines()["reference"]
    fast = available_engines()["fast"]
    for _ in range(40):
        data = bytes(rng.getrandbits(8)
                     for _ in range(rng.randrange(0, 600)))
        assert reference.sha256(data) == fast.sha256(data)


def test_incremental_hash_parity():
    rng = random.Random(0x1C4)
    data = bytes(rng.getrandbits(8) for _ in range(777))
    splits = (0, 1, 55, 64, 65, 300, 777)
    for name in ENGINES:
        engine = available_engines()[name]
        hasher = engine.new_hash()
        previous = 0
        for split in splits:
            hasher.update(data[previous:split])
            previous = split
        hasher.update(data[previous:])
        assert hasher.digest() == hashlib.sha256(data).digest()


def test_hmac_parity():
    rng = random.Random(0xAAC)
    reference = available_engines()["reference"]
    fast = available_engines()["fast"]
    # Keys shorter, equal to, and longer than the 64-byte HMAC block.
    for key_len in (0, 1, 32, 63, 64, 65, 200):
        key = bytes(rng.getrandbits(8) for _ in range(key_len))
        message = bytes(rng.getrandbits(8)
                        for _ in range(rng.randrange(0, 300)))
        expected = reference.hmac_sha256(key, message)
        assert fast.hmac_sha256(key, message) == expected
        with use_engine("fast"):
            assert hmac_sha256(key, message) == expected


# -- curve parity -----------------------------------------------------------


def test_multiply_base_parity():
    rng = random.Random(0xECC)
    fast = available_engines()["fast"]
    scalars = [1, 2, 3, 15, 16, 17, P256.n - 1, P256.n + 1]
    scalars += [rng.randrange(1, P256.n) for _ in range(10)]
    for k in scalars:
        assert fast.multiply_base(k) == P256.multiply_base(k)


def test_fixed_window_table_matches_plain_multiply():
    key = generate_keypair(b"table-parity")
    point = key.public_key().point
    table = FixedWindowTable(point)
    rng = random.Random(0x7AB)
    for k in [1, 2, P256.n - 1] + [rng.randrange(1, P256.n)
                                   for _ in range(8)]:
        assert table.multiply(k) == P256.multiply(k, point)


def test_combined_multiply_matches_double_multiply():
    key = generate_keypair(b"combined-parity")
    point = key.public_key().point
    generator_table = FixedWindowTable(P256.generator)
    key_table = FixedWindowTable(point)
    rng = random.Random(0xC0B)
    for _ in range(8):
        u1 = rng.randrange(1, P256.n)
        u2 = rng.randrange(1, P256.n)
        assert (generator_table.combined_multiply(u1, key_table, u2)
                == P256.double_multiply(u1, u2, point))


def test_window_table_rejects_infinity():
    from repro.crypto.ecc import INFINITY, CurveError

    with pytest.raises(CurveError):
        FixedWindowTable(INFINITY)


# -- signed-window kernel edge cases ----------------------------------------

WINDOW_BITS = FixedWindowTable.WINDOW_BITS


@pytest.fixture(scope="module")
def tables():
    """One generator table, a second one, and a key table with its point."""
    point = generate_keypair(b"window-edges").public_key().point
    return (FixedWindowTable(P256.generator),
            FixedWindowTable(P256.generator),
            FixedWindowTable(point))


def _signed_digits(k):
    """The recoding the table walk performs, spelled out: digits in
    [-31, 32], the carry of a negative digit into the next window."""
    digits = []
    while k:
        digit = k & ((1 << WINDOW_BITS) - 1)
        k >>= WINDOW_BITS
        if digit > 1 << (WINDOW_BITS - 1):
            digit -= 1 << WINDOW_BITS
            k += 1
        digits.append(digit)
    return digits


def _from_digits(digits):
    return sum(d << (WINDOW_BITS * i) for i, d in enumerate(digits))


EDGE_SCALARS = (0, 1, 31, 32, 33, 63, 64, 2 ** 255,
                P256.n - 1, P256.n, P256.n + 1)

# Every full window is 32 (the largest positive digit) or 63 (the digit
# -1 with a carry), so carries chain through the windows and reach the
# top one, whose 4 bits hold what is left of a 256-bit scalar.
_LOW = 256 // WINDOW_BITS
CARRY_SCALARS = (
    _from_digits([63] * _LOW),
    _from_digits([63] * _LOW + [14]),
    _from_digits([63] + [32] * (_LOW - 1)),
    _from_digits([63] + [32] * (_LOW - 1) + [14]),
    _from_digits([32] * _LOW + [15]),
    _from_digits([32, 63] * (_LOW // 2) + [7]),
    _from_digits([63, 32] * (_LOW // 2)),
)


@pytest.mark.parametrize("k", EDGE_SCALARS)
def test_window_table_edge_scalars(tables, k):
    generator_table, _, key_table = tables
    assert generator_table.multiply(k) == P256.multiply(k, P256.generator)
    assert key_table.multiply(k) == P256.multiply(k, key_table.point)
    assert available_engines()["fast"].multiply_base(k) \
        == P256.multiply_base(k)


@pytest.mark.parametrize("k", CARRY_SCALARS)
def test_window_table_carries_into_the_top_window(tables, k):
    assert k < P256.n
    digits = _signed_digits(k)
    assert len(digits) == FixedWindowTable._WINDOWS and digits[-1] > 0
    assert _from_digits(digits) == k
    generator_table, _, key_table = tables
    assert generator_table.multiply(k) == P256.multiply(k, P256.generator)
    assert key_table.multiply(k) == P256.multiply(k, key_table.point)
    u2 = CARRY_SCALARS[0] ^ k
    assert (generator_table.combined_multiply(k, key_table, u2)
            == P256.double_multiply(k, u2, key_table.point))


@pytest.mark.parametrize("u2", (1, 32, 31 << 12, 32 << 246, 33, 63, 63 << 18))
def test_combined_multiply_accumulator_meets_a_table_entry(tables, u2):
    """u1*G, then u2*G through the same accumulator, with u1*G equal to
    the first entry the u2 walk adds (the doubling branch) or to its
    negation (the identity branch).  For u2 = 33, 63 and 63 << 18 that
    first entry is a negated one."""
    generator_table, second_table, _ = tables
    window, digit = next((i, d) for i, d in enumerate(_signed_digits(u2))
                         if d)
    entry = digit << (WINDOW_BITS * window)
    for u1 in (entry % P256.n, -entry % P256.n):
        assert (generator_table.combined_multiply(u1, second_table, u2)
                == P256.double_multiply(u1, u2, P256.generator))


def test_verify_whose_sum_is_the_identity_is_false():
    """u1*G = -u2*Q: the verify sum is the point at infinity, and both
    engines reject the signature without raising."""
    private = generate_keypair(b"identity-sum")
    point = private.public_key().point
    r, s = 0x1234567, 0x89ABCDEF
    e = (-r * private.scalar) % P256.n
    digest = e.to_bytes(32, "big")
    engine = FastEngine(table_threshold=1)
    w = pow(s, -1, P256.n)
    u1, u2 = (e * w) % P256.n, (r * w) % P256.n
    assert engine._generator_table().combined_multiply(
        u1, engine._table_for(point), u2).is_infinity
    assert P256.double_multiply(u1, u2, point).is_infinity
    assert engine.ecdsa_verify(point, r, s, digest) is False
    assert available_engines()["reference"].ecdsa_verify(
        point, r, s, digest) is False


# -- ECDSA parity -----------------------------------------------------------


def test_signatures_identical_across_engines():
    """RFC 6979 is deterministic, so both engines sign identically."""
    rng = random.Random(0x516)
    key = generate_keypair(b"sign-parity")
    for _ in range(6):
        message = bytes(rng.getrandbits(8)
                        for _ in range(rng.randrange(1, 200)))
        with use_engine("reference"):
            reference_sig = key.sign(message)
        with use_engine("fast"):
            fast_sig = key.sign(message)
        assert reference_sig == fast_sig


@pytest.mark.parametrize("signer", ENGINES)
@pytest.mark.parametrize("verifier", ENGINES)
def test_sign_verify_round_trip_across_engines(signer, verifier):
    key = generate_keypair(b"roundtrip-%s-%s" % (signer.encode(),
                                                 verifier.encode()))
    public = key.public_key()
    message = b"cross-engine round trip"
    with use_engine(signer):
        signature = key.sign(message)
    with use_engine(verifier):
        assert public.verify(signature, message)
        assert not public.verify(signature, message + b"!")


@pytest.mark.parametrize("name", ENGINES)
def test_corrupted_signatures_rejected(name):
    rng = random.Random(0xBAD)
    key = generate_keypair(b"corruption")
    public = key.public_key()
    message = b"corrupted signature rejection"
    signature = key.sign(message)
    with use_engine(name):
        assert public.verify(signature, message)
        for _ in range(8):
            bit = 1 << rng.randrange(0, 256)
            mangled = Signature(r=signature.r ^ bit, s=signature.s)
            assert not public.verify(mangled, message)
            mangled = Signature(r=signature.r, s=signature.s ^ bit)
            assert not public.verify(mangled, message)
        assert not public.verify(signature, message + b"\x00")


def test_randomized_verify_verdict_parity():
    """Both engines agree on valid *and* invalid signatures."""
    rng = random.Random(0xF00D)
    key = generate_keypair(b"verdict-parity")
    public = key.public_key()
    reference = available_engines()["reference"]
    fast = available_engines()["fast"]
    for index in range(10):
        message = b"verdict %d" % index
        signature = key.sign(message)
        r, s = signature.r, signature.s
        if index % 2:
            r = (r ^ (1 << rng.randrange(0, 256))) % P256.n or 1
        digest = hashlib.sha256(message).digest()
        expected = reference.ecdsa_verify(public.point, r, s, digest)
        assert fast.ecdsa_verify(public.point, r, s, digest) == expected


# -- fast-engine cache behaviour -------------------------------------------


def test_verification_cache_hits_on_repeat():
    engine = FastEngine()
    key = generate_keypair(b"cache-hit")
    public = key.public_key()
    signature = key.sign(b"cached")
    digest = hashlib.sha256(b"cached").digest()
    assert engine.ecdsa_verify(public.point, signature.r, signature.s,
                               digest)
    assert engine.stats.verify_cache_hits == 0
    assert engine.ecdsa_verify(public.point, signature.r, signature.s,
                               digest)
    assert engine.stats.verify_cache_hits == 1
    assert engine.stats.verify_calls == 2


def test_verification_cache_caches_negative_verdicts():
    engine = FastEngine()
    key = generate_keypair(b"cache-negative")
    public = key.public_key()
    signature = key.sign(b"message")
    digest = hashlib.sha256(b"other message").digest()
    assert not engine.ecdsa_verify(public.point, signature.r,
                                   signature.s, digest)
    assert not engine.ecdsa_verify(public.point, signature.r,
                                   signature.s, digest)
    assert engine.stats.verify_cache_hits == 1


def test_verification_cache_is_bounded():
    engine = FastEngine(verify_cache_size=4)
    key = generate_keypair(b"cache-bound")
    public = key.public_key()
    for index in range(10):
        message = b"bound %d" % index
        signature = key.sign(message)
        digest = hashlib.sha256(message).digest()
        engine.ecdsa_verify(public.point, signature.r, signature.s,
                            digest)
    assert len(engine._verify_cache) == 4


def test_key_tables_built_after_threshold_and_bounded():
    engine = FastEngine(key_table_cache_size=2, table_threshold=2)
    keys = [generate_keypair(b"table-%d" % i) for i in range(3)]
    for index, key in enumerate(keys):
        public = key.public_key()
        for round_ in range(3):
            message = b"msg %d %d" % (index, round_)
            signature = key.sign(message)
            digest = hashlib.sha256(message).digest()
            assert engine.ecdsa_verify(public.point, signature.r,
                                       signature.s, digest)
    assert engine.stats.key_tables_built == 3
    assert engine.stats.key_tables_evicted == 1
    assert len(engine._key_tables) == 2


def test_clear_caches_resets_state():
    engine = FastEngine()
    key = generate_keypair(b"clear")
    public = key.public_key()
    signature = key.sign(b"clear me")
    digest = hashlib.sha256(b"clear me").digest()
    for _ in range(3):
        engine.ecdsa_verify(public.point, signature.r, signature.s,
                            digest)
    engine.clear_caches()
    assert engine.stats.verify_calls == 0
    assert not engine._verify_cache
    assert not engine._key_tables
    assert engine._base_table is None


def test_fast_engine_validates_cache_sizes():
    with pytest.raises(ValueError):
        FastEngine(verify_cache_size=0)
    with pytest.raises(ValueError):
        FastEngine(key_table_cache_size=0)


# -- engine selection -------------------------------------------------------


def test_set_engine_and_use_engine():
    assert get_engine().name == "reference"
    engine = set_engine("fast")
    assert isinstance(engine, FastEngine)
    assert get_engine() is engine
    set_engine("reference")
    assert isinstance(get_engine(), ReferenceEngine)
    with use_engine("fast"):
        assert get_engine().name == "fast"
    assert get_engine().name == "reference"


def test_use_engine_restores_on_exception():
    with pytest.raises(RuntimeError):
        with use_engine("fast"):
            raise RuntimeError("boom")
    assert get_engine().name == "reference"


def test_unknown_engine_rejected():
    with pytest.raises(KeyError):
        set_engine("quantum")


def test_available_engines_names():
    engines = available_engines()
    assert set(engines) == {"reference", "fast"}
    assert engines["reference"].name == "reference"
    assert engines["fast"].name == "fast"


# -- verify-cache lock audit (satellite: contention-safe counters) -----------


def _hammer_verify(engine, public, jobs, threads):
    """Run ``jobs`` (message, signature) verifies across ``threads``."""
    import threading

    errors = []
    per_thread = [jobs[i::threads] for i in range(threads)]

    def worker(assigned):
        try:
            for message, signature in assigned:
                assert public.verify(signature, message)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    workers = [threading.Thread(target=worker, args=(chunk,))
               for chunk in per_thread]
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    assert errors == []


def test_verify_counters_exact_under_thread_contention():
    """verify_calls is exact and hits are bounded under contention.

    The hot path increments under the engine lock, so the call counter
    must equal the number of verifies issued no matter the interleaving.
    Two threads may race to first-verify the same signature (both miss,
    both compute — benign, results identical), so cache hits are
    bounded below by ``total - threads * distinct`` rather than exact.
    """
    threads, repeats = 4, 8
    key = generate_keypair(b"contention-audit")
    public = key.public_key()
    with use_engine("fast") as engine:
        engine.clear_caches()
        messages = [b"contended message %d" % i for i in range(3)]
        signed = [(m, key.sign(m)) for m in messages]
        signing_calls = engine.stats_snapshot().verify_calls
        jobs = signed * repeats
        _hammer_verify(engine, public, jobs, threads)
        stats = engine.stats_snapshot()
    total = len(jobs)
    distinct = len(signed)
    assert stats.verify_calls - signing_calls == total
    assert stats.verify_cache_hits <= stats.verify_calls
    assert stats.verify_cache_hits >= total - threads * distinct


def test_verify_cache_stays_bounded_under_thread_contention():
    """Eviction under the lock: the LRU never overshoots its bound."""
    threads = 4
    key = generate_keypair(b"contention-bound")
    public = key.public_key()
    with use_engine("fast"):
        engine = FastEngine(verify_cache_size=8)
        set_engine_obj = engine  # distinct instance; drive it directly
        messages = [b"bounded message %d" % i for i in range(64)]
        signatures = [key.sign(m) for m in messages]
    import threading

    errors = []

    def worker(offset):
        try:
            for i in range(offset, len(messages), threads):
                digest = hashlib.sha256(messages[i]).digest()
                sig = signatures[i]
                assert set_engine_obj.ecdsa_verify(
                    public.point, sig.r, sig.s, digest)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    workers = [threading.Thread(target=worker, args=(i,))
               for i in range(threads)]
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    assert errors == []
    assert len(set_engine_obj._verify_cache) <= 8
    stats = set_engine_obj.stats_snapshot()
    assert stats.verify_calls == len(messages)


def test_snapshots_never_tear_under_contention():
    """Concurrent stats_snapshot readers always see hits <= calls."""
    import threading

    key = generate_keypair(b"contention-snapshot")
    public = key.public_key()
    with use_engine("fast") as engine:
        engine.clear_caches()
        message = b"snapshot message"
        signature = key.sign(message)
        stop = threading.Event()
        torn = []

        def reader():
            while not stop.is_set():
                snap = engine.stats_snapshot()
                if snap.verify_cache_hits > snap.verify_calls:
                    torn.append(snap)  # pragma: no cover - failure path

        watcher = threading.Thread(target=reader)
        watcher.start()
        try:
            _hammer_verify(engine, public,
                           [(message, signature)] * 64, threads=4)
        finally:
            stop.set()
            watcher.join()
    assert torn == []


def _hammer_content_verify(cache, engine, jobs, threads):
    """Run ``jobs`` (point, r, s, digest, expected) through the content
    cache across ``threads`` — the same 4-thread harness shape as
    ``_hammer_verify``, aimed at the (key, digest) LRU."""
    import threading

    errors = []
    per_thread = [jobs[i::threads] for i in range(threads)]

    def worker(assigned):
        try:
            for point, r, s, digest, expected in assigned:
                assert cache.verify(engine, point, r, s,
                                    digest) == expected
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    workers = [threading.Thread(target=worker, args=(chunk,))
               for chunk in per_thread]
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    assert errors == []


def test_content_cache_verifies_identical_images_once():
    """The batched fleet hot path: one (key, digest) pair — the vendor
    signature over a release — verifies once, then hits."""
    from repro.crypto.engine import ContentVerifyCache

    engine = FastEngine()
    cache = ContentVerifyCache()
    key = generate_keypair(b"content-once")
    message = b"release canonical bytes"
    signature = key.sign(message)
    digest = hashlib.sha256(message).digest()
    point = key.public_key().point
    for _ in range(5):
        assert cache.verify(engine, point, signature.r, signature.s,
                            digest)
    stats = cache.stats_snapshot()
    assert stats.misses == 1
    assert stats.hits == 4
    assert stats.calls == 5
    assert len(cache) == 1


def test_content_cache_verdict_matches_plain_engine_verify():
    """Cache answers are bit-for-bit the per-device ecdsa_verify path,
    for valid and tampered signatures alike."""
    from repro.crypto.ecdsa import P256 as _curve
    from repro.crypto.engine import ContentVerifyCache

    engine = FastEngine()
    cache = ContentVerifyCache()
    key = generate_keypair(b"content-parity")
    point = key.public_key().point
    rng = random.Random(0xCACE)
    for index in range(8):
        message = b"content %d" % index
        signature = key.sign(message)
        digest = hashlib.sha256(message).digest()
        r = signature.r
        if index % 2:
            r = (r ^ (1 << rng.randrange(0, 256))) % _curve.n or 1
        expected = FastEngine().ecdsa_verify(point, r, signature.s,
                                             digest)
        assert cache.verify(engine, point, r, signature.s, digest) \
            == expected


def test_content_cache_never_caches_failures():
    """A tampered signature is recomputed every call — failure must
    not be memoised (nor let a later honest verify be poisoned)."""
    from repro.crypto.engine import ContentVerifyCache

    engine = FastEngine()
    cache = ContentVerifyCache()
    key = generate_keypair(b"content-negative")
    message = b"tampered content"
    signature = key.sign(message)
    digest = hashlib.sha256(message).digest()
    point = key.public_key().point
    for _ in range(3):
        assert not cache.verify(engine, point, signature.r ^ 1,
                                signature.s, digest)
    stats = cache.stats_snapshot()
    assert stats.misses == 3 and stats.hits == 0
    assert len(cache) == 0
    # The honest signature still verifies (and only now populates).
    assert cache.verify(engine, point, signature.r, signature.s, digest)
    assert len(cache) == 1


def test_content_cache_is_bounded_lru():
    from repro.crypto.engine import ContentVerifyCache

    engine = FastEngine()
    cache = ContentVerifyCache(max_entries=4)
    key = generate_keypair(b"content-bound")
    point = key.public_key().point
    for index in range(10):
        message = b"content bound %d" % index
        signature = key.sign(message)
        digest = hashlib.sha256(message).digest()
        assert cache.verify(engine, point, signature.r, signature.s,
                            digest)
    assert len(cache) == 4
    with pytest.raises(ValueError):
        ContentVerifyCache(max_entries=0)


def test_content_cache_counters_exact_under_thread_contention():
    """The 4-thread harness on the content LRU: calls are exact, and
    hits are bounded below by total - threads * distinct (racing
    first-verifiers both miss — benign, identical verdicts)."""
    threads, repeats = 4, 8
    key = generate_keypair(b"content-contention")
    point = key.public_key().point
    engine = FastEngine()
    cache = engine.content_cache
    messages = [b"contended content %d" % i for i in range(3)]
    jobs = []
    for message in messages:
        signature = key.sign(message)
        digest = hashlib.sha256(message).digest()
        jobs.append((point, signature.r, signature.s, digest, True))
    jobs = jobs * repeats
    _hammer_content_verify(cache, engine, jobs, threads)
    stats = cache.stats_snapshot()
    assert stats.calls == len(jobs)
    assert stats.hits + stats.misses == len(jobs)
    assert stats.hits >= len(jobs) - threads * len(messages)
    assert len(cache) == len(messages)


def test_fast_engine_clear_caches_resets_content_cache():
    key = generate_keypair(b"content-clear")
    message = b"clear content"
    signature = key.sign(message)
    digest = hashlib.sha256(message).digest()
    engine = FastEngine()
    assert engine.verify_content(key.public_key().point, signature.r,
                                 signature.s, digest)
    assert len(engine.content_cache) == 1
    engine.clear_caches()
    assert len(engine.content_cache) == 0
    assert engine.content_cache.stats_snapshot().calls == 0
