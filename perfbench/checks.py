"""Independent output checks for the benchmark workloads.

Every function here is pure: it takes plain values the program reported
(output arrays, per-unit counters, shard records, result bytes) and
returns a list of failure messages, empty when the check passes.  The
references are NumPy computations written from the kernels' textbook
definitions, not calls into the simulator, so a wrong simulator result
cannot agree with them by construction.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Sequence

import numpy as np

#: The paper's acceptance criterion for the image kernels (dB).
MIN_PSNR_DB = 30.0
#: Injected errors must lie within this many standard deviations of
#: ``rate * ops`` under Bernoulli injection.
INJECTION_SIGMAS = 5.0

# ---------------------------------------------------------------- references


def psnr_db(reference, test, peak: float = 255.0) -> float:
    """Peak signal-to-noise ratio in dB (``inf`` for identical images)."""
    diff = np.asarray(reference, np.float64) - np.asarray(test, np.float64)
    mse = float(np.mean(diff * diff))
    return math.inf if mse == 0.0 else 10.0 * math.log10(peak * peak / mse)


def _clamped(image: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """``image`` shifted by (dy, dx) with edge pixels replicated."""
    h, w = image.shape
    rows = np.clip(np.arange(h) + dy, 0, h - 1)
    cols = np.clip(np.arange(w) + dx, 0, w - 1)
    return image[np.ix_(rows, cols)]


def sobel_reference(image) -> np.ndarray:
    """3x3 Sobel magnitude, halved, clamped to [0, 255], truncated."""
    a = np.asarray(image, np.float64)
    gx = (
        _clamped(a, -1, 1) + 2 * _clamped(a, 0, 1) + _clamped(a, 1, 1)
        - _clamped(a, -1, -1) - 2 * _clamped(a, 0, -1) - _clamped(a, 1, -1)
    )
    gy = (
        _clamped(a, 1, -1) + 2 * _clamped(a, 1, 0) + _clamped(a, 1, 1)
        - _clamped(a, -1, -1) - 2 * _clamped(a, -1, 0) - _clamped(a, -1, 1)
    )
    return np.trunc(np.clip(0.5 * np.sqrt(gx * gx + gy * gy), 0.0, 255.0))


def gaussian_reference(image) -> np.ndarray:
    """5x5 binomial blur ([1 4 6 4 1]/16 outer product), clamped, truncated."""
    a = np.asarray(image, np.float64)
    taps = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
    out = np.zeros_like(a)
    for dy in range(-2, 3):
        for dx in range(-2, 3):
            out += taps[dy + 2] * taps[dx + 2] * _clamped(a, dy, dx)
    return np.trunc(np.clip(out, 0.0, 255.0))


def haar_reference(signal) -> np.ndarray:
    """Full 1-D Haar decomposition: [approximation, coarsest .. finest detail]."""
    out = np.asarray(signal, np.float64).copy()
    length = len(out)
    while length >= 2:
        band = out[:length]
        s = (band[0::2] + band[1::2]) / math.sqrt(2.0)
        d = (band[0::2] - band[1::2]) / math.sqrt(2.0)
        out[: length // 2] = s
        out[length // 2 : length] = d
        length //= 2
    return out


def walsh_reference(signal) -> np.ndarray:
    """Natural-ordered Walsh-Hadamard transform (Sylvester matrix product)."""
    x = np.asarray(signal, np.float64)
    hadamard = np.ones((1, 1))
    while hadamard.shape[0] < len(x):
        hadamard = np.block([[hadamard, hadamard], [hadamard, -hadamard]])
    return hadamard @ x


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.vectorize(math.erf)(x / math.sqrt(2.0)))


def black_scholes_reference(price, strike, years, rate, volatility) -> np.ndarray:
    """Closed-form European call and put prices, concatenated."""
    s = np.asarray(price, np.float64)
    k = np.asarray(strike, np.float64)
    t = np.asarray(years, np.float64)
    sig_sqrt_t = volatility * np.sqrt(t)
    d1 = (np.log(s / k) + (rate + 0.5 * volatility * volatility) * t) / sig_sqrt_t
    d2 = d1 - sig_sqrt_t
    kd = k * np.exp(-rate * t)
    call = s * _normal_cdf(d1) - kd * _normal_cdf(d2)
    put = kd * _normal_cdf(-d2) - s * _normal_cdf(-d1)
    return np.concatenate([call, put])


def binomial_reference(price, strike, steps, rate, volatility, years) -> np.ndarray:
    """European calls on a Cox-Ross-Rubinstein tree of ``steps`` steps."""
    s = np.asarray(price, np.float64)[:, None]
    k = np.asarray(strike, np.float64)[:, None]
    dt = years / steps
    u = math.exp(volatility * math.sqrt(dt))
    d = 1.0 / u
    growth = math.exp(rate * dt)
    pu = (growth - d) / (u - d)
    j = np.arange(steps + 1)[None, :]
    values = np.maximum(s * u ** j * d ** (steps - j) - k, 0.0)
    for _ in range(steps):
        values = (pu * values[:, 1:] + (1.0 - pu) * values[:, :-1]) / growth
    return values[:, 0]


def eigenvalue_reference(diag, offdiag) -> np.ndarray:
    """Sorted eigenvalues of the symmetric tridiagonal matrix."""
    d = np.asarray(diag, np.float64)
    e = np.asarray(offdiag, np.float64)
    matrix = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    return np.sort(np.linalg.eigvalsh(matrix))


# ------------------------------------------------------------ output checks


def check_close(name: str, output, reference, tolerance: float) -> List[str]:
    """Elementwise ``|output - reference| <= tolerance``."""
    out = np.asarray(output, np.float64).ravel()
    ref = np.asarray(reference, np.float64).ravel()
    if out.shape != ref.shape:
        return [f"{name}: output shape {out.shape} != reference {ref.shape}"]
    error = np.abs(out - ref)
    worst = int(np.argmax(error))
    if not error[worst] <= tolerance:
        return [
            f"{name}: element {worst} is {float(out[worst])!r}, reference "
            f"{float(ref[worst])!r} (|err| {error[worst]:.3g} > {tolerance:.3g})"
        ]
    return []


def check_psnr(name: str, output, reference) -> List[str]:
    value = psnr_db(reference, output)
    if not value >= MIN_PSNR_DB:
        return [f"{name}: PSNR {value:.2f} dB < {MIN_PSNR_DB:g} dB"]
    return []


def check_identical(name: str, left, right, what: str) -> List[str]:
    """Bit-identity of two float arrays (NaN payloads included)."""
    a = np.ascontiguousarray(left, np.float32)
    b = np.ascontiguousarray(right, np.float32)
    if a.shape != b.shape or a.tobytes() != b.tobytes():
        differing = (
            int(np.count_nonzero(a.view(np.uint32) != b.view(np.uint32)))
            if a.shape == b.shape
            else "all"
        )
        return [f"{name}: {what} differ ({differing} elements)"]
    return []


# --------------------------------------------------------- method properties


def check_conservation(
    name: str,
    counters: Mapping[str, Mapping[str, int]],
    lut: Mapping[str, Mapping[str, int]],
    memoized: bool,
) -> List[str]:
    """Per unit kind: injected == masked + recovered, hits <= lookups == ops.

    ``counters`` and ``lut`` map a unit kind to plain counts
    (``ops``, ``errors_injected``, ``errors_masked``, ``errors_recovered``;
    ``lookups``, ``hits``).  A baseline (unmemoized) device does no
    lookups, and masks nothing.
    """
    failures = []
    for kind, c in counters.items():
        if c["errors_injected"] != c["errors_masked"] + c["errors_recovered"]:
            failures.append(
                f"{name} {kind}: injected {c['errors_injected']} != masked "
                f"{c['errors_masked']} + recovered {c['errors_recovered']}"
            )
        stats = lut.get(kind, {"lookups": 0, "hits": 0})
        expected_lookups = c["ops"] if memoized else 0
        if stats["lookups"] != expected_lookups:
            failures.append(
                f"{name} {kind}: {stats['lookups']} lookups for "
                f"{c['ops']} ops"
            )
        if not 0 <= stats["hits"] <= stats["lookups"]:
            failures.append(
                f"{name} {kind}: {stats['hits']} hits > "
                f"{stats['lookups']} lookups"
            )
        if not memoized and c["errors_masked"]:
            failures.append(f"{name} {kind}: baseline masked errors")
    return failures


def check_injection(name: str, injected: int, ops: int, rate: float) -> List[str]:
    """Injected errors within 5 sigma of ``rate * ops`` (Bernoulli)."""
    if rate == 0.0:
        return [] if injected == 0 else [
            f"{name}: {injected} errors injected at rate 0"
        ]
    mean = rate * ops
    sigma = math.sqrt(ops * rate * (1.0 - rate))
    if abs(injected - mean) > INJECTION_SIGMAS * sigma:
        return [
            f"{name}: {injected} errors injected over {ops} ops at rate "
            f"{rate:g} (expected {mean:.1f} +- {INJECTION_SIGMAS:g} sigma "
            f"= {sigma:.1f})"
        ]
    return []


def check_same_ops(kernel: str, ops_by_rate: Mapping[float, int]) -> List[str]:
    """An exact-matching kernel executes the same op count in every cell."""
    if len(set(ops_by_rate.values())) > 1:
        return [f"{kernel}: op count differs across cells {dict(ops_by_rate)}"]
    return []


# ---------------------------------------------------------- campaign checks


def check_shard_coverage(
    expected: Sequence[str], computed: Iterable[str]
) -> Dict[str, List[str]]:
    """Every expected shard computed exactly once, and nothing else.

    Returns failures keyed by shard label ("" for unexpected labels), so
    the caller can fail exactly the affected operations.
    """
    seen: Dict[str, int] = {}
    for label in computed:
        seen[label] = seen.get(label, 0) + 1
    failures: Dict[str, List[str]] = {}
    for label in expected:
        count = seen.pop(label, 0)
        if count != 1:
            failures[label] = [f"shard {label!r} computed {count} times"]
    if seen:
        failures[""] = [f"unexpected shards computed: {sorted(seen)}"]
    return failures


def check_cold_start(cached_at_start: int, computed: int, total: int) -> List[str]:
    """A cold pass starts from an empty store and computes every cell."""
    failures = []
    if cached_at_start:
        failures.append(
            f"cold pass found {cached_at_start} of {total} shards already "
            "stored (store left warm by an earlier run)"
        )
    if computed != total:
        failures.append(f"cold pass computed {computed} of {total} shards")
    return failures


def check_warm(what: str, computed: int, cached: int, total: int) -> List[str]:
    """A warm pass reads every cell and computes none."""
    if computed or cached != total:
        return [
            f"{what}: computed {computed}, read {cached} of {total} "
            "(a warm pass must only read)"
        ]
    return []


def check_same_bytes(what: str, reference: str, other: str) -> List[str]:
    if reference != other:
        return [f"{what}: merged result differs from the cold pass"]
    return []
