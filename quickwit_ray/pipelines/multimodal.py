"""Multimodal column processing: image/audio/video as opaque `binary`
columns with typed metadata, processed by actor-pool map_batches stages.

Round-2: the image decode kernel is REAL for the formats decodable with
numpy alone — PPM (P6/P3), PGM (P5/P2) and uncompressed BI_RGB BMP
(24/32-bit) — plus the deterministic FAKEIMG container used by tests.
JPEG/PNG would need an image library that is not in this environment;
unknown formats yield null metadata rows (or raise with strict=True).
Video frame sampling remains a declared stub (no ffmpeg).

The Ray-side plumbing — schema contract, actor pool setup, small batch
sizing for wide binary rows, output layout — is the scale-relevant part:
decode state lives in the actor (one __init__ per actor), batches stay
small so batch_size x concurrency of multi-MB payloads fits worker heaps.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Optional

import numpy as np
import pyarrow as pa

IMAGE_META_SCHEMA = pa.schema([
    ("width", pa.int32()), ("height", pa.int32()), ("channels", pa.int32()),
    ("format", pa.string()),
])


# ---------------------------------------------------------------------------
# encoders (deterministic test/bench data)
# ---------------------------------------------------------------------------

def make_fake_image(width: int, height: int, fmt: str = "fake") -> bytes:
    """Deterministic fake 'encoded image': header + seeded pixel bytes."""
    head = f"FAKEIMG:{fmt}:{width}:{height};".encode()
    n = width * height * 3
    seed = int(hashlib.sha1(head).hexdigest()[:8], 16)
    rng = np.random.Generator(np.random.PCG64(seed))
    return head + rng.integers(0, 256, n, dtype=np.uint8).tobytes()


def _seeded_pixels(width: int, height: int, channels: int, seed: int) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.integers(0, 256, (height, width, channels), dtype=np.uint8)


def make_ppm(width: int, height: int, seed: int = 0) -> bytes:
    """Binary P6 PPM with seeded RGB pixels."""
    px = _seeded_pixels(width, height, 3, seed)
    return f"P6\n{width} {height}\n255\n".encode() + px.tobytes()


def make_pgm(width: int, height: int, seed: int = 0) -> bytes:
    """Binary P5 PGM (grayscale)."""
    px = _seeded_pixels(width, height, 1, seed)
    return f"P5\n{width} {height}\n255\n".encode() + px.tobytes()


def make_bmp(width: int, height: int, seed: int = 0) -> bytes:
    """Uncompressed 24-bit BI_RGB BMP (bottom-up rows, 4-byte padding)."""
    px = _seeded_pixels(width, height, 3, seed)
    row_bytes = width * 3
    pad = (-row_bytes) % 4
    body = b"".join(
        px[y, :, ::-1].tobytes() + b"\x00" * pad  # BGR order, bottom-up
        for y in range(height - 1, -1, -1))
    pixel_off = 14 + 40
    file_size = pixel_off + len(body)
    header = struct.pack("<2sIHHI", b"BM", file_size, 0, 0, pixel_off)
    dib = struct.pack("<IiiHHIIiiII", 40, width, height, 1, 24, 0,
                      len(body), 2835, 2835, 0, 0)
    return header + dib + body


# ---------------------------------------------------------------------------
# decoders (pure numpy)
# ---------------------------------------------------------------------------

def _decode_pnm(buf: bytes):
    """P6/P3 PPM and P5/P2 PGM. Returns (format, w, h, HxWxC uint8)."""
    magic = buf[:2]
    if magic not in (b"P6", b"P3", b"P5", b"P2"):
        return None
    # header tokens: magic, width, height, maxval — whitespace/comment-aware
    toks, i, n = [], 2, len(buf)
    while len(toks) < 3 and i < n:
        c = buf[i:i + 1]
        if c == b"#":
            while i < n and buf[i:i + 1] != b"\n":
                i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < n and not buf[j:j + 1].isspace():
                j += 1
            toks.append(buf[i:j])
            i = j
    if len(toks) < 3:
        return None
    w, h, maxval = int(toks[0]), int(toks[1]), int(toks[2])
    if maxval <= 0 or maxval > 255 or w <= 0 or h <= 0:
        return None
    i += 1  # single whitespace after maxval
    ch = 3 if magic in (b"P6", b"P3") else 1
    need = w * h * ch
    if magic in (b"P6", b"P5"):
        if len(buf) < i + need:
            return None
        px = np.frombuffer(buf, np.uint8, count=need, offset=i)
    else:  # ascii variants
        vals = np.array(buf[i:].split()[:need], dtype=np.int64)
        if len(vals) < need:
            return None
        px = vals.astype(np.uint8)
    fmt = {b"P6": "ppm", b"P3": "ppm", b"P5": "pgm", b"P2": "pgm"}[magic]
    return fmt, w, h, px.reshape(h, w, ch)


def _decode_bmp(buf: bytes):
    """Uncompressed BI_RGB 24/32-bit BMP -> (format, w, h, HxWx3 uint8)."""
    if buf[:2] != b"BM" or len(buf) < 54:
        return None
    pixel_off = struct.unpack_from("<I", buf, 10)[0]
    dib_size = struct.unpack_from("<I", buf, 14)[0]
    if dib_size < 40:
        return None
    w, h_raw = struct.unpack_from("<ii", buf, 18)
    bpp = struct.unpack_from("<H", buf, 28)[0]
    compression = struct.unpack_from("<I", buf, 30)[0]
    if compression != 0 or bpp not in (24, 32) or w <= 0 or h_raw == 0:
        return None
    top_down = h_raw < 0
    h = abs(h_raw)
    ch = bpp // 8
    row_bytes = (w * ch + 3) & ~3
    need = pixel_off + row_bytes * h
    if len(buf) < need:
        return None
    rows = np.frombuffer(buf, np.uint8, count=row_bytes * h,
                         offset=pixel_off).reshape(h, row_bytes)
    px = rows[:, : w * ch].reshape(h, w, ch)
    if not top_down:
        px = px[::-1]
    # BGR(A) -> RGB
    px = px[:, :, [2, 1, 0]]
    return "bmp", w, h, np.ascontiguousarray(px)


def _decode_fake(buf: bytes):
    if not buf.startswith(b"FAKEIMG:"):
        return None
    head, _, _ = buf.partition(b";")
    _, fmt, w, h = head.decode().split(":")
    w, h = int(w), int(h)
    pixels = np.frombuffer(buf[len(head) + 1:], np.uint8)
    return fmt, w, h, pixels[: w * h * 3].reshape(h, w, 3)


def decode_image(buf: bytes):
    """Dispatch over the supported containers; None when undecodable."""
    if buf is None or len(buf) < 2:
        return None
    if buf.startswith(b"FAKEIMG:"):
        return _decode_fake(buf)
    if buf[:1] == b"P":
        return _decode_pnm(buf)
    if buf[:2] == b"BM":
        return _decode_bmp(buf)
    return None


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

class DecodeImageStage:
    """Actor-pool stage: binary image column -> decoded metadata + feature.

    Decodes PPM/PGM/BMP (pure numpy) and the FAKEIMG test container.
    ``strict=True`` raises on undecodable payloads instead of emitting a
    null row. JPEG/PNG would plug in here (one function in __init__, loaded
    once per actor). Batch size must stay small for multi-MB payloads —
    callers pass batch_size explicitly.
    """

    def __init__(self, image_col: str = "image", fake: bool = True,
                 resize_to: Optional[tuple[int, int]] = None,
                 strict: bool = False):
        # `fake` kept for back-compat; the decoder handles real formats
        # regardless, FAKEIMG is just one more container.
        self.image_col = image_col
        self.resize_to = resize_to
        self.strict = strict

    def __call__(self, batch: pa.Table) -> pa.Table:
        widths, heights, channels, fmts, means = [], [], [], [], []
        for buf in batch[self.image_col].to_pylist():
            dec = decode_image(buf)
            if dec is None:
                if self.strict and buf is not None:
                    raise ValueError("undecodable image payload "
                                     f"({(buf or b'')[:8]!r})")
                widths.append(None); heights.append(None)
                channels.append(None); fmts.append(None); means.append(None)
                continue
            fmt, w, h, px = dec
            if self.resize_to is not None:
                tw, th = self.resize_to
                yi = (np.arange(th) * h // th)[:, None]
                xi = (np.arange(tw) * w // tw)[None, :]
                px = px[yi, xi]
                h, w = th, tw
            widths.append(w); heights.append(h)
            channels.append(px.shape[2])
            fmts.append(fmt); means.append(float(px.mean()))
        out = batch.drop_columns([self.image_col])
        return (out.append_column("width", pa.array(widths, pa.int32()))
                   .append_column("height", pa.array(heights, pa.int32()))
                   .append_column("channels", pa.array(channels, pa.int32()))
                   .append_column("format", pa.array(fmts, pa.string()))
                   .append_column("pixel_mean", pa.array(means, pa.float64())))


def decode_images(ds, image_col: str = "image", fake: bool = True,
                  resize_to=None, concurrency: int = 4, batch_size: int = 64,
                  strict: bool = False):
    """Wire the decode stage as an actor pool with small batches (wide
    binary payloads: batch_size x concurrency must fit worker heaps)."""
    return ds.map_batches(
        DecodeImageStage,
        fn_constructor_kwargs=dict(image_col=image_col, fake=fake,
                                   resize_to=resize_to, strict=strict),
        batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency, num_cpus=1)


# ---------------------------------------------------------------------------
# audio: RIFF/WAVE PCM (pure struct+numpy — real decode, like the image
# containers above; MP3/OGG/FLAC would plug a codec into DecodeAudioStage's
# __init__, loaded once per actor)
# ---------------------------------------------------------------------------

def make_wav(n_samples: int, sample_rate: int = 16_000, channels: int = 1,
             seed: int = 0) -> bytes:
    """Deterministic PCM16 WAV (RIFF header + seeded sine-ish samples)."""
    import struct

    t = np.arange(n_samples * channels, dtype=np.float64)
    freq = 110.0 + (seed % 40) * 13.0
    samples = (np.sin(2 * np.pi * freq * t / sample_rate) * 12_000) \
        .astype("<i2")
    data = samples.tobytes()
    byte_rate = sample_rate * channels * 2
    hdr = (b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
           + b"fmt " + struct.pack("<IHHIIHH", 16, 1, channels, sample_rate,
                                   byte_rate, channels * 2, 16)
           + b"data" + struct.pack("<I", len(data)))
    return hdr + data


def decode_wav(buf: bytes):
    """RIFF/WAVE PCM16 -> (sample_rate, channels, n_samples, rms); None
    when not a decodable WAV. Walks RIFF chunks (fmt may not directly
    precede data in real files)."""
    import struct

    if buf is None or len(buf) < 44 or buf[:4] != b"RIFF" \
            or buf[8:12] != b"WAVE":
        return None
    pos, sr, ch, bits, data = 12, None, None, None, None
    while pos + 8 <= len(buf):
        cid, ln = buf[pos:pos + 4], struct.unpack("<I", buf[pos + 4:pos + 8])[0]
        body = buf[pos + 8: pos + 8 + ln]
        if len(body) < ln:
            return None  # truncated chunk: undecodable, never raise
        if cid == b"fmt " and ln >= 16:
            _fmt, ch, sr, _br, _ba, bits = struct.unpack("<HHIIHH", body[:16])
        elif cid == b"data":
            data = body
        pos += 8 + ln + (ln & 1)  # chunks are word-aligned
    if sr is None or data is None or bits != 16 or not ch:
        return None
    samples = np.frombuffer(data[: len(data) - (len(data) % 2)], dtype="<i2")
    n = len(samples) // ch
    rms = float(np.sqrt(np.mean((samples.astype(np.float64)) ** 2))) if n else 0.0
    return int(sr), int(ch), int(n), rms


class DecodeAudioStage:
    """Actor-pool stage: binary audio column -> decoded metadata +
    energy feature (sample_rate / channels / n_samples / duration_ms /
    rms). Same shape rules as DecodeImageStage: small batches, one codec
    load per actor, ``strict`` raises instead of emitting null rows."""

    def __init__(self, audio_col: str = "audio", strict: bool = False):
        self.audio_col = audio_col
        self.strict = strict

    def __call__(self, batch: pa.Table) -> pa.Table:
        srs, chs, ns, durs, rmss = [], [], [], [], []
        for buf in batch[self.audio_col].to_pylist():
            dec = decode_wav(buf)
            if dec is None:
                if self.strict:
                    raise ValueError("undecodable audio payload")
                srs.append(None); chs.append(None); ns.append(None)
                durs.append(None); rmss.append(None)
                continue
            sr, ch, n, rms = dec
            srs.append(sr); chs.append(ch); ns.append(n)
            durs.append(n * 1000 // sr); rmss.append(rms)
        keep = [c for c in batch.column_names if c != self.audio_col]
        out = {c: batch[c] for c in keep}
        out.update({"sample_rate": pa.array(srs, pa.int64()),
                    "channels": pa.array(chs, pa.int64()),
                    "n_samples": pa.array(ns, pa.int64()),
                    "duration_ms": pa.array(durs, pa.int64()),
                    "rms": pa.array(rmss, pa.float64())})
        return pa.table(out)


def decode_audio(ds, audio_col: str = "audio", concurrency: int = 4,
                 batch_size: int = 64, strict: bool = False):
    """Wire the audio decode stage as an actor pool (small batches: wide
    binary payloads x concurrency must fit worker heaps)."""
    return ds.map_batches(
        DecodeAudioStage,
        fn_constructor_kwargs=dict(audio_col=audio_col, strict=strict),
        batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency, num_cpus=1)
