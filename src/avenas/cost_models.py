"""Cost accounting: the measured-latency lookup table and the MAC/FLOPs counter.

Latency tables are CSV files keyed by (view, branch, block, operator,
channel-scale, resolution); an architecture's latency is the plain sum of its
chosen entries, mirroring how per-operator device measurements compose;
``lut_keys`` lists the keys of a complete table. The FLOPs counter sums the
per-layer multiply-accumulates of ``supernet.layer_macs`` (1 MAC = 1 FLOP) per
branch for one discrete architecture, with the fixed stem and projection
heads broken out separately from the searchable blocks.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass, field
from importlib.resources import files
from typing import Iterator

from .serialize import InputError, write_csv
from .supernet import (
    Block, SampledArch, SupernetSpec, block_macs, layer_macs, scaled_channels,
)

LUT_COLUMNS = ("view", "branch", "block", "op", "scale", "resolution", "latency_ms")

LutKey = tuple[str, str, int, str, float, int]

# the device model of synthetic_latency_table (1e-6 ms per MAC is 1 ns per MAC)
SYNTHETIC_MS_PER_MAC = {"conv": 1.0e-6, "fuse-mb": 1.2e-6, "skip": 0.6e-6}
SYNTHETIC_OVERHEAD_MS = 0.002


class LatencyTableError(InputError):
    pass


@dataclass
class LatencyTable:
    entries: dict[LutKey, float]

    def query(self, view: str, branch: str, block: int, op: str,
              scale: float, resolution: int) -> float:
        key = (view, branch, block, op, scale, resolution)
        try:
            return self.entries[key]
        except KeyError:
            raise LatencyTableError(f"latency table has no entry for {key}") from None

    def validate_coverage(self, spec: SupernetSpec) -> None:
        missing = [key for key, _ in lut_keys(spec) if key not in self.entries]
        if missing:
            raise LatencyTableError(
                f"latency table misses {len(missing)} entries; first: {missing[0]}")

    def save(self, path) -> None:
        write_csv(path, LUT_COLUMNS,
                  ([view, branch, block, op, repr(scale), res, repr(ms)]
                   for (view, branch, block, op, scale, res), ms in self.entries.items()))


def load_latency_table(path) -> LatencyTable:
    entries: dict[LutKey, float] = {}
    first_row: dict[LutKey, int] = {}
    try:
        with open(path, newline="") as f:
            reader = csv.reader(f)
            header = next(reader, None)
            if header is None:
                raise LatencyTableError(f"{path}: empty file, expected header row")
            if tuple(h.strip() for h in header) != LUT_COLUMNS:
                raise LatencyTableError(
                    f"{path}: bad header {header}, expected {list(LUT_COLUMNS)}")
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(LUT_COLUMNS):
                    raise LatencyTableError(f"{path}:{lineno}: expected "
                                            f"{len(LUT_COLUMNS)} columns, got {len(row)}")
                try:
                    key = (row[0], row[1], int(row[2]), row[3], float(row[4]), int(row[5]))
                    ms = float(row[6])
                except ValueError as e:
                    raise LatencyTableError(f"{path}:{lineno}: {e}") from None
                if not 0 <= ms < math.inf:
                    raise LatencyTableError(f"{path}:{lineno}: latency must be finite "
                                            f"and non-negative, got {ms}")
                if key in entries:
                    raise LatencyTableError(
                        f"{path}:{lineno}: duplicate key {key} (first seen at row "
                        f"{first_row[key]})")
                entries[key] = ms
                first_row[key] = lineno
    except (UnicodeDecodeError, csv.Error) as e:
        raise LatencyTableError(f"{path}: not a CSV text file ({e})") from None
    return LatencyTable(entries=entries)


def lut_keys(spec: SupernetSpec) -> Iterator[tuple[LutKey, Block]]:
    """Every key of a complete latency table, with its block as walked at
    the key's resolution: blocks in walk order, then operator, channel scale
    and resolution."""
    space = spec.search_space
    walks = [spec.blocks(dict.fromkeys(spec.views, res)) for res in space.resolutions]
    for at_res in zip(*walks):
        view, branch, i = at_res[0][:3]
        for op in space.operators:
            for sc in space.channel_scales:
                for res, b in zip(space.resolutions, at_res):
                    yield (view, branch, i, op, sc, res), b


def synthetic_latency_table(spec: SupernetSpec) -> LatencyTable:
    """Deterministic stand-in for device measurements: latency proportional to
    the MACs of the block in isolation, at its nominal input width, at the
    per-operator factor ``SYNTHETIC_MS_PER_MAC``, plus the fixed dispatch
    overhead ``SYNTHETIC_OVERHEAD_MS``."""
    macs = functools.cache(block_macs)      # like blocks recur across views
    entries: dict[LutKey, float] = {}
    for key, b in lut_keys(spec):
        op, sc = key[3:5]
        m, _ = macs(op, b.c_in_max, scaled_channels(sc, b.c_out_max), b.stride, b.h_in)
        entries[key] = SYNTHETIC_OVERHEAD_MS + m * SYNTHETIC_MS_PER_MAC[op]
    return LatencyTable(entries=entries)


def score_arch(spec: SupernetSpec, arch: SampledArch, lut: LatencyTable) -> float:
    """Summed-up latency of the chosen entries, in block order."""
    total = 0.0
    for view, branch, i, *_ in spec.blocks():
        total += lut.query(view, branch, i, arch.op_at(view, branch, i),
                           arch.scale_at(view, branch, i), arch.resolutions[view])
    return total


# ---------------------------------------------------------------------------
# FLOPs accounting
# ---------------------------------------------------------------------------

@dataclass
class FlopsReport:
    branches: dict[str, float]      # "view/branch" -> MFLOPs of searchable blocks
    fixed: dict[str, float]         # stems, projection heads, final latent head
    total_mflops: float = field(init=False)

    def __post_init__(self):
        self.total_mflops = sum(self.branches.values()) + sum(self.fixed.values())

    def to_json_dict(self) -> dict:
        return {"branches": dict(sorted(self.branches.items())),
                "fixed": dict(sorted(self.fixed.items())),
                "total_mflops": self.total_mflops}


def count_flops(arch: SampledArch, spec: SupernetSpec) -> FlopsReport:
    """Per-branch multiply-accumulate counts of one discrete architecture,
    summed over its layers (``layer_macs``), the early path aside."""
    macs = layer_macs(spec, arch)
    branches = {f"{v}/{branch}": 0 for v in spec.views for branch in spec.branches(v)}
    fixed: dict[str, float] = {}
    for name, m in macs.items():
        view, *layer = name.split("/")
        if len(layer) == 3:                         # <branch>/b<i>/<kernel>
            branches[f"{view}/{layer[0]}"] += m
        elif layer == ["stem"] or layer[1:] == ["head"]:
            fixed[name.replace("/head", "_head")] = m / 1e6
    fixed["shared/latent_head"] = macs["head"] / 1e6
    return FlopsReport(branches={k: m / 1e6 for k, m in branches.items()}, fixed=fixed)


REFERENCE_ARCHS = ("ave_s", "ave_m", "ave_l")


def load_reference_arch(name: str) -> tuple[SampledArch, dict]:
    """One of the bundled encoder encodings plus its published MFLOPs figures."""
    if name not in REFERENCE_ARCHS:
        raise ValueError(f"unknown reference architecture {name!r}; "
                         f"have {list(REFERENCE_ARCHS)}")
    doc = json.loads((files("avenas") / "reference_archs" / f"{name}.json").read_text())
    return SampledArch.from_json_dict(doc), doc.get("reported_mflops", {})


def early_head_mflops(arch: SampledArch, spec: SupernetSpec) -> float:
    """FLOPs of the early-prediction head (conv after the stem, pool, affine).

    Its conv input is the fixed-width stem output, so the cost depends only on
    the input resolutions, never on the searched choices.
    """
    macs = layer_macs(spec, arch)
    return (sum(macs[f"{v}/early"] for v in spec.views) + macs["early_head"]) / 1e6
