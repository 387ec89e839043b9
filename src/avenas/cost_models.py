"""Cost accounting: the measured-latency lookup table and the MAC/FLOPs counter.

Latency tables are CSV files keyed by (view, branch, block, operator,
channel-scale, resolution); an architecture's latency is the plain sum of its
chosen entries, mirroring how per-operator device measurements compose. The
FLOPs counter reports multiply-accumulates (1 MAC = 1 FLOP) per branch for one
discrete architecture, with the fixed stem and projection heads broken out
separately from the searchable blocks.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from importlib.resources import files

from .serialize import atomic_write
from .supernet import (
    Block, SampledArch, SupernetSpec,
    block_macs, conv_out_hw, scaled_channels, validate_arch,
)

LUT_COLUMNS = ("view", "branch", "block", "op", "scale", "resolution", "latency_ms")

LutKey = tuple[str, str, int, str, float, int]

# the device model of synthetic_latency_table (1e-6 ms per MAC is 1 ns per MAC)
SYNTHETIC_MS_PER_MAC = {"conv": 1.0e-6, "fuse-mb": 1.2e-6, "skip": 0.6e-6}
SYNTHETIC_OVERHEAD_MS = 0.002


class LatencyTableError(ValueError):
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
        space = spec.search_space
        missing = []
        for view, branch, i, *_ in spec.blocks():
            for op in space.operators:
                for sc in space.channel_scales:
                    for res in space.resolutions:
                        if (view, branch, i, op, sc, res) not in self.entries:
                            missing.append((view, branch, i, op, sc, res))
        if missing:
            raise LatencyTableError(
                f"latency table misses {len(missing)} entries; first: {missing[0]}")

    def save(self, path) -> None:
        with atomic_write(path, newline="") as f:
            w = csv.writer(f)
            w.writerow(LUT_COLUMNS)
            for (view, branch, block, op, scale, res), ms in self.entries.items():
                w.writerow([view, branch, block, op, repr(scale), res, repr(ms)])


def load_latency_table(path) -> LatencyTable:
    entries: dict[LutKey, float] = {}
    first_row: dict[LutKey, int] = {}
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise LatencyTableError(f"{path}: empty file, expected header row") from None
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
            if ms < 0:
                raise LatencyTableError(f"{path}:{lineno}: negative latency {ms}")
            if key in entries:
                raise LatencyTableError(
                    f"{path}:{lineno}: duplicate key {key} (first seen at row "
                    f"{first_row[key]})")
            entries[key] = ms
            first_row[key] = lineno
    return LatencyTable(entries=entries)


def _nominal_block_macs(b: Block, op: str, scale: float) -> int:
    return block_macs(op, b.c_in_max, scaled_channels(scale, b.c_out_max),
                      b.stride, b.h_in)[0]


def single_block_macs(spec: SupernetSpec, view: str, branch: str, block: int,
                      op: str, scale: float, resolution: int) -> int:
    """MACs of one block in isolation, at its nominal input width (the
    convention synthetic latency entries use)."""
    for b in spec.blocks(dict.fromkeys(spec.views, resolution)):
        if b[:3] == (view, branch, block):
            return _nominal_block_macs(b, op, scale)
    raise KeyError(f"no block {view}/{branch}/b{block}")


def synthetic_latency_table(spec: SupernetSpec) -> LatencyTable:
    """Deterministic stand-in for device measurements: latency proportional to
    the block's MAC count (as ``single_block_macs`` counts it) at the
    per-operator factor ``SYNTHETIC_MS_PER_MAC``, plus the fixed dispatch
    overhead ``SYNTHETIC_OVERHEAD_MS``."""
    space = spec.search_space
    walks = {res: list(spec.blocks(dict.fromkeys(spec.views, res)))
             for res in space.resolutions}
    entries: dict[LutKey, float] = {}
    for j, (view, branch, i, *_) in enumerate(spec.blocks()):
        for op in space.operators:
            for sc in space.channel_scales:
                for res in space.resolutions:
                    macs = _nominal_block_macs(walks[res][j], op, sc)
                    entries[(view, branch, i, op, sc, res)] = \
                        SYNTHETIC_OVERHEAD_MS + macs * SYNTHETIC_MS_PER_MAC[op]
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
    """Per-branch multiply-accumulate counts of one discrete architecture."""
    validate_arch(spec, arch)
    macs = {f"{v}/{branch}": 0 for v in spec.views for branch in spec.branches(v)}
    branch_out = {}
    for b in spec.blocks(arch.resolutions, arch.channel_scales):
        op = arch.op_at(b.view, b.branch, b.i)
        macs[f"{b.view}/{b.branch}"] += block_macs(op, b.c_in, b.c_out, b.stride, b.h_in)[0]
        branch_out[b.view, b.branch] = b.c_out
    fixed: dict[str, float] = {}
    for view in spec.views:
        stem_h = conv_out_hw(arch.resolutions[view], 3, 2, 1)
        fixed[f"{view}/stem"] = 9 * 1 * spec.stem_channels * stem_h * stem_h / 1e6
        for (v, branch), c_out in branch_out.items():
            if v == view and branch != "backbone":
                fixed[f"{view}/{branch}_head"] = c_out * spec.head_dim(branch) / 1e6
    fixed["shared/latent_head"] = (len(spec.views) * spec.latent_feat_dim * spec.z_dim) / 1e6
    return FlopsReport(branches={k: m / 1e6 for k, m in macs.items()}, fixed=fixed)


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
    total = 0
    for view in spec.views:
        stem_h = conv_out_hw(arch.resolutions[view], 3, 2, 1)
        conv_h = conv_out_hw(stem_h, 3, 2, 1)
        total += 9 * spec.stem_channels * spec.early_channels * conv_h * conv_h
    total += len(spec.views) * spec.early_channels * spec.z_dim
    return total / 1e6
